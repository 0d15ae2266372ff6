package renewal

import "github.com/cnfet/yieldlab/internal/dist"

// keyBufLen sizes ModelTracked's key buffer: a truncated normal's
// fingerprint (73 bytes) plus the grid segments (68 bytes).
const keyBufLen = 160

// identityKey formats the full identity of a law+grid combination: the law
// fingerprint plus the grid, floats compared by exact bits. Both the cache
// key and Snapshot.Key (hence the sweep store's file naming) derive from
// this one format, so they cannot drift apart.
func identityKey(fp string, step, maxWidth float64) string {
	return string(appendGridKey(append(make([]byte, 0, len(fp)+96), fp...), step, maxWidth))
}

// appendGridKey appends the grid segments of an identity key. The eps and
// ord segments name the fixed tail threshold and the equilibrium initial
// condition; they are kept so every stored record keeps its file name.
func appendGridKey(b []byte, step, maxWidth float64) []byte {
	b = dist.AppendHexBits(append(b, "|step="...), step)
	b = dist.AppendHexBits(append(b, "|max="...), maxWidth)
	b = dist.AppendHexBits(append(b, "|eps="...), DefaultTailEps)
	return append(b, "|ord=false"...)
}

// cacheKey derives the key a miss files a configured model under: the key
// a hit appends for the same law and grid.
func cacheKey(fp string, m *Model) string {
	return identityKey(fp, m.step, m.maxWidth)
}

// addLocked is ModelTracked's miss: it configures and validates a model
// for the law (fingerprint fp) and grid, and files it under its identity
// key. No entry holds an invalid grid, so validating only on a miss
// changes no answer. Caller holds c.mu.
func (c *SweepCache) addLocked(spacing dist.Continuous, fp string, opts []Option) (*Model, error) {
	m, err := newConfigured(spacing, opts...)
	if err != nil {
		return nil, err
	}
	c.clock++
	c.misses++
	// Discretization runs under the lock: it is far cheaper than the sweeps
	// the cache exists to share, and holding the lock keeps concurrent
	// first-callers from building duplicate models.
	m.finish()
	c.entries[cacheKey(fp, m)] = &cacheEntry{model: m, fp: fp, use: c.clock}
	c.evictOverLimit()
	return m, nil
}
