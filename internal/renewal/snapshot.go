package renewal

import (
	"fmt"
	"math"

	"github.com/cnfet/yieldlab/internal/dist"
)

// Snapshot is a portable copy of a Model's swept count tables plus the grid
// configuration they were computed under. It is the unit the persistent
// sweep store (internal/sweepstore) serializes: restoring a snapshot into a
// freshly built model skips the arrival sweeps entirely, which is what lets
// a restarted server answer its first pF query without recomputing.
//
// PMFs[i] holds the count PMF at grid index i+1 (index 0 is always the
// zero-count point mass and is not stored). A snapshot only ever transfers
// between models whose grid parameters match bit-exactly, so a restore can
// never change a result.
type Snapshot struct {
	Step     float64
	MaxWidth float64
	TailEps  float64
	Ordinary bool
	SweptTo  int
	PMFs     []dist.PMF
}

// Snapshot captures the model's current swept tables. The returned PMFs
// share mass slices with the model's cache; both sides treat them as
// read-only, so no copy is needed.
func (m *Model) Snapshot() *Snapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := &Snapshot{
		Step:     m.step,
		MaxWidth: m.maxWidth,
		TailEps:  m.tailEps,
		Ordinary: m.ordinary,
		SweptTo:  m.sweptTo,
		PMFs:     make([]dist.PMF, m.sweptTo),
	}
	for idx := 1; idx <= m.sweptTo; idx++ {
		pmf, ok := m.cache[idx]
		if !ok {
			// Cannot happen: sweep fills every index up to sweptTo. Guard so
			// a future regression surfaces as a short snapshot, not a panic.
			s.SweptTo = idx - 1
			s.PMFs = s.PMFs[:idx-1]
			break
		}
		s.PMFs[idx-1] = pmf
	}
	return s
}

// Restore installs a snapshot's swept tables into the model. The snapshot's
// grid configuration must match the model's bit-exactly — a snapshot from a
// different grid would silently shift every width, so mismatch is an error,
// not a no-op. Restoring less than the model has already swept is a no-op;
// restoring more extends the swept horizon without any convolution work.
func (m *Model) Restore(s *Snapshot) error {
	if s == nil {
		return fmt.Errorf("renewal: nil snapshot")
	}
	if err := m.matches(s); err != nil {
		return err
	}
	if s.SweptTo < 0 || s.SweptTo != len(s.PMFs) {
		return fmt.Errorf("renewal: snapshot holds %d PMFs for horizon %d", len(s.PMFs), s.SweptTo)
	}
	if maxIdx := int(math.Round(m.maxWidth / m.step)); s.SweptTo > maxIdx {
		return fmt.Errorf("renewal: snapshot horizon %d beyond grid max %d", s.SweptTo, maxIdx)
	}
	for i, pmf := range s.PMFs {
		if pmf.Len() == 0 {
			return fmt.Errorf("renewal: snapshot PMF at index %d empty", i+1)
		}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if s.SweptTo <= m.sweptTo {
		return nil
	}
	// Install only indexes beyond the model's own horizon: entries the model
	// already swept are bit-identical (same law, same grid, same kernels), and
	// keeping them avoids churn for callers holding references.
	for idx := m.sweptTo + 1; idx <= s.SweptTo; idx++ {
		m.cache[idx] = s.PMFs[idx-1]
	}
	m.sweptTo = s.SweptTo
	return nil
}

// matches checks the snapshot's grid configuration against the model's,
// comparing floats by exact bits (the same discipline as the sweep-cache
// key).
func (m *Model) matches(s *Snapshot) error {
	switch {
	case math.Float64bits(s.Step) != math.Float64bits(m.step):
		return fmt.Errorf("renewal: snapshot step %g != model step %g", s.Step, m.step)
	case math.Float64bits(s.MaxWidth) != math.Float64bits(m.maxWidth):
		return fmt.Errorf("renewal: snapshot max width %g != model max width %g", s.MaxWidth, m.maxWidth)
	case math.Float64bits(s.TailEps) != math.Float64bits(m.tailEps):
		return fmt.Errorf("renewal: snapshot tail eps %g != model tail eps %g", s.TailEps, m.tailEps)
	case s.Ordinary != m.ordinary:
		return fmt.Errorf("renewal: snapshot initial condition (ordinary=%t) != model (ordinary=%t)", s.Ordinary, m.ordinary)
	}
	return nil
}

// Key returns the law+grid identity string the snapshot's tables belong
// under — the exact key the SweepCache files its model by, so persistent
// stores naming records after it stay collision-consistent with the cache.
func (s *Snapshot) Key(fingerprint string) string {
	return identityKey(fingerprint, s.Step, s.MaxWidth, s.TailEps, s.Ordinary)
}

// Options returns the option list that reconstructs a model with this
// snapshot's grid configuration — the bridge the sweep store uses to rebuild
// a cache entry from its serialized form.
func (s *Snapshot) Options() []Option {
	opts := []Option{WithStep(s.Step), WithMaxWidth(s.MaxWidth), WithTailEps(s.TailEps)}
	if s.Ordinary {
		opts = append(opts, Ordinary())
	}
	return opts
}
