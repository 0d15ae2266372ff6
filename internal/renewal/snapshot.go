package renewal

import (
	"fmt"
	"math"

	"github.com/cnfet/yieldlab/internal/dist"
)

// Snapshot is a portable copy of a Model's swept count table plus the grid
// configuration it was computed under. It is the unit the persistent sweep
// store (internal/sweepstore) serializes: restoring a snapshot into a
// freshly built model skips the arrival sweep entirely, which is what lets
// a restarted server answer its first pF query without recomputing.
//
// A snapshot holds the whole table or nothing: PMFs[i] is the count PMF at
// grid index i+1 for every index up to the grid's full horizon (index 0 is
// always the zero-count point mass and is not stored), or PMFs is empty
// for a model not swept yet. A snapshot only ever transfers between models
// whose grid parameters match bit-exactly, so a restore can never change a
// result.
type Snapshot struct {
	Step     float64
	MaxWidth float64
	PMFs     []dist.PMF
}

// Snapshot captures the model's swept table. The returned PMFs share the
// model's table; both sides treat it as read-only, so no copy is needed.
func (m *Model) Snapshot() *Snapshot {
	m.mu.Lock()
	table := m.table
	m.mu.Unlock()
	return &Snapshot{
		Step:     m.step,
		MaxWidth: m.maxWidth,
		PMFs:     table,
	}
}

// Restore installs a snapshot's whole table into the model. The snapshot's
// grid configuration must match the model's bit-exactly — a snapshot from a
// different grid would silently shift every width, so mismatch is an error,
// not a no-op — and it must hold one PMF per grid index up to the full
// horizon. Restoring into a model that already holds its table is a no-op:
// the tables are bit-identical (same law, same grid, same kernels).
func (m *Model) Restore(s *Snapshot) error {
	if s == nil {
		return fmt.Errorf("renewal: nil snapshot")
	}
	if err := m.matches(s); err != nil {
		return err
	}
	if n := m.fullHorizon(); len(s.PMFs) != n {
		return fmt.Errorf("renewal: snapshot holds %d PMFs, grid horizon is %d", len(s.PMFs), n)
	}
	for i, pmf := range s.PMFs {
		if pmf.Len() == 0 {
			return fmt.Errorf("renewal: snapshot PMF at index %d empty", i+1)
		}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.table == nil {
		m.table = s.PMFs
		m.sweepDone.Broadcast()
	}
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
	}
	return nil
}

// Key returns the law+grid identity string the snapshot's tables belong
// under — the exact key the SweepCache files its model by, so persistent
// stores naming records after it stay collision-consistent with the cache.
func (s *Snapshot) Key(fingerprint string) string {
	return identityKey(fingerprint, s.Step, s.MaxWidth)
}

// Options returns the option list that reconstructs a model with this
// snapshot's grid configuration — the bridge the sweep store uses to rebuild
// a cache entry from its serialized form.
func (s *Snapshot) Options() []Option {
	return []Option{WithStep(s.Step), WithMaxWidth(s.MaxWidth)}
}
