package sweepstore_test

import (
	"testing"

	"github.com/cnfet/yieldlab/internal/device"
	"github.com/cnfet/yieldlab/internal/experiments"
	"github.com/cnfet/yieldlab/internal/renewal"
	"github.com/cnfet/yieldlab/internal/sweepstore"
)

// BenchmarkWarmCache measures a warm-store start's dominant cost: WarmCache
// of the default pitch law's record on the default grid (8800 PMFs, ~8.1 MB
// on disk) into an empty sweep cache, i.e. one streamed, checksummed,
// validated decode and one Restore. Registered in BENCH_BASELINE.json with
// the ratio gate against BenchmarkRenewalSweepCold.
func BenchmarkWarmCache(b *testing.B) {
	p := experiments.DefaultParams()
	store, err := sweepstore.Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	cache := renewal.NewSweepCache()
	m, err := device.NewCalibratedModelWith(cache, device.WorstCorner(),
		renewal.WithStep(p.GridStepNM), renewal.WithMaxWidth(p.MaxWidthNM))
	if err != nil {
		b.Fatal(err)
	}
	if _, err := m.FailureProb(p.MaxWidthNM); err != nil {
		b.Fatal(err)
	}
	if n, err := sweepstore.PersistCache(store, cache); err != nil || n != 1 {
		b.Fatalf("primed %d records (err %v), want 1", n, err)
	}
	b.ReportAllocs()
	for b.Loop() {
		if n, err := sweepstore.WarmCache(store, renewal.NewSweepCache()); err != nil || n != 1 {
			b.Fatalf("restored %d records (err %v), want 1", n, err)
		}
	}
}
