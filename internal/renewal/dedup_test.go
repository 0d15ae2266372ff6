package renewal

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"testing"

	"github.com/cnfet/yieldlab/internal/dist"
)

// Hammer one shared cache from many goroutines asking for the same law and
// grid: every caller must get the same model, the arrival sweep must run
// exactly once (model-level singleflight), and the run must be race-clean.
func TestSweepCacheSingleflightHammer(t *testing.T) {
	tn, err := dist.TruncNormalWithMean(4, 9.2, 0)
	if err != nil {
		t.Fatal(err)
	}
	c := NewSweepCache()
	const goroutines = 32
	models := make([]*Model, goroutines)
	errs := make(chan error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			m, err := c.Model(tn, WithStep(0.1), WithMaxWidth(120))
			if err != nil {
				errs <- err
				return
			}
			models[g] = m
			// Everyone asks for the full horizon at once: exactly one sweep
			// may run; the rest must wait on it, not redo it.
			if _, err := m.CountPMF(120); err != nil {
				errs <- err
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for g := 1; g < goroutines; g++ {
		if models[g] != models[0] {
			t.Fatal("cache handed out distinct models for one law+grid")
		}
	}
	if n := models[0].Sweeps(); n != 1 {
		t.Fatalf("sweeps = %d, want 1 (concurrent identical requests must dedupe)", n)
	}
	st := c.Stats()
	if st.Misses != 1 || st.Hits != goroutines-1 {
		t.Fatalf("stats = %+v, want 1 miss, %d hits", st, goroutines-1)
	}
	if st.Sweeps != 1 {
		t.Fatalf("aggregated sweeps = %d, want 1", st.Sweeps)
	}
}

// Every sweep covers the full grid, so concurrent queries dedupe onto at
// most one sweep and any later width — wider or narrower — is free. The
// canonical horizon is what keeps cached PMFs independent of query order.
func TestSweepWideningDedup(t *testing.T) {
	tn, err := dist.TruncNormalWithMean(4, 9.2, 0)
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(tn, WithStep(0.1), WithMaxWidth(150))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for _, w := range []float64{30, 60, 90} {
		wg.Add(1)
		go func(w float64) {
			defer wg.Done()
			if _, err := m.CountPMF(w); err != nil {
				t.Error(err)
			}
		}(w)
	}
	wg.Wait()
	first := m.Sweeps()
	if first != 1 {
		t.Fatalf("sweeps = %d, want 1 (concurrent requests share one full-grid sweep)", first)
	}
	// The canonical sweep covered the whole grid: every width is now free,
	// including ones wider than any of the original requests.
	for _, w := range []float64{10, 45, 89.9, 150} {
		if _, err := m.CountPMF(w); err != nil {
			t.Fatal(err)
		}
	}
	if n := m.Sweeps(); n != first {
		t.Fatalf("cached widths swept again: %d -> %d", first, n)
	}
}

// The eviction bound holds under concurrent churn over many distinct laws,
// and evicted models keep working for callers that hold them.
func TestSweepCacheEvictionBound(t *testing.T) {
	c := NewSweepCache()
	c.SetMaxEntries(4)
	var wg sync.WaitGroup
	models := make([]*Model, 16)
	for i := 0; i < len(models); i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			law := dist.Exponential{Rate: 0.1 + 0.01*float64(i)}
			m, err := c.Model(law, WithStep(0.1), WithMaxWidth(40))
			if err != nil {
				t.Error(err)
				return
			}
			models[i] = m
			if _, err := m.CountPMF(20); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	if n := c.Stats().Entries; n != 4 {
		t.Fatalf("Len = %d, want 4", n)
	}
	st := c.Stats()
	if st.Entries != 4 || st.Evictions != 12 {
		t.Fatalf("stats = %+v, want 4 entries, 12 evictions", st)
	}
	// Evicted models still answer.
	for _, m := range models {
		if _, err := m.CountPMF(30); err != nil {
			t.Fatal(err)
		}
	}
	// Shrinking evicts immediately; unbounding stops eviction.
	c.SetMaxEntries(1)
	if n := c.Stats().Entries; n != 1 {
		t.Fatalf("after shrink Len = %d, want 1", n)
	}
	c.SetMaxEntries(0)
	for i := 0; i < 8; i++ {
		if _, err := c.Model(dist.Deterministic{V: 4 + float64(i)}, WithStep(0.1), WithMaxWidth(40)); err != nil {
			t.Fatal(err)
		}
	}
	if n := c.Stats().Entries; n != 9 {
		t.Fatalf("unbounded Len = %d, want 9", n)
	}
}

// LRU order: touching an entry protects it from the next eviction.
func TestSweepCacheLRUOrder(t *testing.T) {
	c := NewSweepCache()
	c.SetMaxEntries(2)
	lawA := dist.Deterministic{V: 4}
	lawB := dist.Deterministic{V: 5}
	lawC := dist.Deterministic{V: 6}
	a1, err := c.Model(lawA, WithStep(0.1), WithMaxWidth(40))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Model(lawB, WithStep(0.1), WithMaxWidth(40)); err != nil {
		t.Fatal(err)
	}
	// Touch A so B is now least recently used; C must evict B, not A.
	if _, err := c.Model(lawA, WithStep(0.1), WithMaxWidth(40)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Model(lawC, WithStep(0.1), WithMaxWidth(40)); err != nil {
		t.Fatal(err)
	}
	a2, err := c.Model(lawA, WithStep(0.1), WithMaxWidth(40))
	if err != nil {
		t.Fatal(err)
	}
	if a1 != a2 {
		t.Fatal("recently used entry was evicted")
	}
	st := c.Stats()
	if st.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", st.Evictions)
	}
}

// ForEach exposes each cached model once with its law fingerprint.
func TestSweepCacheForEach(t *testing.T) {
	c := NewSweepCache()
	laws := []dist.Continuous{dist.Deterministic{V: 4}, dist.Exponential{Rate: 0.25}}
	for _, law := range laws {
		if _, err := c.Model(law, WithStep(0.1), WithMaxWidth(40)); err != nil {
			t.Fatal(err)
		}
	}
	seen := make(map[string]int)
	c.ForEach(func(fp string, m *Model) {
		if m == nil {
			t.Error("nil model")
		}
		seen[fp]++
	})
	if len(seen) != 2 {
		t.Fatalf("saw %d fingerprints, want 2", len(seen))
	}
	for _, law := range laws {
		fp, _ := dist.Fingerprint(law)
		if seen[fp] != 1 {
			t.Fatalf("fingerprint %s seen %d times: %v", fp, seen[fp], seen)
		}
	}
}

// ForEach promises ascending cache-key order, and the cache key starts with
// the law fingerprint: distinct laws must come out fp-sorted, identically on
// every traversal, so sweep-store persistence and /v1/stats cannot flap with
// Go's randomized map iteration.
func TestSweepCacheForEachDeterministicOrder(t *testing.T) {
	c := NewSweepCache()
	laws := []dist.Continuous{
		dist.Deterministic{V: 4},
		dist.Deterministic{V: 7},
		dist.Exponential{Rate: 0.25},
		dist.Exponential{Rate: 0.5},
	}
	wantFPs := make([]string, 0, len(laws))
	for _, law := range laws {
		if _, err := c.Model(law, WithStep(0.1), WithMaxWidth(40)); err != nil {
			t.Fatal(err)
		}
		fp, ok := dist.Fingerprint(law)
		if !ok {
			t.Fatalf("law %v has no fingerprint", law)
		}
		wantFPs = append(wantFPs, fp)
	}
	sort.Strings(wantFPs)
	for run := 0; run < 20; run++ {
		var got []string
		c.ForEach(func(fp string, m *Model) { got = append(got, fp) })
		if !slices.Equal(got, wantFPs) {
			t.Fatalf("run %d: ForEach order %v, want sorted %v", run, got, wantFPs)
		}
	}
}

func BenchmarkSweepDedupContention(b *testing.B) {
	tn, err := dist.TruncNormalWithMean(4, 9.2, 0)
	if err != nil {
		b.Fatal(err)
	}
	c := NewSweepCache()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			m, err := c.Model(tn, WithStep(0.1), WithMaxWidth(100))
			if err != nil {
				b.Fatal(err)
			}
			if _, err := m.CountPMF(10 + float64(i%90)); err != nil {
				b.Fatal(err)
			}
			i++
		}
	})
	if err := func() error {
		if n := c.Stats().Entries; n != 1 {
			return fmt.Errorf("len %d", n)
		}
		return nil
	}(); err != nil {
		b.Fatal(err)
	}
}
