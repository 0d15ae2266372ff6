package renewal

import (
	"sync"
	"testing"

	"github.com/cnfet/yieldlab/internal/dist"
)

func TestSweepCacheSharesByLawAndGrid(t *testing.T) {
	c := NewSweepCache()
	tn, err := dist.TruncNormalWithMean(4, 9.2, 0)
	if err != nil {
		t.Fatal(err)
	}
	a, err := c.Model(tn, WithStep(0.1), WithMaxWidth(60))
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.Model(tn, WithStep(0.1), WithMaxWidth(60))
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("same law+grid should share one model")
	}
	if st := c.Stats(); st.Hits != 1 || st.Misses != 1 {
		t.Errorf("stats = (%d, %d), want (1, 1)", st.Hits, st.Misses)
	}
	// Any differing knob must miss.
	diff := []struct {
		name string
		opts []Option
	}{
		{"step", []Option{WithStep(0.05), WithMaxWidth(60)}},
		{"maxWidth", []Option{WithStep(0.1), WithMaxWidth(80)}},
	}
	for _, tc := range diff {
		m, err := c.Model(tn, tc.opts...)
		if err != nil {
			t.Fatal(err)
		}
		if m == a {
			t.Errorf("%s: differing option must not share a model", tc.name)
		}
	}
	if n := c.Stats().Entries; n != 1+len(diff) {
		t.Errorf("Entries = %d, want %d", n, 1+len(diff))
	}
	// A different law must miss even on the same grid.
	other, err := c.Model(dist.Exponential{Rate: 0.25}, WithStep(0.1), WithMaxWidth(60))
	if err != nil {
		t.Fatal(err)
	}
	if other == a {
		t.Error("different law must not share a model")
	}
}

func TestSweepCacheUnfingerprinted(t *testing.T) {
	c := NewSweepCache()
	u1, err := c.Model(unkeyedLaw{dist.Exponential{Rate: 0.25}}, WithStep(0.1), WithMaxWidth(40))
	if err != nil {
		t.Fatal(err)
	}
	u2, err := c.Model(unkeyedLaw{dist.Exponential{Rate: 0.25}}, WithStep(0.1), WithMaxWidth(40))
	if err != nil {
		t.Fatal(err)
	}
	if u1 == u2 {
		t.Error("unfingerprinted laws must get private models")
	}
	if st := c.Stats(); st.Entries != 0 || st.Hits != 0 || st.Misses != 0 {
		t.Errorf("unfingerprinted models must be neither retained nor counted: %+v", st)
	}
	if _, err := c.Model(nil); err == nil {
		t.Error("nil law should error")
	}
	if _, err := c.Model(dist.Exponential{Rate: 0.25}, WithStep(-1)); err == nil {
		t.Error("invalid option should error")
	}
}

// unkeyedLaw hides the Fingerprint method of the embedded law.
type unkeyedLaw struct{ dist.Exponential }

func (unkeyedLaw) Fingerprint() {} // wrong signature: does not satisfy Fingerprinter

// Regression required by the PR acceptance: for all three paper corners the
// cached sweep returns PMFs identical to a fresh uncached sweep. The corners
// share one pitch law, so the cache serves all three from a single table;
// identical here means bitwise equal, since a hit returns the same table.
func TestSweepCacheMatchesUncachedForPaperCorners(t *testing.T) {
	// The calibrated pitch law (see device.CalibratedPitch): post-truncation
	// mean 4 nm, parent sigma 9.2, truncated at 0.
	tn, err := dist.TruncNormalWithMean(4, 2.3*4, 0)
	if err != nil {
		t.Fatal(err)
	}
	c := NewSweepCache()
	// pf per corner: pm + (1-pm)·pRs.
	corners := []float64{0.33 + 0.67*0.30, 0.33, 0}
	widths := []float64{55, 103, 155}
	fresh, err := New(tn, WithStep(0.05), WithMaxWidth(200))
	if err != nil {
		t.Fatal(err)
	}
	for ci, pf := range corners {
		shared, err := c.Model(tn, WithStep(0.05), WithMaxWidth(200))
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range widths {
			a, err := shared.CountPMF(w)
			if err != nil {
				t.Fatal(err)
			}
			b, err := fresh.CountPMF(w)
			if err != nil {
				t.Fatal(err)
			}
			if a.Len() != b.Len() {
				t.Fatalf("corner %d w=%g: support %d vs %d", ci, w, a.Len(), b.Len())
			}
			for k := 0; k < a.Len(); k++ {
				if a.Prob(k) != b.Prob(k) {
					t.Fatalf("corner %d w=%g: P(N=%d) cached %g uncached %g",
						ci, w, k, a.Prob(k), b.Prob(k))
				}
			}
			if got, want := a.PGF(pf), b.PGF(pf); got != want {
				t.Fatalf("corner %d w=%g: pF cached %g uncached %g", ci, w, got, want)
			}
		}
	}
	if st := c.Stats(); st.Misses != 1 || st.Hits != uint64(len(corners)-1) {
		t.Errorf("stats = (%d, %d): the three corners should share one sweep", st.Hits, st.Misses)
	}
}

func TestSweepCacheConcurrent(t *testing.T) {
	c := NewSweepCache()
	tn, err := dist.TruncNormalWithMean(4, 9.2, 0)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	models := make([]*Model, 16)
	for g := range models {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			m, err := c.Model(tn, WithStep(0.1), WithMaxWidth(80))
			if err != nil {
				t.Error(err)
				return
			}
			if _, err := m.CountPMF(40 + float64(g)); err != nil {
				t.Error(err)
				return
			}
			models[g] = m
		}(g)
	}
	wg.Wait()
	for _, m := range models[1:] {
		if m != models[0] {
			t.Fatal("concurrent callers should share one model")
		}
	}
	if n := c.Stats().Entries; n != 1 {
		t.Fatalf("Entries = %d, want 1", n)
	}
}

// TestModelTrackedHitAllocs pins the warm lookup: a cache hit appends its
// key into a stack buffer and builds no Model and no string, so it
// allocates nothing — for every law the package fingerprints itself. A
// miss still files the model under the key a hit looks up.
func TestModelTrackedHitAllocs(t *testing.T) {
	tn, err := dist.TruncNormalWithMean(4, 9.2, 0)
	if err != nil {
		t.Fatal(err)
	}
	opts := []Option{WithStep(0.1), WithMaxWidth(60)}
	for _, law := range []dist.Continuous{tn, dist.Exponential{Rate: 0.25}, dist.Deterministic{V: 4}} {
		c := NewSweepCache()
		first, hit, err := c.ModelTracked(law, opts...)
		if err != nil || hit {
			t.Fatalf("%T: first lookup hit=%v err=%v, want a miss", law, hit, err)
		}
		allocs := testing.AllocsPerRun(100, func() {
			m, hit, err := c.ModelTracked(law, opts...)
			if err != nil || !hit || m != first {
				t.Fatalf("%T: warm lookup hit=%v err=%v shared=%v", law, hit, err, m == first)
			}
		})
		if allocs != 0 {
			t.Errorf("%T: warm ModelTracked hit allocates %v times, want 0", law, allocs)
		}
		if st := c.Stats(); st.Misses != 1 || st.Hits != 101 {
			t.Errorf("%T: stats = (%d hits, %d misses), want (101, 1)", law, st.Hits, st.Misses)
		}
	}
}
