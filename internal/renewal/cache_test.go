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
		{"tailEps", []Option{WithStep(0.1), WithMaxWidth(60), WithTailEps(1e-12)}},
		{"ordinary", []Option{WithStep(0.1), WithMaxWidth(60), Ordinary()}},
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
	if c.Len() != 1+len(diff) {
		t.Errorf("Len = %d, want %d", c.Len(), 1+len(diff))
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

func TestSweepCacheNilAndUnfingerprinted(t *testing.T) {
	var nilCache *SweepCache
	m, err := nilCache.Model(dist.Exponential{Rate: 0.25}, WithStep(0.1), WithMaxWidth(40))
	if err != nil {
		t.Fatal(err)
	}
	if m == nil {
		t.Fatal("nil cache should degrade to New")
	}
	if nilCache.Len() != 0 {
		t.Error("nil cache Len should be 0")
	}
	if st := nilCache.Stats(); st.Hits != 0 || st.Misses != 0 {
		t.Error("nil cache stats should be zero")
	}

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
	if c.Len() != 0 {
		t.Error("unfingerprinted models must not be retained")
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
	if c.Len() != 1 {
		t.Fatalf("Len = %d, want 1", c.Len())
	}
}
