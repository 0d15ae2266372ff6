package stat

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/cnfet/yieldlab/internal/numeric"
)

func TestNewHistogramValidation(t *testing.T) {
	if _, err := NewHistogram([]float64{1}); err == nil {
		t.Error("single edge should error")
	}
	if _, err := NewHistogram([]float64{1, 1}); err == nil {
		t.Error("flat edges should error")
	}
	if _, err := NewHistogram([]float64{2, 1}); err == nil {
		t.Error("decreasing edges should error")
	}
	h, err := NewHistogram([]float64{0, 1, 2})
	if err != nil || len(h.Counts) != 2 {
		t.Fatalf("valid histogram: %v %v", h, err)
	}
}

func TestHistogramBinning(t *testing.T) {
	h, _ := NewHistogram([]float64{0, 10, 20, 30})
	for _, x := range []float64{0, 5, 9.999} {
		h.Add(x)
	}
	h.Add(10) // left-closed second bin
	h.Add(30) // right edge goes to last bin
	h.Add(-1) // under
	h.Add(31) // over
	if h.Counts[0] != 3 || h.Counts[1] != 1 || h.Counts[2] != 1 {
		t.Fatalf("counts: %v", h.Counts)
	}
	if h.Under != 1 || h.Over != 1 {
		t.Fatalf("under/over: %v %v", h.Under, h.Over)
	}
	if h.Total() != 5 {
		t.Fatalf("total: %v", h.Total())
	}
}

func TestHistogramShares(t *testing.T) {
	h, _ := NewHistogram([]float64{0, 1, 2})
	sh := h.Shares()
	if sh[0] != 0 || sh[1] != 0 {
		t.Fatal("empty histogram shares should be zero")
	}
	h.AddWeighted(0.5, 3)
	h.AddWeighted(1.5, 1)
	sh = h.Shares()
	if math.Abs(sh[0]-0.75) > 1e-12 || math.Abs(sh[1]-0.25) > 1e-12 {
		t.Fatalf("shares: %v", sh)
	}
}

func TestShareBelow(t *testing.T) {
	h, _ := NewHistogram([]float64{0, 10, 20})
	h.AddWeighted(5, 10)
	h.AddWeighted(15, 10)
	if s := h.ShareBelow(10); math.Abs(s-0.5) > 1e-12 {
		t.Fatalf("ShareBelow(10): %v", s)
	}
	if s := h.ShareBelow(15); math.Abs(s-0.75) > 1e-12 {
		t.Fatalf("ShareBelow(15) with partial bin: %v", s)
	}
	if s := h.ShareBelow(-5); s != 0 {
		t.Fatalf("ShareBelow below range: %v", s)
	}
	if s := h.ShareBelow(100); s != 1 {
		t.Fatalf("ShareBelow above range: %v", s)
	}
	empty, _ := NewHistogram([]float64{0, 1})
	if s := empty.ShareBelow(0.5); s != 0 {
		t.Fatalf("empty ShareBelow: %v", s)
	}
}

func TestBinCentersAndMean(t *testing.T) {
	h, _ := NewHistogram([]float64{0, 2, 4})
	c := h.BinCenters()
	if c[0] != 1 || c[1] != 3 {
		t.Fatalf("centers: %v", c)
	}
}

// Property: total in-range weight equals the number of in-range samples, and
// shares always sum to 1 for non-empty histograms.
func TestQuickHistogramConservation(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		h, err := NewHistogram(numeric.Linspace(0, 1, 2+r.Intn(10)))
		if err != nil {
			return false
		}
		n := 1 + r.Intn(500)
		inRange := 0
		for i := 0; i < n; i++ {
			x := r.Float64()*1.5 - 0.25
			h.Add(x)
			if x >= 0 && x <= 1 {
				inRange++
			}
		}
		if math.Abs(h.Total()-float64(inRange)) > 1e-9 {
			return false
		}
		if inRange == 0 {
			return true
		}
		var sum float64
		for _, s := range h.Shares() {
			if s < 0 {
				return false
			}
			sum += s
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: ShareBelow is monotone non-decreasing in x.
func TestQuickShareBelowMonotone(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		h, _ := NewHistogram(numeric.Linspace(0, 100, 9))
		for i := 0; i < 200; i++ {
			h.Add(r.Float64() * 100)
		}
		prev := -1.0
		for x := -10.0; x <= 110; x += 3.7 {
			s := h.ShareBelow(x)
			if s+1e-12 < prev {
				return false
			}
			prev = s
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
