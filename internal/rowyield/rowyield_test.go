package rowyield

import (
	"math"
	"testing"
	"testing/quick"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// exactRowFailure runs the row-failure DP on fresh scratch.
func exactRowFailure(intervals []Interval, nTracks int, pf float64) (float64, error) {
	var st RoundState
	return exactRowFailureInto(&st, intervals, nTracks, pf)
}

func TestMRminPaperValue(t *testing.T) {
	// 200 µm × 1.8 FETs/µm = 360 ≈ the paper's 350× headline.
	v, err := MRmin(200_000, 1.8)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(v, 360, 1e-9) {
		t.Fatalf("MRmin = %v, want 360", v)
	}
	if _, err := MRmin(0, 1.8); err == nil {
		t.Error("zero LCNT")
	}
	if _, err := MRmin(200_000, 0); err == nil {
		t.Error("zero density")
	}
}

func TestCorrelatedYield(t *testing.T) {
	y, err := CorrelatedYield(91667, 1.09e-6)
	if err != nil {
		t.Fatal(err)
	}
	if y < 0.89 || y > 0.91 {
		t.Fatalf("paper-scale correlated yield: %v", y)
	}
	if y, _ := CorrelatedYield(0, 0.5); y != 1 {
		t.Fatal("zero rows")
	}
	if y, _ := CorrelatedYield(10, 1); y != 0 {
		t.Fatal("certain row failure")
	}
	if _, err := CorrelatedYield(-1, 0.5); err == nil {
		t.Error("negative rows")
	}
	if _, err := CorrelatedYield(1, 2); err == nil {
		t.Error("pRF > 1")
	}
}

func TestIndependentRowFailure(t *testing.T) {
	p, err := IndependentRowFailure(1.47e-8, 360)
	if err != nil {
		t.Fatal(err)
	}
	// ≈ 360 × 1.47e-8 = 5.3e-6: the Table 1 uncorrelated value.
	if p < 5.2e-6 || p > 5.4e-6 {
		t.Fatalf("uncorrelated pRF: %v, want ≈ 5.3e-6", p)
	}
	if p, _ := IndependentRowFailure(0, 100); p != 0 {
		t.Fatal("no failures")
	}
	if p, _ := IndependentRowFailure(1, 5); p != 1 {
		t.Fatal("certain failure")
	}
	if _, err := IndependentRowFailure(-0.1, 5); err == nil {
		t.Error("negative pF")
	}
	if _, err := IndependentRowFailure(0.1, -5); err == nil {
		t.Error("negative m")
	}
}

func TestIntervalBasics(t *testing.T) {
	if (Interval{2, 5}).Len() != 4 {
		t.Fatal("len")
	}
	if !(Interval{3, 2}).Empty() || (Interval{3, 2}).Len() != 0 {
		t.Fatal("empty")
	}
}

// Brute force: enumerate all 2^n track-failure patterns.
func bruteRowFailure(intervals []Interval, nTracks int, pf float64) float64 {
	total := 0.0
	for mask := 0; mask < 1<<nTracks; mask++ {
		p := 1.0
		for t := 0; t < nTracks; t++ {
			if mask&(1<<t) != 0 {
				p *= pf
			} else {
				p *= 1 - pf
			}
		}
		failed := false
		for _, iv := range intervals {
			all := true
			for t := iv.Lo; t <= iv.Hi; t++ {
				if mask&(1<<t) == 0 {
					all = false
					break
				}
			}
			if all {
				failed = true
				break
			}
		}
		if failed {
			total += p
		}
	}
	return total
}

func TestExactRowFailureSingleInterval(t *testing.T) {
	// One interval covering all tracks: P = pf^n.
	pf := 0.531
	for _, n := range []int{1, 3, 8} {
		got, err := exactRowFailure([]Interval{{0, n - 1}}, n, pf)
		if err != nil {
			t.Fatal(err)
		}
		want := math.Pow(pf, float64(n))
		if !almost(got, want, 1e-12) {
			t.Fatalf("n=%d: %v want %v", n, got, want)
		}
	}
}

func TestExactRowFailureDisjoint(t *testing.T) {
	// Two disjoint intervals: 1-(1-pf^2)².
	pf := 0.4
	got, err := exactRowFailure([]Interval{{0, 1}, {3, 4}}, 5, pf)
	if err != nil {
		t.Fatal(err)
	}
	q := pf * pf
	want := 1 - (1-q)*(1-q)
	if !almost(got, want, 1e-12) {
		t.Fatalf("disjoint: %v want %v", got, want)
	}
}

func TestExactRowFailureIdentical(t *testing.T) {
	// Duplicated intervals must not double count.
	pf := 0.3
	got, err := exactRowFailure([]Interval{{1, 3}, {1, 3}, {1, 3}}, 6, pf)
	if err != nil {
		t.Fatal(err)
	}
	want := math.Pow(pf, 3)
	if !almost(got, want, 1e-12) {
		t.Fatalf("identical: %v want %v", got, want)
	}
}

func TestExactRowFailureEdgeCases(t *testing.T) {
	if p, err := exactRowFailure(nil, 10, 0.5); err != nil || p != 0 {
		t.Fatalf("no intervals: %v %v", p, err)
	}
	if p, err := exactRowFailure([]Interval{{2, 1}}, 10, 0.5); err != nil || p != 1 {
		t.Fatalf("empty interval: %v %v", p, err)
	}
	if _, err := exactRowFailure([]Interval{{0, 10}}, 5, 0.5); err == nil {
		t.Error("interval beyond range")
	}
	if _, err := exactRowFailure([]Interval{{-1, 2}}, 5, 0.5); err == nil {
		t.Error("negative lo")
	}
	if _, err := exactRowFailure([]Interval{{0, 1}}, 5, 1.5); err == nil {
		t.Error("pf out of range")
	}
	if p, err := exactRowFailure([]Interval{{0, 2}}, 5, 0); err != nil || p != 0 {
		t.Fatalf("pf=0: %v %v", p, err)
	}
	if p, err := exactRowFailure([]Interval{{0, 2}}, 5, 1); err != nil || p != 1 {
		t.Fatalf("pf=1: %v %v", p, err)
	}
}

// Property: the DP matches brute-force enumeration on random overlapping
// interval families.
func TestQuickExactRowFailureVsBrute(t *testing.T) {
	f := func(seed int64) bool {
		r := testRand(uint64(seed))
		nTracks := 2 + r.Intn(13) // ≤ 14 tracks: 16k patterns
		nIv := 1 + r.Intn(6)
		ivs := make([]Interval, nIv)
		for i := range ivs {
			lo := r.Intn(nTracks)
			hi := lo + r.Intn(nTracks-lo)
			ivs[i] = Interval{lo, hi}
		}
		pf := 0.05 + 0.9*r.Float64()
		got, err := exactRowFailure(ivs, nTracks, pf)
		if err != nil {
			return false
		}
		want := bruteRowFailure(ivs, nTracks, pf)
		return almost(got, want, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestOffsetDist(t *testing.T) {
	if _, err := NewOffsetDist(nil, nil); err == nil {
		t.Error("empty")
	}
	if _, err := NewOffsetDist([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("length mismatch")
	}
	if _, err := NewOffsetDist([]float64{-1}, []float64{1}); err == nil {
		t.Error("negative offset")
	}
	if _, err := NewOffsetDist([]float64{1}, []float64{0}); err == nil {
		t.Error("zero mass")
	}
	o, err := NewOffsetDist([]float64{0, 100, 200}, []float64{2, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if !almost(o.Probs[0], 0.5, 1e-15) {
		t.Fatal("normalization")
	}
	if o.Span() != 200 {
		t.Fatal("span")
	}
	if o.DistinctCount() != 3 {
		t.Fatal("distinct")
	}
	a := Aligned()
	if a.Span() != 0 || a.DistinctCount() != 1 {
		t.Fatal("aligned dist")
	}
}
