package cntgrowth

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/cnfet/yieldlab/internal/device"
	"github.com/cnfet/yieldlab/internal/rng"
	"github.com/cnfet/yieldlab/internal/stat"
)

// testRand returns the test stream for seed: math/rand's generator seeded
// with rng.SplitMix64(seed).
func testRand(seed uint64) *rand.Rand {
	return rand.New(rand.NewSource(int64(rng.SplitMix64(seed))))
}

func calibratedDirectional(t *testing.T) Directional {
	t.Helper()
	pitch, err := device.CalibratedPitch()
	if err != nil {
		t.Fatal(err)
	}
	return Directional{Pitch: pitch, PMetallic: 0.33, LengthNM: 200_000}
}

func TestRectValidate(t *testing.T) {
	if err := (Rect{0, 0, 1, 1}).Validate(); err != nil {
		t.Fatal(err)
	}
	for _, r := range []Rect{{0, 0, 0, 1}, {0, 0, 1, 0}, {1, 0, 0, 1}} {
		if err := r.Validate(); err == nil {
			t.Errorf("rect %+v should be invalid", r)
		}
	}
}

func TestDirectionalValidate(t *testing.T) {
	g := calibratedDirectional(t)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := g
	bad.Pitch = nil
	if bad.Validate() == nil {
		t.Error("nil pitch")
	}
	bad = g
	bad.PMetallic = 1.5
	if bad.Validate() == nil {
		t.Error("bad pm")
	}
	bad = g
	bad.LengthNM = 0
	if bad.Validate() == nil {
		t.Error("zero length")
	}
	bad = g
	bad.LengthJitterFrac = 1
	if bad.Validate() == nil {
		t.Error("jitter ≥ 1")
	}
}

func TestDirectionalDensityMatchesPitch(t *testing.T) {
	g := calibratedDirectional(t)
	r := testRand(42)
	region := Rect{0, 0, 1000, 4000} // 4 µm of lateral extent
	var dens stat.Welford
	for i := 0; i < 50; i++ {
		a, err := g.Grow(r, region)
		if err != nil {
			t.Fatal(err)
		}
		dens.Add(float64(len(a.TrackYs)) / a.Region.Width() * 1000)
	}
	// Mean pitch 4 nm → 250 tracks/µm.
	if math.Abs(dens.Mean()-250) > 12 {
		t.Fatalf("track density %v tracks/µm, want ≈ 250", dens.Mean())
	}
}

func TestDirectionalMetallicFraction(t *testing.T) {
	g := calibratedDirectional(t)
	r := testRand(7)
	a, err := g.Grow(r, Rect{0, 0, 500, 20000})
	if err != nil {
		t.Fatal(err)
	}
	m := 0
	for _, c := range a.CNTs {
		if c.Type == Metallic {
			m++
		}
	}
	frac := float64(m) / float64(len(a.CNTs))
	if math.Abs(frac-0.33) > 0.02 {
		t.Fatalf("metallic fraction %v want 0.33", frac)
	}
}

func TestDirectionalCountMatchesRenewalModel(t *testing.T) {
	// The physical simulator and the analytic count model must agree on
	// E[N(W)] = W/μ.
	g := calibratedDirectional(t)
	r := testRand(3)
	const w = 103.0
	fet := Rect{X0: 450, Y0: 1000, X1: 500, Y1: 1000 + w}
	var counts stat.Welford
	for i := 0; i < 400; i++ {
		a, err := g.Grow(r, Rect{0, 0, 1000, 2200})
		if err != nil {
			t.Fatal(err)
		}
		counts.Add(float64(len(a.Crossing(fet))))
	}
	want := w / 4
	if math.Abs(counts.Mean()-want) > 4*counts.StdErr()+0.5 {
		t.Fatalf("mean count %v want %v (±%v)", counts.Mean(), want, counts.StdErr())
	}
}

func TestSegmentBoundariesBreakChannels(t *testing.T) {
	// With very short tubes, a channel wider than a tube can never be
	// crossed: LCNT < channel length means zero crossings.
	pitch, err := device.CalibratedPitch()
	if err != nil {
		t.Fatal(err)
	}
	g := Directional{Pitch: pitch, PMetallic: 0, LengthNM: 30}
	r := testRand(9)
	a, err := g.Grow(r, Rect{0, 0, 400, 400})
	if err != nil {
		t.Fatal(err)
	}
	fet := Rect{X0: 100, Y0: 100, X1: 180, Y1: 200} // 80 nm channel > 30 nm tubes
	if n := len(a.Crossing(fet)); n != 0 {
		t.Fatalf("tubes shorter than the channel cannot cross it, got %d", n)
	}
}

func TestUncorrelatedValidate(t *testing.T) {
	g := Uncorrelated{DensityPerUM2: 50, PMetallic: 0.33, LengthNM: 2000, AngleSpreadRad: 0.2}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := g
	bad.DensityPerUM2 = 0
	if bad.Validate() == nil {
		t.Error("zero density")
	}
	bad = g
	bad.AngleSpreadRad = 2
	if bad.Validate() == nil {
		t.Error("angle > π/2")
	}
	bad = g
	bad.LengthSpreadFrac = 1
	if bad.Validate() == nil {
		t.Error("spread ≥ 1")
	}
}

func TestUncorrelatedDensity(t *testing.T) {
	g := Uncorrelated{DensityPerUM2: 80, PMetallic: 0.3, LengthNM: 1500, AngleSpreadRad: 0.1}
	r := testRand(11)
	region := Rect{0, 0, 4000, 4000}
	var perUM2 stat.Welford
	for i := 0; i < 30; i++ {
		a, err := g.Grow(r, region)
		if err != nil {
			t.Fatal(err)
		}
		// Count centers inside the core region to undo inflation.
		n := 0
		for _, c := range a.CNTs {
			cx, cy := (c.X0+c.X1)/2, (c.Y0+c.Y1)/2
			if cx >= 0 && cx <= 4000 && cy >= 0 && cy <= 4000 {
				n++
			}
		}
		perUM2.Add(float64(n) / 16)
	}
	if math.Abs(perUM2.Mean()-80) > 5 {
		t.Fatalf("stick density %v per µm², want 80", perUM2.Mean())
	}
}

func TestCrossingGeometrySticks(t *testing.T) {
	a := &Array{Region: Rect{0, 0, 100, 100}}
	a.CNTs = []CNT{
		// Horizontal tube through the middle: crosses.
		{X0: 0, Y0: 50, X1: 100, Y1: 50, Track: -1},
		// Steep tube: enters left edge inside, exits right edge outside.
		{X0: 40, Y0: 40, X1: 60, Y1: 200, Track: -1},
		// Tube that does not span the x range.
		{X0: 45, Y0: 50, X1: 55, Y1: 50, Track: -1},
		// Reversed endpoints still cross.
		{X0: 100, Y0: 60, X1: 0, Y1: 60, Track: -1},
	}
	fet := Rect{X0: 40, Y0: 30, X1: 60, Y1: 70}
	got := a.Crossing(fet)
	if len(got) != 2 || got[0] != 0 || got[1] != 3 {
		t.Fatalf("crossing: %v", got)
	}
}

func TestRemoval(t *testing.T) {
	g := calibratedDirectional(t)
	r := testRand(21)
	a, err := g.Grow(r, Rect{0, 0, 500, 8000})
	if err != nil {
		t.Fatal(err)
	}
	rm := Removal{PRemoveMetallic: 1, PRemoveSemi: 0.3}
	if err := rm.Apply(r, a); err != nil {
		t.Fatal(err)
	}
	mSurvive, sTotal, sRemoved := 0, 0, 0
	for _, c := range a.CNTs {
		switch c.Type {
		case Metallic:
			if !c.Removed {
				mSurvive++
			}
		case Semiconducting:
			sTotal++
			if c.Removed {
				sRemoved++
			}
		}
	}
	if mSurvive != 0 {
		t.Fatalf("pRm=1 but %d metallic tubes survive", mSurvive)
	}
	frac := float64(sRemoved) / float64(sTotal)
	if math.Abs(frac-0.3) > 0.03 {
		t.Fatalf("collateral removal fraction %v want 0.3", frac)
	}
	if err := (Removal{PRemoveMetallic: 2}).Apply(r, a); err == nil {
		t.Fatal("invalid removal should error")
	}
	if err := rm.Apply(r, nil); err == nil {
		t.Fatal("nil array should error")
	}
}

// The Fig. 3.1 quantitative premise, all three panels:
// (a) uncorrelated growth → no correlation;
// (b) directional growth, misaligned actives → partial correlation;
// (c) directional growth, aligned actives → near-perfect correlation.
func TestFig31CorrelationOrdering(t *testing.T) {
	r := testRand(rng.DefaultSeed)
	rm := Removal{PRemoveMetallic: 1, PRemoveSemi: 0.3}
	const w = 60.0
	aligned1 := Rect{X0: 0, Y0: 200, X1: 50, Y1: 200 + w}
	aligned2 := Rect{X0: 700, Y0: 200, X1: 750, Y1: 200 + w}
	misaligned2 := Rect{X0: 700, Y0: 200 + w*0.6, X1: 750, Y1: 200 + 1.6*w}

	dir := calibratedDirectional(t)
	unc := Uncorrelated{DensityPerUM2: 2500, PMetallic: 0.33, LengthNM: 1200, AngleSpreadRad: 0.15}

	const rounds = 700
	sa, err := MeasurePairCorrelation(r, unc, rm, aligned1, aligned2, rounds)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := MeasurePairCorrelation(r, dir, rm, aligned1, misaligned2, rounds)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := MeasurePairCorrelation(r, dir, rm, aligned1, aligned2, rounds)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sa.CountCorr) > 0.12 {
		t.Errorf("uncorrelated growth: corr %v, want ≈ 0", sa.CountCorr)
	}
	if sb.CountCorr < 0.15 || sb.CountCorr > 0.75 {
		t.Errorf("misaligned directional: corr %v, want partial", sb.CountCorr)
	}
	if sc.CountCorr < 0.98 {
		t.Errorf("aligned directional: corr %v, want ≈ 1", sc.CountCorr)
	}
	// 750 nm separation over 200 µm tubes: ≈ 0.4% of tracks break between
	// the two devices, so the shared fraction is just below 1.
	if sc.SharedFrac < 0.99 {
		t.Errorf("aligned shared fraction %v, want ≈ 0.996", sc.SharedFrac)
	}
	if sc.UsableCorr < 0.98 {
		t.Errorf("aligned usable corr %v, want ≈ 1 (type correlation)", sc.UsableCorr)
	}
	if !(sa.CountCorr < sb.CountCorr && sb.CountCorr < sc.CountCorr) {
		t.Errorf("ordering violated: %v < %v < %v expected", sa.CountCorr, sb.CountCorr, sc.CountCorr)
	}
}

func TestMeasurePairCorrelationErrors(t *testing.T) {
	r := testRand(1)
	g := calibratedDirectional(t)
	fet := Rect{0, 0, 10, 10}
	if _, err := MeasurePairCorrelation(r, nil, Removal{}, fet, fet, 10); err == nil {
		t.Error("nil grower")
	}
	if _, err := MeasurePairCorrelation(r, g, Removal{}, fet, fet, 1); err == nil {
		t.Error("too few rounds")
	}
	if _, err := MeasurePairCorrelation(r, g, Removal{}, Rect{}, fet, 10); err == nil {
		t.Error("invalid rect")
	}
}

// Property: beyond LCNT separation, even aligned FETs decorrelate (segment
// boundaries between them).
func TestDecorrelationBeyondLCNT(t *testing.T) {
	pitch, err := device.CalibratedPitch()
	if err != nil {
		t.Fatal(err)
	}
	g := Directional{Pitch: pitch, PMetallic: 0.33, LengthNM: 2000} // short tubes for test speed
	r := testRand(5)
	f1 := Rect{X0: 0, Y0: 100, X1: 40, Y1: 180}
	f2 := Rect{X0: 6000, Y0: 100, X1: 6040, Y1: 180} // 3×LCNT away
	s, err := MeasurePairCorrelation(r, g, Removal{PRemoveMetallic: 1}, f1, f2, 500)
	if err != nil {
		t.Fatal(err)
	}
	// Counts still correlate via shared tracks (density correlation), but
	// no tubes are shared.
	if s.SharedFrac != 0 {
		t.Fatalf("FETs beyond LCNT share tubes: %v", s.SharedFrac)
	}
}

// Property: growing over random regions never yields tubes that fail their
// own crossing test against the full region when tracks span it.
func TestQuickDirectionalTubesSpanRegion(t *testing.T) {
	g := calibratedDirectional(t)
	f := func(seed uint16) bool {
		r := testRand(uint64(seed))
		region := Rect{0, 0, 200 + float64(seed%300), 150}
		a, err := g.Grow(r, region)
		if err != nil {
			return false
		}
		for _, c := range a.CNTs {
			if c.X0 > region.X0 || c.X1 < region.X1 {
				// Tube does not span the region: only legal if it abuts a
				// segment boundary inside.
				if c.X1-c.X0 > g.LengthNM+1e-9 {
					return false
				}
			}
			if c.Y0 != c.Y1 {
				return false // directional tubes are horizontal
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
