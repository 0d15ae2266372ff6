package rowyield

import (
	"context"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"github.com/cnfet/yieldlab/internal/dist"
)

// A steady-state Monte Carlo round must not touch the heap: the tracks,
// intervals and DP buffers all live in the reusable RoundState.
func TestRoundZeroSteadyStateAllocs(t *testing.T) {
	offsets, err := NewOffsetDist(
		[]float64{0, 20, 40, 60, 80, 100, 120, 140},
		[]float64{1, 1, 1, 1, 1, 1, 1, 1},
	)
	if err != nil {
		t.Fatal(err)
	}
	m := testRowModel(t, 30, offsets)
	if err := m.Prepare(); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		s    Scenario
	}{
		{"aligned", DirectionalAligned},
		{"unaligned", DirectionalUnaligned},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st := m.NewRoundState()
			r := testRand(17)
			// Warm the buffers past any growth transient.
			for i := 0; i < 200; i++ {
				if _, err := m.Round(r, tc.s, st); err != nil {
					t.Fatal(err)
				}
			}
			allocs := testing.AllocsPerRun(200, func() {
				if _, err := m.Round(r, tc.s, st); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Fatalf("steady-state round allocates %.1f objects, want 0", allocs)
			}
		})
	}
}

// The fixed-budget row Monte Carlo must stay bit-identical across worker counts for a
// fixed (seed, rounds) — the property the server's ETag revalidation relies
// on — with every worker running on its own scratch.
func TestEstimateParallelBitIdenticalAcrossWorkers(t *testing.T) {
	offsets, err := NewOffsetDist([]float64{0, 60, 120}, []float64{2, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	m := testRowModel(t, 30, offsets)
	for _, s := range []Scenario{DirectionalUnaligned, DirectionalAligned} {
		base, err := estimate(context.Background(), &m, 41, s, 4_000, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 5, 16} {
			got, err := estimate(context.Background(), &m, 41, s, 4_000, workers)
			if err != nil {
				t.Fatal(err)
			}
			if got.Mean != base.Mean || got.StdErr != base.StdErr {
				t.Fatalf("%v: workers=%d changed the estimate: %v vs %v", s, workers, got, base)
			}
		}
	}
}

// Race coverage for the per-worker scratch: many goroutines estimate on one
// shared prepared model concurrently (run under -race in CI).
func TestSharedModelConcurrentEstimatesRace(t *testing.T) {
	offsets, err := NewOffsetDist([]float64{0, 40, 80}, []float64{1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	m := testRowModel(t, 25, offsets)
	if err := m.Prepare(); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			_, errs[g] = estimate(context.Background(), &m, uint64(g+1), DirectionalUnaligned, 400, 4)
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// binomialStep is a one-step occupancy plan for n CNFETs: its draw(r, n)
// is the Bin(n, p) draw the unaligned rounds make at each occupied offset.
func binomialStep(n int, p float64) *occupancy {
	budget := new(atomic.Int64)
	budget.Store(occupancyTableBudget)
	o := newOccupancy(0, 0, p, n, budget)
	return &o
}

// An occupancy step must reproduce binomial moments and stay exact at the
// degenerate edges.
func TestBinomialSample(t *testing.T) {
	r := testRand(23)
	const n, p, draws = 37, 0.3, 200_000
	step := binomialStep(n, p)
	var sum, sumSq float64
	for i := 0; i < draws; i++ {
		k := step.draw(r, n)
		if k < 0 || k > n {
			t.Fatalf("out-of-range draw %d", k)
		}
		sum += float64(k)
		sumSq += float64(k) * float64(k)
	}
	mean := sum / draws
	wantMean := float64(n) * p
	sd := math.Sqrt(float64(n) * p * (1 - p))
	if math.Abs(mean-wantMean) > 5*sd/math.Sqrt(draws) {
		t.Errorf("mean %g, want %g", mean, wantMean)
	}
	variance := sumSq/draws - mean*mean
	if math.Abs(variance-sd*sd) > 0.05*sd*sd {
		t.Errorf("variance %g, want %g", variance, sd*sd)
	}
	if binomialStep(10, 0).draw(r, 10) != 0 || binomialStep(0, 0.5).draw(r, 0) != 0 {
		t.Error("zero cases")
	}
	if binomialStep(10, 1).draw(r, 10) != 10 {
		t.Error("certain case")
	}
	// The underflow fallback (Bernoulli counting) keeps the mean.
	var fsum float64
	const fn, fp = 5_000, 0.5 // (1-p)^n underflows: exercises the fallback
	fallback := binomialStep(fn, fp)
	for i := 0; i < 2_000; i++ {
		fsum += float64(fallback.draw(r, fn))
	}
	if got, want := fsum/2_000, float64(fn)*fp; math.Abs(got-want) > 10 {
		t.Errorf("fallback mean %g, want %g", got, want)
	}
}

// The occupancy chain must visit offsets with the multinomial marginal:
// offset i appears in a round with probability 1-(1-p_i)^nFETs. Checked
// against the per-FET categorical sampling it replaced.
func TestUnalignedOccupancyMatchesPerFETSampling(t *testing.T) {
	offsets, err := NewOffsetDist([]float64{0, 50, 100, 150}, []float64{8, 4, 2, 1})
	if err != nil {
		t.Fatal(err)
	}
	m := testRowModel(t, 20, offsets)
	if err := m.Prepare(); err != nil {
		t.Fatal(err)
	}
	const rounds = 60_000
	r := testRand(31)
	got := make([]float64, len(offsets.Offsets))
	counts := make([]int, len(offsets.Offsets))
	n := m.nFETs
	for round := 0; round < rounds; round++ {
		m.SampleOccupancy(r, counts)
		total := 0
		for i, c := range counts {
			total += c
			if c > 0 {
				got[i]++
			}
		}
		if total != n {
			t.Fatalf("round %d placed %d CNFETs, want %d", round, total, n)
		}
	}
	for i, p := range offsets.Probs {
		want := -math.Expm1(float64(n) * math.Log1p(-p))
		if f := got[i] / rounds; math.Abs(f-want) > 0.01 {
			t.Errorf("offset %d occupancy %v, want %v", i, f, want)
		}
	}
}

// Prepare must normalize literal offset distributions (so the occupancy plan
// reads normalized probabilities) and reject invalid ones.
func TestPrepareNormalizesLiteralOffsets(t *testing.T) {
	m := testRowModel(t, 30, OffsetDist{Offsets: []float64{0, 50}, Probs: []float64{3, 1}})
	if err := m.Prepare(); err != nil {
		t.Fatal(err)
	}
	if !m.Offsets.normalized {
		t.Fatal("Prepare should mark the offsets normalized")
	}
	if !almost(m.Offsets.Probs[0], 0.75, 1e-12) {
		t.Fatalf("Prepare should normalize probs, got %v", m.Offsets.Probs)
	}
	bad := testRowModel(t, 30, OffsetDist{Offsets: []float64{1}, Probs: []float64{0}})
	if err := bad.Prepare(); err == nil {
		t.Error("zero-mass literal offsets should fail Prepare")
	}
}

// The cursor windows of the unaligned rounds must equal per-offset binary
// searches (windowInterval) on arbitrary track sets — including repeated
// track positions and windows holding no track — for sorted, unsorted and
// repeated offset lists.
func TestCursorWindowsMatchSearch(t *testing.T) {
	for _, tc := range []struct {
		name    string
		offsets []float64
	}{
		{"sorted", []float64{0, 10, 25, 40, 70, 75, 110}},
		{"unsorted", []float64{70, 0, 110, 25, 10, 75, 40}},
		{"repeated", []float64{25, 0, 25, 10, 0, 70, 10}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			probs := make([]float64, len(tc.offsets))
			for i := range probs {
				probs[i] = 1
			}
			od, err := NewOffsetDist(tc.offsets, probs)
			if err != nil {
				t.Fatal(err)
			}
			m := testRowModel(t, 12, od)
			m.LCNTNM = 3_000 // 5 CNFETs: offsets often stay unoccupied
			if err := m.Prepare(); err != nil {
				t.Fatal(err)
			}
			st := m.NewRoundState()
			gen := testRand(41)
			counts := make([]int, len(tc.offsets))
			span := m.WidthNM + m.offSpan
			for trial := 0; trial < 5_000; trial++ {
				// Gaps mix repeats (0), ordinary pitches and holes wider
				// than a window.
				st.tracks = st.tracks[:0]
				for y := 6 * gen.Float64(); y < span; {
					st.tracks = append(st.tracks, y)
					switch gen.IntN(8) {
					case 0:
					case 1:
						y += 15 * gen.Float64()
					default:
						y += 4 * gen.Float64()
					}
				}
				seed := gen.Uint64()
				p, err := m.unalignedFromTracks(testRand(seed), st)
				if err != nil {
					t.Fatal(err)
				}
				m.SampleOccupancy(testRand(seed), counts)
				var want []Interval
				empty := false
				for _, o := range m.plan {
					if counts[o.idx] == 0 {
						continue
					}
					iv := windowInterval(st.tracks, o.off, o.off+m.WidthNM)
					if iv.Empty() {
						empty = true
						break
					}
					want = append(want, iv)
				}
				if empty && p != 1 {
					t.Fatalf("trial %d: a window holds no track but the round returned %v", trial, p)
				}
				if !slices.Equal(st.intervals, want) {
					t.Fatalf("trial %d: cursor windows %v, searched windows %v (tracks %v)", trial, st.intervals, want, st.tracks)
				}
			}
		})
	}
}

// Property: the DP reads intervals only through the shortest length ending
// on each track and the longest length overall, so duplicating and
// permuting intervals returns the same bits. The unaligned rounds rely on
// this instead of deduplicating the windows of offsets that share tracks.
func TestExactRowFailureDuplicatePermuteBitIdentical(t *testing.T) {
	var st RoundState // shared across calls: scratch reuse must not leak either
	f := func(seed int64) bool {
		r := testRand(uint64(seed))
		nTracks := 1 + r.IntN(150)
		ivs := make([]Interval, 1+r.IntN(8))
		for i := range ivs {
			lo := r.IntN(nTracks)
			ivs[i] = Interval{lo, lo + r.IntN(min(nTracks-lo, 30))}
		}
		pf := 0.05 + 0.9*r.Float64()
		want, err := exactRowFailureInto(&st, ivs, nTracks, pf)
		if err != nil {
			return false
		}
		var dup []Interval
		for _, iv := range ivs {
			for k := r.IntN(3); k >= 0; k-- {
				dup = append(dup, iv)
			}
		}
		r.Shuffle(len(dup), func(i, j int) { dup[i], dup[j] = dup[j], dup[i] })
		got, err := exactRowFailureInto(&st, dup, nTracks, pf)
		return err == nil && math.Float64bits(got) == math.Float64bits(want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Degenerate width/pitch ratios must clamp, not overflow the int
// conversion sizing the round scratch (a tiny
// positive pitch mean is accepted by the query layer, so this is reachable
// from the server).
func TestPrepareClampsDegeneratePitchRatio(t *testing.T) {
	if got := clampCount(math.NaN()); got != 0 {
		t.Fatalf("clampCount(NaN) = %d", got)
	}
	m := testRowModel(t, 155, Aligned())
	m.Pitch = dist.Exponential{Rate: 1e17} // mean 1e-17 nm
	if err := m.Prepare(); err != nil {
		t.Fatal(err)
	}
	st := m.NewRoundState()
	if st == nil || cap(st.tracks) > (1<<18)+64 {
		t.Fatalf("round state scratch not clamped: cap %d", cap(st.tracks))
	}
}

// NewRoundState on an unvalidated model must not panic: Round surfaces the
// validation error once the state is used.
func TestNewRoundStateNilPitch(t *testing.T) {
	m := &RowModel{WidthNM: 30, Offsets: Aligned()}
	st := m.NewRoundState()
	if st == nil {
		t.Fatal("nil state")
	}
	if _, err := m.Round(testRand(1), DirectionalAligned, st); err == nil {
		t.Fatal("Round on a nil-pitch model should error")
	}
}

// The ring DP must renormalize rather than overflow on very long rows.
func TestExactRowFailureLongRowTinyPf(t *testing.T) {
	const nTracks = 3000
	got, err := exactRowFailure([]Interval{{0, 1}}, nTracks, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	// One length-2 interval at the row start: P = pf².
	if want := 1e-6; math.Abs(got-want) > 1e-9 {
		t.Fatalf("long row: %v, want %v", got, want)
	}
	if math.IsInf(got, 0) || math.IsNaN(got) {
		t.Fatal("overflow in the scaled DP")
	}
}
