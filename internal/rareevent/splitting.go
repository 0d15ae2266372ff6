package rareevent

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync/atomic"

	"github.com/cnfet/yieldlab/internal/dist"
	"github.com/cnfet/yieldlab/internal/montecarlo"
	"github.com/cnfet/yieldlab/internal/obs"
	"github.com/cnfet/yieldlab/internal/rowyield"
)

// The splitting engine Bernoulli-izes the row model: a state is one complete
// realization (track positions, an independent kill bit per track, per-offset
// CNFET counts) and the severity of a state is
//
//	S = max over occupied windows of (longest contiguously killed run inside
//	    the window) / (window track count),
//
// with an empty window scoring 1 directly. S = 1 exactly when the row fails,
// so multilevel splitting over S estimates the same pRF the exact-DP rounds
// estimate — from Bernoulli realizations instead of conditional
// probabilities, which is what gives the event a severity ladder to climb.
//
// One replica is one fixed-effort subset simulation: a population of
// Population states walks an adaptive threshold ladder (each level's
// threshold is the empirical (1-Rho) severity quantile), survivors are
// resampled and decorrelated with conditional-resampling MCMC moves (each
// move redraws a coordinate block — a kill-bit range, a track suffix with
// its kill bits, or the offset counts — from its unconditional law and
// accepts iff severity stays above the threshold, a valid Metropolis kernel
// for the conditioned law), and the replica's estimate is the product of the
// per-level survival fractions times the final level's failure fraction.
// Replicas are ordinary Monte Carlo rounds to the montecarlo engine: each
// draws from its own derived stream, so estimates are bit-identical across
// worker counts, and the replica scatter prices both the variance and the
// O(1/Population) ratio-estimator bias of one replica.

// splitEngine is the immutable per-model configuration shared by all
// replicas; the atomic counters aggregate order-independent run statistics
// (sums and maxima commute, so they stay deterministic across schedules).
type splitEngine struct {
	model        *rowyield.RowModel
	first, pitch dist.Sampler
	offsets      []float64
	aligned      bool
	width, span  float64
	pf           float64
	nFETs        int
	pop          int
	rho          float64
	moves        int

	states    atomic.Int64
	maxLevels atomic.Int64
}

// sstate is one Bernoulli-ized realization.
type sstate struct {
	tracks []float64
	kills  []bool
	counts []int
	sev    float64
}

// splitScratch is the per-worker reusable population memory.
type splitScratch struct {
	cur, next []sstate
	prop      sstate
	sevs      []float64
	surv      []int32
}

// newSplitEngine builds the engine from the prepared model's public surface.
func newSplitEngine(m *rowyield.RowModel, scenario rowyield.Scenario, opt Options) (*splitEngine, error) {
	first, err := dist.ForwardRecurrenceFor(m.Pitch)
	if err != nil {
		return nil, err
	}
	pitch, err := dist.FastSamplerFor(m.Pitch)
	if err != nil {
		return nil, err
	}
	nFETs, err := m.FETsPerRow()
	if err != nil {
		return nil, err
	}
	e := &splitEngine{
		model: m, first: first.Sample, pitch: pitch,
		width: m.WidthNM, pf: m.PerCNTFailure, nFETs: nFETs,
		pop: opt.Population, rho: opt.Rho, moves: opt.Moves,
	}
	switch scenario {
	case rowyield.DirectionalAligned:
		e.offsets = []float64{0}
		e.aligned = true
		e.span = m.WidthNM
	case rowyield.DirectionalUnaligned:
		e.offsets = m.Offsets.Offsets
		e.span = m.WidthNM + m.Offsets.Span()
	default:
		return nil, fmt.Errorf("rareevent: splitting supports directional scenarios, not %v", scenario)
	}
	return e, nil
}

// estimateSplitting runs adaptive blocks of splitting replicas.
func estimateSplitting(ctx context.Context, m *rowyield.RowModel, scenario rowyield.Scenario, opt Options, extraRounds int) (Estimate, error) {
	e, err := newSplitEngine(m, scenario, opt)
	if err != nil {
		return Estimate{}, err
	}
	maxReplicas := opt.MaxRounds / (opt.Population * splitLevelGuess)
	if maxReplicas < 4 {
		maxReplicas = 4
	}
	minReplicas := 8
	if minReplicas > maxReplicas {
		minReplicas = maxReplicas
	}
	sp := obs.StartLeaf(ctx, "mc.run")
	est, err := montecarlo.RunStateAdaptive(e.newScratch,
		func(r *rand.Rand, sc *splitScratch) (float64, error) {
			return e.replica(r, sc), nil
		}, montecarlo.AdaptiveOptions{
			Options:      montecarlo.Options{Seed: opt.Seed, Workers: opt.Workers, BatchSize: 1, Counters: sp.MC()},
			RelErrTarget: opt.RelErrTarget,
			MaxRounds:    maxReplicas,
			MinRounds:    minReplicas,
		})
	if err != nil {
		endRunSpan(sp, Estimate{}, err)
		return Estimate{}, err
	}
	out := Estimate{
		Mean: est.Mean, StdErr: est.StdErr,
		Rounds:   int(e.states.Load()) + extraRounds,
		Method:   Splitting,
		Levels:   int(e.maxLevels.Load()),
		Replicas: est.Rounds,
	}
	endRunSpan(sp, out, nil)
	return out, nil
}

// newScratch allocates one worker's population memory.
func (e *splitEngine) newScratch() *splitScratch {
	sc := &splitScratch{
		cur:  make([]sstate, e.pop),
		next: make([]sstate, e.pop),
		sevs: make([]float64, 0, e.pop),
		surv: make([]int32, 0, e.pop),
	}
	init := func(st *sstate) {
		st.tracks = make([]float64, 0, 64)
		st.kills = make([]bool, 0, 64)
		st.counts = make([]int, len(e.offsets))
	}
	for i := range sc.cur {
		init(&sc.cur[i])
		init(&sc.next[i])
	}
	init(&sc.prop)
	return sc
}

// replica runs one fixed-effort subset simulation and returns its estimate.
func (e *splitEngine) replica(r *rand.Rand, sc *splitScratch) float64 {
	n := e.pop
	statesSimulated := 0
	for i := range sc.cur {
		e.sampleState(r, &sc.cur[i])
	}
	statesSimulated += n

	prod := 1.0
	prevT := math.Inf(-1)
	levels := 0
	finish := func(v float64) float64 {
		e.states.Add(int64(statesSimulated))
		atomicMax(&e.maxLevels, int64(levels))
		return v
	}
	nKeep := int(e.rho * float64(n))
	if nKeep < 1 {
		nKeep = 1
	}
	for levels = 1; levels <= maxSplitLevels; levels++ {
		sevs := sc.sevs[:0]
		for i := range sc.cur {
			sevs = append(sevs, sc.cur[i].sev)
		}
		sort.Float64s(sevs)
		t := sevs[n-nKeep] // the empirical (1-rho) quantile
		reached := 0
		for i := range sc.cur {
			if sc.cur[i].sev >= 1 {
				reached++
			}
		}
		if t >= 1 || t <= prevT {
			// Either the population has pushed the working quantile to the
			// failure set, or severity has stalled (no move can climb):
			// close with the direct failure fraction of the current level.
			return finish(prod * float64(reached) / float64(n))
		}
		count := 0
		surv := sc.surv[:0]
		for i := range sc.cur {
			if sc.cur[i].sev >= t {
				count++
				surv = append(surv, int32(i))
			}
		}
		sc.surv = surv
		prod *= float64(count) / float64(n)
		for i := range sc.next {
			src := surv[r.Intn(len(surv))]
			copyState(&sc.next[i], &sc.cur[src])
			for mv := 0; mv < e.moves; mv++ {
				e.mcmcMove(r, &sc.next[i], t, &sc.prop)
			}
		}
		statesSimulated += n * e.moves
		sc.cur, sc.next = sc.next, sc.cur
		prevT = t
	}
	levels = maxSplitLevels
	reached := 0
	for i := range sc.cur {
		if sc.cur[i].sev >= 1 {
			reached++
		}
	}
	return finish(prod * float64(reached) / float64(n))
}

// atomicMax raises a to at least v.
func atomicMax(a *atomic.Int64, v int64) {
	for {
		cur := a.Load()
		if cur >= v || a.CompareAndSwap(cur, v) {
			return
		}
	}
}

// sampleState draws a fresh realization from the unconditional law.
func (e *splitEngine) sampleState(r *rand.Rand, st *sstate) {
	st.tracks = st.tracks[:0]
	st.kills = st.kills[:0]
	y := e.first(r)
	for y < e.span {
		st.tracks = append(st.tracks, y)
		st.kills = append(st.kills, r.Float64() < e.pf)
		y += e.pitch(r)
	}
	e.sampleCounts(r, st.counts)
	st.sev = e.severity(st)
}

// sampleCounts draws the per-offset CNFET counts through the occupancy plan
// the exact-DP rounds use; the aligned layout puts every CNFET on its one
// window without a draw.
func (e *splitEngine) sampleCounts(r *rand.Rand, counts []int) {
	if e.aligned {
		counts[0] = e.nFETs
		return
	}
	e.model.SampleOccupancy(r, counts)
}

// severity scores a state: the worst window's killed-run fraction.
func (e *splitEngine) severity(st *sstate) float64 {
	maxS := 0.0
	for i, c := range st.counts {
		if c == 0 {
			continue
		}
		off := e.offsets[i]
		lo := sort.SearchFloat64s(st.tracks, off)
		hi := sort.SearchFloat64s(st.tracks, off+e.width) - 1
		if hi < lo {
			return 1 // a window with zero tracks fails with certainty
		}
		run, best := 0, 0
		for j := lo; j <= hi; j++ {
			if st.kills[j] {
				run++
				if run > best {
					best = run
				}
			} else {
				run = 0
			}
		}
		width := hi - lo + 1
		if best == width {
			return 1
		}
		if s := float64(best) / float64(width); s > maxS {
			maxS = s
		}
	}
	return maxS
}

// copyState copies src into dst, reusing dst's buffers.
func copyState(dst, src *sstate) {
	dst.tracks = append(dst.tracks[:0], src.tracks...)
	dst.kills = append(dst.kills[:0], src.kills...)
	dst.counts = append(dst.counts[:0], src.counts...)
	dst.sev = src.sev
}

// mcmcMove applies one conditional-resampling Metropolis move at threshold
// t: propose by redrawing one coordinate block from its unconditional law,
// accept iff the proposal's severity stays ≥ t. Because the proposal law is
// exactly the block's unconditional conditional (the blocks are mutually
// independent), the acceptance indicator is the full Metropolis ratio and
// the conditioned law is invariant.
func (e *splitEngine) mcmcMove(r *rand.Rand, st *sstate, t float64, prop *sstate) {
	copyState(prop, st)
	u := r.Float64()
	switch {
	case u < 0.5 && len(prop.kills) > 0:
		// Kill-bit block redraw.
		n := len(prop.kills)
		j := r.Intn(n)
		l := n/4 + 1
		for k := j; k < n && k < j+l; k++ {
			prop.kills[k] = r.Float64() < e.pf
		}
	case u < 0.85:
		// Track-suffix redraw (with fresh kill bits for the new tracks).
		e.redrawTracksFrom(r, prop, r.Intn(len(prop.tracks)+1))
	default:
		// Offset-count redraw.
		e.sampleCounts(r, prop.counts)
	}
	prop.sev = e.severity(prop)
	if prop.sev >= t {
		*st, *prop = *prop, *st
	}
}

// redrawTracksFrom redraws the renewal suffix starting at track index j
// (j = 0 redraws the whole realization, first gap included) together with
// the kill bits of every redrawn track.
func (e *splitEngine) redrawTracksFrom(r *rand.Rand, st *sstate, j int) {
	var y float64
	if j == 0 {
		st.tracks = st.tracks[:0]
		st.kills = st.kills[:0]
		y = e.first(r)
	} else {
		st.tracks = st.tracks[:j]
		st.kills = st.kills[:j]
		y = st.tracks[j-1] + e.pitch(r)
	}
	for y < e.span {
		st.tracks = append(st.tracks, y)
		st.kills = append(st.kills, r.Float64() < e.pf)
		y += e.pitch(r)
	}
}
