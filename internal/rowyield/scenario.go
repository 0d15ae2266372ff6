package rowyield

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"github.com/cnfet/yieldlab/internal/dist"
)

// Scenario selects one of Table 1's growth/layout combinations.
type Scenario int

// The three columns of Table 1.
const (
	// UncorrelatedGrowth: non-directional growth, no CNT sharing anywhere.
	// Its row failure probability is the closed form
	// IndependentRowFailure; it has no Monte Carlo round.
	UncorrelatedGrowth Scenario = iota
	// DirectionalUnaligned: directional growth, stock cell library (active
	// regions at library-dependent lateral offsets).
	DirectionalUnaligned
	// DirectionalAligned: directional growth plus the aligned-active layout
	// restriction — the paper's proposal.
	DirectionalAligned
)

// String implements fmt.Stringer.
func (s Scenario) String() string {
	switch s {
	case UncorrelatedGrowth:
		return "uncorrelated growth"
	case DirectionalUnaligned:
		return "directional growth, non-aligned"
	case DirectionalAligned:
		return "directional growth, aligned-active"
	default:
		return fmt.Sprintf("Scenario(%d)", int(s))
	}
}

// RowModel describes one row of minimum-width CNFETs for the directional
// scenarios' Monte Carlo. Build the stationary sampler once with Prepare
// (or let the estimators do it lazily).
type RowModel struct {
	// Pitch is the inter-track spacing law (calibrated truncated normal).
	Pitch dist.Continuous
	// PerCNTFailure is pf from Eq. 2.1.
	PerCNTFailure float64
	// WidthNM is the (common) width of the minimum-size CNFETs.
	WidthNM float64
	// LCNTNM is the CNT length (200 µm).
	LCNTNM float64
	// DensityPerUM is Pmin-CNFET, the min-width CNFET density along the row
	// (1.8 FETs/µm in the paper's placed OpenRISC design).
	DensityPerUM float64
	// Offsets is the lateral offset distribution of the (unmodified) cell
	// library, used by the DirectionalUnaligned scenario.
	Offsets OffsetDist

	// fr is the cached stationary forward-recurrence sampler for Pitch (the
	// first gap of every realization); it doubles as the "prepared" marker.
	fr *dist.ForwardRecurrence
	// pitch draws the later gaps, resolved once by Prepare.
	pitch pitchSampler
	// nFETs and offSpan cache FETsPerRow and Offsets.Span for the rounds.
	nFETs   int
	offSpan float64
	// plan is the unaligned rounds' occupancy plan (see occupancy).
	plan []occupancy
}

// errUncorrelatedRound is Round's answer for the uncorrelated scenario,
// which is served by its closed form and never simulated.
var errUncorrelatedRound = errors.New("rowyield: the uncorrelated scenario has no Monte Carlo round; its pRF is the closed form IndependentRowFailure = 1-(1-pF)^MRmin")

// pitchSampler draws one inter-track gap. A truncated-normal law inverts its
// shared tabulated CDF directly, with no function-value call per draw;
// other laws keep the devirtualized dist.Sampler. Both consume one draw of
// the stream exactly as the law's own Sample does.
type pitchSampler struct {
	tab  *dist.TruncNormalTable
	draw dist.Sampler
}

// newPitchSampler resolves the sampler for law once.
func newPitchSampler(law dist.Continuous) (pitchSampler, error) {
	if tn, ok := law.(*dist.TruncNormal); ok {
		law = *tn
	}
	if tn, ok := law.(dist.TruncNormal); ok {
		if tab, err := dist.TruncNormalTableFor(tn); err == nil {
			return pitchSampler{tab: tab}, nil
		}
	}
	draw, err := dist.FastSamplerFor(law)
	return pitchSampler{draw: draw}, err
}

// occupancy is one step of the unaligned rounds' occupancy plan. A round
// places the row's nFETs CNFETs on the library offsets by the
// sequential-binomial factorization of the multinomial: each occupied
// offset in index order takes Bin(remaining, p_i/rest_i) of the CNFETs not
// yet placed, where rest_i is the probability mass of offset i and every
// later offset. rest_i depends only on i, so everything a step draws from
// is fixed by the model and Prepare computes it once; the last step takes
// every remaining CNFET.
type occupancy struct {
	idx int     // offset index
	off float64 // the offset
	all bool    // last step: takes every remaining CNFET without a draw
	// p is the conditional probability p_i/rest_i and ratio = p/(1-p) the
	// binomial pmf recursion factor; pmf0[n] = exp(n·log1p(-p)) is the
	// zero term of Bin(n, p), tabulated for n ≤ min(nFETs, occupancyTableMax).
	p, ratio float64
	pmf0     []float64
}

// occupancyTableMax bounds the per-step pmf0 table, so a model with an
// enormous CNFET count cannot pin an enormous plan; larger counts evaluate
// the zero term inline, with the same expression.
const occupancyTableMax = 1 << 12

// newOccupancy builds the plan step for offset idx with conditional
// probability p.
func newOccupancy(idx int, off, p float64, nFETs int) occupancy {
	o := occupancy{idx: idx, off: off, p: p, ratio: p / (1 - p)}
	o.pmf0 = make([]float64, min(nFETs, occupancyTableMax)+1)
	for n := range o.pmf0 {
		o.pmf0[n] = math.Exp(float64(n) * math.Log1p(-p))
	}
	return o
}

// draw returns how many of the n remaining CNFETs land on this step's
// offset: Bin(n, p) exactly, by CDF inversion from a single uniform; when
// the zero term underflows (enormous n·p) it falls back to counting n
// Bernoulli draws, which is exact at any size.
//
//yield:noalloc
func (o *occupancy) draw(r *rand.Rand, n int) int {
	if o.all {
		return n
	}
	p := o.p
	if p <= 0 || n <= 0 {
		return 0
	}
	if p >= 1 {
		return n
	}
	var pmf float64
	if n < len(o.pmf0) {
		pmf = o.pmf0[n]
	} else {
		pmf = math.Exp(float64(n) * math.Log1p(-p))
	}
	if pmf < 1e-300 {
		k := 0
		for i := 0; i < n; i++ {
			if r.Float64() < p {
				k++
			}
		}
		return k
	}
	u := r.Float64()
	cdf := pmf
	k := 0
	for u > cdf && k < n {
		k++
		pmf *= o.ratio * float64(n-k+1) / float64(k)
		cdf += pmf
	}
	return k
}

// buildPlan derives the occupancy plan from the normalized offset
// probabilities: one step per offset carrying mass, up to and including the
// first step that takes every remaining CNFET (later offsets never receive
// any).
func (m *RowModel) buildPlan() {
	lastOcc := 0
	for i, p := range m.Offsets.Probs {
		if p > 0 {
			lastOcc = i
		}
	}
	m.plan = nil
	rest := 1.0
	for i, p := range m.Offsets.Probs {
		if p <= 0 {
			continue
		}
		if i == lastOcc || rest <= p {
			m.plan = append(m.plan, occupancy{idx: i, off: m.Offsets.Offsets[i], all: true})
			return
		}
		m.plan = append(m.plan, newOccupancy(i, m.Offsets.Offsets[i], p/rest, m.nFETs))
		rest -= p
	}
}

// SampleOccupancy draws one row's per-offset CNFET counts into counts
// (indexed like Offsets.Offsets, at least that long) from the occupancy
// plan the unaligned rounds use, consuming r exactly as they do. The model
// must be prepared.
//
//yield:noalloc
func (m *RowModel) SampleOccupancy(r *rand.Rand, counts []int) {
	clear(counts)
	n := m.nFETs
	for k := 0; k < len(m.plan) && n > 0; k++ {
		o := &m.plan[k]
		ni := o.draw(r, n)
		counts[o.idx] = ni
		n -= ni
	}
}

// Prepare resolves everything the Monte Carlo rounds need: the stationary
// first-gap sampler, the devirtualized (tabulated) pitch sampler and the
// occupancy plan. Estimators call it automatically; calling it up front
// moves the one-time cost out of timed sections and surfaces configuration
// errors early. A prepared model is immutable and
// safe to share across goroutines (each goroutine needs its own RoundState).
func (m *RowModel) Prepare() error {
	if err := m.Validate(); err != nil {
		return err
	}
	if m.fr != nil {
		return nil
	}
	// The cached constructors share one table per distinct pitch law, so
	// parameter sweeps building thousands of RowModels pay for one
	// integration.
	fr, err := dist.ForwardRecurrenceFor(m.Pitch)
	if err != nil {
		return fmt.Errorf("rowyield: stationary sampler: %w", err)
	}
	m.pitch, err = newPitchSampler(m.Pitch)
	if err != nil {
		return fmt.Errorf("rowyield: pitch sampler: %w", err)
	}
	if !m.Offsets.normalized {
		// Literal offset distribution: normalize it so the occupancy plan
		// reads normalized probabilities (and invalid literals fail here,
		// not mid-run).
		od, err := NewOffsetDist(m.Offsets.Offsets, m.Offsets.Probs)
		if err != nil {
			return err
		}
		m.Offsets = od
	}
	m.nFETs, err = m.FETsPerRow()
	if err != nil {
		return err
	}
	m.offSpan = m.Offsets.Span()
	m.buildPlan()
	m.fr = fr
	return nil
}

// clampCount converts an expected-count ratio to int, clamping non-finite
// and huge values into [0, 1<<16] so the float→int conversion can neither
// overflow nor go negative.
func clampCount(ratio float64) int {
	if !(ratio > 0) {
		return 0
	}
	if !(ratio < 1<<16) {
		return 1 << 16
	}
	return int(ratio)
}

// Validate checks the model.
func (m RowModel) Validate() error {
	if m.Pitch == nil {
		return errors.New("rowyield: nil pitch distribution")
	}
	if m.PerCNTFailure < 0 || m.PerCNTFailure > 1 || math.IsNaN(m.PerCNTFailure) {
		return fmt.Errorf("rowyield: pf %g out of [0,1]", m.PerCNTFailure)
	}
	if !(m.WidthNM > 0) {
		return fmt.Errorf("rowyield: width %g must be positive", m.WidthNM)
	}
	if _, err := MRmin(m.LCNTNM, m.DensityPerUM); err != nil {
		return err
	}
	if len(m.Offsets.Offsets) == 0 {
		return errors.New("rowyield: empty offset distribution")
	}
	return nil
}

// FETsPerRow returns MRmin rounded to the nearest whole device.
func (m RowModel) FETsPerRow() (int, error) {
	v, err := MRmin(m.LCNTNM, m.DensityPerUM)
	if err != nil {
		return 0, err
	}
	n := int(math.Round(v))
	if n < 1 {
		n = 1
	}
	return n, nil
}

// Round runs one Monte Carlo realization of directional scenario s using st
// as scratch. A steady-state round allocates nothing; st must not be shared
// between goroutines. The model must be prepared before concurrent use (the
// estimator entry points do this). The uncorrelated scenario has no round:
// its row failure probability is the closed form IndependentRowFailure.
//
//yield:noalloc
func (m *RowModel) Round(r *rand.Rand, s Scenario, st *RoundState) (float64, error) {
	if m.fr == nil {
		if err := m.Prepare(); err != nil {
			return 0, err
		}
	}
	switch s {
	case UncorrelatedGrowth:
		return 0, errUncorrelatedRound
	case DirectionalUnaligned:
		return m.roundDirectional(r, st, false)
	case DirectionalAligned:
		return m.roundDirectional(r, st, true)
	default:
		return 0, fmt.Errorf("rowyield: unknown scenario %d", int(s)) //yield:allow(noalloc) cold error path for an invalid scenario, never taken in steady state
	}
}

// roundDirectional: one shared track realization; each CNFET covers the
// tracks inside [offset, offset+W). Exact interval DP on the realization,
// entirely over st's reusable buffers.
//
// The aligned layout puts every CNFET on the same window, so the row reduces
// to a single interval with no offset sampling at all. The unaligned layout
// needs only the *set* of offsets drawn by the row's CNFETs, so instead of
// nFETs categorical draws it samples the per-offset FET counts exactly via
// the sequential-binomial factorization of the multinomial — a handful of
// uniforms — and evaluates one interval per occupied offset.
//
//yield:noalloc
func (m *RowModel) roundDirectional(r *rand.Rand, st *RoundState, aligned bool) (float64, error) {
	// The capacity compare is the whole cost of growth accounting on the
	// steady-state path: drawTracks only reallocates while the buffer
	// has not yet covered the realized span.
	c0 := cap(st.tracks)
	span := m.WidthNM + m.offSpan
	if aligned {
		span = m.WidthNM
	}
	st.tracks, _ = drawTracks(r, m.fr, m.pitch, span, st.tracks[:0])
	if cap(st.tracks) != c0 {
		st.scratchAllocs++
	}
	if aligned {
		return m.alignedFromTracks(st)
	}
	return m.unalignedFromTracks(r, st)
}

// alignedFromTracks finishes an aligned round on the realization already in
// st.tracks: the single shared window's exact conditional failure
// probability. Split out of roundDirectional so the importance-sampled
// rounds (TiltedRowModel) share the evaluation half verbatim and can only
// differ in how the realization was drawn.
//
//yield:noalloc
func (m *RowModel) alignedFromTracks(st *RoundState) (float64, error) {
	iv := windowInterval(st.tracks, 0, m.WidthNM)
	if iv.Empty() {
		return 1, nil // a CNFET with zero tracks fails with certainty
	}
	st.intervals = append(st.intervals[:0], iv) //yield:allow(noalloc) appends into NewRoundState's pre-sized scratch; grows only until the model's interval population is covered
	return exactRowFailureInto(st, st.intervals, len(st.tracks), m.PerCNTFailure)
}

// unalignedFromTracks finishes an unaligned round on the realization already
// in st.tracks: walk the occupancy plan, collect the window of every
// occupied offset, run the exact interval DP. Shared by the plain and
// importance-sampled rounds; r only feeds the occupancy draws.
//
// Windows come from two forward cursors rather than per-offset binary
// searches: the plan visits offsets in index order, so for a sorted library
// both window edges only move forward. An offset below the previous one (a
// literal distribution given out of order) re-seats the cursors by search.
// Two offsets may share a window; the DP reads intervals only through the
// shortest length ending on each track and the longest length overall, so
// a repeated interval changes nothing and is not filtered out.
//
//yield:noalloc
func (m *RowModel) unalignedFromTracks(r *rand.Rand, st *RoundState) (float64, error) {
	tracks := st.tracks
	st.intervals = st.intervals[:0]
	lo, hi := 0, 0 // first track ≥ the window's start, first track ≥ its end
	prev := math.Inf(-1)
	n := m.nFETs
	for k := 0; k < len(m.plan) && n > 0; k++ {
		o := &m.plan[k]
		ni := o.draw(r, n)
		n -= ni
		if ni == 0 {
			continue
		}
		start, end := o.off, o.off+m.WidthNM
		if start < prev {
			lo, hi = searchTracks(tracks, start), searchTracks(tracks, end)
		} else {
			for lo < len(tracks) && tracks[lo] < start {
				lo++
			}
			for hi < len(tracks) && tracks[hi] < end {
				hi++
			}
		}
		prev = start
		if hi <= lo {
			return 1, nil // a CNFET with zero tracks fails with certainty
		}
		st.intervals = append(st.intervals, Interval{Lo: lo, Hi: hi - 1}) //yield:allow(noalloc) appends into NewRoundState's pre-sized scratch, which holds one interval per occupied offset
	}
	return exactRowFailureInto(st, st.intervals, len(tracks), m.PerCNTFailure)
}

// drawTracks realizes stationary renewal track positions over [0, span)
// into the provided buffer: the first gap follows the exact
// forward-recurrence law fr, later gaps the pitch sampler. It also returns
// the summed pitch draws, the displacement from the first track to the
// final overshoot (the importance-sampling weight needs it).
//
//yield:noalloc
func drawTracks(r *rand.Rand, fr *dist.ForwardRecurrence, pitch pitchSampler, span float64, tracks []float64) ([]float64, float64) {
	y0 := fr.Sample(r)
	y := y0
	if tab := pitch.tab; tab != nil {
		// The common case, with the table lookup in the loop body.
		for y < span {
			tracks = append(tracks, y) //yield:allow(noalloc) appends into NewRoundState's pre-sized track buffer; capacity stops growing once it covers the realized span
			y += tab.Quantile(r.Float64())
		}
		return tracks, y - y0
	}
	for y < span {
		tracks = append(tracks, y) //yield:allow(noalloc) appends into NewRoundState's pre-sized track buffer; capacity stops growing once it covers the realized span
		y += pitch.draw(r)
	}
	return tracks, y - y0
}

// windowInterval returns the inclusive index range of sorted track
// positions falling inside [lo, hi).
func windowInterval(tracks []float64, lo, hi float64) Interval {
	return Interval{Lo: searchTracks(tracks, lo), Hi: searchTracks(tracks, hi) - 1}
}

// searchTracks returns the smallest index with tracks[i] >= x: a
// hand-inlined sort.SearchFloat64s, with no closure to spill into the heap.
func searchTracks(tracks []float64, x float64) int {
	lo, hi := 0, len(tracks)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if tracks[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
