package rowyield

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"sync/atomic"

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
	// cdfs[n] publishes the cumulative table of Bin(n, p) for the n pmf0
	// covers; nil until a draw first needs it (see publishCDF).
	cdfs []atomic.Pointer[occupancyCDF]
	// budget is the model's remaining table bytes, shared by its steps.
	budget *atomic.Int64
}

// occupancyCDF is the cumulative table of one (plan step, n): cdf[k] is the
// walk's running sum after term k, ending where the sum can no longer
// change. A nil cdf marks an n the walk keeps serving.
type occupancyCDF struct {
	cdf []float64
	// guide[j] is the first k with cdf[k] ≥ j/occupancyGuide (len(cdf)
	// when none is): every earlier sum is below any u in that slot, so
	// search starts there.
	guide [occupancyGuide]uint16
}

// occupancyGuide is the number of guide slots per table: a power of two,
// so u·occupancyGuide and j/occupancyGuide are exact. At 64 slots a slot
// holds less mass than the pmf near the mode, and a search takes a compare
// or two.
const occupancyGuide = 64

// bytes is the table's share of the model's budget.
func (t *occupancyCDF) bytes() int64 {
	return int64(8*len(t.cdf) + 2*len(t.guide))
}

// walkOnly is the published marker for an n without a table: its zero term
// takes the Bernoulli fallback, or the model's table budget is spent.
var walkOnly = &occupancyCDF{}

// zeroTermFloor is the smallest zero term the inversion starts from: below
// it a draw counts Bernoulli trials instead, and no table is built.
const zeroTermFloor = 1e-300

// occupancyTableMax bounds the per-step pmf0 and cdfs tables, so a model
// with an enormous CNFET count cannot pin an enormous plan; larger counts
// evaluate the zero term inline, with the same expression, and walk.
const occupancyTableMax = 1 << 12

// occupancyTableBudget bounds the bytes of cumulative tables one prepared
// model publishes across its steps. Tables are built in first-touch order,
// so the counts rounds meet most often come first: on the 155 nm library
// plan, 40,000 rounds touch 826 tables of 471 KB, and rounds under this
// budget (the first 474 of them) run as fast as with all of them. An n
// first met after the budget is spent keeps the walk.
const occupancyTableBudget = 256 << 10

// newOccupancy builds the plan step for offset idx with conditional
// probability p, charging its tables to budget.
func newOccupancy(idx int, off, p float64, nFETs int, budget *atomic.Int64) occupancy {
	size := min(nFETs, occupancyTableMax) + 1
	o := occupancy{idx: idx, off: off, p: p, ratio: p / (1 - p), budget: budget}
	o.pmf0 = make([]float64, size)
	for n := range o.pmf0 {
		o.pmf0[n] = math.Exp(float64(n) * math.Log1p(-p))
	}
	o.cdfs = make([]atomic.Pointer[occupancyCDF], size)
	return o
}

// draw returns how many of the n remaining CNFETs land on this step's
// offset: Bin(n, p) exactly, by CDF inversion from a single uniform; when
// the zero term underflows (enormous n·p) it falls back to counting n
// Bernoulli draws, which is exact at any size. The inversion reads the
// (step, n) cumulative table when one is published, building it on first
// touch, and otherwise walks the pmf recurrence; both answer the same k for
// every uniform.
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
	if n < len(o.cdfs) {
		t := o.cdfs[n].Load()
		if t == nil {
			t = o.publishCDF(n)
		}
		if t.cdf != nil {
			return t.search(r.Float64(), n)
		}
	}
	var pmf float64
	if n < len(o.pmf0) {
		pmf = o.pmf0[n]
	} else {
		pmf = math.Exp(float64(n) * math.Log1p(-p))
	}
	if pmf < zeroTermFloor {
		k := 0
		for i := 0; i < n; i++ {
			if r.Float64() < p {
				k++
			}
		}
		return k
	}
	return o.walk(pmf, n, r.Float64())
}

// walk inverts Bin(n, p) at u by summing the pmf from its zero term pmf:
// the first k whose running sum is not below u, or n.
//
//yield:noalloc
func (o *occupancy) walk(pmf float64, n int, u float64) int {
	cdf := pmf
	k := 0
	for u > cdf && k < n {
		k++
		pmf *= o.ratio * float64(n-k+1) / float64(k)
		cdf += pmf
	}
	return k
}

// search returns the walk's answer at u in [0, 1) from the table of
// Bin(n, p): the first k with !(u > cdf[k]), or n when u is past the
// table's end, where the walk's sum has stopped changing. The sums never
// decrease, so the scan may start at u's guide slot.
//
//yield:noalloc
func (t *occupancyCDF) search(u float64, n int) int {
	cdf := t.cdf
	k := int(t.guide[int(u*occupancyGuide)])
	for k < len(cdf) && u > cdf[k] {
		k++
	}
	if k == len(cdf) {
		return n
	}
	return k
}

// tabulateCDF builds the table of Bin(n, p), n < len(pmf0), by the walk's
// own recurrence in its order, so every entry is bit-equal to the walk's
// running sum after that term. It stops after term K when term K+1's
// factor is below 1 and adding it leaves the sum unchanged: the computed
// factors only shrink as k grows, so no later term is larger and the sum
// never changes again. It returns nil when the zero term takes the
// Bernoulli fallback.
func (o *occupancy) tabulateCDF(n int) *occupancyCDF {
	pmf := o.pmf0[n]
	if pmf < zeroTermFloor {
		return nil
	}
	cdf := pmf
	buf := make([]float64, 1, n+1)
	buf[0] = cdf
	for k := 1; k <= n; k++ {
		f := o.ratio * float64(n-k+1) / float64(k)
		pmf *= f
		next := cdf + pmf
		if f < 1 && next == cdf {
			break
		}
		cdf = next
		buf = append(buf, cdf)
	}
	t := &occupancyCDF{cdf: slices.Clone(buf)}
	k := 0
	for j := range t.guide {
		for k < len(t.cdf) && t.cdf[k] < float64(j)/occupancyGuide {
			k++
		}
		t.guide[j] = uint16(k)
	}
	return t
}

// publishCDF builds the table for n and publishes it, or walkOnly when the
// walk must serve n. Concurrent first touches of one n build identical
// tables; the first published wins and the others refund their bytes.
func (o *occupancy) publishCDF(n int) *occupancyCDF {
	t := o.tabulateCDF(n)
	if t == nil {
		t = walkOnly
	} else if o.budget.Add(-t.bytes()) < 0 {
		o.budget.Add(t.bytes())
		t = walkOnly
	}
	if o.cdfs[n].CompareAndSwap(nil, t) {
		return t
	}
	if t != walkOnly {
		o.budget.Add(t.bytes())
	}
	return o.cdfs[n].Load()
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
	budget := new(atomic.Int64)
	budget.Store(occupancyTableBudget)
	rest := 1.0
	for i, p := range m.Offsets.Probs {
		if p <= 0 {
			continue
		}
		if i == lastOcc || rest <= p {
			m.plan = append(m.plan, occupancy{idx: i, off: m.Offsets.Offsets[i], all: true})
			return
		}
		m.plan = append(m.plan, newOccupancy(i, m.Offsets.Offsets[i], p/rest, m.nFETs, budget))
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
// errors early. A prepared model is immutable in everything it answers and
// safe to share across goroutines (each goroutine needs its own
// RoundState). The one state its rounds write is the occupancy plan's
// cumulative tables, which fill on first touch, are published atomically
// and hold exactly the sums the pmf walk computes, so no draw depends on
// which goroutine built a table or when; copies of a prepared model share
// them.
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
