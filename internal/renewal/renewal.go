// Package renewal computes the probability distribution of the number of
// CNTs falling inside a CNFET channel of width W, when CNT positions along
// the width axis form a renewal process with a given inter-CNT pitch
// distribution. This is the CNT density-variation model the paper inherits
// from [Zhang 09a]: the count PMF Prob{N(W)} feeds Eq. 2.2,
//
//	pF(W) = Σ_k Prob{N(W)=k} · pf^k ,
//
// which is the probability generating function of N(W) evaluated at the
// per-CNT failure probability pf.
//
// The engine discretizes the pitch distribution onto a uniform grid and
// propagates the k-th arrival-position distribution by exact discrete
// convolution, so a single sweep yields P{N(W) ≥ k} for every width on the
// grid simultaneously. The process is in equilibrium: the window is dropped
// at a position independent of the CNT process, so the first CNT follows the
// stationary forward recurrence distribution (1-F(x))/μ, and E[N(W)] = W/μ
// holds exactly, which the tests assert.
//
//yield:compute
package renewal

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"github.com/cnfet/yieldlab/internal/dist"
	"github.com/cnfet/yieldlab/internal/numeric"
)

// Defaults for Model construction.
const (
	DefaultStep     = 0.05 // nm grid resolution
	DefaultMaxWidth = 400  // nm largest supported window
)

// DefaultTailEps is the truncation threshold of every arrival sweep: the
// sweep stops once the widest window's tail P(N ≥ k) falls below it, and
// trailing counts below it are trimmed from each PMF. It is fixed, so a
// table's identity is its law and grid alone.
const DefaultTailEps = 1e-15

// Model computes CNT count distributions for one pitch distribution.
// It is safe for concurrent use.
type Model struct {
	spacing  dist.Continuous
	step     float64
	maxWidth float64

	kernel kernel // sizeRule; this package's tests may force a kernel

	// fMass and gMass are the pitch and first-arrival masses at grid
	// points j·h, binned under mu by the first sweep (nil until then).
	fMass []float64
	gMass []float64

	mu        sync.Mutex
	sweepDone *sync.Cond    // signalled when an in-flight sweep finishes
	sweeping  bool          // an arrival sweep is running outside the lock
	sweeps    atomic.Uint64 // arrival sweeps actually computed (not deduplicated)
	// table holds the count PMF of every grid index 1..fullHorizon() at
	// table[idx-1] — the layout Snapshot.PMFs shares — and is nil until the
	// canonical sweep or a Restore installs it whole. Index 0 is zeroCount.
	table []dist.PMF

	// pgf memoizes PGF values, one lazily filled column per distinct
	// evaluation point z, at most pgfColumns of them (see PGF).
	pgf []pgfColumn
}

// pgfColumns bounds how many distinct evaluation points one model memoizes
// PGF values for. The paper's three processing corners fit with room for a
// few explicit ones; further points are evaluated directly, uncached, so
// the memo never holds more than pgfColumns × grid cells float64s.
const pgfColumns = 8

// pgfColumn holds PGF(z) of the count PMF at every grid index; NaN marks a
// cell not evaluated yet (a PGF at a valid point z ∈ [0, 1] is finite).
type pgfColumn struct {
	z    uint64 // math.Float64bits of the evaluation point
	vals []float64
}

// Option configures a Model's grid. An Option is plain data, not a
// closure, so SweepCache resolves a grid from its options without building
// a Model or moving anything to the heap.
type Option struct {
	field gridField
	value float64
}

// gridField names the grid parameter an Option sets.
type gridField uint8

const (
	fieldStep gridField = iota + 1
	fieldMaxWidth
)

// WithStep sets the grid resolution in nm (default 0.05).
func WithStep(h float64) Option { return Option{fieldStep, h} }

// WithMaxWidth sets the largest queryable window width in nm (default 400).
func WithMaxWidth(w float64) Option { return Option{fieldMaxWidth, w} }

// gridOf resolves opts over the default grid; a later option wins.
func gridOf(opts []Option) (step, maxWidth float64) {
	step, maxWidth = DefaultStep, DefaultMaxWidth
	for _, o := range opts {
		switch o.field {
		case fieldStep:
			step = o.value
		case fieldMaxWidth:
			maxWidth = o.value
		}
	}
	return step, maxWidth
}

// New builds a count model for the given pitch distribution.
func New(spacing dist.Continuous, opts ...Option) (*Model, error) {
	m, err := newConfigured(spacing, opts...)
	if err != nil {
		return nil, err
	}
	m.finish()
	return m, nil
}

// newConfigured validates the configuration without paying for the grid
// discretization or the width table, which SweepCache builds only on a
// miss.
func newConfigured(spacing dist.Continuous, opts ...Option) (*Model, error) {
	if spacing == nil {
		return nil, errors.New("renewal: nil spacing distribution")
	}
	m := &Model{spacing: spacing}
	m.step, m.maxWidth = gridOf(opts)
	if !(m.step > 0) {
		return nil, fmt.Errorf("renewal: step must be positive, got %g", m.step)
	}
	if !(m.maxWidth > m.step) {
		return nil, fmt.Errorf("renewal: max width %g too small for step %g", m.maxWidth, m.step)
	}
	mean := spacing.Mean()
	if !(mean > 0) || math.IsInf(mean, 0) || math.IsNaN(mean) {
		return nil, fmt.Errorf("renewal: pitch mean must be positive and finite, got %g", mean)
	}
	if mean < 4*m.step {
		return nil, fmt.Errorf("renewal: grid step %g too coarse for mean pitch %g", m.step, mean)
	}
	return m, nil
}

// zeroCount is the count PMF at grid index 0: a sub-grid window always
// holds zero CNTs, so that index answers without a sweep.
var zeroCount = dist.PMF{P: []float64{1}}

// finish readies a configured model for queries. The grid masses are
// binned later, by the first sweep: only a sweep reads them, and a model
// whose table a Restore installs never sweeps.
func (m *Model) finish() {
	m.sweepDone = sync.NewCond(&m.mu)
}

// Step returns the grid resolution.
func (m *Model) Step() float64 { return m.step }

// MaxWidth returns the largest queryable width.
func (m *Model) MaxWidth() float64 { return m.maxWidth }

// discretize bins the pitch distribution and the first-arrival distribution
// onto the grid. Mass for grid point j represents values in
// [(j-1/2)h, (j+1/2)h), so convolution of grid masses is drift-free.
func (m *Model) discretize() {
	h := m.step
	mean := m.spacing.Mean()
	sd := m.spacing.StdDev()
	// Support cap: beyond mean + 12σ (plus a floor for near-deterministic
	// distributions) the pitch mass is negligible.
	hi := mean + 12*sd + 4*h
	if q := quantileOrNaN(m.spacing, 1-1e-13); !math.IsNaN(q) && q > hi {
		hi = q + 4*h
	}
	// Pitches beyond the largest queryable window terminate every count, so
	// the support can be capped there with the residual tail lumped into the
	// final bin. This also bounds memory for heavy-tailed pitch laws.
	cap := m.maxWidth + 4*h
	if hi > cap {
		hi = cap
	}
	nf := int(math.Ceil(hi/h)) + 1
	m.fMass = make([]float64, nf)
	prev := m.spacing.CDF(-0.5 * h)
	for j := 0; j < nf; j++ {
		cur := m.spacing.CDF((float64(j) + 0.5) * h)
		m.fMass[j] = math.Max(cur-prev, 0)
		prev = cur
	}
	// Lump the (usually negligible) truncated upper tail into the last bin;
	// those pitches land beyond every window, which the convolution
	// truncation already treats correctly.
	m.fMass[nf-1] += math.Max(1-prev, 0)

	// Equilibrium first-arrival mass per cell:
	// gMass[j] = (G((j+1/2)h) - G((j-1/2)h)) with G(x) = (1/μ)∫₀ˣ(1-F).
	// Use the exact closed form when the distribution provides one; fall
	// back to per-cell Simpson with a monotone clamp so the total never
	// exceeds 1.
	ng := nf
	m.gMass = make([]float64, ng)
	si, exact := m.spacing.(dist.SurvivalIntegrator)
	surv := func(x float64) float64 {
		if x < 0 {
			return 1
		}
		return 1 - m.spacing.CDF(x)
	}
	prevG := 0.0
	total := 0.0
	for j := 0; j < ng; j++ {
		b := (float64(j) + 0.5) * h
		var mass float64
		if exact {
			g := si.IntegratedSurvival(b) / mean
			mass = g - prevG
			prevG = g
		} else {
			a := math.Max(b-h, 0)
			mass = numeric.Simpson(surv, a, b, 8) / mean
		}
		if mass < 0 {
			mass = 0
		}
		if total+mass > 1 {
			mass = 1 - total
		}
		m.gMass[j] = mass
		total += mass
	}
	// Deliberately not renormalized: first-arrival mass beyond the support
	// cap corresponds to windows containing zero CNTs, which the truncated
	// convolution already accounts for.
}

func quantileOrNaN(d dist.Continuous, p float64) (q float64) {
	defer func() {
		if recover() != nil {
			q = math.NaN()
		}
	}()
	return d.Quantile(p)
}

// gridIndex quantizes a width onto the grid.
func (m *Model) gridIndex(w float64) (int, error) {
	if !(w > 0) {
		return 0, fmt.Errorf("renewal: width must be positive, got %g", w)
	}
	if w > m.maxWidth {
		return 0, fmt.Errorf("renewal: width %g exceeds model max %g", w, m.maxWidth)
	}
	return int(math.Round(w / m.step)), nil
}

// CountPMF returns the PMF of the CNT count in a window of width w (nm).
// The first query of a nonzero grid index sweeps the whole grid once.
func (m *Model) CountPMF(w float64) (dist.PMF, error) {
	idx, err := m.gridIndex(w)
	if err != nil {
		return dist.PMF{}, err
	}
	return m.countPMF(idx)
}

// countPMF returns the count PMF at grid index idx, sweeping first if the
// table is not installed yet.
func (m *Model) countPMF(idx int) (dist.PMF, error) {
	if idx == 0 {
		return zeroCount, nil
	}
	table, err := m.sweep()
	if err != nil {
		return dist.PMF{}, err
	}
	return table[idx-1], nil
}

// PGF returns the probability generating function of N(w) evaluated at z —
// exactly CountPMF(w).PGF(z) — memoized per (grid cell, Float64bits(z)).
// pF(w) = PGF(pf) is a step function of the grid, so the bisection probes
// of a Wmin search, repeated searches and repeated requests mostly land on
// cells some earlier call already evaluated. A memoized value was computed
// by the same PMF.PGF call on the same cached PMF, so it carries the same
// bits as a fresh evaluation. The memo lives and dies with the model and is
// never persisted.
func (m *Model) PGF(w, z float64) (float64, error) {
	idx, err := m.gridIndex(w)
	if err != nil {
		return 0, err
	}
	m.mu.Lock()
	col := m.pgfColumnLocked(z)
	v := memoCell(col, idx)
	m.mu.Unlock()
	if !math.IsNaN(v) {
		return v, nil
	}
	return m.pgfFill(col, idx, z)
}

// pgfStackWidths is how many widths PGFsInto indexes in stack scratch; a
// longer ws allocates its index list.
const pgfStackWidths = 16

// PGFsInto is PGF over many widths, writing into dst, which must be as
// long as ws. It validates every width before running at most one sweep,
// reads every memoized cell under one lock, and for at most pgfStackWidths
// widths allocates nothing once the model is swept and the memo column for
// z exists.
func (m *Model) PGFsInto(dst, ws []float64, z float64) error {
	if len(dst) != len(ws) {
		return fmt.Errorf("renewal: PGFsInto has %d slots for %d widths", len(dst), len(ws))
	}
	var scratch [pgfStackWidths]int
	idxs := scratch[:0]
	if len(ws) > len(scratch) {
		idxs = make([]int, 0, len(ws))
	}
	for _, w := range ws {
		idx, err := m.gridIndex(w)
		if err != nil {
			return err
		}
		idxs = append(idxs, idx)
	}
	m.mu.Lock()
	col := m.pgfColumnLocked(z)
	for i, idx := range idxs {
		dst[i] = memoCell(col, idx)
	}
	m.mu.Unlock()
	for i, idx := range idxs {
		if math.IsNaN(dst[i]) {
			v, err := m.pgfFill(col, idx, z)
			if err != nil {
				return err
			}
			dst[i] = v
		}
	}
	return nil
}

// memoCell returns the memoized PGF at grid index idx of the column col,
// or NaN when col is nil (z unmemoized) or the cell is not evaluated yet.
func memoCell(col []float64, idx int) float64 {
	if col == nil {
		return math.NaN()
	}
	return col[idx]
}

// pgfFill evaluates the PGF at z of the count PMF at grid index idx,
// sweeping first if the table is not installed, and memoizes it in col
// unless z goes unmemoized (col nil).
func (m *Model) pgfFill(col []float64, idx int, z float64) (float64, error) {
	pmf, err := m.countPMF(idx)
	if err != nil {
		return 0, err
	}
	v := pmf.PGF(z)
	if col != nil {
		m.mu.Lock()
		col[idx] = v
		m.mu.Unlock()
	}
	return v, nil
}

// pgfColumnLocked returns the memo column for z, allocating it on first use
// while fewer than pgfColumns exist; nil means z goes unmemoized. Caller
// holds m.mu.
func (m *Model) pgfColumnLocked(z float64) []float64 {
	bits := math.Float64bits(z)
	for _, c := range m.pgf {
		if c.z == bits {
			return c.vals
		}
	}
	if len(m.pgf) == pgfColumns {
		return nil
	}
	vals := make([]float64, m.fullHorizon()+1)
	for i := range vals {
		vals[i] = math.NaN()
	}
	m.pgf = append(m.pgf, pgfColumn{z: bits, vals: vals})
	return vals
}

// sweep returns the model's count table, running the arrival-position
// convolution once to install it if neither a sweep nor a Restore has, so
// every later query on this model is free. A sweep costs one discrete
// convolution per arrival order k — dispatched per step between the
// blocked and FFT kernels (see conv.go) — and the per-k prefix sum that
// serves all indexes at once is what makes whole-curve generation cheap.
//
// The horizon is deliberately canonical — always the whole grid, never just
// the requested index: a table is whole or absent. Kernel dispatch and FFT
// roundoff depend on the sweep length, so lazily grown tables would make a
// cached PMF depend on which query happened to be swept first (and, under
// concurrent requests, on goroutine scheduling). One fixed horizon makes
// every PMF a pure function of the model configuration — the property behind the sweep cache's "a hit
// can never change a result" contract, the persistent store's whole-table
// records (written once, never re-read to compare), and the job journal's
// byte-identical crash resumption.
//
// Concurrent sweeps of one model are deduplicated singleflight-style: while
// one goroutine computes, every other request waits on its result instead
// of redoing the convolution. Sweeps() counts the sweeps actually computed,
// which is what lets tests and the server's /v1/stats prove that a warmed
// cache answered without recomputation.
func (m *Model) sweep() ([]dist.PMF, error) {
	m.mu.Lock()
	for m.table == nil && m.sweeping {
		m.sweepDone.Wait()
	}
	if table := m.table; table != nil {
		m.mu.Unlock()
		return table, nil
	}
	m.sweeping = true
	if m.fMass == nil {
		m.discretize()
	}
	m.mu.Unlock()

	table, err := m.runSweep()

	m.mu.Lock()
	defer m.mu.Unlock()
	m.sweeping = false
	m.sweepDone.Broadcast()
	if err == nil && m.table == nil {
		// A Restore that landed mid-sweep installed bit-identical tables
		// (same law, same grid, same kernels); keep them for callers
		// holding references.
		m.table = table
	}
	// Counted once the table is installed, so a checkpoint that sees the
	// count also sees the table.
	m.sweeps.Add(1)
	if err != nil {
		return nil, err
	}
	return m.table, nil
}

// fullHorizon is the grid index of the model's maximum width — the one
// canonical sweep length.
func (m *Model) fullHorizon() int {
	return int(math.Round(m.maxWidth / m.step))
}

// Sweeps returns how many arrival sweeps this model has actually computed,
// counting each once it has finished. Deduplicated concurrent requests and
// cache-served queries do not count.
func (m *Model) Sweeps() uint64 {
	return m.sweeps.Load()
}

// runSweep performs the convolution work for one claimed sweep and returns
// the whole table, laid out as Model.table.
func (m *Model) runSweep() ([]dist.PMF, error) {
	n := m.fullHorizon()
	// rows[k-1][j] = P(T_k < (j+1)·h) = P(N((j+1)·h) ≥ k): one prefix-sum
	// row per arrival order. Row-major writes keep the hot loop streaming;
	// the per-width assembly below reads columns once at the end.
	rows := make([][]float64, 0, 64)

	// d = distribution of the k-th CNT position, on grid cells [0, n).
	// Positions ≥ the largest window edge never contribute, so the vector is
	// truncated at n. The support window [lo, hi) tracks where d is nonzero:
	// lo advances as the numerically dead low tail builds up with k, hi grows
	// by one kernel length per convolution until it hits the truncation.
	d := make([]float64, n)
	copy(d, m.gMass[:min(len(m.gMass), n)])
	next := make([]float64, n)
	lo := 0
	hi := min(len(m.gMass), n)
	// scale is the exact power-of-two factor taken out of d: true mass =
	// scale·Σd. Rescaling keeps d's entries O(1) however deep the tail
	// decays, so the FFT kernel's roundoff — relative to the vector norm,
	// not to individual entries — shrinks along with the remaining mass and
	// the tail convergence check below stays trustworthy.
	scale := 1.0
	cs := newConvState(m.kernel, m.fMass)
	const trimEps = 1e-25
	const rescaleBelow = 0x1p-30

	const hardCap = 1 << 14
	for k := 1; k <= hardCap; k++ {
		// One prefix-sum pass serves every index:
		// P(T_k < idx·h) = Σ_{j<idx} d[j].
		row := make([]float64, n)
		var running float64
		for j := lo; j < n; j++ {
			running += d[j]
			row[j] = scale * running
		}
		rows = append(rows, row)
		// row[j] stores P(T_k < (j+1)·h); window index idx reads slot idx-1.
		// The final running value is the widest window's tail, which bounds
		// every other window's, so it alone decides convergence.
		if scale*running < DefaultTailEps {
			break
		}
		if k == hardCap {
			return nil, fmt.Errorf("renewal: arrival sweep did not converge within %d terms", hardCap)
		}
		cs.convolve(next, d, lo, hi)
		d, next = next, d
		hi = min(n, hi+len(m.fMass)-1)
		// Trim the numerically dead tails on both sides: mass below lo (or
		// above hi) is negligible and cannot affect any window by more than
		// trimEps·k. The high trim matters early, when the structural
		// support growth of one kernel length per step far outruns the true
		// ~10σ√k upper tail, and it is what keeps the FFT padding small.
		var acc float64
		for lo < n-1 {
			acc += d[lo]
			if scale*acc > trimEps {
				break
			}
			d[lo] = 0
			lo++
		}
		acc = 0
		for hi > lo+1 {
			acc += d[hi-1]
			if scale*acc > trimEps {
				break
			}
			d[hi-1] = 0
			hi--
		}
		if running > 0 && running < rescaleBelow {
			// Pull the decayed mass back to O(1) by an exact power of two.
			exp := math.Ilogb(running)
			factor := math.Ldexp(1, -exp)
			for j := lo; j < hi; j++ {
				d[j] *= factor
			}
			scale = math.Ldexp(scale, exp)
		}
	}

	table := make([]dist.PMF, n)
	ge := make([]float64, len(rows))
	for j := range table {
		for k := range rows {
			ge[k] = rows[k][j]
		}
		pmf, err := assemblePMF(ge)
		if err != nil {
			return nil, fmt.Errorf("renewal: width index %d: %w", j+1, err)
		}
		table[j] = pmf
	}
	return table, nil
}

// assemblePMF converts the tail sequence ge[k-1] = P(N ≥ k), k = 1.., into a
// PMF over counts 0..len(ge). Trailing counts whose tail probability is
// below DefaultTailEps are trimmed, so a narrow window's support does not
// carry the negligible tail rows the sweep ran for the widest window.
func assemblePMF(ge []float64) (dist.PMF, error) {
	cut := len(ge)
	for cut > 0 && ge[cut-1] < DefaultTailEps {
		cut--
	}
	ge = ge[:cut]
	p := make([]float64, len(ge)+1)
	prev := 1.0
	for k, g := range ge {
		v := prev - g
		if v < 0 {
			if v < -1e-9 {
				return dist.PMF{}, fmt.Errorf("negative mass %g at count %d", v, k)
			}
			v = 0
		}
		p[k] = v
		prev = g
	}
	p[len(ge)] = math.Max(prev, 0)
	return dist.NewPMF(p)
}
