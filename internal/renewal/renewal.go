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
// grid simultaneously. Two initial conditions are supported:
//
//   - Equilibrium (default): the window is dropped at a position independent
//     of the CNT process, so the first CNT follows the stationary forward
//     recurrence distribution (1-F(x))/μ. In equilibrium E[N(W)] = W/μ holds
//     exactly, which the tests assert.
//   - Ordinary: a CNT sits just before the window and the first in-window
//     CNT is a full pitch away. Used as an ablation.
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
	DefaultTailEps  = 1e-15
)

// Model computes CNT count distributions for one pitch distribution.
// It is safe for concurrent use.
type Model struct {
	spacing  dist.Continuous
	step     float64
	maxWidth float64
	tailEps  float64
	ordinary bool

	kernel kernel // sizeRule; this package's tests may force a kernel

	fMass []float64 // pitch mass at grid points j·h
	gMass []float64 // first-arrival mass at grid points j·h

	mu        sync.Mutex
	sweepDone *sync.Cond    // signalled when an in-flight sweep finishes
	sweeping  bool          // an arrival sweep is running outside the lock
	sweeps    atomic.Uint64 // arrival sweeps actually computed (not deduplicated)
	cache     map[int]dist.PMF
	sweptTo   int // every grid index ≤ sweptTo is cached

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

// Option configures a Model.
type Option func(*Model)

// WithStep sets the grid resolution in nm (default 0.05).
func WithStep(h float64) Option { return func(m *Model) { m.step = h } }

// WithMaxWidth sets the largest queryable window width in nm (default 400).
func WithMaxWidth(w float64) Option { return func(m *Model) { m.maxWidth = w } }

// WithTailEps sets the truncation threshold for the arrival sweep.
func WithTailEps(eps float64) Option { return func(m *Model) { m.tailEps = eps } }

// Ordinary switches to the ordinary renewal initial condition (a CNT at the
// window edge, first in-window CNT one full pitch away).
func Ordinary() Option { return func(m *Model) { m.ordinary = true } }

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
// discretization or the width table, so SweepCache can compute a cache key
// first — on a cache hit the configured model is simply dropped.
func newConfigured(spacing dist.Continuous, opts ...Option) (*Model, error) {
	if spacing == nil {
		return nil, errors.New("renewal: nil spacing distribution")
	}
	m := &Model{
		spacing:  spacing,
		step:     DefaultStep,
		maxWidth: DefaultMaxWidth,
		tailEps:  DefaultTailEps,
	}
	for _, o := range opts {
		o(m)
	}
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

// finish bins the distributions onto the grid and seeds the width cache.
func (m *Model) finish() {
	m.cache = make(map[int]dist.PMF)
	m.sweepDone = sync.NewCond(&m.mu)
	m.discretize()
	// Index 0 (sub-grid window) always holds zero CNTs.
	m.cache[0] = mustPoint(0)
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

	if m.ordinary {
		m.gMass = m.fMass
		return
	}
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
// Results are cached per grid-quantized width.
func (m *Model) CountPMF(w float64) (dist.PMF, error) {
	idx, err := m.gridIndex(w)
	if err != nil {
		return dist.PMF{}, err
	}
	m.mu.Lock()
	if pmf, ok := m.cache[idx]; ok {
		m.mu.Unlock()
		return pmf, nil
	}
	m.mu.Unlock()
	pmfs, err := m.CountPMFs([]float64{w})
	if err != nil {
		return dist.PMF{}, err
	}
	return pmfs[0], nil
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
	if col != nil && !math.IsNaN(col[idx]) {
		v := col[idx]
		m.mu.Unlock()
		return v, nil
	}
	pmf, ok := m.cache[idx]
	m.mu.Unlock()
	if !ok {
		if pmf, err = m.CountPMF(w); err != nil {
			return 0, err
		}
	}
	v := pmf.PGF(z)
	if col != nil {
		m.mu.Lock()
		col[idx] = v
		m.mu.Unlock()
	}
	return v, nil
}

// PGFs is PGF over many widths: it validates every width first and runs at
// most one sweep, like CountPMFs. The result order matches ws.
func (m *Model) PGFs(ws []float64, z float64) ([]float64, error) {
	idxs := make([]int, len(ws))
	for i, w := range ws {
		idx, err := m.gridIndex(w)
		if err != nil {
			return nil, err
		}
		idxs[i] = idx
	}
	out := make([]float64, len(ws))
	missing := false
	m.mu.Lock()
	col := m.pgfColumnLocked(z)
	for i, idx := range idxs {
		if col == nil || math.IsNaN(col[idx]) {
			out[i] = math.NaN()
			missing = true
			continue
		}
		out[i] = col[idx]
	}
	m.mu.Unlock()
	if !missing {
		return out, nil
	}
	pmfs, err := m.CountPMFs(ws)
	if err != nil {
		return nil, err
	}
	for i, pmf := range pmfs {
		if math.IsNaN(out[i]) {
			out[i] = pmf.PGF(z)
		}
	}
	if col != nil {
		m.mu.Lock()
		for i, idx := range idxs {
			col[idx] = out[i]
		}
		m.mu.Unlock()
	}
	return out, nil
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

// CountPMFs computes count PMFs for several widths in a single arrival
// sweep, which is far cheaper than separate CountPMF calls for curve
// generation. The result order matches ws.
func (m *Model) CountPMFs(ws []float64) ([]dist.PMF, error) {
	idxs := make([]int, len(ws))
	maxIdx := 0
	m.mu.Lock()
	swept := m.sweptTo
	m.mu.Unlock()
	for i, w := range ws {
		idx, err := m.gridIndex(w)
		if err != nil {
			return nil, err
		}
		idxs[i] = idx
		if idx > maxIdx {
			maxIdx = idx
		}
	}
	if maxIdx > swept {
		if err := m.sweep(maxIdx); err != nil {
			return nil, err
		}
	}
	out := make([]dist.PMF, len(ws))
	m.mu.Lock()
	defer m.mu.Unlock()
	for i, idx := range idxs {
		pmf, ok := m.cache[idx]
		if !ok {
			return nil, fmt.Errorf("renewal: internal: missing cache for index %d", idx)
		}
		out[i] = pmf
	}
	return out, nil
}

// sweep runs the arrival-position convolution once and caches the count PMF
// for every index of the full grid, so every later query on this model is
// free. A sweep costs one discrete convolution per arrival order k —
// dispatched per step between the direct, blocked and FFT kernels (see
// conv.go) — and the per-k prefix sum that serves all indexes at once is
// what makes whole-curve generation cheap.
//
// The horizon is deliberately canonical — always the whole grid, never just
// the requested index. Kernel dispatch and FFT roundoff depend on the sweep
// length, so lazily grown tables would make a cached PMF depend on which
// query happened to be swept first (and, under concurrent requests, on
// goroutine scheduling). One fixed horizon makes every PMF a pure function
// of the model configuration — the property behind the sweep cache's "a hit
// can never change a result" contract, the persistent store's snapshots,
// and the job journal's byte-identical crash resumption.
//
// Concurrent sweeps of one model are deduplicated singleflight-style: while
// one goroutine computes, every other request waits on its result instead
// of redoing the convolution. Sweeps() counts the sweeps actually computed,
// which is what lets tests and the server's /v1/stats prove that a warmed
// cache answered without recomputation.
func (m *Model) sweep(maxIdx int) error {
	if maxIdx == 0 {
		return nil
	}
	m.mu.Lock()
	for {
		if m.sweptTo >= maxIdx {
			m.mu.Unlock()
			return nil
		}
		if !m.sweeping {
			break
		}
		m.sweepDone.Wait()
	}
	m.sweeping = true
	m.sweeps.Add(1)
	m.mu.Unlock()

	err := m.runSweep(m.fullHorizon())

	m.mu.Lock()
	m.sweeping = false
	m.sweepDone.Broadcast()
	m.mu.Unlock()
	return err
}

// fullHorizon is the grid index of the model's maximum width — the one
// canonical sweep length.
func (m *Model) fullHorizon() int {
	return int(math.Round(m.maxWidth / m.step))
}

// Sweeps returns how many arrival sweeps this model has actually computed.
// Deduplicated concurrent requests and cache-served queries do not count.
func (m *Model) Sweeps() uint64 {
	return m.sweeps.Load()
}

// runSweep performs the convolution work for one claimed sweep.
func (m *Model) runSweep(maxIdx int) error {
	n := maxIdx
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
		if scale*running < m.tailEps {
			break
		}
		if k == hardCap {
			return fmt.Errorf("renewal: arrival sweep did not converge within %d terms", hardCap)
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

	m.mu.Lock()
	defer m.mu.Unlock()
	ge := make([]float64, len(rows))
	for j := 0; j < maxIdx; j++ {
		idx := j + 1
		if _, ok := m.cache[idx]; ok && idx <= m.sweptTo {
			continue
		}
		for k := range rows {
			ge[k] = rows[k][j]
		}
		pmf, err := assemblePMF(ge, m.tailEps)
		if err != nil {
			return fmt.Errorf("renewal: width index %d: %w", idx, err)
		}
		m.cache[idx] = pmf
	}
	if maxIdx > m.sweptTo {
		m.sweptTo = maxIdx
	}
	return nil
}

// assemblePMF converts the tail sequence ge[k-1] = P(N ≥ k), k = 1.., into a
// PMF over counts 0..len(ge). Trailing counts whose tail probability is
// below tailEps are trimmed so the support does not depend on how long the
// sweep ran for other (wider) query widths in the same batch.
func assemblePMF(ge []float64, tailEps float64) (dist.PMF, error) {
	cut := len(ge)
	for cut > 0 && ge[cut-1] < tailEps {
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

// convolveFrom computes dst = (d ⊛ f) truncated to len(dst) = len(d),
// skipping source entries below lo (known-zero trimmed region).
func convolveFrom(dst, d, f []float64, lo int) {
	for i := range dst {
		dst[i] = 0
	}
	n := len(dst)
	for j := lo; j < n; j++ {
		dv := d[j]
		if dv == 0 {
			continue
		}
		lim := n - j
		if lim > len(f) {
			lim = len(f)
		}
		df := dst[j : j+lim]
		ff := f[:lim]
		for i := range ff {
			df[i] += dv * ff[i]
		}
	}
}

func mustPoint(k int) dist.PMF {
	p, err := dist.PointPMF(k)
	if err != nil {
		panic(err)
	}
	return p
}
