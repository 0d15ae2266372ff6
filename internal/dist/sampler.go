package dist

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
)

// Sampler is a devirtualized sampling function: the Monte Carlo hot loops
// resolve one of these per distribution up front (see FastSamplerFor)
// instead of paying an interface dispatch — and, for TruncNormal, a full
// inverse-CDF evaluation — on every draw.
type Sampler func(r *rand.Rand) float64

// truncNormalTableCells is the default inversion-table resolution, matching
// the 4096-cell grid the ForwardRecurrence sampler has proven out: the
// sup-norm quantile error is bounded by one grid cell, far below the pitch
// scale the Monte Carlo resolves.
const truncNormalTableCells = 4096

// guidePerCell sets the guide array at four slots per cell: a draw then
// almost always starts its inversion walk in its final cell.
const guidePerCell = 4

// TruncNormalTable is a tabulated inverse-CDF sampler for a TruncNormal.
//
// Construction evaluates the exact CDF on a uniform grid of cells spanning
// the quantile-bounded mass region [Q(1e-13), Q(1-1e-13)] — not the raw
// support, so the resolution adapts to the law's scale: a tight-sigma law
// gets the same ~4096 cells across its actual mass that a wide one does.
// Sampling inverts the piecewise-linear interpolant; a guide array indexed
// by ⌊u·4·cells⌋ starts each inversion in (almost always) the right cell, so
// a draw costs one table lookup, a short monotone walk and one linear
// interpolation — no special functions.
//
// Accuracy: for any u inside the tabulated mass, the exact quantile and
// the tabulated quantile lie in the same grid cell, so the error is
// bounded by the cell width (Span/cells ≈ the law's quantile range over
// 4096); draws in either tail beyond the tabulated mass (≈1e-13 of the
// distribution each side) fall back to the exact Quantile. The table is
// immutable after construction and safe for concurrent use.
type TruncNormalTable struct {
	law   TruncNormal
	lo    float64   // grid origin
	h     float64   // cell width
	cdf   []float64 // cdf[i] = CDF(lo + i·h), i = 0..cells
	guide []int32   // guide[k] = first cell whose upper CDF reaches k/len(guide)
	maxU  float64   // tabulated mass: cdf[cells]
}

// tnTableCache shares the immutable tables between models built on the same
// law, keyed by fingerprint and capped like the ForwardRecurrence cache:
// past the cap, extra laws get private GC-able tables.
var (
	tnTableMu    sync.Mutex
	tnTableCache = make(map[string]*TruncNormalTable)
)

const tnTableCacheMax = 64

// TruncNormalTableFor returns the default-resolution tabulated sampler for
// t, sharing one table per distinct law.
func TruncNormalTableFor(t TruncNormal) (*TruncNormalTable, error) {
	key, ok := Fingerprint(t)
	if !ok {
		return NewTruncNormalTable(t, 0)
	}
	tnTableMu.Lock()
	tab, hit := tnTableCache[key]
	tnTableMu.Unlock()
	if hit {
		return tab, nil
	}
	tab, err := NewTruncNormalTable(t, 0)
	if err != nil {
		return nil, err
	}
	tnTableMu.Lock()
	defer tnTableMu.Unlock()
	if prior, raced := tnTableCache[key]; raced {
		return prior, nil
	}
	if len(tnTableCache) < tnTableCacheMax {
		tnTableCache[key] = tab
	}
	return tab, nil
}

// NewTruncNormalTable builds a tabulated sampler for t with the given cell
// count (0 = the default 4096).
func NewTruncNormalTable(t TruncNormal, cells int) (*TruncNormalTable, error) {
	if cells <= 0 {
		cells = truncNormalTableCells
	}
	if !(t.Sigma > 0) {
		return nil, errors.New("dist: truncated normal table needs a constructed TruncNormal")
	}
	lo := t.Quantile(1e-13)
	hi := t.Quantile(1 - 1e-13)
	if !(hi > lo) || math.IsNaN(lo) || math.IsNaN(hi) {
		return nil, fmt.Errorf("dist: truncated normal table mass region [%g, %g] invalid", lo, hi)
	}
	h := (hi - lo) / float64(cells)
	cdf := make([]float64, cells+1)
	cdf[0] = t.CDF(lo)
	for i := 1; i <= cells; i++ {
		c := t.CDF(lo + float64(i)*h)
		// Monotone clamp against floating-point drift.
		if c < cdf[i-1] {
			c = cdf[i-1]
		}
		cdf[i] = c
	}
	guide := buildGuide(cdf, guidePerCell*cells)
	return &TruncNormalTable{law: t, lo: lo, h: h, cdf: cdf, guide: guide, maxU: cdf[cells]}, nil
}

// buildGuide returns the n-slot guide array over the tabulated cdf:
// guide[k] is the first cell whose upper CDF reaches k/n. Quantile walks
// forward from the guide slot to the first cell whose upper CDF reaches u,
// so every guide built by this rule yields the same cell, and the same
// output bits, at any n; n only sets how short the walk is. (At the
// default power-of-two n, u·n and k/n are exact, so the slot a draw reads
// never starts past its cell.)
func buildGuide(cdf []float64, n int) []int32 {
	cells := len(cdf) - 1
	guide := make([]int32, n)
	j := 0
	for k := range guide {
		u := float64(k) / float64(n)
		for j < cells-1 && cdf[j+1] < u {
			j++
		}
		guide[k] = int32(j)
	}
	return guide
}

// Quantile inverts the tabulated CDF at u in [0, 1]; the ≈1e-13 tails
// beyond the tabulated mass on either side use the exact quantile.
//
//yield:noalloc
func (tb *TruncNormalTable) Quantile(u float64) float64 {
	if !(u > tb.cdf[0]) || u >= tb.maxU {
		return tb.law.Quantile(u) // tail (or NaN) delegation stays exact
	}
	slots := len(tb.guide)
	k := int(u * float64(slots))
	if k >= slots {
		k = slots - 1
	}
	j := int(tb.guide[k])
	for tb.cdf[j+1] < u {
		j++
	}
	c0, c1 := tb.cdf[j], tb.cdf[j+1]
	if c1 == c0 {
		return tb.lo + float64(j)*tb.h
	}
	return tb.lo + (float64(j)+(u-c0)/(c1-c0))*tb.h
}

// Sample draws one variate by tabulated inverse transform, consuming exactly
// one uniform per draw like the exact sampler it replaces.
//
//yield:noalloc
func (tb *TruncNormalTable) Sample(r *rand.Rand) float64 {
	return tb.Quantile(r.Float64())
}

// Span returns the width of the tabulated support: the sup-norm quantile
// error bound is Span()/Cells().
func (tb *TruncNormalTable) Span() float64 { return tb.h * float64(tb.Cells()) }

// Cells returns the table resolution.
func (tb *TruncNormalTable) Cells() int { return len(tb.cdf) - 1 }

// FastSamplerFor resolves the fastest available sampler for law once, so hot
// loops avoid per-draw interface dispatch:
//
//   - TruncNormal draws from the shared tabulated inverse CDF
//     (TruncNormalTableFor) instead of the exact per-draw Quantile;
//   - Exponential and Deterministic get direct closures;
//   - anything else falls back to the law's own Sample method, still bound
//     once.
//
// Every returned sampler consumes the generator identically to the law's
// Sample, so swapping one in changes at most the low-order digits of the
// drawn values (and, for TruncNormal, by no more than the table's sup-norm
// bound), never the stream alignment.
func FastSamplerFor(law Continuous) (Sampler, error) {
	switch l := law.(type) {
	case TruncNormal:
		if tab, err := TruncNormalTableFor(l); err == nil {
			return tab.Sample, nil
		}
		// Degenerate laws a table cannot resolve keep the exact sampler —
		// exactly the pre-table behavior.
		return l.Sample, nil
	case *TruncNormal:
		if tab, err := TruncNormalTableFor(*l); err == nil {
			return tab.Sample, nil
		}
		return l.Sample, nil
	case Exponential:
		rate := l.Rate
		return func(r *rand.Rand) float64 { return r.ExpFloat64() / rate }, nil
	case Deterministic:
		v := l.V
		return func(r *rand.Rand) float64 { return v }, nil
	case nil:
		return nil, errors.New("dist: nil distribution")
	default:
		return law.Sample, nil
	}
}
