package dist

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"sync"

	"github.com/cnfet/yieldlab/internal/numeric"
)

// ForwardRecurrence samples the stationary forward-recurrence (equilibrium
// first-gap) distribution of a renewal process with the given spacing law:
// the distance from an arbitrary observation point to the next arrival,
// with density (1-F(x))/μ. The row-correlation Monte Carlo uses it to start
// track realizations in equilibrium, which is what makes the sampled count
// statistics match the analytic renewal model exactly.
//
// Sampling inverts a precomputed monotone table of the equilibrium CDF
// G(x) = I(x)/μ with per-cell linear interpolation; the table is exact when
// the spacing law implements SurvivalIntegrator and Simpson-integrated
// otherwise. The sampler is immutable after construction and safe for
// concurrent use.
type ForwardRecurrence struct {
	table *numeric.LinearInterp // equilibrium CDF over the support grid
	maxX  float64               // support cap
	maxG  float64               // CDF at the cap (≤ 1; truncated tail)
}

// forwardRecurrenceCells is the resolution of the inversion table. At 1/4096
// of the support per cell the interpolation error of the smooth equilibrium
// CDF is far below Monte Carlo resolution.
const forwardRecurrenceCells = 4096

// frCache shares the immutable 4096-cell samplers between models built on
// the same spacing law, keyed by the law's fingerprint. Parameter sweeps
// construct thousands of RowModel instances over a handful of laws; without
// the cache each one re-integrates its own table. The entry count is capped
// so a sweep over the law parameters themselves (every variant a distinct
// fingerprint) cannot pin unbounded memory for the process lifetime — past
// the cap, extra laws simply get private GC-able tables.
var (
	frCacheMu sync.Mutex
	frCache   = make(map[string]*ForwardRecurrence)
)

const frCacheMax = 64

// ForwardRecurrenceFor returns the stationary first-gap sampler for
// spacing, sharing one table per distinct law when the law carries a
// Fingerprint (all the built-in laws do). Laws without a fingerprint get a
// fresh table, exactly as NewForwardRecurrence.
func ForwardRecurrenceFor(spacing Continuous) (*ForwardRecurrence, error) {
	if spacing == nil {
		return nil, errors.New("dist: nil spacing distribution")
	}
	key, ok := Fingerprint(spacing)
	if !ok {
		return NewForwardRecurrence(spacing)
	}
	frCacheMu.Lock()
	fr, hit := frCache[key]
	frCacheMu.Unlock()
	if hit {
		return fr, nil
	}
	fr, err := NewForwardRecurrence(spacing)
	if err != nil {
		return nil, err
	}
	frCacheMu.Lock()
	defer frCacheMu.Unlock()
	if prior, raced := frCache[key]; raced {
		return prior, nil
	}
	if len(frCache) < frCacheMax {
		frCache[key] = fr
	}
	return fr, nil
}

// NewForwardRecurrence builds the stationary first-gap sampler for spacing.
func NewForwardRecurrence(spacing Continuous) (*ForwardRecurrence, error) {
	if spacing == nil {
		return nil, errors.New("dist: nil spacing distribution")
	}
	mean := spacing.Mean()
	if !(mean > 0) || math.IsInf(mean, 0) || math.IsNaN(mean) {
		return nil, fmt.Errorf("dist: spacing mean %g must be positive and finite", mean)
	}
	sd := spacing.StdDev()
	if sd < 0 || math.IsInf(sd, 0) || math.IsNaN(sd) {
		return nil, fmt.Errorf("dist: spacing standard deviation %g must be finite and non-negative", sd)
	}
	// Support cap: the forward-recurrence law inherits the spacing support,
	// so truncate where the spacing tail mass is negligible.
	hi := mean + 12*sd
	if q := spacing.Quantile(1 - 1e-13); !math.IsNaN(q) && !math.IsInf(q, 1) && q > hi {
		hi = q
	}
	if !(hi > 0) || math.IsInf(hi, 1) {
		return nil, fmt.Errorf("dist: spacing support cap %g invalid", hi)
	}
	si, exact := spacing.(SurvivalIntegrator)
	surv := func(x float64) float64 {
		if x < 0 {
			return 1
		}
		return 1 - spacing.CDF(x)
	}
	n := forwardRecurrenceCells
	xs := make([]float64, n+1)
	cdf := make([]float64, n+1)
	h := hi / float64(n)
	acc := 0.0
	for i := 0; i <= n; i++ {
		x := float64(i) * h
		xs[i] = x
		if exact {
			cdf[i] = si.IntegratedSurvival(x) / mean
		} else {
			if i > 0 {
				acc += numeric.Simpson(surv, x-h, x, 8) / mean
			}
			cdf[i] = acc
		}
		// Monotone clamp against floating-point drift.
		if i > 0 && cdf[i] < cdf[i-1] {
			cdf[i] = cdf[i-1]
		}
		if cdf[i] > 1 {
			cdf[i] = 1
		}
	}
	if !(cdf[n] >= 0.5) {
		return nil, fmt.Errorf("dist: equilibrium CDF reaches only %g at support cap %g (inconsistent spacing law)", cdf[n], hi)
	}
	table, err := numeric.NewLinearInterp(xs, cdf)
	if err != nil {
		return nil, fmt.Errorf("dist: equilibrium CDF table: %w", err)
	}
	return &ForwardRecurrence{table: table, maxX: hi, maxG: cdf[n]}, nil
}

// Sample draws one stationary first gap. The truncated tail beyond the
// support cap (≈1e-13 of the mass) is clamped to the cap.
func (fr *ForwardRecurrence) Sample(r *rand.Rand) float64 {
	u := r.Float64()
	if u >= fr.maxG {
		return fr.maxX
	}
	return fr.table.InverseAt(u)
}
