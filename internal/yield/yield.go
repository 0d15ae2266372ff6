// Package yield implements the chip-level CNT-count-limited yield models of
// Section 2.2 and the Wmin sizing optimization:
//
//   - Eq. 2.3: Yield = Π_i (1 - pF(W_i)) over M independent CNFETs;
//   - Eq. 2.4: Wmin = min Wt s.t. Yield(U_Wt(W_i)) ≥ Yield_desired, where
//     U_Wt(W) = max(W, Wt) upsizes every device below the threshold;
//   - Eq. 2.5: the simplified form that charges all yield loss to the Mmin
//     minimum-size devices: Wmin solves Mmin·pF(Wt) = 1 - Yield_desired.
//
// The correlated (row-based) refinement of Section 3 lives in package
// rowyield; this package covers the uncorrelated baseline that defines the
// paper's cost problem.
//
//yield:compute
package yield

import (
	"errors"
	"fmt"
	"math"

	"github.com/cnfet/yieldlab/internal/device"
	"github.com/cnfet/yieldlab/internal/numeric"
	"github.com/cnfet/yieldlab/internal/widthdist"
)

// WeightedYield returns Π (1-pF_i)^count_i: the yield of a chip holding
// count_i devices at failure probability pF_i. Counts may be fractional
// (shares of a large M).
func WeightedYield(pFs, counts []float64) (float64, error) {
	if len(pFs) != len(counts) {
		return 0, errors.New("yield: pFs and counts length mismatch")
	}
	var logAcc numeric.Kahan
	for i, p := range pFs {
		if p < 0 || p > 1 || math.IsNaN(p) {
			return 0, fmt.Errorf("yield: pF[%d] = %g out of [0,1]", i, p)
		}
		if counts[i] < 0 {
			return 0, fmt.Errorf("yield: count[%d] = %g negative", i, counts[i])
		}
		if counts[i] == 0 {
			continue
		}
		if p == 1 {
			return 0, nil
		}
		logAcc.Add(counts[i] * math.Log1p(-p))
	}
	return math.Exp(logAcc.Sum()), nil
}

// RequiredDevicePF returns the per-device failure budget (1-Yd)/Mmin of
// Eq. 2.5: the horizontal line drawn on Fig. 2.1. It uses the exact
// log-form -log(Yd)/Mmin, which matches the paper's first-order form to
// within (1-Yd)²/2 and stays correct for aggressive yield targets.
func RequiredDevicePF(mMin float64, desiredYield float64) (float64, error) {
	if !(mMin > 0) {
		return 0, fmt.Errorf("yield: Mmin = %g must be positive", mMin)
	}
	if !(desiredYield > 0) || desiredYield >= 1 {
		return 0, fmt.Errorf("yield: desired yield %g out of (0,1)", desiredYield)
	}
	return -math.Log(desiredYield) / mMin, nil
}

// Problem describes one chip-level sizing problem: a width distribution, a
// transistor count, a failure model and a yield target.
type Problem struct {
	// Model evaluates device failure probability vs width.
	Model *device.FailureModel
	// Widths is the design's transistor width distribution.
	Widths *widthdist.Distribution
	// M is the total CNFET count on the chip (paper case study: 1e8).
	M float64
	// DesiredYield is the chip-level yield target (paper: 0.90).
	DesiredYield float64
	// RelaxFactor divides the failure budget requirement; 1 for the
	// uncorrelated baseline of Section 2, MRmin (≈350 at 45 nm) after the
	// correlation optimization of Section 3.
	RelaxFactor float64
}

// Validate checks the problem is well-posed.
func (p *Problem) Validate() error {
	if p.Model == nil {
		return errors.New("yield: nil failure model")
	}
	if p.Widths == nil {
		return errors.New("yield: nil width distribution")
	}
	if !(p.M > 0) {
		return fmt.Errorf("yield: M = %g must be positive", p.M)
	}
	if !(p.DesiredYield > 0) || p.DesiredYield >= 1 {
		return fmt.Errorf("yield: desired yield %g out of (0,1)", p.DesiredYield)
	}
	if p.RelaxFactor < 1 {
		return fmt.Errorf("yield: relax factor %g must be ≥ 1", p.RelaxFactor)
	}
	return nil
}

// Result reports one Wmin solution.
type Result struct {
	// Wmin is the sizing threshold in nm.
	Wmin float64
	// MminShare is the fraction of devices at or below the threshold
	// (upsized devices).
	MminShare float64
	// DevicePF is the failure probability of a threshold-width device.
	DevicePF float64
	// Yield is the resulting chip yield under Eq. 2.3 applied to the
	// upsized width distribution.
	Yield float64
}

// SimplifiedWmin solves Eq. 2.5: it estimates Mmin from the width
// distribution self-consistently (the paper's iterative note) and inverts
// the device curve at the relaxed failure budget.
func SimplifiedWmin(p *Problem) (Result, error) {
	if err := p.Validate(); err != nil {
		return Result{}, err
	}
	// Self-consistent Mmin: start from the share below an initial guess and
	// iterate share→budget→Wmin. The share function is a step function of
	// Wmin, so this converges in a couple of rounds (the paper: "estimating
	// Mmin can be iterative in nature, but it is simple in practice").
	share := p.Widths.ShareBelow(p.Widths.MinWidth() + 1e-9)
	if share <= 0 {
		share = 1e-9
	}
	var wmin, budget float64
	for iter := 0; iter < 32; iter++ {
		mMin := share * p.M
		req, err := RequiredDevicePF(mMin, p.DesiredYield)
		if err != nil {
			return Result{}, err
		}
		budget = req * p.RelaxFactor
		w, err := p.Model.WidthForFailureProb(budget)
		if err != nil {
			return Result{}, fmt.Errorf("yield: inverting failure budget %g: %w", budget, err)
		}
		wmin = w
		newShare := p.Widths.ShareBelow(wmin)
		if newShare <= 0 {
			newShare = share // keep previous estimate: threshold below support
		}
		if newShare == share {
			break
		}
		share = newShare
	}
	pf, err := p.Model.FailureProb(wmin)
	if err != nil {
		return Result{}, err
	}
	y, err := p.yieldAt(wmin)
	if err != nil {
		return Result{}, err
	}
	return Result{Wmin: wmin, MminShare: share, DevicePF: pf, Yield: y}, nil
}

// ExactWmin solves Eq. 2.4 by bisection on the threshold: it accounts for
// the failure probability of every width bin (non-minimum devices included)
// when evaluating the chip yield, instead of charging only the minimum-size
// population. The relax factor divides the effective failure probabilities,
// mirroring how row correlation divides the chip failure rate in Eq. 3.1.
func ExactWmin(p *Problem) (Result, error) {
	if err := p.Validate(); err != nil {
		return Result{}, err
	}
	f := func(wt float64) (float64, error) {
		y, err := p.yieldAt(wt)
		if err != nil {
			return 0, err
		}
		return y - p.DesiredYield, nil
	}
	lo := p.Widths.MinWidth() * 0.5
	hi := p.Model.CountModel().MaxWidth()
	fHi, err := f(hi)
	if err != nil {
		return Result{}, err
	}
	if fHi < 0 {
		return Result{}, fmt.Errorf("yield: target %g unreachable even at Wt=%g", p.DesiredYield, hi)
	}
	fLo, err := f(lo)
	if err != nil {
		return Result{}, err
	}
	var wmin float64
	if fLo >= 0 {
		// Even with no upsizing the chip meets the target.
		wmin = lo
	} else {
		var ferr error
		wmin, err = numeric.Bisect(func(w float64) float64 {
			v, e := f(w)
			if e != nil && ferr == nil {
				ferr = e
			}
			return v
		}, lo, hi, 1e-3, 200)
		if ferr != nil {
			return Result{}, ferr
		}
		if err != nil {
			return Result{}, err
		}
		// Bisection can land a hair below the target; nudge up to the safe
		// side.
		for i := 0; i < 50; i++ {
			y, err := p.yieldAt(wmin)
			if err != nil {
				return Result{}, err
			}
			if y >= p.DesiredYield {
				break
			}
			wmin += 1e-3 * hi
		}
	}
	pf, err := p.Model.FailureProb(wmin)
	if err != nil {
		return Result{}, err
	}
	y, err := p.yieldAt(wmin)
	if err != nil {
		return Result{}, err
	}
	return Result{Wmin: wmin, MminShare: p.Widths.ShareBelow(wmin), DevicePF: pf, Yield: y}, nil
}

// yieldStackBins is how many width bins yieldAt evaluates in stack
// scratch; a wider distribution allocates its scratch.
const yieldStackBins = 16

// yieldAt evaluates the chip yield with every device upsized to at least wt,
// using the relax factor as a divisor on effective failure probabilities.
// For a distribution of at most yieldStackBins widths (the OpenRISC law has
// 9) it allocates nothing.
func (p *Problem) yieldAt(wt float64) (float64, error) {
	n := p.Widths.Len()
	var buf [3 * yieldStackBins]float64
	scratch := buf[:]
	if n > yieldStackBins {
		scratch = make([]float64, 3*n)
	}
	upsized, pfs, counts := scratch[:n], scratch[n:2*n], scratch[2*n:3*n]
	// Widths beyond the count model's range are evaluated at the range cap:
	// pF is decreasing in width, so this only overestimates failure — the
	// resulting Wmin is conservative, never optimistic.
	cap := p.Model.CountModel().MaxWidth()
	for i := range upsized {
		w, _ := p.Widths.At(i)
		upsized[i] = math.Min(math.Max(w, wt), cap)
	}
	if err := p.Model.FailureProbsInto(pfs, upsized); err != nil {
		return 0, err
	}
	for i := range counts {
		_, prob := p.Widths.At(i)
		counts[i] = prob * p.M
		pfs[i] /= p.RelaxFactor
	}
	return WeightedYield(pfs, counts)
}
