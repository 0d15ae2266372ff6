package cntgrowth

import (
	"errors"
	"fmt"
	"math/rand/v2"

	"github.com/cnfet/yieldlab/internal/stat"
)

// Grower is the common interface of the two growth processes.
type Grower interface {
	Grow(r *rand.Rand, region Rect) (*Array, error)
}

// Compile-time checks.
var (
	_ Grower = Directional{}
	_ Grower = Uncorrelated{}
)

// PairStats quantifies how strongly two CNFET active regions share CNT
// statistics under a growth process — the experiment behind Fig. 3.1 and
// the premise of the whole co-optimization: directional growth plus aligned
// actives makes the pair perfectly correlated.
type PairStats struct {
	// CountCorr is the Pearson correlation of the pre-removal CNT counts
	// of the two regions across growth realizations.
	CountCorr float64
	// UsableCorr is the correlation of usable (surviving semiconducting)
	// CNT counts; it folds in CNT-type correlation.
	UsableCorr float64
	// SharedFrac is the mean fraction of region-1 CNTs also crossing
	// region 2 (1.0 when the regions see identical tubes).
	SharedFrac float64
	// MeanCount is the mean pre-removal count of region 1.
	MeanCount float64
	// Realizations is the number of Monte Carlo growth rounds.
	Realizations int
}

// MeasurePairCorrelation grows `rounds` independent arrays over a region
// containing both rectangles, applies the removal step, and correlates the
// two devices' CNT statistics.
func MeasurePairCorrelation(r *rand.Rand, g Grower, rm Removal, fet1, fet2 Rect, rounds int) (PairStats, error) {
	if g == nil {
		return PairStats{}, errors.New("cntgrowth: nil grower")
	}
	if rounds < 2 {
		return PairStats{}, fmt.Errorf("cntgrowth: need ≥ 2 rounds, got %d", rounds)
	}
	if err := fet1.Validate(); err != nil {
		return PairStats{}, err
	}
	if err := fet2.Validate(); err != nil {
		return PairStats{}, err
	}
	region := boundingRect(fet1, fet2)
	// Pad so equilibrium edges do not clip the devices.
	pad := 20.0
	region = Rect{X0: region.X0 - pad, Y0: region.Y0 - pad, X1: region.X1 + pad, Y1: region.Y1 + pad}

	c1 := make([]float64, rounds)
	c2 := make([]float64, rounds)
	u1 := make([]float64, rounds)
	u2 := make([]float64, rounds)
	var shared stat.Welford
	for i := 0; i < rounds; i++ {
		a, err := g.Grow(r, region)
		if err != nil {
			return PairStats{}, err
		}
		if err := rm.Apply(r, a); err != nil {
			return PairStats{}, err
		}
		x1 := a.Crossing(fet1)
		x2 := a.Crossing(fet2)
		c1[i], c2[i] = float64(len(x1)), float64(len(x2))
		u1[i], u2[i] = float64(a.CountUsable(fet1)), float64(a.CountUsable(fet2))
		if len(x1) > 0 {
			in2 := make(map[int]bool, len(x2))
			for _, idx := range x2 {
				in2[idx] = true
			}
			n := 0
			for _, idx := range x1 {
				if in2[idx] {
					n++
				}
			}
			shared.Add(float64(n) / float64(len(x1)))
		}
	}
	return PairStats{
		CountCorr:    stat.Corr(c1, c2),
		UsableCorr:   stat.Corr(u1, u2),
		SharedFrac:   shared.Mean(),
		MeanCount:    stat.Mean(c1),
		Realizations: rounds,
	}, nil
}

func boundingRect(a, b Rect) Rect {
	out := a
	if b.X0 < out.X0 {
		out.X0 = b.X0
	}
	if b.Y0 < out.Y0 {
		out.Y0 = b.Y0
	}
	if b.X1 > out.X1 {
		out.X1 = b.X1
	}
	if b.Y1 > out.Y1 {
		out.Y1 = b.Y1
	}
	return out
}
