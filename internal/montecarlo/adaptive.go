package montecarlo

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"

	"github.com/cnfet/yieldlab/internal/rng"
	"github.com/cnfet/yieldlab/internal/stat"
)

// AdaptiveOptions configures a relative-error-targeted run.
type AdaptiveOptions struct {
	Options
	// RelErrTarget stops the run once StdErr ≤ RelErrTarget·Mean (with a
	// positive running mean). Zero disables early stopping: the run spends
	// the whole MaxRounds budget.
	RelErrTarget float64
	// MaxRounds is the hard round cap (required, ≥ 2).
	MaxRounds int
	// MinRounds is the first block size (default 4096), after which blocks
	// double; clamped to MaxRounds.
	MinRounds int
}

// defaultMinAdaptiveRounds is the first adaptive block: large enough that
// the initial relative-error reading is meaningful for the heavy-tailed
// weighted estimators, small enough that easy targets stop quickly.
const defaultMinAdaptiveRounds = 4096

// RunStateAdaptive runs f in deterministic doubling blocks until the merged
// estimate's relative standard error reaches the target or the round cap is
// spent.
//
// Each block is one RunState-style parallel run with its own derived block
// seed, bit-identical across worker counts; block accumulators merge in
// block order, and the stopping decision after each block depends only on
// the merged estimate — never on scheduling — so the adaptive result is as
// reproducible as a fixed-round run: a pure function of (seed, options, f).
// The block schedule (MinRounds, then ×2 per block, capped at the remaining
// budget) is part of that identity; the same target reached on machines
// with different worker counts stops at the same total round count with the
// same bits. Cancelling ctx stops the run at the next batch claim and
// returns ctx's error, discarding the blocks already merged.
func RunStateAdaptive[S any](ctx context.Context, newState func() S, f func(r *rand.Rand, state S) (float64, error), opt AdaptiveOptions) (Estimate, error) {
	if f == nil {
		return Estimate{}, errors.New("montecarlo: nil round function")
	}
	if opt.MaxRounds < 2 {
		return Estimate{}, fmt.Errorf("montecarlo: adaptive run needs MaxRounds ≥ 2, got %d", opt.MaxRounds)
	}
	if opt.RelErrTarget < 0 || math.IsNaN(opt.RelErrTarget) {
		return Estimate{}, fmt.Errorf("montecarlo: relative-error target %g must be ≥ 0", opt.RelErrTarget)
	}
	seed := opt.Seed
	if seed == 0 {
		seed = rng.DefaultSeed
	}
	block := opt.MinRounds
	if block <= 0 {
		block = defaultMinAdaptiveRounds
	}
	if block < 2 {
		block = 2
	}
	if block > opt.MaxRounds {
		block = opt.MaxRounds
	}
	var merged stat.Welford
	total := 0
	for blockIdx := 0; total < opt.MaxRounds; blockIdx++ {
		if rem := opt.MaxRounds - total; block > rem {
			block = rem
		}
		blockOpt := opt.Options
		blockOpt.Seed = blockSeed(seed, blockIdx)
		w, err := runMerged(ctx, block, newState, f, blockOpt)
		if err != nil {
			return Estimate{}, err
		}
		merged.Merge(w)
		total += block
		if opt.RelErrTarget > 0 {
			if m := merged.Mean(); m > 0 && merged.StdErr() <= opt.RelErrTarget*m {
				break
			}
		}
		block *= 2
	}
	return Estimate{Mean: merged.Mean(), StdErr: merged.StdErr(), Rounds: int(merged.N())}, nil
}

// blockSeed derives the root seed of adaptive block `block`. The double
// SplitMix64 mixing keeps block streams decorrelated from each other and
// from the per-batch streams rng.Derive spawns inside each block (which mix
// through a different multiplier path), so growing the schedule never
// replays rounds.
func blockSeed(seed uint64, block int) uint64 {
	return rng.SplitMix64(seed ^ 0xB10C_5EED ^ rng.SplitMix64(uint64(block)*0xD1B54A32D192ED03+0x2545F4914F6CDD1D))
}
