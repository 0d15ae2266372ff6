// Package montecarlo is the parallel experiment engine: it fans a
// deterministic simulation function out over workers, each with an
// independently derived random stream, and merges the per-batch moment
// accumulators. Round batches are the indices of one ordered.Each, so the
// engine inherits its contract: the calling goroutine is worker 0, a
// one-worker run starts no goroutine, and when rounds fail the run returns
// the error of the lowest failing batch, never the one that arrived first.
// Results are reproducible from a single root seed and do not depend on
// the worker count (each round's stream is derived from the batch index,
// not the worker). RunStateAdaptive adds relative-error-targeted stopping
// on top of the same contract: the budget grows in doubling blocks with
// per-block derived seeds, so even an adaptively stopped estimate is a
// pure function of (seed, options, round function).
//
// Runs are cancellable: every worker checks the context each time it claims
// a round batch, and a cancelled run returns the context's error — never a
// partial estimate — so cancellation cannot leak into a served number.
//
//yield:compute
package montecarlo

import (
	"context"
	"errors"
	"fmt"
	"math/rand"

	"github.com/cnfet/yieldlab/internal/obs"
	"github.com/cnfet/yieldlab/internal/ordered"
	"github.com/cnfet/yieldlab/internal/rng"
	"github.com/cnfet/yieldlab/internal/stat"
)

// Estimate is a Monte Carlo mean with its standard error.
type Estimate struct {
	Mean   float64
	StdErr float64
	Rounds int
}

// Options configures a run.
type Options struct {
	// Seed is the root seed (rng.DefaultSeed if zero).
	Seed uint64
	// Workers caps parallelism (GOMAXPROCS if ≤ 0).
	Workers int
	// BatchSize groups rounds per stream derivation; larger batches
	// amortize stream setup, smaller ones improve balance. Default 64.
	BatchSize int
	// Counters, when non-nil, receives engine progress (rounds, batches,
	// scratch growth when the state implements obs.ScratchCounter). Workers
	// accumulate plain local counters and flush once at worker exit, so the
	// hot round loop sees no atomic traffic and counting cannot perturb the
	// estimate: results are bit-identical with or without Counters.
	Counters *obs.MCCounters
}

// RunState executes rounds of f in parallel and merges the estimates. Every
// worker calls newState once and passes its state to each of its rounds, so
// a round can reuse buffers across realizations without locking or
// per-round allocation. newState may be nil when S's zero value is ready to
// use.
//
// Reproducibility: round batch b always uses the stream derived from
// (seed, b), and per-batch accumulators merge in batch order, so the
// estimate is a pure function of (seed, rounds, f) regardless of scheduling
// or worker count. The state must be pure scratch: batches migrate between
// workers from run to run, so any state influence on the returned values
// would break that guarantee. The first round error stops batch claims,
// and the error returned is that of the lowest failing batch, as a serial
// run would report, whichever worker failed first. Cancelling ctx stops
// the run at the next batch claim and returns ctx's error.
func RunState[S any](ctx context.Context, rounds int, newState func() S, f func(r *rand.Rand, state S) (float64, error), opt Options) (Estimate, error) {
	if f == nil {
		return Estimate{}, errors.New("montecarlo: nil round function")
	}
	if rounds < 2 {
		return Estimate{}, fmt.Errorf("montecarlo: need ≥ 2 rounds, got %d", rounds)
	}
	merged, err := runMerged(ctx, rounds, newState, f, opt)
	if err != nil {
		return Estimate{}, err
	}
	return Estimate{Mean: merged.Mean(), StdErr: merged.StdErr(), Rounds: int(merged.N())}, nil
}

// runMerged is the engine behind RunState: it returns the batch-order-merged
// accumulator itself, so callers composing multiple runs (the adaptive
// runner) can keep merging exactly instead of reconstructing moments from an
// Estimate. Accepts rounds ≥ 1 — single-round tails of an adaptive schedule
// are meaningful once merged into a larger accumulator.
func runMerged[S any](ctx context.Context, rounds int, newState func() S, f func(r *rand.Rand, state S) (float64, error), opt Options) (stat.Welford, error) {
	seed := opt.Seed
	if seed == 0 {
		seed = rng.DefaultSeed
	}
	batch := opt.BatchSize
	if batch <= 0 {
		batch = 64
	}
	// Per-batch accumulators, merged in batch order after the pool drains:
	// floating-point merges are not associative, so merging in completion
	// order would leak scheduling noise (±1 ulp) into the estimate and
	// break the bit-identical reproducibility the response caches and
	// ETags rely on.
	accs := make([]stat.Welford, (rounds+batch-1)/batch)
	err := ordered.Each(ctx, len(accs), opt.Workers, func(_ int, c *ordered.Claims) error {
		var state S
		if newState != nil {
			state = newState()
		}
		// One generator per worker, reseeded in place for every batch it
		// claims: batch b still reads exactly the stream Derive(seed, b).
		var r *rand.Rand
		// Counter flush happens once per worker lifetime: the loop below
		// counts into plain locals so the per-round cost of observability
		// is a register increment, not an atomic RMW.
		var localRounds, localBatches uint64
		if opt.Counters != nil {
			defer func() {
				opt.Counters.Rounds.Add(localRounds)
				opt.Counters.Batches.Add(localBatches)
				if sc, ok := any(state).(obs.ScratchCounter); ok {
					opt.Counters.ScratchAllocs.Add(sc.ScratchAllocs())
				}
			}()
		}
		for b, ok := c.Next(); ok; b, ok = c.Next() {
			if r == nil {
				r = rng.Derive(seed, uint64(b))
			} else {
				rng.DeriveInto(r, seed, uint64(b))
			}
			localBatches++
			var local stat.Welford
			for range min(batch, rounds-b*batch) {
				v, err := f(r, state)
				if err != nil {
					return err
				}
				local.Add(v)
				localRounds++
			}
			accs[b] = local
		}
		return nil
	})
	if err != nil {
		return stat.Welford{}, err
	}
	var merged stat.Welford
	for b := range accs {
		merged.Merge(accs[b])
	}
	return merged, nil
}
