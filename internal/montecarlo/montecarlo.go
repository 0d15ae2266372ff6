// Package montecarlo is the parallel experiment engine: it fans a
// deterministic simulation function out over workers, each with an
// independently derived random stream, and merges the per-batch moment
// accumulators. The calling goroutine is worker 0, as in ordered.Run: a run
// starts at most Workers − 1 helper goroutines, and a one-worker run starts
// none. Results are reproducible from a single root seed and do not depend
// on the worker count (each round's stream is derived from the round
// index, not the worker). RunStateAdaptive adds relative-error-targeted
// stopping on top of the same contract: the budget grows in doubling
// blocks with per-block derived seeds, so even an adaptively stopped
// estimate is a pure function of (seed, options, round function).
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
	"runtime"
	"sync"
	"sync/atomic"

	"github.com/cnfet/yieldlab/internal/obs"
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
// worker goroutine calls newState once and passes its state to each of its
// rounds, so a round can reuse buffers across realizations without locking
// or per-round allocation. newState may be nil when S's zero value is ready
// to use.
//
// Reproducibility: round batch b always uses the stream derived from
// (seed, b), and per-batch accumulators merge in batch order, so the
// estimate is a pure function of (seed, rounds, f) regardless of scheduling
// or worker count. The state must be pure scratch: batches migrate between
// workers from run to run, so any state influence on the returned values
// would break that guarantee. Cancelling ctx stops the run at the next
// batch claim and returns ctx's error.
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
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	batch := opt.BatchSize
	if batch <= 0 {
		batch = 64
	}
	nBatches := (rounds + batch - 1) / batch

	if workers > nBatches {
		workers = nBatches
	}
	if err := ctx.Err(); err != nil {
		return stat.Welford{}, err
	}
	// done is nil for a context that can never be cancelled, which makes
	// the per-batch check below a no-op select.
	done := ctx.Done()
	// The batch queue is a single atomic counter: claiming work is one
	// uncontended fetch-add instead of a mutex round-trip, which stops the
	// queue from serializing short batches at high worker counts. The
	// failed flag keeps first-error semantics: after any error (a round's,
	// or the context's at a batch claim), no new batch starts and the
	// earliest-recorded error is returned.
	var (
		wg      sync.WaitGroup
		nextIdx atomic.Int64
		failed  atomic.Bool
		errMu   sync.Mutex
		firstEr error
	)
	// Per-batch accumulators, merged in batch order after the pool drains:
	// floating-point merges are not associative, so merging in completion
	// order would leak scheduling noise (±1 ulp) into the estimate and
	// break the bit-identical reproducibility the response caches and
	// ETags rely on.
	accs := make([]stat.Welford, nBatches)
	fail := func(err error) {
		errMu.Lock()
		if firstEr == nil {
			firstEr = err
		}
		errMu.Unlock()
		failed.Store(true)
	}
	work := func() {
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
		for {
			if failed.Load() {
				return
			}
			select {
			case <-done:
				fail(ctx.Err())
				return
			default:
			}
			b := int(nextIdx.Add(1) - 1)
			if b >= nBatches {
				return
			}
			if r == nil {
				r = rng.Derive(seed, uint64(b))
			} else {
				rng.DeriveInto(r, seed, uint64(b))
			}
			lo := b * batch
			hi := lo + batch
			if hi > rounds {
				hi = rounds
			}
			localBatches++
			var local stat.Welford
			for i := lo; i < hi; i++ {
				v, err := f(r, state)
				if err != nil {
					fail(err)
					return
				}
				local.Add(v)
				localRounds++
			}
			accs[b] = local
		}
	}
	// Worker 0 is the calling goroutine. If one of its rounds panics, the
	// deferred wait stops the helpers' batch claims and lets them finish
	// their current batch before the panic unwinds further, so no helper
	// outlives the run. A panic in a helper ends the process.
	wg.Add(workers - 1)
	for range workers - 1 {
		go func() {
			defer wg.Done()
			work()
		}()
	}
	returned := false
	defer func() {
		if !returned {
			failed.Store(true)
			wg.Wait()
		}
	}()
	work()
	returned = true
	wg.Wait()
	if failed.Load() {
		errMu.Lock()
		defer errMu.Unlock()
		return stat.Welford{}, firstEr
	}
	var merged stat.Welford
	for b := range accs {
		merged.Merge(accs[b])
	}
	return merged, nil
}
