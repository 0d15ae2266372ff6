package montecarlo

import (
	"context"
	"errors"
	"maps"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/cnfet/yieldlab/internal/obs"
)

// run is RunState for a round function that needs no scratch.
func run(ctx context.Context, rounds int, f func(r *rand.Rand) (float64, error), opt Options) (Estimate, error) {
	return RunState(ctx, rounds, nil, func(r *rand.Rand, _ struct{}) (float64, error) {
		return f(r)
	}, opt)
}

func TestRunEstimatesMean(t *testing.T) {
	est, err := run(context.Background(), 200_000, func(r *rand.Rand) (float64, error) {
		return r.Float64(), nil
	}, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(est.Mean-0.5) > 5*est.StdErr {
		t.Fatalf("mean %v ± %v, want 0.5", est.Mean, est.StdErr)
	}
	if est.Rounds != 200_000 {
		t.Fatalf("rounds: %d", est.Rounds)
	}
	// StdErr of U(0,1) mean: (1/√12)/√n ≈ 6.45e-4.
	if est.StdErr < 5e-4 || est.StdErr > 8e-4 {
		t.Fatalf("stderr: %v", est.StdErr)
	}
}

func TestRunReproducibleAcrossWorkerCounts(t *testing.T) {
	f := func(r *rand.Rand) (float64, error) { return r.NormFloat64(), nil }
	a, err := run(context.Background(), 10_000, f, Options{Seed: 42, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := run(context.Background(), 10_000, f, Options{Seed: 42, Workers: 16})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(a.Mean-b.Mean) > 1e-12 {
		t.Fatalf("worker count changed the estimate: %v vs %v", a.Mean, b.Mean)
	}
}

func TestRunSeedChangesStream(t *testing.T) {
	f := func(r *rand.Rand) (float64, error) { return r.Float64(), nil }
	a, _ := run(context.Background(), 1000, f, Options{Seed: 1})
	b, _ := run(context.Background(), 1000, f, Options{Seed: 2})
	if a.Mean == b.Mean {
		t.Fatal("different seeds should give different estimates")
	}
}

func TestRunPropagatesError(t *testing.T) {
	boom := errors.New("boom")
	n := 0
	_, err := run(context.Background(), 1000, func(r *rand.Rand) (float64, error) {
		n++
		if n > 100 {
			return 0, boom
		}
		return 1, nil
	}, Options{Seed: 1, Workers: 1})
	if !errors.Is(err, boom) {
		t.Fatalf("expected boom, got %v", err)
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := RunState[struct{}](context.Background(), 10, nil, nil, Options{}); err == nil {
		t.Error("nil function")
	}
	if _, err := run(context.Background(), 1, func(r *rand.Rand) (float64, error) { return 0, nil }, Options{}); err == nil {
		t.Error("too few rounds")
	}
}

// RunState must create exactly one state per worker goroutine and reuse it
// across that worker's batches.
func TestRunStatePerWorkerScratch(t *testing.T) {
	type scratch struct{ rounds int }
	var created atomic.Int64
	newState := func() *scratch {
		created.Add(1)
		return &scratch{}
	}
	const rounds, workers = 10_000, 4
	est, err := RunState(context.Background(), rounds, newState, func(r *rand.Rand, s *scratch) (float64, error) {
		s.rounds++
		return r.Float64(), nil
	}, Options{Seed: 3, Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	if est.Rounds != rounds {
		t.Fatalf("rounds: %d", est.Rounds)
	}
	if n := created.Load(); n < 1 || n > workers {
		t.Fatalf("states created: %d, want 1..%d", n, workers)
	}
}

// A zero worker bound means runtime.GOMAXPROCS(0): under one P a run
// keeps a single worker and so a single state.
func TestDefaultWorkersFollowGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var created atomic.Int64
	newState := func() *int {
		created.Add(1)
		return new(int)
	}
	if _, err := RunState(context.Background(), 10_000, newState, func(r *rand.Rand, _ *int) (float64, error) {
		return r.Float64(), nil
	}, Options{Seed: 3}); err != nil {
		t.Fatal(err)
	}
	if n := created.Load(); n != 1 {
		t.Fatalf("states created under GOMAXPROCS=1: %d, want 1", n)
	}
}

// The per-worker state must not change the estimate: stateful and stateless
// runs over the same seed are bit-identical, at any worker count.
func TestRunStateBitIdenticalAcrossWorkerCounts(t *testing.T) {
	f := func(r *rand.Rand, buf []float64) (float64, error) {
		for i := range buf {
			buf[i] = r.NormFloat64()
		}
		return (buf[0] + buf[1] + buf[2]) / 3, nil
	}
	newState := func() []float64 { return make([]float64, 3) }
	base, err := RunState(context.Background(), 9_999, newState, f, Options{Seed: 77, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 3, 8, 32} {
		got, err := RunState(context.Background(), 9_999, newState, f, Options{Seed: 77, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if got.Mean != base.Mean || got.StdErr != base.StdErr {
			t.Fatalf("workers=%d changed the estimate: %v vs %v", workers, got, base)
		}
	}
}

// A nil factory means the zero value of S is the state.
func TestRunStateNilFactory(t *testing.T) {
	est, err := RunState(context.Background(), 100, nil, func(r *rand.Rand, _ struct{}) (float64, error) {
		return 1, nil
	}, Options{Seed: 1})
	if err != nil || est.Mean != 1 {
		t.Fatalf("est %v err %v", est, err)
	}
}

func TestRunStatePropagatesFirstError(t *testing.T) {
	boom := errors.New("boom")
	var calls atomic.Int64
	_, err := RunState(context.Background(), 100_000, nil, func(r *rand.Rand, _ struct{}) (float64, error) {
		if calls.Add(1) > 50 {
			return 0, boom
		}
		return 1, nil
	}, Options{Seed: 1, Workers: 8})
	if !errors.Is(err, boom) {
		t.Fatalf("expected boom, got %v", err)
	}
	// After the error no worker should run the whole budget: the atomic
	// failed flag stops batch claims.
	if n := calls.Load(); n >= 100_000 {
		t.Fatalf("error did not stop the run: %d rounds", n)
	}
	if _, err := RunState[struct{}](context.Background(), 100, nil, nil, Options{}); err == nil {
		t.Error("nil round function")
	}
}

func TestRunSmallRoundsLargeBatch(t *testing.T) {
	est, err := run(context.Background(), 5, func(r *rand.Rand) (float64, error) { return 2, nil }, Options{Seed: 9, BatchSize: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if est.Rounds != 5 || est.Mean != 2 {
		t.Fatalf("est: %+v", est)
	}
}

// TestRunStateAllocsScaleWithWorkers: a worker reseeds one generator in
// place for every batch it claims, so a run's allocations depend on its
// worker count, not on how many batches it walks.
func TestRunStateAllocsScaleWithWorkers(t *testing.T) {
	f := func(r *rand.Rand, _ struct{}) (float64, error) { return r.Float64(), nil }
	allocs := func(batches, workers int) float64 {
		return testing.AllocsPerRun(20, func() {
			if _, err := RunState(context.Background(), batches*8, nil, f, Options{Seed: 3, Workers: workers, BatchSize: 8}); err != nil {
				t.Fatal(err)
			}
		})
	}
	for _, workers := range []int{1, 2} {
		few, many := allocs(4, workers), allocs(400, workers)
		// 396 extra batches used to cost a fresh source each; allow a
		// little slack for goroutine bookkeeping.
		if many-few > 4 {
			t.Errorf("workers=%d: %v allocs for 4 batches, %v for 400: allocations grow with batches", workers, few, many)
		}
	}
}

// A run under an already-cancelled context does no work and returns the
// context's error; a cancel during the run stops it at the next batch
// claim, again with the context's error and never a partial estimate.
func TestRunCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var calls atomic.Int64
	f := func(r *rand.Rand) (float64, error) {
		calls.Add(1)
		return r.Float64(), nil
	}
	if _, err := run(ctx, 10_000, f, Options{Seed: 1, Workers: 2}); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run: err = %v, want context.Canceled", err)
	}
	if n := calls.Load(); n != 0 {
		t.Fatalf("cancelled run executed %d rounds", n)
	}
	if _, err := RunStateAdaptive(ctx, nil, expRound, AdaptiveOptions{MaxRounds: 10_000}); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled adaptive run: err = %v, want context.Canceled", err)
	}

	// Mid-run: the round that lands in batch 3 cancels; with one worker the
	// engine must stop before claiming batch 4.
	const batch = 8
	ctx, cancel = context.WithCancel(context.Background())
	defer cancel()
	calls.Store(0)
	est, err := RunState(ctx, 1_000*batch, nil, func(r *rand.Rand, _ struct{}) (float64, error) {
		if calls.Add(1) == 3*batch+1 {
			cancel()
		}
		return r.Float64(), nil
	}, Options{Seed: 1, Workers: 1, BatchSize: batch})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-run cancel: err = %v, want context.Canceled", err)
	}
	if est != (Estimate{}) {
		t.Fatalf("mid-run cancel returned a partial estimate %+v", est)
	}
	if n := calls.Load(); n != 4*batch {
		t.Fatalf("mid-run cancel ran %d rounds, want %d (stop at the next batch)", n, 4*batch)
	}
}

// goroutineID returns the running goroutine's number from the header line
// of its stack trace ("goroutine 7 [running]:").
func goroutineID() string {
	var buf [64]byte
	return strings.Fields(string(buf[:runtime.Stack(buf[:], false)]))[1]
}

// roundGoroutines runs 64 batches of 8 rounds and returns the set of
// goroutines that ran a round. Until the caller has run a round (or a
// second has passed), a round on any other goroutine waits for it, so the
// caller takes part whenever it is a worker: the helpers hold at most one
// batch each meanwhile.
func roundGoroutines(t *testing.T, workers int) (ids map[string]bool, caller string) {
	t.Helper()
	caller = goroutineID()
	ids = make(map[string]bool)
	var mu sync.Mutex
	var callerRan atomic.Bool
	deadline := time.Now().Add(time.Second)
	_, err := RunState(context.Background(), 64*8, nil, func(r *rand.Rand, _ struct{}) (float64, error) {
		id := goroutineID()
		if id == caller {
			callerRan.Store(true)
		} else {
			for !callerRan.Load() && time.Now().Before(deadline) {
				runtime.Gosched()
			}
		}
		mu.Lock()
		ids[id] = true
		mu.Unlock()
		return r.Float64(), nil
	}, Options{Seed: 5, Workers: workers, BatchSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	return ids, caller
}

// A one-worker run starts no goroutine: every round runs on the caller.
func TestRunOneWorkerRunsOnCaller(t *testing.T) {
	ids, caller := roundGoroutines(t, 1)
	if len(ids) != 1 || !ids[caller] {
		t.Fatalf("rounds ran on goroutines %v, want only the caller's %s", slices.Sorted(maps.Keys(ids)), caller)
	}
}

// The calling goroutine is worker 0: a three-worker run uses the caller
// and at most two helpers.
func TestRunCallerIsWorkerZero(t *testing.T) {
	ids, caller := roundGoroutines(t, 3)
	if !ids[caller] || len(ids) > 3 {
		t.Fatalf("rounds ran on goroutines %v, want the caller's %s and at most 2 more", slices.Sorted(maps.Keys(ids)), caller)
	}
}

// exitState marks its worker's exit: the engine reads ScratchAllocs once,
// when the worker leaves its batch loop and flushes its counters.
type exitState struct{ exited atomic.Bool }

func (s *exitState) ScratchAllocs() uint64 {
	s.exited.Store(true)
	return 0
}

// A panic in a round on the caller stops the helpers' batch claims and
// reaches the caller's recover only after every helper has finished its
// batch and exited. After the panic a helper finishes its current batch
// and at most one more, claimed before it saw the failure.
func TestRunCallerPanicWaitsForHelpers(t *testing.T) {
	caller := goroutineID()
	var (
		mu                        sync.Mutex
		states                    []*exitState
		helperStarted, helperDone atomic.Int64
		startedAtPanic            int64
	)
	newState := func() *exitState {
		s := new(exitState)
		mu.Lock()
		states = append(states, s)
		mu.Unlock()
		return s
	}
	const rounds, batch, workers = 1000 * 8, 8, 3
	recovered := func() (r any) {
		defer func() { r = recover() }()
		_, _ = RunState(context.Background(), rounds, newState, func(_ *rand.Rand, _ *exitState) (float64, error) {
			if goroutineID() == caller {
				// Hold the caller's round until a helper is inside one of its own.
				for helperStarted.Load() == 0 {
					runtime.Gosched()
				}
				startedAtPanic = helperStarted.Load()
				panic("round")
			}
			helperStarted.Add(1)
			defer helperDone.Add(1)
			time.Sleep(200 * time.Microsecond)
			return 1, nil
		}, Options{Seed: 1, Workers: workers, BatchSize: batch, Counters: new(obs.MCCounters)})
		return nil
	}()
	if recovered != "round" {
		t.Fatalf("recovered %v, want the round's panic", recovered)
	}
	if s, d := helperStarted.Load(), helperDone.Load(); s != d {
		t.Fatalf("after the unwind %d helper rounds started and %d finished, want all started ones finished", s, d)
	}
	if after, most := helperStarted.Load()-startedAtPanic, int64(2*batch*(workers-1)); after > most {
		t.Fatalf("helpers started %d rounds after the panic, want at most %d: dispatch did not stop", after, most)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(states) < 2 || len(states) > workers {
		t.Fatalf("%d workers started, want the caller and 1-%d helpers", len(states), workers-1)
	}
	for i, s := range states {
		if !s.exited.Load() {
			t.Fatalf("worker %d of %d had not exited when the panic reached recover", i, len(states))
		}
	}
}
