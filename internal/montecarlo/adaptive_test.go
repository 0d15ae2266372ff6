package montecarlo

import (
	"context"
	"errors"
	"math"
	"math/rand/v2"
	"testing"

	"github.com/cnfet/yieldlab/internal/rng"
)

// expRound is a cheap positive-mean round function with genuine variance.
func expRound(r *rand.Rand, _ struct{}) (float64, error) {
	return math.Exp(r.NormFloat64()), nil
}

func TestAdaptiveStopsAtTarget(t *testing.T) {
	opt := AdaptiveOptions{
		RelErrTarget: 0.02,
		MaxRounds:    1 << 20,
		MinRounds:    256,
	}
	est, err := RunStateAdaptive(context.Background(), nil, expRound, opt)
	if err != nil {
		t.Fatal(err)
	}
	if est.Mean <= 0 {
		t.Fatalf("mean %g not positive", est.Mean)
	}
	if rel := est.StdErr / est.Mean; rel > opt.RelErrTarget {
		t.Fatalf("stopped at relative error %g above target %g", rel, opt.RelErrTarget)
	}
	if est.Rounds >= opt.MaxRounds {
		t.Fatalf("spent the whole cap (%d rounds); the target should stop earlier", est.Rounds)
	}
	// The block schedule is MinRounds, 2·MinRounds, ...: totals are
	// MinRounds·(2^k - 1) until the cap interferes.
	if est.Rounds%opt.MinRounds != 0 {
		t.Fatalf("rounds %d not a multiple of the first block %d", est.Rounds, opt.MinRounds)
	}
}

func TestAdaptiveSpendsCapWithoutTarget(t *testing.T) {
	opt := AdaptiveOptions{MaxRounds: 3000, MinRounds: 1024}
	est, err := RunStateAdaptive(context.Background(), nil, expRound, opt)
	if err != nil {
		t.Fatal(err)
	}
	if est.Rounds != opt.MaxRounds {
		t.Fatalf("no target: want exactly MaxRounds=%d rounds, got %d", opt.MaxRounds, est.Rounds)
	}
}

func TestAdaptiveBitIdenticalAcrossWorkers(t *testing.T) {
	run := func(workers int) Estimate {
		est, err := RunStateAdaptive(context.Background(), nil, expRound, AdaptiveOptions{
			Options:      Options{Workers: workers},
			RelErrTarget: 0.05,
			MaxRounds:    1 << 18,
			MinRounds:    512,
		})
		if err != nil {
			t.Fatal(err)
		}
		return est
	}
	ref := run(1)
	for _, workers := range []int{4, 8} {
		if got := run(workers); got != ref {
			t.Fatalf("workers=%d: estimate %+v differs from single-worker %+v", workers, got, ref)
		}
	}
}

func TestAdaptiveMatchesManualBlockMerge(t *testing.T) {
	// The adaptive result must be exactly the block-order merge of the
	// per-block RunState runs with the derived block seeds: the adaptive
	// schedule is part of the result's identity.
	opt := AdaptiveOptions{MaxRounds: 1536, MinRounds: 512}
	est, err := RunStateAdaptive(context.Background(), nil, expRound, opt)
	if err != nil {
		t.Fatal(err)
	}
	var want float64
	var n int
	for blockIdx, rounds := range []int{512, 1024} {
		e, err := RunState(context.Background(), rounds, nil, expRound, Options{Seed: blockSeed(rng.DefaultSeed, blockIdx)})
		if err != nil {
			t.Fatal(err)
		}
		want += e.Mean * float64(e.Rounds)
		n += e.Rounds
	}
	if est.Rounds != n {
		t.Fatalf("rounds: got %d want %d", est.Rounds, n)
	}
	if diff := math.Abs(est.Mean - want/float64(n)); diff > 1e-12*math.Abs(est.Mean) {
		t.Fatalf("adaptive mean %g does not merge the manual blocks (%g)", est.Mean, want/float64(n))
	}
}

func TestAdaptiveValidation(t *testing.T) {
	if _, err := RunStateAdaptive(context.Background(), nil, expRound, AdaptiveOptions{MaxRounds: 1}); err == nil {
		t.Fatal("MaxRounds 1 accepted")
	}
	if _, err := RunStateAdaptive(context.Background(), nil, expRound, AdaptiveOptions{MaxRounds: 100, RelErrTarget: -1}); err == nil {
		t.Fatal("negative target accepted")
	}
	if _, err := RunStateAdaptive[struct{}](context.Background(), nil, nil, AdaptiveOptions{MaxRounds: 100}); err == nil {
		t.Fatal("nil round function accepted")
	}
	boom := errors.New("boom")
	_, err := RunStateAdaptive(context.Background(), nil, func(*rand.Rand, struct{}) (float64, error) {
		return 0, boom
	}, AdaptiveOptions{MaxRounds: 100})
	if !errors.Is(err, boom) {
		t.Fatalf("round error not propagated, got %v", err)
	}
}
