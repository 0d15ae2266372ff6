package query

import (
	"context"
	"testing"

	"github.com/cnfet/yieldlab/internal/analysis/apilock"
	"github.com/cnfet/yieldlab/internal/experiments"
)

// BenchmarkQueryDesignSpace measures the warm analytic query path: one
// Session.EvaluateAll of examples/design_space's corner × node × yield
// Wmin sweep (12 concrete specs) at paper-default parameters, after a
// first evaluation has swept the shared table — expansion,
// canonicalization, model lookup and the Wmin solves, no sweeping. One
// worker keeps the figure a single-thread cost. Registered in
// BENCH_BASELINE.json with a ratio gate against
// BenchmarkTruncNormalSample/exact.
func BenchmarkQueryDesignSpace(b *testing.B) {
	p := experiments.DefaultParams()
	p.Workers = 1
	s, err := NewSession(Options{Params: p})
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	sweep := Spec{Kind: KindWmin, Sweep: &Sweep{
		Corners: []string{"worst", "mid", "best"},
		Nodes:   []string{"45nm", "22nm"},
		Yields:  []float64{0.90, 0.99},
	}}
	if _, err := s.EvaluateAll(ctx, sweep); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.EvaluateAll(ctx, sweep); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQueryRowYieldMC measures the served unaligned Monte Carlo
// kernel: one Session.Evaluate of the pinned corpus entry
// rowyield-unaligned-mc (155 nm on the library-weighted offset plan, 2000
// rounds, seed 42) with one worker, after a first evaluation has prepared
// the row model and filled its occupancy tables. Unlike
// BenchmarkRowYieldMC's flat 14-offset model, it runs the library plan's
// long first occupancy step. Registered in BENCH_BASELINE.json with a ratio
// gate against BenchmarkTruncNormalSample/exact.
func BenchmarkQueryRowYieldMC(b *testing.B) {
	entries, err := apilock.Corpus()
	if err != nil {
		b.Fatal(err)
	}
	var spec Spec
	for _, e := range entries {
		if e.Name == "rowyield-unaligned-mc" {
			if spec, err = Parse(e.Spec); err != nil {
				b.Fatal(err)
			}
		}
	}
	if spec.Kind != KindRowYield {
		b.Fatal("corpus entry rowyield-unaligned-mc not found")
	}
	p := experiments.DefaultParams()
	p.Workers = 1
	s, err := NewSession(Options{Params: p})
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	if _, err := s.Evaluate(ctx, spec); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Evaluate(ctx, spec); err != nil {
			b.Fatal(err)
		}
	}
}
