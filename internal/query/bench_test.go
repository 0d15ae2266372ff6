package query

import (
	"context"
	"testing"

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
