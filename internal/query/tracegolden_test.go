package query

import (
	"bytes"
	"context"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"testing"

	"github.com/cnfet/yieldlab/internal/experiments"
	"github.com/cnfet/yieldlab/internal/obs"
)

var updateTraceGolden = flag.Bool("update-trace-golden", false, "rewrite testdata/trace-design-space.json")

// traceTimes matches the timestamp and duration of a trace event.
var traceTimes = regexp.MustCompile(`("(?:ts|dur)": )-?[0-9][0-9.eE+-]*`)

// TestTraceEventsGolden pins the Chrome trace of a traced design-space
// evaluation (one worker, after a warming evaluation) followed by a plain
// and a tilted Monte Carlo row-yield spec, with timestamps and durations
// zeroed: every span's name, its order and track, and its attribute keys
// and values, string, integer, float and bool alike. It holds a rewrite of
// the span tracer to the trace it exports. Refresh deliberately with
// -update-trace-golden.
func TestTraceEventsGolden(t *testing.T) {
	p := experiments.DefaultParams()
	p.Workers = 1
	s, err := NewSession(Options{Params: p})
	if err != nil {
		t.Fatal(err)
	}
	sweep := Spec{Kind: KindWmin, Sweep: &Sweep{
		Corners: []string{"worst", "mid", "best"},
		Nodes:   []string{"45nm", "22nm"},
		Yields:  []float64{0.90, 0.99},
	}}
	if _, err := s.EvaluateAll(context.Background(), sweep); err != nil {
		t.Fatal(err)
	}
	tr := obs.New()
	if _, err := s.EvaluateAll(obs.WithTracer(context.Background(), tr), sweep); err != nil {
		t.Fatal(err)
	}
	for _, q := range []Spec{
		{Kind: KindRowYield, Scenario: "unaligned", WidthNM: 142.7, Rounds: 2000},
		{Kind: KindRowYield, Scenario: "unaligned", WidthNM: 142.7, Rounds: 20000, MCMethod: "tilted", RelErrTarget: 0.5},
	} {
		if _, err := s.Evaluate(obs.WithTracer(context.Background(), tr), q); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := tr.WriteTraceEvents(&buf); err != nil {
		t.Fatal(err)
	}
	got := traceTimes.ReplaceAll(buf.Bytes(), []byte("${1}0"))
	file := filepath.Join("testdata", "trace-design-space.json")
	if *updateTraceGolden {
		if err := os.WriteFile(file, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("trace events differ from %s\n got: %s\nwant: %s", file, got, want)
	}
}
