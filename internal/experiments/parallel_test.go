package experiments

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"github.com/cnfet/yieldlab/internal/obs"
)

func parallelTestParams() Params {
	p := DefaultParams()
	p.MCRounds = 4_000
	p.CorrelationRounds = 60
	p.NetlistInstances = 2_000
	return p
}

// The acceptance bar for the concurrent runner: `all` with Workers > 1 must
// produce byte-identical output to the serial run. Two fresh runners keep
// the comparison honest (no shared sweep cache between the two executions);
// the parallel run's four workers all read the frozen libraries, which
// -race checks.
func TestRunManyParallelMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment sweep")
	}
	names := Names()

	serialParams := parallelTestParams()
	serialParams.Workers = 1
	serial := New(serialParams)
	serialRes, err := serial.RunMany(context.Background(), names, 1)
	if err != nil {
		t.Fatal(err)
	}

	parallelParams := parallelTestParams()
	parallelParams.Workers = 4
	parallel := New(parallelParams)
	parallelRes, err := parallel.RunMany(context.Background(), names, parallelParams.Workers)
	if err != nil {
		t.Fatal(err)
	}

	if len(serialRes) != len(parallelRes) {
		t.Fatalf("result count %d vs %d", len(parallelRes), len(serialRes))
	}
	for i, want := range serialRes {
		got := parallelRes[i]
		if got == nil {
			t.Fatalf("parallel result %d missing", i)
		}
		if got.Name != want.Name {
			t.Fatalf("result %d order: %q vs %q", i, got.Name, want.Name)
		}
		if got.Text() != want.Text() {
			t.Errorf("%s: parallel text output differs from serial", want.Name)
		}
		for name, csv := range want.CSVs {
			if got.CSVs[name] != csv {
				t.Errorf("%s: CSV %s differs", want.Name, name)
			}
		}
		for name, svg := range want.SVGs {
			if got.SVGs[name] != svg {
				t.Errorf("%s: SVG %s differs", want.Name, name)
			}
		}
	}
}

// First-error propagation: the earliest failing experiment's error comes
// back, exactly as a serial run would report it.
func TestRunManyFirstErrorPropagation(t *testing.T) {
	r := New(parallelTestParams())
	_, err := r.RunMany(context.Background(), []string{"fig2.2a", "no-such-thing", "also-wrong"}, 4)
	if err == nil {
		t.Fatal("want error for unknown experiment")
	}
	if !strings.Contains(err.Error(), `"no-such-thing"`) {
		t.Fatalf("error should name the earliest failing experiment, got: %v", err)
	}
}

func TestRunManyEmpty(t *testing.T) {
	r := New(parallelTestParams())
	res, err := r.RunMany(context.Background(), nil, 4)
	if err != nil || res != nil {
		t.Fatalf("empty RunMany = (%v, %v), want (nil, nil)", res, err)
	}
}

func TestSuggest(t *testing.T) {
	cases := []struct {
		in   string
		want string
		ok   bool
	}{
		{"fig21", "fig2.1", true},
		{"fig2.2b ", "fig2.2b", true},
		{"tabel1", "table1", true},
		{"table", "table1", true},
		{"ext-nois", "ext-noise", true},
		{"fig3.3", "fig3.3", true},
		{"zzzzzzzz", "", false},
	}
	for _, tc := range cases {
		got, ok := Suggest(tc.in)
		if ok != tc.ok || (ok && got != tc.want) {
			t.Errorf("Suggest(%q) = (%q, %t), want (%q, %t)", tc.in, got, ok, tc.want, tc.ok)
		}
	}
}

// A cancelled context stops RunMany before any artifact is built, on both
// the serial and the pooled path, and the context's error comes back.
func TestRunManyCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		res, err := New(parallelTestParams()).RunMany(ctx, Names(), workers)
		if !errors.Is(err, context.Canceled) || res != nil {
			t.Fatalf("workers=%d: RunMany under a cancelled context = (%v, %v), want context.Canceled", workers, res, err)
		}
	}
}

// Cancelling mid-run reaches Table 1's Monte Carlo: a deadline far shorter
// than its 200k-round columns returns the deadline error, not a table.
func TestTable1HonorsDeadline(t *testing.T) {
	p := parallelTestParams()
	p.MCRounds = 50_000_000
	r := New(p)
	// Sweep the device model outside the deadline.
	if _, err := r.failureModel(); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := r.RunMany(ctx, []string{"table1"}, 1)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("Table 1 ignored the deadline for %s", elapsed)
	}
}

// Every artifact runs under its own "experiment.<name>" span.
func TestRunTracesArtifacts(t *testing.T) {
	tracer := obs.New()
	ctx := obs.WithTracer(context.Background(), tracer)
	if _, err := New(parallelTestParams()).RunMany(ctx, []string{"fig2.2a", "table1"}, 1); err != nil {
		t.Fatal(err)
	}
	roots := tracer.Roots()
	if len(roots) != 2 || roots[0].Name() != "experiment.fig2.2a" || roots[1].Name() != "experiment.table1" {
		names := make([]string, len(roots))
		for i, sp := range roots {
			names[i] = sp.Name()
		}
		t.Fatalf("root spans %v, want [experiment.fig2.2a experiment.table1]", names)
	}
}
