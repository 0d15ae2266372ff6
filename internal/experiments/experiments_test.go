package experiments

import (
	"context"
	"math"
	"strings"
	"sync"
	"testing"

	"github.com/cnfet/yieldlab/internal/yield"
)

// fastParams shrinks the Monte Carlo budgets so the full integration suite
// stays test-friendly; the tolerance bands in the runners still apply.
func fastParams() Params {
	p := DefaultParams()
	p.MCRounds = 25_000
	p.CorrelationRounds = 250
	p.NetlistInstances = 8_000
	return p
}

var (
	runnerOnce sync.Once
	sharedRun  *Runner
)

func testRunner() *Runner {
	runnerOnce.Do(func() { sharedRun = New(fastParams()) })
	return sharedRun
}

func TestParamsValidate(t *testing.T) {
	if err := DefaultParams().Validate(); err != nil {
		t.Fatal(err)
	}
	mutations := []func(*Params){
		func(p *Params) { p.M = 0 },
		func(p *Params) { p.DesiredYield = 1 },
		func(p *Params) { p.LCNTUM = 0 },
		func(p *Params) { p.PminPerUM = 0 },
		func(p *Params) { p.GridStepNM = 0 },
		func(p *Params) { p.MCRounds = 1 },
		func(p *Params) { p.CorrelationRounds = 0 },
		func(p *Params) { p.NetlistInstances = 1 },
	}
	for i, m := range mutations {
		p := DefaultParams()
		m(&p)
		if p.Validate() == nil {
			t.Errorf("mutation %d should invalidate params", i)
		}
	}
}

func TestNamesAndDispatch(t *testing.T) {
	if len(Names()) != 8 {
		t.Fatalf("names: %v", Names())
	}
	r := testRunner()
	if _, err := r.Run(context.Background(), "nonsense"); err == nil {
		t.Fatal("unknown experiment should error")
	}
}

// The integration regression: every experiment runs and every
// paper-vs-measured record lands inside its tolerance band.
func TestAllExperimentsWithinTolerance(t *testing.T) {
	if testing.Short() {
		t.Skip("integration experiment suite")
	}
	r := testRunner()
	results, err := r.RunMany(context.Background(), Names(), r.params.Workers)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(Names()) {
		t.Fatalf("results: %d", len(results))
	}
	for _, res := range results {
		if res.Table == nil {
			t.Errorf("%s: missing table", res.Name)
			continue
		}
		if res.Comparisons == nil {
			t.Errorf("%s: missing comparisons", res.Name)
			continue
		}
		for _, f := range res.Comparisons.Records {
			if !f.WithinTolerance() {
				t.Errorf("%s: %s out of tolerance: paper %.4g, measured %.4g",
					res.Name, f.Quantity, f.Paper, f.Measured)
			}
		}
		if res.Text() == "" {
			t.Errorf("%s: empty text rendering", res.Name)
		}
	}
}

func TestFig21Anchors(t *testing.T) {
	res, err := testRunner().Fig21()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Charts) == 0 || !strings.Contains(res.Charts[0], "pF") {
		t.Fatal("chart missing")
	}
	if len(res.CSVs) != 1 {
		t.Fatal("CSV missing")
	}
	for _, c := range res.Comparisons.Records {
		if !c.WithinTolerance() {
			t.Errorf("%s out of tolerance (%v vs %v)", c.Quantity, c.Measured, c.Paper)
		}
	}
}

func TestFig32SVGsPresent(t *testing.T) {
	res, err := testRunner().Fig32()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.SVGs) != 2 {
		t.Fatalf("SVGs: %d", len(res.SVGs))
	}
	for name, svg := range res.SVGs {
		if !strings.Contains(svg, "<svg") || !strings.Contains(svg, "</svg>") {
			t.Errorf("%s: malformed SVG", name)
		}
	}
}

func TestTable2RowsAndNotes(t *testing.T) {
	res, err := testRunner().Table2()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Table.Rows) != 3 {
		t.Fatalf("rows: %d", len(res.Table.Rows))
	}
	if len(res.Table.Notes) == 0 {
		t.Fatal("notes missing")
	}
}

func TestExtensionExperiments(t *testing.T) {
	r := testRunner()
	for _, name := range ExtensionNames() {
		res, err := r.Run(context.Background(), name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Table == nil || len(res.Table.Rows) != 3 {
			t.Fatalf("%s: unexpected table shape", name)
		}
		for _, f := range res.Comparisons.Records {
			if !f.WithinTolerance() {
				t.Errorf("%s: %s out of tolerance", name, f.Quantity)
			}
		}
	}
	// The noise extension must reproduce the quoted pRm regime: required
	// removal beyond 99.99% at the small-device end.
	res, err := r.ExtNoiseMargin()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Table.Rows[0][3], "1-") {
		t.Fatalf("required pRm formatting: %v", res.Table.Rows[0])
	}
}

// The runner keeps no model of its own: every failureModel call looks the
// count model up in the sweep cache, so repeated calls share one swept
// table and sweep it once.
func TestRunnerSharesModelAcrossExperiments(t *testing.T) {
	r := testRunner()
	m1, err := r.failureModel()
	if err != nil {
		t.Fatal(err)
	}
	m2, err := r.failureModel()
	if err != nil {
		t.Fatal(err)
	}
	if m1.CountModel() != m2.CountModel() {
		t.Fatal("failure models should share one count model")
	}
	if _, err := m1.FailureProb(155); err != nil {
		t.Fatal(err)
	}
	if _, err := m2.FailureProb(155); err != nil {
		t.Fatal(err)
	}
	if n := m1.CountModel().Sweeps(); n != 1 {
		t.Fatalf("count model swept %d times, want 1", n)
	}
}

// wminAt is the solver itself, with no cache in front: a first and a
// repeated call both return every field SimplifiedWmin returns on the same
// problem (the chip Yield included).
func TestWminAtMatchesSolver(t *testing.T) {
	r := New(fastParams())
	for _, relax := range []float64{1, 360} {
		p, err := r.baseProblem(relax)
		if err != nil {
			t.Fatal(err)
		}
		want, err := yield.SimplifiedWmin(p)
		if err != nil {
			t.Fatal(err)
		}
		for call := 1; call <= 2; call++ {
			got, err := r.wminAt(relax)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("relax %g, call %d: wminAt = %+v, want %+v", relax, call, got, want)
			}
		}
	}
}

// The runner's sweep cache must dedupe count-model construction: the
// pitch-law ablation re-requests the calibrated law the failure model was
// already built on (a hit), while its exponential and deterministic laws
// are genuinely new (misses).
func TestRunnerSweepCacheSharesAcrossModels(t *testing.T) {
	r := New(fastParams())
	if _, err := r.failureModel(); err != nil {
		t.Fatal(err)
	}
	if _, err := r.ExtPitchAblation(); err != nil {
		t.Fatal(err)
	}
	st := r.sweeps.Stats()
	if st.Hits != 1 || st.Misses != 3 {
		t.Fatalf("sweep cache stats = (%d hits, %d misses), want (1, 3)", st.Hits, st.Misses)
	}
}

// Reproducibility: two independent runners with the same seed produce
// byte-identical Table 1 outputs regardless of worker scheduling.
func TestTable1Deterministic(t *testing.T) {
	p := fastParams()
	p.MCRounds = 5_000
	a, err := New(p).Table1(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(p).Table1(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	at, bt := a.Table.Render(), b.Table.Render()
	if at != bt {
		t.Fatalf("Table 1 not reproducible:\n%s\nvs\n%s", at, bt)
	}
	// A different seed moves the Monte Carlo columns.
	p.Seed++
	c, err := New(p).Table1(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if c.Table.Render() == at {
		t.Fatal("seed change should alter MC estimates")
	}
}

// TestTable1MCBitsPinned pins the exact bits of Table 1's two Monte Carlo
// estimates at a fixed budget, so a change to the estimator plumbing
// (entry point, seeding, round order, merge order) that moves a single ulp
// fails here before it reaches a published column.
func TestTable1MCBitsPinned(t *testing.T) {
	p := fastParams()
	p.MCRounds = 5_000
	d, err := New(p).table1Estimates(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		got  float64
		want uint64
	}{
		{"unaligned mean", d.unal.Mean, 0x3e89dc6a853bc6a9},
		{"unaligned stderr", d.unal.StdErr, 0x3e5061fa6adc3688},
		{"aligned mean", d.al.Mean, 0x3e57bc67e60816f3},
		{"aligned stderr", d.al.StdErr, 0x3e4205946475a003},
	} {
		if got := math.Float64bits(c.got); got != c.want {
			t.Errorf("%s = %v (bits %#x), want bits %#x (%v)", c.name, c.got, got, c.want, math.Float64frombits(c.want))
		}
	}
}
