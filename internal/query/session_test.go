package query

import (
	"context"
	"errors"
	"maps"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/cnfet/yieldlab/internal/device"
	"github.com/cnfet/yieldlab/internal/experiments"
	"github.com/cnfet/yieldlab/internal/fault"
	"github.com/cnfet/yieldlab/internal/renewal"
	"github.com/cnfet/yieldlab/internal/rowyield"
	"github.com/cnfet/yieldlab/internal/sweepstore"
	"github.com/cnfet/yieldlab/internal/tech"
)

// testParams keeps sweeps and Monte Carlo cheap for the session suite.
func testParams() experiments.Params {
	p := experiments.DefaultParams()
	p.GridStepNM = 0.1
	p.MaxWidthNM = 200
	p.MCRounds = 500
	p.CorrelationRounds = 20
	p.NetlistInstances = 500
	p.Workers = 2
	return p
}

// newWorkerSession builds a test session whose Run pool (and Monte Carlo)
// is bounded at workers.
func newWorkerSession(t *testing.T, workers int) *Session {
	t.Helper()
	p := testParams()
	p.Workers = workers
	return newTestSession(t, Options{Params: p})
}

func newTestSession(t *testing.T, opts Options) *Session {
	t.Helper()
	if (opts.Params == experiments.Params{}) {
		opts.Params = testParams()
	}
	s, err := NewSession(opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestEvaluatePFMatchesDeviceModel(t *testing.T) {
	s := newTestSession(t, Options{})
	res, err := s.Evaluate(context.Background(), Spec{Kind: KindPF, WidthNM: 155})
	if err != nil {
		t.Fatal(err)
	}
	if res.PF == nil || res.Fingerprint == "" {
		t.Fatalf("result = %+v", res)
	}
	// The session must agree exactly with a directly built model on the
	// same grid (shared cache ⇒ literally the same swept table).
	m, err := device.NewCalibratedModelWith(s.Cache(), device.WorstCorner(),
		renewal.WithStep(0.1), renewal.WithMaxWidth(200))
	if err != nil {
		t.Fatal(err)
	}
	want, err := m.FailureProb(155)
	if err != nil {
		t.Fatal(err)
	}
	if res.PF.PF != want {
		t.Fatalf("session pF %g != model pF %g", res.PF.PF, want)
	}
	if res.PF.Corner != "worst" || res.PF.WidthNM != 155 || res.PF.Node != "" {
		t.Fatalf("payload = %+v", res.PF)
	}
}

func TestEvaluateNodeScalesWidth(t *testing.T) {
	s := newTestSession(t, Options{})
	ref, err := s.Evaluate(context.Background(), Spec{Kind: KindPF, WidthNM: 155})
	if err != nil {
		t.Fatal(err)
	}
	scaled, err := s.Evaluate(context.Background(), Spec{Kind: KindPF, WidthNM: 155, Node: "22nm"})
	if err != nil {
		t.Fatal(err)
	}
	node, err := tech.ByName("22nm")
	if err != nil {
		t.Fatal(err)
	}
	if scaled.PF.WidthNM != node.ScaleWidth(155) {
		t.Fatalf("scaled width %g, want %g", scaled.PF.WidthNM, node.ScaleWidth(155))
	}
	if scaled.PF.Node != "22nm" {
		t.Fatalf("node echo %q", scaled.PF.Node)
	}
	// Narrower device, same pitch: failure probability must grow sharply.
	if !(scaled.PF.PF > 10*ref.PF.PF) {
		t.Fatalf("pF(22nm:%g) = %g should dwarf pF(45nm:155) = %g",
			scaled.PF.WidthNM, scaled.PF.PF, ref.PF.PF)
	}
}

func TestEvaluateWminAcrossNodesAndYields(t *testing.T) {
	s := newTestSession(t, Options{})
	base, err := s.Evaluate(context.Background(), Spec{Kind: KindWmin})
	if err != nil {
		t.Fatal(err)
	}
	// Paper: Wmin ≈ 155 nm at the worst corner, 90% yield.
	if base.Wmin.WminNM < 140 || base.Wmin.WminNM > 170 {
		t.Fatalf("Wmin = %g, want ≈ 155", base.Wmin.WminNM)
	}
	stricter, err := s.Evaluate(context.Background(), Spec{Kind: KindWmin, DesiredYield: 0.99})
	if err != nil {
		t.Fatal(err)
	}
	if !(stricter.Wmin.WminNM > base.Wmin.WminNM) {
		t.Fatalf("99%% yield Wmin %g should exceed 90%% Wmin %g",
			stricter.Wmin.WminNM, base.Wmin.WminNM)
	}
	scaled, err := s.Evaluate(context.Background(), Spec{Kind: KindWmin, Node: "22nm"})
	if err != nil {
		t.Fatal(err)
	}
	// The width distribution shrinks with the node but the pitch does not:
	// the threshold cannot scale below the 45 nm solution's node-scaled
	// value — that is exactly the paper's Fig. 2.2b blow-up.
	if !(scaled.Wmin.WminNM > base.Wmin.WminNM*22.0/45.0) {
		t.Fatalf("22nm Wmin %g vs scaled 45nm threshold %g: penalty vanished",
			scaled.Wmin.WminNM, base.Wmin.WminNM*22.0/45.0)
	}
	relaxed, err := s.Evaluate(context.Background(), Spec{Kind: KindWmin, RelaxFactor: 360})
	if err != nil {
		t.Fatal(err)
	}
	if !(relaxed.Wmin.WminNM < base.Wmin.WminNM) {
		t.Fatalf("relaxed Wmin %g should beat base %g", relaxed.Wmin.WminNM, base.Wmin.WminNM)
	}
}

func TestEvaluateRowYieldScenarios(t *testing.T) {
	s := newTestSession(t, Options{})
	ctx := context.Background()
	al, err := s.Evaluate(ctx, Spec{Kind: KindRowYield, WidthNM: 155, Scenario: "aligned"})
	if err != nil {
		t.Fatal(err)
	}
	if al.RowYield.PRF != al.RowYield.DevicePF {
		t.Fatalf("aligned pRF %g != pF %g", al.RowYield.PRF, al.RowYield.DevicePF)
	}
	unc, err := s.Evaluate(ctx, Spec{Kind: KindRowYield, WidthNM: 155, Scenario: "uncorrelated", KRows: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if !(unc.RowYield.PRF > 100*al.RowYield.PRF) {
		t.Fatalf("uncorrelated pRF %g should dwarf aligned %g", unc.RowYield.PRF, al.RowYield.PRF)
	}
	if unc.RowYield.ChipYield <= 0 || unc.RowYield.ChipYield >= 1 || unc.RowYield.KRows != 1000 {
		t.Fatalf("chip yield payload = %+v", unc.RowYield)
	}
	// Unaligned Monte Carlo with an explicit offset distribution: same seed
	// twice must reproduce bit-identically (the ETag soundness property).
	spec := Spec{Kind: KindRowYield, WidthNM: 155, Scenario: "unaligned", Rounds: 200,
		Offsets: []float64{0, 190, 380}, OffsetProbs: []float64{0.5, 0.25, 0.25}}
	a, err := s.Evaluate(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Evaluate(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if a.RowYield.PRF != b.RowYield.PRF || a.RowYield.StdErr != b.RowYield.StdErr {
		t.Fatalf("seeded Monte Carlo not reproducible: %+v vs %+v", a.RowYield, b.RowYield)
	}
	if a.RowYield.Rounds != 200 {
		t.Fatalf("rounds echo = %d", a.RowYield.Rounds)
	}
}

// Unaligned rowyield evaluations at one (width, corner, pitch law) share a
// single prepared row model from the session's cache, whatever their seed;
// a different width prepares a model of its own.
func TestRowModelCacheSharesPreparedModel(t *testing.T) {
	s := newTestSession(t, Options{})
	ctx := context.Background()
	cached := func() []*rowyield.RowModel {
		s.rowModelsMu.Lock()
		defer s.rowModelsMu.Unlock()
		var out []*rowyield.RowModel
		for _, rm := range s.rowModels {
			out = append(out, rm)
		}
		return out
	}
	spec := Spec{Kind: KindRowYield, WidthNM: 120, Scenario: "unaligned", Rounds: 100}
	for _, seed := range []uint64{1, 2} {
		spec.Seed = seed
		if _, err := s.Evaluate(ctx, spec); err != nil {
			t.Fatal(err)
		}
	}
	models := cached()
	if len(models) != 1 {
		t.Fatalf("%d cached row models after two evaluations at one width, want 1", len(models))
	}
	same, err := s.rowModel(120, device.WorstCorner(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if same != models[0] {
		t.Fatal("a repeated (width, corner, law) prepared a new row model")
	}

	spec.WidthNM = 150
	if _, err := s.Evaluate(ctx, spec); err != nil {
		t.Fatal(err)
	}
	if n := len(cached()); n != 2 {
		t.Fatalf("%d cached row models after a second width, want 2", n)
	}
	other, err := s.rowModel(150, device.WorstCorner(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if other == same || other.WidthNM != 150 {
		t.Fatalf("width 150 shares the width-120 model (WidthNM %g)", other.WidthNM)
	}
}

func TestEvaluateRowYieldRoundsBound(t *testing.T) {
	s := newTestSession(t, Options{MaxRowRounds: 100})
	_, err := s.Evaluate(context.Background(),
		Spec{Kind: KindRowYield, WidthNM: 155, Scenario: "unaligned", Rounds: 500,
			Offsets: []float64{0}, OffsetProbs: []float64{1}})
	if err == nil {
		t.Fatal("rounds beyond the bound accepted")
	}
}

func TestEvaluateNoise(t *testing.T) {
	s := newTestSession(t, Options{})
	res, err := s.Evaluate(context.Background(), Spec{Kind: KindNoise, WidthNM: 155})
	if err != nil {
		t.Fatal(err)
	}
	n := res.Noise
	if n.PRM != DefaultPRM || n.Gates != s.Params().M || n.DesiredYield != s.Params().DesiredYield {
		t.Fatalf("defaults = %+v", n)
	}
	if !(n.ViolationProb > 0) || !(n.ViolationProb < 1) {
		t.Fatalf("violation prob = %g", n.ViolationProb)
	}
	if !(n.ChipYield >= 0) || n.ChipYield >= 1 {
		t.Fatalf("chip yield = %g", n.ChipYield)
	}
	// The paper's cited requirement: ≥ 99.99% removal for practical VLSI.
	if !(n.RequiredPRM > 0.999) {
		t.Fatalf("required pRm = %g, want > 0.999", n.RequiredPRM)
	}
}

func TestEvaluatePitchOverrides(t *testing.T) {
	s := newTestSession(t, Options{})
	ctx := context.Background()
	base, err := s.Evaluate(ctx, Spec{Kind: KindPF, WidthNM: 155})
	if err != nil {
		t.Fatal(err)
	}
	// Spelling out the calibrated law is the same computation (and the
	// same fingerprint — no duplicate sweep).
	explicit, err := s.Evaluate(ctx, Spec{Kind: KindPF, WidthNM: 155, PitchMeanNM: 4, PitchSigmaRatio: 2.3})
	if err != nil {
		t.Fatal(err)
	}
	if explicit.Fingerprint != base.Fingerprint || explicit.PF.PF != base.PF.PF {
		t.Fatalf("explicit calibrated pitch diverged: %+v vs %+v", explicit, base)
	}
	// Sparser growth (larger mean pitch) means fewer CNTs per device:
	// failure probability must rise.
	sparse, err := s.Evaluate(ctx, Spec{Kind: KindPF, WidthNM: 155, PitchMeanNM: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !(sparse.PF.PF > 10*base.PF.PF) {
		t.Fatalf("8 nm-pitch pF %g should dwarf 4 nm-pitch pF %g", sparse.PF.PF, base.PF.PF)
	}
	// Density variation, not mean density, sets the yield floor (the
	// ext-pitch ablation): a nearly deterministic pitch at the same mean
	// must do far better than the calibrated σ/µ = 2.3.
	tight, err := s.Evaluate(ctx, Spec{Kind: KindPF, WidthNM: 155, PitchSigmaRatio: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if !(tight.PF.PF < base.PF.PF/10) {
		t.Fatalf("low-variance pitch pF %g should beat calibrated %g", tight.PF.PF, base.PF.PF)
	}
	// And the pitch mean works as a sweep axis next to the circuit knobs.
	sweep := Spec{Kind: KindPF, WidthNM: 155, Sweep: &Sweep{
		Corners: []string{"worst", "mid"}, PitchMeansNM: []float64{4, 6},
	}}
	results, err := s.EvaluateAll(ctx, sweep)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 4 {
		t.Fatalf("results = %d, want 4", len(results))
	}
	if results[0].Spec.PitchMeanNM != 0 || results[1].Spec.PitchMeanNM != 6 {
		t.Fatalf("pitch axis order: %+v, %+v", results[0].Spec, results[1].Spec)
	}
}

func TestEvaluateRejectsSweep(t *testing.T) {
	s := newTestSession(t, Options{})
	_, err := s.Evaluate(context.Background(),
		Spec{Kind: KindPF, WidthNM: 155, Sweep: &Sweep{Corners: []string{"worst", "best"}}})
	if err == nil {
		t.Fatal("sweep spec accepted by Evaluate")
	}
}

func TestEvaluateAllDeterministicOrder(t *testing.T) {
	spec := Spec{Kind: KindPF, WidthNM: 155, Sweep: &Sweep{
		Corners:  []string{"worst", "mid", "best"},
		WidthsNM: []float64{103, 155, 200},
	}}
	// Two sessions with different worker counts must produce identical
	// result slices (same order, same numbers).
	s1 := newWorkerSession(t, 1)
	s4 := newWorkerSession(t, 4)
	r1, err := s1.EvaluateAll(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	r4, err := s4.EvaluateAll(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(r1) != 9 || len(r4) != 9 {
		t.Fatalf("lengths %d, %d", len(r1), len(r4))
	}
	if !reflect.DeepEqual(r1, r4) {
		t.Fatal("worker count changed sweep results")
	}
	// Order: corners slowest, widths fastest.
	if r1[0].PF.Corner != "worst" || r1[0].PF.WidthNM != 103 {
		t.Fatalf("r1[0] = %+v", r1[0].PF)
	}
	if r1[8].PF.Corner != "best" || r1[8].PF.WidthNM != 200 {
		t.Fatalf("r1[8] = %+v", r1[8].PF)
	}
	// One pitch law, one grid: all 9 specs share a single swept model. The
	// model extends its table incrementally per width horizon, so up to one
	// sweep per distinct width — never one per (corner, width) pair.
	if st := s4.Cache().Stats(); st.Entries != 1 || st.Sweeps == 0 || st.Sweeps > 3 {
		t.Fatalf("cache stats = %+v, want one shared model with ≤ 3 sweeps", st)
	}
}

func TestEvaluateAllProgressPrefixOrder(t *testing.T) {
	spec := Spec{Kind: KindPF, WidthNM: 155, Sweep: &Sweep{WidthsNM: []float64{50, 100, 150, 200}}}
	s := newWorkerSession(t, 4)
	var mu sync.Mutex
	var dones []int
	var widths []float64
	results, err := s.EvaluateAllFunc(context.Background(), spec, func(done, total int, r Result) {
		mu.Lock()
		defer mu.Unlock()
		if total != 4 {
			t.Errorf("total = %d", total)
		}
		dones = append(dones, done)
		widths = append(widths, r.PF.WidthNM)
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 4 {
		t.Fatalf("results = %d", len(results))
	}
	if !reflect.DeepEqual(dones, []int{1, 2, 3, 4}) {
		t.Fatalf("progress dones = %v, want consecutive prefix", dones)
	}
	if !reflect.DeepEqual(widths, []float64{50, 100, 150, 200}) {
		t.Fatalf("progress widths = %v, want expansion order", widths)
	}
}

// TestEvaluateAllAbortedProgressNeverReturns stops the collector goroutine
// inside a progress callback — runtime.Goexit unwinds it the way a panic
// does, minus the process exit — and requires EvaluateAllFunc to stay
// blocked rather than return the partial prefix as a finished sweep. (In
// production the panic ends the process; here the blocked call is left
// behind on purpose.)
func TestEvaluateAllAbortedProgressNeverReturns(t *testing.T) {
	spec := Spec{Kind: KindPF, WidthNM: 155, Sweep: &Sweep{WidthsNM: []float64{50, 100, 150}}}
	s := newWorkerSession(t, 2)
	returned := make(chan int, 1)
	go func() {
		results, _ := s.EvaluateAllFunc(context.Background(), spec, func(done, total int, r Result) {
			if done == 2 {
				runtime.Goexit()
			}
		})
		returned <- len(results)
	}()
	select {
	case n := <-returned:
		t.Fatalf("EvaluateAllFunc returned %d results after its progress callback aborted", n)
	case <-time.After(300 * time.Millisecond):
	}
}

func TestEvaluateAllFirstErrorWins(t *testing.T) {
	// Width 300 exceeds the 200 nm test grid: specs 2 and 4 fail; the
	// error must name the earliest (index 2, 1-based).
	spec := Spec{Kind: KindPF, WidthNM: 155, Sweep: &Sweep{WidthsNM: []float64{100, 300, 150, 300}}}
	s := newWorkerSession(t, 4)
	_, err := s.EvaluateAll(context.Background(), spec)
	if err == nil {
		t.Fatal("invalid sweep succeeded")
	}
	var want = "spec 2/4"
	if got := err.Error(); !strings.Contains(got, want) {
		t.Fatalf("error %q should name %s", got, want)
	}
}

func TestEvaluateAllContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s := newTestSession(t, Options{})
	_, err := s.EvaluateAll(ctx, Spec{Kind: KindPF, WidthNM: 155, Sweep: &Sweep{WidthsNM: []float64{100, 150}}})
	if err == nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestSessionCheckpointPersists(t *testing.T) {
	dir := t.TempDir()
	store, err := sweepstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s1 := newTestSession(t, Options{Store: store})
	if _, err := s1.Evaluate(context.Background(), Spec{Kind: KindPF, WidthNM: 155}); err != nil {
		t.Fatal(err)
	}
	s1.Checkpoint()
	if s1.LastPersistError() != "" {
		t.Fatalf("persist error: %s", s1.LastPersistError())
	}
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	// A fresh session over the same store answers without sweeping.
	store2, err := sweepstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s2 := newTestSession(t, Options{Store: store2})
	res, err := s2.Evaluate(context.Background(), Spec{Kind: KindPF, WidthNM: 155})
	if err != nil {
		t.Fatal(err)
	}
	if st := s2.Cache().Stats(); st.Sweeps != 0 {
		t.Fatalf("warm session ran %d sweeps, want 0", st.Sweeps)
	}
	first, err := s1.Evaluate(context.Background(), Spec{Kind: KindPF, WidthNM: 155})
	if err != nil {
		t.Fatal(err)
	}
	if res.PF.PF != first.PF.PF {
		t.Fatalf("warm pF %g != cold pF %g", res.PF.PF, first.PF.PF)
	}
}

// TestCheckpointPersistsAfterEviction sweeps a second law after the first
// was checkpointed and evicted from a one-entry cache: the sweep total must
// still grow, so Checkpoint sees the new table and writes it.
func TestCheckpointPersistsAfterEviction(t *testing.T) {
	store, err := sweepstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s := newTestSession(t, Options{Store: store})
	s.Cache().SetMaxEntries(1)
	ctx := context.Background()
	if _, err := s.Evaluate(ctx, Spec{Kind: KindPF, WidthNM: 155}); err != nil {
		t.Fatal(err)
	}
	s.Checkpoint()
	res, err := s.Evaluate(ctx, Spec{Kind: KindPF, WidthNM: 155, PitchMeanNM: 3.5})
	if err != nil {
		t.Fatal(err)
	}
	s.Checkpoint()
	if msg := s.LastPersistError(); msg != "" {
		t.Fatalf("persist error: %s", msg)
	}
	if st := s.Cache().Stats(); st.Evictions != 1 || st.Sweeps != 2 {
		t.Fatalf("cache stats = %+v, want 1 eviction and 2 sweeps", st)
	}
	pitch, err := s.pitchLaw(res.Spec)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := store.LoadAll()
	if err != nil {
		t.Fatal(err)
	}
	var fps []string
	for _, rec := range recs {
		fps = append(fps, rec.Fingerprint)
	}
	if want := pitch.Fingerprint(); !slices.Contains(fps, want) {
		t.Fatalf("store holds %q, missing the second law %q", fps, want)
	}
}

func TestEvaluateExperiment(t *testing.T) {
	s := newTestSession(t, Options{})
	res, err := s.Evaluate(context.Background(),
		Spec{Kind: KindExperiment, Experiments: []string{"fig2.2a", "ext-pitch"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Experiments) != 2 || res.Experiments[0].Name != "fig2.2a" || res.Experiments[1].Name != "ext-pitch" {
		t.Fatalf("experiments = %+v", res.Experiments)
	}
	if res.Experiments[0].Table == nil || len(res.Experiments[0].Table.Rows) == 0 {
		t.Fatal("missing table")
	}
}

// TestCheckpointsNeverReadStore runs a store-backed 12-law pF sweep with a
// never-firing failpoint armed on store.load, so the site counts every
// record read: the checkpoints the sweep takes as it goes must write each
// new table without reading a single store file.
func TestCheckpointsNeverReadStore(t *testing.T) {
	fault.Reset()
	t.Cleanup(fault.Reset)
	store, err := sweepstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s := newTestSession(t, Options{Store: store})
	if err := fault.Enable(fault.SiteStoreLoad, "error(x)@nth=1000000000"); err != nil {
		t.Fatal(err)
	}
	means := []float64{3, 3.2, 3.4, 3.6, 3.8, 4, 4.2, 4.4, 4.6, 4.8, 5, 5.2}
	res, err := s.EvaluateAll(context.Background(),
		Spec{Kind: KindPF, WidthNM: 155, Sweep: &Sweep{PitchMeansNM: means}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != len(means) {
		t.Fatalf("sweep returned %d results, want %d", len(res), len(means))
	}
	var loads uint64
	for _, st := range fault.Stats() {
		if st.Site == fault.SiteStoreLoad {
			loads = st.Calls
		}
	}
	if loads != 0 {
		t.Fatalf("checkpoints read %d store files, want 0", loads)
	}
	if st := store.Stats(); st.Saves != uint64(len(means)) {
		t.Fatalf("store saved %d records, want %d", st.Saves, len(means))
	}
	if msg := s.LastPersistError(); msg != "" {
		t.Fatalf("persist error: %s", msg)
	}
}

// TestWarmSessionCloseWritesNothing warms a session from a store, queries
// it and closes it: every table it served came from the store, so Close
// must write no record.
func TestWarmSessionCloseWritesNothing(t *testing.T) {
	dir := t.TempDir()
	store, err := sweepstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	spec := Spec{Kind: KindPF, WidthNM: 155}
	cold := newTestSession(t, Options{Store: store})
	if _, err := cold.Evaluate(context.Background(), spec); err != nil {
		t.Fatal(err)
	}
	if err := cold.Close(); err != nil {
		t.Fatal(err)
	}
	if st := store.Stats(); st.Saves != 1 {
		t.Fatalf("cold session saved %d records, want 1", st.Saves)
	}

	store2, err := sweepstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	warm := newTestSession(t, Options{Store: store2})
	if _, err := warm.Evaluate(context.Background(), spec); err != nil {
		t.Fatal(err)
	}
	if err := warm.Close(); err != nil {
		t.Fatal(err)
	}
	if st := store2.Stats(); st.Loads != 1 || st.Saves != 0 {
		t.Fatalf("warm session store stats = %+v, want 1 load and 0 saves", st)
	}
}

func TestPlanCarriesCanonicalIdentity(t *testing.T) {
	q := Spec{Kind: KindPF, WidthNM: 155, Corner: "pm=33%, pRs=30%",
		Sweep: &Sweep{WidthsNM: []float64{100, 150}}}
	canon, fp, err := q.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	p, err := q.Plan()
	if err != nil {
		t.Fatal(err)
	}
	if p.Fingerprint() != fp || !reflect.DeepEqual(p.Spec(), canon) || p.ExpandCount() != 2 {
		t.Fatalf("plan = (%+v, %s, %d), want (%+v, %s, 2)", p.Spec(), p.Fingerprint(), p.ExpandCount(), canon, fp)
	}
	// The plan shares no memory with the spec it came from or the copies it
	// hands out: neither can change what it runs under its fingerprint.
	q.Sweep.WidthsNM[0] = 190
	p.Spec().Sweep.WidthsNM[1] = 180
	results, err := newTestSession(t, Options{}).Run(context.Background(), p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if results[0].PF.WidthNM != 100 || results[1].PF.WidthNM != 150 {
		t.Fatalf("plan ran widths %g, %g; want 100, 150", results[0].PF.WidthNM, results[1].PF.WidthNM)
	}
	if _, err := (Spec{Kind: "pff"}).Plan(); !IsRequestError(err) {
		t.Fatalf("invalid spec planned: err = %v", err)
	}
}

func TestRunRejectsZeroPlan(t *testing.T) {
	if _, err := newTestSession(t, Options{}).Run(context.Background(), Plan{}, nil); !IsRequestError(err) {
		t.Fatalf("zero plan: err = %v, want a request error", err)
	}
}

// TestRunProgressOnCaller pins where Run's work surfaces: every progress
// callback runs on the calling goroutine, even when helpers evaluate some
// of the specs, so a panic in one unwinds the caller (here recovered)
// instead of a goroutine nobody can recover on.
func TestRunProgressOnCaller(t *testing.T) {
	p, err := Spec{Kind: KindPF, WidthNM: 155, Sweep: &Sweep{WidthsNM: []float64{50, 100, 150, 200}}}.Plan()
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4} {
		s := newWorkerSession(t, workers)
		recovered := func() (r any) {
			defer func() { r = recover() }()
			_, _ = s.Run(context.Background(), p, func(done, total int, r Result) {
				if done == 3 {
					panic("progress 3")
				}
			})
			return nil
		}()
		if recovered != "progress 3" {
			t.Fatalf("workers %d: recovered %v on the caller, want the progress panic", workers, recovered)
		}
	}
}

// TestRunOneSpecInline pins the one-spec path: with workers to spare, a
// plan of one concrete spec still runs on the calling goroutine alone.
func TestRunOneSpecInline(t *testing.T) {
	s := newWorkerSession(t, 4)
	p, err := Spec{Kind: KindPF, WidthNM: 155}.Plan()
	if err != nil {
		t.Fatal(err)
	}
	ctx := newGoroutineCtx()
	if _, err := s.Run(ctx, p, nil); err != nil {
		t.Fatal(err)
	}
	ctx.assertOnly(t, goroutineID())
}

// TestRunWorkersFromParams pins the pool bound: Params.Workers bounds Run,
// so a session at one worker evaluates a multi-spec plan on the calling
// goroutine alone.
func TestRunWorkersFromParams(t *testing.T) {
	s := newWorkerSession(t, 1)
	p, err := Spec{Kind: KindPF, WidthNM: 155, Sweep: &Sweep{WidthsNM: []float64{50, 100, 150, 200}}}.Plan()
	if err != nil {
		t.Fatal(err)
	}
	ctx := newGoroutineCtx()
	if _, err := s.Run(ctx, p, nil); err != nil {
		t.Fatal(err)
	}
	ctx.assertOnly(t, goroutineID())
}

// goroutineCtx is a context that is never done and records the goroutine
// of every Err call. ordered.Run asks for the error before each claim, on
// the caller and on every helper it starts, and waits for its helpers, so
// after a Run the set names every goroutine that took part. Unlike a
// process-wide goroutine count, it does not see goroutines of other tests.
type goroutineCtx struct {
	context.Context
	mu  sync.Mutex
	ids map[string]bool
}

func newGoroutineCtx() *goroutineCtx {
	return &goroutineCtx{Context: context.Background(), ids: make(map[string]bool)}
}

func (c *goroutineCtx) Err() error {
	id := goroutineID()
	c.mu.Lock()
	c.ids[id] = true
	c.mu.Unlock()
	return nil
}

// assertOnly fails unless the caller's goroutine alone asked for the error.
func (c *goroutineCtx) assertOnly(t *testing.T, caller string) {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.ids) != 1 || !c.ids[caller] {
		t.Fatalf("Run's work ran on goroutines %v, want only the caller's %s", slices.Sorted(maps.Keys(c.ids)), caller)
	}
}

// goroutineID returns the running goroutine's number from the header line
// of its stack trace ("goroutine 7 [running]:").
func goroutineID() string {
	var buf [64]byte
	return strings.Fields(string(buf[:runtime.Stack(buf[:], false)]))[1]
}

// TestRunResumedPlan pins Plan.Resume: the resumed plan keeps its canonical
// identity, Run evaluates only the suffix — with the numbers of a full run,
// absolute progress and absolute spec numbers in its errors — and a prefix
// beyond the expansion is a request error.
func TestRunResumedPlan(t *testing.T) {
	s := newWorkerSession(t, 2)
	ctx := context.Background()
	p, err := Spec{Kind: KindPF, WidthNM: 155, Sweep: &Sweep{WidthsNM: []float64{50, 100, 150, 200}}}.Plan()
	if err != nil {
		t.Fatal(err)
	}
	full, err := s.Run(ctx, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	r, err := p.Resume(1)
	if err != nil {
		t.Fatal(err)
	}
	if r.Fingerprint() != p.Fingerprint() || !reflect.DeepEqual(r.Spec(), p.Spec()) || r.ExpandCount() != 4 {
		t.Fatalf("resumed plan = (%+v, %s), want the plan's identity", r.Spec(), r.Fingerprint())
	}
	var progress [][2]int
	suffix, err := s.Run(ctx, r, func(done, total int, _ Result) {
		progress = append(progress, [2]int{done, total})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(suffix, full[1:]) {
		t.Fatalf("resumed results = %+v, want the full run's suffix %+v", suffix, full[1:])
	}
	if want := [][2]int{{2, 4}, {3, 4}, {4, 4}}; !reflect.DeepEqual(progress, want) {
		t.Fatalf("resumed progress = %v, want %v", progress, want)
	}
	if done, err := p.Resume(4); err != nil {
		t.Fatal(err)
	} else if rest, err := s.Run(ctx, done, nil); err != nil || len(rest) != 0 {
		t.Fatalf("fully resumed plan ran (%v, %v), want nothing", rest, err)
	}
	for _, done := range []int{-1, 5} {
		if _, err := p.Resume(done); !IsRequestError(err) {
			t.Fatalf("Resume(%d): err = %v, want a request error", done, err)
		}
	}

	bad, err := Spec{Kind: KindPF, WidthNM: 155, Sweep: &Sweep{WidthsNM: []float64{100, 150, 300}}}.Plan()
	if err != nil {
		t.Fatal(err)
	}
	if bad, err = bad.Resume(1); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(ctx, bad, nil); err == nil || !strings.HasPrefix(err.Error(), "query: spec 3/3: ") {
		t.Fatalf("resumed sweep error = %v, want it to name spec 3/3", err)
	}
}
