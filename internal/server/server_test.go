package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/cnfet/yieldlab/internal/experiments"
	"github.com/cnfet/yieldlab/internal/sweepstore"
)

// testParams keeps sweeps and Monte Carlo cheap for the endpoint suite.
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

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if (cfg.Params == experiments.Params{}) {
		cfg.Params = testParams()
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		if err := srv.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	})
	return srv, ts
}

// getJSON fetches a URL and decodes the response, returning the status.
func getJSON(t *testing.T, url string, dst any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if dst != nil {
		if err := json.Unmarshal(body, dst); err != nil {
			t.Fatalf("decoding %s: %v\nbody: %s", url, err, body)
		}
	}
	return resp.StatusCode
}

func postJSON(t *testing.T, url string, payload, dst any) int {
	t.Helper()
	data, err := json.Marshal(payload)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if dst != nil {
		if err := json.Unmarshal(body, dst); err != nil {
			t.Fatalf("decoding %s: %v\nbody: %s", url, err, body)
		}
	}
	return resp.StatusCode
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var out map[string]string
	if code := getJSON(t, ts.URL+"/healthz", &out); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if out["status"] != "ok" {
		t.Fatalf("status = %q", out["status"])
	}
}

func TestCorners(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var out struct {
		Corners []CornerJSON `json:"corners"`
	}
	if code := getJSON(t, ts.URL+"/v1/corners", &out); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if len(out.Corners) != 3 || out.Corners[0].Name != "worst" {
		t.Fatalf("corners = %+v", out.Corners)
	}
	if pf := out.Corners[0].PF; pf < 0.53 || pf > 0.54 {
		t.Fatalf("worst-corner pf = %g, want ≈ 0.531", pf)
	}
}

func TestPFAnchor(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var out PFJSON
	if code := getJSON(t, ts.URL+"/v1/pf?width=155&corner=worst", &out); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	// The Fig. 2.1 anchor: pF(155 nm) = 3.0e-9 within the paper's 2× band.
	if out.PF < 1.5e-9 || out.PF > 6e-9 {
		t.Fatalf("pF(155) = %g, want ≈ 3e-9", out.PF)
	}
	if out.Corner != "worst" || out.WidthNM != 155 {
		t.Fatalf("echo = %+v", out)
	}
}

func TestPFValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, q := range []string{
		"",                                      // missing width
		"width=-5",                              // negative
		"width=nan",                             // not a number
		"width=1e9",                             // beyond grid
		"width=100&corner=oops",                 // unknown corner
		"width=100&corner=worst&pm=0.3&prs=0.1", // both corner and pm/prs
		"width=100&pm=2&prs=0",                  // pm out of [0,1]
	} {
		var out ErrorJSON
		if code := getJSON(t, ts.URL+"/v1/pf?"+q, &out); code != http.StatusBadRequest {
			t.Errorf("query %q: status %d, want 400", q, code)
		} else if out.Error.Message == "" || out.Error.Code != "bad_request" {
			t.Errorf("query %q: bad error envelope %+v", q, out)
		}
	}
}

func TestPFExplicitParams(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var custom, worst PFJSON
	if code := getJSON(t, ts.URL+"/v1/pf?width=155&pm=0.33&prs=0.30", &custom); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if code := getJSON(t, ts.URL+"/v1/pf?width=155&corner=worst", &worst); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if custom.PF != worst.PF {
		t.Fatalf("explicit pm/prs of the worst corner gave pF %g, corner name gave %g", custom.PF, worst.PF)
	}
}

// Each batch point is its own pf spec: its result is byte-equal to the
// /v1/pf body of the same point.
func TestPFBatch(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	points := []struct {
		v1    string
		point map[string]any
	}{
		{"width=155&corner=worst", map[string]any{"width_nm": 155.0, "corner": "worst"}},
		{"width=103&corner=worst", map[string]any{"width_nm": 103.0, "corner": "worst"}},
		{"width=155&corner=best", map[string]any{"width_nm": 155.0, "corner": "best"}},
		{"width=155", map[string]any{"width_nm": 155.0}}, // default corner = worst
		{"width=120&pm=0.25&prs=0.125", map[string]any{"width_nm": 120.0, "pm": 0.25, "prs": 0.125}},
	}
	pts := make([]map[string]any, len(points))
	for i, p := range points {
		pts[i] = p.point
	}
	var raw struct {
		Results []json.RawMessage `json:"results"`
	}
	if code := postJSON(t, ts.URL+"/v1/pf/batch", map[string]any{"points": pts}, &raw); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if len(raw.Results) != len(points) {
		t.Fatalf("%d results", len(raw.Results))
	}
	pfs := make([]PFJSON, len(points))
	for i, p := range points {
		code, body, _ := getBody(t, ts.URL+"/v1/pf?"+p.v1, nil)
		if code != http.StatusOK {
			t.Fatalf("/v1/pf?%s: status %d", p.v1, code)
		}
		if got, want := compact(t, raw.Results[i]), compact(t, body); got != want {
			t.Errorf("point %d differs from /v1/pf?%s\nbatch: %s\n/v1:   %s", i, p.v1, got, want)
		}
		if err := json.Unmarshal(raw.Results[i], &pfs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if pfs[0].PF == 0 || pfs[0].PF != pfs[3].PF {
		t.Fatalf("order not preserved: %+v", pfs)
	}
	if !(pfs[1].PF > pfs[0].PF) {
		t.Fatalf("pF(103) %g should exceed pF(155) %g", pfs[1].PF, pfs[0].PF)
	}
	if !(pfs[2].PF < pfs[0].PF) {
		t.Fatalf("best corner %g should beat worst %g", pfs[2].PF, pfs[0].PF)
	}
	// All three corners share one pitch law: exactly one model sweep ran.
	if st := srv.Session().Cache().Stats(); st.Entries != 1 {
		t.Fatalf("cache entries = %d, want 1 (corners share the count model)", st.Entries)
	}

	// Validation: empty, over limit, unknown field, bad point.
	if code := postJSON(t, ts.URL+"/v1/pf/batch", map[string]any{"points": []any{}}, nil); code != http.StatusBadRequest {
		t.Errorf("empty batch: status %d", code)
	}
	if code := postJSON(t, ts.URL+"/v1/pf/batch", map[string]any{"nope": 1}, nil); code != http.StatusBadRequest {
		t.Errorf("unknown field: status %d", code)
	}
	bad := map[string]any{"points": []map[string]any{{"width_nm": -3.0}}}
	if code := postJSON(t, ts.URL+"/v1/pf/batch", bad, nil); code != http.StatusBadRequest {
		t.Errorf("bad width: status %d", code)
	}
}

// TestBatchLimit posts one point more than BatchLimit: the batch is
// refused before any point is planned.
func TestBatchLimit(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	points := make([]map[string]any, BatchLimit+1)
	for i := range points {
		points[i] = map[string]any{"width_nm": 10.0 + float64(i%100)}
	}
	var out ErrorJSON
	if code := postJSON(t, ts.URL+"/v1/pf/batch", map[string]any{"points": points}, &out); code != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", code)
	}
	if want := fmt.Sprintf("batch of %d points exceeds limit %d", BatchLimit+1, BatchLimit); out.Error.Message != want {
		t.Fatalf("error = %q, want %q", out.Error.Message, want)
	}
}

func TestWmin(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var base, relaxed WminJSON
	if code := getJSON(t, ts.URL+"/v1/wmin?corner=worst&relax=1", &base); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	// Paper: Wmin ≈ 155 nm uncorrelated.
	if base.WminNM < 140 || base.WminNM > 170 {
		t.Fatalf("Wmin = %g, want ≈ 155", base.WminNM)
	}
	if code := getJSON(t, ts.URL+"/v1/wmin?corner=worst&relax=360", &relaxed); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if !(relaxed.WminNM < base.WminNM) {
		t.Fatalf("relaxed Wmin %g should beat base %g", relaxed.WminNM, base.WminNM)
	}
	if code := getJSON(t, ts.URL+"/v1/wmin?yield=1.5", nil); code != http.StatusBadRequest {
		t.Fatalf("bad yield: status %d", code)
	}
}

func TestRowYield(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var unc, al RowYieldJSON
	if code := getJSON(t, ts.URL+"/v1/rowyield?scenario=uncorrelated&width=155&krows=1000", &unc); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if code := getJSON(t, ts.URL+"/v1/rowyield?scenario=aligned&width=155", &al); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	// Aligned: pRF = pF exactly; uncorrelated ≈ MRmin×pF ≫ pF.
	if al.PRF != al.DevicePF {
		t.Fatalf("aligned pRF %g != pF %g", al.PRF, al.DevicePF)
	}
	if !(unc.PRF > 100*al.PRF) {
		t.Fatalf("uncorrelated pRF %g should dwarf aligned %g", unc.PRF, al.PRF)
	}
	if unc.MRmin < 350 || unc.MRmin > 370 {
		t.Fatalf("MRmin = %g, want ≈ 360", unc.MRmin)
	}
	if unc.ChipYield <= 0 || unc.ChipYield >= 1 {
		t.Fatalf("chip yield = %g", unc.ChipYield)
	}
	if code := getJSON(t, ts.URL+"/v1/rowyield?scenario=sideways&width=155", nil); code != http.StatusBadRequest {
		t.Fatalf("unknown scenario: status %d", code)
	}
	if code := getJSON(t, ts.URL+"/v1/rowyield?scenario=unaligned&width=155&rounds=999999999", nil); code != http.StatusBadRequest {
		t.Fatalf("rounds over cap: status %d", code)
	}
}

func TestRowYieldUnaligned(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the placed design")
	}
	_, ts := newTestServer(t, Config{})
	var out RowYieldJSON
	code := getJSON(t, ts.URL+"/v1/rowyield?scenario=unaligned&width=120&rounds=50", &out)
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if out.Rounds != 50 || out.StdErr == 0 {
		t.Fatalf("estimate = %+v, want Monte Carlo metadata", out)
	}
	// Partial track sharing sits between independent and fully shared.
	if !(out.PRF >= out.DevicePF) {
		t.Fatalf("unaligned pRF %g below aligned bound %g", out.PRF, out.DevicePF)
	}
}

func TestJobLifecycle(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var job JobJSON
	req := ExperimentRequestJSON{Experiments: []string{"ext-pitch", "fig2.2a"}}
	if code := postJSON(t, ts.URL+"/v1/experiments", req, &job); code != http.StatusAccepted {
		t.Fatalf("submit status %d", code)
	}
	if job.ID == "" || (job.State != JobQueued && job.State != JobRunning) {
		t.Fatalf("job = %+v", job)
	}
	deadline := time.Now().Add(2 * time.Minute)
	for {
		if code := getJSON(t, ts.URL+"/v1/jobs/"+job.ID, &job); code != http.StatusOK {
			t.Fatalf("poll status %d", code)
		}
		if job.State == JobDone || job.State == JobFailed {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %q", job.State)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if job.State != JobDone {
		t.Fatalf("job failed: %s", job.Error)
	}
	// An experiments job is an experiment-kind query job: one spec, whose
	// result carries the artifacts in request order.
	if job.Kind != JobKindQuery || job.Query == nil || job.Query.Kind != "experiment" || len(job.QueryResults) != 1 {
		t.Fatalf("job = %+v", job)
	}
	results := job.QueryResults[0].Experiments
	if len(results) != 2 || results[0].Name != "ext-pitch" || results[1].Name != "fig2.2a" {
		t.Fatalf("results = %d entries", len(results))
	}
	if results[0].Table == nil || len(results[0].Table.Rows) == 0 {
		t.Fatal("missing table in job result")
	}
	if job.StartedAt == nil || job.FinishedAt == nil {
		t.Fatal("missing timestamps")
	}

	// Unknown job id.
	if code := getJSON(t, ts.URL+"/v1/jobs/job-999", nil); code != http.StatusNotFound {
		t.Fatalf("unknown job: status %d", code)
	}
}

func TestJobValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var out ErrorJSON
	req := ExperimentRequestJSON{Experiments: []string{"tabel1"}}
	if code := postJSON(t, ts.URL+"/v1/experiments", req, &out); code != http.StatusBadRequest {
		t.Fatalf("typo: status %d", code)
	}
	if !strings.Contains(out.Error.Message, `did you mean "table1"`) {
		t.Fatalf("error = %q, want did-you-mean hint", out.Error.Message)
	}
	if code := postJSON(t, ts.URL+"/v1/experiments", ExperimentRequestJSON{}, nil); code != http.StatusBadRequest {
		t.Fatalf("empty: status %d", code)
	}
	// The request is {experiments, seed}: parameter overrides are unknown
	// fields.
	bad := map[string]any{"experiments": []string{"fig2.2a"}, "rounds": 1}
	if code := postJSON(t, ts.URL+"/v1/experiments", bad, &out); code != http.StatusBadRequest {
		t.Fatalf("override: status %d", code)
	}
}

// Open (queued/running) jobs are bounded: beyond MaxJobs the submit is
// refused with 503 instead of growing the queue without limit.
func TestJobAdmissionBound(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxJobs: 1})
	var first JobJSON
	if code := postJSON(t, ts.URL+"/v1/experiments",
		ExperimentRequestJSON{Experiments: []string{"table1"}}, &first); code != http.StatusAccepted {
		t.Fatalf("first submit: status %d", code)
	}
	var out ErrorJSON
	code := postJSON(t, ts.URL+"/v1/experiments",
		ExperimentRequestJSON{Experiments: []string{"fig2.2a"}}, &out)
	var poll JobJSON
	getJSON(t, ts.URL+"/v1/jobs/"+first.ID, &poll)
	if poll.State == JobDone || poll.State == JobFailed {
		t.Skipf("first job finished before the second submit; bound not observable")
	}
	if code != http.StatusServiceUnavailable {
		t.Fatalf("second submit: status %d, want 503", code)
	}
	if !strings.Contains(out.Error.Message, "full") {
		t.Fatalf("error = %q", out.Error.Message)
	}
}

// krows only scales the shared closed form: two queries differing in krows
// alone must report their own krows/chip_yield.
func TestRowYieldKRowsPerCaller(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var a, b RowYieldJSON
	if code := getJSON(t, ts.URL+"/v1/rowyield?scenario=aligned&width=155&krows=1000", &a); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if code := getJSON(t, ts.URL+"/v1/rowyield?scenario=aligned&width=155&krows=2000", &b); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if a.KRows != 1000 || b.KRows != 2000 {
		t.Fatalf("krows echo: %g, %g", a.KRows, b.KRows)
	}
	if a.PRF != b.PRF {
		t.Fatalf("pRF should be shared: %g vs %g", a.PRF, b.PRF)
	}
	if !(b.ChipYield < a.ChipYield) {
		t.Fatalf("more rows must mean lower yield: %g vs %g", b.ChipYield, a.ChipYield)
	}
}

func TestStats(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	if code := getJSON(t, ts.URL+"/v1/pf?width=155", nil); code != http.StatusOK {
		t.Fatalf("warm query failed: %d", code)
	}
	var out StatsJSON
	if code := getJSON(t, ts.URL+"/v1/stats", &out); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if out.SweepCache.Entries != 1 || out.SweepCache.Sweeps == 0 {
		t.Fatalf("sweep cache stats = %+v", out.SweepCache)
	}
	if out.Jobs[JobQueued] != 0 || out.Jobs[JobRunning] != 0 {
		t.Fatalf("jobs = %+v", out.Jobs)
	}
	_ = srv
}

// The acceptance criterion: a cold server start over a warm sweep store
// answers a pF query without re-running any renewal sweep.
func TestWarmStartAnswersWithoutSweeping(t *testing.T) {
	dir := t.TempDir()
	store, err := sweepstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}

	// First server: cold, computes the sweep, persists on query.
	srv1, ts1 := newTestServer(t, Config{Store: store})
	var first PFJSON
	if code := getJSON(t, ts1.URL+"/v1/pf?width=155&corner=worst", &first); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if st := srv1.Session().Cache().Stats(); st.Sweeps == 0 {
		t.Fatal("cold server should have swept")
	}
	if err := srv1.Close(); err != nil {
		t.Fatal(err)
	}

	// Second server: fresh process state, same store.
	store2, err := sweepstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	srv2, ts2 := newTestServer(t, Config{Store: store2})
	var again PFJSON
	if code := getJSON(t, ts2.URL+"/v1/pf?width=155&corner=worst", &again); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if again.PF != first.PF {
		t.Fatalf("warm pF %g != cold pF %g", again.PF, first.PF)
	}
	var stats StatsJSON
	if code := getJSON(t, ts2.URL+"/v1/stats", &stats); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if stats.SweepCache.Sweeps != 0 {
		t.Fatalf("warm server ran %d sweeps, want 0", stats.SweepCache.Sweeps)
	}
	if srv2.Session().Cache().Stats().Sweeps != 0 {
		t.Fatal("cache-level sweep count should also be 0")
	}
	if stats.Store == nil || stats.Store.Loads == 0 {
		t.Fatalf("store stats = %+v, want loads > 0", stats.Store)
	}
}

// Hammer identical and overlapping requests from many goroutines: the
// sweep must run exactly once per distinct model (concurrent cold requests
// wait on the model's one sweep), and everything stays race-clean.
func TestConcurrentRequestDedup(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	const goroutines = 24
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			corner := cornerNames[g%3]
			var out PFJSON
			resp, err := http.Get(fmt.Sprintf("%s/v1/pf?width=155&corner=%s", ts.URL, corner))
			if err != nil {
				errs <- err
				return
			}
			defer resp.Body.Close()
			if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
				errs <- err
				return
			}
			if resp.StatusCode != http.StatusOK || out.PF <= 0 {
				errs <- fmt.Errorf("corner %s: status %d pf %g", corner, resp.StatusCode, out.PF)
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// All corners share one pitch law and grid: one model, one sweep, no
	// matter how many concurrent cold requests raced.
	st := srv.Session().Cache().Stats()
	if st.Entries != 1 {
		t.Fatalf("entries = %d, want 1", st.Entries)
	}
	if st.Sweeps != 1 {
		t.Fatalf("sweeps = %d, want 1 (deduplicated)", st.Sweeps)
	}
}

func TestRowYieldRareEvent(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the placed design")
	}
	_, ts := newTestServer(t, Config{})
	var out RowYieldJSON
	code := getJSON(t, ts.URL+"/v1/rowyield?scenario=unaligned&width=120&mc_method=tilted&rel_err=0.2", &out)
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if out.MCMethod != "tilted" || out.TiltTheta == 0 {
		t.Fatalf("estimator echo missing: %+v", out)
	}
	if !(out.RelErr > 0) || out.RelErr > 0.2 {
		t.Fatalf("achieved rel err %g missed the 0.2 target: %+v", out.RelErr, out)
	}
	if out.Rounds <= 0 || !(out.PRF > 0) {
		t.Fatalf("estimate = %+v", out)
	}
	if code := getJSON(t, ts.URL+"/v1/rowyield?scenario=unaligned&width=120&mc_method=sideways", nil); code != http.StatusBadRequest {
		t.Fatalf("unknown method: status %d", code)
	}
	if code := getJSON(t, ts.URL+"/v1/rowyield?scenario=unaligned&width=120&rel_err=2", nil); code != http.StatusBadRequest {
		t.Fatalf("rel err out of range: status %d", code)
	}
	// Estimator knobs on a scenario that never runs Monte Carlo are inert
	// for the result but must not fail the request (canonicalization
	// drops them; the cached aligned entry is shared).
	var aligned RowYieldJSON
	if code := getJSON(t, ts.URL+"/v1/rowyield?scenario=aligned&width=155&mc_method=tilted", &aligned); code != http.StatusOK {
		t.Fatalf("aligned with estimator knobs: status %d", code)
	}
	if aligned.MCMethod != "" || aligned.Rounds != 0 {
		t.Fatalf("aligned result leaked estimator metadata: %+v", aligned)
	}
}
