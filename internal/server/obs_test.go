package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"github.com/cnfet/yieldlab/internal/obs"
	"github.com/cnfet/yieldlab/internal/query"
)

// Regression for the statusWriter Flusher mask: embedding http.ResponseWriter
// hides the underlying Flush, which silently broke streaming handlers behind
// the metrics middleware. The wrapper must stay flushable both via a direct
// type assertion and via http.ResponseController.
func TestStatusWriterKeepsFlusher(t *testing.T) {
	rec := httptest.NewRecorder()
	sw := &statusWriter{ResponseWriter: rec}
	f, ok := any(sw).(http.Flusher)
	if !ok {
		t.Fatal("statusWriter does not implement http.Flusher")
	}
	f.Flush()
	if !rec.Flushed {
		t.Fatal("Flush did not reach the underlying writer")
	}

	rec = httptest.NewRecorder()
	sw = &statusWriter{ResponseWriter: rec}
	if err := http.NewResponseController(sw).Flush(); err != nil {
		t.Fatalf("ResponseController.Flush: %v", err)
	}
	if !rec.Flushed {
		t.Fatal("ResponseController flush did not reach the underlying writer")
	}
}

// The whole middleware chain must keep handlers flushable end to end.
func TestHandlerChainFlushable(t *testing.T) {
	srv, _ := newTestServer(t, Config{})
	flushed := make(chan bool, 1)
	probe := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, ok := w.(http.Flusher)
		flushed <- ok
	})
	rec := httptest.NewRecorder()
	srv.withObs(probe).ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if !<-flushed {
		t.Fatal("handler behind withObs lost http.Flusher")
	}
}

func TestRequestIDHeader(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	_, _, hdr1 := getBody(t, ts.URL+"/healthz", nil)
	_, _, hdr2 := getBody(t, ts.URL+"/healthz", nil)
	id1, id2 := hdr1.Get("X-Request-ID"), hdr2.Get("X-Request-ID")
	if id1 == "" || id2 == "" {
		t.Fatalf("missing X-Request-ID: %q %q", id1, id2)
	}
	if id1 == id2 {
		t.Fatalf("request ids collide: %q", id1)
	}
}

func TestHealthzReportsBuildInfo(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var out map[string]string
	if code := getJSON(t, ts.URL+"/healthz", &out); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if out["status"] != "ok" {
		t.Fatalf("status = %q", out["status"])
	}
	if out["go_version"] == "" {
		t.Fatalf("healthz missing go_version: %v", out)
	}
	if out["version"] == "" {
		t.Fatalf("healthz missing version: %v", out)
	}
}

func TestSlowlogEndpoint(t *testing.T) {
	// Negative threshold = record every request, so the test is deterministic.
	_, ts := newTestServer(t, Config{SlowLogThreshold: -1, SlowLogEntries: 8})
	if code := getJSON(t, ts.URL+"/v1/pf?width=155", nil); code != http.StatusOK {
		t.Fatalf("pf status %d", code)
	}
	var out SlowLogJSON
	if code := getJSON(t, ts.URL+"/debug/slowlog", &out); code != http.StatusOK {
		t.Fatalf("slowlog status %d", code)
	}
	if out.Capacity != 8 || out.ThresholdMS != 0 {
		t.Fatalf("slowlog config echo: %+v", out)
	}
	if out.Observed < 1 || out.Recorded < 1 || len(out.Entries) < 1 {
		t.Fatalf("slowlog did not record: %+v", out)
	}
	var pf *obs.SlowEntry
	for i := range out.Entries {
		if out.Entries[i].Route == "/v1/pf" {
			pf = &out.Entries[i]
			break
		}
	}
	if pf == nil {
		t.Fatalf("no /v1/pf entry in %+v", out.Entries)
	}
	if pf.RequestID == "" || pf.Status != http.StatusOK || pf.DurationMS < 0 {
		t.Fatalf("pf entry = %+v", pf)
	}
	names := make(map[string]bool)
	for _, st := range pf.Stages {
		names[st.Name] = true
	}
	if !names["query.evaluate"] || !(names["sweep.cold"] || names["sweep.cache_hit"]) {
		t.Fatalf("pf entry stages = %+v", pf.Stages)
	}
	// The ring forgets the oldest entries rather than growing.
	for i := 0; i < 20; i++ {
		getJSON(t, ts.URL+"/healthz", nil)
	}
	getJSON(t, ts.URL+"/debug/slowlog", &out)
	if len(out.Entries) > 8 {
		t.Fatalf("ring exceeded capacity: %d entries", len(out.Entries))
	}
}

// ?debug=cost is the opt-in: without it /v2/query bodies carry no timings
// (so ETags stay stable); with it a cold rowyield evaluation reports its
// stage breakdown, and a repeat reports the sweep as a cache hit.
func TestV2QueryDebugCost(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	spec := query.Spec{Kind: "rowyield", Scenario: "unaligned", WidthNM: 155, Rounds: 2000}

	postCost := func() (query.Result, []byte) {
		data, err := json.Marshal(spec)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+"/v2/query?debug=cost", "application/json",
			strings.NewReader(string(data)))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out struct {
			Results []query.Result `json:"results"`
		}
		raw := json.NewDecoder(resp.Body)
		if err := raw.Decode(&out); err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK || len(out.Results) != 1 {
			t.Fatalf("status %d results %d", resp.StatusCode, len(out.Results))
		}
		return out.Results[0], data
	}

	cold, _ := postCost()
	if cold.Cost == nil {
		t.Fatal("debug=cost returned no breakdown")
	}
	if cold.Cost.SweepCacheHit {
		t.Fatalf("cold request reported cache hit: %+v", cold.Cost)
	}
	if cold.Cost.MCRounds == 0 || cold.Cost.MCMS <= 0 {
		t.Fatalf("MC stage missing: %+v", cold.Cost)
	}

	code, _, body := postV2(t, ts.URL, spec)
	if code != http.StatusOK {
		t.Fatalf("plain status %d", code)
	}
	if strings.Contains(string(body), `"cost"`) {
		t.Fatalf("undebugged body leaks cost: %s", body)
	}

	warm, _ := postCost()
	if warm.Cost == nil || !warm.Cost.SweepCacheHit {
		t.Fatalf("repeat request not a sweep cache hit: %+v", warm.Cost)
	}
	// Tracing and cache state never change the numbers.
	if warm.RowYield.PRF != cold.RowYield.PRF {
		t.Fatalf("repeat changed pRF: %g != %g", warm.RowYield.PRF, cold.RowYield.PRF)
	}
}

// TestSlowlogKeepsItsStages holds the slowlog to its copy rule: withObs
// flattens each request's stages into a pooled buffer, so an entry that
// kept that buffer would change when a later request reuses it. A
// record-all slowlog sees a long stage list (the design-space sweep, 24
// stages) and then a different, shorter one (a Monte Carlo row-yield
// query, whose third stage is mc.run); the first entry must read as it
// did when it was recorded. Rounds repeat because the race detector's
// sync.Pool drops some puts at random.
func TestSlowlogKeepsItsStages(t *testing.T) {
	srv, err := New(Config{Params: testParams(), SlowLogThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	h := srv.Handler()
	post := func(body string) obs.SlowEntry {
		t.Helper()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v2/query", strings.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
		return srv.slowlog.Entries()[0]
	}
	const mcBody = `{"kind":"rowyield","scenario":"unaligned","width_nm":142.7,"rounds":200}`
	for round := 0; round < 8; round++ {
		first := post(designSpaceBody)
		if len(first.Stages) != 24 {
			t.Fatalf("design-space entry has %d stages, want 24", len(first.Stages))
		}
		kept := slices.Clone(first.Stages)
		second := post(mcBody)
		if len(second.Stages) < 3 || second.Stages[2].Name != "mc.run" {
			t.Fatalf("row-yield stages = %+v", second.Stages)
		}
		if !slices.Equal(first.Stages, kept) {
			t.Fatalf("round %d: a later request rewrote a recorded entry's stages\n got: %+v\nwant: %+v", round, first.Stages, kept)
		}
		if entries := srv.slowlog.Entries(); !slices.Equal(entries[1].Stages, kept) {
			t.Fatalf("round %d: the ring's copy of the entry changed", round)
		}
	}
}
