package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/cnfet/yieldlab/internal/query"
)

// rawQueryResponse decodes /v2/query responses keeping payloads raw, so
// byte-level equivalence with /v1 responses can be asserted.
type rawQueryResponse struct {
	Fingerprint string `json:"fingerprint"`
	Count       int    `json:"count"`
	Results     []struct {
		Spec        json.RawMessage `json:"spec"`
		Fingerprint string          `json:"fingerprint"`
		PF          json.RawMessage `json:"pf"`
		Wmin        json.RawMessage `json:"wmin"`
		RowYield    json.RawMessage `json:"rowyield"`
		Noise       json.RawMessage `json:"noise"`
	} `json:"results"`
}

func f64(v float64) *float64 { return &v }

// compact normalizes JSON bytes for comparison.
func compact(t *testing.T, data []byte) string {
	t.Helper()
	var buf bytes.Buffer
	if err := json.Compact(&buf, data); err != nil {
		t.Fatalf("compacting %q: %v", data, err)
	}
	return buf.String()
}

// getBody fetches a URL and returns status, body and headers.
func getBody(t *testing.T, url string, hdr map[string]string) (int, []byte, http.Header) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body, resp.Header
}

func postV2(t *testing.T, ts string, spec any) (int, rawQueryResponse, []byte) {
	t.Helper()
	data, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts+"/v2/query", "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var out rawQueryResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(body, &out); err != nil {
			t.Fatalf("decoding /v2/query response: %v\nbody: %s", err, body)
		}
	}
	return resp.StatusCode, out, body
}

// Satellite acceptance: /v1 answers must be byte-identical to their
// /v2/query translations — one validation/evaluation/encoding path.
func TestV1V2Equivalence(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		name    string
		v1      string
		spec    query.Spec
		payload func(r rawQueryResponse) json.RawMessage
	}{
		{
			"pf", "/v1/pf?width=155&corner=worst",
			query.Spec{Kind: "pf", WidthNM: 155, Corner: "worst"},
			func(r rawQueryResponse) json.RawMessage { return r.Results[0].PF },
		},
		{
			// The width is the 45 nm reference; only the node-scaled width
			// (250·16/45 ≈ 89 nm) must fit the grid.
			"pf node-scaled width", "/v1/pf?width=250&node=16nm",
			query.Spec{Kind: "pf", WidthNM: 250, Node: "16nm"},
			func(r rawQueryResponse) json.RawMessage { return r.Results[0].PF },
		},
		{
			"pf explicit params", "/v1/pf?width=120&pm=0.25&prs=0.125",
			query.Spec{Kind: "pf", WidthNM: 120, PM: f64(0.25), PRS: f64(0.125)},
			func(r rawQueryResponse) json.RawMessage { return r.Results[0].PF },
		},
		{
			"wmin", "/v1/wmin?corner=worst&relax=1",
			query.Spec{Kind: "wmin", Corner: "worst", RelaxFactor: 1,
				M: testParams().M, DesiredYield: testParams().DesiredYield},
			func(r rawQueryResponse) json.RawMessage { return r.Results[0].Wmin },
		},
		{
			"rowyield aligned", "/v1/rowyield?scenario=aligned&width=155&krows=1000",
			query.Spec{Kind: "rowyield", Scenario: "aligned", WidthNM: 155, KRows: 1000,
				Rounds: DefaultRowRounds},
			func(r rawQueryResponse) json.RawMessage { return r.Results[0].RowYield },
		},
		{
			"rowyield unaligned", "/v1/rowyield?scenario=unaligned&width=155&rounds=100",
			query.Spec{Kind: "rowyield", Scenario: "unaligned", WidthNM: 155, Rounds: 100},
			func(r rawQueryResponse) json.RawMessage { return r.Results[0].RowYield },
		},
	}
	for _, tc := range cases {
		code, v1body, _ := getBody(t, ts.URL+tc.v1, nil)
		if code != http.StatusOK {
			t.Fatalf("%s: /v1 status %d\n%s", tc.name, code, v1body)
		}
		code, v2, _ := postV2(t, ts.URL, tc.spec)
		if code != http.StatusOK {
			t.Fatalf("%s: /v2 status %d", tc.name, code)
		}
		if v2.Count != 1 || len(v2.Results) != 1 {
			t.Fatalf("%s: /v2 count = %d", tc.name, v2.Count)
		}
		got := compact(t, tc.payload(v2))
		want := compact(t, v1body)
		if got != want {
			t.Errorf("%s: payloads differ\n/v1: %s\n/v2: %s", tc.name, want, got)
		}
	}
}

// The ISSUE acceptance criterion: one QuerySpec sweeping ≥ 2 corners × ≥ 2
// tech nodes × ≥ 2 yield targets evaluates identically through
// Session.EvaluateAll and POST /v2/query, with repeat queries answered
// from cache (no new sweeps in /v1/stats) and 304 on If-None-Match.
func TestDesignSpaceSweepAcceptance(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	spec := query.Spec{
		Kind: "wmin",
		Sweep: &query.Sweep{
			Corners: []string{"worst", "mid"},
			Nodes:   []string{"45nm", "22nm"},
			Yields:  []float64{0.90, 0.99},
		},
	}

	// Through the server.
	code, v2, body := postV2(t, ts.URL, spec)
	if code != http.StatusOK {
		t.Fatalf("/v2 status %d: %s", code, body)
	}
	if v2.Count != 8 || len(v2.Results) != 8 {
		t.Fatalf("count = %d, want 8 (2 corners × 2 nodes × 2 yields)", v2.Count)
	}

	// Through a separate Session over the same parameters: identical
	// results, element by element.
	session, err := query.NewSession(query.Options{Params: testParams()})
	if err != nil {
		t.Fatal(err)
	}
	direct, err := session.EvaluateAll(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(direct) != 8 {
		t.Fatalf("session results = %d", len(direct))
	}
	for i := range direct {
		wantJSON, err := json.Marshal(direct[i].Wmin)
		if err != nil {
			t.Fatal(err)
		}
		if got := compact(t, v2.Results[i].Wmin); got != string(wantJSON) {
			t.Errorf("result %d differs\nsession: %s\nserver:  %s", i, wantJSON, got)
		}
		if direct[i].Fingerprint != v2.Results[i].Fingerprint {
			t.Errorf("result %d fingerprint %s != %s", i, direct[i].Fingerprint, v2.Results[i].Fingerprint)
		}
	}

	// Repeat the sweep: the server must answer from its caches without a
	// single new renewal sweep.
	var stats StatsJSON
	if code := getJSON(t, ts.URL+"/v1/stats", &stats); code != http.StatusOK {
		t.Fatalf("stats status %d", code)
	}
	sweepsBefore := stats.SweepCache.Sweeps
	if sweepsBefore == 0 {
		t.Fatal("cold sweep computed nothing")
	}
	code, again, _ := postV2(t, ts.URL, spec)
	if code != http.StatusOK {
		t.Fatalf("repeat status %d", code)
	}
	for i := range v2.Results {
		if compact(t, again.Results[i].Wmin) != compact(t, v2.Results[i].Wmin) {
			t.Fatalf("repeat result %d changed", i)
		}
	}
	if code := getJSON(t, ts.URL+"/v1/stats", &stats); code != http.StatusOK {
		t.Fatalf("stats status %d", code)
	}
	if stats.SweepCache.Sweeps != sweepsBefore {
		t.Fatalf("repeat query swept: %d → %d", sweepsBefore, stats.SweepCache.Sweeps)
	}

	// And a deterministic GET revalidates with 304 via If-None-Match.
	code, body, hdr := getBody(t, ts.URL+"/v1/wmin?corner=worst&yield=0.99&node=22nm", nil)
	if code != http.StatusOK {
		t.Fatalf("wmin status %d: %s", code, body)
	}
	etag := hdr.Get("ETag")
	if etag == "" || hdr.Get("Cache-Control") == "" {
		t.Fatalf("missing caching headers: %v", hdr)
	}
	code, body, hdr = getBody(t, ts.URL+"/v1/wmin?corner=worst&yield=0.99&node=22nm",
		map[string]string{"If-None-Match": etag})
	if code != http.StatusNotModified {
		t.Fatalf("revalidation status %d, want 304 (body %s)", code, body)
	}
	if len(bytes.TrimSpace(body)) != 0 {
		t.Fatalf("304 carried a body: %s", body)
	}
	if hdr.Get("ETag") != etag {
		t.Fatalf("304 ETag %q != %q", hdr.Get("ETag"), etag)
	}
	_ = srv
}

// TestV2QuerySweepLimit sends a 3 × 1366 sweep, two specs over
// BatchLimit: it is refused before anything is expanded.
func TestV2QuerySweepLimit(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	widths := make([]float64, 1366)
	for i := range widths {
		widths[i] = 20 + 0.1*float64(i)
	}
	spec := query.Spec{Kind: "pf", WidthNM: 155, Sweep: &query.Sweep{
		Corners:  []string{"worst", "mid", "best"},
		WidthsNM: widths,
	}}
	code, _, body := postV2(t, ts.URL, spec)
	if code != http.StatusBadRequest || !strings.Contains(string(body), "sweep of 4098 specs exceeds limit 4096") {
		t.Fatalf("status %d body %s", code, body)
	}
}

func TestV2QueryValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for name, payload := range map[string]string{
		"unknown kind":  `{"kind": "pff", "width_nm": 100}`,
		"unknown field": `{"kind": "pf", "width_nm": 100, "widthnm": 1}`,
		"missing width": `{"kind": "pf"}`,
		"bad axis":      `{"kind": "pf", "width_nm": 100, "sweep": {"corners": ["oops"]}}`,
		"second value":  `{"kind":"pf","width_nm":155} {"kind":"wmin"}`,
		"trailing junk": `{"kind":"pf","width_nm":155}xyz`,
	} {
		resp, err := http.Post(ts.URL+"/v2/query", "application/json", strings.NewReader(payload))
		if err != nil {
			t.Fatal(err)
		}
		var envelope ErrorJSON
		err = json.NewDecoder(resp.Body).Decode(&envelope)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || err != nil {
			t.Errorf("%s: status %d, decode err %v", name, resp.StatusCode, err)
			continue
		}
		if envelope.Error.Code != "bad_request" || envelope.Error.Message == "" {
			t.Errorf("%s: envelope = %+v", name, envelope)
		}
	}
}

func TestV2QueryAsyncJob(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	data, err := json.Marshal(query.Spec{Kind: "pf", WidthNM: 155,
		Sweep: &query.Sweep{WidthsNM: []float64{100, 150, 200}}})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v2/query?async=1", "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	var job JobJSON
	if err := json.NewDecoder(resp.Body).Decode(&job); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d", resp.StatusCode)
	}
	if job.Kind != JobKindQuery || job.Query == nil || job.Total != 3 || job.Fingerprint == "" {
		t.Fatalf("job = %+v", job)
	}
	if loc := resp.Header.Get("Location"); loc != "/v1/jobs/"+job.ID {
		t.Fatalf("Location = %q", loc)
	}
	deadline := time.Now().Add(time.Minute)
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
		time.Sleep(10 * time.Millisecond)
	}
	if job.State != JobDone {
		t.Fatalf("job failed: %s", job.Error)
	}
	if job.Done != 3 || len(job.QueryResults) != 3 {
		t.Fatalf("done = %d, results = %d", job.Done, len(job.QueryResults))
	}
	// Checkpointed results arrive in expansion order.
	for i, want := range []float64{100, 150, 200} {
		if got := job.QueryResults[i].PF.WidthNM; got != want {
			t.Fatalf("result %d width = %g, want %g", i, got, want)
		}
	}
	// And the async answer matches the sync one bit for bit.
	code, sync, _ := postV2(t, ts.URL, *job.Query)
	if code != http.StatusOK {
		t.Fatalf("sync status %d", code)
	}
	for i := range sync.Results {
		wantJSON, err := json.Marshal(job.QueryResults[i].PF)
		if err != nil {
			t.Fatal(err)
		}
		if got := compact(t, sync.Results[i].PF); got != string(wantJSON) {
			t.Fatalf("async/sync mismatch at %d:\n%s\n%s", i, wantJSON, got)
		}
	}
}

// Unknown paths and wrong methods must answer with the JSON error
// envelope, not the mux's plain-text defaults.
func TestErrorEnvelopeOnUnknownRoutes(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	code, body, hdr := getBody(t, ts.URL+"/v1/nope", nil)
	if code != http.StatusNotFound {
		t.Fatalf("status %d", code)
	}
	if ct := hdr.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("Content-Type %q", ct)
	}
	var envelope ErrorJSON
	if err := json.Unmarshal(body, &envelope); err != nil {
		t.Fatalf("decoding 404 body %q: %v", body, err)
	}
	if envelope.Error.Code != "not_found" || !strings.Contains(envelope.Error.Message, "/v1/nope") {
		t.Fatalf("envelope = %+v", envelope)
	}

	// Wrong method on an existing path: 405 with Allow preserved.
	resp, err := http.Post(ts.URL+"/v1/pf", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	body, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("status %d, want 405", resp.StatusCode)
	}
	if allow := resp.Header.Get("Allow"); !strings.Contains(allow, "GET") {
		t.Fatalf("Allow = %q", allow)
	}
	if err := json.Unmarshal(body, &envelope); err != nil {
		t.Fatalf("decoding 405 body %q: %v", body, err)
	}
	if envelope.Error.Code != "method_not_allowed" {
		t.Fatalf("envelope = %+v", envelope)
	}

	// Unknown /v2 path too.
	code, body, _ = getBody(t, ts.URL+"/v2/nope", nil)
	if code != http.StatusNotFound {
		t.Fatalf("status %d", code)
	}
	if err := json.Unmarshal(body, &envelope); err != nil || envelope.Error.Code != "not_found" {
		t.Fatalf("v2 envelope = %+v (%v)", envelope, err)
	}
}

func TestPFETagRevalidation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	code, body, hdr := getBody(t, ts.URL+"/v1/pf?width=155", nil)
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	etag := hdr.Get("ETag")
	if etag == "" {
		t.Fatal("missing ETag")
	}
	// Equivalent spellings share the canonical fingerprint, hence the ETag.
	_, _, hdr2 := getBody(t, ts.URL+"/v1/pf?width=155&corner=worst", nil)
	if hdr2.Get("ETag") != etag {
		t.Fatalf("equivalent requests got different ETags: %q vs %q", etag, hdr2.Get("ETag"))
	}
	code, notBody, _ := getBody(t, ts.URL+"/v1/pf?width=155", map[string]string{"If-None-Match": etag})
	if code != http.StatusNotModified || len(bytes.TrimSpace(notBody)) != 0 {
		t.Fatalf("revalidation: status %d body %q", code, notBody)
	}
	// A stale/foreign ETag re-serves the full body.
	code, full, _ := getBody(t, ts.URL+"/v1/pf?width=155", map[string]string{"If-None-Match": `"nope"`})
	if code != http.StatusOK || compact(t, full) != compact(t, body) {
		t.Fatalf("stale etag: status %d", code)
	}
	// Corners endpoint is cacheable too.
	code, _, hdr = getBody(t, ts.URL+"/v1/corners", nil)
	if code != http.StatusOK || hdr.Get("ETag") == "" {
		t.Fatalf("corners: status %d etag %q", code, hdr.Get("ETag"))
	}
}

// /v1/pf honors node= exactly like its /v2 translation (and its siblings).
func TestPFNodeParameter(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	code, v1body, _ := getBody(t, ts.URL+"/v1/pf?width=155&node=22nm", nil)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, v1body)
	}
	var out PFJSON
	if err := json.Unmarshal(v1body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Node != "22nm" || out.WidthNM == 155 {
		t.Fatalf("node scaling ignored: %+v", out)
	}
	code, v2, _ := postV2(t, ts.URL, query.Spec{Kind: "pf", WidthNM: 155, Node: "22nm"})
	if code != http.StatusOK {
		t.Fatalf("/v2 status %d", code)
	}
	if compact(t, v2.Results[0].PF) != compact(t, v1body) {
		t.Fatalf("node payloads differ:\n/v1: %s\n/v2: %s", v1body, v2.Results[0].PF)
	}
}

// An unqualified /v1 request and its zero-valued /v2 spec are the same
// computation, so they must share one fingerprint-derived ETag.
func TestV1V2ETagUnification(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	_, _, hdr := getBody(t, ts.URL+"/v1/wmin", nil)
	_, fp, err := (query.Spec{Kind: "wmin"}).Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := hdr.Get("ETag"), srv.etagFor(fp); got != want {
		t.Fatalf("/v1/wmin ETag %q != zero-spec /v2 identity %q", got, want)
	}
	_, _, hdr = getBody(t, ts.URL+"/v1/rowyield?scenario=aligned&width=155", nil)
	_, fp, err = (query.Spec{Kind: "rowyield", Scenario: "aligned", WidthNM: 155}).Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := hdr.Get("ETag"), srv.etagFor(fp); got != want {
		t.Fatalf("/v1/rowyield ETag %q != zero-spec /v2 identity %q", got, want)
	}
}

// Caller mistakes stay 400; internal evaluation failures are 500.
func TestEvalErrorClassification(t *testing.T) {
	rec := httptest.NewRecorder()
	writeEvalError(rec, errors.New("sweep exploded"))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("internal error → %d, want 500", rec.Code)
	}
	var envelope ErrorJSON
	if err := json.Unmarshal(rec.Body.Bytes(), &envelope); err != nil || envelope.Error.Code != "internal" {
		t.Fatalf("envelope = %+v (%v)", envelope, err)
	}
	// A request-side failure surfaced through the session keeps its 400:
	// width beyond the grid inside a /v2 sweep.
	_, ts := newTestServer(t, Config{})
	code, _, body := postV2(t, ts.URL, query.Spec{Kind: "pf", WidthNM: 155,
		Sweep: &query.Sweep{WidthsNM: []float64{100, 1e6}}})
	if code != http.StatusBadRequest {
		t.Fatalf("out-of-grid sweep: status %d body %s", code, body)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	if code := getJSON(t, ts.URL+"/v1/pf?width=155", nil); code != http.StatusOK {
		t.Fatalf("warm query failed: %d", code)
	}
	getBody(t, ts.URL+"/v1/nope", nil) // one unmatched request

	code, body, hdr := getBody(t, ts.URL+"/metrics", nil)
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if ct := hdr.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("Content-Type %q", ct)
	}
	text := string(body)
	for _, want := range []string{
		`yieldserver_http_requests_total{route="/v1/pf",code="200"} 1`,
		`yieldserver_http_requests_total{route="unmatched",code="404"} 1`,
		`yieldserver_http_request_duration_seconds_count{route="/v1/pf"} 1`,
		"yieldserver_sweep_cache_misses_total 1",
		"yieldserver_sweeps_total 1",
		`yieldserver_jobs{state="running"} 0`,
		"yieldserver_uptime_seconds",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q\n%s", want, text)
		}
	}

	// A second scrape counts the first /metrics request as well.
	_, body, _ = getBody(t, ts.URL+"/metrics", nil)
	if !strings.Contains(string(body), `yieldserver_http_requests_total{route="/metrics",code="200"} 1`) {
		t.Errorf("metrics did not count itself:\n%s", body)
	}
}

// TestOneSpecErrorBare pins Run's error-prefix rule at the edge: the
// /v1/rowyield over-limit message is exactly its one-spec /v2/query twin's,
// with no "query: spec" prefix, while a failing sweep names its spec.
func TestOneSpecErrorBare(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	message := func(body []byte) string {
		t.Helper()
		var envelope ErrorJSON
		if err := json.Unmarshal(body, &envelope); err != nil {
			t.Fatalf("decoding %s: %v", body, err)
		}
		return envelope.Error.Message
	}
	want := fmt.Sprintf("rounds 999999999 exceeds limit %d", MaxRowRounds)
	code, v1, _ := getBody(t, ts.URL+"/v1/rowyield?scenario=unaligned&width=155&rounds=999999999", nil)
	if code != http.StatusBadRequest || message(v1) != want {
		t.Fatalf("/v1/rowyield: status %d message %q, want 400 %q", code, message(v1), want)
	}
	spec := query.Spec{Kind: "rowyield", Scenario: "unaligned", WidthNM: 155, Rounds: 999999999}
	code, _, v2 := postV2(t, ts.URL, spec)
	if code != http.StatusBadRequest || message(v2) != want {
		t.Fatalf("/v2/query: status %d message %q, want 400 %q", code, message(v2), want)
	}
	spec.Sweep = &query.Sweep{WidthsNM: []float64{150, 155}}
	code, _, sweep := postV2(t, ts.URL, spec)
	if code != http.StatusBadRequest || message(sweep) != "query: spec 1/2: "+want {
		t.Fatalf("/v2/query sweep: status %d message %q, want the spec-1/2 prefix", code, message(sweep))
	}
}
