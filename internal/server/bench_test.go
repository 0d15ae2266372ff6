package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/cnfet/yieldlab/internal/experiments"
)

// BenchmarkServerPF measures one warm /v1/pf query end to end — mux routing,
// parameter validation, the cached PGF evaluation, and JSON encoding. This
// is the steady-state unit cost of the service's hottest endpoint and part
// of the CI bench gate.
func BenchmarkServerPF(b *testing.B) {
	p := experiments.DefaultParams()
	p.GridStepNM = 0.1
	p.MaxWidthNM = 200
	srv, err := New(Config{Params: p})
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	url := ts.URL + "/v1/pf?width=155&corner=worst"
	// Warm the sweep outside the timed region.
	resp, err := http.Get(url)
	if err != nil {
		b.Fatal(err)
	}
	resp.Body.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := http.Get(url)
		if err != nil {
			b.Fatal(err)
		}
		var out PFJSON
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			b.Fatal(err)
		}
		resp.Body.Close()
		if out.PF <= 0 {
			b.Fatal("no pF")
		}
	}
}

// warmV2Query returns a function that serves one warm one-spec
// POST /v2/query through Server.Handler() without a network, after one
// call that sweeps the table the query reads.
func warmV2Query(tb testing.TB) func() {
	srv, err := New(Config{Params: experiments.DefaultParams()})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { srv.Close() })
	h := srv.Handler()
	const body = `{"kind":"pf","corner":"worst","width_nm":155}`
	serve := func() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v2/query", strings.NewReader(body)))
		if rec.Code != http.StatusOK {
			tb.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
	}
	serve()
	return serve
}

// BenchmarkV2QueryWarm measures one warm one-spec POST /v2/query through
// Server.Handler() without a network: decode, plan, the cached pF
// evaluation and the edge encoder. Its allocs/op is the per-request
// allocation count of the sync query path (bounded by
// TestV2QueryWarmAllocs). Registered in BENCH_BASELINE.json with the ratio
// gate ≤ 250× BenchmarkTruncNormalSample/exact.
func BenchmarkV2QueryWarm(b *testing.B) {
	serve := warmV2Query(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serve()
	}
}

// TestV2QueryWarmAllocs bounds the allocations of one warm one-spec
// POST /v2/query through Server.Handler(), the request and recorder the
// test builds included. The body is appended without reflection and the
// sweep-cache hit allocates nothing, so the count sits at 66 on Go 1.24
// (76 with the reflective marshal and the per-lookup Model and key
// string). The bound leaves a little headroom for toolchain drift.
func TestV2QueryWarmAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	allocs := testing.AllocsPerRun(200, warmV2Query(t))
	t.Logf("warm one-spec POST /v2/query: %v allocs", allocs)
	if allocs > 70 {
		t.Fatalf("warm one-spec POST /v2/query allocates %v times, bound 70", allocs)
	}
}
