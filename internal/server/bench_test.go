package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
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

// warmV2Query builds a server and returns it with a function that serves
// one warm one-spec POST /v2/query through its Handler() without a
// network, after one call that sweeps the table the query reads.
func warmV2Query() (*Server, func() error, error) {
	srv, err := New(Config{Params: experiments.DefaultParams()})
	if err != nil {
		return nil, nil, err
	}
	h := srv.Handler()
	const body = `{"kind":"pf","corner":"worst","width_nm":155}`
	serve := func() error {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v2/query", strings.NewReader(body)))
		if rec.Code != http.StatusOK {
			return fmt.Errorf("status %d: %s", rec.Code, rec.Body)
		}
		return nil
	}
	if err := serve(); err != nil {
		srv.Close()
		return nil, nil, err
	}
	return srv, serve, nil
}

// benchV2Query is BenchmarkV2QueryWarm's server, built and swept once per
// process instead of once per b.N ramp-up call and per -count. It lives
// until the process exits.
var benchV2Query = sync.OnceValues(func() (func() error, error) {
	_, serve, err := warmV2Query()
	return serve, err
})

// BenchmarkV2QueryWarm measures one warm one-spec POST /v2/query through
// Server.Handler() without a network: decode, plan, the cached pF
// evaluation and the edge encoder. Its allocs/op is the per-request
// allocation count of the sync query path (bounded by
// TestV2QueryWarmAllocs). Registered in BENCH_BASELINE.json with the ratio
// gate ≤ 250× BenchmarkTruncNormalSample/exact.
func BenchmarkV2QueryWarm(b *testing.B) {
	serve, err := benchV2Query()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := serve(); err != nil {
			b.Fatal(err)
		}
	}
}

// TestV2QueryWarmAllocs bounds the allocations of one warm one-spec
// POST /v2/query through Server.Handler(), the request and recorder the
// test builds included. The body is appended without reflection, the
// sweep-cache hit allocates nothing and the default pitch law is boxed
// once per process, so the count sits at 65 on Go 1.24 (66 when each spec
// boxed the law, 76 with the reflective marshal and the per-lookup Model
// and key string). The bound leaves a little headroom for toolchain drift.
func TestV2QueryWarmAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	srv, serve, err := warmV2Query()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	allocs := testing.AllocsPerRun(200, func() {
		if err := serve(); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("warm one-spec POST /v2/query: %v allocs", allocs)
	if allocs > 69 {
		t.Fatalf("warm one-spec POST /v2/query allocates %v times, bound 69", allocs)
	}
}
