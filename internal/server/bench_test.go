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

// BenchmarkV2QueryWarm measures one warm one-spec POST /v2/query through
// Server.Handler() without a network: decode, plan, the cached pF
// evaluation and the edge encoder. Its allocs/op is the per-request
// allocation count of the sync query path.
func BenchmarkV2QueryWarm(b *testing.B) {
	srv, err := New(Config{Params: experiments.DefaultParams()})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	h := srv.Handler()
	const body = `{"kind":"pf","corner":"worst","width_nm":155}`
	serve := func() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v2/query", strings.NewReader(body)))
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
	}
	serve()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serve()
	}
}
