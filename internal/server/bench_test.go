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

// warmV2Serve builds a server and returns it with a function that serves
// one warm POST /v2/query of body through its Handler() without a network,
// after one call that sweeps the tables the query reads.
func warmV2Serve(body string) (*Server, func() error, error) {
	srv, err := New(Config{Params: experiments.DefaultParams()})
	if err != nil {
		return nil, nil, err
	}
	h := srv.Handler()
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

// onePFBody is the one-spec pF query of BenchmarkV2QueryWarm.
const onePFBody = `{"kind":"pf","corner":"worst","width_nm":155}`

// designSpaceBody is the examples/design_space corner × node × yield Wmin
// sweep (12 specs) as a /v2/query body.
const designSpaceBody = `{"kind":"wmin","sweep":{"corners":["worst","mid","best"],"nodes":["45nm","22nm"],"yields":[0.9,0.99]}}`

// benchV2Query and benchV2Sweep are the servers of BenchmarkV2QueryWarm
// and BenchmarkV2QuerySweepWarm, each built and swept once per process
// instead of once per b.N ramp-up call and per -count. They live until the
// process exits.
var (
	benchV2Query = sync.OnceValues(func() (func() error, error) {
		_, serve, err := warmV2Serve(onePFBody)
		return serve, err
	})
	benchV2Sweep = sync.OnceValues(func() (func() error, error) {
		_, serve, err := warmV2Serve(designSpaceBody)
		return serve, err
	})
)

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
// test builds included. The body is decoded by query.DecodeSpec's
// reflection-free scan from pooled scratch and appended indented without
// reflection, the failure model is a stack value, the sweep-cache hit
// allocates nothing, the default pitch law is boxed once per process, and
// the request tracer takes its two spans from its own allocation with
// attributes stored unboxed and stages flattened into a pooled buffer, so
// the count sits at 39 on Go 1.24 (49 with the encoding/json decoder and a
// heap FailureModel per spec; 65 with a heap span, a context node, boxed
// attributes and copied stage slices per span; 66 when each spec boxed the
// law; 76 with the reflective marshal and the per-lookup Model and key
// string). The bound leaves a little headroom for toolchain drift.
func TestV2QueryWarmAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	srv, serve, err := warmV2Serve(onePFBody)
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
	if allocs > 42 {
		t.Fatalf("warm one-spec POST /v2/query allocates %v times, bound 42", allocs)
	}
}

// BenchmarkV2QuerySweepWarm measures one warm POST /v2/query of the
// examples/design_space Wmin sweep (12 specs) through Server.Handler()
// without a network: decode, plan and expansion, twelve Wmin solves on the
// cached tables, the request tracer, stage histograms and slowlog, and the
// edge encoder. It is the query the paper's design-space exploration
// repeats.
func BenchmarkV2QuerySweepWarm(b *testing.B) {
	serve, err := benchV2Sweep()
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

// TestV2QuerySweepWarmAllocs bounds the allocations of one warm
// design-space POST /v2/query (12 Wmin specs) through Server.Handler(),
// the twin of TestV2QueryWarmAllocs. Each Wmin solve reads its node's
// frozen width distribution and evaluates the chip yield in stack scratch,
// pairs the cached count model with its corner in a stack value, the
// request's 24 spans come from the tracer's slab, and the body is decoded
// and appended without reflection (the decoded corner, node and kind names
// shared, not copied), so the count sits at 83 on Go 1.24 (117 with the
// encoding/json decoder and a heap FailureModel per spec; 413 when every
// spec rebuilt and rescaled the width distribution, allocated its yield
// scratch and paid a heap span, a context node and boxed attributes per
// span). The bound leaves the same few percent of headroom.
func TestV2QuerySweepWarmAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	srv, serve, err := warmV2Serve(designSpaceBody)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	allocs := testing.AllocsPerRun(100, func() {
		if err := serve(); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("warm design-space POST /v2/query: %v allocs", allocs)
	if allocs > 88 {
		t.Fatalf("warm design-space POST /v2/query allocates %v times, bound 88", allocs)
	}
}
