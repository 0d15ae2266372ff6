package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"testing"

	"github.com/cnfet/yieldlab/internal/experiments"
)

// costDurations matches the wall-time fields of a CostBreakdown: its
// totals and every stage's ms.
var costDurations = regexp.MustCompile(`("(?:total_ms|sweep_ms|mc_ms|ms)": )-?[0-9][0-9.eE+-]*`)

// TestDebugCostGolden pins the ?debug=cost /v2/query body of the
// examples/design_space Wmin sweep on a warm server, with every duration
// zeroed: the breakdown's stage names and order, its cache-hit verdict and
// counters, and the results around it. It holds a rewrite of the span
// tracer or of stage flattening to the surface clients read. Refresh
// deliberately with -update-golden.
func TestDebugCostGolden(t *testing.T) {
	srv, err := New(Config{Params: experiments.DefaultParams()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	h := srv.Handler()
	body, err := json.Marshal(designSpace)
	if err != nil {
		t.Fatal(err)
	}
	serve := func(path string) []byte {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", path, rec.Code, rec.Body)
		}
		return rec.Body.Bytes()
	}
	// The first request sweeps; which spec's stage reads cold would depend
	// on worker scheduling, so only the warm request is pinned.
	serve("/v2/query")
	got := costDurations.ReplaceAll(serve("/v2/query?debug=cost"), []byte("${1}0"))
	file := filepath.Join("testdata", "golden", "debug-cost-design-space.json")
	if *updateGolden {
		if err := os.WriteFile(file, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("?debug=cost body differs from %s\n got: %s\nwant: %s", file, got, want)
	}
}
