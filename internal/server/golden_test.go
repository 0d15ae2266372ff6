package server

import (
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"github.com/cnfet/yieldlab/internal/analysis/apilock"
	"github.com/cnfet/yieldlab/internal/experiments"
	"github.com/cnfet/yieldlab/internal/query"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden from the current server")

// designSpace is the corner × node × yield Wmin sweep of
// examples/design_space.
var designSpace = query.Spec{Kind: query.KindWmin, Sweep: &query.Sweep{
	Corners: []string{"worst", "mid", "best"},
	Nodes:   []string{"45nm", "22nm"},
	Yields:  []float64{0.90, 0.99},
}}

// goldenRequest is one request whose exact response bytes are pinned.
type goldenRequest struct {
	name   string
	method string
	path   string
	body   []byte
	status int
}

// goldenRequests are the pinned requests: the hot benchmark's query pool
// (five corpus entries, the examples/design_space Wmin sweep and its 360×
// relaxation), the corpus's Monte Carlo row-yield entry, one 400 envelope
// and the corners listing.
func goldenRequests(t *testing.T) []goldenRequest {
	t.Helper()
	entries, err := apilock.Corpus()
	if err != nil {
		t.Fatal(err)
	}
	var out []goldenRequest
	for _, name := range []string{
		"pf-width-155", "pf-worst-corner-103", "wmin-chip-yield",
		"rowyield-aligned-closed-form", "sweep-corner-width-product",
		"rowyield-unaligned-mc",
	} {
		found := false
		for _, e := range entries {
			if e.Name == name {
				out = append(out, goldenRequest{name, http.MethodPost, "/v2/query", e.Spec, http.StatusOK})
				found = true
			}
		}
		if !found {
			t.Fatalf("corpus has no entry %s", name)
		}
	}
	for _, extra := range []struct {
		name string
		spec query.Spec
	}{
		{"design-space", designSpace},
		{"relax-360", query.Spec{Kind: query.KindWmin, RelaxFactor: 360}},
	} {
		body, err := json.Marshal(extra.spec)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, goldenRequest{extra.name, http.MethodPost, "/v2/query", body, http.StatusOK})
	}
	return append(out,
		goldenRequest{"bad-request", http.MethodPost, "/v2/query", []byte(`{"kind":"<bogus> & \"more\""}`), http.StatusBadRequest},
		goldenRequest{"corners", http.MethodGet, "/v1/corners", nil, http.StatusOK},
	)
}

// TestServedBytesGolden pins the exact response bytes — indentation,
// escaping, float formatting and the trailing newline — and the ETags of a
// default-parameter server, byte for byte. Every other server test compares
// compacted JSON, so this is the test that holds an encoder change to the
// served bytes. Refresh deliberately with -update-golden.
func TestServedBytesGolden(t *testing.T) {
	srv, err := New(Config{Params: experiments.DefaultParams()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	h := srv.Handler()
	dir := filepath.Join("testdata", "golden")
	etags := map[string]string{}
	var wantEtags map[string]string
	if !*updateGolden {
		data, err := os.ReadFile(filepath.Join(dir, "etags.json"))
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(data, &wantEtags); err != nil {
			t.Fatal(err)
		}
	}
	for _, gr := range goldenRequests(t) {
		var body io.Reader
		if gr.body != nil {
			body = bytes.NewReader(gr.body)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(gr.method, gr.path, body))
		if rec.Code != gr.status {
			t.Fatalf("%s: status %d, want %d: %s", gr.name, rec.Code, gr.status, rec.Body)
		}
		etags[gr.name] = rec.Header().Get("ETag")
		file := filepath.Join(dir, gr.name+".json")
		if *updateGolden {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(file, rec.Body.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		if got := rec.Body.Bytes(); !bytes.Equal(got, want) {
			t.Errorf("%s: served bytes differ from %s\n got: %q\nwant: %q", gr.name, file, got, want)
		}
		if etags[gr.name] != wantEtags[gr.name] {
			t.Errorf("%s: ETag %q, want %q", gr.name, etags[gr.name], wantEtags[gr.name])
		}
	}
	if *updateGolden {
		data, err := json.MarshalIndent(etags, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "etags.json"), append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
