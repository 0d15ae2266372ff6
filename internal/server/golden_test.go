package server

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
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

// goldenEpochFile records the numerics epoch the golden bodies were
// served under.
const goldenEpochFile = "epoch"

// readGoldenEpoch returns the epoch recorded in dir.
func readGoldenEpoch(dir string) (int, error) {
	data, err := os.ReadFile(filepath.Join(dir, goldenEpochFile))
	if err != nil {
		return 0, err
	}
	return strconv.Atoi(strings.TrimSpace(string(data)))
}

// checkGoldenUpdate is -update-golden's guard: a served body may change
// only together with query.NumericsEpoch, so it refuses to rewrite any
// body in dir that differs from bodies while epoch is still the recorded
// one. New golden files are always accepted.
func checkGoldenUpdate(dir string, bodies map[string][]byte, epoch int) error {
	recorded, err := readGoldenEpoch(dir)
	if err != nil {
		return err
	}
	if recorded != epoch {
		return nil
	}
	var changed []string
	for name, body := range bodies {
		old, err := os.ReadFile(filepath.Join(dir, name+".json"))
		if err == nil && !bytes.Equal(old, body) {
			changed = append(changed, name)
		}
	}
	if len(changed) > 0 {
		slices.Sort(changed)
		return fmt.Errorf("served bodies %v changed under numerics epoch %d: a change that moves served bytes bumps query.NumericsEpoch", changed, epoch)
	}
	return nil
}

// TestServedBytesGolden pins the exact response bytes — indentation,
// escaping, float formatting and the trailing newline — and the ETags of a
// default-parameter server, byte for byte, along with the numerics epoch
// they were served under. Every other server test compares compacted JSON,
// so this is the test that holds an encoder change to the served bytes.
// Refresh deliberately with -update-golden, which rewrites a changed body
// only once query.NumericsEpoch has moved past the recorded epoch.
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
		if epoch, err := readGoldenEpoch(dir); err != nil || epoch != query.NumericsEpoch {
			t.Fatalf("golden set recorded at numerics epoch %d (%v), code is at %d: refresh with -update-golden", epoch, err, query.NumericsEpoch)
		}
		data, err := os.ReadFile(filepath.Join(dir, "etags.json"))
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(data, &wantEtags); err != nil {
			t.Fatal(err)
		}
	}
	bodies := map[string][]byte{}
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
			bodies[gr.name] = rec.Body.Bytes()
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
		if err := checkGoldenUpdate(dir, bodies, query.NumericsEpoch); err != nil {
			t.Fatalf("refusing -update-golden: %v", err)
		}
		for name, body := range bodies {
			if err := os.WriteFile(filepath.Join(dir, name+".json"), body, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		data, err := json.MarshalIndent(etags, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "etags.json"), append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, goldenEpochFile), fmt.Appendf(nil, "%d\n", query.NumericsEpoch), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestUpdateGoldenRefusesChangedBodyWithinEpoch pins -update-golden's
// guard: a changed body is refused while the epoch is the recorded one
// and accepted once it moves; an unchanged body or a new golden file
// needs no bump.
func TestUpdateGoldenRefusesChangedBodyWithinEpoch(t *testing.T) {
	dir := t.TempDir()
	for name, data := range map[string]string{goldenEpochFile: "3\n", "a.json": `{"prf":1}`} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	same := map[string][]byte{"a": []byte(`{"prf":1}`), "new": []byte(`{}`)}
	if err := checkGoldenUpdate(dir, same, 3); err != nil {
		t.Fatalf("unchanged body and a new file refused: %v", err)
	}
	moved := map[string][]byte{"a": []byte(`{"prf":2}`)}
	if err := checkGoldenUpdate(dir, moved, 3); err == nil {
		t.Fatal("changed body accepted under the recorded epoch")
	}
	if err := checkGoldenUpdate(dir, moved, 4); err != nil {
		t.Fatalf("changed body refused after an epoch bump: %v", err)
	}
}
