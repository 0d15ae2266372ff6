package server

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"

	"github.com/cnfet/yieldlab/internal/query"
)

// FuzzAppendIndent holds the edge indenter to encoding/json's: on any value
// json.Marshal produces, appendIndent must emit exactly json.Indent's bytes.
// The input is read as JSON (a whole document) and, separately, as a string
// payload, so both structure and escaping are explored.
func FuzzAppendIndent(f *testing.F) {
	for _, seed := range []string{
		`{"a":"quote \" and backslash \\ and \\\" mixed"}`,
		`"ends in backslash \\"`,
		"line separators \u2028 and \u2029 in a string",
		`<script>alert("x")</script> & more`,
		`{}`, `[]`, `{"a":{},"b":[],"c":[{}],"d":{"e":[[]]}}`,
		`[[[{"deep":[{},[]]}]]]`,
		`{"exp":1e-9,"big":6.02e23,"neg":-3.1075800452204066e-9,"int":155}`,
		`{"k:e,y":"v]a}l,u:e","":""}`,
		`[true,false,null,0,"",{}]`,
		`"\u0000\u001f control"`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		values := []any{string(data), map[string]any{string(data): []any{string(data), 1.5e-7}}}
		var doc any
		if json.Unmarshal(data, &doc) == nil {
			values = append(values, doc)
		}
		for _, v := range values {
			src, err := json.Marshal(v)
			if err != nil {
				t.Fatal(err)
			}
			var want bytes.Buffer
			if err := json.Indent(&want, src, "", "  "); err != nil {
				t.Fatal(err)
			}
			if got := appendIndent(nil, src); !bytes.Equal(got, want.Bytes()) {
				t.Fatalf("appendIndent(%q)\n got: %q\nwant: %q", src, got, want.Bytes())
			}
		}
	})
}

// TestWriteJSONUnencodable pins marshal-before-status: a payload
// encoding/json rejects answers the 500 internal envelope, and the
// validator headers set for the intended response go with it.
func TestWriteJSONUnencodable(t *testing.T) {
	rec := httptest.NewRecorder()
	rec.Header().Set("ETag", `"tag"`)
	rec.Header().Set("Cache-Control", "public, max-age=86400")
	writeJSON(rec, http.StatusOK, query.PFResult{Corner: "worst", WidthNM: 155, PF: math.NaN()})
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", rec.Code)
	}
	var env ErrorJSON
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
		t.Fatalf("body %q is not an envelope: %v", rec.Body, err)
	}
	if env.Error.Code != "internal" || env.Error.Message == "" {
		t.Fatalf("envelope = %+v", env)
	}
	if rec.Header().Get("ETag") != "" || rec.Header().Get("Cache-Control") != "" {
		t.Fatalf("500 kept validator headers: %v", rec.Header())
	}
}

// stdlibBody is what writeJSON replaced: an Encoder indenting by two
// spaces, or the 500 envelope when it cannot encode v.
func stdlibBody(t *testing.T, v any) (int, []byte) {
	t.Helper()
	var want bytes.Buffer
	enc := json.NewEncoder(&want)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		want.Reset()
		if err := enc.Encode(ErrorJSON{Error: ErrorBodyJSON{
			Code: "internal", Message: "encoding response: " + err.Error(),
		}}); err != nil {
			t.Fatal(err)
		}
		return http.StatusInternalServerError, want.Bytes()
	}
	return http.StatusOK, want.Bytes()
}

// TestWriteJSONQueryResponse holds the appended /v2/query body to the
// stdlib Encoder's bytes: a full design-space response, the empty and nil
// result lists, and the bodies the appenders decline — a cost breakdown
// (encoded by encoding/json) and a NaN (the same 500 envelope and
// message).
func TestWriteJSONQueryResponse(t *testing.T) {
	full, err := designSpaceResponse()
	if err != nil {
		t.Fatal(err)
	}
	pf := query.Result{Spec: query.Spec{Kind: query.KindPF, WidthNM: 155}, Fingerprint: "qs1-x",
		PF: &query.PFResult{Corner: "worst", WidthNM: 155, PFCNT: 0.531, PF: 3.1e-9}}
	withCost, withNaN := pf, pf
	withCost.Cost = &query.CostBreakdown{TotalMS: 0.5}
	withNaN.PF = &query.PFResult{Corner: "worst", PF: math.NaN()}
	for name, v := range map[string]QueryResponseJSON{
		"design space": full,
		"empty":        {Fingerprint: "qs1-e", Results: []query.Result{}},
		"nil results":  {Fingerprint: "qs1-n"},
		"cost":         {Fingerprint: "qs1-c", Count: 2, Results: []query.Result{pf, withCost}},
		"nan":          {Fingerprint: "qs1-nan", Count: 2, Results: []query.Result{pf, withNaN}},
		"escaped fp":   {Fingerprint: "<&>", Count: 1, Results: []query.Result{pf}},
	} {
		rec := httptest.NewRecorder()
		writeJSON(rec, http.StatusOK, v)
		status, want := stdlibBody(t, v)
		if rec.Code != status || !bytes.Equal(rec.Body.Bytes(), want) {
			t.Errorf("%s: writeJSON = %d %s\nwant %d %s", name, rec.Code, rec.Body, status, want)
		}
	}
}

// designSpaceResponse is the /v2/query body of the examples/design_space
// Wmin sweep at paper-default parameters, swept once per process instead of
// once per b.N ramp-up call and per -count.
var designSpaceResponse = sync.OnceValues(func() (QueryResponseJSON, error) {
	s, err := query.NewSession(query.Options{})
	if err != nil {
		return QueryResponseJSON{}, err
	}
	p, err := designSpace.Plan()
	if err != nil {
		return QueryResponseJSON{}, err
	}
	results, err := s.Run(context.Background(), p, nil)
	if err != nil {
		return QueryResponseJSON{}, err
	}
	return QueryResponseJSON{Fingerprint: p.Fingerprint(), Count: len(results), Results: results}, nil
})

// discardWriter is a ResponseWriter that keeps nothing but its header map.
type discardWriter struct{ header http.Header }

func (d *discardWriter) Header() http.Header         { return d.header }
func (d *discardWriter) WriteHeader(int)             {}
func (d *discardWriter) Write(b []byte) (int, error) { return len(b), nil }

// BenchmarkWriteJSON compares the edge encoder with the stdlib indented
// Encoder it replaces, over the design-space response (12 results, ~5 KB
// indented). Registered in BENCH_BASELINE.json with the ratio gate
// edge/stdlib ≤ 0.32: the edge arm appends the body already indented, in
// one pass without reflection.
func BenchmarkWriteJSON(b *testing.B) {
	v, err := designSpaceResponse()
	if err != nil {
		b.Fatal(err)
	}
	w := &discardWriter{header: make(http.Header)}
	b.Run("stdlib", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusOK)
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			if err := enc.Encode(v); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("edge", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			writeJSON(w, http.StatusOK, v)
		}
	})
}

// FuzzQueryResponseIndent holds the indenting appenders to appendIndent:
// on /v2/query responses built from FuzzWireJSON's inputs (in
// internal/query), appendQueryResponse — and through it
// Result.AppendIndentJSON — writes exactly appendIndent of json.Marshal's
// compact bytes, and declines exactly where json.Marshal fails. Each
// result is also checked alone at depth 0 against Result.AppendJSON.
func FuzzQueryResponseIndent(f *testing.F) {
	for _, seed := range []struct {
		x float64
		s string
	}{
		{1e-6, "worst"},
		{math.Nextafter(1e-6, 0), "pm=33%, pRs=30%"},
		{1e21, "<script>"},
		{math.Nextafter(1e21, 0), "a&b"},
		{math.Copysign(0, -1), "  "},
		{5e-324, "\x00\x1f\x7f"},
		{2.2250738585072014e-308, "\xff\xfe invalid"},
		{math.MaxFloat64, `quote " backslash \`},
		{-math.MaxFloat64, "é"},
		{-1e-6, "line \u2028 and paragraph \u2029 separators"},
		{1e-7, ""},
		{1.5e-10, "45nm"},
		{3.1075800452204066e-09, "unaligned"},
		{155, "plain"},
		{math.NaN(), "nan"},
		{math.Inf(1), "inf"},
	} {
		f.Add(seed.x, seed.s)
	}
	f.Fuzz(func(t *testing.T, x float64, s string) {
		y := -x / 3
		specs := []query.Spec{
			{Kind: s, Corner: s, WidthNM: x, PM: &y, Node: s, Seed: math.Float64bits(x)},
			{Kind: query.KindRowYield, Scenario: s, Offsets: []float64{x, y}, RelErrTarget: y, Rounds: int(int32(math.Float64bits(x)))},
			{Kind: query.KindWmin, Sweep: &query.Sweep{Corners: []string{s, s}, Yields: []float64{x}, RelaxFactors: []float64{y, x}}},
			{Kind: query.KindPF, Sweep: &query.Sweep{}},
		}
		results := []query.Result{
			{Spec: specs[0], Fingerprint: s, PF: &query.PFResult{Corner: s, Node: s, WidthNM: x, PFCNT: y, PF: x}},
			{Spec: specs[1], RowYield: &query.RowYieldResult{Corner: s, Scenario: s, PRF: x, StdErr: y, MCMethod: s, TiltTheta: x}},
			{Spec: specs[2], Wmin: &query.WminResult{Corner: s, WminNM: x, DevicePF: y}},
			{Spec: specs[3], Noise: &query.NoiseResult{Corner: s, ViolationProb: x, RequiredPRM: y}},
		}
		for i := range results {
			compact, compactOK := results[i].AppendJSON(nil)
			got, ok := results[i].AppendIndentJSON(nil, 0)
			if ok != compactOK || ok && !bytes.Equal(got, appendIndent(nil, compact)) {
				t.Fatalf("result %d: AppendIndentJSON = %q, %v\nwant appendIndent of %q, %v", i, got, ok, compact, compactOK)
			}
		}
		for _, resp := range []QueryResponseJSON{
			{Fingerprint: "qs1-f", Count: len(results), Results: results},
			{Fingerprint: "qs1-0", Count: 1, Results: results[:1]},
			{Fingerprint: "qs1-e", Results: results[:0]},
		} {
			want, err := json.Marshal(resp)
			got, ok := appendQueryResponse(nil, &resp)
			switch {
			case err != nil && ok:
				t.Fatalf("appendQueryResponse encoded a response json.Marshal rejects (%v): %s", err, got)
			case err == nil && !ok:
				t.Fatalf("appendQueryResponse declined a response json.Marshal encodes: %s", want)
			case err == nil && !bytes.Equal(got, appendIndent(nil, want)):
				t.Fatalf("appendQueryResponse differs from appendIndent\n got: %s\nwant: %s", got, appendIndent(nil, want))
			}
		}
	})
}

// TestDecodeSpecBody holds the /v2/query body decode to decodeBody, the
// encoding/json decode it replaces: the same Spec and the same error text
// on real bodies, on bodies the fast path declines, and on bodies over the
// 16 MiB bound, whether the value ends before the bound or runs past it.
func TestDecodeSpecBody(t *testing.T) {
	over := bytes.Repeat([]byte{' '}, maxBodyBytes)
	for name, body := range map[string][]byte{
		"pf":               []byte(`{"kind":"pf","corner":"worst","width_nm":155}`),
		"indented sweep":   []byte("{\n  \"kind\": \"wmin\",\n  \"sweep\": {\n    \"yields\": [0.9, 0.99]\n  }\n}\n"),
		"trailing data":    []byte(`{"kind":"pf"} {}`),
		"unknown field":    []byte(`{"kind":"pf","bogus":1}`),
		"escaped":          []byte(`{"kind":"<bogus> & \"more\""}`),
		"int as float":     []byte(`{"kind":"rowyield","rounds":1e3}`),
		"empty":            nil,
		"truncated":        []byte(`{"kind":"pf"`),
		"over the bound":   append([]byte(`{"kind":"pf","width_nm":155}`), over...),
		"cut by the bound": append([]byte(`{"kind":"pf","corner":"`), over...),
	} {
		var want query.Spec
		wantErr := decodeBody(httptest.NewRequest(http.MethodPost, "/v2/query", bytes.NewReader(body)), &want)
		got, err := decodeSpecBody(httptest.NewRequest(http.MethodPost, "/v2/query", bytes.NewReader(body)))
		if wantErr != nil {
			if err == nil || err.Error() != wantErr.Error() {
				t.Errorf("%s: decodeSpecBody error %v, want %v", name, err, wantErr)
			}
			continue
		}
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("%s: decodeSpecBody = %+v, %v; want %+v", name, got, err, want)
		}
	}
}
