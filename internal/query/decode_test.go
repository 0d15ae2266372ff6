package query

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/iotest"

	"github.com/cnfet/yieldlab/internal/analysis/apilock"
)

// stdlibDecodeSpec is the strict decode DecodeSpec replaces: a json.Decoder
// with DisallowUnknownFields over r, then a Token that must be io.EOF.
func stdlibDecodeSpec(r io.Reader) (Spec, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var q Spec
	if err := dec.Decode(&q); err != nil {
		return Spec{}, err
	}
	if _, err := dec.Token(); err != io.EOF {
		return Spec{}, errTrailingData
	}
	return q, nil
}

// errText is err's message, "" for nil.
func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// checkDecodeSpec holds DecodeSpec to stdlibDecodeSpec on data: the fast
// path either declines or returns the stdlib's Spec (nil and empty slices
// told apart) with no stdlib error, and DecodeSpec returns the stdlib's
// Spec and error text — also when data arrives byte by byte and reading
// ends in an error, as an over-limit body does.
func checkDecodeSpec(t *testing.T, data []byte) {
	t.Helper()
	want, wantErr := stdlibDecodeSpec(bytes.NewReader(data))
	if q, ok := scanSpec(data); ok {
		if wantErr != nil {
			t.Fatalf("fast path accepted %q, which encoding/json rejects: %v", data, wantErr)
		}
		if !reflect.DeepEqual(q, want) {
			t.Fatalf("fast path decoded %q as\n%#v\nencoding/json as\n%#v", data, q, want)
		}
	}
	got, err := DecodeSpec(data, nil)
	if errText(err) != errText(wantErr) || !reflect.DeepEqual(got, want) {
		t.Fatalf("DecodeSpec(%q) = %#v, %v\nwant %#v, %v", data, got, err, want, wantErr)
	}
	readErr := errors.New("read failed")
	want, wantErr = stdlibDecodeSpec(iotest.OneByteReader(io.MultiReader(bytes.NewReader(data), errReader{readErr})))
	got, err = DecodeSpec(data, readErr)
	if errText(err) != errText(wantErr) || !reflect.DeepEqual(got, want) {
		t.Fatalf("DecodeSpec(%q, read error) = %#v, %v\nwant %#v, %v", data, got, err, want, wantErr)
	}
}

// acceptSeeds are bodies the fast path decodes, in compact and indented
// spellings; declineSeeds hold one input for each way it declines.
// Together they seed FuzzSpecDecode.
var acceptSeeds = []string{
	`{"kind":"pf","corner":"worst","width_nm":155}`,
	"{\n  \"kind\": \"pf\",\n  \"width_nm\": 103,\n  \"corner\": \"worst\"\n}",
	"\t{ \"kind\" :\r\n\"wmin\" , \"m\":100000000 ,\"desired_yield\": 0.99 }\n\n",
	`{"kind":"wmin","sweep":{"corners":["worst","mid","best"],"nodes":["45nm","22nm"],"yields":[0.9,0.99]}}`,
	`{"kind":"pf","width_nm":103,"pm":0.25,"prs":0.125,"grid_step_nm":0.1,"max_width_nm":400}`,
	`{"kind":"rowyield","width_nm":155,"scenario":"unaligned","rounds":100,"mc_method":"tilted","rel_err_target":0.1,"krows":1e6,"seed":18446744073709551615}`,
	`{"kind":"rowyield","offsets":[0,190.5,-1E-7],"offset_probs":[0.5,5e-1,0]}`,
	`{"kind":"noise","width_nm":155,"prm":0.9999,"ratio_threshold":0.15,"pitch_mean_nm":4,"pitch_sigma_ratio":0.5,"relax_factor":360}`,
	`{"kind":"experiment","experiments":["all","table1"],"seed":7}`,
	`{"kind":"pf","sweep":{"pitch_means_nm":[3,4],"widths_nm":[103,155],"relax_factors":[1],"scenarios":["aligned"]}}`,
	`{"kind":"pf","offsets":[],"experiments":[],"sweep":{}}`,
	`{"kind":"pf","sweep":{"corners":[],"yields":[]}}`,
	`{}`, ` { } `,
	`{"kind":"pf","corner":"pm=33%, pRs=30%","node":"é 45nm  "}`,
	`{"kind":"pf","width_nm":-0,"rounds":-0,"m":-0.0}`,
	`{"kind":"pf","width_nm":1.7976931348623157e308,"m":5e-324,"krows":1e-400}`,
}

var declineSeeds = []string{
	`{"Kind":"pf"}`, `{"KIND":"pf"}`, `{"widthNM":155}`,
	`{"kind":"pf","bogus":1}`, `{"kind":"pf","sweep":{"bogus":[1]}}`,
	`{"kind":"pf","kind":"wmin"}`, `{"kind":"pf","offsets":[1],"offsets":[2,3]}`,
	`{"kind":"pf","sweep":{"nodes":["45nm"]},"sweep":{"yields":[0.9]}}`,
	`{"kind":"pf","sweep":{"yields":[0.9],"yields":[0.99]}}`,
	`{"kind":"p\u0066"}`, `{"k\u0069nd":"pf"}`, `{"kind":"<bogus> & \"more\""}`, `{"corner":"a\/b"}`,
	`{"kind":null}`, `{"pm":null}`, `{"offsets":null}`, `{"sweep":null}`, `null`,
	`{"kind":"pf","rounds":1e3}`, `{"rounds":1.5}`, `{"rounds":9223372036854775808}`,
	`{"seed":-1}`, `{"seed":-0}`, `{"seed":18446744073709551616}`, `{"seed":1e2}`,
	`{"width_nm":1e400}`, `{"width_nm":-1e400}`, `{"pm":1e999}`, `{"offsets":[1,1e309]}`,
	`{"kind":"pf"} {"kind":"wmin"}`, `{"kind":"pf"}x`, `{"kind":"pf"}]`, `{"kind":"pf"}}`,
	`{"kind":"pf",}`, `{"kind":"pf" "width_nm":1}`, `{"kind" "pf"}`, `{,}`, `{"offsets":[1,]}`,
	`{"offsets":[,1]}`, `{"offsets":[1 2]}`, `{"width_nm":01}`, `{"width_nm":.5}`,
	`{"width_nm":1.}`, `{"width_nm":1e}`, `{"width_nm":+1}`, `{"width_nm":-}`, `{"width_nm":0x10}`,
	`{"width_nm":"155"}`, `{"kind":155}`, `{"offsets":"1"}`, `{"experiments":[1]}`,
	`{"sweep":[]}`, `{"pm":true}`, `{"kind":"pf"`, `{"kind":"pf`, `{"kind`, `{`, ``, ` `,
	`[]`, `"pf"`, `155`, "\xef\xbb\xbf{\"kind\":\"pf\"}", "{\"kind\":\"p\x00f\"}", "{\"kind\":\"\xff\"}",
	"{\"kind\":\"\xed\xa0\x80\"}", "{\"kind\":\"pf\"}\x00", "{\"kind\":\"pf\"\f}",
}

// FuzzSpecDecode is the differential test of the strict spec decoder: on
// any input DecodeSpec answers encoding/json's Spec and error text, and the
// fast path either declines or decodes exactly what encoding/json decodes.
// `go test` runs the seeds and the pinned corpus; explore with
// `go test -fuzz FuzzSpecDecode ./internal/query`.
func FuzzSpecDecode(f *testing.F) {
	for _, s := range slices.Concat(acceptSeeds, declineSeeds) {
		f.Add([]byte(s))
	}
	entries, err := apilock.Corpus()
	if err != nil {
		f.Fatal(err)
	}
	for _, e := range entries {
		f.Add([]byte(e.Spec))
	}
	f.Fuzz(checkDecodeSpec)
}

// TestDecodeSpecDeclines pins the inputs the fast path hands to
// encoding/json: a case-folded, unknown or repeated key, an escape, null,
// an integer field written as 1e3, a float out of range and trailing data,
// among others. DecodeSpec still answers them as encoding/json does.
func TestDecodeSpecDeclines(t *testing.T) {
	for _, s := range declineSeeds {
		if q, ok := scanSpec([]byte(s)); ok {
			t.Errorf("fast path accepted %q as %#v; it must decline", s, q)
		}
		checkDecodeSpec(t, []byte(s))
	}
}

// TestDecodeSpecAccepts pins the spellings the fast path decodes.
func TestDecodeSpecAccepts(t *testing.T) {
	for _, s := range acceptSeeds {
		if _, ok := scanSpec([]byte(s)); !ok {
			t.Errorf("fast path declines %q", s)
		}
		checkDecodeSpec(t, []byte(s))
	}
}

// TestDecodeSpecTraffic shows the fast path serves the real traffic: every
// fingerprint-corpus entry as pinned (indented) and re-encoded compactly,
// and every /v2/query body the server's golden test and the benchmark
// workloads send — the corpus entries as pinned, and the examples/
// design_space sweep and its 360× relaxation as json.Marshal writes them —
// decodes without falling back to encoding/json.
func TestDecodeSpecTraffic(t *testing.T) {
	entries, err := apilock.Corpus()
	if err != nil {
		t.Fatal(err)
	}
	bodies := map[string][]byte{}
	for _, e := range entries {
		bodies[e.Name] = e.Spec
		var compact bytes.Buffer
		if err := json.Compact(&compact, e.Spec); err != nil {
			t.Fatal(err)
		}
		bodies[e.Name+" (compact)"] = compact.Bytes()
	}
	for name, spec := range map[string]Spec{
		"design-space": {Kind: KindWmin, Sweep: &Sweep{
			Corners: []string{"worst", "mid", "best"},
			Nodes:   []string{"45nm", "22nm"},
			Yields:  []float64{0.90, 0.99},
		}},
		"relax-360": {Kind: KindWmin, RelaxFactor: 360},
	} {
		body, err := json.Marshal(spec)
		if err != nil {
			t.Fatal(err)
		}
		bodies[name] = body
	}
	for name, body := range bodies {
		if _, ok := scanSpec(body); !ok {
			t.Errorf("%s: the fast path declines %s", name, body)
		}
		checkDecodeSpec(t, body)
	}
}

// TestDecodeSpecFieldCoverage holds the fast path to every Spec and Sweep
// field: with each exported field set to a distinct non-zero value at
// once and alone, json.Marshal's bytes, compact and indented, decode on the
// fast path to the value encoding/json decodes. A field added to Spec but
// not to the decoder makes the fast path decline here.
func TestDecodeSpecFieldCoverage(t *testing.T) {
	check := func(label string, q *Spec) {
		t.Helper()
		compact, err := json.Marshal(q)
		if err != nil {
			t.Fatal(err)
		}
		indented, err := json.MarshalIndent(q, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		for _, body := range [][]byte{compact, indented} {
			if _, ok := scanSpec(body); !ok {
				t.Fatalf("%s: the fast path declines %s", label, body)
			}
			checkDecodeSpec(t, body)
		}
	}
	next := 0
	var all Spec
	fill(reflect.ValueOf(&all).Elem(), &next, nil)
	check("every field", &all)
	typ := reflect.TypeFor[Spec]()
	for i := range typ.NumField() {
		var one Spec
		setDistinct(reflect.ValueOf(&one).Elem().Field(i), &next)
		check("Spec."+typ.Field(i).Name, &one)
	}
	sweepType := reflect.TypeFor[Sweep]()
	for i := range sweepType.NumField() {
		one := Spec{Kind: KindPF, Sweep: &Sweep{}}
		setDistinct(reflect.ValueOf(one.Sweep).Elem().Field(i), &next)
		check("Sweep."+sweepType.Field(i).Name, &one)
	}
}

// TestParseErrorTexts pins Parse's error texts over DecodeSpec: the
// decode error behind the "query: decoding spec:" prefix, its own text for
// trailing data, and the validation error for a spec that decodes.
func TestParseErrorTexts(t *testing.T) {
	for body, want := range map[string]string{
		`{"kind":"pf","width_nm":155} {}`: "query: decoding spec: unexpected data after the spec",
		`{"kind":"pf","bogus":1}`:         `query: decoding spec: json: unknown field "bogus"`,
		`{"kind":"pf","rounds":1e3}`:      "query: decoding spec: json: cannot unmarshal number 1e3 into Go struct field Spec.rounds of type int",
		`{"kind":"pf"`:                    "query: decoding spec: unexpected EOF",
	} {
		_, err := Parse([]byte(body))
		if errText(err) != want || !IsRequestError(err) {
			t.Errorf("Parse(%s) = %v, want request error %q", body, err, want)
		}
	}
	if _, err := Parse([]byte(`{"kind":"pf","width_nm":155}`)); err != nil {
		t.Errorf("Parse of a valid pf spec: %v", err)
	}
	if _, err := Parse([]byte(`{"kind":"nope"}`)); err == nil || strings.Contains(err.Error(), "decoding") {
		t.Errorf("Parse of an unknown kind = %v, want a validation error", err)
	}
}

// BenchmarkDecodeSpec compares DecodeSpec with the encoding/json strict
// decode it replaces, over the examples/design_space /v2/query body (12
// specs) as json.Marshal writes it. Registered in BENCH_BASELINE.json with
// the ratio gate edge/stdlib ≤ 0.3.
func BenchmarkDecodeSpec(b *testing.B) {
	body := []byte(`{"kind":"wmin","sweep":{"corners":["worst","mid","best"],"nodes":["45nm","22nm"],"yields":[0.9,0.99]}}`)
	if _, ok := scanSpec(body); !ok {
		b.Fatal("the fast path declines the design-space body")
	}
	for _, arm := range []struct {
		name   string
		decode func() (Spec, error)
	}{
		{"stdlib", func() (Spec, error) { return stdlibDecodeSpec(bytes.NewReader(body)) }},
		{"edge", func() (Spec, error) { return DecodeSpec(body, nil) }},
	} {
		b.Run(arm.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := arm.decode(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
