package query

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"testing"
)

// appendCompact is the compact form of Result.AppendIndentJSON: r's
// json.Marshal encoding appended to dst, or dst and false where the
// appenders decline.
func appendCompact(r *Result, dst []byte) ([]byte, bool) {
	return r.appendWire(wire{b: dst, ok: true})
}

// wireAppenders maps each wire type to its appender, called on a pointer
// to a value of that type.
var wireAppenders = map[reflect.Type]func(v any) ([]byte, bool){
	reflect.TypeFor[Spec](): func(v any) ([]byte, bool) { return appendSpec(nil, v.(*Spec)) },
	reflect.TypeFor[Sweep](): func(v any) ([]byte, bool) {
		w := wire{ok: true}.sweep(v.(*Sweep))
		return w.b, w.ok
	},
	reflect.TypeFor[Result](): func(v any) ([]byte, bool) { return appendCompact(v.(*Result), nil) },
	reflect.TypeFor[PFResult](): func(v any) ([]byte, bool) {
		w := wire{ok: true}.pf(v.(*PFResult))
		return w.b, w.ok
	},
	reflect.TypeFor[WminResult](): func(v any) ([]byte, bool) {
		w := wire{ok: true}.wmin(v.(*WminResult))
		return w.b, w.ok
	},
	reflect.TypeFor[RowYieldResult](): func(v any) ([]byte, bool) {
		w := wire{ok: true}.rowYield(v.(*RowYieldResult))
		return w.b, w.ok
	},
	reflect.TypeFor[NoiseResult](): func(v any) ([]byte, bool) {
		w := wire{ok: true}.noise(v.(*NoiseResult))
		return w.b, w.ok
	},
}

// declinedFields are the Result fields whose presence makes appendCompact
// decline: encoding/json encodes those bodies.
var declinedFields = map[string]bool{"Experiments": true, "Cost": true}

// assertWireEqual requires the appender's bytes for *v to be json.Marshal's.
func assertWireEqual(t *testing.T, label string, v any) {
	t.Helper()
	want, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("%s: json.Marshal: %v", label, err)
	}
	got, ok := wireAppenders[reflect.TypeOf(v).Elem()](v)
	if !ok {
		t.Fatalf("%s: appender declined a value json.Marshal encodes:\n%s", label, want)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: appender bytes differ from json.Marshal\n got: %s\nwant: %s", label, got, want)
	}
}

// fill sets every exported field of the struct v points to (recursing into
// struct and pointer-to-struct fields) to a distinct non-zero value drawn
// from *next, skipping the fields skip names.
func fill(v reflect.Value, next *int, skip map[string]bool) {
	t := v.Type()
	for i := range t.NumField() {
		f := t.Field(i)
		if !f.IsExported() || skip[f.Name] {
			continue
		}
		setDistinct(v.Field(i), next)
	}
}

// setDistinct sets fv to a non-zero value unique to *next, advancing it.
// Floats cycle through magnitudes on both sides of encoding/json's
// exponent-format switch, so one pass exercises both formats.
func setDistinct(fv reflect.Value, next *int) {
	*next++
	k := *next
	scales := []float64{1, 1e-9, 3.5e22, 0.125, 1e-6, 1e21}
	float := func() float64 { return (float64(k) + 0.25) * scales[k%len(scales)] }
	switch fv.Kind() {
	case reflect.String:
		fv.SetString(fmt.Sprintf("s%d", k))
	case reflect.Float64:
		fv.SetFloat(float())
	case reflect.Int:
		fv.SetInt(int64(k))
	case reflect.Uint64:
		fv.SetUint(uint64(k) << 40)
	case reflect.Bool:
		fv.SetBool(true)
	case reflect.Pointer:
		p := reflect.New(fv.Type().Elem())
		if p.Elem().Kind() == reflect.Struct {
			fill(p.Elem(), next, nil)
		} else {
			setDistinct(p.Elem(), next)
		}
		fv.Set(p)
	case reflect.Struct:
		fill(fv, next, nil)
	case reflect.Slice:
		s := reflect.MakeSlice(fv.Type(), 2, 2)
		setDistinct(s.Index(0), next)
		setDistinct(s.Index(1), next)
		fv.Set(s)
	default:
		panic(fmt.Sprintf("setDistinct: no distinct value for kind %s", fv.Kind()))
	}
}

// TestWireFieldCoverage holds every appender to json.Marshal field by
// field: with every exported field set to a distinct non-zero value at
// once, and with each field set alone. A field added to a wire type but not
// to its appender fails here, instead of silently dropping out of spec
// fingerprints (an ETag and cache collision) or out of served bodies.
func TestWireFieldCoverage(t *testing.T) {
	for typ := range wireAppenders {
		skip := map[string]bool{}
		if typ == reflect.TypeFor[Result]() {
			skip = declinedFields
		}
		next := 0
		all := reflect.New(typ)
		fill(all.Elem(), &next, skip)
		assertWireEqual(t, typ.Name()+" (every field)", all.Interface())
		for i := range typ.NumField() {
			f := typ.Field(i)
			if !f.IsExported() || skip[f.Name] {
				continue
			}
			one := reflect.New(typ)
			setDistinct(one.Elem().Field(i), &next)
			assertWireEqual(t, typ.Name()+"."+f.Name, one.Interface())
		}
		assertWireEqual(t, typ.Name()+" (zero)", reflect.New(typ).Interface())
	}
	// An empty but present sweep encodes as {}, an absent one not at all.
	assertWireEqual(t, "Spec.Sweep empty", &Spec{Kind: KindPF, Sweep: &Sweep{}})
}

// TestWireDeclines pins where appendCompact hands a Result to encoding/json:
// experiment artifacts, a cost breakdown and any non-finite float.
func TestWireDeclines(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(-1)
	for name, r := range map[string]Result{
		"experiments": {Spec: Spec{Kind: KindExperiment}, Experiments: []ResultJSON{{Name: "table1"}}},
		"cost":        {Spec: Spec{Kind: KindPF}, Cost: &CostBreakdown{}},
		"nan payload": {Spec: Spec{Kind: KindPF}, PF: &PFResult{PF: nan}},
		"inf spec":    {Spec: Spec{Kind: KindPF, WidthNM: inf}},
		"nan pointer": {Spec: Spec{Kind: KindPF, PM: &nan}},
		"nan slice":   {Spec: Spec{Kind: KindRowYield, Offsets: []float64{1, nan}}},
		"inf sweep":   {Spec: Spec{Kind: KindPF, Sweep: &Sweep{WidthsNM: []float64{inf}}}},
	} {
		dst := []byte("prefix")
		got, ok := appendCompact(&r, dst)
		if ok || string(got) != "prefix" {
			t.Errorf("%s: appendCompact = %q, %v; want the untouched prefix and false", name, got, ok)
		}
	}
}

// FuzzWireJSON holds the appenders to json.Marshal on arbitrary floats and
// strings: wherever json.Marshal succeeds the appender writes its bytes,
// and wherever it fails (NaN, ±Inf) the appender declines. The seeds sit
// on the float format switch (1e-6, 1e21), at -0, subnormals and
// math.MaxFloat64, and on the strings encoding/json escapes: <>&, U+2028/U+2029,
// control bytes and invalid UTF-8. `go test` runs the seeds; explore with
// `go test -fuzz FuzzWireJSON ./internal/query`.
func FuzzWireJSON(f *testing.F) {
	for _, seed := range []struct {
		x float64
		s string
	}{
		{1e-6, "worst"},
		{math.Nextafter(1e-6, 0), "pm=33%, pRs=30%"},
		{1e21, "<script>"},
		{math.Nextafter(1e21, 0), "a&b"},
		{math.Copysign(0, -1), "  "},
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
		specs := []Spec{
			{Kind: s, Corner: s, WidthNM: x, PM: &y, Node: s, Seed: math.Float64bits(x)},
			{Kind: KindRowYield, Scenario: s, Offsets: []float64{x, y}, RelErrTarget: y, Rounds: int(int32(math.Float64bits(x)))},
			{Kind: KindWmin, Sweep: &Sweep{Corners: []string{s, s}, Yields: []float64{x}, RelaxFactors: []float64{y, x}}},
		}
		results := []Result{
			{Spec: specs[0], Fingerprint: s, PF: &PFResult{Corner: s, Node: s, WidthNM: x, PFCNT: y, PF: x}},
			{Spec: specs[1], RowYield: &RowYieldResult{Corner: s, Scenario: s, PRF: x, StdErr: y, MCMethod: s, TiltTheta: x}},
			{Spec: specs[2], Wmin: &WminResult{Corner: s, WminNM: x, DevicePF: y}},
			{Spec: specs[0], Noise: &NoiseResult{Corner: s, ViolationProb: x, RequiredPRM: y}},
		}
		for i := range results {
			want, err := json.Marshal(&results[i])
			got, ok := appendCompact(&results[i], nil)
			switch {
			case err != nil && ok:
				t.Fatalf("result %d: appender encoded a value json.Marshal rejects (%v): %s", i, err, got)
			case err == nil && !ok:
				t.Fatalf("result %d: appender declined a value json.Marshal encodes: %s", i, want)
			case err == nil && !bytes.Equal(got, want):
				t.Fatalf("result %d: appender bytes differ\n got: %s\nwant: %s", i, got, want)
			}
		}
	})
}
