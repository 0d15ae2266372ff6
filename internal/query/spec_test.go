package query

import (
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"testing"
)

func f64(v float64) *float64 { return &v }

func TestValidateRejects(t *testing.T) {
	cases := []struct {
		name string
		spec Spec
		want string // substring of the error
	}{
		{"unknown kind", Spec{Kind: "pff"}, "unknown kind"},
		{"missing width", Spec{Kind: KindPF}, "width"},
		{"negative width", Spec{Kind: KindPF, WidthNM: -3}, "width"},
		{"unknown corner", Spec{Kind: KindPF, WidthNM: 100, Corner: "oops"}, "unknown corner"},
		{"corner and pm", Spec{Kind: KindPF, WidthNM: 100, Corner: "worst", PM: f64(0.3), PRS: f64(0.1)}, "not both"},
		{"pm without prs", Spec{Kind: KindPF, WidthNM: 100, PM: f64(0.3)}, "both pm and prs"},
		{"pm out of range", Spec{Kind: KindPF, WidthNM: 100, PM: f64(2), PRS: f64(0)}, "out of [0,1]"},
		{"unknown node", Spec{Kind: KindPF, WidthNM: 100, Node: "7nm"}, "unknown node"},
		{"bad yield", Spec{Kind: KindWmin, DesiredYield: 1.5}, "yield"},
		{"bad relax", Spec{Kind: KindWmin, RelaxFactor: 0.5}, "relax"},
		{"missing scenario", Spec{Kind: KindRowYield, WidthNM: 100}, "scenario"},
		{"unknown scenario", Spec{Kind: KindRowYield, WidthNM: 100, Scenario: "sideways"}, "unknown scenario"},
		{"tiny rounds", Spec{Kind: KindRowYield, WidthNM: 100, Scenario: "aligned", Rounds: 1}, "rounds"},
		{"scenario on pf", Spec{Kind: KindPF, WidthNM: 100, Scenario: "aligned"}, "only to rowyield"},
		{"prm on pf", Spec{Kind: KindPF, WidthNM: 100, PRM: f64(0.9)}, "only to noise"},
		{"experiments on pf", Spec{Kind: KindPF, WidthNM: 100, Experiments: []string{"table1"}}, "only to experiment"},
		{"no experiments", Spec{Kind: KindExperiment}, "no experiments"},
		{"unknown experiment", Spec{Kind: KindExperiment, Experiments: []string{"tabel1"}}, "did you mean"},
		{"corner on experiment", Spec{Kind: KindExperiment, Corner: "worst", Experiments: []string{"table1"}}, "no corner"},
		{"sweep on experiment", Spec{Kind: KindExperiment, Experiments: []string{"table1"},
			Sweep: &Sweep{Corners: []string{"worst"}}}, "do not sweep"},
		{"bad sweep corner", Spec{Kind: KindPF, WidthNM: 100, Sweep: &Sweep{Corners: []string{"oops"}}}, "unknown corner"},
		{"sweep corners with pm", Spec{Kind: KindPF, WidthNM: 100, PM: f64(0.3), PRS: f64(0.1),
			Sweep: &Sweep{Corners: []string{"worst"}}}, "explicit pm/prs"},
		{"widths axis on wmin", Spec{Kind: KindWmin, Sweep: &Sweep{WidthsNM: []float64{100}}}, "solves for the width"},
		{"yields axis on pf", Spec{Kind: KindPF, WidthNM: 100, Sweep: &Sweep{Yields: []float64{0.9}}}, "apply to wmin"},
		{"scenarios axis on pf", Spec{Kind: KindPF, WidthNM: 100, Sweep: &Sweep{Scenarios: []string{"aligned"}}}, "apply to rowyield"},
		{"relax axis on pf", Spec{Kind: KindPF, WidthNM: 100, Sweep: &Sweep{RelaxFactors: []float64{2}}}, "apply to wmin"},
	}
	for _, tc := range cases {
		err := tc.spec.Validate()
		if err == nil {
			t.Errorf("%s: Validate() accepted %+v", tc.name, tc.spec)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

func TestValidateAccepts(t *testing.T) {
	for _, spec := range []Spec{
		{Kind: KindPF, WidthNM: 155},
		{Kind: KindPF, WidthNM: 155, Corner: "best", Node: "22nm"},
		{Kind: KindPF, WidthNM: 155, PM: f64(0.2), PRS: f64(0.1)},
		{Kind: KindWmin},
		{Kind: KindWmin, DesiredYield: 0.99, RelaxFactor: 360, Node: "16nm"},
		{Kind: KindRowYield, WidthNM: 155, Scenario: "aligned", KRows: 1000},
		{Kind: KindRowYield, WidthNM: 155, Scenario: "unaligned", Rounds: 100,
			Offsets: []float64{0, 50}, OffsetProbs: []float64{0.5, 0.5}},
		{Kind: KindNoise, WidthNM: 155, PRM: f64(0.999), RatioThreshold: 0.2},
		{Kind: KindExperiment, Experiments: []string{"all", "ext-noise"}},
		{Kind: KindPF, WidthNM: 155, Sweep: &Sweep{Corners: []string{"worst", "best"},
			Nodes: []string{"45nm", "22nm"}, WidthsNM: []float64{103, 155}}},
		{Kind: KindWmin, Sweep: &Sweep{Yields: []float64{0.9, 0.99}, RelaxFactors: []float64{1, 360}}},
	} {
		if err := spec.Validate(); err != nil {
			t.Errorf("Validate(%+v) = %v", spec, err)
		}
	}
}

// Equivalent spellings of the same computation must share one fingerprint.
func TestCanonicalEquivalence(t *testing.T) {
	groups := [][]Spec{
		{
			{Kind: KindPF, WidthNM: 155},
			{Kind: KindPF, WidthNM: 155, Corner: "worst"},
			{Kind: KindPF, WidthNM: 155, Corner: "pm=33%, pRs=30%"},
			{Kind: KindPF, WidthNM: 155, Node: "45nm"},
			// Stray fields a pf query never reads must not split the cache.
			{Kind: KindPF, WidthNM: 155, KRows: 7, Seed: 99},
		},
		{
			{Kind: KindWmin, Corner: "mid"},
			{Kind: KindWmin, Corner: "pm=33%, pRs=0%", WidthNM: 155},
			// Relax factor 1 is the uncorrelated default.
			{Kind: KindWmin, Corner: "mid", RelaxFactor: 1},
		},
		{
			// The default Monte Carlo budget spelled out is the default, and
			// spelling out the calibrated pitch law is the calibrated law.
			{Kind: KindRowYield, WidthNM: 155, Scenario: "unaligned"},
			{Kind: KindRowYield, WidthNM: 155, Scenario: "unaligned", Rounds: DefaultRowRounds},
			{Kind: KindRowYield, WidthNM: 155, Scenario: "unaligned", PitchMeanNM: 4, PitchSigmaRatio: 2.3},
		},
		{
			{Kind: KindExperiment, Experiments: []string{"all"}},
			{Kind: KindExperiment, Experiments: []string{"fig2.1", "fig2.2a", "fig2.2b", "table1", "fig3.1", "fig3.2", "fig3.3", "table2"}},
		},
	}
	for gi, group := range groups {
		var first string
		for i, spec := range group {
			_, fp, err := spec.Canonical()
			if err != nil {
				t.Fatalf("group %d spec %d: %v", gi, i, err)
			}
			if i == 0 {
				first = fp
			} else if fp != first {
				t.Errorf("group %d spec %d: fingerprint %s != %s", gi, i, fp, first)
			}
		}
	}

	// Distinct computations must not collide.
	distinct := []Spec{
		{Kind: KindPF, WidthNM: 155},
		{Kind: KindPF, WidthNM: 156},
		{Kind: KindPF, WidthNM: 155, Corner: "mid"},
		{Kind: KindPF, WidthNM: 155, Node: "22nm"},
		{Kind: KindPF, WidthNM: 155, GridStepNM: 0.1},
		{Kind: KindWmin},
		{Kind: KindRowYield, WidthNM: 155, Scenario: "aligned"},
		{Kind: KindRowYield, WidthNM: 155, Scenario: "aligned", KRows: 10},
		{Kind: KindNoise, WidthNM: 155},
	}
	seen := map[string]int{}
	for i, spec := range distinct {
		_, fp, err := spec.Canonical()
		if err != nil {
			t.Fatalf("distinct %d: %v", i, err)
		}
		if j, dup := seen[fp]; dup {
			t.Errorf("specs %d and %d collide on %s", i, j, fp)
		}
		seen[fp] = i
	}
}

// The fingerprint must be stable across processes: pin one value so an
// accidental format change (which would invalidate every stored ETag)
// fails loudly.
func TestFingerprintPinned(t *testing.T) {
	_, fp, err := Spec{Kind: KindPF, WidthNM: 155}.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	const pinned = "qs1-3acc3599c7f25d47813f4e0e"
	if fp != pinned {
		t.Fatalf("fingerprint = %s, want %s (format change? bump the qs prefix and this pin)", fp, pinned)
	}
}

// expandSpec plans q and expands the plan into its concrete specs.
func expandSpec(q Spec) ([]Spec, error) {
	p, err := q.Plan()
	if err != nil {
		return nil, err
	}
	specs, _, err := p.expand()
	return specs, err
}

func TestExpandCartesianProduct(t *testing.T) {
	spec := Spec{
		Kind:    KindPF,
		WidthNM: 155,
		Sweep: &Sweep{
			Corners:  []string{"worst", "mid", "best"},
			Nodes:    []string{"45nm", "22nm"},
			WidthsNM: []float64{103, 155},
		},
	}
	if n := spec.ExpandCount(); n != 12 {
		t.Fatalf("ExpandCount = %d, want 12", n)
	}
	specs, err := expandSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 12 {
		t.Fatalf("len = %d, want 12", len(specs))
	}
	// Every combination appears exactly once, no spec keeps sweep axes, and
	// every fingerprint is distinct.
	type combo struct {
		corner, node string
		width        float64
	}
	seen := map[combo]bool{}
	fps := map[string]bool{}
	for i, c := range specs {
		if c.Sweep != nil {
			t.Fatalf("spec %d kept sweep axes", i)
		}
		_, fp, err := c.Canonical()
		if err != nil {
			t.Fatalf("spec %d: %v", i, err)
		}
		if fps[fp] {
			t.Fatalf("duplicate fingerprint %s", fp)
		}
		fps[fp] = true
		k := combo{c.Corner, c.Node, c.WidthNM}
		if seen[k] {
			t.Fatalf("duplicate combination %+v", k)
		}
		seen[k] = true
	}
	for _, corner := range []string{"worst", "mid", "best"} {
		for _, node := range []string{"", "22nm"} { // canonical 45nm = ""
			for _, width := range []float64{103, 155} {
				if !seen[combo{corner, node, width}] {
					t.Errorf("missing combination corner=%s node=%q width=%g", corner, node, width)
				}
			}
		}
	}

	// Deterministic order: corners vary slowest, widths fastest.
	if specs[0].Corner != "worst" || specs[0].Node != "" || specs[0].WidthNM != 103 {
		t.Errorf("specs[0] = %+v", specs[0])
	}
	if specs[1].WidthNM != 155 || specs[1].Corner != "worst" {
		t.Errorf("specs[1] = %+v", specs[1])
	}
	if specs[11].Corner != "best" || specs[11].Node != "22nm" || specs[11].WidthNM != 155 {
		t.Errorf("specs[11] = %+v", specs[11])
	}

	// Expansion is reproducible.
	again, err := expandSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(specs, again) {
		t.Fatal("expansion not deterministic")
	}
}

func TestExpandWithoutSweep(t *testing.T) {
	specs, err := expandSpec(Spec{Kind: KindPF, WidthNM: 155})
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 1 || specs[0].Kind != KindPF || specs[0].WidthNM != 155 {
		t.Fatalf("specs = %+v", specs)
	}
}

// Property check over many random axis sizes: count is the product, order
// is deterministic and every expanded spec validates.
func TestExpandCountProperty(t *testing.T) {
	corners := []string{"worst", "mid", "best"}
	nodes := []string{"45nm", "32nm", "22nm", "16nm"}
	for nc := 0; nc <= 3; nc++ {
		for nn := 0; nn <= 4; nn++ {
			for nw := 0; nw <= 3; nw++ {
				spec := Spec{Kind: KindPF, WidthNM: 200, Sweep: &Sweep{}}
				spec.Sweep.Corners = corners[:nc]
				spec.Sweep.Nodes = nodes[:nn]
				for i := 0; i < nw; i++ {
					spec.Sweep.WidthsNM = append(spec.Sweep.WidthsNM, 100+10*float64(i))
				}
				want := max(nc, 1) * max(nn, 1) * max(nw, 1)
				if n := spec.ExpandCount(); n != want {
					t.Fatalf("nc=%d nn=%d nw=%d: ExpandCount=%d want %d", nc, nn, nw, n, want)
				}
				specs, err := expandSpec(spec)
				if err != nil {
					t.Fatalf("nc=%d nn=%d nw=%d: %v", nc, nn, nw, err)
				}
				if len(specs) != want {
					t.Fatalf("nc=%d nn=%d nw=%d: len=%d want %d", nc, nn, nw, len(specs), want)
				}
				for _, c := range specs {
					if err := c.Validate(); err != nil {
						t.Fatalf("expanded spec invalid: %v", err)
					}
				}
			}
		}
	}
}

func TestParseStrict(t *testing.T) {
	spec, err := Parse([]byte(`{"kind": "pf", "width_nm": 155, "corner": "best"}`))
	if err != nil {
		t.Fatal(err)
	}
	if spec.Kind != KindPF || spec.WidthNM != 155 || spec.Corner != "best" {
		t.Fatalf("spec = %+v", spec)
	}
	if _, err := Parse([]byte(`{"kind": "pf", "width_nm": 155, "widthnm": 1}`)); err == nil {
		t.Fatal("unknown field accepted")
	}
	if _, err := Parse([]byte(`{"kind": "pf"}`)); err == nil {
		t.Fatal("invalid spec accepted")
	}
	// One spec, then nothing but whitespace.
	if _, err := Parse([]byte("{\"kind\":\"pf\",\"width_nm\":155} \n\t")); err != nil {
		t.Fatalf("trailing whitespace rejected: %v", err)
	}
	for _, data := range []string{
		`{"kind":"pf","width_nm":155} {"kind":"wmin"}`,
		`{"kind":"pf","width_nm":155}xyz`,
		`{"kind":"pf","width_nm":155}]`,
	} {
		if _, err := Parse([]byte(data)); !IsRequestError(err) {
			t.Errorf("Parse(%s): err = %v, want a request error", data, err)
		}
	}
}

// Round-trip: a marshaled spec decodes back to a deeply equal value.
func TestSpecJSONRoundTrip(t *testing.T) {
	specs := []Spec{
		{Kind: KindPF, WidthNM: 155},
		{Kind: KindPF, WidthNM: 155, PM: f64(0.25), PRS: f64(0.125), GridStepNM: 0.1, MaxWidthNM: 200},
		{Kind: KindRowYield, WidthNM: 155, Scenario: "unaligned", Rounds: 500, KRows: 1e6,
			Offsets: []float64{0, 190, 380}, OffsetProbs: []float64{0.5, 0.25, 0.25}, Seed: 42},
		{Kind: KindNoise, WidthNM: 103, PRM: f64(0.99995), RatioThreshold: 0.15, M: 1e8, DesiredYield: 0.9},
		{Kind: KindExperiment, Experiments: []string{"table1", "ext-pitch"}},
		{Kind: KindWmin, Node: "22nm", Sweep: &Sweep{
			Corners: []string{"worst", "best"}, Yields: []float64{0.9, 0.99}, RelaxFactors: []float64{1, 360}}},
	}
	for i, spec := range specs {
		data, err := json.Marshal(spec)
		if err != nil {
			t.Fatalf("spec %d: %v", i, err)
		}
		var back Spec
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatalf("spec %d: %v", i, err)
		}
		if !reflect.DeepEqual(spec, back) {
			t.Fatalf("spec %d: round trip %+v != %+v", i, back, spec)
		}
		// And the canonical fingerprint survives the trip.
		_, fp1, err1 := spec.Canonical()
		_, fp2, err2 := back.Canonical()
		if (err1 == nil) != (err2 == nil) || (err1 == nil && fp1 != fp2) {
			t.Fatalf("spec %d: fingerprint drifted across round trip", i)
		}
	}
}

func TestResolveCorner(t *testing.T) {
	for i, short := range CornerNames() {
		p, name, err := ResolveCorner(short)
		if err != nil || name != short {
			t.Fatalf("ResolveCorner(%q) = %v, %v", short, name, err)
		}
		if p.PerCNTFailure() < 0 || p.PerCNTFailure() > 1 {
			t.Fatalf("corner %d: pf out of range", i)
		}
	}
	if _, name, err := ResolveCorner(""); err != nil || name != "worst" {
		t.Fatalf(`ResolveCorner("") = %v, %v`, name, err)
	}
	if _, _, err := ResolveCorner("oops"); err == nil {
		t.Fatal("unknown corner accepted")
	}
}

func TestExpandSanityBound(t *testing.T) {
	// 101^3 > 1<<20: the sweep must be rejected before materialization.
	var widths []float64
	for i := 0; i < 101; i++ {
		widths = append(widths, 100+float64(i))
	}
	var yields, relax []float64
	for i := 0; i < 101; i++ {
		yields = append(yields, 0.5+float64(i)*0.004)
		relax = append(relax, 1+float64(i))
	}
	spec := Spec{Kind: KindWmin, Sweep: &Sweep{Yields: yields, RelaxFactors: relax}}
	// 101×101 is fine...
	if err := spec.Validate(); err != nil {
		t.Fatalf("10201-spec sweep rejected: %v", err)
	}
	// ...but 1025×1025 > 1<<20 is not.
	yields, relax = nil, nil
	for i := 0; i < 1025; i++ {
		yields = append(yields, float64(i+1)/1100)
		relax = append(relax, 1+float64(i))
	}
	big := Spec{Kind: KindWmin, Sweep: &Sweep{Yields: yields, RelaxFactors: relax}}
	err := big.Validate()
	if err == nil || !strings.Contains(err.Error(), "sanity bound") {
		t.Fatalf("oversized sweep: err = %v", err)
	}
}

// Axis products that overflow int must saturate, not wrap: a wrapped count
// of 0 would sail past every size bound and then OOM in the expansion.
func TestExpandCountOverflowSaturates(t *testing.T) {
	axis := make([]float64, 65536)
	for i := range axis {
		axis[i] = 100 + float64(i)/1000
	}
	corners := make([]string, 65536)
	nodes := make([]string, 65536)
	scenarios := make([]string, 65536)
	for i := range corners {
		corners[i] = "worst"
		nodes[i] = "45nm"
		scenarios[i] = "aligned"
	}
	// 65536^4 = 2^64 wraps to exactly 0 under naive multiplication.
	spec := Spec{Kind: KindRowYield, WidthNM: 155, Scenario: "aligned", Sweep: &Sweep{
		Corners: corners, Nodes: nodes, WidthsNM: axis, Scenarios: scenarios,
	}}
	if n := spec.ExpandCount(); n <= maxExpansion {
		t.Fatalf("ExpandCount = %d, want saturation above %d", n, maxExpansion)
	}
	err := spec.Validate()
	if err == nil || !strings.Contains(err.Error(), "sanity bound") {
		t.Fatalf("overflowing sweep: err = %v", err)
	}
	if _, err := expandSpec(spec); err == nil {
		t.Fatal("Plan accepted an overflowing sweep")
	}
}

// Caller mistakes are marked RequestError; transports map them to 4xx.
func TestRequestErrorClassification(t *testing.T) {
	if _, err := Parse([]byte(`{"kind": "pff"}`)); !IsRequestError(err) {
		t.Fatalf("validation error not a request error: %v", err)
	}
	if _, _, err := (Spec{Kind: "pff"}).Canonical(); !IsRequestError(err) {
		t.Fatalf("canonical error not a request error: %v", err)
	}
	if IsRequestError(nil) || IsRequestError(errors.New("sweep failed")) {
		t.Fatal("non-request errors misclassified")
	}
}
