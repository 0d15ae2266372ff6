package query

import (
	"context"
	"math"
	"strings"
	"testing"

	"github.com/cnfet/yieldlab/internal/obs"
)

func TestValidateRareEventFields(t *testing.T) {
	base := Spec{Kind: KindRowYield, WidthNM: 155, Scenario: "unaligned",
		Offsets: []float64{0, 50}, OffsetProbs: []float64{0.5, 0.5}}

	accept := []func(*Spec){
		func(q *Spec) { q.MCMethod = "tilted" },
		func(q *Spec) { q.MCMethod = "auto"; q.RelErrTarget = 0.1 },
		func(q *Spec) { q.RelErrTarget = 0.01 },
		func(q *Spec) { q.MCMethod = "splitting" },
	}
	for i, mod := range accept {
		q := base
		mod(&q)
		if err := q.Validate(); err != nil {
			t.Errorf("accept case %d: Validate(%+v) = %v", i, q, err)
		}
	}

	reject := []struct {
		mod  func(*Spec)
		want string
	}{
		{func(q *Spec) { q.MCMethod = "importance" }, "unknown method"},
		{func(q *Spec) { q.RelErrTarget = -0.1 }, "rel err target"},
		{func(q *Spec) { q.RelErrTarget = 0.9 }, "rel err target"},
		{func(q *Spec) {
			q.Kind = KindPF
			q.Scenario = ""
			q.Offsets = nil
			q.OffsetProbs = nil
			q.MCMethod = "tilted"
		},
			"only to rowyield"},
		{func(q *Spec) {
			q.Kind = KindPF
			q.Scenario = ""
			q.Offsets = nil
			q.OffsetProbs = nil
			q.RelErrTarget = 0.1
		},
			"only to rowyield"},
	}
	for i, tc := range reject {
		q := base
		tc.mod(&q)
		err := q.Validate()
		if err == nil {
			t.Errorf("reject case %d: Validate accepted %+v", i, q)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("reject case %d: error %q does not mention %q", i, err, tc.want)
		}
	}
}

// TestCanonicalRareEventEquivalence: equivalent spellings of the same
// adaptive computation share a fingerprint, and the new fields never
// perturb fingerprints of specs that cannot reach the adaptive path.
func TestCanonicalRareEventEquivalence(t *testing.T) {
	groups := [][]Spec{
		{
			// "plain" is the implicit default method.
			{Kind: KindRowYield, WidthNM: 155, Scenario: "unaligned", RelErrTarget: 0.1},
			{Kind: KindRowYield, WidthNM: 155, Scenario: "unaligned", MCMethod: "plain", RelErrTarget: 0.1},
		},
		{
			// Spelling out the default target and the default adaptive
			// round cap is the same computation as omitting them.
			{Kind: KindRowYield, WidthNM: 155, Scenario: "unaligned", MCMethod: "tilted"},
			{Kind: KindRowYield, WidthNM: 155, Scenario: "unaligned", MCMethod: "tilted",
				RelErrTarget: DefaultRelErrTarget},
			{Kind: KindRowYield, WidthNM: 155, Scenario: "unaligned", MCMethod: "tilted",
				Rounds: DefaultAdaptiveRounds},
		},
		{
			// Aligned rows never run Monte Carlo: estimator knobs are inert.
			{Kind: KindRowYield, WidthNM: 155, Scenario: "aligned"},
			{Kind: KindRowYield, WidthNM: 155, Scenario: "aligned", MCMethod: "tilted", RelErrTarget: 0.1},
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

	// Distinct estimator configurations are distinct computations.
	distinct := []Spec{
		{Kind: KindRowYield, WidthNM: 155, Scenario: "unaligned"},
		{Kind: KindRowYield, WidthNM: 155, Scenario: "unaligned", MCMethod: "tilted"},
		{Kind: KindRowYield, WidthNM: 155, Scenario: "unaligned", MCMethod: "splitting"},
		{Kind: KindRowYield, WidthNM: 155, Scenario: "unaligned", MCMethod: "auto"},
		{Kind: KindRowYield, WidthNM: 155, Scenario: "unaligned", RelErrTarget: 0.1},
		{Kind: KindRowYield, WidthNM: 155, Scenario: "unaligned", MCMethod: "tilted", RelErrTarget: 0.1},
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

// TestEvaluateRowYieldAdaptive drives the full adaptive path through
// the Session API: an explicit method plus relative-error target must
// surface the method, achieved error, and estimator diagnostics in the
// result, deterministically.
func TestEvaluateRowYieldAdaptive(t *testing.T) {
	s := newTestSession(t, Options{})
	ctx := context.Background()
	spec := Spec{Kind: KindRowYield, WidthNM: 155, Scenario: "unaligned",
		MCMethod: "tilted", RelErrTarget: 0.1,
		Offsets: []float64{0, 190, 380}, OffsetProbs: []float64{0.5, 0.25, 0.25}}
	a, err := s.Evaluate(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	ry := a.RowYield
	if ry.MCMethod != "tilted" {
		t.Fatalf("method echo = %q", ry.MCMethod)
	}
	if !(ry.PRF > 0) || !(ry.RelErr > 0) || ry.RelErr > 0.1 {
		t.Fatalf("adaptive estimate = %+v", ry)
	}
	if ry.TiltTheta == 0 {
		t.Fatalf("tilted run reported no tilt parameter: %+v", ry)
	}
	if ry.Rounds <= 0 || ry.StdErr <= 0 {
		t.Fatalf("diagnostics missing: %+v", ry)
	}
	b, err := s.Evaluate(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if *a.RowYield != *b.RowYield {
		t.Fatalf("adaptive evaluation not reproducible: %+v vs %+v", a.RowYield, b.RowYield)
	}

	// A plain adaptive run reports its method but no tilt diagnostics.
	plain, err := s.Evaluate(ctx, Spec{Kind: KindRowYield, WidthNM: 155, Scenario: "unaligned",
		RelErrTarget: 0.1, Offsets: []float64{0, 190, 380}, OffsetProbs: []float64{0.5, 0.25, 0.25}})
	if err != nil {
		t.Fatal(err)
	}
	if plain.RowYield.MCMethod != "plain" || plain.RowYield.TiltTheta != 0 || plain.RowYield.SplitLevels != 0 {
		t.Fatalf("plain adaptive diagnostics = %+v", plain.RowYield)
	}
}

// TestEvaluateAdaptiveRoundsBound: MaxRowRounds rejects (never clamps)
// the resolved adaptive cap, preserving ETag soundness.
func TestEvaluateAdaptiveRoundsBound(t *testing.T) {
	s := newTestSession(t, Options{MaxRowRounds: 100})
	_, err := s.Evaluate(context.Background(),
		Spec{Kind: KindRowYield, WidthNM: 155, Scenario: "unaligned", MCMethod: "tilted",
			Offsets: []float64{0}, OffsetProbs: []float64{1}})
	if err == nil {
		t.Fatal("default adaptive cap beyond MaxRowRounds accepted")
	}
	// An explicit budget inside the bound passes.
	res, err := s.Evaluate(context.Background(),
		Spec{Kind: KindRowYield, WidthNM: 155, Scenario: "unaligned", MCMethod: "plain",
			RelErrTarget: 0.5, Rounds: 96,
			Offsets: []float64{0}, OffsetProbs: []float64{1}})
	if err != nil {
		t.Fatal(err)
	}
	if res.RowYield.Rounds > 96 {
		t.Fatalf("adaptive run exceeded its budget: %+v", res.RowYield)
	}
}

// TestRoundsCapIncludesPilots: a spec's rounds cap the pilots and the main
// run together. The rounds the mc.pilot and mc.run spans report sum to the
// result's rounds, which never exceed the spec's, for plain, tilted and
// auto runs that do not fall through to splitting; small caps shrink the
// pilots instead of overrunning.
func TestRoundsCapIncludesPilots(t *testing.T) {
	s := newTestSession(t, Options{})
	for _, c := range []struct {
		method string
		width  float64
		rounds int
	}{
		{"plain", 155, 96},
		{"tilted", 155, 96},
		{"tilted", 155, 8192},
		{"tilted", 142.7, 20000},
		{"auto", 155, 96},
		{"auto", 103, 8192},
	} {
		tr := obs.New()
		res, err := s.Evaluate(obs.WithTracer(context.Background(), tr), Spec{Kind: KindRowYield,
			Scenario: "unaligned", WidthNM: c.width, Rounds: c.rounds, MCMethod: c.method, RelErrTarget: 0.1})
		if err != nil {
			t.Fatalf("%s/%g/%d: %v", c.method, c.width, c.rounds, err)
		}
		ry := res.RowYield
		if ry.MCMethod == "splitting" {
			t.Fatalf("%s/%g/%d fell through to splitting; pick a case that does not", c.method, c.width, c.rounds)
		}
		var spans uint64
		for _, root := range tr.Roots() {
			for _, sp := range root.Children() {
				if name := sp.Name(); name == "mc.run" || name == "mc.pilot" {
					spans += attrUint(sp, "rounds")
				}
			}
		}
		if spans != uint64(ry.Rounds) || ry.Rounds > c.rounds {
			t.Errorf("%s/%g/%d: spans report %d rounds, result %d, cap %d", c.method, c.width, c.rounds, spans, ry.Rounds, c.rounds)
		}
	}
}

// TestRoundsTooFewForPilots: a cap that cannot give each pilot 2 rounds
// within half of it is a request error naming the method's minimum.
func TestRoundsTooFewForPilots(t *testing.T) {
	s := newTestSession(t, Options{})
	for _, c := range []struct {
		method string
		rounds int
		min    string
	}{
		{"tilted", 15, "rounds ≥ 16"},
		{"auto", 23, "rounds ≥ 24"},
	} {
		_, err := s.Evaluate(context.Background(), Spec{Kind: KindRowYield, Scenario: "unaligned",
			WidthNM: 155, Rounds: c.rounds, MCMethod: c.method, RelErrTarget: 0.1})
		if !IsRequestError(err) || !strings.Contains(err.Error(), c.min) {
			t.Errorf("%s at %d rounds: err = %v, want a request error naming %q", c.method, c.rounds, err, c.min)
		}
		if _, err := s.Evaluate(context.Background(), Spec{Kind: KindRowYield, Scenario: "unaligned",
			WidthNM: 155, Rounds: c.rounds + 1, MCMethod: c.method, RelErrTarget: 0.1}); err != nil {
			t.Errorf("%s at the minimum %d rounds: %v", c.method, c.rounds+1, err)
		}
	}
}

// TestZeroPFAdaptiveAgreesWithFixed: a per-CNT failure probability of zero
// is not a zero row failure probability, because a CNFET whose window holds
// no CNT fails regardless. At 6 nm about a fifth of the windows are empty,
// and every estimator must count them: each method's adaptive estimate
// agrees with the fixed-budget one within 3σ and sits at or above the
// aligned floor device_pf.
func TestZeroPFAdaptiveAgreesWithFixed(t *testing.T) {
	s := newTestSession(t, Options{})
	ctx := context.Background()
	zero := 0.0
	spec := Spec{Kind: KindRowYield, Scenario: "unaligned", PM: &zero, PRS: &zero, WidthNM: 6,
		Offsets: []float64{0, 20, 40}, OffsetProbs: []float64{1, 1, 1}}
	fixed, err := s.Evaluate(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	fx := fixed.RowYield
	if !(fx.PRF >= fx.DevicePF) || !(fx.DevicePF > 0) {
		t.Fatalf("fixed-budget pRF %g below device_pf %g", fx.PRF, fx.DevicePF)
	}
	for _, method := range []string{"plain", "tilted", "splitting", "auto"} {
		q := spec
		q.MCMethod, q.RelErrTarget = method, 0.05
		res, err := s.Evaluate(ctx, q)
		if err != nil {
			t.Fatalf("%s: %v", method, err)
		}
		ry := res.RowYield
		if ry.Rounds == 0 || !(ry.PRF >= ry.DevicePF) {
			t.Errorf("%s: pRF %g over %d rounds, want ≥ device_pf %g", method, ry.PRF, ry.Rounds, ry.DevicePF)
		}
		if sigma := math.Hypot(fx.StdErr, ry.StdErr); math.Abs(ry.PRF-fx.PRF) > 3*sigma {
			t.Errorf("%s: pRF %g ± %g disagrees with fixed-budget %g ± %g", method, ry.PRF, ry.StdErr, fx.PRF, fx.StdErr)
		}
	}
}
