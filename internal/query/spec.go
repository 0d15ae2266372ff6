// Package query defines the one declarative request language shared by the
// yieldlab library facade, the cnfetyield CLI and the yieldserver HTTP
// service: a JSON-(de)serializable QuerySpec describing a point — or, with
// sweep axes, a whole cartesian design space — of the paper's implicit
// study space (processing corner × tech node × device width × yield target
// × row scenario), and a stateful Session that evaluates specs over a
// shared renewal sweep cache, an optional persistent sweep store and a
// bounded worker pool.
//
// The spec kinds map onto the paper's questions:
//
//	pf          device failure probability pF(W) (Eq. 2.2, Fig. 2.1)
//	wmin        chip-level minimum width (Eq. 2.5, Fig. 2.2b)
//	rowyield    row failure probability per growth/layout scenario (Table 1)
//	noise       noise-limited yield from surviving metallic CNTs ([Zhang 09b])
//	experiment  whole paper artifacts by name ("table1", "fig2.1", ...)
//
// A Spec is canonicalized by Canonical(): named corners, tech nodes and
// scenarios are normalized and fields irrelevant to the kind are zeroed, so
// equivalent requests share one stable fingerprint — the identity used for
// response caching and HTTP ETags. A Plan turns sweep axes into the
// deterministic cartesian product of concrete specs, opening the ROADMAP's
// pitch × corner × node × yield-target exploration as a single request.
//
//yield:compute
package query

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"

	"github.com/cnfet/yieldlab/internal/device"
	"github.com/cnfet/yieldlab/internal/experiments"
	"github.com/cnfet/yieldlab/internal/rareevent"
	"github.com/cnfet/yieldlab/internal/rowyield"
	"github.com/cnfet/yieldlab/internal/tech"
)

// The spec kinds.
const (
	KindPF         = "pf"
	KindWmin       = "wmin"
	KindRowYield   = "rowyield"
	KindNoise      = "noise"
	KindExperiment = "experiment"
)

// Kinds lists the spec kinds in documentation order.
func Kinds() []string {
	return []string{KindPF, KindWmin, KindRowYield, KindNoise, KindExperiment}
}

// Spec is one declarative yield query. The zero value of every optional
// field means "use the session default"; Validate reports which fields a
// kind requires. Specs marshal to stable JSON and round-trip losslessly.
type Spec struct {
	// Kind selects the computation: pf, wmin, rowyield, noise or experiment.
	Kind string `json:"kind"`

	// Corner names a Fig. 2.1 processing corner ("worst", "mid", "best" or
	// a full label like "pm=33%, pRs=30%"). Alternatively PM/PRS give the
	// explicit failure probabilities of Eq. 2.1; giving both is an error.
	Corner string   `json:"corner,omitempty"`
	PM     *float64 `json:"pm,omitempty"`
	PRS    *float64 `json:"prs,omitempty"`

	// Node names a technology node ("45nm", "32nm", "22nm", "16nm"). Widths
	// are interpreted at the 45 nm reference and scaled linearly to the node
	// while the CNT pitch stays at 4 nm — the paper's Section 2.2 rule.
	// Empty (or the reference node itself) means no scaling.
	Node string `json:"node,omitempty"`

	// WidthNM is the device width at the 45 nm reference, required by the
	// pf, rowyield and noise kinds.
	WidthNM float64 `json:"width_nm,omitempty"`

	// GridStepNM and MaxWidthNM override the renewal grid (0 = session
	// default). The grid is part of the result's identity: pF(155 nm) at
	// the worst corner is 3.1076e-9 on the 0.05 nm default grid and
	// 3.1174e-9 on a 0.1 nm grid.
	GridStepNM float64 `json:"grid_step_nm,omitempty"` //yield:allow(canonical) the default grid belongs to the session, so Canonical cannot normalize an explicitly spelled default and passes the field into the fingerprint as given
	MaxWidthNM float64 `json:"max_width_nm,omitempty"` //yield:allow(canonical) the default grid belongs to the session, so Canonical cannot normalize an explicitly spelled default and passes the field into the fingerprint as given

	// PitchMeanNM overrides the mean inter-CNT pitch (0 = the calibrated
	// 4 nm of [Deng 07]); PitchSigmaRatio the parent-normal σ/µ of the
	// truncated-normal pitch law (0 = the calibrated 2.3). Together they
	// open processing itself — CNT density and its variability — as sweep
	// coordinates next to the circuit-side knobs.
	PitchMeanNM     float64 `json:"pitch_mean_nm,omitempty"`
	PitchSigmaRatio float64 `json:"pitch_sigma_ratio,omitempty"`

	// M is the chip transistor count (wmin) or gate count (noise);
	// DesiredYield the chip yield target; RelaxFactor the failure-budget
	// relaxation of Eq. 3.1 (1 = uncorrelated baseline, MRmin ≈ 360 after
	// the aligned-active co-optimization). Zero = session defaults.
	M            float64 `json:"m,omitempty"`
	DesiredYield float64 `json:"desired_yield,omitempty"`
	RelaxFactor  float64 `json:"relax_factor,omitempty"`

	// Scenario selects the Table 1 growth/layout combination for rowyield:
	// "uncorrelated", "unaligned" or "aligned".
	Scenario string `json:"scenario,omitempty"`
	// Rounds is the Monte Carlo budget of the unaligned scenario
	// (0 = DefaultRowRounds). Under adaptive stopping — a positive
	// RelErrTarget or a non-plain MCMethod — it is the hard round cap
	// instead (0 = DefaultAdaptiveRounds).
	Rounds int `json:"rounds,omitempty"`
	// MCMethod selects the unaligned scenario's Monte Carlo estimator:
	// "plain" (the default exact-DP rounds), "tilted" (importance sampling
	// by exponential tilting of the pitch law), "splitting" (multilevel
	// splitting) or "auto" (pilot-measured best). Any non-plain method
	// implies adaptive stopping.
	MCMethod string `json:"mc_method,omitempty"`
	// RelErrTarget, when positive, switches the unaligned scenario to
	// relative-error-targeted adaptive stopping: simulation proceeds in
	// deterministic doubling blocks until the estimate's relative standard
	// error reaches the target or the Rounds cap is spent. Zero with a
	// non-plain MCMethod means DefaultRelErrTarget.
	RelErrTarget float64 `json:"rel_err_target,omitempty"`
	// KRows, when positive, additionally reports the Eq. 3.1 chip yield
	// (1-pRF)^KRows.
	KRows float64 `json:"krows,omitempty"`
	// Offsets/OffsetProbs optionally replace the library-measured lateral
	// offset distribution of the unaligned scenario.
	Offsets     []float64 `json:"offsets,omitempty"`
	OffsetProbs []float64 `json:"offset_probs,omitempty"`

	// PRM is the metallic-removal efficiency pRm of the noise kind
	// (nil = 0.9999, the paper's quoted requirement); RatioThreshold the
	// tolerable metallic-to-semiconducting current ratio (0 = default).
	PRM            *float64 `json:"prm,omitempty"`
	RatioThreshold float64  `json:"ratio_threshold,omitempty"`

	// Experiments lists artifact names for the experiment kind; "all"
	// expands to the paper set.
	Experiments []string `json:"experiments,omitempty"`

	// Seed overrides the Monte Carlo root seed (0 = session default).
	Seed uint64 `json:"seed,omitempty"`

	// Sweep, when non-nil, expands this spec into the cartesian product of
	// its axes; the scalar fields above provide the fixed coordinates.
	Sweep *Sweep `json:"sweep,omitempty"`
}

// Sweep declares the axes of a design-space sweep. Every non-empty axis
// multiplies the expansion; axis order below is the deterministic expansion
// order (corners vary slowest, scenarios fastest).
type Sweep struct {
	Corners      []string  `json:"corners,omitempty"`
	PitchMeansNM []float64 `json:"pitch_means_nm,omitempty"`
	Nodes        []string  `json:"nodes,omitempty"`
	WidthsNM     []float64 `json:"widths_nm,omitempty"`
	Yields       []float64 `json:"yields,omitempty"`
	RelaxFactors []float64 `json:"relax_factors,omitempty"`
	Scenarios    []string  `json:"scenarios,omitempty"`
}

// empty reports whether no axis has entries.
func (s *Sweep) empty() bool {
	return s == nil || len(s.Corners)+len(s.PitchMeansNM)+len(s.Nodes)+len(s.WidthsNM)+
		len(s.Yields)+len(s.RelaxFactors)+len(s.Scenarios) == 0
}

// DefaultRowRounds is the Monte Carlo budget of an unaligned rowyield spec
// that does not name one.
const DefaultRowRounds = 2_000

// DefaultAdaptiveRounds is the hard round cap of an adaptive unaligned
// rowyield spec (one with a RelErrTarget or a non-plain MCMethod) that does
// not name its own: large enough to reach deep-tail targets, finite so a
// non-converging request cannot run forever.
const DefaultAdaptiveRounds = 1 << 22

// DefaultRelErrTarget is the relative-standard-error target assumed when a
// spec selects a non-plain MCMethod without naming a target.
const DefaultRelErrTarget = 0.05

// DefaultPRM is the metallic-removal efficiency assumed by a noise spec
// that does not name one: the paper's quoted "beyond 99.99%" requirement.
const DefaultPRM = 0.9999

// maxExpansion is an absolute sanity bound on a plan's expansion; services
// should enforce their own (smaller) budget via ExpandCount.
const maxExpansion = 1 << 20

// cornerShortNames maps the API names onto device.PaperCorners(), worst
// first — the one naming shared by the CLI, the server and specs.
var cornerShortNames = []string{"worst", "mid", "best"}

// CornerNames returns the short corner names in Fig. 2.1 order, worst first.
func CornerNames() []string { return append([]string(nil), cornerShortNames...) }

// ResolveCorner maps a short name ("worst"), a full Fig. 2.1 label
// ("pm=33%, pRs=30%") or the empty string (= worst) to failure parameters
// and the canonical short name.
func ResolveCorner(name string) (device.FailureParams, string, error) {
	if name == "" {
		name = cornerShortNames[0]
	}
	for i, c := range device.PaperCorners() {
		if name == cornerShortNames[i] || name == c.Name {
			return c.Params, cornerShortNames[i], nil
		}
	}
	return device.FailureParams{}, "", fmt.Errorf("unknown corner %q (have %s, or give pm and prs)",
		name, strings.Join(cornerShortNames, ", "))
}

// scenarioNames maps spec scenario names onto rowyield scenarios.
var scenarioNames = map[string]rowyield.Scenario{
	"uncorrelated": rowyield.UncorrelatedGrowth,
	"unaligned":    rowyield.DirectionalUnaligned,
	"aligned":      rowyield.DirectionalAligned,
}

// ResolveScenario maps a spec scenario name to the rowyield scenario.
func ResolveScenario(name string) (rowyield.Scenario, error) {
	s, ok := scenarioNames[name]
	if !ok {
		return 0, fmt.Errorf("unknown scenario %q (have uncorrelated, unaligned, aligned)", name)
	}
	return s, nil
}

// resolveNode maps a node name (or "" = reference) to a tech node.
func resolveNode(name string) (tech.Node, error) {
	if name == "" {
		return tech.Reference, nil
	}
	return tech.ByName(name)
}

// FailureParams resolves the spec's corner/pm/prs triple to failure
// parameters and the canonical corner name.
func (q Spec) FailureParams() (device.FailureParams, string, error) {
	if q.PM != nil || q.PRS != nil {
		if q.Corner != "" {
			return device.FailureParams{}, "", fmt.Errorf("give either corner or pm/prs, not both")
		}
		if q.PM == nil || q.PRS == nil {
			return device.FailureParams{}, "", fmt.Errorf("explicit corners need both pm and prs")
		}
		p := device.FailureParams{PMetallic: *q.PM, PRemoveSemi: *q.PRS, PRemoveMetallic: 1}
		if err := p.Validate(); err != nil {
			return device.FailureParams{}, "", err
		}
		return p, fmt.Sprintf("pm=%g,prs=%g", *q.PM, *q.PRS), nil
	}
	return ResolveCorner(q.Corner)
}

// Validate checks the spec describes one well-posed query (or sweep).
func (q Spec) Validate() error {
	wrap := func(err error) error {
		if err == nil {
			return nil
		}
		return fmt.Errorf("query: %s spec: %w", q.Kind, err)
	}
	switch q.Kind {
	case KindPF, KindWmin, KindRowYield, KindNoise, KindExperiment:
	default:
		return fmt.Errorf("query: unknown kind %q (have %s)", q.Kind, strings.Join(Kinds(), ", "))
	}

	if q.Kind == KindExperiment {
		if q.Corner != "" || q.PM != nil || q.PRS != nil {
			return wrap(fmt.Errorf("experiment specs take no corner (experiments fix their own)"))
		}
		if len(q.Experiments) == 0 {
			return wrap(fmt.Errorf("no experiments named"))
		}
		for _, n := range q.Experiments {
			if n != "all" && !experiments.Known(n) {
				msg := fmt.Sprintf("unknown experiment %q", n)
				if hint, ok := experiments.Suggest(n); ok {
					msg += fmt.Sprintf(" (did you mean %q?)", hint)
				}
				return wrap(fmt.Errorf("%s", msg))
			}
		}
	} else if _, _, err := q.FailureParams(); err != nil {
		return wrap(err)
	}

	if _, err := resolveNode(q.Node); err != nil {
		return wrap(err)
	}
	if q.GridStepNM < 0 || math.IsNaN(q.GridStepNM) {
		return wrap(fmt.Errorf("grid step %g must be ≥ 0", q.GridStepNM))
	}
	if q.MaxWidthNM < 0 || math.IsNaN(q.MaxWidthNM) {
		return wrap(fmt.Errorf("max width %g must be ≥ 0", q.MaxWidthNM))
	}
	if q.PitchMeanNM < 0 || math.IsNaN(q.PitchMeanNM) {
		return wrap(fmt.Errorf("pitch mean %g must be ≥ 0", q.PitchMeanNM))
	}
	if q.PitchSigmaRatio < 0 || math.IsNaN(q.PitchSigmaRatio) {
		return wrap(fmt.Errorf("pitch sigma ratio %g must be ≥ 0", q.PitchSigmaRatio))
	}
	if q.Kind == KindExperiment && (q.PitchMeanNM != 0 || q.PitchSigmaRatio != 0) {
		return wrap(fmt.Errorf("experiments fix their own pitch law"))
	}

	needsWidth := q.Kind == KindPF || q.Kind == KindRowYield || q.Kind == KindNoise
	widthSwept := q.Sweep != nil && len(q.Sweep.WidthsNM) > 0
	if needsWidth && !widthSwept {
		if !(q.WidthNM > 0) || math.IsNaN(q.WidthNM) {
			return wrap(fmt.Errorf("width %g must be positive", q.WidthNM))
		}
	}
	if q.M < 0 || math.IsNaN(q.M) {
		return wrap(fmt.Errorf("m %g must be ≥ 0", q.M))
	}
	if q.DesiredYield != 0 && (!(q.DesiredYield > 0) || q.DesiredYield >= 1 || math.IsNaN(q.DesiredYield)) {
		return wrap(fmt.Errorf("desired yield %g out of (0,1)", q.DesiredYield))
	}
	if q.RelaxFactor != 0 && (q.RelaxFactor < 1 || math.IsNaN(q.RelaxFactor)) {
		return wrap(fmt.Errorf("relax factor %g must be ≥ 1", q.RelaxFactor))
	}

	if q.Kind == KindRowYield {
		scenarioSwept := q.Sweep != nil && len(q.Sweep.Scenarios) > 0
		if !scenarioSwept {
			if _, err := ResolveScenario(q.Scenario); err != nil {
				return wrap(err)
			}
		}
		if q.Rounds != 0 && q.Rounds < 2 {
			return wrap(fmt.Errorf("rounds %d must be ≥ 2", q.Rounds))
		}
		if q.MCMethod != "" {
			if _, err := rareevent.ParseMethod(q.MCMethod); err != nil {
				return wrap(err)
			}
		}
		if q.RelErrTarget != 0 &&
			(!(q.RelErrTarget > 0) || q.RelErrTarget > 0.5 || math.IsNaN(q.RelErrTarget)) {
			return wrap(fmt.Errorf("rel err target %g out of (0, 0.5]", q.RelErrTarget))
		}
		if q.KRows < 0 || math.IsNaN(q.KRows) {
			return wrap(fmt.Errorf("krows %g must be ≥ 0", q.KRows))
		}
		if len(q.Offsets) > 0 || len(q.OffsetProbs) > 0 {
			if _, err := rowyield.NewOffsetDist(q.Offsets, q.OffsetProbs); err != nil {
				return wrap(err)
			}
		}
	} else if q.Scenario != "" || len(q.Offsets) > 0 || len(q.OffsetProbs) > 0 ||
		q.MCMethod != "" || q.RelErrTarget != 0 {
		return wrap(fmt.Errorf("scenario fields apply only to rowyield specs"))
	}

	if q.Kind == KindNoise {
		if q.PRM != nil && (*q.PRM < 0 || *q.PRM > 1 || math.IsNaN(*q.PRM)) {
			return wrap(fmt.Errorf("prm %g out of [0,1]", *q.PRM))
		}
		if q.RatioThreshold < 0 || math.IsNaN(q.RatioThreshold) {
			return wrap(fmt.Errorf("ratio threshold %g must be ≥ 0", q.RatioThreshold))
		}
	} else if q.PRM != nil || q.RatioThreshold != 0 {
		return wrap(fmt.Errorf("noise fields apply only to noise specs"))
	}

	if q.Kind != KindExperiment && len(q.Experiments) > 0 {
		return wrap(fmt.Errorf("experiments list applies only to experiment specs"))
	}

	return q.validateSweep()
}

// validateSweep checks axis values and their applicability to the kind.
func (q Spec) validateSweep() error {
	if q.Sweep.empty() {
		return nil
	}
	s := q.Sweep
	wrap := func(axis string, err error) error {
		return fmt.Errorf("query: %s sweep axis %s: %w", q.Kind, axis, err)
	}
	if q.Kind == KindExperiment {
		return fmt.Errorf("query: experiment specs do not sweep (list experiments instead)")
	}
	if len(s.Corners) > 0 && (q.PM != nil || q.PRS != nil) {
		return wrap("corners", fmt.Errorf("cannot combine with explicit pm/prs"))
	}
	for _, c := range s.Corners {
		if _, _, err := ResolveCorner(c); err != nil {
			return wrap("corners", err)
		}
	}
	for _, p := range s.PitchMeansNM {
		if !(p > 0) || math.IsNaN(p) {
			return wrap("pitch_means_nm", fmt.Errorf("pitch mean %g must be positive", p))
		}
	}
	for _, n := range s.Nodes {
		if _, err := resolveNode(n); err != nil {
			return wrap("nodes", err)
		}
	}
	for _, w := range s.WidthsNM {
		if !(w > 0) || math.IsNaN(w) {
			return wrap("widths_nm", fmt.Errorf("width %g must be positive", w))
		}
	}
	if len(s.WidthsNM) > 0 && q.Kind == KindWmin {
		return wrap("widths_nm", fmt.Errorf("wmin solves for the width; sweep yields or relax factors instead"))
	}
	for _, y := range s.Yields {
		if !(y > 0) || y >= 1 || math.IsNaN(y) {
			return wrap("yields", fmt.Errorf("yield %g out of (0,1)", y))
		}
	}
	if len(s.Yields) > 0 && !(q.Kind == KindWmin || q.Kind == KindNoise) {
		return wrap("yields", fmt.Errorf("yield targets apply to wmin and noise specs"))
	}
	for _, r := range s.RelaxFactors {
		if r < 1 || math.IsNaN(r) {
			return wrap("relax_factors", fmt.Errorf("relax factor %g must be ≥ 1", r))
		}
	}
	if len(s.RelaxFactors) > 0 && q.Kind != KindWmin {
		return wrap("relax_factors", fmt.Errorf("relax factors apply to wmin specs"))
	}
	for _, sc := range s.Scenarios {
		if _, err := ResolveScenario(sc); err != nil {
			return wrap("scenarios", err)
		}
	}
	if len(s.Scenarios) > 0 && q.Kind != KindRowYield {
		return wrap("scenarios", fmt.Errorf("scenarios apply to rowyield specs"))
	}
	if n := q.ExpandCount(); n > maxExpansion {
		return fmt.Errorf("query: sweep expands to %d specs, beyond the %d sanity bound", n, maxExpansion)
	}
	return nil
}

// Canonical returns the normalized spec and its stable fingerprint. Two
// specs describing the same computation — e.g. corner "" vs "worst" vs the
// full Fig. 2.1 label, or the reference node named explicitly — normalize
// to identical canonical forms and share one fingerprint, which is the
// identity used for response caching and HTTP ETags. The canonical form
// also zeroes every field the kind does not read, so stray defaults can
// never split the cache.
func (q Spec) Canonical() (Spec, string, error) {
	if err := q.Validate(); err != nil {
		return Spec{}, "", badRequest(err)
	}
	c := q
	if c.Kind != KindExperiment && c.PM == nil {
		_, name, err := ResolveCorner(c.Corner)
		if err != nil {
			return Spec{}, "", err
		}
		c.Corner = name
	}
	node, err := resolveNode(c.Node)
	if err != nil {
		return Spec{}, "", err
	}
	if node.Name == tech.Reference.Name {
		c.Node = "" // the reference node is the no-scaling default
	} else {
		c.Node = node.Name
	}
	// Explicitly spelling out the calibrated pitch law is the default law.
	if c.PitchMeanNM == device.MeanPitchNM {
		c.PitchMeanNM = 0
	}
	if c.PitchSigmaRatio == device.PitchSigmaRatio {
		c.PitchSigmaRatio = 0
	}
	// Spec-level defaults spelled out explicitly are the default: relax
	// factor 1 is the uncorrelated baseline, DefaultRowRounds the Monte
	// Carlo budget a spec gets anyway. (Session-level defaults like M and
	// DesiredYield cannot be normalized here — the spec does not know
	// them.)
	if c.RelaxFactor == 1 {
		c.RelaxFactor = 0
	}
	// "plain" is the default estimator spelled out. The Rounds default
	// depends on the stopping mode: under adaptive stopping (a rel-err
	// target, or a non-plain method which implies the default target)
	// Rounds is the cap and defaults to DefaultAdaptiveRounds; otherwise it
	// is the fixed budget and defaults to DefaultRowRounds. A non-plain
	// method carrying the default target spelled out is the same query as
	// one carrying none.
	if c.MCMethod == "plain" {
		c.MCMethod = ""
	}
	if c.MCMethod != "" && c.RelErrTarget == DefaultRelErrTarget {
		c.RelErrTarget = 0
	}
	if c.RelErrTarget > 0 || c.MCMethod != "" {
		if c.Rounds == DefaultAdaptiveRounds {
			c.Rounds = 0
		}
	} else if c.Rounds == DefaultRowRounds {
		c.Rounds = 0
	}

	// Zero what the kind does not read.
	if c.Kind != KindRowYield {
		c.Scenario, c.Rounds, c.KRows = "", 0, 0
		c.Offsets, c.OffsetProbs = nil, nil
		c.MCMethod, c.RelErrTarget = "", 0
	}
	if c.Kind == KindRowYield && c.Scenario != "" && c.Scenario != "unaligned" {
		// The uncorrelated and aligned scenarios are closed forms: no Monte
		// Carlo runs, so the estimator selection cannot influence the result.
		// (Rounds and Seed keep their historical pass-through for these
		// scenarios — zeroing them now would re-fingerprint old specs.)
		c.MCMethod, c.RelErrTarget = "", 0
	}
	if c.Kind != KindNoise {
		c.PRM, c.RatioThreshold = nil, 0
	}
	if c.Kind != KindWmin {
		c.RelaxFactor = 0
	}
	if c.Kind != KindWmin && c.Kind != KindNoise {
		c.M, c.DesiredYield = 0, 0
	}
	if c.Kind == KindPF || c.Kind == KindWmin || c.Kind == KindNoise {
		c.Seed = 0 // fully analytic kinds ignore the seed
	}
	if c.Kind != KindExperiment {
		c.Experiments = nil
	} else {
		// "all" expands here so the fingerprint names the actual work.
		var names []string
		for _, n := range c.Experiments {
			if n == "all" {
				names = append(names, experiments.Names()...)
			} else {
				names = append(names, n)
			}
		}
		c.Experiments = names
		c.Corner, c.PM, c.PRS = "", nil, nil
		c.Node, c.WidthNM = "", 0
	}
	if c.Kind == KindWmin {
		c.WidthNM = 0
	}
	if c.Sweep.empty() {
		c.Sweep = nil
	} else {
		s := *c.Sweep
		s.Corners = append([]string(nil), s.Corners...)
		for i, name := range s.Corners {
			if _, short, err := ResolveCorner(name); err == nil {
				s.Corners[i] = short
			}
		}
		s.Nodes = append([]string(nil), s.Nodes...)
		for i, name := range s.Nodes {
			if node, err := resolveNode(name); err == nil {
				s.Nodes[i] = node.Name
			}
		}
		c.Sweep = &s
	}
	return c, fingerprint(c), nil
}

// fingerprint hashes the canonical JSON encoding — json.Marshal's bytes,
// appended without reflection by appendSpec. Struct-order JSON keys make
// the encoding deterministic, so the hash is stable across processes.
func fingerprint(c Spec) string {
	var buf [512]byte
	data, ok := appendSpec(buf[:0], &c)
	if !ok {
		// A validated spec holds only finite floats, so this is unreachable;
		// encoding/json names the offending value.
		_, err := json.Marshal(c)
		panic(fmt.Sprintf("query: marshaling canonical spec: %v", err))
	}
	sum := sha256.Sum256(data)
	var fp [4 + 24]byte
	copy(fp[:], "qs1-")
	hex.Encode(fp[4:], sum[:12])
	return string(fp[:])
}

// ExpandCount returns how many concrete specs Expand would produce,
// without materializing them. Products beyond the maxExpansion sanity
// bound saturate at maxExpansion+1 instead of multiplying on: unchecked
// int multiplication could wrap past every size check and let a small
// request demand an astronomic expansion.
func (q Spec) ExpandCount() int {
	if q.Sweep.empty() {
		return 1
	}
	n := 1
	for _, axis := range []int{
		len(q.Sweep.Corners), len(q.Sweep.PitchMeansNM), len(q.Sweep.Nodes),
		len(q.Sweep.WidthsNM), len(q.Sweep.Yields), len(q.Sweep.RelaxFactors),
		len(q.Sweep.Scenarios),
	} {
		if axis > 0 {
			if n > maxExpansion/axis {
				return maxExpansion + 1
			}
			n *= axis
		}
	}
	return n
}

// Plan is a canonicalized spec ready to run: its canonical form and that
// form's fingerprint, computed together by Spec.Plan and carried as one
// opaque handle to Session.Run. Only Spec.Plan builds a non-zero Plan, so
// the fingerprint a transport serves (an ETag, a job identity) always
// belongs to the spec the session evaluates, and a request's spec is
// canonicalized once between the edge and the evaluation. The zero Plan
// runs nothing.
type Plan struct {
	spec Spec
	fp   string
	// done is the completed prefix of the expansion that Run skips.
	done int
}

// Plan canonicalizes the spec (see Canonical) into a runnable Plan. The
// plan holds its own copy of every slice and pointer in the spec, so later
// changes to q cannot reach it.
func (q Spec) Plan() (Plan, error) {
	canon, fp, err := q.Canonical()
	if err != nil {
		return Plan{}, err
	}
	return Plan{spec: canon.clone(), fp: fp}, nil
}

// Resume returns the plan with the first done concrete specs of its
// expansion marked complete: Run evaluates only the specs after them and
// still reports progress against the whole expansion. The canonical spec
// and fingerprint stay the same. A prefix longer than the expansion is a
// request error.
func (p Plan) Resume(done int) (Plan, error) {
	if n := p.ExpandCount(); done < 0 || done > n {
		return Plan{}, badRequest(fmt.Errorf("query: cannot resume after %d of %d specs", done, n))
	}
	p.done = done
	return p, nil
}

// Spec returns a copy of the plan's canonical spec.
func (p Plan) Spec() Spec { return p.spec.clone() }

// Fingerprint returns the plan's stable fingerprint: the cache and ETag
// identity of its canonical spec.
func (p Plan) Fingerprint() string { return p.fp }

// ExpandCount returns how many concrete specs the plan runs (see
// Spec.ExpandCount).
func (p Plan) ExpandCount() int { return p.spec.ExpandCount() }

// clone returns a copy of q that shares no slice or pointer with it.
func (q Spec) clone() Spec {
	c := q
	c.PM, c.PRS, c.PRM = clonePtr(q.PM), clonePtr(q.PRS), clonePtr(q.PRM)
	c.Offsets, c.OffsetProbs = slices.Clone(q.Offsets), slices.Clone(q.OffsetProbs)
	c.Experiments = slices.Clone(q.Experiments)
	if q.Sweep != nil {
		s := *q.Sweep
		s.Corners, s.Nodes, s.Scenarios = slices.Clone(s.Corners), slices.Clone(s.Nodes), slices.Clone(s.Scenarios)
		s.PitchMeansNM, s.WidthsNM = slices.Clone(s.PitchMeansNM), slices.Clone(s.WidthsNM)
		s.Yields, s.RelaxFactors = slices.Clone(s.Yields), slices.Clone(s.RelaxFactors)
		c.Sweep = &s
	}
	return c
}

func clonePtr(v *float64) *float64 {
	if v == nil {
		return nil
	}
	c := *v
	return &c
}

// expand turns the plan's sweep axes into the cartesian product of
// concrete (sweep-free, canonical) specs and each one's fingerprint
// (fps[i] belongs to specs[i]), in deterministic order: corners vary
// slowest, then pitch means, nodes, widths, yields, relax factors,
// scenarios. A plan without sweep axes is its own single concrete spec, so
// the evaluation path canonicalizes every spec exactly once. The specs
// share no memory with the plan, so results that echo them cannot reach it
// either.
func (p Plan) expand() (specs []Spec, fps []string, err error) {
	base := p.spec.clone()
	if base.Sweep.empty() {
		return []Spec{base}, []string{p.fp}, nil
	}
	s := *base.Sweep
	base.Sweep = nil

	out := []Spec{base}
	// Each axis multiplies the current expansion, preserving order: the
	// earlier axes stay the slow-varying ones.
	if len(s.Corners) > 0 {
		out = expandAxis(out, s.Corners, func(q *Spec, v string) { q.Corner = v })
	}
	if len(s.PitchMeansNM) > 0 {
		out = expandAxis(out, s.PitchMeansNM, func(q *Spec, v float64) { q.PitchMeanNM = v })
	}
	if len(s.Nodes) > 0 {
		out = expandAxis(out, s.Nodes, func(q *Spec, v string) { q.Node = v })
	}
	if len(s.WidthsNM) > 0 {
		out = expandAxis(out, s.WidthsNM, func(q *Spec, v float64) { q.WidthNM = v })
	}
	if len(s.Yields) > 0 {
		out = expandAxis(out, s.Yields, func(q *Spec, v float64) { q.DesiredYield = v })
	}
	if len(s.RelaxFactors) > 0 {
		out = expandAxis(out, s.RelaxFactors, func(q *Spec, v float64) { q.RelaxFactor = v })
	}
	if len(s.Scenarios) > 0 {
		out = expandAxis(out, s.Scenarios, func(q *Spec, v string) { q.Scenario = v })
	}
	// Re-canonicalize: axis values were validated, but node names still
	// need the reference-node normalization and kind-irrelevant zeroing.
	fps = make([]string, len(out))
	for i := range out {
		if out[i], fps[i], err = out[i].Canonical(); err != nil {
			return nil, nil, err
		}
	}
	return out, fps, nil
}

// expandAxis replaces each spec with len(values) copies, one per value.
func expandAxis[T any](specs []Spec, values []T, set func(*Spec, T)) []Spec {
	out := make([]Spec, 0, len(specs)*len(values))
	for _, q := range specs {
		for _, v := range values {
			c := q
			set(&c, v)
			out = append(out, c)
		}
	}
	return out
}

// Parse strictly decodes a spec from JSON, rejecting unknown fields and
// anything but whitespace after the spec (DecodeSpec), and validates it.
func Parse(data []byte) (Spec, error) {
	q, err := DecodeSpec(data, nil)
	if err == errTrailingData {
		return Spec{}, badRequest(errors.New("query: decoding spec: unexpected data after the spec"))
	}
	if err != nil {
		return Spec{}, badRequest(fmt.Errorf("query: decoding spec: %w", err))
	}
	if err := q.Validate(); err != nil {
		return Spec{}, badRequest(err)
	}
	return q, nil
}

// RequestError marks an error as the caller's fault — an invalid or
// out-of-bounds spec rather than an evaluation failure — so transports can
// map it to a 4xx instead of a 5xx.
type RequestError struct{ err error }

// Error returns the wrapped message unchanged: the marker adds routing
// semantics (4xx vs 5xx), not text.
func (e *RequestError) Error() string { return e.err.Error() }

// Unwrap exposes the underlying error to errors.Is/As.
func (e *RequestError) Unwrap() error { return e.err }

// badRequest wraps a non-nil error as a RequestError (idempotently).
func badRequest(err error) error {
	if err == nil {
		return nil
	}
	var re *RequestError
	if errors.As(err, &re) {
		return err
	}
	return &RequestError{err}
}

// IsRequestError reports whether err (anywhere in its chain) marks a
// caller mistake rather than an internal evaluation failure.
func IsRequestError(err error) bool {
	var re *RequestError
	return errors.As(err, &re)
}
