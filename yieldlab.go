// Package yieldlab is a laboratory for carbon-nanotube FET (CNFET) circuit
// yield under CNT count failures, reproducing "Carbon Nanotube Correlation:
// Promising Opportunity for CNFET Circuit Yield Enhancement" (Zhang, Bobba,
// Patil, Lin, Wong, De Micheli, Mitra — DAC 2010).
//
// The library covers the full stack the paper builds on:
//
//   - a stochastic CNT growth substrate (directional tracks and dispersed
//     sticks) with metallic-CNT removal;
//   - the device-level count-failure model pF(W) = Σ P{N(W)=k}·pf^k over an
//     exact renewal CNT-count distribution;
//   - chip-level yield and the Wmin upsizing optimization;
//   - the paper's contribution: row-level CNT correlation under directional
//     growth and the aligned-active standard-cell layout restriction,
//     including the library transformation and its area cost;
//   - experiment runners regenerating every table and figure of the paper.
//
// Quick start — the declarative QuerySpec/Session API, shared verbatim by
// the cnfetyield CLI (-spec) and the yieldserver /v2/query endpoint:
//
//	session, _ := yieldlab.NewSession(yieldlab.SessionOptions{})
//	res, _ := session.Evaluate(ctx, yieldlab.QuerySpec{Kind: "pf", WidthNM: 155})
//	fmt.Println(res.PF.PF)                         // ≈ 3e-9, Fig. 2.1 anchor
//
// A single spec with sweep axes expands into a whole design-space study:
//
//	sweep := yieldlab.QuerySpec{
//		Kind:  "wmin",
//		Sweep: &yieldlab.QuerySweep{
//			Corners: []string{"worst", "mid"},
//			Nodes:   []string{"45nm", "22nm"},
//			Yields:  []float64{0.90, 0.99},
//		},
//	}
//	results, _ := session.EvaluateAll(ctx, sweep)  // 8 concrete specs
//
// The lower-level constructors below remain for direct model access:
//
//	model, _ := yieldlab.NewDeviceModel(yieldlab.WorstCorner())
//	pf155, _ := model.FailureProb(155)
//	runner := yieldlab.NewRunner(yieldlab.DefaultParams())
//	res, _ := runner.Run(ctx, "table1")            // regenerate Table 1
//
// The sub-experiments, calibration constants and deviations from the paper
// are documented in DESIGN.md and EXPERIMENTS.md.
package yieldlab

import (
	"io"

	"github.com/cnfet/yieldlab/internal/alignactive"
	"github.com/cnfet/yieldlab/internal/buildinfo"
	"github.com/cnfet/yieldlab/internal/celllib"
	"github.com/cnfet/yieldlab/internal/cntgrowth"
	"github.com/cnfet/yieldlab/internal/device"
	"github.com/cnfet/yieldlab/internal/dist"
	"github.com/cnfet/yieldlab/internal/experiments"
	"github.com/cnfet/yieldlab/internal/jobstore"
	"github.com/cnfet/yieldlab/internal/noisemargin"
	"github.com/cnfet/yieldlab/internal/query"
	"github.com/cnfet/yieldlab/internal/renewal"
	"github.com/cnfet/yieldlab/internal/rowyield"
	"github.com/cnfet/yieldlab/internal/server"
	"github.com/cnfet/yieldlab/internal/sweepstore"
	"github.com/cnfet/yieldlab/internal/widthdist"
	"github.com/cnfet/yieldlab/internal/yield"
)

// Declarative query API: one serializable spec language and one stateful
// session shared by this facade, the cnfetyield CLI and the yieldserver
// HTTP service. New code should prefer these over the loose constructors
// below — a QuerySpec round-trips through JSON, canonicalizes to a stable
// fingerprint (the cache/ETag identity), and expands sweep axes into a
// deterministic cartesian product of concrete queries.
type (
	// QuerySpec is a declarative yield query: kind pf | wmin | rowyield |
	// noise | experiment, plus coordinates and optional sweep axes.
	QuerySpec = query.Spec
	// QuerySweep declares the cartesian sweep axes of a QuerySpec.
	QuerySweep = query.Sweep
	// QueryResult is one evaluated spec with its kind-specific payload.
	QueryResult = query.Result
	// Session owns the shared sweep cache, the optional persistent sweep
	// store and a bounded worker pool, and evaluates QuerySpecs.
	Session = query.Session
	// SessionOptions configures NewSession; the zero value is usable.
	SessionOptions = query.Options
)

// NewSession builds the stateful evaluator behind the query API, warming
// its sweep cache from SessionOptions.Store when one is given.
func NewSession(opts SessionOptions) (*Session, error) { return query.NewSession(opts) }

// Version returns the running binary's one-line version string: the module
// version refined with the VCS revision and dirty marker when the build
// metadata carries them. It backs `cnfetyield -version`, /healthz and the
// /metrics build_info gauge.
func Version() string { return buildinfo.Version() }

// BuildInfo describes the running binary (version, VCS revision, toolchain).
type BuildInfo = buildinfo.Info

// GetBuildInfo returns the binary's build metadata, read once and cached.
func GetBuildInfo() BuildInfo { return buildinfo.Get() }

// ParseQuerySpec strictly decodes and validates a JSON QuerySpec — the
// format accepted by `cnfetyield -spec` and POST /v2/query.
func ParseQuerySpec(data []byte) (QuerySpec, error) { return query.Parse(data) }

// QueryKinds lists the spec kinds.
func QueryKinds() []string { return query.Kinds() }

// Device-level modeling (paper Section 2.1).
type (
	// FailureParams carries the processing probabilities pm, pRs, pRm of
	// Eq. 2.1.
	FailureParams = device.FailureParams
	// DeviceModel evaluates the count-failure probability pF(W) of Eq. 2.2.
	DeviceModel = device.FailureModel
	// Corner is a named processing condition of Fig. 2.1.
	Corner = device.Corner
)

// WorstCorner returns the pm=33%, pRs=30% corner behind every headline
// number in the paper.
func WorstCorner() FailureParams { return device.WorstCorner() }

// PaperCorners returns the three processing corners of Fig. 2.1.
func PaperCorners() []Corner { return device.PaperCorners() }

// NewDeviceModel builds the calibrated device failure model (truncated-
// normal pitch, mean 4 nm) for the given processing corner.
//
// Prefer Session.Evaluate with a "pf"-kind QuerySpec for one-off pF
// queries: it shares swept tables across corners automatically.
func NewDeviceModel(p FailureParams) (*DeviceModel, error) {
	return device.NewCalibratedModel(p)
}

// NewDeviceModelWithRange builds the calibrated model with a custom grid
// step and maximum width (nm) for fine-resolution or wide-device studies.
func NewDeviceModelWithRange(p FailureParams, stepNM, maxWidthNM float64) (*DeviceModel, error) {
	return device.NewCalibratedModel(p, renewal.WithStep(stepNM), renewal.WithMaxWidth(maxWidthNM))
}

// SweepCache shares swept renewal count tables between device models whose
// pitch law and grid coincide. Process corners differ only in pf, which
// enters after the count distribution, so models for all corners of one
// technology share a single table. Every Session owns one (Session.Cache);
// passing it as another session's SessionOptions.Cache shares the tables.
type SweepCache = renewal.SweepCache

// Persistent sweep store and HTTP service surface.
type (
	// SweepStore persists swept renewal tables on disk, so a restarted
	// process warms its sweep cache without recomputing convolutions.
	SweepStore = sweepstore.Store
	// JobStore journals the server's async jobs on disk, so a restarted
	// server re-adopts them and resumes interrupted sweeps from their last
	// checkpointed results.
	JobStore = jobstore.Store
	// ServerConfig configures the HTTP yield service.
	ServerConfig = server.Config
	// Server is the long-lived HTTP/JSON yield service.
	Server = server.Server
)

// OpenSweepStore opens (creating if needed) a sweep-table store directory.
func OpenSweepStore(dir string) (*SweepStore, error) { return sweepstore.Open(dir) }

// OpenJobStore opens (creating if needed) a job-journal directory.
func OpenJobStore(dir string) (*JobStore, error) { return jobstore.Open(dir) }

// NewServer builds the HTTP yield service (serve its Handler; Close on
// shutdown to drain jobs and persist the sweep store).
func NewServer(cfg ServerConfig) (*Server, error) { return server.New(cfg) }

// WriteResultsJSON renders experiment results as the service's JSON schema —
// the encoding behind both the job API and `cnfetyield -json`.
func WriteResultsJSON(w io.Writer, results []*Result) error {
	return query.WriteResults(w, results)
}

// KnownExperiment reports whether name is a paper or extension experiment.
func KnownExperiment(name string) bool { return experiments.Known(name) }

// SuggestExperiment returns the known experiment name closest to a typo,
// when one is close enough to be a plausible intent.
func SuggestExperiment(name string) (string, bool) { return experiments.Suggest(name) }

// ExperimentExtensionNames lists the non-paper extension experiments.
func ExperimentExtensionNames() []string { return experiments.ExtensionNames() }

// CalibratedPitch returns the frozen inter-CNT pitch law (see DESIGN.md §5).
func CalibratedPitch() (dist.TruncNormal, error) { return device.CalibratedPitch() }

// Chip-level yield and sizing (paper Section 2.2).
type (
	// SizingProblem is one chip-level Wmin optimization instance.
	SizingProblem = yield.Problem
	// SizingResult is a Wmin solution.
	SizingResult = yield.Result
	// WidthDistribution is a discrete transistor-width distribution.
	WidthDistribution = widthdist.Distribution
)

// OpenRISCWidths returns the frozen Fig. 2.2a width distribution.
func OpenRISCWidths() *WidthDistribution { return widthdist.OpenRISC45() }

// SimplifiedWmin solves Eq. 2.5 (charge all yield loss to minimum devices).
//
// Prefer Session.Evaluate with a "wmin"-kind QuerySpec unless the sizing
// problem needs a custom width distribution.
func SimplifiedWmin(p *SizingProblem) (SizingResult, error) { return yield.SimplifiedWmin(p) }

// ExactWmin solves Eq. 2.4 by bisection over the threshold.
func ExactWmin(p *SizingProblem) (SizingResult, error) { return yield.ExactWmin(p) }

// RequiredDevicePF returns the per-device failure budget (1-Yd)/Mmin.
func RequiredDevicePF(mMin, desiredYield float64) (float64, error) {
	return yield.RequiredDevicePF(mMin, desiredYield)
}

// Row correlation (paper Section 3.1): the core contribution. A Session's
// "rowyield" spec is the estimator of a row's failure probability (a fixed
// round budget, or an adaptive rare-event method, DESIGN.md §8); the types
// below expose the row model and its single Monte Carlo round.
type (
	// RowModel is the correlated row of Table 1: RowModel.Round runs one
	// Monte Carlo realization of a directional scenario.
	RowModel = rowyield.RowModel
	// RowScenario selects a growth/layout combination.
	RowScenario = rowyield.Scenario
	// OffsetDist is a lateral active-offset distribution.
	OffsetDist = rowyield.OffsetDist
	// RowRoundState is the reusable per-goroutine scratch of the row Monte
	// Carlo: RowModel.Round over one RowRoundState performs zero
	// steady-state heap allocations.
	RowRoundState = rowyield.RoundState
)

// The three scenarios of Table 1.
const (
	UncorrelatedGrowth   = rowyield.UncorrelatedGrowth
	DirectionalUnaligned = rowyield.DirectionalUnaligned
	DirectionalAligned   = rowyield.DirectionalAligned
)

// MRmin returns Eq. 3.2: LCNT (nm) × density (FETs/µm).
func MRmin(lcntNM, densityPerUM float64) (float64, error) {
	return rowyield.MRmin(lcntNM, densityPerUM)
}

// NewOffsetDist validates and normalizes a lateral offset distribution.
func NewOffsetDist(offsets, probs []float64) (OffsetDist, error) {
	return rowyield.NewOffsetDist(offsets, probs)
}

// AlignedOffsets returns the degenerate offset distribution of the
// aligned-active layout.
func AlignedOffsets() OffsetDist { return rowyield.Aligned() }

// CorrelatedYield returns Eq. 3.1: (1-pRF)^KR.
func CorrelatedYield(kRows, pRF float64) (float64, error) {
	return rowyield.CorrelatedYield(kRows, pRF)
}

// Aligned-active layout restriction (paper Section 3.2).
type (
	// AlignOptions configures the transform (Wmin, 1 or 2 bands).
	AlignOptions = alignactive.Options
	// CellChange records the transform's effect on one cell.
	CellChange = alignactive.CellChange
	// LibraryReport aggregates a whole-library transform (Table 2).
	LibraryReport = alignactive.LibraryReport
	// Library is a standard-cell library.
	Library = celllib.Library
	// Cell is one standard cell.
	Cell = celllib.Cell
)

// NangateLike45 generates the synthetic 134-cell 45 nm library.
func NangateLike45() (*Library, error) { return celllib.NangateLike45() }

// Commercial65 generates the synthetic 775-cell 65 nm library.
func Commercial65() (*Library, error) { return celllib.Commercial65() }

// AlignCell applies the aligned-active restriction to one cell.
func AlignCell(c *Cell, opt AlignOptions) (Cell, CellChange, error) {
	return alignactive.AlignCell(c, opt)
}

// AlignLibrary applies the restriction to a whole library.
func AlignLibrary(lib *Library, opt AlignOptions) (*LibraryReport, error) {
	return alignactive.AlignLibrary(lib, opt)
}

// Growth substrate (paper Section 3.1 premise, Fig. 3.1).
type (
	// DirectionalGrowth grows aligned CNT tracks with LCNT segmentation.
	DirectionalGrowth = cntgrowth.Directional
	// UncorrelatedStickGrowth grows dispersed sticks.
	UncorrelatedStickGrowth = cntgrowth.Uncorrelated
	// Removal models the m-CNT removal step.
	Removal = cntgrowth.Removal
	// GrowthArray is a grown CNT population.
	GrowthArray = cntgrowth.Array
	// Region is an axis-aligned substrate rectangle (nm).
	Region = cntgrowth.Rect
)

// Noise-margin extension (paper Section 2.1's cited side constraint: the
// [Zhang 09b] requirement that metallic removal exceed 99.99%).
type (
	// NoiseParams configures the surviving-metallic-CNT noise model.
	NoiseParams = noisemargin.Params
)

// NoiseViolationProb returns the probability a device's surviving metallic
// tubes violate its noise margin.
func NoiseViolationProb(countPMF dist.PMF, p NoiseParams) (float64, error) {
	return noisemargin.ViolationProb(countPMF, p)
}

// ChipNoiseYield returns the chip-level noise-limited yield (1-p)^gates.
func ChipNoiseYield(pViolation, gates float64) (float64, error) {
	return noisemargin.ChipNoiseYield(pViolation, gates)
}

// RequiredPRm returns the smallest metallic-removal efficiency meeting a
// chip-level noise-limited yield target.
func RequiredPRm(countPMF dist.PMF, p NoiseParams, gates, desiredYield float64) (float64, error) {
	return noisemargin.RequiredPRm(countPMF, p, gates, desiredYield)
}

// Experiments: the paper's tables and figures.
type (
	// Params configures the reproduction (DefaultParams freezes the paper's
	// values).
	Params = experiments.Params
	// Runner executes experiments over shared state.
	Runner = experiments.Runner
	// Result is one regenerated artifact.
	Result = experiments.Result
)

// DefaultParams returns the frozen paper configuration.
func DefaultParams() Params { return experiments.DefaultParams() }

// NewRunner creates an experiment runner.
func NewRunner(p Params) *Runner { return experiments.New(p) }

// ExperimentNames lists the artifact identifiers in paper order.
func ExperimentNames() []string { return experiments.Names() }
