// Package experiments reproduces every table and figure of the paper's
// evaluation. Each runner returns a Result holding the regenerated table,
// rendered charts, optional SVG artwork and CSV data, and a set of
// paper-vs-measured comparison records (collected into EXPERIMENTS.md).
//
// The experiment index lives in DESIGN.md §4; the short version:
//
//	fig2.1  — device failure probability vs width, three process corners
//	fig2.2a — OpenRISC transistor width histogram
//	fig2.2b — upsizing penalty vs technology node (uncorrelated baseline)
//	table1  — row failure probability for three growth/layout scenarios
//	fig3.1  — CNT count/type correlation between device pairs
//	fig3.2  — aligned-active transform of AOI222_X1
//	fig3.3  — penalty vs node, before/after the co-optimization
//	table2  — library-wide area penalty and Wmin for three configurations
//
//yield:compute
package experiments

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"github.com/cnfet/yieldlab/internal/celllib"
	"github.com/cnfet/yieldlab/internal/device"
	"github.com/cnfet/yieldlab/internal/dist"
	"github.com/cnfet/yieldlab/internal/fault"
	"github.com/cnfet/yieldlab/internal/netlist"
	"github.com/cnfet/yieldlab/internal/obs"
	"github.com/cnfet/yieldlab/internal/renewal"
	"github.com/cnfet/yieldlab/internal/report"
	"github.com/cnfet/yieldlab/internal/rng"
	"github.com/cnfet/yieldlab/internal/rowyield"
	"github.com/cnfet/yieldlab/internal/widthdist"
	"github.com/cnfet/yieldlab/internal/yield"
)

// Params collects every knob of the reproduction; DefaultParams freezes the
// paper's values.
type Params struct {
	// Seed is the root seed for all Monte Carlo work.
	Seed uint64
	// M is the chip transistor count (paper: 1e8).
	M float64
	// DesiredYield is the chip yield target (paper: 0.90).
	DesiredYield float64
	// LCNTUM is the CNT length in µm (paper: 200).
	LCNTUM float64
	// PminPerUM is Pmin-CNFET, the critical-device density the paper
	// measured on its placed OpenRISC design (1.8 FETs/µm). Table 1 and the
	// row-yield queries use this published value.
	PminPerUM float64
	// GridStepNM and MaxWidthNM configure the renewal engine.
	GridStepNM float64
	MaxWidthNM float64
	// MCRounds is the Monte Carlo round count for Table 1.
	MCRounds int
	// Workers caps Monte Carlo parallelism (0 = NumCPU).
	Workers int
	// CorrelationRounds is the growth-simulation round count for Fig. 3.1.
	CorrelationRounds int
	// NetlistInstances sizes the synthetic OpenRISC netlist whose cell mix
	// weights the library's lateral offsets and width statistics.
	NetlistInstances int
}

// DefaultParams returns the frozen paper configuration.
func DefaultParams() Params {
	return Params{
		Seed:              rng.DefaultSeed,
		M:                 1e8,
		DesiredYield:      0.90,
		LCNTUM:            200,
		PminPerUM:         1.8,
		GridStepNM:        0.05,
		MaxWidthNM:        440,
		MCRounds:          200_000,
		Workers:           0,
		CorrelationRounds: 600,
		NetlistInstances:  20_000,
	}
}

// Validate checks the parameters.
func (p Params) Validate() error {
	switch {
	case !(p.M > 0):
		return fmt.Errorf("experiments: M = %g must be positive", p.M)
	case !(p.DesiredYield > 0) || p.DesiredYield >= 1:
		return fmt.Errorf("experiments: desired yield %g out of (0,1)", p.DesiredYield)
	case !(p.LCNTUM > 0):
		return fmt.Errorf("experiments: LCNT %g must be positive", p.LCNTUM)
	case !(p.PminPerUM > 0):
		return fmt.Errorf("experiments: Pmin %g must be positive", p.PminPerUM)
	case !(p.GridStepNM > 0) || !(p.MaxWidthNM > p.GridStepNM):
		return fmt.Errorf("experiments: bad grid (%g, %g)", p.GridStepNM, p.MaxWidthNM)
	case p.MCRounds < 2:
		return fmt.Errorf("experiments: MCRounds %d too small", p.MCRounds)
	case p.CorrelationRounds < 2:
		return fmt.Errorf("experiments: CorrelationRounds %d too small", p.CorrelationRounds)
	case p.NetlistInstances < 100:
		return fmt.Errorf("experiments: NetlistInstances %d too small", p.NetlistInstances)
	}
	return nil
}

// Result is one experiment's output.
type Result struct {
	// Name is the experiment id ("fig2.1", "table1", ...).
	Name string
	// Table is the regenerated paper artifact.
	Table *report.Table
	// Comparisons holds the paper-vs-measured records.
	Comparisons *report.ComparisonSet
	// Charts holds rendered ASCII charts.
	Charts []string
	// SVGs maps suggested file names to SVG documents.
	SVGs map[string]string
	// CSVs maps suggested file names to CSV payloads.
	CSVs map[string]string
}

// Text renders the result for terminal consumption.
func (r *Result) Text() string {
	out := ""
	if r.Table != nil {
		out += r.Table.Render() + "\n"
	}
	for _, c := range r.Charts {
		out += c + "\n"
	}
	if r.Comparisons != nil {
		if t, err := r.Comparisons.Table(); err == nil {
			out += t.Render()
		}
	}
	return out
}

// Runner executes experiments over shared, lazily built state (device
// model, libraries, synthetic netlist), so running `all` does not repeat the
// expensive renewal sweeps.
type Runner struct {
	params Params
	// sweeps shares swept renewal count tables between every model the
	// runner builds: the three Fig. 2.1 corners, the pitch-law ablation and
	// repeated experiment runs all hit one table per distinct law+grid.
	sweeps *renewal.SweepCache

	mu         sync.Mutex
	model      *device.FailureModel
	lib45      *celllib.Library
	lib65      *celllib.Library
	netlist45  *netlist.Netlist
	solveCache map[float64]float64
	// rowModels caches prepared Monte Carlo row models by (width, corner,
	// pitch law). Preparation builds sampler, alias and occupancy tables and
	// re-measures the library offset distribution; a scenario sweep asks
	// for the same model once per scenario and a server asks once per
	// request, so sharing the immutable prepared model pays everywhere.
	rowModels map[string]*rowyield.RowModel
}

// New creates a runner; the parameters are validated on first use.
func New(p Params) *Runner {
	return NewWithCache(p, renewal.NewSweepCache())
}

// NewWithCache creates a runner whose device models draw from a shared
// sweep cache, so several runners — e.g. per-job runners inside a long-lived
// server — pool their renewal sweeps. A nil cache behaves like New.
func NewWithCache(p Params, sweeps *renewal.SweepCache) *Runner {
	if sweeps == nil {
		sweeps = renewal.NewSweepCache()
	}
	return &Runner{
		params:     p,
		sweeps:     sweeps,
		solveCache: make(map[float64]float64),
		rowModels:  make(map[string]*rowyield.RowModel),
	}
}

// SweepCache exposes the runner's shared renewal sweep cache, so callers
// embedding the runner in a longer-lived service can pool further model
// construction on it.
func (r *Runner) SweepCache() *renewal.SweepCache { return r.sweeps }

// Params returns the runner's configuration.
func (r *Runner) Params() Params { return r.params }

// Names lists the experiment identifiers in paper order.
func Names() []string {
	return []string{"fig2.1", "fig2.2a", "fig2.2b", "table1", "fig3.1", "fig3.2", "fig3.3", "table2"}
}

// Run dispatches one experiment by name, under an "experiment.<name>" span
// when ctx carries an obs.Tracer. A done ctx stops the run before it starts
// and cancels Table 1's Monte Carlo at its next round batch; ctx's error is
// returned, never a partial artifact.
func (r *Runner) Run(ctx context.Context, name string) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// Chaos-testing hook: artifacts honor the query.evaluate failpoint that
	// every evaluated spec passes.
	if err := fault.InjectContext(ctx, fault.SiteQueryEvaluate); err != nil {
		return nil, err
	}
	ctx, sp := obs.Start(ctx, "experiment."+name)
	defer sp.End()
	switch name {
	case "fig2.1":
		return r.Fig21()
	case "fig2.2a":
		return r.Fig22a()
	case "fig2.2b":
		return r.Fig22b()
	case "table1":
		return r.Table1(ctx)
	case "fig3.1":
		return r.Fig31()
	case "fig3.2":
		return r.Fig32()
	case "fig3.3":
		return r.Fig33()
	case "table2":
		return r.Table2()
	case "ext-noise":
		return r.ExtNoiseMargin()
	case "ext-pitch":
		return r.ExtPitchAblation()
	default:
		return nil, fmt.Errorf("experiments: unknown experiment %q (have %v and extensions %v)",
			name, Names(), ExtensionNames())
	}
}

// RunMany executes the named experiments on a bounded pool of `workers`
// goroutines (≤ 0 means NumCPU). Every experiment is deterministic given the
// runner's parameters — Monte Carlo streams derive from Params.Seed per
// experiment, and the shared lazily-built state (device model, libraries,
// netlist) is built once under the runner's lock — so the results are
// identical to a serial run, in input order. On failure the error of the
// earliest-ordered failing experiment is returned (matching what a serial
// run would report) and no further experiments are started. Cancelling ctx
// stops dispatch and cancels the experiments in flight (see Run); the
// context's error is returned.
func (r *Runner) RunMany(ctx context.Context, names []string, workers int) ([]*Result, error) {
	if len(names) == 0 {
		return nil, nil
	}
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if workers > len(names) {
		workers = len(names)
	}
	if workers == 1 {
		out := make([]*Result, len(names))
		for i, name := range names {
			res, err := r.Run(ctx, name)
			if err != nil {
				return nil, fmt.Errorf("experiments: %s: %w", name, err)
			}
			out[i] = res
		}
		return out, nil
	}

	type outcome struct {
		idx int
		res *Result
		err error
	}
	jobs := make(chan int)
	outcomes := make(chan outcome, len(names))
	var failed atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for idx := range jobs {
				res, err := r.Run(ctx, names[idx])
				if err != nil {
					failed.Store(true)
				}
				outcomes <- outcome{idx: idx, res: res, err: err}
			}
		}()
	}
	// Dispatch in input order and stop handing out work after the first
	// failure or cancellation; experiments already in flight drain. Because
	// dispatch is ordered, every experiment preceding a failure has been
	// dispatched, so the earliest failing index is always observed.
	for idx := range names {
		if failed.Load() || ctx.Err() != nil {
			break
		}
		jobs <- idx
	}
	close(jobs)
	wg.Wait()
	close(outcomes)

	out := make([]*Result, len(names))
	firstErrIdx := -1
	var firstErr error
	for oc := range outcomes {
		if oc.err != nil {
			if firstErrIdx == -1 || oc.idx < firstErrIdx {
				firstErrIdx = oc.idx
				firstErr = oc.err
			}
			continue
		}
		out[oc.idx] = oc.res
	}
	if firstErr != nil {
		return nil, fmt.Errorf("experiments: %s: %w", names[firstErrIdx], firstErr)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// Known reports whether name is a paper or extension experiment — the one
// validation both the CLI and the server's job API build their
// unknown-experiment errors on.
func Known(name string) bool {
	for _, n := range append(Names(), ExtensionNames()...) {
		if n == name {
			return true
		}
	}
	return false
}

// Suggest returns the known experiment name closest to `name` by edit
// distance, when one is close enough to be a plausible typo — the "did you
// mean" hint behind the CLI's unknown-experiment error.
func Suggest(name string) (string, bool) {
	known := append(Names(), ExtensionNames()...)
	best, bestDist := "", int(^uint(0)>>1)
	for _, k := range known {
		if d := editDistance(name, k); d < bestDist {
			best, bestDist = k, d
		}
	}
	// A hint further than ~half the typed name away is noise, not help.
	limit := (len(name) + 1) / 2
	if limit < 2 {
		limit = 2
	}
	if best == "" || bestDist > limit {
		return "", false
	}
	return best, true
}

// editDistance is the Levenshtein distance between two short names.
func editDistance(a, b string) int {
	prev := make([]int, len(b)+1)
	cur := make([]int, len(b)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(a); i++ {
		cur[0] = i
		for j := 1; j <= len(b); j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			cur[j] = min(prev[j]+1, min(cur[j-1]+1, prev[j-1]+cost))
		}
		prev, cur = cur, prev
	}
	return prev[len(b)]
}

// failureModel lazily builds the shared worst-corner device model.
func (r *Runner) failureModel() (*device.FailureModel, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.model != nil {
		return r.model, nil
	}
	if err := r.params.Validate(); err != nil {
		return nil, err
	}
	m, err := device.NewCalibratedModelWith(r.sweeps, device.WorstCorner(),
		renewal.WithStep(r.params.GridStepNM), renewal.WithMaxWidth(r.params.MaxWidthNM))
	if err != nil {
		return nil, err
	}
	r.model = m
	return m, nil
}

// baseProblem returns the Section 2 sizing problem at a relax factor.
func (r *Runner) baseProblem(relax float64) (*yield.Problem, error) {
	m, err := r.failureModel()
	if err != nil {
		return nil, err
	}
	return &yield.Problem{
		Model:        m,
		Widths:       widthdist.OpenRISC45(),
		M:            r.params.M,
		DesiredYield: r.params.DesiredYield,
		RelaxFactor:  relax,
	}, nil
}

// wminAt solves (and caches) the simplified Wmin at a relax factor.
func (r *Runner) wminAt(relax float64) (yield.Result, error) {
	p, err := r.baseProblem(relax)
	if err != nil {
		return yield.Result{}, err
	}
	r.mu.Lock()
	if w, ok := r.solveCache[relax]; ok {
		r.mu.Unlock()
		pf, err := p.Model.FailureProb(w)
		if err != nil {
			return yield.Result{}, err
		}
		return yield.Result{Wmin: w, DevicePF: pf, MminShare: p.Widths.ShareBelow(w)}, nil
	}
	r.mu.Unlock()
	res, err := yield.SimplifiedWmin(p)
	if err != nil {
		return yield.Result{}, err
	}
	r.mu.Lock()
	r.solveCache[relax] = res.Wmin
	r.mu.Unlock()
	return res, nil
}

// libraries lazily builds the synthetic libraries.
func (r *Runner) libraries() (*celllib.Library, *celllib.Library, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.lib45 == nil {
		lib, err := celllib.NangateLike45()
		if err != nil {
			return nil, nil, err
		}
		r.lib45 = lib
	}
	if r.lib65 == nil {
		lib, err := celllib.Commercial65()
		if err != nil {
			return nil, nil, err
		}
		r.lib65 = lib
	}
	return r.lib45, r.lib65, nil
}

// openRISC45 lazily builds the synthetic OpenRISC netlist on the 45 nm
// library; every read of it goes through here, under the runner's lock.
func (r *Runner) openRISC45() (*netlist.Netlist, error) {
	lib45, _, err := r.libraries()
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.netlist45 == nil {
		nl, err := netlist.OpenRISCLike(lib45, r.params.NetlistInstances)
		if err != nil {
			return nil, err
		}
		r.netlist45 = nl
	}
	return r.netlist45, nil
}

// RowModelAtPitch builds a Table 1-style correlated row model at device
// width w (nm) for an arbitrary processing corner and inter-CNT pitch law
// (nil = the calibrated truncated normal): the runner's LCNT/density
// parameters and the lateral offset distribution measured on the shared
// synthetic 45 nm library, weighted by the OpenRISC cell mix. The returned
// model is prepared and ready for Monte Carlo estimation; Table 1 and the
// query Session's rowyield evaluations are its callers.
//
// Prepared models are cached by (width, corner, pitch law): a prepared
// RowModel is immutable and safe to share, so Table 1, the server's
// repeated /v1/rowyield answers and /v2 design-space sweeps all reuse one
// set of sampler, alias and occupancy tables per distinct operating point.
// Laws without a fingerprint bypass the cache.
func (r *Runner) RowModelAtPitch(width float64, corner device.FailureParams, pitch dist.Continuous) (*rowyield.RowModel, error) {
	if err := r.params.Validate(); err != nil {
		return nil, err
	}
	if err := corner.Validate(); err != nil {
		return nil, err
	}
	if pitch == nil {
		calibrated, err := device.CalibratedPitch()
		if err != nil {
			return nil, err
		}
		pitch = calibrated
	}
	key := ""
	if fp, ok := dist.Fingerprint(pitch); ok {
		key = fmt.Sprintf("%x|%x|%x|%x|%s", width, corner.PMetallic, corner.PRemoveSemi, corner.PRemoveMetallic, fp)
		r.mu.Lock()
		rm, hit := r.rowModels[key]
		r.mu.Unlock()
		if hit {
			return rm, nil
		}
	}
	lib45, _, err := r.libraries()
	if err != nil {
		return nil, err
	}
	nl, err := r.openRISC45()
	if err != nil {
		return nil, err
	}
	offsets, err := celllib.CriticalNFETOffsets(lib45, nl.Usage(), width)
	if err != nil {
		return nil, err
	}
	rm := &rowyield.RowModel{
		Pitch:         pitch,
		PerCNTFailure: corner.PerCNTFailure(),
		WidthNM:       width,
		LCNTNM:        r.params.LCNTUM * 1000,
		DensityPerUM:  r.params.PminPerUM,
		Offsets:       offsets,
	}
	if err := rm.Prepare(); err != nil {
		return nil, err
	}
	if key != "" {
		r.mu.Lock()
		if prior, raced := r.rowModels[key]; raced {
			rm = prior
		} else {
			if len(r.rowModels) >= rowModelCacheMax {
				// Width sweeps produce unbounded distinct keys; dropping
				// the whole small map is cheaper than LRU bookkeeping.
				clear(r.rowModels)
			}
			r.rowModels[key] = rm
		}
		r.mu.Unlock()
	}
	return rm, nil
}

// rowModelCacheMax bounds the prepared row-model cache; past it the cache
// resets (each entry holds a few small tables, so the bound is generous).
const rowModelCacheMax = 256

// mrminPaper returns the paper-parameter MRmin = LCNT × Pmin (≈ 360).
func (r *Runner) mrminPaper() (float64, error) {
	if err := r.params.Validate(); err != nil {
		return 0, err
	}
	return r.params.LCNTUM * r.params.PminPerUM, nil
}
