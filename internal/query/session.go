package query

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"github.com/cnfet/yieldlab/internal/device"
	"github.com/cnfet/yieldlab/internal/dist"
	"github.com/cnfet/yieldlab/internal/experiments"
	"github.com/cnfet/yieldlab/internal/fault"
	"github.com/cnfet/yieldlab/internal/noisemargin"
	"github.com/cnfet/yieldlab/internal/obs"
	"github.com/cnfet/yieldlab/internal/ordered"
	"github.com/cnfet/yieldlab/internal/rareevent"
	"github.com/cnfet/yieldlab/internal/renewal"
	"github.com/cnfet/yieldlab/internal/rowyield"
	"github.com/cnfet/yieldlab/internal/sweepstore"
	"github.com/cnfet/yieldlab/internal/tech"
	"github.com/cnfet/yieldlab/internal/widthdist"
	"github.com/cnfet/yieldlab/internal/yield"
)

// Options configures a Session. The zero value is usable: paper-default
// parameters, no persistence and no Monte Carlo bound. Each session builds
// its own sweep cache. Run does not bound a sweep's size: a transport that
// takes sweeps from clients checks Plan.ExpandCount before running them.
type Options struct {
	// Params is the experiment configuration: the source of the device grid,
	// seeds, chip size and yield-target defaults. Zero value = DefaultParams.
	Params experiments.Params
	// Store, when non-nil, persists swept renewal tables: the session warms
	// its cache from it at construction and writes back on Checkpoint/Close.
	Store *sweepstore.Store
	// MaxRowRounds caps the Monte Carlo rounds a rowyield spec may request
	// (0 = unbounded).
	MaxRowRounds int
}

// Session evaluates QuerySpecs over shared state: one renewal sweep cache
// (so every corner of one technology shares a swept table), a cache of
// prepared Monte Carlo row models and an optional persistent sweep store;
// its sweeps run on a pool bounded by Params.Workers. It is the single
// evaluation path behind the yieldlab facade, the cnfetyield -spec mode
// and every yieldserver endpoint, and is safe for concurrent use.
type Session struct {
	params experiments.Params
	cache  *renewal.SweepCache
	store  *sweepstore.Store
	opts   Options

	persistMu       sync.Mutex
	persistedSweeps uint64
	persistErr      string

	// rowModels caches prepared Monte Carlo row models by (width, corner,
	// pitch law). Preparation builds sampler, alias and occupancy tables and
	// re-measures the library offset distribution; repeated rowyield
	// requests and design-space sweeps ask for the same model again, and a
	// prepared RowModel is safe to share: its rounds only add to its
	// cumulative occupancy tables, which every request then reuses.
	rowModelsMu sync.Mutex
	rowModels   map[string]*rowyield.RowModel
}

// rowModelCacheMax bounds the prepared row-model cache; past it the cache
// resets. An entry holds a few small tables plus the cumulative occupancy
// tables its Monte Carlo rounds have filled, at most 256 KiB.
const rowModelCacheMax = 256

// NewSession builds a session, warming the sweep cache from opts.Store when
// present.
func NewSession(opts Options) (*Session, error) {
	if (opts.Params == experiments.Params{}) {
		opts.Params = experiments.DefaultParams()
	}
	if err := opts.Params.Validate(); err != nil {
		return nil, err
	}
	cache := renewal.NewSweepCache()
	s := &Session{
		params:    opts.Params,
		cache:     cache,
		store:     opts.Store,
		opts:      opts,
		rowModels: make(map[string]*rowyield.RowModel),
	}
	if opts.Store != nil {
		if _, err := sweepstore.WarmCache(opts.Store, cache); err != nil {
			return nil, fmt.Errorf("query: warming sweep cache: %w", err)
		}
	}
	return s, nil
}

// Params returns the session's experiment configuration.
func (s *Session) Params() experiments.Params { return s.params }

// Cache returns the session's shared renewal sweep cache.
func (s *Session) Cache() *renewal.SweepCache { return s.cache }

// Store returns the session's persistent sweep store (nil when none).
func (s *Session) Store() *sweepstore.Store { return s.store }

// Checkpoint persists the sweep cache to the store when new sweeps have
// been computed since the last persist. It runs synchronously but is cheap
// when nothing changed; sessions without a store no-op. A failure (disk
// full, permissions) must not fail the evaluation that triggered it, but it
// must not vanish either: it stays readable through LastPersistError until
// a later persist succeeds.
func (s *Session) Checkpoint() {
	s.persist()
}

// LastPersistError returns the most recent cache-persistence failure,
// empty once a later persist succeeds.
func (s *Session) LastPersistError() string {
	s.persistMu.Lock()
	defer s.persistMu.Unlock()
	return s.persistErr
}

// Close persists the sweep cache to the store, like Checkpoint, and returns
// the persist's error. It releases nothing else: sessions hold no
// goroutines.
func (s *Session) Close() error {
	return s.persist()
}

// persist is the one path to the store: under persistMu, it writes the
// tables the store does not hold yet when sweeps have run since the last
// successful persist, and records the outcome for LastPersistError.
func (s *Session) persist() error {
	if s.store == nil {
		return nil
	}
	s.persistMu.Lock()
	defer s.persistMu.Unlock()
	sweeps := s.cache.Stats().Sweeps
	if sweeps == s.persistedSweeps {
		return nil
	}
	if _, err := sweepstore.PersistCache(s.store, s.cache); err != nil {
		s.persistErr = err.Error()
		return err
	}
	s.persistErr = ""
	s.persistedSweeps = sweeps
	return nil
}

// grid returns the spec's renewal grid, falling back to session params.
func (s *Session) grid(q Spec) (step, maxWidth float64) {
	step, maxWidth = q.GridStepNM, q.MaxWidthNM
	if step == 0 {
		step = s.params.GridStepNM
	}
	if maxWidth == 0 {
		maxWidth = s.params.MaxWidthNM
	}
	return step, maxWidth
}

// pitchLaw returns the spec's inter-CNT pitch law: the frozen calibrated
// law by default, or a truncated normal re-parameterized by the spec's
// pitch overrides — processing density and variability as query
// coordinates.
func (s *Session) pitchLaw(q Spec) (dist.TruncNormal, error) {
	if q.PitchMeanNM == 0 && q.PitchSigmaRatio == 0 {
		return device.CalibratedPitch()
	}
	mean := q.PitchMeanNM
	if mean == 0 {
		mean = device.MeanPitchNM
	}
	ratio := q.PitchSigmaRatio
	if ratio == 0 {
		ratio = device.PitchSigmaRatio
	}
	return dist.TruncNormalWithMean(mean, ratio*mean, device.PitchMinNM)
}

// calibratedPitch is the frozen calibrated law boxed once as the
// dist.Continuous the sweep cache takes, so a default-law spec hands the
// cache this one value instead of boxing the law on the heap per spec.
var calibratedPitch = sync.OnceValues(func() (dist.Continuous, error) {
	return device.CalibratedPitch()
})

// openRISCByNode is the OpenRISC width distribution scaled to every paper
// node, keyed by node name: built once and shared read-only by every Wmin
// spec instead of rebuilt (and rescaled) per spec.
var openRISCByNode = sync.OnceValues(func() (map[string]*widthdist.Distribution, error) {
	out := make(map[string]*widthdist.Distribution)
	for _, node := range tech.PaperNodes() {
		d := widthdist.OpenRISC45()
		if node.Name != tech.Reference.Name {
			var err error
			if d, err = d.Scale(node); err != nil {
				return nil, err
			}
		}
		out[node.Name] = d
	}
	return out, nil
})

// nodeWidths returns the frozen OpenRISC width distribution of the named
// node ("" is the 45 nm reference).
func nodeWidths(name string) (*widthdist.Distribution, error) {
	node, err := resolveNode(name)
	if err != nil {
		return nil, err
	}
	dists, err := openRISCByNode()
	if err != nil {
		return nil, err
	}
	return dists[node.Name], nil
}

// sweep builds (or fetches from the shared cache) the failure model for
// the spec's corner, pitch law and grid and calls use on it, all under one
// "sweep" leaf span: a model fresh from the cache sweeps its full grid on
// first use, so the span covers acquisition and use, and is classified as
// a cache hit or a cold sweep by whether the count model came from the
// cache and swept nothing.
func (s *Session) sweep(ctx context.Context, params device.FailureParams, q Spec, use func(device.FailureModel) error) error {
	sp := obs.StartLeaf(ctx, "sweep")
	m, hit, err := s.model(params, q)
	if err != nil {
		sp.End()
		return err
	}
	before := m.CountModel().Sweeps()
	err = use(m)
	finishSweepSpan(sp, hit, m.CountModel().Sweeps()-before)
	return err
}

// model builds (or fetches from the shared cache) the failure model for the
// spec's corner, pitch law and grid; hit reports whether the count model
// came from the cache. The model is a value: it only pairs the cached count
// model with the corner's pf, so it stays off the heap.
func (s *Session) model(params device.FailureParams, q Spec) (m device.FailureModel, hit bool, err error) {
	var pitch dist.Continuous
	if q.PitchMeanNM == 0 && q.PitchSigmaRatio == 0 {
		pitch, err = calibratedPitch()
	} else {
		pitch, err = s.pitchLaw(q)
	}
	if err != nil {
		return device.FailureModel{}, false, err
	}
	step, maxWidth := s.grid(q)
	count, hit, err := s.cache.ModelTracked(pitch, renewal.WithStep(step), renewal.WithMaxWidth(maxWidth))
	if err != nil {
		return device.FailureModel{}, false, err
	}
	m, err = device.MakeFailureModel(count, params)
	return m, hit, err
}

// scaledWidth returns the physical width of the spec: the 45 nm-reference
// WidthNM scaled to the spec's node, checked against the grid range.
func (s *Session) scaledWidth(q Spec) (float64, error) {
	node, err := resolveNode(q.Node)
	if err != nil {
		return 0, err
	}
	w := node.ScaleWidth(q.WidthNM)
	_, maxWidth := s.grid(q)
	if !(w > 0) || w > maxWidth {
		return 0, badRequest(fmt.Errorf("width %g nm out of (0, %g]", w, maxWidth))
	}
	return w, nil
}

// Evaluate plans one concrete spec and runs it (see Run), so it persists
// newly swept tables as Run does. Specs carrying sweep axes are rejected —
// plan and Run them instead. The returned Result embeds the canonical spec
// and its fingerprint, so sweep outputs self-describe.
//
// When the context carries an obs.Tracer, the evaluation runs under a
// "query.evaluate" span with sweep and Monte Carlo child stages; a tracer
// with cost reporting enabled additionally attaches the CostBreakdown to
// the Result. Tracing never changes the computed numbers.
func (s *Session) Evaluate(ctx context.Context, q Spec) (Result, error) {
	p, err := q.Plan()
	if err != nil {
		return Result{}, err
	}
	if !p.spec.Sweep.empty() {
		return Result{}, badRequest(fmt.Errorf("query: spec has sweep axes; use EvaluateAll"))
	}
	results, err := s.Run(ctx, p, nil)
	if err != nil {
		return Result{}, err
	}
	return results[0], nil
}

// evaluate computes one concrete canonical spec whose fingerprint is fp,
// one of the canonical forms Run's expansion produced. Run is its only
// caller.
func (s *Session) evaluate(ctx context.Context, canon Spec, fp string) (Result, error) {
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	// Chaos-testing hook: one atomic load in production, an injected
	// error/delay/panic when the query.evaluate site is armed.
	if err := fault.InjectContext(ctx, fault.SiteQueryEvaluate); err != nil {
		return Result{}, err
	}
	ctx, sp := obs.Start(ctx, "query.evaluate")
	sp.SetStr("kind", canon.Kind)
	sp.SetStr("fingerprint", fp)
	res := Result{Spec: canon, Fingerprint: fp}
	var err error
	switch canon.Kind {
	case KindPF:
		res.PF, err = s.evalPF(ctx, canon)
	case KindWmin:
		res.Wmin, err = s.evalWmin(ctx, canon)
	case KindRowYield:
		res.RowYield, err = s.evalRowYield(ctx, canon)
	case KindNoise:
		res.Noise, err = s.evalNoise(ctx, canon)
	case KindExperiment:
		res.Experiments, err = s.evalExperiment(ctx, canon)
	default:
		err = fmt.Errorf("query: unknown kind %q", canon.Kind)
	}
	sp.End()
	if err != nil {
		return Result{}, err
	}
	if obs.TracerFrom(ctx).CostEnabled() {
		res.Cost = costFromSpan(sp)
	}
	return res, nil
}

func (s *Session) evalPF(ctx context.Context, q Spec) (*PFResult, error) {
	params, cornerName, err := q.FailureParams()
	if err != nil {
		return nil, err
	}
	w, err := s.scaledWidth(q)
	if err != nil {
		return nil, err
	}
	out := &PFResult{Corner: cornerName, Node: q.Node, WidthNM: w}
	err = s.sweep(ctx, params, q, func(m device.FailureModel) (err error) {
		out.PFCNT = m.PerCNTFailure()
		out.PF, err = m.FailureProb(w)
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

func (s *Session) evalWmin(ctx context.Context, q Spec) (*WminResult, error) {
	params, cornerName, err := q.FailureParams()
	if err != nil {
		return nil, err
	}
	m := q.M
	if m == 0 {
		m = s.params.M
	}
	desired := q.DesiredYield
	if desired == 0 {
		desired = s.params.DesiredYield
	}
	relax := q.RelaxFactor
	if relax == 0 {
		relax = 1
	}
	widths, err := nodeWidths(q.Node)
	if err != nil {
		return nil, err
	}
	// The Wmin search is sweep-dominated: every probed width evaluates the
	// swept count table, so the whole solve sits under the sweep span.
	var res yield.Result
	err = s.sweep(ctx, params, q, func(model device.FailureModel) (err error) {
		res, err = yield.SimplifiedWmin(&yield.Problem{
			Model:        &model,
			Widths:       widths,
			M:            m,
			DesiredYield: desired,
			RelaxFactor:  relax,
		})
		return err
	})
	if err != nil {
		return nil, err
	}
	return &WminResult{
		Corner: cornerName, Node: q.Node, M: m, DesiredYield: desired, RelaxFactor: relax,
		WminNM: res.Wmin, DevicePF: res.DevicePF, MminShare: res.MminShare,
	}, nil
}

func (s *Session) evalRowYield(ctx context.Context, q Spec) (*RowYieldResult, error) {
	params, cornerName, err := q.FailureParams()
	if err != nil {
		return nil, err
	}
	scenario, err := ResolveScenario(q.Scenario)
	if err != nil {
		return nil, err
	}
	w, err := s.scaledWidth(q)
	if err != nil {
		return nil, err
	}
	// A positive rel-err target or a non-plain estimator switches the
	// unaligned scenario to adaptive stopping; Rounds then caps the run
	// instead of fixing it. The cap is checked against MaxRowRounds on the
	// resolved value and rejected — never clamped — because a clamped run
	// would make the result depend on session limits the canonical spec
	// (and hence the fingerprint/ETag identity) knows nothing about.
	adaptive := q.RelErrTarget > 0 || (q.MCMethod != "" && q.MCMethod != "plain")
	rounds := q.Rounds
	if rounds == 0 {
		if adaptive {
			rounds = DefaultAdaptiveRounds
		} else {
			rounds = DefaultRowRounds
		}
	}
	if s.opts.MaxRowRounds > 0 && rounds > s.opts.MaxRowRounds {
		return nil, badRequest(fmt.Errorf("rounds %d exceeds limit %d", rounds, s.opts.MaxRowRounds))
	}
	var devicePF float64
	err = s.sweep(ctx, params, q, func(model device.FailureModel) (err error) {
		devicePF, err = model.FailureProb(w)
		return err
	})
	if err != nil {
		return nil, err
	}
	mrmin, err := rowyield.MRmin(s.params.LCNTUM*1000, s.params.PminPerUM)
	if err != nil {
		return nil, err
	}
	out := &RowYieldResult{
		Corner: cornerName, Node: q.Node, Scenario: q.Scenario, WidthNM: w,
		MRmin: mrmin, DevicePF: devicePF,
	}
	switch scenario {
	case rowyield.UncorrelatedGrowth:
		if out.PRF, err = rowyield.IndependentRowFailure(devicePF, mrmin); err != nil {
			return nil, err
		}
	case rowyield.DirectionalAligned:
		// Every CNFET in the row sees the same CNTs: pRF = pF exactly.
		out.PRF = devicePF
	case rowyield.DirectionalUnaligned:
		rm, err := s.rowModel(w, params, q)
		if err != nil {
			return nil, err
		}
		seed := q.Seed
		if seed == 0 {
			seed = s.params.Seed
		}
		// A non-adaptive spec is the fixed-budget plain estimate: target 0
		// runs exactly `rounds` rounds.
		method, target := rareevent.Plain, 0.0
		if adaptive {
			if q.MCMethod != "" {
				if method, err = rareevent.ParseMethod(q.MCMethod); err != nil {
					return nil, badRequest(err)
				}
			}
			if target = q.RelErrTarget; target == 0 {
				target = DefaultRelErrTarget
			}
		}
		est, err := rareevent.EstimateRowFailureContext(ctx, rm, scenario, rareevent.Options{
			Method:       method,
			RelErrTarget: target,
			MaxRounds:    rounds,
			Seed:         seed,
			Workers:      s.params.Workers,
		})
		if err != nil {
			return nil, err
		}
		out.PRF, out.StdErr, out.Rounds = est.Mean, est.StdErr, est.Rounds
		if adaptive {
			out.MCMethod = est.Method.String()
			out.TiltTheta = est.Theta
			out.SplitLevels = est.Levels
			if est.Mean > 0 {
				// JSON has no Inf; a zero estimate simply omits rel_err.
				out.RelErr = est.RelErr()
			}
		}
	}
	if q.KRows > 0 {
		out.KRows = q.KRows
		if out.ChipYield, err = rowyield.CorrelatedYield(q.KRows, out.PRF); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// rowModel builds the Monte Carlo row model: from the spec's explicit
// offset distribution when given, otherwise from the synthetic library
// through the session's prepared row-model cache.
func (s *Session) rowModel(width float64, params device.FailureParams, q Spec) (*rowyield.RowModel, error) {
	pitch, err := s.pitchLaw(q)
	if err != nil {
		return nil, err
	}
	if len(q.Offsets) == 0 {
		return s.libraryRowModel(width, params, pitch)
	}
	offsets, err := rowyield.NewOffsetDist(q.Offsets, q.OffsetProbs)
	if err != nil {
		return nil, err
	}
	rm := &rowyield.RowModel{
		Pitch:         pitch,
		PerCNTFailure: params.PerCNTFailure(),
		WidthNM:       width,
		LCNTNM:        s.params.LCNTUM * 1000,
		DensityPerUM:  s.params.PminPerUM,
		Offsets:       offsets,
	}
	if err := rm.Prepare(); err != nil {
		return nil, err
	}
	return rm, nil
}

// libraryRowModel returns the prepared library-weighted row model at
// (width, corner, pitch law), building it through an experiment runner on a
// miss. Width sweeps produce unbounded distinct keys, so past
// rowModelCacheMax entries the map is dropped whole, which is cheaper than
// LRU bookkeeping.
func (s *Session) libraryRowModel(width float64, params device.FailureParams, pitch dist.TruncNormal) (*rowyield.RowModel, error) {
	key := fmt.Sprintf("%x|%x|%x|%x|%s", width, params.PMetallic, params.PRemoveSemi, params.PRemoveMetallic, pitch.Fingerprint())
	s.rowModelsMu.Lock()
	rm, hit := s.rowModels[key]
	s.rowModelsMu.Unlock()
	if hit {
		return rm, nil
	}
	rm, err := experiments.NewWithCache(s.params, s.cache).RowModelAtPitch(width, params, pitch)
	if err != nil {
		return nil, err
	}
	s.rowModelsMu.Lock()
	defer s.rowModelsMu.Unlock()
	if prior, raced := s.rowModels[key]; raced {
		return prior, nil
	}
	if len(s.rowModels) >= rowModelCacheMax {
		clear(s.rowModels)
	}
	s.rowModels[key] = rm
	return rm, nil
}

func (s *Session) evalNoise(ctx context.Context, q Spec) (*NoiseResult, error) {
	params, cornerName, err := q.FailureParams()
	if err != nil {
		return nil, err
	}
	w, err := s.scaledWidth(q)
	if err != nil {
		return nil, err
	}
	prm := DefaultPRM
	if q.PRM != nil {
		prm = *q.PRM
	}
	ratio := q.RatioThreshold
	if ratio == 0 {
		ratio = noisemargin.DefaultRatioThreshold
	}
	gates := q.M
	if gates == 0 {
		gates = s.params.M
	}
	desired := q.DesiredYield
	if desired == 0 {
		desired = s.params.DesiredYield
	}
	var pmf dist.PMF
	err = s.sweep(ctx, params, q, func(model device.FailureModel) (err error) {
		pmf, err = model.CountModel().CountPMF(w)
		return err
	})
	if err != nil {
		return nil, err
	}
	np := noisemargin.Params{
		PMetallic:       params.PMetallic,
		PRemoveMetallic: prm,
		PRemoveSemi:     params.PRemoveSemi,
		RatioThreshold:  ratio,
	}
	v, err := noisemargin.ViolationProb(pmf, np)
	if err != nil {
		return nil, err
	}
	y, err := noisemargin.ChipNoiseYield(v, gates)
	if err != nil {
		return nil, err
	}
	req, err := noisemargin.RequiredPRm(pmf, np, gates, desired)
	if err != nil {
		return nil, err
	}
	return &NoiseResult{
		Corner: cornerName, Node: q.Node, WidthNM: w,
		PRM: prm, RatioThreshold: ratio,
		ViolationProb: v, Gates: gates, ChipYield: y,
		RequiredPRM: req, DesiredYield: desired,
	}, nil
}

func (s *Session) evalExperiment(ctx context.Context, q Spec) ([]ResultJSON, error) {
	// A runner holds no state beyond the session's sweep cache, so each spec
	// gets its own, built with the spec's resolved seed.
	p := s.params
	if q.Seed != 0 {
		p.Seed = q.Seed
	}
	results, err := experiments.NewWithCache(p, s.cache).RunMany(ctx, q.Experiments, s.params.Workers)
	if err != nil {
		return nil, err
	}
	return EncodeResults(results), nil
}

// SweepProgress observes Run's checkpointing: it is called once per
// completed spec, in expansion order (done counts the completed prefix,
// total the full expansion), on the goroutine that called Run.
type SweepProgress func(done, total int, r Result)

// EvaluateAll plans the spec and runs it (see Run) without a progress
// callback.
func (s *Session) EvaluateAll(ctx context.Context, q Spec) ([]Result, error) {
	return s.EvaluateAllFunc(ctx, q, nil)
}

// EvaluateAllFunc plans the spec and runs it (see Run), reporting progress.
func (s *Session) EvaluateAllFunc(ctx context.Context, q Spec, progress SweepProgress) ([]Result, error) {
	p, err := q.Plan()
	if err != nil {
		return nil, err
	}
	return s.Run(ctx, p, progress)
}

// Run expands the plan's sweep axes and evaluates every concrete spec
// past the plan's completed prefix (see Plan.Resume) on the ordered pool
// of internal/ordered, bounded by Params.Workers. Results come back in
// deterministic expansion order regardless of worker count; the first
// error (in expansion order, matching a serial run) stops dispatch and is
// returned, and context cancellation stops dispatch between specs. When
// the plan expands to more than one spec, an evaluation error names its
// spec as "query: spec i/n: "; a one-spec plan returns its error bare.
// Progress is reported as the completed prefix grows, in order, counting
// the resumed prefix, and — when the session has a persistent store —
// newly swept renewal tables are checkpointed to disk as the sweep
// proceeds, so an interrupted design-space exploration restarts warm.
//
// The calling goroutine is worker 0 and the collector: it evaluates specs
// itself and runs every progress callback, and only more than one spec to
// evaluate starts helper goroutines. A panic in a progress callback, or in
// a spec the caller evaluates, therefore unwinds the caller (once the
// helpers have finished their current spec); one in a helper ends the
// process.
func (s *Session) Run(ctx context.Context, p Plan, progress SweepProgress) ([]Result, error) {
	if p.fp == "" {
		return nil, badRequest(errors.New("query: Run needs a Plan built by Spec.Plan"))
	}
	specs, fps, err := p.expand()
	if err != nil {
		return nil, err
	}
	n := len(specs)
	skip := p.done
	out, err := ordered.Run(ctx, n-skip, s.params.Workers,
		func(i int) (Result, error) {
			res, err := s.evaluate(ctx, specs[skip+i], fps[skip+i])
			if err != nil && n > 1 {
				err = fmt.Errorf("query: spec %d/%d: %w", skip+i+1, n, err)
			}
			return res, err
		},
		func(i int, r Result) {
			if progress != nil {
				progress(skip+i+1, n, r)
			}
			s.Checkpoint()
		})
	s.Checkpoint()
	return out, err
}
