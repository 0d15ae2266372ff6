package query

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"github.com/cnfet/yieldlab/internal/device"
	"github.com/cnfet/yieldlab/internal/dist"
	"github.com/cnfet/yieldlab/internal/experiments"
	"github.com/cnfet/yieldlab/internal/fault"
	"github.com/cnfet/yieldlab/internal/montecarlo"
	"github.com/cnfet/yieldlab/internal/noisemargin"
	"github.com/cnfet/yieldlab/internal/obs"
	"github.com/cnfet/yieldlab/internal/rareevent"
	"github.com/cnfet/yieldlab/internal/renewal"
	"github.com/cnfet/yieldlab/internal/rowyield"
	"github.com/cnfet/yieldlab/internal/sweepstore"
	"github.com/cnfet/yieldlab/internal/tech"
	"github.com/cnfet/yieldlab/internal/widthdist"
	"github.com/cnfet/yieldlab/internal/yield"
)

// Options configures a Session. The zero value is usable: paper-default
// parameters, a fresh unbounded sweep cache, no persistence, NumCPU
// workers, and no sweep-size or Monte Carlo bounds.
type Options struct {
	// Params is the experiment configuration: the source of the device grid,
	// seeds, chip size and yield-target defaults. Zero value = DefaultParams.
	Params experiments.Params
	// Cache, when non-nil, is the renewal sweep cache to share; nil builds a
	// fresh one owned by the session.
	Cache *renewal.SweepCache
	// Store, when non-nil, persists swept renewal tables: the session warms
	// its cache from it at construction and writes back on Checkpoint/Close.
	Store *sweepstore.Store
	// Workers bounds EvaluateAll's concurrent spec evaluations
	// (0 = NumCPU).
	Workers int
	// MaxRowRounds caps the Monte Carlo rounds a rowyield spec may request
	// (0 = unbounded).
	MaxRowRounds int
	// MaxSweep caps how many concrete specs one sweep may expand to
	// (0 = unbounded).
	MaxSweep int
}

// Session evaluates QuerySpecs over shared state: one renewal sweep cache
// (so every corner of one technology shares a swept table), one lazily
// built experiment runner (libraries, placement), an optional persistent
// sweep store, and a bounded worker pool for sweeps. It is the single
// evaluation path behind the yieldlab facade, the cnfetyield -spec mode and
// every yieldserver endpoint, and is safe for concurrent use.
type Session struct {
	params  experiments.Params
	runner  *experiments.Runner
	cache   *renewal.SweepCache
	store   *sweepstore.Store
	workers int
	opts    Options

	persistMu       sync.Mutex
	persistedSweeps uint64
	persistErr      string
}

// NewSession builds a session, warming the sweep cache from opts.Store when
// present.
func NewSession(opts Options) (*Session, error) {
	if (opts.Params == experiments.Params{}) {
		opts.Params = experiments.DefaultParams()
	}
	if err := opts.Params.Validate(); err != nil {
		return nil, err
	}
	cache := opts.Cache
	if cache == nil {
		cache = renewal.NewSweepCache()
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	s := &Session{
		params:  opts.Params,
		runner:  experiments.NewWithCache(opts.Params, cache),
		cache:   cache,
		store:   opts.Store,
		workers: workers,
		opts:    opts,
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
// when nothing changed; sessions without a store no-op.
func (s *Session) Checkpoint() {
	if s.store == nil {
		return
	}
	s.persistMu.Lock()
	defer s.persistMu.Unlock()
	sweeps := s.cache.Stats().Sweeps
	if sweeps == s.persistedSweeps {
		return
	}
	// A failure (disk full, permissions) must not fail the evaluation that
	// triggered it, but it must not vanish either: the last error stays
	// readable until a later persist succeeds.
	if _, err := sweepstore.PersistCache(s.store, s.cache); err != nil {
		s.persistErr = err.Error()
		return
	}
	s.persistErr = ""
	s.persistedSweeps = sweeps
}

// LastPersistError returns the most recent cache-persistence failure,
// empty once a later persist succeeds.
func (s *Session) LastPersistError() string {
	s.persistMu.Lock()
	defer s.persistMu.Unlock()
	return s.persistErr
}

// Close persists the sweep cache to the store and releases nothing else:
// sessions hold no goroutines.
func (s *Session) Close() error {
	if s.store == nil {
		return nil
	}
	_, err := sweepstore.PersistCache(s.store, s.cache)
	return err
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

// model builds (or fetches from the shared cache) the failure model for the
// spec's corner, pitch law and grid; hit reports whether the count model
// came from the cache (the sweep spans classify evaluations with it).
func (s *Session) model(params device.FailureParams, q Spec) (m *device.FailureModel, hit bool, err error) {
	pitch, err := s.pitchLaw(q)
	if err != nil {
		return nil, false, err
	}
	step, maxWidth := s.grid(q)
	count, hit, err := s.cache.ModelTracked(pitch, renewal.WithStep(step), renewal.WithMaxWidth(maxWidth))
	if err != nil {
		return nil, false, err
	}
	m, err = device.NewFailureModel(count, params)
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

// Evaluate computes one concrete spec. Specs carrying sweep axes are
// rejected — expand them through EvaluateAll. The returned Result embeds
// the canonical spec and its fingerprint, so sweep outputs self-describe.
//
// When the context carries an obs.Tracer, the evaluation runs under a
// "query.evaluate" span with sweep and Monte Carlo child stages; a tracer
// with cost reporting enabled additionally attaches the CostBreakdown to
// the Result. Tracing never changes the computed numbers.
func (s *Session) Evaluate(ctx context.Context, q Spec) (Result, error) {
	canon, fp, err := q.Canonical()
	if err != nil {
		return Result{}, err
	}
	if !canon.Sweep.empty() {
		return Result{}, badRequest(fmt.Errorf("query: spec has sweep axes; use EvaluateAll"))
	}
	return s.evaluate(ctx, canon, fp)
}

// evaluate computes one concrete canonical spec whose fingerprint is fp —
// the body of Evaluate, entered directly by EvaluateAllFunc with the
// canonical forms expansion already produced.
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
	sp.SetAttr("kind", canon.Kind)
	sp.SetAttr("fingerprint", fp)
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
	// The sweep span covers model acquisition and the probability lookup:
	// a model fresh from the cache sweeps its full grid here on first use.
	sp := obs.StartLeaf(ctx, "sweep")
	m, hit, err := s.model(params, q)
	if err != nil {
		sp.End()
		return nil, err
	}
	before := m.CountModel().Sweeps()
	pf, err := m.FailureProb(w)
	finishSweepSpan(sp, hit, m.CountModel().Sweeps()-before)
	if err != nil {
		return nil, err
	}
	return &PFResult{Corner: cornerName, Node: q.Node, WidthNM: w, PFCNT: m.PerCNTFailure(), PF: pf}, nil
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
	widths := widthdist.OpenRISC45()
	node, err := resolveNode(q.Node)
	if err != nil {
		return nil, err
	}
	if node.Name != tech.Reference.Name {
		if widths, err = widths.Scale(node); err != nil {
			return nil, err
		}
	}
	// The Wmin search is sweep-dominated: every probed width evaluates the
	// swept count table, so the whole solve sits under the sweep span.
	sp := obs.StartLeaf(ctx, "sweep")
	model, hit, err := s.model(params, q)
	if err != nil {
		sp.End()
		return nil, err
	}
	before := model.CountModel().Sweeps()
	res, err := yield.SimplifiedWmin(&yield.Problem{
		Model:        model,
		Widths:       widths,
		M:            m,
		DesiredYield: desired,
		RelaxFactor:  relax,
	})
	finishSweepSpan(sp, hit, model.CountModel().Sweeps()-before)
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
	sp := obs.StartLeaf(ctx, "sweep")
	model, hit, err := s.model(params, q)
	if err != nil {
		sp.End()
		return nil, err
	}
	before := model.CountModel().Sweeps()
	devicePF, err := model.FailureProb(w)
	finishSweepSpan(sp, hit, model.CountModel().Sweeps()-before)
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
		if adaptive {
			method := rareevent.Plain
			if q.MCMethod != "" {
				if method, err = rareevent.ParseMethod(q.MCMethod); err != nil {
					return nil, badRequest(err)
				}
			}
			target := q.RelErrTarget
			if target == 0 {
				target = DefaultRelErrTarget
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
			out.MCMethod = est.Method.String()
			out.TiltTheta = est.Theta
			out.SplitLevels = est.Levels
			if est.Mean > 0 {
				// JSON has no Inf; a zero estimate simply omits rel_err.
				out.RelErr = est.RelErr()
			}
			break
		}
		msp := obs.StartLeaf(ctx, "mc.run")
		est, err := rm.EstimateRowFailureWith(ctx, scenario, rounds,
			montecarlo.Options{Seed: seed, Workers: s.params.Workers, Counters: msp.MC()})
		if err != nil {
			msp.End()
			return nil, err
		}
		msp.SetAttr("method", "plain")
		msp.SetAttr("rounds", est.Rounds)
		if est.Mean > 0 {
			msp.SetAttr("rel_err", est.StdErr/est.Mean)
		}
		msp.End()
		out.PRF, out.StdErr, out.Rounds = est.Mean, est.StdErr, est.Rounds
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
// offset distribution when given, otherwise from the shared synthetic
// library via the runner.
func (s *Session) rowModel(width float64, params device.FailureParams, q Spec) (*rowyield.RowModel, error) {
	pitch, err := s.pitchLaw(q)
	if err != nil {
		return nil, err
	}
	if len(q.Offsets) == 0 {
		return s.runner.RowModelAtPitch(width, params, pitch)
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
	sp := obs.StartLeaf(ctx, "sweep")
	model, hit, err := s.model(params, q)
	if err != nil {
		sp.End()
		return nil, err
	}
	before := model.CountModel().Sweeps()
	pmf, err := model.CountModel().CountPMF(w)
	finishSweepSpan(sp, hit, model.CountModel().Sweeps()-before)
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
	runner := s.runner
	if q.Seed != 0 && q.Seed != s.params.Seed {
		// Seed overrides get their own runner but share the sweep cache, so
		// even reseeded runs reuse swept tables.
		p := s.params
		p.Seed = q.Seed
		runner = experiments.NewWithCache(p, s.cache)
	}
	results, err := runner.RunMany(ctx, q.Experiments, s.params.Workers)
	if err != nil {
		return nil, err
	}
	return EncodeResults(results), nil
}

// SweepProgress observes EvaluateAllFunc's checkpointing: it is called once
// per completed spec, in expansion order (done counts the completed prefix,
// total the full expansion).
type SweepProgress func(done, total int, r Result)

// EvaluateAll expands the spec's sweep axes and evaluates every concrete
// spec on the session's bounded worker pool. Results come back in
// deterministic expansion order regardless of worker count; the first
// error (in expansion order, matching a serial run) aborts dispatch and is
// returned. Context cancellation stops dispatch between specs.
func (s *Session) EvaluateAll(ctx context.Context, q Spec) ([]Result, error) {
	return s.EvaluateAllFunc(ctx, q, nil)
}

// EvaluateAllFunc is EvaluateAll with a checkpoint callback: progress is
// reported as the completed prefix grows, in order, and — when the session
// has a persistent store — newly swept renewal tables are checkpointed to
// disk as the sweep proceeds, so an interrupted design-space exploration
// restarts warm.
func (s *Session) EvaluateAllFunc(ctx context.Context, q Spec, progress SweepProgress) ([]Result, error) {
	specs, fps, err := q.expand()
	if err != nil {
		return nil, err
	}
	if s.opts.MaxSweep > 0 && len(specs) > s.opts.MaxSweep {
		return nil, badRequest(fmt.Errorf("query: sweep of %d specs exceeds limit %d", len(specs), s.opts.MaxSweep))
	}
	workers := s.workers
	if workers > len(specs) {
		workers = len(specs)
	}

	type outcome struct {
		idx int
		res Result
		err error
	}
	jobs := make(chan int)
	outcomes := make(chan outcome, len(specs))
	var failed atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for idx := range jobs {
				res, err := s.evaluate(ctx, specs[idx], fps[idx])
				if err != nil {
					failed.Store(true)
				}
				outcomes <- outcome{idx: idx, res: res, err: err}
			}
		}()
	}

	// The collector drains outcomes as they land and checkpoints the
	// growing completed prefix in expansion order: progress callbacks fire
	// while later specs are still computing, and newly swept tables are
	// persisted mid-sweep, not just at the end. Done is deliberately not
	// deferred: a progress callback that panics kills the process, and a
	// deferred Done would run while the panic unwinds, letting this call
	// return the partial prefix as a finished sweep in the meantime — the
	// job engine would journal it as a done job with missing results.
	out := make([]Result, len(specs))
	completed := make([]bool, len(specs))
	firstErrIdx := -1
	var firstErr error
	var collectWg sync.WaitGroup
	collectWg.Add(1)
	go func() {
		next := 0
		for oc := range outcomes {
			if oc.err != nil {
				if firstErrIdx == -1 || oc.idx < firstErrIdx {
					firstErrIdx = oc.idx
					firstErr = oc.err
				}
				continue
			}
			out[oc.idx] = oc.res
			completed[oc.idx] = true
			for next < len(specs) && completed[next] {
				if progress != nil {
					progress(next+1, len(specs), out[next])
				}
				s.Checkpoint()
				next++
			}
		}
		collectWg.Done()
	}()

	// Dispatch in expansion order and stop handing out work on the first
	// failure or cancellation; specs already in flight drain normally.
	// Because dispatch is ordered, every spec preceding a failure has been
	// dispatched, so the earliest failing index is always observed.
	for idx := range specs {
		if failed.Load() || ctx.Err() != nil {
			break
		}
		jobs <- idx
	}
	close(jobs)
	wg.Wait()
	close(outcomes)
	collectWg.Wait()
	s.Checkpoint()

	if firstErr != nil {
		return nil, fmt.Errorf("query: spec %d/%d: %w", firstErrIdx+1, len(specs), firstErr)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return out, nil
}
