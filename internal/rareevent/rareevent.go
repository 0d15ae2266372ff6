// Package rareevent is the one row-failure estimator: every pRF estimate of
// a directional scenario, from Table 1's fixed-budget Monte Carlo to
// deep-tail targets below ~1e-10 where the paper's high-correlation
// scenarios live and plain Monte Carlo goes blind, is one call to
// EstimateRowFailureContext over the zero-allocation rowyield round engine.
//
// Plain, the zero Method, runs the base rounds: each returns the exact
// conditional failure probability of one track realization. Two rare-event
// methods are provided, both unbiased-by-construction or with an explicitly
// documented bias (DESIGN.md §8 states the full estimator contract):
//
//   - Tilted: importance sampling by exponential tilting of the pitch law
//     (dist.TruncNormal.Tilt). Rounds draw sparser track realizations and
//     return the exact conditional failure probability times an unbiased
//     likelihood-ratio weight (rowyield.TiltedRowModel). The tilt parameter
//     is chosen by an analytic renewal-CLT heuristic refined by a short
//     deterministic pilot ladder.
//   - Splitting: fixed-effort multilevel splitting over a row-failure
//     severity function (the maximum per-window fraction of contiguously
//     killed tracks), for laws or regimes where no useful tilt exists. Each
//     replica is one full subset-simulation run; replicas parallelize like
//     ordinary Monte Carlo rounds. The per-replica estimate is a product of
//     ratio estimators and carries an O(1/population) bias, quantified by
//     the replica scatter.
//
// The pilots count inside the round cap: together they take at most half
// of it, split evenly over the candidates, and the main run gets the rest.
// A zero relative-error target is a fixed budget: the plain or tilted
// rounds run once through montecarlo.RunState over the rounds the pilots
// left. A positive target switches to relative-error-targeted adaptive
// stopping (montecarlo.RunStateAdaptive): simulation proceeds in
// deterministic doubling blocks until the estimate's relative standard
// error reaches the target or a hard round cap is spent. Either way results
// stay bit-identical across worker counts. Auto selects between the methods
// from the pilot: the candidate with the lowest measured variance per round
// wins, falling back to splitting when neither plain nor tilted rounds see
// any mass.
//
//yield:compute
package rareevent

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"

	"github.com/cnfet/yieldlab/internal/dist"
	"github.com/cnfet/yieldlab/internal/montecarlo"
	"github.com/cnfet/yieldlab/internal/obs"
	"github.com/cnfet/yieldlab/internal/rng"
	"github.com/cnfet/yieldlab/internal/rowyield"
)

// Method selects the rare-event estimator.
type Method int

// The estimator methods. Plain is the zero value: the exact-DP Monte Carlo
// rounds of the base engine, unchanged except for adaptive stopping.
const (
	// Plain runs the base rowyield rounds under adaptive stopping.
	Plain Method = iota
	// Tilted runs importance-sampled rounds under the exponentially tilted
	// pitch law with unbiased likelihood-ratio weights.
	Tilted
	// Splitting runs fixed-effort multilevel splitting replicas over the
	// row-failure severity function.
	Splitting
	// Auto pilots plain rounds against a tilt ladder and picks the method
	// with the lowest measured variance per round, falling back to
	// splitting when no candidate sees any probability mass.
	Auto
)

// String returns the spec-level method name.
func (m Method) String() string {
	switch m {
	case Plain:
		return "plain"
	case Tilted:
		return "tilted"
	case Splitting:
		return "splitting"
	case Auto:
		return "auto"
	default:
		return fmt.Sprintf("Method(%d)", int(m))
	}
}

// ParseMethod maps a spec-level method name ("plain", "tilted", "splitting",
// "auto") to its Method.
func ParseMethod(name string) (Method, error) {
	switch name {
	case "plain":
		return Plain, nil
	case "tilted":
		return Tilted, nil
	case "splitting":
		return Splitting, nil
	case "auto":
		return Auto, nil
	default:
		return 0, fmt.Errorf("rareevent: unknown method %q (have plain, tilted, splitting, auto)", name)
	}
}

// Defaults of the estimator knobs that Options can override, and the fixed
// shape of the pilots and the splitting ladder.
const (
	// DefaultMaxRounds is the hard cap on simulation rounds (track
	// realizations, or splitting states) when Options.MaxRounds is zero.
	DefaultMaxRounds = 1 << 22
	// DefaultPopulation is the per-replica splitting population.
	DefaultPopulation = 1024
	// DefaultMoves is the number of MCMC refreshment moves applied to each
	// resampled splitting state.
	DefaultMoves = 4
	// pilotRounds caps the per-candidate budget of the tilt-selection
	// pilot (pilotBudget).
	pilotRounds = 2048
	// splitRho is the splitting level fraction: each level's threshold is
	// the empirical (1-splitRho) severity quantile of the population.
	splitRho = 0.1
	// splitLevelGuess converts the round budget into a replica cap before
	// the actual level count is known.
	splitLevelGuess = 8
	// maxSplitLevels bounds one replica's level ladder; at splitRho each
	// level gains about one decade, so 64 levels reach far below any
	// representable probability.
	maxSplitLevels = 64
)

// Options configures an estimate. The zero value is a fixed-budget plain
// run of DefaultMaxRounds rounds.
type Options struct {
	// Method selects the estimator (default Plain).
	Method Method
	// RelErrTarget, when positive, stops the run once the estimate's
	// relative standard error reaches it. Zero spends the whole budget;
	// the plain and tilted rounds then run as one fixed-budget
	// montecarlo.RunState call.
	RelErrTarget float64
	// MaxRounds caps total simulation rounds, pilots included
	// (0 = DefaultMaxRounds). For splitting the cap is interpreted as a
	// state budget: replicas stop when Population·splitLevelGuess per
	// replica would exceed it.
	MaxRounds int
	// Seed is the root seed (0 = rng.DefaultSeed).
	Seed uint64
	// Workers caps parallelism (0 = GOMAXPROCS).
	Workers int
	// Population and Moves tune the splitting replicas
	// (0 = the package defaults).
	Population int
	Moves      int
}

// withDefaults resolves zero options to the package defaults.
func (o Options) withDefaults() Options {
	if o.MaxRounds <= 0 {
		o.MaxRounds = DefaultMaxRounds
	}
	if o.Seed == 0 {
		o.Seed = rng.DefaultSeed
	}
	if o.Population <= 1 {
		o.Population = DefaultPopulation
	}
	if o.Moves <= 0 {
		o.Moves = DefaultMoves
	}
	return o
}

// Estimate is one rare-event estimate with its provenance: which method
// actually ran (Auto resolves to the winner), the tilt parameter or
// splitting shape used, and the rounds consumed (including any pilot).
type Estimate struct {
	// Mean and StdErr are the estimate and its standard error.
	Mean, StdErr float64
	// Rounds counts simulation rounds consumed: track realizations for the
	// plain and tilted methods (pilot included), simulated states for
	// splitting.
	Rounds int
	// Method is the estimator that produced the numbers; Auto reports the
	// method it selected.
	Method Method
	// Theta is the tilt parameter (Tilted only).
	Theta float64
	// Levels and Replicas describe the splitting run (Splitting only):
	// the deepest level ladder any replica built, and the replica count.
	Levels, Replicas int
}

// RelErr returns StdErr/Mean (infinite for a zero mean).
func (e Estimate) RelErr() float64 {
	if e.Mean == 0 {
		return math.Inf(1)
	}
	return e.StdErr / e.Mean
}

// EstimateRowFailureContext estimates pRF for a directional scenario of the
// row model; it is the one entry point from a RowModel to a pRF estimate.
// Plain with RelErrTarget zero is the fixed-budget estimate: exactly
// MaxRounds rounds through montecarlo.RunState. The uncorrelated scenario
// is rejected for every method — it has the closed form
// rowyield.IndependentRowFailure and no Monte Carlo round.
//
// When the context carries an obs.Tracer, the estimator records "mc.pilot"
// spans for its tilt-selection pilots and an "mc.run" span (method, rounds,
// tilt θ, achieved rel-err, engine counters) for the main run. Tracing never
// changes the numbers. Cancelling the context stops the pilots and the main
// run at their next round batch and returns the context's error, never a
// partial estimate: a completed run is deterministic in (seed, options).
func EstimateRowFailureContext(ctx context.Context, m *rowyield.RowModel, scenario rowyield.Scenario, opt Options) (Estimate, error) {
	if err := m.Prepare(); err != nil {
		return Estimate{}, err
	}
	opt = opt.withDefaults()
	if scenario == rowyield.UncorrelatedGrowth {
		return Estimate{}, fmt.Errorf("rareevent: %v has a closed form (rowyield.IndependentRowFailure) and no Monte Carlo round; the estimators apply to the directional scenarios", scenario)
	}
	switch opt.Method {
	case Plain:
		return estimateRounds(ctx, m, scenario, 0, opt, 0)
	case Tilted:
		ladder, err := tiltLadder(m)
		if err != nil {
			return Estimate{}, err
		}
		if len(ladder) == 0 {
			// No useful tilt exists (the event is not rare enough to move
			// the law for): the plain rounds run instead, with no pilot.
			return estimateRounds(ctx, m, scenario, 0, opt, 0)
		}
		pilot, err := pilotBudget(opt, len(ladder))
		if err != nil {
			return Estimate{}, err
		}
		psp := obs.StartLeaf(ctx, "mc.pilot")
		best, spent, err := pilotLadder(ctx, m, scenario, ladder, pilot, opt)
		theta := best.theta
		if math.IsInf(best.relvar, 1) {
			// Every pilot missed the event: take the ladder's centre θc
			// (the third rung); a deeper event only makes plain rounds
			// worse.
			theta = ladder[2]
		}
		psp.SetInt("candidates", len(ladder))
		psp.SetInt("rounds", spent)
		psp.SetFloat("tilt_theta", theta)
		psp.End()
		if err != nil {
			return Estimate{}, err
		}
		return estimateRounds(ctx, m, scenario, theta, opt, spent)
	case Splitting:
		return estimateSplitting(ctx, m, scenario, opt, 0)
	case Auto:
		return estimateAuto(ctx, m, scenario, opt)
	default:
		return Estimate{}, fmt.Errorf("rareevent: unknown method %d", int(opt.Method))
	}
}

// BudgetError rejects a round cap (Rounds) too small for a method's
// pilots: each needs at least 2 rounds, and together they may take at most
// half of the cap, so the method needs MinRounds.
type BudgetError struct {
	Method            Method
	Rounds, MinRounds int
}

// Error names the method's minimum cap and the cap asked for.
func (e *BudgetError) Error() string {
	return fmt.Sprintf("rareevent: %v needs rounds ≥ %d for its pilots, have %d", e.Method, e.MinRounds, e.Rounds)
}

// pilotBudget returns the rounds each of n pilots runs under opt's cap:
// the pilots share at most half of MaxRounds evenly, and each gets at
// least 2 rounds and at most pilotRounds.
func pilotBudget(opt Options, n int) (int, error) {
	per := min(opt.MaxRounds/2/n, pilotRounds)
	if per < 2 {
		return 0, &BudgetError{Method: opt.Method, Rounds: opt.MaxRounds, MinRounds: 4 * n}
	}
	return per, nil
}

// endRunSpan finishes an "mc.run" span with the estimate's provenance.
// The span's rounds are the main run's own: the pilots' rounds (spent),
// which the estimate also counts, are on their "mc.pilot" span, so the two
// spans sum to est.Rounds. Nil-safe like all span operations.
func endRunSpan(sp *obs.Span, est Estimate, spent int, err error) {
	if sp == nil {
		return
	}
	if err == nil {
		sp.SetStr("method", est.Method.String())
		sp.SetInt("rounds", est.Rounds-spent)
		if est.Theta != 0 {
			sp.SetFloat("tilt_theta", est.Theta)
		}
		if est.Levels > 0 {
			sp.SetInt("split_levels", est.Levels)
		}
		if est.Replicas > 0 {
			sp.SetInt("replicas", est.Replicas)
		}
		if est.Mean > 0 {
			sp.SetFloat("rel_err", est.RelErr())
		}
	}
	sp.End()
}

// sampler returns the scratch factory and round function of the plain
// rounds (theta 0) or of the rounds tilted by theta.
func sampler(m *rowyield.RowModel, theta float64) (func() *rowyield.RoundState, func(*rand.Rand, rowyield.Scenario, *rowyield.RoundState) (float64, error), error) {
	if theta == 0 {
		return m.NewRoundState, m.Round, nil
	}
	tm, err := m.Tilted(theta)
	if err != nil {
		return nil, nil, err
	}
	return tm.NewRoundState, tm.Round, nil
}

// estimateRounds runs the plain (theta 0) or tilted rounds over the budget
// left after the pilots' spent rounds: one fixed-budget RunState when
// opt.RelErrTarget is zero, adaptive doubling blocks otherwise.
func estimateRounds(ctx context.Context, m *rowyield.RowModel, scenario rowyield.Scenario, theta float64, opt Options, spent int) (Estimate, error) {
	newState, round, err := sampler(m, theta)
	if err != nil {
		return Estimate{}, err
	}
	f := func(r *rand.Rand, st *rowyield.RoundState) (float64, error) {
		return round(r, scenario, st)
	}
	sp := obs.StartLeaf(ctx, "mc.run")
	budget := opt.MaxRounds - spent
	mc := montecarlo.Options{Seed: opt.Seed, Workers: opt.Workers, Counters: sp.MC()}
	var est montecarlo.Estimate
	if opt.RelErrTarget == 0 {
		est, err = montecarlo.RunState(ctx, budget, newState, f, mc)
	} else {
		est, err = montecarlo.RunStateAdaptive(ctx, newState, f, montecarlo.AdaptiveOptions{
			Options: mc, RelErrTarget: opt.RelErrTarget, MaxRounds: budget,
		})
	}
	if err != nil {
		endRunSpan(sp, Estimate{}, 0, err)
		return Estimate{}, err
	}
	out := Estimate{Mean: est.Mean, StdErr: est.StdErr, Rounds: est.Rounds + spent, Method: Plain}
	if theta != 0 {
		out.Method, out.Theta = Tilted, theta
	}
	endRunSpan(sp, out, spent, nil)
	return out, nil
}

// estimateAuto pilots plain rounds against the tilt ladder and dispatches to
// the measured winner; when no candidate sees probability mass the event is
// too deep for direct sampling and splitting takes over.
//
// The plain candidate is not judged by its own pilot alone. The conditional
// estimator's p-distribution is heavy-tailed in the deep tail — the rare
// realizations that dominate E[p²] are the ones a short plain run never
// visits — so a plain pilot's Welford variance collapses spuriously and
// would win every comparison exactly where plain sampling is least
// trustworthy. Auto therefore prices the plain candidate at the larger of
// its self-measured relative variance and the tilt-measured one
// (E[p²]/E[p]² − 1 with E[p²] estimated under the best tilted candidate via
// rowyield.TiltedRowModel.Moments, which is unbiased for the base law's
// second moment).
func estimateAuto(ctx context.Context, m *rowyield.RowModel, scenario rowyield.Scenario, opt Options) (Estimate, error) {
	ladder, lerr := tiltLadder(m)
	if lerr != nil {
		ladder = nil // non-tiltable pitch law: auto degrades to plain vs splitting
	}
	// The candidates: the plain pilot, one per tilt, and the second-moment
	// pilot that prices plain against the best tilt.
	candidates := 1
	if len(ladder) > 0 {
		candidates += len(ladder) + 1
	}
	pilot, err := pilotBudget(opt, candidates)
	if err != nil {
		return Estimate{}, err
	}
	psp := obs.StartLeaf(ctx, "mc.pilot")
	plain, err := runPilot(ctx, m, scenario, 0, 0, pilot, opt)
	if err != nil {
		psp.End()
		return Estimate{}, err
	}
	best, spent, err := pilotLadder(ctx, m, scenario, ladder, pilot, opt)
	if err != nil {
		psp.End()
		return Estimate{}, err
	}
	spent += plain.rounds
	plainRelvar := plain.relvar
	if !math.IsInf(best.relvar, 1) && best.mean > 0 {
		m2, rounds, err := runSecondMomentPilot(ctx, m, scenario, best.theta, len(ladder)+1, pilot, opt)
		if err != nil {
			psp.End()
			return Estimate{}, err
		}
		spent += rounds
		truePlain := math.Inf(1)
		if m2 > 0 {
			truePlain = m2/(best.mean*best.mean) - 1
		}
		if truePlain > plainRelvar {
			plainRelvar = truePlain
		}
	}
	psp.SetInt("candidates", candidates)
	psp.SetInt("rounds", spent)
	psp.SetFloat("tilt_theta", best.theta)
	psp.End()
	switch {
	case best.relvar < plainRelvar:
		return estimateRounds(ctx, m, scenario, best.theta, opt, spent)
	case !math.IsInf(plainRelvar, 1):
		return estimateRounds(ctx, m, scenario, 0, opt, spent)
	default:
		return estimateSplitting(ctx, m, scenario, opt, spent)
	}
}

// runSecondMomentPilot estimates the base law's second moment E[p²] of the
// conditional failure probability by averaging p²·W over tilted
// realizations at tilt theta over the given rounds. Returns the estimate
// and the rounds spent.
func runSecondMomentPilot(ctx context.Context, m *rowyield.RowModel, scenario rowyield.Scenario, theta float64, idx, rounds int, opt Options) (float64, int, error) {
	tm, err := m.Tilted(theta)
	if err != nil {
		return 0, 0, err
	}
	est, err := montecarlo.RunState(ctx, rounds, tm.NewRoundState,
		func(r *rand.Rand, st *rowyield.RoundState) (float64, error) {
			_, p2w, err := tm.Moments(r, scenario, st)
			return p2w, err
		}, montecarlo.Options{Seed: pilotSeed(opt.Seed, idx), Workers: opt.Workers})
	if err != nil {
		return 0, 0, err
	}
	return est.Mean, est.Rounds, nil
}

// pilotLadder pilots the candidate ladder, each candidate over the given
// rounds, and returns the measured-best candidate (relvar +Inf when every
// pilot missed the event) plus the pilot rounds spent.
func pilotLadder(ctx context.Context, m *rowyield.RowModel, scenario rowyield.Scenario, ladder []float64, rounds int, opt Options) (pilotResult, int, error) {
	best := pilotResult{relvar: math.Inf(1)}
	spent := 0
	for i, theta := range ladder {
		p, err := runPilot(ctx, m, scenario, theta, i+1, rounds, opt)
		if err != nil {
			return pilotResult{}, 0, err
		}
		spent += p.rounds
		if p.relvar < best.relvar {
			best = p
		}
	}
	return best, spent, nil
}

// pilotResult is one tilt-pilot measurement: the per-round relative variance
// Var/Mean² is the figure of merit (rounds-to-target scales linearly in it);
// candidates that saw no mass score +Inf.
type pilotResult struct {
	theta  float64
	mean   float64
	relvar float64
	rounds int
}

// runPilot measures one candidate tilt (theta 0 = plain rounds) over the
// given rounds with its own derived stream, deterministically.
func runPilot(ctx context.Context, m *rowyield.RowModel, scenario rowyield.Scenario, theta float64, idx, rounds int, opt Options) (pilotResult, error) {
	newState, round, err := sampler(m, theta)
	if err != nil {
		return pilotResult{}, err
	}
	est, err := montecarlo.RunState(ctx, rounds, newState,
		func(r *rand.Rand, st *rowyield.RoundState) (float64, error) {
			return round(r, scenario, st)
		}, montecarlo.Options{Seed: pilotSeed(opt.Seed, idx), Workers: opt.Workers})
	if err != nil {
		return pilotResult{}, err
	}
	res := pilotResult{theta: theta, mean: est.Mean, relvar: math.Inf(1), rounds: est.Rounds}
	if est.Mean > 0 {
		n := float64(est.Rounds)
		res.relvar = est.StdErr * est.StdErr * n / (est.Mean * est.Mean)
	}
	return res, nil
}

// pilotSeed derives the pilot stream for candidate idx, decorrelated from
// the main run's adaptive block seeds by a distinct mixing constant.
func pilotSeed(seed uint64, idx int) uint64 {
	return rng.SplitMix64(seed ^ 0x9120_7EED ^ rng.SplitMix64(uint64(idx)*0x9E3779B97F4A7C15+0xBF58476D1CE4E5B9))
}

// tiltLadder returns the candidate tilt parameters, or nil when no useful
// positive tilt exists. The rungs sit around θc = θ*/4, a quarter of the
// analytic heuristic: θ* over-tilts, and from 0.5·θ* up the weights are
// heavy-tailed, so a short pilot underestimates their variance and can
// pick a rung that never converges. Over 2^16 rounds × 4 seeds on the
// calibrated law, the best of the rungs {0.5, 0.75, 1, 1.5}·θc measures a
// per-round relative variance of about 4 at 103 nm, 12 at 142.7 nm, 140
// at 270 nm and 210 at 330 nm; 0.5·θ* measures 1e2–9e3 and 0.75·θ*
// 1e3–6e4 at every width.
func tiltLadder(m *rowyield.RowModel) ([]float64, error) {
	thetaStar, err := analyticTheta(m)
	if err != nil {
		return nil, err
	}
	if thetaStar <= 0 {
		return nil, nil
	}
	c := thetaStar / 4
	return []float64{0.5 * c, 0.75 * c, c, 1.5 * c}, nil
}

// analyticTheta solves the renewal-CLT dominant-point heuristic for the tilt
// parameter: the per-window track count N(W) is approximately normal with
// mean n₀ = W/μ and variance v = Wσ²/μ³, so the integrand pf^n·P(N=n) of a
// window's failure probability peaks at n* ≈ n₀ + v·ln pf. The heuristic
// tilts the pitch law until its post-truncation mean is W/n* — centering the
// sampler on the dominant failure count. The pilot ladder (tiltLadder)
// corrects the heuristic's over-tilt.
func analyticTheta(m *rowyield.RowModel) (float64, error) {
	var tn dist.TruncNormal
	switch p := m.Pitch.(type) {
	case dist.TruncNormal:
		tn = p
	case *dist.TruncNormal:
		tn = *p
	default:
		return 0, fmt.Errorf("rareevent: tilting requires a truncated-normal pitch law, have %T", m.Pitch)
	}
	pf := m.PerCNTFailure
	if pf <= 0 || pf >= 1 {
		return 0, nil
	}
	mu, sd, w := tn.Mean(), tn.StdDev(), m.WidthNM
	if !(mu > 0) || !(sd > 0) || !(w > 0) {
		return 0, nil
	}
	n0 := w / mu
	v := w * sd * sd / (mu * mu * mu)
	nStar := n0 + v*math.Log(pf)
	if nStar < 1 {
		nStar = 1
	}
	if nStar >= 0.95*n0 {
		return 0, nil // the tilt would barely move the law; plain sampling is fine
	}
	muTarget := w / nStar

	// The tilted post-truncation mean is strictly increasing in θ; bracket
	// geometrically from the untruncated-normal slope dMean/dθ ≈ σ² and
	// bisect. Tilt errors past the bracket (θ beyond representable mass)
	// stop the expansion at the last good point.
	excess := func(theta float64) (float64, bool) {
		t, _, err := tn.Tilt(theta)
		if err != nil {
			return 0, false
		}
		return t.Mean() - muTarget, true
	}
	hi := (muTarget - mu) / (tn.Sigma * tn.Sigma)
	if !(hi > 0) {
		return 0, nil
	}
	for i := 0; ; i++ {
		e, ok := excess(hi)
		if ok && e >= 0 {
			break
		}
		if !ok || i > 60 {
			// Never bracketed: use the largest tiltable θ found.
			hi /= 2
			if !(hi > 0) {
				return 0, nil
			}
			if _, ok := excess(hi); ok {
				return hi, nil
			}
			continue
		}
		hi *= 2
	}
	lo := 0.0
	for i := 0; i < 80; i++ {
		mid := 0.5 * (lo + hi)
		e, ok := excess(mid)
		if !ok || e > 0 {
			hi = mid
		} else {
			lo = mid
		}
	}
	return 0.5 * (lo + hi), nil
}
