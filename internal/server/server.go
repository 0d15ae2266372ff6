// Package server wraps the query Session — the one evaluation path shared
// with the yieldlab facade and the cnfetyield CLI — in a long-lived
// HTTP/JSON service: the paper's "what is pF(W) / Wmin / row yield under
// this growth scenario?" questions as cheap, repeatable endpoints instead
// of one-shot CLI runs.
//
// Endpoints (all JSON):
//
//	GET  /healthz                 liveness
//	GET  /metrics                 Prometheus-text service metrics
//	GET  /v1/corners              the Fig. 2.1 processing corners
//	GET  /v1/pf                   device failure probability pF(W)
//	POST /v1/pf/batch             many (width, corner) points in one call
//	GET  /v1/wmin                 chip-level minimum width (Eq. 2.5)
//	GET  /v1/rowyield             row failure probability per scenario
//	POST /v2/query                declarative QuerySpec: single or sweep,
//	                              sync or job-backed (?async=1)
//	POST /v1/experiments          submit a paper-artifact job → job id
//	GET  /v1/jobs/{id}            job status and (partial) results
//	GET  /v1/stats                cache hit rates, sweeps, jobs in flight
//
// Every compute endpoint is a thin translation onto QuerySpecs
// (internal/query) evaluated by the shared Session through one server
// path: the spec is canonicalized once for its ETag, If-None-Match is
// answered with 304, the request takes a slot under the in-flight bound
// (or is shed with a retryable 503), and the session evaluates it under
// the request's own context. So /v1 answers are byte-identical to their
// /v2/query counterparts, and all compute routes share one validation,
// overload and encoding contract. Async work has one job kind: a spec
// evaluated by the job engine, whether submitted as /v2/query?async=1 or
// as an experiment-kind spec by POST /v1/experiments. Errors use one
// envelope: {"error": {"code", "message"}} — including 404/405 on unknown
// paths.
//
// Request cost is dominated by cold renewal sweeps; two layers keep them
// rare: the session's sweep cache shares swept tables across corners and
// requests (concurrent cold requests for one table wait on a single
// sweep), and an optional sweepstore directory persists the tables so a
// restarted server (or a parallel process) loads them in one streamed pass
// instead of sweeping.
package server

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/cnfet/yieldlab/internal/buildinfo"
	"github.com/cnfet/yieldlab/internal/device"
	"github.com/cnfet/yieldlab/internal/experiments"
	"github.com/cnfet/yieldlab/internal/fault"
	"github.com/cnfet/yieldlab/internal/jobstore"
	"github.com/cnfet/yieldlab/internal/obs"
	"github.com/cnfet/yieldlab/internal/query"
	"github.com/cnfet/yieldlab/internal/sweepstore"
)

// Defaults for Config zero values, then the fixed request bounds.
const (
	DefaultCacheEntries   = 64
	DefaultMaxJobs        = 64
	DefaultConcurrentJobs = 2
	DefaultRowRounds      = query.DefaultRowRounds
	// DefaultMaxInFlightSweeps bounds synchronous evaluations on all compute
	// routes at once before the server sheds load with a retryable 503.
	DefaultMaxInFlightSweeps = 32
	// BatchLimit caps points per /v1/pf/batch request and concrete specs
	// per /v2/query sweep.
	BatchLimit = 4096
	// MaxRowRounds caps the Monte Carlo rounds a rowyield request may ask
	// for. It covers the adaptive estimators' default round cap: a
	// rare-event request that names no explicit budget resolves to
	// query.DefaultAdaptiveRounds, and the limit must not reject the
	// service's own default.
	MaxRowRounds = query.DefaultAdaptiveRounds
)

// Config configures a Server.
type Config struct {
	// Params is the experiment configuration jobs run under and the source
	// of the device grid (step, max width). Zero value = DefaultParams.
	Params experiments.Params
	// Store, when non-nil, persists swept renewal tables: warmed from at
	// startup, written back after new sweeps and on Close.
	Store *sweepstore.Store
	// Jobs, when non-nil, journals async jobs so a restarted server
	// re-adopts them: terminal jobs return as served history, open jobs are
	// resumed from their last checkpointed result prefix.
	Jobs *jobstore.Store
	// CacheEntries bounds the sweep cache (0 = DefaultCacheEntries).
	CacheEntries int
	// MaxJobs bounds the retained job history (0 = DefaultMaxJobs).
	MaxJobs int
	// ConcurrentJobs bounds jobs computing at once (0 = DefaultConcurrentJobs).
	ConcurrentJobs int
	// RequestTimeout bounds each request's handling time: the request
	// context gets this deadline, and an evaluation that exceeds it answers
	// with a retryable 503 (0 = no deadline).
	RequestTimeout time.Duration
	// MaxInFlightSweeps bounds synchronous evaluations computing at once on
	// all compute routes (/v1/pf, /v1/pf/batch, /v1/wmin, /v1/rowyield and
	// sync /v2/query); excess requests are shed with a retryable 503 and
	// Retry-After while ETag revalidations still answer 304
	// (0 = DefaultMaxInFlightSweeps, negative = unbounded).
	MaxInFlightSweeps int
	// Logger receives one structured line per request (nil = discard, which
	// keeps tests and embedded uses quiet).
	Logger *slog.Logger
	// SlowLogEntries bounds the /debug/slowlog ring
	// (0 = obs.DefaultSlowLogEntries).
	SlowLogEntries int
	// SlowLogThreshold is the slowlog recording cutoff
	// (0 = obs.DefaultSlowLogThreshold; negative records every request).
	SlowLogThreshold time.Duration
}

// Server is the HTTP yield service. Create with New, serve Handler, and
// Close on shutdown to drain jobs and persist the sweep store.
type Server struct {
	cfg     Config
	session *query.Session
	jobs    *jobEngine
	mux     *http.ServeMux
	metrics *metricsRegistry
	slowlog *obs.SlowLog
	logger  *slog.Logger
	start   time.Time
	// ridPrefix and reqSeq generate X-Request-ID correlation ids: a
	// start-time prefix distinguishing restarts plus a process sequence.
	ridPrefix string
	reqSeq    atomic.Uint64
	// paramsTag fingerprints the server's parameter set; ETags combine it
	// with each spec's canonical fingerprint so two servers with different
	// grids or seeds can never validate each other's cached responses.
	paramsTag string
	// inflight bounds synchronous evaluations (nil = unbounded); shed
	// counts requests refused at that bound.
	inflight chan struct{}
	shed     atomic.Uint64
}

// New builds a server, warming the sweep cache from cfg.Store when present.
func New(cfg Config) (*Server, error) {
	if (cfg.Params == experiments.Params{}) {
		cfg.Params = experiments.DefaultParams()
	}
	if err := cfg.Params.Validate(); err != nil {
		return nil, err
	}
	if cfg.CacheEntries == 0 {
		cfg.CacheEntries = DefaultCacheEntries
	}
	if cfg.MaxJobs == 0 {
		cfg.MaxJobs = DefaultMaxJobs
	}
	if cfg.ConcurrentJobs == 0 {
		cfg.ConcurrentJobs = DefaultConcurrentJobs
	}
	if cfg.MaxInFlightSweeps == 0 {
		cfg.MaxInFlightSweeps = DefaultMaxInFlightSweeps
	}
	session, err := query.NewSession(query.Options{
		Params:       cfg.Params,
		Store:        cfg.Store,
		MaxRowRounds: MaxRowRounds,
	})
	if err != nil {
		return nil, err
	}
	logger := cfg.Logger
	if logger == nil {
		logger = slog.New(slog.DiscardHandler)
	}
	s := &Server{
		cfg:       cfg,
		session:   session,
		metrics:   newMetricsRegistry(),
		slowlog:   obs.NewSlowLog(cfg.SlowLogEntries, cfg.SlowLogThreshold),
		logger:    logger,
		start:     time.Now(),
		paramsTag: paramsTag(cfg.Params),
	}
	s.ridPrefix = fmt.Sprintf("%08x", uint32(s.start.UnixNano()))
	session.Cache().SetMaxEntries(cfg.CacheEntries)
	if cfg.MaxInFlightSweeps > 0 {
		s.inflight = make(chan struct{}, cfg.MaxInFlightSweeps)
	}
	s.jobs = newJobEngine(session, cfg.MaxJobs, cfg.ConcurrentJobs, cfg.Jobs)
	if resumed, err := s.jobs.adopt(); err != nil {
		session.Close()
		return nil, fmt.Errorf("adopting job journal: %w", err)
	} else if resumed > 0 {
		logger.Info("resumed journaled jobs", slog.Int("jobs", resumed))
	}
	s.routes()
	return s, nil
}

// paramsTag hashes the parameter set into a short response-identity prefix.
func paramsTag(p experiments.Params) string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("%#v", p)))
	return hex.EncodeToString(sum[:6])
}

// Session exposes the server's shared query session.
func (s *Server) Session() *query.Session { return s.session }

// Handler returns the service's HTTP handler: the route mux wrapped in the
// JSON 404/405 fallback and the observability middleware (per-request
// tracing, metrics, slowlog, structured log).
func (s *Server) Handler() http.Handler {
	return s.withObs(s.withJSONFallback())
}

// Close drains running jobs and persists the sweep cache.
func (s *Server) Close() error {
	s.jobs.drain()
	return s.session.Close()
}

// Shutdown is Close with a drain deadline: it waits up to d for running
// jobs, then persists the sweep cache regardless. Jobs still running at
// the deadline are abandoned in this process but stay journaled, so the
// next start re-adopts and resumes them — exactly the crash-recovery
// path, entered deliberately. d <= 0 waits indefinitely, like Close.
func (s *Server) Shutdown(d time.Duration) error {
	if d <= 0 {
		return s.Close()
	}
	if !s.jobs.drainTimeout(d) {
		s.logger.Warn("shutdown drain deadline exceeded; open jobs will resume on next start",
			slog.Duration("deadline", d))
	}
	return s.session.Close()
}

func (s *Server) routes() {
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /v1/corners", s.handleCorners)
	s.mux.HandleFunc("GET /v1/pf", s.handlePF)
	s.mux.HandleFunc("POST /v1/pf/batch", s.handlePFBatch)
	s.mux.HandleFunc("GET /v1/wmin", s.handleWmin)
	s.mux.HandleFunc("GET /v1/rowyield", s.handleRowYield)
	s.mux.HandleFunc("POST /v2/query", s.handleQuery)
	s.mux.HandleFunc("POST /v1/experiments", s.handleExperiments)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("GET /debug/slowlog", s.handleSlowlog)
}

// --- corners ---------------------------------------------------------------

// CornerJSON is the wire form of a processing corner.
type CornerJSON struct {
	Name  string  `json:"name"`
	Label string  `json:"label"`
	PM    float64 `json:"pm"`
	PRS   float64 `json:"prs"`
	// PF is the per-CNT failure probability pf = pm + (1-pm)·pRs (Eq. 2.1).
	PF float64 `json:"pf"`
}

// cornerNames maps the API names onto the Fig. 2.1 corners, worst first.
var cornerNames = query.CornerNames()

func corners() []CornerJSON {
	paper := device.PaperCorners()
	out := make([]CornerJSON, len(paper))
	for i, c := range paper {
		out[i] = CornerJSON{
			Name:  cornerNames[i],
			Label: c.Name,
			PM:    c.Params.PMetallic,
			PRS:   c.Params.PRemoveSemi,
			PF:    c.Params.PerCNTFailure(),
		}
	}
	return out
}

// cornerSpec fills the spec's corner fields from query-string values: a
// named corner, or explicit pm/prs overrides. Mixing the two is left to
// the session's validation.
func cornerSpec(spec *query.Spec, q url.Values) error {
	spec.Corner = q.Get("corner")
	if q.Get("pm") != "" {
		spec.PM = new(float64)
	}
	if q.Get("prs") != "" {
		spec.PRS = new(float64)
	}
	return errors.Join(floatParam(q, "pm", spec.PM), floatParam(q, "prs", spec.PRS))
}

// --- the evaluation path ---------------------------------------------------

// compute is the one synchronous evaluation path behind every compute
// route. In order it plans spec (canonicalizing it once) for the ETag,
// answers a matching If-None-Match with 304, takes a slot under the
// in-flight bound (shedding with a retryable 503 at the bound), and runs
// eval on the plan under the request's own context, encoding the payload
// it returns. Revalidation is answered before the bound: a 304 costs
// nothing, so clients holding a previous response keep getting answers
// even while cold work is being shed. A nil spec marks a route without one
// response identity (the batch), which skips the ETag steps and passes
// eval the zero Plan.
func (s *Server) compute(w http.ResponseWriter, r *http.Request, spec *query.Spec,
	eval func(ctx context.Context, p query.Plan) (any, error)) {
	var plan query.Plan
	var etag string
	if spec != nil {
		var err error
		if plan, err = s.plan(*spec); err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		etag = s.etagFor(plan.Fingerprint())
		if notModified(w, r, etag) {
			return
		}
	}
	release, ok := s.acquireSweep()
	if !ok {
		writeUnavailable(w, fmt.Errorf("sweep capacity reached (%d in flight), retry later", cap(s.inflight)))
		return
	}
	defer release()
	out, err := eval(r.Context(), plan)
	if err != nil {
		writeEvalError(w, err)
		return
	}
	switch {
	case etag == "":
	case r.Method == http.MethodGet:
		setCacheHeaders(w, etag)
	default:
		// Shared caches never store POST responses: they carry only the
		// validator.
		w.Header().Set("ETag", etag)
	}
	writeJSON(w, http.StatusOK, out)
}

// plan canonicalizes a request spec into its plan and bounds its sweep
// expansion before anything is expanded: the validation step shared by the
// sync and async paths.
func (s *Server) plan(spec query.Spec) (query.Plan, error) {
	p, err := spec.Plan()
	if err != nil {
		return query.Plan{}, err
	}
	if n := p.ExpandCount(); n > BatchLimit {
		return query.Plan{}, fmt.Errorf("sweep of %d specs exceeds limit %d", n, BatchLimit)
	}
	return p, nil
}

// acquireSweep reserves an in-flight evaluation slot, reporting false (and
// counting a shed) when the server is saturated.
func (s *Server) acquireSweep() (release func(), ok bool) {
	if s.inflight == nil {
		return func() {}, true
	}
	select {
	case s.inflight <- struct{}{}:
		return func() { <-s.inflight }, true
	default:
		s.shed.Add(1)
		return nil, false
	}
}

// submit queues spec as an async job — the one path of /v2/query?async=1
// and POST /v1/experiments.
func (s *Server) submit(w http.ResponseWriter, r *http.Request, spec query.Spec) {
	p, err := s.plan(spec)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	job, err := s.jobs.submit(r.Context(), p)
	if err != nil {
		writeUnavailable(w, err)
		return
	}
	w.Header().Set("Location", "/v1/jobs/"+job.ID)
	writeJSON(w, http.StatusAccepted, job)
}

// --- caching headers -------------------------------------------------------

// etagFor derives the response ETag of a canonical spec fingerprint.
func (s *Server) etagFor(fp string) string {
	return `"` + s.paramsTag + "-" + fp + `"`
}

// notModified reports whether the request's If-None-Match matches the ETag,
// in which case a 304 has been written.
func notModified(w http.ResponseWriter, r *http.Request, etag string) bool {
	match := r.Header.Get("If-None-Match")
	if match == "" {
		return false
	}
	for _, candidate := range strings.Split(match, ",") {
		candidate = strings.TrimSpace(candidate)
		candidate = strings.TrimPrefix(candidate, "W/")
		if candidate == etag || candidate == "*" {
			w.Header().Set("ETag", etag)
			w.WriteHeader(http.StatusNotModified)
			return true
		}
	}
	return false
}

// setCacheHeaders marks a deterministic response as cacheable. Every
// computation behind these endpoints is a pure function of (params, spec) —
// Monte Carlo estimates included, since their seeds are fixed — so
// revalidation by ETag is sound.
func setCacheHeaders(w http.ResponseWriter, etag string) {
	w.Header().Set("ETag", etag)
	w.Header().Set("Cache-Control", "public, max-age=86400")
}

// --- handlers --------------------------------------------------------------

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	info := buildinfo.Get()
	writeJSON(w, http.StatusOK, map[string]string{
		"status":     "ok",
		"version":    buildinfo.Version(),
		"go_version": info.GoVersion,
	})
}

func (s *Server) handleCorners(w http.ResponseWriter, r *http.Request) {
	etag := s.etagFor("corners")
	if notModified(w, r, etag) {
		return
	}
	setCacheHeaders(w, etag)
	writeJSON(w, http.StatusOK, map[string]any{"corners": corners()})
}

// PFJSON is one device failure probability evaluation — the /v1 wire name
// of the shared query result payload.
type PFJSON = query.PFResult

func (s *Server) handlePF(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	spec := query.Spec{Kind: query.KindPF, Node: q.Get("node")}
	if err := errors.Join(cornerSpec(&spec, q), floatParam(q, "width", &spec.WidthNM)); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	s.compute(w, r, &spec, func(ctx context.Context, p query.Plan) (any, error) {
		results, err := s.session.Run(ctx, p, nil)
		if err != nil {
			return nil, err
		}
		return results[0].PF, nil
	})
}

// BatchPointJSON is one requested (corner, width) evaluation.
type BatchPointJSON struct {
	Corner  string   `json:"corner,omitempty"`
	PM      *float64 `json:"pm,omitempty"`
	PRS     *float64 `json:"prs,omitempty"`
	WidthNM float64  `json:"width_nm"`
}

// handlePFBatch answers each point as its own pf plan, in input order,
// under one in-flight slot: every result is the /v1/pf body of that point.
// The points are arbitrary (corner, width) pairs, not one cartesian sweep,
// so each is planned on its own and every plan is checked before any runs.
// They run serially: all corners share one count table per law and grid,
// so after the first point every point is a warm-cache pF read, and the
// ordered pool would add goroutines without saving time.
func (s *Server) handlePFBatch(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Points []BatchPointJSON `json:"points"`
	}
	if err := decodeBody(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if len(req.Points) == 0 {
		writeError(w, http.StatusBadRequest, errors.New("empty batch"))
		return
	}
	if len(req.Points) > BatchLimit {
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("batch of %d points exceeds limit %d", len(req.Points), BatchLimit))
		return
	}
	plans := make([]query.Plan, len(req.Points))
	for i, pt := range req.Points {
		p, err := s.plan(query.Spec{Kind: query.KindPF,
			Corner: pt.Corner, PM: pt.PM, PRS: pt.PRS, WidthNM: pt.WidthNM})
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("point %d: %w", i, err))
			return
		}
		plans[i] = p
	}
	s.compute(w, r, nil, func(ctx context.Context, _ query.Plan) (any, error) {
		out := make([]PFJSON, len(plans))
		for i, p := range plans {
			results, err := s.session.Run(ctx, p, nil)
			if err != nil {
				return nil, fmt.Errorf("point %d: %w", i, err)
			}
			out[i] = *results[0].PF
		}
		return map[string]any{"results": out}, nil
	})
}

// WminJSON is one chip-level sizing solution — the /v1 wire name of the
// shared query result payload.
type WminJSON = query.WminResult

func (s *Server) handleWmin(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	// Only explicitly given parameters enter the spec: the session resolves
	// the defaults, so an unqualified /v1 request canonicalizes to the same
	// fingerprint (and ETag) as its zero-valued /v2 spec.
	spec := query.Spec{Kind: query.KindWmin, Node: q.Get("node")}
	if err := errors.Join(cornerSpec(&spec, q),
		floatParam(q, "relax", &spec.RelaxFactor),
		floatParam(q, "m", &spec.M),
		floatParam(q, "yield", &spec.DesiredYield)); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	s.compute(w, r, &spec, func(ctx context.Context, p query.Plan) (any, error) {
		results, err := s.session.Run(ctx, p, nil)
		if err != nil {
			return nil, err
		}
		return results[0].Wmin, nil
	})
}

// RowYieldJSON is one row-correlation scenario evaluation — the /v1 wire
// name of the shared query result payload.
type RowYieldJSON = query.RowYieldResult

func (s *Server) handleRowYield(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	spec := query.Spec{Kind: query.KindRowYield, Node: q.Get("node"),
		Scenario: q.Get("scenario"), MCMethod: q.Get("mc_method")}
	err := errors.Join(cornerSpec(&spec, q),
		floatParam(q, "width", &spec.WidthNM),
		floatParam(q, "rel_err", &spec.RelErrTarget),
		floatParam(q, "krows", &spec.KRows))
	if v := q.Get("rounds"); v != "" {
		n, perr := strconv.Atoi(v)
		if perr != nil {
			err = errors.Join(err, fmt.Errorf("parameter rounds=%q is not an integer", v))
		}
		spec.Rounds = n
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	s.compute(w, r, &spec, func(ctx context.Context, p query.Plan) (any, error) {
		results, err := s.session.Run(ctx, p, nil)
		if err != nil {
			return nil, err
		}
		return results[0].RowYield, nil
	})
}

// --- /v2/query -------------------------------------------------------------

// QueryResponseJSON is the /v2/query sync response: the canonical sweep
// fingerprint and one result per concrete spec, in expansion order.
type QueryResponseJSON struct {
	Fingerprint string         `json:"fingerprint"`
	Count       int            `json:"count"`
	Results     []query.Result `json:"results"`
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	spec, err := decodeSpecBody(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if isAsync(r) {
		s.submit(w, r, spec)
		return
	}
	s.compute(w, r, &spec, func(ctx context.Context, p query.Plan) (any, error) {
		results, err := s.session.Run(ctx, p, nil)
		if err != nil {
			return nil, err
		}
		return QueryResponseJSON{Fingerprint: p.Fingerprint(), Count: len(results), Results: results}, nil
	})
}

// isAsync reports whether the request asked for job-backed execution.
func isAsync(r *http.Request) bool {
	if r.URL.RawQuery == "" {
		return false
	}
	switch strings.ToLower(r.URL.Query().Get("async")) {
	case "1", "true", "yes":
		return true
	}
	return false
}

// --- experiment jobs -------------------------------------------------------

// ExperimentRequestJSON submits a paper-artifact job: an experiment-kind
// spec run by the job engine.
type ExperimentRequestJSON struct {
	// Experiments lists experiment names; ["all"] expands to the paper set.
	Experiments []string `json:"experiments"`
	// Seed overrides the Monte Carlo root seed (0 = server default).
	Seed uint64 `json:"seed,omitempty"`
}

func (s *Server) handleExperiments(w http.ResponseWriter, r *http.Request) {
	var req ExperimentRequestJSON
	if err := decodeBody(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	s.submit(w, r, query.Spec{Kind: query.KindExperiment, Experiments: req.Experiments, Seed: req.Seed})
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	job, ok := s.jobs.get(id)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", id))
		return
	}
	writeJSON(w, http.StatusOK, job)
}

// --- stats and metrics -----------------------------------------------------

// StatsJSON is the /v1/stats payload.
type StatsJSON struct {
	UptimeSeconds float64             `json:"uptime_seconds"`
	SweepCache    SweepCacheStatsJSON `json:"sweep_cache"`
	// ShedRequests counts synchronous evaluations refused at the in-flight
	// bound with a retryable 503.
	ShedRequests uint64            `json:"shed_requests"`
	Jobs         map[string]int    `json:"jobs"`
	Store        *StoreStatsJSON   `json:"store,omitempty"`
	Journal      *JournalStatsJSON `json:"job_journal,omitempty"`
	// Faults lists armed fault-injection sites and their firing counts;
	// absent in normal operation (the registry is disarmed).
	Faults []fault.SiteStats `json:"faults,omitempty"`
}

// SweepCacheStatsJSON reports the session's sweep-cache traffic.
type SweepCacheStatsJSON struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
	Entries   int    `json:"entries"`
	Sweeps    uint64 `json:"sweeps"`
}

func (s *Server) sweepCacheStats() SweepCacheStatsJSON {
	cs := s.session.Cache().Stats()
	return SweepCacheStatsJSON{Hits: cs.Hits, Misses: cs.Misses, Evictions: cs.Evictions,
		Entries: cs.Entries, Sweeps: cs.Sweeps}
}

// StoreStatsJSON reports sweep-store traffic.
type StoreStatsJSON struct {
	Dir     string `json:"dir"`
	Saves   uint64 `json:"saves"`
	Loads   uint64 `json:"loads"`
	Rejects uint64 `json:"rejects"`
	// Quarantined counts corrupt snapshot files renamed aside to .bad;
	// Retries counts save attempts repeated after transient failures.
	Quarantined uint64 `json:"quarantined"`
	Retries     uint64 `json:"retries"`
	// LastPersistError is the most recent cache-persistence failure, empty
	// once a later persist succeeds.
	LastPersistError string `json:"last_persist_error,omitempty"`
}

// JournalStatsJSON reports job-journal traffic and health.
type JournalStatsJSON struct {
	Dir         string `json:"dir"`
	Puts        uint64 `json:"puts"`
	Loads       uint64 `json:"loads"`
	Quarantined uint64 `json:"quarantined"`
	PutErrors   uint64 `json:"put_errors"`
	// Retries counts put attempts repeated after a transient failure.
	Retries uint64 `json:"retries"`
	// EngineErrors counts journal failures seen by the job engine (a
	// superset view: failed puts, deletes and undecodable records);
	// LastError is the most recent one.
	EngineErrors uint64 `json:"engine_errors"`
	LastError    string `json:"last_error,omitempty"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	var out StatsJSON
	out.UptimeSeconds = time.Since(s.start).Seconds()
	out.SweepCache = s.sweepCacheStats()
	out.ShedRequests = s.shed.Load()
	out.Jobs = s.jobs.counts()
	if store := s.session.Store(); store != nil {
		st := store.Stats()
		out.Store = &StoreStatsJSON{
			Dir: store.Dir(), Saves: st.Saves, Loads: st.Loads, Rejects: st.Rejects,
			Quarantined: st.Quarantined, Retries: st.Retries,
			LastPersistError: s.session.LastPersistError(),
		}
	}
	if s.cfg.Jobs != nil {
		jst := s.cfg.Jobs.Stats()
		errs, last := s.jobs.journalStats()
		out.Journal = &JournalStatsJSON{
			Dir: s.cfg.Jobs.Dir(), Puts: jst.Puts, Loads: jst.Loads,
			Quarantined: jst.Quarantined, PutErrors: jst.PutErrors,
			Retries: jst.Retries, EngineErrors: errs, LastError: last,
		}
	}
	out.Faults = fault.Stats()
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	snap := promSnapshot{
		uptimeSeconds: time.Since(s.start).Seconds(),
		cache:         s.sweepCacheStats(),
		shed:          s.shed.Load(),
		jobs:          s.jobs.counts(),
		build:         buildinfo.Get(),
		faults:        fault.Stats(),
	}
	if store := s.session.Store(); store != nil {
		st := store.Stats()
		snap.store = &st
	}
	if s.cfg.Jobs != nil {
		jst := s.cfg.Jobs.Stats()
		snap.journal = &jst
		snap.journalErrs, _ = s.jobs.journalStats()
	}
	s.metrics.write(w, snap)
}

// SlowLogJSON is the /debug/slowlog payload.
type SlowLogJSON struct {
	// ThresholdMS is the recording cutoff (0 = every request is recorded).
	ThresholdMS float64 `json:"threshold_ms"`
	// Capacity is the ring size; the newest Capacity slow requests are kept.
	Capacity int `json:"capacity"`
	// Observed and Recorded count requests seen and requests that cleared
	// the threshold over the server's lifetime.
	Observed uint64 `json:"observed"`
	Recorded uint64 `json:"recorded"`
	// Entries lists the retained slow requests, newest first.
	Entries []obs.SlowEntry `json:"entries"`
}

func (s *Server) handleSlowlog(w http.ResponseWriter, r *http.Request) {
	observed, recorded := s.slowlog.Counts()
	entries := s.slowlog.Entries()
	if entries == nil {
		entries = []obs.SlowEntry{}
	}
	writeJSON(w, http.StatusOK, SlowLogJSON{
		ThresholdMS: float64(s.slowlog.Threshold()) / float64(time.Millisecond),
		Capacity:    s.slowlog.Capacity(),
		Observed:    observed,
		Recorded:    recorded,
		Entries:     entries,
	})
}

// --- middleware ------------------------------------------------------------

// withJSONFallback answers requests no route matches with the JSON error
// envelope instead of the mux's plain-text defaults: 405 (with the Allow
// header preserved) when the path exists under another method, 404
// otherwise. It reads the match from the request's Pattern, which withObs
// set from its one lookup; a routed request still goes through the mux,
// which sets its path values.
func (s *Server) withJSONFallback() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Pattern != "" {
			s.mux.ServeHTTP(w, r)
			return
		}
		// Replay against a recorder to learn whether the mux default is a
		// 404 or a 405, without letting its plain-text body escape.
		rec := &headerRecorder{header: make(http.Header)}
		s.mux.ServeHTTP(rec, r)
		switch rec.status {
		case http.StatusMethodNotAllowed:
			if allow := rec.header.Get("Allow"); allow != "" {
				w.Header().Set("Allow", allow)
			}
			writeError(w, http.StatusMethodNotAllowed,
				fmt.Errorf("method %s not allowed for %s", r.Method, r.URL.Path))
		default:
			writeError(w, http.StatusNotFound, fmt.Errorf("unknown path %s", r.URL.Path))
		}
	})
}

// headerRecorder captures a handler's status and headers, discarding the body.
type headerRecorder struct {
	header http.Header
	status int
}

func (rec *headerRecorder) Header() http.Header { return rec.header }
func (rec *headerRecorder) WriteHeader(code int) {
	if rec.status == 0 {
		rec.status = code
	}
}
func (rec *headerRecorder) Write(b []byte) (int, error) {
	if rec.status == 0 {
		rec.status = http.StatusOK
	}
	return len(b), nil
}

// --- helpers ---------------------------------------------------------------

// floatParam parses the optional query parameter name into dst as a finite
// number. An absent or empty parameter leaves dst untouched, so the session
// resolves its default.
func floatParam(q url.Values, name string, dst *float64) error {
	v := q.Get(name)
	if v == "" {
		return nil
	}
	f, err := strconv.ParseFloat(v, 64)
	if err != nil || math.IsNaN(f) || math.IsInf(f, 0) {
		return fmt.Errorf("parameter %s=%q is not a finite number", name, v)
	}
	*dst = f
	return nil
}

// maxBodyBytes bounds a request body.
const maxBodyBytes = 16 << 20

// decodeBody strictly decodes a bounded JSON body: one JSON value with no
// unknown fields and nothing but whitespace after it.
func decodeBody(r *http.Request, dst any) error {
	dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return fmt.Errorf("decoding request body: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("decoding request body: unexpected data after the JSON value")
	}
	return nil
}

// decodeSpecBody is decodeBody for a query.Spec: the bounded body is read
// into pooled scratch and decoded by query.DecodeSpec, which answers the
// same Spec and the same errors without reflection on the bodies real
// traffic sends.
func decodeSpecBody(r *http.Request) (query.Spec, error) {
	buf := bodyBuffers.Get().(*bytes.Buffer)
	defer func() {
		if buf.Cap() <= maxPooledEdgeBuffer {
			bodyBuffers.Put(buf)
		}
	}()
	buf.Reset()
	_, readErr := buf.ReadFrom(http.MaxBytesReader(nil, r.Body, maxBodyBytes))
	q, err := query.DecodeSpec(buf.Bytes(), readErr)
	if err != nil {
		return query.Spec{}, fmt.Errorf("decoding request body: %w", err)
	}
	return q, nil
}

// bodyBuffers holds decodeSpecBody's scratch.
var bodyBuffers = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// ErrorJSON is the error envelope of every endpoint:
// {"error": {"code": "...", "message": "..."}}.
type ErrorJSON struct {
	Error ErrorBodyJSON `json:"error"`
}

// ErrorBodyJSON carries one error. Retryable marks conditions that clear
// on their own (queue full, load shed, deadline exceeded): the client
// should retry after the Retry-After hint, with backoff.
type ErrorBodyJSON struct {
	Code      string `json:"code"`
	Message   string `json:"message"`
	Retryable bool   `json:"retryable,omitempty"`
}

// errorCode maps an HTTP status onto the envelope's stable machine code.
func errorCode(status int) string {
	switch status {
	case http.StatusBadRequest:
		return "bad_request"
	case http.StatusNotFound:
		return "not_found"
	case http.StatusMethodNotAllowed:
		return "method_not_allowed"
	case http.StatusServiceUnavailable:
		return "unavailable"
	default:
		return "internal"
	}
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, ErrorJSON{Error: ErrorBodyJSON{Code: errorCode(status), Message: err.Error()}})
}

// writeUnavailable answers an overload rejection — queue full, sweep
// capacity reached, deadline exceeded — with a retryable 503 and a
// Retry-After hint: the condition clears as soon as in-flight work
// finishes, so the client should come back, not give up.
func writeUnavailable(w http.ResponseWriter, err error) {
	w.Header().Set("Retry-After", "1")
	writeJSON(w, http.StatusServiceUnavailable, ErrorJSON{Error: ErrorBodyJSON{
		Code: errorCode(http.StatusServiceUnavailable), Message: err.Error(), Retryable: true,
	}})
}

// writeEvalError classifies a session evaluation failure: caller mistakes
// (invalid or out-of-bounds specs) are 400s, a request-deadline expiry is
// a retryable 503, everything else — sweep or model failures the client
// did nothing to cause — is a 500.
func writeEvalError(w http.ResponseWriter, err error) {
	switch {
	case query.IsRequestError(err):
		writeError(w, http.StatusBadRequest, err)
	case errors.Is(err, context.DeadlineExceeded):
		writeUnavailable(w, err)
	default:
		writeError(w, http.StatusInternalServerError, err)
	}
}
