// Command yieldbench is the end-to-end benchmark of the yield server. It
// builds a server.Server over a sweep store and a job journal, the way
// `yieldserver -store DIR` runs, drives real requests through its HTTP
// handler in process (no network), checks the answers (paper anchors, each
// response against its kind's invariants, and a sample recomputed on an
// independent session), and prints one JSON result line.
//
// The traffic replays queries already in the repository: the pinned
// fingerprint corpus (internal/analysis/apilock/golden/fingerprints.json)
// and examples/design_space. Each workload is a closed loop of one client,
// which sends its next request only after the previous one completed; the
// seed draws the order of the requests. The process runs on one P
// (GOMAXPROCS=1), as a single-core server.
//
//	hot    sync /v2/query over the corpus's cheap queries plus the
//	       design_space Wmin sweep and its 360x relaxation query, on the
//	       renewal table the server loaded from its sweep store
//	cold   sync /v2/query over the corpus's pf and closed-form row-yield
//	       queries on a 160 nm, 0.1 nm-step renewal grid, each on a new
//	       server without a store, so every request computes its sweep;
//	       not in BENCHMARK.json: a sweep takes 7 or 11 ms by what the
//	       host's other tenants do to the shared cache, which the
//	       calibration kernel does not see, so its median moves by half
//	       from run to run
//	async  the corpus's Monte Carlo row-yield query as /v2/query?async=1
//	       jobs (a fresh MC seed per job), polled on /v1/jobs/{id} until
//	       done, through the journaled job engine
//
// The warm-store regime, a server starting over a sweep store and journal
// that already hold its tables, is set-up: every workload first starts such
// a server several times.
//
// With -trace 0 it reports end-to-end metrics: request (or job) latency
// p50, throughput, and set-up time, the median of several server start-ups
// over the warm sweep store, all scaled to a nominal host speed by a
// calibration kernel timed during the run (calibrate.go). With -trace 1
// every sync request asks
// for the server's ?debug=cost stage breakdown, and the result reports the
// per-layer attribution built from it and from /v1/stats counter deltas;
// the benchmark's own spans are written as a Chrome trace under -workdir.
//
// Run it from the repository root through its wrapper, which builds it:
//
//	python3 yieldbench/run.py --workload hot --seed 1 --seconds 45 --trace 0
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"github.com/cnfet/yieldlab/internal/experiments"
	"github.com/cnfet/yieldlab/internal/jobstore"
	"github.com/cnfet/yieldlab/internal/obs"
	"github.com/cnfet/yieldlab/internal/query"
	"github.com/cnfet/yieldlab/internal/renewal"
	"github.com/cnfet/yieldlab/internal/server"
	"github.com/cnfet/yieldlab/internal/sweepstore"
)

// setupReps is how many times set-up is repeated; setup_s is the median.
const setupReps = 31

// maxTracedRequests bounds the request spans kept for the trace file.
const maxTracedRequests = 2000

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	workdir  string
}

// workload is one traffic mix. Inputs derive from the seed and the request
// index only, so the same seed replays the same requests.
type workload interface {
	// kernel is the calibration kernel of the workload's kind of work.
	kernel() *kernel
	// warm sends untimed requests that fill the caches the measured loop
	// relies on; it runs after set-up.
	warm(b *bench) error
	// reseat, untimed, moves what the workload's requests work on to newly
	// faulted memory at the start of each segment of the measured loop.
	reseat(b *bench) error
	// issue sends request (or job) i and waits for its answer.
	issue(b *bench, i int) sample
	// verify recomputes recorded answers with eval after the measured loop
	// and reports any difference.
	verify(eval evaluator) error
}

var workloads = map[string]func(seed uint64) (workload, error){
	"hot":   newHotWorkload,
	"cold":  newColdWorkload,
	"async": newAsyncWorkload,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("yieldbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "traffic mix: hot, cold or async")
	fs.Uint64Var(&o.seed, "seed", 1, "input seed: the same seed gives the same requests")
	fs.Float64Var(&o.seconds, "seconds", 10, "length of the measured loop in seconds")
	fs.IntVar(&trace, "trace", 0, "1 = report per-layer metrics (requests ask for ?debug=cost)")
	fs.StringVar(&o.workdir, "workdir", ".bench_build/work", "directory for the run's sweep store, job journal and trace file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	newWorkload, ok := workloads[o.workload]
	if !ok || fs.NArg() != 0 || !(o.seconds > 0) || (trace != 0 && trace != 1) {
		fmt.Fprintf(stderr, "yieldbench: need -workload hot|cold|async, -seconds > 0, -trace 0|1\n")
		return 2
	}
	o.trace = trace == 1
	// One P: the server and the load generator share a single core, so no
	// request waits for another core to wake from idle, and the figures
	// do not move with what else the host runs on its other cores.
	runtime.GOMAXPROCS(1)
	wl, err := newWorkload(o.seed)
	if err != nil {
		fmt.Fprintln(stderr, "yieldbench:", err)
		return 1
	}
	res, err := runBench(o, wl)
	if err != nil {
		fmt.Fprintln(stderr, "yieldbench:", err)
		return 1
	}
	if err := json.NewEncoder(stdout).Encode(res); err != nil {
		fmt.Fprintln(stderr, "yieldbench:", err)
		return 1
	}
	return 0
}

// bench is one run: the server under test and the benchmark's own tracer.
type bench struct {
	opts    options
	params  experiments.Params
	dir     string
	srv     *server.Server
	handler http.Handler
	// ctx carries the benchmark's tracer in trace mode (nil tracer
	// otherwise, which makes every span a no-op).
	ctx    context.Context
	tracer *obs.Tracer
	spans  int
	cal    *calibrator
}

// Metric is one reported number.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the benchmark's output line.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

func runBench(o options, wl workload) (Result, error) {
	b := &bench{opts: o, params: experiments.DefaultParams(), ctx: context.Background(), cal: newCalibrator(wl.kernel())}
	if o.trace {
		b.tracer = obs.New()
		b.ctx = obs.WithTracer(b.ctx, b.tracer)
	}
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		return Result{}, err
	}
	dir, err := os.MkdirTemp(o.workdir, "run-")
	if err != nil {
		return Result{}, err
	}
	b.dir = dir
	defer os.RemoveAll(dir)
	// Error paths leave a server running; stop its jobs before the run
	// directory goes.
	defer b.stopServer()

	setup, err := b.setup()
	if err != nil {
		return Result{}, err
	}
	anchorErr := b.checkAnchors()
	if anchorErr != nil {
		fmt.Fprintln(os.Stderr, "yieldbench: paper anchor:", anchorErr)
	}
	if err := b.span("warmup", func() error { return wl.warm(b) }); err != nil {
		return Result{}, fmt.Errorf("warm-up: %w", err)
	}
	before, err := b.stats()
	if err != nil {
		return Result{}, err
	}
	runtime.GC()
	samples, busy, err := b.loop(wl)
	if err != nil {
		return Result{}, err
	}
	after, err := b.stats()
	if err != nil {
		return Result{}, err
	}
	// Close drains the job engine before verification reads results.
	closeErr := b.stopServer()
	verifyErr := b.span("verify", func() error { return wl.verify(b.independentEvaluator()) })
	if verifyErr != nil {
		fmt.Fprintln(os.Stderr, "yieldbench: verification failed:", verifyErr)
	}
	if closeErr != nil {
		fmt.Fprintln(os.Stderr, "yieldbench: server close:", closeErr)
	}

	res := Result{Correct: anchorErr == nil && verifyErr == nil && closeErr == nil, Attempted: len(samples)}
	for _, s := range samples {
		if !s.ok {
			if res.Failed == 0 {
				fmt.Fprintln(os.Stderr, "yieldbench: first failed request:", s.err)
			}
			res.Failed++
		}
	}
	if res.Failed > 0 {
		res.Correct = false
	}
	fmt.Fprintf(os.Stderr, "yieldbench: %s kernel %.4f ms (nominal %.2f ms) over %d timings\n",
		b.cal.k.name, b.cal.hostMS(), b.cal.k.nominalMS, len(b.cal.times))
	if o.trace {
		res.Metrics = layerMetrics(samples, setup, before, after)
		if err := b.writeTrace(); err != nil {
			return Result{}, err
		}
	} else {
		res.Metrics = endToEndMetrics(samples, busy, setup, b.cal.scale())
	}
	return res, nil
}

// setupTimes holds set-up timings in seconds, one per repetition.
type setupTimes struct {
	server []float64 // store open + server.New + first request
	warm   []float64 // sweepstore.WarmCache alone (trace mode)
}

// setup primes the sweep store with the default pitch law's renewal table,
// the one every replayed query uses (untimed), then starts the server
// setupReps times over it, timing each start-up: opening the store and
// journal, server.New (which warms the sweep cache from the store and adopts
// the journal) and one /healthz request. The previous server is closed
// before the clock starts, so its shutdown (which persists the sweep cache)
// is not timed. The last server stays up for the run. Every workload pays
// the same set-up, so setup_s means one thing.
func (b *bench) setup() (setupTimes, error) {
	var st setupTimes
	storeDir := filepath.Join(b.dir, "sweeps")
	err := b.span("setup.prime_store", func() error {
		store, err := sweepstore.Open(storeDir)
		if err != nil {
			return err
		}
		sess, err := query.NewSession(query.Options{Params: b.params, Store: store})
		if err != nil {
			return err
		}
		if _, err := sess.Evaluate(context.Background(), query.Spec{Kind: query.KindPF, WidthNM: 155}); err != nil {
			return err
		}
		return sess.Close()
	})
	if err != nil {
		return st, fmt.Errorf("priming sweep store: %w", err)
	}
	for rep := 0; rep < setupReps; rep++ {
		if err := b.stopServer(); err != nil {
			return st, fmt.Errorf("closing server: %w", err)
		}
		// Collect the previous server's tables now, so that no start-up
		// pays for them.
		runtime.GC()
		err := b.span("setup.server_start", func() error {
			start := time.Now()
			if err := b.startServer(true); err != nil {
				return err
			}
			st.server = append(st.server, time.Since(start).Seconds())
			return nil
		})
		if err != nil {
			return st, fmt.Errorf("starting server: %w", err)
		}
		b.cal.measure()
		if b.opts.trace {
			err := b.span("setup.store_warm", func() error {
				store, err := sweepstore.Open(storeDir)
				if err != nil {
					return err
				}
				start := time.Now()
				n, err := sweepstore.WarmCache(store, renewal.NewSweepCache())
				if err == nil && n != 1 {
					err = fmt.Errorf("warmed %d tables, want 1", n)
				}
				st.warm = append(st.warm, time.Since(start).Seconds())
				return err
			})
			if err != nil {
				return st, err
			}
		}
	}
	return st, nil
}

// paperAnchors are numbers the served answers must reproduce, whatever
// else a change does: pF(155 nm) at the worst corner, and the minimum
// width for 90% yield of a 1e8-transistor chip without and with the
// paper's 360x correlation relaxation (EXPERIMENTS.md, Figs. 2.1/2.2b).
var paperAnchors = []struct {
	spec      query.Spec
	value     func(query.Result) float64
	want, tol float64
}{
	{query.Spec{Kind: query.KindPF, Corner: "worst", WidthNM: 155}, func(r query.Result) float64 { return r.PF.PF }, 3.108e-9, 0.01},
	{query.Spec{Kind: query.KindWmin, DesiredYield: 0.9}, func(r query.Result) float64 { return r.Wmin.WminNM }, 154.8, 0.001},
	{query.Spec{Kind: query.KindWmin, DesiredYield: 0.9, RelaxFactor: 360}, func(r query.Result) float64 { return r.Wmin.WminNM }, 108.3, 0.001},
}

// checkAnchors asks the server for each paper anchor (untimed).
func (b *bench) checkAnchors() error {
	for _, a := range paperAnchors {
		body, err := json.Marshal(a.spec)
		if err != nil {
			return err
		}
		code, resp, _ := b.serve(http.MethodPost, "/v2/query", body)
		out, err := decodeQuery(code, resp)
		if err != nil {
			return fmt.Errorf("%s: %w", body, err)
		}
		if got := a.value(out.Results[0]); !(math.Abs(got-a.want) <= a.tol*a.want) {
			return fmt.Errorf("%s: got %g, want %g within %g%%", body, got, a.want, 100*a.tol)
		}
	}
	return nil
}

// independentEvaluator evaluates specs on a fresh session that shares no
// cache, store or server state with the server under test.
func (b *bench) independentEvaluator() evaluator {
	var sess *query.Session
	return func(spec query.Spec) (string, error) {
		if sess == nil {
			var err error
			if sess, err = query.NewSession(query.Options{Params: b.params}); err != nil {
				return "", err
			}
		}
		rs, err := sess.EvaluateAll(b.ctx, spec)
		if err != nil {
			return "", err
		}
		key, _, err := resultsKey(rs)
		return key, err
	}
}

// stopServer closes the running server, if any: it drains the job engine
// and persists the sweep cache to the store.
func (b *bench) stopServer() error {
	if b.srv == nil {
		return nil
	}
	err := b.srv.Close()
	b.srv, b.handler = nil, nil
	return err
}

// startServer starts a server, with yieldserver's defaults, and sends it
// one /healthz request; no other server may be running. With withStore it
// runs over the run's sweep store and job journal, like
// `yieldserver -store DIR`; without, it keeps swept tables in memory only.
func (b *bench) startServer(withStore bool) error {
	if b.srv != nil {
		return errors.New("a server is already running")
	}
	cfg := server.Config{Params: b.params}
	if withStore {
		var err error
		if cfg.Store, err = sweepstore.Open(filepath.Join(b.dir, "sweeps")); err != nil {
			return err
		}
		if cfg.Jobs, err = jobstore.Open(filepath.Join(b.dir, "jobs")); err != nil {
			return err
		}
	}
	srv, err := server.New(cfg)
	if err != nil {
		return err
	}
	b.srv, b.handler = srv, srv.Handler()
	if code, body, _ := b.serve(http.MethodGet, "/healthz", nil); code != http.StatusOK {
		return fmt.Errorf("healthz: %d %s", code, body)
	}
	return nil
}

// segment is the length of one segment of the measured loop. Where a
// table sits in physical memory decides how well it shares the core's L2
// cache, and the runtime keeps its pages for the whole process, so one run
// would see one placement: a whole run read 20-40% slower or faster than
// the next. Each segment starts on newly faulted memory (see reseat), so a
// run averages over as many placements as it has segments.
const segment = time.Second

// loop runs the closed loop, one client, for the configured duration,
// timing the calibration kernel as it goes and reseating the workload at
// each segment, and returns every sample plus the loop's wall time outside
// both.
func (b *bench) loop(wl workload) ([]sample, time.Duration, error) {
	var samples []sample
	var paused time.Duration
	spent := b.cal.spent
	start := time.Now()
	length := time.Duration(b.opts.seconds * float64(time.Second))
	for i, seg := 0, time.Duration(0); ; i++ {
		at := time.Since(start)
		if at >= length {
			return samples, at - paused - (b.cal.spent - spent), nil
		}
		if s := at / segment; s != seg {
			seg = s
			if err := wl.reseat(b); err != nil {
				return nil, 0, fmt.Errorf("reseating: %w", err)
			}
			paused += time.Since(start) - at
		}
		b.cal.tick(at)
		samples = append(samples, wl.issue(b, i))
	}
}

// span runs fn under a benchmark span (a no-op outside trace mode).
func (b *bench) span(name string, fn func() error) error {
	_, sp := obs.Start(b.ctx, name)
	err := fn()
	if err != nil {
		sp.SetAttr("error", err.Error())
	}
	sp.End()
	return err
}

// requestSpan opens the span of one measured request, or nil once the
// trace holds maxTracedRequests of them.
func (b *bench) requestSpan(name string) *obs.Span {
	if b.tracer == nil || b.spans >= maxTracedRequests {
		return nil
	}
	b.spans++
	return obs.StartLeaf(b.ctx, name)
}

// writeTrace writes the benchmark's spans as a Chrome trace.
func (b *bench) writeTrace() error {
	dir := filepath.Join(b.opts.workdir, "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", b.opts.workload, b.opts.seed)))
	if err != nil {
		return err
	}
	if err := b.tracer.WriteTraceEvents(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// stats reads the server's /v1/stats counters.
func (b *bench) stats() (server.StatsJSON, error) {
	var out server.StatsJSON
	code, body, _ := b.serve(http.MethodGet, "/v1/stats", nil)
	if code != http.StatusOK {
		return out, fmt.Errorf("/v1/stats: %d %s", code, body)
	}
	if err := json.Unmarshal(body, &out); err != nil {
		return out, fmt.Errorf("/v1/stats: %w", err)
	}
	return out, nil
}
