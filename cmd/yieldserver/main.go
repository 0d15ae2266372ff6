// Command yieldserver serves the CNFET yield models over HTTP/JSON.
//
// Usage:
//
//	yieldserver [flags]
//
// Endpoints: /healthz, /metrics (Prometheus text), /v1/corners, /v1/pf,
// /v1/pf/batch, /v1/wmin, /v1/rowyield, /v2/query (declarative QuerySpec,
// single or sweep, sync or ?async=1 job-backed), /v1/experiments (paper
// artifacts as an experiment-kind query job), /v1/jobs/{id}, /v1/stats.
// Every compute route is a spec evaluated through one shared query
// session.
//
// With -store DIR the server persists swept renewal tables: a restart (or a
// second process on the same directory) answers its first pF query from the
// stored tables without recomputing any sweep. Async jobs are journaled
// under DIR/jobs, so a restarted server re-adopts them: finished jobs stay
// queryable at /v1/jobs/{id} and interrupted ones resume from their last
// checkpointed results.
//
// Overload protection: -request-timeout bounds each request's handling
// time and -max-inflight bounds synchronous evaluations on all compute
// routes at once; excess requests are shed with a retryable 503 and
// Retry-After while ETag revalidations keep answering 304. On SIGTERM the server stops
// accepting requests, waits -drain-timeout for running jobs, then persists
// its caches; jobs still running at the deadline resume on the next start.
//
// Chaos testing: -failpoints (or YIELD_FAILPOINTS) arms named fault
// sites — see internal/fault — with error/delay/panic actions, e.g.
// "store.save=error(disk full)@p=0.1,seed=7;query.evaluate=delay(50ms)".
//
// With -pprof the net/http/pprof endpoints are mounted at /debug/pprof on
// the service port, so hot paths can be profiled in situ.
//
// Every request gets an X-Request-ID and a structured (slog) log line;
// requests slower than -slowlog-threshold are retained in a fixed-size ring
// served at /debug/slowlog with their per-stage cost breakdown.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"github.com/cnfet/yieldlab"
	"github.com/cnfet/yieldlab/internal/fault"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "yieldserver:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		addr      = flag.String("addr", "127.0.0.1:8080", "listen address")
		storeDir  = flag.String("store", "", "sweep-store directory (empty = no persistence)")
		cacheCap  = flag.Int("cache-entries", 0, "sweep cache entry bound (0 = default)")
		maxJobs   = flag.Int("max-jobs", 0, "retained job records (0 = default)")
		jobs      = flag.Int("concurrent-jobs", 0, "jobs computing at once (0 = default)")
		seed      = flag.Uint64("seed", 0, "Monte Carlo root seed (0 = frozen default)")
		rounds    = flag.Int("rounds", 0, "Monte Carlo rounds for jobs (0 = default 200000)")
		instances = flag.Int("instances", 0, "synthetic netlist instances (0 = default 20000)")
		workers   = flag.Int("workers", 0, "worker goroutines for jobs and Monte Carlo (0 = GOMAXPROCS)")
		pprofOn   = flag.Bool("pprof", false, "expose /debug/pprof profiling endpoints")
		reqTO     = flag.Duration("request-timeout", 0, "per-request handling deadline (0 = none)")
		inflight  = flag.Int("max-inflight", 0, "concurrent synchronous evaluations on all compute routes before shedding (0 = default, negative = unbounded)")
		drainTO   = flag.Duration("drain-timeout", 30*time.Second, "SIGTERM grace for running jobs before they are left to resume on next start (0 = wait forever)")
		failpoint = flag.String("failpoints", "", "arm fault-injection sites, e.g. \"store.save=error@p=0.1,seed=7\" (also via "+fault.EnvVar+")")
		slowCap   = flag.Int("slowlog-entries", 0, "slow-query ring capacity for /debug/slowlog (0 = default 64)")
		slowThr   = flag.Duration("slowlog-threshold", 25*time.Millisecond, "record requests at least this slow in /debug/slowlog (0 = record every request)")
		version   = flag.Bool("version", false, "print version and build info, then exit")
	)
	flag.Parse()
	if *version {
		info := yieldlab.GetBuildInfo()
		fmt.Printf("yieldserver %s", yieldlab.Version())
		if info.BuildTime != "" {
			fmt.Printf(" (built %s)", info.BuildTime)
		}
		fmt.Printf(" %s\n", info.GoVersion)
		return nil
	}
	if flag.NArg() != 0 {
		flag.Usage()
		return fmt.Errorf("unexpected arguments: %v", flag.Args())
	}

	params := yieldlab.DefaultParams()
	if *seed != 0 {
		params.Seed = *seed
	}
	if *rounds != 0 {
		params.MCRounds = *rounds
	}
	if *instances != 0 {
		params.NetlistInstances = *instances
	}
	params.Workers = *workers

	// Failpoints arm before the server is built, so even adoption-time
	// store reads run under the configured faults.
	if err := fault.EnableFromEnv(); err != nil {
		return err
	}
	if *failpoint != "" {
		if err := fault.EnableSpecs(*failpoint); err != nil {
			return err
		}
	}
	if fault.Enabled() {
		log.Printf("fault injection armed: %s", *failpoint+os.Getenv(fault.EnvVar))
	}

	cfg := yieldlab.ServerConfig{
		Params:            params,
		CacheEntries:      *cacheCap,
		MaxJobs:           *maxJobs,
		ConcurrentJobs:    *jobs,
		Logger:            slog.New(slog.NewTextHandler(os.Stderr, nil)),
		SlowLogEntries:    *slowCap,
		SlowLogThreshold:  *slowThr,
		RequestTimeout:    *reqTO,
		MaxInFlightSweeps: *inflight,
	}
	if *slowThr == 0 {
		// An explicit zero means "record everything": the Config field treats
		// zero as "use the default threshold", so map it to negative here.
		cfg.SlowLogThreshold = -1
	}
	if *storeDir != "" {
		store, err := yieldlab.OpenSweepStore(*storeDir)
		if err != nil {
			return err
		}
		cfg.Store = store
		log.Printf("sweep store at %s", store.Dir())
		journal, err := yieldlab.OpenJobStore(filepath.Join(*storeDir, "jobs"))
		if err != nil {
			return err
		}
		cfg.Jobs = journal
		log.Printf("job journal at %s", journal.Dir())
	}
	srv, err := yieldlab.NewServer(cfg)
	if err != nil {
		return err
	}
	handler := srv.Handler()
	if *pprofOn {
		// Profiling rides on the service port so a single deployment knob
		// makes the Monte Carlo and sweep hot paths measurable in situ
		// (go tool pprof http://host/debug/pprof/profile). Off by default:
		// profiles expose internals, so production opts in deliberately.
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		mux.Handle("/", handler)
		handler = mux
		log.Printf("pprof endpoints enabled at /debug/pprof/")
	}
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
		// WriteTimeout backstops the per-request deadline so a wedged
		// handler cannot hold a connection forever; generous because cold
		// sweeps legitimately take a while.
		WriteTimeout: 5 * time.Minute,
	}

	errCh := make(chan error, 1)
	go func() {
		log.Printf("listening on http://%s", *addr)
		errCh <- httpSrv.ListenAndServe()
	}()

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errCh:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			return err
		}
	case sig := <-stop:
		log.Printf("received %s, shutting down", sig)
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(ctx); err != nil {
			log.Printf("shutdown: %v", err)
		}
	}
	// Drain jobs (bounded by -drain-timeout) and persist the sweep cache
	// before exiting; journaled jobs missing the deadline resume on the
	// next start from their checkpointed results.
	if err := srv.Shutdown(*drainTO); err != nil {
		return fmt.Errorf("persisting sweep cache: %w", err)
	}
	return nil
}
