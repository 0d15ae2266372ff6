// Command cnfetyield regenerates the paper's tables and figures, and
// evaluates declarative QuerySpecs (single points or design-space sweeps).
//
// Usage:
//
//	cnfetyield [flags] <experiment|all>
//	cnfetyield [flags] -spec file.json
//
// Experiments: fig2.1 fig2.2a fig2.2b table1 fig3.1 fig3.2 fig3.3 table2
//
// With -spec the positional experiment argument is replaced by a JSON
// QuerySpec file ("-" reads stdin) — the same format POST /v2/query
// accepts — and the evaluated results are written to stdout as JSON, one
// entry per concrete spec of the sweep expansion.
//
// Output goes to stdout; -out writes the CSV and SVG artifacts of each
// experiment into a directory.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"

	"github.com/cnfet/yieldlab"
	"github.com/cnfet/yieldlab/internal/obs"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "cnfetyield:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		outDir    = flag.String("out", "", "directory for CSV/SVG artifacts (created if missing)")
		jsonOut   = flag.Bool("json", false, "emit results as JSON (the yieldserver schema) instead of text")
		specFile  = flag.String("spec", "", "evaluate a JSON QuerySpec file instead of a named experiment (\"-\" = stdin)")
		storeDir  = flag.String("store", "", "sweep-store directory for -spec runs (warm start + checkpointing)")
		seed      = flag.Uint64("seed", 0, "Monte Carlo root seed (0 = frozen default)")
		rounds    = flag.Int("rounds", 0, "Table 1 Monte Carlo rounds (0 = default 200000)")
		instances = flag.Int("instances", 0, "synthetic netlist instances (0 = default 20000)")
		workers   = flag.Int("workers", 0, "Monte Carlo workers (0 = NumCPU)")
		cpuProf   = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf   = flag.String("memprofile", "", "write a heap profile to this file on exit")
		traceOut  = flag.String("trace", "", "for -spec runs: write the evaluation span tree to this file (Chrome trace_event JSON, loadable in about:tracing / Perfetto)")
		slowN     = flag.Int("slowlog", 0, "for -spec runs: print the N slowest specs with their stage breakdown to stderr")
		version   = flag.Bool("version", false, "print version and build info, then exit")
	)
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(),
			"usage: cnfetyield [flags] <experiment|all>\n       cnfetyield [flags] -spec file.json\nexperiments: %s\nextensions: %s\nflags:\n",
			strings.Join(yieldlab.ExperimentNames(), " "),
			strings.Join(yieldlab.ExperimentExtensionNames(), " "))
		flag.PrintDefaults()
	}
	flag.Parse()

	if *version {
		info := yieldlab.GetBuildInfo()
		fmt.Printf("cnfetyield %s", yieldlab.Version())
		if info.BuildTime != "" {
			fmt.Printf(" (built %s)", info.BuildTime)
		}
		fmt.Printf(" %s\n", info.GoVersion)
		return nil
	}

	stopProfiles, err := startProfiles(*cpuProf, *memProf)
	if err != nil {
		return err
	}
	defer stopProfiles()

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

	if *specFile != "" {
		if flag.NArg() != 0 {
			return fmt.Errorf("-spec takes no experiment argument, got %v", flag.Args())
		}
		return runSpec(*specFile, *storeDir, params, *traceOut, *slowN)
	}
	if *traceOut != "" || *slowN > 0 {
		return fmt.Errorf("-trace and -slowlog require -spec")
	}
	if flag.NArg() != 1 {
		flag.Usage()
		return fmt.Errorf("expected one experiment name, got %d args", flag.NArg())
	}
	target := flag.Arg(0)

	names := []string{target}
	if target == "all" {
		names = yieldlab.ExperimentNames()
	} else if !yieldlab.KnownExperiment(target) {
		// Fail fast with a hint instead of paying for runner setup: a typoed
		// name in a script must exit non-zero and say what was likely meant.
		msg := fmt.Sprintf("unknown experiment %q", target)
		if hint, ok := yieldlab.SuggestExperiment(target); ok {
			msg += fmt.Sprintf(" (did you mean %q?)", hint)
		}
		return fmt.Errorf("%s\nexperiments: %s\nextensions: %s", msg,
			strings.Join(yieldlab.ExperimentNames(), " "),
			strings.Join(yieldlab.ExperimentExtensionNames(), " "))
	}

	runner := yieldlab.NewRunner(params)
	results, err := runner.RunMany(context.Background(), names, params.Workers)
	if err != nil {
		return err
	}
	if *jsonOut {
		if err := yieldlab.WriteResultsJSON(os.Stdout, results); err != nil {
			return err
		}
	}
	for _, res := range results {
		if !*jsonOut {
			fmt.Printf("=== %s ===\n%s\n", res.Name, res.Text())
		}
		if *outDir != "" {
			if err := writeArtifacts(*outDir, res); err != nil {
				return err
			}
		}
	}
	return nil
}

// runSpec evaluates a QuerySpec file through the same Session the server
// uses, streaming sweep progress to stderr and the result JSON to stdout.
// With -trace or -slowlog the evaluation runs under an obs.Tracer: results
// then carry their CostBreakdown, the span tree can be written as Chrome
// trace_event JSON, and the slowest specs can be summarized on stderr.
// Tracing never changes the computed numbers.
func runSpec(path, storeDir string, params yieldlab.Params, traceOut string, slowN int) error {
	var data []byte
	var err error
	if path == "-" {
		data, err = io.ReadAll(os.Stdin)
	} else {
		data, err = os.ReadFile(path)
	}
	if err != nil {
		return err
	}
	spec, err := yieldlab.ParseQuerySpec(data)
	if err != nil {
		return err
	}
	opts := yieldlab.SessionOptions{Params: params}
	if storeDir != "" {
		store, err := yieldlab.OpenSweepStore(storeDir)
		if err != nil {
			return err
		}
		opts.Store = store
	}
	session, err := yieldlab.NewSession(opts)
	if err != nil {
		return err
	}
	ctx := context.Background()
	var tracer *obs.Tracer
	if traceOut != "" || slowN > 0 {
		tracer = obs.New()
		tracer.EnableCost()
		ctx = obs.WithTracer(ctx, tracer)
	}
	results, err := session.EvaluateAllFunc(ctx, spec,
		func(done, total int, r yieldlab.QueryResult) {
			if total > 1 {
				fmt.Fprintf(os.Stderr, "spec %d/%d done (%s)\n", done, total, r.Fingerprint)
			}
		})
	if err != nil {
		return err
	}
	if cerr := session.Close(); cerr != nil {
		return cerr
	}
	if traceOut != "" {
		if err := writeTrace(traceOut, tracer); err != nil {
			return err
		}
	}
	if slowN > 0 {
		printSlowest(os.Stderr, tracer, slowN)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(results)
}

// writeTrace saves the tracer's span tree as Chrome trace_event JSON.
func writeTrace(path string, tracer *obs.Tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tracer.WriteTraceEvents(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote trace to %s\n", path)
	return nil
}

// printSlowest summarizes the n slowest evaluations (tracer root spans)
// with their per-stage breakdown — the CLI's answer to /debug/slowlog.
func printSlowest(w io.Writer, tracer *obs.Tracer, n int) {
	roots := tracer.Roots()
	sort.Slice(roots, func(i, j int) bool { return roots[i].Duration() > roots[j].Duration() })
	if n > len(roots) {
		n = len(roots)
	}
	fmt.Fprintf(w, "slowest %d of %d specs:\n", n, len(roots))
	for _, root := range roots[:n] {
		fp := ""
		if v, ok := root.AttrValue("fingerprint"); ok {
			fp, _ = v.(string)
		}
		fmt.Fprintf(w, "  %8.2fms  %s\n", float64(root.Duration().Microseconds())/1e3, fp)
		for _, st := range obs.Stages(root)[1:] {
			fmt.Fprintf(w, "    %8.2fms  %s\n", st.MS, st.Name)
		}
	}
}

// startProfiles begins CPU profiling and/or arms a heap snapshot, so the
// Monte Carlo and sweep hot paths can be measured in situ:
//
//	cnfetyield -cpuprofile cpu.out -memprofile mem.out table1
//	go tool pprof cpu.out
//
// The returned stop function flushes both profiles; failures to write them
// are reported on stderr rather than masking the experiment's own error.
func startProfiles(cpuPath, memPath string) (stop func(), err error) {
	var cpuFile *os.File
	if cpuPath != "" {
		cpuFile, err = os.Create(cpuPath)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, fmt.Errorf("starting CPU profile: %w", err)
		}
	}
	return func() {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "cnfetyield: closing CPU profile:", err)
			}
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				fmt.Fprintln(os.Stderr, "cnfetyield: heap profile:", err)
				return
			}
			runtime.GC() // settle live-heap accounting before the snapshot
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "cnfetyield: writing heap profile:", err)
			}
			if err := f.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "cnfetyield: closing heap profile:", err)
			}
		}
	}, nil
}

func writeArtifacts(dir string, res *yieldlab.Result) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	files := make(map[string]string, len(res.CSVs)+len(res.SVGs))
	for name, content := range res.CSVs {
		files[name] = content
	}
	for name, content := range res.SVGs {
		files[name] = content
	}
	for name, content := range files {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", path)
	}
	return nil
}
