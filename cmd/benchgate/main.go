// Command benchgate compares `go test -bench` output against a committed
// baseline and fails on regressions, in the spirit of benchstat: run each
// benchmark several times (-count=5 or more), gate on the median so
// scheduler noise in individual runs cannot fail the build, and report the
// per-benchmark deltas either way.
//
// Usage:
//
//	go test -run '^$' -bench . -benchtime 200ms -count 5 ./... | tee bench.txt
//	go run ./cmd/benchgate -input bench.txt                  # gate
//	go run ./cmd/benchgate -input bench.txt -update          # refresh baseline
//
// The baseline (BENCH_BASELINE.json by default) stores median ns/op per
// benchmark for the names matching -filter, plus a note describing the
// machine it was recorded on. The gate fails (exit 1) when any baselined
// benchmark regresses by more than -threshold (default 15%) or disappears
// from the input; new benchmarks are ignored until -update records them.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// defaultFilter selects the benchmarks the CI gate holds to the baseline:
// the renewal/sweep set plus the Monte Carlo round and sampler benchmarks,
// which run a fixed, seeded workload per op and so are as stable as the
// analytic set. Benchmarks whose medians depend on scheduling rather than
// the code under test — parallel estimators (BenchmarkRowYieldMCParallel)
// and lock-contention probes (BenchmarkSweepDedupContention) — are
// deliberately excluded; gating them would need a far looser threshold to
// be meaningful.
const defaultFilter = `^Benchmark(Sweep/|Convolve|RenewalSweepCold|Fig21$|DeviceFailureProb|RealForward|ServerPF|RunnerParallel|RowYieldMC/|RowYieldRareEvent/|RowYieldObsOverhead/|TruncNormalSample/|QueryDesignSpace$|QueryRowYieldMC$|WriteJSON/|V2QueryWarm$|V2QuerySweepWarm$|WarmCache$|DecodeSpec/|Reseed/)`

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(1)
	}
}

type baseline struct {
	// Note records where/how the baseline was measured.
	Note string `json:"note,omitempty"`
	// ThresholdPct is the regression budget the gate applies (informational
	// here; the -threshold flag is authoritative).
	ThresholdPct float64 `json:"threshold_pct,omitempty"`
	// Benchmarks maps benchmark name (GOMAXPROCS suffix stripped) to the
	// median ns/op recorded at baseline time.
	Benchmarks map[string]float64 `json:"benchmarks"`
	// Ratios are machine-independent gates between two benchmarks measured
	// in the same run: cur[Num]/cur[Den] must stay ≤ Max. Hosted CI runners
	// are heterogeneous, so absolute ns/op gates drift with the machine; a
	// ratio (e.g. the FFT sweep vs the direct reference sweep) does not.
	// -update preserves these from the existing baseline file.
	Ratios []ratioGate `json:"ratios,omitempty"`
}

type ratioGate struct {
	Num  string  `json:"num"`
	Den  string  `json:"den"`
	Max  float64 `json:"max"`
	Note string  `json:"note,omitempty"`
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("benchgate", flag.ContinueOnError)
	var (
		baselinePath = fs.String("baseline", "BENCH_BASELINE.json", "baseline JSON path")
		inputPath    = fs.String("input", "-", "bench output file (- = stdin)")
		threshold    = fs.Float64("threshold", 0.15, "median regression budget (0.15 = +15% ns/op)")
		filterExpr   = fs.String("filter", defaultFilter, "regexp of benchmark names to gate")
		update       = fs.Bool("update", false, "rewrite the baseline from the input instead of gating")
		note         = fs.String("note", "", "note to store with -update (e.g. runner model)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	filter, err := regexp.Compile(*filterExpr)
	if err != nil {
		return fmt.Errorf("bad -filter: %w", err)
	}
	if !(*threshold > 0) {
		return fmt.Errorf("threshold %g must be positive", *threshold)
	}

	in := os.Stdin
	if *inputPath != "-" {
		f, err := os.Open(*inputPath)
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	}
	samples, err := parseBench(in)
	if err != nil {
		return err
	}
	medians := make(map[string]float64, len(samples))
	for name, ns := range samples {
		if filter.MatchString(name) {
			medians[name] = median(ns)
		}
	}
	if len(medians) == 0 {
		return fmt.Errorf("no benchmarks matching %q in input", *filterExpr)
	}

	if *update {
		b := baseline{Note: *note, ThresholdPct: *threshold * 100, Benchmarks: medians}
		// Ratio gates are hand-curated; carry them over from the previous
		// baseline rather than dropping them on refresh.
		if data, err := os.ReadFile(*baselinePath); err == nil {
			var old baseline
			if err := json.Unmarshal(data, &old); err == nil {
				b.Ratios = old.Ratios
				if b.Note == "" {
					b.Note = old.Note
				}
			}
		}
		data, err := json.MarshalIndent(&b, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*baselinePath, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote %s with %d benchmarks and %d ratio gates\n",
			*baselinePath, len(medians), len(b.Ratios))
		return nil
	}

	data, err := os.ReadFile(*baselinePath)
	if err != nil {
		return err
	}
	var base baseline
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("parsing %s: %w", *baselinePath, err)
	}
	report, failures := compare(base.Benchmarks, medians, *threshold)
	fmt.Fprint(out, report)
	ratioReport, ratioFailures := checkRatios(base.Ratios, medians)
	fmt.Fprint(out, ratioReport)
	failures = append(failures, ratioFailures...)
	if len(failures) > 0 {
		return fmt.Errorf("%d gate(s) failed (threshold %.0f%%): %s",
			len(failures), *threshold*100, strings.Join(failures, ", "))
	}
	return nil
}

// checkRatios evaluates the machine-independent same-run ratio gates. A
// gate whose operands are missing from the run fails: losing the
// measurement must not silently relax the gate.
func checkRatios(gates []ratioGate, cur map[string]float64) (string, []string) {
	if len(gates) == 0 {
		return "", nil
	}
	var sb strings.Builder
	var failures []string
	fmt.Fprintf(&sb, "%-60s %8s %8s\n", "ratio gate (same-run medians)", "max", "now")
	for _, g := range gates {
		name := g.Num + " / " + g.Den
		num, okN := cur[g.Num]
		den, okD := cur[g.Den]
		if !okN || !okD || den == 0 {
			fmt.Fprintf(&sb, "%-60s %8.3f %8s\n", name, g.Max, "missing")
			failures = append(failures, name+" (operand missing)")
			continue
		}
		r := num / den
		status := fmt.Sprintf("%8.3f", r)
		if r > g.Max {
			status += " FAIL"
			failures = append(failures, fmt.Sprintf("%s (%.3f > %.3f)", name, r, g.Max))
		}
		fmt.Fprintf(&sb, "%-60s %8.3f %s\n", name, g.Max, status)
	}
	return sb.String(), failures
}

// benchLine matches e.g.
//
//	BenchmarkSweep/auto-8   	       3	  98343357 ns/op
//
// capturing the name (with the -GOMAXPROCS suffix still attached) and the
// ns/op figure.
var benchLine = regexp.MustCompile(`^(Benchmark\S+)\s+\d+\s+([0-9.]+) ns/op`)

// parseBench collects ns/op samples per benchmark name from `go test
// -bench` output, stripping the -GOMAXPROCS suffix so baselines transfer
// between machines with different core counts.
func parseBench(r io.Reader) (map[string][]float64, error) {
	out := make(map[string][]float64)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		name := stripProcs(m[1])
		ns, err := strconv.ParseFloat(m[2], 64)
		if err != nil {
			return nil, fmt.Errorf("line %q: %w", sc.Text(), err)
		}
		out[name] = append(out[name], ns)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no benchmark lines found in input")
	}
	return out, nil
}

// stripProcs removes the trailing -N GOMAXPROCS suffix from a benchmark
// name, leaving sub-benchmark paths intact.
func stripProcs(name string) string {
	i := strings.LastIndexByte(name, '-')
	if i <= 0 {
		return name
	}
	if _, err := strconv.Atoi(name[i+1:]); err != nil {
		return name
	}
	return name[:i]
}

// median returns the middle sample (mean of the middle two for even
// counts). The input is not modified.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// compare renders a benchstat-style delta table and returns the names that
// regressed beyond the threshold. Baselined benchmarks missing from the
// current run count as failures: losing a benchmark must not silently relax
// the gate.
func compare(base, cur map[string]float64, threshold float64) (string, []string) {
	names := make([]string, 0, len(base))
	for name := range base {
		names = append(names, name)
	}
	sort.Strings(names)
	var sb strings.Builder
	var failures []string
	fmt.Fprintf(&sb, "%-45s %14s %14s %8s\n", "benchmark", "base ns/op", "now ns/op", "delta")
	for _, name := range names {
		b := base[name]
		c, ok := cur[name]
		if !ok {
			fmt.Fprintf(&sb, "%-45s %14.0f %14s %8s\n", name, b, "missing", "FAIL")
			failures = append(failures, name+" (missing)")
			continue
		}
		delta := c/b - 1
		status := fmt.Sprintf("%+.1f%%", delta*100)
		if delta > threshold {
			status += " FAIL"
			failures = append(failures, fmt.Sprintf("%s (%+.1f%%)", name, delta*100))
		}
		fmt.Fprintf(&sb, "%-45s %14.0f %14.0f %8s\n", name, b, c, status)
	}
	// Benchmarks present now but not in the baseline are informational: the
	// gate learns about them on the next -update.
	extra := make([]string, 0)
	for name := range cur {
		if _, ok := base[name]; !ok {
			extra = append(extra, name)
		}
	}
	if len(extra) > 0 {
		sort.Strings(extra)
		fmt.Fprintf(&sb, "not in baseline (run -update to record): %s\n", strings.Join(extra, ", "))
	}
	return sb.String(), failures
}
