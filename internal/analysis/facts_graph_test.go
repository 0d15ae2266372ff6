package analysis_test

import (
	"bytes"
	"testing"

	"github.com/cnfet/yieldlab/internal/analysis"
	"github.com/cnfet/yieldlab/internal/analysis/atomicsafe"
	"github.com/cnfet/yieldlab/internal/analysis/ctxflow"
	"github.com/cnfet/yieldlab/internal/analysis/load"
)

var graphPaths = []string{"leaf", "mid1", "mid2", "top"}

// loadGraphFixture loads the factsgraph diamond (top → {mid1, mid2} → leaf)
// once, sequentially — the loader is not concurrency-safe. The jobs handed
// to ComputeFactsGraph then do no parsing, so the scheduler's interleaving
// is the only variable under test.
func loadGraphFixture(t *testing.T) map[string]*analysis.Target {
	t.Helper()
	loader := load.NewFixtureLoader("testdata/factsgraph/src")
	targets := make(map[string]*analysis.Target, len(graphPaths))
	for _, p := range graphPaths {
		target, err := loader.Load(p)
		if err != nil {
			t.Fatalf("loading fixture %s: %v", p, err)
		}
		targets[p] = target
	}
	return targets
}

// graphJobs returns the fixture's jobs in the given order rotation, so
// repeats present the scheduler with different ready-stack orders.
func graphJobs(targets map[string]*analysis.Target, rotate int) []analysis.FactJob {
	deps := map[string][]string{
		"leaf": nil,
		"mid1": {"leaf"},
		"mid2": {"leaf"},
		"top":  {"mid1", "mid2"},
	}
	jobs := make([]analysis.FactJob, 0, len(graphPaths))
	for i := range graphPaths {
		p := graphPaths[(i+rotate)%len(graphPaths)]
		target := targets[p]
		jobs = append(jobs, analysis.FactJob{
			Path: p,
			Deps: deps[p],
			Load: func() (*analysis.Target, error) { return target, nil },
		})
	}
	return jobs
}

// TestComputeFactsGraphDeterministic hammers the concurrent fact scheduler:
// many repeats, 8 workers, job order rotated per repeat, and the serialized
// per-package facts byte-compared against the first run. Any
// scheduling-order leak into a fact encoding — or a data race on the
// FactSet, under -race — fails here.
func TestComputeFactsGraphDeterministic(t *testing.T) {
	suite := []*analysis.Analyzer{ctxflow.Analyzer, atomicsafe.Analyzer}
	paths := graphPaths
	targets := loadGraphFixture(t)

	baseline := make(map[string][]byte, len(paths))
	for rep := 0; rep < 32; rep++ {
		jobs := graphJobs(targets, rep)
		fs := analysis.NewFactSet()
		if err := analysis.ComputeFactsGraph(jobs, suite, fs, 8); err != nil {
			t.Fatalf("repeat %d: %v", rep, err)
		}
		for _, p := range paths {
			data, err := fs.ExportPackage(p)
			if err != nil {
				t.Fatalf("repeat %d: exporting %s: %v", rep, p, err)
			}
			if rep == 0 {
				if bytes.Equal(data, []byte("{}")) {
					t.Fatalf("fixture %s produced no facts; the determinism check would be vacuous", p)
				}
				baseline[p] = data
				continue
			}
			if !bytes.Equal(data, baseline[p]) {
				t.Fatalf("repeat %d: facts for %s diverged:\n  first: %s\n  now:   %s",
					rep, p, baseline[p], data)
			}
		}
	}
}

// TestComputeFactsGraphFailureCascade pins the scheduler's error contract:
// a failing load skips every transitive dependent but still computes the
// independent side of the diamond.
func TestComputeFactsGraphFailureCascade(t *testing.T) {
	suite := []*analysis.Analyzer{ctxflow.Analyzer, atomicsafe.Analyzer}
	jobs := graphJobs(loadGraphFixture(t), 0)
	for i := range jobs {
		if jobs[i].Path == "mid1" {
			jobs[i].Load = func() (*analysis.Target, error) {
				return nil, errLoad
			}
		}
	}
	fs := analysis.NewFactSet()
	err := analysis.ComputeFactsGraph(jobs, suite, fs, 8)
	if err == nil {
		t.Fatal("want an error from the failed load")
	}
	// leaf and mid2 are unaffected by mid1's failure; mid1 and top get
	// nothing.
	for _, p := range []string{"leaf", "mid1", "mid2", "top"} {
		data, err := fs.ExportPackage(p)
		if err != nil {
			t.Fatal(err)
		}
		if has, want := string(data) != "{}", p == "leaf" || p == "mid2"; has != want {
			t.Fatalf("facts recorded for %s: %v, want %v (%s)", p, has, want, data)
		}
	}
}

type loadError struct{}

func (loadError) Error() string { return "fixture load failed" }

var errLoad = loadError{}
