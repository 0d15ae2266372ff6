package analysis

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"sync"
)

// This file is the cross-package facts layer: the mechanism by which an
// analyzer run over one package exports a summary (a "fact") that later
// runs over importing packages can consult. It mirrors x/tools' package
// facts in spirit but serializes to canonical JSON instead of gob, because
// the facts ride in two quite different vehicles: the vetx files of the
// `go vet -vettool` protocol (one file per package, written during the
// VetxOnly pre-pass) and an in-process FactSet filled in dependency order
// by the standalone `go list -deps` driver.
//
// Determinism contract: a FactComputer must return a value whose JSON
// encoding is a pure function of the package's source — sorted slices, no
// maps with nondeterministic iteration baked into ordering, no pointers to
// shared mutable state. Encoded facts are compared byte-for-byte by tests
// that hammer the concurrent scheduler, so any scheduling-order leak in a
// fact encoding is itself a bug.

// A FactSet holds the encoded per-package facts of one analysis session,
// keyed by package import path and then analyzer name. It is safe for
// concurrent use: the standalone driver computes facts for independent
// packages in parallel.
type FactSet struct {
	mu    sync.Mutex
	facts map[string]map[string]json.RawMessage
}

// NewFactSet returns an empty fact set.
func NewFactSet() *FactSet {
	return &FactSet{facts: make(map[string]map[string]json.RawMessage)}
}

// set records the encoded fact of one analyzer for one package.
func (s *FactSet) set(pkgPath, analyzer string, fact any) error {
	data, err := json.Marshal(fact)
	if err != nil {
		return fmt.Errorf("encoding %s fact for %s: %w", analyzer, pkgPath, err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	byAnalyzer := s.facts[pkgPath]
	if byAnalyzer == nil {
		byAnalyzer = make(map[string]json.RawMessage)
		s.facts[pkgPath] = byAnalyzer
	}
	byAnalyzer[analyzer] = data
	return nil
}

// get decodes the named analyzer's fact for pkgPath into out, reporting
// whether a fact was present.
func (s *FactSet) get(pkgPath, analyzer string, out any) bool {
	s.mu.Lock()
	data, ok := s.facts[pkgPath][analyzer]
	s.mu.Unlock()
	if !ok {
		return false
	}
	return json.Unmarshal(data, out) == nil
}

// ExportPackage serializes one package's facts — the payload a vetx file
// carries. Packages with no facts export an empty object, so an empty (or
// absent) vetx file and "no facts" mean the same thing to the importer.
func (s *FactSet) ExportPackage(pkgPath string) ([]byte, error) {
	s.mu.Lock()
	byAnalyzer := s.facts[pkgPath]
	names := make([]string, 0, len(byAnalyzer))
	for name := range byAnalyzer {
		names = append(names, name)
	}
	sort.Strings(names)
	ordered := make(map[string]json.RawMessage, len(byAnalyzer))
	for _, name := range names {
		ordered[name] = byAnalyzer[name]
	}
	s.mu.Unlock()
	// json.Marshal sorts map keys, so the encoding is canonical regardless
	// of insertion order.
	return json.Marshal(ordered)
}

// ImportPackage merges a serialized package payload (from ExportPackage,
// typically read out of a dependency's vetx file) into the set. Empty data
// is accepted and means "no facts": the vet driver creates empty vetx
// files for packages a vettool declines to fill.
func (s *FactSet) ImportPackage(pkgPath string, data []byte) error {
	if len(data) == 0 {
		return nil
	}
	var byAnalyzer map[string]json.RawMessage
	if err := json.Unmarshal(data, &byAnalyzer); err != nil {
		return fmt.Errorf("decoding facts for %s: %w", pkgPath, err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	dst := s.facts[pkgPath]
	if dst == nil {
		dst = make(map[string]json.RawMessage, len(byAnalyzer))
		s.facts[pkgPath] = dst
	}
	for name, fact := range byAnalyzer {
		dst[name] = fact
	}
	return nil
}

// Packages returns the import paths with at least one recorded fact,
// sorted.
func (s *FactSet) Packages() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	paths := make([]string, 0, len(s.facts))
	for p := range s.facts {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	return paths
}

// ComputeFacts runs the fact computers of the given analyzers over one
// package and records the results. It is the pre-pass half of an analysis
// session: callers invoke it on dependencies (in import order) before
// CheckFacts on the packages under review.
func ComputeFacts(target *Target, analyzers []*Analyzer, fs *FactSet) error {
	for _, a := range analyzers {
		if a.FactComputer == nil {
			continue
		}
		pass := &Pass{
			Analyzer:  a,
			Fset:      target.Fset,
			Files:     target.Files,
			Pkg:       target.Pkg,
			TypesInfo: target.Info,
			facts:     fs,
			// Fact computation must not report: findings belong to the
			// checking pass over the package under review.
			Report: func(Diagnostic) {},
		}
		fact, err := a.FactComputer(pass)
		if err != nil {
			return fmt.Errorf("analyzer %s: computing fact for %s: %w", a.Name, target.Pkg.Path(), err)
		}
		if fact == nil {
			continue
		}
		if err := fs.set(target.Pkg.Path(), a.Name, fact); err != nil {
			return err
		}
	}
	return nil
}

// A FactJob names one package in a dependency graph handed to
// ComputeFactsGraph: how to load it, and which import paths must have
// their facts computed first. Deps naming packages outside the job set
// (the standard library, packages already imported into the FactSet) are
// no-ops for scheduling.
type FactJob struct {
	Path string
	Deps []string
	Load func() (*Target, error)
}

// ComputeFactsGraph computes facts for a whole dependency graph with
// bounded concurrency: a job starts once every dep that is itself a job
// has finished, so an importing package always sees its dependencies'
// facts. Jobs whose deps failed are skipped; all errors are returned,
// joined, in path order.
func ComputeFactsGraph(jobs []FactJob, analyzers []*Analyzer, fs *FactSet, workers int) error {
	if workers < 1 {
		workers = 1
	}
	type node struct {
		job     FactJob
		blocked int
		// failedDep is the smallest path among the node's failed
		// dependencies; a node with one never runs.
		failedDep  string
		dependents []*node
	}
	byPath := make(map[string]*node, len(jobs))
	for i := range jobs {
		byPath[jobs[i].Path] = &node{job: jobs[i]}
	}
	var ready []*node
	for _, n := range byPath {
		for _, dep := range n.job.Deps {
			if d, ok := byPath[dep]; ok && d != n {
				d.dependents = append(d.dependents, n)
				n.blocked++
			}
		}
	}
	for _, j := range jobs {
		if n := byPath[j.Path]; n.blocked == 0 {
			ready = append(ready, n)
		}
	}

	var (
		mu       sync.Mutex
		cond     = sync.NewCond(&mu)
		pending  = len(jobs)
		failures = make(map[string]error)
	)
	// settle records n's outcome and releases its dependents. A dependent
	// of a failed job must not run — its facts would be computed against a
	// hole in the graph — however its other dependencies end, so the
	// failure is remembered on the dependent and decides its fate once its
	// last blocker settles. Caller holds mu. Import graphs are acyclic, so
	// the recursion terminates.
	var settle func(n *node, err error)
	settle = func(n *node, err error) {
		pending--
		if err != nil {
			failures[n.job.Path] = err
		}
		for _, dep := range n.dependents {
			if err != nil && (dep.failedDep == "" || n.job.Path < dep.failedDep) {
				dep.failedDep = n.job.Path
			}
			dep.blocked--
			switch {
			case dep.blocked > 0:
			case dep.failedDep != "":
				settle(dep, fmt.Errorf("dependency %s failed", dep.failedDep))
			default:
				ready = append(ready, dep)
			}
		}
	}
	finish := func(n *node, err error) {
		mu.Lock()
		settle(n, err)
		cond.Broadcast()
		mu.Unlock()
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				for len(ready) == 0 && pending > 0 {
					cond.Wait()
				}
				if len(ready) == 0 {
					mu.Unlock()
					return
				}
				n := ready[len(ready)-1]
				ready = ready[:len(ready)-1]
				mu.Unlock()

				target, err := n.job.Load()
				if err == nil {
					err = ComputeFacts(target, analyzers, fs)
				}
				finish(n, err)
			}
		}()
	}
	wg.Wait()

	if len(failures) == 0 {
		return nil
	}
	paths := make([]string, 0, len(failures))
	for p := range failures {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	errs := make([]error, 0, len(paths))
	for _, p := range paths {
		errs = append(errs, fmt.Errorf("%s: %w", p, failures[p]))
	}
	return errors.Join(errs...)
}
