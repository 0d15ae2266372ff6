package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"github.com/cnfet/yieldlab/internal/analysis"
	"github.com/cnfet/yieldlab/internal/analysis/apilock"
	"github.com/cnfet/yieldlab/internal/query"
)

// runApilock is the apilock subcommand: it checks the pinned QuerySpec
// fingerprint corpus against the live canonicalizer and the pinned API
// surfaces against the live packages, and with -update regenerates both
// sets of goldens in internal/analysis/apilock/golden.
//
// The analyzer package deliberately does not import internal/query (the
// dependency points the other way: a query test imports the corpus), so
// the fingerprint recomputation lives here, where both sides are visible.
func runApilock(args []string) int {
	update := false
	for _, arg := range args {
		switch arg {
		case "-update", "--update":
			update = true
		default:
			fmt.Fprintf(os.Stderr, "yieldvet apilock: unknown argument %q (only -update is accepted)\n", arg)
			return 2
		}
	}

	entries, err := apilock.Corpus()
	if err != nil {
		fmt.Fprintf(os.Stderr, "yieldvet apilock: %v\n", err)
		return 2
	}
	exit := 0
	for i := range entries {
		entry := &entries[i]
		spec, err := query.Parse(entry.Spec)
		if err != nil {
			fmt.Fprintf(os.Stderr, "yieldvet apilock: corpus entry %q: parsing spec: %v\n", entry.Name, err)
			return 2
		}
		_, fp, err := spec.Canonical()
		if err != nil {
			fmt.Fprintf(os.Stderr, "yieldvet apilock: corpus entry %q: canonicalizing: %v\n", entry.Name, err)
			return 2
		}
		if update {
			entry.Fingerprint = fp
			continue
		}
		if fp != entry.Fingerprint {
			fmt.Fprintf(os.Stderr,
				"yieldvet apilock: corpus entry %q: fingerprint %s, pinned %s — the canonical encoding changed, silently re-keying every cached result and ETag; if intended, bump the qs prefix and run 'yieldvet apilock -update'\n",
				entry.Name, fp, entry.Fingerprint)
			exit = 1
		}
	}

	// API surfaces: load the pinned packages and render their live
	// surfaces through the same code path the analyzer uses.
	pinned := apilock.PinnedPackages()
	targets, _, packageFile, goVersion, err := loadModulePackages("", pinned)
	if err != nil {
		fmt.Fprintf(os.Stderr, "yieldvet apilock: %v\n", err)
		return 2
	}
	loader := &packageLoader{
		packageFile: packageFile,
		goVersion:   goVersion,
		loaded:      make(map[string]*analysis.Target),
	}
	surfaces := make(map[string]string, len(targets))
	for _, p := range targets {
		target, err := loader.load(p)
		if err != nil {
			fmt.Fprintf(os.Stderr, "yieldvet apilock: %s: %v\n", p.ImportPath, err)
			return 2
		}
		surfaces[p.ImportPath] = apilock.Surface(target.Pkg)
	}
	for _, path := range pinned {
		live, ok := surfaces[path]
		if !ok {
			fmt.Fprintf(os.Stderr, "yieldvet apilock: pinned package %s did not resolve\n", path)
			return 2
		}
		if update {
			continue
		}
		want, _ := apilock.PinnedSurface(path)
		if live != want {
			fmt.Fprintf(os.Stderr, "yieldvet apilock: %s: exported API surface drifted from the pin — run the analyzer for line-level drift, or 'yieldvet apilock -update' after review\n", path)
			exit = 1
		}
	}

	if !update {
		return exit
	}

	// -update: rewrite the golden files inside the apilock package dir.
	dirPkgs, err := goList("", []string{"-json"}, []string{"github.com/cnfet/yieldlab/internal/analysis/apilock"})
	if err != nil || len(dirPkgs) == 0 {
		fmt.Fprintf(os.Stderr, "yieldvet apilock: locating golden dir: %v\n", err)
		return 2
	}
	goldenDir := dirPkgs[0].Dir
	for _, path := range pinned {
		file, _ := apilock.GoldenPath(path)
		out := filepath.Join(goldenDir, filepath.FromSlash(file))
		if err := os.WriteFile(out, apilock.FormatGolden(path, surfaces[path]), 0o666); err != nil {
			fmt.Fprintf(os.Stderr, "yieldvet apilock: writing %s: %v\n", out, err)
			return 2
		}
		fmt.Printf("yieldvet apilock: wrote %s\n", out)
	}
	data, err := json.MarshalIndent(entries, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "yieldvet apilock: encoding corpus: %v\n", err)
		return 2
	}
	corpusFile := filepath.Join(goldenDir, "golden", "fingerprints.json")
	if err := os.WriteFile(corpusFile, append(data, '\n'), 0o666); err != nil {
		fmt.Fprintf(os.Stderr, "yieldvet apilock: writing %s: %v\n", corpusFile, err)
		return 2
	}
	fmt.Printf("yieldvet apilock: wrote %s\n", corpusFile)
	return 0
}
