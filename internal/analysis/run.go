package analysis

import (
	"fmt"
	"sort"
)

// DirectiveRule is the rule name under which CheckFacts reports problems with
// the directives themselves (malformed syntax, unknown rules, missing
// reasons, stale suppressions). It is not suppressible.
const DirectiveRule = "directive"

// DeadexportRule is the rule `yieldvet deadexport` reports under.
const DeadexportRule = "deadexport"

// CheckFacts runs the analyzers over one package and applies the
// //yield:allow suppression layer. The returned diagnostics are the
// surviving findings plus any directive problems, sorted by position. The
// error return is for an analyzer itself failing, not for findings.
//
// Directive validation happens here because it needs both the analyzer set
// (to reject unknown rule names) and the findings (to reject stale
// suppressions): an //yield:allow(rule) whose rule is not in this run's
// analyzer set is an error, and so is one that suppresses nothing. The
// noalloc and deadexport rule names are always considered known, and their
// allows are never stale here: `yieldvet escape` and `yieldvet deadexport`
// consume them outside any analyzer run and rule on their staleness.
//
// fs is the cross-package fact set, nil for none: analyzers consult the
// facts of the target's dependencies via Pass.PackageFact. The caller is
// responsible for having filled fs in dependency order (ComputeFacts or
// ComputeFactsGraph); the target's own facts are computed here so an
// analyzer sees its own package the same way importers will.
func CheckFacts(target *Target, analyzers []*Analyzer, fs *FactSet) ([]Diagnostic, error) {
	dirs := ParseDirectives(target.Fset, target.Files)

	known := map[string]bool{DirNoalloc: true, DeadexportRule: true}
	for _, a := range analyzers {
		known[a.Name] = true
	}

	if fs != nil {
		if err := ComputeFacts(target, analyzers, fs); err != nil {
			return nil, err
		}
	}

	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      target.Fset,
			Files:     target.Files,
			Pkg:       target.Pkg,
			TypesInfo: target.Info,
			facts:     fs,
		}
		pass.Report = func(d Diagnostic) {
			d.Rule = a.Name
			diags = append(diags, d)
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("analyzer %s: %w", a.Name, err)
		}
	}

	// Apply suppressions: a finding is dropped when an allow for its rule
	// covers its line.
	kept := diags[:0]
	for _, d := range diags {
		pos := target.Fset.Position(d.Pos)
		suppressed := false
		for _, a := range dirs.allowsFor(pos.Filename, pos.Line) {
			if a.Rule == d.Rule {
				a.used = true
				suppressed = true
			}
		}
		if !suppressed {
			kept = append(kept, d)
		}
	}

	// Directive problems: malformed syntax from the parser, plus unknown
	// rules and staleness, which need this run's context.
	for _, p := range dirs.Problems {
		p.Rule = DirectiveRule
		kept = append(kept, p)
	}
	seen := make(map[*Allow]bool)
	for _, byLine := range dirs.Allows {
		for _, allows := range byLine {
			for _, a := range allows {
				if seen[a] {
					continue
				}
				seen[a] = true
				switch {
				case !known[a.Rule]:
					kept = append(kept, Diagnostic{
						Pos:  a.Pos,
						Rule: DirectiveRule,
						Message: fmt.Sprintf("//yield:allow(%s): unknown rule %q (have %s)",
							a.Rule, a.Rule, knownRules(known)),
					})
				case !a.used && a.Rule != DirNoalloc && a.Rule != DeadexportRule:
					// noalloc allows may exist solely for `yieldvet escape`
					// findings, which this AST run cannot see; escape mode
					// does its own staleness pass over the combined set.
					kept = append(kept, Diagnostic{
						Pos:  a.Pos,
						Rule: DirectiveRule,
						Message: fmt.Sprintf("stale //yield:allow(%s): no %s finding on this line — delete the suppression",
							a.Rule, a.Rule),
					})
				}
			}
		}
	}

	sort.Slice(kept, func(i, j int) bool {
		pi, pj := target.Fset.Position(kept[i].Pos), target.Fset.Position(kept[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		if pi.Column != pj.Column {
			return pi.Column < pj.Column
		}
		return kept[i].Message < kept[j].Message
	})
	return kept, nil
}

// knownRules renders the known rule set for error messages, sorted.
func knownRules(known map[string]bool) string {
	names := make([]string, 0, len(known))
	for n := range known {
		names = append(names, n)
	}
	sort.Strings(names)
	out := ""
	for i, n := range names {
		if i > 0 {
			out += ", "
		}
		out += n
	}
	return out
}
