package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// deadexportFixture copies testdata/deadexport, a module with a nested
// module that calls its internal package, into a fresh directory, applies
// edits (file → old → new) and runs the check on it.
func deadexportFixture(t *testing.T, edits map[string][2]string) (int, []string) {
	t.Helper()
	dir := t.TempDir()
	if err := os.CopyFS(dir, os.DirFS("testdata/deadexport")); err != nil {
		t.Fatal(err)
	}
	for file, edit := range edits {
		path := filepath.Join(dir, filepath.FromSlash(file))
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Contains(data, []byte(edit[0])) {
			t.Fatalf("%s: no %q to edit", file, edit[0])
		}
		data = bytes.Replace(data, []byte(edit[0]), []byte(edit[1]), 1)
		if err := os.WriteFile(path, data, 0o666); err != nil {
			t.Fatal(err)
		}
	}
	var stderr bytes.Buffer
	code := runDeadexport(dir, nil, &stderr)
	return code, strings.Split(strings.TrimSpace(stderr.String()), "\n")
}

// TestDeadexport runs the check on the fixture. Of lib's exports only
// TestOnly, which only lib_test.go calls, is dead: BenchOnly's caller is
// the nested module, Aliased's the facade's alias, Impl's methods are
// reached through the facade's Doer and fmt.Stringer, and Hook carries an
// allow.
func TestDeadexport(t *testing.T) {
	code, lines := deadexportFixture(t, nil)
	want := "internal/lib/lib.go:27:6: exported example.com/fix/internal/lib.TestOnly has no non-test caller [deadexport]"
	if code != 1 || len(lines) != 1 || !strings.HasSuffix(lines[0], want) {
		t.Fatalf("exit %d, output %q; want exit 1 and one line ending %q", code, lines, want)
	}
}

func TestDeadexportPassesOnceCalled(t *testing.T) {
	code, lines := deadexportFixture(t, map[string][2]string{
		"nested/main.go": {"println(lib.BenchOnly())", "println(lib.BenchOnly(), lib.TestOnly())"},
	})
	if code != 0 {
		t.Fatalf("exit %d, output %q; want a clean run", code, lines)
	}
}

func TestDeadexportAllowProblems(t *testing.T) {
	for name, tc := range map[string]struct {
		edits map[string][2]string
		want  string
	}{
		"stale": {
			edits: map[string][2]string{"internal/lib/lib.go": {
				"// BenchOnly is called only from the nested module.\n",
				"// BenchOnly is called only from the nested module.\n//\n//yield:allow(deadexport) the nested module calls it\n",
			}},
			want: "internal/lib/lib.go:11:1: stale //yield:allow(deadexport)",
		},
		"reasonless": {
			edits: map[string][2]string{"internal/lib/lib.go": {
				"//yield:allow(deadexport) test hook: only lib_test.go calls it",
				"//yield:allow(deadexport)",
			}},
			want: "//yield:allow(deadexport) needs a non-empty reason [directive]",
		},
	} {
		t.Run(name, func(t *testing.T) {
			tc.edits["nested/main.go"] = [2]string{"println(lib.BenchOnly())", "println(lib.BenchOnly(), lib.TestOnly())"}
			code, lines := deadexportFixture(t, tc.edits)
			found := false
			for _, line := range lines {
				found = found || strings.Contains(line, tc.want)
			}
			if code != 1 || !found {
				t.Fatalf("exit %d, output %q; want exit 1 and a line containing %q", code, lines, tc.want)
			}
		})
	}
}

func TestDeadexportTakesNoArguments(t *testing.T) {
	var stderr bytes.Buffer
	if code := runDeadexport(".", []string{"./..."}, &stderr); code != 2 {
		t.Fatalf("exit %d, want 2 (%s)", code, stderr.String())
	}
}
