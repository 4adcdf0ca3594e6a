package repro

import (
	"errors"
	"go/build"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// TestReferenceSimulatorIsTestOnly keeps internal/oracle the test-only
// reference it is meant to be: no non-test package of the module imports
// it. internal/routing imports neither the oracle nor internal/slotsim, whose
// tests import routing.
func TestReferenceSimulatorIsTestOnly(t *testing.T) {
	const oracle, kernel, routing = "repro/internal/oracle", "repro/internal/slotsim", "repro/internal/routing"
	seen := map[string]bool{}
	err := filepath.WalkDir(".", func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		// perfbench is a module of its own.
		if name := d.Name(); dir != "." && (strings.HasPrefix(name, ".") || name == "testdata" || name == "perfbench") {
			return filepath.SkipDir
		}
		pkg, err := build.ImportDir(dir, 0)
		var noGo *build.NoGoError
		if errors.As(err, &noGo) {
			return nil
		}
		if err != nil {
			return err
		}
		path := "repro"
		if dir != "." {
			path += "/" + filepath.ToSlash(dir)
		}
		seen[path] = true
		for _, imp := range pkg.Imports {
			if imp == oracle || path == routing && imp == kernel {
				t.Errorf("%s imports %s", path, imp)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{oracle, kernel, routing, "repro/internal/static", "repro/sim"} {
		if !seen[p] {
			t.Errorf("package %s not checked", p)
		}
	}
}
