package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cli"
	"repro/internal/harness"
	"repro/sim"
)

// write places a spec file in a temp dir and returns its path.
func write(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestRunRejectsBadSpecs pins the error UX: invalid spec files exit non-zero
// with the offending detail — unknown JSON keys are named, validation errors
// are repeated verbatim — and nothing lands on stdout.
func TestRunRejectsBadSpecs(t *testing.T) {
	cases := []struct {
		name    string
		spec    string
		wantSub string
	}{
		{
			"unknown field names the key",
			`{"topology": {"kind": "hypercube", "d": 4}, "p": 0.5, "load_factor": 0.5, "horizont": 100}`,
			`unknown field "horizont"`,
		},
		{
			"unknown nested field names the key",
			`{"topology": {"kind": "hypercube", "d": 4, "dim": 4}, "p": 0.5, "load_factor": 0.5, "horizon": 100}`,
			`unknown field "dim"`,
		},
		{
			"validation error is reported",
			`{"topology": {"kind": "hypercube", "d": 4}, "p": 0.5, "horizon": 100}`,
			"one of Lambda or LoadFactor",
		},
		{
			"unknown router name",
			`{"topology": {"kind": "hypercube", "d": 4}, "p": 0.5, "load_factor": 0.5, "router": "hotwire", "horizon": 100}`,
			`unknown router "hotwire"`,
		},
		{
			"malformed JSON",
			`{"topology": `,
			"unexpected EOF",
		},
		{
			"trailing content",
			`{"topology": {"kind": "hypercube", "d": 4}, "p": 0.5, "load_factor": 0.5, "horizon": 100}
			 {"topology": {"kind": "hypercube", "d": 5}, "p": 0.5, "load_factor": 0.5, "horizon": 100}`,
			"trailing content",
		},
		{
			"sweep with unknown axis field",
			`{"base": {"topology": {"kind": "hypercube", "d": 4}, "p": 0.5, "horizon": 100},
			  "axes": [{"field": "dimension", "values": [3, 4]}]}`,
			`unknown sweep axis field "dimension"`,
		},
		{
			"sweep with invalid point",
			`{"base": {"topology": {"kind": "hypercube", "d": 4}, "p": 0.5, "horizon": 100},
			  "axes": [{"field": "load_factor", "values": [0.5, -1]}]}`,
			"sweep point 1 (load_factor=-1)",
		},
		{
			"sweep with unknown top-level field",
			`{"base": {"topology": {"kind": "hypercube", "d": 4}, "p": 0.5, "load_factor": 0.5, "horizon": 100},
			  "axes": [{"field": "d", "values": [3]}], "mod": "zip"}`,
			`unknown field "mod"`,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := write(t, "spec.json", tc.spec)
			var stdout, stderr strings.Builder
			code := run([]string{path}, &stdout, &stderr)
			if code != cli.ExitSpec {
				t.Fatalf("exit code %d for invalid spec, want %d (ExitSpec); stderr: %s",
					code, cli.ExitSpec, stderr.String())
			}
			if !strings.Contains(stderr.String(), tc.wantSub) {
				t.Fatalf("stderr %q does not contain %q", stderr.String(), tc.wantSub)
			}
			if stdout.Len() != 0 {
				t.Fatalf("invalid spec produced stdout output: %q", stdout.String())
			}
		})
	}
}

func TestRunUsageErrors(t *testing.T) {
	var stdout, stderr strings.Builder
	if code := run(nil, &stdout, &stderr); code != 2 {
		t.Fatalf("no-args exit code = %d, want 2", code)
	}
	if code := run([]string{"-nonsense"}, &stdout, &stderr); code != 2 {
		t.Fatalf("bad-flag exit code = %d, want 2", code)
	}
	if code := run([]string{"does-not-exist.json"}, &stdout, &stderr); code != cli.ExitSpec {
		t.Fatalf("missing-file exit code = %d, want %d (ExitSpec)", code, cli.ExitSpec)
	}
}

// TestRunExitCodeTable pins the documented exit code for each failure class
// (see internal/cli): usage, spec, timeout, runtime, success.
func TestRunExitCodeTable(t *testing.T) {
	good := write(t, "good.json",
		`{"topology": {"kind": "hypercube", "d": 3}, "p": 0.5, "load_factor": 0.5, "horizon": 100, "seed": 1}`)
	bad := write(t, "bad.json", `{"horizon": `)
	// A path whose parent is a regular file makes the -artifacts MkdirAll
	// fail after flag parsing and spec loading succeed: a runtime error.
	blocked := filepath.Join(good, "artifacts")
	cases := []struct {
		name string
		args []string
		want int
		// stderr lists substrings the error message must contain.
		stderr []string
	}{
		{"success", []string{good}, cli.ExitOK, nil},
		{"runtime failure", []string{"-artifacts", blocked, good}, cli.ExitRuntime, nil},
		{"usage error", []string{"-nonsense"}, cli.ExitUsage, nil},
		// Two output formats cannot both apply; neither may win silently.
		{"csv with json", []string{"-csv", "-json", good}, cli.ExitUsage, []string{"-csv", "-json"}},
		{"spec failure", []string{bad}, cli.ExitSpec, nil},
		{"timeout expiry", []string{"-timeout", "1ns", good}, cli.ExitTimeout, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr strings.Builder
			if code := run(tc.args, &stdout, &stderr); code != tc.want {
				t.Fatalf("run(%v) = %d, want %d; stderr: %s", tc.args, code, tc.want, stderr.String())
			}
			for _, want := range tc.stderr {
				if !strings.Contains(stderr.String(), want) {
					t.Fatalf("run(%v) stderr %q does not name %s", tc.args, stderr.String(), want)
				}
			}
		})
	}
}

// TestRunMidRunBudgetOverrun pins the UX of a run that passes max_bytes
// validation but whose in-flight population outgrows the budget: a runtime
// failure (exit 1) naming the overrun, with no panic trace. The budget is
// the smallest validation accepts (found by bisection over Validate), which
// the first growth of the packet pool or the completion ring overruns
// whatever the kernel's layout.
func TestRunMidRunBudgetOverrun(t *testing.T) {
	sc := sim.Scenario{Topology: sim.Hypercube(7), P: 0.5, LoadFactor: 0.5, Horizon: 200, Seed: 5}
	lo, hi := int64(1), int64(1<<30)
	for lo < hi {
		sc.MaxBytes = lo + (hi-lo)/2
		if sc.Validate() == nil {
			hi = sc.MaxBytes
		} else {
			lo = sc.MaxBytes + 1
		}
	}
	spec := write(t, "overrun.json", fmt.Sprintf(`{"topology": {"kind": "hypercube", "d": 7}, "p": 0.5,
		"load_factor": 0.5, "horizon": 200, "seed": 5, "max_bytes": %d}`, lo))
	var stdout, stderr strings.Builder
	if code := run([]string{"-validate", spec}, &stdout, &stderr); code != cli.ExitOK {
		t.Fatalf("-validate exit code %d, want 0; stderr: %s", code, stderr.String())
	}
	stderr.Reset()
	if code := run([]string{spec}, &stdout, &stderr); code != cli.ExitRuntime {
		t.Fatalf("exit code %d, want %d (ExitRuntime); stderr: %s", code, cli.ExitRuntime, stderr.String())
	}
	if msg := stderr.String(); !strings.Contains(msg, "memory budget exceeded growing") || strings.Contains(msg, "goroutine") {
		t.Fatalf("stderr %q: want the budget overrun and no panic trace", msg)
	}
}

// TestRunProgressScenarioLevel pins -progress on a sweep spec: besides the
// per-replication lines, each expanded scenario announces its position in
// the spec, so a long multi-point run shows where it is.
func TestRunProgressScenarioLevel(t *testing.T) {
	sweep := write(t, "sweep.json",
		`{"name": "prog", "base": {"topology": {"kind": "hypercube", "d": 3}, "p": 0.5, "horizon": 100, "seed": 1, "replications": 2},
		  "axes": [{"field": "load_factor", "values": [0.3, 0.6]}]}`)
	var stdout, stderr strings.Builder
	if code := run([]string{"-progress", sweep}, &stdout, &stderr); code != cli.ExitOK {
		t.Fatalf("exit code %d, stderr: %s", code, stderr.String())
	}
	errOut := stderr.String()
	for _, want := range []string{
		"scenario 1/2:", "scenario 2/2:", // scenario-level position
		"replication 1/2 done", "replication 2/2 done", // replication-level detail
	} {
		if !strings.Contains(errOut, want) {
			t.Fatalf("progress output missing %q:\n%s", want, errOut)
		}
	}
}

func TestRunExecutesScenarioAndSweepSpecs(t *testing.T) {
	scenario := write(t, "scenario.json",
		`{"name": "ok", "topology": {"kind": "hypercube", "d": 3}, "p": 0.5, "load_factor": 0.5, "horizon": 100, "seed": 1}`)
	sweep := write(t, "sweep.json",
		`{"name": "tiny", "base": {"topology": {"kind": "hypercube", "d": 3}, "p": 0.5, "horizon": 100, "seed": 1},
		  "axes": [{"field": "load_factor", "values": [0.3, 0.6]}]}`)
	var stdout, stderr strings.Builder
	if code := run([]string{scenario, sweep}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit code %d, stderr: %s", code, stderr.String())
	}
	out := stdout.String()
	for _, want := range []string{"== ok", "== tiny-point-000", "== tiny-point-001"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

// TestRunSweepPointsWithNamedBaseStayUnique pins that a named base scenario
// cannot make sweep points share one artifact id: every point is renamed
// with its index.
func TestRunSweepPointsWithNamedBaseStayUnique(t *testing.T) {
	sweep := write(t, "sweep.json",
		`{"base": {"name": "base", "topology": {"kind": "hypercube", "d": 3}, "p": 0.5, "horizon": 100, "seed": 1},
		  "axes": [{"field": "load_factor", "values": [0.3, 0.6]}]}`)
	dir := t.TempDir()
	var stdout, stderr strings.Builder
	if code := run([]string{"-artifacts", dir, sweep}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit code %d, stderr: %s", code, stderr.String())
	}
	for _, want := range []string{"base-point-000.json", "base-point-001.json"} {
		if _, err := os.Stat(filepath.Join(dir, want)); err != nil {
			t.Fatalf("missing artifact %s: %v", want, err)
		}
	}
}

func TestRunDeflectionSpecEndToEnd(t *testing.T) {
	spec := write(t, "deflection.json",
		`{"name": "hot-potato", "topology": {"kind": "hypercube", "d": 4}, "p": 0.5, "load_factor": 0.5, "router": "deflection", "horizon": 200, "seed": 1}`)
	var stdout, stderr strings.Builder
	if code := run([]string{spec}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit code %d, stderr: %s", code, stderr.String())
	}
	out := stdout.String()
	for _, want := range []string{"deflection-slotted", "mean deflections per packet", "universal lower bound (Prop 2)"} {
		if !strings.Contains(out, want) {
			t.Fatalf("deflection output missing %q:\n%s", want, out)
		}
	}
}

// TestRunTimeoutFlag pins the -timeout UX: an expired deadline exits 1 with
// a message that names the flag, and a generous deadline changes nothing.
func TestRunTimeoutFlag(t *testing.T) {
	spec := write(t, "spec.json",
		`{"topology": {"kind": "hypercube", "d": 3}, "p": 0.5, "load_factor": 0.5, "horizon": 100, "seed": 1}`)
	var stdout, stderr strings.Builder
	if code := run([]string{"-timeout", "1ns", spec}, &stdout, &stderr); code != cli.ExitTimeout {
		t.Fatalf("expired -timeout exit code = %d, want %d (ExitTimeout); stderr: %s",
			code, cli.ExitTimeout, stderr.String())
	}
	for _, want := range []string{"timed out after 1ns", "(-timeout)"} {
		if !strings.Contains(stderr.String(), want) {
			t.Fatalf("stderr %q does not contain %q", stderr.String(), want)
		}
	}
	stdout.Reset()
	stderr.Reset()
	if code := run([]string{"-timeout", "1m", spec}, &stdout, &stderr); code != 0 {
		t.Fatalf("generous -timeout exit code = %d, want 0; stderr: %s", code, stderr.String())
	}
}

func TestRunValidateFlag(t *testing.T) {
	good := write(t, "good.json",
		`{"base": {"topology": {"kind": "hypercube", "d": 3}, "p": 0.5, "horizon": 100},
		  "axes": [{"field": "load_factor", "values": [0.3, 0.6]}]}`)
	var stdout, stderr strings.Builder
	if code := run([]string{"-validate", good}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit code %d for valid spec, stderr: %s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "(2 points)") {
		t.Fatalf("validate output missing point count: %q", stdout.String())
	}
	// A ranged sweep reports the points it runs, once, in the right number.
	for _, tc := range []struct{ name, want string }{
		{"", `valid sweep "sweep over d, p (1 point)"`},
		{"zipped", `valid sweep "zipped" (1 point)`},
	} {
		ranged := write(t, "ranged.json", fmt.Sprintf(
			`{"name": %q, "base": {"topology": {"kind": "hypercube", "d": 3}, "p": 0.5, "load_factor": 0.5, "horizon": 100, "seed": 1},
			  "mode": "zip", "range": {"start": 1, "count": 1},
			  "axes": [{"field": "d", "values": [2, 3]}, {"field": "p", "values": [0.25, 0.75]}]}`, tc.name))
		stdout.Reset()
		if code := run([]string{"-validate", ranged}, &stdout, &stderr); code != 0 {
			t.Fatalf("exit code %d for ranged sweep, stderr: %s", code, stderr.String())
		}
		if want := ranged + ": " + tc.want + "\n"; stdout.String() != want {
			t.Fatalf("ranged sweep validate output = %q, want %q", stdout.String(), want)
		}
	}
	bad := write(t, "bad.json",
		`{"base": {"topology": {"kind": "hypercube", "d": 3}, "p": 0.5, "horizon": 100},
		  "axes": [{"field": "load_factor", "values": [-1]}]}`)
	stdout.Reset()
	stderr.Reset()
	if code := run([]string{"-validate", bad}, &stdout, &stderr); code != cli.ExitSpec {
		t.Fatalf("exit code %d for invalid spec, want %d (ExitSpec)", code, cli.ExitSpec)
	}
}

// TestRunExpandsSweepOnce pins that running a sweep spec expands it once,
// inside the loader's validation. Expansions are counted by their
// allocations. The sweep's 40 points are also written out as a scenario
// array under the names the sweep path gives them, so both specs run the
// same scenarios and print the same tables, and the difference between the
// two runs, less the difference between loading the two specs, is what
// running a sweep adds: it must stay below half of one more expansion.
func TestRunExpandsSweepOnce(t *testing.T) {
	sweep := write(t, "sweep.json", `{
		"name": "once",
		"base": {"topology": {"kind": "hypercube", "d": 3}, "p": 0.5, "load_factor": 0.5, "horizon": 2},
		"axes": [{"field": "load_factor", "values": [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.85, 0.9]},
		         {"field": "seed", "values": [1, 2, 3, 4]}]
	}`)
	_, sw, err := harness.LoadSpec(sweep)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := sw.ExpandRows()
	if err != nil {
		t.Fatal(err)
	}
	points := make([]sim.Scenario, len(rows))
	for i, r := range rows {
		points[i] = r.Scenario
		points[i].Name = fmt.Sprintf("once-point-%03d", i)
	}
	data, err := json.Marshal(points)
	if err != nil {
		t.Fatal(err)
	}
	array := write(t, "array.json", string(data))

	runAllocs := func(path string) float64 {
		return testing.AllocsPerRun(5, func() {
			if code := run([]string{path}, io.Discard, io.Discard); code != cli.ExitOK {
				t.Fatalf("%s: exit code %d", path, code)
			}
		})
	}
	loadAllocs := func(path string) float64 {
		return testing.AllocsPerRun(5, func() { harness.LoadSpec(path) })
	}
	expand := testing.AllocsPerRun(5, func() { sw.ExpandRows() })
	extra := (runAllocs(sweep) - runAllocs(array)) - (loadAllocs(sweep) - loadAllocs(array))
	t.Logf("a sweep run allocates %.0f beyond its load; one expansion is %.0f", extra, expand)
	if extra > expand/2 {
		t.Fatalf("running the sweep allocates %.0f beyond loading it; one more expansion is %.0f: the sweep is expanded again", extra, expand)
	}
}
