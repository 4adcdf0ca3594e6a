package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cli"
	"repro/sim"
)

func write(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestSweepRejectsBadSpecs pins the error UX of -spec: invalid sweep files
// exit non-zero with the offending detail (unknown keys named, validation
// errors verbatim) and leave stdout untouched.
func TestSweepRejectsBadSpecs(t *testing.T) {
	cases := []struct {
		name    string
		spec    string
		wantSub string
	}{
		{
			"unknown field names the key",
			`{"base": {"topology": {"kind": "hypercube", "d": 4}, "p": 0.5, "horizon": 100},
			  "axes": [{"field": "load_factor", "values": [0.5]}], "split_seed": true}`,
			`unknown field "split_seed"`,
		},
		{
			"scenario spec is redirected",
			`{"topology": {"kind": "hypercube", "d": 4}, "p": 0.5, "load_factor": 0.5, "horizon": 100}`,
			"not a sweep spec",
		},
		{
			"zip mismatch",
			`{"base": {"topology": {"kind": "hypercube", "d": 4}, "p": 0.5, "horizon": 100}, "mode": "zip",
			  "axes": [{"field": "load_factor", "values": [0.5, 0.6]}, {"field": "d", "values": [3]}]}`,
			"equal-length axes",
		},
		{
			"invalid expanded point",
			`{"base": {"topology": {"kind": "hypercube", "d": 4}, "p": 0.5, "load_factor": 0.5, "horizon": 100},
			  "axes": [{"field": "tau", "values": [0.5]}]}`,
			"without Slotted",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := write(t, "sweep.json", tc.spec)
			var stdout, stderr strings.Builder
			code := run([]string{"-spec", path}, &stdout, &stderr)
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

func TestSweepUsageErrors(t *testing.T) {
	var stdout, stderr strings.Builder
	// The removed built-in-mode flags are usage errors that name the flag;
	// every model parameter comes from the spec file.
	spec := filepath.Join("..", "..", "specs", "sweep-smoke.json")
	for _, flag := range []string{"-mode", "-seed"} {
		stderr.Reset()
		if code := run([]string{"-spec", spec, flag, "1"}, &stdout, &stderr); code != 2 {
			t.Fatalf("-spec with %s exit code = %d, want 2", flag, code)
		}
		if !strings.Contains(stderr.String(), flag) {
			t.Fatalf("usage error does not name %s: %q", flag, stderr.String())
		}
	}
	if stdout.Len() != 0 {
		t.Fatalf("usage errors produced stdout output: %q", stdout.String())
	}
	if code := run([]string{"-nonsense"}, &stdout, &stderr); code != 2 {
		t.Fatalf("bad flag exit code = %d, want 2", code)
	}
	if code := run([]string{"-spec", "does-not-exist.json"}, &stdout, &stderr); code != cli.ExitSpec {
		t.Fatalf("missing spec exit code = %d, want %d (ExitSpec)", code, cli.ExitSpec)
	}
}

// TestSweepExitCodeTable pins the documented exit code for each failure
// class (see internal/cli): usage, spec, timeout, runtime, success.
func TestSweepExitCodeTable(t *testing.T) {
	spec := filepath.Join("..", "..", "specs", "sweep-smoke.json")
	bad := write(t, "bad.json", `{"axes": `)
	cases := []struct {
		name string
		args []string
		want int
	}{
		{"success", []string{"-spec", spec}, cli.ExitOK},
		// A checkpoint journal in a nonexistent directory fails at open time,
		// after the spec has validated: a runtime error.
		{"runtime failure", []string{"-spec", spec, "-checkpoint", filepath.Join(t.TempDir(), "no", "dir", "x.ckpt")}, cli.ExitRuntime},
		{"usage error", []string{"-spec", spec, "-mode", "load"}, cli.ExitUsage},
		{"spec failure", []string{"-spec", bad}, cli.ExitSpec},
		{"timeout expiry", []string{"-spec", spec, "-timeout", "1ns"}, cli.ExitTimeout},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr strings.Builder
			if code := run(tc.args, &stdout, &stderr); code != tc.want {
				t.Fatalf("run(%v) = %d, want %d; stderr: %s", tc.args, code, tc.want, stderr.String())
			}
		})
	}
}

// golden reads a checked-in golden file from the repository's specs dir.
func golden(t *testing.T, name string) string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "specs", name))
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestSweepSmokeSpecMatchesGolden executes the checked-in smoke sweep and
// diffs both sink formats against their goldens — the same check the CI
// sweep-smoke job performs, and proof that sweep output is a pure function
// of the spec.
func TestSweepSmokeSpecMatchesGolden(t *testing.T) {
	spec := filepath.Join("..", "..", "specs", "sweep-smoke.json")
	for _, tc := range []struct {
		name   string
		args   []string
		golden string
	}{
		{"csv", []string{"-spec", spec}, "golden/sweep-smoke.csv"},
		{"jsonl", []string{"-spec", spec, "-json"}, "golden/sweep-smoke.jsonl"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr strings.Builder
			if code := run(tc.args, &stdout, &stderr); code != 0 {
				t.Fatalf("exit code %d, stderr: %s", code, stderr.String())
			}
			if got, want := stdout.String(), golden(t, tc.golden); got != want {
				t.Fatalf("sweep output differs from golden %s:\n--- got ---\n%s\n--- want ---\n%s",
					tc.golden, got, want)
			}
		})
	}
}

// TestQuantileSmokeSpecMatchesGolden executes the checked-in tail-quantile
// smoke sweep — sequential stopping plus the mergeable delay sketch — and
// diffs both sink formats against their goldens, then reruns the spec and
// diffs the two runs against each other: the same double check the CI
// quantile-smoke job performs. Stopping decisions and sketch bytes are pure
// functions of the spec, so all four outputs must be identical.
func TestQuantileSmokeSpecMatchesGolden(t *testing.T) {
	spec := filepath.Join("..", "..", "specs", "quantile-smoke.json")
	for _, tc := range []struct {
		name   string
		args   []string
		golden string
	}{
		{"csv", []string{"-spec", spec}, "golden/quantile-smoke.csv"},
		{"jsonl", []string{"-spec", spec, "-json"}, "golden/quantile-smoke.jsonl"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var first, second, stderr strings.Builder
			if code := run(tc.args, &first, &stderr); code != 0 {
				t.Fatalf("exit code %d, stderr: %s", code, stderr.String())
			}
			if got, want := first.String(), golden(t, tc.golden); got != want {
				t.Fatalf("sweep output differs from golden %s:\n--- got ---\n%s\n--- want ---\n%s",
					tc.golden, got, want)
			}
			if code := run(tc.args, &second, &stderr); code != 0 {
				t.Fatalf("rerun exit code %d, stderr: %s", code, stderr.String())
			}
			if first.String() != second.String() {
				t.Fatalf("rerun differs from first run:\n%s\nvs\n%s", second.String(), first.String())
			}
		})
	}
}

// TestGoldensReproducedByEventDrivenOracle gives every committed golden an
// independent check: each golden spec is rerun with force_event_driven set on
// its base, so every store-and-forward row comes from the event-driven
// calendar, and the output must equal the golden byte for byte once the
// golden's slot-stepped kernel labels are mapped back to event-driven.
func TestGoldensReproducedByEventDrivenOracle(t *testing.T) {
	for _, name := range []string{"sweep-smoke", "quantile-smoke", "fault-sweep"} {
		spec := eventDrivenSpec(t, filepath.Join("..", "..", "specs", name+".json"))
		for _, format := range []struct {
			ext  string
			args []string
		}{{"csv", nil}, {"jsonl", []string{"-json"}}} {
			t.Run(name+"/"+format.ext, func(t *testing.T) {
				var stdout, stderr strings.Builder
				if code := run(append([]string{"-spec", spec}, format.args...), &stdout, &stderr); code != 0 {
					t.Fatalf("exit code %d, stderr: %s", code, stderr.String())
				}
				committed := golden(t, "golden/"+name+"."+format.ext)
				want := strings.ReplaceAll(committed, sim.KernelSlotStepped, sim.KernelEventDriven)
				if want == committed {
					t.Fatal("golden has no slot-stepped rows; the oracle checks nothing")
				}
				if got := stdout.String(); got != want {
					t.Fatalf("event-driven output differs from the golden:\n--- got ---\n%s\n--- want ---\n%s", got, want)
				}
			})
		}
	}
}

// eventDrivenSpec writes a copy of the sweep spec at path whose base sets
// force_event_driven, and returns the copy's path.
func eventDrivenSpec(t *testing.T, path string) string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.UseNumber() // keeps every number's text, seeds included
	var spec map[string]any
	if err := dec.Decode(&spec); err != nil {
		t.Fatal(err)
	}
	base, ok := spec["base"].(map[string]any)
	if !ok {
		t.Fatalf("%s has no base object", path)
	}
	base["force_event_driven"] = true
	patched, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	return write(t, filepath.Base(path), string(patched))
}

// TestSweepTimeoutFlag pins the -timeout UX for -spec runs: an expired
// deadline exits 1 with a message naming the flag.
func TestSweepTimeoutFlag(t *testing.T) {
	spec := filepath.Join("..", "..", "specs", "sweep-smoke.json")
	var stdout, stderr strings.Builder
	if code := run([]string{"-timeout", "1ns", "-spec", spec}, &stdout, &stderr); code != cli.ExitTimeout {
		t.Fatalf("expired -timeout exit code = %d, want %d (ExitTimeout); stderr: %s",
			code, cli.ExitTimeout, stderr.String())
	}
	for _, want := range []string{"timed out after 1ns", "(-timeout)"} {
		if !strings.Contains(stderr.String(), want) {
			t.Fatalf("stderr %q does not contain %q", stderr.String(), want)
		}
	}
}

// TestSweepRequiresSpec pins that sweep has no built-in sweeps: without
// -spec it is a usage error whose message names the flag.
func TestSweepRequiresSpec(t *testing.T) {
	for _, args := range [][]string{nil, {"-json"}, {"-checkpoint", "x.ckpt"}} {
		var stdout, stderr strings.Builder
		if code := run(args, &stdout, &stderr); code != cli.ExitUsage {
			t.Fatalf("run(%v) = %d, want %d (ExitUsage)", args, code, cli.ExitUsage)
		}
		if !strings.Contains(stderr.String(), "-spec") {
			t.Fatalf("run(%v) stderr %q does not name -spec", args, stderr.String())
		}
		if stdout.Len() != 0 {
			t.Fatalf("run(%v) produced stdout output: %q", args, stdout.String())
		}
	}
}

// TestSweepCheckpointFlag pins -checkpoint: a resumed run — here a
// fully-journaled rerun — streams the exact bytes of the uninterrupted run.
// The removed -mode flag is a usage error next to it too.
func TestSweepCheckpointFlag(t *testing.T) {
	var stdout, stderr strings.Builder
	if code := run([]string{"-mode", "load", "-checkpoint", "x.ckpt"}, &stdout, &stderr); code != 2 {
		t.Fatalf("-mode with -checkpoint exit code = %d, want 2", code)
	}
	if !strings.Contains(stderr.String(), "-mode") {
		t.Fatalf("stderr %q does not name the removed -mode flag", stderr.String())
	}

	spec := filepath.Join("..", "..", "specs", "sweep-smoke.json")
	ckpt := filepath.Join(t.TempDir(), "smoke.ckpt")
	var first, second strings.Builder
	if code := run([]string{"-spec", spec, "-checkpoint", ckpt}, &first, &stderr); code != 0 {
		t.Fatalf("checkpointed run failed with code %d: %s", code, stderr.String())
	}
	if got, want := first.String(), golden(t, "golden/sweep-smoke.csv"); got != want {
		t.Fatalf("checkpointed run differs from golden:\n%s\nvs\n%s", got, want)
	}
	if code := run([]string{"-spec", spec, "-checkpoint", ckpt}, &second, &stderr); code != 0 {
		t.Fatalf("resumed run failed with code %d: %s", code, stderr.String())
	}
	if first.String() != second.String() {
		t.Fatalf("resumed output differs from first run:\n%s\nvs\n%s", second.String(), first.String())
	}
}

// TestSweepSmokeSpecDeterministicAcrossParallelism reruns the smoke spec at
// several parallelism levels; the streamed bytes must be identical.
func TestSweepSmokeSpecDeterministicAcrossParallelism(t *testing.T) {
	spec := filepath.Join("..", "..", "specs", "sweep-smoke.json")
	var want strings.Builder
	if code := run([]string{"-spec", spec, "-parallelism", "1"}, &want, &strings.Builder{}); code != 0 {
		t.Fatalf("serial run failed with code %d", code)
	}
	for _, par := range []string{"2", "8"} {
		var got strings.Builder
		if code := run([]string{"-spec", spec, "-parallelism", par}, &got, &strings.Builder{}); code != 0 {
			t.Fatalf("parallelism %s run failed with code %d", par, code)
		}
		if got.String() != want.String() {
			t.Fatalf("output at parallelism %s differs from serial:\n%s\nvs\n%s",
				par, got.String(), want.String())
		}
	}
}
