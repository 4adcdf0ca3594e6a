// Command benchdiff turns `go test -bench` output into a machine-readable
// perf artifact and gates pull requests on benchmark regressions. It is the
// hermetic core of the CI perf-tracking job (benchstat is additionally run
// there for the human-readable view).
//
// Emit a versioned JSON artifact mapping benchmarks (and experiment ids) to
// ns/op and allocs/op:
//
//	benchdiff -emit BENCH_123.json bench-head.txt
//
// Compare a head run against a base run, failing (exit code 1) when any
// benchmark matching -filter regressed in ns/op by more than -threshold, or
// in allocs/op by more than allocThreshold and allocFloor allocations both.
// Either side may be raw `go test -bench` output or an emitted BENCH_*.json
// artifact (selected by the .json extension):
//
//	benchdiff -base bench-base.txt -head bench-head.txt -filter '^BenchmarkE' -threshold 1.10
//	benchdiff -base BENCH_7.json -head bench-head.txt
//
// Verify that a checked-in baseline artifact exists, parses, and covers the
// gate (at least one benchmark matching -filter), exiting 2 otherwise:
//
//	benchdiff -check BENCH_7.json
//
// A missing or empty baseline is always a hard error, never a silent pass:
// a perf gate with nothing to compare against would approve any regression.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"

	"repro/internal/harness"
)

// artifactSchema versions the BENCH_<n>.json perf artifact format.
const artifactSchema = "repro-bench/v1"

// The allocation gate. A run's allocation count is nearly noise-free (within
// 2% across runs, where ns/op spreads 15-20%), so it needs no pairing: a
// gated benchmark fails when its allocs/op grow by more than allocThreshold
// and by more than allocFloor, so that a 5 -> 6 change passes.
const (
	allocThreshold = 1.10
	allocFloor     = 10
)

// artifact is the schema of the BENCH_<n>.json perf artifact.
type artifact struct {
	Schema string `json:"schema"`
	// Experiments maps experiment ids (E1, A2, ...) to their benchmark
	// measurements, the view the perf trajectory is plotted from.
	Experiments map[string]harness.BenchMeasurement `json:"experiments"`
	// Benchmarks lists every parsed benchmark, including micro-benchmarks
	// that do not map to an experiment id.
	Benchmarks []harness.BenchMeasurement `json:"benchmarks"`
}

func main() {
	var (
		emit      = flag.String("emit", "", "write a JSON perf artifact to this path (reads one bench output file)")
		base      = flag.String("base", "", "base bench output (.txt) or perf artifact (.json) for comparison")
		head      = flag.String("head", "", "head bench output (.txt) or perf artifact (.json) for comparison")
		check     = flag.String("check", "", "verify this perf artifact exists, parses, and covers the -filter gate")
		filter    = flag.String("filter", "^BenchmarkE", "regexp of benchmark names the regression gate applies to")
		threshold = flag.Float64("threshold", 1.10, "maximum allowed head/base ns/op ratio before failing")
	)
	flag.Parse()

	switch {
	case *emit != "":
		if flag.NArg() != 1 {
			fatalf("usage: benchdiff -emit OUT.json BENCH_OUTPUT.txt")
		}
		if err := emitArtifact(*emit, flag.Arg(0)); err != nil {
			fatalf("%v", err)
		}
	case *check != "":
		if err := checkArtifact(*check, *filter); err != nil {
			fatalf("%v", err)
		}
	case *base != "" && *head != "":
		ok, err := compare(*base, *head, *filter, *threshold)
		if err != nil {
			fatalf("%v", err)
		}
		if !ok {
			os.Exit(1)
		}
	default:
		fatalf("usage: benchdiff -emit OUT.json BENCH.txt | benchdiff -check BENCH.json | benchdiff -base BASE -head HEAD [-filter RE] [-threshold R]")
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchdiff: "+format+"\n", args...)
	os.Exit(2)
}

// loadMeasurements reads benchmark measurements from either raw `go test
// -bench` output or an emitted BENCH_*.json artifact, keyed on the .json
// extension. A missing file is a hard error carrying enough context to fix
// the gate, never an empty result.
func loadMeasurements(path string) ([]harness.BenchMeasurement, error) {
	if strings.EqualFold(filepath.Ext(path), ".json") {
		a, err := readArtifact(path)
		if err != nil {
			return nil, err
		}
		return a.Benchmarks, nil
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("bench output %s is unreadable (%v); the perf gate cannot run without it", path, err)
	}
	defer f.Close()
	ms, err := harness.ParseBenchOutput(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	if len(ms) == 0 {
		return nil, fmt.Errorf("%s: no benchmark results found", path)
	}
	// Collapse -count=N repeats to the per-benchmark minimum, the noise
	// floor the regression gate compares.
	return harness.MergeBenchRuns(ms), nil
}

// readArtifact loads and validates one BENCH_*.json perf artifact.
func readArtifact(path string) (*artifact, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("perf baseline %s is missing (%v); regenerate it with `go test -bench . -benchtime=3x -count=2 -benchmem -run '^$' . | go run ./cmd/benchdiff -emit %s /dev/stdin` and commit the result", path, err, path)
	}
	var a artifact
	if err := json.Unmarshal(data, &a); err != nil {
		return nil, fmt.Errorf("perf baseline %s does not parse: %v", path, err)
	}
	if a.Schema != artifactSchema {
		return nil, fmt.Errorf("perf baseline %s has schema %q, want %q", path, a.Schema, artifactSchema)
	}
	if len(a.Benchmarks) == 0 {
		return nil, fmt.Errorf("perf baseline %s contains no benchmarks", path)
	}
	return &a, nil
}

// checkArtifact is the CI guard against a silently absent baseline: the
// artifact must exist, parse under the current schema, and contain at least
// one benchmark the -filter gate applies to.
func checkArtifact(path, filter string) error {
	re, err := regexp.Compile(filter)
	if err != nil {
		return fmt.Errorf("bad -filter: %v", err)
	}
	a, err := readArtifact(path)
	if err != nil {
		return err
	}
	gated := 0
	for _, m := range a.Benchmarks {
		if re.MatchString(m.Name) {
			gated++
		}
	}
	if gated == 0 {
		return fmt.Errorf("perf baseline %s has no benchmark matching %q: the regression gate would pass vacuously", path, filter)
	}
	fmt.Printf("%s: ok (%d benchmarks, %d gated by %q, %d experiment ids)\n",
		path, len(a.Benchmarks), gated, filter, len(a.Experiments))
	return nil
}

func emitArtifact(out, in string) error {
	ms, err := loadMeasurements(in)
	if err != nil {
		return err
	}
	a := artifact{
		Schema:      artifactSchema,
		Experiments: make(map[string]harness.BenchMeasurement),
		Benchmarks:  ms,
	}
	for _, m := range ms {
		if m.Experiment != "" {
			a.Experiments[m.Experiment] = m
		}
	}
	data, err := json.MarshalIndent(a, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(out, append(data, '\n'), 0o644)
}

func compare(basePath, headPath, filter string, threshold float64) (bool, error) {
	re, err := regexp.Compile(filter)
	if err != nil {
		return false, fmt.Errorf("bad -filter: %v", err)
	}
	baseMs, err := loadMeasurements(basePath)
	if err != nil {
		return false, err
	}
	headMs, err := loadMeasurements(headPath)
	if err != nil {
		return false, err
	}
	ok := true
	gatedCompared := 0
	compared := make(map[string]bool)
	for _, c := range harness.CompareBenchmarks(baseMs, headMs) {
		compared[c.Name] = true
		gated := re.MatchString(c.Name)
		verdict := "info"
		if gated {
			gatedCompared++
			verdict = "ok"
			if c.Ratio > threshold {
				verdict = "REGRESSED"
				ok = false
			}
			if moreAllocs(c.BaseAllocsPerOp, c.HeadAllocsPerOp) {
				verdict = "MORE ALLOCS"
				ok = false
			}
		}
		fmt.Printf("%-45s base %14.0f ns/op  head %14.0f ns/op  ratio %5.3f  allocs/op %10.0f -> %-10.0f [%s]\n",
			c.Name, c.BaseNsPerOp, c.HeadNsPerOp, c.Ratio, c.BaseAllocsPerOp, c.HeadAllocsPerOp, verdict)
	}
	// Benchmarks present on only one side are reported, not failed: a PR that
	// adds a benchmark has no base measurement to compare, and a PR that
	// renames or retires one shows up as removed for the reviewer to judge.
	for _, h := range headMs {
		if re.MatchString(h.Name) && !compared[h.Name] {
			fmt.Printf("%-45s head %14.0f ns/op  [new: no base measurement]\n", h.Name, h.NsPerOp)
		}
	}
	for _, b := range baseMs {
		if re.MatchString(b.Name) && !compared[b.Name] {
			fmt.Printf("%-45s base %14.0f ns/op  [removed: not in head]\n", b.Name, b.NsPerOp)
		}
	}
	// A gate that compared nothing approved nothing: zero overlapping gated
	// benchmarks means the wrong files (or an empty baseline) were fed in,
	// and exiting 0 here would silently wave every regression through.
	if gatedCompared == 0 {
		return false, fmt.Errorf("no benchmark matching %q present in both %s and %s: the regression gate would pass vacuously", filter, basePath, headPath)
	}
	if !ok {
		fmt.Printf("FAIL: a benchmark matching %q regressed beyond %.2fx in ns/op or %.2fx (and %d) in allocs/op\n",
			filter, threshold, allocThreshold, allocFloor)
	}
	return ok, nil
}

// moreAllocs reports whether head's allocs/op broke the allocation gate
// against base's. A side without -benchmem numbers (0) is not compared.
func moreAllocs(base, head float64) bool {
	return base > 0 && head > base*allocThreshold && head-base > allocFloor
}
