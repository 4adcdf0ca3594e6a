package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeBench(t *testing.T, dir, name, content string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestCompareToleratesOneSidedBenchmarks pins the PR-gate contract: a
// benchmark present in only one of base/head is reported as new/removed and
// must not fail the comparison; only genuine regressions of gated benchmarks
// fail it.
func TestCompareToleratesOneSidedBenchmarks(t *testing.T) {
	dir := t.TempDir()
	base := writeBench(t, dir, "base.txt", `
BenchmarkE1Foo-4      3  1000000 ns/op
BenchmarkE2Old-4      3  2000000 ns/op
`)
	head := writeBench(t, dir, "head.txt", `
BenchmarkE1Foo-4      3  1050000 ns/op
BenchmarkE17New-4     3  3000000 ns/op
`)
	ok, err := compare(base, head, "^BenchmarkE", 1.10)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("new/removed benchmarks must not fail the gate")
	}
}

func TestCompareStillFailsOnRegression(t *testing.T) {
	dir := t.TempDir()
	base := writeBench(t, dir, "base.txt", "BenchmarkE1Foo-4 3 1000000 ns/op\n")
	head := writeBench(t, dir, "head.txt", "BenchmarkE1Foo-4 3 1500000 ns/op\n")
	ok, err := compare(base, head, "^BenchmarkE", 1.10)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("a 1.5x regression must fail the gate")
	}
}

func TestCompareIgnoresUngatedRegression(t *testing.T) {
	dir := t.TempDir()
	base := writeBench(t, dir, "base.txt", `
BenchmarkE1Foo-4       3  1000000 ns/op
BenchmarkRingPushPop-4 3  100 ns/op
`)
	head := writeBench(t, dir, "head.txt", `
BenchmarkE1Foo-4       3  1000000 ns/op
BenchmarkRingPushPop-4 3  500 ns/op
`)
	ok, err := compare(base, head, "^BenchmarkE", 1.10)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("ungated benchmarks are informational only")
	}
}

// TestCompareRefusesVacuousGate pins the anti-silent-pass contract: when no
// gated benchmark is present on both sides the gate must error out instead of
// approving the run with zero comparisons.
func TestCompareRefusesVacuousGate(t *testing.T) {
	dir := t.TempDir()
	base := writeBench(t, dir, "base.txt", "BenchmarkRingPushPop-4 3 100 ns/op\n")
	head := writeBench(t, dir, "head.txt", "BenchmarkRingPushPop-4 3 500 ns/op\n")
	if _, err := compare(base, head, "^BenchmarkE", 1.10); err == nil {
		t.Fatal("a gate with zero gated comparisons must fail, not pass vacuously")
	}
}

// TestCompareMissingBaseIsAHardError pins the other half of the same
// contract: a missing baseline file is a loud error naming the path.
func TestCompareMissingBaseIsAHardError(t *testing.T) {
	dir := t.TempDir()
	head := writeBench(t, dir, "head.txt", "BenchmarkE1Foo-4 3 1000000 ns/op\n")
	_, err := compare(filepath.Join(dir, "BENCH_0.json"), head, "^BenchmarkE", 1.10)
	if err == nil || !strings.Contains(err.Error(), "BENCH_0.json") {
		t.Fatalf("want an error naming the missing baseline, got %v", err)
	}
}

// TestCompareAgainstEmittedArtifact checks the .json side of the gate: an
// artifact emitted from a bench run is a valid -base for a later .txt head.
func TestCompareAgainstEmittedArtifact(t *testing.T) {
	dir := t.TempDir()
	raw := writeBench(t, dir, "base.txt", "BenchmarkE1Foo-4 3 1000000 ns/op\n")
	baseline := filepath.Join(dir, "BENCH_1.json")
	if err := emitArtifact(baseline, raw); err != nil {
		t.Fatal(err)
	}
	head := writeBench(t, dir, "head.txt", "BenchmarkE1Foo-4 3 1500000 ns/op\n")
	ok, err := compare(baseline, head, "^BenchmarkE", 1.10)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("a 1.5x regression against a .json baseline must fail the gate")
	}
}

// TestCheckArtifact covers the -check mode: a healthy artifact passes, a
// missing one and one with no gated benchmarks are errors.
func TestCheckArtifact(t *testing.T) {
	dir := t.TempDir()
	raw := writeBench(t, dir, "bench.txt", `
BenchmarkE1Foo-4       3  1000000 ns/op
BenchmarkRingPushPop-4 3  100 ns/op
`)
	baseline := filepath.Join(dir, "BENCH_1.json")
	if err := emitArtifact(baseline, raw); err != nil {
		t.Fatal(err)
	}
	if err := checkArtifact(baseline, "^BenchmarkE"); err != nil {
		t.Fatalf("healthy artifact must pass -check: %v", err)
	}
	if err := checkArtifact(filepath.Join(dir, "BENCH_9.json"), "^BenchmarkE"); err == nil {
		t.Fatal("-check must fail on a missing artifact")
	}
	if err := checkArtifact(baseline, "^BenchmarkNoSuchPrefix"); err == nil {
		t.Fatal("-check must fail when no benchmark matches the gate filter")
	}
}

// TestCompareGatesAllocations pins the allocation gate: a gated benchmark
// whose allocs/op grow by more than 10% fails even at equal ns/op; a rise
// within the absolute floor (5 -> 6) or within 10% passes, and ungated
// benchmarks and sides without -benchmem numbers are not compared.
func TestCompareGatesAllocations(t *testing.T) {
	for _, tc := range []struct {
		name, base, head string
		ok               bool
	}{
		{"+11%", "BenchmarkE4Foo-2 5 1000 ns/op 500 B/op 400 allocs/op",
			"BenchmarkE4Foo-2 5 1000 ns/op 500 B/op 444 allocs/op", false},
		{"+10%", "BenchmarkE4Foo-2 5 1000 ns/op 500 B/op 400 allocs/op",
			"BenchmarkE4Foo-2 5 1000 ns/op 500 B/op 440 allocs/op", true},
		{"5 -> 6", "BenchmarkE4Foo-2 5 1000 ns/op 50 B/op 5 allocs/op",
			"BenchmarkE4Foo-2 5 1000 ns/op 50 B/op 6 allocs/op", true},
		{"fewer", "BenchmarkE4Foo-2 5 1000 ns/op 500 B/op 400 allocs/op",
			"BenchmarkE4Foo-2 5 1000 ns/op 500 B/op 10 allocs/op", true},
		{"no -benchmem", "BenchmarkE4Foo-2 5 1000 ns/op",
			"BenchmarkE4Foo-2 5 1000 ns/op 500 B/op 400 allocs/op", true},
		{"ungated", "BenchmarkE4Foo-2 5 1000 ns/op\nBenchmarkRing-2 5 10 ns/op 1 B/op 100 allocs/op",
			"BenchmarkE4Foo-2 5 1000 ns/op\nBenchmarkRing-2 5 10 ns/op 1 B/op 500 allocs/op", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			ok, err := compare(writeBench(t, dir, "base.txt", tc.base+"\n"), writeBench(t, dir, "head.txt", tc.head+"\n"),
				"^BenchmarkE", 1.10)
			if err != nil {
				t.Fatal(err)
			}
			if ok != tc.ok {
				t.Fatalf("gate passed = %v, want %v", ok, tc.ok)
			}
		})
	}
}
