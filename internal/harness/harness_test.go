package harness

import (
	"math"
	"runtime"
	"strings"
	"sync"
	"testing"
)

func TestTableRendering(t *testing.T) {
	tb := NewTable("demo", "col1", "longer column")
	tb.AddRow("a", "b")
	tb.AddRow("cc") // short row padded
	tb.AddNote("a note with %d", 42)
	s := tb.String()
	if !strings.Contains(s, "demo") || !strings.Contains(s, "col1") ||
		!strings.Contains(s, "longer column") || !strings.Contains(s, "a note with 42") {
		t.Fatalf("rendered table missing content:\n%s", s)
	}
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) != 6 { // title, header, separator, 2 rows, note
		t.Fatalf("unexpected line count %d:\n%s", len(lines), s)
	}
	csv := tb.CSV()
	if !strings.Contains(csv, "col1,longer column") || !strings.Contains(csv, "a,b") {
		t.Fatalf("csv wrong:\n%s", csv)
	}
}

func TestTableCSVEscaping(t *testing.T) {
	tb := NewTable("", "x")
	tb.AddRow(`value, with "quotes"`)
	csv := tb.CSV()
	if !strings.Contains(csv, `"value, with ""quotes"""`) {
		t.Fatalf("csv escaping wrong: %s", csv)
	}
}

func TestFloatFormatting(t *testing.T) {
	if F(math.NaN()) != "n/a" {
		t.Fatal("NaN formatting")
	}
	if F(0) != "0" {
		t.Fatal("zero formatting")
	}
	if F(12345) != "12345" {
		t.Fatalf("large formatting %q", F(12345))
	}
	if F(12.3456) != "12.35" {
		t.Fatalf("medium formatting %q", F(12.3456))
	}
	if F(1.23456) != "1.235" {
		t.Fatalf("small formatting %q", F(1.23456))
	}
}

func TestRegistryContents(t *testing.T) {
	reg := Registry()
	if len(reg) < 15 {
		t.Fatalf("registry has only %d experiments", len(reg))
	}
	wantIDs := []string{"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10", "E11", "E12", "A1", "A2", "A3"}
	for _, id := range wantIDs {
		e, ok := ByID(id)
		if !ok {
			t.Fatalf("experiment %s missing", id)
		}
		if e.Title == "" || e.Claim == "" || e.Run == nil {
			t.Fatalf("experiment %s incomplete", id)
		}
	}
	if _, ok := ByID("nope"); ok {
		t.Fatal("ByID found a non-existent experiment")
	}
	// Sorted: E1 before E2 before E10; ablations after experiments.
	pos := map[string]int{}
	for i, e := range reg {
		pos[e.ID] = i
	}
	if !(pos["E1"] < pos["E2"] && pos["E2"] < pos["E10"] && pos["E10"] < pos["E12"]) {
		t.Fatalf("registry not sorted by numeric ID: %v", pos)
	}
	if !(pos["A1"] < pos["E1"]) {
		// 'A' sorts before 'E' alphabetically, which is the documented order.
		t.Fatalf("unexpected ablation ordering: %v", pos)
	}
}

func TestSplitID(t *testing.T) {
	p, n := splitID("E12")
	if p != "E" || n != 12 {
		t.Fatalf("splitID(E12) = %q %d", p, n)
	}
	p, n = splitID("A3")
	if p != "A" || n != 3 {
		t.Fatalf("splitID(A3) = %q %d", p, n)
	}
	if !lessID("E2", "E10") {
		t.Fatal("E2 should sort before E10")
	}
	if lessID("E10", "E2") {
		t.Fatal("E10 should not sort before E2")
	}
}

// TestQuickExperimentsSmoke runs a subset of the registry in Quick mode and
// checks that the produced tables are structurally sound and that no check
// column reports a violation. The full registry is exercised by the
// repository-level benchmark suite; here we keep the runtime moderate.
func TestQuickExperimentsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping experiment smoke test in -short mode")
	}
	cfg := RunConfig{Quick: true, Seed: 7}
	for _, id := range []string{"E2", "E5", "E8", "A3"} {
		e, ok := ByID(id)
		if !ok {
			t.Fatalf("experiment %s missing", id)
		}
		table := e.Run(cfg)
		if table == nil || len(table.Rows) == 0 {
			t.Fatalf("%s produced an empty table", id)
		}
		s := table.String()
		if strings.Contains(s, "NO") {
			t.Fatalf("%s reports a violated check:\n%s", id, s)
		}
	}
}

func TestE1QuickWithinBounds(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping in -short mode")
	}
	e, _ := ByID("E1")
	table := e.Run(RunConfig{Quick: true, Seed: 11})
	for _, row := range table.Rows {
		if row[len(row)-1] != "yes" {
			t.Fatalf("E1 row outside bounds: %v", row)
		}
	}
}

// TestExperimentTablesDeterministicAcrossParallelism checks the acceptance
// contract end to end: running a registered experiment with the same seed at
// parallelism 1 and parallelism N renders byte-identical tables.
func TestExperimentTablesDeterministicAcrossParallelism(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping in -short mode")
	}
	for _, id := range []string{"E1", "E14"} {
		e, ok := ByID(id)
		if !ok {
			t.Fatalf("experiment %s missing", id)
		}
		want := e.Run(RunConfig{Quick: true, Seed: 5, Parallelism: 1}).String()
		for _, par := range []int{4, runtime.GOMAXPROCS(0)} {
			got := e.Run(RunConfig{Quick: true, Seed: 5, Parallelism: par}).String()
			if got != want {
				t.Fatalf("%s at parallelism %d differs from serial run:\n%s\nvs\n%s", id, par, got, want)
			}
		}
	}
}

// TestExperimentProgressReported checks that grid experiments surface
// per-point progress through RunConfig.Progress.
func TestExperimentProgressReported(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping in -short mode")
	}
	e, _ := ByID("E14")
	var mu sync.Mutex
	calls, lastDone, total := 0, 0, 0
	cfg := RunConfig{Quick: true, Seed: 3, Parallelism: 2}
	cfg.Progress = func(donePoints, totalPoints int) {
		mu.Lock()
		defer mu.Unlock()
		calls++
		lastDone, total = donePoints, totalPoints
	}
	e.Run(cfg)
	if calls == 0 {
		t.Fatal("no progress updates received")
	}
	if lastDone != total {
		t.Fatalf("final progress %d/%d, want completion", lastDone, total)
	}
}

func TestArtifactJSON(t *testing.T) {
	e, _ := ByID("E14")
	tb := NewTable("demo", "x")
	tb.AddRow("1")
	tb.AddNote("note")
	art := NewArtifact(e, RunConfig{Quick: true, Seed: 9, Parallelism: 2}, tb, 1500*1000*1000)
	data, err := art.JSON()
	if err != nil {
		t.Fatal(err)
	}
	s := string(data)
	for _, want := range []string{ArtifactSchema, `"id": "E14"`, `"seed": 9`, `"elapsed_seconds": 1.5`, `"demo"`, `"note"`} {
		if !strings.Contains(s, want) {
			t.Fatalf("artifact JSON missing %q:\n%s", want, s)
		}
	}
}
