// Package harness provides the experiment infrastructure shared by the
// cmd/experiments binary and the benchmark suite: the registry of the
// paper's experiments (E1–E20 plus the ablations A1–A3; `experiments -list`
// or Registry() shows the live set), grid execution on the sharded parallel
// engine (internal/engine), and plain-text, CSV and JSON table rendering.
// Experiments are expressed over the unified scenario API in repro/sim,
// which also carries the replication machinery (sim.Scenario.Replications).
//
// All parallel execution is deterministic: replication seeds are derived by
// splitting the base seed (never from scheduling), grid rows are assembled in
// index order after a barrier, and per-shard statistics merge in shard order.
// Running any experiment with the same seed at parallelism 1 and parallelism
// N therefore produces byte-identical tables. See README.md for the
// experiment index and the engine architecture.
package harness

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/engine"
)

// Table is a simple column-aligned report table. The json tags keep the
// machine-readable artifact schema (see artifact.go) uniformly snake_case.
type Table struct {
	Title   string     `json:"title"`
	Columns []string   `json:"columns"`
	Rows    [][]string `json:"rows"`
	Notes   []string   `json:"notes,omitempty"`
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, columns ...string) *Table {
	return &Table{Title: title, Columns: columns}
}

// AddRow appends one row; the number of cells should match the column count
// (shorter rows are padded with empty cells).
func (t *Table) AddRow(cells ...string) {
	row := make([]string, len(t.Columns))
	for i := range row {
		if i < len(cells) {
			row[i] = cells[i]
		}
	}
	t.Rows = append(t.Rows, row)
}

// AddNote attaches a free-form footnote rendered below the table.
func (t *Table) AddNote(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// String renders the table as aligned plain text.
func (t *Table) String() string {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteString("\n")
	}
	writeRow(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// CSV renders the table as comma-separated values (title and notes omitted).
func (t *Table) CSV() string {
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString(",")
			}
			if strings.ContainsAny(cell, ",\"\n") {
				cell = "\"" + strings.ReplaceAll(cell, "\"", "\"\"") + "\""
			}
			b.WriteString(cell)
		}
		b.WriteString("\n")
	}
	writeRow(t.Columns)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// F formats a float for table cells with sensible precision.
func F(v float64) string {
	switch {
	case v != v: // NaN
		return "n/a"
	case v == 0:
		return "0"
	case v >= 1000 || v <= -1000:
		return fmt.Sprintf("%.0f", v)
	case v >= 10 || v <= -10:
		return fmt.Sprintf("%.2f", v)
	default:
		return fmt.Sprintf("%.3f", v)
	}
}

// RunConfig controls how an experiment from the registry is executed.
type RunConfig struct {
	// Quick selects shortened horizons and fewer replications so the whole
	// registry can run inside the test/bench suites; the full setting is
	// what cmd/experiments uses by default.
	Quick bool
	// Seed is the base seed for all randomness.
	Seed uint64
	// Parallelism bounds the number of concurrent replications
	// (0 = GOMAXPROCS).
	Parallelism int
	// Progress, when non-nil, receives a completion update after each grid
	// point of the experiment finishes on the engine's worker pool. It is
	// called serially and must not block for long.
	Progress func(donePoints, totalPoints int)
}

// addGridRows executes the n independent grid points of an experiment on the
// engine's worker pool (bounded by cfg.Parallelism), reports per-point
// progress through cfg.Progress, and appends the returned rows to the table
// in point order. Each point writes only to its own result slot, so the
// table is deterministic regardless of parallelism. A point that keeps
// panicking is a bug in the experiment: it re-panics here with the engine's
// *PanicError, on the caller's goroutine.
func addGridRows(table *Table, cfg RunConfig, n int, body func(i int) []string) {
	rows := make([][]string, n)
	var mu sync.Mutex
	done := 0
	err := engine.ForEach(context.Background(), n, cfg.Parallelism, func(i int) {
		rows[i] = body(i)
		if cfg.Progress != nil {
			mu.Lock()
			done++
			cfg.Progress(done, n)
			mu.Unlock()
		}
	})
	if err != nil {
		panic(err)
	}
	for _, row := range rows {
		table.AddRow(row...)
	}
}

// Experiment is one reproducible experiment from the registry.
type Experiment struct {
	// ID is the experiment identifier (E1..E20, A1..A3).
	ID string
	// Title is a one-line description.
	Title string
	// Claim names the paper result being checked.
	Claim string
	// Run executes the experiment and returns its report table.
	Run func(cfg RunConfig) *Table
}

var registry []Experiment

func register(e Experiment) { registry = append(registry, e) }

// Registry returns all registered experiments sorted by ID.
func Registry() []Experiment {
	out := make([]Experiment, len(registry))
	copy(out, registry)
	sort.Slice(out, func(i, j int) bool {
		// Sort E1..E20 numerically, then ablations.
		return lessID(out[i].ID, out[j].ID)
	})
	return out
}

// lessID orders experiment IDs like E1 < E2 < ... < E10 < A1.
func lessID(a, b string) bool {
	pa, na := splitID(a)
	pb, nb := splitID(b)
	if pa != pb {
		return pa < pb
	}
	return na < nb
}

func splitID(id string) (string, int) {
	i := 0
	for i < len(id) && (id[i] < '0' || id[i] > '9') {
		i++
	}
	n := 0
	for _, c := range id[i:] {
		if c < '0' || c > '9' {
			break
		}
		n = n*10 + int(c-'0')
	}
	return id[:i], n
}

// ByID looks up an experiment. Matching is case-insensitive, so "e5" finds
// E5.
func ByID(id string) (Experiment, bool) {
	for _, e := range registry {
		if strings.EqualFold(e.ID, id) {
			return e, true
		}
	}
	return Experiment{}, false
}

// IDs returns every registered experiment ID in registry order.
func IDs() []string {
	ids := make([]string, 0, len(registry))
	for _, e := range Registry() {
		ids = append(ids, e.ID)
	}
	return ids
}
