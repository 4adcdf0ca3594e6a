package harness

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestQuickExperimentsMatchGolden pins every experiment table: it rebuilds
// what `experiments -quick -csv` prints at the default seed, without the
// per-experiment timing lines, and requires specs/golden/experiments-quick.csv
// byte for byte. A mismatch names the first differing experiment and row.
func TestQuickExperimentsMatchGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping the full Quick registry in -short mode")
	}
	if raceEnabled {
		t.Skip("the full Quick registry takes about 30 s under the race detector")
	}
	want, err := os.ReadFile(filepath.Join("..", "..", "specs", "golden", "experiments-quick.csv"))
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, e := range Registry() {
		fmt.Fprintf(&b, "== %s: %s\n   claim: %s\n", e.ID, e.Title, e.Claim)
		b.WriteString(e.Run(RunConfig{Quick: true, Seed: 1}).CSV())
		b.WriteString("\n")
	}
	if got := b.String(); got != string(want) {
		t.Fatal(firstTableDiff(got, string(want)))
	}
}

// firstTableDiff describes the first line where got and want differ, named
// by the experiment it falls in and its row: row 0 is the CSV header, rows -2
// and -1 are the experiment's title and claim lines.
func firstTableDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	id, row := "(none)", -3
	for i := 0; i < max(len(g), len(w)); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if name, ok := strings.CutPrefix(wl, "== "); ok {
			id, row = strings.SplitN(name, ":", 2)[0], -3
		}
		row++
		if gl != wl {
			return fmt.Sprintf("experiment %s, row %d (line %d) differs from the golden:\ngot:  %q\nwant: %q",
				id, row, i+1, gl, wl)
		}
	}
	return "outputs differ"
}
