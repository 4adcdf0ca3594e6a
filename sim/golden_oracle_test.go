package sim_test

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/sim"
)

// TestGoldenPointsMatchOracle gives every committed golden an independent
// check. Each golden sweep spec is run once through both sinks, and the
// csv and jsonl subtests require the committed goldens byte for byte. Each
// store-and-forward point of the sweep is then run once on its own seed on
// the slot kernel and on the reference simulator (internal/oracle), and
// checkOracle requires equal packet counts and bit-identical delays.
// Replication and precision settings are dropped for the oracle runs, so
// the point subtests cover the kernel configuration of every golden row.
func TestGoldenPointsMatchOracle(t *testing.T) {
	for _, name := range []string{"sweep-smoke", "quantile-smoke", "fault-sweep"} {
		t.Run(name, func(t *testing.T) {
			data, err := os.ReadFile(filepath.Join("..", "specs", name+".json"))
			if err != nil {
				t.Fatal(err)
			}
			var sw sim.Sweep
			if err := sim.DecodeStrict(data, &sw); err != nil {
				t.Fatal(err)
			}
			var csv, jsonl strings.Builder
			rows, err := sim.RunSweep(context.Background(), sw, sim.NewCSVSink(&csv), sim.NewJSONLSink(&jsonl))
			if err != nil {
				t.Fatal(err)
			}
			for _, out := range []struct {
				ext string
				got *strings.Builder
			}{{"csv", &csv}, {"jsonl", &jsonl}} {
				t.Run(out.ext, func(t *testing.T) {
					path := filepath.Join("..", "specs", "golden", name+"."+out.ext)
					want, err := os.ReadFile(path)
					if err != nil {
						t.Fatal(err)
					}
					if got := out.got.String(); got != string(want) {
						t.Fatalf("sweep output differs from %s:\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
					}
				})
			}
			checked := 0
			for _, row := range rows {
				sc := row.Scenario
				if sc.Router == sim.Deflection {
					continue
				}
				sc.Replications, sc.Precision = 0, nil
				t.Run(fmt.Sprintf("point%d", row.Point), func(t *testing.T) { checkOracle(t, sc) })
				checked++
			}
			if checked == 0 {
				t.Fatal("no store-and-forward point; the oracle checks nothing")
			}
		})
	}
}
