package harness

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/sim"
)

func TestByIDCaseInsensitiveAndIDs(t *testing.T) {
	for _, id := range []string{"e5", "E5", "a1", "A1"} {
		e, ok := ByID(id)
		if !ok {
			t.Fatalf("ByID(%q) not found", id)
		}
		if !strings.EqualFold(e.ID, id) {
			t.Fatalf("ByID(%q) returned %s", id, e.ID)
		}
	}
	ids := IDs()
	if len(ids) != len(Registry()) {
		t.Fatalf("IDs has %d entries, registry %d", len(ids), len(Registry()))
	}
	if ids[0] != "A1" {
		t.Fatalf("IDs not in registry order: %v", ids)
	}
}

func writeSpec(t *testing.T, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "spec.json")
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// loadScenarios parses spec content as a file named spec.json would be.
func loadScenarios(content string) ([]sim.Scenario, error) {
	return loadScenariosData("spec.json", []byte(content))
}

func TestLoadScenariosSingleAndArray(t *testing.T) {
	scs, err := loadScenarios(`{
		"name": "one",
		"topology": {"kind": "hypercube", "d": 4},
		"p": 0.5, "load_factor": 0.6, "horizon": 100
	}`)
	if err != nil {
		t.Fatal(err)
	}
	if len(scs) != 1 || scs[0].Name != "one" || scs[0].Topology.D != 4 {
		t.Fatalf("single spec parsed as %+v", scs)
	}

	scs, err = loadScenarios(`[
		{"topology": {"kind": "hypercube", "d": 3}, "p": 0.5, "load_factor": 0.5, "horizon": 50},
		{"topology": {"kind": "butterfly", "d": 3}, "p": 0.5, "load_factor": 0.5, "horizon": 50}
	]`)
	if err != nil {
		t.Fatal(err)
	}
	if len(scs) != 2 || scs[1].Topology.Kind != sim.TopologyButterfly {
		t.Fatalf("array spec parsed as %+v", scs)
	}
}

func TestLoadScenariosRejectsBadSpecs(t *testing.T) {
	cases := map[string]string{
		"unknown field":    `{"topology": {"kind": "hypercube", "d": 4}, "p": 0.5, "load_factor": 0.6, "horizon": 100, "horizn": 5}`,
		"invalid scenario": `{"topology": {"kind": "hypercube", "d": 4}, "horizon": 100}`,
		"unknown topology": `{"topology": {"kind": "torus", "d": 4}, "p": 0.5, "load_factor": 0.6, "horizon": 100}`,
		"empty array":      `[]`,
		"not json":         `hello`,
	}
	for name, content := range cases {
		if _, err := loadScenarios(content); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestScenarioTableSingleAndReplicated(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping in -short mode")
	}
	sc := sim.Scenario{
		Topology: sim.Hypercube(3), P: 0.5, LoadFactor: 0.5, Horizon: 200, Seed: 1,
		TrackQuantiles: true,
	}
	res, err := sim.Run(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	s := ScenarioTable(sc, res).String()
	for _, want := range []string{"hypercube(d=3)", "mean delay T", "greedy upper bound (Prop 12)",
		"delay P95", "dimension 3 arc utilisation"} {
		if !strings.Contains(s, want) {
			t.Errorf("single table missing %q:\n%s", want, s)
		}
	}

	sc.Replications = 3
	res, err = sim.Run(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	s = ScenarioTable(sc, res).String()
	for _, want := range []string{"reps=3", "ci95", "mean delay T",
		"greedy lower bound (Prop 13)", "3 independent replications"} {
		if !strings.Contains(s, want) {
			t.Errorf("replicated table missing %q:\n%s", want, s)
		}
	}

	bsc := sim.Scenario{Topology: sim.Butterfly(3), P: 0.5, LoadFactor: 0.6, Horizon: 200, Seed: 2}
	bres, err := sim.Run(context.Background(), bsc)
	if err != nil {
		t.Fatal(err)
	}
	s = ScenarioTable(bsc, bres).String()
	for _, want := range []string{"butterfly(d=3)", "universal lower bound (Prop 14)",
		"straight-arc utilisation"} {
		if !strings.Contains(s, want) {
			t.Errorf("butterfly table missing %q:\n%s", want, s)
		}
	}
}

func TestLoadScenariosRejectsTrailingContentAndBadNames(t *testing.T) {
	obj := `{"topology": {"kind": "hypercube", "d": 4}, "p": 0.5, "load_factor": 0.6, "horizon": 100}`
	if _, err := loadScenarios(obj + "\n" + obj); err == nil ||
		!strings.Contains(err.Error(), "array") {
		t.Errorf("two bare objects: err = %v, want a wrap-in-array hint", err)
	}
	for _, name := range []string{"a/b", `a\b`, "../escape"} {
		spec := `{"name": "` + strings.ReplaceAll(name, `\`, `\\`) + `", "topology": {"kind": "hypercube", "d": 4}, "p": 0.5, "load_factor": 0.6, "horizon": 100}`
		if _, err := loadScenarios(spec); err == nil ||
			!strings.Contains(err.Error(), "path separators") {
			t.Errorf("name %q: err = %v, want path-separator rejection", name, err)
		}
	}
}

func TestLoadSweepAndLoadSpec(t *testing.T) {
	sweepSpec := `{
		"name": "tiny",
		"base": {"topology": {"kind": "hypercube", "d": 3}, "p": 0.5, "horizon": 100, "seed": 1},
		"axes": [{"field": "load_factor", "values": [0.3, 0.6]}]
	}`
	path := writeSpec(t, sweepSpec)
	sw, err := LoadSweep(path)
	if err != nil {
		t.Fatal(err)
	}
	if sw.Name != "tiny" || len(sw.Axes) != 1 {
		t.Fatalf("loaded sweep malformed: %+v", sw)
	}
	rows, err := sw.ExpandRows()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("expanded %d points, want 2", len(rows))
	}

	// LoadSpec classifies by the "axes" key: sweep specs come back as
	// sweeps, scenario specs as scenario lists.
	scs2, sw2, err := LoadSpec(path)
	if err != nil {
		t.Fatal(err)
	}
	if scs2 != nil || sw2 == nil {
		t.Fatalf("LoadSpec misclassified a sweep: scenarios=%v sweep=%v", scs2, sw2)
	}
	scenarioPath := writeSpec(t,
		`{"topology": {"kind": "hypercube", "d": 3}, "p": 0.5, "load_factor": 0.5, "horizon": 100}`)
	scs3, sw3, err := LoadSpec(scenarioPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(scs3) != 1 || sw3 != nil {
		t.Fatalf("LoadSpec misclassified a scenario: scenarios=%v sweep=%v", scs3, sw3)
	}
}

func TestLoadSweepRejectsBadSpecs(t *testing.T) {
	cases := []struct {
		name    string
		spec    string
		wantSub string
	}{
		{"scenario spec", `{"topology": {"kind": "hypercube", "d": 3}, "p": 0.5, "load_factor": 0.5, "horizon": 100}`,
			"not a sweep spec"},
		{"unknown field named", `{"base": {"topology": {"kind": "hypercube", "d": 3}, "p": 0.5, "horizon": 100},
			"axes": [{"field": "load_factor", "values": [0.3]}], "modus": "zip"}`,
			`unknown field "modus"`},
		{"name with separator", `{"name": "a/b", "base": {"topology": {"kind": "hypercube", "d": 3}, "p": 0.5, "horizon": 100},
			"axes": [{"field": "load_factor", "values": [0.3]}]}`,
			"path separators"},
		{"base name with separator", `{"base": {"name": "../escape", "topology": {"kind": "hypercube", "d": 3}, "p": 0.5, "horizon": 100},
			"axes": [{"field": "load_factor", "values": [0.3]}]}`,
			"path separators"},
		{"invalid point", `{"base": {"topology": {"kind": "hypercube", "d": 3}, "p": 0.5, "horizon": 100},
			"axes": [{"field": "load_factor", "values": [0]}]}`,
			"sweep point 0"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := LoadSweep(writeSpec(t, tc.spec))
			if err == nil {
				t.Fatalf("expected error containing %q, got nil", tc.wantSub)
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("error %q does not contain %q", err, tc.wantSub)
			}
		})
	}
}
