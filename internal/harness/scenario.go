package harness

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"strings"

	"repro/sim"
)

// loadScenariosData parses a declarative scenario spec: either a single JSON
// scenario object or a JSON array of them (see sim.Scenario for the schema).
// Unknown fields are rejected so typos in spec files fail loudly, and every
// scenario is validated before the slice is returned. path is used only for
// error messages.
func loadScenariosData(path string, data []byte) ([]sim.Scenario, error) {
	scs := make([]sim.Scenario, 1)
	var target any = &scs[0]
	if trimmed := bytes.TrimLeft(data, " \t\r\n"); len(trimmed) > 0 && trimmed[0] == '[' {
		target = &scs
	}
	if err := sim.DecodeStrict(data, target); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(scs) == 0 {
		return nil, fmt.Errorf("%s: no scenarios in spec", path)
	}
	for i := range scs {
		// Names become artifact filenames; a path separator would escape the
		// artifacts directory (or fail to write) after the simulations ran.
		if strings.ContainsAny(scs[i].Name, `/\`) {
			return nil, fmt.Errorf("%s: scenario %d name %q must not contain path separators",
				path, i+1, scs[i].Name)
		}
		if err := scs[i].Validate(); err != nil {
			return nil, fmt.Errorf("%s: scenario %d (%s): %w", path, i+1, scs[i].Title(), err)
		}
	}
	return scs, nil
}

// LoadSweep reads a declarative sweep spec file: one JSON sweep object with
// a "base" scenario and "axes" (see sim.Sweep for the schema and
// specs/sweep-load.json for a worked example). Unknown fields are rejected
// so typos fail loudly, and the sweep is validated — including every
// expanded scenario — before it is returned.
func LoadSweep(path string) (*sim.Sweep, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	// Classify before the strict decode so a scenario spec gets the
	// redirection hint instead of a misleading unknown-field error.
	if !isSweepSpec(data) {
		return nil, fmt.Errorf("%s: not a sweep spec (no \"axes\" key); scenario specs run through cmd/run", path)
	}
	sw, _, err := loadSweepData(path, data)
	return sw, err
}

// loadSweepData is LoadSweep over already-read sweep spec bytes (path is
// used only for error messages). It validates the sweep by expanding it and
// returns the expansion's point scenarios (the Range's, for a ranged sweep)
// with it.
func loadSweepData(path string, data []byte) (*sim.Sweep, []sim.Scenario, error) {
	var sw sim.Sweep
	if err := sim.DecodeStrict(data, &sw); err != nil {
		return nil, nil, fmt.Errorf("%s: %w", path, err)
	}
	// Both names can end up in artifact filenames (the sweep's directly,
	// the base's through every expanded point), so neither may escape the
	// artifacts directory.
	if strings.ContainsAny(sw.Name, `/\`) {
		return nil, nil, fmt.Errorf("%s: sweep name %q must not contain path separators", path, sw.Name)
	}
	if strings.ContainsAny(sw.Base.Name, `/\`) {
		return nil, nil, fmt.Errorf("%s: base scenario name %q must not contain path separators", path, sw.Base.Name)
	}
	rows, err := sw.ExpandRows()
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", path, err)
	}
	points := make([]sim.Scenario, len(rows))
	for i, r := range rows {
		points[i] = r.Scenario
	}
	return &sw, points, nil
}

// LoadSpec reads any spec file: a scenario object, an array of scenarios, or
// a sweep object (recognised by its "axes" key). A sweep comes back non-nil,
// with its validated point scenarios, in expansion order, as the scenarios;
// a scenario spec comes back as its scenarios and a nil sweep.
func LoadSpec(path string) ([]sim.Scenario, *sim.Sweep, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	return LoadSpecData(path, data)
}

// LoadSpecData is LoadSpec over already-read spec bytes — the daemon feeds
// request bodies through it so an HTTP-submitted spec passes exactly the
// validation a spec file does. The name appears only in error messages.
func LoadSpecData(name string, data []byte) ([]sim.Scenario, *sim.Sweep, error) {
	if isSweepSpec(data) {
		sw, points, err := loadSweepData(name, data)
		if err != nil {
			return nil, nil, err
		}
		return points, sw, nil
	}
	scs, err := loadScenariosData(name, data)
	if err != nil {
		return nil, nil, err
	}
	return scs, nil, nil
}

// isSweepSpec reports whether the spec data is a sweep object: a top-level
// JSON object with an "axes" key. Scenario objects have no such field, so
// the test cannot misclassify a valid spec of either kind.
func isSweepSpec(data []byte) bool {
	var probe map[string]json.RawMessage
	if err := json.Unmarshal(data, &probe); err != nil {
		return false
	}
	_, ok := probe["axes"]
	return ok
}

// ScenarioTable renders one executed scenario as a report table: the common
// metrics core first, then the topology-specific bounds block, in the same
// table/CSV/JSON formats the registry experiments use.
func ScenarioTable(sc sim.Scenario, res *sim.Result) *Table {
	if res.Replicated != nil {
		return replicatedScenarioTable(sc, res)
	}
	table := NewTable(sc.Title(), "quantity", "value")
	table.AddRow("topology", res.Topology.String())
	table.AddRow("kernel", res.Kernel)
	table.AddRow("lambda", F(res.Lambda))
	table.AddRow("load factor rho", F(res.LoadFactor))
	table.AddRow("mean delay T", F(res.MeanDelay))
	table.AddRow("delay 95% CI (half-width)", F(res.Metrics.DelayCI95))
	addBoundRows(table, res, func(name string, v float64) []string { return []string{name, F(v)} })
	table.AddRow("within paper bounds", fmt.Sprintf("%v", res.WithinPaperBounds))
	table.AddRow("mean hops", F(res.Metrics.MeanHops))
	table.AddRow("mean packets per node", F(res.MeanPacketsPerNode))
	table.AddRow("mean total population", F(res.Metrics.MeanPopulation))
	table.AddRow("throughput (packets/time)", F(res.Metrics.Throughput))
	table.AddRow("packets delivered", fmt.Sprintf("%d", res.Metrics.Delivered))
	if f := res.Faults; f != nil {
		table.AddRow("delivery ratio (decided fates)", F(f.DeliveryRatio))
		table.AddRow("conditional mean delay", F(f.ConditionalMeanDelay))
		table.AddRow("dropped: transmission fault", fmt.Sprintf("%d", f.DroppedFault))
		table.AddRow("dropped: buffer overflow", fmt.Sprintf("%d", f.DroppedOverflow))
	}
	if sc.TrackQuantiles {
		table.AddRow("delay P95", F(res.DelayP95))
		table.AddRow("delay P99", F(res.DelayP99))
	}
	if t := res.Tail; t != nil {
		table.AddRow("tail P50 (sketch)", F(t.P50))
		table.AddRow("tail P90 (sketch)", F(t.P90))
		table.AddRow("tail P99 (sketch)", F(t.P99))
		table.AddRow("tail P99.9 (sketch)", F(t.P999))
	}
	if h := res.Hypercube; h != nil {
		for j, u := range h.PerDimensionUtilization {
			table.AddRow(fmt.Sprintf("dimension %d arc utilisation", j+1), F(u))
		}
	}
	if b := res.Butterfly; b != nil {
		table.AddRow("straight-arc utilisation", F(b.StraightUtilization))
		table.AddRow("vertical-arc utilisation", F(b.VerticalUtilization))
	}
	if dfl := res.Deflection; dfl != nil {
		table.AddRow("mean shortest path (Hamming)", F(dfl.MeanShortest))
		table.AddRow("mean deflections per packet", F(dfl.MeanDeflections))
		table.AddRow("mean injection backlog", F(dfl.MeanInjectionBacklog))
		table.AddRow("injection backlog slope", F(dfl.InjectionBacklogSlope))
		table.AddRow("max node occupancy", fmt.Sprintf("%d (cap d=%d)", dfl.MaxNodeOccupancy, res.Topology.D))
	}
	return table
}

// replicatedScenarioTable renders the merged tallies of a replicated
// scenario as mean ± CI rows.
func replicatedScenarioTable(sc sim.Scenario, res *sim.Result) *Table {
	reps := sc.Replications
	if res.Precision != nil {
		reps = res.Precision.Replications
	}
	table := NewTable(fmt.Sprintf("%s reps=%d", sc.Title(), reps),
		"quantity", "mean", "ci95", "min", "max")
	table.AddRow("topology", res.Topology.String(), "", "", "")
	table.AddRow("kernel", res.Kernel, "", "", "")
	type metric struct {
		name string
		key  string
	}
	metrics := []metric{
		{"mean delay T", sim.MetricMeanDelay},
		{"mean hops", sim.MetricMeanHops},
		{"mean packets per node", sim.MetricMeanPacketsPerNode},
		{"mean total population", sim.MetricMeanPopulation},
		{"throughput (packets/time)", sim.MetricThroughput},
	}
	if sc.TrackQuantiles {
		metrics = append(metrics,
			metric{"delay P95", sim.MetricDelayP95},
			metric{"delay P99", sim.MetricDelayP99})
	}
	if sc.TailQuantiles {
		metrics = append(metrics,
			metric{"tail P50 (per-rep sketch)", sim.MetricTailP50},
			metric{"tail P90 (per-rep sketch)", sim.MetricTailP90},
			metric{"tail P99 (per-rep sketch)", sim.MetricTailP99},
			metric{"tail P99.9 (per-rep sketch)", sim.MetricTailP999})
	}
	if res.Butterfly != nil {
		metrics = append(metrics,
			metric{"straight-arc utilisation", sim.MetricStraightUtilization},
			metric{"vertical-arc utilisation", sim.MetricVerticalUtilization})
	}
	if res.Deflection != nil {
		metrics = append(metrics,
			metric{"mean deflections per packet", sim.MetricMeanDeflections},
			metric{"mean injection backlog", sim.MetricInjectionBacklog})
	}
	if res.Faults != nil {
		metrics = append(metrics, metric{"delivery ratio (decided fates)", sim.MetricDeliveryRatio})
	}
	for _, mt := range metrics {
		r := res.Replicated[mt.key]
		table.AddRow(mt.name, F(r.Mean), F(r.CI95), F(r.Min), F(r.Max))
	}
	if t := res.Tail; t != nil {
		table.AddRow("pooled tail P50 (merged sketch)", F(t.P50), "", "", "")
		table.AddRow("pooled tail P90 (merged sketch)", F(t.P90), "", "", "")
		table.AddRow("pooled tail P99 (merged sketch)", F(t.P99), "", "", "")
		table.AddRow("pooled tail P99.9 (merged sketch)", F(t.P999), "", "", "")
	}
	addBoundRows(table, res, func(name string, v float64) []string { return []string{name, F(v), "", "", ""} })
	if p := res.Precision; p != nil {
		table.AddNote("sequential stopping ran %d replications in %d batches (targets met: %v) with deterministically split seeds (base %d).",
			p.Replications, p.Batches, p.TargetMet, sc.Seed)
	} else {
		table.AddNote("%d independent replications with deterministically split seeds (base %d).",
			sc.Replications, sc.Seed)
	}
	return table
}

// addBoundRows appends the topology-specific analytic bounds; row shapes the
// cells for the table's column count.
func addBoundRows(table *Table, res *sim.Result, row func(name string, v float64) []string) {
	if h := res.Hypercube; h != nil {
		table.AddRow(row("greedy lower bound (Prop 13)", h.GreedyLowerBound)...)
		table.AddRow(row("greedy upper bound (Prop 12)", h.GreedyUpperBound)...)
		table.AddRow(row("universal lower bound (Prop 2)", h.UniversalLowerBound)...)
		table.AddRow(row("oblivious lower bound (Prop 3)", h.ObliviousLowerBound)...)
		if h.SlottedUpperBound != 0 {
			table.AddRow(row("slotted upper bound (§3.4)", h.SlottedUpperBound)...)
		}
	}
	if b := res.Butterfly; b != nil {
		table.AddRow(row("universal lower bound (Prop 14)", b.UniversalLowerBound)...)
		table.AddRow(row("greedy upper bound (Prop 17)", b.GreedyUpperBound)...)
	}
	if dfl := res.Deflection; dfl != nil {
		table.AddRow(row("universal lower bound (Prop 2)", dfl.UniversalLowerBound)...)
	}
}
