package sim

import (
	"fmt"

	"repro/internal/butterfly"
	"repro/internal/hypercube"
	"repro/internal/oracle"
	"repro/internal/workload"
	"repro/internal/xrand"
)

// RaceEnabled exports raceEnabled to the package's external tests.
const RaceEnabled = raceEnabled

// RunOracle runs sc once on the reference simulator (internal/oracle), with
// the configuration the slot kernel would run. Each packet's destination is
// drawn one at a time by internal/workload's scalar sampler for the topology,
// not by the block sampler under test, and its route comes from the
// topology's AppendRoute. Replication and precision settings are ignored: the
// oracle runs the scenario's own seed.
func RunOracle(sc Scenario) (oracle.Result, error) {
	n, err := sc.normalize()
	if err != nil {
		return oracle.Result{}, err
	}
	c := n.sf
	if c == nil {
		return oracle.Result{}, fmt.Errorf("sim: %s does not run on the store-and-forward kernel", sc.Title())
	}
	t := new(runner).sampler(c)
	t.prepare(c)
	dest := scalarDest(c)
	cfg := oracle.Config{
		NumArcs:    c.net.arcs,
		Sources:    c.net.sources,
		Lambda:     c.Lambda,
		Slotted:    c.Slotted,
		Tau:        c.Tau,
		Horizon:    c.Horizon,
		Warmup:     c.WarmupFraction * c.Horizon,
		Seed:       c.Seed,
		Discipline: c.Discipline,
		Route: func(origin int, rng *xrand.Rand) []int {
			return t.AppendRoute(uint32(origin), dest(origin, rng), nil)
		},
	}
	if c.Faults != nil {
		cfg.Faults = *c.Faults
	}
	return oracle.Run(cfg), nil
}

// scalarDest draws one packet's destination the scalar way, with
// internal/workload's Sample (hypercube) or SampleRow (butterfly) for c's
// distribution: the reference the kernel's block samplers must reproduce.
func scalarDest(c *storeForward) func(origin int, rng *xrand.Rand) uint32 {
	if c.Topology.Kind == TopologyButterfly {
		rows := workload.NewRowBitFlip(c.Topology.D, c.P)
		return func(origin int, rng *xrand.Rand) uint32 {
			return uint32(rows.SampleRow(butterfly.Row(origin), rng))
		}
	}
	return func(origin int, rng *xrand.Rand) uint32 {
		return uint32(c.net.dist.Sample(hypercube.Node(origin), rng))
	}
}
