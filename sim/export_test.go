package sim

import (
	"fmt"

	"repro/internal/oracle"
	"repro/internal/xrand"
)

// RaceEnabled exports raceEnabled to the package's external tests.
const RaceEnabled = raceEnabled

// RunOracle runs sc once on the reference simulator (internal/oracle), with
// the configuration the slot kernel would run and routes drawn one packet at
// a time from the topology's sampler. Replication and precision settings are
// ignored: the oracle runs the scenario's own seed.
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
			return t.AppendRoute(int32(origin), rng, nil)
		},
	}
	if c.Faults != nil {
		cfg.Faults = *c.Faults
	}
	return oracle.Run(cfg), nil
}
