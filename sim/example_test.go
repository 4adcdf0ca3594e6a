package sim_test

import (
	"context"
	"encoding/json"
	"fmt"
	"log"
	"strings"

	"repro/sim"
)

// ExampleRun executes one scenario: an 8-dimensional hypercube under uniform
// traffic at 80% load, reporting the measured mean delay next to the paper's
// greedy envelope (Propositions 13 and 12).
func ExampleRun() {
	res, err := sim.Run(context.Background(), sim.Scenario{
		Topology:   sim.Hypercube(8),
		P:          0.5,
		LoadFactor: 0.8,
		Horizon:    2000,
		Seed:       1,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("kernel: %s\n", res.Kernel)
	fmt.Printf("measured T: %.3f\n", res.MeanDelay)
	fmt.Printf("bounds: [%.3f, %.3f]\n", res.Hypercube.GreedyLowerBound, res.Hypercube.GreedyUpperBound)
	fmt.Printf("within paper bounds: %v\n", res.WithinPaperBounds)
	// Output:
	// kernel: slot-stepped
	// measured T: 10.540
	// bounds: [5.000, 20.000]
	// within paper bounds: true
}

// ExampleRun_replicated sets Scenario.Replications: the scenario runs N
// times on the sharded engine with deterministically split seeds and the
// result carries merged Welford tallies instead of one run's measurements.
func ExampleRun_replicated() {
	res, err := sim.Run(context.Background(), sim.Scenario{
		Topology:     sim.Hypercube(6),
		P:            0.5,
		LoadFactor:   0.7,
		Horizon:      1000,
		Seed:         42,
		Replications: 5,
	})
	if err != nil {
		log.Fatal(err)
	}
	t := res.Replicated[sim.MetricMeanDelay]
	fmt.Printf("replications: %d\n", t.N)
	fmt.Printf("mean delay: %.3f +/- %.3f (95%% CI)\n", t.Mean, t.CI95)
	// Output:
	// replications: 5
	// mean delay: 5.834 +/- 0.079 (95% CI)
}

// ExampleScenario_spec shows the JSON spec round trip: scenarios are
// declarative documents, so a spec file parses into a Scenario, validates,
// runs, and marshals back to the same canonical form.
func ExampleScenario_spec() {
	spec := `{
		"topology": {"kind": "butterfly", "d": 5},
		"p": 0.3,
		"load_factor": 0.85,
		"horizon": 400,
		"seed": 3
	}`
	var sc sim.Scenario
	if err := json.Unmarshal([]byte(spec), &sc); err != nil {
		log.Fatal(err)
	}
	if err := sc.Validate(); err != nil {
		log.Fatal(err)
	}
	canonical, err := json.Marshal(sc)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(sc.Title())
	fmt.Println(string(canonical))
	// Output:
	// butterfly(d=5) rho=0.85
	// {"topology":{"kind":"butterfly","d":5},"p":0.3,"load_factor":0.85,"horizon":400,"seed":3}
}

// ExampleRunSweep runs a declarative sweep — the delay-versus-load curve of
// a 4-cube — streaming one CSV row per point. Axes name scalar scenario
// fields; the cross product (or zip) of their values expands into the
// scenario grid, and rows arrive in point order at any parallelism.
func ExampleRunSweep() {
	sw := sim.Sweep{
		Base: sim.Scenario{Topology: sim.Hypercube(4), P: 0.5, Horizon: 500, Seed: 1},
		Axes: []sim.Axis{
			{Field: "load_factor", Values: sim.Nums(0.3, 0.6, 0.9)},
		},
	}
	rows, err := sim.RunSweep(context.Background(), sw)
	if err != nil {
		log.Fatal(err)
	}
	for _, row := range rows {
		h := row.Result.Hypercube
		fmt.Printf("rho=%.1f T=%.3f bounds=[%.3f, %.3f]\n",
			row.Scenario.LoadFactor, row.Result.MeanDelay, h.GreedyLowerBound, h.GreedyUpperBound)
	}
	// Output:
	// rho=0.3 T=2.334 bounds=[2.107, 2.857]
	// rho=0.6 T=3.207 bounds=[2.375, 5.000]
	// rho=0.9 T=9.442 bounds=[4.250, 20.000]
}

// ExampleSweep_spec shows that sweeps are declarative documents too: a sweep
// spec file parses into a Sweep, validates (including every expanded point),
// and expands into its scenario grid.
func ExampleSweep_spec() {
	spec := `{
		"name": "locality",
		"base": {
			"topology": {"kind": "hypercube", "d": 5},
			"load_factor": 0.6,
			"horizon": 800,
			"seed": 1
		},
		"axes": [
			{"field": "p", "values": [0.25, 0.5, 0.75]}
		]
	}`
	var sw sim.Sweep
	if err := json.Unmarshal([]byte(spec), &sw); err != nil {
		log.Fatal(err)
	}
	rows, err := sw.ExpandRows()
	if err != nil {
		log.Fatal(err)
	}
	titles := make([]string, len(rows))
	for i, r := range rows {
		titles[i] = fmt.Sprintf("p=%.2f", r.Scenario.P)
	}
	fmt.Printf("%s: %s\n", sw.Title(), strings.Join(titles, " "))
	// Output:
	// locality: p=0.25 p=0.50 p=0.75
}
