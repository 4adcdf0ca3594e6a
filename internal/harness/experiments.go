package harness

import (
	"context"
	"fmt"
	"math"

	"repro/internal/bounds"
	"repro/internal/queueing"
	"repro/internal/queuenet"
	"repro/internal/static"
	"repro/sim"
)

// pick returns quick when cfg.Quick and full otherwise.
func pick[T any](cfg RunConfig, quick, full T) T {
	if cfg.Quick {
		return quick
	}
	return full
}

// run executes one scenario and panics on configuration errors (experiments
// use only valid scenarios by construction).
func run(sc sim.Scenario) *sim.Result {
	res, err := sim.Run(context.Background(), sc)
	if err != nil {
		panic(fmt.Sprintf("harness: scenario failed: %v", err))
	}
	return res
}

// sweepGrid renders one table row per sweep point: the sweep's declarative
// axes expand into the scenario grid, every point executes on sim.RunSweep's
// shared engine pool (bounded by cfg.Parallelism), per-point completion
// reports through cfg.Progress, and rows land in point order regardless of
// which point finishes first. Experiments that are parameter grids state
// their axes once instead of hand-rolling nested loops.
func sweepGrid(table *Table, cfg RunConfig, sw sim.Sweep, row func(r sim.Row) []string) {
	sw.Parallelism = cfg.Parallelism
	sw.Progress = cfg.Progress
	rows, err := sim.RunSweep(context.Background(), sw)
	if err != nil {
		panic(fmt.Sprintf("harness: sweep failed: %v", err))
	}
	for _, r := range rows {
		table.AddRow(row(r)...)
	}
}

func boolMark(ok bool) string {
	if ok {
		return "yes"
	}
	return "NO"
}

func init() {
	register(Experiment{
		ID:    "E1",
		Title: "Hypercube greedy routing delay versus dimension and load",
		Claim: "Props 12 & 13: dp + p*rho/(2(1-rho)) <= T <= dp/(1-rho); O(d) scaling at fixed rho",
		Run:   runE1,
	})
	register(Experiment{
		ID:    "E2",
		Title: "Stability boundary of greedy routing",
		Claim: "Prop 6 & eq. (2): stable for rho < 1, unstable for rho > 1",
		Run:   runE2,
	})
	register(Experiment{
		ID:    "E3",
		Title: "Heavy-traffic scaling (1-rho)*T",
		Claim: "§3.3: p/2 <= lim (1-rho)T <= dp for greedy routing",
		Run:   runE3,
	})
	register(Experiment{
		ID:    "E4",
		Title: "Butterfly greedy routing delay",
		Claim: "Props 14, 16, 17 with rho = lambda*max{p,1-p}",
		Run:   runE4,
	})
	register(Experiment{
		ID:    "E5",
		Title: "FIFO versus Processor Sharing on the equivalent network Q",
		Claim: "Lemmas 7-10, Prop 11: B_FIFO(t) >= B_PS(t), N_FIFO <= N_PS; Q~ is product form",
		Run:   runE5,
	})
	register(Experiment{
		ID:    "E6",
		Title: "Per-dimension arc occupancy and utilisation",
		Claim: "Prop 5 (utilisation rho everywhere) and the Prop 13 proof (N1 = rho + rho^2/(2(1-rho)), Nj >= rho)",
		Run:   runE6,
	})
	register(Experiment{
		ID:    "E7",
		Title: "Greedy routing versus the pipelined batch baseline of §2.3",
		Claim: "§2.3: the batch scheme is unstable for rho >> p/(R d) while greedy remains stable for rho < 1",
		Run:   runE7,
	})
	register(Experiment{
		ID:    "E8",
		Title: "Slotted-time operation",
		Claim: "§3.4: T_slotted <= dp/(1-rho) + tau",
		Run:   runE8,
	})
	register(Experiment{
		ID:    "E9",
		Title: "Queue sizes and population tails",
		Claim: "§3.3: mean packets per node <= d*rho/(1-rho); total population concentrated below (1+eps)d2^d rho/(1-rho)",
		Run:   runE9,
	})
	register(Experiment{
		ID:    "E10",
		Title: "Destination locality sweep (p from 0.1 to 1.0)",
		Claim: "eq. (1) & Lemma 1: mean hops d*p; bounds hold for every p at fixed rho",
		Run:   runE10,
	})
	register(Experiment{
		ID:    "E11",
		Title: "Equivalence of the hypercube and the queueing network Q",
		Claim: "§3.1 Properties A-C / Lemma 4: the packet-level simulator and the equivalent network agree",
		Run:   runE11,
	})
	register(Experiment{
		ID:    "E12",
		Title: "Universal and oblivious lower-bound envelope",
		Claim: "Props 2 & 3: measured greedy delay dominates both lower bounds",
		Run:   runE12,
	})
	register(Experiment{
		ID:    "A1",
		Title: "Ablation: increasing versus random dimension order",
		Claim: "design choice behind the levelled-network analysis (§3.1)",
		Run:   runA1,
	})
	register(Experiment{
		ID:    "A2",
		Title: "Ablation: FIFO versus random-order arc priority",
		Claim: "the delay bounds do not depend on the priority rule (§3)",
		Run:   runA2,
	})
	register(Experiment{
		ID:    "A3",
		Title: "Ablation: continuous time versus slotted time at tau = 1",
		Claim: "§3.4: slotting costs at most one slot of extra delay",
		Run:   runA3,
	})
}

func runE1(cfg RunConfig) *Table {
	table := NewTable("E1: hypercube greedy delay vs dimension and load",
		"d", "rho", "measured T", "ci95", "lower (P13)", "upper (P12)", "within")
	dims := pick(cfg, []int{4, 5, 6}, []int{4, 5, 6, 7, 8, 9})
	rhos := pick(cfg, []float64{0.6, 0.9}, []float64{0.3, 0.6, 0.9})
	horizon := pick(cfg, 1500.0, 6000.0)
	reps := pick(cfg, 2, 5)
	sw := sim.Sweep{
		// The sweep pool provides the concurrency; replications within a
		// point run serially on their deterministic subseeds.
		Base: sim.Scenario{
			Topology: sim.Hypercube(0), P: 0.5, Horizon: horizon, Seed: cfg.Seed,
			Replications: reps,
		},
		Axes: []sim.Axis{
			{Field: "d", Values: sim.Ints(dims...)},
			{Field: "load_factor", Values: sim.Nums(rhos...)},
		},
	}
	sweepGrid(table, cfg, sw, func(r sim.Row) []string {
		sc, res := r.Scenario, r.Result
		t := res.Replicated[sim.MetricMeanDelay]
		lo := res.Hypercube.GreedyLowerBound
		up := res.Hypercube.GreedyUpperBound
		within := t.Mean >= lo-3*t.CI95-0.1 && t.Mean <= up+3*t.CI95
		return []string{fmt.Sprintf("%d", sc.Topology.D), F(sc.LoadFactor), F(t.Mean), F(t.CI95),
			F(lo), F(up), boolMark(within)}
	})
	table.AddNote("T is the mean packet delay; bounds are Propositions 13 and 12 of the paper.")
	return table
}

func runE2(cfg RunConfig) *Table {
	table := NewTable("E2: stability boundary",
		"rho", "population slope", "mean population", "mean delay", "verdict")
	d := pick(cfg, 5, 7)
	horizon := pick(cfg, 1500.0, 6000.0)
	sw := sim.Sweep{
		Base: sim.Scenario{
			Topology: sim.Hypercube(d), P: 0.5, Horizon: horizon, Seed: cfg.Seed,
			PopulationTraceInterval: horizon / 200,
		},
		Axes: []sim.Axis{
			{Field: "load_factor", Values: sim.Nums(0.7, 0.9, 0.95, 1.05, 1.2)},
		},
	}
	sweepGrid(table, cfg, sw, func(r sim.Row) []string {
		res := r.Result
		rho := r.Scenario.LoadFactor
		// An unstable system accumulates packets at rate about
		// (rho-1)*lambda*2^d per unit time; use a threshold well below that
		// but well above the noise of a stable system.
		nodes := float64(int(1) << uint(d))
		threshold := 0.05 * nodes * (rho / 0.5) * 0.5
		if threshold < 0.5 {
			threshold = 0.5
		}
		verdict := "stable"
		if res.Metrics.PopulationSlope > threshold {
			verdict = "unstable"
		}
		return []string{F(rho), F(res.Metrics.PopulationSlope), F(res.Metrics.MeanPopulation),
			F(res.MeanDelay), verdict}
	})
	table.AddNote("d = %d, p = 1/2. The paper predicts stability exactly for rho < 1.", d)
	return table
}

func runE3(cfg RunConfig) *Table {
	table := NewTable("E3: heavy-traffic scaling",
		"rho", "measured T", "(1-rho)*T", "limit lower p/2", "limit upper d*p")
	d := pick(cfg, 5, 6)
	horizon := pick(cfg, 3000.0, 20000.0)
	rhos := pick(cfg, []float64{0.8, 0.9, 0.95}, []float64{0.8, 0.9, 0.95, 0.98})
	params := bounds.HypercubeParams{D: d, Lambda: 1, P: 0.5}
	sw := sim.Sweep{
		Base: sim.Scenario{
			Topology: sim.Hypercube(d), P: 0.5, Horizon: horizon, Seed: cfg.Seed,
			WarmupFraction: 0.4,
		},
		Axes: []sim.Axis{{Field: "load_factor", Values: sim.Nums(rhos...)}},
	}
	sweepGrid(table, cfg, sw, func(r sim.Row) []string {
		res := r.Result
		rho := r.Scenario.LoadFactor
		return []string{F(rho), F(res.MeanDelay), F((1 - rho) * res.MeanDelay),
			F(params.HeavyTrafficLimitLowerBound()), F(params.HeavyTrafficLimitUpperBound())}
	})
	table.AddNote("d = %d, p = 1/2. (1-rho)T must stay bounded as rho -> 1 (end of §3.3).", d)
	return table
}

func runE4(cfg RunConfig) *Table {
	table := NewTable("E4: butterfly greedy delay",
		"d", "p", "rho", "measured T", "lower (P14)", "upper (P17)", "within")
	dims := pick(cfg, []int{4, 5}, []int{4, 5, 6, 7, 8})
	ps := pick(cfg, []float64{0.3, 0.5}, []float64{0.3, 0.5, 0.7})
	horizon := pick(cfg, 2000.0, 8000.0)
	rho := 0.8
	sw := sim.Sweep{
		Base: sim.Scenario{
			Topology: sim.Butterfly(0), LoadFactor: rho, Horizon: horizon, Seed: cfg.Seed,
		},
		Axes: []sim.Axis{
			{Field: "d", Values: sim.Ints(dims...)},
			{Field: "p", Values: sim.Nums(ps...)},
		},
	}
	sweepGrid(table, cfg, sw, func(r sim.Row) []string {
		sc, res := r.Scenario, r.Result
		b := res.Butterfly
		within := res.MeanDelay >= b.UniversalLowerBound-3*res.Metrics.DelayCI95-0.1 &&
			res.MeanDelay <= b.GreedyUpperBound+3*res.Metrics.DelayCI95
		return []string{fmt.Sprintf("%d", sc.Topology.D), F(sc.P), F(res.LoadFactor), F(res.MeanDelay),
			F(b.UniversalLowerBound), F(b.GreedyUpperBound), boolMark(within)}
	})
	table.AddNote("rho = lambda*max{p,1-p} = %.2f throughout.", rho)
	return table
}

func runE5(cfg RunConfig) *Table {
	table := NewTable("E5: FIFO vs PS on the equivalent network Q (common sample path)",
		"quantity", "FIFO (Q)", "PS (Q~)", "product form")
	d := pick(cfg, 4, 5)
	horizon := pick(cfg, 2000.0, 8000.0)
	lambda := 1.6 // rho = 0.8 at p = 1/2
	spec := queuenet.HypercubeSpec(d, lambda, 0.5)
	sp := queuenet.GenerateSamplePath(spec, horizon, cfg.Seed)
	opts := queuenet.RunOptions{ObserveEvery: horizon / 100, Warmup: horizon / 5}
	fifo := queuenet.RunFIFO(spec, sp, opts)
	ps := queuenet.RunPS(spec, sp, opts)
	pfPop, _ := spec.ProductFormMeanPopulation()
	pfDelay, _ := spec.ProductFormMeanDelay()

	table.AddRow("mean population", F(fifo.MeanPopulation), F(ps.MeanPopulation), F(pfPop))
	table.AddRow("mean delay (entering packets)", F(fifo.MeanDelay), F(ps.MeanDelay), F(pfDelay))
	table.AddRow("packets departed", fmt.Sprintf("%d", fifo.Departed), fmt.Sprintf("%d", ps.Departed), "")

	violations := 0
	for i := range fifo.Observations {
		if fifo.Observations[i].Departures < ps.Observations[i].Departures ||
			fifo.Observations[i].Population > ps.Observations[i].Population {
			violations++
		}
	}
	table.AddRow("domination violations", fmt.Sprintf("%d of %d checks", violations, len(fifo.Observations)), "", "")
	table.AddNote("d = %d, rho = 0.8. Lemma 10 predicts zero violations; Prop. 11/12 predict FIFO <= PS <= product form.", d)
	return table
}

func runE6(cfg RunConfig) *Table {
	table := NewTable("E6: per-dimension occupancy under greedy routing",
		"dimension", "mean packets per arc", "arc utilisation", "M/D/1 prediction (dim 1)", "floor rho")
	d := pick(cfg, 5, 7)
	rho := 0.8
	horizon := pick(cfg, 3000.0, 10000.0)
	res := run(sim.Scenario{
		Topology: sim.Hypercube(d), P: 0.5, LoadFactor: rho, Horizon: horizon, Seed: cfg.Seed,
	})
	md1, _ := queueing.MD1{Lambda: rho}.MeanNumber() // rho < 1, so no error
	for j := 0; j < d; j++ {
		pred := ""
		if j == 0 {
			pred = F(md1)
		}
		table.AddRow(fmt.Sprintf("%d", j+1), F(res.Hypercube.PerDimensionMeanQueue[j]),
			F(res.Hypercube.PerDimensionUtilization[j]), pred, F(rho))
	}
	table.AddNote("Prop 5: every arc is utilised rho = %.2f; dimension 1 arcs are exact M/D/1 queues.", rho)
	return table
}

func runE7(cfg RunConfig) *Table {
	table := NewTable("E7: greedy routing vs pipelined batch baseline (§2.3)",
		"rho", "greedy T", "greedy slope", "pipelined T", "pipelined backlog slope", "pipelined verdict")
	d := pick(cfg, 4, 6)
	horizon := pick(cfg, 1200.0, 5000.0)
	rhos := []float64{0.1, 0.3, 0.6}
	addGridRows(table, cfg, len(rhos), func(i int) []string {
		rho := rhos[i]
		g := run(sim.Scenario{
			Topology: sim.Hypercube(d), P: 0.5, LoadFactor: rho, Horizon: horizon, Seed: cfg.Seed,
			PopulationTraceInterval: horizon / 200,
		})
		p := static.RunPipelined(static.PipelinedConfig{
			D: d, Lambda: rho / 0.5, P: 0.5, Horizon: horizon, Seed: cfg.Seed,
		})
		verdict := "stable"
		if p.BacklogSlope > 0.1 {
			verdict = "unstable"
		}
		return []string{F(rho), F(g.MeanDelay), F(g.Metrics.PopulationSlope),
			F(p.MeanDelay), F(p.BacklogSlope), verdict}
	})
	table.AddNote("d = %d. The batch scheme needs roughly rho < p/(R d) = %.3f; greedy is stable for every rho < 1.",
		d, bounds.HypercubeParams{D: d, Lambda: 1, P: 0.5}.PipelinedStabilityLimit(1.5))
	return table
}

func runE8(cfg RunConfig) *Table {
	table := NewTable("E8: slotted-time operation",
		"tau", "measured T", "continuous-time bound", "slotted bound", "within")
	d := pick(cfg, 4, 6)
	rho := 0.7
	horizon := pick(cfg, 2000.0, 8000.0)
	params := bounds.HypercubeParams{D: d, Lambda: rho / 0.5, P: 0.5}
	contBound, _ := params.GreedyUpperBound()
	sw := sim.Sweep{
		Base: sim.Scenario{
			Topology: sim.Hypercube(d), P: 0.5, LoadFactor: rho,
			Horizon: horizon, Seed: cfg.Seed, Slotted: true,
		},
		Axes: []sim.Axis{{Field: "tau", Values: sim.Nums(0.25, 0.5, 1.0)}},
	}
	sweepGrid(table, cfg, sw, func(r sim.Row) []string {
		res := r.Result
		tau := r.Scenario.Tau
		slottedBound, _ := params.SlottedUpperBound(tau)
		within := res.MeanDelay <= slottedBound+3*res.Metrics.DelayCI95
		return []string{F(tau), F(res.MeanDelay), F(contBound), F(slottedBound), boolMark(within)}
	})
	table.AddNote("d = %d, rho = %.2f, batch-Poisson arrivals at slot starts (§3.4).", d, rho)
	return table
}

func runE9(cfg RunConfig) *Table {
	table := NewTable("E9: queue sizes and population tails",
		"quantity", "measured", "paper bound / prediction")
	d := pick(cfg, 5, 7)
	rho := 0.8
	horizon := pick(cfg, 3000.0, 10000.0)
	res := run(sim.Scenario{
		Topology: sim.Hypercube(d), P: 0.5, LoadFactor: rho, Horizon: horizon, Seed: cfg.Seed,
		TrackQuantiles: true,
	})
	params := bounds.HypercubeParams{D: d, Lambda: rho / 0.5, P: 0.5}
	perNode, _ := params.MeanPacketsPerNodeUpperBound()
	totalPop, _ := params.TotalPopulationUpperBound()
	table.AddRow("mean packets per node", F(res.MeanPacketsPerNode), F(perNode))
	table.AddRow("mean total population", F(res.Metrics.MeanPopulation), F(totalPop))
	table.AddRow("peak total population", F(res.Metrics.MaxPopulation),
		F(totalPop*1.25)+" (=(1+eps) bound, eps=0.25)")
	table.AddRow("delay P95", F(res.DelayP95), "")
	table.AddRow("delay P99", F(res.DelayP99), "")
	table.AddRow("Chernoff tail bound at eps=0.25", F(params.TotalPopulationTailBound(0.25)), "<< 1 expected")
	table.AddNote("d = %d, rho = %.2f, p = 1/2.", d, rho)
	return table
}

func runE10(cfg RunConfig) *Table {
	table := NewTable("E10: destination locality sweep at fixed rho",
		"p", "lambda", "mean hops (d*p)", "measured T", "lower (P13)", "upper (P12)", "within")
	d := pick(cfg, 5, 7)
	rho := 0.6
	horizon := pick(cfg, 2000.0, 8000.0)
	sw := sim.Sweep{
		Base: sim.Scenario{
			Topology: sim.Hypercube(d), LoadFactor: rho, Horizon: horizon, Seed: cfg.Seed,
		},
		Axes: []sim.Axis{{Field: "p", Values: sim.Nums(0.1, 0.25, 0.5, 0.75, 1.0)}},
	}
	sweepGrid(table, cfg, sw, func(r sim.Row) []string {
		res := r.Result
		h := res.Hypercube
		within := res.MeanDelay >= h.GreedyLowerBound-3*res.Metrics.DelayCI95-0.1 &&
			res.MeanDelay <= h.GreedyUpperBound+3*res.Metrics.DelayCI95
		return []string{F(r.Scenario.P), F(res.Lambda), F(res.Metrics.MeanHops), F(res.MeanDelay),
			F(h.GreedyLowerBound), F(h.GreedyUpperBound), boolMark(within)}
	})
	table.AddNote("d = %d, rho = lambda*p = %.2f for every row.", d, rho)
	return table
}

func runE11(cfg RunConfig) *Table {
	table := NewTable("E11: packet-level simulator vs equivalent queueing network Q",
		"quantity", "packet-level", "equivalent network", "relative difference")
	d := pick(cfg, 4, 6)
	rho := 0.7
	lambda := rho / 0.5
	horizon := pick(cfg, 3000.0, 10000.0)
	res := run(sim.Scenario{
		Topology: sim.Hypercube(d), P: 0.5, LoadFactor: rho, Horizon: horizon, Seed: cfg.Seed,
	})
	spec := queuenet.HypercubeSpec(d, lambda, 0.5)
	sp := queuenet.GenerateSamplePath(spec, horizon, cfg.Seed+1)
	q := queuenet.RunFIFO(spec, sp, queuenet.RunOptions{Warmup: horizon / 5})
	// The equivalent network only sees packets that enter it; convert its
	// conditional delay to the paper's T by multiplying with the entering
	// probability.
	enterProb := 1 - math.Pow(0.5, float64(d))
	qDelay := q.MeanDelay * enterProb
	relDelay := math.Abs(qDelay-res.MeanDelay) / res.MeanDelay
	relPop := math.Abs(q.MeanPopulation-res.Metrics.MeanPopulation) / res.Metrics.MeanPopulation
	table.AddRow("mean delay T", F(res.MeanDelay), F(qDelay), F(relDelay))
	table.AddRow("mean population", F(res.Metrics.MeanPopulation), F(q.MeanPopulation), F(relPop))
	table.AddRow("per-dim-1 arc utilisation", F(res.Hypercube.PerDimensionUtilization[0]), F(rho), "")
	table.AddNote("d = %d, rho = %.2f. §3.1 asserts the two systems are the same process in law.", d, rho)
	return table
}

func runE12(cfg RunConfig) *Table {
	table := NewTable("E12: lower-bound envelope",
		"d", "measured T", "universal LB (P2)", "oblivious LB (P3)", "greedy LB (P13)", "all below measured")
	dims := pick(cfg, []int{4, 5, 6}, []int{5, 6, 7, 8})
	rho := 0.8
	horizon := pick(cfg, 2000.0, 8000.0)
	sw := sim.Sweep{
		Base: sim.Scenario{
			Topology: sim.Hypercube(0), P: 0.5, LoadFactor: rho, Horizon: horizon, Seed: cfg.Seed,
		},
		Axes: []sim.Axis{{Field: "d", Values: sim.Ints(dims...)}},
	}
	sweepGrid(table, cfg, sw, func(r sim.Row) []string {
		res := r.Result
		h := res.Hypercube
		ok := res.MeanDelay >= h.UniversalLowerBound-0.1 &&
			res.MeanDelay >= h.ObliviousLowerBound-0.1 &&
			res.MeanDelay >= h.GreedyLowerBound-3*res.Metrics.DelayCI95-0.1
		return []string{fmt.Sprintf("%d", r.Scenario.Topology.D), F(res.MeanDelay), F(h.UniversalLowerBound),
			F(h.ObliviousLowerBound), F(h.GreedyLowerBound), boolMark(ok)}
	})
	table.AddNote("rho = %.2f, p = 1/2.", rho)
	return table
}

func runA1(cfg RunConfig) *Table {
	table := NewTable("A1: increasing vs random dimension order",
		"rho", "canonical T", "random-order T", "ratio")
	d := pick(cfg, 5, 6)
	horizon := pick(cfg, 2000.0, 8000.0)
	rhos := []float64{0.6, 0.9}
	addGridRows(table, cfg, len(rhos), func(i int) []string {
		rho := rhos[i]
		a := run(sim.Scenario{
			Topology: sim.Hypercube(d), P: 0.5, LoadFactor: rho, Horizon: horizon, Seed: cfg.Seed,
			Router: sim.GreedyDimensionOrder,
		})
		b := run(sim.Scenario{
			Topology: sim.Hypercube(d), P: 0.5, LoadFactor: rho, Horizon: horizon, Seed: cfg.Seed,
			Router: sim.GreedyRandomOrder,
		})
		return []string{F(rho), F(a.MeanDelay), F(b.MeanDelay), F(b.MeanDelay / a.MeanDelay)}
	})
	table.AddNote("d = %d. Both orders are stable; the canonical order is the one the paper analyses.", d)
	return table
}

func runA2(cfg RunConfig) *Table {
	table := NewTable("A2: FIFO vs random-order arc priority",
		"rho", "FIFO T", "random-priority T", "ratio")
	d := pick(cfg, 5, 6)
	horizon := pick(cfg, 2000.0, 8000.0)
	rhos := []float64{0.6, 0.9}
	addGridRows(table, cfg, len(rhos), func(i int) []string {
		rho := rhos[i]
		a := run(sim.Scenario{
			Topology: sim.Hypercube(d), P: 0.5, LoadFactor: rho, Horizon: horizon, Seed: cfg.Seed,
		})
		b := run(sim.Scenario{
			Topology: sim.Hypercube(d), P: 0.5, LoadFactor: rho, Horizon: horizon, Seed: cfg.Seed,
			Discipline: sim.RandomOrder,
		})
		return []string{F(rho), F(a.MeanDelay), F(b.MeanDelay), F(b.MeanDelay / a.MeanDelay)}
	})
	table.AddNote("d = %d. Mean delay is insensitive to the priority rule; only higher moments change.", d)
	return table
}

func runA3(cfg RunConfig) *Table {
	table := NewTable("A3: continuous time vs slotted time (tau = 1)",
		"rho", "continuous T", "slotted T", "difference", "allowed extra (tau)")
	d := pick(cfg, 4, 6)
	horizon := pick(cfg, 2000.0, 8000.0)
	rhos := []float64{0.5, 0.8}
	addGridRows(table, cfg, len(rhos), func(i int) []string {
		rho := rhos[i]
		a := run(sim.Scenario{
			Topology: sim.Hypercube(d), P: 0.5, LoadFactor: rho, Horizon: horizon, Seed: cfg.Seed,
		})
		b := run(sim.Scenario{
			Topology: sim.Hypercube(d), P: 0.5, LoadFactor: rho, Horizon: horizon, Seed: cfg.Seed,
			Slotted: true, Tau: 1,
		})
		return []string{F(rho), F(a.MeanDelay), F(b.MeanDelay), F(b.MeanDelay - a.MeanDelay), F(1)}
	})
	table.AddNote("d = %d. §3.4 bounds the slotted delay by the continuous-time bound plus one slot.", d)
	return table
}
