// Valiant vs greedy vs the pipelined baseline: the comparison that motivates
// the paper. On the dynamic routing problem,
//
//   - plain greedy dimension-order routing is stable for every rho < 1 and has
//     delay O(d);
//   - Valiant two-phase randomized routing roughly doubles every packet's path,
//     so at the same packet generation rate it loads the arcs twice as much
//     (the "mixing" trade-off discussed in the paper's concluding remarks);
//   - the non-greedy pipelined batch scheme of §2.3 only sustains loads of
//     order 1/d and its origin backlog explodes at loads greedy handles
//     easily.
//
// The two scenario-API runs differ only in Scenario.Router.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"

	"repro/internal/static"
	"repro/sim"
)

func main() {
	quick := flag.Bool("quick", false, "shortened horizon for smoke runs")
	flag.Parse()
	const d = 6
	const p = 0.5
	horizon := 4000.0
	if *quick {
		horizon = 800
	}

	fmt.Println("Dynamic routing on the 6-cube: greedy vs Valiant two-phase vs pipelined batches")
	fmt.Printf("%-6s  %-14s  %-14s  %-22s\n", "rho", "greedy T", "valiant T", "pipelined (T, backlog/s)")
	for _, rho := range []float64{0.1, 0.3, 0.5} {
		base := sim.Scenario{
			Topology: sim.Hypercube(d), P: p, LoadFactor: rho, Horizon: horizon, Seed: 11,
		}
		g, err := sim.Run(context.Background(), base)
		if err != nil {
			log.Fatal(err)
		}
		valiant := base
		valiant.Router = sim.ValiantTwoPhase
		v, err := sim.Run(context.Background(), valiant)
		if err != nil {
			log.Fatal(err)
		}
		b := static.RunPipelined(static.PipelinedConfig{
			D: d, Lambda: rho / p, P: p, Horizon: horizon, Seed: 11,
		})
		fmt.Printf("%-6.2f  %-14.3f  %-14.3f  T=%-8.2f slope=%+.3f\n",
			rho, g.MeanDelay, v.MeanDelay, b.MeanDelay, b.BacklogSlope)
	}
	fmt.Println("\nA positive backlog slope means the pipelined scheme cannot keep up: its")
	fmt.Println("stability region shrinks like 1/d, while greedy routing works for any rho < 1.")
}
