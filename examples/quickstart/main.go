// Quickstart: run greedy dimension-order routing on an 8-dimensional
// hypercube at 80% load with uniform traffic and compare the measured mean
// delay against the paper's closed-form bounds.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"

	"repro/sim"
)

func main() {
	quick := flag.Bool("quick", false, "shortened horizon for smoke runs")
	flag.Parse()
	horizon := 4000.0
	if *quick {
		horizon = 600
	}
	res, err := sim.Run(context.Background(), sim.Scenario{
		Topology:   sim.Hypercube(8), // 256 nodes, 2048 arcs
		P:          0.5,              // uniform destination distribution
		LoadFactor: 0.8,              // rho = lambda*p
		Horizon:    horizon,          // simulated time units
		Seed:       1,
	})
	if err != nil {
		log.Fatal(err)
	}
	h := res.Hypercube

	fmt.Println("Greedy dimension-order routing on the 8-cube, rho = 0.8")
	fmt.Printf("  measured mean delay T: %.3f time units\n", res.MeanDelay)
	fmt.Printf("  paper lower bound (Prop 13): %.3f\n", h.GreedyLowerBound)
	fmt.Printf("  paper upper bound (Prop 12): %.3f\n", h.GreedyUpperBound)
	fmt.Printf("  within bounds: %v\n", res.WithinPaperBounds)
	fmt.Printf("  mean hops per packet (d*p): %.3f\n", res.Metrics.MeanHops)
	fmt.Printf("  mean packets stored per node: %.3f (bound %.3f)\n",
		res.MeanPacketsPerNode, mustFloat(h.Params.MeanPacketsPerNodeUpperBound()))
	fmt.Printf("  packets delivered in the measurement window: %d\n", res.Metrics.Delivered)
}

func mustFloat(v float64, err error) float64 {
	if err != nil {
		log.Fatal(err)
	}
	return v
}
