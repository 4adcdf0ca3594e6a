package sim_test

import (
	"context"
	"testing"

	"repro/sim"
)

// BenchmarkRun times one single run through sim.Run on each
// store-and-forward topology — validation, the pooled runner, the kernel and
// result assembly — with a warm pooled runner, and reports the time per
// simulated packet. The warm-up
// is negligible, so Metrics.Generated counts every packet the run injects.
func BenchmarkRun(b *testing.B) {
	topologies := []struct {
		name string
		sc   sim.Scenario
	}{
		{"hypercube", sim.Scenario{Topology: sim.Hypercube(7), P: 0.5, LoadFactor: 0.7}},
		{"butterfly", sim.Scenario{Topology: sim.Butterfly(6), P: 0.5, LoadFactor: 0.7}},
	}
	for _, topo := range topologies {
		b.Run(topo.name, func(b *testing.B) {
			sc := topo.sc
			sc.Horizon, sc.WarmupFraction, sc.Seed = 500, 1e-9, 1
			if _, err := sim.Run(context.Background(), sc); err != nil { // warm the pooled runner
				b.Fatal(err)
			}
			b.ResetTimer()
			var packets int64
			for range b.N {
				res, err := sim.Run(context.Background(), sc)
				if err != nil {
					b.Fatal(err)
				}
				packets += res.Metrics.Generated
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(packets), "ns/packet")
		})
	}
}
