package sim

import (
	"fmt"
	"runtime/debug"
	"testing"
)

// TestPooledRunSteadyStateAllocs pins what a single run allocates once the
// pooled runner is warm: the Result, its per-topology block and slices, and
// the Metrics snapshot the caller owns — never a rebuilt kernel,
// topology or sampler. The counts are independent of the horizon, so a run
// ten times longer must not allocate more.
func TestPooledRunSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop recycled runners at random")
	}
	// A collection empties sync.Pool; keep the runner alive for the count.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	hyper := func(mut func(*Scenario)) Scenario {
		sc := Scenario{Topology: Hypercube(5), P: 0.5, LoadFactor: 0.5, Seed: 3}
		mut(&sc)
		return sc
	}
	fly := Scenario{Topology: Butterfly(4), P: 0.5, LoadFactor: 0.5, Seed: 3}
	cases := []struct {
		name   string
		sc     Scenario
		kernel string
		max    float64
	}{
		{"hypercube/greedy", hyper(func(*Scenario) {}), KernelSlotStepped, 10},
		{"hypercube/valiant", hyper(func(s *Scenario) { s.Router = ValiantTwoPhase }), KernelSlotStepped, 10},
		{"hypercube/slotted", hyper(func(s *Scenario) { s.Slotted, s.Tau = true, 0.5 }), KernelSlotStepped, 10},
		{"hypercube/random-order", hyper(func(s *Scenario) { s.Discipline = RandomOrder }), KernelSlotStepped, 10},
		{"butterfly/slot-stepped", fly, KernelSlotStepped, 7},
	}
	for _, c := range cases {
		for _, horizon := range []float64{200, 2000} {
			t.Run(fmt.Sprintf("%s/horizon=%g", c.name, horizon), func(t *testing.T) {
				sc := c.sc
				sc.Horizon = horizon
				n, err := sc.normalize()
				if err != nil {
					t.Fatal(err)
				}
				if got := n.runOnce().Kernel; got != c.kernel {
					t.Fatalf("ran on %s, want %s", got, c.kernel)
				}
				if allocs := testing.AllocsPerRun(20, func() { n.runOnce() }); allocs > c.max {
					t.Errorf("%v allocations per pooled run, want at most %v", allocs, c.max)
				}
			})
		}
	}
}
