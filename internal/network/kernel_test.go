package network_test

import (
	"math"
	"testing"

	"repro/internal/network"
	"repro/internal/queueing"
	"repro/internal/slotsim"
	"repro/internal/xrand"
)

// The tests in this file check the Metrics a Collector assembles on real
// queues: the slot kernel runs a small network of arcs fed by one Poisson
// source whose packets follow scripted routes.

// traffic samples a one-source network's packets and routes them.
type traffic interface {
	slotsim.BatchSampler
	slotsim.Traffic
}

// fixedRoute gives every packet the same route.
type fixedRoute []int

func (r fixedRoute) SampleDestBatch(rng *xrand.Rand, origins, dests []uint32) {
	for i := range origins {
		origins[i], dests[i] = uint32(rng.Uint64n(1)), 0 // the one source's pick
	}
}

func (r fixedRoute) AppendRoute(_, _ uint32, dst []int) []int { return append(dst, r...) }

// randomPairs routes every packet over two arcs drawn uniformly from arcs,
// which its pair carries in place of a destination.
type randomPairs struct{ arcs int }

func (r randomPairs) SampleDestBatch(rng *xrand.Rand, origins, dests []uint32) {
	for i := range origins {
		origins[i] = uint32(rng.Uint64n(1)) // the one source's pick
		first := rng.Intn(r.arcs)
		dests[i] = uint32(first*r.arcs + rng.Intn(r.arcs))
	}
}

func (r randomPairs) AppendRoute(_, arcs uint32, dst []int) []int {
	return append(dst, int(arcs)/r.arcs, int(arcs)%r.arcs)
}

// queueConfig is a run of arcs arcs in groups groups, fed at rate lambda by
// one source routing its packets with t; measurement starts at a tenth of the
// horizon.
func queueConfig(arcs, groups int, t traffic, lambda, horizon float64) slotsim.Config {
	return slotsim.Config{
		NumArcs: arcs, NumGroups: groups, Sources: 1, MaxHops: 2,
		Horizon: horizon, Warmup: horizon / 10, Seed: 1234, Lambda: lambda,
		Traffic: t, Batch: t,
	}
}

func runQueue(cfg slotsim.Config) network.Metrics {
	var k slotsim.Kernel
	return k.Run(cfg)
}

func TestSingleArcMatchesMD1(t *testing.T) {
	// A single arc fed by Poisson traffic is exactly an M/D/1 queue; the
	// measured sojourn time must match Pollaczek-Khinchine.
	for _, rho := range []float64{0.3, 0.6, 0.8} {
		m := runQueue(queueConfig(1, 1, fixedRoute{0}, rho, 200000))
		want, err := queueing.MD1{Lambda: rho}.MeanDelay()
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(m.MeanDelay-want) > 0.05*want {
			t.Fatalf("rho=%v: measured delay %v, M/D/1 predicts %v", rho, m.MeanDelay, want)
		}
		wantN, _ := queueing.MD1{Lambda: rho}.MeanNumber()
		if math.Abs(m.MeanPopulation-wantN) > 0.08*math.Max(wantN, 0.1) {
			t.Fatalf("rho=%v: measured population %v, M/D/1 predicts %v", rho, m.MeanPopulation, wantN)
		}
		if m.LittleLawError > 0.03 {
			t.Fatalf("rho=%v: Little's law error %v", rho, m.LittleLawError)
		}
		if math.Abs(m.GroupArcUtilization[0]-rho) > 0.05 {
			t.Fatalf("rho=%v: utilisation %v", rho, m.GroupArcUtilization[0])
		}
		if math.Abs(m.Throughput-rho) > 0.05 {
			t.Fatalf("rho=%v: throughput %v", rho, m.Throughput)
		}
	}
}

func TestRandomOrderDisciplineSameMeanDelay(t *testing.T) {
	// The mean delay of an M/D/1 queue is the same under any non-idling,
	// non-preemptive discipline that does not use service-time information;
	// random order must agree with FIFO on the mean, and its sojourn times
	// spread wider.
	cfg := queueConfig(1, 1, fixedRoute{0}, 0.7, 100000)
	fifo := runQueue(cfg)
	cfg.Discipline = network.RandomOrder
	random := runQueue(cfg)
	if math.Abs(fifo.MeanDelay-random.MeanDelay) > 0.08*fifo.MeanDelay {
		t.Fatalf("FIFO %v vs random-order %v mean delay", fifo.MeanDelay, random.MeanDelay)
	}
	if random.DelayStdDev <= fifo.DelayStdDev {
		t.Fatalf("random-order delay std dev %v not above FIFO's %v", random.DelayStdDev, fifo.DelayStdDev)
	}
}

func TestTandemConservationAndDelay(t *testing.T) {
	// Two arcs in series at low load: mean delay is at least 2 (two unit
	// services), and every packet is delivered or still in flight.
	cfg := queueConfig(2, 1, fixedRoute{0, 1}, 0.3, 20000)
	cfg.Warmup = 0
	m := runQueue(cfg)
	if m.Generated != m.Delivered+m.InFlight {
		t.Fatalf("generated %d != delivered %d + in flight %d", m.Generated, m.Delivered, m.InFlight)
	}
	if m.MeanDelay < 2 {
		t.Fatalf("two-hop delay %v < 2", m.MeanDelay)
	}
	if m.MeanHops != 2 {
		t.Fatalf("mean hops %v", m.MeanHops)
	}
}

func TestTotalQueuedMatchesInFlight(t *testing.T) {
	// Random two-hop routes over four arcs near saturation: every packet
	// generated is delivered or still queued at the horizon, and the mean
	// population is the per-group populations' sum.
	cfg := queueConfig(4, 4, randomPairs{4}, 0.9, 2000)
	cfg.Warmup = 0
	m := runQueue(cfg)
	if m.InFlight == 0 || m.Generated != m.Delivered+m.InFlight {
		t.Fatalf("generated %d, delivered %d, in flight %d", m.Generated, m.Delivered, m.InFlight)
	}
	sum := 0.0
	for _, p := range m.GroupMeanPopulation {
		sum += p
	}
	if math.Abs(sum-m.MeanPopulation) > 1e-9*m.MeanPopulation {
		t.Fatalf("group populations sum to %v, mean population %v", sum, m.MeanPopulation)
	}
}

func TestGroupStatistics(t *testing.T) {
	// Two arcs in different groups; only group 1 receives traffic.
	m := runQueue(queueConfig(2, 2, fixedRoute{1}, 0.5, 20000))
	if m.GroupArcUtilization[0] != 0 {
		t.Fatalf("idle group shows utilisation %v", m.GroupArcUtilization[0])
	}
	if math.Abs(m.GroupArcUtilization[1]-0.5) > 0.05 {
		t.Fatalf("busy group utilisation %v", m.GroupArcUtilization[1])
	}
	if m.GroupMeanPopulation[0] != 0 {
		t.Fatalf("idle group population %v", m.GroupMeanPopulation[0])
	}
	if m.GroupMeanPopulation[1] <= 0 {
		t.Fatalf("busy group population %v", m.GroupMeanPopulation[1])
	}
	if math.Abs(m.GroupArrivalRate[1]-0.5) > 0.05 {
		t.Fatalf("busy group arrival rate %v", m.GroupArrivalRate[1])
	}
}

func TestPopulationTraceSlopeUnstableQueue(t *testing.T) {
	// A single arc overloaded at rho = 1.5 must show a clearly positive
	// population slope (~0.5 packets per unit time).
	cfg := queueConfig(1, 1, fixedRoute{0}, 1.5, 5000)
	cfg.TraceInterval = 10
	if m := runQueue(cfg); m.PopulationSlope < 0.3 {
		t.Fatalf("unstable queue slope %v, want about 0.5", m.PopulationSlope)
	}
	// Without the trace the slope is not measured.
	if m := runQueue(queueConfig(1, 1, fixedRoute{0}, 0.5, 20000)); m.PopulationSlope != 0 {
		t.Fatalf("untraced slope %v", m.PopulationSlope)
	}
}

// mustPanic fails the test unless fn panics.
func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("expected a panic for %s", what)
		}
	}()
	fn()
}

func TestConfigValidation(t *testing.T) {
	mustPanic(t, "zero arcs", func() { runQueue(queueConfig(0, 1, fixedRoute{0}, 0.5, 10)) })
	cfg := queueConfig(1, 1, fixedRoute{0}, 0.5, 10)
	cfg.TraceInterval = -1
	mustPanic(t, "a negative trace interval", func() { runQueue(cfg) })
}

func TestBadPathPanics(t *testing.T) {
	mustPanic(t, "an out-of-range arc index", func() { runQueue(queueConfig(2, 1, fixedRoute{5}, 0.5, 100)) })
}
