package network

import (
	"math"
	"testing"

	"repro/internal/butterfly"
	"repro/internal/hypercube"
	"repro/internal/queueing"
	"repro/internal/workload"
	"repro/internal/xrand"
)

// callback is a des.Handler that runs one test function.
type callback func()

func (f callback) HandleEvent(_, _ int32) { f() }

// at schedules fn on sys's calendar at absolute time t, through a handler
// registered for this one event.
func at(sys *System, t float64, fn func()) {
	sys.Sim.ScheduleEventAt(t, sys.Sim.RegisterHandler(callback(fn)), 0, 0)
}

// injectPoisson drives a single-arc system with Poisson arrivals of the given
// rate, all packets following the same one-arc path.
func runSingleArc(t *testing.T, rate float64, horizon float64, discipline Discipline) (*System, Metrics) {
	t.Helper()
	sys := NewSystem(Config{NumArcs: 1, Discipline: discipline, Seed: 99})
	src := workload.NewPoissonSource(rate, 1234, 0)
	var schedule func()
	schedule = func() {
		next := src.NextArrival()
		if next > horizon {
			return
		}
		src.Advance()
		at(sys, next, func() {
			sys.Inject(&Packet{ID: sys.NewPacketID(), Path: []int{0}})
			schedule()
		})
	}
	schedule()
	sys.Sim.RunUntil(horizon * 0.1)
	sys.StartMeasurement()
	sys.Sim.RunUntil(horizon)
	return sys, sys.Snapshot()
}

func TestSingleArcMatchesMD1(t *testing.T) {
	// A single arc fed by Poisson traffic is exactly an M/D/1 queue; the
	// measured sojourn time must match Pollaczek-Khinchine.
	for _, rho := range []float64{0.3, 0.6, 0.8} {
		_, m := runSingleArc(t, rho, 200000, FIFO)
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
	// random order must agree with FIFO on the mean (though not the variance).
	_, fifo := runSingleArc(t, 0.7, 100000, FIFO)
	_, random := runSingleArc(t, 0.7, 100000, RandomOrder)
	if math.Abs(fifo.MeanDelay-random.MeanDelay) > 0.08*fifo.MeanDelay {
		t.Fatalf("FIFO %v vs random-order %v mean delay", fifo.MeanDelay, random.MeanDelay)
	}
	if random.DelayStdDev <= fifo.DelayStdDev {
		t.Log("note: random-order variance not larger than FIFO in this run (possible but unusual)")
	}
}

func TestTandemConservationAndDelay(t *testing.T) {
	// Two arcs in series at low load: mean delay is at least 2 (two unit
	// services) and every generated packet is eventually delivered.
	sys := NewSystem(Config{NumArcs: 2})
	src := workload.NewPoissonSource(0.3, 5, 0)
	const horizon = 20000
	var schedule func()
	schedule = func() {
		next := src.NextArrival()
		if next > horizon {
			return
		}
		src.Advance()
		at(sys, next, func() {
			sys.Inject(&Packet{ID: sys.NewPacketID(), Path: []int{0, 1}})
			schedule()
		})
	}
	schedule()
	sys.Sim.RunUntil(horizon)
	drainTime := sys.Drain()
	m := sys.Snapshot()
	if m.InFlight != 0 {
		t.Fatalf("packets still in flight after drain: %d", m.InFlight)
	}
	if m.Generated != m.Delivered {
		t.Fatalf("generated %d != delivered %d", m.Generated, m.Delivered)
	}
	if m.MeanDelay < 2 {
		t.Fatalf("two-hop delay %v < 2", m.MeanDelay)
	}
	if m.MeanHops != 2 {
		t.Fatalf("mean hops %v", m.MeanHops)
	}
	if drainTime < horizon {
		t.Fatalf("drain time %v before horizon", drainTime)
	}
}

func TestFIFOOrderPreserved(t *testing.T) {
	// Packets injected into the same arc back-to-back must depart in order
	// under FIFO.
	sys := NewSystem(Config{NumArcs: 1})
	var departures []int64
	sys.OnDeliver = func(p *Packet, now float64) { departures = append(departures, p.ID) }
	for i := 0; i < 50; i++ {
		id := int64(i)
		at(sys, 0, func() {
			sys.Inject(&Packet{ID: id, Path: []int{0}})
		})
	}
	sys.Sim.Run()
	if len(departures) != 50 {
		t.Fatalf("delivered %d", len(departures))
	}
	for i, id := range departures {
		if id != int64(i) {
			t.Fatalf("FIFO order violated: %v", departures[:i+1])
		}
	}
}

func TestZeroHopPacketDeliveredImmediately(t *testing.T) {
	sys := NewSystem(Config{NumArcs: 1})
	delivered := false
	sys.OnDeliver = func(p *Packet, now float64) {
		delivered = true
		if now != 0 {
			t.Fatalf("zero-hop packet delivered at %v", now)
		}
	}
	at(sys, 0, func() {
		sys.Inject(&Packet{ID: 1, Path: nil})
	})
	sys.Sim.Run()
	if !delivered {
		t.Fatal("zero-hop packet never delivered")
	}
	m := sys.Snapshot()
	if m.Delivered != 1 || m.MeanDelay != 0 {
		t.Fatalf("metrics = %+v", m)
	}
}

func TestDeterministicBackToBackService(t *testing.T) {
	// Three packets injected at time 0 into one arc: departures at 1, 2, 3;
	// mean delay (1+2+3)/3 = 2.
	sys := NewSystem(Config{NumArcs: 1})
	var times []float64
	sys.OnDeliver = func(p *Packet, now float64) { times = append(times, now) }
	at(sys, 0, func() {
		for i := 0; i < 3; i++ {
			sys.Inject(&Packet{ID: int64(i), Path: []int{0}})
		}
	})
	sys.Sim.Run()
	want := []float64{1, 2, 3}
	for i := range want {
		if times[i] != want[i] {
			t.Fatalf("departure times %v", times)
		}
	}
	m := sys.Snapshot()
	if math.Abs(m.MeanDelay-2) > 1e-12 {
		t.Fatalf("mean delay %v", m.MeanDelay)
	}
	if m.MaxDelay != 3 {
		t.Fatalf("max delay %v", m.MaxDelay)
	}
}

func TestCustomServiceTime(t *testing.T) {
	sys := NewSystem(Config{NumArcs: 1, ServiceTime: 0.25})
	var deliveredAt float64
	sys.OnDeliver = func(p *Packet, now float64) { deliveredAt = now }
	at(sys, 0, func() { sys.Inject(&Packet{ID: 1, Path: []int{0}}) })
	sys.Sim.Run()
	if deliveredAt != 0.25 {
		t.Fatalf("delivered at %v", deliveredAt)
	}
}

func TestTotalQueuedMatchesInFlight(t *testing.T) {
	sys := NewSystem(Config{NumArcs: 4})
	rng := xrand.New(7)
	const horizon = 2000
	src := workload.NewPoissonSource(0.9, 3, 0)
	var schedule func()
	schedule = func() {
		next := src.NextArrival()
		if next > horizon {
			return
		}
		src.Advance()
		at(sys, next, func() {
			// Random 2-hop path among the 4 arcs.
			a := rng.Intn(4)
			b := rng.Intn(4)
			sys.Inject(&Packet{ID: sys.NewPacketID(), Path: []int{a, b}})
			if sys.TotalQueued() != sys.InFlight() {
				t.Errorf("queued %d != in flight %d", sys.TotalQueued(), sys.InFlight())
			}
			schedule()
		})
	}
	schedule()
	sys.Sim.RunUntil(horizon)
	if sys.TotalQueued() != sys.InFlight() {
		t.Fatalf("final queued %d != in flight %d", sys.TotalQueued(), sys.InFlight())
	}
}

func TestGroupStatistics(t *testing.T) {
	// Two arcs in different groups; only group 1 receives traffic.
	sys := NewSystem(Config{
		NumArcs:   2,
		NumGroups: 2,
	})
	src := workload.NewPoissonSource(0.5, 9, 0)
	const horizon = 20000
	var schedule func()
	schedule = func() {
		next := src.NextArrival()
		if next > horizon {
			return
		}
		src.Advance()
		at(sys, next, func() {
			sys.Inject(&Packet{ID: sys.NewPacketID(), Path: []int{1}})
			schedule()
		})
	}
	schedule()
	sys.Sim.RunUntil(horizon)
	m := sys.Snapshot()
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

func TestStartMeasurementDiscardsWarmup(t *testing.T) {
	sys := NewSystem(Config{NumArcs: 1})
	// Warm-up traffic: a large burst that causes long delays.
	at(sys, 0, func() {
		for i := 0; i < 100; i++ {
			sys.Inject(&Packet{ID: sys.NewPacketID(), Path: []int{0}})
		}
	})
	sys.Sim.RunUntil(200)
	sys.StartMeasurement()
	// Measured traffic: single isolated packet, delay exactly 1.
	at(sys, 300, func() {
		sys.Inject(&Packet{ID: sys.NewPacketID(), Path: []int{0}})
	})
	sys.Sim.RunUntil(400)
	m := sys.Snapshot()
	if m.Delivered != 1 {
		t.Fatalf("delivered %d packets in measurement window", m.Delivered)
	}
	if m.MeanDelay != 1 {
		t.Fatalf("mean delay %v, warm-up leaked into measurement", m.MeanDelay)
	}
}

func TestDelayQuantileAndClasses(t *testing.T) {
	sys := NewSystem(Config{NumArcs: 1, Measurement: Measurement{TrackQuantiles: true}})
	at(sys, 0, func() {
		sys.Inject(&Packet{ID: 0, Path: []int{0}, Class: 1}) // delay 1
		sys.Inject(&Packet{ID: 1, Path: []int{0}, Class: 2}) // delay 2
	})
	sys.Sim.Run()
	if got := sys.DelayQuantile(1.0); got != 2 {
		t.Fatalf("max quantile %v", got)
	}
	if got := sys.DelayQuantile(0.0); got != 1 {
		t.Fatalf("min quantile %v", got)
	}
	m := sys.Snapshot()
	if m.MeanDelayByClass[1] != 1 || m.MeanDelayByClass[2] != 2 {
		t.Fatalf("per-class delays %v", m.MeanDelayByClass)
	}
}

func TestDelayQuantileWithoutSampleIsNaN(t *testing.T) {
	sys := NewSystem(Config{NumArcs: 1})
	if !math.IsNaN(sys.DelayQuantile(0.5)) {
		t.Fatal("expected NaN without TrackQuantiles")
	}
}

func TestPopulationTraceSlopeUnstableQueue(t *testing.T) {
	// A single arc overloaded at rho = 1.5 must show a clearly positive
	// population slope (~0.5 packets per unit time).
	sys := NewSystem(Config{NumArcs: 1, Measurement: Measurement{TraceInterval: 10}})
	src := workload.NewPoissonSource(1.5, 21, 0)
	const horizon = 5000
	var schedule func()
	schedule = func() {
		next := src.NextArrival()
		if next > horizon {
			return
		}
		src.Advance()
		at(sys, next, func() {
			sys.Inject(&Packet{ID: sys.NewPacketID(), Path: []int{0}})
			schedule()
		})
	}
	schedule()
	sys.Sim.RunUntil(horizon)
	m := sys.Snapshot()
	if m.PopulationSlope < 0.3 {
		t.Fatalf("unstable queue slope %v, want about 0.5", m.PopulationSlope)
	}
	// A stable queue's slope is near zero.
	sysStable, mStable := runSingleArc(t, 0.5, 20000, FIFO)
	_ = sysStable
	if math.Abs(mStable.PopulationSlope) > 0.05 {
		// The stable run did not enable tracing, so slope should be zero.
		t.Fatalf("stable slope %v", mStable.PopulationSlope)
	}
}

func TestConfigValidation(t *testing.T) {
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("expected panic for zero arcs")
			}
		}()
		NewSystem(Config{NumArcs: 0})
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("expected panic for negative service time")
			}
		}()
		NewSystem(Config{NumArcs: 1, ServiceTime: -1})
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("expected panic for bad trace interval")
			}
		}()
		NewSystem(Config{NumArcs: 1, Measurement: Measurement{TraceInterval: -1}})
	}()
}

func TestBadPathPanics(t *testing.T) {
	sys := NewSystem(Config{NumArcs: 2})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range arc index")
		}
	}()
	at(sys, 0, func() {
		sys.Inject(&Packet{ID: 1, Path: []int{5}})
	})
	sys.Sim.Run()
}

func TestDisciplineString(t *testing.T) {
	if FIFO.String() != "fifo" || RandomOrder.String() != "random-order" {
		t.Fatal("discipline names wrong")
	}
	if Discipline(42).String() == "" {
		t.Fatal("unknown discipline name empty")
	}
}

func TestPacketHops(t *testing.T) {
	p := &Packet{Path: []int{1, 2, 3}}
	if p.Hops() != 3 {
		t.Fatalf("Hops = %d", p.Hops())
	}
}

func TestConfigAccessor(t *testing.T) {
	sys := NewSystem(Config{NumArcs: 3, ServiceTime: 2})
	if sys.Config().NumArcs != 3 || sys.Config().ServiceTime != 2 {
		t.Fatal("Config accessor wrong")
	}
}

func BenchmarkSingleArcSimulation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sys := NewSystem(Config{NumArcs: 1})
		src := workload.NewPoissonSource(0.8, uint64(i), 0)
		const horizon = 1000
		var schedule func()
		schedule = func() {
			next := src.NextArrival()
			if next > horizon {
				return
			}
			src.Advance()
			at(sys, next, func() {
				sys.Inject(&Packet{ID: sys.NewPacketID(), Path: []int{0}})
				schedule()
			})
		}
		schedule()
		sys.Sim.RunUntil(horizon)
	}
}

func TestPerHopWaitStatistics(t *testing.T) {
	// Two arcs in different groups; three packets injected back to back at
	// time 0 traverse arc 0 then arc 1. At arc 0 their sojourns are 1, 2, 3;
	// at arc 1 they arrive one time unit apart and never wait, so each
	// sojourn is exactly 1.
	sys := NewSystem(Config{
		NumArcs:     2,
		NumGroups:   2,
		Measurement: Measurement{TrackPerHopWait: true},
	})
	at(sys, 0, func() {
		for i := 0; i < 3; i++ {
			sys.Inject(&Packet{ID: int64(i), Path: []int{0, 1}})
		}
	})
	sys.Sim.Run()
	m := sys.Snapshot()
	if len(m.GroupMeanWait) != 2 {
		t.Fatalf("GroupMeanWait has %d entries", len(m.GroupMeanWait))
	}
	if math.Abs(m.GroupMeanWait[0]-2) > 1e-12 {
		t.Fatalf("group 0 mean sojourn %v, want 2", m.GroupMeanWait[0])
	}
	if math.Abs(m.GroupMeanWait[1]-1) > 1e-12 {
		t.Fatalf("group 1 mean sojourn %v, want 1", m.GroupMeanWait[1])
	}
}

func TestPerHopWaitResetByStartMeasurement(t *testing.T) {
	sys := NewSystem(Config{NumArcs: 1, Measurement: Measurement{TrackPerHopWait: true}})
	// Warm-up burst with heavy queueing.
	at(sys, 0, func() {
		for i := 0; i < 10; i++ {
			sys.Inject(&Packet{ID: int64(i), Path: []int{0}})
		}
	})
	sys.Sim.RunUntil(50)
	sys.StartMeasurement()
	// One isolated packet after the reset: sojourn exactly 1.
	at(sys, 60, func() {
		sys.Inject(&Packet{ID: 99, Path: []int{0}})
	})
	sys.Sim.RunUntil(100)
	m := sys.Snapshot()
	if math.Abs(m.GroupMeanWait[0]-1) > 1e-12 {
		t.Fatalf("mean sojourn after reset %v, want 1", m.GroupMeanWait[0])
	}
}

func TestPerHopWaitAbsentWithoutFlag(t *testing.T) {
	sys := NewSystem(Config{NumArcs: 1})
	at(sys, 0, func() { sys.Inject(&Packet{ID: 1, Path: []int{0}}) })
	sys.Sim.Run()
	if sys.Snapshot().GroupMeanWait != nil {
		t.Fatal("GroupMeanWait should be nil when tracking is disabled")
	}
}

// TestGroupShiftMatchesTopologyArcLayout pins the block rule both kernels
// group arcs by against the topologies' own arc indexing: a hypercube's
// groups are its dimensions, a butterfly's its (level, arc kind) pairs.
func TestGroupShiftMatchesTopologyArcLayout(t *testing.T) {
	for d := 1; d <= 6; d++ {
		cube := hypercube.New(d)
		shift := GroupShift(cube.NumArcs(), d)
		for a := 0; a < cube.NumArcs(); a++ {
			if got, want := a>>shift, int(cube.DimensionOfArcIndex(a))-1; got != want {
				t.Fatalf("hypercube d=%d arc %d: group %d, want dimension group %d", d, a, got, want)
			}
		}
		bf := butterfly.New(d)
		shift = GroupShift(bf.NumArcs(), 2*d)
		for a := 0; a < bf.NumArcs(); a++ {
			want := 2 * (int(bf.LevelOfArcIndex(a)) - 1)
			if bf.KindOfArcIndex(a) == butterfly.Vertical {
				want++
			}
			if got := a >> shift; got != want {
				t.Fatalf("butterfly d=%d arc %d: group %d, want level/kind group %d", d, a, got, want)
			}
		}
	}
	if got := GroupShift(7, 1); 6>>got != 0 {
		t.Errorf("one group: arc 6 shifts to %d", 6>>got)
	}
	defer func() {
		if recover() == nil {
			t.Error("no panic for groups that are not power-of-two blocks")
		}
	}()
	GroupShift(12, 4)
}
