package slotsim

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/network"
	"repro/internal/oracle"
	"repro/internal/xrand"
)

// scriptTraffic hands out fixed routes in order, ignoring the packets'
// pairs. Its sampler draws only the origin pick of the network's one source.
type scriptTraffic struct {
	routes [][]int
	next   int
}

func (s *scriptTraffic) SampleDestBatch(rng *xrand.Rand, origins, dests []uint32) {
	for i := range origins {
		origins[i], dests[i] = uint32(rng.Uint64n(1)), 0
	}
}

func (s *scriptTraffic) AppendRoute(_, _ uint32, dst []int) []int {
	r := s.routes[s.next]
	s.next++
	return append(dst, r...)
}

// queueCase is a tiny network whose packets all enter at t = 0 on scripted
// routes, so every queue event happens at a known instant. want pins the
// hand-computed outcome, which shows the case exercises what its name says.
// (Measurement starts just after the injections, so drops that count happen
// after t = 0.)
type queueCase struct {
	name   string
	arcs   int
	routes [][]int
	faults network.Faults
	want   queueOutcome
}

type queueOutcome struct {
	delivered, overflow int64
	maxDelay            float64
}

// queueCases cover the queue representation's corner cases: the head of a
// non-empty queue is the packet in service unless the arc is stalled by an
// outage, and a finite buffer counts only the packets waiting behind it.
var queueCases = []queueCase{
	{
		// P1 is in service when the outage starts and finishes at t = 1; P2
		// becomes the head but stalls until the outage ends at 1.5.
		name:   "arc mid-service when its outage starts",
		arcs:   2,
		routes: [][]int{{0}, {0}},
		faults: network.Faults{Outages: []network.Outage{{From: 0.5, Until: 1.5, Arcs: []int32{0}}}},
		want:   queueOutcome{delivered: 2, maxDelay: 2.5},
	},
	{
		// The outage ends while P1 is still in service: nothing restarts,
		// and P2 starts when P1 completes.
		name:   "outage shorter than the service",
		arcs:   2,
		routes: [][]int{{0}, {0}},
		faults: network.Faults{Outages: []network.Outage{{From: 0.2, Until: 0.6, Arcs: []int32{0}}}},
		want:   queueOutcome{delivered: 2, maxDelay: 2},
	},
	{
		// P1 and P2 reach arc 0 at t = 1, while it is idle and down: P1 is a
		// stalled head, P2 queues behind it, and both leave after 3.25.
		name:   "packet joins an idle arc that is down",
		arcs:   3,
		routes: [][]int{{1, 0}, {2, 0}},
		faults: network.Faults{Outages: []network.Outage{{From: 0.5, Until: 3.25, Arcs: []int32{0}}}},
		want:   queueOutcome{delivered: 2, maxDelay: 5.25},
	},
	{
		// At t = 1.5 the first outage ends (restarting P2) and the second
		// starts; P2 finishes at 2.5 while the arc is down, so P3 stalls
		// until 2.7.
		name:   "back-to-back outages on the same arc",
		arcs:   2,
		routes: [][]int{{0}, {0}, {0}},
		faults: network.Faults{Outages: []network.Outage{
			{From: 0.5, Until: 1.5, Arcs: []int32{0}},
			{From: 1.5, Until: 2.7, Arcs: []int32{0}},
		}},
		want: queueOutcome{delivered: 3, maxDelay: 3.7},
	},
	{
		// P1, P2 and P3 reach arc 0 at t = 1. P1 is in service and does
		// not count against the buffer of one: P2 waits and P3 is dropped.
		name:   "full buffer while the head is in service",
		arcs:   4,
		routes: [][]int{{1, 0}, {2, 0}, {3, 0}},
		faults: network.Faults{BufferCapacity: 1},
		want:   queueOutcome{delivered: 2, overflow: 1, maxDelay: 3},
	},
	{
		// A stalled head waits, so it fills a buffer of one: P2 is dropped.
		name:   "full buffer behind a stalled head",
		arcs:   3,
		routes: [][]int{{1, 0}, {2, 0}},
		faults: network.Faults{
			BufferCapacity: 1,
			Outages:        []network.Outage{{From: 0.5, Until: 2.5, Arcs: []int32{0}}},
		},
		want: queueOutcome{delivered: 1, overflow: 1, maxDelay: 3.5},
	},
	{
		// No outages and no buffer: plain joins and restarts.
		// P3 and P4 join arcs 0 and 1 at t = 1, behind P1 and P2's own
		// second hops.
		name:   "fault-free joins",
		arcs:   3,
		routes: [][]int{{1, 0}, {0, 1}, {2, 0}, {2, 1}, {0}},
		want:   queueOutcome{delivered: 5, maxDelay: 4},
	},
}

// TestQueueCasesMatchOracle checks every queue case, under both arrival
// models, against the reference simulator (internal/oracle) on the same
// seed: the packet counts and every delay, in delivery order, must be
// identical, and the outcome must be the hand-computed one.
func TestQueueCasesMatchOracle(t *testing.T) {
	const horizon = 10
	for _, tc := range queueCases {
		for _, slotted := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/slotted=%v", tc.name, slotted), func(t *testing.T) {
				ref := oracle.Run(oracle.Config{NumArcs: tc.arcs, Horizon: horizon, Seed: 7,
					Faults: tc.faults, Initial: tc.routes})

				script := &scriptTraffic{routes: tc.routes}
				cfg := Config{
					NumArcs:     tc.arcs,
					Sources:     1,
					MaxHops:     2,
					Horizon:     horizon,
					Seed:        7,
					Lambda:      1e-300, // no drawn arrival falls inside the horizon
					Traffic:     script,
					Batch:       script,
					Measurement: network.Measurement{TrackQuantiles: true, TrackPerHopWait: true},
					Faults:      tc.faults,
				}
				if slotted {
					cfg.Slotted, cfg.Tau = true, 1
				}
				k := &Kernel{}
				k.reset(cfg)
				for range tc.routes {
					k.injectTo(0, 0, 0)
				}
				if slotted {
					k.runSlotted()
				} else {
					k.runContinuous()
				}
				got := k.snapshot()

				g := [5]int64{got.Generated, got.Delivered, got.DroppedFault, got.DroppedOverflow, got.InFlight}
				w := [5]int64{ref.Generated, ref.Delivered, ref.DroppedFault, ref.DroppedOverflow, ref.InFlight}
				if g != w || !slices.Equal(k.DelaySample(), ref.Delays) {
					t.Fatalf("slot kernel diverges from the oracle: counts %v, delays %v\nvs counts %v, delays %v",
						g, k.DelaySample(), w, ref.Delays)
				}
				out := queueOutcome{got.Delivered, got.DroppedOverflow, got.MaxDelay}
				if out != tc.want {
					t.Fatalf("outcome %+v, want %+v", out, tc.want)
				}
			})
		}
	}
}

// TestEstimateBytesMatchesFootprint pins EstimateBytes' arc term to the
// arrays reset really allocates, so a per-arc array added to only one of the
// two fails: straight after reset on a fresh kernel, the arc-indexed part of
// memFootprint equals the estimate's arc term, at 12 bytes per arc plus the
// buffer lengths and, with outages, the stalled-head array and the bitsets.
func TestEstimateBytesMatchesFootprint(t *testing.T) {
	outage := []network.Outage{{From: 1, Until: 2, Arcs: []int32{3}}}
	for _, tc := range []struct {
		name   string
		faults network.Faults
		perArc int64
	}{
		{"plain", network.Faults{}, 12},
		{"buffered", network.Faults{BufferCapacity: 2}, 16},
		{"outages", network.Faults{Outages: outage}, 16},
		{"buffered outages", network.Faults{BufferCapacity: 2, Outages: outage}, 20},
	} {
		for _, slotted := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/slotted=%v", tc.name, slotted), func(t *testing.T) {
				cfg := slottedConfig()
				cfg.NumArcs = 100 // not a multiple of 64: bitsets round up to whole words
				cfg.NumGroups = 1
				routeChain(&cfg, chainTraffic{sources: cfg.Sources, numArcs: 100, hops: 4})
				cfg.Slotted = slotted
				if !slotted {
					cfg.Tau = 0
				}
				cfg.Faults = tc.faults
				k := &Kernel{}
				k.reset(cfg)
				est, foot := arcTermBytes(cfg), k.arcFootprint()
				if est != foot {
					t.Fatalf("EstimateBytes prices %d B of arc arrays, reset allocated %d B", est, foot)
				}
				want := 100 * tc.perArc
				if len(tc.faults.Outages) > 0 {
					want += 2 * 2 * 8 // down and stalled bitsets, two words each
				}
				if est != want {
					t.Fatalf("arc term %d B, want %d B", est, want)
				}
			})
		}
	}
}

// TestRingGrowsOnlyOnIdleArcStart pins when the completion ring grows: only
// when a service start needs a slot, so growth (which Config.MaxBytes
// charges) keeps its timing. With the ring exactly full, a packet joining a
// busy arc leaves it alone; the next start on an idle arc doubles it.
func TestRingGrowsOnlyOnIdleArcStart(t *testing.T) {
	const busy = compChunk // arcs 0..busy-1 each get one packet in service
	routes := make([][]int, 0, busy+2)
	for a := range busy {
		routes = append(routes, []int{a})
	}
	routes = append(routes, []int{0}, []int{busy}) // a busy arc, then an idle one
	for _, slotted := range []bool{false, true} {
		t.Run(fmt.Sprintf("slotted=%v", slotted), func(t *testing.T) {
			script := &scriptTraffic{routes: routes}
			cfg := Config{
				NumArcs: busy + 1,
				Sources: 1,
				MaxHops: 1,
				Horizon: 10,
				Seed:    7,
				Lambda:  1e-300, // no drawn arrival falls inside the horizon
				Traffic: script,
				Batch:   script,
			}
			if slotted {
				cfg.Slotted, cfg.Tau = true, 1
			}
			k := &Kernel{}
			k.reset(cfg)
			for range busy {
				k.injectTo(0, 0, 0)
			}
			if pending, size := k.compTail-k.compHead, len(k.comp); pending != uint64(size) {
				t.Fatalf("%d completions pending in a ring of %d, want it exactly full", pending, size)
			}
			k.injectTo(0, 0, 0) // joins arc 0 behind its packet in service
			if len(k.comp) != busy {
				t.Fatalf("a join to a busy arc grew the full ring to %d records", len(k.comp))
			}
			k.injectTo(0, 0, 0) // starts service on the idle arc
			if len(k.comp) != 2*busy {
				t.Fatalf("an idle-arc start on a full ring left it at %d records, want %d", len(k.comp), 2*busy)
			}
		})
	}
}

// TestBatchCases runs the reference simulator's Batch cases, and an empty
// batch, through both Batch implementations from one table: each must give
// the hand-computed deliveries. One kernel runs every case.
func TestBatchCases(t *testing.T) {
	fifo := make([][]int, 50)
	wantFIFO := make([]Delivery, 50)
	for i := range fifo {
		fifo[i] = []int{0}
		wantFIFO[i] = Delivery{i, float64(i + 1)}
	}
	var k Kernel
	for _, c := range []struct {
		name   string
		arcs   int
		routes [][]int
		want   []Delivery
	}{
		// Packets injected into the same arc depart in order, one per time unit.
		{"FIFO order on one arc", 1, fifo, wantFIFO},
		{"zero-hop packet delivered first at t = 0", 1, [][]int{{0}, nil}, []Delivery{{1, 0}, {0, 1}}},
		// Three packets leave arc 0 at 1, 2 and 3 and never wait at arc 1.
		{"back-to-back service", 2, [][]int{{0, 1}, {0, 1}, {0, 1}}, []Delivery{{0, 2}, {1, 3}, {2, 4}}},
		{"no routes", 1, nil, nil},
	} {
		var ref []Delivery
		for _, d := range oracle.Batch(c.arcs, c.routes) {
			ref = append(ref, Delivery(d))
		}
		if !slices.Equal(ref, c.want) {
			t.Errorf("%s: oracle delivered %v, want %v", c.name, ref, c.want)
		}
		if got := k.Batch(c.arcs, c.routes); !slices.Equal(got, c.want) {
			t.Errorf("%s: kernel delivered %v, want %v", c.name, got, c.want)
		}
	}
}
