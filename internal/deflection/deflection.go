// Package deflection implements hot-potato (deflection) routing on the
// hypercube, the alternative dynamic-routing discipline analysed
// (approximately) by Greenberg and Hajek [GrH89] and discussed in the paper's
// related-work section (§1.2). It serves as an extra comparison baseline for
// the greedy store-and-forward scheme: instead of queueing at arcs, every
// packet present at a node at the start of a slot is forced onto some output
// port — preferably one that reduces its Hamming distance to the destination,
// otherwise a "deflection" onto any free port.
//
// The simulator is slotted (all transmissions take one slot) and enforces the
// structural invariant that makes deflection routing lossless on the d-cube:
// a node has d input and d output ports, so at most d packets can be present
// at a node when ports are assigned, and every one of them can be sent.
// Freshly generated packets wait in a per-node injection queue and enter the
// network only when their origin has a free slot.
package deflection

import (
	"fmt"

	"repro/internal/hypercube"
	"repro/internal/network"
	"repro/internal/stats"
	"repro/internal/workload"
	"repro/internal/xrand"
)

// Config parameterises a deflection-routing simulation. Run trusts it: the
// caller validates every field.
type Config struct {
	// D is the hypercube dimension.
	D int
	// Lambda is the per-node packet generation rate (packets per slot).
	Lambda float64
	// P is the destination bit-flip probability.
	P float64
	// Slots is the number of time slots to simulate.
	Slots int
	// WarmupFraction of the slots, truncated to whole slots, is discarded
	// before measuring.
	WarmupFraction float64
	// Seed drives all randomness.
	Seed uint64
	// ArcFailProb is the probability that any single hop transmission fails
	// and drops its packet, drawn per hop from the dedicated fault stream
	// (xrand.StreamFault of Seed). Zero disables the draw. Deflection routing
	// is bufferless, so this is the only fault mode that applies to it.
	ArcFailProb float64
	// Measure selects the collector's optional measurements: the exact
	// delay sample, the delay sketch and the population trace. Per-hop waits
	// do not apply (there are no arc queues), and the network population of
	// statistics group 0 is always kept.
	Measure network.Measurement
}

// Result reports one deflection-routing simulation.
type Result struct {
	// Metrics is the collector's snapshot of the measurement window, the
	// same measurements the store-and-forward kernel reports. The whole
	// network is statistics group 0: GroupMeanPopulation[0] is the
	// time-averaged number of packets inside the network (excluding
	// injection queues) and GroupArcUtilization[0] the fraction of arc-slots
	// that carried a hop.
	Metrics network.Metrics
	// Collector holds the run's delay sample and sketch (Measure).
	Collector *network.Collector
	// MeanShortest is the mean Hamming distance of the measured delivered
	// packets (the minimum possible hop count).
	MeanShortest float64
	// MeanDeflections is the mean number of unprofitable (distance
	// non-decreasing) hops per measured delivered packet.
	MeanDeflections float64
	// MeanInjectionBacklog is the time-averaged number of packets waiting in
	// injection queues.
	MeanInjectionBacklog float64
	// InjectionBacklogSlope is the least-squares slope of the injection
	// backlog over the measurement window (positive = not keeping up).
	InjectionBacklogSlope float64
	// MaxNodeOccupancy is the largest number of packets observed at one node
	// when ports were assigned; it can never exceed d.
	MaxNodeOccupancy int
}

// packet is one in-flight or queued packet.
type packet struct {
	dest        hypercube.Node
	genSlot     int
	hops        int
	deflections int
}

// run is the state moveOne reads and writes while one slot's hops complete.
type run struct {
	cube     *hypercube.Cube
	col      *network.Collector
	failProb float64
	faultRNG *xrand.Rand
	// next[x] collects the packets that arrive at node x at the end of the
	// slot.
	next [][]*packet
	// now is the end of the current slot, when its hops complete.
	now float64
	// warmupSlot is the first measured slot; windowHops counts the hops
	// transmitted from it on.
	warmupSlot  int
	windowHops  float64
	shortest    stats.Tally
	deflections stats.Tally
}

// Run simulates deflection routing. Every packet enters the collector when
// it is generated and leaves it when it is delivered or dropped; it joins
// the network population (group 0) when it leaves its injection queue.
func Run(cfg Config) (*Result, error) {
	cube := hypercube.New(cfg.D)
	n := cube.Nodes()
	d := cfg.D
	dist := workload.NewBitFlip(d, cfg.P)
	rng := xrand.NewStream(cfg.Seed, 0xDEF1)
	srcRNG := make([]*xrand.Rand, n)
	for x := range srcRNG {
		srcRNG[x] = xrand.NewStream(cfg.Seed, uint64(x))
	}
	r := &run{
		cube:       cube,
		col:        new(network.Collector),
		failProb:   cfg.ArcFailProb,
		faultRNG:   xrand.NewStream(cfg.Seed, xrand.StreamFault),
		warmupSlot: int(cfg.WarmupFraction * float64(cfg.Slots)),
	}
	col := r.col
	col.Reset(1, cfg.Measure)

	// at[x] holds the packets present at node x at the start of the slot.
	at := make([][]*packet, n)
	// injection[x] holds generated packets waiting to enter the network.
	injection := make([][]*packet, n)

	var backlog stats.Tally
	var backlogSeries stats.Series
	maxOccupancy := 0

	// Scratch buffers reused across nodes and slots.
	dimUsed := make([]bool, d+1)
	wantDeflect := make([]*packet, 0, d)

	for slot := 0; slot < cfg.Slots; slot++ {
		now := float64(slot)
		if slot == r.warmupSlot {
			col.StartMeasurement(now)
		}
		// 1. Generate new packets (Poisson batch per node per slot) into the
		// injection queues.
		for x := 0; x < n; x++ {
			batch := srcRNG[x].Poisson(cfg.Lambda)
			for k := 0; k < batch; k++ {
				dest := dist.Sample(hypercube.Node(x), srcRNG[x])
				col.CountGenerated()
				col.PacketEntered(now)
				if dest == hypercube.Node(x) {
					// Zero-distance packets are delivered immediately.
					col.Deliver(now, now, 0)
					col.PacketLeft(now)
					if slot >= r.warmupSlot {
						r.shortest.Add(0)
						r.deflections.Add(0)
					}
					continue
				}
				injection[x] = append(injection[x], &packet{dest: dest, genSlot: slot})
			}
		}

		// 2. Admit queued packets while the node holds fewer than d packets
		// (so every present packet is guaranteed an output port).
		for x := 0; x < n; x++ {
			for len(injection[x]) > 0 && len(at[x]) < d {
				p := injection[x][0]
				copy(injection[x], injection[x][1:])
				injection[x][len(injection[x])-1] = nil
				injection[x] = injection[x][:len(injection[x])-1]
				at[x] = append(at[x], p)
				col.GroupPopulationAdd(0, now, 1)
			}
		}

		// Record occupancy statistics.
		queued := 0
		for x := 0; x < n; x++ {
			queued += len(injection[x])
			if len(at[x]) > maxOccupancy {
				maxOccupancy = len(at[x])
			}
			if len(at[x]) > d {
				return nil, fmt.Errorf("deflection: node %d holds %d > d packets", x, len(at[x]))
			}
		}
		if slot >= r.warmupSlot {
			backlog.Add(float64(queued))
			backlogSeries.AddPoint(now, float64(queued))
		}

		// 3. Assign output ports node by node and move the packets.
		r.next = make([][]*packet, n)
		r.now = now + 1
		for x := 0; x < n; x++ {
			pkts := at[x]
			if len(pkts) == 0 {
				continue
			}
			if slot >= r.warmupSlot {
				r.windowHops += float64(len(pkts))
			}
			for m := 1; m <= d; m++ {
				dimUsed[m] = false
			}
			wantDeflect = wantDeflect[:0]
			// Random service order keeps the assignment fair.
			rng.Shuffle(len(pkts), func(i, j int) { pkts[i], pkts[j] = pkts[j], pkts[i] })
			// First pass: give each packet a profitable free dimension.
			for _, p := range pkts {
				assigned := false
				diff := uint32(hypercube.Node(x) ^ p.dest)
				for m := 1; m <= d; m++ {
					if diff&(1<<uint(m-1)) != 0 && !dimUsed[m] {
						dimUsed[m] = true
						r.moveOne(x, m, p, false)
						assigned = true
						break
					}
				}
				if !assigned {
					wantDeflect = append(wantDeflect, p)
				}
			}
			// Second pass: deflect the rest onto arbitrary free dimensions.
			for _, p := range wantDeflect {
				placed := false
				for m := 1; m <= d; m++ {
					if !dimUsed[m] {
						dimUsed[m] = true
						r.moveOne(x, m, p, true)
						placed = true
						break
					}
				}
				if !placed {
					return nil, fmt.Errorf("deflection: no free port at node %d with %d packets", x, len(pkts))
				}
			}
		}
		at = r.next
	}

	return &Result{
		Metrics: col.Snapshot(float64(cfg.Slots), []int{d * n},
			[]float64{r.windowHops}, []float64{r.windowHops}),
		Collector:             col,
		MeanShortest:          r.shortest.Mean(),
		MeanDeflections:       r.deflections.Mean(),
		MeanInjectionBacklog:  backlog.Mean(),
		InjectionBacklogSlope: backlogSeries.LinearSlope(),
		MaxNodeOccupancy:      maxOccupancy,
	}, nil
}

// moveOne advances packet p from node x along dimension m. The hop completes
// at the end of the slot, so a packet delivered in slot s has spent
// s+1-genSlot slots in the system. With a positive failProb each hop
// transmission draws once from the fault stream and may drop the packet —
// including on its final hop, matching the store-and-forward kernel's
// per-completion fault semantics.
func (r *run) moveOne(x, m int, p *packet, deflected bool) {
	to := r.cube.Flip(hypercube.Node(x), hypercube.Dimension(m))
	p.hops++
	if deflected {
		p.deflections++
	}
	gen := float64(p.genSlot)
	switch {
	case r.failProb > 0 && r.faultRNG.Float64() < r.failProb:
		r.col.Drop(gen, false)
	case to == p.dest:
		r.col.Deliver(r.now, gen, p.hops)
		if p.genSlot >= r.warmupSlot {
			// Every deflection moves the packet one step away from its
			// destination and must be undone by an extra profitable step,
			// so the original Hamming distance is hops - 2*deflections.
			r.shortest.Add(float64(p.hops - 2*p.deflections))
			r.deflections.Add(float64(p.deflections))
		}
	default:
		r.next[to] = append(r.next[to], p)
		return
	}
	r.col.PacketLeft(r.now)
	r.col.GroupPopulationAdd(0, r.now, -1)
}
