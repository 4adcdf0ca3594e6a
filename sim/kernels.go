// The store-and-forward runner. Every hypercube and butterfly scenario —
// the paper's unit-service arcs under Poisson or §3.4 slotted arrivals, FIFO
// or the RandomOrder ablation — normalizes to one storeForward config and
// runs through one pooled runner on the one store-and-forward kernel,
// internal/slotsim. The topologies differ only in the config's netShape
// (arc, group and source counts, route mode, destination distribution) and
// in the runner's traffic sampler, which the kernel calls through its
// Traffic/DestSampler/BatchSampler interfaces. The reference simulator
// (internal/oracle) that the tests compare the kernel with draws its routes
// from the same sampler's AppendRoute, one packet at a time.

package sim

import (
	"sync"

	"repro/internal/butterfly"
	"repro/internal/hypercube"
	"repro/internal/routing"
	"repro/internal/slotsim"
	"repro/internal/workload"
	"repro/internal/xrand"
)

// Kernel identifiers reported in Result.Kernel.
const (
	// KernelSlotStepped is the store-and-forward kernel (internal/slotsim).
	KernelSlotStepped = "slot-stepped"
	// KernelDeflection is the slotted bufferless hot-potato kernel
	// (internal/deflection), selected by Scenario.Router == Deflection.
	KernelDeflection = "deflection-slotted"
)

// sampler is a topology's packet sampler: the slot kernel's route and
// destination callbacks.
type sampler interface {
	slotsim.Traffic
	slotsim.DestSampler
	// prepare readies the sampler for a run of c, reseeding any private
	// stream.
	prepare(c *storeForward)
}

// hypercubeTraffic samples hypercube packets: destinations from the
// scenario's distribution, routes from its router on the private routing
// stream.
type hypercubeTraffic struct {
	cube     *hypercube.Cube
	dist     workload.DestinationDist
	router   routing.HypercubeRouter
	routeRNG *xrand.Rand
	rawBuf   []uint64 // bulk-sampling scratch (SampleDestBatch)
}

func (t *hypercubeTraffic) prepare(c *storeForward) {
	if t.cube == nil || t.cube.Dimension() != c.Topology.D {
		t.cube = hypercube.New(c.Topology.D)
	}
	t.dist = c.net.dist
	t.router = c.net.router
	if t.routeRNG == nil {
		t.routeRNG = xrand.NewStream(c.Seed, 0xA11CE)
	} else {
		t.routeRNG.SeedStream(c.Seed, 0xA11CE)
	}
}

// AppendRoute samples a packet's destination and appends its route.
func (t *hypercubeTraffic) AppendRoute(origin int32, rng *xrand.Rand, dst []int) []int {
	dest := t.dist.Sample(hypercube.Node(origin), rng)
	return t.router.AppendPath(dst, t.cube, hypercube.Node(origin), dest, t.routeRNG)
}

// SampleDest serves the kernel's stepped greedy mode, which derives the
// canonical dimension-order arcs arithmetically from (origin, dest); the
// destination stream consumption matches AppendRoute exactly.
func (t *hypercubeTraffic) SampleDest(origin int32, rng *xrand.Rand) uint32 {
	return uint32(t.dist.Sample(hypercube.Node(origin), rng))
}

// SampleDestBatch serves the kernel's bulk arrival sampling, one block of at
// most a few hundred arrivals at a time under either arrival model. For uniform
// traffic (bit-flip with p = 1/2) every packet costs exactly two raw
// generator words — origin pick on 2^d nodes and destination mask — so the
// whole batch is one xrand.FillUint64 over 2·n words plus masking, with a
// sample path identical to the scalar (origin; SampleDest) sequence. Other
// distributions fall back to that scalar sequence per packet, which is still
// a correct BatchSampler: the contract is about stream consumption, not about
// how the words are drawn.
func (t *hypercubeTraffic) SampleDestBatch(rng *xrand.Rand, origins, dests []uint32) {
	n := len(origins)
	if bf, ok := t.dist.(workload.BitFlip); ok && bf.P == 0.5 {
		if cap(t.rawBuf) < 2*n {
			t.rawBuf = make([]uint64, 2*n)
		}
		raw := t.rawBuf[:2*n]
		rng.FillUint64(raw)
		mask := uint32(t.cube.Nodes() - 1)
		for i := 0; i < n; i++ {
			o := uint32(raw[2*i]) & mask
			origins[i] = o
			dests[i] = o ^ (uint32(raw[2*i+1]) & mask)
		}
		return
	}
	nodes := uint64(t.cube.Nodes())
	for i := 0; i < n; i++ {
		node := int32(rng.Uint64n(nodes))
		origins[i] = uint32(node)
		dests[i] = uint32(t.dist.Sample(hypercube.Node(node), rng))
	}
}

// butterflyTraffic samples butterfly packets: destination rows from the
// row bit-flip distribution, and the unique path between the rows.
type butterflyTraffic struct {
	bf   *butterfly.Butterfly
	dist workload.RowBitFlip
}

func (t *butterflyTraffic) prepare(c *storeForward) {
	if t.bf == nil || t.bf.Dimension() != c.Topology.D {
		t.bf = butterfly.New(c.Topology.D)
	}
	t.dist = workload.NewRowBitFlip(c.Topology.D, c.P)
}

// AppendRoute samples a packet's destination row and appends its path.
func (t *butterflyTraffic) AppendRoute(origin int32, rng *xrand.Rand, dst []int) []int {
	dest := t.dist.SampleRow(butterfly.Row(origin), rng)
	return routing.AppendButterflyPath(dst, t.bf, butterfly.Row(origin), dest)
}

// SampleDest serves the kernel's stepped butterfly mode (the unique path is a
// pure function of the origin and destination rows).
func (t *butterflyTraffic) SampleDest(origin int32, rng *xrand.Rand) uint32 {
	return uint32(t.dist.SampleRow(butterfly.Row(origin), rng))
}

// runner holds the reusable state of one store-and-forward run: both
// topologies' samplers and the kernel, each built on first use. Runners are
// pooled per worker (sync.Pool), so in steady state a replication performs
// no setup allocations: the topology, the kernel arena and every RNG are
// recycled.
type runner struct {
	hyper hypercubeTraffic
	fly   butterflyTraffic
	// traffic is the current run's sampler, one of the two above.
	traffic sampler

	kernel *slotsim.Kernel
}

var runners = sync.Pool{New: func() any { return new(runner) }}

// sampler returns the runner's sampler for c's topology, unprepared.
func (r *runner) sampler(c *storeForward) sampler {
	if c.Topology.Kind == TopologyButterfly {
		return &r.fly
	}
	return &r.hyper
}

// slotConfig is the slot kernel's configuration of a run of c whose packets
// t samples. It is the only place that configuration is built: the runner
// runs it, and max_bytes validation prices it with an unprepared sampler.
func (c *storeForward) slotConfig(t sampler) slotsim.Config {
	cfg := slotsim.Config{
		NumArcs:     c.net.arcs,
		NumGroups:   c.net.groups,
		Sources:     c.net.sources,
		MaxHops:     c.net.maxHops,
		Horizon:     c.Horizon,
		Warmup:      c.WarmupFraction * c.Horizon,
		Seed:        c.Seed,
		Lambda:      c.Lambda,
		Slotted:     c.Slotted,
		Tau:         c.Tau,
		Mode:        c.net.mode,
		Traffic:     t,
		Dest:        t,
		MaxBytes:    c.MaxBytes,
		Measurement: c.Measure,
		Discipline:  c.Discipline,
	}
	if c.Faults != nil {
		cfg.Faults = *c.Faults
	}
	if c.net.mode != slotsim.RouteStored {
		// Stepped routes sample arrivals in bulk when the topology's
		// sampler can.
		cfg.Batch, _ = t.(slotsim.BatchSampler)
	}
	return cfg
}

// run executes c once on the kernel and assembles the result while the
// pooled runner still holds the kernel's delay statistics.
func (c *storeForward) run() *Result {
	r := runners.Get().(*runner)
	defer runners.Put(r)
	r.traffic = r.sampler(c)
	r.traffic.prepare(c)
	if r.kernel == nil {
		r.kernel = new(slotsim.Kernel)
	}
	return c.result(r.kernel.Run(c.slotConfig(r.traffic)), r.kernel)
}
