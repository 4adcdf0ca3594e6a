// The store-and-forward runner. Every hypercube and butterfly scenario —
// the paper's unit-service arcs under Poisson or §3.4 slotted arrivals, FIFO
// or the RandomOrder ablation — normalizes to one storeForward config and
// runs through one pooled runner on the one store-and-forward kernel,
// internal/slotsim. The topologies differ only in the config's netShape
// (arc, group and source counts, route mode, destination distribution) and
// in the runner's traffic sampler. The kernel draws every arrival's (origin,
// destination) pair in blocks through the sampler's SampleDestBatch, and
// builds stored routes from those pairs through its AppendRoute. The
// reference simulator (internal/oracle) that the tests compare the kernel
// with draws each pair one packet at a time from internal/workload's scalar
// samplers, and its routes from the same AppendRoute.

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

// sampler is a topology's packet sampler: the slot kernel's arrival and
// route callbacks.
type sampler interface {
	slotsim.BatchSampler
	slotsim.Traffic
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
	uniform  uniformPairs
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

// AppendRoute appends the route its router takes from origin to dest,
// drawing any randomness from the private routing stream.
func (t *hypercubeTraffic) AppendRoute(origin, dest uint32, dst []int) []int {
	return t.router.AppendPath(dst, t.cube, hypercube.Node(origin), hypercube.Node(dest), t.routeRNG)
}

// SampleDestBatch serves the kernel's arrival sampling, one block of at most
// a few hundred arrivals at a time under either arrival model: each pair is
// a uniform origin node and a destination from the scenario's distribution,
// drawn exactly as workload's scalar Sample draws it.
func (t *hypercubeTraffic) SampleDestBatch(rng *xrand.Rand, origins, dests []uint32) {
	if bf, ok := t.dist.(workload.BitFlip); ok && bf.P == 0.5 {
		t.uniform.fill(rng, uint32(t.cube.Nodes()-1), origins, dests)
		return
	}
	nodes := uint64(t.cube.Nodes())
	for i := range origins {
		o := rng.Uint64n(nodes)
		origins[i] = uint32(o)
		dests[i] = uint32(t.dist.Sample(hypercube.Node(o), rng))
	}
}

// uniformPairs samples blocks of uniform-traffic pairs (bit flips with
// p = 1/2 on 2^d origins), the paper's default on both topologies. Each pair
// costs exactly two raw generator words — the origin pick and the flip mask,
// as Uint64n and the scalar samplers draw them on a power of two — so a block
// is one xrand.FillUint64 over 2·n words plus masking, with the scalar
// sequence's sample path.
type uniformPairs struct {
	raw []uint64 // scratch of two words per pair
}

// fill fills origins and dests with uniform pairs on the origins 0..mask.
func (u *uniformPairs) fill(rng *xrand.Rand, mask uint32, origins, dests []uint32) {
	n := len(origins)
	if cap(u.raw) < 2*n {
		u.raw = make([]uint64, 2*n)
	}
	raw := u.raw[:2*n]
	rng.FillUint64(raw)
	for i := range origins {
		o := uint32(raw[2*i]) & mask
		origins[i] = o
		dests[i] = o ^ (uint32(raw[2*i+1]) & mask)
	}
}

// butterflyTraffic samples butterfly packets: destination rows from the
// row bit-flip distribution, and the unique path between the rows.
type butterflyTraffic struct {
	bf      *butterfly.Butterfly
	dist    workload.RowBitFlip
	uniform uniformPairs
}

func (t *butterflyTraffic) prepare(c *storeForward) {
	if t.bf == nil || t.bf.Dimension() != c.Topology.D {
		t.bf = butterfly.New(c.Topology.D)
	}
	t.dist = workload.NewRowBitFlip(c.Topology.D, c.P)
}

// AppendRoute appends the unique path from row origin to row dest. The
// kernel steps that path itself; the reference simulator stores it.
func (t *butterflyTraffic) AppendRoute(origin, dest uint32, dst []int) []int {
	return routing.AppendButterflyPath(dst, t.bf, butterfly.Row(origin), butterfly.Row(dest))
}

// SampleDestBatch serves the kernel's arrival sampling: each pair is a
// uniform first-level row and a destination row drawn exactly as
// workload's scalar SampleRow draws it.
func (t *butterflyTraffic) SampleDestBatch(rng *xrand.Rand, origins, dests []uint32) {
	if t.dist.P == 0.5 {
		t.uniform.fill(rng, uint32(1)<<t.dist.D-1, origins, dests)
		return
	}
	rows := uint64(1) << t.dist.D
	for i := range origins {
		o := rng.Uint64n(rows)
		origins[i] = uint32(o)
		dests[i] = uint32(t.dist.SampleRow(butterfly.Row(o), rng))
	}
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
		Batch:       t,
		MaxBytes:    c.MaxBytes,
		Measurement: c.Measure,
		Discipline:  c.Discipline,
	}
	if c.Faults != nil {
		cfg.Faults = *c.Faults
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
