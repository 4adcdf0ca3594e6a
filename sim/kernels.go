// The store-and-forward runner. Every hypercube and butterfly scenario —
// the paper's unit-service FIFO arcs under Poisson or §3.4 slotted arrivals,
// plus the RandomOrder ablation — normalizes to one storeForward config and
// runs through one pooled runner on one of two kernels: the slot-stepped
// kernel (internal/slotsim) or the event-driven calendar (internal/des +
// internal/network). The topologies differ only in the config's netShape
// (arc, group and source counts, route mode, destination distribution) and
// in the runner's traffic sampler, which both kernels call directly: the
// slot kernel through its Traffic/DestSampler/BatchSampler interfaces, the
// event-driven sources through AppendRoute. Both consume the destination and
// routing streams in the same order, which is what the cross-kernel golden
// tests pin.

package sim

import (
	"sync"

	"repro/internal/butterfly"
	"repro/internal/des"
	"repro/internal/hypercube"
	"repro/internal/network"
	"repro/internal/routing"
	"repro/internal/slotsim"
	"repro/internal/stats"
	"repro/internal/workload"
	"repro/internal/xrand"
)

// Kernel identifiers reported in Result.Kernel.
const (
	// KernelEventDriven is the general discrete-event calendar
	// (internal/des + internal/network).
	KernelEventDriven = "event-driven"
	// KernelSlotStepped is the synchronous unit-service fast path
	// (internal/slotsim).
	KernelSlotStepped = "slot-stepped"
	// KernelDeflection is the slotted bufferless hot-potato kernel
	// (internal/deflection), selected by Scenario.Router == Deflection.
	KernelDeflection = "deflection-slotted"
)

// storeForwardKernel chooses the kernel of a hypercube or butterfly scenario;
// normalization calls it once and the choice travels in the config. Unit
// service on FIFO arcs makes service completions a monotone stream under
// both arrival models — the §3.4 slot clock and continuous-time Poisson
// arrivals — and randomized routers run on stored routes, so exactly two
// things keep a run off the slot-stepped kernel:
//   - the RandomOrder discipline (ablation A2), whose random service order
//     the kernel's FIFO completion ring cannot express;
//   - Scenario.ForceEventDriven, which keeps the event-driven calendar
//     available as the cross-kernel oracle.
func (s *Scenario) storeForwardKernel() string {
	if s.Discipline == FIFO && !s.ForceEventDriven {
		return KernelSlotStepped
	}
	return KernelEventDriven
}

// poissonNodeSources drives the per-node Poisson arrival processes through
// the typed calendar as their superposition: one aggregate Poisson stream of
// rate nodes*lambda whose arrivals pick a uniformly random origin node. By
// Poisson splitting this is exactly the same process in law as N independent
// per-node streams, but it keeps a single pending calendar event instead of
// N, samples one exponential per arrival (buffered in bulk by the source via
// xrand.FillExp) and reseeds in place across replications. The slot-stepped
// kernel consumes the identical stream in the identical order, which is what
// the cross-kernel golden tests pin.
type poissonNodeSources struct {
	sim        *des.Simulator
	source     *workload.PoissonSource
	nodes      uint64
	horizon    float64
	sink       *runner
	handler    des.HandlerID
	registered bool
}

// start seeds the aggregate source and schedules the first arrival.
func (d *poissonNodeSources) start(sim *des.Simulator, nodes int, lambda, horizon float64,
	seed uint64, sink *runner) {
	if !d.registered {
		d.handler = sim.RegisterHandler(d)
		d.registered = true
	}
	d.sim, d.nodes, d.horizon, d.sink = sim, uint64(nodes), horizon, sink
	if d.source == nil {
		d.source = workload.NewPoissonSource(float64(nodes)*lambda, seed, 0)
	} else {
		d.source.Reseed(float64(nodes)*lambda, seed, 0)
	}
	if next := d.source.NextArrival(); next <= horizon {
		d.source.Advance()
		sim.ScheduleEventAt(next, d.handler, 0, 0)
	}
}

// HandleEvent fires one arrival: pick the origin node, inject, reschedule.
func (d *poissonNodeSources) HandleEvent(_, _ int32) {
	src := d.source
	node := int32(src.RNG().Uint64n(d.nodes))
	d.sink.injectFrom(node, src.RNG())
	if next := src.NextArrival(); next <= d.horizon {
		src.Advance()
		d.sim.ScheduleEventAt(next, d.handler, 0, 0)
	}
}

// slottedNodeSources drives the §3.4 arrival model on the event calendar: at
// every slot start the network generates a Poisson(nodes*lambda*tau) batch
// whose packets pick uniformly random origin nodes — the splitting-equivalent
// of one Poisson(lambda*tau) batch per node, sampled as one bulk-buffered
// draw (xrand.FillPoisson) instead of N. The tick is a single
// self-rescheduling typed event; like poissonNodeSources the driver is
// reusable across replications.
type slottedNodeSources struct {
	sim        *des.Simulator
	source     *workload.SlottedSource
	nodes      uint64
	tau        float64
	horizon    float64
	sink       *runner
	handler    des.HandlerID
	registered bool
}

func (d *slottedNodeSources) start(sim *des.Simulator, nodes int, lambda, tau, horizon float64,
	seed uint64, sink *runner) {
	if !d.registered {
		d.handler = sim.RegisterHandler(d)
		d.registered = true
	}
	d.sim, d.nodes, d.tau, d.horizon, d.sink = sim, uint64(nodes), tau, horizon, sink
	if d.source == nil {
		d.source = workload.NewSlottedSource(float64(nodes)*lambda, tau, seed, 0)
	} else {
		d.source.Reseed(float64(nodes)*lambda, tau, seed, 0)
	}
	sim.ScheduleEventAt(0, d.handler, 0, 0)
}

// HandleEvent fires one slot tick.
func (d *slottedNodeSources) HandleEvent(_, _ int32) {
	src := d.source
	batch := src.BatchSize()
	for k := 0; k < batch; k++ {
		node := int32(src.RNG().Uint64n(d.nodes))
		d.sink.injectFrom(node, src.RNG())
	}
	next := d.sim.Now() + d.tau
	if next <= d.horizon {
		d.sim.ScheduleEventAt(next, d.handler, 0, 0)
	}
}

// sampler is a topology's packet sampler: the slot kernel's route and
// destination callbacks, which the event-driven sources call too.
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
// topologies' samplers, the event-driven system and sources, and the
// slot-stepped kernel, each built on first use. Runners are pooled per
// worker (sync.Pool), so in steady state a replication performs no setup
// allocations: the topology, the system's arcs and calendar, the kernel
// arena and every RNG are recycled.
type runner struct {
	hyper hypercubeTraffic
	fly   butterflyTraffic
	// traffic is the current run's sampler, one of the two above.
	traffic sampler

	sys     *network.System
	poisson poissonNodeSources
	slotted slottedNodeSources

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

// delayStats is the delay-statistics view both kernels expose
// (network.System and slotsim.Kernel).
type delayStats interface {
	DelayQuantile(q float64) float64
	DelaySample() []float64
	DelaySketch() *stats.DDSketch
}

// run executes c once on its kernel and assembles the result while the
// pooled runner still holds the kernel's delay statistics.
func (c *storeForward) run() *Result {
	r := runners.Get().(*runner)
	defer runners.Put(r)
	r.traffic = r.sampler(c)
	r.traffic.prepare(c)
	if c.Kernel == KernelSlotStepped {
		if r.kernel == nil {
			r.kernel = new(slotsim.Kernel)
		}
		return c.result(r.kernel.Run(c.slotConfig(r.traffic)), r.kernel)
	}
	sys := r.runEventDriven(c)
	return c.result(sys.Snapshot(), sys)
}

// runEventDriven executes c on the des-based calendar.
func (r *runner) runEventDriven(c *storeForward) *network.System {
	cfg := network.Config{
		NumArcs:     c.net.arcs,
		NumGroups:   c.net.groups,
		Discipline:  c.Discipline,
		ServiceTime: 1,
		Seed:        c.Seed,
		Measurement: c.Measure,
	}
	if c.Faults != nil {
		cfg.Faults = *c.Faults
	}
	if r.sys == nil {
		r.sys = network.NewSystem(cfg)
	} else {
		r.sys.Reset(cfg)
	}
	sys := r.sys
	if c.Slotted {
		r.slotted.start(sys.Sim, c.net.sources, c.Lambda, c.Tau, c.Horizon, c.Seed, r)
	} else {
		r.poisson.start(sys.Sim, c.net.sources, c.Lambda, c.Horizon, c.Seed, r)
	}
	sys.Sim.RunUntil(c.WarmupFraction * c.Horizon)
	sys.StartMeasurement()
	sys.Sim.RunUntil(c.Horizon)
	return sys
}

// injectFrom generates one packet on the event-driven path, routed by the
// run's sampler exactly as the slot kernel's stored-route mode routes it.
func (r *runner) injectFrom(node int32, rng *xrand.Rand) {
	p := r.sys.AcquirePacket()
	p.ID = r.sys.NewPacketID()
	p.Path = r.traffic.AppendRoute(node, rng, p.Path[:0])
	r.sys.Inject(p)
}
