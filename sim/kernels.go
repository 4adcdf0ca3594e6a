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

// DisableFastKernel forces every run onto the event-driven calendar
// regardless of eligibility. It exists for the cross-kernel golden tests and
// for benchmarking the event-driven path; set it only from a single
// goroutine while no simulations are running.
var DisableFastKernel bool

// slotKernelEligible reports whether a store-and-forward run (hypercube or
// butterfly) can use the slot-stepped kernel. Unit service on FIFO arcs makes
// service completions a monotone stream under both arrival models — the §3.4
// slot clock and continuous-time Poisson arrivals — and randomized routers
// run on stored routes, so exactly three things block it:
//   - the RandomOrder discipline (ablation A2), whose random service order
//     the kernel's FIFO completion ring cannot express;
//   - Scenario.ForceEventDriven;
//   - DisableFastKernel.
//
// The last two keep the event-driven calendar available as the cross-kernel
// oracle.
func slotKernelEligible(discipline network.Discipline, forceEventDriven bool) bool {
	return discipline == network.FIFO && !forceEventDriven && !DisableFastKernel
}

// packetSink receives one generated packet; rng is the generating source's
// payload stream, from which the sink samples the destination.
type packetSink interface {
	injectFrom(node int32, rng *xrand.Rand)
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
	sink       packetSink
	handler    des.HandlerID
	registered bool
}

// start seeds the aggregate source and schedules the first arrival.
func (d *poissonNodeSources) start(sim *des.Simulator, nodes int, lambda, horizon float64,
	seed uint64, sink packetSink) {
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
	sink       packetSink
	handler    des.HandlerID
	registered bool
}

func (d *slottedNodeSources) start(sim *des.Simulator, nodes int, lambda, tau, horizon float64,
	seed uint64, sink packetSink) {
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

// kernelFaults is the fault model handed to either kernel's config: the
// resolved plan, or the zero value for a faultless run — runners recycle their
// configs across pooled replications, so the faultless case must clear it.
func kernelFaults(f *network.Faults) network.Faults {
	if f == nil {
		return network.Faults{}
	}
	return *f
}

// runOutcome bundles what result assembly needs from either kernel.
type runOutcome struct {
	m        network.Metrics
	q95, q99 float64
	delays   []float64
	// sketch is the run's delay quantile sketch when the scenario set
	// TailQuantiles (nil otherwise). It is cloned out of the pooled
	// collector, so it stays valid after the runner is recycled.
	sketch *stats.DDSketch
}

// delayStats is the delay-statistics view both kernels expose
// (network.System and slotsim.Kernel).
type delayStats interface {
	DelayQuantile(q float64) float64
	DelaySample() []float64
	DelaySketch() *stats.DDSketch
}

// newOutcome copies a finished run's metrics and delay statistics out of the
// pooled kernel state.
func newOutcome(m network.Metrics, k delayStats, returnDelays bool, sketchAlpha float64) runOutcome {
	out := runOutcome{m: m, q95: k.DelayQuantile(0.95), q99: k.DelayQuantile(0.99)}
	if returnDelays {
		out.delays = append([]float64(nil), k.DelaySample()...)
	}
	if sketchAlpha > 0 {
		out.sketch = k.DelaySketch().Clone()
	}
	return out
}

// hyperRunner holds the reusable simulation state of one hypercube run —
// topology, routing, the event-driven system and sources, and the
// slot-stepped kernel. Runners are pooled per worker (sync.Pool), so in
// steady state a replication performs no setup allocations: the cube, the
// system's arcs and calendar, the kernel arena and every RNG are recycled.
type hyperRunner struct {
	cube        *hypercube.Cube
	dist        workload.DestinationDist
	bitflip     workload.BitFlip
	bitflipDist workload.DestinationDist // cached boxing of bitflip
	router      routing.HypercubeRouter
	routeRNG    *xrand.Rand

	// Event-driven state, built on first use.
	sys     *network.System
	netCfg  network.Config
	poisson poissonNodeSources
	slotted slottedNodeSources

	// Slot-stepped state, built on first use.
	kernel  *slotsim.Kernel
	slotCfg slotsim.Config
	rawBuf  []uint64 // bulk-sampling scratch (SampleDestBatch)
}

var hyperRunners = sync.Pool{New: func() any { return new(hyperRunner) }}

// prepare sets up topology, destination distribution and routing for cfg.
func (r *hyperRunner) prepare(cfg *hypercubeConfig) {
	if r.cube == nil || r.cube.Dimension() != cfg.D {
		r.cube = hypercube.New(cfg.D)
	}
	if cfg.CustomWeights != nil {
		r.dist = workload.NewTranslationInvariant(cfg.D, cfg.CustomWeights)
	} else {
		bf := workload.NewBitFlip(cfg.D, cfg.P)
		if r.bitflipDist == nil || r.bitflip != bf {
			r.bitflip = bf
			r.bitflipDist = bf
		}
		r.dist = r.bitflipDist
	}
	r.router = cfg.Router.router()
	if r.routeRNG == nil {
		r.routeRNG = xrand.NewStream(cfg.Seed, 0xA11CE)
	} else {
		r.routeRNG.SeedStream(cfg.Seed, 0xA11CE)
	}
}

// injectFrom generates one packet on the event-driven path.
func (r *hyperRunner) injectFrom(node int32, rng *xrand.Rand) {
	origin := hypercube.Node(node)
	dest := r.dist.Sample(origin, rng)
	p := r.sys.AcquirePacket()
	p.ID = r.sys.NewPacketID()
	p.Origin = int(origin)
	p.Dest = int(dest)
	p.Path = r.router.AppendPath(p.Path[:0], r.cube, origin, dest, r.routeRNG)
	r.sys.Inject(p)
}

// AppendRoute generates one packet route on the slot-stepped path; the
// destination and routing streams are consumed exactly as injectFrom consumes
// them, which the cross-kernel golden tests rely on.
func (r *hyperRunner) AppendRoute(origin int32, rng *xrand.Rand, dst []int) []int {
	dest := r.dist.Sample(hypercube.Node(origin), rng)
	return r.router.AppendPath(dst, r.cube, hypercube.Node(origin), dest, r.routeRNG)
}

// SampleDest serves the kernel's stepped greedy mode, which derives the
// canonical dimension-order arcs arithmetically from (origin, dest); the
// destination stream consumption matches injectFrom exactly.
func (r *hyperRunner) SampleDest(origin int32, rng *xrand.Rand) uint32 {
	return uint32(r.dist.Sample(hypercube.Node(origin), rng))
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
func (r *hyperRunner) SampleDestBatch(rng *xrand.Rand, origins, dests []uint32) {
	n := len(origins)
	if bf, ok := r.dist.(workload.BitFlip); ok && bf.P == 0.5 {
		if cap(r.rawBuf) < 2*n {
			r.rawBuf = make([]uint64, 2*n)
		}
		raw := r.rawBuf[:2*n]
		rng.FillUint64(raw)
		mask := uint32(r.cube.Nodes() - 1)
		for i := 0; i < n; i++ {
			o := uint32(raw[2*i]) & mask
			origins[i] = o
			dests[i] = o ^ (uint32(raw[2*i+1]) & mask)
		}
		return
	}
	nodes := uint64(r.cube.Nodes())
	for i := 0; i < n; i++ {
		node := int32(rng.Uint64n(nodes))
		origins[i] = uint32(node)
		dests[i] = uint32(r.dist.Sample(hypercube.Node(node), rng))
	}
}

// runEventDriven executes cfg on the des-based calendar.
func (r *hyperRunner) runEventDriven(cfg *hypercubeConfig) runOutcome {
	r.prepare(cfg)
	r.netCfg.NumArcs = r.cube.NumArcs()
	r.netCfg.NumGroups = cfg.D
	r.netCfg.Discipline = cfg.Discipline
	r.netCfg.ServiceTime = 1
	r.netCfg.Seed = cfg.Seed
	r.netCfg.SkipGroupPopulation = cfg.SkipPerDimensionStats
	r.netCfg.Faults = kernelFaults(cfg.Faults)
	if r.sys == nil {
		r.netCfg.GroupOf = func(a int) int { return int(r.cube.DimensionOfArcIndex(a)) - 1 }
		r.sys = network.NewSystem(r.netCfg)
	} else {
		r.sys.Reset(r.netCfg)
	}
	sys := r.sys
	if cfg.TrackQuantiles {
		sys.EnableDelaySample()
	}
	if cfg.SketchAlpha > 0 {
		sys.EnableDelaySketch(cfg.SketchAlpha)
	}
	if cfg.TrackPerDimensionWait {
		sys.EnablePerHopWait()
	}
	if cfg.PopulationTraceInterval > 0 {
		sys.EnablePopulationTrace(cfg.PopulationTraceInterval)
	}
	if cfg.Slotted {
		r.slotted.start(sys.Sim, r.cube.Nodes(), cfg.Lambda, cfg.Tau, cfg.Horizon, cfg.Seed, r)
	} else {
		r.poisson.start(sys.Sim, r.cube.Nodes(), cfg.Lambda, cfg.Horizon, cfg.Seed, r)
	}
	warmup := cfg.WarmupFraction * cfg.Horizon
	sys.Sim.RunUntil(warmup)
	sys.StartMeasurement()
	sys.Sim.RunUntil(cfg.Horizon)
	return newOutcome(sys.Snapshot(), sys, cfg.TrackQuantiles && cfg.ReturnDelays, cfg.SketchAlpha)
}

// runSlotStepped executes cfg on the slot-stepped kernel, under either
// arrival model.
func (r *hyperRunner) runSlotStepped(cfg *hypercubeConfig) runOutcome {
	r.prepare(cfg)
	if r.kernel == nil {
		r.kernel = new(slotsim.Kernel)
	}
	r.slotCfg.NumArcs = r.cube.NumArcs()
	r.slotCfg.NumGroups = cfg.D // arc = (dim-1)·2^d + node: one block of 2^d arcs per dimension
	r.slotCfg.Sources = r.cube.Nodes()
	r.slotCfg.MaxHops = 2 * cfg.D // Valiant routes use up to 2d hops
	r.slotCfg.Horizon = cfg.Horizon
	r.slotCfg.Warmup = cfg.WarmupFraction * cfg.Horizon
	r.slotCfg.Seed = cfg.Seed
	r.slotCfg.Lambda = cfg.Lambda
	r.slotCfg.Slotted = cfg.Slotted
	r.slotCfg.Tau = cfg.Tau
	// The canonical dimension-order path is a pure function of
	// (origin, dest), so the kernel steps it arithmetically; randomized
	// routers need materialized routes.
	if cfg.Router == GreedyDimensionOrder {
		r.slotCfg.Mode = slotsim.RouteHypercubeGreedy
		r.slotCfg.Batch = r // bulk arrival sampling (stepped greedy only)
	} else {
		r.slotCfg.Mode = slotsim.RouteStored
		r.slotCfg.Batch = nil
	}
	r.slotCfg.Traffic = r
	r.slotCfg.Dest = r
	r.slotCfg.MaxBytes = cfg.MaxBytes
	r.slotCfg.TrackQuantiles = cfg.TrackQuantiles
	r.slotCfg.SketchAlpha = cfg.SketchAlpha
	r.slotCfg.TrackPerHopWait = cfg.TrackPerDimensionWait
	r.slotCfg.SkipGroupPopulation = cfg.SkipPerDimensionStats
	r.slotCfg.TraceInterval = cfg.PopulationTraceInterval
	r.slotCfg.Faults = kernelFaults(cfg.Faults)
	return newOutcome(r.kernel.Run(r.slotCfg), r.kernel, cfg.TrackQuantiles && cfg.ReturnDelays, cfg.SketchAlpha)
}

// butterflyRunner is the butterfly counterpart of hyperRunner.
type butterflyRunner struct {
	bf   *butterfly.Butterfly
	dist workload.RowBitFlip

	sys     *network.System
	netCfg  network.Config
	poisson poissonNodeSources

	kernel  *slotsim.Kernel
	slotCfg slotsim.Config
}

var butterflyRunners = sync.Pool{New: func() any { return new(butterflyRunner) }}

func (r *butterflyRunner) prepare(cfg *butterflyConfig) {
	if r.bf == nil || r.bf.Dimension() != cfg.D {
		r.bf = butterfly.New(cfg.D)
	}
	r.dist = workload.NewRowBitFlip(cfg.D, cfg.P)
}

// groupOfArc groups arcs as (level-1)*2 + kind so per-level and per-kind
// statistics can both be recovered.
func (r *butterflyRunner) groupOfArc(a int) int {
	level := int(r.bf.LevelOfArcIndex(a)) - 1
	kind := 0
	if r.bf.KindOfArcIndex(a) == butterfly.Vertical {
		kind = 1
	}
	return level*2 + kind
}

func (r *butterflyRunner) injectFrom(node int32, rng *xrand.Rand) {
	origin := butterfly.Row(node)
	dest := r.dist.SampleRow(origin, rng)
	p := r.sys.AcquirePacket()
	p.ID = r.sys.NewPacketID()
	p.Origin = int(origin)
	p.Dest = int(dest)
	p.Path = routing.AppendButterflyPath(p.Path[:0], r.bf, origin, dest)
	r.sys.Inject(p)
}

func (r *butterflyRunner) AppendRoute(origin int32, rng *xrand.Rand, dst []int) []int {
	dest := r.dist.SampleRow(butterfly.Row(origin), rng)
	return routing.AppendButterflyPath(dst, r.bf, butterfly.Row(origin), dest)
}

// SampleDest serves the kernel's stepped butterfly mode (the unique path is a
// pure function of the origin and destination rows).
func (r *butterflyRunner) SampleDest(origin int32, rng *xrand.Rand) uint32 {
	return uint32(r.dist.SampleRow(butterfly.Row(origin), rng))
}

func (r *butterflyRunner) runEventDriven(cfg *butterflyConfig) runOutcome {
	r.prepare(cfg)
	r.netCfg.NumArcs = r.bf.NumArcs()
	r.netCfg.NumGroups = 2 * cfg.D
	r.netCfg.Discipline = cfg.Discipline
	r.netCfg.ServiceTime = 1
	r.netCfg.Seed = cfg.Seed
	// The butterfly results never read per-group populations; skip them on
	// both kernels (cross-kernel identity requires the settings to match).
	r.netCfg.SkipGroupPopulation = true
	r.netCfg.Faults = kernelFaults(cfg.Faults)
	if r.sys == nil {
		r.netCfg.GroupOf = r.groupOfArc
		r.sys = network.NewSystem(r.netCfg)
	} else {
		r.sys.Reset(r.netCfg)
	}
	sys := r.sys
	if cfg.TrackQuantiles {
		sys.EnableDelaySample()
	}
	if cfg.SketchAlpha > 0 {
		sys.EnableDelaySketch(cfg.SketchAlpha)
	}
	if cfg.PopulationTraceInterval > 0 {
		sys.EnablePopulationTrace(cfg.PopulationTraceInterval)
	}
	r.poisson.start(sys.Sim, r.bf.Rows(), cfg.Lambda, cfg.Horizon, cfg.Seed, r)
	warmup := cfg.WarmupFraction * cfg.Horizon
	sys.Sim.RunUntil(warmup)
	sys.StartMeasurement()
	sys.Sim.RunUntil(cfg.Horizon)
	return newOutcome(sys.Snapshot(), sys, cfg.TrackQuantiles && cfg.ReturnDelays, cfg.SketchAlpha)
}

func (r *butterflyRunner) runSlotStepped(cfg *butterflyConfig) runOutcome {
	r.prepare(cfg)
	if r.kernel == nil {
		r.kernel = new(slotsim.Kernel)
	}
	r.slotCfg.NumArcs = r.bf.NumArcs()
	r.slotCfg.NumGroups = 2 * cfg.D // groupOfArc's blocks: arc = ((level-1)·2 + kind)·2^d + row
	r.slotCfg.Sources = r.bf.Rows()
	r.slotCfg.Horizon = cfg.Horizon
	r.slotCfg.Warmup = cfg.WarmupFraction * cfg.Horizon
	r.slotCfg.Seed = cfg.Seed
	r.slotCfg.Lambda = cfg.Lambda
	r.slotCfg.Slotted = false
	r.slotCfg.Tau = 0
	r.slotCfg.Mode = slotsim.RouteButterfly
	r.slotCfg.Dest = r
	r.slotCfg.MaxBytes = cfg.MaxBytes
	r.slotCfg.TrackQuantiles = cfg.TrackQuantiles
	r.slotCfg.SketchAlpha = cfg.SketchAlpha
	r.slotCfg.TrackPerHopWait = false
	r.slotCfg.SkipGroupPopulation = true
	r.slotCfg.TraceInterval = cfg.PopulationTraceInterval
	r.slotCfg.Faults = kernelFaults(cfg.Faults)
	return newOutcome(r.kernel.Run(r.slotCfg), r.kernel, cfg.TrackQuantiles && cfg.ReturnDelays, cfg.SketchAlpha)
}
