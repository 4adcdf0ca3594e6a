// Package slotsim is the store-and-forward kernel for unit-service FIFO
// workloads: every FIFO hypercube run — the paper's continuous-time Poisson
// model as well as the slotted model of §3.4 — and every FIFO butterfly. On
// these workloads every transmission takes exactly one time unit, so the
// general event calendar of internal/des — heap pushes, handler dispatch,
// cancellation slots — is pure overhead: the only event sources are the slot
// clock (or the aggregate Poisson arrival stream) and a single monotone
// stream of service completions. The event-driven calendar remains the
// cross-kernel oracle and runs only the RandomOrder discipline.
//
// # Memory layout: structure of arrays, sized for the million-node regime
//
// All kernel state is stored as flat parallel arrays (structure of arrays),
// so a d = 20 hypercube — 2^20 nodes, d·2^d ≈ 21M arcs — fits in a few GiB
// and a hop touches a handful of cache lines:
//
//   - Arc state is two parallel arrays indexed by arc (queue tail, busy
//     time), 12 bytes per arc. Neither the queue head nor the packet in
//     service is stored per arc: while a completion is pending for an arc,
//     its record carries the packet in service — the head of the arc's
//     queue — and the service's start. An arc whose head waits for an
//     outage to end is marked in a stalled bitset and keeps that head in a
//     per-arc head array, both allocated only when the run has outages;
//     finite buffers add a count of the waiting packets.
//     Statistics groups are contiguous power-of-two blocks of arcs
//     (network.GroupShift, the layout both topologies' arc indices have
//     and both kernels use), so no arc stores a group id, and arrivals are
//     counted per group, not per arc. There is no per-arc queue buffer:
//     queue memory scales with the in-flight population, not with the arc
//     count.
//   - Packets live in a pooled slab of parallel arrays (generation time,
//     bit-packed route state, hop counters, queue link), 24 bytes per packet,
//     plus 4 for the route-slab slot with stored routes.
//     A packet keeps one pool slot for its whole life; per-arc FIFO queues
//     are intrusive linked lists threaded through the pool's link array, so
//     a hop writes an index instead of copying a record.
//   - Hypercube greedy routes are never materialised: the route state is the
//     XOR difference mask packed next to the current node in one uint64, and
//     each hop resolves the lowest unresolved dimension with
//     bits.TrailingZeros64 and clears it with a single XOR. Butterfly routes
//     step the unique path the same way; only randomized routers store routes
//     (in a fixed-stride slab referenced by packet-held slots).
//   - Service completions form a flat FIFO ring of (service start, arc,
//     packet) records; a record falls due one time unit after its start, and
//     the pending records are exactly the busy arcs. A completion thus finds
//     its packet without a per-arc load. The hop steps — the greedy
//     arc step, head pop, service start and ring push — are small enough
//     for the compiler to inline into the completion handler.
//
// # The continuous-time hop path
//
// In continuous mode the state is small enough to stay in cache, so the cost
// of a hop is its mispredicted branches. Completions due strictly before the
// pending arrival, the next outage boundary, the horizon and (until
// measurement starts) the warm-up instant drain in a tight loop, without the
// event merge. Joining a queue and restarting an arc take the same path as
// in slotted runs.
//
// Arrival sampling is batched: when Config.Batch is set in a stepped route
// mode, (origin, destination) pairs are drawn in bulk (backed by
// xrand.FillUint64) with no per-packet sampler dispatch, in blocks of at most
// prefetchPairs — a slot's Poisson(N·λ·τ) batch block by block in slotted
// mode (at 2^20 nodes the dominant per-tick work), and blocks of upcoming
// arrivals in continuous mode — so the sampling scratch never grows with the
// batch.
//
// Config.MaxBytes puts an explicit budget on all of this: EstimateBytes
// prices the arc-indexed arrays up front (the deterministic, dominant term),
// reset refuses configurations that cannot fit, and every growth of the
// dynamic pools re-checks the budget so a run fails loudly with a diagnostic
// instead of dying to the OOM killer. Before a slot tick injects its batch,
// the packet pool and the completion ring grow once, straight to the size
// their doubling would reach for the live population plus the batch, instead
// of doubling packet by packet.
//
// There is no handler indirection and no per-event allocation; once the pool,
// rings and sample buffers have grown to their steady-state size, a whole
// replication — per-replication setup included, since a pooled kernel
// (sim reuses one per worker via sync.Pool) reseeds rather than
// reconstructs — performs zero allocations. Only the Metrics snapshot handed
// to the caller is freshly allocated, because the caller owns it.
//
// # Event-order equivalence with the event-driven calendar
//
// Results are pinned to the des-based path exactly, not statistically: for
// any eligible configuration the kernel fires the same events at the same
// (bit-identical) times in the same order, performs the same statistics
// updates in the same order against the shared network.Collector, and
// consumes the same random streams in the same per-stream order, so every
// metric — per-packet delays included — is byte-identical to the event-driven
// kernel on the same seed. The ordering argument:
//
//   - The des calendar fires simultaneous events in schedule (sequence)
//     order.
//   - Slotted mode: every service starts at a slot instant and completes one
//     unit later, so completion due-times are non-decreasing in scheduling
//     order — a FIFO ring replays them exactly. A slot tick at time t is
//     scheduled at the end of the previous tick's handler, after every
//     service start that can complete at t, so at equal times completions
//     precede the tick; the kernel hard-codes that rule.
//   - Continuous mode (aggregate Poisson arrivals): completions still form a
//     monotone FIFO stream. On the des calendar a completion and the single
//     pending arrival that fall due at the same instant (measure zero, but
//     possible in floating point) fire in the order they were scheduled. The
//     kernel records how many completions had been pushed when the arrival
//     was scheduled; since the ring pops in push order, the head completion
//     was scheduled first exactly when fewer completions than that have been
//     popped — so even exact time ties break identically.
//     Prefetching arrival pairs (Config.Batch) reorders draws only across
//     random streams, never within one.
package slotsim

import (
	"fmt"
	"math/bits"

	"repro/internal/network"
	"repro/internal/stats"
	"repro/internal/workload"
	"repro/internal/xrand"
)

// Traffic samples a packet's destination and appends its arc-index route.
// Implementations are provided by sim (hypercube routing schemes,
// the unique butterfly path); they must consume rng (the aggregate source's
// payload stream) and any private routing stream exactly as the event-driven
// path does, because stream consumption order is part of the cross-kernel
// contract.
type Traffic interface {
	// AppendRoute appends the route of a new packet from origin to dst and
	// returns the extended slice. dst has the kernel's MaxHops capacity;
	// routes must not exceed it.
	AppendRoute(origin int32, rng *xrand.Rand, dst []int) []int
}

// DestSampler draws a packet's destination identity (hypercube node or
// butterfly row) for the stepped route modes, consuming rng exactly as the
// event-driven path's destination sampling does.
type DestSampler interface {
	SampleDest(origin int32, rng *xrand.Rand) uint32
}

// BatchSampler bulk-samples a block of arrivals' origins and destinations
// for the stepped route modes. Implementations must consume rng exactly as
// len(origins) successive (uniform origin pick; DestSampler.SampleDest) pairs
// would — stream consumption order is part of the cross-kernel contract — but
// are free to draw the underlying uniform words in bulk (xrand.FillUint64)
// when each pair costs exactly two raw draws, as it does for uniform traffic
// on 2^d sources.
type BatchSampler interface {
	SampleDestBatch(rng *xrand.Rand, origins, dests []uint32)
}

// RouteMode selects how the kernel derives per-hop arc indices.
type RouteMode int

const (
	// RouteStored materializes every route into the flat route slab via
	// Traffic.AppendRoute — the general mode, needed for randomized
	// hypercube routers whose paths depend on a routing stream.
	RouteStored RouteMode = iota
	// RouteHypercubeGreedy steps the canonical dimension-order path
	// arithmetically: the packet state is (current node, remaining
	// difference mask) bit-packed in one uint64, and the next arc is
	// tz(mask)*2^d + node — no stored route, no per-hop memory load.
	// Identical arc-for-arc to routing.DimensionOrder.AppendPath.
	RouteHypercubeGreedy
	// RouteButterfly steps the unique butterfly path: at hop h the packet
	// crosses (row; h+1; s/v), vertical exactly when row and destination
	// differ in bit h. Identical arc-for-arc to routing.AppendButterflyPath.
	RouteButterfly
)

// Config describes one kernel run. Service time is fixed at 1 (the paper's
// unit transmission time); that assumption is what makes the completion
// stream monotone.
type Config struct {
	// NumArcs is the number of servers (arcs) in the network.
	NumArcs int
	// NumGroups is the number of statistics groups, laid out as
	// network.GroupShift describes: contiguous power-of-two blocks of arcs.
	// With NumGroups <= 1 every arc is in group 0, for any NumArcs.
	NumGroups int
	// Sources is the number of traffic sources (hypercube nodes or butterfly
	// first-level rows); arrivals of the aggregate stream pick one uniformly.
	Sources int
	// MaxHops is the per-packet route capacity (the route-slab stride).
	MaxHops int
	// Horizon is the simulated time span; Warmup is the absolute time at
	// which measurement starts (events at exactly Warmup still precede it,
	// matching des.RunUntil semantics).
	Horizon, Warmup float64
	// Seed drives all randomness; the aggregate source's streams are derived
	// exactly as the event-driven drivers derive them.
	Seed uint64
	// Lambda is the per-source generation rate (the aggregate stream runs at
	// Sources*Lambda).
	Lambda float64
	// Slotted selects the §3.4 slot-clock arrival model with slot length Tau;
	// otherwise arrivals form a continuous-time Poisson stream.
	Slotted bool
	// Tau is the slot length in slotted mode (0 < Tau <= 1).
	Tau float64
	// Mode selects stored or stepped routing.
	Mode RouteMode
	// Traffic builds packet routes; required in RouteStored mode.
	Traffic Traffic
	// Dest samples destinations; required in the stepped route modes.
	Dest DestSampler
	// Batch, when non-nil, bulk-samples arrivals' (origin, dest) pairs
	// instead of dispatching Dest per packet, in blocks of at most
	// prefetchPairs: a slot batch block by block under slotted arrivals, the
	// upcoming arrivals under continuous ones. Used only by the stepped route
	// modes; it must produce exactly the (origin, dest) sequence the scalar
	// path would, however the sequence is cut into blocks.
	Batch BatchSampler
	// MaxBytes caps the kernel's memory: reset panics when the pre-run
	// estimate (EstimateBytes) exceeds it, and every growth of the dynamic
	// pools re-checks it. Zero disables the budget. Callers that want a
	// clean error instead of a panic validate with EstimateBytes first
	// (sim.Scenario.MaxBytes does).
	MaxBytes int64
	// Measurement selects the optional measurements, as for the event-driven
	// kernel; the settings must match for cross-kernel identity.
	network.Measurement
	// Faults is the fault model, with exactly the event-driven kernel's
	// semantics and fault-stream consumption (see network.Faults). Finite
	// buffers disable the batched population updates, because an
	// injection-time drop breaks the monotone down-then-up order within a
	// slot instant that batching relies on.
	network.Faults
}

// transition is one flattened outage boundary. The list is built in
// (From, Until) pairs over the sorted, non-overlapping Config.Outages, which
// makes it time-ordered with ends preceding starts at equal times — exactly
// the (time, sequence) order in which the event-driven calendar fires the
// outage events it schedules during configuration.
type transition struct {
	at     float64
	outage int32
	start  bool
}

// Per-element sizes of the structure-of-arrays storage, in bytes. They are
// the coefficients of EstimateBytes and of the growth-time budget checks.
const (
	arcBytes      = 4 + 8         // aTail+aBusyTime
	groupBytes    = 8 + 8 + 8 + 8 // gArrivals + snapshot scratch, per group
	pktBytes      = 8 + 8 + 4 + 4 // pGen+pUV+pAux+pNext
	pktWaitBytes  = 8             // pEnqAt, only with per-hop waits
	pktSlotBytes  = 4             // pSlot, only with stored routes
	compBytes     = 16            // one completion record: 8+4+4
	poolChunk     = 256           // initial packet-pool capacity (slots)
	compChunk     = 64            // initial completion-ring capacity
	prefetchPairs = 256           // arrival sampling block (pairs)
	pairBytes     = 4 + 4         // batchOrigins+batchDests
)

// completion is one pending service completion in the ring: the service of
// pool slot pkt on arc started at start and falls due at start+1, recomputed
// at each comparison. That sum is the time the event-driven calendar
// schedules the completion at, so the two kernels order events alike.
type completion struct {
	start    float64
	arc, pkt int32
}

// EstimateBytes returns the kernel's pre-run memory estimate for cfg: the
// arc-indexed arrays — the deterministic term that dominates at scale (a
// d = 20 hypercube has d·2^d ≈ 21M arcs) — plus the initial capacities of the
// dynamically growing packet pool and completion ring. The dynamic structures
// grow with the in-flight population, and every growth re-checks
// Config.MaxBytes, so the estimate is a floor, not a ceiling; it is what
// sim's max_bytes validation prices before a run starts.
func EstimateBytes(cfg Config) int64 {
	est := arcTermBytes(cfg) + poolChunk*cfg.pktSize() + compChunk*compBytes
	if cfg.prefetch() {
		est += prefetchPairs * pairBytes
	}
	if len(cfg.Outages) > 0 {
		est += int64(2*len(cfg.Outages)) * 16 // transitions
	}
	return est + int64(max(cfg.NumGroups, 1))*groupBytes
}

// arcTermBytes is EstimateBytes' arc-indexed term: the per-arc arrays, plus
// the stalled-head array and the down and stalled bitsets of a run with
// outages.
func arcTermBytes(cfg Config) int64 {
	perArc := int64(arcBytes)
	if cfg.BufferCapacity > 0 {
		perArc += 4 // aQLen
	}
	var bitsets int64
	if len(cfg.Outages) > 0 {
		perArc += 4                                  // aHead
		bitsets = 2 * int64((cfg.NumArcs+63)/64) * 8 // downWords + stalled
	}
	return int64(cfg.NumArcs)*perArc + bitsets
}

// pktSize is the packet pool's size per slot: the per-hop wait and the
// stored-route slot arrays exist only in the runs that use them.
func (cfg *Config) pktSize() int64 {
	b := int64(pktBytes)
	if cfg.TrackPerHopWait {
		b += pktWaitBytes
	}
	if cfg.Mode == RouteStored {
		b += pktSlotBytes
	}
	return b
}

// prefetch reports whether continuous-mode arrivals are sampled in blocks.
// Slotted batches sample through the same block, but only as large as the
// batches they meet; that growth is charged when it happens.
func (cfg *Config) prefetch() bool {
	return cfg.Batch != nil && !cfg.Slotted && cfg.Mode != RouteStored
}

// Kernel is a reusable slot-stepped simulator. The zero value is ready for
// use; Run may be called repeatedly (with differing configs) and reuses all
// internal storage.
type Kernel struct {
	cfg        Config
	col        network.Collector
	trackGrp   bool
	hopWait    bool
	groupShift uint  // group of arc a = a >> groupShift
	bfHops     int32 // butterfly mode: hops per packet (= log2 Sources)

	// Hot copies of config fields, so the per-hop path never reloads the
	// config struct.
	mode     RouteMode
	srcN     int
	maxHops  int
	numArcs  int
	failProb float64
	bufCap   int

	// Fault state. faultRNG is the dedicated transient-fault stream, consumed
	// only when failProb > 0 (exactly one draw per completion). downWords is
	// the down-arc bitset and stalled marks the arcs whose queue head waits
	// for the outage to end instead of being in service; aHead holds that
	// head's pool slot, and is read only for stalled arcs. All three are nil
	// when the run has no outages, so the faultless hot path costs one nil
	// check. trans is the flattened, time-ordered outage boundary list with
	// transNext the next unfired boundary.
	faultRNG  *xrand.Rand
	downWords []uint64
	stalled   []uint64
	aHead     []int32
	trans     []transition
	transNext int

	// Arc state, one entry per arc: the intrusive FIFO queue's tail pool
	// index and the busy-time accumulator, 12 bytes per arc. The head of a
	// non-empty queue is the packet in service — the arc has a pending
	// completion, whose record names it — unless the arc is stalled. The
	// tail index is biased by one — 0 means empty, s+1 means pool slot s —
	// so an all-zero array is a valid initial state and reset needs nothing
	// but resizeZero's clear, which faults every page in by write, once and
	// in order.
	aTail     []int32
	aBusyTime []float64 // service time inside the measurement window
	aQLen     []int32   // waiting packets (an in-service head excluded), only with finite buffers

	// busyFrom is the measurement start (Config.Warmup): a service's busy
	// time counts from max(start, busyFrom), so completions before the
	// warm-up add nothing and startMeasurement needs no per-arc pass.
	busyFrom float64

	// Per-group arrival counts since the measurement start.
	gArrivals []int64

	// Packet pool: parallel arrays indexed by pool slot. A packet occupies
	// one slot from injection to delivery; pNext threads both the per-arc
	// FIFO queues and the free list. Allocation is bump-then-free-list, so
	// reset is O(1) in the pool size.
	pGen     []float64
	pUV      []uint64  // current identity (high 32) | mask or dest row (low 32)
	pAux     []uint32  // hop (high 16) | total hops (low 16)
	pNext    []int32   // queue / free-list link, -1 = end
	pSlot    []int32   // stored-route slab slot, allocated only in RouteStored
	pEnqAt   []float64 // queue-join time, allocated only for per-hop waits
	freeHead int32
	poolBump int32
	live     int // occupied slots

	// Stored-route slab: MaxHops ints per slot, with a slot free list; nil
	// outside RouteStored.
	paths    []int
	pathFree []int32
	numSlots int

	// Completion FIFO: a power-of-two ring indexed by free-running counts of
	// the completions popped (compHead) and pushed (compTail) so far; the
	// pending ones are [compHead, compTail), each at its count & compMask.
	comp     []completion
	compMask uint64
	compHead uint64
	compTail uint64

	// Continuous mode: the single pending aggregate arrival, and the number
	// of completions pushed before it was scheduled (its tie-break mark).
	arrTime    float64
	arrMark    uint64
	arrPending bool

	// Slotted mode: batched population updates (see Collector.
	// PopulationAdjust) — one time-weighted update per slot instant instead
	// of one per packet. Only valid while the population trace is off.
	batchPop bool
	popDelta int64
	popDirty bool

	// Aggregate traffic sources, reseeded in place per run.
	slotSrc *workload.SlottedSource
	poisSrc *workload.PoissonSource

	// Bulk-sampling scratch (Config.Batch): one block of at most
	// prefetchPairs pairs.
	batchOrigins []uint32
	batchDests   []uint32

	// Snapshot scratch.
	snapArcs     []int
	snapBusy     []float64
	snapArrivals []float64
}

// Run executes one replication described by cfg and returns the measurement
// snapshot taken at the horizon. The kernel's internal state is rebuilt from
// cfg, so Run may be called repeatedly with unrelated configurations.
func (k *Kernel) Run(cfg Config) network.Metrics {
	k.reset(cfg)
	if cfg.Slotted {
		k.runSlotted()
	} else {
		k.runContinuous()
	}
	return k.snapshot()
}

// DelayQuantile returns the exact q-quantile of the delays measured by the
// last Run; it requires TrackQuantiles and returns NaN otherwise.
func (k *Kernel) DelayQuantile(q float64) float64 { return k.col.DelayQuantile(q) }

// DelaySample returns the per-packet delays measured by the last Run when
// TrackQuantiles was set; see network.Collector.DelaySample for caveats.
func (k *Kernel) DelaySample() []float64 { return k.col.DelaySample() }

// DelaySketch returns the delay quantile sketch populated by the last Run
// when SketchAlpha was set (nil otherwise); the pointer aliases kernel state,
// so callers that outlive the run must Clone it.
func (k *Kernel) DelaySketch() *stats.DDSketch { return k.col.DelaySketch() }

// reset validates cfg and rebuilds all state in place.
func (k *Kernel) reset(cfg Config) {
	if cfg.NumArcs <= 0 {
		panic(fmt.Sprintf("slotsim: NumArcs must be positive, got %d", cfg.NumArcs))
	}
	if cfg.Sources <= 0 {
		panic(fmt.Sprintf("slotsim: Sources must be positive, got %d", cfg.Sources))
	}
	if cfg.Horizon <= 0 {
		panic(fmt.Sprintf("slotsim: Horizon must be positive, got %v", cfg.Horizon))
	}
	if cfg.Warmup < 0 || cfg.Warmup > cfg.Horizon {
		panic(fmt.Sprintf("slotsim: Warmup %v outside [0, horizon]", cfg.Warmup))
	}
	if cfg.Slotted && (cfg.Tau <= 0 || cfg.Tau > 1) {
		panic(fmt.Sprintf("slotsim: slotted mode requires 0 < tau <= 1, got %v", cfg.Tau))
	}
	switch cfg.Mode {
	case RouteStored:
		if cfg.Traffic == nil {
			panic("slotsim: RouteStored requires Traffic")
		}
		if cfg.MaxHops <= 0 {
			panic(fmt.Sprintf("slotsim: RouteStored requires positive MaxHops, got %d", cfg.MaxHops))
		}
	case RouteHypercubeGreedy, RouteButterfly:
		if cfg.Dest == nil {
			panic("slotsim: stepped route modes require Dest")
		}
		if cfg.Sources&(cfg.Sources-1) != 0 {
			panic(fmt.Sprintf("slotsim: stepped route modes require 2^d sources, got %d", cfg.Sources))
		}
		cfg.MaxHops = 0 // no stored routes
	default:
		panic(fmt.Sprintf("slotsim: unknown route mode %d", cfg.Mode))
	}
	if cfg.NumGroups <= 0 {
		cfg.NumGroups = 1
	}
	k.groupShift = network.GroupShift(cfg.NumArcs, cfg.NumGroups)
	if cfg.MaxBytes > 0 {
		if est := EstimateBytes(cfg); est > cfg.MaxBytes {
			panic(fmt.Sprintf("slotsim: estimated kernel memory %d B exceeds MaxBytes %d (NumArcs=%d; see EstimateBytes)",
				est, cfg.MaxBytes, cfg.NumArcs))
		}
	}
	k.cfg = cfg
	k.trackGrp = !cfg.SkipGroupPopulation
	k.hopWait = cfg.TrackPerHopWait
	k.bfHops = int32(bits.TrailingZeros32(uint32(cfg.Sources)))
	k.mode = cfg.Mode
	k.srcN = cfg.Sources
	k.maxHops = cfg.MaxHops
	k.numArcs = cfg.NumArcs
	k.failProb = cfg.ArcFailProb
	k.bufCap = cfg.BufferCapacity
	if k.faultRNG == nil {
		k.faultRNG = xrand.New(0)
	}
	k.faultRNG.SeedStream(cfg.Seed, xrand.StreamFault)
	k.transNext = 0
	// Every optional array the run does not use is released, so that
	// memFootprint — what MaxBytes is checked against — counts only this
	// run's arrays, whatever a pooled kernel ran before.
	if len(cfg.Outages) > 0 {
		k.downWords = resizeZero(k.downWords, (cfg.NumArcs+63)/64)
		k.stalled = resizeZero(k.stalled, (cfg.NumArcs+63)/64)
		k.aHead = resize(k.aHead, cfg.NumArcs) // written before it is read
		k.trans = k.trans[:0]
		last := 0.0
		for i := range cfg.Outages {
			o := &cfg.Outages[i]
			if o.From < last || o.Until <= o.From {
				panic(fmt.Sprintf("slotsim: outages must be sorted and non-overlapping, got [%v,%v) after %v", o.From, o.Until, last))
			}
			last = o.Until
			k.trans = append(k.trans, transition{o.From, int32(i), true}, transition{o.Until, int32(i), false})
		}
	} else {
		k.downWords, k.stalled, k.aHead, k.trans = nil, nil, nil, nil
	}

	k.aTail = resizeZero(k.aTail, cfg.NumArcs)
	k.aBusyTime = resizeZero(k.aBusyTime, cfg.NumArcs)
	k.busyFrom = cfg.Warmup
	if k.bufCap > 0 {
		k.aQLen = resizeZero(k.aQLen, cfg.NumArcs)
	} else {
		k.aQLen = nil
	}
	k.gArrivals = resizeZero(k.gArrivals, cfg.NumGroups)

	// Packet pool: every slot is free again (bump allocation restarts).
	k.freeHead = -1
	k.poolBump = 0
	k.live = 0
	if k.hopWait {
		k.pEnqAt = resize(k.pEnqAt, len(k.pGen))
	} else {
		k.pEnqAt = nil
	}

	// Stored-route slab: every slot is free again; re-stride for the
	// (possibly changed) MaxHops.
	if cfg.Mode == RouteStored {
		k.pSlot = resize(k.pSlot, len(k.pGen))
		k.pathFree = k.pathFree[:0]
		for i := k.numSlots - 1; i >= 0; i-- {
			k.pathFree = append(k.pathFree, int32(i))
		}
		if need := k.numSlots * cfg.MaxHops; cap(k.paths) >= need {
			k.paths = k.paths[:need]
		} else {
			k.paths = make([]int, need)
		}
	} else {
		k.pSlot, k.paths, k.pathFree, k.numSlots = nil, nil, nil, 0
	}

	if cfg.Batch == nil || cfg.Mode == RouteStored {
		k.batchOrigins, k.batchDests = nil, nil
	}

	k.compHead, k.compTail = 0, 0
	k.arrPending = false
	k.batchPop = cfg.Slotted && cfg.TraceInterval == 0 && cfg.BufferCapacity == 0
	k.popDelta = 0
	k.popDirty = false

	// Aggregate sources, seeded exactly as the event-driven drivers seed
	// theirs: one stream of rate Sources*Lambda whose arrivals pick a
	// uniformly random origin (Poisson superposition/splitting — the same
	// process in law as independent per-node streams).
	rate := float64(cfg.Sources) * cfg.Lambda
	if cfg.Slotted {
		if k.slotSrc == nil {
			k.slotSrc = workload.NewSlottedSource(rate, cfg.Tau, cfg.Seed, 0)
		} else {
			k.slotSrc.Reseed(rate, cfg.Tau, cfg.Seed, 0)
		}
	} else {
		if k.poisSrc == nil {
			k.poisSrc = workload.NewPoissonSource(rate, cfg.Seed, 0)
		} else {
			k.poisSrc.Reseed(rate, cfg.Seed, 0)
		}
		k.scheduleArrival()
	}

	k.col.Reset(cfg.NumGroups, cfg.Measurement)
}

// resize returns s with length n, reusing capacity when possible and
// preserving the existing contents otherwise. The explicit make+copy (rather
// than append with a zeroed tail) keeps growth to a single allocation and a
// single pass over memory — at million-arc sizes the redundant temporary
// would double the first-touch page-fault cost.
func resize[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	ns := make([]T, n)
	copy(ns, s)
	return ns
}

// resizeZero returns a zeroed slice of length n, reusing capacity when
// possible. A fresh allocation is cleared too, although make's pages are
// already zero: the clear writes every page once, in order, so each faults in
// once. Left untouched, the hop path's first access to a page is usually a
// read, which maps the shared zero page, and the write that follows faults
// the page a second time. The price is that a sparse run faults in arc pages
// it never visits; every shipped scale workload is dense, and max_bytes
// already prices the full arrays.
func resizeZero[T any](s []T, n int) []T {
	if cap(s) >= n {
		s = s[:n]
	} else {
		s = make([]T, n)
	}
	clear(s)
	return s
}

// memFootprint sums the capacities of the kernel's long-lived arrays; it is
// the "in use" figure of the growth-time budget checks.
func (k *Kernel) memFootprint() int64 {
	b := k.arcFootprint() + int64(cap(k.gArrivals))*8 + int64(cap(k.trans))*16
	b += k.poolFootprint() + int64(cap(k.comp))*compBytes
	b += int64(cap(k.paths))*8 + int64(cap(k.pathFree))*4
	b += int64(cap(k.batchOrigins))*4 + int64(cap(k.batchDests))*4
	return b
}

// arcFootprint is memFootprint's arc-indexed part, the counterpart of
// arcTermBytes.
func (k *Kernel) arcFootprint() int64 {
	return int64(cap(k.aTail))*4 + int64(cap(k.aBusyTime))*8 + int64(cap(k.aQLen))*4 +
		int64(cap(k.aHead))*4 + int64(cap(k.downWords))*8 + int64(cap(k.stalled))*8
}

// poolFootprint is memFootprint's packet-pool part, the counterpart of
// Config.pktSize.
func (k *Kernel) poolFootprint() int64 {
	return int64(cap(k.pGen))*8 + int64(cap(k.pUV))*8 + int64(cap(k.pAux))*4 +
		int64(cap(k.pNext))*4 + int64(cap(k.pSlot))*4 + int64(cap(k.pEnqAt))*8
}

// fits reports whether growing by extra bytes stays within MaxBytes.
func (k *Kernel) fits(extra int64) bool {
	return k.cfg.MaxBytes <= 0 || k.memFootprint()+extra <= k.cfg.MaxBytes
}

// checkBudget panics when growing `what` by extra bytes would exceed the
// configured MaxBytes. Growth happens mid-run, where no error return exists;
// failing loudly with sizes beats being OOM-killed without one.
func (k *Kernel) checkBudget(what string, extra int64) {
	if !k.fits(extra) {
		panic(fmt.Sprintf("slotsim: memory budget exceeded growing %s: ~%d B in use + %d B needed > MaxBytes %d",
			what, k.memFootprint(), extra, k.cfg.MaxBytes))
	}
}

// grownCap is the capacity that doubling from have (from chunk when have is
// smaller) reaches once it holds need elements.
func grownCap(have, need, chunk int) int {
	c := max(have, chunk)
	for c < need {
		c *= 2
	}
	return c
}

// reserve grows the packet pool, and the completion ring if needed, before a
// slot tick injects n packets: straight to the capacity their doubling would
// reach for the live population plus the batch (every pending completion is
// one busy arc, so the ring never needs more than the arc count). A
// reservation that would break MaxBytes is skipped: the doubling in allocPkt
// and pushCompletion then fails only if the packets really need the room.
func (k *Kernel) reserve(n int) {
	if need := k.live + n; need > len(k.pGen) {
		if c := grownCap(len(k.pGen), need, poolChunk); k.fits(int64(c-len(k.pGen)) * k.cfg.pktSize()) {
			k.growPool(need)
		}
	}
	if need := min(int(k.compTail-k.compHead)+n, k.numArcs); need > len(k.comp) {
		if c := grownCap(len(k.comp), need, compChunk); k.fits(int64(c-len(k.comp)) * compBytes) {
			k.growComp(need)
		}
	}
}

// Next-event kinds of the two main loops.
const (
	evNone = iota
	evTrans
	evComp
	evTick
	evArr
)

// fireTransition applies the next outage boundary at time now: a start marks
// its arcs down; an end marks them up again and — in ascending arc order,
// matching the event-driven handler — restarts the stalled ones, exactly the
// idle arcs with queued work.
func (k *Kernel) fireTransition(now float64) {
	tr := k.trans[k.transNext]
	k.transNext++
	arcs := k.cfg.Outages[tr.outage].Arcs
	if tr.start {
		for _, arc := range arcs {
			k.downWords[uint32(arc)>>6] |= 1 << (uint32(arc) & 63)
		}
		return
	}
	for _, arc := range arcs {
		w, bit := uint32(arc)>>6, uint64(1)<<(uint32(arc)&63)
		k.downWords[w] &^= bit
		if k.stalled[w]&bit != 0 {
			k.stalled[w] &^= bit
			k.makeRoom()
			k.startHead(int(arc), now, k.aHead[arc])
		}
	}
}

// arcDown reports whether arc idx is inside an active outage window; callers
// have checked downWords != nil.
func (k *Kernel) arcDown(idx int) bool {
	return k.downWords[uint32(idx)>>6]>>(uint32(idx)&63)&1 != 0
}

// stall marks arc idx's queue head, pool slot s, as waiting for the outage
// to end.
func (k *Kernel) stall(idx int, s int32) {
	k.aHead[idx] = s
	k.stalled[uint32(idx)>>6] |= 1 << (uint32(idx) & 63)
}

// startHead starts the service of pool slot s, arc idx's queue head, which
// was waiting.
func (k *Kernel) startHead(idx int, now float64, s int32) {
	k.pushCompletion(now, int32(idx), s)
	if k.bufCap > 0 {
		k.aQLen[idx]--
	}
}

// dropPkt discards pool slot s mid-network — a transient transmission fault
// (overflow = false) or a full finite buffer (overflow = true) — mirroring
// System.drop: the packet leaves the population and is counted per cause.
func (k *Kernel) dropPkt(s int32, now float64, overflow bool) {
	k.packetLeft(now)
	k.col.Drop(k.pGen[s], overflow)
	if k.mode == RouteStored {
		k.pathFree = append(k.pathFree, k.pSlot[s])
	}
	k.freePkt(s)
}

// runSlotted advances the slot clock: at every slot instant, outage
// transitions and due completions fire first (in that order), then the tick
// injects the network-wide Poisson batch.
func (k *Kernel) runSlotted() {
	horizon, warmup, tau := k.cfg.Horizon, k.cfg.Warmup, k.cfg.Tau
	tick := 0.0 // next tick time, accumulated exactly like the des driver
	tickPending := true
	measuring := false
	cur := 0.0 // instant the batched population delta accumulated over
	for {
		// Pick the next event among outage transitions, due completions and
		// the slot tick. At equal times transitions fire first (the des path
		// schedules them during configuration, so they hold the lowest
		// sequence numbers), then completions, then the tick: completions
		// due at the tick instant were scheduled no later than the end of
		// the previous tick's handler, which is also where the tick itself
		// was scheduled.
		var next float64
		kind := evNone
		if k.transNext < len(k.trans) {
			next, kind = k.trans[k.transNext].at, evTrans
		}
		if k.compHead != k.compTail {
			if ct := k.comp[k.compHead&k.compMask].start + 1; kind == evNone || ct < next {
				next, kind = ct, evComp
			}
		}
		if tickPending && (kind == evNone || tick < next) {
			next, kind = tick, evTick
		}
		if kind == evNone {
			k.flushPop(cur)
			if !measuring {
				k.startMeasurement(warmup)
			}
			return
		}
		if next > horizon {
			break
		}
		if next != cur {
			k.flushPop(cur)
			cur = next
		}
		if !measuring && next > warmup {
			k.startMeasurement(warmup)
			measuring = true
		}
		switch kind {
		case evTrans:
			k.fireTransition(next)
		case evComp:
			k.complete(k.popCompletion())
		default:
			k.fireTick(tick)
			tick += tau
			tickPending = tick <= horizon
		}
	}
	k.flushPop(cur)
	if !measuring {
		k.startMeasurement(warmup)
	}
}

// runContinuous merges the aggregate arrival stream with the completion
// stream in exact (time, seq) order.
//
// With Config.Batch set in a stepped route mode, the (origin, dest) pairs of
// upcoming arrivals are prefetched in blocks of prefetchPairs. The sample
// path is unchanged: inter-arrival gaps come from the source's separate
// timing stream, and the payload stream feeds nothing but these pairs, so
// drawing them early only reorders draws across streams, never within one.
// Pairs prefetched past the horizon are discarded unused.
func (k *Kernel) runContinuous() {
	horizon, warmup := k.cfg.Horizon, k.cfg.Warmup
	nodes := uint64(k.srcN)
	rng := k.poisSrc.RNG()
	measuring := false
	var origins, dests []uint32
	if k.cfg.prefetch() {
		origins, dests = k.batchBuffers(prefetchPairs, "arrival prefetch buffers")
	}
	pos := len(origins) // index of the next unused prefetched pair; starts drained
	for {
		// Completions due strictly before every other event source fire
		// without the merge: before the pending arrival, the next outage
		// boundary, the horizon and, until measuring, the warm-up instant.
		// Completing only ever pushes later completions, so lim holds for the
		// whole drain; ties and boundary events go through the merge below.
		lim := horizon
		if k.arrPending && k.arrTime < lim {
			lim = k.arrTime
		}
		if k.transNext < len(k.trans) && k.trans[k.transNext].at < lim {
			lim = k.trans[k.transNext].at
		}
		if !measuring && warmup < lim {
			lim = warmup
		}
		for k.compHead != k.compTail {
			c := k.comp[k.compHead&k.compMask]
			if c.start+1 >= lim {
				break
			}
			k.compHead++
			k.complete(int(c.arc), c.start, c.pkt)
		}

		var next float64
		kind := evNone
		switch {
		case k.compHead != k.compTail && k.arrPending:
			ct := k.comp[k.compHead&k.compMask].start + 1
			if ct < k.arrTime || (ct == k.arrTime && k.compHead < k.arrMark) {
				next, kind = ct, evComp
			} else {
				next, kind = k.arrTime, evArr
			}
		case k.compHead != k.compTail:
			next, kind = k.comp[k.compHead&k.compMask].start+1, evComp
		case k.arrPending:
			next, kind = k.arrTime, evArr
		}
		// Outage transitions carry the lowest sequence numbers on the des
		// calendar (scheduled during configuration), so at equal times they
		// precede both completions and arrivals.
		if k.transNext < len(k.trans) {
			if tt := k.trans[k.transNext].at; kind == evNone || tt <= next {
				next, kind = tt, evTrans
			}
		}
		if kind == evNone {
			if !measuring {
				k.startMeasurement(warmup)
			}
			return
		}
		if next > horizon {
			break
		}
		if !measuring && next > warmup {
			k.startMeasurement(warmup)
			measuring = true
		}
		switch kind {
		case evTrans:
			k.fireTransition(next)
		case evComp:
			k.complete(k.popCompletion())
		default:
			t := k.arrTime
			k.arrPending = false
			if origins == nil {
				k.inject(int32(rng.Uint64n(nodes)), rng, t)
			} else {
				if pos == len(origins) {
					k.cfg.Batch.SampleDestBatch(rng, origins, dests)
					pos = 0
				}
				k.injectTo(origins[pos], dests[pos], t)
				pos++
			}
			k.scheduleArrival()
		}
	}
	if !measuring {
		k.startMeasurement(warmup)
	}
}

// fireTick injects the network-wide slot batch at time now; each packet picks
// a uniformly random origin node from the aggregate source's payload stream.
// With a BatchSampler configured the batch's (origin, dest) pairs are drawn
// in bulk, one block of at most prefetchPairs at a time, with no per-packet
// sampler dispatch; the sample path is identical either way, because only
// the sampler reads the payload stream.
func (k *Kernel) fireTick(now float64) {
	src := k.slotSrc
	batch := src.BatchSize()
	rng := src.RNG()
	k.reserve(batch)
	if k.cfg.Batch != nil && k.mode != RouteStored {
		origins, dests := k.batchBuffers(min(batch, prefetchPairs), "slot batch buffers")
		for left := batch; left > 0; left -= len(origins) {
			if left < len(origins) {
				origins, dests = origins[:left], dests[:left]
			}
			k.cfg.Batch.SampleDestBatch(rng, origins, dests)
			for j := range origins {
				k.injectTo(origins[j], dests[j], now)
			}
		}
		return
	}
	nodes := uint64(k.srcN)
	for j := 0; j < batch; j++ {
		node := int32(rng.Uint64n(nodes))
		k.inject(node, rng, now)
	}
}

// batchBuffers returns the bulk-sampling scratch sized to n <= prefetchPairs
// pairs, charging any growth (named what) to the memory budget first. The two
// buffers are always resized together, so they share one capacity.
func (k *Kernel) batchBuffers(n int, what string) (origins, dests []uint32) {
	if cap(k.batchOrigins) < n {
		k.checkBudget(what, int64(n-cap(k.batchOrigins))*pairBytes)
	}
	k.batchOrigins = resize(k.batchOrigins, n)
	k.batchDests = resize(k.batchDests, n)
	return k.batchOrigins, k.batchDests
}

// inject creates one packet at time now; it mirrors network.System.Inject.
func (k *Kernel) inject(node int32, rng *xrand.Rand, now float64) {
	switch k.mode {
	case RouteHypercubeGreedy, RouteButterfly:
		k.injectTo(uint32(node), k.cfg.Dest.SampleDest(node, rng), now)
	default:
		slot := k.allocPathSlot()
		base := int(slot) * k.maxHops
		route := k.cfg.Traffic.AppendRoute(node, rng, k.paths[base:base:base+k.maxHops])
		if len(route) > k.maxHops {
			panic(fmt.Sprintf("slotsim: route of %d hops exceeds MaxHops %d", len(route), k.maxHops))
		}
		if len(route) > 0 && &route[0] != &k.paths[base] {
			// A Traffic implementation that did not append in place still works.
			copy(k.paths[base:base+len(route)], route)
		}
		k.col.CountGenerated()
		if len(route) == 0 {
			k.col.Deliver(now, now, 0, 0)
			k.pathFree = append(k.pathFree, slot)
			return
		}
		k.packetEntered(now)
		s := k.allocPkt()
		k.pGen[s] = now
		k.pUV[s] = 0
		k.pAux[s] = uint32(uint16(len(route)))
		k.pSlot[s] = slot
		k.enqueue(s, k.nextArc(s), now)
	}
}

// injectTo creates one stepped-route packet with a presampled destination
// identity; both the scalar and the bulk injection paths funnel through it.
func (k *Kernel) injectTo(origin, dest uint32, now float64) {
	var uv uint64
	var hops int
	if k.mode == RouteHypercubeGreedy {
		mask := origin ^ dest
		uv = uint64(origin)<<32 | uint64(mask)
		hops = bits.OnesCount32(mask)
	} else {
		uv = uint64(origin)<<32 | uint64(dest)
		hops = int(k.bfHops)
	}
	k.col.CountGenerated()
	if hops == 0 {
		k.col.Deliver(now, now, 0, 0)
		return
	}
	k.packetEntered(now)
	s := k.allocPkt()
	k.pGen[s] = now
	k.pUV[s] = uv
	k.pAux[s] = uint32(hops)
	k.enqueue(s, k.nextArc(s), now)
}

// nextArc returns the arc index of pool slot s's current hop, advancing its
// route state. The stepped arithmetic reproduces the arc indices of
// routing.DimensionOrder.AppendPath and routing.AppendButterflyPath exactly.
func (k *Kernel) nextArc(s int32) int {
	switch k.mode {
	case RouteHypercubeGreedy:
		return k.greedyArc(s)
	case RouteButterfly:
		hop := uint64(k.pAux[s] >> 16)
		uv := k.pUV[s]
		idx := int(hop) * 2 * k.srcN
		if ((uv>>32)^uv)>>hop&1 != 0 {
			idx += k.srcN + int(uv>>32)
			k.pUV[s] = uv ^ (1 << (hop + 32))
		} else {
			idx += int(uv >> 32)
		}
		return idx
	}
	idx := k.paths[int(k.pSlot[s])*k.maxHops+int(k.pAux[s]>>16)]
	if idx < 0 || idx >= k.numArcs {
		panic(fmt.Sprintf("slotsim: route refers to arc %d outside [0,%d)", idx, k.numArcs))
	}
	return idx
}

// greedyArc is nextArc's greedy hypercube step, small enough to inline into
// the per-hop path. The difference mask lives in
// the low word, so the lowest set bit of the packed word is the lowest
// unresolved dimension; one XOR clears it from the mask and flips it into the
// node (high word).
func (k *Kernel) greedyArc(s int32) int {
	uv := k.pUV[s]
	bit := uv & -uv
	k.pUV[s] = uv ^ (bit | bit<<32)
	return bits.TrailingZeros64(uv)*k.srcN + int(uv>>32)
}

// enqueue places pool slot s at the tail of arc idx's intrusive FIFO list,
// its current hop; it mirrors System.enqueue. On an empty queue s is the new
// head and starts service at once — unless the arc is inside an outage
// window, where it stalls. A packet that would wait behind a full finite
// buffer is dropped instead, before any statistic is touched.
func (k *Kernel) enqueue(s int32, idx int, now float64) {
	t := k.aTail[idx]
	if t == 0 && (k.downWords == nil || !k.arcDown(idx)) {
		k.makeRoom()
		k.pushCompletion(now, int32(idx), s)
	} else {
		if k.bufCap > 0 && int(k.aQLen[idx]) >= k.bufCap {
			k.dropPkt(s, now, true)
			return
		}
		if t != 0 {
			k.pNext[t-1] = s
		} else {
			k.stall(idx, s)
		}
		if k.bufCap > 0 {
			k.aQLen[idx]++
		}
	}
	k.pNext[s] = -1
	k.aTail[idx] = s + 1
	g := idx >> k.groupShift
	k.gArrivals[g]++
	if k.hopWait {
		k.pEnqAt[s] = now
	}
	if k.trackGrp {
		k.col.GroupPopulationAdd(int32(g), now, +1)
	}
}

// addBusy credits arc idx with the part of a service begun at start that
// falls inside the measurement window and ends at now.
func (k *Kernel) addBusy(idx int, start, now float64) {
	if b := now - max(start, k.busyFrom); b > 0 {
		k.aBusyTime[idx] += b
	}
}

// complete finishes the transmission of pool slot s begun at start on arc
// idx; it mirrors System.completeService (FIFO discipline). s is the queue
// head, which is popped: its link is the new head, -1 when the queue empties.
func (k *Kernel) complete(idx int, start float64, s int32) {
	now := start + 1
	nh := k.pNext[s]
	k.addBusy(idx, start, now)
	if k.trackGrp || k.hopWait {
		g := int32(idx >> k.groupShift)
		if k.trackGrp {
			k.col.GroupPopulationAdd(g, now, -1)
		}
		if k.hopWait {
			k.col.ArcWait(g, now, k.pEnqAt[s], k.pGen[s])
		}
	}

	// The new head, if any, starts service — or stalls inside an outage
	// window, until the outage-end transition restarts it. The ring has room:
	// this arc's completion was just popped.
	if nh < 0 {
		k.aTail[idx] = 0
	} else if k.downWords != nil && k.arcDown(idx) {
		k.stall(idx, nh)
	} else {
		k.startHead(idx, now, nh)
	}

	// Transient fault: one dedicated-stream draw per completed transmission
	// decides whether this transmission failed, dropping the packet.
	if k.failProb > 0 && k.faultRNG.Float64() < k.failProb {
		k.dropPkt(s, now, false)
		return
	}

	aux := k.pAux[s] + 1<<16 // hop++
	if uint16(aux>>16) >= uint16(aux) {
		k.packetLeft(now)
		k.col.Deliver(now, k.pGen[s], int(uint16(aux)), 0)
		if k.mode == RouteStored {
			k.pathFree = append(k.pathFree, k.pSlot[s])
		}
		k.freePkt(s)
		return
	}
	k.pAux[s] = aux
	if k.mode == RouteHypercubeGreedy {
		k.enqueue(s, k.greedyArc(s), now)
	} else {
		k.enqueue(s, k.nextArc(s), now)
	}
}

// startMeasurement discards the warm-up transient at the given instant.
// Busy time needs no reset: addBusy never counts time before busyFrom.
func (k *Kernel) startMeasurement(now float64) {
	k.col.StartMeasurement(now)
	clear(k.gArrivals)
}

// snapshot closes the run at the horizon, aggregating per-arc busy time in
// arc-index order exactly as System.Snapshot does. The pending completions
// are exactly the busy arcs, so one pass over the ring credits each with its
// partial service before the per-group sums; every arc sees the same two
// float additions, in the same order, as System.Snapshot performs. Arrival
// counts are summed per group in integers; System.Snapshot sums their
// float64 values, which is the same number below 2^53.
func (k *Kernel) snapshot() network.Metrics {
	n := k.cfg.NumGroups
	k.snapArcs = resize(k.snapArcs, n)
	k.snapBusy = resize(k.snapBusy, n)
	k.snapArrivals = resize(k.snapArrivals, n)
	now := k.cfg.Horizon
	for i := k.compHead; i != k.compTail; i++ {
		c := k.comp[i&k.compMask]
		k.addBusy(int(c.arc), c.start, now)
	}
	k.busyFrom = now // credited up to now: a repeated snapshot adds nothing
	block := k.numArcs / n
	for g := range n {
		busy := 0.0
		for _, b := range k.aBusyTime[g*block : (g+1)*block] {
			busy += b
		}
		k.snapArcs[g] = block
		k.snapBusy[g] = busy
		k.snapArrivals[g] = float64(k.gArrivals[g])
	}
	return k.col.Snapshot(now, k.snapArcs, k.snapBusy, k.snapArrivals)
}

// allocPkt takes a pool slot: from the free list when one exists, otherwise
// by bumping into (and if needed growing) the slab.
func (k *Kernel) allocPkt() int32 {
	k.live++
	if s := k.freeHead; s >= 0 {
		k.freeHead = k.pNext[s]
		return s
	}
	if int(k.poolBump) == len(k.pGen) {
		k.growPool(len(k.pGen) + 1)
	}
	s := k.poolBump
	k.poolBump++
	return s
}

// freePkt returns a delivered packet's pool slot to the free list.
func (k *Kernel) freePkt(s int32) {
	k.pNext[s] = k.freeHead
	k.freeHead = s
	k.live--
}

// growPool grows the packet pool (which scales with the in-flight
// population, not the arc count) to hold need slots.
func (k *Kernel) growPool(need int) {
	newCap := grownCap(len(k.pGen), need, poolChunk)
	k.checkBudget("packet pool", int64(newCap-len(k.pGen))*k.cfg.pktSize())
	k.pGen = resize(k.pGen, newCap)
	k.pUV = resize(k.pUV, newCap)
	k.pAux = resize(k.pAux, newCap)
	k.pNext = resize(k.pNext, newCap)
	if k.mode == RouteStored {
		k.pSlot = resize(k.pSlot, newCap)
	}
	if k.hopWait {
		k.pEnqAt = resize(k.pEnqAt, newCap)
	}
}

// allocPathSlot takes a stored-route slab slot from the free list, growing
// the slab when it is exhausted.
func (k *Kernel) allocPathSlot() int32 {
	if n := len(k.pathFree); n > 0 {
		s := k.pathFree[n-1]
		k.pathFree = k.pathFree[:n-1]
		return s
	}
	s := int32(k.numSlots)
	k.numSlots++
	need := k.numSlots * k.maxHops
	if need > cap(k.paths) {
		newCap := 2 * cap(k.paths)
		if newCap < need {
			newCap = need
		}
		k.checkBudget("route slab", int64(newCap-cap(k.paths))*8)
		np := make([]int, need, newCap)
		copy(np, k.paths)
		k.paths = np
	} else {
		k.paths = k.paths[:need]
	}
	return s
}

// scheduleArrival draws the aggregate stream's next arrival when it falls
// within the horizon, marking it with the number of completions pushed so
// far: exactly those precede it at an equal due time.
func (k *Kernel) scheduleArrival() {
	if next := k.poisSrc.NextArrival(); next <= k.cfg.Horizon {
		k.poisSrc.Advance()
		k.arrTime = next
		k.arrMark = k.compTail
		k.arrPending = true
	}
}

// packetEntered and packetLeft update the population process, batching
// same-instant changes in slotted mode.
func (k *Kernel) packetEntered(now float64) {
	if k.batchPop {
		k.popDelta++
		k.popDirty = true
		return
	}
	k.col.PacketEntered(now)
}

func (k *Kernel) packetLeft(now float64) {
	if k.batchPop {
		k.popDelta--
		k.popDirty = true
		return
	}
	k.col.PacketLeft(now)
}

// flushPop materialises the batched population change at the instant it
// accumulated over; it must run before the clock moves past that instant.
func (k *Kernel) flushPop(at float64) {
	if k.popDirty {
		k.col.PopulationAdjust(at, k.popDelta)
		k.popDelta = 0
		k.popDirty = false
	}
}

// makeRoom doubles the completion ring when it is full. A push follows it,
// except on the one path that needs none: a completion handler restarting
// its own arc reuses the slot its completion just vacated.
func (k *Kernel) makeRoom() {
	if k.compTail-k.compHead == uint64(len(k.comp)) {
		k.growComp(len(k.comp) + 1)
	}
}

// pushCompletion appends the service of pool slot pkt begun at start on arc
// to the completion ring, which has room (makeRoom).
func (k *Kernel) pushCompletion(start float64, arc, pkt int32) {
	if k.compTail-k.compHead == uint64(len(k.comp)) {
		panic("slotsim: completion ring overflow")
	}
	k.comp[k.compTail&k.compMask] = completion{start, arc, pkt}
	k.compTail++
}

// popCompletion removes the head completion and returns its arc, service
// start and packet; the caller has checked that one is pending.
func (k *Kernel) popCompletion() (arc int, start float64, pkt int32) {
	c := k.comp[k.compHead&k.compMask]
	k.compHead++
	return int(c.arc), c.start, c.pkt
}

// growComp moves the pending completions, in order, into a ring that holds
// need records.
func (k *Kernel) growComp(need int) {
	newCap := grownCap(len(k.comp), need, compChunk)
	k.checkBudget("completion ring", int64(newCap-len(k.comp))*compBytes)
	nc := make([]completion, newCap)
	for i := k.compHead; i != k.compTail; i++ {
		nc[i&uint64(newCap-1)] = k.comp[i&k.compMask]
	}
	k.comp = nc
	k.compMask = uint64(newCap - 1)
}
