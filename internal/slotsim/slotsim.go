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
//   - Arc state is six parallel arrays indexed by arc (in-service packet
//     index, queue head/tail, arrival count, busy-since/busy-time), 36 bytes
//     per arc, plus an optional 4-byte group id when per-group statistics are
//     on. There is no per-arc queue buffer: queue memory scales with the
//     in-flight population, not with the arc count.
//   - Packets live in a pooled slab of parallel arrays (generation time,
//     bit-packed route state, hop counters, queue link), 28 bytes per packet.
//     A packet keeps one pool slot for its whole life; per-arc FIFO queues
//     are intrusive linked lists threaded through the pool's link array, so
//     a hop writes an index instead of copying a record.
//   - Hypercube greedy routes are never materialised: the route state is the
//     XOR difference mask packed next to the current node in one uint64, and
//     each hop resolves the lowest unresolved dimension with
//     bits.TrailingZeros64 and clears it with a single XOR. Butterfly routes
//     step the unique path the same way; only randomized routers store routes
//     (in a fixed-stride slab referenced by packet-held slots).
//   - Service completions form a flat FIFO ring of three parallel arrays
//     (due time, tie-break sequence, arc).
//
// Arrival sampling is batched: when Config.Batch is set in a stepped route
// mode, (origin, destination) pairs are drawn in bulk (backed by
// xrand.FillUint64) with no per-packet sampler dispatch — a whole slot's
// Poisson(N·λ·τ) batch per tick in slotted mode (at 2^20 nodes the dominant
// per-tick work), and blocks of prefetchPairs upcoming arrivals in continuous
// mode.
//
// Config.MaxBytes puts an explicit budget on all of this: EstimateBytes
// prices the arc-indexed arrays up front (the deterministic, dominant term),
// reset refuses configurations that cannot fit, and every growth of the
// dynamic pools re-checks the budget so a run fails loudly with a diagnostic
// instead of dying to the OOM killer.
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
//     monotone FIFO stream, and the single pending arrival carries a
//     (time, sequence) key with the sequence number assigned at exactly the
//     moment the des path would call Schedule — so even exact time ties
//     (measure zero, but possible in floating point) break identically.
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

// BatchSampler bulk-samples a whole slot batch of origins and destinations
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
	// GroupOf maps an arc index to a statistics group; nil puts every arc in
	// group 0.
	GroupOf func(arc int) int
	// NumGroups is the number of distinct statistics groups.
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
	// instead of dispatching Dest per packet: whole slot batches under
	// slotted arrivals, blocks of prefetchPairs upcoming arrivals under
	// continuous ones. Used only by the stepped route modes; it must produce
	// exactly the (origin, dest) sequence the scalar path would.
	Batch BatchSampler
	// MaxBytes caps the kernel's memory: reset panics when the pre-run
	// estimate (EstimateBytes) exceeds it, and every growth of the dynamic
	// pools re-checks it. Zero disables the budget. Callers that want a
	// clean error instead of a panic validate with EstimateBytes first
	// (sim.Scenario.MaxBytes does).
	MaxBytes int64
	// TrackQuantiles stores every measured delay for exact quantiles.
	TrackQuantiles bool
	// SketchAlpha, when positive, feeds every measured delay into a
	// mergeable DDSketch with that relative-error bound (bounded memory,
	// independent of TrackQuantiles). Zero disables the sketch.
	SketchAlpha float64
	// TrackPerHopWait records per-group arc sojourn times.
	TrackPerHopWait bool
	// SkipGroupPopulation disables the per-group time-weighted population
	// processes (two updates per hop); the butterfly experiments never read
	// them. Must match the event-driven run's setting for cross-kernel
	// identity.
	SkipGroupPopulation bool
	// TraceInterval enables the population trace (0 disables it).
	TraceInterval float64
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
	arcBytes      = 4 + 4 + 4 + 8 + 8 + 8 // aSvc+aHead+aTail+aArrivals+aBusySince+aBusyTime
	arcGroupBytes = 4                     // aGroup, only with per-group stats
	pktBytes      = 8 + 8 + 8 + 4         // pGen+pUV+pAux+pNext
	pktWaitBytes  = 8                     // pEnqAt, only with per-hop waits
	compBytes     = 8 + 8 + 4             // compTime+compSeq+compArc
	poolChunk     = 256                   // initial packet-pool capacity (slots)
	compChunk     = 64                    // initial completion-ring capacity
	prefetchPairs = 256                   // continuous-mode arrival prefetch block (pairs)
	pairBytes     = 4 + 4                 // batchOrigins+batchDests
)

// noSlot marks a stepped-route packet (no stored-route slab slot) in the
// packed auxiliary word.
const noSlot = ^uint32(0)

// EstimateBytes returns the kernel's pre-run memory estimate for cfg: the
// arc-indexed arrays — the deterministic term that dominates at scale (a
// d = 20 hypercube has d·2^d ≈ 21M arcs) — plus the initial capacities of the
// dynamically growing packet pool and completion ring. The dynamic structures
// grow with the in-flight population, and every growth re-checks
// Config.MaxBytes, so the estimate is a floor, not a ceiling; it is what
// sim's max_bytes validation prices before a run starts.
func EstimateBytes(cfg Config) int64 {
	perArc := int64(arcBytes)
	if !cfg.SkipGroupPopulation || cfg.TrackPerHopWait {
		perArc += arcGroupBytes
	}
	perPkt := int64(pktBytes)
	if cfg.TrackPerHopWait {
		perPkt += pktWaitBytes
	}
	if cfg.BufferCapacity > 0 {
		perArc += 4 // aQLen
	}
	est := int64(cfg.NumArcs)*perArc + poolChunk*perPkt + compChunk*compBytes
	if cfg.prefetch() {
		est += prefetchPairs * pairBytes
	}
	if len(cfg.Outages) > 0 {
		est += int64((cfg.NumArcs+63)/64)*8 + int64(2*len(cfg.Outages))*16 // down bitset + transitions
	}
	groups := cfg.NumGroups
	if groups < 1 {
		groups = 1
	}
	return est + int64(groups)*24 // snapshot scratch
}

// prefetch reports whether continuous-mode arrivals are sampled in blocks.
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
	haveGroups bool  // aGroup is populated (trackGrp || hopWait)
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
	// the down-arc bitset, nil when the run has no outages so the faultless
	// hot path costs one nil check; trans is the flattened, time-ordered
	// outage boundary list with transNext the next unfired boundary.
	faultRNG  *xrand.Rand
	downWords []uint64
	trans     []transition
	transNext int

	// Arc state, one entry per arc: the packet in service (doubling as the
	// busy flag), intrusive FIFO queue head/tail pool indices, and the
	// measurement accumulators. The three index arrays are biased by one —
	// 0 means idle/empty, s+1 means pool slot s — so an all-zero array is a
	// valid initial state: reset can rely on make's lazy zero pages and a
	// fresh million-arc run never pre-faults memory it does not touch.
	aSvc       []int32
	aHead      []int32
	aTail      []int32
	aArrivals  []int64
	aBusySince []float64
	aBusyTime  []float64
	aGroup     []int32 // populated only when per-group stats are on
	aQLen      []int32 // waiting-queue lengths, maintained only with finite buffers

	// Packet pool: parallel arrays indexed by pool slot. A packet occupies
	// one slot from injection to delivery; pNext threads both the per-arc
	// FIFO queues and the free list. Allocation is bump-then-free-list, so
	// reset is O(1) in the pool size.
	pGen     []float64
	pUV      []uint64  // current identity (high 32) | mask or dest row (low 32)
	pAux     []uint64  // route slot (high 32) | hop (16) | total hops (16)
	pNext    []int32   // queue / free-list link, -1 = end
	pEnqAt   []float64 // queue-join time, allocated only for per-hop waits
	freeHead int32
	poolBump int32

	// Stored-route slab: MaxHops ints per slot, with a slot free list.
	paths    []int
	pathFree []int32
	numSlots int

	// Completion FIFO: a power-of-two ring of parallel arrays over
	// [compHead, compHead+compLen).
	compTime []float64
	compSeq  []uint64
	compArc  []int32
	compHead int
	compLen  int

	seq uint64

	// Continuous mode: the single pending aggregate arrival.
	arrTime    float64
	arrSeq     uint64
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

	// Bulk-sampling scratch (Config.Batch): one slot batch, or one
	// continuous-mode prefetch block.
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
	if cfg.GroupOf == nil {
		cfg.GroupOf = func(int) int { return 0 }
		cfg.NumGroups = 1
	}
	if cfg.NumGroups <= 0 {
		cfg.NumGroups = 1
	}
	if cfg.MaxBytes > 0 {
		if est := EstimateBytes(cfg); est > cfg.MaxBytes {
			panic(fmt.Sprintf("slotsim: estimated kernel memory %d B exceeds MaxBytes %d (NumArcs=%d; see EstimateBytes)",
				est, cfg.MaxBytes, cfg.NumArcs))
		}
	}
	k.cfg = cfg
	k.trackGrp = !cfg.SkipGroupPopulation
	k.hopWait = cfg.TrackPerHopWait
	k.haveGroups = k.trackGrp || k.hopWait
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
	k.trans = k.trans[:0]
	k.transNext = 0
	if len(cfg.Outages) > 0 {
		k.downWords = resizeZero(k.downWords, (cfg.NumArcs+63)/64)
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
		k.downWords = nil
	}

	k.aSvc = resizeZero(k.aSvc, cfg.NumArcs)
	k.aHead = resizeZero(k.aHead, cfg.NumArcs)
	k.aTail = resizeZero(k.aTail, cfg.NumArcs)
	k.aArrivals = resizeZero(k.aArrivals, cfg.NumArcs)
	k.aBusySince = resizeZero(k.aBusySince, cfg.NumArcs)
	k.aBusyTime = resizeZero(k.aBusyTime, cfg.NumArcs)
	if k.haveGroups {
		k.aGroup = resize(k.aGroup, cfg.NumArcs)
		for i := range k.aGroup {
			g := cfg.GroupOf(i)
			if g < 0 || g >= cfg.NumGroups {
				panic(fmt.Sprintf("slotsim: GroupOf(%d) = %d outside [0,%d)", i, g, cfg.NumGroups))
			}
			k.aGroup[i] = int32(g)
		}
	}
	if k.bufCap > 0 {
		k.aQLen = resizeZero(k.aQLen, cfg.NumArcs)
	}

	// Packet pool: every slot is free again (bump allocation restarts).
	k.freeHead = -1
	k.poolBump = 0
	if k.hopWait {
		k.pEnqAt = resize(k.pEnqAt, len(k.pGen))
	}

	// Stored-route slab: every slot is free again; re-stride for the
	// (possibly changed) MaxHops.
	k.pathFree = k.pathFree[:0]
	for i := k.numSlots - 1; i >= 0; i-- {
		k.pathFree = append(k.pathFree, int32(i))
	}
	if need := k.numSlots * cfg.MaxHops; cap(k.paths) >= need {
		k.paths = k.paths[:need]
	} else {
		k.paths = make([]int, need)
	}

	k.compHead, k.compLen = 0, 0
	k.seq = 0
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
		if next := k.poisSrc.NextArrival(); next <= cfg.Horizon {
			k.poisSrc.Advance()
			k.arrTime = next
			k.arrSeq = k.nextSeq()
			k.arrPending = true
		}
	}

	k.col.Reset(cfg.NumGroups)
	if cfg.TrackQuantiles {
		k.col.EnableDelaySample()
	}
	if cfg.SketchAlpha > 0 {
		k.col.EnableDelaySketch(cfg.SketchAlpha)
	}
	if cfg.TrackPerHopWait {
		k.col.EnablePerHopWait()
	}
	if cfg.TraceInterval > 0 {
		k.col.EnablePopulationTrace(cfg.TraceInterval)
	}
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

// resizeZero returns a zeroed slice of length n. Reused capacity is cleared
// with memclr; a fresh allocation is returned as-is, because make's pages are
// already zero and remain untouched until the run first writes them. That
// lazy path is what keeps a cold 2^20-node reset from pre-faulting ~750 MB of
// arc arrays the run may never fully visit.
func resizeZero[T any](s []T, n int) []T {
	if cap(s) >= n {
		s = s[:n]
		clear(s)
		return s
	}
	return make([]T, n)
}

// memFootprint sums the capacities of the kernel's long-lived arrays; it is
// the "in use" figure of the growth-time budget checks.
func (k *Kernel) memFootprint() int64 {
	b := int64(cap(k.aSvc))*4 + int64(cap(k.aHead))*4 + int64(cap(k.aTail))*4 +
		int64(cap(k.aArrivals))*8 + int64(cap(k.aBusySince))*8 + int64(cap(k.aBusyTime))*8 +
		int64(cap(k.aGroup))*4 + int64(cap(k.aQLen))*4 + int64(cap(k.downWords))*8 + int64(cap(k.trans))*16
	b += int64(cap(k.pGen))*8 + int64(cap(k.pUV))*8 + int64(cap(k.pAux))*8 +
		int64(cap(k.pNext))*4 + int64(cap(k.pEnqAt))*8
	b += int64(cap(k.compTime))*8 + int64(cap(k.compSeq))*8 + int64(cap(k.compArc))*4
	b += int64(cap(k.paths))*8 + int64(cap(k.pathFree))*4
	b += int64(cap(k.batchOrigins))*4 + int64(cap(k.batchDests))*4
	return b
}

// checkBudget panics when growing `what` by extra bytes would exceed the
// configured MaxBytes. Growth happens mid-run, where no error return exists;
// failing loudly with sizes beats being OOM-killed without one.
func (k *Kernel) checkBudget(what string, extra int64) {
	if k.cfg.MaxBytes <= 0 {
		return
	}
	if use := k.memFootprint(); use+extra > k.cfg.MaxBytes {
		panic(fmt.Sprintf("slotsim: memory budget exceeded growing %s: ~%d B in use + %d B needed > MaxBytes %d",
			what, use, extra, k.cfg.MaxBytes))
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
// matching the event-driven handler — restarts idle arcs with queued work.
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
		k.downWords[uint32(arc)>>6] &^= 1 << (uint32(arc) & 63)
		if k.aSvc[arc] == 0 && k.aHead[arc] != 0 {
			k.startService(int(arc), k.popHead(int(arc)), now)
		}
	}
}

// arcDown reports whether arc idx is inside an active outage window; callers
// have checked downWords != nil.
func (k *Kernel) arcDown(idx int) bool {
	return k.downWords[uint32(idx)>>6]>>(uint32(idx)&63)&1 != 0
}

// popHead removes and returns the head of arc idx's FIFO queue; the caller
// has checked the queue is non-empty. pNext stores raw slots with a -1 end
// sentinel, so nh+1 is exactly the biased head encoding.
func (k *Kernel) popHead(idx int) int32 {
	h := k.aHead[idx]
	nh := k.pNext[h-1] + 1
	k.aHead[idx] = nh
	if nh == 0 {
		k.aTail[idx] = 0
	}
	if k.bufCap > 0 {
		k.aQLen[idx]--
	}
	return h - 1
}

// dropPkt discards pool slot s mid-network — a transient transmission fault
// (overflow = false) or a full finite buffer (overflow = true) — mirroring
// System.drop: the packet leaves the population and is counted per cause.
func (k *Kernel) dropPkt(s int32, now float64, overflow bool) {
	k.packetLeft(now)
	k.col.Drop(k.pGen[s], overflow)
	if slot := uint32(k.pAux[s] >> 32); slot != noSlot {
		k.pathFree = append(k.pathFree, int32(slot))
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
		if k.compLen > 0 {
			if ct := k.compTime[k.compHead]; kind == evNone || ct < next {
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
			arc, t := k.popCompletion()
			k.complete(arc, t)
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
	src := k.poisSrc
	rng := src.RNG()
	measuring := false
	var origins, dests []uint32
	if k.cfg.prefetch() {
		origins, dests = k.batchBuffers(prefetchPairs, "arrival prefetch buffers")
	}
	pos := len(origins) // index of the next unused prefetched pair; starts drained
	for {
		var next float64
		kind := evNone
		switch {
		case k.compLen > 0 && k.arrPending:
			ct := k.compTime[k.compHead]
			if ct < k.arrTime || (ct == k.arrTime && k.compSeq[k.compHead] < k.arrSeq) {
				next, kind = ct, evComp
			} else {
				next, kind = k.arrTime, evArr
			}
		case k.compLen > 0:
			next, kind = k.compTime[k.compHead], evComp
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
			arc, t := k.popCompletion()
			k.complete(arc, t)
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
			if nxt := src.NextArrival(); nxt <= horizon {
				src.Advance()
				k.arrTime = nxt
				k.arrSeq = k.nextSeq()
				k.arrPending = true
			}
		}
	}
	if !measuring {
		k.startMeasurement(warmup)
	}
}

// fireTick injects the network-wide slot batch at time now; each packet picks
// a uniformly random origin node from the aggregate source's payload stream.
// With a BatchSampler configured the whole batch's (origin, dest) pairs are
// drawn in bulk first, so the tick does O(batch) work with no per-packet
// sampler dispatch; the sample path is identical either way.
func (k *Kernel) fireTick(now float64) {
	src := k.slotSrc
	batch := src.BatchSize()
	rng := src.RNG()
	if k.cfg.Batch != nil && k.mode != RouteStored && batch > 0 {
		origins, dests := k.batchBuffers(batch, "slot batch buffers")
		k.cfg.Batch.SampleDestBatch(rng, origins, dests)
		for j := 0; j < batch; j++ {
			k.injectTo(origins[j], dests[j], now)
		}
		return
	}
	nodes := uint64(k.srcN)
	for j := 0; j < batch; j++ {
		node := int32(rng.Uint64n(nodes))
		k.inject(node, rng, now)
	}
}

// batchBuffers returns the bulk-sampling scratch sized to n pairs, charging
// any growth (named what) to the memory budget first. The two buffers are
// always resized together, so they share one capacity.
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
		k.pAux[s] = uint64(uint32(slot))<<32 | uint64(uint16(len(route)))
		k.enqueue(s, now)
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
	k.pAux[s] = uint64(noSlot)<<32 | uint64(uint16(hops))
	k.enqueue(s, now)
}

// nextArc returns the arc index of pool slot s's current hop, advancing the
// stepped-route state. The stepped arithmetic reproduces the arc indices of
// routing.DimensionOrder.AppendPath and routing.AppendButterflyPath exactly.
func (k *Kernel) nextArc(s int32) int {
	switch k.mode {
	case RouteHypercubeGreedy:
		// The difference mask lives in the low word, so the lowest set bit
		// of the packed word is the lowest unresolved dimension; one XOR
		// clears it from the mask and flips it into the node (high word).
		uv := k.pUV[s]
		bit := uv & -uv
		idx := bits.TrailingZeros64(uv)*k.srcN + int(uv>>32)
		k.pUV[s] = uv ^ (bit | bit<<32)
		return idx
	case RouteButterfly:
		hop := uint64(uint16(k.pAux[s] >> 16))
		uv := k.pUV[s]
		idx := int(hop) * 2 * k.srcN
		if ((uv>>32)^uv)>>hop&1 != 0 {
			idx += k.srcN + int(uv>>32)
			k.pUV[s] = uv ^ (1 << (hop + 32))
		} else {
			idx += int(uv >> 32)
		}
		return idx
	default:
		aux := k.pAux[s]
		idx := k.paths[int(uint32(aux>>32))*k.maxHops+int(uint16(aux>>16))]
		if idx < 0 || idx >= k.numArcs {
			panic(fmt.Sprintf("slotsim: route refers to arc %d outside [0,%d)", idx, k.numArcs))
		}
		return idx
	}
}

// enqueue places pool slot s at its current arc; it mirrors System.enqueue.
// An idle arc outside any outage window starts service immediately; otherwise
// s joins the arc's intrusive FIFO list — unless a finite buffer is full, in
// which case the packet is dropped before any statistic is touched.
func (k *Kernel) enqueue(s int32, now float64) {
	idx := k.nextArc(s)
	if k.aSvc[idx] != 0 || (k.downWords != nil && k.arcDown(idx)) {
		if k.bufCap > 0 && int(k.aQLen[idx]) >= k.bufCap {
			k.dropPkt(s, now, true)
			return
		}
		k.aArrivals[idx]++
		if k.hopWait {
			k.pEnqAt[s] = now
		}
		k.pNext[s] = -1
		if t := k.aTail[idx]; t != 0 {
			k.pNext[t-1] = s
		} else {
			k.aHead[idx] = s + 1
		}
		k.aTail[idx] = s + 1
		if k.bufCap > 0 {
			k.aQLen[idx]++
		}
	} else {
		k.aArrivals[idx]++
		if k.hopWait {
			k.pEnqAt[s] = now
		}
		k.startService(idx, s, now)
	}
	if k.trackGrp {
		k.col.GroupPopulationAdd(k.aGroup[idx], now, +1)
	}
}

// startService begins the unit transmission of pool slot s on arc idx.
func (k *Kernel) startService(idx int, s int32, now float64) {
	k.aSvc[idx] = s + 1
	k.aBusySince[idx] = now
	k.pushCompletion(now+1, k.nextSeq(), int32(idx))
}

// complete finishes the transmission on arc idx; it mirrors
// System.completeService (FIFO discipline).
func (k *Kernel) complete(idx int, now float64) {
	s := k.aSvc[idx] - 1
	if s < 0 {
		panic(fmt.Sprintf("slotsim: completion on idle arc %d", idx))
	}
	k.aSvc[idx] = 0
	k.aBusyTime[idx] += now - k.aBusySince[idx]
	if k.haveGroups {
		g := k.aGroup[idx]
		if k.trackGrp {
			k.col.GroupPopulationAdd(g, now, -1)
		}
		if k.hopWait {
			k.col.ArcWait(g, now, k.pEnqAt[s], k.pGen[s])
		}
	}

	// Start the next queued packet on this arc (never inside an outage
	// window: the outage-end transition restarts the arc).
	if k.aHead[idx] != 0 && (k.downWords == nil || !k.arcDown(idx)) {
		k.startService(idx, k.popHead(idx), now)
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
		if slot := uint32(aux >> 32); slot != noSlot {
			k.pathFree = append(k.pathFree, int32(slot))
		}
		k.freePkt(s)
		return
	}
	k.pAux[s] = aux
	k.enqueue(s, now)
}

// startMeasurement discards the warm-up transient at the given instant.
func (k *Kernel) startMeasurement(now float64) {
	k.col.StartMeasurement(now)
	clear(k.aArrivals)
	clear(k.aBusyTime)
	for i, s := range k.aSvc {
		if s != 0 {
			k.aBusySince[i] = now
		}
	}
}

// snapshot closes the run at the horizon, aggregating per-arc state in
// arc-index order exactly as System.Snapshot does.
func (k *Kernel) snapshot() network.Metrics {
	n := k.cfg.NumGroups
	k.snapArcs = resize(k.snapArcs, n)
	k.snapBusy = resize(k.snapBusy, n)
	k.snapArrivals = resize(k.snapArrivals, n)
	clear(k.snapArcs)
	clear(k.snapBusy)
	clear(k.snapArrivals)
	now := k.cfg.Horizon
	for i := 0; i < k.numArcs; i++ {
		var g int
		if k.haveGroups {
			g = int(k.aGroup[i])
		} else {
			g = k.cfg.GroupOf(i)
			if g < 0 || g >= n {
				panic(fmt.Sprintf("slotsim: GroupOf(%d) = %d outside [0,%d)", i, g, n))
			}
		}
		k.snapArcs[g]++
		busy := k.aBusyTime[i]
		if k.aSvc[i] != 0 {
			busy += now - k.aBusySince[i]
		}
		k.snapBusy[g] += busy
		k.snapArrivals[g] += float64(k.aArrivals[i])
	}
	return k.col.Snapshot(now, k.snapArcs, k.snapBusy, k.snapArrivals)
}

// allocPkt takes a pool slot: from the free list when one exists, otherwise
// by bumping into (and if needed growing) the slab.
func (k *Kernel) allocPkt() int32 {
	if s := k.freeHead; s >= 0 {
		k.freeHead = k.pNext[s]
		return s
	}
	if int(k.poolBump) == len(k.pGen) {
		k.growPool()
	}
	s := k.poolBump
	k.poolBump++
	return s
}

// freePkt returns a delivered packet's pool slot to the free list.
func (k *Kernel) freePkt(s int32) {
	k.pNext[s] = k.freeHead
	k.freeHead = s
}

// growPool doubles the packet pool (which scales with the in-flight
// population, not the arc count).
func (k *Kernel) growPool() {
	newCap := 2 * len(k.pGen)
	if newCap == 0 {
		newCap = poolChunk
	}
	per := int64(pktBytes)
	if k.hopWait {
		per += pktWaitBytes
	}
	k.checkBudget("packet pool", int64(newCap-len(k.pGen))*per)
	k.pGen = resize(k.pGen, newCap)
	k.pUV = resize(k.pUV, newCap)
	k.pAux = resize(k.pAux, newCap)
	k.pNext = resize(k.pNext, newCap)
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

func (k *Kernel) nextSeq() uint64 {
	s := k.seq
	k.seq++
	return s
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

// pushCompletion appends to the completion ring, growing (power-of-two
// capacity) when full.
func (k *Kernel) pushCompletion(t float64, seq uint64, arc int32) {
	if k.compLen == len(k.compTime) {
		k.growComp()
	}
	pos := (k.compHead + k.compLen) & (len(k.compTime) - 1)
	k.compTime[pos] = t
	k.compSeq[pos] = seq
	k.compArc[pos] = arc
	k.compLen++
}

// popCompletion removes the head completion; the caller has checked compLen.
func (k *Kernel) popCompletion() (arc int, t float64) {
	h := k.compHead
	arc, t = int(k.compArc[h]), k.compTime[h]
	k.compHead = (h + 1) & (len(k.compTime) - 1)
	k.compLen--
	return arc, t
}

func (k *Kernel) growComp() {
	oldCap := len(k.compTime)
	newCap := 2 * oldCap
	if newCap == 0 {
		newCap = compChunk
	}
	k.checkBudget("completion ring", int64(newCap-oldCap)*compBytes)
	nt := make([]float64, newCap)
	ns := make([]uint64, newCap)
	na := make([]int32, newCap)
	mask := oldCap - 1
	for i := 0; i < k.compLen; i++ {
		src := (k.compHead + i) & mask
		nt[i] = k.compTime[src]
		ns[i] = k.compSeq[src]
		na[i] = k.compArc[src]
	}
	k.compTime, k.compSeq, k.compArc = nt, ns, na
	k.compHead = 0
}
