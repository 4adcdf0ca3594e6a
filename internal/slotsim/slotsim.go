// Package slotsim is the store-and-forward kernel: every hypercube run —
// the paper's continuous-time Poisson model as well as the slotted model of
// §3.4 — and every butterfly, under the FIFO discipline or the RandomOrder
// ablation. Every transmission takes exactly one time unit, so a general
// event calendar — heap pushes, handler dispatch, cancellation slots — is
// pure overhead: the only event sources are the slot clock (or the
// aggregate Poisson arrival stream), the outage boundaries and a single
// monotone stream of service completions. internal/oracle is the naive
// reference its tests compare it with.
//
// Kernel.Batch runs the synchronous batches of E7's pipelined rounds and
// E14's permutations: stored routes injected at t = 0 with no arrivals,
// reported delivery by delivery as internal/oracle.Batch reports them.
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
//     (network.GroupShift, the layout both topologies' arc indices have),
//     so no arc stores a group id, and arrivals are
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
// # Prefetching at scale
//
// In a slotted greedy hypercube run of at least prefetchMinArcs arcs (2^17,
// 1.5 MiB of arc arrays) a hop is bound by memory latency: each completion
// follows a chain of dependent random loads — ring record, packet route
// state, next arc's queue tail. The ring lists the upcoming completions in
// order, so their addresses are known dozens of hops ahead. Before completing
// the head record, the kernel prefetches in two stages, the second reading
// only lines the first fetched:
//
//  1. 32 records ahead, the packet's route state, link and hop counters and
//     its arc's busy time;
//  2. 16 records ahead, the queue tail of the packet's next arc (greedyNext),
//     skipping a packet on its last hop, which has no next arc.
//
// A slot batch's bulk injection likewise prefetches the first arc's tail of
// the pair 8 ahead. Prefetches are hints: they change no event, draw or
// statistic, and every address is a checked slice index, so a bad one panics
// instead of being fetched silently.
//
// reset sets one kernel flag per run. The gate sits where in-process runs
// cross over (slotted, τ = 1, ρ = 0.7, horizons 4 and 32, median ns per
// packet on a 2-vCPU Xeon VM with 2 MiB of L2 per core): at d = 12 (49,152
// arcs) prefetching made a hop 4–32% slower, at d = 13 (106,496) 7% slower
// or 19% faster depending on the horizon, at d = 14 (229,376) 2–37% faster
// and at d = 16 29% faster. Below the gate the arrays stay cached and the
// prefetches are pure cost. Butterfly, stored-route and continuous-time runs
// are not prefetched: no benchmarked workload of theirs is above the gate.
// The instruction is assembly — PREFETCHT0 on amd64, PRFM PLDL1KEEP on
// arm64, a no-op elsewhere — because Go has no prefetch intrinsic outside
// the runtime, and a plain load of the same address stalls until its line
// arrives: pure-Go touch loads gained little or lost.
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
// Every run takes one arrival path. Config.Batch draws the (origin,
// destination) pairs in blocks of at most prefetchPairs, with no per-packet
// sampler dispatch — a slot's Poisson(N·λ·τ) batch block by block in slotted
// mode (at 2^20 nodes the dominant per-tick work), and blocks of upcoming
// arrivals in continuous mode — so the sampling scratch never grows with the
// batch. injectTo then creates each packet from its pair: stepped routes
// derive their arcs from it arithmetically, and stored routes come from
// Config.Traffic, a pure function of the pair.
//
// Config.MaxBytes puts an explicit budget on all of this: EstimateBytes
// prices the arc-indexed arrays up front (the deterministic, dominant term),
// reset refuses configurations that cannot fit, and every growth of the
// dynamic pools re-checks the budget so a run fails loudly with a
// *BudgetError instead of dying to the OOM killer. Before a slot tick injects
// its batch, the packet pool and the completion ring grow once, straight to
// the size their doubling would reach for the live population plus the
// batch, instead of doubling packet by packet.
//
// A pooled kernel (sim reuses one per worker via sync.Pool) is a fresh one:
// reset truncates the packet pool, the completion ring and the route slab to
// length zero, so they regrow through a fresh kernel's doubling, reslicing
// the capacity they kept, and the budget charges lengths — what this run
// holds — never capacity an earlier run left. There is no handler
// indirection and no per-event allocation: once that capacity has reached
// its steady-state size, a whole replication, reset included, performs zero
// allocations. Only the Metrics snapshot handed to the caller is freshly
// allocated, because the caller owns it.
//
// # OS-backed arrays
//
// At scale the cost that dominates a cold run is page faults, not hops. So
// every array that reaches hugePage (2 MiB, the PMD size) lives outside the
// Go heap: the arc arrays (aTail, aBusyTime, aQLen, aHead and the outage
// bitsets), the packet pool (pGen, pUV, pAux, pNext, pSlot, pEnqAt), the
// completion ring and the stored-route slab. Each is a slice over its own
// anonymous reservation (PROT_NONE, MAP_NORESERVE), advised MADV_HUGEPAGE and
// committed with mprotect in 2 MiB steps. A reservation is sized by what
// bounds its array: the arc count for the arc arrays, the next power of two
// above it for the ring (each pending completion is one busy arc), an int32
// slot index for the pool, and maxReserve (64 GiB of address space) for the
// slab. Growth commits more of the same reservation: nothing is copied, no
// dead array is left behind, and the slice never moves. Only growth past a
// reservation (a pooled kernel's next run with more arcs) takes a new region
// and releases the old one. Fresh commitments read as zero, so resizeZero
// clears only memory the array held before. resize, resizeWithin,
// resizeZero and growComp are the only places that decide; the hop path
// sees plain slices.
//
// The regions belong to the Kernel. reset releases those of an optional
// array the run does not use, and a cleanup (runtime.AddCleanup) releases the
// rest once the kernel is unreachable, as when sim's sync.Pool drops a
// runner. max_bytes counts an OS-backed array's length in whole 2 MiB steps,
// what a fresh kernel commits for it; EstimateBytes stays a floor.
//
// Measured on a 2-vCPU Linux VM whose transparent huge pages are in madvise
// mode (enabled and defrag both madvise; thp_fault_fallback stayed 0): one
// slot-scale sweep process (d = 16) went from 12.1k to 1.6k minor faults and
// from ~30 to ~5 ms of system time, its max RSS from 49 to 39 MB; the d = 20
// scale-smoke spec went from 181k to about 0.6k faults and from 711 to
// 436 MB of max RSS. With huge pages off the regions fault in base pages:
// growth still copies nothing, but the faults come back. Arrays below a huge
// page stay on make: a huge page each would cost its zeroing on every small
// run. Where no region can be reserved or committed — off Linux (build
// tags), on a 32-bit address space, on an mmap or mprotect error — the array
// takes the make+copy path, and the output is the same either way.
//
// # Event order
//
// The kernel fires the events of the reference simulator (internal/oracle)
// at the same (bit-identical) times in the same order and consumes the same
// random streams in the same per-stream order, so the packet counts and
// every per-packet delay, in delivery order, equal the reference's on the
// same seed. The reference fires simultaneous events in schedule order; the
// kernel reproduces that order without a calendar:
//
//   - Outage boundaries are scheduled before anything else, so at equal
//     times they fire first, a window's end before the next one's start.
//   - Slotted mode: every service starts at a slot instant and completes one
//     unit later, so completion due-times are non-decreasing in scheduling
//     order — a FIFO ring replays them exactly. A slot tick at time t is
//     scheduled at the end of the previous tick, after every service start
//     that can complete at t, so at equal times completions precede the
//     tick; the kernel hard-codes that rule.
//   - Continuous mode (aggregate Poisson arrivals): completions still form a
//     monotone FIFO stream. A completion and the single pending arrival
//     that fall due at the same instant (measure zero, but possible in
//     floating point) fire in the order they were scheduled. The kernel
//     records how many completions had been pushed when the arrival was
//     scheduled; since the ring pops in push order, the head completion was
//     scheduled first exactly when fewer completions than that have been
//     popped — so even exact time ties break identically.
//     Sampling arrival pairs ahead (Config.Batch) reorders draws only across
//     random streams, never within one.
package slotsim

import (
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"sync/atomic"
	"unsafe"

	"repro/internal/network"
	"repro/internal/stats"
	"repro/internal/workload"
	"repro/internal/xrand"
)

// Traffic appends a stored-route packet's arc-index route. Implementations
// are provided by sim (the randomized hypercube routers); a route is a pure
// function of the packet's (origin, destination) pair and of any stream the
// implementation owns, never of the kernel's streams.
type Traffic interface {
	// AppendRoute appends the route of a new packet from origin to dest to
	// dst and returns the extended slice. dst has the kernel's MaxHops
	// capacity; routes must not exceed it.
	AppendRoute(origin, dest uint32, dst []int) []int
}

// BatchSampler samples a block of arrivals' origins and destinations: the
// kernel's only reader of the aggregate source's payload stream rng. Each
// pair is a uniform origin pick over the Config.Sources origins followed by
// the destination draw for that origin. Implementations must consume rng
// exactly as len(origins) successive such pairs drawn one at a time would —
// stream consumption order is what the oracle tests pin — but are free to
// draw the underlying uniform words in bulk (xrand.FillUint64) when each pair
// costs exactly two raw draws, as it does for uniform traffic on 2^d sources.
type BatchSampler interface {
	SampleDestBatch(rng *xrand.Rand, origins, dests []uint32)
}

// RouteMode selects how the kernel derives per-hop arc indices.
type RouteMode int

const (
	// RouteStored materializes every route into the flat route slab via
	// Traffic.AppendRoute — the general mode, needed for randomized
	// hypercube routers whose paths depend on a routing stream of their own.
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
	// which measurement starts (events at exactly Warmup still precede it).
	Horizon, Warmup float64
	// Seed drives all randomness: the aggregate source's streams, the fault
	// stream and the RandomOrder draws.
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
	// Traffic builds packet routes from their (origin, dest) pairs; required
	// in RouteStored mode.
	Traffic Traffic
	// Batch samples every arrival's (origin, dest) pair, in blocks of at
	// most prefetchPairs: a slot batch block by block under slotted
	// arrivals, the upcoming arrivals under continuous ones; required. It
	// must produce the same pair sequence however that sequence is cut into
	// blocks.
	Batch BatchSampler
	// MaxBytes caps the kernel's memory: reset panics when the pre-run
	// estimate (EstimateBytes) exceeds it, and every growth of the dynamic
	// pools re-checks it against the arrays' lengths, panicking with a
	// *BudgetError. Zero disables the budget. Callers that want errors
	// instead of panics validate with EstimateBytes first and recover the
	// *BudgetError (sim does both).
	MaxBytes int64
	// Measurement selects the optional measurements.
	network.Measurement
	// Faults is the fault model (see network.Faults). Finite buffers
	// disable the batched population updates, because an injection-time
	// drop breaks the monotone down-then-up order within a slot instant that
	// batching relies on.
	network.Faults
	// Discipline selects which waiting packet an arc serves next: FIFO (the
	// zero value) or RandomOrder (see pickRandom).
	Discipline network.Discipline
}

// transition is one flattened outage boundary. The list is built in
// (From, Until) pairs over the sorted, non-overlapping Config.Outages, which
// makes it time-ordered with ends preceding starts at equal times — exactly
// the (time, sequence) order in which the reference simulator fires the
// outage events it schedules first.
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

// The gate and distances of the slotted cache prefetches (see the package
// doc). A distance counts ring records (pending completions) or sampled pairs
// ahead of the one being processed.
const (
	prefetchMinArcs  = 1 << 17
	prefetchPacket   = 32 // stage 1: the packet's hot lines and its arc's busy time
	prefetchNextTail = 16 // stage 2: the tail of the packet's next arc
	prefetchInject   = 8  // a slot batch's pair: the tail of its first arc
)

// completion is one pending service completion in the ring: the service of
// pool slot pkt on arc started at start and falls due at start+1, recomputed
// at each comparison. That sum is the time the reference simulator schedules
// the completion at, so the two order events alike.
type completion struct {
	start    float64
	arc, pkt int32
}

// EstimateBytes returns the kernel's pre-run memory estimate for cfg: the
// arc-indexed arrays — the deterministic term that dominates at scale (a
// d = 20 hypercube has d·2^d ≈ 21M arcs) — plus the initial lengths of the
// dynamically growing packet pool and completion ring and the fixed 2 KiB
// arrival sampling block every run has. The dynamic structures grow with the
// in-flight population (every growth re-checks Config.MaxBytes), and
// OS-backed arrays count whole huge pages, so the estimate is a floor, not a
// ceiling; it is what sim's max_bytes validation prices before a run starts.
func EstimateBytes(cfg Config) int64 {
	est := arcTermBytes(cfg) + poolChunk*cfg.pktSize() + compChunk*compBytes + prefetchPairs*pairBytes
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

// Kernel is a reusable slot-stepped simulator. The zero value is ready for
// use; Run may be called repeatedly (with differing configs) and reuses all
// internal storage. A Kernel must not be copied: its large arrays are
// OS-backed regions that it owns and releases.
type Kernel struct {
	cfg        Config
	col        network.Collector
	trackGrp   bool
	hopWait    bool
	prefetch   bool  // slotted cache prefetches on (greedy hypercube, NumArcs >= prefetchMinArcs)
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

	// RandomOrder state: the discipline's draw stream and pickRandom's
	// buffer of an arc's waiting packets. Unused under FIFO.
	randomOrder bool
	discRNG     *xrand.Rand
	waiting     []int32

	// Arc state, one entry per arc: the intrusive FIFO queue's tail pool
	// index and the busy-time accumulator, 12 bytes per arc. The head of a
	// non-empty queue is the packet in service — the arc has a pending
	// completion, whose record names it — unless the arc is stalled. The
	// tail index is biased by one — 0 means empty, s+1 means pool slot s —
	// so an all-zero array is a valid initial state and reset needs nothing
	// but resizeZero.
	aTail     []int32
	aBusyTime []float64 // service time inside the measurement window
	aQLen     []int32   // waiting packets (an in-service head excluded), only with finite buffers

	// busyFrom is the measurement start (Config.Warmup): a service's busy
	// time counts from max(start, busyFrom), so completions before the
	// warm-up add nothing and startMeasurement needs no per-arc pass.
	busyFrom float64

	// Per-group arrival counts since the measurement start.
	gArrivals []int64

	// Packet pool: parallel arrays indexed by pool slot, whose length is the
	// pool's logical capacity. A packet occupies one slot from injection to
	// delivery; pNext threads both the per-arc FIFO queues and the free list.
	// Allocation is bump-then-free-list, so reset is O(1) in the pool size.
	pGen     []float64
	pUV      []uint64  // current identity (high 32) | mask or dest row (low 32); origin | dest with stored routes
	pAux     []uint32  // hop (high 16) | total hops (low 16)
	pNext    []int32   // queue / free-list link, -1 = end
	pSlot    []int32   // stored-route slab slot, allocated only in RouteStored
	pEnqAt   []float64 // queue-join time, allocated only for per-hop waits
	freeHead int32
	poolBump int32
	live     int // occupied slots

	// Stored-route slab: MaxHops ints per slot, with a slot free list; nil
	// outside RouteStored. Its length, like the pool's, is its capacity.
	paths    []int
	pathFree []int32
	numSlots int

	// Batch's record of its deliveries, in delivery order.
	record     bool
	deliveries []Delivery

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

	// Arrival sampling scratch (Config.Batch): one fixed block of
	// prefetchPairs pairs, which EstimateBytes and memFootprint price.
	batchOrigins [prefetchPairs]uint32
	batchDests   [prefetchPairs]uint32

	// Snapshot scratch.
	snapArcs     []int
	snapBusy     []float64
	snapArrivals []float64

	// mem holds the regions of the OS-backed arrays above, nil until an
	// array first reaches a huge page.
	mem *osMem
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
	m := k.snapshot()
	// The kernel's cleanup unmaps its OS-backed arrays, which the methods
	// above may still address through local slices after their last use of
	// k; the kernel must outlive the run.
	runtime.KeepAlive(k)
	return m
}

// Delivery is one packet of a Batch reaching its destination: its index in
// the route list and the time.
type Delivery struct {
	Packet int
	Time   float64
}

// Batch injects one packet per route at time zero into a fault-free FIFO
// network of numArcs arcs, runs until every packet is delivered, and returns
// the deliveries in delivery order: internal/oracle.Batch's contract. The
// slice is the kernel's, valid until its next run.
func (k *Kernel) Batch(numArcs int, routes [][]int) []Delivery {
	hops, maxHops := 0, 1
	for _, r := range routes {
		hops += len(r)
		maxHops = max(maxHops, len(r))
	}
	// At λ = 0 nothing arrives, and some arc is busy until the last
	// delivery, which therefore comes by time hops. reset wants a source and
	// a positive route stride even for an empty batch.
	k.reset(Config{NumArcs: numArcs, Sources: max(len(routes), 1), MaxHops: maxHops,
		Horizon: float64(hops + 1), Traffic: script(routes), Batch: script(routes),
		Measurement: network.Measurement{SkipGroupPopulation: true}})
	k.record = true
	k.deliveries = k.deliveries[:0]
	for i, r := range routes {
		if len(r) == 0 { // delivered at injection, before any completion
			k.deliveries = append(k.deliveries, Delivery{i, 0})
		}
		k.injectTo(uint32(i), 0, 0)
	}
	k.runContinuous()
	runtime.KeepAlive(k)
	return k.deliveries
}

// script is Batch's traffic: the packet injected with origin i takes route
// i. Nothing arrives, so its sampler never draws.
type script [][]int

func (s script) AppendRoute(origin, _ uint32, dst []int) []int { return append(dst, s[origin]...) }
func (script) SampleDestBatch(*xrand.Rand, []uint32, []uint32) {}

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
	if cfg.Batch == nil {
		panic("slotsim: Batch is required")
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
	k.prefetch = cfg.NumArcs >= prefetchMinArcs && cfg.Mode == RouteHypercubeGreedy
	if k.faultRNG == nil {
		k.faultRNG = xrand.New(0)
	}
	k.faultRNG.SeedStream(cfg.Seed, xrand.StreamFault)
	switch cfg.Discipline {
	case network.FIFO:
		k.randomOrder = false
	case network.RandomOrder:
		k.randomOrder = true
		if k.discRNG == nil {
			k.discRNG = xrand.New(0)
		}
		k.discRNG.SeedStream(cfg.Seed, xrand.StreamDiscipline)
	default:
		panic(fmt.Sprintf("slotsim: unknown discipline %d", int(cfg.Discipline)))
	}
	k.transNext = 0
	// Every optional array the run does not use is released, so that
	// memFootprint — what MaxBytes is checked against — counts only this
	// run's arrays, whatever a pooled kernel ran before.
	if len(cfg.Outages) > 0 {
		k.downWords = resizeZero(k, k.downWords, (cfg.NumArcs+63)/64)
		k.stalled = resizeZero(k, k.stalled, (cfg.NumArcs+63)/64)
		k.aHead = resize(k, k.aHead, cfg.NumArcs) // written before it is read
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
		k.downWords, k.stalled, k.aHead = drop(k, k.downWords), drop(k, k.stalled), drop(k, k.aHead)
		k.trans = nil
	}

	k.aTail = resizeZero(k, k.aTail, cfg.NumArcs)
	k.aBusyTime = resizeZero(k, k.aBusyTime, cfg.NumArcs)
	k.busyFrom = cfg.Warmup
	if k.bufCap > 0 {
		k.aQLen = resizeZero(k, k.aQLen, cfg.NumArcs)
	} else {
		k.aQLen = drop(k, k.aQLen)
	}
	k.gArrivals = resizeZero(k, k.gArrivals, cfg.NumGroups)

	// The packet pool, the route slab and the completion ring start empty,
	// as on a fresh kernel: at length zero, keeping their capacity.
	k.freeHead = -1
	k.poolBump = 0
	k.live = 0
	k.pGen, k.pUV, k.pAux, k.pNext = k.pGen[:0], k.pUV[:0], k.pAux[:0], k.pNext[:0]
	if k.hopWait {
		k.pEnqAt = k.pEnqAt[:0]
	} else {
		k.pEnqAt = drop(k, k.pEnqAt)
	}
	if cfg.Mode == RouteStored {
		k.pSlot, k.paths, k.pathFree = k.pSlot[:0], k.paths[:0], k.pathFree[:0]
	} else {
		k.pSlot, k.paths = drop(k, k.pSlot), drop(k, k.paths)
		k.pathFree = nil
	}
	k.numSlots = 0
	k.record = false
	k.comp, k.compMask = k.comp[:0], 0
	k.compHead, k.compTail = 0, 0
	k.arrPending = false
	k.batchPop = cfg.Slotted && cfg.TraceInterval == 0 && cfg.BufferCapacity == 0
	k.popDelta = 0
	k.popDirty = false

	// Aggregate sources: one stream of rate Sources*Lambda whose arrivals
	// pick a uniformly random origin (Poisson superposition/splitting — the
	// same process in law as independent per-node streams).
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
// preserving the existing contents otherwise. An array that reaches a huge
// page is OS-backed (see the package doc) and grows in place; below that, or
// where no region can be had, growth is an explicit make+copy (rather than
// append with a zeroed tail), one allocation and one pass over memory.
func resize[T any](k *Kernel, s []T, n int) []T { return resizeWithin(k, s, n, n) }

// resizeWithin is resize for an array expected to grow up to limit
// elements: an OS-backed one reserves room for them, so that growth never
// moves it.
func resizeWithin[T any](k *Kernel, s []T, n, limit int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	ns, inPlace := mapArray(k, s, n, limit)
	if inPlace {
		return ns
	}
	if ns == nil {
		ns = make([]T, n)
	}
	copy(ns, s)
	drop(k, s)
	return ns
}

// resizeZero returns a zeroed slice of length n, reusing capacity when
// possible. Memory the slice held before is cleared; freshly committed
// OS-backed memory is zero already and is left untouched, so its huge pages
// fault in (and are zeroed by the OS) on first use. A heap allocation is
// cleared although make's pages are already zero: on base pages the clear
// writes every page once, in order, so each faults in once, where the hop
// path's first access would usually be a read that maps the shared zero page
// and the write that follows would fault the page a second time.
func resizeZero[T any](k *Kernel, s []T, n int) []T {
	if cap(s) >= n {
		s = s[:n]
		clear(s)
		return s
	}
	held := cap(s)
	ns, inPlace := mapArray(k, s, n, n)
	switch {
	case inPlace:
		clear(ns[:held])
	case ns == nil:
		ns = make([]T, n)
		clear(ns)
		drop(k, s)
	default:
		drop(k, s)
	}
	return ns
}

// hugePage is the PMD size with 4 KiB base pages (amd64, arm64): the
// transparent huge page, the size from which an array is OS-backed, and the
// step in which its region is committed.
const hugePage = 2 << 20

// Bounds of the OS-backed regions' reservations: a pool slot is an int32,
// and no region reserves more than maxReserve bytes of address space (the
// stored-route slab, MaxHops ints per slot, is bounded by it alone).
const (
	poolSlots  = math.MaxInt32
	maxReserve = 1 << 36
)

// forceHeap keeps every array on the Go heap; tests set it to compare the
// two storage paths.
var forceHeap bool

// mappedBytes is the committed size of every kernel's OS-backed regions.
var mappedBytes atomic.Int64

// region is one OS-backed array: a reservation whose first committed bytes
// are readable and writable.
type region struct {
	whole     []byte // the mapping as made, for releaseRegion
	data      []byte // the hugePage-aligned usable bytes
	committed int
}

// osMem holds a kernel's OS-backed regions. It is an object of its own, so
// the cleanup that releases them once the kernel is unreachable does not
// keep the kernel reachable.
type osMem struct {
	regions []*region
}

// osRegions returns the kernel's region set, made on first use together
// with the cleanup that releases it: a kernel dropped by its owner (sim's
// sync.Pool) leaves no mapping behind.
func (k *Kernel) osRegions() *osMem {
	if k.mem == nil {
		k.mem = new(osMem)
		runtime.AddCleanup(k, (*osMem).release, k.mem)
	}
	return k.mem
}

// mapArray returns storage for n elements of s's type in OS-backed memory
// when they take at least a huge page: s's own region grown in place
// (inPlace: the contents kept, the extension zero), or else a fresh, zero
// region with room for limit elements. It returns nil where the array stays
// on the heap: below a huge page, with forceHeap, or when no region can be
// reserved or committed.
func mapArray[T any](k *Kernel, s []T, n, limit int) (ns []T, inPlace bool) {
	size := int(unsafe.Sizeof(*new(T)))
	if !canReserve || forceHeap || n*size < hugePage {
		return nil, false
	}
	m := k.osRegions()
	if r := m.find(unsafe.Pointer(unsafe.SliceData(s))); r != nil && m.commit(r, n*size) {
		return regionSlice[T](r, n), true
	}
	r := m.reserve(max(int64(n), min(int64(limit), maxReserve/int64(size))) * int64(size))
	if r == nil {
		return nil, false
	}
	if !m.commit(r, n*size) {
		m.free(r)
		return nil, false
	}
	return regionSlice[T](r, n), false
}

// regionSlice views r's committed bytes as a slice of length n.
func regionSlice[T any](r *region, n int) []T {
	size := int(unsafe.Sizeof(*new(T)))
	return unsafe.Slice((*T)(unsafe.Pointer(&r.data[0])), r.committed/size)[:n]
}

// drop releases s's region if it has one; the caller drops s.
func drop[T any](k *Kernel, s []T) []T {
	if k.mem != nil {
		if r := k.mem.find(unsafe.Pointer(unsafe.SliceData(s))); r != nil {
			k.mem.free(r)
		}
	}
	return nil
}

// find returns the region whose data starts at p, or nil: p is a slice's
// array, and a heap slice has none.
func (m *osMem) find(p unsafe.Pointer) *region {
	for _, r := range m.regions {
		if unsafe.Pointer(&r.data[0]) == p {
			return r
		}
	}
	return nil
}

// reserve adds a region of size bytes, or returns nil.
func (m *osMem) reserve(size int64) *region {
	size = (size + hugePage - 1) &^ (hugePage - 1)
	whole, data, ok := reserveRegion(int(size))
	if !ok {
		return nil
	}
	r := &region{whole: whole, data: data}
	m.regions = append(m.regions, r)
	return r
}

// commit makes r's first n bytes, rounded up to whole huge pages, usable.
// It fails when they exceed the reservation or the OS refuses them.
func (m *osMem) commit(r *region, n int) bool {
	want := (n + hugePage - 1) &^ (hugePage - 1)
	if want > len(r.data) {
		return false
	}
	if want > r.committed {
		if !commitRegion(r.data[r.committed:want]) {
			return false
		}
		mappedBytes.Add(int64(want - r.committed))
		r.committed = want
	}
	return true
}

// free unmaps r and forgets it.
func (m *osMem) free(r *region) {
	releaseRegion(r.whole)
	mappedBytes.Add(-int64(r.committed))
	for i, q := range m.regions {
		if q == r {
			m.regions = append(m.regions[:i], m.regions[i+1:]...)
			break
		}
	}
}

// release unmaps every region; it is the kernel's cleanup.
func (m *osMem) release() {
	for len(m.regions) > 0 {
		m.free(m.regions[0])
	}
}

// arrayBytes is what an array of n elements of size bytes takes once grown
// to n: its committed region, whole huge pages, when it is OS-backed.
func arrayBytes(n int, size int64) int64 {
	b := int64(n) * size
	if canReserve && !forceHeap && b >= hugePage {
		b = (b + hugePage - 1) &^ (hugePage - 1)
	}
	return b
}

// heldBytes is what s charges the budget: its length, priced by arrayBytes.
// Capacity beyond it, left by an earlier run on a pooled kernel, is free.
func heldBytes[T any](s []T) int64 {
	return arrayBytes(len(s), int64(unsafe.Sizeof(*new(T))))
}

// growthBytes is what growing s to n > len(s) elements adds to the kernel's
// footprint: the figure the budget checks charge a growth. Where a region
// cannot be had, the heap array it falls back to takes up to a huge page less.
func growthBytes[T any](s []T, n int) int64 {
	return arrayBytes(n, int64(unsafe.Sizeof(*new(T)))) - heldBytes(s)
}

// memFootprint sums what the kernel's long-lived arrays hold; it is the
// "in use" figure of the growth-time budget checks.
func (k *Kernel) memFootprint() int64 {
	return k.arcFootprint() + heldBytes(k.gArrivals) + heldBytes(k.trans) +
		k.poolFootprint() + heldBytes(k.comp) + heldBytes(k.paths) + heldBytes(k.pathFree) +
		prefetchPairs*pairBytes
}

// arcFootprint is memFootprint's arc-indexed part, the counterpart of
// arcTermBytes.
func (k *Kernel) arcFootprint() int64 {
	return heldBytes(k.aTail) + heldBytes(k.aBusyTime) + heldBytes(k.aQLen) +
		heldBytes(k.aHead) + heldBytes(k.downWords) + heldBytes(k.stalled)
}

// poolFootprint is memFootprint's packet-pool part, the counterpart of
// Config.pktSize.
func (k *Kernel) poolFootprint() int64 {
	return heldBytes(k.pGen) + heldBytes(k.pUV) + heldBytes(k.pAux) +
		heldBytes(k.pNext) + heldBytes(k.pSlot) + heldBytes(k.pEnqAt)
}

// fits reports whether growing by extra bytes stays within MaxBytes.
func (k *Kernel) fits(extra int64) bool {
	return k.cfg.MaxBytes <= 0 || k.memFootprint()+extra <= k.cfg.MaxBytes
}

// BudgetError is the panic value of a growth that would exceed
// Config.MaxBytes. Growth happens mid-run, where no error return exists;
// failing loudly with sizes beats being OOM-killed without one, and a caller
// that wants an error recovers this value (sim's runner does).
type BudgetError struct {
	What     string // the growing structure
	InUse    int64  // bytes the kernel's arrays hold (memFootprint)
	Needed   int64  // bytes the growth adds
	MaxBytes int64
}

// Error names the growing structure and the sizes that broke the budget.
func (e *BudgetError) Error() string {
	return fmt.Sprintf("slotsim: memory budget exceeded growing %s: ~%d B in use + %d B needed > MaxBytes %d",
		e.What, e.InUse, e.Needed, e.MaxBytes)
}

// checkBudget panics with a *BudgetError when growing `what` by extra bytes
// would exceed the configured MaxBytes.
func (k *Kernel) checkBudget(what string, extra int64) {
	if !k.fits(extra) {
		panic(&BudgetError{what, k.memFootprint(), extra, k.cfg.MaxBytes})
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
		if c := grownCap(len(k.pGen), need, poolChunk); k.fits(k.poolGrowth(c)) {
			k.growPool(need)
		}
	}
	if need := min(int(k.compTail-k.compHead)+n, k.numArcs); need > len(k.comp) {
		if c := grownCap(len(k.comp), need, compChunk); k.fits(growthBytes(k.comp, c)) {
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
// matching the reference simulator — restarts the stalled ones, exactly the
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
			s := k.aHead[arc]
			if k.randomOrder {
				s = k.pickRandom(int(arc), s)
			}
			k.startHead(int(arc), now, s)
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

// pickRandom serves arc idx under the RandomOrder discipline: it draws one of
// the arc's waiting packets — the chain from head to the arc's tail —
// uniformly, moves it to the head and returns it. The packet drawn leaves a
// hole that the old tail fills (swap-remove), so the chain stays the
// sequence a slice with swap-remove would hold and every later draw indexes
// the same packets. One draw per service start from a non-empty waiting
// queue: at a completion, and at an outage end's restart.
//
//go:noinline
func (k *Kernel) pickRandom(idx int, head int32) int32 {
	w := k.waiting[:0]
	for s := head; s >= 0; s = k.pNext[s] {
		w = append(w, s)
	}
	i := k.discRNG.Intn(len(w))
	chosen, last := w[i], len(w)-1
	w[i] = w[last]
	w = w[:last]
	prev := chosen
	for _, s := range w {
		k.pNext[prev] = s
		prev = s
	}
	k.pNext[prev] = -1
	k.aTail[idx] = prev + 1
	k.waiting = w
	return chosen
}

// dropPkt discards pool slot s mid-network — a transient transmission fault
// (overflow = false) or a full finite buffer (overflow = true): the packet
// leaves the population and is counted per cause.
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
	tick := 0.0 // next tick time, accumulated as the reference accumulates it
	tickPending := true
	measuring := false
	cur := 0.0 // instant the batched population delta accumulated over
	for {
		// Pick the next event among outage transitions, due completions and
		// the slot tick. At equal times transitions fire first (the reference
		// schedules them before anything else), then completions, then the
		// tick: completions
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
			if k.prefetch {
				k.prefetchAhead()
			}
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
// The (origin, dest) pairs of upcoming arrivals are sampled ahead in blocks
// of prefetchPairs. The sample path does not depend on it: inter-arrival
// gaps come from the source's separate timing stream, the payload stream
// feeds nothing but these pairs, and routes draw from streams of their own
// at injection, in injection order; so drawing the pairs early only reorders
// draws across streams, never within one. Pairs sampled past the horizon are
// discarded unused.
func (k *Kernel) runContinuous() {
	horizon, warmup := k.cfg.Horizon, k.cfg.Warmup
	rng := k.poisSrc.RNG()
	measuring := false
	origins, dests := k.batchOrigins[:], k.batchDests[:]
	pos := len(origins) // index of the next unused sampled pair; starts drained
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
		// Outage transitions are scheduled before anything else, so at equal
		// times they precede both completions and arrivals.
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
			if pos == len(origins) {
				k.cfg.Batch.SampleDestBatch(rng, origins, dests)
				pos = 0
			}
			k.injectTo(origins[pos], dests[pos], t)
			pos++
			k.scheduleArrival()
		}
	}
	if !measuring {
		k.startMeasurement(warmup)
	}
}

// fireTick injects the network-wide slot batch at time now. Its (origin,
// dest) pairs are sampled from the aggregate source's payload stream one
// block of at most prefetchPairs at a time, so the scratch never grows with
// the batch.
func (k *Kernel) fireTick(now float64) {
	src := k.slotSrc
	batch := src.BatchSize()
	rng := src.RNG()
	k.reserve(batch)
	n := min(batch, prefetchPairs)
	origins, dests := k.batchOrigins[:n], k.batchDests[:n]
	for left := batch; left > 0; left -= len(origins) {
		if left < len(origins) {
			origins, dests = origins[:left], dests[:left]
		}
		k.cfg.Batch.SampleDestBatch(rng, origins, dests)
		for j := range origins {
			if k.prefetch && j+prefetchInject < len(origins) {
				o, d := origins[j+prefetchInject], dests[j+prefetchInject]
				if o != d {
					prefetch(unsafe.Pointer(&k.aTail[k.greedyNext(uint64(o)<<32|uint64(o^d))]))
				}
			}
			k.injectTo(origins[j], dests[j], now)
		}
	}
}

// injectTo creates the packet of a sampled (origin, dest) pair at time now;
// every arrival funnels through it. Stepped routes keep the pair as their
// route state; a stored route is built from it into a slab slot.
func (k *Kernel) injectTo(origin, dest uint32, now float64) {
	var uv uint64
	var hops int
	var slot int32
	switch k.mode {
	case RouteHypercubeGreedy:
		mask := origin ^ dest
		uv = uint64(origin)<<32 | uint64(mask)
		hops = bits.OnesCount32(mask)
	case RouteButterfly:
		uv = uint64(origin)<<32 | uint64(dest)
		hops = int(k.bfHops)
	default:
		uv = uint64(origin)<<32 | uint64(dest) // read only by Batch's record
		slot = k.allocPathSlot()
		base := int(slot) * k.maxHops
		route := k.cfg.Traffic.AppendRoute(origin, dest, k.paths[base:base:base+k.maxHops])
		if len(route) > k.maxHops {
			panic(fmt.Sprintf("slotsim: route of %d hops exceeds MaxHops %d", len(route), k.maxHops))
		}
		if len(route) > 0 && &route[0] != &k.paths[base] {
			// A Traffic implementation that did not append in place still works.
			copy(k.paths[base:base+len(route)], route)
		}
		hops = len(route)
	}
	k.col.CountGenerated()
	if hops == 0 {
		k.col.Deliver(now, now, 0)
		if k.mode == RouteStored {
			k.pathFree = append(k.pathFree, slot)
		}
		return
	}
	k.packetEntered(now)
	s := k.allocPkt()
	k.pGen[s] = now
	k.pUV[s] = uv
	k.pAux[s] = uint32(uint16(hops))
	if k.mode == RouteStored {
		k.pSlot[s] = slot
	}
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
	return k.greedyNext(uv)
}

// greedyNext is the arc of the greedy hop a packet in route state uv takes
// next: the lowest unresolved dimension's arc out of the current node. uv's
// mask must be non-zero; greedyArc and the prefetch stages share it.
func (k *Kernel) greedyNext(uv uint64) int {
	return bits.TrailingZeros64(uv)*k.srcN + int(uv>>32)
}

// prefetchAhead runs the two prefetch stages (see the package doc) for the
// completions that fall due after the head one. It reads only pending
// records; a packet on its last hop (mask 0) has no next arc to stage.
func (k *Kernel) prefetchAhead() {
	h, pending := k.compHead, k.compTail-k.compHead
	if pending > prefetchPacket {
		c := k.comp[(h+prefetchPacket)&k.compMask]
		prefetch(unsafe.Pointer(&k.pUV[c.pkt]))
		prefetch(unsafe.Pointer(&k.pNext[c.pkt]))
		prefetch(unsafe.Pointer(&k.pAux[c.pkt]))
		prefetch(unsafe.Pointer(&k.aBusyTime[c.arc]))
	}
	if pending > prefetchNextTail {
		if uv := k.pUV[k.comp[(h+prefetchNextTail)&k.compMask].pkt]; uint32(uv) != 0 {
			prefetch(unsafe.Pointer(&k.aTail[k.greedyNext(uv)]))
		}
	}
}

// enqueue places pool slot s at the tail of arc idx's intrusive FIFO list,
// its current hop. On an empty queue s is the new
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
// idx. s is the queue head, which is popped: its link is the new head, -1
// when the queue empties.
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
		if k.randomOrder {
			nh = k.pickRandom(idx, nh)
		}
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
		k.col.Deliver(now, k.pGen[s], int(uint16(aux)))
		if k.mode == RouteStored {
			k.pathFree = append(k.pathFree, k.pSlot[s])
			if k.record {
				k.deliveries = append(k.deliveries, Delivery{int(k.pUV[s] >> 32), now})
			}
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

// snapshot closes the run at the horizon, summing per-arc busy time per
// group in arc-index order. The pending completions are exactly the busy
// arcs, so one pass over the ring credits each with its partial service
// before the per-group sums. Arrival counts are summed per group in
// integers.
func (k *Kernel) snapshot() network.Metrics {
	n := k.cfg.NumGroups
	k.snapArcs = resize(k, k.snapArcs, n)
	k.snapBusy = resize(k, k.snapBusy, n)
	k.snapArrivals = resize(k, k.snapArrivals, n)
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
	k.checkBudget("packet pool", k.poolGrowth(newCap))
	k.pGen = resizeWithin(k, k.pGen, newCap, poolSlots)
	k.pUV = resizeWithin(k, k.pUV, newCap, poolSlots)
	k.pAux = resizeWithin(k, k.pAux, newCap, poolSlots)
	k.pNext = resizeWithin(k, k.pNext, newCap, poolSlots)
	if k.mode == RouteStored {
		k.pSlot = resizeWithin(k, k.pSlot, newCap, poolSlots)
	}
	if k.hopWait {
		k.pEnqAt = resizeWithin(k, k.pEnqAt, newCap, poolSlots)
	}
}

// poolGrowth is what growing the packet pool to c slots adds to the
// kernel's footprint, the counterpart of Config.pktSize.
func (k *Kernel) poolGrowth(c int) int64 {
	b := growthBytes(k.pGen, c) + growthBytes(k.pUV, c) + growthBytes(k.pAux, c) + growthBytes(k.pNext, c)
	if k.mode == RouteStored {
		b += growthBytes(k.pSlot, c)
	}
	if k.hopWait {
		b += growthBytes(k.pEnqAt, c)
	}
	return b
}

// allocPathSlot takes a stored-route slab slot from the free list, doubling
// the slab when its slots are exhausted.
func (k *Kernel) allocPathSlot() int32 {
	if n := len(k.pathFree); n > 0 {
		s := k.pathFree[n-1]
		k.pathFree = k.pathFree[:n-1]
		return s
	}
	s := int32(k.numSlots)
	k.numSlots++
	if need := k.numSlots * k.maxHops; need > len(k.paths) {
		newLen := max(2*len(k.paths), need)
		k.checkBudget("route slab", growthBytes(k.paths, newLen))
		k.paths = resizeWithin(k, k.paths, newLen, math.MaxInt)
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

// growComp grows the ring to hold need records, keeping the pending
// completions in order. Growth keeps every record at its index, so only the
// pending records whose index changes under the new mask move; they move
// into the added part of the ring, which holds none of the others. The ring
// never holds more records than there are arcs, so an OS-backed ring
// reserves the power of two that holds them all.
func (k *Kernel) growComp(need int) {
	newCap := grownCap(len(k.comp), need, compChunk)
	k.checkBudget("completion ring", growthBytes(k.comp, newCap))
	k.comp = resizeWithin(k, k.comp, newCap, 1<<bits.Len(uint(k.numArcs-1)))
	oldMask, newMask := k.compMask, uint64(newCap-1)
	for i := k.compHead; i != k.compTail; i++ {
		if i&newMask != i&oldMask {
			k.comp[i&newMask] = k.comp[i&oldMask]
		}
	}
	k.compMask = newMask
}
