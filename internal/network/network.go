// Package network is the packet-level simulator of a store-and-forward
// interconnection network under the paper's communication assumptions (§1.1):
// every directed arc transmits one packet at a time with a deterministic unit
// transmission time, nodes have infinite buffers, a node may transmit on all
// its output ports simultaneously, and packets queue per output arc. The
// package is topology-agnostic: a packet carries its path as a sequence of
// dense arc indices (produced by internal/routing from a hypercube or
// butterfly topology), and the simulator provides the queueing, service and
// measurement machinery shared by every experiment.
package network

import (
	"fmt"
	"math/bits"

	"repro/internal/des"
	"repro/internal/ringbuf"
	"repro/internal/stats"
	"repro/internal/xrand"
)

// Discipline selects how an arc picks the next packet from its queue.
type Discipline int

const (
	// FIFO serves packets in arrival order, the rule analysed by the paper.
	FIFO Discipline = iota
	// RandomOrder serves a uniformly random queued packet; it exists for the
	// arc-priority ablation (the paper's delay bounds do not depend on the
	// priority rule, only on the work-conserving property).
	RandomOrder
)

// String names the discipline.
func (d Discipline) String() string {
	switch d {
	case FIFO:
		return "fifo"
	case RandomOrder:
		return "random-order"
	default:
		return fmt.Sprintf("discipline(%d)", int(d))
	}
}

// Packet is one message travelling through the network.
type Packet struct {
	ID      int64
	Origin  int   // origin node identifier (topology-specific meaning)
	Dest    int   // destination node identifier
	Path    []int // dense arc indices remaining to traverse, in order
	GenTime float64
	Class   int // free-form tag (e.g. Valiant phase), reported per class
	hop     int
	// enqueuedAt is the time the packet joined its current arc's queue; it
	// feeds the per-group waiting-time statistics.
	enqueuedAt float64
	// pooled marks packets obtained from AcquirePacket; only those are
	// recycled onto the free list when delivered.
	pooled bool
}

// Config describes a System.
type Config struct {
	// NumArcs is the number of servers (arcs) in the network.
	NumArcs int
	// NumGroups is the number of statistics groups (hypercube dimensions,
	// butterfly level/kind pairs, ...), laid out as GroupShift describes.
	// Zero means one group.
	NumGroups int
	// ServiceTime is the deterministic transmission time per arc; the paper
	// uses 1 everywhere and that is the default when zero.
	ServiceTime float64
	// Discipline selects the queueing discipline at each arc.
	Discipline Discipline
	// Seed drives the randomness used by the RandomOrder discipline.
	Seed uint64
	// Measurement selects the optional measurements.
	Measurement
	// Faults is the fault model; the zero value means a faultless network.
	Faults
}

// GroupShift returns the shift that maps an arc index to its statistics
// group, group = arc >> shift. Groups are contiguous blocks of
// numArcs/numGroups arcs, and the block must be a power of two: that is the
// layout of both topologies' arc indices — a hypercube arc is
// (dimension-1)·2^d + node, one group per dimension; a butterfly arc is
// ((level-1)·2 + kind)·2^d + row, one group per level and arc kind. Both
// kernels group arcs by it. A single group covers any number of arcs.
func GroupShift(numArcs, numGroups int) uint {
	if numGroups <= 1 {
		return bits.UintSize - 1 // every arc index shifts to 0
	}
	block := numArcs / numGroups
	if block*numGroups != numArcs || block&(block-1) != 0 {
		panic(fmt.Sprintf("network: NumArcs=%d does not split into NumGroups=%d contiguous power-of-two blocks of arcs",
			numArcs, numGroups))
	}
	return uint(bits.TrailingZeros(uint(block)))
}

// Faults is the fault model of both store-and-forward kernels: Config and
// slotsim.Config embed it, so a resolved plan is handed to either kernel as
// one value and the zero value clears it on a recycled config.
type Faults struct {
	// ArcFailProb is the probability that any single transmission fails and
	// drops its packet, drawn at each service completion from the dedicated
	// fault stream (xrand.StreamFault of Seed) — exactly one draw per
	// completion, in completion order. Zero disables the draw entirely,
	// keeping faultless runs byte-identical.
	ArcFailProb float64
	// BufferCapacity, when positive, bounds each arc's waiting queue (the
	// packet in service is not counted); an arrival at a full queue is
	// dropped. Zero means infinite buffers.
	BufferCapacity int
	// Outages schedules link outage windows, sorted by start time and
	// non-overlapping. A down arc finishes its in-flight transmission but
	// starts no new one until the window ends; its queue keeps accepting
	// packets (subject to BufferCapacity).
	Outages []Outage
}

// Outage is one resolved link outage window [From, Until) over an explicit,
// ascending arc index set. It is the kernel-level currency shared by the
// event-driven and slot-stepped kernels (sim resolves spec-level outage
// fractions into this form once, so both kernels see identical arc sets).
type Outage struct {
	From  float64
	Until float64
	Arcs  []int32
}

// arcState is the per-arc queue and busy/idle state.
type arcState struct {
	queue     ringbuf.Ring[*Packet]
	inService *Packet
	arrivals  int64
	busySince float64
	busyTime  float64
}

// Typed-event kinds of the System handler. evComplete's owner is the arc
// index; the outage kinds' owner is the index into Config.Outages.
const (
	evComplete int32 = iota
	evOutageStart
	evOutageEnd
)

// maxDenseClass bounds the packet classes tracked in a dense slice instead of
// a map; the experiments use at most a handful of classes (Valiant phases,
// deflection priorities), so per-delivery map lookups would be pure overhead.
const maxDenseClass = 16

// System simulates a set of unit-service arcs fed with packets. It owns the
// event calendar; traffic sources schedule injection events on Sim.
type System struct {
	Sim *des.Simulator

	cfg     Config
	handler des.HandlerID
	svcCh   des.ChannelID // completions all use the same fixed ServiceTime
	arcs    []arcState
	// groupShift maps an arc to its statistics group (see GroupShift).
	groupShift uint
	rng        *xrand.Rand
	// faultRNG is the dedicated transient-fault stream; it is consumed only
	// when cfg.ArcFailProb > 0 (exactly one draw per service completion).
	faultRNG *xrand.Rand
	// arcDown marks arcs inside an active outage window; nil when the run has
	// no outages, so the faultless hot path costs one nil check.
	arcDown []bool
	nextID  int64
	// pool is the free list of delivered pooled packets (see AcquirePacket).
	pool []*Packet

	// OnDeliver, when non-nil, is called for every packet that reaches its
	// destination, after statistics have been recorded. Pooled packets are
	// recycled when the callback returns, so it must not retain p.
	OnDeliver func(p *Packet, now float64)

	// col is the measurement state; delay statistics include only packets
	// generated at or after the measurement start.
	col Collector

	// Snapshot scratch: per-group arc aggregates, reused across runs.
	snapArcs     []int
	snapBusy     []float64
	snapArrivals []float64
}

// NewSystem builds a System from the configuration.
func NewSystem(cfg Config) *System {
	s := &System{
		Sim:      des.New(),
		rng:      xrand.New(0),
		faultRNG: xrand.New(0),
	}
	s.handler = s.Sim.RegisterHandler(s)
	s.svcCh = s.Sim.NewChannel()
	s.configure(cfg)
	return s
}

// Reset rebuilds the system in place for a new run with the given
// configuration, reusing the event calendar, arc storage, per-arc rings, the
// packet pool and all measurement state; a pooled System therefore performs
// no per-replication setup allocations in steady state. The embedded
// simulator keeps its registered handlers and channels across the reset, so
// traffic sources that registered handlers on Sim may keep using their ids.
// Packets still queued from the previous run are recycled into the pool.
func (s *System) Reset(cfg Config) {
	for i := range s.arcs {
		a := &s.arcs[i]
		if a.inService != nil {
			s.recycle(a.inService)
			a.inService = nil
		}
		for a.queue.Len() > 0 {
			s.recycle(a.queue.PopFront())
		}
		a.arrivals, a.busySince, a.busyTime = 0, 0, 0
	}
	s.Sim.Reset()
	s.nextID = 0
	s.OnDeliver = nil
	s.configure(cfg)
}

// recycle returns a leftover pooled packet to the free list (caller-built
// packets are dropped, as on delivery).
func (s *System) recycle(p *Packet) {
	if p.pooled {
		s.releasePacket(p)
	}
}

// configure validates cfg and (re-)initialises the config-dependent state.
func (s *System) configure(cfg Config) {
	if cfg.NumArcs <= 0 {
		panic(fmt.Sprintf("network: NumArcs must be positive, got %d", cfg.NumArcs))
	}
	if cfg.ServiceTime == 0 {
		cfg.ServiceTime = 1
	}
	if cfg.ServiceTime < 0 {
		panic(fmt.Sprintf("network: negative service time %v", cfg.ServiceTime))
	}
	if cfg.NumGroups <= 0 {
		cfg.NumGroups = 1
	}
	s.groupShift = GroupShift(cfg.NumArcs, cfg.NumGroups)
	s.cfg = cfg
	if cap(s.arcs) < cfg.NumArcs {
		s.arcs = make([]arcState, cfg.NumArcs)
	} else {
		s.arcs = s.arcs[:cfg.NumArcs]
	}
	s.rng.SeedStream(cfg.Seed, 0xD15C)
	s.faultRNG.SeedStream(cfg.Seed, xrand.StreamFault)
	if len(cfg.Outages) > 0 {
		if cap(s.arcDown) < cfg.NumArcs {
			s.arcDown = make([]bool, cfg.NumArcs)
		} else {
			s.arcDown = s.arcDown[:cfg.NumArcs]
			for i := range s.arcDown {
				s.arcDown[i] = false
			}
		}
		// Outage transitions are scheduled before any source or completion
		// event, so their sequence numbers are the lowest: at equal times a
		// transition always fires first, matching the slot-stepped kernel's
		// transitions-before-events rule.
		for i, o := range cfg.Outages {
			s.Sim.ScheduleEventAt(o.From, s.handler, evOutageStart, int32(i))
			s.Sim.ScheduleEventAt(o.Until, s.handler, evOutageEnd, int32(i))
		}
	} else {
		s.arcDown = nil
	}
	s.col.Reset(cfg.NumGroups, cfg.Measurement)
}

// HandleEvent dispatches the system's typed calendar events.
func (s *System) HandleEvent(kind, owner int32) {
	switch kind {
	case evComplete:
		s.completeService(int(owner))
	case evOutageStart:
		for _, arc := range s.cfg.Outages[owner].Arcs {
			s.arcDown[arc] = true
		}
	case evOutageEnd:
		now := s.Sim.Now()
		for _, arc := range s.cfg.Outages[owner].Arcs {
			s.arcDown[arc] = false
			// Restart idle arcs with queued work, in ascending arc order (the
			// slot-stepped kernel restarts in the same order).
			a := &s.arcs[arc]
			if a.inService == nil && a.queue.Len() > 0 {
				s.startService(int(arc), s.nextFromQueue(a), now)
			}
		}
	default:
		panic(fmt.Sprintf("network: unknown event kind %d", kind))
	}
}

// AcquirePacket returns a packet from the free list of delivered packets, or
// a new one when the list is empty. Acquired packets are recycled
// automatically when delivered, so a steady-state source injects without
// allocating; the Path slice keeps its capacity and is returned with length
// zero. Packets built directly with &Packet{} are never recycled.
func (s *System) AcquirePacket() *Packet {
	if n := len(s.pool); n > 0 {
		p := s.pool[n-1]
		s.pool[n-1] = nil
		s.pool = s.pool[:n-1]
		return p
	}
	return &Packet{pooled: true}
}

// releasePacket resets a delivered pooled packet and returns it to the free
// list.
func (s *System) releasePacket(p *Packet) {
	*p = Packet{Path: p.Path[:0], pooled: true}
	s.pool = append(s.pool, p)
}

// NewPacketID returns a fresh packet identifier.
func (s *System) NewPacketID() int64 {
	id := s.nextID
	s.nextID++
	return id
}

// Inject introduces a packet into the network at the current simulation time.
// A packet whose path is empty (origin equals destination) is delivered
// immediately with zero delay, exactly as in the model.
func (s *System) Inject(p *Packet) {
	now := s.Sim.Now()
	p.GenTime = now
	p.hop = 0
	s.col.CountGenerated()
	if len(p.Path) == 0 {
		s.recordDelivery(p, now)
		return
	}
	s.col.PacketEntered(now)
	s.enqueue(p, now)
}

// enqueue places the packet at its current arc and starts service if the arc
// is idle (and not inside an outage window). With a finite BufferCapacity, a
// packet that would join a full queue is dropped instead.
func (s *System) enqueue(p *Packet, now float64) {
	idx := p.Path[p.hop]
	if idx < 0 || idx >= len(s.arcs) {
		panic(fmt.Sprintf("network: packet %d path refers to arc %d outside [0,%d)", p.ID, idx, len(s.arcs)))
	}
	a := &s.arcs[idx]
	if a.inService != nil || (s.arcDown != nil && s.arcDown[idx]) {
		if s.cfg.BufferCapacity > 0 && a.queue.Len() >= s.cfg.BufferCapacity {
			s.drop(p, now, true)
			return
		}
		a.arrivals++
		p.enqueuedAt = now
		a.queue.Push(p)
	} else {
		a.arrivals++
		p.enqueuedAt = now
		s.startService(idx, p, now)
	}
	if !s.cfg.SkipGroupPopulation {
		s.col.GroupPopulationAdd(int32(idx>>s.groupShift), now, +1)
	}
}

// drop discards a packet that is already inside the network: a transient
// transmission fault (overflow = false) or a full finite buffer
// (overflow = true).
func (s *System) drop(p *Packet, now float64, overflow bool) {
	s.col.PacketLeft(now)
	s.col.Drop(p.GenTime, overflow)
	if p.pooled {
		s.releasePacket(p)
	}
}

// nextFromQueue removes the next packet to serve from a's queue according to
// the configured discipline. The queue must be non-empty.
func (s *System) nextFromQueue(a *arcState) *Packet {
	switch s.cfg.Discipline {
	case FIFO:
		return a.queue.PopFront()
	case RandomOrder:
		return a.queue.RemoveSwap(s.rng.Intn(a.queue.Len()))
	default:
		panic("network: unknown discipline")
	}
}

// startService begins transmitting p on arc idx.
func (s *System) startService(idx int, p *Packet, now float64) {
	a := &s.arcs[idx]
	a.inService = p
	a.busySince = now
	s.Sim.ScheduleChannel(s.svcCh, s.cfg.ServiceTime, s.handler, evComplete, int32(idx))
}

// completeService finishes the transmission in progress on arc idx, advances
// the packet and starts the next queued transmission.
func (s *System) completeService(idx int) {
	now := s.Sim.Now()
	a := &s.arcs[idx]
	p := a.inService
	if p == nil {
		panic(fmt.Sprintf("network: completion on idle arc %d", idx))
	}
	a.inService = nil
	a.busyTime += now - a.busySince
	g := int32(idx >> s.groupShift)
	if !s.cfg.SkipGroupPopulation {
		s.col.GroupPopulationAdd(g, now, -1)
	}
	s.col.ArcWait(g, now, p.enqueuedAt, p.GenTime)

	// Start the next packet on this arc (never inside an outage window: the
	// outage-end handler restarts the arc).
	if a.queue.Len() > 0 && (s.arcDown == nil || !s.arcDown[idx]) {
		s.startService(idx, s.nextFromQueue(a), now)
	}

	// Transient fault: one dedicated-stream draw per completed transmission
	// decides whether this transmission failed, dropping the packet.
	if s.cfg.ArcFailProb > 0 && s.faultRNG.Float64() < s.cfg.ArcFailProb {
		s.drop(p, now, false)
		return
	}

	// Advance the completed packet.
	p.hop++
	if p.hop >= len(p.Path) {
		s.col.PacketLeft(now)
		s.recordDelivery(p, now)
		return
	}
	s.enqueue(p, now)
}

// recordDelivery updates delay statistics, invokes the delivery callback and
// recycles pooled packets.
func (s *System) recordDelivery(p *Packet, now float64) {
	s.col.Deliver(now, p.GenTime, len(p.Path), p.Class)
	if s.OnDeliver != nil {
		s.OnDeliver(p, now)
	}
	if p.pooled {
		s.releasePacket(p)
	}
}

// StartMeasurement discards the warm-up transient: delay statistics will only
// include packets generated from now on, and time-weighted statistics restart
// from the current state.
func (s *System) StartMeasurement() {
	now := s.Sim.Now()
	s.col.StartMeasurement(now)
	for i := range s.arcs {
		s.arcs[i].arrivals = 0
		s.arcs[i].busyTime = 0
		if s.arcs[i].inService != nil {
			s.arcs[i].busySince = now
		}
	}
}

// Metrics is the measurement snapshot returned by Snapshot.
type Metrics struct {
	// Elapsed is the length of the measurement window.
	Elapsed float64
	// MeanDelay is the average sojourn time of packets generated and
	// delivered inside the measurement window.
	MeanDelay float64
	// DelayStdDev is the standard deviation of those sojourn times.
	DelayStdDev float64
	// DelayCI95 is the 95% confidence half-width of MeanDelay (i.i.d.
	// approximation; the harness uses independent replications for rigorous
	// intervals).
	DelayCI95 float64
	// MaxDelay is the largest observed sojourn time.
	MaxDelay float64
	// MeanHops is the average path length of delivered packets.
	MeanHops float64
	// Delivered is the number of packets counted in the delay statistics.
	Delivered int64
	// Generated is the number of packets injected during the window.
	Generated int64
	// DroppedFault is the number of measured packets lost to transient
	// transmission faults (Config.ArcFailProb). Omitted from JSON when zero
	// so faultless results stay byte-identical to pre-fault output.
	DroppedFault int64 `json:",omitempty"`
	// DroppedOverflow is the number of measured packets lost to full finite
	// buffers (Config.BufferCapacity); JSON omission as for DroppedFault.
	DroppedOverflow int64 `json:",omitempty"`
	// Throughput is Delivered divided by Elapsed.
	Throughput float64
	// MeanPopulation is the time-averaged number of packets in flight.
	MeanPopulation float64
	// MaxPopulation is the peak number of packets in flight.
	MaxPopulation float64
	// InFlight is the number of packets still in the network at the end.
	InFlight int64
	// GroupMeanPopulation is the time-averaged population per statistics
	// group (e.g. per hypercube dimension).
	GroupMeanPopulation []float64
	// GroupArcUtilization is the mean fraction of busy time per arc in each
	// group.
	GroupArcUtilization []float64
	// GroupArrivalRate is the mean arrival rate per arc in each group.
	GroupArrivalRate []float64
	// GroupMeanWait is the mean time from joining an arc's queue to
	// finishing transmission, per group (populated only with
	// Measurement.TrackPerHopWait; the minimum possible value is the service
	// time).
	GroupMeanWait []float64
	// MeanDelayByClass reports mean delay per packet Class.
	MeanDelayByClass map[int]float64
	// PopulationSlope is the least-squares slope of the population trace
	// (packets per unit time); requires Measurement.TraceInterval.
	PopulationSlope float64
	// LittleLawError is the relative discrepancy |L - lambda*W|/L over the
	// measurement window, an internal consistency check.
	LittleLawError float64
}

// DelayQuantile returns the exact q-quantile of measured delays; it requires
// Measurement.TrackQuantiles and returns NaN otherwise.
func (s *System) DelayQuantile(q float64) float64 { return s.col.DelayQuantile(q) }

// DelaySample returns the measured per-packet delays when
// Measurement.TrackQuantiles was set (nil otherwise); see Collector.DelaySample for the aliasing and
// ordering caveats.
func (s *System) DelaySample() []float64 { return s.col.DelaySample() }

// DelaySketch returns the delay quantile sketch when Measurement.SketchAlpha
// was set (nil otherwise); the pointer aliases collector state, so callers
// that outlive the run must Clone it.
func (s *System) DelaySketch() *stats.DDSketch { return s.col.DelaySketch() }

// Snapshot closes the measurement window at the current simulation time and
// returns the collected metrics. The simulation can continue afterwards.
func (s *System) Snapshot() Metrics {
	now := s.Sim.Now()
	// Per-group utilisation and arrival-rate aggregates, accumulated in
	// arc-index order (the order matters bit-for-bit: the slot-stepped kernel
	// aggregates its arcs the same way so cross-kernel snapshots agree).
	n := s.cfg.NumGroups
	if cap(s.snapArcs) < n {
		s.snapArcs = make([]int, n)
		s.snapBusy = make([]float64, n)
		s.snapArrivals = make([]float64, n)
	}
	s.snapArcs = s.snapArcs[:n]
	s.snapBusy = s.snapBusy[:n]
	s.snapArrivals = s.snapArrivals[:n]
	for g := 0; g < n; g++ {
		s.snapArcs[g] = 0
		s.snapBusy[g] = 0
		s.snapArrivals[g] = 0
	}
	for i := range s.arcs {
		g := i >> s.groupShift
		s.snapArcs[g]++
		busy := s.arcs[i].busyTime
		if s.arcs[i].inService != nil {
			busy += now - s.arcs[i].busySince
		}
		s.snapBusy[g] += busy
		s.snapArrivals[g] += float64(s.arcs[i].arrivals)
	}
	return s.col.Snapshot(now, s.snapArcs, s.snapBusy, s.snapArrivals)
}

// QueueLength returns the number of packets at arc idx, including the one in
// service.
func (s *System) QueueLength(idx int) int {
	a := &s.arcs[idx]
	n := a.queue.Len()
	if a.inService != nil {
		n++
	}
	return n
}
