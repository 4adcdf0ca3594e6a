// Package oracle is the reference simulator of the paper's §2 model, written
// for plainness rather than speed: every directed arc is a server with unit
// transmission time and an infinite FIFO buffer (or the RandomOrder ablation,
// and the fault model's finite buffers, transient faults and outages), and a
// packet crosses the arcs of its route one after another. Arc queues are
// plain slices, events sit in a container/heap calendar, and the run keeps
// its own counts and per-packet delays. There are no pools, rings, bulk
// samplers or shared statistics code, so a test that compares
// internal/slotsim with this package catches a bug in either that the other
// does not share. Only tests import it.
//
// The sample path is fixed by the seed. Arrivals use the streams the
// workload sources use (payload stream 0 and its timing stream), drawn one
// scalar at a time: an exponential gap per arrival in continuous time, a
// Poisson batch size per slot in slotted time, then per packet a uniform
// origin and its route from the payload stream. Transient faults draw one
// Float64 per completion from xrand.StreamFault; RandomOrder draws one Intn
// per service start from a non-empty waiting queue, from
// xrand.StreamDiscipline.
//
// Events fire in (time, seq) order, seq counting schedule calls: the
// calendar is one container/heap of events ordered by that pair, so
// simultaneous events fire in schedule order. Outage boundaries are
// scheduled first (each window's start, then its end): at equal times they
// fire before everything else, and a window's end before the next one's
// start. A completion is
// scheduled when its service starts; the next arrival or slot tick is
// scheduled after the current one's packets are injected. The measurement
// window is [w, T]: measurement starts before any event at the warm-up
// instant w, so those events are measured, and events after the horizon T
// never fire.
package oracle

import (
	"container/heap"
	"fmt"
	"math"

	"repro/internal/network"
	"repro/internal/workload"
	"repro/internal/xrand"
)

// Config describes one run.
type Config struct {
	// NumArcs is the number of arcs; routes name arcs by index.
	NumArcs int
	// Sources is the number of origins; each arrival picks one uniformly.
	Sources int
	// Lambda is the arrival rate per source (zero: no arrivals).
	Lambda float64
	// Slotted selects the §3.4 arrival model: a Poisson(Sources·Lambda·Tau)
	// batch at every slot instant 0, Tau, 2·Tau, ... up to the horizon.
	// Otherwise arrivals form one Poisson stream of rate Sources·Lambda.
	Slotted bool
	Tau     float64
	// Horizon ends the run; Warmup is the instant measurement starts.
	Horizon, Warmup float64
	Seed            uint64
	// Discipline picks the waiting packet an arc serves next.
	Discipline network.Discipline
	network.Faults
	// Route returns the route of a packet from origin, drawing what it
	// needs from rng, the payload stream.
	Route func(origin int, rng *xrand.Rand) []int
	// Initial lists routes injected at time zero, before any arrival.
	Initial [][]int
}

// Result is what one run measured. Only packets generated at or after the
// warm-up and decided after it count: a packet is decided when it is
// delivered or dropped.
type Result struct {
	// Generated counts the packets injected after the warm-up.
	Generated int64
	// Delivered, DroppedFault and DroppedOverflow count the packets
	// generated at or after the warm-up by their fate.
	Delivered, DroppedFault, DroppedOverflow int64
	// InFlight counts the packets still in the network at the horizon.
	InFlight int64
	// Delays holds the delivered packets' delays in delivery order.
	Delays []float64
	// Utilization holds each arc's busy fraction of the window [w, T]: the
	// time it spent transmitting inside the window, over T - w. A service
	// that straddles w counts from w, and one still under way at T up to T.
	Utilization []float64
}

// Delivery is one packet reaching its destination: its index in injection
// order and the time.
type Delivery struct {
	Packet int
	Time   float64
}

// Event kinds.
const (
	evOutageStart = iota
	evOutageEnd
	evArrival
	evTick
	evComplete
)

type event struct {
	time float64
	seq  int
	kind int
	x    int // the arc of a completion, the outage of a boundary
}

// calendar is a container/heap of events ordered by (time, seq).
type calendar []event

func (c calendar) Len() int { return len(c) }
func (c calendar) Less(i, j int) bool {
	return c[i].time < c[j].time || c[i].time == c[j].time && c[i].seq < c[j].seq
}
func (c calendar) Swap(i, j int) { c[i], c[j] = c[j], c[i] }
func (c *calendar) Push(x any)   { *c = append(*c, x.(event)) }
func (c *calendar) Pop() any {
	old := *c
	e := old[len(old)-1]
	*c = old[:len(old)-1]
	return e
}

type packet struct {
	route []int
	hop   int
	gen   float64
}

type arc struct {
	queue     []int   // waiting packets, in the discipline's order
	inService int     // -1 when idle
	start     float64 // the start of the service under way
	down      bool
}

// run is the state of one simulation.
type run struct {
	cfg       Config
	now       float64
	cal       calendar
	seq       int // schedule calls so far
	arcs      []arc
	busy      []float64 // per-arc service time inside the window
	pkts      []packet
	payload   xrand.Rand
	gaps      xrand.Rand // inter-arrival gaps or slot batch sizes
	faults    xrand.Rand
	order     xrand.Rand // RandomOrder draws
	measuring bool
	live      int64
	res       Result
	// deliveries lists every delivery when non-nil.
	deliveries []Delivery
}

// Run simulates cfg up to its horizon.
func Run(cfg Config) Result {
	r := newRun(cfg, false)
	r.loop()
	r.res.InFlight = r.live
	window := cfg.Horizon - cfg.Warmup
	for a := range r.arcs {
		if r.arcs[a].inService >= 0 {
			r.credit(a, cfg.Horizon)
		}
		if window > 0 {
			r.busy[a] /= window
		}
	}
	r.res.Utilization = r.busy
	return r.res
}

// credit adds to arc a's busy time the part of its service under way that
// falls inside the window and before end.
func (r *run) credit(a int, end float64) {
	if b := end - max(r.arcs[a].start, r.cfg.Warmup); b > 0 {
		r.busy[a] += b
	}
}

// Batch injects one packet per route at time zero into a fault-free FIFO
// network of numArcs arcs, runs until every packet is delivered, and returns
// the deliveries in delivery order.
func Batch(numArcs int, routes [][]int) []Delivery {
	r := newRun(Config{NumArcs: numArcs, Horizon: math.Inf(1), Initial: routes}, true)
	r.loop()
	return r.deliveries
}

func newRun(cfg Config, record bool) *run {
	if cfg.NumArcs <= 0 {
		panic(fmt.Sprintf("oracle: NumArcs must be positive, got %d", cfg.NumArcs))
	}
	if cfg.Lambda > 0 && (cfg.Sources <= 0 || cfg.Route == nil) {
		panic("oracle: arrivals need positive Sources and a Route")
	}
	r := &run{
		cfg:  cfg,
		arcs: make([]arc, cfg.NumArcs),
		busy: make([]float64, cfg.NumArcs),
		pkts: make([]packet, 0, len(cfg.Initial)),
	}
	if record {
		r.deliveries = make([]Delivery, 0, len(cfg.Initial))
	}
	r.payload.SeedStream(cfg.Seed, 0)
	r.gaps.SeedStream(cfg.Seed, workload.TimingStream)
	r.faults.SeedStream(cfg.Seed, xrand.StreamFault)
	r.order.SeedStream(cfg.Seed, xrand.StreamDiscipline)
	for i := range r.arcs {
		r.arcs[i].inService = -1
	}
	for i, o := range cfg.Outages {
		r.schedule(o.From, evOutageStart, i)
		r.schedule(o.Until, evOutageEnd, i)
	}
	for _, route := range cfg.Initial {
		r.inject(route)
	}
	if cfg.Lambda > 0 {
		if cfg.Slotted {
			r.schedule(0, evTick, 0)
		} else {
			r.scheduleArrival()
		}
	}
	return r
}

func (r *run) schedule(t float64, kind, x int) {
	heap.Push(&r.cal, event{t, r.seq, kind, x})
	r.seq++
}

func (r *run) rate() float64 { return float64(r.cfg.Sources) * r.cfg.Lambda }

// scheduleArrival draws the next gap of the aggregate Poisson stream.
func (r *run) scheduleArrival() {
	if t := r.now + r.gaps.Exp(r.rate()); t <= r.cfg.Horizon {
		r.schedule(t, evArrival, 0)
	}
}

func (r *run) loop() {
	for len(r.cal) > 0 && r.cal[0].time <= r.cfg.Horizon {
		e := heap.Pop(&r.cal).(event)
		r.now = e.time
		if !r.measuring && r.now >= r.cfg.Warmup {
			r.measuring = true
		}
		r.fire(e)
	}
}

func (r *run) fire(e event) {
	switch e.kind {
	case evOutageStart:
		for _, a := range r.cfg.Outages[e.x].Arcs {
			r.arcs[a].down = true
		}
	case evOutageEnd:
		for _, a := range r.cfg.Outages[e.x].Arcs {
			r.arcs[a].down = false
			if r.arcs[a].inService < 0 && len(r.arcs[a].queue) > 0 {
				r.serveNext(int(a))
			}
		}
	case evArrival:
		r.arrive()
		r.scheduleArrival()
	case evTick:
		for n := r.gaps.Poisson(r.rate() * r.cfg.Tau); n > 0; n-- {
			r.arrive()
		}
		if t := r.now + r.cfg.Tau; t <= r.cfg.Horizon {
			r.schedule(t, evTick, 0)
		}
	case evComplete:
		r.complete(e.x)
	}
}

// arrive generates one packet at a uniformly drawn origin.
func (r *run) arrive() {
	origin := int(r.payload.Uint64n(uint64(r.cfg.Sources)))
	r.inject(r.cfg.Route(origin, &r.payload))
}

func (r *run) inject(route []int) {
	id := len(r.pkts)
	r.pkts = append(r.pkts, packet{route: route, gen: r.now})
	if r.measuring {
		r.res.Generated++
	}
	if len(route) == 0 {
		r.deliver(id)
		return
	}
	r.live++
	r.enqueue(id)
}

// enqueue puts packet id on the arc of its current hop: into service when
// the arc is idle and up, into the queue otherwise, or out of the network
// when a finite buffer is full.
func (r *run) enqueue(id int) {
	p := &r.pkts[id]
	a := &r.arcs[p.route[p.hop]]
	switch {
	case a.inService < 0 && !a.down:
		r.startService(p.route[p.hop], id)
	case r.cfg.BufferCapacity > 0 && len(a.queue) >= r.cfg.BufferCapacity:
		r.drop(id, true)
	default:
		a.queue = append(a.queue, id)
	}
}

func (r *run) startService(a, id int) {
	r.arcs[a].inService = id
	r.arcs[a].start = r.now
	r.schedule(r.now+1, evComplete, a)
}

// serveNext starts the next waiting packet on arc a.
func (r *run) serveNext(a int) {
	q := r.arcs[a].queue
	var id int
	if r.cfg.Discipline == network.RandomOrder {
		i := r.order.Intn(len(q))
		id = q[i]
		q[i] = q[len(q)-1]
		q = q[:len(q)-1]
	} else {
		id, q = q[0], q[1:]
	}
	r.arcs[a].queue = q
	r.startService(a, id)
}

// complete ends the transmission on arc a: the arc takes its next packet,
// and the packet moves on unless the transmission failed.
func (r *run) complete(a int) {
	id := r.arcs[a].inService
	r.credit(a, r.now)
	r.arcs[a].inService = -1
	if len(r.arcs[a].queue) > 0 && !r.arcs[a].down {
		r.serveNext(a)
	}
	if r.cfg.ArcFailProb > 0 && r.faults.Float64() < r.cfg.ArcFailProb {
		r.drop(id, false)
		return
	}
	p := &r.pkts[id]
	p.hop++
	if p.hop == len(p.route) {
		r.live--
		r.deliver(id)
		return
	}
	r.enqueue(id)
}

// counts reports whether the fate of a packet generated at gen is measured.
func (r *run) counts(gen float64) bool { return r.measuring && gen >= r.cfg.Warmup }

func (r *run) deliver(id int) {
	if r.deliveries != nil {
		r.deliveries = append(r.deliveries, Delivery{id, r.now})
	}
	if gen := r.pkts[id].gen; r.counts(gen) {
		r.res.Delivered++
		r.res.Delays = append(r.res.Delays, r.now-gen)
	}
}

func (r *run) drop(id int, overflow bool) {
	r.live--
	if !r.counts(r.pkts[id].gen) {
		return
	}
	if overflow {
		r.res.DroppedOverflow++
	} else {
		r.res.DroppedFault++
	}
}
