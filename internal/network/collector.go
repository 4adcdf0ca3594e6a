package network

import (
	"fmt"
	"math"

	"repro/internal/stats"
)

// Collector owns the measurement state of one packet-level simulation run:
// delay and hop tallies, per-class and per-group statistics, time-weighted
// population processes, the optional exact delay sample and the population
// trace. It is the single statistics sink shared by the event-driven System
// and the slot-stepped fast-path kernel (internal/slotsim): both kernels feed
// the same collector operations in the same order, which is what makes their
// results byte-identical — float accumulation is order-sensitive, so sharing
// the arithmetic (and not just the schema) is load-bearing for the
// cross-kernel golden tests.
//
// All state is reusable in place: Reset re-initialises the collector for a
// new run without discarding backing storage, so pooled simulators perform no
// measurement allocations in steady state.
type Collector struct {
	numGroups   int
	measureFrom float64
	delay       stats.Tally
	// mixed is false while every measured delivery has class 0 — the common
	// case, where the class-0 tally would be a bit-for-bit copy of delay and
	// is therefore elided from the hot path. The first non-zero class
	// snapshots delay into clsDense[0] and switches to per-class tallies.
	mixed      bool
	clsDense   [maxDenseClass]stats.Tally
	delayByCls map[int]*stats.Tally // classes outside [0, maxDenseClass)
	hopCount   stats.Tally

	sampleDelays bool
	delaySample  stats.Quantiles

	sketchOn bool
	sketch   stats.DDSketch

	population stats.TimeWeighted
	groupPop   []groupPopulation
	groupWait  []stats.Tally
	perHopWait bool

	departures      int64
	generated       int64
	inFlight        int64
	droppedFault    int64
	droppedOverflow int64

	popTrace   stats.Series
	traceEvery float64
	lastTrace  float64
}

// Measurement selects the optional measurements of a run. Both kernels'
// configs embed it (Config and slotsim.Config) and hand it to
// Collector.Reset, which applies it; the zero value measures only the
// always-on statistics.
type Measurement struct {
	// TrackQuantiles stores every measured delay so exact quantiles can be
	// reported; it costs one float64 per delivered packet.
	TrackQuantiles bool
	// SketchAlpha, when positive, feeds every measured delay into a mergeable
	// DDSketch with that relative-error bound, so tail quantiles can be
	// reported with bounded memory (O(log(max delay)/alpha) buckets instead
	// of one float per delivered packet). It is independent of
	// TrackQuantiles; large-scale runs enable only the sketch.
	SketchAlpha float64
	// TrackPerHopWait records, for every arc traversal, the time from joining
	// the arc's queue to finishing transmission, aggregated per statistics
	// group (the per-dimension contention profile of §3.3).
	TrackPerHopWait bool
	// TraceInterval, when positive, records the total population every
	// TraceInterval time units (the stability experiments' growth slope).
	TraceInterval float64
	// SkipGroupPopulation disables the per-group time-weighted population
	// processes (two updates per hop on the hot path); Metrics then reports
	// zero GroupMeanPopulation. The kernels test it before each update.
	// Callers that never read the per-group populations (the butterfly
	// experiments) set it on both kernels: cross-kernel identity requires
	// the settings to match.
	SkipGroupPopulation bool
}

// Reset re-initialises the collector for a run with numGroups statistics
// groups and the measurements m selects, reusing all backing storage.
func (c *Collector) Reset(numGroups int, m Measurement) {
	if numGroups <= 0 {
		numGroups = 1
	}
	if m.TraceInterval < 0 {
		panic(fmt.Sprintf("network: negative trace interval %v", m.TraceInterval))
	}
	c.numGroups = numGroups
	c.measureFrom = 0
	c.delay = stats.Tally{}
	c.mixed = false
	c.clsDense = [maxDenseClass]stats.Tally{}
	if c.delayByCls == nil {
		c.delayByCls = make(map[int]*stats.Tally)
	} else {
		for k := range c.delayByCls {
			delete(c.delayByCls, k)
		}
	}
	c.hopCount = stats.Tally{}
	c.sampleDelays = m.TrackQuantiles
	c.delaySample.Reset()
	c.sketchOn = m.SketchAlpha > 0
	if c.sketchOn {
		c.sketch.Reset(m.SketchAlpha)
	}
	c.population.Reset(0, 0)
	if cap(c.groupPop) < numGroups {
		c.groupPop = make([]groupPopulation, numGroups)
	} else {
		c.groupPop = c.groupPop[:numGroups]
		clear(c.groupPop)
	}
	c.perHopWait = m.TrackPerHopWait
	switch {
	case !c.perHopWait:
		c.groupWait = c.groupWait[:0]
	case cap(c.groupWait) < numGroups:
		c.groupWait = make([]stats.Tally, numGroups)
	default:
		c.groupWait = c.groupWait[:numGroups]
		clear(c.groupWait)
	}
	c.departures = 0
	c.generated = 0
	c.inFlight = 0
	c.droppedFault = 0
	c.droppedOverflow = 0
	c.popTrace.Reset()
	c.traceEvery = m.TraceInterval
	c.lastTrace = 0
}

// CountGenerated counts one injected packet.
func (c *Collector) CountGenerated() { c.generated++ }

// PacketEntered records a packet entering the network at time now.
func (c *Collector) PacketEntered(now float64) {
	c.inFlight++
	c.setPopulation(now)
}

// PacketLeft records a packet leaving the network at time now.
func (c *Collector) PacketLeft(now float64) {
	c.inFlight--
	c.setPopulation(now)
}

// PopulationAdjust applies a batched net population change at time now. When
// every individual change happened at time now and the population trace is
// disabled, the result is bit-for-bit identical to the equivalent
// PacketEntered/PacketLeft sequence: same-time updates contribute zero area,
// the final value is the same, and — because within one instant completions
// strictly precede injections, so the population moves monotonically down
// then up — the running maximum is determined by the endpoint value. The
// slot-stepped kernel uses this to fold a whole slot's population churn into
// one time-weighted update; the caller must invoke it exactly at the
// instants where the per-packet sequence would have updated the process
// (the area segmentation must match).
func (c *Collector) PopulationAdjust(now float64, delta int64) {
	c.inFlight += delta
	c.population.Set(now, float64(c.inFlight))
}

func (c *Collector) setPopulation(now float64) {
	c.population.Set(now, float64(c.inFlight))
	if c.traceEvery > 0 && now-c.lastTrace >= c.traceEvery {
		c.popTrace.AddPoint(now, float64(c.inFlight))
		c.lastTrace = now
	}
}

// groupPopulation is one statistics group's time-weighted population: the
// value since time last and the area accumulated before it, since the
// measurement start. It performs exactly stats.TimeWeighted.Add's arithmetic
// without its start, backwards-time and maximum checks, which no group
// reader needs.
type groupPopulation struct {
	last, value, area float64
}

// GroupPopulationAdd shifts the population of statistics group g by delta at
// time now.
func (c *Collector) GroupPopulationAdd(g int32, now, delta float64) {
	p := &c.groupPop[g]
	p.area += p.value * (now - p.last)
	p.last = now
	p.value += delta
}

// ArcWait records one completed arc traversal for group g: the time from
// joining the arc's queue (enqueuedAt) to finishing transmission (now). It is
// a no-op unless per-hop waits are enabled and the packet was generated
// inside the measurement window.
func (c *Collector) ArcWait(g int32, now, enqueuedAt, genTime float64) {
	if c.perHopWait && genTime >= c.measureFrom {
		c.groupWait[g].Add(now - enqueuedAt)
	}
}

// Deliver records the delivery at time now of a packet generated at genTime
// with the given total path length and class. Packets generated before the
// measurement window are ignored.
func (c *Collector) Deliver(now, genTime float64, hops, class int) {
	if genTime < c.measureFrom {
		return
	}
	d := now - genTime
	if class != 0 && !c.mixed {
		// Every measured delivery so far was class 0, so the class-0 tally
		// equals the delay tally bit for bit; materialise it and switch to
		// explicit per-class tracking.
		c.clsDense[0] = c.delay
		c.mixed = true
	}
	c.delay.Add(d)
	c.hopCount.Add(float64(hops))
	if c.sampleDelays {
		c.delaySample.Add(d)
	}
	if c.sketchOn {
		c.sketch.Add(d)
	}
	if c.mixed {
		if class >= 0 && class < maxDenseClass {
			c.clsDense[class].Add(d)
		} else {
			t, ok := c.delayByCls[class]
			if !ok {
				t = &stats.Tally{}
				c.delayByCls[class] = t
			}
			t.Add(d)
		}
	}
	c.departures++
}

// Drop records a packet lost at time now: a transient transmission fault
// (overflow = false) or a full finite buffer (overflow = true). Like Deliver,
// drops of packets generated before the measurement window are not counted —
// the caller still owes the population bookkeeping (PacketLeft) either way.
func (c *Collector) Drop(genTime float64, overflow bool) {
	if genTime < c.measureFrom {
		return
	}
	if overflow {
		c.droppedOverflow++
	} else {
		c.droppedFault++
	}
}

// StartMeasurement discards the warm-up transient at time now: delay
// statistics will only include packets generated from now on, and
// time-weighted statistics restart from the current state.
func (c *Collector) StartMeasurement(now float64) {
	c.measureFrom = now
	c.delay = stats.Tally{}
	c.hopCount = stats.Tally{}
	c.mixed = false
	c.clsDense = [maxDenseClass]stats.Tally{}
	for k := range c.delayByCls {
		delete(c.delayByCls, k)
	}
	if c.sampleDelays {
		c.delaySample.Reset()
	}
	if c.sketchOn {
		c.sketch.Clear()
	}
	c.departures = 0
	c.generated = 0
	c.droppedFault = 0
	c.droppedOverflow = 0
	if c.perHopWait {
		for g := range c.groupWait {
			c.groupWait[g] = stats.Tally{}
		}
	}
	c.population.Reset(now, float64(c.inFlight))
	for g := range c.groupPop {
		c.groupPop[g].last, c.groupPop[g].area = now, 0
	}
	c.popTrace.Reset()
	c.lastTrace = now
}

// MeasureFrom returns the start of the measurement window.
func (c *Collector) MeasureFrom() float64 { return c.measureFrom }

// InFlight returns the current number of packets in the network.
func (c *Collector) InFlight() int64 { return c.inFlight }

// DelayQuantile returns the exact q-quantile of measured delays; it requires
// Measurement.TrackQuantiles and returns NaN otherwise.
func (c *Collector) DelayQuantile(q float64) float64 {
	if !c.sampleDelays {
		return math.NaN()
	}
	return c.delaySample.Value(q)
}

// DelaySketch returns the delay quantile sketch when Measurement.SketchAlpha
// was set (nil otherwise). The pointer aliases collector state valid until
// the next Reset: callers that outlive the run must Clone it.
func (c *Collector) DelaySketch() *stats.DDSketch {
	if !c.sketchOn {
		return nil
	}
	return &c.sketch
}

// DelaySample returns the measured per-packet delays when
// Measurement.TrackQuantiles was set (nil otherwise). The slice aliases
// internal storage and is valid until the next run: treat it as read-only.
// Its order is the delivery order until a quantile query partially reorders
// it; identical runs produce the identical sequence either way, which is
// what the cross-kernel golden tests compare.
func (c *Collector) DelaySample() []float64 {
	if !c.sampleDelays {
		return nil
	}
	return c.delaySample.Values()
}

// Snapshot closes the measurement window at time now and assembles the
// metrics. The caller supplies the per-group arc aggregates (arc counts, busy
// time and arrival totals, accumulated in arc-index order), because arc state
// lives with the kernel, not the collector.
func (c *Collector) Snapshot(now float64, groupArcs []int, groupBusy, groupArrivals []float64) Metrics {
	elapsed := now - c.measureFrom
	m := Metrics{
		Elapsed:             elapsed,
		MeanDelay:           c.delay.Mean(),
		DelayStdDev:         c.delay.StdDev(),
		DelayCI95:           c.delay.ConfidenceInterval(0.95),
		MaxDelay:            c.delay.Max(),
		MeanHops:            c.hopCount.Mean(),
		Delivered:           c.departures,
		Generated:           c.generated,
		DroppedFault:        c.droppedFault,
		DroppedOverflow:     c.droppedOverflow,
		MeanPopulation:      c.population.MeanAt(now),
		MaxPopulation:       c.population.Max(),
		InFlight:            c.inFlight,
		GroupMeanPopulation: make([]float64, len(c.groupPop)),
		GroupArcUtilization: make([]float64, len(c.groupPop)),
		GroupArrivalRate:    make([]float64, len(c.groupPop)),
		MeanDelayByClass:    make(map[int]float64, len(c.delayByCls)),
	}
	if elapsed > 0 {
		m.Throughput = float64(c.departures) / elapsed
	}
	for g, p := range c.groupPop {
		// stats.TimeWeighted.MeanAt, with the measurement start as its start.
		m.GroupMeanPopulation[g] = p.value
		if now > c.measureFrom {
			m.GroupMeanPopulation[g] = (p.area + p.value*(now-p.last)) / (now - c.measureFrom)
		}
	}
	for g := range c.groupPop {
		if groupArcs[g] > 0 && elapsed > 0 {
			m.GroupArcUtilization[g] = groupBusy[g] / (float64(groupArcs[g]) * elapsed)
			m.GroupArrivalRate[g] = groupArrivals[g] / (float64(groupArcs[g]) * elapsed)
		}
	}
	if !c.mixed {
		// All measured deliveries were class 0: the class tally is the delay
		// tally (bit for bit), so it was never materialised.
		if c.departures > 0 {
			m.MeanDelayByClass[0] = c.delay.Mean()
		}
	} else {
		for cls := range c.clsDense {
			if c.clsDense[cls].Count() > 0 {
				m.MeanDelayByClass[cls] = c.clsDense[cls].Mean()
			}
		}
		for cls, t := range c.delayByCls {
			m.MeanDelayByClass[cls] = t.Mean()
		}
	}
	if c.perHopWait {
		m.GroupMeanWait = make([]float64, len(c.groupWait))
		for g := range c.groupWait {
			m.GroupMeanWait[g] = c.groupWait[g].Mean()
		}
	}
	if c.traceEvery > 0 {
		m.PopulationSlope = c.popTrace.LinearSlope()
	}
	// Little's law check: L vs (departure rate) * (mean delay).
	if elapsed > 0 && c.departures > 0 {
		lw := m.Throughput * m.MeanDelay
		denom := math.Max(m.MeanPopulation, 1e-12)
		m.LittleLawError = math.Abs(m.MeanPopulation-lw) / denom
	}
	return m
}
