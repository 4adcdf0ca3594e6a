// Package network holds what the store-and-forward model's simulators
// share under the paper's communication assumptions (§1.1): every directed
// arc transmits one packet at a time with a unit transmission time, nodes
// have infinite buffers, a node may transmit on all its output ports
// simultaneously, and packets queue per output arc. It defines the
// queueing Discipline, the fault model (Faults, Outage), the GroupShift rule
// that groups arcs into statistics blocks, the Measurement settings, and the
// Collector that turns a run into Metrics. The kernel that runs the model
// is internal/slotsim; internal/oracle is its naive reference.
package network

import (
	"fmt"
	"math/bits"
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

// GroupShift returns the shift that maps an arc index to its statistics
// group, group = arc >> shift. Groups are contiguous blocks of
// numArcs/numGroups arcs, and the block must be a power of two: that is the
// layout of both topologies' arc indices — a hypercube arc is
// (dimension-1)·2^d + node, one group per dimension; a butterfly arc is
// ((level-1)·2 + kind)·2^d + row, one group per level and arc kind. A single
// group covers any number of arcs.
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

// Faults is the fault model of the store-and-forward simulators:
// slotsim.Config and oracle.Config embed it, so a resolved plan is handed
// over as one value and the zero value clears it on a recycled config.
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
// ascending arc index set (sim resolves spec-level outage fractions into
// this form once, during validation).
type Outage struct {
	From  float64
	Until float64
	Arcs  []int32
}

// Metrics is the measurement snapshot returned by Collector.Snapshot.
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
	// MeanDelayByClass reports the mean delay per packet class; every
	// packet is of class 0.
	MeanDelayByClass map[int]float64
	// PopulationSlope is the least-squares slope of the population trace
	// (packets per unit time); requires Measurement.TraceInterval.
	PopulationSlope float64
	// LittleLawError is the relative discrepancy |L - lambda*W|/L over the
	// measurement window, an internal consistency check.
	LittleLawError float64
}
