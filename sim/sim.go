// Package sim is the unified scenario API of the library: one
// topology-polymorphic Scenario describes a simulation (topology + traffic +
// routing + discipline + horizon), one Run executes it on the appropriate
// kernel, and one Result carries the measured statistics next to the paper's
// analytic bounds.
//
// Every experiment in the reproduction — and every scenario a user can
// express — shares this shape. A Scenario selects its topology through a
// small sum type (hypercube or butterfly today, with room for more), shares
// one validation/normalization pass across topologies, and round-trips
// through JSON so scenarios can be stored as declarative spec files and
// executed by cmd/run (the full schema is documented in docs/SPEC.md).
//
// Normalization also selects the simulation kernel from the scenario's
// shape. Deflection scenarios (Router == Deflection, the hot-potato
// related-work baseline) run on their own slotted bufferless kernel
// (internal/deflection). Every other scenario — hypercube under either
// arrival model, or butterfly — is store-and-forward: it normalizes to one
// config whose small per-topology part (arc, group and source counts, route
// mode, samplers) is all that differs between the topologies, and runs
// through one pooled runner. FIFO runs use the slot-stepped kernel
// (internal/slotsim, byte-identical to the event calendar on the same seed);
// only the RandomOrder discipline and ForceEventDriven runs use the general
// event-driven calendar (internal/des + internal/network). Result.Kernel
// reports the choice.
//
// Replication is first-class: setting Scenario.Replications runs the
// scenario N times on the sharded parallel engine (internal/engine) with
// deterministically split seeds, honouring context cancellation and progress
// callbacks, and returns merged Welford tallies per metric. As everywhere in
// this repository, identical seeds produce identical results at any
// parallelism.
//
// Quick start:
//
//	res, err := sim.Run(context.Background(), sim.Scenario{
//	    Topology:   sim.Topology{Kind: sim.TopologyHypercube, D: 8},
//	    P:          0.5,
//	    LoadFactor: 0.8,
//	    Horizon:    5000,
//	    Seed:       1,
//	})
//	if err != nil { ... }
//	fmt.Println(res.MeanDelay, res.Hypercube.GreedyLowerBound, res.Hypercube.GreedyUpperBound)
//
// Families of scenarios are first-class too: a Sweep names axes over scalar
// scenario fields (cross-product or zipped expansion), and RunSweep executes
// every point on the shared engine pool, streaming one row per point — the
// measured delays next to the paper's bound columns — to CSV or JSON-Lines
// sinks in point order at any parallelism:
//
//	rows, err := sim.RunSweep(ctx, sim.Sweep{
//	    Base: sim.Scenario{Topology: sim.Hypercube(7), P: 0.5, Horizon: 4000, Seed: 1},
//	    Axes: []sim.Axis{{Field: "load_factor", Values: sim.Nums(0.1, 0.5, 0.9)}},
//	}, sim.NewCSVSink(os.Stdout))
//
// The runnable godoc examples (Example functions of this package) cover the
// single-run, replicated, spec round-trip and sweep paths and are asserted
// by go test.
package sim

import (
	"encoding/json"
	"fmt"

	"repro/internal/engine"
	"repro/internal/network"
	"repro/internal/routing"
)

// TopologyKind names a supported network topology.
type TopologyKind string

const (
	// TopologyHypercube is the directed d-dimensional hypercube of §2.
	TopologyHypercube TopologyKind = "hypercube"
	// TopologyButterfly is the d-dimensional butterfly of §4.
	TopologyButterfly TopologyKind = "butterfly"
)

// topologyKinds lists the valid kinds, for error messages.
var topologyKinds = []TopologyKind{TopologyHypercube, TopologyButterfly}

// Topology is the topology sum of a scenario: a kind tag plus the dimension.
type Topology struct {
	// Kind selects the topology family.
	Kind TopologyKind `json:"kind"`
	// D is the dimension: the cube dimension for a hypercube (2^D nodes),
	// or the butterfly dimension (D+1 levels of 2^D rows).
	D int `json:"d"`
}

// Hypercube returns the topology descriptor of a d-dimensional hypercube.
func Hypercube(d int) Topology { return Topology{Kind: TopologyHypercube, D: d} }

// Butterfly returns the topology descriptor of a d-dimensional butterfly.
func Butterfly(d int) Topology { return Topology{Kind: TopologyButterfly, D: d} }

// String renders the topology as "hypercube(d=8)".
func (t Topology) String() string { return fmt.Sprintf("%s(d=%d)", t.Kind, t.D) }

// RouterKind selects the hypercube routing scheme.
type RouterKind int

const (
	// GreedyDimensionOrder is the paper's scheme (§3): cross the required
	// dimensions in increasing order.
	GreedyDimensionOrder RouterKind = iota
	// GreedyRandomOrder crosses the required dimensions in random order.
	GreedyRandomOrder
	// ValiantTwoPhase routes through a uniformly random intermediate node.
	ValiantTwoPhase
	// Deflection is hot-potato routing (§1.2 related work, [GrH89]): a
	// bufferless slotted discipline where every packet present at a node is
	// forced onto some output port each slot — preferably one reducing its
	// Hamming distance, otherwise a deflection onto any free port. It runs
	// on its own slotted kernel (internal/deflection) and reports a
	// deflection-specific result block instead of the greedy bound pair.
	Deflection
)

// routerNames maps each kind to its canonical JSON spelling (the spec
// "router" field).
var routerNames = map[RouterKind]string{
	GreedyDimensionOrder: "greedy",
	GreedyRandomOrder:    "random-order",
	ValiantTwoPhase:      "valiant",
	Deflection:           "deflection",
}

// String names the routing scheme.
func (k RouterKind) String() string {
	switch k {
	case GreedyDimensionOrder:
		return "greedy-dimension-order"
	case GreedyRandomOrder:
		return "greedy-random-order"
	case ValiantTwoPhase:
		return "valiant-two-phase"
	case Deflection:
		return "deflection-hot-potato"
	default:
		return fmt.Sprintf("router(%d)", int(k))
	}
}

// router returns the routing implementation for the kind.
func (k RouterKind) router() routing.HypercubeRouter {
	switch k {
	case GreedyDimensionOrder:
		return routing.DimensionOrder{}
	case GreedyRandomOrder:
		return routing.RandomDimensionOrder{}
	case ValiantTwoPhase:
		return routing.ValiantTwoPhase{}
	default:
		// Deflection never reaches here: it bypasses path routing entirely
		// and executes on its own kernel.
		panic(fmt.Sprintf("sim: router kind %s selects no path router", k))
	}
}

// MarshalJSON renders the router as its canonical short name.
func (k RouterKind) MarshalJSON() ([]byte, error) {
	name, ok := routerNames[k]
	if !ok {
		return nil, fmt.Errorf("sim: cannot marshal unknown router kind %d", int(k))
	}
	return json.Marshal(name)
}

// routerFromName resolves a router's short spec name ("greedy",
// "random-order", "valiant", "deflection") or long String() name.
func routerFromName(name string) (RouterKind, bool) {
	for kind, short := range routerNames {
		if name == short || name == kind.String() {
			return kind, true
		}
	}
	return 0, false
}

// UnmarshalJSON accepts both the short spec names ("greedy", "random-order",
// "valiant", "deflection") and the long String() names.
func (k *RouterKind) UnmarshalJSON(data []byte) error {
	var name string
	if err := json.Unmarshal(data, &name); err != nil {
		return fmt.Errorf("sim: router must be a string: %w", err)
	}
	kind, ok := routerFromName(name)
	if !ok {
		return fmt.Errorf("sim: unknown router %q (valid: greedy, random-order, valiant, deflection)", name)
	}
	*k = kind
	return nil
}

// Discipline selects the per-arc queueing discipline.
type Discipline int

const (
	// FIFO serves queued packets in arrival order (the paper's assumption).
	FIFO = Discipline(network.FIFO)
	// RandomOrder serves a uniformly random queued packet.
	RandomOrder = Discipline(network.RandomOrder)
)

// String names the discipline ("fifo", "random-order").
func (d Discipline) String() string { return network.Discipline(d).String() }

// MarshalJSON renders the discipline as its name.
func (d Discipline) MarshalJSON() ([]byte, error) {
	switch d {
	case FIFO, RandomOrder:
		return json.Marshal(d.String())
	default:
		return nil, fmt.Errorf("sim: cannot marshal unknown discipline %d", int(d))
	}
}

// UnmarshalJSON accepts the discipline names emitted by MarshalJSON.
func (d *Discipline) UnmarshalJSON(data []byte) error {
	var name string
	if err := json.Unmarshal(data, &name); err != nil {
		return fmt.Errorf("sim: discipline must be a string: %w", err)
	}
	switch name {
	case FIFO.String():
		*d = FIFO
	case RandomOrder.String():
		*d = RandomOrder
	default:
		return fmt.Errorf("sim: unknown discipline %q (valid: fifo, random-order)", name)
	}
	return nil
}

// Scenario is the unified description of one simulation: topology, traffic,
// routing, discipline and horizon, plus optional replication and
// observability settings. The zero value is not runnable; at minimum the
// Topology, a rate (Lambda or LoadFactor) and the Horizon must be set.
//
// A Scenario round-trips through JSON (the struct tags below define the spec
// schema), so ad-hoc scenarios can be stored as declarative files and
// executed with cmd/run. The execution-policy
// fields (Parallelism, Progress) are deliberately excluded from the spec:
// they affect how fast a scenario runs, never what it computes.
type Scenario struct {
	// Name is an optional label used in report titles and artifact IDs.
	Name string `json:"name,omitempty"`

	// Topology selects the network (hypercube | butterfly) and dimension.
	Topology Topology `json:"topology"`

	// P is the bit-flip probability of the destination distribution: per
	// dimension for the hypercube (1/2 = uniform traffic), per row bit for
	// the butterfly.
	P float64 `json:"p,omitempty"`
	// Lambda is the per-node Poisson generation rate. Exactly one of Lambda
	// and LoadFactor must be positive.
	Lambda float64 `json:"lambda,omitempty"`
	// LoadFactor is the target rho: lambda*p on the hypercube,
	// lambda*max{p,1-p} on the butterfly. When set, Lambda is derived.
	LoadFactor float64 `json:"load_factor,omitempty"`
	// CustomWeights replaces the bit-flip destination distribution with the
	// general translation-invariant distribution of §2.2 (2^D entries
	// proportional to the difference-vector probabilities). Hypercube only;
	// Lambda must then be given directly.
	CustomWeights []float64 `json:"custom_weights,omitempty"`

	// Router selects the hypercube routing scheme (default greedy dimension
	// order). The butterfly admits only greedy routing. The Deflection kind
	// selects the bufferless hot-potato baseline, which executes on its own
	// slotted kernel and restricts the rest of the scenario (see Validate).
	Router RouterKind `json:"router,omitempty"`
	// Discipline selects the per-arc queueing discipline (default FIFO).
	Discipline Discipline `json:"discipline,omitempty"`

	// Slotted switches the hypercube to the §3.4 slotted-time arrival model
	// with slot length Tau.
	Slotted bool `json:"slotted,omitempty"`
	// Tau is the slot length when Slotted is true; it must not be set
	// otherwise.
	Tau float64 `json:"tau,omitempty"`

	// Horizon is the simulated time span (required).
	Horizon float64 `json:"horizon"`
	// WarmupFraction of the horizon is discarded before measuring
	// (default 0.2).
	WarmupFraction float64 `json:"warmup_fraction,omitempty"`
	// Seed drives all randomness; replications split it deterministically.
	Seed uint64 `json:"seed,omitempty"`

	// Replications, when greater than one, runs that many independent
	// replications of the scenario on the sharded engine with split seeds
	// and reports merged tallies (Result.Replicated) instead of a single
	// run's measurements.
	Replications int `json:"replications,omitempty"`

	// TrackQuantiles stores every delay so exact quantiles can be reported.
	TrackQuantiles bool `json:"track_quantiles,omitempty"`
	// TailQuantiles feeds every measured delay into a mergeable DDSketch and
	// reports p50/p90/p99/p999 with a guaranteed relative error
	// (Result.Tail). Unlike TrackQuantiles the memory is bounded —
	// O(log(max delay)/alpha) buckets instead of one float per packet — and
	// the sketch merges exactly across replications, so replicated runs
	// report pooled tail quantiles too. Works on every kernel, deflection
	// included.
	TailQuantiles bool `json:"tail_quantiles,omitempty"`
	// SketchAlpha overrides the sketch's relative-error bound, in (0, 0.5);
	// zero selects DefaultSketchAlpha. Requires TailQuantiles.
	SketchAlpha float64 `json:"sketch_alpha,omitempty"`
	// Precision, when non-nil, switches the scenario to sequential stopping:
	// replications run in deterministic batches until the block's accuracy
	// targets are met (or MaxReplications is reached). Mutually exclusive
	// with setting Replications. See PrecisionSpec.
	Precision *PrecisionSpec `json:"precision,omitempty"`
	// ReturnDelays additionally copies the measured per-packet delays into
	// the result; it requires TrackQuantiles.
	ReturnDelays bool `json:"return_delays,omitempty"`
	// TrackPerDimensionWait records per-dimension arc sojourn times
	// (hypercube only).
	TrackPerDimensionWait bool `json:"track_per_dimension_wait,omitempty"`
	// PopulationTraceInterval enables the population trace used by the
	// stability experiments (0 disables it).
	PopulationTraceInterval float64 `json:"population_trace_interval,omitempty"`
	// SkipPerDimensionStats disables the per-dimension population tracking
	// on the hot path; the hypercube result then reports zero
	// PerDimensionMeanQueue. Ignored on the butterfly, which never tracks
	// per-group populations.
	SkipPerDimensionStats bool `json:"skip_per_dimension_stats,omitempty"`
	// ForceEventDriven disables the slot-stepped fast kernel for eligible
	// workloads; results are byte-identical either way.
	ForceEventDriven bool `json:"force_event_driven,omitempty"`
	// Faults, when non-nil, injects link faults into the scenario: a per-arc
	// transient fault probability, scheduled link outages, and/or a finite
	// per-arc buffer capacity with drop accounting. All fault randomness is
	// drawn from a dedicated RNG stream derived from Seed, so a scenario
	// without a faults block is byte-identical to one run on a build that
	// predates fault injection. See FaultSpec for the schema and Validate for
	// the per-router restrictions. Results of faulty scenarios carry a
	// FaultStats block.
	Faults *FaultSpec `json:"faults,omitempty"`

	// MaxBytes caps the slot-stepped kernel's estimated memory per
	// replication, in bytes (0 = unlimited). Validation prices the kernel's
	// arc-indexed arrays up front (slotsim.EstimateBytes) and rejects
	// scenarios that cannot fit with a clean error; the kernel re-checks the
	// budget whenever its dynamic pools grow mid-run, so a run whose
	// in-flight population outgrows the budget fails loudly instead of being
	// OOM-killed. It requires a FIFO hypercube (slotted or continuous-time)
	// or a FIFO butterfly, without force_event_driven: the runs the
	// slot-stepped kernel executes.
	MaxBytes int64 `json:"max_bytes,omitempty"`

	// Parallelism bounds the number of concurrently executing replication
	// shards (0 = GOMAXPROCS). Execution policy: never affects results and
	// is not part of the JSON spec.
	Parallelism int `json:"-"`
	// Progress, when non-nil, receives (doneReplications, total) updates as
	// replication shards complete. Calls are serialized. Not part of the
	// JSON spec.
	Progress func(done, total int) `json:"-"`
	// Pool, when non-nil, draws replication workers from a shared
	// engine.Pool instead of a private worker set, so concurrent scenarios
	// (the daemon's jobs) share one bounded simulation budget. Execution
	// policy: never affects results and is not part of the JSON spec.
	Pool *engine.Pool `json:"-"`
}

// FaultSpec is the "faults" block of a scenario: the fault model applied to
// the network's arcs. At least one of its settings must be non-zero (an empty
// block is a validation error, which keeps "no faults block" and "no faults"
// synonymous). Every fault mechanism is deterministic given Scenario.Seed:
// transient faults draw from a dedicated xrand stream consumed only at
// transmission completions, and outage arc sets are resolved once during
// validation. Both the event-driven and the slot-stepped kernel honour the
// same fault model with byte-identical results.
type FaultSpec struct {
	// ArcFailProb is the probability, in [0, 1), that any single packet
	// transmission over an arc fails; a failed transmission drops the packet
	// (no retransmission). Deflection routing applies the same probability
	// per hop move.
	ArcFailProb float64 `json:"arc_fail_prob,omitempty"`
	// BufferCapacity, when positive, bounds each arc's waiting queue (the
	// packet in service is not counted); a packet arriving at a full queue is
	// dropped. Zero means infinite buffers (the paper's model). Not
	// applicable to deflection routing, which is bufferless by definition.
	BufferCapacity int `json:"buffer_capacity,omitempty"`
	// Outages schedules link outage windows. Windows must not overlap; an
	// arc that is down finishes its in-flight transmission but starts no new
	// one until the window ends. Not applicable to deflection routing.
	Outages []Outage `json:"outages,omitempty"`
}

// Outage is one scheduled link outage window [From, Until). Exactly one of
// Arcs and Fraction selects the affected arcs.
type Outage struct {
	// From is the (inclusive) start time of the window.
	From float64 `json:"from"`
	// Until is the (exclusive) end time of the window; it must exceed From.
	Until float64 `json:"until"`
	// Arcs lists the affected arc indices explicitly, strictly increasing,
	// each in [0, number of arcs).
	Arcs []int `json:"arcs,omitempty"`
	// Fraction selects a pseudo-random subset of all arcs instead: a
	// fraction in (0, 1], resolved deterministically from Scenario.Seed
	// (at least one arc).
	Fraction float64 `json:"fraction,omitempty"`
}

// Title returns the scenario's display name: Name when set, otherwise a
// generated "hypercube(d=8) rho=0.8" style summary.
func (s Scenario) Title() string {
	if s.Name != "" {
		return s.Name
	}
	rate := fmt.Sprintf("rho=%g", s.LoadFactor)
	if s.LoadFactor == 0 {
		rate = fmt.Sprintf("lambda=%g", s.Lambda)
	}
	return fmt.Sprintf("%s %s", s.Topology, rate)
}
