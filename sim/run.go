package sim

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"slices"
	"sync"

	"repro/internal/bounds"
	"repro/internal/deflection"
	"repro/internal/engine"
	"repro/internal/hypercube"
	"repro/internal/network"
	"repro/internal/stats"
)

// Metrics is the raw measurement snapshot of one simulation run; see
// network.Metrics for field documentation.
type Metrics = network.Metrics

// HypercubeParams exposes the paper's closed-form hypercube bounds
// (Propositions 2, 3, 12, 13, the §3.4 slotted bound and the heavy-traffic
// limits) evaluated at the run's parameters.
type HypercubeParams = bounds.HypercubeParams

// ButterflyParams exposes the paper's closed-form butterfly bounds
// (Propositions 14-17).
type ButterflyParams = bounds.ButterflyParams

// HypercubeStats is the hypercube-specific block of a Result: the per-
// dimension measurements and the paper's hypercube bounds.
type HypercubeStats struct {
	// Params echoes the model parameters in the form used by the bounds.
	Params HypercubeParams `json:"params"`
	// PerDimensionMeanQueue is the time-averaged number of packets queued at
	// a single arc of each dimension (index 0 = dimension 1).
	PerDimensionMeanQueue []float64 `json:"per_dimension_mean_queue,omitempty"`
	// PerDimensionUtilization is the mean busy fraction of an arc of each
	// dimension; Proposition 5 predicts rho for every dimension.
	PerDimensionUtilization []float64 `json:"per_dimension_utilization,omitempty"`
	// PerDimensionMeanWait is the mean time a packet spends at an arc of
	// each dimension (queueing plus the unit transmission); populated only
	// when TrackPerDimensionWait was set.
	PerDimensionMeanWait []float64 `json:"per_dimension_mean_wait,omitempty"`
	// PerDimensionLoadFactor is lambda*p_j, the offered load of each
	// dimension (all equal to rho for the bit-flip distribution, §2.2 in
	// general).
	PerDimensionLoadFactor []float64 `json:"per_dimension_load_factor,omitempty"`
	// GreedyLowerBound, GreedyUpperBound, UniversalLowerBound and
	// ObliviousLowerBound are the paper's analytic bounds evaluated at the
	// run's parameters (Props 13, 12, 2 and 3). They are NaN when the
	// system is unstable or (for the greedy pair) under custom traffic.
	GreedyLowerBound    float64 `json:"greedy_lower_bound"`
	GreedyUpperBound    float64 `json:"greedy_upper_bound"`
	UniversalLowerBound float64 `json:"universal_lower_bound"`
	ObliviousLowerBound float64 `json:"oblivious_lower_bound"`
	// SlottedUpperBound is the §3.4 bound (only set in slotted mode).
	SlottedUpperBound float64 `json:"slotted_upper_bound,omitempty"`
}

// ButterflyStats is the butterfly-specific block of a Result: the per-arc-
// type utilisations and the paper's butterfly bounds.
type ButterflyStats struct {
	// Params echoes the model parameters.
	Params ButterflyParams `json:"params"`
	// StraightUtilization and VerticalUtilization are the mean busy
	// fractions of the two arc types; Proposition 15 predicts
	// lambda*(1-p) and lambda*p respectively.
	StraightUtilization float64 `json:"straight_utilization"`
	VerticalUtilization float64 `json:"vertical_utilization"`
	// UniversalLowerBound and GreedyUpperBound are the Prop. 14 and Prop. 17
	// bounds (NaN when unstable).
	UniversalLowerBound float64 `json:"universal_lower_bound"`
	GreedyUpperBound    float64 `json:"greedy_upper_bound"`
}

// DeflectionStats is the deflection-specific block of a Result: the
// hot-potato measurements (wandering, deflections, injection backlog) next to
// the one paper bound that still applies. There is no closed-form deflection
// delay envelope in the paper — [GrH89] gives only approximations — so unlike
// the greedy blocks this one carries measurements first and a single lower
// bound.
type DeflectionStats struct {
	// Params echoes the model parameters in the form used by the bounds.
	Params HypercubeParams `json:"params"`
	// MeanShortest is the mean Hamming distance of delivered packets (the
	// minimum possible hop count); MeanHops - MeanShortest is the wandering
	// overhead deflections cause.
	MeanShortest float64 `json:"mean_shortest"`
	// MeanDeflections is the mean number of unprofitable (distance
	// non-decreasing) hops per delivered packet.
	MeanDeflections float64 `json:"mean_deflections"`
	// MeanNetworkPopulation is the time-averaged number of packets inside
	// the network (excluding injection queues).
	MeanNetworkPopulation float64 `json:"mean_network_population"`
	// MeanInjectionBacklog is the time-averaged number of packets waiting in
	// the per-node injection queues.
	MeanInjectionBacklog float64 `json:"mean_injection_backlog"`
	// InjectionBacklogSlope is the least-squares slope of the injection
	// backlog over the measurement window (positive = not keeping up); it is
	// the deflection counterpart of Metrics.PopulationSlope.
	InjectionBacklogSlope float64 `json:"injection_backlog_slope"`
	// MaxNodeOccupancy is the largest number of packets observed at one node
	// when ports were assigned; the lossless invariant caps it at d.
	MaxNodeOccupancy int `json:"max_node_occupancy"`
	// UniversalLowerBound is the Prop. 2 bound, which holds for every
	// routing scheme on the hypercube — deflection included (NaN when the
	// parameters exceed the bound's validity range).
	UniversalLowerBound float64 `json:"universal_lower_bound"`
}

// FaultStats summarises packet loss when the scenario has an active fault
// model ("faults" block); Result.Faults is nil for faultless runs, keeping
// their JSON byte-identical to pre-fault output. All counters cover packets
// generated inside the measurement window.
type FaultStats struct {
	// Offered is the number of packets injected during the window
	// (Metrics.Generated; for deflection routing, the accounted packets —
	// delivered plus dropped — since that kernel reports no generation count).
	Offered int64 `json:"offered"`
	// Delivered is the number of packets that reached their destination.
	Delivered int64 `json:"delivered"`
	// DroppedFault counts packets lost to transient transmission faults
	// (arc_fail_prob).
	DroppedFault int64 `json:"dropped_fault"`
	// DroppedOverflow counts packets lost to full finite buffers
	// (buffer_capacity).
	DroppedOverflow int64 `json:"dropped_overflow"`
	// DeliveryRatio is Delivered / (Delivered + DroppedFault +
	// DroppedOverflow): the ratio over packets with a decided fate, which is
	// robust to packets still in flight at the horizon. NaN when no packet's
	// fate was decided.
	DeliveryRatio float64 `json:"delivery_ratio"`
	// ConditionalMeanDelay is the mean delay over delivered packets only
	// (identical to Result.MeanDelay, restated because under loss the
	// unconditional delay is undefined). NaN when no packet was delivered.
	ConditionalMeanDelay float64 `json:"conditional_mean_delay"`
}

// newFaultStats assembles the loss summary of one faulty run from the
// window's offered, delivered and dropped packet counts and the mean delay
// of the delivered packets.
func newFaultStats(offered, delivered, droppedFault, droppedOverflow int64, meanDelay float64) *FaultStats {
	f := &FaultStats{
		Offered:              offered,
		Delivered:            delivered,
		DroppedFault:         droppedFault,
		DroppedOverflow:      droppedOverflow,
		ConditionalMeanDelay: meanDelay,
		DeliveryRatio:        math.NaN(),
	}
	if delivered == 0 {
		f.ConditionalMeanDelay = math.NaN()
	}
	if decided := delivered + droppedFault + droppedOverflow; decided > 0 {
		f.DeliveryRatio = float64(delivered) / float64(decided)
	}
	return f
}

// Metric keys of the replicated tallies in Result.Replicated. P95/P99 appear
// only when TrackQuantiles is set; the utilisation pair only on the
// butterfly; the deflection pair only under hot-potato routing.
const (
	MetricMeanDelay           = "mean_delay"
	MetricMeanHops            = "mean_hops"
	MetricMeanPacketsPerNode  = "mean_packets_per_node"
	MetricMeanPopulation      = "mean_population"
	MetricThroughput          = "throughput"
	MetricDelayP95            = "delay_p95"
	MetricDelayP99            = "delay_p99"
	MetricStraightUtilization = "straight_utilization"
	MetricVerticalUtilization = "vertical_utilization"
	MetricMeanDeflections     = "mean_deflections"
	MetricInjectionBacklog    = "mean_injection_backlog"
	MetricDeliveryRatio       = "delivery_ratio"
	// The tail_* keys carry the sketch quantiles when TailQuantiles is set.
	// They are deliberately distinct from delay_p95/delay_p99, which report
	// the exact stored-sample quantiles of TrackQuantiles.
	MetricTailP50  = "tail_p50"
	MetricTailP90  = "tail_p90"
	MetricTailP99  = "tail_p99"
	MetricTailP999 = "tail_p999"
)

// DefaultSketchAlpha is the delay sketch's relative-error bound when the
// scenario does not set SketchAlpha: quantile estimates within 1%.
const DefaultSketchAlpha = 0.01

// TailStats reports the delay tail measured through the mergeable quantile
// sketch (Scenario.TailQuantiles): p50/p90/p99/p999 estimates, each within a
// relative factor (1 ± Alpha) of the exact empirical quantile. For replicated
// and sequential runs the quantiles are pooled over every delivered packet of
// every replication (the sketches merge exactly), not averaged per run.
type TailStats struct {
	// Alpha is the sketch's relative-error bound.
	Alpha float64 `json:"alpha"`
	// Count is the number of delays the sketch absorbed.
	Count int64 `json:"count"`
	// P50, P90, P99 and P999 are the quantile estimates (NaN when no packet
	// was delivered).
	P50  float64 `json:"p50"`
	P90  float64 `json:"p90"`
	P99  float64 `json:"p99"`
	P999 float64 `json:"p999"`
}

// tailStatsFromSketch reads the reported quantiles out of a delay sketch.
func tailStatsFromSketch(s *stats.DDSketch) *TailStats {
	return &TailStats{
		Alpha: s.Alpha(),
		Count: s.Count(),
		P50:   s.Quantile(0.50),
		P90:   s.Quantile(0.90),
		P99:   s.Quantile(0.99),
		P999:  s.Quantile(0.999),
	}
}

// Replication summarises one metric over independent replications.
type Replication struct {
	N      int     `json:"n"`
	Mean   float64 `json:"mean"`
	StdDev float64 `json:"std_dev"`
	CI95   float64 `json:"ci95"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
}

// replicationFromTally converts a merged engine tally into the report form.
func replicationFromTally(t *stats.Tally) Replication {
	if t == nil {
		return Replication{}
	}
	return Replication{
		N:      int(t.Count()),
		Mean:   t.Mean(),
		StdDev: t.StdDev(),
		CI95:   t.ConfidenceInterval(0.95),
		Min:    t.Min(),
		Max:    t.Max(),
	}
}

// Result reports one executed scenario. The common core (delay, population,
// throughput, kernel) is topology-agnostic; exactly one of the Hypercube and
// Butterfly blocks is non-nil and carries the per-topology measurements and
// analytic bounds.
//
// For a replicated scenario (Scenario.Replications > 1) the per-run
// measurement fields (Metrics, MeanDelay, quantiles, Delays,
// WithinPaperBounds and the per-dimension/utilisation measurements) are
// zero; Replicated carries the merged tallies instead, and the bound fields
// — pure functions of the scenario — remain populated.
type Result struct {
	// Topology echoes the executed topology.
	Topology Topology `json:"topology"`
	// Lambda is the per-node generation rate after normalization.
	Lambda float64 `json:"lambda"`
	// LoadFactor is the run's rho: lambda*p on the hypercube (the maximum
	// per-dimension load under custom traffic), lambda*max{p,1-p} on the
	// butterfly.
	LoadFactor float64 `json:"load_factor"`
	// Kernel names the simulation kernel the run executed on
	// (KernelEventDriven or KernelSlotStepped).
	Kernel string `json:"kernel"`

	// Metrics is the raw measurement snapshot from the simulator.
	Metrics Metrics `json:"metrics"`
	// MeanDelay is the measured average delay per packet (the paper's T).
	MeanDelay float64 `json:"mean_delay"`
	// MeanPacketsPerNode is the time-averaged population divided by the
	// number of (switching) nodes.
	MeanPacketsPerNode float64 `json:"mean_packets_per_node"`
	// WithinPaperBounds reports whether the measured delay lies inside the
	// paper's envelope for the run's parameters (with a small statistical
	// tolerance); it is meaningful only for greedy routing on a stable
	// system.
	WithinPaperBounds bool `json:"within_paper_bounds"`
	// Delays holds the measured per-packet delays when ReturnDelays was set
	// (nil otherwise). The order is deterministic for a given seed but
	// unspecified; the cross-kernel golden tests compare it bitwise.
	Delays []float64 `json:"-"`

	// Hypercube carries the hypercube-specific measurements and bounds.
	Hypercube *HypercubeStats `json:"hypercube,omitempty"`
	// Butterfly carries the butterfly-specific measurements and bounds.
	Butterfly *ButterflyStats `json:"butterfly,omitempty"`
	// Deflection carries the hot-potato measurements when the scenario's
	// Router is Deflection (the Hypercube block is then nil even though the
	// topology is a hypercube: the greedy bounds do not apply).
	Deflection *DeflectionStats `json:"deflection,omitempty"`

	// Faults carries the loss accounting when the scenario has an active
	// fault model; nil for faultless runs.
	Faults *FaultStats `json:"faults,omitempty"`

	// Tail carries the sketch-based tail quantiles when the scenario set
	// TailQuantiles; nil otherwise, keeping sketch-less output byte-identical
	// to pre-sketch builds.
	Tail *TailStats `json:"tail,omitempty"`

	// Precision reports the sequential-stopping outcome when the scenario
	// had a "precision" block; nil otherwise.
	Precision *PrecisionResult `json:"precision,omitempty"`

	// Replicated maps metric keys (MetricMeanDelay, ...) to merged Welford
	// tallies over Scenario.Replications independent runs. Nil for single
	// runs.
	Replicated map[string]Replication `json:"replicated,omitempty"`

	// DelayP95 and DelayP99 are exact delay quantiles when TrackQuantiles
	// was set (NaN otherwise). They are declared last because JSON keys
	// follow declaration order and result rows have always written them
	// after every other key.
	DelayP95 float64 `json:"delay_p95,omitempty"`
	DelayP99 float64 `json:"delay_p99,omitempty"`

	// sketch is the run's delay sketch (single runs) or the exact merge over
	// all replications; the replicated and sequential paths read it.
	sketch *stats.DDSketch
}

// Result blocks — Result and the HypercubeStats, ButterflyStats,
// DeflectionStats, FaultStats, TailStats and PrecisionResult blocks it
// carries — use NaN for "not available": a paper bound undefined past
// saturation, exact quantiles not tracked, a loss ratio with no decided
// packet, a precision target not requested. encoding/json rejects raw NaN,
// so every block goes through one rule: each exported float64 field writes
// NaN as null and reads null back as NaN. Go prints a float64 in its
// shortest round-trip form, so a marshalled block reads back bit for bit;
// the sweep checkpoint journal and simc's row verification depend on this.
//
// Each block's MarshalJSON/UnmarshalJSON copies the block through a shadow
// struct type built once per block type by reflection (nullSafeOf): the
// block's exported fields and tags, with float64 retyped to nanNull. Nested
// blocks keep their pointer types, so they run through their own methods.

// nanNull is a float64 that marshals NaN as null and reads null back as NaN.
type nanNull float64

// MarshalJSON renders NaN as null.
func (f nanNull) MarshalJSON() ([]byte, error) {
	if math.IsNaN(float64(f)) {
		return []byte("null"), nil
	}
	return json.Marshal(float64(f))
}

// UnmarshalJSON reads null back as NaN.
func (f *nanNull) UnmarshalJSON(data []byte) error {
	if string(data) == "null" {
		*f = nanNull(math.NaN())
		return nil
	}
	return json.Unmarshal(data, (*float64)(f))
}

// nullSafe is the JSON shadow of one block type: shadow field i copies
// block field index[i].
type nullSafe struct {
	shadow reflect.Type
	index  []int
}

// nullSafeTypes caches the shadow of every block type (reflect.Type →
// *nullSafe).
var nullSafeTypes sync.Map

// nullSafeOf returns the shadow of block struct type t: its exported fields
// not tagged json:"-", in declaration order with their tags, every float64
// retyped to nanNull. encoding/json writes keys in field order, so the
// shadow's keys come out exactly as the block declares them.
func nullSafeOf(t reflect.Type) *nullSafe {
	if s, ok := nullSafeTypes.Load(t); ok {
		return s.(*nullSafe)
	}
	s := &nullSafe{}
	var fields []reflect.StructField
	for i := range t.NumField() {
		f := t.Field(i)
		if !f.IsExported() || f.Tag.Get("json") == "-" {
			continue
		}
		if f.Type == reflect.TypeFor[float64]() {
			f.Type = reflect.TypeFor[nanNull]()
		}
		fields = append(fields, reflect.StructField{Name: f.Name, Type: f.Type, Tag: f.Tag})
		s.index = append(s.index, i)
	}
	s.shadow = reflect.StructOf(fields)
	cached, _ := nullSafeTypes.LoadOrStore(t, s)
	return cached.(*nullSafe)
}

// setField copies one field between a block and its shadow.
func setField(to, from reflect.Value) {
	if from.Kind() == reflect.Float64 {
		to.SetFloat(from.Float())
		return
	}
	to.Set(from)
}

// marshalNullSafe marshals the block that block points to under the
// NaN-as-null rule.
func marshalNullSafe(block any) ([]byte, error) {
	src := reflect.ValueOf(block).Elem()
	s := nullSafeOf(src.Type())
	aux := reflect.New(s.shadow)
	dst := aux.Elem()
	for i, j := range s.index {
		setField(dst.Field(i), src.Field(j))
	}
	return json.Marshal(aux.Interface())
}

// unmarshalNullSafe decodes data into the block that block points to under
// the NaN-as-null rule. It overwrites every exported field, so a key the
// data lacks reads as the field's zero value; every caller decodes into a
// zero block anyway.
func unmarshalNullSafe(data []byte, block any) error {
	dst := reflect.ValueOf(block).Elem()
	s := nullSafeOf(dst.Type())
	aux := reflect.New(s.shadow)
	if err := json.Unmarshal(data, aux.Interface()); err != nil {
		return err
	}
	src := aux.Elem()
	for i, j := range s.index {
		setField(dst.Field(j), src.Field(i))
	}
	return nil
}

// MarshalJSON writes the result under the NaN-as-null rule.
func (r *Result) MarshalJSON() ([]byte, error) { return marshalNullSafe(r) }

// UnmarshalJSON reads the result under the NaN-as-null rule. Like every
// block's UnmarshalJSON it sets every exported field, a key the data lacks
// to its zero value.
func (r *Result) UnmarshalJSON(data []byte) error { return unmarshalNullSafe(data, r) }

// MarshalJSON writes the block under the NaN-as-null rule.
func (h *HypercubeStats) MarshalJSON() ([]byte, error) { return marshalNullSafe(h) }

// UnmarshalJSON reads the block under the NaN-as-null rule.
func (h *HypercubeStats) UnmarshalJSON(data []byte) error { return unmarshalNullSafe(data, h) }

// MarshalJSON writes the block under the NaN-as-null rule.
func (b *ButterflyStats) MarshalJSON() ([]byte, error) { return marshalNullSafe(b) }

// UnmarshalJSON reads the block under the NaN-as-null rule.
func (b *ButterflyStats) UnmarshalJSON(data []byte) error { return unmarshalNullSafe(data, b) }

// MarshalJSON writes the block under the NaN-as-null rule.
func (d *DeflectionStats) MarshalJSON() ([]byte, error) { return marshalNullSafe(d) }

// UnmarshalJSON reads the block under the NaN-as-null rule.
func (d *DeflectionStats) UnmarshalJSON(data []byte) error { return unmarshalNullSafe(data, d) }

// MarshalJSON writes the block under the NaN-as-null rule.
func (f *FaultStats) MarshalJSON() ([]byte, error) { return marshalNullSafe(f) }

// UnmarshalJSON reads the block under the NaN-as-null rule.
func (f *FaultStats) UnmarshalJSON(data []byte) error { return unmarshalNullSafe(data, f) }

// MarshalJSON writes the block under the NaN-as-null rule.
func (t *TailStats) MarshalJSON() ([]byte, error) { return marshalNullSafe(t) }

// UnmarshalJSON reads the block under the NaN-as-null rule.
func (t *TailStats) UnmarshalJSON(data []byte) error { return unmarshalNullSafe(data, t) }

// runTestHook, when non-nil, observes every validated scenario entering Run.
// Tests use it to count executions (cache-hit assertions) and to inject
// deterministic panics (pool-isolation assertions); it is never set in
// production code.
var runTestHook func(Scenario)

// Run executes one scenario: validation and normalization first, then either
// a single simulation or — when Scenario.Replications > 1 — that many
// independent replications on the sharded parallel engine with
// deterministically split seeds.
//
// Every hypercube and butterfly scenario executes through the one pooled
// store-and-forward runner: FIFO runs on the slot-stepped kernel, the
// RandomOrder discipline and ForceEventDriven runs on the event-driven
// calendar (normalization makes the choice once, see storeForwardKernel).
// The two kernels produce byte-identical results on the same seed, and the
// runner's state is pooled per worker, so repeated runs perform no setup
// allocations in steady state.
//
// Cancellation is cooperative at replication granularity: a cancelled ctx
// stops unstarted replications and returns ctx.Err(); an individual
// simulation, once started, runs to completion. Results are independent of
// Parallelism and of when (or whether) cancellation happens short of an
// error return.
func Run(ctx context.Context, sc Scenario) (*Result, error) {
	n, err := sc.normalize()
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if runTestHook != nil {
		runTestHook(sc)
	}
	if sc.Precision != nil {
		return runSequential(ctx, &sc, n)
	}
	if sc.Replications > 1 {
		return runReplicated(ctx, &sc, n)
	}
	return n.runOnce(), nil
}

// runOnce executes one normalized single run.
func (n normalized) runOnce() *Result {
	if n.dc != nil {
		return runDeflectionOnce(n.dc)
	}
	return n.sf.run()
}

// replica returns the normalized form of one replication on seed.
// Replicated results never report per-packet delays, so the copy does not
// pay the O(delivered-packets) delay copy either.
func (n normalized) replica(seed uint64) normalized {
	if n.dc != nil {
		dc := *n.dc
		dc.Seed = seed
		return normalized{dc: &dc}
	}
	sf := *n.sf
	sf.Seed = seed
	sf.ReturnDelays = false
	return normalized{sf: &sf}
}

// analyticResult assembles the pure-function part of a Result — parameters,
// load factor, kernel selection and the paper's bounds — without running a
// simulation. The replicated paths report it next to the merged tallies, and
// a single run completes it with the measured fields.
func (n normalized) analyticResult() *Result {
	if n.dc != nil {
		return deflectionAnalyticResult(n.dc)
	}
	return n.sf.analyticResult()
}

// boundOrNaN converts a (value, error) bound evaluation into a plain float
// with NaN marking "not defined" (unstable parameters).
func boundOrNaN(f func() (float64, error)) float64 {
	v, err := f()
	if err != nil {
		return math.NaN()
	}
	return v
}

// analyticResult is the pure-function part of a hypercube or butterfly
// result.
func (c *storeForward) analyticResult() *Result {
	d := c.Topology.D
	res := &Result{Topology: c.Topology, Lambda: c.Lambda, Kernel: c.Kernel}
	if c.Topology.Kind == TopologyButterfly {
		b := &ButterflyStats{Params: ButterflyParams{D: d, Lambda: c.Lambda, P: c.P}}
		b.UniversalLowerBound = boundOrNaN(b.Params.UniversalLowerBound)
		b.GreedyUpperBound = boundOrNaN(b.Params.GreedyUpperBound)
		res.LoadFactor = c.Lambda * math.Max(c.P, 1-c.P)
		res.Butterfly = b
		return res
	}
	h := &HypercubeStats{
		Params:                 HypercubeParams{D: d, Lambda: c.Lambda, P: c.P},
		PerDimensionLoadFactor: make([]float64, d),
	}
	res.LoadFactor = c.Lambda * c.P
	res.Hypercube = h
	for j := range h.PerDimensionLoadFactor {
		h.PerDimensionLoadFactor[j] = c.Lambda * c.net.dist.FlipProbability(hypercube.Dimension(j+1))
	}
	if c.CustomWeights != nil {
		// The paper's closed-form greedy bounds are proved for the bit-flip
		// distribution; for general translation-invariant traffic only the
		// per-dimension load factors (and hence the stability condition of
		// §2.2) are reported.
		res.LoadFactor = slices.Max(h.PerDimensionLoadFactor)
		h.Params.P = 0
		h.GreedyLowerBound = math.NaN()
		h.GreedyUpperBound = math.NaN()
		h.UniversalLowerBound = math.NaN()
		h.ObliviousLowerBound = math.NaN()
		return res
	}
	h.GreedyLowerBound = boundOrNaN(h.Params.GreedyLowerBound)
	h.GreedyUpperBound = boundOrNaN(h.Params.GreedyUpperBound)
	h.UniversalLowerBound = boundOrNaN(h.Params.UniversalLowerBound)
	h.ObliviousLowerBound = boundOrNaN(h.Params.ObliviousLowerBound)
	if c.Slotted {
		h.SlottedUpperBound = boundOrNaN(func() (float64, error) { return h.Params.SlottedUpperBound(c.Tau) })
	}
	return res
}

// result assembles one run's Result: the analytic part plus the measured
// fields, read from the kernel that ran it.
func (c *storeForward) result(m network.Metrics, k delayStats) *Result {
	res := c.analyticResult()
	res.Metrics = m
	res.MeanDelay = m.MeanDelay
	res.DelayP95 = k.DelayQuantile(0.95)
	res.DelayP99 = k.DelayQuantile(0.99)
	if c.ReturnDelays {
		res.Delays = append([]float64(nil), k.DelaySample()...)
	}
	if s := k.DelaySketch(); s != nil {
		// Cloned out of the pooled kernel, so it outlives the runner.
		res.sketch = s.Clone()
		res.Tail = tailStatsFromSketch(res.sketch)
	}
	if c.Faults != nil {
		res.Faults = newFaultStats(m.Generated, m.Delivered, m.DroppedFault, m.DroppedOverflow, m.MeanDelay)
	}
	d := c.Topology.D
	var lower, upper float64
	if h := res.Hypercube; h != nil {
		nodes := float64(c.net.sources)
		res.MeanPacketsPerNode = m.MeanPopulation / nodes
		h.PerDimensionMeanQueue = make([]float64, d)
		h.PerDimensionUtilization = make([]float64, d)
		for j := 0; j < d; j++ {
			h.PerDimensionMeanQueue[j] = m.GroupMeanPopulation[j] / nodes
			h.PerDimensionUtilization[j] = m.GroupArcUtilization[j]
		}
		if c.Measure.TrackPerHopWait {
			h.PerDimensionMeanWait = append([]float64(nil), m.GroupMeanWait...)
		}
		lower, upper = h.GreedyLowerBound, h.GreedyUpperBound
		if c.Slotted && !math.IsNaN(h.SlottedUpperBound) {
			upper = h.SlottedUpperBound
		}
	} else {
		// Groups alternate straight and vertical arcs level by level; average
		// each kind across levels.
		b := res.Butterfly
		var straight, vertical float64
		for level := 0; level < d; level++ {
			straight += m.GroupArcUtilization[level*2]
			vertical += m.GroupArcUtilization[level*2+1]
		}
		b.StraightUtilization = straight / float64(d)
		b.VerticalUtilization = vertical / float64(d)
		res.MeanPacketsPerNode = m.MeanPopulation / float64(d*c.net.sources)
		lower, upper = b.UniversalLowerBound, b.GreedyUpperBound
	}
	if !math.IsNaN(lower) && !math.IsNaN(upper) {
		tol := 3 * m.DelayCI95
		res.WithinPaperBounds = m.MeanDelay >= lower-tol-1e-9 && m.MeanDelay <= upper+tol+1e-9
	}
	return res
}

// runDeflectionOnce executes one normalized hot-potato run on the slotted
// deflection kernel and assembles the result. Only the Metrics fields the
// kernel actually measures are populated; everything deflection-specific
// lives in the Deflection block.
func runDeflectionOnce(cfg *deflectionConfig) *Result {
	var sketch *stats.DDSketch
	if cfg.SketchAlpha > 0 {
		sketch = stats.NewDDSketch(cfg.SketchAlpha)
	}
	out, err := deflection.Run(deflection.Config{
		D: cfg.D, Lambda: cfg.Lambda, P: cfg.P, Slots: cfg.Slots,
		WarmupFraction: cfg.WarmupFraction, Seed: cfg.Seed,
		ArcFailProb: cfg.ArcFailProb, Sketch: sketch,
	})
	if err != nil {
		// The scenario was validated; a failure here is a broken kernel
		// invariant (e.g. a node holding more than d packets), never user
		// input.
		panic(fmt.Sprintf("sim: deflection kernel failed on a validated scenario: %v", err))
	}
	res := deflectionAnalyticResult(cfg)
	if sketch != nil {
		res.sketch = sketch
		res.Tail = tailStatsFromSketch(sketch)
	}
	d := res.Deflection
	// The kernel truncates the warm-up to whole slots; mirror that here so
	// Elapsed and Throughput use exactly the window the packets were
	// counted in.
	measured := float64(cfg.Slots - int(cfg.WarmupFraction*float64(cfg.Slots)))
	res.Metrics = Metrics{
		Elapsed:         measured,
		MeanDelay:       out.MeanDelay,
		MeanHops:        out.MeanHops,
		Delivered:       out.Delivered,
		Throughput:      float64(out.Delivered) / measured,
		MeanPopulation:  out.MeanNetworkPopulation + out.MeanInjectionBacklog,
		PopulationSlope: out.InjectionBacklogSlope,
	}
	res.MeanDelay = out.MeanDelay
	res.MeanPacketsPerNode = res.Metrics.MeanPopulation / float64(int(1)<<uint(cfg.D))
	d.MeanShortest = out.MeanShortest
	d.MeanDeflections = out.MeanDeflections
	d.MeanNetworkPopulation = out.MeanNetworkPopulation
	d.MeanInjectionBacklog = out.MeanInjectionBacklog
	d.InjectionBacklogSlope = out.InjectionBacklogSlope
	d.MaxNodeOccupancy = out.MaxNodeOccupancy
	if cfg.ArcFailProb > 0 {
		res.Metrics.DroppedFault = out.Dropped
		// The kernel reports no generation count, so the offered packets
		// are the accounted ones: delivered plus dropped.
		res.Faults = newFaultStats(out.Delivered+out.Dropped, out.Delivered, out.Dropped, 0, out.MeanDelay)
	}
	return res
}

// deflectionAnalyticResult assembles the pure-function part of a deflection
// result (parameters, kernel, the universal lower bound).
func deflectionAnalyticResult(cfg *deflectionConfig) *Result {
	d := &DeflectionStats{
		Params: HypercubeParams{D: cfg.D, Lambda: cfg.Lambda, P: cfg.P},
	}
	d.UniversalLowerBound = boundOrNaN(d.Params.UniversalLowerBound)
	return &Result{
		Topology:   Hypercube(cfg.D),
		Lambda:     cfg.Lambda,
		LoadFactor: cfg.Lambda * cfg.P,
		Kernel:     KernelDeflection,
		DelayP95:   math.NaN(),
		DelayP99:   math.NaN(),
		Deflection: d,
	}
}

// runReplicated executes Scenario.Replications independent replications of
// the normalized scenario on the sharded engine and merges the per-metric
// tallies. The per-replication seeds derive from Scenario.Seed by seed
// splitting (never from scheduling), so the merged tallies are identical at
// any parallelism.
func runReplicated(ctx context.Context, sc *Scenario, n normalized) (*Result, error) {
	res := n.analyticResult()
	ecfg := engine.Config{
		Replications: sc.Replications,
		Parallelism:  sc.Parallelism,
		BaseSeed:     sc.Seed,
		Pool:         sc.Pool,
	}
	if sc.Progress != nil {
		progress := sc.Progress
		ecfg.Progress = func(_, _ int, doneReps, totalReps int) {
			progress(doneReps, totalReps)
		}
	}
	merged, err := engine.Run(ctx, ecfg, replicationTask(sc, n))
	if err != nil {
		return nil, err
	}
	finishMergedResult(res, merged)
	return res, nil
}

// sketchMetricName is the key the replication task files its delay sketch
// under in the engine's sketch merge.
const sketchMetricName = "delay"

// replicationTask builds the engine task shared by the fixed-replication and
// sequential-stopping paths: run one replication of the normalized scenario
// on the given seed and report its scalar metrics plus (when TailQuantiles is
// set) its delay sketch. The sketch a single run produces is already cloned
// out of the pooled runner, so it is safe for the engine to retain.
func replicationTask(sc *Scenario, n normalized) engine.SketchTask {
	return func(_ int, seed uint64) (map[string]float64, map[string]*stats.DDSketch) {
		rep := n.replica(seed).runOnce()
		m := map[string]float64{
			MetricMeanDelay:          rep.MeanDelay,
			MetricMeanHops:           rep.Metrics.MeanHops,
			MetricMeanPacketsPerNode: rep.MeanPacketsPerNode,
			MetricMeanPopulation:     rep.Metrics.MeanPopulation,
			MetricThroughput:         rep.Metrics.Throughput,
		}
		if sc.TrackQuantiles {
			m[MetricDelayP95] = rep.DelayP95
			m[MetricDelayP99] = rep.DelayP99
		}
		if rep.Tail != nil {
			m[MetricTailP50] = rep.Tail.P50
			m[MetricTailP90] = rep.Tail.P90
			m[MetricTailP99] = rep.Tail.P99
			m[MetricTailP999] = rep.Tail.P999
		}
		if rep.Butterfly != nil {
			m[MetricStraightUtilization] = rep.Butterfly.StraightUtilization
			m[MetricVerticalUtilization] = rep.Butterfly.VerticalUtilization
		}
		if rep.Deflection != nil {
			m[MetricMeanDeflections] = rep.Deflection.MeanDeflections
			m[MetricInjectionBacklog] = rep.Deflection.MeanInjectionBacklog
		}
		if rep.Faults != nil {
			m[MetricDeliveryRatio] = rep.Faults.DeliveryRatio
		}
		if rep.sketch == nil {
			return m, nil
		}
		return m, map[string]*stats.DDSketch{sketchMetricName: rep.sketch}
	}
}

// finishMergedResult copies an engine merge into the result: per-metric
// replication summaries, and the pooled tail quantiles when the runs carried
// a delay sketch.
func finishMergedResult(res *Result, merged *engine.Result) {
	res.Replicated = make(map[string]Replication, len(merged.Metrics))
	for k, t := range merged.Metrics {
		res.Replicated[k] = replicationFromTally(t)
	}
	if s := merged.Sketches[sketchMetricName]; s != nil {
		res.sketch = s
		res.Tail = tailStatsFromSketch(s)
	}
}
