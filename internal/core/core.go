// Package core is the compatibility layer between the original per-topology
// experiment API (HypercubeConfig/RunHypercube, ButterflyConfig/RunButterfly)
// and the unified scenario API in repro/sim, where the validation,
// normalization, kernel selection and result assembly now live. The exported
// facade package "repro/greedy" re-exports these types for library users.
//
// The shims are exact: a config converts to the equivalent sim.Scenario, runs
// through sim.Run, and the unified Result maps back onto the original
// per-topology result structs, so results are byte-identical to the
// pre-promotion implementation for the same seeds.
package core

import (
	"context"

	"repro/internal/bounds"
	"repro/internal/network"
	"repro/sim"
)

// RouterKind selects the hypercube routing scheme.
type RouterKind = sim.RouterKind

const (
	// GreedyDimensionOrder is the paper's scheme (§3).
	GreedyDimensionOrder = sim.GreedyDimensionOrder
	// GreedyRandomOrder crosses the required dimensions in random order.
	GreedyRandomOrder = sim.GreedyRandomOrder
	// ValiantTwoPhase routes through a uniformly random intermediate node.
	ValiantTwoPhase = sim.ValiantTwoPhase
)

// Kernel identifiers reported in the result structs.
const (
	// KernelEventDriven is the general discrete-event calendar.
	KernelEventDriven = sim.KernelEventDriven
	// KernelSlotStepped is the synchronous unit-service fast path.
	KernelSlotStepped = sim.KernelSlotStepped
)

// HypercubeConfig describes one hypercube simulation. See sim.Scenario for
// the unified form; every field here maps onto a scenario field.
type HypercubeConfig struct {
	// D is the cube dimension.
	D int
	// P is the destination bit-flip probability (1/2 = uniform traffic).
	P float64
	// Lambda is the per-node Poisson generation rate. Exactly one of Lambda
	// and LoadFactor must be positive; when LoadFactor is set, Lambda is
	// derived as LoadFactor / P.
	Lambda float64
	// LoadFactor is the target rho = Lambda*P.
	LoadFactor float64
	// Router selects the routing scheme (default greedy dimension order).
	Router RouterKind
	// Discipline selects the per-arc queueing discipline (default FIFO).
	Discipline network.Discipline
	// Horizon is the simulated time span (required).
	Horizon float64
	// WarmupFraction of the horizon is discarded before measuring
	// (default 0.2).
	WarmupFraction float64
	// Seed drives all randomness.
	Seed uint64
	// Slotted switches to the §3.4 slotted-time arrival model with slot
	// length Tau.
	Slotted bool
	// Tau is the slot length when Slotted is true (ignored otherwise, for
	// backwards compatibility; sim.Scenario rejects a stray Tau).
	Tau float64
	// TrackQuantiles stores every delay so exact quantiles can be reported.
	TrackQuantiles bool
	// ReturnDelays additionally copies the measured per-packet delays into
	// the result (requires TrackQuantiles; ignored without it, for
	// backwards compatibility).
	ReturnDelays bool
	// TrackPerDimensionWait records per-dimension arc sojourn times.
	TrackPerDimensionWait bool
	// PopulationTraceInterval enables the population trace used by the
	// stability experiments (0 disables it).
	PopulationTraceInterval float64
	// CustomWeights, when non-nil, replaces the bit-flip destination
	// distribution with the general translation-invariant distribution of
	// §2.2 (2^D entries). Lambda must then be given directly.
	CustomWeights []float64
	// SkipPerDimensionStats disables the per-dimension population tracking.
	SkipPerDimensionStats bool
	// ForceEventDriven disables the slot-stepped fast path.
	ForceEventDriven bool
	// Faults, when non-nil, activates the fault model (transient arc faults,
	// scheduled outages, finite buffers); see sim.FaultSpec.
	Faults *sim.FaultSpec
}

// scenario converts the config to its unified form, preserving the original
// lenient semantics (a stray Tau or ReturnDelays is dropped rather than
// rejected).
func (c HypercubeConfig) scenario() sim.Scenario {
	sc := sim.Scenario{
		Topology:                sim.Hypercube(c.D),
		P:                       c.P,
		Lambda:                  c.Lambda,
		LoadFactor:              c.LoadFactor,
		CustomWeights:           c.CustomWeights,
		Router:                  c.Router,
		Discipline:              sim.Discipline(c.Discipline),
		Slotted:                 c.Slotted,
		Tau:                     c.Tau,
		Horizon:                 c.Horizon,
		WarmupFraction:          c.WarmupFraction,
		Seed:                    c.Seed,
		TrackQuantiles:          c.TrackQuantiles,
		ReturnDelays:            c.ReturnDelays,
		TrackPerDimensionWait:   c.TrackPerDimensionWait,
		PopulationTraceInterval: c.PopulationTraceInterval,
		SkipPerDimensionStats:   c.SkipPerDimensionStats,
		ForceEventDriven:        c.ForceEventDriven,
		Faults:                  c.Faults,
	}
	if !sc.Slotted {
		sc.Tau = 0
	}
	if !sc.TrackQuantiles {
		sc.ReturnDelays = false
	}
	return sc
}

// HypercubeResult reports one hypercube simulation.
type HypercubeResult struct {
	// Params echoes the model parameters in the form used by the bounds.
	Params bounds.HypercubeParams
	// LoadFactor is rho = lambda*p.
	LoadFactor float64
	// Metrics is the raw measurement snapshot from the simulator.
	Metrics network.Metrics
	// MeanDelay is the measured average delay per packet (the paper's T).
	MeanDelay float64
	// DelayP95 and DelayP99 are exact delay quantiles when TrackQuantiles
	// was set (NaN otherwise).
	DelayP95, DelayP99 float64
	// MeanPacketsPerNode is the time-averaged total population divided by
	// the number of nodes.
	MeanPacketsPerNode float64
	// PerDimensionMeanQueue is the time-averaged number of packets queued at
	// a single arc of each dimension (index 0 = dimension 1).
	PerDimensionMeanQueue []float64
	// PerDimensionUtilization is the mean busy fraction of an arc of each
	// dimension; Proposition 5 predicts rho for every dimension.
	PerDimensionUtilization []float64
	// PerDimensionMeanWait is the mean time a packet spends at an arc of
	// each dimension; populated only when TrackPerDimensionWait was set.
	PerDimensionMeanWait []float64
	// PerDimensionLoadFactor is lambda*p_j, the offered load of each
	// dimension.
	PerDimensionLoadFactor []float64
	// GreedyLowerBound, GreedyUpperBound, UniversalLowerBound and
	// ObliviousLowerBound are the paper's analytic bounds (Props 13, 12, 2
	// and 3); NaN when the system is unstable.
	GreedyLowerBound, GreedyUpperBound       float64
	UniversalLowerBound, ObliviousLowerBound float64
	// SlottedUpperBound is the §3.4 bound (only set in slotted mode).
	SlottedUpperBound float64
	// WithinPaperBounds reports whether the measured delay lies in the
	// paper's envelope (with a small statistical tolerance).
	WithinPaperBounds bool
	// Kernel names the simulation kernel the run executed on.
	Kernel string
	// Delays holds the measured per-packet delays when ReturnDelays was set.
	Delays []float64
}

// RunHypercube runs one hypercube simulation through the unified scenario
// API. FIFO runs, slotted or continuous-time, execute on the slot-stepped
// kernel; the RandomOrder discipline and ForceEventDriven runs use the
// event-driven calendar. The two kernels produce byte-identical results on
// the same seed.
func RunHypercube(cfg HypercubeConfig) (*HypercubeResult, error) {
	res, err := sim.Run(context.Background(), cfg.scenario())
	if err != nil {
		return nil, err
	}
	h := res.Hypercube
	return &HypercubeResult{
		Params:                  h.Params,
		LoadFactor:              res.LoadFactor,
		Metrics:                 res.Metrics,
		MeanDelay:               res.MeanDelay,
		DelayP95:                res.DelayP95,
		DelayP99:                res.DelayP99,
		MeanPacketsPerNode:      res.MeanPacketsPerNode,
		PerDimensionMeanQueue:   h.PerDimensionMeanQueue,
		PerDimensionUtilization: h.PerDimensionUtilization,
		PerDimensionMeanWait:    h.PerDimensionMeanWait,
		PerDimensionLoadFactor:  h.PerDimensionLoadFactor,
		GreedyLowerBound:        h.GreedyLowerBound,
		GreedyUpperBound:        h.GreedyUpperBound,
		UniversalLowerBound:     h.UniversalLowerBound,
		ObliviousLowerBound:     h.ObliviousLowerBound,
		SlottedUpperBound:       h.SlottedUpperBound,
		WithinPaperBounds:       res.WithinPaperBounds,
		Kernel:                  res.Kernel,
		Delays:                  res.Delays,
	}, nil
}

// ButterflyConfig describes one butterfly simulation.
type ButterflyConfig struct {
	// D is the butterfly dimension (d+1 levels, 2^d rows).
	D int
	// P is the row bit-flip probability of the destination distribution.
	P float64
	// Lambda is the per-first-level-node generation rate. Exactly one of
	// Lambda and LoadFactor must be positive; LoadFactor is
	// lambda*max{p,1-p}.
	Lambda float64
	// LoadFactor is the target rho.
	LoadFactor float64
	// Discipline selects the per-arc queueing discipline.
	Discipline network.Discipline
	// Horizon is the simulated time span (required).
	Horizon float64
	// WarmupFraction of the horizon is discarded (default 0.2).
	WarmupFraction float64
	// Seed drives all randomness.
	Seed uint64
	// TrackQuantiles stores every delay for exact quantiles.
	TrackQuantiles bool
	// ReturnDelays copies the measured per-packet delays into the result
	// (requires TrackQuantiles).
	ReturnDelays bool
	// PopulationTraceInterval enables the population trace.
	PopulationTraceInterval float64
	// ForceEventDriven disables the slot-stepped fast path.
	ForceEventDriven bool
	// Faults, when non-nil, activates the fault model; see sim.FaultSpec.
	Faults *sim.FaultSpec
}

// scenario converts the config to its unified form.
func (c ButterflyConfig) scenario() sim.Scenario {
	sc := sim.Scenario{
		Topology:                sim.Butterfly(c.D),
		P:                       c.P,
		Lambda:                  c.Lambda,
		LoadFactor:              c.LoadFactor,
		Discipline:              sim.Discipline(c.Discipline),
		Horizon:                 c.Horizon,
		WarmupFraction:          c.WarmupFraction,
		Seed:                    c.Seed,
		TrackQuantiles:          c.TrackQuantiles,
		ReturnDelays:            c.ReturnDelays,
		PopulationTraceInterval: c.PopulationTraceInterval,
		ForceEventDriven:        c.ForceEventDriven,
		Faults:                  c.Faults,
	}
	if !sc.TrackQuantiles {
		sc.ReturnDelays = false
	}
	return sc
}

// ButterflyResult reports one butterfly simulation.
type ButterflyResult struct {
	// Params echoes the model parameters.
	Params bounds.ButterflyParams
	// LoadFactor is rho = lambda*max{p, 1-p}.
	LoadFactor float64
	// Metrics is the raw measurement snapshot.
	Metrics network.Metrics
	// MeanDelay is the measured average delay per packet.
	MeanDelay float64
	// DelayP95 and DelayP99 are exact quantiles when requested.
	DelayP95, DelayP99 float64
	// StraightUtilization and VerticalUtilization are the mean busy
	// fractions of the two arc types; Proposition 15 predicts
	// lambda*(1-p) and lambda*p respectively.
	StraightUtilization, VerticalUtilization float64
	// MeanPacketsPerNode is the population divided by the number of
	// switching nodes (levels 1..d).
	MeanPacketsPerNode float64
	// UniversalLowerBound and GreedyUpperBound are the Prop. 14 and Prop. 17
	// bounds (NaN when unstable).
	UniversalLowerBound, GreedyUpperBound float64
	// WithinPaperBounds reports whether the measured delay lies between the
	// two bounds (with a small statistical tolerance).
	WithinPaperBounds bool
	// Kernel names the simulation kernel the run executed on.
	Kernel string
	// Delays holds the measured per-packet delays when ReturnDelays was set.
	Delays []float64
}

// RunButterfly runs one butterfly simulation under greedy routing (the only
// routing scheme the butterfly admits) through the unified scenario API.
func RunButterfly(cfg ButterflyConfig) (*ButterflyResult, error) {
	res, err := sim.Run(context.Background(), cfg.scenario())
	if err != nil {
		return nil, err
	}
	b := res.Butterfly
	return &ButterflyResult{
		Params:              b.Params,
		LoadFactor:          res.LoadFactor,
		Metrics:             res.Metrics,
		MeanDelay:           res.MeanDelay,
		DelayP95:            res.DelayP95,
		DelayP99:            res.DelayP99,
		StraightUtilization: b.StraightUtilization,
		VerticalUtilization: b.VerticalUtilization,
		MeanPacketsPerNode:  res.MeanPacketsPerNode,
		UniversalLowerBound: b.UniversalLowerBound,
		GreedyUpperBound:    b.GreedyUpperBound,
		WithinPaperBounds:   res.WithinPaperBounds,
		Kernel:              res.Kernel,
		Delays:              res.Delays,
	}, nil
}
