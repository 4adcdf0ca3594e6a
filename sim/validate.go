package sim

import (
	"fmt"
	"math"
	"reflect"
	"sort"

	"repro/internal/butterfly"
	"repro/internal/hypercube"
	"repro/internal/network"
	"repro/internal/routing"
	"repro/internal/slotsim"
	"repro/internal/workload"
	"repro/internal/xrand"
)

// storeForward is the normalized form of a hypercube or butterfly scenario:
// every default filled, Lambda derived, the fault plan resolved and the
// One pooled runner executes it on the slot kernel (see kernels.go); net
// holds what differs between the topologies.
type storeForward struct {
	Topology       Topology
	P              float64
	Lambda         float64
	CustomWeights  []float64
	Discipline     network.Discipline
	Horizon        float64
	WarmupFraction float64
	Seed           uint64
	Slotted        bool
	Tau            float64
	ReturnDelays   bool
	MaxBytes       int64
	Measure        network.Measurement
	Faults         *network.Faults
	net            netShape
}

// netShape is the per-topology part of a storeForward config.
type netShape struct {
	// arcs, groups and sources size the kernel: the arcs form groups as
	// network.GroupShift lays them out, and each arrival picks one of the
	// sources (hypercube nodes, butterfly first-level rows) as its origin.
	arcs, groups, sources int
	// maxHops bounds a stored route; mode selects how the slot kernel steps
	// routes.
	maxHops int
	mode    slotsim.RouteMode
	// dist and router sample hypercube destinations and routes (both nil on
	// the butterfly, whose sampler owns its row distribution and unique
	// paths). They are immutable, so replications share them.
	dist   workload.DestinationDist
	router routing.HypercubeRouter
}

// deflectionConfig is the normalized internal form of a hot-potato scenario:
// a hypercube scenario whose Router is Deflection. The kernel is slotted, so
// the horizon normalizes to a whole number of slots.
type deflectionConfig struct {
	D              int
	P              float64
	Lambda         float64
	Slots          int
	WarmupFraction float64
	Seed           uint64
	ArcFailProb    float64
	SketchAlpha    float64
}

// normalized is the result of one validation/normalization pass: exactly one
// of the configs is non-nil.
type normalized struct {
	sf *storeForward
	dc *deflectionConfig
}

// sketchAlpha resolves the delay-sketch resolution the kernels receive: zero
// (sketch off) unless TailQuantiles is set, then the explicit SketchAlpha or
// DefaultSketchAlpha.
func (s *Scenario) sketchAlpha() float64 {
	if !s.TailQuantiles {
		return 0
	}
	if s.SketchAlpha > 0 {
		return s.SketchAlpha
	}
	return DefaultSketchAlpha
}

// empty reports whether the block sets no fault feature.
func (f *FaultSpec) empty() bool {
	return f.ArcFailProb == 0 && f.BufferCapacity == 0 && len(f.Outages) == 0
}

// resolveFaults validates the scenario's faults block and resolves it into
// the kernel-ready fault model over a topology with numArcs directed arcs:
// the probability and capacity range-checked, every outage arc set resolved
// to an explicit sorted index list (fraction subsets drawn from the dedicated
// outage RNG stream), windows sorted by start time with non-overlap verified.
// It returns (nil, nil) exactly when the scenario has no faults block, so
// faultless runs take the unchanged fast paths.
func (s *Scenario) resolveFaults(numArcs int) (*network.Faults, error) {
	f := s.Faults
	if f == nil {
		return nil, nil
	}
	if f.empty() {
		return nil, fmt.Errorf("sim: faults block is empty; set arc_fail_prob, buffer_capacity or outages (or drop the block)")
	}
	if f.ArcFailProb < 0 || f.ArcFailProb >= 1 {
		return nil, fmt.Errorf("sim: arc_fail_prob = %v outside [0,1)", f.ArcFailProb)
	}
	if f.BufferCapacity < 0 {
		return nil, fmt.Errorf("sim: negative buffer_capacity %d", f.BufferCapacity)
	}
	plan := &network.Faults{ArcFailProb: f.ArcFailProb, BufferCapacity: f.BufferCapacity}
	if len(f.Outages) == 0 {
		return plan, nil
	}
	outages := make([]network.Outage, len(f.Outages))
	for i, o := range f.Outages {
		if o.From < 0 || o.Until <= o.From {
			return nil, fmt.Errorf("sim: outage %d: window [%v,%v) is invalid (need 0 <= from < until)", i, o.From, o.Until)
		}
		if (len(o.Arcs) == 0) == (o.Fraction == 0) {
			return nil, fmt.Errorf("sim: outage %d: set exactly one of arcs and fraction", i)
		}
		var arcs []int32
		if len(o.Arcs) > 0 {
			arcs = make([]int32, len(o.Arcs))
			prev := -1
			for j, a := range o.Arcs {
				if a < 0 || a >= numArcs {
					return nil, fmt.Errorf("sim: outage %d: arc %d out of range [0,%d)", i, a, numArcs)
				}
				if a <= prev {
					return nil, fmt.Errorf("sim: outage %d: arcs must be strictly increasing (%d after %d)", i, a, prev)
				}
				prev = a
				arcs[j] = int32(a)
			}
		} else {
			if o.Fraction < 0 || o.Fraction > 1 {
				return nil, fmt.Errorf("sim: outage %d: fraction = %v outside (0,1]", i, o.Fraction)
			}
			arcs = sampleArcs(s.Seed, uint64(i), o.Fraction, numArcs)
		}
		outages[i] = network.Outage{From: o.From, Until: o.Until, Arcs: arcs}
	}
	sort.SliceStable(outages, func(a, b int) bool { return outages[a].From < outages[b].From })
	for i := 1; i < len(outages); i++ {
		if outages[i].From < outages[i-1].Until {
			return nil, fmt.Errorf("sim: outage windows [%v,%v) and [%v,%v) overlap",
				outages[i-1].From, outages[i-1].Until, outages[i].From, outages[i].Until)
		}
	}
	plan.Outages = outages
	return plan, nil
}

// sampleArcs draws round(fraction*numArcs) distinct arc indices (at least
// one) without replacement, deterministically from the scenario seed and the
// outage's spec position, and returns them sorted ascending. Floyd's
// algorithm keeps the draw O(k) in time and space even at million-arc scale.
func sampleArcs(seed, outage uint64, fraction float64, numArcs int) []int32 {
	k := int(math.Round(fraction * float64(numArcs)))
	if k < 1 {
		k = 1
	}
	if k > numArcs {
		k = numArcs
	}
	rng := xrand.NewStream(seed, xrand.StreamOutage+outage)
	chosen := make(map[int32]struct{}, k)
	for i := numArcs - k; i < numArcs; i++ {
		j := int32(rng.Intn(i + 1))
		if _, taken := chosen[j]; taken {
			j = int32(i)
		}
		chosen[j] = struct{}{}
	}
	arcs := make([]int32, 0, k)
	for a := range chosen {
		arcs = append(arcs, a)
	}
	sort.Slice(arcs, func(i, j int) bool { return arcs[i] < arcs[j] })
	return arcs
}

// Validate checks the scenario for consistency without running it. It is the
// single validation pass shared by every topology; topology-specific rules
// (dimension ranges, hypercube-only features) dispatch on Topology.Kind.
func (s *Scenario) Validate() error {
	_, err := s.normalize()
	return err
}

// normalize validates the scenario and returns its normalized per-kernel
// form.
func (s *Scenario) normalize() (normalized, error) {
	var none normalized
	if path, f, found := nonFinite(reflect.ValueOf(s).Elem()); found {
		return none, fmt.Errorf("sim: %s = %v must be a finite number", path[1:], f)
	}
	switch s.Topology.Kind {
	case TopologyHypercube, TopologyButterfly:
	case "":
		return none, fmt.Errorf("sim: topology kind missing (valid: %v)", topologyKinds)
	default:
		return none, fmt.Errorf("sim: unknown topology kind %q (valid: %v)", s.Topology.Kind, topologyKinds)
	}
	isHypercube := s.Topology.Kind == TopologyHypercube

	maxD := hypercube.MaxDimension
	if !isHypercube {
		maxD = butterfly.MaxDimension
	}
	if s.Topology.D < 1 || s.Topology.D > maxD {
		return none, fmt.Errorf("sim: %s dimension %d out of range [1,%d]", s.Topology.Kind, s.Topology.D, maxD)
	}
	if s.P < 0 || s.P > 1 {
		return none, fmt.Errorf("sim: p = %v outside [0,1]", s.P)
	}
	if s.Horizon <= 0 {
		return none, fmt.Errorf("sim: horizon must be positive, got %v", s.Horizon)
	}
	if s.Lambda < 0 || s.LoadFactor < 0 {
		return none, fmt.Errorf("sim: negative rate parameters")
	}
	if s.Lambda == 0 && s.LoadFactor == 0 {
		return none, fmt.Errorf("sim: one of Lambda or LoadFactor must be set")
	}
	if s.Lambda > 0 && s.LoadFactor > 0 {
		return none, fmt.Errorf("sim: set only one of Lambda and LoadFactor")
	}
	if s.WarmupFraction < 0 || s.WarmupFraction >= 1 {
		return none, fmt.Errorf("sim: warmup fraction %v outside [0,1)", s.WarmupFraction)
	}
	warmup := s.WarmupFraction
	if warmup == 0 {
		warmup = 0.2
	}
	switch s.Discipline {
	case FIFO, RandomOrder:
	default:
		return none, fmt.Errorf("sim: unknown discipline %d", int(s.Discipline))
	}
	if s.Slotted {
		if s.Tau <= 0 || s.Tau > 1 {
			return none, fmt.Errorf("sim: slotted mode requires 0 < tau <= 1, got %v", s.Tau)
		}
	} else if s.Tau != 0 {
		return none, fmt.Errorf("sim: tau = %v set without Slotted", s.Tau)
	}
	if s.ReturnDelays && !s.TrackQuantiles {
		return none, fmt.Errorf("sim: ReturnDelays requires TrackQuantiles")
	}
	if s.SketchAlpha != 0 {
		if !s.TailQuantiles {
			return none, fmt.Errorf("sim: sketch_alpha requires tail_quantiles")
		}
		if s.SketchAlpha <= 0 || s.SketchAlpha >= 0.5 {
			return none, fmt.Errorf("sim: sketch_alpha = %v outside (0, 0.5)", s.SketchAlpha)
		}
	}
	if s.Replications < 0 {
		return none, fmt.Errorf("sim: negative replication count %d", s.Replications)
	}
	if s.Precision != nil {
		if s.Replications > 1 {
			return none, fmt.Errorf("sim: set either replications or precision, not both (precision decides the replication count itself)")
		}
		if err := s.Precision.validate(s.TailQuantiles); err != nil {
			return none, err
		}
	}
	if s.PopulationTraceInterval < 0 {
		return none, fmt.Errorf("sim: negative population trace interval %v", s.PopulationTraceInterval)
	}
	if s.MaxBytes < 0 {
		return none, fmt.Errorf("sim: negative max_bytes %d", s.MaxBytes)
	}

	if !isHypercube {
		// Reject the hypercube-only features explicitly so a spec file that
		// mixes them with a butterfly fails loudly instead of silently
		// dropping settings.
		switch {
		case s.Router != GreedyDimensionOrder:
			return none, fmt.Errorf("sim: the butterfly admits only greedy routing, got router %s", s.Router)
		case s.Slotted:
			return none, fmt.Errorf("sim: slotted arrivals are a hypercube feature (§3.4)")
		case s.CustomWeights != nil:
			return none, fmt.Errorf("sim: custom destination weights are a hypercube feature (§2.2)")
		case s.TrackPerDimensionWait:
			return none, fmt.Errorf("sim: per-dimension wait tracking is a hypercube feature")
		}
		lambda := s.Lambda
		if s.LoadFactor > 0 {
			if math.Max(s.P, 1-s.P) <= 0 {
				return none, fmt.Errorf("sim: cannot derive Lambda from LoadFactor when max{p,1-p} = 0")
			}
			lambda = workload.RequiredLambdaButterfly(s.LoadFactor, s.P)
		}
		d := s.Topology.D
		return s.storeForward(lambda, warmup, netShape{
			arcs:    2 * d << d,
			groups:  2 * d, // one per level and arc kind
			sources: 1 << d,
			mode:    slotsim.RouteButterfly,
		})
	}

	switch s.Router {
	case GreedyDimensionOrder, GreedyRandomOrder, ValiantTwoPhase, Deflection:
	default:
		return none, fmt.Errorf("sim: unknown router kind %d", int(s.Router))
	}
	lambda := s.Lambda
	if s.LoadFactor > 0 {
		if s.P == 0 {
			return none, fmt.Errorf("sim: cannot derive Lambda from LoadFactor when p = 0")
		}
		lambda = s.LoadFactor / s.P
	}
	if s.Router == Deflection {
		// Hot-potato routing runs on its own slotted kernel with none of the
		// store-and-forward observability hooks; reject the settings it
		// cannot honour so spec files fail loudly instead of silently
		// reporting different semantics. (The performance toggle
		// SkipPerDimensionStats is ignored: it never changes what a run
		// computes.)
		switch {
		case s.Discipline != FIFO:
			return none, fmt.Errorf("sim: deflection routing has no arc queues, so the discipline must stay FIFO (the default)")
		case s.Slotted:
			return none, fmt.Errorf("sim: deflection routing is inherently slotted (unit slots); drop Slotted/Tau")
		case s.CustomWeights != nil:
			return none, fmt.Errorf("sim: deflection routing supports only the bit-flip destination distribution")
		case s.TrackQuantiles:
			return none, fmt.Errorf("sim: deflection routing does not record delay quantiles")
		case s.TrackPerDimensionWait:
			return none, fmt.Errorf("sim: deflection routing does not track per-dimension waits")
		case s.PopulationTraceInterval > 0:
			return none, fmt.Errorf("sim: deflection routing reports its backlog slope instead of a population trace")
		case s.MaxBytes > 0:
			return none, fmt.Errorf("sim: max_bytes budgets the slot-stepped kernel, which deflection routing does not use")
		case s.Horizon < 1:
			return none, fmt.Errorf("sim: deflection routing needs a horizon of at least one slot, got %v", s.Horizon)
		case s.Horizon != math.Trunc(s.Horizon):
			return none, fmt.Errorf("sim: deflection routing is slotted, so the horizon must be a whole number of slots, got %v", s.Horizon)
		case s.Faults != nil && s.Faults.BufferCapacity != 0:
			return none, fmt.Errorf("sim: deflection routing is bufferless, so buffer_capacity does not apply")
		case s.Faults != nil && len(s.Faults.Outages) != 0:
			return none, fmt.Errorf("sim: deflection routing does not support scheduled outages (only arc_fail_prob)")
		}
		plan, err := s.resolveFaults(s.Topology.D * (1 << uint(s.Topology.D)))
		if err != nil {
			return none, err
		}
		dc := &deflectionConfig{
			D:              s.Topology.D,
			P:              s.P,
			Lambda:         lambda,
			Slots:          int(s.Horizon),
			WarmupFraction: warmup,
			Seed:           s.Seed,
			SketchAlpha:    s.sketchAlpha(),
		}
		if plan != nil {
			dc.ArcFailProb = plan.ArcFailProb
		}
		return normalized{dc: dc}, nil
	}
	if s.CustomWeights != nil {
		if len(s.CustomWeights) != 1<<uint(s.Topology.D) {
			return none, fmt.Errorf("sim: CustomWeights needs %d entries, got %d",
				1<<uint(s.Topology.D), len(s.CustomWeights))
		}
		if s.LoadFactor > 0 {
			return none, fmt.Errorf("sim: set Lambda (not LoadFactor) with CustomWeights")
		}
		sum := 0.0
		for i, w := range s.CustomWeights {
			if w < 0 {
				return none, fmt.Errorf("sim: CustomWeights[%d] = %v is invalid", i, w)
			}
			sum += w
		}
		if sum <= 0 {
			return none, fmt.Errorf("sim: CustomWeights sum to zero")
		}
	}
	d := s.Topology.D
	net := netShape{
		arcs:    d << d,
		groups:  d, // one per dimension
		sources: 1 << d,
		maxHops: 2 * d, // Valiant routes use up to 2d hops
		mode:    slotsim.RouteStored,
		router:  s.Router.router(),
	}
	if s.Router == GreedyDimensionOrder {
		// The canonical dimension-order path is a pure function of
		// (origin, dest), so the slot kernel steps it arithmetically;
		// randomized routers need materialized routes.
		net.mode = slotsim.RouteHypercubeGreedy
	}
	if s.CustomWeights != nil {
		net.dist = workload.NewTranslationInvariant(d, s.CustomWeights)
	} else {
		net.dist = workload.NewBitFlip(d, s.P)
	}
	return s.storeForward(lambda, warmup, net)
}

// storeForward finishes normalizing a hypercube or butterfly scenario: it
// resolves the fault plan and prices max_bytes against the slot kernel
// configuration the run builds, faults included.
func (s *Scenario) storeForward(lambda, warmup float64, net netShape) (normalized, error) {
	plan, err := s.resolveFaults(net.arcs)
	if err != nil {
		return normalized{}, err
	}
	c := &storeForward{
		Topology:       s.Topology,
		P:              s.P,
		Lambda:         lambda,
		CustomWeights:  s.CustomWeights,
		Discipline:     network.Discipline(s.Discipline),
		Horizon:        s.Horizon,
		WarmupFraction: warmup,
		Seed:           s.Seed,
		Slotted:        s.Slotted,
		Tau:            s.Tau,
		ReturnDelays:   s.ReturnDelays,
		MaxBytes:       s.MaxBytes,
		Measure: network.Measurement{
			TrackQuantiles:  s.TrackQuantiles,
			SketchAlpha:     s.sketchAlpha(),
			TrackPerHopWait: s.TrackPerDimensionWait,
			TraceInterval:   s.PopulationTraceInterval,
			// The butterfly results never read per-group populations.
			SkipGroupPopulation: s.SkipPerDimensionStats || s.Topology.Kind == TopologyButterfly,
		},
		Faults: plan,
		net:    net,
	}
	if s.MaxBytes > 0 {
		r := new(runner)
		if est := slotsim.EstimateBytes(c.slotConfig(r.sampler(c))); est > s.MaxBytes {
			return normalized{}, fmt.Errorf("sim: %s d=%d needs an estimated %s of kernel memory, exceeding max_bytes = %s",
				s.Topology.Kind, s.Topology.D, formatBytes(est), formatBytes(s.MaxBytes))
		}
	}
	return normalized{sf: c}, nil
}

// formatBytes renders a byte count in binary units for validation errors.
func formatBytes(b int64) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%.1f GiB", float64(b)/(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.1f MiB", float64(b)/(1<<20))
	default:
		return fmt.Sprintf("%d B", b)
	}
}
