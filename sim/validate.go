package sim

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/butterfly"
	"repro/internal/hypercube"
	"repro/internal/network"
	"repro/internal/slotsim"
	"repro/internal/workload"
	"repro/internal/xrand"
)

// hypercubeConfig is the normalized internal form of a hypercube scenario:
// every default filled, Lambda derived. It is what the runners consume.
type hypercubeConfig struct {
	D                       int
	P                       float64
	Lambda                  float64
	Router                  RouterKind
	Discipline              network.Discipline
	Horizon                 float64
	WarmupFraction          float64
	Seed                    uint64
	Slotted                 bool
	Tau                     float64
	TrackQuantiles          bool
	SketchAlpha             float64
	ReturnDelays            bool
	TrackPerDimensionWait   bool
	PopulationTraceInterval float64
	CustomWeights           []float64
	SkipPerDimensionStats   bool
	ForceEventDriven        bool
	MaxBytes                int64
	Faults                  *network.Faults
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

// butterflyConfig is the normalized internal form of a butterfly scenario.
type butterflyConfig struct {
	D                       int
	P                       float64
	Lambda                  float64
	Discipline              network.Discipline
	Horizon                 float64
	WarmupFraction          float64
	Seed                    uint64
	TrackQuantiles          bool
	SketchAlpha             float64
	ReturnDelays            bool
	PopulationTraceInterval float64
	ForceEventDriven        bool
	MaxBytes                int64
	Faults                  *network.Faults
}

// normalized is the result of one validation/normalization pass: exactly one
// of the per-kernel configs is non-nil.
type normalized struct {
	hc *hypercubeConfig
	bc *butterflyConfig
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
	if f.ArcFailProb == 0 && f.BufferCapacity == 0 && len(f.Outages) == 0 {
		return nil, fmt.Errorf("sim: faults block is empty; set arc_fail_prob, buffer_capacity or outages (or drop the block)")
	}
	if math.IsNaN(f.ArcFailProb) || f.ArcFailProb < 0 || f.ArcFailProb >= 1 {
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
		if math.IsNaN(o.From) || math.IsNaN(o.Until) || o.From < 0 || o.Until <= o.From {
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
			if math.IsNaN(o.Fraction) || o.Fraction < 0 || o.Fraction > 1 {
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
		if math.IsNaN(s.SketchAlpha) || s.SketchAlpha <= 0 || s.SketchAlpha >= 0.5 {
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
		if s.MaxBytes > 0 {
			if s.ForceEventDriven || s.Discipline != FIFO {
				return none, fmt.Errorf("sim: max_bytes budgets the slot-stepped kernel; it requires the FIFO discipline without force_event_driven")
			}
			if est := slotEstimateButterfly(s.Topology.D); est > s.MaxBytes {
				return none, fmt.Errorf("sim: butterfly d=%d needs an estimated %s of kernel memory, exceeding max_bytes = %s",
					s.Topology.D, formatBytes(est), formatBytes(s.MaxBytes))
			}
		}
		plan, err := s.resolveFaults(2 * s.Topology.D * (1 << uint(s.Topology.D)))
		if err != nil {
			return none, err
		}
		return normalized{bc: &butterflyConfig{
			D:                       s.Topology.D,
			P:                       s.P,
			Lambda:                  lambda,
			Discipline:              network.Discipline(s.Discipline),
			Horizon:                 s.Horizon,
			WarmupFraction:          warmup,
			Seed:                    s.Seed,
			TrackQuantiles:          s.TrackQuantiles,
			SketchAlpha:             s.sketchAlpha(),
			ReturnDelays:            s.ReturnDelays,
			PopulationTraceInterval: s.PopulationTraceInterval,
			ForceEventDriven:        s.ForceEventDriven,
			MaxBytes:                s.MaxBytes,
			Faults:                  plan,
		}}, nil
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
		// reporting different semantics. (The pure performance toggles
		// SkipPerDimensionStats and ForceEventDriven are ignored: they never
		// change what a run computes.)
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
			if w < 0 || math.IsNaN(w) {
				return none, fmt.Errorf("sim: CustomWeights[%d] = %v is invalid", i, w)
			}
			sum += w
		}
		if sum <= 0 {
			return none, fmt.Errorf("sim: CustomWeights sum to zero")
		}
	}
	if s.MaxBytes > 0 {
		if s.ForceEventDriven || s.Discipline != FIFO {
			return none, fmt.Errorf("sim: max_bytes budgets the slot-stepped kernel; it requires the FIFO discipline without force_event_driven")
		}
		if est := slotEstimateHypercube(s); est > s.MaxBytes {
			return none, fmt.Errorf("sim: hypercube d=%d needs an estimated %s of kernel memory, exceeding max_bytes = %s",
				s.Topology.D, formatBytes(est), formatBytes(s.MaxBytes))
		}
	}
	plan, err := s.resolveFaults(s.Topology.D * (1 << uint(s.Topology.D)))
	if err != nil {
		return none, err
	}
	return normalized{hc: &hypercubeConfig{
		D:                       s.Topology.D,
		P:                       s.P,
		Lambda:                  lambda,
		Router:                  s.Router,
		Discipline:              network.Discipline(s.Discipline),
		Horizon:                 s.Horizon,
		WarmupFraction:          warmup,
		Seed:                    s.Seed,
		Slotted:                 s.Slotted,
		Tau:                     s.Tau,
		TrackQuantiles:          s.TrackQuantiles,
		SketchAlpha:             s.sketchAlpha(),
		ReturnDelays:            s.ReturnDelays,
		TrackPerDimensionWait:   s.TrackPerDimensionWait,
		PopulationTraceInterval: s.PopulationTraceInterval,
		CustomWeights:           s.CustomWeights,
		SkipPerDimensionStats:   s.SkipPerDimensionStats,
		ForceEventDriven:        s.ForceEventDriven,
		MaxBytes:                s.MaxBytes,
		Faults:                  plan,
	}}, nil
}

// slotEstimateHypercube prices the slotsim configuration runSlotStepped
// builds for a hypercube run: d·2^d arcs, the kernel's initial dynamic
// capacities and, for greedy routing under continuous-time arrivals, the
// arrival prefetch block. Kept next to the validation that quotes it; the
// runner-side config construction lives in kernels.go.
func slotEstimateHypercube(s *Scenario) int64 {
	d := s.Topology.D
	cfg := slotsim.Config{
		NumArcs:             d * (1 << uint(d)),
		NumGroups:           d,
		Slotted:             s.Slotted,
		SkipGroupPopulation: s.SkipPerDimensionStats,
		TrackPerHopWait:     s.TrackPerDimensionWait,
	}
	if s.Router == GreedyDimensionOrder {
		// As in runSlotStepped; the sampler is only priced, never called.
		cfg.Mode = slotsim.RouteHypercubeGreedy
		cfg.Batch = (*hyperRunner)(nil)
	}
	return slotsim.EstimateBytes(cfg)
}

// slotEstimateButterfly prices the slotsim configuration for a butterfly run:
// 2·d·2^d arcs, with per-group populations always off (matching
// butterflyRunner.runSlotStepped).
func slotEstimateButterfly(d int) int64 {
	return slotsim.EstimateBytes(slotsim.Config{
		NumArcs:             2 * d * (1 << uint(d)),
		NumGroups:           2 * d,
		SkipGroupPopulation: true,
	})
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
