package sim

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/slotsim"
)

// valid returns a minimal runnable hypercube scenario that each error case
// below perturbs.
func valid() Scenario {
	return Scenario{
		Topology: Hypercube(4), P: 0.5, LoadFactor: 0.6, Horizon: 100, Seed: 1,
	}
}

func TestScenarioValidationErrors(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(*Scenario)
		wantSub string
	}{
		{"missing topology kind", func(s *Scenario) { s.Topology.Kind = "" }, "topology kind missing"},
		{"unknown topology kind", func(s *Scenario) { s.Topology.Kind = "torus" }, "unknown topology kind"},
		{"dimension zero", func(s *Scenario) { s.Topology.D = 0 }, "out of range"},
		{"dimension too large", func(s *Scenario) { s.Topology.D = 25 }, "out of range"},
		{"butterfly dimension too large", func(s *Scenario) { s.Topology = Butterfly(21) }, "out of range"},
		{"negative p", func(s *Scenario) { s.P = -0.1 }, "outside [0,1]"},
		{"p above one", func(s *Scenario) { s.P = 1.5 }, "outside [0,1]"},
		{"missing horizon", func(s *Scenario) { s.Horizon = 0 }, "horizon"},
		{"negative horizon", func(s *Scenario) { s.Horizon = -5 }, "horizon"},
		{"negative lambda", func(s *Scenario) { s.LoadFactor = 0; s.Lambda = -1 }, "negative rate"},
		{"no rate at all", func(s *Scenario) { s.LoadFactor = 0 }, "one of Lambda or LoadFactor"},
		{"both rates", func(s *Scenario) { s.Lambda = 1 }, "only one of Lambda and LoadFactor"},
		{"load factor with p zero", func(s *Scenario) { s.P = 0 }, "cannot derive Lambda"},
		{"warmup fraction too large", func(s *Scenario) { s.WarmupFraction = 1.5 }, "warmup fraction"},
		{"negative warmup fraction", func(s *Scenario) { s.WarmupFraction = -0.1 }, "warmup fraction"},
		{"slotted without tau", func(s *Scenario) { s.Slotted = true }, "0 < tau <= 1"},
		{"slotted tau above one", func(s *Scenario) { s.Slotted = true; s.Tau = 2 }, "0 < tau <= 1"},
		{"tau without slotted", func(s *Scenario) { s.Tau = 0.5 }, "without Slotted"},
		{"return delays without quantiles", func(s *Scenario) { s.ReturnDelays = true }, "requires TrackQuantiles"},
		{"negative replications", func(s *Scenario) { s.Replications = -1 }, "replication count"},
		{"negative trace interval", func(s *Scenario) { s.PopulationTraceInterval = -1 }, "trace interval"},
		{"unknown router", func(s *Scenario) { s.Router = RouterKind(9) }, "unknown router"},
		{"unknown discipline", func(s *Scenario) { s.Discipline = Discipline(9) }, "unknown discipline"},
		{"custom weights wrong length", func(s *Scenario) {
			s.LoadFactor = 0
			s.Lambda = 1
			s.CustomWeights = []float64{1, 2}
		}, "CustomWeights needs 16 entries"},
		{"custom weights with load factor", func(s *Scenario) {
			s.CustomWeights = make([]float64, 16)
		}, "set Lambda (not LoadFactor)"},
		{"custom weights negative entry", func(s *Scenario) {
			s.LoadFactor = 0
			s.Lambda = 1
			w := make([]float64, 16)
			w[3] = -1
			s.CustomWeights = w
		}, "is invalid"},
		{"custom weights NaN entry", func(s *Scenario) {
			s.LoadFactor = 0
			s.Lambda = 1
			w := make([]float64, 16)
			w[3] = math.NaN()
			s.CustomWeights = w
		}, "custom_weights[3] = NaN must be a finite number"},
		{"custom weights all zero", func(s *Scenario) {
			s.LoadFactor = 0
			s.Lambda = 1
			s.CustomWeights = make([]float64, 16)
		}, "sum to zero"},
		// Every float of the spec must be finite: NaN and ±Inf pass each
		// range check written as a comparison.
		{"NaN p", func(s *Scenario) { s.P = math.NaN() }, "p = NaN must be a finite number"},
		{"infinite lambda", func(s *Scenario) { s.LoadFactor = 0; s.Lambda = math.Inf(1) }, "lambda = +Inf must be a finite number"},
		{"NaN load factor", func(s *Scenario) { s.LoadFactor = math.NaN() }, "load_factor = NaN must be a finite number"},
		{"NaN slotted tau", func(s *Scenario) { s.Slotted = true; s.Tau = math.NaN() }, "tau = NaN must be a finite number"},
		{"infinite horizon", func(s *Scenario) { s.Horizon = math.Inf(1) }, "horizon = +Inf must be a finite number"},
		{"NaN warmup fraction", func(s *Scenario) { s.WarmupFraction = math.NaN() }, "warmup_fraction = NaN must be a finite number"},
		{"NaN sketch alpha", func(s *Scenario) { s.TailQuantiles = true; s.SketchAlpha = math.NaN() }, "sketch_alpha = NaN must be a finite number"},
		{"NaN trace interval", func(s *Scenario) { s.PopulationTraceInterval = math.NaN() }, "population_trace_interval = NaN must be a finite number"},
		{"infinite custom weight", func(s *Scenario) {
			s.LoadFactor = 0
			s.Lambda = 1
			w := make([]float64, 16)
			w[5] = math.Inf(1)
			s.CustomWeights = w
		}, "custom_weights[5] = +Inf must be a finite number"},
		{"NaN arc fail prob", func(s *Scenario) { s.Faults = &FaultSpec{ArcFailProb: math.NaN()} }, "faults.arc_fail_prob = NaN must be a finite number"},
		{"NaN outage start", func(s *Scenario) {
			s.Faults = &FaultSpec{Outages: []Outage{{From: math.NaN(), Until: 10, Fraction: 0.5}}}
		}, "faults.outages[0].from = NaN must be a finite number"},
		{"infinite outage end", func(s *Scenario) {
			s.Faults = &FaultSpec{Outages: []Outage{{From: 0, Until: 10, Fraction: 0.5}, {From: 20, Until: math.Inf(1), Fraction: 0.5}}}
		}, "faults.outages[1].until = +Inf must be a finite number"},
		{"NaN outage fraction", func(s *Scenario) {
			s.Faults = &FaultSpec{Outages: []Outage{{From: 0, Until: 10, Fraction: math.NaN()}}}
		}, "faults.outages[0].fraction = NaN must be a finite number"},
		{"infinite precision target", func(s *Scenario) { s.Precision = &PrecisionSpec{TargetCI: math.Inf(1)} }, "precision.target_ci = +Inf must be a finite number"},
		{"NaN precision rank error", func(s *Scenario) {
			s.TailQuantiles = true
			s.Precision = &PrecisionSpec{RankError: math.NaN()}
		}, "precision.rank_error = NaN must be a finite number"},
		{"NaN precision quantile", func(s *Scenario) {
			s.TailQuantiles = true
			s.Precision = &PrecisionSpec{RankError: 0.01, Quantile: math.NaN()}
		}, "precision.quantile = NaN must be a finite number"},
		{"negative infinite precision level", func(s *Scenario) {
			s.Precision = &PrecisionSpec{TargetCI: 0.1, Level: math.Inf(-1)}
		}, "precision.level = -Inf must be a finite number"},
		{"butterfly with non-greedy router", func(s *Scenario) {
			s.Topology = Butterfly(4)
			s.Router = ValiantTwoPhase
		}, "only greedy routing"},
		{"butterfly with slotted arrivals", func(s *Scenario) {
			s.Topology = Butterfly(4)
			s.Slotted = true
			s.Tau = 0.5
		}, "hypercube feature"},
		{"butterfly with custom weights", func(s *Scenario) {
			s.Topology = Butterfly(4)
			s.LoadFactor = 0
			s.Lambda = 1
			s.CustomWeights = make([]float64, 16)
		}, "hypercube feature"},
		{"butterfly with per-dimension wait", func(s *Scenario) {
			s.Topology = Butterfly(4)
			s.TrackPerDimensionWait = true
		}, "hypercube feature"},
		{"negative max bytes", func(s *Scenario) { s.MaxBytes = -1 }, "negative max_bytes"},
		{"max bytes below the continuous hypercube estimate", func(s *Scenario) {
			s.MaxBytes = slotEstimate(s) - 1
		}, "exceeding max_bytes"},
		{"max bytes below the hypercube estimate", func(s *Scenario) {
			s.Slotted = true
			s.Tau = 1
			s.MaxBytes = 64
		}, "exceeding max_bytes"},
		{"max bytes below the butterfly estimate", func(s *Scenario) {
			s.Topology = Butterfly(4)
			s.MaxBytes = 64
		}, "exceeding max_bytes"},
		{"max bytes with deflection routing", func(s *Scenario) {
			s.Router = Deflection
			s.MaxBytes = 1 << 30
		}, "deflection routing"},
	}
	for _, tc := range cases {
		sc := valid()
		tc.mutate(&sc)
		err := sc.Validate()
		if err == nil {
			t.Errorf("%s: expected a validation error", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.wantSub) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.wantSub)
		}
		if !strings.HasPrefix(err.Error(), "sim: ") {
			t.Errorf("%s: error %q not prefixed with the package name", tc.name, err)
		}
	}
}

func TestScenarioValidationAccepts(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Scenario)
	}{
		{"minimal hypercube", func(s *Scenario) {}},
		{"lambda instead of load factor", func(s *Scenario) { s.LoadFactor = 0; s.Lambda = 1.2 }},
		{"slotted with tau", func(s *Scenario) { s.Slotted = true; s.Tau = 0.5 }},
		{"valiant router", func(s *Scenario) { s.Router = ValiantTwoPhase }},
		{"random-order discipline", func(s *Scenario) { s.Discipline = RandomOrder }},
		{"quantiles with returned delays", func(s *Scenario) { s.TrackQuantiles = true; s.ReturnDelays = true }},
		{"replications", func(s *Scenario) { s.Replications = 8; s.Parallelism = 2 }},
		{"custom weights", func(s *Scenario) {
			s.LoadFactor = 0
			s.Lambda = 1
			w := make([]float64, 16)
			w[1] = 1
			s.CustomWeights = w
		}},
		{"butterfly", func(s *Scenario) { *s = Scenario{Topology: Butterfly(5), P: 0.3, LoadFactor: 0.8, Horizon: 50} }},
		{"butterfly skip per-dimension stats is a no-op", func(s *Scenario) {
			*s = Scenario{Topology: Butterfly(5), P: 0.3, LoadFactor: 0.8, Horizon: 50, SkipPerDimensionStats: true}
		}},
		{"slotted hypercube within max bytes", func(s *Scenario) {
			s.Slotted = true
			s.Tau = 1
			s.MaxBytes = 1 << 30
		}},
		{"continuous hypercube within max bytes", func(s *Scenario) {
			s.MaxBytes = 1 << 30
		}},
		{"butterfly within max bytes", func(s *Scenario) {
			*s = Scenario{Topology: Butterfly(5), P: 0.3, LoadFactor: 0.8, Horizon: 50, MaxBytes: 1 << 30}
		}},
	}
	for _, tc := range cases {
		sc := valid()
		tc.mutate(&sc)
		if err := sc.Validate(); err != nil {
			t.Errorf("%s: unexpected error: %v", tc.name, err)
		}
	}
}

// TestScenarioJSONRoundTrip pins the declarative spec contract: marshalling
// a scenario and unmarshalling it back yields the identical value, for every
// topology and feature combination.
func TestScenarioJSONRoundTrip(t *testing.T) {
	w := make([]float64, 16)
	w[3] = 0.25
	w[5] = 0.75
	scenarios := []Scenario{
		valid(),
		{
			Name:     "kitchen-sink-hypercube",
			Topology: Hypercube(4), Lambda: 1.5,
			CustomWeights: w,
			Router:        ValiantTwoPhase, Discipline: RandomOrder,
			Horizon: 250, WarmupFraction: 0.3, Seed: 42,
			Replications: 6, TrackQuantiles: true, ReturnDelays: true,
			TrackPerDimensionWait: true, PopulationTraceInterval: 5,
			SkipPerDimensionStats: false, MaxBytes: 1 << 30,
		},
		{
			Name:     "slotted",
			Topology: Hypercube(6), P: 0.5, LoadFactor: 0.9,
			Slotted: true, Tau: 0.25, Horizon: 100, Seed: 7,
			SkipPerDimensionStats: true,
		},
		{
			Name:     "butterfly",
			Topology: Butterfly(8), P: 0.3, LoadFactor: 0.85,
			Horizon: 100, Seed: 3, TrackQuantiles: true,
		},
	}
	for _, sc := range scenarios {
		data, err := json.Marshal(sc)
		if err != nil {
			t.Fatalf("%s: marshal: %v", sc.Title(), err)
		}
		var back Scenario
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatalf("%s: unmarshal: %v", sc.Title(), err)
		}
		if !reflect.DeepEqual(sc, back) {
			t.Errorf("%s: round trip changed the scenario:\n%+v\nvs\n%+v\nJSON: %s",
				sc.Title(), sc, back, data)
		}
	}
}

// TestScenarioJSONEnumNames pins the spec spellings of the enums, including
// the long router aliases.
func TestScenarioJSONEnumNames(t *testing.T) {
	data, err := json.Marshal(Scenario{
		Topology: Hypercube(3), Router: GreedyRandomOrder, Discipline: RandomOrder,
		LoadFactor: 0.5, P: 0.5, Horizon: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	s := string(data)
	for _, want := range []string{`"kind":"hypercube"`, `"router":"random-order"`, `"discipline":"random-order"`} {
		if !strings.Contains(s, want) {
			t.Errorf("JSON %s missing %s", s, want)
		}
	}

	var sc Scenario
	long := `{"topology":{"kind":"hypercube","d":3},"router":"valiant-two-phase","p":0.5,"load_factor":0.5,"horizon":10}`
	if err := json.Unmarshal([]byte(long), &sc); err != nil {
		t.Fatal(err)
	}
	if sc.Router != ValiantTwoPhase {
		t.Errorf("long router alias parsed as %v", sc.Router)
	}

	for _, bad := range []string{
		`{"topology":{"kind":"hypercube","d":3},"router":"teleport"}`,
		`{"topology":{"kind":"hypercube","d":3},"discipline":"lifo"}`,
	} {
		if err := json.Unmarshal([]byte(bad), &sc); err == nil {
			t.Errorf("bad enum accepted: %s", bad)
		}
	}
}

func TestScenarioTitle(t *testing.T) {
	if got := (Scenario{Name: "x"}).Title(); got != "x" {
		t.Fatalf("named title = %q", got)
	}
	sc := valid()
	if got := sc.Title(); got != "hypercube(d=4) rho=0.6" {
		t.Fatalf("generated title = %q", got)
	}
	sc.LoadFactor = 0
	sc.Lambda = 1.2
	if got := sc.Title(); got != "hypercube(d=4) lambda=1.2" {
		t.Fatalf("lambda title = %q", got)
	}
}

// TestContinuousMaxBytes checks the budget on a continuous-time hypercube:
// the estimate prices the one arrival sampling block both arrival models
// use, so it equals the slotted estimate, and a budgeted run is the
// unbudgeted run.
func TestContinuousMaxBytes(t *testing.T) {
	continuous := valid()
	slotted := valid()
	slotted.Slotted, slotted.Tau = true, 1
	if c, s := slotEstimate(&continuous), slotEstimate(&slotted); c != s {
		t.Errorf("continuous estimate %d B, slotted %d B; want equal, the sampling block priced in both", c, s)
	}
	want, err := Run(context.Background(), continuous)
	if err != nil {
		t.Fatal(err)
	}
	continuous.MaxBytes = 1 << 20
	got, err := Run(context.Background(), continuous)
	if err != nil {
		t.Fatal(err)
	}
	if got.Metrics.MeanDelay != want.Metrics.MeanDelay || got.Kernel != KernelSlotStepped {
		t.Errorf("budgeted run: %s kernel, mean delay %v; want slot-stepped, %v", got.Kernel, got.Metrics.MeanDelay, want.Metrics.MeanDelay)
	}
}

// TestMidRunBudgetOverrunIsAnError checks that a run validation accepts but
// whose in-flight population outgrows max_bytes fails with a
// *MemoryBudgetError on every path, not a crash: a single run returns it, a
// replicated run's engine panic unwraps to it, and a sweep returns it for
// the point. A single run and a sweep point run once: a deterministic
// overrun is not retried.
func TestMidRunBudgetOverrunIsAnError(t *testing.T) {
	sc := Scenario{Topology: Hypercube(7), P: 0.5, LoadFactor: 0.5, Horizon: 200, Seed: 5, MaxBytes: 40000}
	if _, err := sc.normalize(); err != nil {
		t.Fatalf("validation rejects the scenario: %v", err)
	}
	replicated := sc
	replicated.Replications = 2
	sweep := Sweep{Base: sc, Axes: []Axis{{Field: "seed", Values: Ints(5)}}}
	for _, tc := range []struct {
		name string
		runs int // Run calls; 0 leaves them unchecked
		run  func() error
	}{
		{"single run", 1, func() error { _, err := Run(context.Background(), sc); return err }},
		{"replicated run", 0, func() error { _, err := Run(context.Background(), replicated); return err }},
		{"sweep point", 1, func() error { _, err := RunSweep(context.Background(), sweep); return err }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			runs := 0
			runTestHook = func(Scenario) { runs++ }
			defer func() { runTestHook = nil }()
			err := tc.run()
			var budgetErr *MemoryBudgetError
			if !errors.As(err, &budgetErr) {
				t.Fatalf("err = %v (%T), want a *MemoryBudgetError", err, err)
			}
			if budgetErr.MaxBytes != sc.MaxBytes || !strings.Contains(err.Error(), "memory budget exceeded growing") {
				t.Fatalf("budget error %+v, message %q", budgetErr, err)
			}
			if tc.runs > 0 && runs != tc.runs {
				t.Fatalf("%d Run calls, want %d", runs, tc.runs)
			}
		})
	}
}

// TestMaxBytesPricesTheFaultPlan checks that max_bytes prices the kernel the
// run actually builds, faults included: finite buffers add a per-arc queue
// length and outages add transition records and bitsets. For each topology
// and fault feature it finds the smallest budget validation accepts and runs
// at it and around it: below it validation must fail naming max_bytes, and
// from it up the run must complete — the kernel must never panic on a
// budget validation let through. The load is light enough that the dynamic
// pools never grow past their initial capacities.
func TestMaxBytesPricesTheFaultPlan(t *testing.T) {
	faults := []struct {
		name string
		spec *FaultSpec
	}{
		{"buffer_capacity", &FaultSpec{BufferCapacity: 4}},
		{"outages", &FaultSpec{Outages: []Outage{{From: 5, Until: 10, Fraction: 0.25}}}},
	}
	for _, topo := range []Topology{Hypercube(8), Butterfly(6)} {
		for _, f := range faults {
			t.Run(topo.String()+"/"+f.name, func(t *testing.T) {
				sc := Scenario{Topology: topo, P: 0.5, LoadFactor: 0.01, Horizon: 20, Seed: 1, Faults: f.spec}
				budget := func(b int64) Scenario { s := sc; s.MaxBytes = b; return s }
				lo, hi := int64(1), int64(1<<30)
				for lo < hi {
					mid := lo + (hi-lo)/2
					if s := budget(mid); s.Validate() == nil {
						hi = mid
					} else {
						lo = mid + 1
					}
				}
				for _, b := range []int64{lo - 1, lo, lo + 1, 2 * lo} {
					var err error
					func() {
						defer func() {
							if p := recover(); p != nil {
								t.Fatalf("max_bytes = %d: run panicked: %v", b, p)
							}
						}()
						_, err = Run(context.Background(), budget(b))
					}()
					switch {
					case b < lo && (err == nil || !strings.Contains(err.Error(), "max_bytes")):
						t.Errorf("max_bytes = %d: error %v, want one naming max_bytes", b, err)
					case b >= lo && err != nil:
						t.Errorf("max_bytes = %d: %v", b, err)
					}
				}
			})
		}
	}
}

// slotEstimate is the memory estimate max_bytes validation compares: the
// price of the slot kernel configuration the scenario's run builds.
func slotEstimate(s *Scenario) int64 {
	n, err := s.normalize()
	if err != nil {
		panic(err)
	}
	return slotsim.EstimateBytes(n.sf.slotConfig(new(runner).sampler(n.sf)))
}
