package sim

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/deflection"
)

// TestDeflectionMatchesKernelDirectly pins the scenario layer to the
// underlying kernel: running a deflection scenario through sim.Run must
// produce exactly the numbers internal/deflection reports for the same
// parameters.
func TestDeflectionMatchesKernelDirectly(t *testing.T) {
	sc := Scenario{
		Topology: Hypercube(4), P: 0.5, LoadFactor: 0.6, Horizon: 500, Seed: 11,
		Router: Deflection,
	}
	res, err := Run(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	want, err := deflection.Run(deflection.Config{
		D: 4, Lambda: 1.2, P: 0.5, Slots: 500, WarmupFraction: 0.2, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Kernel != KernelDeflection {
		t.Fatalf("kernel = %q, want %q", res.Kernel, KernelDeflection)
	}
	if res.MeanDelay != want.Metrics.MeanDelay {
		t.Fatalf("mean delay %v != kernel %v", res.MeanDelay, want.Metrics.MeanDelay)
	}
	d := res.Deflection
	if d == nil {
		t.Fatal("missing Deflection block")
	}
	if res.Hypercube != nil || res.Butterfly != nil {
		t.Fatal("deflection result must not carry greedy bound blocks")
	}
	if d.MeanShortest != want.MeanShortest || d.MeanDeflections != want.MeanDeflections ||
		d.MeanInjectionBacklog != want.MeanInjectionBacklog ||
		d.InjectionBacklogSlope != want.InjectionBacklogSlope ||
		d.MaxNodeOccupancy != want.MaxNodeOccupancy {
		t.Fatalf("deflection block %+v does not match kernel result %+v", d, want)
	}
	if !reflect.DeepEqual(res.Metrics, want.Metrics) {
		t.Fatalf("metrics %+v do not match kernel %+v", res.Metrics, want.Metrics)
	}
	if res.Metrics.Elapsed != 400 { // 500 slots minus the truncated 20% warm-up
		t.Fatalf("elapsed = %v, want 400", res.Metrics.Elapsed)
	}
	if d.UniversalLowerBound <= 0 {
		t.Fatalf("universal lower bound = %v, want positive", d.UniversalLowerBound)
	}
}

// TestDeflectionElapsedMatchesTruncatedWarmup pins the measurement window
// to the kernel's whole-slot warm-up truncation on a horizon where the
// warm-up fraction is not integral.
func TestDeflectionElapsedMatchesTruncatedWarmup(t *testing.T) {
	res, err := Run(context.Background(), Scenario{
		Topology: Hypercube(3), P: 0.5, LoadFactor: 0.5, Horizon: 1001, Seed: 1,
		Router: Deflection,
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := float64(1001 - 200); res.Metrics.Elapsed != want { // int(0.2*1001) = 200
		t.Fatalf("elapsed = %v, want %v", res.Metrics.Elapsed, want)
	}
	if got := float64(res.Metrics.Delivered) / res.Metrics.Elapsed; res.Metrics.Throughput != got {
		t.Fatalf("throughput %v inconsistent with Delivered/Elapsed %v", res.Metrics.Throughput, got)
	}
}

func TestDeflectionReplicated(t *testing.T) {
	sc := Scenario{
		Topology: Hypercube(3), P: 0.5, LoadFactor: 0.5, Horizon: 300, Seed: 2,
		Router: Deflection, Replications: 3,
	}
	res, err := Run(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	if res.Kernel != KernelDeflection || res.Deflection == nil {
		t.Fatalf("replicated deflection result malformed: kernel=%q", res.Kernel)
	}
	for _, key := range []string{MetricMeanDelay, MetricMeanHops, MetricMeanDeflections, MetricInjectionBacklog} {
		r, ok := res.Replicated[key]
		if !ok {
			t.Fatalf("replicated metric %q missing (have %v)", key, res.Replicated)
		}
		if r.N != 3 {
			t.Fatalf("metric %q has %d replications, want 3", key, r.N)
		}
	}
}

// TestDeflectionReturnsExactDelays checks that a deflection run honours
// track_quantiles and return_delays as a store-and-forward run does: one
// delay per delivered packet, and the exact p99 of that sample.
func TestDeflectionReturnsExactDelays(t *testing.T) {
	res, err := Run(context.Background(), Scenario{
		Topology: Hypercube(4), P: 0.5, LoadFactor: 0.6, Horizon: 500, Seed: 11,
		Router: Deflection, TrackQuantiles: true, ReturnDelays: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(res.Delays)) != res.Metrics.Delivered || res.Metrics.Delivered == 0 {
		t.Fatalf("%d delays for %d delivered packets", len(res.Delays), res.Metrics.Delivered)
	}
	xs := slices.Sorted(slices.Values(res.Delays))
	idx := 0.99 * float64(len(xs)-1)
	lo, frac := int(idx), idx-math.Floor(idx)
	p99 := xs[lo]
	if frac > 0 {
		p99 = xs[lo]*(1-frac) + xs[lo+1]*frac
	}
	if res.DelayP99 != p99 {
		t.Fatalf("p99 = %v, want %v from the returned sample", res.DelayP99, p99)
	}
}

func TestDeflectionValidationRejections(t *testing.T) {
	base := func() Scenario {
		return Scenario{
			Topology: Hypercube(4), P: 0.5, LoadFactor: 0.5, Horizon: 200, Seed: 1,
			Router: Deflection,
		}
	}
	cases := []struct {
		name    string
		mutate  func(*Scenario)
		wantSub string
	}{
		{"non-FIFO discipline", func(s *Scenario) { s.Discipline = RandomOrder }, "FIFO"},
		{"slotted", func(s *Scenario) { s.Slotted = true; s.Tau = 0.5 }, "inherently slotted"},
		{"custom weights", func(s *Scenario) {
			s.LoadFactor = 0
			s.Lambda = 1
			w := make([]float64, 16)
			for i := range w {
				w[i] = 1
			}
			s.CustomWeights = w
		}, "bit-flip"},
		{"per-dimension wait", func(s *Scenario) { s.TrackPerDimensionWait = true }, "per-dimension"},
		{"sub-slot horizon", func(s *Scenario) { s.Horizon = 0.5 }, "at least one slot"},
		{"fractional horizon", func(s *Scenario) { s.Horizon = 1000.7 }, "whole number of slots"},
		{"butterfly", func(s *Scenario) { s.Topology = Butterfly(4) }, "only greedy routing"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sc := base()
			tc.mutate(&sc)
			err := sc.Validate()
			if err == nil {
				t.Fatalf("expected error containing %q, got nil", tc.wantSub)
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("error %q does not contain %q", err, tc.wantSub)
			}
		})
	}
}

// TestDeflectionIgnoresPerformanceToggles pins the documented exception: the
// toggle that never changes what a run computes stays accepted.
func TestDeflectionIgnoresPerformanceToggles(t *testing.T) {
	sc := Scenario{
		Topology: Hypercube(3), P: 0.5, LoadFactor: 0.5, Horizon: 200, Seed: 1,
		Router: Deflection, SkipPerDimensionStats: true,
	}
	if err := sc.Validate(); err != nil {
		t.Fatalf("the performance toggle must be ignored, got %v", err)
	}
}

func TestDeflectionJSONSpecRoundTrip(t *testing.T) {
	spec := `{
		"topology": {"kind": "hypercube", "d": 5},
		"p": 0.5,
		"load_factor": 0.6,
		"router": "deflection",
		"horizon": 400,
		"seed": 9
	}`
	dec := json.NewDecoder(bytes.NewReader([]byte(spec)))
	dec.DisallowUnknownFields()
	var sc Scenario
	if err := dec.Decode(&sc); err != nil {
		t.Fatal(err)
	}
	if sc.Router != Deflection {
		t.Fatalf("router = %v, want Deflection", sc.Router)
	}
	if err := sc.Validate(); err != nil {
		t.Fatal(err)
	}
	res, err := Run(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	if res.Kernel != KernelDeflection {
		t.Fatalf("kernel = %q, want %q", res.Kernel, KernelDeflection)
	}
}
