package sim_test

import (
	"context"
	"encoding/json"
	"math"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/greedy"
	"repro/internal/engine"
	"repro/sim"
)

func bitsEq(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func checkField(t *testing.T, name string, a, b float64) {
	t.Helper()
	if !bitsEq(a, b) {
		t.Errorf("%s differs across APIs: %v vs %v", name, a, b)
	}
}

func checkSlice(t *testing.T, name string, a, b []float64) {
	t.Helper()
	if len(a) != len(b) {
		t.Errorf("%s length differs: %d vs %d", name, len(a), len(b))
		return
	}
	for i := range a {
		if !bitsEq(a[i], b[i]) {
			t.Errorf("%s[%d] differs: %v vs %v", name, i, a[i], b[i])
			return
		}
	}
}

// TestCrossAPIGoldenHypercube pins the compatibility contract of the greedy
// facade: the same hypercube configuration run through greedy.RunHypercube
// (the shim) and through sim.Run directly yields bit-identical results in
// every reported field.
func TestCrossAPIGoldenHypercube(t *testing.T) {
	for _, slotted := range []bool{false, true} {
		cfg := greedy.HypercubeConfig{
			D: 5, P: 0.5, LoadFactor: 0.7, Horizon: 800, Seed: 11,
			TrackQuantiles: true, ReturnDelays: true, TrackPerDimensionWait: true,
			PopulationTraceInterval: 10,
		}
		sc := sim.Scenario{
			Topology: sim.Hypercube(5), P: 0.5, LoadFactor: 0.7, Horizon: 800, Seed: 11,
			TrackQuantiles: true, ReturnDelays: true, TrackPerDimensionWait: true,
			PopulationTraceInterval: 10,
		}
		if slotted {
			cfg.Slotted, cfg.Tau = true, 0.5
			sc.Slotted, sc.Tau = true, 0.5
		}
		old, err := greedy.RunHypercube(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.Run(context.Background(), sc)
		if err != nil {
			t.Fatal(err)
		}
		h := res.Hypercube
		if h == nil || res.Butterfly != nil {
			t.Fatal("hypercube scenario must fill exactly the hypercube block")
		}
		if old.Kernel != res.Kernel {
			t.Errorf("kernel differs: %s vs %s", old.Kernel, res.Kernel)
		}
		if old.Params != h.Params {
			t.Errorf("params differ: %+v vs %+v", old.Params, h.Params)
		}
		checkField(t, "LoadFactor", old.LoadFactor, res.LoadFactor)
		checkField(t, "MeanDelay", old.MeanDelay, res.MeanDelay)
		checkField(t, "DelayP95", old.DelayP95, res.DelayP95)
		checkField(t, "DelayP99", old.DelayP99, res.DelayP99)
		checkField(t, "MeanPacketsPerNode", old.MeanPacketsPerNode, res.MeanPacketsPerNode)
		checkField(t, "GreedyLowerBound", old.GreedyLowerBound, h.GreedyLowerBound)
		checkField(t, "GreedyUpperBound", old.GreedyUpperBound, h.GreedyUpperBound)
		checkField(t, "UniversalLowerBound", old.UniversalLowerBound, h.UniversalLowerBound)
		checkField(t, "ObliviousLowerBound", old.ObliviousLowerBound, h.ObliviousLowerBound)
		checkField(t, "SlottedUpperBound", old.SlottedUpperBound, h.SlottedUpperBound)
		checkField(t, "Metrics.MeanDelay", old.Metrics.MeanDelay, res.Metrics.MeanDelay)
		checkField(t, "Metrics.MeanHops", old.Metrics.MeanHops, res.Metrics.MeanHops)
		checkField(t, "Metrics.MeanPopulation", old.Metrics.MeanPopulation, res.Metrics.MeanPopulation)
		checkField(t, "Metrics.PopulationSlope", old.Metrics.PopulationSlope, res.Metrics.PopulationSlope)
		if old.Metrics.Delivered != res.Metrics.Delivered {
			t.Errorf("Delivered differs: %d vs %d", old.Metrics.Delivered, res.Metrics.Delivered)
		}
		if old.WithinPaperBounds != res.WithinPaperBounds {
			t.Errorf("WithinPaperBounds differs")
		}
		checkSlice(t, "PerDimensionMeanQueue", old.PerDimensionMeanQueue, h.PerDimensionMeanQueue)
		checkSlice(t, "PerDimensionUtilization", old.PerDimensionUtilization, h.PerDimensionUtilization)
		checkSlice(t, "PerDimensionMeanWait", old.PerDimensionMeanWait, h.PerDimensionMeanWait)
		checkSlice(t, "PerDimensionLoadFactor", old.PerDimensionLoadFactor, h.PerDimensionLoadFactor)
		checkSlice(t, "Delays", old.Delays, res.Delays)
	}
}

// TestCrossAPIGoldenButterfly is the butterfly half of the facade contract.
func TestCrossAPIGoldenButterfly(t *testing.T) {
	old, err := greedy.RunButterfly(greedy.ButterflyConfig{
		D: 4, P: 0.3, LoadFactor: 0.8, Horizon: 600, Seed: 9, TrackQuantiles: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(context.Background(), sim.Scenario{
		Topology: sim.Butterfly(4), P: 0.3, LoadFactor: 0.8, Horizon: 600, Seed: 9,
		TrackQuantiles: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	b := res.Butterfly
	if b == nil || res.Hypercube != nil {
		t.Fatal("butterfly scenario must fill exactly the butterfly block")
	}
	if old.Params != b.Params || old.Kernel != res.Kernel {
		t.Errorf("params/kernel differ: %+v/%s vs %+v/%s", old.Params, old.Kernel, b.Params, res.Kernel)
	}
	checkField(t, "LoadFactor", old.LoadFactor, res.LoadFactor)
	checkField(t, "MeanDelay", old.MeanDelay, res.MeanDelay)
	checkField(t, "DelayP95", old.DelayP95, res.DelayP95)
	checkField(t, "StraightUtilization", old.StraightUtilization, b.StraightUtilization)
	checkField(t, "VerticalUtilization", old.VerticalUtilization, b.VerticalUtilization)
	checkField(t, "MeanPacketsPerNode", old.MeanPacketsPerNode, res.MeanPacketsPerNode)
	checkField(t, "UniversalLowerBound", old.UniversalLowerBound, b.UniversalLowerBound)
	checkField(t, "GreedyUpperBound", old.GreedyUpperBound, b.GreedyUpperBound)
	if old.WithinPaperBounds != res.WithinPaperBounds {
		t.Error("WithinPaperBounds differs")
	}
}

// TestReplicatedMatchesManualEngineRun pins the engine-native replication
// path against the construction it replaced: running the same scenario once
// per engine-derived split seed and tallying by hand.
func TestReplicatedMatchesManualEngineRun(t *testing.T) {
	base := sim.Scenario{
		Topology: sim.Hypercube(4), P: 0.5, LoadFactor: 0.6, Horizon: 300, Seed: 21,
	}
	const reps = 6

	sc := base
	sc.Replications = reps
	sc.Parallelism = 2
	res, err := sim.Run(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}

	manual := engine.Run(engine.Config{Replications: reps, Parallelism: 2, BaseSeed: base.Seed},
		func(_ int, seed uint64) map[string]float64 {
			one := base
			one.Seed = seed
			r, err := sim.Run(context.Background(), one)
			if err != nil {
				t.Error(err)
				return nil
			}
			return map[string]float64{"delay": r.MeanDelay, "hops": r.Metrics.MeanHops}
		})

	delay := res.Replicated[sim.MetricMeanDelay]
	want := manual.Metrics["delay"]
	if delay.N != reps || int(want.Count()) != reps {
		t.Fatalf("replication counts: %d vs %d", delay.N, int(want.Count()))
	}
	if !bitsEq(delay.Mean, want.Mean()) || !bitsEq(delay.Min, want.Min()) || !bitsEq(delay.Max, want.Max()) {
		t.Errorf("delay tally differs: %+v vs mean=%v min=%v max=%v",
			delay, want.Mean(), want.Min(), want.Max())
	}
	hops := res.Replicated[sim.MetricMeanHops]
	if !bitsEq(hops.Mean, manual.Metrics["hops"].Mean()) {
		t.Errorf("hops tally differs")
	}
	// The analytic block is populated without running extra simulations.
	if res.Hypercube == nil || math.IsNaN(res.Hypercube.GreedyUpperBound) {
		t.Error("replicated result missing the analytic hypercube block")
	}
	if res.Kernel != sim.KernelSlotStepped {
		t.Errorf("kernel = %s", res.Kernel)
	}
}

// TestReplicatedDeterministicAcrossParallelism is the scenario-level view of
// the engine guarantee: merged tallies are identical at any parallelism.
func TestReplicatedDeterministicAcrossParallelism(t *testing.T) {
	runAt := func(par int) *sim.Result {
		res, err := sim.Run(context.Background(), sim.Scenario{
			Topology: sim.Butterfly(3), P: 0.5, LoadFactor: 0.7, Horizon: 200, Seed: 5,
			Replications: 9, Parallelism: par,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	want := runAt(1)
	for _, par := range []int{4, runtime.GOMAXPROCS(0)} {
		got := runAt(par)
		for k, w := range want.Replicated {
			if got.Replicated[k] != w {
				t.Fatalf("parallelism %d changed %s: %+v vs %+v", par, k, got.Replicated[k], w)
			}
		}
	}
}

// TestRunProgressReported checks the replication progress callback reaches
// completion exactly once per replication batch.
func TestRunProgressReported(t *testing.T) {
	var mu sync.Mutex
	calls, lastDone, total := 0, 0, 0
	_, err := sim.Run(context.Background(), sim.Scenario{
		Topology: sim.Hypercube(3), P: 0.5, LoadFactor: 0.5, Horizon: 100, Seed: 2,
		Replications: 7, Parallelism: 3,
		Progress: func(done, tot int) {
			mu.Lock()
			defer mu.Unlock()
			calls++
			lastDone, total = done, tot
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls == 0 {
		t.Fatal("no progress updates")
	}
	if lastDone != 7 || total != 7 {
		t.Fatalf("final progress %d/%d, want 7/7", lastDone, total)
	}
}

// TestRunContextCancellation checks both cancellation points: before the run
// starts and between replications.
func TestRunContextCancellation(t *testing.T) {
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := sim.Run(cancelled, sim.Scenario{
		Topology: sim.Hypercube(3), P: 0.5, LoadFactor: 0.5, Horizon: 100,
	}); err != context.Canceled {
		t.Fatalf("pre-cancelled single run: err = %v", err)
	}

	ctx, cancelMid := context.WithCancel(context.Background())
	sawCancel := false
	res, err := sim.Run(ctx, sim.Scenario{
		Topology: sim.Hypercube(3), P: 0.5, LoadFactor: 0.5, Horizon: 100, Seed: 3,
		Replications: 64, Parallelism: 1,
		Progress: func(done, total int) {
			if done >= 2 {
				sawCancel = true
				cancelMid()
			}
		},
	})
	if err != context.Canceled || res != nil {
		t.Fatalf("mid-run cancellation: res=%v err=%v", res, err)
	}
	if !sawCancel {
		t.Fatal("progress callback never fired")
	}
}

// TestRunValidationErrorPropagates checks that sim.Run surfaces validation
// failures instead of running.
func TestRunValidationErrorPropagates(t *testing.T) {
	_, err := sim.Run(context.Background(), sim.Scenario{Topology: sim.Hypercube(4)})
	if err == nil || !strings.Contains(err.Error(), "sim:") {
		t.Fatalf("err = %v", err)
	}
}

// TestResultMarshalsWithNaNFields pins the fix for the JSON contract: a
// Result whose unavailable metrics are NaN (quantiles untracked, bounds
// undefined on an unstable system) must still marshal, emitting null.
func TestResultMarshalsWithNaNFields(t *testing.T) {
	// No quantiles tracked -> DelayP95/P99 are NaN; rho > 1 -> bounds NaN.
	res, err := sim.Run(context.Background(), sim.Scenario{
		Topology: sim.Hypercube(3), P: 0.5, LoadFactor: 1.2, Horizon: 100, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(res.DelayP95) || !math.IsNaN(res.Hypercube.GreedyUpperBound) {
		t.Fatal("test premise broken: expected NaN quantiles and bounds")
	}
	data, err := json.Marshal(res)
	if err != nil {
		t.Fatalf("marshal with NaN fields: %v", err)
	}
	s := string(data)
	for _, want := range []string{`"delay_p95":null`, `"greedy_upper_bound":null`, `"kernel":"slot-stepped"`} {
		if !strings.Contains(s, want) {
			t.Errorf("result JSON missing %s:\n%s", want, s)
		}
	}

	// An unstable butterfly marshals too.
	bres, err := sim.Run(context.Background(), sim.Scenario{
		Topology: sim.Butterfly(3), P: 0.5, LoadFactor: 1.2, Horizon: 100, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if data, err = json.Marshal(bres); err != nil {
		t.Fatalf("butterfly marshal: %v", err)
	}
	if !strings.Contains(string(data), `"greedy_upper_bound":null`) {
		t.Errorf("butterfly JSON missing null bound:\n%s", data)
	}
}
