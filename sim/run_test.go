package sim_test

import (
	"context"
	"encoding/json"
	"math"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/engine"
	"repro/internal/stats"
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
	if !bitsEqSlice(a, b) {
		t.Errorf("%s differs across APIs: %v vs %v", name, a, b)
	}
}

// runSpec decodes a JSON scenario spec strictly, as cmd/run reads spec
// files, and runs it.
func runSpec(t *testing.T, spec string) *sim.Result {
	t.Helper()
	dec := json.NewDecoder(strings.NewReader(spec))
	dec.DisallowUnknownFields()
	var sc sim.Scenario
	if err := dec.Decode(&sc); err != nil {
		t.Fatal(err)
	}
	return run(t, sc)
}

// TestCrossAPIGoldenHypercube pins the contract between the two ways to
// state a scenario: the same hypercube configuration built as a Go
// sim.Scenario literal and decoded from its JSON spec yields bit-identical
// results in every reported field.
func TestCrossAPIGoldenHypercube(t *testing.T) {
	for _, slotted := range []bool{false, true} {
		sc := sim.Scenario{
			Topology: sim.Hypercube(5), P: 0.5, LoadFactor: 0.7, Horizon: 800, Seed: 11,
			TrackQuantiles: true, ReturnDelays: true, TrackPerDimensionWait: true,
			PopulationTraceInterval: 10,
		}
		spec := `{"topology": {"kind": "hypercube", "d": 5}, "p": 0.5, "load_factor": 0.7,
			"horizon": 800, "seed": 11, "track_quantiles": true, "return_delays": true,
			"track_per_dimension_wait": true, "population_trace_interval": 10`
		if slotted {
			sc.Slotted, sc.Tau = true, 0.5
			spec += `, "slotted": true, "tau": 0.5`
		}
		old := runSpec(t, spec+"}")
		res := run(t, sc)
		h, oh := res.Hypercube, old.Hypercube
		if h == nil || res.Butterfly != nil || oh == nil {
			t.Fatal("hypercube scenario must fill exactly the hypercube block")
		}
		if old.Kernel != res.Kernel {
			t.Errorf("kernel differs: %s vs %s", old.Kernel, res.Kernel)
		}
		if oh.Params != h.Params {
			t.Errorf("params differ: %+v vs %+v", oh.Params, h.Params)
		}
		checkField(t, "LoadFactor", old.LoadFactor, res.LoadFactor)
		checkField(t, "MeanDelay", old.MeanDelay, res.MeanDelay)
		checkField(t, "DelayP95", old.DelayP95, res.DelayP95)
		checkField(t, "DelayP99", old.DelayP99, res.DelayP99)
		checkField(t, "MeanPacketsPerNode", old.MeanPacketsPerNode, res.MeanPacketsPerNode)
		checkField(t, "GreedyLowerBound", oh.GreedyLowerBound, h.GreedyLowerBound)
		checkField(t, "GreedyUpperBound", oh.GreedyUpperBound, h.GreedyUpperBound)
		checkField(t, "UniversalLowerBound", oh.UniversalLowerBound, h.UniversalLowerBound)
		checkField(t, "ObliviousLowerBound", oh.ObliviousLowerBound, h.ObliviousLowerBound)
		checkField(t, "SlottedUpperBound", oh.SlottedUpperBound, h.SlottedUpperBound)
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
		checkSlice(t, "PerDimensionMeanQueue", oh.PerDimensionMeanQueue, h.PerDimensionMeanQueue)
		checkSlice(t, "PerDimensionUtilization", oh.PerDimensionUtilization, h.PerDimensionUtilization)
		checkSlice(t, "PerDimensionMeanWait", oh.PerDimensionMeanWait, h.PerDimensionMeanWait)
		checkSlice(t, "PerDimensionLoadFactor", oh.PerDimensionLoadFactor, h.PerDimensionLoadFactor)
		checkSlice(t, "Delays", old.Delays, res.Delays)
		if len(res.Delays) == 0 {
			t.Error("ReturnDelays returned no delays")
		}
	}
}

// TestCrossAPIGoldenButterfly is the butterfly half of the spec contract.
func TestCrossAPIGoldenButterfly(t *testing.T) {
	old := runSpec(t, `{"topology": {"kind": "butterfly", "d": 4}, "p": 0.3,
		"load_factor": 0.8, "horizon": 600, "seed": 9, "track_quantiles": true}`)
	res := run(t, sim.Scenario{
		Topology: sim.Butterfly(4), P: 0.3, LoadFactor: 0.8, Horizon: 600, Seed: 9,
		TrackQuantiles: true,
	})
	b, ob := res.Butterfly, old.Butterfly
	if b == nil || res.Hypercube != nil || ob == nil {
		t.Fatal("butterfly scenario must fill exactly the butterfly block")
	}
	if ob.Params != b.Params || old.Kernel != res.Kernel {
		t.Errorf("params/kernel differ: %+v/%s vs %+v/%s", ob.Params, old.Kernel, b.Params, res.Kernel)
	}
	checkField(t, "LoadFactor", old.LoadFactor, res.LoadFactor)
	checkField(t, "MeanDelay", old.MeanDelay, res.MeanDelay)
	checkField(t, "DelayP95", old.DelayP95, res.DelayP95)
	checkField(t, "StraightUtilization", ob.StraightUtilization, b.StraightUtilization)
	checkField(t, "VerticalUtilization", ob.VerticalUtilization, b.VerticalUtilization)
	checkField(t, "MeanPacketsPerNode", old.MeanPacketsPerNode, res.MeanPacketsPerNode)
	checkField(t, "UniversalLowerBound", ob.UniversalLowerBound, b.UniversalLowerBound)
	checkField(t, "GreedyUpperBound", ob.GreedyUpperBound, b.GreedyUpperBound)
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

	manual, err := engine.Run(context.Background(), engine.Config{Replications: reps, Parallelism: 2, BaseSeed: base.Seed},
		func(_ int, seed uint64) (map[string]float64, map[string]*stats.DDSketch) {
			one := base
			one.Seed = seed
			r, err := sim.Run(context.Background(), one)
			if err != nil {
				t.Error(err)
				return nil, nil
			}
			return map[string]float64{"delay": r.MeanDelay, "hops": r.Metrics.MeanHops}, nil
		})
	if err != nil {
		t.Fatal(err)
	}

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
// undefined on an unstable system, loss ratios with no decided packet) must
// still marshal, emitting null, and must read back exactly: null becomes NaN
// again and a second marshal is byte-identical, which checkpoint resume and
// simc's merge rely on.
func TestResultMarshalsWithNaNFields(t *testing.T) {
	cases := []struct {
		name  string
		sc    sim.Scenario
		nulls []string
		nans  func(r *sim.Result) []float64
	}{
		{
			// No quantiles tracked -> DelayP95 is NaN; rho > 1 -> bounds NaN.
			name:  "unstable hypercube",
			sc:    sim.Scenario{Topology: sim.Hypercube(3), P: 0.5, LoadFactor: 1.2, Horizon: 100, Seed: 1},
			nulls: []string{`"delay_p95":null`, `"greedy_upper_bound":null`, `"kernel":"slot-stepped"`},
			nans:  func(r *sim.Result) []float64 { return []float64{r.DelayP95, r.Hypercube.GreedyUpperBound} },
		},
		{
			name:  "unstable butterfly",
			sc:    sim.Scenario{Topology: sim.Butterfly(3), P: 0.5, LoadFactor: 1.2, Horizon: 100, Seed: 1},
			nulls: []string{`"greedy_upper_bound":null`, `"universal_lower_bound":null`},
			nans: func(r *sim.Result) []float64 {
				return []float64{r.Butterfly.GreedyUpperBound, r.Butterfly.UniversalLowerBound}
			},
		},
		{
			name: "deflection above the bound's range",
			sc: sim.Scenario{Topology: sim.Hypercube(3), P: 0.5, LoadFactor: 1.2, Horizon: 100, Seed: 1,
				Router: sim.Deflection},
			nulls: []string{`"universal_lower_bound":null`},
			nans:  func(r *sim.Result) []float64 { return []float64{r.Deflection.UniversalLowerBound} },
		},
		{
			// Every arc is down for the whole run and, at p = 1, every packet
			// needs one, so no packet's fate is decided and none is
			// delivered: the ratio and the conditional delay are NaN.
			name: "faults with no decided packet",
			sc: sim.Scenario{Topology: sim.Hypercube(3), P: 1, LoadFactor: 0.5, Horizon: 100, Seed: 1,
				Faults: &sim.FaultSpec{Outages: []sim.Outage{{From: 0, Until: 200, Fraction: 1}}}},
			nulls: []string{`"delivery_ratio":null`, `"conditional_mean_delay":null`},
			nans:  func(r *sim.Result) []float64 { return []float64{r.Faults.DeliveryRatio, r.Faults.ConditionalMeanDelay} },
		},
	}
	for _, c := range cases {
		res, err := sim.Run(context.Background(), c.sc)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		for i, v := range c.nans(res) {
			if !math.IsNaN(v) {
				t.Fatalf("%s: test premise broken: field %d is %v, want NaN", c.name, i, v)
			}
		}
		data, err := json.Marshal(res)
		if err != nil {
			t.Fatalf("%s: marshal with NaN fields: %v", c.name, err)
		}
		for _, want := range c.nulls {
			if !strings.Contains(string(data), want) {
				t.Errorf("%s: result JSON missing %s:\n%s", c.name, want, data)
			}
		}
		var back sim.Result
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatalf("%s: unmarshal: %v", c.name, err)
		}
		for i, v := range c.nans(&back) {
			if !math.IsNaN(v) {
				t.Errorf("%s: field %d read back as %v, want NaN", c.name, i, v)
			}
		}
		again, err := json.Marshal(&back)
		if err != nil {
			t.Fatalf("%s: re-marshal: %v", c.name, err)
		}
		if string(again) != string(data) {
			t.Errorf("%s: round trip changed the JSON:\n%s\n%s", c.name, data, again)
		}
	}
}

// TestResultBlocksWriteNaNAsNull tests the NaN-as-null rule on every field it
// covers, found by reflection rather than listed: the Result and each block
// it points to. Each exported float64 field, set to NaN on its own, must
// marshal as null, read back as NaN and re-marshal to identical bytes.
func TestResultBlocksWriteNaNAsNull(t *testing.T) {
	jsonName := func(f reflect.StructField) string {
		name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		if name == "" {
			return f.Name
		}
		return name
	}
	resultType := reflect.TypeFor[sim.Result]()
	blocks := []*reflect.StructField{nil} // nil: the Result itself
	for i := range resultType.NumField() {
		f := resultType.Field(i)
		if f.IsExported() && f.Type.Kind() == reflect.Pointer && f.Type.Elem().Kind() == reflect.Struct {
			blocks = append(blocks, &f)
		}
	}
	// block returns the tested block of res, allocating it when asked.
	block := func(res *sim.Result, b *reflect.StructField, alloc bool) reflect.Value {
		v := reflect.ValueOf(res).Elem()
		if b == nil {
			return v
		}
		if alloc {
			v.FieldByIndex(b.Index).Set(reflect.New(b.Type.Elem()))
		}
		return v.FieldByIndex(b.Index).Elem()
	}
	tested := 0
	for _, b := range blocks {
		bt := resultType
		if b != nil {
			bt = b.Type.Elem()
		}
		for i := range bt.NumField() {
			f := bt.Field(i)
			if !f.IsExported() || f.Type != reflect.TypeFor[float64]() || jsonName(f) == "-" {
				continue
			}
			tested++
			t.Run(bt.Name()+"."+f.Name, func(t *testing.T) {
				t.Parallel() // the shadow cache is shared by concurrent encoders
				var res sim.Result
				block(&res, b, true).Field(i).SetFloat(math.NaN())
				data, err := json.Marshal(&res)
				if err != nil {
					t.Fatalf("marshal: %v", err)
				}
				var obj map[string]json.RawMessage
				if err := json.Unmarshal(data, &obj); err != nil {
					t.Fatal(err)
				}
				if b != nil {
					if err := json.Unmarshal(obj[jsonName(*b)], &obj); err != nil {
						t.Fatal(err)
					}
				}
				if got := string(obj[jsonName(f)]); got != "null" {
					t.Fatalf("NaN %s marshals as %q, want null:\n%s", jsonName(f), got, data)
				}
				var back sim.Result
				if err := json.Unmarshal(data, &back); err != nil {
					t.Fatalf("unmarshal: %v", err)
				}
				if got := block(&back, b, false).Field(i).Float(); !math.IsNaN(got) {
					t.Fatalf("null %s reads back as %v, want NaN", jsonName(f), got)
				}
				again, err := json.Marshal(&back)
				if err != nil {
					t.Fatalf("re-marshal: %v", err)
				}
				if string(again) != string(data) {
					t.Fatalf("round trip changed the JSON:\n%s\n%s", data, again)
				}
			})
		}
	}
	if len(blocks) < 7 || tested < 30 {
		t.Fatalf("walked %d blocks and %d float fields; the walk missed the result blocks", len(blocks), tested)
	}
}
