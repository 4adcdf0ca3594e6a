package sim_test

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/sim"
)

// checkTailEq compares two tail-quantile blocks bitwise: cross-kernel and
// cross-parallelism identity of the sketch is exact, not approximate.
func checkTailEq(t *testing.T, label string, a, b *sim.TailStats) {
	t.Helper()
	if a == nil || b == nil {
		t.Fatalf("%s: tail block missing (%v vs %v)", label, a, b)
	}
	if a.Alpha != b.Alpha || a.Count != b.Count {
		t.Errorf("%s: alpha/count differ: %v/%d vs %v/%d", label, a.Alpha, a.Count, b.Alpha, b.Count)
	}
	pairs := []struct {
		name string
		x, y float64
	}{
		{"P50", a.P50, b.P50}, {"P90", a.P90, b.P90},
		{"P99", a.P99, b.P99}, {"P999", a.P999, b.P999},
	}
	for _, p := range pairs {
		if !bitsEq(p.x, p.y) {
			t.Errorf("%s: %s differs: %v vs %v", label, p.name, p.x, p.y)
		}
	}
}

// TestTailCrossKernelIdentity extends the cross-kernel golden contract to the
// delay sketch: for a slot-kernel-eligible scenario, the slot-stepped kernel
// and the event-driven calendar must report bit-identical tail quantiles —
// both feed the collector the same delays in the same order, so the sketches
// are the same object state.
func TestTailCrossKernelIdentity(t *testing.T) {
	scenarios := []sim.Scenario{
		{Topology: sim.Hypercube(4), P: 0.5, LoadFactor: 0.7, Horizon: 400, Seed: 12345,
			Slotted: true, Tau: 0.5, TailQuantiles: true},
		{Topology: sim.Hypercube(5), P: 0.3, LoadFactor: 0.9, Horizon: 300, Seed: 7,
			Slotted: true, Tau: 1, TailQuantiles: true, SketchAlpha: 0.05},
		{Topology: sim.Butterfly(4), P: 0.5, LoadFactor: 0.8, Horizon: 400, Seed: 9,
			TailQuantiles: true},
		{Topology: sim.Hypercube(5), P: 0.5, LoadFactor: 0.8, Horizon: 400, Seed: 17,
			TailQuantiles: true},
	}
	for i, sc := range scenarios {
		fast, err := sim.Run(context.Background(), sc)
		if err != nil {
			t.Fatal(err)
		}
		slow := sc
		slow.ForceEventDriven = true
		ref, err := sim.Run(context.Background(), slow)
		if err != nil {
			t.Fatal(err)
		}
		if fast.Kernel != sim.KernelSlotStepped || ref.Kernel != sim.KernelEventDriven {
			t.Fatalf("scenario %d kernels: %s vs %s", i, fast.Kernel, ref.Kernel)
		}
		checkTailEq(t, sc.Title(), fast.Tail, ref.Tail)
		if fast.Tail.Count != fast.Metrics.Delivered {
			t.Errorf("scenario %d: sketch count %d != delivered %d", i, fast.Tail.Count, fast.Metrics.Delivered)
		}
	}
}

// TestTailDeflectionKernel checks the third kernel feeds the same sketch
// machinery: a deflection scenario with tail_quantiles reports a tail block
// whose count matches the delivered packets and whose quantiles are monotone.
func TestTailDeflectionKernel(t *testing.T) {
	res, err := sim.Run(context.Background(), sim.Scenario{
		Topology: sim.Hypercube(4), P: 0.5, LoadFactor: 0.6, Horizon: 500, Seed: 11,
		Router: sim.Deflection, TailQuantiles: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	tl := res.Tail
	if tl == nil {
		t.Fatal("deflection run missing the tail block")
	}
	if tl.Count != res.Metrics.Delivered {
		t.Errorf("sketch count %d != delivered %d", tl.Count, res.Metrics.Delivered)
	}
	if !(tl.P50 <= tl.P90 && tl.P90 <= tl.P99 && tl.P99 <= tl.P999) {
		t.Errorf("quantiles not monotone: %v %v %v %v", tl.P50, tl.P90, tl.P99, tl.P999)
	}
	if tl.Alpha != sim.DefaultSketchAlpha {
		t.Errorf("alpha = %v, want default %v", tl.Alpha, sim.DefaultSketchAlpha)
	}
}

// TestTailDisabledLeavesResultUnchanged pins the opt-in contract: without
// tail_quantiles the result JSON carries no tail or precision keys, so every
// pre-sketch golden (sweep CSV/JSONL, checkpoint journals, daemon rows) stays
// byte-identical.
func TestTailDisabledLeavesResultUnchanged(t *testing.T) {
	res, err := sim.Run(context.Background(), sim.Scenario{
		Topology: sim.Hypercube(4), P: 0.5, LoadFactor: 0.6, Horizon: 200, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Tail != nil || res.Precision != nil {
		t.Fatal("sketch state attached to a run that never asked for it")
	}
	data, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"tail"`, `"precision"`} {
		if bytes.Contains(data, []byte(key)) {
			t.Errorf("result JSON leaks %s:\n%s", key, data)
		}
	}
}

// TestTailReplicatedDeterministicAcrossParallelism is the scenario-level view
// of the engine's sketch guarantee: a replicated run merges the per-rep
// sketches in replication order, so the pooled tail block and the per-rep
// tail_* tallies are identical at any parallelism.
func TestTailReplicatedDeterministicAcrossParallelism(t *testing.T) {
	runAt := func(par int) *sim.Result {
		res, err := sim.Run(context.Background(), sim.Scenario{
			Topology: sim.Hypercube(4), P: 0.5, LoadFactor: 0.7, Horizon: 200, Seed: 5,
			TailQuantiles: true, Replications: 8, Parallelism: par,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	want := runAt(1)
	if want.Tail == nil {
		t.Fatal("replicated run missing the pooled tail block")
	}
	if want.Replicated[sim.MetricTailP99].N != 8 {
		t.Fatalf("tail_p99 tally has %d reps, want 8", want.Replicated[sim.MetricTailP99].N)
	}
	for _, par := range []int{2, 8} {
		got := runAt(par)
		checkTailEq(t, "pooled tail", want.Tail, got.Tail)
		for _, k := range []string{sim.MetricTailP50, sim.MetricTailP90, sim.MetricTailP99, sim.MetricTailP999} {
			if got.Replicated[k] != want.Replicated[k] {
				t.Errorf("parallelism %d changed %s: %+v vs %+v", par, k, got.Replicated[k], want.Replicated[k])
			}
		}
	}
}

// TestSequentialStoppingDeterministic pins the sequential-stopping contract:
// the same seed and precision block yield the same replication count, the
// same batch count and byte-identical result JSON at any parallelism.
func TestSequentialStoppingDeterministic(t *testing.T) {
	runAt := func(par int) *sim.Result {
		res, err := sim.Run(context.Background(), sim.Scenario{
			Topology: sim.Hypercube(4), P: 0.5, LoadFactor: 0.6, Horizon: 200, Seed: 17,
			TailQuantiles: true, Parallelism: par,
			Precision: &sim.PrecisionSpec{
				TargetCI: 0.5, RankError: 0.05, Batch: 4, MaxReplications: 64,
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	want := runAt(1)
	p := want.Precision
	if p == nil {
		t.Fatal("sequential run missing the precision block")
	}
	if p.Replications < 4 || p.Replications%4 != 0 {
		t.Fatalf("replications = %d, want a positive multiple of the batch size", p.Replications)
	}
	if p.Batches != p.Replications/4 {
		t.Fatalf("batches = %d for %d replications", p.Batches, p.Replications)
	}
	if math.IsNaN(p.HalfWidth) || math.IsNaN(p.RankError) {
		t.Fatalf("requested targets left unmeasured: %+v", p)
	}
	wantJSON, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{2, 8} {
		got := runAt(par)
		gotJSON, err := json.Marshal(got)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(wantJSON, gotJSON) {
			t.Errorf("parallelism %d changed the sequential result:\n%s\nvs\n%s", par, wantJSON, gotJSON)
		}
	}
}

// TestSequentialStoppingTargets checks both stopping rules do their job: a
// loose target stops at the first batch with the target met, an unreachable
// target exhausts max_replications and reports target_met = false.
func TestSequentialStoppingTargets(t *testing.T) {
	base := sim.Scenario{
		Topology: sim.Hypercube(3), P: 0.5, LoadFactor: 0.5, Horizon: 150, Seed: 23,
		TailQuantiles: true,
	}

	loose := base
	loose.Precision = &sim.PrecisionSpec{TargetCI: 1e6, Batch: 2, MaxReplications: 32}
	res, err := sim.Run(context.Background(), loose)
	if err != nil {
		t.Fatal(err)
	}
	if p := res.Precision; !p.TargetMet || p.Replications != 2 || p.Batches != 1 {
		t.Fatalf("loose target: %+v, want met after one batch of 2", res.Precision)
	}

	tight := base
	tight.Precision = &sim.PrecisionSpec{RankError: 1e-9, Batch: 4, MaxReplications: 8}
	res, err = sim.Run(context.Background(), tight)
	if err != nil {
		t.Fatal(err)
	}
	if p := res.Precision; p.TargetMet || p.Replications != 8 {
		t.Fatalf("unreachable target: %+v, want cap exhausted with target_met=false", res.Precision)
	}
	if res.Tail == nil || res.Replicated == nil {
		t.Fatal("sequential run missing merged tallies or pooled tail")
	}

	relative := base
	relative.Precision = &sim.PrecisionSpec{TargetCI: 0.5, Relative: true, Batch: 4, MaxReplications: 128}
	res, err = sim.Run(context.Background(), relative)
	if err != nil {
		t.Fatal(err)
	}
	if p := res.Precision; !p.TargetMet {
		t.Fatalf("relative 50%% target unmet after %d reps: %+v", p.Replications, p)
	}
}

// TestTailAndPrecisionValidationErrors table-tests the spec-level validation
// of the tail_quantiles / sketch_alpha / precision fields; the error strings
// are the documented ones (docs/SPEC.md).
func TestTailAndPrecisionValidationErrors(t *testing.T) {
	valid := func() sim.Scenario {
		return sim.Scenario{
			Topology: sim.Hypercube(3), P: 0.5, LoadFactor: 0.5, Horizon: 100,
			TailQuantiles: true,
		}
	}
	cases := []struct {
		name string
		mod  func(*sim.Scenario)
		want string
	}{
		{"sketch_alpha without tail_quantiles",
			func(s *sim.Scenario) { s.TailQuantiles = false; s.SketchAlpha = 0.01 },
			"sketch_alpha requires tail_quantiles"},
		{"sketch_alpha too large",
			func(s *sim.Scenario) { s.SketchAlpha = 0.5 },
			"outside (0, 0.5)"},
		{"sketch_alpha negative",
			func(s *sim.Scenario) { s.SketchAlpha = -0.01 },
			"outside (0, 0.5)"},
		{"precision with replications",
			func(s *sim.Scenario) {
				s.Replications = 4
				s.Precision = &sim.PrecisionSpec{TargetCI: 0.1}
			},
			"either replications or precision"},
		{"precision without targets",
			func(s *sim.Scenario) { s.Precision = &sim.PrecisionSpec{} },
			"target_ci and/or rank_error"},
		{"negative target_ci",
			func(s *sim.Scenario) { s.Precision = &sim.PrecisionSpec{TargetCI: -1} },
			"must be positive"},
		{"relative without target_ci",
			func(s *sim.Scenario) { s.Precision = &sim.PrecisionSpec{RankError: 0.05, Relative: true} },
			"relative requires target_ci"},
		{"metric without target_ci",
			func(s *sim.Scenario) { s.Precision = &sim.PrecisionSpec{RankError: 0.05, Metric: "mean_delay"} },
			"metric requires target_ci"},
		{"unknown metric",
			func(s *sim.Scenario) { s.Precision = &sim.PrecisionSpec{TargetCI: 0.1, Metric: "delay_p95"} },
			"unknown"},
		{"rank_error out of range",
			func(s *sim.Scenario) { s.Precision = &sim.PrecisionSpec{RankError: 0.7} },
			"outside (0, 0.5)"},
		{"rank_error without tail_quantiles",
			func(s *sim.Scenario) {
				s.TailQuantiles = false
				s.Precision = &sim.PrecisionSpec{RankError: 0.05}
			},
			"rank_error requires tail_quantiles"},
		{"quantile without rank_error",
			func(s *sim.Scenario) { s.Precision = &sim.PrecisionSpec{TargetCI: 0.1, Quantile: 0.99} },
			"quantile requires rank_error"},
		{"quantile out of range",
			func(s *sim.Scenario) { s.Precision = &sim.PrecisionSpec{RankError: 0.05, Quantile: 1.5} },
			"outside (0, 1)"},
		{"batch of one",
			func(s *sim.Scenario) { s.Precision = &sim.PrecisionSpec{TargetCI: 0.1, Batch: 1} },
			"at least 2"},
		{"max_replications below batch",
			func(s *sim.Scenario) { s.Precision = &sim.PrecisionSpec{TargetCI: 0.1, Batch: 16, MaxReplications: 8} },
			"below the batch size"},
		{"level out of range",
			func(s *sim.Scenario) { s.Precision = &sim.PrecisionSpec{TargetCI: 0.1, Level: 1} },
			"outside (0, 1)"},
	}
	for _, tc := range cases {
		sc := valid()
		tc.mod(&sc)
		err := sc.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want substring %q", tc.name, err, tc.want)
		}
	}

	// The happy paths stay valid: explicit alpha, a full precision block, and
	// tail quantiles on the deflection router (which still rejects the exact
	// track_quantiles sample).
	ok := valid()
	ok.SketchAlpha = 0.02
	ok.Precision = &sim.PrecisionSpec{
		TargetCI: 0.1, Relative: true, Metric: "mean_hops",
		RankError: 0.05, Quantile: 0.999, Batch: 4, MaxReplications: 64, Level: 0.99,
	}
	if err := ok.Validate(); err != nil {
		t.Errorf("full valid spec rejected: %v", err)
	}
	dfl := valid()
	dfl.Router = sim.Deflection
	if err := dfl.Validate(); err != nil {
		t.Errorf("deflection with tail_quantiles rejected: %v", err)
	}
}

// TestTailResultJSONRoundTrip pins the serialization contract the checkpoint
// journal and the daemon rows depend on: a result carrying tail and precision
// blocks round-trips through JSON bit-identically, NaN fields included.
func TestTailResultJSONRoundTrip(t *testing.T) {
	res, err := sim.Run(context.Background(), sim.Scenario{
		Topology: sim.Hypercube(4), P: 0.5, LoadFactor: 0.6, Horizon: 200, Seed: 29,
		TailQuantiles: true,
		Precision:     &sim.PrecisionSpec{RankError: 0.02, Batch: 4, MaxReplications: 16},
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(res.Precision.HalfWidth) != true {
		t.Fatal("test premise: no target_ci requested, half_width should be NaN")
	}
	first, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var back sim.Result
	if err := json.Unmarshal(first, &back); err != nil {
		t.Fatal(err)
	}
	second, err := json.Marshal(&back)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second) {
		t.Errorf("round trip changed bytes:\n%s\nvs\n%s", first, second)
	}
	if !math.IsNaN(back.Precision.HalfWidth) {
		t.Errorf("half_width null did not round-trip to NaN: %v", back.Precision.HalfWidth)
	}
	checkTailEq(t, "round trip", res.Tail, back.Tail)
}

// TestSweepTailColumns checks the CSV sink appends the tail quantile columns
// exactly when the sweep records sketches, and the sweep axes can drive
// tail_quantiles and sketch_alpha.
func TestSweepTailColumns(t *testing.T) {
	sw := sim.Sweep{
		Base: sim.Scenario{
			Topology: sim.Hypercube(3), P: 0.5, Horizon: 100, Seed: 1,
			TailQuantiles: true,
		},
		Axes: []sim.Axis{
			{Field: "load_factor", Values: sim.Nums(0.4, 0.8)},
			{Field: "sketch_alpha", Values: sim.Nums(0.01)},
		},
	}
	var buf bytes.Buffer
	if _, err := sim.RunSweep(context.Background(), sw, sim.NewCSVSink(&buf)); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	header := strings.SplitN(out, "\n", 2)[0]
	for _, col := range []string{"sketch_alpha", "tail_p50", "tail_p90", "tail_p99", "tail_p999"} {
		if !strings.Contains(header, col) {
			t.Errorf("CSV header missing %s: %s", col, header)
		}
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 {
		t.Fatalf("want header + 2 rows, got %d lines", len(lines))
	}
	for _, line := range lines[1:] {
		cells := strings.Split(line, ",")
		if last := cells[len(cells)-1]; last == "" {
			t.Errorf("tail cell empty in row: %s", line)
		}
	}

	// A sequential-stopping base on a shared engine pool (the daemon's
	// configuration) streams the identical bytes: precision points fan their
	// replication batches out across the pool, and stopping still reads only
	// merged state.
	seq := sw
	seq.Base.Precision = &sim.PrecisionSpec{TargetCI: 0.5, Batch: 4, MaxReplications: 32}
	var serial bytes.Buffer
	if _, err := sim.RunSweep(context.Background(), seq, sim.NewCSVSink(&serial)); err != nil {
		t.Fatal(err)
	}
	seq.Pool = engine.NewPool(3)
	var pooled bytes.Buffer
	if _, err := sim.RunSweep(context.Background(), seq, sim.NewCSVSink(&pooled)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(serial.Bytes(), pooled.Bytes()) {
		t.Errorf("pooled precision sweep changed bytes:\n%s\nvs\n%s", serial.String(), pooled.String())
	}

	// A tail_quantiles axis flipping the sketch off keeps the sweep valid and
	// leaves the tail columns out when the first row has no sketch.
	off := sw
	off.Base.TailQuantiles = false
	off.Axes = []sim.Axis{
		{Field: "tail_quantiles", Values: []sim.Value{sim.Bool(false)}},
		{Field: "load_factor", Values: sim.Nums(0.4)},
	}
	buf.Reset()
	if _, err := sim.RunSweep(context.Background(), off, sim.NewCSVSink(&buf)); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "tail_p99") {
		t.Errorf("tail columns leaked into a sketchless sweep:\n%s", buf.String())
	}
}
