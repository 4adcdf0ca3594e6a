package sim

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"os"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

// smallSweep is a fast hypercube sweep the execution tests share.
func smallSweep() Sweep {
	return Sweep{
		Base: Scenario{Topology: Hypercube(3), P: 0.5, Horizon: 200, Seed: 1},
		Axes: []Axis{
			{Field: "d", Values: Ints(3, 4)},
			{Field: "load_factor", Values: Nums(0.3, 0.8)},
		},
	}
}

func TestSweepExpandProductOrder(t *testing.T) {
	scs, err := smallSweep().Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(scs) != 4 {
		t.Fatalf("expanded %d scenarios, want 4", len(scs))
	}
	// First axis slowest, exactly like nested loops in declaration order.
	want := []struct {
		d   int
		rho float64
	}{{3, 0.3}, {3, 0.8}, {4, 0.3}, {4, 0.8}}
	for i, sc := range scs {
		if sc.Topology.D != want[i].d || sc.LoadFactor != want[i].rho {
			t.Errorf("point %d = (d=%d, rho=%g), want (d=%d, rho=%g)",
				i, sc.Topology.D, sc.LoadFactor, want[i].d, want[i].rho)
		}
		if sc.P != 0.5 || sc.Horizon != 200 || sc.Seed != 1 {
			t.Errorf("point %d lost base fields: %+v", i, sc)
		}
	}
}

func TestSweepExpandZip(t *testing.T) {
	sw := Sweep{
		Base: Scenario{Topology: Hypercube(4), P: 0.5, Horizon: 200, Seed: 1, Slotted: true},
		Axes: []Axis{
			{Field: "tau", Values: Nums(0.25, 0.5)},
			{Field: "load_factor", Values: Nums(0.6, 0.9)},
		},
		Mode: ExpandZip,
	}
	scs, err := sw.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(scs) != 2 {
		t.Fatalf("zip expanded %d scenarios, want 2", len(scs))
	}
	if scs[0].Tau != 0.25 || scs[0].LoadFactor != 0.6 || scs[1].Tau != 0.5 || scs[1].LoadFactor != 0.9 {
		t.Fatalf("zip pairing wrong: %+v", scs)
	}
}

func TestSweepExpandSplitSeeds(t *testing.T) {
	sw := smallSweep()
	sw.SplitSeeds = true
	scs, err := sw.Expand()
	if err != nil {
		t.Fatal(err)
	}
	seen := map[uint64]bool{}
	for _, sc := range scs {
		if seen[sc.Seed] {
			t.Fatalf("duplicate split seed %d", sc.Seed)
		}
		seen[sc.Seed] = true
	}
}

func TestSweepLambdaAndLoadFactorAxesClearEachOther(t *testing.T) {
	sw := Sweep{
		Base: Scenario{Topology: Hypercube(3), P: 0.5, LoadFactor: 0.5, Horizon: 100, Seed: 1},
		Axes: []Axis{{Field: "lambda", Values: Nums(0.4, 0.8)}},
	}
	scs, err := sw.Expand()
	if err != nil {
		t.Fatal(err)
	}
	for _, sc := range scs {
		if sc.LoadFactor != 0 {
			t.Fatalf("lambda axis did not clear base LoadFactor: %+v", sc)
		}
	}
	sw = Sweep{
		Base: Scenario{Topology: Hypercube(3), P: 0.5, Lambda: 1, Horizon: 100, Seed: 1},
		Axes: []Axis{{Field: "rho", Values: Nums(0.4, 0.8)}}, // alias of load_factor
	}
	scs, err = sw.Expand()
	if err != nil {
		t.Fatal(err)
	}
	for _, sc := range scs {
		if sc.Lambda != 0 || sc.LoadFactor == 0 {
			t.Fatalf("load_factor axis did not clear base Lambda: %+v", sc)
		}
	}
}

func TestSweepValidationErrors(t *testing.T) {
	base := Scenario{Topology: Hypercube(3), P: 0.5, LoadFactor: 0.5, Horizon: 100, Seed: 1}
	cases := []struct {
		name    string
		sw      Sweep
		wantSub string
	}{
		{"no axes", Sweep{Base: base}, "at least one axis"},
		{"empty axis", Sweep{Base: base, Axes: []Axis{{Field: "d"}}}, "has no values"},
		{"unknown field", Sweep{Base: base,
			Axes: []Axis{{Field: "dimension", Values: Ints(3)}}}, "unknown sweep axis field"},
		{"unknown mode", Sweep{Base: base, Mode: "cartesian",
			Axes: []Axis{{Field: "d", Values: Ints(3)}}}, "unknown sweep mode"},
		{"zip length mismatch", Sweep{Base: base, Mode: ExpandZip,
			Axes: []Axis{
				{Field: "d", Values: Ints(3, 4)},
				{Field: "p", Values: Nums(0.5)},
			}}, "equal-length axes"},
		{"duplicate axis", Sweep{Base: base,
			Axes: []Axis{
				{Field: "load_factor", Values: Nums(0.5)},
				{Field: "rho", Values: Nums(0.6)},
			}}, "duplicate sweep axis"},
		{"string for numeric field", Sweep{Base: base,
			Axes: []Axis{{Field: "d", Values: Strs("four")}}}, "needs numeric values"},
		{"fractional d", Sweep{Base: base,
			Axes: []Axis{{Field: "d", Values: Nums(3.5)}}}, "needs integer values"},
		{"number for router", Sweep{Base: base,
			Axes: []Axis{{Field: "router", Values: Ints(1)}}}, "needs string values"},
		{"unknown router name", Sweep{Base: base,
			Axes: []Axis{{Field: "router", Values: Strs("hotwire")}}}, "unknown router"},
		{"unknown discipline name", Sweep{Base: base,
			Axes: []Axis{{Field: "discipline", Values: Strs("lifo")}}}, "unknown discipline"},
		{"number for slotted", Sweep{Base: base,
			Axes: []Axis{{Field: "slotted", Values: Ints(1)}}}, "needs bool values"},
		{"negative seed", Sweep{Base: base,
			Axes: []Axis{{Field: "seed", Values: Ints(-1)}}}, "non-negative"},
		{"split seeds with seed axis", Sweep{Base: base, SplitSeeds: true,
			Axes: []Axis{{Field: "seed", Values: Ints(1, 2)}}}, "split_seeds conflicts"},
		{"invalid expanded point", Sweep{Base: base,
			Axes: []Axis{{Field: "d", Values: Ints(3, 99)}}}, "sweep point 1 (d=99)"},
		{"invalid topology value", Sweep{Base: base,
			Axes: []Axis{{Field: "topology", Values: Strs("torus")}}}, "unknown topology kind"},
		{"alias and key path of one field", Sweep{Base: base,
			Axes: []Axis{
				{Field: "d", Values: Ints(3)},
				{Field: "topology.d", Values: Ints(4)},
			}}, `duplicate sweep axis "topology.d"`},
		{"NaN value", Sweep{Base: base,
			Axes: []Axis{{Field: "p", Values: Nums(0.5, math.NaN())}}}, `axis "p" needs finite values, got NaN`},
		{"string for a nested integer", Sweep{Base: base,
			Axes: []Axis{{Field: "faults.buffer_capacity", Values: Strs("big")}}}, `axis "faults.buffer_capacity" needs numeric values`},
		{"number for a nested bool", Sweep{Base: base,
			Axes: []Axis{{Field: "precision.relative", Values: Ints(1)}}}, `axis "precision.relative" needs bool values`},
		{"block field", Sweep{Base: base,
			Axes: []Axis{{Field: "faults", Values: Nums(0.1)}}}, "is a block, not a scalar"},
		{"list field", Sweep{Base: base,
			Axes: []Axis{{Field: "custom_weights", Values: Nums(0.1)}}}, "is a list, not a scalar"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.sw.Validate()
			if err == nil {
				t.Fatalf("expected error containing %q, got nil", tc.wantSub)
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("error %q does not contain %q", err, tc.wantSub)
			}
		})
	}
}

func TestSweepValueRejectsNull(t *testing.T) {
	var ax Axis
	err := json.Unmarshal([]byte(`{"field": "p", "values": [0.3, null]}`), &ax)
	if err == nil || !strings.Contains(err.Error(), "null") {
		t.Fatalf("null axis value must be rejected, got %v (axis %+v)", err, ax)
	}
}

func TestSweepPointCapZip(t *testing.T) {
	vals := make([]Value, maxSweepPoints+1)
	for i := range vals {
		vals[i] = Num(float64(i))
	}
	sw := Sweep{
		Base: Scenario{Topology: Hypercube(3), P: 0.5, LoadFactor: 0.5, Horizon: 100},
		Axes: []Axis{{Field: "seed", Values: vals}},
		Mode: ExpandZip,
	}
	if err := sw.Validate(); err == nil || !strings.Contains(err.Error(), "more than") {
		t.Fatalf("expected zip point-cap error, got %v", err)
	}
}

func TestSweepPointCap(t *testing.T) {
	vals := make([]Value, 400)
	for i := range vals {
		vals[i] = Num(float64(i))
	}
	sw := Sweep{
		Base: Scenario{Topology: Hypercube(3), P: 0.5, LoadFactor: 0.5, Horizon: 100},
		Axes: []Axis{
			{Field: "seed", Values: vals},
			{Field: "horizon", Values: vals},
		},
	}
	if err := sw.Validate(); err == nil || !strings.Contains(err.Error(), "more than") {
		t.Fatalf("expected point-cap error, got %v", err)
	}
}

func TestSweepJSONRoundTrip(t *testing.T) {
	sw := Sweep{
		Name: "round-trip",
		Base: Scenario{Topology: Hypercube(4), P: 0.5, Horizon: 300, Seed: 7},
		Axes: []Axis{
			{Field: "load_factor", Values: Nums(0.3, 0.9)},
			{Field: "router", Values: Strs("greedy", "deflection")},
			{Field: "slotted", Values: []Value{Bool(false)}},
		},
		Mode:       ExpandZip,
		SplitSeeds: true,
	}
	data, err := json.Marshal(sw)
	if err != nil {
		t.Fatal(err)
	}
	var back Sweep
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sw, back) {
		t.Fatalf("round trip changed the sweep:\n%+v\nvs\n%+v", sw, back)
	}
}

// runToSinks executes the sweep into fresh CSV and JSONL buffers.
func runToSinks(t *testing.T, sw Sweep) (string, string) {
	t.Helper()
	var csv, jsonl strings.Builder
	if _, err := RunSweep(context.Background(), sw, NewCSVSink(&csv), NewJSONLSink(&jsonl)); err != nil {
		t.Fatal(err)
	}
	return csv.String(), jsonl.String()
}

func TestSweepDeterministicAcrossParallelism(t *testing.T) {
	sw := smallSweep()
	sw.Parallelism = 1
	wantCSV, wantJSONL := runToSinks(t, sw)
	if !strings.HasPrefix(wantCSV, "point,d,load_factor,") {
		t.Fatalf("unexpected CSV header: %q", wantCSV[:60])
	}
	if n := strings.Count(wantCSV, "\n"); n != 5 { // header + 4 points
		t.Fatalf("CSV has %d lines, want 5", n)
	}
	for _, par := range []int{2, 8} {
		sw.Parallelism = par
		gotCSV, gotJSONL := runToSinks(t, sw)
		if gotCSV != wantCSV {
			t.Fatalf("CSV at parallelism %d differs from serial:\n%s\nvs\n%s", par, gotCSV, wantCSV)
		}
		if gotJSONL != wantJSONL {
			t.Fatalf("JSONL at parallelism %d differs from serial", par)
		}
	}
}

func TestSweepRowsMatchIndependentRuns(t *testing.T) {
	sw := smallSweep()
	rows, err := RunSweep(context.Background(), sw)
	if err != nil {
		t.Fatal(err)
	}
	scs, err := sw.Expand()
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range rows {
		want, err := Run(context.Background(), scs[i])
		if err != nil {
			t.Fatal(err)
		}
		if row.Result.MeanDelay != want.MeanDelay || row.Result.Kernel != want.Kernel {
			t.Fatalf("point %d: sweep result %v/%s differs from direct run %v/%s",
				i, row.Result.MeanDelay, row.Result.Kernel, want.MeanDelay, want.Kernel)
		}
	}
}

// recordSink records each row's point index and whether its Result was
// present at write time.
type recordSink struct {
	points     []int
	hadResults bool
}

func (s *recordSink) WriteRow(r Row) error {
	s.points = append(s.points, r.Point)
	s.hadResults = r.Result != nil
	return nil
}

func TestSweepDiscardResultsStreamsOnly(t *testing.T) {
	sw := smallSweep()
	sw.DiscardResults = true
	sink := &recordSink{hadResults: true}
	rows, err := RunSweep(context.Background(), sw, sink)
	if err != nil {
		t.Fatal(err)
	}
	if rows != nil {
		t.Fatalf("streaming-only mode returned %d rows, want nil", len(rows))
	}
	if len(sink.points) != 4 || !sink.hadResults {
		t.Fatalf("sink saw %v (results present: %v), want all 4 points with results",
			sink.points, sink.hadResults)
	}
}

func TestSweepProgressReported(t *testing.T) {
	sw := smallSweep()
	var mu sync.Mutex
	calls, lastDone, total := 0, 0, 0
	sw.Progress = func(done, tot int) {
		mu.Lock()
		defer mu.Unlock()
		calls++
		lastDone, total = done, tot
	}
	if _, err := RunSweep(context.Background(), sw); err != nil {
		t.Fatal(err)
	}
	if calls != 4 || lastDone != 4 || total != 4 {
		t.Fatalf("progress calls=%d last=%d/%d, want 4 calls ending 4/4", calls, lastDone, total)
	}
}

// cancelSink cancels the context as soon as the trigger-th row is written,
// recording everything it receives.
type cancelSink struct {
	cancel  context.CancelFunc
	trigger int
	rows    []int
}

func (s *cancelSink) WriteRow(r Row) error {
	s.rows = append(s.rows, r.Point)
	if len(s.rows) == s.trigger {
		s.cancel()
	}
	return nil
}

func TestSweepCancellationStopsBetweenPoints(t *testing.T) {
	// Serial execution makes the stopping point deterministic: the context
	// is cancelled while point 0's row is being written, so point 1 must
	// never start.
	sw := smallSweep()
	sw.Parallelism = 1
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sink := &cancelSink{cancel: cancel, trigger: 1}
	_, err := RunSweep(ctx, sw, sink)
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(sink.rows) != 1 || sink.rows[0] != 0 {
		t.Fatalf("sink rows = %v, want exactly [0]", sink.rows)
	}
}

func TestSweepCancellationLeavesCleanPrefix(t *testing.T) {
	// In parallel, in-flight points may still finish after cancellation; the
	// guarantee is that whatever reaches the sinks is a clean in-order
	// prefix — never a gap or an out-of-order point.
	sw := smallSweep()
	sw.Parallelism = 2
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sink := &cancelSink{cancel: cancel, trigger: 1}
	_, err := RunSweep(ctx, sw, sink)
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	for i, p := range sink.rows {
		if p != i {
			t.Fatalf("sink rows %v are not a clean prefix", sink.rows)
		}
	}
}

func TestSweepCancelledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sink := &cancelSink{cancel: func() {}}
	if _, err := RunSweep(ctx, smallSweep(), sink); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(sink.rows) != 0 {
		t.Fatalf("rows streamed after pre-cancelled context: %v", sink.rows)
	}
}

// failSink errors on the trigger-th write.
type failSink struct {
	writes  int
	trigger int
}

type sinkFailure struct{}

func (sinkFailure) Error() string { return "disk full" }

func (s *failSink) WriteRow(Row) error {
	s.writes++
	if s.writes == s.trigger {
		return sinkFailure{}
	}
	return nil
}

func TestSweepSinkErrorStopsSweep(t *testing.T) {
	sw := smallSweep()
	_, err := RunSweep(context.Background(), sw, &failSink{trigger: 2})
	if err == nil || !strings.Contains(err.Error(), "disk full") {
		t.Fatalf("err = %v, want the sink failure", err)
	}
}

func TestSweepArcFailProbAxis(t *testing.T) {
	sw := Sweep{
		Base: Scenario{Topology: Hypercube(3), P: 0.5, LoadFactor: 0.5, Horizon: 200, Seed: 1},
		Axes: []Axis{{Field: "arc_fail_prob", Values: Nums(0, 0.02, 0.1)}},
	}
	scs, err := sw.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if scs[0].Faults != nil {
		t.Fatalf("arc_fail_prob=0 with no other fault feature must stay faultless, got %+v", scs[0].Faults)
	}
	for i, want := range []float64{0.02, 0.1} {
		if scs[i+1].Faults == nil || scs[i+1].Faults.ArcFailProb != want {
			t.Fatalf("point %d: Faults = %+v, want arc_fail_prob %g", i+1, scs[i+1].Faults, want)
		}
	}

	// A base with other fault features keeps them at rate 0, and the axis
	// must never mutate the base's shared FaultSpec.
	sw.Base.Faults = &FaultSpec{BufferCapacity: 2}
	scs, err = sw.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if scs[0].Faults == nil || scs[0].Faults.BufferCapacity != 2 || scs[0].Faults.ArcFailProb != 0 {
		t.Fatalf("rate-0 point dropped the base buffer capacity: %+v", scs[0].Faults)
	}
	if scs[1].Faults == sw.Base.Faults || sw.Base.Faults.ArcFailProb != 0 {
		t.Fatalf("axis mutated the shared base FaultSpec: %+v", sw.Base.Faults)
	}
	if scs[2].Faults.ArcFailProb != 0.1 || scs[2].Faults.BufferCapacity != 2 {
		t.Fatalf("axis did not merge with base fault features: %+v", scs[2].Faults)
	}

	// Out-of-range rates fail scenario validation with the point named.
	sw.Base.Faults = nil
	sw.Axes = []Axis{{Field: "arc_fail_prob", Values: Nums(0.5, 1.5)}}
	if err := sw.Validate(); err == nil || !strings.Contains(err.Error(), "sweep point 1") {
		t.Fatalf("expected point-1 range error, got %v", err)
	}
}

func TestSweepUnknownAxisNamesAlternatives(t *testing.T) {
	sw := Sweep{
		Base: Scenario{Topology: Hypercube(3), P: 0.5, LoadFactor: 0.5, Horizon: 100},
		Axes: []Axis{{Field: "fail_prob", Values: Nums(0.1)}},
	}
	err := sw.Validate()
	if err == nil || !strings.Contains(err.Error(), `unknown sweep axis field "fail_prob"`) ||
		!strings.Contains(err.Error(), "arc_fail_prob") || !strings.Contains(err.Error(), "load_factor") {
		t.Fatalf("unknown-axis error must list the valid fields, got %v", err)
	}
}

// sampleAxisValue returns an axis value for a scalar field of type t and the
// field value it must decode to: a non-zero value of t's kind, or for an
// enumeration with its own JSON names, the name of its value 1.
func sampleAxisValue(t *testing.T, typ reflect.Type) (Value, reflect.Value) {
	want := reflect.New(typ).Elem()
	if reflect.PointerTo(typ).Implements(reflect.TypeOf((*json.Unmarshaler)(nil)).Elem()) {
		want.SetInt(1)
		name, err := json.Marshal(want.Interface())
		if err != nil {
			t.Fatal(err)
		}
		var s string
		if err := json.Unmarshal(name, &s); err != nil {
			t.Fatalf("%s: JSON name %s is not a string", typ, name)
		}
		return Str(s), want
	}
	switch typ.Kind() {
	case reflect.Bool:
		want.SetBool(true)
		return Bool(true), want
	case reflect.String:
		want.SetString("x")
		return Str("x"), want
	case reflect.Int, reflect.Int64:
		want.SetInt(3)
		return Num(3), want
	case reflect.Uint64:
		want.SetUint(3)
		return Num(3), want
	case reflect.Float64:
		want.SetFloat(0.375)
		return Num(0.375), want
	}
	t.Fatalf("no sample value for scalar type %s", typ)
	return Value{}, want
}

// TestSweepAxesFollowTheSchema walks the scenario's JSON schema: every scalar
// key path is an axis whose value lands in that field of the patched point,
// and every list or block path is rejected with its reason. So a scalar
// field added to Scenario later is sweepable with no edit to the sweep layer.
func TestSweepAxesFollowTheSchema(t *testing.T) {
	base := Scenario{Topology: Hypercube(3), P: 0.5, LoadFactor: 0.5, Horizon: 100, Seed: 1}
	scalars := 0
	var walk func(typ reflect.Type, prefix string, get func(*Scenario) reflect.Value)
	walk = func(typ reflect.Type, prefix string, get func(*Scenario) reflect.Value) {
		for _, f := range jsonFields(typ) {
			path, f := prefix+f.key, f
			field := func(sc *Scenario) reflect.Value {
				v := get(sc)
				if v.Kind() == reflect.Pointer {
					if v.IsNil() {
						return reflect.Value{}
					}
					v = v.Elem()
				}
				return v.Field(f.index)
			}
			ft := f.typ
			if ft.Kind() == reflect.Pointer {
				ft = ft.Elem()
			}
			sw := Sweep{Base: base, Axes: []Axis{{Field: path, Values: Nums(1)}}}
			_, _, err := sw.plan()
			switch ft.Kind() {
			case reflect.Struct:
				if _, aliased := axisAliases[path]; !aliased &&
					(err == nil || !strings.Contains(err.Error(), "is a block, not a scalar; sweep one of its keys")) {
					t.Errorf("block %q: got %v, want the block rejection", path, err)
				}
				walk(ft, path+".", field)
				continue
			case reflect.Slice:
				if err == nil || !strings.Contains(err.Error(), "is a list, not a scalar") {
					t.Errorf("list %q: got %v, want the list rejection", path, err)
				}
				continue
			}
			scalars++
			v, want := sampleAxisValue(t, f.typ)
			sw.Axes[0].Values = []Value{v}
			patches, faults, err := sw.plan()
			if err != nil {
				t.Errorf("scalar %q is not an axis: %v", path, err)
				continue
			}
			sc, settings, err := sw.patchPoint(patches, faults, 0)
			if err != nil {
				t.Errorf("axis %q = %s: %v", path, v, err)
				continue
			}
			if got := field(&sc); !got.IsValid() || !reflect.DeepEqual(got.Interface(), want.Interface()) {
				t.Errorf("axis %q = %s did not land: field holds %v", path, v, got)
			}
			if len(settings) != 1 || settings[0].Field != path {
				t.Errorf("axis %q: settings %+v", path, settings)
			}
		}
	}
	walk(reflect.TypeOf(Scenario{}), "", func(sc *Scenario) reflect.Value { return reflect.ValueOf(sc).Elem() })
	if want := len(scalarPaths("")); scalars != want {
		t.Fatalf("walked %d scalar paths, the sweep layer knows %d", scalars, want)
	}
}

// TestSweepBlockAxesCopyTheBase checks that faults.* and precision.* axes
// patch each point's own copy of the base's blocks: the base and every other
// point keep their values, and a faults axis that leaves the block all-zero
// drops it.
func TestSweepBlockAxesCopyTheBase(t *testing.T) {
	base := Scenario{Topology: Hypercube(3), P: 0.5, LoadFactor: 0.5, Horizon: 100, Seed: 1, TailQuantiles: true,
		Faults:    &FaultSpec{ArcFailProb: 0.01, BufferCapacity: 4},
		Precision: &PrecisionSpec{TargetCI: 0.5, Batch: 2, MaxReplications: 8}}
	wantFaults, wantPrecision := *base.Faults, *base.Precision
	sw := Sweep{Base: base, Axes: []Axis{
		{Field: "faults.buffer_capacity", Values: Ints(2, 8)},
		{Field: "precision.batch", Values: Ints(2, 4)},
	}}
	scs, err := sw.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*base.Faults, wantFaults) || *base.Precision != wantPrecision {
		t.Fatalf("axes wrote through the base's blocks: %+v %+v", *base.Faults, *base.Precision)
	}
	faults := map[*FaultSpec]bool{base.Faults: true}
	precision := map[*PrecisionSpec]bool{base.Precision: true}
	for i, sc := range scs {
		wantCap, wantBatch := []int{2, 2, 8, 8}[i], []int{2, 4, 2, 4}[i]
		if faults[sc.Faults] || precision[sc.Precision] {
			t.Fatalf("point %d shares a block with the base or another point", i)
		}
		faults[sc.Faults], precision[sc.Precision] = true, true
		if got := *sc.Faults; got.BufferCapacity != wantCap || got.ArcFailProb != 0.01 {
			t.Errorf("point %d: faults %+v, want buffer_capacity %d and the base's arc_fail_prob", i, got, wantCap)
		}
		if got := *sc.Precision; got.Batch != wantBatch || got.TargetCI != 0.5 || got.MaxReplications != 8 {
			t.Errorf("point %d: precision %+v, want batch %d and the base's other keys", i, got, wantBatch)
		}
	}

	// Any faults axis, not only arc_fail_prob, drops a block it leaves
	// all-zero, so its zero point is a faultless run.
	sw = Sweep{Base: Scenario{Topology: Hypercube(3), P: 0.5, LoadFactor: 0.5, Horizon: 100, Seed: 1},
		Axes: []Axis{{Field: "faults.buffer_capacity", Values: Ints(0, 3)}}}
	scs, err = sw.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if scs[0].Faults != nil || scs[1].Faults == nil || scs[1].Faults.BufferCapacity != 3 {
		t.Fatalf("faults blocks %+v, %+v: want none at 0, buffer_capacity 3 at 1", scs[0].Faults, scs[1].Faults)
	}
}

// TestSweepPointTimeoutTyped checks the per-point watchdog: a point that
// outlives Sweep.PointTimeout aborts with a *PointTimeoutError naming the
// point, instead of hanging the sweep.
func TestSweepPointTimeoutTyped(t *testing.T) {
	sw := Sweep{
		// Far too much total work to finish inside the deadline, yet split
		// into one-replication shards (<= 256 replications), so the
		// cooperative abort fires after a single cheap replication.
		Base: Scenario{Topology: Hypercube(4), P: 0.5, LoadFactor: 0.9, Horizon: 3000, Seed: 1, Replications: 256},
		Axes: []Axis{{Field: "load_factor", Values: Nums(0.9, 0.5)}},
	}
	sw.Parallelism = 1
	sw.PointTimeout = 20 * time.Millisecond
	_, err := RunSweep(context.Background(), sw)
	var pt *PointTimeoutError
	if !errors.As(err, &pt) {
		t.Fatalf("err = %v (%T), want *PointTimeoutError", err, err)
	}
	if pt.Point != 0 || pt.Timeout != sw.PointTimeout || !strings.Contains(pt.Settings, "load_factor=0.9") {
		t.Fatalf("bad PointTimeoutError: %+v", pt)
	}
	if !strings.Contains(pt.Error(), "watchdog") {
		t.Fatalf("error text %q does not mention the watchdog", pt.Error())
	}
}

// checkpointSweep is the sweep the checkpoint tests share; the
// arc_fail_prob axis makes the journal round-trip cover FaultStats too, and
// replications cover the merged-tally encoding.
func checkpointSweep() Sweep {
	return Sweep{
		Base: Scenario{Topology: Hypercube(3), P: 0.5, LoadFactor: 0.6, Horizon: 300, Seed: 9, Replications: 2},
		Axes: []Axis{
			{Field: "arc_fail_prob", Values: Nums(0, 0.05)},
			{Field: "d", Values: Ints(3, 4)},
		},
	}
}

// TestSweepCheckpointResumeByteIdentical is the crash-recovery contract: a
// sweep killed mid-run leaves a clean in-order prefix at its sinks, and
// re-running with the same checkpoint journal (even with a torn tail
// appended) skips the journaled points yet streams byte-identical output.
func TestSweepCheckpointResumeByteIdentical(t *testing.T) {
	wantCSV, wantJSONL := runToSinks(t, checkpointSweep())

	path := t.TempDir() + "/sweep.ckpt"
	sw := checkpointSweep()
	sw.CheckpointPath = path
	sw.Parallelism = 2
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sink := &cancelSink{cancel: cancel, trigger: 1}
	if _, err := RunSweep(ctx, sw, sink); err != context.Canceled {
		t.Fatalf("killed run: err = %v, want context.Canceled", err)
	}
	for i, p := range sink.rows {
		if p != i {
			t.Fatalf("killed run streamed %v, not a clean in-order prefix", sink.rows)
		}
	}

	// Simulate a mid-write kill: a torn final line must be tolerated.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"point":3,"resu`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	sw = checkpointSweep()
	sw.CheckpointPath = path
	sw.Parallelism = 4
	reran := 0
	sw.Progress = func(done, total int) { reran++ }
	var csv, jsonl strings.Builder
	if _, err := RunSweep(context.Background(), sw, NewCSVSink(&csv), NewJSONLSink(&jsonl)); err != nil {
		t.Fatal(err)
	}
	if csv.String() != wantCSV {
		t.Fatalf("resumed CSV differs from uninterrupted run:\n%s\nvs\n%s", csv.String(), wantCSV)
	}
	if jsonl.String() != wantJSONL {
		t.Fatalf("resumed JSONL differs from uninterrupted run:\n%s\nvs\n%s", jsonl.String(), wantJSONL)
	}
	if reran >= 4 {
		t.Fatalf("resume re-ran all %d points; the journal restored none", reran)
	}

	// After the resume the compacted journal holds the header plus every
	// point, all parseable — the torn tail is gone.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	if len(lines) != 5 { // header + 4 points
		t.Fatalf("journal has %d lines, want 5:\n%s", len(lines), data)
	}
	seen := map[int]bool{}
	for _, line := range lines[1:] {
		var e struct {
			Point int `json:"point"`
		}
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			t.Fatalf("journal line %q: %v", line, err)
		}
		seen[e.Point] = true
	}
	if len(seen) != 4 {
		t.Fatalf("journal covers points %v, want all 4", seen)
	}

	// A completed sweep resumes entirely from the journal: zero re-runs,
	// same bytes.
	sw.Progress = func(done, total int) { t.Errorf("fully-journaled sweep re-ran a point (%d/%d)", done, total) }
	csv.Reset()
	jsonl.Reset()
	if _, err := RunSweep(context.Background(), sw, NewCSVSink(&csv), NewJSONLSink(&jsonl)); err != nil {
		t.Fatal(err)
	}
	if csv.String() != wantCSV || jsonl.String() != wantJSONL {
		t.Fatal("fully-journaled resume is not byte-identical")
	}
}

// TestSweepCheckpointRejectsDifferentSweep checks the fingerprint guard: a
// journal written by one sweep spec must refuse to resume another.
func TestSweepCheckpointRejectsDifferentSweep(t *testing.T) {
	path := t.TempDir() + "/sweep.ckpt"
	sw := checkpointSweep()
	sw.CheckpointPath = path
	if _, err := RunSweep(context.Background(), sw); err != nil {
		t.Fatal(err)
	}
	other := checkpointSweep()
	other.Base.Seed = 10 // different spec, same shape
	other.CheckpointPath = path
	_, err := RunSweep(context.Background(), other)
	if err == nil || !strings.Contains(err.Error(), "different sweep spec") {
		t.Fatalf("err = %v, want the fingerprint mismatch", err)
	}
}

func TestSweepDeflectionPoints(t *testing.T) {
	sw := Sweep{
		Base: Scenario{Topology: Hypercube(3), P: 0.5, LoadFactor: 0.5, Horizon: 200, Seed: 1},
		Axes: []Axis{{Field: "router", Values: Strs("greedy", "deflection")}},
	}
	rows, err := RunSweep(context.Background(), sw)
	if err != nil {
		t.Fatal(err)
	}
	if rows[0].Result.Kernel == rows[1].Result.Kernel {
		t.Fatalf("router axis did not switch kernels: %s", rows[0].Result.Kernel)
	}
	if rows[1].Result.Deflection == nil || rows[1].Result.Hypercube != nil {
		t.Fatal("deflection point lacks its result block")
	}
}
