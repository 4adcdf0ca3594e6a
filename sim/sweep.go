package sim

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/xrand"
)

// This file is the declarative sweep layer over the Scenario API: a Sweep
// names axes over scalar Scenario key paths, expands them (cross product or
// zipped) into a list of scenarios by patching the base, and RunSweep executes every point on the
// shared engine worker pool, streaming one Row per point — measured delays
// next to the paper's bound columns — to CSV / JSON Lines sinks in point
// order at any parallelism.

// Expansion modes of a Sweep.
const (
	// ExpandProduct crosses every axis with every other: the first axis
	// varies slowest, exactly like nested loops in declaration order.
	ExpandProduct = "product"
	// ExpandZip advances all axes in lockstep; every axis must list the same
	// number of values.
	ExpandZip = "zip"
)

// maxSweepPoints caps the expansion size so a typo in a spec file (say, a
// crossed pair of thousand-value axes) fails fast instead of scheduling a
// million simulations.
const maxSweepPoints = 100000

// Value is one scalar axis value — a JSON number, string or bool — kept as
// written for CSV settings cells, JSON Lines "axes" objects and sweep
// fingerprints. Which kind a field accepts is for the spec decoder to say
// (see Axis). The zero Value is the number 0.
type Value struct {
	v any
}

// Num wraps a number as an axis value.
func Num(v float64) Value { return Value{v} }

// Str wraps a string as an axis value.
func Str(s string) Value { return Value{s} }

// Bool wraps a bool as an axis value.
func Bool(b bool) Value { return Value{b} }

// Nums wraps a list of numbers as axis values.
func Nums(vs ...float64) []Value {
	out := make([]Value, len(vs))
	for i, v := range vs {
		out[i] = Num(v)
	}
	return out
}

// Ints wraps a list of integers as axis values.
func Ints(vs ...int) []Value {
	out := make([]Value, len(vs))
	for i, v := range vs {
		out[i] = Num(float64(v))
	}
	return out
}

// Strs wraps a list of strings as axis values.
func Strs(ss ...string) []Value {
	out := make([]Value, len(ss))
	for i, s := range ss {
		out[i] = Str(s)
	}
	return out
}

// String renders the value the way it appears in CSV cells and error
// messages.
func (v Value) String() string {
	switch x := v.v.(type) {
	case string:
		return x
	case bool:
		return strconv.FormatBool(x)
	case float64:
		return strconv.FormatFloat(x, 'g', -1, 64)
	}
	return "0"
}

// MarshalJSON renders the value as the JSON scalar it wraps.
func (v Value) MarshalJSON() ([]byte, error) {
	if v.v == nil {
		return []byte("0"), nil
	}
	return json.Marshal(v.v)
}

// UnmarshalJSON accepts a JSON number, string or bool. null is rejected —
// json.Unmarshal would silently read it as 0, hiding a templating mistake.
func (v *Value) UnmarshalJSON(data []byte) error {
	var x any
	if err := json.Unmarshal(data, &x); err == nil {
		switch x.(type) {
		case float64, string, bool:
			v.v = x
			return nil
		case nil:
			return fmt.Errorf("sim: axis value null is not a number, string or bool")
		}
	}
	return fmt.Errorf("sim: axis value %s must be a number, string or bool", data)
}

// Axis is one sweep axis: the scenario field it drives and the values the
// field takes. Field is any scalar key path of the scenario's JSON ("p",
// "topology.d", "faults.buffer_capacity", ...) or an alias (axisAliases).
// Each value is applied as a spec patch ({"topology":{"d":4}}) through the
// spec decoder, so it takes exactly the types and names a spec file does.
// A lambda value zeroes load_factor and the other way round, and a point
// whose faults block the axes leave all-zero drops the block.
type Axis struct {
	Field  string  `json:"field"`
	Values []Value `json:"values"`
}

// axisAliases maps the axis names that are not key paths of the scenario to
// the paths they drive.
var axisAliases = map[string]string{
	"load":          "load_factor",
	"rho":           "load_factor",
	"d":             "topology.d",
	"topology":      "topology.kind",
	"arc_fail_prob": "faults.arc_fail_prob",
}

// otherRate names the rate field an axis on either rate patches to zero.
var otherRate = map[string]string{"lambda": "load_factor", "load_factor": "lambda"}

// scenarioPaths maps every key path of the scenario's JSON to its kind; built
// on first use, so a process that expands no sweep skips the walk.
var scenarioPaths = sync.OnceValue(func() map[string]pathKind {
	return specPaths(reflect.TypeOf(Scenario{}), "", map[string]pathKind{})
})

// scalarPaths lists, sorted, the scenario's scalar key paths that start with
// prefix: the sweepable ones.
func scalarPaths(prefix string) []string {
	var paths []string
	for path, kind := range scenarioPaths() {
		if kind == scalarPath && strings.HasPrefix(path, prefix) {
			paths = append(paths, path)
		}
	}
	sort.Strings(paths)
	return paths
}

// keyPath returns the key path an axis field names: its alias target, or
// the field itself.
func keyPath(field string) string {
	if path, ok := axisAliases[field]; ok {
		return path
	}
	return field
}

// axisPath resolves an axis field to the scenario key path it drives. Only
// scalar paths are sweepable: a block or list path is rejected with the
// reason.
func axisPath(field string) (string, error) {
	path := keyPath(field)
	switch kind, ok := scenarioPaths()[path]; {
	case !ok:
		valid := scalarPaths("")
		for alias := range axisAliases {
			valid = append(valid, alias)
		}
		sort.Strings(valid)
		return "", fmt.Errorf("sim: unknown sweep axis field %q (valid: %s)", field, strings.Join(valid, ", "))
	case kind == blockPath:
		return "", fmt.Errorf("sim: sweep axis field %q is a block, not a scalar; sweep one of its keys (%s)",
			field, strings.Join(scalarPaths(path+"."), ", "))
	case kind == listPath:
		return "", fmt.Errorf("sim: sweep axis field %q is a list, not a scalar; set it in the base scenario", field)
	}
	return path, nil
}

// axisPatches builds the spec patch of each of the axis's values: the value
// nested under the axis's key path, plus a zeroed other rate.
func axisPatches(ax Axis, path string) ([][]byte, error) {
	// Spec keys are plain identifiers, so they need no JSON escaping.
	head := `{"` + strings.ReplaceAll(path, ".", `":{"`) + `":`
	tail := strings.Repeat("}", strings.Count(path, ".")+1)
	if other, ok := otherRate[path]; ok {
		tail = `,"` + other + `":0` + tail
	}
	patches := make([][]byte, len(ax.Values))
	for i, v := range ax.Values {
		val, err := v.MarshalJSON()
		if err != nil { // only a NaN or ±Inf number has no JSON form
			return nil, fmt.Errorf("sim: axis %q needs finite values, got %s", ax.Field, v)
		}
		patches[i] = []byte(head + string(val) + tail)
	}
	return patches, nil
}

// axisValueError restates a patch's decode error in the axis's terms: a type
// mismatch names the kind of value the field needs.
func axisValueError(field string, v Value, err error) error {
	var te *json.UnmarshalTypeError
	if !errors.As(err, &te) {
		return fmt.Errorf("sim: axis %q: %s", field, strings.TrimPrefix(err.Error(), "sim: "))
	}
	need := "string"
	num, isNum := v.v.(float64)
	switch k := te.Type.Kind(); {
	case k == reflect.Bool:
		need = "bool"
	case k == reflect.String:
	case !isNum:
		need = "numeric"
	case num < 0 && num == math.Trunc(num) && k >= reflect.Uint && k <= reflect.Uintptr:
		need = "non-negative"
	default:
		need = "integer"
	}
	return fmt.Errorf("sim: axis %q needs %s values, got %s", field, need, v)
}

// PointRange restricts a sweep to a contiguous block of its expansion:
// Count points starting at 0-based expansion index Start. See Sweep.Range.
type PointRange struct {
	Start int `json:"start"`
	Count int `json:"count"`
}

// End returns the exclusive end index of the range.
func (r PointRange) End() int { return r.Start + r.Count }

// Sweep is a declarative family of scenarios: a base Scenario plus named
// axes over its scalar fields. Every scalar key path of the scenario's JSON
// is sweepable, and each point is the base with its axis values applied as
// spec patches (see Axis), so the scenario's struct tags alone decide what
// a sweep can vary. Like Scenario it round-trips through JSON, so sweeps can
// live in spec files and run through cmd/sweep -spec (or expand inside
// cmd/run).
type Sweep struct {
	// Name is an optional label for reports and artifact IDs.
	Name string `json:"name,omitempty"`
	// Base is the scenario every point starts from; the axes overwrite its
	// swept fields, so the base only needs the fields no axis drives.
	Base Scenario `json:"base"`
	// Axes lists the swept fields in declaration order. At least one axis is
	// required — a sweep without axes is just a scenario.
	Axes []Axis `json:"axes"`
	// Mode selects the expansion: ExpandProduct (default) crosses the axes
	// (first axis slowest), ExpandZip advances them in lockstep.
	Mode string `json:"mode,omitempty"`
	// SplitSeeds derives each point's seed from Base.Seed by deterministic
	// seed splitting (xrand.SplitSeed(Base.Seed, point)), giving every point
	// an independent RNG stream. The default reuses Base.Seed for every
	// point — common-random-numbers across points, and what the classic
	// delay-versus-load curves use. Incompatible with a "seed" axis.
	SplitSeeds bool `json:"split_seeds,omitempty"`
	// Range, when non-nil, restricts execution to Count points starting at
	// expansion index Start. Every point keeps its absolute expansion index
	// (Row.Point, seed splitting, axis assignments), so each emitted row is
	// byte-identical to the same point of the unrestricted sweep and a set
	// of contiguous ranges covering the whole expansion concatenates to the
	// full row stream. Part of the JSON spec ("range"): a ranged sweep is a
	// different spec — and a different fingerprint — than its parent, which
	// is how the cluster coordinator (internal/cluster) gives each shard its
	// own job identity while deriving it deterministically from the parent
	// spec plus the shard's range.
	Range *PointRange `json:"range,omitempty"`

	// Parallelism bounds the number of concurrently executing points; the
	// pool is shared with each point's replications (points force their
	// scenarios to serial replications), so it is the sweep's total worker
	// budget. 0 = GOMAXPROCS. Execution policy: not part of the JSON spec.
	Parallelism int `json:"-"`
	// DiscardResults switches RunSweep to streaming-only mode: each row's
	// Result is released as soon as the sinks have consumed it and RunSweep
	// returns a nil slice. Use it for large sweeps that only stream to
	// sinks, where retaining every Result until the end would hold the
	// whole sweep in memory. Execution policy: not part of the JSON spec.
	DiscardResults bool `json:"-"`
	// Progress, when non-nil, receives (completedPoints, totalPoints)
	// updates as points finish. Calls are serialized. Not part of the spec.
	Progress func(done, total int) `json:"-"`
	// PointTimeout, when positive, is a per-point wall-clock watchdog: a
	// point whose run exceeds the deadline is aborted cooperatively and the
	// sweep fails with a *PointTimeoutError naming it. It guards long
	// unattended sweeps against a single pathological point (a typo'd
	// horizon, an unstable load) hanging the whole run. Execution policy:
	// not part of the JSON spec.
	PointTimeout time.Duration `json:"-"`
	// CheckpointPath, when non-empty, names a journal file recording every
	// completed point's result. A sweep started with an existing journal for
	// the same spec resumes: journaled points are not re-run, yet the sinks
	// still receive every row in point order, so the resumed output is
	// byte-identical to an uninterrupted run. Records are group-committed by
	// a writer goroutine while later points simulate; a row reaches the
	// sinks (and Progress counts its point) only once its record is fsync'd,
	// so a power cut costs no streamed row. See the checkpoint file format
	// in checkpoint.go. Execution policy: not part of the JSON spec.
	CheckpointPath string `json:"-"`
	// Pool, when non-nil, draws every simulation's execution slot from a
	// shared engine pool instead of this sweep's private worker budget, so
	// many sweeps running concurrently in one process (the daemon's jobs)
	// never exceed the pool's total slot count. Replicated points fan their
	// replications out across the same pool. Execution policy: never affects
	// results, not part of the JSON spec.
	Pool *engine.Pool `json:"-"`
	// Cache, when non-nil, is consulted before running each point — keyed by
	// the point scenario's Fingerprint — and filled after; a point whose
	// exact spec (seed included) was computed before is free. Because results
	// are pure functions of the spec, a hit streams bytes identical to a
	// fresh run. Execution policy: not part of the JSON spec.
	Cache ResultCache `json:"-"`
}

// ResultCache caches executed point results by scenario fingerprint (see
// Scenario.Fingerprint). Implementations must be safe for concurrent use;
// cached Results are shared and must be treated as immutable.
type ResultCache interface {
	// Get returns the cached result for the key, if any.
	Get(key string) (*Result, bool)
	// Put stores a computed result under the key.
	Put(key string, res *Result)
}

// PointTimeoutError reports a sweep point that exceeded Sweep.PointTimeout.
// Callers detect it with errors.As to distinguish a watchdog abort from a
// simulation error.
type PointTimeoutError struct {
	// Point is the 0-based sweep point index.
	Point int
	// Settings renders the point's axis assignments ("d=4, load_factor=0.9").
	Settings string
	// Timeout is the deadline the point exceeded.
	Timeout time.Duration
}

// Error names the point, its axis assignments and the exceeded deadline.
func (e *PointTimeoutError) Error() string {
	return fmt.Sprintf("sim: sweep point %d (%s) exceeded the %v point watchdog deadline", e.Point, e.Settings, e.Timeout)
}

// Title returns the sweep's display name: Name when set, otherwise a
// generated summary like "sweep over d, load_factor (12 points)" that counts
// the points the sweep runs (the Range's, when set).
func (sw Sweep) Title() string {
	if sw.Name != "" {
		return sw.Name
	}
	fields := make([]string, len(sw.Axes))
	for i, ax := range sw.Axes {
		fields[i] = ax.Field
	}
	n, err := sw.Points()
	if err != nil {
		return fmt.Sprintf("sweep over %s", strings.Join(fields, ", "))
	}
	if n == 1 {
		return fmt.Sprintf("sweep over %s (1 point)", strings.Join(fields, ", "))
	}
	return fmt.Sprintf("sweep over %s (%d points)", strings.Join(fields, ", "), n)
}

// Points returns the number of points the sweep runs — the Range's count
// when set, the full expansion's size otherwise — without expanding it. It
// checks the axes' shape, the mode and the range; Validate checks the points.
func (sw Sweep) Points() (int, error) {
	total, err := sw.points()
	if err != nil || sw.Range == nil {
		return total, err
	}
	return sw.Range.Count, nil
}

// points returns the full expansion's size, checking the Range against it,
// without expanding.
func (sw Sweep) points() (int, error) {
	if len(sw.Axes) == 0 {
		return 0, fmt.Errorf("sim: sweep needs at least one axis")
	}
	total := 1
	switch sw.Mode {
	case "", ExpandProduct:
		for i, ax := range sw.Axes {
			if len(ax.Values) == 0 {
				return 0, fmt.Errorf("sim: sweep axis %d (%q) has no values", i+1, ax.Field)
			}
			if total > maxSweepPoints/len(ax.Values) {
				return 0, fmt.Errorf("sim: sweep expands to more than %d points", maxSweepPoints)
			}
			total *= len(ax.Values)
		}
	case ExpandZip:
		total = len(sw.Axes[0].Values)
		if total == 0 {
			return 0, fmt.Errorf("sim: sweep axis 1 (%q) has no values", sw.Axes[0].Field)
		}
		if total > maxSweepPoints {
			return 0, fmt.Errorf("sim: sweep expands to more than %d points", maxSweepPoints)
		}
		for i, ax := range sw.Axes[1:] {
			if len(ax.Values) != total {
				return 0, fmt.Errorf("sim: zip mode needs equal-length axes: axis 1 (%q) has %d values, axis %d (%q) has %d",
					sw.Axes[0].Field, total, i+2, ax.Field, len(ax.Values))
			}
		}
	default:
		return 0, fmt.Errorf("sim: unknown sweep mode %q (valid: product, zip)", sw.Mode)
	}
	if r := sw.Range; r != nil {
		switch {
		case r.Start < 0:
			return 0, fmt.Errorf("sim: sweep range start %d must be non-negative", r.Start)
		case r.Count < 1:
			return 0, fmt.Errorf("sim: sweep range count %d must be at least 1", r.Count)
		case r.Start+r.Count > total:
			return 0, fmt.Errorf("sim: sweep range [%d, %d) exceeds the %d-point expansion", r.Start, r.Start+r.Count, total)
		}
	}
	return total, nil
}

// AxisSetting is one (field, value) assignment of a sweep point.
type AxisSetting struct {
	Field string
	Value Value
}

// settingsString renders axis assignments as "d=4, load_factor=0.9".
func settingsString(settings []AxisSetting) string {
	parts := make([]string, len(settings))
	for i, s := range settings {
		parts[i] = fmt.Sprintf("%s=%s", s.Field, s.Value)
	}
	return strings.Join(parts, ", ")
}

// Validate checks the sweep — axes, mode, every value's type and every
// expanded scenario — without running anything.
func (sw Sweep) Validate() error {
	_, err := sw.ExpandRows()
	return err
}

// ExpandRows validates and materializes the sweep as skeleton rows — Point
// (the absolute expansion index), Settings and Scenario filled in, Result
// nil — in point order: the full expansion, then the Range restriction.
// Out-of-range points are still validated — a ranged sweep is legal exactly
// when its parent is, so a bad spec fails the same way on every shard of a
// cluster run. This is exactly the row sequence RunSweep streams; it is
// exported so callers that obtain Results elsewhere (the cluster coordinator
// merging worker streams, journal replay) can render rows byte-identical to
// a local run.
func (sw Sweep) ExpandRows() ([]Row, error) {
	total, err := sw.points()
	if err != nil {
		return nil, err
	}
	patches, faults, err := sw.plan()
	if err != nil {
		return nil, err
	}
	rows := make([]Row, total)
	for i := range rows {
		sc, settings, err := sw.patchPoint(patches, faults, i)
		if err != nil {
			return nil, err
		}
		if err := sc.Validate(); err != nil {
			return nil, fmt.Errorf("sim: sweep point %d (%s): %w", i, settingsString(settings), err)
		}
		rows[i] = Row{Point: i, Settings: settings, Scenario: sc}
	}
	if r := sw.Range; r != nil {
		rows = rows[r.Start:r.End()]
	}
	return rows, nil
}

// plan resolves every axis to its key path, rejecting unknown, non-scalar
// and duplicate paths, and builds the spec patch of every axis value;
// faults reports whether any axis drives the faults block.
func (sw Sweep) plan() (patches [][][]byte, faults bool, err error) {
	patches = make([][][]byte, len(sw.Axes))
	seen := map[string]bool{}
	for j, ax := range sw.Axes {
		path, err := axisPath(ax.Field)
		if err != nil {
			return nil, false, err
		}
		if seen[path] {
			return nil, false, fmt.Errorf("sim: duplicate sweep axis %q", path)
		}
		seen[path] = true
		if sw.SplitSeeds && path == "seed" {
			return nil, false, fmt.Errorf("sim: split_seeds conflicts with a %q axis (pick one seed policy)", "seed")
		}
		faults = faults || strings.HasPrefix(path, "faults.")
		if patches[j], err = axisPatches(ax, path); err != nil {
			return nil, false, err
		}
	}
	return patches, faults, nil
}

// patchPoint builds expansion point i, unvalidated: a copy of the base with
// each axis's value decoded onto it, and the axis settings that produced it.
func (sw Sweep) patchPoint(patches [][][]byte, faults bool, i int) (Scenario, []AxisSetting, error) {
	sc := sw.Base
	// The patches decode into the pointed-to blocks, so every point patches
	// its own copy of the base's.
	if sc.Faults != nil {
		f := *sc.Faults
		sc.Faults = &f
	}
	if sc.Precision != nil {
		p := *sc.Precision
		sc.Precision = &p
	}
	settings := make([]AxisSetting, len(sw.Axes))
	rem := i
	for j := len(sw.Axes) - 1; j >= 0; j-- {
		ax := sw.Axes[j]
		k := i
		if sw.Mode != ExpandZip {
			k = rem % len(ax.Values)
			rem /= len(ax.Values)
		}
		settings[j] = AxisSetting{Field: ax.Field, Value: ax.Values[k]}
		if err := DecodeStrict(patches[j][k], &sc); err != nil {
			return sc, nil, axisValueError(ax.Field, ax.Values[k], err)
		}
	}
	if faults && sc.Faults != nil && sc.Faults.empty() {
		sc.Faults = nil
	}
	if sw.SplitSeeds {
		sc.Seed = xrand.SplitSeed(sw.Base.Seed, uint64(i))
	}
	return sc, settings, nil
}

// Row is one executed sweep point: its index, the axis assignments that
// produced it, the concrete scenario and the full Result (bounds included).
type Row struct {
	// Point is the 0-based index in expansion order.
	Point int
	// Settings lists the axis assignments of the point, in axis order.
	Settings []AxisSetting
	// Scenario is the expanded scenario the point ran.
	Scenario Scenario
	// Result is the executed result; replicated points carry merged tallies
	// in Result.Replicated, single-run points the per-run measurements.
	Result *Result
}

// MarshalJSON renders the row as {"point": i, "axes": {...}, "result": {...}}
// with the axes object in axis order.
func (r Row) MarshalJSON() ([]byte, error) {
	var b strings.Builder
	fmt.Fprintf(&b, `{"point":%d,"axes":{`, r.Point)
	for i, s := range r.Settings {
		if i > 0 {
			b.WriteByte(',')
		}
		key, err := json.Marshal(s.Field)
		if err != nil {
			return nil, err
		}
		val, err := json.Marshal(s.Value)
		if err != nil {
			return nil, err
		}
		b.Write(key)
		b.WriteByte(':')
		b.Write(val)
	}
	b.WriteString(`},"result":`)
	res, err := json.Marshal(r.Result)
	if err != nil {
		return nil, err
	}
	b.Write(res)
	b.WriteByte('}')
	return []byte(b.String()), nil
}

// RowSink receives executed sweep rows, strictly in point order.
type RowSink interface {
	WriteRow(Row) error
}

// rowColumns is the fixed (non-axis) column set of the CSV sink. Bound
// columns that do not apply to a row's topology/routing are left empty, as
// are NaN bounds (unstable parameters).
var rowColumns = []string{
	"topology", "d", "kernel", "router", "discipline",
	"lambda", "load_factor", "p", "replications",
	"mean_delay", "delay_ci95", "mean_hops", "mean_packets_per_node", "throughput",
	"greedy_lower_bound", "greedy_upper_bound",
	"universal_lower_bound", "oblivious_lower_bound", "slotted_upper_bound",
}

// cell formats a float at full precision; NaN renders as the empty cell.
func cell(v float64) string {
	if math.IsNaN(v) {
		return ""
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// record flattens the row into the rowColumns cells.
func (r Row) record() []string {
	sc, res := r.Scenario, r.Result
	// Sequential-stopping points report the replication count the stopping
	// rule actually ran, not the (unset) fixed count.
	reps := sc.Replications
	if res.Precision != nil {
		reps = res.Precision.Replications
	}
	rec := make([]string, 0, len(rowColumns))
	rec = append(rec,
		string(res.Topology.Kind),
		strconv.Itoa(res.Topology.D),
		res.Kernel,
		routerNames[sc.Router],
		sc.Discipline.String(),
		cell(res.Lambda),
		cell(res.LoadFactor),
		cell(sc.P),
		strconv.Itoa(reps),
	)
	meanDelay, ci95 := res.MeanDelay, res.Metrics.DelayCI95
	meanHops, perNode, throughput := res.Metrics.MeanHops, res.MeanPacketsPerNode, res.Metrics.Throughput
	if res.Replicated != nil {
		meanDelay = res.Replicated[MetricMeanDelay].Mean
		ci95 = res.Replicated[MetricMeanDelay].CI95
		meanHops = res.Replicated[MetricMeanHops].Mean
		perNode = res.Replicated[MetricMeanPacketsPerNode].Mean
		throughput = res.Replicated[MetricThroughput].Mean
	}
	rec = append(rec, cell(meanDelay), cell(ci95), cell(meanHops), cell(perNode), cell(throughput))
	nan := math.NaN()
	greedyLo, greedyUp, universalLo, obliviousLo, slottedUp := nan, nan, nan, nan, nan
	switch {
	case res.Hypercube != nil:
		h := res.Hypercube
		greedyLo, greedyUp = h.GreedyLowerBound, h.GreedyUpperBound
		universalLo, obliviousLo = h.UniversalLowerBound, h.ObliviousLowerBound
		if sc.Slotted {
			slottedUp = h.SlottedUpperBound
		}
	case res.Butterfly != nil:
		greedyUp = res.Butterfly.GreedyUpperBound
		universalLo = res.Butterfly.UniversalLowerBound
	case res.Deflection != nil:
		universalLo = res.Deflection.UniversalLowerBound
	}
	rec = append(rec, cell(greedyLo), cell(greedyUp), cell(universalLo), cell(obliviousLo), cell(slottedUp))
	return rec
}

// csvEscape quotes a cell when it contains CSV metacharacters.
func csvEscape(cell string) string {
	if strings.ContainsAny(cell, ",\"\n") {
		return `"` + strings.ReplaceAll(cell, `"`, `""`) + `"`
	}
	return cell
}

// CSVSink streams rows as CSV: a header on the first row (point, one column
// per axis, then the fixed result and bound columns, minus any fixed column
// an axis already covers), then one record per point at full float precision.
type CSVSink struct {
	w           io.Writer
	wroteHeader bool
	// skip marks the rowColumns indices an axis column supersedes; computed
	// from the first row (every row of a sweep has the same axes).
	skip []bool
	// tail appends the tail-quantile columns (tail_p50 .. tail_p999) when the
	// first row carries a delay sketch; rows without one leave them empty.
	tail bool
}

// tailColumns is the conditional tail-quantile column set, present only when
// the sweep's first row recorded a delay sketch (scenario "tail_quantiles").
var tailColumns = []string{"tail_p50", "tail_p90", "tail_p99", "tail_p999"}

// tailCells flattens a row's tail quantiles into the tailColumns cells.
func tailCells(res *Result) []string {
	if res == nil || res.Tail == nil {
		return []string{"", "", "", ""}
	}
	t := res.Tail
	return []string{cell(t.P50), cell(t.P90), cell(t.P99), cell(t.P999)}
}

// NewCSVSink returns a CSV sink writing to w.
func NewCSVSink(w io.Writer) *CSVSink { return &CSVSink{w: w} }

// WriteRow writes one CSV record (and the header before the first).
func (s *CSVSink) WriteRow(r Row) error {
	var b strings.Builder
	writeRecord := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(csvEscape(c))
		}
		b.WriteByte('\n')
	}
	if !s.wroteHeader {
		s.skip = make([]bool, len(rowColumns))
		header := make([]string, 0, 1+len(r.Settings)+len(rowColumns))
		header = append(header, "point")
		// An axis supersedes the fixed column of the key path it drives.
		swept := map[string]bool{}
		for _, st := range r.Settings {
			header = append(header, st.Field)
			swept[keyPath(st.Field)] = true
		}
		for i, col := range rowColumns {
			if swept[keyPath(col)] {
				s.skip[i] = true
				continue
			}
			header = append(header, col)
		}
		if r.Result != nil && r.Result.Tail != nil {
			s.tail = true
			header = append(header, tailColumns...)
		}
		writeRecord(header)
		s.wroteHeader = true
	}
	rec := make([]string, 0, 1+len(r.Settings)+len(rowColumns)+len(tailColumns))
	rec = append(rec, strconv.Itoa(r.Point))
	for _, st := range r.Settings {
		rec = append(rec, st.Value.String())
	}
	for i, c := range r.record() {
		if s.skip[i] {
			continue
		}
		rec = append(rec, c)
	}
	if s.tail {
		rec = append(rec, tailCells(r.Result)...)
	}
	writeRecord(rec)
	_, err := io.WriteString(s.w, b.String())
	return err
}

// JSONLSink streams rows as JSON Lines: one {"point", "axes", "result"}
// object per line.
type JSONLSink struct {
	w io.Writer
}

// NewJSONLSink returns a JSON Lines sink writing to w.
func NewJSONLSink(w io.Writer) *JSONLSink { return &JSONLSink{w: w} }

// WriteRow writes one JSON line.
func (s *JSONLSink) WriteRow(r Row) error {
	data, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = s.w.Write(append(data, '\n'))
	return err
}

// RunSweep expands the sweep and executes every point on the shared engine
// worker pool (at most Sweep.Parallelism concurrent points; each point's
// replications run serially inside it, so the budget is global). Rows stream
// to the sinks strictly in point order regardless of which point finishes
// first, and the completed rows are also returned in point order (unless
// DiscardResults selects streaming-only mode, in which case the returned
// slice is nil).
//
// Determinism follows from the scenario layer: every point's seed is a pure
// function of the sweep spec (Base.Seed, or its SplitSeeds split), so the
// same sweep produces byte-identical sink output at any parallelism.
//
// Cancellation is cooperative between points (and between a point's
// replications): once ctx is cancelled no new point starts, in-flight points
// finish or abort, every finished point is journaled, RunSweep returns
// ctx.Err(), and the sinks are left with a clean prefix of the row stream —
// never a partial or out-of-order record. A sink or journal write error
// likewise stops the sweep and is returned.
//
// Robustness: Sweep.PointTimeout bounds each point's wall-clock time
// (*PointTimeoutError on expiry), a panic inside a point surfaces as a typed
// *engine.PanicError after a bounded retry instead of crashing the process,
// and Sweep.CheckpointPath journals completed points so a killed sweep
// resumes without re-running them — with byte-identical sink output.
func RunSweep(ctx context.Context, sw Sweep, sinks ...RowSink) ([]Row, error) {
	rows, err := sw.ExpandRows()
	if err != nil {
		return nil, err
	}
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		mu       sync.Mutex
		next     int // first row not yet streamed
		done     = make([]bool, len(rows))
		pointErr = make([]error, len(rows))
		sinkErr  error
		ckErr    error
		finished int
	)
	var ck *checkpoint
	if sw.CheckpointPath != "" {
		restored, _, c, err := openCheckpoint(sw, sw.CheckpointPath, len(rows))
		if err != nil {
			return nil, err
		}
		ck = c
		defer ck.close()
		for i, res := range restored {
			if res == nil {
				continue
			}
			rows[i].Result = res
			done[i] = true
			finished++
		}
	}
	// flushLocked streams the longest completed prefix; mu must be held.
	flushLocked := func() {
		for next < len(rows) && done[next] && sinkErr == nil {
			for _, sink := range sinks {
				if err := sink.WriteRow(rows[next]); err != nil {
					sinkErr = err
					cancel()
					return
				}
			}
			if sw.DiscardResults {
				rows[next].Result = nil
			}
			next++
		}
	}
	// streamLocked marks finished points done, reports them and streams what
	// became streamable; mu must be held.
	streamLocked := func(points ...int) {
		for _, i := range points {
			done[i] = true
			finished++
			if sw.Progress != nil {
				sw.Progress(finished, len(rows))
			}
		}
		flushLocked()
	}
	// With a journal, a finished point goes to the writer's queue and turns
	// done only once its record is fsync'd (see groupCommit), so the sinks
	// never hold a row the journal could lose. The queue holds every point,
	// so a send never blocks a worker.
	var (
		queue       chan ckRecord
		journalDone chan struct{}
	)
	if ck != nil {
		queue, journalDone = make(chan ckRecord, len(rows)), make(chan struct{})
		go func() {
			defer close(journalDone)
			ck.groupCommit(queue, func(points []int, err error) {
				mu.Lock()
				defer mu.Unlock()
				if err != nil {
					ckErr = err
					cancel()
					return
				}
				streamLocked(points...)
			})
		}()
	}
	// Restored rows stream before any point runs, so a resumed sweep feeds
	// the sinks the exact row sequence of an uninterrupted one.
	mu.Lock()
	flushLocked()
	mu.Unlock()
	// The sweep's own point dispatch is never pool-gated (that would let a
	// replicated point hold a slot while its replication shards wait for
	// more, a deadlock); instead each point's leaf simulations draw from the
	// pool — single runs around their Run call, replicated points through
	// the engine's sharded executor.
	dispatchPar := sw.Parallelism
	if sw.Pool != nil && dispatchPar <= 0 {
		dispatchPar = sw.Pool.Workers()
	}
	forErr := engine.ForEach(runCtx, len(rows), dispatchPar, func(i int) {
		mu.Lock()
		already := done[i]
		mu.Unlock()
		if already {
			return // restored from the checkpoint journal
		}
		sc := rows[i].Scenario
		// One shared worker budget: the sweep pool provides the concurrency,
		// so each point's replications run serially on their split seeds —
		// unless a shared engine pool is attached, in which case replications
		// fan out across it (the pool, not this sweep, is then the budget).
		sc.Parallelism = 1
		sc.Progress = nil
		sc.Pool = nil
		if sw.Pool != nil && (sc.Replications > 1 || sc.Precision != nil) {
			sc.Pool = sw.Pool
			sc.Parallelism = 0
		}
		var cacheKey string
		if sw.Cache != nil {
			if key, err := sc.Fingerprint(); err == nil {
				cacheKey = key
			}
		}
		var res *Result
		var err error
		if cacheKey != "" {
			if cached, ok := sw.Cache.Get(cacheKey); ok {
				res = cached
			}
		}
		if res == nil {
			ptCtx, ptCancel := runCtx, context.CancelFunc(func() {})
			if sw.PointTimeout > 0 {
				ptCtx, ptCancel = context.WithTimeout(runCtx, sw.PointTimeout)
			}
			if sw.Pool != nil && sc.Pool == nil {
				// Single-run point: the Run call itself is the leaf. The
				// release is deferred because Run may panic (the engine's
				// isolation recovers it above this frame) and a leaked slot
				// would starve every sibling sweep on the shared pool.
				err = func() error {
					if aerr := sw.Pool.Acquire(ptCtx); aerr != nil {
						return aerr
					}
					defer sw.Pool.Release()
					var rerr error
					res, rerr = Run(ptCtx, sc)
					return rerr
				}()
			} else {
				res, err = Run(ptCtx, sc)
			}
			ptCancel()
			if err == nil && cacheKey != "" {
				sw.Cache.Put(cacheKey, res)
			}
		}
		mu.Lock()
		defer mu.Unlock()
		if err != nil {
			// A deadline hit on the point context while the sweep itself is
			// still live is the watchdog firing, not a caller cancellation.
			if errors.Is(err, context.DeadlineExceeded) && runCtx.Err() == nil {
				err = &PointTimeoutError{Point: rows[i].Point, Settings: settingsString(rows[i].Settings), Timeout: sw.PointTimeout}
			}
			pointErr[i] = err
			cancel()
			return
		}
		rows[i].Result = res
		if queue != nil {
			queue <- ckRecord{point: i, res: res}
			return
		}
		streamLocked(i)
	})
	if queue != nil {
		// Records already queued are still written, so a cancelled sweep
		// keeps every point it finished.
		close(queue)
		<-journalDone
	}
	if sinkErr != nil {
		return nil, fmt.Errorf("sim: sweep sink failed at point %d: %w", next, sinkErr)
	}
	if ckErr != nil {
		return nil, ckErr
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for i, err := range pointErr {
		if err == nil {
			continue
		}
		// The first failing point cancels runCtx to stop the sweep early;
		// sibling points then abort with context.Canceled. Those echoes are
		// not the root cause — skip them and report the real failure.
		if errors.Is(err, context.Canceled) {
			continue
		}
		var pt *PointTimeoutError
		if errors.As(err, &pt) {
			return nil, err // already names the point and its settings
		}
		return nil, fmt.Errorf("sim: sweep point %d (%s): %w", rows[i].Point, settingsString(rows[i].Settings), err)
	}
	if forErr != nil {
		return nil, forErr
	}
	if sw.DiscardResults {
		return nil, nil
	}
	return rows, nil
}
