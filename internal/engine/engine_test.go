package engine

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/stats"
	"repro/internal/xrand"
)

// noisyTask is a deterministic-but-irregular task: the returned metrics are
// pure functions of the replication seed, and the amount of work varies per
// replication so that shards finish out of order under parallelism.
func noisyTask(rep int, seed uint64) (map[string]float64, map[string]*stats.DDSketch) {
	r := xrand.New(seed)
	spin := 1 + int(seed%97)
	x := 0.0
	for i := 0; i < spin; i++ {
		x += r.Float64()
	}
	return map[string]float64{
		"mean_uniform": x / float64(spin),
		"exp":          r.Exp(1.5),
		"rep":          float64(rep),
	}, nil
}

// run is Run on a background context, failing the test on an error.
func run(t testing.TB, cfg Config, task SketchTask) *Result {
	t.Helper()
	res, err := Run(context.Background(), cfg, task)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// scalar adapts a task without sketches to the SketchTask shape.
func scalar(task func(rep int, seed uint64) map[string]float64) SketchTask {
	return func(rep int, seed uint64) (map[string]float64, map[string]*stats.DDSketch) {
		return task(rep, seed), nil
	}
}

// fingerprint renders every tally field that feeds the reports, at full
// precision, so equal fingerprints mean byte-identical downstream output.
func fingerprint(res *Result) string {
	s := fmt.Sprintf("reps=%d shards=%d", res.Replications, res.Shards)
	for _, k := range slices.Sorted(maps.Keys(res.Metrics)) {
		t := res.Metrics[k]
		s += fmt.Sprintf(";%s:n=%d mean=%x sd=%x min=%x max=%x",
			k, t.Count(), t.Mean(), t.StdDev(), t.Min(), t.Max())
	}
	return s
}

func TestShardsLayoutDeterministic(t *testing.T) {
	cfg := Config{Replications: 1001, BaseSeed: 42} // shards of 4
	a, b := Shards(cfg), Shards(cfg)
	if len(a) != 251 {
		t.Fatalf("len = %d, want ceil(1001/4) = 251", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("shard %d differs between identical configs: %+v vs %+v", i, a[i], b[i])
		}
	}
	// Shards tile [0, n) exactly.
	next := 0
	for i, sh := range a {
		if sh.Index != i || sh.Start != next || sh.End <= sh.Start {
			t.Fatalf("bad shard %d: %+v", i, sh)
		}
		next = sh.End
	}
	if next != 1001 {
		t.Fatalf("shards cover [0, %d), want [0, 1001)", next)
	}
	// Substream seeds are all distinct.
	seen := map[uint64]bool{}
	for _, sh := range a {
		if seen[sh.Seed] {
			t.Fatalf("duplicate shard seed %d", sh.Seed)
		}
		seen[sh.Seed] = true
	}
}

func TestShardsEmptyAndSingle(t *testing.T) {
	if got := Shards(Config{Replications: 0}); got != nil {
		t.Fatalf("expected nil shards for zero replications, got %v", got)
	}
	one := Shards(Config{Replications: 1, BaseSeed: 5})
	if len(one) != 1 || one[0].End-one[0].Start != 1 {
		t.Fatalf("bad single-replication layout: %v", one)
	}
}

func TestDefaultShardSizePure(t *testing.T) {
	cases := map[int]int{1: 1, 100: 1, 256: 1, 257: 2, 512: 2, 10000: 40}
	for n, want := range cases {
		if got := DefaultShardSize(n); got != want {
			t.Fatalf("DefaultShardSize(%d) = %d, want %d", n, got, want)
		}
	}
}

// TestRunDeterminismAcrossParallelism is the engine's core guarantee: the
// same configuration must produce bit-identical merged statistics whether it
// runs serially, on 4 workers, or on every core.
func TestRunDeterminismAcrossParallelism(t *testing.T) {
	levels := []int{1, 4, runtime.GOMAXPROCS(0)}
	var want string
	for _, par := range levels {
		cfg := Config{Replications: 601, Parallelism: par, BaseSeed: 1234} // shards of 3
		got := fingerprint(run(t, cfg, noisyTask))
		if want == "" {
			want = got
			continue
		}
		if got != want {
			t.Fatalf("parallelism %d changed the result:\n got %s\nwant %s", par, got, want)
		}
	}
}

// TestRunMatchesSerialReference checks the shard decomposition and Welford
// merge against a plain serial loop over the same (rep, seed) pairs.
func TestRunMatchesSerialReference(t *testing.T) {
	cfg := Config{Replications: 300, Parallelism: runtime.GOMAXPROCS(0), BaseSeed: 9} // shards of 2
	got := run(t, cfg, noisyTask)

	ref := map[string]*stats.Tally{}
	var reps int
	for _, sh := range Shards(cfg) {
		for rep := sh.Start; rep < sh.End; rep++ {
			reps++
			metrics, _ := noisyTask(rep, sh.RepSeed(rep))
			for k, v := range metrics {
				if ref[k] == nil {
					ref[k] = &stats.Tally{}
				}
				ref[k].Add(v)
			}
		}
	}
	if reps != cfg.Replications {
		t.Fatalf("reference replayed %d reps, want %d", reps, cfg.Replications)
	}
	if len(got.Metrics) != len(ref) {
		t.Fatalf("metric sets differ: got %v, want %v", got.Metrics, ref)
	}
	for k, want := range ref {
		g := got.Metrics[k]
		if g == nil {
			t.Fatalf("metric %q missing from engine result", k)
		}
		if g.Count() != want.Count() || g.Min() != want.Min() || g.Max() != want.Max() {
			t.Fatalf("%s: count/min/max mismatch: %v vs %v", k, g, want)
		}
		// The pairwise Welford merge may differ from sequential addition in
		// the last few ulps; anything beyond that is a merge bug.
		if math.Abs(g.Mean()-want.Mean()) > 1e-12*math.Max(1, math.Abs(want.Mean())) {
			t.Fatalf("%s: mean %v vs serial %v", k, g.Mean(), want.Mean())
		}
		if math.Abs(g.StdDev()-want.StdDev()) > 1e-9*math.Max(1, want.StdDev()) {
			t.Fatalf("%s: stddev %v vs serial %v", k, g.StdDev(), want.StdDev())
		}
	}
	// The "rep" metric doubles as a coverage check: mean of 0..n-1.
	wantMean := float64(cfg.Replications-1) / 2
	if math.Abs(got.Metrics["rep"].Mean()-wantMean) > 1e-9 {
		t.Fatalf("rep coverage mean = %v, want %v", got.Metrics["rep"].Mean(), wantMean)
	}
}

// TestRunRaceStress hammers the engine with many tiny shards and maximal
// parallelism; under `go test -race` this is the engine's data-race probe.
func TestRunRaceStress(t *testing.T) {
	var calls int64
	seen := make([]int32, 500)
	cfg := Config{Replications: len(seen), Parallelism: 2 * runtime.GOMAXPROCS(0), BaseSeed: 7}
	var progressCalls int64
	cfg.Progress = func(doneShards, totalShards, doneReps, totalReps int) {
		atomic.AddInt64(&progressCalls, 1)
		if doneShards < 1 || doneShards > totalShards || doneReps > totalReps {
			t.Errorf("bad progress: %d/%d shards, %d/%d reps", doneShards, totalShards, doneReps, totalReps)
		}
	}
	res := run(t, cfg, scalar(func(rep int, seed uint64) map[string]float64 {
		atomic.AddInt64(&calls, 1)
		atomic.AddInt32(&seen[rep], 1)
		return map[string]float64{"v": float64(seed % 1000)}
	}))
	if calls != int64(len(seen)) {
		t.Fatalf("task ran %d times, want %d", calls, len(seen))
	}
	for rep, c := range seen {
		if c != 1 {
			t.Fatalf("replication %d executed %d times", rep, c)
		}
	}
	if res.Metrics["v"].Count() != int64(len(seen)) {
		t.Fatalf("merged count = %d", res.Metrics["v"].Count())
	}
	if progressCalls != int64(res.Shards) {
		t.Fatalf("progress called %d times, want once per shard (%d)", progressCalls, res.Shards)
	}
}

func TestRunZeroReplications(t *testing.T) {
	res := run(t, Config{Replications: 0}, noisyTask)
	if res.Replications != 0 || res.Shards != 0 || len(res.Metrics) != 0 {
		t.Fatalf("unexpected empty-run result: %+v", res)
	}
}

// TestRunSkipsNaNMetrics pins the merge rule for unmeasured metrics: a NaN
// value is left out of its metric's tally, so the count is the replications
// that measured it, and a metric no replication measured still appears, with
// a count of zero.
func TestRunSkipsNaNMetrics(t *testing.T) {
	task := func(rep int, _ uint64) (map[string]float64, map[string]*stats.DDSketch) {
		ratio := math.NaN()
		if rep%3 == 0 {
			ratio = float64(rep)
		}
		return map[string]float64{"ratio": ratio, "never": math.NaN()}, nil
	}
	res := run(t, Config{Replications: 513, Parallelism: 2}, task) // shards of 3
	if got := res.Metrics["ratio"]; got.Count() != 171 || got.Mean() != 255 {
		t.Errorf("ratio: count %d, mean %v; want 171 replications (0, 3, ..., 510) with mean 255", got.Count(), got.Mean())
	}
	if got, ok := res.Metrics["never"]; !ok || got.Count() != 0 {
		t.Errorf("never: tally %+v (present %v), want an empty tally", got, ok)
	}
}

func TestProgressIsMonotonic(t *testing.T) {
	var mu sync.Mutex
	lastShards, lastReps := 0, 0
	cfg := Config{Replications: 1024, Parallelism: 8, BaseSeed: 3} // shards of 4
	cfg.Progress = func(doneShards, totalShards, doneReps, totalReps int) {
		mu.Lock()
		defer mu.Unlock()
		if doneShards != lastShards+1 || doneReps <= lastReps {
			t.Errorf("non-monotonic progress: shards %d->%d reps %d->%d",
				lastShards, doneShards, lastReps, doneReps)
		}
		lastShards, lastReps = doneShards, doneReps
	}
	run(t, cfg, scalar(func(rep int, seed uint64) map[string]float64 {
		return map[string]float64{"x": 1}
	}))
	if lastShards != 256 || lastReps != 1024 {
		t.Fatalf("final progress %d shards / %d reps, want 256 / 1024", lastShards, lastReps)
	}
}

func TestForEachCoversAllIndices(t *testing.T) {
	for _, par := range []int{0, 1, 3, 64} {
		n := 257
		hits := make([]int32, n)
		if err := ForEach(context.Background(), n, par, func(i int) { atomic.AddInt32(&hits[i], 1) }); err != nil {
			t.Fatal(err)
		}
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("parallelism %d: index %d visited %d times", par, i, h)
			}
		}
	}
	if err := ForEach(context.Background(), 0, 4, func(int) { t.Fatal("fn called for n = 0") }); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkRunOverhead(b *testing.B) {
	// Measures pure engine overhead (sharding, pool, merge) with a trivial
	// task, the worst case for the engine-to-work ratio.
	cfg := Config{Replications: 1024, Parallelism: 0, BaseSeed: 1}
	task := scalar(func(rep int, seed uint64) map[string]float64 {
		return map[string]float64{"v": float64(seed & 0xff)}
	})
	for i := 0; i < b.N; i++ {
		run(b, cfg, task)
	}
}

// TestRunCtxMatchesRun checks that a run under a live cancellable context,
// whose dispatch loop selects on a real Done channel, is exactly the run
// under context.Background, whose Done channel is nil.
func TestRunCtxMatchesRun(t *testing.T) {
	cfg := Config{Replications: 12, Parallelism: 3, BaseSeed: 9}
	task := scalar(func(_ int, seed uint64) map[string]float64 {
		return map[string]float64{"v": float64(seed % 1009)}
	})
	want := run(t, cfg, task)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	got, err := Run(ctx, cfg, task)
	if err != nil {
		t.Fatal(err)
	}
	if fingerprint(got) != fingerprint(want) {
		t.Fatalf("cancellable-context run diverged:\n%s\nvs\n%s", fingerprint(got), fingerprint(want))
	}
}

// TestRunCtxCancelled checks that cancellation stops dispatch and reports
// the context error instead of a partial merge.
func TestRunCtxCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var started int64
	res, err := Run(ctx, Config{Replications: 1000, Parallelism: 2, BaseSeed: 1},
		scalar(func(_ int, _ uint64) map[string]float64 {
			if atomic.AddInt64(&started, 1) == 3 {
				cancel()
			}
			return map[string]float64{"v": 1}
		}))
	if err != context.Canceled {
		t.Fatalf("err = %v", err)
	}
	if res != nil {
		t.Fatal("cancelled run must not return a partial result")
	}
	if n := atomic.LoadInt64(&started); n >= 1000 {
		t.Fatalf("cancellation did not stop dispatch (%d replications ran)", n)
	}
}

// TestForEachCtxPanicIsolation checks that a panicking index surfaces as a
// typed *PanicError on both execution paths instead of killing the process,
// that it runs once (a task is a pure function of its index, so a second try
// would panic again), and that dispatch stops early.
func TestForEachCtxPanicIsolation(t *testing.T) {
	for _, par := range []int{1, 4} {
		var attempts int64
		err := ForEach(context.Background(), 100, par, func(i int) {
			if i == 7 {
				atomic.AddInt64(&attempts, 1)
				panic("poisoned shard")
			}
		})
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("parallelism %d: err = %v (%T), want *PanicError", par, err, err)
		}
		if pe.Index != 7 || pe.Value != "poisoned shard" {
			t.Fatalf("parallelism %d: bad PanicError: %+v", par, pe)
		}
		if got := atomic.LoadInt64(&attempts); got != 1 {
			t.Fatalf("parallelism %d: index attempted %d times, want 1", par, got)
		}
		if len(pe.Stack) == 0 {
			t.Fatalf("parallelism %d: PanicError carries no stack", par)
		}
	}
}

// TestPanicErrorUnwrap checks that a task that panics with an error value
// surfaces it through errors.Is/As on the *PanicError, and that any other
// panic value unwraps to nothing.
func TestPanicErrorUnwrap(t *testing.T) {
	cause := errors.New("typed cause")
	err := ForEach(context.Background(), 3, 1, func(i int) {
		if i == 1 {
			panic(fmt.Errorf("wrapped: %w", cause))
		}
	})
	var pe *PanicError
	if !errors.As(err, &pe) || !errors.Is(err, cause) {
		t.Fatalf("err = %v: want a *PanicError that unwraps to its cause", err)
	}
	if (&PanicError{Value: "text"}).Unwrap() != nil {
		t.Fatal("a non-error panic value unwraps to an error")
	}
}

// TestForEachRepanics checks the crash-on-bug contract callers such as the
// experiment harness build on ForEach: a panic on a worker goroutine comes
// back on the caller's goroutine as a *PanicError, which the caller
// re-panics with and which can be recovered there, rather than dying as an
// unrecoverable worker-goroutine panic.
func TestForEachRepanics(t *testing.T) {
	defer func() {
		pe, ok := recover().(*PanicError)
		if !ok || pe.Index != 2 {
			t.Fatalf("recovered %v, want *PanicError for index 2", pe)
		}
	}()
	if err := ForEach(context.Background(), 8, 4, func(i int) {
		if i == 2 {
			panic("boom")
		}
	}); err != nil {
		panic(err)
	}
	t.Fatal("ForEach returned no error despite a panic")
}

// TestRunCtxPanicTyped checks that a shard panic inside a sharded run comes
// back as a typed error with no partial result.
func TestRunCtxPanicTyped(t *testing.T) {
	res, err := Run(context.Background(), Config{Replications: 1024, Parallelism: 4, BaseSeed: 2}, // shards of 4
		scalar(func(rep int, _ uint64) map[string]float64 {
			if rep == 21 {
				panic(fmt.Sprintf("rep %d exploded", rep))
			}
			return map[string]float64{"v": 1}
		}))
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v (%T), want *PanicError", err, err)
	}
	if pe.Index != 5 { // shard 5 holds reps [20, 24)
		t.Fatalf("PanicError.Index = %d, want shard 5", pe.Index)
	}
	if res != nil {
		t.Fatal("panicking run must not return a partial result")
	}
}

// TestForEachCtxSerialAndParallel checks both execution paths of the
// cancellable loop.
func TestForEachCtxSerialAndParallel(t *testing.T) {
	for _, par := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		var ran int64
		err := ForEach(ctx, 100, par, func(i int) {
			if atomic.AddInt64(&ran, 1) == 5 {
				cancel()
			}
		})
		if err != context.Canceled {
			t.Fatalf("parallelism %d: err = %v", par, err)
		}
		if n := atomic.LoadInt64(&ran); n >= 100 {
			t.Fatalf("parallelism %d: cancellation ignored (%d ran)", par, n)
		}
		if err := ForEach(context.Background(), 10, par, func(int) {}); err != nil {
			t.Fatalf("parallelism %d: uncancelled loop errored: %v", par, err)
		}
	}
}

// noisySketchTask extends noisyTask with a delay sketch whose contents are a
// pure function of the replication seed.
func noisySketchTask(rep int, seed uint64) (map[string]float64, map[string]*stats.DDSketch) {
	r := xrand.New(seed)
	s := new(stats.DDSketch)
	s.Reset(0.02)
	n := 50 + int(seed%50)
	for i := 0; i < n; i++ {
		s.Add(r.Exp(0.5))
	}
	if seed%13 == 0 {
		s.Add(0) // exercise the zero bucket in the merged state
	}
	metrics, _ := noisyTask(rep, seed)
	return metrics, map[string]*stats.DDSketch{"delay": s}
}

// sketchQuantiles renders a sketch's count and a fine grid of its quantiles
// at full precision: two sketches that agree here answer every query the
// reports make identically.
func sketchQuantiles(s *stats.DDSketch) string {
	out := fmt.Sprint(s.Count())
	for i := 0; i <= 1000; i++ {
		out += fmt.Sprintf(" %x", s.Quantile(float64(i)/1000))
	}
	return out
}

// TestRunSketchDeterminismAcrossParallelism extends the engine's core
// guarantee to sketches: the merged sketch must be identical
// whether shards run serially or on every core, and must equal a plain serial
// merge over the same (rep, seed) pairs.
func TestRunSketchDeterminismAcrossParallelism(t *testing.T) {
	cfg := Config{Replications: 601, BaseSeed: 1234} // shards of 3

	// Serial reference: one sketch fed by every replication in index order.
	ref := &stats.DDSketch{}
	for _, sh := range Shards(cfg) {
		for rep := sh.Start; rep < sh.End; rep++ {
			_, sk := noisySketchTask(rep, sh.RepSeed(rep))
			ref.Merge(sk["delay"])
		}
	}
	want := sketchQuantiles(ref)

	var wantFP string
	for _, par := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		cfg.Parallelism = par
		res := run(t, cfg, noisySketchTask)
		if got := sketchQuantiles(res.Sketches["delay"]); got != want {
			t.Fatalf("parallelism %d: merged sketch differs from serial reference", par)
		}
		if res.Sketches["delay"].Count() != ref.Count() {
			t.Fatalf("parallelism %d: count %d, want %d", par, res.Sketches["delay"].Count(), ref.Count())
		}
		fp := fingerprint(res)
		if wantFP == "" {
			wantFP = fp
		} else if fp != wantFP {
			t.Fatalf("parallelism %d changed the tallies", par)
		}
	}
}

// TestRunCtxSketchlessHasEmptySketches pins that tasks returning no sketches
// produce an empty (non-nil) Sketches map.
func TestRunCtxSketchlessHasEmptySketches(t *testing.T) {
	res := run(t, Config{Replications: 4, BaseSeed: 7}, noisyTask)
	if res.Sketches == nil || len(res.Sketches) != 0 {
		t.Fatalf("Sketches = %v, want empty map", res.Sketches)
	}
}
