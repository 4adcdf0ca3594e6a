// Package engine executes Monte-Carlo experiments as sets of independent
// replication shards on a bounded worker pool.
//
// Every experiment in this repository is an average over independent
// replications of a simulation, which makes the workload embarrassingly
// parallel. The engine models one experiment run as a deterministic
// decomposition into shards (contiguous blocks of replication indices), gives
// each shard its own RNG substream derived by seed splitting
// (xrand.SplitSeed), executes shards on a worker pool bounded by the
// configured parallelism, and merges the per-shard streaming statistics
// (stats.Tally, Welford-style) in shard-index order once all shards have
// completed.
//
// Determinism is the engine's core contract: the shard decomposition and all
// seeds depend only on (Replications, BaseSeed), never on the parallelism
// or on scheduling, and the merge happens in a fixed order after the
// barrier. Running the same configuration with 1 worker or with
// GOMAXPROCS workers therefore produces bit-identical aggregate results.
package engine

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"sync"

	"repro/internal/stats"
	"repro/internal/xrand"
)

// PanicError reports an index whose task panicked. The worker pool converts
// panics into this typed error instead of crashing the process, so one
// poisoned shard cannot take down a long sweep; callers inspect it with
// errors.As. Tasks are pure functions of their index and seed, so the index
// is not tried again: it would panic again.
type PanicError struct {
	// Index is the ForEach index (the shard or sweep-point index) that
	// panicked.
	Index int
	// Value is the recovered panic value.
	Value any
	// Stack is the stack trace captured at the recovery.
	Stack []byte
}

// Error formats the panic with its index; the captured stack is available
// separately to keep single-line logs readable.
func (e *PanicError) Error() string {
	return fmt.Sprintf("engine: task %d panicked: %v", e.Index, e.Value)
}

// Unwrap returns the panic value when it is an error, so errors.Is and
// errors.As reach a typed error a task panicked with.
func (e *PanicError) Unwrap() error {
	err, _ := e.Value.(error)
	return err
}

// runIsolated executes fn(i) with panic isolation: it returns nil on
// success, or the recovered panic as a *PanicError.
func runIsolated(fn func(i int), i int) (pe *PanicError) {
	defer func() {
		if v := recover(); v != nil {
			pe = &PanicError{Index: i, Value: v, Stack: debug.Stack()}
		}
	}()
	fn(i)
	return nil
}

// Pool is a shared worker-slot budget spanning concurrent engine calls. A
// single ForEach call bounds its own concurrency, but a process running
// many sweeps or replicated scenarios at once (the simulation daemon serving
// many clients) needs one global budget, or every concurrent job would bring
// its own GOMAXPROCS workers and oversubscribe the machine. Every simulation
// executed under a pool first acquires one of its slots and releases it when
// done, so the total number of concurrently executing simulations never
// exceeds the pool size no matter how many jobs share it.
//
// Slots are handed out in roughly FIFO order across all waiters, which gives
// concurrent jobs a fair interleaving at simulation granularity. The pool
// never affects results: it only decides when work runs, never what it
// computes.
type Pool struct {
	slots chan struct{}
}

// NewPool returns a pool with the given number of worker slots (non-positive
// = GOMAXPROCS).
func NewPool(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	p := &Pool{slots: make(chan struct{}, workers)}
	for i := 0; i < workers; i++ {
		p.slots <- struct{}{}
	}
	return p
}

// Workers returns the pool's slot count.
func (p *Pool) Workers() int { return cap(p.slots) }

// Acquire blocks until a slot is free (or ctx is done) and claims it. Every
// successful Acquire must be paired with a Release.
func (p *Pool) Acquire(ctx context.Context) error {
	select {
	case <-p.slots:
		return nil
	default:
	}
	select {
	case <-p.slots:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Release returns a previously acquired slot to the pool.
func (p *Pool) Release() { p.slots <- struct{}{} }

// SketchTask is one replication of an experiment. It receives the
// replication's global index and its deterministic seed, runs whatever
// simulation the experiment needs, and returns named scalar measurements plus
// named quantile sketches. Tasks run concurrently and must not share mutable
// state.
//
// The engine merges sketches exactly as it merges tallies: shard-locally in
// replication order, then across shards in shard-index order. Because
// DDSketch.Merge is exact (integer bucket counts), the merged sketch is
// bit-identical at any parallelism. Returned sketches are retained and merged
// by the engine after the task returns, so a task drawing from a pooled
// runner must Clone the sketch out before releasing the runner. A nil sketch
// map (or nil entries) is allowed and contributes nothing.
type SketchTask func(rep int, seed uint64) (map[string]float64, map[string]*stats.DDSketch)

// Progress observes shard completion. It is called once per completed shard,
// serialized by the engine (implementations need no locking), with the number
// of shards and replications finished so far out of the totals.
type Progress func(doneShards, totalShards, doneReps, totalReps int)

// Config describes one sharded experiment run.
type Config struct {
	// Replications is the total number of independent replications.
	Replications int
	// Parallelism bounds the number of concurrently executing shards
	// (non-positive = GOMAXPROCS). It never affects results.
	Parallelism int
	// BaseSeed is the root of the seed-splitting tree.
	BaseSeed uint64
	// Progress, when non-nil, receives per-shard completion updates.
	Progress Progress
	// Pool, when non-nil, is the shared worker budget the run's shards draw
	// their execution slots from; concurrent runs on one pool never exceed
	// its total slot count. Like Parallelism it never affects results.
	Pool *Pool
}

// Shard is one contiguous block of replication indices [Start, End) together
// with the substream seed all its replications derive from.
type Shard struct {
	Index      int
	Start, End int
	Seed       uint64
}

// RepSeed returns the deterministic seed of the rep-th replication of the
// shard (rep is the global replication index, Start <= rep < End).
func (s Shard) RepSeed(rep int) uint64 {
	return xrand.SplitSeed(s.Seed, uint64(rep-s.Start))
}

// Result is the merged outcome of a sharded run.
type Result struct {
	Replications int
	Shards       int
	// Metrics maps each measurement name returned by the task to its merged
	// streaming tally.
	Metrics map[string]*stats.Tally
	// Sketches maps each sketch name returned by the task to the merged
	// sketch over all replications (empty when the task returns none).
	Sketches map[string]*stats.DDSketch
}

// DefaultShardSize returns the number of replications per shard of an
// n-replication run: one up to 256 shards, then growing so the shard count
// stays near 256. It is a pure function of n so that the shard layout, and
// with it the substream seed each replication receives, never depends on
// the machine.
func DefaultShardSize(n int) int {
	const targetShards = 256
	if n <= targetShards {
		return 1
	}
	return (n + targetShards - 1) / targetShards
}

// Shards returns the deterministic shard decomposition for the config. The
// layout and every seed depend only on Replications and BaseSeed.
func Shards(cfg Config) []Shard {
	n := cfg.Replications
	if n <= 0 {
		return nil
	}
	size := DefaultShardSize(n)
	shards := make([]Shard, 0, (n+size-1)/size)
	for start := 0; start < n; start += size {
		end := start + size
		if end > n {
			end = n
		}
		idx := len(shards)
		shards = append(shards, Shard{
			Index: idx,
			Start: start,
			End:   end,
			Seed:  xrand.SplitSeed(cfg.BaseSeed, uint64(idx)),
		})
	}
	return shards
}

// Run executes the task for every replication and returns the merged result.
// Shards run concurrently on at most cfg.Parallelism workers; within a shard,
// replications run serially in index order and feed a shard-local tally (and
// sketch) per metric. After all shards complete, the shard states are merged
// in shard order, so the result is independent of scheduling.
//
// When ctx is cancelled, no new shard starts (in-flight shards finish their
// current replication block) and Run returns (nil, ctx.Err()) instead of a
// partial merge; a shard that panics is returned as a *PanicError. Neither
// compromises determinism: a run either completes with the exact result of
// an uninterrupted run, or reports the error.
func Run(ctx context.Context, cfg Config, task SketchTask) (*Result, error) {
	shards := Shards(cfg)
	res := &Result{
		Replications: cfg.Replications,
		Shards:       len(shards),
		Metrics:      map[string]*stats.Tally{},
		Sketches:     map[string]*stats.DDSketch{},
	}
	if len(shards) == 0 {
		res.Replications = 0
		return res, nil
	}

	results := make([]Result, len(shards))

	var progressMu sync.Mutex
	doneShards, doneReps := 0, 0

	err := forEach(ctx, cfg.Pool, len(shards), cfg.Parallelism, func(i int) {
		sh := shards[i]
		tallies := map[string]*stats.Tally{}
		var sketches map[string]*stats.DDSketch
		for rep := sh.Start; rep < sh.End; rep++ {
			metrics, reps := task(rep, sh.RepSeed(rep))
			for k, v := range metrics {
				t, ok := tallies[k]
				if !ok {
					t = &stats.Tally{}
					tallies[k] = t
				}
				// NaN marks a metric this replication could not measure
				// (a ratio over no decided packet): the metric's tally
				// counts only the replications that measured it.
				if !math.IsNaN(v) {
					t.Add(v)
				}
			}
			for k, s := range reps {
				if s == nil {
					continue
				}
				if sketches == nil {
					sketches = map[string]*stats.DDSketch{}
				}
				dst, ok := sketches[k]
				if !ok {
					dst = &stats.DDSketch{}
					sketches[k] = dst
				}
				dst.Merge(s)
			}
		}
		results[i] = Result{Metrics: tallies, Sketches: sketches}
		if cfg.Progress != nil {
			progressMu.Lock()
			doneShards++
			doneReps += sh.End - sh.Start
			cfg.Progress(doneShards, len(shards), doneReps, cfg.Replications)
			progressMu.Unlock()
		}
	})
	if err != nil {
		return nil, err
	}

	// Merge in shard-index order: the only order-sensitive step, and it is
	// fully deterministic because it happens after the barrier.
	for i := range results {
		res.Merge(&results[i])
	}
	return res, nil
}

// Merge folds o's tallies and sketches into r's, metric by metric; a metric
// r lacks starts empty. r's maps must be non-nil. Merging a fixed sequence
// of results in a fixed order is deterministic; the replication and shard
// counts are left to the caller.
func (r *Result) Merge(o *Result) {
	for k, t := range o.Metrics {
		dst, ok := r.Metrics[k]
		if !ok {
			dst = &stats.Tally{}
			r.Metrics[k] = dst
		}
		dst.Merge(t)
	}
	for k, s := range o.Sketches {
		dst, ok := r.Sketches[k]
		if !ok {
			dst = &stats.DDSketch{}
			r.Sketches[k] = dst
		}
		dst.Merge(s)
	}
}

// ForEach runs fn(i) for every i in [0, n) using at most parallelism
// concurrent workers (non-positive = GOMAXPROCS) and returns once every
// dispatched call has completed. Iteration slots are claimed dynamically, so
// uneven work is balanced across workers; callers that need deterministic
// output should have fn(i) write only to the i-th slot of a result slice.
//
// Once ctx is cancelled no further index is dispatched, in-flight fn calls
// run to completion, and the context error is returned. A panic inside fn is
// recovered, stops dispatch and is reported as a *PanicError for the lowest
// panicking index (the process survives); the index is not run again. A nil
// return means fn ran for every index.
func ForEach(ctx context.Context, n, parallelism int, fn func(i int)) error {
	return forEach(ctx, nil, n, parallelism, fn)
}

// forEach is ForEach drawing execution slots from a shared Pool (Run passes
// Config.Pool): each index acquires one pool slot for the duration of its fn
// call, so concurrent calls on the same pool never execute more than the
// pool's worker count of simulations at once, however many callers there
// are. A nil pool selects the un-pooled behaviour (each call brings its own
// budget). parallelism bounds this call's in-flight indices on top of the
// pool budget; non-positive selects the pool's worker count (or GOMAXPROCS
// without a pool).
func forEach(ctx context.Context, pool *Pool, n, parallelism int, fn func(i int)) error {
	if n <= 0 {
		return ctx.Err()
	}
	if parallelism <= 0 {
		if pool != nil {
			parallelism = pool.Workers()
		} else {
			parallelism = runtime.GOMAXPROCS(0)
		}
	}
	if parallelism > n {
		parallelism = n
	}
	run := func(ctx context.Context, fn func(i int), i int) *PanicError {
		if pool == nil {
			return runIsolated(fn, i)
		}
		if err := pool.Acquire(ctx); err != nil {
			// The context died while waiting for a slot; dispatch stops on
			// its own, this index is simply skipped.
			return nil
		}
		defer pool.Release()
		return runIsolated(fn, i)
	}
	if parallelism == 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if pe := run(ctx, fn, i); pe != nil {
				return pe
			}
		}
		if pool != nil {
			// A slot acquire that lost to cancellation skips its index; the
			// context error reports the incomplete pass (nil-return contract:
			// fn ran for every index).
			return ctx.Err()
		}
		return nil
	}
	// A panic cancels this derived context so dispatch stops
	// promptly; the parent's error still wins when both fire.
	ctx, stop := context.WithCancel(ctx)
	defer stop()
	var panicMu sync.Mutex
	var panicErr *PanicError
	next := make(chan int)
	var wg sync.WaitGroup
	wg.Add(parallelism)
	for w := 0; w < parallelism; w++ {
		go func() {
			defer wg.Done()
			for i := range next {
				if pe := run(ctx, fn, i); pe != nil {
					panicMu.Lock()
					if panicErr == nil || pe.Index < panicErr.Index {
						panicErr = pe
					}
					panicMu.Unlock()
					stop()
				}
			}
		}()
	}
	var err error
dispatch:
	for i := 0; i < n; i++ {
		select {
		case next <- i:
		case <-ctx.Done():
			err = ctx.Err()
			break dispatch
		}
	}
	close(next)
	wg.Wait()
	// After the barrier panicErr needs no lock. It takes precedence over err
	// because a dispatch break may only be the echo of our own stop() call;
	// when no panic occurred, err can only come from the parent context.
	if panicErr != nil {
		return panicErr
	}
	if err == nil && pool != nil {
		// A worker whose slot acquire lost to cancellation skipped its index
		// after dispatch already handed it out; report the incomplete pass.
		err = ctx.Err()
	}
	return err
}
