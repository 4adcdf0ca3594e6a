package jobs

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/harness"
	"repro/sim"
)

// testSpec is a small valid sweep spec; the seed varies the fingerprint so
// tests can mint distinct jobs cheaply.
func testSpec(seed int) []byte {
	return []byte(fmt.Sprintf(`{
		"base": {"topology": {"kind": "hypercube", "d": 3}, "p": 0.5, "load_factor": 0.5, "horizon": 200, "seed": %d},
		"axes": [{"field": "load_factor", "values": [0.3, 0.6]}]
	}`, seed))
}

func newTestManager(t *testing.T, cfg Config) *Manager {
	t.Helper()
	if cfg.StateDir == "" {
		cfg.StateDir = t.TempDir()
	}
	m, err := NewManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithCancel(context.Background())
		cancel() // forced drain: tests must not hang on stuck fakes
		m.Drain(ctx)
	})
	return m
}

// waitState polls until the job reaches the wanted state. A job that ends
// in another terminal state never will, so that fails at once.
func waitState(t *testing.T, m *Manager, id, want string) Status {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		st, err := m.Status(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State == want {
			return st
		}
		if terminal(st.State) {
			t.Fatalf("job %s ended %q, want %q (%+v)", shortID(id), st.State, want, st)
		}
		time.Sleep(2 * time.Millisecond)
	}
	st, _ := m.Status(id)
	t.Fatalf("job %s never reached %q (last: %+v)", shortID(id), want, st)
	return Status{}
}

// TestAdmissionBackpressure pins the overload contract: beyond MaxActiveJobs
// jobs run, QueueLimit jobs queue; the next submission is rejected with
// ErrQueueFull, and a client at its in-flight cap with ErrClientBusy.
func TestAdmissionBackpressure(t *testing.T) {
	m := newTestManager(t, Config{MaxActiveJobs: 1, QueueLimit: 2, PerClientCap: 10})
	release := make(chan struct{})
	m.runSweep = func(ctx context.Context, sw sim.Sweep, sinks ...sim.RowSink) ([]sim.Row, error) {
		select {
		case <-release:
			return nil, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	defer close(release)

	// 1 running + 2 queued = at capacity.
	for i := 0; i < 3; i++ {
		if _, created, err := m.Submit("alice", testSpec(i)); err != nil || !created {
			t.Fatalf("submit %d: created=%v err=%v", i, created, err)
		}
	}
	_, _, err := m.Submit("bob", testSpec(99))
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("4th submission: err = %v, want ErrQueueFull", err)
	}

	// A second submission of a known spec attaches instead of queueing.
	st, created, err := m.Submit("alice", testSpec(1))
	if err != nil || created {
		t.Fatalf("resubmission: created=%v err=%v", created, err)
	}
	if st.ID == "" {
		t.Fatal("resubmission returned no job ID")
	}

	// Per-client cap: a tight cap rejects the client but not others.
	m2 := newTestManager(t, Config{MaxActiveJobs: 1, QueueLimit: 10, PerClientCap: 2})
	m2.runSweep = m.runSweep
	for i := 0; i < 2; i++ {
		if _, _, err := m2.Submit("carol", testSpec(i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := m2.Submit("carol", testSpec(2)); !errors.Is(err, ErrClientBusy) {
		t.Fatalf("over-cap submission: err = %v, want ErrClientBusy", err)
	}
	if _, _, err := m2.Submit("dave", testSpec(3)); err != nil {
		t.Fatalf("other client rejected: %v", err)
	}
}

// TestFairShareOrder pins the round-robin order concretely: alice queues
// a1,a2,a3, then bob queues b1; with one slot the clients alternate from the
// moment both have queued work — a1, a2, b1, a3 — so bob's singleton job is
// not stuck behind alice's whole burst.
func TestFairShareOrder(t *testing.T) {
	m := newTestManager(t, Config{MaxActiveJobs: 1, QueueLimit: 10, PerClientCap: 10})
	var mu sync.Mutex
	var order []uint64
	started := make(chan struct{}, 16)
	step := make(chan struct{})
	m.runSweep = func(ctx context.Context, sw sim.Sweep, sinks ...sim.RowSink) ([]sim.Row, error) {
		mu.Lock()
		order = append(order, sw.Base.Seed)
		mu.Unlock()
		started <- struct{}{}
		select {
		case <-step:
			return nil, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	// Seeds 1,2,3 from alice; 4 from bob.
	for seed := 1; seed <= 3; seed++ {
		if _, _, err := m.Submit("alice", testSpec(seed)); err != nil {
			t.Fatal(err)
		}
	}
	<-started // alice's first job is running; 2 queued
	if _, _, err := m.Submit("bob", testSpec(4)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		step <- struct{}{} // finish one, start the next
		<-started
	}
	step <- struct{}{} // finish the last
	deadline := time.Now().Add(5 * time.Second)
	for {
		if q, a := m.Counts(); q == 0 && a == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("jobs never drained")
		}
		time.Sleep(time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	want := []uint64{1, 2, 4, 3}
	if len(order) != 4 {
		t.Fatalf("ran %d jobs, want 4 (%v)", len(order), order)
	}
	for i, s := range want {
		if order[i] != s {
			t.Fatalf("execution order %v, want %v", order, want)
		}
	}
}

// TestMemoryBudgetPanicRunsOnce pins that a job whose point panics runs
// once: points are pure functions of (spec, seed), so a re-run would panic
// again. A replicated 7-cube point over its max_bytes budget dies mid-run
// with a *sim.MemoryBudgetError, which reaches the job wrapped in an
// engine.PanicError; the job fails after one sweep call, with an error that
// still resolves to the budget error. The budget is the smallest validation
// accepts, which the first growth of the packet pool or the completion ring
// overruns whatever the kernel's layout.
func TestMemoryBudgetPanicRunsOnce(t *testing.T) {
	m := newTestManager(t, Config{})
	var calls atomic.Int32
	m.runSweep = func(ctx context.Context, sw sim.Sweep, sinks ...sim.RowSink) ([]sim.Row, error) {
		calls.Add(1)
		return sim.RunSweep(ctx, sw, sinks...)
	}
	base := sim.Scenario{Topology: sim.Hypercube(7), P: 0.5, LoadFactor: 0.5, Horizon: 200, Seed: 5, Replications: 2}
	st, _, err := m.Submit("alice", []byte(fmt.Sprintf(`{
		"base": {"topology": {"kind": "hypercube", "d": 7}, "p": 0.5, "load_factor": 0.5, "horizon": 200,
		         "seed": 5, "max_bytes": %d, "replications": 2},
		"axes": [{"field": "seed", "values": [5]}]
	}`, smallestBudget(base))))
	if err != nil {
		t.Fatal(err)
	}
	st = waitState(t, m, st.ID, StateFailed)
	if n := calls.Load(); n != 1 {
		t.Fatalf("job ran its sweep %d times, want 1", n)
	}
	m.mu.Lock()
	jerr := m.jobs[st.ID].err
	m.mu.Unlock()
	var be *sim.MemoryBudgetError
	var pe *engine.PanicError
	if !errors.As(jerr, &be) || !errors.As(jerr, &pe) {
		t.Fatalf("job error %v (%T) does not resolve to a *sim.MemoryBudgetError inside an *engine.PanicError", jerr, jerr)
	}
	t.Log(jerr)
}

// smallestBudget returns the smallest max_bytes validation accepts for sc,
// by bisection over Validate.
func smallestBudget(sc sim.Scenario) int64 {
	lo, hi := int64(1), int64(1<<30)
	for lo < hi {
		sc.MaxBytes = lo + (hi-lo)/2
		if sc.Validate() == nil {
			hi = sc.MaxBytes
		} else {
			lo = sc.MaxBytes + 1
		}
	}
	return lo
}

// TestCancel pins both cancellation paths: a queued job leaves the queue
// without running; a running job's context is cancelled and it lands in
// cancelled, not failed.
func TestCancel(t *testing.T) {
	m := newTestManager(t, Config{MaxActiveJobs: 1, QueueLimit: 10, PerClientCap: 10})
	started := make(chan struct{}, 4)
	var ran sync.Map
	m.runSweep = func(ctx context.Context, sw sim.Sweep, sinks ...sim.RowSink) ([]sim.Row, error) {
		ran.Store(sw.Base.Seed, true)
		started <- struct{}{}
		<-ctx.Done()
		return nil, ctx.Err()
	}
	stRun, _, err := m.Submit("alice", testSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	<-started
	stQueued, _, err := m.Submit("alice", testSpec(2))
	if err != nil {
		t.Fatal(err)
	}

	if _, err := m.Cancel(stQueued.ID); err != nil {
		t.Fatal(err)
	}
	st := waitState(t, m, stQueued.ID, StateCancelled)
	if st.State != StateCancelled {
		t.Fatalf("queued job state %q after cancel", st.State)
	}

	if _, err := m.Cancel(stRun.ID); err != nil {
		t.Fatal(err)
	}
	waitState(t, m, stRun.ID, StateCancelled)
	if _, ok := ran.Load(uint64(2)); ok {
		t.Fatal("cancelled queued job still ran")
	}
	if _, err := m.Cancel("nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("cancelling unknown job: err = %v, want ErrNotFound", err)
	}
}

// TestDrain pins graceful drain: admissions stop with ErrDraining, running
// jobs finish, queued jobs stay persisted (recovered by the next manager on
// the same state dir).
func TestDrain(t *testing.T) {
	dir := t.TempDir()
	m, err := NewManager(Config{StateDir: dir, MaxActiveJobs: 1, QueueLimit: 10, PerClientCap: 10})
	if err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	started := make(chan struct{}, 4)
	m.runSweep = func(ctx context.Context, sw sim.Sweep, sinks ...sim.RowSink) ([]sim.Row, error) {
		started <- struct{}{}
		select {
		case <-release:
			return nil, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	stRun, _, err := m.Submit("alice", testSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	<-started
	stQueued, _, err := m.Submit("alice", testSpec(2))
	if err != nil {
		t.Fatal(err)
	}

	drained := make(chan error, 1)
	go func() { drained <- m.Drain(context.Background()) }()
	// Draining: new work is rejected, readiness reflects it.
	deadline := time.Now().Add(5 * time.Second)
	for !m.Draining() {
		if time.Now().After(deadline) {
			t.Fatal("manager never started draining")
		}
		time.Sleep(time.Millisecond)
	}
	if _, _, err := m.Submit("bob", testSpec(3)); !errors.Is(err, ErrDraining) {
		t.Fatalf("submission while draining: err = %v, want ErrDraining", err)
	}
	close(release) // let the running job finish
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	if st, _ := m.Status(stRun.ID); st.State != StateDone {
		t.Fatalf("running job state %q after graceful drain, want done", st.State)
	}
	// The queued job never started and survives on disk: a new manager on
	// the same state dir recovers it and runs it for real (the specs are
	// tiny simulations).
	m2 := newTestManager(t, Config{StateDir: dir, MaxActiveJobs: 1, QueueLimit: 10, PerClientCap: 10})
	waitState(t, m2, stQueued.ID, StateDone)
}

// TestAdmissionWriteDoesNotBlockRunningJobs pins that a new job's record
// write runs outside the manager lock: while one admission's write is
// stalled, a running job still streams rows and Status still answers, and
// the stalled submission is acknowledged only once its write completes.
func TestAdmissionWriteDoesNotBlockRunningJobs(t *testing.T) {
	m := newTestManager(t, Config{MaxActiveJobs: 1, QueueLimit: 10, PerClientCap: 10})
	writing := make(chan struct{})
	release := make(chan struct{})
	var writes atomic.Int32
	write := m.writeRecord
	m.writeRecord = func(path string, data []byte) error {
		if writes.Add(1) == 2 { // the second admission's record
			close(writing)
			<-release
		}
		return write(path, data)
	}
	emit := make(chan int)
	m.runSweep = func(ctx context.Context, sw sim.Sweep, sinks ...sim.RowSink) ([]sim.Row, error) {
		for {
			select {
			case p := <-emit:
				if err := sinks[0].WriteRow(sim.Row{Point: p}); err != nil {
					return nil, err
				}
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
	}
	running, _, err := m.Submit("alice", testSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, running.ID, StateRunning)

	admitted := make(chan error, 1)
	go func() {
		_, _, err := m.Submit("bob", testSpec(2))
		admitted <- err
	}()
	<-writing

	streamed := make(chan Status, 1)
	go func() {
		emit <- 0
		emit <- 1 // taken only after row 0's WriteRow returned
		st, err := m.Status(running.ID)
		if err != nil {
			t.Error(err)
		}
		streamed <- st
	}()
	select {
	case st := <-streamed:
		if st.Rows < 1 {
			t.Errorf("running job shows %d rows after streaming one", st.Rows)
		}
	case <-time.After(5 * time.Second):
		close(release)
		t.Fatal("a running job's rows and status stalled behind another job's record write")
	}
	select {
	case err := <-admitted:
		t.Fatalf("submission returned before its record write finished (err %v)", err)
	default:
	}
	close(release)
	if err := <-admitted; err != nil {
		t.Fatal(err)
	}
}

// TestScenarioSeedTooLarge pins the exactness guard on the wrapping seed
// axis.
func TestScenarioSeedTooLarge(t *testing.T) {
	m := newTestManager(t, Config{})
	spec := []byte(`{"topology": {"kind": "hypercube", "d": 3}, "p": 0.5, "load_factor": 0.5, "horizon": 200, "seed": 9007199254740993}`)
	if _, _, err := m.Submit("alice", spec); err == nil {
		t.Fatal("2^53+1 seed admitted; the wrapping axis would round it")
	}
}

// TestDoneJobReplaysFromJournal pins how a done job survives a restart:
// reaching done rewrites no record, and a second manager on the same state
// directory brings the job back done with byte-identical rows by replaying
// its complete journal — no simulation runs and Progress never fires.
func TestDoneJobReplaysFromJournal(t *testing.T) {
	dir := t.TempDir()
	m1 := newTestManager(t, Config{StateDir: dir})
	st, _, err := m1.Submit("alice", testSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m1, st.ID, StateDone)
	want, _, _, err := m1.watch(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if err := m1.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "jobs", st.ID+".json"))
	if err != nil {
		t.Fatal(err)
	}
	var rec record
	if err := json.Unmarshal(data, &rec); err != nil {
		t.Fatal(err)
	}
	if rec.State != StateQueued {
		t.Fatalf("record state on disk %q, want the admission record's %q", rec.State, StateQueued)
	}

	var runs, progress atomic.Int64
	m2 := newTestManager(t, Config{StateDir: dir, runSweep: func(ctx context.Context, sw sim.Sweep, sinks ...sim.RowSink) ([]sim.Row, error) {
		runs.Add(1)
		report := sw.Progress
		sw.Progress = func(done, total int) {
			progress.Add(1)
			report(done, total)
		}
		return sim.RunSweep(ctx, sw, sinks...)
	}})
	final := waitState(t, m2, st.ID, StateDone)
	got, _, _, err := m2.watch(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bytes.Join(got, nil), bytes.Join(want, nil)) {
		t.Fatalf("replayed rows differ:\n%s\nvs\n%s", bytes.Join(got, nil), bytes.Join(want, nil))
	}
	if final.Completed != final.Points || final.Rows != final.Points {
		t.Fatalf("replayed job = %+v, want every point completed and streamed", final)
	}
	if runs.Load() != 1 || progress.Load() != 0 {
		t.Fatalf("replay: %d runs, %d Progress calls; want 1 run and no Progress", runs.Load(), progress.Load())
	}
	if hits, misses, size := m2.CacheStats(); hits+misses != 0 || size != 0 {
		t.Fatalf("replay consulted the result cache (%d hits, %d misses, %d held): a point was dispatched", hits, misses, size)
	}
}

// TestAdmissionExpandsOnce pins that admitting a sweep expands it only once,
// inside LoadSpecData's validation. Expansions are counted by their
// allocations: beyond loading the spec, an admission must allocate less
// than half of one more expansion. The 40-point sweep makes one expansion
// outweigh the fingerprint, the spec encoding and the admission checks many
// times over. Resubmissions of a known spec are measured, so no job record
// is written while counting.
func TestAdmissionExpandsOnce(t *testing.T) {
	m := newTestManager(t, Config{})
	m.runSweep = func(ctx context.Context, sw sim.Sweep, sinks ...sim.RowSink) ([]sim.Row, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	}
	spec := []byte(`{
		"base": {"topology": {"kind": "hypercube", "d": 3}, "p": 0.5, "load_factor": 0.5, "horizon": 200},
		"axes": [{"field": "load_factor", "values": [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.85, 0.9]},
		         {"field": "seed", "values": [1, 2, 3, 4]}]
	}`)
	st, _, err := m.Submit("alice", spec)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, st.ID, StateRunning)
	_, sw, err := harness.LoadSpecData("spec", spec)
	if err != nil {
		t.Fatal(err)
	}
	load := testing.AllocsPerRun(5, func() { harness.LoadSpecData("spec", spec) })
	expand := testing.AllocsPerRun(5, func() { sw.ExpandRows() })
	submit := testing.AllocsPerRun(5, func() { m.Submit("alice", spec) })
	t.Logf("load %.0f, expand %.0f, submit %.0f allocs", load, expand, submit)
	if extra := submit - load; extra > expand/2 {
		t.Fatalf("admission allocates %.0f beyond loading the spec; one more expansion is %.0f: the sweep is expanded again", extra, expand)
	}

	// A scenario spec is still validated before it is wrapped and admitted.
	bad := []byte(`{"topology": {"kind": "hypercube", "d": 3}, "p": 0.5, "load_factor": -1, "horizon": 200}`)
	if _, _, err := m.Submit("alice", bad); err == nil {
		t.Fatal("invalid scenario admitted")
	}
}
