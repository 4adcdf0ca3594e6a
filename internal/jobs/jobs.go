// Package jobs is the daemon's job manager: it admits scenario and sweep
// specs as jobs, schedules them fairly across clients on one shared engine
// worker pool, and keeps every job crash-recoverable.
//
// The design composes the robustness primitives the sim package already
// provides rather than inventing new ones:
//
//   - Every job — a submitted scenario is wrapped into a one-point sweep — runs
//     through sim.RunSweep with a CheckpointPath journal under the state
//     directory, so a SIGKILL'd daemon restarts, rescans the journals, and
//     resumes incomplete jobs byte-identically (a row streams only once its
//     point's journal record is fsync'd).
//   - Job identity is the sweep's spec fingerprint (sim.Sweep.Fingerprint):
//     resubmitting a spec attaches to the existing job instead of re-running
//     it, and the journal header refuses to resume a different spec.
//   - All jobs draw their simulation slots from one engine.Pool, so a machine
//     serving many clients never runs more concurrent simulations than the
//     pool has slots, no matter how many jobs are in flight.
//   - Points that die with engine.PanicError are retried with bounded backoff;
//     the journal carries completed points across attempts, so a retry re-runs
//     only the poisoned point.
//   - A shared result cache keyed by scenario fingerprint (normalized spec +
//     seed) makes repeated points free across jobs and clients.
//
// Admission is bounded: a full queue rejects with ErrQueueFull (HTTP 503 +
// Retry-After), a client over its in-flight cap with ErrClientBusy (429), and
// a draining manager with ErrDraining (503). Scheduling is fair-share: one
// FIFO queue per client, drained round-robin, so a client that submits fifty
// sweeps cannot starve a client that submits one.
package jobs

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/atomicfile"
	"repro/internal/engine"
	"repro/internal/harness"
	"repro/sim"
)

// Job states. Queued and Running are non-terminal: a daemon killed while a
// job is in either state re-enqueues it on restart. Done jobs are also
// re-enqueued on restart — their journal is complete, so the "run" replays
// the row stream without executing a single simulation. That is why reaching
// Done writes nothing to disk: recovery would treat a done record exactly
// like the admission record already there. Failed and Cancelled are
// terminal and persisted: they are never re-run without an explicit
// resubmission after deleting the job.
const (
	StateQueued    = "queued"
	StateRunning   = "running"
	StateDone      = "done"
	StateFailed    = "failed"
	StateCancelled = "cancelled"
)

// Admission errors. The HTTP layer maps them to 503/429/503 with a
// Retry-After header.
var (
	// ErrQueueFull reports a full admission queue: the daemon is saturated
	// and sheds load instead of accepting unbounded work.
	ErrQueueFull = errors.New("jobs: admission queue full")
	// ErrClientBusy reports a client at its in-flight cap.
	ErrClientBusy = errors.New("jobs: client at its in-flight job cap")
	// ErrDraining reports a manager that has stopped admitting (SIGTERM).
	ErrDraining = errors.New("jobs: draining, not admitting new jobs")
)

// ErrNotFound reports an unknown job ID.
var ErrNotFound = errors.New("jobs: no such job")

// maxExactSeed is the largest seed a scenario job can carry: the wrapping
// seed axis stores the value as a float64, which is exact only up to 2^53.
const maxExactSeed = uint64(1) << 53

// Config parameterizes a Manager. The zero value of every field gets a
// sensible default from NewManager; only StateDir is required.
type Config struct {
	// StateDir is the root of the daemon's persistent state: job records
	// under jobs/, checkpoint journals under journals/. Required.
	StateDir string
	// Pool is the shared engine worker pool every job draws simulation
	// slots from. Defaults to a pool of GOMAXPROCS slots.
	Pool *engine.Pool
	// MaxActiveJobs bounds the number of jobs running concurrently
	// (their points interleave on the shared pool). Default 4.
	MaxActiveJobs int
	// QueueLimit bounds the total number of admitted-but-not-started jobs;
	// a full queue rejects with ErrQueueFull. Default 64.
	QueueLimit int
	// PerClientCap bounds one client's in-flight (queued + running) jobs;
	// at the cap a submission rejects with ErrClientBusy. Default 8.
	PerClientCap int
	// PointTimeout is the per-point wall-clock watchdog applied to every
	// job (sim.Sweep.PointTimeout). 0 disables it.
	PointTimeout time.Duration
	// JobTimeout is the whole-job deadline. 0 disables it.
	JobTimeout time.Duration
	// MaxRetries is how many times a job whose run dies with an
	// engine.PanicError is retried (the journal carries completed points
	// across attempts, so only the poisoned point re-runs). Default 2.
	MaxRetries int
	// RetryBackoff is the base backoff between retries, doubled per
	// attempt. Default 100ms.
	RetryBackoff time.Duration
	// CacheEntries bounds the shared result cache (distinct points held).
	// 0 defaults to 1024; negative disables caching.
	CacheEntries int
	// RetryAfter is the hint returned in the Retry-After header on 503/429
	// responses. Default 1s.
	RetryAfter time.Duration
	// Logf, when non-nil, receives operational log lines.
	Logf func(format string, args ...any)

	// runSweep, when non-nil, replaces sim.RunSweep for every job, recovered
	// ones included (tests observe or fake runs with it).
	runSweep func(ctx context.Context, sw sim.Sweep, sinks ...sim.RowSink) ([]sim.Row, error)
}

// Manager owns the job table, the per-client queues and the scheduler.
type Manager struct {
	cfg   Config
	cache *lruCache

	// runSweep executes one attempt of a job's sweep. It is sim.RunSweep in
	// production; tests swap in fakes to exercise scheduling, admission and
	// retry without running simulations.
	runSweep func(ctx context.Context, sw sim.Sweep, sinks ...sim.RowSink) ([]sim.Row, error)
	// writeRecord durably replaces a job record file. It is
	// atomicfile.WriteFile in production; tests swap in a fake to stall an
	// admission's record write.
	writeRecord func(path string, data []byte) error

	// baseCtx parents every job context; baseCancel is the hard stop used
	// when a drain deadline expires (jobs checkpoint at point granularity,
	// so a hard stop loses at most the points in flight).
	baseCtx    context.Context
	baseCancel context.CancelFunc

	// admitMu serialises admissions. It is taken before mu and held across
	// the new job's record write, during which mu is released.
	admitMu sync.Mutex

	mu       sync.Mutex
	jobs     map[string]*job
	queues   map[string][]*job // per-client FIFO of queued jobs
	ring     []string          // round-robin order over clients with queued work
	ringIdx  int
	queued   int // total queued across clients
	active   int // jobs currently running
	draining bool
	runWG    sync.WaitGroup
}

// job is one admitted spec. All mutable fields are guarded by Manager.mu.
type job struct {
	id        string
	client    string
	name      string // display label from the spec
	sweep     sim.Sweep
	specJSON  []byte // canonical wrapped-sweep JSON, as persisted
	points    int
	submitted int64 // unix seconds

	state          string
	completed      int      // points finished (journal-backed)
	attempts       int      // run attempts consumed
	recordsSkipped int      // unreadable journal records dropped on replay
	rows           [][]byte // serialized JSONL row lines, strictly point-ordered
	err            error

	cancel    context.CancelFunc // set while running
	cancelled bool               // true after an explicit cancel request
	notify    chan struct{}      // closed and replaced on every visible change
	done      chan struct{}      // closed on reaching a terminal state
}

// Status is the JSON status document of one job.
type Status struct {
	ID        string `json:"id"`
	Name      string `json:"name,omitempty"`
	Client    string `json:"client"`
	State     string `json:"state"`
	Points    int    `json:"points"`
	Completed int    `json:"completed"`
	Rows      int    `json:"rows"`
	Attempts  int    `json:"attempts,omitempty"`
	// Range is present on shard jobs: the sweep is restricted to this
	// absolute point range of its parent expansion (Points counts only the
	// range). The cluster coordinator submits such jobs.
	Range *sim.PointRange `json:"range,omitempty"`
	// RecordsSkipped counts unreadable journal records dropped during this
	// job's journal replay — a torn tail from a mid-write kill. The affected
	// points simply re-ran; a non-zero value after a clean shutdown points at
	// journal corruption.
	RecordsSkipped int    `json:"records_skipped,omitempty"`
	Error          string `json:"error,omitempty"`
	Submitted      int64  `json:"submitted_unix,omitempty"`
}

// record is the on-disk form of a job (jobs/<id>.json), written atomically
// and fsync'd. Only admission and the failed/cancelled transitions persist —
// the states recovery tells apart: a job that is "queued" on disk was
// admitted and not failed or cancelled, and recovery runs it (a done job's
// complete journal makes that run a replay).
type record struct {
	ID        string          `json:"id"`
	Client    string          `json:"client"`
	State     string          `json:"state"`
	Points    int             `json:"points"`
	Error     string          `json:"error,omitempty"`
	Submitted int64           `json:"submitted_unix"`
	Spec      json.RawMessage `json:"spec"`
}

// NewManager creates the state directory layout, recovers persisted jobs,
// and returns a manager ready to accept submissions. Recovered non-terminal
// jobs (and done jobs, whose complete journals replay for free) are
// re-enqueued in submission order under their original clients.
func NewManager(cfg Config) (*Manager, error) {
	if cfg.StateDir == "" {
		return nil, errors.New("jobs: Config.StateDir is required")
	}
	if cfg.Pool == nil {
		cfg.Pool = engine.NewPool(0)
	}
	if cfg.MaxActiveJobs <= 0 {
		cfg.MaxActiveJobs = 4
	}
	if cfg.QueueLimit <= 0 {
		cfg.QueueLimit = 64
	}
	if cfg.PerClientCap <= 0 {
		cfg.PerClientCap = 8
	}
	if cfg.MaxRetries < 0 {
		cfg.MaxRetries = 0
	} else if cfg.MaxRetries == 0 {
		cfg.MaxRetries = 2
	}
	if cfg.RetryBackoff <= 0 {
		cfg.RetryBackoff = 100 * time.Millisecond
	}
	if cfg.CacheEntries == 0 {
		cfg.CacheEntries = 1024
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = time.Second
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	if cfg.runSweep == nil {
		cfg.runSweep = sim.RunSweep
	}
	for _, sub := range []string{"jobs", "journals"} {
		if err := os.MkdirAll(filepath.Join(cfg.StateDir, sub), 0o755); err != nil {
			return nil, fmt.Errorf("jobs: creating state dir: %w", err)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	m := &Manager{
		cfg:         cfg,
		cache:       newLRUCache(cfg.CacheEntries),
		runSweep:    cfg.runSweep,
		writeRecord: atomicfile.WriteFile,
		baseCtx:     ctx,
		baseCancel:  cancel,
		jobs:        map[string]*job{},
		queues:      map[string][]*job{},
	}
	if err := m.recover(); err != nil {
		cancel()
		return nil, err
	}
	return m, nil
}

// recover rescans persisted job records and re-enqueues every job that still
// has work (or a free replay) to do. Records that no longer validate — a
// spec schema change across versions, a corrupt file — are skipped with a
// log line rather than failing startup: one bad record must not take the
// daemon down.
func (m *Manager) recover() error {
	dir := filepath.Join(m.cfg.StateDir, "jobs")
	entries, err := os.ReadDir(dir)
	if err != nil {
		return fmt.Errorf("jobs: scanning state dir: %w", err)
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".json") {
			names = append(names, e.Name())
		}
	}
	var recs []record
	for _, name := range names {
		path := filepath.Join(dir, name)
		data, err := os.ReadFile(path)
		if err != nil {
			m.cfg.Logf("jobs: skipping unreadable record %s: %v", path, err)
			continue
		}
		var rec record
		if err := json.Unmarshal(data, &rec); err != nil {
			m.cfg.Logf("jobs: skipping corrupt record %s: %v", path, err)
			continue
		}
		recs = append(recs, rec)
	}
	// Re-enqueue in original submission order so recovery preserves each
	// client's FIFO.
	sort.Slice(recs, func(i, j int) bool {
		if recs[i].Submitted != recs[j].Submitted {
			return recs[i].Submitted < recs[j].Submitted
		}
		return recs[i].ID < recs[j].ID
	})
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, rec := range recs {
		var sw sim.Sweep
		if err := json.Unmarshal(rec.Spec, &sw); err != nil {
			m.cfg.Logf("jobs: skipping record %s: undecodable spec: %v", rec.ID, err)
			continue
		}
		if err := sw.Validate(); err != nil {
			m.cfg.Logf("jobs: skipping record %s: spec no longer validates: %v", rec.ID, err)
			continue
		}
		fp, err := sw.Fingerprint()
		if err != nil || fp != rec.ID {
			m.cfg.Logf("jobs: skipping record %s: fingerprint mismatch (%s)", rec.ID, fp)
			continue
		}
		j := &job{
			id:        rec.ID,
			client:    rec.Client,
			name:      sw.Name,
			sweep:     sw,
			specJSON:  append([]byte(nil), rec.Spec...),
			points:    rec.Points,
			submitted: rec.Submitted,
			state:     rec.State,
			notify:    make(chan struct{}),
			done:      make(chan struct{}),
		}
		m.jobs[j.id] = j
		switch rec.State {
		case StateFailed, StateCancelled:
			// Terminal: keep the record visible, never re-run.
			if rec.Error != "" {
				j.err = errors.New(rec.Error)
			}
			close(j.done)
		default:
			// Queued, running or done: (re)enqueue. Done jobs replay their
			// complete journal without running a simulation, repopulating
			// the in-memory row stream.
			j.state = StateQueued
			m.enqueueLocked(j)
			m.cfg.Logf("jobs: recovered job %s (%s, client %s)", shortID(j.id), rec.State, j.client)
		}
	}
	m.scheduleLocked()
	return nil
}

// Submit admits a raw spec (a scenario object or a sweep object, exactly the
// schema spec files use) for the given client. It returns the job — the
// existing one if the same spec is already known (created == false) — or an
// admission/validation error.
func (m *Manager) Submit(client string, spec []byte) (st Status, created bool, err error) {
	scs, sw, err := harness.LoadSpecData("request body", spec)
	if err != nil {
		return Status{}, false, err
	}
	if sw == nil {
		if len(scs) != 1 {
			return Status{}, false, fmt.Errorf("jobs: submit one scenario or one sweep per job (got %d scenarios)", len(scs))
		}
		wrapped, err := wrapScenario(scs[0])
		if err != nil {
			return Status{}, false, err
		}
		sw = &wrapped
	}
	return m.submitSweep(client, *sw)
}

// wrapScenario lifts a scenario into a one-point sweep (a seed axis pinned
// to the scenario's own seed), so every job — scenario or sweep — shares the
// journaling, caching and row-streaming machinery. submitSweep's expansion
// validates the result.
func wrapScenario(sc sim.Scenario) (sim.Sweep, error) {
	if sc.Seed > maxExactSeed {
		return sim.Sweep{}, fmt.Errorf("jobs: scenario seed %d exceeds 2^53 and cannot be represented exactly in a sweep axis; pick a smaller seed", sc.Seed)
	}
	return sim.Sweep{
		Name: sc.Name,
		Base: sc,
		Axes: []sim.Axis{{Field: "seed", Values: []sim.Value{sim.Num(float64(sc.Seed))}}},
	}, nil
}

// submitSweep admits a sweep under the client's queue; the sweep is
// validated by its expansion here.
func (m *Manager) submitSweep(client string, sw sim.Sweep) (Status, bool, error) {
	if client == "" {
		client = "anonymous"
	}
	id, err := sw.Fingerprint()
	if err != nil {
		return Status{}, false, err
	}
	pts, err := sw.Expand()
	if err != nil {
		return Status{}, false, err
	}
	specJSON, err := json.Marshal(sw)
	if err != nil {
		return Status{}, false, err
	}

	// The checks run under mu, which is then dropped for the record write
	// (a temp file, two fsyncs and a rename) so running jobs keep streaming
	// rows and answering status calls meanwhile. admitMu keeps the checks
	// valid until the job is inserted: no other admission can add a job in
	// between, and nothing removes one. The job is acknowledged only once
	// its record is durable.
	m.admitMu.Lock()
	defer m.admitMu.Unlock()
	m.mu.Lock()
	existing, err := m.admissionLocked(id, client)
	var st Status
	if existing != nil {
		st = m.statusLocked(existing)
	}
	m.mu.Unlock()
	if existing != nil || err != nil {
		return st, false, err
	}

	j := &job{
		id:        id,
		client:    client,
		name:      sw.Name,
		sweep:     sw,
		specJSON:  specJSON,
		points:    len(pts),
		submitted: time.Now().Unix(),
		state:     StateQueued,
		notify:    make(chan struct{}),
		done:      make(chan struct{}),
	}
	if err := m.persist(j); err != nil {
		return Status{}, false, fmt.Errorf("jobs: persisting job record: %w", err)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	// A drain that began during the write leaves the job queued: like every
	// queued job of a draining manager, it is persisted and the next boot
	// runs it.
	m.jobs[id] = j
	m.enqueueLocked(j)
	m.cfg.Logf("jobs: admitted job %s (%d points, client %s)", shortID(id), j.points, client)
	m.scheduleLocked()
	return m.statusLocked(j), true, nil
}

// admissionLocked returns the existing job for an idempotent resubmission
// of the same spec, or the error that refuses a new job: a draining
// manager, the client's in-flight cap or the queue limit.
func (m *Manager) admissionLocked(id, client string) (*job, error) {
	if j, ok := m.jobs[id]; ok {
		return j, nil
	}
	if m.draining {
		return nil, ErrDraining
	}
	inFlight := 0
	for _, j := range m.jobs {
		if j.client == client && (j.state == StateQueued || j.state == StateRunning) {
			inFlight++
		}
	}
	if inFlight >= m.cfg.PerClientCap {
		return nil, fmt.Errorf("%w (%d in flight)", ErrClientBusy, inFlight)
	}
	if m.queued >= m.cfg.QueueLimit {
		return nil, fmt.Errorf("%w (%d queued)", ErrQueueFull, m.queued)
	}
	return nil, nil
}

// enqueueLocked appends the job to its client's FIFO and registers the
// client in the round-robin ring.
func (m *Manager) enqueueLocked(j *job) {
	if _, ok := m.queues[j.client]; !ok {
		m.ring = append(m.ring, j.client)
	}
	m.queues[j.client] = append(m.queues[j.client], j)
	m.queued++
}

// nextQueuedLocked pops the next job in fair-share order: clients take turns
// (round-robin over the ring), each yielding the head of its FIFO.
func (m *Manager) nextQueuedLocked() *job {
	for len(m.ring) > 0 {
		if m.ringIdx >= len(m.ring) {
			m.ringIdx = 0
		}
		client := m.ring[m.ringIdx]
		q := m.queues[client]
		if len(q) == 0 {
			delete(m.queues, client)
			m.ring = append(m.ring[:m.ringIdx], m.ring[m.ringIdx+1:]...)
			continue
		}
		j := q[0]
		if len(q) == 1 {
			delete(m.queues, client)
			m.ring = append(m.ring[:m.ringIdx], m.ring[m.ringIdx+1:]...)
		} else {
			m.queues[client] = q[1:]
			m.ringIdx++
		}
		m.queued--
		return j
	}
	return nil
}

// scheduleLocked starts queued jobs while active slots remain. A draining
// manager starts nothing: queued jobs stay persisted for the next boot.
func (m *Manager) scheduleLocked() {
	if m.draining {
		return
	}
	for m.active < m.cfg.MaxActiveJobs {
		j := m.nextQueuedLocked()
		if j == nil {
			return
		}
		m.active++
		j.state = StateRunning
		ctx, cancel := context.WithCancel(m.baseCtx)
		j.cancel = cancel
		m.changedLocked(j)
		m.runWG.Add(1)
		go m.runJob(ctx, j)
	}
}

// changedLocked wakes every watcher of the job.
func (m *Manager) changedLocked(j *job) {
	close(j.notify)
	j.notify = make(chan struct{})
}

// jobSink receives a running sweep's rows (strictly in point order) and
// appends their serialized JSONL lines to the job's row buffer. A retry
// attempt resumes from the journal and re-streams the completed prefix; rows
// the buffer already holds are skipped — valid because the stream is
// strictly point-ordered and byte-identical across attempts.
type jobSink struct {
	m *Manager
	j *job
}

// WriteRow implements sim.RowSink.
func (s *jobSink) WriteRow(r sim.Row) error {
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	s.m.mu.Lock()
	defer s.m.mu.Unlock()
	// Row.Point is absolute to the parent expansion; a shard job's buffer
	// index is local to its range.
	idx := r.Point
	if s.j.sweep.Range != nil {
		idx -= s.j.sweep.Range.Start
	}
	if idx < len(s.j.rows) {
		return nil // re-streamed by a retry's journal replay
	}
	if idx != len(s.j.rows) {
		return fmt.Errorf("jobs: row stream out of order: got point %d, want %d", idx, len(s.j.rows))
	}
	s.j.rows = append(s.j.rows, append(line, '\n'))
	s.m.changedLocked(s.j)
	return nil
}

// runJob executes one job to a terminal state (or to daemon shutdown, which
// leaves its record non-terminal for the next boot to resume).
func (m *Manager) runJob(ctx context.Context, j *job) {
	defer m.runWG.Done()
	sw := j.sweep
	sw.Pool = m.cfg.Pool
	sw.Cache = m.cache
	sw.DiscardResults = true
	sw.CheckpointPath = m.journalPath(j.id)
	if m.cfg.PointTimeout > 0 {
		sw.PointTimeout = m.cfg.PointTimeout
	}
	sw.Progress = func(done, total int) {
		m.mu.Lock()
		j.completed = done
		m.changedLocked(j)
		m.mu.Unlock()
	}
	jctx, jcancel := ctx, context.CancelFunc(func() {})
	if m.cfg.JobTimeout > 0 {
		jctx, jcancel = context.WithTimeout(ctx, m.cfg.JobTimeout)
	}
	defer jcancel()

	// Count what the journal replay is about to drop (a torn tail from a
	// mid-write kill) before RunSweep's open compacts it away, so the job
	// status can surface it instead of only logging.
	if info, err := sim.ScanCheckpoint(sw.CheckpointPath); err == nil && info.RecordsSkipped > 0 {
		m.mu.Lock()
		j.recordsSkipped = info.RecordsSkipped
		m.changedLocked(j)
		m.mu.Unlock()
		m.cfg.Logf("jobs: job %s journal dropped %d unreadable records; those points re-run",
			shortID(j.id), info.RecordsSkipped)
	}

	sink := &jobSink{m: m, j: j}
	var err error
	for attempt := 1; ; attempt++ {
		m.mu.Lock()
		j.attempts = attempt
		m.mu.Unlock()
		_, err = m.runSweep(jctx, sw, sink)
		var pe *engine.PanicError
		if err == nil || !errors.As(err, &pe) || attempt > m.cfg.MaxRetries || jctx.Err() != nil {
			break
		}
		backoff := m.cfg.RetryBackoff << (attempt - 1)
		m.cfg.Logf("jobs: job %s attempt %d died with a panic (%v); retrying in %v",
			shortID(j.id), attempt, err, backoff)
		select {
		case <-time.After(backoff):
		case <-jctx.Done():
			err = jctx.Err()
		}
		if jctx.Err() != nil {
			break
		}
	}
	m.finishJob(j, jctx, err)
}

// finishJob records the job's terminal state (or leaves it resumable when
// the daemon itself is shutting down) and frees its scheduler slot. Only
// failed and cancelled are written to disk; see the state constants.
func (m *Manager) finishJob(j *job, jctx context.Context, err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.active--
	j.cancel = nil
	shuttingDown := m.baseCtx.Err() != nil && !j.cancelled
	switch {
	case shuttingDown:
		// Hard stop during drain: the journal holds every completed point
		// and the record stays non-terminal, so the next boot resumes the
		// job exactly where it left off. No terminal transition here.
		j.state = StateQueued
		m.cfg.Logf("jobs: job %s checkpointed for restart (%d/%d points)", shortID(j.id), j.completed, j.points)
	case err == nil:
		j.state = StateDone
		j.completed = j.points
		m.cfg.Logf("jobs: job %s done (%d points, %d attempts)", shortID(j.id), j.points, j.attempts)
	case j.cancelled:
		j.state = StateCancelled
		j.err = err
		m.cfg.Logf("jobs: job %s cancelled", shortID(j.id))
	default:
		j.state = StateFailed
		j.err = err
		m.cfg.Logf("jobs: job %s failed: %v", shortID(j.id), err)
	}
	if j.state == StateFailed || j.state == StateCancelled {
		if perr := m.persist(j); perr != nil {
			m.cfg.Logf("jobs: persisting job %s record: %v", shortID(j.id), perr)
		}
	}
	if j.state != StateQueued {
		close(j.done)
	}
	m.changedLocked(j)
	m.scheduleLocked()
}

// Cancel cancels a job: a queued job is removed from its client's queue, a
// running one has its context cancelled (it stops at the next point
// boundary, journal intact). Terminal jobs are left untouched.
func (m *Manager) Cancel(id string) (Status, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return Status{}, ErrNotFound
	}
	switch j.state {
	case StateQueued:
		q := m.queues[j.client]
		for i, qj := range q {
			if qj == j {
				m.queues[j.client] = append(q[:i:i], q[i+1:]...)
				m.queued--
				break
			}
		}
		j.cancelled = true
		j.state = StateCancelled
		if err := m.persist(j); err != nil {
			m.cfg.Logf("jobs: persisting job %s record: %v", shortID(j.id), err)
		}
		close(j.done)
		m.changedLocked(j)
	case StateRunning:
		j.cancelled = true
		if j.cancel != nil {
			j.cancel()
		}
	}
	return m.statusLocked(j), nil
}

// Status returns one job's status document.
func (m *Manager) Status(id string) (Status, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return Status{}, ErrNotFound
	}
	return m.statusLocked(j), nil
}

// List returns every job's status, newest submission first.
func (m *Manager) List() []Status {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]Status, 0, len(m.jobs))
	for _, j := range m.jobs {
		out = append(out, m.statusLocked(j))
	}
	sort.Slice(out, func(i, k int) bool {
		if out[i].Submitted != out[k].Submitted {
			return out[i].Submitted > out[k].Submitted
		}
		return out[i].ID < out[k].ID
	})
	return out
}

func (m *Manager) statusLocked(j *job) Status {
	st := Status{
		ID:             j.id,
		Name:           j.name,
		Client:         j.client,
		State:          j.state,
		Points:         j.points,
		Completed:      j.completed,
		Rows:           len(j.rows),
		Attempts:       j.attempts,
		RecordsSkipped: j.recordsSkipped,
		Submitted:      j.submitted,
	}
	if j.sweep.Range != nil {
		r := *j.sweep.Range
		st.Range = &r
	}
	if j.err != nil {
		st.Error = j.err.Error()
	}
	return st
}

// watch returns the job's current row count, state and change channel; the
// channel closes on the next visible change. Callers loop: consume rows up
// to the count, then select on the channel and their own context.
func (m *Manager) watch(id string) (rows [][]byte, st Status, changed <-chan struct{}, err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return nil, Status{}, nil, ErrNotFound
	}
	return j.rows, m.statusLocked(j), j.notify, nil
}

// Draining reports whether the manager has stopped admitting.
func (m *Manager) Draining() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.draining
}

// Counts returns the queued and active job counts (for health reporting).
func (m *Manager) Counts() (queued, active int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.queued, m.active
}

// CacheStats returns the shared result cache's hit/miss counters and size.
func (m *Manager) CacheStats() (hits, misses int64, size int) {
	return m.cache.stats()
}

// PoolWorkers reports the shared engine pool's slot count (for health
// reporting: it bounds how many simulations run concurrently).
func (m *Manager) PoolWorkers() int {
	return m.cfg.Pool.Workers()
}

// Drain stops admitting and starting jobs, then waits for running jobs to
// finish. If ctx expires first, every remaining job is hard-stopped — each
// checkpoints at point granularity and its record stays non-terminal, so the
// next boot resumes it. Drain returns nil when all jobs finished, or ctx's
// error after a forced stop.
func (m *Manager) Drain(ctx context.Context) error {
	m.mu.Lock()
	m.draining = true
	m.mu.Unlock()

	finished := make(chan struct{})
	go func() {
		m.runWG.Wait()
		close(finished)
	}()
	select {
	case <-finished:
		return nil
	case <-ctx.Done():
		m.baseCancel()
		<-finished
		return ctx.Err()
	}
}

// persist writes the job's record atomically (write + fsync + rename +
// directory fsync), so a record survives the same kills the journal does.
// It reads j's fields, so callers hold mu, except submitSweep, which calls
// it before any other goroutine can see j.
func (m *Manager) persist(j *job) error {
	rec := record{
		ID:        j.id,
		Client:    j.client,
		State:     j.state,
		Points:    j.points,
		Submitted: j.submitted,
		Spec:      j.specJSON,
	}
	if j.err != nil {
		rec.Error = j.err.Error()
	}
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	return m.writeRecord(filepath.Join(m.cfg.StateDir, "jobs", j.id+".json"), append(data, '\n'))
}

// journalPath is the job's checkpoint journal location.
func (m *Manager) journalPath(id string) string {
	return filepath.Join(m.cfg.StateDir, "journals", id+".ckpt")
}

// shortID abbreviates a fingerprint for log lines.
func shortID(id string) string {
	if len(id) > 12 {
		return id[:12]
	}
	return id
}

// RetryAfterSeconds is the Retry-After value for backpressure responses,
// rounded up to at least one second.
func (m *Manager) RetryAfterSeconds() int {
	return int(math.Ceil(m.cfg.RetryAfter.Seconds()))
}
