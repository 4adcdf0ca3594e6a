// Package cluster is the sweep coordinator for a fleet of simd workers: it
// shards a sweep's point range across workers over the daemon HTTP API,
// merges the returned row streams into one strictly point-ordered output,
// and fails over when a worker vanishes mid-shard.
//
// The contract is byte-identity: for the same spec and seed, the merged
// JSONL (or CSV) stream is identical to a single-machine `cmd/sweep -json`
// run, whatever the cluster shape — one worker, three workers, or a run
// where a worker was SIGKILL'd halfway through its shard. Three properties
// of the existing stack make that cheap to guarantee:
//
//   - Sweep expansion is deterministic and point-indexed, so a contiguous
//     shard is just the parent spec restricted by sim.PointRange — the
//     worker computes exactly the rows the coordinator expects, absolute
//     point indices included (seed splitting keys on the absolute index).
//   - Row JSON is canonical and Results round-trip bit-exactly, so the
//     coordinator re-renders every received row from its own expansion and
//     byte-compares it against the worker's line; any skew (version drift, a
//     miscomputed shard) is detected at merge time, not in the output.
//   - The sim checkpoint journal is spec-fingerprint-bound and fsync'd, so
//     the coordinator journals merged points under the PARENT spec: its
//     journal is interchangeable with a single-machine `cmd/sweep
//     -checkpoint` journal, and a crashed coordinator resumes
//     byte-identically — as does a `cmd/sweep` run handed the same journal.
//
// Shard identity rides on job identity: each shard is submitted as the
// parent spec plus a range, so its job fingerprint is derived from the
// parent fingerprint plus the shard bounds. Resubmitting a shard attaches
// to the worker's existing job instead of re-running it, and failover
// re-dispatches only the incomplete point suffix [first-missing, shard-end)
// to a surviving worker.
package cluster

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro/internal/jobs"
	"repro/sim"
)

// Config parameterizes a Coordinator. Workers is required; every other
// field's zero value gets a sensible default from New.
type Config struct {
	// Workers lists the simd base URLs (e.g. http://host:9621). Required.
	Workers []string
	// StateDir, when non-empty, holds the coordinator's crash-recovery
	// journal (<parent-fingerprint>.ckpt — the same format and binding as
	// cmd/sweep -checkpoint). Empty disables journaling: a coordinator crash
	// then restarts the sweep from scratch.
	StateDir string
	// Shards is the number of contiguous shards to partition the sweep
	// into. 0 defaults to len(Workers); it is further clamped to the point
	// count so no shard is empty.
	Shards int
	// Client is the X-Client identity submitted jobs carry (fair-share
	// scheduling on the workers keys on it). Default "simc".
	Client string
	// ShardAttempts bounds how many times one shard is (re-)dispatched
	// before the run fails. Default 4.
	ShardAttempts int
	// RetryBackoff is the wait before a shard's second attempt, doubling
	// per attempt. Default 250ms.
	RetryBackoff time.Duration
	// ProbeTimeout bounds each /healthz probe during worker selection.
	// Default 2s.
	ProbeTimeout time.Duration
	// HTTPClient issues all requests. Default: a client with no global
	// timeout (row streams are long-lived; probes get per-request
	// deadlines).
	HTTPClient *http.Client
	// Logf, when non-nil, receives operational log lines (shard placement,
	// failover, retries). Shards call it concurrently.
	Logf func(format string, args ...any)
	// Progress, when non-nil, is called after every merged point with
	// (done, total). Called under the merge lock; keep it fast.
	Progress func(done, total int)
}

// Coordinator shards sweeps across simd workers. One Coordinator is safe
// for sequential reuse; a single Run is internally concurrent.
type Coordinator struct {
	cfg Config

	mu       sync.Mutex
	assigned map[string]int // shards placed per worker this run (tie-break)
}

// New validates the config and returns a Coordinator.
func New(cfg Config) (*Coordinator, error) {
	if len(cfg.Workers) == 0 {
		return nil, errors.New("cluster: Config.Workers must list at least one simd base URL")
	}
	for i, w := range cfg.Workers {
		cfg.Workers[i] = strings.TrimRight(w, "/")
		if cfg.Workers[i] == "" {
			return nil, fmt.Errorf("cluster: worker %d: empty base URL", i)
		}
	}
	if cfg.Shards < 0 {
		return nil, fmt.Errorf("cluster: Config.Shards %d must be non-negative", cfg.Shards)
	}
	if cfg.Client == "" {
		cfg.Client = "simc"
	}
	if cfg.ShardAttempts <= 0 {
		cfg.ShardAttempts = 4
	}
	if cfg.RetryBackoff <= 0 {
		cfg.RetryBackoff = 250 * time.Millisecond
	}
	if cfg.ProbeTimeout <= 0 {
		cfg.ProbeTimeout = 2 * time.Second
	}
	if cfg.HTTPClient == nil {
		cfg.HTTPClient = &http.Client{}
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	return &Coordinator{cfg: cfg, assigned: map[string]int{}}, nil
}

// RowMismatchError reports a worker row whose bytes differ from the
// coordinator's own rendering of the same point — version skew between simc
// and simd, or a worker that computed a different shard than asked. It is
// fatal: retrying on another worker of the same build would reproduce it,
// and silently preferring either side would break the byte-identity
// contract.
type RowMismatchError struct {
	Worker string
	Point  int
	Got    string // the worker's line, without the trailing newline
	Want   string // the coordinator's rendering
}

// Error names the worker, the point and both renderings.
func (e *RowMismatchError) Error() string {
	return fmt.Sprintf("cluster: worker %s returned a row for point %d that differs from the coordinator's rendering (version skew?):\n  worker:      %s\n  coordinator: %s",
		e.Worker, e.Point, e.Got, e.Want)
}

// fatalError marks an error that must abort the whole run instead of
// triggering shard failover: spec rejection, row mismatch, a sink failure,
// a deterministic worker-side sweep failure.
type fatalError struct{ err error }

func (e *fatalError) Error() string { return e.err.Error() }
func (e *fatalError) Unwrap() error { return e.err }

// fatal wraps err as non-retryable.
func fatal(err error) error { return &fatalError{err: err} }

// runState is one Run's merge state: the parent expansion's skeleton rows,
// filled in as workers deliver results, flushed to the sinks as a strictly
// point-ordered prefix, and journaled point by point.
type runState struct {
	mu       sync.Mutex
	sw       sim.Sweep
	rows     []sim.Row
	journal  *sim.SweepJournal // nil when journaling is disabled
	sinks    []sim.RowSink
	flushed  int // rows streamed to the sinks (contiguous prefix)
	done     int // points merged (not necessarily contiguous)
	progress func(done, total int)
}

// firstMissing returns the lowest point in [start, end) with no result yet,
// or ok == false when the range is complete.
func (st *runState) firstMissing(start, end int) (int, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	for i := start; i < end; i++ {
		if st.rows[i].Result == nil {
			return i, true
		}
	}
	return 0, false
}

// merge records one delivered point: byte-verifies the worker's line
// against the coordinator's own rendering, journals the result, and flushes
// any newly contiguous prefix through the sinks. Duplicate deliveries (a
// failover re-dispatch overlapping a slow first stream) are verified and
// dropped.
func (st *runState) merge(worker string, point int, res *sim.Result, line []byte) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	row := st.rows[point]
	row.Result = res
	want, err := json.Marshal(row)
	if err != nil {
		return fatal(fmt.Errorf("cluster: rendering point %d: %w", point, err))
	}
	if !bytes.Equal(want, bytes.TrimSuffix(line, []byte("\n"))) {
		return fatal(&RowMismatchError{Worker: worker, Point: point, Got: string(bytes.TrimSuffix(line, []byte("\n"))), Want: string(want)})
	}
	if st.rows[point].Result != nil {
		return nil // duplicate delivery
	}
	if st.journal != nil {
		if err := st.journal.Record(point, res); err != nil {
			return fatal(fmt.Errorf("cluster: journaling point %d: %w", point, err))
		}
	}
	st.rows[point].Result = res
	st.done++
	if st.progress != nil {
		st.progress(st.done, len(st.rows))
	}
	return st.flushLocked()
}

// flushLocked streams the contiguous completed prefix to the sinks.
func (st *runState) flushLocked() error {
	for st.flushed < len(st.rows) && st.rows[st.flushed].Result != nil {
		for _, sink := range st.sinks {
			if err := sink.WriteRow(st.rows[st.flushed]); err != nil {
				return fatal(fmt.Errorf("cluster: writing row %d: %w", st.flushed, err))
			}
		}
		st.flushed++
	}
	return nil
}

// Run shards the sweep across the workers and streams the merged rows to
// the sinks, strictly in point order, byte-identical to a single-machine
// run. The spec must be the parent sweep — a spec already carrying a range
// is rejected, because shard ranges are derived here and shard identity
// must trace back to the parent fingerprint.
func (c *Coordinator) Run(ctx context.Context, sw sim.Sweep, sinks ...sim.RowSink) error {
	if sw.Range != nil {
		return errors.New("cluster: the sweep spec must not carry a range: shard ranges are derived by the coordinator")
	}
	rows, err := sw.ExpandRows()
	if err != nil {
		return err
	}
	n := len(rows)
	st := &runState{sw: sw, rows: rows, sinks: sinks, progress: c.cfg.Progress}

	if c.cfg.StateDir != "" {
		if err := os.MkdirAll(c.cfg.StateDir, 0o755); err != nil {
			return fmt.Errorf("cluster: creating state dir: %w", err)
		}
		fp, err := sw.Fingerprint()
		if err != nil {
			return err
		}
		j, err := sim.OpenSweepJournal(sw, filepath.Join(c.cfg.StateDir, fp+".ckpt"))
		if err != nil {
			return err
		}
		defer j.Close()
		st.journal = j
		if skipped := j.RecordsSkipped(); skipped > 0 {
			c.cfg.Logf("cluster: journal dropped %d unreadable records; those points re-run", skipped)
		}
		for i, res := range j.Restored() {
			if res != nil {
				st.rows[i].Result = res
				st.done++
			}
		}
		if st.done > 0 {
			c.cfg.Logf("cluster: resuming: %d/%d points journaled", st.done, n)
		}
	}
	st.mu.Lock()
	err = st.flushLocked()
	st.mu.Unlock()
	if err != nil {
		return errors.Unwrap(err)
	}
	if st.flushed == n {
		return nil // complete journal: replayed without any worker traffic
	}

	shards := c.cfg.Shards
	if shards == 0 {
		shards = len(c.cfg.Workers)
	}
	if shards > n {
		shards = n
	}
	c.mu.Lock()
	c.assigned = map[string]int{}
	c.mu.Unlock()

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	var wg sync.WaitGroup
	errCh := make(chan error, shards)
	for s := 0; s < shards; s++ {
		start, end := s*n/shards, (s+1)*n/shards
		wg.Add(1)
		go func(s, start, end int) {
			defer wg.Done()
			if err := c.runShard(runCtx, st, s, start, end); err != nil {
				errCh <- err
				cancel() // first failure stops the other shards
			}
		}(s, start, end)
	}
	wg.Wait()
	close(errCh)
	if err := <-errCh; err != nil {
		var fe *fatalError
		if errors.As(err, &fe) {
			return fe.err
		}
		return err
	}
	if st.flushed != n {
		return fmt.Errorf("cluster: internal error: %d of %d rows flushed after all shards completed", st.flushed, n)
	}
	return nil
}

// runShard drives one shard to completion: pick a worker, stream its rows,
// and on any retryable failure re-dispatch the incomplete suffix — to a
// different worker when one is available — with bounded doubling backoff.
func (c *Coordinator) runShard(ctx context.Context, st *runState, shard, start, end int) error {
	avoid := ""
	backoff := c.cfg.RetryBackoff
	for attempt := 1; ; attempt++ {
		miss, ok := st.firstMissing(start, end)
		if !ok {
			return nil
		}
		var rerr error
		worker, err := c.pickWorker(ctx, avoid)
		if err != nil {
			rerr = err
		} else {
			c.cfg.Logf("cluster: shard %d: dispatching points [%d, %d) to %s (attempt %d)", shard, miss, end, worker, attempt)
			rerr = c.streamShard(ctx, st, worker, miss, end)
			if rerr == nil {
				if _, missing := st.firstMissing(start, end); !missing {
					return nil
				}
				rerr = fmt.Errorf("cluster: worker %s closed the stream with shard %d incomplete", worker, shard)
			}
			avoid = worker
		}
		var fe *fatalError
		if errors.As(rerr, &fe) {
			return rerr
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if attempt >= c.cfg.ShardAttempts {
			return fmt.Errorf("cluster: shard %d (points [%d, %d)) failed after %d attempts: %w", shard, start, end, attempt, rerr)
		}
		c.cfg.Logf("cluster: shard %d attempt %d failed (%v); retrying in %v", shard, attempt, rerr, backoff)
		select {
		case <-time.After(backoff):
		case <-ctx.Done():
			return ctx.Err()
		}
		backoff *= 2
	}
}

// workerHealth is the slice of the simd /healthz document the placement
// probe reads.
type workerHealth struct {
	Queued   int  `json:"queued"`
	Active   int  `json:"active"`
	InFlight int  `json:"in_flight"`
	Draining bool `json:"draining"`
}

// pickWorker probes every worker's /healthz and returns the least-loaded
// reachable one (by in_flight, then by how many shards this run already
// placed on it, then by list order). A worker that just failed a shard
// (avoid) is penalized so failover prefers a different machine, but remains
// eligible when it is the only one alive. No reachable worker is a
// retryable error — the caller backs off and probes again.
func (c *Coordinator) pickWorker(ctx context.Context, avoid string) (string, error) {
	best, bestScore := "", 0
	for _, w := range c.cfg.Workers {
		h, err := c.probe(ctx, w)
		if err != nil {
			c.cfg.Logf("cluster: worker %s unreachable: %v", w, err)
			continue
		}
		if h.Draining {
			c.cfg.Logf("cluster: worker %s draining; skipping", w)
			continue
		}
		load := h.InFlight
		if load == 0 {
			load = h.Queued + h.Active // pre-gauge daemons
		}
		c.mu.Lock()
		score := load*2 + c.assigned[w]
		c.mu.Unlock()
		if w == avoid {
			score += 1 << 20
		}
		if best == "" || score < bestScore {
			best, bestScore = w, score
		}
	}
	if best == "" {
		return "", errors.New("cluster: no reachable worker")
	}
	c.mu.Lock()
	c.assigned[best]++
	c.mu.Unlock()
	return best, nil
}

// probe fetches one worker's /healthz under ProbeTimeout.
func (c *Coordinator) probe(ctx context.Context, worker string) (workerHealth, error) {
	pctx, cancel := context.WithTimeout(ctx, c.cfg.ProbeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(pctx, http.MethodGet, worker+"/healthz", nil)
	if err != nil {
		return workerHealth{}, err
	}
	resp, err := c.cfg.HTTPClient.Do(req)
	if err != nil {
		return workerHealth{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return workerHealth{}, fmt.Errorf("healthz = %d", resp.StatusCode)
	}
	var h workerHealth
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		return workerHealth{}, fmt.Errorf("decoding healthz: %w", err)
	}
	return h, nil
}

// wireRow is the slice of a worker row line the coordinator parses: the
// point index and the raw result. Everything else is verified by the byte
// comparison against the coordinator's own rendering.
type wireRow struct {
	Point  int             `json:"point"`
	Result json.RawMessage `json:"result"`
}

// maxRowLine bounds one row line read from a worker (a row is a few hundred
// bytes; the bound only guards against a misbehaving endpoint).
const maxRowLine = 1 << 20

// streamShard submits the suffix [start, end) of the parent sweep as a
// shard job on the worker and merges the streamed rows. It uses the async
// job API (submit + stream), NOT /v1/run: a run-stream's disconnect cancels
// the job terminally, which would make a coordinator hiccup poison the
// shard on that worker; a jobs-API disconnect leaves the job running, its
// rows ready for a cheap re-attach.
func (c *Coordinator) streamShard(ctx context.Context, st *runState, worker string, start, end int) error {
	shard := st.sw
	shard.Range = &sim.PointRange{Start: start, Count: end - start}
	spec, err := json.Marshal(shard)
	if err != nil {
		return fatal(fmt.Errorf("cluster: encoding shard spec: %w", err))
	}

	req, err := http.NewRequestWithContext(ctx, http.MethodPost, worker+"/v1/jobs", bytes.NewReader(spec))
	if err != nil {
		return fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Client", c.cfg.Client)
	resp, err := c.cfg.HTTPClient.Do(req)
	if err != nil {
		return fmt.Errorf("cluster: submitting shard to %s: %w", worker, err)
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, maxRowLine))
	resp.Body.Close()
	if err != nil {
		return fmt.Errorf("cluster: reading submit response from %s: %w", worker, err)
	}
	switch resp.StatusCode {
	case http.StatusOK, http.StatusAccepted:
	case http.StatusBadRequest:
		// The worker rejected the spec itself; another worker of the same
		// build would too.
		return fatal(fmt.Errorf("cluster: worker %s rejected the shard spec: %s", worker, strings.TrimSpace(string(body))))
	default:
		// Backpressure (429/503) and everything else: retryable.
		return fmt.Errorf("cluster: worker %s submit = %d: %s", worker, resp.StatusCode, strings.TrimSpace(string(body)))
	}
	var jst jobs.Status
	if err := json.Unmarshal(body, &jst); err != nil || jst.ID == "" {
		return fmt.Errorf("cluster: worker %s returned an unreadable job status: %v", worker, err)
	}

	req, err = http.NewRequestWithContext(ctx, http.MethodGet, worker+"/v1/jobs/"+jst.ID+"/rows", nil)
	if err != nil {
		return fatal(err)
	}
	resp, err = c.cfg.HTTPClient.Do(req)
	if err != nil {
		return fmt.Errorf("cluster: opening row stream on %s: %w", worker, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("cluster: worker %s rows = %d", worker, resp.StatusCode)
	}

	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64*1024), maxRowLine)
	expected := start
	for sc.Scan() {
		line := append(sc.Bytes(), '\n')
		var wr wireRow
		if err := json.Unmarshal(line, &wr); err != nil {
			// A torn line from a connection cut mid-row: retryable.
			return fmt.Errorf("cluster: worker %s sent an unparseable row line: %w", worker, err)
		}
		if wr.Point != expected {
			return fatal(fmt.Errorf("cluster: worker %s row stream out of order: got point %d, want %d", worker, wr.Point, expected))
		}
		res := new(sim.Result)
		if err := json.Unmarshal(wr.Result, res); err != nil {
			return fatal(fmt.Errorf("cluster: worker %s point %d: undecodable result: %w", worker, wr.Point, err))
		}
		if err := st.merge(worker, wr.Point, res, line); err != nil {
			return err
		}
		expected++
		if expected == end {
			return nil
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("cluster: reading rows from %s: %w", worker, err)
	}
	// The stream ended cleanly before delivering the whole shard: the job
	// reached a terminal state without producing every row. Ask why —
	// a failed job is deterministic (the sweep itself errors at some point)
	// and therefore fatal; anything else is retryable.
	if msg, terminalFailure := c.jobFailure(ctx, worker, jst.ID); terminalFailure {
		return fatal(fmt.Errorf("cluster: worker %s failed the shard: %s", worker, msg))
	}
	return fmt.Errorf("cluster: worker %s delivered %d of %d shard points", worker, expected-start, end-start)
}

// jobFailure asks the worker what became of a job whose stream ended early.
// It reports the failure message and whether the job failed deterministically.
func (c *Coordinator) jobFailure(ctx context.Context, worker, id string) (string, bool) {
	pctx, cancel := context.WithTimeout(ctx, c.cfg.ProbeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(pctx, http.MethodGet, worker+"/v1/jobs/"+id, nil)
	if err != nil {
		return "", false
	}
	resp, err := c.cfg.HTTPClient.Do(req)
	if err != nil {
		return "", false
	}
	defer resp.Body.Close()
	var jst jobs.Status
	if err := json.NewDecoder(resp.Body).Decode(&jst); err != nil {
		return "", false
	}
	if jst.State == jobs.StateFailed {
		return jst.Error, true
	}
	return "", false
}
