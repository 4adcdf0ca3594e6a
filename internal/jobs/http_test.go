package jobs

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/harness"
	"repro/sim"
)

// e2eSpec is the real sweep the HTTP tests run end to end: 4 points, a few
// milliseconds each.
const e2eSpec = `{
	"name": "e2e",
	"base": {"topology": {"kind": "hypercube", "d": 3}, "p": 0.5, "load_factor": 0.6, "horizon": 300, "seed": 9, "replications": 2},
	"axes": [{"field": "arc_fail_prob", "values": [0, 0.05]}, {"field": "d", "values": [3, 4]}]
}`

// e2eWantJSONL runs the same sweep in-process and returns its JSONL rows —
// the bytes every daemon path must reproduce.
func e2eWantJSONL(t *testing.T) string {
	t.Helper()
	_, sw, err := harness.LoadSpecData("e2e spec", []byte(e2eSpec))
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if _, err := sim.RunSweep(context.Background(), *sw, sim.NewJSONLSink(&out)); err != nil {
		t.Fatal(err)
	}
	return out.String()
}

// TestDaemonEndToEnd drives the full HTTP surface with real simulations:
// submit, watch status, stream rows (byte-identical to an in-process run),
// idempotent resubmission, health and readiness.
func TestDaemonEndToEnd(t *testing.T) {
	want := e2eWantJSONL(t)
	m := newTestManager(t, Config{})
	srv := httptest.NewServer(m.Handler())
	defer srv.Close()

	// healthz/readyz before any work.
	for _, path := range []string{"/healthz", "/readyz"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s = %d, want 200", path, resp.StatusCode)
		}
	}

	// Submit.
	resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", strings.NewReader(e2eSpec))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("submit = %d: %s", resp.StatusCode, body)
	}
	var st Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.Points != 4 || st.ID == "" {
		t.Fatalf("submit status = %+v", st)
	}

	// Stream rows; blocks until the job is done.
	resp, err = http.Get(srv.URL + "/v1/jobs/" + st.ID + "/rows")
	if err != nil {
		t.Fatal(err)
	}
	rows, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if string(rows) != want {
		t.Fatalf("streamed rows differ from in-process run:\n%s\nvs\n%s", rows, want)
	}

	// Resubmitting the same spec attaches: 200, same ID, no second run.
	resp, err = http.Post(srv.URL+"/v1/jobs", "application/json", strings.NewReader(e2eSpec))
	if err != nil {
		t.Fatal(err)
	}
	var again Status
	if err := json.NewDecoder(resp.Body).Decode(&again); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || again.ID != st.ID {
		t.Fatalf("resubmit = %d id %s, want 200 id %s", resp.StatusCode, again.ID, st.ID)
	}

	// Status document and watch stream both report done.
	resp, err = http.Get(srv.URL + "/v1/jobs/" + st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&again); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if again.State != StateDone || again.Rows != 4 {
		t.Fatalf("status = %+v, want done with 4 rows", again)
	}
	resp, err = http.Get(srv.URL + "/v1/jobs/" + st.ID + "?watch=1")
	if err != nil {
		t.Fatal(err)
	}
	var lastLine string
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		lastLine = sc.Text()
	}
	resp.Body.Close()
	if !strings.Contains(lastLine, `"state": "done"`) && !strings.Contains(lastLine, `"state":"done"`) {
		t.Fatalf("watch stream ended with %q, want a done status", lastLine)
	}

	// The list includes the job; unknown IDs 404.
	resp, err = http.Get(srv.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var list []Status
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(list) != 1 || list[0].ID != st.ID {
		t.Fatalf("list = %+v", list)
	}
	resp, err = http.Get(srv.URL + "/v1/jobs/doesnotexist")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job = %d, want 404", resp.StatusCode)
	}
}

// TestDaemonRunSyncScenario pins the synchronous path and scenario wrapping:
// POST /v1/run with a single scenario streams exactly the one-point sweep's
// row.
func TestDaemonRunSyncScenario(t *testing.T) {
	m := newTestManager(t, Config{})
	srv := httptest.NewServer(m.Handler())
	defer srv.Close()

	scenario := `{"topology": {"kind": "hypercube", "d": 3}, "p": 0.5, "load_factor": 0.5, "horizon": 300, "seed": 7}`
	resp, err := http.Post(srv.URL+"/v1/run", "application/json", strings.NewReader(scenario))
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(body), "\n"), "\n")
	if len(lines) != 1 {
		t.Fatalf("scenario job streamed %d rows, want 1:\n%s", len(lines), body)
	}
	var row struct {
		Point  int `json:"point"`
		Axes   map[string]any
		Result map[string]any `json:"result"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &row); err != nil {
		t.Fatalf("row line %q: %v", lines[0], err)
	}
	if row.Result == nil {
		t.Fatal("row carries no result")
	}
	if resp.Header.Get("X-Job-Id") == "" {
		t.Fatal("sync run response lacks the X-Job-Id header")
	}
}

// TestDaemonBackpressureHTTP pins the acceptance criterion at the wire: a
// full admission queue answers 503 with a Retry-After header; a client over
// its cap answers 429 with Retry-After.
func TestDaemonBackpressureHTTP(t *testing.T) {
	m := newTestManager(t, Config{MaxActiveJobs: 1, QueueLimit: 1, PerClientCap: 10})
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
	srv := httptest.NewServer(m.Handler())
	defer srv.Close()

	post := func(client string, seed int) *http.Response {
		req, err := http.NewRequest("POST", srv.URL+"/v1/jobs", strings.NewReader(string(testSpec(seed))))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("X-Client", client)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	// 1 running + 1 queued = full.
	for seed := 0; seed < 2; seed++ {
		resp := post("alice", seed)
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d = %d, want 202", seed, resp.StatusCode)
		}
	}
	resp := post("bob", 99)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("over-full submit = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") != "1" {
		t.Fatalf("503 Retry-After = %q, want \"1\"", resp.Header.Get("Retry-After"))
	}

	// Per-client cap → 429 + Retry-After.
	m2 := newTestManager(t, Config{MaxActiveJobs: 1, QueueLimit: 10, PerClientCap: 1})
	m2.runSweep = m.runSweep
	srv2 := httptest.NewServer(m2.Handler())
	defer srv2.Close()
	req, _ := http.NewRequest("POST", srv2.URL+"/v1/jobs", strings.NewReader(string(testSpec(0))))
	req.Header.Set("X-Client", "carol")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	req, _ = http.NewRequest("POST", srv2.URL+"/v1/jobs", strings.NewReader(string(testSpec(1))))
	req.Header.Set("X-Client", "carol")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-cap submit = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}

	// A malformed spec is a 400, not a 5xx.
	resp, err = http.Post(srv.URL+"/v1/jobs", "application/json", strings.NewReader(`{"axes": [], "nonsense": 1}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed spec = %d, want 400", resp.StatusCode)
	}
}

// TestDaemonCrashRecoveryByteIdentical is the acceptance criterion: a
// daemon hard-stopped mid-job (state dir left exactly as a SIGKILL would —
// fsync'd journal prefix, non-terminal record) restarts, resumes the job,
// and streams rows byte-identical to an uninterrupted run.
func TestDaemonCrashRecoveryByteIdentical(t *testing.T) {
	want := e2eWantJSONL(t)
	dir := t.TempDir()

	// First incarnation: start the job, wait for at least one journaled
	// point, then hard-stop (Drain with an expired context cancels every
	// job context immediately — from the state dir's point of view this is
	// indistinguishable from a kill between two journal appends).
	m1, err := NewManager(Config{StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	st, created, err := m1.Submit("alice", []byte(e2eSpec))
	if err != nil || !created {
		t.Fatalf("submit: created=%v err=%v", created, err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		cur, err := m1.Status(st.ID)
		if err != nil {
			t.Fatal(err)
		}
		if cur.Completed >= 1 {
			break
		}
		if cur.State == StateDone {
			break // too fast to interrupt; recovery still exercises replay
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never completed a point (%+v)", cur)
		}
		time.Sleep(time.Millisecond)
	}
	expired, cancel := context.WithCancel(context.Background())
	cancel()
	m1.Drain(expired) // hard stop

	// Second incarnation on the same state dir: the job is recovered,
	// resumed from the journal, and its full row stream is byte-identical.
	m2 := newTestManager(t, Config{StateDir: dir})
	srv := httptest.NewServer(m2.Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/v1/jobs/" + st.ID + "/rows")
	if err != nil {
		t.Fatal(err)
	}
	rows, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if string(rows) != want {
		t.Fatalf("recovered rows differ from uninterrupted run:\n%s\nvs\n%s", rows, want)
	}
	final, err := m2.Status(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateDone || final.Rows != 4 {
		t.Fatalf("recovered job = %+v, want done with 4 rows", final)
	}
}

// TestDaemonDisconnectCancelsSyncJob pins client-disconnect detection: a
// /v1/run client that goes away cancels the job it created.
func TestDaemonDisconnectCancelsSyncJob(t *testing.T) {
	m := newTestManager(t, Config{})
	started := make(chan struct{})
	m.runSweep = func(ctx context.Context, sw sim.Sweep, sinks ...sim.RowSink) ([]sim.Row, error) {
		close(started)
		<-ctx.Done()
		return nil, ctx.Err()
	}
	srv := httptest.NewServer(m.Handler())
	defer srv.Close()

	reqCtx, cancelReq := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(reqCtx, "POST", srv.URL+"/v1/run", strings.NewReader(string(testSpec(1))))
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		errc <- err
	}()
	<-started
	cancelReq() // client disconnects mid-stream
	<-errc

	// The job lands in cancelled.
	deadline := time.Now().Add(10 * time.Second)
	for {
		list := m.List()
		if len(list) == 1 && list[0].State == StateCancelled {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never cancelled after disconnect: %+v", list)
		}
		time.Sleep(2 * time.Millisecond)
	}
}
