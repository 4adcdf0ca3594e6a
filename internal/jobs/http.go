package jobs

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
)

// maxSpecBytes bounds a submitted spec body. Real specs are a few KB; the
// limit keeps a misbehaving client from buffering gigabytes into the daemon.
const maxSpecBytes = 1 << 20

// Handler returns the daemon's HTTP API:
//
//	POST   /v1/jobs           submit a spec (scenario or sweep JSON); 202 on
//	                          create, 200 if the same spec is already known
//	GET    /v1/jobs           list all jobs (JSON array of status documents)
//	GET    /v1/jobs/{id}      one job's status; ?watch=1 streams a status
//	                          line per change as JSONL until terminal
//	GET    /v1/jobs/{id}/rows stream the job's rows as JSONL, strictly in
//	                          point order, blocking until the job finishes
//	                          (bytes identical to cmd/sweep -jsonl output)
//	DELETE /v1/jobs/{id}      cancel a queued or running job
//	POST   /v1/run            submit and stream rows in one call; client
//	                          disconnect cancels the job it created
//	GET    /healthz           liveness (always 200 while the process serves)
//	GET    /readyz            readiness (503 once draining)
//
// Clients identify themselves with the X-Client header (fair-share
// scheduling and per-client caps key on it); without one, the remote host is
// used.
func (m *Manager) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", m.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", m.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", m.handleStatus)
	mux.HandleFunc("GET /v1/jobs/{id}/rows", m.handleRows)
	mux.HandleFunc("DELETE /v1/jobs/{id}", m.handleCancel)
	mux.HandleFunc("POST /v1/run", m.handleRunSync)
	mux.HandleFunc("GET /healthz", m.handleHealthz)
	mux.HandleFunc("GET /readyz", m.handleReadyz)
	return mux
}

// clientID resolves the submitting client's identity.
func clientID(r *http.Request) string {
	if c := r.Header.Get("X-Client"); c != "" {
		return c
	}
	if host, _, err := net.SplitHostPort(r.RemoteAddr); err == nil && host != "" {
		return host
	}
	if r.RemoteAddr != "" {
		return r.RemoteAddr
	}
	return "anonymous"
}

// retryAfter is the Retry-After header of a backpressure (503 or 429)
// response, in seconds.
const retryAfter = "1"

// writeAdmissionError maps an admission/validation error to its status code.
func (m *Manager) writeAdmissionError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, ErrQueueFull), errors.Is(err, ErrDraining):
		w.Header().Set("Retry-After", retryAfter)
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
	case errors.Is(err, ErrClientBusy):
		w.Header().Set("Retry-After", retryAfter)
		http.Error(w, err.Error(), http.StatusTooManyRequests)
	default:
		http.Error(w, err.Error(), http.StatusBadRequest)
	}
}

// submitFromRequest reads and admits the request body's spec.
func (m *Manager) submitFromRequest(w http.ResponseWriter, r *http.Request) (Status, bool, bool) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxSpecBytes))
	if err != nil {
		http.Error(w, fmt.Sprintf("reading spec body: %v", err), http.StatusBadRequest)
		return Status{}, false, false
	}
	st, created, err := m.Submit(clientID(r), body)
	if err != nil {
		m.writeAdmissionError(w, err)
		return Status{}, false, false
	}
	return st, created, true
}

func (m *Manager) handleSubmit(w http.ResponseWriter, r *http.Request) {
	st, created, ok := m.submitFromRequest(w, r)
	if !ok {
		return
	}
	code := http.StatusOK
	if created {
		code = http.StatusAccepted
	}
	writeJSON(w, code, st)
}

func (m *Manager) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, m.List())
}

func (m *Manager) handleStatus(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if r.URL.Query().Get("watch") == "" {
		st, err := m.Status(id)
		if err != nil {
			http.Error(w, err.Error(), http.StatusNotFound)
			return
		}
		writeJSON(w, http.StatusOK, st)
		return
	}
	// watch mode: one status line per visible change, ending with the
	// terminal one.
	w.Header().Set("Content-Type", "application/jsonl; charset=utf-8")
	flusher, _ := w.(http.Flusher)
	var last Status
	first := true
	for {
		_, st, changed, err := m.watch(id)
		if err != nil {
			if first {
				http.Error(w, err.Error(), http.StatusNotFound)
			}
			return
		}
		if first || st != last {
			line, err := json.Marshal(st)
			if err != nil {
				return
			}
			if _, err := w.Write(append(line, '\n')); err != nil {
				return
			}
			if flusher != nil {
				flusher.Flush()
			}
			last, first = st, false
		}
		if terminal(st.State) {
			return
		}
		select {
		case <-changed:
		case <-r.Context().Done():
			return
		}
	}
}

// terminal reports whether a state is final.
func terminal(state string) bool {
	return state == StateDone || state == StateFailed || state == StateCancelled
}

func (m *Manager) handleRows(w http.ResponseWriter, r *http.Request) {
	if _, err := m.Status(r.PathValue("id")); err != nil {
		http.Error(w, err.Error(), http.StatusNotFound)
		return
	}
	m.streamRows(w, r, r.PathValue("id"), false)
}

// streamRows streams the job's rows as chunked JSONL until the job reaches a
// terminal state (or the client goes away). When cancelOnDisconnect is set —
// the synchronous run endpoint — a client disconnect cancels the job.
//
// A job that fails mid-stream has already sent its completed-prefix rows;
// the stream is then terminated without the HTTP trailer a JSON body would
// give. Clients detect the failure through the X-Job-Id header and a status
// poll, or by counting rows against the status document's points.
func (m *Manager) streamRows(w http.ResponseWriter, r *http.Request, id string, cancelOnDisconnect bool) {
	w.Header().Set("Content-Type", "application/jsonl; charset=utf-8")
	w.Header().Set("X-Job-Id", id)
	flusher, _ := w.(http.Flusher)
	sent := 0
	for {
		rows, st, changed, err := m.watch(id)
		if err != nil {
			return // job vanished (never after a successful first watch)
		}
		for sent < len(rows) {
			if _, err := w.Write(rows[sent]); err != nil {
				if cancelOnDisconnect {
					m.Cancel(id)
				}
				return
			}
			sent++
		}
		if flusher != nil {
			flusher.Flush()
		}
		if terminal(st.State) && sent == len(rows) {
			return
		}
		select {
		case <-changed:
		case <-r.Context().Done():
			if cancelOnDisconnect {
				m.Cancel(id)
			}
			return
		}
	}
}

// handleRunSync is the one-shot path: admit the spec and stream its rows in
// the same response. The request context is tied to the job it created — a
// client that disconnects mid-stream cancels it (an attached pre-existing
// job is left alone: some other client is waiting on it).
func (m *Manager) handleRunSync(w http.ResponseWriter, r *http.Request) {
	st, created, ok := m.submitFromRequest(w, r)
	if !ok {
		return
	}
	m.streamRows(w, r, st.ID, created)
}

func (m *Manager) handleCancel(w http.ResponseWriter, r *http.Request) {
	st, err := m.Cancel(r.PathValue("id"))
	if err != nil {
		http.Error(w, err.Error(), http.StatusNotFound)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// health is the /healthz document. InFlight (queued + active jobs) and
// Queued are the load gauges the cluster coordinator ranks workers by for
// least-loaded shard placement.
type health struct {
	Status      string `json:"status"`
	Queued      int    `json:"queued"`
	Active      int    `json:"active"`
	InFlight    int    `json:"in_flight"`
	PoolWorkers int    `json:"pool_workers"`
	Draining    bool   `json:"draining"`
	CacheHits   int64  `json:"cache_hits"`
	CacheMisses int64  `json:"cache_misses"`
	CacheSize   int    `json:"cache_size"`
}

func (m *Manager) handleHealthz(w http.ResponseWriter, r *http.Request) {
	queued, active := m.Counts()
	hits, misses, size := m.CacheStats()
	writeJSON(w, http.StatusOK, health{
		Status: "ok", Queued: queued, Active: active,
		InFlight: queued + active, PoolWorkers: m.PoolWorkers(),
		Draining:  m.Draining(),
		CacheHits: hits, CacheMisses: misses, CacheSize: size,
	})
}

func (m *Manager) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if m.Draining() {
		w.Header().Set("Retry-After", retryAfter)
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
}

// writeJSON writes v as an indented JSON body.
func writeJSON(w http.ResponseWriter, code int, v any) {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(code)
	w.Write(append(data, '\n'))
}
