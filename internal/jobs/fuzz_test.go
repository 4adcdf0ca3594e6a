package jobs

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/sim"
)

// FuzzSubmit drives POST /v1/jobs with arbitrary bodies and X-Client
// headers. Every request must get one of the endpoint's documented answers —
// 200 or 202 for an admitted spec, 400 for a bad or oversized body, 429 or
// 503 for an admission refusal — and must neither panic nor hang. Jobs run
// through the runSweep hook, which returns at once, so no input simulates.
// The seed corpus is every checked-in spec plus truncated, oversized and
// non-JSON bodies; CI runs the fuzzer past it with
//
//	go test -run '^$' -fuzz FuzzSubmit -fuzztime 30s ./internal/jobs
func FuzzSubmit(f *testing.F) {
	specs, err := filepath.Glob(filepath.Join("..", "..", "specs", "*.json"))
	if err != nil || len(specs) == 0 {
		f.Fatalf("no seed specs: %v", err)
	}
	for _, path := range specs {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data, "ci")
		f.Add(data[:len(data)/2], "truncated")
	}
	f.Add(append([]byte(`{"name": "`), bytes.Repeat([]byte("x"), maxSpecBytes)...), "oversized")
	f.Add([]byte("not json"), "")
	f.Add([]byte{}, "empty")
	f.Add([]byte("\x00\xff{"), "binary")
	f.Add([]byte(`[{"topology": {"kind": "hypercube", "d": 3}}]`), "array")

	m, err := NewManager(Config{
		StateDir: f.TempDir(),
		runSweep: func(context.Context, sim.Sweep, ...sim.RowSink) ([]sim.Row, error) { return nil, nil },
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		m.Drain(ctx)
	})
	h := m.Handler()
	f.Fuzz(func(t *testing.T, body []byte, client string) {
		req := httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(body))
		req.Header.Set("X-Client", client)
		rec := httptest.NewRecorder()
		done := make(chan struct{})
		go func() {
			defer close(done)
			h.ServeHTTP(rec, req)
		}()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("POST /v1/jobs did not answer within 10 s (body %d B, client %q)", len(body), client)
		}
		switch rec.Code {
		case http.StatusOK, http.StatusAccepted, http.StatusBadRequest,
			http.StatusTooManyRequests, http.StatusServiceUnavailable:
		default:
			t.Fatalf("POST /v1/jobs answered %d: %s", rec.Code, rec.Body.String())
		}
	})
}
