// Command simd is the long-running simulation daemon: it accepts scenario
// and sweep specs over HTTP/JSON, schedules them fairly across clients on
// one shared engine worker pool, and keeps every job crash-recoverable
// through per-job checkpoint journals under -state.
//
// The API (see docs/DAEMON.md and internal/jobs):
//
//	POST   /v1/jobs            submit a spec; 202 on create, 200 on attach
//	GET    /v1/jobs            list jobs
//	GET    /v1/jobs/{id}       job status (?watch=1 streams changes as JSONL)
//	GET    /v1/jobs/{id}/rows  stream rows as JSONL, blocking until done
//	DELETE /v1/jobs/{id}       cancel
//	POST   /v1/run             submit and stream rows in one call
//	GET    /healthz            liveness + queue/cache counters
//	GET    /readyz             readiness (503 once draining)
//
// SIGTERM (or SIGINT) starts a graceful drain: new submissions are rejected
// with 503 + Retry-After, running jobs finish, and the process exits 0. If
// the drain exceeds -drain-timeout the jobs are hard-stopped instead — their
// journals keep every completed point, so the next start resumes them
// byte-identically, exactly as after a SIGKILL.
//
// Example:
//
//	simd -addr 127.0.0.1:8080 -state /var/lib/simd &
//	curl -X POST --data-binary @specs/fault-sweep.json localhost:8080/v1/jobs
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/engine"
	"repro/internal/jobs"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, nil))
}

// run is the testable entry point. It returns the process exit code:
// 0 after a clean drain, 1 on a runtime error, 2 on a usage error.
//
// ready, when non-nil, receives the bound listen address once the daemon is
// serving (tests pass :0 and read the port from here).
func run(args []string, stdout, stderr io.Writer, ready chan<- string) int {
	fs := flag.NewFlagSet("simd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr         = fs.String("addr", "127.0.0.1:8080", "listen address")
		state        = fs.String("state", "", "state directory for job records and checkpoint journals (required)")
		workers      = fs.Int("workers", 0, "shared simulation worker slots (0 = GOMAXPROCS)")
		maxActive    = fs.Int("max-active", 0, "max jobs running concurrently (0 = default 4)")
		queueLimit   = fs.Int("queue-limit", 0, "max admitted-but-not-started jobs before 503 (0 = default 64)")
		perClient    = fs.Int("per-client", 0, "max in-flight jobs per client before 429 (0 = default 8)")
		pointTimeout = fs.Duration("point-timeout", 0, "per-point wall-clock watchdog (0 = none)")
		jobTimeout   = fs.Duration("job-timeout", 0, "whole-job deadline (0 = none)")
		cacheSize    = fs.Int("cache", 0, "result cache entries (0 = default 1024, negative = disabled)")
		drainTimeout = fs.Duration("drain-timeout", 30*time.Second, "max wait for running jobs on SIGTERM before hard-stopping them")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *state == "" {
		fmt.Fprintln(stderr, "simd: -state is required")
		return 2
	}

	logger := log.New(stderr, "simd: ", log.LstdFlags)
	mgr, err := jobs.NewManager(jobs.Config{
		StateDir:      *state,
		Pool:          engine.NewPool(*workers),
		MaxActiveJobs: *maxActive,
		QueueLimit:    *queueLimit,
		PerClientCap:  *perClient,
		PointTimeout:  *pointTimeout,
		JobTimeout:    *jobTimeout,
		CacheEntries:  *cacheSize,
		Logf:          logger.Printf,
	})
	if err != nil {
		fmt.Fprintf(stderr, "simd: %v\n", err)
		return 1
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(stderr, "simd: %v\n", err)
		return 1
	}
	srv := &http.Server{Handler: mgr.Handler()}
	logger.Printf("serving on %s (state %s)", ln.Addr(), *state)
	if ready != nil {
		ready <- ln.Addr().String()
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, os.Interrupt)
	defer stop()

	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	select {
	case err := <-serveErr:
		fmt.Fprintf(stderr, "simd: %v\n", err)
		return 1
	case <-ctx.Done():
	}
	stop() // a second signal kills the process the default way

	// Graceful drain: stop admitting, let running jobs finish (their journals
	// make a hard stop safe if they don't finish in time), then close the
	// listener so in-flight row streams flush before the process exits.
	logger.Printf("signal received; draining (timeout %v)", *drainTimeout)
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := mgr.Drain(drainCtx); err != nil {
		logger.Printf("drain deadline expired; jobs hard-stopped and will resume on next start")
	}
	shutCtx, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	if err := srv.Shutdown(shutCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		srv.Close()
	}
	<-serveErr // Serve has returned http.ErrServerClosed
	logger.Printf("drained; exiting")
	fmt.Fprintln(stdout, "simd: shutdown complete")
	return 0
}
