package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os/exec"
	"path/filepath"
	"regexp"
	"sync"
	"syscall"
	"time"
)

// runCLI runs `sweep -spec <path> -json -parallelism 1` and returns its
// rows. One worker keeps the timing independent of whether the machine's
// other cores are free; the daemon gets one worker for the same reason.
func runCLI(ctx context.Context, e *env, path string) ([]byte, error) {
	var out, stderr bytes.Buffer
	cmd := exec.CommandContext(ctx, e.sweepBin(), "-spec", path, "-json", "-parallelism", "1")
	cmd.Stdout, cmd.Stderr = &out, &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("sweep -spec %s: %w: %s", filepath.Base(path), err, bytes.TrimSpace(stderr.Bytes()))
	}
	return out.Bytes(), nil
}

// daemon is one running simd process.
type daemon struct {
	cmd     *exec.Cmd
	log     *daemonLog
	url     string
	client  *http.Client
	exited  chan struct{} // closed once the process has been reaped
	waitErr error         // the process's exit status, set before exited closes
}

// daemonLog collects simd's standard error: it keeps a bounded tail for
// error messages and reports the listen address simd logs once it serves.
type daemonLog struct {
	mu    sync.Mutex
	buf   []byte
	addr  chan string // receives the address once
	found bool
}

var servingRE = regexp.MustCompile(`serving on (\S+) `)

func (l *daemonLog) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.buf = append(l.buf, p...)
	if !l.found {
		if m := servingRE.FindSubmatch(l.buf); m != nil {
			l.found = true
			l.addr <- string(m[1])
		}
	}
	if len(l.buf) > 64<<10 {
		l.buf = append(l.buf[:0], l.buf[len(l.buf)-8<<10:]...)
	}
	return len(p), nil
}

func (l *daemonLog) tail() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return string(bytes.TrimSpace(l.buf))
}

// startDaemon starts simd on a free loopback port with the given state
// directory and returns once /readyz answers 200. On error no process is
// left running.
func startDaemon(ctx context.Context, e *env, state string) (*daemon, error) {
	d := &daemon{
		log:    &daemonLog{addr: make(chan string, 1)},
		client: &http.Client{},
		exited: make(chan struct{}),
	}
	d.cmd = exec.Command(e.simdBin(), "-addr", "127.0.0.1:0", "-state", state, "-workers", "1", "-drain-timeout", "10s")
	d.cmd.Stderr = d.log
	// Should the harness itself be killed, the daemon goes with it.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start simd: %w", err)
	}
	go func() {
		d.waitErr = d.cmd.Wait()
		close(d.exited)
	}()
	fail := func(err error) (*daemon, error) {
		_ = d.cmd.Process.Kill() // it may have exited already
		<-d.exited
		return nil, fmt.Errorf("%w; simd log: %s", err, d.log.tail())
	}
	deadline := time.NewTimer(30 * time.Second)
	defer deadline.Stop()
	select {
	case addr := <-d.log.addr:
		d.url = "http://" + addr
	case <-d.exited:
		return fail(errors.New("simd exited before serving"))
	case <-deadline.C:
		return fail(errors.New("simd did not start serving within 30s"))
	case <-ctx.Done():
		return fail(ctx.Err())
	}
	for {
		resp, err := d.client.Get(d.url + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		select {
		case <-d.exited:
			return fail(errors.New("simd exited before it was ready"))
		case <-deadline.C:
			return fail(errors.New("simd not ready within 30s"))
		case <-ctx.Done():
			return fail(ctx.Err())
		case <-time.After(time.Millisecond):
		}
	}
}

// stop drains simd with SIGTERM, as an operator would, and waits for it to
// exit; after 20s it is killed.
func (d *daemon) stop() error {
	d.client.CloseIdleConnections()
	_ = d.cmd.Process.Signal(syscall.SIGTERM) // it may have exited already
	select {
	case <-d.exited:
	case <-time.After(20 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.exited
		return fmt.Errorf("simd did not drain within 20s; simd log: %s", d.log.tail())
	}
	if d.waitErr != nil {
		return fmt.Errorf("simd: %w; simd log: %s", d.waitErr, d.log.tail())
	}
	return nil
}

// run submits the spec with POST /v1/run and returns the streamed rows.
func (d *daemon) run(ctx context.Context, spec []byte) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, d.url+"/v1/run", bytes.NewReader(spec))
	if err != nil {
		return nil, err
	}
	req.Header.Set("X-Client", "perfbench")
	resp, err := d.client.Do(req)
	if err != nil {
		return nil, fmt.Errorf("POST /v1/run: %w", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("POST /v1/run: reading rows: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("POST /v1/run: %s: %s", resp.Status, bytes.TrimSpace(body))
	}
	return body, nil
}
