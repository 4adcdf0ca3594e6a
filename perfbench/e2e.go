package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// setupReps is how many times a run sets up; setup_s is their median.
const setupReps = 21

// endpoint is how specs reach the simulator in an end-to-end run. prep runs
// before the clock starts and turns a spec into serve's input.
type endpoint struct {
	prep  func(name string, spec []byte) (string, error)
	serve func(ctx context.Context, input string) ([]byte, error)
}

// runEndToEnd measures the spec → rows path as a user sees it, from handing
// over the spec to holding its last row, in a closed loop of one client.
func runEndToEnd(ctx context.Context, e *env, measure time.Duration) (rep *report, err error) {
	ep := endpoint{
		prep:  e.specFile,
		serve: func(ctx context.Context, path string) ([]byte, error) { return runCLI(ctx, e, path) },
	}
	var setups []float64
	if e.w.daemon {
		var d *daemon
		d, setups, err = setUpDaemon(ctx, e)
		if err != nil {
			return nil, err
		}
		defer func() {
			if serr := d.stop(); serr != nil && err == nil {
				err = serr
			}
		}()
		ep = endpoint{
			prep:  func(_ string, spec []byte) (string, error) { return string(spec), nil },
			serve: func(ctx context.Context, spec string) ([]byte, error) { return d.run(ctx, []byte(spec)) },
		}
	} else if setups, err = setUpCLI(ctx, e); err != nil {
		return nil, err
	}

	rep = &report{Correct: true}
	request := func(i int, sw sweepSpec) (rows []byte, elapsed time.Duration, packets float64) {
		rep.Attempted++
		in, err := ep.prep(fmt.Sprintf("request-%d", i), sw.JSON())
		if err == nil {
			t0 := time.Now()
			rows, err = ep.serve(ctx, in)
			elapsed = time.Since(t0)
		}
		if err == nil {
			packets, err = checkRows(e.w, sw, rows)
		}
		if err != nil {
			rep.Failed++
			rep.Correct = false
			fmt.Fprintf(os.Stderr, "perfbench: request %d (seed %d): %v\n", i, sw.Base.Seed, err)
			return nil, 0, 0
		}
		return rows, elapsed, packets
	}

	// One request before the clock starts loads the binaries into the page
	// cache; it is checked like any other.
	request(-1, e.w.spec(requestSeed(e.seed, -1)))
	var (
		lat       []float64 // milliseconds per request
		rate      []float64 // packets per second per request
		firstRows []byte
	)
	start := time.Now()
	for i := 0; i == 0 || time.Since(start) < measure; i++ {
		rows, elapsed, n := request(i, e.w.spec(requestSeed(e.seed, i)))
		if rows == nil {
			continue
		}
		if i == 0 {
			firstRows = rows
		}
		lat = append(lat, ms(elapsed))
		rate = append(rate, n/elapsed.Seconds())
	}
	if len(lat) == 0 {
		return nil, errors.New("every request failed")
	}
	// Outputs are pure functions of the spec: the CLI must reproduce the
	// first request's rows byte for byte, whether the daemon or an earlier
	// CLI process produced them.
	if firstRows != nil {
		path, err := e.specFile("recheck", e.w.spec(requestSeed(e.seed, 0)).JSON())
		if err != nil {
			return nil, err
		}
		again, err := runCLI(ctx, e, path)
		if err != nil || !bytes.Equal(again, firstRows) {
			rep.Correct = false
			fmt.Fprintf(os.Stderr, "perfbench: rows of request 0 not reproduced by the sweep CLI (err %v)\n", err)
		}
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %d requests in %.1fs, latency p10 %.1f p50 %.1f p90 %.1f ms; %d set-ups p10 %.2f p50 %.2f p90 %.2f ms\n",
		e.w.name, e.seed, len(lat), time.Since(start).Seconds(),
		quantile(lat, 0.1), quantile(lat, 0.5), quantile(lat, 0.9),
		len(setups), 1000*quantile(setups, 0.1), 1000*quantile(setups, 0.5), 1000*quantile(setups, 0.9))
	rep.Metrics = map[string]metric{
		"latency_ms":    {median(lat), "ms"},
		"packets_per_s": {median(rate), "1/s"},
		"setup_s":       {median(setups), "s"},
	}
	return rep, nil
}

// setUpCLI times a sweep process on a minimal one-point spec: process
// start, spec loading and row output, with next to no simulation.
func setUpCLI(ctx context.Context, e *env) ([]float64, error) {
	tiny := hypercubeSweep("setup", 2, 10, e.seed, 0.5)
	path, err := e.specFile("setup", tiny.JSON())
	if err != nil {
		return nil, err
	}
	setups := make([]float64, setupReps)
	for r := range setups {
		t0 := time.Now()
		rows, err := runCLI(ctx, e, path)
		setups[r] = time.Since(t0).Seconds()
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		if _, err := checkRows(workload{}, tiny, rows); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
	}
	return setups, nil
}

// setUpDaemon times simd from launch to a 200 on /readyz, each time on a
// fresh state directory, and returns the last daemon still running.
func setUpDaemon(ctx context.Context, e *env) (*daemon, []float64, error) {
	var setups []float64
	for {
		t0 := time.Now()
		d, err := startDaemon(ctx, e, filepath.Join(e.work, fmt.Sprintf("state-%d", len(setups))))
		if err != nil {
			return nil, nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if len(setups) == setupReps {
			return d, setups, nil
		}
		if err := d.stop(); err != nil {
			return nil, nil, err
		}
	}
}
