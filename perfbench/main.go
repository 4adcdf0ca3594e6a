// Command perfbench is the repository's end-to-end benchmark. It drives the
// simulator the way a user does — a spec file in, rows out — through the
// sweep CLI or the simd daemon, and reports how long that takes; traced, it
// runs the same specs through the simulator's layers in process and reports
// what each layer costs.
//
// Run it from the repository root through run.sh, which builds the CLIs and
// this harness from source first:
//
//	bash perfbench/run.sh --workload event-driven --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; a human-readable summary goes to
// standard error. See README.md for the workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"time"
)

// buildDir is where run.sh puts the binaries and where every run keeps its
// scratch files, relative to the repository root.
const buildDir = ".bench_build"

// metric is one reported measurement.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the benchmark's result line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		name    = flag.String("workload", "", "workload to run: "+workloadNames())
		seed    = flag.Uint64("seed", 1, "seed the workload's specs are derived from")
		seconds = flag.Float64("seconds", 30, "how long to measure")
		trace   = flag.Int("trace", 0, "1 = traced per-layer run, 0 = end-to-end run")
	)
	flag.Parse()
	w, ok := workloads[*name]
	if !ok {
		return fmt.Errorf("unknown workload %q (want one of %s)", *name, workloadNames())
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		return errors.New("--seconds must be positive and --trace 0 or 1")
	}
	work, err := os.MkdirTemp(buildDir, "work-"+w.name+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)

	measure := time.Duration(*seconds * float64(time.Second))
	// Every child process and request is bounded well inside the 180 s a run
	// may take, so a hung program fails the run instead of stalling it.
	ctx, cancel := context.WithTimeout(context.Background(), measure+150*time.Second)
	defer cancel()
	env := &env{bin: filepath.Join(buildDir, "bin"), work: work, w: w, seed: *seed}
	var rep *report
	if *trace == 1 {
		rep, err = runTraced(ctx, env, measure)
	} else {
		rep, err = runEndToEnd(ctx, env, measure)
	}
	if err != nil {
		return err
	}
	line, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// env is what a run needs: the binaries, a scratch directory removed at the
// end, the workload and the seed.
type env struct {
	bin  string
	work string
	w    workload
	seed uint64
}

func (e *env) sweepBin() string { return filepath.Join(e.bin, "sweep") }
func (e *env) simdBin() string  { return filepath.Join(e.bin, "simd") }

// specFile writes the spec to the scratch directory and returns its path.
func (e *env) specFile(name string, spec []byte) (string, error) {
	path := filepath.Join(e.work, name+".json")
	return path, os.WriteFile(path, spec, 0o644)
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks; xs must be non-empty.
func quantile(xs []float64, q float64) float64 {
	s := slices.Clone(xs)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
