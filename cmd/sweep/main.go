// Command sweep runs a declarative sweep spec file (see docs/SPEC.md and
// specs/sweep-*.json) over the unified scenario API (sim.RunSweep) and
// streams one row per point, as CSV (default) or JSON Lines (-json), in point
// order. The paper's two headline curves are checked in as
// specs/sweep-load.json (mean delay versus rho, with the Prop. 12/13 bounds)
// and specs/sweep-dimension.json (mean delay versus d at fixed rho).
//
// Sweep points are independent simulations, so they execute concurrently on
// the engine's worker pool; rows are emitted in sweep order regardless of
// which point finishes first, and output is byte-identical at any
// -parallelism.
//
// Examples:
//
//	sweep -spec specs/sweep-load.json
//	sweep -spec specs/sweep-smoke.json -json > rows.jsonl
//	sweep -spec specs/fault-sweep.json -checkpoint fault.ckpt
//
// Exit codes (shared with cmd/run, see internal/cli): 0 success, 1 runtime
// failure, 2 usage error, 3 spec load/validation failure, 4 -timeout expiry.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/cli"
	"repro/internal/harness"
	"repro/sim"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point: it parses args, executes, and returns the
// process exit code (the cli.Exit* constants).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		spec        = fs.String("spec", "", "sweep spec file to run (required)")
		jsonOut     = fs.Bool("json", false, "emit JSON Lines rows instead of CSV")
		parallelism = fs.Int("parallelism", 0, "max concurrent sweep points (0 = GOMAXPROCS)")
		progress    = fs.Bool("progress", false, "report per-point progress on stderr")
		timeout     = fs.Duration("timeout", 0, "abort the whole invocation after this wall-clock duration (0 = no limit)")
		checkpoint  = fs.String("checkpoint", "", "journal completed points to this file and resume from it")
	)
	if err := fs.Parse(args); err != nil {
		return cli.ExitUsage
	}
	if *spec == "" {
		fmt.Fprintf(stderr, "sweep: -spec is required: sweep -spec file.json [-json] [-parallelism N] [-progress] [-timeout D] [-checkpoint file]\n")
		return cli.ExitUsage
	}
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	sw, err := harness.LoadSweep(*spec)
	if err != nil {
		fmt.Fprintf(stderr, "sweep: %v\n", err)
		return cli.ExitSpec
	}
	sw.Parallelism = *parallelism
	// Rows only stream to a sink; don't hold every Result until the sweep
	// ends.
	sw.DiscardResults = true
	sw.CheckpointPath = *checkpoint
	if *progress {
		title := sw.Title()
		sw.Progress = func(done, total int) {
			fmt.Fprintf(stderr, "%s: point %d/%d done\n", title, done, total)
		}
	}
	var sink sim.RowSink
	if *jsonOut {
		sink = sim.NewJSONLSink(stdout)
	} else {
		sink = sim.NewCSVSink(stdout)
	}
	if _, err := sim.RunSweep(ctx, *sw, sink); err != nil {
		if errors.Is(err, context.DeadlineExceeded) {
			fmt.Fprintf(stderr, "sweep: timed out after %v (-timeout)\n", *timeout)
			return cli.ExitTimeout
		}
		fmt.Fprintf(stderr, "sweep: %v\n", err)
		return cli.ExitRuntime
	}
	return cli.ExitOK
}
