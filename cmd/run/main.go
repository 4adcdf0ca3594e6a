// Command run executes declarative spec files through the unified scenario
// API (repro/sim). A spec file holds one JSON scenario object, an array of
// them, or a sweep object with a base scenario and axes (see docs/SPEC.md
// for the full schema, specs/sample.json and specs/sweep-load.json for
// worked examples); every scenario runs end to end — validation, kernel
// selection, optional engine-native replication — and renders in the same
// table/CSV/JSON formats as the registry experiments. Sweep specs expand to
// their point scenarios first; for machine-readable sweep rows (CSV/JSONL)
// use cmd/sweep -spec instead.
//
// Invalid specs — unknown JSON fields (the offending key is named), bad
// values, malformed JSON — exit non-zero with the validation error.
//
// Exit codes (shared with cmd/sweep, see internal/cli): 0 success, 1 runtime
// failure, 2 usage error, 3 spec load/validation failure, 4 -timeout expiry.
//
// Examples:
//
//	run specs/sample.json
//	run -csv specs/sample.json
//	run -json specs/sample.json > results.json
//	run -artifacts out/ specs/a.json specs/b.json
//	run -parallelism 4 -progress specs/sample.json
//	run -timeout 30s specs/sample.json
//	run specs/sweep-smoke.json
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"repro/internal/cli"
	"repro/internal/harness"
	"repro/sim"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point: it parses args, executes every spec, and
// returns the process exit code (the cli.Exit* constants).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		csvOut      = fs.Bool("csv", false, "emit CSV tables instead of aligned text")
		jsonOut     = fs.Bool("json", false, "emit machine-readable JSON artifacts instead of text tables")
		artifactDir = fs.String("artifacts", "", "directory to write per-scenario JSON artifacts (empty = none)")
		parallelism = fs.Int("parallelism", 0, "max concurrent replication shards (0 = GOMAXPROCS)")
		progress    = fs.Bool("progress", false, "report per-replication progress on stderr")
		validate    = fs.Bool("validate", false, "load, validate and expand the specs without running them")
		timeout     = fs.Duration("timeout", 0, "abort the whole invocation after this wall-clock duration (0 = no limit)")
	)
	if err := fs.Parse(args); err != nil {
		return cli.ExitUsage
	}
	if *csvOut && *jsonOut {
		fmt.Fprintf(stderr, "run: -csv and -json select different output formats; pass at most one\n")
		return cli.ExitUsage
	}
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	if fs.NArg() == 0 {
		fmt.Fprintf(stderr, "usage: run [flags] spec.json [spec2.json ...]\n")
		fs.PrintDefaults()
		return cli.ExitUsage
	}

	fail := func(code int, err error) int {
		fmt.Fprintf(stderr, "run: %v\n", err)
		return code
	}

	if *artifactDir != "" {
		if err := os.MkdirAll(*artifactDir, 0o755); err != nil {
			return fail(cli.ExitRuntime, err)
		}
	}

	n := 0
	for _, path := range fs.Args() {
		scs, sw, err := harness.LoadSpec(path)
		if err != nil {
			return fail(cli.ExitSpec, err)
		}
		if *validate {
			// Loading already validated everything (sweeps including every
			// expanded point); report the spec's shape and move on.
			switch {
			case sw == nil:
				fmt.Fprintf(stdout, "%s: %d valid scenario(s)\n", path, len(scs))
			case sw.Name == "":
				// The generated title counts the points.
				fmt.Fprintf(stdout, "%s: valid sweep %q\n", path, sw.Title())
			default:
				n, _ := sw.Points() // loading checked the sweep's shape
				unit := "points"
				if n == 1 {
					unit = "point"
				}
				fmt.Fprintf(stdout, "%s: valid sweep %q (%d %s)\n", path, sw.Name, n, unit)
			}
			continue
		}
		if sw != nil {
			// A sweep spec loads as its point scenarios, expanded once;
			// every point gets a unique name (point index appended) so
			// artifact IDs and titles never collide, whatever the sweep or
			// base was called.
			name := sw.Name
			if name == "" {
				name = sw.Base.Name
			}
			if name == "" {
				name = "sweep"
			}
			for i := range scs {
				scs[i].Name = fmt.Sprintf("%s-point-%03d", name, i)
			}
		}
		for i, sc := range scs {
			n++
			sc.Parallelism = *parallelism
			if *progress {
				// Scenario-level progress first: with a multi-scenario or
				// sweep spec, the replication lines alone don't say how far
				// through the spec the invocation is.
				fmt.Fprintf(stderr, "%s: scenario %d/%d: %s\n", path, i+1, len(scs), sc.Title())
				title := sc.Title()
				sc.Progress = func(done, total int) {
					fmt.Fprintf(stderr, "%s: replication %d/%d done\n", title, done, total)
				}
			}
			start := time.Now()
			res, err := sim.Run(ctx, sc)
			if err != nil {
				if errors.Is(err, context.DeadlineExceeded) {
					return fail(cli.ExitTimeout,
						fmt.Errorf("%s: %s: timed out after %v (-timeout)", path, sc.Title(), *timeout))
				}
				return fail(cli.ExitRuntime, fmt.Errorf("%s: %w", path, err))
			}
			elapsed := time.Since(start)
			table := harness.ScenarioTable(sc, res)
			id := sc.Name
			if id == "" {
				id = fmt.Sprintf("scenario-%d", n)
			}
			artifact := harness.NewArtifact(harness.Experiment{
				ID:    id,
				Title: sc.Title(),
				Claim: fmt.Sprintf("ad-hoc scenario from %s", path),
			}, harness.RunConfig{Seed: sc.Seed, Parallelism: *parallelism}, table, elapsed)

			if *artifactDir != "" {
				data, err := artifact.JSON()
				if err != nil {
					return fail(cli.ExitRuntime, err)
				}
				file := filepath.Join(*artifactDir, id+".json")
				if err := os.WriteFile(file, append(data, '\n'), 0o644); err != nil {
					return fail(cli.ExitRuntime, err)
				}
			}

			switch {
			case *jsonOut:
				data, err := artifact.JSON()
				if err != nil {
					return fail(cli.ExitRuntime, err)
				}
				fmt.Fprintf(stdout, "%s\n", data)
			case *csvOut:
				fmt.Fprintf(stdout, "== %s\n", sc.Title())
				fmt.Fprint(stdout, table.CSV())
				fmt.Fprintf(stdout, "   (%s)\n\n", elapsed.Round(time.Millisecond))
			default:
				fmt.Fprintf(stdout, "== %s\n", sc.Title())
				fmt.Fprint(stdout, table.String())
				fmt.Fprintf(stdout, "   (%s)\n\n", elapsed.Round(time.Millisecond))
			}
		}
	}
	return cli.ExitOK
}
