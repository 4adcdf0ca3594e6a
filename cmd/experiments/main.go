// Command experiments regenerates every table of the experiment registry
// (run with -list to see the live set: E1..E18 plus the ablations A1..A3;
// README.md carries the index). Experiments are expressed over the unified
// scenario API (repro/sim) and execute their replications and grid points on
// the sharded parallel engine (internal/engine); identical seeds produce
// identical tables at any parallelism.
//
// Examples:
//
//	experiments                   # run everything at full size
//	experiments -quick            # shortened horizons, for a fast check
//	experiments -only E5,E7       # run a subset
//	experiments -list             # show the registry
//	experiments -csv              # emit CSV instead of aligned text
//	experiments -json             # emit machine-readable JSON artifacts
//	experiments -artifacts out/   # also write one JSON artifact per experiment
//	experiments -parallelism 4    # bound the worker pool
//	experiments -progress         # per-grid-point progress on stderr
//	experiments -cpuprofile p.out # write a pprof CPU profile of the run
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/harness"
)

func main() {
	var (
		quick       = flag.Bool("quick", false, "use shortened horizons and fewer replications")
		only        = flag.String("only", "", "comma-separated experiment IDs to run (default: all)")
		list        = flag.Bool("list", false, "list the experiment registry and exit")
		csv         = flag.Bool("csv", false, "emit CSV tables instead of aligned text")
		jsonOut     = flag.Bool("json", false, "emit machine-readable JSON artifacts instead of text tables")
		artifactDir = flag.String("artifacts", "", "directory to write per-experiment JSON artifacts (empty = none)")
		seed        = flag.Uint64("seed", 1, "base random seed")
		parallelism = flag.Int("parallelism", 0, "max concurrent shards on the engine's worker pool (0 = GOMAXPROCS)")
		progress    = flag.Bool("progress", false, "report per-grid-point progress on stderr")
		cpuprofile  = flag.String("cpuprofile", "", "write a pprof CPU profile of the selected experiments to this file")
		memprofile  = flag.String("memprofile", "", "write a pprof heap profile taken after the run to this file")
	)
	flag.Parse()

	registry := harness.Registry()
	if *list {
		table := harness.NewTable("registered experiments", "id", "title", "claim")
		for _, e := range registry {
			table.AddRow(e.ID, e.Title, e.Claim)
		}
		fmt.Print(table.String())
		return
	}

	// Validate everything that can fail cheaply before profiling starts, so
	// the exits below cannot truncate a live CPU profile.
	var selected []harness.Experiment
	switch {
	case *only == "":
		selected = registry
	default:
		for _, id := range strings.Split(*only, ",") {
			id = strings.TrimSpace(id)
			e, ok := harness.ByID(id) // case-insensitive
			if !ok {
				fmt.Fprintf(os.Stderr, "experiments: unknown experiment %q (valid: %s)\n",
					id, strings.Join(harness.IDs(), ", "))
				os.Exit(2)
			}
			selected = append(selected, e)
		}
	}
	if *artifactDir != "" {
		if err := os.MkdirAll(*artifactDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(1)
		}
	}

	profiling := false
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(1)
		}
		profiling = true
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		// Report the failure but do not os.Exit from the deferred func: that
		// would skip the StopCPUProfile defer and truncate the CPU profile.
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // report live steady-state allocations, not garbage
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			}
		}()
	}
	// fail flushes the CPU profile before exiting on mid-run errors.
	fail := func(err error) {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		if profiling {
			pprof.StopCPUProfile()
		}
		os.Exit(1)
	}

	for _, e := range selected {
		cfg := harness.RunConfig{Quick: *quick, Seed: *seed, Parallelism: *parallelism}
		if *progress {
			id := e.ID
			cfg.Progress = func(donePoints, totalPoints int) {
				fmt.Fprintf(os.Stderr, "%s: point %d/%d done\n", id, donePoints, totalPoints)
			}
		}
		start := time.Now()
		table := e.Run(cfg)
		elapsed := time.Since(start)
		artifact := harness.NewArtifact(e, cfg, table, elapsed)

		if *artifactDir != "" {
			if err := writeArtifact(*artifactDir, artifact); err != nil {
				fail(err)
			}
		}

		switch {
		case *jsonOut:
			data, err := artifact.JSON()
			if err != nil {
				fail(err)
			}
			fmt.Printf("%s\n", data)
		case *csv:
			fmt.Printf("== %s: %s\n   claim: %s\n", e.ID, e.Title, e.Claim)
			fmt.Print(table.CSV())
			fmt.Printf("   (%s)\n\n", elapsed.Round(time.Millisecond))
		default:
			fmt.Printf("== %s: %s\n   claim: %s\n", e.ID, e.Title, e.Claim)
			fmt.Print(table.String())
			fmt.Printf("   (%s)\n\n", elapsed.Round(time.Millisecond))
		}
	}
}

func writeArtifact(dir string, artifact harness.Artifact) error {
	data, err := artifact.JSON()
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, artifact.ID+".json"), append(data, '\n'), 0o644)
}
