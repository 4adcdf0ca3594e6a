// Command simc is the cluster sweep coordinator: it shards a sweep spec
// across a fleet of simd workers (internal/cluster), merges their row
// streams, and writes one strictly point-ordered output that is
// byte-identical to a single-machine `sweep -spec file.json` run — same
// spec, same seed, same bytes, any cluster shape.
//
// Workers are plain simd daemons; simc needs only their base URLs. A worker
// that dies or becomes unreachable mid-shard is failed over: the incomplete
// point suffix of its shard is re-dispatched to a surviving worker with
// bounded retry/backoff. With -state, merged points are journaled in the
// sim checkpoint format under the parent spec's fingerprint, so a killed
// simc resumes byte-identically — and the same journal file is
// interchangeable with `sweep -spec file.json -checkpoint <file>`.
//
// Examples:
//
//	simc -spec specs/sweep-load.json -workers http://a:9621,http://b:9621
//	simc -spec specs/fault-sweep.json -workers http://a:9621 -json > rows.jsonl
//	simc -spec big.json -workers "$URLS" -state /var/lib/simc -shards 8
//
// Exit codes (shared with cmd/run, cmd/sweep, cmd/simd; see internal/cli):
// 0 success, 1 runtime failure, 2 usage error, 3 spec load/validation
// failure, 4 -timeout expiry.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"sync"
	"time"

	"repro/internal/cli"
	"repro/internal/cluster"
	"repro/internal/harness"
	"repro/sim"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point: it parses args, executes, and returns the
// process exit code (the cli.Exit* constants).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("simc", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		spec     = fs.String("spec", "", "sweep spec file to shard across the workers (required)")
		workers  = fs.String("workers", "", "comma-separated simd base URLs, e.g. http://a:9621,http://b:9621 (required)")
		state    = fs.String("state", "", "journal merged points under this directory and resume from it")
		shards   = fs.Int("shards", 0, "contiguous shards to split the sweep into (0 = one per worker)")
		jsonOut  = fs.Bool("json", false, "emit JSON Lines rows (default CSV)")
		client   = fs.String("client", "simc", "X-Client identity for submitted shard jobs")
		attempts = fs.Int("shard-attempts", 4, "dispatch attempts per shard before the run fails")
		backoff  = fs.Duration("backoff", 250*time.Millisecond, "base failover backoff, doubled per attempt")
		timeout  = fs.Duration("timeout", 0, "abort the whole run after this wall-clock duration (0 = no limit)")
		progress = fs.Bool("progress", false, "report per-point progress on stderr")
	)
	if err := fs.Parse(args); err != nil {
		return cli.ExitUsage
	}
	if *spec == "" || *workers == "" {
		fmt.Fprintln(stderr, "simc: -spec and -workers are required")
		fs.Usage()
		return cli.ExitUsage
	}
	urls := strings.Split(*workers, ",")
	for i := range urls {
		urls[i] = strings.TrimSpace(urls[i])
	}

	sw, err := harness.LoadSweep(*spec)
	if err != nil {
		fmt.Fprintf(stderr, "simc: %v\n", err)
		return cli.ExitSpec
	}
	if sw.Range != nil {
		fmt.Fprintf(stderr, "simc: %s carries a point range; simc shards the parent spec itself — hand ranged specs to a worker directly\n", *spec)
		return cli.ExitSpec
	}

	// Shards log concurrently; stderr need not be safe for concurrent use.
	var logMu sync.Mutex
	cfg := cluster.Config{
		Workers:       urls,
		StateDir:      *state,
		Shards:        *shards,
		Client:        *client,
		ShardAttempts: *attempts,
		RetryBackoff:  *backoff,
		Logf: func(format string, a ...any) {
			logMu.Lock()
			defer logMu.Unlock()
			fmt.Fprintf(stderr, "simc: "+format+"\n", a...)
		},
	}
	if *progress {
		title := sw.Title()
		cfg.Progress = func(done, total int) {
			logMu.Lock()
			defer logMu.Unlock()
			fmt.Fprintf(stderr, "%s: point %d/%d merged\n", title, done, total)
		}
	}
	c, err := cluster.New(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "simc: %v\n", err)
		return cli.ExitUsage
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	var sink sim.RowSink
	if *jsonOut {
		sink = sim.NewJSONLSink(stdout)
	} else {
		sink = sim.NewCSVSink(stdout)
	}
	if err := c.Run(ctx, *sw, sink); err != nil {
		if errors.Is(err, context.DeadlineExceeded) {
			fmt.Fprintf(stderr, "simc: timed out after %v (-timeout)\n", *timeout)
			return cli.ExitTimeout
		}
		fmt.Fprintf(stderr, "simc: %v\n", err)
		return cli.ExitRuntime
	}
	return cli.ExitOK
}
