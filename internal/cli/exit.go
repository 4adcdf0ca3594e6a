// Package cli holds the conventions shared by this repository's command-line
// binaries (cmd/run, cmd/sweep, cmd/simd).
//
// Exit codes are uniform across commands so scripts and CI can branch on the
// failure class instead of parsing stderr:
//
//	0  ExitOK       success
//	1  ExitRuntime  the simulation (or another runtime step) failed
//	2  ExitUsage    bad flags or arguments (the flag package's convention)
//	3  ExitSpec     a spec file failed to load or validate
//	4  ExitTimeout  the -timeout deadline expired before the work finished
//
// The distinction that matters operationally: ExitSpec means the input is
// wrong and retrying is pointless; ExitTimeout means the work was fine but
// slow, so retrying with a larger -timeout (or resuming from a -checkpoint
// journal) is the fix; ExitRuntime is everything else.
package cli

const (
	// ExitOK is a successful run.
	ExitOK = 0
	// ExitRuntime is a runtime failure: the spec was valid but executing it
	// (or writing its outputs) failed.
	ExitRuntime = 1
	// ExitUsage is a command-line usage error: unknown flags, missing
	// arguments, flags that contradict each other.
	ExitUsage = 2
	// ExitSpec is a spec load/validation failure: malformed JSON, unknown
	// fields, values that fail scenario validation.
	ExitSpec = 3
	// ExitTimeout is a -timeout expiry: the invocation's wall-clock deadline
	// passed before the work completed.
	ExitTimeout = 4
)
