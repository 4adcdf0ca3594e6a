//go:build unix

package slotsim

import "syscall"

// minorFaults returns the process's minor page faults so far, and whether
// the platform reports them.
func minorFaults() (int64, bool) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, false
	}
	return int64(ru.Minflt), true
}
