//go:build !unix

package slotsim

// minorFaults reports that the platform has no getrusage fault counts.
func minorFaults() (int64, bool) { return 0, false }
