//go:build !linux

package slotsim

// canReserve is false off Linux: every array stays on the Go heap.
const canReserve = false

// reserveRegion makes no reservation off Linux.
func reserveRegion(size int) (whole, data []byte, ok bool) { return nil, nil, false }

// commitRegion is never reached: no region exists to commit.
func commitRegion(b []byte) bool { return false }

// releaseRegion is never reached: no region exists to release.
func releaseRegion(whole []byte) {}
