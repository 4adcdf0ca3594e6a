//go:build amd64 || arm64

package slotsim

import "unsafe"

// prefetch asks the CPU to bring the cache line holding p into the nearest
// cache. It is a hint: it neither waits for the line nor faults, so the miss
// it starts overlaps the work that follows. Go has no prefetch intrinsic
// outside the runtime, and a plain load of the same address would hold up
// retirement until its line arrived.
//
//go:noescape
func prefetch(p unsafe.Pointer)
