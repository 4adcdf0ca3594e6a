//go:build !amd64 && !arm64

package slotsim

import "unsafe"

// prefetch is a no-op where the kernel has no prefetch routine; it inlines
// away.
func prefetch(p unsafe.Pointer) {}
