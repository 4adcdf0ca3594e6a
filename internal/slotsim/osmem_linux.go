//go:build linux

package slotsim

import (
	"math/bits"
	"syscall"
	"unsafe"
)

// canReserve reports whether reserveRegion can succeed: a 64-bit address
// space has room for the pool's reservations, a 32-bit one does not.
const canReserve = bits.UintSize == 64

// reserveRegion reserves size bytes of address space, plus a huge page of
// slack to align them: PROT_NONE with MAP_NORESERVE, so it costs neither
// memory nor commit charge until commitRegion opens a prefix of it. data is
// the hugePage-aligned usable part, advised MADV_HUGEPAGE; whole is the
// mapping as made, for releaseRegion. ok is false where no reservation can
// be had: a 32-bit address space or an mmap error.
func reserveRegion(size int) (whole, data []byte, ok bool) {
	if !canReserve {
		return nil, nil, false
	}
	whole, err := syscall.Mmap(-1, 0, size+hugePage, syscall.PROT_NONE,
		syscall.MAP_PRIVATE|syscall.MAP_ANONYMOUS|syscall.MAP_NORESERVE)
	if err != nil {
		return nil, nil, false
	}
	off := -int(uintptr(unsafe.Pointer(&whole[0]))) & (hugePage - 1)
	data = whole[off : off+size]
	// A hint: where transparent huge pages are off, the region faults in
	// base pages and the run is otherwise the same.
	_ = syscall.Madvise(data, syscall.MADV_HUGEPAGE)
	return whole, data, true
}

// commitRegion makes b, a hugePage-aligned slice of a reservation, readable
// and writable. Its pages stay unbacked, and read as zero, until touched.
func commitRegion(b []byte) bool {
	return syscall.Mprotect(b, syscall.PROT_READ|syscall.PROT_WRITE) == nil
}

// releaseRegion unmaps a reservation, committed pages included.
func releaseRegion(whole []byte) {
	_ = syscall.Munmap(whole)
}
