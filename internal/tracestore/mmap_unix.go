//go:build unix

package tracestore

import (
	"os"
	"syscall"
)

// mmapSupported reports whether this build maps slice files instead of
// reading them; it only selects which Stats counter a pin increments.
const mmapSupported = true

// mapFile loads a slice file for zero-copy serving: the whole file is
// mapped read-only and shared, so the returned bytes alias the page
// cache and cost no copy. The mapping stays valid until munmap — the
// store holds every mapping until Close, which is what lets pinned
// slices outlive disk-cap eviction of their files (DESIGN.md §11). Residency is
// separate from validity: when a mapping's last pin goes, releasePages
// drops its pages from the process (MADV_DONTNEED on Linux), and a
// later read refaults the same bytes from the page cache — a shared
// read-only file mapping has no private pages a release could lose.
func mapFile(f *os.File, size int64) (data []byte, mapped bool, err error) {
	if size == 0 {
		return nil, false, nil
	}
	data, err = syscall.Mmap(int(f.Fd()), 0, int(size), syscall.PROT_READ, syscall.MAP_SHARED)
	if err != nil {
		return nil, false, err
	}
	return data, true, nil
}

// unmapFile releases a mapping produced by mapFile.
func unmapFile(data []byte) error {
	if data == nil {
		return nil
	}
	return syscall.Munmap(data)
}
