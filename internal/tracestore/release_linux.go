package tracestore

import "syscall"

// releasePages drops a mapping's resident pages from the process once
// its last pin goes. The mapping stays valid: the next read refaults the
// same file bytes from the page cache. An error leaves the pages
// resident, which costs memory, never bytes, so it is ignored.
func releasePages(data []byte) {
	if len(data) > 0 {
		_ = syscall.Madvise(data, syscall.MADV_DONTNEED)
	}
}
