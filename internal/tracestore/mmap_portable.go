//go:build !unix

package tracestore

import (
	"io"
	"os"
)

// mmapSupported reports whether this build maps slice files instead of
// reading them; it only selects which Stats counter a pin increments.
const mmapSupported = false

// mapFile is the portability fallback for hosts without syscall.Mmap:
// the file is read whole into a heap buffer. One copy instead of zero,
// identical bytes, identical verification — the rest of the store
// cannot tell the difference (mapped=false skips munmap on Close and
// the page release when a buffer's last pin goes: a heap copy stays
// resident until Close).
func mapFile(f *os.File, size int64) (data []byte, mapped bool, err error) {
	if size == 0 {
		return nil, false, nil
	}
	data = make([]byte, size)
	if _, err := io.ReadFull(f, data); err != nil {
		return nil, false, err
	}
	return data, false, nil
}

// unmapFile releases a mapping produced by mapFile; heap buffers have
// nothing to release.
func unmapFile([]byte) error { return nil }
