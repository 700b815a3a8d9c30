//go:build unix

package tracestore

import (
	"errors"
	"syscall"
)

// processRunning reports whether a process with this pid exists: signal
// 0 checks without sending anything, and EPERM means it exists under
// another user.
func processRunning(pid int) bool {
	if pid <= 0 {
		return false
	}
	err := syscall.Kill(pid, 0)
	return err == nil || errors.Is(err, syscall.EPERM)
}
