package tracestore

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

// Every file or directory a process writes before it is complete — a
// slice file's temp name, a private spill store — carries the writer's
// pid: prefix, pid, "-", then a random suffix. A process killed
// mid-write leaves such a stray behind; the next process to look
// removes it once it can tell the writer is gone.
const (
	// tmpPrefix starts the name of every store file still being written.
	tmpPrefix = "tmp-"
	// spillPrefix starts the name of every private spill store under
	// os.TempDir().
	spillPrefix = "branchlab-spill-"
	// strayAge bounds how long an untouched stray may stay even when a
	// running process has its pid (the pid was reused). A live writer
	// touches its file with every chunk it appends, far more often.
	strayAge = 24 * time.Hour
)

// ownName is the CreateTemp/MkdirTemp pattern for a new entry with
// prefix written by this process.
func ownName(prefix string) string {
	return fmt.Sprintf("%s%d-*", prefix, os.Getpid())
}

// isStray reports whether the entry named name (which starts with
// prefix) was left by a writer that is gone: its pid no longer runs, or
// it has not been modified for strayAge. This process's own entries are
// never strays.
func isStray(name, prefix string, info fs.FileInfo) bool {
	pidText, _, ok := strings.Cut(strings.TrimPrefix(name, prefix), "-")
	pid, err := strconv.Atoi(pidText)
	if ok && err == nil {
		if pid == os.Getpid() {
			return false
		}
		if !processRunning(pid) {
			return true
		}
	}
	//lint:ignore determinism the sweep ages temp files by mtime; what it removes is never read back, so no artifact sees the clock
	return time.Now().Sub(info.ModTime()) > strayAge
}

// sweepStrays removes the strays with prefix directly under dir.
func sweepStrays(dir, prefix string) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		if !strings.HasPrefix(e.Name(), prefix) {
			continue
		}
		info, err := e.Info()
		if err != nil || !isStray(e.Name(), prefix, info) {
			continue
		}
		os.RemoveAll(filepath.Join(dir, e.Name()))
	}
}

// OpenSpill opens a private, uncapped store in a new directory under
// os.TempDir() whose name carries this process's pid, after removing
// the spill directories that processes no longer running left there.
// The store is the caller's alone: it removes the directory once it is
// done (os.RemoveAll of Dir, after Close).
func OpenSpill() (*Store, error) {
	tmp := os.TempDir()
	sweepStrays(tmp, spillPrefix)
	dir, err := os.MkdirTemp(tmp, ownName(spillPrefix))
	if err != nil {
		return nil, fmt.Errorf("tracestore: spill directory: %w", err)
	}
	s, err := Open(dir, 0)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	return s, nil
}
