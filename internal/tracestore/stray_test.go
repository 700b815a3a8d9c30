package tracestore

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// deadPID is a pid no process can have: above every kernel's pid_max.
const deadPID = 1<<31 - 1

// plant creates a file (or, with dir set, a directory) at path, aged by
// age.
func plant(t *testing.T, path string, dir bool, age time.Duration) {
	t.Helper()
	var err error
	if dir {
		err = os.Mkdir(path, 0o755)
	} else {
		err = os.WriteFile(path, []byte("stray"), 0o644)
	}
	if err != nil {
		t.Fatal(err)
	}
	old := time.Now().Add(-age)
	if err := os.Chtimes(path, old, old); err != nil {
		t.Fatal(err)
	}
}

// exists reports whether path is still there.
func exists(t *testing.T, path string) bool {
	t.Helper()
	_, err := os.Stat(path)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		t.Fatal(err)
	}
	return err == nil
}

// Open removes the tmp-* files of writers that are gone — a pid no
// longer running, or a file untouched past strayAge — and leaves a live
// writer's file alone: this process's, and a fresh one whose pid runs.
func TestOpenRemovesStrayTempFiles(t *testing.T) {
	if !processRunning(os.Getppid()) {
		t.Skip("this platform cannot tell whether a pid runs")
	}
	dir := t.TempDir()
	k := testKey()
	s := mustOpen(t, dir, 0)
	if err := s.WriteSlice(k, 0, testInsts(64, 3)); err != nil {
		t.Fatal(err)
	}
	s.Close()
	traceDir, _ := s.tracePath(k)
	name := func(pid int) string { return filepath.Join(traceDir, fmt.Sprintf("%s%d-7", tmpPrefix, pid)) }
	dead := name(deadPID)
	stale := name(os.Getppid()) + "-stale"
	own := name(os.Getpid())
	live := name(os.Getppid())
	plant(t, dead, false, 0)
	plant(t, stale, false, strayAge+time.Hour)
	plant(t, own, false, strayAge+time.Hour)
	plant(t, live, false, time.Minute)

	mustOpen(t, dir, 0)
	for path, keep := range map[string]bool{dead: false, stale: false, own: true, live: true} {
		if got := exists(t, path); got != keep {
			t.Errorf("%s: exists = %v after Open, want %v", filepath.Base(path), got, keep)
		}
	}
	if !exists(t, slicePath(s, k, 0)) {
		t.Error("Open removed a committed slice file")
	}
}

// OpenSpill removes the spill directories of processes that are gone
// from the temp directory, keeps a running process's, and creates its
// own under this process's pid.
func TestOpenSpillSweepsDeadSpillDirs(t *testing.T) {
	if !processRunning(os.Getppid()) {
		t.Skip("this platform cannot tell whether a pid runs")
	}
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	dead := filepath.Join(tmp, fmt.Sprintf("%s%d-1", spillPrefix, deadPID))
	live := filepath.Join(tmp, fmt.Sprintf("%s%d-2", spillPrefix, os.Getppid()))
	plant(t, dead, true, 0)
	if err := os.WriteFile(filepath.Join(dead, "header"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	plant(t, live, true, time.Minute)
	other := filepath.Join(tmp, "unrelated-1-1")
	plant(t, other, true, strayAge+time.Hour)

	s, err := OpenSpill()
	if err != nil {
		t.Fatal(err)
	}
	defer os.RemoveAll(s.Dir())
	defer s.Close()
	if exists(t, dead) {
		t.Error("OpenSpill kept a dead process's spill directory")
	}
	if !exists(t, live) || !exists(t, other) {
		t.Error("OpenSpill removed a running process's spill directory or an unrelated one")
	}
	want := fmt.Sprintf("%s%d-", spillPrefix, os.Getpid())
	if got := filepath.Base(s.Dir()); filepath.Dir(s.Dir()) != tmp || len(got) <= len(want) || got[:len(want)] != want {
		t.Errorf("spill directory %s, want %s/%s*", s.Dir(), tmp, want)
	}
}
