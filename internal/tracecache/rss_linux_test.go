package tracecache

import (
	"bufio"
	"os"
	"strconv"
	"strings"
	"testing"
)

// fileBackedRSS returns this process's file-backed resident set in
// bytes: RssFile plus RssShmem, since a store on tmpfs maps shmem pages.
func fileBackedRSS(t *testing.T) int64 {
	t.Helper()
	f, err := os.Open("/proc/self/status")
	if err != nil {
		t.Skipf("no /proc/self/status: %v", err)
	}
	defer f.Close()
	var kib int64
	found := 0
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 2 || (fields[0] != "RssFile:" && fields[0] != "RssShmem:") {
			continue
		}
		v, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			t.Fatalf("parse %q: %v", sc.Text(), err)
		}
		kib += v
		found++
	}
	if found != 2 {
		t.Skip("/proc/self/status has no RssFile/RssShmem lines")
	}
	return kib << 10
}

// TestWarmReplayRSSFollowsCap: replaying a stored 50 MiB trace through
// an 8 MiB cache maps every one of its ten 5 MiB slices, but each
// mapping's pages go once its last pin does and the cache holds no pin
// of its own, so the file-backed resident set grows by less than one
// slice, not by the whole trace.
func TestWarmReplayRSSFollowsCap(t *testing.T) {
	if testing.Short() {
		t.Skip("writes and maps a 50 MiB store")
	}
	const sliceLen = 1 << 17 // 5 MiB of instructions
	const n = 10 * sliceLen
	dir := t.TempDir()
	warmStore(t, dir, n, sliceLen)

	c, st := withStore(t, dir, 8<<20, sliceLen)
	v := record(t, c, "w", 0, n, (&source{n: n}).Source())
	before := fileBackedRSS(t)
	checkIdentity(t, drain(t, v))
	grew := fileBackedRSS(t) - before

	if hits := c.Stats().DiskSliceHits; hits != 10 {
		t.Fatalf("replay served %d slices from the store, want 10", hits)
	}
	if limit := sliceLen * instBytes; grew >= limit {
		t.Fatalf("file-backed RSS grew %d MiB over the replay, want < %d MiB (one slice)",
			grew>>20, limit>>20)
	}
	t.Logf("file-backed RSS grew %.1f MiB; store peak resident %.1f MiB",
		float64(grew)/(1<<20), float64(st.Stats().PeakResident)/(1<<20))
}
