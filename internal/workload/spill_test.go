package workload

import (
	"context"
	"testing"
	"unsafe"

	"branchlab/internal/trace"
	"branchlab/internal/tracecache"
)

// Every registered workload replays byte-identically through a capped
// cache that serves its slices from its private spill store: one
// recording per trace, no re-record and nothing on the heap. Runs
// under -race in CI's slow lane.
func TestSpillPromoteByteIdenticalAllWorkloads(t *testing.T) {
	const budget = 60_000
	const sliceLen = 15_000
	for _, s := range append(SPECint2017Like(), LCFLike()...) {
		t.Run(s.Name, func(t *testing.T) {
			t.Parallel()
			want := mustRecord(t, s, 0, budget)
			c := tracecache.NewSliced(sliceLen*int64(unsafe.Sizeof(trace.Inst{})), sliceLen)
			defer c.Close()
			v, err := c.RecordCtx(context.Background(), s.Name, 0, budget, s.Source(0, budget))
			if err != nil {
				t.Fatal(err)
			}
			for pass := 0; pass < 2; pass++ {
				n := 0
				bs := v.BlockStream(0)
				for blk := bs.NextBlock(); len(blk) > 0; blk = bs.NextBlock() {
					for _, inst := range blk {
						if inst != want.At(n) {
							t.Fatalf("pass %d: instruction %d differs from the uncached recording", pass, n)
						}
						n++
					}
				}
				if n != want.Len() {
					t.Fatalf("pass %d: %d instructions, want %d", pass, n, want.Len())
				}
			}
			if st := c.Stats(); st.Misses != 1 || st.SliceRerecords != 0 || st.DiskSliceHits == 0 || st.Slices != 0 {
				t.Fatalf("stats = %+v, want 1 recording, store hits, no re-record and nothing on the heap", st)
			}
		})
	}
}
