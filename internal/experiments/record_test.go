package experiments

import (
	"context"
	"testing"

	"branchlab/internal/tracecache"
	"branchlab/internal/workload"
)

// TestRecordTraceNilCacheShardedByteIdentical: without a cache,
// RecordTrace still records sharded — RecordShards workers over
// tracecache.DefaultSliceInsts slices — and the joined slices must be
// byte-identical to a plain sequential recording.
func TestRecordTraceNilCacheShardedByteIdentical(t *testing.T) {
	cfg := quickCfg()
	cfg.Budget = 4 * tracecache.DefaultSliceInsts // four slices: one per shard
	cfg.Workers = 4
	cfg.RecordShards = 4
	for _, s := range []*workload.Spec{workload.SPECint2017Like()[0], workload.LCFLike()[0]} {
		want, err := s.RecordCtx(context.Background(), 0, cfg.Budget)
		if err != nil {
			t.Fatal(err)
		}
		got := mustRecord(t, cfg, s, 0)
		if got.Len() != want.Len() {
			t.Fatalf("%s: length %d, want %d", s.Name, got.Len(), want.Len())
		}
		i := 0
		st := got.BlockStream(0)
		for blk := st.NextBlock(); len(blk) > 0; blk = st.NextBlock() {
			for _, inst := range blk {
				if inst != want.At(i) {
					t.Fatalf("%s: instruction %d differs from RecordCtx", s.Name, i)
				}
				i++
			}
		}
	}
}
