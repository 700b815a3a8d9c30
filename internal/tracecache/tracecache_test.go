package tracecache

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"branchlab/internal/engine"
	"branchlab/internal/program"
	"branchlab/internal/trace"
)

// mkInsts builds instructions [lo, hi) of the synthetic test trace,
// whose DstValue encodes the global instruction index so prefix, slice
// and re-record identity are all checkable.
func mkInsts(lo, hi int) []trace.Inst {
	out := make([]trace.Inst, 0, hi-lo)
	for i := lo; i < hi; i++ {
		out = append(out, trace.Inst{IP: 0x400000 + uint64(i)*4, Kind: trace.KindALU, DstValue: uint64(i)})
	}
	return out
}

// mkBuffer is the whole test trace as a Buffer (the uncached reference).
func mkBuffer(n int) *trace.Buffer { return trace.FromSlice(mkInsts(0, n)) }

// source is a counting Source over an n-instruction deterministic trace.
type source struct {
	n       int
	records atomic.Int64 // whole recordings performed
}

func (s *source) Source() Source {
	return Source{
		Record: func(_ context.Context, sliceLen uint64, _ program.SliceSink) ([][]trace.Inst, error) {
			s.records.Add(1)
			if sliceLen == 0 || sliceLen >= uint64(s.n) {
				return [][]trace.Inst{mkInsts(0, s.n)}, nil
			}
			var out [][]trace.Inst
			for lo := 0; lo < s.n; lo += int(sliceLen) {
				out = append(out, mkInsts(lo, min(lo+int(sliceLen), s.n)))
			}
			return out, nil
		},
	}
}

// newCapped is NewSliced for a test: the cache is closed, removing any
// spill store it opened, when the test ends.
func newCapped(t *testing.T, maxBytes int64, sliceInsts uint64) *Cache {
	t.Helper()
	c := NewSliced(maxBytes, sliceInsts)
	t.Cleanup(func() {
		if err := c.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	})
	return c
}

// record is RecordCtx under the background context, failing the test
// on error. Call it from the test goroutine only.
func record(t *testing.T, c *Cache, name string, input int, budget uint64, src Source) trace.Replayable {
	t.Helper()
	v, err := c.RecordCtx(context.Background(), name, input, budget, src)
	if err != nil {
		t.Fatalf("RecordCtx(%s/%d/%d): %v", name, input, budget, err)
	}
	return v
}

// values enumerates tr's DstValue fields in trace order.
func values(tr trace.Replayable) []uint64 {
	var out []uint64
	s := tr.BlockStream(0)
	for blk := s.NextBlock(); len(blk) > 0; blk = s.NextBlock() {
		for i := range blk {
			out = append(out, blk[i].DstValue)
		}
	}
	return out
}

func drain(t *testing.T, tr trace.Replayable) []uint64 {
	t.Helper()
	out := values(tr)
	if len(out) != tr.Len() {
		t.Fatalf("stream yielded %d insts, Len() says %d", len(out), tr.Len())
	}
	return out
}

// checkIdentity verifies a drained view against the reference trace.
func checkIdentity(t *testing.T, vals []uint64) {
	t.Helper()
	for i, v := range vals {
		if v != uint64(i) {
			t.Fatalf("inst %d has value %d, want %d", i, v, i)
		}
	}
}

// heapSlices returns which of v's slices are heap-resident.
func heapSlices(c *Cache, v trace.Replayable) []bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []bool
	for _, a := range v.(*view).e.heap {
		out = append(out, a != nil)
	}
	return out
}

// TestSliceEvictionAccounting pins the exactness of the slice-level
// counters of a capped cache: every committed slice lives in the store,
// none on the heap, and each pin of a slice is one store hit.
func TestSliceEvictionAccounting(t *testing.T) {
	// 40-instruction trace in 10-instruction slices.
	c := newCapped(t, 2*10*instBytes, 10)
	src := &source{n: 40}
	v := record(t, c, "w", 0, 40, src.Source())
	st := c.Stats()
	if st.Slices != 0 || st.BytesInUse != 0 {
		t.Fatalf("after insert: %d slices, %d bytes on the heap; want none (every slice committed)", st.Slices, st.BytesInUse)
	}
	if st.Entries != 1 {
		t.Fatalf("entries = %d, want 1", st.Entries)
	}
	// Replay the whole view twice: every slice pin is served from the
	// spill store, and the content is byte-identical to the reference.
	for pass := 1; pass <= 2; pass++ {
		checkIdentity(t, drain(t, v))
		st = c.Stats()
		if st.DiskSliceHits != uint64(4*pass) || st.SliceHits != 0 {
			t.Fatalf("pass %d: %d store hits, %d heap hits; want %d and 0", pass, st.DiskSliceHits, st.SliceHits, 4*pass)
		}
	}
	if st.SliceRerecords != 0 || src.records.Load() != 1 {
		t.Fatalf("SliceRerecords = %d, recordings = %d; want 0 and 1", st.SliceRerecords, src.records.Load())
	}
	if st.BytesInUse != 0 || st.Slices != 0 {
		t.Fatalf("after replay: bytes=%d slices=%d, want nothing on the heap", st.BytesInUse, st.Slices)
	}
	for i, onHeap := range heapSlices(c, v) {
		if onHeap {
			t.Fatalf("after replay: slice %d is on the heap", i)
		}
	}
}

// TestEvictedSliceReRecordByteIdentity serves a capped cache's slices
// from its spill store at several slice geometries and checks repeated
// full replays against the uncached reference — the byte-invisibility
// contract. The trace records once.
func TestEvictedSliceReRecordByteIdentity(t *testing.T) {
	const n = 100
	for _, sliceLen := range []uint64{1, 3, 7, 16, 64, 100, 1000} {
		c := newCapped(t, int64(min(sliceLen, n))*instBytes, sliceLen)
		src := &source{n: n}
		v := record(t, c, "w", 0, n, src.Source())
		for pass := 0; pass < 2; pass++ {
			checkIdentity(t, drain(t, v))
		}
		slices := (n + sliceLen - 1) / sliceLen
		if st := c.Stats(); st.DiskSliceHits != 2*slices || st.Slices != 0 {
			t.Fatalf("sliceLen=%d: %d store hits, %d heap slices; want %d and 0", sliceLen, st.DiskSliceHits, st.Slices, 2*slices)
		}
		if src.records.Load() != 1 {
			t.Fatalf("sliceLen=%d: full recorder ran %d times, want 1", sliceLen, src.records.Load())
		}
	}
}

// TestWholeTraceGranularityZeroSlice: a cache built with slice
// granularity 0 holds each trace as a single slice and serves it whole
// from the spill store.
func TestWholeTraceGranularityZeroSlice(t *testing.T) {
	c := newCapped(t, 10*instBytes, 0)
	src := &source{n: 100}
	v := record(t, c, "w", 0, 100, src.Source())
	checkIdentity(t, drain(t, v))
	if src.records.Load() != 1 {
		t.Fatalf("records=%d, want 1", src.records.Load())
	}
	if st := c.Stats(); st.DiskSliceHits != 1 || st.SliceRerecords != 0 || st.Slices != 0 {
		t.Fatalf("stats = %+v, want the one slice served once from the store, no re-record, none on the heap", st)
	}
}

func TestCapSmallerThanOneTrace(t *testing.T) {
	// A cap smaller than a single slice serves the slice from the store
	// on every replay, returns correct traces and keeps nothing on the
	// heap.
	c := newCapped(t, 10*instBytes, 100)
	src := &source{n: 100}
	for i := 0; i < 3; i++ {
		v := record(t, c, "w", 0, 100, src.Source())
		if v.Len() != 100 {
			t.Fatalf("iteration %d: got %d insts, want 100", i, v.Len())
		}
		checkIdentity(t, drain(t, v))
	}
	if src.records.Load() != 1 {
		t.Fatalf("full recorder ran %d times, want 1", src.records.Load())
	}
	if st := c.Stats(); st.DiskSliceHits != 3 {
		t.Fatalf("slice served %d times from the store, want 3 (once per replay)", st.DiskSliceHits)
	}
	if st := c.Stats(); st.Slices != 0 || st.BytesInUse != 0 {
		t.Fatalf("stats = %+v, want no heap slices", st)
	}
}

// TestCappedResidencyBelowWholeTrace is the acceptance bound: replaying
// a whole trace through a capped cache keeps no slice on the heap at
// any sample point.
func TestCappedResidencyBelowWholeTrace(t *testing.T) {
	const n = 1000
	c := newCapped(t, 3*100*instBytes, 100)
	src := &source{n: n}
	v := record(t, c, "w", 0, n, src.Source())
	bs := v.BlockStream(64)
	for blk := bs.NextBlock(); len(blk) > 0; blk = bs.NextBlock() {
		if st := c.Stats(); st.BytesInUse != 0 {
			t.Fatalf("%d bytes on the heap mid-replay, want 0", st.BytesInUse)
		}
	}
	if st := c.Stats(); st.DiskSliceHits != 10 {
		t.Fatalf("replay served %d slices from the store, want 10", st.DiskSliceHits)
	}
}

func TestSingleflight(t *testing.T) {
	c := New(0)
	src := &source{n: 5000}
	const goroutines = 16
	var start, done sync.WaitGroup
	start.Add(1)
	done.Add(goroutines)
	lens := make([]int, goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			defer done.Done()
			start.Wait()
			v, err := c.RecordCtx(context.Background(), "w", 0, 5000, src.Source())
			if err != nil {
				t.Error(err)
				return
			}
			lens[g] = v.Len()
		}(g)
	}
	start.Done()
	done.Wait()
	if src.records.Load() != 1 {
		t.Fatalf("recorder ran %d times under %d concurrent requests, want 1", src.records.Load(), goroutines)
	}
	for g := 0; g < goroutines; g++ {
		if lens[g] != 5000 {
			t.Fatalf("goroutine %d got a %d-inst trace, want 5000", g, lens[g])
		}
	}
	st := c.Stats()
	if st.Misses != 1 || st.Hits+st.Coalesced != goroutines-1 {
		t.Fatalf("stats = %+v, want 1 miss and %d hits+coalesced", st, goroutines-1)
	}
}

// TestConcurrentEvictedReplay hammers a capped cache from many
// goroutines: every stream pins its slices from the spill store and
// every replay must be byte-identical (run under -race).
func TestConcurrentEvictedReplay(t *testing.T) {
	c := newCapped(t, 16*instBytes, 16)
	src := &source{n: 256}
	v := record(t, c, "w", 0, 256, src.Source())
	const goroutines = 8
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i, val := range values(v) {
				if val != uint64(i) {
					t.Errorf("goroutine %d: inst %d = %d, want %d", g, i, val, i)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestConcurrentMixedKeys(t *testing.T) {
	c := New(0)
	var records atomic.Int64
	const goroutines = 32
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			name := "even"
			if g%2 == 1 {
				name = "odd"
			}
			src := &source{n: 1000}
			v, err := c.RecordCtx(context.Background(), name, g%4/2, 1000, src.Source())
			records.Add(src.records.Load())
			if err != nil {
				t.Error(err)
				return
			}
			if v.Len() != 1000 {
				t.Errorf("bad recording length %d", v.Len())
			}
		}(g)
	}
	wg.Wait()
	// 2 names x 2 inputs = 4 distinct keys, each recorded exactly once.
	if records.Load() != 4 {
		t.Fatalf("recorder ran %d times, want 4", records.Load())
	}
	if st := c.Stats(); st.Misses != 4 || st.Entries != 4 {
		t.Fatalf("stats = %+v, want 4 misses and 4 entries", st)
	}
}

// TestMemoFromRematerializedSlices: a memoized derived result computed
// over slices served from the spill store must equal the same
// computation over the uncached trace — the store is byte-invisible to
// Memo inputs — and subsequent calls must be memo hits.
func TestMemoFromRematerializedSlices(t *testing.T) {
	sum := func(tr trace.Replayable) uint64 {
		var s uint64
		for _, val := range values(tr) {
			s += val
		}
		return s
	}
	want := sum(mkBuffer(100))

	c := newCapped(t, 10*instBytes, 10) // capped: every slice is served from the store
	src := &source{n: 100}
	v := record(t, c, "w", 0, 100, src.Source())
	var computes atomic.Int64
	got := c.Memo("sum/w/0", func() any {
		computes.Add(1)
		return sum(v)
	}).(uint64)
	if got != want {
		t.Fatalf("memo over re-materialized slices = %d, want %d", got, want)
	}
	if st := c.Stats(); st.DiskSliceHits == 0 {
		t.Fatal("memo computation never touched a store-served slice")
	}
	again := c.Memo("sum/w/0", func() any {
		computes.Add(1)
		return sum(v)
	}).(uint64)
	if again != want || computes.Load() != 1 {
		t.Fatalf("second memo call recomputed (%d computes) or differed (%d)", computes.Load(), again)
	}
}

func TestMemoSingleflight(t *testing.T) {
	c := New(0)
	var calls atomic.Int64
	const goroutines = 16
	var start, done sync.WaitGroup
	start.Add(1)
	done.Add(goroutines)
	vals := make([]any, goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			defer done.Done()
			start.Wait()
			vals[g] = c.Memo("screen/w/0", func() any {
				calls.Add(1)
				return &Stats{Hits: 42}
			})
		}(g)
	}
	start.Done()
	done.Wait()
	if calls.Load() != 1 {
		t.Fatalf("memo fn ran %d times under %d concurrent requests, want 1", calls.Load(), goroutines)
	}
	for g := 1; g < goroutines; g++ {
		if vals[g] != vals[0] {
			t.Fatalf("goroutine %d got a different memo value", g)
		}
	}
	st := c.Stats()
	if st.MemoMisses != 1 || st.MemoHits != goroutines-1 {
		t.Fatalf("stats = %+v, want 1 memo miss and %d memo hits", st, goroutines-1)
	}
	// Distinct keys compute independently.
	c.Memo("screen/w/1", func() any { calls.Add(1); return nil })
	if calls.Load() != 2 {
		t.Fatalf("distinct memo key did not compute; calls = %d", calls.Load())
	}
}

func TestNilCacheMemoPassthrough(t *testing.T) {
	var c *Cache
	var calls atomic.Int64
	for i := 0; i < 2; i++ {
		c.Memo("k", func() any { calls.Add(1); return i })
		c.Pass("p", func() any { calls.Add(1); return i })
	}
	if calls.Load() != 4 {
		t.Fatalf("nil cache memoized; calls = %d, want 4", calls.Load())
	}
}

// TestPassTablesCountApart: Pass shares Memo's single flight but counts
// in PassHits/PassMisses, leaving the memo counters to count cells.
func TestPassTablesCountApart(t *testing.T) {
	c := New(0)
	var calls atomic.Int64
	const goroutines = 8
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func() {
			defer wg.Done()
			c.Pass("ann/w/0/100", func() any { calls.Add(1); return []byte{1} })
		}()
	}
	wg.Wait()
	c.Memo("ipc/w/0/100/1/perfect", func() any { calls.Add(1); return 0 })
	st := c.Stats()
	if calls.Load() != 2 || st.PassMisses != 1 || st.PassHits != goroutines-1 || st.MemoMisses != 1 || st.MemoHits != 0 {
		t.Fatalf("calls = %d, stats = %+v; want 1 pass miss, %d pass hits, 1 memo miss", calls.Load(), st, goroutines-1)
	}
	if !strings.Contains(st.String(), "pass=7/8") || !strings.Contains(st.Table().String(), "pass misses") {
		t.Errorf("pass counters not rendered: %s", st.String())
	}
}

// TestPassPanicWithdraws: a pass computation that panics is withdrawn,
// so the next caller recomputes instead of receiving a poisoned entry.
func TestPassPanicWithdraws(t *testing.T) {
	c := New(0)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("pass panic swallowed")
			}
		}()
		c.Pass("pred/w/0/100/tage-8kb", func() any { panic("boom") })
	}()
	if got := c.Pass("pred/w/0/100/tage-8kb", func() any { return 7 }); got != 7 {
		t.Fatalf("retry after a panicked pass = %v, want 7", got)
	}
	if st := c.Stats(); st.PassMisses != 2 {
		t.Fatalf("pass misses = %d, want 2 (the panicked try and the retry)", st.PassMisses)
	}
}

func TestNilCachePassthrough(t *testing.T) {
	var c *Cache
	src := &source{n: 10}
	for i := 0; i < 2; i++ {
		if v := record(t, c, "w", 0, 10, src.Source()); v.Len() != 10 {
			t.Fatal("nil cache must pass recordings through")
		}
	}
	if src.records.Load() != 2 {
		t.Fatalf("nil cache recorded %d times, want 2 (no caching)", src.records.Load())
	}
	if st := c.Stats(); st != (Stats{}) {
		t.Fatalf("nil cache stats = %+v, want zero", st)
	}
}

func TestStatsRendering(t *testing.T) {
	c := newCapped(t, 1<<20, DefaultSliceInsts)
	src := &source{n: 10}
	record(t, c, "w", 0, 10, src.Source())
	record(t, c, "w", 0, 10, src.Source())
	st := c.Stats()
	if st.String() == "" {
		t.Fatal("empty String rendering")
	}
	tab := st.Table()
	if len(tab.Rows) != 1 {
		t.Fatalf("stats table has %d rows, want 1", len(tab.Rows))
	}
	if tab.Rows[0][0] != "1" || tab.Rows[0][2] != "1" {
		t.Fatalf("stats table row = %v, want hits=1 misses=1", tab.Rows[0])
	}
	if len(tab.Headers) != len(tab.Rows[0]) {
		t.Fatalf("table has %d headers but %d cells", len(tab.Headers), len(tab.Rows[0]))
	}
}

// budgetSource synthesizes a trace whose content depends on the budget
// — the payload shape that makes prefix serving wrong (every workload
// generator scales its static structure with the budget). DstValue
// encodes (budget, index).
type budgetSource struct {
	budget  int
	records atomic.Int64
}

func (s *budgetSource) insts(lo, hi int) []trace.Inst {
	out := make([]trace.Inst, 0, hi-lo)
	for i := lo; i < hi; i++ {
		out = append(out, trace.Inst{IP: 0x400000 + uint64(i)*4, Kind: trace.KindALU,
			DstValue: uint64(s.budget)<<32 | uint64(i)})
	}
	return out
}

func (s *budgetSource) Source() Source {
	return Source{
		Record: func(context.Context, uint64, program.SliceSink) ([][]trace.Inst, error) {
			s.records.Add(1)
			return [][]trace.Inst{s.insts(0, s.budget)}, nil
		},
	}
}

// TestBudgetSensitiveNotServedPrefix guards the cache key: each budget
// is its own entry. A trace requested at a smaller budget than a cached
// recording must get its own recording at that budget, not a truncated
// prefix of the larger one — the two traces differ byte-for-byte for
// payloads whose structure scales with the budget.
func TestBudgetSensitiveNotServedPrefix(t *testing.T) {
	c := New(0)
	big := &budgetSource{budget: 100}
	small := &budgetSource{budget: 50}
	record(t, c, "w", 0, 100, big.Source())
	half := record(t, c, "w", 0, 50, small.Source())
	if small.records.Load() != 1 {
		t.Fatalf("smaller budget was served without recording (%d recordings): truncated prefix of a larger trace",
			small.records.Load())
	}
	if half.Len() != 50 {
		t.Fatalf("smaller-budget trace has %d insts, want 50", half.Len())
	}
	for i, val := range values(half) {
		if want := uint64(50)<<32 | uint64(i); val != want {
			t.Fatalf("inst %d = %#x, want %#x (the budget-50 synthesis, not the budget-100 prefix)",
				i, val, want)
		}
	}
	// Each budget is its own entry; repeat requests at either budget hit.
	record(t, c, "w", 0, 100, big.Source())
	record(t, c, "w", 0, 50, small.Source())
	if big.records.Load() != 1 || small.records.Load() != 1 {
		t.Fatalf("repeat requests re-recorded (big=%d small=%d)", big.records.Load(), small.records.Load())
	}
	if stt := c.Stats(); stt.Entries != 2 {
		t.Fatalf("entries = %d, want 2 (one per budget)", stt.Entries)
	}
}

// TestRerecordFailurePanicsTyped: a whole-trace re-record that fails
// breaks the cache's invariant (a recorded deterministic payload always
// records again), so it panics instead of serving nothing. Inside an
// engine work unit that panic fails the run with a *PanicError naming
// the trace; the process survives.
func TestRerecordFailurePanicsTyped(t *testing.T) {
	inner := (&source{n: 100}).Source()
	var calls atomic.Int64
	src := Source{Record: func(ctx context.Context, sliceLen uint64, sink program.SliceSink) ([][]trace.Inst, error) {
		if calls.Add(1) > 1 {
			return nil, errors.New("payload diverged")
		}
		return inner.Record(ctx, sliceLen, sink)
	}}
	c := newCapped(t, 10*instBytes, 10) // capped: every slice is served from the store
	v := record(t, c, "rerecfail", 3, 100, src)
	// Lose every stored slice, so the next pin must re-record.
	files, _ := filepath.Glob(filepath.Join(c.spill.Dir(), "*", "s*"))
	if len(files) == 0 {
		t.Fatal("the spill store holds no slice files")
	}
	for _, f := range files {
		os.Remove(f)
	}
	for _, workers := range []int{1, 4} {
		_, err := engine.MapErr(context.Background(), engine.New(workers), 2,
			func(context.Context, int) (int, error) {
				n := 0
				bs := v.BlockStream(0)
				for blk := bs.NextBlock(); len(blk) > 0; blk = bs.NextBlock() {
					n += len(blk)
				}
				return n, nil
			})
		var pe *engine.PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("workers=%d: replay over a failing re-record = %v, want *engine.PanicError", workers, err)
		}
		if msg := err.Error(); !strings.Contains(msg, "rerecfail input 3") || !strings.Contains(msg, "payload diverged") {
			t.Fatalf("workers=%d: panic error %q does not name the trace and cause", workers, msg)
		}
	}
}
