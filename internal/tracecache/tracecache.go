// Package tracecache is a content-keyed, concurrency-safe cache of
// recorded workload traces, shared across one experiments invocation.
//
// Every figure/table driver materializes the same (workload, input)
// traces independently, so a full `cmd/experiments -run all` run used to
// synthesize each trace up to ~10 times. The cache keys recordings on
// (workload name, input, budget) — every budget is its own entry,
// because generators scale static structure with the budget (see
// program.Emitter.Budget), so a shorter trace is not a prefix of a
// longer one — and concurrent requests for the same key block on one
// in-flight recording instead of each recording their own copy
// (singleflight). Within one experiments invocation every driver records
// at the same configured budget, so each (workload, input) trace is
// recorded exactly once and `-run all` output stays byte-identical to
// uncached runs.
//
// Storage is slice-granular: a cached trace is a small header plus
// fixed-size slices. RecordCtx returns a trace.Replayable view whose
// streams serve zero-copy instruction blocks one slice at a time.
//
// One rule decides where a slice lives (DESIGN.md §5, §11). A cache
// without a store keeps every slice on the heap. A cache with a store
// keeps on the heap only the slices whose store file failed to commit,
// and the traces it had to re-record (below); every other slice is
// served from the store as a checksum-verified zero-copy mapping of the
// bytes the recording streamed to disk while it recorded, and each
// stream holds its own pin on the slice it reads.
// The kernel's page cache is then the RAM tier: resident memory follows
// the live pins. A capped cache with no store attached opens a private,
// uncapped spill store under os.TempDir() the first time it records,
// and Close removes it; the cap selects that mode and bounds nothing
// else. A stored slice that is missing or rejected makes the cache
// re-record the whole trace through Source.Record, which heals the
// store, and keep the re-recorded trace on the heap, so one re-record
// serves every damaged slice of it; sharing and the disk tier stay
// byte-invisible to every driver.
//
// Counters are exposed as report-friendly Stats for the CLIs to print
// to stderr (WriteStats, behind the shared -cachestats flag).
package tracecache

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"unsafe"

	"branchlab/internal/engine"
	"branchlab/internal/faultinject"
	"branchlab/internal/program"
	"branchlab/internal/report"
	"branchlab/internal/trace"
	"branchlab/internal/tracestore"
)

// ErrBadSource is the sentinel wrapped when a Source produces a
// malformed recording (middle slices not exactly sliceLen long). The
// error fails the requesting call and every coalesced waiter; the
// entry is withdrawn so nothing malformed is ever served.
var ErrBadSource = errors.New("tracecache: source produced a malformed recording")

// instBytes is the in-memory footprint of one recorded instruction.
const instBytes = int64(unsafe.Sizeof(trace.Inst{}))

// DefaultSliceInsts is the default slice granularity in instructions
// (~10 MiB of records): large enough that per-slice bookkeeping and
// store files amortize to nothing, small enough that a stream's pin
// tracks a driver's slice-shaped working set instead of whole traces.
const DefaultSliceInsts = 1 << 18

// Source materializes one deterministic trace for the cache.
type Source struct {
	// Record materializes the whole trace as consecutive, independently
	// owned arrays of sliceLen instructions each (the last may be
	// shorter; sliceLen == 0 or >= the trace length means one array).
	// It derives from one (generator, seed, budget) triple, so every
	// call returns the same bytes. Called once per cache miss, and once
	// more for each whole-trace re-record, outside the cache lock. ctx
	// bounds the recording: a cancelled or failed Record returns a typed
	// error and no arrays — partial recordings are never returned (the
	// program layer enforces this; see DESIGN.md §9).
	//
	// sink, when non-nil, may be handed the arrays while they record,
	// under program.SliceSink's contract: the cache passes one when a
	// store is attached and writes each chunk to disk as it arrives. A
	// Source may also ignore it; whatever of the returned arrays the
	// sink did not see is written after Record returns, to the same
	// files.
	Record func(ctx context.Context, sliceLen uint64, sink program.SliceSink) ([][]trace.Inst, error)
}

// key identifies one recordable trace. The budget is part of the
// identity: a prefix of a longer recording is not the same trace.
type key struct {
	name   string
	input  int
	budget uint64
}

// entry is the header of one cached (or in-flight) recording: identity,
// recorded extent, and the slice table. Headers are a few dozen bytes
// and live for the cache lifetime.
type entry struct {
	key      key
	total    uint64 // instructions actually recorded (== key.budget unless the payload ended early)
	sliceLen uint64 // slice granularity of this entry (== key.budget when whole-trace)
	// heap holds, per slice, its heap-resident array; a nil element is
	// served from the store. heap is nil until the recording (or the
	// warm restore) completes; a re-record fills every element.
	heap [][]trace.Inst
	// Persistent-store identity: store is non-nil when the cache had a
	// store (attached or private) at recording time. The recording
	// streams into it and committed slices are served from it. Captured
	// per entry: views must keep serving through the same store even if
	// the cache detaches it later.
	skey  tracestore.Key
	store *tracestore.Store
	// src re-records the whole trace when a stored slice is missing or
	// rejected. rerec is non-nil while that re-record is in flight, and
	// heals counts the ones completed (both under Cache.mu).
	src   Source
	rerec chan struct{}
	heals int
	ready chan struct{} // closed when heap/total (or err) are set
	// err is the leader's terminal failure, set before ready closes. A
	// cancellation-class err means the leader's caller went away and a
	// surviving waiter should take over the recording (hand-off); any
	// other err fails every waiter too. Entries with err set are
	// already withdrawn from the map.
	err error
}

// sliceSize returns the instruction count of slice si.
func (e *entry) sliceSize(si int) uint64 {
	return min(uint64(si+1)*e.sliceLen, e.total) - uint64(si)*e.sliceLen
}

// record runs e's source once at e.sliceLen, streaming the slices into
// e.store (when set) while they record, and returns the arrays with
// whether each slice's store file committed (nil without a store). A
// failed recording aborts its open temp files; the slices it already
// committed stay, a clean miss until a recording completes the trace.
func (e *entry) record(ctx context.Context) ([][]trace.Inst, []bool, error) {
	fill := newStoreFill(e.store, e.skey, e.key.budget, e.sliceLen)
	// If the source panics, stop the writer before re-raising.
	done := false
	defer func() {
		if !done {
			fill.abort()
		}
	}()
	arrs, err := e.src.Record(ctx, e.sliceLen, fill.sink())
	if err == nil {
		for i, a := range arrs {
			// Middle slices must be exactly sliceLen: the slice index math
			// (global index / sliceLen) depends on it.
			if i < len(arrs)-1 && uint64(len(a)) != e.sliceLen {
				err = fmt.Errorf("%w: Source.Record(%d) slice %d has %d insts",
					ErrBadSource, e.sliceLen, i, len(a))
				break
			}
		}
	}
	done = true
	if err != nil {
		fill.abort()
		return nil, nil, err
	}
	return arrs, fill.finish(arrs), nil
}

// memoEntry is one cached (or in-flight) derived result (see Memo).
type memoEntry struct {
	val   any
	ok    bool          // false if the computation panicked
	ready chan struct{} // closed when val/ok are set
}

// Stats are the cache's lifetime counters. Hits+Coalesced+Misses is the
// total number of RecordCtx calls; MemoHits+MemoMisses the Memo calls;
// PassHits+PassMisses the Pass calls; the Slice* counters track the
// slice-granular serving underneath.
type Stats struct {
	Hits      uint64 // trace served from a completed recording
	Coalesced uint64 // blocked on another goroutine's in-flight recording
	Misses    uint64 // initiated a full recording (== recordings performed)

	SliceHits      uint64 // slices served from heap-resident arrays
	SliceRerecords uint64 // whole-trace re-records after a stored slice was missing or rejected
	// Deprecated: always 0. The cache evicts nothing: a cache with a
	// store serves committed slices from it, one without keeps them all.
	SliceEvictions uint64

	// Disk tier (zero unless a store is attached or the cache spilled;
	// the store's own Stats carry the write/reject detail).
	DiskHeaderHits uint64 // recordings avoided entirely: header restored from the store
	DiskSliceHits  uint64 // slices served from the store
	DiskRejects    uint64 // stored files that failed verification (each once) and fell back to re-record

	Entries    int   // trace headers resident (completed recordings)
	Slices     int   // heap-resident slice arrays
	BytesInUse int64 // instruction bytes across the heap-resident slices

	MemoHits   uint64 // derived results served from memory (incl. coalesced)
	MemoMisses uint64 // derived results computed
	PassHits   uint64 // per-trace pass tables served from memory (incl. coalesced)
	PassMisses uint64 // per-trace pass tables computed
}

// Table renders the counters as a report table (for stderr diagnostics).
func (s Stats) Table() *report.Table {
	t := report.NewTable("trace cache",
		"hits", "coalesced", "misses",
		"slice hits", "re-records",
		"disk hdrs", "disk hits", "disk rejects",
		"traces", "slices", "MiB in use",
		"memo hits", "memo misses", "pass hits", "pass misses")
	t.AddRow(
		fmt.Sprintf("%d", s.Hits),
		fmt.Sprintf("%d", s.Coalesced),
		fmt.Sprintf("%d", s.Misses),
		fmt.Sprintf("%d", s.SliceHits),
		fmt.Sprintf("%d", s.SliceRerecords),
		fmt.Sprintf("%d", s.DiskHeaderHits),
		fmt.Sprintf("%d", s.DiskSliceHits),
		fmt.Sprintf("%d", s.DiskRejects),
		fmt.Sprintf("%d", s.Entries),
		fmt.Sprintf("%d", s.Slices),
		fmt.Sprintf("%.1f", float64(s.BytesInUse)/(1<<20)),
		fmt.Sprintf("%d", s.MemoHits),
		fmt.Sprintf("%d", s.MemoMisses),
		fmt.Sprintf("%d", s.PassHits),
		fmt.Sprintf("%d", s.PassMisses))
	return t
}

// String is a single-line rendering of the counters.
func (s Stats) String() string {
	return fmt.Sprintf("hits=%d coalesced=%d misses=%d slices=%d/%d sliceops=%d/%d disk=%d/%d/%d bytes=%d memo=%d/%d pass=%d/%d",
		s.Hits, s.Coalesced, s.Misses, s.Slices, s.Entries,
		s.SliceHits, s.SliceRerecords,
		s.DiskHeaderHits, s.DiskSliceHits, s.DiskRejects, s.BytesInUse,
		s.MemoHits, s.MemoHits+s.MemoMisses,
		s.PassHits, s.PassHits+s.PassMisses)
}

// StatsFlag registers the shared -cachestats flag (used by both
// cmd/experiments and cmd/bpsim) on fs, or flag.CommandLine when fs is
// nil, and returns the destination.
func StatsFlag(fs *flag.FlagSet) *bool {
	if fs == nil {
		fs = flag.CommandLine
	}
	return fs.Bool("cachestats", true, "print the trace cache counters table to stderr on exit")
}

// WriteStats writes c's counters table to w — the one rendering both
// CLIs share — followed by its spill store's, if it opened one. A nil
// cache writes nothing.
func WriteStats(w io.Writer, c *Cache) {
	if c == nil {
		return
	}
	fmt.Fprint(w, c.Stats().Table().String())
	c.mu.Lock()
	spill := c.spill
	c.mu.Unlock()
	tracestore.WriteStats(w, spill)
}

// Cache is a concurrency-safe trace cache. The zero value is not usable;
// construct with New or NewSliced, and Close it once done. A nil *Cache
// is valid everywhere and disables caching (every RecordCtx call
// records).
type Cache struct {
	mu         sync.Mutex
	spills     bool // with no store attached, record into a private spill store
	sliceInsts uint64
	store      *tracestore.Store // disk tier (attached or spill), or nil (heap only)
	spill      *tracestore.Store // the private spill store, once opened
	bytes      int64             // instruction bytes of the heap-resident slices
	entries    map[key]*entry
	memos      map[string]*memoEntry
	stats      Stats
}

// New returns a cache with the default slice granularity. maxBytes > 0
// makes a cache with no store attached spill every recording to a
// private store and serve it from there (the kernel's page cache, not
// maxBytes, then bounds what stays resident); maxBytes <= 0 keeps every
// slice of such a cache on the heap.
func New(maxBytes int64) *Cache {
	return NewSliced(maxBytes, DefaultSliceInsts)
}

// NewSliced is New with an explicit slice granularity in instructions.
// sliceInsts == 0 disables slice granularity: traces are cached as
// single slices.
func NewSliced(maxBytes int64, sliceInsts uint64) *Cache {
	return &Cache{
		spills:     maxBytes > 0,
		sliceInsts: sliceInsts,
		entries:    make(map[key]*entry),
		memos:      make(map[string]*memoEntry),
	}
}

// SetStore attaches the persistent on-disk tier (DESIGN.md §11): new
// recordings stream into s, every committed slice is served from it
// (checksum-verified, zero-copy) instead of the heap, and a trace whose
// header s already holds is restored without recording at all. An
// attached store takes the place of the private spill store. Call
// before the first RecordCtx — the store key is derived per entry at
// recording time — and close s only after every replay served by this
// cache has completed. nil detaches; a nil *Cache ignores the call.
func (c *Cache) SetStore(s *tracestore.Store) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.store = s
	c.mu.Unlock()
}

// Close closes the private spill store, if the cache opened one, and
// removes its directory. Call it once every replay served by the cache
// has completed. A store attached with SetStore is the caller's and is
// left alone. Safe on a nil cache, and a no-op the second time.
func (c *Cache) Close() error {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	st := c.spill
	c.spill = nil
	c.mu.Unlock()
	if st == nil {
		return nil
	}
	err := st.Close()
	if rerr := os.RemoveAll(st.Dir()); err == nil {
		err = rerr
	}
	return err
}

// spillLocked opens the private spill store when a capped cache without
// a store is about to record (caller holds mu).
func (c *Cache) spillLocked() error {
	if c.store != nil || !c.spills {
		return nil
	}
	st, err := tracestore.OpenSpill()
	if err != nil {
		return fmt.Errorf("tracecache: %w", err)
	}
	c.store, c.spill = st, st
	return nil
}

// canceledErr is the typed error a cancelled RecordCtx call returns; it
// classifies as cancellation under engine.IsCancel.
func canceledErr(ctx context.Context) error {
	return fmt.Errorf("tracecache: recording canceled: %w", ctx.Err())
}

// RecordCtx returns the trace for (name, input, budget), invoking src
// to materialize it on a miss. src must produce the deterministic
// recording for exactly this triple; its callbacks run without the
// cache lock held, so they may be arbitrarily slow and may themselves
// use the cache under different keys.
//
// With a store (attached or spill), the recording streams into it:
// src.Record gets a sink that queues each chunk for a writer goroutine,
// which appends it to the slice's temp file and commits the slice when
// its window retires (tracestore.SliceWriter). RecordCtx then writes
// what the sink did not see, waits for the writer and writes the header
// last, so every file is in place when it returns. A failed or
// cancelled recording aborts the open temp files and writes no header;
// the slices it committed stay, a clean miss until the next recording
// completes the trace.
//
// The returned view replays heap-resident slices zero-copy and pins the
// others from the store, so replays are byte-identical to an uncached
// recording under any cap. Concurrent calls for the same key share one
// recording.
//
// A nil *Cache records with src.Record at DefaultSliceInsts and returns
// the joined slices as one buffer.
//
// ctx bounds the recording, with the failure contract of DESIGN.md §9:
//
//   - A caller cancelled while coalesced on another goroutine's
//     recording detaches immediately with a typed cancellation error;
//     the leader and the other waiters are unaffected.
//   - A leader cancelled mid-recording withdraws its entry and wakes
//     the waiters; each surviving waiter retries, so the first to
//     re-enter takes over the recording under its own context
//     (hand-off). The cancelled caller gets a typed cancellation
//     error.
//   - A leader whose source fails for a non-cancellation reason (a
//     malformed recording — ErrBadSource —, a payload abort, an
//     injected fault) propagates that same typed error to every
//     current waiter; the entry is withdrawn, so later calls retry
//     fresh.
//
// In every case the cache never serves partial or wrong bytes: a
// successful return is byte-identical to an uncached recording.
func (c *Cache) RecordCtx(ctx context.Context, name string, input int, budget uint64, src Source) (trace.Replayable, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if c == nil {
		arrs, err := src.Record(ctx, DefaultSliceInsts, nil)
		if err != nil {
			return nil, err
		}
		return trace.FromSlice(joinArrays(arrs)), nil
	}
	k := key{name: name, input: input, budget: budget}
	c.mu.Lock()
	for {
		if ctx.Err() != nil {
			c.mu.Unlock()
			return nil, canceledErr(ctx)
		}
		e := c.entries[k]
		if e == nil {
			break
		}
		if e.heap != nil {
			c.stats.Hits++
			v := viewOf(c, e)
			c.mu.Unlock()
			return v, nil
		}
		// In flight on another goroutine: wait for it to serve this
		// call too.
		c.stats.Coalesced++
		c.mu.Unlock()
		select {
		case <-e.ready:
		case <-ctx.Done():
			// Detach: the leader's recording proceeds for the other
			// waiters; only this caller stops waiting.
			return nil, canceledErr(ctx)
		}
		c.mu.Lock()
		if e.err != nil && !engine.IsCancel(e.err) {
			// The leader's failure would fail this call identically.
			err := e.err
			c.mu.Unlock()
			return nil, err
		}
		if e.heap != nil {
			v := viewOf(c, e)
			c.mu.Unlock()
			return v, nil
		}
		// Leader cancelled (hand-off: the loop re-enters and this
		// caller may take over) or panicked: retry.
	}

	e := &entry{key: k, src: src, ready: make(chan struct{})}
	e.sliceLen = c.sliceInsts
	if e.sliceLen == 0 || e.sliceLen > budget {
		e.sliceLen = budget
	}
	if err := c.spillLocked(); err != nil {
		c.mu.Unlock()
		return nil, err
	}
	if c.store != nil && budget > 0 {
		e.store = c.store
		e.skey = tracestore.Key{Name: name, Input: input, Budget: budget, SliceLen: e.sliceLen}
	}
	c.entries[k] = e
	c.mu.Unlock()

	// If the recording (or the warm restore) panics, withdraw the entry
	// and wake waiters before re-raising, so coalesced goroutines retry
	// instead of deadlocking.
	done := false
	defer func() {
		if done {
			return
		}
		c.mu.Lock()
		if c.entries[k] == e {
			delete(c.entries, k)
		}
		close(e.ready)
		c.mu.Unlock()
	}()

	// Warm start: a persisted header for this exact content restores
	// the entry with every slice in the store — no recording at all.
	// Streams then pin slices from it (checksum-verified); a stored
	// slice that is missing or corrupt re-records the trace, so a stale
	// or partial store degrades gracefully and never changes bytes.
	if e.store != nil {
		if total, herr := e.store.ReadHeader(e.skey); herr == nil {
			done = true
			c.mu.Lock()
			e.total = total
			nslices := 0
			if total > 0 {
				nslices = int((total + e.sliceLen - 1) / e.sliceLen)
			}
			e.heap = make([][]trace.Inst, nslices)
			close(e.ready)
			c.stats.DiskHeaderHits++
			if c.entries[k] == e {
				c.stats.Entries++
			}
			v := viewOf(c, e)
			c.mu.Unlock()
			return v, nil
		} else if errors.Is(herr, tracestore.ErrReject) {
			c.mu.Lock()
			c.stats.DiskRejects++
			c.mu.Unlock()
		}
	}
	c.mu.Lock()
	c.stats.Misses++
	c.mu.Unlock()
	arrs, committed, err := e.record(ctx)
	if err == nil {
		if ferr := faultinject.Fail(faultinject.CacheRecord); ferr != nil {
			err = fmt.Errorf("tracecache: record %s/%d: %w", name, input, ferr)
		}
	}
	done = true
	if err != nil {
		// Withdraw the entry and publish the failure to every waiter.
		// Cancellation-class errors let a surviving waiter take over;
		// anything else fails them with the same typed error.
		c.mu.Lock()
		e.err = err
		if c.entries[k] == e {
			delete(c.entries, k)
		}
		close(e.ready)
		c.mu.Unlock()
		return nil, err
	}

	c.mu.Lock()
	e.heap = make([][]trace.Inst, len(arrs))
	for i, a := range arrs {
		e.total += uint64(len(a))
		c.keepLocked(e, i, a, committed)
	}
	close(e.ready)
	c.stats.Entries++
	v := viewOf(c, e)
	total := e.total
	c.mu.Unlock()

	// The header lands after every slice: a process that crashes
	// mid-write leaves at worst a headerless directory (a clean miss).
	// Write failures only cost a future re-record; they are counted by
	// the store and dropped here.
	_ = e.store.WriteHeader(e.skey, total)
	return v, nil
}

// keepLocked puts the recorded array a of slice i on e's heap unless
// the store holds the slice: committed is, per slice, whether its store
// file committed (nil without a store, and for a re-record, which keeps
// every slice). Caller holds mu.
func (c *Cache) keepLocked(e *entry, i int, a []trace.Inst, committed []bool) {
	if e.heap[i] != nil || i < len(committed) && committed[i] {
		return
	}
	e.heap[i] = a
	c.bytes += int64(len(a)) * instBytes
	c.stats.Slices++
}

// storeFill streams one recording into the store: the recorder's sink
// queues each chunk, and one writer goroutine appends it to its slice's
// temp file, committing the slice when its window retires. The queue
// holds as many chunks as the recording can hand over, so the recorder
// never waits for the disk. A nil *storeFill (no store attached) has no
// sink and does nothing.
type storeFill struct {
	st      *tracestore.Store
	key     tracestore.Key
	chunks  chan storeChunk
	done    chan struct{} // closed when the writer has exited
	stopped atomic.Bool   // abort: the writer drops what is queued
	// Per slice, what the sink has handed over: sent instructions and
	// whether the last chunk came. Written by the recorder goroutine and
	// read by finish after Record returns.
	sent   []int
	closed []bool
	// committed is, per slice, whether its file is in the store: set by
	// the writer, read once done is closed.
	committed []bool
}

// storeChunk is one queued piece of slice payload; last commits the
// slice after it.
type storeChunk struct {
	slice int
	insts []trace.Inst
	last  bool
}

// newStoreFill starts the writer for a recording of at most budget
// instructions at sliceLen, or returns nil when st is nil.
func newStoreFill(st *tracestore.Store, key tracestore.Key, budget, sliceLen uint64) *storeFill {
	if st == nil {
		return nil
	}
	nSlices := int((budget + sliceLen - 1) / sliceLen)
	f := &storeFill{
		st:  st,
		key: key,
		// Each slice hands over at most one chunk per ChunkInsts plus a
		// tail, and finish may add one more per slice.
		chunks:    make(chan storeChunk, int(budget/program.ChunkInsts)+2*nSlices),
		done:      make(chan struct{}),
		sent:      make([]int, nSlices),
		closed:    make([]bool, nSlices),
		committed: make([]bool, nSlices),
	}
	go f.write()
	return f
}

// sink is the program.SliceSink the recorder feeds (nil without a
// store).
func (f *storeFill) sink() program.SliceSink {
	if f == nil {
		return nil
	}
	return func(slice int, insts []trace.Inst, last bool) {
		f.sent[slice] += len(insts)
		f.closed[slice] = last
		f.chunks <- storeChunk{slice, insts, last}
	}
}

// write is the writer goroutine.
func (f *storeFill) write() {
	defer close(f.done)
	open := make(map[int]*tracestore.SliceWriter)
	for c := range f.chunks {
		if f.stopped.Load() {
			break
		}
		w := open[c.slice]
		if w == nil {
			w = f.st.BeginSlice(f.key, c.slice)
			open[c.slice] = w
		}
		w.Append(c.insts)
		if c.last {
			f.committed[c.slice] = w.Commit() == nil
			delete(open, c.slice)
		}
	}
	for _, w := range open {
		w.Abort()
	}
}

// finish queues whatever of the recorded arrays the sink did not see —
// all of them for a Source that ignores its sink —, ends the queue and
// waits for the writer. It returns, per slice, whether its file is in
// the store.
func (f *storeFill) finish(arrs [][]trace.Inst) []bool {
	if f == nil {
		return nil
	}
	for i, a := range arrs {
		if i < len(f.closed) && f.closed[i] {
			continue
		}
		sent := 0
		if i < len(f.sent) {
			sent = f.sent[i]
		}
		f.chunks <- storeChunk{i, a[sent:], true}
	}
	close(f.chunks)
	<-f.done
	return f.committed
}

// abort ends a failed recording's writes: the writer drops the queue,
// removes its open temp files and exits before abort returns.
func (f *storeFill) abort() {
	if f == nil {
		return
	}
	f.stopped.Store(true)
	close(f.chunks)
	<-f.done
}

// pin returns slice si's heap-resident array, or else the caller's own
// store pin on the slice, which the caller unpins once it is done with
// it. A stored slice that is missing or rejected re-records the trace,
// which puts every slice of it on the heap, and returns the fresh array.
func (c *Cache) pin(e *entry, si int) ([]trace.Inst, *tracestore.Pin) {
	c.mu.Lock()
	for {
		if a := e.heap[si]; a != nil {
			c.stats.SliceHits++
			c.mu.Unlock()
			return a, nil
		}
		// A re-record of the trace is in flight on another goroutine:
		// wait for it to put the trace on the heap, then retry.
		if ch := e.rerec; ch != nil {
			c.mu.Unlock()
			<-ch
			c.mu.Lock()
			continue
		}
		heals := e.heals
		c.mu.Unlock()

		// Only a committed slice is off the heap, so the store has it
		// unless something removed or damaged it since.
		p, perr := e.store.PinSlice(e.skey, si, e.sliceSize(si))

		c.mu.Lock()
		if perr == nil {
			c.stats.DiskSliceHits++
			c.mu.Unlock()
			return nil, p
		}
		if errors.Is(perr, tracestore.ErrReject) {
			c.stats.DiskRejects++
		}
		if e.heals != heals || e.rerec != nil {
			continue // a re-record served (or is serving) the trace meanwhile
		}
		return c.rerecordLocked(e, si), nil
	}
}

// rerecordLocked re-records e's whole trace after slice si's stored
// file turned out missing or rejected, under one single flight per
// entry, and returns slice si's fresh array (caller holds mu, which is
// released on return). The recording streams into the store, healing
// it for later runs: files already there are skipped, the missing ones
// written. Every re-recorded array stays on the heap, whatever its
// file's state: a file that is still there may be damaged too, so
// serving the trace from the heap from now on makes one re-record
// cover all of its damaged slices. The cost is the trace's footprint,
// paid only for a trace found damaged.
//
// Re-records are context-free: a replay must be able to finish after
// the recording context is gone. A re-record re-runs a payload whose
// recording already succeeded, so its failure (or a different slice
// geometry) is a broken invariant and panics; the enclosing engine unit
// or run boundary reports it as a typed error.
func (c *Cache) rerecordLocked(e *entry, si int) []trace.Inst {
	e.rerec = make(chan struct{})
	c.mu.Unlock()
	// On panic, withdraw the in-flight marker and wake waiters before
	// re-raising so they retry instead of deadlocking.
	done := false
	defer func() {
		if !done {
			c.mu.Lock()
			close(e.rerec)
			e.rerec = nil
			c.mu.Unlock()
		}
	}()
	//lint:ignore ctxflow re-records are deliberately context-free: a replay must be able to regenerate bytes after the recording context is gone
	arrs, _, err := e.record(context.Background())
	if err == nil && len(arrs) != len(e.heap) {
		err = fmt.Errorf("%d slices, the recording had %d", len(arrs), len(e.heap))
	}
	if err != nil {
		//lint:ignore errcontract invariant: a re-record of an already-recorded deterministic payload never fails; engine.MapErr units and experiments.Runner.RunCtx recover the panic into a typed error
		panic(fmt.Errorf("tracecache: re-record of %s input %d: %w", e.key.name, e.key.input, err))
	}
	done = true

	c.mu.Lock()
	c.stats.SliceRerecords++
	for i, a := range arrs {
		c.keepLocked(e, i, a, nil)
	}
	e.heals++
	close(e.rerec)
	e.rerec = nil
	c.mu.Unlock()
	return arrs[si]
}

// Memo returns the value computed by fn for key, computing it at most
// once per cache lifetime; concurrent callers of the same key block on
// the single computation. It memoizes derived analysis results (H2P
// screenings, IPC cells) that are deterministic functions of cached
// traces and configuration — results small enough that, unlike traces,
// they always stay on the heap. (The largest memoized values are
// screening collectors, roughly 1% of the footprint of the trace they
// summarize; retaining every one for an invocation is deliberate and
// costs far less than a single extra trace.) Inputs served from the
// store or from re-recorded slices are byte-identical to the original
// recording, so a memo is exact for every caller. Callers must treat returned values as
// immutable: the same object is handed to every caller of the key. A
// nil *Cache computes every call.
func (c *Cache) Memo(key string, fn func() any) any {
	if c == nil {
		return fn()
	}
	return c.memo(key, fn, &c.stats.MemoHits, &c.stats.MemoMisses)
}

// Pass is Memo for per-trace pass tables: side data a family of cells
// computes from one trace, such as the timing model's cache/BTB
// annotation (one byte per instruction) and its per-predictor
// misprediction bitvectors (one bit per instruction). It shares Memo's
// single flight and panic withdrawal, but counts in
// PassHits/PassMisses, so MemoHits+MemoMisses keeps counting cells.
// Keys must not collide with Memo keys. A nil *Cache computes every
// call.
func (c *Cache) Pass(key string, fn func() any) any {
	if c == nil {
		return fn()
	}
	return c.memo(key, fn, &c.stats.PassHits, &c.stats.PassMisses)
}

// memo is the single-flight table behind Memo and Pass, counting into
// *hits and *misses (fields of c.stats) under mu.
func (c *Cache) memo(key string, fn func() any, hits, misses *uint64) any {
	for {
		c.mu.Lock()
		if e, ok := c.memos[key]; ok {
			*hits++
			c.mu.Unlock()
			<-e.ready
			if e.ok {
				return e.val
			}
			continue // computation panicked and was withdrawn; retry
		}
		e := &memoEntry{ready: make(chan struct{})}
		c.memos[key] = e
		*misses++
		c.mu.Unlock()

		defer func() {
			if !e.ok {
				c.mu.Lock()
				if c.memos[key] == e {
					delete(c.memos, key)
				}
				close(e.ready)
				c.mu.Unlock()
			}
		}()
		val := fn()

		c.mu.Lock()
		e.val = val
		e.ok = true
		close(e.ready)
		c.mu.Unlock()
		return val
	}
}

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.BytesInUse = c.bytes
	return s
}

// joinArrays concatenates per-slice arrays into one (zero-copy for the
// single-array case) — the nil-cache path.
func joinArrays(arrs [][]trace.Inst) []trace.Inst {
	if len(arrs) == 1 {
		return arrs[0]
	}
	n := 0
	for _, a := range arrs {
		n += len(a)
	}
	out := make([]trace.Inst, 0, n)
	for _, a := range arrs {
		out = append(out, a...)
	}
	return out
}

// viewOf serves the whole recording of e (caller holds mu, and e's
// heap and total are set).
func viewOf(c *Cache, e *entry) *view {
	return &view{c: c, e: e}
}

// view is a trace.Replayable over a whole cached trace. It holds no
// instruction data itself: streams pin one slice at a time, so a
// replay's live set is one slice per active stream regardless of trace
// length.
type view struct {
	c *Cache
	e *entry
}

var _ trace.Replayable = (*view)(nil)

// Len implements trace.Replayable.
func (v *view) Len() int { return int(v.e.total) }

// BlockStream implements trace.Replayable: blocks of at most n
// instructions (up to a whole slice per block when n <= 0).
func (v *view) BlockStream(n int) trace.BlockStream {
	if n < 0 {
		n = 0
	}
	return &viewStream{v: v, blockCap: n, si: -1}
}

// viewStream reads a view in trace order. It implements
// trace.BlockStream; blocks are zero-copy windows of one slice array,
// clipped to blockCap when set. The stream pins the slice it is reading
// once, keeps it across NextBlock calls within the slice, and lets it go
// when it moves to the next slice or ends.
type viewStream struct {
	v        *view
	pos      int // index of the next unserved instruction
	blockCap int
	si       int          // slice index being read; -1 before the first and after the last block
	heap     []trace.Inst // slice si's array when it is on the heap
	hold     *streamPin   // slice si's store pin otherwise; nil until the first one
}

// streamPin is a stream's store reference to the stored slice it is
// reading. It lives apart from the stream so that a cleanup can release
// the reference of a stream abandoned mid-slice once the stream is
// collected.
type streamPin struct{ p *tracestore.Pin }

// release drops the held reference, if any.
func (h *streamPin) release() {
	if h.p != nil {
		h.p.Unpin()
		h.p = nil
	}
}

// NextBlock implements trace.BlockStream: it serves the largest
// servable window of the slice containing the next instruction,
// pinning that slice first if the stream is not already reading it.
func (s *viewStream) NextBlock() []trace.Inst {
	if s.pos >= int(s.v.e.total) {
		s.drop()
		return nil
	}
	e := s.v.e
	g := uint64(s.pos)
	si := int(g / e.sliceLen)
	if si != s.si {
		s.drop()
		var p *tracestore.Pin
		s.heap, p = s.v.c.pin(e, si)
		s.si = si
		if p != nil {
			if s.hold == nil {
				s.hold = &streamPin{}
				runtime.AddCleanup(s, (*streamPin).release, s.hold)
			}
			s.hold.p = p
		}
	}
	cur := s.heap
	if cur == nil {
		cur = s.hold.p.PinnedInsts()
	}
	so := int(g - uint64(si)*e.sliceLen)
	end := len(cur)
	if s.blockCap > 0 && end-so > s.blockCap {
		end = so + s.blockCap
	}
	blk := cur[so:end:end]
	s.pos += len(blk)
	return blk
}

// drop lets go of the slice the stream was reading.
func (s *viewStream) drop() {
	s.si = -1
	s.heap = nil
	if s.hold != nil {
		s.hold.release()
	}
}
