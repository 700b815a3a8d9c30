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
// fixed-size slice entries, each an independently owned (and therefore
// independently evictable and garbage-collectable) instruction array.
// RecordCtx returns a trace.Replayable view that serves zero-copy
// instruction blocks from resident slices; the LRU memory cap evicts
// cold slices, not whole recordings, so the cache's memory bound is the
// union of the drivers' live slice working sets instead of N whole
// traces. A request touching an evicted slice re-materializes exactly
// that range under per-slice singleflight through Source.Refill, so
// sharing and eviction stay byte-invisible to every driver.
//
// A refill resumes from the nearest checkpoint the recording captured
// at or below the missing window (Source.Record's second return, kept
// in the permanent header) — O(window). Without one, or when the
// checkpoint cannot resume, the same callback runs with a nil
// checkpoint and skims from instruction zero — O(prefix + window), the
// exact fallback. Checkpoints are not persisted, so a trace restored
// from a tracestore header always skims. Stats separates the two
// regimes (SliceResumes vs SliceSkims).
//
// Counters are exposed as report-friendly Stats for the CLIs to print
// to stderr (WriteStats, behind the shared -cachestats flag).
package tracecache

import (
	"container/list"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"runtime"
	"sync"
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
// re-record skims amortize to nothing, small enough that eviction
// tracks a driver's slice-shaped working set instead of whole traces.
const DefaultSliceInsts = 1 << 18

// Source materializes one deterministic trace for the cache. Both
// callbacks must derive from the same (generator, seed, budget) triple:
// Refill(ck, lo, hi) must reproduce exactly the bytes Record put at
// [lo, hi).
type Source struct {
	// Record materializes the whole trace as consecutive, independently
	// owned arrays of sliceLen instructions each (the last may be
	// shorter; sliceLen == 0 or >= the trace length means one array),
	// plus any payload checkpoints captured along the way (sorted by
	// capture index; empty for non-checkpointable payloads). Called
	// once per cache miss, outside the cache lock. ctx bounds the
	// recording: a cancelled or failed Record returns a typed error and
	// no arrays — partial recordings are never returned (the program
	// layer enforces this; see DESIGN.md §9).
	Record func(ctx context.Context, sliceLen uint64) ([][]trace.Inst, []program.Checkpoint, error)

	// Refill re-materializes instructions [lo, hi) of the same trace.
	// ck is a checkpoint Record captured (ck.At <= lo) to resume from,
	// making the cost independent of lo; an error (a checkpoint that
	// cannot resume) makes the cache retry with ck == nil. A nil ck
	// means generate from instruction 0, skimming the prefix — the
	// refill of last resort. Refills are context-free: a replay must be
	// able to finish after the recording context is gone. A nil-ck
	// refill re-runs a payload whose recording already succeeded, so
	// its failure is a broken invariant and panics; the enclosing
	// engine unit or run boundary reports it as a typed error.
	Refill func(ck *program.Checkpoint, lo, hi uint64) ([]trace.Inst, error)
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
// and live for the cache lifetime; only slice arrays are evictable.
type entry struct {
	key      key
	total    uint64 // instructions actually recorded (== key.budget unless the payload ended early)
	sliceLen uint64 // slice granularity of this entry (== key.budget when whole-trace)
	slices   []*sliceEnt
	// Persistent-store identity: store is non-nil when the cache had a
	// store attached at recording time, so evicted slices promote from
	// disk before falling back to re-materialization, and
	// refills/recordings write through. Captured per entry: views must
	// keep serving through the same store even if the cache detaches it
	// later.
	skey  tracestore.Key
	store *tracestore.Store
	// src.Refill re-materializes evicted slices; ckpts (sorted by At,
	// captured during this process's recording, possibly empty) make
	// those refills O(window). Checkpoints live in the permanent header:
	// a few hundred words per trace, exempt from the LRU cap like the
	// header itself. The store does not persist them, so an entry
	// restored from a stored header has none and refills by skim.
	src   Source
	ckpts []program.Checkpoint
	ready chan struct{} // closed when slices/total (or err) are set
	// err is the leader's terminal failure, set before ready closes. A
	// cancellation-class err means the leader's caller went away and a
	// surviving waiter should take over the recording (hand-off); any
	// other err fails every waiter too. Entries with err set are
	// already withdrawn from the map.
	err error
}

// refill re-materializes [lo, hi), resuming from the nearest
// checkpoint when possible and reporting which regime served it.
// Called without the cache lock held.
func (e *entry) refill(lo, hi uint64) (data []trace.Inst, resumed bool) {
	if ck := program.NearestCheckpoint(e.ckpts, lo); ck != nil {
		if ferr := faultinject.Fail(faultinject.CacheResume); ferr == nil {
			if data, err := e.src.Refill(ck, lo, hi); err == nil {
				return data, true
			}
		}
		// An unusable checkpoint (ErrBadCheckpoint) — or an injected
		// resume fault — degrades to the exact skim path: slower, same
		// bytes.
	}
	data, err := e.src.Refill(nil, lo, hi)
	if err != nil {
		// A skim is context-free and replays a deterministic payload
		// that already recorded these bytes once, so it cannot fail.
		//lint:ignore errcontract invariant: a skim of an already-recorded deterministic payload never fails; engine.MapErr units and experiments.Runner.RunCtx recover the panic into a typed error
		panic(fmt.Errorf("tracecache: skim refill of %s input %d [%d, %d): %w", e.key.name, e.key.input, lo, hi, err))
	}
	return data, false
}

// sliceEnt is one independently accounted, independently evictable
// slice of a cached trace. insts == nil means evicted; ready != nil
// means a re-record is in flight on another goroutine.
type sliceEnt struct {
	e     *entry
	idx   int
	insts []trace.Inst
	bytes int64
	elem  *list.Element // LRU position; nil while evicted or in flight
	ready chan struct{}
	// pin is the RAM tier's store reference when insts is a
	// disk-promoted mmap view; eviction unpins it. Streams reading the
	// slice hold references of their own, so eviction never pulls bytes
	// from under a replay.
	pin *tracestore.Pin
}

// heldPins is the set of store pins the RAM tier holds for its resident
// promoted slices (under Cache.mu). It lives apart from the Cache so
// that a cleanup can release the pins once the cache is collected
// without keeping the cache reachable; by then no other goroutine can
// reach the set.
type heldPins map[*tracestore.Pin]struct{}

// release unpins every held pin: the cleanup of a collected cache.
func (h heldPins) release() {
	for p := range h {
		p.Unpin()
	}
}

// lo returns the global index of the slice's first instruction.
func (se *sliceEnt) lo() uint64 { return uint64(se.idx) * se.e.sliceLen }

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

	SliceHits      uint64 // slice ranges served from resident arrays (the RAM tier)
	SliceRerecords uint64 // evicted slices re-materialized on demand (resumes + skims)
	SliceResumes   uint64 // re-materializations resumed from a checkpoint (O(window))
	SliceSkims     uint64 // re-materializations that skimmed the prefix (O(prefix + window))
	SliceEvictions uint64 // slices dropped by the LRU memory cap

	// Disk tier (zero unless a tracestore is attached; the store's own
	// Stats carry the write/reject detail).
	DiskHeaderHits uint64 // recordings avoided entirely: header restored from the store
	DiskSliceHits  uint64 // evicted slices promoted from the store instead of re-materialized
	DiskRejects    uint64 // stored files that failed verification and fell back to re-record

	Entries    int   // trace headers resident (completed recordings)
	Slices     int   // slice arrays currently resident
	BytesInUse int64 // resident instruction bytes across all slices
	CapBytes   int64 // configured cap (0 = unbounded)

	MemoHits   uint64 // derived results served from memory (incl. coalesced)
	MemoMisses uint64 // derived results computed
	PassHits   uint64 // per-trace pass tables served from memory (incl. coalesced)
	PassMisses uint64 // per-trace pass tables computed
}

// Table renders the counters as a report table (for stderr diagnostics).
func (s Stats) Table() *report.Table {
	t := report.NewTable("trace cache",
		"hits", "coalesced", "misses",
		"slice hits", "re-records", "ckpt resumes", "skim refills", "evictions",
		"disk hdrs", "disk hits", "disk rejects",
		"traces", "slices", "MiB in use", "MiB cap",
		"memo hits", "memo misses", "pass hits", "pass misses")
	capMiB := "unbounded"
	if s.CapBytes > 0 {
		capMiB = fmt.Sprintf("%.1f", float64(s.CapBytes)/(1<<20))
	}
	t.AddRow(
		fmt.Sprintf("%d", s.Hits),
		fmt.Sprintf("%d", s.Coalesced),
		fmt.Sprintf("%d", s.Misses),
		fmt.Sprintf("%d", s.SliceHits),
		fmt.Sprintf("%d", s.SliceRerecords),
		fmt.Sprintf("%d", s.SliceResumes),
		fmt.Sprintf("%d", s.SliceSkims),
		fmt.Sprintf("%d", s.SliceEvictions),
		fmt.Sprintf("%d", s.DiskHeaderHits),
		fmt.Sprintf("%d", s.DiskSliceHits),
		fmt.Sprintf("%d", s.DiskRejects),
		fmt.Sprintf("%d", s.Entries),
		fmt.Sprintf("%d", s.Slices),
		fmt.Sprintf("%.1f", float64(s.BytesInUse)/(1<<20)),
		capMiB,
		fmt.Sprintf("%d", s.MemoHits),
		fmt.Sprintf("%d", s.MemoMisses),
		fmt.Sprintf("%d", s.PassHits),
		fmt.Sprintf("%d", s.PassMisses))
	return t
}

// String is a single-line rendering of the counters.
func (s Stats) String() string {
	return fmt.Sprintf("hits=%d coalesced=%d misses=%d slices=%d/%d sliceops=%d/%d/%d refills=%d/%d disk=%d/%d/%d bytes=%d memo=%d/%d pass=%d/%d",
		s.Hits, s.Coalesced, s.Misses, s.Slices, s.Entries,
		s.SliceHits, s.SliceRerecords, s.SliceEvictions,
		s.SliceResumes, s.SliceSkims,
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
// CLIs share. A nil cache writes nothing.
func WriteStats(w io.Writer, c *Cache) {
	if c == nil {
		return
	}
	fmt.Fprint(w, c.Stats().Table().String())
}

// Cache is a concurrency-safe trace cache. The zero value is not usable;
// construct with New or NewSliced. A nil *Cache is valid everywhere and
// disables caching (every RecordCtx call records).
type Cache struct {
	mu         sync.Mutex
	maxBytes   int64
	sliceInsts uint64
	store      *tracestore.Store // persistent tier, or nil (RAM-only)
	bytes      int64
	entries    map[key]*entry
	memos      map[string]*memoEntry
	lru        list.List // front = least recently used slice
	held       heldPins  // store pins of resident promoted slices
	stats      Stats
}

// New returns a cache holding at most maxBytes of recorded trace data
// (the instruction arrays; bookkeeping overhead is not counted), with
// the default slice granularity. maxBytes <= 0 means unbounded.
func New(maxBytes int64) *Cache {
	return NewSliced(maxBytes, DefaultSliceInsts)
}

// NewSliced is New with an explicit slice granularity in instructions.
// sliceInsts == 0 disables slice granularity: traces are cached as
// single slices, evict whole and refill with Source.Refill(nil, 0,
// total).
func NewSliced(maxBytes int64, sliceInsts uint64) *Cache {
	c := &Cache{
		maxBytes:   maxBytes,
		sliceInsts: sliceInsts,
		entries:    make(map[key]*entry),
		memos:      make(map[string]*memoEntry),
		held:       make(heldPins),
	}
	c.lru.Init()
	// A dropped cache releases its resident slices' store pins, so their
	// mappings' pages can go even if the store outlives the cache.
	runtime.AddCleanup(c, heldPins.release, c.held)
	return c
}

// SetStore attaches the persistent on-disk tier (DESIGN.md §11): new
// recordings and refills write through to s, evicted slices promote
// back from it (checksum-verified, zero-copy), and a trace whose
// header s already holds is restored without recording at all. Call
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
// The returned view replays through resident slices zero-copy and
// re-materializes evicted slices on demand through src.Refill —
// resuming from a checkpoint when this process's recording captured one
// at or below the missing window, skimming the prefix otherwise — so
// replays are byte-identical to an uncached recording under any cap.
// Concurrent calls for the same key share one recording.
//
// A nil *Cache records with src.Record at DefaultSliceInsts (so a
// sharded source still shards, at slice granularity) and returns the
// joined slices as one buffer.
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
		arrs, _, err := src.Record(ctx, DefaultSliceInsts)
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
		if e.slices != nil {
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
		if e.slices != nil {
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
	// the entry with every slice "evicted" — no recording at all. Pins
	// then promote slices from the store (checksum-verified) and fall
	// back to deterministic re-materialization per slice, so a stale or
	// partial store degrades gracefully and never changes bytes.
	if e.store != nil {
		if total, herr := e.store.ReadHeader(e.skey); herr == nil {
			done = true
			c.mu.Lock()
			e.total = total
			nslices := 0
			if total > 0 {
				nslices = int((total + e.sliceLen - 1) / e.sliceLen)
			}
			e.slices = make([]*sliceEnt, nslices)
			for i := range e.slices {
				e.slices[i] = &sliceEnt{e: e, idx: i}
			}
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
	arrs, ckpts, err := src.Record(ctx, e.sliceLen)
	if err == nil {
		if ferr := faultinject.Fail(faultinject.CacheRecord); ferr != nil {
			err = fmt.Errorf("tracecache: record %s/%d: %w", name, input, ferr)
		}
	}
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
	e.ckpts = ckpts
	e.slices = make([]*sliceEnt, len(arrs))
	for i, a := range arrs {
		e.slices[i] = &sliceEnt{e: e, idx: i, insts: a, bytes: int64(len(a)) * instBytes}
		e.total += uint64(len(a))
	}
	close(e.ready)
	if c.entries[k] == e {
		for _, se := range e.slices {
			se.elem = c.lru.PushBack(se)
			c.bytes += se.bytes
			c.stats.Slices++
		}
		c.stats.Entries++
		c.evictLocked()
	}
	v := viewOf(c, e)
	total := e.total
	c.mu.Unlock()

	// Write through to the persistent tier, from the leader's local
	// arrays (eviction may already be nil-ing e.slices[*].insts under
	// the lock). Slices land before the header: a process that crashes
	// mid-write leaves at worst a headerless directory (a clean miss)
	// or a header whose missing slices refill deterministically —
	// never a header promising wrong bytes. Write failures only cost a
	// future re-record; they are counted by the store and dropped here.
	if e.store != nil {
		for i, a := range arrs {
			_ = e.store.WriteSlice(e.skey, i, a)
		}
		_ = e.store.WriteHeader(e.skey, total)
	}
	return v, nil
}

// pin returns slice si's instruction array, re-materializing it under
// per-slice singleflight if it was evicted, plus the caller's own store
// reference when the array is a store mapping (nil otherwise). The
// caller keeps the array alive independently of any subsequent
// eviction — a heap array by holding it, a mapping by holding the pin —
// and unpins once it is done with the array.
func (c *Cache) pin(e *entry, si int) ([]trace.Inst, *tracestore.Pin) {
	c.mu.Lock()
	for {
		se := e.slices[si]
		if se.insts != nil {
			c.stats.SliceHits++
			if se.elem != nil {
				c.lru.MoveToBack(se.elem)
			}
			data, ref := se.insts, se.ref()
			c.mu.Unlock()
			return data, ref
		}
		if se.ready != nil {
			// Re-record in flight on another goroutine; wait and retry
			// (the refill may be evicted again before we wake).
			ch := se.ready
			c.mu.Unlock()
			<-ch
			c.mu.Lock()
			continue
		}
		se.ready = make(chan struct{})
		c.mu.Unlock()

		lo := se.lo()
		hi := lo + e.sliceLen
		if hi > e.total {
			hi = e.total
		}
		// On panic, withdraw the in-flight marker and wake waiters
		// before re-raising so they retry instead of deadlocking.
		done := false
		defer func() {
			if done {
				return
			}
			c.mu.Lock()
			close(se.ready)
			se.ready = nil
			c.mu.Unlock()
		}()
		// Promotion order: disk tier first (verified zero-copy mmap of
		// the stored bytes), then deterministic re-materialization. A
		// stored file that fails verification is deleted by the store
		// and the refill below regenerates the identical bytes — the
		// never-wrong-bytes fallback.
		var data []trace.Inst
		var pin *tracestore.Pin
		resumed := false
		if e.store != nil {
			if p, perr := e.store.PinSlice(e.skey, si, hi-lo); perr == nil {
				data = p.PinnedInsts()
				pin = p
			} else if errors.Is(perr, tracestore.ErrReject) {
				c.mu.Lock()
				c.stats.DiskRejects++
				c.mu.Unlock()
			}
		}
		if pin == nil {
			data, resumed = e.refill(lo, hi)
		}
		done = true

		c.mu.Lock()
		// The RAM tier owns pin: the slice is retained together with
		// se.pin and unpinned at eviction (or when the cache is
		// collected); the caller gets a reference of its own below.
		//lint:ignore blockalias the entry owns the pin for the slice's resident lifetime
		se.insts = data
		se.pin = pin
		if pin != nil {
			c.held[pin] = struct{}{}
		}
		ref := se.ref()
		se.bytes = int64(len(data)) * instBytes
		close(se.ready)
		se.ready = nil
		if pin != nil {
			c.stats.DiskSliceHits++
		} else {
			c.stats.SliceRerecords++
			if resumed {
				c.stats.SliceResumes++
			} else {
				c.stats.SliceSkims++
			}
		}
		if c.entries[e.key] == e {
			se.elem = c.lru.PushBack(se)
			c.bytes += se.bytes
			c.stats.Slices++
			c.evictLocked()
		}
		c.mu.Unlock()
		// A re-materialized slice is new content for the persistent
		// tier: write it through (outside the lock, from the local
		// array) so the next process promotes instead of refilling.
		if pin == nil && e.store != nil {
			_ = e.store.WriteSlice(e.skey, si, data)
		}
		// Serving materialized slice contents to replays is the view
		// contract; ref keeps a promoted slice's mapping resident until
		// the caller unpins it.
		//lint:ignore blockalias the caller holds ref (its own reference to the mapping) for as long as it reads data
		return data, ref
	}
}

// ref returns a new store reference to se's mapping for a stream about
// to read it, or nil when se is a heap array (caller holds mu).
func (se *sliceEnt) ref() *tracestore.Pin {
	if se.pin == nil {
		return nil
	}
	return se.pin.Ref()
}

// Memo returns the value computed by fn for key, computing it at most
// once per cache lifetime; concurrent callers of the same key block on
// the single computation. It memoizes derived analysis results (H2P
// screenings, IPC cells) that are deterministic functions of cached
// traces and configuration — results small enough that, unlike traces,
// they are exempt from the LRU cap and never evicted. (The largest
// memoized values are screening collectors, roughly 1% of the footprint
// of the trace they summarize; retaining every one for an invocation is
// deliberate and costs far less than a single extra trace.) Inputs
// served from re-materialized slices are byte-identical to the original
// recording, so a memo computed before an eviction is still exact for
// every caller after it. Callers must treat returned values as
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
// single flight, panic withdrawal and cap exemption, but counts in
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
	s.CapBytes = c.maxBytes
	return s
}

// evictLocked enforces the memory cap, least-recently-used slice first
// (caller holds mu). In-flight slices are never in the LRU list and so
// are never evicted. Streams holding an evicted slice's array keep it
// alive independently of the cache; eviction only drops the cache's
// reference and its accounting.
func (c *Cache) evictLocked() {
	maxBytes := c.maxBytes
	if faultinject.Chaos(faultinject.CacheEvict) {
		// Chaos point: evict every resident slice regardless of the cap,
		// forcing later replays through the re-materialization paths.
		// Refills are deterministic, so artifacts stay byte-identical —
		// that invariant is what the fault sweep asserts.
		maxBytes = 1
	}
	if maxBytes <= 0 {
		return
	}
	for c.bytes > maxBytes {
		front := c.lru.Front()
		if front == nil {
			return
		}
		se := front.Value.(*sliceEnt)
		c.lru.Remove(se.elem)
		se.elem = nil
		se.insts = nil
		if se.pin != nil {
			// Disk-promoted slice: demotion is free — the bytes are
			// already on disk, so dropping the RAM tier's pin is the whole
			// write-back (streams reading the slice hold their own).
			delete(c.held, se.pin)
			se.pin.Unpin()
			se.pin = nil
		}
		c.bytes -= se.bytes
		se.bytes = 0
		c.stats.Slices--
		c.stats.SliceEvictions++
	}
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
// slices and total are set).
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
	return &viewStream{v: v, blockCap: n}
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
	si       int          // slice index of cur
	cur      []trace.Inst // the slice array being read; nil before the first and after the last block
	hold     *streamPin   // cur's store reference when cur is a mapping; nil until the first one
}

// streamPin is a stream's store reference to the promoted slice it is
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
	if s.cur == nil || si != s.si {
		s.drop()
		var ref *tracestore.Pin
		s.cur, ref = s.v.c.pin(e, si)
		s.si = si
		if ref != nil {
			if s.hold == nil {
				s.hold = &streamPin{}
				runtime.AddCleanup(s, (*streamPin).release, s.hold)
			}
			s.hold.p = ref
		}
	}
	so := int(g - uint64(si)*e.sliceLen)
	end := len(s.cur)
	if s.blockCap > 0 && end-so > s.blockCap {
		end = so + s.blockCap
	}
	blk := s.cur[so:end:end]
	s.pos += len(blk)
	return blk
}

// drop lets go of the slice the stream was reading.
func (s *viewStream) drop() {
	s.cur = nil
	if s.hold != nil {
		s.hold.release()
	}
}
