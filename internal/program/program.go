// Package program is the synthetic-program substrate: it turns a workload
// payload — ordinary Go code calling an Emitter — into a deterministic
// instruction Stream with realistic control flow, register dataflow and
// memory behaviour.
//
// The emitter is the reproduction's substitute for tracing real binaries
// (see DESIGN.md §1): every analysis in the paper consumes only
// trace-visible signals (IPs, directions, operand registers, written
// values, addresses), and the emitter produces exactly those signals under
// workload control. Payload functions run in a producer goroutine and are
// pure functions of the seed, so a (payload, seed, budget) triple always
// yields the identical trace.
package program

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sync"

	"branchlab/internal/engine"
	"branchlab/internal/trace"
	"branchlab/internal/xrand"
)

// VarID names a program variable. Variables map to stable architectural
// registers so that reads and writes form honest def-use chains for the
// dependency-graph analysis.
type VarID int

// reg maps a variable to its architectural register (r8..r27, leaving
// low registers for filler code and scratch).
func (v VarID) reg() uint8 { return uint8(8 + int(v)%20) }

// Payload is a synthetic program: it calls Emitter methods until Running
// reports false.
type Payload func(e *Emitter)

const (
	batchSize    = 8192
	branchStride = 64 // bytes of IP space per static branch region
	scratchRegs  = 8  // filler code rotates through registers r0..r7
)

// Emitter records the instructions a payload produces. Methods must only
// be called from the payload goroutine.
type Emitter struct {
	rng     *xrand.Rand
	budget  uint64
	emitted uint64

	baseIP  uint64
	curIP   uint64
	callers []uint64

	batch  []trace.Inst
	out    chan []trace.Inst
	cancel chan struct{}

	// Cancellation (see cancel.go): done is ctx.Done(), nil for the
	// background context, polled only at byte-safe points.
	ctx  context.Context
	done <-chan struct{}

	// Range-recording mode (see recordSegments): instructions with
	// index < skip are generated but not materialized, instructions in
	// [skip, stopAt) append to direct, and reaching stopAt unwinds the
	// payload. stopAt == 0 disables early stop; direct == nil selects
	// the batching channel path. segs holds further pre-allocated
	// capacity-capped windows (slice-granular recording): when direct
	// fills to capacity it is retired to filled and the next window
	// takes over, so one prefix replay materializes many independently
	// owned slice arrays.
	skip   uint64
	stopAt uint64
	direct []trace.Inst
	segs   [][]trace.Inst
	filled [][]trace.Inst

	// Streaming (see SliceSink): sink, when set, receives direct in
	// ChunkInsts pieces as it fills; slice is direct's global slice
	// index and sent how much of it the sink has seen. mark is the
	// length of direct at which emit next calls boundary: the window's
	// capacity without a sink, the next chunk end with one, -1 once the
	// last window has retired — so the hot path pays one compare either
	// way.
	sink  SliceSink
	slice int
	sent  int
	mark  int

	// Checkpointing (see checkpoint.go): with ckptEvery > 0 the emitter
	// captures a Checkpoint at the first payload safe point at or after
	// each multiple of ckptEvery, storing only captures at index >=
	// ckptLo (sharded recorders skim the prefix but store only their own
	// range). resuming is set while a restored payload state waits for
	// the payload to claim it via Checkpointable; emitting in that
	// window is a contract violation and aborts the resume.
	ckptEvery   uint64
	nextCkpt    uint64
	ckptLo      uint64
	ckpts       []Checkpoint
	ckptOwner   CheckpointPayload
	resuming    bool
	resumeState []uint64

	scratch uint8 // rotating scratch register for filler code
}

// stopSignal unwinds the payload goroutine when the consumer closes the
// stream early.
type stopSignal struct{}

// payloadAbort unwinds the payload with a typed error (Emitter.Abort,
// cancellation, a checkpoint resume that cannot proceed). Only the two
// recording entry points (Run's producer, recordSegments) recover
// it, turning it back into their error return.
type payloadAbort struct{ err error }

// Rand returns the emitter's deterministic random source. Payloads must
// draw all randomness from it.
func (e *Emitter) Rand() *xrand.Rand { return e.rng }

// Running reports whether the payload should keep generating. Payloads
// use it as their main loop condition; inner kernels of bounded size may
// overshoot by a fraction of a batch, which the stream truncates.
func (e *Emitter) Running() bool { return e.emitted < e.budget }

// Abort unwinds the payload with a typed error instead of a panic. The
// recording entry point converts it into its error return; the
// partially generated bytes are discarded, never returned. Payloads
// use it for unreachable-configuration guards that should fail the run
// loudly without killing the process.
func (e *Emitter) Abort(err error) {
	if err == nil {
		err = errors.New("program: Abort(nil)")
	}
	//lint:ignore errcontract payloadAbort is a typed unwind recovered at the Record* run boundary and returned as the recording's error, never escaping to callers
	panic(payloadAbort{err})
}

// InstCount returns the number of instructions emitted so far.
func (e *Emitter) InstCount() uint64 { return e.emitted }

// Budget returns the total instruction budget of this run. Payloads use
// it to scale structures that the paper defines per trace length (e.g.
// static code footprint per 30M-instruction slice).
func (e *Emitter) Budget() uint64 { return e.budget }

func (e *Emitter) emit(inst trace.Inst) {
	if e.resuming {
		// A resumed emitter whose payload emits before claiming the
		// saved state via Checkpointable would silently generate wrong
		// bytes: the payload restarted from its zero state while the
		// counters and RNG continued mid-trace. Abort to the skim path.
		e.Abort(fmt.Errorf("%w: payload emitted before Checkpointable", ErrBadCheckpoint))
	}
	if e.emitted >= e.budget {
		return
	}
	if e.emitted >= e.skip {
		if e.direct != nil {
			e.direct = append(e.direct, inst)
			if len(e.direct) == e.mark {
				e.boundary()
			}
		} else {
			e.batch = append(e.batch, inst)
			if len(e.batch) >= batchSize {
				e.flush()
			}
		}
	}
	e.emitted++
	if e.stopAt != 0 && e.emitted >= e.stopAt {
		//lint:ignore errcontract stopSignal is a typed unwind for a clean early stop, recovered at the Record* run boundary; it never escapes to callers
		panic(stopSignal{})
	}
}

// boundary runs when direct reaches mark: it hands the sink the chunk
// since the last hand-off, retires a full window (the next one takes
// over) and sets the next mark.
func (e *Emitter) boundary() {
	full := len(e.direct) == cap(e.direct)
	if e.sink != nil {
		e.sink(e.slice, e.direct[e.sent:], full)
		e.sent = len(e.direct)
	}
	if full {
		if len(e.segs) == 0 {
			e.mark = -1 // the range is full; stopAt unwinds the payload
			return
		}
		e.filled = append(e.filled, e.direct)
		e.direct = e.segs[0]
		e.segs = e.segs[1:]
		e.slice++
		e.sent = 0
	}
	e.setMark()
	// Chunk ends and window retirements are byte-safe points: a cancel
	// here discards every window, full and partial alike.
	e.checkCanceled()
}

// setMark sets the length of direct at which boundary next runs.
func (e *Emitter) setMark() {
	e.mark = cap(e.direct)
	if e.sink != nil {
		e.mark = min(e.sent+ChunkInsts, e.mark)
	}
}

func (e *Emitter) flush() {
	if len(e.batch) == 0 {
		return
	}
	select {
	case e.out <- e.batch:
	case <-e.cancel:
		//lint:ignore errcontract stopSignal is a typed unwind for a clean early stop, recovered at the Record* run boundary; it never escapes to callers
		panic(stopSignal{})
	case <-e.done:
		// Context cancellation: unlike a consumer Close (stopSignal,
		// a clean early stop), this is an error the stream reports.
		e.Abort(&canceledError{cause: e.ctx.Err()})
	}
	e.batch = make([]trace.Inst, 0, batchSize)
}

// BranchIP returns the stable instruction pointer assigned to branch id.
func (e *Emitter) BranchIP(id int) uint64 {
	return e.baseIP + uint64(id)*branchStride
}

// Compute emits n filler computation instructions (ALU/MUL/FP mix) with
// plausible register pressure on the low registers.
func (e *Emitter) Compute(n int) {
	for i := 0; i < n && e.Running(); i++ {
		kind := trace.KindALU
		switch e.rng.Intn(16) {
		case 0:
			kind = trace.KindMul
		case 1:
			kind = trace.KindFP
		}
		dst := e.scratch
		e.scratch = (e.scratch + 1) % scratchRegs
		e.emit(trace.Inst{
			IP:       e.curIP,
			Kind:     kind,
			DstReg:   dst,
			DstValue: e.rng.Uint64() & 0xFFFF,
			SrcRegs:  [2]uint8{(dst + 1) % scratchRegs, (dst + 3) % scratchRegs},
		})
		e.curIP += 4
	}
}

// SetVar emits an ALU instruction writing value into v's register. The
// written value is visible to the register-value analysis (Fig 10) and
// the def-use chain to any branch reading v (Table III / Fig 6).
func (e *Emitter) SetVar(v VarID, value uint64) {
	e.emit(trace.Inst{
		IP:       e.curIP,
		Kind:     trace.KindALU,
		DstReg:   v.reg(),
		DstValue: value,
		SrcRegs:  [2]uint8{v.reg(), trace.NoReg},
	})
	e.curIP += 4
}

// SetVarLoad is SetVar through memory: a load from addr defines v.
func (e *Emitter) SetVarLoad(v VarID, addr, value uint64) {
	e.emit(trace.Inst{
		IP:       e.curIP,
		Kind:     trace.KindLoad,
		MemAddr:  addr,
		DstReg:   v.reg(),
		DstValue: value,
		SrcRegs:  [2]uint8{trace.NoReg, trace.NoReg},
	})
	e.curIP += 4
}

// Load emits a load from addr into a scratch register.
func (e *Emitter) Load(addr uint64) {
	dst := e.scratch
	e.scratch = (e.scratch + 1) % scratchRegs
	e.emit(trace.Inst{
		IP:      e.curIP,
		Kind:    trace.KindLoad,
		MemAddr: addr,
		DstReg:  dst,
		SrcRegs: [2]uint8{trace.NoReg, trace.NoReg},
	})
	e.curIP += 4
}

// Store emits a store to addr.
func (e *Emitter) Store(addr uint64) {
	e.emit(trace.Inst{
		IP:      e.curIP,
		Kind:    trace.KindStore,
		MemAddr: addr,
		DstReg:  trace.NoReg,
		SrcRegs: [2]uint8{e.scratch, trace.NoReg},
	})
	e.curIP += 4
}

// Cond emits the conditional branch id with the given resolved direction.
// reads lists the variables the branch condition depends on; they become
// the branch's source registers. The branch target is forward.
func (e *Emitter) Cond(id int, taken bool, reads ...VarID) {
	ip := e.BranchIP(id)
	e.condAt(ip, ip+branchStride/2, taken, reads)
}

// CondBackward emits branch id as a backward (loop-style) branch, the
// shape the IMLI component of TAGE-SC-L keys on.
func (e *Emitter) CondBackward(id int, taken bool, reads ...VarID) {
	ip := e.BranchIP(id)
	target := ip - 8*branchStride
	if target > ip { // underflow guard
		target = e.baseIP
	}
	e.condAt(ip, target, taken, reads)
}

func (e *Emitter) condAt(ip, target uint64, taken bool, reads []VarID) {
	inst := trace.Inst{
		IP:      ip,
		Kind:    trace.KindCondBr,
		Target:  target,
		Taken:   taken,
		DstReg:  trace.NoReg,
		SrcRegs: [2]uint8{trace.NoReg, trace.NoReg},
	}
	for i, v := range reads {
		if i >= 2 {
			break
		}
		inst.SrcRegs[i] = v.reg()
	}
	e.emit(inst)
	if taken {
		e.curIP = target
	} else {
		e.curIP = ip + 4
	}
}

// Call emits a direct call into function fn's region and tracks the
// return address.
func (e *Emitter) Call(fn int) {
	ip := e.curIP
	target := e.baseIP + 1<<20 + uint64(fn)*4096
	e.emit(trace.Inst{
		IP: ip, Kind: trace.KindCall, Target: target, Taken: true,
		DstReg: trace.NoReg, SrcRegs: [2]uint8{trace.NoReg, trace.NoReg},
	})
	e.callers = append(e.callers, ip+4)
	e.curIP = target
}

// Ret returns from the innermost Call; without one it is a no-op jump.
func (e *Emitter) Ret() {
	if len(e.callers) == 0 {
		return
	}
	target := e.callers[len(e.callers)-1]
	e.callers = e.callers[:len(e.callers)-1]
	e.emit(trace.Inst{
		IP: e.curIP, Kind: trace.KindRet, Target: target, Taken: true,
		DstReg: trace.NoReg, SrcRegs: [2]uint8{trace.NoReg, trace.NoReg},
	})
	e.curIP = target
}

// Jump emits an unconditional direct jump to branch id's region.
func (e *Emitter) Jump(id int) {
	target := e.BranchIP(id)
	e.emit(trace.Inst{
		IP: e.curIP, Kind: trace.KindJump, Target: target, Taken: true,
		DstReg: trace.NoReg, SrcRegs: [2]uint8{trace.NoReg, trace.NoReg},
	})
	e.curIP = target
}

// Stream is the consumer side of a running payload. It implements
// trace.BlockStream; Close releases the producer goroutine.
type Stream struct {
	out    chan []trace.Inst
	cancel chan struct{}
	once   sync.Once
	err    error
}

// Err returns the typed error that terminated the producer: a
// cancellation (matching ErrCanceled), a payload Abort, or a payload
// panic converted to an error. It is nil for a clean end of stream or
// a consumer-initiated Close. Valid only after NextBlock reports end
// of stream or after Close — a stream that ended early with a
// non-nil Err delivered a truncated prefix, and its bytes must be
// discarded.
func (s *Stream) Err() error { return s.err }

// Run starts payload in a producer goroutine and returns the consuming
// stream. The stream yields at most budget instructions. Callers should
// Close the stream if they stop early; draining it fully also releases
// the producer. ctx bounds the run: when it is done the producer
// unwinds at its next byte-safe point, the stream ends, and Err
// reports a typed cancellation. A panicking payload likewise ends the
// stream with Err set instead of crashing the process.
func Run(ctx context.Context, seed, budget uint64, payload Payload) *Stream {
	s := &Stream{
		out:    make(chan []trace.Inst, 2),
		cancel: make(chan struct{}),
	}
	e := &Emitter{
		rng:    xrand.New(seed),
		budget: budget,
		baseIP: 0x400000,
		curIP:  0x400000,
		batch:  make([]trace.Inst, 0, batchSize),
		out:    s.out,
		cancel: s.cancel,
	}
	e.bindContext(ctx)
	go func() {
		// LIFO order: the recover below runs first and records s.err,
		// then the close publishes it to the consumer (channel close is
		// the happens-before edge Err relies on).
		defer close(s.out)
		defer func() {
			r := recover()
			if r == nil {
				return
			}
			if _, ok := r.(stopSignal); ok {
				return // consumer closed the stream; clean early stop
			}
			if pa, ok := r.(payloadAbort); ok {
				s.err = pa.err // cancellation or payload Abort
				return
			}
			s.err = fmt.Errorf("program: payload panicked: %v\n%s", r, debug.Stack())
		}()
		payload(e)
		e.flush()
	}()
	return s
}

// NextBlock implements trace.BlockStream: it hands the producer's
// batches to the consumer directly, so a block-based replay of a live
// generator copies no instructions at all.
func (s *Stream) NextBlock() []trace.Inst {
	return <-s.out
}

// Close releases the producer goroutine.
func (s *Stream) Close() error {
	s.once.Do(func() {
		close(s.cancel)
		// Drain so the producer's in-flight send completes.
		for range s.out {
		}
	})
	return nil
}

// RecordCtx runs payload to completion and materializes the trace. The
// buffer is pre-sized from the budget: payloads run until the budget is
// exhausted, so the recording's final length is the budget except for
// payloads that return early. On cancellation or payload failure it
// returns (nil, err) with a typed error — never a truncated buffer.
func RecordCtx(ctx context.Context, seed, budget uint64, payload Payload) (*trace.Buffer, error) {
	s := Run(ctx, seed, budget, payload)
	defer s.Close()
	buf := trace.RecordSized(s, budget)
	if err := s.Err(); err != nil {
		return nil, err
	}
	return buf, nil
}

// ChunkInsts is the streaming granularity of RecordSlicesCtx: a sink
// sees each slice window in pieces of this many instructions (1.25 MiB
// of records), so a consumer such as a store writer works on a slice
// while the rest of it is still generating.
const ChunkInsts = 32 << 10

// SliceSink receives a slice-granular recording while it records.
// RecordSlicesCtx hands it each slice window in order, in consecutive
// chunks of ChunkInsts instructions; the call with last set carries the
// rest of the window (possibly empty) once the window retires — full,
// or the trace's final slice when the payload ends. A chunk aliases the
// window array RecordSlicesCtx returns, which never reallocates and is
// not written again, so the sink may read it from another goroutine
// until it drops the arrays; it must never write it. Calls for one slice
// come from one goroutine, in order; a sharded recording calls the sink
// from several goroutines, one per shard's range of slices. No call
// follows RecordSlicesCtx's return. When the recording fails, the
// chunks already handed over belong to no returned array and the
// slices without a last call never completed.
type SliceSink func(slice int, chunk []trace.Inst, last bool)

// recordSegments generates instructions [lo, hi) of the (seed, budget,
// payload) trace synchronously — no producer goroutine, no channel —
// filling the pre-allocated capacity-capped windows segs in order and
// returning the windows that received instructions. The payload replays
// from the start with a freshly reseeded RNG (every shard derives the
// identical xrand stream from the trace seed), skims the prefix without
// materializing it, and unwinds as soon as the range is full. The
// window capacities must sum to at least hi-lo so no append ever
// reallocates a window. A non-nil sink streams the windows as they fill
// (see SliceSink); slice0 is the global slice index of segs[0].
//
// ckptEvery > 0 additionally captures payload checkpoints within
// [lo, hi) at that spacing (see checkpoint.go); from != nil resumes
// the replay at from.At instead of instruction zero — the O(window)
// refill path — and fails with ErrBadCheckpoint (wrapped) when the
// checkpoint cannot reproduce the generation, leaving the caller to
// fall back to a skim from zero.
func recordSegments(ctx context.Context, seed, budget uint64, payload Payload, lo, hi uint64, segs [][]trace.Inst, sink SliceSink, slice0 int, ckptEvery uint64, from *Checkpoint) ([][]trace.Inst, []Checkpoint, error) {
	e := &Emitter{
		rng:       xrand.New(seed),
		budget:    budget,
		baseIP:    0x400000,
		curIP:     0x400000,
		skip:      lo,
		stopAt:    hi,
		direct:    segs[0],
		segs:      segs[1:],
		sink:      sink,
		slice:     slice0,
		ckptEvery: ckptEvery,
		nextCkpt:  ckptEvery, // never capture the trivial At=0 state
		ckptLo:    lo,
	}
	e.setMark()
	e.bindContext(ctx)
	if from != nil {
		if from.At > lo {
			return nil, nil, fmt.Errorf("%w: captured at %d, past range start %d", ErrBadCheckpoint, from.At, lo)
		}
		if err := e.restore(from); err != nil {
			return nil, nil, err
		}
	}
	err := func() (err error) {
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(stopSignal); ok {
					return
				}
				if pa, ok := r.(payloadAbort); ok {
					err = pa.err // cancellation, payload Abort or failed resume
					return
				}
				panic(r)
			}
		}()
		payload(e)
		if e.resuming {
			err = fmt.Errorf("%w: payload never registered via Checkpointable", ErrBadCheckpoint)
		}
		return
	}()
	if err != nil {
		return nil, nil, err
	}
	if e.sink != nil && e.mark >= 0 && len(e.direct) > 0 {
		// The payload ended inside this window: it retires short.
		e.sink(e.slice, e.direct[e.sent:], true)
	}
	return append(e.filled, e.direct), e.ckpts, nil
}

// RecordRangeFrom materializes instructions [lo, hi) of the (seed,
// budget, payload) trace into a freshly allocated array: the
// slice-granular trace cache's refill path. With ck == nil the replay
// reseeds from the trace seed and skims the prefix without
// materializing it — O(lo + window). With a checkpoint generation
// starts at ck.At instead, so the refill costs O(lo-ck.At + window) —
// O(window) when checkpoints were captured at slice spacing. ck must
// come from a checkpointed recording of the identical (seed, budget,
// payload) triple with ck.At <= lo. Either way the bytes are identical
// to the same range of a full recording, or the call fails (wrapping
// ErrBadCheckpoint, or xrand.ErrZeroState for a zero-value checkpoint)
// and the caller retries with ck == nil — wrong bytes are never
// returned.
//
// Refills are deliberately context-free: a replay must be able to
// regenerate evicted bytes after the recording context is gone.
func RecordRangeFrom(seed, budget uint64, payload Payload, ck *Checkpoint, lo, hi uint64) ([]trace.Inst, error) {
	if hi > budget {
		hi = budget
	}
	if lo >= hi {
		return nil, nil
	}
	//lint:ignore ctxflow range refills are deliberately context-free: a replay must be able to regenerate bytes after the recording context is gone
	segs, _, err := recordSegments(context.Background(), seed, budget, payload, lo, hi,
		[][]trace.Inst{make([]trace.Inst, 0, hi-lo)}, nil, 0, 0, ck)
	if err != nil {
		return nil, err
	}
	return segs[len(segs)-1], nil
}

// RecordSlicesCtx materializes the same trace RecordCtx produces as
// consecutive, independently owned arrays of sliceLen instructions
// each (the last may be shorter): the ingest path of the slice-granular
// trace cache, which needs each slice to be individually evictable —
// dropping one array frees its memory, which views of a shared backing
// array (Buffer.Slice) cannot do. sliceLen == 0 or >= budget yields a
// single array. With shards > 1 the generation splits across pool
// workers at slice-aligned boundaries: worker w replays the payload
// deterministically from the trace seed, skims the instructions before
// its first slice (generated, counted, not stored) and fills its own
// slice arrays (no copies, no channel handoff). The concatenated arrays
// are byte-identical to RecordCtx at any (sliceLen, shards)
// combination: payloads are pure functions of the seed. See DESIGN.md
// §6 for why prefix replay — rather than per-slice generator reseeding
// — is what keeps the recording byte-identical for arbitrary payloads.
//
// ckptEvery > 0 additionally captures payload checkpoints at that
// spacing (first safe point at or after each multiple; see
// checkpoint.go), returned sorted by capture index. The capture rule
// is a pure function of the instruction index, so the checkpoint list
// is identical at any shard count; a payload that never registers via
// Emitter.Checkpointable yields an empty list (the fallback consumers
// detect). ckptEvery == 0 disables capture.
//
// A non-nil sink receives every slice window while it records, in
// ChunkInsts pieces (see SliceSink); the arrays returned are the same
// windows. A nil sink costs the emitter nothing beyond the window
// bookkeeping it already does.
//
// ctx bounds the recording: cancellation or a payload failure returns
// (nil, nil, err) with a typed error; partial slice arrays are never
// returned.
func RecordSlicesCtx(ctx context.Context, seed, budget uint64, payload Payload, sliceLen uint64, pool *engine.Pool, shards int, ckptEvery uint64, sink SliceSink) ([][]trace.Inst, []Checkpoint, error) {
	if budget == 0 {
		return nil, nil, nil
	}
	if sliceLen == 0 || sliceLen > budget {
		sliceLen = budget
	}
	nSlices := int((budget + sliceLen - 1) / sliceLen)
	// capOf is the exact capacity of slice si; windows never reallocate.
	capOf := func(si int) uint64 {
		lo := uint64(si) * sliceLen
		hi := lo + sliceLen
		if hi > budget {
			hi = budget
		}
		return hi - lo
	}
	mkWindows := func(s0, s1 int) [][]trace.Inst {
		ws := make([][]trace.Inst, 0, s1-s0)
		for si := s0; si < s1; si++ {
			ws = append(ws, make([]trace.Inst, 0, capOf(si)))
		}
		return ws
	}

	out := make([][]trace.Inst, nSlices)
	var cks []Checkpoint
	if pool == nil {
		pool = engine.New(0)
	}
	if shards > nSlices {
		shards = nSlices
	}
	if shards <= 1 {
		filled, c, err := recordSegments(ctx, seed, budget, payload, 0, budget, mkWindows(0, nSlices), sink, 0, ckptEvery, nil)
		if err != nil {
			return nil, nil, err
		}
		copy(out, filled)
		cks = c
	} else {
		// Shard boundaries align to slice boundaries so every window
		// belongs to exactly one worker.
		per := (nSlices + shards - 1) / shards
		parts, err := engine.MapErr(ctx, pool, shards, func(ctx context.Context, w int) ([]Checkpoint, error) {
			s0 := w * per
			s1 := s0 + per
			if s1 > nSlices {
				s1 = nSlices
			}
			if s0 >= s1 {
				return nil, nil
			}
			lo := uint64(s0) * sliceLen
			hi := uint64(s1) * sliceLen
			if hi > budget {
				hi = budget
			}
			filled, c, err := recordSegments(ctx, seed, budget, payload, lo, hi, mkWindows(s0, s1), sink, s0, ckptEvery, nil)
			if err != nil {
				return nil, err
			}
			copy(out[s0:s1], filled)
			return c, nil
		})
		if err != nil {
			return nil, nil, err
		}
		// Workers capture within disjoint ascending ranges under the
		// same index-driven rule, so concatenation in worker order is
		// the sequential capture list.
		for _, p := range parts {
			cks = append(cks, p...)
		}
	}
	// A payload that returns before exhausting the budget ends every
	// replica at the same deterministic point: the first short slice is
	// the end of the trace, and everything after it is empty.
	for si, sl := range out {
		if uint64(len(sl)) < capOf(si) {
			if len(sl) == 0 {
				return out[:si], cks, nil
			}
			return out[:si+1], cks, nil
		}
	}
	return out, cks, nil
}
