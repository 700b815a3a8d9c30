// Checkpointing: the slice-local payload contract (DESIGN.md §6).
//
// A payload is an arbitrary Go closure whose state evolves across the
// whole trace, which is why re-materializing instructions [lo, hi) has
// always required replaying the prefix [0, lo) to rebuild that state.
// A Checkpoint captures everything the continuation depends on — the
// xrand stream, the emitter's counters and call stack, and the
// payload's private state — at payload-declared safe points, so a
// later RecordRangeFrom resumes from the nearest checkpoint at or
// below lo instead of skimming the prefix: an evicted-slice refill
// becomes O(window) and sharded re-recording embarrassingly parallel.
//
// The contract a payload opts into:
//
//   - Its state object implements CheckpointPayload and is registered
//     with Emitter.Checkpointable before the first emission or RNG
//     draw. Setup before that point must be a pure function of the
//     seed/budget (no draws), because it re-runs on resume.
//   - It calls Emitter.Checkpoint() at safe points — positions where
//     CheckpointSave's result, together with the emitter state, fully
//     determines the rest of the generation (typically the top of the
//     main round loop). Between two safe points the payload may do
//     anything; captures only happen at the calls.
//   - CheckpointSave returns the private state as a flat []uint64;
//     CheckpointRestore reinstalls it, reporting false for a snapshot
//     it cannot accept (wrong length/shape), which makes the resume
//     fail with ErrBadCheckpoint instead of generating wrong bytes.
//
// Payloads that never register are simply never checkpointed: capture
// produces an empty list and every consumer falls back to the exact
// skim path, so checkpointing is strictly an optimization — resumed
// output is byte-identical to a skim from zero or it is an error.
package program

import (
	"errors"
	"fmt"
	"sort"
)

// ErrBadCheckpoint is returned (wrapped) when a checkpoint cannot
// resume the generation it claims to belong to: a zero-value or
// corrupt snapshot, a capture position past the requested range, a
// payload that rejects the saved state, or a payload that is not
// checkpointable at all. Callers fall back to the skim path.
var ErrBadCheckpoint = errors.New("program: checkpoint cannot resume this generation")

// Checkpoint is a resume point of one (seed, budget, payload)
// generation, captured at a payload safe point during recording. It is
// valid only for the exact triple it was captured from: all fields are
// deterministic functions of that triple and the capture position.
type Checkpoint struct {
	At      uint64    // instruction index the capture happened at
	Rng     [4]uint64 // xrand generator state
	CurIP   uint64    // emitter instruction pointer
	Callers []uint64  // emitter call stack (return addresses)
	Scratch uint8     // emitter rotating scratch register
	Payload []uint64  // payload-private state (CheckpointSave)
}

// CheckpointPayload is implemented by a payload's state object to opt
// into checkpointing (see the package comment for the full contract).
type CheckpointPayload interface {
	// CheckpointSave returns the payload-private state as a flat
	// []uint64. It is called at safe points during recording; the
	// returned slice is owned by the checkpoint and must not alias
	// mutable payload state.
	CheckpointSave() []uint64
	// CheckpointRestore reinstalls state returned by CheckpointSave,
	// reporting whether the snapshot is compatible. It is called at
	// most once, from Checkpointable, before any emission.
	CheckpointRestore(state []uint64) bool
}

// Checkpointable registers the payload's state object for
// checkpointing. Payloads call it once, before their first emission or
// RNG draw. When the emitter is resuming from a checkpoint this is
// also the restore point: the saved private state is handed to
// p.CheckpointRestore immediately.
func (e *Emitter) Checkpointable(p CheckpointPayload) {
	e.ckptOwner = p
	if e.resuming {
		if !p.CheckpointRestore(e.resumeState) {
			e.Abort(fmt.Errorf("%w: payload rejected the saved state (%d words)",
				ErrBadCheckpoint, len(e.resumeState)))
		}
		e.resuming = false
		e.resumeState = nil
	}
}

// Checkpoint declares a payload safe point. When capture is enabled
// (checkpointed recording) and the generation has crossed the next
// spacing threshold, the emitter snapshots its own state and the
// payload's; otherwise it is two compares. The capture rule — first
// safe point at or after each multiple of the spacing — is a pure
// function of the instruction index, so sharded recordings capture
// exactly the sequential list restricted to their ranges.
func (e *Emitter) Checkpoint() {
	// Safe points are also the cancellation points (DESIGN.md §9): the
	// payload declares that stopping here cannot corrupt anything, so
	// this is where a cancelled recording unwinds. Checked before the
	// spacing early-return so non-checkpointed recordings still cancel.
	e.checkCanceled()
	if e.ckptEvery == 0 || e.emitted < e.nextCkpt {
		return
	}
	e.nextCkpt = (e.emitted/e.ckptEvery + 1) * e.ckptEvery
	if e.ckptOwner == nil || e.emitted < e.ckptLo {
		return
	}
	e.ckpts = append(e.ckpts, Checkpoint{
		At:      e.emitted,
		Rng:     e.rng.State(),
		CurIP:   e.curIP,
		Callers: append([]uint64(nil), e.callers...),
		Scratch: e.scratch,
		Payload: e.ckptOwner.CheckpointSave(),
	})
}

// NearestCheckpoint returns the checkpoint with the greatest At not
// exceeding lo, or nil if none qualifies. ckpts must be sorted by At
// ascending, which every capture path produces.
func NearestCheckpoint(ckpts []Checkpoint, lo uint64) *Checkpoint {
	i := sort.Search(len(ckpts), func(i int) bool { return ckpts[i].At > lo })
	if i == 0 {
		return nil
	}
	return &ckpts[i-1]
}

// restore installs ck into a freshly seeded emitter, leaving it
// positioned exactly where the capture happened; the payload's private
// state is handed over when the payload calls Checkpointable.
func (e *Emitter) restore(ck *Checkpoint) error {
	if err := e.rng.SetState(ck.Rng); err != nil {
		return fmt.Errorf("%w: %w", ErrBadCheckpoint, err)
	}
	e.emitted = ck.At
	e.curIP = ck.CurIP
	e.callers = append([]uint64(nil), ck.Callers...)
	e.scratch = ck.Scratch
	e.resuming = true
	e.resumeState = ck.Payload
	return nil
}
