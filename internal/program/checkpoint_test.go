package program

import (
	"errors"
	"reflect"
	"testing"

	"branchlab/internal/engine"
	"branchlab/internal/xrand"
)

// ckptState is the private state of ckptPayload: a random walk, a
// round counter and a small ring, exercising every kind of state a
// real generator carries (RNG-coupled values, counters, arrays).
type ckptState struct {
	x      uint64
	rounds uint64
	ring   [4]uint64
}

func (c *ckptState) CheckpointSave() []uint64 {
	st := make([]uint64, 0, 2+len(c.ring))
	st = append(st, c.x, c.rounds)
	return append(st, c.ring[:]...)
}

func (c *ckptState) CheckpointRestore(st []uint64) bool {
	if len(st) != 2+len(c.ring) {
		return false
	}
	c.x, c.rounds = st[0], st[1]
	copy(c.ring[:], st[2:])
	return true
}

// ckptPayload is a checkpointable payload covering branches, calls,
// filler and state-dependent control flow.
func ckptPayload(e *Emitter) {
	st := &ckptState{x: 1}
	e.Checkpointable(st)
	for e.Running() {
		e.Checkpoint()
		st.x += uint64(e.Rand().Intn(3))
		st.ring[st.rounds%4] = st.x
		e.Compute(1 + int(st.x%7))
		e.Cond(int(st.x%5), e.Rand().Bool(0.5))
		if st.rounds%11 == 3 {
			e.Call(1)
			e.Compute(2)
			e.Cond(9, st.ring[0]&1 == 1)
			e.Ret()
		}
		st.rounds++
	}
}

// Resuming from every captured checkpoint must reproduce the exact
// bytes of a fresh recording for windows anywhere at or after the
// capture point — the refill contract.
func TestCheckpointResumeByteIdentical(t *testing.T) {
	const budget = 50_000
	want := mustRecord(t, 42, budget, ckptPayload)
	for _, every := range []uint64{1000, 7777, 20_000} {
		arrs, cks := mustSlices(t, 42, budget, ckptPayload, 5000, nil, 1, every)
		assertSameBuffer(t, joinSlices(arrs), want, "ckptEvery="+itoa(int(every)))
		if len(cks) == 0 {
			t.Fatalf("every=%d: no checkpoints captured", every)
		}
		for i, ck := range cks {
			if ck.At < every || (i > 0 && ck.At <= cks[i-1].At) {
				t.Fatalf("every=%d: checkpoint %d at %d out of order or trivial", every, i, ck.At)
			}
			for _, span := range []uint64{1, 512, 9999} {
				lo := ck.At
				hi := lo + span
				if hi > budget {
					hi = budget
				}
				got, err := RecordRangeFrom(42, budget, ckptPayload, &cks[i], lo, hi)
				if err != nil {
					t.Fatalf("every=%d ck@%d span=%d: %v", every, ck.At, span, err)
				}
				for j, inst := range got {
					if inst != want.At(int(lo)+j) {
						t.Fatalf("every=%d ck@%d: resumed inst %d differs", every, ck.At, j)
					}
				}
			}
		}
		// Resume to a window well past the checkpoint (generation crosses
		// other checkpoints' positions on the way).
		ck := cks[0]
		got, err := RecordRangeFrom(42, budget, ckptPayload, &ck, budget-500, budget)
		if err != nil {
			t.Fatal(err)
		}
		for j, inst := range got {
			if inst != want.At(int(budget-500)+j) {
				t.Fatalf("long resume: inst %d differs", j)
			}
		}
	}
}

// The capture rule is a pure function of the instruction index, so the
// checkpoint list must be identical at any shard count.
func TestCheckpointCaptureShardInvariant(t *testing.T) {
	const budget = 40_000
	_, want := mustSlices(t, 7, budget, ckptPayload, 4000, nil, 1, 3000)
	if len(want) == 0 {
		t.Fatal("sequential capture produced no checkpoints")
	}
	pool := engine.New(4)
	for _, shards := range []int{2, 3, 7} {
		_, got := mustSlices(t, 7, budget, ckptPayload, 4000, pool, shards, 3000)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("shards=%d: checkpoint list differs from sequential (%d vs %d checkpoints)",
				shards, len(got), len(want))
		}
	}
}

// Payloads that never register are never captured: the fallback
// consumers see an empty list and skim.
func TestNonCheckpointablePayloadCapturesNothing(t *testing.T) {
	arrs, cks := mustSlices(t, 5, 20_000, countingPayload, 2000, nil, 1, 1000)
	if len(cks) != 0 {
		t.Fatalf("non-checkpointable payload captured %d checkpoints", len(cks))
	}
	assertSameBuffer(t, joinSlices(arrs), mustRecord(t, 5, 20_000, countingPayload), "fallback")
}

// Bad checkpoints must fail with typed errors — never panic a replay
// worker, never return wrong bytes.
func TestResumeRejectsBadCheckpoints(t *testing.T) {
	const budget = 20_000
	_, cks := mustSlices(t, 3, budget, ckptPayload, 2000, nil, 1, 2000)
	if len(cks) == 0 {
		t.Fatal("no checkpoints captured")
	}
	good := cks[0]

	// Zero-value checkpoint: rejected via the RNG's zero-state check.
	if _, err := RecordRangeFrom(3, budget, ckptPayload, &Checkpoint{}, 100, 200); !errors.Is(err, xrand.ErrZeroState) || !errors.Is(err, ErrBadCheckpoint) {
		t.Fatalf("zero checkpoint: err = %v, want ErrBadCheckpoint wrapping ErrZeroState", err)
	}
	// Capture point past the requested range.
	if _, err := RecordRangeFrom(3, budget, ckptPayload, &good, good.At-1, good.At+100); !errors.Is(err, ErrBadCheckpoint) {
		t.Fatalf("ck.At > lo: err = %v, want ErrBadCheckpoint", err)
	}
	// Payload state the payload cannot accept.
	bad := good
	bad.Payload = []uint64{1, 2}
	if _, err := RecordRangeFrom(3, budget, ckptPayload, &bad, bad.At, bad.At+100); !errors.Is(err, ErrBadCheckpoint) {
		t.Fatalf("short state: err = %v, want ErrBadCheckpoint", err)
	}
	// A non-checkpointable payload handed a checkpoint must error, not
	// silently emit from mismatched state.
	if _, err := RecordRangeFrom(3, budget, countingPayload, &good, good.At, good.At+100); !errors.Is(err, ErrBadCheckpoint) {
		t.Fatalf("non-checkpointable resume: err = %v, want ErrBadCheckpoint", err)
	}
}

func TestNearestCheckpoint(t *testing.T) {
	cks := []Checkpoint{{At: 10}, {At: 30}, {At: 70}}
	for _, tc := range []struct {
		lo   uint64
		want int // index into cks, -1 for nil
	}{
		{0, -1}, {9, -1}, {10, 0}, {29, 0}, {30, 1}, {69, 1}, {70, 2}, {1000, 2},
	} {
		got := NearestCheckpoint(cks, tc.lo)
		if tc.want < 0 {
			if got != nil {
				t.Fatalf("lo=%d: got checkpoint at %d, want none", tc.lo, got.At)
			}
			continue
		}
		if got == nil || got.At != cks[tc.want].At {
			t.Fatalf("lo=%d: got %v, want checkpoint at %d", tc.lo, got, cks[tc.want].At)
		}
	}
	if NearestCheckpoint(nil, 100) != nil {
		t.Fatal("nil list returned a checkpoint")
	}
}
