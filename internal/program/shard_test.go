package program

import (
	"context"
	"runtime"
	"testing"
	"time"

	"branchlab/internal/engine"
	"branchlab/internal/trace"
)

// earlyPayload returns after a fixed instruction count, well under any
// test budget, exercising the short-trace assembly path.
func earlyPayload(e *Emitter) {
	for e.Running() && e.InstCount() < 7777 {
		e.Compute(5)
		e.Cond(1, e.Rand().Bool(0.3))
	}
}

func assertSameBuffer(t *testing.T, got, want *trace.Buffer, label string) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("%s: length %d, want %d", label, got.Len(), want.Len())
	}
	for i := 0; i < want.Len(); i++ {
		if got.At(i) != want.At(i) {
			t.Fatalf("%s: instruction %d differs: %+v != %+v", label, i, got.At(i), want.At(i))
		}
	}
}

// mustRecord is RecordCtx under the background context, failing the
// test on error.
func mustRecord(t *testing.T, seed, budget uint64, payload Payload) *trace.Buffer {
	t.Helper()
	buf, err := RecordCtx(context.Background(), seed, budget, payload)
	if err != nil {
		t.Fatalf("RecordCtx(seed=%d, budget=%d): %v", seed, budget, err)
	}
	return buf
}

// mustSlices is RecordSlicesCtx under the background context, failing
// the test on error.
func mustSlices(t *testing.T, seed, budget uint64, payload Payload, sliceLen uint64, pool *engine.Pool, shards int, ckptEvery uint64) ([][]trace.Inst, []Checkpoint) {
	t.Helper()
	arrs, cks, err := RecordSlicesCtx(context.Background(), seed, budget, payload, sliceLen, pool, shards, ckptEvery, nil)
	if err != nil {
		t.Fatalf("RecordSlicesCtx(seed=%d, budget=%d): %v", seed, budget, err)
	}
	return arrs, cks
}

// A consumer that stops after its first block — the shape of a run
// limited to a prefix of a live generator — must release the producer
// goroutine with Close, which otherwise blocks forever on its next send.
func TestLimitedStreamCloseReleasesProducer(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 50; i++ {
		s := Run(context.Background(), uint64(i), 1<<40, countingPayload)
		if blk := s.NextBlock(); len(blk) == 0 {
			t.Fatal("live generator served no first block")
		}
		if err := s.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
	}
	// Producers exit asynchronously after the cancel; give them a beat.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before+5 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before+5 {
		t.Errorf("goroutines grew from %d to %d: limited streams leak producers", before, n)
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}
