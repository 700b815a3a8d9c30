package program

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"branchlab/internal/engine"
	"branchlab/internal/trace"
)

// leakCheck snapshots the goroutine count and returns a func that
// fails the test if stray goroutines remain after a grace period.
func leakCheck(t *testing.T) func() {
	t.Helper()
	base := runtime.NumGoroutine()
	return func() {
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > base {
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<20)
				n := runtime.Stack(buf, true)
				t.Errorf("goroutine leak: %d before, %d after\n%s",
					base, runtime.NumGoroutine(), buf[:n])
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
}

// selfCancelPayload cancels its own context once the generation crosses
// at instructions, making mid-run cancellation deterministic: the next
// byte-safe point (flush, window retirement, or SafePoint) aborts.
func selfCancelPayload(cancel context.CancelFunc, at uint64, safePoint bool) Payload {
	return func(e *Emitter) {
		for e.Running() {
			if e.InstCount() >= at {
				cancel()
			}
			e.Compute(10)
			e.Cond(0, e.Rand().Bool(0.5))
			if safePoint {
				e.SafePoint()
			}
		}
	}
}

// TestRunCtxCancelEndsStreamTyped: cancelling a live stream's context
// ends it at a byte-safe point with Err matching ErrCanceled, without
// leaking the producer goroutine.
func TestRunCtxCancelEndsStreamTyped(t *testing.T) {
	defer leakCheck(t)()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s := Run(ctx, 1, 10_000_000, selfCancelPayload(cancel, 100_000, false))
	n := count(s)
	if err := s.Err(); !errors.Is(err, ErrCanceled) {
		t.Fatalf("Stream.Err() = %v, want ErrCanceled", err)
	}
	if !engine.IsCancel(s.Err()) {
		t.Fatal("cancellation error not classified by engine.IsCancel")
	}
	if n == 10_000_000 {
		t.Fatal("cancelled stream still delivered the full budget")
	}
}

// TestRunCtxUncancelledIsByteIdentical: streaming under a context that
// never fires changes nothing — same bytes as the recording path.
func TestRunCtxUncancelledIsByteIdentical(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	want := mustRecord(t, 7, 50_000, countingPayload)
	s := Run(ctx, 7, 50_000, countingPayload)
	got := trace.RecordSized(s, 50_000)
	if err := s.Err(); err != nil {
		t.Fatalf("uncancelled Run stream erred: %v", err)
	}
	if got.Len() != want.Len() {
		t.Fatalf("lengths differ: %d vs %d", got.Len(), want.Len())
	}
	for i := 0; i < got.Len(); i++ {
		if got.At(i) != want.At(i) {
			t.Fatalf("inst %d differs under an inert context", i)
		}
	}
}

// TestRecordCtxCancelReturnsTypedError: a cancelled recording returns
// (nil, err) — never a truncated buffer.
func TestRecordCtxCancelReturnsTypedError(t *testing.T) {
	defer leakCheck(t)()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	buf, err := RecordCtx(ctx, 1, 10_000_000, selfCancelPayload(cancel, 100_000, false))
	if buf != nil {
		t.Fatalf("cancelled RecordCtx returned a %d-inst buffer", buf.Len())
	}
	if !errors.Is(err, ErrCanceled) || !engine.IsCancel(err) {
		t.Fatalf("RecordCtx = %v, want a typed cancellation", err)
	}
}

// TestRecordCtxPayloadPanicIsTypedError: a panicking payload fails the
// recording with an error carrying the panic, not the process.
func TestRecordCtxPayloadPanicIsTypedError(t *testing.T) {
	defer leakCheck(t)()
	buf, err := RecordCtx(context.Background(), 1, 1000, func(e *Emitter) {
		e.Compute(10)
		panic("payload bug")
	})
	if buf != nil || err == nil {
		t.Fatalf("RecordCtx(panicking payload) = %v, %v", buf, err)
	}
	if errors.Is(err, ErrCanceled) || engine.IsCancel(err) {
		t.Fatalf("payload panic misclassified as cancellation: %v", err)
	}
	//lint:ignore errcontract asserts the payload's panic value (a string) survives into the message; there is no sentinel to discriminate
	if !strings.Contains(err.Error(), "payload bug") {
		t.Fatalf("panic error lost the payload's panic value: %v", err)
	}
}

// TestRecordCtxAbortPropagates: Emitter.Abort's typed error is the
// recording's error.
func TestRecordCtxAbortPropagates(t *testing.T) {
	defer leakCheck(t)()
	boom := errors.New("impossible configuration")
	_, err := RecordCtx(context.Background(), 1, 1000, func(e *Emitter) {
		e.Compute(10)
		e.Abort(boom)
	})
	if !errors.Is(err, boom) {
		t.Fatalf("RecordCtx(aborting payload) = %v, want %v", err, boom)
	}
	if engine.IsCancel(err) {
		t.Fatal("payload abort misclassified as cancellation")
	}
}

// TestRecordSlicesCtxCancelViaSafePoint: a payload's SafePoint call is
// a cancellation point inside a single slice window.
func TestRecordSlicesCtxCancelViaSafePoint(t *testing.T) {
	defer leakCheck(t)()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	out, err := RecordSlicesCtx(ctx, 1, 1_000_000, selfCancelPayload(cancel, 10_000, true),
		1_000_000, nil)
	if out != nil {
		t.Fatalf("cancelled RecordSlicesCtx returned %d slices", len(out))
	}
	if !errors.Is(err, ErrCanceled) || !engine.IsCancel(err) {
		t.Fatalf("RecordSlicesCtx = %v, want a typed cancellation", err)
	}
}

// TestRecordSlicesCtxCancelViaWindowRetirement: without any SafePoint
// calls, retiring a filled slice window is the byte-safe point a
// cancelled direct-path recording unwinds at.
func TestRecordSlicesCtxCancelViaWindowRetirement(t *testing.T) {
	defer leakCheck(t)()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	out, err := RecordSlicesCtx(ctx, 1, 1_000_000, selfCancelPayload(cancel, 10_000, false),
		1_000, nil)
	if out != nil {
		t.Fatalf("cancelled RecordSlicesCtx returned %d slices", len(out))
	}
	if !errors.Is(err, ErrCanceled) || !engine.IsCancel(err) {
		t.Fatalf("RecordSlicesCtx = %v, want a typed cancellation", err)
	}
}

// TestStreamErrHelper: trace.StreamErr surfaces the typed error through
// the generic BlockStream plumbing a mixed-producer consumer holds.
func TestStreamErrHelper(t *testing.T) {
	defer leakCheck(t)()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var bs trace.BlockStream = Run(ctx, 1, 10_000_000, selfCancelPayload(cancel, 50_000, false))
	count(bs)
	if err := trace.StreamErr(bs); !errors.Is(err, ErrCanceled) {
		t.Fatalf("trace.StreamErr = %v, want ErrCanceled", err)
	}
	// A producer without an Err method reports none.
	if err := trace.StreamErr(trace.NewBuffer(0).BlockStream(0)); err != nil {
		t.Fatalf("StreamErr on a Buffer stream = %v, want nil", err)
	}
}
