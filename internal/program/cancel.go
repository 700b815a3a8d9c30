// Cancellation: the recording half of the failure contract
// (DESIGN.md §9).
//
// A context threaded into a recording entry point (Run, RecordCtx,
// RecordSlicesCtx) bounds the generation. The
// emitter checks it only at points where stopping is provably safe —
// payload checkpoint safe points (Emitter.Checkpoint), slice-window
// retirement, the chunk ends of a streamed recording (SliceSink), and
// batch flushes — and stopping means unwinding the
// payload and discarding everything materialized so far. A cancelled
// recording therefore returns (nil, err): it never returns a
// truncated or otherwise wrong byte sequence. The returned error
// matches both ErrCanceled and the context's own cause under
// errors.Is, so engine.IsCancel classifies it as retryable.
package program

import (
	"context"
	"errors"
	"fmt"
)

// ErrCanceled is the sentinel every cancelled-recording error matches
// (errors.Is). The concrete error also unwraps to the context cause
// (context.Canceled or context.DeadlineExceeded).
var ErrCanceled = errors.New("program: recording canceled")

// canceledError carries the context cause while also matching the
// package sentinel.
type canceledError struct{ cause error }

func (e *canceledError) Error() string {
	return fmt.Sprintf("program: recording canceled: %v", e.cause)
}

func (e *canceledError) Is(target error) bool { return target == ErrCanceled }

func (e *canceledError) Unwrap() error { return e.cause }

// bindContext attaches ctx to the emitter. With the background context
// Done() is nil, so every later check is a select hitting its default
// case — the no-context fast path costs one nil-channel poll.
func (e *Emitter) bindContext(ctx context.Context) {
	if ctx == nil {
		ctx = context.Background()
	}
	e.ctx = ctx
	e.done = ctx.Done()
}

// checkCanceled unwinds the payload with a typed cancellation error if
// the recording's context is done. Called only at byte-safe points;
// see the file comment.
func (e *Emitter) checkCanceled() {
	select {
	case <-e.done:
		e.Abort(&canceledError{cause: e.ctx.Err()})
	default:
	}
}
