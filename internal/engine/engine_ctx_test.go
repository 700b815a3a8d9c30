package engine

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// leakCheck snapshots the goroutine count and returns a func that
// fails the test if stray goroutines remain after a grace period.
// Register it with t.Cleanup before exercising cancel/fault paths.
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

func TestMapErrEmptyAndNilCtx(t *testing.T) {
	if out, err := MapErr(nil, New(4), 0, func(context.Context, int) (int, error) { return 0, nil }); out != nil || err != nil {
		t.Fatalf("MapErr(n=0) = %v, %v", out, err)
	}
	out, err := MapErr(nil, New(1), 3, func(context.Context, int) (int, error) { return 7, nil })
	if err != nil || len(out) != 3 {
		t.Fatalf("MapErr(nil ctx) = %v, %v", out, err)
	}
}

// TestMapErrUnitErrorAbortsRun: one failing unit fails the run with
// its own error, and undispatched units never start.
func TestMapErrUnitErrorAbortsRun(t *testing.T) {
	boom := errors.New("unit failure")
	for _, workers := range []int{1, 4} {
		defer leakCheck(t)()
		var started atomic.Int32
		_, err := MapErr(context.Background(), New(workers), 1000,
			func(_ context.Context, i int) (int, error) {
				started.Add(1)
				if i == 3 {
					return 0, boom
				}
				return i, nil
			})
		if !errors.Is(err, boom) {
			t.Fatalf("workers=%d: MapErr = %v, want %v", workers, err, boom)
		}
		if IsCancel(err) {
			t.Fatalf("workers=%d: unit error misclassified as cancellation", workers)
		}
		if n := started.Load(); n == 1000 {
			t.Errorf("workers=%d: all 1000 units ran despite early failure", workers)
		}
	}
}

// TestMapErrPanicBecomesTypedError: a panicking unit yields a
// *PanicError naming its cell; the process survives.
func TestMapErrPanicBecomesTypedError(t *testing.T) {
	for _, workers := range []int{1, 4} {
		defer leakCheck(t)()
		_, err := MapErr(context.Background(), New(workers), 10,
			func(_ context.Context, i int) (int, error) {
				if i == 4 {
					panic("poisoned cell")
				}
				return i, nil
			})
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("workers=%d: MapErr = %v, want *PanicError", workers, err)
		}
		if pe.Cell != 4 || len(pe.Stack) == 0 {
			t.Errorf("workers=%d: PanicError{Cell: %d, len(Stack): %d}", workers, pe.Cell, len(pe.Stack))
		}
	}
}

// TestMapErrCancelReportsCompleted: cancelling mid-run returns a
// *CancelError listing exactly the units that finished, drains
// promptly, and leaks nothing.
func TestMapErrCancelReportsCompleted(t *testing.T) {
	for _, workers := range []int{1, 4} {
		defer leakCheck(t)()
		ctx, cancel := context.WithCancel(context.Background())
		release := make(chan struct{})
		var completed atomic.Int32
		done := make(chan struct{})
		var err error
		go func() {
			defer close(done)
			_, err = MapErr(ctx, New(workers), 1000,
				func(ctx context.Context, i int) (int, error) {
					if i < workers { // first wave runs; the rest block on cancel
						completed.Add(1)
						return i, nil
					}
					select {
					case <-release:
						completed.Add(1)
						return i, nil
					case <-ctx.Done():
						return 0, ctx.Err()
					}
				})
		}()
		// Wait for the first wave, then cancel while units are in flight.
		for completed.Load() < int32(workers) {
			time.Sleep(time.Millisecond)
		}
		cancel()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("workers=%d: MapErr did not return after cancel", workers)
		}
		close(release)
		var ce *CancelError
		if !errors.As(err, &ce) {
			t.Fatalf("workers=%d: MapErr = %v, want *CancelError", workers, err)
		}
		if !errors.Is(err, context.Canceled) || !IsCancel(err) {
			t.Errorf("workers=%d: CancelError %v does not unwrap to context.Canceled", workers, err)
		}
		if ce.Total != 1000 {
			t.Errorf("workers=%d: Total = %d, want 1000", workers, ce.Total)
		}
		if int32(len(ce.Completed)) != completed.Load() {
			t.Errorf("workers=%d: Completed lists %d units, %d actually finished",
				workers, len(ce.Completed), completed.Load())
		}
		for j := 1; j < len(ce.Completed); j++ {
			if ce.Completed[j-1] >= ce.Completed[j] {
				t.Fatalf("workers=%d: Completed not ascending: %v", workers, ce.Completed)
			}
		}
		if len(ce.Completed) == 1000 {
			t.Errorf("workers=%d: all units completed despite cancel", workers)
		}
	}
}

// TestMapErrDeadline: an already-expired deadline runs nothing and
// reports a deadline-class CancelError.
func TestMapErrDeadline(t *testing.T) {
	defer leakCheck(t)()
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	var ran atomic.Int32
	_, err := MapErr(ctx, New(4), 100, func(_ context.Context, i int) (int, error) {
		ran.Add(1)
		return i, nil
	})
	var ce *CancelError
	if !errors.As(err, &ce) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("MapErr past deadline = %v, want deadline CancelError", err)
	}
	if n := ran.Load(); n > 4 {
		t.Errorf("%d units ran against an expired deadline", n)
	}
}

// TestMapErrDeterministicErrorSelection: with several failing units,
// the lowest-indexed non-cancellation error is reported regardless of
// scheduling.
func TestMapErrDeterministicErrorSelection(t *testing.T) {
	errA := errors.New("unit 3 failed")
	errB := errors.New("unit 9 failed")
	for trial := 0; trial < 20; trial++ {
		// Unit 9 waits until unit 3 has failed, so whenever both errors
		// are recorded the lower index must be the one reported.
		u3failed := make(chan struct{})
		_, err := MapErr(context.Background(), New(4), 10,
			func(_ context.Context, i int) (int, error) {
				switch i {
				case 3:
					close(u3failed)
					return 0, errA
				case 9:
					<-u3failed
					return 0, errB
				}
				return i, nil
			})
		if !errors.Is(err, errA) {
			t.Fatalf("trial %d: MapErr = %v, want %v", trial, err, errA)
		}
	}
}

// TestMapSliceErr: MapSliceErr hands each unit its element and index
// at any worker count, and maps an empty slice to nil.
// TestMapSlice: MapSliceErr hands each unit its item and index and
// returns the results in input order, at any worker count.
func TestMapSlice(t *testing.T) {
	in := []string{"a", "bb", "ccc"}
	for _, workers := range []int{1, 4} {
		out, err := MapSliceErr(context.Background(), New(workers), in,
			func(_ context.Context, s string, i int) (int, error) { return len(s) + i, nil })
		if err != nil {
			t.Fatal(err)
		}
		want := []int{1, 3, 5}
		for i := range want {
			if out[i] != want[i] {
				t.Errorf("workers=%d: out[%d] = %d, want %d", workers, i, out[i], want[i])
			}
		}
	}
}

// TestMapSliceErr: an empty input yields nil, nil, and a unit's error
// is returned to the caller.
func TestMapSliceErr(t *testing.T) {
	if out, err := MapSliceErr(context.Background(), New(4), []string(nil),
		func(context.Context, string, int) (int, error) { return 1, nil }); out != nil || err != nil {
		t.Errorf("MapSliceErr(nil) = %v, %v, want nil, nil", out, err)
	}
	boom := errors.New("item failure")
	_, err := MapSliceErr(context.Background(), New(4), []string{"a", "bb", "ccc"},
		func(_ context.Context, s string, _ int) (int, error) {
			if s == "bb" {
				return 0, boom
			}
			return len(s), nil
		})
	if !errors.Is(err, boom) {
		t.Errorf("MapSliceErr = %v, want %v", err, boom)
	}
}
