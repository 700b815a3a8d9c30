package engine

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

func TestNewDefaultsToNumCPU(t *testing.T) {
	for _, w := range []int{0, -1, -100} {
		if got := New(w).Workers(); got != runtime.NumCPU() {
			t.Errorf("New(%d).Workers() = %d, want %d", w, got, runtime.NumCPU())
		}
	}
	if got := New(3).Workers(); got != 3 {
		t.Errorf("New(3).Workers() = %d", got)
	}
}

// mapInts runs fn over n units on p with the background context and
// reports a run error as a test failure.
func mapInts(t *testing.T, p *Pool, n int, fn func(i int) int) []int {
	t.Helper()
	out, err := MapErr(context.Background(), p, n, func(_ context.Context, i int) (int, error) { return fn(i), nil })
	if err != nil {
		t.Errorf("MapErr = %v", err)
	}
	return out
}

func TestMapEmpty(t *testing.T) {
	if out := mapInts(t, New(4), 0, func(int) int { return 1 }); out != nil {
		t.Errorf("MapErr over 0 units = %v, want nil", out)
	}
}

func TestMapPreservesSubmissionOrder(t *testing.T) {
	for _, workers := range []int{1, 2, 7, runtime.NumCPU()} {
		out := mapInts(t, New(workers), 100, func(i int) int { return i * i })
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestMapRunsEveryUnitExactlyOnce(t *testing.T) {
	var calls [200]int32
	mapInts(t, New(8), len(calls), func(i int) int {
		atomic.AddInt32(&calls[i], 1)
		return 0
	})
	for i, c := range calls {
		if c != 1 {
			t.Errorf("unit %d ran %d times", i, c)
		}
	}
}

func TestMapActuallyRunsConcurrently(t *testing.T) {
	// Two units rendezvous with each other; a sequential scheduler would
	// deadlock, so the barrier completing proves concurrent execution.
	var barrier sync.WaitGroup
	barrier.Add(2)
	done := make(chan struct{})
	go func() {
		defer close(done)
		mapInts(t, New(2), 2, func(int) int {
			barrier.Done()
			barrier.Wait()
			return 0
		})
	}()
	<-done
}

func TestMapSingleWorkerIsSequential(t *testing.T) {
	// With one worker the units must run in index order on the calling
	// goroutine, so unsynchronized writes to shared state are safe.
	order := make([]int, 0, 50)
	mapInts(t, New(1), 50, func(i int) int {
		order = append(order, i)
		return 0
	})
	for i, v := range order {
		if v != i {
			t.Fatalf("1-worker order[%d] = %d", i, v)
		}
	}
}

func TestMapPanicPropagates(t *testing.T) {
	for _, workers := range []int{1, 4} {
		_, err := MapErr(context.Background(), New(workers), 10, func(_ context.Context, i int) (int, error) {
			if i == 7 {
				panic("boom")
			}
			return i, nil
		})
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Errorf("workers=%d: MapErr = %v, want a *PanicError", workers, err)
			continue
		}
		if pe.Cell != 7 {
			t.Errorf("workers=%d: panic attributed to cell %d, want 7", workers, pe.Cell)
		}
		//lint:ignore errcontract asserts the panic value's text survives into the message; the panic value is a string, not a sentinel
		if !strings.Contains(err.Error(), "boom") {
			t.Errorf("workers=%d: panic error %v lost the cause", workers, err)
		}
		if len(pe.Stack) == 0 {
			t.Errorf("workers=%d: panic error carries no stack", workers)
		}
	}
}
