// Package engine is the parallel experiment engine: a worker-pool
// scheduler for independent simulation work units. Each unit is a pure
// function of its index; results are returned in submission order, so
// the merged output of a parallel run is byte-identical to a
// single-worker run. The experiment drivers express their inner loops —
// one unit per (workload, input, pipeline-scale, storage-budget) cell —
// as MapErr calls over a Pool.
//
// Failure contract (DESIGN.md §9): a panicking or failing unit fails
// its run, never the process. MapErr returns typed errors — a
// *PanicError attributes a recovered panic to its work unit, a
// *CancelError reports a cancellation or deadline along with which
// units completed.
package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"

	"branchlab/internal/faultinject"
)

// Pool schedules independent work units onto a fixed set of workers.
// The zero-cost construction holds no goroutines; workers are spawned
// per MapErr call and torn down when it returns. A pool holds no
// context: every run is bounded by the ctx its MapErr call is given.
type Pool struct {
	workers int
}

// New returns a pool with the given worker count; workers <= 0 selects
// runtime.NumCPU().
func New(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	return &Pool{workers: workers}
}

// Workers returns the configured worker count.
func (p *Pool) Workers() int { return p.workers }

// PanicError is a panic recovered inside a work unit, attributed to
// the unit (cell) that raised it. The run fails with this error; the
// process and the pool's other cells survive.
type PanicError struct {
	Cell  int    // work-unit index that panicked
	Value any    // the recovered panic value
	Stack []byte // stack of the panicking goroutine, captured at recovery
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("engine: work unit %d panicked: %v\n%s", e.Cell, e.Value, e.Stack)
}

// CancelError reports a run stopped by context cancellation or
// deadline. Completed lists the work-unit indices that finished before
// the run stopped, in ascending order, for partial-result reporting.
type CancelError struct {
	Err       error // the cancellation cause (ctx.Err() or a unit's cancellation error)
	Completed []int // unit indices that completed successfully
	Total     int   // units the run was asked for
}

func (e *CancelError) Error() string {
	return fmt.Sprintf("engine: run canceled after %d/%d work units: %v", len(e.Completed), e.Total, e.Err)
}

// Unwrap exposes the cause so errors.Is(err, context.Canceled) and
// errors.Is(err, context.DeadlineExceeded) classify CancelErrors.
func (e *CancelError) Unwrap() error { return e.Err }

// IsCancel reports whether err is cancellation-class: caused by a
// context being canceled or timing out rather than by the work itself
// failing. Cancellation-class failures are retryable with a fresh
// context; others are not.
func IsCancel(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// MapErr runs fn(ctx, 0) .. fn(ctx, n-1) on the pool and returns the n
// results indexed by submission order. fn must be safe to call from
// multiple goroutines; units must not depend on each other.
//
// The ctx passed to every unit is canceled as soon as any unit fails
// or the caller's ctx is done; pending units are not dispatched and
// in-flight units can bail at their next cancellation check. All
// workers are joined before MapErr returns — no goroutines outlive the
// call.
//
// On failure the result slice holds every completed unit's value and
// the error is typed: a unit panic surfaces as *PanicError, a
// cancellation or deadline as *CancelError, and any other unit error
// is returned as the unit produced it. When several units fail, the
// lowest-indexed non-cancellation error wins, so the reported failure
// does not depend on goroutine interleaving.
func MapErr[T any](ctx context.Context, p *Pool, n int, fn func(ctx context.Context, i int) (T, error)) ([]T, error) {
	if n <= 0 {
		return nil, nil
	}
	if ctx == nil {
		ctx = context.Background()
	}

	out := make([]T, n)
	done := make([]bool, n)
	errs := make([]error, n)

	runUnit := func(ctx context.Context, i int) (err error) {
		defer func() {
			if r := recover(); r != nil {
				err = &PanicError{Cell: i, Value: r, Stack: debug.Stack()}
			}
		}()
		if ferr := faultinject.Fail(faultinject.EngineDispatch); ferr != nil {
			return fmt.Errorf("engine: work unit %d: %w", i, ferr)
		}
		v, err := fn(ctx, i)
		if err != nil {
			return err
		}
		out[i] = v
		done[i] = true
		return nil
	}

	workers := p.workers
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		// Sequential path: units run in index order on the calling
		// goroutine, checking cancellation between units.
		for i := 0; i < n; i++ {
			if ctx.Err() != nil {
				break
			}
			if errs[i] = runUnit(ctx, i); errs[i] != nil {
				break
			}
		}
		return out, collectErr(ctx, errs, done, n)
	}

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				if runCtx.Err() != nil {
					continue // drain without running: prompt teardown after cancel
				}
				// out/done/errs are written at distinct indices only.
				if err := runUnit(runCtx, i); err != nil {
					errs[i] = err
					cancel()
				}
			}
		}()
	}
	for i := 0; i < n; i++ {
		select {
		case idx <- i:
		case <-runCtx.Done():
			i = n // stop dispatching; workers drain what's queued
		}
	}
	close(idx)
	wg.Wait()
	return out, collectErr(ctx, errs, done, n)
}

// collectErr reduces per-unit errors and the caller context into the
// single typed error MapErr reports. The lowest-indexed
// non-cancellation unit error wins; otherwise any cancellation (unit
// or context) becomes a *CancelError carrying the completed set.
func collectErr(ctx context.Context, errs []error, done []bool, n int) error {
	var cancelCause error
	for _, e := range errs {
		if e == nil {
			continue
		}
		if !IsCancel(e) {
			return e
		}
		if cancelCause == nil {
			cancelCause = e
		}
	}
	if ctx.Err() != nil {
		cancelCause = ctx.Err()
	}
	if cancelCause == nil {
		return nil
	}
	completed := make([]int, 0, n)
	for i, d := range done {
		if d {
			completed = append(completed, i)
		}
	}
	return &CancelError{Err: cancelCause, Completed: completed, Total: n}
}

// MapSliceErr is MapErr with the common slice-of-inputs plumbing.
func MapSliceErr[S, T any](ctx context.Context, p *Pool, in []S, fn func(ctx context.Context, item S, i int) (T, error)) ([]T, error) {
	return MapErr(ctx, p, len(in), func(ctx context.Context, i int) (T, error) {
		return fn(ctx, in[i], i)
	})
}
