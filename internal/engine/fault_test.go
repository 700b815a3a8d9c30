//go:build faultinject

package engine

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"branchlab/internal/faultinject"
)

// findDispatchSeed returns a seed whose plan arms the engine/dispatch
// point with a trigger small enough to fire within n invocations.
func findDispatchSeed(t *testing.T, n int) uint64 {
	t.Helper()
	defer faultinject.Deactivate()
	for s := uint64(0); s < 512; s++ {
		if err := faultinject.Activate(s); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			if faultinject.Fail(faultinject.EngineDispatch) != nil {
				return s
			}
		}
	}
	t.Fatal("no seed in [0,512) fires engine/dispatch — trigger derivation broken")
	return 0
}

// TestDispatchFaultFailsRunTyped: an injected dispatch fault fails the
// MapErr run with a typed, classifiable error, attributed to a work
// unit, and leaves no stray goroutines.
func TestDispatchFaultFailsRunTyped(t *testing.T) {
	seed := findDispatchSeed(t, 64)
	for _, workers := range []int{1, 4} {
		defer leakCheck(t)()
		if err := faultinject.Activate(seed); err != nil {
			t.Fatal(err)
		}
		var ran atomic.Int32
		_, err := MapErr(context.Background(), New(workers), 64,
			func(_ context.Context, i int) (int, error) {
				ran.Add(1)
				return i, nil
			})
		faultinject.Deactivate()
		if !errors.Is(err, faultinject.ErrInjected) {
			t.Fatalf("workers=%d: MapErr = %v, want injected fault", workers, err)
		}
		var fe *faultinject.Error
		if !errors.As(err, &fe) || fe.Point != faultinject.EngineDispatch {
			t.Fatalf("workers=%d: fault error %v lost its point", workers, err)
		}
		if IsCancel(err) {
			t.Fatalf("workers=%d: injected fault misclassified as cancellation", workers)
		}
		if ran.Load() == 64 {
			t.Errorf("workers=%d: every unit ran despite the dispatch fault", workers)
		}
	}
}
