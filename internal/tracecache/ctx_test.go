package tracecache

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"branchlab/internal/engine"
	"branchlab/internal/program"
	"branchlab/internal/trace"
)

// leakCheck snapshots the goroutine count and returns a func that
// fails the test if stray goroutines remain after a grace period.
// Register with defer before exercising cancel/failure paths.
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

// gateSource is a source whose Record blocks until released, so tests
// can coalesce waiters on a known in-flight leader. honorCtx makes the
// block cancellable (the leader returns ctx.Err()); calls after the
// first complete immediately, so a hand-off can succeed.
type gateSource struct {
	source
	mu       sync.Mutex
	entered  chan struct{} // closed when the first Record starts
	release  chan struct{}
	honorCtx bool
	calls    int
}

func newGateSource(n int, honorCtx bool) *gateSource {
	return &gateSource{
		source:   source{n: n},
		entered:  make(chan struct{}),
		release:  make(chan struct{}),
		honorCtx: honorCtx,
	}
}

func (s *gateSource) Source() Source {
	src := s.source.Source()
	inner := src.Record
	src.Record = func(ctx context.Context, sliceLen uint64, sink program.SliceSink) ([][]trace.Inst, error) {
		s.mu.Lock()
		s.calls++
		first := s.calls == 1
		s.mu.Unlock()
		if first {
			close(s.entered)
			if s.honorCtx {
				select {
				case <-s.release:
				case <-ctx.Done():
					return nil, ctx.Err()
				}
			} else {
				<-s.release
			}
		}
		return inner(ctx, sliceLen, sink)
	}
	return src
}

// TestRecordCtxPreCanceled: an already-cancelled context fails typed
// before any recording work starts.
func TestRecordCtxPreCanceled(t *testing.T) {
	defer leakCheck(t)()
	c := New(0)
	src := &source{n: 10}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	v, err := c.RecordCtx(ctx, "w", 0, 10, src.Source())
	if v != nil || !engine.IsCancel(err) {
		t.Fatalf("RecordCtx(pre-cancelled) = %v, %v; want nil and a cancellation error", v, err)
	}
	if src.records.Load() != 0 {
		t.Fatalf("pre-cancelled call still recorded %d times", src.records.Load())
	}
	if st := c.Stats(); st.Entries != 0 || st.Misses != 0 {
		t.Fatalf("pre-cancelled call left state behind: %+v", st)
	}
}

// TestWaiterDetachOnCancel: a waiter cancelled while coalesced detaches
// with a typed error; the leader's recording completes and serves both
// the leader and later callers.
func TestWaiterDetachOnCancel(t *testing.T) {
	defer leakCheck(t)()
	c := New(0)
	src := newGateSource(100, false)

	leaderDone := make(chan error, 1)
	go func() {
		v, err := c.RecordCtx(context.Background(), "w", 0, 100, src.Source())
		if err == nil {
			checkIdentity(t, drain(t, v))
		}
		leaderDone <- err
	}()
	<-src.entered

	ctx, cancel := context.WithCancel(context.Background())
	waiterDone := make(chan error, 1)
	go func() {
		_, err := c.RecordCtx(ctx, "w", 0, 100, src.Source())
		waiterDone <- err
	}()
	// Wait until the waiter has coalesced on the in-flight leader.
	for c.Stats().Coalesced == 0 {
		time.Sleep(time.Millisecond)
	}
	cancel()
	select {
	case err := <-waiterDone:
		if !engine.IsCancel(err) {
			t.Fatalf("detached waiter got %v, want a cancellation error", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled waiter did not detach from the in-flight leader")
	}

	// The leader is unaffected: release it and it records normally.
	close(src.release)
	if err := <-leaderDone; err != nil {
		t.Fatalf("leader failed after waiter detach: %v", err)
	}
	if src.records.Load() != 1 {
		t.Fatalf("recorder ran %d times, want 1", src.records.Load())
	}
	// Later callers are served from the completed entry.
	v, err := c.RecordCtx(context.Background(), "w", 0, 100, src.Source())
	if err != nil {
		t.Fatal(err)
	}
	checkIdentity(t, drain(t, v))
}

// TestLeaderCancelHandsOff: a leader cancelled mid-recording gets a
// typed error, and a surviving waiter takes over the recording under
// its own context — it gets correct bytes, not the leader's failure.
func TestLeaderCancelHandsOff(t *testing.T) {
	defer leakCheck(t)()
	c := New(0)
	src := newGateSource(100, true)

	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	leaderDone := make(chan error, 1)
	go func() {
		_, err := c.RecordCtx(leaderCtx, "w", 0, 100, src.Source())
		leaderDone <- err
	}()
	<-src.entered

	waiterDone := make(chan error, 1)
	var waiterView trace.Replayable
	go func() {
		v, err := c.RecordCtx(context.Background(), "w", 0, 100, src.Source())
		waiterView = v
		waiterDone <- err
	}()
	for c.Stats().Coalesced == 0 {
		time.Sleep(time.Millisecond)
	}
	cancelLeader()

	select {
	case err := <-leaderDone:
		if !engine.IsCancel(err) {
			t.Fatalf("cancelled leader got %v, want a cancellation error", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled leader did not return")
	}
	select {
	case err := <-waiterDone:
		if err != nil {
			t.Fatalf("waiter inherited the leader's cancellation: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("waiter never took over the cancelled leader's recording")
	}
	checkIdentity(t, drain(t, waiterView))
	if src.calls != 2 {
		t.Fatalf("source recorded %d times, want 2 (cancelled attempt + hand-off)", src.calls)
	}
}

// TestSourceFailurePropagatesToWaiters: a leader whose source fails for
// a non-cancellation reason fails every coalesced waiter with the same
// typed error; the entry is withdrawn, so the next call records fresh.
func TestSourceFailurePropagatesToWaiters(t *testing.T) {
	defer leakCheck(t)()
	c := New(0)
	boom := errors.New("source exploded")
	entered := make(chan struct{})
	release := make(chan struct{})
	var calls int
	var mu sync.Mutex
	failing := Source{
		Record: func(context.Context, uint64, program.SliceSink) ([][]trace.Inst, error) {
			mu.Lock()
			calls++
			first := calls == 1
			mu.Unlock()
			if first {
				close(entered)
				<-release
				return nil, boom
			}
			return [][]trace.Inst{mkInsts(0, 10)}, nil
		},
	}

	leaderDone := make(chan error, 1)
	go func() {
		_, err := c.RecordCtx(context.Background(), "w", 0, 10, failing)
		leaderDone <- err
	}()
	<-entered
	const waiters = 4
	waiterDone := make(chan error, waiters)
	for i := 0; i < waiters; i++ {
		go func() {
			_, err := c.RecordCtx(context.Background(), "w", 0, 10, failing)
			waiterDone <- err
		}()
	}
	for c.Stats().Coalesced < waiters {
		time.Sleep(time.Millisecond)
	}
	close(release)
	if err := <-leaderDone; !errors.Is(err, boom) {
		t.Fatalf("leader got %v, want %v", err, boom)
	}
	for i := 0; i < waiters; i++ {
		select {
		case err := <-waiterDone:
			if !errors.Is(err, boom) {
				t.Fatalf("waiter %d got %v, want the leader's %v", i, err, boom)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("waiter %d never woke after the leader's failure", i)
		}
	}
	if st := c.Stats(); st.Entries != 0 {
		t.Fatalf("failed recording left %d entries resident", st.Entries)
	}
	// The failure was not cached: a fresh call records and succeeds.
	v, err := c.RecordCtx(context.Background(), "w", 0, 10, failing)
	if err != nil {
		t.Fatalf("retry after withdrawn failure: %v", err)
	}
	checkIdentity(t, drain(t, v))
}

// TestBadSourceTyped: a malformed recording (middle slice not exactly
// sliceLen) fails with ErrBadSource instead of panicking, and nothing
// malformed is ever resident.
func TestBadSourceTyped(t *testing.T) {
	defer leakCheck(t)()
	c := NewSliced(0, 10)
	bad := Source{
		Record: func(_ context.Context, sliceLen uint64, _ program.SliceSink) ([][]trace.Inst, error) {
			// Three slices, middle one short: structurally malformed.
			return [][]trace.Inst{mkInsts(0, 10), mkInsts(10, 15), mkInsts(20, 30)}, nil
		},
	}
	v, err := c.RecordCtx(context.Background(), "w", 0, 30, bad)
	if v != nil || !errors.Is(err, ErrBadSource) {
		t.Fatalf("RecordCtx(malformed) = %v, %v; want nil, ErrBadSource", v, err)
	}
	if st := c.Stats(); st.Entries != 0 || st.Slices != 0 {
		t.Fatalf("malformed recording left state resident: %+v", st)
	}
	// A well-formed source under the same key then records cleanly.
	src := &source{n: 30}
	good, err := c.RecordCtx(context.Background(), "w", 0, 30, src.Source())
	if err != nil {
		t.Fatal(err)
	}
	checkIdentity(t, drain(t, good))
}

// TestNilCacheRecordCtxPropagatesError: the nil-cache passthrough
// propagates source errors instead of swallowing them.
func TestNilCacheRecordCtxPropagatesError(t *testing.T) {
	var c *Cache
	boom := errors.New("no trace today")
	_, err := c.RecordCtx(context.Background(), "w", 0, 10, Source{
		Record: func(context.Context, uint64, program.SliceSink) ([][]trace.Inst, error) {
			return nil, boom
		},
	})
	if !errors.Is(err, boom) {
		t.Fatalf("nil-cache RecordCtx = %v, want %v", err, boom)
	}
}
