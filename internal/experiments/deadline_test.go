package experiments

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"branchlab/internal/engine"
	"branchlab/internal/report"
)

// TestRunCtxExpiredDeadlineFailsTyped: a deadline that cannot possibly
// be met fails the run with a typed deadline error and no artifact.
func TestRunCtxExpiredDeadlineFailsTyped(t *testing.T) {
	r, ok := ByID("table1")
	if !ok {
		t.Fatal("table1 missing from the registry")
	}
	cfg := quickCfg()
	cfg.Deadline = time.Nanosecond
	art, err := r.RunCtx(context.Background(), cfg)
	if art != nil {
		t.Fatal("expired run still produced an artifact")
	}
	if !engine.IsCancel(err) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("RunCtx = %v, want a deadline cancellation", err)
	}
}

// TestRunCtxGenerousDeadlineByteIdentical: a deadline the run meets
// changes no artifact byte relative to the unbounded run.
func TestRunCtxGenerousDeadlineByteIdentical(t *testing.T) {
	r, ok := ByID("table2")
	if !ok {
		t.Fatal("table2 missing from the registry")
	}
	cfg := quickCfg()
	want, err := r.RunCtx(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Deadline = time.Hour
	got, err := r.RunCtx(context.Background(), cfg)
	if err != nil {
		t.Fatalf("generous deadline failed the run: %v", err)
	}
	if got.String() != want.String() {
		t.Fatal("artifact differs under a generous deadline")
	}
}

// TestRunCtxRecoversDriverPanic: a panicking driver becomes a typed
// error naming the driver; the process survives.
func TestRunCtxRecoversDriverPanic(t *testing.T) {
	r := Runner{ID: "boom", Title: "panics", Run: func(context.Context, Config) (*report.Artifact, error) {
		panic("driver bug")
	}}
	art, err := r.RunCtx(context.Background(), quickCfg())
	if art != nil || err == nil {
		t.Fatalf("RunCtx(panicking driver) = %v, %v", art, err)
	}
	if engine.IsCancel(err) {
		t.Fatalf("driver panic misclassified as cancellation: %v", err)
	}
}

// TestRunCtxWrapsDriverError: a driver's returned error fails the run
// with no artifact, wrapped with the driver's ID and still matching
// the original under errors.Is.
func TestRunCtxWrapsDriverError(t *testing.T) {
	boom := errors.New("cell failure")
	r := Runner{ID: "failing", Title: "fails", Run: func(context.Context, Config) (*report.Artifact, error) {
		return &report.Artifact{ID: "failing"}, boom
	}}
	art, err := r.RunCtx(context.Background(), quickCfg())
	if art != nil || !errors.Is(err, boom) {
		t.Fatalf("RunCtx(failing driver) = %v, %v, want no artifact and %v", art, err, boom)
	}
	//lint:ignore errcontract asserts the driver ID is prepended to the message; the ID is not a sentinel
	if !strings.HasPrefix(err.Error(), "experiments failing: ") {
		t.Fatalf("RunCtx error %q does not name the driver", err)
	}
}

// TestRunCtxPreCancelled: an already-cancelled run context fails fast
// with a typed error, before any driver work.
func TestRunCtxPreCancelled(t *testing.T) {
	r := Runner{ID: "never", Title: "never runs", Run: func(context.Context, Config) (*report.Artifact, error) {
		t.Error("driver ran under a pre-cancelled context")
		return nil, nil
	}}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := r.RunCtx(ctx, quickCfg())
	if !engine.IsCancel(err) {
		t.Fatalf("RunCtx(cancelled) = %v, want a cancellation", err)
	}
}
