// Package faultinject is a seeded, deterministic fault-point registry
// for exercising the failure paths the happy-path determinism matrix
// never reaches (DESIGN.md §9).
//
// Production code marks fault sites with two hooks:
//
//   - Fail(point) returns a typed *Error when the active plan injects a
//     failure at this site; the caller propagates it exactly like a real
//     error from the guarded operation.
//   - Chaos(point) reports that the plan injects a behaviour-preserving
//     stress at this site (e.g. corrupt a stored file); the caller
//     takes the stressed path, which must stay byte-identical.
//
// In the default build ("!faultinject") both hooks are constant no-ops
// that the compiler inlines away, and Activate refuses to arm anything:
// shipping binaries cannot inject faults. Builds with the "faultinject"
// tag carry the registry; tests and the CI fault sweep activate a plan
// with Activate(seed) or the BRANCHLAB_FAULTSEED environment variable.
//
// A plan is a pure function of its seed: each registered point derives
// an armed bit and a trigger hit-count from seed and point name, and
// fires on exactly that invocation (atomic per-point counters, so
// exactly one goroutine observes the fault even under -race
// parallelism). The invariant the suite enforces is that an injected
// fault or cancellation may fail a run with a typed error, but can
// never produce non-byte-identical artifacts.
package faultinject

import (
	"errors"
	"fmt"
)

// Point names one fault site compiled into the tree. The catalog lives
// in DESIGN.md §9; keep both in sync.
type Point string

const (
	// EngineDispatch fails one work unit as the engine dispatches it
	// (internal/engine.MapErr): the unit reports a typed error instead
	// of running, and the whole MapErr run fails with it.
	EngineDispatch Point = "engine/dispatch"
	// CacheRecord fails a singleflight leader's recording
	// (tracecache.Cache.RecordCtx): the typed error propagates to every
	// coalesced waiter and the entry is withdrawn.
	CacheRecord Point = "tracecache/record"
	// StoreWrite fails a persistent-store slice or header write
	// (tracestore.Store): the write is dropped, the store stays
	// consistent, and the content simply remains re-recordable.
	StoreWrite Point = "tracestore/write"
	// StoreRead fails a persistent-store slice read before the file is
	// opened (tracestore.Store.PinSlice): the miss path re-records the
	// trace byte-identically.
	StoreRead Point = "tracestore/read"
	// StoreCorrupt is a chaos point: it flips one payload byte in a
	// slice file as it lands on disk (never in the in-memory array), so
	// the next read of that file must fail its checksum and fall back
	// to re-recording — the never-wrong-bytes drill.
	StoreCorrupt Point = "tracestore/corrupt"
)

// Points returns every registered fault point.
func Points() []Point {
	return []Point{EngineDispatch, CacheRecord, StoreWrite, StoreRead, StoreCorrupt}
}

// EnvSeed is the environment variable ActivateFromEnv reads: a decimal
// plan seed. Set only in faultinject-tagged builds (the CLIs refuse it
// otherwise, so a sweep can never silently run unfaulted).
const EnvSeed = "BRANCHLAB_FAULTSEED"

// ErrInjected is the sentinel every injected failure wraps; callers and
// tests classify injected faults with errors.Is(err, ErrInjected).
var ErrInjected = errors.New("faultinject: injected fault")

// ErrDisabled is returned by Activate in builds without the
// "faultinject" tag.
var ErrDisabled = errors.New("faultinject: disabled in this build (rebuild with -tags faultinject)")

// Error is one injected failure, attributed to its site and the
// invocation count that triggered it. It unwraps to ErrInjected.
type Error struct {
	Point Point  // the site that fired
	Hit   uint64 // 1-based invocation count of the site when it fired
	Seed  uint64 // the plan seed, for reproducing the run
}

func (e *Error) Error() string {
	return fmt.Sprintf("faultinject: injected fault at %s (hit %d, seed %d)", e.Point, e.Hit, e.Seed)
}

// Unwrap makes errors.Is(err, ErrInjected) hold for every injection.
func (e *Error) Unwrap() error { return ErrInjected }

// mix is a splitmix64-style finalizer: the per-point trigger schedule
// is a pure function of (seed, point name), independent of execution
// order or goroutine interleaving.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// pointHash folds a point name into the plan seed (FNV-1a then mix).
func pointHash(seed uint64, p Point) uint64 {
	h := uint64(1469598103934665603)
	for _, c := range []byte(p) {
		h = (h ^ uint64(c)) * 1099511628211
	}
	return mix(h ^ mix(seed))
}
