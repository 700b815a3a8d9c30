//go:build faultinject

package faultinject

import (
	"fmt"
	"strconv"
	"sync/atomic"
)

// plan is one armed fault schedule. Each registered point carries an
// armed bit, a 1-based trigger count, and an invocation counter; the
// point fires on exactly its trigger-th invocation. All state derives
// from the seed, so two runs with the same seed inject the same fault
// at the same logical site regardless of goroutine interleaving —
// which goroutine *observes* the fault may differ, but the set of
// injected failures cannot.
type plan struct {
	seed   uint64
	points map[Point]*pointState
}

type pointState struct {
	armed   bool
	trigger uint64 // 1-based invocation count that fires
	chaotic bool   // Chaos point: fires on every invocation >= trigger
	count   atomic.Uint64
}

// active holds the armed plan, or nil. Swapped atomically so hot-path
// Fail/Chaos calls are a single load when disarmed.
var active atomic.Pointer[plan]

// Enabled reports whether this build carries the fault registry.
func Enabled() bool { return true }

// Active reports whether a fault plan is currently armed.
func Active() bool { return active.Load() != nil }

// Activate arms a deterministic fault plan derived from seed,
// replacing any previous plan and resetting all counters. Roughly half
// of all seeds arm each point; the trigger hit lands in [1, 32] so
// faults fire early enough for quick runs to reach them.
func Activate(seed uint64) error {
	p := &plan{seed: seed, points: make(map[Point]*pointState)}
	for _, pt := range Points() {
		h := pointHash(seed, pt)
		p.points[pt] = &pointState{
			armed:   (h>>5)%2 == 0,
			trigger: 1 + h%32,
			chaotic: pt == StoreCorrupt,
		}
	}
	active.Store(p)
	return nil
}

// Deactivate disarms the active plan.
func Deactivate() { active.Store(nil) }

// ActivateFromEnv arms a plan from the EnvSeed environment variable
// (decimal seed). Unset means no plan and nil error.
func ActivateFromEnv(lookup func(string) (string, bool)) error {
	v, ok := lookup(EnvSeed)
	if !ok {
		return nil
	}
	seed, err := strconv.ParseUint(v, 10, 64)
	if err != nil {
		return fmt.Errorf("faultinject: bad %s=%q: %w", EnvSeed, v, err)
	}
	return Activate(seed)
}

// Fail reports an injected failure at p: non-nil exactly once, on the
// armed trigger-th invocation of the site.
func Fail(pt Point) error {
	pl := active.Load()
	if pl == nil {
		return nil
	}
	st, ok := pl.points[pt]
	if !ok || !st.armed || st.chaotic {
		return nil
	}
	if hit := st.count.Add(1); hit == st.trigger {
		return &Error{Point: pt, Hit: hit, Seed: pl.seed}
	}
	return nil
}

// Chaos reports an injected behaviour-preserving stress at p: true on
// every invocation from the armed trigger onward, so the stressed path
// stays stressed for the rest of the run.
func Chaos(pt Point) bool {
	pl := active.Load()
	if pl == nil {
		return false
	}
	st, ok := pl.points[pt]
	if !ok || !st.armed || !st.chaotic {
		return false
	}
	return st.count.Add(1) >= st.trigger
}
