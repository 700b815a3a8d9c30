//go:build faultinject

package faultinject_test

import (
	"errors"
	"sync"
	"testing"

	"branchlab/internal/faultinject"
)

// TestPlanIsDeterministic: the same seed yields the same fired point
// set and hit counts across re-activations.
func TestPlanIsDeterministic(t *testing.T) {
	t.Cleanup(faultinject.Deactivate)
	type firing struct {
		point faultinject.Point
		hit   uint64
	}
	runPlan := func(seed uint64) []firing {
		if err := faultinject.Activate(seed); err != nil {
			t.Fatalf("Activate(%d) = %v", seed, err)
		}
		var fired []firing
		for i := 0; i < 64; i++ {
			for _, p := range faultinject.Points() {
				if err := faultinject.Fail(p); err != nil {
					var fe *faultinject.Error
					if !errors.As(err, &fe) {
						t.Fatalf("Fail(%s) returned untyped %v", p, err)
					}
					fired = append(fired, firing{fe.Point, fe.Hit})
				}
			}
		}
		return fired
	}
	for seed := uint64(0); seed < 16; seed++ {
		a, b := runPlan(seed), runPlan(seed)
		if len(a) != len(b) {
			t.Fatalf("seed %d: %d firings vs %d on replay", seed, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("seed %d firing %d: %+v vs %+v", seed, i, a[i], b[i])
			}
		}
	}
}

// TestFailFiresExactlyOnce: a Fail point fires on exactly one
// invocation even when hammered concurrently.
func TestFailFiresExactlyOnce(t *testing.T) {
	t.Cleanup(faultinject.Deactivate)
	// Find a seed that arms EngineDispatch.
	var armedSeed uint64
	found := false
	for s := uint64(0); s < 256 && !found; s++ {
		if err := faultinject.Activate(s); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 64; i++ {
			if faultinject.Fail(faultinject.EngineDispatch) != nil {
				armedSeed, found = s, true
				break
			}
		}
	}
	if !found {
		t.Fatal("no seed in [0,256) arms engine/dispatch — trigger derivation broken")
	}
	if err := faultinject.Activate(armedSeed); err != nil {
		t.Fatal(err)
	}
	var fired sync.Map
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 64; i++ {
				if err := faultinject.Fail(faultinject.EngineDispatch); err != nil {
					if _, dup := fired.LoadOrStore("fired", err); dup {
						t.Error("engine/dispatch fired more than once")
					}
				}
			}
		}()
	}
	wg.Wait()
	if _, ok := fired.Load("fired"); !ok {
		t.Fatal("armed point never fired across 512 invocations")
	}
}

// TestChaosStaysOnAfterTrigger: a chaos point reports true for every
// invocation at or past its trigger, never before.
func TestChaosStaysOnAfterTrigger(t *testing.T) {
	t.Cleanup(faultinject.Deactivate)
	for s := uint64(0); s < 256; s++ {
		if err := faultinject.Activate(s); err != nil {
			t.Fatal(err)
		}
		on := false
		for i := 0; i < 64; i++ {
			got := faultinject.Chaos(faultinject.StoreCorrupt)
			if on && !got {
				t.Fatalf("seed %d: chaos turned off after firing (hit %d)", s, i+1)
			}
			on = on || got
		}
		if on {
			return // found at least one arming seed; contract verified
		}
	}
	t.Fatal("no seed in [0,256) arms tracestore/corrupt")
}

// TestChaosPointNeverFails and vice versa: the two hook classes are
// disjoint per point.
func TestHookClassesAreDisjoint(t *testing.T) {
	t.Cleanup(faultinject.Deactivate)
	for s := uint64(0); s < 64; s++ {
		if err := faultinject.Activate(s); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 64; i++ {
			if err := faultinject.Fail(faultinject.StoreCorrupt); err != nil {
				t.Fatalf("seed %d: Fail fired on chaos point StoreCorrupt: %v", s, err)
			}
			if faultinject.Chaos(faultinject.CacheRecord) {
				t.Fatalf("seed %d: Chaos fired on fail point CacheRecord", s)
			}
		}
	}
}

// TestActivateFromEnv parses the documented env contract.
func TestActivateFromEnv(t *testing.T) {
	t.Cleanup(faultinject.Deactivate)
	lookup := func(v string, ok bool) func(string) (string, bool) {
		return func(k string) (string, bool) {
			if k == faultinject.EnvSeed {
				return v, ok
			}
			return "", false
		}
	}
	if err := faultinject.ActivateFromEnv(lookup("", false)); err != nil || faultinject.Active() {
		t.Fatalf("unset env: err=%v active=%v", err, faultinject.Active())
	}
	if err := faultinject.ActivateFromEnv(lookup("17", true)); err != nil || !faultinject.Active() {
		t.Fatalf("seed 17: err=%v active=%v", err, faultinject.Active())
	}
	faultinject.Deactivate()
	if err := faultinject.ActivateFromEnv(lookup("not-a-number", true)); err == nil {
		t.Fatal("bad seed accepted")
	}
}
