package faultinject_test

import (
	"errors"
	"testing"

	"branchlab/internal/faultinject"
)

// TestErrorUnwrapsToInjected pins the classification contract: every
// injected failure satisfies errors.Is(err, ErrInjected) and exposes
// its site via errors.As.
func TestErrorUnwrapsToInjected(t *testing.T) {
	err := &faultinject.Error{Point: faultinject.CacheRecord, Hit: 3, Seed: 7}
	if !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("errors.Is(%v, ErrInjected) = false", err)
	}
	var fe *faultinject.Error
	if !errors.As(error(err), &fe) || fe.Point != faultinject.CacheRecord {
		t.Fatalf("errors.As failed to recover the point from %v", err)
	}
	if err.Error() == "" {
		t.Fatal("Error() returned empty message")
	}
}

// TestPointsCoverDocumentedCatalog keeps Points() in sync with the
// exported constants (and, transitively, the DESIGN.md §9 catalog).
func TestPointsCoverDocumentedCatalog(t *testing.T) {
	want := map[faultinject.Point]bool{
		faultinject.EngineDispatch: true,
		faultinject.CacheRecord:    true,
		faultinject.StoreWrite:     true,
		faultinject.StoreRead:      true,
		faultinject.StoreCorrupt:   true,
	}
	got := faultinject.Points()
	if len(got) != len(want) {
		t.Fatalf("Points() = %v, want %d points", got, len(want))
	}
	for _, p := range got {
		if !want[p] {
			t.Errorf("Points() contains unregistered point %q", p)
		}
	}
}
