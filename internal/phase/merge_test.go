package phase

import (
	"math"
	"reflect"
	"testing"

	"branchlab/internal/core"
	"branchlab/internal/trace"
	"branchlab/internal/xrand"
)

// branchTrace builds a trace of conditional branches over nBranches
// IPs with pseudo-random selection, each branch recurring at most
// maxExecs times so the per-shard reservoirs stay under capacity and
// the merge is exact.
func branchTrace(n, nBranches int, seed uint64) *trace.Buffer {
	r := xrand.New(seed)
	b := trace.NewBuffer(n)
	for i := 0; i < n; i++ {
		inst := trace.Inst{IP: 0x100, Kind: trace.KindALU,
			DstReg: trace.NoReg, SrcRegs: [2]uint8{trace.NoReg, trace.NoReg}}
		if r.Bool(0.3) {
			inst.Kind = trace.KindCondBr
			inst.IP = uint64(0xA000 + 64*r.Intn(nBranches))
			inst.Taken = r.Bool(0.5)
			inst.Target = inst.IP + 32
		}
		b.Append(inst)
	}
	return b
}

func assertTrackersEqual(t *testing.T, got, want *RecurrenceTracker, label string) {
	t.Helper()
	if !reflect.DeepEqual(got.execs, want.execs) {
		t.Fatalf("%s: exec counts differ", label)
	}
	if !reflect.DeepEqual(got.lastSeen, want.lastSeen) {
		t.Fatalf("%s: lastSeen differs", label)
	}
	if len(got.samples) != len(want.samples) {
		t.Fatalf("%s: %d sampled branches, want %d", label, len(got.samples), len(want.samples))
	}
	for ip, w := range want.samples {
		g := got.samples[ip]
		if g == nil || g.N != w.N || !reflect.DeepEqual(g.Sample, w.Sample) {
			t.Fatalf("%s: branch %#x samples differ: %+v != %+v", label, ip, g, w)
		}
	}
}

// Sharding a trace across trackers and merging in order must
// reproduce the sequential tracker bit-for-bit — including the
// reservoir contents — when per-shard interval counts stay under the
// reservoir capacity. The trace uses enough branch IPs that every
// branch recurs but none exceeds the capacity per shard.
func TestRecurrenceTrackerMergeExact(t *testing.T) {
	tr := branchTrace(40_000, 300, 3)
	want := NewRecurrenceTracker()
	core.ObserveBlocks(tr.BlockStream(0), want)

	for _, shards := range []int{2, 3, 5} {
		per := (tr.Len() + shards - 1) / shards
		var acc *RecurrenceTracker
		for w := 0; w < shards; w++ {
			lo := w * per
			hi := lo + per
			if hi > tr.Len() {
				hi = tr.Len()
			}
			part := NewRecurrenceTracker()
			core.ObserveBlocksFrom(tr.Slice(lo, hi).BlockStream(0), uint64(lo), part)
			if acc == nil {
				acc = part
			} else {
				acc.Merge(part)
			}
		}
		assertTrackersEqual(t, acc, want, "shards")
		// The derived artifact agrees as well.
		wantMed := want.MedianIntervals()
		for ip, m := range acc.MedianIntervals() {
			if math.Abs(m-wantMed[ip]) > 0 {
				t.Fatalf("median for %#x differs: %v != %v", ip, m, wantMed[ip])
			}
		}
	}
}

// Branches crossing a shard boundary must contribute the boundary
// interval exactly once, and branches seen only in the later shard
// must carry their firstSeen across merges (three-way chain).
func TestRecurrenceTrackerMergeBoundary(t *testing.T) {
	mk := func(ips ...uint64) *trace.Buffer {
		b := trace.NewBuffer(len(ips))
		for _, ip := range ips {
			kind := trace.KindALU
			if ip != 0 {
				kind = trace.KindCondBr
			}
			b.Append(trace.Inst{IP: ip, Kind: kind, Taken: true,
				DstReg: trace.NoReg, SrcRegs: [2]uint8{trace.NoReg, trace.NoReg}})
		}
		return b
	}
	// Branch A at indices 0 and 5 (interval 5, crossing both splits);
	// branch B at 4 and 5 is confined to the tail shards.
	tr := mk(0xA, 0, 0, 0, 0xB, 0xA)
	tr.Append(trace.Inst{IP: 0xB, Kind: trace.KindCondBr, Taken: true,
		DstReg: trace.NoReg, SrcRegs: [2]uint8{trace.NoReg, trace.NoReg}})

	want := NewRecurrenceTracker()
	core.ObserveBlocks(tr.BlockStream(0), want)

	parts := make([]*RecurrenceTracker, 3)
	bounds := [][2]int{{0, 2}, {2, 5}, {5, 7}}
	for i, bd := range bounds {
		parts[i] = NewRecurrenceTracker()
		core.ObserveBlocksFrom(tr.Slice(bd[0], bd[1]).BlockStream(0), uint64(bd[0]), parts[i])
	}
	parts[0].Merge(parts[1])
	parts[0].Merge(parts[2])
	assertTrackersEqual(t, parts[0], want, "boundary chain")
}

// Mergeable detectors replay the later shard's bucket stream, so the
// merged state is bit-identical to a sequential detector at any split
// — including splits inside a window.
func TestDetectorMergeExact(t *testing.T) {
	r := xrand.New(5)
	ips := make([]uint64, 5_000)
	for i := range ips {
		// Two alternating IP populations so phases actually allocate.
		base := uint64(0xA000)
		if (i/1024)%2 == 1 {
			base = 0xF0000
		}
		ips[i] = base + 64*uint64(r.Intn(40))
	}
	const window = 512
	want := NewMergeableDetector(window)
	for _, ip := range ips {
		want.Observe(ip)
	}
	if want.NumPhases() < 2 {
		t.Fatal("test stream should produce multiple phases")
	}

	for _, cut := range []int{100, 1024, 1500, 4999} {
		left, right := NewMergeableDetector(window), NewMergeableDetector(window)
		for _, ip := range ips[:cut] {
			left.Observe(ip)
		}
		for _, ip := range ips[cut:] {
			right.Observe(ip)
		}
		left.Merge(right)
		if left.NumPhases() != want.NumPhases() {
			t.Fatalf("cut %d: %d phases, want %d", cut, left.NumPhases(), want.NumPhases())
		}
		if !reflect.DeepEqual(left.History(), want.History()) {
			t.Fatalf("cut %d: history differs", cut)
		}
		if !reflect.DeepEqual(left.phases, want.phases) {
			t.Fatalf("cut %d: signatures differ", cut)
		}
		if left.curCount != want.curCount || !reflect.DeepEqual(left.cur, want.cur) {
			t.Fatalf("cut %d: in-progress window differs", cut)
		}
	}
}

func TestDetectorMergeRequiresMergeable(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic when merging non-mergeable detectors")
		}
	}()
	NewDetector(100).Merge(NewMergeableDetector(100))
}
