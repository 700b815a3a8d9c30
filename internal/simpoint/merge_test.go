package simpoint

import (
	"reflect"
	"testing"

	"branchlab/internal/core"
	"branchlab/internal/trace"
	"branchlab/internal/xrand"
)

// phasedTrace alternates two branch-IP populations every sliceLen
// instructions so consecutive slices produce distinct BBVs.
func phasedTrace(n, sliceLen int, seed uint64) *trace.Buffer {
	r := xrand.New(seed)
	b := trace.NewBuffer(n)
	for i := 0; i < n; i++ {
		base := uint64(0xA000)
		if (i/sliceLen)%2 == 1 {
			base = 0x90000
		}
		inst := trace.Inst{IP: 0x100, Kind: trace.KindALU,
			DstReg: trace.NoReg, SrcRegs: [2]uint8{trace.NoReg, trace.NoReg}}
		if r.Bool(0.4) {
			inst.Kind = trace.KindCondBr
			inst.IP = base + 64*uint64(r.Intn(25))
			inst.Taken = r.Bool(0.5)
			inst.Target = inst.IP + 32
		}
		b.Append(inst)
	}
	return b
}

// Splitting a trace at slice boundaries across BBV collectors and
// merging them in order must reproduce the sequential vector sequence
// exactly — the property that lets Table 1's phase counting shard one
// trace across engine workers without changing any artifact byte.
func TestBBVMergeMatchesSequential(t *testing.T) {
	const sliceLen = 1_000
	tr := phasedTrace(10_500, sliceLen, 3) // trailing partial slice included
	want := NewBBVCollector(sliceLen, DefaultDim)
	core.ObserveBlocks(tr.BlockStream(0), want)
	wantVecs := want.Vectors()
	if len(wantVecs) != 11 {
		t.Fatalf("expected 11 slices, got %d", len(wantVecs))
	}

	for _, slicesPerShard := range []int{1, 2, 4} {
		shardLen := slicesPerShard * sliceLen
		var acc *BBVCollector
		for lo := 0; lo < tr.Len(); lo += shardLen {
			hi := lo + shardLen
			if hi > tr.Len() {
				hi = tr.Len()
			}
			c := NewBBVCollector(sliceLen, DefaultDim)
			core.ObserveBlocksFrom(tr.Slice(lo, hi).BlockStream(0), uint64(lo), c)
			if acc == nil {
				acc = c
			} else {
				acc.Merge(c)
			}
		}
		if !reflect.DeepEqual(acc.Vectors(), wantVecs) {
			t.Fatalf("sharded vectors differ at %d slices per shard", slicesPerShard)
		}
	}

	// The downstream clustering decision is therefore identical too.
	if got, want := ChooseK(wantVecs, 8, 1).K, ChooseK(want.Vectors(), 8, 1).K; got != want {
		t.Fatalf("phase count changed: %d != %d", got, want)
	}
}

func TestBBVMergePanicsOnGeometryMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on geometry mismatch")
		}
	}()
	NewBBVCollector(100, 8).Merge(NewBBVCollector(200, 8))
}
