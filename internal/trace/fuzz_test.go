package trace_test

import (
	"bytes"
	"context"
	"testing"

	"branchlab/internal/trace"
	"branchlab/internal/workload"
)

// encode writes insts as a BLT1 trace.
func encode(t testing.TB, insts []trace.Inst) []byte {
	var buf bytes.Buffer
	w := trace.NewWriter(&buf)
	for i := range insts {
		if err := w.WriteInst(&insts[i]); err != nil {
			t.Fatalf("WriteInst(%+v): %v", insts[i], err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// tracegenSeed is a small workload trace encoded the way cmd/tracegen
// stores one.
func tracegenSeed(f *testing.F) []byte {
	spec, ok := workload.ByName("605.mcf_s")
	if !ok {
		f.Fatal("605.mcf_s not registered")
	}
	s := spec.Stream(context.Background(), 0, 200)
	defer s.Close()
	return encode(f, drain(s))
}

// drain enumerates bs into a flat slice.
func drain(bs trace.BlockStream) []trace.Inst {
	var out []trace.Inst
	for blk := bs.NextBlock(); len(blk) > 0; blk = bs.NextBlock() {
		out = append(out, blk...)
	}
	return out
}

// FuzzReader feeds arbitrary bytes to the BLT1 decoder. Decoding must
// never panic; every instruction it yields must have a valid kind and
// registers inside the register file (or NoReg), so consumers can index
// per-register state with them; and the decoded prefix must re-encode
// and decode back to itself exactly.
func FuzzReader(f *testing.F) {
	f.Add([]byte("BLT1\x80\x00\x28\xff")) // source register 40: crashed the timing model
	f.Add(tracegenSeed(f))
	f.Add([]byte("BLT1"))
	f.Fuzz(func(t *testing.T, data []byte) {
		decoded := drain(trace.NewReader(bytes.NewReader(data)))
		for _, inst := range decoded {
			if !inst.Kind.Valid() {
				t.Fatalf("decoded invalid kind %d", inst.Kind)
			}
			for _, reg := range []uint8{inst.DstReg, inst.SrcRegs[0], inst.SrcRegs[1]} {
				if reg != trace.NoReg && reg >= trace.NumRegs {
					t.Fatalf("decoded register %d outside the register file: %+v", reg, inst)
				}
			}
		}
		again := trace.NewReader(bytes.NewReader(encode(t, decoded)))
		redecoded := drain(again)
		if again.Err() != nil {
			t.Fatalf("re-encoded trace failed to decode: %v", again.Err())
		}
		if len(redecoded) != len(decoded) {
			t.Fatalf("re-encoded trace decoded %d of %d instructions", len(redecoded), len(decoded))
		}
		for i, want := range decoded {
			if redecoded[i] != want {
				t.Fatalf("inst %d: re-encoded as %+v, decoded %+v", i, redecoded[i], want)
			}
		}
	})
}
