package tage_test

import (
	"testing"

	"branchlab/internal/tage"
	"branchlab/internal/trace"
	"branchlab/internal/workload"
)

// BenchmarkTAGEPredictTrain isolates the TAGE-SC-L engine itself — no
// measurement loop, no stream dispatch: the branch events of a recorded
// trace are extracted once and replayed straight through the predict/
// train/observe calls. The packed sub-benchmark is the bit-packed
// struct-of-arrays engine, tage-reference the scalar array-of-structs
// engine it replaced (the Reference oracle of the equivalence suite);
// their ratio is the engine-level win recorded in EXPERIMENTS.md and
// gated by scripts/bench.sh. MB/s reads as M branch events/s.
func BenchmarkTAGEPredictTrain(b *testing.B) {
	spec, _ := workload.ByName("605.mcf_s")
	tr := record(b, spec, 500_000)
	var events []trace.Inst
	for i := 0; i < tr.Len(); i++ {
		if inst := tr.At(i); inst.IsBranch() {
			events = append(events, inst)
		}
	}
	for _, e := range []struct {
		name string
		mk   func() engine
	}{
		{"packed", func() engine { return tage.New(tage.Config8KB()) }},
		{"tage-reference", func() engine { return tage.NewReference(tage.Config8KB()) }},
	} {
		b.Run(e.name, func(b *testing.B) {
			p := e.mk()
			b.SetBytes(int64(len(events)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := range events {
					ev := &events[j]
					if ev.IsCondBranch() {
						pred := p.Predict(ev.IP)
						p.Train(ev.IP, ev.Target, ev.Taken, pred)
					} else {
						p.ObserveBranch(ev.IP, ev.Target, ev.Kind, ev.Taken)
					}
				}
			}
		})
	}
}
