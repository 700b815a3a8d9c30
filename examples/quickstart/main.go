// Quickstart: generate a workload trace, run TAGE-SC-L over it, screen
// for hard-to-predict branches and convert accuracy into IPC — the
// complete measurement loop of the paper in ~40 lines.
package main

import (
	"fmt"
	"log"

	"branchlab"
)

func main() {
	spec, ok := branchlab.Workload("605.mcf_s")
	if !ok {
		log.Fatal("workload not found")
	}
	const budget = 1_000_000
	const sliceLen = 250_000

	// Synthesize a deterministic trace for application input 0.
	tr := branchlab.RecordTrace(spec, 0, budget)
	fmt.Printf("workload %s: %d instructions\n", spec.Name, tr.Len())

	// Predict every conditional branch with TAGE-SC-L 8KB and collect
	// per-slice, per-branch statistics.
	pred := branchlab.NewTAGESCL(8)
	col := branchlab.NewCollector(sliceLen)
	stats := branchlab.Run(tr.BlockStream(0), pred, col)
	fmt.Printf("accuracy %.4f (%.2f MPKI) over %d conditional branches\n",
		stats.Accuracy(), stats.MPKI(), stats.CondExecs)

	// Screen H2Ps with the paper's criteria, scaled to our slice length.
	rep := branchlab.ScreenH2Ps(col, sliceLen)
	fmt.Printf("H2P branches: %d (%.1f per slice), causing %.1f%% of mispredictions\n",
		len(rep.Set()), rep.AvgPerSlice(), 100*rep.MispredShare())
	for i, hh := range rep.HeavyHitters() {
		if i >= 3 {
			break
		}
		fmt.Printf("  heavy hitter %d: ip=%#x execs=%d mispreds=%d\n",
			i+1, hh.IP, hh.Execs, hh.Mispreds)
	}

	// Close the loop to IPC on the Skylake-like pipeline model.
	base := branchlab.SimulateIPC(tr.BlockStream(0), branchlab.SkylakeConfig(),
		branchlab.PipelineOptions{Predictor: branchlab.NewTAGESCL(8)})
	perfect := branchlab.SimulateIPC(tr.BlockStream(0), branchlab.SkylakeConfig(),
		branchlab.PipelineOptions{PerfectBP: true})
	fmt.Printf("IPC %.3f with TAGE-SC-L 8KB, %.3f with perfect prediction (%.1f%% opportunity)\n",
		base.IPC, perfect.IPC, 100*(perfect.IPC/base.IPC-1))
}
