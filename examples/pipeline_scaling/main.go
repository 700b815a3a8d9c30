// Pipeline scaling: reproduce the shape of the paper's Fig 1 on a single
// workload — as pipeline capacity scales 1x..32x, the IPC left on the
// table by branch mispredictions grows to the size of a process-node
// advance.
package main

import (
	"fmt"
	"log"

	"branchlab"
)

func main() {
	spec, ok := branchlab.Workload("641.leela_s")
	if !ok {
		log.Fatal("workload not found")
	}
	tr := branchlab.RecordTrace(spec, 0, 1_000_000)

	fmt.Printf("%-8s %12s %12s %14s\n", "scale", "TAGE8 IPC", "perfect IPC", "opportunity")
	for _, scale := range []int{1, 2, 4, 8, 16, 32} {
		cfg := branchlab.SkylakeConfig().Scaled(scale)
		base := branchlab.SimulateIPC(tr.BlockStream(0), cfg,
			branchlab.PipelineOptions{Predictor: branchlab.NewTAGESCL(8)})
		perfect := branchlab.SimulateIPC(tr.BlockStream(0), cfg,
			branchlab.PipelineOptions{PerfectBP: true})
		fmt.Printf("%-8s %12.3f %12.3f %13.1f%%\n",
			fmt.Sprintf("%dx", scale), base.IPC, perfect.IPC,
			100*(perfect.IPC/base.IPC-1))
	}
	fmt.Println("\nwithout better branch prediction, wider/deeper pipelines return less and less (paper Fig 1)")
}
