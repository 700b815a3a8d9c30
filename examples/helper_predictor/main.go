// Helper predictor: the paper's §V proposal end to end — train a 2-bit
// CNN helper offline on traces from multiple application inputs, deploy
// it alongside TAGE-SC-L for one H2P branch, and evaluate on an input
// never seen during training.
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

	// Find the H2P to target (screened on input 0).
	scout := branchlab.RecordTrace(spec, 0, budget)
	col := branchlab.NewCollector(sliceLen)
	branchlab.Run(scout.BlockStream(0), branchlab.NewTAGESCL(8), col)
	hh := branchlab.ScreenH2Ps(col, sliceLen).HeavyHitters()
	if len(hh) == 0 {
		log.Fatal("no H2P found")
	}
	target := hh[0].IP
	fmt.Printf("target H2P: ip=%#x\n", target)

	// Offline training on inputs 0 and 1 (the paper's multi-input trace
	// library, §V-B).
	cfg := branchlab.DefaultHelperConfig()
	model := branchlab.TrainHelper(cfg, target,
		branchlab.RecordTrace(spec, 0, budget),
		branchlab.RecordTrace(spec, 1, budget))
	fmt.Printf("helper trained; 2-bit quantized: %v\n", model.Quantized())

	// Deployment on unseen input 2.
	eval := branchlab.RecordTrace(spec, 2, budget)

	baseCol := branchlab.NewCollector(sliceLen)
	branchlab.Run(eval.BlockStream(0), branchlab.NewTAGESCL(8), baseCol)
	baseAcc := baseCol.Totals()[target].Accuracy()

	overlay := branchlab.NewHelperOverlay(cfg, branchlab.NewTAGESCL(8))
	overlay.Attach(target, model)
	helpCol := branchlab.NewCollector(sliceLen)
	branchlab.Run(eval.BlockStream(0), overlay, helpCol)
	helpAcc := helpCol.Totals()[target].Accuracy()

	fmt.Printf("on unseen input: TAGE-SC-L %.3f -> helper %.3f (%+.1f%%), %d predictions served by the helper\n",
		baseAcc, helpAcc, 100*(helpAcc-baseAcc), overlay.HelperPredictions)
}
