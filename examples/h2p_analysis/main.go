// H2P analysis: the paper's §IV deep dive on one benchmark — find the
// top hard-to-predict branch, trace its dependency branches through the
// operand dependency graph, and show how their history positions scatter
// (the reason exact pattern matching fails), plus the TAGE allocation
// churn it causes.
package main

import (
	"fmt"
	"log"
	"sort"

	"branchlab"
	"branchlab/internal/core"
	"branchlab/internal/depgraph"
	"branchlab/internal/tage"
)

func main() {
	spec, ok := branchlab.Workload("605.mcf_s")
	if !ok {
		log.Fatal("workload not found")
	}
	const budget = 1_500_000
	const sliceLen = 500_000
	tr := branchlab.RecordTrace(spec, 0, budget)

	// Pass 1: screen for the top H2P heavy hitter with alloc telemetry.
	pred := tage.New(tage.Config8KB())
	telemetry := pred.EnableAllocTracking()
	col := branchlab.NewCollector(sliceLen)
	branchlab.Run(tr.BlockStream(0), pred, col)
	rep := branchlab.ScreenH2Ps(col, sliceLen)
	hh := rep.HeavyHitters()
	if len(hh) == 0 {
		log.Fatal("no H2Ps found")
	}
	target := hh[0].IP
	fmt.Printf("top H2P heavy hitter: ip=%#x execs=%d mispreds=%d (accuracy %.3f)\n",
		target, hh[0].Execs, hh[0].Mispreds,
		1-float64(hh[0].Mispreds)/float64(hh[0].Execs))
	fmt.Printf("TAGE allocation churn: %d allocations over %d unique entries (%.2f%% of all allocations)\n",
		telemetry.Allocs(target), telemetry.UniqueEntries(target),
		100*telemetry.ShareOfAllocs(target))

	// Pass 2: dependency-graph analysis over the prior 5,000 instructions
	// of each execution (paper §IV-A, Table III, Fig 6).
	an := depgraph.New(depgraph.DefaultWindow, 5000, target)
	branchlab.Run(tr.BlockStream(0), tage.New(tage.Config8KB()), an)
	sum := an.Summarize(target)
	fmt.Printf("\ndependency branches: %d, history positions %d..%d (%.1f positions per dependency)\n",
		sum.DepBranches, sum.MinPos, sum.MaxPos, sum.PositionsPerDep)

	fmt.Println("\nper-dependency position spread (the Fig 6 phenomenon):")
	byDep := map[uint64][]depgraph.PosCount{}
	for _, p := range an.Positions(target) {
		byDep[p.DepIP] = append(byDep[p.DepIP], p)
	}
	deps := make([]uint64, 0, len(byDep))
	for ip := range byDep {
		deps = append(deps, ip)
	}
	sort.Slice(deps, func(i, j int) bool { return deps[i] < deps[j] })
	for _, ip := range deps {
		ps := byDep[ip]
		var total uint64
		minP, maxP := ps[0].Pos, ps[0].Pos
		for _, p := range ps {
			total += p.Count
			if p.Pos < minP {
				minP = p.Pos
			}
			if p.Pos > maxP {
				maxP = p.Pos
			}
		}
		fmt.Printf("  dep %#x: %d occurrences across %d distinct positions (%d..%d)\n",
			ip, total, len(ps), minP, maxP)
	}

	// Register values immediately preceding the H2P (paper Fig 10).
	rv := core.NewRegValueTracker(target, 8, 18)
	branchlab.Run(tr.BlockStream(0), tage.New(tage.Config8KB()), rv)
	fmt.Printf("\nregister values before %d executions:\n", rv.Execs())
	for r := uint8(8); r < 12; r++ {
		if n := rv.DistinctValues(r); n > 0 {
			fmt.Printf("  r%d: %d distinct values\n", r, n)
		}
	}
}
