// Command h2pscan screens a workload across multiple application inputs
// for systematically hard-to-predict branches, reporting the Table I
// cross-input statistics: how many H2Ps exist, how many recur in 3+
// inputs, and how much misprediction mass they concentrate.
//
// Example:
//
//	h2pscan -workload 605.mcf_s -inputs 4 -budget 2000000
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sort"

	"branchlab/internal/core"
	"branchlab/internal/tage"
	"branchlab/internal/workload"
)

func main() {
	var (
		name   = flag.String("workload", "", "workload name")
		inputs = flag.Int("inputs", 3, "number of application inputs to scan")
		budget = flag.Uint64("budget", 2_000_000, "instruction budget per input")
		slice  = flag.Uint64("slice", 500_000, "slice length")
	)
	flag.Parse()
	if err := run(context.Background(), *name, *inputs, *budget, *slice); err != nil {
		fmt.Fprintln(os.Stderr, "h2pscan:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, name string, inputs int, budget, slice uint64) error {
	spec, ok := workload.ByName(name)
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	if inputs > spec.NumInputs {
		inputs = spec.NumInputs
	}
	crit := core.PaperCriteria().Scaled(slice)
	fmt.Printf("screening %s over %d inputs (criteria: acc < %.2f, execs >= %d, mispreds >= %d per %d-inst slice)\n\n",
		spec.Name, inputs, crit.MaxAccuracy, crit.MinExecs, crit.MinMispreds, slice)

	var reports []*core.H2PReport
	for in := 0; in < inputs; in++ {
		s := spec.Stream(ctx, in, budget)
		col := core.NewCollector(slice)
		stats := core.RunBlocks(s, tage.New(tage.Config8KB()), col)
		s.Close()
		if err := s.Err(); err != nil {
			return err
		}
		rep := crit.Screen(col)
		reports = append(reports, rep)
		fmt.Printf("input %d: accuracy %.4f, %d H2Ps (%.1f/slice), %.1f%% of mispredictions\n",
			in, stats.Accuracy(), len(rep.Set()), rep.AvgPerSlice(), 100*rep.MispredShare())
	}

	agg := core.Aggregate(reports)
	fmt.Printf("\nacross inputs: %d distinct H2Ps, %d appear in 3+ inputs, %.1f per input on average\n",
		agg.Total(), agg.AppearingIn(3), agg.AvgPerInput())

	// Branches recurring everywhere are the specialization targets.
	type rec struct {
		ip uint64
		n  int
	}
	var recs []rec
	for ip, n := range agg.InputsPerH2P {
		recs = append(recs, rec{ip, n})
	}
	sort.Slice(recs, func(i, j int) bool {
		if recs[i].n != recs[j].n {
			return recs[i].n > recs[j].n
		}
		return recs[i].ip < recs[j].ip
	})
	fmt.Println("\nmost persistent H2Ps (helper-predictor candidates):")
	for i, r := range recs {
		if i >= 10 {
			break
		}
		fmt.Printf("  ip=%#x in %d/%d inputs\n", r.ip, r.n, inputs)
	}
	return nil
}
