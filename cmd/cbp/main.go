// Command cbp runs a CBP-style championship: every registered predictor
// over every workload in a suite, reporting accuracy and MPKI per cell
// and a final leaderboard — the §II context for why TAGE-SC-L is the
// baseline the paper screens against.
//
// Example:
//
//	cbp -suite specint2017 -budget 1000000
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sort"

	"branchlab/internal/core"
	"branchlab/internal/report"
	"branchlab/internal/workload"
	"branchlab/internal/zoo"
)

func main() {
	var (
		suite      = flag.String("suite", "specint2017", "specint2017 or lcf")
		budget     = flag.Uint64("budget", 1_000_000, "instruction budget per workload")
		predictors = flag.String("predictors", "", "comma list (default: all)")
	)
	flag.Parse()
	if err := run(context.Background(), *suite, *budget, *predictors); err != nil {
		fmt.Fprintln(os.Stderr, "cbp:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, suite string, budget uint64, predictorList string) error {
	var specs []*workload.Spec
	switch suite {
	case "specint2017":
		specs = workload.SPECint2017Like()
	case "lcf":
		specs = workload.LCFLike()
	default:
		return fmt.Errorf("unknown suite %q", suite)
	}

	names := zoo.Names()
	if predictorList != "" {
		names = splitComma(predictorList)
	}

	headers := append([]string{"predictor"}, make([]string, 0, len(specs)+1)...)
	for _, s := range specs {
		headers = append(headers, shortName(s.Name))
	}
	headers = append(headers, "mean MPKI")
	tab := report.NewTable(fmt.Sprintf("MPKI by predictor and workload (%d instructions each)", budget), headers...)

	type standing struct {
		name string
		mpki float64
	}
	var standings []standing
	for _, name := range names {
		row := []string{name}
		total := 0.0
		ok := true
		for _, s := range specs {
			p, err := zoo.New(name)
			if err != nil {
				return err
			}
			st := s.Stream(ctx, 0, budget)
			stats := core.RunBlocks(st, p)
			st.Close()
			if err := st.Err(); err != nil {
				return err
			}
			row = append(row, fmt.Sprintf("%.2f", stats.MPKI()))
			total += stats.MPKI()
		}
		if !ok {
			continue
		}
		mean := total / float64(len(specs))
		row = append(row, fmt.Sprintf("%.2f", mean))
		tab.AddRow(row...)
		standings = append(standings, standing{name, mean})
	}
	fmt.Print(tab.String())

	sort.Slice(standings, func(i, j int) bool { return standings[i].mpki < standings[j].mpki })
	fmt.Println("\nleaderboard (mean MPKI, lower is better):")
	for i, s := range standings {
		fmt.Printf("%2d. %-18s %.2f\n", i+1, s.name, s.mpki)
	}
	return nil
}

func shortName(s string) string {
	if len(s) > 10 {
		return s[:10]
	}
	return s
}

func splitComma(s string) []string {
	var out []string
	start := 0
	for i := 0; i <= len(s); i++ {
		if i == len(s) || s[i] == ',' {
			if i > start {
				out = append(out, s[start:i])
			}
			start = i + 1
		}
	}
	return out
}
