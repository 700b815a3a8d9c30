package experiments

import (
	"context"
	"fmt"
	"sort"

	"branchlab/internal/core"
	"branchlab/internal/depgraph"
	"branchlab/internal/phase"
	"branchlab/internal/report"
	"branchlab/internal/stats"
	"branchlab/internal/trace"
	"branchlab/internal/workload"
)

// topHeavyHitter screens a workload's input-0 trace (memoized, shared
// with the other drivers screening the same trace) and returns the top
// H2P by dynamic executions (0 if none). tr must be that trace; drivers
// that need it afterwards pass the buffer they already hold.
func topHeavyHitter(cfg Config, s *workload.Spec, tr trace.Replayable) uint64 {
	rep, _ := screenBranches(cfg, s, 0, tr)
	hh := rep.HeavyHitters()
	if len(hh) == 0 {
		return 0
	}
	return hh[0].IP
}

// depAnalysis walks a trace through the dependency analyzer for one
// target branch, memoized in the shared cache: table3 and fig6 analyze
// the same (workload, target) pairs. The analyzer consumes only
// trace-visible operands (its Branch callback is a no-op), so the pass
// is predictor-free. The returned analyzer is shared and read-only.
func depAnalysis(cfg Config, s *workload.Spec, tr trace.Replayable, target uint64) *depgraph.Analyzer {
	key := fmt.Sprintf("depgraph/%s/0/%d/%d/%d/%#x",
		s.Name, cfg.Budget, depgraph.DefaultWindow, 4000, target)
	return cfg.Cache.Memo(key, func() any {
		an := depgraph.New(depgraph.DefaultWindow, 4000, target)
		core.ObserveBlocks(tr.BlockStream(0), an)
		return an
	}).(*depgraph.Analyzer)
}

// Table3 reproduces Table III: for the top H2P heavy hitter of each
// SPECint-like benchmark, the number of distinct dependency branches and
// the minimum/maximum global-history positions at which they appear.
func Table3(ctx context.Context, cfg Config) (*report.Artifact, error) {
	a := &report.Artifact{ID: "table3", Title: "Dependency branches of top H2P heavy hitters (5000-instruction window)"}
	tab := report.NewTable("", "benchmark", "target", "dep branches", "min pos", "max pos", "positions/dep")
	// One work unit per benchmark: screen for the top H2P, then walk the
	// same trace through the dependency analyzer.
	rows, err := perTrace(ctx, cfg, workload.SPECint2017Like(),
		func(s *workload.Spec, tr trace.Replayable) []string {
			target := topHeavyHitter(cfg, s, tr)
			if target == 0 {
				return []string{s.Name, "-", "0", "-", "-", "-"}
			}
			an := depAnalysis(cfg, s, tr, target)
			sum := an.Summarize(target)
			return []string{s.Name, fmt.Sprintf("%#x", target), d(sum.DepBranches),
				d(sum.MinPos), d(sum.MaxPos), f2(sum.PositionsPerDep)}
		})
	if err != nil {
		return nil, err
	}
	for _, row := range rows {
		tab.AddRow(row...)
	}
	a.Tables = append(a.Tables, tab)
	a.Notes = append(a.Notes,
		"paper: dependency counts 3-484; max positions 34-1,879 — within TAGE-SC-L 64KB's 3,000-bit history, yet poorly predicted")
	return a, nil
}

// Fig6 reproduces Fig 6: the distribution of history positions at which
// each dependency branch of a top H2P appears. High spread per dependency
// branch is the paper's explanation for why exact pattern matching fails.
func Fig6(ctx context.Context, cfg Config) (*report.Artifact, error) {
	a := &report.Artifact{ID: "fig6", Title: "History-position distributions of dependency branches"}
	// One work unit per benchmark producing its whole table (nil when the
	// benchmark has no H2P to analyze).
	tables, err := perTrace(ctx, cfg, workload.SPECint2017Like()[:4],
		func(s *workload.Spec, tr trace.Replayable) *report.Table { return fig6Table(cfg, s, tr) })
	if err != nil {
		return nil, err
	}
	for _, tab := range tables {
		if tab != nil {
			a.Tables = append(a.Tables, tab)
		}
	}
	a.Notes = append(a.Notes,
		"each dependency branch appears at many positions with non-uniform recurrence — position-specific correlation cannot pin it down")
	return a, nil
}

// fig6Table builds one benchmark's dependency-position table.
func fig6Table(cfg Config, s *workload.Spec, tr trace.Replayable) *report.Table {
	target := topHeavyHitter(cfg, s, tr)
	if target == 0 {
		return nil
	}
	an := depAnalysis(cfg, s, tr, target)
	positions := an.Positions(target)
	// Group by dependency branch.
	type depStats struct {
		ip        uint64
		total     uint64
		positions []int
	}
	byDep := map[uint64]*depStats{}
	for _, p := range positions {
		ds := byDep[p.DepIP]
		if ds == nil {
			ds = &depStats{ip: p.DepIP}
			byDep[p.DepIP] = ds
		}
		ds.total += p.Count
		ds.positions = append(ds.positions, p.Pos)
	}
	deps := make([]*depStats, 0, len(byDep))
	for _, ds := range byDep {
		deps = append(deps, ds)
	}
	// Occurrence order with an IP tie-break: the map above feeds the sort
	// in randomized order, so without the tie-break equal-count deps
	// would land in different rows run to run.
	sort.Slice(deps, func(i, j int) bool {
		if deps[i].total != deps[j].total {
			return deps[i].total > deps[j].total
		}
		return deps[i].ip < deps[j].ip
	})
	tab := report.NewTable(fmt.Sprintf("%s target %#x", s.Name, target),
		"dep branch", "occurrences", "distinct positions", "min", "max")
	for i, ds := range deps {
		if i >= 8 {
			break
		}
		minP, maxP := ds.positions[0], ds.positions[0]
		for _, p := range ds.positions {
			if p < minP {
				minP = p
			}
			if p > maxP {
				maxP = p
			}
		}
		tab.AddRow(fmt.Sprintf("%#x", ds.ip), u(ds.total), d(len(ds.positions)), d(minP), d(maxP))
	}
	return tab
}

// Fig9 reproduces Fig 9: the distribution of per-branch median recurrence
// intervals over the LCF dataset, whose mass at 100K-1M instructions is
// the paper's evidence for exploitable long-timescale phases.
func Fig9(ctx context.Context, cfg Config) (*report.Artifact, error) {
	a := &report.Artifact{ID: "fig9", Title: "Median recurrence interval (MRI) distribution, LCF"}
	// One tracker per workload. Sharing a single tracker across the suite
	// (as this driver originally did) is wrong as well as unparallelizable:
	// every run restarts the instruction index at 0 while all workloads
	// share the 0x400000 IP space, so a branch IP carried over from the
	// previous workload makes `i - last` underflow and its median land in
	// the overflow bin. Per-workload trackers keep each (workload, IP)
	// distribution separate; the merge bins every median into one
	// suite-wide histogram.
	trackers, err := perTrace(ctx, cfg, workload.LCFLike(),
		func(_ *workload.Spec, tr trace.Replayable) *phase.RecurrenceTracker {
			tracker := phase.NewRecurrenceTracker()
			core.ObserveBlocks(tr.BlockStream(0), tracker)
			return tracker
		})
	if err != nil {
		return nil, err
	}
	h := stats.NewHistogram(phase.MRIBins...)
	for _, tracker := range trackers {
		for _, m := range tracker.MedianIntervals() {
			h.Add(m)
		}
	}
	tab := report.NewTable("", "MRI bin", "fraction of static branch IPs")
	fr := h.Fraction()
	peak, peakIdx := 0.0, 0
	for i := range h.Counts {
		tab.AddRow(h.BinLabel(i), f4(fr[i]))
		// The paper's peak claim excludes the singleton bin.
		if i > 0 && fr[i] > peak {
			peak, peakIdx = fr[i], i
		}
	}
	a.Tables = append(a.Tables, tab)
	a.Notes = append(a.Notes, fmt.Sprintf(
		"non-singleton peak at bin %s (paper: 100K-1M at its 30M budget; bins scale with trace length)",
		h.BinLabel(peakIdx)))
	return a, nil
}

// Fig10 reproduces Fig 10: the distribution of values written to the
// tracked registers immediately before executions of the top H2P of each
// benchmark — branch-specific, structured distributions that motivate
// value-aware helper predictors.
func Fig10(ctx context.Context, cfg Config) (*report.Artifact, error) {
	a := &report.Artifact{ID: "fig10", Title: "Register values preceding top H2P executions (18 tracked registers)"}
	// One work unit per benchmark producing its whole table.
	tables, err := perTrace(ctx, cfg, workload.SPECint2017Like()[:6],
		func(s *workload.Spec, tr trace.Replayable) *report.Table { return fig10Table(cfg, s, tr) })
	if err != nil {
		return nil, err
	}
	for _, tab := range tables {
		if tab != nil {
			a.Tables = append(a.Tables, tab)
		}
	}
	a.Notes = append(a.Notes,
		"distributions differ drastically across branches and carry recognizable structure (clustered values), as in the paper")
	return a, nil
}

// fig10Table builds one benchmark's register-value table.
func fig10Table(cfg Config, s *workload.Spec, tr trace.Replayable) *report.Table {
	target := topHeavyHitter(cfg, s, tr)
	if target == 0 {
		return nil
	}
	tracker := core.NewRegValueTracker(target, 8, 18)
	core.ObserveBlocks(tr.BlockStream(0), tracker)
	pts := tracker.Points()
	tab := report.NewTable(fmt.Sprintf("%s target %#x (%d executions)", s.Name, target, tracker.Execs()),
		"register", "distinct values", "top value", "top count")
	byReg := map[uint8][]core.RegValue{}
	for _, p := range pts {
		byReg[p.Reg] = append(byReg[p.Reg], p)
	}
	regs := make([]int, 0, len(byReg))
	for r := range byReg {
		regs = append(regs, int(r))
	}
	sort.Ints(regs)
	for _, r := range regs {
		vals := byReg[uint8(r)]
		top := vals[0]
		for _, v := range vals {
			if v.Count > top.Count {
				top = v
			}
		}
		tab.AddRow(fmt.Sprintf("r%d", r), d(len(vals)),
			fmt.Sprintf("%d", top.Value), u(top.Count))
	}
	return tab
}
