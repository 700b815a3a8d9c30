package experiments

import (
	"context"
	"fmt"

	"branchlab/internal/core"
	"branchlab/internal/engine"
	"branchlab/internal/report"
	"branchlab/internal/simpoint"
	"branchlab/internal/stats"
	"branchlab/internal/trace"
	"branchlab/internal/workload"
)

// Table1 reproduces Table I: per-benchmark phase counts, static branch
// footprint, TAGE-SC-L 8KB accuracy (overall and excluding H2Ps), H2P
// populations and their appearance across application inputs, and the
// share of mispredictions concentrated in H2Ps.
func Table1(ctx context.Context, cfg Config) (*report.Artifact, error) {
	a := &report.Artifact{ID: "table1", Title: "SPECint-like suite summary (TAGE-SC-L 8KB)"}
	tab := report.NewTable("",
		"benchmark", "phases", "static", "med/slice", "acc", "acc-xH2P",
		"inputs", "H2P tot", "H2P 3+in", "avg/input", "avg/slice", "execs/H2P/slice", "%mispred H2P")

	var sumPhases, sumAcc, sumAccX, sumPerSlice, sumShare, sumExecs float64
	specs := workload.SPECint2017Like()
	inputsOf := func(s *workload.Spec) int {
		if s.NumInputs > cfg.MaxInputs {
			return cfg.MaxInputs
		}
		return s.NumInputs
	}

	// One work unit per (benchmark, input) pair: record, predict, screen
	// and count phases. Units are keyed so the merge below reassembles
	// per-benchmark slices in input order. The screening run is memoized
	// and shared with the other SPECint drivers; the basic-block vectors
	// ignore predictions entirely (BBVCollector.Branch is a no-op), so
	// phase counting rides one cheap predictor-free pass over the trace
	// on the cell's own worker.
	type t1Key struct{ bench, input int }
	var keys []t1Key
	for bi, s := range specs {
		for in := 0; in < inputsOf(s); in++ {
			keys = append(keys, t1Key{bi, in})
		}
	}
	type t1Cell struct {
		rep    *core.H2PReport
		col    *core.Collector
		phases int
	}
	cells, err := engine.MapSliceErr(ctx, cfg.Pool(), keys, func(ctx context.Context, k t1Key, _ int) (t1Cell, error) {
		tr, err := cfg.RecordTrace(ctx, specs[k.bench], k.input)
		if err != nil {
			return t1Cell{}, err
		}
		rep, col := screenBranches(cfg, specs[k.bench], k.input, tr)
		bbv := simpoint.NewBBVCollector(cfg.SliceLen, simpoint.DefaultDim)
		core.ObserveBlocks(tr.BlockStream(0), bbv)
		c := t1Cell{
			rep:    rep,
			phases: simpoint.ChooseK(bbv.Vectors(), 20, 1).K,
		}
		// Only input 0's collector feeds the per-slice columns.
		if k.input == 0 {
			c.col = col
		}
		return c, nil
	})
	if err != nil {
		return nil, err
	}

	perBench := make([][]t1Cell, len(specs))
	for i, k := range keys {
		perBench[k.bench] = append(perBench[k.bench], cells[i])
	}

	for bi, s := range specs {
		inputs := inputsOf(s)
		var reports []*core.H2PReport
		phases := 0
		for _, c := range perBench[bi] {
			reports = append(reports, c.rep)
			phases += c.phases
		}
		agg := core.Aggregate(reports)

		// Input-0 metrics for the per-slice columns.
		col0, rep0 := perBench[bi][0].col, reports[0]
		set0 := rep0.Set()
		acc := col0.Accuracy()
		accX := col0.AccuracyExcluding(set0)
		avgPhases := float64(phases) / float64(inputs)

		tab.AddRow(s.Name,
			f2(avgPhases),
			d(col0.StaticBranches()),
			d(col0.MedianStaticPerSlice()),
			f3(acc), f3(accX),
			d(inputs),
			d(agg.Total()),
			d(agg.AppearingIn(3)),
			f2(agg.AvgPerInput()),
			f2(rep0.AvgPerSlice()),
			f2(rep0.AvgExecsPerH2PPerSlice()),
			pct(rep0.MispredShare()))
		sumPhases += avgPhases
		sumAcc += acc
		sumAccX += accX
		sumPerSlice += rep0.AvgPerSlice()
		sumShare += rep0.MispredShare()
		sumExecs += rep0.AvgExecsPerH2PPerSlice()
	}
	n := float64(len(specs))
	tab.AddRow("MEAN", f2(sumPhases/n), "", "", f3(sumAcc/n), f3(sumAccX/n), "", "", "", "",
		f2(sumPerSlice/n), f2(sumExecs/n), pct(sumShare/n))
	a.Tables = append(a.Tables, tab)
	a.Notes = append(a.Notes,
		"paper means: 9.5 phases, acc 0.952, acc-xH2P 0.984, 10 H2Ps/slice causing 55.3% of mispredictions")
	return a, nil
}

// Fig2 reproduces Fig 2: the cumulative fraction of each benchmark's
// mispredictions covered by its H2Ps ranked by dynamic execution count.
func Fig2(ctx context.Context, cfg Config) (*report.Artifact, error) {
	a := &report.Artifact{ID: "fig2", Title: "Cumulative misprediction fraction of ranked H2P heavy hitters"}
	chart := report.NewChart("cumulative fraction vs n-th heavy hitter")
	tab := report.NewTable("", "benchmark", "H2Ps", "top1", "top5", "top10", "all")
	var top5sum float64
	var nBench int
	specs := workload.SPECint2017Like()
	// One work unit per benchmark: record, screen, rank heavy hitters.
	hitters, err := perTrace(ctx, cfg, specs, func(s *workload.Spec, tr trace.Replayable) []core.HeavyHitter {
		rep, _ := screenBranches(cfg, s, 0, tr)
		return rep.HeavyHitters()
	})
	if err != nil {
		return nil, err
	}
	for i, s := range specs {
		hh := hitters[i]
		if len(hh) == 0 {
			tab.AddRow(s.Name, "0", "-", "-", "-", "-")
			continue
		}
		at := func(n int) float64 {
			if n > len(hh) {
				n = len(hh)
			}
			return hh[n-1].CumMispredFrac
		}
		tab.AddRow(s.Name, d(len(hh)), f3(at(1)), f3(at(5)), f3(at(10)), f3(at(len(hh))))
		top5sum += at(5)
		nBench++
		xs := make([]float64, 0, 50)
		ys := make([]float64, 0, 50)
		for i := 0; i < len(hh) && i < 50; i++ {
			xs = append(xs, float64(i+1))
			ys = append(ys, hh[i].CumMispredFrac)
		}
		chart.Add(s.Name, xs, ys)
	}
	a.Tables = append(a.Tables, tab)
	a.Charts = append(a.Charts, chart)
	if nBench > 0 {
		a.Notes = append(a.Notes, fmt.Sprintf(
			"top-5 heavy hitters cover %s of mispredictions on average (paper: 37%%)",
			pct(top5sum/float64(nBench))))
	}
	return a, nil
}

// Table2 reproduces Table II: LCF static branch IPs, average dynamic
// executions per static branch, average per-branch accuracy, and H2P
// counts under TAGE-SC-L 8KB.
func Table2(ctx context.Context, cfg Config) (*report.Artifact, error) {
	a := &report.Artifact{ID: "table2", Title: "LCF summary branch statistics (TAGE-SC-L 8KB)"}
	tab := report.NewTable("", "application", "static IPs", "execs/branch", "acc/branch", "H2Ps")
	var sumStatic, sumExecs, sumAcc, sumH2P float64
	specs := workload.LCFLike()
	// One work unit per application; the per-branch accuracy fold walks
	// IP-sorted totals so the float sum is deterministic.
	type t2Row struct {
		n        int
		execsPer float64
		accPer   float64
		h2ps     float64
	}
	rows, err := perTrace(ctx, cfg, specs, func(s *workload.Spec, tr trace.Replayable) t2Row {
		rep, col := screenBranches(cfg, s, 0, tr)
		totals := sortedTotals(col)
		var execs uint64
		var accSum float64
		for _, b := range totals {
			execs += b.Execs
			accSum += b.Accuracy()
		}
		n := len(totals)
		return t2Row{
			n:        n,
			execsPer: float64(execs) / float64(n),
			accPer:   accSum / float64(n),
			h2ps:     rep.AvgPerSlice(),
		}
	})
	if err != nil {
		return nil, err
	}
	for i, s := range specs {
		r := rows[i]
		tab.AddRow(s.Name, d(r.n), f2(r.execsPer), f3(r.accPer), f2(r.h2ps))
		sumStatic += float64(r.n)
		sumExecs += r.execsPer
		sumAcc += r.accPer
		sumH2P += r.h2ps
	}
	k := float64(len(specs))
	tab.AddRow("MEAN", f2(sumStatic/k), f2(sumExecs/k), f3(sumAcc/k), f2(sumH2P/k))
	a.Tables = append(a.Tables, tab)
	a.Notes = append(a.Notes,
		"paper means (per 30M-instruction trace): 14,072 static IPs, 612.8 execs/branch, 0.85 accuracy, 5.2 H2Ps; static counts here scale with the configured budget")
	return a, nil
}

// Fig3 reproduces Fig 3: the LCF-wide distributions of per-branch dynamic
// mispredictions, dynamic executions, and prediction accuracy.
func Fig3(ctx context.Context, cfg Config) (*report.Artifact, error) {
	a := &report.Artifact{ID: "fig3", Title: "LCF per-branch distributions (TAGE-SC-L 8KB)"}
	mispredH := stats.NewHistogram(0, 1, 10, 50, 100, 500, 1000, 5000)
	execH := stats.NewHistogram(0, 100, 1000, 10000, 100000, 1000000)
	accH := stats.NewHistogram(0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.99, 1.0000001)
	// One work unit per application returning its per-branch totals; the
	// shared histograms are filled during the in-order merge.
	all, err := lcfTotals(ctx, cfg)
	if err != nil {
		return nil, err
	}
	for _, totals := range all {
		for _, b := range totals {
			mispredH.Add(float64(b.Mispreds))
			execH.Add(float64(b.Execs))
			accH.Add(b.Accuracy())
		}
	}
	for _, h := range []struct {
		name string
		h    *stats.Histogram
	}{{"dynamic mispredictions", mispredH}, {"dynamic executions", execH}, {"prediction accuracy", accH}} {
		tab := report.NewTable(h.name, "bin", "fraction of static branch IPs")
		fr := h.h.Fraction()
		for i := range h.h.Counts {
			tab.AddRow(h.h.BinLabel(i), f4(fr[i]))
		}
		if h.h.Over > 0 {
			tab.AddRow("overflow", f4(float64(h.h.Over)/float64(h.h.Total)))
		}
		a.Tables = append(a.Tables, tab)
	}
	// Headline checks from the paper text.
	under100 := float64(execH.Counts[0]) / float64(execH.Total)
	highAcc := float64(accH.Counts[len(accH.Counts)-1]) / float64(accH.Total)
	lowAcc := float64(accH.Counts[0]+accH.Under) / float64(accH.Total)
	a.Notes = append(a.Notes,
		fmt.Sprintf("branches with <100 execs: %s (paper: 85%% at 30M budget)", pct(under100)),
		fmt.Sprintf("branches with accuracy >= 0.99: %s (paper: 55%%)", pct(highAcc)),
		fmt.Sprintf("branches with accuracy <= 0.10: %s (paper: 12%%)", pct(lowAcc)))
	return a, nil
}

// lcfTotals is each LCF application's screening totals in IP order
// (sortedTotals), one work unit per application.
func lcfTotals(ctx context.Context, cfg Config) ([][]branchTotal, error) {
	return perTrace(ctx, cfg, workload.LCFLike(), func(s *workload.Spec, tr trace.Replayable) []branchTotal {
		_, col := screenBranches(cfg, s, 0, tr)
		return sortedTotals(col)
	})
}

// Fig4 reproduces Fig 4: rare branches have a wide accuracy spread. (a)
// is the accuracy-vs-executions scatter (summarized here by bin); (b) is
// the standard deviation of accuracy in 100-execution bins.
func Fig4(ctx context.Context, cfg Config) (*report.Artifact, error) {
	a := &report.Artifact{ID: "fig4", Title: "Accuracy spread vs dynamic execution count (LCF)"}
	bs := stats.NewBinnedStdDev(100)
	// Per-application work units; the merge feeds the binned accumulator
	// in application order over IP-sorted branches, making the per-bin
	// float folds deterministic.
	all, err := lcfTotals(ctx, cfg)
	if err != nil {
		return nil, err
	}
	for _, totals := range all {
		for _, b := range totals {
			bs.Add(float64(b.Execs), b.Accuracy())
		}
	}
	tab := report.NewTable("accuracy stddev per 100-execution bin",
		"execs bin", "branches", "mean acc", "stddev acc")
	bins := bs.Bins()
	limit := 15
	var first stats.Bin
	for i, b := range bins {
		if i == 0 {
			first = b
		}
		if i < limit {
			tab.AddRow(fmt.Sprintf("%.0f-%.0f", b.Lo, b.Hi), d(b.N), f3(b.Mean), f3(b.StdDev))
		}
	}
	a.Tables = append(a.Tables, tab)
	if len(bins) > 1 {
		a.Notes = append(a.Notes, fmt.Sprintf(
			"first bin stddev %s vs next bin %s (paper: 0.35 dropping to 0.08)",
			f3(first.StdDev), f3(bins[1].StdDev)))
	}
	chart := report.NewChart("stddev of accuracy vs execution-count bin")
	xs, ys := make([]float64, 0, len(bins)), make([]float64, 0, len(bins))
	for i, b := range bins {
		if i >= 40 {
			break
		}
		xs = append(xs, b.Lo)
		ys = append(ys, b.StdDev)
	}
	chart.Add("stddev", xs, ys)
	a.Charts = append(a.Charts, chart)
	return a, nil
}
