package experiments

import (
	"context"
	"fmt"

	"branchlab/internal/engine"
	"branchlab/internal/report"
	"branchlab/internal/trace"
	"branchlab/internal/workload"
)

// Fig1 reproduces Fig 1: suite-geomean IPC relative to the baseline
// (TAGE-SC-L 8KB at 1x) as pipeline capacity scales, for four prediction
// regimes: TAGE-SC-L 8KB, TAGE-SC-L 64KB, perfect prediction of the H2P
// set, and perfect prediction of everything.
func Fig1(ctx context.Context, cfg Config) (*report.Artifact, error) {
	return ipcScalingFigure(ctx, "fig1",
		"IPC vs pipeline capacity scaling (SPECint-like, relative to TAGE-SC-L 8KB at 1x)",
		workload.SPECint2017Like(), cfg)
}

// Fig5 reproduces Fig 5: the same study on the LCF suite, where perfect
// H2P prediction captures a much smaller share of the opportunity.
func Fig5(ctx context.Context, cfg Config) (*report.Artifact, error) {
	return ipcScalingFigure(ctx, "fig5",
		"IPC vs pipeline capacity scaling (LCF, relative to TAGE-SC-L 8KB at 1x)",
		workload.LCFLike(), cfg)
}

// screenedTrace is a workload's input-0 trace with its H2P set.
type screenedTrace struct {
	tr   trace.Replayable
	h2ps map[uint64]bool
}

func ipcScalingFigure(ctx context.Context, id, title string, specs []*workload.Spec, cfg Config) (*report.Artifact, error) {
	// Record each workload and screen its H2P set under the baseline
	// predictor (memoized: table drivers screen the same traces).
	traces, err := perTrace(ctx, cfg, specs, func(s *workload.Spec, tr trace.Replayable) screenedTrace {
		rep, _ := screenBranches(cfg, s, 0, tr)
		return screenedTrace{tr, rep.Set()}
	})
	if err != nil {
		return nil, err
	}

	regimes := []struct {
		name string
		reg  func(st screenedTrace) regime
	}{
		{"TAGE-SC-L 8KB", func(screenedTrace) regime { return tageRegime(8) }},
		{"TAGE-SC-L 64KB", func(screenedTrace) regime { return tageRegime(64) }},
		// The H2P set depends on the screening slice length, so it is
		// part of the regime signature.
		{"Perfect H2Ps", func(st screenedTrace) regime {
			return regime{sig: fmt.Sprintf("perfh2p/slice=%d", cfg.SliceLen), kb: 8, perfectIPs: st.h2ps}
		}},
		{"Perfect BP", func(screenedTrace) regime { return perfectRegime }},
	}

	// One work unit per (regime, scale, workload) cell; cell index order
	// matches the sequential triple loop so the geomean folds see
	// workloads in suite order.
	nS, nW := len(cfg.PipeScales), len(specs)
	cells, err := engine.MapErr(ctx, cfg.Pool(), len(regimes)*nS*nW, func(_ context.Context, i int) (float64, error) {
		ri, si, wi := i/(nS*nW), (i/nW)%nS, i%nW
		st := traces[wi]
		return ipcCell(cfg, specs[wi], st.tr, cfg.PipeScales[si], regimes[ri].reg(st)).IPC, nil
	})
	if err != nil {
		return nil, err
	}

	// ipc[regime][scale] = geomean IPC.
	ipc := make([][]float64, len(regimes))
	for ri := range regimes {
		ipc[ri] = make([]float64, nS)
		for si := range cfg.PipeScales {
			base := (ri*nS + si) * nW
			ipc[ri][si] = geomean(cells[base : base+nW])
		}
	}
	base := ipc[0][0] // TAGE-SC-L 8KB at 1x

	a := &report.Artifact{ID: id, Title: title}
	tab := report.NewTable("Relative IPC (geomean over suite)",
		append([]string{"regime"}, scaleHeaders(cfg.PipeScales)...)...)
	chart := report.NewChart(title)
	for ri, reg := range regimes {
		row := []string{reg.name}
		xs := make([]float64, len(cfg.PipeScales))
		ys := make([]float64, len(cfg.PipeScales))
		for si := range cfg.PipeScales {
			rel := ipc[ri][si] / base
			row = append(row, f3(rel))
			xs[si] = float64(cfg.PipeScales[si])
			ys[si] = rel
		}
		tab.AddRow(row...)
		chart.Add(reg.name, xs, ys)
	}
	a.Tables = append(a.Tables, tab)
	a.Charts = append(a.Charts, chart)

	// The paper's headline numbers: opportunity at 1x and at 4x, and the
	// share of the opportunity attributable to H2Ps.
	for _, si := range []int{0, indexOf(cfg.PipeScales, 4)} {
		if si < 0 {
			continue
		}
		opp := ipc[3][si]/ipc[0][si] - 1
		h2pShare := 0.0
		if ipc[3][si] > ipc[0][si] {
			h2pShare = (ipc[2][si] - ipc[0][si]) / (ipc[3][si] - ipc[0][si])
		}
		a.Notes = append(a.Notes, fmt.Sprintf(
			"at %dx: perfect-BP IPC opportunity %s; perfect-H2P captures %s of it",
			cfg.PipeScales[si], pct(opp), pct(h2pShare)))
	}
	extra := ipc[1][0]/ipc[0][0] - 1
	a.Notes = append(a.Notes, fmt.Sprintf(
		"TAGE-SC-L 64KB over 8KB at 1x: %s additional IPC", pct(extra)))
	return a, nil
}

// Fig7 reproduces Fig 7: for each LCF application, the fraction of the
// TAGE-8KB-to-perfect IPC gap closed by TAGE-SC-L at 8KB..1024KB, across
// pipeline scales.
func Fig7(ctx context.Context, cfg Config) (*report.Artifact, error) {
	specs := workload.LCFLike()
	traces, err := perTrace(ctx, cfg, specs, func(_ *workload.Spec, tr trace.Replayable) trace.Replayable { return tr })
	if err != nil {
		return nil, err
	}
	a := &report.Artifact{ID: "fig7",
		Title: "Fraction of TAGE8->perfect IPC gap closed vs TAGE-SC-L storage"}

	// One work unit per (scale, workload) cell; each sweeps the storage
	// budgets against its own base/perfect gap. Cells are memoized, so
	// the TAGE-8KB/64KB and perfect runs shared with fig5 time once.
	nW := len(specs)
	rows, err := engine.MapErr(ctx, cfg.Pool(), len(cfg.PipeScales)*nW, func(_ context.Context, i int) ([]float64, error) {
		scale, s, tr := cfg.PipeScales[i/nW], specs[i%nW], traces[i%nW]
		base := ipcCell(cfg, s, tr, scale, tageRegime(8))
		perfect := ipcCell(cfg, s, tr, scale, perfectRegime)
		gap := perfect.IPC - base.IPC
		fracs := make([]float64, len(cfg.StorageKB))
		for ki, kb := range cfg.StorageKB {
			if kb == 8 || gap <= 0 {
				continue
			}
			res := ipcCell(cfg, s, tr, scale, tageRegime(kb))
			fracs[ki] = (res.IPC - base.IPC) / gap
		}
		return fracs, nil
	})
	if err != nil {
		return nil, err
	}

	for si, scale := range cfg.PipeScales {
		tab := report.NewTable(fmt.Sprintf("pipeline %dx", scale),
			append([]string{"application"}, kbHeaders(cfg.StorageKB)...)...)
		var maxClose float64
		for wi, s := range specs {
			row := []string{s.Name}
			for _, frac := range rows[si*nW+wi] {
				if frac > maxClose {
					maxClose = frac
				}
				row = append(row, f3(frac))
			}
			tab.AddRow(row...)
		}
		a.Tables = append(a.Tables, tab)
		a.Notes = append(a.Notes, fmt.Sprintf(
			"at %dx the best storage scaling closes %s of the gap", scale, pct(maxClose)))
	}
	return a, nil
}

// Fig8 reproduces Fig 8: with the largest (1024KB) TAGE-SC-L, the
// fraction of the remaining IPC opportunity that survives even after
// perfectly predicting every branch with more than 1000 (and 100)
// dynamic executions — i.e. the share owed to rare branches.
func Fig8(ctx context.Context, cfg Config) (*report.Artifact, error) {
	specs := workload.LCFLike()
	kb := cfg.StorageKB[len(cfg.StorageKB)-1]
	a := &report.Artifact{ID: "fig8",
		Title: fmt.Sprintf("IPC opportunity remaining after perfecting frequent branches (TAGE-SC-L %dKB, 1x)", kb)}
	tab := report.NewTable("fraction of opportunity remaining",
		"application", "perfect >1000 execs", "perfect >100 execs")

	// One work unit per workload, each timing its four pipeline runs;
	// the base and perfect cells are memo hits when fig7 ran first.
	type fig8Row struct{ r1000, r100 float64 }
	results, err := perTrace(ctx, cfg, specs, func(s *workload.Spec, tr trace.Replayable) fig8Row {
		base := ipcCell(cfg, s, tr, 1, tageRegime(kb))
		perfect := ipcCell(cfg, s, tr, 1, perfectRegime)
		gap := perfect.IPC - base.IPC
		rem := func(minExecs uint64) float64 {
			if gap <= 0 {
				return 0
			}
			res := ipcCell(cfg, s, tr, 1, regime{
				sig: fmt.Sprintf("minexec=%d/tage-%dkb", minExecs, kb), kb: kb, minExecs: minExecs})
			return (perfect.IPC - res.IPC) / gap
		}
		// The thresholds are defined against the paper's 30M-instruction
		// slices; scale them with the budget.
		scaleN := func(n uint64) uint64 {
			v := uint64(float64(n) * float64(cfg.Budget) / 30e6)
			if v < 8 {
				v = 8
			}
			return v
		}
		return fig8Row{r1000: rem(scaleN(1000)), r100: rem(scaleN(100))}
	})
	if err != nil {
		return nil, err
	}

	var sum1000, sum100 float64
	for i, s := range specs {
		sum1000 += results[i].r1000
		sum100 += results[i].r100
		tab.AddRow(s.Name, f3(results[i].r1000), f3(results[i].r100))
	}
	tab.AddRow("MEAN", f3(sum1000/float64(len(specs))), f3(sum100/float64(len(specs))))
	a.Tables = append(a.Tables, tab)
	a.Notes = append(a.Notes,
		"paper: on average 34.3% of the opportunity is due to branches with <1000 execs, 27.4% to <100")
	return a, nil
}

func scaleHeaders(scales []int) []string {
	out := make([]string, len(scales))
	for i, s := range scales {
		out[i] = fmt.Sprintf("%dx", s)
	}
	return out
}

func kbHeaders(kbs []int) []string {
	out := make([]string, len(kbs))
	for i, kb := range kbs {
		out[i] = fmt.Sprintf("%dKB", kb)
	}
	return out
}

func indexOf(xs []int, v int) int {
	for i, x := range xs {
		if x == v {
			return i
		}
	}
	return -1
}
