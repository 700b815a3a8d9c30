package experiments

import (
	"context"
	"fmt"

	"branchlab/internal/bp"
	"branchlab/internal/core"
	"branchlab/internal/phase"
	"branchlab/internal/report"
	"branchlab/internal/trace"
	"branchlab/internal/workload"
)

// PhaseCond prototypes the paper's §V-B proposal: condition branch
// statistics on on-chip phase recognition so that rare branches whose
// behaviour is stable within a phase but shifts across phases keep
// usable statistics. It compares a flat bimodal table against the same
// table replicated per detected phase, on the LCF suite where rare
// branches dominate, and reports the accuracy specifically over
// low-execution-count branches.
func PhaseCond(ctx context.Context, cfg Config) (*report.Artifact, error) {
	a := &report.Artifact{ID: "phasecond",
		Title: "Extension (§V-B): phase-conditioned statistics for rare branches"}
	tab := report.NewTable("", "application",
		"flat acc", "conditioned acc", "flat rare-acc", "conditioned rare-acc", "phases")

	// "Cold" here means the sub-1000-execs-per-30M population of Fig 8,
	// scaled to the configured budget; these branches are too rare for
	// global history yet frequent enough that per-phase counters train.
	rareThreshold := uint64(float64(10000) * float64(cfg.Budget) / 30e6)
	if rareThreshold < 32 {
		rareThreshold = 32
	}

	var flatRareSum, condRareSum float64
	n := 0
	// One work unit per application: both the flat and conditioned runs.
	type pcRow struct {
		flatAcc, condAcc float64
		flatRare         float64
		condRare         float64
		phases           int
	}
	rows, err := perTrace(ctx, cfg, workload.LCFLike(),
		func(_ *workload.Spec, tr trace.Replayable) pcRow {
			flatCol := core.NewCollector(cfg.SliceLen)
			core.RunBlocks(tr.BlockStream(0), bp.NewBimodal(14), flatCol)

			cond := phase.NewConditionedPredictor(1024, 16,
				func() bp.Predictor { return bp.NewBimodal(14) })
			condCol := core.NewCollector(cfg.SliceLen)
			core.RunBlocks(tr.BlockStream(0), cond, condCol)

			rareAcc := func(col *core.Collector) float64 {
				var execs, miss uint64
				for _, b := range col.Totals() {
					if b.Execs <= rareThreshold {
						execs += b.Execs
						miss += b.Mispreds
					}
				}
				if execs == 0 {
					return 1
				}
				return 1 - float64(miss)/float64(execs)
			}
			return pcRow{
				flatAcc:  flatCol.Accuracy(),
				condAcc:  condCol.Accuracy(),
				flatRare: rareAcc(flatCol),
				condRare: rareAcc(condCol),
				phases:   cond.NumPhases(),
			}
		})
	if err != nil {
		return nil, err
	}
	for i, s := range workload.LCFLike() {
		r := rows[i]
		flatRareSum += r.flatRare
		condRareSum += r.condRare
		n++
		tab.AddRow(s.Name, f4(r.flatAcc), f4(r.condAcc),
			f4(r.flatRare), f4(r.condRare), d(r.phases))
	}
	a.Tables = append(a.Tables, tab)
	if n > 0 {
		a.Notes = append(a.Notes, fmt.Sprintf(
			"rare-branch (<=%d execs) accuracy: flat %s vs phase-conditioned %s over %d applications",
			rareThreshold, f4(flatRareSum/float64(n)), f4(condRareSum/float64(n)), n))
	}
	a.Notes = append(a.Notes,
		"this is the paper's proposed direction, not a published figure; bimodal tables isolate the conditioning effect from history-based mechanisms",
		"boundary result: naive whole-predictor conditioning does not pay at this scale — per-phase cold start eats the gains and the signature detector under-segments LCF phases; internal/phase tests show the win when phases are detectable and per-phase visits are short, matching the paper's note that the deployment mechanics are future work")
	return a, nil
}
