package experiments

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"branchlab/internal/report"
	"branchlab/internal/trace"
	"branchlab/internal/workload"
)

// The experiment drivers are integration tests of the whole system: each
// run synthesizes workloads, drives predictors and the pipeline, and must
// reproduce the paper's qualitative shape. Tests use the Quick config.

func quickCfg() Config {
	c := Quick()
	c.Budget = 300_000
	c.SliceLen = 150_000
	return c
}

// mustRun runs a driver under the background context, failing the test
// on a run error.
func mustRun(t testing.TB, run func(context.Context, Config) (*report.Artifact, error), cfg Config) *report.Artifact {
	t.Helper()
	a, err := run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// mustRecord records one workload input's trace through cfg, failing
// the test on a recording error.
func mustRecord(t testing.TB, cfg Config, s *workload.Spec, input int) trace.Replayable {
	t.Helper()
	tr, err := cfg.RecordTrace(context.Background(), s, input)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestRegistryComplete(t *testing.T) {
	ids := map[string]bool{}
	for _, r := range All() {
		if ids[r.ID] {
			t.Errorf("duplicate experiment id %q", r.ID)
		}
		ids[r.ID] = true
		if r.Title == "" || r.Run == nil {
			t.Errorf("experiment %q incomplete", r.ID)
		}
	}
	// Every table and figure of the paper must be covered.
	for _, want := range []string{"fig1", "fig2", "fig3", "fig4", "fig5", "fig6",
		"fig7", "fig8", "fig9", "fig10", "table1", "table2", "table3", "alloc", "cnn", "phasecond"} {
		if !ids[want] {
			t.Errorf("experiment %q missing from registry", want)
		}
	}
	if _, ok := ByID("fig1"); !ok {
		t.Error("ByID(fig1) failed")
	}
	if _, ok := ByID("nope"); ok {
		t.Error("ByID(nope) should fail")
	}
}

func parseRel(t *testing.T, tab string, row string, col int) float64 {
	t.Helper()
	for _, line := range strings.Split(tab, "\n") {
		if strings.HasPrefix(line, row) {
			fields := strings.Fields(strings.TrimPrefix(line, row))
			if col >= len(fields) {
				t.Fatalf("row %q has %d fields", row, len(fields))
			}
			var v float64
			if _, err := sscan(fields[col], &v); err != nil {
				t.Fatalf("parse %q: %v", fields[col], err)
			}
			return v
		}
	}
	t.Fatalf("row %q not found in:\n%s", row, tab)
	return 0
}

func sscan(s string, v *float64) (int, error) {
	return fmtSscan(s, v)
}

func TestFig1Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("integration experiment")
	}
	a := mustRun(t, Fig1, quickCfg())
	if len(a.Tables) == 0 {
		t.Fatal("no tables")
	}
	tab := a.Tables[0].String()
	baseAt1 := parseRel(t, tab, "TAGE-SC-L 8KB", 0)
	perfAt1 := parseRel(t, tab, "Perfect BP", 0)
	h2pAt1 := parseRel(t, tab, "Perfect H2Ps", 0)
	t64At1 := parseRel(t, tab, "TAGE-SC-L 64KB", 0)
	if baseAt1 != 1.0 {
		t.Errorf("baseline not normalized: %v", baseAt1)
	}
	// Ordering: base <= 64KB <= perfect-H2P <= perfect.
	if !(t64At1 >= baseAt1-0.01 && h2pAt1 > t64At1 && perfAt1 > h2pAt1) {
		t.Errorf("regime ordering broken: 8KB=%v 64KB=%v H2P=%v perfect=%v",
			baseAt1, t64At1, h2pAt1, perfAt1)
	}
	// Fig 1's core claim: substantial opportunity, mostly captured by
	// perfecting H2Ps on SPEC-like workloads.
	if perfAt1 < 1.08 {
		t.Errorf("perfect-BP opportunity too small at 1x: %v", perfAt1)
	}
	if (h2pAt1-1)/(perfAt1-1) < 0.4 {
		t.Errorf("H2P share of opportunity too small: %v of %v", h2pAt1-1, perfAt1-1)
	}
	// Scaling grows the opportunity (last scale column).
	lastCol := len(quickCfg().PipeScales) - 1
	baseEnd := parseRel(t, tab, "TAGE-SC-L 8KB", lastCol)
	perfEnd := parseRel(t, tab, "Perfect BP", lastCol)
	if perfEnd/baseEnd <= perfAt1/baseAt1 {
		t.Errorf("relative opportunity should grow with scale: %v -> %v",
			perfAt1/baseAt1, perfEnd/baseEnd)
	}
}

func TestFig5H2PShareSmallerThanSPEC(t *testing.T) {
	if testing.Short() {
		t.Skip("integration experiment")
	}
	cfg := quickCfg()
	spec := mustRun(t, Fig1, cfg)
	lcf := mustRun(t, Fig5, cfg)
	shareOf := func(tabStr string) float64 {
		base := parseRel(t, tabStr, "TAGE-SC-L 8KB", 0)
		h2p := parseRel(t, tabStr, "Perfect H2Ps", 0)
		perf := parseRel(t, tabStr, "Perfect BP", 0)
		return (h2p - base) / (perf - base)
	}
	specShare := shareOf(spec.Tables[0].String())
	lcfShare := shareOf(lcf.Tables[0].String())
	// The paper's Fig 1 vs Fig 5 contrast: H2Ps explain most of the SPEC
	// opportunity but a far smaller share of the LCF opportunity.
	if lcfShare >= specShare {
		t.Errorf("LCF H2P share (%v) should be below SPEC share (%v)", lcfShare, specShare)
	}
	if lcfShare > 0.6 {
		t.Errorf("LCF H2P share %v too high (paper: ~0.38)", lcfShare)
	}
}

func TestTable2Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("integration experiment")
	}
	a := mustRun(t, Table2, quickCfg())
	s := a.Tables[0].String()
	if !strings.Contains(s, "game") || !strings.Contains(s, "MEAN") {
		t.Fatalf("table2 missing rows:\n%s", s)
	}
	// Spot-check the suite contrast: game has the largest footprint and
	// the lowest accuracy of the suite.
	gameAcc := parseRel(t, s, "game", 2)
	nosqlAcc := parseRel(t, s, "nosql", 2)
	if gameAcc >= nosqlAcc {
		t.Errorf("game acc (%v) should be lowest; nosql %v", gameAcc, nosqlAcc)
	}
}

func TestFig3Distributions(t *testing.T) {
	if testing.Short() {
		t.Skip("integration experiment")
	}
	a := mustRun(t, Fig3, quickCfg())
	if len(a.Tables) != 3 {
		t.Fatalf("fig3 should render 3 distributions, got %d", len(a.Tables))
	}
	// The headline properties are asserted via the notes content.
	joined := strings.Join(a.Notes, "\n")
	if !strings.Contains(joined, "branches with <100 execs") {
		t.Errorf("missing notes: %s", joined)
	}
}

func TestFig4SpreadShrinksWithExecs(t *testing.T) {
	if testing.Short() {
		t.Skip("integration experiment")
	}
	a := mustRun(t, Fig4, quickCfg())
	if len(a.Notes) == 0 {
		t.Fatal("fig4 missing note")
	}
	// Parse "first bin stddev X vs next bin Y".
	var first, next float64
	if _, err := fmtSscanf(a.Notes[0], "first bin stddev %f vs next bin %f", &first, &next); err != nil {
		t.Fatalf("parse note %q: %v", a.Notes[0], err)
	}
	if first <= next {
		t.Errorf("accuracy spread should shrink with executions: %v -> %v", first, next)
	}
	if first < 0.15 {
		t.Errorf("first-bin spread %v too small (paper: 0.35)", first)
	}
}

func TestTable3AndFig6DependencyVariation(t *testing.T) {
	if testing.Short() {
		t.Skip("integration experiment")
	}
	cfg := quickCfg()
	a := mustRun(t, Table3, cfg)
	s := a.Tables[0].String()
	mcfFound := false
	for _, line := range strings.Split(s, "\n") {
		if strings.HasPrefix(line, "605.mcf_s") && !strings.Contains(line, "-") {
			mcfFound = true
			fields := strings.Fields(line)
			// benchmark target deps min max pos/dep
			var deps, minPos, maxPos float64
			fmtSscan(fields[2], &deps)
			fmtSscan(fields[3], &minPos)
			fmtSscan(fields[4], &maxPos)
			if deps < 1 {
				t.Error("mcf top H2P has no dependency branches")
			}
			if maxPos <= minPos {
				t.Errorf("no position variation: min %v max %v", minPos, maxPos)
			}
		}
	}
	if !mcfFound {
		t.Fatalf("mcf row missing:\n%s", s)
	}
}

func TestFig9HasLongIntervals(t *testing.T) {
	if testing.Short() {
		t.Skip("integration experiment")
	}
	cfg := quickCfg()
	// Recurrence across phase revisits needs at least two full passes
	// through the phase schedule.
	cfg.Budget = 900_000
	a := mustRun(t, Fig9, cfg)
	s := a.Tables[0].String()
	// Long-interval bins (>=10K) must hold a meaningful fraction of IPs.
	long := 0.0
	for _, row := range a.Tables[0].Rows {
		switch row[0] {
		case "10K-100K", "100K-1M", "1M-2M", "2M-4M", "4M-8M":
			var v float64
			fmtSscan(row[1], &v)
			long += v
		}
	}
	if long < 0.05 {
		t.Errorf("long recurrence intervals hold only %v of IPs:\n%s", long, s)
	}
}

func TestAllocChurnContrast(t *testing.T) {
	if testing.Short() {
		t.Skip("integration experiment")
	}
	a := mustRun(t, Alloc, quickCfg())
	s := a.Tables[0].String()
	h2pMed := parseRel(t, s, "H2P", 1)
	otherMed := parseRel(t, s, "non-H2P", 1)
	if h2pMed <= otherMed {
		t.Errorf("H2P median allocations (%v) must exceed non-H2P (%v)", h2pMed, otherMed)
	}
	if h2pMed < 10*otherMed {
		t.Errorf("churn contrast too weak: %v vs %v (paper: 13,093 vs 4)", h2pMed, otherMed)
	}
}

func TestQuickAndDefaultConfigsSane(t *testing.T) {
	for _, cfg := range []Config{Default(), Quick()} {
		if cfg.Budget == 0 || cfg.SliceLen == 0 || cfg.Budget < cfg.SliceLen {
			t.Errorf("bad config %+v", cfg)
		}
		if len(cfg.PipeScales) == 0 || cfg.PipeScales[0] != 1 {
			t.Errorf("pipe scales must start at 1x: %+v", cfg.PipeScales)
		}
		if len(cfg.StorageKB) == 0 || cfg.StorageKB[0] != 8 {
			t.Errorf("storage sweep must start at 8KB: %+v", cfg.StorageKB)
		}
	}
}

// fmt shims keep the test imports tidy.
func fmtSscan(s string, v *float64) (int, error)            { return fmt.Sscan(s, v) }
func fmtSscanf(s, f string, vs ...interface{}) (int, error) { return fmt.Sscanf(s, f, vs...) }
