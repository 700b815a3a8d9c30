// Package zoo is the predictor registry: it constructs any predictor in
// the repository by name, the glue used by the CLIs, benchmarks and the
// CBP-style comparison harness.
package zoo

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"branchlab/internal/bp"
	"branchlab/internal/tage"
)

// New constructs a predictor by name. Recognized names:
//
//	tage-sc-l-<kb>      TAGE-SC-L with a <kb> KB budget (8, 64, 128, ... 1024)
//	tage-<kb>           shorthand for the above
//	bimodal         4K-entry bimodal
//	gshare          16K-entry gshare, 12 history bits
//	gselect         gselect, 6 IP bits + 8 history bits
//	local           two-level local, 1K histories of 10 bits
//	perceptron      1K perceptrons over 32 history bits
//	ppm             4-table tagged PPM (history 4/8/16/32)
//	loop            loop predictor
//	tournament      bimodal + gshare under a chooser
//	static-taken, static-not-taken
func New(name string) (bp.Predictor, error) {
	switch name {
	case "bimodal":
		return bp.NewBimodal(12), nil
	case "gshare":
		return bp.NewGShare(14, 12), nil
	case "gselect":
		return bp.NewGSelect(6, 8), nil
	case "local":
		return bp.NewLocal(10, 10), nil
	case "perceptron":
		return bp.NewPerceptron(10, 32), nil
	case "ppm":
		return bp.NewPPM(12, 4, 8, 16, 32), nil
	case "loop":
		return bp.NewLoop(8), nil
	case "tournament":
		return bp.NewTournament(bp.NewBimodal(12), bp.NewGShare(14, 12), 12), nil
	case "static-taken":
		return bp.NewStatic(true), nil
	case "static-not-taken":
		return bp.NewStatic(false), nil
	}
	for _, prefix := range []string{"tage-sc-l-", "tage-"} {
		if strings.HasPrefix(name, prefix) {
			kbStr := strings.TrimSuffix(strings.TrimPrefix(name, prefix), "kb")
			kb, err := strconv.Atoi(kbStr)
			if err != nil || kb <= 0 {
				return nil, fmt.Errorf("zoo: bad TAGE budget in %q", name)
			}
			return tage.New(tage.NewConfig(kb)), nil
		}
	}
	return nil, fmt.Errorf("zoo: unknown predictor %q (try one of %s)", name, strings.Join(Names(), ", "))
}

// Names lists the canonical predictor names.
func Names() []string {
	names := []string{
		"bimodal", "gshare", "gselect", "local", "perceptron", "ppm",
		"loop", "tournament", "static-taken", "static-not-taken",
		"tage-sc-l-8", "tage-sc-l-64", "tage-sc-l-256", "tage-sc-l-1024",
	}
	sort.Strings(names)
	return names
}
