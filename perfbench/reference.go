package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"strings"

	"branchlab/internal/experiments"
)

// perLayer are reported with --trace 1. Every workload reports all of
// them; a layer its replay does not reach reads 0.
var perLayer = func() []metricDef {
	var defs []metricDef
	for _, r := range experiments.All() {
		defs = append(defs, metricDef{"experiments." + r.ID + "_s", "s"})
	}
	return append(defs, []metricDef{
		{"engine.utilization", "fraction"},
		{"workload.recordings", "count"},
		{"workload.record_s", "s"},
		{"workload.record_minst_per_s", "Minst/s"},
		{"tracecache.hits", "count"},
		{"tracecache.misses", "count"},
		{"tracecache.slice_hits", "count"},
		{"tracecache.evictions", "count"},
		{"tracecache.rerecords", "count"},
		{"tracecache.memo_hit_frac", "fraction"},
		{"tracecache.peak_mib", "MiB"},
		{"tracecache.replay_s", "s"},
		{"tracestore.hdr_hits", "count"},
		{"tracestore.slice_hits", "count"},
		{"tracestore.writes", "count"},
		{"tracestore.rejects", "count"},
		{"tracestore.promote_s", "s"},
		{"tracestore.disk_mib", "MiB"},
		{"tage.predict_s", "s"},
		{"tage.mbranch_per_s", "Mbranch/s"},
		{"tage.mpki", "MPKI"},
		{"core.observe_s", "s"},
		{"core.screen_s", "s"},
		{"core.h2ps", "count"},
		{"pipeline.run_s", "s"},
		{"pipeline.sched_s", "s"},
		{"pipeline.minst_per_s", "Minst/s"},
		{"pipeline.cells", "count"},
		{"pipeline.predict_passes", "count"},
		{"pipeline.predict_streams", "count"},
		{"pipeline.ipc_geomean", "IPC"},
		{"pipeline.cycles", "count"},
		{"cache.annotate_s", "s"},
		{"cache.annotate_passes", "count"},
		{"cache.l1d_mpki", "MPKI"},
		{"btb.miss_rate", "fraction"},
		{"depgraph.observe_s", "s"},
		{"phase.observe_s", "s"},
		{"simpoint.cluster_s", "s"},
		{"cnn.train_s", "s"},
		{"cnn.samples", "count"},
		{"report.render_s", "s"},
		{"runtime.alloc_gib", "GiB"},
		{"runtime.gc_cycles", "count"},
		{"runtime.gc_pause_s", "s"},
		{"trace.overhead_frac", "fraction"},
		{"replay.fidelity_rows", "count"},
	}...)
}()

// reference is what a correct build produces: the sha256 of every
// driver's rendered artifact, of the whole registry's output as
// `experiments -run all -quick` prints it, and the replay's simulated
// statistics per workload and replay input.
type reference struct {
	Registry string                        `json:"registry_sha256"`
	Digests  map[string]string             `json:"digests"`
	Checks   map[string]map[string]float64 `json:"checks"`
}

//go:embed reference.json
var referenceJSON []byte

func loadReference() (reference, error) {
	var ref reference
	if err := json.Unmarshal(referenceJSON, &ref); err != nil {
		return ref, fmt.Errorf("parse reference: %w", err)
	}
	if len(ref.Digests) != len(experiments.All()) {
		return ref, errors.New("reference lacks driver digests")
	}
	return ref, nil
}

func checkKey(workload string, input int) string { return fmt.Sprintf("%s/input%d", workload, input) }

// writeReference records the reference from the current build: one
// registry pass on an unbounded cache, then every workload's replay at
// every replay input. Run it only on a commit whose artifacts are known
// good: the registry digest must equal the sha256 of the standard
// output of `experiments -run all -quick`.
func writeReference(path string) error {
	ref := reference{Digests: map[string]string{}, Checks: map[string]map[string]float64{}}
	cfg := baseConfig()
	cfg.Cache = cfg.NewCache(0)
	var out strings.Builder
	for _, r := range experiments.All() {
		art, err := r.RunCtx(context.Background(), cfg)
		if err != nil {
			return err
		}
		s := art.String()
		ref.Digests[r.ID] = digest(s)
		out.WriteString(s + "\n")
	}
	ref.Registry = digest(out.String())

	for _, wl := range workloads {
		e := &env{wl: wl, cfg: baseConfig()}
		for in := 0; in < cfg.MaxInputs; in++ {
			rp, err := runReplay(e, newTracer(), in)
			if err != nil {
				return err
			}
			ref.Checks[checkKey(wl.name, in)] = rp.checks
		}
	}
	b, err := json.MarshalIndent(ref, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
