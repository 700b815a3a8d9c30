package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"branchlab/internal/experiments"
	"branchlab/internal/report"
	"branchlab/internal/tracecache"
	"branchlab/internal/tracestore"
	"branchlab/internal/workload"
)

// workloadDef is one named benchmark workload. Every workload runs its
// drivers one after another in registry order (a closed loop with one
// client) on experiments.Quick() with one engine worker per CPU.
type workloadDef struct {
	name    string
	drivers []string // driver ids; nil = the whole registry
	// capMiB caps the RAM trace cache (0 = unbounded).
	capMiB int64
	// warmStore fills a trace store during set-up and attaches it to
	// the cache of every pass.
	warmStore bool
	// replayIPC and replayAnalysis select the layer replay's cell lists.
	replayIPC, replayAnalysis bool
}

var workloads = []workloadDef{
	{name: "ipc-cold", drivers: []string{"fig1", "fig5", "fig7", "fig8"}, replayIPC: true},
	{name: "analysis-cold", drivers: []string{"table1", "fig2", "table2", "fig3", "fig4", "table3",
		"fig6", "fig9", "fig10", "alloc", "cnn", "phasecond"}, replayAnalysis: true},
	{name: "registry-warm-capped", capMiB: 8, warmStore: true, replayIPC: true, replayAnalysis: true},
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// A run measures its set-up several times; setup_s is the median.
const (
	minSetups   = 3
	maxSetups   = 25
	setupBudget = 2 * time.Second
)

// minPasses is the fewest driver passes a run measures, however short
// --seconds is; wall_s, cpu_s and peak_rss_mib are medians over passes.
const minPasses = 3

// baseConfig is the configuration every workload runs at.
func baseConfig() experiments.Config {
	cfg := experiments.Quick()
	cfg.Workers = runtime.NumCPU()
	return cfg
}

// env is a set-up workload, ready for its first driver call.
type env struct {
	wl      workloadDef
	cfg     experiments.Config // Cache is set per pass
	runners []experiments.Runner
	ref     reference
	store   *tracestore.Store // nil unless wl.warmStore
}

// setUp prepares wl: it resolves the drivers, loads the reference and,
// for a warm workload, opens the trace store in storeDir — filling it
// with every trace the registry records when fill is set.
func setUp(wl workloadDef, storeDir string, fill bool) (*env, error) {
	ref, err := loadReference()
	if err != nil {
		return nil, err
	}
	e := &env{wl: wl, cfg: baseConfig(), ref: ref}
	for _, r := range experiments.All() {
		if wl.drivers == nil || contains(wl.drivers, r.ID) {
			e.runners = append(e.runners, r)
		}
	}
	if !wl.warmStore {
		return e, nil
	}
	if storeDir == "" {
		return nil, errors.New("warm workload needs --store")
	}
	if e.store, err = tracestore.Open(storeDir, 0); err != nil {
		return nil, fmt.Errorf("open trace store: %w", err)
	}
	if !fill {
		return e, nil
	}
	if err := fillStore(e.cfg, e.store); err != nil {
		e.store.Close()
		return nil, err
	}
	return e, nil
}

// fillStore records every (workload, input) trace the registry requests
// at cfg through a cache backed by store: each SPECint-like workload at
// its first MaxInputs inputs, each LCF workload at input 0, and the CNN
// driver's unseen evaluation inputs. The measured passes check that this
// list is complete: a warm pass must record nothing.
func fillStore(cfg experiments.Config, store *tracestore.Store) error {
	cfg.Store = store
	cache := cfg.NewCache(0)
	ctx := context.Background()
	for _, k := range registryTraces(cfg) {
		s, _ := workload.ByName(k.name)
		if _, err := cache.RecordCtx(ctx, s.Name, k.input, cfg.Budget,
			s.CacheSource(k.input, cfg.Budget, cfg.Pool(), cfg.RecordShards, cfg.CkptSlice)); err != nil {
			return fmt.Errorf("fill trace store: %w", err)
		}
	}
	return nil
}

// traceKey names one recorded trace.
type traceKey struct {
	name  string
	input int
}

func registryTraces(cfg experiments.Config) []traceKey {
	var keys []traceKey
	for _, s := range workload.SPECint2017Like() {
		for in := 0; in < min(s.NumInputs, cfg.MaxInputs); in++ {
			keys = append(keys, traceKey{s.Name, in})
		}
	}
	for _, s := range workload.LCFLike() {
		keys = append(keys, traceKey{s.Name, 0})
	}
	// The CNN driver trains on inputs 0 and 1 and evaluates on input 2.
	for _, name := range cnnSpecs {
		s, _ := workload.ByName(name)
		k := traceKey{name, 2 % s.NumInputs}
		if !containsKey(keys, k) {
			keys = append(keys, k)
		}
	}
	return keys
}

// passResult is one driver pass.
type passResult struct {
	wall, cpu time.Duration
	attempted int
	failed    int
	problems  []string // failed driver runs and failed pass checks
	cache     tracecache.Stats
	store     tracestore.Stats // counters accumulated during the pass
	arts      map[string]*report.Artifact
	drivers   []driverSample // traced passes only
}

// driverSample is one traced driver call.
type driverSample struct {
	id            string
	start, end    time.Duration // relative to the tracer's origin
	cpu, render   time.Duration
	residentAfter int64
}

// pass runs every driver once on a fresh trace cache. With a tracer it
// also records one span per driver call.
func (e *env) pass(tr *tracer) passResult {
	cfg := e.cfg
	cfg.Store = e.store
	cfg.Cache = cfg.NewCache(e.wl.capMiB << 20)
	storeBefore := e.store.Stats()
	res := passResult{arts: map[string]*report.Artifact{}}
	var stdout strings.Builder
	start, cpu0 := time.Now(), cpuTime()
	for _, r := range e.runners {
		var sp int
		var dcpu time.Duration
		if tr != nil {
			sp, dcpu = tr.begin("experiments."+r.ID), cpuTime()
		}
		art, err := r.RunCtx(context.Background(), cfg)
		res.attempted++
		var rendered string
		var render time.Duration
		if err == nil {
			t := time.Now()
			rendered = art.String()
			render = time.Since(t)
		}
		switch {
		case err != nil:
			res.failed++
			res.problems = append(res.problems, err.Error())
		case digest(rendered) != e.ref.Digests[r.ID]:
			res.failed++
			res.problems = append(res.problems, r.ID+": artifact differs from the reference")
		}
		stdout.WriteString(rendered + "\n")
		res.arts[r.ID] = art
		if tr != nil {
			tr.end(sp)
			s := tr.spans[sp]
			res.drivers = append(res.drivers, driverSample{id: r.ID, start: s.Start, end: s.End,
				cpu: cpuTime() - dcpu, render: render, residentAfter: cfg.Cache.Stats().BytesInUse})
		}
	}
	res.wall, res.cpu = time.Since(start), cpuTime()-cpu0
	res.cache = cfg.Cache.Stats()
	res.store = storeDelta(storeBefore, e.store.Stats())
	if e.wl.drivers == nil && digest(stdout.String()) != e.ref.Registry {
		res.problems = append(res.problems, "registry output differs from the reference")
	}
	if e.wl.warmStore {
		if res.cache.Misses != 0 {
			res.problems = append(res.problems, fmt.Sprintf("warm pass recorded %d traces", res.cache.Misses))
		}
		if res.store.Rejects != 0 || res.cache.DiskRejects != 0 {
			res.problems = append(res.problems, "trace store rejected stored files")
		}
	}
	return res
}

// ok reports whether the pass had no failure of any kind.
func (p passResult) ok() bool { return len(p.problems) == 0 }

func storeDelta(a, b tracestore.Stats) tracestore.Stats {
	return tracestore.Stats{
		HeaderHits: b.HeaderHits - a.HeaderHits, SliceHits: b.SliceHits - a.SliceHits,
		Rejects: b.Rejects - a.Rejects, HeaderWrites: b.HeaderWrites - a.HeaderWrites,
		SliceWrites: b.SliceWrites - a.SliceWrites, BytesOnDisk: b.BytesOnDisk,
	}
}

// run performs one benchmark run of wl.
func run(wl workloadDef, o options) (result, error) {
	setups, storeDir, err := measureSetup(wl, o)
	if storeDir != "" {
		defer os.RemoveAll(storeDir)
	}
	if err != nil {
		return result{}, err
	}
	// Set up again in this process over the store the last measured
	// set-up filled.
	e, err := setUp(wl, storeDir, false)
	if err != nil {
		return result{}, err
	}
	defer e.store.Close()
	if o.trace {
		return tracedRun(e, o)
	}

	var walls, cpus, rss []float64
	res := result{Correct: true}
	begin := time.Now()
	for len(walls) < minPasses || time.Since(begin) < time.Duration(o.seconds)*time.Second {
		quiesce()
		if err := resetPeakRSS(); err != nil {
			return result{}, err
		}
		p := e.pass(nil)
		peak, err := peakRSSMiB()
		if err != nil {
			return result{}, err
		}
		walls = append(walls, p.wall.Seconds())
		cpus = append(cpus, p.cpu.Seconds())
		rss = append(rss, peak)
		res.Attempted += p.attempted
		res.Failed += p.failed
		reportProblems(p)
		res.Correct = res.Correct && p.ok()
	}
	fmt.Fprintf(os.Stderr, "perfbench: %d passes; wall_s %v; cpu_s %v; peak_rss_mib %v\n", len(walls), walls, cpus, rss)
	res.Metrics = map[string]metric{
		"wall_s":       {median(walls), "s"},
		"cpu_s":        {median(cpus), "s"},
		"peak_rss_mib": {median(rss), "MiB"},
		"setup_s":      {median(setups), "s"},
		"ok_frac":      {float64(res.Attempted-res.Failed) / float64(res.Attempted), "fraction"},
	}
	return res, nil
}

// measureSetup times fresh processes that each perform the workload's
// set-up and exit: process start to the point where the first driver
// call would begin. It measures at least minSetups of them, and up to
// maxSetups while they fit in setupBudget. A warm workload's set-ups
// each fill their own store; the last one is kept for the measured
// passes. A traced run sets up once.
func measureSetup(wl workloadDef, o options) (secs []float64, storeDir string, err error) {
	begin := time.Now()
	for i := 0; i < maxSetups; i++ {
		if (o.trace && i == 1) || (i >= minSetups && time.Since(begin) > setupBudget) {
			break
		}
		dir := ""
		if wl.warmStore {
			dir = filepath.Join(o.workdir, fmt.Sprintf("store-%d-%d", os.Getpid(), i))
			if storeDir != "" {
				os.RemoveAll(storeDir)
			}
			storeDir = dir
		}
		cmd := exec.Command(o.self, "--setup-only", "--workload", wl.name, "--store", dir)
		cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
		t := time.Now()
		if err := cmd.Run(); err != nil {
			return nil, storeDir, fmt.Errorf("set-up process: %w", err)
		}
		secs = append(secs, time.Since(t).Seconds())
	}
	return secs, storeDir, nil
}

// quiesce returns the previous pass's memory before the next is timed.
func quiesce() {
	runtime.GC()
	debug.FreeOSMemory()
}

// reportProblems prints a pass's failures to standard error.
func reportProblems(p passResult) {
	for _, msg := range p.problems {
		fmt.Fprintln(os.Stderr, "perfbench: FAIL:", msg)
	}
}

func digest(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// resetPeakRSS restarts the process's high-water resident set at its
// current size, so each pass reads its own peak.
func resetPeakRSS() error {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("reset peak RSS: %w", err)
	}
	return nil
}

// peakRSSMiB reads the process's high-water resident set (VmHWM).
func peakRSSMiB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("read peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 3 && fields[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func contains(xs []string, x string) bool {
	for _, y := range xs {
		if y == x {
			return true
		}
	}
	return false
}

func containsKey(keys []traceKey, k traceKey) bool {
	for _, x := range keys {
		if x == k {
			return true
		}
	}
	return false
}
