package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"branchlab/internal/btb"
	"branchlab/internal/cache"
	"branchlab/internal/cnn"
	"branchlab/internal/core"
	"branchlab/internal/depgraph"
	"branchlab/internal/experiments"
	"branchlab/internal/phase"
	"branchlab/internal/pipeline"
	"branchlab/internal/report"
	"branchlab/internal/simpoint"
	"branchlab/internal/tage"
	"branchlab/internal/trace"
	"branchlab/internal/tracecache"
	"branchlab/internal/workload"
)

// span is one timed call: times are relative to the tracer's origin,
// Parent indexes the enclosing span (-1 for the root).
type span struct {
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	Parent int           `json:"parent"`
}

// tracer keeps spans in memory until the run ends. Spans nest in call
// order; one goroutine opens and closes them.
type tracer struct {
	origin time.Time
	spans  []span
	open   []int
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) begin(name string) int {
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{Name: name, Start: time.Since(t.origin), Parent: parent})
	t.open = append(t.open, len(t.spans)-1)
	return len(t.spans) - 1
}

func (t *tracer) end(id int) time.Duration {
	t.spans[id].End = time.Since(t.origin)
	t.open = t.open[:len(t.open)-1]
	return t.spans[id].End - t.spans[id].Start
}

// do times fn in a span and returns the span's duration.
func (t *tracer) do(name string, fn func()) time.Duration {
	id := t.begin(name)
	fn()
	return t.end(id)
}

func (t *tracer) write(path string) error {
	b, err := json.Marshal(t.spans)
	if err != nil {
		return fmt.Errorf("encode spans: %w", err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}

// replayInput is the application input the layer replay walks for a
// seed. The drivers pin input 0, which seed 0 selects.
func replayInput(seed int64) int { return int(seed % int64(experiments.Quick().MaxInputs)) }

// specInput clamps the replay input to the inputs s has.
func specInput(s *workload.Spec, input int) int {
	return input % min(s.NumInputs, experiments.Quick().MaxInputs)
}

// cnnSpecs are the workloads the CNN driver trains helpers for.
var cnnSpecs = []string{"605.mcf_s", "657.xz_s", "641.leela_s"}

// replayTrace is one trace the replay walks, recorded through a cache
// exactly as the drivers record it.
type replayTrace struct {
	spec  *workload.Spec
	input int
	tr    trace.Replayable
	h2ps  map[uint64]bool
	top   uint64 // top H2P heavy hitter (0 = none)
}

// ipcCell is one pipeline run of the IPC drivers.
type ipcCell struct {
	trace    int // index into replay.traces
	scale    int
	sig      string // prediction regime, as the drivers key their memo
	kb       int    // TAGE-SC-L budget (0 = perfect BP)
	h2p      bool   // perfect prediction of the H2P set
	minExecs uint64 // perfect prediction above this execution count
}

// replay walks a workload's cells through the layer packages' public
// entry points, one span per call, and accumulates per-layer times and
// the simulated statistics that must repeat exactly.
type replay struct {
	cfg   experiments.Config
	wl    workloadDef
	t     *tracer
	input int

	traces  []replayTrace
	predict map[[2]int]time.Duration // (trace, kb) -> predictor-alone time
	layer   map[string]float64       // per-layer metrics
	checks  map[string]float64       // simulated statistics
	rows    map[string][][]string    // recomputed relative-IPC rows by driver id
}

func newReplay(e *env, t *tracer, input int) *replay {
	return &replay{cfg: e.cfg, wl: e.wl, t: t, input: input,
		predict: map[[2]int]time.Duration{}, layer: map[string]float64{},
		checks: map[string]float64{}, rows: map[string][][]string{}}
}

// runReplay replays e's workload at the given input.
func runReplay(e *env, t *tracer, input int) (*replay, error) {
	r := newReplay(e, t, input)
	root := t.begin("replay")
	defer t.end(root)
	if err := r.record(e); err != nil {
		return nil, err
	}
	r.screen()
	r.annotate()
	if r.wl.replayIPC {
		r.ipc()
	}
	if r.wl.replayAnalysis {
		r.analysis()
	}
	return r, nil
}

// record materializes every replay trace three ways: by the workload
// generator alone, through an unbounded RAM trace cache (whose view the
// rest of the replay uses), and — on the warm workload — through an
// 8 MiB cache promoting slices from the filled store.
func (r *replay) record(e *env) error {
	ctx := context.Background()
	ram := tracecache.NewSliced(0, r.cfg.CacheSlice)
	var capped *tracecache.Cache
	if e.store != nil {
		capped = tracecache.NewSliced(e.wl.capMiB<<20, r.cfg.CacheSlice)
		capped.SetStore(e.store)
	}
	var insts float64
	for _, s := range append(workload.SPECint2017Like(), workload.LCFLike()...) {
		in := specInput(s, r.input)
		var err error
		r.add("workload.record_s", r.t.do("workload.record "+s.Name, func() {
			var buf *trace.Buffer
			buf, err = s.RecordCtx(ctx, in, r.cfg.Budget)
			if err == nil {
				insts += float64(buf.Len())
			}
		}))
		if err != nil {
			return fmt.Errorf("record %s: %w", s.Name, err)
		}
		src := s.CacheSource(in, r.cfg.Budget, r.cfg.Pool(), r.cfg.RecordShards, r.cfg.CkptSlice)
		tr, err := ram.RecordCtx(ctx, s.Name, in, r.cfg.Budget, src)
		if err != nil {
			return fmt.Errorf("cache %s: %w", s.Name, err)
		}
		r.add("tracecache.replay_s", r.t.do("tracecache.replay "+s.Name, func() { drain(tr) }))
		if capped != nil {
			r.add("tracestore.promote_s", r.t.do("tracestore.promote "+s.Name, func() {
				var pv trace.Replayable
				if pv, err = capped.RecordCtx(ctx, s.Name, in,
					r.cfg.Budget, s.CacheSource(in, r.cfg.Budget, r.cfg.Pool(), r.cfg.RecordShards, r.cfg.CkptSlice)); err == nil {
					drain(pv)
				}
			}))
			if err != nil {
				return fmt.Errorf("promote %s: %w", s.Name, err)
			}
		}
		r.traces = append(r.traces, replayTrace{spec: s, input: in, tr: tr})
	}
	r.layer["workload.record_minst_per_s"] = insts / 1e6 / r.layer["workload.record_s"]
	return nil
}

// screen runs the baseline predictor alone and then with the H2P
// collector over every trace, and screens the collector.
func (r *replay) screen() {
	var branches, mispreds, insts float64
	for i := range r.traces {
		rt := &r.traces[i]
		st := r.predictAlone(i, 8)
		branches += float64(st.CondExecs)
		mispreds += float64(st.Mispreds)
		insts += float64(st.Insts)
		col := core.NewCollector(r.cfg.SliceLen)
		collect := r.t.do("core.observe "+rt.spec.Name, func() {
			core.RunBlocks(rt.tr.BlockStream(0), tage.New(tage.Config8KB()), col)
		})
		r.add("core.observe_s", collect-r.predict[[2]int{i, 8}])
		var rep *core.H2PReport
		r.add("core.screen_s", r.t.do("core.screen "+rt.spec.Name, func() {
			rep = core.PaperCriteria().Scaled(r.cfg.SliceLen).Screen(col)
		}))
		rt.h2ps = rep.Set()
		if hh := rep.HeavyHitters(); len(hh) > 0 {
			rt.top = hh[0].IP
		}
		r.checks["core.h2ps"] += float64(len(rt.h2ps))
	}
	r.checks["tage.mpki"] = 1000 * mispreds / insts
	r.layer["tage.mbranch_per_s"] = branches / 1e6 / r.layer["tage.predict_s"]
}

// predictAlone times TAGE-SC-L at kb over trace i with no observer: the
// predictor's share of every run over that (trace, predictor) stream.
func (r *replay) predictAlone(i, kb int) core.RunStats {
	var st core.RunStats
	d := r.t.do(fmt.Sprintf("tage.predict %s %dKB", r.traces[i].spec.Name, kb), func() {
		st = core.RunBlocks(r.traces[i].tr.BlockStream(0), tage.New(tage.NewConfig(kb)))
	})
	r.predict[[2]int{i, kb}] = d
	r.add("tage.predict_s", d)
	return st
}

// annotate feeds every trace's fetch IPs and load addresses to the
// pipeline's cache hierarchy and its branches to the BTB: the latency
// annotation each pipeline run currently recomputes.
func (r *replay) annotate() {
	var insts, l1dMiss, lookups, btbMiss float64
	sky := pipeline.Skylake()
	for _, rt := range r.traces {
		h := cache.NewHierarchy(sky.Caches)
		b := btb.New(sky.BTB)
		r.add("cache.annotate_s", r.t.do("cache.annotate "+rt.spec.Name, func() {
			bs := rt.tr.BlockStream(0)
			for blk := bs.NextBlock(); len(blk) > 0; blk = bs.NextBlock() {
				for j := range blk {
					in := &blk[j]
					h.L1I.Access(in.IP)
					if in.Kind == trace.KindLoad {
						h.L1D.Access(in.MemAddr)
					}
					if in.Kind.IsBranch() {
						tgt, hit := b.Lookup(in.IP, in.Kind)
						b.Update(in.IP, in.Target, in.Kind, in.Taken, tgt, hit)
					}
				}
			}
		}))
		r.layer["cache.annotate_passes"]++
		insts += float64(rt.tr.Len())
		l1dMiss += float64(h.L1D.Stats().Misses)
		bst := b.Stats()
		lookups += float64(bst.Lookups)
		btbMiss += float64(bst.Misses + bst.TargetMiss)
	}
	r.checks["cache.l1d_mpki"] = 1000 * l1dMiss / insts
	r.checks["btb.miss_rate"] = btbMiss / lookups
}

// ipcCells lists the distinct pipeline runs of fig1, fig5, fig7 and
// fig8 in the order the drivers first request them, keyed as the
// drivers key their memo: every repeated (workload, scale, regime) cell
// is timed once.
func (r *replay) ipcCells() []ipcCell {
	var cells []ipcCell
	seen := map[string]bool{}
	addCell := func(c ipcCell) {
		key := fmt.Sprintf("%d/%d/%s", c.trace, c.scale, c.sig)
		if !seen[key] {
			seen[key] = true
			cells = append(cells, c)
		}
	}
	spec, lcf := r.traces[:len(workload.SPECint2017Like())], len(workload.SPECint2017Like())
	maxKB := r.cfg.StorageKB[len(r.cfg.StorageKB)-1]
	regimes := []ipcCell{{sig: "tage-8kb", kb: 8}, {sig: "tage-64kb", kb: 64},
		{sig: "perfh2p", kb: 8, h2p: true}, {sig: "perfect"}}
	for _, suite := range [][2]int{{0, len(spec)}, {lcf, len(r.traces)}} { // fig1, fig5
		for _, reg := range regimes {
			for _, scale := range r.cfg.PipeScales {
				for i := suite[0]; i < suite[1]; i++ {
					c := reg
					c.trace, c.scale = i, scale
					addCell(c)
				}
			}
		}
	}
	for _, scale := range r.cfg.PipeScales { // fig7
		for i := lcf; i < len(r.traces); i++ {
			addCell(ipcCell{trace: i, scale: scale, sig: "tage-8kb", kb: 8})
			addCell(ipcCell{trace: i, scale: scale, sig: "perfect"})
			for _, kb := range r.cfg.StorageKB {
				if kb != 8 {
					addCell(ipcCell{trace: i, scale: scale, sig: fmt.Sprintf("tage-%dkb", kb), kb: kb})
				}
			}
		}
	}
	for i := lcf; i < len(r.traces); i++ { // fig8
		addCell(ipcCell{trace: i, scale: 1, sig: fmt.Sprintf("tage-%dkb", maxKB), kb: maxKB})
		addCell(ipcCell{trace: i, scale: 1, sig: "perfect"})
		for _, n := range []uint64{1000, 100} {
			m := max(uint64(float64(n)*float64(r.cfg.Budget)/30e6), 8)
			addCell(ipcCell{trace: i, scale: 1, sig: fmt.Sprintf("minexec=%d/tage-%dkb", m, maxKB), kb: maxKB, minExecs: m})
		}
	}
	return cells
}

// ipc times every pipeline cell. A cell's pipeline self time is its run
// minus the predictor-alone run over the same (trace, predictor) stream.
func (r *replay) ipc() {
	cells := r.ipcCells()
	ipcs := map[string]float64{}
	var logIPC, insts, cycles, passes float64
	var wall time.Duration
	for _, c := range cells {
		rt := r.traces[c.trace]
		if c.kb != 0 {
			if _, ok := r.predict[[2]int{c.trace, c.kb}]; !ok {
				r.predictAlone(c.trace, c.kb)
			}
		}
		opt := pipeline.Options{PerfectBP: c.kb == 0, MinExecsPerfect: c.minExecs}
		if c.kb != 0 {
			opt.Predictor = tage.New(tage.NewConfig(c.kb))
			passes++
		}
		if c.h2p {
			opt.PerfectIPs = rt.h2ps
		}
		var res pipeline.Result
		d := r.t.do(fmt.Sprintf("pipeline.run %s %dx %s", rt.spec.Name, c.scale, c.sig), func() {
			res = pipeline.New(pipeline.Skylake().Scaled(c.scale)).RunBlocks(rt.tr.BlockStream(0), opt)
		})
		if c.kb == 0 {
			r.add("pipeline.sched_s", d)
			r.add("pipeline.run_s", d)
		} else {
			r.add("pipeline.run_s", d-r.predict[[2]int{c.trace, c.kb}])
		}
		wall += d
		ipcs[fmt.Sprintf("%d/%d/%s", c.trace, c.scale, c.sig)] = res.IPC
		logIPC += math.Log(res.IPC)
		insts += float64(res.Insts)
		cycles += float64(res.Cycles)
	}
	r.layer["pipeline.minst_per_s"] = insts / 1e6 / wall.Seconds()
	r.layer["pipeline.cells"] = float64(len(cells))
	r.layer["pipeline.predict_passes"] = passes
	r.layer["pipeline.predict_streams"] = float64(len(r.predict))
	r.checks["pipeline.ipc_geomean"] = math.Exp(logIPC / float64(len(cells)))
	r.checks["pipeline.cycles"] = cycles

	// fig1's and fig5's relative-IPC rows, recomputed from the cells.
	nSpec := len(workload.SPECint2017Like())
	for _, fig := range []struct {
		id     string
		lo, hi int
	}{{"fig1", 0, nSpec}, {"fig5", nSpec, len(r.traces)}} {
		if !r.inputZero(fig.lo, fig.hi) {
			continue
		}
		var base float64
		for ri, reg := range []struct{ name, sig string }{{"TAGE-SC-L 8KB", "tage-8kb"},
			{"TAGE-SC-L 64KB", "tage-64kb"}, {"Perfect H2Ps", "perfh2p"}, {"Perfect BP", "perfect"}} {
			row := []string{reg.name}
			for si, scale := range r.cfg.PipeScales {
				var xs []float64
				for i := fig.lo; i < fig.hi; i++ {
					xs = append(xs, ipcs[fmt.Sprintf("%d/%d/%s", i, scale, reg.sig)])
				}
				g := geomean(xs)
				if ri == 0 && si == 0 {
					base = g
				}
				row = append(row, fmt.Sprintf("%.3f", g/base))
			}
			r.rows[fig.id] = append(r.rows[fig.id], row)
		}
	}
}

// inputZero reports whether traces [lo, hi) are all at input 0, the
// input the drivers pin.
func (r *replay) inputZero(lo, hi int) bool {
	for _, rt := range r.traces[lo:hi] {
		if rt.input != 0 {
			return false
		}
	}
	return true
}

// analysis runs the analysis drivers' observers over every trace: the
// dependency graph of the top H2P, recurrence tracking, simpoint basic
// block vectors and clustering, and CNN helper training for the CNN
// driver's workloads.
func (r *replay) analysis() {
	mcfg := cnn.DefaultConfig()
	for _, rt := range r.traces {
		if rt.top != 0 {
			r.add("depgraph.observe_s", r.t.do("depgraph.observe "+rt.spec.Name, func() {
				core.ObserveBlocks(rt.tr.BlockStream(0), depgraph.New(depgraph.DefaultWindow, 4000, rt.top))
			}))
		}
		r.add("phase.observe_s", r.t.do("phase.observe "+rt.spec.Name, func() {
			core.ObserveBlocks(rt.tr.BlockStream(0), phase.NewRecurrenceTracker())
		}))
		bbv := simpoint.NewBBVCollector(r.cfg.SliceLen, simpoint.DefaultDim)
		r.t.do("simpoint.observe "+rt.spec.Name, func() { core.ObserveBlocks(rt.tr.BlockStream(0), bbv) })
		r.add("simpoint.cluster_s", r.t.do("simpoint.cluster "+rt.spec.Name, func() {
			simpoint.ChooseK(bbv.Vectors(), 20, 1)
		}))
		if !contains(cnnSpecs, rt.spec.Name) || rt.top == 0 {
			continue
		}
		hc := cnn.NewHistoryCollector(mcfg, rt.top)
		r.t.do("cnn.collect "+rt.spec.Name, func() { core.ObserveBlocks(rt.tr.BlockStream(0), hc) })
		r.add("cnn.train_s", r.t.do("cnn.train "+rt.spec.Name, func() { cnn.NewModel(mcfg).Train(hc.Samples) }))
		r.checks["cnn.samples"] += float64(len(hc.Samples))
	}
}

func (r *replay) add(name string, d time.Duration) { r.layer[name] += d.Seconds() }

// fidelity compares the recomputed relative-IPC rows with the drivers'
// artifacts; it returns the rows compared and any mismatch.
func (r *replay) fidelity(arts map[string]*report.Artifact) (int, []string) {
	var n int
	var problems []string
	for id, rows := range r.rows {
		art := arts[id]
		if art == nil {
			continue
		}
		got := art.Tables[0].Rows
		for i, row := range rows {
			n++
			if i >= len(got) || fmt.Sprint(got[i]) != fmt.Sprint(row) {
				problems = append(problems, fmt.Sprintf("replay fidelity: %s row %d is %v, driver printed otherwise", id, i, row))
			}
		}
	}
	return n, problems
}

// tracedRun is a --trace 1 run: an untraced pass, a traced pass, then
// the layer replay, reported as per-layer metrics.
func tracedRun(e *env, o options) (result, error) {
	t := newTracer()
	root := t.begin("workload " + e.wl.name)
	quiesce()
	plain := e.pass(nil)
	quiesce()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	traced := e.pass(t)
	runtime.ReadMemStats(&m1)
	quiesce()
	rp, err := runReplay(e, t, replayInput(o.seed))
	if err != nil {
		return result{}, err
	}
	t.end(root)
	if err := t.write(filepath.Join(o.workdir, fmt.Sprintf("spans-%s-%d.json", e.wl.name, o.seed))); err != nil {
		return result{}, err
	}

	problems := append(append([]string(nil), plain.problems...), traced.problems...)
	rows, bad := rp.fidelity(traced.arts)
	problems = append(problems, bad...)
	key := checkKey(e.wl.name, rp.input)
	want := e.ref.Checks[key]
	for name, v := range rp.checks {
		if w, ok := want[name]; !ok || w != v {
			problems = append(problems, fmt.Sprintf("replay check %s = %v, reference %s has %v", name, v, key, w))
		}
	}
	if e.wl.name == "ipc-cold" {
		// Every distinct pipeline cell and screening run is one memo
		// computation in the drivers.
		if got, cells := traced.cache.MemoMisses, rp.layer["pipeline.cells"]+float64(len(rp.traces)); float64(got) != cells {
			problems = append(problems, fmt.Sprintf("replay fidelity: drivers computed %d memo cells, replay has %v", got, cells))
		}
	}
	reportProblems(passResult{problems: problems})

	res := result{Correct: len(problems) == 0,
		Attempted: plain.attempted + traced.attempted + 1,
		Failed:    plain.failed + traced.failed,
		Metrics:   map[string]metric{}}
	if len(problems) > len(plain.problems)+len(traced.problems) {
		res.Failed++ // the replay
	}
	vals := rp.layer
	for k, v := range rp.checks {
		vals[k] = v
	}
	var cpu, busy time.Duration
	var peak int64
	for _, d := range traced.drivers {
		vals["experiments."+d.id+"_s"] = (d.end - d.start).Seconds()
		vals["report.render_s"] += d.render.Seconds()
		cpu += d.cpu
		busy += d.end - d.start
		peak = max(peak, d.residentAfter)
	}
	cs, ss := traced.cache, traced.store
	vals["engine.utilization"] = cpu.Seconds() / (float64(e.cfg.Workers) * busy.Seconds())
	vals["workload.recordings"] = float64(cs.Misses)
	vals["tracecache.hits"] = float64(cs.Hits + cs.Coalesced)
	vals["tracecache.misses"] = float64(cs.Misses)
	vals["tracecache.slice_hits"] = float64(cs.SliceHits)
	vals["tracecache.evictions"] = float64(cs.SliceEvictions)
	vals["tracecache.rerecords"] = float64(cs.SliceRerecords)
	vals["tracecache.memo_hit_frac"] = float64(cs.MemoHits) / float64(max(cs.MemoHits+cs.MemoMisses, 1))
	vals["tracecache.peak_mib"] = float64(peak) / (1 << 20)
	vals["tracestore.hdr_hits"] = float64(ss.HeaderHits)
	vals["tracestore.slice_hits"] = float64(ss.SliceHits)
	vals["tracestore.writes"] = float64(ss.HeaderWrites + ss.SliceWrites)
	vals["tracestore.rejects"] = float64(ss.Rejects)
	vals["tracestore.disk_mib"] = float64(ss.BytesOnDisk) / (1 << 20)
	vals["runtime.alloc_gib"] = float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 30)
	vals["runtime.gc_cycles"] = float64(m1.NumGC - m0.NumGC)
	vals["runtime.gc_pause_s"] = float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e9
	vals["trace.overhead_frac"] = traced.wall.Seconds()/plain.wall.Seconds() - 1
	vals["replay.fidelity_rows"] = float64(rows)
	for _, m := range perLayer {
		res.Metrics[m.name] = metric{vals[m.name], m.unit}
	}
	return res, nil
}

// drain reads every instruction of a trace, as a replay does.
func drain(tr trace.Replayable) {
	bs := tr.BlockStream(0)
	for blk := bs.NextBlock(); len(blk) > 0; blk = bs.NextBlock() {
		for j := range blk {
			drainSink ^= blk[j].IP ^ blk[j].MemAddr
		}
	}
}

// drainSink keeps drain's reads from being optimized away.
var drainSink uint64

func geomean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}
