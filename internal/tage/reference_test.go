package tage

import (
	"branchlab/internal/bp"
	"branchlab/internal/trace"
)

// refEntry is one tagged-table entry of the scalar reference engine: the
// pre-packing array-of-structs layout (16 bytes with padding, owner
// telemetry inline).
type refEntry struct {
	tag   uint16
	ctr   int8 // 3-bit signed, [-4, 3]
	u     uint8
	valid bool
	owner uint64
}

// Reference is the scalar TAGE-SC-L engine the packed Predictor was
// derived from, kept verbatim as the behavioural oracle and the
// engine-level performance baseline: array-of-structs tables, per-lookup
// derived constants (including the minU path-history mask recomputed per
// table), conditional longest-match scan, and the eager O(total-entries)
// usefulness sweep inside Train. The equivalence property tests
// byte-compare its prediction and telemetry streams against the packed
// engine across every workload; BenchmarkTAGEPredictTrain measures the
// packed engine against it.
type Reference struct {
	cfg      Config
	histLens []int

	bimodal []int8
	tables  [][]refEntry
	ghist   *globalHist
	phist   uint64
	fIdx    []folded
	fTag0   []folded
	fTag1   []folded

	loop *bp.Loop
	sc   *corrector

	useAltOnNA int8
	tick       uint64
	rngState   uint64

	ctx    predCtx
	ctxOK  bool
	ctxIP  uint64
	allocs *AllocStats
}

// NewReference returns the scalar reference engine for the given
// configuration. It predicts identically to New's packed engine; use it
// only as a test oracle or benchmark baseline.
func NewReference(cfg Config) *Reference {
	if cfg.NumTables > maxTables {
		panic("tage: too many tagged tables")
	}
	p := &Reference{
		cfg:      cfg,
		histLens: cfg.HistLengths(),
		bimodal:  make([]int8, 1<<cfg.LogBimodal),
		ghist:    newGlobalHist(cfg.MaxHist + 64),
		rngState: 0x853c49e6748fea9b,
	}
	p.tables = make([][]refEntry, cfg.NumTables)
	p.fIdx = make([]folded, cfg.NumTables)
	p.fTag0 = make([]folded, cfg.NumTables)
	p.fTag1 = make([]folded, cfg.NumTables)
	for i := 0; i < cfg.NumTables; i++ {
		p.tables[i] = make([]refEntry, 1<<cfg.LogTagged[i])
		p.fIdx[i] = newFolded(p.histLens[i], cfg.LogTagged[i])
		p.fTag0[i] = newFolded(p.histLens[i], cfg.TagBits[i])
		p.fTag1[i] = newFolded(p.histLens[i], cfg.TagBits[i]-1)
	}
	if cfg.UseLoop {
		p.loop = bp.NewLoop(cfg.LogLoop)
	}
	if cfg.UseSC {
		p.sc = newCorrector(cfg)
	}
	return p
}

// Name implements bp.Predictor. The suffix distinguishes the oracle from
// the packed engine in reports and benchmark labels.
func (p *Reference) Name() string { return p.cfg.Name + "-reference" }

// Config returns the predictor's configuration.
func (p *Reference) Config() Config { return p.cfg }

// EnableAllocTracking mirrors the packed engine's telemetry hook; the
// reference keeps owners inline in its entries, as the original engine
// did.
func (p *Reference) EnableAllocTracking() *AllocStats {
	p.allocs = newAllocStats()
	return p.allocs
}

func (p *Reference) nextRand() uint32 {
	p.rngState = p.rngState*6364136223846793005 + 1442695040888963407
	return uint32(p.rngState >> 33)
}

func (p *Reference) bimodalIndex(ip uint64) uint64 {
	return mixIP(ip) & ((1 << p.cfg.LogBimodal) - 1)
}

// compute derives every table's index and tag the pre-PR8 way: masks and
// shifts (including the minU(histLen, 16) path-history mask) recomputed
// per lookup per table.
func (p *Reference) compute(ip uint64) {
	hip := mixIP(ip)
	for i := 0; i < p.cfg.NumTables; i++ {
		logT := p.cfg.LogTagged[i]
		idx := hip ^ hip>>(logT-3) ^ p.fIdx[i].comp ^ p.phist&((1<<minU(uint(p.histLens[i]), 16))-1)
		p.ctx.idx[i] = uint32(idx & ((1 << logT) - 1))
		tag := hip>>7 ^ p.fTag0[i].comp ^ p.fTag1[i].comp<<1
		p.ctx.tag[i] = uint16(tag & ((1 << p.cfg.TagBits[i]) - 1))
	}
}

// predictInternal fills p.ctx for ip with the conditional longest-match
// scan over the array-of-structs tables.
func (p *Reference) predictInternal(ip uint64) {
	p.ctx.reset()
	p.compute(ip)

	for i := p.cfg.NumTables - 1; i >= 0; i-- {
		e := &p.tables[i][p.ctx.idx[i]]
		if e.valid && e.tag == p.ctx.tag[i] {
			if p.ctx.provider < 0 {
				p.ctx.provider = i
			} else {
				p.ctx.altTable = i
				break
			}
		}
	}

	bimPred := p.bimodal[p.bimodalIndex(ip)] >= 0
	p.ctx.altPred = bimPred
	if p.ctx.altTable >= 0 {
		p.ctx.altPred = p.tables[p.ctx.altTable][p.ctx.idx[p.ctx.altTable]].ctr >= 0
	}
	if p.ctx.provider >= 0 {
		e := &p.tables[p.ctx.provider][p.ctx.idx[p.ctx.provider]]
		p.ctx.provPred = e.ctr >= 0
		p.ctx.newAlloc = e.u == 0 && (e.ctr == 0 || e.ctr == -1)
		if p.ctx.newAlloc && p.useAltOnNA >= 0 {
			p.ctx.tagePred = p.ctx.altPred
		} else {
			p.ctx.tagePred = p.ctx.provPred
		}
	} else {
		p.ctx.provPred = bimPred
		p.ctx.tagePred = bimPred
	}

	p.ctx.final = p.ctx.tagePred

	if p.loop != nil {
		p.ctx.loopHit = p.loop.Confident(ip)
		if p.ctx.loopHit {
			p.ctx.loopPred = p.loop.Predict(ip)
			p.ctx.final = p.ctx.loopPred
		}
	}

	if p.sc != nil {
		p.sc.evaluate(ip, p.ctx.final, &p.ctx.sc)
		if p.ctx.sc.pred != p.ctx.final && abs32(p.ctx.sc.sum) >= p.sc.threshold {
			p.ctx.sc.used = true
			p.ctx.final = p.ctx.sc.pred
		}
	}
}

// Predict implements bp.Predictor.
func (p *Reference) Predict(ip uint64) bool {
	p.predictInternal(ip)
	p.ctxOK = true
	p.ctxIP = ip
	return p.ctx.final
}

// Train implements bp.Predictor: it updates the predictor with the
// resolved direction of the conditional branch at ip targeting target.
func (p *Reference) Train(ip, target uint64, taken, pred bool) {
	if !p.ctxOK || p.ctxIP != ip {
		p.predictInternal(ip)
	}
	p.ctxOK = false
	ctx := &p.ctx

	if p.loop != nil {
		p.loop.Train(ip, target, taken, ctx.loopPred)
	}
	if p.sc != nil {
		p.sc.train(ip, target, taken, ctx.tagePred, &ctx.sc)
	}

	if ctx.provider >= 0 && ctx.newAlloc && ctx.provPred != ctx.altPred {
		p.useAltOnNA = satUpdate(p.useAltOnNA, ctx.altPred == taken, -8, 7)
	}

	if ctx.provider >= 0 {
		e := &p.tables[ctx.provider][ctx.idx[ctx.provider]]
		e.ctr = satUpdate(e.ctr, taken, -4, 3)
		if ctx.provPred != ctx.altPred {
			if ctx.provPred == taken {
				if e.u < 3 {
					e.u++
				}
			} else if e.u > 0 {
				e.u--
			}
		}
		if ctx.provPred != taken && ctx.altPred == taken && e.u > 0 {
			e.u--
		}
	} else {
		i := p.bimodalIndex(ip)
		p.bimodal[i] = satUpdate(p.bimodal[i], taken, -2, 1)
	}

	if ctx.tagePred != taken && ctx.provider < p.cfg.NumTables-1 {
		p.allocate(ip, taken, ctx)
	}

	// Periodic graceful aging of usefulness bits: the eager full sweep —
	// an O(total-entries) latency spike inside Train that the packed
	// engine replaces with lazy epoch aging.
	p.tick++
	if p.tick >= p.cfg.UResetPeriod {
		p.tick = 0
		for _, t := range p.tables {
			for j := range t {
				t[j].u >>= 1
			}
		}
	}

	p.pushHistory(ip, taken)
}

func (p *Reference) allocate(ip uint64, taken bool, ctx *predCtx) {
	start := ctx.provider + 1
	if start < p.cfg.NumTables-1 && p.nextRand()&1 == 0 {
		start++
	}
	allocated := 0
	for i := start; i < p.cfg.NumTables && allocated < 2; i++ {
		e := &p.tables[i][ctx.idx[i]]
		if e.u != 0 {
			continue
		}
		victim, victimValid := e.owner, e.valid
		var ctr int8
		if !taken {
			ctr = -1
		}
		*e = refEntry{tag: ctx.tag[i], ctr: ctr, valid: true, owner: ip}
		if p.allocs != nil {
			p.allocs.record(ip, i, int(ctx.idx[i]), victim, victimValid)
		}
		allocated++
		i++ // leave a gap: at most every other table
	}
	if allocated == 0 {
		for i := ctx.provider + 1; i < p.cfg.NumTables; i++ {
			e := &p.tables[i][ctx.idx[i]]
			if e.u > 0 {
				e.u--
			}
		}
	}
}

func (p *Reference) pushHistory(ip uint64, taken bool) {
	p.ghist.push(taken)
	updateFolded(p.ghist, p.histLens, p.fIdx, p.fTag0, p.fTag1)
	p.phist = (p.phist << 1) | (ip>>2)&1
	if p.sc != nil {
		p.sc.pushGlobal(taken)
	}
	p.ctxOK = false
}

// ObserveBranch implements bp.BranchObserver.
func (p *Reference) ObserveBranch(ip, target uint64, kind trace.Kind, taken bool) {
	if kind == trace.KindCondBr {
		return
	}
	p.pushHistory(ip, true)
}
