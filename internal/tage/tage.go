package tage

import (
	"math/bits"

	"branchlab/internal/bp"
	"branchlab/internal/trace"
)

// Predictor is a TAGE-SC-L instance, rearchitected for replay throughput
// (DESIGN.md §10): tagged tables are bit-packed struct-of-arrays words in
// one contiguous array (packed.go), every per-lookup derived constant is
// hoisted into per-table arrays built once in New, longest-match provider
// selection is a validity/tag-match bitmap resolved with math/bits, and
// usefulness aging is lazy (epoch-stamped) instead of an O(total-entries)
// sweep inside Train. It is behaviourally identical to the scalar
// Reference engine — the equivalence property tests byte-compare the two
// across every workload.
//
// Predictor implements bp.Predictor, bp.BranchObserver and
// bp.BlockRunner. Train's target feeds the IMLI component, which counts
// loop-back (backward) edges.
type Predictor struct {
	cfg      Config
	histLens []int

	bimodal []int8
	bank    []uint32 // all tagged tables, packed, bank i at tab[i].off

	// tab fuses every tagged table's hot per-branch state: the history
	// push and the lookup each walk this one array instead of eight
	// parallel slices.
	tab []tableMeta

	ghist *globalHist
	phist uint64 // path history (low IP bits)

	loop *bp.Loop
	sc   *corrector

	useAltOnNA int8   // chooses alt prediction for newly allocated entries
	tick       uint64 // updates since the last aging epoch
	epoch      uint64 // aging epochs elapsed (each halves every live u)
	rngState   uint64 // for probabilistic allocation spreading

	// Prediction context cached between Predict and Train.
	ctx   predCtx
	ctxOK bool
	ctxIP uint64

	// Telemetry (only when an AllocStats collector is attached): owners
	// mirrors the banks with the allocating IP of each entry.
	allocs *AllocStats
	owners [][]uint64
}

// predCtx carries one branch's prediction-time state from Predict to
// Train. The idx/tag arrays are only live up to the configured table
// counts, so reset leaves them dirty instead of zeroing ~200 bytes per
// lookup.
type predCtx struct {
	idx      [maxTables]uint32
	tag      [maxTables]uint16
	bim      uint32 // bimodal index (mixIP computed once per branch)
	provider int    // -1 = bimodal
	altTable int    // -1 = bimodal
	provPred bool
	altPred  bool
	newAlloc bool
	tagePred bool   // post alt-choice TAGE prediction
	loopIdx  uint32 // loop predictor entry (hashed once per branch)
	loopTag  uint16
	loopPred bool
	loopHit  bool
	final    bool
	sc       scCtx
}

func (c *predCtx) reset() {
	c.provider, c.altTable = -1, -1
	c.provPred, c.altPred, c.newAlloc, c.tagePred = false, false, false, false
	c.loopPred, c.loopHit, c.final = false, false, false
}

const maxTables = 20

// tableMeta is one tagged table's per-branch working set: the three
// folded history registers with their static fold parameters (the same
// circular fold as the folded type, laid out flat), plus the lookup
// constants that used to be recomputed per lookup — the index fold
// shift, index/tag masks, the minU(histLen, 16) path-history mask — and
// the table's offset into the packed bank array. One struct per table
// keeps a branch's entire table-math footprint on two cache lines
// instead of spread over eight parallel slices.
type tableMeta struct {
	idxComp, tag0Comp, tag1Comp             uint64 // folded registers
	idxFoldMask, tag0FoldMask, tag1FoldMask uint64
	phistMask                               uint64
	idxCompLen, idxOut                      uint32 // fold width / retire position
	tag0CompLen, tag0Out                    uint32
	tag1CompLen, tag1Out                    uint32
	histLen                                 int32
	off                                     uint32
	idxShift                                uint32
	idxMask                                 uint32
	tagMask                                 uint32
}

// setFold installs one folded register's static parameters, mirroring
// newFolded's width adjustment.
func setFold(compLen *uint32, out *uint32, mask *uint64, origLen int, width uint) {
	if width == 0 {
		width = 1
	}
	*compLen = uint32(width)
	*out = uint32(uint(origLen) % width)
	*mask = 1<<width - 1
}

// New returns a TAGE-SC-L predictor for the given configuration.
func New(cfg Config) *Predictor {
	if cfg.NumTables > maxTables {
		panic("tage: too many tagged tables")
	}
	p := &Predictor{
		cfg:      cfg,
		histLens: cfg.HistLengths(),
		bimodal:  make([]int8, 1<<cfg.LogBimodal),
		ghist:    newGlobalHist(cfg.MaxHist + 64),
		rngState: 0x853c49e6748fea9b,
	}
	p.tab = make([]tableMeta, cfg.NumTables)
	total := uint64(0)
	for i := 0; i < cfg.NumTables; i++ {
		logT := cfg.LogTagged[i]
		t := &p.tab[i]
		t.off = uint32(total)
		total += 1 << logT
		t.idxShift = uint32(logT - 3)
		t.idxMask = 1<<logT - 1
		t.tagMask = uint32(uint64(1)<<cfg.TagBits[i] - 1)
		t.phistMask = 1<<minU(uint(p.histLens[i]), 16) - 1
		t.histLen = int32(p.histLens[i])
		setFold(&t.idxCompLen, &t.idxOut, &t.idxFoldMask, p.histLens[i], logT)
		setFold(&t.tag0CompLen, &t.tag0Out, &t.tag0FoldMask, p.histLens[i], cfg.TagBits[i])
		setFold(&t.tag1CompLen, &t.tag1Out, &t.tag1FoldMask, p.histLens[i], cfg.TagBits[i]-1)
	}
	p.bank = make([]uint32, total)
	if cfg.UseLoop {
		p.loop = bp.NewLoop(cfg.LogLoop)
	}
	if cfg.UseSC {
		p.sc = newCorrector(cfg)
	}
	return p
}

// Name implements bp.Predictor.
func (p *Predictor) Name() string { return p.cfg.Name }

// Config returns the predictor's configuration.
func (p *Predictor) Config() Config { return p.cfg }

func (p *Predictor) nextRand() uint32 {
	p.rngState = p.rngState*6364136223846793005 + 1442695040888963407
	return uint32(p.rngState >> 33)
}

// mixIP spreads instruction-pointer entropy across the low bits. Branch
// IPs are aligned and clustered in real programs; without full mixing,
// structured IP layouts systematically collide in the bimodal and tagged
// tables.
func mixIP(ip uint64) uint64 {
	x := ip >> 2
	x ^= x >> 17
	x *= 0xff51afd7ed558ccd
	x ^= x >> 29
	return x
}

func minU(a, b uint) uint {
	if a < b {
		return a
	}
	return b
}

// stamp returns the current epoch truncated to the packed stamp field.
func (p *Predictor) stamp() uint32 { return uint32(p.epoch) & packedStampMask }

// agedU returns the live usefulness of a word: the stored value shifted
// by the epochs elapsed since its stamp. Stored-zero words are zero under
// any shift, so only nonzero u pays the delta computation — and those
// words are restamped by normalize often enough that the 10-bit modular
// delta is always the true delta.
func (p *Predictor) agedU(w uint32) uint32 {
	u := w >> packedUShift & packedUMask
	if u == 0 {
		return 0
	}
	d := (uint32(p.epoch) - w>>packedStampShift) & packedStampMask
	if d >= 2 {
		return 0
	}
	return u >> d
}

// setU rewrites a word's u/stamp pair with a live value.
func (p *Predictor) setU(wi uint32, w, u uint32) {
	p.bank[wi] = w&packedUStampClear | u<<packedUShift | p.stamp()<<packedStampShift
}

// normalize re-materializes every pending lazy shift so no word keeps a
// nonzero stored u with a stamp older than normalizeEvery epochs — the
// invariant that keeps agedU's mod-2^10 arithmetic exact. Runs once per
// normalizeEvery aging epochs; words already at zero never alias (zero
// shifts to zero) and are skipped.
func (p *Predictor) normalize() {
	for wi, w := range p.bank {
		if w>>packedUShift&packedUMask == 0 {
			continue
		}
		p.setU(uint32(wi), w, p.agedU(w))
	}
}

// lookup computes every table's index and tag for ip (pre-hashed as hip)
// into ctx and returns the bank-match bitmap: bit i set iff table i holds
// a valid entry whose tag matches. Longest-match provider selection is
// then a bits.Len32 over the bitmap (CLZ-style, as in hardware CLZ-TAGE
// designs) instead of a conditional scan.
func (p *Predictor) lookup(ctx *predCtx, hip uint64) uint32 {
	var match uint32
	bank := p.bank
	phist := p.phist
	for i := range p.tab {
		t := &p.tab[i]
		idx := uint32(hip^hip>>t.idxShift^t.idxComp^phist&t.phistMask) & t.idxMask
		tag := uint16(hip>>7^t.tag0Comp^t.tag1Comp<<1) & uint16(t.tagMask)
		ctx.idx[i] = idx
		ctx.tag[i] = tag
		w := bank[t.off+idx]
		if w&packedValid != 0 && uint16(w&packedTagMask) == tag {
			match |= 1 << uint(i)
		}
	}
	return match
}

func (p *Predictor) word(table int, idx uint32) uint32 {
	return p.bank[p.tab[table].off+idx]
}

// predictInternal fills ctx for ip.
func (p *Predictor) predictInternal(ctx *predCtx, ip uint64) {
	ctx.reset()
	hip := mixIP(ip)
	ctx.bim = uint32(hip & (1<<p.cfg.LogBimodal - 1))
	match := p.lookup(ctx, hip)

	bimPred := p.bimodal[ctx.bim] >= 0
	ctx.altPred = bimPred
	if match != 0 {
		prov := bits.Len32(match) - 1
		ctx.provider = prov
		if rest := match &^ (1 << uint(prov)); rest != 0 {
			alt := bits.Len32(rest) - 1
			ctx.altTable = alt
			ctx.altPred = packedCtr(p.word(alt, ctx.idx[alt])) >= 0
		}
		w := p.word(prov, ctx.idx[prov])
		ctr := packedCtr(w)
		ctx.provPred = ctr >= 0
		ctx.newAlloc = p.agedU(w) == 0 && (ctr == 0 || ctr == -1)
		if ctx.newAlloc && p.useAltOnNA >= 0 {
			ctx.tagePred = ctx.altPred
		} else {
			ctx.tagePred = ctx.provPred
		}
	} else {
		ctx.provPred = bimPred
		ctx.tagePred = bimPred
	}

	ctx.final = ctx.tagePred

	// Loop predictor override.
	if p.loop != nil {
		ctx.loopIdx, ctx.loopTag = p.loop.Index(ip)
		ctx.loopHit = p.loop.ConfidentAt(ctx.loopIdx, ctx.loopTag)
		if ctx.loopHit {
			ctx.loopPred = p.loop.PredictAt(ctx.loopIdx, ctx.loopTag)
			ctx.final = ctx.loopPred
		}
	}

	// Statistical corrector arbitration.
	if p.sc != nil {
		p.sc.evaluate(ip, ctx.final, &ctx.sc)
		if ctx.sc.pred != ctx.final && abs32(ctx.sc.sum) >= p.sc.threshold {
			ctx.sc.used = true
			ctx.final = ctx.sc.pred
		}
	}
}

// Predict implements bp.Predictor.
func (p *Predictor) Predict(ip uint64) bool {
	p.predictInternal(&p.ctx, ip)
	p.ctxOK = true
	p.ctxIP = ip
	return p.ctx.final
}

// Train implements bp.Predictor: it updates the predictor with the
// resolved direction of the conditional branch at ip targeting target.
// The IMLI component detects backward (loop) edges from the target; a
// target of 0 never counts as one.
func (p *Predictor) Train(ip, target uint64, taken, pred bool) {
	if !p.ctxOK || p.ctxIP != ip {
		p.predictInternal(&p.ctx, ip)
	}
	p.ctxOK = false
	p.trainResolved(&p.ctx, ip, target, taken)
}

// trainResolved applies the resolved direction to the state ctx captured
// at prediction time. It is the shared retire path of Train and
// RunBlock.
func (p *Predictor) trainResolved(ctx *predCtx, ip, target uint64, taken bool) {
	if p.loop != nil {
		p.loop.TrainAt(ctx.loopIdx, ctx.loopTag, taken)
	}
	if p.sc != nil {
		p.sc.train(ip, target, taken, ctx.tagePred, &ctx.sc)
	}

	// Newly-allocated arbitration counter: when the provider entry is
	// fresh and disagrees with the alternate, learn which to trust.
	if ctx.provider >= 0 && ctx.newAlloc && ctx.provPred != ctx.altPred {
		p.useAltOnNA = satUpdate(p.useAltOnNA, ctx.altPred == taken, -8, 7)
	}

	// Provider (or bimodal) counter update.
	if ctx.provider >= 0 {
		wi := p.tab[ctx.provider].off + ctx.idx[ctx.provider]
		w := p.bank[wi]
		ctr := satUpdate(packedCtr(w), taken, -4, 3)
		u := p.agedU(w)
		if ctx.provPred != ctx.altPred {
			if ctx.provPred == taken {
				if u < 3 {
					u++
				}
			} else if u > 0 {
				u--
			}
		}
		// When the provider proves useless and the alternate was right,
		// the entry can be reclaimed sooner.
		if ctx.provPred != taken && ctx.altPred == taken && u > 0 {
			u--
		}
		p.bank[wi] = packWord(uint16(w&packedTagMask), ctr, u, true, p.stamp())
	} else {
		p.bimodal[ctx.bim] = satUpdate(p.bimodal[ctx.bim], taken, -2, 1)
	}

	// Allocate on a TAGE misprediction (pre-SC/loop), as in the reference
	// design: SC/loop corrections do not stop TAGE from learning.
	if ctx.tagePred != taken && ctx.provider < p.cfg.NumTables-1 {
		p.allocate(ip, taken, ctx)
	}

	// Periodic graceful aging of usefulness bits: one epoch tick instead
	// of the eager full-table u >>= 1 sweep; pending shifts are applied
	// on touch by agedU, with normalize bounding stamp staleness.
	p.tick++
	if p.tick >= p.cfg.UResetPeriod {
		p.tick = 0
		p.epoch++
		if p.epoch%normalizeEvery == 0 {
			p.normalize()
		}
	}

	p.pushHistory(ip, taken)
}

// allocate claims up to two entries in tables with longer history than the
// provider, preferring entries whose usefulness has decayed to zero.
func (p *Predictor) allocate(ip uint64, taken bool, ctx *predCtx) {
	start := ctx.provider + 1
	// Probabilistically skip the first candidate table to spread
	// allocations across history lengths (as in the reference design).
	if start < p.cfg.NumTables-1 && p.nextRand()&1 == 0 {
		start++
	}
	allocated := 0
	for i := start; i < p.cfg.NumTables && allocated < 2; i++ {
		wi := p.tab[i].off + ctx.idx[i]
		w := p.bank[wi]
		if p.agedU(w) != 0 {
			continue
		}
		var ctr int8
		if !taken {
			ctr = -1
		}
		p.bank[wi] = packWord(ctx.tag[i], ctr, 0, true, p.stamp())
		if p.allocs != nil {
			victim := p.owners[i][ctx.idx[i]]
			p.allocs.record(ip, i, int(ctx.idx[i]), victim, w&packedValid != 0)
			p.owners[i][ctx.idx[i]] = ip
		}
		allocated++
		i++ // leave a gap: at most every other table
	}
	if allocated == 0 {
		// No free entry: decay usefulness on the candidate path so a
		// future allocation can succeed.
		for i := ctx.provider + 1; i < p.cfg.NumTables; i++ {
			wi := p.tab[i].off + ctx.idx[i]
			w := p.bank[wi]
			if u := p.agedU(w); u > 0 {
				p.setU(wi, w, u-1)
			}
		}
	}
}

func (p *Predictor) pushHistory(ip uint64, taken bool) {
	g := p.ghist
	g.push(taken)
	// Advance every folded register: the same circular fold as
	// folded.update, over the fused per-table state. The newest bit is
	// shared by all registers and each table's retiring bit is loaded
	// once for its three registers.
	ring := g.bits
	mask := g.mask
	ptr := g.ptr
	_ = ring[mask] // one bounds check for the whole register walk
	in := uint64(ring[ptr&mask])
	for i := range p.tab {
		t := &p.tab[i]
		out := uint64(ring[(ptr+int(t.histLen))&mask])
		c := t.idxComp<<1 | in
		c ^= out << t.idxOut
		c ^= c >> t.idxCompLen
		t.idxComp = c & t.idxFoldMask
		c = t.tag0Comp<<1 | in
		c ^= out << t.tag0Out
		c ^= c >> t.tag0CompLen
		t.tag0Comp = c & t.tag0FoldMask
		c = t.tag1Comp<<1 | in
		c ^= out << t.tag1Out
		c ^= c >> t.tag1CompLen
		t.tag1Comp = c & t.tag1FoldMask
	}
	p.phist = (p.phist << 1) | (ip>>2)&1
	if p.sc != nil {
		p.sc.pushGlobal(taken)
	}
	p.ctxOK = false
}

// ObserveBranch implements bp.BranchObserver: unconditional control flow
// still shifts the global/path history, exactly as in the CBP harness.
func (p *Predictor) ObserveBranch(ip, target uint64, kind trace.Kind, taken bool) {
	if kind == trace.KindCondBr {
		return // conditionals are handled by Train
	}
	p.pushHistory(ip, true)
}

// RunBlock implements bp.BlockRunner: the measurement loop hands a whole
// replay block to the predictor, which walks it with the predict/retire
// paths inlined — no per-branch interface dispatch, no cached-context
// revalidation — and returns the conditional/mispredict counts. State
// evolution is identical to the equivalent Predict/Train/ObserveBranch
// call sequence.
func (p *Predictor) RunBlock(blk []trace.Inst) (condExecs, mispreds uint64) {
	ctx := &p.ctx
	for j := range blk {
		inst := &blk[j]
		if inst.Kind == trace.KindCondBr {
			condExecs++
			p.predictInternal(ctx, inst.IP)
			if ctx.final != inst.Taken {
				mispreds++
			}
			p.trainResolved(ctx, inst.IP, inst.Target, inst.Taken)
		} else if inst.Kind.IsBranch() {
			p.pushHistory(inst.IP, true)
		}
	}
	return condExecs, mispreds
}

func satUpdate(c int8, up bool, min, max int8) int8 {
	if up {
		if c < max {
			return c + 1
		}
		return c
	}
	if c > min {
		return c - 1
	}
	return c
}

func abs32(x int32) int32 {
	if x < 0 {
		return -x
	}
	return x
}
