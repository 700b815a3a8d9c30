package pipeline

import (
	"fmt"
	"math"
	"math/bits"

	"branchlab/internal/trace"
)

// Schedule is the timing pass: it propagates per-instruction timestamps
// through the core cfg describes, taking each instruction's cache levels
// and BTB bubble from ann and each conditional branch's prediction from
// out. ann must come from Annotate over the same trace with a cfg of the
// same Caches and BTB (any scale); out from Predict over the same trace,
// or nil for a regime that mispredicts nothing. opt selects the oracle
// regime applied over out — PerfectBP ignores out, PerfectIPs and
// MinExecsPerfect mask it — and opt.Predictor is not consulted. The
// result equals Core.RunBlocks with the predictor out was recorded from.
// Like New, it panics on a cfg the model does not support (MaxScale).
func Schedule(bs trace.BlockStream, cfg Config, ann *Annotation, out *Outcomes, opt Options) Result {
	if err := checkConfig(cfg); err != nil {
		panic(err)
	}
	if !ann.fits(cfg) {
		panic(fmt.Sprintf("pipeline: annotation does not fit %s (caches %+v, BTB penalty %d)", cfg.Name, cfg.Caches, cfg.BTBMissPenalty))
	}
	s := newScheduler(cfg, ann.l1i, ann.l1d, opt)
	var miss []uint64
	if out != nil && !opt.PerfectBP {
		if out.n != len(ann.marks) {
			panic(fmt.Sprintf("pipeline: outcomes cover %d instructions, annotation %d", out.n, len(ann.marks)))
		}
		miss = out.miss
	}
	base := 0
	for blk := bs.NextBlock(); len(blk) > 0; blk = bs.NextBlock() {
		end := base + len(blk)
		if end > len(ann.marks) {
			panic(fmt.Sprintf("pipeline: trace longer than its %d-instruction annotation", len(ann.marks)))
		}
		s.block(blk, ann.marks[base:end], miss, base)
		base = end
	}
	if base != len(ann.marks) {
		panic(fmt.Sprintf("pipeline: %d-instruction trace, %d-instruction annotation", base, len(ann.marks)))
	}
	return s.result(ann.l1dMisses)
}

// scheduler is the timing pass's state between blocks. block copies the
// scalars into locals for the length of a block and writes them back at
// its end, so the per-instruction loop keeps them in registers.
type scheduler struct {
	cfg      Config
	opt      Options
	l1i, l1d levels

	regReady [trace.NumRegs]uint64

	// Ring buffers holding per-entry release cycles for each bounded
	// structure: an instruction cannot claim entry i%N until the
	// previous holder released it.
	robRelease, schedRelease, lqRelease, sqRelease []uint64
	robIdx, schedIdx, lqIdx, sqIdx                 int

	// Fetch and retire requests arrive in order (see inOrderLimiter);
	// issue requests do not. The retire limiter's cycle is the last
	// retirement, which is also the run's last cycle: retirement never
	// goes backwards.
	fetchLim, retireLim inOrderLimiter
	issueLim            *widthLimiter

	fetchReady uint64 // earliest cycle fetch may proceed (redirects)

	stores     storeWindow       // store-to-load forwarding
	execCounts map[uint64]uint64 // for MinExecsPerfect

	res Result
}

func newScheduler(cfg Config, l1i, l1d levels, opt Options) *scheduler {
	s := &scheduler{
		cfg: cfg, opt: opt, l1i: l1i, l1d: l1d,
		robRelease:   make([]uint64, cfg.ROBSize),
		schedRelease: make([]uint64, cfg.SchedSize),
		lqRelease:    make([]uint64, cfg.LQSize),
		sqRelease:    make([]uint64, cfg.SQSize),
		fetchLim:     inOrderLimiter{limit: cfg.FetchWidth},
		issueLim:     newWidthLimiter(cfg.IssueWidth),
		retireLim:    inOrderLimiter{limit: cfg.RetireWidth},
		stores:       newStoreWindow(cfg.SQSize),
	}
	if opt.MinExecsPerfect > 0 {
		s.execCounts = make(map[uint64]uint64)
	}
	return s
}

// kindRow is what the schedule kernel takes from an instruction's kind,
// looked up once per instruction in kindTable instead of branching on
// the kind.
type kindRow struct {
	lat         uint64 // execLatency
	load, store uint64 // all ones for a load, for a store
	cond        uint64 // 1 for a conditional branch
}

// kindTable tabulates kindRow over every Kind byte, so the latency is
// execLatency's for any kind, valid or not.
var kindTable = func() (t [256]kindRow) {
	for k := range t {
		kind := trace.Kind(k)
		t[k].lat = execLatency(kind)
		switch kind {
		case trace.KindLoad:
			t[k].load = ^uint64(0)
		case trace.KindStore:
			t[k].store = ^uint64(0)
		case trace.KindCondBr:
			t[k].cond = 1
		}
	}
	return t
}()

// block schedules blk. marks[j] is blk[j]'s annotation; bit base+j of
// miss is set when the predictor mispredicted blk[j] (miss nil: no
// mispredictions).
//
// The loop is written for the host's branch predictor as much as for
// clarity: the timestamps it compares are data, so every comparison
// that only picks a value is a max or a mask (which the compiler turns
// into conditional moves), and a kind test guards only work that cannot
// be done unconditionally — the forwarding window, the register file's
// bounds-checked slots and the oracle maps.
func (s *scheduler) block(blk []trace.Inst, marks []byte, miss []uint64, base int) {
	cfg := &s.cfg
	frontDepth, redirect, btbPenalty := cfg.FrontDepth, cfg.RedirectPenalty, cfg.BTBMissPenalty
	lag := cfg.fetchLag()
	hasOracle := s.opt.PerfectIPs != nil || s.opt.MinExecsPerfect > 0
	l1i, l1d := &s.l1i, &s.l1d
	regReady := &s.regReady
	issueLim, stores := s.issueLim, &s.stores
	rob, sched, lq, sq := s.robRelease, s.schedRelease, s.lqRelease, s.sqRelease
	robIdx, schedIdx, lqIdx, sqIdx := s.robIdx, s.schedIdx, s.lqIdx, s.sqIdx
	fetchLim, retireLim := s.fetchLim, s.retireLim
	fetchReady := s.fetchReady
	var condExecs, mispreds uint64

	marks = marks[:len(blk)]
	for j := range blk {
		inst := &blk[j]
		m := marks[j]
		k := &kindTable[inst.Kind]
		isLoad, isStore := k.load, k.store

		// --- Fetch, delayed by the instruction-cache access ----------
		lastRetire := retireLim.cycle
		fetchLim = fetchLim.next(max(fetchReady, lastCycle0(lastRetire, lag)))
		fetch := fetchLim.cycle + l1i[m&levelMask]

		// --- Dispatch: ROB, scheduler, LQ and SQ occupancy -----------
		dispatch := max(fetch+frontDepth, rob[robIdx], sched[schedIdx], lq[lqIdx]&isLoad, sq[sqIdx]&isStore)

		// --- Issue: operand readiness + issue bandwidth ---------------
		ready := dispatch
		if r := inst.SrcRegs[0]; r != trace.NoReg {
			ready = max(ready, regReady[r])
		}
		if r := inst.SrcRegs[1]; r != trace.NoReg {
			ready = max(ready, regReady[r])
		}
		issue := issueLim.reserve(ready)

		// --- Execute ---------------------------------------------------
		done := issue + k.lat
		if isLoad != 0 {
			// Store-to-load forwarding: a recent store to the same block
			// bounds the load's completion from below.
			done = max(issue+l1d[m>>l1dShift&levelMask], stores.forward(inst.MemAddr>>3))
		} else if isStore != 0 {
			stores.push(inst.MemAddr>>3, done)
		}
		if r := inst.DstReg; r != trace.NoReg {
			regReady[r] = done
		}

		// --- Branch resolution -----------------------------------------
		// Only conditional branches have a miss bit. A mispredicted one
		// squashes wrong-path fetch when it resolves: fetch restarts
		// after the redirect penalty. A BTB miss stalls fetch likewise.
		var mis uint64
		if miss != nil {
			i := base + j
			mis = -(miss[i>>6] >> (i & 63) & 1)
		}
		if hasOracle && k.cond != 0 {
			mis = s.oracle(inst.IP, mis)
		}
		condExecs += k.cond
		mispreds -= mis
		bubble := -(uint64(m>>btbBubbleShift) & 1)
		fetchReady = max(fetchReady, (done+redirect)&mis, (fetch+btbPenalty)&bubble)

		// --- Retire -----------------------------------------------------
		retireLim = retireLim.next(max(done+1, lastRetire))
		retire := retireLim.cycle

		// Release bounded structures.
		rob[robIdx] = retire
		if robIdx++; robIdx == len(rob) {
			robIdx = 0
		}
		sched[schedIdx] = issue
		if schedIdx++; schedIdx == len(sched) {
			schedIdx = 0
		}
		lq[lqIdx] = done&isLoad | lq[lqIdx]&^isLoad
		if lqIdx += int(isLoad & 1); lqIdx == len(lq) {
			lqIdx = 0
		}
		sq[sqIdx] = retire&isStore | sq[sqIdx]&^isStore
		if sqIdx += int(isStore & 1); sqIdx == len(sq) {
			sqIdx = 0
		}
	}

	s.robIdx, s.schedIdx, s.lqIdx, s.sqIdx = robIdx, schedIdx, lqIdx, sqIdx
	s.fetchLim, s.retireLim = fetchLim, retireLim
	s.fetchReady = fetchReady
	s.res.Insts += uint64(len(blk))
	s.res.CondExecs += condExecs
	s.res.Mispreds += mispreds
}

// oracle applies the oracle regimes to a conditional branch at ip whose
// predictor outcome is mis (all ones: mispredicted) and returns the
// outcome the schedule sees: PerfectIPs hides a misprediction on its
// branches, and MinExecsPerfect hides one on a branch executed at least
// that often before (counting every execution).
func (s *scheduler) oracle(ip, mis uint64) uint64 {
	if mis != 0 && s.opt.PerfectIPs[ip] {
		mis = 0
	}
	if minExecs := s.opt.MinExecsPerfect; minExecs > 0 {
		n := s.execCounts[ip]
		if n >= minExecs {
			mis = 0
		}
		s.execCounts[ip] = n + 1
	}
	return mis
}

// result finalizes the run given the L1D miss count of its hierarchy.
func (s *scheduler) result(l1dMisses uint64) Result {
	res := s.res
	res.Cycles = s.retireLim.cycle
	if res.Cycles > 0 {
		res.IPC = float64(res.Insts) / float64(res.Cycles)
	}
	if res.Insts > 0 {
		res.MPKI = 1000 * float64(res.Mispreds) / float64(res.Insts)
		res.L1DMissPKI = 1000 * float64(l1dMisses) / float64(res.Insts)
	}
	return res
}

// lastCycle0 bounds fetch from below so that fetch cannot fall
// unboundedly behind retirement bookkeeping: it keeps fetch and issue
// requests within the width window of their limiters' latest grants
// (see checkConfig). lag is the Config's fetchLag.
func lastCycle0(lastRetire, lag uint64) uint64 {
	floor := lastRetire - lag
	if lastRetire <= lag {
		floor = 0
	}
	return floor
}

// fetchLag is how far fetch may trail the last retirement:
// ROBSize+FrontDepth+widthWindow/2 cycles.
func (c *Config) fetchLag() uint64 { return uint64(c.ROBSize) + c.FrontDepth + widthWindow/2 }

// widthWindow is the width limiter's ring length in cycles. The window
// must exceed any look-back distance, which is bounded by the largest
// latency chain (memory latency + penalties « window).
const widthWindow = 1 << 15

// MaxScale is the largest pipeline scale the timing model supports.
// Skylake().Scaled(k) passes checkConfig up to 73x; MaxScale rounds
// that down.
const MaxScale = 64

// checkConfig reports an error unless the timing model is exact for
// cfg. A fetch or issue request is at least lastCycle0(lastRetire), and
// every earlier fetch or issue grant is below lastRetire, so a request
// trails its limiter's latest grant by less than ROBSize+FrontDepth+
// widthWindow/2 cycles. The issue ring, and the linear probe the
// in-order fetch counter matches, are exact only while that lag stays
// below widthWindow (ROBSize is 224 per scale step). The issue width
// must also fit the ring's 16-bit per-cycle count.
func checkConfig(cfg Config) error {
	if cfg.fetchLag() >= widthWindow {
		return fmt.Errorf("pipeline: %s unsupported: ROB %d + front depth %d + %d reaches the %d-cycle width window (scales up to %dx are supported)",
			cfg.Name, cfg.ROBSize, cfg.FrontDepth, widthWindow/2, widthWindow, MaxScale)
	}
	if cfg.IssueWidth > math.MaxUint16 {
		return fmt.Errorf("pipeline: %s unsupported: issue width %d exceeds the ring's %d per cycle", cfg.Name, cfg.IssueWidth, math.MaxUint16)
	}
	return nil
}

// inOrderLimiter is a width limiter for a request stream in which every
// request is at least the previous one, or at least the previous grant.
// For such a stream every cycle from a request up to the last grant is
// already full, so the first free cycle at or after a request is the
// request itself when it is past the last grant, else the last grant
// while it has room, else the cycle after it. Two counters give that
// answer in O(1); it equals the linear probe's whenever a request trails
// the last grant by less than widthWindow (the ring never aliases).
// Fetch requests never decrease — fetchReady and lastRetire only grow —
// and stay within the window (checkConfig); each retire request is at
// least the previous retirement.
type inOrderLimiter struct {
	cycle uint64 // the last granted cycle
	n     int    // grants in cycle
	limit int
}

// next returns the limiter after it grants a request for want; the
// grant is its cycle. It is written as selects, not a three-way switch:
// which case applies depends on the timestamps, which the host's branch
// predictor cannot learn.
func (w inOrderLimiter) next(want uint64) inOrderLimiter {
	cycle, n := w.cycle, w.n+1
	if n > w.limit { // the last granted cycle is full
		cycle, n = cycle+1, 1
	}
	if want > w.cycle {
		cycle, n = want, 1
	}
	return inOrderLimiter{cycle: cycle, n: n, limit: w.limit}
}

// storeWindow is the store-to-load forwarding window: the last SQSize
// stores' blocks and completion cycles. Stores are numbered from 1 in
// program order and kept in a power-of-two ring of at least SQSize
// entries; each links to the previous store whose block hashes to the
// same bucket of a head table of at least 4*SQSize buckets. A load
// walks its bucket's chain newest first and stops at the first store
// that has left the window (seq <= n-SQSize): the chain's seqs only
// fall, and every live store's ring entry is still its own. The walk
// visits the live stores in one bucket instead of all SQSize entries,
// and takes the same maximum as a scan of the whole window.
type storeWindow struct {
	ring  []storeEntry // seq & (len-1)
	heads []uint64     // newest seq per bucket, 0 for none
	shift uint         // bucket = block*hashMul >> shift
	size  uint64       // SQSize
	n     uint64       // stores pushed, the newest seq
}

type storeEntry struct {
	block, done uint64
	prev        uint64 // previous seq in the same bucket, 0 for none
}

// hashMul is 2^64 divided by the golden ratio (Fibonacci hashing).
const hashMul = 0x9e3779b97f4a7c15

func newStoreWindow(size int) storeWindow {
	b := bits.Len(uint(4*size - 1)) // 1<<b >= 4*size buckets
	return storeWindow{
		ring:  make([]storeEntry, 1<<bits.Len(uint(size-1))),
		heads: make([]uint64, 1<<b),
		shift: 64 - uint(b),
		size:  uint64(size),
	}
}

func (w *storeWindow) bucket(block uint64) uint64 { return block * hashMul >> w.shift }

// forward returns the latest completion among the window's stores to
// block, or 0 when none is in the window.
func (w *storeWindow) forward(block uint64) uint64 {
	fwd := uint64(0)
	mask := uint64(len(w.ring) - 1)
	for q := w.heads[w.bucket(block)]; q != 0 && w.n-q < w.size; {
		e := &w.ring[q&mask]
		if e.block == block && e.done > fwd {
			fwd = e.done
		}
		q = e.prev
	}
	return fwd
}

// push records the next store in program order.
func (w *storeWindow) push(block, done uint64) {
	w.n++
	h := &w.heads[w.bucket(block)]
	w.ring[w.n&uint64(len(w.ring)-1)] = storeEntry{block: block, done: done, prev: *h}
	*h = w.n
}

// widthLimiter is a cycle-indexed width limiter: it counts events per
// cycle in a ring of widthWindow slots and hands out the first cycle at
// or after a requested one with a free slot. The slots cover the cycles
// (lastSeen-widthWindow, lastSeen], and a request beyond lastSeen clears
// the slots of the cycles it passes. A request must trail lastSeen by
// less than widthWindow; the schedule's issue requests always do for a
// supported Config (see MaxScale).
//
// A full slot carries a skip distance: every cycle in [c, c+skip) is
// full, and c+skip <= lastSeen+1. Reserve follows skips instead of
// probing cycle by cycle and compresses the path it took, so a
// saturated stream costs amortized O(1) per reservation where a linear
// probe costs O(backlog). It returns exactly the cycle the linear probe
// returns.
type widthLimiter struct {
	slots    []widthSlot
	limit    uint16
	lastSeen uint64 // highest cycle whose slot has been reset
}

type widthSlot struct {
	n    uint16 // reservations claimed in the slot's cycle
	skip uint16 // when n == limit: cycles ahead to look for a free slot
}

func newWidthLimiter(limit int) *widthLimiter {
	return &widthLimiter{slots: make([]widthSlot, widthWindow), limit: uint16(limit)}
}

// reserve finds the first cycle >= want with a free slot and claims it.
func (w *widthLimiter) reserve(want uint64) uint64 {
	x := want
	if want > w.lastSeen {
		w.advance(want)
	} else if w.slots[want&(widthWindow-1)].n == w.limit {
		if x = w.nextFree(want); x > w.lastSeen {
			w.advance(x)
		}
	}
	w.claim(x)
	return x
}

// nextFree returns the first cycle >= c (c in the window) whose slot is
// not full, or lastSeen+1, compressing the skips it followed.
func (w *widthLimiter) nextFree(c uint64) uint64 {
	x := c
	for x <= w.lastSeen {
		s := &w.slots[x&(widthWindow-1)]
		if s.n < w.limit {
			break
		}
		x += uint64(s.skip)
	}
	for y := c; y < x; {
		s := &w.slots[y&(widthWindow-1)]
		next := y + uint64(s.skip)
		s.skip = uint16(x - y)
		y = next
	}
	return x
}

// claim takes one reservation in the in-window cycle x.
func (w *widthLimiter) claim(x uint64) {
	s := &w.slots[x&(widthWindow-1)]
	if s.n++; s.n == w.limit {
		s.skip = 1
	}
}

// advance lazily clears ring slots the simulation has moved past.
func (w *widthLimiter) advance(cycle uint64) {
	// Clear slots in (lastSeen, cycle]; they belong to new cycles.
	d := cycle - w.lastSeen
	if d > widthWindow {
		d = widthWindow
	}
	for i := uint64(1); i <= d; i++ {
		w.slots[(w.lastSeen+i)&(widthWindow-1)].n = 0
	}
	w.lastSeen = cycle
}
