package pipeline

import (
	"fmt"

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
func Schedule(bs trace.BlockStream, cfg Config, ann *Annotation, out *Outcomes, opt Options) Result {
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

// scheduler is the timing pass's state between blocks.
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

	fetchLim, issueLim, retireLim *widthLimiter

	fetchReady uint64 // earliest cycle fetch may proceed (redirects)
	lastRetire uint64
	lastCycle  uint64

	// Store-to-load forwarding over the most recent stores.
	storeAddr, storeDone []uint64
	execCounts           map[uint64]uint64 // for MinExecsPerfect

	res Result
}

func newScheduler(cfg Config, l1i, l1d levels, opt Options) *scheduler {
	s := &scheduler{
		cfg: cfg, opt: opt, l1i: l1i, l1d: l1d,
		robRelease:   make([]uint64, cfg.ROBSize),
		schedRelease: make([]uint64, cfg.SchedSize),
		lqRelease:    make([]uint64, cfg.LQSize),
		sqRelease:    make([]uint64, cfg.SQSize),
		fetchLim:     newWidthLimiter(cfg.FetchWidth),
		issueLim:     newWidthLimiter(cfg.IssueWidth),
		retireLim:    newWidthLimiter(cfg.RetireWidth),
		storeAddr:    make([]uint64, cfg.SQSize),
		storeDone:    make([]uint64, cfg.SQSize),
	}
	if opt.MinExecsPerfect > 0 {
		s.execCounts = make(map[uint64]uint64)
	}
	return s
}

// block schedules blk. marks[j] is blk[j]'s annotation; bit base+j of
// miss is set when the predictor mispredicted blk[j] (miss nil: no
// mispredictions).
func (s *scheduler) block(blk []trace.Inst, marks []byte, miss []uint64, base int) {
	cfg := &s.cfg
	perfectIPs, minExecs := s.opt.PerfectIPs, s.opt.MinExecsPerfect
	for j := range blk {
		inst := &blk[j]
		m := marks[j]
		s.res.Insts++

		// --- Fetch, delayed by the instruction-cache access ----------
		fetch := s.fetchLim.reserve(maxU(s.fetchReady, lastCycle0(s.lastRetire, cfg))) + s.l1i[m&levelMask]

		// --- Dispatch: ROB + scheduler occupancy ----------------------
		dispatch := fetch + cfg.FrontDepth
		if r := s.robRelease[s.robIdx]; r > dispatch {
			dispatch = r
		}
		if r := s.schedRelease[s.schedIdx]; r > dispatch {
			dispatch = r
		}
		if inst.Kind == trace.KindLoad {
			if r := s.lqRelease[s.lqIdx]; r > dispatch {
				dispatch = r
			}
		}
		if inst.Kind == trace.KindStore {
			if r := s.sqRelease[s.sqIdx]; r > dispatch {
				dispatch = r
			}
		}

		// --- Issue: operand readiness + issue bandwidth ---------------
		ready := dispatch
		for _, r := range inst.SrcRegs {
			if r != trace.NoReg && s.regReady[r] > ready {
				ready = s.regReady[r]
			}
		}
		issue := s.issueLim.reserve(ready)

		// --- Execute ---------------------------------------------------
		var done uint64
		switch inst.Kind {
		case trace.KindLoad:
			// Store-to-load forwarding: a recent store to the same block
			// bounds the load's completion from below.
			block := inst.MemAddr >> 3
			fwd := uint64(0)
			for i, a := range s.storeAddr {
				if a == block && s.storeDone[i] > fwd {
					fwd = s.storeDone[i]
				}
			}
			done = maxU(issue+s.l1d[m>>l1dShift&levelMask], fwd)
		case trace.KindStore:
			done = issue + execLatency(inst.Kind)
			s.storeAddr[s.sqIdx] = inst.MemAddr >> 3
			s.storeDone[s.sqIdx] = done
		default:
			done = issue + execLatency(inst.Kind)
		}
		if inst.DstReg != trace.NoReg {
			s.regReady[inst.DstReg] = done
		}

		// --- Branch resolution -----------------------------------------
		if inst.Kind == trace.KindCondBr {
			s.res.CondExecs++
			i := base + j
			mis := miss != nil && miss[i>>6]&(1<<(i&63)) != 0
			if mis && perfectIPs != nil && perfectIPs[inst.IP] {
				mis = false
			}
			if minExecs > 0 {
				n := s.execCounts[inst.IP]
				if n >= minExecs {
					mis = false
				}
				s.execCounts[inst.IP] = n + 1
			}
			if mis {
				s.res.Mispreds++
				// Wrong-path fetch is squashed when the branch resolves;
				// fetch restarts after the redirect penalty.
				if nr := done + cfg.RedirectPenalty; nr > s.fetchReady {
					s.fetchReady = nr
				}
			}
		}
		if m&btbBubble != 0 {
			if nr := fetch + cfg.BTBMissPenalty; nr > s.fetchReady {
				s.fetchReady = nr
			}
		}

		// --- Retire -----------------------------------------------------
		retire := s.retireLim.reserve(maxU(done+1, s.lastRetire))
		s.lastRetire = retire
		s.lastCycle = maxU(s.lastCycle, retire)

		// Release bounded structures.
		s.robRelease[s.robIdx] = retire
		if s.robIdx++; s.robIdx == cfg.ROBSize {
			s.robIdx = 0
		}
		s.schedRelease[s.schedIdx] = issue
		if s.schedIdx++; s.schedIdx == cfg.SchedSize {
			s.schedIdx = 0
		}
		if inst.Kind == trace.KindLoad {
			s.lqRelease[s.lqIdx] = done
			if s.lqIdx++; s.lqIdx == cfg.LQSize {
				s.lqIdx = 0
			}
		}
		if inst.Kind == trace.KindStore {
			s.sqRelease[s.sqIdx] = retire
			if s.sqIdx++; s.sqIdx == cfg.SQSize {
				s.sqIdx = 0
			}
		}
	}
}

// result finalizes the run given the L1D miss count of its hierarchy.
func (s *scheduler) result(l1dMisses uint64) Result {
	res := s.res
	res.Cycles = s.lastCycle
	if res.Cycles > 0 {
		res.IPC = float64(res.Insts) / float64(res.Cycles)
	}
	if res.Insts > 0 {
		res.MPKI = 1000 * float64(res.Mispreds) / float64(res.Insts)
		res.L1DMissPKI = 1000 * float64(l1dMisses) / float64(res.Insts)
	}
	return res
}

func maxU(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}

// lastCycle0 bounds fetch from below so that fetch cannot fall
// unboundedly behind retirement bookkeeping (keeps the width-limiter ring
// windows aligned).
func lastCycle0(lastRetire uint64, cfg *Config) uint64 {
	if lastRetire > uint64(cfg.ROBSize)+cfg.FrontDepth+widthWindow/2 {
		return lastRetire - uint64(cfg.ROBSize) - cfg.FrontDepth - widthWindow/2
	}
	return 0
}

// widthWindow is the width limiter's ring length in cycles. The window
// must exceed any look-back distance, which is bounded by the largest
// latency chain (memory latency + penalties « window).
const widthWindow = 1 << 15

// widthLimiter is a cycle-indexed width limiter: it counts events per
// cycle in a ring of widthWindow slots and hands out the first cycle at
// or after a requested one with a free slot. The slots cover the cycles
// (lastSeen-widthWindow, lastSeen]; a request beyond lastSeen clears the
// slots of the cycles it passes, and a request a whole window or more
// behind lastSeen reads the ring slot it aliases onto.
//
// A full slot carries a skip distance: every cycle in [c, c+skip) is
// full, and c+skip <= lastSeen+1. Reserve follows skips instead of
// probing cycle by cycle and compresses the path it took, so a
// saturated stream costs amortized O(1) per reservation where a linear
// probe costs O(backlog). It returns exactly the cycle the linear probe
// returns, aliasing included.
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
	if want > w.lastSeen {
		w.advance(want)
		w.claim(want)
		return want
	}
	// c is the in-window cycle want's slot holds: want itself unless
	// want fell a whole window behind, when a probe reads the slots of
	// c, c+1, ..., lastSeen and then wraps onto the oldest cycles.
	c := w.lastSeen - (w.lastSeen-want)&(widthWindow-1)
	if w.slots[c&(widthWindow-1)].n < w.limit {
		w.claim(c)
		return want
	}
	x := w.nextFree(c)
	if x > w.lastSeen && c != want {
		oldest := w.lastSeen + 1 - widthWindow
		if y := w.nextFree(oldest); y < c {
			w.claim(y)
			return want + (w.lastSeen + 1 - c) + (y - oldest)
		}
		// Every slot is full: the probe runs past lastSeen.
	}
	if x > w.lastSeen {
		w.advance(x)
		w.claim(x)
		return x
	}
	w.claim(x)
	return want + (x - c)
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
