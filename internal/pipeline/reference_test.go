package pipeline

import (
	"branchlab/internal/bp"
	"branchlab/internal/btb"
	"branchlab/internal/cache"
	"branchlab/internal/trace"
)

// This file holds the fused timing loop the three passes replaced, kept
// as the oracle of the equivalence suite: one walk per run that drives
// the cache hierarchy, the BTB, the predictor and the schedule together,
// reserving width through the original linear probe. The passes must
// reproduce its Result field for field.

// linearLimiter is the original cycle-indexed width limiter: counts
// events per cycle in a ring and probes forward one cycle at a time.
type linearLimiter struct {
	counts []uint16
	limit  uint16
	// cleared marks the highest cycle whose slot has been reset.
	lastSeen uint64
}

func newLinearLimiter(limit int) *linearLimiter {
	return &linearLimiter{counts: make([]uint16, widthWindow), limit: uint16(limit)}
}

// reserve finds the first cycle >= want with a free slot and claims it.
func (w *linearLimiter) reserve(want uint64) uint64 {
	for {
		w.advance(want)
		i := want & (widthWindow - 1)
		if w.counts[i] < w.limit {
			w.counts[i]++
			return want
		}
		want++
	}
}

// advance lazily clears ring slots the simulation has moved past.
func (w *linearLimiter) advance(cycle uint64) {
	if cycle <= w.lastSeen {
		return
	}
	// Clear slots in (lastSeen, cycle]; they belong to new cycles.
	d := cycle - w.lastSeen
	if d > widthWindow {
		d = widthWindow
	}
	for i := uint64(1); i <= d; i++ {
		w.counts[(w.lastSeen+i)&(widthWindow-1)] = 0
	}
	w.lastSeen = cycle
}

// referenceRun is the fused loop: a fresh hierarchy and BTB for cfg,
// driven in lockstep with the predictor and the schedule.
func referenceRun(cfg Config, bs trace.BlockStream, opt Options) Result {
	hier := cache.NewHierarchy(cfg.Caches)
	var tb *btb.BTB
	if cfg.BTBMissPenalty > 0 {
		tb = btb.New(cfg.BTB)
	}
	var res Result

	var (
		regReady [trace.NumRegs]uint64

		// Ring buffers holding per-entry release cycles for each bounded
		// structure: an instruction cannot claim entry i%N until the
		// previous holder released it.
		robRelease   = make([]uint64, cfg.ROBSize)
		schedRelease = make([]uint64, cfg.SchedSize)
		lqRelease    = make([]uint64, cfg.LQSize)
		sqRelease    = make([]uint64, cfg.SQSize)
		robIdx       int
		schedIdx     int
		lqIdx        int
		sqIdx        int

		fetchLim  = newLinearLimiter(cfg.FetchWidth)
		issueLim  = newLinearLimiter(cfg.IssueWidth)
		retireLim = newLinearLimiter(cfg.RetireWidth)

		fetchReady uint64 // earliest cycle fetch may proceed (redirects)
		lastRetire uint64
		lastCycle  uint64

		// Store-to-load forwarding over the most recent stores.
		storeAddr  = make([]uint64, cfg.SQSize)
		storeDone  = make([]uint64, cfg.SQSize)
		execCounts = make(map[uint64]uint64) // for MinExecsPerfect
	)

	var predBO bp.BranchObserver
	if opt.Predictor != nil {
		predBO, _ = opt.Predictor.(bp.BranchObserver)
	}

	blk := bs.NextBlock()
	j := 0
	for {
		if j >= len(blk) {
			if blk = bs.NextBlock(); len(blk) == 0 {
				break
			}
			j = 0
		}
		inst := &blk[j]
		j++
		res.Insts++

		// --- Fetch ---------------------------------------------------
		fetch := fetchLim.reserve(max(fetchReady, lastCycle0(lastRetire, cfg.fetchLag())))
		if lat := hier.L1I.Access(inst.IP); lat > 0 {
			fetch += lat
		}

		// --- Dispatch: ROB + scheduler occupancy ----------------------
		dispatch := fetch + cfg.FrontDepth
		if r := robRelease[robIdx]; r > dispatch {
			dispatch = r
		}
		if r := schedRelease[schedIdx]; r > dispatch {
			dispatch = r
		}
		if inst.Kind == trace.KindLoad {
			if r := lqRelease[lqIdx]; r > dispatch {
				dispatch = r
			}
		}
		if inst.Kind == trace.KindStore {
			if r := sqRelease[sqIdx]; r > dispatch {
				dispatch = r
			}
		}

		// --- Issue: operand readiness + issue bandwidth ---------------
		ready := dispatch
		for _, r := range inst.SrcRegs {
			if r != trace.NoReg && regReady[r] > ready {
				ready = regReady[r]
			}
		}
		issue := issueLim.reserve(ready)

		// --- Execute ---------------------------------------------------
		var done uint64
		switch inst.Kind {
		case trace.KindLoad:
			lat := hier.L1D.Access(inst.MemAddr)
			block := inst.MemAddr >> 3
			fwd := uint64(0)
			for i := range storeAddr {
				if storeAddr[i] == block && storeDone[i] > fwd {
					fwd = storeDone[i]
				}
			}
			done = max(issue+lat, fwd)
		case trace.KindStore:
			done = issue + execLatency(inst.Kind)
			storeAddr[sqIdx] = inst.MemAddr >> 3
			storeDone[sqIdx] = done
		default:
			done = issue + execLatency(inst.Kind)
		}
		if inst.DstReg != trace.NoReg {
			regReady[inst.DstReg] = done
		}

		// --- Branch handling -------------------------------------------
		if inst.Kind == trace.KindCondBr {
			res.CondExecs++
			pred := inst.Taken
			switch {
			case opt.PerfectBP:
				// oracle
			case opt.PerfectIPs != nil && opt.PerfectIPs[inst.IP]:
				if opt.Predictor != nil {
					p := opt.Predictor.Predict(inst.IP)
					opt.Predictor.Train(inst.IP, inst.Target, inst.Taken, p)
				}
			case opt.MinExecsPerfect > 0 && execCounts[inst.IP] >= opt.MinExecsPerfect:
				if opt.Predictor != nil {
					p := opt.Predictor.Predict(inst.IP)
					opt.Predictor.Train(inst.IP, inst.Target, inst.Taken, p)
				}
			case opt.Predictor != nil:
				pred = opt.Predictor.Predict(inst.IP)
				opt.Predictor.Train(inst.IP, inst.Target, inst.Taken, pred)
			}
			if opt.MinExecsPerfect > 0 {
				execCounts[inst.IP]++
			}
			if pred != inst.Taken {
				res.Mispreds++
				if nr := done + cfg.RedirectPenalty; nr > fetchReady {
					fetchReady = nr
				}
			}
		} else if inst.Kind.IsBranch() {
			if predBO != nil && !opt.PerfectBP {
				predBO.ObserveBranch(inst.IP, inst.Target, inst.Kind, inst.Taken)
			}
		}

		if tb != nil && inst.Kind.IsBranch() {
			predTarget, hit := tb.Lookup(inst.IP, inst.Kind)
			if !tb.Update(inst.IP, inst.Target, inst.Kind, inst.Taken, predTarget, hit) {
				if nr := fetch + cfg.BTBMissPenalty; nr > fetchReady {
					fetchReady = nr
				}
			}
		}

		// --- Retire -----------------------------------------------------
		retire := retireLim.reserve(max(done+1, lastRetire))
		lastRetire = retire
		lastCycle = max(lastCycle, retire)

		robRelease[robIdx] = retire
		robIdx++
		if robIdx == cfg.ROBSize {
			robIdx = 0
		}
		schedRelease[schedIdx] = issue
		schedIdx++
		if schedIdx == cfg.SchedSize {
			schedIdx = 0
		}
		if inst.Kind == trace.KindLoad {
			lqRelease[lqIdx] = done
			lqIdx++
			if lqIdx == cfg.LQSize {
				lqIdx = 0
			}
		}
		if inst.Kind == trace.KindStore {
			sqRelease[sqIdx] = retire
			sqIdx++
			if sqIdx == cfg.SQSize {
				sqIdx = 0
			}
		}
	}

	res.Cycles = lastCycle
	if res.Cycles > 0 {
		res.IPC = float64(res.Insts) / float64(res.Cycles)
	}
	if res.Insts > 0 {
		res.MPKI = 1000 * float64(res.Mispreds) / float64(res.Insts)
		res.L1DMissPKI = 1000 * float64(hier.L1D.Stats().Misses) / float64(res.Insts)
	}
	return res
}
