package workload

import (
	"fmt"

	"branchlab/internal/program"
	"branchlab/internal/xrand"
)

// mix parameterizes the generator. Every workload is the same machine with
// different knob settings; the knobs control exactly the trace properties
// the paper measures.
type mix struct {
	// Hot, easy code: loops, periodic patterns, biased branches.
	loopTrip       int // base loop trip count
	loopCount      int // distinct loop-branch statics
	patterns       int // pattern-branch statics
	patternLen     int // pattern period
	patternsActive int // pattern branches exercised per phase
	biased         int // biased-branch statics
	biasedAcc      float64
	biasedPerRound int

	// H2P machinery: (dependency, h2p) pairs plus standalone hard
	// branches, with variable-distance correlation and noise.
	h2pPairs    int
	h2pSolo     int
	h2pNoise    float64 // P(h2p direction flips vs its dependency branch)
	h2pPerRound int
	maxGap      int  // max noise branches between dependency and h2p
	depEasy     bool // dependency branches nearly perfectly predictable
	// (still correlated with the H2P, but not H2Ps themselves)

	// Cold, rare code (dominant in the LCF suite).
	rareStaticPaper int // paper-scale static count; scaled by budget/30M
	rareMinStatic   int // floor after scaling
	rareLen         int // branches per cold burst
	rareEvery       int // rounds between bursts (0 = never)
	rareRandomFrac  float64
	// rarePhaseFlip is the fraction of cold branches whose preferred
	// direction depends on the current program phase: stable within a
	// phase, flipped across phases. These are the branches the paper's
	// §V-B phase-conditioning proposal targets.
	rarePhaseFlip float64
	// takenSkew is the fraction of pool branches whose preferred
	// direction is taken. Hot code skews toward taken; a branch whose
	// stable direction opposes the bimodal majority suffers destructive
	// aliasing when it executes too rarely to hold a tagged entry — the
	// rare-branch pathology of §IV-B, which should dominate the LCF
	// suite but stay mild in SPEC-like workloads.
	takenSkew float64

	// Structure.
	phases        int
	callDepth     int
	padding       int     // filler instructions per round
	memOps        int     // loads/stores per round
	memRandomFrac float64 // fraction of loads to cache-hostile addresses
}

// Branch-ID space layout. Stable across inputs so that H2Ps recur across
// application inputs (Table I's "3+ inputs" column).
const (
	idLoop    = 0
	idPattern = 200
	idBiased  = 1200
	idNoise   = 3400
	idDep     = 4000
	idH2P     = 4500
	idSolo    = 4800
	idRare    = 10000

	numNoise = 12
)

type gen struct {
	e     *program.Emitter
	r     *xrand.Rand
	m     mix
	input int

	h2pVal     []uint64 // random-walk state per pair
	soloVal    []uint64
	h2pPick    *xrand.Zipf // skewed selection -> heavy hitters (Fig 2)
	patCount   []uint64    // per-pattern execution counters
	noiseCount [numNoise]uint64

	rareStatic int
	rareCursor int
	strideAddr uint64
	round      uint64
}

func newGen(e *program.Emitter, m mix, input int) *gen {
	g := &gen{
		e:        e,
		r:        e.Rand(),
		m:        m,
		input:    input,
		h2pVal:   make([]uint64, m.h2pPairs),
		soloVal:  make([]uint64, m.h2pSolo),
		patCount: make([]uint64, max(1, m.patterns)),
	}
	for i := range g.h2pVal {
		g.h2pVal[i] = uint64(1000 + 64*i)
	}
	for i := range g.soloVal {
		g.soloVal[i] = uint64(7777 + 128*i)
	}
	if n := m.h2pPairs + m.h2pSolo; n > 0 {
		z, err := xrand.NewZipf(g.r, n, 1.1)
		if err != nil {
			// Unreachable: n > 0 is guarded above and the exponent is a
			// positive constant, but a mix-table edit that breaks this
			// should fail the run loudly — as a typed error attributed to
			// the recording, not a process-killing panic (the same
			// convention as ErrNonPositiveRanks).
			e.Abort(fmt.Errorf("workload: generator input %d: %w", input, err))
		}
		g.h2pPick = z
	}
	// Scale the cold footprint with the instruction budget, preserving
	// the paper's per-30M-slice static counts (DESIGN.md §1).
	g.rareStatic = int(float64(m.rareStaticPaper) * float64(e.Budget()) / 30e6)
	if g.rareStatic < m.rareMinStatic {
		g.rareStatic = m.rareMinStatic
	}
	return g
}

func (g *gen) run() {
	e := g.e
	phases := max(1, g.m.phases)
	phaseLen := e.Budget() / uint64(2*phases)
	if phaseLen < 32768 {
		phaseLen = 32768
	}
	// One flat loop walking the phases; the top of each round is the
	// payload's safe point.
	ph, phStart := 0, uint64(0)
	for e.Running() {
		if e.InstCount()-phStart >= phaseLen {
			ph++
			if ph == phases {
				ph = 0
			}
			phStart = e.InstCount()
		}
		e.SafePoint()
		g.roundExec(ph)
	}
}

func (g *gen) roundExec(ph int) {
	e := g.e
	if g.m.callDepth > 0 {
		e.Call(ph % 4)
	}
	g.loopNest(ph)
	g.patternBlock(ph)
	g.biasedBlock()
	for i := 0; i < g.m.h2pPerRound; i++ {
		g.hardExec()
	}
	if g.m.rareEvery > 0 && g.round%uint64(g.m.rareEvery) == 0 {
		g.rareBurst(ph)
	}
	g.memBlock(ph)
	e.Compute(g.m.padding)
	if g.m.callDepth > 0 {
		e.Ret()
	}
	g.round++
}

// loopNest emits a fixed-trip loop; the trip count is stable within a
// phase so the loop predictor and TAGE capture it fully.
func (g *gen) loopNest(ph int) {
	if g.m.loopCount == 0 {
		return
	}
	trip := g.m.loopTrip + ph%3 + g.input%2
	id := idLoop + ph%g.m.loopCount
	for j := 0; j < trip; j++ {
		g.e.Compute(3)
		g.e.CondBackward(id, j < trip-1)
	}
}

// patternBlock executes the phase's active window of hot, almost-always-
// taken branches with a rare deterministic flip (loop-exit-like shape,
// period 64-255). They model the well-predicted hot code that dominates
// real applications: individually >= 0.99 accurate so they never screen
// as H2Ps, but collectively a steady trickle of mispredictions.
func (g *gen) patternBlock(ph int) {
	if g.m.patterns == 0 {
		return
	}
	active := max(1, g.m.patternsActive)
	base := (ph * active) % g.m.patterns
	for k := 0; k < active; k++ {
		id := (base + k) % g.m.patterns
		period := 64 + xrand.Mix64(uint64(id)*0x5851f42d4c957f2d+uint64(g.input))%192
		taken := g.patCount[id]%period != period-1
		g.patCount[id]++
		g.e.Compute(2)
		g.e.Cond(idPattern+id, taken)
	}
}

// biasedBlock executes branches from a large pool of moderately biased
// statics. Each branch individually executes too rarely to meet the H2P
// screening thresholds — this is the paper's long tail of imperfect but
// non-systematic mispredictions, and the knob behind Table I's "Avg.
// Acc. excl. H2Ps" column.
func (g *gen) biasedBlock() {
	for k := 0; k < g.m.biasedPerRound; k++ {
		id := g.r.Intn(max(1, g.m.biased))
		h := xrand.Mix64(uint64(id)*31 + 7)
		sense := float64(h&0xFFFF)/65536 < g.m.takenSkew
		// Per-branch bias spread around the configured pool accuracy.
		p := g.m.biasedAcc + (float64(h>>8&0xFF)/255-0.5)*0.04
		if p > 0.999 {
			p = 0.999
		}
		taken := sense == g.r.Bool(p)
		g.e.Compute(2)
		g.e.Cond(idBiased+id, taken)
	}
}

// hardExec runs one execution of the H2P kernel: a dependency branch
// whose direction is a slowly-flipping function of a shared variable,
// a variable-length run of noise branches, and the H2P itself, whose
// direction copies the dependency branch with probability 1-h2pNoise.
// The variable gap reproduces the history-position variation of Fig 6;
// the shared variable gives the dependency-graph analysis (Table III) and
// the register-value study (Fig 10) real signal.
func (g *gen) hardExec() {
	e := g.e
	total := g.m.h2pPairs + g.m.h2pSolo
	if total == 0 {
		return
	}
	pick := g.h2pPick.Next()
	if pick < g.m.h2pPairs {
		i := pick
		g.h2pVal[i] += uint64(g.r.Intn(3)) - 1
		v := g.h2pVal[i]
		// Branch-specific clustered register values (Fig 10 structure).
		regVal := (v&0x3F)*uint64(37*(i+1)) + uint64(i)*1000
		e.SetVar(program.VarID(i), regVal)
		// The dependency branch reads a random-walk bit: a low bit flips
		// diffusively (hard, itself an H2P), a high bit flips rarely
		// (predictable, correlated but not screened).
		depBit := uint(4)
		if g.m.depEasy {
			depBit = 9
		}
		dDep := (v>>depBit)&1 == 1
		e.Compute(1)
		e.Cond(idDep+i, dDep, program.VarID(i))
		g.noiseRun(g.r.Intn(g.m.maxGap + 1))
		dH2P := dDep != g.r.Bool(g.m.h2pNoise)
		e.Cond(idH2P+i, dH2P, program.VarID(i))
		e.Compute(3)
		return
	}
	// Standalone hard branch: a random-walk bit with no helpful
	// correlation anywhere in history.
	i := pick - g.m.h2pPairs
	g.soloVal[i] += uint64(g.r.Intn(5)) - 2
	v := g.soloVal[i]
	vr := program.VarID(g.m.h2pPairs + i)
	e.SetVar(vr, (v&0xFF)*uint64(13*(i+1)))
	e.Cond(idSolo+i, (v>>2)&1 == 1, vr)
	e.Compute(3)
}

// noiseRun emits n always-taken branches between a dependency branch and
// its H2P. Their directions are trivially predictable — they never
// mispredict or screen — but the run length varies per execution, which
// is what scatters the dependency branch across global-history positions
// (Fig 6) and defeats exact pattern matching on the H2P.
func (g *gen) noiseRun(n int) {
	for j := 0; j < n; j++ {
		nid := g.r.Intn(numNoise)
		g.noiseCount[nid]++
		g.e.Compute(1)
		g.e.Cond(idNoise+nid, true)
	}
}

// rareBurst walks a run of cold static branches, sweeping the whole cold
// region cyclically. A given cold branch is therefore revisited only once
// per sweep of the region — the long recurrence timescale of Fig 9 —
// and executes just a handful of times per slice (Table II, Fig 3). The
// sweep origin shifts with the phase so phases still differ in the cold
// code they touch first.
func (g *gen) rareBurst(ph int) {
	if g.rareStatic == 0 {
		return
	}
	start := g.rareCursor
	g.rareCursor = (g.rareCursor + g.m.rareLen) % g.rareStatic
	for k := 0; k < g.m.rareLen; k++ {
		id := (start + ph + k) % g.rareStatic
		h := xrand.Mix64(uint64(id)*0x9e3779b97f4a7c15 + uint64(g.input)*1315423911)
		var taken bool
		if float64(h&0xFFFF)/65536 < g.m.rareRandomFrac {
			taken = g.r.Bool(0.5) // irreducibly random cold branch
		} else {
			sense := float64(h>>16&0xFFFF)/65536 < g.m.takenSkew
			if float64(h>>32&0xFFFF)/65536 < g.m.rarePhaseFlip {
				// Phase-dependent: the preferred direction is a
				// branch-specific deterministic function of the phase.
				sense = sense != (xrand.Mix64(h^uint64(ph)*0x9e3779b97f4a7c15)&1 == 1)
			}
			taken = sense == g.r.Bool(0.95)
		}
		g.e.Compute(2)
		g.e.Cond(idRare+id, taken)
	}
}

// memBlock emits the round's memory traffic: strided streams that hit in
// cache plus a configurable fraction of cache-hostile random accesses.
func (g *gen) memBlock(ph int) {
	for k := 0; k < g.m.memOps; k++ {
		if g.r.Float64() < g.m.memRandomFrac {
			g.e.Load(0x10000000 + g.r.Uint64()%(64<<20))
			continue
		}
		g.strideAddr += 64
		base := uint64(ph) << 22
		if k%4 == 3 {
			g.e.Store(0x4000000 + base + g.strideAddr%(1<<20))
		} else {
			g.e.Load(0x4000000 + base + g.strideAddr%(1<<20))
		}
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
