package bp

import "fmt"

// Static predicts a fixed direction for every branch. It is the floor any
// dynamic predictor must beat.
type Static struct {
	Taken bool
}

// NewStatic returns a static predictor with the given fixed direction.
func NewStatic(taken bool) *Static { return &Static{Taken: taken} }

// Predict implements Predictor.
func (s *Static) Predict(uint64) bool { return s.Taken }

// Train implements Predictor; static predictors do not learn.
func (s *Static) Train(uint64, uint64, bool, bool) {}

// Name implements Predictor.
func (s *Static) Name() string {
	if s.Taken {
		return "static-taken"
	}
	return "static-not-taken"
}

// Bimodal is the classic per-IP table of 2-bit saturating counters.
type Bimodal struct {
	table []int8
	bits  uint
}

// NewBimodal returns a bimodal predictor with 2^bits counters.
func NewBimodal(bits uint) *Bimodal {
	return &Bimodal{table: make([]int8, 1<<bits), bits: bits}
}

// Predict implements Predictor.
func (b *Bimodal) Predict(ip uint64) bool {
	return b.table[hashIP(ip, b.bits)] >= 0
}

// Train implements Predictor.
func (b *Bimodal) Train(ip, _ uint64, taken, _ bool) {
	i := hashIP(ip, b.bits)
	b.table[i] = ctrUpdate(b.table[i], taken, -2, 1)
}

// Name implements Predictor.
func (b *Bimodal) Name() string { return fmt.Sprintf("bimodal-%d", b.bits) }

// GShare XORs global history into the counter index (McFarling 1993),
// letting one table capture direction correlations between branches.
type GShare struct {
	table    []int8
	bits     uint
	histBits uint
	hist     historyReg
}

// NewGShare returns a gshare predictor with 2^bits counters and histBits
// of global history.
func NewGShare(bits, histBits uint) *GShare {
	if histBits > bits {
		histBits = bits
	}
	return &GShare{table: make([]int8, 1<<bits), bits: bits, histBits: histBits}
}

func (g *GShare) index(ip uint64) uint64 {
	return (hashIP(ip, g.bits) ^ g.hist.value(g.histBits)) & ((1 << g.bits) - 1)
}

// Predict implements Predictor.
func (g *GShare) Predict(ip uint64) bool { return g.table[g.index(ip)] >= 0 }

// Train implements Predictor.
func (g *GShare) Train(ip, _ uint64, taken, _ bool) {
	i := g.index(ip)
	g.table[i] = ctrUpdate(g.table[i], taken, -2, 1)
	g.hist.push(taken)
}

// Name implements Predictor.
func (g *GShare) Name() string { return fmt.Sprintf("gshare-%d/%d", g.bits, g.histBits) }

// GSelect concatenates history and IP bits instead of XORing them.
type GSelect struct {
	table    []int8
	ipBits   uint
	histBits uint
	hist     historyReg
}

// NewGSelect returns a gselect predictor indexed by ipBits of IP hash
// concatenated with histBits of global history.
func NewGSelect(ipBits, histBits uint) *GSelect {
	return &GSelect{
		table:    make([]int8, 1<<(ipBits+histBits)),
		ipBits:   ipBits,
		histBits: histBits,
	}
}

func (g *GSelect) index(ip uint64) uint64 {
	return hashIP(ip, g.ipBits)<<g.histBits | g.hist.value(g.histBits)
}

// Predict implements Predictor.
func (g *GSelect) Predict(ip uint64) bool { return g.table[g.index(ip)] >= 0 }

// Train implements Predictor.
func (g *GSelect) Train(ip, _ uint64, taken, _ bool) {
	i := g.index(ip)
	g.table[i] = ctrUpdate(g.table[i], taken, -2, 1)
	g.hist.push(taken)
}

// Name implements Predictor.
func (g *GSelect) Name() string { return fmt.Sprintf("gselect-%d+%d", g.ipBits, g.histBits) }

// Local is a two-level predictor with per-branch local histories (Yeh &
// Patt 1992): a first-level table of local history registers indexes a
// shared second-level pattern table of 2-bit counters.
type Local struct {
	histories []uint16
	pattern   []int8
	ipBits    uint
	histBits  uint
}

// NewLocal returns a two-level local predictor with 2^ipBits history
// registers of histBits bits each.
func NewLocal(ipBits, histBits uint) *Local {
	if histBits > 16 {
		histBits = 16
	}
	return &Local{
		histories: make([]uint16, 1<<ipBits),
		pattern:   make([]int8, 1<<histBits),
		ipBits:    ipBits,
		histBits:  histBits,
	}
}

func (l *Local) patternIndex(ip uint64) uint64 {
	h := l.histories[hashIP(ip, l.ipBits)]
	return uint64(h) & ((1 << l.histBits) - 1)
}

// Predict implements Predictor.
func (l *Local) Predict(ip uint64) bool { return l.pattern[l.patternIndex(ip)] >= 0 }

// Train implements Predictor.
func (l *Local) Train(ip, _ uint64, taken, _ bool) {
	pi := l.patternIndex(ip)
	l.pattern[pi] = ctrUpdate(l.pattern[pi], taken, -2, 1)
	hi := hashIP(ip, l.ipBits)
	l.histories[hi] <<= 1
	if taken {
		l.histories[hi] |= 1
	}
}

// Name implements Predictor.
func (l *Local) Name() string { return fmt.Sprintf("local-%d/%d", l.ipBits, l.histBits) }
