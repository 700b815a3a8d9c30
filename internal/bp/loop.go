package bp

import "fmt"

// Loop predicts loop-exit branches by learning the trip count of regular
// loops (Sherwood & Calder 2000). A loop branch that is taken n-1 times
// and then not taken is predicted perfectly once the same trip count has
// been observed confTarget times in a row.
type Loop struct {
	entries []loopEntry
	bits    uint
}

type loopEntry struct {
	tag      uint16
	pastIter uint32
	currIter uint32
	conf     uint8
	dir      bool // the direction taken on loop-body iterations
	valid    bool
}

const loopConfTarget = 3

// NewLoop returns a loop predictor with 2^bits entries.
func NewLoop(bits uint) *Loop {
	return &Loop{entries: make([]loopEntry, 1<<bits), bits: bits}
}

func (l *Loop) lookup(ip uint64) (*loopEntry, uint16) {
	h := hashIP(ip, l.bits+14)
	return &l.entries[h&((1<<l.bits)-1)], uint16(h >> l.bits)
}

// Index returns ip's entry index and tag. A caller that both queries and
// trains the same branch (the TAGE-SC-L combiner's predict/retire pair)
// can hash once and use the *At variants with the cached pair.
func (l *Loop) Index(ip uint64) (uint32, uint16) {
	h := hashIP(ip, l.bits+14)
	return uint32(h & ((1 << l.bits) - 1)), uint16(h >> l.bits)
}

// Confident reports whether the loop predictor has a confident prediction
// for ip; combiners use it to gate the loop override.
func (l *Loop) Confident(ip uint64) bool {
	idx, tag := l.Index(ip)
	return l.ConfidentAt(idx, tag)
}

// ConfidentAt is Confident for a pair precomputed with Index.
func (l *Loop) ConfidentAt(idx uint32, tag uint16) bool {
	e := &l.entries[idx]
	return e.valid && e.tag == tag && e.conf >= loopConfTarget
}

// Predict implements Predictor. With no confident entry it predicts the
// loop-body direction "taken", the common backward-branch case.
func (l *Loop) Predict(ip uint64) bool {
	idx, tag := l.Index(ip)
	return l.PredictAt(idx, tag)
}

// PredictAt is Predict for a pair precomputed with Index.
func (l *Loop) PredictAt(idx uint32, tag uint16) bool {
	e := &l.entries[idx]
	if !e.valid || e.tag != tag {
		return true
	}
	if e.conf >= loopConfTarget && e.currIter+1 >= e.pastIter {
		return !e.dir // predicted exit
	}
	return e.dir
}

// Train implements Predictor.
func (l *Loop) Train(ip, _ uint64, taken, _ bool) {
	idx, tag := l.Index(ip)
	l.TrainAt(idx, tag, taken)
}

// TrainAt is Train for a pair precomputed with Index.
func (l *Loop) TrainAt(idx uint32, tag uint16, taken bool) {
	e := &l.entries[idx]
	if !e.valid || e.tag != tag {
		// Allocate optimistically: assume the common "taken while looping"
		// shape; the first exit fixes pastIter.
		*e = loopEntry{tag: tag, dir: taken, currIter: 1, valid: true}
		return
	}
	e.currIter++
	if taken == e.dir {
		// Guard against non-loop branches saturating the iteration count.
		if e.currIter > 1<<20 {
			*e = loopEntry{}
		}
		return
	}
	// The branch left the loop: one full trip observed.
	if e.currIter == e.pastIter {
		if e.conf < 255 {
			e.conf++
		}
	} else {
		e.pastIter = e.currIter
		e.conf = 0
	}
	e.currIter = 0
}

// Name implements Predictor.
func (l *Loop) Name() string { return fmt.Sprintf("loop-%d", l.bits) }

// Tournament combines two predictors with a per-IP chooser table
// (McFarling's combining predictor).
type Tournament struct {
	a, b    Predictor
	chooser []int8 // >=0 selects a, <0 selects b
	bits    uint
	lastA   bool
	lastB   bool
	lastIP  uint64
	valid   bool
}

// NewTournament combines a and b under a 2^bits-entry chooser.
func NewTournament(a, b Predictor, bits uint) *Tournament {
	return &Tournament{a: a, b: b, chooser: make([]int8, 1<<bits), bits: bits}
}

// Predict implements Predictor.
func (t *Tournament) Predict(ip uint64) bool {
	t.lastA = t.a.Predict(ip)
	t.lastB = t.b.Predict(ip)
	t.lastIP = ip
	t.valid = true
	if t.chooser[hashIP(ip, t.bits)] >= 0 {
		return t.lastA
	}
	return t.lastB
}

// Train implements Predictor. Both components are trained with the
// target and with their own predictions.
func (t *Tournament) Train(ip, target uint64, taken, _ bool) {
	pa, pb := t.lastA, t.lastB
	if !t.valid || t.lastIP != ip {
		pa = t.a.Predict(ip)
		pb = t.b.Predict(ip)
	}
	t.valid = false
	if pa != pb {
		i := hashIP(ip, t.bits)
		t.chooser[i] = ctrUpdate(t.chooser[i], pa == taken, -2, 1)
	}
	t.a.Train(ip, target, taken, pa)
	t.b.Train(ip, target, taken, pb)
}

// Name implements Predictor.
func (t *Tournament) Name() string {
	return fmt.Sprintf("tournament(%s,%s)", t.a.Name(), t.b.Name())
}
