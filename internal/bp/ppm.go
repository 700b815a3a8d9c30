package bp

import "fmt"

// PPM is a partial-pattern-matching predictor (Cleary & Witten 1984,
// applied to branches by Mudge et al. 1996): several tagged tables indexed
// by hashes of increasingly long global-history windows; the longest
// matching entry supplies the prediction. This is the mechanism at the
// heart of TAGE, implemented here without the usefulness machinery so the
// two can be compared in ablations.
type PPM struct {
	tables   []ppmTable
	base     Predictor // a bimodal table; tests substitute a recorder
	hist     historyReg
	lastIdx  []uint64 // per-table index cache from Predict
	lastTag  []uint16
	lastBase bool // base's own prediction, the pred its Train receives
	lastIP   uint64
	valid    bool
}

type ppmTable struct {
	entries []ppmEntry
	bits    uint
	histLen uint
}

type ppmEntry struct {
	tag   uint16
	ctr   int8
	valid bool
}

// NewPPM returns a PPM predictor with the given table size (2^bits entries
// per table) and history lengths, one table per length.
func NewPPM(bits uint, histLens ...uint) *PPM {
	p := &PPM{
		base:    NewBimodal(bits),
		lastIdx: make([]uint64, len(histLens)),
		lastTag: make([]uint16, len(histLens)),
	}
	for _, hl := range histLens {
		p.tables = append(p.tables, ppmTable{
			entries: make([]ppmEntry, 1<<bits),
			bits:    bits,
			histLen: hl,
		})
	}
	return p
}

func (p *PPM) indexTag(ip uint64, t *ppmTable) (uint64, uint16) {
	h := p.hist.value(t.histLen)
	mixed := hashIP(ip^h*0x9e3779b97f4a7c15, 63)
	idx := mixed & ((1 << t.bits) - 1)
	tag := uint16(mixed>>t.bits) & 0x3FF
	return idx, tag
}

// Predict implements Predictor.
func (p *PPM) Predict(ip uint64) bool {
	p.lastBase = p.base.Predict(ip)
	pred := p.lastBase
	for i := range p.tables {
		t := &p.tables[i]
		idx, tag := p.indexTag(ip, t)
		p.lastIdx[i], p.lastTag[i] = idx, tag
		e := &t.entries[idx]
		if e.valid && e.tag == tag {
			pred = e.ctr >= 0
		}
	}
	p.lastIP = ip
	p.valid = true
	return pred
}

// Train implements Predictor. The base is trained with the target and
// with its own prediction.
func (p *PPM) Train(ip, target uint64, taken, pred bool) {
	if !p.valid || p.lastIP != ip {
		for i := range p.tables {
			p.lastIdx[i], p.lastTag[i] = p.indexTag(ip, &p.tables[i])
		}
		p.lastBase = p.base.Predict(ip)
	}
	p.valid = false

	// Update the longest matching entry; on a miss, allocate in the
	// shortest table without a match for this branch.
	longest := -1
	for i := range p.tables {
		e := &p.tables[i].entries[p.lastIdx[i]]
		if e.valid && e.tag == p.lastTag[i] {
			longest = i
		}
	}
	if longest >= 0 {
		e := &p.tables[longest].entries[p.lastIdx[longest]]
		e.ctr = ctrUpdate(e.ctr, taken, -4, 3)
	}
	p.base.Train(ip, target, taken, p.lastBase)
	if pred != taken {
		for i := longest + 1; i < len(p.tables); i++ {
			e := &p.tables[i].entries[p.lastIdx[i]]
			if !e.valid || e.ctr == 0 || e.ctr == -1 {
				*e = ppmEntry{tag: p.lastTag[i], valid: true}
				if taken {
					e.ctr = 0
				} else {
					e.ctr = -1
				}
				break
			}
		}
	}
	p.hist.push(taken)
}

// Name implements Predictor.
func (p *PPM) Name() string { return fmt.Sprintf("ppm-%d", len(p.tables)) }
