package pipeline

import (
	"fmt"

	"branchlab/internal/btb"
	"branchlab/internal/cache"
	"branchlab/internal/trace"
)

// Annotation is the memory side of a timing run over one trace: for
// every instruction, the level of the cache hierarchy that served its
// fetch and, for a load, its data access, and whether the BTB failed to
// produce a branch's target. Cache and BTB state evolve with the trace
// alone — the caches have no notion of time and the model fetches no
// wrong path — so one annotation serves every pipeline scale whose
// Config has the same Caches and BTB. An Annotation is immutable once
// built and safe to share.
type Annotation struct {
	// marks holds one byte per instruction: the L1I level in bits 0-1,
	// the L1D level in bits 2-3 (loads only) and btbBubble.
	marks    []byte
	l1i, l1d levels
	caches   cache.HierarchyConfig
	btb      btb.Config
	btbOn    bool
	// l1dMisses is the hierarchy's L1D miss count after the walk.
	l1dMisses uint64
}

// Mark bits of an annotation byte.
const (
	levelMask = 3
	l1dShift  = 2
	btbBubble = 1 << 4
)

// levels decodes a 2-bit level into the access latency a cache chain
// reports at it (cache.Cache.Latencies).
type levels [4]uint64

func levelsOf(c *cache.Cache) levels {
	lats := c.Latencies()
	if len(lats) > len(levels{}) {
		panic(fmt.Sprintf("pipeline: %s chain has %d levels, annotation encodes at most 4", c.Name(), len(lats)))
	}
	var l levels
	copy(l[:], lats)
	return l
}

// level encodes an access latency as the first level reporting it.
func (l *levels) level(lat uint64) byte {
	for i, v := range l {
		if v == lat {
			return byte(i)
		}
	}
	panic(fmt.Sprintf("pipeline: access latency %d is no level of %v", lat, *l))
}

// fits reports whether cfg times against the hierarchy and BTB a was
// annotated with.
func (a *Annotation) fits(cfg Config) bool {
	on := cfg.BTBMissPenalty > 0
	return a.caches == cfg.Caches && a.btbOn == on && (!on || a.btb == cfg.BTB)
}

// Annotate walks bs through a fresh instance of cfg's cache hierarchy
// and, when cfg.BTBMissPenalty > 0, its BTB. Only Caches, BTB and
// whether BTBMissPenalty is zero matter, so the annotation fits every
// cfg.Scaled(k).
func Annotate(bs trace.BlockStream, cfg Config) *Annotation {
	hier := cache.NewHierarchy(cfg.Caches)
	var tb *btb.BTB
	if cfg.BTBMissPenalty > 0 {
		tb = btb.New(cfg.BTB)
	}
	an := newAnnotator(hier, tb)
	var marks []byte
	for blk := bs.NextBlock(); len(blk) > 0; blk = bs.NextBlock() {
		n := len(marks)
		marks = append(marks, make([]byte, len(blk))...)
		an.block(blk, marks[n:])
	}
	return &Annotation{
		marks: marks, l1i: an.l1i, l1d: an.l1d,
		caches: cfg.Caches, btb: cfg.BTB, btbOn: tb != nil,
		l1dMisses: hier.L1D.Stats().Misses,
	}
}

// annotator is the annotation pass's state: the hierarchy and BTB it
// drives (tb nil when target prediction is off).
type annotator struct {
	hier     *cache.Hierarchy
	tb       *btb.BTB
	l1i, l1d levels
}

func newAnnotator(hier *cache.Hierarchy, tb *btb.BTB) *annotator {
	return &annotator{hier: hier, tb: tb, l1i: levelsOf(hier.L1I), l1d: levelsOf(hier.L1D)}
}

// block writes blk's marks into marks[:len(blk)]. Per instruction it
// keeps the fused model's order — L1I, then L1D for a load, then the
// BTB for a branch — since L1I and L1D share the L2 and LLC.
func (a *annotator) block(blk []trace.Inst, marks []byte) {
	l1i, l1d := a.hier.L1I, a.hier.L1D
	for j := range blk {
		inst := &blk[j]
		m := a.l1i.level(l1i.Access(inst.IP))
		if inst.Kind == trace.KindLoad {
			m |= a.l1d.level(l1d.Access(inst.MemAddr)) << l1dShift
		}
		// A taken branch whose target the BTB/RAS did not produce at
		// fetch costs a decode-redirect bubble.
		if a.tb != nil && inst.Kind.IsBranch() {
			target, hit := a.tb.Lookup(inst.IP, inst.Kind)
			if !a.tb.Update(inst.IP, inst.Target, inst.Kind, inst.Taken, target, hit) {
				m |= btbBubble
			}
		}
		marks[j] = m
	}
}
