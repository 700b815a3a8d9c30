// Package trace defines the instruction-trace model shared by the whole
// simulator: instruction records, block streams, in-memory trace
// buffers, and a compact binary file format.
//
// A trace is the only interface between workload generation and measurement:
// every analysis in this repository (prediction, pipeline timing, H2P
// screening, dependency graphs, phase detection) consumes a BlockStream
// and nothing else, mirroring the deployment assumptions of CBP2016 and
// ChampSim that the paper builds on.
package trace

import "fmt"

// Kind classifies an instruction for the timing model and the analyses.
type Kind uint8

// Instruction kinds. The branch kinds mirror the CBP/ChampSim taxonomy:
// conditional branches are the prediction targets; unconditional kinds
// still steer fetch and contribute to path history.
const (
	KindALU      Kind = iota // simple integer op
	KindMul                  // integer multiply
	KindDiv                  // integer divide
	KindFP                   // floating-point op
	KindLoad                 // memory read
	KindStore                // memory write
	KindCondBr               // conditional branch
	KindJump                 // unconditional direct jump
	KindIndirect             // unconditional indirect jump
	KindCall                 // direct call
	KindRet                  // return
	KindNop                  // no-op / other

	kindCount
)

var kindNames = [...]string{
	"alu", "mul", "div", "fp", "load", "store",
	"condbr", "jump", "indirect", "call", "ret", "nop",
}

// String returns a short lower-case mnemonic for the kind.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Valid reports whether k is a defined instruction kind.
func (k Kind) Valid() bool { return k < kindCount }

// IsBranch reports whether k redirects control flow.
func (k Kind) IsBranch() bool { return k >= KindCondBr && k <= KindRet }

// IsCond reports whether k is a conditional branch.
func (k Kind) IsCond() bool { return k == KindCondBr }

// NumRegs is the number of architectural registers in the trace model.
const NumRegs = 32

// NoReg marks an unused register slot in an instruction record.
const NoReg = 0xFF

// Inst is one dynamic instruction. The fields mirror what the paper's
// methodology assumes is visible to analysis: the instruction pointer,
// instruction type, branch target and resolved direction (the CBP2016
// interface), plus register/memory operand identities and the written
// value, which power the dependency-graph and register-value studies
// (paper §IV-A, Fig 10).
type Inst struct {
	IP       uint64   // instruction pointer
	Target   uint64   // branch target (branches only)
	MemAddr  uint64   // effective address (loads/stores only)
	DstValue uint64   // value written to DstReg (analyses use low 32 bits)
	Kind     Kind     // instruction class
	Taken    bool     // resolved direction (conditional branches only)
	DstReg   uint8    // destination register or NoReg
	SrcRegs  [2]uint8 // source registers, NoReg-padded
}

// IsBranch reports whether the instruction redirects control flow.
func (i *Inst) IsBranch() bool { return i.Kind.IsBranch() }

// IsCondBranch reports whether the instruction is a conditional branch.
func (i *Inst) IsCondBranch() bool { return i.Kind == KindCondBr }

// Reads reports whether the instruction reads register r.
func (i *Inst) Reads(r uint8) bool {
	return r != NoReg && (i.SrcRegs[0] == r || i.SrcRegs[1] == r)
}

// Writes reports whether the instruction writes register r.
func (i *Inst) Writes(r uint8) bool { return r != NoReg && i.DstReg == r }

// BlockStream is the forward-only instruction producer every replay
// consumes: the BLT1 Reader, the live program generator, a Buffer and a
// trace-cache view all serve it. Iterating a []Inst block amortizes the
// per-call interface dispatch over thousands of instructions.
//
// NextBlock returns the next run of instructions in trace order, or an
// empty slice at end of trace (after which further calls must also
// return an empty slice). The returned slice is valid only until the
// next NextBlock call, and callers must not modify or retain it: block
// producers serve views of storage they own or share (a cached Buffer,
// a generator batch, the Reader's decode block, or — when the cache has
// a persistent store attached — a slice file mmap'd from disk, whose
// mapping the store keeps alive until it is closed). The blockalias analyzer
// enforces the no-retention rule statically (DESIGN.md §8).
type BlockStream interface {
	NextBlock() []Inst
}

// DefaultBlockLen is the block size of a Buffer replay and of the BLT1
// Reader's decode batches. Large enough to amortize the per-block
// dispatch to nothing, small enough that a decoded block stays
// cache-resident.
const DefaultBlockLen = 4096

// StreamErr returns the typed error that terminated s, if s tracks one
// (the program generator does: cancellation, payload failure; so does
// the BLT1 Reader: a malformed or truncated record). A stream that
// ended with a non-nil StreamErr delivered a truncated prefix;
// consumers must discard what they read. Check after the
// stream reports end of trace.
func StreamErr(s any) error {
	if e, ok := s.(interface{ Err() error }); ok {
		return e.Err()
	}
	return nil
}

// Replayable is a materialized trace servable any number of times: the
// contract between the trace cache and every measurement driver. A
// *Buffer is the contiguous implementation; the slice-granular trace
// cache serves a view whose slices come from the heap or its trace
// store.
// Replays of one Replayable are always byte-identical to each other —
// implementations may differ in residency, never in content. Residency
// includes the disk tier: a cache-served view may hand out blocks
// backed by mmap'd store files (DESIGN.md §11), which stay mapped — and
// the blocks valid — until the store is closed, so stores are closed
// only after every replay they serve has completed.
type Replayable interface {
	// Len returns the trace length in instructions.
	Len() int
	// BlockStream returns a new independent block reader with blocks of
	// at most n instructions (an implementation-chosen size if n <= 0).
	BlockStream(n int) BlockStream
}

// Buffer is a materialized trace that can be replayed any number of times.
// Replaying one buffer across predictor/pipeline configurations is how the
// sweep experiments (Fig 1, Fig 5, Fig 7) hold the workload constant.
type Buffer struct {
	insts []Inst
}

var _ Replayable = (*Buffer)(nil)

// NewBuffer returns an empty buffer with capacity hint n.
func NewBuffer(n int) *Buffer {
	return &Buffer{insts: make([]Inst, 0, n)}
}

// recordCapMax bounds the up-front allocation of RecordSized: beyond
// ~16M instructions (roughly 640MB of records) growth proceeds by
// doubling, so a wildly overestimated hint cannot pre-commit the
// machine's memory.
const recordCapMax = 1 << 24

// RecordSized drains bs into a new Buffer whose capacity is sized from
// sizeHint, the expected instruction count. The hint only tunes the
// initial allocation; the recording is complete regardless.
func RecordSized(bs BlockStream, sizeHint uint64) *Buffer {
	hint := sizeHint
	if hint < 1<<10 {
		hint = 1 << 10
	}
	if hint > recordCapMax {
		hint = recordCapMax
	}
	b := NewBuffer(int(hint))
	for blk := bs.NextBlock(); len(blk) > 0; blk = bs.NextBlock() {
		b.insts = append(b.insts, blk...)
	}
	return b
}

// Append adds one instruction to the buffer.
func (b *Buffer) Append(inst Inst) { b.insts = append(b.insts, inst) }

// Len returns the number of instructions in the buffer.
func (b *Buffer) Len() int { return len(b.insts) }

// At returns the i-th instruction.
func (b *Buffer) At(i int) Inst { return b.insts[i] }

// FromSlice returns a Buffer that takes ownership of insts. It is the
// zero-copy assembly point for sharded recording, whose workers fill
// disjoint ranges of one backing array.
func FromSlice(insts []Inst) *Buffer {
	return &Buffer{insts: insts}
}

// bufferStream reads a buffer's backing array in zero-copy blocks:
// NextBlock returns subslices of the recorded array directly, so a
// buffer replay has no per-instruction virtual calls and no copies.
type bufferStream struct {
	insts []Inst
	pos   int
	block int
}

// NextBlock implements BlockStream.
func (s *bufferStream) NextBlock() []Inst {
	if s.pos >= len(s.insts) {
		return nil
	}
	end := s.pos + s.block
	if end > len(s.insts) {
		end = len(s.insts)
	}
	blk := s.insts[s.pos:end]
	s.pos = end
	return blk
}

// BlockStream returns a new independent block reader over the buffer
// with blocks of at most n instructions (DefaultBlockLen if n <= 0).
// Blocks are zero-copy views of the recorded array.
func (b *Buffer) BlockStream(n int) BlockStream {
	if n <= 0 {
		n = DefaultBlockLen
	}
	return &bufferStream{insts: b.insts, block: n}
}
