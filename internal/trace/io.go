package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Binary trace format ("BLT1"):
//
//	magic   [4]byte  "BLT1"
//	records *        one varint-encoded record per instruction
//	         flags   byte: kind(4) | taken(1) | hasMem(1) | hasDst(1) | hasSrc(1)
//	         ipDelta zig-zag varint from previous IP
//	         target  varint (branches only)
//	         memAddr varint (hasMem)
//	         dstReg+dstValue (hasDst)
//	         srcRegs byte+byte (hasSrc; NoReg-padded)
//
// The format is delta- and presence-encoded so that long synthetic traces
// stored by cmd/tracegen stay compact (typically ~4-6 bytes/instruction).

var magic = [4]byte{'B', 'L', 'T', '1'}

// ErrBadMagic is returned when a trace file does not start with the
// expected header.
var ErrBadMagic = errors.New("trace: bad magic (not a BLT1 trace file)")

// ErrBadRecord is returned (wrapped) for an instruction BLT1 cannot
// carry: an invalid kind, a register outside the register file (other
// than NoReg), or — on decode — presence flags the Writer never sets (a
// memory operand on a non-memory kind, a destination flag with NoReg).
// Writer.WriteInst refuses such instructions and Reader.NextBlock stops
// on such records, so every decoded instruction is safe to index
// per-register state with and re-encodes to itself.
var ErrBadRecord = errors.New("trace: malformed BLT1 record")

const (
	flagTaken  = 1 << 4
	flagHasMem = 1 << 5
	flagHasDst = 1 << 6
	flagHasSrc = 1 << 7
	kindMask   = 0x0F
)

// Writer encodes instructions to an io.Writer in the BLT1 format.
type Writer struct {
	w      *bufio.Writer
	lastIP uint64
	wrote  bool
	buf    [8 * binary.MaxVarintLen64]byte
}

// NewWriter returns a Writer that emits the BLT1 header on the first
// WriteInst call.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: bufio.NewWriterSize(w, 1<<16)}
}

func zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// validReg reports whether r is NoReg or inside the register file.
func validReg(r uint8) bool { return r == NoReg || r < NumRegs }

// WriteInst appends one instruction to the trace.
func (w *Writer) WriteInst(inst *Inst) error {
	if !inst.Kind.Valid() {
		return fmt.Errorf("%w: invalid kind %d", ErrBadRecord, inst.Kind)
	}
	if !validReg(inst.DstReg) || !validReg(inst.SrcRegs[0]) || !validReg(inst.SrcRegs[1]) {
		return fmt.Errorf("%w: register out of range (dst %d, src %d, %d)",
			ErrBadRecord, inst.DstReg, inst.SrcRegs[0], inst.SrcRegs[1])
	}
	if !w.wrote {
		if _, err := w.w.Write(magic[:]); err != nil {
			return err
		}
		w.wrote = true
	}
	flags := byte(inst.Kind) & kindMask
	if inst.Taken {
		flags |= flagTaken
	}
	hasMem := inst.Kind == KindLoad || inst.Kind == KindStore
	if hasMem {
		flags |= flagHasMem
	}
	hasDst := inst.DstReg != NoReg
	if hasDst {
		flags |= flagHasDst
	}
	hasSrc := inst.SrcRegs[0] != NoReg || inst.SrcRegs[1] != NoReg
	if hasSrc {
		flags |= flagHasSrc
	}

	b := w.buf[:0]
	b = append(b, flags)
	b = binary.AppendUvarint(b, zigzag(int64(inst.IP-w.lastIP)))
	w.lastIP = inst.IP
	if inst.Kind.IsBranch() {
		b = binary.AppendUvarint(b, inst.Target)
	}
	if hasMem {
		b = binary.AppendUvarint(b, inst.MemAddr)
	}
	if hasDst {
		b = append(b, inst.DstReg)
		b = binary.AppendUvarint(b, inst.DstValue)
	}
	if hasSrc {
		b = append(b, inst.SrcRegs[0], inst.SrcRegs[1])
	}
	_, err := w.w.Write(b)
	return err
}

// Flush writes any buffered data to the underlying writer. A trace with no
// instructions still gets a valid header.
func (w *Writer) Flush() error {
	if !w.wrote {
		if _, err := w.w.Write(magic[:]); err != nil {
			return err
		}
		w.wrote = true
	}
	return w.w.Flush()
}

// Reader decodes a BLT1 trace. It implements BlockStream, decoding up
// to DefaultBlockLen records per NextBlock into a block it owns;
// decoding errors are reported via Err once NextBlock returns an empty
// block.
type Reader struct {
	r      *bufio.Reader
	lastIP uint64
	opened bool
	err    error
	blk    []Inst
}

// NewReader returns a Reader over r. The header is validated on the first
// NextBlock call.
func NewReader(r io.Reader) *Reader {
	return &Reader{r: bufio.NewReaderSize(r, 1<<16), blk: make([]Inst, DefaultBlockLen)}
}

// Err returns the first error encountered while decoding, excluding a clean
// end of file.
func (r *Reader) Err() error { return r.err }

// bad records a decoded record the Writer could not have produced.
func (r *Reader) bad(format string, args ...any) bool {
	r.err = fmt.Errorf("%w: "+format, append([]any{ErrBadRecord}, args...)...)
	return false
}

// fail records a mid-record decoding error. EOF inside a record means the
// file was truncated, which callers must be able to distinguish from a
// clean end of trace.
func (r *Reader) fail(err error) bool {
	if errors.Is(err, io.EOF) {
		err = io.ErrUnexpectedEOF
	}
	r.err = err
	return false
}

// NextBlock implements BlockStream. A block stops short at a record
// that fails to decode: the records before it are served, every later
// call returns an empty block, and Err reports the typed cause.
func (r *Reader) NextBlock() []Inst {
	n := 0
	for n < len(r.blk) && r.decode(&r.blk[n]) {
		n++
	}
	return r.blk[:n]
}

// decode reads the next record into *inst, returning false at a clean
// end of trace or after recording a decoding error in r.err.
func (r *Reader) decode(inst *Inst) bool {
	if r.err != nil {
		return false
	}
	if !r.opened {
		var hdr [4]byte
		if _, err := io.ReadFull(r.r, hdr[:]); err != nil {
			r.err = err
			if errors.Is(err, io.EOF) {
				r.err = ErrBadMagic
			}
			return false
		}
		if hdr != magic {
			r.err = ErrBadMagic
			return false
		}
		r.opened = true
	}
	flags, err := r.r.ReadByte()
	if err != nil {
		if !errors.Is(err, io.EOF) {
			r.err = err
		}
		return false
	}
	*inst = Inst{
		Kind:    Kind(flags & kindMask),
		Taken:   flags&flagTaken != 0,
		DstReg:  NoReg,
		SrcRegs: [2]uint8{NoReg, NoReg},
	}
	if !inst.Kind.Valid() {
		return r.bad("invalid kind %d", inst.Kind)
	}
	du, err := binary.ReadUvarint(r.r)
	if err != nil {
		return r.fail(err)
	}
	r.lastIP += uint64(unzigzag(du))
	inst.IP = r.lastIP
	if inst.Kind.IsBranch() {
		if inst.Target, err = binary.ReadUvarint(r.r); err != nil {
			return r.fail(err)
		}
	}
	if flags&flagHasMem != 0 {
		if inst.Kind != KindLoad && inst.Kind != KindStore {
			return r.bad("memory operand on a %s instruction", inst.Kind)
		}
		if inst.MemAddr, err = binary.ReadUvarint(r.r); err != nil {
			return r.fail(err)
		}
	}
	if flags&flagHasDst != 0 {
		if inst.DstReg, err = r.r.ReadByte(); err != nil {
			return r.fail(err)
		}
		if inst.DstReg >= NumRegs {
			// NoReg included: the Writer omits the flag for it.
			return r.bad("destination register %d", inst.DstReg)
		}
		if inst.DstValue, err = binary.ReadUvarint(r.r); err != nil {
			return r.fail(err)
		}
	}
	if flags&flagHasSrc != 0 {
		if inst.SrcRegs[0], err = r.r.ReadByte(); err != nil {
			return r.fail(err)
		}
		if inst.SrcRegs[1], err = r.r.ReadByte(); err != nil {
			return r.fail(err)
		}
		if !validReg(inst.SrcRegs[0]) || !validReg(inst.SrcRegs[1]) {
			return r.bad("source registers %d, %d", inst.SrcRegs[0], inst.SrcRegs[1])
		}
	}
	return true
}
