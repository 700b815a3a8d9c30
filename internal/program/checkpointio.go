// Checkpoint serialization: the wire form of the slice-local payload
// contract, used by the persistent trace store (DESIGN.md §11) to carry
// a recording's checkpoint list across process restarts. A checkpoint
// is a pure function of (seed, budget, payload, capture index), so the
// serialized list is byte-stable across runs and safe to content-key.
package program

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// ErrBadCheckpointData is returned (wrapped) when a serialized
// checkpoint list cannot be decoded: truncated input, a length prefix
// claiming more elements than the bytes left could hold, or a field out
// of the emitter's range. Callers treat the whole blob as unusable and
// fall back to checkpoint-free operation.
var ErrBadCheckpointData = errors.New("program: malformed serialized checkpoint list")

// minCkptBytes is the shortest serialized checkpoint: nine varints (At,
// four Rng words, CurIP, Scratch and the two length prefixes) of at
// least one byte each.
const minCkptBytes = 9

// AppendCheckpoints appends the varint serialization of cks to b and
// returns the extended slice. The encoding is self-delimiting:
// DecodeCheckpoints reads exactly the bytes AppendCheckpoints wrote.
func AppendCheckpoints(b []byte, cks []Checkpoint) []byte {
	b = binary.AppendUvarint(b, uint64(len(cks)))
	for i := range cks {
		ck := &cks[i]
		b = binary.AppendUvarint(b, ck.At)
		for _, w := range ck.Rng {
			b = binary.AppendUvarint(b, w)
		}
		b = binary.AppendUvarint(b, ck.CurIP)
		b = binary.AppendUvarint(b, uint64(ck.Scratch))
		b = binary.AppendUvarint(b, uint64(len(ck.Callers)))
		for _, w := range ck.Callers {
			b = binary.AppendUvarint(b, w)
		}
		b = binary.AppendUvarint(b, uint64(len(ck.Payload)))
		for _, w := range ck.Payload {
			b = binary.AppendUvarint(b, w)
		}
	}
	return b
}

// DecodeCheckpoints decodes a list serialized by AppendCheckpoints from
// the front of b, returning the list and the number of bytes consumed.
// Any truncation, length prefix the remaining bytes cannot hold or
// out-of-range scratch register fails with a typed error wrapping
// ErrBadCheckpointData; a partially decoded list is never returned.
// Allocations are bounded by a small multiple of len(b).
func DecodeCheckpoints(b []byte) ([]Checkpoint, int, error) {
	off := 0
	next := func() (uint64, error) {
		v, n := binary.Uvarint(b[off:])
		if n <= 0 {
			return 0, fmt.Errorf("%w: truncated at byte %d", ErrBadCheckpointData, off)
		}
		off += n
		return v, nil
	}
	// length reads a length prefix and bounds it by the bytes left, at
	// least unit bytes per element, so allocations follow the input.
	length := func(what string, unit int) (uint64, error) {
		v, err := next()
		if err != nil {
			return 0, err
		}
		if v > uint64((len(b)-off)/unit) {
			return 0, fmt.Errorf("%w: %s %d exceeds the %d bytes left", ErrBadCheckpointData, what, v, len(b)-off)
		}
		return v, nil
	}
	count, err := length("checkpoint count", minCkptBytes)
	if err != nil {
		return nil, 0, err
	}
	cks := make([]Checkpoint, 0, count)
	for i := uint64(0); i < count; i++ {
		var ck Checkpoint
		if ck.At, err = next(); err != nil {
			return nil, 0, err
		}
		for j := range ck.Rng {
			if ck.Rng[j], err = next(); err != nil {
				return nil, 0, err
			}
		}
		if ck.CurIP, err = next(); err != nil {
			return nil, 0, err
		}
		scratch, err := next()
		if err != nil {
			return nil, 0, err
		}
		// A restored emitter writes Scratch as a destination register.
		if scratch >= scratchRegs {
			return nil, 0, fmt.Errorf("%w: scratch register %d out of range", ErrBadCheckpointData, scratch)
		}
		ck.Scratch = uint8(scratch)
		nCallers, err := length("caller count", 1)
		if err != nil {
			return nil, 0, err
		}
		ck.Callers = make([]uint64, nCallers)
		for j := range ck.Callers {
			if ck.Callers[j], err = next(); err != nil {
				return nil, 0, err
			}
		}
		nPayload, err := length("payload length", 1)
		if err != nil {
			return nil, 0, err
		}
		ck.Payload = make([]uint64, nPayload)
		for j := range ck.Payload {
			if ck.Payload[j], err = next(); err != nil {
				return nil, 0, err
			}
		}
		cks = append(cks, ck)
	}
	return cks, off, nil
}
