package cnn

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
)

// Serialization implements the §V-D deployment story: once helpers are
// trained offline, "the predictors' model parameters (e.g., network
// weights in the case of a CNN) could be stored as application metadata,
// e.g., under a new segment type in an ELF binary", loaded onto the BPU
// by the OS at program start. The format stores only the quantized
// deployment weights — the 2-bit magnitudes plus their scale factors —
// not the float training state.
//
// Format ("BLH1"):
//
//	magic    [4]byte "BLH1"
//	config   histLen, buckets, filters, segments (uvarint each)
//	bias     float32 bits (uvarint)
//	scale2   float32 bits (uvarint)
//	q2       segments*filters bytes (int8 + 2)
//	scale1   2*buckets float32 bits (uvarint each)
//	q1       2*buckets rows of filters bytes (int8 + 2)

var helperMagic = [4]byte{'B', 'L', 'H', '1'}

// ErrBadHelperFile is returned when decoding a stream that is not a
// serialized helper model.
var ErrBadHelperFile = errors.New("cnn: bad magic (not a BLH1 helper model)")

// WriteTo serializes the quantized model. It fails if the model has not
// been trained (there is nothing deployable to write).
func (m *Model) WriteTo(w io.Writer) (int64, error) {
	if !m.quantized {
		return 0, errors.New("cnn: model not trained/quantized; nothing to serialize")
	}
	bw := bufio.NewWriter(w)
	var n int64
	write := func(p []byte) error {
		k, err := bw.Write(p)
		n += int64(k)
		return err
	}
	if err := write(helperMagic[:]); err != nil {
		return n, err
	}
	var buf [binary.MaxVarintLen64]byte
	putUv := func(v uint64) error {
		k := binary.PutUvarint(buf[:], v)
		return write(buf[:k])
	}
	putF32 := func(f float32) error {
		var b [4]byte
		binary.LittleEndian.PutUint32(b[:], floatBits(f))
		return write(b[:])
	}
	for _, v := range []uint64{
		uint64(m.Cfg.HistLen), uint64(m.Cfg.Buckets),
		uint64(m.Cfg.Filters), uint64(m.Cfg.Segments),
	} {
		if err := putUv(v); err != nil {
			return n, err
		}
	}
	if err := putF32(m.b); err != nil {
		return n, err
	}
	if err := putF32(m.scale2); err != nil {
		return n, err
	}
	q2b := make([]byte, len(m.q2))
	for i, q := range m.q2 {
		q2b[i] = byte(q + 2)
	}
	if err := write(q2b); err != nil {
		return n, err
	}
	for i, row := range m.q1 {
		if err := putF32(m.scale1[i]); err != nil {
			return n, err
		}
		rb := make([]byte, len(row))
		for j, q := range row {
			rb[j] = byte(q + 2)
		}
		if err := write(rb); err != nil {
			return n, err
		}
	}
	return n, bw.Flush()
}

// ErrBadHelperData is returned (wrapped) when a stream with the BLH1
// magic does not hold a well-formed model: an implausible geometry, a
// weight level outside the 2-bit range, or fewer bytes than the
// geometry needs.
var ErrBadHelperData = errors.New("cnn: malformed BLH1 helper model")

// ReadModel deserializes a helper model written by WriteTo. The returned
// model predicts with the stored quantized weights; it cannot be further
// trained (the float state is not persisted). It reads the weight
// tables incrementally, so its allocations are bounded by the bytes
// actually present, never by the geometry the header claims: a short
// header announcing 2^21 rows costs a few KiB before it fails.
func ReadModel(r io.Reader) (*Model, error) {
	br := bufio.NewReader(r)
	var hdr [4]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, err
	}
	if hdr != helperMagic {
		return nil, ErrBadHelperFile
	}
	bad := func(format string, args ...any) error {
		return fmt.Errorf("%w: "+format, append([]any{ErrBadHelperData}, args...)...)
	}
	short := func(what string, err error) error {
		return bad("truncated %s: %v", what, err)
	}
	readF32 := func() (float32, error) {
		var b [4]byte
		if _, err := io.ReadFull(br, b[:]); err != nil {
			return 0, err
		}
		return floatFrom(binary.LittleEndian.Uint32(b[:])), nil
	}
	// levels decodes stored weight levels (int8 + 2) into dst.
	levels := func(dst []int8, src []byte) error {
		for i, b := range src {
			if b > 4 {
				return bad("weight level %d out of range", int(b)-2)
			}
			dst[i] = int8(b) - 2
		}
		return nil
	}
	var vals [4]uint64
	for i := range vals {
		v, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, short("geometry", err)
		}
		vals[i] = v
	}
	if vals[0] == 0 || vals[1] == 0 || vals[2] == 0 || vals[3] == 0 ||
		vals[0] > 1<<16 || vals[1] > 1<<20 || vals[2] > 1<<12 || vals[3] > 1<<12 {
		return nil, bad("implausible geometry histLen=%d buckets=%d filters=%d segments=%d",
			vals[0], vals[1], vals[2], vals[3])
	}
	var cfg Config
	cfg.HistLen, cfg.Buckets = int(vals[0]), int(vals[1])
	cfg.Filters, cfg.Segments = int(vals[2]), int(vals[3])
	m := &Model{Cfg: cfg, quantized: true}
	var err error
	if m.b, err = readF32(); err != nil {
		return nil, short("bias", err)
	}
	if m.scale2, err = readF32(); err != nil {
		return nil, short("output scale", err)
	}
	// q2 (up to 16 MiB by geometry) grows with the bytes read.
	q2b, err := io.ReadAll(io.LimitReader(br, int64(cfg.Segments*cfg.Filters)))
	if err != nil {
		return nil, err
	}
	if len(q2b) != cfg.Segments*cfg.Filters {
		return nil, short("output weights", io.ErrUnexpectedEOF)
	}
	m.q2 = make([]int8, len(q2b))
	if err := levels(m.q2, q2b); err != nil {
		return nil, err
	}
	// The 2*Buckets rows are appended as they arrive.
	rb := make([]byte, cfg.Filters)
	for i := 0; i < 2*cfg.Buckets; i++ {
		scale, err := readF32()
		if err != nil {
			return nil, short(fmt.Sprintf("row %d scale", i), err)
		}
		if _, err := io.ReadFull(br, rb); err != nil {
			return nil, short(fmt.Sprintf("row %d weights", i), err)
		}
		row := make([]int8, cfg.Filters)
		if err := levels(row, rb); err != nil {
			return nil, err
		}
		m.scale1 = append(m.scale1, scale)
		m.q1 = append(m.q1, row)
	}
	return m, nil
}

func floatBits(f float32) uint32 { return math.Float32bits(f) }
func floatFrom(u uint32) float32 { return math.Float32frombits(u) }
