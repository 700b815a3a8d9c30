package cnn

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"runtime"
	"testing"
)

func trainedModel(t *testing.T) (*Model, []Sample) {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Epochs = 3
	samples := collect(t, cfg, 2, 150000)
	m := NewModel(cfg)
	m.Train(samples)
	return m, samples
}

func TestSerializeRoundTrip(t *testing.T) {
	m, samples := trainedModel(t)
	var buf bytes.Buffer
	if _, err := m.WriteTo(&buf); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	got, err := ReadModel(&buf)
	if err != nil {
		t.Fatalf("ReadModel: %v", err)
	}
	// Only the deployment geometry persists; training hyperparameters
	// (Epochs, LR, Seed) are not part of the shipped metadata.
	if got.Cfg.HistLen != m.Cfg.HistLen || got.Cfg.Buckets != m.Cfg.Buckets ||
		got.Cfg.Filters != m.Cfg.Filters || got.Cfg.Segments != m.Cfg.Segments {
		t.Errorf("geometry mismatch: %+v vs %+v", got.Cfg, m.Cfg)
	}
	// The deployed model must make identical predictions.
	for i, s := range samples {
		if i >= 2000 {
			break
		}
		if got.Predict(s.Slots) != m.Predict(s.Slots) {
			t.Fatalf("prediction diverges at sample %d", i)
		}
	}
}

func TestSerializeCompact(t *testing.T) {
	m, _ := trainedModel(t)
	var buf bytes.Buffer
	if _, err := m.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	// 2-bit weights + per-row scales: 2*Buckets rows of (4B scale +
	// Filters bytes) plus the output layer. Far smaller than float32
	// weights would be; this is the "application metadata" footprint.
	maxBytes := 2*m.Cfg.Buckets*(4+m.Cfg.Filters) + m.Cfg.Segments*m.Cfg.Filters + 64
	if buf.Len() > maxBytes {
		t.Errorf("serialized model %dB exceeds bound %dB", buf.Len(), maxBytes)
	}
}

func TestSerializeUntrainedFails(t *testing.T) {
	m := NewModel(DefaultConfig())
	var buf bytes.Buffer
	if _, err := m.WriteTo(&buf); err == nil {
		t.Error("untrained model serialized")
	}
}

func TestReadModelRejectsGarbage(t *testing.T) {
	if _, err := ReadModel(bytes.NewReader([]byte("NOPEnope"))); !errors.Is(err, ErrBadHelperFile) {
		t.Errorf("garbage accepted: %v", err)
	}
	// Truncated stream after a valid header.
	m, _ := trainedModel(t)
	var buf bytes.Buffer
	m.WriteTo(&buf)
	if _, err := ReadModel(bytes.NewReader(buf.Bytes()[:20])); err == nil {
		t.Error("truncated model accepted")
	}
}

// blh1 hand-encodes a BLH1 stream: the geometry, then body verbatim.
func blh1(histLen, buckets, filters, segments uint64, body []byte) []byte {
	b := append([]byte(nil), helperMagic[:]...)
	for _, v := range []uint64{histLen, buckets, filters, segments} {
		b = binary.AppendUvarint(b, v)
	}
	return append(b, body...)
}

// tinyModel is a well-formed 1-filter, 1-segment, 1-bucket model: bias,
// output scale, one output weight, then two rows of (scale, weight).
func tinyModel() []byte {
	f32 := func(f float32) []byte { return binary.LittleEndian.AppendUint32(nil, math.Float32bits(f)) }
	var body []byte
	body = append(body, f32(0.25)...)
	body = append(body, f32(1.5)...)
	body = append(body, 3)
	body = append(append(body, f32(0.5)...), 0)
	body = append(append(body, f32(-2)...), 4)
	return blh1(8, 1, 1, 1, body)
}

func TestReadModelHostileInputFailsTyped(t *testing.T) {
	ok := tinyModel()
	if _, err := ReadModel(bytes.NewReader(ok)); err != nil {
		t.Fatalf("tiny model rejected: %v", err)
	}
	for name, in := range map[string][]byte{
		"huge geometry, no rows": blh1(8, 1<<20, 1<<12, 1<<12, make([]byte, 8)),
		"truncated row":          ok[:len(ok)-1],
		"truncated geometry":     ok[:6],
		"zero filters":           blh1(8, 1, 0, 1, nil),
		"oversized buckets":      blh1(8, 1<<20+1, 1, 1, nil),
		"weight level 5":         append(append([]byte(nil), ok[:len(ok)-1]...), 5),
	} {
		if _, err := ReadModel(bytes.NewReader(in)); !errors.Is(err, ErrBadHelperData) {
			t.Errorf("%s: err = %v, want ErrBadHelperData", name, err)
		}
	}
}

// TestReadModelAllocationBoundedByInput feeds 20-odd-byte headers
// claiming 2^21 rows (and, in the first, 2^24 output weights): the
// reader must fail having allocated in proportion to the bytes present,
// not the geometry.
func TestReadModelAllocationBoundedByInput(t *testing.T) {
	body := make([]byte, 9) // bias, output scale, one output weight
	body[8] = 2
	for name, in := range map[string][]byte{
		"huge output layer": blh1(8, 1<<20, 1<<12, 1<<12, body[:8]),
		"huge row tables":   blh1(8, 1<<20, 1, 1, body),
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := ReadModel(bytes.NewReader(in))
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrBadHelperData) {
			t.Fatalf("%s: err = %v, want ErrBadHelperData", name, err)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
			t.Errorf("%s: %d-byte input allocated %d bytes", name, len(in), got)
		}
	}
}

// FuzzReadModel: arbitrary bytes never panic or over-allocate, every
// failure past the magic is typed, and an accepted model re-encodes to
// the bytes it was read from.
func FuzzReadModel(f *testing.F) {
	f.Add(tinyModel())
	f.Add(blh1(8, 1<<20, 1<<12, 1<<12, make([]byte, 8)))
	f.Add(blh1(8, 1<<20, 1, 1, []byte{0, 0, 0, 0, 0, 0, 0, 0, 2}))
	f.Add([]byte("BLH1"))
	f.Fuzz(func(t *testing.T, in []byte) {
		m, err := ReadModel(bytes.NewReader(in))
		if err != nil {
			if len(in) >= 4 && bytes.Equal(in[:4], helperMagic[:]) && !errors.Is(err, ErrBadHelperData) {
				t.Fatalf("untyped error past the magic: %v", err)
			}
			return
		}
		var out bytes.Buffer
		if _, err := m.WriteTo(&out); err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		if !bytes.HasPrefix(in, out.Bytes()) {
			t.Fatalf("re-encoding differs from the input it was read from")
		}
	})
}
