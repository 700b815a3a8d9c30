// Package tracestore is the target package: exported functions
// returning file-tainted payload on ungated paths are flagged.
package tracestore

import (
	"blob"
	"os"
	"trace"
)

type Pin struct {
	insts []trace.Inst
}

// --- raw bytes straight out: flagged ---

func ReadRaw(path string) ([]byte, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return b, nil // want `returning unverified \[\]byte`
}

// --- the verify-then-return shape: clean ---

func ReadVerified(path string) ([]byte, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if err := verifyBlob(path, b); err != nil {
		return nil, err
	}
	return b, nil
}

func verifyBlob(path string, b []byte) error { return nil }

// --- decoding through a directive-marked gate: clean ---

//storegate:gate
func decodeInsts(b []byte) ([]trace.Inst, error) { return nil, nil }

func Load(path string) ([]trace.Inst, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return decodeInsts(b)
}

// --- taint through an unexported raw loader (mapFile shape) ---

// mapFile gets a ReadsUnverified fact, not a diagnostic: returning
// raw bytes is its documented job.
func mapFile(f *os.File, n int) ([]byte, error) {
	buf := make([]byte, n)
	if _, err := f.Read(buf); err != nil {
		return nil, err
	}
	return buf, nil
}

func castInsts(b []byte) []trace.Inst { return nil }

// Payload struct leaves without a gate: flagged, through the local
// fact on mapFile.
func PinRaw(f *os.File, n int) (*Pin, error) {
	raw, err := mapFile(f, n)
	if err != nil {
		return nil, err
	}
	return &Pin{insts: castInsts(raw)}, nil // want `returning unverified \*tracestore.Pin`
}

// Same flow, gated before the return: clean.
func PinVerified(f *os.File, n int) (*Pin, error) {
	raw, err := mapFile(f, n)
	if err != nil {
		return nil, err
	}
	if err := verifyBlob("", raw); err != nil {
		return nil, err
	}
	return &Pin{insts: castInsts(raw)}, nil
}

// --- facts crossing the package boundary ---

// Flagged via the imported ReadsUnverified fact on blob.RawLoad.
func FromBlob(path string) ([]byte, error) {
	b, err := blob.RawLoad(path)
	if err != nil {
		return nil, err
	}
	return b, nil // want `returning unverified \[\]byte`
}

// Clean via the imported Gated facts: VerifyBlob dominates, Decode
// blesses.
func FromBlobVerified(path string) ([]byte, error) {
	b, err := blob.RawLoad(path)
	if err != nil {
		return nil, err
	}
	if err := blob.VerifyBlob(b); err != nil {
		return nil, err
	}
	return blob.Decode(b), nil
}

// --- non-payload results and cached data: clean ---

func Count(path string) (int, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	return len(b), nil
}

func (p *Pin) PinnedInsts() []trace.Inst {
	return p.insts
}

// --- a justified suppression silences the site ---

func Escape(path string) ([]byte, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	//lint:ignore storegate golden-file justification for the raw escape hatch
	return b, nil
}
