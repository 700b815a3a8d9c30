package tracestore

import (
	"os"
	"testing"
)

// BenchmarkStoreSlice times the store's two per-slice costs on one
// Quick-sized slice: writing the file (checksum plus write syscalls
// into the page cache) and cold-pinning it through a fresh Store, so
// the mapping cache misses and every pin maps and verifies the whole
// file. Throughput is reported over the file size.
func BenchmarkStoreSlice(b *testing.B) {
	k := testKey()
	insts := testInsts(quickSliceInsts, 13)
	fileBytes := int64(len(payloadBytes(insts))) + sliceHeaderSize

	b.Run("write", func(b *testing.B) {
		s := mustOpen(b, b.TempDir(), 0)
		path := slicePath(s, k, 0)
		b.SetBytes(fileBytes)
		b.ResetTimer()
		for range b.N {
			if err := s.WriteSlice(k, 0, insts); err != nil {
				b.Fatal(err)
			}
			// Writes are idempotent: remove the file so the next one
			// writes again.
			b.StopTimer()
			if err := os.Remove(path); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
	})

	b.Run("verify", func(b *testing.B) {
		dir := b.TempDir()
		if err := mustOpen(b, dir, 0).WriteSlice(k, 0, insts); err != nil {
			b.Fatal(err)
		}
		b.SetBytes(fileBytes)
		for b.Loop() {
			s, err := Open(dir, 0)
			if err != nil {
				b.Fatal(err)
			}
			p, err := s.PinSlice(k, 0, quickSliceInsts)
			if err != nil {
				b.Fatal(err)
			}
			p.Unpin()
			if err := s.Close(); err != nil {
				b.Fatal(err)
			}
		}
	})
}
