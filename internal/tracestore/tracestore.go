// Package tracestore is the persistent, content-addressed on-disk tier
// beneath the slice cache (DESIGN.md §11): recorded slices and a
// per-trace header holding the recorded extent land in a directory store
// keyed by the content hash of what generated them, survive process
// restarts, and are served back zero-copy via mmap into the replay
// machinery.
//
// Writes stream. A SliceWriter appends a slice's payload to a temp
// file piece by piece while the recorder is still producing it, keeps
// a running checksum, and on Commit writes the slice header and renames
// the file into place; Abort removes it. A file is visible under its
// final name only once complete. A temp file's name carries
// its writer's pid, so Open removes the tmp-* strays of writers that
// are gone and leaves a live writer's file alone.
//
// The store is an exactness-preserving cache, never an authority: every
// read re-verifies checksums, identity echoes, format version and
// machine layout, and anything that fails — torn write, flipped bit,
// stale version, foreign file — is deleted and reported as a typed
// reject so the caller re-records the content. Recording is
// deterministic, so the fallback is byte-identical to the stored bytes
// ever being served; the store can therefore be shared between CI jobs,
// capped, corrupted, or wiped without any run's artifacts changing.
//
// Concurrency: all methods are safe for concurrent use. Mappings are
// verified once, cached per slice file and held until Close, so a
// pinned slice stays valid across disk-tier (cap) eviction of its
// backing file — an unlinked mapping remains readable. Each Pin owns
// one reference to its mapping (PinSlice adds one, Unpin drops it);
// when the last reference goes, the
// store releases the mapping's pages to the kernel (madvise
// MADV_DONTNEED) but keeps the mapping and its verification, so the
// resident set follows the live pins while a later pin, or a stale
// reader, refaults the same verified bytes from the page cache. Close
// invalidates every pin; callers close the store only after all
// replays using it have completed.
package tracestore

import (
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"branchlab/internal/faultinject"
	"branchlab/internal/report"
	"branchlab/internal/trace"
)

// Store is one on-disk trace store rooted at a directory. The zero
// value is not usable; construct with Open. A nil *Store is valid
// everywhere and stores nothing (every read misses, every write is
// dropped), so callers thread it unconditionally.
type Store struct {
	dir      string
	maxBytes int64 // disk cap over payload files (0 = unbounded)

	mu       sync.Mutex
	dirBytes map[string]int64    // per-trace-directory byte totals
	dirOrder []string            // LRU over trace dirs: front = coldest
	maps     map[string]*mapping // verified mappings, keyed by file path
	stats    Stats
}

// mapping is one loaded slice file: the raw bytes (mmap'd or, on the
// portable fallback, heap-read), the verified instruction view, and the
// number of live pins on it (under Store.mu). raw is nil once Close
// has unmapped it.
type mapping struct {
	raw    []byte
	mapped bool // raw came from mmap and needs munmap at Close
	insts  []trace.Inst
	refs   int
}

// Stats are the store's monotonic counters (plus point-in-time
// occupancy). Retrieved with Store.Stats; rendered with Table/String.
type Stats struct {
	HeaderHits   uint64 // trace headers served from disk
	HeaderMisses uint64 // header lookups with no stored file
	SliceHits    uint64 // slice pins served from verified stored files
	SliceMisses  uint64 // slice pins with no stored file, or whose file another reader rejected first
	Rejects      uint64 // files that failed verification (deleted; each counted once)

	HeaderWrites uint64 // header files written
	SliceWrites  uint64 // slice files written
	WriteSkips   uint64 // writes skipped because the file already exists
	WriteErrors  uint64 // writes dropped on error (content stays re-recordable)
	ReadErrors   uint64 // reads failed before verification (treated as misses)

	Traces      int    // trace directories on disk
	BytesOnDisk int64  // bytes across all stored trace directories
	CapBytes    int64  // configured disk cap (0 = unbounded)
	DirsEvicted uint64 // trace directories evicted by the disk cap
	BytesMapped int64  // bytes of verified mappings held until Close (address space, not resident pages)
	MmapServing bool   // true when this build serves via mmap (zero-copy)

	// BytesResident is the size of the mappings with at least one live
	// pin: the store's share of the resident set where the last unpin
	// releases pages (Linux mmap serving; elsewhere released mappings
	// stay resident up to BytesMapped). PeakResident is its high-water
	// mark.
	BytesResident int64
	PeakResident  int64
}

// Table renders the counters as a report table (for stderr diagnostics).
func (s Stats) Table() *report.Table {
	t := report.NewTable("trace store",
		"hdr hits", "hdr misses", "slice hits", "slice misses", "rejects",
		"writes", "skips", "io errors",
		"traces", "MiB on disk", "MiB cap", "evicted", "serving", "MiB resident")
	capMiB := "unbounded"
	if s.CapBytes > 0 {
		capMiB = fmt.Sprintf("%.1f", float64(s.CapBytes)/(1<<20))
	}
	serving := "read"
	if s.MmapServing {
		serving = "mmap"
	}
	t.AddRow(
		fmt.Sprintf("%d", s.HeaderHits),
		fmt.Sprintf("%d", s.HeaderMisses),
		fmt.Sprintf("%d", s.SliceHits),
		fmt.Sprintf("%d", s.SliceMisses),
		fmt.Sprintf("%d", s.Rejects),
		fmt.Sprintf("%d", s.HeaderWrites+s.SliceWrites),
		fmt.Sprintf("%d", s.WriteSkips),
		fmt.Sprintf("%d", s.WriteErrors+s.ReadErrors),
		fmt.Sprintf("%d", s.Traces),
		fmt.Sprintf("%.1f", float64(s.BytesOnDisk)/(1<<20)),
		capMiB,
		fmt.Sprintf("%d", s.DirsEvicted),
		serving,
		fmt.Sprintf("%.1f", float64(s.BytesResident)/(1<<20)))
	return t
}

// String is a single-line rendering of the counters.
func (s Stats) String() string {
	return fmt.Sprintf("hdr=%d/%d slice=%d/%d rejects=%d writes=%d+%d skips=%d ioerr=%d/%d traces=%d bytes=%d evicted=%d resident=%d/%d",
		s.HeaderHits, s.HeaderHits+s.HeaderMisses,
		s.SliceHits, s.SliceHits+s.SliceMisses,
		s.Rejects, s.HeaderWrites, s.SliceWrites, s.WriteSkips,
		s.WriteErrors, s.ReadErrors, s.Traces, s.BytesOnDisk, s.DirsEvicted,
		s.BytesResident, s.PeakResident)
}

// WriteStats writes s's counters table to w — the one rendering both
// CLIs share. A nil store writes nothing.
func WriteStats(w io.Writer, s *Store) {
	if s == nil {
		return
	}
	fmt.Fprint(w, s.Stats().Table().String())
}

// Open opens (creating if needed) the store rooted at dir, holding at
// most maxBytes of stored trace data on disk (0 = unbounded; the cap
// counts file bytes, evicting whole least-recently-used trace
// directories). Existing contents are inventoried in sorted name order,
// so the initial eviction order is a pure function of the directory
// contents — no clocks, no mtimes (the determinism contract bans them).
// The inventory removes the tmp-* strays of writers that are gone (see
// isStray) and leaves every other temp file out of the accounting.
func Open(dir string, maxBytes int64) (*Store, error) {
	if maxBytes < 0 {
		return nil, fmt.Errorf("tracestore: negative cap %d", maxBytes)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("tracestore: %w", err)
	}
	s := &Store{
		dir:      dir,
		maxBytes: maxBytes,
		dirBytes: make(map[string]int64),
		maps:     make(map[string]*mapping),
	}
	s.stats.CapBytes = maxBytes
	s.stats.MmapServing = mmapSupported
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("tracestore: %w", err)
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		if e.IsDir() && len(e.Name()) == 16 {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	for _, name := range names {
		var total int64
		files, err := os.ReadDir(filepath.Join(dir, name))
		if err != nil {
			continue
		}
		for _, f := range files {
			if strings.HasPrefix(f.Name(), tmpPrefix) {
				if info, err := f.Info(); err == nil && isStray(f.Name(), tmpPrefix, info) {
					os.Remove(filepath.Join(dir, name, f.Name()))
				}
				continue // a live writer's file is not stored data yet
			}
			if info, err := f.Info(); err == nil {
				total += info.Size()
			}
		}
		s.dirBytes[name] = total
		s.dirOrder = append(s.dirOrder, name)
	}
	s.accountLocked()
	s.evictLocked("")
	return s, nil
}

// Dir returns the store's root directory (for diagnostics).
func (s *Store) Dir() string {
	if s == nil {
		return ""
	}
	return s.dir
}

// Stats returns a snapshot of the counters. A nil store reports zeros.
func (s *Store) Stats() Stats {
	if s == nil {
		return Stats{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.accountLocked()
	return s.stats
}

// accountLocked refreshes the occupancy fields from the bookkeeping.
func (s *Store) accountLocked() {
	var total, mapped int64
	for _, b := range s.dirBytes {
		total += b
	}
	for _, m := range s.maps {
		mapped += int64(len(m.raw))
	}
	s.stats.Traces = len(s.dirBytes)
	s.stats.BytesOnDisk = total
	s.stats.BytesMapped = mapped
}

// touchLocked moves a trace directory to the warm end of the eviction
// order, inserting it if new. Recency is in-process access order seeded
// from the sorted inventory — deterministic, clock-free.
func (s *Store) touchLocked(name string) {
	for i, n := range s.dirOrder {
		if n == name {
			s.dirOrder = append(append(s.dirOrder[:i:i], s.dirOrder[i+1:]...), name)
			return
		}
	}
	s.dirOrder = append(s.dirOrder, name)
}

// evictLocked removes least-recently-used trace directories until the
// disk cap is met, never evicting keep (the directory being served or
// written right now). Mappings into evicted files stay valid: the files
// are unlinked, not unmapped, so outstanding pins keep their bytes.
func (s *Store) evictLocked(keep string) {
	if s.maxBytes == 0 {
		return
	}
	total := int64(0)
	for _, b := range s.dirBytes {
		total += b
	}
	for i := 0; total > s.maxBytes && i < len(s.dirOrder); {
		name := s.dirOrder[i]
		if name == keep {
			i++
			continue
		}
		os.RemoveAll(filepath.Join(s.dir, name))
		total -= s.dirBytes[name]
		delete(s.dirBytes, name)
		s.dirOrder = append(s.dirOrder[:i], s.dirOrder[i+1:]...)
		s.stats.DirsEvicted++
	}
}

// tracePath returns the directory holding k's files.
func (s *Store) tracePath(k Key) (dir, name string) {
	name = k.hash()
	return filepath.Join(s.dir, name), name
}

// WriteHeader persists k's trace header: the recorded extent.
// Idempotent (an existing header is left alone — same key, same bytes)
// and non-fatal on error: a failed write only costs a future re-record.
// Safe on a nil store.
func (s *Store) WriteHeader(k Key, total uint64) error {
	if s == nil {
		return nil
	}
	dir, name := s.tracePath(k)
	path := filepath.Join(dir, "header")
	s.mu.Lock()
	s.touchLocked(name)
	if _, err := os.Stat(path); err == nil {
		s.stats.WriteSkips++
		s.mu.Unlock()
		return nil
	}
	s.mu.Unlock()
	if err := faultinject.Fail(faultinject.StoreWrite); err != nil {
		s.noteWriteError()
		return err
	}
	b := encodeHeader(k, total)
	if err := writeFile(dir, path, b); err != nil {
		s.noteWriteError()
		return err
	}
	s.mu.Lock()
	s.stats.HeaderWrites++
	s.dirBytes[name] += int64(len(b))
	s.evictLocked(name)
	s.mu.Unlock()
	return nil
}

// ReadHeader loads and verifies k's trace header, returning the
// recorded extent. ErrNotFound is a clean miss; a verification failure
// deletes the whole trace directory (its identity cannot be trusted)
// and returns a typed reject. Safe on a nil store.
func (s *Store) ReadHeader(k Key) (total uint64, err error) {
	if s == nil {
		return 0, ErrNotFound
	}
	dir, name := s.tracePath(k)
	path := filepath.Join(dir, "header")
	if err := faultinject.Fail(faultinject.StoreRead); err != nil {
		s.noteReadError()
		return 0, err
	}
	b, rerr := os.ReadFile(path)
	if rerr != nil {
		s.mu.Lock()
		s.stats.HeaderMisses++
		s.mu.Unlock()
		if errors.Is(rerr, os.ErrNotExist) {
			return 0, ErrNotFound
		}
		s.noteReadError()
		return 0, rerr
	}
	total, err = decodeHeader(path, k, b)
	if err != nil {
		s.dropTrace(name)
		return 0, err
	}
	s.mu.Lock()
	s.stats.HeaderHits++
	s.touchLocked(name)
	s.mu.Unlock()
	return total, nil
}

// SliceWriter streams one slice file into the store while its
// instructions are still being produced: Append writes each piece of
// the payload to a temp file beside the final one and extends a
// running CRC-32C; Commit fills in the slice header at offset 0 and
// renames the file into place; Abort removes it. Readers therefore see
// the whole verified file or none, as with every store write. Errors
// are sticky and non-fatal: they are counted once in WriteErrors and
// returned by Commit, and a failed write only costs a future
// re-record. A nil *SliceWriter (from a nil store) accepts every call
// and writes nothing. A writer is used by one goroutine at a time.
type SliceWriter struct {
	s     *Store
	k     Key
	idx   int
	name  string   // trace directory name
	path  string   // final file path
	f     *os.File // temp file; nil when skipped, finished or failed
	sum   uint32   // running CRC-32C of the payload
	count uint64   // instructions appended
	first byte     // first payload byte, for the StoreCorrupt drill
	err   error
}

// BeginSlice starts writing slice idx of k's recording. When the store
// already holds that file — same key, same bytes — the writer skips it
// (counted once in WriteSkips). The StoreWrite fault point fails the
// write here, before any file exists. Safe on a nil store (returns a
// nil writer).
func (s *Store) BeginSlice(k Key, idx int) *SliceWriter {
	if s == nil {
		return nil
	}
	dir, name := s.tracePath(k)
	w := &SliceWriter{s: s, k: k, idx: idx, name: name, path: filepath.Join(dir, fmt.Sprintf("s%06d", idx))}
	s.mu.Lock()
	s.touchLocked(name)
	if _, err := os.Stat(w.path); err == nil {
		s.stats.WriteSkips++
		s.mu.Unlock()
		return w // no temp file: every later call is a no-op
	}
	s.mu.Unlock()
	if err := faultinject.Fail(faultinject.StoreWrite); err != nil {
		w.fail(err)
		return w
	}
	f, err := createTemp(dir)
	if err != nil {
		w.fail(err)
		return w
	}
	w.f = f
	// Reserve the header; Commit writes it once the payload sum is known.
	var zero [sliceHeaderSize]byte
	if _, err := f.Write(zero[:]); err != nil {
		w.fail(err)
	}
	return w
}

// Append writes insts as the next piece of the slice's payload. insts
// is only read, and not retained past the call.
func (w *SliceWriter) Append(insts []trace.Inst) {
	if w == nil || w.f == nil || len(insts) == 0 {
		return
	}
	b := payloadBytes(insts)
	if w.count == 0 {
		w.first = b[0]
	}
	if _, err := w.f.Write(b); err != nil {
		w.fail(err)
		return
	}
	w.sum = crc32.Update(w.sum, castagnoli(), b)
	w.count += uint64(len(insts))
}

// Commit writes the slice header over the reserved bytes and renames
// the file into place, returning the writer's first error. The
// StoreCorrupt chaos point flips the first payload byte in the file at
// this point — never in the arrays that were appended — arming the
// never-wrong-bytes drill: the next process to read the file must
// reject it.
func (w *SliceWriter) Commit() error {
	if w == nil {
		return nil
	}
	if w.f == nil {
		return w.err // skipped, aborted or failed
	}
	hdr := encodeSliceHeader(w.k.hash64(), w.idx, w.count, uint64(w.sum))
	if _, err := w.f.WriteAt(hdr[:], 0); err != nil {
		return w.fail(err)
	}
	if w.count > 0 && faultinject.Chaos(faultinject.StoreCorrupt) {
		if _, err := w.f.WriteAt([]byte{w.first ^ 0xFF}, sliceHeaderSize); err != nil {
			return w.fail(err)
		}
	}
	f := w.f
	w.f = nil
	if err := f.Close(); err != nil {
		os.Remove(f.Name())
		return w.fail(err)
	}
	// The rename runs under mu, as rejectFile's check-and-remove does,
	// so a reader rejecting the file this path named before cannot
	// remove this one.
	s := w.s
	s.mu.Lock()
	err := os.Rename(f.Name(), w.path)
	if err == nil {
		s.stats.SliceWrites++
		s.dirBytes[w.name] += sliceHeaderSize + int64(w.count*instBytes)
		s.evictLocked(w.name)
	}
	s.mu.Unlock()
	if err != nil {
		os.Remove(f.Name())
		return w.fail(err)
	}
	return nil
}

// Abort drops the slice: its temp file is removed and nothing reaches
// the store. Aborting a committed, skipped or failed writer is a
// no-op.
func (w *SliceWriter) Abort() {
	if w == nil || w.f == nil {
		return
	}
	w.f.Close()
	os.Remove(w.f.Name())
	w.f = nil
}

// fail records the writer's first error, counts it and drops the temp
// file; it returns the recorded error.
func (w *SliceWriter) fail(err error) error {
	if w.err == nil {
		w.err = fmt.Errorf("tracestore: %w", err)
		w.s.noteWriteError()
	}
	w.Abort()
	return w.err
}

// createTemp opens a uniquely named temp file in dir (created if
// needed). Every store file is written there first and renamed into
// place, so a concurrent writer or a crash can never leave a
// half-written file under a final name (readers see old, new, or
// nothing — and "nothing" just means re-record). The name carries this
// process's pid, so a later Open can tell a killed writer's stray from
// a live writer's file.
func createTemp(dir string) (*os.File, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return os.CreateTemp(dir, ownName(tmpPrefix))
}

// writeFile writes b to path through a temp file and a rename (see
// createTemp).
func writeFile(dir, path string, b []byte) error {
	f, err := createTemp(dir)
	if err != nil {
		return fmt.Errorf("tracestore: %w", err)
	}
	_, err = f.Write(b)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(f.Name(), path)
	}
	if err != nil {
		os.Remove(f.Name())
		return fmt.Errorf("tracestore: %w", err)
	}
	return nil
}

// Pin is one served slice: a verified instruction view over store-owned
// memory, holding one reference to its mapping until Unpin. While any
// pin on a mapping is live its pages may stay resident; the last Unpin
// releases them. Holding instruction slices past Unpin is the same bug
// class as retaining a trace.BlockStream block — the blockalias
// analyzer enforces the discipline statically. (A stale reader still
// reads the verified bytes, refaulted from the page cache, until the
// store closes; it only costs residency the store no longer counts.)
type Pin struct {
	s     *Store
	m     *mapping // nil once unpinned
	insts []trace.Inst
}

// PinnedInsts returns the pinned instruction slice. Callers must not
// retain it (or any subslice) past Unpin.
func (p *Pin) PinnedInsts() []trace.Inst { return p.insts }

// Unpin drops the pin's reference; the last reference to a mapping
// releases its pages. Unpinning twice is a no-op, as is unpinning
// after Close.
func (p *Pin) Unpin() {
	p.s.mu.Lock()
	defer p.s.mu.Unlock()
	if p.m == nil {
		return
	}
	p.s.unrefLocked(p.m)
	p.m = nil
	p.insts = nil
}

// refLocked adds one reference to m, counting its bytes resident on
// the first.
func (s *Store) refLocked(m *mapping) {
	m.refs++
	if m.refs == 1 && m.raw != nil {
		s.stats.BytesResident += int64(len(m.raw))
		s.stats.PeakResident = max(s.stats.PeakResident, s.stats.BytesResident)
	}
}

// unrefLocked drops one reference to m and, on the last, hands its
// pages back to the kernel. The mapping stays, verified, for the next
// pin; a mapping Close already released has nothing left to return.
func (s *Store) unrefLocked(m *mapping) {
	m.refs--
	if m.refs == 0 && m.raw != nil {
		s.stats.BytesResident -= int64(len(m.raw))
		if m.mapped {
			releasePages(m.raw)
		}
	}
}

// PinSlice serves slice idx of k's recording as a verified zero-copy
// instruction view, holding one reference to its mapping until the
// returned pin's Unpin. wantCount is the instruction count the caller's
// trace geometry requires; any stored file disagreeing with it — or
// failing any integrity check — is deleted and rejected. ErrNotFound
// is a clean miss, also for a reader whose damaged file another reader
// rejected first, so each damaged file is rejected once. Safe on a nil
// store.
func (s *Store) PinSlice(k Key, idx int, wantCount uint64) (*Pin, error) {
	if s == nil {
		return nil, ErrNotFound
	}
	dir, name := s.tracePath(k)
	path := filepath.Join(dir, fmt.Sprintf("s%06d", idx))

	s.mu.Lock()
	if m, ok := s.maps[path]; ok {
		s.stats.SliceHits++
		s.touchLocked(name)
		s.refLocked(m)
		s.mu.Unlock()
		//lint:ignore storegate the cached mapping passed verifySliceFile when it entered s.maps below; the taint engine's aliasing over-approximation cannot see that
		return &Pin{s: s, m: m, insts: m.insts}, nil
	}
	s.mu.Unlock()

	if err := faultinject.Fail(faultinject.StoreRead); err != nil {
		s.noteReadError()
		return nil, err
	}
	f, err := os.Open(path)
	if err != nil {
		s.mu.Lock()
		s.stats.SliceMisses++
		s.mu.Unlock()
		if errors.Is(err, os.ErrNotExist) {
			return nil, ErrNotFound
		}
		s.noteReadError()
		return nil, err
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		s.noteReadError()
		return nil, err
	}
	raw, mapped, err := mapFile(f, info.Size())
	if err != nil {
		s.noteReadError()
		return nil, fmt.Errorf("tracestore: %w", err)
	}
	if err := verifySliceFile(path, raw, k.hash64(), idx, wantCount); err != nil {
		if mapped {
			unmapFile(raw)
		}
		if !s.rejectFile(path, name, info) {
			return nil, ErrNotFound
		}
		return nil, err
	}
	m := s.adopt(path, name, &mapping{
		raw:    raw,
		mapped: mapped,
		insts:  payloadInsts(raw[sliceHeaderSize:], wantCount),
	})
	return &Pin{s: s, m: m, insts: m.insts}, nil
}

// adopt caches m, a freshly verified mapping of path in trace directory
// name, and takes one reference on the mapping the store keeps: m, or —
// when another pinner of the same file got there first — theirs (both
// verified the same bytes), in which case m is unmapped.
func (s *Store) adopt(path, name string, m *mapping) *mapping {
	s.mu.Lock()
	kept, lost := s.maps[path]
	if !lost {
		kept = m
		s.maps[path] = m
	}
	s.refLocked(kept)
	s.stats.SliceHits++
	s.touchLocked(name)
	s.mu.Unlock()
	if lost && m.mapped {
		unmapFile(m.raw)
	}
	return kept
}

// rejectFile deletes one untrustworthy slice file, the one info
// describes, counts the reject and reports true; the rest of the trace
// directory stays (each file verifies independently). A path that no
// longer names that file was rejected by a concurrent reader or healed
// by a writer since it was opened: it stays, nothing is counted, and
// rejectFile reports false.
func (s *Store) rejectFile(path, name string, info os.FileInfo) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	cur, err := os.Stat(path)
	if err != nil || !os.SameFile(cur, info) {
		s.stats.SliceMisses++
		return false
	}
	s.stats.Rejects++
	if os.Remove(path) != nil {
		return true
	}
	if b, ok := s.dirBytes[name]; ok {
		if b -= info.Size(); b > 0 {
			s.dirBytes[name] = b
		} else {
			s.dirBytes[name] = 0
		}
	}
	return true
}

// dropTrace deletes an entire trace directory whose identity failed
// verification and counts the reject.
func (s *Store) dropTrace(name string) {
	os.RemoveAll(filepath.Join(s.dir, name))
	s.mu.Lock()
	s.stats.Rejects++
	delete(s.dirBytes, name)
	for i, n := range s.dirOrder {
		if n == name {
			s.dirOrder = append(s.dirOrder[:i], s.dirOrder[i+1:]...)
			break
		}
	}
	s.mu.Unlock()
}

func (s *Store) noteWriteError() {
	s.mu.Lock()
	s.stats.WriteErrors++
	s.mu.Unlock()
}

func (s *Store) noteReadError() {
	s.mu.Lock()
	s.stats.ReadErrors++
	s.mu.Unlock()
}

// Close unmaps every cached mapping, pinned or not. It must only be
// called once all replays served by this store have completed: pins do
// not survive Close (their Unpin becomes a no-op). The store directory
// itself is left intact — that persistence is the point. Safe on a nil
// store.
func (s *Store) Close() error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var first error
	for path, m := range s.maps {
		if m.mapped {
			if err := unmapFile(m.raw); err != nil && first == nil {
				first = fmt.Errorf("tracestore: %w", err)
			}
		}
		m.raw, m.insts = nil, nil
		delete(s.maps, path)
	}
	s.stats.BytesResident = 0
	return first
}
