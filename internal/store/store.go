// Package store is the crash-safe, on-disk, content-addressed
// simulation-cell store behind `spectrebench serve` and `run -store`:
// the second level of the engine's cell cache, shared across processes
// and restarts.
//
// Determinism makes the store sound: a cell's value and simulated-cycle
// cost are a pure function of its engine.Key, so a stored result
// replayed into a later run renders the exact bytes a fresh simulation
// would. The store's own job is to make that cache survive crashes
// while absorbing million-cell sweeps: records are appended to a small
// number of segment logs with group-committed fsyncs and indexed in
// memory.
//
// # Layout
//
//	<dir>/LOCK                      flock'd while the store is open; holds the owner pid
//	<dir>/segments/seg-NNNNNN.log   append-only record logs (~4 MB each)
//	<dir>/segments/side-NNNNNN.log  display→canonical link logs (see v3.go)
//	<dir>/segments/MANIFEST         index of the sealed segments (see v3.go)
//	<dir>/quarantine/               damaged bytes set aside by recovery, never deleted
//
// A segment is a sequence of framed records:
//
//	offset    size  field
//	------    ----  -----------------------------------------------
//	+0        4     magic "SBS3"
//	+4        4     crc32(payload), big endian
//	+8        4     len(payload), big endian
//	+12       len   payload: binary key, cycles and value (see v3.go)
//
// The full engine.Key in the payload is the content address — the
// in-memory index is keyed by the struct itself, so a hash collision
// cannot alias two cells.
//
// # Legacy layouts
//
// Earlier versions of the store wrote one file per cell under cells/
// (v1) and gob-encoded records in "SBS2" segments (v2), and migrated
// both forward on open. The store is a cache, so those layouts are no
// longer read: Open refuses a directory holding a cells/ directory,
// an "SBS2" segment, or the leftover segments.v3/ or segments.v2old/
// build of an interrupted migration with ErrLegacyLayout, and leaves
// the directory untouched. Point the store at a fresh directory (or
// remove the old one) and the cells re-simulate.
//
// # Crash safety
//
//   - Appends are tail-only. A crash — up to and including kill -9
//     mid-write — can only tear the last record of the newest segment.
//     The open scan truncates a torn tail (counted in Stats.TornTail,
//     logged, nothing quarantined: it is the expected debris of a
//     crash) and every record before it stays committed.
//   - Every record carries a CRC32 over its payload. Get re-verifies it
//     on every read, so a flipped bit on disk is detected, not replayed
//     into results; the damaged record is set aside in quarantine/ and
//     the entry re-simulates (self-healing). A record whose value cannot
//     be decoded takes the same path.
//   - Mid-segment corruption (bit rot, overwritten spans) is found by
//     the open scan: the scan resynchronises on the next valid record
//     boundary, copies the damaged span to quarantine/ (preserved for
//     forensics, never deleted), and rewrites the segment without it —
//     every undamaged record keeps serving.
//   - Group commit: appends are fsynced every few records, on segment
//     rotation, by a background flusher, and at Close. A power cut can
//     cost the last unsynced group (they re-simulate); it cannot
//     corrupt committed records. Options.NoSync skips fsyncs entirely
//     for tests (atomicity against process death does not need them).
//   - An exclusive lock file (flock) makes a store single-writer: a
//     second daemon opening the same directory gets ErrLocked
//     immediately. The kernel releases the lock when the owner dies,
//     however it dies.
//
// # Compaction
//
// Records die when a duplicate key is found at scan, when Get
// quarantines a corrupt record, or when compaction rewrites supersede
// them. Sealed segments whose records are mostly dead are compacted —
// live records re-appended to the current segment, the old file
// deleted — by Compact (called periodically by the background flusher,
// and available to tests and tools).
//
// Cell values other than float64 cross the gob boundary as interfaces,
// so every such concrete cell value type must be registered with
// encoding/gob (the harness registers its types in an init; see
// internal/harness). A value whose type is not registered is skipped on
// Put and counted in Stats.PutErrors — the store degrades to a smaller
// cache, it never fails a run. The same degradation applies to write
// errors (see Options.Fault for the injectable disk-full fault point).
package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"spectrebench/internal/engine"
	"spectrebench/internal/faultinject"
)

// ErrLocked reports that another process holds the store's exclusive
// lock (a second daemon pointed at a live store directory).
var ErrLocked = errors.New("store: directory is locked by another process")

// ErrLegacyLayout reports a directory written by an earlier version of
// the store (see "Legacy layouts" in the package doc). Open leaves such
// a directory exactly as it found it.
var ErrLegacyLayout = errors.New("store: directory holds a legacy store layout this version no longer reads")

// magicV2 is the leading magic of a legacy v2 segment record.
var magicV2 = [4]byte{'S', 'B', 'S', '2'}

const (
	lockName       = "LOCK"
	segsDirName    = "segments"
	quarantineName = "quarantine"
	segPrefix      = "seg-"
	segExt         = ".log"
	tmpExt         = ".tmp"
	headerLen      = 12 // magic + crc32 + payload length

	// groupCommitEvery fsyncs the current segment after this many
	// unsynced appends (plus rotation, the background flusher and
	// Close).
	groupCommitEvery = 64
	// flushInterval is the background flusher's tick.
	flushInterval = 200 * time.Millisecond
	// compactEvery runs Compact every this many flusher ticks.
	compactEvery = 16
)

// segMaxBytes rotates the current segment once it grows past this. A
// variable so tests can exercise rotation and compaction without
// writing megabytes.
var segMaxBytes int64 = 4 << 20

// Options configures Open.
type Options struct {
	// NoSync skips every fsync. Committed entries are then atomic
	// against process death (kill -9) but not against power loss; the
	// background flusher and compactor are not started. Tests and
	// benchmarks use it; daemons should not.
	NoSync bool
	// Logf, when non-nil, receives recovery and degradation notices
	// (quarantined spans, truncated tails, skipped writes). The store
	// never logs to a default destination on its own.
	Logf func(format string, args ...any)
	// Fault, when non-nil, is consulted at the StoreWrite fault point
	// before each segment append: a fired fault simulates a disk-full
	// short write (half the record lands, the tail is rolled back, the
	// put is counted in Stats.PutErrors). The store serializes appends,
	// so the injector needs no locking of its own.
	Fault *faultinject.Injector
}

// Stats is a snapshot of the store's counters. The scan fields are
// fixed at Open; the rest accumulate over the store's lifetime.
type Stats struct {
	// Entries is the number of committed, valid entries currently
	// indexed.
	Entries int
	// Hits / Misses count Get outcomes.
	Hits, Misses uint64
	// Puts counts entries committed by this process; PutErrors counts
	// Put attempts skipped or failed (unregistered value type, I/O
	// error, injected disk-full).
	Puts, PutErrors uint64
	// Quarantined counts damage events whose bytes were moved to
	// quarantine/ — corrupt spans found by the open scan, and Get
	// checksum or decode failures since.
	Quarantined uint64
	// TmpSwept counts abandoned temporary files removed at Open (the
	// debris of a crash mid-rewrite of a segment or the manifest).
	TmpSwept int
	// TornTail counts segment tails truncated at Open — the partial
	// record a crash mid-append leaves. Expected debris, not damage.
	TornTail int
	// Segments is the number of live segment files.
	Segments int
	// DeadRecords counts records still occupying segment bytes whose
	// key has been superseded or quarantined (reclaimed by Compact).
	DeadRecords int
	// Compactions counts segments removed or rewritten by Compact.
	Compactions uint64
	// ManifestSegments counts sealed segments indexed straight from the
	// open-time manifest, without scanning their bytes.
	ManifestSegments int
	// GetBatches counts GetBatch calls (each resolves many keys under
	// one index lock).
	GetBatches uint64
	// SidecarLinks is the number of display→canonical links currently
	// held; SidecarHits/SidecarMisses count reads resolved through a
	// link and Resolve calls that found none.
	SidecarLinks  int
	SidecarHits   uint64
	SidecarMisses uint64
}

// segment is one open segment log. size is guarded by the writer mutex;
// live/dead by the index mutex.
type segment struct {
	seq  uint64
	name string // base name under segments/
	f    *os.File
	size int64
	live int
	dead int
}

// ref locates one committed cell inside a segment.
type ref struct {
	seg    *segment
	off    int64 // offset of the record frame
	plen   uint32
	cycles uint64
}

// Store is an open cell store. It is safe for concurrent use by the
// engine's workers.
type Store struct {
	dir    string
	segDir string
	opts   Options

	lockFile *os.File

	// mu guards the index, the sidecar link map and every segment's
	// live/dead counters.
	mu    sync.RWMutex
	index map[engine.Key]ref
	// links resolves a display key's fingerprint to its canonical key
	// (the sidecar).
	links map[[2]uint64]engine.Key

	// wmu serializes writers: appends, rotation, compaction, sidecar
	// and manifest writes. Lock order: wmu before mu, never the
	// reverse.
	wmu      sync.Mutex
	segs     []*segment // ascending seq; the last is the append target
	unsynced int
	// Sidecar write state: links buffer in memory and flush in batches
	// to the side log — they are replay hints, not committed data, so
	// losing a tail of them in a crash only costs future lookups a
	// fallback.
	canonIDs  map[engine.Key]uint32
	canonByID []engine.Key
	side      *os.File
	sideName  string
	sideSize  int64
	sideBuf   []byte

	closed  atomic.Bool
	stopCh  chan struct{}
	flushWG sync.WaitGroup

	hits, misses, puts, putErrors, quarantined atomic.Uint64
	compactions, getBatches                    atomic.Uint64
	sideHits, sideMisses                       atomic.Uint64
	tmpSwept, tornTail, manifestSegs           int
}

// Open opens (creating if necessary) the store rooted at dir, acquires
// its exclusive lock and runs the recovery scan over the segment logs.
// A directory in a legacy layout is refused with ErrLegacyLayout before
// anything in it is touched. The returned store must be closed to
// release the lock (the kernel also releases it if the process dies).
func Open(dir string, opts Options) (*Store, error) {
	if what := legacyLayout(dir); what != "" {
		return nil, fmt.Errorf("%w (dir %s holds %s; move it aside or remove it, and the cells re-simulate)",
			ErrLegacyLayout, dir, what)
	}
	s := &Store{
		dir:      dir,
		segDir:   filepath.Join(dir, segsDirName),
		opts:     opts,
		index:    map[engine.Key]ref{},
		links:    map[[2]uint64]engine.Key{},
		canonIDs: map[engine.Key]uint32{},
	}
	if err := os.MkdirAll(dir, 0o777); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	if err := s.acquireLock(); err != nil {
		return nil, err
	}
	fail := func(err error) (*Store, error) {
		s.releaseLock()
		return nil, err
	}
	for _, d := range []string{s.segDir, filepath.Join(dir, quarantineName)} {
		if err := os.MkdirAll(d, 0o777); err != nil {
			return fail(fmt.Errorf("store: %w", err))
		}
	}
	if err := s.recoverScan(); err != nil {
		return fail(err)
	}
	if err := s.scanSideLogs(); err != nil {
		return fail(err)
	}
	if len(s.segs) == 0 {
		if err := s.addSegmentLocked(1); err != nil {
			return fail(err)
		}
	}
	if !s.opts.NoSync {
		s.stopCh = make(chan struct{})
		s.flushWG.Add(1)
		go s.flusher()
	}
	return s, nil
}

// legacyLayout names what marks dir as a legacy store layout, or
// returns "" when there is none (including when dir does not exist
// yet). It only reads: a v1 cells/ directory, a segment log whose first
// record carries the v2 magic, or a migration build directory.
func legacyLayout(dir string) string {
	for _, name := range []string{"cells", segsDirName + ".v3", segsDirName + ".v2old"} {
		if fi, err := os.Stat(filepath.Join(dir, name)); err == nil && fi.IsDir() {
			return "a " + name + "/ directory"
		}
	}
	segDir := filepath.Join(dir, segsDirName)
	entries, err := os.ReadDir(segDir)
	if err != nil {
		return ""
	}
	for _, de := range entries {
		name := de.Name()
		if de.IsDir() || !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, segExt) {
			continue
		}
		f, err := os.Open(filepath.Join(segDir, name))
		if err != nil {
			continue
		}
		var head [4]byte
		n, _ := f.Read(head[:])
		f.Close()
		if n == len(head) && head == magicV2 {
			return "v2 segment " + name
		}
	}
	return ""
}

// acquireLock flocks <dir>/LOCK exclusively and non-blocking, writing
// the owner pid for diagnostics.
func (s *Store) acquireLock() error {
	f, err := os.OpenFile(filepath.Join(s.dir, lockName), os.O_RDWR|os.O_CREATE, 0o666)
	if err != nil {
		return fmt.Errorf("store: lock: %w", err)
	}
	if err := syscall.Flock(int(f.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
		owner, _ := os.ReadFile(filepath.Join(s.dir, lockName))
		f.Close()
		if len(owner) > 0 {
			return fmt.Errorf("%w (dir %s, held by pid %s)", ErrLocked, s.dir, strings.TrimSpace(string(owner)))
		}
		return fmt.Errorf("%w (dir %s)", ErrLocked, s.dir)
	}
	f.Truncate(0)
	fmt.Fprintf(f, "%d\n", os.Getpid())
	s.lockFile = f
	return nil
}

func (s *Store) releaseLock() {
	if s.lockFile != nil {
		syscall.Flock(int(s.lockFile.Fd()), syscall.LOCK_UN)
		s.lockFile.Close()
		s.lockFile = nil
	}
}

func (s *Store) logf(format string, args ...any) {
	if s.opts.Logf != nil {
		s.opts.Logf(format, args...)
	}
}

// recoverScan walks segments/: abandoned *.tmp files (interrupted
// rewrites) are removed, every seg-*.log is validated record by record
// and either indexed, truncated at a torn tail, or — for mid-segment
// corruption — resynchronised with the damaged span quarantined and the
// file rewritten without it. Sealed segments whose size matches the
// open-time manifest are indexed straight from it, without reading
// their bytes.
func (s *Store) recoverScan() error {
	entries, err := os.ReadDir(s.segDir)
	if err != nil {
		return fmt.Errorf("store: scan: %w", err)
	}
	var names []string
	for _, de := range entries {
		if de.IsDir() {
			continue
		}
		name := de.Name()
		if strings.HasSuffix(name, tmpExt) {
			os.Remove(filepath.Join(s.segDir, name))
			s.tmpSwept++
			s.logf("store: swept abandoned temp file %s", name)
			continue
		}
		if strings.HasPrefix(name, segPrefix) && strings.HasSuffix(name, segExt) {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	manifest := s.loadManifest()
	for _, name := range names {
		if m, ok := manifest[name]; ok && s.indexFromManifest(name, m) {
			continue
		}
		if err := s.scanSegment(name); err != nil {
			return err
		}
	}
	return nil
}

// resyncOffset finds the next offset >= from at which a fully valid
// record is framed, or len(data) when the rest of the segment is
// unsalvageable. CRC validation makes a payload byte that happens to
// spell the magic a non-issue.
func resyncOffset(data []byte, from int) int {
	for from < len(data) {
		i := bytes.Index(data[from:], magicV3[:])
		if i < 0 {
			return len(data)
		}
		cand := from + i
		if _, _, _, _, err := parseRecordV3(data, cand); err == nil {
			return cand
		}
		from = cand + 1
	}
	return len(data)
}

// scanRec is one valid record located by the segment scan.
type scanRec struct {
	key    engine.Key
	cycles uint64
	off    int
	n      int
}

// badSpan is one corrupt byte span found by the segment scan:
// data[off:next] is set aside, and the scan resumes at next.
type badSpan struct {
	off, next int
	err       error
}

// scanFrames walks a segment's bytes record by record. It returns the
// valid records in offset order, the corrupt spans between them, and
// end: the offset of a torn tail (the partial record a crash
// mid-append leaves), or len(data) when there is none. Records, spans
// and the torn tail partition data. It only reads data.
func scanFrames(data []byte) (recs []scanRec, bad []badSpan, end int) {
	off := 0
	for off < len(data) {
		key, cycles, _, n, err := parseRecordV3(data, off)
		if err == nil {
			recs = append(recs, scanRec{key: key, cycles: cycles, off: off, n: n})
			off += n
			continue
		}
		if errors.Is(err, errTorn) {
			return recs, bad, off
		}
		next := resyncOffset(data, off+1)
		bad = append(bad, badSpan{off: off, next: next, err: err})
		off = next
	}
	return recs, bad, len(data)
}

// scanSegment validates one segment log, repairing it in place: torn
// tails are truncated, corrupt spans quarantined and the file rewritten
// without them. Valid records are indexed (first writer of a key wins).
func (s *Store) scanSegment(name string) error {
	path := filepath.Join(s.segDir, name)
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("store: scan %s: %w", name, err)
	}
	recs, bad, end := scanFrames(data)
	if end < len(data) {
		// Expected debris, truncated without ceremony.
		s.tornTail++
		s.logf("store: %s: truncated torn tail at offset %d (%d bytes)", name, end, len(data)-end)
	}
	for _, b := range bad {
		// In-place corruption: set the damaged span aside.
		s.quarantineBytes(fmt.Sprintf("%s@%d", name, b.off), data[b.off:b.next])
		s.quarantined.Add(1)
		s.logf("store: %s: quarantined %d corrupt bytes at offset %d: %v", name, b.next-b.off, b.off, b.err)
	}

	seq := segSeq(name)
	seg := &segment{seq: seq, name: name}
	if len(bad) > 0 {
		// Rewrite the segment from its valid records so the next open
		// does not re-quarantine the same span. The rewrite is atomic
		// (tmp + rename); a crash mid-rewrite leaves the original.
		var buf bytes.Buffer
		newRecs := make([]scanRec, len(recs))
		for i, r := range recs {
			newRecs[i] = scanRec{key: r.key, cycles: r.cycles, off: buf.Len(), n: r.n}
			buf.Write(data[r.off : r.off+r.n])
		}
		tmp := path + tmpExt
		if err := os.WriteFile(tmp, buf.Bytes(), 0o666); err != nil {
			return fmt.Errorf("store: rewrite %s: %w", name, err)
		}
		if !s.opts.NoSync {
			if err := syncFile(tmp); err != nil {
				return fmt.Errorf("store: rewrite %s: %w", name, err)
			}
		}
		if err := os.Rename(tmp, path); err != nil {
			return fmt.Errorf("store: rewrite %s: %w", name, err)
		}
		recs = newRecs
		end = buf.Len()
	} else if end < len(data) {
		if err := os.Truncate(path, int64(end)); err != nil {
			return fmt.Errorf("store: truncate %s: %w", name, err)
		}
	}

	f, err := os.OpenFile(path, os.O_RDWR, 0o666)
	if err != nil {
		return fmt.Errorf("store: open %s: %w", name, err)
	}
	seg.f = f
	seg.size = int64(end)
	for _, r := range recs {
		if _, dup := s.index[r.key]; dup {
			// Two records claim one key (a healed re-put, or a crash
			// mid-compaction): the first stays authoritative, the
			// second is dead weight for Compact.
			seg.dead++
			continue
		}
		s.index[r.key] = ref{seg: seg, off: int64(r.off), plen: uint32(r.n - headerLen), cycles: r.cycles}
		seg.live++
	}
	s.segs = append(s.segs, seg)
	return nil
}

// segSeq parses the sequence number out of a segment file name; 0 for
// foreign names (which sort first and are never the append target).
func segSeq(name string) uint64 {
	var seq uint64
	fmt.Sscanf(name, segPrefix+"%d"+segExt, &seq)
	return seq
}

func syncFile(path string) error {
	f, err := os.OpenFile(path, os.O_RDWR, 0o666)
	if err != nil {
		return err
	}
	defer f.Close()
	return f.Sync()
}

// addSegmentLocked creates and appends a fresh segment log. Caller
// holds wmu (or is the single-threaded Open path).
func (s *Store) addSegmentLocked(seq uint64) error {
	name := fmt.Sprintf("%s%06d%s", segPrefix, seq, segExt)
	f, err := os.OpenFile(filepath.Join(s.segDir, name), os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o666)
	if err != nil {
		return fmt.Errorf("store: segment %s: %w", name, err)
	}
	s.segs = append(s.segs, &segment{seq: seq, name: name, f: f})
	return nil
}

// quarantineBytes preserves a damaged byte span under quarantine/ with
// a non-clobbering name. Failure to write is logged, never fatal — the
// span is already dropped from the live store either way.
func (s *Store) quarantineBytes(name string, data []byte) {
	dst := filepath.Join(s.dir, quarantineName, name)
	for i := 1; ; i++ {
		if _, err := os.Lstat(dst); os.IsNotExist(err) {
			break
		}
		dst = filepath.Join(s.dir, quarantineName, fmt.Sprintf("%s.%d", name, i))
	}
	if err := os.WriteFile(dst, data, 0o666); err != nil {
		s.logf("store: quarantine write %s failed: %v", name, err)
	}
}

// appendLocked frames payload and appends it to the current segment,
// rotating first if it is full. Caller holds wmu (or is the
// single-threaded Open path). On any failure — including the injected
// StoreWrite disk-full fault — the segment tail is rolled back to the
// record boundary so the log stays clean for the next append.
func (s *Store) appendLocked(payload []byte) (*segment, int64, error) {
	if len(s.segs) == 0 {
		if err := s.addSegmentLocked(1); err != nil {
			return nil, 0, err
		}
	}
	seg := s.segs[len(s.segs)-1]
	if seg.size >= segMaxBytes {
		if err := s.rotateLocked(); err != nil {
			return nil, 0, err
		}
		seg = s.segs[len(s.segs)-1]
	}
	buf := make([]byte, headerLen+len(payload))
	copy(buf, magicV3[:])
	binary.BigEndian.PutUint32(buf[4:8], crc32.ChecksumIEEE(payload))
	binary.BigEndian.PutUint32(buf[8:12], uint32(len(payload)))
	copy(buf[headerLen:], payload)
	start := seg.size
	if s.opts.Fault.Fire(faultinject.StoreWrite) {
		// Simulated disk-full: half the record lands — the torn write a
		// failing disk produces — then the tail is rolled back.
		seg.f.WriteAt(buf[:len(buf)/2], start)
		seg.f.Truncate(start)
		return nil, 0, fmt.Errorf("injected disk-full short write (%d of %d bytes)", len(buf)/2, len(buf))
	}
	n, err := seg.f.WriteAt(buf, start)
	if err != nil || n < len(buf) {
		seg.f.Truncate(start)
		if err == nil {
			err = fmt.Errorf("short write (%d of %d bytes)", n, len(buf))
		}
		return nil, 0, err
	}
	seg.size += int64(len(buf))
	s.unsynced++
	if !s.opts.NoSync && s.unsynced >= groupCommitEvery {
		if err := seg.f.Sync(); err != nil {
			return nil, 0, err
		}
		s.unsynced = 0
	}
	return seg, start, nil
}

// rotateLocked seals the current segment (final fsync) and opens the
// next, refreshing the manifest so the next open can skip scanning the
// newly sealed file. Caller holds wmu.
func (s *Store) rotateLocked() error {
	cur := s.segs[len(s.segs)-1]
	if !s.opts.NoSync {
		if err := cur.f.Sync(); err != nil {
			return err
		}
		s.unsynced = 0
	}
	if err := s.addSegmentLocked(cur.seq + 1); err != nil {
		return err
	}
	s.writeManifestLocked()
	return nil
}

// syncCurrentLocked flushes the current segment if anything is
// unsynced. Caller holds wmu.
func (s *Store) syncCurrentLocked() error {
	if s.opts.NoSync || len(s.segs) == 0 || s.unsynced == 0 {
		return nil
	}
	if err := s.segs[len(s.segs)-1].f.Sync(); err != nil {
		return err
	}
	s.unsynced = 0
	return nil
}

// flusher is the background group-commit and compaction loop (daemons
// only; NoSync stores never start it).
func (s *Store) flusher() {
	defer s.flushWG.Done()
	tick := time.NewTicker(flushInterval)
	defer tick.Stop()
	n := 0
	for {
		select {
		case <-s.stopCh:
			return
		case <-tick.C:
			s.wmu.Lock()
			if err := s.syncCurrentLocked(); err != nil {
				s.logf("store: background sync: %v", err)
			}
			s.flushSideLocked(false)
			s.wmu.Unlock()
			if n++; n%compactEvery == 0 {
				s.Compact()
			}
		}
	}
}

// lookup resolves key to its record ref under one read lock. A key
// absent from the index may still resolve through the sidecar: the
// link redirects the read to the canonical class record, whose embedded
// key (want) then differs from the requested one.
func (s *Store) lookup(key engine.Key) (ent ref, want engine.Key, found, viaLink bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if ent, ok := s.index[key]; ok {
		return ent, key, true, false
	}
	if len(s.links) > 0 {
		if ck, ok := s.links[fingerprint(key)]; ok && ck != key {
			if ent, ok2 := s.index[ck]; ok2 {
				return ent, ck, true, true
			}
		}
		s.sideMisses.Add(1)
	}
	return ref{}, key, false, false
}

// readRecord reads and fully validates the record at ent, expecting it
// to hold want's key, and decodes its value.
func (s *Store) readRecord(ent ref, want engine.Key) (raw []byte, val any, cycles uint64, err error) {
	raw = make([]byte, headerLen+int(ent.plen))
	if _, err = ent.seg.f.ReadAt(raw, ent.off); err != nil {
		return raw, nil, 0, err
	}
	val, cycles, err = decodeRecordV3(raw, want)
	return raw, val, cycles, err
}

// Get returns the stored value and simulated-cycle cost for key. It
// satisfies engine.SecondLevel: a miss — including a read or decode
// failure, which also quarantines the damaged record — is (nil, 0,
// false), never an error. The checksum is re-verified on every read.
func (s *Store) Get(key engine.Key) (val any, cycles uint64, ok bool) {
	for attempt := 0; attempt < 2; attempt++ {
		if s.closed.Load() {
			return nil, 0, false
		}
		ent, want, found, viaLink := s.lookup(key)
		if !found {
			s.misses.Add(1)
			return nil, 0, false
		}
		raw, val, gotCycles, rerr := s.readRecord(ent, want)
		if rerr == nil {
			if viaLink {
				s.sideHits.Add(1)
			}
			s.hits.Add(1)
			return val, gotCycles, true
		}
		// Self-healing read path: if the index still points at the bytes
		// we just failed to read, drop the entry and set the bytes aside
		// so the cell re-simulates from here on. If the index moved
		// (compaction relocated the record), retry once at the new home.
		s.mu.Lock()
		cur, still := s.index[want]
		if still && cur == ent {
			delete(s.index, want)
			ent.seg.live--
			ent.seg.dead++
			s.mu.Unlock()
			if !s.closed.Load() {
				s.quarantineBytes(fmt.Sprintf("%s@%d", ent.seg.name, ent.off), raw)
				s.quarantined.Add(1)
				s.logf("store: quarantined record %s@%d for %s: %v", ent.seg.name, ent.off, want.String(), rerr)
			}
			s.misses.Add(1)
			return nil, 0, false
		}
		s.mu.Unlock()
	}
	s.misses.Add(1)
	return nil, 0, false
}

// Put commits (key, val, cycles): encode, append to the current segment
// log, group-commit. It satisfies engine.SecondLevel; failures are
// counted and logged, never returned — a broken disk degrades the
// cache, not the run.
func (s *Store) Put(key engine.Key, val any, cycles uint64) {
	if err := s.put(key, val, cycles); err != nil {
		s.putErrors.Add(1)
		s.logf("store: put %s: %v", key.String(), err)
	}
}

func (s *Store) put(key engine.Key, val any, cycles uint64) error {
	if s.closed.Load() {
		return errors.New("store closed")
	}
	if val == nil {
		return errors.New("nil value")
	}
	s.mu.RLock()
	_, dup := s.index[key]
	s.mu.RUnlock()
	if dup {
		// Deterministic cells make re-puts value-identical; skip the
		// write instead of churning the log.
		return nil
	}

	payload, err := encodeV3Record(key, cycles, val)
	if err != nil {
		return err // typically: concrete type not registered with gob
	}

	s.wmu.Lock()
	defer s.wmu.Unlock()
	if s.closed.Load() {
		return errors.New("store closed")
	}
	// Re-check under the writer lock: all index inserts happen with wmu
	// held, so this is the authoritative duplicate test.
	s.mu.RLock()
	_, dup = s.index[key]
	s.mu.RUnlock()
	if dup {
		return nil
	}
	seg, off, err := s.appendLocked(payload)
	if err != nil {
		return err
	}
	s.mu.Lock()
	s.index[key] = ref{seg: seg, off: off, plen: uint32(len(payload)), cycles: cycles}
	seg.live++
	s.mu.Unlock()
	s.puts.Add(1)
	return nil
}

// Compact reclaims dead segment bytes: a sealed segment none of whose
// records are live is deleted outright; one with more dead records than
// live has its live records re-appended to the current segment before
// the file is deleted. Safe to call any time; the background flusher
// calls it periodically on syncing stores.
func (s *Store) Compact() {
	if s.closed.Load() {
		return
	}
	s.wmu.Lock()
	defer s.wmu.Unlock()
	if s.closed.Load() || len(s.segs) == 0 {
		return
	}
	sealed := s.segs[:len(s.segs)-1]
	for _, seg := range append([]*segment(nil), sealed...) {
		s.mu.RLock()
		live, dead := seg.live, seg.dead
		s.mu.RUnlock()
		if dead == 0 || dead <= live {
			continue
		}
		if live > 0 {
			if err := s.relocateLocked(seg); err != nil {
				s.logf("store: compact %s: %v", seg.name, err)
				continue
			}
		}
		s.dropSegmentLocked(seg)
		s.compactions.Add(1)
		s.logf("store: compacted %s (%d live, %d dead)", seg.name, live, dead)
	}
}

// relocateLocked re-appends every live record of seg to the current
// segment and repoints the index. Caller holds wmu.
func (s *Store) relocateLocked(seg *segment) error {
	s.mu.RLock()
	var keys []engine.Key
	for k, r := range s.index {
		if r.seg == seg {
			keys = append(keys, k)
		}
	}
	s.mu.RUnlock()
	for _, k := range keys {
		s.mu.RLock()
		r, ok := s.index[k]
		s.mu.RUnlock()
		if !ok || r.seg != seg {
			continue
		}
		raw := make([]byte, headerLen+int(r.plen))
		if _, err := seg.f.ReadAt(raw, r.off); err != nil {
			return err
		}
		if _, _, _, _, err := parseRecordV3(raw, 0); err != nil {
			// Rot discovered during compaction: treat it like a Get
			// self-heal — quarantine, drop, move on.
			s.mu.Lock()
			delete(s.index, k)
			seg.live--
			seg.dead++
			s.mu.Unlock()
			s.quarantineBytes(fmt.Sprintf("%s@%d", seg.name, r.off), raw)
			s.quarantined.Add(1)
			continue
		}
		dst, off, err := s.appendLocked(raw[headerLen:])
		if err != nil {
			return err
		}
		s.mu.Lock()
		s.index[k] = ref{seg: dst, off: off, plen: r.plen, cycles: r.cycles}
		seg.live--
		dst.live++
		s.mu.Unlock()
	}
	if err := s.syncCurrentLocked(); err != nil {
		return err
	}
	return nil
}

// dropSegmentLocked closes and deletes a fully dead segment. Caller
// holds wmu.
func (s *Store) dropSegmentLocked(seg *segment) {
	for i, sg := range s.segs {
		if sg == seg {
			s.segs = append(s.segs[:i], s.segs[i+1:]...)
			break
		}
	}
	seg.f.Close()
	os.Remove(filepath.Join(s.segDir, seg.name))
}

// Len returns the number of committed entries currently indexed.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.index)
}

// Stats returns a snapshot of the store's counters.
func (s *Store) Stats() Stats {
	st := Stats{
		Hits:             s.hits.Load(),
		Misses:           s.misses.Load(),
		Puts:             s.puts.Load(),
		PutErrors:        s.putErrors.Load(),
		Quarantined:      s.quarantined.Load(),
		Compactions:      s.compactions.Load(),
		GetBatches:       s.getBatches.Load(),
		SidecarHits:      s.sideHits.Load(),
		SidecarMisses:    s.sideMisses.Load(),
		TmpSwept:         s.tmpSwept,
		TornTail:         s.tornTail,
		ManifestSegments: s.manifestSegs,
	}
	s.mu.RLock()
	st.Entries = len(s.index)
	st.Segments = len(s.segs)
	st.SidecarLinks = len(s.links)
	for _, seg := range s.segs {
		st.DeadRecords += seg.dead
	}
	s.mu.RUnlock()
	return st
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Close flushes the current segment, stops the background flusher,
// releases the exclusive lock and marks the store closed. Idempotent;
// Get/Put after Close are misses/no-ops, matching the engine's
// drain-then-close shutdown order.
func (s *Store) Close() error {
	if !s.closed.CompareAndSwap(false, true) {
		return nil
	}
	if s.stopCh != nil {
		close(s.stopCh)
		s.flushWG.Wait()
	}
	s.wmu.Lock()
	var err error
	if !s.opts.NoSync && len(s.segs) > 0 && s.unsynced > 0 {
		err = s.segs[len(s.segs)-1].f.Sync()
	}
	s.flushSideLocked(!s.opts.NoSync)
	s.writeManifestLocked()
	if s.side != nil {
		s.side.Close()
		s.side = nil
	}
	for _, seg := range s.segs {
		seg.f.Close()
	}
	s.wmu.Unlock()
	s.releaseLock()
	if err != nil {
		return fmt.Errorf("store: close sync: %w", err)
	}
	return nil
}

// Note reports the store's effectiveness in one batch-summary line,
// mirroring the engine's cell-cache note. Printed to stderr by the CLI
// so stdout stays byte-identical between cold and warm runs.
func (s *Store) Note() string {
	st := s.Stats()
	return fmt.Sprintf("cell store: %d entries, %d hits, %d misses, %d written, %d quarantined, %d segments (dir %s)",
		st.Entries, st.Hits, st.Misses, st.Puts, st.Quarantined, st.Segments, s.dir)
}
