// Package store is the crash-safe, on-disk, content-addressed
// simulation-cell store behind `spectrebench serve` and `run -store`:
// the second level of the engine's cell cache, shared across processes
// and restarts.
//
// Determinism makes the store sound: a cell's value and simulated-cycle
// cost are a pure function of its engine.Key, so a stored result
// replayed into a later run renders the exact bytes a fresh simulation
// would. The store's own job is to make that cache survive crashes
// while absorbing million-cell sweeps: records are appended to one
// segment log with group-committed fsyncs and indexed in memory.
//
// # Layout
//
//	<dir>/LOCK                     flock'd while the store is open; holds the owner pid
//	<dir>/segments/seg-NNNNNN.log  append-only record log(s)
//	<dir>/quarantine/              damaged bytes set aside by recovery, never deleted
//
// A store this version creates has one segment, seg-000001.log, and
// appends to it for its whole life: the full 172,032-cell lattice fills
// under 1 MB. Open scans every seg-*.log in name order, because stores
// written by earlier versions, which rotated segments at 4 MiB, may hold
// several; it appends to the last and never creates another. Those
// versions also kept a segments/MANIFEST index of the segments and
// segments/side-*.log display→canonical link logs, which Open removes:
// the scan rebuilds everything the MANIFEST held, and records are keyed
// by canonical class, which callers derive themselves (see v3.go).
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
// cannot alias two cells. A frame whose payload does not parse,
// unknown value codec included, is corruption to the scan.
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
//     mid-write — can only tear the last record of the last segment.
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
//   - Group commit: appends are fsynced every few records, by a
//     background flusher, and at Close. A power cut can cost the last
//     unsynced group (they re-simulate); it cannot corrupt committed
//     records. Options.NoSync skips fsyncs entirely for tests
//     (atomicity against process death does not need them).
//   - An exclusive lock file (flock) makes a store single-writer: a
//     second daemon opening the same directory gets ErrLocked
//     immediately. The kernel releases the lock when the owner dies,
//     however it dies.
//
// # Cell values
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
	// unsynced appends (plus the background flusher and Close).
	groupCommitEvery = 64
	// flushInterval is the background flusher's tick.
	flushInterval = 200 * time.Millisecond
)

// Options configures Open.
type Options struct {
	// NoSync skips every fsync. Committed entries are then atomic
	// against process death (kill -9) but not against power loss; the
	// background flusher is not started. Tests and
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
	// debris of a crash mid-rewrite of a segment).
	TmpSwept int
	// TornTail counts segment tails truncated at Open — the partial
	// record a crash mid-append leaves. Expected debris, not damage.
	TornTail int
	// Segments is the number of segment files.
	Segments int
	// GetBatches counts GetBatch calls (each resolves many keys under
	// one index lock).
	GetBatches uint64
	// SidecarHits and SidecarMisses are always 0: the store keeps no
	// display→canonical links any more. They stay only because the
	// benchmark module reads them.
	SidecarHits, SidecarMisses uint64
}

// segment is one open segment log. size is guarded by the writer mutex.
type segment struct {
	seq  uint64
	name string // base name under segments/
	f    *os.File
	size int64
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

	// mu guards the index.
	mu    sync.RWMutex
	index map[engine.Key]ref

	// segs is fixed at Open, in name order; the last is the append
	// target.
	segs []*segment

	// wmu serializes segment appends. Lock order: wmu before mu, never
	// the reverse.
	wmu      sync.Mutex
	unsynced int

	closed  atomic.Bool
	stopCh  chan struct{}
	flushWG sync.WaitGroup

	hits, misses, puts, putErrors, quarantined, getBatches atomic.Uint64
	tmpSwept, tornTail                                     int
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
		dir:    dir,
		segDir: filepath.Join(dir, segsDirName),
		opts:   opts,
		index:  map[engine.Key]ref{},
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
	if len(s.segs) == 0 {
		name := fmt.Sprintf("%s%06d%s", segPrefix, 1, segExt)
		f, err := os.OpenFile(filepath.Join(s.segDir, name), os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o666)
		if err != nil {
			return fail(fmt.Errorf("store: segment %s: %w", name, err))
		}
		s.segs = append(s.segs, &segment{seq: 1, name: name, f: f})
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
// rewrites) and an earlier version's MANIFEST and side logs are
// removed, and every seg-*.log is validated record by record and either
// indexed, truncated at a torn tail, or — for mid-segment corruption —
// resynchronised with the damaged span quarantined and the file
// rewritten without it.
func (s *Store) recoverScan() error {
	entries, err := os.ReadDir(s.segDir)
	if err != nil {
		return fmt.Errorf("store: scan: %w", err)
	}
	var names []string
	sideLogs := 0
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
		if name == "MANIFEST" {
			// A derived index of the segments that earlier versions kept;
			// the scan below rebuilds every byte of it.
			os.Remove(filepath.Join(s.segDir, name))
			s.logf("store: removed %s/%s, an index earlier versions kept; the open scan rebuilds it", segsDirName, name)
			continue
		}
		if strings.HasPrefix(name, "side-") && strings.HasSuffix(name, segExt) {
			os.Remove(filepath.Join(s.segDir, name))
			sideLogs++
			continue
		}
		if strings.HasPrefix(name, segPrefix) && strings.HasSuffix(name, segExt) {
			names = append(names, name)
		}
	}
	if sideLogs > 0 {
		// Display→canonical link logs: records are keyed canonically, and
		// callers fold display keys themselves before they read.
		s.logf("store: removed %d %s/side-*.log link log(s) earlier versions kept; no read consults them", sideLogs, segsDirName)
	}
	sort.Strings(names)
	for _, name := range names {
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
			// Two records claim one key (a re-put after Get quarantined
			// a record that still frames validly, or a store an earlier
			// version compacted when it crashed): the first stays
			// authoritative.
			continue
		}
		s.index[r.key] = ref{seg: seg, off: int64(r.off), plen: uint32(r.n - headerLen), cycles: r.cycles}
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

// appendLocked frames payload and appends it to the current segment.
// Caller holds wmu. On any failure — including the injected StoreWrite
// disk-full fault — the segment tail is rolled back to the record
// boundary so the log stays clean for the next append.
func (s *Store) appendLocked(payload []byte) (*segment, int64, error) {
	seg := s.segs[len(s.segs)-1]
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

// syncCurrentLocked flushes the current segment if anything is
// unsynced. Caller holds wmu.
func (s *Store) syncCurrentLocked() error {
	if s.opts.NoSync || s.unsynced == 0 {
		return nil
	}
	if err := s.segs[len(s.segs)-1].f.Sync(); err != nil {
		return err
	}
	s.unsynced = 0
	return nil
}

// flusher is the background group-commit loop (daemons only; NoSync
// stores never start it).
func (s *Store) flusher() {
	defer s.flushWG.Done()
	tick := time.NewTicker(flushInterval)
	defer tick.Stop()
	for {
		select {
		case <-s.stopCh:
			return
		case <-tick.C:
			s.wmu.Lock()
			if err := s.syncCurrentLocked(); err != nil {
				s.logf("store: background sync: %v", err)
			}
			s.wmu.Unlock()
		}
	}
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

// Get returns the stored value and simulated-cycle cost for key. Like
// the engine's GetBatch lookups, a miss — including a read or decode
// failure, which also quarantines the damaged record — is (nil, 0,
// false), never an error. The checksum is re-verified on every read.
func (s *Store) Get(key engine.Key) (val any, cycles uint64, ok bool) {
	if s.closed.Load() {
		return nil, 0, false
	}
	s.mu.RLock()
	ent, found := s.index[key]
	s.mu.RUnlock()
	if !found {
		s.misses.Add(1)
		return nil, 0, false
	}
	raw, val, cycles, err := s.readRecord(ent, key)
	if err == nil {
		s.hits.Add(1)
		return val, cycles, true
	}
	// Self-healing read path: if the index still points at the bytes we
	// just failed to read, drop the entry and set the bytes aside so the
	// cell re-simulates from here on. Records never move, so if it no
	// longer does, a concurrent Get has already done so.
	s.mu.Lock()
	cur, still := s.index[key]
	if still = still && cur == ent; still {
		delete(s.index, key)
	}
	s.mu.Unlock()
	if still && !s.closed.Load() {
		s.quarantineBytes(fmt.Sprintf("%s@%d", ent.seg.name, ent.off), raw)
		s.quarantined.Add(1)
		s.logf("store: quarantined record %s@%d for %s: %v", ent.seg.name, ent.off, key.String(), err)
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
	s.mu.Unlock()
	s.puts.Add(1)
	return nil
}

// Len returns the number of committed entries currently indexed.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.index)
}

// Stats returns a snapshot of the store's counters.
func (s *Store) Stats() Stats {
	return Stats{
		Entries:     s.Len(),
		Hits:        s.hits.Load(),
		Misses:      s.misses.Load(),
		Puts:        s.puts.Load(),
		PutErrors:   s.putErrors.Load(),
		Quarantined: s.quarantined.Load(),
		GetBatches:  s.getBatches.Load(),
		TmpSwept:    s.tmpSwept,
		TornTail:    s.tornTail,
		Segments:    len(s.segs),
	}
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
	err := s.syncCurrentLocked()
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
