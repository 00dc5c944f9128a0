// v3 record layout, sidecar link index and batched reads.
//
// # v3 records
//
// A v3 segment record is framed by the magic "SBS3", a CRC32 and the
// payload length (see store.go). The payload is a fixed binary header
// plus raw bytes, so key and cycles are readable with four slice
// indexes — the open scan and warm Gets never touch gob unless the
// value itself needs it:
//
//	offset  size  field
//	------  ----  ---------------------------------------------
//	+0      1     payload version (3)
//	+1      1     value codec (see vcodec* constants)
//	+2      4     len(key.Workload), big endian
//	+6      4     len(key.Uarch)
//	+10     4     len(key.Config)
//	+14     8     key.Seed
//	+22     8     cycles
//	+30     4     len(value bytes)
//	+34     ...   workload | uarch | config | value bytes
//
// The value bytes are codec-tagged per record: float64 cells — the
// entire gridbench workload — store 8 raw bytes (vcodecFloat64);
// anything else stores a self-contained gob stream (vcodecGob). Value
// codec 0 was written only by the retired v1/v2 migrations; such a
// record, like one with any other unknown codec, scans as a valid frame
// but fails to decode, so Get treats it as corrupt: a miss, with the
// record quarantined and the cell re-simulated.
//
// # Sidecar link index
//
// Under canonical dedup the engine folds many display keys onto one
// canonical class, and segment records are keyed by the canonical key
// only — one simulated payload per class. The display→canonical folds
// are persisted as hints in side-NNNNNN.log files next to the
// segments, so a later process can replay a display cell it has never
// canonicalized itself. Links are deliberately compact: canonical keys
// are interned once per side file ('C' record: u32 id + full key), and
// each fold is a 'L' record of the display key's 128-bit fingerprint
// plus the u32 canonical id — ~21 bytes per display cell instead of
// the full config string (which runs to hundreds of bytes). Records
// buffer in memory and flush in CRC-framed chunks; a torn or corrupt
// chunk tail is simply ignored at open. Losing links is harmless — the
// engine re-derives the fold and re-records it — and a fingerprint
// collision (two display keys sharing 128 bits) is past the 2^-64
// probability of concern.
package store

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"spectrebench/internal/engine"
)

var (
	magicV3   = [4]byte{'S', 'B', 'S', '3'} // v3 segment record frame
	magicSide = [4]byte{'S', 'B', 'L', '3'} // sidecar chunk frame
)

// Value codecs (payload byte 1). Codec 0 belonged to the retired
// migrations and no longer decodes.
const (
	// vcodecFloat64: 8 raw big-endian bits. The float64 cell values of
	// grid sweeps skip gob entirely.
	vcodecFloat64 = 1
	// vcodecGob: a self-contained gob stream of the interface-wrapped
	// value, for the rare non-float64 cell types.
	vcodecGob = 2
)

const (
	v3HeaderLen = 34 // fixed payload header before the strings
	sidePrefix  = "side-"
	// sideFlushBytes flushes the sidecar buffer once it grows past
	// this; the background flusher and Close drain the remainder.
	sideFlushBytes = 64 << 10
)

// encodeV3Payload lays out the v3 payload for key/cycles with
// already-encoded value bytes under the given value codec.
func encodeV3Payload(key engine.Key, cycles uint64, vcodec byte, valBytes []byte) []byte {
	buf := make([]byte, v3HeaderLen+len(key.Workload)+len(key.Uarch)+len(key.Config)+len(valBytes))
	buf[0] = 3
	buf[1] = vcodec
	binary.BigEndian.PutUint32(buf[2:6], uint32(len(key.Workload)))
	binary.BigEndian.PutUint32(buf[6:10], uint32(len(key.Uarch)))
	binary.BigEndian.PutUint32(buf[10:14], uint32(len(key.Config)))
	binary.BigEndian.PutUint64(buf[14:22], key.Seed)
	binary.BigEndian.PutUint64(buf[22:30], cycles)
	binary.BigEndian.PutUint32(buf[30:34], uint32(len(valBytes)))
	off := v3HeaderLen
	off += copy(buf[off:], key.Workload)
	off += copy(buf[off:], key.Uarch)
	off += copy(buf[off:], key.Config)
	copy(buf[off:], valBytes)
	return buf
}

// encodeV3Record encodes a fresh (key, cycles, val) put as a v3
// payload, choosing the cheapest value codec for the concrete type.
func encodeV3Record(key engine.Key, cycles uint64, val any) ([]byte, error) {
	if f, ok := val.(float64); ok {
		var vb [8]byte
		binary.BigEndian.PutUint64(vb[:], math.Float64bits(f))
		return encodeV3Payload(key, cycles, vcodecFloat64, vb[:]), nil
	}
	var vbuf bytes.Buffer
	if err := gob.NewEncoder(&vbuf).Encode(&val); err != nil {
		return nil, err
	}
	return encodeV3Payload(key, cycles, vcodecGob, vbuf.Bytes()), nil
}

// parseV3Payload validates the fixed header and string lengths of a v3
// payload, returning the key, cycles, value codec and value bytes. The
// value codec is not checked here: decodeRecordV3 rejects one it does
// not know. The caller has already CRC-verified the payload.
func parseV3Payload(payload []byte) (key engine.Key, cycles uint64, vcodec byte, valBytes []byte, err error) {
	if len(payload) < v3HeaderLen {
		return key, 0, 0, nil, fmt.Errorf("v3 payload truncated (%d bytes)", len(payload))
	}
	if payload[0] != 3 {
		return key, 0, 0, nil, fmt.Errorf("v3 payload version %d", payload[0])
	}
	vcodec = payload[1]
	wlen := binary.BigEndian.Uint32(payload[2:6])
	ulen := binary.BigEndian.Uint32(payload[6:10])
	clen := binary.BigEndian.Uint32(payload[10:14])
	vlen := binary.BigEndian.Uint32(payload[30:34])
	if uint64(v3HeaderLen)+uint64(wlen)+uint64(ulen)+uint64(clen)+uint64(vlen) != uint64(len(payload)) {
		return key, 0, 0, nil, fmt.Errorf("v3 payload length %d, header says %d",
			len(payload), uint64(v3HeaderLen)+uint64(wlen)+uint64(ulen)+uint64(clen)+uint64(vlen))
	}
	off := uint32(v3HeaderLen)
	key.Workload = string(payload[off : off+wlen])
	off += wlen
	key.Uarch = string(payload[off : off+ulen])
	off += ulen
	key.Config = string(payload[off : off+clen])
	off += clen
	key.Seed = binary.BigEndian.Uint64(payload[14:22])
	cycles = binary.BigEndian.Uint64(payload[22:30])
	return key, cycles, vcodec, payload[off:], nil
}

// errTorn distinguishes a record torn at end-of-file (expected crash
// debris) from in-place corruption.
var errTorn = errors.New("record torn at end of segment")

// parseRecordV3 validates the record framed at data[off:] — magic,
// length, CRC and payload header — and returns its key and cycle count
// (the value stays encoded). n is the full frame length.
func parseRecordV3(data []byte, off int) (key engine.Key, cycles uint64, plen uint32, n int, err error) {
	if len(data)-off < headerLen {
		return key, 0, 0, 0, errTorn
	}
	if !bytes.Equal(data[off:off+4], magicV3[:]) {
		return key, 0, 0, 0, fmt.Errorf("bad magic %q", data[off:off+4])
	}
	wantCRC := binary.BigEndian.Uint32(data[off+4 : off+8])
	plen = binary.BigEndian.Uint32(data[off+8 : off+12])
	if uint64(len(data)-off-headerLen) < uint64(plen) {
		return key, 0, 0, 0, errTorn
	}
	payload := data[off+headerLen : off+headerLen+int(plen)]
	if got := crc32.ChecksumIEEE(payload); got != wantCRC {
		return key, 0, 0, 0, fmt.Errorf("checksum mismatch (stored %08x, computed %08x)", wantCRC, got)
	}
	if key, cycles, _, _, err = parseV3Payload(payload); err != nil {
		return key, 0, 0, 0, err
	}
	return key, cycles, plen, headerLen + int(plen), nil
}

// decodeRecordV3 re-validates the framed record bytes and decodes the
// value, checking the embedded key against the one the index promised.
func decodeRecordV3(raw []byte, want engine.Key) (val any, cycles uint64, err error) {
	key, cycles, _, _, err := parseRecordV3(raw, 0)
	if err != nil {
		return nil, 0, err
	}
	if key != want {
		return nil, 0, fmt.Errorf("record holds key %v", key)
	}
	_, _, vcodec, valBytes, err := parseV3Payload(raw[headerLen:])
	if err != nil {
		return nil, 0, err
	}
	switch vcodec {
	case vcodecFloat64:
		if len(valBytes) != 8 {
			return nil, 0, fmt.Errorf("float64 value is %d bytes", len(valBytes))
		}
		return math.Float64frombits(binary.BigEndian.Uint64(valBytes)), cycles, nil
	case vcodecGob:
		dec := gob.NewDecoder(bytes.NewReader(valBytes))
		if derr := dec.Decode(&val); derr != nil {
			return nil, 0, fmt.Errorf("value decode: %w", derr)
		}
		return val, cycles, nil
	default:
		return nil, 0, fmt.Errorf("unknown value codec %d", vcodec)
	}
}

// fingerprint folds a key into the 128-bit sidecar link address: the
// engine's 64-bit FNV fold plus a second fold under different FNV
// constants, so the two halves fail independently.
func fingerprint(k engine.Key) [2]uint64 {
	h := uint64(0xcbf29ce484222325) // FNV-1a 64 offset, different walk
	step := func(s string) {
		for i := len(s) - 1; i >= 0; i-- { // reversed: independent of Hash
			h ^= uint64(s[i])
			h *= 0x100000001b3
		}
		h ^= 0xfe
		h *= 0x100000001b3
	}
	step(k.Config)
	step(k.Uarch)
	step(k.Workload)
	for i := 0; i < 64; i += 8 {
		h ^= (k.Seed >> i) & 0xff
		h *= 0x100000001b3
	}
	return [2]uint64{k.Hash(), h}
}

// ---------------------------------------------------------------------
// Sidecar: the display→canonical link log.

// linkTable is the in-memory sidecar: each display key's fingerprint
// maps to an id into a table of interned canonical keys. A full lattice
// holds ~172k links onto a few thousand canonical keys, so each
// canonical key is stored once, and the fingerprint map — whose entries
// hold no pointers — is never scanned by the garbage collector.
type linkTable struct {
	byFP map[[2]uint64]uint32  // display fingerprint -> id
	keys []engine.Key          // id -> canonical key
	ids  map[engine.Key]uint32 // canonical key -> id
}

// newLinkTable returns an empty table with room for links links.
func newLinkTable(links int) linkTable {
	return linkTable{byFP: make(map[[2]uint64]uint32, links), ids: map[engine.Key]uint32{}}
}

// resolve returns the canonical key linked to a display fingerprint.
func (lt *linkTable) resolve(fp [2]uint64) (engine.Key, bool) {
	id, ok := lt.byFP[fp]
	if !ok {
		return engine.Key{}, false
	}
	return lt.keys[id], true
}

// intern returns k's id, adding k to the table on first sight.
func (lt *linkTable) intern(k engine.Key) uint32 {
	if id, ok := lt.ids[k]; ok {
		return id
	}
	id := uint32(len(lt.keys))
	lt.keys = append(lt.keys, k)
	lt.ids[k] = id
	return id
}

// sideLinkLen is the size of one 'L' side-log record: tag, 128-bit
// display fingerprint, u32 canonical intern id.
const sideLinkLen = 1 + 16 + 4

// scanSideLogs loads every side-*.log into the in-memory link table.
// Side files are CRC-framed chunks of 'C' (canonical-key intern) and
// 'L' (fingerprint→canonical-id link) records; intern ids are local to
// their file. A torn or corrupt chunk ends that file's useful prefix —
// links are hints, so the loss is silent by design. The writer always
// starts a fresh file above the highest existing sequence.
func (s *Store) scanSideLogs() error {
	entries, err := os.ReadDir(s.segDir)
	if err != nil {
		return fmt.Errorf("store: side scan: %w", err)
	}
	var names []string
	var maxSeq uint64
	var sideBytes int64
	for _, de := range entries {
		name := de.Name()
		if de.IsDir() || !strings.HasPrefix(name, sidePrefix) || !strings.HasSuffix(name, segExt) {
			continue
		}
		names = append(names, name)
		var seq uint64
		fmt.Sscanf(name, sidePrefix+"%d"+segExt, &seq)
		if seq > maxSeq {
			maxSeq = seq
		}
		if fi, err := de.Info(); err == nil {
			sideBytes += fi.Size()
		}
	}
	// Nearly every side-log byte belongs to a link record: size the
	// fingerprint map for all of them up front instead of rehashing it
	// a dozen times on a full lattice.
	s.links = newLinkTable(int(sideBytes / sideLinkLen))
	sort.Strings(names)
	for _, name := range names {
		raw, err := os.ReadFile(filepath.Join(s.segDir, name))
		if err != nil {
			return fmt.Errorf("store: side scan %s: %w", name, err)
		}
		s.loadSideChunks(name, raw)
	}
	s.sideName = fmt.Sprintf("%s%06d%s", sidePrefix, maxSeq+1, segExt)
	return nil
}

// loadSideChunks parses one side file's chunk sequence into s.links.
func (s *Store) loadSideChunks(name string, raw []byte) {
	var canon []uint32 // this file's intern ids -> link-table ids
	off := 0
	for off < len(raw) {
		if len(raw)-off < headerLen || !bytes.Equal(raw[off:off+4], magicSide[:]) {
			break
		}
		wantCRC := binary.BigEndian.Uint32(raw[off+4 : off+8])
		plen := binary.BigEndian.Uint32(raw[off+8 : off+12])
		if uint64(len(raw)-off-headerLen) < uint64(plen) {
			break // torn chunk tail: crash debris, ignore
		}
		chunk := raw[off+headerLen : off+headerLen+int(plen)]
		if crc32.ChecksumIEEE(chunk) != wantCRC {
			s.logf("store: %s: ignoring corrupt sidecar chunk at offset %d", name, off)
			break
		}
		if !s.parseSideChunk(chunk, &canon) {
			s.logf("store: %s: malformed sidecar chunk at offset %d", name, off)
			break
		}
		off += headerLen + int(plen)
	}
}

// parseSideChunk applies one CRC-verified chunk's records: a 'C' record
// interns its canonical key in the link table and appends the table id
// to canon, the file's intern ids so far; an 'L' record links its
// fingerprint through canon. Returns false on a malformed record (the
// chunk is then abandoned).
func (s *Store) parseSideChunk(chunk []byte, canon *[]uint32) bool {
	off := 0
	for off < len(chunk) {
		switch chunk[off] {
		case 'C':
			if len(chunk)-off < 1+4+4+4+4+8 {
				return false
			}
			id := binary.BigEndian.Uint32(chunk[off+1 : off+5])
			wlen := binary.BigEndian.Uint32(chunk[off+5 : off+9])
			ulen := binary.BigEndian.Uint32(chunk[off+9 : off+13])
			clen := binary.BigEndian.Uint32(chunk[off+13 : off+17])
			end := uint64(off) + 1 + 16 + 8 + uint64(wlen) + uint64(ulen) + uint64(clen)
			if end > uint64(len(chunk)) || uint64(id) != uint64(len(*canon)) {
				return false
			}
			p := off + 17
			var k engine.Key
			k.Workload = string(chunk[p : p+int(wlen)])
			p += int(wlen)
			k.Uarch = string(chunk[p : p+int(ulen)])
			p += int(ulen)
			k.Config = string(chunk[p : p+int(clen)])
			p += int(clen)
			k.Seed = binary.BigEndian.Uint64(chunk[p : p+8])
			*canon = append(*canon, s.links.intern(k))
			off = int(end)
		case 'L':
			if len(chunk)-off < sideLinkLen {
				return false
			}
			var fp [2]uint64
			fp[0] = binary.BigEndian.Uint64(chunk[off+1 : off+9])
			fp[1] = binary.BigEndian.Uint64(chunk[off+9 : off+17])
			id := binary.BigEndian.Uint32(chunk[off+17 : off+21])
			if uint64(id) >= uint64(len(*canon)) {
				return false
			}
			s.links.byFP[fp] = (*canon)[id]
			off += sideLinkLen
		default:
			return false
		}
	}
	return true
}

// PutLink records the engine's display→canonical fold of a pair of
// keys (engine.LinkRecorder): the in-memory link table serves this
// process, the buffered side-log append serves the next one. Never
// fails; duplicate folds are dropped early.
func (s *Store) PutLink(display, canonical engine.Key) {
	if s.closed.Load() || display == canonical {
		return
	}
	fp := fingerprint(display)
	s.mu.RLock()
	_, dup := s.links.byFP[fp]
	s.mu.RUnlock()
	if dup {
		return
	}
	s.wmu.Lock()
	defer s.wmu.Unlock()
	if s.closed.Load() {
		return
	}
	s.mu.Lock()
	s.putLinkLocked(fp, canonical)
	s.mu.Unlock()
	if len(s.sideBuf) >= sideFlushBytes {
		s.flushSideLocked(false)
	}
}

// PutLinkBatch records a slice of display→canonical folds
// (engine.BatchLinkRecorder) — a full-lattice sweep records one per
// aliased cell. The folds already linked, all of them on a warm replay,
// are sifted out under one read lock; the rest go in under one writer
// round-trip and one index write lock, released only while a full
// side-log chunk is written. Semantically identical to calling PutLink
// per pair.
func (s *Store) PutLinkBatch(pairs []engine.LinkPair) {
	if s.closed.Load() || len(pairs) == 0 {
		return
	}
	type fresh struct {
		fp [2]uint64
		i  int
	}
	var todo []fresh
	s.mu.RLock()
	for i, p := range pairs {
		if p.Display == p.Canonical {
			continue
		}
		fp := fingerprint(p.Display)
		if _, dup := s.links.byFP[fp]; !dup {
			todo = append(todo, fresh{fp, i})
		}
	}
	s.mu.RUnlock()
	if len(todo) == 0 {
		return
	}
	s.wmu.Lock()
	defer s.wmu.Unlock()
	if s.closed.Load() {
		return
	}
	s.mu.Lock()
	if len(s.links.byFP) == 0 {
		// The first batch into an empty store (a cold sweep) sizes the
		// table once instead of growing it link by link.
		s.links.byFP = make(map[[2]uint64]uint32, len(todo))
	}
	for _, f := range todo {
		s.putLinkLocked(f.fp, pairs[f.i].Canonical)
		if len(s.sideBuf) >= sideFlushBytes {
			s.mu.Unlock()
			s.flushSideLocked(false)
			s.mu.Lock()
		}
	}
	s.mu.Unlock()
}

// putLinkLocked is the shared core of PutLink and PutLinkBatch: link
// table insert, side-file interning of the canonical key and the
// side-log append to the buffer. Caller holds wmu and mu, and flushes
// the buffer once it is full.
func (s *Store) putLinkLocked(fp [2]uint64, canonical engine.Key) {
	if _, dup := s.links.byFP[fp]; dup {
		return
	}
	id := s.links.intern(canonical)
	s.links.byFP[fp] = id

	for int(id) >= len(s.sideIDs) {
		s.sideIDs = append(s.sideIDs, 0)
	}
	if s.sideIDs[id] == 0 {
		s.sideNext++
		s.sideIDs[id] = s.sideNext
		var hdr [17]byte
		hdr[0] = 'C'
		binary.BigEndian.PutUint32(hdr[1:5], s.sideNext-1)
		binary.BigEndian.PutUint32(hdr[5:9], uint32(len(canonical.Workload)))
		binary.BigEndian.PutUint32(hdr[9:13], uint32(len(canonical.Uarch)))
		binary.BigEndian.PutUint32(hdr[13:17], uint32(len(canonical.Config)))
		s.sideBuf = append(s.sideBuf, hdr[:]...)
		s.sideBuf = append(s.sideBuf, canonical.Workload...)
		s.sideBuf = append(s.sideBuf, canonical.Uarch...)
		s.sideBuf = append(s.sideBuf, canonical.Config...)
		s.sideBuf = binary.BigEndian.AppendUint64(s.sideBuf, canonical.Seed)
	}
	var link [sideLinkLen]byte
	link[0] = 'L'
	binary.BigEndian.PutUint64(link[1:9], fp[0])
	binary.BigEndian.PutUint64(link[9:17], fp[1])
	binary.BigEndian.PutUint32(link[17:21], s.sideIDs[id]-1)
	s.sideBuf = append(s.sideBuf, link[:]...)
}

// Resolve maps a display key to its recorded canonical key, if a
// sidecar link exists.
func (s *Store) Resolve(display engine.Key) (engine.Key, bool) {
	s.mu.RLock()
	ck, ok := s.links.resolve(fingerprint(display))
	s.mu.RUnlock()
	if !ok {
		s.sideMisses.Add(1)
	}
	return ck, ok
}

// flushSideLocked drains the sidecar buffer as one CRC-framed chunk.
// Errors are logged and the chunk dropped — links are hints. Caller
// holds wmu.
func (s *Store) flushSideLocked(sync bool) {
	if len(s.sideBuf) == 0 {
		return
	}
	if s.side == nil {
		if s.sideName == "" {
			s.sideName = fmt.Sprintf("%s%06d%s", sidePrefix, 1, segExt)
		}
		f, err := os.OpenFile(filepath.Join(s.segDir, s.sideName), os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o666)
		if err != nil {
			s.logf("store: side log: %v", err)
			s.sideBuf = s.sideBuf[:0]
			return
		}
		s.side = f
		s.sideSize = 0
	}
	frame := make([]byte, headerLen+len(s.sideBuf))
	copy(frame, magicSide[:])
	binary.BigEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(s.sideBuf))
	binary.BigEndian.PutUint32(frame[8:12], uint32(len(s.sideBuf)))
	copy(frame[headerLen:], s.sideBuf)
	if _, err := s.side.WriteAt(frame, s.sideSize); err != nil {
		s.logf("store: side log write: %v", err)
		s.sideBuf = s.sideBuf[:0]
		return
	}
	s.sideSize += int64(len(frame))
	s.sideBuf = s.sideBuf[:0]
	if sync && !s.opts.NoSync {
		s.side.Sync()
	}
}

// ---------------------------------------------------------------------
// Batched reads.

// GetBatch resolves many keys under one index lock
// (engine.BatchSecondLevel), reading records in segment-offset order
// for locality. Results are positional. A record that fails its read or
// checksum is retried through the per-key Get, which owns the self-heal
// path.
func (s *Store) GetBatch(keys []engine.Key) []engine.BatchGet {
	s.getBatches.Add(1)
	out := make([]engine.BatchGet, len(keys))
	type pending struct {
		i       int
		ent     ref
		want    engine.Key
		viaLink bool
	}
	var reads []pending
	if !s.closed.Load() {
		s.mu.RLock()
		for i, key := range keys {
			if ent, ok := s.index[key]; ok {
				reads = append(reads, pending{i: i, ent: ent, want: key})
				continue
			}
			if len(s.links.byFP) > 0 {
				if ck, ok := s.links.resolve(fingerprint(key)); ok && ck != key {
					if ent, ok2 := s.index[ck]; ok2 {
						reads = append(reads, pending{i: i, ent: ent, want: ck, viaLink: true})
						continue
					}
				}
				s.sideMisses.Add(1)
			}
			s.misses.Add(1)
		}
		s.mu.RUnlock()
	}
	sort.Slice(reads, func(a, b int) bool {
		if reads[a].ent.seg != reads[b].ent.seg {
			return reads[a].ent.seg.seq < reads[b].ent.seg.seq
		}
		return reads[a].ent.off < reads[b].ent.off
	})
	for _, p := range reads {
		_, val, cycles, err := s.readRecord(p.ent, p.want)
		if err != nil {
			// Damage: the per-key path owns quarantine, and does its own
			// counting.
			val, cycles, ok := s.Get(keys[p.i])
			out[p.i] = engine.BatchGet{Val: val, Cycles: cycles, OK: ok}
			continue
		}
		if p.viaLink {
			s.sideHits.Add(1)
		}
		s.hits.Add(1)
		out[p.i] = engine.BatchGet{Val: val, Cycles: cycles, OK: true}
	}
	return out
}
