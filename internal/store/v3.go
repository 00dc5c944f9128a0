// v3 record layout, sidecar link index, open-time manifest and batched
// reads.
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
//
// # Manifest
//
// segments/MANIFEST is one CRC-framed record listing every sealed
// segment — name, byte size, dead-record count, and each live record's
// key/cycles/offset — written at rotation and Close. An open whose
// sealed segments stat to exactly the manifest's sizes indexes them
// straight from it without reading the logs; any mismatch (crash,
// self-heal rewrite, compaction) falls back to the full scan of that
// segment. The current (unsealed) segment is always scanned.
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
	magicV3       = [4]byte{'S', 'B', 'S', '3'} // v3 segment record frame
	magicSide     = [4]byte{'S', 'B', 'L', '3'} // sidecar chunk frame
	magicManifest = [4]byte{'S', 'B', 'M', '3'} // manifest frame
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
	v3HeaderLen  = 34 // fixed payload header before the strings
	sidePrefix   = "side-"
	manifestName = "MANIFEST"
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
// Manifest: skip-scan index for sealed segments.

// manifestRec is one live record in a manifest entry.
type manifestRec struct {
	key    engine.Key
	cycles uint64
	off    int64
	plen   uint32
}

// manifestSeg is one sealed segment's manifest entry. size gates its
// use: a stat mismatch at open means the file changed since the
// manifest was written (self-heal rewrite, compaction, crash) and the
// segment is scanned instead.
type manifestSeg struct {
	size int64
	dead int
	recs []manifestRec
}

// loadManifest reads segments/MANIFEST. Any damage — torn frame, bad
// CRC, short payload — yields nil: the manifest is an optimization, the
// scan is the authority.
func (s *Store) loadManifest() map[string]manifestSeg {
	raw, err := os.ReadFile(filepath.Join(s.segDir, manifestName))
	if err != nil {
		return nil
	}
	return parseManifest(raw)
}

// parseManifest decodes a manifest file's bytes; nil on any damage.
func parseManifest(raw []byte) map[string]manifestSeg {
	if len(raw) < headerLen || !bytes.Equal(raw[:4], magicManifest[:]) {
		return nil
	}
	wantCRC := binary.BigEndian.Uint32(raw[4:8])
	plen := binary.BigEndian.Uint32(raw[8:12])
	if uint64(len(raw)-headerLen) < uint64(plen) {
		return nil
	}
	payload := raw[headerLen : headerLen+int(plen)]
	if crc32.ChecksumIEEE(payload) != wantCRC {
		return nil
	}
	r := bytes.NewReader(payload)
	readU32 := func() uint32 { var v uint32; binary.Read(r, binary.BigEndian, &v); return v }
	readU64 := func() uint64 { var v uint64; binary.Read(r, binary.BigEndian, &v); return v }
	readStr := func() string {
		n := readU32()
		if uint64(n) > uint64(r.Len()) {
			return ""
		}
		b := make([]byte, n)
		r.Read(b)
		return string(b)
	}
	m := map[string]manifestSeg{}
	nsegs := readU32()
	for i := uint32(0); i < nsegs && r.Len() > 0; i++ {
		name := readStr()
		ms := manifestSeg{size: int64(readU64()), dead: int(readU32())}
		nrecs := readU32()
		for j := uint32(0); j < nrecs && r.Len() > 0; j++ {
			var rec manifestRec
			rec.key.Workload = readStr()
			rec.key.Uarch = readStr()
			rec.key.Config = readStr()
			rec.key.Seed = readU64()
			rec.cycles = readU64()
			rec.off = int64(readU64())
			rec.plen = readU32()
			ms.recs = append(ms.recs, rec)
		}
		m[name] = ms
	}
	if r.Len() != 0 {
		return nil // trailing garbage: distrust the whole manifest
	}
	return m
}

// indexFromManifest indexes one sealed segment straight from its
// manifest entry, if the file on disk still stats to the manifest's
// size. Returns false to fall back to a scan.
func (s *Store) indexFromManifest(name string, m manifestSeg) bool {
	path := filepath.Join(s.segDir, name)
	fi, err := os.Stat(path)
	if err != nil || fi.Size() != m.size {
		return false
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0o666)
	if err != nil {
		return false
	}
	seg := &segment{seq: segSeq(name), name: name, f: f, size: m.size, dead: m.dead}
	for _, rec := range m.recs {
		if _, dup := s.index[rec.key]; dup {
			seg.dead++
			continue
		}
		s.index[rec.key] = ref{seg: seg, off: rec.off, plen: rec.plen, cycles: rec.cycles}
		seg.live++
	}
	s.segs = append(s.segs, seg)
	s.manifestSegs++
	return true
}

// writeManifestLocked rewrites segments/MANIFEST from the sealed
// segments' live records (tmp + rename; the current segment is always
// scanned at open and never listed). Failures are logged, never fatal —
// a missing manifest only costs the next open a scan. Caller holds wmu.
func (s *Store) writeManifestLocked() {
	if len(s.segs) == 0 {
		return
	}
	sealed := s.segs[:len(s.segs)-1]
	var payload bytes.Buffer
	w32 := func(v uint32) { binary.Write(&payload, binary.BigEndian, v) }
	w64 := func(v uint64) { binary.Write(&payload, binary.BigEndian, v) }
	wstr := func(str string) { w32(uint32(len(str))); payload.WriteString(str) }

	s.mu.RLock()
	bySeg := map[*segment][]manifestRec{}
	for k, r := range s.index {
		bySeg[r.seg] = append(bySeg[r.seg], manifestRec{key: k, cycles: r.cycles, off: r.off, plen: r.plen})
	}
	w32(uint32(len(sealed)))
	for _, seg := range sealed {
		recs := bySeg[seg]
		sort.Slice(recs, func(i, j int) bool { return recs[i].off < recs[j].off })
		wstr(seg.name)
		w64(uint64(seg.size))
		w32(uint32(seg.dead))
		w32(uint32(len(recs)))
		for _, rec := range recs {
			wstr(rec.key.Workload)
			wstr(rec.key.Uarch)
			wstr(rec.key.Config)
			w64(rec.key.Seed)
			w64(rec.cycles)
			w64(uint64(rec.off))
			w32(rec.plen)
		}
	}
	s.mu.RUnlock()

	frame := make([]byte, headerLen+payload.Len())
	copy(frame, magicManifest[:])
	binary.BigEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(payload.Bytes()))
	binary.BigEndian.PutUint32(frame[8:12], uint32(payload.Len()))
	copy(frame[headerLen:], payload.Bytes())

	path := filepath.Join(s.segDir, manifestName)
	tmp := path + tmpExt
	if err := os.WriteFile(tmp, frame, 0o666); err != nil {
		s.logf("store: manifest write: %v", err)
		return
	}
	if !s.opts.NoSync {
		if err := syncFile(tmp); err != nil {
			s.logf("store: manifest sync: %v", err)
			os.Remove(tmp)
			return
		}
	}
	if err := os.Rename(tmp, path); err != nil {
		s.logf("store: manifest rename: %v", err)
	}
}

// ---------------------------------------------------------------------
// Sidecar: the display→canonical link log.

// scanSideLogs loads every side-*.log into the in-memory link map.
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
	}
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
	var canon []engine.Key // intern table, ids local to this file
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

// parseSideChunk applies one CRC-verified chunk's records. Returns
// false on a malformed record (the chunk is then abandoned).
func (s *Store) parseSideChunk(chunk []byte, canon *[]engine.Key) bool {
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
			*canon = append(*canon, k)
			off = int(end)
		case 'L':
			if len(chunk)-off < 1+16+4 {
				return false
			}
			var fp [2]uint64
			fp[0] = binary.BigEndian.Uint64(chunk[off+1 : off+9])
			fp[1] = binary.BigEndian.Uint64(chunk[off+9 : off+17])
			id := binary.BigEndian.Uint32(chunk[off+17 : off+21])
			if uint64(id) >= uint64(len(*canon)) {
				return false
			}
			s.links[fp] = (*canon)[id]
			off += 21
		default:
			return false
		}
	}
	return true
}

// PutLink records the engine's display→canonical fold of a pair of
// keys (engine.LinkRecorder): the in-memory link map serves this
// process, the buffered side-log append serves the next one. Never
// fails; duplicate folds are dropped early.
func (s *Store) PutLink(display, canonical engine.Key) {
	if s.closed.Load() || display == canonical {
		return
	}
	fp := fingerprint(display)
	s.mu.RLock()
	_, dup := s.links[fp]
	s.mu.RUnlock()
	if dup {
		return
	}
	s.wmu.Lock()
	defer s.wmu.Unlock()
	if s.closed.Load() {
		return
	}
	s.putLinkLocked(fp, canonical)
}

// PutLinkBatch records a slice of display→canonical folds under one
// writer round-trip (engine.BatchLinkRecorder) — a cold deduplicated
// full-grid sweep records one link per aliased cell, and per-link lock
// acquisitions are measurable at that volume. Semantically identical
// to calling PutLink per pair.
func (s *Store) PutLinkBatch(pairs []engine.LinkPair) {
	if s.closed.Load() || len(pairs) == 0 {
		return
	}
	s.wmu.Lock()
	defer s.wmu.Unlock()
	if s.closed.Load() {
		return
	}
	for _, p := range pairs {
		if p.Display == p.Canonical {
			continue
		}
		s.putLinkLocked(fingerprint(p.Display), p.Canonical)
	}
}

// putLinkLocked is the shared core of PutLink and PutLinkBatch: link
// map insert, canonical-key interning and side-log append. Caller
// holds wmu.
func (s *Store) putLinkLocked(fp [2]uint64, canonical engine.Key) {
	s.mu.Lock()
	if _, dup := s.links[fp]; dup {
		s.mu.Unlock()
		return
	}
	s.links[fp] = canonical
	s.mu.Unlock()

	id, known := s.canonIDs[canonical]
	if !known {
		id = uint32(len(s.canonByID))
		s.canonIDs[canonical] = id
		s.canonByID = append(s.canonByID, canonical)
		var hdr [17]byte
		hdr[0] = 'C'
		binary.BigEndian.PutUint32(hdr[1:5], id)
		binary.BigEndian.PutUint32(hdr[5:9], uint32(len(canonical.Workload)))
		binary.BigEndian.PutUint32(hdr[9:13], uint32(len(canonical.Uarch)))
		binary.BigEndian.PutUint32(hdr[13:17], uint32(len(canonical.Config)))
		s.sideBuf = append(s.sideBuf, hdr[:]...)
		s.sideBuf = append(s.sideBuf, canonical.Workload...)
		s.sideBuf = append(s.sideBuf, canonical.Uarch...)
		s.sideBuf = append(s.sideBuf, canonical.Config...)
		s.sideBuf = binary.BigEndian.AppendUint64(s.sideBuf, canonical.Seed)
	}
	var link [21]byte
	link[0] = 'L'
	binary.BigEndian.PutUint64(link[1:9], fp[0])
	binary.BigEndian.PutUint64(link[9:17], fp[1])
	binary.BigEndian.PutUint32(link[17:21], id)
	s.sideBuf = append(s.sideBuf, link[:]...)
	if len(s.sideBuf) >= sideFlushBytes {
		s.flushSideLocked(false)
	}
}

// Resolve maps a display key to its recorded canonical key, if a
// sidecar link exists.
func (s *Store) Resolve(display engine.Key) (engine.Key, bool) {
	s.mu.RLock()
	ck, ok := s.links[fingerprint(display)]
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
			if len(s.links) > 0 {
				if ck, ok := s.links[fingerprint(key)]; ok && ck != key {
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
			// Damage or a concurrent relocation: the per-key path owns
			// retries and quarantine, and does its own counting.
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
