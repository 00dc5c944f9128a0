// v3 record layout and batched reads.
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
// codec 0 was written only by the retired v1/v2 migrations. Such a
// record, like one with any other unknown codec, is not a valid record:
// the open scan quarantines it like any corrupt span and rewrites the
// segment without it, so the cell re-simulates once and its re-put is
// the key's only record from then on.
//
// Records are keyed by canonical class only: under canonical dedup the
// engine folds display keys onto their class in-process before it
// reads the store, so one simulated payload per class is all a replay
// needs. Earlier versions also persisted those folds as side-*.log link
// logs next to the segments; Open removes them.
package store

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"sort"

	"spectrebench/internal/engine"
)

// magicV3 frames a v3 segment record.
var magicV3 = [4]byte{'S', 'B', 'S', '3'}

// Value codecs (payload byte 1). Codec 0 belonged to the retired
// migrations and no longer parses.
const (
	// vcodecFloat64: 8 raw big-endian bits. The float64 cell values of
	// grid sweeps skip gob entirely.
	vcodecFloat64 = 1
	// vcodecGob: a self-contained gob stream of the interface-wrapped
	// value, for the rare non-float64 cell types.
	vcodecGob = 2
)

const v3HeaderLen = 34 // fixed payload header before the strings

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
// value codec is not checked here: parseRecordV3 rejects one it does
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
// length, CRC, payload header and value codec — and returns its key and
// cycle count (the value stays encoded). n is the full frame length.
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
	key, cycles, vcodec, _, err := parseV3Payload(payload)
	if err != nil {
		return key, 0, 0, 0, err
	}
	if vcodec != vcodecFloat64 && vcodec != vcodecGob {
		return key, 0, 0, 0, fmt.Errorf("unknown value codec %d", vcodec)
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
	if vcodec == vcodecFloat64 {
		if len(valBytes) != 8 {
			return nil, 0, fmt.Errorf("float64 value is %d bytes", len(valBytes))
		}
		return math.Float64frombits(binary.BigEndian.Uint64(valBytes)), cycles, nil
	}
	// parseRecordV3 admits only the two codecs: this is vcodecGob.
	if derr := gob.NewDecoder(bytes.NewReader(valBytes)).Decode(&val); derr != nil {
		return nil, 0, fmt.Errorf("value decode: %w", derr)
	}
	return val, cycles, nil
}

// PutLink is a no-op. Records are keyed by canonical class and every
// caller folds display keys in-process before it reads the store, so no
// display→canonical link is ever looked up. It stays only because the
// benchmark module's store decorator forwards it; engine.LinkRecorder
// is no longer consulted.
func (s *Store) PutLink(display, canonical engine.Key) {}

// PutLinkBatch is a no-op, kept for the same reason as PutLink.
func (s *Store) PutLinkBatch(pairs []engine.LinkPair) {}

// ---------------------------------------------------------------------
// Batched reads.

// GetBatch resolves many keys under one index lock
// (engine.SecondLevel), reading records in segment-offset order
// for locality. Results are positional. A record that fails its read or
// checksum is retried through the per-key Get, which owns the self-heal
// path.
func (s *Store) GetBatch(keys []engine.Key) []engine.BatchGet {
	s.getBatches.Add(1)
	out := make([]engine.BatchGet, len(keys))
	type pending struct {
		i   int
		ent ref
	}
	var reads []pending
	if !s.closed.Load() {
		s.mu.RLock()
		for i, key := range keys {
			if ent, ok := s.index[key]; ok {
				reads = append(reads, pending{i: i, ent: ent})
				continue
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
		_, val, cycles, err := s.readRecord(p.ent, keys[p.i])
		if err != nil {
			// Damage: the per-key path owns quarantine, and does its own
			// counting.
			val, cycles, ok := s.Get(keys[p.i])
			out[p.i] = engine.BatchGet{Val: val, Cycles: cycles, OK: ok}
			continue
		}
		s.hits.Add(1)
		out[p.i] = engine.BatchGet{Val: val, Cycles: cycles, OK: true}
	}
	return out
}
