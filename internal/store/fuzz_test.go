package store

import (
	"os"
	"path/filepath"
	"testing"

	"spectrebench/internal/engine"
)

// fuzzStoreFiles writes a small store the way production does — float
// and gob-valued records in one segment, display→canonical links from
// two sessions — and returns its segment and both side logs' bytes.
// The second session's side log re-interns canonical keys under ids
// local to its own file.
func fuzzStoreFiles(f *testing.F) (seg, side1, side2 []byte) {
	f.Helper()
	dir := f.TempDir()
	open := func() *Store {
		s, err := Open(dir, Options{NoSync: true})
		if err != nil {
			f.Fatal(err)
		}
		return s
	}
	s := open()
	for i := 0; i < 6; i++ {
		s.Put(testKey(i), float64(i)+0.25, uint64(100+i))
	}
	s.Put(testKey(6), structVal{Name: "s", Xs: []float64{1, 2}}, 7)
	s.PutLinkBatch([]engine.LinkPair{
		{Display: testKey(10), Canonical: testKey(0)},
		{Display: testKey(11), Canonical: testKey(0)},
		{Display: testKey(12), Canonical: testKey(6)},
	})
	s.Close()
	s = open()
	s.PutLinkBatch([]engine.LinkPair{
		{Display: testKey(13), Canonical: testKey(6)},
		{Display: testKey(14), Canonical: testKey(1)},
	})
	s.Close()
	read := func(name string) []byte {
		b, err := os.ReadFile(filepath.Join(dir, segsDirName, name))
		if err != nil {
			f.Fatal(err)
		}
		return b
	}
	return read(segPrefix + "000001" + segExt), read(sidePrefix + "000001" + segExt), read(sidePrefix + "000002" + segExt)
}

// damaged returns the damage-matrix variants of a file: intact, torn
// mid-record, a flipped payload bit, a garbage prefix, and a zeroed
// span.
func damaged(b []byte) [][]byte {
	out := [][]byte{b}
	if len(b) > 20 {
		out = append(out, b[:len(b)-7])
		flip := append([]byte(nil), b...)
		flip[len(flip)/2] ^= 0x10
		out = append(out, flip)
		zero := append([]byte(nil), b...)
		for i := headerLen; i < headerLen+8; i++ {
			zero[i] = 0
		}
		out = append(out, zero)
	}
	out = append(out, append([]byte("garbage!"), b...))
	return out
}

// FuzzStoreSegment runs the segment reader over arbitrary bytes: the
// frame scan, the payload header parser and the record decoder. None
// may panic; the scan's records, corrupt spans and torn tail must
// partition the input in order; and every record the scan accepts must
// re-parse to the same key and cycles and decode without panicking.
func FuzzStoreSegment(f *testing.F) {
	seg, _, _ := fuzzStoreFiles(f)
	for _, b := range damaged(seg) {
		f.Add(b)
	}
	f.Add(frame(magicV2, []byte("legacy gob triple")))
	f.Add(frame(magicV3, encodeV3Payload(testKey(1), 30, 0, []byte("migrated gob triple"))))
	f.Add(frame(magicV3, encodeV3Payload(testKey(2), 31, 9, nil)))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		recs, bad, end := scanFrames(data)
		if end < 0 || end > len(data) {
			t.Fatalf("end %d outside [0, %d]", end, len(data))
		}
		pos, ri, bi := 0, 0, 0
		for pos < end {
			switch {
			case ri < len(recs) && recs[ri].off == pos:
				r := recs[ri]
				key, cycles, plen, n, err := parseRecordV3(data, r.off)
				if err != nil || n != r.n || key != r.key || cycles != r.cycles || int(plen) != n-headerLen {
					t.Fatalf("record at %d does not re-parse: %v", r.off, err)
				}
				if _, _, _, _, err := parseV3Payload(data[r.off+headerLen : r.off+n]); err != nil {
					t.Fatalf("accepted record at %d has a bad payload: %v", r.off, err)
				}
				if _, c, err := decodeRecordV3(data[r.off:r.off+n], r.key); err == nil && c != r.cycles {
					t.Fatalf("record at %d decodes %d cycles, scanned %d", r.off, c, r.cycles)
				}
				pos += n
				ri++
			case bi < len(bad) && bad[bi].off == pos:
				if bad[bi].next <= pos {
					t.Fatalf("corrupt span at %d does not advance (next %d)", pos, bad[bi].next)
				}
				pos = bad[bi].next
				bi++
			default:
				t.Fatalf("offset %d is neither a record nor a corrupt span", pos)
			}
		}
		if pos != end || ri != len(recs) || bi != len(bad) {
			t.Fatalf("scan pieces do not partition [0, %d): pos %d, %d/%d records, %d/%d spans",
				end, pos, ri, len(recs), bi, len(bad))
		}
		// The lower layers on their own, over the raw bytes.
		parseV3Payload(data)
		decodeRecordV3(data, engine.Key{})
	})
}

// FuzzStoreSidecar runs the sidecar readers over arbitrary bytes: the
// framed side-log loader and a bare chunk parse. Neither may panic, and
// a chunk that parses may only
// link display fingerprints to canonical keys it interned itself: every
// link's id must fall inside the interned table, at a table entry one
// of the chunk's 'C' records produced.
func FuzzStoreSidecar(f *testing.F) {
	_, side, side2 := fuzzStoreFiles(f)
	for _, b := range damaged(side) {
		f.Add(b)
	}
	if len(side) > headerLen {
		f.Add(side[headerLen:]) // a bare chunk
	}
	for _, b := range damaged(side2) {
		f.Add(b)
	}
	f.Add([]byte("L0123456789abcdef\x00\x00\x00\x00"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		s := &Store{links: newLinkTable(0)}
		s.loadSideChunks("fuzz", data)

		s = &Store{links: newLinkTable(0)}
		var canon []uint32
		if s.parseSideChunk(data, &canon) {
			interned := map[uint32]bool{}
			for _, id := range canon {
				interned[id] = true
			}
			for fp, id := range s.links.byFP {
				if int(id) >= len(s.links.keys) || !interned[id] {
					t.Fatalf("link %x points at id %d, which the chunk never interned", fp, id)
				}
				if k, ok := s.links.resolve(fp); !ok || s.links.ids[k] != id {
					t.Fatalf("link %x resolves to %v (%v), not to its interned key", fp, k, ok)
				}
			}
		}
	})
}
