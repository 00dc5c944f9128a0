package store

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"hash/crc32"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"spectrebench/internal/engine"
)

// treeSnapshot maps every path under dir (relative) to its contents,
// or to "<dir>" for directories.
func treeSnapshot(t *testing.T, dir string) map[string]string {
	t.Helper()
	out := map[string]string{}
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(dir, path)
		if d.IsDir() {
			out[rel] = "<dir>"
			return nil
		}
		b, err := os.ReadFile(path)
		out[rel] = string(b)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// gobTriple is the payload of the legacy v1/v2 record formats:
// gob(key) gob(cycles) gob(value).
func gobTriple(t *testing.T, key engine.Key, cycles uint64, val any) []byte {
	t.Helper()
	var b bytes.Buffer
	enc := gob.NewEncoder(&b)
	for _, v := range []any{&key, cycles, &val} {
		if err := enc.Encode(v); err != nil {
			t.Fatal(err)
		}
	}
	return b.Bytes()
}

// frame wraps payload in a segment record frame under magic.
func frame(magic [4]byte, payload []byte) []byte {
	buf := make([]byte, headerLen+len(payload))
	copy(buf, magic[:])
	binary.BigEndian.PutUint32(buf[4:8], crc32.ChecksumIEEE(payload))
	binary.BigEndian.PutUint32(buf[8:12], uint32(len(payload)))
	copy(buf[headerLen:], payload)
	return buf
}

func writeFile(t *testing.T, path string, data []byte) {
	t.Helper()
	if err := os.MkdirAll(filepath.Dir(path), 0o777); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o666); err != nil {
		t.Fatal(err)
	}
}

// TestLegacyLayoutRefused: a directory written by an earlier store
// version — a v1 cells/ directory, a v2 "SBS2" segment, or the build
// directory an interrupted v2→v3 migration left behind — is refused
// with ErrLegacyLayout, and not one byte of it changes: no lock file
// rewritten, no segment created, scanned or truncated.
func TestLegacyLayoutRefused(t *testing.T) {
	legacy := []struct {
		name  string
		build func(t *testing.T, dir string)
	}{
		{"v1-cells", func(t *testing.T, dir string) {
			// SBC1 header, CRC, length, gob triple: one v1 cell file.
			payload := gobTriple(t, testKey(0), 7, 1.5)
			writeFile(t, filepath.Join(dir, "cells", "0123456789abcdef.cell"), frame([4]byte{'S', 'B', 'C', '1'}, payload))
		}},
		{"v2-segment", func(t *testing.T, dir string) {
			rec := frame(magicV2, gobTriple(t, testKey(0), 7, 1.5))
			writeFile(t, filepath.Join(dir, segsDirName, segPrefix+"000001"+segExt), append(rec, rec[:5]...))
		}},
		{"migration-build", func(t *testing.T, dir string) {
			rec := frame(magicV3, encodeV3Payload(testKey(0), 7, vcodecFloat64, make([]byte, 8)))
			writeFile(t, filepath.Join(dir, segsDirName, segPrefix+"000001"+segExt), rec)
			writeFile(t, filepath.Join(dir, segsDirName+".v3", segPrefix+"000001"+segExt), rec)
		}},
		{"migration-old", func(t *testing.T, dir string) {
			rec := frame(magicV3, encodeV3Payload(testKey(0), 7, vcodecFloat64, make([]byte, 8)))
			writeFile(t, filepath.Join(dir, segsDirName, segPrefix+"000001"+segExt), rec)
			writeFile(t, filepath.Join(dir, segsDirName+".v2old", segPrefix+"000001"+segExt), frame(magicV2, gobTriple(t, testKey(0), 7, 1.5)))
		}},
	}
	for _, tc := range legacy {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			writeFile(t, filepath.Join(dir, lockName), []byte("4242\n"))
			tc.build(t, dir)
			before := treeSnapshot(t, dir)
			s, err := Open(dir, Options{NoSync: true, Logf: t.Logf})
			if err == nil {
				s.Close()
				t.Fatal("Open accepted a legacy layout")
			}
			if !errors.Is(err, ErrLegacyLayout) {
				t.Fatalf("Open = %v, want ErrLegacyLayout", err)
			}
			if after := treeSnapshot(t, dir); !reflect.DeepEqual(before, after) {
				t.Errorf("Open changed the legacy directory:\n before %q\n after  %q", before, after)
			}
		})
	}
}

// appendCodecZero appends to the store's segment a v3 record for
// testKey(1) under value codec 0 — written only by the retired
// migrations. It frames and checksums validly.
func appendCodecZero(t *testing.T, dir string) {
	t.Helper()
	seg := segFiles(t, dir)[0]
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	old := frame(magicV3, encodeV3Payload(testKey(1), 30, 0, gobTriple(t, testKey(1), 30, 3.5)))
	if err := os.WriteFile(seg, append(data, old...), 0o666); err != nil {
		t.Fatal(err)
	}
}

// quarantineFiles counts the files under the store's quarantine/.
func quarantineFiles(t *testing.T, dir string) int {
	t.Helper()
	q, err := os.ReadDir(filepath.Join(dir, quarantineName))
	if err != nil {
		t.Fatal(err)
	}
	return len(q)
}

// TestCodecZeroRecordIsQuarantined: a v3 record under value codec 0 is
// not a valid record, although it frames and checksums validly. The
// first open scan quarantines it and rewrites the segment without it;
// Get and GetBatch miss it without a panic, every other record is still
// served, and a second open finds nothing left to quarantine.
func TestCodecZeroRecordIsQuarantined(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir)
	s.Put(testKey(0), 2.5, 20)
	s.Close()
	appendCodecZero(t, dir)

	for round, batch := range []bool{false, true} {
		s := openT(t, dir)
		wantQ := uint64(0)
		if round == 0 {
			wantQ = 1
		}
		if st := s.Stats(); st.Quarantined != wantQ || st.Entries != 1 {
			t.Errorf("open %d: quarantined=%d entries=%d, want %d/1", round+1, st.Quarantined, st.Entries, wantQ)
		}
		var ok bool
		if batch {
			ok = s.GetBatch([]engine.Key{testKey(1)})[0].OK
		} else {
			_, _, ok = s.Get(testKey(1))
		}
		if ok {
			t.Errorf("open %d: codec-0 record served", round+1)
		}
		if v, c, ok := s.Get(testKey(0)); !ok || v != 2.5 || c != 20 {
			t.Errorf("open %d: intact record: got (%v, %d, %v)", round+1, v, c, ok)
		}
		if st := s.Stats(); st.Quarantined != wantQ {
			t.Errorf("open %d: a Get quarantined again (quarantined=%d)", round+1, st.Quarantined)
		}
		s.Close()
	}
	if n := quarantineFiles(t, dir); n != 1 {
		t.Errorf("quarantine/ holds %d files after two opens, want 1", n)
	}
}

// TestCodecZeroRecordHealsOnce drives the self-healing cycle across
// three open/Get/Put rounds over a store holding a codec-0 record: the
// first round misses and re-puts the cell, and from then on the re-put
// record is the one every open indexes — hits, no further put, one
// quarantined span in all.
func TestCodecZeroRecordHealsOnce(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir)
	s.Put(testKey(0), 2.5, 20)
	s.Close()
	appendCodecZero(t, dir)

	var misses, puts uint64
	for round := 1; round <= 3; round++ {
		s := openT(t, dir)
		v, c, ok := s.Get(testKey(1))
		if !ok {
			s.Put(testKey(1), 3.5, 30)
		} else if v != 3.5 || c != 30 {
			t.Errorf("round %d: healed record = (%v, %d), want (3.5, 30)", round, v, c)
		}
		if ok != (round > 1) {
			t.Errorf("round %d: hit=%v, want %v", round, ok, round > 1)
		}
		st := s.Stats()
		misses += st.Misses
		puts += st.Puts
		s.Close()
	}
	if misses != 1 || puts != 1 {
		t.Errorf("three rounds: %d misses, %d puts, want 1/1", misses, puts)
	}
	if n := quarantineFiles(t, dir); n != 1 {
		t.Errorf("quarantine/ holds %d files after three rounds, want 1", n)
	}
}

// TestMixedSegmentsRejected: a store this version wrote, with a v2
// segment spliced in beside its v3 logs, is refused as a legacy layout
// — the check reads every segment's leading magic, not just the first —
// and left as it was, v3 records included.
func TestMixedSegmentsRejected(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir)
	s.Put(testKey(0), 1.0, 1)
	s.Close()
	writeFile(t, filepath.Join(dir, segsDirName, segPrefix+"000099"+segExt), frame(magicV2, gobTriple(t, testKey(1), 2, 2.0)))
	before := treeSnapshot(t, dir)
	if _, err := Open(dir, Options{NoSync: true}); !errors.Is(err, ErrLegacyLayout) {
		t.Fatalf("Open(mixed dir) = %v, want ErrLegacyLayout", err)
	}
	if after := treeSnapshot(t, dir); !reflect.DeepEqual(before, after) {
		t.Errorf("Open changed the mixed directory")
	}
}
