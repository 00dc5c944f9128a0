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

// TestCodecZeroRecordIsQuarantined: a v3 record under value codec 0 —
// written only by the retired migrations — is a structurally valid
// frame, so the open scan indexes it, but it no longer decodes. Get and
// GetBatch must treat it as a corrupt record: a miss, the bytes moved
// to quarantine/, no panic, and every other record still served.
func TestCodecZeroRecordIsQuarantined(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir)
	s.Put(testKey(0), 2.5, 20)
	s.Close()

	seg := segFiles(t, dir)[0]
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	old := frame(magicV3, encodeV3Payload(testKey(1), 30, 0, gobTriple(t, testKey(1), 30, 3.5)))
	if err := os.WriteFile(seg, append(data, old...), 0o666); err != nil {
		t.Fatal(err)
	}

	for _, batch := range []bool{false, true} {
		s := openT(t, dir)
		if s.Len() != 2 {
			t.Errorf("batch=%v: Len=%d, want 2 (the codec-0 frame is structurally valid)", batch, s.Len())
		}
		var ok bool
		if batch {
			ok = s.GetBatch([]engine.Key{testKey(1)})[0].OK
		} else {
			_, _, ok = s.Get(testKey(1))
		}
		if ok {
			t.Errorf("batch=%v: codec-0 record served", batch)
		}
		if st := s.Stats(); st.Quarantined != 1 || st.Entries != 1 {
			t.Errorf("batch=%v: quarantined=%d entries=%d, want 1/1", batch, st.Quarantined, st.Entries)
		}
		if v, c, ok := s.Get(testKey(0)); !ok || v != 2.5 || c != 20 {
			t.Errorf("batch=%v: intact record: got (%v, %d, %v)", batch, v, c, ok)
		}
		if _, _, ok := s.Get(testKey(1)); ok || s.Stats().Quarantined != 1 {
			t.Errorf("batch=%v: second Get served the record or quarantined it again", batch)
		}
		s.Close()
	}
	q, err := os.ReadDir(filepath.Join(dir, quarantineName))
	if err != nil {
		t.Fatal(err)
	}
	if len(q) != 2 {
		t.Errorf("quarantine/ holds %d files after two opens, want 2", len(q))
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
