package store

import (
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
	"time"

	"spectrebench/internal/engine"
	"spectrebench/internal/grid"
)

// TestV3RecordValueCodecs pins the fast-path layout: a float64 cell is
// stored as 8 raw bytes (vcodecFloat64), anything else as a
// self-contained gob (vcodecGob), and both round-trip across reopen.
func TestV3RecordValueCodecs(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir)
	s.Put(testKey(0), 3.25, 10)
	s.Put(testKey(1), structVal{Name: "s", Xs: []float64{1, 2}}, 11)
	s.Close()

	seg := segFiles(t, dir)[0]
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	offs := recordOffsets(t, seg)
	if len(offs) != 2 {
		t.Fatalf("segment holds %d records, want 2", len(offs))
	}
	wantVC := []byte{vcodecFloat64, vcodecGob}
	for i, span := range offs {
		if vc := data[span[0]+headerLen+1]; vc != wantVC[i] {
			t.Errorf("record %d: vcodec=%d, want %d", i, vc, wantVC[i])
		}
	}

	s2 := openT(t, dir)
	defer s2.Close()
	if v, c, ok := s2.Get(testKey(0)); !ok || v != 3.25 || c != 10 {
		t.Errorf("float64 cell: got (%v, %d, %v)", v, c, ok)
	}
	v, _, ok := s2.Get(testKey(1))
	if !ok || !reflect.DeepEqual(v, structVal{Name: "s", Xs: []float64{1, 2}}) {
		t.Errorf("struct cell: got (%#v, %v)", v, ok)
	}
}

// TestSidecarLinksSurviveReopen: PutLink'd display→canonical folds are
// durable — after a reopen a Get on the display key resolves through
// the sidecar to the canonical entry and is counted as a sidecar hit;
// a Get on an unlinked key counts a sidecar miss.
func TestSidecarLinksSurviveReopen(t *testing.T) {
	dir := t.TempDir()
	canon := engine.Key{Workload: "w", Uarch: "u", Config: "v=1"}
	alias := engine.Key{Workload: "w", Uarch: "u", Config: "v=1,alias=3"}

	s := openT(t, dir)
	s.Put(canon, 42.5, 7)
	s.PutLink(alias, canon)
	s.PutLink(canon, canon) // self-link: must be a no-op
	if v, c, ok := s.Get(alias); !ok || v != 42.5 || c != 7 {
		t.Fatalf("live link Get = (%v, %d, %v), want (42.5, 7, true)", v, c, ok)
	}
	s.Close()

	s2 := openT(t, dir)
	defer s2.Close()
	st := s2.Stats()
	if st.SidecarLinks != 1 {
		t.Fatalf("sidecarLinks=%d after reopen, want 1", st.SidecarLinks)
	}
	if v, c, ok := s2.Get(alias); !ok || v != 42.5 || c != 7 {
		t.Errorf("replayed link Get = (%v, %d, %v), want (42.5, 7, true)", v, c, ok)
	}
	if _, _, ok := s2.Get(engine.Key{Workload: "w", Uarch: "u", Config: "v=9"}); ok {
		t.Error("unknown key served")
	}
	st = s2.Stats()
	if st.SidecarHits != 1 {
		t.Errorf("sidecarHits=%d, want 1", st.SidecarHits)
	}
	if st.SidecarMisses != 1 {
		t.Errorf("sidecarMisses=%d, want 1", st.SidecarMisses)
	}
	if st.Hits != 1 || st.Misses != 1 {
		t.Errorf("hits=%d misses=%d, want 1/1", st.Hits, st.Misses)
	}
}

// TestGetBatch: one call resolves a mixed hit/miss key set with the
// same per-key counting as Get, plus one GetBatches tick.
func TestGetBatch(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir)
	for i := 0; i < 4; i++ {
		s.Put(testKey(i), float64(i)*1.5, uint64(i))
	}
	s.Close()

	s2 := openT(t, dir)
	defer s2.Close()
	keys := []engine.Key{testKey(3), testKey(0), testKey(9), testKey(2)}
	got := s2.GetBatch(keys)
	if len(got) != len(keys) {
		t.Fatalf("GetBatch returned %d results, want %d", len(got), len(keys))
	}
	want := []engine.BatchGet{
		{Val: 4.5, Cycles: 3, OK: true},
		{Val: 0.0, Cycles: 0, OK: true},
		{OK: false},
		{Val: 3.0, Cycles: 2, OK: true},
	}
	for i := range want {
		if got[i].OK != want[i].OK {
			t.Errorf("key %d: ok=%v, want %v", i, got[i].OK, want[i].OK)
			continue
		}
		if got[i].OK && (got[i].Val != want[i].Val || got[i].Cycles != want[i].Cycles) {
			t.Errorf("key %d: got (%v, %d), want (%v, %d)", i, got[i].Val, got[i].Cycles, want[i].Val, want[i].Cycles)
		}
	}
	st := s2.Stats()
	if st.GetBatches != 1 {
		t.Errorf("getBatches=%d, want 1", st.GetBatches)
	}
	if st.Hits != 3 || st.Misses != 1 {
		t.Errorf("hits=%d misses=%d, want 3/1", st.Hits, st.Misses)
	}
}

// TestManifestSkipsSealedSegmentScan: after rotation has sealed
// segments and Close has written the manifest, a reopen indexes the
// sealed segments straight from the manifest (ManifestSegments > 0)
// with every entry intact; a damaged manifest silently falls back to
// the full scan.
func TestManifestSkipsSealedSegmentScan(t *testing.T) {
	old := segMaxBytes
	segMaxBytes = 256 // rotate every few records
	defer func() { segMaxBytes = old }()

	dir := t.TempDir()
	const n = 24
	s := openT(t, dir)
	for i := 0; i < n; i++ {
		s.Put(testKey(i), float64(i), uint64(i))
	}
	s.Close()
	if len(segFiles(t, dir)) < 2 {
		t.Fatalf("expected rotation to seal at least one segment")
	}

	s2 := openT(t, dir)
	st := s2.Stats()
	if st.ManifestSegments == 0 {
		t.Errorf("manifestSegments=0, want sealed segments indexed from the manifest")
	}
	if s2.Len() != n {
		t.Errorf("Len=%d, want %d", s2.Len(), n)
	}
	for i := 0; i < n; i++ {
		if v, _, ok := s2.Get(testKey(i)); !ok || v != float64(i) {
			t.Errorf("key %d: got (%v, %v)", i, v, ok)
		}
	}
	s2.Close()

	// Corrupt the manifest: the open must fall back to scanning and
	// still serve everything.
	mpath := filepath.Join(dir, segsDirName, manifestName)
	if err := os.WriteFile(mpath, []byte("garbage"), 0o666); err != nil {
		t.Fatal(err)
	}
	s3 := openT(t, dir)
	defer s3.Close()
	if st := s3.Stats(); st.ManifestSegments != 0 {
		t.Errorf("manifestSegments=%d with damaged manifest, want 0 (scan fallback)", st.ManifestSegments)
	}
	if s3.Len() != n {
		t.Errorf("scan-fallback Len=%d, want %d", s3.Len(), n)
	}
}

// TestCloseStopsBackgroundGoroutines: a sync-mode store starts the
// flusher/compactor loop; Close must stop it (and the sidecar writer)
// so long-lived daemons opening and closing stores do not leak.
func TestCloseStopsBackgroundGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	dir := t.TempDir()
	s, err := Open(dir, Options{Logf: t.Logf}) // sync mode: flusher runs
	if err != nil {
		t.Fatal(err)
	}
	canon := engine.Key{Workload: "w", Uarch: "u", Config: "v=0"}
	s.Put(canon, 1.0, 1)
	s.PutLink(engine.Key{Workload: "w", Uarch: "u", Config: "v=0,a"}, canon)
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	deadline := time.Now().Add(3 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > before {
		t.Errorf("goroutine leak after Close: %d before, %d after", before, got)
	}
	// Close is idempotent and the store stays safely unusable.
	if err := s.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
	if _, _, ok := s.Get(canon); ok {
		t.Error("closed store served a Get")
	}
}

// TestSidecarFromEarlierLayoutReplays opens a store written before the
// in-memory link table interned its canonical keys (testdata/sidecar-v3:
// the first 200 cells of grid.Cells(200, 0), canonical records valued
// from their key hash, and the display→canonical links of cells 0-99
// and 100-199 written by two sessions into two side logs). The on-disk
// format is unchanged, so with no canonicalizer anywhere every display
// key must resolve through Resolve and GetBatch to the same canonical
// record as before, and an engine on top must replay all of them from
// the store.
func TestSidecarFromEarlierLayoutReplays(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join("testdata", "sidecar-v3", segsDirName)
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(dir, segsDirName), 0o777); err != nil {
		t.Fatal(err)
	}
	for _, de := range entries {
		b, err := os.ReadFile(filepath.Join(src, de.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, segsDirName, de.Name()), b, 0o666); err != nil {
			t.Fatal(err)
		}
	}

	cells := grid.Cells(200, 0)
	want := func(c grid.Cell) (float64, uint64) {
		h := c.Canon.Hash()
		return float64(h%100000) / 4, h % 1000003
	}
	s := openT(t, dir)
	defer s.Close()
	if st := s.Stats(); st.SidecarLinks != len(cells) {
		t.Fatalf("%d sidecar links loaded, want %d", st.SidecarLinks, len(cells))
	}
	keys := make([]engine.Key, len(cells))
	for i, c := range cells {
		keys[i] = c.Display
		if ck, ok := s.Resolve(c.Display); !ok || ck != c.Canon {
			t.Fatalf("Resolve(%v) = (%v, %v), want %v", c.Display, ck, ok, c.Canon)
		}
	}
	for i, g := range s.GetBatch(keys) {
		v, cyc := want(cells[i])
		if !g.OK || g.Val != v || g.Cycles != cyc {
			t.Fatalf("GetBatch %v = %+v, want (%v, %d)", keys[i], g, v, cyc)
		}
	}
	if _, ok := s.Resolve(grid.Cells(201, 0)[200].Display); ok {
		t.Error("a display key nobody linked resolved")
	}
	if st := s.Stats(); st.SidecarHits != uint64(len(cells)) {
		t.Errorf("sidecarHits=%d, want %d", st.SidecarHits, len(cells))
	}

	e := engine.New(1)
	defer e.Close()
	e.SetSecondLevel(s)
	bcells := make([]engine.BatchCell, len(cells))
	for i, c := range cells {
		bcells[i] = engine.BatchCell{Key: c.Display, Fn: func() (any, error) {
			t.Errorf("%v simulated despite its sidecar link", c.Display)
			return nil, nil
		}}
	}
	for i, task := range e.SubmitBatch(bcells) {
		v, _ := want(cells[i])
		if got, err := task.Wait(); err != nil || got != v {
			t.Fatalf("%v replayed (%v, %v), want %v", cells[i].Display, got, err, v)
		}
	}
	if d := e.StatsDetail(); d.SecondLevelHits != uint64(len(cells)) || d.Simulated != 0 {
		t.Errorf("engine over the earlier store: %v", d)
	}
}
