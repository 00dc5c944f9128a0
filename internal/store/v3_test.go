package store

import (
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
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

// TestCloseStopsBackgroundGoroutines: a sync-mode store starts the
// flusher loop; Close must stop it so long-lived daemons opening and
// closing stores do not leak.
func TestCloseStopsBackgroundGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	dir := t.TempDir()
	s, err := Open(dir, Options{Logf: t.Logf}) // sync mode: flusher runs
	if err != nil {
		t.Fatal(err)
	}
	canon := engine.Key{Workload: "w", Uarch: "u", Config: "v=0"}
	s.Put(canon, 1.0, 1)
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

// TestSidecarFromEarlierLayoutReplays opens a store an earlier version
// wrote (testdata/sidecar-v3: the canonical records of the first 200
// cells of grid.Cells(200, 0), valued from their key hash, two side
// logs of display→canonical links and a MANIFEST). An engine that folds
// the cells itself with grid.Canonicalizer must replay every one of
// them from the segment — no store miss, nothing simulated — and Open
// must have removed the side logs and the MANIFEST.
func TestSidecarFromEarlierLayoutReplays(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join("testdata", "sidecar-v3", segsDirName)
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	var sideLogs int
	for _, de := range entries {
		b, err := os.ReadFile(filepath.Join(src, de.Name()))
		if err != nil {
			t.Fatal(err)
		}
		writeFile(t, filepath.Join(dir, segsDirName, de.Name()), b)
		if strings.HasPrefix(de.Name(), "side-") {
			sideLogs++
		}
	}
	if sideLogs != 2 {
		t.Fatalf("testdata holds %d side logs, want 2", sideLogs)
	}

	s := openT(t, dir)
	defer s.Close()
	left, err := os.ReadDir(filepath.Join(dir, segsDirName))
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 1 || left[0].Name() != segPrefix+"000001"+segExt {
		names := make([]string, len(left))
		for i, de := range left {
			names[i] = de.Name()
		}
		t.Errorf("segments/ holds %v after Open, want only the segment", names)
	}

	cells := grid.Cells(200, 0)
	e := engine.New(1)
	defer e.Close()
	e.SetCanonicalizer(grid.Canonicalizer(cells))
	e.SetSecondLevel(s)
	bcells := make([]engine.BatchCell, len(cells))
	for i, c := range cells {
		bcells[i] = engine.BatchCell{Key: c.Display, Fn: func() (any, error) {
			t.Errorf("%v simulated despite its stored class", c.Display)
			return nil, nil
		}}
	}
	for i, task := range e.SubmitBatch(bcells) {
		h := cells[i].CanonKey().Hash()
		want := float64(h%100000) / 4
		if got, err := task.Wait(); err != nil || got != want {
			t.Fatalf("%v replayed (%v, %v), want %v", cells[i].Display, got, err, want)
		}
	}
	d := e.StatsDetail()
	if d.Simulated != 0 || d.SecondLevelHits != d.Classes {
		t.Errorf("engine over the earlier store: %v", d)
	}
	if st := s.Stats(); st.Misses != 0 || st.Hits != d.Classes || st.Puts != 0 {
		t.Errorf("store over %d classes: hits=%d misses=%d puts=%d, want %d/0/0",
			d.Classes, st.Hits, st.Misses, st.Puts, d.Classes)
	}
}
