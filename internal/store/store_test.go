package store

import (
	"encoding/gob"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strconv"
	"testing"
	"time"

	"spectrebench/internal/engine"
	"spectrebench/internal/faultinject"
)

// structVal is a registered structured cell value for round-trip tests.
type structVal struct {
	Name string
	Xs   []float64
}

func init() { gob.Register(structVal{}) }

func testKey(i int) engine.Key {
	return engine.Key{Workload: "test/cell", Uarch: "skylake", Config: fmt.Sprintf("case=%d", i)}
}

func openT(t *testing.T, dir string) *Store {
	t.Helper()
	s, err := Open(dir, Options{NoSync: true, Logf: t.Logf})
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return s
}

// segFiles returns the store's segment log paths in name order.
func segFiles(t *testing.T, dir string) []string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, segsDirName, segPrefix+"*"+segExt))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatalf("no segment logs under %s", dir)
	}
	return paths
}

// recordOffsets scans a segment file and returns the frame offset and
// length of every record in it (the test-side mirror of the scan).
func recordOffsets(t *testing.T, path string) [][2]int {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var out [][2]int
	off := 0
	for off < len(data) {
		_, _, _, n, err := parseRecordV3(data, off)
		if err != nil {
			t.Fatalf("%s: record at %d: %v", path, off, err)
		}
		out = append(out, [2]int{off, n})
		off += n
	}
	return out
}

// TestRoundTripAcrossReopen pins the basic contract: heterogeneous
// values put into one store come back bit-equal from a fresh Open of
// the same directory.
func TestRoundTripAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	vals := map[int]any{
		0: float64(3.25),
		1: []string{"row-a", "row-b"},
		2: structVal{Name: "pair", Xs: []float64{1, 2.5}},
	}

	s := openT(t, dir)
	for i, v := range vals {
		s.Put(testKey(i), v, uint64(1000+i))
	}
	if st := s.Stats(); st.Puts != 3 || st.PutErrors != 0 {
		t.Fatalf("puts=%d putErrors=%d, want 3/0", st.Puts, st.PutErrors)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	s2 := openT(t, dir)
	defer s2.Close()
	if s2.Len() != 3 {
		t.Fatalf("reopened Len=%d, want 3", s2.Len())
	}
	for i, want := range vals {
		got, cycles, ok := s2.Get(testKey(i))
		if !ok {
			t.Fatalf("key %d: miss after reopen", i)
		}
		if cycles != uint64(1000+i) {
			t.Errorf("key %d: cycles=%d, want %d", i, cycles, 1000+i)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("key %d: value %#v, want %#v", i, got, want)
		}
	}
}

// TestWarmRePutSkipsDuplicate pins the warm-run contract `run`/serve
// depend on: re-putting a committed key writes nothing (Puts stays 0 on
// a fully warm sweep) and the stored value is untouched.
func TestWarmRePutSkipsDuplicate(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir)
	s.Put(testKey(0), 1.5, 10)
	s.Close()

	s2 := openT(t, dir)
	defer s2.Close()
	s2.Put(testKey(0), 999.0, 999)
	if st := s2.Stats(); st.Puts != 0 || st.PutErrors != 0 {
		t.Errorf("puts=%d putErrors=%d after warm re-put, want 0/0", st.Puts, st.PutErrors)
	}
	if val, cycles, ok := s2.Get(testKey(0)); !ok || val != 1.5 || cycles != 10 {
		t.Errorf("got (%v, %d, %v), want (1.5, 10, true)", val, cycles, ok)
	}
}

// TestTornTailIsTruncatedNotQuarantined: the partial record a crash
// mid-append leaves is expected debris — the scan truncates it,
// counts it in TornTail, and quarantines nothing.
func TestTornTailIsTruncatedNotQuarantined(t *testing.T) {
	dir := t.TempDir()
	const n = 5
	s := openT(t, dir)
	for i := 0; i < n; i++ {
		s.Put(testKey(i), float64(i), uint64(i))
	}
	s.Close()

	seg := segFiles(t, dir)[0]
	recs := recordOffsets(t, seg)
	if len(recs) != n {
		t.Fatalf("%d records, want %d", len(recs), n)
	}
	last := recs[n-1]
	// Tear the last record mid-payload.
	if err := os.Truncate(seg, int64(last[0]+last[1]/2)); err != nil {
		t.Fatal(err)
	}

	s2 := openT(t, dir)
	defer s2.Close()
	st := s2.Stats()
	if st.TornTail != 1 {
		t.Errorf("tornTail=%d, want 1", st.TornTail)
	}
	if st.Quarantined != 0 {
		t.Errorf("quarantined=%d, want 0 (a torn tail is not damage)", st.Quarantined)
	}
	if s2.Len() != n-1 {
		t.Errorf("Len=%d, want %d", s2.Len(), n-1)
	}
	for i := 0; i < n-1; i++ {
		if val, _, ok := s2.Get(testKey(i)); !ok || val != float64(i) {
			t.Errorf("key %d: got (%v, %v), want (%v, true)", i, val, ok, float64(i))
		}
	}
}

// TestMidSegmentCorruptionQuarantinesAndResyncs is the crash-safety
// core for the segmented layout: a corrupt span in the middle of a log
// must cost exactly the damaged record — the scan resynchronises on the
// next valid record, sets the damaged bytes aside in quarantine/, and
// rewrites the segment so a second open finds nothing left to repair.
func TestMidSegmentCorruptionQuarantinesAndResyncs(t *testing.T) {
	dir := t.TempDir()
	const n = 6
	s := openT(t, dir)
	for i := 0; i < n; i++ {
		s.Put(testKey(i), float64(i)*1.5, uint64(100+i))
	}
	s.Close()

	seg := segFiles(t, dir)[0]
	recs := recordOffsets(t, seg)
	// Flip a payload bit of record 2 and destroy record 4's magic —
	// one checksum failure and one framing failure, with an intact
	// record between them that must keep serving.
	f, err := os.OpenFile(seg, os.O_RDWR, 0o666)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteAt([]byte{0xFF}, int64(recs[2][0]+headerLen+1))
	f.WriteAt([]byte("XXXX"), int64(recs[4][0]))
	f.Close()

	s2 := openT(t, dir)
	st := s2.Stats()
	if st.Quarantined != 2 {
		t.Errorf("quarantined=%d, want 2", st.Quarantined)
	}
	if s2.Len() != n-2 {
		t.Errorf("Len=%d, want %d", s2.Len(), n-2)
	}
	for i := 0; i < n; i++ {
		val, cycles, ok := s2.Get(testKey(i))
		if i == 2 || i == 4 {
			if ok {
				t.Errorf("key %d: served despite damage", i)
			}
			continue
		}
		if !ok || val != float64(i)*1.5 || cycles != uint64(100+i) {
			t.Errorf("key %d: got (%v, %d, %v), want (%v, %d, true)", i, val, cycles, ok, float64(i)*1.5, 100+i)
		}
	}
	// The damaged bytes are set aside, not deleted: operators can
	// inspect them.
	qents, err := os.ReadDir(filepath.Join(dir, quarantineName))
	if err != nil {
		t.Fatal(err)
	}
	if len(qents) != 2 {
		t.Errorf("quarantine/ holds %d files, want 2", len(qents))
	}
	s2.Close()

	// The scan rewrote the segment without the damaged span, so a
	// third open converges: nothing new quarantined, same entries.
	s3 := openT(t, dir)
	defer s3.Close()
	st3 := s3.Stats()
	if st3.Quarantined != 0 || st3.TornTail != 0 {
		t.Errorf("second reopen: quarantined=%d tornTail=%d, want 0/0 (repair did not converge)", st3.Quarantined, st3.TornTail)
	}
	if s3.Len() != n-2 {
		t.Errorf("second reopen: Len=%d, want %d", s3.Len(), n-2)
	}
}

// TestAbandonedTempFilesAreSwept: interrupted segment rewrites leave
// *.tmp debris that the next open removes without quarantining.
func TestAbandonedTempFilesAreSwept(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir)
	s.Put(testKey(0), 1.0, 1)
	s.Close()
	if err := os.WriteFile(filepath.Join(dir, segsDirName, "seg-000009.log.tmp"), []byte("partial"), 0o666); err != nil {
		t.Fatal(err)
	}
	s2 := openT(t, dir)
	defer s2.Close()
	if st := s2.Stats(); st.TmpSwept != 1 || st.Quarantined != 0 {
		t.Errorf("tmpSwept=%d quarantined=%d, want 1/0", st.TmpSwept, st.Quarantined)
	}
	if s2.Len() != 1 {
		t.Errorf("Len=%d, want 1", s2.Len())
	}
}

// TestGetSelfHealsCorruptionDiscoveredOnRead covers rot that appears
// after the open scan: a Get that fails the checksum quarantines the
// record and degrades to a miss instead of returning garbage.
func TestGetSelfHealsCorruptionDiscoveredOnRead(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir)
	defer s.Close()
	s.Put(testKey(0), 42.0, 7)

	seg := segFiles(t, dir)[0]
	f, err := os.OpenFile(seg, os.O_RDWR, 0o666)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteAt([]byte{0xAA}, int64(headerLen+2))
	f.Close()

	if _, _, ok := s.Get(testKey(0)); ok {
		t.Fatal("corrupt record served")
	}
	if st := s.Stats(); st.Quarantined != 1 {
		t.Errorf("quarantined=%d, want 1", st.Quarantined)
	}
	if s.Len() != 0 {
		t.Errorf("Len=%d after self-heal, want 0 (the entry must leave the index)", s.Len())
	}
	// The cell re-simulates and re-puts cleanly from here on.
	s.Put(testKey(0), 42.0, 7)
	if val, _, ok := s.Get(testKey(0)); !ok || val != 42.0 {
		t.Errorf("re-put after self-heal: got (%v, %v), want (42, true)", val, ok)
	}
}

// TestEarlierMultiSegmentLayoutReplays opens a directory laid out the
// way earlier versions, which rotated segments at 4 MiB, left a large
// store: three seg-*.log files of valid frames, a key written twice
// across them, and a MANIFEST. Open must index every entry from the
// segments (the first record of a duplicate key wins), Get and GetBatch
// must replay values and cycles, the MANIFEST must be gone, and a new
// Put must land in the highest-numbered segment without creating
// another — across a reopen too.
func TestEarlierMultiSegmentLayoutReplays(t *testing.T) {
	dir := t.TempDir()
	const segs, perSeg = 3, 4
	want := map[engine.Key][2]any{} // key -> {value, cycles}
	for sg := 0; sg < segs; sg++ {
		var log []byte
		for j := 0; j < perSeg; j++ {
			i := sg*perSeg + j
			var val any = float64(i) + 0.5
			if i == 5 {
				val = structVal{Name: "gob", Xs: []float64{float64(i)}}
			}
			payload, err := encodeV3Record(testKey(i), uint64(1000+i), val)
			if err != nil {
				t.Fatal(err)
			}
			log = append(log, frame(magicV3, payload)...)
			want[testKey(i)] = [2]any{val, uint64(1000 + i)}
		}
		if sg == segs-1 {
			// A second record for a key of the first segment: the scan
			// keeps the first.
			payload, err := encodeV3Record(testKey(0), 1, -1.0)
			if err != nil {
				t.Fatal(err)
			}
			log = append(log, frame(magicV3, payload)...)
		}
		writeFile(t, filepath.Join(dir, segsDirName, fmt.Sprintf("%s%06d%s", segPrefix, sg+1, segExt)), log)
	}
	manifest := filepath.Join(dir, segsDirName, "MANIFEST")
	writeFile(t, manifest, frame([4]byte{'S', 'B', 'M', '3'}, []byte{0, 0, 0, 2}))

	check := func(s *Store, n int) {
		t.Helper()
		if s.Len() != n {
			t.Errorf("Len=%d, want %d", s.Len(), n)
		}
		if st := s.Stats(); st.Segments != segs || st.Quarantined != 0 || st.TornTail != 0 {
			t.Errorf("segments=%d quarantined=%d tornTail=%d, want %d/0/0", st.Segments, st.Quarantined, st.TornTail, segs)
		}
		keys := make([]engine.Key, 0, len(want))
		for k, vc := range want {
			keys = append(keys, k)
			if v, c, ok := s.Get(k); !ok || !reflect.DeepEqual(v, vc[0]) || c != vc[1] {
				t.Errorf("Get(%v) = (%v, %d, %v), want (%v, %d, true)", k, v, c, ok, vc[0], vc[1])
			}
		}
		for i, g := range s.GetBatch(keys) {
			if vc := want[keys[i]]; !g.OK || !reflect.DeepEqual(g.Val, vc[0]) || g.Cycles != vc[1] {
				t.Errorf("GetBatch %v = %+v, want (%v, %d)", keys[i], g, vc[0], vc[1])
			}
		}
		if _, err := os.Stat(manifest); !os.IsNotExist(err) {
			t.Errorf("MANIFEST still present after Open (stat: %v)", err)
		}
		if got := segFiles(t, dir); len(got) != segs {
			t.Errorf("%d segment files, want %d: %v", len(got), segs, got)
		}
	}

	s := openT(t, dir)
	check(s, segs*perSeg)
	last := segFiles(t, dir)[segs-1]
	fresh := testKey(100)
	s.Put(fresh, 77.0, 77)
	want[fresh] = [2]any{77.0, uint64(77)}
	recs := recordOffsets(t, last)
	data, err := os.ReadFile(last)
	if err != nil {
		t.Fatal(err)
	}
	if k, _, _, _, err := parseRecordV3(data, recs[len(recs)-1][0]); err != nil || k != fresh {
		t.Errorf("last record of %s holds %v (%v), want the new put %v", last, k, err, fresh)
	}
	check(s, segs*perSeg+1)
	s.Close()

	s2 := openT(t, dir)
	defer s2.Close()
	check(s2, segs*perSeg+1)
}

// TestStoreWriteFaultDegradesCleanly drives the StoreWrite disk-full
// fault point (satellite of the segmented-store work): injected short
// writes must be rolled back — counted in PutErrors, the failed key
// absent but re-puttable, the log tail clean enough that a reopen
// finds no damage at all.
func TestStoreWriteFaultDegradesCleanly(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{NoSync: true, Logf: t.Logf, Fault: faultinject.New(42)})
	if err != nil {
		t.Fatal(err)
	}
	const n = 512 // rate is 1/64: expect several fires
	for i := 0; i < n; i++ {
		s.Put(testKey(i), float64(i), uint64(i))
	}
	st := s.Stats()
	if st.PutErrors == 0 {
		t.Fatal("no injected put errors in 512 puts at rate 1/64")
	}
	if st.Puts+st.PutErrors != n {
		t.Errorf("puts=%d + putErrors=%d != %d", st.Puts, st.PutErrors, n)
	}
	// A failed put degrades to a miss; the key can be re-put later
	// (the engine simply re-publishes next cold run).
	missing := -1
	for i := 0; i < n; i++ {
		if _, _, ok := s.Get(testKey(i)); !ok {
			missing = i
			break
		}
	}
	if missing < 0 {
		t.Fatal("every key present despite put errors")
	}
	s.Put(testKey(missing), float64(missing), uint64(missing))
	if _, _, ok := s.Get(testKey(missing)); !ok {
		t.Errorf("re-put of key %d after injected failure still missing", missing)
	}
	s.Close()

	// The rollback kept the log clean: reopening finds no torn tails,
	// no quarantines, and every committed entry.
	s2 := openT(t, dir)
	defer s2.Close()
	st2 := s2.Stats()
	if st2.TornTail != 0 || st2.Quarantined != 0 {
		t.Errorf("reopen after injected faults: tornTail=%d quarantined=%d, want 0/0", st2.TornTail, st2.Quarantined)
	}
	for i := 0; i < n; i++ {
		val, _, ok := s2.Get(testKey(i))
		if !ok {
			continue // lost to an injected failure and never re-put
		}
		if val != float64(i) {
			t.Errorf("key %d: value %v corrupted, want %v", i, val, float64(i))
		}
	}
}

// TestExclusiveLock pins single-writer semantics: a second Open of a
// live store fails with ErrLocked and succeeds after Close.
func TestExclusiveLock(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir)
	if _, err := Open(dir, Options{}); !errors.Is(err, ErrLocked) {
		t.Fatalf("second Open: %v, want ErrLocked", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := openT(t, dir)
	s2.Close()
}

// unregistered is deliberately NOT gob-registered.
type unregistered struct{ X int }

// TestPutDegradesOnUnregisteredType: an unencodable value must not
// error the caller or corrupt the store — it is counted and skipped.
func TestPutDegradesOnUnregisteredType(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir)
	defer s.Close()
	s.Put(testKey(0), unregistered{1}, 5)
	if st := s.Stats(); st.PutErrors != 1 || st.Puts != 0 {
		t.Errorf("putErrors=%d puts=%d, want 1/0", st.PutErrors, st.Puts)
	}
	if s.Len() != 0 {
		t.Errorf("Len=%d, want 0", s.Len())
	}
}

// TestClosedStoreDegrades: Get and Put after Close are a miss and a
// no-op (the daemon's drain path closes the store while stragglers may
// still publish).
func TestClosedStoreDegrades(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir)
	s.Put(testKey(0), 1.0, 1)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal("second Close:", err)
	}
	if _, _, ok := s.Get(testKey(0)); ok {
		t.Error("Get served after Close")
	}
	s.Put(testKey(1), 2.0, 2)
	if st := s.Stats(); st.Puts != 1 {
		t.Errorf("puts=%d after post-close Put, want 1", st.Puts)
	}
}

// killHelperEnv gates the re-exec helper below.
const killHelperEnv = "SPECTREBENCH_STORE_KILL_HELPER"

// TestKillNineMidWriteNeverCorruptsCommittedEntries re-executes the
// test binary as a writer child that puts entries as fast as it can,
// SIGKILLs it mid-stream, and reopens the directory: every committed
// entry must read back intact, nothing may be quarantined (a torn log
// tail is truncated, not quarantined), and the committed set must be a
// clean prefix of the append order. Repeated for several kill/reopen
// rounds on the same directory.
func TestKillNineMidWriteNeverCorruptsCommittedEntries(t *testing.T) {
	if dir := os.Getenv(killHelperEnv); dir != "" {
		killHelperMain(dir)
		return
	}
	if testing.Short() {
		t.Skip("subprocess kill rounds are slow")
	}

	dir := t.TempDir()
	prev := 0
	for round := 0; round < 3; round++ {
		cmd := exec.Command(os.Args[0], "-test.run=TestKillNineMidWriteNeverCorruptsCommittedEntries$")
		cmd.Env = append(os.Environ(), killHelperEnv+"="+dir)
		if err := cmd.Start(); err != nil {
			t.Fatalf("round %d: start helper: %v", round, err)
		}
		time.Sleep(150 * time.Millisecond)
		if err := cmd.Process.Kill(); err != nil {
			t.Fatalf("round %d: kill: %v", round, err)
		}
		cmd.Wait() // reaps; exit status is the kill signal, ignore

		s := openT(t, dir)
		st := s.Stats()
		if st.Quarantined != 0 {
			t.Fatalf("round %d: %d committed entries quarantined after kill -9", round, st.Quarantined)
		}
		// The helper writes keys sequentially, so the committed set is a
		// prefix; verify every indexed entry round-trips with the value
		// the helper derives from its index.
		got := 0
		for ; ; got++ {
			val, cycles, ok := s.Get(killKey(got))
			if !ok {
				break
			}
			if want := killVal(got); val != want || cycles != uint64(got) {
				t.Fatalf("round %d: entry %d: got (%v, %d), want (%v, %d)", round, got, val, cycles, want, got)
			}
		}
		if got != s.Len() {
			t.Fatalf("round %d: verified prefix %d != Len %d (committed set is not a clean prefix)", round, got, s.Len())
		}
		if got < prev {
			t.Fatalf("round %d: entries went backwards (%d -> %d)", round, prev, got)
		}
		prev = got
		if err := s.Close(); err != nil {
			t.Fatalf("round %d: close: %v", round, err)
		}
	}
	if prev == 0 {
		t.Skip("helper committed no entries before the kill; nothing exercised")
	}
}

func killKey(i int) engine.Key {
	return engine.Key{Workload: "kill/cell", Uarch: "skylake", Config: "i=" + strconv.Itoa(i)}
}

func killVal(i int) float64 { return float64(i)*2.5 + 0.25 }

// killHelperMain is the writer child: it opens the store and puts
// sequential entries until SIGKILLed. NoSync keeps the write rate high
// (the contract under test is atomicity against process death, which
// tail-only appends give with or without the fsync).
func killHelperMain(dir string) {
	s, err := Open(dir, Options{NoSync: true})
	if err != nil {
		fmt.Fprintln(os.Stderr, "kill helper:", err)
		os.Exit(1)
	}
	for i := 0; ; i++ {
		s.Put(killKey(i), killVal(i), uint64(i))
	}
}
