package grid

import (
	"reflect"
	"testing"

	"spectrebench/internal/engine"
	"spectrebench/internal/model"
)

// TestCellsPrefixStable: the enumeration is deterministic and
// prefix-stable — -cells N names the same cells in the same order no
// matter how large the sweep around it is.
func TestCellsPrefixStable(t *testing.T) {
	small := Cells(100, 0)
	big := Cells(500, 0)
	if len(small) != 100 || len(big) != 500 {
		t.Fatalf("lengths %d/%d, want 100/500", len(small), len(big))
	}
	if !reflect.DeepEqual(small, big[:100]) {
		t.Fatal("Cells(100) is not a prefix of Cells(500)")
	}
}

// TestDisplayKeysUnique: every cell in the full grid has a distinct
// display key (the boot-param rendering is injective), so no two cells
// alias in the memo cache.
func TestDisplayKeysUnique(t *testing.T) {
	cells := Cells(MaxCells(), 0)
	if len(cells) != MaxCells() {
		t.Fatalf("full grid has %d cells, want %d", len(cells), MaxCells())
	}
	seen := make(map[engine.Key]int, len(cells))
	for i, c := range cells {
		if j, dup := seen[c.Display]; dup {
			t.Fatalf("cells %d and %d share display key %v", j, i, c.Display)
		}
		seen[c.Display] = i
	}
}

// TestCanonKeyMatchesEffectiveMitigations: cells share a canonical key
// exactly when their lowered mitigation sets (and uarch) are equal —
// the correctness condition for sharing one simulation.
func TestCanonKeyMatchesEffectiveMitigations(t *testing.T) {
	cells := Cells(20000, 0)
	byCanon := map[engine.Key]Cell{}
	for _, c := range cells {
		first, ok := byCanon[c.CanonKey()]
		if !ok {
			byCanon[c.CanonKey()] = c
			continue
		}
		if first.Mit != c.Mit {
			t.Fatalf("canon key %v covers different mitigation sets:\n  %+v\n  %+v", c.CanonKey(), first.Mit, c.Mit)
		}
	}
	// And distinct canon keys on one uarch mean distinct mitigations.
	byMit := map[string]engine.Key{}
	for canon, c := range byCanon {
		mk := c.Display.Uarch + "|" + c.Mit.CanonicalKey()
		if prev, dup := byMit[mk]; dup && prev != canon {
			t.Fatalf("mitigation set %q has two canon keys: %v and %v", mk, prev, canon)
		}
		byMit[mk] = canon
	}
}

// TestDedupRatioSubstantial pins the point of the whole exercise: the
// boot-param space is massively redundant, so classes must be an order
// of magnitude fewer than cells.
func TestDedupRatioSubstantial(t *testing.T) {
	cells := Cells(10000, 0)
	classes := Classes(cells)
	t.Logf("10000 cells, %d classes (%.1fx)", classes, float64(len(cells))/float64(classes))
	if classes*8 > len(cells) {
		t.Fatalf("dedup ratio %.1fx below 8x — canonicalisation is not folding", float64(len(cells))/float64(classes))
	}
}

// TestCanonicalizerPassesForeignKeysThrough: keys outside the cell set
// (other experiments sharing the engine) are not folded.
func TestCanonicalizerPassesForeignKeysThrough(t *testing.T) {
	cz := Canonicalizer(Cells(100, 0))
	foreign := engine.Key{Workload: "lebench/run", Uarch: "Skylake Client", Config: "whatever"}
	if got, _, _, ok := cz.Fold(foreign); ok || got != foreign {
		t.Fatalf("foreign key folded: %v -> (%v, %v)", foreign, got, ok)
	}
	cells := Cells(100, 0)
	if got, _, _, ok := cz.Fold(cells[42].Display); !ok || got != cells[42].CanonKey() {
		t.Fatalf("grid key folded to (%v, %v), want %v", got, ok, cells[42].CanonKey())
	}
}

// TestEndToEndDedupMatchesNoDedup runs a small grid prefix through two
// engines — one folding cells onto their canonical classes, one with no
// canonicalizer installed, so every display key simulates on its own —
// and requires identical per-cell values. Without fault injection the
// cell seeds play no part, so the two must agree exactly.
func TestEndToEndDedupMatchesNoDedup(t *testing.T) {
	cells := Cells(24, 0)
	run := func(canon engine.Canonicalizer) []float64 {
		e := engine.New(2)
		defer e.Close()
		if canon != nil {
			e.SetCanonicalizer(canon)
		}
		bcells := make([]engine.BatchCell, len(cells))
		for i, c := range cells {
			bcells[i] = engine.BatchCell{Key: c.Display, Fn: c.Run}
		}
		out := make([]float64, len(cells))
		for i, tk := range e.SubmitBatch(bcells) {
			v, err := tk.Wait()
			if err != nil {
				t.Fatalf("cell %d: %v", i, err)
			}
			out[i] = v.(float64)
		}
		return out
	}

	deduped := run(Canonicalizer(cells))
	plain := run(nil)
	if !reflect.DeepEqual(deduped, plain) {
		t.Fatalf("deduped and per-display-key runs diverge:\n  deduped: %v\n  plain:   %v", deduped, plain)
	}
}

// warmStore is a second level holding every class: each GetBatch key
// replays one preboxed value.
type warmStore struct{}

var warmVal any = 1.0

func (warmStore) GetBatch(keys []engine.Key) []engine.BatchGet {
	out := make([]engine.BatchGet, len(keys))
	for i := range out {
		out[i] = engine.BatchGet{Val: warmVal, Cycles: 1, OK: true}
	}
	return out
}

func (warmStore) Put(engine.Key, any, uint64) {}

// TestWarmBatchAllocsPerClass: a fully folded SubmitBatch of a lattice
// prefix, replayed from a warm second level by a fresh engine,
// allocates per class — a task and its done channel — and not per cell,
// beyond a constant for the batch's own slices, the engine, its slot
// memo and the canonicalizer (27 in all with Go 1.24). Classes allocates one bitset per (workload, uarch, seed) group
// and nothing else.
func TestWarmBatchAllocsPerClass(t *testing.T) {
	cells := Cells(10000, 0)
	classes := Classes(cells)
	bcells := make([]engine.BatchCell, len(cells))
	for i, c := range cells {
		bcells[i] = engine.BatchCell{Key: c.Display, Fn: c.Run}
	}
	var d engine.StatsDetail
	got := testing.AllocsPerRun(5, func() {
		e := engine.New(1)
		e.SetCanonicalizer(Canonicalizer(cells))
		e.SetSecondLevel(warmStore{})
		e.SubmitBatch(bcells)
		d = e.StatsDetail()
		e.Close()
	})
	if d.Classes != uint64(classes) || d.SecondLevelHits != uint64(classes) || d.ClassHits != uint64(len(cells)-classes) {
		t.Fatalf("ledger %+v: want %d classes, all replayed, %d class hits", d, classes, len(cells)-classes)
	}
	if bound := 2*classes + 48; got > float64(bound) {
		t.Errorf("warm SubmitBatch of %d cells (%d classes) allocates %.0f times, want at most %d",
			len(cells), classes, got, bound)
	}
	groups := len(model.All())
	if got := testing.AllocsPerRun(5, func() { Classes(cells) }); got > float64(groups) {
		t.Errorf("Classes allocates %.0f times over %d groups, want at most one bitset each", got, groups)
	}
}
