package grid

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"spectrebench/internal/engine"
	"spectrebench/internal/kernel"
	"spectrebench/internal/model"
)

// refBoolParams is the reference enumeration's toggle table: closure
// setters in flag-bit order.
var refBoolParams = []struct {
	token string
	set   func(*kernel.BootParams)
}{
	{"mitigations=off", func(bp *kernel.BootParams) { bp.MitigationsOff = true }},
	{"nopti", func(bp *kernel.BootParams) { bp.NoPTI = true }},
	{"pti=on", func(bp *kernel.BootParams) { bp.ForcePTI = true }},
	{"nospectre_v1", func(bp *kernel.BootParams) { bp.NoSpectreV1 = true }},
	{"nospectre_v2", func(bp *kernel.BootParams) { bp.NoSpectreV2 = true }},
	{"mds=off", func(bp *kernel.BootParams) { bp.MDSOff = true }},
	{"eagerfpu=off", func(bp *kernel.BootParams) { bp.LazyFPU = true }},
	{"l1tf=off", func(bp *kernel.BootParams) { bp.L1TFOff = true }},
	{"noibpb", func(bp *kernel.BootParams) { bp.NoIBPB = true }},
	{"norsb", func(bp *kernel.BootParams) { bp.NoRSBStuff = true }},
}

// refCombo is the reference enumeration: the boot params and display
// string of combo i, built together token by token.
func refCombo(i int) (kernel.BootParams, string) {
	var bp kernel.BootParams
	var tokens []string
	bp.SpectreV2 = v2Values[i%len(v2Values)]
	if bp.SpectreV2 != "" {
		tokens = append(tokens, "spectre_v2="+bp.SpectreV2)
	}
	switch (i / len(v2Values)) % ssbdModes {
	case 1:
		bp.NoSSBSD = true
		tokens = append(tokens, "spec_store_bypass_disable=off")
	case 2:
		bp.SSBDOn = true
		tokens = append(tokens, "spec_store_bypass_disable=on")
	}
	flags := i / (len(v2Values) * ssbdModes)
	for bit, p := range refBoolParams {
		if flags&(1<<bit) != 0 {
			p.set(&bp)
			tokens = append(tokens, p.token)
		}
	}
	if len(tokens) == 0 {
		return bp, "defaults"
	}
	return bp, strings.Join(tokens, " ")
}

// refClass is what the reference fold records per class.
type refClass struct {
	Canon, Display string
	Combos         int
}

// refFold is the string-keyed reference fold: every combo lowered and
// looked up by its CanonicalKey in a map, classes in first-seen order,
// and each combo's class position.
func refFold(m *model.CPU, combos int) ([]refClass, []int32) {
	def := kernel.Defaults(m)
	pos := map[string]int{}
	var out []refClass
	classOf := make([]int32, combos)
	for ci := 0; ci < combos; ci++ {
		bp, display := refCombo(ci)
		ck := bp.Apply(m, def).CanonicalKey()
		if i, ok := pos[ck]; ok {
			out[i].Combos++
			classOf[ci] = int32(i)
			continue
		}
		pos[ck] = len(out)
		classOf[ci] = int32(len(out))
		out = append(out, refClass{Canon: ck, Display: display, Combos: 1})
	}
	return out, classOf
}

// refCells is the reference Cells: Apply and CanonicalKey per cell.
func refCells(n int, seed uint64) []Cell {
	if max := MaxCells(); n > max {
		n = max
	}
	if n < 0 {
		n = 0
	}
	cpus := model.All()
	out := make([]Cell, 0, n)
	for ci := 0; len(out) < n; ci++ {
		bp, display := refCombo(ci)
		for _, m := range cpus {
			if len(out) >= n {
				break
			}
			mit := bp.Apply(m, kernel.Defaults(m))
			out = append(out, Cell{
				Display:     engine.Key{Workload: Workload, Uarch: m.Uarch, Config: display, Seed: seed},
				CanonConfig: "canon|" + mit.CanonicalKey(),
				CPU:         m,
				Mit:         mit,
			})
		}
	}
	return out
}

// TestComboAtMatchesReference: the bit-test enumeration names the same
// boot params and display string as the reference for every combo.
func TestComboAtMatchesReference(t *testing.T) {
	for ci := 0; ci < CombosPerUarch; ci++ {
		bp, display := ComboAt(ci)
		rbp, rdisplay := refCombo(ci)
		if bp != rbp || display != rdisplay {
			t.Fatalf("combo %d: got (%+v, %q), reference (%+v, %q)", ci, bp, display, rbp, rdisplay)
		}
	}
}

// foldPrefixes are the lattice prefix lengths the fold tests cover:
// empty, one combo, mid-lattice and the full lattice.
var foldPrefixes = []int{0, 1, 336, 3000, 12345, CombosPerUarch}

// checkFold reports how Fold's result for a prefix differs from the
// reference's, or "" when it does not.
func checkFold(classes []Class, classOf []int32, want []refClass, wantOf []int32) string {
	got := make([]refClass, len(classes))
	for i, c := range classes {
		got[i] = refClass{Canon: c.Canon, Display: c.Display, Combos: c.Combos}
		if c.Canon != c.Mit.CanonicalKey() {
			return fmt.Sprintf("class %d Canon %q is not its Mit's key %q", i, c.Canon, c.Mit.CanonicalKey())
		}
	}
	if !slices.Equal(got, want) {
		return fmt.Sprintf("classes differ from the reference:\n got  %v\n want %v", got, want)
	}
	if !slices.Equal(classOf, wantOf) {
		return fmt.Sprintf("combo class positions differ from the reference (%d vs %d combos)", len(classOf), len(wantOf))
	}
	return ""
}

// TestFoldMatchesStringKeyedFold: Fold finds the same classes as the
// string-keyed reference fold (canonical key, first combo's display,
// combo count, order) on every uarch at several lattice prefixes, and
// maps every combo to the class of its own lowered mitigation set.
// FoldByCanon returns the same classes ordered by Canon.
func TestFoldMatchesStringKeyedFold(t *testing.T) {
	for _, m := range model.All() {
		for _, combos := range foldPrefixes {
			classes, classOf := Fold(m, combos)
			want, wantOf := refFold(m, combos)
			if msg := checkFold(classes, classOf, want, wantOf); msg != "" {
				t.Fatalf("%s/%d: %s", m.Uarch, combos, msg)
			}
			sorted := slices.Clone(classes)
			slices.SortFunc(sorted, func(a, b Class) int { return strings.Compare(a.Canon, b.Canon) })
			if !slices.Equal(FoldByCanon(m, combos), sorted) {
				t.Fatalf("%s/%d: FoldByCanon is not Fold's classes in Canon order", m.Uarch, combos)
			}
		}
	}
}

// TestFoldReturnsCopies: what Fold and FoldByCanon return belongs to
// the caller; writing to it leaves the next fold unchanged.
func TestFoldReturnsCopies(t *testing.T) {
	m := model.All()[0]
	want, wantOf := refFold(m, CombosPerUarch)
	classes, classOf := Fold(m, CombosPerUarch)
	byCanon := FoldByCanon(m, CombosPerUarch)
	for i := range classes {
		classes[i] = Class{Canon: "scribbled"}
		byCanon[i] = Class{Canon: "scribbled"}
	}
	for i := range classOf {
		classOf[i] = -1
	}
	classes, classOf = Fold(m, CombosPerUarch)
	if msg := checkFold(classes, classOf, want, wantOf); msg != "" {
		t.Fatalf("after writing to a returned fold: %s", msg)
	}
	if FoldByCanon(m, CombosPerUarch)[0].Canon == "scribbled" {
		t.Fatal("FoldByCanon shares its result with an earlier caller")
	}
}

// freshMemo swaps in an unbuilt lattice memo and display table for the
// rest of the test, so the test sees the memo's first use.
func freshMemo(t *testing.T) {
	savedL, savedD := lattices, displays
	lattices, displays = newLattices(), sync.OnceValue(renderDisplays)
	t.Cleanup(func() { lattices, displays = savedL, savedD })
}

// TestFoldConcurrentFirstUse: many goroutines fold every uarch at mixed
// prefix lengths on an unbuilt memo at once; each gets the reference
// fold of its prefix.
func TestFoldConcurrentFirstUse(t *testing.T) {
	type ref struct {
		classes []refClass
		classOf []int32
	}
	refs := map[*model.CPU]map[int]ref{}
	for _, m := range model.All() {
		refs[m] = map[int]ref{}
		for _, combos := range foldPrefixes {
			r := ref{}
			r.classes, r.classOf = refFold(m, combos)
			refs[m][combos] = r
		}
	}
	freshMemo(t)
	var wg sync.WaitGroup
	errs := make(chan string, 4*len(model.All())*len(foldPrefixes))
	for rep := 0; rep < 4; rep++ {
		for _, m := range model.All() {
			for i := range foldPrefixes {
				// Each goroutine starts at a different prefix length.
				combos := foldPrefixes[(i+rep)%len(foldPrefixes)]
				wg.Add(1)
				go func() {
					defer wg.Done()
					classes, classOf := Fold(m, combos)
					r := refs[m][combos]
					if msg := checkFold(classes, classOf, r.classes, r.classOf); msg != "" {
						errs <- fmt.Sprintf("%s/%d: %s", m.Uarch, combos, msg)
					}
				}()
			}
		}
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Error(msg)
	}
}

// TestWarmFoldAllocatesOnlyItsCopies: once a uarch's lattice is built,
// a full-lattice Fold lowers nothing; it allocates its two returned
// copies and nothing else.
func TestWarmFoldAllocatesOnlyItsCopies(t *testing.T) {
	m := model.All()[0]
	Fold(m, CombosPerUarch)
	if n := testing.AllocsPerRun(20, func() { Fold(m, CombosPerUarch) }); n > 2 {
		t.Fatalf("warm Fold allocates %.0f times per call, want at most 2", n)
	}
}

// TestCellsMatchesReference: Cells built on Fold is deep-equal to the
// reference per-cell lowering at prefix lengths that end mid-combo, on
// combo boundaries, and at the full grid.
func TestCellsMatchesReference(t *testing.T) {
	for _, n := range []int{0, 1, 7, 9, 12345, MaxCells()} {
		seed := uint64(n % 5)
		if got, want := Cells(n, seed), refCells(n, seed); !reflect.DeepEqual(got, want) {
			t.Fatalf("Cells(%d, %d) differs from the reference (%d vs %d cells)", n, seed, len(got), len(want))
		}
	}
}

// refCanonicalizer is the reference fold: a map from every cell's full
// display key to its canonical key.
func refCanonicalizer(cells []Cell) func(engine.Key) (engine.Key, bool) {
	fold := make(map[engine.Key]engine.Key, len(cells))
	for _, c := range cells {
		fold[c.Display] = c.CanonKey()
	}
	return func(k engine.Key) (engine.Key, bool) {
		if ck, ok := fold[k]; ok {
			return ck, true
		}
		return k, false
	}
}

// canonicalizerSets are the cell sets the Canonicalizer and Classes
// tests cover: lattice prefixes that end mid-combo, on combo boundaries
// and at the full grid, under two seeds, and two seeds' cells
// concatenated, one set repeated.
func canonicalizerSets() map[string][]Cell {
	sets := map[string][]Cell{}
	for _, n := range []int{0, 1, 7, 9, 12345, MaxCells()} {
		for _, seed := range []uint64{0, 3} {
			sets[fmt.Sprintf("Cells(%d, %d)", n, seed)] = Cells(n, seed)
		}
	}
	sets["Cells(100, 3)+Cells(5000, 4)+Cells(100, 3)"] = slices.Concat(Cells(100, 3), Cells(5000, 4), Cells(100, 3))
	sets["Cells(12345, 0)+Cells(7, 1)"] = slices.Concat(Cells(12345, 0), Cells(7, 1))
	return sets
}

// TestCanonicalizerMatchesReference: the slot-naming Canonicalizer
// folds every cell of a set exactly as the map-keyed reference does.
// Two of its keys share a display slot if and only if they are equal,
// and a class slot if and only if their canonical keys are equal, and
// every slot is inside Slots. Keys that differ from a cell in one field
// only — another workload, another seed, a combo beyond the prefix, an
// unknown uarch — are outside the set; an empty set folds no key.
func TestCanonicalizerMatchesReference(t *testing.T) {
	for name, cells := range canonicalizerSets() {
		cz, want := Canonicalizer(cells), refCanonicalizer(cells)
		nd, nc := cz.Slots()
		seeds := map[uint64]bool{}
		byDisplay, byClass := map[int32]engine.Key{}, map[int32]engine.Key{}
		displayOf, classOf := map[engine.Key]int32{}, map[engine.Key]int32{}
		for _, c := range cells {
			seeds[c.Display.Seed] = true
		}
		for _, c := range cells {
			g, d, cl, ok := cz.Fold(c.Display)
			if w, _ := want(c.Display); !ok || g != w {
				t.Fatalf("%s: %v folds to (%v, %v), reference %v", name, c.Display, g, ok, w)
			}
			if d < 0 || int(d) >= nd || cl < 0 || int(cl) >= nc {
				t.Fatalf("%s: %v has slots (%d, %d) outside Slots (%d, %d)", name, c.Display, d, cl, nd, nc)
			}
			for _, p := range []struct {
				slot     int32
				key      engine.Key
				byslot   map[int32]engine.Key
				slotOf   map[engine.Key]int32
				slotKind string
			}{{d, c.Display, byDisplay, displayOf, "display"}, {cl, g, byClass, classOf, "class"}} {
				if k, seen := p.byslot[p.slot]; seen && k != p.key {
					t.Fatalf("%s: %v and %v share %s slot %d", name, k, p.key, p.slotKind, p.slot)
				}
				if s, seen := p.slotOf[p.key]; seen && s != p.slot {
					t.Fatalf("%s: %v has %s slots %d and %d", name, p.key, p.slotKind, s, p.slot)
				}
				p.byslot[p.slot], p.slotOf[p.key] = p.key, p.slot
			}
		}
		k := engine.Key{Workload: Workload, Uarch: model.All()[0].Uarch, Config: "defaults", Seed: 3}
		if len(cells) > 0 {
			k = cells[0].Display
			k.Config = "defaults"
		}
		outside := []engine.Key{{}, k, k, k}
		outside[1].Workload = "grid/lebench/read"
		outside[2].Seed = 99
		outside[3].Uarch = "no-such-uarch"
		if ci := len(cells)/len(model.All()) + 1; ci < CombosPerUarch && len(seeds) <= 1 {
			_, beyond := ComboAt(ci)
			outside = append(outside, k)
			outside[len(outside)-1].Config = beyond
		}
		for _, p := range outside {
			if g, _, _, ok := cz.Fold(p); ok || g != p {
				t.Fatalf("%s: %v is outside the set but folded to (%v, %v)", name, p, g, ok)
			}
		}
	}
}

// TestClassesMatchesReference: the bitset count equals the number of
// distinct class keys, for one seed and for mixed seeds.
func TestClassesMatchesReference(t *testing.T) {
	for name, cells := range canonicalizerSets() {
		seen := map[engine.Key]bool{}
		for _, c := range cells {
			seen[c.CanonKey()] = true
		}
		if got := Classes(cells); got != len(seen) {
			t.Fatalf("%s: Classes = %d, reference %d", name, got, len(seen))
		}
	}
}
