package grid

import (
	"reflect"
	"strings"
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
// looked up by its CanonicalKey in a map, classes in first-seen order.
func refFold(m *model.CPU, combos int) []refClass {
	def := kernel.Defaults(m)
	pos := map[string]int{}
	var out []refClass
	for ci := 0; ci < combos; ci++ {
		bp, display := refCombo(ci)
		ck := bp.Apply(m, def).CanonicalKey()
		if i, ok := pos[ck]; ok {
			out[i].Combos++
			continue
		}
		pos[ck] = len(out)
		out = append(out, refClass{Canon: ck, Display: display, Combos: 1})
	}
	return out
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
				Display: engine.Key{Workload: Workload, Uarch: m.Uarch, Config: display, Seed: seed},
				Canon:   engine.Key{Workload: Workload, Uarch: m.Uarch, Config: "canon|" + mit.CanonicalKey(), Seed: seed},
				CPU:     m,
				Mit:     mit,
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

// TestFoldMatchesStringKeyedFold: Fold finds the same classes as the
// string-keyed reference fold (canonical key, first combo's display,
// combo count, order) on every uarch at several lattice prefixes, and
// maps every combo to the class of its own lowered mitigation set.
func TestFoldMatchesStringKeyedFold(t *testing.T) {
	for _, m := range model.All() {
		def := kernel.Defaults(m)
		for _, combos := range []int{1, 336, 3000, CombosPerUarch} {
			classes, classOf := Fold(m, combos)
			got := make([]refClass, len(classes))
			for i, c := range classes {
				_, display := ComboAt(c.First)
				got[i] = refClass{Canon: c.Canon, Display: display, Combos: c.Combos}
				if c.Canon != c.Mit.CanonicalKey() {
					t.Fatalf("%s/%d: class %d Canon %q is not its Mit's key %q", m.Uarch, combos, i, c.Canon, c.Mit.CanonicalKey())
				}
			}
			if want := refFold(m, combos); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s/%d: Fold classes differ from the reference:\n got  %v\n want %v", m.Uarch, combos, got, want)
			}
			if len(classOf) != combos {
				t.Fatalf("%s/%d: %d class ids, want one per combo", m.Uarch, combos, len(classOf))
			}
			for ci, id := range classOf {
				if mit := bootParams(ci).Apply(m, def); classes[id].Mit != mit {
					t.Fatalf("%s/%d: combo %d mapped to class %d (%s), lowers to %s",
						m.Uarch, combos, ci, id, classes[id].Canon, mit.CanonicalKey())
				}
			}
		}
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
func refCanonicalizer(cells []Cell) engine.Canonicalizer {
	fold := make(map[engine.Key]engine.Key, len(cells))
	for _, c := range cells {
		fold[c.Display] = c.Canon
	}
	return func(k engine.Key) engine.Key {
		if ck, ok := fold[k]; ok {
			return ck
		}
		return k
	}
}

// TestCanonicalizerMatchesReference: the config-chained Canonicalizer
// folds every cell of a lattice prefix exactly as the map-keyed
// reference does, and passes through keys that differ from a cell in
// one field only — another workload, another seed, a combo beyond the
// prefix, an unknown uarch.
func TestCanonicalizerMatchesReference(t *testing.T) {
	for _, n := range []int{0, 1, 7, 9, 12345, MaxCells()} {
		cells := Cells(n, 3)
		got, want := Canonicalizer(cells), refCanonicalizer(cells)
		for _, c := range cells {
			if g, w := got(c.Display), want(c.Display); g != w {
				t.Fatalf("n=%d: %v folds to %v, reference %v", n, c.Display, g, w)
			}
		}
		k := engine.Key{Workload: Workload, Uarch: model.All()[0].Uarch, Config: "defaults", Seed: 3}
		outside := []engine.Key{{}, k}
		outside[1].Workload = "grid/lebench/read"
		outside = append(outside, k, k)
		outside[2].Seed = 4
		outside[3].Uarch = "no-such-uarch"
		if n < MaxCells() {
			_, beyond := ComboAt(n/len(model.All()) + 1)
			outside = append(outside, k)
			outside[4].Config = beyond
		}
		for _, p := range outside {
			if g := got(p); g != p {
				t.Fatalf("n=%d: %v is outside the set but folded to %v", n, p, g)
			}
		}
	}
}
