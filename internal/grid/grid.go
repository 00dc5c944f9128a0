// Package grid generates the synthetic boot-parameter configuration
// grids the million-cell sweep machinery is exercised with — the
// scaling stand-in for the "Beyond Over-Protection" config-search
// space. A grid cell is (boot-param combo × uarch) running a fixed
// one-benchmark workload; the full space is 21504 combos × 8 uarchs =
// 172032 cells, enumerated deterministically so a prefix of any length
// names the same cells in the same order on every run.
//
// The interesting property of the space — and the reason the engine
// grew canonical keys — is that most of it is redundant: boot-param
// requests the hardware cannot honor are inert (spectre_v2=ibrs on a
// part without the MSR), mitigations=off erases every other toggle,
// and nospectre_v2 makes the IBPB/RSB toggles dead. Lowering each
// combo through kernel.Defaults + BootParams.Apply (which consult
// model.MitigationSupport) yields the cell's effective mitigation set;
// cells with equal effective sets are one equivalence class and need
// one simulation. The fold of one uarch's full lattice, with the
// classes' Canon order and the display strings every uarch shares, is
// built once per process on first use and read-only afterwards: Fold
// and FoldByCanon return views of a prefix of it, Cells stamps it into
// every cell's canonical key, and Canonicalizer exposes it to the
// engine. The memo holds one lattice per registered uarch whatever
// prefixes callers ask for.
package grid

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"spectrebench/internal/engine"
	"spectrebench/internal/kernel"
	"spectrebench/internal/model"
)

// Workload names the grid's default cell workload in engine keys (the
// fixed PR 8 objective; see workloads.go for the full registry).
const Workload = "grid/lebench/getpid"

// flagTokens are the ten independent boot-parameter toggles the grid
// sweeps (bit i of the combo's flag field), as rendered in display
// keys. Order is part of the enumeration contract; bootParams sets the
// matching fields.
var flagTokens = [...]string{
	"mitigations=off", "nopti", "pti=on", "nospectre_v1", "nospectre_v2",
	"mds=off", "eagerfpu=off", "l1tf=off", "noibpb", "norsb",
}

// v2Values are the spectre_v2= request values swept ("" = not passed).
// "retpoline" and "retpoline,generic" are distinct requests that lower
// identically — deliberate dedup fodder.
var v2Values = []string{"", "off", "retpoline", "retpoline,generic", "retpoline,amd", "ibrs", "eibrs"}

// ssbd modes: not passed / =off / =on.
const ssbdModes = 3

// CombosPerUarch is the boot-param combo count: 2^10 flag patterns × 7
// spectre_v2 values × 3 SSBD modes = 21504.
const CombosPerUarch = (1 << 10) * 7 * ssbdModes

// MaxCells is the full grid size across every simulated uarch.
func MaxCells() int { return CombosPerUarch * len(model.All()) }

func init() {
	if got := (1 << len(flagTokens)) * len(v2Values) * ssbdModes; got != CombosPerUarch {
		panic("grid: CombosPerUarch out of sync with the parameter tables")
	}
}

// Cell is one grid cell: a display identity (the raw boot-param
// request), its canonical identity (the effective mitigation set the
// request lowers to), and what to run.
type Cell struct {
	// Display is the cell's submission key: Config holds the raw
	// boot-param string, so rendered output is a function of what was
	// asked for, not of how it folded.
	Display engine.Key
	// Canon is the equivalence-class key: Config holds the effective
	// kernel.Mitigations rendering. Cells with equal Canon simulate
	// once.
	Canon engine.Key
	// CPU and Mit are the lowered machine configuration the cell runs.
	CPU *model.CPU
	Mit kernel.Mitigations
}

// bootParams reconstructs the boot params of combo index i in
// [0, CombosPerUarch) with direct bit tests on the index.
func bootParams(i int) kernel.BootParams {
	ssbd := (i / len(v2Values)) % ssbdModes
	flags := i / (len(v2Values) * ssbdModes)
	return kernel.BootParams{
		MitigationsOff: flags&(1<<0) != 0,
		NoPTI:          flags&(1<<1) != 0,
		ForcePTI:       flags&(1<<2) != 0,
		NoSpectreV1:    flags&(1<<3) != 0,
		NoSpectreV2:    flags&(1<<4) != 0,
		MDSOff:         flags&(1<<5) != 0,
		LazyFPU:        flags&(1<<6) != 0,
		L1TFOff:        flags&(1<<7) != 0,
		NoIBPB:         flags&(1<<8) != 0,
		NoRSBStuff:     flags&(1<<9) != 0,
		SpectreV2:      v2Values[i%len(v2Values)],
		NoSSBSD:        ssbd == 1,
		SSBDOn:         ssbd == 2,
	}
}

// display renders combo index i's boot-param request as its display
// token string ("defaults" when nothing is passed). It runs once per
// combo per process, through displays.
func display(i int) string {
	var tokens []string
	if v2 := v2Values[i%len(v2Values)]; v2 != "" {
		tokens = append(tokens, "spectre_v2="+v2)
	}
	switch (i / len(v2Values)) % ssbdModes {
	case 1:
		tokens = append(tokens, "spec_store_bypass_disable=off")
	case 2:
		tokens = append(tokens, "spec_store_bypass_disable=on")
	}
	flags := i / (len(v2Values) * ssbdModes)
	for bit, tok := range flagTokens {
		if flags&(1<<bit) != 0 {
			tokens = append(tokens, tok)
		}
	}
	if len(tokens) == 0 {
		return "defaults"
	}
	return strings.Join(tokens, " ")
}

// renderDisplays renders every combo's display string.
func renderDisplays() []string {
	out := make([]string, CombosPerUarch)
	for i := range out {
		out[i] = display(i)
	}
	return out
}

// displays is the process-wide table of display strings, indexed by
// combo and shared by every uarch.
var displays = sync.OnceValue(renderDisplays)

// ComboAt exposes the enumeration to other packages: the boot params
// and display token string for combo index i in [0, CombosPerUarch).
func ComboAt(i int) (kernel.BootParams, string) { return bootParams(i), displays()[i] }

// Class is one equivalence class of a folded lattice prefix on one
// uarch: every combo whose effective mitigation set equals Mit.
type Class struct {
	Mit kernel.Mitigations
	// Canon is Mit's kernel.CanonicalKey, rendered once per class.
	Canon string
	// Display is the display string of combo First, the class's
	// representative boot-param request.
	Display string
	// First is the first combo index that lowers into the class; Combos
	// counts the combos that do.
	First, Combos int
}

// lattice is the fold of one uarch's full lattice. It is built once
// per process and read-only afterwards.
type lattice struct {
	classes []Class // first-seen order; Combos counts the full lattice
	classOf []int32 // per combo: its class's position in classes
	byCanon []int32 // class positions in Canon order
}

// foldLattice lowers every lattice combo on m through kernel.Defaults +
// BootParams.Apply and folds the combos into equivalence classes.
// Classes are keyed by Mitigations.Index through a flat table, so the
// per-combo work builds no string and touches no map.
func foldLattice(m *model.CPU) *lattice {
	def := kernel.Defaults(m)
	disp := displays()
	var slot [kernel.IndexSpace]uint16 // class position + 1; 0 = unseen
	l := &lattice{classOf: make([]int32, CombosPerUarch)}
	for ci := range l.classOf {
		mit := bootParams(ci).Apply(m, def)
		s := &slot[mit.Index()]
		if *s == 0 {
			l.classes = append(l.classes, Class{Mit: mit, Canon: mit.CanonicalKey(), Display: disp[ci], First: ci})
			*s = uint16(len(l.classes))
		}
		id := int32(*s) - 1
		l.classes[id].Combos++
		l.classOf[ci] = id
	}
	l.byCanon = make([]int32, len(l.classes))
	for id := range l.byCanon {
		l.byCanon[id] = int32(id)
	}
	sort.Slice(l.byCanon, func(i, j int) bool {
		return l.classes[l.byCanon[i]].Canon < l.classes[l.byCanon[j]].Canon
	})
	return l
}

// newLattices gives every registered uarch a lattice built on first
// use. Only model.All() keys the table, so its size is fixed whatever
// callers ask for.
func newLattices() map[*model.CPU]func() *lattice {
	out := make(map[*model.CPU]func() *lattice)
	for _, m := range model.All() {
		out[m] = sync.OnceValue(func() *lattice { return foldLattice(m) })
	}
	return out
}

// lattices is the process-wide lattice memo.
var lattices = newLattices()

// latticeOf returns m's lattice; m must be one of model.All().
func latticeOf(m *model.CPU) *lattice {
	get, ok := lattices[m]
	if !ok {
		panic(fmt.Sprintf("grid: %q is not a registered model.CPU", m.Uarch))
	}
	return get()
}

// prefix returns the number of classes in the first combos combos
// (clamped to [0, CombosPerUarch]) and, when combos is short of the
// full lattice, each of those classes' combo count. Classes are
// appended in first-seen order, so a prefix's classes are exactly
// positions 0..k-1.
func (l *lattice) prefix(combos int) (int, int, []int) {
	combos = min(max(combos, 0), CombosPerUarch)
	k := sort.Search(len(l.classes), func(id int) bool { return l.classes[id].First >= combos })
	if combos == CombosPerUarch {
		return combos, k, nil
	}
	counts := make([]int, k)
	for _, id := range l.classOf[:combos] {
		counts[id]++
	}
	return combos, k, counts
}

// Fold folds the first combos lattice combos on m (at most
// CombosPerUarch; m one of model.All()) into equivalence classes. It
// returns the classes in first-seen order and, for each combo, the
// position of its class in that slice. The lattice is folded once per
// process and uarch; Fold returns fresh copies the caller may modify.
func Fold(m *model.CPU, combos int) ([]Class, []int32) {
	l := latticeOf(m)
	combos, k, counts := l.prefix(combos)
	classes := append([]Class(nil), l.classes[:k]...)
	for id, n := range counts {
		classes[id].Combos = n
	}
	return classes, append([]int32(nil), l.classOf[:combos]...)
}

// FoldByCanon returns the classes Fold(m, combos) finds, ordered by
// Canon instead of first use.
func FoldByCanon(m *model.CPU, combos int) []Class {
	l := latticeOf(m)
	_, k, counts := l.prefix(combos)
	out := make([]Class, 0, k)
	for _, id := range l.byCanon {
		if int(id) >= k {
			continue
		}
		c := l.classes[id]
		if counts != nil {
			c.Combos = counts[id]
		}
		out = append(out, c)
	}
	return out
}

// Cells enumerates the first n grid cells. The order is combo-major
// with the uarchs interleaved inside each combo, so any prefix spreads
// across every uarch and -cells N names the same set at every
// jobs/dedup setting.
// seed is the fault seed stamped into every key (0 when faults are
// off), keeping fault-run cells distinct from clean ones in the memo
// and the store. Every cell of one class shares its canonical key
// string.
func Cells(n int, seed uint64) []Cell {
	if max := MaxCells(); n > max {
		n = max
	}
	if n < 0 {
		n = 0
	}
	cpus := model.All()
	lats := make([]*lattice, len(cpus))
	canon := make([][]string, len(cpus)) // per uarch and class: "canon|" + Canon
	for u, m := range cpus {
		lats[u] = latticeOf(m)
		canon[u] = make([]string, len(lats[u].classes))
		for id, c := range lats[u].classes {
			canon[u][id] = "canon|" + c.Canon
		}
	}
	disp := displays()
	out := make([]Cell, 0, n)
	for ci := 0; len(out) < n; ci++ {
		for u, m := range cpus {
			if len(out) >= n {
				break
			}
			id := lats[u].classOf[ci]
			out = append(out, Cell{
				Display: engine.Key{Workload: Workload, Uarch: m.Uarch, Config: disp[ci], Seed: seed},
				Canon:   engine.Key{Workload: Workload, Uarch: m.Uarch, Config: canon[u][id], Seed: seed},
				CPU:     m,
				Mit:     lats[u].classes[id].Mit,
			})
		}
	}
	return out
}

// Classes counts the distinct equivalence classes in a cell set — the
// number of simulations a fully deduped sweep performs, and the
// denominator of the dedup ratio.
func Classes(cells []Cell) int {
	seen := make(map[engine.Key]struct{}, len(cells))
	for _, c := range cells {
		seen[c.Canon] = struct{}{}
	}
	return len(seen)
}

// Canonicalizer builds the engine's display-key → class-key fold for a
// cell set. Keys outside the set (other experiments sharing the
// engine) pass through unchanged.
//
// Cells are indexed by display Config, the one key field that tells the
// lattice's combos apart: the full lattice's 172,032 cells share 21,504
// configs, one per combo. Each config heads a chain of the cells that
// carry it (one per uarch), and a lookup compares the whole Key along
// the chain, so workload, uarch and seed still have to match. A later
// cell with the same display key shadows an earlier one. The fold reads
// cells on every lookup, so the caller must not modify them afterwards.
func Canonicalizer(cells []Cell) engine.Canonicalizer {
	head := make(map[string]int32, len(cells)/len(model.All())+1)
	next := make([]int32, len(cells)) // next cell of the same config, or -1
	for i, c := range cells {
		j, ok := head[c.Display.Config]
		if !ok {
			j = -1
		}
		next[i] = j
		head[c.Display.Config] = int32(i)
	}
	return func(k engine.Key) engine.Key {
		i, ok := head[k.Config]
		if !ok {
			return k
		}
		for ; i >= 0; i = next[i] {
			if cells[i].Display == k {
				return cells[i].Canon
			}
		}
		return k
	}
}

// Run simulates the cell: a fresh machine with the cell's lowered
// mitigation set, running the default workload. Pure with respect to
// the cell's canonical key, as engine.Submit requires.
func (c Cell) Run() (any, error) {
	cyc, err := DefaultWorkload().Run(c.CPU, c.Mit)
	if err != nil {
		return nil, err
	}
	return cyc, nil
}
