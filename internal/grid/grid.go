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
// every cell's class key, and Canonicalizer reads it to fold the
// engine's display keys and name them by slot. The memo holds
// one lattice per registered uarch whatever prefixes callers ask for.
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
	// CanonConfig is the Config of the cell's equivalence-class key
	// (CanonKey): "canon|" and the effective kernel.Mitigations
	// rendering. Cells with equal class keys simulate once.
	CanonConfig string
	// CPU and Mit are the lowered machine configuration the cell runs.
	CPU *model.CPU
	Mit kernel.Mitigations
}

// CanonKey is the cell's equivalence-class key: Display with Config
// replaced by CanonConfig.
func (c Cell) CanonKey() engine.Key {
	k := c.Display
	k.Config = c.CanonConfig
	return k
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

// names is the process-wide index of lattice positions: the registered
// uarchs in enumeration order and each display string's combo.
type names struct {
	cpus    []*model.CPU
	disp    []string
	comboOf map[string]int32
}

func newNames() *names {
	disp := displays()
	n := &names{cpus: model.All(), disp: disp, comboOf: make(map[string]int32, len(disp))}
	for ci, d := range disp {
		n.comboOf[d] = int32(ci)
	}
	return n
}

var latticeNames = sync.OnceValue(newNames)

// locate returns the lattice position (Cells' enumeration index) of the
// grid cell whose display key is k, ignoring k's seed; ok is false when
// no grid cell has k's workload, uarch and config.
func (n *names) locate(k engine.Key) (pos int, ok bool) {
	if k.Workload != Workload {
		return 0, false
	}
	ci, ok := n.comboOf[k.Config]
	if !ok {
		return 0, false
	}
	for u, m := range n.cpus {
		if m.Uarch == k.Uarch {
			return int(ci)*len(n.cpus) + u, true
		}
	}
	return 0, false
}

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
	classes []Class  // first-seen order; Combos counts the full lattice
	configs []string // per class: its class key's Config, "canon|" + Canon
	classOf []int32  // per combo: its class's position in classes
	byCanon []int32  // class positions in Canon order
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
			c := Class{Mit: mit, Canon: mit.CanonicalKey(), Display: disp[ci], First: ci}
			l.classes = append(l.classes, c)
			l.configs = append(l.configs, "canon|"+c.Canon)
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

// allLattices returns the lattice of every registered uarch, in
// enumeration order, with each one's first class slot (the class count
// of the uarchs before it) and the class count of all of them.
func allLattices(cpus []*model.CPU) (lats []*lattice, base []int32, classes int32) {
	lats, base = make([]*lattice, len(cpus)), make([]int32, len(cpus))
	for u, m := range cpus {
		lats[u], base[u] = latticeOf(m), classes
		classes += int32(len(lats[u].classes))
	}
	return lats, base, classes
}

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
// and the store. Every cell of one class shares its canonical Config
// string.
func Cells(n int, seed uint64) []Cell {
	n = min(max(n, 0), MaxCells())
	nm := latticeNames()
	lats, _, _ := allLattices(nm.cpus)
	out := make([]Cell, 0, n)
	for ci := 0; len(out) < n; ci++ {
		for u, m := range nm.cpus {
			if len(out) >= n {
				break
			}
			l := lats[u]
			id := l.classOf[ci]
			out = append(out, Cell{
				Display:     engine.Key{Workload: Workload, Uarch: m.Uarch, Config: nm.disp[ci], Seed: seed},
				CanonConfig: l.configs[id],
				CPU:         m,
				Mit:         l.classes[id].Mit,
			})
		}
	}
	return out
}

// Classes counts the distinct equivalence classes in a cell set — the
// number of simulations a fully deduped sweep performs, and the
// denominator of the dedup ratio. Cells are grouped by their display
// key's workload, uarch and seed; within a group a bitset over
// Mitigations.Index marks the classes seen, since Index, like the class
// key, is injective over mitigation sets.
func Classes(cells []Cell) int {
	type group struct {
		workload, uarch string
		seed            uint64
		seen            [kernel.IndexSpace / 64]uint64
	}
	var groups []group
	n := 0
	for i := range cells {
		k := &cells[i].Display
		g := 0
		for g < len(groups) && (groups[g].uarch != k.Uarch || groups[g].seed != k.Seed || groups[g].workload != k.Workload) {
			g++
		}
		if g == len(groups) {
			groups = append(groups, group{workload: k.Workload, uarch: k.Uarch, seed: k.Seed})
		}
		x := cells[i].Mit.Index()
		if w, bit := &groups[g].seen[x/64], uint64(1)<<(x%64); *w&bit == 0 {
			*w |= bit
			n++
		}
	}
	return n
}

// canonicalizer is the engine.Canonicalizer of one cell set. A key of
// the set is named by its seed and its lattice position (Cells'
// enumeration index): its display slot is seed*span + position, its
// class slot seed*perSeed + its class's position among every uarch's
// lattice classes (uarch-major, first-seen order within a uarch).
type canonicalizer struct {
	names   *names
	lats    []*lattice // per uarch
	base    []int32    // per uarch: its first class slot
	perSeed int32      // class slots per seed: every uarch's classes
	seeds   []uint64   // the set's seeds, first-seen order
	span    int32      // display slots per seed: 1 + the set's last position
	in      [][]uint64 // per seed: bitset over lattice positions, the set's cells
}

// Canonicalizer builds the engine's display-key → class-key fold for a
// cell set. Keys outside the set (other experiments sharing the engine)
// stand for themselves: Fold reports them not ok. Cells whose display
// key is no lattice cell's stand for themselves too.
//
// The fold reads the process-wide lattice tables; from the cells it only
// records which lattice positions, under which seeds, the set holds, so
// the caller may reuse them.
func Canonicalizer(cells []Cell) engine.Canonicalizer {
	nm := latticeNames()
	z := &canonicalizer{names: nm}
	z.lats, z.base, z.perSeed = allLattices(nm.cpus)
	s := -1
	for i := range cells {
		k := &cells[i].Display
		pos, ok := nm.locate(*k)
		if !ok {
			continue
		}
		if s < 0 || z.seeds[s] != k.Seed {
			if s = z.seed(k.Seed); s < 0 {
				s = len(z.seeds)
				z.seeds = append(z.seeds, k.Seed)
				z.in = append(z.in, make([]uint64, (MaxCells()+63)/64))
			}
		}
		z.in[s][pos/64] |= 1 << (pos % 64)
		z.span = max(z.span, int32(pos)+1)
	}
	return z
}

// seed returns the index of seed among the set's seeds, or -1.
func (z *canonicalizer) seed(seed uint64) int {
	for s, v := range z.seeds {
		if v == seed {
			return s
		}
	}
	return -1
}

// Slots reports the sizes of the display and class slot spaces.
func (z *canonicalizer) Slots() (displays, classes int) {
	return len(z.seeds) * int(z.span), len(z.seeds) * int(z.perSeed)
}

// Fold returns k's class key and slots when k is a cell of the set.
// Safe for concurrent use.
func (z *canonicalizer) Fold(k engine.Key) (engine.Key, int32, int32, bool) {
	pos, ok := z.names.locate(k)
	if !ok {
		return k, 0, 0, false
	}
	s := z.seed(k.Seed)
	if s < 0 || z.in[s][pos/64]&(1<<(pos%64)) == 0 {
		return k, 0, 0, false
	}
	ci, u := pos/len(z.names.cpus), pos%len(z.names.cpus)
	l := z.lats[u]
	id := l.classOf[ci]
	k.Config = l.configs[id]
	return k, int32(s)*z.span + int32(pos), int32(s)*z.perSeed + z.base[u] + id, true
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
