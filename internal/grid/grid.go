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
// one simulation. Fold computes that fold per uarch, Cells stamps it
// into every cell's canonical key, and Canonicalizer exposes it to the
// engine.
package grid

import (
	"strings"

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
// token string ("defaults" when nothing is passed).
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

// ComboAt exposes the enumeration to other packages: the boot params
// and display token string for combo index i in [0, CombosPerUarch).
func ComboAt(i int) (kernel.BootParams, string) { return bootParams(i), display(i) }

// Class is one equivalence class of a folded lattice prefix on one
// uarch: every combo whose effective mitigation set equals Mit.
type Class struct {
	Mit kernel.Mitigations
	// Canon is Mit's kernel.CanonicalKey, rendered once per class.
	Canon string
	// First is the first combo index that lowers into the class; Combos
	// counts the combos that do.
	First, Combos int
}

// Fold lowers the first combos lattice combos (at most CombosPerUarch)
// on m through kernel.Defaults + BootParams.Apply and folds them into
// equivalence classes. Classes are keyed by Mitigations.Index through a
// flat table, so the per-combo work builds no string and touches no
// map. It returns the classes in first-seen order and, for each combo,
// the position of its class in that slice.
func Fold(m *model.CPU, combos int) ([]Class, []int32) {
	def := kernel.Defaults(m)
	var slot [kernel.IndexSpace]uint16 // class position + 1; 0 = unseen
	var classes []Class
	classOf := make([]int32, combos)
	for ci := range classOf {
		mit := bootParams(ci).Apply(m, def)
		s := &slot[mit.Index()]
		if *s == 0 {
			classes = append(classes, Class{Mit: mit, Canon: mit.CanonicalKey(), First: ci})
			*s = uint16(len(classes))
		}
		id := int32(*s) - 1
		classes[id].Combos++
		classOf[ci] = id
	}
	return classes, classOf
}

// Cells enumerates the first n grid cells. The order is combo-major
// with the uarchs interleaved inside each combo, so any prefix spreads
// across every uarch (the prefix-locality planner has real work to do)
// and -cells N names the same set at every jobs/plan/dedup setting.
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
	type folded struct {
		classes []Class
		classOf []int32
		canon   []string // per class: "canon|" + Canon
	}
	folds := make([]folded, len(cpus))
	combos := (n + len(cpus) - 1) / len(cpus)
	for u, m := range cpus {
		f := &folds[u]
		f.classes, f.classOf = Fold(m, combos)
		f.canon = make([]string, len(f.classes))
		for id, c := range f.classes {
			f.canon[id] = "canon|" + c.Canon
		}
	}
	out := make([]Cell, 0, n)
	for ci := 0; len(out) < n; ci++ {
		disp := display(ci)
		for u, m := range cpus {
			if len(out) >= n {
				break
			}
			f := &folds[u]
			id := f.classOf[ci]
			out = append(out, Cell{
				Display: engine.Key{Workload: Workload, Uarch: m.Uarch, Config: disp, Seed: seed},
				Canon:   engine.Key{Workload: Workload, Uarch: m.Uarch, Config: f.canon[id], Seed: seed},
				CPU:     m,
				Mit:     f.classes[id].Mit,
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
