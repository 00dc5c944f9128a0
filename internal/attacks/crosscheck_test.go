package attacks_test

import (
	"sort"
	"sync"
	"testing"

	"spectrebench/internal/attacks"
	"spectrebench/internal/grid"
	"spectrebench/internal/kernel"
	"spectrebench/internal/model"
)

// overApproximations lists, exactly, the (uarch, attack) pairs where a
// blocking predicate calls some lattice class open while the PoC finds
// it blocked, with the reason the predicate is conservative there. A
// simulated leak is never listed: that is a predicate bug.
var overApproximations = map[[2]string]string{
	// The BTB folds in more branch history than the PoCs' history-fill
	// loops erase, so training never aliases the victim (§6.2).
	{"Zen 3", "spectre-v2-user"}:   "BTB history depth",
	{"Zen 3", "spectre-v2-kernel"}: "BTB history depth",
	// eIBRS parts tag BTB entries by privilege mode even with IBRS
	// clear, so user-mode training cannot steer a kernel branch under
	// any Spectre V2 mode (Table 9's empty user→kernel cells).
	{"Cascade Lake", "spectre-v2-kernel"}:    "mode-tagged BTB",
	{"Ice Lake Client", "spectre-v2-kernel"}: "mode-tagged BTB",
	{"Ice Lake Server", "spectre-v2-kernel"}: "mode-tagged BTB",
}

// TestPredicatesMatchSimulation checks every blocking predicate by
// simulation along the whole boot-parameter lattice: for each (uarch,
// equivalence class) pair of grid.Fold and each taxonomy entry with a
// PoC, it runs the PoC under the class's lowered mitigation set. A leak
// where the effective verdict (invulnerable, or Blocked) says blocked
// fails; a block where the predicate says open must be a listed
// over-approximation, and every listed one must occur.
func TestPredicatesMatchSimulation(t *testing.T) {
	var (
		mu      sync.Mutex
		classes int
		over    = map[[2]string]int{}
	)
	t.Run("uarch", func(t *testing.T) {
		for _, m := range model.All() {
			t.Run(m.Uarch, func(t *testing.T) {
				t.Parallel()
				folded, _ := grid.Fold(m, grid.CombosPerUarch)
				local := map[[2]string]int{}
				for _, cls := range folded {
					for _, a := range attacks.Taxonomy {
						if a.Leaks == nil {
							continue
						}
						leaked, err := a.Leaks(m, cls.Mit)
						if err != nil {
							t.Fatalf("%s under %s: %v", a.ID, cls.Canon, err)
						}
						blocked := !a.Vulnerable(m) || a.Blocked(m, cls.Mit)
						switch {
						case leaked && blocked:
							t.Errorf("%s under %s: simulated leak, predicate says blocked", a.ID, cls.Canon)
						case !leaked && !blocked:
							key := [2]string{m.Uarch, a.ID}
							if _, ok := overApproximations[key]; !ok {
								t.Errorf("%s under %s: simulated block, predicate says open (unlisted)", a.ID, cls.Canon)
							}
							local[key]++
						}
					}
				}
				mu.Lock()
				defer mu.Unlock()
				classes += len(folded)
				for k, n := range local {
					over[k] += n
				}
			})
		}
	})
	if want := 4968; classes != want {
		t.Errorf("checked %d (uarch, class) pairs, want %d", classes, want)
	}
	keys := make([][2]string, 0, len(overApproximations))
	for k := range overApproximations {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i][0]+keys[i][1] < keys[j][0]+keys[j][1] })
	for _, k := range keys {
		if over[k] == 0 {
			t.Errorf("over-approximation %v (%s) never occurs", k, overApproximations[k])
			continue
		}
		t.Logf("%s %s: %d classes blocked by simulation, open by predicate (%s)", k[0], k[1], over[k], overApproximations[k])
	}
}

// TestNoSMTOverApproximation pins the one over-approximation the lattice
// cannot reach, because it never enumerates nosmt: with no sibling
// thread, cross-thread MDS has nothing to sample, yet the mds-smt
// predicate also asks for buffer clearing.
func TestNoSMTOverApproximation(t *testing.T) {
	a, _ := attacks.ByID("mds-smt")
	nosmt := kernel.Mitigations{NoSMT: true}
	for _, m := range model.All() {
		if !a.Vulnerable(m) {
			continue
		}
		leaked, err := a.Leaks(m, nosmt)
		if err != nil {
			t.Fatalf("%s: %v", m.Uarch, err)
		}
		if leaked || a.Blocked(m, nosmt) {
			t.Errorf("%s: nosmt alone: leaked = %v, predicate blocked = %v; want a simulated block the predicate calls open",
				m.Uarch, leaked, a.Blocked(m, nosmt))
		}
	}
}
