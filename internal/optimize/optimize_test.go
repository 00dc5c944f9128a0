package optimize

import (
	"encoding/json"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"spectrebench/internal/attacks"
	"spectrebench/internal/engine"
	"spectrebench/internal/faultinject"
	"spectrebench/internal/grid"
	"spectrebench/internal/kernel"
	"spectrebench/internal/model"
	"spectrebench/internal/simscope"
)

// reducedUarchs is the equivalence-matrix pair: one Intel part with the
// full Table-1 mitigation load and one AMD part with a different
// support profile.
func reducedUarchs(t *testing.T) []*model.CPU {
	t.Helper()
	var intel, amd *model.CPU
	for _, m := range model.All() {
		switch m.Uarch {
		case "Skylake Client":
			intel = m
		case "Zen 2":
			amd = m
		}
	}
	if intel == nil || amd == nil {
		t.Fatal("expected Skylake Client and Zen 2 in model.All()")
	}
	return []*model.CPU{intel, amd}
}

// reducedCombos covers every spectre_v2 × SSBD value and the first
// handful of flag patterns — a few hundred combos, minutes of lattice,
// milliseconds of search.
const reducedCombos = 336 // 16 flag patterns × 7 v2 values × 3 ssbd modes

func runSearch(t *testing.T, prune bool, seed uint64, jobs int) *Result {
	t.Helper()
	eng := engine.New(jobs)
	defer eng.Close()
	res, err := Search(eng, Options{
		Workloads: []grid.WorkloadSpec{grid.DefaultWorkload()},
		Uarchs:    reducedUarchs(t),
		Combos:    reducedCombos,
		Prune:     prune,
		Seed:      seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// assertSameOptima asserts the pruned and brute-force searches agree
// byte-for-byte on everything the report prints: best class, costs,
// references, recovered overhead.
func assertSameOptima(t *testing.T, pruned, brute *Result) {
	t.Helper()
	if len(pruned.PerUarch) != len(brute.PerUarch) {
		t.Fatalf("uarch count mismatch: %d vs %d", len(pruned.PerUarch), len(brute.PerUarch))
	}
	for i := range pruned.PerUarch {
		p, b := pruned.PerUarch[i], brute.PerUarch[i]
		if p.Uarch != b.Uarch {
			t.Fatalf("uarch order mismatch: %s vs %s", p.Uarch, b.Uarch)
		}
		if !reflect.DeepEqual(p.Best, b.Best) {
			pj, _ := json.Marshal(p.Best)
			bj, _ := json.Marshal(b.Best)
			t.Errorf("%s: best mismatch:\n pruned: %s\n brute:  %s", p.Uarch, pj, bj)
		}
		for name, pv := range map[string]*float64{
			"defaults":  p.DefaultsCost,
			"baseline":  p.BaselineCost,
			"recovered": p.RecoveredPct,
		} {
			bv := map[string]*float64{
				"defaults":  b.DefaultsCost,
				"baseline":  b.BaselineCost,
				"recovered": b.RecoveredPct,
			}[name]
			if (pv == nil) != (bv == nil) || (pv != nil && *pv != *bv) {
				t.Errorf("%s: %s cost mismatch: %v vs %v", p.Uarch, name, pv, bv)
			}
		}
	}
}

// TestPrunedMatchesBruteForce is the exhaustive-equivalence gate: on
// the reduced lattice the dominance-pruned search must return
// byte-identical optima and costs to the brute-force sweep of every
// secure class, while evaluating strictly fewer classes.
func TestPrunedMatchesBruteForce(t *testing.T) {
	pruned := runSearch(t, true, 0, 4)
	brute := runSearch(t, false, 0, 4)
	assertSameOptima(t, pruned, brute)
	if pruned.Totals.Evaluated >= brute.Totals.Evaluated {
		t.Errorf("pruning evaluated %d classes, brute force %d — no pruning happened",
			pruned.Totals.Evaluated, brute.Totals.Evaluated)
	}
	if pruned.Totals.Pruned == 0 {
		t.Error("pruned counter is zero")
	}
	for _, u := range pruned.PerUarch {
		if u.Best == nil {
			t.Errorf("%s: no secure optimum found on the reduced lattice", u.Uarch)
			continue
		}
		if u.RecoveredPct == nil {
			t.Errorf("%s: recovered overhead missing", u.Uarch)
		}
	}
}

// TestPrunedMatchesBruteForceUnderFaults repeats the equivalence gate
// with fault injection active: errored frontier evaluations must
// trigger expansion rounds until the surviving optimum matches brute
// force exactly.
func TestPrunedMatchesBruteForceUnderFaults(t *testing.T) {
	const seed = 20260808
	run := func(prune bool) *Result {
		restore := simscope.Enter(&simscope.Scope{Fault: faultinject.NewActivation(faultinject.Config{})})
		defer restore()
		return runSearch(t, prune, seed, 4)
	}
	pruned := run(true)
	brute := run(false)
	assertSameOptima(t, pruned, brute)
	if pruned.Totals.Errored > 0 && pruned.Totals.Rounds < 2 {
		t.Errorf("evaluations errored but no expansion round ran (rounds=%d)", pruned.Totals.Rounds)
	}
}

// TestErrorExpansionMatchesBruteForce forces evaluation errors with a
// deterministic flaky workload (fault-point rates alone rarely push a
// getpid cell over an error threshold) and asserts the pruned search's
// expansion rounds recover the exact brute-force optimum. The workload
// fails every class that does not force SSBD everywhere: the frontier's
// minimal classes never do, so every first-round frontier evaluation
// errors and the optimum lies among their SSBD-always supersets.
func TestErrorExpansionMatchesBruteForce(t *testing.T) {
	flaky := grid.DefaultWorkload()
	inner := flaky.Run
	flaky.Run = func(m *model.CPU, mit kernel.Mitigations) (float64, error) {
		if !mit.SSBDAlways {
			return 0, fmt.Errorf("injected failure for class %s", mit.CanonicalKey())
		}
		return inner(m, mit)
	}
	run := func(prune bool) *Result {
		eng := engine.New(4)
		defer eng.Close()
		res, err := Search(eng, Options{
			Workloads: []grid.WorkloadSpec{flaky},
			Uarchs:    reducedUarchs(t),
			Combos:    reducedCombos,
			Prune:     prune,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	pruned := run(true)
	brute := run(false)
	assertSameOptima(t, pruned, brute)
	if brute.Totals.Errored == 0 {
		t.Fatal("flaky predicate hit no classes; test is vacuous")
	}
	if pruned.Totals.Errored == 0 {
		t.Fatal("no frontier evaluation errored; expansion path untested")
	}
	if pruned.Totals.Rounds < 2 {
		t.Errorf("frontier evaluations errored but rounds=%d", pruned.Totals.Rounds)
	}
	for _, u := range pruned.PerUarch {
		if u.Best == nil {
			t.Errorf("%s: expansion failed to recover an optimum", u.Uarch)
		}
	}
}

// TestSearchDeterministicAcrossJobs asserts the whole result — optima,
// costs, counters — is independent of worker count.
func TestSearchDeterministicAcrossJobs(t *testing.T) {
	a := runSearch(t, true, 0, 1)
	b := runSearch(t, true, 0, 8)
	aj, _ := json.Marshal(a)
	bj, _ := json.Marshal(b)
	if string(aj) != string(bj) {
		t.Fatalf("results differ between -jobs 1 and -jobs 8:\n%s\n%s", aj, bj)
	}
}

// TestFullLatticeFrontierIsSmall checks the structural 10x claim
// without simulating: on the full 21504-combo lattice, for every
// uarch, the secure frontier the pruned search would evaluate is at
// least 10x smaller than the class count a full deduped sweep
// simulates.
func TestFullLatticeFrontierIsSmall(t *testing.T) {
	for _, m := range model.All() {
		st := buildState(m, grid.CombosPerUarch, attacks.DefaultModel())
		frontier := st.candidates(true)
		evals := len(appendRefs(frontier, st))
		if evals*10 > len(st.classes) {
			t.Errorf("%s: frontier %d (+refs) vs %d classes — less than 10x",
				m.Uarch, evals, len(st.classes))
		}
		if len(frontier) == 0 {
			t.Errorf("%s: empty frontier", m.Uarch)
		}
	}
}

// TestDominanceOrder pins the partial order's contracts.
func TestDominanceOrder(t *testing.T) {
	off := kernel.Mitigations{EagerFPU: true}
	var m *model.CPU
	for _, c := range model.All() {
		if c.Uarch == "Skylake Client" {
			m = c
		}
	}
	full := kernel.Defaults(m)
	if !Leq(off, full) || Leq(full, off) {
		t.Fatal("mitigations=off must strictly dominate Defaults")
	}
	if !Leq(full, full) {
		t.Fatal("Leq must be reflexive")
	}
	lazy := full
	lazy.EagerFPU = false
	if Leq(lazy, full) || Leq(full, lazy) {
		t.Fatal("EagerFPU settings must be incomparable")
	}
	ibrs, ret := full, full
	ibrs.SpectreV2 = kernel.V2IBRS
	ret.SpectreV2 = kernel.V2RetpolineGeneric
	if Leq(ibrs, ret) || Leq(ret, ibrs) {
		t.Fatal("distinct non-off SpectreV2 modes must be incomparable")
	}
	// Weight strict monotonicity over a random-ish walk of the space.
	base := kernel.Mitigations{EagerFPU: true, SpectreV1: true}
	step := base
	step.PTI = true
	if !Less(base, step) || Weight(base) >= Weight(step) {
		t.Fatal("weight must strictly increase along strict dominance")
	}
}

// TestSearchSharedEngineReplays asserts a second search on the same
// engine re-derives every cost from the memo (zero new simulations) —
// the property that makes optimizer runs free-riders on sweep stores.
func TestSearchSharedEngineReplays(t *testing.T) {
	eng := engine.New(2)
	defer eng.Close()
	opts := Options{
		Workloads: []grid.WorkloadSpec{grid.DefaultWorkload()},
		Uarchs:    reducedUarchs(t),
		Combos:    reducedCombos,
		Prune:     true,
	}
	first, err := Search(eng, opts)
	if err != nil {
		t.Fatal(err)
	}
	second, err := Search(eng, opts)
	if err != nil {
		t.Fatal(err)
	}
	if first.Engine.Simulated == 0 {
		t.Fatal("first search simulated nothing")
	}
	if second.Engine.Simulated != 0 {
		t.Fatalf("second search simulated %d cells; want 0 (memo hits)", second.Engine.Simulated)
	}
	if second.PerUarch[0].Best.Cost != first.PerUarch[0].Best.Cost {
		t.Fatal("memo replay changed the optimum cost")
	}
}

// TestSearchConcurrentCombos: searches of different lattice prefixes
// running at once on one engine give what each gives alone on a fresh
// engine. The engine counters are left out: concurrent searches share
// the memo, so which of them simulates a shared cell is a race.
func TestSearchConcurrentCombos(t *testing.T) {
	combos := []int{1, 21, reducedCombos, 3000, 12345, grid.CombosPerUarch}
	search := func(eng *engine.Engine, n int) string {
		res, err := Search(eng, Options{Combos: n, Prune: true})
		if err != nil {
			t.Error(err)
			return ""
		}
		res.Engine = engine.StatsDetail{}
		j, _ := json.Marshal(res)
		return string(j)
	}
	want := make([]string, len(combos))
	for i, n := range combos {
		eng := engine.New(2)
		want[i] = search(eng, n)
		eng.Close()
	}
	eng := engine.New(4)
	defer eng.Close()
	got := make([]string, 2*len(combos))
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = search(eng, combos[i%len(combos)])
		}()
	}
	wg.Wait()
	for i, g := range got {
		if w := want[i%len(combos)]; g != w {
			t.Errorf("combos=%d: concurrent search differs from the serial one:\n got  %s\n want %s", combos[i%len(combos)], g, w)
		}
	}
}
