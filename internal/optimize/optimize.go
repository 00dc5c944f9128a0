// Package optimize finds the cheapest mitigation configuration that
// still blocks a required attack set — the "Beyond Over-Protection"
// experiment — as a search instead of a sweep.
//
// The boot-param × spectre_v2 × SSBD lattice has 21 504 combos per
// uarch, but three structural facts shrink the work the optimizer pays
// for:
//
//  1. Canonical-class folding (once per process). Every combo lowers
//     through kernel.Defaults + BootParams.Apply to an effective
//     Mitigations value; combos with equal effective sets are one
//     equivalence class and one simulation. This is grid's lattice
//     fold, the same one grid.Cells and so every sweep use: classes are
//     found by the packed Mitigations.Index and named by
//     kernel.CanonicalKey, so optimizer cells share memo and store
//     entries with gridbench sweeps. The fold is pure in the uarch, so
//     grid builds it once per process; a search reads the classes of
//     its lattice prefix in Canon order (grid.FoldByCanon) and lowers
//     no combo.
//  2. Security is decided without simulating (free). The attacks
//     taxonomy predicate consults only (uarch, effective mitigations),
//     so every class is classified secure/insecure by pure host-side
//     computation.
//  3. Dominance pruning (the tentpole). Under the partial order
//     defined below, a ≤ b means a enables no costlier mitigation than
//     b in every dimension, and the simulator's cost model is monotone
//     along every compared dimension: each extra mitigation only adds
//     cycles. So if a secure class A satisfies A ≤ B for another
//     secure class B, then cost(A) ≤ cost(B) and B never needs to be
//     evaluated. The optimizer therefore evaluates only the *minimal
//     antichain* (frontier) of secure classes — typically a few dozen
//     out of hundreds per uarch — through engine.SubmitBatch with
//     store-backed memoized costs.
//
// Two dimensions need care:
//
//   - EagerFPU is NOT cost-monotone: eager saving charges 2×Xsave per
//     context switch while lazy switching charges an FP trap only on
//     actual FPU use, so either setting can be cheaper depending on the
//     workload. Classes are comparable only when EagerFPU is equal.
//   - SpectreV2 modes are mutually incomparable (retpoline vs IBRS
//     relative cost is workload-dependent); only "off ≤ any mode"
//     holds. Classes are comparable when the modes are equal or a's
//     mode is off.
//
// Equivalence with the exhaustive baseline is exact, including ties.
// Both searches apply the same dominance-consistent selection rule
// (see pickBest): a secure class strictly dominated by another
// evaluated-OK secure class is ineligible, and the survivors rank by
// (cost, weight, canonical key), where weight counts costly-direction
// dimensions and is strictly monotone under strict dominance. Under
// the fault-free cost model the rule coincides with a plain argmin
// (the dominator is never costlier, and wins cost ties on weight), so
// the brute-force winner is always a frontier element and pruning
// cannot change one output byte. Under fault injection two extra
// mechanisms keep the searches identical: injected faults perturb
// per-cell cycle counts, so the rule's dominance filter stops noise
// from crowning a strictly-over-mitigated class the pruned search
// provably never visits; and when an evaluation errors outright, the
// search runs expansion rounds — re-evaluating the minimal elements of
// the still-unevaluated classes not dominated by any successfully
// evaluated one — until the optimum is again provably covered.
package optimize

import (
	"fmt"
	"sort"
	"strings"

	"spectrebench/internal/attacks"
	"spectrebench/internal/engine"
	"spectrebench/internal/grid"
	"spectrebench/internal/kernel"
	"spectrebench/internal/model"
)

// Leq reports a ≤ b in the dominance order: a enables no costlier
// mitigation than b in every comparable dimension. See the package
// comment for why EagerFPU must match and SpectreV2 modes other than
// off are incomparable.
func Leq(a, b kernel.Mitigations) bool {
	if a.EagerFPU != b.EagerFPU {
		return false
	}
	if a.SpectreV2 != b.SpectreV2 && a.SpectreV2 != kernel.V2Off {
		return false
	}
	pairs := [...][2]bool{
		{a.PTI, b.PTI},
		{a.PTEInversion, b.PTEInversion},
		{a.L1TFFlushOnVMEntry, b.L1TFFlushOnVMEntry},
		{a.SpectreV1, b.SpectreV1},
		{a.IBPB, b.IBPB},
		{a.RSBStuff, b.RSBStuff},
		{a.MDSClear, b.MDSClear},
		{a.SSBDSeccomp, b.SSBDSeccomp},
		{a.SSBDAlways, b.SSBDAlways},
		{a.NoSMT, b.NoSMT},
	}
	for _, p := range pairs {
		if p[0] && !p[1] {
			return false
		}
	}
	return true
}

// Less reports strict dominance: a ≤ b and a ≠ b.
func Less(a, b kernel.Mitigations) bool { return a != b && Leq(a, b) }

// Weight counts the costly-direction dimensions a mitigation set
// enables: the ten monotone bools plus one for any non-off SpectreV2
// mode. EagerFPU is excluded (not cost-monotone). Weight is strictly
// monotone under strict dominance — the property the tie-break
// equivalence proof rests on.
func Weight(m kernel.Mitigations) int {
	w := 0
	for _, b := range [...]bool{
		m.PTI, m.PTEInversion, m.L1TFFlushOnVMEntry, m.SpectreV1,
		m.IBPB, m.RSBStuff, m.MDSClear, m.SSBDSeccomp, m.SSBDAlways,
		m.NoSMT,
	} {
		if b {
			w++
		}
	}
	if m.SpectreV2 != kernel.V2Off {
		w++
	}
	return w
}

// Class is one equivalence class of the lattice on one uarch: every
// boot-param combo whose effective mitigation set equals Mit.
type Class struct {
	// Canon is the kernel.CanonicalKey of the effective set — the
	// engine/store identity (prefixed "canon|" in cell keys).
	Canon string `json:"canon"`
	// Display is the boot-param token string of the first combo that
	// lowers into this class, as a human-readable representative.
	Display string             `json:"display"`
	Mit     kernel.Mitigations `json:"-"`
	// Combos counts lattice combos folding into this class.
	Combos int  `json:"combos"`
	Weight int  `json:"weight"`
	Secure bool `json:"secure"`
	// Open lists the required attack IDs the class leaves unblocked
	// (empty when Secure).
	Open []string `json:"open,omitempty"`
}

// Evaluated is a class with its measured cost.
type Evaluated struct {
	Class
	// Cost is the objective: the sum of cycle costs across the selected
	// workloads.
	Cost float64 `json:"cost"`
	// PerWorkload breaks Cost down by workload name.
	PerWorkload map[string]float64 `json:"per_workload"`
}

// Better reports whether e is preferred over o under the total
// preference order (cost, weight, canonical key).
func (e *Evaluated) Better(o *Evaluated) bool {
	if o == nil {
		return true
	}
	if e.Cost != o.Cost {
		return e.Cost < o.Cost
	}
	if e.Weight != o.Weight {
		return e.Weight < o.Weight
	}
	return e.Canon < o.Canon
}

// Counters reports how much of the lattice the search touched.
type Counters struct {
	// Examined is the number of lattice combos folded (the full
	// per-uarch combo count × uarchs at full scale).
	Examined int `json:"examined"`
	// Classes is the number of distinct equivalence classes.
	Classes int `json:"classes"`
	// Secure is the number of classes blocking every required attack.
	Secure int `json:"secure"`
	// Evaluated is the number of secure classes whose cost was
	// measured; Pruned = Secure - Evaluated were skipped as dominated.
	Evaluated int `json:"evaluated"`
	Pruned    int `json:"pruned"`
	// Errored counts evaluations that failed (fault injection).
	Errored int `json:"errored"`
	// Rounds is the number of frontier/expansion batches submitted.
	Rounds int `json:"rounds"`
}

func (c *Counters) add(o Counters) {
	c.Examined += o.Examined
	c.Classes += o.Classes
	c.Secure += o.Secure
	c.Evaluated += o.Evaluated
	c.Pruned += o.Pruned
	c.Errored += o.Errored
	if o.Rounds > c.Rounds {
		c.Rounds = o.Rounds
	}
}

// UarchResult is the per-uarch outcome.
type UarchResult struct {
	Uarch string `json:"uarch"`
	// Best is the cheapest secure configuration, nil when the
	// requirement is unsatisfiable inside the lattice (or every secure
	// evaluation errored).
	Best *Evaluated `json:"best,omitempty"`
	// DefaultsCost / BaselineCost are the costs of kernel.Defaults
	// auto-selection and of mitigations=off, the endpoints the
	// recovered-overhead figure is computed against. Nil when the
	// reference evaluation errored.
	DefaultsCost *float64 `json:"defaults_cost,omitempty"`
	BaselineCost *float64 `json:"baseline_cost,omitempty"`
	// OverheadDefaultsPct / OverheadBestPct are the mitigation
	// overheads of Defaults and Best over the mitigations=off baseline.
	OverheadDefaultsPct *float64 `json:"overhead_defaults_pct,omitempty"`
	OverheadBestPct     *float64 `json:"overhead_best_pct,omitempty"`
	// RecoveredPct = 100·(defaults - best)/(defaults - baseline): the
	// share of the default configuration's mitigation overhead the
	// optimizer recovered while staying secure. Nil when undefined
	// (references errored, or defaults has no measurable overhead).
	RecoveredPct *float64 `json:"recovered_pct,omitempty"`
	Counters     Counters `json:"counters"`
	// Errors lists evaluation failures as "canon-key: error", sorted.
	Errors []string `json:"errors,omitempty"`
}

// Options configures a search.
type Options struct {
	// Require is the attack set to block (default: the default threat
	// model).
	Require []attacks.Attack
	// Workloads are the cost objectives (default: the grid default
	// workload). The objective is the sum of their cycle costs; a
	// workload named twice counts once.
	Workloads []grid.WorkloadSpec
	// Uarchs restricts the search to these models of model.All()
	// (default: all of them). A model named twice is searched once.
	Uarchs []*model.CPU
	// Combos restricts the lattice to the first n combos per uarch
	// (default/0: the full grid.CombosPerUarch) — the reduced-lattice
	// hook the equivalence tests use.
	Combos int
	// Prune enables dominance pruning; false is the exhaustive
	// baseline the equivalence tests compare against. NOTE: the zero
	// value means brute force; the CLI and the server always set
	// Prune: true.
	Prune bool
	// Seed is stamped into cell keys (nonzero only under fault
	// injection), keeping fault-run cells distinct in memo and store.
	Seed uint64
}

// Result is the full search outcome.
type Result struct {
	Require   []string      `json:"require"`
	Workloads []string      `json:"workloads"`
	Prune     bool          `json:"prune"`
	Combos    int           `json:"combos_per_uarch"`
	Seed      uint64        `json:"seed,omitempty"`
	PerUarch  []UarchResult `json:"per_uarch"`
	Totals    Counters      `json:"totals"`
	// Engine is the engine counter delta attributed to this search:
	// Simulated cells actually executed, SecondLevelHits replayed from
	// the store.
	Engine engine.StatsDetail `json:"engine"`
	// SweepCells is what the exhaustive deduped sweep would have
	// simulated/replayed at the same lattice size: classes × workloads,
	// summed over uarchs. The headline speedup is SweepCells /
	// (Engine.Simulated + Engine.SecondLevelHits).
	SweepCells int `json:"sweep_cells"`
}

// ustate is the per-uarch search state.
type ustate struct {
	cpu     *model.CPU
	classes []*Class // all lattice classes, sorted by Canon
	secure  []*Class // secure lattice classes, sorted by Canon
	// defaults/baseline are the reporting reference classes (always
	// evaluated; they may or may not appear in a reduced lattice).
	defaults, baseline *Class
	evalOK             map[string]*Evaluated
	evalErr            map[string]error
	counters           Counters
}

// buildState classifies every class of the lattice prefix for one
// uarch. The fold itself is grid's per-process memo.
func buildState(m *model.CPU, combos int, require []attacks.Attack) *ustate {
	st := &ustate{
		cpu:     m,
		evalOK:  make(map[string]*Evaluated),
		evalErr: make(map[string]error),
	}
	folded := grid.FoldByCanon(m, combos)
	classes := make([]Class, len(folded))
	st.classes = make([]*Class, len(folded))
	for i, f := range folded {
		c := &classes[i]
		*c = Class{Canon: f.Canon, Display: f.Display, Mit: f.Mit, Combos: f.Combos, Weight: Weight(f.Mit)}
		c.Secure, c.Open = attacks.Secure(m, f.Mit, require)
		st.classes[i] = c
		if c.Secure {
			st.secure = append(st.secure, c)
		}
	}
	def := kernel.Defaults(m)
	st.defaults = st.ensureClass(def, "defaults", require)
	st.baseline = st.ensureClass(
		kernel.BootParams{MitigationsOff: true}.Apply(m, def), "mitigations=off", require)
	st.counters = Counters{Examined: combos, Classes: len(st.classes), Secure: len(st.secure)}
	return st
}

// ensureClass returns the lattice class for mit, or a detached
// reference class when the reduced lattice does not contain it.
func (st *ustate) ensureClass(mit kernel.Mitigations, display string, require []attacks.Attack) *Class {
	for _, c := range st.classes {
		if c.Mit == mit {
			return c
		}
	}
	c := &Class{Canon: mit.CanonicalKey(), Display: display, Mit: mit, Weight: Weight(mit)}
	c.Secure, c.Open = attacks.Secure(st.cpu, mit, require)
	return c
}

// candidates returns the classes to evaluate this round: the minimal
// elements (under dominance) of the secure classes that are not yet
// evaluated and not dominated by an already-OK evaluation. With
// pruning off it returns every unevaluated secure class at once.
func (st *ustate) candidates(prune bool) []*Class {
	var live []*Class
	for _, c := range st.secure {
		if _, ok := st.evalOK[c.Canon]; ok {
			continue
		}
		if _, ok := st.evalErr[c.Canon]; ok {
			continue
		}
		if !prune {
			live = append(live, c)
			continue
		}
		covered := false
		for _, e := range st.evalOK {
			if e.Secure && Less(e.Mit, c.Mit) {
				covered = true
				break
			}
		}
		if !covered {
			live = append(live, c)
		}
	}
	if !prune {
		return live
	}
	var frontier []*Class
	for _, c := range live {
		minimal := true
		for _, o := range live {
			if o != c && Less(o.Mit, c.Mit) {
				minimal = false
				break
			}
		}
		if minimal {
			frontier = append(frontier, c)
		}
	}
	return frontier
}

// evalUnit is one (uarch, class) evaluation across all workloads.
type evalUnit struct {
	st    *ustate
	class *Class
	tasks []*engine.Task
}

// Search runs the optimizer on the given engine. The caller owns fault
// activation: cells inherit it from the simscope the caller entered
// (a scope whose Fault is a faultinject.NewActivation), exactly as
// with engine.Submit-based experiments.
func Search(eng *engine.Engine, opts Options) (*Result, error) {
	require := opts.Require
	if len(require) == 0 {
		require = attacks.DefaultModel()
	}
	// A uarch or workload named twice is searched and costed once.
	workloads := uniq(opts.Workloads, func(w grid.WorkloadSpec) string { return w.Name })
	if len(workloads) == 0 {
		workloads = []grid.WorkloadSpec{grid.DefaultWorkload()}
	}
	uarchs := uniq(opts.Uarchs, func(m *model.CPU) *model.CPU { return m })
	if len(uarchs) == 0 {
		uarchs = model.All()
	}
	combos := opts.Combos
	if combos <= 0 || combos > grid.CombosPerUarch {
		combos = grid.CombosPerUarch
	}

	sd0 := eng.StatsDetail()
	states := make([]*ustate, len(uarchs))
	for i, m := range uarchs {
		states[i] = buildState(m, combos, require)
	}

	// Evaluation rounds, all uarchs in lockstep so each round is one
	// SubmitBatch. Round 1 additionally evaluates the defaults and
	// baseline reference classes. Rounds after the first only happen
	// when an evaluation errored under fault injection (expansion).
	rounds := 0
	for {
		var units []*evalUnit
		for _, st := range states {
			cands := st.candidates(opts.Prune)
			if rounds == 0 {
				cands = appendRefs(cands, st)
			}
			for _, c := range cands {
				units = append(units, &evalUnit{st: st, class: c})
			}
		}
		if len(units) == 0 {
			break
		}
		rounds++
		var batch []engine.BatchCell
		for _, u := range units {
			mit, cpu := u.class.Mit, u.st.cpu
			for _, w := range workloads {
				run := w.Run
				batch = append(batch, engine.BatchCell{
					Key: engine.Key{
						Workload: w.Name,
						Uarch:    cpu.Uarch,
						Config:   "canon|" + u.class.Canon,
						Seed:     opts.Seed,
					},
					Fn: func() (any, error) { return run(cpu, mit) },
				})
			}
		}
		tasks := eng.SubmitBatch(batch)
		for i, u := range units {
			u.tasks = tasks[i*len(workloads) : (i+1)*len(workloads)]
		}
		for _, u := range units {
			ev := &Evaluated{Class: *u.class, PerWorkload: make(map[string]float64, len(workloads))}
			var err error
			for wi, t := range u.tasks {
				v, werr := t.Wait()
				if werr != nil {
					err = fmt.Errorf("%s: %w", workloads[wi].Name, werr)
					break
				}
				cyc := v.(float64)
				ev.PerWorkload[workloads[wi].Name] = cyc
				ev.Cost += cyc
			}
			st := u.st
			if _, dup := st.evalOK[u.class.Canon]; dup {
				continue // reference class coincided with a frontier class
			}
			if _, dup := st.evalErr[u.class.Canon]; dup {
				continue
			}
			if u.class.Secure {
				st.counters.Evaluated++
			}
			if err != nil {
				st.evalErr[u.class.Canon] = err
				st.counters.Errored++
			} else {
				st.evalOK[u.class.Canon] = ev
			}
		}
	}

	res := &Result{
		Require: attacks.IDs(require),
		Prune:   opts.Prune,
		Combos:  combos,
		Seed:    opts.Seed,
		Engine:  eng.StatsDetail().Sub(sd0),
	}
	for _, w := range workloads {
		res.Workloads = append(res.Workloads, w.Name)
	}
	for _, st := range states {
		st.counters.Pruned = st.counters.Secure - st.counters.Evaluated
		st.counters.Rounds = rounds
		ur := UarchResult{Uarch: st.cpu.Uarch, Counters: st.counters}
		best := st.pickBest()
		ur.Best = best
		if d, ok := st.evalOK[st.defaults.Canon]; ok {
			ur.DefaultsCost = f64p(d.Cost)
			if b, ok := st.evalOK[st.baseline.Canon]; ok {
				ur.BaselineCost = f64p(b.Cost)
				if b.Cost > 0 {
					ur.OverheadDefaultsPct = f64p(100 * (d.Cost - b.Cost) / b.Cost)
					if best != nil {
						ur.OverheadBestPct = f64p(100 * (best.Cost - b.Cost) / b.Cost)
					}
				}
				if best != nil && d.Cost != b.Cost {
					ur.RecoveredPct = f64p(100 * (d.Cost - best.Cost) / (d.Cost - b.Cost))
				}
			}
		}
		for ck, err := range st.evalErr {
			ur.Errors = append(ur.Errors, ck+": "+err.Error())
		}
		sort.Strings(ur.Errors)
		res.PerUarch = append(res.PerUarch, ur)
		res.Totals.add(st.counters)
		res.SweepCells += st.counters.Classes * len(workloads)
	}
	return res, nil
}

// pickBest applies the dominance-consistent selection rule: among the
// successfully evaluated secure classes, only those not strictly
// dominated by another evaluated-OK secure class are eligible, and the
// eligible class with the best (cost, weight, canonical key) wins.
//
// Filtering dominated classes out of the *selection* (not just the
// evaluation schedule) is what keeps pruned and brute-force results
// byte-identical even under fault injection: injected faults perturb
// per-cell cycle counts, so a strictly-more-mitigated class can
// measure marginally cheaper than its subset — and the brute sweep,
// which evaluates it, must not crown a winner the pruned search
// provably never needs to visit. Semantically the rule says noise can
// never talk the optimizer into enabling extra mitigations; under the
// fault-free monotone cost model it coincides with a plain argmin.
func (st *ustate) pickBest() *Evaluated {
	var best *Evaluated
	for _, c := range st.secure {
		e, ok := st.evalOK[c.Canon]
		if !ok {
			continue
		}
		dominated := false
		for _, o := range st.secure {
			if oe, ok := st.evalOK[o.Canon]; ok && Less(oe.Mit, e.Mit) {
				dominated = true
				break
			}
		}
		if !dominated && e.Better(best) {
			best = e
		}
	}
	return best
}

// appendRefs adds the defaults/baseline reference classes to a
// candidate list unless already present.
func appendRefs(cands []*Class, st *ustate) []*Class {
	for _, ref := range []*Class{st.defaults, st.baseline} {
		dup := false
		for _, c := range cands {
			if c.Canon == ref.Canon {
				dup = true
				break
			}
		}
		if !dup {
			cands = append(cands, ref)
		}
	}
	return cands
}

func f64p(v float64) *float64 { return &v }

// uniq returns xs in order without the elements whose key an earlier
// element already had.
func uniq[T any, K comparable](xs []T, key func(T) K) []T {
	seen := make(map[K]bool, len(xs))
	var out []T
	for _, x := range xs {
		if k := key(x); !seen[k] {
			seen[k] = true
			out = append(out, x)
		}
	}
	return out
}

// SelectUarchs resolves uarch names (exact model.CPU Uarch strings)
// into models; an empty list means every model. Shared by the CLI flag
// and the HTTP request field.
func SelectUarchs(names []string) ([]*model.CPU, error) {
	if len(names) == 0 {
		return nil, nil
	}
	out := make([]*model.CPU, 0, len(names))
	for _, n := range names {
		m := model.ByName(n)
		if m == nil {
			return nil, fmt.Errorf("unknown uarch %q (known: %s)", n, strings.Join(model.Names(), ", "))
		}
		out = append(out, m)
	}
	return out, nil
}
