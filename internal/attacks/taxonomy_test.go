package attacks

import (
	"strings"
	"testing"

	"spectrebench/internal/kernel"
	"spectrebench/internal/model"
)

// defaultsLeaveOpen lists, exactly, the (uarch, attack) pairs of the
// default threat model that kernel.Defaults leaves open on a vulnerable
// part, with the reason.
var defaultsLeaveOpen = map[[2]string]string{
	// The paper-era AMD default is spectre_v2=retpoline,amd, whose
	// lfence; call does not close the poisoned-BTB window; Linux
	// 5.15.28 switched these parts to generic retpolines (§5.3).
	{"Zen", "spectre-v2-kernel"}:   "retpoline,amd default",
	{"Zen 2", "spectre-v2-kernel"}: "retpoline,amd default",
	{"Zen 3", "spectre-v2-kernel"}: "retpoline,amd default",
}

// TestDefaultsBlockDefaultModel asserts, for every simulated uarch,
// that the kernel's Defaults auto-selection blocks every default-model
// attack the model marks the part vulnerable to, except exactly the
// pairs defaultsLeaveOpen names. This is the predicate/model drift
// tripwire: a new vulnerability flag without a matching default
// mitigation (or vice versa) fails here.
func TestDefaultsBlockDefaultModel(t *testing.T) {
	hit := map[[2]string]bool{}
	for _, m := range model.All() {
		mit := kernel.Defaults(m)
		wantSecure := true
		for _, a := range DefaultModel() {
			if !a.Vulnerable(m) {
				continue
			}
			key := [2]string{m.Uarch, a.ID}
			_, listed := defaultsLeaveOpen[key]
			if listed {
				wantSecure = false
			}
			if open := !a.Blocked(m, mit); open != listed {
				t.Errorf("%s: Defaults leaves %s open = %v, listed = %v", m.Uarch, a.ID, open, listed)
			}
			hit[key] = true
		}
		if ok := Secure(m, mit, DefaultModel()); ok != wantSecure {
			t.Errorf("%s: Secure(Defaults, default model) = %v, want %v", m.Uarch, ok, wantSecure)
		}
	}
	for key := range defaultsLeaveOpen {
		if !hit[key] {
			t.Errorf("defaultsLeaveOpen lists %v, which is not a vulnerable default-model pair", key)
		}
	}
}

// TestNoMitigationsBlocksNothing asserts the zero mitigation set blocks
// no attack on any vulnerable part.
func TestNoMitigationsBlocksNothing(t *testing.T) {
	for _, m := range model.All() {
		for _, a := range Taxonomy {
			if !a.Vulnerable(m) {
				continue
			}
			if a.Blocked(m, kernel.Mitigations{}) {
				t.Errorf("%s: zero mitigation set claims to block %s", m.Uarch, a.ID)
			}
		}
	}
}

// TestMitigationsOffBlocksOnlyLazyFP pins the mitigations=off lowering:
// Apply deliberately keeps eager FPU (it is not a "mitigation" casualty
// on Linux), so lazyfp stays blocked while everything else opens up.
func TestMitigationsOffBlocksOnlyLazyFP(t *testing.T) {
	bp := kernel.BootParams{MitigationsOff: true}
	for _, m := range model.All() {
		mit := bp.Apply(m, kernel.Defaults(m))
		for _, a := range Taxonomy {
			if !a.Vulnerable(m) {
				continue
			}
			blocked := a.Blocked(m, mit)
			if a.ID == "lazyfp" {
				if !blocked {
					t.Errorf("%s: mitigations=off should keep eager FPU and block lazyfp", m.Uarch)
				}
				continue
			}
			if blocked {
				t.Errorf("%s: mitigations=off still blocks %s", m.Uarch, a.ID)
			}
		}
	}
}

// TestBeyondDefaultAttacksNeedExtraMitigations asserts the non-default
// entries are genuinely beyond the auto-selection: wherever a part is
// vulnerable, Defaults alone leaves them open.
func TestBeyondDefaultAttacksNeedExtraMitigations(t *testing.T) {
	anyVulnerable := false
	for _, m := range model.All() {
		mit := kernel.Defaults(m)
		for _, a := range Taxonomy {
			if a.Default || !a.Vulnerable(m) {
				continue
			}
			anyVulnerable = true
			if a.Blocked(m, mit) {
				t.Errorf("%s: %s marked beyond-default but Defaults blocks it", m.Uarch, a.ID)
			}
		}
	}
	if !anyVulnerable {
		t.Fatal("no part vulnerable to any beyond-default attack; matrix degenerate")
	}
}

func TestParseRequirement(t *testing.T) {
	def, err := ParseRequirement("default")
	if err != nil {
		t.Fatal(err)
	}
	if len(def) != len(DefaultModel()) {
		t.Fatalf("default expanded to %d attacks, want %d", len(def), len(DefaultModel()))
	}
	all, err := ParseRequirement("all")
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != len(Taxonomy) {
		t.Fatalf("all expanded to %d attacks, want %d", len(all), len(Taxonomy))
	}
	dup, err := ParseRequirement("meltdown, default,meltdown")
	if err != nil {
		t.Fatal(err)
	}
	if len(dup) != len(DefaultModel()) {
		t.Fatalf("deduplicated spec expanded to %d attacks, want %d", len(dup), len(DefaultModel()))
	}
	if _, err := ParseRequirement("meltdownn"); err == nil {
		t.Fatal("expected error for unknown attack ID")
	}
	if _, err := ParseRequirement(" , "); err == nil {
		t.Fatal("expected error for empty requirement")
	}
}

// FuzzParseRequirement: parsing never panics; an accepted spec is a
// non-empty, duplicate-free set of taxonomy IDs, and re-parsing its
// rendering yields the same set.
func FuzzParseRequirement(f *testing.F) {
	for _, seed := range []string{
		"default", "all", "meltdown, default,meltdown", "mds-smt,ssb-any",
		"", " , ", "meltdownn", "default,,all", "\x00", "spectre-v1,spectre-v1",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		out, err := ParseRequirement(spec)
		if err != nil {
			return
		}
		if len(out) == 0 {
			t.Fatalf("%q: accepted as an empty set", spec)
		}
		seen := map[string]bool{}
		for _, a := range out {
			if _, ok := ByID(a.ID); !ok {
				t.Fatalf("%q: %q is not a taxonomy ID", spec, a.ID)
			}
			if seen[a.ID] {
				t.Fatalf("%q: %q listed twice", spec, a.ID)
			}
			seen[a.ID] = true
		}
		ids := IDs(out)
		again, err := ParseRequirement(strings.Join(ids, ","))
		if err != nil {
			t.Fatalf("%q: re-parsing %v: %v", spec, ids, err)
		}
		if got := strings.Join(IDs(again), ","); got != strings.Join(ids, ",") {
			t.Fatalf("%q: re-parse gave %s, want %s", spec, got, strings.Join(ids, ","))
		}
	})
}
