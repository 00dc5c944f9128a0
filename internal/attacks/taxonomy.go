// Taxonomy: the attacks × mitigations × uarch blocking predicate the
// config optimizer searches against. Each entry pairs a vulnerability
// test (is this part affected at all, per the model's Table-1 flags)
// with a blocking test (does this effective mitigation set stop it),
// and with the PoC that checks the blocking test by simulation.
// The split follows Canella et al.'s systematisation: Spectre-family
// attacks keyed by the predictor they poison (PHT, BTB same- and
// cross-process, RSB), Meltdown-family by the buffer they sample.
//
// The predicates consult only *model.CPU vulnerability flags and the
// lowered kernel.Mitigations — never raw boot parameters — so two
// boot-param combos in the same canonical class are secure or insecure
// together, which is what lets the optimizer decide security per
// equivalence class instead of per combo.
package attacks

import (
	"fmt"
	"sort"
	"strings"

	"spectrebench/internal/kernel"
	"spectrebench/internal/model"
)

// Attack is one taxonomy entry.
type Attack struct {
	// ID is the stable handle used in -require specs and reports.
	ID string
	// Name is the human-readable attack name.
	Name string
	// Default reports whether the attack is part of the default threat
	// model — the set Linux's own Defaults() auto-selection defends
	// (same-thread MDS, seccomp-scoped SSB). Non-default entries need
	// mitigations no kernel enables by default (nosmt, SSBD-always).
	Default bool
	// Vulnerable reports whether the part is affected at all.
	Vulnerable func(m *model.CPU) bool
	// Blocked reports whether the mitigation set stops the attack on
	// this part. Only meaningful when Vulnerable; the optimizer treats
	// invulnerable parts as blocked for free.
	Blocked func(m *model.CPU, mit kernel.Mitigations) bool
	// Leaks runs the attack's PoC on the part under the mitigation set
	// and reports whether the secret leaked. It reads only the fields
	// Blocked reads, so a simulated leak where Blocked holds is a
	// predicate bug. Nil for the one entry without a PoC (l1tf-vmm).
	Leaks func(m *model.CPU, mit kernel.Mitigations) (bool, error)
}

// Taxonomy lists every attack the optimizer can be asked to block, in
// report order.
var Taxonomy = []Attack{
	{
		ID: "meltdown", Name: "Meltdown (rogue data cache load)", Default: true,
		Vulnerable: func(m *model.CPU) bool { return m.Vulns.Meltdown },
		Blocked:    func(_ *model.CPU, mit kernel.Mitigations) bool { return mit.PTI },
		Leaks:      meltdown,
	},
	{
		ID: "spectre-v1", Name: "Spectre V1 (bounds check bypass)", Default: true,
		Vulnerable: func(m *model.CPU) bool { return m.Vulns.SpectreV1.SpectreV1 },
		Blocked:    func(_ *model.CPU, mit kernel.Mitigations) bool { return mit.SpectreV1 },
		Leaks:      spectreV1,
	},
	{
		ID: "spectre-v2-kernel", Name: "Spectre V2 (branch target injection, user→kernel)", Default: true,
		Vulnerable: func(m *model.CPU) bool { return m.Vulns.SpectreV2 },
		// lfence; call *r (retpoline,amd) does not close the window the
		// poisoned BTB entry opens: it leaks wherever user→kernel
		// training works at all, which is why Linux withdrew it.
		Blocked: func(_ *model.CPU, mit kernel.Mitigations) bool {
			return mit.SpectreV2 != kernel.V2Off && mit.SpectreV2 != kernel.V2RetpolineAMD
		},
		Leaks: spectreV2Kernel,
	},
	{
		ID: "spectre-v2-user", Name: "Spectre V2 (branch target injection, cross-process)", Default: true,
		Vulnerable: func(m *model.CPU) bool { return m.Vulns.SpectreV2 },
		Blocked:    func(_ *model.CPU, mit kernel.Mitigations) bool { return mit.IBPB },
		Leaks:      spectreV2User,
	},
	{
		ID: "spectre-rsb", Name: "Spectre-RSB (return stack underflow/poisoning)", Default: true,
		Vulnerable: func(m *model.CPU) bool { return m.Vulns.SpectreV2 },
		Blocked:    func(_ *model.CPU, mit kernel.Mitigations) bool { return mit.RSBStuff },
		Leaks:      spectreRSB,
	},
	{
		ID: "l1tf", Name: "L1TF / Foreshadow (process side)", Default: true,
		Vulnerable: func(m *model.CPU) bool { return m.Vulns.L1TF },
		Blocked:    func(_ *model.CPU, mit kernel.Mitigations) bool { return mit.PTEInversion },
		Leaks:      l1tf,
	},
	{
		ID: "l1tf-vmm", Name: "L1TF / Foreshadow-VMM (guest side)", Default: true,
		Vulnerable: func(m *model.CPU) bool { return m.Vulns.L1TF },
		Blocked:    func(_ *model.CPU, mit kernel.Mitigations) bool { return mit.L1TFFlushOnVMEntry },
	},
	{
		ID: "mds", Name: "MDS / RIDL (same-thread buffer sampling)", Default: true,
		Vulnerable: func(m *model.CPU) bool { return m.Vulns.MDS },
		Blocked:    func(_ *model.CPU, mit kernel.Mitigations) bool { return mit.MDSClear },
		Leaks: func(m *model.CPU, mit kernel.Mitigations) (bool, error) {
			return mds(m, mit, false)
		},
	},
	{
		ID: "lazyfp", Name: "LazyFP (stale FPU register leak)", Default: true,
		Vulnerable: func(m *model.CPU) bool { return m.Vulns.LazyFPLeak },
		Blocked:    func(_ *model.CPU, mit kernel.Mitigations) bool { return mit.EagerFPU },
		Leaks:      lazyFP,
	},
	{
		ID: "ssb", Name: "Speculative store bypass (seccomp-sandboxed victims)", Default: true,
		Vulnerable: func(m *model.CPU) bool { return m.Vulns.SSB },
		Blocked: func(_ *model.CPU, mit kernel.Mitigations) bool {
			return mit.SSBDSeccomp || mit.SSBDAlways
		},
		Leaks: func(m *model.CPU, mit kernel.Mitigations) (bool, error) {
			return ssb(m, mit, true)
		},
	},
	// Beyond the default threat model: these need mitigations no kernel
	// auto-selects (Table 1's "!" rows), so they are opt-in requirement
	// tokens rather than part of "default".
	{
		ID: "mds-smt", Name: "MDS / RIDL (cross-hyperthread sampling)", Default: false,
		Vulnerable: func(m *model.CPU) bool { return m.Vulns.MDS && m.SMT },
		Blocked: func(_ *model.CPU, mit kernel.Mitigations) bool {
			return mit.MDSClear && mit.NoSMT
		},
		Leaks: func(m *model.CPU, mit kernel.Mitigations) (bool, error) {
			return mds(m, mit, true)
		},
	},
	{
		ID: "ssb-any", Name: "Speculative store bypass (unsandboxed victims)", Default: false,
		Vulnerable: func(m *model.CPU) bool { return m.Vulns.SSB },
		Blocked:    func(_ *model.CPU, mit kernel.Mitigations) bool { return mit.SSBDAlways },
		Leaks: func(m *model.CPU, mit kernel.Mitigations) (bool, error) {
			return ssb(m, mit, false)
		},
	},
}

// ByID returns the taxonomy entry with the given ID.
func ByID(id string) (Attack, bool) {
	for _, a := range Taxonomy {
		if a.ID == id {
			return a, true
		}
	}
	return Attack{}, false
}

// DefaultModel returns the attacks of the default threat model — the
// set kernel.Defaults is meant to block wherever the part is
// vulnerable.
func DefaultModel() []Attack {
	var out []Attack
	for _, a := range Taxonomy {
		if a.Default {
			out = append(out, a)
		}
	}
	return out
}

// IDs returns the attack IDs of a set, sorted, for stable rendering.
func IDs(set []Attack) []string {
	out := make([]string, len(set))
	for i, a := range set {
		out[i] = a.ID
	}
	sort.Strings(out)
	return out
}

// ParseRequirement resolves a comma-separated requirement spec into a
// deduplicated attack set. "default" expands to the default threat
// model, "all" to the whole taxonomy; anything else must be a taxonomy
// ID.
func ParseRequirement(spec string) ([]Attack, error) {
	seen := make(map[string]bool)
	var out []Attack
	add := func(a Attack) {
		if !seen[a.ID] {
			seen[a.ID] = true
			out = append(out, a)
		}
	}
	for _, tok := range strings.Split(spec, ",") {
		tok = strings.TrimSpace(tok)
		switch tok {
		case "":
		case "default":
			for _, a := range DefaultModel() {
				add(a)
			}
		case "all":
			for _, a := range Taxonomy {
				add(a)
			}
		default:
			a, ok := ByID(tok)
			if !ok {
				return nil, fmt.Errorf("unknown attack %q (known: %s, plus \"default\" and \"all\")",
					tok, strings.Join(IDs(Taxonomy), ", "))
			}
			add(a)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty requirement %q", spec)
	}
	return out, nil
}

// Secure reports whether the mitigation set blocks every required
// attack the part is vulnerable to. It stops at the first open attack.
func Secure(m *model.CPU, mit kernel.Mitigations, req []Attack) bool {
	for _, a := range req {
		if a.Vulnerable(m) && !a.Blocked(m, mit) {
			return false
		}
	}
	return true
}
