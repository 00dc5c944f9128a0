// Package kernel implements a simulated Linux-like operating system on
// top of the cpu core: processes, scheduling, a syscall interface whose
// entry/exit stubs are real simulated code, and — centrally for this
// reproduction — the transient-execution mitigation machinery with the
// same defaults and boot-parameter toggles the paper measures.
package kernel

import (
	"fmt"

	"spectrebench/internal/model"
)

// SpectreV2Mode selects the kernel's indirect-branch protection strategy.
type SpectreV2Mode int

// Spectre V2 kernel mitigation modes (Linux spectre_v2= values).
const (
	// V2Off leaves kernel indirect branches unprotected.
	V2Off SpectreV2Mode = iota
	// V2RetpolineGeneric replaces indirect branches with the
	// call/overwrite/ret retpoline sequence (works on all parts).
	V2RetpolineGeneric
	// V2RetpolineAMD uses lfence + indirect branch (the paper-era AMD
	// default, later found racy and withdrawn [Milburn et al.]).
	V2RetpolineAMD
	// V2IBRS writes IA32_SPEC_CTRL.IBRS on every kernel entry and
	// clears it on exit (the rejected first-generation mitigation).
	V2IBRS
	// V2EIBRS sets IBRS once at boot on enhanced-IBRS parts.
	V2EIBRS
)

func (m SpectreV2Mode) String() string {
	switch m {
	case V2Off:
		return "off"
	case V2RetpolineGeneric:
		return "retpoline,generic"
	case V2RetpolineAMD:
		return "retpoline,amd"
	case V2IBRS:
		return "ibrs"
	case V2EIBRS:
		return "eibrs"
	}
	return fmt.Sprintf("v2mode(%d)", int(m))
}

// Mitigations is the kernel's active mitigation configuration — the
// rows of Table 1 plus the toggles §4.1 flips for attribution.
type Mitigations struct {
	// PTI: kernel page-table isolation (Meltdown).
	PTI bool
	// PTEInversion: never write non-present PTEs whose frame bits point
	// at cacheable memory (L1TF, process side).
	PTEInversion bool
	// L1TFFlushOnVMEntry: flush the L1 before entering a guest (L1TF,
	// hypervisor side; consumed by the vmm package).
	L1TFFlushOnVMEntry bool
	// EagerFPU: save/restore FPU state on every context switch instead
	// of lazily trapping (LazyFP; also usually faster, §3.1).
	EagerFPU bool
	// SpectreV1: lfence after swapgs on kernel entry plus index masking
	// in kernel copy paths.
	SpectreV1 bool
	// SpectreV2 selects the kernel indirect-branch strategy.
	SpectreV2 SpectreV2Mode
	// IBPB: indirect branch prediction barrier on process switches.
	IBPB bool
	// RSBStuff: refill the return stack buffer on context switches.
	RSBStuff bool
	// MDSClear: verw on every kernel→user transition.
	MDSClear bool
	// SSBDSeccomp: enable SSBD for seccomp processes (the pre-5.16
	// default that taxes Firefox, §4.3).
	SSBDSeccomp bool
	// SSBDAlways forces SSBD for every process (the Figure 5 ablation;
	// never a default).
	SSBDAlways bool
	// NoSMT disables hyperthreading (the "!" row of Table 1; never a
	// default).
	NoSMT bool
}

// Defaults returns the mitigation set Linux enables by default on the
// given CPU — the checkmarks of Table 1. All per-uarch facts come
// through model.MitigationSupport, the same view the sweep
// canonicaliser folds configs with.
func Defaults(m *model.CPU) Mitigations {
	sup := m.Support()
	mit := Mitigations{
		EagerFPU:    true, // "Always save FPU": every CPU
		SpectreV1:   true, // index masking + lfence after swapgs: every CPU
		SSBDSeccomp: true, // kernels up to 5.15
	}
	mit.PTI = sup.NeedsPTI
	mit.PTEInversion = sup.NeedsL1TF
	mit.L1TFFlushOnVMEntry = sup.NeedsL1TF
	mit.MDSClear = sup.NeedsMDS
	if sup.NeedsSpectreV2 {
		switch {
		case sup.PreferEIBRS:
			mit.SpectreV2 = V2EIBRS
		case sup.PreferRetpolineAMD:
			// The paper-era default; Linux 5.15.28 later switched AMD
			// to generic retpolines (§5.3).
			mit.SpectreV2 = V2RetpolineAMD
		default:
			mit.SpectreV2 = V2RetpolineGeneric
		}
		mit.IBPB = true
		mit.RSBStuff = true
	}
	return mit
}

// BootParams mirrors the kernel command-line switches the paper uses to
// disable mitigations one at a time (§4.1).
type BootParams struct {
	MitigationsOff bool // mitigations=off
	NoPTI          bool // nopti
	NoSpectreV1    bool // nospectre_v1
	NoSpectreV2    bool // nospectre_v2 (also disables IBPB + RSB stuffing)
	SpectreV2      string
	// spectre_v2=: "off", "retpoline", "retpoline,generic",
	// "retpoline,amd", "ibrs", "eibrs"
	MDSOff     bool // mds=off
	NoSSBSD    bool // spec_store_bypass_disable=off (no seccomp auto-SSBD)
	SSBDOn     bool // spec_store_bypass_disable=on (force everywhere)
	LazyFPU    bool // eagerfpu=off (historic)
	ForcePTI   bool // pti=on
	L1TFOff    bool // l1tf=off
	NoSMT      bool // nosmt
	NoIBPB     bool // (part of nospectre_v2 in Linux; separate toggle for attribution)
	NoRSBStuff bool // (attribution toggle)
}

// Apply folds boot parameters over a default mitigation set, mimicking
// the kernel's parameter handling: requests the hardware cannot honor
// (per model.MitigationSupport) are inert, exactly as on Linux.
func (bp BootParams) Apply(m *model.CPU, mit Mitigations) Mitigations {
	sup := m.Support()
	if bp.MitigationsOff {
		return Mitigations{EagerFPU: mit.EagerFPU} // eager FPU is not a "mitigation=off" casualty
	}
	if bp.NoPTI {
		mit.PTI = false
	}
	if bp.ForcePTI {
		mit.PTI = true
	}
	if bp.NoSpectreV1 {
		mit.SpectreV1 = false
	}
	if bp.NoSpectreV2 {
		mit.SpectreV2 = V2Off
		mit.IBPB = false
		mit.RSBStuff = false
	}
	switch bp.SpectreV2 {
	case "":
	case "off":
		mit.SpectreV2 = V2Off
		mit.IBPB = false
		mit.RSBStuff = false
	case "retpoline", "retpoline,generic":
		mit.SpectreV2 = V2RetpolineGeneric
	case "retpoline,amd":
		mit.SpectreV2 = V2RetpolineAMD
	case "ibrs":
		if sup.HasIBRS {
			mit.SpectreV2 = V2IBRS
		}
	case "eibrs":
		if sup.HasEIBRS {
			mit.SpectreV2 = V2EIBRS
		}
	}
	if bp.NoIBPB {
		mit.IBPB = false
	}
	if bp.NoRSBStuff {
		mit.RSBStuff = false
	}
	if bp.MDSOff {
		mit.MDSClear = false
	}
	if bp.NoSSBSD {
		mit.SSBDSeccomp = false
	}
	if bp.SSBDOn && sup.HasSSBD {
		mit.SSBDAlways = true
	}
	if bp.LazyFPU {
		mit.EagerFPU = false
	}
	if bp.L1TFOff {
		mit.PTEInversion = false
		mit.L1TFFlushOnVMEntry = false
	}
	if bp.NoSMT {
		mit.NoSMT = true
	}
	return mit
}

// CanonicalKey renders the mitigation set as a compact, stable string:
// the equivalence-class label the sweep canonicaliser keys dedup on.
// Distinct boot-param configs that Apply to equal Mitigations have
// equal CanonicalKeys and simulate identically on the same
// uarch/workload — the fold that turns a combinatorial boot-param grid
// into its much smaller set of effective behaviours.
func (m Mitigations) CanonicalKey() string {
	b := func(v bool) byte {
		if v {
			return '1'
		}
		return '0'
	}
	// Hand-rolled append, not Sprintf: grid enumeration calls this once
	// per cell, and the formatter was visible in full-grid profiles.
	buf := make([]byte, 0, 96)
	buf = append(buf, "pti="...)
	buf = append(buf, b(m.PTI), ' ')
	buf = append(buf, "ptei="...)
	buf = append(buf, b(m.PTEInversion), ' ')
	buf = append(buf, "l1tf="...)
	buf = append(buf, b(m.L1TFFlushOnVMEntry), ' ')
	buf = append(buf, "fpu="...)
	buf = append(buf, b(m.EagerFPU), ' ')
	buf = append(buf, "v1="...)
	buf = append(buf, b(m.SpectreV1), ' ')
	buf = append(buf, "v2="...)
	buf = append(buf, m.SpectreV2.String()...)
	buf = append(buf, ' ')
	buf = append(buf, "ibpb="...)
	buf = append(buf, b(m.IBPB), ' ')
	buf = append(buf, "rsb="...)
	buf = append(buf, b(m.RSBStuff), ' ')
	buf = append(buf, "mds="...)
	buf = append(buf, b(m.MDSClear), ' ')
	buf = append(buf, "ssbds="...)
	buf = append(buf, b(m.SSBDSeccomp), ' ')
	buf = append(buf, "ssbda="...)
	buf = append(buf, b(m.SSBDAlways), ' ')
	buf = append(buf, "nosmt="...)
	buf = append(buf, b(m.NoSMT))
	return string(buf)
}

// IndexSpace bounds Mitigations.Index: every valid mitigation set packs
// into [0, IndexSpace), so a flat slice of this size maps sets to
// anything without hashing.
const IndexSpace = 1 << 14

// Index packs the mitigation set into a dense int below IndexSpace: the
// eleven bools in bits 0–10 and the SpectreV2 mode in bits 11–13. It is
// injective over valid sets, like CanonicalKey, but allocation-free —
// the lattice fold keys its equivalence classes on it and renders
// CanonicalKey once per class instead of once per combo.
func (m Mitigations) Index() int {
	x := 0
	for i, v := range [...]bool{
		m.PTI, m.PTEInversion, m.L1TFFlushOnVMEntry, m.EagerFPU, m.SpectreV1,
		m.IBPB, m.RSBStuff, m.MDSClear, m.SSBDSeccomp, m.SSBDAlways, m.NoSMT,
	} {
		if v {
			x |= 1 << i
		}
	}
	return x | int(m.SpectreV2)<<11
}

// Enabled returns a human-readable list of active mitigations, used by
// Table 1 rendering.
func (m Mitigations) Enabled() []string {
	var out []string
	add := func(ok bool, name string) {
		if ok {
			out = append(out, name)
		}
	}
	add(m.PTI, "pti")
	add(m.PTEInversion, "pte-inversion")
	add(m.L1TFFlushOnVMEntry, "l1tf-flush")
	add(m.EagerFPU, "eager-fpu")
	add(m.SpectreV1, "spectre-v1")
	add(m.SpectreV2 != V2Off, "spectre-v2("+m.SpectreV2.String()+")")
	add(m.IBPB, "ibpb")
	add(m.RSBStuff, "rsb-stuff")
	add(m.MDSClear, "mds-clear")
	add(m.SSBDSeccomp, "ssbd-seccomp")
	add(m.SSBDAlways, "ssbd-always")
	add(m.NoSMT, "nosmt")
	return out
}
