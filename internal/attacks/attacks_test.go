package attacks

import (
	"testing"

	"spectrebench/internal/kernel"
	"spectrebench/internal/model"
)

// leaks runs taxonomy entry id's PoC on m under mit.
func leaks(t *testing.T, id string, m *model.CPU, mit kernel.Mitigations) bool {
	t.Helper()
	a, ok := ByID(id)
	if !ok {
		t.Fatalf("no taxonomy entry %q", id)
	}
	got, err := a.Leaks(m, mit)
	if err != nil {
		t.Fatalf("%s on %s: %v", id, m.Uarch, err)
	}
	return got
}

// --- Spectre V1: everyone is vulnerable; index masking stops it. --------

func TestSpectreV1Matrix(t *testing.T) {
	for _, m := range model.All() {
		if !leaks(t, "spectre-v1", m, kernel.Mitigations{}) {
			t.Errorf("%s: Spectre V1 must leak unmitigated", m.Uarch)
		}
		if leaks(t, "spectre-v1", m, kernel.Mitigations{SpectreV1: true}) {
			t.Errorf("%s: Spectre V1 leaked despite index masking", m.Uarch)
		}
	}
}

// --- Meltdown: Broadwell/Skylake only; PTI stops it. --------------------

func TestMeltdownMatrix(t *testing.T) {
	for _, m := range model.All() {
		if got := leaks(t, "meltdown", m, kernel.Mitigations{}); got != m.Vulns.Meltdown {
			t.Errorf("%s: Meltdown leak = %v, vulnerability = %v", m.Uarch, got, m.Vulns.Meltdown)
		}
		if leaks(t, "meltdown", m, kernel.Mitigations{PTI: true}) {
			t.Errorf("%s: Meltdown leaked despite PTI", m.Uarch)
		}
	}
}

// --- MDS: Broadwell/Skylake/Cascade Lake; verw stops it. ----------------

func TestMDSMatrix(t *testing.T) {
	for _, m := range model.All() {
		if got := leaks(t, "mds", m, kernel.Mitigations{}); got != m.Vulns.MDS {
			t.Errorf("%s: MDS leak = %v, vulnerability = %v", m.Uarch, got, m.Vulns.MDS)
		}
		if leaks(t, "mds", m, kernel.Mitigations{MDSClear: true}) {
			t.Errorf("%s: MDS leaked despite verw", m.Uarch)
		}
	}
}

// A concurrently running sibling deposits after the attacker's verw, so
// clearing buffers on the way to user mode does not stop cross-thread
// sampling; only disabling SMT does.
func TestMDSCrossSMT(t *testing.T) {
	m := model.SkylakeClient()
	if !leaks(t, "mds-smt", m, kernel.Mitigations{}) {
		t.Error("cross-hyperthread MDS should leak on Skylake with SMT on")
	}
	if !leaks(t, "mds-smt", m, kernel.Mitigations{MDSClear: true}) {
		t.Error("verw alone must not stop the sibling's deposit")
	}
	if leaks(t, "mds-smt", m, kernel.Mitigations{NoSMT: true}) {
		t.Error("nosmt leaves no sibling to sample")
	}
}

// --- SSB: everyone; SSBD stops it. ---------------------------------------

func TestSSBMatrix(t *testing.T) {
	for _, m := range model.All() {
		for _, id := range []string{"ssb", "ssb-any"} {
			if !leaks(t, id, m, kernel.Mitigations{}) {
				t.Errorf("%s: %s must leak without SSBD", m.Uarch, id)
			}
			if leaks(t, id, m, kernel.Mitigations{SSBDAlways: true}) {
				t.Errorf("%s: %s leaked despite SSBD everywhere", m.Uarch, id)
			}
		}
		// Seccomp-scoped SSBD covers the sandboxed victim only.
		if leaks(t, "ssb", m, kernel.Mitigations{SSBDSeccomp: true}) {
			t.Errorf("%s: sandboxed victim leaked despite seccomp SSBD", m.Uarch)
		}
		if !leaks(t, "ssb-any", m, kernel.Mitigations{SSBDSeccomp: true}) {
			t.Errorf("%s: seccomp SSBD must not cover an unsandboxed victim", m.Uarch)
		}
	}
}

// --- L1TF: Broadwell/Skylake; PTE inversion stops it. --------------------

func TestL1TFMatrix(t *testing.T) {
	for _, m := range model.All() {
		if got := leaks(t, "l1tf", m, kernel.Mitigations{}); got != m.Vulns.L1TF {
			t.Errorf("%s: L1TF leak = %v, vulnerability = %v", m.Uarch, got, m.Vulns.L1TF)
		}
		if leaks(t, "l1tf", m, kernel.Mitigations{PTEInversion: true}) {
			t.Errorf("%s: L1TF leaked despite PTE inversion", m.Uarch)
		}
	}
}

// --- LazyFP: pre-fix Intel; eager FPU stops it. --------------------------

func TestLazyFPMatrix(t *testing.T) {
	for _, m := range model.All() {
		if got := leaks(t, "lazyfp", m, kernel.Mitigations{}); got != m.Vulns.LazyFPLeak {
			t.Errorf("%s: LazyFP leak = %v, hw leak = %v", m.Uarch, got, m.Vulns.LazyFPLeak)
		}
		if leaks(t, "lazyfp", m, kernel.Mitigations{EagerFPU: true}) {
			t.Errorf("%s: LazyFP leaked despite eager FPU", m.Uarch)
		}
	}
}

// --- Spectre V2 PoCs -------------------------------------------------------

func TestSpectreV2HijackAndIBPB(t *testing.T) {
	m := model.Broadwell()
	if !leaks(t, "spectre-v2-user", m, kernel.Mitigations{}) {
		t.Error("Spectre V2 should hijack on Broadwell")
	}
	if leaks(t, "spectre-v2-user", m, kernel.Mitigations{IBPB: true}) {
		t.Error("IBPB should stop the hijack")
	}
}

// The user→kernel PoC's victim branch is compiled by the kernel's own
// Spectre V2 lowering, so each mode is checked as the kernel emits it:
// lfence; call (retpoline,amd) leaks wherever user→kernel training
// works, while generic retpolines and (e)IBRS block it.
func TestSpectreV2KernelLowering(t *testing.T) {
	for _, tc := range []struct {
		m    *model.CPU
		mode kernel.SpectreV2Mode
		want bool
	}{
		{model.SkylakeClient(), kernel.V2Off, true},
		{model.SkylakeClient(), kernel.V2RetpolineAMD, true},
		{model.SkylakeClient(), kernel.V2RetpolineGeneric, false},
		{model.SkylakeClient(), kernel.V2IBRS, false},
		{model.Zen2(), kernel.V2RetpolineAMD, true},
		{model.Zen2(), kernel.V2RetpolineGeneric, false},
		{model.CascadeLake(), kernel.V2Off, false}, // mode-tagged BTB
		{model.CascadeLake(), kernel.V2EIBRS, false},
	} {
		got := leaks(t, "spectre-v2-kernel", tc.m, kernel.Mitigations{SpectreV2: tc.mode})
		if got != tc.want {
			t.Errorf("%s spectre_v2=%s: leaked = %v, want %v", tc.m.Uarch, tc.mode, got, tc.want)
		}
	}
}

// --- §6 probe: Tables 9 and 10 --------------------------------------------

// table9Expected is the paper's Table 9 (IBRS disabled).
var table9Expected = map[string][numScenarios]bool{
	"Broadwell":       {true, true, true, true, true},
	"Skylake Client":  {true, true, true, true, true},
	"Cascade Lake":    {false, true, true, true, true},
	"Ice Lake Client": {false, true, true, true, true},
	"Ice Lake Server": {false, true, true, true, true},
	"Zen":             {true, true, true, true, true},
	"Zen 2":           {true, true, true, true, true},
	"Zen 3":           {false, false, false, false, false},
}

// table10Expected is the paper's Table 10 (IBRS enabled). Zen is absent
// (no IBRS support).
var table10Expected = map[string][numScenarios]bool{
	"Broadwell":       {false, false, false, false, false},
	"Skylake Client":  {false, false, false, false, false},
	"Cascade Lake":    {false, true, true, true, true},
	"Ice Lake Client": {false, true, false, true, false},
	"Ice Lake Server": {false, true, true, true, true},
	"Zen 2":           {false, false, false, false, false},
	"Zen 3":           {false, false, false, false, false},
}

func TestProbeTable9(t *testing.T) {
	for _, m := range model.All() {
		res, err := RunProbe(m, false)
		if err != nil {
			t.Fatalf("%s: %v", m.Uarch, err)
		}
		want := table9Expected[m.Uarch]
		for s := Scenario(0); s < numScenarios; s++ {
			if res.Speculated[s] != want[s] {
				t.Errorf("%s %v: speculated = %v, paper says %v", m.Uarch, s, res.Speculated[s], want[s])
			}
		}
	}
}

func TestProbeTable10(t *testing.T) {
	for _, m := range model.All() {
		res, err := RunProbe(m, true)
		if err != nil {
			t.Fatalf("%s: %v", m.Uarch, err)
		}
		if m.Uarch == "Zen" {
			if res.Supported {
				t.Error("Zen must report IBRS unsupported")
			}
			continue
		}
		want := table10Expected[m.Uarch]
		for s := Scenario(0); s < numScenarios; s++ {
			if res.Speculated[s] != want[s] {
				t.Errorf("%s %v: speculated = %v, paper says %v", m.Uarch, s, res.Speculated[s], want[s])
			}
		}
	}
}

func TestScenarioStrings(t *testing.T) {
	seen := map[string]bool{}
	for s := Scenario(0); s < numScenarios; s++ {
		str := s.String()
		if str == "" || seen[str] {
			t.Errorf("scenario %d: bad name %q", s, str)
		}
		seen[str] = true
	}
}

// --- SpectreRSB -----------------------------------------------------------

func TestSpectreRSBAndStuffing(t *testing.T) {
	for _, m := range []*model.CPU{model.Broadwell(), model.Zen3()} {
		if !leaks(t, "spectre-rsb", m, kernel.Mitigations{}) {
			t.Errorf("%s: SpectreRSB did not steer speculation", m.Uarch)
		}
		if leaks(t, "spectre-rsb", m, kernel.Mitigations{RSBStuff: true}) {
			t.Errorf("%s: RSB stuffing failed to stop SpectreRSB", m.Uarch)
		}
	}
}
