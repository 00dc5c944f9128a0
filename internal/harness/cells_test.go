package harness

import (
	"fmt"
	"testing"

	"spectrebench/internal/kernel"
)

// TestMitConfigMatchesSprintf: the memoized key rendering is byte for
// byte the fmt rendering cell keys always used, so a store written
// before the memo still hits, and a second call returns the same bytes.
func TestMitConfigMatchesSprintf(t *testing.T) {
	for i := 0; i < kernel.IndexSpace; i += 7 {
		bits := [11]bool{}
		for b := range bits {
			bits[b] = i&(1<<b) != 0
		}
		m := kernel.Mitigations{
			PTI: bits[0], PTEInversion: bits[1], L1TFFlushOnVMEntry: bits[2], EagerFPU: bits[3],
			SpectreV1: bits[4], IBPB: bits[5], RSBStuff: bits[6], MDSClear: bits[7],
			SSBDSeccomp: bits[8], SSBDAlways: bits[9], NoSMT: bits[10],
			SpectreV2: kernel.SpectreV2Mode(i>>11) % (kernel.V2EIBRS + 1),
		}
		want := fmt.Sprintf("%+v", m)
		for call := 0; call < 2; call++ {
			if got := mitConfig(m); got != want {
				t.Fatalf("mitConfig(%d), call %d = %q, want %q", m.Index(), call, got, want)
			}
		}
	}
}
