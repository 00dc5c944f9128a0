package kernel

import (
	"math/rand"
	"strings"
	"testing"

	"spectrebench/internal/isa"
	"spectrebench/internal/model"
)

// buildSyscallFuzz emits a program of n random syscalls with plausible
// (and sometimes deliberately bad) arguments, then exits. Blocking calls
// are avoided unless a partner exists, so the only acceptable outcomes
// are clean completion or a detected deadlock — never a crash.
func buildSyscallFuzz(r *rand.Rand, n int, withPartner bool) *isa.Program {
	a := isa.NewAsm()
	if withPartner {
		// A partner that yields a bounded number of times then exits.
		a.MovI(isa.R7, SysFork)
		a.Syscall()
		a.CmpI(isa.R0, 0)
		a.Jne("fz_main")
		a.MovI(isa.R9, 20)
		a.Label("fz_partner")
		a.MovI(isa.R7, SysYield)
		a.Syscall()
		a.SubI(isa.R9, 1)
		a.CmpI(isa.R9, 0)
		a.Jne("fz_partner")
		a.MovI(isa.R1, 0)
		a.MovI(isa.R7, SysExit)
		a.Syscall()
		a.Label("fz_main")
	}
	// Keep one known-good fd around.
	a.MovI(isa.R1, 1)
	a.MovI(isa.R2, 4096)
	a.MovI(isa.R7, SysOpen)
	a.Syscall()
	a.Mov(isa.R8, isa.R0)

	for i := 0; i < n; i++ {
		switch r.Intn(10) {
		case 0:
			a.MovI(isa.R7, SysGetPID)
			a.Syscall()
		case 1:
			a.Mov(isa.R1, isa.R8) // valid fd
			if r.Intn(4) == 0 {
				a.MovI(isa.R1, int64(r.Intn(64))) // maybe-bogus fd
			}
			a.MovI(isa.R2, UserDataBase+int64(r.Intn(8))*512)
			a.MovI(isa.R3, fuzzSize(r, 4096))
			a.MovI(isa.R7, SysRead)
			a.Syscall()
		case 2:
			a.Mov(isa.R1, isa.R8)
			a.MovI(isa.R2, UserDataBase+int64(r.Intn(8))*512)
			a.MovI(isa.R3, fuzzSize(r, 2048))
			a.MovI(isa.R7, SysWrite)
			a.Syscall()
		case 3:
			a.MovI(isa.R1, int64(r.Intn(16)))
			a.MovI(isa.R7, SysMmap)
			a.Syscall()
			// Touch the mapping if it succeeded (high bit set = error).
			a.Mov(isa.R10, isa.R0)
			a.MovI(isa.R11, 1)
			a.ShrI(isa.R10, 63)
			a.CmpI(isa.R10, 0)
			a.Jne("skip_touch_" + lbl(i))
			a.Mov(isa.R10, isa.R0)
			a.MovI(isa.R12, 7)
			a.Store(isa.R10, 0, isa.R12)
			a.Label("skip_touch_" + lbl(i))
		case 4:
			a.MovI(isa.R7, SysYield)
			a.Syscall()
		case 5:
			a.MovI(isa.R1, 8)
			a.MovI(isa.R2, 0) // non-blocking select
			a.MovI(isa.R7, SysSelect)
			a.Syscall()
		case 6:
			a.MovI(isa.R1, int64(r.Intn(200)))
			a.MovI(isa.R7, SysNanosleep)
			a.Syscall()
		case 7:
			a.MovI(isa.R1, 53) // speculation prctl
			a.MovI(isa.R2, int64(r.Intn(2)))
			a.MovI(isa.R7, SysPrctl)
			a.Syscall()
		case 8:
			a.MovI(isa.R7, SysGetTSC)
			a.Syscall()
		default:
			// A possibly-invalid syscall number — but never SysExit or
			// SysFork mid-stream (they change the control structure).
			nr := int64(r.Intn(40))
			if nr == SysExit || nr == SysFork {
				nr = SysGetPID
			}
			a.MovI(isa.R1, int64(r.Intn(999)))
			a.MovI(isa.R2, int64(r.Intn(999))) // garbage kmod targets get EINVAL
			if nr == SysOpen {
				a.MovI(isa.R2, fuzzSize(r, 999)) // size hint
			}
			a.MovI(isa.R7, nr)
			a.Syscall()
		}
	}
	a.MovI(isa.R1, 0)
	a.MovI(isa.R7, SysExit)
	a.Syscall()
	return a.MustAssemble(UserCodeBase)
}

// fuzzSize draws a byte count or size hint below max, or, one time in
// eight, a hostile one: negative, or far past any buffer the host could
// allocate.
func fuzzSize(r *rand.Rand, max int) int64 {
	if r.Intn(8) == 0 {
		bad := []int64{-1, -4096, memFileCap + 1, 1 << 40, 1<<63 - 1}
		return bad[r.Intn(len(bad))]
	}
	return int64(r.Intn(max))
}

func lbl(i int) string { return string(rune('a'+i%26)) + string(rune('a'+(i/26)%26)) + itoa(i) }

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b []byte
	for i > 0 {
		b = append([]byte{byte('0' + i%10)}, b...)
		i /= 10
	}
	return string(b)
}

// TestSyscallFuzz drives random syscall streams on several CPUs. The
// kernel must never panic and must always either finish or detect a
// deadlock; after completion no process may be left running.
func TestSyscallFuzz(t *testing.T) {
	models := []*model.CPU{model.Broadwell(), model.CascadeLake(), model.Zen3()}
	trials := 25
	if testing.Short() {
		trials = 6
	}
	for seed := 0; seed < trials; seed++ {
		r := rand.New(rand.NewSource(int64(seed)))
		m := models[seed%len(models)]
		_, k := boot(m, Defaults(m))
		prog := buildSyscallFuzz(r, 30, seed%2 == 0)
		k.NewProcess("fuzz", prog)
		err := k.RunProcessToCompletion(20_000_000)
		if err != nil && !strings.Contains(err.Error(), "deadlock") {
			t.Fatalf("seed %d on %s: %v", seed, m.Uarch, err)
		}
		if err == nil && k.LiveProcs() != 0 {
			t.Errorf("seed %d: %d processes still live", seed, k.LiveProcs())
		}
	}
}

// A couple of directed abuse cases the fuzzer space includes.
func TestSyscallAbuse(t *testing.T) {
	m := model.SkylakeClient()

	// Exit with outstanding blocked reader (the partner exits first and
	// the pipe read then sees EOF rather than deadlocking).
	_, k := boot(m, Defaults(m))
	a := isa.NewAsm()
	emitSyscall(a, SysPipe)
	emitSyscall(a, SysFork)
	a.CmpI(isa.R0, 0)
	a.Jeq("child")
	// Parent closes its write end, then reads: EOF (0 bytes).
	a.MovI(isa.R1, 4)
	emitSyscall(a, SysClose)
	a.MovI(isa.R1, 3)
	a.MovI(isa.R2, UserDataBase)
	a.MovI(isa.R3, 8)
	emitSyscall(a, SysRead)
	a.Mov(isa.R9, isa.R0)
	emitExit(a, 0)
	a.Label("child")
	// Child closes both ends immediately and exits.
	a.MovI(isa.R1, 3)
	emitSyscall(a, SysClose)
	a.MovI(isa.R1, 4)
	emitSyscall(a, SysClose)
	emitExit(a, 0)
	k.NewProcess("eof", a.MustAssemble(UserCodeBase))
	if err := k.RunProcessToCompletion(5_000_000); err != nil {
		t.Fatal(err)
	}

	// Guest-controlled lengths: a negative count or size hint is
	// EINVAL, an oversized hint is EINVAL, and an oversized count is
	// clamped to maxRWCount — never a host panic or a host-sized
	// allocation.
	_, k = boot(m, Defaults(m))
	a = isa.NewAsm()
	const results = UserDataBase + 0x3000
	cases := []struct {
		name       string
		nr         int64
		r1, r2, r3 int64
		want       uint64
	}{
		{"write count -1", SysWrite, 3, UserDataBase, -1, EINVAL},
		{"read count -1", SysRead, 3, UserDataBase, -1, EINVAL},
		{"write count 1<<40", SysWrite, 3, UserDataBase, 1 << 40, EFAULT}, // clamped, then runs off the data region
		{"read count 1<<40", SysRead, 3, UserDataBase, 1 << 40, 4096},     // clamped, then short at EOF
		{"write count maxint64", SysWrite, 3, UserDataBase, 1<<63 - 1, EFAULT},
		{"open hint -1", SysOpen, 1, -1, 0, EINVAL},
		{"open hint 1<<40", SysOpen, 1, 1 << 40, 0, EINVAL},
		{"open hint past cap", SysOpen, 1, memFileCap + 1, 0, EINVAL},
		{"open hint at cap", SysOpen, 1, memFileCap, 0, 4},
	}
	a.MovI(isa.R1, 0)
	a.MovI(isa.R2, 4096)
	emitSyscall(a, SysOpen) // fd 3: a 4 KiB memFile
	for i, tc := range cases {
		a.MovI(isa.R1, tc.r1)
		a.MovI(isa.R2, tc.r2)
		a.MovI(isa.R3, tc.r3)
		emitSyscall(a, tc.nr)
		a.MovI(isa.R10, results+int64(i)*8)
		a.Store(isa.R10, 0, isa.R0)
	}
	emitExit(a, 0)
	p := k.NewProcess("lengths", a.MustAssemble(UserCodeBase))
	if err := k.RunProcessToCompletion(50_000_000); err != nil {
		t.Fatal(err)
	}
	for i, tc := range cases {
		got := k.C.Phys.Read64(uint64(p.PID)<<32 + results + uint64(i)*8)
		if got != tc.want {
			t.Errorf("%s: r0 = %#x, want %#x", tc.name, got, tc.want)
		}
	}
}
