package kernel

import (
	"bytes"
	"testing"

	"spectrebench/internal/isa"
	"spectrebench/internal/model"
)

// sliceMemFile is the original single-slice memFile, kept as the oracle
// for the chunked implementation: every write appends to one growing
// slice, and a size past memFileCap empties it.
type sliceMemFile struct {
	data []byte
	off  int
}

func (f *sliceMemFile) read(n int) []byte {
	if f.off >= len(f.data) {
		f.off = 0
	}
	end := f.off + n
	if end > len(f.data) {
		end = len(f.data)
	}
	out := make([]byte, end-f.off)
	copy(out, f.data[f.off:end])
	f.off = end
	return out
}

func (f *sliceMemFile) write(buf []byte) int {
	f.data = append(f.data, buf...)
	if len(f.data) > 1<<24 {
		f.data = f.data[:0]
	}
	return len(buf)
}

// memFileInput encodes a fuzz input: a 3-byte size hint, then 4-byte
// ops (a kind byte, odd = write, and a 3-byte size).
func memFileInput(hint int, ops ...[2]int) []byte {
	var b []byte
	b = append(b, byte(hint>>16), byte(hint>>8), byte(hint))
	for _, op := range ops {
		n := op[1]
		b = append(b, byte(op[0]), byte(n>>16), byte(n>>8), byte(n))
	}
	return b
}

const (
	opRead  = 0
	opWrite = 1
)

// FuzzMemFile runs the chunked memFile and the slice oracle side by
// side over a decoded op sequence: every read must return the same
// bytes, and counts, offsets and sizes must agree after every op —
// through the wrap at EOF and the reset past memFileCap.
func FuzzMemFile(f *testing.F) {
	for _, n := range []int{8 << 10, 56 << 10, 256 << 10} { // the LEBench sizes
		f.Add(memFileInput(64<<10, [2]int{opRead, n}, [2]int{opRead, n}, [2]int{opWrite, n}, [2]int{opRead, n}))
	}
	f.Add(memFileInput(100, [2]int{opWrite, 5 << 20}, [2]int{opWrite, 5 << 20}, [2]int{opRead, 1 << 20},
		[2]int{opWrite, 5 << 20}, [2]int{opWrite, 2 << 20}, [2]int{opRead, 3000}, [2]int{opWrite, 70000}, [2]int{opRead, 1 << 20}))
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) < 3 {
			return
		}
		hint := int(in[0])<<16 | int(in[1])<<8 | int(in[2])
		got := &memFile{size: hint}
		want := &sliceMemFile{data: make([]byte, hint)}
		var dst []byte
		for i, op := 0, in[3:]; len(op) >= 4 && i < 32; i, op = i+1, op[4:] {
			n := int(op[1])<<16 | int(op[2])<<8 | int(op[3])
			if op[0]&1 == opWrite {
				buf := make([]byte, n)
				for j := range buf {
					buf[j] = byte(i*31 + j*7 + 1)
				}
				if g, w := mustWrite(t, got, buf), want.write(buf); g != w {
					t.Fatalf("op %d: write(%d) = %d, oracle %d", i, n, g, w)
				}
			} else {
				if cap(dst) < n {
					dst = make([]byte, n)
				}
				dst = dst[:n]
				for j := range dst {
					dst[j] = 0xa5 // stale bytes a nil chunk must overwrite
				}
				g := mustRead(t, got, dst)
				if w := want.read(n); !bytes.Equal(dst[:g], w) {
					t.Fatalf("op %d: read(%d) returned %d bytes, oracle %d, or different bytes", i, n, g, len(w))
				}
			}
			if got.size != len(want.data) || got.off != want.off {
				t.Fatalf("op %d: size/off = %d/%d, oracle %d/%d", i, got.size, got.off, len(want.data), want.off)
			}
		}
	})
}

func mustRead(t *testing.T, f *memFile, dst []byte) int {
	n, blocked := f.read(nil, dst)
	if blocked {
		t.Fatal("memFile read blocked")
	}
	return n
}

func mustWrite(t *testing.T, f *memFile, buf []byte) int {
	n, blocked := f.write(nil, buf)
	if blocked {
		t.Fatal("memFile write blocked")
	}
	return n
}

// TestMemFileAllocFree pins the chunked memFile's steady state: reads
// allocate nothing, and neither does a write that lands inside a chunk
// already allocated.
func TestMemFileAllocFree(t *testing.T) {
	f := &memFile{size: 64 << 10}
	dst := make([]byte, 8<<10)
	if a := testing.AllocsPerRun(100, func() { mustRead(t, f, dst) }); a != 0 {
		t.Errorf("read of a hinted (nil-chunk) file: %v allocs/call, want 0", a)
	}
	buf := make([]byte, 16)
	mustWrite(t, f, buf) // allocates the chunk past the hint
	if a := testing.AllocsPerRun(100, func() { mustWrite(t, f, buf) }); a != 0 {
		t.Errorf("write inside an existing chunk: %v allocs/call, want 0", a)
	}
	if a := testing.AllocsPerRun(100, func() { mustRead(t, f, dst) }); a != 0 {
		t.Errorf("read of written chunks: %v allocs/call, want 0", a)
	}
}

// TestReadWriteAllocFree drives the read and write handlers on a booted
// kernel. Once the bounce buffer has grown and the file has cycled
// through memFileCap (so every chunk exists), a write+read pair
// allocates nothing.
func TestReadWriteAllocFree(t *testing.T) {
	m := model.Broadwell()
	_, k := boot(m, Defaults(m))
	a := isa.NewAsm()
	emitExit(a, 0)
	p := k.NewProcess("rw", a.MustAssemble(UserCodeBase))
	f := &memFile{}
	p.fds[3] = f
	const n = 4096
	wr := &syscallCtx{proc: p, nr: SysWrite, args: [5]uint64{3, UserDataBase, n}}
	rd := &syscallCtx{proc: p, nr: SysRead, args: [5]uint64{3, UserDataBase + 0x2000, n}}
	call := func(ctx *syscallCtx, h func(*Kernel, *syscallCtx) (uint64, bool)) {
		if ret, blocked := h(k, ctx); blocked || ret != n {
			t.Fatalf("syscall %d = %#x (blocked %v), want %d", ctx.nr, ret, blocked, n)
		}
	}
	call(wr, (*Kernel).sysWrite)
	for f.size != 0 { // fill to the cap: the file resets with every chunk allocated
		call(wr, (*Kernel).sysWrite)
	}
	allocs := testing.AllocsPerRun(200, func() {
		call(wr, (*Kernel).sysWrite)
		call(rd, (*Kernel).sysRead)
	})
	if allocs != 0 {
		t.Errorf("sysWrite+sysRead: %v allocs/pair, want 0", allocs)
	}
}
