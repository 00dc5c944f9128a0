package kernel

// fileLike is the kernel's descriptor abstraction. read/write return
// blocked=true when the caller must sleep; the object is responsible for
// waking waiters when state changes.
type fileLike interface {
	// read copies up to len(dst) bytes into dst, or returns blocked=true.
	read(k *Kernel, dst []byte) (n int, blocked bool)
	// write appends buf, returning bytes written or blocked=true.
	write(k *Kernel, buf []byte) (n int, blocked bool)
	// readReady reports whether a read would not block.
	readReady() bool
	// close releases the endpoint.
	close(k *Kernel)
	// dup returns the descriptor to install in a forked child.
	dup() fileLike
}

// pipeCapacity matches the Linux default (64 KiB).
const pipeCapacity = 64 << 10

// pipe is a byte queue connecting two pipeEnds.
type pipe struct {
	buf     []byte
	readers int
	writers int
	// waiters are processes blocked on this pipe (readers waiting for
	// data, writers waiting for space, selectors waiting for either).
	waiters []*Proc
}

func (pp *pipe) wakeAll(k *Kernel) {
	for _, p := range pp.waiters {
		k.wake(p)
	}
	pp.waiters = pp.waiters[:0]
}

func (pp *pipe) addWaiter(p *Proc) {
	for _, w := range pp.waiters {
		if w == p {
			return
		}
	}
	pp.waiters = append(pp.waiters, p)
}

// pipeEnd is one side of a pipe.
type pipeEnd struct {
	p       *pipe
	readEnd bool
}

func (e *pipeEnd) read(k *Kernel, dst []byte) (int, bool) {
	if !e.readEnd {
		return 0, false
	}
	pp := e.p
	if len(pp.buf) == 0 {
		if pp.writers == 0 && k != nil {
			return 0, false // EOF
		}
		pp.addWaiter(k.cur)
		return 0, true
	}
	n := copy(dst, pp.buf)
	pp.buf = pp.buf[n:]
	pp.wakeAll(k) // writers may proceed
	return n, false
}

func (e *pipeEnd) write(k *Kernel, buf []byte) (int, bool) {
	if e.readEnd {
		return 0, false
	}
	pp := e.p
	if len(pp.buf)+len(buf) > pipeCapacity {
		pp.addWaiter(k.cur)
		return 0, true
	}
	pp.buf = append(pp.buf, buf...)
	pp.wakeAll(k) // readers may proceed
	return len(buf), false
}

func (e *pipeEnd) readReady() bool {
	return e.readEnd && len(e.p.buf) > 0
}

func (e *pipeEnd) close(k *Kernel) {
	if e.readEnd {
		e.p.readers--
	} else {
		e.p.writers--
	}
	if k != nil {
		e.p.wakeAll(k)
	}
}

func (e *pipeEnd) dup() fileLike {
	if e.readEnd {
		e.p.readers++
	} else {
		e.p.writers++
	}
	return e
}

// ExternalFile is a pluggable file backing (e.g. a real filesystem over
// an emulated disk) installed through Kernel.OpenFileProvider. Offsets
// are managed by the kernel-side wrapper: reads advance sequentially,
// writes append.
type ExternalFile interface {
	ReadAt(off int64, buf []byte) (int, error)
	WriteAt(off int64, data []byte) (int, error)
	Close() error
}

// extFile adapts an ExternalFile to the kernel descriptor model.
type extFile struct {
	f    ExternalFile
	roff int64
	woff int64
}

func (e *extFile) read(_ *Kernel, dst []byte) (int, bool) {
	got, err := e.f.ReadAt(e.roff, dst)
	if err != nil {
		return 0, false
	}
	e.roff += int64(got)
	return got, false
}

func (e *extFile) write(_ *Kernel, buf []byte) (int, bool) {
	n, err := e.f.WriteAt(e.woff, buf)
	if err != nil {
		return 0, false
	}
	e.woff += int64(n)
	return n, false
}

func (e *extFile) readReady() bool { return true }
func (e *extFile) close(*Kernel)   { _ = e.f.Close() }
func (e *extFile) dup() fileLike   { return e }

// memFileCap bounds a memFile: a write that would push the size past
// it empties the file instead (long benchmark loops append forever).
const memFileCap = 1 << 24

// memChunk is the memFile storage granule.
const memChunk = 64 << 10

// memFile is a seekless in-memory file: reads start at an internal
// offset, writes append. It never blocks — the LEBench read/write
// microbenchmarks use it as their hot file. Bytes live in fixed 64 KiB
// chunks, so an append never copies earlier bytes; a nil (or missing)
// chunk reads as zeros, so a size hint allocates nothing. Bytes past
// size are never read, so chunks are kept across a reset and
// overwritten by later appends.
type memFile struct {
	chunks [][]byte
	size   int
	off    int
}

func (f *memFile) read(_ *Kernel, dst []byte) (int, bool) {
	if f.off >= f.size {
		f.off = 0 // wrap: benchmarks re-read the same file repeatedly
	}
	n := min(len(dst), f.size-f.off)
	for done := 0; done < n; {
		ci, co := (f.off+done)/memChunk, (f.off+done)%memChunk
		part := dst[done:min(n, done+memChunk-co)]
		if ci < len(f.chunks) && f.chunks[ci] != nil {
			copy(part, f.chunks[ci][co:])
		} else {
			clear(part)
		}
		done += len(part)
	}
	f.off += n
	return n, false
}

func (f *memFile) write(_ *Kernel, buf []byte) (int, bool) {
	if f.size+len(buf) > memFileCap {
		f.size = 0 // cap growth in long benchmark loops
		return len(buf), false
	}
	for src := buf; len(src) > 0; {
		ci, co := f.size/memChunk, f.size%memChunk
		for len(f.chunks) <= ci {
			f.chunks = append(f.chunks, nil)
		}
		if f.chunks[ci] == nil {
			f.chunks[ci] = make([]byte, memChunk)
		}
		n := copy(f.chunks[ci][co:], src)
		src = src[n:]
		f.size += n
	}
	return len(buf), false
}

func (f *memFile) readReady() bool { return true }
func (f *memFile) close(*Kernel)   {}
func (f *memFile) dup() fileLike   { return f }
