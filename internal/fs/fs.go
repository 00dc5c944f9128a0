// Package fs implements a small log-structured file system (after
// Rosenblum & Ousterhout's LFS, whose smallfile/largefile benchmarks the
// paper runs against an emulated disk, §4.4). All writes append to a
// log; an in-memory inode map locates the latest version of each inode,
// and a checkpoint block makes the volume remountable.
package fs

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// BlockSize is the filesystem block size (matches the emulated disk).
const BlockSize = 4096

// BlockDevice is the storage a volume lives on.
type BlockDevice interface {
	Read(block int, buf []byte) error
	Write(block int, buf []byte) error
	Blocks() int
}

// Layout:
//
//	block 0:   checkpoint (magic, log head, inode map)
//	block 1+:  the log — data blocks and inode blocks, appended in order
const (
	checkpointBlock = 0
	logStart        = 1
	magic           = 0x4c_46_53_31 // "LFS1"

	// maxFileBlocks bounds direct block pointers per inode.
	maxFileBlocks = 512
	// maxName bounds directory entry names.
	maxName = 64
)

// ErrNotFound is returned for missing files.
var ErrNotFound = errors.New("fs: file not found")

// ErrNoSpace is returned when the log reaches the end of the device.
var ErrNoSpace = errors.New("fs: device full")

// inode is the on-disk file metadata.
type inode struct {
	size   uint64
	blocks []uint32 // log block numbers of the data
}

// FS is a mounted volume.
type FS struct {
	dev     BlockDevice
	logHead uint32
	// imap: inode number → log block holding the latest inode.
	imap map[uint32]uint32
	// dir: the single root directory, name → inode number.
	dir       map[string]uint32
	nextInode uint32

	// Stats.
	Appends     uint64
	Checkpoints uint64
}

// Format initialises an empty volume on dev and returns it mounted.
func Format(dev BlockDevice) (*FS, error) {
	if dev.Blocks() < 8 {
		return nil, errors.New("fs: device too small")
	}
	f := &FS{
		dev:       dev,
		logHead:   logStart,
		imap:      make(map[uint32]uint32),
		dir:       make(map[string]uint32),
		nextInode: 1,
	}
	if err := f.checkpoint(); err != nil {
		return nil, err
	}
	return f, nil
}

// Mount loads an existing volume from dev.
func Mount(dev BlockDevice) (*FS, error) {
	buf := make([]byte, BlockSize)
	if err := dev.Read(checkpointBlock, buf); err != nil {
		return nil, err
	}
	if binary.LittleEndian.Uint32(buf[0:]) != magic {
		return nil, errors.New("fs: bad magic (not formatted?)")
	}
	f := &FS{
		dev:  dev,
		imap: make(map[uint32]uint32),
		dir:  make(map[string]uint32),
	}
	f.logHead = binary.LittleEndian.Uint32(buf[4:])
	f.nextInode = binary.LittleEndian.Uint32(buf[8:])
	n := int(binary.LittleEndian.Uint32(buf[12:]))
	off := 16
	for i := 0; i < n; i++ {
		ino := binary.LittleEndian.Uint32(buf[off:])
		blk := binary.LittleEndian.Uint32(buf[off+4:])
		nameLen := int(buf[off+8])
		if off+9+nameLen > BlockSize {
			return nil, errors.New("fs: corrupt checkpoint")
		}
		name := string(buf[off+9 : off+9+nameLen])
		f.imap[ino] = blk
		f.dir[name] = ino
		off += 9 + nameLen
	}
	return f, nil
}

// checkpoint persists the log head, directory and inode map.
func (f *FS) checkpoint() error {
	buf := make([]byte, BlockSize)
	binary.LittleEndian.PutUint32(buf[0:], magic)
	binary.LittleEndian.PutUint32(buf[4:], f.logHead)
	binary.LittleEndian.PutUint32(buf[8:], f.nextInode)
	binary.LittleEndian.PutUint32(buf[12:], uint32(len(f.dir)))
	off := 16
	for name, ino := range f.dir {
		if len(name) > maxName {
			return fmt.Errorf("fs: name %q too long", name)
		}
		if off+9+len(name) > BlockSize {
			return errors.New("fs: checkpoint overflow (too many files)")
		}
		binary.LittleEndian.PutUint32(buf[off:], ino)
		binary.LittleEndian.PutUint32(buf[off+4:], f.imap[ino])
		buf[off+8] = byte(len(name))
		copy(buf[off+9:], name)
		off += 9 + len(name)
	}
	f.Checkpoints++
	return f.dev.Write(checkpointBlock, buf)
}

// appendBlock writes one block at the log head.
func (f *FS) appendBlock(buf []byte) (uint32, error) {
	if int(f.logHead) >= f.dev.Blocks() {
		return 0, ErrNoSpace
	}
	blk := f.logHead
	if err := f.dev.Write(int(blk), buf); err != nil {
		return 0, err
	}
	f.logHead++
	f.Appends++
	return blk, nil
}

// writeInode serialises an inode into the log and updates the imap.
func (f *FS) writeInode(ino uint32, nd *inode) error {
	if len(nd.blocks) > maxFileBlocks {
		return fmt.Errorf("fs: file too large (%d blocks)", len(nd.blocks))
	}
	buf := make([]byte, BlockSize)
	binary.LittleEndian.PutUint64(buf[0:], nd.size)
	binary.LittleEndian.PutUint32(buf[8:], uint32(len(nd.blocks)))
	for i, b := range nd.blocks {
		binary.LittleEndian.PutUint32(buf[12+4*i:], b)
	}
	blk, err := f.appendBlock(buf)
	if err != nil {
		return err
	}
	f.imap[ino] = blk
	return nil
}

// readInode loads the latest version of an inode.
func (f *FS) readInode(ino uint32) (*inode, error) {
	blk, ok := f.imap[ino]
	if !ok {
		return nil, ErrNotFound
	}
	buf := make([]byte, BlockSize)
	if err := f.dev.Read(int(blk), buf); err != nil {
		return nil, err
	}
	nd := &inode{size: binary.LittleEndian.Uint64(buf[0:])}
	n := binary.LittleEndian.Uint32(buf[8:])
	if n > maxFileBlocks {
		return nil, errors.New("fs: corrupt inode")
	}
	nd.blocks = make([]uint32, n)
	for i := range nd.blocks {
		nd.blocks[i] = binary.LittleEndian.Uint32(buf[12+4*i:])
	}
	return nd, nil
}

// Create makes (or truncates) a file and returns a handle.
func (f *FS) Create(name string) (*File, error) {
	ino, exists := f.dir[name]
	if !exists {
		ino = f.nextInode
		f.nextInode++
		f.dir[name] = ino
	}
	nd := &inode{}
	if err := f.writeInode(ino, nd); err != nil {
		return nil, err
	}
	if err := f.checkpoint(); err != nil {
		return nil, err
	}
	return &File{fs: f, ino: ino, nd: nd}, nil
}

// Open returns a handle to an existing file.
func (f *FS) Open(name string) (*File, error) {
	ino, ok := f.dir[name]
	if !ok {
		return nil, ErrNotFound
	}
	nd, err := f.readInode(ino)
	if err != nil {
		return nil, err
	}
	return &File{fs: f, ino: ino, nd: nd}, nil
}

// Remove deletes a file (its log blocks become garbage for a cleaner
// this volume does not need).
func (f *FS) Remove(name string) error {
	ino, ok := f.dir[name]
	if !ok {
		return ErrNotFound
	}
	delete(f.dir, name)
	delete(f.imap, ino)
	return f.checkpoint()
}

// List returns the directory's file names.
func (f *FS) List() []string {
	out := make([]string, 0, len(f.dir))
	for name := range f.dir {
		out = append(out, name)
	}
	return out
}

// File is an open file handle with write-back buffering: writes
// accumulate in memory until Sync (or Close) appends them to the log —
// the page-cache behaviour that keeps §4.4's VM-exit rates in the tens
// of thousands per second rather than one per write().
type File struct {
	fs    *FS
	ino   uint32
	nd    *inode
	dirty map[int][]byte // block index → pending contents
}

// Size returns the file's current size.
func (fl *File) Size() uint64 { return fl.nd.size }

// WriteAt writes data at the given offset (extending the file).
func (fl *File) WriteAt(off int64, data []byte) (int, error) {
	if fl.dirty == nil {
		fl.dirty = make(map[int][]byte)
	}
	written := 0
	for len(data) > 0 {
		bi := int(off / BlockSize)
		if bi >= maxFileBlocks {
			return written, fmt.Errorf("fs: file too large")
		}
		bo := int(off % BlockSize)
		blk, err := fl.blockForWrite(bi)
		if err != nil {
			return written, err
		}
		n := copy(blk[bo:], data)
		data = data[n:]
		off += int64(n)
		written += n
		if uint64(off) > fl.nd.size {
			fl.nd.size = uint64(off)
		}
	}
	return written, nil
}

// blockForWrite returns the mutable pending buffer for block index bi,
// reading existing contents when the write is partial. Block pointer 0
// is the null pointer (block 0 holds the checkpoint): such entries are
// holes and read as zeros.
func (fl *File) blockForWrite(bi int) ([]byte, error) {
	if b, ok := fl.dirty[bi]; ok {
		return b, nil
	}
	b := make([]byte, BlockSize)
	if bi < len(fl.nd.blocks) && fl.nd.blocks[bi] != 0 {
		if err := fl.fs.dev.Read(int(fl.nd.blocks[bi]), b); err != nil {
			return nil, err
		}
	}
	fl.dirty[bi] = b
	return b, nil
}

// ReadAt reads up to len(buf) bytes from the offset; short reads happen
// at end of file. Pending (unsynced) writes are visible.
func (fl *File) ReadAt(off int64, buf []byte) (int, error) {
	if off < 0 || uint64(off) >= fl.nd.size {
		return 0, nil
	}
	max := fl.nd.size - uint64(off)
	if uint64(len(buf)) > max {
		buf = buf[:max]
	}
	read := 0
	var tmp []byte // disk-read scratch, allocated on the first clean block
	for len(buf) > 0 {
		bi := int(off / BlockSize)
		bo := int(off % BlockSize)
		var n int
		if b, ok := fl.dirty[bi]; ok {
			n = copy(buf, b[bo:])
		} else if bi < len(fl.nd.blocks) && fl.nd.blocks[bi] != 0 {
			if tmp == nil {
				tmp = make([]byte, BlockSize)
			}
			if err := fl.fs.dev.Read(int(fl.nd.blocks[bi]), tmp); err != nil {
				return read, err
			}
			n = copy(buf, tmp[bo:])
		} else {
			n = min(len(buf), BlockSize-bo) // hole (pointer 0 = null)
			clear(buf[:n])
		}
		buf = buf[n:]
		off += int64(n)
		read += n
	}
	return read, nil
}

// Sync appends dirty blocks and the inode to the log, then checkpoints.
func (fl *File) Sync() error {
	if len(fl.dirty) == 0 {
		return nil
	}
	// Grow the block table to cover the file size.
	needed := int((fl.nd.size + BlockSize - 1) / BlockSize)
	for len(fl.nd.blocks) < needed {
		fl.nd.blocks = append(fl.nd.blocks, 0)
	}
	// Deterministic flush order.
	for bi := 0; bi < needed; bi++ {
		b, ok := fl.dirty[bi]
		if !ok {
			continue
		}
		blk, err := fl.fs.appendBlock(b)
		if err != nil {
			return err
		}
		fl.nd.blocks[bi] = blk
	}
	fl.dirty = nil
	if err := fl.fs.writeInode(fl.ino, fl.nd); err != nil {
		return err
	}
	return fl.fs.checkpoint()
}

// Close syncs and releases the handle.
func (fl *File) Close() error { return fl.Sync() }
