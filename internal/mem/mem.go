// Package mem models host physical memory as seen over the PCIe bus:
// a flat little-endian byte-addressable store with a simple physically
// contiguous allocator (standing in for the kernel's DMA-coherent
// allocator that both drivers in the paper rely on).
package mem

import "fmt"

// Addr is a host physical / bus address.
type Addr uint64

// Memory is a flat physical memory. The zero value is unusable; create
// with New. Methods panic on out-of-range accesses — in the modeled
// system those are DMA bugs, and failing loudly is what a real bus
// error would do to the experiment.
type Memory struct {
	data []byte
	// hi is the high-water mark of bytes ever written: every byte at or
	// above it is still zero from make. Allocator.Alloc clears only the
	// part of a region below it.
	hi Addr
}

// New returns a memory of the given size in bytes.
func New(size int) *Memory {
	if size <= 0 {
		panic("mem: non-positive size")
	}
	return &Memory{data: make([]byte, size)}
}

// Size reports the memory size in bytes.
func (m *Memory) Size() int { return len(m.data) }

func (m *Memory) check(a Addr, n int) {
	if n < 0 || uint64(a) > uint64(len(m.data)) || uint64(a)+uint64(n) > uint64(len(m.data)) {
		panic(fmt.Sprintf("mem: access [%#x, %#x+%d) out of range (size %#x)", uint64(a), uint64(a), n, len(m.data)))
	}
}

// wrote checks [a, a+n) and raises the written high-water mark to its
// end.
func (m *Memory) wrote(a Addr, n int) {
	m.check(a, n)
	if end := a + Addr(n); end > m.hi {
		m.hi = end
	}
}

// Read copies n bytes starting at a into a fresh slice.
func (m *Memory) Read(a Addr, n int) []byte {
	m.check(a, n)
	out := make([]byte, n)
	copy(out, m.data[a:])
	return out
}

// ReadInto copies len(dst) bytes starting at a into dst.
func (m *Memory) ReadInto(a Addr, dst []byte) {
	m.check(a, len(dst))
	copy(dst, m.data[a:])
}

// Write copies src into memory at a.
func (m *Memory) Write(a Addr, src []byte) {
	m.wrote(a, len(src))
	copy(m.data[a:], src)
}

// Fill sets n bytes at a to v. Filling with zero leaves the written
// high-water mark where it is: zero bytes are what lies above it.
func (m *Memory) Fill(a Addr, n int, v byte) {
	if v == 0 {
		m.check(a, n)
	} else {
		m.wrote(a, n)
	}
	for i := 0; i < n; i++ {
		m.data[int(a)+i] = v
	}
}

// U8 reads one byte.
func (m *Memory) U8(a Addr) byte {
	m.check(a, 1)
	return m.data[a]
}

// PutU8 writes one byte.
func (m *Memory) PutU8(a Addr, v byte) {
	m.wrote(a, 1)
	m.data[a] = v
}

// U16 reads a little-endian 16-bit value (VirtIO structures are LE).
func (m *Memory) U16(a Addr) uint16 {
	m.check(a, 2)
	return uint16(m.data[a]) | uint16(m.data[a+1])<<8
}

// PutU16 writes a little-endian 16-bit value.
func (m *Memory) PutU16(a Addr, v uint16) {
	m.wrote(a, 2)
	m.data[a] = byte(v)
	m.data[a+1] = byte(v >> 8)
}

// U32 reads a little-endian 32-bit value.
func (m *Memory) U32(a Addr) uint32 {
	m.check(a, 4)
	return uint32(m.data[a]) | uint32(m.data[a+1])<<8 | uint32(m.data[a+2])<<16 | uint32(m.data[a+3])<<24
}

// PutU32 writes a little-endian 32-bit value.
func (m *Memory) PutU32(a Addr, v uint32) {
	m.wrote(a, 4)
	m.data[a] = byte(v)
	m.data[a+1] = byte(v >> 8)
	m.data[a+2] = byte(v >> 16)
	m.data[a+3] = byte(v >> 24)
}

// U64 reads a little-endian 64-bit value.
func (m *Memory) U64(a Addr) uint64 {
	return uint64(m.U32(a)) | uint64(m.U32(a+4))<<32
}

// PutU64 writes a little-endian 64-bit value.
func (m *Memory) PutU64(a Addr, v uint64) {
	m.PutU32(a, uint32(v))
	m.PutU32(a+4, uint32(v>>32))
}

// Allocator hands out physically contiguous, aligned regions from a
// Memory, in the role of dma_alloc_coherent. It is a bump allocator
// with explicit Free support omitted by design: the experiments
// allocate ring and buffer memory once at device bring-up, exactly as
// the drivers under study do.
type Allocator struct {
	mem  *Memory
	next Addr
	end  Addr
}

// NewAllocator returns an allocator over m's range [start, start+size).
func NewAllocator(m *Memory, start Addr, size int) *Allocator {
	if size < 0 || uint64(start)+uint64(size) > uint64(m.Size()) {
		panic("mem: allocator range out of bounds")
	}
	return &Allocator{mem: m, next: start, end: start + Addr(size)}
}

// Alloc returns the address of a zeroed region of n bytes aligned to
// align (which must be a power of two; 0 or 1 means unaligned). Only
// the part of the region below the memory's written high-water mark is
// cleared; the rest has never been written and is still zero from New,
// so a large fresh region is neither looped over nor faulted in. The
// mark covers every write, so a stray DMA write past the bump pointer
// (say, through a corrupted descriptor) is below it and still cleared.
func (al *Allocator) Alloc(n int, align int) Addr {
	if n < 0 {
		panic("mem: negative alloc")
	}
	if align == 0 {
		align = 1
	}
	if align&(align-1) != 0 {
		panic(fmt.Sprintf("mem: alignment %d not a power of two", align))
	}
	a := (al.next + Addr(align-1)) &^ Addr(align-1)
	if uint64(a)+uint64(n) > uint64(al.end) {
		panic(fmt.Sprintf("mem: allocator exhausted (want %d bytes at %#x, end %#x)", n, uint64(a), uint64(al.end)))
	}
	al.next = a + Addr(n)
	if hi := al.mem.hi; a < hi {
		clear(al.mem.data[a:min(hi, al.next)])
	}
	return a
}

// Remaining reports how many bytes are still available (ignoring
// alignment waste of future allocations).
func (al *Allocator) Remaining() int { return int(al.end - al.next) }
