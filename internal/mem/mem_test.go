package mem

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestReadWriteRoundTrip(t *testing.T) {
	m := New(1 << 16)
	src := []byte{1, 2, 3, 4, 5}
	m.Write(100, src)
	got := m.Read(100, 5)
	if !bytes.Equal(got, src) {
		t.Fatalf("got %v, want %v", got, src)
	}
	dst := make([]byte, 3)
	m.ReadInto(101, dst)
	if !bytes.Equal(dst, []byte{2, 3, 4}) {
		t.Fatalf("ReadInto got %v", dst)
	}
}

func TestReadIsCopy(t *testing.T) {
	m := New(64)
	m.Write(0, []byte{9})
	got := m.Read(0, 1)
	got[0] = 42
	if m.U8(0) != 9 {
		t.Fatal("Read aliases internal storage")
	}
}

func TestScalarAccessorsLittleEndian(t *testing.T) {
	m := New(64)
	m.PutU16(0, 0x1234)
	if m.U8(0) != 0x34 || m.U8(1) != 0x12 {
		t.Fatal("PutU16 not little-endian")
	}
	if m.U16(0) != 0x1234 {
		t.Fatal("U16 round trip failed")
	}
	m.PutU32(8, 0xdeadbeef)
	if m.U32(8) != 0xdeadbeef {
		t.Fatal("U32 round trip failed")
	}
	if m.U8(8) != 0xef {
		t.Fatal("PutU32 not little-endian")
	}
	m.PutU64(16, 0x0123456789abcdef)
	if m.U64(16) != 0x0123456789abcdef {
		t.Fatal("U64 round trip failed")
	}
	if m.U8(16) != 0xef || m.U8(23) != 0x01 {
		t.Fatal("PutU64 not little-endian")
	}
}

func TestScalarRoundTripProperty(t *testing.T) {
	m := New(1 << 12)
	f16 := func(off uint8, v uint16) bool {
		a := Addr(off) * 2
		m.PutU16(a, v)
		return m.U16(a) == v
	}
	f32 := func(off uint8, v uint32) bool {
		a := Addr(off) * 4
		m.PutU32(a, v)
		return m.U32(a) == v
	}
	f64 := func(off uint8, v uint64) bool {
		a := Addr(off) * 8
		m.PutU64(a, v)
		return m.U64(a) == v
	}
	for _, f := range []any{f16, f32, f64} {
		if err := quick.Check(f, nil); err != nil {
			t.Error(err)
		}
	}
}

func TestFill(t *testing.T) {
	m := New(32)
	m.Fill(4, 8, 0xaa)
	for i := 0; i < 32; i++ {
		want := byte(0)
		if i >= 4 && i < 12 {
			want = 0xaa
		}
		if m.U8(Addr(i)) != want {
			t.Fatalf("byte %d = %#x, want %#x", i, m.U8(Addr(i)), want)
		}
	}
}

func TestOutOfRangePanics(t *testing.T) {
	m := New(16)
	cases := []func(){
		func() { m.Read(8, 9) },
		func() { m.Write(16, []byte{1}) },
		func() { m.U32(13) },
		func() { m.PutU64(9, 0) },
		func() { m.ReadInto(0, make([]byte, 17)) },
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			fn()
		}()
	}
}

func TestAllocatorAlignment(t *testing.T) {
	m := New(1 << 16)
	al := NewAllocator(m, 16, 1<<15)
	a := al.Alloc(10, 64)
	if a%64 != 0 {
		t.Fatalf("addr %#x not 64-aligned", uint64(a))
	}
	b := al.Alloc(1, 4096)
	if b%4096 != 0 {
		t.Fatalf("addr %#x not page-aligned", uint64(b))
	}
	if b < a+10 {
		t.Fatal("allocations overlap")
	}
}

func TestAllocatorZeroesAndExhausts(t *testing.T) {
	m := New(256)
	m.Fill(0, 256, 0xff)
	al := NewAllocator(m, 0, 256)
	a := al.Alloc(16, 16)
	for i := 0; i < 16; i++ {
		if m.U8(a+Addr(i)) != 0 {
			t.Fatal("alloc did not zero region")
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("expected exhaustion panic")
		}
	}()
	al.Alloc(1024, 1)
}

func TestAllocatorProperty(t *testing.T) {
	f := func(sizes []uint8) bool {
		m := New(1 << 20)
		al := NewAllocator(m, 0, 1<<20)
		type region struct{ a, n Addr }
		var regs []region
		for _, sz := range sizes {
			n := int(sz)%512 + 1
			align := 1 << (int(sz) % 8)
			a := al.Alloc(n, align)
			if int(a)%align != 0 {
				return false
			}
			for _, r := range regs {
				if a < r.a+r.n && r.a < a+Addr(n) {
					return false // overlap
				}
			}
			regs = append(regs, region{a, Addr(n)})
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestAllocatorBadAlignPanics(t *testing.T) {
	m := New(64)
	al := NewAllocator(m, 0, 64)
	defer func() {
		if recover() == nil {
			t.Error("expected panic for non-power-of-two alignment")
		}
	}()
	al.Alloc(4, 3)
}

func TestAllocatorRemaining(t *testing.T) {
	m := New(128)
	al := NewAllocator(m, 0, 128)
	if al.Remaining() != 128 {
		t.Fatalf("remaining = %d", al.Remaining())
	}
	al.Alloc(28, 1)
	if al.Remaining() != 100 {
		t.Fatalf("remaining = %d, want 100", al.Remaining())
	}
}

// TestAllocatorLeavesMarkUntouched: allocating never counts as a write,
// so the regions of a fresh memory stay above the mark and are not
// cleared.
func TestAllocatorLeavesMarkUntouched(t *testing.T) {
	m := New(1 << 16)
	al := NewAllocator(m, 0x100, 1<<15)
	al.Alloc(4096, 64)
	al.Alloc(100, 1)
	if m.hi != 0 {
		t.Fatalf("mark = %#x after Allocs on fresh memory, want 0", uint64(m.hi))
	}
	a := al.Alloc(64, 64)
	m.PutU32(a, 1)
	if want := a + 4; m.hi != want {
		t.Fatalf("mark = %#x after PutU32, want %#x", uint64(m.hi), uint64(want))
	}
	al.Alloc(64, 64)
	if want := a + 4; m.hi != want {
		t.Fatalf("mark = %#x after a later Alloc, want %#x", uint64(m.hi), uint64(want))
	}
}

// TestAllocatorClearsStrayWrites: a DMA write past the bump pointer
// (as through a corrupted descriptor) lies below the mark, so the Alloc
// that later hands out those bytes still returns them zeroed.
func TestAllocatorClearsStrayWrites(t *testing.T) {
	m := New(1 << 16)
	al := NewAllocator(m, 0x1000, 1<<14)
	first := al.Alloc(256, 64)
	m.Write(first, bytes.Repeat([]byte{0xee}, 256))
	m.Write(0x2000, []byte{1, 2, 3, 4, 5})
	m.PutU32(0x3000, 0xdeadbeef)
	m.PutU16(0x3100, 0xbeef)
	m.PutU8(0x3200, 0x7f)
	r := al.Alloc(0x3000, 1) // spans every stray write
	for i := 0; i < 0x3000; i++ {
		if b := m.U8(r + Addr(i)); b != 0 {
			t.Fatalf("byte %#x of the new region = %#x, want 0", uint64(r)+uint64(i), b)
		}
	}
	if m.U8(first) != 0xee {
		t.Fatal("Alloc cleared bytes of an earlier region")
	}
}

// TestFillMark: a non-zero Fill raises the mark; a zero Fill does not,
// since the bytes above the mark are zero already.
func TestFillMark(t *testing.T) {
	m := New(256)
	m.Fill(0, 200, 0)
	if m.hi != 0 {
		t.Fatalf("mark = %d after a zero Fill, want 0", m.hi)
	}
	m.Fill(10, 20, 0xaa)
	if m.hi != 30 {
		t.Fatalf("mark = %d after Fill(10, 20, 0xaa), want 30", m.hi)
	}
	m.Fill(0, 100, 0)
	if m.hi != 30 {
		t.Fatalf("mark = %d after a zero Fill below it, want 30", m.hi)
	}
}
