package mem

import (
	"errors"
	"math/rand"
	"testing"
)

func newTestMem(t *testing.T) *Memory {
	t.Helper()
	m, err := NewMemory(16<<20, 8<<20)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestMapTranslate(t *testing.T) {
	m := newTestMem(t)
	if err := m.Map(0x10000, 0x200000, 0x2000); err != nil {
		t.Fatal(err)
	}
	p, ok := m.Translate(0x10004)
	if !ok || p != 0x200004 {
		t.Fatalf("Translate = %#x, %v", p, ok)
	}
	p, ok = m.Translate(0x11FFF)
	if !ok || p != 0x201FFF {
		t.Fatalf("Translate end = %#x, %v", p, ok)
	}
	if _, ok := m.Translate(0x12000); ok {
		t.Fatal("expected unmapped past end")
	}
	m.Unmap(0x10000, 0x1000)
	if _, ok := m.Translate(0x10000); ok {
		t.Fatal("expected unmapped after Unmap")
	}
	if _, ok := m.Translate(0x11000); !ok {
		t.Fatal("second page should stay mapped")
	}
}

func TestMapValidation(t *testing.T) {
	m := newTestMem(t)
	if err := m.Map(0x10001, 0x200000, 0x1000); err == nil {
		t.Error("expected unaligned virt error")
	}
	if err := m.Map(0x10000, 0x200000, 0x10000000); err == nil {
		t.Error("expected out-of-phys error")
	}
	if err := m.Map(0x7FF000, 0x200000, 0x10000); err == nil {
		t.Error("expected out-of-virt error")
	}
	if _, err := NewMemory(100, 4096); err == nil {
		t.Error("expected unaligned size error")
	}
}

func TestReadWrite(t *testing.T) {
	m := newTestMem(t)
	if err := m.Map(0x10000, 0x200000, 0x2000); err != nil {
		t.Fatal(err)
	}
	if !m.Write64(0x10010, 0xDEADBEEFCAFE) {
		t.Fatal("write failed")
	}
	v, ok := m.Read64(0x10010)
	if !ok || v != 0xDEADBEEFCAFE {
		t.Fatalf("Read64 = %#x, %v", v, ok)
	}
	// Cross-page contiguous access.
	if !m.Write64(0x10FFC, 0x1122334455667788) {
		t.Fatal("cross-page write failed")
	}
	v, ok = m.Read64(0x10FFC)
	if !ok || v != 0x1122334455667788 {
		t.Fatalf("cross-page Read64 = %#x", v)
	}
	// Cross-page onto unmapped page.
	if m.Write64(0x11FFC, 1) {
		t.Fatal("write spanning unmapped page should fail")
	}
	if _, ok := m.Read64(0x7000); ok {
		t.Fatal("read of unmapped address should fail")
	}
}

func TestNonContiguousSpan(t *testing.T) {
	m := newTestMem(t)
	// Map two virtual pages to non-adjacent physical pages.
	if err := m.Map(0x20000, 0x300000, 0x1000); err != nil {
		t.Fatal(err)
	}
	if err := m.Map(0x21000, 0x500000, 0x1000); err != nil {
		t.Fatal(err)
	}
	if !m.Write64(0x20FFC, 0xAABBCCDDEEFF0011) {
		t.Fatal("span write failed")
	}
	v, ok := m.Read64(0x20FFC)
	if !ok || v != 0xAABBCCDDEEFF0011 {
		t.Fatalf("span Read64 = %#x", v)
	}
	// The bytes must be split across the two physical pages.
	var lo [4]byte
	if err := m.ReadPhys(0x300FFC, lo[:]); err != nil {
		t.Fatal(err)
	}
	var hi [4]byte
	if err := m.ReadPhys(0x500000, hi[:]); err != nil {
		t.Fatal(err)
	}
	if lo[0] != 0x11 || hi[0] != 0xDD {
		t.Fatalf("split bytes lo=%x hi=%x", lo, hi)
	}
}

func TestKmallocAdjacencyAfterReboot(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := NewAllocator(64<<20, 1<<20, rng)
	p1, err := a.Kmalloc(KmallocMax)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := a.Kmalloc(KmallocMax)
	if err != nil {
		t.Fatal(err)
	}
	if p2 != p1+KmallocMax {
		t.Fatalf("fresh allocator not adjacent: %#x then %#x", p1, p2)
	}
	if p1 < 1<<20 {
		t.Fatalf("allocation in reserved region: %#x", p1)
	}
}

func TestKmallocLimits(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := NewAllocator(16<<20, 0, rng)
	if _, err := a.Kmalloc(KmallocMax + 1); err == nil {
		t.Error("expected error above KmallocMax")
	}
	if _, err := a.Kmalloc(0); err == nil {
		t.Error("expected error for zero size")
	}
	// Exhaust memory.
	for i := 0; i < 4; i++ {
		if _, err := a.Kmalloc(KmallocMax); err != nil {
			t.Fatalf("allocation %d failed: %v", i, err)
		}
	}
	if _, err := a.Kmalloc(KmallocMax); err == nil {
		t.Error("expected out-of-memory")
	}
}

func TestFreeAndReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := NewAllocator(16<<20, 0, rng)
	p, err := a.Kmalloc(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	before := a.FreePages()
	a.Free(p, 1<<20)
	after := a.FreePages()
	if after-before != (1<<20)/PageSize {
		t.Fatalf("Free released %d pages, want %d", after-before, (1<<20)/PageSize)
	}
}

func TestAllocContiguousLarge(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := NewAllocator(128<<20, 1<<20, rng)
	base, err := a.AllocContiguous(32 << 20)
	if err != nil {
		t.Fatalf("AllocContiguous(32MB): %v", err)
	}
	_ = base
}

func TestAllocContiguousFragmented(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := NewAllocator(128<<20, 1<<20, rng)
	a.Fragment(0.02) // a few holes break every 4 MB run
	_, err := a.AllocContiguous(32 << 20)
	if !errors.Is(err, ErrRebootRequired) {
		t.Fatalf("fragmented AllocContiguous: err = %v, want ErrRebootRequired", err)
	}
	// The paper's remedy: reboot, then retry.
	a.Reboot()
	if _, err := a.AllocContiguous(32 << 20); err != nil {
		t.Fatalf("after reboot: %v", err)
	}
}

// The range checks must not wrap: phys+len overflowing uint64 used to
// pass the check and index out of range (or map garbage frames).
func TestPhysRangeChecksDoNotWrap(t *testing.T) {
	m := newTestMem(t)
	var buf [8]byte
	if err := m.ReadPhys(^uint64(0)-3, buf[:]); err == nil {
		t.Error("ReadPhys with a wrapping range: expected an error")
	}
	if err := m.WritePhys(^uint64(0)-3, buf[:]); err == nil {
		t.Error("WritePhys with a wrapping range: expected an error")
	}
	if err := m.Map(0x10000, ^uint64(0)&^(PageSize-1), 2*PageSize); err == nil {
		t.Error("Map with a wrapping physical range: expected an error")
	}
	if _, ok := m.Translate(0x10000); ok {
		t.Error("rejected Map left a mapping behind")
	}
	// The last bytes of physical memory stay reachable.
	if err := m.WritePhys(m.PhysSize()-8, []byte{1, 2, 3, 4, 5, 6, 7, 8}); err != nil {
		t.Fatal(err)
	}
	if err := m.ReadPhys(m.PhysSize()-8, buf[:]); err != nil || buf[7] != 8 {
		t.Fatalf("ReadPhys at the top = %v, %v", buf, err)
	}
	if err := m.ReadPhys(m.PhysSize()-7, buf[:]); err == nil {
		t.Error("ReadPhys one byte past the top: expected an error")
	}
}

// The test memory's page-table leaves each cover 4 MB of virtual space,
// and its frame leaves 4 MB of physical memory.
const leafSpan = leafEntries * PageSize

func TestMapAcrossLeafBoundary(t *testing.T) {
	m := newTestMem(t)
	virt := uint32(leafSpan - 2*PageSize)
	if err := m.Map(virt, leafSpan-2*PageSize, 4*PageSize); err != nil {
		t.Fatal(err)
	}
	for i := uint32(0); i < 4; i++ {
		p, ok := m.Translate(virt + i*PageSize + 8)
		if want := uint64(virt + i*PageSize + 8); !ok || p != want {
			t.Fatalf("page %d: Translate = %#x, %v; want %#x", i, p, ok, want)
		}
	}
	m.Unmap(virt+PageSize, 2*PageSize)
	for i, want := range []bool{true, false, false, true} {
		if _, ok := m.Translate(virt + uint32(i)*PageSize); ok != want {
			t.Fatalf("page %d after Unmap: mapped = %v, want %v", i, ok, want)
		}
	}
}

func TestLastVirtualPage(t *testing.T) {
	m := newTestMem(t)
	last := uint32(8<<20 - PageSize)
	if err := m.Map(last, 0x100000, PageSize); err != nil {
		t.Fatalf("mapping the last virtual page: %v", err)
	}
	if p, ok := m.Translate(last + PageSize - 1); !ok || p != 0x100FFF {
		t.Fatalf("Translate(last byte) = %#x, %v", p, ok)
	}
	if err := m.Map(last+PageSize, 0x200000, PageSize); err == nil {
		t.Error("mapping one page past the virtual space: expected an error")
	}
	if err := m.Map(last, 0x200000, 2*PageSize); err == nil {
		t.Error("mapping across the end of the virtual space: expected an error")
	}
	for _, v := range []uint32{last + PageSize, 1 << 31, ^uint32(0)} {
		if _, ok := m.Translate(v); ok {
			t.Errorf("Translate(%#x) outside the virtual space succeeded", v)
		}
	}
	if p, _ := m.Translate(last); p != 0x100000 {
		t.Fatalf("rejected Maps changed the last page: %#x", p)
	}
}

func TestUnmapUnallocatedLeaf(t *testing.T) {
	m := newTestMem(t)
	if err := m.Map(0x10000, 0x200000, PageSize); err != nil {
		t.Fatal(err)
	}
	m.Unmap(leafSpan, leafSpan)
	m.Unmap(8<<20-PageSize, 4*PageSize) // runs past the virtual space
	if m.pt[1] != nil {
		t.Error("Unmap allocated a page-table leaf")
	}
	if _, ok := m.Translate(0x10000); !ok {
		t.Error("Unmap of an unallocated leaf removed an unrelated mapping")
	}
}

func TestUnwrittenFramesReadZero(t *testing.T) {
	m := newTestMem(t)
	if err := m.Map(0x10000, leafSpan-PageSize, 2*PageSize); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	for i := range buf {
		buf[i] = 0xAA
	}
	if !m.Read(0x10FE0, buf) {
		t.Fatal("Read of mapped, never-written pages failed")
	}
	phys := make([]byte, 64)
	if err := m.ReadPhys(m.PhysSize()-64, phys); err != nil {
		t.Fatal(err)
	}
	for i := range buf {
		if buf[i] != 0 || phys[i] != 0 {
			t.Fatalf("byte %d of an unwritten frame = %#x/%#x, want 0", i, buf[i], phys[i])
		}
	}
	for i, l := range m.frames {
		if l != nil {
			t.Errorf("reads allocated frame leaf %d", i)
		}
	}
}

func TestReadWriteAcrossLeaves(t *testing.T) {
	// virt spans the boundary between page-table leaves 0 and 1.
	virt := uint32(leafSpan - PageSize)
	for _, tc := range []struct {
		name   string
		lo, hi uint64 // physical pages behind virt and virt+PageSize
	}{
		{"contiguous", leafSpan - PageSize, leafSpan},
		{"non-contiguous", 0x100000, 2*leafSpan + 0x5000},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := newTestMem(t)
			if err := m.Map(virt, tc.lo, PageSize); err != nil {
				t.Fatal(err)
			}
			if err := m.Map(virt+PageSize, tc.hi, PageSize); err != nil {
				t.Fatal(err)
			}
			src := []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}
			if !m.Write(virt+PageSize-4, src) {
				t.Fatal("spanning Write failed")
			}
			got := make([]byte, len(src))
			if !m.Read(virt+PageSize-4, got) || string(got) != string(src) {
				t.Fatalf("spanning Read = %v, want %v", got, src)
			}
			var lo [4]byte
			var hi [8]byte
			if err := m.ReadPhys(tc.lo+PageSize-4, lo[:]); err != nil {
				t.Fatal(err)
			}
			if err := m.ReadPhys(tc.hi, hi[:]); err != nil {
				t.Fatal(err)
			}
			if string(lo[:]) != string(src[:4]) || string(hi[:]) != string(src[4:]) {
				t.Fatalf("physical bytes lo=%v hi=%v, want %v", lo, hi, src)
			}
		})
	}
}
