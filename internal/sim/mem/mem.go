// Package mem implements the simulated machine's physical memory, a
// page-granular virtual address space, and a kmalloc-style physical page
// allocator including the greedy physically-contiguous allocation algorithm
// from Section IV-D of the nanoBench paper.
package mem

import (
	"encoding/binary"
	"fmt"
)

// PageSize is the page granularity of the simulated MMU.
const PageSize = 4096

// Memory is the physical memory and page table of a simulated machine.
// Virtual addresses are 32-bit (the machine lays out everything below 2 GB
// so absolute disp32 addressing works); physical addresses are 64-bit but
// bounded by the configured physical size.
//
// Both the page table and the physical frames live in two-level
// structures whose leaves (leafEntries entries each) are allocated on
// first use. A page-table leaf is allocated by the first Map into its
// range; an entry holds pfn+1, so the zero value means unmapped. A frame
// leaf and the frame itself are allocated by the first write; reads of
// frames never written return zeros, exactly as if the whole physical
// memory had been zeroed eagerly. Building a Memory therefore costs two
// directories of one pointer per 4 MB (8 KB for the page table's), and a
// machine pays only for the pages a run actually maps and writes.
type Memory struct {
	physSize  uint64
	virtPages uint64
	// pt is the page-table directory: pt[vpn>>leafBits][vpn&leafMask]
	// holds pfn+1, or 0 for unmapped; nil leaves map nothing. It spans
	// the whole 32-bit space, so Translate indexes it without a bounds
	// check; leaves beyond virtPages are never allocated.
	pt [1 << (32 - pageShift - leafBits)]*ptLeaf
	// frames is the frame directory: frames[pfn>>leafBits][pfn&leafMask]
	// is the page backing pfn, nil until first written.
	frames []*frameLeaf
}

const (
	pageShift   = 12 // PageSize == 1<<pageShift
	leafBits    = 10
	leafEntries = 1 << leafBits
	leafMask    = leafEntries - 1
)

type (
	ptLeaf    [leafEntries]uint32
	frameLeaf [leafEntries]*[PageSize]byte
)

// NewMemory creates a memory with the given physical size and virtual
// address-space size, both multiples of the page size.
func NewMemory(physSize, virtSize uint64) (*Memory, error) {
	if physSize%PageSize != 0 || virtSize%PageSize != 0 {
		return nil, fmt.Errorf("mem: sizes must be multiples of the %d-byte page size", PageSize)
	}
	if virtSize > 1<<31 {
		return nil, fmt.Errorf("mem: virtual address space must fit below 2 GB")
	}
	if physSize/PageSize >= 1<<32 {
		return nil, fmt.Errorf("mem: physical memory must hold fewer than 2^32 pages")
	}
	return &Memory{
		physSize:  physSize,
		virtPages: virtSize / PageSize,
		frames:    make([]*frameLeaf, (physSize/PageSize+leafMask)>>leafBits),
	}, nil
}

// PhysSize returns the physical memory size in bytes.
func (m *Memory) PhysSize() uint64 { return m.physSize }

var zeroFrame [PageSize]byte

// readFrame returns the page backing pfn for reading (the shared zero
// frame when untouched).
func (m *Memory) readFrame(pfn uint64) []byte {
	if l := m.frames[pfn>>leafBits]; l != nil {
		if f := l[pfn&leafMask]; f != nil {
			return f[:]
		}
	}
	return zeroFrame[:]
}

// writeFrame returns the page backing pfn for writing, materializing it
// (and its leaf).
func (m *Memory) writeFrame(pfn uint64) []byte {
	l := m.frames[pfn>>leafBits]
	if l == nil {
		l = new(frameLeaf)
		m.frames[pfn>>leafBits] = l
	}
	f := l[pfn&leafMask]
	if f == nil {
		f = new([PageSize]byte)
		l[pfn&leafMask] = f
	}
	return f[:]
}

// physRead copies from physical memory into dst, page by page.
func (m *Memory) physRead(phys uint64, dst []byte) {
	for len(dst) > 0 {
		off := phys % PageSize
		n := copy(dst, m.readFrame(phys / PageSize)[off:])
		dst = dst[n:]
		phys += uint64(n)
	}
}

// physWrite copies src into physical memory, page by page.
func (m *Memory) physWrite(phys uint64, src []byte) {
	for len(src) > 0 {
		off := phys % PageSize
		n := copy(m.writeFrame(phys / PageSize)[off:], src)
		src = src[n:]
		phys += uint64(n)
	}
}

// Map maps size bytes at virtual address virt to physical address phys.
// All three must be page-aligned.
func (m *Memory) Map(virt uint32, phys uint64, size uint64) error {
	if virt%PageSize != 0 || phys%PageSize != 0 || size%PageSize != 0 {
		return fmt.Errorf("mem: Map arguments must be page-aligned")
	}
	if phys > m.physSize || size > m.physSize-phys {
		return fmt.Errorf("mem: mapping beyond physical memory (phys=%#x size=%#x)", phys, size)
	}
	if virtSize := m.virtPages * PageSize; uint64(virt) > virtSize || size > virtSize-uint64(virt) {
		return fmt.Errorf("mem: mapping beyond virtual address space (virt=%#x size=%#x)", virt, size)
	}
	vpn, pfn := uint64(virt)/PageSize, phys/PageSize
	for n := size / PageSize; n > 0; n-- {
		l := m.pt[vpn>>leafBits]
		if l == nil {
			l = new(ptLeaf)
			m.pt[vpn>>leafBits] = l
		}
		l[vpn&leafMask] = uint32(pfn + 1)
		vpn++
		pfn++
	}
	return nil
}

// Unmap removes the mapping for the given virtual range. Pages outside the
// virtual address space and leaves never mapped are skipped.
func (m *Memory) Unmap(virt uint32, size uint64) {
	for off := uint64(0); off < size; off += PageSize {
		vpn := (uint64(virt) + off) / PageSize
		if vpn >= m.virtPages {
			return
		}
		if l := m.pt[vpn>>leafBits]; l != nil {
			l[vpn&leafMask] = 0
		}
	}
}

// Translate translates a virtual address to a physical address.
func (m *Memory) Translate(virt uint32) (uint64, bool) {
	vpn := virt / PageSize
	l := m.pt[vpn>>leafBits]
	if l == nil {
		return 0, false
	}
	e := l[vpn&leafMask]
	if e == 0 {
		return 0, false
	}
	return uint64(e-1)*PageSize + uint64(virt%PageSize), true
}

// translateSpan reports whether the n bytes at virt are virtually mapped to
// physically contiguous memory and translates the base.
func (m *Memory) translateSpan(virt uint32, n int) (uint64, bool) {
	p0, ok := m.Translate(virt)
	if !ok {
		return 0, false
	}
	last := virt + uint32(n) - 1
	if virt/PageSize == last/PageSize {
		return p0, true
	}
	pl, ok := m.Translate(last)
	if !ok {
		return 0, false
	}
	if pl-p0 != uint64(last-virt) {
		return 0, false // spans non-contiguous pages; caller uses slow path
	}
	return p0, true
}

// Read copies n bytes at virtual address virt into dst. It returns false
// on an unmapped access (a simulated fault).
func (m *Memory) Read(virt uint32, dst []byte) bool {
	if p, ok := m.translateSpan(virt, len(dst)); ok {
		m.physRead(p, dst)
		return true
	}
	for i := range dst {
		p, ok := m.Translate(virt + uint32(i))
		if !ok {
			return false
		}
		dst[i] = m.readFrame(p / PageSize)[p%PageSize]
	}
	return true
}

// Write copies src to virtual address virt. It returns false on an
// unmapped access.
func (m *Memory) Write(virt uint32, src []byte) bool {
	if p, ok := m.translateSpan(virt, len(src)); ok {
		m.physWrite(p, src)
		return true
	}
	for i := range src {
		p, ok := m.Translate(virt + uint32(i))
		if !ok {
			return false
		}
		m.writeFrame(p / PageSize)[p%PageSize] = src[i]
	}
	return true
}

// Read64 reads a 64-bit little-endian value at virt.
func (m *Memory) Read64(virt uint32) (uint64, bool) {
	var b [8]byte
	if !m.Read(virt, b[:]) {
		return 0, false
	}
	return binary.LittleEndian.Uint64(b[:]), true
}

// Write64 writes a 64-bit little-endian value at virt.
func (m *Memory) Write64(virt uint32, v uint64) bool {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	return m.Write(virt, b[:])
}

// ReadPhys reads directly from physical memory (used by the kernel-module
// simulation and tests).
func (m *Memory) ReadPhys(phys uint64, dst []byte) error {
	if n := uint64(len(dst)); phys > m.physSize || n > m.physSize-phys {
		return fmt.Errorf("mem: physical read out of range")
	}
	m.physRead(phys, dst)
	return nil
}

// WritePhys writes directly to physical memory.
func (m *Memory) WritePhys(phys uint64, src []byte) error {
	if n := uint64(len(src)); phys > m.physSize || n > m.physSize-phys {
		return fmt.Errorf("mem: physical write out of range")
	}
	m.physWrite(phys, src)
	return nil
}
