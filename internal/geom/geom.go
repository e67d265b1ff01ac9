// Package geom defines the physical address geometry of the simulated
// machine: a DRAM range at the bottom of the physical address space and an
// NVM range above it, with NVM pages interleaved round-robin across DIMMs
// and grouped into RAID-5-style stripes with a rotating parity page
// (Fig. 3 of the paper).
//
// A stripe s consists of the D consecutive pages [s·D, (s+1)·D); the page at
// in-stripe slot s mod D holds the XOR parity of the other D−1 pages. The
// paper chooses page-granular (not cache-line-granular) interleaving so the
// OS can map contiguous virtual pages to the data pages while skipping
// parity pages; geom provides the O(1) translation between "data page
// index" (the contiguous space files and mappings live in) and physical
// page number.
package geom

import (
	"fmt"
	"math/bits"
)

// Geometry captures the fixed layout parameters. All addresses handled by
// the package are physical byte addresses.
type Geometry struct {
	LineSize int
	PageSize int
	// DRAMBytes spans [0, DRAMBytes); NVM spans [NVMBase, NVMBase+NVMBytes).
	DRAMBytes int
	NVMBytes  int
	DIMMs     int // NVM DIMM count (parity rotates over these)

	// Shift/mask fast paths for the per-access address arithmetic,
	// precomputed by New when the page size or DIMM count is a power of
	// two. A zero-valued Geometry (built as a literal rather than via New)
	// falls back to the generic division forms.
	pageShift uint
	pagePow2  bool
	dimmShift uint
	dimmMask  uint64
	dimmPow2  bool
}

// New validates and returns a Geometry.
func New(lineSize, pageSize, dramBytes, nvmBytes, dimms int) (Geometry, error) {
	g := Geometry{LineSize: lineSize, PageSize: pageSize, DRAMBytes: dramBytes, NVMBytes: nvmBytes, DIMMs: dimms}
	if lineSize <= 0 || pageSize%lineSize != 0 {
		return g, fmt.Errorf("geom: page size %d not a multiple of line size %d", pageSize, lineSize)
	}
	if dimms < 2 {
		return g, fmt.Errorf("geom: need >=2 NVM DIMMs for cross-DIMM parity, got %d", dimms)
	}
	if dramBytes%pageSize != 0 || nvmBytes%(pageSize*dimms) != 0 {
		return g, fmt.Errorf("geom: capacities must be page- and stripe-aligned")
	}
	if ps := uint64(pageSize); ps&(ps-1) == 0 {
		g.pagePow2 = true
		g.pageShift = uint(bits.TrailingZeros64(ps))
	}
	if nd := uint64(dimms); nd&(nd-1) == 0 {
		g.dimmPow2 = true
		g.dimmShift = uint(bits.TrailingZeros64(nd))
		g.dimmMask = nd - 1
	}
	return g, nil
}

// NVMBase is the first NVM physical address.
func (g *Geometry) NVMBase() uint64 { return uint64(g.DRAMBytes) }

// NVMEnd is one past the last NVM physical address.
func (g *Geometry) NVMEnd() uint64 { return uint64(g.DRAMBytes + g.NVMBytes) }

// IsNVM reports whether addr falls in the NVM range.
func (g *Geometry) IsNVM(addr uint64) bool {
	return addr >= g.NVMBase() && addr < g.NVMEnd()
}

// LineAddr rounds addr down to its cache-line base.
func (g *Geometry) LineAddr(addr uint64) uint64 {
	return addr &^ uint64(g.LineSize-1)
}

// LinesPerPage is the number of cache lines in one page.
func (g *Geometry) LinesPerPage() int { return g.PageSize / g.LineSize }

// TotalPages is the number of NVM pages (data + parity).
func (g *Geometry) TotalPages() uint64 { return uint64(g.NVMBytes / g.PageSize) }

// Stripes is the number of parity stripes.
func (g *Geometry) Stripes() uint64 { return g.TotalPages() / uint64(g.DIMMs) }

// DataPages is the number of non-parity NVM pages.
func (g *Geometry) DataPages() uint64 { return g.Stripes() * uint64(g.DIMMs-1) }

// PageOf returns the NVM page number of addr (addr must be in NVM).
func (g *Geometry) PageOf(addr uint64) uint64 {
	if g.pagePow2 {
		return (addr - uint64(g.DRAMBytes)) >> g.pageShift
	}
	return (addr - g.NVMBase()) / uint64(g.PageSize)
}

// PageBase returns the physical address of the first byte of NVM page p.
func (g *Geometry) PageBase(p uint64) uint64 {
	if g.pagePow2 {
		return uint64(g.DRAMBytes) + p<<g.pageShift
	}
	return g.NVMBase() + p*uint64(g.PageSize)
}

// DIMMOf returns the DIMM holding NVM page p under round-robin page
// interleaving.
func (g *Geometry) DIMMOf(p uint64) int {
	if g.dimmPow2 {
		return int(p & g.dimmMask)
	}
	return int(p % uint64(g.DIMMs))
}

// StripeOf returns the stripe containing NVM page p.
func (g *Geometry) StripeOf(p uint64) uint64 {
	if g.dimmPow2 {
		return p >> g.dimmShift
	}
	return p / uint64(g.DIMMs)
}

// ParitySlot returns the in-stripe slot of stripe s that holds parity
// (rotating: s mod D).
func (g *Geometry) ParitySlot(s uint64) int {
	if g.dimmPow2 {
		return int(s & g.dimmMask)
	}
	return int(s % uint64(g.DIMMs))
}

// ParityPage returns the page number of stripe s's parity page.
func (g *Geometry) ParityPage(s uint64) uint64 {
	return s*uint64(g.DIMMs) + uint64(g.ParitySlot(s))
}

// IsParityPage reports whether NVM page p is a parity page.
func (g *Geometry) IsParityPage(p uint64) bool {
	return g.ParitySlot(g.StripeOf(p)) == g.DIMMOf(p)
}

// DataIndexOf returns the contiguous data-page index of NVM page p,
// skipping parity pages. It panics if p is a parity page.
func (g *Geometry) DataIndexOf(p uint64) uint64 {
	s := g.StripeOf(p)
	k := g.DIMMOf(p)
	pi := g.ParitySlot(s)
	if k == pi {
		panic(fmt.Sprintf("geom: page %d is a parity page", p))
	}
	di := s * uint64(g.DIMMs-1)
	if k > pi {
		return di + uint64(k-1)
	}
	return di + uint64(k)
}

// PageOfDataIndex is the inverse of DataIndexOf: it maps a contiguous data
// page index to its physical NVM page number.
func (g *Geometry) PageOfDataIndex(di uint64) uint64 {
	s := di / uint64(g.DIMMs-1)
	r := int(di % uint64(g.DIMMs-1))
	pi := g.ParitySlot(s)
	k := r
	if r >= pi {
		k = r + 1
	}
	return s*uint64(g.DIMMs) + uint64(k)
}

// DataIndexAddr returns the physical address of byte off within the
// contiguous data-page space starting at data index di.
func (g *Geometry) DataIndexAddr(di uint64, off uint64) uint64 {
	if g.pagePow2 {
		page := di + off>>g.pageShift
		return g.PageBase(g.PageOfDataIndex(page)) + off&(uint64(g.PageSize)-1)
	}
	page := di + off/uint64(g.PageSize)
	return g.PageBase(g.PageOfDataIndex(page)) + off%uint64(g.PageSize)
}

// ParityLineAddr returns the physical address of the parity line protecting
// the data line at addr: the same page offset within the stripe's parity
// page.
func (g *Geometry) ParityLineAddr(addr uint64) uint64 {
	p := g.PageOf(addr)
	s := g.StripeOf(p)
	off := addr - g.NVMBase()
	if g.pagePow2 {
		off &= uint64(g.PageSize) - 1
	} else {
		off %= uint64(g.PageSize)
	}
	return g.PageBase(g.ParityPage(s)) + g.LineAddr(off)
}

// SiblingLineAddrs returns the physical addresses of the other data lines
// in addr's parity group: the same page offset in every other non-parity
// page of the stripe. Recovery XORs these with the parity line to
// reconstruct a lost line.
func (g *Geometry) SiblingLineAddrs(addr uint64) []uint64 {
	return g.AppendSiblingLineAddrs(make([]uint64, 0, g.DIMMs-2), addr)
}

// AppendSiblingLineAddrs is SiblingLineAddrs into a caller-owned slice, for
// steady-state paths that must not allocate per line.
func (g *Geometry) AppendSiblingLineAddrs(dst []uint64, addr uint64) []uint64 {
	p := g.PageOf(addr)
	s := g.StripeOf(p)
	off := g.LineAddr((addr - g.NVMBase()) % uint64(g.PageSize))
	pi := g.ParitySlot(s)
	for k := 0; k < g.DIMMs; k++ {
		page := s*uint64(g.DIMMs) + uint64(k)
		if k == pi || page == p {
			continue
		}
		dst = append(dst, g.PageBase(page)+off)
	}
	return dst
}
