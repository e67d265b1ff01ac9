// Package core implements TVARAK, the paper's contribution: a software-
// managed hardware controller co-located with the LLC bank controllers
// that maintains system-checksums and cross-DIMM parity for DAX-mapped NVM
// data (Fig. 7).
//
// One logical controller instance serves all banks; it keeps one
// on-controller redundancy cache per bank (4 KB each) plus the address-range
// comparators the file system programs when it DAX-maps a file. Redundancy
// information (DAX-CL-checksum lines and parity lines) is cached in the
// on-controller caches, backed inclusively by a reserved LLC way-partition;
// data diffs (old clean copies of dirtied lines) live in a second reserved
// partition. Controllers share redundancy lines with an invalidation-based
// (MESI-style) protocol.
//
// The controller verifies a DAX-CL-checksum on every NVM→LLC fill of
// DAX-mapped data and updates checksum + parity on every LLC→NVM writeback.
// On a verification mismatch it reconstructs the line from the stripe's
// parity and sibling lines, repairs media, and delivers the recovered data.
//
// The three design elements of Fig. 9 (DAX-CL-checksums, redundancy
// caching, data diffs) can be disabled independently via
// param.TvarakFeatures to reproduce the ablation; with all three disabled
// the controller degenerates to the naive design of Fig. 4 (page-granular
// checksums, every redundancy access straight to NVM, old data re-read from
// NVM).
package core

import (
	"fmt"

	"tvarak/internal/cache"
	"tvarak/internal/nvm"
	"tvarak/internal/obs"
	"tvarak/internal/param"
	"tvarak/internal/sim"
	"tvarak/internal/stats"
	"tvarak/internal/xsum"
)

// Mapping describes one DAX-mapped range registered by the file system:
// Pages data pages starting at data-page index StartDI, with a
// DAX-CL-checksum region (4 B per line, packed into 64 B checksum lines)
// occupying data pages starting at CsumDI.
type Mapping struct {
	Name    string
	StartDI uint64
	Pages   uint64
	CsumDI  uint64
}

// Controller is the TVARAK controller complex.
type Controller struct {
	eng *sim.Engine
	p   param.TvarakParams

	mappings []Mapping
	// pageCsumDI is the data-page index of the file system's global
	// per-page checksum table (4 B per data page), used in naive
	// (page-granular) mode.
	pageCsumDI    uint64
	havePageCsums bool

	onCtrl  []*cache.Cache
	holders map[uint64]uint64 // redundancy line addr → bitmask of banks caching it

	redLo, redHi   int // LLC redundancy partition way range
	diffLo, diffHi int

	lineSize int

	// CorruptionHook, when set, observes every detected corruption
	// (fault-injection tests and tools use it).
	CorruptionHook func(addr uint64)

	scratchOld    []byte
	scratchSib    []byte
	scratchRec    []byte
	scratchNoCash []byte
	scratchFill   []byte
	pageBuf       []byte
}

// New builds the controller for eng using eng's configured TvarakParams and
// attaches it to the engine.
func New(eng *sim.Engine) *Controller {
	cfg := eng.Cfg
	p := cfg.Tvarak
	t := &Controller{
		eng:           eng,
		p:             p,
		holders:       make(map[uint64]uint64),
		lineSize:      cfg.LineSize,
		scratchOld:    make([]byte, cfg.LineSize),
		scratchSib:    make([]byte, cfg.LineSize),
		scratchRec:    make([]byte, cfg.LineSize),
		scratchNoCash: make([]byte, cfg.LineSize),
		scratchFill:   make([]byte, cfg.LineSize),
		pageBuf:       make([]byte, cfg.PageSize),
	}
	dataWays := cfg.DataWays()
	t.redLo, t.redHi = dataWays, dataWays
	if p.Features.RedundancyCaching {
		t.redHi = dataWays + p.RedundancyWays
	}
	t.diffLo, t.diffHi = t.redHi, t.redHi
	if p.Features.DataDiffs {
		t.diffHi = t.redHi + p.DiffWays
	}
	if p.Features.RedundancyCaching {
		t.onCtrl = make([]*cache.Cache, len(eng.Banks))
		lines := p.OnCtrlCacheBytes / cfg.LineSize
		for i := range t.onCtrl {
			// The 4 KB on-controller cache is small enough to model as
			// fully associative (64 lines).
			t.onCtrl[i] = cache.New(1, lines, cfg.LineSize, 1)
		}
	}
	eng.SetRedundancy(t)
	return t
}

// RegisterMapping programs the controller's comparators for a newly
// DAX-mapped range. The file system calls this from mmap.
func (t *Controller) RegisterMapping(m Mapping) {
	t.mappings = append(t.mappings, m)
}

// UnregisterMapping removes a mapping at munmap time.
func (t *Controller) UnregisterMapping(name string) {
	for i, m := range t.mappings {
		if m.Name == name {
			t.mappings = append(t.mappings[:i], t.mappings[i+1:]...)
			return
		}
	}
}

// SetPageCsumTable tells the controller where the file system keeps its
// global per-page checksum table, needed only in naive (page-granular
// checksum) mode.
func (t *Controller) SetPageCsumTable(startDI uint64) {
	t.pageCsumDI = startDI
	t.havePageCsums = true
}

// match runs the address-range comparators: it returns the mapping covering
// the DAX data line at addr, or nil.
func (t *Controller) match(addr uint64) *Mapping {
	geo := &t.eng.Geo
	if !geo.IsNVM(addr) {
		return nil
	}
	page := geo.PageOf(addr)
	if geo.IsParityPage(page) {
		return nil
	}
	di := geo.DataIndexOf(page)
	for i := range t.mappings {
		m := &t.mappings[i]
		if di >= m.StartDI && di < m.StartDI+m.Pages {
			return m
		}
	}
	return nil
}

// csumSlot returns the checksum line address and packed slot index of the
// DAX-CL-checksum for data line addr under mapping m.
func (t *Controller) csumSlot(m *Mapping, addr uint64) (lineAddr uint64, slot int) {
	geo := &t.eng.Geo
	di := geo.DataIndexOf(geo.PageOf(addr))
	lineIdx := (di-m.StartDI)*uint64(geo.LinesPerPage()) +
		((addr-geo.NVMBase())%uint64(geo.PageSize))/uint64(geo.LineSize)
	byteOff := lineIdx * xsum.Size
	a := geo.DataIndexAddr(m.CsumDI, byteOff)
	return geo.LineAddr(a), int(a%uint64(t.lineSize)) / xsum.Size
}

// pageCsumSlot returns the checksum line address and slot of the per-page
// system-checksum for the page holding addr (naive mode).
func (t *Controller) pageCsumSlot(addr uint64) (lineAddr uint64, slot int) {
	if !t.havePageCsums {
		panic("core: page-granular mode without a page checksum table")
	}
	geo := &t.eng.Geo
	di := geo.DataIndexOf(geo.PageOf(addr))
	a := geo.DataIndexAddr(t.pageCsumDI, di*xsum.Size)
	return geo.LineAddr(a), int(a%uint64(t.lineSize)) / xsum.Size
}

// ---------------------------------------------------------------------------
// Redundancy line access path: on-controller cache → LLC partition → NVM
// ---------------------------------------------------------------------------

// redLine is a handle to a redundancy line obtained by redGet. With
// redundancy caching the Data slice aliases the cached line, so mutations
// followed by redPut implement the read-modify-write. Without caching the
// Data slice is scratch and redPut writes it through to NVM.
type redLine struct {
	Data   []byte
	addr   uint64
	cached *cache.Line
}

// redGet acquires the redundancy line at addr for bank's controller,
// exclusively among controllers. lat accrues the access latency (only the
// fill/verification path cares; writeback callers pass a throwaway).
func (t *Controller) redGet(now uint64, bank int, addr uint64, lat *uint64) redLine {
	if !t.p.Features.RedundancyCaching {
		buf := t.scratchNoCash
		done, _ := t.eng.NVM.ReadLine(now, addr, nvm.Redundancy, buf)
		*lat += done - now
		return redLine{Data: buf, addr: addr}
	}
	oc := t.onCtrl[bank]
	*lat += t.p.OnCtrlLatencyCyc
	if l := oc.Lookup(addr, 0, oc.Ways()); l != nil {
		t.eng.St.AddCache(stats.TvarakCache, true, t.p.OnCtrlHitEnergyPJ)
		oc.Touch(l)
		t.claimExclusive(now, addr, bank)
		return redLine{Data: l.Data, addr: addr, cached: l}
	}
	t.eng.St.AddCache(stats.TvarakCache, false, t.p.OnCtrlMissEnergyPJ)
	// Another controller may hold a newer (dirty) copy: write it back to
	// the LLC partition and invalidate it before we read.
	t.claimExclusive(now, addr, bank)
	ll := t.llcRedGet(now, addr, lat)
	v := oc.Victim(addr, 0, oc.Ways())
	if v.State != cache.Invalid {
		t.evictOnCtrl(bank, v)
	}
	oc.Install(v, addr, ll.Data, cache.Shared)
	t.holders[addr] |= 1 << uint(bank)
	return redLine{Data: v.Data, addr: addr, cached: v}
}

// redPut publishes a mutated redundancy line: mark dirty when cached,
// write through to NVM when caching is disabled.
func (t *Controller) redPut(now uint64, rl redLine) {
	if rl.cached != nil {
		rl.cached.State = cache.Modified
		return
	}
	t.eng.NVM.WriteLine(now, rl.addr, nvm.Redundancy, rl.Data)
}

// claimExclusive invalidates every other bank's on-controller copy of addr,
// first folding a dirty copy back into the LLC partition (MESI M→I with
// writeback).
func (t *Controller) claimExclusive(now uint64, addr uint64, bank int) {
	hs := t.holders[addr] &^ (1 << uint(bank))
	if hs == 0 {
		return
	}
	for b := 0; hs != 0; b++ {
		if hs&(1<<uint(b)) == 0 {
			continue
		}
		hs &^= 1 << uint(b)
		oc := t.onCtrl[b]
		l := oc.Lookup(addr, 0, oc.Ways())
		if l == nil {
			continue
		}
		if l.Dirty() {
			t.copyBackToLLC(l)
		}
		oc.Invalidate(l)
		t.eng.St.RedInvalidations++
		t.eng.Emit(obs.EvRedInval, now, addr, uint64(b))
	}
	t.holders[addr] &= 1 << uint(bank)
}

// copyBackToLLC folds a dirty on-controller line into its inclusive LLC
// partition copy.
func (t *Controller) copyBackToLLC(l *cache.Line) {
	b := t.eng.Bank(l.Addr)
	ll := b.Lookup(l.Addr, t.redLo, t.redHi)
	if ll == nil {
		panic(fmt.Sprintf("core: on-controller/LLC redundancy inclusion violated for %#x", l.Addr))
	}
	copy(ll.Data, l.Data)
	ll.State = cache.Modified
	t.eng.St.AddCache(stats.LLC, true, t.eng.Cfg.LLCBank.HitEnergyPJ)
}

// evictOnCtrl frees one on-controller way, folding dirty content back into
// the LLC partition.
func (t *Controller) evictOnCtrl(bank int, v *cache.Line) {
	if v.Dirty() {
		t.copyBackToLLC(v)
	}
	t.holders[v.Addr] &^= 1 << uint(bank)
	t.onCtrl[bank].Invalidate(v)
}

// llcRedGet reads the redundancy line at addr from its home bank's LLC
// redundancy partition, filling from NVM on a miss.
func (t *Controller) llcRedGet(now uint64, addr uint64, lat *uint64) *cache.Line {
	cfg := t.eng.Cfg
	b := t.eng.Bank(addr)
	*lat += cfg.LLCBank.LatencyCyc
	if l := b.Lookup(addr, t.redLo, t.redHi); l != nil {
		t.eng.St.AddCache(stats.LLC, true, cfg.LLCBank.HitEnergyPJ)
		b.Touch(l)
		return l
	}
	t.eng.St.AddCache(stats.LLC, false, cfg.LLCBank.MissEnergyPJ)
	// Install copies, so the fill scratch never escapes this call.
	buf := t.scratchFill
	done, _ := t.eng.NVM.ReadLine(now, addr, nvm.Redundancy, buf)
	*lat += done - now
	v := b.Victim(addr, t.redLo, t.redHi)
	if v.State != cache.Invalid {
		t.evictRedLLC(now, v)
	}
	b.Install(v, addr, buf, cache.Shared)
	return v
}

// evictRedLLC evicts an LLC redundancy-partition line: pulls any dirty
// on-controller copy (inclusivity), then writes dirty content to NVM.
func (t *Controller) evictRedLLC(now uint64, v *cache.Line) {
	if hs := t.holders[v.Addr]; hs != 0 {
		for b := 0; hs != 0; b++ {
			if hs&(1<<uint(b)) == 0 {
				continue
			}
			hs &^= 1 << uint(b)
			oc := t.onCtrl[b]
			if l := oc.Lookup(v.Addr, 0, oc.Ways()); l != nil {
				if l.Dirty() {
					copy(v.Data, l.Data)
					v.State = cache.Modified
				}
				oc.Invalidate(l)
				t.eng.St.RedInvalidations++
				t.eng.Emit(obs.EvRedInval, now, v.Addr, uint64(b))
			}
		}
		delete(t.holders, v.Addr)
	}
	if v.Dirty() {
		t.eng.NVM.WriteLine(now, v.Addr, nvm.Redundancy, v.Data)
	}
	t.eng.Bank(v.Addr).Invalidate(v)
}
