package core

import (
	"fmt"

	"tvarak/internal/cache"
	"tvarak/internal/nvm"
	"tvarak/internal/obs"
	"tvarak/internal/stats"
	"tvarak/internal/xsum"
)

// OnFill implements sim.RedundancyController: it verifies the system-
// checksum of every DAX-mapped line read from NVM into the LLC, recovering
// from parity on a mismatch. The checksum access starts at issue time and
// overlaps the data read (Fig. 5), so only latency beyond the data's
// arrival (complete) is returned.
func (t *Controller) OnFill(issue, complete uint64, addr uint64, data []byte) uint64 {
	m := t.match(addr)
	if m == nil {
		return 0 // comparator mismatch resolves well within the data read
	}
	bank := t.eng.BankIndex(addr)
	lat := t.p.MatchLatencyCyc
	if t.p.Features.CacheLineChecksums {
		csAddr, slot := t.csumSlot(m, addr)
		rl := t.redGet(issue, bank, csAddr, &lat)
		want := xsum.Get(rl.Data, slot)
		// The verify computation needs both the data and its checksum.
		done := max(complete, issue+lat) + t.p.ComputeLatencyCyc
		if xsum.Checksum(data) != want {
			var rlat uint64
			t.recoverLine(done, bank, addr, data, want, &rlat)
			done += rlat
		}
		return done - complete
	}
	// Naive page-granular mode (Fig. 4): verifying one line requires
	// reading the rest of its page to recompute the page checksum.
	// The page reads start at issue time, in parallel with the demand read.
	done := t.verifyPageGranular(issue, complete, bank, addr, data)
	return done - complete
}

// verifyPageGranular checks the per-page system-checksum covering addr,
// reading the page's other lines from NVM starting at issue time. data is
// the just-read content of addr's line; on a mismatch the whole page is
// reconstructed from parity and data receives the recovered line. Returns
// the cycle at which the verified line can be handed over.
func (t *Controller) verifyPageGranular(issue, complete uint64, bank int, addr uint64, data []byte) uint64 {
	geo := &t.eng.Geo
	base := geo.PageBase(geo.PageOf(addr))
	off := int(addr - base)
	ls := t.lineSize
	ready := complete
	for i := 0; i < geo.LinesPerPage(); i++ {
		la := base + uint64(i*ls)
		if la == addr {
			copy(t.pageBuf[i*ls:], data)
			continue
		}
		done, _ := t.eng.NVM.ReadLine(issue, la, nvm.Redundancy, t.pageBuf[i*ls:(i+1)*ls])
		ready = max(ready, done)
	}
	var lat uint64 = t.p.MatchLatencyCyc
	psAddr, slot := t.pageCsumSlot(addr)
	rl := t.redGet(issue, bank, psAddr, &lat)
	ready = max(ready, issue+lat) + t.p.ComputeLatencyCyc
	want := xsum.Get(rl.Data, slot)
	if xsum.Checksum(t.pageBuf) != want {
		var rlat uint64
		t.recoverPage(ready, bank, base, want, &rlat)
		ready += rlat
		copy(data, t.pageBuf[off:off+ls])
	}
	return ready
}

// OnDirtyInstall implements sim.RedundancyController: when a clean LLC line
// holding DAX data first receives dirty content, stash its old (persisted)
// content in the data-diff partition so the eventual writeback can update
// parity incrementally. A full diff set forces an early writeback of the
// victim diff's data line (§III-D).
func (t *Controller) OnDirtyInstall(now uint64, addr uint64, oldClean []byte) {
	if !t.p.Features.DataDiffs || t.match(addr) == nil {
		return
	}
	b := t.eng.Bank(addr)
	if b.Lookup(addr, t.diffLo, t.diffHi) != nil {
		// A diff for this line already exists (possible when page-granular
		// checksums are combined with diffs, where writebacks do not
		// consume diffs): the stashed copy is the older persisted content
		// and stays authoritative.
		return
	}
	v := b.Victim(addr, t.diffLo, t.diffHi)
	if v.State != cache.Invalid {
		t.earlyWriteback(now, v)
	}
	b.Install(v, addr, oldClean, cache.Shared)
	t.eng.St.DiffStashes++
	t.eng.Emit(obs.EvDiffStash, now, addr, 0)
	t.eng.St.AddCache(stats.LLC, true, t.eng.Cfg.LLCBank.HitEnergyPJ)
}

// earlyWriteback handles a data-diff eviction: the controller writes the
// victim's data line back to NVM (updating redundancy with the evicted diff
// as old data) and marks the line clean in the LLC without evicting it, so
// a later eviction of the data line needs no old-data read.
func (t *Controller) earlyWriteback(now uint64, v *cache.Line) {
	t.eng.St.DiffEvictions++
	dataAddr := v.Addr
	t.eng.Emit(obs.EvDiffEvict, now, dataAddr, 0)
	b := t.eng.Bank(dataAddr)
	dl := b.Lookup(dataAddr, 0, t.eng.DataWays())
	if dl == nil || !dl.Dirty() {
		return // stale diff: the data line was already written back
	}
	t.eng.St.AddCache(stats.LLC, true, t.eng.Cfg.LLCBank.HitEnergyPJ)
	m := t.match(dataAddr)
	if m == nil {
		return
	}
	t.updateRedundancy(now, m, dataAddr, v.Data, dl.Data)
	t.eng.St.Writebacks++
	t.eng.Emit(obs.EvEarlyWriteback, now, dataAddr, 0)
	t.eng.NVM.WriteLine(now, dataAddr, nvm.Data, dl.Data)
	dl.State = cache.Shared
}

// diffTake consumes the stashed diff for addr, returning the old persisted
// content or nil if no diff is present.
func (t *Controller) diffTake(addr uint64) []byte {
	b := t.eng.Bank(addr)
	l := b.Lookup(addr, t.diffLo, t.diffHi)
	cfg := t.eng.Cfg
	if l == nil {
		t.eng.St.AddCache(stats.LLC, false, cfg.LLCBank.MissEnergyPJ)
		return nil
	}
	t.eng.St.AddCache(stats.LLC, true, cfg.LLCBank.HitEnergyPJ)
	copy(t.scratchOld, l.Data)
	b.Invalidate(l)
	return t.scratchOld
}

// OnWriteback implements sim.RedundancyController: update checksum and
// parity for an LLC→NVM writeback of newData at addr. oldClean, when
// non-nil, is the old persisted content handed over by the engine (the line
// went dirty and was evicted in the same event, so no diff exists).
func (t *Controller) OnWriteback(now uint64, addr uint64, oldClean, newData []byte) {
	m := t.match(addr)
	if m == nil {
		return
	}
	if !t.p.Features.CacheLineChecksums {
		t.updateRedundancyPage(now, m, addr, newData)
		return
	}
	old := oldClean
	if old == nil && t.p.Features.DataDiffs {
		old = t.diffTake(addr)
	}
	if old == nil {
		// No diff (naive mode, exclusive-cache mode, or a stale diff):
		// re-read the old data from NVM before it is overwritten.
		t.eng.NVM.ReadLine(now, addr, nvm.Redundancy, t.scratchOld)
		old = t.scratchOld
	}
	t.updateRedundancy(now, m, addr, old, newData)
}

// updateRedundancy performs the incremental update: parity ^= old ^ new and
// the DAX-CL-checksum slot receives the checksum of new.
func (t *Controller) updateRedundancy(now uint64, m *Mapping, addr uint64, old, newData []byte) {
	bank := t.eng.BankIndex(addr)
	var lat uint64 // writeback-path latency is off the critical path
	pAddr := t.eng.Geo.ParityLineAddr(addr)
	prl := t.redGet(now, bank, pAddr, &lat)
	xsum.ParityDelta(prl.Data, old, newData)
	t.redPut(now, prl)
	csAddr, slot := t.csumSlot(m, addr)
	crl := t.redGet(now, bank, csAddr, &lat)
	xsum.Put(crl.Data, slot, xsum.Checksum(newData))
	t.redPut(now, crl)
}

// updateRedundancyPage is the naive (page-granular checksum) writeback
// path: read the whole page from NVM (which also yields the old data for
// the parity delta), recompute the page checksum with the new line content,
// and update parity and checksum.
func (t *Controller) updateRedundancyPage(now uint64, m *Mapping, addr uint64, newData []byte) {
	geo := &t.eng.Geo
	bank := t.eng.BankIndex(addr)
	base := geo.PageBase(geo.PageOf(addr))
	off := int(addr - base)
	ls := t.lineSize
	var lat uint64
	for i := 0; i < geo.LinesPerPage(); i++ {
		t.eng.NVM.ReadLine(now, base+uint64(i*ls), nvm.Redundancy, t.pageBuf[i*ls:(i+1)*ls])
	}
	copy(t.scratchOld, t.pageBuf[off:off+ls])
	pAddr := geo.ParityLineAddr(addr)
	prl := t.redGet(now, bank, pAddr, &lat)
	xsum.ParityDelta(prl.Data, t.scratchOld, newData)
	t.redPut(now, prl)
	copy(t.pageBuf[off:], newData)
	psAddr, slot := t.pageCsumSlot(addr)
	crl := t.redGet(now, bank, psAddr, &lat)
	xsum.Put(crl.Data, slot, xsum.Checksum(t.pageBuf))
	t.redPut(now, crl)
}

// ---------------------------------------------------------------------------
// Recovery (cross-DIMM parity reconstruction)
// ---------------------------------------------------------------------------

// recoverLine reconstructs the corrupted line at addr from its parity line
// and sibling data lines, repairs media, and overwrites data with the
// recovered content. It panics if the reconstruction still fails the
// checksum (an unrecoverable double fault).
func (t *Controller) recoverLine(now uint64, bank int, addr uint64, data []byte, want uint32, lat *uint64) {
	t.eng.St.CorruptionsDetected++
	t.eng.Emit(obs.EvCorruption, now, addr, 0)
	if t.CorruptionHook != nil {
		t.CorruptionHook(addr)
	}
	rec := t.scratchRec
	prl := t.redGet(now, bank, t.eng.Geo.ParityLineAddr(addr), lat)
	copy(rec, prl.Data)
	for _, sib := range t.eng.Geo.SiblingLineAddrs(addr) {
		done, _ := t.eng.NVM.ReadLine(now, sib, nvm.Redundancy, t.scratchSib)
		*lat += done - now
		xsum.XORInto(rec, t.scratchSib)
	}
	if xsum.Checksum(rec) != want {
		panic(fmt.Sprintf("core: line %#x unrecoverable (parity reconstruction fails checksum)", addr))
	}
	copy(data, rec)
	t.eng.NVM.WriteLine(now, addr, nvm.Data, rec) // repair media
	t.eng.St.Recoveries++
	t.eng.Emit(obs.EvRecovery, now, addr, *lat)
}

// recoverPage reconstructs every line of the page at base from parity in
// naive page-granular mode, repairing media and leaving the recovered page
// in t.pageBuf. want is the stored page checksum the result must match.
func (t *Controller) recoverPage(now uint64, bank int, base uint64, want uint32, lat *uint64) {
	t.eng.St.CorruptionsDetected++
	t.eng.Emit(obs.EvCorruption, now, base, 1)
	if t.CorruptionHook != nil {
		t.CorruptionHook(base)
	}
	ls := t.lineSize
	for i := 0; i < t.eng.Geo.LinesPerPage(); i++ {
		la := base + uint64(i*ls)
		rec := t.pageBuf[i*ls : (i+1)*ls]
		prl := t.redGet(now, bank, t.eng.Geo.ParityLineAddr(la), lat)
		copy(rec, prl.Data)
		for _, sib := range t.eng.Geo.SiblingLineAddrs(la) {
			done, _ := t.eng.NVM.ReadLine(now, sib, nvm.Redundancy, t.scratchSib)
			*lat += done - now
			xsum.XORInto(rec, t.scratchSib)
		}
		t.eng.NVM.WriteLine(now, la, nvm.Data, rec)
	}
	if xsum.Checksum(t.pageBuf) != want {
		panic(fmt.Sprintf("core: page %#x unrecoverable (parity reconstruction fails checksum)", base))
	}
	t.eng.St.Recoveries++
	t.eng.Emit(obs.EvRecovery, now, base, *lat)
}

// CheckInvariants validates the controller's structural invariants and
// returns the first violation. Tests call it after workloads.
//
// Invariants:
//  1. On-controller ⊆ LLC redundancy partition (inclusive).
//  2. The holders map covers every on-controller resident.
//  3. At most one bank holds a given redundancy line dirty.
func (t *Controller) CheckInvariants() error {
	dirtyHolders := map[uint64]int{}
	for bank, oc := range t.onCtrl {
		var err error
		oc.ForEach(0, oc.Ways(), func(l *cache.Line) {
			if err != nil {
				return
			}
			if t.eng.Bank(l.Addr).Lookup(l.Addr, t.redLo, t.redHi) == nil {
				err = fmt.Errorf("core: on-controller line %#x (bank %d) missing from LLC partition", l.Addr, bank)
				return
			}
			if t.holders[l.Addr]&(1<<uint(bank)) == 0 {
				err = fmt.Errorf("core: holders map missing bank %d for %#x", bank, l.Addr)
				return
			}
			if l.Dirty() {
				dirtyHolders[l.Addr]++
				if dirtyHolders[l.Addr] > 1 {
					err = fmt.Errorf("core: redundancy line %#x dirty in multiple controllers", l.Addr)
				}
			}
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// DropCaches invalidates the on-controller caches (lines must be clean,
// i.e. Drain must have run). The engine's DropCaches calls it.
func (t *Controller) DropCaches() {
	for _, oc := range t.onCtrl {
		oc.ForEach(0, oc.Ways(), func(l *cache.Line) {
			if l.Dirty() {
				panic(fmt.Sprintf("core: DropCaches found dirty redundancy line %#x", l.Addr))
			}
			oc.Invalidate(l)
		})
	}
	clear(t.holders)
}

// Drain implements sim.RedundancyController: flush dirty redundancy from
// the on-controller caches into the LLC partition, then from the LLC
// partition to NVM. Diff entries are clean copies and are simply dropped.
func (t *Controller) Drain(now uint64) {
	if !t.p.Features.RedundancyCaching {
		return
	}
	for bank, oc := range t.onCtrl {
		oc.ForEach(0, oc.Ways(), func(l *cache.Line) {
			if l.Dirty() {
				t.copyBackToLLC(l)
			}
			t.holders[l.Addr] &^= 1 << uint(bank)
			oc.Invalidate(l)
		})
	}
	for _, b := range t.eng.Banks {
		b.ForEach(t.redLo, t.redHi, func(l *cache.Line) {
			if l.Dirty() {
				t.eng.NVM.WriteLine(now, l.Addr, nvm.Redundancy, l.Data)
				l.State = cache.Shared
			}
		})
	}
}
