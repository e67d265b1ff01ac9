// Package nvm models the simulated machine's memory devices: NVM DIMMs
// (page-interleaved, with injectable firmware bugs and device-level ECC)
// and DRAM DIMMs (line-interleaved). Devices hold real bytes so that
// checksums, parity, corruption and recovery are computed over real
// content rather than emulated with flags.
//
// Media is sparse: each DIMM keeps a dense page table with one entry per
// DIMM-local page, nil until the first write of any kind (timed, raw,
// injected bit flip, or a misdirected write landing there) materializes
// the page. An unmaterialized page reads as zeros whose device ECC is the
// zero line's checksum, exactly like freshly zeroed media, and no read
// ever materializes it. A run pays only for the pages it touches.
//
// Faithful to §II-A of the paper, device-level ECC is read and written as
// an atom with its data by the firmware during each media access, so it
// detects media corruption (bit flips) but can never detect lost-write or
// misdirected-read/write firmware bugs: a lost write loses the ECC update
// too, and a misdirected access moves data and ECC together.
package nvm

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"

	"tvarak/internal/geom"
	"tvarak/internal/param"
	"tvarak/internal/stats"
	"tvarak/internal/xsum"
)

// Class tags an access for the NVM data-vs-redundancy split in Fig. 8.
type Class int

const (
	// Data marks demand application-data accesses.
	Data Class = iota
	// Redundancy marks accesses performed only to maintain or verify
	// redundancy: checksum lines, parity lines, and old-data reads on the
	// writeback path.
	Redundancy
)

// ErrECC is returned when the device-level ECC detects media corruption.
var ErrECC = errors.New("nvm: device ECC mismatch (media corruption)")

// Kind distinguishes the two memory technologies.
type Kind int

const (
	// NVMKind interleaves pages across DIMMs (required by the parity
	// geometry, Fig. 3).
	NVMKind Kind = iota
	// DRAMKind interleaves cache lines across DIMMs.
	DRAMKind
)

type bugKind int

const (
	lostWrite bugKind = iota
	misdirectedWrite
	misdirectedRead
)

type bug struct {
	kind   bugKind
	target uint64 // where a misdirected access actually lands / reads from
}

type dimm struct {
	// pages is the DIMM's page table: one entry per DIMM-local page of
	// Memory.frame bytes, nil while the page has never been written. A
	// materialized page holds its data followed by one device ECC word per
	// line, stored "with" the data (see Memory.eccOff).
	pages   [][]byte
	busyCyc uint64 // accumulated transfer occupancy (bandwidth bound)
	reads   uint64
	writes  uint64
}

// slabPages is how many pages one PageSlab allocation holds: first-touch
// materialization is a slice expression, not an allocation, 63 times in 64.
const slabPages = 64

// PageSlab carves zeroed pages of Size bytes out of shared allocations of
// slabPages pages each. The media page tables and the oracle's shadow use
// it to materialize pages on first write.
type PageSlab struct {
	Size int
	free []byte
}

// Alloc returns a fresh zeroed page of s.Size bytes.
func (s *PageSlab) Alloc() []byte {
	if len(s.free) == 0 {
		s.free = make([]byte, slabPages*s.Size)
	}
	pg := s.free[:s.Size:s.Size]
	s.free = s.free[s.Size:]
	return pg
}

// Memory is one memory pool (all NVM DIMMs or all DRAM DIMMs).
type Memory struct {
	kind     Kind
	geo      geom.Geometry
	p        param.MemParams
	base     uint64
	size     uint64
	dimms    []*dimm
	lineSize int
	st       *stats.Stats

	// Precomputed interleave arithmetic for locate(), which runs on every
	// media access: unit is the interleave granule (page for NVM, line for
	// DRAM) and nd the DIMM count; the shift/mask forms apply when the
	// respective value is a power of two.
	unit      uint64
	unitShift uint
	unitPow2  bool
	nd        uint64
	dimmShift uint
	dimmMask  uint64
	dimmPow2  bool
	lineShift uint
	linePow2  bool

	// Page-table geometry: frame is the DIMM-local page size (the
	// geometry's page size for both pools), with its shift form when a
	// power of two. Every page stores its ECC words XORed with zeroECC,
	// the zero line's checksum, so a freshly zeroed page is consistent
	// with no fill loop. zero is one frame of zeros, the content of every
	// unmaterialized page.
	frame      uint64
	frameShift uint
	framePow2  bool
	zeroECC    uint32
	zero       []byte
	slab       PageSlab

	// One-shot firmware bugs armed by tests and fault-injection tools,
	// keyed by intended line address. NVM only. Bugs model firmware
	// faults on the demand data path, so they fire only on Data-class
	// accesses: redundancy-maintenance reads/writes issued by the
	// controller would otherwise consume a bug armed for the
	// application's own access to the same line.
	bugsW map[uint64]bug
	bugsR map[uint64]bug

	// Observers see every access at the intended address, before bug
	// redirection — i.e. what the issuer meant to persist or read — so a
	// shadow model built from them diverges from media exactly where a
	// firmware bug or media corruption struck. Nil when disabled.
	obsW WriteObserver
	obsR ReadObserver
}

// WriteObserver receives every media write with its intended address and
// payload, before any injected firmware bug drops or redirects it. timed
// is false for WriteRaw (setup/recovery) writes; class is Data for those.
type WriteObserver func(addr uint64, data []byte, timed bool, class Class)

// ReadObserver receives every timed media read after delivery: buf holds
// the bytes actually returned to the issuer (possibly redirected by a
// misdirected-read bug), addr the intended line, and eccErr whether the
// device ECC flagged the access.
type ReadObserver func(addr uint64, buf []byte, class Class, eccErr bool)

// SetWriteObserver installs (or, with nil, removes) the write observer.
func (m *Memory) SetWriteObserver(o WriteObserver) { m.obsW = o }

// SetReadObserver installs (or, with nil, removes) the read observer.
func (m *Memory) SetReadObserver(o ReadObserver) { m.obsR = o }

// New builds a memory pool. For NVMKind the pool spans
// [geo.NVMBase(), geo.NVMEnd()); for DRAMKind it spans [0, geo.DRAMBytes).
func New(kind Kind, geo geom.Geometry, p param.MemParams, st *stats.Stats) *Memory {
	m := &Memory{
		kind:     kind,
		geo:      geo,
		p:        p,
		lineSize: geo.LineSize,
		st:       st,
		bugsW:    make(map[uint64]bug),
		bugsR:    make(map[uint64]bug),
	}
	if kind == NVMKind {
		m.base = geo.NVMBase()
		m.size = uint64(geo.NVMBytes)
		m.unit = uint64(geo.PageSize)
	} else {
		m.base = 0
		m.size = uint64(geo.DRAMBytes)
		m.unit = uint64(geo.LineSize)
	}
	if m.unit&(m.unit-1) == 0 {
		m.unitPow2 = true
		m.unitShift = uint(bits.TrailingZeros64(m.unit))
	}
	m.nd = uint64(p.DIMMs)
	if m.nd&(m.nd-1) == 0 {
		m.dimmPow2 = true
		m.dimmShift = uint(bits.TrailingZeros64(m.nd))
		m.dimmMask = m.nd - 1
	}
	if ls := uint64(m.lineSize); ls&(ls-1) == 0 {
		m.linePow2 = true
		m.lineShift = uint(bits.TrailingZeros64(ls))
	}
	m.frame = uint64(geo.PageSize)
	if m.frame&(m.frame-1) == 0 {
		m.framePow2 = true
		m.frameShift = uint(bits.TrailingZeros64(m.frame))
	}
	m.zero = make([]byte, m.frame)
	m.zeroECC = xsum.Checksum(m.zero[:m.lineSize])
	m.slab = PageSlab{Size: int(m.frame) + geo.LinesPerPage()*eccSize}
	// Each DIMM holds ceil(units/DIMMs) interleave units.
	units := (m.size + m.unit - 1) / m.unit
	span := (units + m.nd - 1) / m.nd * m.unit
	frames := (span + m.frame - 1) / m.frame
	m.dimms = make([]*dimm, p.DIMMs)
	for i := range m.dimms {
		m.dimms[i] = &dimm{pages: make([][]byte, frames)}
	}
	return m
}

// Contains reports whether addr belongs to this pool.
func (m *Memory) Contains(addr uint64) bool {
	return addr >= m.base && addr < m.base+m.size
}

// locate maps a line address to (dimm, byte offset within the DIMM). The
// interleave granule (page for NVM, line for DRAM) is precomputed as unit;
// shift/mask fast paths cover the power-of-two cases.
func (m *Memory) locate(addr uint64) (*dimm, uint64) {
	rel := addr - m.base
	var idx, inUnit uint64
	if m.unitPow2 {
		idx, inUnit = rel>>m.unitShift, rel&(m.unit-1)
	} else {
		idx, inUnit = rel/m.unit, rel%m.unit
	}
	var d, row uint64
	if m.dimmPow2 {
		d, row = idx&m.dimmMask, idx>>m.dimmShift
	} else {
		d, row = idx%m.nd, idx/m.nd
	}
	return m.dimms[d], row*m.unit + inUnit
}

// eccSize is the width of one stored device ECC word.
const eccSize = 4

// frameOf splits a DIMM byte offset into its page-table index and the
// offset within that page.
func (m *Memory) frameOf(off uint64) (idx, in uint64) {
	if m.framePow2 {
		return off >> m.frameShift, off & (m.frame - 1)
	}
	return off / m.frame, off % m.frame
}

// eccOff returns where, within its page, the ECC word of the line at page
// offset in is stored: after the page's data, one word per line.
func (m *Memory) eccOff(in uint64) uint64 {
	if m.linePow2 {
		return m.frame + (in>>m.lineShift)*eccSize
	}
	return m.frame + in/uint64(m.lineSize)*eccSize
}

// ecc returns the device ECC word of the line at page offset in.
func (m *Memory) ecc(pg []byte, in uint64) uint32 {
	return binary.LittleEndian.Uint32(pg[m.eccOff(in):]) ^ m.zeroECC
}

// setECC stores the device ECC word of the line at page offset in.
func (m *Memory) setECC(pg []byte, in uint64, sum uint32) {
	binary.LittleEndian.PutUint32(pg[m.eccOff(in):], sum^m.zeroECC)
}

// page returns d's page idx for writing, materializing it on first use.
func (m *Memory) page(d *dimm, idx uint64) []byte {
	pg := d.pages[idx]
	if pg == nil {
		pg = m.slab.Alloc()
		d.pages[idx] = pg
	}
	return pg
}

// Materialized reports whether the DIMM-local page holding addr has been
// written. An unmaterialized page holds zeros with consistent ECC.
func (m *Memory) Materialized(addr uint64) bool {
	m.checkRaw(addr, 1)
	d, off := m.locate(addr)
	idx, _ := m.frameOf(off)
	return d.pages[idx] != nil
}

func (m *Memory) checkLine(addr uint64) uint64 {
	la := m.geo.LineAddr(addr)
	if la != addr {
		panic(fmt.Sprintf("nvm: unaligned line address %#x", addr))
	}
	if !m.Contains(addr) {
		panic(fmt.Sprintf("nvm: address %#x outside pool [%#x,%#x)", addr, m.base, m.base+m.size))
	}
	return la
}

// ReadLine performs a timed media read of the 64 B line at addr into buf,
// accounting stats and DIMM occupancy. It returns the completion cycle.
// A pending misdirected-read bug silently returns another line's content;
// device ECC cannot catch that (the wrong line's ECC matches the wrong
// line's data), but genuine media corruption returns ErrECC.
func (m *Memory) ReadLine(now uint64, addr uint64, class Class, buf []byte) (uint64, error) {
	m.checkLine(addr)
	src := addr
	// Bugs are armed only inside fault-injection runs; the len check keeps
	// the normal path free of a map lookup per access.
	if len(m.bugsR) != 0 {
		if b, ok := m.bugsR[addr]; ok && b.kind == misdirectedRead && class == Data {
			delete(m.bugsR, addr)
			src = b.target
		}
	}
	d, off := m.locate(src)
	d.busyCyc += m.p.ReadOccupancyCyc
	d.reads++
	if m.st != nil {
		if m.kind == NVMKind {
			m.st.AddNVM(false, class == Redundancy, m.p.ReadEnergyPJ)
		} else {
			m.st.AddDRAM(false, m.p.ReadEnergyPJ)
		}
	}
	idx, in := m.frameOf(off)
	eccErr := false
	if pg := d.pages[idx]; pg == nil {
		// Never written: zeros, whose implicit ECC always matches.
		copy(buf, m.zero[:m.lineSize])
	} else {
		copy(buf, pg[in:in+uint64(m.lineSize)])
		eccErr = m.ecc(pg, in) != xsum.Checksum(buf)
	}
	if eccErr {
		if m.st != nil {
			m.st.ECCErrors++
		}
		if m.obsR != nil {
			m.obsR(addr, buf, class, true)
		}
		return now + m.p.ReadCyc, ErrECC
	}
	if m.obsR != nil {
		m.obsR(addr, buf, class, false)
	}
	return now + m.p.ReadCyc, nil
}

// WriteLine performs a timed media write of data to the line at addr.
// A pending lost-write bug acknowledges without touching media; a pending
// misdirected-write bug writes data (and its ECC, atomically) to the wrong
// line. The completion cycle is returned.
func (m *Memory) WriteLine(now uint64, addr uint64, class Class, data []byte) uint64 {
	m.checkLine(addr)
	if m.obsW != nil {
		m.obsW(addr, data, true, class)
	}
	dst := addr
	if len(m.bugsW) != 0 {
		if b, ok := m.bugsW[addr]; ok && class == Data {
			delete(m.bugsW, addr)
			switch b.kind {
			case lostWrite:
				// Acknowledge without updating media. Occupancy and stats
				// still accrue: the request was issued and "serviced".
				d, _ := m.locate(addr)
				d.busyCyc += m.p.WriteOccupancyCyc
				d.writes++
				if m.st != nil {
					m.addWriteStats(class)
				}
				return now + m.p.WriteCyc
			case misdirectedWrite:
				dst = b.target
			}
		}
	}
	d, off := m.locate(dst)
	d.busyCyc += m.p.WriteOccupancyCyc
	d.writes++
	if m.st != nil {
		m.addWriteStats(class)
	}
	idx, in := m.frameOf(off)
	pg := m.page(d, idx)
	copy(pg[in:in+uint64(m.lineSize)], data)
	m.setECC(pg, in, xsum.Checksum(data))
	return now + m.p.WriteCyc
}

func (m *Memory) addWriteStats(class Class) {
	if m.kind == NVMKind {
		m.st.AddNVM(true, class == Redundancy, m.p.WriteEnergyPJ)
	} else {
		m.st.AddDRAM(true, m.p.WriteEnergyPJ)
	}
}

// unitRun maps addr to its DIMM, page-table index and offset within that
// page, plus the length of the longest run starting at addr that is
// contiguous on one DIMM: the rest of the interleave unit holding it (page
// for NVM, line for DRAM). Units never straddle pages, so neither does a
// run.
func (m *Memory) unitRun(addr uint64) (d *dimm, idx, in, run uint64) {
	d, off := m.locate(addr)
	idx, in = m.frameOf(off)
	if m.unitPow2 {
		return d, idx, in, m.unit - off&(m.unit-1)
	}
	return d, idx, in, m.unit - off%m.unit
}

// checkRaw panics unless [addr, addr+n) lies inside the pool.
func (m *Memory) checkRaw(addr uint64, n int) {
	if n > 0 && (addr < m.base || addr-m.base > m.size || uint64(n) > m.size-(addr-m.base)) {
		panic(fmt.Sprintf("nvm: raw range [%#x,%#x) outside pool [%#x,%#x)",
			addr, addr+uint64(n), m.base, m.base+m.size))
	}
}

// ReadRaw copies current media content without timing, stats, bug or ECC
// effects. Setup, verification and recovery-checking code uses it.
func (m *Memory) ReadRaw(addr uint64, buf []byte) {
	m.checkRaw(addr, len(buf))
	for n := 0; n < len(buf); {
		d, idx, in, run := m.unitRun(addr + uint64(n))
		c := int(min(run, uint64(len(buf)-n)))
		if pg := d.pages[idx]; pg == nil {
			clear(buf[n : n+c])
		} else {
			copy(buf[n:n+c], pg[in:])
		}
		n += c
	}
}

// EqualRaw reports whether media at addr holds exactly want, comparing in
// place (untimed, like ReadRaw) without copying media out.
func (m *Memory) EqualRaw(addr uint64, want []byte) bool {
	m.checkRaw(addr, len(want))
	for n := 0; n < len(want); {
		d, idx, in, run := m.unitRun(addr + uint64(n))
		c := min(run, uint64(len(want)-n))
		have := m.zero[:c]
		if pg := d.pages[idx]; pg != nil {
			have = pg[in : in+c]
		}
		if !bytes.Equal(have, want[n:n+int(c)]) {
			return false
		}
		n += int(c)
	}
	return true
}

// WriteRaw writes media content directly (with consistent ECC), without
// timing, stats or bugs. Used for setup and by recovery to repair media.
func (m *Memory) WriteRaw(addr uint64, data []byte) {
	m.checkRaw(addr, len(data))
	if m.obsW != nil {
		m.obsW(addr, data, false, Data)
	}
	ls := uint64(m.lineSize)
	for n := 0; n < len(data); {
		d, idx, in, run := m.unitRun(addr + uint64(n))
		pg := m.page(d, idx)
		c := uint64(copy(pg[in:in+run], data[n:]))
		// Units are whole lines, so the touched lines lie inside the run.
		for lo := in - in%ls; lo < in+c; lo += ls {
			m.setECC(pg, lo, xsum.Checksum(pg[lo:lo+ls]))
		}
		n += int(c)
	}
}

// InjectLostWrite arms a one-shot lost-write firmware bug: the next
// WriteLine to lineAddr is acknowledged but never reaches media (Fig. 1).
func (m *Memory) InjectLostWrite(lineAddr uint64) {
	m.bugsW[m.checkLine(lineAddr)] = bug{kind: lostWrite}
}

// InjectMisdirectedWrite arms a one-shot misdirected-write bug: the next
// WriteLine intended for intended lands on actual instead, corrupting it
// (Fig. 2).
func (m *Memory) InjectMisdirectedWrite(intended, actual uint64) {
	m.checkLine(actual)
	m.bugsW[m.checkLine(intended)] = bug{kind: misdirectedWrite, target: actual}
}

// InjectMisdirectedRead arms a one-shot misdirected-read bug: the next
// ReadLine of intended returns the content of actual.
func (m *Memory) InjectMisdirectedRead(intended, actual uint64) {
	m.checkLine(actual)
	m.bugsR[m.checkLine(intended)] = bug{kind: misdirectedRead, target: actual}
}

// FlipBit corrupts one media bit without updating ECC, modelling media
// corruption that device ECC does detect.
func (m *Memory) FlipBit(addr uint64, bit uint) {
	la := m.geo.LineAddr(addr)
	d, off := m.locate(la)
	idx, in := m.frameOf(off)
	m.page(d, idx)[in+(addr-la)] ^= 1 << (bit % 8)
}

// PendingBugs reports how many injected bugs have not fired yet.
func (m *Memory) PendingBugs() int { return len(m.bugsW) + len(m.bugsR) }

// BugArmed reports whether an injected bug is still armed at lineAddr.
// The fault-injection campaign uses it to tell fired injections (media
// now diverges from intent) from ones the workload never triggered.
func (m *Memory) BugArmed(lineAddr uint64) bool {
	_, w := m.bugsW[lineAddr]
	_, r := m.bugsR[lineAddr]
	return w || r
}

// CancelBugs disarms any still-pending injected bugs at lineAddr and
// reports how many were removed. Campaigns cancel unfired injections at
// round boundaries so their accounting of media divergence stays exact.
func (m *Memory) CancelBugs(lineAddr uint64) int {
	n := 0
	if _, ok := m.bugsW[lineAddr]; ok {
		delete(m.bugsW, lineAddr)
		n++
	}
	if _, ok := m.bugsR[lineAddr]; ok {
		delete(m.bugsR, lineAddr)
		n++
	}
	return n
}

// ResetTiming clears DIMM queueing state and per-DIMM counters so a new
// measured region starts with idle devices.
func (m *Memory) ResetTiming() {
	for _, d := range m.dimms {
		d.busyCyc = 0
		d.reads = 0
		d.writes = 0
	}
}

// BusyUntil returns the busiest DIMM's accumulated transfer occupancy — a
// lower bound on the run's duration imposed by per-DIMM bandwidth. The
// engine folds it into the fixed-work runtime so bandwidth-bound workloads
// (stream) are limited by DIMM occupancy as in the paper. Individual
// accesses see fixed service latency (queueing delay is not modeled
// per-request; the throughput bound captures saturation — see DESIGN.md).
func (m *Memory) BusyUntil() uint64 {
	var t uint64
	for _, d := range m.dimms {
		t = max(t, d.busyCyc)
	}
	return t
}

// DIMMAccesses returns per-DIMM (reads, writes) counters, used by tests to
// check interleaving and by the harness for reporting.
func (m *Memory) DIMMAccesses() (reads, writes []uint64) {
	for _, d := range m.dimms {
		reads = append(reads, d.reads)
		writes = append(writes, d.writes)
	}
	return reads, writes
}

// Base returns the pool's first physical address.
func (m *Memory) Base() uint64 { return m.base }

// Size returns the pool's capacity in bytes.
func (m *Memory) Size() uint64 { return m.size }
