// Package oracle is the shadow redundancy oracle: a pure-Go reference
// model of what the simulated NVM *should* contain, built line by line
// from the workload's own store stream and checked against the machine at
// bound-weave phase boundaries and exhaustively at end-of-run.
//
// The model is a flat shadow copy of the NVM pool updated from the
// devices' write observers at the *intended* address of every write —
// before injected firmware bugs drop or redirect it — so shadow and media
// agree exactly on every line no fault has struck. Divergence is then the
// definition of corruption, independent of the checksums and parity the
// design under test maintains:
//
//   - a lost or misdirected write leaves media ≠ shadow at the intended
//     (and, for misdirected, the victim) line;
//   - a misdirected read delivers bytes ≠ shadow at the intended line,
//     recorded as a silent read unless the design detects it;
//   - TVARAK's parity reconstruction must restore media == shadow, and its
//     checksum/parity state must equal what the shadow implies.
//
// The fault-injection campaign (internal/fault) registers every line it
// corrupts in the oracle's exclusion set; checks skip excluded lines, and
// a TVARAK recovery (obs.EvRecovery) clears its line's exclusion — so at
// end of a TVARAK run the exclusion set must be empty, while under
// Baseline the surviving exclusions are the oracle-confirmed silent
// corruptions.
package oracle

import (
	"bytes"
	"fmt"
	"sort"

	"tvarak/internal/daxfs"
	"tvarak/internal/geom"
	"tvarak/internal/nvm"
	"tvarak/internal/obs"
	"tvarak/internal/sim"
)

// Oracle mirrors the expected NVM content of one simulated system.
// It is not safe for concurrent use with other systems' oracles sharing
// state; each System gets its own Oracle (the campaign runner does so).
type Oracle struct {
	eng  *sim.Engine
	fs   *daxfs.FS
	geo  geom.Geometry
	base uint64

	// shadow is the intended media content: every observed write lands
	// here at its intended address.
	shadow []byte

	paused bool
	inner  obs.Tracer // pre-attach engine tracer, still forwarded to

	// touched accumulates line addresses written since the last phase
	// cross-check; excluded holds lines the campaign corrupted on
	// purpose (checks skip them until a recovery clears them).
	touched  map[uint64]struct{}
	excluded map[uint64]struct{}

	// writtenData is the cumulative set of Data-class timed written
	// lines — the campaign's injection-target candidates.
	writtenData map[uint64]struct{}

	// silent holds data reads that delivered bytes diverging from the
	// shadow without the design detecting the corruption; EvCorruption
	// at the address removes it. eccReads counts reads the device ECC
	// flagged (detected, so never silent).
	silent   map[uint64]struct{}
	eccReads map[uint64]struct{}

	detected  map[uint64]struct{}
	recovered map[uint64]struct{}

	// badRepairs records recoveries whose repair write did not restore
	// the shadow content (a wrong reconstruction would otherwise
	// self-mask, because the shadow follows every write's intent).
	badRepairs []uint64
	lastWrite  uint64
	lastWrOK   bool

	phaseChecks uint64
	phaseErr    error
}

// Attach snapshots the engine's current NVM media as the initial shadow
// and installs the oracle's observers: NVM read/write observers and the
// engine tracer (forwarding to any tracer already attached). Attach after
// workload Setup so the shadow starts from a known-good machine.
func Attach(eng *sim.Engine, fs *daxfs.FS) *Oracle {
	o := &Oracle{
		eng:         eng,
		fs:          fs,
		geo:         eng.Geo,
		base:        eng.Geo.NVMBase(),
		shadow:      make([]byte, eng.Geo.NVMBytes),
		touched:     make(map[uint64]struct{}),
		excluded:    make(map[uint64]struct{}),
		writtenData: make(map[uint64]struct{}),
		silent:      make(map[uint64]struct{}),
		eccReads:    make(map[uint64]struct{}),
		detected:    make(map[uint64]struct{}),
		recovered:   make(map[uint64]struct{}),
		inner:       eng.Tracer,
	}
	eng.NVM.ReadRaw(o.base, o.shadow)
	eng.NVM.SetWriteObserver(o.onWrite)
	eng.NVM.SetReadObserver(o.onRead)
	eng.Tracer = o
	return o
}

// Detach removes the oracle's observers and restores the previous tracer.
func (o *Oracle) Detach() {
	o.eng.NVM.SetWriteObserver(nil)
	o.eng.NVM.SetReadObserver(nil)
	o.eng.Tracer = o.inner
}

// Pause suspends shadow updates and read checking. Crash simulations use
// it: corrupting media and re-deriving state with raw writes must not
// leak into the model of what the content *should* be.
func (o *Oracle) Pause() { o.paused = true }

// Resume re-enables the observers after Pause.
func (o *Oracle) Resume() { o.paused = false }

func (o *Oracle) onWrite(addr uint64, data []byte, timed bool, class nvm.Class) {
	if o.paused {
		return
	}
	if timed && class == nvm.Data {
		o.writtenData[addr] = struct{}{}
		if _, ex := o.excluded[addr]; ex {
			// Possibly a parity-reconstruction repair; EvRecovery will
			// tell. Record whether it restored the shadow content.
			o.lastWrite = addr
			o.lastWrOK = bytes.Equal(data, o.shadow[addr-o.base:addr-o.base+uint64(len(data))])
		}
	}
	copy(o.shadow[addr-o.base:], data)
	first := o.geo.LineAddr(addr)
	last := o.geo.LineAddr(addr + uint64(len(data)) - 1)
	for la := first; la <= last; la += uint64(o.geo.LineSize) {
		o.touched[la] = struct{}{}
	}
}

func (o *Oracle) onRead(addr uint64, buf []byte, class nvm.Class, eccErr bool) {
	if o.paused || class != nvm.Data {
		return
	}
	if eccErr {
		o.eccReads[addr] = struct{}{}
		return
	}
	if !bytes.Equal(buf, o.shadow[addr-o.base:addr-o.base+uint64(len(buf))]) {
		o.silent[addr] = struct{}{}
	}
}

// Trace implements obs.Tracer. Phase boundaries anchor the incremental
// media cross-check; corruption/recovery events reconcile the silent-read
// and exclusion sets.
func (o *Oracle) Trace(ev obs.Event) {
	if o.inner != nil {
		o.inner.Trace(ev)
	}
	if o.paused {
		return
	}
	switch ev.Kind {
	case obs.EvPhase:
		o.checkTouched()
	case obs.EvCorruption:
		o.detected[ev.Addr] = struct{}{}
		delete(o.silent, ev.Addr)
	case obs.EvRecovery:
		o.recovered[ev.Addr] = struct{}{}
		if ev.Addr == o.lastWrite && !o.lastWrOK {
			o.badRepairs = append(o.badRepairs, ev.Addr)
		}
		delete(o.excluded, ev.Addr)
	}
}

// checkTouched compares every line written since the last phase boundary
// against media and records the first (lowest-address) violation.
func (o *Oracle) checkTouched() {
	o.phaseChecks++
	if len(o.touched) == 0 {
		return
	}
	var bad []uint64
	for la := range o.touched {
		if _, ex := o.excluded[la]; ex {
			continue
		}
		if !o.eng.NVM.EqualRaw(la, o.lineShadow(la)) {
			bad = append(bad, la)
		}
	}
	if len(bad) > 0 && o.phaseErr == nil {
		sort.Slice(bad, func(i, j int) bool { return bad[i] < bad[j] })
		o.phaseErr = fmt.Errorf("oracle: media diverges from intent at line %#x (phase check %d, %d lines)",
			bad[0], o.phaseChecks, len(bad))
	}
	clear(o.touched)
}

func (o *Oracle) lineShadow(la uint64) []byte {
	i := la - o.base
	return o.shadow[i : i+uint64(o.geo.LineSize)]
}

// Exclude marks a line as deliberately corrupted: media checks skip it
// until a recovery at the line clears the mark.
func (o *Oracle) Exclude(lineAddr uint64) { o.excluded[lineAddr] = struct{}{} }

// Unexclude clears an exclusion (campaigns do this when cancelling an
// injection that never fired).
func (o *Oracle) Unexclude(lineAddr uint64) { delete(o.excluded, lineAddr) }

// Excluded reports whether the line is currently excluded.
func (o *Oracle) Excluded(lineAddr uint64) bool {
	_, ok := o.excluded[lineAddr]
	return ok
}

// ExcludedLines returns the current exclusion set, sorted. Under TVARAK
// these are the corruptions not yet recovered; under Baseline they are
// the silent media corruptions the design never noticed.
func (o *Oracle) ExcludedLines() []uint64 { return sortedKeys(o.excluded) }

// GroupKey identifies the parity group a data line belongs to (the
// address of the parity line protecting it). The campaign never arms two
// unresolved injections in one group: RAID-5 reconstructs at most one bad
// line per group.
func (o *Oracle) GroupKey(lineAddr uint64) uint64 { return o.geo.ParityLineAddr(lineAddr) }

// Want copies the line's expected content into buf.
func (o *Oracle) Want(lineAddr uint64, buf []byte) { copy(buf, o.lineShadow(lineAddr)) }

// ShadowRange copies len(buf) expected bytes starting at addr.
func (o *Oracle) ShadowRange(addr uint64, buf []byte) { copy(buf, o.shadow[addr-o.base:]) }

// WrittenDataLines returns every line the workload has written through
// the timed data path since Attach, sorted — the candidate pool fault
// injections draw targets from.
func (o *Oracle) WrittenDataLines() []uint64 { return sortedKeys(o.writtenData) }

// SilentReads returns the lines whose reads delivered corrupt bytes with
// no detection, sorted. Empty for a correct TVARAK run.
func (o *Oracle) SilentReads() []uint64 { return sortedKeys(o.silent) }

// ECCReads returns the lines whose reads the device ECC flagged, sorted.
func (o *Oracle) ECCReads() []uint64 { return sortedKeys(o.eccReads) }

// DetectedAt reports whether a corruption detection was traced at the line.
func (o *Oracle) DetectedAt(lineAddr uint64) bool {
	_, ok := o.detected[lineAddr]
	return ok
}

// RecoveredAt reports whether a recovery was traced at the line.
func (o *Oracle) RecoveredAt(lineAddr uint64) bool {
	_, ok := o.recovered[lineAddr]
	return ok
}

// BadRepairs returns lines whose recovery wrote content diverging from
// the shadow — reconstruction bugs that would otherwise self-mask.
func (o *Oracle) BadRepairs() []uint64 { return append([]uint64(nil), o.badRepairs...) }

// PhaseErr returns the first phase-boundary cross-check violation, if any.
func (o *Oracle) PhaseErr() error { return o.phaseErr }

// PhaseChecks returns how many phase-boundary cross-checks have run.
func (o *Oracle) PhaseChecks() uint64 { return o.phaseChecks }

func sortedKeys(m map[uint64]struct{}) []uint64 {
	out := make([]uint64, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
