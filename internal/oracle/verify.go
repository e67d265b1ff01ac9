package oracle

import (
	"bytes"
	"fmt"

	"tvarak/internal/daxfs"
	"tvarak/internal/xsum"
)

// Divergence is one line whose machine state contradicts the reference
// model.
type Divergence struct {
	Addr uint64 `json:"addr"`
	Kind string `json:"kind"` // media | checksum | parity | page-csum
}

func (d Divergence) String() string { return fmt.Sprintf("%s@%#x", d.Kind, d.Addr) }

// VerifyMedia exhaustively compares the whole NVM pool against the
// shadow, skipping excluded lines, and returns the divergent lines in
// address order.
func (o *Oracle) VerifyMedia() []Divergence {
	return o.verifyRange(o.base, uint64(o.geo.NVMBytes), false)
}

// VerifyMediaAll is VerifyMedia including excluded lines: the full damage
// report. Under Baseline this is how the campaign confirms the injected
// corruptions really persist on media.
func (o *Oracle) VerifyMediaAll() []Divergence {
	return o.verifyRange(o.base, uint64(o.geo.NVMBytes), true)
}

// VerifyMapped compares only the data pages of mapped files against the
// shadow (skipping excluded lines) — the fast per-round check.
func (o *Oracle) VerifyMapped() []Divergence {
	var out []Divergence
	for _, f := range o.fs.Files() {
		if !f.Mapped() {
			continue
		}
		out = append(out, o.verifyFileData(f, false)...)
	}
	return out
}

func (o *Oracle) verifyFileData(f *daxfs.File, includeExcluded bool) []Divergence {
	var out []Divergence
	ps := uint64(o.geo.PageSize)
	for p := uint64(0); p < f.Pages; p++ {
		addr := o.geo.DataIndexAddr(f.StartDI+p, 0)
		out = append(out, o.verifyRange(addr, ps, includeExcluded)...)
	}
	return out
}

// verifyRange compares [addr, addr+n) page by page in place, localizing
// mismatches to lines. Parity pages inside the range are skipped: parity is checked
// semantically by VerifyRedundancy (it is maintained only for stripes of
// mapped data).
func (o *Oracle) verifyRange(addr, n uint64, includeExcluded bool) []Divergence {
	var out []Divergence
	ps := uint64(o.geo.PageSize)
	ls := uint64(o.geo.LineSize)
	var buf []byte
	for pa := addr; pa < addr+n; pa += ps {
		if o.geo.IsParityPage(o.geo.PageOf(pa)) {
			continue
		}
		if o.eng.NVM.EqualRaw(pa, o.shadow[pa-o.base:pa-o.base+ps]) {
			continue
		}
		// Copy the page out only to localize the mismatch to lines.
		if buf == nil {
			buf = make([]byte, ps)
		}
		o.eng.NVM.ReadRaw(pa, buf)
		for la := pa; la < pa+ps; la += ls {
			if !includeExcluded && o.Excluded(la) {
				continue
			}
			if !bytes.Equal(buf[la-pa:la-pa+ls], o.lineShadow(la)) {
				out = append(out, Divergence{Addr: la, Kind: "media"})
			}
		}
	}
	return out
}

// VerifyRedundancy checks TVARAK's persistent redundancy state against
// the shadow: for every mapped file, each line's DAX-CL-checksum slot
// must equal the CRC of the shadow line, and each parity line of the
// file's stripes must equal the XOR of the shadow data lines it protects.
// Valid after a drain (Run returning) on a design with cache-line
// checksums; lines in excluded parity groups are skipped. Stripes holding
// checksum regions or the page-checksum table are not parity-maintained
// while mapped (those are re-derivable) and are not checked.
func (o *Oracle) VerifyRedundancy() []Divergence {
	if o.eng.Red == nil || !o.eng.Cfg.Tvarak.Features.CacheLineChecksums {
		return nil
	}
	var out []Divergence
	geo := o.geo
	ls := uint64(geo.LineSize)
	ps := uint64(geo.PageSize)
	lpp := uint64(geo.LinesPerPage())
	csumLine := make([]byte, ls)
	parityLine := make([]byte, ls)
	expect := make([]byte, ls)
	for _, f := range o.fs.Files() {
		if !f.Mapped() {
			continue
		}
		csumDI, _ := f.CsumRegion()
		for li := uint64(0); li < f.Pages*lpp; li++ {
			dataAddr := geo.DataIndexAddr(f.StartDI+li/lpp, (li%lpp)*ls)
			if o.Excluded(dataAddr) {
				continue
			}
			ca := geo.DataIndexAddr(csumDI, li*xsum.Size)
			o.eng.NVM.ReadRaw(geo.LineAddr(ca), csumLine)
			slot := int(ca%ls) / xsum.Size
			if xsum.Get(csumLine, slot) != xsum.Checksum(o.lineShadow(dataAddr)) {
				out = append(out, Divergence{Addr: dataAddr, Kind: "checksum"})
			}
		}
		// Parity, one group (stripe × line offset) at a time. The
		// allocator is stripe-aligned, so every data page of the file's
		// stripes belongs to the file.
		for p := uint64(0); p < f.Pages; p += uint64(geo.DIMMs - 1) {
			first := geo.DataIndexAddr(f.StartDI+p, 0)
			for off := uint64(0); off < ps; off += ls {
				la := first + off
				group := append([]uint64{la}, geo.SiblingLineAddrs(la)...)
				skip := false
				copy(expect, o.lineShadow(la))
				for _, sib := range group[1:] {
					xsum.XORInto(expect, o.lineShadow(sib))
				}
				for _, ga := range group {
					if o.Excluded(ga) {
						skip = true
					}
				}
				if skip {
					continue
				}
				pla := geo.ParityLineAddr(la)
				o.eng.NVM.ReadRaw(pla, parityLine)
				if !bytes.Equal(parityLine, expect) {
					out = append(out, Divergence{Addr: pla, Kind: "parity"})
				}
			}
		}
	}
	return out
}

// VerifyPageCsums checks the global per-page checksum table for unmapped
// files (the table is authoritative exactly when data is not mapped).
func (o *Oracle) VerifyPageCsums() []Divergence {
	var out []Divergence
	geo := o.geo
	ps := uint64(geo.PageSize)
	slot := make([]byte, xsum.Size)
	tableDI, _ := o.fs.PageCsumTable()
	for _, f := range o.fs.Files() {
		if f.Mapped() {
			continue
		}
		for p := uint64(0); p < f.Pages; p++ {
			di := f.StartDI + p
			pa := geo.DataIndexAddr(di, 0)
			o.eng.NVM.ReadRaw(geo.DataIndexAddr(tableDI, di*xsum.Size), slot)
			want := xsum.Checksum(o.shadow[pa-o.base : pa-o.base+ps])
			if xsum.Get(slot, 0) != want {
				out = append(out, Divergence{Addr: pa, Kind: "page-csum"})
			}
		}
	}
	return out
}

// VerifyPartitionLine implements sim.PartitionVerifier: it checks one
// LLC redundancy/diff partition line's cached content against the model.
// Parity lines must equal the shadow XOR of their group; checksum-region
// lines must hold the CRCs of their shadow data lines; page-checksum
// table lines must hold the page CRCs of unmapped files; any other
// (diff-partition) entry shadows a data line and must match it. Lines
// involving excluded addresses are skipped.
func (o *Oracle) VerifyPartitionLine(addr uint64, data []byte) error {
	geo := o.geo
	if !geo.IsNVM(addr) {
		return nil
	}
	ls := uint64(geo.LineSize)
	p := geo.PageOf(addr)
	if geo.IsParityPage(p) {
		// Identify the stripe's data pages; only mapped-file stripes
		// maintain parity.
		s := geo.StripeOf(p)
		first := s*uint64(geo.DIMMs) + uint64((geo.ParitySlot(s)+1)%geo.DIMMs)
		f := o.fileOfDI(geo.DataIndexOf(first))
		if f == nil || !f.Mapped() {
			return nil
		}
		off := (addr - geo.PageBase(p))
		expect := make([]byte, ls)
		var la uint64
		for k := 0; k < geo.DIMMs; k++ {
			page := s*uint64(geo.DIMMs) + uint64(k)
			if geo.IsParityPage(page) {
				continue
			}
			ga := geo.PageBase(page) + off
			if o.Excluded(ga) {
				return nil
			}
			xsum.XORInto(expect, o.lineShadow(ga))
			la = ga
		}
		if !bytes.Equal(data, expect) {
			return fmt.Errorf("cached parity for group of %#x diverges from shadow XOR", la)
		}
		return nil
	}
	di := geo.DataIndexOf(p)
	lineOff := addr - geo.PageBase(p)
	for _, f := range o.fs.Files() {
		csumDI, csumPages := f.CsumRegion()
		if f.Mapped() && di >= csumDI && di < csumDI+csumPages {
			return o.verifyCsumSlots(f, (di-csumDI)*uint64(geo.PageSize)+lineOff, data)
		}
		if di >= f.StartDI && di < f.StartDI+f.Pages {
			if !f.Mapped() || o.Excluded(addr) {
				return nil
			}
			// Diff entry: the stashed old-clean copy equals current
			// media content, which equals the shadow for clean lines.
			if !bytes.Equal(data, o.lineShadow(addr)) {
				return fmt.Errorf("cached diff entry for %#x diverges from shadow", addr)
			}
			return nil
		}
	}
	if tableDI, tablePages := o.fs.PageCsumTable(); di >= tableDI && di < tableDI+tablePages {
		return o.verifyPageCsumSlots((di-tableDI)*uint64(geo.PageSize)+lineOff, data)
	}
	return nil
}

// verifyCsumSlots checks one cached DAX-CL-checksum line of file f whose
// first slot covers line index byteOff/4.
func (o *Oracle) verifyCsumSlots(f *daxfs.File, byteOff uint64, data []byte) error {
	geo := o.geo
	ls := uint64(geo.LineSize)
	lpp := uint64(geo.LinesPerPage())
	for k := 0; k < len(data)/xsum.Size; k++ {
		li := (byteOff + uint64(k)*xsum.Size) / xsum.Size
		if li >= f.Pages*lpp {
			break // tail slots beyond the file's last line are undefined
		}
		dataAddr := geo.DataIndexAddr(f.StartDI+li/lpp, (li%lpp)*ls)
		if o.Excluded(dataAddr) {
			continue
		}
		if xsum.Get(data, k) != xsum.Checksum(o.lineShadow(dataAddr)) {
			return fmt.Errorf("cached checksum slot for data line %#x diverges from shadow CRC", dataAddr)
		}
	}
	return nil
}

// verifyPageCsumSlots checks one cached page-checksum-table line; only
// slots covering unmapped files' pages are authoritative.
func (o *Oracle) verifyPageCsumSlots(byteOff uint64, data []byte) error {
	geo := o.geo
	ps := uint64(geo.PageSize)
	for k := 0; k < len(data)/xsum.Size; k++ {
		di := (byteOff + uint64(k)*xsum.Size) / xsum.Size
		f := o.fileOfDI(di)
		if f == nil || f.Mapped() {
			continue
		}
		pa := geo.DataIndexAddr(di, 0)
		if xsum.Get(data, k) != xsum.Checksum(o.shadow[pa-o.base:pa-o.base+ps]) {
			return fmt.Errorf("cached page checksum for data page %d diverges from shadow CRC", di)
		}
	}
	return nil
}

// fileOfDI returns the file whose data pages contain the data index, or
// nil (aux regions, checksum regions, free space).
func (o *Oracle) fileOfDI(di uint64) *daxfs.File {
	for _, f := range o.fs.Files() {
		if di >= f.StartDI && di < f.StartDI+f.Pages {
			return f
		}
	}
	return nil
}
