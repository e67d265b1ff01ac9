package daxfs

import (
	"fmt"

	"tvarak/internal/core"
	"tvarak/internal/sim"
	"tvarak/internal/xsum"
)

// DaxMap is a direct-access mapping of a file: applications access its
// bytes with simulated loads and stores, bypassing the file system on the
// data path. Offsets are virtually contiguous; the mapping translates them
// to the physical data pages (which skip parity pages).
type DaxMap struct {
	fs *FS
	f  *File
}

// MMap direct-access-maps a file. Under the Tvarak design with
// DAX-CL-checksums the file system allocates the cache-line-granular
// checksum region, initializes it from current file content, and programs
// the controller's comparators; in naive page-checksum mode only the
// comparators are programmed (page checksums are already current).
func (fs *FS) MMap(name string) (*DaxMap, error) {
	f, err := fs.Open(name)
	if err != nil {
		return nil, err
	}
	if f.mapped {
		return nil, fmt.Errorf("daxfs: %q already mapped", name)
	}
	if fs.ctrl != nil {
		m := core.Mapping{Name: f.Name, StartDI: f.StartDI, Pages: f.Pages}
		if fs.eng.Cfg.Tvarak.Features.CacheLineChecksums {
			lines := f.Pages * uint64(fs.geo.LinesPerPage())
			csumPages := (lines*xsum.Size + uint64(fs.geo.PageSize) - 1) / uint64(fs.geo.PageSize)
			di, err := fs.allocPages(csumPages)
			if err != nil {
				return nil, fmt.Errorf("daxfs: DAX-CL-checksum region for %q: %w", name, err)
			}
			f.csumDI, f.csumPages = di, csumPages
			fs.initCLChecksums(f)
			m.CsumDI = di
		}
		fs.ctrl.RegisterMapping(m)
	}
	f.mapped = true
	return &DaxMap{fs: fs, f: f}, nil
}

// initCLChecksums fills the mapping's DAX-CL-checksum region from current
// file content (raw setup work, untimed).
func (fs *FS) initCLChecksums(f *File) {
	ps := uint64(fs.geo.PageSize)
	page := make([]byte, ps)
	run := fs.newCsumRun(f.csumDI, 0)
	for p := uint64(0); p < f.Pages; p++ {
		fs.eng.NVM.ReadRaw(fs.addr(f, p*ps), page)
		fs.putLineCsums(run, page)
	}
	run.flush()
}

// putLineCsums queues the DAX-CL-checksum of every line of page.
func (fs *FS) putLineCsums(run *csumRun, page []byte) {
	for l := 0; l < len(page); l += fs.geo.LineSize {
		run.put(xsum.Checksum(page[l : l+fs.geo.LineSize]))
	}
}

// ReconcileMapping rebuilds every redundancy structure of a mapped file
// from current media content: per-page system-checksums, cross-DIMM parity
// for all of its stripes, and the DAX-CL-checksum region when present.
// Setup code calls it after bulk-loading file content with raw writes.
//
// It makes one pass, stripe by stripe: each data page is read once and
// feeds its page checksum, the stripe's parity and its line checksums.
// Files are stripe-aligned (allocPages rounds to whole stripes), so a
// stripe's data pages are exactly the file's pages [k·(D−1), (k+1)·(D−1)).
func (fs *FS) ReconcileMapping(m *DaxMap) {
	f := m.f
	geo := &fs.geo
	q := fs.quantum
	if f.StartDI%q != 0 || f.Pages%q != 0 {
		panic(fmt.Sprintf("daxfs: %q data pages [%d,%d) not stripe-aligned", f.Name, f.StartDI, f.StartDI+f.Pages))
	}
	ps := uint64(geo.PageSize)
	page := make([]byte, ps)
	parity := make([]byte, ps)
	pageCsums := fs.newCsumRun(fs.pageCsumDI, f.StartDI)
	var lineCsums *csumRun
	if f.csumPages != 0 {
		lineCsums = fs.newCsumRun(f.csumDI, 0)
	}
	for p := uint64(0); p < f.Pages; p++ {
		fs.eng.NVM.ReadRaw(fs.addr(f, p*ps), page)
		pageCsums.put(xsum.Checksum(page))
		if lineCsums != nil {
			fs.putLineCsums(lineCsums, page)
		}
		if p%q == 0 {
			copy(parity, page)
		} else {
			xsum.XORInto(parity, page)
		}
		if p%q == q-1 {
			s := geo.StripeOf(geo.PageOfDataIndex(f.StartDI + p))
			fs.eng.NVM.WriteRaw(geo.PageBase(geo.ParityPage(s)), parity)
		}
	}
	pageCsums.flush()
	if lineCsums != nil {
		lineCsums.flush()
	}
}

// MUnmap tears down a mapping: page-granular system-checksums are
// reconciled from the mapped data, and the controller's comparators are
// cleared.
func (fs *FS) MUnmap(m *DaxMap) error {
	f := m.f
	if !f.mapped {
		return fmt.Errorf("daxfs: %q not mapped", f.Name)
	}
	fs.updatePageCsums(f, 0, f.Pages)
	if fs.ctrl != nil {
		fs.ctrl.UnregisterMapping(f.Name)
	}
	f.mapped = false
	f.csumDI, f.csumPages = 0, 0
	return nil
}

// File returns the mapped file.
func (m *DaxMap) File() *File { return m.f }

// Size returns the mapping's length in bytes.
func (m *DaxMap) Size() uint64 { return m.f.Size() }

// Addr translates a mapping offset to its physical address.
func (m *DaxMap) Addr(off uint64) uint64 { return m.fs.addr(m.f, off) }

// CsumDI returns the data-page index of the DAX-CL-checksum region
// (meaningful only under Tvarak with cache-line checksums).
func (m *DaxMap) CsumDI() uint64 { return m.f.csumDI }

// Load reads len(buf) bytes at mapping offset off on core c, splitting the
// access at page boundaries (pages are physically discontiguous across
// parity holes).
func (m *DaxMap) Load(c *sim.Core, off uint64, buf []byte) {
	ps := uint64(m.fs.geo.PageSize)
	for n := uint64(0); n < uint64(len(buf)); {
		cur := off + n
		chunk := min(uint64(len(buf))-n, ps-cur%ps)
		c.Load(m.Addr(cur), buf[n:n+chunk])
		n += chunk
	}
}

// Store writes data at mapping offset off on core c.
func (m *DaxMap) Store(c *sim.Core, off uint64, data []byte) {
	ps := uint64(m.fs.geo.PageSize)
	for n := uint64(0); n < uint64(len(data)); {
		cur := off + n
		chunk := min(uint64(len(data))-n, ps-cur%ps)
		c.Store(m.Addr(cur), data[n:n+chunk])
		n += chunk
	}
}

// Load64 reads a little-endian uint64 at mapping offset off.
func (m *DaxMap) Load64(c *sim.Core, off uint64) uint64 {
	var b [8]byte
	m.Load(c, off, b[:])
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

// Store64 writes a little-endian uint64 at mapping offset off.
func (m *DaxMap) Store64(c *sim.Core, off uint64, v uint64) {
	var b [8]byte
	for i := range b {
		b[i] = byte(v >> (8 * i))
	}
	m.Store(c, off, b[:])
}

// ---------------------------------------------------------------------------
// Scrubbing and recovery
// ---------------------------------------------------------------------------

// Corruption reports one page that failed scrub verification.
type Corruption struct {
	File string
	Page uint64 // data page index within the file
}

// Scrub verifies system-checksums over all files: page-granular checksums
// for unmapped files and DAX-CL-checksums for mapped files (the background
// scrubbing of the Mojim/HotPot rows in Table I). It reads media directly
// (untimed) and returns all corrupted pages found. Call it with caches
// drained (sim.Engine.Run drains on return); dirty cached state is newer
// than media and would read as spurious mismatches. For a timed scrubber
// that runs on a core during workloads, see Scrubber.
func (fs *FS) Scrub() []Corruption {
	var bad []Corruption
	geo := &fs.geo
	page := make([]byte, geo.PageSize)
	for _, f := range fs.Files() {
		for p := uint64(0); p < f.Pages; p++ {
			fs.eng.NVM.ReadRaw(fs.addr(f, p*uint64(geo.PageSize)), page)
			if !f.mapped || fs.ctrl == nil || !fs.eng.Cfg.Tvarak.Features.CacheLineChecksums {
				if xsum.Checksum(page) != fs.readPageCsum(f.StartDI+p) {
					bad = append(bad, Corruption{File: f.Name, Page: p})
				}
				continue
			}
			ls := geo.LineSize
			for l := 0; l < geo.LinesPerPage(); l++ {
				idx := p*uint64(geo.LinesPerPage()) + uint64(l)
				var ent [xsum.Size]byte
				fs.eng.NVM.ReadRaw(geo.DataIndexAddr(f.csumDI, idx*xsum.Size), ent[:])
				if xsum.Checksum(page[l*ls:(l+1)*ls]) != xsum.Get(ent[:], 0) {
					bad = append(bad, Corruption{File: f.Name, Page: p})
					break
				}
			}
		}
	}
	return bad
}

// RecoverFilePage reconstructs file page p from cross-DIMM parity
// (XOR of the parity page and the stripe's other data pages), repairs
// media, and re-verifies the page against its system-checksum.
func (fs *FS) RecoverFilePage(f *File, page uint64) error {
	geo := &fs.geo
	pp := geo.PageOfDataIndex(f.StartDI + page)
	s := geo.StripeOf(pp)
	rec := make([]byte, geo.PageSize)
	buf := make([]byte, geo.PageSize)
	fs.eng.NVM.ReadRaw(geo.PageBase(geo.ParityPage(s)), rec)
	for k := 0; k < geo.DIMMs; k++ {
		cand := s*uint64(geo.DIMMs) + uint64(k)
		if k == geo.ParitySlot(s) || cand == pp {
			continue
		}
		fs.eng.NVM.ReadRaw(geo.PageBase(cand), buf)
		xsum.XORInto(rec, buf)
	}
	if !f.mapped {
		if xsum.Checksum(rec) != fs.readPageCsum(f.StartDI+page) {
			return fmt.Errorf("daxfs: page %d of %q unrecoverable (reconstruction fails checksum)", page, f.Name)
		}
	}
	fs.eng.NVM.WriteRaw(geo.PageBase(pp), rec)
	return nil
}
