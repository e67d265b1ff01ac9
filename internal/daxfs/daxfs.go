// Package daxfs is the DAX-enabled NVM file system that manages TVARAK
// (§III): it lays files out over the striped NVM data pages, maintains
// per-page system-checksums for data accessed through the file-system
// interface, and — when a file is DAX-mapped — allocates the
// DAX-CL-checksum region and programs the TVARAK controller's address-range
// comparators. At munmap it reconciles page-granular checksums from the
// mapped data, so page checksums are authoritative exactly when data is not
// mapped, as in the paper.
//
// Allocations are stripe-aligned (multiples of DIMMs−1 data pages) so a
// parity group never mixes application data pages with redundancy-metadata
// pages; parity therefore stays a pure XOR of same-kind pages and recovery
// of data pages is always well-defined (see DESIGN.md §4).
package daxfs

import (
	"fmt"
	"sort"

	"tvarak/internal/core"
	"tvarak/internal/geom"
	"tvarak/internal/sim"
	"tvarak/internal/xsum"
)

// FS is the file system instance for one simulated machine.
type FS struct {
	eng  *sim.Engine
	geo  geom.Geometry
	ctrl *core.Controller // non-nil only under the Tvarak design

	nextDI  uint64 // bump allocator over data-page indices, stripe-aligned
	quantum uint64 // DIMMs-1 data pages

	files map[string]*File

	pageCsumDI    uint64
	pageCsumPages uint64
}

// File is one NVM-resident file.
type File struct {
	Name    string
	StartDI uint64
	Pages   uint64

	pageSize  uint64
	mapped    bool
	csumDI    uint64
	csumPages uint64
}

// Size returns the file's capacity in bytes.
func (f *File) Size() uint64 { return f.Pages * f.pageSize }

// New creates the file system on eng's NVM, reserving and initializing the
// global per-page checksum table. When the engine runs the Tvarak design,
// pass the controller so mappings are registered with it; otherwise ctrl is
// nil.
func New(eng *sim.Engine, ctrl *core.Controller) (*FS, error) {
	geo := eng.Geo
	fs := &FS{
		eng:     eng,
		geo:     geo,
		ctrl:    ctrl,
		quantum: uint64(geo.DIMMs - 1),
		files:   make(map[string]*File),
	}
	// Reserve the per-page checksum table: one 4 B checksum per data page.
	tableBytes := geo.DataPages() * xsum.Size
	tablePages := (tableBytes + uint64(geo.PageSize) - 1) / uint64(geo.PageSize)
	di, err := fs.allocPages(tablePages)
	if err != nil {
		return nil, fmt.Errorf("daxfs: page checksum table: %w", err)
	}
	fs.pageCsumDI = di
	fs.pageCsumPages = tablePages
	// All pages start zeroed; initialize every table entry to the checksum
	// of a zero page so unwritten pages verify. Written page-at-a-time to
	// keep setup fast.
	zeroCsum := xsum.Checksum(make([]byte, geo.PageSize))
	entries := make([]byte, geo.PageSize)
	for i := 0; i < geo.PageSize/xsum.Size; i++ {
		xsum.Put(entries, i, zeroCsum)
	}
	for p := uint64(0); p < tablePages; p++ {
		fs.eng.NVM.WriteRaw(geo.DataIndexAddr(fs.pageCsumDI, p*uint64(geo.PageSize)), entries)
	}
	if ctrl != nil {
		ctrl.SetPageCsumTable(fs.pageCsumDI)
	}
	return fs, nil
}

// Engine returns the simulation engine the file system lives on.
func (fs *FS) Engine() *sim.Engine { return fs.eng }

// Controller returns the attached TVARAK controller (nil for software-only
// designs).
func (fs *FS) Controller() *core.Controller { return fs.ctrl }

// Geometry returns the NVM layout.
func (fs *FS) Geometry() geom.Geometry { return fs.geo }

// pageCsumAddr returns the physical address of data page p's checksum entry.
func (fs *FS) pageCsumAddr(dataIndex uint64) uint64 {
	return fs.geo.DataIndexAddr(fs.pageCsumDI, dataIndex*xsum.Size)
}

// allocPages reserves n data pages (rounded up to whole stripes) and
// returns the starting data-page index.
func (fs *FS) allocPages(n uint64) (uint64, error) {
	n = (n + fs.quantum - 1) / fs.quantum * fs.quantum
	if fs.nextDI+n > fs.geo.DataPages() {
		return 0, fmt.Errorf("daxfs: out of NVM (%d data pages requested, %d free)",
			n, fs.geo.DataPages()-fs.nextDI)
	}
	di := fs.nextDI
	fs.nextDI += n
	return di, nil
}

// AllocRaw reserves n data pages for auxiliary regions (software checksum
// tables, etc.) and returns the starting data-page index. The region is
// zeroed (NVM starts zeroed) and not tracked as a file.
func (fs *FS) AllocRaw(n uint64) (uint64, error) { return fs.allocPages(n) }

// Create allocates a file of at least size bytes (rounded up to whole
// stripes of pages), zero-filled.
func (fs *FS) Create(name string, size uint64) (*File, error) {
	if _, ok := fs.files[name]; ok {
		return nil, fmt.Errorf("daxfs: file %q exists", name)
	}
	pages := (size + uint64(fs.geo.PageSize) - 1) / uint64(fs.geo.PageSize)
	di, err := fs.allocPages(pages)
	if err != nil {
		return nil, err
	}
	f := &File{
		Name:     name,
		StartDI:  di,
		Pages:    (pages + fs.quantum - 1) / fs.quantum * fs.quantum,
		pageSize: uint64(fs.geo.PageSize),
	}
	fs.files[name] = f
	return f, nil
}

// Open returns an existing file.
func (fs *FS) Open(name string) (*File, error) {
	f, ok := fs.files[name]
	if !ok {
		return nil, fmt.Errorf("daxfs: file %q not found", name)
	}
	return f, nil
}

// addr translates a byte offset within file f to its physical address.
func (fs *FS) addr(f *File, off uint64) uint64 {
	if off >= f.Size() {
		panic(fmt.Sprintf("daxfs: offset %d beyond file %q (%d bytes)", off, f.Name, f.Size()))
	}
	return fs.geo.DataIndexAddr(f.StartDI, off)
}

// ---------------------------------------------------------------------------
// File-system interface I/O (non-DAX path)
// ---------------------------------------------------------------------------

// ErrChecksum reports a failed system-checksum verification on the
// file-system read path.
type ErrChecksum struct {
	File string
	Page uint64 // data-page index within the file
}

func (e *ErrChecksum) Error() string {
	return fmt.Sprintf("daxfs: checksum mismatch reading %q page %d", e.File, e.Page)
}

// ReadAt reads through the file-system interface, verifying the per-page
// system-checksum of every touched page (the Nova-Fortis-style coverage of
// Table I). It is a functional (untimed) path.
func (fs *FS) ReadAt(f *File, off uint64, buf []byte) error {
	if f.mapped {
		return fmt.Errorf("daxfs: %q is DAX-mapped; access it through the mapping", f.Name)
	}
	ps := uint64(fs.geo.PageSize)
	pageBuf := make([]byte, ps)
	for n := uint64(0); n < uint64(len(buf)); {
		cur := off + n
		page := cur / ps
		fs.eng.NVM.ReadRaw(fs.addr(f, page*ps), pageBuf)
		want := fs.readPageCsum(f.StartDI + page)
		if xsum.Checksum(pageBuf) != want {
			if err := fs.RecoverFilePage(f, page); err != nil {
				return err
			}
			fs.eng.NVM.ReadRaw(fs.addr(f, page*ps), pageBuf)
		}
		in := cur % ps
		c := copy(buf[n:], pageBuf[in:])
		n += uint64(c)
	}
	return nil
}

// WriteAt writes through the file-system interface, updating per-page
// system-checksums and cross-DIMM parity.
func (fs *FS) WriteAt(f *File, off uint64, data []byte) error {
	if f.mapped {
		return fmt.Errorf("daxfs: %q is DAX-mapped; access it through the mapping", f.Name)
	}
	if off+uint64(len(data)) > f.Size() {
		return fmt.Errorf("daxfs: write beyond EOF of %q", f.Name)
	}
	ps := uint64(fs.geo.PageSize)
	for n := uint64(0); n < uint64(len(data)); {
		cur := off + n
		in := cur % ps
		c := min(uint64(len(data))-n, ps-in)
		fs.eng.NVM.WriteRaw(fs.addr(f, cur), data[n:n+c])
		n += c
	}
	firstPage := off / ps
	lastPage := (off + uint64(len(data)) - 1) / ps
	fs.updatePageCsums(f, firstPage, lastPage+1)
	fs.rebuildParityForRange(f, firstPage, lastPage)
	return nil
}

func (fs *FS) readPageCsum(dataIndex uint64) uint32 {
	var ent [xsum.Size]byte
	fs.eng.NVM.ReadRaw(fs.pageCsumAddr(dataIndex), ent[:])
	return xsum.Get(ent[:], 0)
}

// csumRun writes 4 B checksum entries to consecutive slots of one
// data-page region, batched into page-sized WriteRaw runs (a region's data
// pages are not physically contiguous). Call flush after the last put.
type csumRun struct {
	fs   *FS
	di   uint64 // region's first data-page index
	slot uint64 // slot of buf[0]
	buf  []byte // pending entries, at most one page
}

func (fs *FS) newCsumRun(di, slot uint64) *csumRun {
	return &csumRun{fs: fs, di: di, slot: slot, buf: make([]byte, 0, fs.geo.PageSize)}
}

// put queues c for the next slot, flushing at the end of a region page.
func (r *csumRun) put(c uint32) {
	r.buf = r.buf[:len(r.buf)+xsum.Size]
	xsum.Put(r.buf, len(r.buf)/xsum.Size-1, c)
	if (r.slot*xsum.Size+uint64(len(r.buf)))%uint64(r.fs.geo.PageSize) == 0 {
		r.flush()
	}
}

func (r *csumRun) flush() {
	if len(r.buf) != 0 {
		r.fs.eng.NVM.WriteRaw(r.fs.geo.DataIndexAddr(r.di, r.slot*xsum.Size), r.buf)
		r.slot += uint64(len(r.buf)) / xsum.Size
		r.buf = r.buf[:0]
	}
}

// updatePageCsums recomputes the per-page checksums of file pages
// [first, end) from current media content, writing the table in runs.
func (fs *FS) updatePageCsums(f *File, first, end uint64) {
	ps := uint64(fs.geo.PageSize)
	page := make([]byte, ps)
	run := fs.newCsumRun(fs.pageCsumDI, f.StartDI+first)
	for p := first; p < end; p++ {
		fs.eng.NVM.ReadRaw(fs.addr(f, p*ps), page)
		run.put(xsum.Checksum(page))
	}
	run.flush()
}

// rebuildParityForRange recomputes the parity pages of every stripe that
// file pages [first,last] touch, from current media content.
func (fs *FS) rebuildParityForRange(f *File, first, last uint64) {
	seen := make(map[uint64]bool)
	for p := first; p <= last; p++ {
		s := fs.geo.StripeOf(fs.geo.PageOfDataIndex(f.StartDI + p))
		if !seen[s] {
			seen[s] = true
			fs.RebuildStripeParity(s)
		}
	}
}

// RebuildStripeParity recomputes stripe s's parity page as the XOR of its
// data pages' current media content.
func (fs *FS) RebuildStripeParity(s uint64) {
	geo := fs.geo
	parity := make([]byte, geo.PageSize)
	buf := make([]byte, geo.PageSize)
	pi := geo.ParitySlot(s)
	for k := 0; k < geo.DIMMs; k++ {
		if k == pi {
			continue
		}
		fs.eng.NVM.ReadRaw(geo.PageBase(s*uint64(geo.DIMMs)+uint64(k)), buf)
		xsum.XORInto(parity, buf)
	}
	fs.eng.NVM.WriteRaw(geo.PageBase(geo.ParityPage(s)), parity)
}

// Files returns every file in deterministic (name-sorted) order. The
// shadow oracle walks this to know which data pages, checksum regions and
// page-checksum slots the reference model must cover.
func (fs *FS) Files() []*File {
	names := make([]string, 0, len(fs.files))
	for n := range fs.files {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]*File, len(names))
	for i, n := range names {
		out[i] = fs.files[n]
	}
	return out
}

// Mapped reports whether the file is currently DAX-mapped.
func (f *File) Mapped() bool { return f.mapped }

// CsumRegion returns the file's DAX-CL-checksum region (starting data-page
// index and page count); both are zero unless the file is mapped under the
// Tvarak design.
func (f *File) CsumRegion() (di, pages uint64) { return f.csumDI, f.csumPages }

// PageCsumTable returns the global per-page checksum table's location
// (starting data-page index and page count).
func (fs *FS) PageCsumTable() (di, pages uint64) { return fs.pageCsumDI, fs.pageCsumPages }
