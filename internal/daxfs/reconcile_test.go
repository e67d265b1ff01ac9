package daxfs_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"tvarak/internal/core"
	"tvarak/internal/daxfs"
	"tvarak/internal/param"
	"tvarak/internal/sim"
	"tvarak/internal/swred"
	"tvarak/internal/xsum"
)

// refReconcileMapping is the multi-pass ReconcileMapping the one-pass
// version replaced, kept as the reference the equivalence test checks
// against: per-page checksums written 4 B at a time, then parity for every
// touched stripe, then the DAX-CL-checksum region from a third read.
func refReconcileMapping(fs *daxfs.FS, m *daxfs.DaxMap) {
	e := fs.Engine()
	geo := fs.Geometry()
	f := m.File()
	tableDI, _ := fs.PageCsumTable()
	stripes := map[uint64]bool{}
	for p := uint64(0); p < f.Pages; p++ {
		buf := make([]byte, geo.PageSize)
		e.NVM.ReadRaw(m.Addr(p*uint64(geo.PageSize)), buf)
		var ent [xsum.Size]byte
		xsum.Put(ent[:], 0, xsum.Checksum(buf))
		e.NVM.WriteRaw(geo.DataIndexAddr(tableDI, (f.StartDI+p)*xsum.Size), ent[:])
		stripes[geo.StripeOf(geo.PageOfDataIndex(f.StartDI+p))] = true
	}
	for s := range stripes {
		fs.RebuildStripeParity(s)
	}
	csumDI, csumPages := f.CsumRegion()
	if csumPages == 0 {
		return
	}
	ls := geo.LineSize
	lpp := geo.LinesPerPage()
	page := make([]byte, geo.PageSize)
	csums := make([]byte, f.Pages*uint64(lpp)*xsum.Size)
	for p := uint64(0); p < f.Pages; p++ {
		e.NVM.ReadRaw(m.Addr(p*uint64(geo.PageSize)), page)
		for l := 0; l < lpp; l++ {
			idx := int(p)*lpp + l
			xsum.Put(csums, idx, xsum.Checksum(page[l*ls:(l+1)*ls]))
		}
	}
	for off := 0; off < len(csums); off += geo.PageSize {
		end := min(off+geo.PageSize, len(csums))
		e.NVM.WriteRaw(geo.DataIndexAddr(csumDI, uint64(off)), csums[off:end])
	}
}

type reconcileDesign struct {
	name string
	d    param.Design
	cl   bool // Tvarak CacheLineChecksums
}

var reconcileDesigns = []reconcileDesign{
	{"baseline", param.Baseline, true},
	{"tvarak", param.Tvarak, true},
	{"tvarak-page-csums", param.Tvarak, false},
	{"txb-page-csums", param.TxBPageCsums, true},
}

// reconcileFixture builds a file system for design rd, creates and maps
// one file per size, and fills every file with seeded random raw content
// (behind the redundancy's back, as workload prefill does).
func reconcileFixture(t testing.TB, rd reconcileDesign, sizes []uint64) (*sim.Engine, *daxfs.FS, []*daxfs.DaxMap) {
	t.Helper()
	cfg := param.SmallTest(rd.d)
	cfg.Tvarak.Features.CacheLineChecksums = rd.cl
	e, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var ctrl *core.Controller
	if rd.d == param.Tvarak {
		ctrl = core.New(e)
	}
	fs, err := daxfs.New(e, ctrl)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(int64(len(sizes))))
	var maps []*daxfs.DaxMap
	for i, size := range sizes {
		name := fmt.Sprintf("f%d", i)
		if _, err := fs.Create(name, size); err != nil {
			t.Fatal(err)
		}
		m, err := fs.MMap(name)
		if err != nil {
			t.Fatal(err)
		}
		if rd.d == param.TxBPageCsums {
			if _, err := swred.AttachRaw(fs, m, rd.d, 64); err != nil {
				t.Fatal(err)
			}
		}
		maps = append(maps, m)
	}
	ps := uint64(fs.Geometry().PageSize)
	page := make([]byte, ps)
	for _, m := range maps {
		for off := uint64(0); off < m.Size(); off += ps {
			rng.Read(page)
			e.NVM.WriteRaw(m.Addr(off), page)
		}
	}
	return e, fs, maps
}

// TestReconcileMappingMatchesReference runs the one-pass ReconcileMapping
// and the multi-pass reference on identically built and filled systems;
// the whole NVM pool must come out byte-identical.
func TestReconcileMappingMatchesReference(t *testing.T) {
	g := param.SmallTest(param.Baseline)
	stripe := uint64(g.PageSize * (g.NVM.DIMMs - 1))
	layouts := []struct {
		name  string
		sizes []uint64
	}{
		{"one-stripe", []uint64{stripe}},
		{"many-stripes", []uint64{37 * stripe}},
		{"two-files", []uint64{3 * stripe, 11*stripe - 100}},
	}
	for _, rd := range reconcileDesigns {
		for _, l := range layouts {
			t.Run(rd.name+"/"+l.name, func(t *testing.T) {
				eGot, fsGot, got := reconcileFixture(t, rd, l.sizes)
				eRef, fsRef, ref := reconcileFixture(t, rd, l.sizes)
				for i := range got {
					fsGot.ReconcileMapping(got[i])
					refReconcileMapping(fsRef, ref[i])
				}
				n := eGot.NVM.Size()
				a, b := make([]byte, n), make([]byte, n)
				eGot.NVM.ReadRaw(eGot.NVM.Base(), a)
				eRef.NVM.ReadRaw(eRef.NVM.Base(), b)
				if !bytes.Equal(a, b) {
					i := 0
					for a[i] == b[i] {
						i++
					}
					t.Fatalf("NVM differs from reference first at %#x", eGot.NVM.Base()+uint64(i))
				}
				if bad := fsGot.Scrub(); len(bad) != 0 {
					t.Errorf("scrub after reconcile: %v", bad)
				}
			})
		}
	}
}

func TestReconcileMappingRejectsUnalignedFile(t *testing.T) {
	_, fs := fsFixture(t, param.Baseline)
	if _, err := fs.Create("a", 4096); err != nil {
		t.Fatal(err)
	}
	m, err := fs.MMap("a")
	if err != nil {
		t.Fatal(err)
	}
	m.File().Pages-- // no longer whole stripes
	defer func() {
		if recover() == nil {
			t.Error("ReconcileMapping accepted a file that is not stripe-aligned")
		}
	}()
	fs.ReconcileMapping(m)
}

// TestScrubOrderIsDeterministic corrupts two files and checks that every
// Scrub returns the same corruptions, ordered by (file, page).
func TestScrubOrderIsDeterministic(t *testing.T) {
	e, fs := fsFixture(t, param.Baseline)
	geo := fs.Geometry()
	var files []*daxfs.File
	for _, name := range []string{"zeta", "alpha", "mid"} {
		f, err := fs.Create(name, 64<<10)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	for _, c := range []struct {
		f    *daxfs.File
		page uint64
	}{{files[0], 9}, {files[1], 4}, {files[0], 2}, {files[1], 0}} {
		e.NVM.WriteRaw(geo.DataIndexAddr(c.f.StartDI+c.page, 100), []byte{0xBA, 0xD0})
	}
	want := fs.Scrub()
	if !sort.SliceIsSorted(want, func(i, j int) bool {
		if want[i].File != want[j].File {
			return want[i].File < want[j].File
		}
		return want[i].Page < want[j].Page
	}) || len(want) != 4 {
		t.Fatalf("scrub = %v, want 4 corruptions ordered by (file, page)", want)
	}
	for i := 0; i < 20; i++ {
		if got := fs.Scrub(); !reflect.DeepEqual(got, want) {
			t.Fatalf("scrub %d = %v, want %v", i, got, want)
		}
	}
}

// BenchmarkReconcileMapping reconciles a 2.5 MB mapped file (128 stripes)
// under TVARAK with DAX-CL-checksums: page checksums, parity and line
// checksums from one read of every data page.
func BenchmarkReconcileMapping(b *testing.B) {
	g := param.SmallTest(param.Tvarak)
	size := 128 * uint64(g.PageSize*(g.NVM.DIMMs-1))
	_, fs, maps := reconcileFixture(b, reconcileDesigns[1], []uint64{size})
	b.ReportAllocs()
	b.SetBytes(int64(size))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fs.ReconcileMapping(maps[0])
	}
}
