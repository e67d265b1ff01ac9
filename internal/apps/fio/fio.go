// Package fio reproduces the fio (libpmem engine) synthetic workloads of
// §IV-E: 12 threads issue 64 B loads or stores over DAX-mapped file data,
// sequentially or randomly, each thread in a non-overlapping region with no
// cache line accessed twice.
package fio

import (
	"encoding/binary"
	"fmt"
	"math/rand"

	"tvarak/internal/daxfs"
	"tvarak/internal/harness"
	"tvarak/internal/param"
	"tvarak/internal/sim"
	"tvarak/internal/swred"
)

// Pattern is the access pattern.
type Pattern int

const (
	Seq Pattern = iota
	Rand
)

// String returns the label.
func (p Pattern) String() string {
	if p == Seq {
		return "seq"
	}
	return "rand"
}

// Config shapes a fio workload.
type Config struct {
	Pattern Pattern
	Write   bool
	Threads int
	// RegionBytes is each thread's private region; AccessBytes (≤ Region)
	// is how much of it the fixed work touches, 64 B at a time, no line
	// twice.
	RegionBytes uint64
	AccessBytes uint64
	BlockBytes  uint64
	ComputeCyc  uint64 // per-IO bookkeeping cost of fio's engine
	Seed        int64
}

// Default returns the paper-shaped configuration at reproduction scale
// (the paper uses 12 threads, 512 MB regions, 32 MB of accesses).
func Default(p Pattern, write bool) Config {
	return Config{
		Pattern:     p,
		Write:       write,
		Threads:     12,
		RegionBytes: 8 << 20,
		AccessBytes: 2 << 20,
		BlockBytes:  64,
		ComputeCyc:  600,
		Seed:        1,
	}
}

// Workload implements harness.Workload.
type Workload struct {
	Cfg   Config
	m     *daxfs.DaxMap
	raw   *swred.RawScheme
	async *swred.Vilamb
}

// New returns the workload.
func New(cfg Config) *Workload { return &Workload{Cfg: cfg} }

// Name implements harness.Workload.
func (w *Workload) Name() string {
	op := "read"
	if w.Cfg.Write {
		op = "write"
	}
	return fmt.Sprintf("fio/%s-%s", w.Cfg.Pattern, op)
}

// Setup implements harness.Workload: one mapped file covering all thread
// regions, prefilled so reads verify real content.
func (w *Workload) Setup(s *harness.System) error {
	cfg := w.Cfg
	if cfg.Threads > s.Cfg.Cores {
		return fmt.Errorf("fio: %d threads > %d cores", cfg.Threads, s.Cfg.Cores)
	}
	if cfg.AccessBytes > cfg.RegionBytes {
		return fmt.Errorf("fio: %d access bytes > %d region bytes per thread", cfg.AccessBytes, cfg.RegionBytes)
	}
	m, err := s.NewMapping("fio", uint64(cfg.Threads)*cfg.RegionBytes)
	if err != nil {
		return err
	}
	w.m = m
	switch s.Cfg.Design {
	case param.TxBObjectCsums, param.TxBPageCsums:
		w.raw, err = swred.AttachRaw(s.FS, m, s.Cfg.Design, cfg.BlockBytes)
		if err != nil {
			return err
		}
	case param.Vilamb:
		w.async = s.Async(m)
	}
	// Prefill with a raw pattern (setup, untimed) and rebuild redundancy.
	if err := prefill(s, m); err != nil {
		return err
	}
	return nil
}

// prefill writes a deterministic pattern over the mapping's pages using
// raw device writes and reconciles checksums and parity, so measured reads
// hit real, verifiable content.
func prefill(s *harness.System, m *daxfs.DaxMap) error {
	geo := s.FS.Geometry()
	ps := uint64(geo.PageSize)
	page := make([]byte, ps)
	bs := byteStream{src: rand.NewSource(7)}
	for off := uint64(0); off < m.Size(); off += ps {
		bs.Read(page)
		s.Eng.NVM.WriteRaw(m.Addr(off), page)
	}
	// Reconcile every redundancy structure (page checksums, parity, and
	// the DAX-CL-checksum region when present) with the new content.
	s.FS.ReconcileMapping(m)
	return nil
}

// byteStream yields the same bytes as rand.New(src).Read: each Int63
// supplies seven bytes, low byte first, and bytes left over at the end of
// one Read start the next. Whole seven-byte groups are written with one
// eight-byte store, whose extra byte the next group overwrites.
type byteStream struct {
	src rand.Source
	val int64 // undelivered bytes of the last Int63, low byte next
	pos int8  // how many bytes of val remain
}

// Read fills p.
func (s *byteStream) Read(p []byte) {
	n := 0
	for ; n < len(p) && s.pos > 0; n++ {
		p[n] = byte(s.val)
		s.val >>= 8
		s.pos--
	}
	for ; len(p)-n >= 8; n += 7 {
		binary.LittleEndian.PutUint64(p[n:], uint64(s.src.Int63()))
	}
	for ; n < len(p); n++ {
		if s.pos == 0 {
			s.val, s.pos = s.src.Int63(), 7
		}
		p[n] = byte(s.val)
		s.val >>= 8
		s.pos--
	}
}

// Workers implements harness.Workload.
func (w *Workload) Workers(s *harness.System) []func(*sim.Core) {
	cfg := w.Cfg
	workers := make([]func(*sim.Core), cfg.Threads)
	for i := 0; i < cfg.Threads; i++ {
		i := i
		base := uint64(i) * cfg.RegionBytes
		workers[i] = func(c *sim.Core) {
			nBlocks := int(cfg.RegionBytes / cfg.BlockBytes)
			ops := int(cfg.AccessBytes / cfg.BlockBytes)
			var order []int
			if cfg.Pattern == Rand {
				order = rand.New(rand.NewSource(cfg.Seed + int64(i))).Perm(nBlocks)[:ops]
			}
			buf := make([]byte, cfg.BlockBytes)
			rng := rand.New(rand.NewSource(cfg.Seed + 100 + int64(i)))
			for op := 0; op < ops; op++ {
				c.Compute(cfg.ComputeCyc)
				blk := op
				if order != nil {
					blk = order[op]
				}
				off := base + uint64(blk)*cfg.BlockBytes
				if cfg.Write {
					rng.Read(buf)
					w.m.Store(c, off, buf)
					if w.raw != nil {
						w.raw.OnWrite(c, off, cfg.BlockBytes)
					}
					if w.async != nil {
						w.async.MarkDirty(c, off, cfg.BlockBytes)
					}
				} else {
					w.m.Load(c, off, buf)
				}
			}
		}
	}
	return workers
}
