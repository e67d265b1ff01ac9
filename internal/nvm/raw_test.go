package nvm

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"tvarak/internal/geom"
	"tvarak/internal/param"
	"tvarak/internal/xsum"
)

// denseRef is the reference model the sparse page tables are checked
// against: one flat byte array for the whole pool plus one device ECC word
// per line, both fully allocated and filled up front, with the firmware
// bugs and observer calls modelled from the package documentation. It
// knows nothing of DIMMs, interleaving or pages.
type denseRef struct {
	base  uint64
	ls    int
	data  []byte
	ecc   []uint32
	bugsW map[uint64]bug
	bugsR map[uint64]bug
	log   obsLog

	// landed records the pages (ps bytes each from base) a write of any
	// kind reached; for NVM these are exactly the pages to materialize.
	ps     uint64
	landed map[uint64]bool

	reads, writes uint64
}

func newDenseRef(base, size uint64, ls, ps int) *denseRef {
	r := &denseRef{
		base: base, ls: ls, ps: uint64(ps), landed: map[uint64]bool{},
		data:  make([]byte, size),
		ecc:   make([]uint32, size/uint64(ls)),
		bugsW: map[uint64]bug{}, bugsR: map[uint64]bug{},
	}
	zero := xsum.Checksum(make([]byte, ls))
	for i := range r.ecc {
		r.ecc[i] = zero
	}
	return r
}

func (r *denseRef) line(addr uint64) []byte {
	i := addr - r.base
	return r.data[i : i+uint64(r.ls)]
}

func (r *denseRef) eccAt(addr uint64) *uint32 { return &r.ecc[(addr-r.base)/uint64(r.ls)] }

func (r *denseRef) writeLine(addr uint64, class Class, data []byte) {
	r.log.observeW(addr, data, true, class)
	r.writes++
	dst := addr
	if b, ok := r.bugsW[addr]; ok && class == Data {
		delete(r.bugsW, addr)
		if b.kind == lostWrite {
			return
		}
		dst = b.target
	}
	copy(r.line(dst), data)
	*r.eccAt(dst) = xsum.Checksum(data)
	r.land(dst, len(data))
}

func (r *denseRef) land(addr uint64, n int) {
	for a := addr; a < addr+uint64(n); a++ {
		r.landed[(a-r.base)/r.ps] = true
	}
}

func (r *denseRef) flipBit(addr uint64, bit uint) {
	r.data[addr-r.base] ^= 1 << (bit % 8)
	r.land(addr, 1)
}

func (r *denseRef) readLine(addr uint64, class Class, buf []byte) error {
	r.reads++
	src := addr
	if b, ok := r.bugsR[addr]; ok && class == Data {
		delete(r.bugsR, addr)
		src = b.target
	}
	copy(buf, r.line(src))
	eccErr := *r.eccAt(src) != xsum.Checksum(buf)
	r.log.observeR(addr, buf, class, eccErr)
	if eccErr {
		return ErrECC
	}
	return nil
}

func (r *denseRef) writeRaw(addr uint64, data []byte) {
	r.log.observeW(addr, data, false, Data)
	if len(data) == 0 {
		return
	}
	copy(r.data[addr-r.base:], data)
	r.land(addr, len(data))
	ls := uint64(r.ls)
	for la := addr &^ (ls - 1); la < addr+uint64(len(data)); la += ls {
		*r.eccAt(la) = xsum.Checksum(r.line(la))
	}
}

// obsLog records observer calls for comparison.
type obsLog []string

func (l *obsLog) observeW(addr uint64, data []byte, timed bool, class Class) {
	*l = append(*l, fmt.Sprintf("W %#x %x %v %d", addr, data, timed, class))
}

func (l *obsLog) observeR(addr uint64, buf []byte, class Class, eccErr bool) {
	*l = append(*l, fmt.Sprintf("R %#x %x %d %v", addr, buf, class, eccErr))
}

// TestRawPathMatchesLineReference drives the sparse media and the dense
// reference model through the same seeded stream of public operations on
// both pools and two DIMM counts: timed line reads and writes (ECC errors
// included), unaligned raw reads, writes and compares crossing lines,
// pages and DIMMs, bit flips, and all three injected firmware bugs. Every
// returned byte, error and observer call must agree, reads must never
// materialize a page, and at the end media, device ECC, access counts and
// (for NVM, whose pages are DIMM-local pages) the materialized set must
// match what the reference implies.
func TestRawPathMatchesLineReference(t *testing.T) {
	for _, dimms := range []int{4, 6} {
		for _, kind := range []Kind{NVMKind, DRAMKind} {
			t.Run(fmt.Sprintf("dimms=%d/kind=%d", dimms, kind), func(t *testing.T) {
				// 8 stripes of NVM; DRAM a multiple of lines x DIMMs.
				g, err := geom.New(64, 4096, 4096*dimms*4, 4096*dimms*8, dimms)
				if err != nil {
					t.Fatal(err)
				}
				p := param.OptaneLike(dimms).Mem
				m := New(kind, g, p, nil)
				ref := newDenseRef(m.Base(), m.Size(), g.LineSize, g.PageSize)
				var got obsLog
				m.SetWriteObserver(got.observeW)
				m.SetReadObserver(got.observeR)
				rng := rand.New(rand.NewSource(int64(dimms)*10 + int64(kind)))
				size := int(m.Size())
				ls := uint64(g.LineSize)
				lines := uint64(size) / ls
				// A few hot lines so armed bugs meet the accesses that fire
				// them; the rest of the stream roams the whole pool.
				hot := make([]uint64, 12)
				for i := range hot {
					hot[i] = m.Base() + uint64(rng.Int63n(int64(lines)))*ls
				}
				pickLine := func() uint64 {
					if rng.Intn(2) == 0 {
						return hot[rng.Intn(len(hot))]
					}
					return m.Base() + uint64(rng.Int63n(int64(lines)))*ls
				}
				pickRange := func() (uint64, int) {
					n := rng.Intn(3*g.PageSize + 200)
					if rng.Intn(8) == 0 {
						n = rng.Intn(70)
					}
					n = min(n, size)
					return m.Base() + uint64(rng.Intn(size-n+1)), n
				}
				pickClass := func() Class { return Class(rng.Intn(2)) }
				// Reads must never materialize a page: every line of the
				// range keeps its page's state.
				read := func(i int, what string, addr uint64, n int, fn func()) {
					var before []bool
					for la := g.LineAddr(addr); la < addr+uint64(n); la += ls {
						before = append(before, m.Materialized(la))
					}
					fn()
					for k, la := 0, g.LineAddr(addr); la < addr+uint64(n); k, la = k+1, la+ls {
						if m.Materialized(la) != before[k] {
							t.Fatalf("op %d: %s materialized the page of %#x", i, what, la)
						}
					}
				}
				for i := 0; i < 2000; i++ {
					switch op := rng.Intn(10); op {
					case 0, 1:
						addr, class := pickLine(), pickClass()
						data := make([]byte, ls)
						rng.Read(data)
						m.WriteLine(0, addr, class, data)
						ref.writeLine(addr, class, data)
					case 2, 3:
						addr, class := pickLine(), pickClass()
						a, b := make([]byte, ls), make([]byte, ls)
						var errA error
						read(i, "ReadLine", addr, int(ls), func() { _, errA = m.ReadLine(0, addr, class, a) })
						errB := ref.readLine(addr, class, b)
						if errA != errB || !bytes.Equal(a, b) {
							t.Fatalf("op %d: ReadLine %#x = (%x, %v), reference (%x, %v)", i, addr, a, errA, b, errB)
						}
					case 4:
						addr, n := pickRange()
						data := make([]byte, n)
						rng.Read(data)
						if rng.Intn(4) == 0 {
							clear(data) // zeros still materialize
						}
						m.WriteRaw(addr, data)
						ref.writeRaw(addr, data)
					case 5:
						addr, n := pickRange()
						a := make([]byte, n)
						read(i, "ReadRaw", addr, n, func() { m.ReadRaw(addr, a) })
						b := ref.data[addr-m.Base() : addr-m.Base()+uint64(n)]
						if !bytes.Equal(a, b) {
							t.Fatalf("op %d: ReadRaw [%#x,+%d) differs from reference", i, addr, n)
						}
						read(i, "EqualRaw", addr, n, func() {
							if !m.EqualRaw(addr, b) {
								t.Fatalf("op %d: EqualRaw [%#x,+%d) false on reference content", i, addr, n)
							}
							if n > 0 {
								a[rng.Intn(n)] ^= 1 << rng.Intn(8)
								if m.EqualRaw(addr, a) {
									t.Fatalf("op %d: EqualRaw [%#x,+%d) true on a flipped bit", i, addr, n)
								}
							}
						})
					case 6:
						addr, bit := pickLine()+uint64(rng.Intn(int(ls))), uint(rng.Intn(16))
						m.FlipBit(addr, bit)
						ref.flipBit(addr, bit)
					case 7:
						addr := pickLine()
						m.InjectLostWrite(addr)
						ref.bugsW[addr] = bug{kind: lostWrite}
					case 8:
						intended, actual := pickLine(), pickLine()
						m.InjectMisdirectedWrite(intended, actual)
						ref.bugsW[intended] = bug{kind: misdirectedWrite, target: actual}
					case 9:
						intended, actual := pickLine(), pickLine()
						m.InjectMisdirectedRead(intended, actual)
						ref.bugsR[intended] = bug{kind: misdirectedRead, target: actual}
					}
					if m.PendingBugs() != len(ref.bugsW)+len(ref.bugsR) {
						t.Fatalf("op %d: %d bugs pending, reference %d", i, m.PendingBugs(), len(ref.bugsW)+len(ref.bugsR))
					}
				}
				if strings.Join(got, "\n") != strings.Join(ref.log, "\n") {
					t.Errorf("observers saw different calls (%d vs %d)", len(got), len(ref.log))
				}
				r, w := m.DIMMAccesses()
				var reads, writes uint64
				for i := range r {
					reads, writes = reads+r[i], writes+w[i]
				}
				if reads != ref.reads || writes != ref.writes {
					t.Errorf("DIMM accesses %d reads / %d writes, reference %d / %d", reads, writes, ref.reads, ref.writes)
				}

				// Final sweep with bugs and observers gone: every line's
				// content and ECC verdict, and the NVM materialized set.
				m.SetWriteObserver(nil)
				m.SetReadObserver(nil)
				for la := m.Base(); la < m.Base()+m.Size(); la += ls {
					m.CancelBugs(la)
				}
				all := make([]byte, size)
				m.ReadRaw(m.Base(), all)
				if !bytes.Equal(all, ref.data) {
					t.Error("media differs from reference")
				}
				buf := make([]byte, ls)
				for la := m.Base(); la < m.Base()+m.Size(); la += ls {
					_, err := m.ReadLine(0, la, Data, buf)
					want := *ref.eccAt(la) != xsum.Checksum(ref.line(la))
					if errors.Is(err, ErrECC) != want {
						t.Fatalf("line %#x: ECC error %v, reference %v", la, err, want)
					}
				}
				if kind != NVMKind {
					return
				}
				for pa := m.Base(); pa < m.Base()+m.Size(); pa += uint64(g.PageSize) {
					if got, want := m.Materialized(pa), ref.landed[g.PageOf(pa)]; got != want {
						t.Errorf("page %d materialized %v, reference wrote it: %v", g.PageOf(pa), got, want)
					}
				}
			})
		}
	}
}

func TestRawOutOfPoolPanics(t *testing.T) {
	m, _, g := mkNVM(t)
	end := g.NVMEnd()
	for _, tc := range []struct {
		name string
		addr uint64
		n    int
	}{
		{"below", g.NVMBase() - 64, 128},
		{"past end", end - 64, 128},
		{"beyond", end + 4096, 8},
	} {
		for op, fn := range map[string]func(){
			"ReadRaw":  func() { m.ReadRaw(tc.addr, make([]byte, tc.n)) },
			"WriteRaw": func() { m.WriteRaw(tc.addr, make([]byte, tc.n)) },
			"EqualRaw": func() { m.EqualRaw(tc.addr, make([]byte, tc.n)) },
		} {
			func() {
				defer func() {
					msg, _ := recover().(string)
					want := fmt.Sprintf("nvm: raw range [%#x,%#x) outside pool", tc.addr, tc.addr+uint64(tc.n))
					if !strings.HasPrefix(msg, want) {
						t.Errorf("%s %s: panic %q, want prefix %q", op, tc.name, msg, want)
					}
				}()
				fn()
			}()
		}
	}
	// The last byte of the pool is in range.
	m.WriteRaw(end-1, []byte{1})
	if !m.EqualRaw(end-1, []byte{1}) {
		t.Error("last pool byte did not round-trip")
	}
}
