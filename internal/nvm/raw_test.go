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

// refReadRaw and refWriteRaw are the line-at-a-time raw paths the
// run-sized ReadRaw/WriteRaw replaced, kept verbatim as the reference the
// equivalence test checks against.
func refReadRaw(m *Memory, addr uint64, buf []byte) {
	for n := 0; n < len(buf); {
		la := m.geo.LineAddr(addr + uint64(n))
		d, off := m.locate(la)
		lo := (addr + uint64(n)) - la
		c := copy(buf[n:], d.data[off+lo:off+uint64(m.lineSize)])
		n += c
	}
}

func refWriteRaw(m *Memory, addr uint64, data []byte) {
	if m.obsW != nil {
		m.obsW(addr, data, false, Data)
	}
	line := make([]byte, m.lineSize)
	for n := 0; n < len(data); {
		la := m.geo.LineAddr(addr + uint64(n))
		d, off := m.locate(la)
		lo := (addr + uint64(n)) - la
		c := copy(line, data[n:])
		if uint64(c) > uint64(m.lineSize)-lo {
			c = int(uint64(m.lineSize) - lo)
		}
		copy(d.data[off+lo:], data[n:n+c])
		full := d.data[off : off+uint64(m.lineSize)]
		d.ecc[m.eccIndex(off)] = xsum.Checksum(full)
		n += c
	}
}

// obsLog records write-observer calls for comparison.
type obsLog []string

func (l *obsLog) observe(addr uint64, data []byte, timed bool, class Class) {
	*l = append(*l, fmt.Sprintf("%#x %x %v %d", addr, data, timed, class))
}

// TestRawPathMatchesLineReference drives the run-sized raw path and the
// line-at-a-time reference with the same seeded random ranges (unaligned,
// crossing lines, pages and DIMMs, up to several pages) on both pools
// and two DIMM counts. Media, device ECC and observer calls must agree,
// and every touched line must read back without an ECC error.
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
				got, ref := New(kind, g, p, nil), New(kind, g, p, nil)
				var gotObs, refObs obsLog
				got.SetWriteObserver(gotObs.observe)
				ref.SetWriteObserver(refObs.observe)
				rng := rand.New(rand.NewSource(int64(dimms)*10 + int64(kind)))
				size := int(got.Size())
				for i := 0; i < 400; i++ {
					n := rng.Intn(3*g.PageSize + 200)
					if rng.Intn(8) == 0 {
						n = rng.Intn(70)
					}
					n = min(n, size)
					addr := got.Base() + uint64(rng.Intn(size-n+1))
					data := make([]byte, n)
					rng.Read(data)
					got.WriteRaw(addr, data)
					refWriteRaw(ref, addr, data)
					if n > 0 {
						buf := make([]byte, g.LineSize)
						for la := g.LineAddr(addr); la < addr+uint64(n); la += uint64(g.LineSize) {
							if _, err := got.ReadLine(0, la, Data, buf); errors.Is(err, ErrECC) {
								t.Fatalf("op %d: ECC error at %#x after WriteRaw [%#x,+%d)", i, la, addr, n)
							}
						}
					}

					n = min(rng.Intn(3*g.PageSize+200), size)
					addr = got.Base() + uint64(rng.Intn(size-n+1))
					a, b := make([]byte, n), make([]byte, n)
					got.ReadRaw(addr, a)
					refReadRaw(ref, addr, b)
					if !bytes.Equal(a, b) {
						t.Fatalf("op %d: ReadRaw [%#x,+%d) differs from reference", i, addr, n)
					}
					if !got.EqualRaw(addr, b) {
						t.Fatalf("op %d: EqualRaw [%#x,+%d) false on reference content", i, addr, n)
					}
					if n > 0 {
						b[rng.Intn(n)] ^= 1 << rng.Intn(8)
						if got.EqualRaw(addr, b) {
							t.Fatalf("op %d: EqualRaw [%#x,+%d) true on a flipped bit", i, addr, n)
						}
					}
				}
				for i := range got.dimms {
					if !bytes.Equal(got.dimms[i].data, ref.dimms[i].data) {
						t.Errorf("DIMM %d media differs from reference", i)
					}
					for j := range got.dimms[i].ecc {
						if got.dimms[i].ecc[j] != ref.dimms[i].ecc[j] {
							t.Fatalf("DIMM %d ECC word %d differs from reference", i, j)
						}
					}
				}
				if strings.Join(gotObs, "\n") != strings.Join(refObs, "\n") {
					t.Errorf("write observer saw different calls (%d vs %d)", len(gotObs), len(refObs))
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
