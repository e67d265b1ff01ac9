package oracle_test

import (
	"bytes"
	"reflect"
	"sort"
	"testing"

	"tvarak/internal/apps/fio"
	"tvarak/internal/harness"
	"tvarak/internal/nvm"
	"tvarak/internal/oracle"
	"tvarak/internal/param"
	"tvarak/internal/sim"
)

func newSystem(t *testing.T, d param.Design) (*harness.System, *oracle.Oracle) {
	t.Helper()
	sys, err := harness.NewSystem(param.SmallTest(d))
	if err != nil {
		t.Fatal(err)
	}
	w := fio.New(fio.Config{
		Pattern: fio.Rand, Write: true, Threads: 2,
		RegionBytes: 128 << 10, AccessBytes: 16 << 10,
		BlockBytes: 4096, ComputeCyc: 1, Seed: 99,
	})
	if err := w.Setup(sys); err != nil {
		t.Fatal(err)
	}
	o := oracle.Attach(sys.Eng, sys.FS)
	sys.Eng.Run(w.Workers(sys))
	return sys, o
}

func load(sys *harness.System, la uint64) []byte {
	buf := make([]byte, 64)
	sys.Eng.Run([]func(*sim.Core){func(c *sim.Core) { c.Load(la, buf) }})
	return buf
}

// A fault-free run must satisfy every oracle check on both designs:
// phase cross-checks fire and pass, media equals intent everywhere, and
// (under TVARAK) the persistent checksums and parity match the shadow.
func TestOracleCleanRun(t *testing.T) {
	for _, d := range []param.Design{param.Baseline, param.Tvarak} {
		t.Run(d.String(), func(t *testing.T) {
			sys, o := newSystem(t, d)
			if o.PhaseChecks() == 0 {
				t.Error("no phase-boundary cross-checks ran")
			}
			if err := o.PhaseErr(); err != nil {
				t.Errorf("phase cross-check: %v", err)
			}
			if len(o.WrittenDataLines()) == 0 {
				t.Error("workload wrote no data lines")
			}
			if divs := o.VerifyMediaAll(); len(divs) > 0 {
				t.Errorf("media diverges: %v", divs[0])
			}
			if divs := o.VerifyRedundancy(); len(divs) > 0 {
				t.Errorf("redundancy diverges: %v", divs[0])
			}
			if divs := o.VerifyPageCsums(); len(divs) > 0 {
				t.Errorf("page checksums diverge: %v", divs[0])
			}
			if err := sys.Eng.CheckInvariantsAgainst(o); err != nil {
				t.Errorf("partition invariants: %v", err)
			}
			if len(o.SilentReads()) != 0 || len(o.BadRepairs()) != 0 {
				t.Error("clean run recorded silent reads or bad repairs")
			}
		})
	}
}

// Media corrupted behind the oracle's back (Pause hides the write from
// the shadow) must show up in VerifyMediaAll, be suppressed from
// VerifyMedia by an exclusion, and register as a silent read when the
// Baseline design delivers the bytes without noticing.
func TestOracleFlagsSilentCorruption(t *testing.T) {
	sys, o := newSystem(t, param.Baseline)
	la := o.WrittenDataLines()[3]

	bad := make([]byte, 64)
	for i := range bad {
		bad[i] = 0xa5
	}
	want := make([]byte, 64)
	o.Want(la, want)
	if bytes.Equal(bad, want) {
		bad[0] = 0x5a
	}
	o.Pause()
	sys.Eng.NVM.WriteRaw(la, bad) // valid ECC, wrong content
	o.Resume()

	divs := o.VerifyMediaAll()
	if len(divs) != 1 || divs[0].Addr != la {
		t.Fatalf("VerifyMediaAll = %v, want one divergence at %#x", divs, la)
	}
	o.Exclude(la)
	if len(o.VerifyMedia()) != 0 {
		t.Fatal("VerifyMedia did not skip the excluded line")
	}
	if got := o.ExcludedLines(); len(got) != 1 || got[0] != la {
		t.Fatalf("ExcludedLines = %v", got)
	}
	o.Unexclude(la)

	sys.Eng.DropCaches()
	got := load(sys, la)
	if !bytes.Equal(got, bad) {
		t.Fatal("baseline did not deliver the corrupt bytes")
	}
	if sr := o.SilentReads(); len(sr) != 1 || sr[0] != la {
		t.Fatalf("SilentReads = %v, want [%#x]", sr, la)
	}
}

// A misdirected read under Baseline delivers another line's bytes; the
// oracle must flag the intended address as silently corrupt even though
// media is untouched.
func TestOracleFlagsMisdirectedRead(t *testing.T) {
	sys, o := newSystem(t, param.Baseline)
	lines := o.WrittenDataLines()
	a, b := lines[0], lines[len(lines)-1]
	wa := make([]byte, 64)
	wb := make([]byte, 64)
	o.Want(a, wa)
	o.Want(b, wb)
	if bytes.Equal(wa, wb) {
		t.Skip("first and last written lines hold identical content")
	}
	sys.Eng.DropCaches()
	sys.Eng.NVM.InjectMisdirectedRead(a, b)
	if !bytes.Equal(load(sys, a), wb) {
		t.Fatal("misdirected read did not deliver the donor line")
	}
	if sr := o.SilentReads(); len(sr) != 1 || sr[0] != a {
		t.Fatalf("SilentReads = %v, want [%#x]", sr, a)
	}
	if len(o.VerifyMediaAll()) != 0 {
		t.Fatal("misdirected read must not change media")
	}
}

// Under TVARAK a media bit flip is detected at the fill, recovered from
// parity (clearing the exclusion), and the delivered bytes are correct —
// the full detect-and-recover contract of the paper.
func TestOracleTracksDetectionAndRecovery(t *testing.T) {
	sys, o := newSystem(t, param.Tvarak)
	la := o.WrittenDataLines()[5]
	sys.Eng.NVM.FlipBit(la+17, 3)
	o.Exclude(la)

	sys.Eng.DropCaches()
	got := load(sys, la)
	want := make([]byte, 64)
	o.Want(la, want)
	if !bytes.Equal(got, want) {
		t.Fatal("tvarak delivered corrupt bytes")
	}
	if !o.DetectedAt(la) || !o.RecoveredAt(la) {
		t.Fatalf("detected=%v recovered=%v, want both", o.DetectedAt(la), o.RecoveredAt(la))
	}
	if o.Excluded(la) {
		t.Fatal("recovery did not clear the exclusion")
	}
	if len(o.BadRepairs()) != 0 {
		t.Fatalf("repair flagged as bad: %v", o.BadRepairs())
	}
	if divs := o.VerifyMedia(); len(divs) != 0 {
		t.Fatalf("media still diverges after recovery: %v", divs)
	}
}

// Detach must restore the engine's previous tracer and stop shadow
// updates from reaching a stale oracle.
func TestOracleDetach(t *testing.T) {
	sys, o := newSystem(t, param.Baseline)
	la := o.WrittenDataLines()[0]
	before := make([]byte, 64)
	o.Want(la, before)
	o.Detach()
	patch := make([]byte, 64)
	copy(patch, before)
	patch[0] ^= 0xff
	sys.Eng.NVM.WriteRaw(la, patch)
	after := make([]byte, 64)
	o.Want(la, after)
	if !bytes.Equal(before, after) {
		t.Fatal("detached oracle still observes writes")
	}
}

// A misdirected write or a bit flip that lands on a page no write ever
// reached leaves that page materialized in media while its shadow page
// is still absent (zero). The sparse checks may skip a page only when it
// is absent on both sides, so both faults must still be reported.
func TestOracleFlagsFaultsOnUntouchedPages(t *testing.T) {
	sys, o := newSystem(t, param.Baseline)
	geo := &sys.Eng.Geo
	victim := geo.DataIndexAddr(geo.DataPages()-1, 128)
	flipped := geo.DataIndexAddr(geo.DataPages()-2, 64)
	for _, la := range []uint64{victim, flipped} {
		if sys.Eng.NVM.Materialized(la) {
			t.Fatalf("page of %#x already materialized; pick an untouched page", la)
		}
	}

	la := o.WrittenDataLines()[0]
	data := make([]byte, 64)
	o.Want(la, data)
	for i := range data {
		data[i] ^= 0x3c
	}
	sys.Eng.NVM.InjectMisdirectedWrite(la, victim)
	sys.Eng.NVM.WriteLine(0, la, nvm.Data, data)
	sys.Eng.NVM.FlipBit(flipped+9, 5)
	for _, la := range []uint64{victim, flipped} {
		if !sys.Eng.NVM.Materialized(la) {
			t.Fatalf("fault at %#x did not materialize its page", la)
		}
	}

	want := []oracle.Divergence{{Addr: la, Kind: "media"}, {Addr: flipped, Kind: "media"}, {Addr: victim, Kind: "media"}}
	sort.Slice(want, func(i, j int) bool { return want[i].Addr < want[j].Addr })
	if got := o.VerifyMediaAll(); !reflect.DeepEqual(got, want) {
		t.Fatalf("VerifyMediaAll = %v, want %v", got, want)
	}
	if got := o.VerifyMedia(); !reflect.DeepEqual(got, want) {
		t.Fatalf("VerifyMedia = %v, want %v", got, want)
	}
	for _, d := range want {
		o.Exclude(d.Addr)
	}
	if got := o.VerifyMedia(); len(got) != 0 {
		t.Fatalf("VerifyMedia with all three excluded = %v", got)
	}
	if got := o.VerifyMediaAll(); !reflect.DeepEqual(got, want) {
		t.Fatalf("VerifyMediaAll with exclusions = %v, want %v", got, want)
	}
}
