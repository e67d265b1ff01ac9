package cache

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func line(b byte) []byte {
	d := make([]byte, 64)
	for i := range d {
		d[i] = b
	}
	return d
}

func TestGeometryValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("non-power-of-two sets did not panic")
		}
	}()
	New(3, 4, 64, 1)
}

func TestLookupInstall(t *testing.T) {
	c := New(4, 2, 64, 1)
	addr := uint64(0x1000)
	if c.Lookup(addr, 0, 2) != nil {
		t.Fatal("lookup in empty cache hit")
	}
	v := c.Victim(addr, 0, 2)
	c.Install(v, addr, line(7), Exclusive)
	got := c.Lookup(addr, 0, 2)
	if got == nil || got.Data[0] != 7 || got.State != Exclusive {
		t.Fatal("installed line not found or wrong")
	}
}

func TestSetIndexStride(t *testing.T) {
	// With stride 12 (12 LLC banks), consecutive line addresses that map
	// to the same bank differ by 12 lines and land in consecutive sets.
	c := New(8, 2, 64, 12)
	a := uint64(64 * 12)
	if c.SetIndex(0) != 0 || c.SetIndex(a) != 1 {
		t.Errorf("stride indexing wrong: set(%#x)=%d", a, c.SetIndex(a))
	}
}

func TestLRUVictim(t *testing.T) {
	c := New(1, 3, 64, 1)
	addrs := []uint64{0, 64, 128}
	for _, a := range addrs {
		v := c.Victim(a, 0, 3)
		c.Install(v, a, line(byte(a)), Shared)
	}
	// Touch 0 and 128; LRU should be 64.
	c.Touch(c.Lookup(0, 0, 3))
	c.Touch(c.Lookup(128, 0, 3))
	v := c.Victim(192, 0, 3)
	if v.Addr != 64 {
		t.Errorf("LRU victim = %#x, want 0x40", v.Addr)
	}
}

func TestWayPartitionIsolation(t *testing.T) {
	c := New(1, 4, 64, 1)
	// Install into partition [0,2) and [2,4) with the same address; the
	// partitions must not see each other.
	v := c.Victim(0, 0, 2)
	c.Install(v, 0, line(1), Shared)
	if c.Lookup(0, 2, 4) != nil {
		t.Error("partition [2,4) sees line installed in [0,2)")
	}
	v2 := c.Victim(0, 2, 4)
	c.Install(v2, 0, line(2), Modified)
	if got := c.Lookup(0, 0, 2); got == nil || got.Data[0] != 1 {
		t.Error("partition [0,2) clobbered by [2,4) install")
	}
	if got := c.Lookup(0, 2, 4); got == nil || got.Data[0] != 2 {
		t.Error("partition [2,4) lost its line")
	}
	// Victim selection respects the range even when the other range is hot.
	v3 := c.Victim(64, 0, 2)
	if !(v3 == c.Lookup(0, 0, 2) || v3.State == Invalid) {
		t.Error("victim chosen outside partition")
	}
}

// TestSharedTickMatchesPerRangeLRU checks that one LRU tick shared by the
// whole cache picks the same victims as a private tick per way range: the
// LLC's data, redundancy and diff ranges are touched interleaved, and each
// range's victims must match a reference cache holding only that range.
func TestSharedTickMatchesPerRangeLRU(t *testing.T) {
	ranges := [][2]int{{0, 5}, {5, 7}, {7, 10}} // data, redundancy, diff
	c := New(4, 10, 64, 1)
	ref := make([]*Cache, len(ranges))
	for i, r := range ranges {
		ref[i] = New(4, r[1]-r[0], 64, 1)
	}
	rng := rand.New(rand.NewSource(7))
	for step := 0; step < 20000; step++ {
		i := rng.Intn(len(ranges))
		lo, hi := ranges[i][0], ranges[i][1]
		addr := uint64(rng.Intn(48)) * 64
		got, want := c.Lookup(addr, lo, hi), ref[i].Lookup(addr, 0, hi-lo)
		if (got == nil) != (want == nil) {
			t.Fatalf("step %d range %d: hit %v, reference hit %v", step, i, got != nil, want != nil)
		}
		if got != nil {
			c.Touch(got)
			ref[i].Touch(want)
			continue
		}
		v, rv := c.Victim(addr, lo, hi), ref[i].Victim(addr, 0, hi-lo)
		if v.State != rv.State || v.Addr != rv.Addr {
			t.Fatalf("step %d range %d: victim %#x (%v), reference %#x (%v)", step, i, v.Addr, v.State, rv.Addr, rv.State)
		}
		c.Install(v, addr, line(byte(step)), Shared)
		ref[i].Install(rv, addr, line(byte(step)), Shared)
	}
}

func TestInvalidate(t *testing.T) {
	c := New(2, 2, 64, 1)
	v := c.Victim(0, 0, 2)
	c.Install(v, 0, line(9), Modified)
	l := c.Lookup(0, 0, 2)
	l.Owners = 5
	c.Invalidate(l)
	if c.Lookup(0, 0, 2) != nil {
		t.Error("line survives invalidation")
	}
	if l.Owners != 0 {
		t.Error("owners not cleared")
	}
	if c.CountValid(0, 2) != 0 {
		t.Error("CountValid after invalidate != 0")
	}
}

func TestForEachAndCount(t *testing.T) {
	c := New(4, 2, 64, 1)
	for i := uint64(0); i < 6; i++ {
		a := i * 64
		v := c.Victim(a, 0, 2)
		if v.State != Invalid {
			t.Fatalf("unexpected eviction at %d", i)
		}
		c.Install(v, a, line(byte(i)), Shared)
	}
	if got := c.CountValid(0, 2); got != 6 {
		t.Errorf("CountValid = %d, want 6", got)
	}
	sum := 0
	c.ForEach(0, 2, func(l *Line) { sum += int(l.Data[0]) })
	if sum != 0+1+2+3+4+5 {
		t.Errorf("ForEach visited wrong lines (sum=%d)", sum)
	}
}

func TestInstallRejectsWrongSize(t *testing.T) {
	c := New(2, 2, 64, 1)
	defer func() {
		if recover() == nil {
			t.Error("install with short data did not panic")
		}
	}()
	c.Install(c.Victim(0, 0, 2), 0, make([]byte, 32), Shared)
}

// Property: a cache never holds two valid copies of the same address within
// one way range, and lookups always return what was last installed.
func TestPropertyNoDuplicates(t *testing.T) {
	c := New(8, 4, 64, 1)
	shadow := make(map[uint64]byte)
	f := func(sel uint16, val byte) bool {
		addr := uint64(sel%128) * 64
		if l := c.Lookup(addr, 0, 4); l != nil {
			// hit: verify against shadow, then update
			if shadow[addr] != l.Data[0] {
				return false
			}
			l.Data[0] = val
			c.Touch(l)
		} else {
			v := c.Victim(addr, 0, 4)
			if v.State != Invalid {
				delete(shadow, v.Addr)
			}
			c.Install(v, addr, line(val), Shared)
		}
		shadow[addr] = val
		// duplicate scan
		n := 0
		c.ForEach(0, 4, func(l *Line) {
			if l.Addr == addr {
				n++
			}
		})
		return n == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Error(err)
	}
}
