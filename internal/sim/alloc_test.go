package sim

import (
	"testing"

	"tvarak/internal/param"
)

// TestSteadyStateAccessPathZeroAlloc pins the core guarantee of the
// performance pass: once every cache line buffer is lazily allocated, the
// Load/Store path — L1/L2/LLC walks, fills, evictions, writebacks, media
// accesses — performs ZERO heap allocations per access with no observers
// attached. The only allocations permitted in the measured region are the
// fixed per-Run cost (worker goroutine + channels), so the budget is a
// small constant while the region performs tens of thousands of accesses.
func TestSteadyStateAccessPathZeroAlloc(t *testing.T) {
	e, err := New(param.SmallTest(param.Baseline))
	if err != nil {
		t.Fatal(err)
	}
	base := e.Geo.NVMBase()
	const span = uint64(4 << 20) // larger than every cache: misses + evictions
	var buf [8]byte
	// Warm every line slot of every cache level over the whole span so
	// Install's lazy Data allocation never fires during measurement. The
	// stores' writebacks also materialize every sparse media page of the
	// span, so first-touch page allocation happens here, not below.
	e.Run([]func(*Core){func(c *Core) {
		for a := uint64(0); a < span; a += 64 {
			c.Store(base+a, buf[:])
		}
		for a := uint64(0); a < span; a += 64 {
			c.Load(base+a, buf[:])
		}
	}})
	if err := e.Err(); err != nil {
		t.Fatal(err)
	}

	const accesses = 20000
	per := testing.AllocsPerRun(3, func() {
		e.Run([]func(*Core){func(c *Core) {
			for i := 0; i < accesses; i++ {
				a := base + (uint64(i)*64)%span
				c.Load(a, buf[:])
				c.Store(a, buf[:])
			}
		}})
	})
	if err := e.Err(); err != nil {
		t.Fatal(err)
	}
	// A Run itself costs a handful of allocations (goroutine, channels,
	// worker slice). 16 per Run over 40k accesses means the per-access
	// path allocated nothing; any per-access allocation would add >=20000.
	if per > 16 {
		t.Errorf("steady-state run allocated %.0f objects for %d accesses; the per-access path must be allocation-free", per, 2*accesses)
	}
}
