package sim

import (
	"context"
	"encoding/binary"
	"fmt"
	"runtime/debug"

	"tvarak/internal/cache"
	"tvarak/internal/obs"
)

// Core is one simulated CPU with private L1-D and L2 caches. Workload code
// runs on a goroutine bound to a core and calls Load/Store/Compute; the
// engine's phase scheduler decides when that goroutine may advance, keeping
// multi-core runs deterministic.
type Core struct {
	ID    int
	Clock uint64

	eng      *Engine
	l1, l2   *cache.Cache
	phaseEnd uint64
	done     bool
	grant    chan struct{}
	yield    chan struct{}
}

// simUnwind is the sentinel maybeYield panics with to unwind a worker
// goroutine after the run was cancelled; the worker's deferred recover in
// Run swallows it, marks the core done and yields, so the scheduler drains
// every worker without leaking goroutines.
type simUnwind struct{}

// maybeYield hands control back to the scheduler when the core's clock has
// crossed the current phase boundary. When the run has been cancelled by
// the time the scheduler grants the core again, the worker unwinds here —
// at the barrier, where no store is in flight.
func (c *Core) maybeYield() {
	for c.Clock >= c.phaseEnd {
		c.yield <- struct{}{}
		<-c.grant
		if c.eng.cancelled {
			panic(simUnwind{})
		}
	}
}

// Compute advances the core's clock by n cycles of non-memory work.
func (c *Core) Compute(n uint64) {
	c.maybeYield()
	c.Clock += n
	c.eng.St.ComputeCycles += n
}

// Load reads len(buf) bytes of simulated memory starting at addr through
// the cache hierarchy, blocking the core for the access latency.
func (c *Core) Load(addr uint64, buf []byte) {
	e := c.eng
	for n := 0; n < len(buf); {
		cur := addr + uint64(n)
		la := e.Geo.LineAddr(cur)
		l := e.access(c, la, false)
		off := cur - la
		n += copy(buf[n:], l.Data[off:])
	}
}

// Store writes data to simulated memory starting at addr through the cache
// hierarchy (write-allocate; stores retire via the store buffer).
func (c *Core) Store(addr uint64, data []byte) {
	e := c.eng
	for n := 0; n < len(data); {
		cur := addr + uint64(n)
		la := e.Geo.LineAddr(cur)
		l := e.access(c, la, true)
		off := cur - la
		n += copy(l.Data[off:], data[n:])
	}
}

// Load64 reads a little-endian uint64 at addr.
func (c *Core) Load64(addr uint64) uint64 {
	var b [8]byte
	c.Load(addr, b[:])
	return binary.LittleEndian.Uint64(b[:])
}

// Store64 writes a little-endian uint64 at addr.
func (c *Core) Store64(addr uint64, v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	c.Store(addr, b[:])
}

// Load32 reads a little-endian uint32 at addr.
func (c *Core) Load32(addr uint64) uint32 {
	var b [4]byte
	c.Load(addr, b[:])
	return binary.LittleEndian.Uint32(b[:])
}

// Store32 writes a little-endian uint32 at addr.
func (c *Core) Store32(addr uint64, v uint32) {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	c.Store(addr, b[:])
}

// Engine returns the engine this core belongs to.
func (c *Core) Engine() *Engine { return c.eng }

// ---------------------------------------------------------------------------
// Phase scheduler (bound-weave)
// ---------------------------------------------------------------------------

// Run executes one workload function per core (workers[i] runs on core i)
// to completion under phase scheduling, then drains all dirty state and
// records the fixed-work runtime. It may be called multiple times; cache
// state persists across calls (use ResetMeasurement between a setup run
// and the measured run).
//
// A worker that panics is contained: the panic is recovered on the worker
// goroutine, the remaining workers unwind at the next phase boundary, the
// run drains, and Err reports a *WorkloadPanicError with the stack. When a
// context installed via SetContext is cancelled, the run likewise stops at
// the next phase boundary and Err reports the cause. Either way the engine
// is poisoned: subsequent Run calls return immediately, so a workload
// issuing several Run calls (setup phases) cannot keep simulating past the
// failure.
func (e *Engine) Run(workers []func(*Core)) {
	if len(workers) > len(e.Cores) {
		panic(fmt.Sprintf("sim: %d workers for %d cores", len(workers), len(e.Cores)))
	}
	if e.runErr != nil {
		return
	}
	active := make([]*Core, 0, len(workers))
	for i, w := range workers {
		if w == nil {
			continue
		}
		c := e.Cores[i]
		c.done = false
		c.grant = make(chan struct{})
		c.yield = make(chan struct{})
		active = append(active, c)
		go func(c *Core, w func(*Core)) {
			// The recover below runs while the scheduler is blocked on
			// c.yield (bound-weave runs one goroutine at a time), so the
			// runErr write is ordered before the scheduler's next read.
			defer func() {
				if r := recover(); r != nil {
					if _, unwind := r.(simUnwind); !unwind && e.runErr == nil {
						e.runErr = &WorkloadPanicError{Core: c.ID, Value: r, Stack: debug.Stack()}
					}
				}
				c.done = true
				c.yield <- struct{}{}
			}()
			<-c.grant
			if e.cancelled {
				return
			}
			w(c)
		}(c, w)
	}
	phase := e.Cfg.PhaseCyc
	if phase == 0 {
		phase = 10000
	}
	phaseEnd := e.maxClock() + phase
	for {
		alive := false
		for _, c := range active {
			if c.done {
				continue
			}
			alive = true
			c.phaseEnd = phaseEnd
			c.grant <- struct{}{}
			<-c.yield
		}
		if !alive {
			break
		}
		if e.Sampler != nil {
			e.Sampler.Observe(e.maxClock(), e.St)
		}
		if e.Probe != nil {
			e.Probe(e.maxClock(), e.St.Loads+e.St.Stores, 0)
		}
		// Every core is quiesced at the barrier here: no store is in
		// flight, so observers (the shadow oracle) can cross-check
		// media against intent at a stable point.
		e.Emit(obs.EvPhase, e.maxClock(), 0, 0)
		if !e.cancelled && (e.runErr != nil || e.ctxCancelled()) {
			e.cancelled = true
			var aux uint64
			if e.runErr != nil {
				aux = 1 // cause: contained workload panic
			}
			e.Emit(obs.EvCancel, e.maxClock(), 0, aux)
		}
		phaseEnd += phase
	}
	e.drain()
	if e.runErr == nil && e.cancelled {
		e.runErr = fmt.Errorf("sim: run cancelled at phase boundary: %w", context.Cause(e.ctx))
	}
}

// ctxCancelled reports whether the installed context (if any) is done.
func (e *Engine) ctxCancelled() bool {
	return e.ctx != nil && e.ctx.Err() != nil
}

func (e *Engine) maxClock() uint64 {
	var m uint64
	for _, c := range e.Cores {
		m = max(m, c.Clock)
	}
	return m
}

// ResetMeasurement zeroes all statistics, core clocks and DIMM timing while
// keeping cache and memory contents, so a measured fixed-work region starts
// warm (the harness calls this between setup and measurement).
func (e *Engine) ResetMeasurement() {
	e.St.Reset()
	for _, c := range e.Cores {
		c.Clock = 0
	}
	e.NVM.ResetTiming()
	e.DRAM.ResetTiming()
}

// DropCaches invalidates every cache line in the hierarchy (and the
// redundancy controller's caches). All lines must be clean — call it only
// after a drain (Run drains on return). Experiments use it to measure
// cold-cache behaviour; fault-injection tests use it to force NVM refills.
func (e *Engine) DropCaches() {
	for _, c := range e.Cores {
		for _, pc := range []*cache.Cache{c.l1, c.l2} {
			pc.ForEach(0, pc.Ways(), func(l *cache.Line) {
				if l.Dirty() {
					panic(fmt.Sprintf("sim: DropCaches found dirty private line %#x", l.Addr))
				}
				pc.Invalidate(l)
			})
		}
	}
	for _, b := range e.Banks {
		b.ForEach(0, b.Ways(), func(l *cache.Line) {
			if l.Dirty() {
				panic(fmt.Sprintf("sim: DropCaches found dirty LLC line %#x", l.Addr))
			}
			b.Invalidate(l)
		})
	}
	if r, ok := e.Red.(interface{ DropCaches() }); ok {
		r.DropCaches()
	}
}

// drain flushes every dirty line (L1→L2→LLC→NVM) and the controller's
// dirty redundancy, then records the run's cycle count: the latest of all
// core clocks and DIMM busy times.
func (e *Engine) drain() {
	for _, c := range e.Cores {
		e.flushPrivate(c)
	}
	now := e.maxClock()
	for _, b := range e.Banks {
		b.ForEach(0, e.dataWays, func(l *cache.Line) {
			if l.Dirty() {
				e.writebackLine(now, l.Addr, nil, l.Data)
				l.State = cache.Shared
			}
		})
	}
	if e.Red != nil {
		e.Red.Drain(now)
	}
	e.St.Cycles = max(e.maxClock(), max(e.NVM.BusyUntil(), e.DRAM.BusyUntil()))
	if e.Sampler != nil {
		// Close the epoch series at the run's final cycle so the drain's
		// writebacks land in the last sample and the series sums to the
		// aggregate statistics.
		e.Sampler.Finish(e.St.Cycles, e.St)
	}
}

// flushPrivate pushes core c's dirty L1 lines into L2 and dirty L2 lines
// into the LLC (with diff stashing), leaving private caches clean.
func (e *Engine) flushPrivate(c *Core) {
	c.l1.ForEach(0, c.l1.Ways(), func(l *cache.Line) {
		if !l.Dirty() {
			return
		}
		l2 := c.l2.Lookup(l.Addr, 0, c.l2.Ways())
		if l2 == nil {
			panic(fmt.Sprintf("sim: drain found L1 dirty line %#x missing from L2", l.Addr))
		}
		copy(l2.Data, l.Data)
		l2.State = cache.Modified
		l.State = cache.Shared
	})
	c.l2.ForEach(0, c.l2.Ways(), func(l *cache.Line) {
		if !l.Dirty() {
			return
		}
		b := e.Bank(l.Addr)
		ll := b.Lookup(l.Addr, 0, e.dataWays)
		if ll == nil {
			panic(fmt.Sprintf("sim: drain found L2 dirty line %#x missing from LLC", l.Addr))
		}
		e.mergeIntoLLC(c, ll, l.Data)
		l.State = cache.Shared
	})
}
