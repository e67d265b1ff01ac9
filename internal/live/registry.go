// Package live is the wall-clock-domain telemetry subsystem: a metrics
// registry of lock-free counters, gauges and fixed-bucket histograms, a
// per-cell run board, an ops HTTP server (/metrics, /healthz, /runs,
// /debug/pprof), and a periodic resource sampler with a JSONL ledger plus
// drift analysis.
//
// Everything in this package observes the simulation; nothing feeds back
// into it. The instruments are updated from hook points that only read
// simulation state (statistics snapshots at phase barriers, cell lifecycle
// transitions, unit reports), so attaching live telemetry leaves every
// simulated result — tables, metric exports, fault reports — byte-identical
// to an unobserved run. The read-only golden test at the repository root
// and the ci.sh ops gate pin that contract.
//
// The package deliberately lives in the wall-clock domain: its counters
// answer "what is this process doing right now", while internal/obs answers
// "what did the simulated machine do at which simulated cycle". The two
// domains never mix — see DESIGN.md §9.
package live

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// stripes is each counter's slot count (power of two). Concurrent updaters
// with distinct hints (cell indices, worker IDs) land on distinct cache
// lines; Value folds the stripes at read time.
const stripes = 8

// stripe is one padded counter slot: the padding keeps adjacent stripes on
// separate cache lines so concurrent cells never false-share.
type stripe struct {
	v atomic.Uint64
	_ [56]byte
}

// Counter is a monotonically increasing, striped, lock-free counter. The
// update path is a single atomic add with no allocation, so counters are
// safe to bump from simulation-adjacent hook points (phase barriers, cell
// lifecycle events) without perturbing the run.
type Counter struct {
	s [stripes]stripe
}

// Add increments the counter by n on stripe 0. Use AddAt from call sites
// that have a natural concurrency hint.
func (c *Counter) Add(n uint64) { c.s[0].v.Add(n) }

// AddAt increments the counter by n on the stripe selected by hint (a cell
// index, worker ID, or any value that separates concurrent updaters).
func (c *Counter) AddAt(hint int, n uint64) {
	c.s[uint(hint)&(stripes-1)].v.Add(n)
}

// Value folds the stripes into the counter's current total.
func (c *Counter) Value() uint64 {
	var t uint64
	for i := range c.s {
		t += c.s[i].v.Load()
	}
	return t
}

// Gauge is a lock-free float64 gauge (last write wins).
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// SetInt stores an integer value.
func (g *Gauge) SetInt(v uint64) { g.Set(float64(v)) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a fixed-bucket cumulative histogram. Observe is lock-free:
// one atomic add into the bucket, one into the count, and a CAS loop on the
// float-bit sum — no allocation.
type Histogram struct {
	bounds []float64 // ascending upper bounds; an implicit +Inf bucket follows
	counts []atomic.Uint64
	sum    atomic.Uint64 // float64 bits
	count  atomic.Uint64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns how many values have been observed.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// metricEntry is one registered metric: its exposition metadata plus the
// writer that renders its current value(s).
type metricEntry struct {
	name, help, typ string
	write           func(w io.Writer) error
}

// Registry holds named metrics and renders them in Prometheus text
// exposition format. Registration (at wiring time) takes a lock and may
// allocate; the instruments it returns are lock-free to update. Metrics
// render in registration order, which is fixed at wiring time, so two
// scrapes of an idle registry are byte-identical.
type Registry struct {
	mu sync.Mutex
	ms []metricEntry
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry { return &Registry{} }

func (r *Registry) register(e metricEntry) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, m := range r.ms {
		if m.name == e.name {
			panic("live: duplicate metric " + e.name)
		}
	}
	r.ms = append(r.ms, e)
}

// NewCounter registers and returns a counter. By convention the name ends
// in _total.
func (r *Registry) NewCounter(name, help string) *Counter {
	c := &Counter{}
	r.register(metricEntry{name: name, help: help, typ: "counter", write: func(w io.Writer) error {
		_, err := fmt.Fprintf(w, "%s %d\n", name, c.Value())
		return err
	}})
	return c
}

// NewGauge registers and returns a gauge.
func (r *Registry) NewGauge(name, help string) *Gauge {
	g := &Gauge{}
	r.register(metricEntry{name: name, help: help, typ: "gauge", write: func(w io.Writer) error {
		_, err := fmt.Fprintf(w, "%s %s\n", name, fmtFloat(g.Value()))
		return err
	}})
	return g
}

// NewGaugeFunc registers a gauge whose value is computed at scrape time —
// the hook for state that already maintains its own counters (the JSONL
// tracer's written/dropped totals). f must be safe to call concurrently.
func (r *Registry) NewGaugeFunc(name, help string, f func() float64) {
	r.register(metricEntry{name: name, help: help, typ: "gauge", write: func(w io.Writer) error {
		_, err := fmt.Fprintf(w, "%s %s\n", name, fmtFloat(f()))
		return err
	}})
}

// NewHistogram registers and returns a histogram over the given ascending
// bucket upper bounds (an implicit +Inf bucket is appended).
func (r *Registry) NewHistogram(name, help string, bounds []float64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("live: histogram bounds must be ascending: " + name)
		}
	}
	h := &Histogram{bounds: append([]float64(nil), bounds...)}
	h.counts = make([]atomic.Uint64, len(bounds)+1)
	r.register(metricEntry{name: name, help: help, typ: "histogram", write: func(w io.Writer) error {
		var cum uint64
		for i, b := range h.bounds {
			cum += h.counts[i].Load()
			if _, err := fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", name, fmtFloat(b), cum); err != nil {
				return err
			}
		}
		cum += h.counts[len(h.bounds)].Load()
		if _, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, cum); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s_sum %s\n", name, fmtFloat(h.Sum())); err != nil {
			return err
		}
		_, err := fmt.Fprintf(w, "%s_count %d\n", name, h.Count())
		return err
	}})
	return h
}

// WritePrometheus renders every metric in Prometheus text exposition
// format, in registration order.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	ms := r.ms
	r.mu.Unlock()
	bw := bufio.NewWriter(w)
	for _, m := range ms {
		if m.help != "" {
			if _, err := fmt.Fprintf(bw, "# HELP %s %s\n", m.name, m.help); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(bw, "# TYPE %s %s\n", m.name, m.typ); err != nil {
			return err
		}
		if err := m.write(bw); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// fmtFloat renders a float the shortest way that round-trips, matching the
// Prometheus exposition conventions (integers render without a point).
func fmtFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
