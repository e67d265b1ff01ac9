package live

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"sync"
	"time"
)

// ResourceSample is one line of the ops ledger: a wall-clock snapshot of
// process resources plus cumulative simulation progress. Unlike the
// deterministic metric exports, the ledger is explicitly wall-clock-domain —
// timestamps and rates vary run to run, which is the point: `tvarak opscheck`
// reads a ledger to flag heap growth, goroutine leaks, and throughput
// drift, exactly the gates the soak roadmap item needs.
type ResourceSample struct {
	UnixMS         int64   `json:"unixMS"`
	HeapAlloc      uint64  `json:"heapAlloc"`
	HeapSys        uint64  `json:"heapSys"`
	HeapObjects    uint64  `json:"heapObjects"`
	NumGC          uint32  `json:"numGC"`
	Goroutines     int     `json:"goroutines"`
	RSSBytes       uint64  `json:"rssBytes"`
	Accesses       uint64  `json:"accesses"`
	AccessesPerSec float64 `json:"accessesPerSec"`
}

// ResourceSampler periodically appends ResourceSamples to a writer and
// mirrors the latest values into the telemetry gauges. It reads only
// runtime and /proc state plus telemetry counters — never simulation
// state — so sampling cannot perturb results.
type ResourceSampler struct {
	t      *Telemetry
	every  time.Duration
	w      *bufio.Writer
	enc    *json.Encoder
	mu     sync.Mutex // guards w/enc across ticker goroutine and Stop
	stop   chan struct{}
	done   chan struct{}
	prevAt time.Time
	prevAc uint64
}

// StartResourceSampler begins sampling every interval, writing JSONL to w.
// The first sample is taken immediately. Stop takes a final sample and
// flushes.
func StartResourceSampler(t *Telemetry, w io.Writer, every time.Duration) *ResourceSampler {
	if every <= 0 {
		every = time.Second
	}
	bw := bufio.NewWriter(w)
	s := &ResourceSampler{
		t:     t,
		every: every,
		w:     bw,
		enc:   json.NewEncoder(bw),
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
	}
	s.sample()
	go s.loop()
	return s
}

func (s *ResourceSampler) loop() {
	defer close(s.done)
	tick := time.NewTicker(s.every)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
			s.sample()
		case <-s.stop:
			return
		}
	}
}

func (s *ResourceSampler) sample() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	now := time.Now()
	acc := s.t.Engine.Accesses.Value()

	smp := ResourceSample{
		UnixMS:      now.UnixMilli(),
		HeapAlloc:   ms.HeapAlloc,
		HeapSys:     ms.HeapSys,
		HeapObjects: ms.HeapObjects,
		NumGC:       ms.NumGC,
		Goroutines:  runtime.NumGoroutine(),
		RSSBytes:    readRSS(),
		Accesses:    acc,
	}

	s.mu.Lock()
	if !s.prevAt.IsZero() {
		if dt := now.Sub(s.prevAt).Seconds(); dt > 0 && acc >= s.prevAc {
			smp.AccessesPerSec = float64(acc-s.prevAc) / dt
		}
	}
	s.prevAt, s.prevAc = now, acc
	_ = s.enc.Encode(smp)
	s.mu.Unlock()

	s.t.Resource.HeapAlloc.SetInt(smp.HeapAlloc)
	s.t.Resource.Goroutines.SetInt(uint64(smp.Goroutines))
	s.t.Resource.RSS.SetInt(smp.RSSBytes)
	s.t.Resource.AccessesPerSec.Set(smp.AccessesPerSec)
}

// Stop halts the ticker, takes one final sample, and flushes the writer.
func (s *ResourceSampler) Stop() error {
	close(s.stop)
	<-s.done
	s.sample()
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Flush()
}

// readRSS returns the process resident set size in bytes via
// /proc/self/statm (field 2 × page size), or 0 where /proc is unavailable.
func readRSS() uint64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	fields := strings.Fields(string(b))
	if len(fields) < 2 {
		return 0
	}
	var pages uint64
	if _, err := fmt.Sscanf(fields[1], "%d", &pages); err != nil {
		return 0
	}
	return pages * uint64(os.Getpagesize())
}

// ReadResourceLedger parses a JSONL ops ledger back into samples. Blank
// lines are skipped; a torn final line (process killed mid-write) is
// tolerated and dropped.
func ReadResourceLedger(r io.Reader) ([]ResourceSample, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	var lines []string
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" {
			lines = append(lines, line)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	var out []ResourceSample
	for i, line := range lines {
		var s ResourceSample
		if err := json.Unmarshal([]byte(line), &s); err != nil {
			// Tolerate only a torn final line (process killed
			// mid-write); a malformed line mid-file is a real error.
			if i == len(lines)-1 {
				break
			}
			return nil, fmt.Errorf("live: bad ledger line %d: %w", i+1, err)
		}
		out = append(out, s)
	}
	return out, nil
}

// OpsConfig configures StartOps: the full live-telemetry bundle a CLI
// enables with its -ops-* flags.
type OpsConfig struct {
	Addr        string        // ops HTTP listen address ("" = no server)
	AddrFile    string        // write the resolved listen address here (for :0 in scripts)
	LedgerPath  string        // append resource samples to this JSONL file ("" = no ledger)
	SampleEvery time.Duration // resource sample interval (default 1s)
}

// Ops bundles the running ops server, resource sampler, and ledger file.
type Ops struct {
	srv     *Server
	sampler *ResourceSampler
	ledger  *os.File
}

// StartOps starts whichever of the ops server and resource sampler the
// config asks for. Returns nil (no cleanup needed) when the config enables
// neither.
func StartOps(t *Telemetry, cfg OpsConfig) (*Ops, error) {
	if cfg.Addr == "" && cfg.LedgerPath == "" {
		return nil, nil
	}
	o := &Ops{}
	if cfg.Addr != "" {
		srv, err := Serve(cfg.Addr, t)
		if err != nil {
			return nil, err
		}
		o.srv = srv
		if cfg.AddrFile != "" {
			if err := os.WriteFile(cfg.AddrFile, []byte(srv.Addr()+"\n"), 0o644); err != nil {
				_ = srv.Close()
				return nil, err
			}
		}
	}
	if cfg.LedgerPath != "" {
		f, err := os.OpenFile(cfg.LedgerPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			if o.srv != nil {
				_ = o.srv.Close()
			}
			return nil, err
		}
		o.ledger = f
		o.sampler = StartResourceSampler(t, f, cfg.SampleEvery)
	}
	return o, nil
}

// Addr returns the ops server's bound address, or "" if no server runs.
func (o *Ops) Addr() string {
	if o == nil || o.srv == nil {
		return ""
	}
	return o.srv.Addr()
}

// Close stops the sampler (final sample + flush), closes the ledger, and
// shuts the server down, waiting for its goroutine. Safe on nil.
func (o *Ops) Close() error {
	if o == nil {
		return nil
	}
	var first error
	if o.sampler != nil {
		if err := o.sampler.Stop(); err != nil {
			first = err
		}
	}
	if o.ledger != nil {
		if err := o.ledger.Close(); err != nil && first == nil {
			first = err
		}
	}
	if o.srv != nil {
		if err := o.srv.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
