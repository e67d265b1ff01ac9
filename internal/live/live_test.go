package live

import (
	"encoding/json"
	"io"
	"net/http"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestBoardLifecycle(t *testing.T) {
	b := NewBoard()
	var notified []CellEntry
	b.Notify = func(e CellEntry, done, total int) {
		notified = append(notified, e)
		if total != 3 {
			t.Errorf("notify total = %d, want 3", total)
		}
	}
	b.Begin("exp", 3)

	b.CellRunning(0, "a/base")
	b.CellProgress(0, 1000, 50)
	b.CellDone(0, 2000, 100)

	b.CellRunning(1, "b/base")
	b.CellFailed(1, "b/base", "boom", true)

	b.CellRestored(2, "c/base", 5000, 250)

	s := b.Snapshot()
	if s.Experiment != "exp" || s.Total != 3 || s.Done != 3 || s.Failed != 1 {
		t.Fatalf("snapshot header = %+v", s)
	}
	if len(s.Cells) != 3 {
		t.Fatalf("cells = %d, want 3", len(s.Cells))
	}
	c0, c1, c2 := s.Cells[0], s.Cells[1], s.Cells[2]
	if c0.State != StateDone || c0.Cycles != 2000 || c0.Accesses != 100 {
		t.Errorf("cell 0 = %+v", c0)
	}
	if c1.State != StateFailed || !c1.Hung || c1.Err != "boom" {
		t.Errorf("cell 1 = %+v", c1)
	}
	if c2.State != StateDone || !c2.FromJournal || c2.Accesses != 250 {
		t.Errorf("cell 2 = %+v", c2)
	}
	if len(notified) != 3 {
		t.Fatalf("notify fired %d times, want 3", len(notified))
	}
	// JSON round-trips (the /runs schema).
	if _, err := json.Marshal(s); err != nil {
		t.Fatal(err)
	}
}

func TestBoardLateProgressHarmless(t *testing.T) {
	// A watchdog-abandoned goroutine may keep probing after Begin resets
	// the board for the next experiment; out-of-range and post-terminal
	// writes must not panic or skew counts.
	b := NewBoard()
	b.Begin("one", 2)
	b.CellRunning(1, "x")
	probe := func() { b.CellProgress(1, 9, 9) }
	b.Begin("two", 1) // old index 1 now out of range
	probe()
	b.CellProgress(5, 1, 1) // out of range entirely
	b.CellDone(0, 1, 1)
	b.CellDone(0, 2, 2) // double-terminal ignored
	s := b.Snapshot()
	if s.Done != 1 || s.Total != 1 {
		t.Fatalf("snapshot = %+v", s)
	}
	if s.Cells[0].Cycles != 1 {
		t.Fatalf("double-done overwrote totals: %+v", s.Cells[0])
	}
}

func TestCellProbeDeltasAndRebase(t *testing.T) {
	tl := NewTelemetry()
	tl.Board.Begin("p", 1)
	probe := tl.CellProbe(0)
	probe(100, 10, 3)
	probe(300, 25, 0)
	if got := tl.Accesses.Load(); got != 25 {
		t.Fatalf("accesses = %d, want 25", got)
	}
	// ResetMeasurement zeroes the engine stats: cumulative goes backwards,
	// the probe must rebase instead of underflowing.
	probe(50, 5, 0)
	if got := tl.Accesses.Load(); got != 30 {
		t.Fatalf("accesses after rebase = %d, want 30", got)
	}
}

func TestServerEndpointsAndNoLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	tl := NewTelemetry()
	tl.Board.Begin("srv", 1)
	srv, err := Serve("127.0.0.1:0", tl)
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + srv.Addr()

	get := func(path string) string {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}

	if got := get("/healthz"); got != "ok\n" {
		t.Errorf("/healthz = %q", got)
	}
	var snap BoardSnapshot
	if err := json.Unmarshal([]byte(get("/runs")), &snap); err != nil {
		t.Fatalf("/runs: %v", err)
	}
	if snap.Experiment != "srv" || len(snap.Cells) != 1 {
		t.Errorf("/runs = %+v", snap)
	}
	if got := get("/debug/pprof/cmdline"); got == "" {
		t.Error("/debug/pprof/cmdline empty")
	}

	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	// The serving goroutine and any keep-alive handlers must be gone.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: before=%d now=%d", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestResourceSamplerLedger(t *testing.T) {
	tl := NewTelemetry()
	tl.Accesses.Add(1000)
	var buf syncBuffer
	s := StartResourceSampler(tl, &buf, 10*time.Millisecond)
	time.Sleep(50 * time.Millisecond)
	tl.Accesses.Add(9000)
	time.Sleep(30 * time.Millisecond)
	if err := s.Stop(); err != nil {
		t.Fatal(err)
	}
	samples, err := ReadResourceLedger(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) < 3 {
		t.Fatalf("only %d samples", len(samples))
	}
	first, last := samples[0], samples[len(samples)-1]
	if first.HeapAlloc == 0 || first.Goroutines == 0 {
		t.Errorf("first sample missing runtime stats: %+v", first)
	}
	if last.Accesses != 10000 {
		t.Errorf("final accesses = %d, want 10000", last.Accesses)
	}
	if runtime.GOOS == "linux" && first.RSSBytes == 0 {
		t.Error("RSS = 0 on linux")
	}
	// Torn tail tolerated.
	torn := buf.String() + `{"unixMS":123,"heap`
	got, err := ReadResourceLedger(strings.NewReader(torn))
	if err != nil {
		t.Fatalf("torn tail rejected: %v", err)
	}
	if len(got) != len(samples) {
		t.Fatalf("torn tail changed count: %d vs %d", len(got), len(samples))
	}
	// Mid-file corruption is a real error.
	bad := `{"unixMS":1}` + "\n" + `garbage` + "\n" + `{"unixMS":2}` + "\n"
	if _, err := ReadResourceLedger(strings.NewReader(bad)); err == nil {
		t.Fatal("mid-file corruption accepted")
	}
}

// syncBuffer is a goroutine-safe strings.Builder for the sampler test.
type syncBuffer struct {
	mu sync.Mutex
	sb strings.Builder
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.sb.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.sb.String()
}

func mkSamples(heap []uint64, gor []int, aps []float64) []ResourceSample {
	n := len(heap)
	if len(gor) > n {
		n = len(gor)
	}
	if len(aps) > n {
		n = len(aps)
	}
	out := make([]ResourceSample, n)
	for i := range out {
		out[i].UnixMS = int64(i * 1000)
		out[i].HeapAlloc = 1 << 20
		out[i].Goroutines = 10
		if i < len(heap) {
			out[i].HeapAlloc = heap[i]
		}
		if i < len(gor) {
			out[i].Goroutines = gor[i]
		}
		if i < len(aps) {
			out[i].AccessesPerSec = aps[i]
		}
	}
	return out
}

func findingChecks(fs []Finding) []string {
	var out []string
	for _, f := range fs {
		out = append(out, f.Check)
	}
	return out
}

func TestAnalyzeHeapGrowth(t *testing.T) {
	c := DefaultOpsCheck()
	// Monotonic doubling: flagged.
	heap := make([]uint64, 10)
	for i := range heap {
		heap[i] = uint64(1<<20) + uint64(i)*200*1024
	}
	fs := c.Analyze(mkSamples(heap, nil, nil))
	if got := findingChecks(fs); len(got) != 1 || got[0] != "heap-growth" {
		t.Fatalf("findings = %v, want [heap-growth]", got)
	}
	// GC sawtooth with the same endpoints: not flagged (rise fraction low).
	saw := make([]uint64, 10)
	for i := range saw {
		if i%2 == 0 {
			saw[i] = 1 << 20
		} else {
			saw[i] = 3 << 20
		}
	}
	saw[9] = 3 << 20
	if fs := c.Analyze(mkSamples(saw, nil, nil)); len(fs) != 0 {
		t.Fatalf("sawtooth flagged: %v", fs)
	}
	// Flat heap: clean.
	flat := make([]uint64, 10)
	for i := range flat {
		flat[i] = 1 << 20
	}
	if fs := c.Analyze(mkSamples(flat, nil, nil)); len(fs) != 0 {
		t.Fatalf("flat heap flagged: %v", fs)
	}
	// Too few samples: clean regardless.
	if fs := c.Analyze(mkSamples(heap[:3], nil, nil)); len(fs) != 0 {
		t.Fatalf("short ledger flagged: %v", fs)
	}
}

func TestAnalyzeGoroutineLeak(t *testing.T) {
	c := DefaultOpsCheck()
	fs := c.Analyze(mkSamples(nil, []int{10, 12, 30}, nil))
	if got := findingChecks(fs); len(got) != 1 || got[0] != "goroutine-leak" {
		t.Fatalf("findings = %v, want [goroutine-leak]", got)
	}
	// Within slack: clean.
	if fs := c.Analyze(mkSamples(nil, []int{10, 14, 15}, nil)); len(fs) != 0 {
		t.Fatalf("within-slack flagged: %v", fs)
	}
}

func TestAnalyzeThroughputDrift(t *testing.T) {
	c := DefaultOpsCheck()
	aps := []float64{1000, 1000, 1000, 1000, 1000, 400, 400, 400, 400, 400}
	fs := c.Analyze(mkSamples(nil, nil, aps))
	if got := findingChecks(fs); len(got) != 1 || got[0] != "throughput-drift" {
		t.Fatalf("findings = %v, want [throughput-drift]", got)
	}
	// Idle (zero) samples excluded: a run that pauses between experiments
	// doesn't count as drifting.
	padded := append([]float64{0, 0, 0, 0}, []float64{1000, 990, 1010, 1000, 1005, 995, 1000, 1000}...)
	if fs := c.Analyze(mkSamples(nil, nil, padded)); len(fs) != 0 {
		t.Fatalf("steady padded flagged: %v", fs)
	}
}

func TestStartOpsBundle(t *testing.T) {
	dir := t.TempDir()
	tl := NewTelemetry()
	ledger := dir + "/ops.jsonl"
	addrFile := dir + "/addr"
	o, err := StartOps(tl, OpsConfig{
		Addr:        "127.0.0.1:0",
		AddrFile:    addrFile,
		LedgerPath:  ledger,
		SampleEvery: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if o.Addr() == "" {
		t.Fatal("no addr")
	}
	b, err := readFile(addrFile)
	if err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(b) != o.Addr() {
		t.Fatalf("addr file %q != %q", strings.TrimSpace(b), o.Addr())
	}
	resp, err := http.Get("http://" + o.Addr() + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if err := o.Close(); err != nil {
		t.Fatal(err)
	}
	lb, err := readFile(ledger)
	if err != nil {
		t.Fatal(err)
	}
	samples, err := ReadResourceLedger(strings.NewReader(lb))
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) < 2 {
		t.Fatalf("ledger has %d samples, want >= 2 (start + final)", len(samples))
	}
	// Disabled config: nil, Close safe.
	var nilOps *Ops
	if err := nilOps.Close(); err != nil {
		t.Fatal(err)
	}
	o2, err := StartOps(tl, OpsConfig{})
	if err != nil || o2 != nil {
		t.Fatalf("empty config: %v %v", o2, err)
	}
}

func readFile(path string) (string, error) {
	b, err := os.ReadFile(path)
	return string(b), err
}

func TestProbeAllocFree(t *testing.T) {
	tl := NewTelemetry()
	tl.Board.Begin("alloc", 1)
	probe := tl.CellProbe(0)
	probe(1, 1, 0)
	allocs := testing.AllocsPerRun(100, func() {
		probe(2, 2, 1)
	})
	if allocs > 0 {
		t.Fatalf("probe allocates %v per call", allocs)
	}
}
