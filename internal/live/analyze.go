package live

import (
	"fmt"
	"os"
	"strings"
)

// OpsCheck holds the thresholds for analyzing a resource ledger. The zero
// value is not useful; start from DefaultOpsCheck. These are the gates the
// soak roadmap item reuses: a 24h run must show flat heap, stable
// goroutine counts, and steady throughput.
type OpsCheck struct {
	// HeapGrowthFrac flags the heap check when the final HeapAlloc exceeds
	// the first by more than this fraction AND the rise was monotonic-ish
	// (see HeapMinRiseFrac). GC sawtooth makes raw comparisons noisy, so
	// both conditions must hold.
	HeapGrowthFrac float64
	// HeapMinRiseFrac is the fraction of inter-sample steps that must be
	// non-decreasing for growth to count as monotonic (a leak rises nearly
	// every step; a sawtooth does not).
	HeapMinRiseFrac float64
	// GoroutineSlack is how many more goroutines the final sample may show
	// over the first before the leak check flags.
	GoroutineSlack int
	// ThroughputDriftFrac flags the drift check when the mean
	// accesses/sec of the second half of active samples differs from the
	// first half's by more than this fraction.
	ThroughputDriftFrac float64
	// MinSamples is the minimum ledger length for the heap and drift
	// checks (short ledgers are all noise).
	MinSamples int
}

// DefaultOpsCheck returns the thresholds used by `tvarak opscheck` unless
// overridden by flags.
func DefaultOpsCheck() OpsCheck {
	return OpsCheck{
		HeapGrowthFrac:      0.5,
		HeapMinRiseFrac:     0.9,
		GoroutineSlack:      8,
		ThroughputDriftFrac: 0.5,
		MinSamples:          8,
	}
}

// Finding is one flagged anomaly in a ledger.
type Finding struct {
	Check  string `json:"check"`  // "heap-growth" | "goroutine-leak" | "throughput-drift"
	Detail string `json:"detail"` // human-readable evidence
}

// Analyze runs every check over the ledger and returns the findings (empty
// means clean).
func (c OpsCheck) Analyze(samples []ResourceSample) []Finding {
	var out []Finding
	if f := c.checkHeap(samples); f != nil {
		out = append(out, *f)
	}
	if f := c.checkGoroutines(samples); f != nil {
		out = append(out, *f)
	}
	if f := c.checkDrift(samples); f != nil {
		out = append(out, *f)
	}
	return out
}

func (c OpsCheck) checkHeap(samples []ResourceSample) *Finding {
	if len(samples) < c.MinSamples {
		return nil
	}
	first, last := samples[0].HeapAlloc, samples[len(samples)-1].HeapAlloc
	if first == 0 {
		return nil
	}
	grown := float64(last) >= float64(first)*(1+c.HeapGrowthFrac)
	rising := 0
	for i := 1; i < len(samples); i++ {
		if samples[i].HeapAlloc >= samples[i-1].HeapAlloc {
			rising++
		}
	}
	riseFrac := float64(rising) / float64(len(samples)-1)
	if grown && riseFrac >= c.HeapMinRiseFrac {
		return &Finding{
			Check: "heap-growth",
			Detail: fmt.Sprintf("HeapAlloc grew %d -> %d bytes (%.0f%%) with %.0f%% of steps non-decreasing",
				first, last, 100*(float64(last)/float64(first)-1), 100*riseFrac),
		}
	}
	return nil
}

func (c OpsCheck) checkGoroutines(samples []ResourceSample) *Finding {
	if len(samples) < 2 {
		return nil
	}
	first, last := samples[0].Goroutines, samples[len(samples)-1].Goroutines
	if last > first+c.GoroutineSlack {
		return &Finding{
			Check: "goroutine-leak",
			Detail: fmt.Sprintf("goroutines rose %d -> %d (slack %d)",
				first, last, c.GoroutineSlack),
		}
	}
	return nil
}

func (c OpsCheck) checkDrift(samples []ResourceSample) *Finding {
	// Only samples where simulation was actually making progress count:
	// startup, idle tails, and inter-experiment gaps would otherwise
	// drown the signal.
	var active []float64
	for _, s := range samples {
		if s.AccessesPerSec > 0 {
			active = append(active, s.AccessesPerSec)
		}
	}
	if len(active) < c.MinSamples {
		return nil
	}
	half := len(active) / 2
	m1 := mean(active[:half])
	m2 := mean(active[half:])
	if m1 <= 0 {
		return nil
	}
	drift := (m2 - m1) / m1
	if drift < 0 {
		drift = -drift
	}
	if drift > c.ThroughputDriftFrac {
		return &Finding{
			Check: "throughput-drift",
			Detail: fmt.Sprintf("accesses/sec mean drifted %.0f -> %.0f (%.0f%%, threshold %.0f%%)",
				m1, m2, 100*drift, 100*c.ThroughputDriftFrac),
		}
	}
	return nil
}

// CheckNames lists the selectable resource checks in report order.
func CheckNames() []string { return []string{"heap", "goroutines", "drift"} }

// WithChecks returns a copy of c with every check NOT named disabled (its
// threshold pushed out of reach, so Analyze stays a single pass and check
// selection stays declarative). An empty selection keeps every check. This
// is the selection logic `tvarak opscheck` and the soak gates share; an
// unknown name is an error, matching the CLI's strictness.
func (c OpsCheck) WithChecks(names ...string) (OpsCheck, error) {
	if len(names) == 0 {
		return c, nil
	}
	enabled := map[string]bool{}
	for _, n := range names {
		switch n = strings.TrimSpace(n); n {
		case "heap", "goroutines", "drift":
			enabled[n] = true
		case "":
		default:
			return c, fmt.Errorf("live: unknown check %q (want heap, goroutines, drift)", n)
		}
	}
	if !enabled["heap"] {
		c.HeapGrowthFrac = 1e18
	}
	if !enabled["goroutines"] {
		c.GoroutineSlack = 1 << 30
	}
	if !enabled["drift"] {
		c.ThroughputDriftFrac = 1e18
	}
	return c, nil
}

// AnalyzeLedgerFile reads the resource ledger at path and runs every
// enabled check over it: the one code path behind both `tvarak opscheck` and
// the soak harness's periodic resource gates. The parsed samples are
// returned alongside the findings so callers can render summaries without
// a second read.
func (c OpsCheck) AnalyzeLedgerFile(path string) ([]Finding, []ResourceSample, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	samples, err := ReadResourceLedger(f)
	f.Close()
	if err != nil {
		return nil, nil, err
	}
	return c.Analyze(samples), samples, nil
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var t float64
	for _, x := range v {
		t += x
	}
	return t / float64(len(v))
}
