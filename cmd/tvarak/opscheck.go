package main

import (
	"fmt"
	"os"
	"strings"
	"time"

	"tvarak/internal/live"
)

// tvarak opscheck analyzes an ops resource ledger (the JSONL a run appends
// with -ops-ledger) and flags long-horizon resource anomalies: monotonic
// heap growth, goroutine leaks, and throughput drift beyond a threshold. It
// exits 1 when any enabled check flags. The analysis is the library path
// the soak harness's resource gates share (live.OpsCheck).
//
//	tvarak opscheck -ledger ops.jsonl                  # all checks, default thresholds
//	tvarak opscheck -ledger ops.jsonl -checks goroutines
//	tvarak opscheck -ledger ops.jsonl -heap 0.25 -drift 0.3 -v
type opscheckCmd struct {
	base
	ledger, checks         string
	heap, drift            float64
	goroutines, minSamples int
	verbose                bool
}

func newOpscheck() *opscheckCmd {
	c := &opscheckCmd{base: newBase("opscheck")}
	fs := c.fs
	fs.StringVar(&c.ledger, "ledger", "", "ops resource ledger (JSONL) to analyze")
	fs.StringVar(&c.checks, "checks", "heap,goroutines,drift", "comma-separated checks to enable (heap,goroutines,drift)")
	fs.Float64Var(&c.heap, "heap", 0, "heap-growth fraction threshold (0 = default)")
	fs.IntVar(&c.goroutines, "goroutines", 0, "goroutine slack over the first sample (0 = default)")
	fs.Float64Var(&c.drift, "drift", 0, "throughput-drift fraction threshold (0 = default)")
	fs.IntVar(&c.minSamples, "min-samples", 0, "minimum samples for the heap and drift checks (0 = default)")
	fs.BoolVar(&c.verbose, "v", false, "print the ledger summary even when clean")
	return c
}

func (c *opscheckCmd) run() {
	if c.ledger == "" {
		usageErr("-ledger required")
	}
	cfg := live.DefaultOpsCheck()
	if c.heap > 0 {
		cfg.HeapGrowthFrac = c.heap
	}
	if c.goroutines > 0 {
		cfg.GoroutineSlack = c.goroutines
	}
	if c.drift > 0 {
		cfg.ThroughputDriftFrac = c.drift
	}
	if c.minSamples > 0 {
		cfg.MinSamples = c.minSamples
	}
	cfg, err := cfg.WithChecks(strings.Split(c.checks, ",")...)
	if err != nil {
		usageErr(err.Error())
	}
	findings, samples, err := cfg.AnalyzeLedgerFile(c.ledger)
	if err != nil {
		fatal(err)
	}
	if len(samples) == 0 {
		fatal(fmt.Errorf("%s: empty ledger", c.ledger))
	}

	first, last := samples[0], samples[len(samples)-1]
	span := time.Duration(last.UnixMS-first.UnixMS) * time.Millisecond
	if c.verbose || len(findings) > 0 {
		fmt.Printf("%s: %d samples over %v\n", c.ledger, len(samples), span.Round(time.Second))
		fmt.Printf("  heap       %s -> %s\n", bytesStr(first.HeapAlloc), bytesStr(last.HeapAlloc))
		fmt.Printf("  rss        %s -> %s\n", bytesStr(first.RSSBytes), bytesStr(last.RSSBytes))
		fmt.Printf("  goroutines %d -> %d\n", first.Goroutines, last.Goroutines)
		fmt.Printf("  accesses   %d (final cumulative)\n", last.Accesses)
	}
	if len(findings) == 0 {
		fmt.Printf("opscheck: clean (%d samples, checks: %s)\n", len(samples), c.checks)
		return
	}
	for _, fd := range findings {
		fmt.Printf("opscheck: FLAG %s: %s\n", fd.Check, fd.Detail)
	}
	os.Exit(1)
}

func bytesStr(b uint64) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%.1fGiB", float64(b)/(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(b)/(1<<10))
	}
	return fmt.Sprintf("%dB", b)
}
