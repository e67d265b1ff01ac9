package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os/exec"
	"strings"
	"time"
)

// perLayer lists the metrics an instrumented run prints, in output order.
// Every workload prints all of them; a layer a workload does not exercise
// reads 0 there.
var perLayer = []metricDef{
	// Host time, from spans around the benchmark's calls into each layer.
	{"harness.build_ms", "ms"},
	{"harness.build_alloc_mb", "MB"},
	{"apps.setup_ms", "ms"},
	{"sim.run_ms", "ms"},
	{"sim.ns_per_access", "ns"},
	{"sim.ns_per_access.baseline", "ns"},
	{"sim.ns_per_access.tvarak", "ns"},
	{"sim.ns_per_access.txb-page-csums", "ns"},
	{"sim.ns_per_access.vilamb", "ns"},
	{"sim.phases", "count"},
	{"sim.us_per_phase", "us"},
	{"core.ctrl_ms", "ms"},
	{"core.fills", "count"},
	{"core.writebacks", "count"},
	{"core.dirty_installs", "count"},
	{"core.fill_ns", "ns"},
	{"core.writeback_ns", "ns"},
	{"fault.unit_ms.baseline", "ms"},
	{"fault.unit_ms.tvarak", "ms"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms", "ms"},
	// Self-time shares of the instrumented passes' CPU profile.
	{"prof.sim", "frac"},
	{"prof.cache", "frac"},
	{"prof.core", "frac"},
	{"prof.xsum", "frac"},
	{"prof.nvm", "frac"},
	{"prof.pmem", "frac"},
	{"prof.swred", "frac"},
	{"prof.daxfs", "frac"},
	{"prof.apps", "frac"},
	{"prof.oracle", "frac"},
	{"prof.fault", "frac"},
	{"prof.harness", "frac"},
	{"prof.gc", "frac"},
	{"prof.sched", "frac"},
	{"prof.other", "frac"},
	// Simulated counts: exact for a seed, never a speed metric.
	{"sim.cycles", "cycles"},
	{"sim.accesses", "count"},
	{"cache.l1_miss", "count"},
	{"cache.l2_miss", "count"},
	{"cache.llc_miss", "count"},
	{"cache.tvarak_hit_ratio", "ratio"},
	{"nvm.data_reads", "count"},
	{"nvm.data_writes", "count"},
	{"nvm.red_reads", "count"},
	{"nvm.red_writes", "count"},
	{"core.verify_extra_cyc", "cycles"},
	{"core.diff_stashes", "count"},
	{"swred.epochs", "count"},
	{"swred.lines_reconciled", "count"},
	{"fault.armed", "count"},
	{"fault.detections", "count"},
	{"fault.recoveries", "count"},
	{"fault.silent", "count"},
	{"fault.fired_frac", "frac"},
	{"oracle.phase_checks", "count"},
	// The instrumentation itself.
	{"trace.overhead_frac", "frac"},
	{"trace.span_gap_frac", "frac"},
	{"failed_frac", "frac"},
}

// repoLayers are the packages under tvarak/internal with a bucket of their
// own; the apps bucket takes every package under internal/apps.
var repoLayers = map[string]bool{
	"sim": true, "cache": true, "core": true, "xsum": true, "nvm": true, "pmem": true,
	"swred": true, "daxfs": true, "apps": true, "oracle": true, "fault": true, "harness": true,
}

// runtimeEntries are the runtime's stable entry points into allocation and
// garbage collection, and into goroutine hand-off (the engine passes
// control between core goroutines over channels at every yield). A sample
// whose stack passes through one of them is charged to gc or sched.
var runtimeEntries = map[string]string{
	"runtime.mallocgc":       "gc",
	"runtime.gcBgMarkWorker": "gc",
	"runtime.gcAssistAlloc":  "gc",
	"runtime.bgsweep":        "gc",
	"runtime.bgscavenge":     "gc",
	"runtime.chansend":       "sched",
	"runtime.chanrecv":       "sched",
	"runtime.selectgo":       "sched",
	"runtime.mcall":          "sched",
}

// bucketOf attributes one sampled stack, leaf first, to a layer. A stack
// through a runtime allocation, collection or hand-off entry point goes to
// gc or sched. Any other sample goes to the innermost frame that belongs
// to a layer, so library helpers (copies, zeroing, map lookups, CRC32,
// random fills) count for the layer that called them; a stack that reaches
// the benchmark's own code (package main) first, or no layer at all, goes
// to other.
func bucketOf(stack []string) string {
	for _, fn := range stack {
		if k, ok := runtimeEntries[fn]; ok {
			return k
		}
	}
	for _, fn := range stack {
		if strings.HasPrefix(fn, "main.") {
			return "other"
		}
		if rest, ok := strings.CutPrefix(fn, "tvarak/internal/"); ok {
			if pkg := rest[:strings.IndexAny(rest+".", "./")]; repoLayers[pkg] {
				return pkg
			}
		}
	}
	return "other"
}

// profileShares reads every sampled stack of the CPU profiles with
// `go tool pprof -traces`, buckets the samples by layer, and checks that
// the buckets cover every sample.
func profileShares(paths []string) (map[string]float64, []string, error) {
	cmd := exec.Command("go", append([]string{"tool", "pprof", "-traces"}, paths...)...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, nil, fmt.Errorf("go tool pprof: %v: %s", err, stderr.String())
	}
	byBucket := map[string]time.Duration{}
	var total, covered, value time.Duration
	var stack []string
	flush := func() {
		if stack != nil {
			byBucket[bucketOf(stack)] += value
			covered += value
		}
		stack = nil
	}
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		line := sc.Text()
		f := strings.Fields(line)
		switch {
		case strings.HasPrefix(line, "Duration:"):
			// "Duration: 3.12s, Total samples = 3.07s (98.52%)"
			if i := strings.Index(line, "Total samples = "); i >= 0 {
				if total, err = parsePprofDuration(strings.Fields(line[i+len("Total samples = "):])[0]); err != nil {
					return nil, nil, err
				}
			}
		case strings.HasPrefix(line, "-----------+"):
			flush()
		case len(f) == 0:
		case !strings.HasPrefix(line, " ") || len(line) < 13 || line[11] != ' ':
			// Header lines.
		case strings.TrimSpace(line[:11]) != "":
			// "      10ms   runtime.memmove": a sample's value and leaf.
			flush()
			if value, err = parsePprofDuration(strings.TrimSpace(line[:11])); err != nil {
				return nil, nil, err
			}
			stack = []string{strings.TrimSuffix(strings.TrimSpace(line[11:]), " (inline)")}
		case stack != nil:
			stack = append(stack, strings.TrimSuffix(strings.TrimSpace(line), " (inline)"))
		}
	}
	flush()
	shares := map[string]float64{}
	if total <= 0 {
		return shares, []string{"CPU profile holds no samples"}, nil
	}
	// pprof prints the total to three significant digits.
	var fails []string
	if d := float64(covered-total) / float64(total); d > 0.005 || d < -0.005 {
		fails = append(fails, fmt.Sprintf("profile buckets cover %v of %v", covered, total))
	}
	for b, v := range byBucket {
		shares["prof."+b] = float64(v) / float64(covered)
	}
	return shares, fails, nil
}

// parsePprofDuration reads a pprof sample value such as "10ms", "3.07s" or
// "1.20mins".
func parsePprofDuration(s string) (time.Duration, error) {
	s = strings.NewReplacer("mins", "m", "hrs", "h").Replace(s)
	d, err := time.ParseDuration(s)
	if err != nil {
		return 0, fmt.Errorf("pprof value: %w", err)
	}
	return d, nil
}
