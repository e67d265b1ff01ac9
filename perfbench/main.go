// Command perfbench is the repository benchmark: it times the simulator's
// host-side cost on three workloads and checks every simulated output it
// produces. Run it from the repository root through run.sh, which builds it
// from the checkout's sources:
//
//	bash perfbench/run.sh --workload dax-miss --seed 1 --seconds 10 --trace 0
//
// --trace 0 prints the end-to-end metrics (no instrumentation attached);
// --trace 1 prints the per-layer metrics from instrumented passes plus a CPU
// profile bucketed by package. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}. See README.md for
// the workloads, the metrics and the output checks.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"
)

// metricDef is one printed metric: its name and unit.
type metricDef struct{ name, unit string }

// endToEnd lists the host-time metrics a user of the simulator sees, in
// output order. Every workload reports all of them.
var endToEnd = []metricDef{
	{"wall_s", "s"},
	{"setup_s", "s"},
	{"unit_ms_p50", "ms"},
	{"unit_ms_tail", "ms"},
	{"peak_rss_mb", "MB"},
}

// pass is one run of a workload's fixed list of cells or units.
type pass struct {
	wall, setup time.Duration
	// items holds the wall time of every cell (dax-miss, pmem-tx) or
	// injected unit (fault-campaign), in list order.
	items []time.Duration
	// digests holds one digest of simulated output per item, in list
	// order; two passes of one seed must agree on every entry.
	digests []string
	// attempted counts the cells or units the pass ran, and failures
	// describes every failed one and every failed output check.
	attempted int
	failures  []string
	// layer holds the per-layer metrics this pass measured; host-time
	// entries are meaningful only for instrumented passes.
	layer map[string]float64
}

type workload struct {
	name string
	// passEvery is how many seconds of --seconds buy one pass. It fixes a
	// run's pass count, so the sample count does not depend on how fast the
	// host is during the run. It is the nominal pass length on a 2-core x86
	// host, except for pmem-tx: its passes vary the most, so it runs half
	// again as many passes as its pass length would give.
	passEvery float64
	run       func(seed int64, traced bool) pass
	// builds, where set, times the machine builds a pass's items make out
	// of reach of the benchmark's spans. It runs after each instrumented
	// pass, outside the pass's profile and garbage-collector counters.
	builds func(p *pass)
}

var workloads = []workload{
	{name: "dax-miss", passEvery: 4.5, run: cellPass(daxMissCells)},
	{name: "pmem-tx", passEvery: 2.2, run: cellPass(pmemTxCells)},
	{name: "fault-campaign", passEvery: 2.6, run: faultPass, builds: faultBuilds},
}

func main() {
	name := flag.String("workload", "", "workload: dax-miss, pmem-tx or fault-campaign")
	seed := flag.Int64("seed", 1, "workload seed; every app and unit seed derives from it")
	seconds := flag.Float64("seconds", 10, "approximate measured time")
	trace := flag.Int("trace", 0, "1: instrumented passes and per-layer metrics")
	work := flag.String("work", ".bench_build/perfbench", "scratch directory for the CPU profile")
	flag.Parse()

	var wl *workload
	for i := range workloads {
		if workloads[i].name == *name {
			wl = &workloads[i]
		}
	}
	if wl == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %g, trace %d)\n", *name, *seconds, *trace)
		os.Exit(2)
	}
	// One busy simulation thread plus the garbage collector.
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))
	refs, err := loadReferences()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	res, err := runWorkload(wl, *seed, *seconds, *trace == 1, *work, refs)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out := bufio.NewWriter(os.Stdout)
	for _, l := range res.notes {
		fmt.Fprintln(out, l)
	}
	enc, err := json.Marshal(res.summary)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Fprintln(out, string(enc))
	if err := out.Flush(); err != nil {
		os.Exit(1)
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type summary struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type result struct {
	notes   []string
	summary summary
}

// runWorkload runs the passes, checks their outputs and assembles the
// metrics of the requested mode.
func runWorkload(wl *workload, seed int64, seconds float64, traced bool, work string, refs references) (*result, error) {
	n := max(1, int(math.Round(seconds/wl.passEvery)))
	nPlain, nInst := n, 0
	if traced {
		// Half the passes without instrumentation, for the overhead ratio
		// and the traced-versus-untraced digest check; half instrumented,
		// each under the CPU profiler.
		nPlain, nInst = max(1, n/2), max(1, n/2)
		if err := os.MkdirAll(work, 0o755); err != nil {
			return nil, err
		}
	}
	var plain, inst []pass
	var profiles []string
	for i := 0; i < nPlain; i++ {
		plain = append(plain, runPass(wl, seed, false))
	}
	for i := 0; i < nInst; i++ {
		path := filepath.Join(work, fmt.Sprintf("%s.cpu.%d.pprof", wl.name, i))
		p, err := profiled(path, func() pass { return runPass(wl, seed, true) })
		if err != nil {
			return nil, err
		}
		if wl.builds != nil {
			wl.builds(&p)
		}
		profiles = append(profiles, path)
		inst = append(inst, p)
	}
	peakMB, err := peakRSSMB()
	if err != nil {
		return nil, err
	}

	all := append(append([]pass(nil), plain...), inst...)
	var notes, failures []string
	for i, p := range all {
		notes = append(notes, fmt.Sprintf("# pass %d (instrumented %t): wall %.3fs, setup %.3fs",
			i, i >= len(plain), p.wall.Seconds(), p.setup.Seconds()))
	}
	attempted, failedItems := 0, 0
	for _, p := range all {
		attempted += p.attempted
		failedItems += len(p.failures)
		failures = append(failures, p.failures...)
	}
	// Every pass of one seed must simulate exactly the same thing,
	// instrumented or not.
	for i, p := range all[1:] {
		if d := firstDiff(all[0].digests, p.digests); d >= 0 {
			failures = append(failures, fmt.Sprintf("pass %d item %d digest differs from pass 0's", i+1, d))
			failedItems++
		}
	}
	combined := combineDigests(all[0].digests)
	notes = append(notes, fmt.Sprintf("# digest %s seed=%d %s", wl.name, seed, combined))
	switch want, ok := refs.digests[wl.name][fmt.Sprint(seed)]; {
	case !ok:
		notes = append(notes, "# digest reference: none recorded for this seed (repeatability checked only)")
	case want != combined:
		failures = append(failures, fmt.Sprintf("digest %s differs from the recorded %s", combined, want))
		failedItems++
	default:
		notes = append(notes, "# digest reference: match")
	}
	anchorFail := checkAnchor(refs)
	failures = append(failures, anchorFail...)
	notes = append(notes, fmt.Sprintf("# anchor BENCH_6 cells: %d mismatches", len(anchorFail)))

	metrics := map[string]metricValue{}
	if !traced {
		// A cell or unit's time is its median over the passes; the
		// workload's p50 and tail are taken over those medians.
		items := itemMedians(plain)
		tail := tailQuantile(len(items))
		notes = append(notes, fmt.Sprintf("# unit_ms_p50 and unit_ms_tail (p%.1f) over %d per-item medians of %d passes",
			100*tail, len(items), len(plain)))
		vals := map[string]float64{
			"wall_s":       median(durations(plain, func(p pass) time.Duration { return p.wall })) / 1e9,
			"setup_s":      median(durations(plain, func(p pass) time.Duration { return p.setup })) / 1e9,
			"unit_ms_p50":  median(items) / 1e6,
			"unit_ms_tail": percentile(items, tail) / 1e6,
			"peak_rss_mb":  peakMB,
		}
		for _, m := range endToEnd {
			metrics[m.name] = metricValue{vals[m.name], m.unit}
		}
	} else {
		layer := medianLayer(inst)
		wallPlain := median(durations(plain, func(p pass) time.Duration { return p.wall }))
		wallInst := median(durations(inst, func(p pass) time.Duration { return p.wall }))
		layer["trace.overhead_frac"] = wallInst/wallPlain - 1
		shares, profFails, err := profileShares(profiles)
		if err != nil {
			return nil, err
		}
		failures = append(failures, profFails...)
		for k, v := range shares {
			layer[k] = v
		}
		if layer["core.ctrl_ms"] > layer["sim.run_ms"] {
			failures = append(failures, fmt.Sprintf("core.ctrl_ms %.1f exceeds sim.run_ms %.1f", layer["core.ctrl_ms"], layer["sim.run_ms"]))
		}
		layer["failed_frac"] = float64(failedItems) / float64(attempted)
		for _, m := range perLayer {
			metrics[m.name] = metricValue{layer[m.name], m.unit}
		}
	}
	for _, f := range failures {
		notes = append(notes, "# FAIL "+f)
	}
	return &result{notes: notes, summary: summary{
		Correct:   len(failures) == 0,
		Attempted: attempted,
		Failed:    min(failedItems, attempted),
		Metrics:   metrics,
	}}, nil
}

// runPass runs one pass with a clean heap, so that garbage from the
// previous pass is not collected on this pass's time.
func runPass(wl *workload, seed int64, traced bool) pass {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	p := wl.run(seed, traced)
	runtime.ReadMemStats(&m1)
	if p.layer == nil {
		p.layer = map[string]float64{}
	}
	p.layer["runtime.gc_cycles"] = float64(m1.NumGC - m0.NumGC)
	p.layer["runtime.gc_pause_ms"] = float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6
	return p
}

// profiled runs f under the CPU profiler, writing the profile to path.
func profiled(path string, f func() pass) (pass, error) {
	out, err := os.Create(path)
	if err != nil {
		return pass{}, err
	}
	if err := pprof.StartCPUProfile(out); err != nil {
		out.Close()
		return pass{}, err
	}
	p := f()
	pprof.StopCPUProfile()
	return p, out.Close()
}

// medianLayer takes, for every per-layer metric, the median over passes.
func medianLayer(ps []pass) map[string]float64 {
	out := map[string]float64{}
	for _, m := range perLayer {
		var xs []float64
		for _, p := range ps {
			xs = append(xs, p.layer[m.name])
		}
		out[m.name] = median(xs)
	}
	return out
}

// itemMedians returns, for every cell or unit of the pass list, its
// median wall time over the passes.
func itemMedians(ps []pass) []float64 {
	out := make([]float64, len(ps[0].items))
	for i := range out {
		xs := make([]float64, len(ps))
		for j, p := range ps {
			xs[j] = float64(p.items[i])
		}
		out[i] = median(xs)
	}
	return out
}

func durations(ps []pass, f func(pass) time.Duration) []float64 {
	xs := make([]float64, len(ps))
	for i, p := range ps {
		xs[i] = float64(f(p))
	}
	return xs
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// percentile interpolates linearly between order statistics.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// tailQuantile is the highest quantile of n items that still has ten items
// beyond it. Where that would not lie above the median, as for the cell
// workloads' 6 and 12 cells, it is 0.9.
func tailQuantile(n int) float64 {
	if q := float64(n-11) / float64(n-1); q > 0.5 {
		return q
	}
	return 0.9
}

func firstDiff(a, b []string) int {
	for i := range a {
		if i >= len(b) || a[i] != b[i] {
			return i
		}
	}
	if len(b) > len(a) {
		return len(a)
	}
	return -1
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, l := range strings.Split(string(b), "\n") {
		if f := strings.Fields(l); len(f) == 3 && f[0] == "VmHWM:" {
			var kb float64
			if _, err := fmt.Sscan(f[1], &kb); err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}
