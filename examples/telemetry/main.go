// Telemetry: run one workload with the full observability layer attached —
// the epoch sampler (a per-run time series of the paper's metrics), the
// JSONL event tracer (structured fills/writebacks/diff-stash/corruption
// events), and the versioned machine-readable export that `tvarak sim
// -metrics-out` writes for regression comparison.
//
// Telemetry is read-only: the printed aggregate statistics are
// byte-identical to an unobserved run of the same workload.
package main

import (
	"bufio"
	"bytes"
	"fmt"
	"log"
	"os"

	"tvarak"
	"tvarak/internal/apps/redispm"
)

func main() {
	// A Redis set-only workload, shortened so the example runs in seconds.
	wcfg := redispm.Default(true)
	wcfg.Ops = 4000
	w := redispm.New(wcfg)

	// Trace into memory here; `tvarak sim -trace` streams to a file instead.
	var trace bytes.Buffer
	tr := tvarak.NewJSONLTracer(&trace, 0)

	r, err := tvarak.RunWorkloadObserved(
		tvarak.ReproScaleConfig(tvarak.DesignTvarak), w,
		tvarak.Observation{SampleEvery: 50_000, Tracer: tr},
	)
	if err != nil {
		log.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		log.Fatal(err)
	}

	// The epoch time series: where the NVM accesses and diff-partition
	// pressure actually happen over the run, not just end-of-run totals.
	fmt.Printf("run: %s on %s — %s\n\n", r.Workload, r.Design, r.Stats.String())
	fmt.Printf("%12s %10s %10s %10s %8s %8s %8s\n",
		"epoch-end", "nvm-data", "nvm-red", "llc-hit%", "tvk-hit%", "stash", "evict")
	for _, s := range r.Series {
		d := s.Delta
		fmt.Printf("%12d %10d %10d %9.1f%% %7.1f%% %8d %8d\n",
			s.Cycle, d.NVM.Data(), d.NVM.Redundancy(),
			hitPct(d.Cache[tvarak.LevelLLC]), hitPct(d.Cache[tvarak.LevelTvarak]),
			d.DiffStashes, d.DiffEvictions)
	}

	// A few raw trace events, as `tvarak sim -trace` would write them.
	fmt.Printf("\ntraced %d event(s); first lines of the JSONL stream:\n", tr.Written())
	sc := bufio.NewScanner(bytes.NewReader(trace.Bytes()))
	for i := 0; i < 3 && sc.Scan(); i++ {
		fmt.Printf("  %s\n", sc.Text())
	}

	// The machine-readable export: versioned schema, full statistics,
	// series included — what `-metrics-out` writes and `-compare` diffs.
	tab := &tvarak.ResultTable{Title: "telemetry example"}
	tab.Add(r)
	x := tvarak.NewMetricsExport("telemetry-example")
	x.Runs = tab.ExportRuns("example")
	fmt.Printf("\nexport (schema v%d, CSV form):\n", tvarak.MetricsSchemaVersion)
	if err := x.WriteCSV(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// hitPct renders a cache counter's hit rate, or 0 for an idle level.
func hitPct(c tvarak.CacheCounter) float64 {
	if c.Total() == 0 {
		return 0
	}
	return 100 * float64(c.Hits) / float64(c.Total())
}
