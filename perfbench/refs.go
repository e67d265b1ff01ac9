package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"

	"tvarak/internal/apps/redispm"
	"tvarak/internal/apps/stream"
	"tvarak/internal/harness"
	"tvarak/internal/param"
)

// digestsJSON holds the combined simulated-output digest of every workload
// for the seeds it was recorded at: {"<workload>": {"<seed>": "<digest>"}}.
// The simulator is deterministic, so any other value for a recorded seed
// is a change of simulated behaviour.
//
//go:embed digests.json
var digestsJSON []byte

// bench6Path is the committed microbenchmark baseline, relative to the
// repository root the benchmark runs from.
const bench6Path = "BENCH_6.json"

type references struct {
	digests map[string]map[string]string
	bench6  map[string]bench6Entry
}

// bench6Entry is one benchmark of BENCH_6.json.
type bench6Entry struct {
	Metrics map[string]float64 `json:"metrics"`
}

func loadReferences() (references, error) {
	var r references
	if err := json.Unmarshal(digestsJSON, &r.digests); err != nil {
		return r, fmt.Errorf("digests.json: %w", err)
	}
	b, err := os.ReadFile(bench6Path)
	if err != nil {
		return r, err
	}
	var doc struct {
		Benchmarks map[string]bench6Entry `json:"benchmarks"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		return r, fmt.Errorf("%s: %w", bench6Path, err)
	}
	r.bench6 = doc.Benchmarks
	return r, nil
}

// anchorScale is bench_test.go's benchScale, at which BENCH_6.json's Cell*
// entries were recorded.
const anchorScale = 0.25

// anchorCells are BENCH_6.json's four serial single-cell benchmarks.
var anchorCells = []struct {
	key    string
	design param.Design
	make   func() harness.Workload
}{
	{"tvarak.CellStreamTriadBaseline", param.Baseline, anchorStream},
	{"tvarak.CellStreamTriadTvarak", param.Tvarak, anchorStream},
	{"tvarak.CellRedisSetBaseline", param.Baseline, anchorRedis},
	{"tvarak.CellRedisSetTvarak", param.Tvarak, anchorRedis},
}

func anchorStream() harness.Workload {
	cfg := stream.Default(stream.Triad)
	cfg.ArrayBytes = uint64(float64(cfg.ArrayBytes)*anchorScale) &^ 4095
	return stream.New(cfg)
}

func anchorRedis() harness.Workload {
	cfg := redispm.Default(true)
	cfg.Ops = int(float64(cfg.Ops) * anchorScale)
	return redispm.New(cfg)
}

// checkAnchor runs the anchor cells, untimed, through the benchmark's own
// cell driver and compares their simulated cycles and accesses with the
// committed BENCH_6.json values. It ties the digests to a reference that
// predates the benchmark.
func checkAnchor(refs references) []string {
	var fails []string
	for _, a := range anchorCells {
		want, ok := refs.bench6[a.key]
		if !ok {
			fails = append(fails, fmt.Sprintf("anchor %s: missing from %s", a.key, bench6Path))
			continue
		}
		r := runCell(param.ReproScale(a.design), a.make(), false)
		if r.err != nil {
			fails = append(fails, fmt.Sprintf("anchor %s: %v", a.key, r.err))
			continue
		}
		cyc, acc := float64(r.st.Cycles), float64(r.st.Loads+r.st.Stores)
		if cyc != want.Metrics["sim-cycles"] || acc != want.Metrics["sim-accesses"] {
			fails = append(fails, fmt.Sprintf("anchor %s: %g cycles %g accesses, %s has %g and %g",
				a.key, cyc, acc, bench6Path, want.Metrics["sim-cycles"], want.Metrics["sim-accesses"]))
		}
	}
	return fails
}
