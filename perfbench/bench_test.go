package main

import (
	"encoding/json"
	"os"
	"testing"

	"tvarak/internal/harness"
	"tvarak/internal/param"
)

// testScale shrinks every cell's measured work so the tests run in
// seconds; the machine and the preloads keep their benchmark sizes.
const testScale = 0.02

// TestCellsMatchHarnessRun shows that the benchmark measures the program
// users run: each cell, driven call by call through the benchmark's own
// spans, gives exactly harness.Run's statistics, with and without the
// controller timing wrapper and the phase probe attached.
func TestCellsMatchHarnessRun(t *testing.T) {
	for _, c := range append(append([]cell(nil), daxMissCells...), pmemTxCells...) {
		seed := appSeed(7, c.appIdx)
		want, err := harness.Run(param.ReproScale(c.design), c.app.make(seed, testScale))
		if err != nil {
			t.Fatalf("%s: harness.Run: %v", c.label(), err)
		}
		for _, instrumented := range []bool{false, true} {
			r := runCell(param.ReproScale(c.design), c.app.make(seed, testScale), instrumented)
			if r.err != nil {
				t.Fatalf("%s (instrumented %t): %v", c.label(), instrumented, r.err)
			}
			if got, w := statsDigest(&r.st), statsDigest(&want.Stats); got != w {
				t.Errorf("%s (instrumented %t): stats %+v, harness.Run gives %+v", c.label(), instrumented, r.st, want.Stats)
			}
			if instrumented && c.design == param.Tvarak && (r.ctrl == nil || r.ctrl.fills == 0) {
				t.Errorf("%s: the controller wrapper saw no fills", c.label())
			}
		}
	}
}

// TestHeldOutSeedChangesDigestNotVerdict runs every workload at two seeds
// the recorded digests do not use: the simulated outputs must differ, and
// both must pass every output check.
func TestHeldOutSeedChangesDigestNotVerdict(t *testing.T) {
	const a, b = 424242, 987654321
	type run func(seed int64) pass
	for name, f := range map[string]run{
		"dax-miss":       func(s int64) pass { return runCells(daxMissCells, s, testScale, false) },
		"pmem-tx":        func(s int64) pass { return runCells(pmemTxCells, s, testScale, false) },
		"fault-campaign": func(s int64) pass { return runFault(s, 1) },
	} {
		pa, pb := f(a), f(b)
		if len(pa.failures) > 0 || len(pb.failures) > 0 {
			t.Errorf("%s: failures %q / %q", name, pa.failures, pb.failures)
		}
		if combineDigests(pa.digests) == combineDigests(pb.digests) {
			t.Errorf("%s: seeds %d and %d simulate identical outputs", name, a, b)
		}
	}
}

// TestAnchorMatchesBench6 reproduces BENCH_6.json's single-cell simulated
// cycles and accesses.
func TestAnchorMatchesBench6(t *testing.T) {
	if err := os.Chdir(".."); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir("perfbench")
	refs, err := loadReferences()
	if err != nil {
		t.Fatal(err)
	}
	if fails := checkAnchor(refs); len(fails) > 0 {
		t.Fatal(fails)
	}
}

// TestBenchmarkJSONMatchesProgram keeps BENCHMARK.json's metric and
// workload lists identical to what the program prints.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit string }
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []metric, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program %d", what, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %v, program %v", what, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEnd)
	same("per_layer", doc.PerLayer, perLayer)
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, doc.Workloads[i].Name, w.name)
		}
	}
}

func TestBucketOf(t *testing.T) {
	for _, tc := range []struct {
		stack []string
		want  string
	}{
		{[]string{"tvarak/internal/sim.(*Engine).access"}, "sim"},
		{[]string{"hash/crc32.update", "tvarak/internal/xsum.Checksum", "tvarak/internal/core.(*Controller).OnFill"}, "xsum"},
		{[]string{"runtime.memmove", "tvarak/internal/geom.Geometry.LineAddr", "tvarak/internal/nvm.(*Memory).ReadRaw"}, "nvm"},
		{[]string{"math/rand.read", "tvarak/internal/apps/fio.(*Workload).Setup"}, "apps"},
		{[]string{"runtime.memclrNoHeapPointers", "runtime.mallocgc", "tvarak/internal/nvm.New"}, "gc"},
		{[]string{"runtime.memclrNoHeapPointers", "tvarak/internal/nvm.(*Memory).Reset"}, "nvm"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "gc"},
		{[]string{"runtime.chanrecv", "tvarak/internal/sim.(*Core).maybeYield"}, "sched"},
		{[]string{"runtime.futex", "runtime.schedule", "runtime.park_m", "runtime.mcall"}, "sched"},
		{[]string{"time.Now", "main.(*timedCtrl).OnFill", "tvarak/internal/sim.(*Engine).fillLLC"}, "other"},
		{[]string{"runtime.memmove", "runtime.main"}, "other"},
	} {
		if got := bucketOf(tc.stack); got != tc.want {
			t.Errorf("bucketOf(%q) = %q, want %q", tc.stack, got, tc.want)
		}
	}
}
