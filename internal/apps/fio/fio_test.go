package fio_test

import (
	"strings"
	"testing"

	"tvarak/internal/apps/fio"
	"tvarak/internal/harness"
	"tvarak/internal/param"
)

func smallCfg(p fio.Pattern, write bool) fio.Config {
	return fio.Config{
		Pattern: p, Write: write, Threads: 4,
		RegionBytes: 1 << 20, AccessBytes: 256 << 10,
		BlockBytes: 64, ComputeCyc: 100, Seed: 1,
	}
}

func TestRunsUnderAllDesigns(t *testing.T) {
	for _, d := range param.Designs() {
		for _, wr := range []bool{false, true} {
			r, err := harness.Run(param.SmallTest(d), fio.New(smallCfg(fio.Rand, wr)))
			if err != nil {
				t.Fatalf("%v write=%v: %v", d, wr, err)
			}
			if r.Stats.CorruptionsDetected != 0 {
				t.Errorf("%v: false corruptions", d)
			}
		}
	}
}

func TestAccessBeyondRegionFailsCleanly(t *testing.T) {
	// AccessBytes > RegionBytes cannot be served without touching a line
	// twice or leaving the region: the cell must fail with an error naming
	// both sizes, not panic inside the workers.
	cfg := smallCfg(fio.Rand, false)
	cfg.AccessBytes = 2 * cfg.RegionBytes
	cells := []harness.Cell{{
		Config: param.SmallTest(param.Tvarak),
		Make:   func() harness.Workload { return fio.New(cfg) },
	}}
	_, man, err := harness.Runner{Workers: 1, Degrade: true}.RunManifest(cells)
	if err != nil {
		t.Fatal(err)
	}
	if len(man.Failures) != 1 {
		t.Fatalf("manifest = %+v, want one failure", man)
	}
	f := man.Failures[0]
	if f.Stack != "" {
		t.Errorf("cell panicked: %s\n%s", f.Err, f.Stack)
	}
	if !strings.Contains(f.Err, "2097152 access bytes > 1048576 region bytes") {
		t.Errorf("error = %q, want one naming both sizes", f.Err)
	}
}

func TestNoLineAccessedTwice(t *testing.T) {
	// "no cache line is accessed twice": a cold random-read run must fill
	// exactly AccessBytes/64 distinct lines per thread from NVM.
	cfg := smallCfg(fio.Rand, false)
	r, err := harness.Run(param.SmallTest(param.Baseline), fio.New(cfg))
	if err != nil {
		t.Fatal(err)
	}
	wantLines := uint64(cfg.Threads) * cfg.AccessBytes / 64
	if r.Stats.NVM.DataReads != wantLines {
		t.Errorf("NVM reads = %d, want exactly %d (each line read once, cold)",
			r.Stats.NVM.DataReads, wantLines)
	}
	if r.Stats.NVM.DataWrites != 0 {
		t.Errorf("read-only run wrote %d lines", r.Stats.NVM.DataWrites)
	}
}

func TestWriteRunPersistsEveryLine(t *testing.T) {
	cfg := smallCfg(fio.Seq, true)
	r, err := harness.Run(param.SmallTest(param.Baseline), fio.New(cfg))
	if err != nil {
		t.Fatal(err)
	}
	wantLines := uint64(cfg.Threads) * cfg.AccessBytes / 64
	if r.Stats.NVM.DataWrites != wantLines {
		t.Errorf("NVM writes = %d, want %d", r.Stats.NVM.DataWrites, wantLines)
	}
}

func TestReadsAreFreeForTxBSchemes(t *testing.T) {
	// Table I: software schemes do not verify reads, so read workloads
	// must cost exactly the baseline.
	base, err := harness.Run(param.SmallTest(param.Baseline), fio.New(smallCfg(fio.Rand, false)))
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []param.Design{param.TxBObjectCsums, param.TxBPageCsums} {
		r, err := harness.Run(param.SmallTest(d), fio.New(smallCfg(fio.Rand, false)))
		if err != nil {
			t.Fatal(err)
		}
		if r.Stats.Cycles != base.Stats.Cycles {
			t.Errorf("%v read runtime %d != baseline %d", d, r.Stats.Cycles, base.Stats.Cycles)
		}
	}
}

func TestNaiveControllerModeVerifiesCleanly(t *testing.T) {
	// Regression: the Fig. 9 naive (page-granular) controller verifies
	// page checksums on fills; the prefilled file's page checksums must be
	// reconciled so no false corruption fires.
	cfg := param.SmallTest(param.Tvarak)
	cfg.Tvarak.Features = param.TvarakFeatures{} // naive
	r, err := harness.Run(cfg, fio.New(smallCfg(fio.Rand, true)))
	if err != nil {
		t.Fatal(err)
	}
	if r.Stats.CorruptionsDetected != 0 {
		t.Errorf("naive mode raised %d false corruptions", r.Stats.CorruptionsDetected)
	}
}

func TestTvarakVerifiesEveryRead(t *testing.T) {
	r, err := harness.Run(param.SmallTest(param.Tvarak), fio.New(smallCfg(fio.Seq, false)))
	if err != nil {
		t.Fatal(err)
	}
	if r.Stats.NVM.RedReads == 0 {
		t.Error("Tvarak read run fetched no checksums")
	}
}

func TestRandomCostsMoreThanSequentialUnderTvarak(t *testing.T) {
	// The paper's fio result: sequential writes ≈ free, random writes
	// expensive (poor redundancy-line reuse).
	seqR, err := harness.Run(param.SmallTest(param.Tvarak), fio.New(smallCfg(fio.Seq, true)))
	if err != nil {
		t.Fatal(err)
	}
	rndR, err := harness.Run(param.SmallTest(param.Tvarak), fio.New(smallCfg(fio.Rand, true)))
	if err != nil {
		t.Fatal(err)
	}
	if rndR.Stats.NVM.Redundancy() <= seqR.Stats.NVM.Redundancy() {
		t.Errorf("random redundancy NVM (%d) not above sequential (%d)",
			rndR.Stats.NVM.Redundancy(), seqR.Stats.NVM.Redundancy())
	}
}
