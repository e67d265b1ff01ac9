package soak

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"tvarak/internal/fault"
	"tvarak/internal/fleet"
	"tvarak/internal/harness"
	"tvarak/internal/live"
	"tvarak/internal/param"
)

// TestSoakWorkerHelper is not a test: it is the fleet worker the chaos
// tests re-exec their own test binary into (the classic helper-process
// pattern), taking the `tvarak worker` flags the cycle uses. Guarded by an
// env var so a plain `go test` skips it.
func TestSoakWorkerHelper(t *testing.T) {
	if os.Getenv("TVARAK_SOAK_WORKER") != "1" {
		t.Skip("soak chaos worker helper (enabled via TVARAK_SOAK_WORKER=1)")
	}
	args := os.Args
	for i, a := range args {
		if a == "--" {
			args = args[i+1:]
			break
		}
	}
	fs := flag.NewFlagSet("worker", flag.ExitOnError)
	w := &fleet.Worker{Name: fmt.Sprintf("helper:%d", os.Getpid())}
	fs.StringVar(&w.Gateway, "gateway", "", "gateway base URL")
	fs.DurationVar(&w.AcquireDelay, "acquire-delay", 0, "pause between lease grant and unit start")
	fs.Parse(args)
	if err := w.Run(context.Background()); err != nil {
		fmt.Fprintln(os.Stderr, "helper:", err)
		os.Exit(1)
	}
	os.Exit(0)
}

// workerCmd re-execs this test binary into the helper above, with extra
// worker flags.
func workerCmd(t *testing.T, extra ...string) []string {
	t.Setenv("TVARAK_SOAK_WORKER", "1")
	return append([]string{os.Args[0], "-test.run=TestSoakWorkerHelper", "--"}, extra...)
}

// writeOpsLedger fabricates a resource ledger with the given goroutine
// trajectory (flat heap and throughput), for deterministic gate verdicts.
func writeOpsLedger(t *testing.T, path string, goroutines []int) {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for i, g := range goroutines {
		if err := enc.Encode(live.ResourceSample{
			UnixMS: int64(1000 * i), HeapAlloc: 1 << 20, Goroutines: g, AccessesPerSec: 100,
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

func readLedgerFile(t *testing.T, path string) []LedgerLine {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	lines, err := ReadLedger(f)
	if err != nil {
		t.Fatal(err)
	}
	return lines
}

// TestSoakEndToEnd drives the full loop: 6 units, chaos on every 3rd
// (a SIGKILLed fleet worker process, byte-identity of the redelivered
// unit's result), a clean
// resource gate at unit 4, and a same-seed rerun whose canonical ledger
// projection must be byte-identical.
func TestSoakEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	dir := t.TempDir()
	ops := filepath.Join(dir, "ops.jsonl")
	writeOpsLedger(t, ops, []int{10, 10, 10, 10, 10, 10, 10, 10, 10, 10})

	cfg := Config{
		Seed:          42,
		Units:         6,
		Parallel:      2,
		ChaosEvery:    3,
		KillAfter:     20 * time.Millisecond,
		WorkerCmd:     workerCmd(t),
		GateEvery:     4,
		OpsLedgerPath: ops,
		LedgerPath:    filepath.Join(dir, "soak.jsonl"),
	}
	sum, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run: %v (summary %+v)", err, sum)
	}
	if sum.Units != 6 || sum.Chaos != 2 || sum.IdentityMismatches != 0 || len(sum.Problems) != 0 {
		t.Fatalf("bad summary: %+v", sum)
	}
	if sum.GateChecks != 1 {
		t.Fatalf("gate ran %d times, want 1: %+v", sum.GateChecks, sum)
	}

	lines := readLedgerFile(t, cfg.LedgerPath)
	if len(lines) != 6 {
		t.Fatalf("ledger has %d lines, want 6", len(lines))
	}
	for i, l := range lines {
		if l.Index != i {
			t.Fatalf("line %d carries index %d — ledger not in stream order", i, l.Index)
		}
		wantChaos := (i+1)%3 == 0
		if l.Chaos != wantChaos {
			t.Fatalf("line %d: chaos=%v, want %v", i, l.Chaos, wantChaos)
		}
		if wantChaos && (l.IdentityOK == nil || !*l.IdentityOK) {
			t.Fatalf("line %d: chaos report not byte-identical", i)
		}
		if u := UnitAt(cfg.Seed, i); l.Key != u.Fingerprint(cfg.Seed) || l.App != u.App {
			t.Fatalf("line %d does not match the sampled unit", i)
		}
	}
	if gf := lines[3].GateFindings; gf == nil || len(gf) != 0 {
		t.Fatalf("line 3 gate verdict = %v, want clean check (empty list)", lines[3].GateFindings)
	}
	if problems := Check(lines); len(problems) != 0 {
		t.Fatalf("soakcheck verdict on a clean run: %v", problems)
	}

	// Same-seed rerun: the canonical projections must match byte-for-byte
	// even though kill timing and wall clocks differ.
	cfg2 := cfg
	cfg2.LedgerPath = filepath.Join(dir, "soak2.jsonl")
	if _, err := Run(cfg2); err != nil {
		t.Fatalf("rerun: %v", err)
	}
	lines2 := readLedgerFile(t, cfg2.LedgerPath)
	if len(lines2) != len(lines) {
		t.Fatalf("rerun produced %d lines, want %d", len(lines2), len(lines))
	}
	for i := range lines {
		a, _ := json.Marshal(lines[i].Canonical())
		b, _ := json.Marshal(lines2[i].Canonical())
		if !bytes.Equal(a, b) {
			t.Fatalf("canonical line %d differs across same-seed runs:\n run1 %s\n run2 %s", i, a, b)
		}
	}
}

// TestSoakChaosRedelivery pins the redelivery path: the victim holds its
// lease well past the kill (AcquireDelay, inside the lease TTL) before
// starting the unit, so the
// SIGKILL always orphans the lease and the accepted payload can only come
// from the survivor's redelivered lease.
func TestSoakChaosRedelivery(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	dir := t.TempDir()
	cfg := Config{
		Seed:       42,
		Units:      1,
		ChaosEvery: 1,
		KillAfter:  20 * time.Millisecond,
		WorkerCmd:  workerCmd(t, "-acquire-delay", "500ms"),
		LedgerPath: filepath.Join(dir, "soak.jsonl"),
	}
	if _, err := Run(cfg); err != nil {
		t.Fatalf("Run: %v", err)
	}
	lines := readLedgerFile(t, cfg.LedgerPath)
	if len(lines) != 1 {
		t.Fatalf("ledger has %d lines, want 1", len(lines))
	}
	if l := lines[0]; !l.Chaos || !l.Killed || l.IdentityOK == nil || !*l.IdentityOK {
		t.Fatalf("chaos line = %+v, want chaos, killed and identityOK", l)
	}
}

// TestSoakUnitIsOneUnitCampaign: every soak unit, under every sampler
// option set, is the single unit of its one-app, one-design campaign job —
// the equivalence that lets a fleet worker run it unchanged.
func TestSoakUnitIsOneUnitCampaign(t *testing.T) {
	rangeInc := param.AsyncConfig{EpochCyc: 22700, DirtyGran: param.GranRange, Incremental: true}
	battery := param.BatteryPreset(22700)
	sets := map[string]SamplerOptions{
		"default":           {},
		"vilamb":            {Designs: []param.Design{param.Vilamb}},
		"txb-page+baseline": {Designs: []param.Design{param.TxBPageCsums, param.Baseline}},
		"async-zero":        {Async: &param.AsyncConfig{}},
		"async-epoch":       {Async: &param.AsyncConfig{EpochCyc: 4096}},
		"async-battery":     {Async: &battery},
		"async-range-inc":   {Async: &rangeInc},
	}
	for name, opts := range sets {
		for i := 0; i < 400; i++ {
			u := UnitAtOpt(7, i, opts)
			spec, plan, err := chaosPlan(u)
			if err != nil {
				t.Fatalf("%s unit %d: %v", name, i, err)
			}
			o, err := spec.CampaignOptions()
			if err != nil {
				t.Fatal(err)
			}
			units, err := fault.CampaignUnits(o)
			if err != nil {
				t.Fatal(err)
			}
			if len(units) != 1 || units[0].Params != u.UnitParams || plan.Fingerprint(0) != units[0].Fp {
				t.Fatalf("%s unit %d: campaign units %+v, want exactly %+v", name, i, units, u.UnitParams)
			}
		}
	}
}

// TestSoakSupervisorResume: a supervisor journal carrying already-finished
// units restores them (Resumed) with deterministic outcomes intact.
func TestSoakSupervisorResume(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	dir := t.TempDir()
	jpath := filepath.Join(dir, "soak.journal")

	run := func(journalNew bool, ledger string) []LedgerLine {
		var err error
		cfg := Config{
			Seed:       7,
			Units:      3,
			Parallel:   2,
			LedgerPath: filepath.Join(dir, ledger),
		}
		if journalNew {
			cfg.Journal, err = harness.NewJournal(jpath)
		} else {
			cfg.Journal, err = harness.OpenJournal(jpath)
		}
		if err != nil {
			t.Fatal(err)
		}
		defer cfg.Journal.Close()
		if _, err := Run(cfg); err != nil {
			t.Fatal(err)
		}
		return readLedgerFile(t, cfg.LedgerPath)
	}

	first := run(true, "a.jsonl")
	second := run(false, "b.jsonl")
	for i := range second {
		if !second[i].Resumed {
			t.Errorf("line %d not restored from the supervisor journal", i)
		}
		a, _ := json.Marshal(first[i].Canonical())
		b, _ := json.Marshal(second[i].Canonical())
		if !bytes.Equal(a, b) {
			t.Errorf("restored line %d diverges from the original:\n %s\n %s", i, a, b)
		}
	}
}

// TestSoakGateFailure: a leaking ops ledger turns into a gate finding on
// the ledger line and a failing verdict.
func TestSoakGateFailure(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	dir := t.TempDir()
	ops := filepath.Join(dir, "ops.jsonl")
	writeOpsLedger(t, ops, []int{8, 9, 11, 40, 80, 200, 400, 900}) // runaway goroutines

	cfg := Config{
		Seed:          11,
		Units:         4,
		Parallel:      2,
		GateEvery:     2,
		OpsLedgerPath: ops,
		LedgerPath:    filepath.Join(dir, "soak.jsonl"),
	}
	sum, err := Run(cfg)
	if !errors.Is(err, ErrProblems) {
		t.Fatalf("Run err = %v, want ErrProblems", err)
	}
	if sum == nil || len(sum.Problems) == 0 {
		t.Fatalf("no problems reported: %+v", sum)
	}
	lines := readLedgerFile(t, cfg.LedgerPath)
	var flagged bool
	for _, l := range lines {
		if len(l.GateFindings) > 0 {
			flagged = true
		}
	}
	if !flagged {
		t.Fatal("no ledger line carries the gate finding")
	}
	if problems := Check(lines); len(problems) == 0 {
		t.Fatal("soakcheck verdict missed the gate failure")
	}
}

// TestSoakDurationBound: with no unit bound, the deadline stops the run
// cleanly and the ledger is a contiguous prefix of the stream.
func TestSoakDurationBound(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	dir := t.TempDir()
	cfg := Config{
		Seed:       3,
		Duration:   400 * time.Millisecond,
		Parallel:   2,
		LedgerPath: filepath.Join(dir, "soak.jsonl"),
	}
	sum, err := Run(cfg)
	if err != nil {
		t.Fatalf("duration-bounded run: %v", err)
	}
	lines := readLedgerFile(t, cfg.LedgerPath)
	if len(lines) != sum.Units {
		t.Fatalf("summary says %d units, ledger has %d", sum.Units, len(lines))
	}
	for i, l := range lines {
		if l.Index != i {
			t.Fatalf("ledger is not a contiguous prefix: line %d has index %d", i, l.Index)
		}
	}
}

// TestSoakCancellation: user cancellation is an error, not a clean stop.
func TestSoakCancellation(t *testing.T) {
	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg := Config{
		Seed:       5,
		Units:      8,
		Context:    ctx,
		LedgerPath: filepath.Join(dir, "soak.jsonl"),
	}
	if _, err := Run(cfg); err == nil {
		t.Fatal("cancelled run reported success")
	}
}

func TestSoakConfigValidation(t *testing.T) {
	if _, err := Run(Config{Seed: 1, Units: 1}); err == nil {
		t.Error("missing LedgerPath accepted")
	}
	if _, err := Run(Config{Seed: 1, LedgerPath: "x.jsonl"}); err == nil {
		t.Error("unbounded run accepted")
	}
	if _, err := Run(Config{Seed: 1, Units: 1, LedgerPath: "x.jsonl", ChaosEvery: 1}); err == nil {
		t.Error("chaos without WorkerCmd accepted")
	}
}
