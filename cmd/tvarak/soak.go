package main

// tvarak soak is the continuous soak + chaos harness (DESIGN.md §10): a
// deterministic stream of oracle-judged fault units from one master seed,
// with every -chaos-every'th unit SIGKILLed mid-run in a re-exec'd worker
// child (`tvarak soak -chaos-worker`) and resumed byte-identically, and
// resource gates every -gate-every units. Each unit appends one fsync'd
// ledger line; `tvarak soakcheck` turns the ledger into a verdict, and its
// -canon projection of two same-seed runs must match byte for byte.

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"time"

	"tvarak/internal/live"
	"tvarak/internal/param"
	"tvarak/internal/soak"
)

type soakCmd struct {
	base
	job     jobFlags // -designs and the async pin
	ops     *opsFlags
	journal *journalFlags

	seed                                   int64
	units, chaosEvery, gateEvery, parallel int
	duration, budget, killAfter            time.Duration
	pinAsync, failFast, chaosWorker        bool
	ledger, workdir                        string
}

func newSoak() *soakCmd {
	c := &soakCmd{base: newBase("soak")}
	fs := c.fs
	fs.Int64Var(&c.seed, "seed", 1, "master soak seed; the whole unit stream derives from it")
	fs.IntVar(&c.units, "units", 0, "stop after this many units (0 = unbounded; needs -duration or -budget)")
	fs.DurationVar(&c.duration, "duration", 0, "stop cleanly after this wall-clock time (0 = none)")
	fs.DurationVar(&c.budget, "budget", 0, "CI mode: hard wall-clock cap plus bounded defaults (-units 16 unless set)")
	fs.IntVar(&c.chaosEvery, "chaos-every", 8, "SIGKILL/resume every Nth unit through a worker child (0 disables)")
	fs.DurationVar(&c.killAfter, "kill-after", 30*time.Millisecond, "delay between the worker's start marker and its SIGKILL")
	fs.IntVar(&c.gateEvery, "gate-every", 16, "run the resource gates every N units (0 disables)")
	fs.IntVar(&c.parallel, "parallel", 0, "concurrent units (0 = one per CPU)")
	c.job.addShape(fs)
	fs.BoolVar(&c.pinAsync, "pin-async", false, "pin every vilamb unit to the -epoch/-dirty-gran/-battery/-incremental config instead of rotating the async axes")
	fs.StringVar(&c.ledger, "ledger", "soak.jsonl", "append one fsync'd JSONL line per unit to this soak ledger")
	fs.StringVar(&c.workdir, "workdir", "", "scratch dir for chaos journals/reports and the default -ops-ledger (default: a temp dir, removed on success)")
	fs.BoolVar(&c.failFast, "fail-fast", true, "stop at the first problem (disable for evidence-gathering runs)")
	fs.BoolVar(&c.chaosWorker, "chaos-worker", false, "internal: run as a chaos worker child (args: master index journal out resume designs async)")
	c.ops = addOpsFlags(fs)
	c.journal = addJournalFlags(fs)
	return c
}

// config derives the soak run's shape from the flags: the bounds (with the
// -budget CI defaults) and the sampler options that fix the unit stream.
func (c *soakCmd) config() (soak.Config, error) {
	// Budget mode: a hard wall-clock cap with CI-shaped defaults (small
	// bounded stream, frequent chaos and gates).
	if c.budget > 0 {
		set := map[string]bool{}
		c.fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
		if c.units == 0 {
			c.units = 16
		}
		if c.duration == 0 || c.duration > c.budget {
			c.duration = c.budget
		}
		if !set["chaos-every"] {
			c.chaosEvery = 4
		}
		if !set["gate-every"] {
			c.gateEvery = 8
		}
	}
	cfg := soak.Config{
		Seed: c.seed, Units: c.units, Duration: c.duration, Parallel: c.parallel,
		ChaosEvery: c.chaosEvery, KillAfter: c.killAfter, GateEvery: c.gateEvery,
		LedgerPath: c.ledger, FailFast: c.failFast, Progress: printSoakProgress,
	}
	if c.units <= 0 && c.duration <= 0 {
		return cfg, errors.New("need a bound: -units, -duration or -budget")
	}
	designs, err := param.ParseDesigns(c.job.designs)
	if err != nil {
		return cfg, err
	}
	cfg.Designs = designs
	a, err := param.ParseAsync(c.job.raw.EpochCyc, c.job.raw.DirtyGran, c.job.raw.Battery, c.job.raw.Incremental)
	switch {
	case err != nil:
		return cfg, err
	case c.pinAsync:
		cfg.Async = &a
	case c.job.raw.EpochCyc != 0 || c.job.raw.DirtyGran != "" || c.job.raw.Battery || c.job.raw.Incremental:
		return cfg, errors.New("-epoch/-dirty-gran/-battery/-incremental pin the async axis; add -pin-async to confirm")
	}
	return cfg, nil
}

func (c *soakCmd) run() {
	if c.chaosWorker {
		// The supervisor re-execs this binary with the chaos-protocol
		// positionals and watches stdout for the soak markers.
		if err := soak.RunWorkerArgs(os.Stdout, c.fs.Args()); err != nil {
			fatal(err)
		}
		return
	}
	cfg, err := c.config()
	if err != nil {
		fatal(err)
	}
	// Bound to the unit stream: a -resume under another -seed, -designs or
	// pinned async config fails naming both scopes.
	if cfg.Journal, err = c.journal.open(cfg.Scope()); err != nil {
		fatal(err)
	}
	if cfg.Journal != nil {
		defer cfg.Journal.Close()
	}

	dir := c.workdir
	cleanup := func() {}
	if dir == "" {
		if dir, err = os.MkdirTemp("", "tvarak-soak-*"); err != nil {
			fatal(err)
		}
		// Kept on failure so the chaos journals/reports stay inspectable.
		cleanup = func() { os.RemoveAll(dir) }
	} else if err := os.MkdirAll(dir, 0o755); err != nil {
		fatal(err)
	}
	if c.ops.ledger == "" {
		c.ops.ledger = dir + "/ops.jsonl"
	}
	cfg.WorkDir, cfg.OpsLedgerPath = dir, c.ops.ledger
	cfg.Live = live.NewTelemetry()
	ops := c.ops.start(cfg.Live)
	ctx, stopSignals := signalContext()
	defer stopSignals()
	cfg.Context = ctx
	exe, err := os.Executable()
	if err != nil {
		exe = os.Args[0]
	}
	cfg.WorkerCmd = []string{exe, "soak", "-chaos-worker"}

	fmt.Printf("soak: seed=%d units=%s duration=%s chaos-every=%d gate-every=%d\n",
		cfg.Seed, bound(cfg.Units > 0, strconv.Itoa(cfg.Units)), bound(cfg.Duration > 0, cfg.Duration.String()),
		cfg.ChaosEvery, cfg.GateEvery)
	sum, runErr := soak.Run(cfg)
	closeOps(ops)
	if sum != nil {
		fmt.Printf("soak: %d units (%d chaos, %d killed, %d resumed), %d identity mismatches, %d undetected, %d unrecovered, %d failures, %d gate checks, %d problems\n",
			sum.Units, sum.Chaos, sum.Killed, sum.Resumed, sum.IdentityMismatches,
			sum.Undetected, sum.Unrecovered, sum.Failures, sum.GateChecks, len(sum.Problems))
		for _, p := range sum.Problems {
			warnf("PROBLEM: %s", p)
		}
	}
	if runErr != nil {
		warnf("%v", runErr)
		warnf("chaos artifacts kept in %s", dir)
		if errors.Is(runErr, context.Canceled) {
			os.Exit(130)
		}
		os.Exit(1)
	}
	cleanup()
}

// bound renders a run bound, ∞ when unset.
func bound(set bool, s string) string {
	if !set {
		return "∞"
	}
	return s
}

func printSoakProgress(l soak.LedgerLine) {
	status := "ok"
	switch {
	case l.Failure != "":
		status = "FAIL: " + l.Failure
	case l.IdentityOK != nil && !*l.IdentityOK:
		status = "IDENTITY MISMATCH"
	}
	extra := ""
	if l.Chaos {
		extra = " chaos"
		if l.Killed {
			extra += "+kill"
		}
		if l.Resumed {
			extra += "+resume"
		}
	}
	if len(l.GateFindings) > 0 {
		status = fmt.Sprintf("GATE: %v", l.GateFindings)
	} else if l.GateFindings != nil {
		extra += " gate-ok"
	}
	fmt.Printf("  [%4d] %-28s armed=%-3d detected=%-3d recovered=%-3d %dms%s %s\n",
		l.Index, l.App+"/"+l.Design, l.Armed, l.Detected, l.Recovered, l.WallMS, extra, status)
}

// tvarak soakcheck turns a soak ledger into a verdict: it exits 1 on any
// undetected corruption, any unrecovered fault on a TVARAK design, any
// unit failure, any kill/resume identity mismatch, or any resource-gate
// finding (the soak acceptance bar, DESIGN.md §10; the logic is
// soak.Check). -canon prints each line's deterministic projection
// (wall-clock fields zeroed): two same-seed bounded runs must produce
// byte-identical -canon output.
type soakcheckCmd struct {
	base
	ledger         string
	canon, verbose bool
	requireChaos   int
}

func newSoakcheck() *soakcheckCmd {
	c := &soakcheckCmd{base: newBase("soakcheck")}
	c.fs.StringVar(&c.ledger, "ledger", "", "soak ledger (JSONL) to analyze")
	c.fs.BoolVar(&c.canon, "canon", false, "print the ledger's canonical (deterministic) projection and exit")
	c.fs.IntVar(&c.requireChaos, "require-chaos", 0, "fail unless at least this many kill/resume chaos cycles ran")
	c.fs.BoolVar(&c.verbose, "v", false, "print the per-design breakdown even when clean")
	return c
}

func (c *soakcheckCmd) run() {
	if c.ledger == "" {
		usageErr("-ledger required")
	}
	f, err := os.Open(c.ledger)
	if err != nil {
		fatal(err)
	}
	lines, err := soak.ReadLedger(f)
	f.Close()
	if err != nil {
		fatal(err)
	}
	if len(lines) == 0 {
		fatal(fmt.Errorf("%s: empty ledger", c.ledger))
	}
	if c.canon {
		enc := json.NewEncoder(os.Stdout)
		for _, l := range lines {
			if err := enc.Encode(l.Canonical()); err != nil {
				fatal(err)
			}
		}
		return
	}

	tally := soak.TallyLines(lines)
	problems := soak.Check(lines)
	if tally.Chaos < c.requireChaos {
		problems = append(problems, soak.Problem{
			Reason: fmt.Sprintf("only %d chaos kill/resume cycle(s) ran, need >= %d", tally.Chaos, c.requireChaos),
		})
	}
	if c.verbose || len(problems) > 0 {
		fmt.Printf("%s: %d units, %.1fs simulated wall time\n", c.ledger, tally.Units, float64(tally.WallMS)/1000)
		designs := make([]string, 0, len(tally.ByDesign))
		for d := range tally.ByDesign {
			designs = append(designs, d)
		}
		sort.Strings(designs)
		for _, d := range designs {
			fmt.Printf("  %-18s %d units\n", d, tally.ByDesign[d])
		}
		fmt.Printf("  chaos cycles %d (%d killed, %d resumed), gate checks %d\n",
			tally.Chaos, tally.Killed, tally.Resumed, tally.GateChecks)
		fmt.Printf("  injections: %d armed, %d fired, %d detected, %d recovered, %d confirmed-silent\n",
			tally.Armed, tally.Fired, tally.Detected, tally.Recovered, tally.Silent)
	}
	if len(problems) == 0 {
		fmt.Printf("soakcheck: clean (%d units, %d chaos cycles)\n", tally.Units, tally.Chaos)
		return
	}
	for _, p := range problems {
		fmt.Printf("soakcheck: PROBLEM %s\n", p)
	}
	os.Exit(1)
}
