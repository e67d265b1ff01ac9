package soak

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"time"

	"tvarak/internal/fault"
	"tvarak/internal/harness"
	"tvarak/internal/live"
	"tvarak/internal/param"
)

// journalKind is the journal record kind for soak units.
const journalKind = "soak-unit"

// Config shapes one soak run.
type Config struct {
	// Seed is the master soak seed; the entire unit stream derives from it.
	Seed int64
	// Units bounds the stream length (0 = unbounded; then Duration must be
	// set). A bounded run is what CI reruns for ledger byte-identity.
	Units int
	// Duration is a wall-clock cap (0 = none). The run stops cleanly at
	// the deadline: the ledger keeps a contiguous prefix of the stream.
	Duration time.Duration
	// Parallel bounds concurrently-running units (0 = NumCPU).
	Parallel int
	// Designs restricts the sampled design rotation (empty = all designs;
	// see SamplerOptions.Designs).
	Designs []param.Design
	// Async, when non-nil, pins every Vilamb unit's async configuration
	// instead of rotating it through the sampler's epoch/granularity axes.
	Async *param.AsyncConfig
	// ChaosEvery routes every ChaosEvery-th unit through a chaos cycle:
	// the unit also runs on a fleet worker that is SIGKILLed, and the
	// survivor's redelivered result must be byte-identical (0 disables).
	ChaosEvery int
	// KillAfter is how long after the gateway grants the victim its lease
	// the supervisor waits before SIGKILLing it. Zero selects 30ms —
	// inside a typical unit's runtime, so the kill usually lands
	// mid-simulation.
	KillAfter time.Duration
	// WorkerCmd is the argv prefix of a fleet worker, re-exec'd with
	// "-gateway <url>" appended as each chaos cycle's victim and survivor
	// (the CLI passes its own binary's `worker` subcommand; tests pass a
	// re-exec'd test binary). Required when ChaosEvery > 0.
	WorkerCmd []string
	// GateEvery runs the live resource gates once every GateEvery finished
	// units (0 disables). Gate verdicts attach to the ledger line they were
	// sampled at: an empty list when clean, the finding strings otherwise.
	GateEvery int
	// Gate is the resource-gate thresholds (zero value → defaults).
	Gate live.OpsCheck
	// OpsLedgerPath is the live ops resource ledger the gates analyze —
	// the file the run's own resource sampler appends to.
	OpsLedgerPath string
	// LedgerPath is where the soak ledger is written. Required.
	LedgerPath string
	// Journal, when non-nil, makes the supervisor itself crash-safe:
	// finished units are fsync'd under their soak fingerprint and a
	// reopened journal restores them instead of re-running.
	Journal *harness.Journal
	// Context cancels the run cooperatively (distinct from the Duration
	// deadline: cancellation is an error, the deadline is a clean stop).
	Context context.Context
	// Progress, if non-nil, is called once per appended ledger line, in
	// stream order.
	Progress func(LedgerLine)
	// FailFast stops the run at the first problem instead of soldiering on
	// (CI wants the former, an overnight evidence-gathering run the latter).
	FailFast bool
}

// Summary is the run's aggregate outcome. Problems is the same verdict
// list soakcheck derives from the ledger.
type Summary struct {
	Units              int
	Chaos              int
	Killed             int
	Resumed            int
	IdentityMismatches int
	Undetected         int
	Unrecovered        int
	Failures           int
	GateChecks         int
	Problems           []Problem
}

// ErrProblems is returned (wrapped) when the run itself completed but the
// ledger verdict found problems.
var ErrProblems = errors.New("soak: run found problems")

// samplerOpts is the sampler view of the config: the options every unit
// of the stream derives from.
func (cfg Config) samplerOpts() SamplerOptions {
	return SamplerOptions{Designs: cfg.Designs, Async: cfg.Async}
}

// Scope identifies the unit stream a soak journal checkpoints: the master
// seed plus the sampler options every unit derives from ("-" when unset).
// Resuming a journal under a different stream fails naming both scopes,
// instead of silently re-running every unit.
func (cfg Config) Scope() string {
	designs, async := "-", "-"
	if len(cfg.Designs) > 0 {
		var names []string
		for _, d := range cfg.Designs {
			names = append(names, d.String())
		}
		designs = strings.Join(names, ",")
	}
	if cfg.Async != nil {
		async = cfg.Async.Label()
	}
	return fmt.Sprintf("soak|seed=%d|designs=%s|async=%s", cfg.Seed, designs, async)
}

// Run executes the soak loop: sample units from the seeded stream, run
// them journaled on a worker pool with the fault oracle armed, cycle every
// ChaosEvery-th unit through a SIGKILLed fleet worker, gate resources
// every GateEvery units, and append one fsync'd ledger line per unit in
// stream order. It returns a non-nil Summary whenever the ledger was
// created, even alongside an error.
func Run(cfg Config) (*Summary, error) {
	if cfg.LedgerPath == "" {
		return nil, errors.New("soak: LedgerPath required")
	}
	if cfg.Units <= 0 && cfg.Duration <= 0 {
		return nil, errors.New("soak: need a Units or Duration bound")
	}
	if cfg.ChaosEvery > 0 && len(cfg.WorkerCmd) == 0 {
		return nil, errors.New("soak: chaos needs WorkerCmd")
	}
	if cfg.KillAfter <= 0 {
		cfg.KillAfter = 30 * time.Millisecond
	}
	if (cfg.Gate == live.OpsCheck{}) {
		cfg.Gate = live.DefaultOpsCheck()
	}

	parent := cfg.Context
	if parent == nil {
		parent = context.Background()
	}
	runCtx, cancel := parent, func() {}
	if cfg.Duration > 0 {
		runCtx, cancel = context.WithTimeout(parent, cfg.Duration)
	}
	defer cancel()

	ledger, err := CreateLedger(cfg.LedgerPath)
	if err != nil {
		return nil, err
	}
	defer ledger.Close()

	sum := &Summary{}
	pool := harness.Runner{Workers: cfg.Parallel, Context: runCtx}
	workers := cfg.Parallel
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	// Batch granularity: big enough to keep the pool saturated, small
	// enough that the duration deadline and gate cadence stay responsive.
	batch := workers * 2
	if batch < 4 {
		batch = 4
	} else if batch > 32 {
		batch = 32
	}

	appendLine := func(line LedgerLine) error {
		if err := ledger.Append(line); err != nil {
			return err
		}
		sum.Units++
		if line.Chaos {
			sum.Chaos++
		}
		if line.Killed {
			sum.Killed++
		}
		if line.Resumed {
			sum.Resumed++
		}
		if line.IdentityOK != nil && !*line.IdentityOK {
			sum.IdentityMismatches++
		}
		sum.Undetected += line.Undetected
		sum.Unrecovered += line.Unrecovered
		if line.Failure != "" {
			sum.Failures++
		}
		if line.GateFindings != nil {
			sum.GateChecks++
		}
		sum.Problems = append(sum.Problems, Check([]LedgerLine{line})...)
		if cfg.Progress != nil {
			cfg.Progress(line)
		}
		return nil
	}

	lastGate := 0
	for start := 0; ; start += batch {
		if cfg.Units > 0 && start >= cfg.Units {
			break
		}
		if runCtx.Err() != nil {
			break
		}
		n := batch
		if cfg.Units > 0 && start+n > cfg.Units {
			n = cfg.Units - start
		}

		lines := make([]*LedgerLine, n)
		poolErr := pool.ForEach(n, func(k int) error {
			line, err := runOne(runCtx, cfg, start+k)
			if err != nil {
				return err
			}
			lines[k] = line
			return nil
		})

		// Keep only the contiguous prefix so the ledger is always an exact
		// [0, Units) prefix of the stream — the invariant the same-seed
		// rerun identity gate depends on.
		complete := 0
		for complete < n && lines[complete] != nil {
			complete++
		}

		// Resource gate: sampled at batch granularity, attached to the last
		// line it covers before that line is appended.
		if cfg.GateEvery > 0 && cfg.OpsLedgerPath != "" && complete > 0 &&
			start+complete-lastGate >= cfg.GateEvery {
			findings, _, gerr := cfg.Gate.AnalyzeLedgerFile(cfg.OpsLedgerPath)
			if gerr != nil {
				return sum, fmt.Errorf("soak: resource gate: %w", gerr)
			}
			gf := make([]string, 0, len(findings))
			for _, f := range findings {
				gf = append(gf, f.Check+": "+f.Detail)
			}
			lines[complete-1].GateFindings = gf
			lastGate = start + complete
		}

		for k := 0; k < complete; k++ {
			if err := appendLine(*lines[k]); err != nil {
				return sum, err
			}
		}

		if cfg.FailFast && len(sum.Problems) > 0 {
			return sum, fmt.Errorf("%w: %s", ErrProblems, sum.Problems[0])
		}
		if poolErr != nil {
			// Deadline expiry is the clean duration-bound stop; everything
			// else (user cancellation, worker failure) is a real error.
			if errors.Is(poolErr, context.DeadlineExceeded) && parent.Err() == nil {
				break
			}
			return sum, poolErr
		}
		if runCtx.Err() != nil && parent.Err() == nil {
			break // deadline hit between batches
		}
	}

	if parent.Err() != nil {
		return sum, context.Cause(parent)
	}
	if len(sum.Problems) > 0 {
		return sum, fmt.Errorf("%w: %d problem(s), first: %s",
			ErrProblems, len(sum.Problems), sum.Problems[0])
	}
	return sum, nil
}

// runOne produces the ledger line for stream unit index: journal-restore
// or simulate the reference report in-process, then — on chaos units —
// run the fleet kill cycle against the reference's bytes.
func runOne(ctx context.Context, cfg Config, index int) (*LedgerLine, error) {
	unit := UnitAtOpt(cfg.Seed, index, cfg.samplerOpts())
	fp := unit.Fingerprint(cfg.Seed)
	began := time.Now()

	line := &LedgerLine{
		Seed:     cfg.Seed,
		Index:    index,
		Key:      fp,
		App:      unit.App,
		Design:   unit.Design.String(),
		N:        unit.N,
		UnitSeed: unit.Seed,
	}

	var rep fault.UnitReport
	if cfg.Journal != nil && cfg.Journal.Lookup(journalKind, fp, &rep) {
		line.Resumed = true
	} else {
		r, err := fault.RunSingleUnit(ctx, unit.UnitParams)
		if err != nil {
			return nil, err
		}
		if ctx.Err() != nil {
			// Belt and braces on top of the fault layer's own voiding: a
			// unit that observed a firing deadline must never reach the
			// journal or the ledger, however far it got.
			return nil, context.Cause(ctx)
		}
		rep = *r
		if cfg.Journal != nil {
			if err := cfg.Journal.Record(journalKind, fp, &rep); err != nil {
				return nil, err
			}
		}
	}
	line.fromReport(&rep)

	if cfg.ChaosEvery > 0 && (index+1)%cfg.ChaosEvery == 0 {
		reference, err := json.Marshal(&rep)
		if err != nil {
			return nil, err
		}
		cr, err := runChaos(ctx, cfg, unit, reference)
		if err != nil {
			return nil, err
		}
		line.Chaos = true
		ok := cr.IdentityOK
		line.IdentityOK = &ok
		line.Killed = cr.Killed
	}

	line.WallMS = time.Since(began).Milliseconds()
	return line, nil
}
