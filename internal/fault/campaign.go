package fault

import (
	"context"
	"fmt"
	"strings"
	"sync"

	"tvarak/internal/harness"
	"tvarak/internal/live"
	"tvarak/internal/param"
)

// Options configures a campaign run.
type Options struct {
	// Seed is the campaign seed; everything else is derived from it.
	Seed int64
	// N is the total number of injection specs per design, split across
	// the campaign apps (remainder to the first apps).
	N int
	// Workers bounds concurrent units (0 = NumCPU).
	Workers int
	// Apps restricts the campaign (default: all seven).
	Apps []string
	// Designs restricts the designs (default: Baseline and TVARAK — the
	// miss/detect contrast the paper's Table 4 argument rests on).
	Designs []param.Design
	// Async shapes every Vilamb-design unit's machine (epoch, dirty
	// granularity, battery/incremental); ignored for other designs. The
	// zero value is the classic Vilamb sketch, and leaves fingerprints
	// and unit keys identical to their pre-async forms.
	Async param.AsyncConfig
	// Shrink minimizes each failing unit's schedule after the campaign.
	Shrink bool
	// ShrinkBudget caps re-runs per shrunk unit (default 48).
	ShrinkBudget int
	// Progress, if non-nil, is called after each unit (serialized).
	Progress func(done, total int, u *UnitReport)
	// Context, when non-nil, cancels the campaign cooperatively: no new
	// unit starts once it is done, in-flight units unwind at their
	// engine's next phase boundary, finished units are kept, and the
	// report marks itself interrupted (nil slots stay in Units order).
	Context context.Context
	// Journal, when non-nil, checkpoints each finished unit durably under
	// a fingerprint of (seed, N, app, design); a resumed campaign (the
	// same journal reopened) restores journaled units instead of
	// re-simulating them. Units are deterministic, so a resumed report is
	// byte-identical to an uninterrupted one.
	Journal *harness.Journal
	// Live, when non-nil, streams unit lifecycle onto the /runs board and
	// folds each finished unit's armed/detected/recovered totals into the
	// tvarak_fault_* counters. Strictly read-only: reports are
	// byte-identical with or without it.
	Live *live.Telemetry
}

// Report is the complete campaign outcome.
type Report struct {
	Seed       int64    `json:"seed"`
	Injections int      `json:"injections"` // specs per design
	Apps       []string `json:"apps"`
	Designs    []string `json:"designs"`

	Units []*UnitReport `json:"units"`

	Fired             int `json:"fired"`
	SilentCorruptions int `json:"silentCorruptions"`
	Undetected        int `json:"undetected"`
	Unrecovered       int `json:"unrecovered"`
	AppPanics         int `json:"appPanics"`
	CrashPoints       int `json:"crashPoints"`
	Failures          int `json:"failures"`

	// Asynchronous-design totals (zero and absent unless Vilamb-family
	// units ran): injections absorbed inside an open epoch window, and
	// lines quarantined as detected-but-unrepairable.
	InWindowSilent   int    `json:"inWindowSilent,omitempty"`
	QuarantinedLines uint64 `json:"quarantinedLines,omitempty"`

	// Resumed counts units restored from a journal instead of re-run;
	// Interrupted counts unit slots left empty by cancellation. Both are
	// zero (and absent from the wire format) on a clean uninterrupted
	// run, preserving byte-determinism of historical reports.
	Resumed     int `json:"resumed,omitempty"`
	Interrupted int `json:"interrupted,omitempty"`
}

// normalized resolves the campaign's defaulted knobs: the app list, the
// design list, and the total injection count. Every consumer of the
// enumeration (Run, CampaignUnits, AssembleReport — and through them the
// fleet's gateway and workers) must agree on these, or fingerprints and
// report headers would diverge between a local and a distributed run.
func (opt Options) normalized() (apps []string, designs []param.Design, total int) {
	apps = opt.Apps
	if len(apps) == 0 {
		apps = AppNames()
	}
	designs = opt.Designs
	if len(designs) == 0 {
		designs = []param.Design{param.Baseline, param.Tvarak}
	}
	total = opt.N
	if total <= 0 {
		total = len(apps)
	}
	return apps, designs, total
}

// Scope identifies the campaign's shape for journal binding and the
// fleet's gateway/worker handshake: seed, total injections, app list, and
// — only when non-default, so historical scopes stay byte-identical — the
// design list and async configuration. A local `tvarak fault` journal and a
// gateway journal use the same string, so they are interchangeable.
func (opt Options) Scope() string {
	s := fmt.Sprintf("fault-campaign|seed=%d|n=%d|apps=%s",
		opt.Seed, opt.N, strings.Join(opt.Apps, ","))
	if len(opt.Designs) > 0 {
		var names []string
		for _, d := range opt.Designs {
			names = append(names, d.String())
		}
		s += "|designs=" + strings.Join(names, ",")
	}
	if !opt.Async.IsZero() {
		s += "|async=" + opt.Async.Label()
	}
	return s
}

// CampaignUnit is one enumerated unit of a campaign: the standalone
// re-entry parameters (RunSingleUnit replays it bit-identically anywhere),
// the campaign-level journal fingerprint, and the human label. The slice
// order from CampaignUnits (app-major, design-minor) IS the report order.
type CampaignUnit struct {
	Params UnitParams
	Fp     string
	Label  string
}

// CampaignUnits enumerates the campaign's units without running anything.
// It is the shared enumeration under Run and under the fleet's
// gateway/worker split: both sides derive the identical unit list (and
// fingerprints) from the same Options, so a lease's fingerprint
// cross-checks against an independently-enumerated unit.
func CampaignUnits(opt Options) ([]CampaignUnit, error) {
	apps, designs, total := opt.normalized()
	var units []CampaignUnit
	per, extra := total/len(apps), total%len(apps)
	for ai, name := range apps {
		if _, err := lookupApp(name); err != nil {
			return nil, err
		}
		n := per
		if ai < extra {
			n++
		}
		// Per-app seed: decorrelate apps while keeping the derivation
		// printable/reproducible from the campaign seed alone.
		seed := opt.Seed + int64(ai)*0x4f1bbcdcbfa53e0b
		for _, d := range designs {
			p := UnitParams{App: name, Design: d, Seed: seed, N: n}
			fp := fmt.Sprintf("fault-unit|seed=%d|n=%d|%s|%s",
				opt.Seed, total, name, d)
			if d == param.Vilamb && !opt.Async.IsZero() {
				p.EpochCyc = opt.Async.EpochCyc
				p.DirtyGran = opt.Async.DirtyGran.String()
				p.Battery = opt.Async.Battery
				p.Incremental = opt.Async.Incremental
				fp += "|async=" + opt.Async.Label()
			}
			units = append(units, CampaignUnit{
				Params: p,
				Fp:     fp,
				Label:  name + "/" + d.String(),
			})
		}
	}
	return units, nil
}

// AssembleReport folds per-unit reports (in CampaignUnits order; nil slots
// mark units that never ran) into the campaign Report, exactly as Run
// does: totals, failure summary error, optional shrinking of failing
// units, and the interrupted accounting. The fleet's gateway merges
// worker-produced unit reports through this, so a distributed campaign's
// JSONL is byte-identical to a local run's.
func AssembleReport(opt Options, units []CampaignUnit, reports []*UnitReport) (*Report, error) {
	apps, designs, total := opt.normalized()
	rep := &Report{Seed: opt.Seed, Injections: total, Apps: apps, Units: reports}
	for _, d := range designs {
		rep.Designs = append(rep.Designs, d.String())
	}
	var failed []string
	for i, u := range reports {
		if u == nil { // slot never ran: the campaign was cancelled
			rep.Interrupted++
			continue
		}
		rep.Fired += u.Fired
		rep.SilentCorruptions += u.SilentCorruptions
		rep.Undetected += u.Undetected
		rep.Unrecovered += u.Unrecovered
		rep.AppPanics += u.AppPanics
		rep.CrashPoints += u.CrashPoints
		rep.InWindowSilent += u.InWindowSilent
		rep.QuarantinedLines += u.QuarantinedLines
		if u.Failure != "" {
			rep.Failures++
			failed = append(failed, u.Label())
			if opt.Shrink {
				budget := opt.ShrinkBudget
				if budget <= 0 {
					budget = 48
				}
				p := units[i].Params
				app, err := lookupApp(p.App)
				if err != nil {
					return rep, err
				}
				plan := NewPlan(p.App, p.Seed, p.N)
				u.MinimalSpecs, u.ShrinkRuns = shrinkUnit(app, p.Design, plan, budget, p.AsyncCfg())
			}
		}
	}
	if len(failed) > 0 {
		return rep, fmt.Errorf("fault: %d campaign unit(s) failed: %s",
			len(failed), strings.Join(failed, ", "))
	}
	if rep.Interrupted > 0 {
		var cause error
		if opt.Context != nil {
			cause = context.Cause(opt.Context)
		}
		return rep, fmt.Errorf("fault: campaign interrupted, %d unit(s) not run: %w",
			rep.Interrupted, cause)
	}
	return rep, nil
}

// Run executes the campaign: one unit per (app, design), the same
// per-app plan hitting every design. Units are independent simulations,
// so they run across a worker pool; unit order in the report is fixed
// (app-major, design-minor) regardless of completion order. The returned
// error summarizes failed units — the full detail is in the report.
func Run(opt Options) (*Report, error) {
	units, err := CampaignUnits(opt)
	if err != nil {
		return nil, err
	}
	reports := make([]*UnitReport, len(units))
	var (
		mu      sync.Mutex
		done    int
		resumed int
	)
	if opt.Live != nil {
		opt.Live.Board.Begin("fault-campaign", len(units))
	}
	_ = harness.Runner{Workers: opt.Workers, Context: opt.Context}.ForEach(len(units), func(i int) error {
		var u *UnitReport
		if opt.Journal != nil {
			var ju UnitReport
			if opt.Journal.Lookup("unit", units[i].Fp, &ju) {
				u = &ju
				if opt.Live != nil {
					opt.Live.Runner.Restored.AddAt(i, 1)
					opt.Live.Board.CellRestored(i, units[i].Label, 0, 0)
				}
				mu.Lock()
				resumed++
				mu.Unlock()
			}
		}
		if u == nil {
			if opt.Live != nil {
				opt.Live.Runner.Started.AddAt(i, 1)
				opt.Live.Board.CellRunning(i, units[i].Label)
			}
			var err error
			u, err = RunSingleUnit(opt.Context, units[i].Params)
			if u == nil {
				// Interrupted mid-unit: the slot stays empty (counted as
				// Interrupted in the fold), nothing is journaled, and the
				// error stops the pool from starting further units.
				return err
			}
			if opt.Journal != nil {
				if err := opt.Journal.Record("unit", units[i].Fp, u); err != nil {
					return fmt.Errorf("fault: journaling unit %s: %w", u.Label(), err)
				}
			}
			if opt.Live != nil {
				// Executed units (not restored ones) fold their injection
				// outcomes into the process-wide fault counters: /metrics
				// reports the work this process actually performed.
				opt.Live.Fault.Armed.AddAt(i, uint64(u.Armed))
				opt.Live.Fault.Detected.AddAt(i, u.Detections)
				opt.Live.Fault.Recovered.AddAt(i, u.Recoveries)
				if u.Failure != "" {
					opt.Live.Runner.Failed.AddAt(i, 1)
					opt.Live.Board.CellFailed(i, units[i].Label, u.Failure, false)
				} else {
					opt.Live.Runner.Finished.AddAt(i, 1)
					opt.Live.Board.CellDone(i, 0, 0)
				}
			}
		}
		reports[i] = u
		if opt.Progress != nil {
			mu.Lock()
			done++
			opt.Progress(done, len(units), u)
			mu.Unlock()
		}
		return nil // unit failures live in the report, not the pool
	})

	rep, err := AssembleReport(opt, units, reports)
	rep.Resumed = resumed
	return rep, err
}
