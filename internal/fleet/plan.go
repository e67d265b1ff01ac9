package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"

	"tvarak/internal/experiments"
	"tvarak/internal/fault"
	"tvarak/internal/harness"
	"tvarak/internal/live"
	"tvarak/internal/param"
)

// Plan is a job's unit enumeration, derived deterministically from a
// JobSpec: the gateway and every worker build their own Plan from the same
// spec, and the whole protocol rests on the enumerations agreeing — unit
// i's fingerprint is cross-checked on both sides of every lease. RunUnit
// is only ever called on workers; the gateway uses the enumeration and
// the merge helpers.
type Plan interface {
	// Scope identifies the job: the experiment/campaign id plus every
	// option that shapes its units. It namespaces fingerprints, binds the
	// gateway's journal, and anchors the join handshake.
	Scope() string
	// Units is the number of units in the job.
	Units() int
	// Fingerprint is unit i's stable identity within the scope.
	Fingerprint(i int) string
	// Label names unit i for status output and failure manifests.
	Label(i int) string
	// RunUnit executes unit i and returns its result payload — the exact
	// JSON a local run would journal for the unit. A nil error with
	// deterministic payload bytes is the contract the dedup cross-check
	// relies on.
	RunUnit(ctx context.Context, i int) (json.RawMessage, error)
}

// BuildPlan derives the Plan a JobSpec declares. Both the gateway CLI and
// the worker call it, each on their own binary — any skew in the
// experiments registry, option handling, or unit enumeration between the
// two builds surfaces as a scope or fingerprint mismatch, never as a
// silently-wrong merged table.
func BuildPlan(spec JobSpec) (Plan, error) {
	switch spec.Kind {
	case "sweep":
		o, err := spec.ExperimentOptions()
		if err != nil {
			return nil, err
		}
		exp, err := experiments.Lookup(spec.Experiment)
		if err != nil {
			return nil, err
		}
		cells := exp.Cells(o)
		if len(cells) == 0 {
			return nil, fmt.Errorf("fleet: experiment %q enumerates no cells", spec.Experiment)
		}
		for i := range cells {
			cells[i].SampleEvery = spec.SampleEvery
		}
		p := NewSweepPlan(o.Scope(spec.Experiment), cells)
		p.Title = exp.Title
		return p, nil
	case "campaign":
		opt, err := spec.CampaignOptions()
		if err != nil {
			return nil, err
		}
		return NewCampaignPlan(opt)
	default:
		return nil, fmt.Errorf("fleet: unknown job kind %q (want sweep or campaign)", spec.Kind)
	}
}

// ExperimentOptions derives the experiments.Options that shape a sweep
// spec's cells. BuildPlan and the local sweep CLI both start from it, so a
// fleet run and a local run of one spec enumerate the same cells.
func (spec JobSpec) ExperimentOptions() (experiments.Options, error) {
	designs, async, err := spec.shape()
	return experiments.Options{
		Scale:       spec.Scale,
		FullScale:   spec.FullScale,
		Designs:     designs,
		SampleEvery: spec.SampleEvery,
		Async:       async,
	}, err
}

// CampaignOptions derives the fault.Options that shape a campaign spec's
// units, for BuildPlan and the local campaign CLI alike.
func (spec JobSpec) CampaignOptions() (fault.Options, error) {
	designs, async, err := spec.shape()
	return fault.Options{Seed: spec.Seed, N: spec.N, Apps: spec.Apps,
		Designs: designs, Async: async}, err
}

// shape resolves the spec's design names and async fields, rejecting
// unknown ones before any unit is enumerated.
func (spec JobSpec) shape() ([]param.Design, param.AsyncConfig, error) {
	designs, err := param.ParseDesigns(strings.Join(spec.Designs, ","))
	if err != nil {
		return nil, param.AsyncConfig{}, err
	}
	async, err := param.ParseAsync(spec.EpochCyc, spec.DirtyGran, spec.Battery, spec.Incremental)
	return designs, async, err
}

// SweepPlan distributes harness cells: unit i is cells[i], its payload is
// the harness.Result JSON a local journal holds under "cell". Tests build
// one directly over toy cells; the CLI builds one from a JobSpec via
// BuildPlan.
type SweepPlan struct {
	scope string
	cells []harness.Cell
	// Title is the experiment's table title (set by BuildPlan); merging
	// under it keeps fleet output byte-identical to a local run's.
	Title string
	// Retries grants each worker-side attempt loop extra tries before the
	// unit is reported failed (the gateway's redelivery then takes over).
	Retries int
	// Live, when non-nil, streams the worker-side runner/engine telemetry
	// of each unit (read-only; results are unaffected).
	Live *live.Telemetry
}

// NewSweepPlan wraps an already-enumerated cell list under a scope.
func NewSweepPlan(scope string, cells []harness.Cell) *SweepPlan {
	return &SweepPlan{scope: scope, cells: cells}
}

// Cells exposes the plan's enumeration for merge-side placeholder rows.
func (p *SweepPlan) Cells() []harness.Cell { return p.cells }

func (p *SweepPlan) Scope() string            { return p.scope }
func (p *SweepPlan) Units() int               { return len(p.cells) }
func (p *SweepPlan) Fingerprint(i int) string { return p.cells[i].Fingerprint(p.scope) }
func (p *SweepPlan) Label(i int) string       { return harness.CellLabel(p.cells[i], i) }

// RunUnit simulates cell i and returns its Result as JSON.
func (p *SweepPlan) RunUnit(ctx context.Context, i int) (json.RawMessage, error) {
	rn := harness.Runner{Workers: 1, Context: ctx, Retries: p.Retries, Live: p.Live}
	rs, man, err := rn.RunManifest([]harness.Cell{p.cells[i]})
	if err != nil {
		return nil, err
	}
	if man.Cancelled {
		return nil, context.Cause(ctx)
	}
	if len(rs) != 1 || rs[0] == nil {
		if len(man.Failures) > 0 {
			return nil, fmt.Errorf("fleet: unit %d (%s) failed: %s", i, man.Failures[0].Label, man.Failures[0].Err)
		}
		return nil, fmt.Errorf("fleet: unit %d produced no result", i)
	}
	return json.Marshal(rs[0])
}

// MergeTable assembles the sweep's table from accepted payloads, in
// enumeration order — byte-identical to a local run's. failures maps unit
// index to the terminal failure message of units whose redelivery was
// exhausted; under keepGoing they render as the same explicit FAILED rows
// a local Degrade run produces, otherwise any failure is an error.
func (p *SweepPlan) MergeTable(title string, payloads []json.RawMessage, failures map[int]string, keepGoing bool) (*harness.Table, error) {
	if len(payloads) != len(p.cells) {
		return nil, fmt.Errorf("fleet: merge got %d payloads for %d units", len(payloads), len(p.cells))
	}
	man := &harness.Manifest{Total: len(p.cells)}
	t := &harness.Table{Title: title, Manifest: man}
	for i, data := range payloads {
		if data == nil {
			msg, failed := failures[i]
			if !failed {
				return nil, fmt.Errorf("fleet: unit %d (%s) has neither result nor failure", i, p.Label(i))
			}
			if !keepGoing {
				return nil, fmt.Errorf("fleet: unit %d (%s) failed: %s", i, p.Label(i), msg)
			}
			fail := harness.CellFailure{Index: i, Label: p.Label(i), Err: msg}
			man.Failures = append(man.Failures, fail)
			t.Add(harness.FailureResult(p.cells[i], i, &fail))
			continue
		}
		var r harness.Result
		if err := json.Unmarshal(data, &r); err != nil {
			return nil, fmt.Errorf("fleet: unit %d result does not decode: %w", i, err)
		}
		man.Completed++
		t.Add(&r)
	}
	return t, nil
}

// CampaignPlan distributes fault-campaign units: the enumeration is
// fault.CampaignUnits — identical to a local fault.Run — and each unit's
// payload is its UnitReport JSON.
type CampaignPlan struct {
	opt   fault.Options
	units []fault.CampaignUnit
}

// NewCampaignPlan enumerates the campaign opt declares.
func NewCampaignPlan(opt fault.Options) (*CampaignPlan, error) {
	units, err := fault.CampaignUnits(opt)
	if err != nil {
		return nil, err
	}
	return &CampaignPlan{opt: opt, units: units}, nil
}

func (p *CampaignPlan) Scope() string            { return p.opt.Scope() }
func (p *CampaignPlan) Units() int               { return len(p.units) }
func (p *CampaignPlan) Fingerprint(i int) string { return p.units[i].Fp }
func (p *CampaignPlan) Label(i int) string       { return p.units[i].Label }

// RunUnit replays campaign unit i via the standalone re-entry API and
// returns its report as JSON. Design failures (a missed corruption) live
// inside the report and are delivered as results — the gateway must see
// them to fold the campaign verdict, and re-running would not change them.
func (p *CampaignPlan) RunUnit(ctx context.Context, i int) (json.RawMessage, error) {
	rep, err := fault.RunSingleUnit(ctx, p.units[i].Params)
	if err != nil {
		return nil, err
	}
	return json.Marshal(rep)
}

// MergeReport folds accepted unit reports, in enumeration order, into the
// campaign Report via the same AssembleReport a local run uses, so
// fault.WriteJSONL of the merged report is byte-identical to a local
// campaign's. Units with a terminal dispatch failure stay nil slots; like
// a cancelled local campaign they surface as Interrupted in the fold.
func (p *CampaignPlan) MergeReport(payloads []json.RawMessage) (*fault.Report, error) {
	if len(payloads) != len(p.units) {
		return nil, fmt.Errorf("fleet: merge got %d payloads for %d units", len(payloads), len(p.units))
	}
	reports := make([]*fault.UnitReport, len(p.units))
	for i, data := range payloads {
		if data == nil {
			continue
		}
		var u fault.UnitReport
		if err := json.Unmarshal(data, &u); err != nil {
			return nil, fmt.Errorf("fleet: unit %d report does not decode: %w", i, err)
		}
		reports[i] = &u
	}
	return fault.AssembleReport(p.opt, p.units, reports)
}
