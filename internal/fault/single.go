package fault

import (
	"context"
	"fmt"

	"tvarak/internal/param"
)

// UnitParams identifies one self-contained campaign unit: a single
// (app, design) fault-injection run whose plan is derived from Seed and N
// exactly like a campaign's. It is the re-entry API the soak harness uses
// to replay any unit in isolation — in-process for a reference run, or on
// a fleet worker as the single unit of a one-unit campaign — with a report
// byte-identical to the same unit anywhere else.
type UnitParams struct {
	// App is a campaign application name (see AppNames).
	App string `json:"app"`
	// Design is the redundancy scheme the unit runs under. Tvarak units
	// must detect and recover every injection; every other design is
	// baseline-class — injections must be oracle-confirmed silent.
	Design param.Design `json:"design"`
	// Seed derives the unit's plan (injection specs and workload
	// schedules). Same (App, Design, Seed, N): byte-identical report.
	Seed int64 `json:"seed"`
	// N is the number of injection specs in the plan (0 = a clean unit:
	// warmup segment plus the end-of-unit oracle verification only).
	N int `json:"n"`

	// EpochCyc, DirtyGran, Battery and Incremental shape the async
	// (Vilamb family) configuration of the unit's machine; all-default
	// for every other design, and omitted from the wire format and Key
	// when default so historical units stay byte- and key-identical.
	EpochCyc    uint64 `json:"epochCyc,omitempty"`
	DirtyGran   string `json:"dirtyGran,omitempty"`
	Battery     bool   `json:"battery,omitempty"`
	Incremental bool   `json:"incremental,omitempty"`
}

// AsyncCfg assembles the unit's param.AsyncConfig from the flat fields.
// DirtyGran strings come from our own enumeration (CLI flags validate
// before building units); an unknown string falls back to page
// granularity, ParseDirtyGran's zero value.
func (p UnitParams) AsyncCfg() param.AsyncConfig {
	g, _ := param.ParseDirtyGran(p.DirtyGran)
	return param.AsyncConfig{
		EpochCyc:    p.EpochCyc,
		DirtyGran:   g,
		Battery:     p.Battery,
		Incremental: p.Incremental,
	}
}

// Key is the stable identity string used for journaling and ledger lines.
func (p UnitParams) Key() string {
	k := fmt.Sprintf("%s/%s|seed=%d|n=%d", p.App, p.Design, p.Seed, p.N)
	if a := p.AsyncCfg(); !a.IsZero() {
		k += "|async=" + a.Label()
	}
	return k
}

// RunSingleUnit executes one campaign unit to completion and returns its
// report. Unit failures (a design missing a corruption, an oracle
// divergence, a panic in the simulated machine) live in the report's
// Failure field; the returned error covers only unknown apps and
// cooperative cancellation (a cancelled unit has no report — a half-run
// unit would fail its sweeps for reasons that are the interruption's
// fault, not the design's).
func RunSingleUnit(ctx context.Context, p UnitParams) (*UnitReport, error) {
	spec, err := lookupApp(p.App)
	if err != nil {
		return nil, err
	}
	plan := NewPlan(p.App, p.Seed, p.N)
	rep := runUnit(ctx, spec, p.Design, plan, p.AsyncCfg())
	if rep == nil {
		return nil, context.Cause(ctx)
	}
	return rep, nil
}
