// Package soak composes the repository's long-horizon confidence pieces —
// seeded fault campaigns with the shadow oracle (internal/fault), the
// crash-safe journal (internal/harness), and the live resource gates
// (internal/live) — into one continuous chaos-testing loop: an endless,
// deterministically-sampled stream of (app × design × fault-plan) units,
// periodic SIGKILL/resume cycles through a worker child process with
// byte-identity checks, and a cumulative fsync'd JSONL ledger that
// `tvarak soakcheck` turns into a verdict. A regression that only manifests
// after hours — a leaked goroutine, heap creep, a rare fault-schedule
// interleaving, a resume path that diverges — is exactly what this loop
// exists to catch early (see DESIGN.md §10).
package soak

import (
	"fmt"

	"tvarak/internal/fault"
	"tvarak/internal/param"
)

// Unit is one sampled soak unit: the stream index plus the fully-derived
// fault-campaign unit parameters. Units are a pure function of
// (master seed, index) — no global RNG, no clock — so any unit can be
// replayed in isolation (in-process, in a worker child, or by hand from a
// ledger line) and the stream enumerates identically at any parallelism.
type Unit struct {
	Index int
	fault.UnitParams
}

// Fingerprint is the journal/ledger identity of the unit within a soak
// run: master seed, stream index, and the unit's own parameters.
func (u Unit) Fingerprint(master int64) string {
	return fmt.Sprintf("soak|seed=%d|i=%d|%s", master, u.Index, u.Key())
}

// splitmix64 is the SplitMix64 mixer: a bijective avalanche function good
// enough to decorrelate adjacent indices into independent-looking draws.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// sampler axes. Tvarak is deliberately over-weighted: it is the design
// with hard detect-and-recover obligations, so most soak time should be
// spent where a miss is a failure. The rest of the axis keeps the
// baseline-class contrast (injections must be oracle-confirmed silent)
// and the time-dependent Vilamb/TxB software schemes in rotation.
var (
	samplerDesigns = []param.Design{
		param.Tvarak, param.Baseline, param.Tvarak, param.Vilamb,
		param.Tvarak, param.TxBObjectCsums, param.TxBPageCsums, param.Baseline,
	}
	// Async-family rotation for Vilamb draws: epoch 0 keeps the classic
	// single-point sketch (identical fingerprints to the pre-family
	// stream) in rotation alongside the swept epochs and granularities.
	samplerEpochs = []uint64{0, 2270, 22700, 227000}
	samplerGrans  = []param.DirtyGran{param.GranPage, param.GranLine, param.GranRange}
)

// SamplerOptions pins axes of the soak stream. The zero value is the full
// default stream. Both the supervisor and the chaos worker child must
// derive units from the same options — they travel across the re-exec
// boundary via EncodeSamplerArgs/RunWorkerArgs.
type SamplerOptions struct {
	// Designs restricts the design rotation to this set (preserving the
	// default rotation's relative weights). Empty = all designs.
	Designs []param.Design
	// Async, when non-nil, pins every Vilamb unit's async configuration
	// instead of rotating it through the sampler's epoch/granularity axes.
	Async *param.AsyncConfig
}

// designRotation is the (weight-preserving) design axis under opts.
func (o SamplerOptions) designRotation() []param.Design {
	if len(o.Designs) == 0 {
		return samplerDesigns
	}
	var rot []param.Design
	for _, d := range samplerDesigns {
		for _, want := range o.Designs {
			if d == want {
				rot = append(rot, d)
				break
			}
		}
	}
	if len(rot) == 0 {
		// Pinned designs outside the default rotation (or an all-filtered
		// set): rotate the pinned list directly.
		rot = o.Designs
	}
	return rot
}

// UnitAt derives soak unit index of the default stream seeded by master.
func UnitAt(master int64, index int) Unit {
	return UnitAtOpt(master, index, SamplerOptions{})
}

// UnitAtOpt derives soak unit index of the stream seeded by master under
// the given sampler options. It is pure: same (master, index, opts) — same
// unit, on any machine, in any process, regardless of what other indices
// were sampled or in what order.
func UnitAtOpt(master int64, index int, opts SamplerOptions) Unit {
	base := splitmix64(splitmix64(uint64(master)) ^ splitmix64(uint64(index)*0x9e3779b97f4a7c15))
	// Slot 2 is unused: renumbering the later slots would change every
	// unit of the stream (TestSamplerStreamStable pins it).
	draw := func(slot uint64) uint64 { return splitmix64(base + slot) }

	apps := fault.AppNames()
	rot := opts.designRotation()
	p := fault.UnitParams{
		App:    apps[draw(0)%uint64(len(apps))],
		Design: rot[draw(1)%uint64(len(rot))],
		// 6..13 injections: several rounds' worth, small enough that one
		// unit stays a sub-second replay target.
		N:    int(6 + draw(3)%8),
		Seed: int64(draw(4) &^ (1 << 63)), // non-negative, full 63-bit range
	}
	if p.Design == param.Vilamb {
		a := param.AsyncConfig{
			EpochCyc:    samplerEpochs[draw(5)%uint64(len(samplerEpochs))],
			DirtyGran:   samplerGrans[draw(6)%uint64(len(samplerGrans))],
			Incremental: draw(7)%4 == 1,
		}
		if draw(7)%4 == 0 {
			a = param.BatteryPreset(a.EpochCyc)
		}
		if opts.Async != nil {
			a = *opts.Async
		}
		if !a.IsZero() {
			p.EpochCyc = a.EpochCyc
			p.DirtyGran = a.DirtyGran.String()
			p.Battery = a.Battery
			p.Incremental = a.Incremental
		}
	}
	return Unit{Index: index, UnitParams: p}
}
