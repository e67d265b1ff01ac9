package main

import (
	"context"
	"encoding/json"
	"fmt"
	"time"

	"tvarak/internal/fault"
	"tvarak/internal/harness"
	"tvarak/internal/param"
)

// faultCampaigns is how many seven-app campaigns one pass injects.
// faultSpecsPerApp is how many injection specs each unit's plan holds: 16,
// in two rounds of eight, as in the default tvarak-fault campaign (-n 112
// over seven apps).
const (
	faultCampaigns   = 3
	faultSpecsPerApp = 16
)

var faultDesigns = []param.Design{param.Baseline, param.Tvarak}

// faultPass runs one clean unit (N=0) per (app, design), whose summed time
// is the set-up floor every injected unit pays, then faultCampaigns
// campaigns of injected units, each judged by the shadow oracle. Nothing is
// attached to a unit, instrumented or not: its build is timed apart, by
// faultBuilds.
func faultPass(seed int64, _ bool) pass {
	return runFault(seed, faultCampaigns)
}

func runFault(seed int64, campaigns int) pass {
	p := pass{layer: map[string]float64{}}
	apps := fault.AppNames()
	for ai, a := range apps {
		for _, d := range faultDesigns {
			up := fault.UnitParams{App: a, Design: d, Seed: appSeed(seed, 100+ai), N: 0}
			t0 := time.Now()
			rep, err := fault.RunSingleUnit(context.Background(), up)
			dt := time.Since(t0)
			p.attempted++
			p.wall += dt
			p.setup += dt
			if f := unitFailure(rep, err); f != "" {
				p.failures = append(p.failures, fmt.Sprintf("clean %s/%s: %s", a, d, f))
			}
		}
	}
	perDesign := map[string][]float64{}
	silent, armed, fired, detections, recoveries, phaseChecks := 0, 0, 0, uint64(0), uint64(0), uint64(0)
	for k := 0; k < campaigns; k++ {
		units, err := fault.CampaignUnits(fault.Options{
			Seed: appSeed(seed, 200+k), N: faultSpecsPerApp * len(apps), Designs: faultDesigns,
		})
		if err != nil {
			p.failures = append(p.failures, err.Error())
			continue
		}
		for _, u := range units {
			t0 := time.Now()
			rep, err := fault.RunSingleUnit(context.Background(), u.Params)
			dt := time.Since(t0)
			p.attempted++
			p.wall += dt
			p.items = append(p.items, dt)
			if f := unitFailure(rep, err); f != "" {
				p.failures = append(p.failures, fmt.Sprintf("%s: %s", u.Label, f))
				p.digests = append(p.digests, "failed")
				continue
			}
			b, err := json.Marshal(rep)
			if err != nil {
				p.failures = append(p.failures, err.Error())
			}
			p.digests = append(p.digests, shortHash(string(b)))
			perDesign[designKey(u.Params.Design)] = append(perDesign[designKey(u.Params.Design)], ms(dt))
			silent += rep.SilentCorruptions
			armed += rep.Armed
			fired += rep.Fired
			detections += rep.Detections
			recoveries += rep.Recoveries
			phaseChecks += rep.PhaseChecks
		}
	}
	// Baseline has no redundancy: across the workload, injections must
	// corrupt data silently, or the campaign is not exercising anything.
	if silent == 0 {
		p.failures = append(p.failures, "no silent corruption under Baseline")
	}
	l := p.layer
	for k, xs := range perDesign {
		l["fault.unit_ms."+k] = median(xs)
	}
	l["fault.armed"] = float64(armed)
	l["fault.detections"] = float64(detections)
	l["fault.recoveries"] = float64(recoveries)
	l["fault.silent"] = float64(silent)
	if armed > 0 {
		l["fault.fired_frac"] = float64(fired) / float64(armed)
	}
	l["oracle.phase_checks"] = float64(phaseChecks)
	return p
}

// faultBuilds times the machine build every unit pays inside
// RunSingleUnit, which no span outside the unit can separate: one
// NewSystem per design, scaled by the pass's units of that design. It runs
// after an instrumented pass, outside the pass's profile and
// garbage-collector counters, so those describe only what users' units do.
func faultBuilds(p *pass) {
	n := p.attempted / len(faultDesigns)
	var buildNs time.Duration
	var buildAlloc uint64
	for _, d := range faultDesigns {
		a0 := heapAllocBytes()
		t0 := time.Now()
		if _, err := harness.NewSystem(param.SmallTest(d)); err != nil {
			p.failures = append(p.failures, err.Error())
		}
		buildNs += time.Since(t0) * time.Duration(n)
		buildAlloc += (heapAllocBytes() - a0) * uint64(n)
	}
	p.layer["harness.build_ms"] = ms(buildNs)
	p.layer["harness.build_alloc_mb"] = float64(buildAlloc) / (1 << 20)
}

// unitFailure judges one unit: its own verdict, plus TVARAK's promise that
// every injection is detected and recovered.
func unitFailure(rep *fault.UnitReport, err error) string {
	switch {
	case err != nil:
		return err.Error()
	case rep.Failure != "":
		return rep.Failure
	case rep.Design == param.Tvarak.String() && (rep.Undetected != 0 || rep.Unrecovered != 0):
		return fmt.Sprintf("undetected %d, unrecovered %d under TVARAK", rep.Undetected, rep.Unrecovered)
	}
	return ""
}
