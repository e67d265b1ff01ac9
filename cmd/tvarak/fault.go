package main

// tvarak fault demonstrates the firmware-bug scenarios of Figs. 1-2: lost
// and misdirected writes and reads that device ECC misses, which TVARAK
// detects on read verification and recovers from cross-DIMM parity. With
// -campaign it runs the oracle-judged fault-injection campaign instead: -n
// seeded injections per design across all seven applications; the same
// -seed always yields a byte-identical -report (EXPERIMENTS.md).

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"

	"tvarak/internal/fault"
	"tvarak/internal/harness"
	"tvarak/internal/live"
	"tvarak/internal/obs"
	"tvarak/internal/param"
	"tvarak/internal/sim"
)

type faultCmd struct {
	base
	job     jobFlags
	ops     *opsFlags
	journal *journalFlags
	prof    *profFlags

	trace, report string
	workers       int
	shrink        bool
}

func newFault() *faultCmd {
	c := &faultCmd{base: newBase("fault")}
	fs := c.fs
	c.job.addCampaign(fs)
	c.job.addShape(fs)
	fs.StringVar(&c.trace, "trace", "", "write a JSONL event trace of every demo scenario to this path")
	fs.StringVar(&c.report, "report", "", "write the campaign's JSONL report to this path (- for stdout)")
	fs.IntVar(&c.workers, "workers", 0, "concurrent campaign units (0 = one per CPU)")
	fs.BoolVar(&c.shrink, "shrink", true, "minimize the injection schedule of any failing unit")
	c.prof = addProfFlags(fs)
	c.ops = addOpsFlags(fs)
	c.journal = addJournalFlags(fs)
	return c
}

func (c *faultCmd) run() {
	stopProf := c.prof.start()
	var lt *live.Telemetry
	if c.ops.enabled() {
		lt = live.NewTelemetry()
	}
	ops := c.ops.start(lt)
	var err error
	if c.job.campaign {
		err = c.campaign(lt)
	} else {
		err = demo(c.trace)
	}
	stopProf()
	closeOps(ops)
	if err != nil {
		warnf("%v", err)
		if errors.Is(err, context.Canceled) {
			os.Exit(130) // interrupted: artifacts flushed
		}
		os.Exit(1)
	}
}

func (c *faultCmd) campaign(lt *live.Telemetry) error {
	spec, err := c.job.spec()
	if err != nil {
		return err
	}
	opt, err := spec.CampaignOptions()
	if err != nil {
		return err
	}
	opt.Workers, opt.Shrink, opt.Live = c.workers, c.shrink, lt
	// The journal scope is the one the fleet's CampaignPlan uses, so a
	// gateway journal and a local one are interchangeable.
	journal, err := c.journal.open(opt.Scope())
	if err != nil {
		return err
	}
	if journal != nil {
		defer journal.Close()
		opt.Journal = journal
	}
	ctx, stopSignals := signalContext()
	defer stopSignals()
	opt.Context = ctx

	fmt.Printf("fault campaign: seed=%d injections=%d apps=%v\n", opt.Seed, opt.N, fault.AppNames())
	opt.Progress = func(done, total int, u *fault.UnitReport) {
		status := "ok"
		if u.Failure != "" {
			status = "FAIL: " + u.Failure
		}
		fmt.Printf("  [%2d/%d] %-16s fired=%-3d detected=%-3d recovered=%-3d silent=%-3d %s\n",
			done, total, u.Label(), u.Fired, u.Detections, u.Recoveries, u.SilentCorruptions, status)
	}
	rep, runErr := fault.Run(opt)
	if rep != nil {
		if err := finishCampaign(rep, c.report); err != nil {
			return err
		}
		if rep.Resumed > 0 {
			warnf("%d unit(s) restored from journal", rep.Resumed)
		}
		if rep.Interrupted > 0 {
			warnf("interrupted — %d unit(s) not run; %s", rep.Interrupted, c.journal.hint())
		}
	}
	return runErr
}

// demo runs the Fig. 1-2 firmware-bug scenarios on one TVARAK machine.
func demo(traceOut string) error {
	sys, err := harness.NewSystem(param.ReproScale(param.Tvarak))
	if err != nil {
		return err
	}
	eng := sys.Eng
	if traceOut != "" {
		f, err := os.Create(traceOut)
		if err != nil {
			return err
		}
		defer f.Close()
		tr := obs.NewJSONL(f, 0)
		defer tr.Close()
		eng.Tracer = tr
	}
	dm, err := sys.NewMapping("victim", 1<<20)
	if err != nil {
		return err
	}
	sys.Ctrl.CorruptionHook = func(addr uint64) {
		fmt.Printf("    TVARAK: checksum mismatch at %#x — recovering from cross-DIMM parity\n", addr)
	}
	on := func(f func(c *sim.Core)) { eng.Run([]func(*sim.Core){f}) }

	scenarios := []struct {
		name   string
		inject func(addr uint64)
		off    uint64
		fill   byte
	}{
		{"lost write (Fig. 1)", func(a uint64) { eng.NVM.InjectLostWrite(a) }, 64 * 100, 0x22},
		{"misdirected write (Fig. 2)", func(a uint64) { eng.NVM.InjectMisdirectedWrite(a, dm.Addr(64*500)&^63) }, 64 * 200, 0x33},
		{"misdirected read", func(a uint64) { eng.NVM.InjectMisdirectedRead(a, dm.Addr(64*600)&^63) }, 64 * 300, 0x44},
	}
	for _, sc := range scenarios {
		fmt.Printf("== %s ==\n", sc.name)
		want := bytes.Repeat([]byte{sc.fill}, 64)
		// Flush so the next write reaches the device, then arm the bug.
		on(func(c *sim.Core) { dm.Store(c, sc.off, bytes.Repeat([]byte{0x11}, 64)) })
		eng.DropCaches()
		sc.inject(dm.Addr(sc.off) &^ 63)
		on(func(c *sim.Core) { dm.Store(c, sc.off, want) })
		if eng.NVM.PendingBugs() != 0 {
			return fmt.Errorf("injected bug did not fire")
		}
		fmt.Printf("    device ECC errors: %d (firmware bugs are invisible to device ECC)\n", eng.St.ECCErrors)
		eng.DropCaches()
		got := make([]byte, 64)
		on(func(c *sim.Core) { dm.Load(c, sc.off, got) })
		if !bytes.Equal(got, want) {
			return fmt.Errorf("recovered data wrong")
		}
		fmt.Printf("    read returned correct data; detections=%d recoveries=%d\n\n",
			eng.St.CorruptionsDetected, eng.St.Recoveries)
	}

	fmt.Println("== media corruption (bit flip) — caught by device ECC, not TVARAK ==")
	before := eng.St.ECCErrors
	addr := dm.Addr(64*700) &^ 63
	on(func(c *sim.Core) { dm.Store(c, 64*700, bytes.Repeat([]byte{0x55}, 64)) })
	eng.DropCaches()
	eng.NVM.FlipBit(addr+5, 2)
	on(func(c *sim.Core) { dm.Load(c, 64*700, make([]byte, 64)) })
	fmt.Printf("    device ECC errors: %d (was %d)\n", eng.St.ECCErrors, before)
	fmt.Println("\nall scenarios detected and recovered")
	return nil
}
