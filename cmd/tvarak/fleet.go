package main

// tvarak gateway distributes a sweep or fault campaign to `tvarak worker`
// processes under TTL leases, re-dispatches the units of vanished workers,
// dedups duplicate results by fingerprint, and merges in enumeration order,
// so its table, export and report are byte-identical to a local run of the
// same options (DESIGN.md §11; EXPERIMENTS.md "Fleet sweep").

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"sync"
	"time"

	"tvarak/internal/experiments"
	"tvarak/internal/fleet"
	"tvarak/internal/harness"
	"tvarak/internal/live"
	"tvarak/internal/obs"
)

type gatewayCmd struct {
	base
	job     jobFlags
	ops     *opsFlags
	journal *journalFlags

	listen, addrFile                string
	leaseTTL, redeliverBase         time.Duration
	maxDeliver                      int
	keepGoing                       bool
	report, metricsOut, summaryFile string
}

func newGateway() *gatewayCmd {
	c := &gatewayCmd{base: newBase("gateway")}
	fs := c.fs
	c.job.addSweep(fs)
	c.job.addCampaign(fs)
	c.job.addShape(fs)
	fs.StringVar(&c.job.apps, "apps", "", "comma-separated campaign applications (empty = all)")
	fs.StringVar(&c.report, "report", "", "write the merged campaign JSONL report to this path (- for stdout)")
	fs.StringVar(&c.listen, "listen", "127.0.0.1:7609", "control-plane listen address (use :0 for a free port)")
	fs.StringVar(&c.addrFile, "addr-file", "", "write the resolved listen address to this file (for scripts using -listen :0)")
	fs.DurationVar(&c.leaseTTL, "lease-ttl", 30*time.Second, "lease lifetime without a heartbeat before a unit is re-dispatched")
	fs.IntVar(&c.maxDeliver, "max-deliveries", 3, "leases granted per unit before it terminally fails")
	fs.DurationVar(&c.redeliverBase, "redeliver-backoff", 500*time.Millisecond, "base of the seeded-jitter exponential backoff before an expired or failed unit is re-dispatched")
	fs.BoolVar(&c.keepGoing, "keep-going", false, "complete the job past units whose redelivery is exhausted: render them as FAILED rows with a manifest, exit 1 at the end")
	fs.StringVar(&c.metricsOut, "metrics-out", "", "write the versioned machine-readable export to this path (CSV when it ends in .csv, JSON otherwise)")
	fs.StringVar(&c.summaryFile, "summary-file", "", "write the final dispatch summary (leases, expiries, redeliveries, duplicates, per-unit states) as JSON to this path")
	c.ops = addOpsFlags(fs)
	c.journal = addJournalFlags(fs)
	return c
}

func (c *gatewayCmd) run() {
	spec, err := c.job.spec()
	if err != nil {
		fatal(err)
	}
	if spec.Kind == "sweep" && spec.Experiment == "" {
		fatal(errors.New("-exp required (one experiment id per job; see tvarak sim -list)"))
	}
	plan, err := fleet.BuildPlan(spec)
	if err != nil {
		fatal(err)
	}
	lt := live.NewTelemetry()
	ops := c.ops.start(lt)
	// Bound to the plan's scope: resuming under different options (or a
	// skewed binary) fails naming both scopes instead of merging unrelated
	// results.
	journal, err := c.journal.open(plan.Scope())
	if err != nil {
		fatal(err)
	}
	if journal != nil {
		defer journal.Close()
	}
	g, err := fleet.NewGateway(fleet.GatewayConfig{
		Plan:          plan,
		Spec:          spec,
		LeaseTTL:      c.leaseTTL,
		MaxDeliveries: c.maxDeliver,
		Backoff:       harness.BackoffPolicy{Base: c.redeliverBase, Jitter: 0.5, Seed: uint64(spec.Seed) + 1},
		KeepGoing:     c.keepGoing,
		Journal:       journal,
		Live:          lt,
	})
	if err != nil {
		fatal(err)
	}

	ln, err := net.Listen("tcp", c.listen)
	if err != nil {
		fatal(err)
	}
	if c.addrFile != "" {
		if err := os.WriteFile(c.addrFile, []byte(ln.Addr().String()), 0o644); err != nil {
			fatal(err)
		}
	}
	srv := &http.Server{Handler: g.Handler()}
	go func() {
		if err := srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			warnf("control plane: %v", err)
		}
	}()
	warnf("serving %q (%d units, %d already done) on http://%s",
		plan.Scope(), plan.Units(), g.Status(false).Done, ln.Addr())

	// SIGINT/SIGTERM stop the job: accepted results are already durable in
	// the journal, so -resume picks up exactly where dispatch stopped.
	ctx, stopSignals := signalContext()
	defer stopSignals()
	payloads, failures, waitErr := g.Wait(ctx)
	interrupted := errors.Is(waitErr, context.Canceled)
	if !interrupted {
		// Let laggard workers poll once more and see StatusDone before the
		// socket goes away, so they exit clean instead of "unreachable".
		g.Drain(ctx)
	}
	srv.Close()

	if c.summaryFile != "" {
		data, err := json.MarshalIndent(g.Status(true), "", "  ")
		if err == nil {
			err = os.WriteFile(c.summaryFile, append(data, '\n'), 0o644)
		}
		if err != nil {
			fatal(err)
		}
	}
	closeOps(ops)
	if interrupted {
		warnf("interrupted — accepted results are durable; %s", c.journal.hint())
		os.Exit(130)
	}
	if waitErr != nil {
		fatal(waitErr)
	}

	if cp, ok := plan.(*fleet.CampaignPlan); ok {
		rep, err := cp.MergeReport(payloads)
		if rep != nil {
			if ferr := finishCampaign(rep, c.report); ferr != nil {
				fatal(ferr)
			}
		}
		if err != nil {
			fatal(err)
		}
		return
	}
	if err := c.mergeSweep(plan.(*fleet.SweepPlan), spec, payloads, failures); err != nil {
		fatal(err)
	}
}

// mergeSweep renders the merged table and export exactly like tvarak sim.
func (c *gatewayCmd) mergeSweep(sp *fleet.SweepPlan, spec fleet.JobSpec, payloads []json.RawMessage, failures map[int]string) error {
	tab, err := sp.MergeTable(sp.Title, payloads, failures, c.keepGoing)
	if err != nil {
		return err
	}
	e, err := experiments.Lookup(spec.Experiment)
	if err != nil {
		return err
	}
	// The `#` header line carries run info that byte-comparisons filter
	// (ci.sh strips `^# `), matching tvarak sim.
	fmt.Printf("# %s (%s) — merged from fleet\n", e.ID, e.Paper)
	fmt.Println(tab)
	figs := experiments.AsyncFigures(tab)
	for _, f := range figs {
		fmt.Println(f)
	}
	if c.metricsOut != "" {
		// Tool "tvarak-sim": the export must be byte-identical to a local
		// run of the same options.
		export := obs.NewExport("tvarak-sim")
		export.Runs = append(export.Runs, tab.ExportRuns(e.ID)...)
		export.Figures = append(export.Figures, figs...)
		if err := writeExport(export, c.metricsOut); err != nil {
			return err
		}
	}
	if m := tab.Manifest; m != nil && !m.Clean() {
		warnf("%s %s", e.ID, m)
		if len(m.Failures) > 0 {
			os.Exit(1)
		}
	}
	return nil
}

// tvarak worker executes units for a gateway: it fetches the job spec,
// re-derives the unit enumeration locally (any skew against the gateway's
// build surfaces as a handshake or fingerprint error), then leases units,
// runs them through the same paths a local run uses, and streams the
// results back as journal-format records, heartbeating its leases.
type workerCmd struct {
	base
	ops *opsFlags

	gateway, name  string
	slots, retries int
	acquireDelay   time.Duration
}

func newWorker() *workerCmd {
	c := &workerCmd{base: newBase("worker")}
	fs := c.fs
	fs.StringVar(&c.gateway, "gateway", "", "gateway control-plane base URL, e.g. http://host:7609 (required)")
	fs.StringVar(&c.name, "name", "", "worker name in leases and gateway status (default host:pid)")
	fs.IntVar(&c.slots, "slots", 1, "units run concurrently (each slot is an independent lease loop)")
	fs.IntVar(&c.retries, "retries", 0, "extra local attempts per sweep unit before reporting it failed to the gateway")
	fs.DurationVar(&c.acquireDelay, "acquire-delay", 0, "pause between lease grant and unit start (CI uses it to widen the kill window)")
	c.ops = addOpsFlags(fs)
	return c
}

func (c *workerCmd) run() {
	if c.gateway == "" {
		usageErr("-gateway required")
	}
	if c.slots < 1 {
		usageErr("-slots must be >= 1")
	}
	if c.name == "" {
		host, _ := os.Hostname()
		if host == "" {
			host = "worker"
		}
		c.name = fmt.Sprintf("%s:%d", host, os.Getpid())
	}
	lt := live.NewTelemetry()
	ops := c.ops.start(lt)
	ctx, stopSignals := signalContext()
	defer stopSignals()

	// Each slot is a full lease loop under its own name suffix; the
	// gateway hands them distinct units, so -slots N is N-way unit
	// parallelism without any coordination here.
	errs := make([]error, c.slots)
	var wg sync.WaitGroup
	for s := 0; s < c.slots; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			name := c.name
			if c.slots > 1 {
				name = fmt.Sprintf("%s/%d", c.name, s)
			}
			w := &fleet.Worker{
				Gateway:      c.gateway,
				Name:         name,
				Retries:      c.retries,
				AcquireDelay: c.acquireDelay,
				Backoff: harness.BackoffPolicy{
					Base: 50 * time.Millisecond, Max: 2 * time.Second, Jitter: 0.5,
					Seed: uint64(os.Getpid())*16 + uint64(s) + 1,
				},
				Live: lt,
			}
			errs[s] = w.Run(ctx)
		}(s)
	}
	wg.Wait()

	closeOps(ops)
	for _, err := range errs {
		if err == nil {
			continue
		}
		if errors.Is(err, context.Canceled) {
			warnf("interrupted — the gateway will re-dispatch any leased units")
			os.Exit(130)
		}
		fatal(err)
	}
	warnf("%s done", c.name)
}
