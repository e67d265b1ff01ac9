package main

// tvarak sim runs the paper's experiments and prints Fig. 8-style tables,
// one per experiment id (`tvarak sim -list`; DESIGN.md §3). Tables are
// byte-identical at any -parallel. -metrics-out writes the versioned export
// and -compare diffs two of them. SIGINT/SIGTERM stop at the next phase
// boundary, flush every artifact and exit 130; -journal makes the run
// resumable byte-identically (DESIGN.md §7). EXPERIMENTS.md has recipes.

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"tvarak/internal/experiments"
	"tvarak/internal/live"
	"tvarak/internal/obs"
)

type simCmd struct {
	base
	job     jobFlags
	ops     *opsFlags
	journal *journalFlags
	prof    *profFlags

	list, jsonOut, progress, keepGoing bool
	parallel, retries                  int
	cellTimeout                        time.Duration
	metricsOut, trace                  string
	compare, validate                  string
	tolerance                          float64
}

func newSim() *simCmd {
	c := &simCmd{base: newBase("sim")}
	fs := c.fs
	c.job.addSweep(fs)
	c.job.addShape(fs)
	fs.BoolVar(&c.list, "list", false, "list experiment ids")
	fs.BoolVar(&c.jsonOut, "json", false, "emit one JSON object per run instead of tables")
	fs.IntVar(&c.parallel, "parallel", runtime.NumCPU(), "max simulation cells running concurrently (1 = sequential; tables are identical at any level)")
	fs.BoolVar(&c.progress, "progress", false, "print per-cell completion, timing and live counters to stderr as cells finish")
	fs.StringVar(&c.metricsOut, "metrics-out", "", "write the versioned machine-readable export to this path (CSV when it ends in .csv, JSON otherwise)")
	fs.StringVar(&c.trace, "trace", "", "write a JSONL event trace of every cell's measured run to this path (use -parallel 1 for a deterministic event order)")
	fs.StringVar(&c.compare, "compare", "", "compare two metric exports, given as old.json,new.json; exits 1 on any delta beyond -tolerance")
	fs.Float64Var(&c.tolerance, "tolerance", 0, "relative per-metric tolerance for -compare (0 = exact)")
	fs.StringVar(&c.validate, "validate", "", "read a metrics export, validate its schema version, and print a summary")
	fs.DurationVar(&c.cellTimeout, "cell-timeout", 0, "wall-clock bound per simulation cell; a cell exceeding it is marked hung (goroutine dump in the journal) and its worker is released")
	fs.IntVar(&c.retries, "retries", 0, "extra attempts for a failing cell before it counts as failed")
	fs.BoolVar(&c.keepGoing, "keep-going", false, "do not abort on failed cells: render them as FAILED holes, report them in the manifest, exit 1 at the end")
	c.prof = addProfFlags(fs)
	c.ops = addOpsFlags(fs)
	c.journal = addJournalFlags(fs)
	return c
}

// scope binds the journal to the options that shape the run's cells. The
// string is the journal format: it stays "tvarak-sim|..." so journals
// from earlier builds keep resuming.
func (c *simCmd) scope(o experiments.Options) string {
	s := fmt.Sprintf("tvarak-sim|exp=%s|scale=%g|full=%t|designs=%s",
		c.job.raw.Experiment, o.Scale, o.FullScale, c.job.designs)
	if !o.Async.IsZero() {
		s += "|async=" + o.Async.Label()
	}
	return s
}

func (c *simCmd) run() {
	switch exp := c.job.raw.Experiment; {
	case c.list:
		for _, e := range experiments.Experiments() {
			fmt.Printf("%-14s %s\n", e.ID, e.Paper)
		}
		fmt.Printf("%-14s %s\n", "table1", "Table I: design trade-off matrix (qualitative)")
		return
	case c.compare != "":
		runCompare(c.compare, c.tolerance)
		return
	case c.validate != "":
		runValidate(c.validate)
		return
	case exp == "":
		usageErr("-exp required (try -list)")
	case exp == "table1":
		fmt.Print(tableOne)
		return
	}
	spec, err := c.job.spec()
	if err != nil {
		fatal(err)
	}
	opts, err := spec.ExperimentOptions()
	if err != nil {
		fatal(err)
	}
	stopProf := c.prof.start()
	ctx, stopSignals := signalContext()
	defer stopSignals()
	opts.Parallel, opts.Context = c.parallel, ctx
	opts.CellTimeout, opts.Retries, opts.Degrade = c.cellTimeout, c.retries, c.keepGoing

	// Live telemetry backs both -ops-addr and -progress: the renderer and
	// /runs read the same board, so they can never disagree. It is
	// read-only: tables and exports stay byte-identical (DESIGN.md §9).
	var lt *live.Telemetry
	if c.ops.enabled() || c.progress {
		lt = live.NewTelemetry()
		opts.Live = lt
	}
	ops := c.ops.start(lt)
	journal, err := c.journal.open(c.scope(opts))
	if err != nil {
		fatal(err)
	}
	if journal != nil {
		defer journal.Close()
		opts.Journal = journal
	}
	var tracer *obs.JSONL
	if c.trace != "" {
		f, err := os.Create(c.trace)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		tracer = obs.NewJSONL(f, 0)
		opts.Tracer = tracer
		if lt != nil {
			lt.TraceGauges(tracer.Written, tracer.Dropped)
		}
	}
	if c.progress {
		lt.Board.Notify = printCellProgress
	}

	var ids []string
	if spec.Experiment == "all" {
		for _, e := range experiments.Experiments() {
			ids = append(ids, e.ID)
		}
	} else {
		ids = strings.Split(spec.Experiment, ",")
	}
	export := obs.NewExport("tvarak-sim")
	cancelled, anyFailed := false, false
	for _, id := range ids {
		e, err := experiments.Lookup(strings.TrimSpace(id))
		if err != nil {
			fatal(err)
		}
		start := time.Now()
		tab, err := e.Run(opts)
		if err != nil {
			fatal(err)
		}
		export.Runs = append(export.Runs, tab.ExportRuns(e.ID)...)
		figs := experiments.AsyncFigures(tab)
		export.Figures = append(export.Figures, figs...)
		if c.jsonOut {
			enc := json.NewEncoder(os.Stdout)
			for _, r := range tab.Results {
				if r.Failed() {
					continue
				}
				row := map[string]any{
					"experiment": e.ID,
					"workload":   r.Workload,
					"design":     r.Design.String(),
					"variant":    r.Variant,
					"cycles":     r.Stats.Cycles,
					"energyPJ":   r.Stats.EnergyPJ,
					"overhead":   tab.Overhead(r),
					"nvm":        r.Stats.NVM,
					"cacheTotal": r.Stats.CacheTotal(),
				}
				if err := enc.Encode(row); err != nil {
					fatal(err)
				}
			}
		} else {
			fmt.Printf("# %s (%s) — simulated in %v\n", e.ID, e.Paper, time.Since(start).Round(time.Millisecond))
			fmt.Println(tab)
			for _, f := range figs {
				fmt.Println(f)
			}
		}
		if m := tab.Manifest; m != nil && !m.Clean() {
			warnf("%s %s", e.ID, m)
			anyFailed = anyFailed || len(m.Failures) > 0
			cancelled = cancelled || m.Cancelled
		}
		if cancelled {
			break // flush what completed; remaining experiments were not started
		}
	}

	// Flush every artifact before deciding the exit code: an interrupted
	// run's value is exactly its partial results.
	if tracer != nil {
		if err := tracer.Close(); err != nil {
			fatal(err)
		}
		if d := tracer.Dropped(); d > 0 {
			warnf("trace bound hit, %d event(s) dropped", d)
		}
	}
	if c.metricsOut != "" {
		if err := writeExport(export, c.metricsOut); err != nil {
			fatal(err)
		}
	}
	stopProf()
	closeOps(ops)
	if cancelled {
		if journal != nil {
			journal.Close()
		}
		warnf("interrupted — partial results flushed; %s", c.journal.hint())
		os.Exit(130)
	}
	if anyFailed {
		os.Exit(1)
	}
}

// printCellProgress renders -progress from the run board — the state /runs
// serves — so interactive output and the ops endpoint share one source.
func printCellProgress(e live.CellEntry, done, total int) {
	switch {
	case e.State == live.StateFailed:
		fmt.Fprintf(os.Stderr, "  [%3d/%3d] %-28s FAILED: %s\n", done, total, e.Label, e.Err)
	case e.FromJournal:
		fmt.Fprintf(os.Stderr, "  [%3d/%3d] %-28s restored  cyc=%d acc=%d\n",
			done, total, e.Label, e.Cycles, e.Accesses)
	default:
		el := time.Duration(e.ElapsedMS) * time.Millisecond
		fmt.Fprintf(os.Stderr, "  [%3d/%3d] %-28s %8v  cyc=%d acc=%d thr=%.0f/s\n",
			done, total, e.Label, el.Round(time.Millisecond), e.Cycles, e.Accesses, e.AccessesPerSec)
	}
}

// runCompare diffs two exports ("old.json,new.json") and exits 1 when they
// differ beyond the tolerance.
func runCompare(spec string, tol float64) {
	parts := strings.Split(spec, ",")
	if len(parts) != 2 {
		usageErr("-compare wants two paths: old.json,new.json")
	}
	old, err := readExport(strings.TrimSpace(parts[0]))
	if err != nil {
		fatal(err)
	}
	cur, err := readExport(strings.TrimSpace(parts[1]))
	if err != nil {
		fatal(err)
	}
	rep := obs.Compare(old, cur, tol)
	fmt.Print(rep)
	if !rep.Clean() {
		os.Exit(1)
	}
}

// runValidate checks an export's schema version and prints a summary.
func runValidate(path string) {
	x, err := readExport(path)
	if err != nil {
		fatal(err)
	}
	samples := 0
	for i := range x.Runs {
		samples += len(x.Runs[i].Series)
	}
	fmt.Printf("%s: schema v%d, %d run(s), %d series sample(s)\n", path, x.Schema, len(x.Runs), samples)
}

func readExport(path string) (*obs.Export, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return obs.ReadJSON(f)
}

// tableOne reproduces Table I: trade-offs among TVARAK and previous DAX NVM
// storage redundancy designs.
const tableOne = `Table I: trade-offs among TVARAK and previous DAX NVM storage redundancy designs

design                       csum granularity  csum/parity update (DAX)   csum verification (DAX)     perf overhead
---------------------------  ----------------  -------------------------  --------------------------  -------------
Nova-Fortis / Plexistore     (+) page          (-) no updates             (-) no verification         (+) none
Mojim / HotPot (+csums)      (+) page          (+) on application flush   (~) background scrubbing    (-) very high
Pangolin (TxB-Object-Csums)  (~) object        (+) on application flush   (+) on NVM-to-DRAM copy     (~) moderate-high
Vilamb                       (+) page          (~) periodically           (~) background scrubbing    (~) configurable
TVARAK                       (+) page*         (+) on LLC-to-NVM write    (+) on NVM-to-LLC read      (+) low

* page-granular system-checksums at rest; cache-line-granular DAX-CL-checksums while data is mapped.
This reproduction implements the Mojim/HotPot-style scheme as TxB-Page-Csums, Pangolin-style as
TxB-Object-Csums, the Nova-Fortis-style fs path as daxfs.ReadAt/WriteAt verification, background
scrubbing as daxfs.Scrub, and TVARAK as the internal/core controller.
`
