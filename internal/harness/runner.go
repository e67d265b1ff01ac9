package harness

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"tvarak/internal/live"
	"tvarak/internal/obs"
	"tvarak/internal/param"
)

// Cell is one independent unit of an experiment: a machine configuration
// plus a workload factory. Every cell simulates on its own fresh System
// (see Run), so cells share no mutable state and a Runner may execute them
// in any order — or concurrently — without changing their results.
type Cell struct {
	// Config is the machine this cell simulates. Each cell must own its
	// Config: builders that mutate one (feature ablations, way sweeps,
	// DIMM sweeps) allocate a fresh Config per cell.
	Config *param.Config
	// Make builds the workload. It is called inside the executing worker
	// (and, when journaling, once more to fingerprint the cell), so
	// factories must not capture shared mutable state; capturing
	// configuration values and deterministic seeds is fine.
	Make func() Workload
	// Variant labels sub-configurations within a design (Fig. 9 ablation
	// points, Fig. 10 way counts); it is copied onto the Result.
	Variant string
	// Rename, if non-nil, rewrites the result's workload label after the
	// run (the §IV-H sweeps suffix the DIMM count or NVM technology so
	// each parameter point gets its own baseline row).
	Rename func(workload string) string
	// SampleEvery, when non-zero, samples the cell's measured run into an
	// epoch time series (see Observation).
	SampleEvery uint64
	// Tracer, when non-nil, receives the cell's measured simulation
	// events. A tracer shared across cells must be safe for concurrent
	// Trace calls (obs.JSONL is); each cell's events are stamped with its
	// workload/design/variant label.
	Tracer obs.Tracer

	// live and index are set by the Runner when live telemetry is
	// attached: the cell reports its lifecycle to live.Board slot index
	// and streams phase-boundary progress through a live.CellProbe.
	live  *live.Telemetry
	index int
}

// run executes the cell on a fresh system and applies its labelling. The
// context cancels the simulation cooperatively at phase boundaries.
func (c Cell) run(ctx context.Context) (*Result, error) {
	w := c.Make()
	ob := Observation{SampleEvery: c.SampleEvery}
	if c.Tracer != nil {
		src := w.Name() + "/" + c.Config.Design.String()
		if c.Variant != "" {
			src += "[" + c.Variant + "]"
		}
		ob.Tracer = obs.WithSource(c.Tracer, src)
	}
	if c.live != nil {
		c.live.Board.CellRunning(c.index, c.labelFor(w))
		ob.Probe = c.live.CellProbe(c.index)
	}
	r, err := RunObservedCtx(ctx, c.Config, w, ob)
	if err != nil {
		return nil, err
	}
	r.Variant = c.Variant
	if c.Rename != nil {
		r.Workload = c.Rename(r.Workload)
	}
	return r, nil
}

// labelFor renders the cell's display label from an already-built workload
// (safeLabel re-invokes the factory, which stateful factories notice).
func (c Cell) labelFor(w Workload) string {
	name := w.Name()
	if c.Rename != nil {
		name = c.Rename(name)
	}
	l := name + "/" + c.Config.Design.String()
	if c.Variant != "" {
		l += "[" + c.Variant + "]"
	}
	return l
}

// Progress is the per-cell completion callback: done cells so far, total
// cells, the cell's result and its wall-clock duration. The Runner
// serializes calls, so implementations need no locking of their own.
type Progress func(done, total int, r *Result, elapsed time.Duration)

// CellFailure describes one cell that failed without producing a result.
type CellFailure struct {
	// Index is the cell's position in the cells slice.
	Index int `json:"index"`
	// Label names the cell (workload/design[variant]).
	Label string `json:"label"`
	// Err is the cell's error.
	Err string `json:"err"`
	// Stack is the panic stack (contained panics) or the all-goroutine
	// dump the watchdog took (hung cells); empty for plain errors.
	Stack string `json:"stack,omitempty"`
	// Hung marks a cell that exceeded its deadline or was abandoned by
	// the watchdog rather than failing with an error of its own.
	Hung bool `json:"hung,omitempty"`
}

// Manifest summarizes a run's partial-completion state: it is the durable
// answer to "what did this run actually produce" when cells failed, hung,
// or the run was interrupted. A journaling run appends it as the final
// journal record whenever it is not clean.
type Manifest struct {
	// Total is the number of cells the run was asked for.
	Total int `json:"total"`
	// Completed counts cells with a real result, including restored ones.
	Completed int `json:"completed"`
	// FromJournal counts completed cells restored from the journal
	// instead of re-simulated.
	FromJournal int `json:"fromJournal,omitempty"`
	// Failures lists cells that failed, earliest first.
	Failures []CellFailure `json:"failures,omitempty"`
	// Interrupted lists cells whose run was cut short by
	// cancellation; a resumed run re-executes them.
	Interrupted []int `json:"interrupted,omitempty"`
	// NotAttempted lists cells never started — claimed or enumerated
	// after a failure or cancellation stopped the pool.
	NotAttempted []int `json:"notAttempted,omitempty"`
	// Cancelled reports that the run's context was cancelled.
	Cancelled bool `json:"cancelled,omitempty"`
}

// Clean reports whether every cell completed and nothing was interrupted.
func (m *Manifest) Clean() bool {
	return m.Completed == m.Total && len(m.Failures) == 0 &&
		len(m.Interrupted) == 0 && len(m.NotAttempted) == 0 && !m.Cancelled
}

// String renders the human-readable summary, one line plus one per failure.
func (m *Manifest) String() string {
	s := fmt.Sprintf("manifest: %d/%d cells completed", m.Completed, m.Total)
	if m.FromJournal > 0 {
		s += fmt.Sprintf(" (%d restored from journal)", m.FromJournal)
	}
	if n := len(m.Failures); n > 0 {
		s += fmt.Sprintf(", %d failed", n)
	}
	if n := len(m.Interrupted); n > 0 {
		s += fmt.Sprintf(", %d interrupted", n)
	}
	if n := len(m.NotAttempted); n > 0 {
		s += fmt.Sprintf(", %d not attempted", n)
	}
	if m.Cancelled {
		s += " [cancelled]"
	}
	for _, f := range m.Failures {
		kind := "failed"
		if f.Hung {
			kind = "hung"
		}
		s += fmt.Sprintf("\n  cell %d (%s) %s: %s", f.Index, f.Label, kind, f.Err)
	}
	return s
}

// Runner executes cells across a bounded worker pool and reassembles the
// results in cell order, regardless of completion order. Because every
// cell is deterministic and isolated, a table rendered from a parallel run
// is byte-identical to one from a sequential run of the same cells — the
// determinism gate in the tests asserts exactly that.
//
// The zero value is the strict historical runner. The resilience fields
// opt into long-run behaviour: cooperative cancellation (Context), durable
// checkpoint/resume (Journal), per-cell deadlines with a goroutine-dump
// watchdog (CellTimeout), and degraded completion that renders failed
// cells as explicit holes instead of aborting the run (Degrade). A cell
// runs once: every cell is deterministic, so one that fails would fail
// again, and one that passed on a second try would be hiding a bug.
type Runner struct {
	// Workers bounds how many cells simulate concurrently. Zero or
	// negative means runtime.NumCPU(); 1 reproduces the historical
	// sequential behaviour exactly (including stopping at the first
	// failing cell).
	Workers int
	// Progress, if non-nil, is invoked after each cell completes, in
	// completion order (including cells restored from the journal and,
	// under Degrade, failure placeholders).
	Progress Progress
	// Context, when non-nil, cancels the run cooperatively: no new cell
	// is claimed once it is done, and in-flight cells stop at their next
	// simulation phase boundary. Interrupted cells produce no result and
	// are re-executed by a resumed run.
	Context context.Context
	// Journal, when non-nil, makes the run crash-safe: each completed
	// cell's result is fsync'd under its fingerprint before completion is
	// acknowledged, and cells whose fingerprints the journal already
	// holds are restored instead of re-run.
	Journal *Journal
	// Scope namespaces journal fingerprints (the experiment id plus any
	// options that shape the cells, e.g. scale).
	Scope string
	// CellTimeout, when non-zero, bounds one cell's run. The
	// deadline propagates into the simulation and normally stops it at a
	// phase boundary; a cell that still does not return within
	// WatchdogGrace extra time is marked hung, its goroutine dump is
	// journaled, and its worker slot is released (the stuck goroutine is
	// abandoned — Go cannot kill it).
	CellTimeout time.Duration
	// WatchdogGrace is the extra wall-clock allowed past CellTimeout (or
	// past cancellation) for a cell to unwind cooperatively before the
	// watchdog abandons it. Zero selects 2s.
	WatchdogGrace time.Duration
	// Degrade keeps the run going past failed cells: instead of
	// aborting, the failed cell yields a placeholder Result whose Failure
	// field is set (tables render it as an explicit hole) plus a
	// Manifest entry, and every sibling cell still runs.
	Degrade bool
	// Live, when non-nil, streams cell lifecycle transitions and
	// phase-boundary progress into the wall-clock telemetry bundle (the
	// /runs board and the resource ledger's access total). It is strictly
	// read-only with respect to results: attaching it changes no cell's
	// output.
	Live *live.Telemetry
}

func (rn Runner) workers(n int) int {
	w := rn.Workers
	if w <= 0 {
		w = runtime.NumCPU()
	}
	if w > n {
		w = n
	}
	return w
}

func (rn Runner) ctxErr() error {
	if rn.Context == nil {
		return nil
	}
	return rn.Context.Err()
}

// ForEach runs job(i) for every i in [0, n) across the worker pool.
// Indices are claimed in order; after a job fails (or the Context is
// cancelled), no new index is claimed — in-flight jobs finish. The
// returned error aggregates every job failure with errors.Join, earliest
// index first, so the primary (first) error never depends on the worker
// count. A job that must never stop its siblings (the fault-injection
// campaign records per-unit failures in its report instead) simply
// returns nil and keeps its own accounting.
func (rn Runner) ForEach(n int, job func(i int) error) error {
	err, _ := rn.forEach(n, job)
	return err
}

// forEach is ForEach plus the skipped-index accounting: it returns the
// indices that were never attempted because a failure or cancellation
// stopped the pool first — including indices a worker claimed from the
// counter but declined to run, which earlier versions silently dropped.
func (rn Runner) forEach(n int, job func(int) error) (error, []int) {
	if n <= 0 {
		return nil, nil
	}
	errs := make([]error, n)
	ran := make([]bool, n) // indexed writes only, each index claimed once
	var (
		next   atomic.Int64
		failed atomic.Bool
		wg     sync.WaitGroup
	)
	next.Store(-1)
	for w := rn.workers(n); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1))
				if i >= n {
					return
				}
				if failed.Load() || rn.ctxErr() != nil {
					return // i stays !ran — reported as not attempted
				}
				ran[i] = true
				if err := job(i); err != nil {
					errs[i] = err
					failed.Store(true)
					return
				}
			}
		}()
	}
	wg.Wait()
	var joined []error
	var skipped []int
	for i := range errs {
		if errs[i] != nil {
			joined = append(joined, errs[i])
		}
		if !ran[i] {
			skipped = append(skipped, i)
		}
	}
	return errors.Join(joined...), skipped
}

// cellOutcome is what one cell ultimately produced.
type cellOutcome struct {
	r           *Result
	fromJournal bool
	cancelled   bool
	fail        *CellFailure
}

// attemptResult is a cell run's raw outcome.
type attemptResult struct {
	r     *Result
	err   error
	stack string
	hung  bool
}

// RunManifest executes every cell and returns the results indexed exactly
// like cells (nil for cells that produced nothing), plus the run's
// manifest. Without Degrade, the error aggregates every failed cell
// (earliest first); with Degrade, failed cells become placeholder results
// and the error stays nil. Cancellation is never an error here — the
// manifest reports it.
func (rn Runner) RunManifest(cells []Cell) ([]*Result, *Manifest, error) {
	n := len(cells)
	man := &Manifest{Total: n}
	if n == 0 {
		return nil, man, nil
	}
	results := make([]*Result, n)
	if rn.Live != nil {
		scope := rn.Scope
		if scope == "" {
			scope = "run"
		}
		rn.Live.Board.Begin(scope, n)
	}
	var (
		mu   sync.Mutex // serializes Progress, the done counter and manifest appends
		done int
	)
	err, skipped := rn.forEach(n, func(i int) error {
		start := time.Now()
		out := rn.runCell(i, cells[i])
		mu.Lock()
		switch {
		case out.fail != nil:
			man.Failures = append(man.Failures, *out.fail)
			if rn.Degrade {
				results[i] = FailureResult(cells[i], i, out.fail)
			}
		case out.cancelled:
			man.Interrupted = append(man.Interrupted, i)
		case out.r != nil:
			results[i] = out.r
			man.Completed++
			if out.fromJournal {
				man.FromJournal++
			}
		}
		if results[i] != nil {
			done++
			if rn.Progress != nil {
				rn.Progress(done, n, results[i], time.Since(start))
			}
		}
		mu.Unlock()
		if out.fail != nil && !rn.Degrade {
			return fmt.Errorf("cell %d (%s): %s", i, out.fail.Label, out.fail.Err)
		}
		return nil
	})
	man.NotAttempted = skipped
	man.Cancelled = rn.ctxErr() != nil
	sort.Slice(man.Failures, func(a, b int) bool { return man.Failures[a].Index < man.Failures[b].Index })
	sort.Ints(man.Interrupted)
	if rn.Journal != nil && !man.Clean() {
		_ = rn.Journal.Record("manifest", rn.Scope, man)
	}
	return results, man, err
}

// Run executes every cell and returns the results indexed exactly like
// cells. On failure it returns the error of the earliest (by cell order)
// cell that failed, joined with every other failure; cells not yet
// started when a failure is observed are skipped and reported in the
// manifest of RunManifest. Cancellation of the Context is returned as an
// error wrapping its cause. Under Degrade, failed cells appear as
// placeholder results instead of errors.
func (rn Runner) Run(cells []Cell) ([]*Result, error) {
	rs, man, err := rn.RunManifest(cells)
	if err != nil {
		return nil, err
	}
	if man.Cancelled {
		return nil, fmt.Errorf("harness: run cancelled: %w", context.Cause(rn.Context))
	}
	return rs, nil
}

// RunTable executes the cells and collects the results, in cell order,
// into a titled table carrying the run's manifest. Under Degrade or
// cancellation the table is partial: failed cells render as explicit
// holes and interrupted cells are simply absent — consult Manifest.
func (rn Runner) RunTable(title string, cells []Cell) (*Table, error) {
	rs, man, err := rn.RunManifest(cells)
	if err != nil {
		return nil, err
	}
	t := &Table{Title: title, Manifest: man}
	for _, r := range rs {
		if r != nil {
			t.Add(r)
		}
	}
	return t, nil
}

// runCell drives one cell to its final outcome: journal restore, one
// attempt under watchdog containment, and checkpointing.
func (rn Runner) runCell(i int, c Cell) cellOutcome {
	c.live, c.index = rn.Live, i
	var fp string
	if rn.Journal != nil {
		fp = safeFingerprint(c, rn.Scope, i)
		var r Result
		if rn.Journal.Lookup("cell", fp, &r) {
			if rn.Live != nil {
				rn.Live.Board.CellRestored(i, safeLabel(c, i), r.Stats.Cycles, r.Stats.Loads+r.Stats.Stores)
			}
			return cellOutcome{r: &r, fromJournal: true}
		}
	}
	ar := rn.attemptCell(c)
	if ar.err == nil && rn.Journal != nil {
		if err := rn.Journal.Record("cell", fp, ar.r); err != nil {
			// A checkpoint that cannot be made durable is a cell failure:
			// acknowledging it would let a crash lose acknowledged work.
			ar = attemptResult{err: fmt.Errorf("harness: journaling cell: %w", err)}
		}
	}
	if ar.err == nil {
		if c.Tracer != nil {
			obs.WithSource(c.Tracer, safeLabel(c, i)).Trace(obs.Event{
				Kind: obs.EvCheckpoint, Cycle: ar.r.Stats.Cycles, Aux: uint64(i),
			})
		}
		if rn.Live != nil {
			rn.Live.Board.CellDone(i, ar.r.Stats.Cycles, ar.r.Stats.Loads+ar.r.Stats.Stores)
		}
		return cellOutcome{r: ar.r}
	}
	if errors.Is(ar.err, context.Canceled) && !ar.hung {
		return cellOutcome{cancelled: true}
	}
	// Only a failed cell pays for its label here (safeLabel re-invokes the
	// workload factory, which stateful factories notice).
	fail := &CellFailure{
		Index: i, Label: safeLabel(c, i), Err: ar.err.Error(),
		Stack: ar.stack, Hung: ar.hung,
	}
	if rn.Live != nil {
		rn.Live.Board.CellFailed(i, fail.Label, fail.Err, ar.hung)
	}
	if rn.Journal != nil {
		if ar.hung {
			stacks := ar.stack
			if stacks == "" {
				stacks = allStacks()
			}
			_ = rn.Journal.Record("hang", fp, hangRecord{Label: fail.Label, Stacks: stacks})
		}
		_ = rn.Journal.Record("fail", fp, fail)
	}
	return cellOutcome{fail: fail}
}

// attemptCell runs one cell on its own goroutine with
// panic containment, a deadline that propagates into the simulation, and
// a hard watchdog that abandons the goroutine if it does not unwind.
func (rn Runner) attemptCell(c Cell) attemptResult {
	parent := rn.Context
	if parent == nil {
		parent = context.Background()
	}
	cctx := parent
	if rn.CellTimeout > 0 {
		var cancel context.CancelFunc
		cctx, cancel = context.WithTimeout(parent, rn.CellTimeout)
		defer cancel()
	}
	done := make(chan attemptResult, 1)
	go func() {
		defer func() {
			if p := recover(); p != nil {
				done <- attemptResult{
					err:   fmt.Errorf("harness: cell panicked: %v", p),
					stack: string(debug.Stack()),
				}
			}
		}()
		r, err := c.run(cctx)
		done <- attemptResult{r: r, err: err}
	}()
	grace := rn.WatchdogGrace
	if grace <= 0 {
		grace = 2 * time.Second
	}
	var hardC <-chan time.Time
	if rn.CellTimeout > 0 {
		hard := time.NewTimer(rn.CellTimeout + grace)
		defer hard.Stop()
		hardC = hard.C
	}
	var parentDone <-chan struct{}
	if rn.Context != nil {
		parentDone = rn.Context.Done()
	}
	select {
	case ar := <-done:
		return classify(ar)
	case <-hardC:
	case <-parentDone:
		// Cancelled: give the cell one grace period to unwind at its next
		// phase boundary before abandoning it.
		g := time.NewTimer(grace)
		defer g.Stop()
		select {
		case ar := <-done:
			return classify(ar)
		case <-g.C:
		case <-hardC:
		}
	}
	// Watchdog: the cell neither finished nor unwound. Its goroutine
	// cannot be killed — abandon it (it keeps its System alive until it
	// ever returns) and release the worker slot with a full dump.
	return attemptResult{
		err:  fmt.Errorf("harness: cell watchdog: no result within deadline+%v grace, worker abandoned", grace),
		hung: true, stack: allStacks(),
	}
}

// classify marks graceful deadline unwinds as hung.
func classify(ar attemptResult) attemptResult {
	if ar.err != nil && errors.Is(ar.err, context.DeadlineExceeded) {
		ar.hung = true
	}
	return ar
}

// allStacks dumps every goroutine's stack.
func allStacks() string {
	buf := make([]byte, 1<<20)
	return string(buf[:runtime.Stack(buf, true)])
}

// safeFingerprint fingerprints the cell, falling back to an index-keyed
// fingerprint if the workload factory itself panics.
func safeFingerprint(c Cell, scope string, i int) (fp string) {
	fp = fmt.Sprintf("%s/cell-%d#unfingerprintable", scope, i)
	defer func() { _ = recover() }()
	return c.Fingerprint(scope)
}

// safeName returns the cell's (renamed) workload name, tolerating a
// panicking factory.
func safeName(c Cell, i int) (name string) {
	name = fmt.Sprintf("cell-%d", i)
	defer func() { _ = recover() }()
	n := c.Make().Name()
	if c.Rename != nil {
		n = c.Rename(n)
	}
	return n
}

// CellLabel is the cell's display label (workload/design[variant]),
// tolerating a panicking workload factory. The fleet uses it to name
// leases in status output and failure manifests.
func CellLabel(c Cell, i int) string { return safeLabel(c, i) }

// safeLabel is the cell's display label: workload/design[variant].
func safeLabel(c Cell, i int) string {
	l := safeName(c, i) + "/" + c.Config.Design.String()
	if c.Variant != "" {
		l += "[" + c.Variant + "]"
	}
	return l
}

// FailureResult synthesizes the degraded-mode placeholder for a failed
// cell: a Result with the cell's labels, zero statistics, and Failure set,
// which tables render as an explicit hole. The fleet gateway uses it to
// render redelivery-exhausted cells exactly like a local Degrade run.
func FailureResult(c Cell, i int, f *CellFailure) *Result {
	reason := f.Err
	if f.Hung {
		reason = "hung: " + reason
	}
	return &Result{
		Workload: safeName(c, i),
		Design:   c.Config.Design,
		Variant:  c.Variant,
		Failure:  reason,
	}
}
