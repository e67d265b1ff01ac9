package soak

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"tvarak/internal/fault"
	"tvarak/internal/harness"
	"tvarak/internal/param"
)

// Worker protocol markers, one per stdout line. The supervisor arms its
// SIGKILL only after StartMarker — killing earlier could tear process
// setup instead of the unit itself — and learns from RestoredMarker
// whether the resume leg actually hit the journal.
const (
	StartMarker    = "SOAK-WORKER-START"
	RestoredMarker = "SOAK-WORKER-RESTORED"
	DoneMarker     = "SOAK-WORKER-DONE"
)

// journalKind is the journal record kind for soak units.
const journalKind = "soak-unit"

// EncodeSamplerArgs flattens sampler options into the two worker-protocol
// argv tokens (designs CSV, async pin label); "-" stands for "unset" so
// the positional protocol never carries an empty token.
func EncodeSamplerArgs(opts SamplerOptions) (designs, async string) {
	designs, async = "-", "-"
	if len(opts.Designs) > 0 {
		var names []string
		for _, d := range opts.Designs {
			names = append(names, d.String())
		}
		designs = strings.Join(names, ",")
	}
	if opts.Async != nil {
		async = opts.Async.Label()
	}
	return designs, async
}

// RunWorkerArgs is RunWorker driven by the positionals spawnWorker
// appends to WorkerCmd: master index journal out resume designs async, the
// last two as EncodeSamplerArgs writes them.
func RunWorkerArgs(out io.Writer, args []string) error {
	if len(args) != 7 {
		return fmt.Errorf("soak: chaos worker wants 7 args (master index journal out resume designs async), got %d", len(args))
	}
	master, err1 := strconv.ParseInt(args[0], 10, 64)
	index, err2 := strconv.Atoi(args[1])
	resume, err3 := strconv.ParseBool(args[4])
	var opts SamplerOptions
	var err4, err5 error
	if args[5] != "-" {
		opts.Designs, err4 = param.ParseDesigns(args[5])
	}
	if args[6] != "-" {
		var a param.AsyncConfig
		a, err5 = param.ParseAsyncLabel(args[6])
		opts.Async = &a
	}
	if err := errors.Join(err1, err2, err3, err4, err5); err != nil {
		return fmt.Errorf("soak: bad chaos worker args %q: %w", args, err)
	}
	return RunWorker(out, master, index, args[2], args[3], resume, opts)
}

// RunWorker is the chaos worker child's entry point: derive soak unit
// (master, index) under opts, run it journaled at journalPath, and
// atomically write the unit report's JSON encoding to outPath. With
// resume=true an existing journal — possibly SIGKILL-torn — is reopened
// and a completed unit is restored instead of re-run; otherwise the
// journal is started fresh. The worker child reaches it through
// RunWorkerArgs (`tvarak soak -chaos-worker`, or the test suite's re-exec'd
// binary).
// opts must match the supervisor's (they arrive through the argv protocol
// via EncodeSamplerArgs), or the derived unit — and its fingerprint —
// would diverge.
//
// The protocol markers go to out (the supervisor watches the child's
// stdout): StartMarker before any unit work so a kill can land mid-unit,
// RestoredMarker if the journal satisfied the unit, DoneMarker only after
// the report file is durably in place.
func RunWorker(out io.Writer, master int64, index int, journalPath, outPath string, resume bool, opts SamplerOptions) error {
	unit := UnitAtOpt(master, index, opts)
	fp := unit.Fingerprint(master)

	var (
		j   *harness.Journal
		err error
	)
	if resume {
		j, err = harness.OpenJournal(journalPath)
	} else {
		j, err = harness.NewJournal(journalPath)
	}
	if err != nil {
		return err
	}
	defer j.Close()

	fmt.Fprintln(out, StartMarker)

	var rep fault.UnitReport
	if j.Lookup(journalKind, fp, &rep) {
		fmt.Fprintln(out, RestoredMarker)
	} else {
		r, err := fault.RunSingleUnit(context.Background(), unit.UnitParams)
		if err != nil {
			return fmt.Errorf("soak: worker unit %d: %w", index, err)
		}
		rep = *r
		if err := j.Record(journalKind, fp, &rep); err != nil {
			return err
		}
	}

	data, err := json.Marshal(&rep)
	if err != nil {
		return fmt.Errorf("soak: worker marshalling report: %w", err)
	}
	if err := atomicWrite(outPath, data); err != nil {
		return err
	}
	fmt.Fprintln(out, DoneMarker)
	return nil
}

// atomicWrite lands data at path via tmp+fsync+rename, so a kill during
// the write never leaves a half-written report for the supervisor to read.
func atomicWrite(path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// chaosResult is what one SIGKILL/resume cycle reports back to the soak
// loop for the unit's ledger line.
type chaosResult struct {
	IdentityOK bool // resumed report bytes == uninterrupted reference bytes
	Killed     bool // the SIGKILL landed before the first leg exited
	Resumed    bool // the second leg restored the unit from the torn journal
}

// runChaos runs one unit through the full chaos cycle: spawn a worker
// child, SIGKILL it shortly after its start marker, re-spawn it against
// the same (now possibly torn) journal with resume on, and require the
// resumed report to be byte-identical to reference — the uninterrupted
// in-process run's encoding. Whether the kill lands mid-unit or after the
// first leg already finished, identity must hold: the journal either
// restores the completed record or the re-run is deterministic.
func runChaos(ctx context.Context, cfg Config, unit Unit, reference []byte) (chaosResult, error) {
	var res chaosResult
	dir := cfg.WorkDir
	journalPath := filepath.Join(dir, fmt.Sprintf("chaos-%d.journal", unit.Index))
	outPath := filepath.Join(dir, fmt.Sprintf("chaos-%d.json", unit.Index))

	// Leg 1: fresh worker, killed KillAfter after it reports started.
	leg1, err := spawnWorker(ctx, cfg, unit, journalPath, outPath, false)
	if err != nil {
		return res, err
	}
	select {
	case <-leg1.started:
	case err := <-leg1.done:
		return res, fmt.Errorf("soak: chaos worker (unit %d) exited before start marker: %v", unit.Index, err)
	case <-ctx.Done():
		leg1.cmd.Process.Kill()
		<-leg1.done
		return res, context.Cause(ctx)
	}
	select {
	case <-time.After(cfg.KillAfter):
		if err := leg1.cmd.Process.Kill(); err == nil {
			res.Killed = true
		}
		<-leg1.done
	case err := <-leg1.done:
		// The worker beat the kill timer; a clean exit still exercises the
		// resume leg's restore path below.
		if err != nil {
			return res, fmt.Errorf("soak: chaos worker (unit %d) first leg failed: %v", unit.Index, err)
		}
	case <-ctx.Done():
		leg1.cmd.Process.Kill()
		<-leg1.done
		return res, context.Cause(ctx)
	}

	// Leg 2: resume against the torn journal; this one must succeed.
	leg2, err := spawnWorker(ctx, cfg, unit, journalPath, outPath, true)
	if err != nil {
		return res, err
	}
	select {
	case err := <-leg2.done:
		if err != nil {
			return res, fmt.Errorf("soak: chaos worker (unit %d) resume leg failed: %v", unit.Index, err)
		}
	case <-ctx.Done():
		leg2.cmd.Process.Kill()
		<-leg2.done
		return res, context.Cause(ctx)
	}
	res.Resumed = leg2.restored()

	got, err := os.ReadFile(outPath)
	if err != nil {
		return res, fmt.Errorf("soak: reading chaos report: %w", err)
	}
	res.IdentityOK = bytes.Equal(got, reference)
	return res, nil
}

// worker is one spawned chaos worker child plus its protocol state.
type worker struct {
	cmd      *exec.Cmd
	started  chan struct{} // closed when StartMarker is seen on stdout
	done     chan error    // receives the Wait result exactly once
	sawRest  chan struct{} // closed when RestoredMarker is seen
	restored func() bool
}

// spawnWorker launches cfg.WorkerCmd with the positional chaos-protocol
// arguments appended and begins scanning its stdout for markers.
func spawnWorker(ctx context.Context, cfg Config, unit Unit, journalPath, outPath string, resume bool) (*worker, error) {
	designs, async := EncodeSamplerArgs(cfg.samplerOpts())
	args := append(append([]string(nil), cfg.WorkerCmd[1:]...),
		fmt.Sprint(cfg.Seed), fmt.Sprint(unit.Index), journalPath, outPath, fmt.Sprint(resume),
		designs, async)
	cmd := exec.Command(cfg.WorkerCmd[0], args...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("soak: spawning chaos worker: %w", err)
	}
	w := &worker{
		cmd:     cmd,
		started: make(chan struct{}),
		done:    make(chan error, 1),
		sawRest: make(chan struct{}),
	}
	w.restored = func() bool {
		select {
		case <-w.sawRest:
			return true
		default:
			return false
		}
	}
	go func() {
		sc := bufio.NewScanner(stdout)
		startSeen, restSeen := false, false
		for sc.Scan() {
			switch sc.Text() {
			case StartMarker:
				if !startSeen {
					startSeen = true
					close(w.started)
				}
			case RestoredMarker:
				if !restSeen {
					restSeen = true
					close(w.sawRest)
				}
			}
		}
		w.done <- cmd.Wait()
	}()
	return w, nil
}
