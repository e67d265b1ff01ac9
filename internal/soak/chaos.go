package soak

import (
	"bytes"
	"context"
	"fmt"
	"os/exec"
	"sync/atomic"
	"time"

	"tvarak/internal/fault"
	"tvarak/internal/fleet"
)

// chaosLeaseTTL is the lease lifetime of a chaos cycle's gateway. The
// survivor heartbeats every third of it, so it stays well above a
// heartbeat round trip on a loaded machine. The SIGKILLed victim's lease
// ends by expiry, redelivered to the survivor at once: the gateway's
// redelivery backoff is left zero, and runChaos advances the gateway's
// clock one TTL once the victim is reaped rather than idle out the TTL.
const chaosLeaseTTL = time.Second

// chaosResult is what one chaos cycle reports back to the soak loop for
// the unit's ledger line.
type chaosResult struct {
	IdentityOK bool // accepted payload == in-process reference bytes, no divergence
	Killed     bool // the SIGKILL landed before the victim exited
}

// chaosPlan is unit's one-unit fault-campaign job — the spec a fleet
// worker rebuilds the unit from — and its plan. It checks, rather than
// assumes, that the campaign's single unit is the soak unit itself: a
// worker running anything else would make the identity verdict meaningless.
func chaosPlan(unit Unit) (fleet.JobSpec, fleet.Plan, error) {
	p := unit.UnitParams
	spec := fleet.JobSpec{
		Kind: "campaign", Seed: p.Seed, N: p.N,
		Apps: []string{p.App}, Designs: []string{p.Design.String()},
		EpochCyc: p.EpochCyc, DirtyGran: p.DirtyGran, Battery: p.Battery, Incremental: p.Incremental,
	}
	opt, err := spec.CampaignOptions()
	if err != nil {
		return spec, nil, err
	}
	units, err := fault.CampaignUnits(opt)
	if err != nil {
		return spec, nil, err
	}
	plan, err := fleet.BuildPlan(spec)
	if err != nil {
		return spec, nil, err
	}
	if len(units) != 1 || plan.Units() != 1 || units[0].Params != p {
		return spec, nil, fmt.Errorf("soak: unit %d (%s) is not the single unit of campaign job %+v", unit.Index, p.Key(), spec)
	}
	return spec, plan, nil
}

// runChaos runs one unit through the fleet under a kill: it serves the
// unit's one-unit campaign on an in-process gateway, re-execs a fleet
// worker (the victim), SIGKILLs it KillAfter after the gateway grants it
// the lease, then re-execs a survivor worker that takes the redelivered
// unit. The accepted payload must be byte-identical to reference — the
// uninterrupted in-process run's encoding — whichever way the race between
// kill and completion went.
func runChaos(ctx context.Context, cfg Config, unit Unit, reference []byte) (chaosResult, error) {
	var res chaosResult
	spec, plan, err := chaosPlan(unit)
	if err != nil {
		return res, err
	}
	// The gateway's clock runs skew ahead of the wall clock. Once the
	// victim is reaped its lease can only expire, so the skew jumps one
	// TTL and the lease expires at once.
	var skew atomic.Int64
	g, err := fleet.NewGateway(fleet.GatewayConfig{
		Plan: plan, Spec: spec, LeaseTTL: chaosLeaseTTL,
		Now: func() time.Time { return time.Now().Add(time.Duration(skew.Load())) },
	})
	if err != nil {
		return res, err
	}
	srv, err := fleet.Serve(g, "127.0.0.1:0")
	if err != nil {
		return res, err
	}
	defer srv.Close()

	victim, err := startWorker(cfg, srv.URL)
	if err != nil {
		return res, err
	}
	defer victim.stop()
	// Arm the kill only once the unit is leased: killing earlier would
	// tear the worker's startup instead of the unit.
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	for g.Status(false).Granted == 0 {
		select {
		case <-victim.done:
			return res, victim.failure(unit, "victim exited before its lease grant")
		case <-ctx.Done():
			return res, context.Cause(ctx)
		case <-tick.C:
		}
	}
	sent := false
	select {
	case <-time.After(cfg.KillAfter):
		sent = victim.cmd.Process.Kill() == nil
		<-victim.done
	case <-victim.done:
	case <-ctx.Done():
		return res, context.Cause(ctx)
	}
	res.Killed = sent && !victim.cmd.ProcessState.Exited()
	if !res.Killed && victim.err != nil {
		return res, victim.failure(unit, "victim failed")
	}
	skew.Store(int64(chaosLeaseTTL))

	// The listener stays up until the survivor exits: it exits cleanly
	// only once a lease request is answered done, i.e. the job resolved.
	survivor, err := startWorker(cfg, srv.URL)
	if err != nil {
		return res, err
	}
	defer survivor.stop()
	select {
	case <-survivor.done:
	case <-ctx.Done():
		return res, context.Cause(ctx)
	}
	st := g.Status(false)
	if st.Divergent > 0 {
		// Two workers delivered different bytes for the unit: an identity
		// verdict for the ledger, not a failure of the run.
		return res, nil
	}
	if survivor.err != nil || !st.Resolved {
		return res, survivor.failure(unit, "survivor failed")
	}
	payloads, _, err := g.Wait(ctx)
	if err != nil {
		return res, fmt.Errorf("soak: chaos unit %d: %w", unit.Index, err)
	}
	res.IdentityOK = bytes.Equal(payloads[0], reference)
	return res, nil
}

// worker is one re-exec'd fleet worker process.
type worker struct {
	cmd    *exec.Cmd
	stderr bytes.Buffer
	done   chan struct{} // closed once the process is reaped
	err    error         // the Wait result, valid after done
}

// startWorker re-execs cfg.WorkerCmd against the gateway at url.
func startWorker(cfg Config, url string) (*worker, error) {
	args := append(append([]string(nil), cfg.WorkerCmd[1:]...), "-gateway", url)
	w := &worker{cmd: exec.Command(cfg.WorkerCmd[0], args...), done: make(chan struct{})}
	w.cmd.Stderr = &w.stderr
	if err := w.cmd.Start(); err != nil {
		return nil, fmt.Errorf("soak: spawning chaos worker: %w", err)
	}
	go func() {
		w.err = w.cmd.Wait()
		close(w.done)
	}()
	return w, nil
}

// stop kills the worker if it is still running and reaps it.
func (w *worker) stop() {
	_ = w.cmd.Process.Kill() // fails only when the worker already exited
	<-w.done
}

// failure describes an exited worker's failure, with its stderr.
func (w *worker) failure(unit Unit, what string) error {
	return fmt.Errorf("soak: chaos unit %d: %s (%v): %s", unit.Index, what, w.err, bytes.TrimSpace(w.stderr.Bytes()))
}
