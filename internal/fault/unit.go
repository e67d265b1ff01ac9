package fault

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"

	"tvarak/internal/daxfs"
	"tvarak/internal/harness"
	"tvarak/internal/oracle"
	"tvarak/internal/param"
	"tvarak/internal/sim"
)

// InjectionRecord is one injection's outcome in the report.
type InjectionRecord struct {
	Round  int    `json:"round"`
	Kind   string `json:"kind"`
	Addr   uint64 `json:"addr"`
	Victim uint64 `json:"victim,omitempty"`
	// Armed is false when no eligible target line existed (tiny
	// workloads, every group occupied); the spec was skipped.
	Armed bool `json:"armed"`
	// Fired: the bug consumed (or the flip applied). Cancelled: armed
	// but never triggered by the segment, disarmed at the sweep.
	Fired     bool `json:"fired"`
	Cancelled bool `json:"cancelled,omitempty"`
	// Benign: fired without leaving corruption or evidence (the buggy
	// payload happened to equal the old content) — nothing any design
	// could or should detect.
	Benign bool `json:"benign,omitempty"`
	// Detected/Recovered: the design traced EvCorruption/EvRecovery at
	// the injection's lines.
	Detected  bool `json:"detected"`
	Recovered bool `json:"recovered"`
	// Silent: the oracle confirmed corrupt bytes were read or persist
	// on media with no detection (expected under Baseline). ECC: the
	// device ECC flagged the line (bit flips under Baseline).
	Silent bool `json:"silent,omitempty"`
	ECC    bool `json:"ecc,omitempty"`
	// InWindow: the corruption hit a line that was dirty (awaiting its
	// epoch) at the asynchronous design's reconciliation point, so the
	// pass absorbed it — expected-silent inside the vulnerability window.
	InWindow bool `json:"inWindow,omitempty"`
}

// UnitReport is one (app, design) campaign unit's outcome.
type UnitReport struct {
	App        string             `json:"app"`
	Design     string             `json:"design"`
	Injections []*InjectionRecord `json:"injections"`

	Armed     int `json:"armed"`
	Fired     int `json:"fired"`
	Cancelled int `json:"cancelled"`
	Skipped   int `json:"skipped"`

	Detections  uint64 `json:"detections"`
	Recoveries  uint64 `json:"recoveries"`
	ECCErrors   uint64 `json:"eccErrors"`
	PhaseChecks uint64 `json:"phaseChecks"`

	// SilentCorruptions is the oracle-confirmed count of injections
	// that corrupted state with no detection — the Baseline signal.
	SilentCorruptions int `json:"silentCorruptions"`
	// Undetected and Unrecovered must both be zero for TVARAK:
	// sweep-delivered wrong bytes / silent reads, and corrupted lines
	// whose exclusion no recovery cleared.
	Undetected  int `json:"undetected"`
	Unrecovered int `json:"unrecovered"`

	// Asynchronous-design (Vilamb family) accounting. InWindowSilent
	// counts fired injections absorbed inside an open epoch window
	// (expected-silent; must be zero under the battery preset);
	// QuarantinedLines counts lines detected corrupt that parity could
	// not verifiably repair (detected-but-unrecovered, permitted for
	// async designs). WindowCyc/WindowLines are the realized
	// vulnerability-window integral over all reconciled lines.
	InWindowSilent   int    `json:"inWindowSilent,omitempty"`
	QuarantinedLines uint64 `json:"quarantinedLines,omitempty"`
	WindowCyc        uint64 `json:"windowCyc,omitempty"`
	WindowLines      uint64 `json:"windowLines,omitempty"`

	// AppPanics counts workload workers that crashed chasing corrupt
	// state (a wild pointer read from a silently-corrupted line). Under
	// Baseline that is a legitimate corruption consequence — the silent
	// read that caused it is already on record; under TVARAK it fails
	// the unit, because the application must never see corrupt bytes.
	AppPanics int `json:"appPanics,omitempty"`

	CrashPoints int    `json:"crashPoints"`
	Rounds      int    `json:"rounds"`
	Failure     string `json:"failure,omitempty"`

	// MinimalSpecs is the shrunk failing schedule (flat spec list), set
	// only when the unit failed and shrinking was enabled.
	MinimalSpecs []Spec `json:"minimalSpecs,omitempty"`
	ShrinkRuns   int    `json:"shrinkRuns,omitempty"`
}

// Label names the unit.
func (u *UnitReport) Label() string { return u.App + "/" + u.Design }

func (u *UnitReport) fail(format string, args ...any) {
	if u.Failure == "" {
		u.Failure = fmt.Sprintf(format, args...)
	}
}

// armedInj tracks one live injection until resolution.
type armedInj struct {
	rec    *InjectionRecord
	kind   Kind
	addrs  []uint64 // media lines this injection corrupts when it fires
	groups []uint64
	read   bool // resolves at the sweep (misdirected read), not before
}

type unitCtx struct {
	app    appSpec
	design param.Design
	plan   Plan
	rep    *UnitReport

	ctx         context.Context // nil = never cancelled
	interrupted bool            // ctx fired mid-unit; the report is void

	sys *harness.System
	o   *oracle.Oracle
	w   harness.Workload

	groups   map[uint64]bool // occupied parity groups (oracle.GroupKey)
	live     []*armedInj
	sweepBad map[uint64]bool // cumulative sweep divergences (oracle-confirmed)

	// inWindow marks lines that were dirty (inside an open epoch window)
	// at an asynchronous design's reconciliation point: the pass absorbed
	// their corruption, which stays expected-silent for the rest of the
	// unit. Only populated under the Vilamb design.
	inWindow map[uint64]bool
}

// runUnit executes one (app, design) unit of the campaign plan and
// returns its report; failures (including panics from the simulated
// machine, e.g. an engine invariant trip) are recorded on the report,
// never propagated — the shrinker re-runs units freely. A non-nil ctx
// cancels the unit cooperatively at the engine's next phase boundary;
// an interrupted unit returns nil (a half-run unit's report would fail
// the sweeps for reasons that are the interruption's fault, not the
// design's). async shapes the Vilamb family's machine (ignored for other
// designs); fault units always run with the scrub pass on, since
// scrubbing is the async designs' out-of-window detection mechanism.
func runUnit(ctx context.Context, app appSpec, design param.Design, plan Plan, async param.AsyncConfig) (rep *UnitReport) {
	rep = &UnitReport{App: plan.App, Design: design.String(), Rounds: len(plan.Rounds)}
	defer func() {
		if r := recover(); r != nil {
			rep.fail("panic: %v", r)
		}
	}()
	u := &unitCtx{
		app: app, design: design, plan: plan, rep: rep, ctx: ctx,
		groups:   make(map[uint64]bool),
		sweepBad: make(map[uint64]bool),
		inWindow: make(map[uint64]bool),
	}
	cfg := param.SmallTest(design)
	if design == param.Vilamb {
		async.Scrub = true
		cfg.Async = async
	}
	sys, err := harness.NewSystem(cfg)
	if err != nil {
		rep.fail("system: %v", err)
		return rep
	}
	u.sys = sys
	if ctx != nil {
		sys.Eng.SetContext(ctx)
	}
	u.w = app.make(plan.Seed)
	if err := u.w.Setup(sys); err != nil {
		rep.fail("setup: %v", err)
		return rep
	}
	u.o = oracle.Attach(sys.Eng, sys.FS)

	// Warmup segment: round 0's targets come from lines the workload
	// demonstrably writes.
	u.segment(plan.Seed ^ 0x5deece66d)
	if u.interrupted {
		return nil
	}

	for ri, round := range plan.Rounds {
		u.runRound(ri, round)
		if u.interrupted {
			return nil
		}
		if rep.Failure != "" {
			return rep
		}
	}
	if u.cancelled() {
		return nil
	}
	u.finish()
	return rep
}

func (u *unitCtx) segment(seed int64) {
	u.app.reseed(u.w, seed)
	u.runWorkers(u.w.Workers(u.sys))
}

// runWorkers runs workload workers with per-worker panic containment:
// an application that chases a silently-corrupted pointer dies with a
// wild access, and that must neither kill the campaign process nor
// deadlock the phase scheduler (a panicking worker would never yield).
// The bound-weave scheduler runs one core at a time, so the counter
// needs no lock. Under TVARAK any worker panic fails the unit.
func (u *unitCtx) runWorkers(workers []func(*sim.Core)) {
	wrapped := make([]func(*sim.Core), len(workers))
	for i, w := range workers {
		if w == nil {
			continue
		}
		wrapped[i] = func(c *sim.Core) {
			defer func() {
				if r := recover(); r != nil {
					u.rep.AppPanics++
					if u.design == param.Tvarak {
						u.rep.fail("workload worker crashed on corrupt state: %v", r)
					}
				}
			}()
			w(c)
		}
	}
	u.sys.Eng.Run(wrapped)
	if u.ctx != nil && u.ctx.Err() != nil {
		u.interrupted = true
	}
}

func (u *unitCtx) runRound(ri int, round Round) {
	var thisRound []*armedInj
	for _, spec := range round.Specs {
		inj := u.arm(ri, spec)
		if inj != nil {
			thisRound = append(thisRound, inj)
			u.live = append(u.live, inj)
		}
	}
	u.segment(round.OpsSeed)
	if u.interrupted {
		return
	}
	u.resolveWriteBugs(thisRound)
	u.sweep()
	if u.cancelled() {
		// The sweep's engine run was truncated mid-verification: fills
		// and recoveries it would have driven never happened, so the
		// post-sweep checks would charge the design with the
		// interruption's consequences. Void the report instead.
		return
	}
	u.asyncReconcile()
	if u.cancelled() {
		return
	}
	u.resolveAfterSweep(thisRound)
	if u.rep.Failure != "" {
		return
	}
	if round.Crash && u.design == param.Tvarak && u.sys.Ctrl != nil {
		rng := rand.New(rand.NewSource(round.OpsSeed ^ 0x0ddba11))
		if err := u.crashPoint(rng); err != nil {
			if u.cancelled() {
				return
			}
			u.rep.fail("crash point (round %d): %v", ri, err)
			return
		}
		u.rep.CrashPoints++
	}
}

// cancelled reports whether the unit's context has fired, marking the
// unit interrupted if so. Any engine run can stop early at a phase
// boundary once the context is done, so every post-run verdict must be
// gated on this — a half-run sweep's findings are the interruption's
// fault, not the design's.
func (u *unitCtx) cancelled() bool {
	if u.ctx != nil && u.ctx.Err() != nil {
		u.interrupted = true
	}
	return u.interrupted
}

// arm resolves one spec against the lines the workload has written so
// far and injects it. Targets never collide with an unresolved
// injection's parity group: RAID-5 reconstructs at most one bad line per
// group, so a second corruption in a group would be unrecoverable by
// design, not a detection miss.
func (u *unitCtx) arm(ri int, spec Spec) *armedInj {
	recp := &InjectionRecord{Round: ri, Kind: spec.Kind.String()}
	u.rep.Injections = append(u.rep.Injections, recp)

	cands := u.o.WrittenDataLines()
	addr, ok := u.pick(cands, spec.R1, 0)
	if !ok {
		u.rep.Skipped++
		return nil
	}
	nvmm := u.sys.Eng.NVM
	inj := &armedInj{rec: recp, kind: spec.Kind}
	switch spec.Kind {
	case LostWrite:
		nvmm.InjectLostWrite(addr)
		u.o.Exclude(addr)
		inj.addrs = []uint64{addr}
	case MisdirectedWrite:
		victim, ok := u.pickVictim(cands, spec.R2, addr)
		if !ok {
			u.rep.Skipped++
			return nil
		}
		nvmm.InjectMisdirectedWrite(addr, victim)
		u.o.Exclude(addr)
		u.o.Exclude(victim)
		inj.addrs = []uint64{addr, victim}
		recp.Victim = victim
	case MisdirectedRead:
		donor, ok := u.pickVictim(cands, spec.R2, addr)
		if !ok {
			u.rep.Skipped++
			return nil
		}
		nvmm.InjectMisdirectedRead(addr, donor)
		inj.read = true
		recp.Victim = donor
	case BitFlip:
		nvmm.FlipBit(addr+spec.R2%64, uint(spec.R3%8))
		u.o.Exclude(addr)
		inj.addrs = []uint64{addr}
		recp.Fired = true
		u.rep.Fired++
	}
	recp.Addr = addr
	recp.Armed = true
	u.rep.Armed++
	for _, la := range append([]uint64{addr, recp.Victim}, inj.addrs...) {
		if la == 0 {
			continue
		}
		g := u.o.GroupKey(la)
		if !u.groups[g] {
			u.groups[g] = true
			inj.groups = append(inj.groups, g)
		}
	}
	return inj
}

// pick chooses a target line from cands starting at R1 mod len, probing
// forward past ineligible lines (already corrupted, bug armed, parity
// group occupied).
func (u *unitCtx) pick(cands []uint64, r uint64, exclude uint64) (uint64, bool) {
	n := len(cands)
	if n == 0 {
		return 0, false
	}
	start := int(r % uint64(n))
	for i := 0; i < n; i++ {
		a := cands[(start+i)%n]
		if a == exclude || u.o.Excluded(a) || u.sys.Eng.NVM.BugArmed(a) {
			continue
		}
		if u.groups[u.o.GroupKey(a)] {
			continue
		}
		if !u.inCoverage(a) {
			continue
		}
		return a, true
	}
	return 0, false
}

// inCoverage restricts targets to lines the design claims to protect.
// For the asynchronous family that is the lines a scheme tracks (dirty
// now or reconciled before) — writes that bypass MarkDirty (allocator
// metadata, the schemes' own CRC/parity stores) are outside its coverage
// the same way non-transactional data is outside a TxB scheme's; every
// other design covers all written data lines.
func (u *unitCtx) inCoverage(addr uint64) bool {
	if u.design != param.Vilamb {
		return true
	}
	for _, v := range u.sys.Vilambs {
		if v.Tracked(addr) {
			return true
		}
	}
	return false
}

// pickVictim is pick with the additional constraint that the line's
// current content differs from addr's shadow content, so a misdirected
// write/read actually changes bytes somewhere observable.
func (u *unitCtx) pickVictim(cands []uint64, r uint64, addr uint64) (uint64, bool) {
	n := len(cands)
	if n == 0 {
		return 0, false
	}
	a64 := make([]byte, 64)
	v64 := make([]byte, 64)
	u.o.Want(addr, a64)
	start := int(r % uint64(n))
	for i := 0; i < n; i++ {
		v := cands[(start+i)%n]
		if v == addr || u.o.Excluded(v) || u.sys.Eng.NVM.BugArmed(v) {
			continue
		}
		if u.groups[u.o.GroupKey(v)] {
			continue
		}
		if !u.inCoverage(v) {
			continue
		}
		u.o.Want(v, v64)
		if bytes.Equal(a64, v64) {
			continue
		}
		return v, true
	}
	return 0, false
}

// resolveWriteBugs classifies this round's write-path injections after
// the segment: unfired bugs are cancelled and their exclusions dropped
// (media is untouched); fired ones keep only the lines where media
// actually diverges from intent (a payload equal to the old content is
// benign, and a line TVARAK already recovered is resolved).
func (u *unitCtx) resolveWriteBugs(round []*armedInj) {
	nvmm := u.sys.Eng.NVM
	for _, inj := range round {
		if inj.read {
			continue
		}
		if inj.kind == BitFlip {
			u.pruneHealed(inj)
			continue
		}
		if nvmm.BugArmed(inj.rec.Addr) {
			nvmm.CancelBugs(inj.rec.Addr)
			for _, a := range inj.addrs {
				u.o.Unexclude(a)
			}
			inj.addrs = nil
			inj.rec.Cancelled = true
			u.rep.Cancelled++
			continue
		}
		inj.rec.Fired = true
		u.rep.Fired++
		u.pruneHealed(inj)
	}
}

// pruneHealed drops exclusion for lines whose media already equals the
// shadow (benign fire, or the workload overwrote the line before any
// read saw it) and narrows the injection to its still-diverged lines.
func (u *unitCtx) pruneHealed(inj *armedInj) {
	got := make([]byte, 64)
	want := make([]byte, 64)
	var diverged []uint64
	for _, a := range inj.addrs {
		if !u.o.Excluded(a) {
			continue // a recovery already cleared it
		}
		u.sys.Eng.NVM.ReadRaw(a, got)
		u.o.Want(a, want)
		if bytes.Equal(got, want) {
			u.o.Unexclude(a)
			continue
		}
		diverged = append(diverged, a)
	}
	inj.addrs = diverged
}

// sweep drops caches and reloads every line the workload has ever
// written, comparing the delivered bytes against the shadow captured
// before the loads. Under TVARAK this forces every armed read bug and
// every surviving media divergence through fill verification; under
// Baseline it is how the oracle confirms silent corruption.
func (u *unitCtx) sweep() {
	lines := u.o.WrittenDataLines()
	eng := u.sys.Eng
	eng.DropCaches()
	want := make([]byte, len(lines)*64)
	for i, la := range lines {
		u.o.Want(la, want[i*64:(i+1)*64])
	}
	var bad []uint64
	eng.Run([]func(*sim.Core){func(c *sim.Core) {
		buf := make([]byte, 64)
		for i, la := range lines {
			c.Load(la, buf)
			if !bytes.Equal(buf, want[i*64:(i+1)*64]) {
				bad = append(bad, la)
			}
		}
	}})
	for _, la := range bad {
		u.sweepBad[la] = true
	}
	if u.design == param.Tvarak {
		// Every delivered byte must be correct: TVARAK verifies fills
		// and recovers before handing data over.
		u.rep.Undetected += len(bad)
		if len(bad) > 0 {
			u.rep.fail("sweep delivered wrong bytes at %#x (+%d more) under %s",
				bad[0], len(bad)-1, u.rep.Design)
		}
	}
}

// asyncReconcile is the asynchronous designs' reconciliation point,
// placed deterministically between the sweep and the verdicts: note
// which diverged lines sit inside an open epoch window (dirty, awaiting
// reconciliation), then run every scheme's full epoch pass — scrub of
// previously reconciled clean lines, then drain of the dirty set — on a
// spare core. No bugs are armed here and the sweep just loaded every
// written line, so the pass is deterministic and its loads are cache-hot.
func (u *unitCtx) asyncReconcile() {
	if u.design != param.Vilamb || len(u.sys.Vilambs) == 0 {
		return
	}
	for _, inj := range u.live {
		for _, a := range inj.addrs {
			if !u.o.Excluded(a) || u.inWindow[a] {
				continue
			}
			for _, v := range u.sys.Vilambs {
				if v.Pending(a) {
					u.inWindow[a] = true
					break
				}
			}
		}
	}
	u.sys.Eng.Run([]func(*sim.Core){func(c *sim.Core) {
		for _, v := range u.sys.Vilambs {
			v.ProcessEpoch(c)
		}
	}})
}

// resolveAsync settles the asynchronous designs' per-line verdicts after
// the reconciliation point. Every still-diverged line must be accounted
// for: repaired (exclusion cleared by EvRecovery), detected (scrub or
// battery verification emitted EvCorruption — quarantined lines stay
// excluded, which is permitted: detected-but-unrecovered), or absorbed
// inside an open epoch window (expected-silent — but a failure under the
// battery preset, whose staged intent CRCs promise a zero silent window).
// Anything else is an out-of-window miss and fails the unit.
func (u *unitCtx) resolveAsync() {
	battery := u.sys.Cfg.Async.Battery
	for _, inj := range u.live {
		rec := inj.rec
		if !rec.Fired || rec.Cancelled || inj.read {
			continue
		}
		still := inj.addrs[:0]
		for _, a := range inj.addrs {
			if !u.o.Excluded(a) {
				continue // repaired: EvRecovery cleared the exclusion
			}
			still = append(still, a)
			if u.asyncQuarantined(a) || u.o.DetectedAt(a) {
				continue
			}
			if u.inWindow[a] && !battery {
				rec.InWindow = true
				continue
			}
			if u.inWindow[a] {
				u.rep.fail("%s at %#x: battery preset absorbed in-window corruption at %#x silently",
					rec.Kind, rec.Addr, a)
				return
			}
			u.rep.Undetected++
			u.rep.fail("%s at %#x: out-of-window corruption at %#x neither detected nor repaired",
				rec.Kind, rec.Addr, a)
			return
		}
		inj.addrs = still
	}
}

// asyncQuarantined reports whether some scheme holds the line at addr in
// quarantine (detected corrupt, parity reconstruction unverifiable).
func (u *unitCtx) asyncQuarantined(addr uint64) bool {
	for _, v := range u.sys.Vilambs {
		if v.QuarantinedAddr(addr) {
			return true
		}
	}
	return false
}

// resolveAfterSweep settles read bugs (the sweep's loads consume them),
// requires — under TVARAK — that every diverged line has been recovered
// by now (its exclusion cleared by EvRecovery), and settles the round's
// per-injection verdicts.
func (u *unitCtx) resolveAfterSweep(round []*armedInj) {
	nvmm := u.sys.Eng.NVM
	for _, inj := range round {
		if !inj.read {
			continue
		}
		if nvmm.BugArmed(inj.rec.Addr) {
			// The target line was never read — cannot happen, the sweep
			// loads every written line; tolerate it as a cancel.
			nvmm.CancelBugs(inj.rec.Addr)
			inj.rec.Cancelled = true
			u.rep.Cancelled++
		} else {
			inj.rec.Fired = true
			u.rep.Fired++
		}
	}
	if u.design == param.Tvarak {
		for _, inj := range u.live {
			still := 0
			for _, a := range inj.addrs {
				if u.o.Excluded(a) {
					still++
				}
			}
			if still > 0 && inj.rec.Fired {
				u.rep.Unrecovered += still
				u.rep.fail("%s at %#x: %d corrupted line(s) not recovered after sweep",
					inj.rec.Kind, inj.rec.Addr, still)
				return
			}
		}
	}
	if u.design == param.Vilamb {
		u.resolveAsync()
		if u.rep.Failure != "" {
			return
		}
	}
	u.settleRecords()
}

// settleRecords refreshes per-injection detection/recovery flags and
// releases the parity groups of resolved injections. Under TVARAK every
// fired injection is resolved by the sweep; under Baseline an injection
// whose corruption persists on media keeps its group occupied forever,
// so later injections pick elsewhere and stay independently attributable.
func (u *unitCtx) settleRecords() {
	keep := u.live[:0]
	for _, inj := range u.live {
		rec := inj.rec
		if rec.Cancelled {
			u.release(inj)
			continue
		}
		if !rec.Fired {
			keep = append(keep, inj)
			continue
		}
		rec.Detected = u.o.DetectedAt(rec.Addr) ||
			(rec.Victim != 0 && u.o.DetectedAt(rec.Victim))
		rec.Recovered = u.o.RecoveredAt(rec.Addr) ||
			(rec.Victim != 0 && u.o.RecoveredAt(rec.Victim))
		if !rec.Detected && !rec.Recovered && len(inj.addrs) == 0 {
			if inj.read {
				rec.Benign = !u.evidence(rec.Addr)
			} else {
				rec.Benign = true
			}
		}
		if u.design == param.Tvarak || rec.Benign || (len(inj.addrs) == 0 && !inj.read) {
			u.release(inj)
			continue
		}
		keep = append(keep, inj)
	}
	u.live = keep
}

func (u *unitCtx) release(inj *armedInj) {
	for _, g := range inj.groups {
		delete(u.groups, g)
	}
	inj.groups = nil
}

// evidence reports whether the oracle observed corruption at the line:
// a silent read, a sweep divergence, or an ECC-flagged read.
func (u *unitCtx) evidence(addr uint64) bool {
	if u.sweepBad[addr] {
		return true
	}
	for _, a := range u.o.SilentReads() {
		if a == addr {
			return true
		}
	}
	return u.eccAt(addr)
}

func (u *unitCtx) eccAt(addr uint64) bool {
	for _, a := range u.o.ECCReads() {
		if a == addr {
			return true
		}
	}
	return false
}

// crashPoint simulates a crash-with-media-damage and exercises the
// daxfs recovery path: corrupt a mapped file page with bit flips, run
// RecoverFilePage, and require byte-identical restoration against the
// oracle's shadow. The oracle is paused so neither the damage nor the
// reconstruction's raw writes leak into the model of intended content.
// It runs only after a clean sweep, so no exclusions are outstanding
// and the page's stripe holds exactly the shadow content.
func (u *unitCtx) crashPoint(rng *rand.Rand) error {
	var files []*daxfs.File
	for _, f := range u.sys.FS.Files() {
		if f.Mapped() && f.Pages > 0 {
			files = append(files, f)
		}
	}
	if len(files) == 0 {
		return nil
	}
	f := files[rng.Intn(len(files))]
	page := uint64(rng.Int63n(int64(f.Pages)))
	geo := &u.sys.Eng.Geo
	base := geo.DataIndexAddr(f.StartDI+page, 0)
	ps := uint64(geo.PageSize)
	u.o.Pause()
	defer u.o.Resume()
	want := make([]byte, ps)
	u.o.ShadowRange(base, want)
	for i := 0; i < 4; i++ {
		u.sys.Eng.NVM.FlipBit(base+uint64(rng.Int63n(int64(ps))), uint(rng.Intn(8)))
	}
	if err := u.sys.FS.RecoverFilePage(f, page); err != nil {
		return err
	}
	got := make([]byte, ps)
	u.sys.Eng.NVM.ReadRaw(base, got)
	if !bytes.Equal(got, want) {
		return fmt.Errorf("page %d of %q not byte-identical after RecoverFilePage", page, f.Name)
	}
	return nil
}

// testFailMinFired, when positive, fails any unit whose fired-injection
// count reaches it — a deterministic failure source so the shrinker can
// be tested against real unit re-runs. Never set outside tests.
var testFailMinFired int

// finish runs the end-of-unit exhaustive checks and the per-design
// verdicts.
func (u *unitCtx) finish() {
	rep := u.rep
	if testFailMinFired > 0 && rep.Fired >= testFailMinFired {
		rep.fail("test hook: %d injection(s) fired (threshold %d)", rep.Fired, testFailMinFired)
	}
	o := u.o
	st := u.sys.Eng.St
	rep.Detections = st.CorruptionsDetected
	rep.Recoveries = st.Recoveries
	rep.ECCErrors = st.ECCErrors
	rep.PhaseChecks = o.PhaseChecks()

	if err := o.PhaseErr(); err != nil {
		rep.fail("phase cross-check: %v", err)
	}
	if br := o.BadRepairs(); len(br) > 0 {
		rep.fail("recovery restored wrong content at %#x", br[0])
	}
	if divs := o.VerifyMedia(); len(divs) > 0 {
		rep.fail("media diverges from intent outside injected lines: %v (+%d more)",
			divs[0], len(divs)-1)
	}
	if divs := o.VerifyPageCsums(); len(divs) > 0 {
		rep.fail("page checksum table stale: %v", divs[0])
	}

	if u.design == param.Tvarak {
		if ex := o.ExcludedLines(); len(ex) > 0 {
			rep.Unrecovered += len(ex)
			rep.fail("%d corrupted line(s) never recovered, first %#x", len(ex), ex[0])
		}
		if sr := o.SilentReads(); len(sr) > 0 {
			rep.Undetected += len(sr)
			rep.fail("%d silent corrupt read(s), first %#x", len(sr), sr[0])
		}
		if divs := o.VerifyRedundancy(); len(divs) > 0 {
			rep.fail("persistent redundancy diverges from shadow: %v (+%d more)",
				divs[0], len(divs)-1)
		}
		if err := u.sys.Eng.CheckInvariantsAgainst(o); err != nil {
			rep.fail("engine invariants: %v", err)
		}
		if u.sys.Ctrl != nil {
			if err := u.sys.Ctrl.CheckInvariants(); err != nil {
				rep.fail("controller invariants: %v", err)
			}
		}
		return
	}

	if u.design == param.Vilamb {
		u.finishAsync()
		return
	}

	// Baseline: no detections, and every fired non-benign firmware bug
	// must be oracle-confirmed silent (bit flips are ECC-visible, which
	// is detection by the device, not the design — still not silent).
	if st.CorruptionsDetected != 0 {
		rep.fail("baseline reported %d detections", st.CorruptionsDetected)
	}
	firmwareFired := 0
	for _, rec := range rep.Injections {
		if !rec.Fired || rec.Benign || rec.Cancelled {
			continue
		}
		if rec.Kind == BitFlip.String() {
			rec.ECC = u.eccAt(rec.Addr)
			continue
		}
		firmwareFired++
		rec.Silent = u.evidence(rec.Addr) || (rec.Victim != 0 && u.evidence(rec.Victim))
		if rec.Silent {
			rep.SilentCorruptions++
		} else {
			rep.fail("%s at %#x fired but the oracle saw no corruption evidence",
				rec.Kind, rec.Addr)
		}
	}
	if firmwareFired > 0 && rep.SilentCorruptions == 0 {
		rep.fail("%d firmware bugs fired yet none were confirmed silent", firmwareFired)
	}
}

// finishAsync settles the asynchronous designs' unit-level verdicts.
// Epoch-aware semantics: a corruption absorbed inside an open epoch
// window is expected-silent (the oracle must still hold evidence of it —
// the window is a real exposure, not a free pass); everything outside a
// window must have been detected, with quarantine (detected, unrepaired)
// permitted. Misdirected reads are undetectable by any async design —
// there is no read-path verification — so they follow Baseline's
// confirmed-silent rule. Per-line misses already failed the unit in
// resolveAsync; this pass cross-checks the oracle evidence and fills the
// vulnerability-window accounting.
func (u *unitCtx) finishAsync() {
	rep := u.rep
	st := u.sys.Eng.St
	rep.QuarantinedLines = st.AsyncQuarantined
	rep.WindowCyc = st.AsyncWindowCyc
	rep.WindowLines = st.AsyncWindowLines
	for _, rec := range rep.Injections {
		if !rec.Fired || rec.Benign || rec.Cancelled {
			continue
		}
		if rec.Kind == BitFlip.String() {
			rec.ECC = u.eccAt(rec.Addr)
		}
		switch {
		case rec.Kind == MisdirectedRead.String():
			rec.Silent = u.evidence(rec.Addr) || (rec.Victim != 0 && u.evidence(rec.Victim))
			if rec.Silent {
				rep.SilentCorruptions++
			} else {
				rep.fail("%s at %#x fired but the oracle saw no corruption evidence",
					rec.Kind, rec.Addr)
			}
		case rec.InWindow:
			rec.Silent = u.evidence(rec.Addr) || (rec.Victim != 0 && u.evidence(rec.Victim))
			if !rec.Silent && !rec.Detected {
				rep.fail("%s at %#x absorbed in-window yet the oracle saw no corruption evidence",
					rec.Kind, rec.Addr)
			}
			rep.SilentCorruptions++
			rep.InWindowSilent++
		}
	}
}
