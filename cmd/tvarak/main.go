// Command tvarak is the reproduction's command-line tool. Each subcommand
// reaches one part of the evaluation:
//
//	tvarak sim        run the paper's experiments (Figs. 8-9, Table I, the async family)
//	tvarak fault      firmware-bug demo (Figs. 1-2), or the oracle-judged fault campaign
//	tvarak soak       continuous soak + chaos harness (DESIGN.md §10)
//	tvarak gateway    coordinate a distributed sweep or campaign (DESIGN.md §11)
//	tvarak worker     execute units leased from a gateway
//	tvarak opscheck   analyze an ops resource ledger
//	tvarak soakcheck  turn a soak ledger into a verdict
//
// `tvarak <sub> -h` lists a subcommand's flags. Flags shared between
// subcommands are declared once and mean the same thing everywhere: the
// job-shape flags (-exp, -scale, -designs, -epoch, ...), -ops-*,
// -journal/-resume and -cpuprofile/-memprofile.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"regexp"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"

	"tvarak/internal/fault"
	"tvarak/internal/fleet"
	"tvarak/internal/harness"
	"tvarak/internal/live"
	"tvarak/internal/obs"
	"tvarak/internal/param"
)

// command is one subcommand: its flag set plus the body run once the flags
// have parsed.
type command interface {
	flags() *flag.FlagSet
	run()
}

var commands = []struct {
	name, summary string
	new           func() command
}{
	{"sim", "run the paper's experiments and print its tables", func() command { return newSim() }},
	{"fault", "firmware-bug demo, or the oracle-judged fault campaign", func() command { return newFault() }},
	{"soak", "continuous soak + chaos harness", func() command { return newSoak() }},
	{"gateway", "coordinate a distributed sweep or fault campaign", func() command { return newGateway() }},
	{"worker", "execute units for a gateway", func() command { return newWorker() }},
	{"opscheck", "analyze an ops resource ledger", func() command { return newOpscheck() }},
	{"soakcheck", "turn a soak ledger into a verdict", func() command { return newSoakcheck() }},
}

func main() {
	if len(os.Args) > 1 {
		for _, c := range commands {
			if c.name == os.Args[1] {
				prog = "tvarak " + c.name
				cmd := c.new()
				cmd.flags().Parse(os.Args[2:]) // ExitOnError
				cmd.run()
				return
			}
		}
	}
	fmt.Fprintln(os.Stderr, "usage: tvarak <subcommand> [flags]  (tvarak <subcommand> -h for its flags)")
	for _, c := range commands {
		fmt.Fprintf(os.Stderr, "  %-10s %s\n", c.name, c.summary)
	}
	os.Exit(2)
}

// base carries a subcommand's flag set.
type base struct{ fs *flag.FlagSet }

func newBase(name string) base { return base{flag.NewFlagSet("tvarak "+name, flag.ExitOnError)} }

func (b base) flags() *flag.FlagSet { return b.fs }

// prog prefixes diagnostics: "tvarak <sub>" once a subcommand is chosen.
var prog = "tvarak"

func warnf(format string, a ...any) {
	fmt.Fprintf(os.Stderr, prog+": "+format+"\n", a...)
}

func fatal(err error) {
	warnf("%v", err)
	os.Exit(1)
}

// usageErr reports a bad invocation and exits 2.
func usageErr(msg string) {
	warnf("%s", msg)
	os.Exit(2)
}

// signalContext is cancelled by SIGINT/SIGTERM: runs stop cooperatively at
// their next phase or unit boundary and flush what completed.
func signalContext() (context.Context, context.CancelFunc) {
	return signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
}

// jobFlags binds the flags that shape a job. spec assembles them into the
// fleet.JobSpec that sim, fault and gateway all derive their options from
// (the same JobSpec.ExperimentOptions / CampaignOptions path BuildPlan
// takes), so a local run and a fleet run of one command line agree.
type jobFlags struct {
	raw      fleet.JobSpec // scalar fields, bound directly
	designs  string        // -designs, verbatim (sim's journal scope quotes it)
	apps     string        // -apps (gateway only: a local campaign covers every application)
	campaign bool
}

// addSweep registers the sweep-selecting flags.
func (j *jobFlags) addSweep(fs *flag.FlagSet) {
	fs.StringVar(&j.raw.Experiment, "exp", "", "experiment id; sim also takes 'all' or a comma list (see tvarak sim -list)")
	fs.Float64Var(&j.raw.Scale, "scale", 1.0, "multiply measured operation counts")
	fs.BoolVar(&j.raw.FullScale, "full", false, "use the paper's full-scale machine (24 MB LLC) instead of the 1/16-scale reproduction machine")
	fs.Uint64Var(&j.raw.SampleEvery, "sample-every", 0, "epoch length in cycles for per-run time series in the export (0 = aggregates only)")
}

// addCampaign registers the campaign-selecting flags.
func (j *jobFlags) addCampaign(fs *flag.FlagSet) {
	fs.BoolVar(&j.campaign, "campaign", false, "run the oracle-judged fault-injection campaign")
	fs.Int64Var(&j.raw.Seed, "seed", 1, "campaign seed (same seed: byte-identical report)")
	fs.IntVar(&j.raw.N, "n", 112, "campaign injections per design, split across the applications")
}

// addShape registers -designs and the four async (Vilamb-family) flags.
func (j *jobFlags) addShape(fs *flag.FlagSet) {
	fs.StringVar(&j.designs, "designs", "", "comma-separated designs: baseline,tvarak,txb-object,txb-page,vilamb (empty = the command's default set)")
	fs.Uint64Var(&j.raw.EpochCyc, "epoch", 0, "async (vilamb-family) epoch interval in cycles (0 = the design default)")
	fs.StringVar(&j.raw.DirtyGran, "dirty-gran", "", "async dirty-tracking granularity: page, line or range (default page)")
	fs.BoolVar(&j.raw.Battery, "battery", false, "async battery-backed-DRAM preset: line-granular staged intent checksums, zero vulnerability window")
	fs.BoolVar(&j.raw.Incremental, "incremental", false, "spread each async epoch's reconciliation across sub-slices instead of one batched pass")
}

// spec assembles the job: design names canonicalized to Design.String()
// (the wire form), and only the fields of the selected kind set.
func (j *jobFlags) spec() (fleet.JobSpec, error) {
	designs, err := param.ParseDesigns(j.designs)
	if err != nil {
		return fleet.JobSpec{}, err
	}
	s := j.raw
	s.Designs = nil
	for _, d := range designs {
		s.Designs = append(s.Designs, d.String())
	}
	if !j.campaign {
		s.Kind, s.Seed, s.N = "sweep", 0, 0
		return s, nil
	}
	if s.Experiment != "" {
		return s, errors.New("-campaign and -exp are mutually exclusive")
	}
	s.Kind, s.Scale, s.FullScale, s.SampleEvery = "campaign", 0, false, 0
	for _, a := range strings.Split(j.apps, ",") {
		if a = strings.TrimSpace(a); a != "" {
			s.Apps = append(s.Apps, a)
		}
	}
	return s, nil
}

// opsFlags is the live ops bundle's flag group (DESIGN.md §9).
type opsFlags struct {
	addr, addrFile, ledger string
	sample                 time.Duration
}

func addOpsFlags(fs *flag.FlagSet) *opsFlags {
	o := &opsFlags{}
	fs.StringVar(&o.addr, "ops-addr", "", "serve live ops HTTP on this address (/healthz, /runs, /debug/pprof); use :0 for a free port")
	fs.StringVar(&o.addrFile, "ops-addr-file", "", "write the resolved ops listen address to this file (for scripts using -ops-addr :0)")
	fs.StringVar(&o.ledger, "ops-ledger", "", "append periodic resource samples (heap, goroutines, RSS, throughput) as JSONL to this path; analyze with tvarak opscheck")
	fs.DurationVar(&o.sample, "ops-sample", time.Second, "resource sample interval for -ops-ledger")
	return o
}

func (o *opsFlags) enabled() bool { return o.addr != "" || o.ledger != "" }

// start serves lt per the flags; nil (and a no-op Close) when neither
// -ops-addr nor -ops-ledger is set.
func (o *opsFlags) start(lt *live.Telemetry) *live.Ops {
	ops, err := live.StartOps(lt, live.OpsConfig{
		Addr: o.addr, AddrFile: o.addrFile, LedgerPath: o.ledger, SampleEvery: o.sample,
	})
	if err != nil {
		fatal(err)
	}
	if a := ops.Addr(); a != "" {
		warnf("ops listening on http://%s", a)
	}
	return ops
}

// closeOps shuts the ops bundle down: the final resource sample lands in
// the ledger and the HTTP goroutines exit (ci.sh's ops gate asserts the
// teardown is leak-free).
func closeOps(ops *live.Ops) {
	if err := ops.Close(); err != nil {
		warnf("closing ops: %v", err)
	}
}

// journalFlags is the crash-safe checkpoint group (DESIGN.md §7).
type journalFlags struct {
	path   string
	resume bool
}

func addJournalFlags(fs *flag.FlagSet) *journalFlags {
	j := &journalFlags{}
	fs.StringVar(&j.path, "journal", "", "checkpoint each finished cell or unit durably (fsync'd) to this JSONL journal; an interrupted run resumes from it with -resume")
	fs.BoolVar(&j.resume, "resume", false, "reopen -journal and restore already-checkpointed cells or units instead of re-running them (output is byte-identical to an uninterrupted run)")
	return j
}

// open returns the journal bound to scope, or nil without -journal. A
// fresh journal stamps scope into its header; -resume reopens it under the
// scope handshake, so a journal written for other options fails naming
// both scopes (a legacy header-less journal is still accepted).
func (j *journalFlags) open(scope string) (*harness.Journal, error) {
	if j.path == "" {
		if j.resume {
			return nil, errors.New("-resume requires -journal")
		}
		return nil, nil
	}
	if !j.resume {
		return harness.NewJournalScope(j.path, scope)
	}
	jr, err := harness.OpenJournalScope(j.path, scope)
	if err != nil {
		return nil, err
	}
	msg := fmt.Sprintf("resuming from %s: %d record(s) restorable", jr.Path(), jr.Restored())
	if c := jr.CorruptLines(); c > 0 {
		msg += fmt.Sprintf(", %d corrupt line(s) skipped", c)
	}
	warnf("%s", msg)
	return jr, nil
}

// hint tells an interrupted run how to finish.
func (j *journalFlags) hint() string {
	if j.path == "" {
		return "re-run to finish (add -journal to make interrupted runs resumable)"
	}
	return "resume with: " + resumeCommand(os.Args[1:], j.resume)
}

// resumeCommand is the invocation args (subcommand first), shell-quoted,
// plus -resume unless it is already there: every flag that shaped the run
// and named its outputs carries over.
func resumeCommand(args []string, resumed bool) string {
	words := []string{"tvarak"}
	for _, a := range args {
		words = append(words, shellQuote(a))
	}
	if !resumed {
		words = append(words, "-resume")
	}
	return strings.Join(words, " ")
}

var shellSafe = regexp.MustCompile(`^[A-Za-z0-9_@%+=:,./-]+$`)

func shellQuote(s string) string {
	if shellSafe.MatchString(s) {
		return s
	}
	return "'" + strings.ReplaceAll(s, "'", `'\''`) + "'"
}

// profFlags is the pprof group.
type profFlags struct{ cpu, mem string }

func addProfFlags(fs *flag.FlagSet) *profFlags {
	p := &profFlags{}
	fs.StringVar(&p.cpu, "cpuprofile", "", "write a pprof CPU profile of the run to this path")
	fs.StringVar(&p.mem, "memprofile", "", "write a pprof heap profile taken after the run to this path")
	return p
}

// start begins the CPU profile; the returned stop ends it and writes the
// heap profile.
func (p *profFlags) start() (stop func()) {
	var cpu *os.File
	if p.cpu != "" {
		f, err := os.Create(p.cpu)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		cpu = f
	}
	return func() {
		if cpu != nil {
			pprof.StopCPUProfile()
			cpu.Close()
		}
		if p.mem == "" {
			return
		}
		f, err := os.Create(p.mem)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fatal(err)
		}
	}
}

// writeExport serializes a metrics export, CSV when the path ends in .csv
// and JSON otherwise.
func writeExport(x *obs.Export, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if strings.HasSuffix(path, ".csv") {
		err = x.WriteCSV(f)
	} else {
		err = x.WriteJSON(f)
	}
	if err != nil {
		return err
	}
	return f.Close()
}

// finishCampaign writes a campaign report's JSONL to path ("" = none,
// "-" = stdout) and prints its one-line summary.
func finishCampaign(rep *fault.Report, path string) error {
	if path != "" {
		var w io.Writer = os.Stdout
		if path != "-" {
			f, err := os.Create(path)
			if err != nil {
				return err
			}
			defer f.Close()
			w = f
		}
		if err := fault.WriteJSONL(w, rep); err != nil {
			return err
		}
	}
	fmt.Printf("campaign: %d units, %d fired, %d silent under baseline, %d undetected, %d unrecovered, %d crash points, %d failures\n",
		len(rep.Units), rep.Fired, rep.SilentCorruptions, rep.Undetected, rep.Unrecovered, rep.CrashPoints, rep.Failures)
	return nil
}
