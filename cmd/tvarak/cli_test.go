package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"testing"

	"tvarak/internal/fleet"
	"tvarak/internal/harness"
	"tvarak/internal/soak"
)

// TestFlagSurface pins every subcommand's flags — names, value types and
// defaults — to testdata/flags.txt, the surface of the standalone commands
// the subcommands replaced: no flag added, removed, renamed or re-typed.
func TestFlagSurface(t *testing.T) {
	data, err := os.ReadFile("testdata/flags.txt")
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, l := range strings.Split(string(data), "\n") {
		if l != "" && !strings.HasPrefix(l, "#") {
			want = append(want, l)
		}
	}
	var got []string
	for _, c := range commands {
		c.new().flags().VisitAll(func(f *flag.Flag) {
			def := f.DefValue
			if c.name == "sim" && f.Name == "parallel" && def == strconv.Itoa(runtime.NumCPU()) {
				def = "NumCPU"
			}
			got = append(got, fmt.Sprintf("%s %s %T %q", c.name, f.Name, f.Value.(flag.Getter).Get(), def))
		})
	}
	sort.Strings(want)
	sort.Strings(got)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("flag surface drifted:\n got: %q\nwant: %q", got, want)
	}
}

// TestNoEnvironment keeps the flags the command's only input: no
// environment variable is read.
func TestNoEnvironment(t *testing.T) {
	files, _ := filepath.Glob("*.go")
	for _, f := range files {
		if strings.HasSuffix(f, "_test.go") {
			continue
		}
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, call := range []string{"Getenv(", "LookupEnv(", "Environ("} {
			if strings.Contains(string(src), call) {
				t.Errorf("%s reads the environment (%s)", f, call)
			}
		}
	}
}

// shellWords splits a command line with sh itself.
func shellWords(t *testing.T, line string) []string {
	out, err := exec.Command("sh", "-c", `printf '%s\0' `+line).Output()
	if err != nil {
		t.Fatalf("sh cannot parse %q: %v", line, err)
	}
	return strings.Split(strings.TrimSuffix(string(out), "\x00"), "\x00")
}

// TestResumeHintRoundTrip parses each interrupted run's resume hint with
// the subcommand's own flag set: it must select the same JobSpec, name the
// same journal and output paths, and add -resume.
func TestResumeHintRoundTrip(t *testing.T) {
	// parse returns the JobSpec and the journal/output flag values args select.
	parse := func(sub string, args []string) (fleet.JobSpec, map[string]string) {
		var cmd command
		var job *jobFlags
		switch sub {
		case "sim":
			c := newSim()
			cmd, job = c, &c.job
		case "fault":
			c := newFault()
			cmd, job = c, &c.job
		case "gateway":
			c := newGateway()
			cmd, job = c, &c.job
		}
		cmd.flags().Parse(args)
		spec, err := job.spec()
		if err != nil {
			t.Fatal(err)
		}
		outs := map[string]string{}
		for _, name := range []string{"journal", "resume", "metrics-out", "trace", "report", "summary-file"} {
			if f := cmd.flags().Lookup(name); f != nil {
				outs[name] = f.Value.String()
			}
		}
		return spec, outs
	}
	for _, args := range [][]string{
		{"sim", "-exp", "fig8-stream,fig8-redis", "-scale", "0.05", "-designs", "baseline, txb-page",
			"-sample-every", "1000", "-epoch", "4096", "-dirty-gran", "line", "-incremental",
			"-journal", "run dir/it's.journal", "-metrics-out", "out.json", "-trace", "t.jsonl", "-parallel", "2"},
		{"fault", "-campaign", "-seed", "7", "-n", "56", "-designs", "tvarak,vilamb", "-battery",
			"-journal", "c.journal", "-report", "r $1.jsonl"},
		{"gateway", "-campaign", "-seed", "3", "-apps", "redis,ctree", "-designs", "Vilamb",
			"-epoch", "22700", "-journal", "g.journal", "-report", "-", "-summary-file", "s.json"},
		{"gateway", "-exp", "ext-async-mini", "-scale", "0.02", "-full", "-designs", "txb-object",
			"-dirty-gran", "range", "-journal", "g.journal", "-metrics-out", "m.csv", "-resume"},
	} {
		spec, outs := parse(args[0], args[1:])
		hint := resumeCommand(args, outs["resume"] == "true")
		words := shellWords(t, hint)
		if len(words) < 2 || words[0] != "tvarak" || words[1] != args[0] {
			t.Fatalf("hint %q does not invoke tvarak %s", hint, args[0])
		}
		gotSpec, gotOuts := parse(args[0], words[2:])
		outs["resume"] = "true"
		if !reflect.DeepEqual(gotSpec, spec) || !reflect.DeepEqual(gotOuts, outs) {
			t.Errorf("hint %q selects %+v %v; the run was %+v %v", hint, gotSpec, gotOuts, spec, outs)
		}
		if again := resumeCommand(words[1:], true); again != hint {
			t.Errorf("hint of the resumed run = %q, want it unchanged: %q", again, hint)
		}
	}
}

// soakJournal opens the soak journal the given flags select.
func soakJournal(args ...string) (*harness.Journal, string, error) {
	c := newSoak()
	c.fs.Parse(append([]string{"-units", "1"}, args...))
	cfg, err := c.config()
	if err != nil {
		return nil, "", err
	}
	j, err := c.journal.open(cfg.Scope())
	return j, cfg.Scope(), err
}

// TestSoakJournalScope: the soak journal is bound to the unit stream, so
// -resume under another seed, design set or async pin fails naming both
// scopes, while a matching or legacy header-less journal resumes.
func TestSoakJournalScope(t *testing.T) {
	path := filepath.Join(t.TempDir(), "soak.journal")
	j, scope, err := soakJournal("-seed", "1", "-journal", path)
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	for _, skew := range [][]string{
		{"-seed", "2"},
		{"-seed", "1", "-designs", "txb-page"},
		{"-seed", "1", "-pin-async", "-epoch", "4096"},
	} {
		_, other, err := soakJournal(append(skew, "-journal", path, "-resume")...)
		if err == nil || !strings.Contains(err.Error(), strconv.Quote(scope)) || !strings.Contains(err.Error(), strconv.Quote(other)) {
			t.Errorf("resume with %v: err = %v, want a scope mismatch naming %q and %q", skew, err, scope, other)
		}
	}
	if j, _, err = soakJournal("-seed", "1", "-journal", path, "-resume"); err != nil {
		t.Fatalf("resume under the same stream: %v", err)
	}
	j.Close()

	line, err := harness.EncodeRecord("soak-unit", "soak|seed=1|i=0|x", map[string]int{"armed": 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(line, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	j, _, err = soakJournal("-seed", "9", "-journal", path, "-resume")
	if err != nil {
		t.Fatalf("legacy header-less journal rejected: %v", err)
	}
	defer j.Close()
	if j.Restored() != 1 {
		t.Errorf("legacy journal restored %d records, want 1", j.Restored())
	}
}

// TestSoakDesignsTxBPage: -designs accepts every alias the other
// subcommands do; txb-page used to be rejected by soak alone.
func TestSoakDesignsTxBPage(t *testing.T) {
	c := newSoak()
	c.fs.Parse([]string{"-designs", "txb-page", "-units", "1", "-chaos-every", "0", "-gate-every", "0",
		"-ledger", filepath.Join(t.TempDir(), "soak.jsonl")})
	cfg, err := c.config()
	if err != nil {
		t.Fatal(err)
	}
	var lines []soak.LedgerLine
	cfg.Progress = func(l soak.LedgerLine) { lines = append(lines, l) }
	if _, err := soak.Run(cfg); err != nil {
		t.Fatal(err)
	}
	if len(lines) != 1 || lines[0].Design != "TxB-Page-Csums" || lines[0].Failure != "" {
		t.Errorf("soak -designs txb-page ledger = %+v, want one clean TxB-Page-Csums unit", lines)
	}
}
