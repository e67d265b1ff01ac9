// Command soakcheck analyzes a tvarak-soak ledger and turns it into a
// verdict: it exits non-zero on any undetected corruption, any
// unrecovered fault on a TVARAK design, any unit failure, any
// kill/resume identity mismatch, or any resource-gate finding — the soak
// acceptance bar (DESIGN.md §10). The verdict logic itself lives in
// internal/soak (soak.Check); this CLI only parses flags and renders.
//
// Usage:
//
//	soakcheck -ledger soak.jsonl                 # verdict + summary
//	soakcheck -ledger soak.jsonl -require-chaos 1
//	soakcheck -ledger soak.jsonl -canon          # canonical projection to stdout
//
// -canon prints each line's deterministic projection (wall-clock fields
// zeroed) as JSONL: two same-seed bounded runs must produce byte-identical
// -canon output, which is CI's reproducibility gate.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"

	"tvarak/internal/soak"
)

func main() {
	var (
		ledger       = flag.String("ledger", "", "soak ledger (JSONL) to analyze")
		canon        = flag.Bool("canon", false, "print the ledger's canonical (deterministic) projection and exit")
		requireChaos = flag.Int("require-chaos", 0, "fail unless at least this many kill/resume chaos cycles ran")
		verbose      = flag.Bool("v", false, "print the per-design breakdown even when clean")
	)
	flag.Parse()
	if *ledger == "" {
		fmt.Fprintln(os.Stderr, "soakcheck: -ledger required")
		os.Exit(2)
	}

	f, err := os.Open(*ledger)
	if err != nil {
		fatal(err)
	}
	lines, err := soak.ReadLedger(f)
	f.Close()
	if err != nil {
		fatal(err)
	}
	if len(lines) == 0 {
		fatal(fmt.Errorf("%s: empty ledger", *ledger))
	}

	if *canon {
		enc := json.NewEncoder(os.Stdout)
		for _, l := range lines {
			if err := enc.Encode(l.Canonical()); err != nil {
				fatal(err)
			}
		}
		return
	}

	tally := soak.TallyLines(lines)
	problems := soak.Check(lines)
	if tally.Chaos < *requireChaos {
		problems = append(problems, soak.Problem{
			Reason: fmt.Sprintf("only %d chaos kill/resume cycle(s) ran, need >= %d", tally.Chaos, *requireChaos),
		})
	}

	if *verbose || len(problems) > 0 {
		fmt.Printf("%s: %d units, %.1fs simulated wall time\n", *ledger, tally.Units, float64(tally.WallMS)/1000)
		designs := make([]string, 0, len(tally.ByDesign))
		for d := range tally.ByDesign {
			designs = append(designs, d)
		}
		sort.Strings(designs)
		for _, d := range designs {
			fmt.Printf("  %-18s %d units\n", d, tally.ByDesign[d])
		}
		fmt.Printf("  chaos cycles %d (%d killed, %d resumed), gate checks %d\n",
			tally.Chaos, tally.Killed, tally.Resumed, tally.GateChecks)
		fmt.Printf("  injections: %d armed, %d fired, %d detected, %d recovered, %d confirmed-silent\n",
			tally.Armed, tally.Fired, tally.Detected, tally.Recovered, tally.Silent)
	}
	if len(problems) == 0 {
		fmt.Printf("soakcheck: clean (%d units, %d chaos cycles)\n", tally.Units, tally.Chaos)
		return
	}
	for _, p := range problems {
		fmt.Printf("soakcheck: PROBLEM %s\n", p)
	}
	os.Exit(1)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "soakcheck:", err)
	os.Exit(1)
}
