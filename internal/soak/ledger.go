package soak

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"

	"tvarak/internal/fault"
	"tvarak/internal/param"
)

// LedgerVersion stamps every soak ledger line; lines with a different
// version are a hard error (a soak ledger is an audit artifact — silently
// reinterpreting an incompatible one would defeat its purpose).
const LedgerVersion = 1

// LedgerLine is one unit's outcome in the cumulative soak ledger. The
// line splits into two domains:
//
// Deterministic fields are pure functions of (Seed, Index) plus the
// repository's simulation determinism — a same-seed rerun reproduces them
// byte-for-byte, which is what `soakcheck -canon` projects out and the CI
// identity gate compares.
//
// Wall-clock fields (WallMS, Resumed, Killed, GateFindings) record what
// this particular run experienced — how long the unit took, whether the
// chaos victim was actually torn down mid-run, whether the supervisor
// journal restored the unit, what the resource gates said — and are
// excluded from the canonical projection.
type LedgerLine struct {
	V     int    `json:"v"`
	Seed  int64  `json:"seed"` // master soak seed
	Index int    `json:"i"`    // position in the unit stream
	Key   string `json:"key"`  // Unit.Fingerprint(Seed)

	App      string `json:"app"`
	Design   string `json:"design"`
	N        int    `json:"n"`
	UnitSeed int64  `json:"unitSeed"`

	Armed       int    `json:"armed"`
	Fired       int    `json:"fired"`
	Detected    uint64 `json:"detected"`
	Recovered   uint64 `json:"recovered"`
	Silent      int    `json:"silent"`
	Undetected  int    `json:"undetected"`
	Unrecovered int    `json:"unrecovered"`
	AppPanics   int    `json:"appPanics,omitempty"`
	Failure     string `json:"failure,omitempty"`

	// Chaos marks the units the supervisor also ran through a chaos cycle
	// (a SIGKILLed fleet worker, the unit redelivered to a survivor);
	// IdentityOK is that cycle's byte-identity verdict (accepted fleet
	// payload vs uninterrupted in-process reference, false also on a
	// gateway divergence verdict).
	Chaos      bool  `json:"chaos,omitempty"`
	IdentityOK *bool `json:"identityOK,omitempty"`

	// Wall-clock domain.
	WallMS  int64 `json:"wallMS"`
	Resumed bool  `json:"resumed,omitempty"` // restored from the supervisor journal instead of simulated
	Killed  bool  `json:"killed,omitempty"`  // SIGKILL landed before the chaos victim exited
	// GateFindings is nil on lines where no resource-gate check ran, an
	// empty list for a clean check, and the finding strings otherwise —
	// deliberately not omitempty so a clean check stays distinguishable
	// from no check in the ledger.
	GateFindings []string `json:"gateFindings"`
}

// fromReport fills the deterministic outcome fields from a unit report.
func (l *LedgerLine) fromReport(rep *fault.UnitReport) {
	l.Armed = rep.Armed
	l.Fired = rep.Fired
	l.Detected = rep.Detections
	l.Recovered = rep.Recoveries
	l.Silent = rep.SilentCorruptions
	l.Undetected = rep.Undetected
	l.Unrecovered = rep.Unrecovered
	l.AppPanics = rep.AppPanics
	l.Failure = rep.Failure
}

// Canonical returns the line's deterministic projection: the wall-clock
// fields zeroed so that two same-seed runs — regardless of machine load,
// kill timing, or gate cadence luck — produce byte-identical encodings.
func (l LedgerLine) Canonical() LedgerLine {
	l.WallMS = 0
	l.Resumed = false
	l.Killed = false
	l.GateFindings = nil
	return l
}

// Ledger is the fsync'd append-only JSONL soak ledger: one line per
// finished unit, durable before the unit is acknowledged, so a killed
// soak run loses at most the line being written (the tolerant reader
// drops a torn tail). Safe for use by one process at a time.
type Ledger struct {
	mu sync.Mutex
	f  *os.File
}

// CreateLedger creates (or truncates) a soak ledger at path.
func CreateLedger(path string) (*Ledger, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("soak: creating ledger: %w", err)
	}
	return &Ledger{f: f}, nil
}

// Append durably writes one line: marshalled, newline-terminated, fsync'd.
func (l *Ledger) Append(line LedgerLine) error {
	line.V = LedgerVersion
	data, err := json.Marshal(line)
	if err != nil {
		return fmt.Errorf("soak: marshalling ledger line: %w", err)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, err := l.f.Write(append(data, '\n')); err != nil {
		return fmt.Errorf("soak: appending ledger line: %w", err)
	}
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("soak: syncing ledger: %w", err)
	}
	return nil
}

// Close syncs and closes the ledger file.
func (l *Ledger) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	err := l.f.Sync()
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	l.f = nil
	return err
}

// ReadLedger parses a soak ledger. Blank lines are skipped and a torn
// final line (the process was killed mid-append) is dropped; any other
// malformed or wrong-version line is a hard error.
func ReadLedger(r io.Reader) ([]LedgerLine, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	var raw [][]byte
	for sc.Scan() {
		if line := sc.Bytes(); len(line) > 0 {
			raw = append(raw, append([]byte(nil), line...))
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	var out []LedgerLine
	for i, line := range raw {
		var l LedgerLine
		if err := json.Unmarshal(line, &l); err != nil {
			if i == len(raw)-1 {
				break // torn tail
			}
			return nil, fmt.Errorf("soak: bad ledger line %d: %w", i+1, err)
		}
		if l.V != LedgerVersion {
			return nil, fmt.Errorf("soak: ledger line %d has version %d, want %d", i+1, l.V, LedgerVersion)
		}
		out = append(out, l)
	}
	return out, nil
}

// Problem is one verdict-level violation found in a soak ledger.
type Problem struct {
	Index  int    `json:"i"`
	Key    string `json:"key"`
	Reason string `json:"reason"`
}

func (p Problem) String() string {
	return fmt.Sprintf("unit %d (%s): %s", p.Index, p.Key, p.Reason)
}

// Check applies the soak acceptance bar to a ledger: any undetected
// corruption anywhere, any unrecovered fault on a TVARAK design, any unit
// failure, any chaos identity mismatch, and any resource-gate
// finding is a problem. A clean long ledger is the long-horizon
// confidence statement the ROADMAP's soak item asks for.
func Check(lines []LedgerLine) []Problem {
	var out []Problem
	add := func(l LedgerLine, format string, args ...any) {
		out = append(out, Problem{Index: l.Index, Key: l.Key, Reason: fmt.Sprintf(format, args...)})
	}
	for _, l := range lines {
		if l.Failure != "" {
			add(l, "unit failed: %s", l.Failure)
		}
		if l.Undetected > 0 {
			add(l, "%d undetected corruption(s)", l.Undetected)
		}
		if l.Design == param.Tvarak.String() && l.Unrecovered > 0 {
			add(l, "%d unrecovered fault(s) on a TVARAK design", l.Unrecovered)
		}
		if l.IdentityOK != nil && !*l.IdentityOK {
			add(l, "chaos result not byte-identical to the uninterrupted reference")
		}
		for _, g := range l.GateFindings {
			add(l, "resource gate: %s", g)
		}
	}
	return out
}

// Tally summarizes a ledger for rendering.
type Tally struct {
	Units      int
	ByDesign   map[string]int
	Chaos      int
	Killed     int
	Resumed    int
	Armed      int
	Fired      int
	Detected   uint64
	Recovered  uint64
	Silent     int
	WallMS     int64
	GateChecks int // lines carrying gate verdicts (clean or not)
}

// TallyLines folds a ledger into totals.
func TallyLines(lines []LedgerLine) Tally {
	t := Tally{ByDesign: map[string]int{}}
	for _, l := range lines {
		t.Units++
		t.ByDesign[l.Design]++
		if l.Chaos {
			t.Chaos++
		}
		if l.Killed {
			t.Killed++
		}
		if l.Resumed {
			t.Resumed++
		}
		t.Armed += l.Armed
		t.Fired += l.Fired
		t.Detected += l.Detected
		t.Recovered += l.Recovered
		t.Silent += l.Silent
		t.WallMS += l.WallMS
		if l.GateFindings != nil {
			t.GateChecks++
		}
	}
	return t
}
