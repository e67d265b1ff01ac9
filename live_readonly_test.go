// Live-telemetry read-only contract: attaching the full ops bundle — the
// /runs board, the HTTP server (scraped concurrently while cells
// simulate), and the resource sampler — must leave experiment
// tables and machine-readable exports byte-for-byte identical to an
// unobserved run, at parallel cell execution. This is
// the root gate for DESIGN.md §9's domain separation: wall-clock
// telemetry observes the simulation and never feeds back into it.
package tvarak_test

import (
	"bytes"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"testing"
	"time"

	"tvarak"
	"tvarak/internal/experiments"
	"tvarak/internal/obs"
	"tvarak/internal/param"
)

var liveReadOnlyCases = []struct {
	id        string
	scale     float64
	underRace bool   // heavy ablation tables skip under -race (see race_test.go)
	accesses  uint64 // simulated accesses the live run totals (pinned)
}{
	{"fig8-stream", 0.05, true, 130560},
	{"fig9", 0.02, false, 27003065},
}

func TestLiveTelemetryReadOnly(t *testing.T) {
	for _, tc := range liveReadOnlyCases {
		t.Run(tc.id, func(t *testing.T) {
			if raceEnabled && !tc.underRace {
				t.Skip("skipping under -race: ~10x simulator slowdown; byte-identity is gated by the regular test pass")
			}
			e, err := tvarak.LookupExperiment(tc.id)
			if err != nil {
				t.Fatal(err)
			}
			opts := experiments.Options{
				Scale: tc.scale, Parallel: 4,
				Designs: []param.Design{param.Baseline, param.Tvarak},
			}

			run := func(o experiments.Options) (string, []byte) {
				tab, err := e.Run(o)
				if err != nil {
					t.Fatal(err)
				}
				x := obs.NewExport("test")
				x.Runs = tab.ExportRuns(e.ID)
				var buf bytes.Buffer
				if err := x.WriteJSON(&buf); err != nil {
					t.Fatal(err)
				}
				return tab.String(), buf.Bytes()
			}

			plainTab, plainJSON := run(opts)

			lt := tvarak.NewLiveTelemetry()
			ledger := filepath.Join(t.TempDir(), "ops.jsonl")
			ops, err := tvarak.StartLiveOps(lt, tvarak.OpsConfig{
				Addr: "127.0.0.1:0", LedgerPath: ledger,
				SampleEvery: 20 * time.Millisecond,
			})
			if err != nil {
				t.Fatal(err)
			}

			// Scrape /runs continuously WHILE cells simulate: under -race
			// this proves board snapshots and probe/lifecycle writes share
			// no unsynchronized state.
			stop := make(chan struct{})
			scraped := make(chan struct{})
			go func() {
				defer close(scraped)
				base := "http://" + ops.Addr()
				for {
					select {
					case <-stop:
						return
					default:
					}
					if resp, err := http.Get(base + "/runs"); err == nil {
						_, _ = io.Copy(io.Discard, resp.Body)
						resp.Body.Close()
					}
					time.Sleep(10 * time.Millisecond)
				}
			}()

			liveOpts := opts
			liveOpts.Live = lt
			liveTab, liveJSON := run(liveOpts)
			close(stop)
			<-scraped
			if err := ops.Close(); err != nil {
				t.Fatal(err)
			}

			if liveTab != plainTab {
				t.Errorf("table changed with live telemetry attached:\nplain:\n%s\nlive:\n%s", plainTab, liveTab)
			}
			if !bytes.Equal(liveJSON, plainJSON) {
				t.Errorf("metrics export changed with live telemetry attached (%d vs %d bytes)", len(plainJSON), len(liveJSON))
			}

			// Sanity on what the live run actually recorded: every cell
			// finished, and the ledger parses and ends on the run's exact
			// simulated-access total with some sample seeing throughput.
			snap := lt.Board.Snapshot()
			if snap.Done != snap.Total || snap.Failed != 0 || snap.Total == 0 {
				t.Errorf("board snapshot = %d/%d done, %d failed", snap.Done, snap.Total, snap.Failed)
			}
			samples, err := tvarak.ReadResourceLedger(mustOpen(t, ledger))
			if err != nil {
				t.Fatal(err)
			}
			if len(samples) < 2 {
				t.Fatalf("ledger has %d samples, want >= 2", len(samples))
			}
			if got := samples[len(samples)-1].Accesses; got != tc.accesses {
				t.Errorf("ledger's final accesses = %d, want %d", got, tc.accesses)
			}
			moving := false
			for _, s := range samples {
				moving = moving || s.AccessesPerSec > 0
			}
			if !moving {
				t.Error("no ledger sample has accessesPerSec > 0")
			}
		})
	}
}

func mustOpen(t *testing.T, path string) io.Reader {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return bytes.NewReader(b)
}
