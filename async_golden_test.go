// Golden regression + distribution-identity gate for the async-family
// sweep figures: the reduced ext-async-mini experiment (the CI fleet
// gate's grid) must render its result table AND both derived figure
// panels (overhead-vs-epoch, vulnerability-window-vs-epoch)
// byte-identically to the committed golden — and identically again when
// the same cells run with a different cell parallelism or through an
// in-process two-worker fleet. Any byte of drift means the
// simulated async-family behaviour changed.
//
// After an INTENTIONAL behaviour change, regenerate with:
//
//	UPDATE_GOLDEN=1 go test -run TestAsyncSweepGolden .
package tvarak_test

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"tvarak"
	"tvarak/internal/experiments"
	"tvarak/internal/fleet"
	"tvarak/internal/harness"
)

const asyncGoldenScale = 0.02

// renderAsyncSweep renders the table plus every async figure panel — the
// exact stdout a local tvarak-sim run of the experiment prints (minus the
// wall-clock header), and what the golden pins.
func renderAsyncSweep(t *testing.T, tab *harness.Table) string {
	t.Helper()
	var b strings.Builder
	b.WriteString(tab.String())
	figs := experiments.AsyncFigures(tab)
	if len(figs) != 2 {
		t.Fatalf("AsyncFigures returned %d panels, want 2", len(figs))
	}
	for _, f := range figs {
		b.WriteByte('\n')
		b.WriteString(f.String())
	}
	return b.String()
}

func runAsyncMini(t *testing.T, o experiments.Options) string {
	t.Helper()
	e, err := tvarak.LookupExperiment("ext-async-mini")
	if err != nil {
		t.Fatal(err)
	}
	tab, err := e.Run(o)
	if err != nil {
		t.Fatal(err)
	}
	return renderAsyncSweep(t, tab)
}

func TestAsyncSweepGolden(t *testing.T) {
	if raceEnabled {
		t.Skip("skipping under -race: ~10x simulator slowdown blows the package timeout; byte-identity is gated by the regular test pass")
	}
	got := runAsyncMini(t, experiments.Options{Scale: asyncGoldenScale, Parallel: runtime.NumCPU()})
	path := filepath.Join("testdata", "golden-ext-async-mini.txt")
	if os.Getenv("UPDATE_GOLDEN") == "1" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("regenerated %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run UPDATE_GOLDEN=1 go test -run TestAsyncSweepGolden .): %v", err)
	}
	if got != string(want) {
		t.Errorf("ext-async-mini drifted from golden %s.\nSimulated results must be byte-identical across refactors; if this change is intentional, regenerate with UPDATE_GOLDEN=1.\n--- got ---\n%s--- want ---\n%s", path, got, want)
	}

	// The same cells at serial parallelism must render identically: cell
	// parallelism may not leak into results.
	if serial := runAsyncMini(t, experiments.Options{Scale: asyncGoldenScale, Parallel: 1}); serial != got {
		t.Error("ext-async-mini differs between -parallel 1 and parallel run")
	}
}

// TestAsyncSweepFleetByteIdentical runs the same reduced sweep through an
// in-process gateway with two workers — the distributed path CI's fleet
// gate drives across processes — and requires the merged table + figures
// to match the local rendering byte for byte.
func TestAsyncSweepFleetByteIdentical(t *testing.T) {
	if raceEnabled {
		t.Skip("skipping under -race: ~10x simulator slowdown blows the package timeout; byte-identity is gated by the regular test pass")
	}
	local := runAsyncMini(t, experiments.Options{Scale: asyncGoldenScale, Parallel: runtime.NumCPU()})

	spec := fleet.JobSpec{Kind: "sweep", Experiment: "ext-async-mini", Scale: asyncGoldenScale}
	plan, err := fleet.BuildPlan(spec)
	if err != nil {
		t.Fatal(err)
	}
	g, err := fleet.NewGateway(fleet.GatewayConfig{Plan: plan, Spec: spec, LeaseTTL: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(g.Handler())
	defer srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()
	errs := make(chan error, 2)
	for _, name := range []string{"wa", "wb"} {
		w := &fleet.Worker{Gateway: srv.URL, Name: name, Build: fleet.BuildPlan}
		go func() { errs <- w.Run(ctx) }()
	}
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("worker failed: %v", err)
		}
	}
	payloads, failures, err := g.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(failures) != 0 {
		t.Fatalf("unexpected unit failures: %v", failures)
	}
	sp, ok := plan.(*fleet.SweepPlan)
	if !ok {
		t.Fatalf("BuildPlan returned %T, want *fleet.SweepPlan", plan)
	}
	tab, err := sp.MergeTable(sp.Title, payloads, failures, false)
	if err != nil {
		t.Fatal(err)
	}
	if got := renderAsyncSweep(t, tab); got != local {
		t.Errorf("fleet-merged sweep differs from local run:\n--- fleet ---\n%s--- local ---\n%s", got, local)
	}

	// The unit payloads themselves are harness.Result JSON — spot-check
	// that the async variants actually travelled through the fleet.
	sawAsync := false
	for _, p := range payloads {
		var r harness.Result
		if err := json.Unmarshal(p, &r); err != nil {
			t.Fatal(err)
		}
		if strings.HasPrefix(r.Variant, "ep") {
			sawAsync = true
		}
	}
	if !sawAsync {
		t.Error("no async-variant cell travelled through the fleet")
	}
}
