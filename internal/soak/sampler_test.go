package soak

import (
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"strings"
	"sync"
	"testing"

	"tvarak/internal/fault"
	"tvarak/internal/param"
)

// TestSamplerSeededReplay is the sampler's determinism contract: the unit
// stream is a pure function of (master seed, index), so the same seed
// yields an identical stream across runs, across enumeration orders, and
// across any -parallel setting (parallelism changes execution, never
// sampling).
func TestSamplerSeededReplay(t *testing.T) {
	const master, n = 20260808, 256

	stream := func() []Unit {
		out := make([]Unit, n)
		for i := range out {
			out[i] = UnitAt(master, i)
		}
		return out
	}
	first := stream()

	t.Run("same seed, same stream", func(t *testing.T) {
		if again := stream(); !reflect.DeepEqual(first, again) {
			t.Fatal("re-enumerating the same seed changed the stream")
		}
	})

	t.Run("enumeration order is irrelevant", func(t *testing.T) {
		perm := rand.New(rand.NewSource(1)).Perm(n)
		got := make([]Unit, n)
		for _, i := range perm {
			got[i] = UnitAt(master, i)
		}
		if !reflect.DeepEqual(first, got) {
			t.Fatal("out-of-order enumeration changed the stream")
		}
	})

	t.Run("concurrent enumeration is identical", func(t *testing.T) {
		for _, workers := range []int{2, 8} {
			got := make([]Unit, n)
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := w; i < n; i += workers {
						got[i] = UnitAt(master, i)
					}
				}(w)
			}
			wg.Wait()
			if !reflect.DeepEqual(first, got) {
				t.Fatalf("stream differs when sampled by %d goroutines", workers)
			}
		}
	})

	t.Run("global rand state is not an input", func(t *testing.T) {
		rand.Int() // perturb the process-global source
		got := make([]Unit, n)
		for i := n - 1; i >= 0; i-- {
			rand.Int()
			got[i] = UnitAt(master, i)
		}
		if !reflect.DeepEqual(first, got) {
			t.Fatal("sampler reads process-global randomness")
		}
	})

	t.Run("different seeds diverge", func(t *testing.T) {
		same := 0
		for i := 0; i < n; i++ {
			if UnitAt(master+1, i).UnitParams == first[i].UnitParams {
				same++
			}
		}
		if same > n/10 {
			t.Fatalf("seeds %d and %d collide on %d/%d units", master, master+1, same, n)
		}
	})
}

// TestSamplerCoverage checks the stream actually exercises the space: all
// apps and all five designs appear, TVARAK is the most-sampled design (it
// carries the hard detect-and-recover obligations), and every derived
// parameter stays inside its valid range.
func TestSamplerCoverage(t *testing.T) {
	const master, n = 7, 512
	apps := map[string]int{}
	designs := map[param.Design]int{}
	for i := 0; i < n; i++ {
		u := UnitAt(master, i)
		apps[u.App]++
		designs[u.Design]++
		if u.Index != i {
			t.Fatalf("unit %d carries index %d", i, u.Index)
		}
		if u.N < 6 || u.N > 13 {
			t.Fatalf("unit %d: injection count %d outside [6,13]", i, u.N)
		}
		if u.Seed < 0 {
			t.Fatalf("unit %d: negative unit seed %d", i, u.Seed)
		}
	}
	for _, name := range fault.AppNames() {
		if apps[name] == 0 {
			t.Errorf("app %s never sampled in %d units", name, n)
		}
	}
	all := []param.Design{param.Baseline, param.Tvarak, param.TxBObjectCsums, param.TxBPageCsums, param.Vilamb}
	for _, d := range all {
		if designs[d] == 0 {
			t.Errorf("design %s never sampled in %d units", d, n)
		}
		if d != param.Tvarak && designs[d] >= designs[param.Tvarak] {
			t.Errorf("design %s sampled %d times, >= Tvarak's %d — Tvarak should dominate",
				d, designs[d], designs[param.Tvarak])
		}
	}
}

// TestSamplerFingerprintIdentity: fingerprints must be unique per (seed,
// index) — they key the soak journal, so a collision would resurrect the
// wrong unit's report on resume.
func TestSamplerFingerprintIdentity(t *testing.T) {
	seen := map[string]bool{}
	for _, master := range []int64{1, 2} {
		for i := 0; i < 64; i++ {
			fp := UnitAt(master, i).Fingerprint(master)
			if seen[fp] {
				t.Fatalf("duplicate fingerprint %q", fp)
			}
			seen[fp] = true
		}
	}
}

// TestSamplerStreamStable pins the stream itself: testdata/stream.txt holds
// "master index app design n seed async" for two masters × 64 indices,
// recorded before the sampler lost an axis, and every unit must still
// derive exactly those values (async "-" = the design default).
func TestSamplerStreamStable(t *testing.T) {
	raw, err := os.ReadFile("testdata/stream.txt")
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) != 128 {
		t.Fatalf("testdata/stream.txt has %d lines, want 128", len(lines))
	}
	for _, want := range lines {
		var master int64
		var index int
		if _, err := fmt.Sscan(want, &master, &index); err != nil {
			t.Fatalf("bad line %q: %v", want, err)
		}
		u := UnitAt(master, index)
		async := "-"
		if a := u.AsyncCfg(); !a.IsZero() {
			async = a.Label()
		}
		got := fmt.Sprintf("%d %d %s %s %d %d %s", master, index, u.App, u.Design, u.N, u.Seed, async)
		if got != want {
			t.Errorf("unit drifted:\n got  %s\n want %s", got, want)
		}
	}
}
