package fault

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tvarak/internal/param"
)

// unitPinsPath holds the SHA-256 of every pinned unit's report JSON,
// one "app design seed hash" line per unit. Regenerate after an
// intentional verdict change with
//
//	UPDATE_UNIT_PINS=1 go test -run TestUnitReportsPinned ./internal/fault
var unitPinsPath = filepath.Join("testdata", "unit_reports.txt")

// TestUnitReportsPinned pins the full report of one 16-injection unit per
// app x {Baseline, TVARAK, Vilamb} at two seeds. The hashes were taken
// from the dense-shadow oracle, so a change to the media or oracle
// representation that moves any verdict, count or divergence list in any
// of the 42 reports fails here even when every unit still "passes".
func TestUnitReportsPinned(t *testing.T) {
	var got []string
	for _, app := range AppNames() {
		for _, d := range []param.Design{param.Baseline, param.Tvarak, param.Vilamb} {
			for _, seed := range []int64{1, 2} {
				p := UnitParams{App: app, Design: d, Seed: seed, N: 16}
				rep, err := RunSingleUnit(context.Background(), p)
				if err != nil {
					t.Fatalf("%s: %v", p.Key(), err)
				}
				b, err := json.Marshal(rep)
				if err != nil {
					t.Fatal(err)
				}
				got = append(got, fmt.Sprintf("%s %s %d %x", app, d, seed, sha256.Sum256(b)))
			}
		}
	}
	if os.Getenv("UPDATE_UNIT_PINS") == "1" {
		if err := os.MkdirAll(filepath.Dir(unitPinsPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(unitPinsPath, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	b, err := os.ReadFile(unitPinsPath)
	if err != nil {
		t.Fatalf("missing pins (run UPDATE_UNIT_PINS=1 go test -run TestUnitReportsPinned ./internal/fault): %v", err)
	}
	want := strings.Split(strings.TrimSuffix(string(b), "\n"), "\n")
	if len(want) != len(got) {
		t.Fatalf("pinned %d unit reports, ran %d", len(want), len(got))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("unit report drifted:\n got  %s\n want %s", got[i], want[i])
		}
	}
}
