// Package live is the wall-clock-domain telemetry subsystem: a per-cell
// run board, an ops HTTP server (/healthz, /runs, /debug/pprof), and a
// periodic resource sampler with a JSONL ledger plus drift analysis.
//
// Everything in this package observes the simulation; nothing feeds back
// into it. The board and the access total are updated from hook points
// that only read simulation state (statistics snapshots at phase barriers,
// cell lifecycle transitions), so attaching live telemetry leaves every
// simulated result — tables, metric exports, fault reports — byte-identical
// to an unobserved run. The read-only golden test at the repository root
// and the ci.sh ops gate pin that contract.
//
// The package deliberately lives in the wall-clock domain: it answers
// "what is this process doing right now", while internal/obs answers
// "what did the simulated machine do at which simulated cycle". The two
// domains never mix — see DESIGN.md §9.
package live

import "sync/atomic"

// Telemetry is the process-wide live telemetry bundle shared by the
// runner, the engine probes, the ops HTTP server and the resource sampler.
type Telemetry struct {
	// Board is the per-cell run state behind /runs and -progress.
	Board *Board
	// Accesses is the simulated loads+stores completed, summed across
	// every cell this process runs; the resource ledger samples it.
	// CellProbe updates it at weave-phase barriers only, so it costs
	// nothing per access and never perturbs the simulation.
	Accesses atomic.Uint64
}

// NewTelemetry builds a telemetry bundle with an empty run board.
func NewTelemetry() *Telemetry { return &Telemetry{Board: NewBoard()} }

// CellProbe returns an engine probe for the cell at index. The engine
// invokes it at weave-phase boundaries with cumulative cycles and accesses;
// the closure adds the access delta to the process-wide total and forwards
// the cumulative values to the board. ResetMeasurement zeroes the engine's
// statistics mid-run, so a cumulative value that went backwards rebases the
// delta instead of underflowing.
//
// The closure's locals are touched only by the engine thread that owns the
// cell.
func (t *Telemetry) CellProbe(index int) func(cycles, accesses, _ uint64) {
	var lastCyc, lastAcc uint64
	return func(cycles, accesses, _ uint64) {
		if accesses < lastAcc || cycles < lastCyc {
			lastCyc, lastAcc = 0, 0
		}
		t.Accesses.Add(accesses - lastAcc)
		lastCyc, lastAcc = cycles, accesses
		t.Board.CellProgress(index, cycles, accesses)
	}
}
