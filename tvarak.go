// Package tvarak is the public API of the TVARAK reproduction: a
// simulated DAX-NVM storage stack (cores, caches, NVM DIMMs, DAX file
// system, persistent heap) with the paper's hardware redundancy controller
// and its software-only baselines, plus the harness that regenerates every
// table and figure of the ISCA 2020 evaluation.
//
// Quick start:
//
//	cfg := tvarak.ReproScaleConfig(tvarak.DesignTvarak)
//	m, err := tvarak.NewMachine(cfg)
//	...
//	dm, err := m.NewMapping("data", 1<<20)
//	m.Engine().Run([]func(*tvarak.Core){func(c *tvarak.Core) {
//		dm.Store(c, 0, []byte("hello"))
//	}})
//
// See examples/ for runnable programs and cmd/tvarak (`tvarak sim`) for
// the experiment CLI.
package tvarak

import (
	"io"

	"tvarak/internal/core"
	"tvarak/internal/daxfs"
	"tvarak/internal/experiments"
	"tvarak/internal/harness"
	"tvarak/internal/live"
	"tvarak/internal/obs"
	"tvarak/internal/oracle"
	"tvarak/internal/param"
	"tvarak/internal/pmem"
	"tvarak/internal/sim"
	"tvarak/internal/stats"
)

// Re-exported core types. The internal packages carry the implementation;
// these aliases are the supported public surface.
type (
	// Config is the full machine configuration (Table III parameters).
	Config = param.Config
	// Design selects the redundancy scheme.
	Design = param.Design
	// Features toggles TVARAK's three design elements (Fig. 9).
	Features = param.TvarakFeatures
	// Core is a simulated CPU; workload code runs against it.
	Core = sim.Core
	// Engine is the simulation engine.
	Engine = sim.Engine
	// Controller is the TVARAK hardware controller.
	Controller = core.Controller
	// FS is the DAX file system.
	FS = daxfs.FS
	// DaxMap is a direct-access mapping.
	DaxMap = daxfs.DaxMap
	// Heap is a persistent object heap with undo-log transactions.
	Heap = pmem.Heap
	// Tx is one transaction.
	Tx = pmem.Tx
	// Stats holds the run's metrics (runtime, energy, NVM/cache accesses).
	Stats = stats.Stats
	// CacheCounter counts hits and misses at one cache level.
	CacheCounter = stats.CacheCounter
	// CacheLevel identifies a cache level in Stats.Cache.
	CacheLevel = stats.Level
	// Workload is a runnable benchmark workload.
	Workload = harness.Workload
	// Result is one (workload, design) outcome.
	Result = harness.Result
	// ResultTable renders paper-style comparisons.
	ResultTable = harness.Table
	// Experiment regenerates one of the paper's tables or figures.
	Experiment = experiments.Experiment
	// ExperimentOptions tunes experiment scale, design selection and
	// parallelism.
	ExperimentOptions = experiments.Options
	// Cell is one independent simulation unit (config + workload factory);
	// experiments enumerate cells and a Runner executes them.
	Cell = harness.Cell
	// Runner executes cells across a bounded worker pool, reassembling
	// results in cell order so tables are identical at any parallelism.
	Runner = harness.Runner
	// Progress is the per-cell completion callback a Runner invokes.
	Progress = harness.Progress
	// Tracer receives structured simulation events (fills, writebacks,
	// diff stashes, corruptions, ...); attach via Engine.Tracer or
	// Observation.Tracer.
	Tracer = obs.Tracer
	// TraceEvent is one traced simulation event.
	TraceEvent = obs.Event
	// Sampler snapshots statistics deltas at phase boundaries into a
	// per-run epoch time series; attach via Engine.AttachSampler.
	Sampler = obs.Sampler
	// Sample is one epoch of a sampled run's time series.
	Sample = obs.Sample
	// Observation selects the telemetry (sampling, tracing) attached to a
	// RunWorkloadObserved run.
	Observation = harness.Observation
	// MetricsExport is the versioned machine-readable result document
	// (JSON/CSV) that -metrics-out writes and the compare mode diffs.
	MetricsExport = obs.Export
	// RunJournal is the crash-safe per-run checkpoint log backing -journal
	// and -resume: one fsync'd record per completed cell, keyed by a
	// stable fingerprint, so an interrupted run resumes byte-identically.
	RunJournal = harness.Journal
	// RunManifest accounts for a run's partial completion: failed, hung,
	// interrupted and never-attempted cells.
	RunManifest = harness.Manifest
	// CellFailure describes one cell that exhausted its attempts.
	CellFailure = harness.CellFailure
)

// Design constants.
const (
	DesignBaseline       = param.Baseline
	DesignTvarak         = param.Tvarak
	DesignTxBObjectCsums = param.TxBObjectCsums
	DesignTxBPageCsums   = param.TxBPageCsums
	DesignVilamb         = param.Vilamb
)

// Asynchronous-redundancy (Vilamb) design family.
type (
	// AsyncConfig parameterizes the asynchronous (Vilamb-family) designs:
	// epoch interval, dirty-tracking granularity, batched vs. incremental
	// recomputation, and the battery-backed-DRAM preset. Set it on
	// Config.Async (Vilamb design only).
	AsyncConfig = param.AsyncConfig
	// DirtyGran selects the async dirty-tracking granularity.
	DirtyGran = param.DirtyGran
	// MetricsFigure is one derived figure panel of a metrics export.
	MetricsFigure = obs.Figure
)

// Async dirty-tracking granularities.
const (
	GranPage  = param.GranPage
	GranLine  = param.GranLine
	GranRange = param.GranRange
)

// AsyncSweepFigures derives the async sweep's figure panels
// (overhead-vs-epoch, vulnerability-window-vs-epoch) from a finished
// result table; nil when the table has no async variants.
func AsyncSweepFigures(t *ResultTable) []MetricsFigure { return experiments.AsyncFigures(t) }

// Cache levels for Stats.Cache indexing.
const (
	LevelL1     = stats.L1
	LevelL2     = stats.L2
	LevelLLC    = stats.LLC
	LevelTvarak = stats.TvarakCache
)

// DefaultConfig returns the paper's Table III machine.
func DefaultConfig(d Design) *Config { return param.Default(d) }

// ReproScaleConfig returns the 1/16-scale reproduction machine the default
// experiments use (see EXPERIMENTS.md).
func ReproScaleConfig(d Design) *Config { return param.ReproScale(d) }

// Machine is a fully assembled simulated system.
type Machine struct {
	sys *harness.System
}

// NewMachine builds the machine described by cfg, including the TVARAK
// controller when cfg.Design is DesignTvarak.
func NewMachine(cfg *Config) (*Machine, error) {
	sys, err := harness.NewSystem(cfg)
	if err != nil {
		return nil, err
	}
	return &Machine{sys: sys}, nil
}

// Engine returns the simulation engine (cores, Run, stats).
func (m *Machine) Engine() *Engine { return m.sys.Eng }

// FS returns the DAX file system.
func (m *Machine) FS() *FS { return m.sys.FS }

// Controller returns the TVARAK controller, or nil for other designs.
func (m *Machine) Controller() *Controller { return m.sys.Ctrl }

// Stats returns the live statistics.
func (m *Machine) Stats() *Stats { return m.sys.Eng.St }

// NewMapping creates and DAX-maps a file.
func (m *Machine) NewMapping(name string, size uint64) (*DaxMap, error) {
	return m.sys.NewMapping(name, size)
}

// NewHeap creates a mapped file with a persistent heap on it, attaching the
// software redundancy scheme under TxB designs.
func (m *Machine) NewHeap(name string, size, maxObjects uint64) (*Heap, error) {
	return m.sys.NewHeap(name, size, maxObjects)
}

// System exposes the underlying harness system for advanced use.
func (m *Machine) System() *harness.System { return m.sys }

// RunWorkload executes one workload under the fixed-work methodology and
// returns its metrics.
func RunWorkload(cfg *Config, w Workload) (*Result, error) {
	return harness.Run(cfg, w)
}

// RunWorkloadObserved is RunWorkload with telemetry attached to the
// measured region: an epoch sampler (Observation.SampleEvery) and/or an
// event tracer (Observation.Tracer). Telemetry is read-only — results are
// byte-identical to an unobserved run.
func RunWorkloadObserved(cfg *Config, w Workload, ob Observation) (*Result, error) {
	return harness.RunObserved(cfg, w, ob)
}

// NewJSONLTracer builds a tracer that writes one JSON object per event to
// w through a bounded buffer; after maxEvents events (0 selects a generous
// default, negative disables the bound) it drops and counts instead of
// writing. Close flushes and appends a trailer with the totals.
func NewJSONLTracer(w io.Writer, maxEvents int64) *obs.JSONL {
	return obs.NewJSONL(w, maxEvents)
}

// NewEpochSampler builds a sampler with the given epoch length in cycles;
// attach it with Engine.AttachSampler after ResetMeasurement.
func NewEpochSampler(every uint64) *Sampler { return obs.NewSampler(every) }

// MetricsSchemaVersion is the version of the machine-readable export
// schema this build reads and writes.
const MetricsSchemaVersion = obs.SchemaVersion

// NewMetricsExport returns an empty export document at the current schema
// version; fill Runs from ResultTable.ExportRuns and serialize with
// WriteJSON or WriteCSV.
func NewMetricsExport(tool string) *MetricsExport { return obs.NewExport(tool) }

// RunCells executes independent simulation cells on a bounded worker pool
// (workers <= 0 means one per CPU) and returns results in cell order.
// Results are identical at any worker count; see Runner for progress
// callbacks and table assembly.
func RunCells(cells []Cell, workers int) ([]*Result, error) {
	return harness.Runner{Workers: workers}.Run(cells)
}

// NewRunJournal creates (or truncates) a fresh checkpoint journal at path.
func NewRunJournal(path string) (*RunJournal, error) { return harness.NewJournal(path) }

// ResumeRunJournal reopens an interrupted run's journal: records already on
// disk restore their cells without re-simulation, and corrupted or torn
// lines (a crash mid-write) are skipped, never fatal.
func ResumeRunJournal(path string) (*RunJournal, error) { return harness.OpenJournal(path) }

// Experiments lists the registry reproducing every table and figure.
func Experiments() []Experiment { return experiments.Experiments() }

// LookupExperiment finds an experiment by id (e.g. "fig8-redis").
func LookupExperiment(id string) (Experiment, error) { return experiments.Lookup(id) }

// Oracle is the shadow redundancy oracle — a reference model of the NVM's
// intended content cross-checked against the machine (see DESIGN.md
// §Correctness tooling; the fault campaign is `tvarak fault -campaign`).
type Oracle = oracle.Oracle

// AttachOracle snapshots the machine's NVM and installs the shadow
// oracle's observers; attach after workload setup, before the runs whose
// redundancy behaviour should be checked.
func AttachOracle(m *Machine) *Oracle { return oracle.Attach(m.sys.Eng, m.sys.FS) }

// Live wall-clock telemetry: the metrics registry + run board behind the
// CLI's -ops-addr endpoint and resource ledger (see DESIGN.md §Live
// telemetry). Strictly read-only — attaching it changes no simulated
// result.
type (
	// LiveTelemetry bundles the live metric set and the per-cell run
	// board; hand it to ExperimentOptions.Live.
	LiveTelemetry = live.Telemetry
	// OpsConfig selects the ops HTTP server address and resource-ledger
	// path for StartLiveOps.
	OpsConfig = live.OpsConfig
	// LiveOps is the running ops bundle (HTTP server + resource sampler).
	LiveOps = live.Ops
	// ResourceSample is one line of the ops resource ledger.
	ResourceSample = live.ResourceSample
)

// NewLiveTelemetry builds the full tvarak live metric set and an empty run
// board.
func NewLiveTelemetry() *LiveTelemetry { return live.NewTelemetry() }

// StartLiveOps starts the ops HTTP server and/or the resource sampler per
// the config; returns nil when the config enables neither. Close the
// returned bundle before reading its artifacts.
func StartLiveOps(t *LiveTelemetry, cfg OpsConfig) (*LiveOps, error) { return live.StartOps(t, cfg) }

// ReadResourceLedger parses a JSONL ops resource ledger (tolerating a torn
// final line from a killed process).
func ReadResourceLedger(r io.Reader) ([]ResourceSample, error) { return live.ReadResourceLedger(r) }
