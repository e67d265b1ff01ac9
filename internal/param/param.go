// Package param holds every configuration knob of the simulated system.
//
// The defaults reproduce Table III of the TVARAK paper (ISCA 2020): a
// 12-core Westmere-like system at 2.27 GHz with 32 KB L1-D, 256 KB L2,
// a 24 MB 16-way shared inclusive LLC split into 12 banks of 2 MB, 6 DRAM
// DIMMs, 4 NVM DIMMs (60/150 ns read/write, 1.6/9 nJ per read/write), and a
// TVARAK controller per LLC bank with a 4 KB on-controller cache, 2 LLC ways
// reserved for caching redundancy information and 1 way for data diffs.
package param

import (
	"fmt"
	"strings"
)

// Design selects the redundancy scheme under evaluation (§IV of the paper).
type Design int

const (
	// Baseline maintains no redundancy at all.
	Baseline Design = iota
	// Tvarak is the paper's hardware controller: redundancy updated on
	// every LLC→NVM writeback, checksums verified on every NVM→LLC fill.
	Tvarak
	// TxBObjectCsums is the Pangolin-like software scheme: object-granular
	// checksums and parity updated at transaction boundaries; reads are
	// not verified.
	TxBObjectCsums
	// TxBPageCsums is the Mojim/HotPot-like software scheme: page-granular
	// checksums and parity updated at transaction boundaries; reads are
	// not verified.
	TxBPageCsums
	// Vilamb is the asynchronous software scheme of Table I (Kateja et
	// al.): transactions only set per-page dirty bits; a daemon on a
	// dedicated core batches page-checksum and parity updates every
	// epoch, trading windows of vulnerability for overhead. Implemented
	// as an extension beyond the paper's four evaluated designs.
	Vilamb
)

// String returns the label used in the paper's figures.
func (d Design) String() string {
	switch d {
	case Baseline:
		return "Baseline"
	case Tvarak:
		return "Tvarak"
	case TxBObjectCsums:
		return "TxB-Object-Csums"
	case TxBPageCsums:
		return "TxB-Page-Csums"
	case Vilamb:
		return "Vilamb"
	}
	return fmt.Sprintf("Design(%d)", int(d))
}

// ParseDesign resolves one design name as every CLI flag, job spec and
// worker argument spells it: a flag alias (baseline, tvarak, txb-object,
// txb-page, vilamb) or a String() label, in any case, surrounding spaces
// ignored.
func ParseDesign(name string) (Design, error) {
	switch strings.ToLower(strings.TrimSpace(name)) {
	case "baseline":
		return Baseline, nil
	case "tvarak":
		return Tvarak, nil
	case "txb-object", "txb-object-csums":
		return TxBObjectCsums, nil
	case "txb-page", "txb-page-csums":
		return TxBPageCsums, nil
	case "vilamb":
		return Vilamb, nil
	}
	return 0, fmt.Errorf("param: unknown design %q", name)
}

// ParseDesigns parses a comma-separated design list. Empty items are
// skipped, so an empty list parses to nil: the caller's default designs.
func ParseDesigns(list string) ([]Design, error) {
	var out []Design
	for _, tok := range strings.Split(list, ",") {
		if strings.TrimSpace(tok) == "" {
			continue
		}
		d, err := ParseDesign(tok)
		if err != nil {
			return nil, err
		}
		out = append(out, d)
	}
	return out, nil
}

// Designs lists the four designs the paper evaluates, in its order.
func Designs() []Design {
	return []Design{Baseline, Tvarak, TxBObjectCsums, TxBPageCsums}
}

// AllDesigns additionally includes the Vilamb extension.
func AllDesigns() []Design { return append(Designs(), Vilamb) }

// VilambEpochCyc is the default epoch between Vilamb daemon passes.
const VilambEpochCyc = 1 << 20

// VilambDaemonCores is how many dedicated cores the Vilamb design adds for
// its redundancy daemons (Vilamb runs background threads on spare cores).
const VilambDaemonCores = 4

// DirtyGran selects the dirty-tracking granularity of the asynchronous
// redundancy family: what the commit hook records and therefore how much
// data the epoch daemon re-checksums per reconciliation.
type DirtyGran int

const (
	// GranPage tracks whole dirty pages (Vilamb's page-table dirty bits):
	// cheapest to record, but the daemon reprocesses every line of a page
	// that saw a single store.
	GranPage DirtyGran = iota
	// GranLine tracks individual dirty cache lines: the daemon touches
	// exactly the written lines at the cost of a larger tracking structure.
	GranLine
	// GranRange coalesces dirty line runs into sorted, merged ranges:
	// line-exact coverage with range-compressed bookkeeping, the best of
	// both for sequential writers.
	GranRange
)

// String returns the wire/flag name.
func (g DirtyGran) String() string {
	switch g {
	case GranPage:
		return "page"
	case GranLine:
		return "line"
	case GranRange:
		return "range"
	}
	return fmt.Sprintf("DirtyGran(%d)", int(g))
}

// ParseDirtyGran parses a -dirty-gran flag value.
func ParseDirtyGran(s string) (DirtyGran, error) {
	switch s {
	case "", "page":
		return GranPage, nil
	case "line":
		return GranLine, nil
	case "range":
		return GranRange, nil
	}
	return GranPage, fmt.Errorf("param: unknown dirty granularity %q (want page, line or range)", s)
}

// AsyncConfig parameterizes the asynchronous-redundancy (Vilamb) design
// family. The zero value is the classic single-point Vilamb sketch:
// page-granular dirty tracking, the default epoch, batched reconciliation,
// no battery staging, no scrub. It only takes effect when Config.Design is
// Vilamb.
type AsyncConfig struct {
	// EpochCyc is the interval between daemon reconciliation passes in
	// cycles (0 selects VilambEpochCyc). It is also the design's worst-case
	// vulnerability window: corruption of a dirty line is invisible until
	// the next pass absorbs or detects it.
	EpochCyc uint64
	// DirtyGran selects what the commit hook records.
	DirtyGran DirtyGran
	// Incremental spreads each epoch's reconciliation over sub-slices of
	// the epoch instead of one batched burst at the boundary, trading the
	// batching win for a smoother daemon footprint and a shorter mean
	// window.
	Incremental bool
	// Battery models the battery-backed-DRAM preset: commit additionally
	// stages per-line intent CRCs in (battery-backed, hence durable) DRAM,
	// so the deferred reconciliation pass can verify every dirty line
	// against its intended content before absorbing it — deferral with a
	// zero silent-vulnerability window.
	Battery bool
	// Scrub makes each reconciliation pass re-verify previously reconciled
	// (clean) lines against their stored CRCs, detecting out-of-window
	// corruption and repairing it from parity when the stripe is quiescent.
	// Fault campaigns run with this on; perf sweeps leave it off unless the
	// scrub cost is itself under measurement.
	Scrub bool
}

// IsZero reports whether every knob is at its default.
func (a AsyncConfig) IsZero() bool { return a == AsyncConfig{} }

// Effective returns the config with defaults substituted.
func (a AsyncConfig) Effective() AsyncConfig {
	if a.EpochCyc == 0 {
		a.EpochCyc = VilambEpochCyc
	}
	return a
}

// Label returns the compact variant tag used in tables, fingerprints and
// journal scopes, e.g. "ep4096/line", "ep4096/page+inc", "ep65536/range+bat".
func (a AsyncConfig) Label() string {
	e := a.Effective()
	s := fmt.Sprintf("ep%d/%s", e.EpochCyc, e.DirtyGran)
	if e.Incremental {
		s += "+inc"
	}
	if e.Battery {
		s += "+bat"
	}
	return s
}

// BatteryPreset returns the battery-backed-DRAM async preset at the given
// epoch: line-granular tracking plus staged intent CRCs.
func BatteryPreset(epochCyc uint64) AsyncConfig {
	return AsyncConfig{EpochCyc: epochCyc, DirtyGran: GranLine, Battery: true}
}

// ParseAsync assembles an AsyncConfig from its flag form (-epoch,
// -dirty-gran, -battery, -incremental; the same four fields a job spec
// carries). The battery preset overrides the granularity with line.
func ParseAsync(epochCyc uint64, dirtyGran string, battery, incremental bool) (AsyncConfig, error) {
	g, err := ParseDirtyGran(dirtyGran)
	if err != nil {
		return AsyncConfig{}, err
	}
	a := AsyncConfig{EpochCyc: epochCyc, DirtyGran: g, Incremental: incremental}
	if battery {
		a = BatteryPreset(epochCyc)
		a.Incremental = incremental
	}
	return a, nil
}

// TvarakFeatures toggles the three design elements ablated in Fig. 9.
// All true yields the full TVARAK design; all false the naive redundancy
// controller of Fig. 4.
type TvarakFeatures struct {
	// CacheLineChecksums enables DAX-CL-checksums (4 B CRC-32C per 64 B
	// line, packed 16 to a checksum line) while data is DAX-mapped.
	// When false the controller maintains page-granular checksums and
	// must read the rest of the page on every fill and writeback.
	CacheLineChecksums bool
	// RedundancyCaching enables the on-controller redundancy cache backed
	// by an LLC way-partition. When false every redundancy access goes to
	// NVM.
	RedundancyCaching bool
	// DataDiffs stores the old clean copy of a line in an LLC way-partition
	// when the line becomes dirty, so writebacks can update parity
	// incrementally without re-reading old data from NVM. Requires an
	// inclusive LLC; systems with exclusive caches run with this false
	// (§IV-G).
	DataDiffs bool
}

// FullTvarak returns the complete TVARAK design point.
func FullTvarak() TvarakFeatures {
	return TvarakFeatures{CacheLineChecksums: true, RedundancyCaching: true, DataDiffs: true}
}

// CacheParams describes one cache level.
type CacheParams struct {
	SizeBytes    int
	Ways         int
	LatencyCyc   uint64
	HitEnergyPJ  float64
	MissEnergyPJ float64
}

// Sets returns the number of sets given the system line size.
func (c CacheParams) Sets(lineSize int) int {
	return c.SizeBytes / (lineSize * c.Ways)
}

// MemParams describes one memory type (DRAM or NVM).
type MemParams struct {
	DIMMs         int
	ReadCyc       uint64 // load-to-use latency in cycles
	WriteCyc      uint64
	ReadEnergyPJ  float64
	WriteEnergyPJ float64
	// Occupancy is how long one 64 B line transfer keeps a DIMM busy,
	// which bounds per-DIMM bandwidth. Derived from measured Optane
	// DIMM bandwidth (~6.8 GB/s read, ~2.3 GB/s write per DIMM).
	ReadOccupancyCyc  uint64
	WriteOccupancyCyc uint64
}

// NVMTech is a named NVM technology preset (§IV-H evaluates alternatives).
type NVMTech struct {
	Name string
	Mem  MemParams
}

// OptaneLike is the paper's default NVM: 60/150 ns read/write latency and
// 1.6/9 nJ per read/write (Lee et al. parameters), at 2.27 GHz.
func OptaneLike(dimms int) NVMTech {
	return NVMTech{
		Name: "optane-like",
		Mem: MemParams{
			DIMMs:             dimms,
			ReadCyc:           136, // 60 ns * 2.27 GHz
			WriteCyc:          341, // 150 ns * 2.27 GHz
			ReadEnergyPJ:      1600,
			WriteEnergyPJ:     9000,
			ReadOccupancyCyc:  21, // ~6.8 GB/s per DIMM
			WriteOccupancyCyc: 63, // ~2.3 GB/s per DIMM
		},
	}
}

// BatteryBackedDRAM models DRAM-as-NVM (§IV-H): DRAM timing and energy with
// durability provided by batteries.
func BatteryBackedDRAM(dimms int) NVMTech {
	return NVMTech{
		Name: "battery-backed-dram",
		Mem: MemParams{
			DIMMs:             dimms,
			ReadCyc:           34, // 15 ns
			WriteCyc:          34,
			ReadEnergyPJ:      1000,
			WriteEnergyPJ:     1000,
			ReadOccupancyCyc:  8,
			WriteOccupancyCyc: 8,
		},
	}
}

// TvarakParams configures the controller hardware (Table III, bottom rows).
type TvarakParams struct {
	// OnCtrlCacheBytes is the per-bank on-controller redundancy cache
	// (4 KB in the paper, 0.2% of a 2 MB bank).
	OnCtrlCacheBytes   int
	OnCtrlLatencyCyc   uint64
	OnCtrlHitEnergyPJ  float64
	OnCtrlMissEnergyPJ float64
	// MatchLatencyCyc is the address-range comparator latency.
	MatchLatencyCyc uint64
	// ComputeLatencyCyc is one checksum/parity computation or verification.
	ComputeLatencyCyc uint64
	// RedundancyWays of each LLC bank are reserved for caching redundancy
	// information (2 of 16 in the paper).
	RedundancyWays int
	// DiffWays of each LLC bank are reserved for storing data diffs
	// (1 of 16 in the paper).
	DiffWays int
	Features TvarakFeatures
}

// Config is the full simulated-system configuration.
type Config struct {
	Cores    int
	ClockGHz float64

	LineSize int
	PageSize int

	L1       CacheParams
	L2       CacheParams
	LLCBank  CacheParams // one of LLCBanks identical banks
	LLCBanks int

	DRAM MemParams
	NVM  MemParams

	Tvarak TvarakParams

	Design Design

	// Async parameterizes the asynchronous-redundancy family; it only takes
	// effect when Design is Vilamb (see AsyncConfig).
	Async AsyncConfig

	// PhaseCyc is the bound-weave synchronization quantum: cores simulate
	// independently for a phase and synchronize at phase boundaries
	// (zsim uses 10k cycles).
	PhaseCyc uint64

	// DRAMBytes and NVMBytes size the two physical memories. NVMBytes is
	// split evenly across NVM DIMMs and must be a multiple of
	// PageSize*NVM.DIMMs.
	DRAMBytes int
	NVMBytes  int
}

// Default returns the Table III configuration with the given design and
// an NVM capacity suitable for the paper's workloads at reproduction scale.
func Default(d Design) *Config {
	nvm := OptaneLike(4)
	return &Config{
		Cores:    12,
		ClockGHz: 2.27,
		LineSize: 64,
		PageSize: 4096,
		L1: CacheParams{
			SizeBytes: 32 << 10, Ways: 8, LatencyCyc: 4,
			HitEnergyPJ: 15, MissEnergyPJ: 33,
		},
		L2: CacheParams{
			SizeBytes: 256 << 10, Ways: 8, LatencyCyc: 7,
			HitEnergyPJ: 46, MissEnergyPJ: 94,
		},
		LLCBank: CacheParams{
			SizeBytes: 2 << 20, Ways: 16, LatencyCyc: 27,
			HitEnergyPJ: 240, MissEnergyPJ: 500,
		},
		LLCBanks: 12,
		DRAM: MemParams{
			DIMMs: 6, ReadCyc: 34, WriteCyc: 34,
			ReadEnergyPJ: 1000, WriteEnergyPJ: 1000,
			ReadOccupancyCyc: 8, WriteOccupancyCyc: 8,
		},
		NVM: nvm.Mem,
		Tvarak: TvarakParams{
			OnCtrlCacheBytes:   4 << 10,
			OnCtrlLatencyCyc:   1,
			OnCtrlHitEnergyPJ:  15,
			OnCtrlMissEnergyPJ: 33,
			MatchLatencyCyc:    2,
			ComputeLatencyCyc:  1,
			RedundancyWays:     2,
			DiffWays:           1,
			Features:           FullTvarak(),
		},
		Design:    d,
		PhaseCyc:  10000,
		DRAMBytes: 64 << 20,
		NVMBytes:  256 << 20,
	}
}

// ReproScale returns a 1/16-scale machine: the cache hierarchy (L1, L2,
// LLC banks, on-controller cache) shrinks 16x while core count, NVM DIMMs
// and all latency/energy/bandwidth parameters keep Table III values.
// Experiments run correspondingly smaller workload footprints against it,
// preserving the footprint-to-cache ratios of the paper's full-scale runs
// at a fraction of the simulation cost (see EXPERIMENTS.md). The harness
// can run Default-scale instead via its FullScale option.
func ReproScale(d Design) *Config {
	c := Default(d)
	c.L1.SizeBytes = 8 << 10
	c.L2.SizeBytes = 32 << 10
	c.LLCBank.SizeBytes = 128 << 10
	c.Tvarak.OnCtrlCacheBytes = 1 << 10
	c.NVMBytes = 256 << 20
	c.DRAMBytes = 16 << 20
	return c
}

// SmallTest returns a scaled-down configuration (fewer cores, small caches
// and memories) so unit tests run quickly while exercising the same code
// paths.
func SmallTest(d Design) *Config {
	c := Default(d)
	c.Cores = 4
	c.LLCBanks = 4
	c.L1.SizeBytes = 4 << 10
	c.L2.SizeBytes = 16 << 10
	c.LLCBank.SizeBytes = 256 << 10
	c.DRAMBytes = 8 << 20
	c.NVMBytes = 32 << 20
	return c
}

// Validate reports configuration errors before a system is built.
func (c *Config) Validate() error {
	if c.Cores <= 0 || c.Cores > 64 {
		return fmt.Errorf("param: cores must be in [1,64], got %d", c.Cores)
	}
	if c.LineSize <= 0 || c.LineSize&(c.LineSize-1) != 0 {
		return fmt.Errorf("param: line size must be a positive power of two, got %d", c.LineSize)
	}
	if c.PageSize <= 0 || c.PageSize%c.LineSize != 0 {
		return fmt.Errorf("param: page size %d must be a multiple of line size %d", c.PageSize, c.LineSize)
	}
	if c.NVM.DIMMs < 2 {
		return fmt.Errorf("param: cross-DIMM parity needs at least 2 NVM DIMMs, got %d", c.NVM.DIMMs)
	}
	if c.NVMBytes%(c.PageSize*c.NVM.DIMMs) != 0 {
		return fmt.Errorf("param: NVM capacity %d must be a multiple of page size * DIMMs", c.NVMBytes)
	}
	if c.DRAMBytes%c.PageSize != 0 {
		return fmt.Errorf("param: DRAM capacity %d must be page aligned", c.DRAMBytes)
	}
	if c.LLCBanks <= 0 {
		return fmt.Errorf("param: need at least one LLC bank")
	}
	if g := c.Async.DirtyGran; g < GranPage || g > GranRange {
		return fmt.Errorf("param: invalid dirty granularity %d", int(g))
	}
	if !c.Async.IsZero() && c.Design != Vilamb {
		return fmt.Errorf("param: Async config set but design is %s (only Vilamb honours it)", c.Design)
	}
	for _, cp := range []struct {
		name string
		p    CacheParams
	}{{"L1", c.L1}, {"L2", c.L2}, {"LLC bank", c.LLCBank}} {
		if cp.p.Ways <= 0 || cp.p.SizeBytes%(cp.p.Ways*c.LineSize) != 0 {
			return fmt.Errorf("param: %s geometry invalid (%d bytes, %d ways)", cp.name, cp.p.SizeBytes, cp.p.Ways)
		}
	}
	t := c.Tvarak
	if c.Design == Tvarak {
		reserved := 0
		if t.Features.RedundancyCaching {
			reserved += t.RedundancyWays
		}
		if t.Features.DataDiffs {
			reserved += t.DiffWays
		}
		if reserved >= c.LLCBank.Ways {
			return fmt.Errorf("param: reserved LLC ways (%d) must leave data ways (LLC has %d)", reserved, c.LLCBank.Ways)
		}
		if t.OnCtrlCacheBytes%c.LineSize != 0 {
			return fmt.Errorf("param: on-controller cache %d B must be line aligned", t.OnCtrlCacheBytes)
		}
	}
	return nil
}

// DataWays returns the LLC ways available to application data under the
// configured design (Tvarak reserves redundancy and diff ways).
func (c *Config) DataWays() int {
	w := c.LLCBank.Ways
	if c.Design != Tvarak {
		return w
	}
	if c.Tvarak.Features.RedundancyCaching {
		w -= c.Tvarak.RedundancyWays
	}
	if c.Tvarak.Features.DataDiffs {
		w -= c.Tvarak.DiffWays
	}
	return w
}
