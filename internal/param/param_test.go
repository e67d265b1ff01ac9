package param

import (
	"reflect"
	"strings"
	"testing"
)

func TestDefaultMatchesTableIII(t *testing.T) {
	c := Default(Tvarak)
	checks := []struct {
		name string
		got  any
		want any
	}{
		{"cores", c.Cores, 12},
		{"clock GHz", c.ClockGHz, 2.27},
		{"L1 size", c.L1.SizeBytes, 32 << 10},
		{"L1 ways", c.L1.Ways, 8},
		{"L1 latency", c.L1.LatencyCyc, uint64(4)},
		{"L2 size", c.L2.SizeBytes, 256 << 10},
		{"L2 latency", c.L2.LatencyCyc, uint64(7)},
		{"LLC bank size", c.LLCBank.SizeBytes, 2 << 20},
		{"LLC banks", c.LLCBanks, 12},
		{"LLC ways", c.LLCBank.Ways, 16},
		{"LLC latency", c.LLCBank.LatencyCyc, uint64(27)},
		{"LLC hit pJ", c.LLCBank.HitEnergyPJ, 240.0},
		{"LLC miss pJ", c.LLCBank.MissEnergyPJ, 500.0},
		{"DRAM DIMMs", c.DRAM.DIMMs, 6},
		{"NVM DIMMs", c.NVM.DIMMs, 4},
		{"NVM read pJ", c.NVM.ReadEnergyPJ, 1600.0},
		{"NVM write pJ", c.NVM.WriteEnergyPJ, 9000.0},
		{"on-ctrl cache", c.Tvarak.OnCtrlCacheBytes, 4 << 10},
		{"on-ctrl latency", c.Tvarak.OnCtrlLatencyCyc, uint64(1)},
		{"match latency", c.Tvarak.MatchLatencyCyc, uint64(2)},
		{"compute latency", c.Tvarak.ComputeLatencyCyc, uint64(1)},
		{"redundancy ways", c.Tvarak.RedundancyWays, 2},
		{"diff ways", c.Tvarak.DiffWays, 1},
	}
	for _, ch := range checks {
		if ch.got != ch.want {
			t.Errorf("%s = %v, want %v", ch.name, ch.got, ch.want)
		}
	}
	// 60 ns and 150 ns at 2.27 GHz.
	if c.NVM.ReadCyc != 136 || c.NVM.WriteCyc != 341 {
		t.Errorf("NVM latency = %d/%d cycles, want 136/341", c.NVM.ReadCyc, c.NVM.WriteCyc)
	}
	if err := c.Validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
}

func TestLLCTotals24MB(t *testing.T) {
	c := Default(Baseline)
	if got := c.LLCBank.SizeBytes * c.LLCBanks; got != 24<<20 {
		t.Errorf("LLC total = %d, want 24 MiB", got)
	}
	// On-controller cache is ~0.2% of a bank.
	ratio := float64(c.Tvarak.OnCtrlCacheBytes) / float64(c.LLCBank.SizeBytes)
	if ratio < 0.0015 || ratio > 0.0025 {
		t.Errorf("on-controller cache ratio = %v, want ~0.002", ratio)
	}
}

func TestDesignStrings(t *testing.T) {
	want := map[Design]string{
		Baseline:       "Baseline",
		Tvarak:         "Tvarak",
		TxBObjectCsums: "TxB-Object-Csums",
		TxBPageCsums:   "TxB-Page-Csums",
	}
	if len(Designs()) != 4 {
		t.Fatalf("Designs() has %d entries", len(Designs()))
	}
	for d, s := range want {
		if d.String() != s {
			t.Errorf("%d.String() = %q, want %q", int(d), d.String(), s)
		}
	}
}

func TestDataWays(t *testing.T) {
	c := Default(Tvarak)
	if got := c.DataWays(); got != 13 {
		t.Errorf("Tvarak data ways = %d, want 13 (16 - 2 redundancy - 1 diff)", got)
	}
	c.Tvarak.Features.DataDiffs = false
	if got := c.DataWays(); got != 14 {
		t.Errorf("no-diff data ways = %d, want 14", got)
	}
	c.Tvarak.Features.RedundancyCaching = false
	if got := c.DataWays(); got != 16 {
		t.Errorf("naive data ways = %d, want 16", got)
	}
	b := Default(Baseline)
	if got := b.DataWays(); got != 16 {
		t.Errorf("baseline data ways = %d, want 16", got)
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	mk := func(mut func(*Config)) *Config {
		c := Default(Tvarak)
		mut(c)
		return c
	}
	cases := []struct {
		name string
		cfg  *Config
	}{
		{"zero cores", mk(func(c *Config) { c.Cores = 0 })},
		{"too many cores", mk(func(c *Config) { c.Cores = 65 })},
		{"non-pow2 line", mk(func(c *Config) { c.LineSize = 48 })},
		{"page not multiple of line", mk(func(c *Config) { c.PageSize = 4000 })},
		{"one NVM DIMM", mk(func(c *Config) { c.NVM.DIMMs = 1 })},
		{"unaligned NVM", mk(func(c *Config) { c.NVMBytes += 4096 })},
		{"unaligned DRAM", mk(func(c *Config) { c.DRAMBytes++ })},
		{"no banks", mk(func(c *Config) { c.LLCBanks = 0 })},
		{"bad L1 geometry", mk(func(c *Config) { c.L1.SizeBytes = 1000 })},
		{"all ways reserved", mk(func(c *Config) { c.Tvarak.RedundancyWays = 15 })},
		{"unaligned on-ctrl", mk(func(c *Config) { c.Tvarak.OnCtrlCacheBytes = 100 })},
	}
	for _, tc := range cases {
		if err := tc.cfg.Validate(); err == nil {
			t.Errorf("%s: Validate accepted an invalid config", tc.name)
		}
	}
}

func TestReproScaleValid(t *testing.T) {
	for _, d := range Designs() {
		if err := ReproScale(d).Validate(); err != nil {
			t.Errorf("ReproScale(%v) invalid: %v", d, err)
		}
		if err := SmallTest(d).Validate(); err != nil {
			t.Errorf("SmallTest(%v) invalid: %v", d, err)
		}
	}
	// The scaled machine keeps a sane hierarchy: sum of private L2s fits
	// under the shared LLC.
	c := ReproScale(Baseline)
	if c.L2.SizeBytes*c.Cores >= c.LLCBank.SizeBytes*c.LLCBanks {
		t.Error("ReproScale: private L2 capacity exceeds inclusive LLC")
	}
}

func TestNVMTechPresets(t *testing.T) {
	opt := OptaneLike(8)
	if opt.Mem.DIMMs != 8 || opt.Name != "optane-like" {
		t.Error("OptaneLike preset wrong")
	}
	bb := BatteryBackedDRAM(4)
	if bb.Mem.ReadCyc != bb.Mem.WriteCyc {
		t.Error("battery-backed DRAM should have symmetric latency")
	}
	if bb.Mem.ReadCyc >= opt.Mem.ReadCyc {
		t.Error("battery-backed DRAM should be faster than Optane-like NVM")
	}
}

// TestParseDesignAliases pins every design spelling any CLI or wire format
// has accepted: flag aliases and String() labels, in any case, with
// surrounding spaces.
func TestParseDesignAliases(t *testing.T) {
	want := map[string]Design{
		"baseline": Baseline, "tvarak": Tvarak, "vilamb": Vilamb,
		"txb-object": TxBObjectCsums, "txb-object-csums": TxBObjectCsums,
		"txb-page": TxBPageCsums, "txb-page-csums": TxBPageCsums,
	}
	for _, d := range AllDesigns() {
		want[d.String()] = d
	}
	for name, d := range want {
		for _, spelling := range []string{name, strings.ToUpper(name), " " + strings.ToUpper(name[:1]) + name[1:] + "\t"} {
			if got, err := ParseDesign(spelling); err != nil || got != d {
				t.Errorf("ParseDesign(%q) = %v, %v; want %v", spelling, got, err, d)
			}
		}
	}
	for _, bad := range []string{"", "txb", "tvarak2", "Design(9)"} {
		if _, err := ParseDesign(bad); err == nil {
			t.Errorf("ParseDesign(%q) accepted an unknown design", bad)
		}
	}
	if _, err := ParseDesigns("tvarak,nope"); err == nil {
		t.Error("ParseDesigns accepted an unknown design in a list")
	}
	// An empty list leaves the caller's default in place.
	for _, empty := range []string{"", " ", ",,"} {
		if ds, err := ParseDesigns(empty); err != nil || ds != nil {
			t.Errorf("ParseDesigns(%q) = %v, %v; want nil, nil", empty, ds, err)
		}
	}
	ds, err := ParseDesigns(" txb-page , Vilamb,TxB-Object-Csums")
	if err != nil || !reflect.DeepEqual(ds, []Design{TxBPageCsums, Vilamb, TxBObjectCsums}) {
		t.Errorf("ParseDesigns list = %v, %v", ds, err)
	}
}

func TestParseAsync(t *testing.T) {
	for _, c := range []struct {
		epoch              uint64
		gran               string
		battery, increment bool
		want               AsyncConfig
	}{
		{0, "", false, false, AsyncConfig{}},
		{4096, "range", false, true, AsyncConfig{EpochCyc: 4096, DirtyGran: GranRange, Incremental: true}},
		// The battery preset overrides the granularity and keeps -incremental.
		{4096, "page", true, true, AsyncConfig{EpochCyc: 4096, DirtyGran: GranLine, Battery: true, Incremental: true}},
	} {
		if got, err := ParseAsync(c.epoch, c.gran, c.battery, c.increment); err != nil || got != c.want {
			t.Errorf("ParseAsync(%d, %q, %t, %t) = %+v, %v; want %+v", c.epoch, c.gran, c.battery, c.increment, got, err, c.want)
		}
	}
	if _, err := ParseAsync(0, "block", false, false); err == nil {
		t.Error("ParseAsync accepted an unknown granularity")
	}
}
