package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime/metrics"
	"strings"
	"time"

	"tvarak/internal/apps/fio"
	"tvarak/internal/apps/kvtrees"
	"tvarak/internal/apps/nstore"
	"tvarak/internal/apps/redispm"
	"tvarak/internal/apps/stream"
	"tvarak/internal/core"
	"tvarak/internal/harness"
	"tvarak/internal/param"
	"tvarak/internal/stats"
)

// app is one application configuration of a cell workload. make builds
// it for an app seed at a footprint scale (1 = the benchmark's size).
type app struct {
	name string
	make func(seed int64, scale float64) harness.Workload
}

// cell is one (app, design) simulation on the reproduction-scale machine.
type cell struct {
	app    app
	appIdx int // app seeds derive from the workload seed and this index
	design param.Design
}

func (c cell) label() string { return c.app.name + "/" + c.design.String() }

func scaled(n uint64, scale float64) uint64 { return max(1, uint64(float64(n)*scale)) }

// daxScale halves the default footprints: fio still touches 12 MB and
// stream sweeps 12 MB, eight times the 1.5 MB LLC, so nearly every access
// misses to NVM, while a pass takes a few seconds.
const daxScale = 0.5

var daxApps = []app{
	{"fio/seq-read", func(seed int64, scale float64) harness.Workload {
		cfg := fio.Default(fio.Seq, false)
		cfg.AccessBytes = scaled(cfg.AccessBytes, daxScale*scale)
		cfg.Seed = seed
		return fio.New(cfg)
	}},
	{"fio/rand-write", func(seed int64, scale float64) harness.Workload {
		cfg := fio.Default(fio.Rand, true)
		cfg.AccessBytes = scaled(cfg.AccessBytes, daxScale*scale)
		cfg.Seed = seed
		return fio.New(cfg)
	}},
	{"stream/triad", func(seed int64, scale float64) harness.Workload {
		cfg := stream.Default(stream.Triad)
		cfg.ArrayBytes = scaled(cfg.ArrayBytes, daxScale*scale) &^ 4095
		cfg.Seed = seed
		return stream.New(cfg)
	}},
}

// pmemPreload and pmemOps shrink the preloaded keys and the measured
// operations. Set-up (machine build plus preload) stays the larger share
// of a cell, as it is in the paper-scale experiments, and a pass takes a
// few seconds.
const (
	pmemPreload = 0.25
	pmemOps     = 0.1
)

var pmemApps = []app{
	{"redis/set", func(seed int64, scale float64) harness.Workload {
		cfg := redispm.Default(true)
		cfg.Keys = scaled(cfg.Keys, pmemPreload)
		cfg.Ops = int(scaled(uint64(cfg.Ops), pmemOps*scale))
		cfg.Seed = seed
		return redispm.New(cfg)
	}},
	{"ctree/insert", func(seed int64, scale float64) harness.Workload {
		cfg := kvtrees.Default(kvtrees.CTree, kvtrees.InsertOnly)
		cfg.Keys = scaled(cfg.Keys, pmemPreload)
		cfg.Ops = int(scaled(uint64(cfg.Ops), pmemOps*scale))
		cfg.Seed = seed
		return kvtrees.New(cfg)
	}},
	{"nstore/balanced", func(seed int64, scale float64) harness.Workload {
		cfg := nstore.Default(nstore.BalancedMix)
		cfg.Tuples = scaled(cfg.Tuples, pmemPreload)
		cfg.Txns = int(scaled(uint64(cfg.Txns), pmemOps*scale))
		cfg.Seed = seed
		return nstore.New(cfg)
	}},
}

func cellsOf(apps []app, designs ...param.Design) []cell {
	var cs []cell
	for i, a := range apps {
		for _, d := range designs {
			cs = append(cs, cell{app: a, appIdx: i, design: d})
		}
	}
	return cs
}

var (
	daxMissCells = cellsOf(daxApps, param.Baseline, param.Tvarak)
	// TxB-Object-Csums is left out: it shares the TxB commit path with
	// TxB-Page-Csums.
	pmemTxCells = cellsOf(pmemApps, param.Baseline, param.Tvarak, param.TxBPageCsums, param.Vilamb)
)

// appSeed derives an app's Config.Seed from the workload seed (splitmix64).
// Every design of one app sees the same input.
func appSeed(seed int64, idx int) int64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(idx+1)*0xbf58476d1ce4e5b9
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z>>2) + 1
}

// cellRun is one cell's spans and simulated output.
type cellRun struct {
	build, setup, run time.Duration
	buildAlloc        uint64 // heap bytes allocated by NewSystem (instrumented only)
	phases            uint64 // bound-weave phases of the measured run (instrumented only)
	ctrl              *timedCtrl
	st                stats.Stats
	err               error
}

// runCell drives one cell through the same public calls harness.Run makes:
// NewSystem, Setup, ResetMeasurement, Run(WithDaemons(Workers)). Spans are
// taken around those calls only. With instrumented set, a forwarding
// wrapper times the engine's calls into the TVARAK controller and the
// engine's phase probe counts phases; both are read-only.
func runCell(cfg *param.Config, w harness.Workload, instrumented bool) (r cellRun) {
	defer func() {
		if p := recover(); p != nil {
			r.err = fmt.Errorf("panic: %v", p)
		}
	}()
	var alloc0 uint64
	if instrumented {
		alloc0 = heapAllocBytes()
	}
	t0 := time.Now()
	s, err := harness.NewSystem(cfg)
	r.build = time.Since(t0)
	if err != nil {
		r.err = err
		return r
	}
	if instrumented {
		r.buildAlloc = heapAllocBytes() - alloc0
	}
	t1 := time.Now()
	err = w.Setup(s)
	if err == nil {
		err = s.Eng.Err()
	}
	r.setup = time.Since(t1)
	if err != nil {
		r.err = fmt.Errorf("setup: %w", err)
		return r
	}
	s.Eng.ResetMeasurement()
	if instrumented {
		if s.Ctrl != nil {
			r.ctrl = &timedCtrl{c: s.Ctrl}
			s.Eng.SetRedundancy(r.ctrl)
		}
		s.Eng.Probe = func(_, _, _ uint64) { r.phases++ }
	}
	workers := s.WithDaemons(w.Workers(s))
	t2 := time.Now()
	s.Eng.Run(workers)
	r.run = time.Since(t2)
	if err := s.Eng.Err(); err != nil {
		r.err = fmt.Errorf("measured run: %w", err)
		return r
	}
	r.st = s.Eng.St.Clone()
	if err := s.Eng.CheckInvariants(); err != nil {
		r.err = fmt.Errorf("invariants: %w", err)
	}
	return r
}

var allocMetric = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}

func heapAllocBytes() uint64 {
	metrics.Read(allocMetric)
	return allocMetric[0].Value.Uint64()
}

// timedCtrl forwards every engine call to the TVARAK controller and times
// the ones the measured run makes.
type timedCtrl struct {
	c                                *core.Controller
	fills, writebacks, dirtyInstalls uint64
	fillNs, writebackNs, otherNs     time.Duration
}

func (t *timedCtrl) OnFill(issue, complete, addr uint64, data []byte) uint64 {
	t0 := time.Now()
	lat := t.c.OnFill(issue, complete, addr, data)
	t.fillNs += time.Since(t0)
	t.fills++
	return lat
}

func (t *timedCtrl) OnDirtyInstall(now, addr uint64, oldClean []byte) {
	t0 := time.Now()
	t.c.OnDirtyInstall(now, addr, oldClean)
	t.otherNs += time.Since(t0)
	t.dirtyInstalls++
}

func (t *timedCtrl) OnWriteback(now, addr uint64, oldClean, newData []byte) {
	t0 := time.Now()
	t.c.OnWriteback(now, addr, oldClean, newData)
	t.writebackNs += time.Since(t0)
	t.writebacks++
}

func (t *timedCtrl) Drain(now uint64) {
	t0 := time.Now()
	t.c.Drain(now)
	t.otherNs += time.Since(t0)
}

func (t *timedCtrl) DropCaches() { t.c.DropCaches() }

func (t *timedCtrl) total() time.Duration { return t.fillNs + t.writebackNs + t.otherNs }

// statsDigest fingerprints every field of a run's statistics.
func statsDigest(st *stats.Stats) string {
	return shortHash(fmt.Sprintf("%+v", *st))
}

func shortHash(s string) string {
	h := sha256.Sum256([]byte(s))
	return hex.EncodeToString(h[:8])
}

func combineDigests(ds []string) string { return shortHash(strings.Join(ds, ",")) }

// spanSlack is the part of a cell's wall time its three spans may leave
// uncovered: the measurement reset, worker construction and the clock
// reads themselves.
const spanSlack = 0.02

// designKey names a design in per-layer metric names.
func designKey(d param.Design) string { return strings.ToLower(d.String()) }

// cellPass returns the pass function of a cell workload.
func cellPass(cells []cell) func(seed int64, instrumented bool) pass {
	return func(seed int64, instrumented bool) pass {
		return runCells(cells, seed, 1, instrumented)
	}
}

func runCells(cells []cell, seed int64, scale float64, instrumented bool) pass {
	p := pass{attempted: len(cells), layer: map[string]float64{}}
	var sum stats.Stats
	var runNs, buildNs, setupNs, ctrlNs, fillNs, wbNs time.Duration
	var buildAlloc, phases, fills, wbs, dirty uint64
	perDesignNs := map[string]time.Duration{}
	perDesignAcc := map[string]uint64{}
	maxGap := 0.0
	for _, c := range cells {
		cfg := param.ReproScale(c.design)
		w := c.app.make(appSeed(seed, c.appIdx), scale)
		t0 := time.Now()
		r := runCell(cfg, w, instrumented)
		wall := time.Since(t0)
		p.wall += wall
		p.setup += r.build + r.setup
		p.items = append(p.items, wall)
		if r.err != nil {
			p.failures = append(p.failures, fmt.Sprintf("%s: %v", c.label(), r.err))
			p.digests = append(p.digests, "failed")
			continue
		}
		p.digests = append(p.digests, statsDigest(&r.st))
		sum = sum.Add(r.st)
		runNs += r.run
		buildNs += r.build
		setupNs += r.setup
		buildAlloc += r.buildAlloc
		phases += r.phases
		k := designKey(c.design)
		perDesignNs[k] += r.run
		perDesignAcc[k] += r.st.Loads + r.st.Stores
		if r.ctrl != nil {
			ctrlNs += r.ctrl.total()
			fillNs += r.ctrl.fillNs
			wbNs += r.ctrl.writebackNs
			fills += r.ctrl.fills
			wbs += r.ctrl.writebacks
			dirty += r.ctrl.dirtyInstalls
		}
		if instrumented {
			gap := 1 - float64(r.build+r.setup+r.run)/float64(wall)
			maxGap = max(maxGap, gap)
			if gap > spanSlack || gap < 0 {
				p.failures = append(p.failures, fmt.Sprintf("%s: spans cover %.1f%% of the cell's wall time", c.label(), 100*(1-gap)))
			}
		}
	}
	l := p.layer
	acc := sum.Loads + sum.Stores
	l["harness.build_ms"] = ms(buildNs)
	l["harness.build_alloc_mb"] = float64(buildAlloc) / (1 << 20)
	l["apps.setup_ms"] = ms(setupNs)
	l["sim.run_ms"] = ms(runNs)
	l["sim.ns_per_access"] = perAccess(runNs, acc)
	for k, ns := range perDesignNs {
		l["sim.ns_per_access."+k] = perAccess(ns, perDesignAcc[k])
	}
	l["sim.phases"] = float64(phases)
	if phases > 0 {
		l["sim.us_per_phase"] = float64(runNs.Microseconds()) / float64(phases)
	}
	l["core.ctrl_ms"] = ms(ctrlNs)
	l["core.fills"] = float64(fills)
	l["core.writebacks"] = float64(wbs)
	l["core.dirty_installs"] = float64(dirty)
	l["core.fill_ns"] = perAccess(fillNs, fills)
	l["core.writeback_ns"] = perAccess(wbNs, wbs)
	l["trace.span_gap_frac"] = maxGap
	addSimCounts(l, &sum)
	return p
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func perAccess(d time.Duration, n uint64) float64 {
	if n == 0 {
		return 0
	}
	return float64(d) / float64(n)
}

// addSimCounts records the simulated counters: exact for a seed, never a
// speed metric.
func addSimCounts(l map[string]float64, st *stats.Stats) {
	l["sim.cycles"] = float64(st.Cycles)
	l["sim.accesses"] = float64(st.Loads + st.Stores)
	l["cache.l1_miss"] = float64(st.Cache[stats.L1].Misses)
	l["cache.l2_miss"] = float64(st.Cache[stats.L2].Misses)
	l["cache.llc_miss"] = float64(st.Cache[stats.LLC].Misses)
	if tc := st.Cache[stats.TvarakCache]; tc.Total() > 0 {
		l["cache.tvarak_hit_ratio"] = float64(tc.Hits) / float64(tc.Total())
	}
	l["nvm.data_reads"] = float64(st.NVM.DataReads)
	l["nvm.data_writes"] = float64(st.NVM.DataWrites)
	l["nvm.red_reads"] = float64(st.NVM.RedReads)
	l["nvm.red_writes"] = float64(st.NVM.RedWrites)
	l["core.verify_extra_cyc"] = float64(st.VerifyExtraCyc)
	l["core.diff_stashes"] = float64(st.DiffStashes)
	l["swred.epochs"] = float64(st.AsyncEpochs)
	l["swred.lines_reconciled"] = float64(st.AsyncLinesReconciled)
}
