#!/usr/bin/env bash
# ci.sh — tier-1 verification plus the parallel-harness race gate.
#
#   ./ci.sh         # format check, vet, build, tests, race tests, CLI and
#                   # benchmark-digest gates
#
# The race run covers internal/harness and internal/experiments: the
# parallel experiment runner executes cells on concurrent workers, and the
# race detector proves cells share no state (each cell builds its own
# System; see DESIGN.md "Harness and tooling").
set -euo pipefail
cd "$(dirname "$0")"

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet =="
go vet ./...

echo "== go build =="
go build ./...

echo "== go vet (perfbench) =="
# perfbench is its own module (the repo benchmark) and calls internal APIs
# directly; vetting it here turns an internal API change that breaks it
# into a CI failure instead of a benchmark failure.
(cd perfbench && go vet .)

echo "== go test =="
go test ./...

echo "== go test -race (parallel harness gate) =="
# harness/experiments: concurrent experiment cells must share no state.
# sim/core: the bound-weave engine's grant/yield handoff and the Tvarak
# controller under it are the hottest cross-goroutine surface.
# fault: campaign units run on the worker pool and app workers are wrapped
# with panic containment.
# obs: tracers and samplers are fed from concurrent cells' engines.
# cache/nvm/xsum/geom/pmem: the hot-path packages the performance pass
# rewrote with shift/mask arithmetic and scratch-buffer reuse; -race proves
# the reused buffers never leak across goroutines.
# -timeout 20m: the race detector slows the simulator ~10x and CI boxes are
# small; the long golden-table experiments additionally skip under -race
# (see race_test.go).
# live: the ops metrics registry and run board are scraped over HTTP
# concurrently with probe and lifecycle writes from simulating cells.
# soak (+ the tvarak command): the soak supervisor appends ledger lines
# from pool workers while chaos children run, and its e2e tests re-exec
# the race-instrumented test binary as the worker.
# fleet: the gateway's lease table and drain path are hit by concurrent
# worker goroutines (and its tests run whole in-process fleets through a
# fault-injecting transport).
# swred: the async (Vilamb-family) daemon passes run on dedicated daemon
# cores concurrently with foreground mutators; the dirty-set property
# suite and epoch-aware verdict paths must hold under the race detector.
go test -race -timeout 20m ./internal/harness/ ./internal/experiments/ \
    ./internal/sim/ ./internal/core/ ./internal/fault/ ./internal/obs/ \
    ./internal/cache/ ./internal/nvm/ ./internal/xsum/ ./internal/geom/ \
    ./internal/pmem/ ./internal/live/ ./internal/soak/ ./internal/fleet/ \
    ./internal/swred/ ./cmd/tvarak/ .

echo "== coverage floor (core + sim + fault + harness + fleet) =="
# Combined statement coverage of the central simulation packages plus the
# correctness machinery the soak loop leans on (the fault campaign and the
# crash-safe harness) and the fleet control plane. Floor is below the
# measured ~88% to absorb drift, high enough to catch a dead-code
# regression or a silently skipped suite.
covfloor=80
go test -coverprofile="$(pwd)/cover.out" \
    -coverpkg=tvarak/internal/core,tvarak/internal/sim,tvarak/internal/fault,tvarak/internal/harness,tvarak/internal/fleet \
    ./... >/dev/null
covpct=$(go tool cover -func=cover.out | awk '/^total:/ {sub(/%/,"",$NF); print $NF}')
rm -f cover.out
echo "core+sim+fault+harness+fleet combined coverage: ${covpct}% (floor ${covfloor}%)"
if awk -v p="$covpct" -v f="$covfloor" 'BEGIN{exit !(p<f)}'; then
    echo "coverage ${covpct}% fell below floor ${covfloor}%" >&2
    exit 1
fi

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# Every gate below drives the one tvarak binary, built once.
go build -o "$tmp/tvarak" ./cmd/tvarak
tv="$tmp/tvarak"

echo "== fault-injection smoke campaign =="
# Short fixed-seed campaign across all apps and both designs: TVARAK must
# detect and recover everything, Baseline must miss at least one corruption
# the oracle confirms, and a same-seed rerun must produce a byte-identical
# report. Reproduce any failure with the same seed via
#   go run ./cmd/tvarak fault -campaign -seed 7 -n 56 -report -
"$tv" fault -campaign -seed 7 -n 56 -report "$tmp/a.jsonl" >/dev/null
"$tv" fault -campaign -seed 7 -n 56 -report "$tmp/b.jsonl" >/dev/null
cmp "$tmp/a.jsonl" "$tmp/b.jsonl"
if tail -1 "$tmp/a.jsonl" | grep -q '"silentCorruptions":0'; then
    echo "smoke campaign: Baseline missed nothing — contrast gate broken" >&2
    exit 1
fi

echo "== telemetry export gate =="
# One small experiment cell through the full -metrics-out path, twice:
# the exports must be byte-identical (determinism), schema-valid, and match
# the committed golden (numbers regression). After an intentional behaviour
# change, regenerate the golden with: UPDATE_GOLDEN=1 ./ci.sh
gate=(-exp fig8-redis -scale 0.02 -designs baseline,tvarak -sample-every 100000)
"$tv" sim "${gate[@]}" -metrics-out "$tmp/run1.json" >/dev/null
"$tv" sim "${gate[@]}" -metrics-out "$tmp/run2.json" >/dev/null
cmp "$tmp/run1.json" "$tmp/run2.json"
"$tv" sim -validate "$tmp/run1.json"
if [ "${UPDATE_GOLDEN:-0}" = "1" ]; then
    cp "$tmp/run1.json" testdata/ci-golden.json
    echo "regenerated testdata/ci-golden.json"
fi
"$tv" sim -compare "testdata/ci-golden.json,$tmp/run1.json"

echo "== live ops gate =="
# A run with the ops server + resource sampler attached must serve
# well-formed /metrics (Prometheus text exposition), /healthz and /runs
# mid-run, shut down leak-free (opscheck's goroutine gate on the ledger's
# first-vs-last sample), and leave the metrics export byte-identical to a
# detached run — the read-only contract of DESIGN.md §9.
og=(-exp fig8-stream -scale 0.05 -designs baseline,tvarak -parallel 2)
"$tv" sim "${og[@]}" -metrics-out "$tmp/ops-plain.json" >/dev/null
"$tv" sim "${og[@]}" -metrics-out "$tmp/ops-live.json" \
    -ops-addr 127.0.0.1:0 -ops-addr-file "$tmp/ops.addr" \
    -ops-ledger "$tmp/ops-ledger.jsonl" -ops-sample 100ms >/dev/null 2>&1 &
pid=$!
addr=""
for _ in $(seq 1 100); do
    if [ -s "$tmp/ops.addr" ]; then addr=$(cat "$tmp/ops.addr"); break; fi
    sleep 0.05
done
if [ -z "$addr" ]; then
    echo "ops gate: listen address never appeared in $tmp/ops.addr" >&2
    exit 1
fi
curl -fsS "http://$addr/healthz" | grep -qx "ok"
curl -fsS "http://$addr/metrics" >"$tmp/ops-metrics.txt"
grep -q '^# TYPE tvarak_cells_started_total counter$' "$tmp/ops-metrics.txt"
grep -q '^tvarak_sim_accesses_total [0-9]' "$tmp/ops-metrics.txt"
grep -q '^tvarak_cell_seconds_bucket{le="+Inf"} [0-9]' "$tmp/ops-metrics.txt"
curl -fsS "http://$addr/runs" | grep -q '"cells"'
wait "$pid"
cmp "$tmp/ops-plain.json" "$tmp/ops-live.json"
"$tv" opscheck -ledger "$tmp/ops-ledger.jsonl" -checks goroutines >/dev/null

echo "== bench-regression gate =="
# Hot-path benchmark suite at fixed iteration counts, gated against the
# committed BENCH_6.json: allocs/op and B/op fail on a >10% increase,
# simulated cycles/accesses fail on ANY drift (they are deterministic), and
# wall-clock ns/op is reported but only enforced when BENCH_NS_TOL is set
# (e.g. BENCH_NS_TOL=0.10 on a quiet dedicated machine — wall-clock baselines
# do not transfer across machines; see DESIGN.md "Performance"). After an
# intentional perf-relevant change, regenerate with: UPDATE_BENCH=1 ./ci.sh
go build -o "$tmp/benchdiff" ./tools/benchdiff
if [ "${UPDATE_BENCH:-0}" = "1" ]; then
    "$tmp/benchdiff" -out BENCH_6.json >/dev/null
    echo "regenerated BENCH_6.json"
fi
"$tmp/benchdiff" -out "$tmp/bench.json" -baseline BENCH_6.json \
    -ns-tol "${BENCH_NS_TOL:-0}"

echo "== perfbench digest gate =="
# One short pass of each repo benchmark workload: every run must judge its
# outputs correct and match the committed reference digests, so a change
# that moves a simulated number fails here rather than in the benchmark
# A/B. Reproduce one workload with
#   bash perfbench/run.sh --workload dax-miss --seed 1 --seconds 1 --trace 0
for w in dax-miss pmem-tx fault-campaign; do
    bash perfbench/run.sh --workload "$w" --seed 1 --seconds 1 --trace 0 \
        >"$tmp/perfbench-$w.txt"
    if ! tail -1 "$tmp/perfbench-$w.txt" | grep -q '"correct":true'; then
        echo "perfbench $w: outputs not correct:" >&2
        tail -1 "$tmp/perfbench-$w.txt" >&2
        exit 1
    fi
    if ! grep -qx '# digest reference: match' "$tmp/perfbench-$w.txt"; then
        echo "perfbench $w: digest does not match the reference:" >&2
        grep '^# digest' "$tmp/perfbench-$w.txt" >&2
        exit 1
    fi
done

echo "== interrupt-and-resume gate =="
# A journaled run killed mid-flight must resume to output byte-identical to
# an uninterrupted run (DESIGN.md §7). SIGINT stops at the next phase
# boundary, flushes artifacts, and exits 130; a run that finishes before the
# signal lands (exit 0) is an acceptable race — the resume then just replays
# the complete journal, which exercises the same path.
res=(-exp fig8-stream -scale 0.05)
"$tv" sim "${res[@]}" -metrics-out "$tmp/clean.json" >"$tmp/clean.txt"
"$tv" sim "${res[@]}" -journal "$tmp/run.journal" \
    -metrics-out "$tmp/part.json" >/dev/null 2>&1 &
pid=$!
sleep 0.5
kill -INT "$pid" 2>/dev/null || true
rc=0; wait "$pid" || rc=$?
if [ "$rc" -ne 0 ] && [ "$rc" -ne 130 ]; then
    echo "journaled run exited $rc, want 0 (finished) or 130 (interrupted)" >&2
    exit 1
fi
"$tv" sim "${res[@]}" -resume -journal "$tmp/run.journal" \
    -metrics-out "$tmp/resumed.json" >"$tmp/resumed.txt" 2>/dev/null
cmp "$tmp/clean.json" "$tmp/resumed.json"
# Table output matches too, modulo the wall-clock timing header lines.
diff <(grep -v '^# ' "$tmp/clean.txt") <(grep -v '^# ' "$tmp/resumed.txt")

echo "== soak + chaos gate =="
# A bounded fixed-seed soak inside a hard 90s budget: 16 sampled units
# across every design with the oracle armed, chaos every 4th unit (the
# supervisor SIGKILLs its own worker child mid-unit and resumes it from
# the journal, asserting the resumed report is byte-identical), resource
# gates every 8 units, one fsync'd ledger line per unit. soakcheck must
# come back clean with at least one kill/resume cycle, and a same-seed
# rerun must reproduce the ledger's canonical projection byte-for-byte
# (DESIGN.md §10). Replay any flagged unit from its ledger line's seed and
# key — see EXPERIMENTS.md "Overnight soak".
soak=(-seed 11 -units 16 -budget 90s -ops-sample 100ms)
"$tv" soak "${soak[@]}" -ledger "$tmp/soak-a.jsonl" -workdir "$tmp/soak-wa" >/dev/null
"$tv" soakcheck -ledger "$tmp/soak-a.jsonl" -require-chaos 1
"$tv" soak "${soak[@]}" -ledger "$tmp/soak-b.jsonl" -workdir "$tmp/soak-wb" >/dev/null
"$tv" soakcheck -ledger "$tmp/soak-a.jsonl" -canon >"$tmp/soak-a.canon"
"$tv" soakcheck -ledger "$tmp/soak-b.jsonl" -canon >"$tmp/soak-b.canon"
cmp "$tmp/soak-a.canon" "$tmp/soak-b.canon"

echo "== fleet sweep gate =="
# The same sweep the interrupt gate ran locally, now through a gateway and
# two localhost workers — with one worker SIGKILLed mid-sweep. The dead
# worker's lease must expire and be re-dispatched (>=1 redelivery in the
# summary), and the merged table and export must come out byte-identical
# to the local run's (DESIGN.md §11). -acquire-delay holds the victim
# between lease grant and unit start so the kill reliably orphans a lease.
"$tv" gateway "${res[@]}" \
    -listen 127.0.0.1:0 -addr-file "$tmp/gw.addr" \
    -lease-ttl 2s -redeliver-backoff 100ms \
    -journal "$tmp/fleet.journal" -summary-file "$tmp/fleet-summary.json" \
    -metrics-out "$tmp/fleet.json" >"$tmp/fleet.txt" 2>/dev/null &
gwpid=$!
gwaddr=""
for _ in $(seq 1 100); do
    if [ -s "$tmp/gw.addr" ]; then gwaddr=$(cat "$tmp/gw.addr"); break; fi
    sleep 0.05
done
if [ -z "$gwaddr" ]; then
    echo "fleet gate: gateway address never appeared in $tmp/gw.addr" >&2
    exit 1
fi
"$tv" worker -gateway "http://$gwaddr" -name victim \
    -acquire-delay 5s >/dev/null 2>&1 &
victim=$!
sleep 1
kill -9 "$victim" 2>/dev/null || true
"$tv" worker -gateway "http://$gwaddr" -name survivor -slots 2 2>/dev/null
wait "$gwpid"
grep -Eq '"redelivered": *[1-9]' "$tmp/fleet-summary.json" || {
    echo "fleet gate: no redelivery after SIGKILLing a worker:" >&2
    cat "$tmp/fleet-summary.json" >&2
    exit 1
}
cmp "$tmp/clean.json" "$tmp/fleet.json"
diff <(grep -v '^# ' "$tmp/clean.txt") <(grep -v '^# ' "$tmp/fleet.txt")

echo "== vilamb fleet sweep gate =="
# The async-family reduced sweep (ext-async-mini: Baseline/TVARAK anchors
# plus epoch x granularity x battery Vilamb points, DESIGN.md §12) through
# the same kill-a-worker fleet: the async axes must survive the JobSpec
# round-trip and lease redelivery, and the merged table, both derived
# figure panels, and the export must come out byte-identical to a local
# tvarak sim run of the same grid.
async=(-exp ext-async-mini -scale 0.02)
"$tv" sim "${async[@]}" -metrics-out "$tmp/async-clean.json" >"$tmp/async-clean.txt"
"$tv" gateway "${async[@]}" \
    -listen 127.0.0.1:0 -addr-file "$tmp/agw.addr" \
    -lease-ttl 2s -redeliver-backoff 100ms \
    -journal "$tmp/async-fleet.journal" -summary-file "$tmp/async-summary.json" \
    -metrics-out "$tmp/async-fleet.json" >"$tmp/async-fleet.txt" 2>/dev/null &
gwpid=$!
gwaddr=""
for _ in $(seq 1 100); do
    if [ -s "$tmp/agw.addr" ]; then gwaddr=$(cat "$tmp/agw.addr"); break; fi
    sleep 0.05
done
if [ -z "$gwaddr" ]; then
    echo "vilamb fleet gate: gateway address never appeared in $tmp/agw.addr" >&2
    exit 1
fi
"$tv" worker -gateway "http://$gwaddr" -name victim \
    -acquire-delay 5s >/dev/null 2>&1 &
victim=$!
sleep 1
kill -9 "$victim" 2>/dev/null || true
"$tv" worker -gateway "http://$gwaddr" -name survivor -slots 2 2>/dev/null
wait "$gwpid"
grep -Eq '"redelivered": *[1-9]' "$tmp/async-summary.json" || {
    echo "vilamb fleet gate: no redelivery after SIGKILLing a worker:" >&2
    cat "$tmp/async-summary.json" >&2
    exit 1
}
cmp "$tmp/async-clean.json" "$tmp/async-fleet.json"
diff <(grep -v '^# ' "$tmp/async-clean.txt") <(grep -v '^# ' "$tmp/async-fleet.txt")

echo "ci.sh: all checks passed"
