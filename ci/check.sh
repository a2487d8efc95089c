#!/usr/bin/env bash
# Tier-1 gate: configure, build and run the full test suite in the plain
# Release configuration, then again under AddressSanitizer + UBSan
# (GREENCLUSTER_SANITIZE).  The plain configuration also builds the bench
# harnesses and runs bench/perf_smoke once, failing if it does not produce
# a sane BENCH_core.json (the persisted perf trajectory; gitignored), or if
# it regresses against the committed ci/BENCH_baseline.json by more than
# BENCH_TOLERANCE (default 0.15; hosted runners set it wider — the check is
# one-sided, so a faster machine never fails it).  It then runs the
# perfbench smoke test (perfbench/test_smoke.py) at --quick size.
# The sanitize mode also runs the ThreadSanitizer lane over the sharded
# simulation core (see tsan_lane; `ci/check.sh tsan` runs just that lane).
# The lint mode runs the cheap static checks (no build tree or
# CMakeCache.txt tracked by git, no src/ header that only tests include,
# clang-format via ci/format.sh --check,
# clang-tidy when installed, plus a tracing-compiled-out configure)
# without running the suite.
# The soak mode records a multi-day fig8 trace, replays it through
# tools/gcreplay at 1000x — including a kill at the midpoint tick and a
# checkpoint+WAL restore — and gates zero command-stream drift via
# gcinspect; it then runs the quick lossy fig15 sweep and gates the
# command-lifecycle SLOs (ack p99, retransmit rate, drop attribution)
# plus the committed metric-name manifest (ci/METRICS_manifest.txt);
# the chaos mode drives the wire serve loop through seeded
# fault schedules (drops, duplicates, reordering, corruption, mid-frame
# truncation, kill/restore) and gates the same drift oracle, plus a
# forged-snapshot negative test that must fail to load; the coverage mode
# builds with GC_COVERAGE=ON and fails if src/cp/ line coverage drops
# below 90%.
# Usage:
#
#   ci/check.sh            # every build configuration
#   ci/check.sh plain      # plain only
#   ci/check.sh sanitize   # ASan/UBSan suite + TSan sharded lane
#   ci/check.sh tsan       # TSan sharded lane only
#   ci/check.sh lint       # format check + GC_TRACING=OFF configure/build
#   ci/check.sh soak       # gcreplay drift oracle, multi-day + kill/restore
#   ci/check.sh chaos      # wire-fault schedules through the drift oracle
#   ci/check.sh coverage   # gcov lane, gates src/cp/ line coverage >= 90%
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="$(nproc 2>/dev/null || echo 4)"
MODE="${1:-all}"

# Tool preflight, hoisted so a lane reports its missing prerequisites
# before spending minutes configuring and building.  jq is required by the
# lanes that parse artifacts; clang-tidy is optional locally (the CI lint
# job installs it) but its absence is announced up front with an explicit
# SKIPPED line instead of a silent mid-lane return.
require_jq() {
  command -v jq >/dev/null 2>&1 \
    || { echo "ci/check.sh: jq is required (apt-get install jq)" >&2; exit 1; }
}

# Every metric name in ci/METRICS_manifest.txt must exist in the given
# counters.json (counters and gauges share the namespace).  The manifest is
# the committed observability contract: renaming cp.lifecycle.* or
# cp.drop.* silently would strand every dashboard and --check expression,
# so a rename must touch the manifest in the same diff.
metrics_manifest_check() {
  local counters="$1"
  echo "==> metric-name manifest check (ci/METRICS_manifest.txt)"
  local missing
  missing="$(jq -r --rawfile manifest ci/METRICS_manifest.txt '
      ((.counters // {}) + (.gauges // {})) as $have
      | $manifest | split("\n")
      | map(sub("#.*"; "") | gsub("^\\s+|\\s+$"; "") | select(length > 0))
      | map(select(. as $n | ($have | has($n)) | not))
      | .[]' "${counters}")"
  [ -z "${missing}" ] \
    || { printf 'metrics manifest: missing from %s:\n%s\n' \
           "${counters}" "${missing}" >&2; exit 1; }
}

find_clang_tidy() {
  for candidate in clang-tidy clang-tidy-18 clang-tidy-17 clang-tidy-16 \
                   clang-tidy-15 clang-tidy-14; do
    if command -v "${candidate}" >/dev/null 2>&1; then
      echo "${candidate}"
      return 0
    fi
  done
  return 0
}

run_config() {
  local name="$1"
  shift
  local dir="build-ci-${name}"
  echo "==> [${name}] configure"
  cmake -B "${dir}" -S . -DGC_WERROR=ON "$@" >/dev/null
  echo "==> [${name}] build"
  cmake --build "${dir}" -j "${JOBS}"
  echo "==> [${name}] ctest"
  (cd "${dir}" && ctest --output-on-failure --timeout 120 -j "${JOBS}")
}

# Runs perf_smoke from the given build dir and validates BENCH_core.json.
# Wall-clock numbers are machine-dependent, so this only gates on the file
# being present and structurally sane, not on absolute throughput.
perf_smoke() {
  local dir="$1"
  echo "==> [${dir}] perf_smoke"
  rm -f BENCH_core.json
  "${dir}/bench/perf_smoke" BENCH_core.json
  [ -s BENCH_core.json ] || { echo "perf_smoke: BENCH_core.json missing or empty" >&2; exit 1; }
  jq -e '(.event_loop | length) == 3
         and (.event_loop | all(.events_per_sec > 0))
         and .solve_ns_per_call > 0
         and .solve_reliable_ns_per_call > 0
         and (.solver_cache.hit_rate | . >= 0 and . <= 1)
         and (.sharded | length) == 12
         and (.sharded | all(.events_per_sec > 0 and .speedup > 0))
         and .sharded_consolidated.events_per_sec > 0
         and (.sharded_consolidated.imbalance | . >= 0)
         and .sharded_speedup_k4_m16384 > 0
         and .dcday.events > 0
         and .dcday.run_s > 0
         and .dcday.events_per_sec > 0
         and .trace_synth.arrivals > 0
         and .trace_synth.ns_per_arrival > 0
         and .trace_synth.max_rate_calls > 0
         and .sinks_overhead.sinks_off_s > 0
         and .sinks_overhead.sinks_on_s > 0
         and .sinks_overhead.ratio > 0' \
    BENCH_core.json >/dev/null \
    || { echo "perf_smoke: BENCH_core.json malformed" >&2; exit 1; }
  bench_compare
}

# One-sided regression gate against the committed baseline: throughput may
# not drop below (1 - tol) x baseline, latency may not rise above
# (1 + tol) x baseline.  Improvements never fail.  The cache hit rate is a
# deterministic replay mix, so it gets the same lower bound (a drop there
# means the memo key or the mix changed, not that the machine is slow).
bench_compare() {
  local tol="${BENCH_TOLERANCE:-0.15}"
  local baseline="ci/BENCH_baseline.json"
  [ -f "${baseline}" ] \
    || { echo "perf_smoke: ${baseline} missing (regenerate with bench/perf_smoke)" >&2; exit 1; }
  echo "==> perf_smoke vs ${baseline} (tolerance ${tol})"
  jq -en --argjson tol "${tol}" \
     --slurpfile cur BENCH_core.json --slurpfile base "${baseline}" '
    ($cur[0]) as $c | ($base[0]) as $b |
    [
      (range($b.event_loop | length) | . as $i |
        { what: "event_loop[\($b.event_loop[$i].pending_events)].events_per_sec",
          ok: ($c.event_loop[$i].events_per_sec
                 >= $b.event_loop[$i].events_per_sec * (1 - $tol)),
          cur: $c.event_loop[$i].events_per_sec,
          base: $b.event_loop[$i].events_per_sec }),
      { what: "solve_ns_per_call",
        ok: ($c.solve_ns_per_call <= $b.solve_ns_per_call * (1 + $tol)),
        cur: $c.solve_ns_per_call, base: $b.solve_ns_per_call },
      { what: "solve_reliable_ns_per_call",
        ok: ($c.solve_reliable_ns_per_call
               <= $b.solve_reliable_ns_per_call * (1 + $tol)),
        cur: $c.solve_reliable_ns_per_call,
        base: $b.solve_reliable_ns_per_call },
      # Machine-independent: the constrained solve (availability + wear on a
      # cached replay mix) must stay within a bounded factor of the plain
      # solve measured in the same run — a blowup here means the reliable
      # memo cache stopped hitting, not that the machine is slow.
      { what: "solve_reliable/solve ratio (<= 15x)",
        ok: ($c.solve_reliable_ns_per_call <= 15 * $c.solve_ns_per_call),
        cur: ($c.solve_reliable_ns_per_call / $c.solve_ns_per_call),
        base: 15 },
      { what: "solver_cache.hit_rate",
        ok: ($c.solver_cache.hit_rate >= $b.solver_cache.hit_rate * (1 - $tol)),
        cur: $c.solver_cache.hit_rate, base: $b.solver_cache.hit_rate },
      # Sharded-core scaling gate at the K=4 / M=16384 cell.  The required
      # speedup is capped at the 2.0x acceptance target but never exceeds
      # what the committed baseline itself demonstrated: a single-core
      # machine (whose baseline speedup is < 2 because there is no
      # parallelism to win) gates against its own baseline, while a
      # multi-core runner with a >= 2x baseline gates against the full
      # 2.0x target.  One-sided like everything else here.
      { what: "sharded_speedup_k4_m16384",
        ok: ($c.sharded_speedup_k4_m16384
               >= ([$b.sharded_speedup_k4_m16384, 2.0] | min) * (1 - $tol)),
        cur: $c.sharded_speedup_k4_m16384,
        base: ([$b.sharded_speedup_k4_m16384, 2.0] | min) },
      # K-invariance means sharded throughput at K=1 is a plain scalar
      # perf trajectory like event_loop: gate the M=16384 single-shard
      # cell so the DES core itself cannot quietly slow down.
      { what: "sharded[K=1,M=16384].events_per_sec",
        ok: (($c.sharded | map(select(.shards == 1 and .servers == 16384))
                | first.events_per_sec)
               >= ($b.sharded | map(select(.shards == 1 and .servers == 16384))
                     | first.events_per_sec) * (1 - $tol)),
        cur: ($c.sharded | map(select(.shards == 1 and .servers == 16384))
                | first.events_per_sec),
        base: ($b.sharded | map(select(.shards == 1 and .servers == 16384))
                 | first.events_per_sec) },
      # End to end: the fig8 datacenter day on the sequential engine (sinks
      # off), the experiment of the paper itself.  Its event throughput
      # may not fall, like event_loop.
      { what: "dcday.events_per_sec",
        ok: ($c.dcday.events_per_sec >= $b.dcday.events_per_sec * (1 - $tol)),
        cur: $c.dcday.events_per_sec,
        base: $b.dcday.events_per_sec },
      # End to end: the fig8 arrival synthesis (Lewis–Shedler thinning over
      # the WC98-like profile).  A latency, so it may not rise.
      { what: "trace_synth.ns_per_arrival",
        ok: ($c.trace_synth.ns_per_arrival
               <= $b.trace_synth.ns_per_arrival * (1 + $tol)),
        cur: $c.trace_synth.ns_per_arrival,
        base: $b.trace_synth.ns_per_arrival },
      # Machine-independent: thinning evaluates one majorant per window.
      # A deterministic count, so an absolute bound: a rise means the
      # majorant is being re-evaluated per candidate again.
      { what: "trace_synth.max_rate_calls",
        ok: ($c.trace_synth.max_rate_calls <= $b.trace_synth.max_rate_calls),
        cur: $c.trace_synth.max_rate_calls,
        base: $b.trace_synth.max_rate_calls },
      # Machine-independent: a fleet consolidated onto a 1/16 prefix must
      # still spread its work over every shard.  Strided ownership keeps
      # the imbalance near 0; contiguous ranges put the whole prefix on
      # shard 0 (imbalance K-1 = 3).  An absolute bound, not a tolerance.
      { what: "sharded_consolidated.imbalance (<= 0.5)",
        ok: ($c.sharded_consolidated.imbalance <= 0.5),
        cur: $c.sharded_consolidated.imbalance,
        base: 0.5 },
      # Machine-independent: the fig8 replay with every observability sink
      # attached and every artifact rendered may cost at most 1.5x the
      # same replay with the sinks off.  A ratio of two timings from one
      # run, so an absolute bound, not a tolerance.
      { what: "sinks_overhead.ratio (<= 1.5)",
        ok: ($c.sinks_overhead.ratio <= 1.5),
        cur: $c.sinks_overhead.ratio,
        base: 1.5 }
    ]
    | map(select(.ok | not))
    | if length == 0 then "ok"
      else map("perf_smoke: \(.what) regressed: \(.cur) vs baseline \(.base)")
           | join("\n") + "\n" | halt_error(1)
      end' >/dev/null \
    || { echo "perf_smoke: benchmark regression beyond tolerance ${tol}" >&2; exit 1; }
}

# Smoke-tests the perfbench harness (BENCHMARK.json): every workload at
# --quick size, untraced and traced, must pass its output checks and print
# every declared metric.  Its Release build tree goes under the lane's
# build directory, not the source tree.
perfbench_smoke() {
  local dir="$1"
  echo "==> [${dir}] perfbench smoke"
  CARGO_TARGET_DIR="$(pwd)/${dir}/perfbench-target" python3 perfbench/test_smoke.py
}

# Smoke-checks the --trace-out / --timeseries-out pipeline end to end: the
# fig8 replay must produce a loadable Chrome trace, a non-empty audit log
# and a per-period time series, and the artifact set must pass the
# gcinspect SLA smoke gate (the replay is fixed-seed, so the bounds are
# deterministic: no shed jobs, bounded rolling violations, energy flowing).
trace_out_smoke() {
  local dir="$1"
  echo "==> [${dir}] trace-out smoke"
  local prefix="${dir}/fig8"
  "${dir}/bench/fig8_trace_replay" --trace-out="${prefix}" \
      --timeseries-out="${prefix}" >/dev/null
  jq -e '(.traceEvents | length) > 0' "${prefix}.trace.json" >/dev/null \
    || { echo "trace-out: ${prefix}.trace.json malformed" >&2; exit 1; }
  jq -es 'length > 0' "${prefix}.audit.jsonl" >/dev/null \
    || { echo "trace-out: ${prefix}.audit.jsonl malformed" >&2; exit 1; }
  [ -s "${prefix}.timeseries.csv" ] && [ -s "${prefix}.prom" ] \
    || { echo "timeseries-out: ${prefix}.timeseries.csv / .prom missing" >&2; exit 1; }
  echo "==> [${dir}] gcinspect check"
  "${dir}/tools/gcinspect" "${prefix}" --check \
      'obs.timeseries.rows>=1000,rolling_viol_frac:max<=0.5,d_shed:sum<=0,energy_j:last>0,sim.jobs.lost<=0'
}

# The reliability gate: the fig16 wear-aware demo run (fixed seed, so every
# bound is deterministic) must plan availability at or above its A_ref of
# 0.9, and must boot strictly fewer servers than the naive run of the same
# comparison (49 boots at this seed; the wear-aware run does 15 — the gate
# leaves slack for model-parameter drift while still proving wear
# awareness bites).
fig16_smoke() {
  local dir="$1"
  echo "==> [${dir}] fig16 reliability smoke"
  local prefix="${dir}/fig16"
  "${dir}/bench/fig16_reliability" --trace-out="${prefix}" \
      --timeseries-out="${prefix}" >/dev/null
  jq -es 'length > 0 and (last | has("solved_spares"))' "${prefix}.audit.jsonl" >/dev/null \
    || { echo "fig16: ${prefix}.audit.jsonl missing reliability columns" >&2; exit 1; }
  echo "==> [${dir}] gcinspect check (fig16)"
  "${dir}/tools/gcinspect" "${prefix}" --check \
      'reliability.availability_estimate>=0.9,fleet.boot_count>0,fleet.boot_count<30,fleet.wear_fraction_max>0,solved_spares:max>=1'
}

# ThreadSanitizer lane for the sharded simulation core: builds with
# GC_TSAN=ON and drives the parallel barrier loop two ways — the
# shard-determinism property suite (K up to 8 worker threads) and the fig8
# trace replay at K=4.  The full test suite is not repeated under TSan: it
# is single-threaded, the ASan/UBSan lane already covers it, and TSan's
# ~10x slowdown would dominate CI for zero additional thread coverage.
# The lane builds without NDEBUG (RelWithDebInfo at -O1), so every
# GC_DCHECK runs too — among them the check that the sharded engine's
# dense power column matches a fold over the server meters bit for bit.
tsan_lane() {
  local dir="build-ci-tsan"
  echo "==> [tsan] configure"
  cmake -B "${dir}" -S . -DGC_WERROR=ON -DGC_TSAN=ON \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DCMAKE_CXX_FLAGS_RELWITHDEBINFO="-O1 -g" \
        -DGC_BUILD_EXAMPLES=OFF -DGC_BUILD_TOOLS=OFF >/dev/null
  echo "==> [tsan] build"
  cmake --build "${dir}" -j "${JOBS}" \
        --target test_sharded_determinism fig8_trace_replay
  echo "==> [tsan] sharded determinism suite"
  (cd "${dir}" && ctest --output-on-failure --timeout 600 --no-tests=error \
       -R 'ShardedDeterminism')
  echo "==> [tsan] fig8 replay at K=4"
  "${dir}/bench/fig8_trace_replay" --shards=4 >/dev/null
}

# clang-tidy over the sources we own, using the lint build's compile
# database.  The binary was probed (and its absence announced) before the
# lane started; an empty name here means skip.  The profile lives in
# .clang-tidy (bugprone-* + performance-*).
clang_tidy() {
  local tidy="$1"
  [ -n "${tidy}" ] || return 0
  echo "==> [lint] ${tidy}"
  [ -f build-ci-lint/compile_commands.json ] \
    || { echo "clang-tidy: build-ci-lint/compile_commands.json missing" >&2; exit 1; }
  find src -name '*.cpp' | sort \
    | xargs -P "${JOBS}" -n 4 "${tidy}" -p build-ci-lint --quiet \
    || { echo "clang-tidy: analysis failed (see above)" >&2; exit 1; }
}

lint() {
  # Probe every tool first: a box without clang-tidy learns that before the
  # multi-minute configure/build, not after.
  local tidy
  tidy="$(find_clang_tidy)"
  if [ -z "${tidy}" ]; then
    echo "==> [lint] SKIPPED: clang-tidy (not installed; the CI lint job enforces it)"
  fi
  # Build trees are generated, machine-specific artifacts (CMakeCache.txt
  # embeds absolute paths); one committed by accident bloats every clone.
  echo "==> [lint] no committed build trees"
  local committed
  committed="$(git ls-files | grep -E '^build[^/]*/|(^|/)CMakeCache\.txt$' || true)"
  [ -z "${committed}" ] \
    || { printf 'lint: build artifacts are tracked by git:\n%s\n' \
           "$(echo "${committed}" | head -5)" >&2; exit 1; }
  # Code with no production caller is deleted, not kept alive by its tests:
  # every header under src/ needs an includer outside tests/ other than its
  # own .cpp.
  echo "==> [lint] no test-only modules under src/"
  local dead="" header
  while IFS= read -r header; do
    git grep -qF "#include \"${header#src/}\"" -- ':!tests/' ":!${header%.h}.cpp" \
      || dead="${dead}${header}"$'\n'
  done < <(git ls-files 'src/*.h')
  [ -z "${dead}" ] \
    || { printf 'lint: headers only tests include:\n%s' "${dead}" >&2; exit 1; }
  # Both engines share one fault plane: only the injector puts a server
  # crash or repair on an event queue (an engine only dispatches them).
  echo "==> [lint] one fault plane"
  local fault_events
  fault_events="$(git grep -nE 'EventType::kServer(Fail|Repair)' -- '*.cpp' '*.h' \
                    ':!src/sim/fault_injector.cpp' \
                  | grep -vE 'case EventType::kServer(Fail|Repair):' || true)"
  [ -z "${fault_events}" ] \
    || { printf 'lint: fault events outside sim/fault_injector.cpp:\n%s\n' \
           "${fault_events}" >&2; exit 1; }
  # Two event loops, one per engine: no other program file drains an
  # EventQueue (a new experiment runs through run_simulation instead).
  echo "==> [lint] two event loops"
  local loops
  loops="$(git grep -lE '(\.|->)pop\(\)' -- 'src/*' 'tools/*' \
             ':!src/sim/simulation.cpp' ':!src/sim/sharded.cpp' \
           | xargs -r git grep -lw 'EventQueue' -- || true)"
  [ -z "${loops}" ] \
    || { printf 'lint: EventQueue drained outside the two engines:\n%s\n' \
           "${loops}" >&2; exit 1; }
  echo "==> [lint] clang-format"
  ci/format.sh --check
  # The zero-overhead claim only holds if the tracing-compiled-out build
  # actually compiles; a call site using a helper outside trace.h would
  # break exactly here.
  echo "==> [lint] configure/build with GC_TRACING=OFF"
  cmake -B build-ci-lint -S . -DGC_WERROR=ON -DGC_TRACING=OFF \
        -DGC_BUILD_BENCH=OFF -DGC_BUILD_EXAMPLES=OFF \
        -DCMAKE_EXPORT_COMPILE_COMMANDS=ON >/dev/null
  cmake --build build-ci-lint -j "${JOBS}"
  clang_tidy "${tidy}"
  (cd build-ci-lint && ctest --output-on-failure --timeout 120 -j "${JOBS}" \
       -R "Obs|MetricRegistry|CountersSnapshot|TraceCollector|TraceHelpers|DecisionAuditLog")
}

# The soak lane (DESIGN.md §12.3 + §13): record a multi-day "datacenter"
# trace (the fig8 WC98-like replay, fixed seeds) with the observability
# sinks attached, then stream the recording through tools/gcreplay at
# 1000x virtual time and gate on *zero* command-stream drift — once
# uninterrupted, and once with the controller killed at the midpoint tick
# and restored from its checkpoint + WAL (the crash must be invisible in
# the drift counters).  A forged copy of the recording must conversely
# FAIL the replay — proving the oracle can actually see drift, not just
# that drift is absent.
soak_lane() {
  require_jq
  local dir="build-ci-soak"
  echo "==> [soak] configure"
  cmake -B "${dir}" -S . -DGC_WERROR=ON -DGC_BUILD_EXAMPLES=OFF \
        -DGC_BUILD_TESTS=OFF >/dev/null
  echo "==> [soak] build"
  cmake --build "${dir}" -j "${JOBS}" \
        --target fig8_trace_replay fig15_control_faults gcreplay gcinspect
  local prefix="${dir}/soak"
  echo "==> [soak] record four compressed days (fig8 trace replay)"
  "${dir}/bench/fig8_trace_replay" --days=4 --trace-out="${prefix}" \
      --timeseries-out="${prefix}" >/dev/null
  echo "==> [soak] gcreplay at 1000x"
  "${dir}/tools/gcreplay" "${prefix}" --speedup=1000 --out="${dir}/replay"
  echo "==> [soak] drift gate (gcinspect)"
  "${dir}/tools/gcinspect" "${dir}/replay" --check \
      'cp.drift.mismatches<=0,cp.drift.ticks>=2000,cp.drift.replayed_span_s>=9000'
  # Kill the replay halfway through the recording, then resume from the
  # persisted snapshot + WAL: the spliced run must stay drift-free too.
  local ticks mid
  ticks="$(jq -s 'length' "${prefix}.audit.jsonl")"
  mid=$(( ticks / 2 ))
  echo "==> [soak] kill at tick ${mid} of ${ticks}, restore, replay the rest"
  "${dir}/tools/gcreplay" "${prefix}" --speedup=1000 \
      --state="${dir}/soak-state" --kill-at-tick="${mid}" >/dev/null
  [ -s "${dir}/soak-state.snap" ] \
    || { echo "soak: kill left no snapshot behind" >&2; exit 1; }
  "${dir}/tools/gcreplay" "${prefix}" --speedup=1000 \
      --state="${dir}/soak-state" --restore --out="${dir}/replay-restored"
  echo "==> [soak] drift gate after kill/restore (gcinspect)"
  "${dir}/tools/gcinspect" "${dir}/replay-restored" --check \
      "cp.drift.mismatches<=0,cp.drift.ticks>=$(( ticks - mid - 10 ))"
  echo "==> [soak] forged recording must fail the oracle"
  jq -c 'if .t >= 4000 and .t < 4200 and .speed_set
         then .speed = 0.123456 else . end' \
     "${prefix}.audit.jsonl" > "${dir}/forged.audit.jsonl"
  cmp -s "${prefix}.audit.jsonl" "${dir}/forged.audit.jsonl" \
    && { echo "soak: forging the recording changed nothing" >&2; exit 1; }
  local rc=0
  "${dir}/tools/gcreplay" "${dir}/forged" >/dev/null 2>&1 || rc=$?
  [ "${rc}" -eq 1 ] \
    || { echo "soak: forged replay exited ${rc}, expected drift exit 1" >&2; exit 1; }
  # The lifecycle gate (DESIGN.md §14): the quick lossy fig15 sweep must
  # produce a per-command timeline the --lifecycle view can reconstruct,
  # keep decision→ack p99 and the retransmit rate inside generous but
  # real bounds (ack_timeout 5 s + 5 s RTT + retries stays far below
  # 60 s unless retransmission breaks), and attribute at least one drop
  # (the 10% loss point guarantees channel drops at this seed).
  echo "==> [soak] fig15 quick sweep with lifecycle artifacts"
  local f15="${dir}/fig15"
  "${dir}/bench/fig15_control_faults" --quick --trace-out="${f15}" \
      --timeseries-out="${f15}" >/dev/null
  [ -s "${f15}.lifecycle.jsonl" ] \
    || { echo "soak: ${f15}.lifecycle.jsonl missing or empty" >&2; exit 1; }
  echo "==> [soak] lifecycle gate (gcinspect)"
  "${dir}/tools/gcinspect" "${f15}" --check \
      'cp.lifecycle.ack_latency:p99<=60,cp.lifecycle.retransmit_rate<=5,cp.drop.total>=1,cp.lifecycle.issued>=1000'
  echo "==> [soak] lifecycle view reconstructs the timeline"
  # Captured to a file first: `gcinspect | grep -q` under pipefail fails
  # with SIGPIPE once grep exits early on a large table.
  "${dir}/tools/gcinspect" "${f15}" --lifecycle > "${f15}.lifecycle.txt"
  grep -q 'command lifecycles' "${f15}.lifecycle.txt" \
    || { echo "soak: gcinspect --lifecycle produced no table" >&2; exit 1; }
  metrics_manifest_check "${f15}.counters.json"
}

# The chaos lane (DESIGN.md §13.4): replay the recorded day through the
# *wire* serve loop while a seeded schedule injects transport faults —
# drops, duplicates, reordering, corrupt bytes, mid-frame truncation and
# full kill/restore cycles — and gate zero command-stream drift against
# the clean in-process oracle.  Schedules run against a clean recording
# and again with a lossier mix; a forged (bit-flipped) snapshot must then
# fail to restore — the crash-recovery analogue of the soak lane's forged
# recording.
chaos_lane() {
  require_jq
  local dir="build-ci-chaos"
  echo "==> [chaos] configure"
  cmake -B "${dir}" -S . -DGC_WERROR=ON -DGC_BUILD_EXAMPLES=OFF \
        -DGC_BUILD_TESTS=OFF >/dev/null
  echo "==> [chaos] build"
  cmake --build "${dir}" -j "${JOBS}" \
        --target fig8_trace_replay gcreplay gcinspect
  local prefix="${dir}/chaos"
  echo "==> [chaos] record the datacenter day (fig8 trace replay)"
  "${dir}/bench/fig8_trace_replay" --trace-out="${prefix}" \
      --timeseries-out="${prefix}" >/dev/null
  # Schedules x {clean, lossy}: the clean schedule proves the harness
  # itself introduces no drift; the lossy mixes layer every fault type,
  # including back-to-back kills landing on and off checkpoint boundaries.
  local schedule
  for schedule in \
      "" \
      "corrupt@40,truncate@90,kill@140,dup@200,reorder@260,drop@320" \
      "kill@64,kill@66,corrupt@128,kill@129,truncate@400,kill@2200,dup@2300,drop@3000"; do
    echo "==> [chaos] schedule '${schedule:-<clean>}'"
    "${dir}/tools/gcreplay" "${prefix}" --chaos="${schedule}" \
        --out="${dir}/chaos-out"
    "${dir}/tools/gcinspect" "${dir}/chaos-out" --check \
        'cp.drift.mismatches<=0,cp.chaos.inputs>=3000'
  done
  echo "==> [chaos] forged snapshot must fail to restore"
  local ticks mid
  ticks="$(jq -s 'length' "${prefix}.audit.jsonl")"
  mid=$(( ticks / 2 ))
  "${dir}/tools/gcreplay" "${prefix}" --state="${dir}/chaos-state" \
      --kill-at-tick="${mid}" >/dev/null
  local snap="${dir}/chaos-state.snap"
  [ -s "${snap}" ] || { echo "chaos: kill left no snapshot behind" >&2; exit 1; }
  # Flip one payload byte (offset 100 sits past the 16-byte envelope
  # header): the CRC trailer must reject the image outright.
  local byte
  byte="$(od -An -tu1 -j 100 -N 1 "${snap}" | tr -dc '0-9')"
  printf "$(printf '\\%03o' $(( (byte + 1) % 256 )))" \
    | dd of="${snap}" bs=1 seek=100 conv=notrunc status=none
  local rc=0
  "${dir}/tools/gcreplay" "${prefix}" --state="${dir}/chaos-state" --restore \
      >/dev/null 2>&1 || rc=$?
  [ "${rc}" -ne 0 ] \
    || { echo "chaos: forged snapshot restored cleanly, expected a failure" >&2; exit 1; }
}

# The coverage lane: gcov-instrumented build, the control-plane test suites,
# then src/cp/ line coverage aggregated from gcov JSON.  Gates at 90%: the
# extracted library is the piece a real deployment would link, so its tests
# must keep exercising essentially all of it.
coverage_lane() {
  require_jq
  command -v gcov >/dev/null 2>&1 \
    || { echo "ci/check.sh: gcov is required for the coverage lane" >&2; exit 1; }
  local dir="build-ci-coverage"
  local min_pct="${GC_COVERAGE_MIN:-90}"
  echo "==> [coverage] configure (GC_COVERAGE=ON)"
  cmake -B "${dir}" -S . -DGC_WERROR=ON -DGC_COVERAGE=ON \
        -DGC_BUILD_BENCH=OFF -DGC_BUILD_EXAMPLES=OFF -DGC_BUILD_TOOLS=OFF \
        -DCMAKE_BUILD_TYPE=Debug >/dev/null
  echo "==> [coverage] build control-plane suites"
  cmake --build "${dir}" -j "${JOBS}" \
        --target test_control_plane test_replay test_wire test_replay_fuzz \
                 test_snapshot test_wal test_chaos test_lifecycle
  echo "==> [coverage] run control-plane suites"
  (cd "${dir}" && ctest --output-on-failure --timeout 120 --no-tests=error \
       -R 'ControlPlane|Replay|ReplayFuzz|Wire|WireServe|ValidateTimeseries|Snapshot|Wal|Chaos|Scrape|Lifecycle|DropAttribution')
  echo "==> [coverage] aggregate src/cp/ line coverage (gcov)"
  find "${dir}" -name '*.gcda' -print0 \
    | xargs -0 gcov --json-format --stdout > "${dir}/gcov.json" 2>/dev/null
  [ -s "${dir}/gcov.json" ] \
    || { echo "coverage: no gcov output (missing .gcda files?)" >&2; exit 1; }
  # One JSON document per object file; lines for the same source (headers
  # in many TUs) aggregate by max hit count.  The summary artifact is the
  # lcov-style per-file table CI uploads.
  jq -s '
    [ .[] | .files[] | select(.file | contains("src/cp/"))
      | .file as $f | .lines[]
      | {f: ($f | sub(".*/src/"; "src/")), l: .line_number, c: .count} ]
    | group_by([.f, .l])
    | map({f: .[0].f, hit: ((map(.c) | max) > 0)})
    | group_by(.f)
    | map({file: .[0].f, lines: length,
           covered: (map(select(.hit)) | length)})
    | map(.percent = 100 * .covered / .lines)
    | {files: .,
       lines: (map(.lines) | add),
       covered: (map(.covered) | add)}
    | .percent = 100 * .covered / .lines
  ' "${dir}/gcov.json" > "${dir}/COVERAGE_cp.json"
  jq -r '(.files[] | "\(.file): \(.covered)/\(.lines) lines (\(.percent * 100 | round / 100)%)"),
         "TOTAL src/cp/: \(.covered)/\(.lines) lines (\(.percent * 100 | round / 100)%)"' \
     "${dir}/COVERAGE_cp.json" | tee "${dir}/COVERAGE_cp.txt"
  jq -e --argjson min "${min_pct}" '.percent >= $min' \
     "${dir}/COVERAGE_cp.json" >/dev/null \
    || { echo "coverage: src/cp/ line coverage below ${min_pct}%" >&2; exit 1; }
}

case "${MODE}" in
  plain)
    require_jq
    run_config plain -DGC_BUILD_BENCH=ON
    perf_smoke build-ci-plain
    trace_out_smoke build-ci-plain
    fig16_smoke build-ci-plain
    perfbench_smoke build-ci-plain
    ;;
  sanitize)
    run_config sanitize -DGREENCLUSTER_SANITIZE=ON
    # The malformed-artifact corpus (tests/corpus/) runs inside the full
    # suite above; re-running it by name makes the fuzz gate explicit and
    # guards against the suites being filtered out of a future config.
    echo "==> [sanitize] replay fuzz corpus + durable-state loaders"
    (cd build-ci-sanitize && ctest --output-on-failure --timeout 120 \
         --no-tests=error -R 'ReplayFuzz|Wire|Snapshot|Wal|Chaos')
    tsan_lane
    ;;
  tsan)
    tsan_lane
    ;;
  lint)
    lint
    ;;
  soak)
    soak_lane
    ;;
  chaos)
    chaos_lane
    ;;
  coverage)
    coverage_lane
    ;;
  all)
    require_jq
    run_config plain -DGC_BUILD_BENCH=ON
    perf_smoke build-ci-plain
    trace_out_smoke build-ci-plain
    fig16_smoke build-ci-plain
    perfbench_smoke build-ci-plain
    run_config sanitize -DGREENCLUSTER_SANITIZE=ON
    tsan_lane
    soak_lane
    chaos_lane
    coverage_lane
    ;;
  *)
    echo "usage: $0 [plain|sanitize|tsan|lint|soak|chaos|coverage|all]" >&2
    exit 2
    ;;
esac

echo "==> all checks passed"
