#!/usr/bin/env bash
# Shared verification stages for scripts/check.sh and .github/workflows/ci.yml.
#
# Each stage is a function; the dispatcher at the bottom lets both the local
# pre-merge script and the CI matrix invoke exactly the same logic:
#
#   scripts/stages.sh asan  [build-dir]   # ASan/UBSan build + full ctest
#   scripts/stages.sh tsan  [build-dir]   # TSan build + parallel-runner tests
#   scripts/stages.sh fault [build-dir]   # churn-recovery sweep under ASan
#   scripts/stages.sh perf  [build-dir]   # Release perf smoke vs the
#                                         # parent commit (HEAD^)
#   scripts/stages.sh scale [build-dir]   # Release 100k-peer churn cell,
#                                         # sharded, byte-compared across
#                                         # shard counts and the runtime's
#                                         # own choice
#   scripts/stages.sh trace [build-dir]   # observability smoke: capture a
#                                         # recovery trace, run every
#                                         # trace_report mode
#   scripts/stages.sh streaming [build-dir]  # Release streaming sweep,
#                                         # --jobs byte-compared, pinned
#                                         # miss-ratio / flash acceptance
#   scripts/stages.sh bench-smoke         # perfbench/test_bench.py: the
#                                         # repo benchmark at tiny scale,
#                                         # its checks and compare verdicts
#   scripts/stages.sh nightly-scale [build-dir]  # 100k peers, shards 1/2/4/8/chosen; 1M
#   scripts/stages.sh nightly-tsan  [build-dir]  # full ctest under TSan
#   scripts/stages.sh nightly-bench [build-dir]  # scale-4 sweeps (Figs. 11-17 too) + perf gate
#   scripts/stages.sh lint-format         # clang-format --dry-run --Werror
#   scripts/stages.sh lint-tidy [build-dir]  # clang-tidy over src/core
#
# Sanitizer trees default to build-asan / build-tsan / build-perf /
# build-tidy next to the repo root.  Every stage is independent; check.sh
# chains them, CI fans them out across matrix jobs.
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
jobs="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)"

# Every stage invokes its binaries through this guard: a missing or
# non-executable stage binary must fail the stage loudly instead of
# slipping through (a stale build dir once let check.sh report success
# with nothing actually run).
require_binary() {
  local binary
  for binary in "$@"; do
    if [[ ! -x "${binary}" ]]; then
      echo "stages.sh: required binary missing or not executable:" \
        "${binary} (wrong build dir, or the build target failed?)" >&2
      exit 1
    fi
  done
}

# ASan/UBSan: configure with -Wall -Wextra (always on via the top-level
# CMakeLists) plus AddressSanitizer + UBSan, build everything, run the
# full ctest suite.  Warnings are promoted to errors so new code stays
# clean.
stage_asan() {
  local build_dir="${1:-${repo_root}/build-asan}"
  cmake -B "${build_dir}" -S "${repo_root}" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DGROUPCAST_ASAN=ON \
    -DCMAKE_CXX_FLAGS=-Werror
  cmake --build "${build_dir}" -j "${jobs}"
  ctest --test-dir "${build_dir}" --no-tests=error \
    --output-on-failure -j "${jobs}"
  echo "stages.sh: all tests passed under ASan/UBSan"
}

# TSan: every test that crosses a thread.  util::parallel_for runs the
# grid/averaged runners (jobs > 1) and the world build (per-host GNP fits,
# per-source Dijkstra), the middleware's ChunkPipeline fits coordinates
# during the bootstrap joins (the world-build, host-cache, bootstrap and
# overlay-golden tests), ShardSet runs sharded scenarios (the shard and
# harness tests, and the tree-view and invariant tests, whose view fills,
# subscribes and node teardown run on the shard workers), and the tracing
# facilities are per-thread.  Recovery and data-plane runs go through the
# same grid pool, so their determinism/acceptance tests ride along too.
# Middleware runs forks of one shared, read-only world on parallel_for
# workers at once.
stage_tsan() {
  local build_dir="${1:-${repo_root}/build-tsan}"
  cmake -B "${build_dir}" -S "${repo_root}" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DGROUPCAST_TSAN=ON \
    -DCMAKE_CXX_FLAGS=-Werror
  cmake --build "${build_dir}" -j "${jobs}" --target groupcast_tests
  ctest --test-dir "${build_dir}" --no-tests=error \
    --output-on-failure -j "${jobs}" \
    -R 'Experiment|ExperimentGrid|Counter|Tracer|Trace|Recovery|FaultPlan|FaultInjector|ReliableExchange|DataPlane|Histogram|FlightRecorder|GridDeterminism|Provenance|ShardSet|ShardDeterminism|Streaming|Gnp|Coords|NelderMead|Parallel|Routing|Harness|WorldBuild|HostCache|Bootstrap|Regression.OverlayConstruction|TreeView|Invariant|Middleware'
  echo "stages.sh: parallel-runner tests clean under TSan"
}

# Fault injection: drive the full recovery sweep (deterministic crashes +
# loss grid, both data-plane variants, partition-heal cells, 4 grid
# workers) under the ASan build from stage_asan, then a pinned
# partition-heal run: a 30 s RP-side partition with a 3-replica quorum
# must keep BOTH sides delivering (majority via lease handoff, minority
# via the caretaker rendezvous) and the heal must merge the divergent
# epoch logs without conflicts.  The runs are deterministic, so the
# ratios are pinned exactly.
stage_fault() {
  local build_dir="${1:-${repo_root}/build-asan}"
  cmake --build "${build_dir}" -j "${jobs}" \
    --target bench_churn_recovery bench_reliability sim_driver
  require_binary "${build_dir}/bench/bench_churn_recovery" \
    "${build_dir}/bench/bench_reliability" \
    "${build_dir}/examples/sim_driver"
  "${build_dir}/bench/bench_churn_recovery" --jobs=4 \
    --json_out="${build_dir}/BENCH_churn_recovery.json" > /dev/null
  # Replication on vs off at the same seeds: every replicated row must
  # re-adopt some orphans through the rung-0 backup parent.
  local reliability_out
  reliability_out="$("${build_dir}/bench/bench_reliability" --jobs=4)"
  grep -Eq '^[0-9.]+ +[0-9.]+ +on ' <<< "${reliability_out}"
  if grep -Eq '^[0-9.]+ +[0-9.]+ +on .* 0$' <<< "${reliability_out}"; then
    echo "stages.sh: a replicated bench_reliability row reports zero" \
      "backup attaches" >&2
    exit 1
  fi
  local partition_out
  partition_out="$("${build_dir}/examples/sim_driver" --peers=300 \
    --groups=1 --seed=1 --recovery=true --crash=0.1 --replicas=3 \
    --partition=30)"
  grep -q "partition: majority delivery 100.0%, minority delivery 100.0%" \
    <<< "${partition_out}"
  grep -q "epoch conflicts 0.0" <<< "${partition_out}"
  # Anchored: sim_driver prints the violation count summed over the
  # topologies with %.4g, so only an exact 0 passes (not 0.375 or 05).
  grep -q "violations 0$" <<< "${partition_out}"
  echo "stages.sh: churn-recovery sweep + partition-heal sweep clean under" \
    "ASan (--jobs=4; both partition sides pinned at 100% delivery;" \
    "replicated recovery cells re-attach through rung 0)"
}

# Perf smoke: sanitizer trees are useless for timing, so bench_micro gets
# its own Release tree.  The google-benchmark suite itself is skipped
# (filter matches nothing) — the gated number is the deterministic
# event-loop probe behind --json_out.  Its reference is the parent commit
# (HEAD^) built on the same host from a git worktree, not a checked-in
# number: a fixed floor failed on unchanged code whenever the shared host
# ran slow.  The two probes run five times each, alternating, and
# scripts/perf_gate.cmake gates the change's median against the parent's
# under the same 25% bound; bytes_per_peer stays pinned to
# bench/baselines/memory_baseline.json.  The churn-recovery sweep also
# runs here at Release speed so its JSON (including the slow-child /
# flow-control cells) lands in the perf-smoke artifact upload.
stage_perf() {
  local build_dir="${1:-${repo_root}/build-perf}"
  cmake -B "${build_dir}" -S "${repo_root}" -DCMAKE_BUILD_TYPE=Release
  cmake --build "${build_dir}" -j "${jobs}" \
    --target bench_micro bench_churn_recovery
  require_binary "${build_dir}/bench/bench_micro" \
    "${build_dir}/bench/bench_churn_recovery"
  if ! git -C "${repo_root}" rev-parse --verify -q 'HEAD^' > /dev/null; then
    echo "stages.sh: perf needs the parent commit (HEAD^); fetch at" \
      "least two commits" >&2
    exit 1
  fi
  local parent_src="${build_dir}/parent-src"
  local parent_build="${build_dir}/parent-build"
  git -C "${repo_root}" worktree remove --force "${parent_src}" \
    2> /dev/null || true
  git -C "${repo_root}" worktree add --force --detach "${parent_src}" 'HEAD^'
  cmake -B "${parent_build}" -S "${parent_src}" -DCMAKE_BUILD_TYPE=Release
  cmake --build "${parent_build}" -j "${jobs}" --target bench_micro
  require_binary "${parent_build}/bench/bench_micro"
  local parent_runs=() change_runs=() run
  for run in 1 2 3 4 5; do
    "${parent_build}/bench/bench_micro" '--benchmark_filter=^$' \
      --json_out="${build_dir}/BENCH_micro_parent_${run}.json" > /dev/null
    "${build_dir}/bench/bench_micro" '--benchmark_filter=^$' \
      --json_out="${build_dir}/BENCH_micro_${run}.json" > /dev/null
    parent_runs+=("${build_dir}/BENCH_micro_parent_${run}.json")
    change_runs+=("${build_dir}/BENCH_micro_${run}.json")
  done
  git -C "${repo_root}" worktree remove --force "${parent_src}"
  cmake -DBASELINE="$(IFS=';'; echo "${parent_runs[*]}")" \
    -DCURRENT="$(IFS=';'; echo "${change_runs[*]}")" \
    -DMAX_REGRESSION_PERCENT=25 \
    -DMEMORY_BASELINE="${repo_root}/bench/baselines/memory_baseline.json" \
    -DMAX_MEMORY_REGRESSION_PERCENT=10 \
    -P "${repo_root}/scripts/perf_gate.cmake"
  "${build_dir}/bench/bench_churn_recovery" --jobs=4 \
    --json_out="${build_dir}/BENCH_churn_recovery.json" > /dev/null
  echo "stages.sh: perf smoke within budget (bench_micro events/sec," \
    "median of five against the parent commit's)"
}

# Scale smoke: the event kernel at six figures of peers.  One 100k-peer
# churn cell through the recovery harness at --shards=1, 2 and 4, and once
# without --shards (the runtime's own choice); the runs must finish and
# their stdout must be byte-identical — the summary deliberately omits the
# shard count, so a straight diff proves the determinism contract at scale
# (docs/PERFORMANCE.md, "Sharded execution & memory budget").
stage_scale() {
  local build_dir="${1:-${repo_root}/build-perf}"
  cmake -B "${build_dir}" -S "${repo_root}" -DCMAKE_BUILD_TYPE=Release
  cmake --build "${build_dir}" -j "${jobs}" --target sim_driver
  require_binary "${build_dir}/examples/sim_driver"
  local shard_count out ref=""
  for shard_count in 1 2 4 chosen; do
    out="${build_dir}/scale_smoke_shards_${shard_count}.txt"
    local shards_flag=(--shards="${shard_count}")
    if [[ "${shard_count}" == chosen ]]; then shards_flag=(); fi
    "${build_dir}/examples/sim_driver" --peers=100000 --groups=1 --seed=1 \
      --recovery=true --crash=0.15 "${shards_flag[@]}" > "${out}"
    if [[ -n "${ref}" ]]; then diff "${ref}" "${out}"; fi
    ref="${out}"
  done
  grep -q "violations 0$" "${ref}"
  echo "stages.sh: 100k-peer scale smoke clean (shards 1, 2, 4 and the" \
    "runtime's choice byte-identical)"
}

# Observability smoke: capture a seeded recovery trace with sim_driver,
# then run every trace_report mode over it and fail on empty output.
# The report bundle (trace + all four reports) is left in the build dir
# so CI can upload it as an artifact.
stage_trace() {
  local build_dir="${1:-${repo_root}/build-perf}"
  cmake -B "${build_dir}" -S "${repo_root}" -DCMAKE_BUILD_TYPE=Release
  cmake --build "${build_dir}" -j "${jobs}" --target sim_driver trace_report
  require_binary "${build_dir}/examples/sim_driver" \
    "${build_dir}/tools/trace_report"
  local trace="${build_dir}/trace_smoke_recovery.jsonl"
  "${build_dir}/examples/sim_driver" --peers=300 --groups=1 --seed=11 \
    --recovery=true --loss=0.2 --crash=0.15 --reliable=true \
    --trace_out="${trace}" > /dev/null
  local report="${build_dir}/trace_smoke_report.txt"
  : > "${report}"
  local mode
  for mode in "" "--histograms=true" "--timeline=true" "--message=auto"; do
    echo "==== trace_report ${mode:-summary}" >> "${report}"
    # shellcheck disable=SC2086  # mode is intentionally word-split
    "${build_dir}/tools/trace_report" ${mode} "${trace}" >> "${report}"
  done
  grep -q "critical path" "${report}"
  grep -q "edge_delay_us" "${report}"
  grep -q "flight-recorder timeline" "${report}"
  echo "stages.sh: trace smoke clean (report: ${report})"
}

# Streaming workloads: the live-streaming sweep (loss x reliability,
# bandwidth-capped, multi-source, flash-crowd cells) at Release speed,
# byte-compared between --jobs=1 and --jobs=4 (the summary's jobs= token
# is the only allowed difference), then a pinned acceptance run: at 5%
# loss with the reliable data plane and 20 Mbit/s caps, the chunk miss
# ratio must stay under 5% and the whole 50-peer flash crowd must attach.
# The run is deterministic, so the ratios are pinned exactly.
stage_streaming() {
  local build_dir="${1:-${repo_root}/build-perf}"
  cmake -B "${build_dir}" -S "${repo_root}" -DCMAKE_BUILD_TYPE=Release
  cmake --build "${build_dir}" -j "${jobs}" \
    --target bench_streaming sim_driver
  require_binary "${build_dir}/bench/bench_streaming" \
    "${build_dir}/examples/sim_driver"
  local out1="${build_dir}/streaming_jobs1.txt"
  local out4="${build_dir}/streaming_jobs4.txt"
  "${build_dir}/bench/bench_streaming" --jobs=1 > "${out1}"
  "${build_dir}/bench/bench_streaming" --jobs=4 \
    --json_out="${build_dir}/BENCH_streaming.json" > "${out4}"
  diff <(sed 's/jobs=[0-9]*/jobs=N/' "${out1}") \
    <(sed 's/jobs=[0-9]*/jobs=N/' "${out4}")
  local streaming_out
  streaming_out="$("${build_dir}/examples/sim_driver" --peers=300 \
    --groups=1 --seed=1 --streaming --loss=0.05 --reliable \
    --flash-joins=50 --uplink-kbps=20000 --downlink-kbps=20000)"
  grep -q "streaming: miss 0.50%" <<< "${streaming_out}"
  grep -q "flash crowd: 50 joins over 1.0 s, 100.0% attached" \
    <<< "${streaming_out}"
  echo "stages.sh: streaming sweep clean (--jobs byte-identical; miss" \
    "ratio pinned under 5% at 5% loss; flash crowd fully attached)"
}

# Benchmark smoke: the repo benchmark's own tests.  Every workload runs at
# a fiftieth of its size, untraced and traced, through perfbench/run.py's
# checks (determinism included); the compare tool's verdicts and run.py's
# refusals are tested too.  gc_ledger is built the way the benchmark
# builds it, into $CARGO_TARGET_DIR or .bench_build/, so a change that
# breaks the ledger build (a counter it names removed, say) fails here.
stage_bench_smoke() {
  cd "${repo_root}"
  python3 perfbench/test_bench.py
  echo "stages.sh: benchmark smoke clean (perfbench/test_bench.py)"
}

# Nightly scale: the 100k-peer churn cell across shards 1, 2, 4 AND 8,
# and without --shards — the pre-merge scale stage stops at four; the
# nightly proves the full ladder stays byte-identical.
stage_nightly_scale() {
  local build_dir="${1:-${repo_root}/build-perf}"
  cmake -B "${build_dir}" -S "${repo_root}" -DCMAKE_BUILD_TYPE=Release
  cmake --build "${build_dir}" -j "${jobs}" --target sim_driver
  require_binary "${build_dir}/examples/sim_driver"
  local shard_count out ref=""
  for shard_count in 1 2 4 8 chosen; do
    out="${build_dir}/nightly_scale_shards_${shard_count}.txt"
    local shards_flag=(--shards="${shard_count}")
    if [[ "${shard_count}" == chosen ]]; then shards_flag=(); fi
    "${build_dir}/examples/sim_driver" --peers=100000 --groups=1 --seed=1 \
      --recovery=true --crash=0.15 "${shards_flag[@]}" > "${out}"
    if [[ -n "${ref}" ]]; then diff "${ref}" "${out}"; fi
    ref="${out}"
  done
  grep -q "violations 0$" "${ref}"
  # One 1M-peer world through the engine pipeline (about 50 s and 0.4 GB
  # on a 4-core box): its 42,256-router underlay routes in about 25 MB of
  # tables, where dense R×R tables would take 21.4 GB.
  local million="${build_dir}/nightly_scale_1m.txt"
  "${build_dir}/examples/sim_driver" --peers=1000000 --groups=1 \
    --group-size=100 > "${million}"
  grep -q "^GroupCast scenario: 1000000 peers" "${million}"
  echo "stages.sh: nightly 100k-peer scale ladder clean (shards 1/2/4/8" \
    "and the runtime's choice byte-identical); 1M-peer engine world" \
    "completed"
}

# Nightly TSan: the FULL ctest suite under ThreadSanitizer.  The
# pre-merge tsan stage filters to the parallel-runner subset for latency;
# the nightly pays for everything.
stage_nightly_tsan() {
  local build_dir="${1:-${repo_root}/build-tsan}"
  cmake -B "${build_dir}" -S "${repo_root}" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DGROUPCAST_TSAN=ON \
    -DCMAKE_CXX_FLAGS=-Werror
  cmake --build "${build_dir}" -j "${jobs}"
  ctest --test-dir "${build_dir}" --no-tests=error \
    --output-on-failure -j "${jobs}"
  echo "stages.sh: full test suite clean under TSan"
}

# Nightly bench: the recovery and streaming sweeps at
# GROUPCAST_BENCH_SCALE=4 (8k+ peers, the wall-clock-bounded scale
# probes), plus the bench_micro perf gate against bench/baselines/ via
# scripts/perf_gate.cmake — a fixed floor, re-checked at nightly cadence
# so slow drift that each PR's parent-relative gate lets through cannot
# hide between PRs.
stage_nightly_bench() {
  local build_dir="${1:-${repo_root}/build-perf}"
  cmake -B "${build_dir}" -S "${repo_root}" -DCMAKE_BUILD_TYPE=Release
  cmake --build "${build_dir}" -j "${jobs}" \
    --target bench_micro bench_churn_recovery bench_streaming bench_fig11_17
  require_binary "${build_dir}/bench/bench_micro" \
    "${build_dir}/bench/bench_churn_recovery" \
    "${build_dir}/bench/bench_streaming" \
    "${build_dir}/bench/bench_fig11_17"
  local perf_json="${build_dir}/BENCH_micro.json"
  "${build_dir}/bench/bench_micro" '--benchmark_filter=^$' \
    --json_out="${perf_json}" > /dev/null
  cmake -DBASELINE="${repo_root}/bench/baselines/micro_baseline.json" \
    -DCURRENT="${perf_json}" -DMAX_REGRESSION_PERCENT=25 \
    -DMEMORY_BASELINE="${repo_root}/bench/baselines/memory_baseline.json" \
    -DMAX_MEMORY_REGRESSION_PERCENT=10 \
    -P "${repo_root}/scripts/perf_gate.cmake"
  GROUPCAST_BENCH_SCALE=4 "${build_dir}/bench/bench_churn_recovery" \
    --jobs=0 --json_out="${build_dir}/BENCH_churn_recovery_scale4.json" \
    > /dev/null
  GROUPCAST_BENCH_SCALE=4 "${build_dir}/bench/bench_streaming" \
    --jobs=0 --json_out="${build_dir}/BENCH_streaming_scale4.json" \
    > /dev/null
  # The paper's Section 4 sweep (Figs. 11-17) at paper scale, run once.
  GROUPCAST_BENCH_SCALE=4 "${build_dir}/bench/bench_fig11_17" \
    --jobs=0 --json_out="${build_dir}/BENCH_fig11_17_scale4.json" \
    > /dev/null
  echo "stages.sh: nightly bench sweeps clean (perf gate + scale-4" \
    "recovery, streaming and Figs. 11-17 JSONs)"
}

# Formatting gate: every tracked C++ file must match .clang-format
# byte-for-byte.  --dry-run --Werror reports (and fails on) any diff
# without rewriting files.
stage_lint_format() {
  cd "${repo_root}"
  git ls-files 'src/**/*.h' 'src/**/*.cc' 'bench/**/*.h' 'bench/**/*.cc' \
    'tests/**/*.h' 'tests/**/*.cc' 'tools/**/*.cc' |
    xargs clang-format --dry-run --Werror
  echo "stages.sh: clang-format clean"
}

# Static analysis on the protocol core, the event loop, and the tracing
# layer.  Only bugprone-* and performance-* findings are promoted to
# errors (the rest of the .clang-tidy checks report but do not gate) —
# see .clang-tidy for the check set.
stage_lint_tidy() {
  local build_dir="${1:-${repo_root}/build-tidy}"
  cmake -B "${build_dir}" -S "${repo_root}" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_EXPORT_COMPILE_COMMANDS=ON
  git -C "${repo_root}" ls-files 'src/core/*.cc' 'src/sim/*.cc' \
    'src/trace/*.cc' |
    sed "s|^|${repo_root}/|" |
    xargs clang-tidy -p "${build_dir}" \
      --warnings-as-errors='bugprone-*,performance-*'
  echo "stages.sh: clang-tidy clean on src/core, src/sim, src/trace"
}

usage() {
  echo "usage: scripts/stages.sh {asan|tsan|fault|perf|scale|trace|streaming|bench-smoke|nightly-scale|nightly-tsan|nightly-bench|lint-format|lint-tidy} [build-dir]" >&2
  exit 2
}

[[ $# -ge 1 ]] || usage
stage="$1"
shift
case "${stage}" in
  asan) stage_asan "$@" ;;
  tsan) stage_tsan "$@" ;;
  fault) stage_fault "$@" ;;
  perf) stage_perf "$@" ;;
  scale) stage_scale "$@" ;;
  trace) stage_trace "$@" ;;
  streaming) stage_streaming "$@" ;;
  bench-smoke) stage_bench_smoke "$@" ;;
  nightly-scale) stage_nightly_scale "$@" ;;
  nightly-tsan) stage_nightly_tsan "$@" ;;
  nightly-bench) stage_nightly_bench "$@" ;;
  lint-format) stage_lint_format "$@" ;;
  lint-tidy) stage_lint_tidy "$@" ;;
  *) usage ;;
esac
