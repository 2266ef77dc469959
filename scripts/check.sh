#!/usr/bin/env bash
# Pre-merge verification: runs the same stages CI fans out across its
# matrix (.github/workflows/ci.yml), in sequence, via scripts/stages.sh:
#
#  1. asan:  ASan/UBSan build with -Werror + the full ctest suite.
#  2. tsan:  TSan build running the experiment-harness, tracing, recovery
#            and data-plane tests (everything that crosses the
#            run_scenario_grid worker pool).
#  3. fault: the churn-recovery sweep (bench_churn_recovery --jobs=4)
#            under ASan, exercising crashes, partitions and the
#            NACK/retransmit data plane end to end.
#  4. perf:  Release builds of bench_micro at HEAD and at HEAD^ measure
#            event-loop throughput (--json_out, five alternating runs
#            each) and scripts/perf_gate.cmake fails the run if the
#            median events/sec regressed >25% against the parent's.
#  4b. trace: observability smoke — a seeded recovery capture piped
#            through every trace_report mode (summary / histograms /
#            timeline / message), failing on missing markers.
#  4c. streaming: the live-streaming sweep (bench_streaming) byte-compared
#            across --jobs, plus a pinned miss-ratio / flash-crowd
#            acceptance run at 5% loss with the reliable data plane.
#  4d. bench-smoke: perfbench/test_bench.py — the repo benchmark's
#            workloads at tiny scale through run.py's checks.
#  5. lint:  clang-format --dry-run --Werror plus clang-tidy on src/core —
#            skipped with a notice when the binaries are not installed
#            (CI always runs them).
#
# Usage: scripts/check.sh [asan-build-dir] [tsan-build-dir] [perf-build-dir]
#        (defaults: build-asan, build-tsan, build-perf)
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
stages="${repo_root}/scripts/stages.sh"
build_dir="${1:-${repo_root}/build-asan}"
tsan_build_dir="${2:-${repo_root}/build-tsan}"
perf_build_dir="${3:-${repo_root}/build-perf}"

# Fail loudly up front instead of letting a stage silently no-op: every
# stage's own binaries are guarded by require_binary inside stages.sh,
# and the stage runner itself must exist and be executable here.
if [[ ! -x "${stages}" ]]; then
  echo "check.sh: stage runner missing or not executable: ${stages}" >&2
  exit 1
fi

"${stages}" asan "${build_dir}"
"${stages}" tsan "${tsan_build_dir}"
"${stages}" fault "${build_dir}"
"${stages}" perf "${perf_build_dir}"
"${stages}" trace "${perf_build_dir}"
"${stages}" streaming "${perf_build_dir}"
"${stages}" bench-smoke

if command -v clang-format > /dev/null; then
  "${stages}" lint-format
else
  echo "check.sh: clang-format not installed, skipping format gate"
fi
if command -v clang-tidy > /dev/null; then
  "${stages}" lint-tidy
else
  echo "check.sh: clang-tidy not installed, skipping static analysis"
fi

echo "check.sh: all stages passed"
