# Perf-smoke gate: compares fresh BENCH_micro.json runs against a
# reference and fails when event-loop throughput regressed by more than
# the allowed percentage.
#
# Usage:
#   cmake -DBASELINE="parent_1.json;parent_2.json;..." \
#         -DCURRENT="change_1.json;change_2.json;..." \
#         -DMAX_REGRESSION_PERCENT=25 \
#         [-DMEMORY_BASELINE=bench/baselines/memory_baseline.json \
#          -DMAX_MEMORY_REGRESSION_PERCENT=10] \
#         -P scripts/perf_gate.cmake
#
# BASELINE and CURRENT are each one bench_micro --json_out file or a
# ;-list of them; the gated number is the median of their root
# "events_per_second" (best-of-sizes, see docs/PERFORMANCE.md).  stages.sh
# perf passes five runs of the parent commit's build against five of the
# change's; nightly-bench passes the checked-in
# bench/baselines/micro_baseline.json against one run.  Comparison is
# integer events/sec — plenty of resolution at 10^6/s.
#
# With MEMORY_BASELINE set, the root "bytes_per_peer" gauge of the first
# CURRENT file is gated too.  Unlike throughput it is fully deterministic
# (capacity-based accounting at a fixed seed), so the allowed drift only
# covers intentional container tuning, not machine noise — keep it tight.
cmake_minimum_required(VERSION 3.19)  # string(JSON ...)

foreach(var BASELINE CURRENT MAX_REGRESSION_PERCENT)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "perf_gate: -D${var}=... is required")
  endif()
endforeach()

# Sets `out` to the median events_per_second over the JSON files in
# `files`, truncated to an integer for math(EXPR); rates sit around 10^6
# so the lost fraction is noise.
function(median_rate out files)
  set(rates "")
  foreach(path IN LISTS files)
    file(READ "${path}" json)
    string(JSON rate GET "${json}" events_per_second)
    string(REGEX REPLACE "\\..*$" "" rate_int "${rate}")
    if(NOT rate_int MATCHES "^[0-9]+$")
      message(FATAL_ERROR
        "perf_gate: non-numeric events_per_second '${rate}' in ${path}")
    endif()
    list(APPEND rates "${rate_int}")
  endforeach()
  list(LENGTH rates count)
  if(count EQUAL 0)
    message(FATAL_ERROR "perf_gate: no bench_micro runs given")
  endif()
  list(SORT rates COMPARE NATURAL)
  math(EXPR upper_index "${count} / 2")
  list(GET rates ${upper_index} upper)
  if(count MATCHES "[02468]$")
    math(EXPR lower_index "${upper_index} - 1")
    list(GET rates ${lower_index} lower)
    math(EXPR upper "(${lower} + ${upper}) / 2")
  endif()
  set(${out} "${upper}" PARENT_SCOPE)
endfunction()

median_rate(baseline_int "${BASELINE}")
median_rate(current_int "${CURRENT}")

math(EXPR floor_rate
  "(${baseline_int} * (100 - ${MAX_REGRESSION_PERCENT})) / 100")

if(current_int LESS floor_rate)
  message(FATAL_ERROR
    "perf_gate: event-loop throughput regressed more than "
    "${MAX_REGRESSION_PERCENT}%: median ${current_int} events/s vs "
    "reference median ${baseline_int} (floor ${floor_rate}).  If the "
    "slowdown is intentional, explain it in the commit (and, for the "
    "checked-in reference, re-baseline bench/baselines/micro_baseline.json "
    "from a quiet machine).")
endif()

message(STATUS
  "perf_gate: median ${current_int} events/s vs reference median "
  "${baseline_int} (floor ${floor_rate}) - ok")

if(DEFINED MEMORY_BASELINE)
  if(NOT DEFINED MAX_MEMORY_REGRESSION_PERCENT)
    message(FATAL_ERROR
      "perf_gate: MEMORY_BASELINE requires -DMAX_MEMORY_REGRESSION_PERCENT=...")
  endif()
  file(READ "${MEMORY_BASELINE}" memory_json)
  string(JSON baseline_bytes GET "${memory_json}" bytes_per_peer)
  list(GET CURRENT 0 first_current)
  file(READ "${first_current}" current_json)
  string(JSON current_bytes GET "${current_json}" bytes_per_peer)
  if(NOT baseline_bytes MATCHES "^[0-9]+$" OR NOT current_bytes MATCHES "^[0-9]+$")
    message(FATAL_ERROR
      "perf_gate: non-numeric bytes_per_peer "
      "(baseline '${baseline_bytes}', current '${current_bytes}')")
  endif()
  math(EXPR ceiling_bytes
    "(${baseline_bytes} * (100 + ${MAX_MEMORY_REGRESSION_PERCENT})) / 100")
  if(current_bytes GREATER ceiling_bytes)
    message(FATAL_ERROR
      "perf_gate: per-peer memory regressed more than "
      "${MAX_MEMORY_REGRESSION_PERCENT}%: ${current_bytes} bytes/peer vs "
      "baseline ${baseline_bytes} (ceiling ${ceiling_bytes}).  If the new "
      "state is intentional, re-baseline "
      "bench/baselines/memory_baseline.json and explain the growth in the "
      "commit.")
  endif()
  message(STATUS
    "perf_gate: ${current_bytes} bytes/peer vs baseline ${baseline_bytes} "
    "(ceiling ${ceiling_bytes}) - ok")
endif()
