#!/usr/bin/env sh
# Record the host-throughput baseline for the simulator engine.
#
# Runs bench/micro_engine (google-benchmark) and writes its JSON report to
# BENCH_engine.json at the repo root. Commit the refreshed file whenever the
# engine hot path changes on purpose; CI and humans compare items_per_second
# against it to catch accidental regressions.
#
# Usage: bench/record_baseline.sh [build-dir]   (default: ./build)
set -eu

repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
build_dir=${1:-"$repo_root/build"}
bin="$build_dir/bench/micro_engine"

if [ ! -x "$bin" ]; then
  echo "error: $bin not found -- build first: cmake --build $build_dir -j" >&2
  exit 1
fi

"$bin" \
  --benchmark_repetitions=5 \
  --benchmark_report_aggregates_only=true \
  --benchmark_format=json \
  --benchmark_out_format=json \
  --benchmark_out="$repo_root/BENCH_engine.json" >/dev/null

echo "wrote $repo_root/BENCH_engine.json"

# The baseline includes BM_PingpongEndToEnd both with the metrics registry
# off and on (BM_PingpongEndToEndMetrics); print the median pair so the
# instrumentation overhead is visible at record time. The hard <3% gate is
# the `metrics_overhead` ctest.
awk '
  /"name": "BM_PingpongEndToEnd(Metrics)?_median"/ { want = 1; name = $2 }
  want && /"real_time":/ {
    gsub(/[",]/, "", name); gsub(/,/, "", $2)
    printf "  %-34s %.3f ms\n", name, $2
    want = 0
  }
' "$repo_root/BENCH_engine.json"

# Full-tracing cost: the pingpong run with timeline + flow tracing through
# the binary trace recorder. The hard <3% gate is the `trace_overhead`
# ctest.
awk '
  /"name": "BM_PingpongEndToEndTraced_median"/ { want = 1; name = $2 }
  want && /"real_time":/ {
    gsub(/[",]/, "", name); gsub(/,/, "", $2)
    printf "  %-34s %.3f ms\n", name, $2
    want = 0
  }
' "$repo_root/BENCH_engine.json"

# Data-path throughput: the large-message bandwidth runs (64 KiB eager-ish
# and 1 MiB rendezvous) exercise the zero-copy scatter/gather path.
awk '
  /"name": "BM_LargeMessageBandwidth\/[0-9]+_median"/ { want = 1; name = $2 }
  want && /"items_per_second":/ {
    gsub(/[",]/, "", name); gsub(/,/, "", $2)
    printf "  %-34s %.1f msgs/s\n", name, $2
    want = 0
  }
' "$repo_root/BENCH_engine.json"

# Concurrent-senders scaling (virtual time): the makespan columns are the
# Fig. 5-style ordering of the locking regimes; the mode-3 rows (one RX
# completion queue per endpoint) must be >= 1.5x below the matching mode-2
# rows (single shared completion queue) at 16 and 64 threads -- the
# multi-queue NIC rail claim. The hard gate is `concurrent_senders_smoke`.
awk '
  /"name": "BM_ConcurrentSenders\/[0-9]+\/[23]_median"/ { want = 1; name = $2 }
  want && /"makespan_us":/ {
    gsub(/[",]/, "", name); gsub(/,/, "", $2)
    printf "  %-34s makespan %.1f us\n", name, $2
    want = 0
  }
' "$repo_root/BENCH_engine.json"

# Sparse-fabric wide worlds: 128/256 nodes with 8 active pairs must report
# active_links=16 (2 per pair, not nodes^2) -- O(active) link state.
awk '
  /"name": "BM_WideWorld\/[0-9]+_median"/ { want = 1; name = $2 }
  want && /"active_links":/ {
    gsub(/[",]/, "", name); gsub(/,/, "", $2)
    printf "  %-34s active_links %.0f\n", name, $2
    want = 0
  }
' "$repo_root/BENCH_engine.json"

overhead_bin="$build_dir/bench/metrics_overhead"
if [ -x "$overhead_bin" ]; then
  echo "checking metrics hot-path overhead (<3%):"
  "$overhead_bin"
fi

trace_overhead_bin="$build_dir/bench/trace_overhead"
if [ -x "$trace_overhead_bin" ]; then
  echo "checking ring-trace hot-path overhead (<3%):"
  "$trace_overhead_bin"
fi
