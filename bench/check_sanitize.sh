#!/usr/bin/env sh
# Build and run the tier-1 test suite under AddressSanitizer + UBSan, then
# again under ThreadSanitizer.
#
# The zero-copy data path hands pooled slabs across layers (strategy ->
# NIC -> matching -> adoption) by reference; ASan/UBSan is the memory-safety
# gate for that plumbing. The TSan pass exercises the ucontext fiber
# backend with TSan's fiber annotations (PM2SIM_SANITIZE=tsan forces it)
# AND the partitioned parallel engine: the ParallelEngine/ParallelCluster
# suites plus the explicit multi-worker bench run below put real host
# threads on the window barrier, the cross-partition mailboxes and the
# sharded singletons. Simulated application-level locking is what simsan
# (src/simsan/) analyzes. Separate build trees keep the regular build
# untouched.
#
# Usage: bench/check_sanitize.sh [asan-build-dir [tsan-build-dir]]
#        (defaults: ./build-asan ./build-tsan)
set -eu

repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
asan_dir=${1:-"$repo_root/build-asan"}
tsan_dir=${2:-"$repo_root/build-tsan"}

cmake -S "$repo_root" -B "$asan_dir" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DPM2SIM_SANITIZE=address,undefined
cmake --build "$asan_dir" -j"$(nproc)"

# halt_on_error so UBSan failures are fatal, not just log lines.
UBSAN_OPTIONS="print_stacktrace=1:halt_on_error=1" \
  ctest --test-dir "$asan_dir" -j"$(nproc)" --output-on-failure

cmake -S "$repo_root" -B "$tsan_dir" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DPM2SIM_SANITIZE=tsan
cmake --build "$tsan_dir" -j"$(nproc)"

TSAN_OPTIONS="halt_on_error=1" \
  ctest --test-dir "$tsan_dir" -j"$(nproc)" --output-on-failure

# Parallel-mode pass under TSan: the engine/cluster suites that drive
# multiple host workers, then a whole figure bench at workers=2 (simsan
# analysis included) so the full stack crosses the window barrier.
TSAN_OPTIONS="halt_on_error=1" \
  "$tsan_dir"/tests/test_simcore --gtest_filter='ParallelEngine.*'
TSAN_OPTIONS="halt_on_error=1" \
  "$tsan_dir"/tests/test_nmad_units --gtest_filter='ParallelCluster.*'
TSAN_OPTIONS="halt_on_error=1" \
  "$tsan_dir"/bench/fig3_locking --iters=5 --warmup=1 --simsan=on \
  --partitions=2 --workers=2 > /dev/null
# Scalable endpoints under TSan: the per-endpoint suite (including the
# seeded multi-producer stress test) with real host workers, then fig3 on
# the multi-endpoint progress path at workers=2.
TSAN_OPTIONS="halt_on_error=1" \
  "$tsan_dir"/tests/test_nmad_units --gtest_filter='Endpoints.*:EndpointStress.*'
TSAN_OPTIONS="halt_on_error=1" \
  "$tsan_dir"/bench/fig3_locking --iters=5 --warmup=1 --simsan=on \
  --partitions=2 --workers=2 --endpoints=4 > /dev/null
# Multi-queue NIC rails under TSan: the per-ring steering/claim suite, the
# seeded rx-queue stress sweep and the sparse-fabric worlds with real host
# workers, then fig3 with four rings on the multi-endpoint progress path at
# workers=2, and the rxq simsan acceptance gate (kNone single queue still
# races, fine-locked multi-queue clean).
TSAN_OPTIONS="halt_on_error=1" \
  "$tsan_dir"/tests/test_simnet \
  --gtest_filter='NicTest.MultiQueue*:NicTest.ConfigureRxQueues*:NicTest.PollClaim*'
TSAN_OPTIONS="halt_on_error=1" \
  "$tsan_dir"/tests/test_nmad_units \
  --gtest_filter='EndpointStress.RxQueue*:EndpointStress.SameSeedSameFlowTraceMultiQueue:SparseFabric.*'
TSAN_OPTIONS="halt_on_error=1" \
  "$tsan_dir"/bench/fig3_locking --iters=5 --warmup=1 --simsan=on \
  --partitions=2 --workers=2 --endpoints=4 --rx-queues=4 > /dev/null
TSAN_OPTIONS="halt_on_error=1" "$tsan_dir"/bench/rxq_simsan > /dev/null
# Charge handoffs under TSan: fibers that switch straight into the next
# charge's resume (the ucontext backend carries the TSan fiber state over),
# across nodes, through window horizons at two workers, and out of a fiber
# that throws.
TSAN_OPTIONS="halt_on_error=1" \
  "$tsan_dir"/tests/test_simthread --gtest_filter='ChargeHandoff.*'
# Trace recorder under TSan: the intern table's concurrent lookups and
# inserts, and the multi-worker traced cluster whose workers append to
# their partitions' record chunks from the shared chunk pool, cross
# host-thread boundaries here.
TSAN_OPTIONS="halt_on_error=1" \
  "$tsan_dir"/tests/test_obs --gtest_filter='TraceLog.*'

echo "sanitizer suite clean (asan+ubsan, tsan incl. parallel engine)"
