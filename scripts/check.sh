#!/usr/bin/env bash
# Full verification loop: check that instrumentation goes through
# obs::Observe, configure, build, and run every test in one or more build
# configurations, then (full runs only) run every figure/bench harness.
# Mirrors what EXPERIMENTS.md's outputs were produced with, and is exactly
# what CI's matrix invokes — one configuration per job.
#
# Usage:
#   scripts/check.sh                 # all configurations + bench harnesses
#   scripts/check.sh default         # plain build + tests only
#   scripts/check.sh asan tsan       # just the named sanitizer legs
#
# Configurations:
#   default  plain Release build with -DCASM_WERROR=ON (any compiler
#            warning fails it); the tier-1 gate every PR must keep green.
#   asan     AddressSanitizer: the fault-tolerance substrate retries
#            tasks and replays emit buffers, and the memory budget spills
#            and replays sorted runs — ASan guards those replay paths
#            against use-after-free/overflow regressions.
#   tsan     ThreadSanitizer: speculative execution runs concurrent
#            executions of one task with cooperative cancellation, an
#            output-ownership race, and blocking budget admission, and
#            the multi-query service races submit/cancel/shutdown
#            against its worker pool (svc_test's concurrent stress) —
#            TSan guards the cross-thread handoffs.
#   ubsan    UndefinedBehaviorSanitizer (-fno-sanitize-recover=all, so
#            any hit is a hard failure): guards the hash mixing, flat
#            buffer arithmetic, and byte-accounting overflow paths.
#
# Env knobs (full runs without arguments): CASM_SKIP_ASAN=1,
# CASM_SKIP_TSAN=1, CASM_SKIP_UBSAN=1 skip a leg; CASM_SKIP_BENCH=1
# skips the bench harness loop. ccache is used automatically when
# installed.
set -euo pipefail
cd "$(dirname "$0")/.."

# The observability sinks (trace, flight ring, metrics registry, progress)
# are written only by obs::Observe (src/obs/event.h), which also folds an
# engine run's events into its MapReduceMetrics: no non-comment line
# outside src/obs/ may call them directly.
check_obs_sinks() {
  local pattern='RecordSpan\(|RecordInstant\(|flight->Record\(|FlightRecorder::Global\(\)|GetCounter\(|GetGauge\(|GetHistogram\(|progress_?->|PublishQueryMetrics\(|PublishSharedQueryMetrics\(|BuildRunReport\(|->Snapshot\(\)'
  local hits
  hits=$(grep -rnE --include='*.cc' --include='*.h' "$pattern" src |
         grep -v '^src/obs/' |
         grep -vE '^[^:]+:[0-9]+:[[:space:]]*//' || true)
  if [ -n "$hits" ]; then
    echo "observability sinks written outside src/obs/ (use obs::Observe):" >&2
    echo "$hits" >&2
    exit 1
  fi
}
check_obs_sinks

run_bench=0
if [ "$#" -gt 0 ]; then
  configs=("$@")
else
  configs=(default)
  [ "${CASM_SKIP_ASAN:-0}" != "1" ] && configs+=(asan)
  [ "${CASM_SKIP_TSAN:-0}" != "1" ] && configs+=(tsan)
  [ "${CASM_SKIP_UBSAN:-0}" != "1" ] && configs+=(ubsan)
  [ "${CASM_SKIP_BENCH:-0}" != "1" ] && run_bench=1
fi

launcher=()
if command -v ccache >/dev/null 2>&1; then
  launcher=(-DCMAKE_CXX_COMPILER_LAUNCHER=ccache)
fi

build_and_test() {
  local dir=$1
  shift
  cmake -B "$dir" -G Ninja "${launcher[@]}" "$@"
  cmake --build "$dir"
  ctest --test-dir "$dir" --output-on-failure -j "$(nproc)"
}

for config in "${configs[@]}"; do
  echo "===== config: $config ====="
  case "$config" in
    default)
      build_and_test build -DCASM_WERROR=ON
      ;;
    asan)
      build_and_test build-asan \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DCMAKE_CXX_FLAGS="-fsanitize=address -fno-omit-frame-pointer"
      ;;
    tsan)
      build_and_test build-tsan \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DCMAKE_CXX_FLAGS="-fsanitize=thread -fno-omit-frame-pointer"
      ;;
    ubsan)
      build_and_test build-ubsan \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DCMAKE_CXX_FLAGS="-fsanitize=undefined -fno-sanitize-recover=all -fno-omit-frame-pointer"
      ;;
    *)
      echo "unknown configuration: $config (want default|asan|tsan|ubsan)" >&2
      exit 2
      ;;
  esac
done

if [ "$run_bench" = "1" ]; then
  for b in build/bench/*; do
    if [ -f "$b" ] && [ -x "$b" ]; then
      echo "===== $b ====="
      "$b"
      echo
    fi
  done
fi
