#!/usr/bin/env bash
# Build the whole tree under ASan+UBSan and run the test suite, then run
# the parallel shard-window tests under TSan.
#
# Usage: scripts/check_sanitizers.sh [ctest-regex]
#
# Uses separate build directories (build-asan, build-tsan) so the regular
# build stays untouched.  -fno-sanitize-recover=all turns every sanitizer
# report into a hard failure, so a green ctest run really means no UB and
# no memory errors on the exercised paths.
#
# TSan cannot be combined with ASan, hence the second build tree.  The
# only host concurrency in the simulator is the sharded event engine
# running shard windows on parallel workers (GDEDUP_SIM_PARALLEL=1), so
# the TSan phase runs the sim determinism / shard-invariance tests and the
# e2e smoke with four parallel shards: cross-shard inbox handoff, the
# gated locks (object store, OSD store maps, op tracker) and the
# observability paths they touch all see real worker concurrency.

set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${repo_root}/build-asan"
filter="${1:-}"

san_flags="-fsanitize=address,undefined -fno-sanitize-recover=all"

cmake -B "${build_dir}" -S "${repo_root}" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_CXX_FLAGS="${san_flags}" \
    -DCMAKE_EXE_LINKER_FLAGS="${san_flags}"
cmake --build "${build_dir}" -j "$(nproc)"

cd "${build_dir}"
if [[ -n "${filter}" ]]; then
  ctest --output-on-failure -R "${filter}"
else
  # Fail-fast smoke first: the restore-path bench (assembly window,
  # selective rewrite, zero-copy window slices) and the refs-cache /
  # fingerprint fast path are the heaviest pointer-juggling paths —
  # surface ASan reports there before paying for the full suite.
  ctest --output-on-failure -L asan_smoke
  # Recipe metadata-dedup smoke next: the packed codec, batched omap txns
  # and the recipe compactor juggle buffers/iterators across async steps —
  # cheap to fail fast here before the full suite.
  ctest --output-on-failure -L meta_smoke
  ctest --output-on-failure -L "telemetry_smoke|churn_smoke"
  ctest --output-on-failure
fi

# --- TSan phase: parallel shard windows ----------------------------------

tsan_dir="${repo_root}/build-tsan"
tsan_flags="-fsanitize=thread -fno-sanitize-recover=all"

cmake -B "${tsan_dir}" -S "${repo_root}" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_CXX_FLAGS="${tsan_flags}" \
    -DCMAKE_EXE_LINKER_FLAGS="${tsan_flags}"
cmake --build "${tsan_dir}" -j "$(nproc)" \
    --target test_sim_determinism test_sim_shards bench_sim_e2e

cd "${tsan_dir}"
# Parallel shard windows for the digest tests: cross-shard inbox
# handoff, gated object-store/OSD locks and barrier synchronization get
# race-checked while the virtual-time digest must not move a byte.
GDEDUP_SIM_SHARDS=4 GDEDUP_SIM_PARALLEL=1 \
    ctest --output-on-failure -R \
    'test_sim_determinism|test_sim_shards|sim_e2e_smoke'
