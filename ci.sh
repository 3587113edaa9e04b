#!/usr/bin/env bash
# Tier-1 verification: configure, build, run every test suite.
# SERPENS_WERROR=ON (the default, forced here) turns any warning in
# first-party code (src/, tools/) into a build failure.
set -euo pipefail
cd "$(dirname "$0")"

BUILD_DIR="${BUILD_DIR:-build}"
JOBS="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)"

cmake -B "${BUILD_DIR}" -S . -DSERPENS_WERROR=ON
cmake --build "${BUILD_DIR}" -j "${JOBS}"
ctest --test-dir "${BUILD_DIR}" --output-on-failure -j "${JOBS}"

# FMA contraction guard: the engines are bit-identical to the packed oracle
# only while every walk rounds its multiply and add separately, which
# src/sim/CMakeLists.txt enforces with -ffp-contract=off per file. The
# default x86-64 target has no FMA, so the build above cannot notice a file
# that loses the flag; this one can, because -mfma lets the compiler fuse.
# Skipped, and said so, on a CPU without FMA, which could not run it.
if grep -qw fma /proc/cpuinfo 2>/dev/null; then
  cmake -B "${BUILD_DIR}-fma" -S . -DSERPENS_WERROR=ON \
      -DCMAKE_CXX_FLAGS="-mavx2 -mfma" \
      -DSERPENS_BUILD_BENCH=OFF -DSERPENS_BUILD_EXAMPLES=OFF
  cmake --build "${BUILD_DIR}-fma" -j "${JOBS}" \
      --target test_decoded_sim test_batch_apps test_simd_walk
  for t in test_decoded_sim test_batch_apps test_simd_walk; do
    "${BUILD_DIR}-fma/tests/${t}" --gtest_brief=1
  done
else
  echo "ci.sh: skipping the FMA contraction guard: /proc/cpuinfo lists no fma"
fi

# The seeded benchmark (perfbench/) is its own CMake project over the same
# src/, which the build above never configures: build it into its own
# directory so a library API change cannot break it unseen, and
# schema-check the committed trajectory rows against BENCHMARK.json. No
# timed run.
cmake -S perfbench -B "${BUILD_DIR}-perfbench" -DCMAKE_BUILD_TYPE=Release
cmake --build "${BUILD_DIR}-perfbench" -j "${JOBS}"
python3 perfbench/run.py --validate perfbench/trajectory.jsonl

# Release-mode ingestion smoke: generate a ~1M-entry .mtx, parse it with
# both the istream reference and the mmap+parallel fast parser, and require
# bit-identical triplets. The default configure above is already Release
# (see CMakeLists.txt), so the same build tree serves.
cmake --build "${BUILD_DIR}" -j "${JOBS}" --target ingest_smoke
"${BUILD_DIR}/tools/ingest_smoke" --entries 1000000

# Release-mode simulator smoke: a ~1M-entry image through the packed,
# decode-once, and batched engines; y and CycleStats must be bit-identical
# (the same lockdown the DecodedSim/BatchApps test suites pin at unit scale).
cmake --build "${BUILD_DIR}" -j "${JOBS}" --target sim_smoke
"${BUILD_DIR}/tools/sim_smoke" --entries 1000000 --batch 3 --iters 8
# B=8 runs the batched walk's 4-wide vector body twice per element; B=3
# above runs only its scalar remainder.
"${BUILD_DIR}/tools/sim_smoke" --entries 1000000 --batch 8 --iters 4
# The same at W = 16384: the decoded index word then carries 14 column-offset
# bits (18 + 14 of its 32), bit-checked scalar vs avx512 vs packed at scale.
"${BUILD_DIR}/tools/sim_smoke" --window 16384 --entries 1000000 --batch 3 --iters 4

# Release-mode serving smoke: concurrent clients through serve::Server
# (registry admission, batch coalescing), every response bit-compared to a
# sequential replay (the same differential the ServeServer suite pins).
cmake --build "${BUILD_DIR}" -j "${JOBS}" --target serpens_serve
"${BUILD_DIR}/tools/serpens_serve" --smoke

# Serving throughput snapshot: 8 closed-loop clients on a 1M-nnz matrix,
# batched (max_batch 8) vs 1-request-at-a-time (max_batch 1) on the same
# serial drain — the coalescing gain the serving layer exists for.
mkdir -p "${BUILD_DIR}/bench-results"
"${BUILD_DIR}/tools/serpens_serve" \
    --matrices 1 --entries 1000000 --rows 4096 --clients 8 --requests 24 \
    --serve-threads 1 --json "${BUILD_DIR}/bench-results/BENCH_serve.json"

# Tail-latency snapshot over the wire: start the serving daemon, drive it
# with open-loop Poisson arrivals through the TCP client, and require the
# SLO gate — adaptive batching must hold p99 queue time under --slo-ms
# while throughput-greedy fixed batching (same batch_wait hold) misses it.
# serpens_serve exits non-zero if either side of that ablation fails, and
# every response is still bit-compared against a sequential replay.
cmake --build "${BUILD_DIR}" -j "${JOBS}" --target serpens_served
PORT_FILE="${BUILD_DIR}/served.port"
rm -f "${PORT_FILE}"
"${BUILD_DIR}/tools/serpens_served" --port-file "${PORT_FILE}" \
    --max-batch 8 \
    --trace-json "${BUILD_DIR}/bench-results/BENCH_served_trace.json" &
SERVED_PID=$!
for _ in $(seq 100); do
  [[ -s "${PORT_FILE}" ]] && break
  sleep 0.1
done
[[ -s "${PORT_FILE}" ]] || { echo "serpens_served never published a port"; kill "${SERVED_PID}"; exit 1; }
"${BUILD_DIR}/tools/serpens_serve" \
    --connect "127.0.0.1:$(cat "${PORT_FILE}")" \
    --arrival-rate 100 --slo-ms 20 --batch-wait-ms 80 \
    --matrices 1 --entries 200000 --rows 4096 --clients 6 --requests 50 \
    --json "${BUILD_DIR}/bench-results/BENCH_net.json" \
    --trace-json "${BUILD_DIR}/bench-results/BENCH_trace.json"
# Scrape the daemon's Prometheus exposition over the wire, then stop it;
# the clean shutdown also flushes the daemon-side trace archived above.
"${BUILD_DIR}/tools/serpens_serve" \
    --connect "127.0.0.1:$(cat "${PORT_FILE}")" \
    --dump-metrics "${BUILD_DIR}/bench-results/BENCH_metrics.prom" \
    --shutdown-daemon
wait "${SERVED_PID}"

# Crash-recovery smoke (PR 9): admit over the wire into a durable daemon,
# SIGKILL it (leaving a torn WAL tail, as a real crash would), restart it
# on the same --state-dir, and require the restarted daemon to serve the
# same matrices bit-identically WITHOUT re-encoding: --no-admit skips
# admissions entirely and --expect-recovered 2 asserts the daemon's stats
# report recovered >= 2 with encodes == 0 before any traffic runs. The
# replay report is archived as BENCH_recovery.json and schema-checked with
# the other snapshots below.
STATE_DIR="${BUILD_DIR}/served-state"
rm -rf "${STATE_DIR}"
rm -f "${PORT_FILE}"
"${BUILD_DIR}/tools/serpens_served" --port-file "${PORT_FILE}" \
    --state-dir "${STATE_DIR}" &
SERVED_PID=$!
for _ in $(seq 100); do
  [[ -s "${PORT_FILE}" ]] && break
  sleep 0.1
done
[[ -s "${PORT_FILE}" ]] || { echo "serpens_served never published a port"; kill "${SERVED_PID}"; exit 1; }
"${BUILD_DIR}/tools/serpens_serve" \
    --connect "127.0.0.1:$(cat "${PORT_FILE}")" \
    --matrices 2 --entries 200000 --rows 4096 --clients 4 --requests 12 \
    --seed 5
kill -9 "${SERVED_PID}"
wait "${SERVED_PID}" || true
printf 'TORN_TAIL' >> "${STATE_DIR}/manifest.log"
rm -f "${PORT_FILE}"
"${BUILD_DIR}/tools/serpens_served" --port-file "${PORT_FILE}" \
    --state-dir "${STATE_DIR}" \
    --recovery-json "${BUILD_DIR}/bench-results/BENCH_recovery.json" &
SERVED_PID=$!
for _ in $(seq 100); do
  [[ -s "${PORT_FILE}" ]] && break
  sleep 0.1
done
[[ -s "${PORT_FILE}" ]] || { echo "serpens_served never published a port"; kill "${SERVED_PID}"; exit 1; }
"${BUILD_DIR}/tools/serpens_serve" \
    --connect "127.0.0.1:$(cat "${PORT_FILE}")" \
    --matrices 2 --entries 200000 --rows 4096 --clients 4 --requests 12 \
    --seed 5 --no-admit --expect-recovered 2 \
    --shutdown-daemon
wait "${SERVED_PID}"

# Deadline-shedding ablation (PR 8): drive the server at 2x its calibrated
# serial capacity through open-loop Poisson arrivals from 32 blocking
# clients. With a 10 ms per-request budget the dispatcher sheds expired
# requests at batch-forming time and the SERVED requests' p99 e2e stays
# inside the deadline band; the no-deadline baseline on the same arrival
# schedule queues without bound and lands far outside it. serpens_serve
# exits non-zero if shedding never triggered, if the deadline loop missed
# the band, or if the baseline sat inside it (overload not biting).
"${BUILD_DIR}/tools/serpens_serve" \
    --matrices 2 --entries 1000000 --clients 32 --requests 16 \
    --overload 2 --deadline-ms 10 --warmup 32 --seed 7 \
    --json "${BUILD_DIR}/bench-results/BENCH_fault.json"

# All serving snapshots must satisfy the schema validator (the same one
# the ServeStats suite pins); a malformed archive fails CI here, not in
# whatever downstream tooling reads bench-results/.
"${BUILD_DIR}/tools/serpens_serve" \
    --check-snapshot "${BUILD_DIR}/bench-results/BENCH_serve.json"
"${BUILD_DIR}/tools/serpens_serve" \
    --check-snapshot "${BUILD_DIR}/bench-results/BENCH_net.json"
"${BUILD_DIR}/tools/serpens_serve" \
    --check-snapshot "${BUILD_DIR}/bench-results/BENCH_fault.json"
"${BUILD_DIR}/tools/serpens_serve" \
    --check-snapshot "${BUILD_DIR}/bench-results/BENCH_recovery.json"
# Observability artifacts ride the same gate: --check-snapshot dispatches
# on content, so Chrome trace JSON and Prometheus text get their own
# structural validators (tests/test_obs_*.cpp pin what they reject).
"${BUILD_DIR}/tools/serpens_serve" \
    --check-snapshot "${BUILD_DIR}/bench-results/BENCH_trace.json"
"${BUILD_DIR}/tools/serpens_serve" \
    --check-snapshot "${BUILD_DIR}/bench-results/BENCH_served_trace.json"
"${BUILD_DIR}/tools/serpens_serve" \
    --check-snapshot "${BUILD_DIR}/bench-results/BENCH_metrics.prom"

# Batched device-mode ablation: amortized per-SpMV device time over
# B = 1..32 at 1M nnz (real batched executions + analytic + Sextans
# cross-check). The binary exits non-zero if amortized time fails to
# strictly improve from B=1 to B=8 or is not monotone over the sweep, so
# archiving the snapshot doubles as a model regression gate.
cmake --build "${BUILD_DIR}" -j "${JOBS}" --target bench_ablation_batch
"${BUILD_DIR}/bench/bench_ablation_batch" --entries 1000000 \
    --json "${BUILD_DIR}/bench-results/BENCH_batch.json"

# Perf trajectory: machine-readable micro-bench snapshots, archived under
# bench-results/ so regressions show up as diffs in the numbers. Skipped
# when Google Benchmark is not installed (the binaries are not built).
if [[ -x "${BUILD_DIR}/bench/bench_micro_sim" ]]; then
  mkdir -p "${BUILD_DIR}/bench-results"
  "${BUILD_DIR}/bench/bench_micro_sim" \
      --benchmark_filter='bm_sim_(packed_ref|decode|decoded)/1000000|bm_sim_batch' \
      --benchmark_min_time=0.2 \
      --json="${BUILD_DIR}/bench-results/BENCH_sim.json"
  "${BUILD_DIR}/bench/bench_micro_parse" \
      --benchmark_filter='bm_parse_(reference|fast_1t)/1000000$' \
      --benchmark_min_time=0.2 \
      --json="${BUILD_DIR}/bench-results/BENCH_parse.json"
  echo "benchmark snapshots archived in ${BUILD_DIR}/bench-results/"
fi
