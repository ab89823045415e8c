#!/usr/bin/env bash
# Static analysis, tier-1 verification, and a sanitizer pass over the suite.
#
#   ./ci.sh          # lint, release-ish build + ctest, Release compile, ASan/UBSan pass
#   ./ci.sh --fast   # lint + tier-1 only (skip the Release and sanitizer builds)
set -euo pipefail
cd "$(dirname "$0")"

JOBS="$(nproc 2>/dev/null || echo 4)"

echo "==> ds_lint: determinism / Status / obs / ctrl / deferred / layering / time-unit rules"
# Fast-fail gate: builds only the lint tool, then walks src/ bench/ examples/
# tests/ with the parallel scanner. Non-zero exit on any finding, including
# stale suppressions; output is stable-sorted file:line so failures diff
# cleanly, and the same findings land in build/ds_lint_findings.json as a
# machine-readable build artifact. See DESIGN.md.
cmake -B build -S . >/dev/null
cmake --build build -j "${JOBS}" --target ds_lint >/dev/null
./build/tools/ds_lint/ds_lint --root . --json-out build/ds_lint_findings.json

echo "==> clang-tidy: promoted lifetime/perf checks (gating when available)"
# The container's baked toolchain is gcc-only; the promoted check subset
# (use-after-move, dangling-handle, unnecessary-value-param) gates wherever
# clang-tidy exists and is skipped — loudly — where it does not.
if command -v clang-tidy >/dev/null 2>&1; then
  cmake -B build -S . -DCMAKE_EXPORT_COMPILE_COMMANDS=ON >/dev/null
  git ls-files 'src/*.cc' | xargs clang-tidy -p build --quiet \
    --checks='-*,bugprone-use-after-move,bugprone-dangling-handle,performance-unnecessary-value-param' \
    --warnings-as-errors='*'
else
  echo "    clang-tidy not installed; skipping promoted checks (advisory .clang-tidy still applies in IDEs)"
fi

echo "==> tier-1: configure + build + ctest (build/)"
cmake --build build -j "${JOBS}"
(cd build && ctest --output-on-failure -j "${JOBS}")

echo "==> micro_primitives: every per-layer microbenchmark builds and runs"
# A short minimum time per case (~2 s in all): this checks that each micro
# still runs, not what it measures.
./build/bench/micro_primitives --benchmark_min_time=0.01 >/dev/null

echo "==> fault-recovery smoke: fixed-seed chaos run, conservation asserted"
# Exits non-zero if any accepted request terminates in neither (or both) of
# on_complete / on_error.
./build/bench/fig_fault_recovery --smoke --fault-seed=42 >/dev/null

echo "==> ctrl-failover smoke: CM + JE leader crashes, conservation + replay asserted"
# Exits non-zero unless the replicated run conserves every request across the
# leader crashes and replays bit-identically, the single-replica ablation
# accounts for every request (terminations + undetected losses == submitted),
# every CM and every JE crash in the replicated run failed over (at least one
# of each), and no leader failed over in the single-replica run.
./build/bench/fig_ctrl_failover --smoke >/dev/null

echo "==> traffic smoke: routing-policy ablation under a flash crowd + slow TE"
# Exits non-zero unless request conservation holds in every variant, p2c+eject
# and wlc+eject beat plain rr on both goodput and p99 TTFT, the slow TE gets
# ejected, and the rr+eject run replays bit-identically.
./build/bench/fig_traffic --smoke >/dev/null

echo "==> sched-policy smoke: fcfs/slo/priority-preempt ablation invariants"
# Exits non-zero unless conservation holds for all three policies, slo keeps
# max_decode_step under its TBT budget while shedding via on_error, and the
# slo run replays bit-identically.
./build/bench/abl_sched_policy --smoke >/dev/null

echo "==> autoscale smoke: reactive/predictive/slo policy comparison invariants"
# Exits non-zero unless graceful drains lose nothing, the predictive run
# replays bit-identically, and predictive beats reactive on p99 TTFT and SLO
# violations at no more TE-seconds.
./build/bench/fig_autoscale --smoke >/dev/null

echo "==> hetero smoke: cost-aware vs hetero-blind placement on a Gen1/Gen2 mix"
# Exits non-zero unless conservation holds in both modes, cost-aware placement
# puts more TEs on Gen1 than the blind first-fit, beats it on tokens-per-dollar,
# and the aware run replays bit-identically.
./build/bench/fig_hetero --smoke >/dev/null

echo "==> perf_sim smoke: DES core throughput, replay determinism, BENCH_perf.json"
# Exits non-zero unless the full-stack 64-TE replay is bit-identical across
# two runs, the cancellation-heavy scenario beats the embedded pre-PR event
# core by >= 3x events/sec, and replay_scale's cost per request grows at most
# 1.8x over a 4x longer trace. Writes the tracked BENCH_perf.json.
./build/bench/perf_sim --smoke --out=BENCH_perf.json >/dev/null

echo "==> deepserve_sim obs smoke: obs flags write their files, report unchanged"
# Exits non-zero unless --trace-out and --metrics-out each write a non-empty
# file and the traced run's stdout is byte-identical to an untraced run.
SIM_ARGS=(--model=tiny-1b --colocated=2 --rps=5 --duration=5)
OBS_DIR="$(mktemp -d)"
./build/examples/deepserve_sim "${SIM_ARGS[@]}" >"${OBS_DIR}/plain.out"
./build/examples/deepserve_sim "${SIM_ARGS[@]}" --trace-out="${OBS_DIR}/trace.json" \
  --metrics-out="${OBS_DIR}/metrics.txt" >"${OBS_DIR}/traced.out" 2>/dev/null
if [[ ! -s "${OBS_DIR}/trace.json" || ! -s "${OBS_DIR}/metrics.txt" ]]; then
  echo "deepserve_sim wrote no trace or metrics file" >&2
  exit 1
fi
cmp "${OBS_DIR}/plain.out" "${OBS_DIR}/traced.out"
rm -rf "${OBS_DIR}"

echo "==> ctrl-replica parity: a 3-replica control log changes no simulated output"
# Exits non-zero unless a mixed colocated + 1P1D run prints byte-identical
# stdout with and without --ctrl-replicas=3: replication is observable only
# at failover, and this run has none (DESIGN #10).
PARITY_ARGS=(--model=tiny-1b --colocated=2 --prefill-tes=1 --decode-tes=1 --rps=5 --duration=5)
PARITY_DIR="$(mktemp -d)"
./build/examples/deepserve_sim "${PARITY_ARGS[@]}" >"${PARITY_DIR}/one.out"
./build/examples/deepserve_sim "${PARITY_ARGS[@]}" --ctrl-replicas=3 >"${PARITY_DIR}/three.out"
cmp "${PARITY_DIR}/one.out" "${PARITY_DIR}/three.out"
rm -rf "${PARITY_DIR}"

echo "==> deepserve_sim boundary: bad configs exit 2, not with an abort"
# yi-34b's weights overflow one Gen2 NPU's HBM at tp1. deepserve_sim must
# refuse the config with an INVALID_ARGUMENT message (exit 2) before it builds
# any TE, rather than die on the engine's capacity check. The same holds for a
# parallelism degree below 1, a negative TE count, a control-log config that
# ctrl::CtrlConfig::Validate refuses, an unknown scale, sched or trace policy,
# a predictor accuracy outside [0, 1], an autoscaler config that
# serving::AutoscalerConfig::Validate refuses and an unknown flag (each line is
# one run's flags).
while read -r -a BAD_FLAGS; do
  BAD_STATUS=0
  ./build/examples/deepserve_sim "${BAD_FLAGS[@]}" >/dev/null 2>&1 || BAD_STATUS=$?
  if [[ "${BAD_STATUS}" -ne 2 ]]; then
    echo "deepserve_sim ${BAD_FLAGS[*]} exited ${BAD_STATUS}, want 2" >&2
    exit 1
  fi
done <<'BAD_CONFIGS'
--model=yi-34b --tp=1
--model=tiny-1b --tp=0
--colocated=-2
--prefill-tes=-1
--decode-tes=-1
--ctrl-replicas=3 --ctrl-latency-ms=-1
--ctrl-replicas=3 --ctrl-lease-ms=-5
--ctrl-replicas=0
--scale-policy=bogus
--sched-policy=bogus
--predictor=-1
--trace=bogus
--scale-policy=reactive --max-tes=0
--drain=0
BAD_CONFIGS

echo "==> perfbench self-tests: the repo benchmark builds, conserves and repeats"
# Nothing else here builds perfbench/perfbench.cc, which drives the public
# request API (ResponseHandler, JobExecutor::HandleRequest,
# Frontend::ChatCompletion). Exits non-zero unless it builds and its tiny-trace
# replays conserve requests and repeat exactly. About 4 s with a warm
# .bench_build/, about a minute cold.
python3 perfbench/test_perfbench.py

if [[ "${1:-}" == "--fast" ]]; then
  echo "==> --fast: skipping Release compile and sanitizer pass"
  exit 0
fi

echo "==> release: compile-only -O3 build (build-release/)"
# -O3 inlining raises warnings (GCC 12's -Wrestrict, for one) that the
# RelWithDebInfo build above never sees, and -Werror makes them fatal. Every
# build type must compile.
cmake -B build-release -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build build-release -j "${JOBS}"

echo "==> sanitizers: ASan/UBSan build + ctest (build-asan/)"
# The suite includes fault_test (chaos property tests), so the crash/recovery
# paths run under both sanitizers here. Clang's extra integer/implicit-
# conversion groups catch benign-looking unsigned wraparound and silent
# narrowing that UBSan proper does not; gcc does not implement them, so they
# switch on only when the build compiler is clang.
SAN_FLAGS="-fsanitize=address,undefined"
if "${CXX:-c++}" --version 2>/dev/null | grep -qi clang; then
  SAN_FLAGS="${SAN_FLAGS},integer,implicit-conversion"
fi
cmake -B build-asan -S . \
  -DCMAKE_BUILD_TYPE=Debug \
  -DCMAKE_CXX_FLAGS="${SAN_FLAGS} -fno-sanitize-recover=all -fno-omit-frame-pointer" \
  -DCMAKE_EXE_LINKER_FLAGS="${SAN_FLAGS}" >/dev/null
cmake --build build-asan -j "${JOBS}"
(cd build-asan && ctest --output-on-failure -j "${JOBS}")

echo "==> ci.sh: all green"
