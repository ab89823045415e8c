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

echo "==> perf_sim smoke: DES core throughput, replay determinism"
# Exits non-zero unless replay_scale's full-stack 64-TE replay is
# bit-identical across its three rounds at every trace length and completes
# requests at each, the cancellation-heavy scenario reaches >= 0.48x the
# event-churn scenario's events/sec in the same run, and replay_scale's cost
# per request grows at most 1.8x over a 4x longer trace. The smoke figures go
# to build/BENCH_perf_smoke.json; the tracked BENCH_perf.json holds a
# full-mode run and is written only by hand (README).
./build/bench/perf_sim --smoke --out=build/BENCH_perf_smoke.json >/dev/null

echo "==> deepserve_sim obs smoke: obs flags write their files, report unchanged"
# Exits non-zero unless --trace-out and --metrics-out each write a non-empty
# file, both Chrome traces parse as JSON, the metrics dump carries the
# end-of-run rtc.index_nodes and ctrl.log_bytes gauges, each traced run's
# stdout (and the mixed-fleet run's per-request CSV and metrics dump) is
# byte-identical to its untraced twin's, and that CSV matches its pinned
# digest.
SIM_ARGS=(--model=tiny-1b --colocated=2 --rps=5 --duration=5)
OBS_DIR="$(mktemp -d)"
./build/examples/deepserve_sim "${SIM_ARGS[@]}" >"${OBS_DIR}/plain.out"
./build/examples/deepserve_sim "${SIM_ARGS[@]}" --trace-out="${OBS_DIR}/trace.json" \
  --metrics-out="${OBS_DIR}/metrics.txt" >"${OBS_DIR}/traced.out" 2>/dev/null
if [[ ! -s "${OBS_DIR}/trace.json" || ! -s "${OBS_DIR}/metrics.txt" ]]; then
  echo "deepserve_sim wrote no trace or metrics file" >&2
  exit 1
fi
for GAUGE in rtc.index_nodes ctrl.log_bytes; do
  if ! grep -q "${GAUGE}" "${OBS_DIR}/metrics.txt"; then
    echo "deepserve_sim's metrics dump has no ${GAUGE} gauge" >&2
    exit 1
  fi
done
cmp "${OBS_DIR}/plain.out" "${OBS_DIR}/traced.out"
# Traced or not, an engine runs a decode-only batch up to its next KV block
# boundary in one event (DESIGN #6), so a tracer changes no event: this mixed
# colocated + 1P1D pair's report, per-request CSV and metrics dump
# (sim.events_fired included) must match byte for byte. Both runs write the
# same CSV path, since stdout names it.
RUNS_ARGS=(--model=tiny-1b --colocated=2 --prefill-tes=1 --decode-tes=1 --rps=20 --duration=10
  --csv="${OBS_DIR}/run.csv")
./build/examples/deepserve_sim "${RUNS_ARGS[@]}" --metrics-out="${OBS_DIR}/runs_plain.metrics" \
  >"${OBS_DIR}/runs_plain.out" 2>/dev/null
mv "${OBS_DIR}/run.csv" "${OBS_DIR}/runs_plain.csv"
./build/examples/deepserve_sim "${RUNS_ARGS[@]}" --trace-out="${OBS_DIR}/runs_trace.json" \
  --metrics-out="${OBS_DIR}/runs_traced.metrics" >"${OBS_DIR}/runs_traced.out" 2>/dev/null
cmp "${OBS_DIR}/runs_plain.out" "${OBS_DIR}/runs_traced.out"
cmp "${OBS_DIR}/runs_plain.csv" "${OBS_DIR}/run.csv"
cmp "${OBS_DIR}/runs_plain.metrics" "${OBS_DIR}/runs_traced.metrics"
# The per-request CSV an engine that stepped one event per step wrote for
# this run, pinned: the oracle for decode runs (they agree on this run; DESIGN
# #6 names the one tie where they can part).
RUNS_CSV_SHA256=91d4fd828446d899090d5c16797cdbc82f39a772f44d10e8556ec77f953cd496
if [[ "$(sha256sum <"${OBS_DIR}/run.csv" | cut -d' ' -f1)" != "${RUNS_CSV_SHA256}" ]]; then
  echo "deepserve_sim's mixed-fleet CSV differs from the pinned stepping run" >&2
  exit 1
fi
for TRACE in trace.json runs_trace.json; do
  python3 -c 'import json,sys; json.load(open(sys.argv[1]))' "${OBS_DIR}/${TRACE}"
done
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
# parallelism degree below 1, a negative TE count, a fleet with no colocated
# TE and no prefill/decode pair unless the predictive autoscaler grows one
# (reactive and slo never scale up from zero TEs), the slo autoscaler with no
# --ttft-ms, --tbt-ms or --deadline-ms (no budget, no violation to scale on),
# a control-log config that
# ctrl::CtrlConfig::Validate refuses, an unknown scale, sched or trace policy,
# an unknown NPU generation, a non-positive rate or duration, a negative SLO
# budget, deadline, bursty period or NPU price, a bursty peak below its base
# rate, a cluster (link bandwidth, SuperPod size) that
# hw::ClusterConfig::Validate refuses, a predictor accuracy outside [0, 1], an
# autoscaler config that serving::AutoscalerConfig::Validate refuses, traffic
# flags that serving::RouteConfig::Validate refuses and an unknown flag (each
# line is one run's flags).
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
--je-replicas=2 --outlier-errors=-1
--je-replicas=2 --outlier-errors=2 --outlier-base-s=-1
--je-replicas=2 --hedge-ms=-5
--je-replicas=2 --retry-budget=-3
--model=tiny-1b --colocated=2 --rps=5 --duration=2 --trace=bursty --peak-rps=1
--model=tiny-1b --colocated=2 --rps=5 --duration=2 --superpod --ub-gbps=0
--model=tiny-1b --colocated=2 --rps=5 --duration=2 --superpod --ub-gbps=-3
--model=tiny-1b --colocated=2 --rps=5 --duration=2 --superpod --machines-per-superpod=-1
--model=tiny-1b --colocated=2 --rps=5 --duration=2 --gen=gen9
--model=tiny-1b --colocated=2 --rps=5 --duration=2 --tbt-ms=-1
--model=tiny-1b --colocated=2 --rps=5 --duration=2 --ttft-ms=-1
--model=tiny-1b --colocated=2 --rps=5 --duration=2 --deadline-ms=-1
--model=tiny-1b --colocated=2 --rps=5 --duration=2 --trace=bursty --period=-1
--model=tiny-1b --colocated=2 --rps=5 --duration=2 --npu-mix=gen1:1 --npu-cost-gen1=-5
--model=tiny-1b --colocated=2 --rps=5 --duration=2 --npu-mix=gen2:1 --npu-cost-gen2=-5
--model=tiny-1b --colocated=2 --rps=0 --duration=2
--model=tiny-1b --colocated=2 --rps=5 --duration=-1
--model=tiny-1b --rps=5 --duration=2 --colocated=0 --prefill-tes=0 --decode-tes=0
--model=tiny-1b --rps=5 --duration=2 --colocated=0 --prefill-tes=1 --decode-tes=0
--model=tiny-1b --rps=5 --duration=20 --colocated=0 --scale-policy=reactive --max-tes=4
--model=tiny-1b --rps=5 --duration=20 --colocated=0 --scale-policy=slo --max-tes=4
--model=tiny-1b --colocated=1 --rps=40 --duration=30 --scale-policy=slo --max-tes=4
BAD_CONFIGS
# The benches refuse bad flags the same way: a rate, duration or shape value
# <= 0 (bench::OptionRegistry::PositiveFlag), a burst peak below its base
# rate, a slow-node factor below 1, a fault schedule that does not parse, a
# detection latency that serving::FaultDetectionConfig::Validate refuses, an
# unknown scheduling or scale policy, and --lb-policy on fig_traffic, which
# fixes a routing policy per variant (an unknown flag there, not one it
# silently ignores). Each line is one bench and its flags.
while read -r -a BAD_BENCH; do
  BAD_STATUS=0
  "./build/bench/${BAD_BENCH[0]}" "${BAD_BENCH[@]:1}" >/dev/null 2>&1 || BAD_STATUS=$?
  if [[ "${BAD_STATUS}" -ne 2 ]]; then
    echo "${BAD_BENCH[*]} exited ${BAD_STATUS}, want 2" >&2
    exit 1
  fi
done <<'BAD_BENCH_CONFIGS'
fig_traffic --smoke --lb-policy=p2c
fig_fault_recovery --smoke --detect-ms=-5
fig_fault_recovery --fault-schedule=bogus
abl_sched_policy --smoke --policy=bogus
fig_autoscale --smoke --policy=bogus
fig_fault_recovery --rps=-1
fig_fault_recovery --duration-s=-1
fig_autoscale --base-rps=-1
fig_ctrl_failover --rps=-2
fig_traffic --base-rps=-1
fig_traffic --period-s=0
abl_sched_policy --rps=-1
abl_sched_policy --tbt-ms=-1
fig_autoscale --sharpness=-1
fig_ctrl_failover --peak-rps=0.5
fig_traffic --deadline-ms=-5
fig_traffic --slow-factor=-1
BAD_BENCH_CONFIGS

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
