#!/usr/bin/env bash
# One-command gate: tier-1 build + tests, the perf gates and the sim-time
# bench pins, then a sanitizer (ASan/UBSan) build running the whole ctest
# suite: borrowed SCAR reads hand raw spans of backend memory to the client
# decoders, and the sanitizers are what catch a span that outlives them.
#
# Usage: scripts/check.sh [--fast]
#   --fast  skip the sanitizer stage (tier-1 only)
set -euo pipefail
cd "$(dirname "$0")/.."

FAST=0
[[ "${1:-}" == "--fast" ]] && FAST=1

echo "== tier-1: configure + build (warnings are errors) =="
# The tier-1 build prints no warnings; -Werror keeps it that way, so a new
# one fails here instead of scrolling past. The CMake defaults (and the
# perfbench build) stay without it.
cmake -B build -S . -DCMAKE_CXX_FLAGS=-Werror >/dev/null
cmake --build build -j "$(nproc)"

echo "== tier-1: full ctest =="
(cd build && ctest --output-on-failure -j "$(nproc)")

echo "== examples: build + smoke-run the maintenance drill =="
# Examples are part of the default target, but run one end-to-end so a
# behavioral break (not just a compile break) can't silently rot them.
cmake --build build -j "$(nproc)" --target quickstart maintenance_drill ads_serving >/dev/null
./build/examples/maintenance_drill >/dev/null \
  || { echo "maintenance_drill: non-zero exit"; exit 1; }

echo "== observability: bench --json emits valid cm.bench.v1 =="
JQ=/usr/bin/jq
for bench in bench_micro bench_fig07_cpu_per_op; do
  out="$(./build/bench/${bench} --json)"
  echo "${out}" | "$JQ" -e '.schema == "cm.bench.v1"' >/dev/null \
    || { echo "${bench} --json: bad schema"; exit 1; }
  echo "${out}" | "$JQ" -e '(.scalars | length) > 0' >/dev/null \
    || { echo "${bench} --json: no scalars"; exit 1; }
  echo "  ${bench}: ok ($(echo "${out}" | "$JQ" '.scalars | length') scalars)"
done
# fig07 must attribute per-layer CPU from registry snapshot deltas.
./build/bench/bench_fig07_cpu_per_op --json \
  | "$JQ" -e '.scalars["scar.issue_ns_per_op"] > 0 and (.metrics.scar.schema == "cm.metrics.v1")' >/dev/null \
  || { echo "fig07 --json: missing registry attribution"; exit 1; }

echo "== perf gate: simulator-core wall-clock scalars vs baseline =="
# Compares the median of 3 runs. Warns past 1.3x drift (noise/minor
# regressions stay non-fatal); fails the gate only past 2x — a real
# scheduler or payload-path regression. Only
# bench_simcore is ratio-gated: its scalars are wall-clock. Every gated
# sim-time scalar is an exact pin in the next stage instead.
scripts/perf_gate.sh

echo "== sim pins: sim-time bench scalars equal the committed baselines =="
# Simulated time is deterministic, so a refactor that claims no behaviour
# change must reproduce these benches' scalars exactly: any difference in
# `.scalars` against the committed BENCH_*.json fails, with the diff.
# bench_ablation_assoc is the only bench that turns the overflow fallback
# on; bench_resharding and bench_fig03_reshaping drive SnapshotBulk,
# DropNonOwned and the backend mutation paths. bench_fig07_cpu_per_op
# derives its scalars only from registry snapshot deltas, so it also pins
# the exported metric names; bench_ablation_eviction reads
# Cell::AggregateBackendStats. bench_fig08_ads (batched vs naive MultiGet),
# bench_fig14_unplanned_maint (doctor detection/MTTR, hedging) and
# bench_domain_outage (availability dip, time back to quorum) were once
# ratio-gated; as sim-time scalars they are pinned exactly here. The last
# eight (SCAR ablation, geo, size CDF, SCAR incast, planned maintenance,
# Pony ramp, read/write mix, value size) cover the read path and
# maintenance; together they take ~55 s on 4 vCPUs.
for bench in bench_ablation_quorum bench_fig06_languages \
             bench_fig11_preferred_backend bench_tenant_isolation \
             bench_fig16_17_1rma_ramp bench_ablation_assoc \
             bench_resharding bench_fig03_reshaping \
             bench_fig07_cpu_per_op bench_ablation_eviction \
             bench_fig08_ads bench_fig14_unplanned_maint \
             bench_domain_outage bench_ablation_scar bench_fig09_geo \
             bench_fig10_size_cdf bench_fig12_scar_incast \
             bench_fig13_planned_maint bench_fig15_pony_ramp \
             bench_fig18_19_mix bench_fig20_value_size; do
  baseline="BENCH_${bench#bench_}.json"
  if ! diff <("$JQ" -S .scalars "${baseline}") \
            <(./build/bench/${bench} --json | "$JQ" -S .scalars); then
    echo "${bench}: scalars differ from ${baseline} (diff above: < baseline, > run)"
    exit 1
  fi
  echo "  ${bench}: ok ($("$JQ" '.scalars | length' "${baseline}") scalars)"
done

if [[ "$FAST" == "1" ]]; then
  echo "== done (fast mode: sanitizer stage skipped) =="
  exit 0
fi

echo "== sanitizer (ASan/UBSan): build =="
# Without NDEBUG (RelWithDebInfo's flags minus -DNDEBUG), so the contract
# asserts in rma/memory.cc and the death tests built on them run here too.
cmake -B build-asan -S . -DCM_SANITIZE=ON \
  -DCMAKE_CXX_FLAGS_RELWITHDEBINFO="-O2 -g" >/dev/null
cmake --build build-asan -j "$(nproc)"

echo "== sanitizer: full ctest =="
(cd build-asan && ctest --output-on-failure -j "$(nproc)")

echo "== all checks passed =="
