#!/usr/bin/env bash
# Perf-regression gate: re-runs bench_simcore and diffs every cm.bench.v1
# scalar against the committed BENCH_simcore.json baseline. The bench runs
# RUNS (3) times and the gate compares each scalar's median: one run of a
# wall-clock bench can read ~1.9x its baseline on host speed alone.
#
# Direction is inferred from the scalar name:
#   *_per_sec / *per_second / *throughput* / *success_ratio*  -> higher is
#   better; everything else (…_ns, …_us, …_ms, …_per_byte, ratios)  -> lower
#   is better
#
# A scalar that regresses by more than WARN_RATIO prints a warning; more
# than FAIL_RATIO fails the gate (exit 1). A scalar that reads 0 in the run
# but not in the baseline also fails: a bench that broke and emits 0 has
# no ratio to compare. Improvements are reported informationally — refresh
# the baseline (EXPERIMENTS.md) to bank them.
#
# Usage: scripts/perf_gate.sh
set -euo pipefail
cd "$(dirname "$0")/.."

JQ=/usr/bin/jq
RUNS=3
WARN_RATIO=1.3
FAIL_RATIO=2.0
bin="build/bench/bench_simcore"
baseline="BENCH_simcore.json"

if [[ ! -x "$bin" ]]; then
  echo "perf_gate: ${bin} not built"
  exit 1
fi
echo "perf_gate: simcore (median of ${RUNS} runs; warn >${WARN_RATIO}x, fail >${FAIL_RATIO}x)"
# Documents with full metric snapshots can exceed the kernel's per-argv
# limit, so the runs go through files (--slurpfile), not --argjson.
runs="$(mktemp -d)"
current="${runs}/median.json"
trap 'rm -rf "$runs"' EXIT
for ((i = 0; i < RUNS; ++i)); do
  "$bin" --json > "${runs}/run${i}.json"
  "$JQ" -e '.schema == "cm.bench.v1"' "${runs}/run${i}.json" >/dev/null \
    || { echo "  ${bin} --json: bad schema"; exit 1; }
done
# The median of each scalar over the runs that report it.
"$JQ" -s '{schema: .[0].schema, scalars: (
    . as $docs | [$docs[].scalars | keys[]] | unique
    | map(. as $k | [$docs[].scalars[$k] | select(. != null)] | sort
          | {key: $k, value: .[(length - 1) / 2 | floor]})
    | from_entries)}' "${runs}"/run*.json > "$current"

# Emit "key old new" for every scalar present in both documents.
fail=0
compared=0
while read -r key old new; do
  compared=$((compared + 1))
  verdict="$("$JQ" -rn \
    --arg key "$key" --argjson old "$old" --argjson new "$new" \
    --argjson warn "$WARN_RATIO" --argjson fail "$FAIL_RATIO" '
    def higher_better:
      ($key | test("per_sec|per_second|throughput|success_ratio"));
    # ratio > 1 means "worse by that factor".
    if $new == 0 and $old != 0 then "ZERO 0"
    else
      ( if $old == 0 or $new == 0 then 1
        elif higher_better then $old / $new
        else $new / $old end ) as $ratio |
      if $ratio > $fail then "FAIL"
      elif $ratio > $warn then "WARN"
      elif $ratio < (1 / $warn) then "GOOD"
      else "ok" end
      + " " + ($ratio * 100 | round / 100 | tostring)
    end')"
  status="${verdict%% *}"
  ratio="${verdict#* }"
  case "$status" in
    ZERO)
      printf '  FAIL %-34s %14.4g -> 0              (zero in the run, not in the baseline)\n' \
        "$key" "$old"
      fail=1 ;;
    FAIL)
      printf '  FAIL %-34s %14.4g -> %-14.4g (%sx worse)\n' \
        "$key" "$old" "$new" "$ratio"
      fail=1 ;;
    WARN)
      printf '  warn %-34s %14.4g -> %-14.4g (%sx worse)\n' \
        "$key" "$old" "$new" "$ratio" ;;
    GOOD)
      printf '  good %-34s %14.4g -> %-14.4g (improved; refresh baseline)\n' \
        "$key" "$old" "$new" ;;
    *)
      printf '  ok   %-34s %14.4g -> %-14.4g\n' "$key" "$old" "$new" ;;
  esac
done < <("$JQ" -r --slurpfile cur "$current" '
    $cur[0].scalars as $curs |
    .scalars | to_entries[]
    | select($curs[.key] != null)
    | "\(.key) \(.value) \($curs[.key])"' "$baseline")
if [[ "$compared" == "0" ]]; then
  echo "  FAIL: no scalars compared (stale baseline?)"
  fail=1
fi

if [[ "$fail" == "1" ]]; then
  echo "perf_gate: FAILED (a scalar regressed past the fail threshold or read 0)"
  exit 1
fi
echo "perf_gate: ok"
