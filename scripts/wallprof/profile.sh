#!/usr/bin/env bash
# Profiles one perfbench workload with wallprof.
#
# Usage: scripts/wallprof/profile.sh <workload> <seed> <seconds> [symbolize.py args...]
#   e.g. scripts/wallprof/profile.sh churn_evict 1 4 --top 25 \
#          --within 'Rig::RunPhase' --match maps='_Hashtable<cm::Hash128'
#
# Builds cmbench from this checkout with -O2 -g -fno-omit-frame-pointer into
# .wallprof_build/ (the benchmark's own .bench_build/ is left alone), builds
# the sampler, runs `cmbench --trace 0` under it and prints the summary.
# The samples cover the whole run (set-up, replays, the reference workload,
# the SLO ladder); --within 'Rig::RunPhase' keeps the measured phases only.
set -euo pipefail
cd "$(dirname "$0")/../.."
[[ $# -ge 3 ]] || { sed -n '4,5p' "$0"; exit 2; }
workload=$1 seed=$2 seconds=$3
shift 3

out=.wallprof_build
gen=()
command -v ninja >/dev/null && gen=(-G Ninja)
cmake -S perfbench -B "${out}" "${gen[@]}" -DCMAKE_BUILD_TYPE=Release \
  -DCMAKE_CXX_FLAGS="-g -fno-omit-frame-pointer" >/dev/null
cmake --build "${out}" -j "$(( $(nproc) < 4 ? $(nproc) : 4 ))" >/dev/null
cc -O2 -shared -fPIC -o "${out}/libwallprof.so" scripts/wallprof/wallprof.c -lrt

rm -f "${out}"/wallprof.*.raw "${out}"/wallprof.*.maps
(cd "${out}" && LD_PRELOAD="$PWD/libwallprof.so" ./cmbench --workload "${workload}" \
   --seed "${seed}" --seconds "${seconds}" --trace 0 >/dev/null)
raw=$(ls "${out}"/wallprof.*.raw)
python3 scripts/wallprof/symbolize.py "${raw}" "$@"
