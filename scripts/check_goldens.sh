#!/usr/bin/env bash
# Byte-identity check for the report-producing CLIs.
#
# Regenerates the exact reports captured in tests/golden/ (fixed seeds,
# single-threaded semantics) and cmp's them byte for byte. Any diff
# means the simulation core or the report writers changed observable
# behaviour — the hard invariant the high-throughput queue/kernel work
# must preserve.
#
# A second pass reruns the same invocations with --engine-stats and
# strips the introspection blocks (scripts/strip_engine_stats.py): the
# remainder must also match the goldens byte for byte. That pins the
# tentpole's strict report neutrality — turning collection on may add
# "engine" members but must not perturb a single other byte.
#
# The Chrome trace golden (profile_chrome.json) is checked for byte
# identity only: engine gauges add counter tracks to a Chrome document,
# so it has no stats-on twin. Its trace capacity (100) is below each
# run's event count and not a power of two, which pins the ring's wrap
# order and the "(dropped N events)" metadata.
#
# usage: check_goldens.sh <examples-bin-dir> <golden-dir>
set -euo pipefail

bin_dir=${1:?usage: check_goldens.sh <examples-bin-dir> <golden-dir>}
golden=${2:?usage: check_goldens.sh <examples-bin-dir> <golden-dir>}
strip_py="$(dirname "$0")/strip_engine_stats.py"

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

"$bin_dir/delta_sweep" --workloads mixed --seeds 2 --quiet \
    --out "$tmp/sweep_mixed.json" >/dev/null
"$bin_dir/delta_profile" --preset 1,2,3,4,5,6,7 --workload mixed --seed 1 \
    --sample-period 10000 --out "$tmp/profile_presets.json" \
    --baseline-out "$tmp/profile_baseline.json" >/dev/null
"$bin_dir/delta_profile" --preset 1,4 --workload mixed --seed 1 \
    --sample-period 10000 --trace-capacity 100 \
    --out "$tmp/profile_chrome_profile.json" \
    --chrome "$tmp/profile_chrome.json" >/dev/null
"$bin_dir/delta_fuzz" --runs 40 --seed 7 \
    --out "$tmp/fuzz_campaign.json" >/dev/null

"$bin_dir/delta_sweep" --workloads mixed --seeds 2 --quiet --engine-stats \
    --out "$tmp/es_sweep_mixed.json" >/dev/null
"$bin_dir/delta_profile" --preset 1,2,3,4,5,6,7 --workload mixed --seed 1 \
    --sample-period 10000 --engine-stats --out "$tmp/es_profile_presets.json" \
    --baseline-out "$tmp/es_profile_baseline.json" >/dev/null
"$bin_dir/delta_fuzz" --runs 40 --seed 7 --engine-stats \
    --out "$tmp/es_fuzz_campaign.json" >/dev/null

status=0
for f in sweep_mixed profile_presets profile_baseline fuzz_campaign \
    profile_chrome; do
  if cmp -s "$golden/$f.json" "$tmp/$f.json"; then
    echo "ok: $f.json byte-identical"
  else
    echo "GOLDEN MISMATCH: $f.json differs from $golden/$f.json" >&2
    cmp "$golden/$f.json" "$tmp/$f.json" >&2 || true
    status=1
  fi
done
for f in sweep_mixed profile_presets profile_baseline fuzz_campaign; do
  python3 "$strip_py" "$tmp/es_$f.json" > "$tmp/es_$f.stripped.json"
  if cmp -s "$golden/$f.json" "$tmp/es_$f.stripped.json"; then
    echo "ok: $f.json neutral under --engine-stats"
  else
    echo "ENGINE-STATS NOT NEUTRAL: stripped $f.json differs from" \
         "$golden/$f.json" >&2
    cmp "$golden/$f.json" "$tmp/es_$f.stripped.json" >&2 || true
    status=1
  fi
done
exit $status
