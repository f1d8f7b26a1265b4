#!/bin/sh
# One traced parent/change pass of an e2e-bench workload, per-layer metric
# by metric: the parent revision is exported to a scratch directory (`git
# archive`, so offline and without touching .git), both `e2e` binaries are
# built once with the command of BENCHMARK.json, each side runs one
# `--trace 1` pass on the same seed (parent first), and every metric of
# the result lines is printed as parent value, change value and
# change/parent ratio. A single pass is a breakdown, not a claim: use
# paired_bench.sh for the end-to-end numbers.
#
#   scripts/trace_pair.sh <parent-rev> <workload> [seed=7] [seconds=16]
#
# The scratch directory is made under ${TMPDIR:-/tmp} and removed on exit.
set -eu
[ $# -ge 2 ] || { sed -n '2,13p' "$0" >&2; exit 2; }
rev=$1 workload=$2 seed=${3:-7} seconds=${4:-16}
change=$(cd "$(dirname "$0")/.." && pwd)
parent=$(mktemp -d "${TMPDIR:-/tmp}/safecross-parent.XXXXXX")
out=$(mktemp "${TMPDIR:-/tmp}/safecross-trace.XXXXXX")
trap 'rm -rf "$parent" "$out"' EXIT
trap 'exit 130' INT TERM

git -C "$change" archive "$rev" | tar -x -C "$parent"
for root in "$parent" "$change"; do
  (cd "$root" && cargo build --release --quiet --offline --manifest-path e2e-bench/Cargo.toml --bin e2e)
done

# One traced run: the last stdout line is the JSON result.
for side in parent change; do
  root=$parent; [ "$side" = change ] && root=$change
  (cd "$root" && ./e2e-bench/target/release/e2e --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 1) |
    tail -n 1 | sed "s/^/$side /" >> "$out"
done

echo "# $workload seed $seed, ${seconds}s traced: change (working tree) vs parent $(git -C "$change" rev-parse --short "$rev"), nproc $(nproc)"
awk '
  function field(line, name) {
    if (!match(line, "\"" name "\": [a-z0-9]+")) return "?"
    line = substr(line, RSTART, RLENGTH)
    sub(/.*: /, "", line)
    return line
  }
  {
    side = $1; line = $0
    printf "# %s: correct %s, failed %s\n", side, field(line, "correct"), field(line, "failed")
    # Every `"name": {"value": v` pair, in the order the result prints them.
    while (match(line, /"[a-z0-9_.]+": \{"value": [-+0-9.eE]+/)) {
      pair = substr(line, RSTART, RLENGTH)
      line = substr(line, RSTART + RLENGTH)
      name = pair; sub(/^"/, "", name); sub(/".*/, "", name)
      v = pair; sub(/.*: /, "", v)
      if (!(name in seen)) { seen[name] = 1; order[++n] = name }
      val[side, name] = v + 0
    }
  }
  END {
    printf "%-36s %14s %14s %8s\n", "metric", "parent", "change", "ratio"
    for (i = 1; i <= n; i++) {
      m = order[i]; p = val["parent", m]; c = val["change", m]
      printf "%-36s %14.6g %14.6g %8s\n", m, p, c, p == 0 ? (c == 0 ? "=" : "-") : sprintf("%.3f", c / p)
    }
  }' "$out"
