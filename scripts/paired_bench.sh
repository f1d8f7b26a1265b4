#!/bin/sh
# Paired parent/change runs of e2e-bench workloads, the way CHANGES.md
# entries report them: the parent revision is exported to a scratch
# directory (`git archive`, so offline and without touching .git), both
# `e2e` binaries are built once with the command of BENCHMARK.json, and
# each pair runs both sides on one seed (7, 8, ...), alternating which
# side goes first. Prints every pair's change/parent ratio for the six
# end-to-end metrics, then per metric both sides' medians and quartiles,
# how many pairs the change won, the exact two-sided sign-test p-value
# over the decided (non-tied) pairs, and `claim-ready yes` when the change
# won at least nine in ten pairs and its median moved by more than the
# parent's interquartile range. The workload `all` runs every workload
# of BENCHMARK.json in turn against the same two builds and prints one
# summary per workload: the evidence a no-regression change shows.
#
#   scripts/paired_bench.sh <parent-rev> <workload|all> [pairs=10] [seconds=16]
#
# The scratch directory is made under ${TMPDIR:-/tmp} and removed on exit.
set -eu
[ $# -ge 2 ] || { sed -n '2,18p' "$0" >&2; exit 2; }
rev=$1 workloads=$2 pairs=${3:-10} seconds=${4:-16}
change=$(cd "$(dirname "$0")/.." && pwd)
if [ "$workloads" = all ]; then
  # Workload entries are the objects of BENCHMARK.json that carry a "why".
  workloads=$(sed -n 's/.*{"name": "\([a-z0-9_]*\)", "why".*/\1/p' "$change/BENCHMARK.json")
fi
parent=$(mktemp -d "${TMPDIR:-/tmp}/safecross-parent.XXXXXX")
out=$(mktemp "${TMPDIR:-/tmp}/safecross-pairs.XXXXXX")
trap 'rm -rf "$parent" "$out"' EXIT
trap 'exit 130' INT TERM

git -C "$change" archive "$rev" | tar -x -C "$parent"
for root in "$parent" "$change"; do
  (cd "$root" && cargo build --release --quiet --offline --manifest-path e2e-bench/Cargo.toml --bin e2e)
done

# One run: the last stdout line is the JSON result.
run() { # <root> <side> <seed>
  (cd "$1" && ./e2e-bench/target/release/e2e --workload "$workload" --seed "$3" --seconds "$seconds" --trace 0) |
    tail -n 1 | sed "s/^/$2 $3 /" >> "$out"
}

# Summarises the pairs recorded in $out.
summarize() {
awk '
  function metric(line, name,    pat) {
    pat = "\"" name "\": \\{\"value\": [-+0-9.eE]+"
    if (!match(line, pat)) return "nan"
    line = substr(line, RSTART, RLENGTH)
    sub(/.*: /, "", line)
    return line + 0
  }
  function field(line, name) {
    if (!match(line, "\"" name "\": [a-z0-9]+")) return "?"
    line = substr(line, RSTART, RLENGTH)
    sub(/.*: /, "", line)
    return line
  }
  # Quantile q of v[1..n] (sorted in place), linear between order statistics.
  function quantile(v, n, q,    i, j, t, pos, lo) {
    for (i = 2; i <= n; i++) for (j = i; j > 1 && v[j - 1] > v[j]; j--) { t = v[j]; v[j] = v[j - 1]; v[j - 1] = t }
    pos = 1 + (n - 1) * q; lo = int(pos)
    return lo >= n ? v[n] : v[lo] + (pos - lo) * (v[lo + 1] - v[lo])
  }
  # Exact two-sided sign-test p-value of w wins among d decided pairs.
  function sign_p(w, d,    lo, i, c, tail) {
    if (d == 0) return 1
    lo = w < d - w ? w : d - w
    c = 1; tail = 0
    for (i = 0; i <= lo; i++) { tail += c; c = c * (d - i) / (i + 1) }
    tail = 2 * tail / 2 ^ d
    return tail > 1 ? 1 : tail
  }
  BEGIN {
    nm = split("frames_per_s frame_age_mean_ms delivered_share healthy_delivered_share peak_rss_mb setup_s", names, " ")
    split("1 0 1 1 0 0", higher, " ")
  }
  {
    side = $1; seed = $2
    if (!(seed in seen)) { seen[seed] = 1; seeds[++ns] = seed }
    for (m = 1; m <= nm; m++) val[side, seed, m] = metric($0, names[m])
    if (field($0, "correct") != "true" || field($0, "failed") != "0")
      printf "# %s seed %s: correct %s, failed %s\n", side, seed, field($0, "correct"), field($0, "failed")
  }
  END {
    printf "%-6s", "seed"; for (m = 1; m <= nm; m++) printf " %24s", names[m]; printf "\n"
    for (s = 1; s <= ns; s++) {
      printf "%-6s", seeds[s]
      for (m = 1; m <= nm; m++) {
        p = val["parent", seeds[s], m]; c = val["change", seeds[s], m]
        printf " %24.3f", c / p
        if (c != p) { decided[m]++; if ((c > p) == (higher[m] == 1)) wins[m]++ }
      }
      printf "\n"
    }
    for (m = 1; m <= nm; m++) {
      for (s = 1; s <= ns; s++) { pv[s] = val["parent", seeds[s], m]; cv[s] = val["change", seeds[s], m] }
      pm = quantile(pv, ns, 0.5); cm = quantile(cv, ns, 0.5)
      pq1 = quantile(pv, ns, 0.25); pq3 = quantile(pv, ns, 0.75)
      gap = cm - pm; if (gap < 0) gap = -gap
      ready = 10 * wins[m] >= 9 * ns && gap > pq3 - pq1 ? "yes" : "no"
      printf "%-24s parent %10.4f [%10.4f, %10.4f]  change %10.4f [%10.4f, %10.4f]  ratio of medians %.3f  change better in %d of %d (%d ties)  sign-test p %.4f  claim-ready %s\n",
        names[m], pm, pq1, pq3, cm, quantile(cv, ns, 0.25), quantile(cv, ns, 0.75), cm / pm,
        wins[m], ns, ns - decided[m], sign_p(wins[m], decided[m]), ready
    }
  }' "$out"
}

for workload in $workloads; do
  : > "$out"
  i=0
  while [ "$i" -lt "$pairs" ]; do
    seed=$((7 + i))
    if [ $((i % 2)) -eq 0 ]; then
      run "$parent" parent "$seed"; run "$change" change "$seed"
    else
      run "$change" change "$seed"; run "$parent" parent "$seed"
    fi
    i=$((i + 1))
  done

  echo "# $workload: change (working tree) vs parent $(git -C "$change" rev-parse --short "$rev"), $pairs pairs x ${seconds}s, nproc $(nproc)"
  summarize
done
