#!/bin/sh
# Surface report quoted by CHANGES.md: non-test LOC (lines before a file's
# first `#[cfg(test)]`) and exported items (`pub` declarations among those
# lines) over crates/ shims/ src/ examples/, per crate and in total.
# Test-only files (`proptests.rs`, `tests/`) are skipped. No arguments.
set -eu
cd "$(dirname "$0")/.."
find crates shims src examples -name '*.rs' ! -name proptests.rs ! -path '*/tests/*' |
  sort | xargs awk '
    FNR == 1 {
      test = 0
      n = split(FILENAME, p, "/")
      unit = (n > 2 && (p[1] == "crates" || p[1] == "shims")) ? p[1] "/" p[2] : p[1]
    }
    /#\[cfg\(test\)\]/ { test = 1 }
    test { next }
    { loc[unit]++; total_loc++ }
    /^[[:space:]]*pub (fn|struct|enum|trait|const|type|static|mod|use|unsafe fn|const fn) / {
      items[unit]++; total_items++
    }
    END {
      for (u in loc) printf "%-20s %6d LOC %4d items\n", u, loc[u], items[u] | "sort"
      close("sort")
      printf "non-test LOC   %d\nexported items %d\n", total_loc, total_items
    }'
