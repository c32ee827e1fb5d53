#!/usr/bin/env bash
# Shipped-code size: counts the lines of every `crates/*/src/**/*.rs`
# above the file's first column-0 `#[cfg(test)]` (the whole file when it
# has none), so unit-test modules at the end of a file are left out.
# An indented `#[cfg(test)]` inside production code does not stop the
# count. Prints one line per crate, then the total.
#
# Usage: scripts/shipped_lines.sh
set -euo pipefail
cd "$(dirname "$0")/.."

total=0
for src in crates/*/src; do
  crate="$(basename "$(dirname "${src}")")"
  lines="$(find "${src}" -name '*.rs' -exec awk '
    FNR == 1 { stop = 0 }
    /^#\[cfg\(test\)\]/ { stop = 1 }
    !stop' {} + | wc -l)"
  printf '%-14s %6d\n' "${crate}" "${lines}"
  total=$((total + lines))
done
printf '%-14s %6d\n' total "${total}"
