#!/usr/bin/env bash
# Documentation gate:
#
#  1. `cargo doc --no-deps` must build warnings-clean (broken intra-doc
#     links, missing docs on deny-listed crates, bad code fences);
#  2. every crate must open with crate-level `//!` documentation;
#  3. every binary / script named in EXPERIMENTS.md must exist, so the
#     figure-to-artifact map cannot silently rot.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo doc (warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

echo "== crate-level rustdoc present"
for lib in crates/*/src/lib.rs; do
  head -1 "${lib}" | grep -q '^//!' \
    || { echo "missing crate-level docs: ${lib}"; exit 1; }
done

echo "== EXPERIMENTS.md references resolve"
if [[ -f EXPERIMENTS.md ]]; then
  # Backticked references like `figure08`, `robustness`, `gaia sweep`,
  # `scripts/reproduce_all.sh` must point at real targets.
  grep -oE '`(figure[0-9]+|table1|ablations|sensitivity|robustness|obs_overhead|ext_[a-z_]+)`' EXPERIMENTS.md \
    | tr -d '`' | sort -u | while read -r bin; do
      [[ -f "crates/bench/src/bin/${bin}.rs" ]] \
        || { echo "EXPERIMENTS.md names missing binary: ${bin}"; exit 1; }
    done
  grep -oE 'scripts/[a-z_]+\.sh' EXPERIMENTS.md | sort -u | while read -r sh; do
    [[ -x "${sh}" ]] || { echo "EXPERIMENTS.md names missing script: ${sh}"; exit 1; }
  done
else
  echo "EXPERIMENTS.md not found" && exit 1
fi

echo "docs gate passed"
