#!/usr/bin/env bash
# Documentation gate:
#
#  1. `cargo doc --no-deps` must build warnings-clean (broken intra-doc
#     links, missing docs on deny-listed crates, bad code fences);
#  2. every crate must open with crate-level `//!` documentation;
#  3. every bench binary and script named in EXPERIMENTS.md, README.md
#     and DESIGN.md must exist, so the figure-to-artifact map and the
#     docs cannot silently rot when a binary or script is deleted.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo doc (warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

echo "== crate-level rustdoc present"
for lib in crates/*/src/lib.rs; do
  head -1 "${lib}" | grep -q '^//!' \
    || { echo "missing crate-level docs: ${lib}"; exit 1; }
done

echo "== doc references resolve"
# Bench binaries appear backticked (`figure08`, `ext_spatial`, or any
# `*_bench` / `*_overhead` name) or after `--bin`; placeholders such as
# `--bin figureNN` do not match. Scripts appear as `scripts/<name>.sh`.
for doc in EXPERIMENTS.md README.md DESIGN.md; do
  [[ -f "${doc}" ]] || { echo "${doc} not found"; exit 1; }
  {
    grep -oE '`(figure[0-9]+|table1|ablations|sensitivity|robustness|policy_space|ext_[a-z_]+|[a-z0-9_]+_(bench|overhead))`' "${doc}" | tr -d '`' || true
    grep -oE -- '--bin [a-z0-9_]+\b' "${doc}" | cut -d' ' -f2 || true
  } | sort -u | while read -r bin; do
    [[ -f "crates/bench/src/bin/${bin}.rs" ]] \
      || { echo "${doc} names missing binary: ${bin}"; exit 1; }
  done
  { grep -oE 'scripts/[a-z_]+\.sh' "${doc}" || true; } | sort -u | while read -r sh; do
    [[ -x "${sh}" ]] || { echo "${doc} names missing script: ${sh}"; exit 1; }
  done
done

echo "docs gate passed"
