#!/usr/bin/env bash
# Documentation gate:
#
#  1. `cargo doc --no-deps` must build warnings-clean (broken intra-doc
#     links, missing docs on deny-listed crates, bad code fences);
#  2. every crate must open with crate-level `//!` documentation;
#  3. every bench binary and script named in EXPERIMENTS.md, README.md
#     and DESIGN.md must exist, so the figure-to-artifact map and the
#     docs cannot silently rot when a binary or script is deleted;
#  4. every backticked `gaia_<crate>::...::Name` in those documents must
#     name a `pub` item (or a `pub use` re-export) under
#     crates/gaia-<crate>/src, so a deleted type cannot stay documented.
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

echo "== crate paths resolve"
# The checked name is the last identifier of the backticked path:
# `gaia_sim::codec::{Writer, Reader}` checks `codec`, and
# `gaia_sim::stagger_capacity(k)` checks `stagger_capacity`.
for doc in EXPERIMENTS.md README.md DESIGN.md; do
  { grep -oE '`gaia_[a-z]+::[A-Za-z0-9_:]+' "${doc}" || true; } | sort -u | while read -r ref; do
    path="${ref#\`}"
    crate="${path%%::*}"
    name="${path%::}"
    name="${name##*::}"
    dir="crates/${crate//_/-}/src"
    [[ -d "${dir}" ]] || { echo "${doc} names missing crate: ${path}"; exit 1; }
    grep -rqE "^\s*pub (const fn|fn|struct|enum|trait|type|const|static|mod) ${name}\b" "${dir}" \
      || grep -rqPzo "\n\s*pub use [^;]*\b${name}\b[^;]*;" "${dir}" \
      || { echo "${doc} names missing item: ${path}"; exit 1; }
  done
done

echo "docs gate passed"
