#!/usr/bin/env bash
# Golden gate for the committed figure and extension outputs: regenerates
# every deterministic target listed in scripts/results_targets.sh into a
# temporary directory and compares each byte for byte with
# results/<target>.txt. It never writes results/.
#
# Runs at the default (full) scale; GAIA_JOBS is ignored because the
# committed outputs are full-scale. WORKERS sets the sweep pool size
# (default: nproc); outputs are byte-identical across worker counts.
set -euo pipefail
cd "$(dirname "$0")/.."
unset GAIA_JOBS

WORKERS="${WORKERS:-$(nproc 2>/dev/null || echo 1)}"

cargo build --release -p bench

source scripts/results_targets.sh
out="$(mktemp -d)"
trap 'rm -rf "$out"' EXIT

failed=()
for target in "${targets[@]}"; do
  GAIA_WORKERS="${WORKERS}" ./target/release/"${target}" > "${out}/${target}.txt"
  if cmp -s "${out}/${target}.txt" "results/${target}.txt"; then
    echo "ok    ${target}"
  else
    echo "DIFF  ${target}"
    diff "results/${target}.txt" "${out}/${target}.txt" | head -n 20 || true
    failed+=("${target}")
  fi
done

if ((${#failed[@]})); then
  echo "check_results: ${#failed[@]} of ${#targets[@]} outputs differ from results/: ${failed[*]}" >&2
  exit 1
fi
echo "check_results: all ${#targets[@]} outputs match results/"
