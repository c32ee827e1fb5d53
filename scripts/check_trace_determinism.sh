#!/usr/bin/env bash
# Trace determinism gate for the reference scenario (the `gaia run`
# defaults: Carbon-Time / SA-AU / Alibaba week-long 1k jobs / seed 42).
#
#  1. runs the traced scenario twice and byte-compares the JSONL streams;
#  2. summarizes the trace with `gaia trace summarize` (which also
#     validates the stream: monotone timestamps, balanced segments);
#  3. diffs the summary against the committed golden file, so any drift
#     in the event schema or the simulation itself fails loudly;
#  4. checks the run's three artifact CSVs (details, aggregate, runtime)
#     and its JSONL trace against committed sha256 digests, so the
#     bytes of every output writer are pinned across commits, not only
#     between two runs of one binary.
#
# Regenerate the goldens after an intentional change with:
#   ./scripts/check_trace_determinism.sh --bless
set -euo pipefail
cd "$(dirname "$0")/.."

GOLDEN=tests/golden/trace_summary.txt
DIGESTS="${PWD}/tests/golden/reference_outputs.sha256"
WORK="$(mktemp -d)"
trap 'rm -rf "${WORK}"' EXIT

cargo build --release -p gaia-cli

echo "== traced reference scenario, run 1 (with artifact CSVs)"
./target/release/gaia run --trace "${WORK}/trace.jsonl" \
  --details "${WORK}/details.csv" \
  --aggregate "${WORK}/aggregate.csv" \
  --runtime "${WORK}/runtime.csv" > /dev/null
echo "== traced reference scenario, run 2"
./target/release/gaia run --trace "${WORK}/b.jsonl" > /dev/null
cmp "${WORK}/trace.jsonl" "${WORK}/b.jsonl"
echo "trace streams are byte-identical ($(wc -l < "${WORK}/trace.jsonl") events)"

echo "== gaia trace summarize"
./target/release/gaia trace summarize "${WORK}/trace.jsonl" > "${WORK}/summary.txt"

if [[ "${1:-}" == "--bless" ]]; then
  mkdir -p "$(dirname "${GOLDEN}")"
  cp "${WORK}/summary.txt" "${GOLDEN}"
  (cd "${WORK}" && sha256sum details.csv aggregate.csv runtime.csv trace.jsonl) > "${DIGESTS}"
  echo "goldens updated: ${GOLDEN}, ${DIGESTS}"
  exit 0
fi

diff -u "${GOLDEN}" "${WORK}/summary.txt"
echo "summary matches the golden file: ${GOLDEN}"

echo "== artifact CSV and trace digests"
(cd "${WORK}" && sha256sum -c "${DIGESTS}")
echo "details/aggregate/runtime CSVs and trace match: ${DIGESTS}"
