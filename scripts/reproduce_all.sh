#!/usr/bin/env bash
# Regenerates every paper table/figure plus the extension experiments
# into results/. Full scale (100k-job year traces) takes a few minutes in
# release mode; set GAIA_JOBS=20000 for a quick pass.
#
# Figure binaries that sweep grids (figure13, figure15, sensitivity,
# ablations) run on the gaia-sweep worker pool; WORKERS controls the
# pool size (default: machine parallelism via nproc).
set -euo pipefail
cd "$(dirname "$0")/.."

WORKERS="${WORKERS:-$(nproc 2>/dev/null || echo 1)}"

cargo build --release -p bench -p gaia-cli

mkdir -p results
targets=(
  figure01 figure02 figure03 figure04 figure05 figure06 figure07 table1
  figure08 figure09 figure10 figure11 figure12 figure13 figure14 figure15
  figure16 figure17 figure18 figure19 figure20
  ablations sensitivity robustness policy_space
  ext_suspend_resume ext_carbon_tax ext_checkpointing ext_overheads
  ext_spatial ext_price ext_capacity_cap ext_multiqueue
)
for target in "${targets[@]}"; do
  echo "== ${target} (workers: ${WORKERS})"
  GAIA_WORKERS="${WORKERS}" ./target/release/"${target}" > "results/${target}.txt"
done

# Timing bench: the reference 24-scenario grid (4 policies x 3 regions
# x 2 seeds), serial vs parallel, at year scale so per-cell work
# dominates thread overhead. The serial/parallel wall-clocks and speedup
# land in the run manifest (results/sweep-bench/manifest.json); the
# CSV/JSON artifacts are byte-identical across worker counts by
# construction.
echo "== sweep-bench (1 vs ${WORKERS} workers)"
./target/release/gaia sweep \
  --policies nowait,lowest-slot,lowest-window,carbon-time \
  --regions sa-au,ca-us,on-ca --seeds 42,43 \
  --scale year --jobs "${GAIA_JOBS:-100000}" \
  --workers "${WORKERS}" --bench --no-progress \
  --out results --name sweep-bench > results/sweep-bench.txt

# Tracing-overhead gate: the NullSink instrumentation path must stay
# within 2% of the untraced simulation (results/obs_overhead.txt).
echo "== obs_overhead (NullSink budget 2%)"
./target/release/obs_overhead > results/obs_overhead.txt

echo "all outputs written to results/"
