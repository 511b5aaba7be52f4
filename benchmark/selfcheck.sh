#!/usr/bin/env bash
# Does the benchmark repeat on this machine?
#
# Builds the benchmark, then produces two *interleaved* sets of end-to-end
# runs (A and B alternate, so a host that drifts during the check hits both
# sets alike) and holds them against each other with the bounds in
# BENCHMARK.json. Exits non-zero when a median differs by more than its
# bound or an exact count differs; `compare` then also says how far
# host.calib_mops moved between the sets.
#
#   benchmark/selfcheck.sh [runs-per-workload (default 5)] [--seconds N]
#
# Run from the root of the repository. Takes about
# 2 x runs x 4 workloads x 30 s (20 minutes at the default).
set -euo pipefail

runs=5
seconds=$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' BENCHMARK.json)
while [ $# -gt 0 ]; do
    case "$1" in
        --seconds) seconds=$2; shift 2 ;;
        *) runs=$1; shift ;;
    esac
done
if [ "$runs" -lt 5 ]; then
    echo "selfcheck: at least 5 runs per workload and set" >&2
    exit 2
fi

target=${CARGO_TARGET_DIR:-benchmark/target}
CARGO_TARGET_DIR=$target cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
bin=$target/release/warper-benchmark

out=benchmark/results/selfcheck
rm -rf "$out"
mkdir -p "$out/A" "$out/B"
workloads=$(sed -n 's/.*{"name": "\([a-z_]*\)", "why".*/\1/p' BENCHMARK.json)
for seed in $(seq 1 "$runs"); do
    for w in $workloads; do
        for set in A B; do
            echo "selfcheck: $w seed $seed set $set" >&2
            "$bin" --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0 \
                --out "$out/$set" > "$out/$set/$w-seed$seed.log"
        done
    done
done
"$bin" compare "$out/A" "$out/B"
