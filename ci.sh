#!/usr/bin/env bash
# Local CI gate: formatting, lints, and the full test suite.
# All cargo invocations are offline — every dependency is vendored.
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo fmt --check"
cargo fmt --check

echo "== cargo clippy --workspace -- -D warnings"
cargo clippy -q --offline --workspace --all-targets -- -D warnings

# Library code on the adaptation path must not panic on external input or
# training failures: unwrap/expect are denied in the warper, query, and
# storage crates' libraries (tests, benches, and binaries are exempt).
echo "== cargo clippy --lib (no unwrap/expect in library code)"
cargo clippy -q --offline --no-deps --lib \
    -p warper-core -p warper-query -p warper-storage -p warper-durable \
    -- -D warnings -D clippy::unwrap-used -D clippy::expect-used

# Durability discipline: every file operation in the warper, serve, and
# durable libraries must go through the `Vfs` trait so the failpoint/power-cut
# harness sees it. Direct std::fs use is allowed only in the Vfs
# implementation module itself.
echo "== lint: no direct std::fs outside the Vfs module"
if grep -rn "std::fs" crates/warper/src crates/serve/src crates/durable/src \
    | grep -v "^crates/durable/src/vfs.rs:"; then
    echo "direct std::fs use found outside crates/durable/src/vfs.rs" >&2
    exit 1
fi

# Transport discipline: raw sockets are confined to the TCP transport
# module — everything else speaks through the `ByteStream` seam so the
# link-fault injector (`FailpointNet`) sees every byte. Direct std::net
# use anywhere else bypasses fault injection.
echo "== lint: no direct std::net outside the TCP transport module"
if grep -rn "std::net" crates/warper/src crates/serve/src crates/durable/src \
    | grep -v "^crates/serve/src/net/tcp.rs:"; then
    echo "direct std::net use found outside crates/serve/src/net/tcp.rs" >&2
    exit 1
fi

# Product/experiment boundary: the experiment harnesses (the paper benches,
# the query-optimizer simulator, the join-CE study) live in warper-bench, and
# nothing outside it may depend on them. The root package's tests may, as a
# dev-dependency, which never links into the library or the CLI.
echo "== lint: only crates/bench names warper-bench"
if grep -rlw --include=Cargo.toml --exclude-dir=target --exclude-dir=.bench_build \
    "warper-bench" . | grep -v "^./crates/bench/Cargo.toml$\|^./Cargo.toml$"; then
    echo "a manifest other than crates/bench/Cargo.toml names warper-bench" >&2
    exit 1
fi
if awk '/^\[/ { section = $0 } /^warper-bench/ && section != "[dev-dependencies]"' \
    Cargo.toml | grep .; then
    echo "the root Cargo.toml names warper-bench outside [dev-dependencies]" >&2
    exit 1
fi

# Benches are excluded from `cargo test` runs; make sure the perf harnesses
# (annotator, gemm, figure/table benches) at least compile.
echo "== cargo check --benches"
cargo check -q --offline --benches -p warper-bench

# The lifecycle benchmark (benchmark/, its own workspace) is built by the
# pipeline from whatever crates/serve exports; nothing above compiles it, so
# an API rename would first be noticed there. Check it here (reads
# benchmark/, writes only its ignored target dir).
echo "== cargo check benchmark/ (the serving API it is written against)"
cargo check -q --offline --release --manifest-path benchmark/Cargo.toml

# One serving core: crates/serve + the CLI were cut to one core, one adapt
# step, one replay harness (PR 14: 7 969 lines), then to one owner each for
# shard bring-up, the replica-directory protocol and the load generator
# (7 771), then lost the CLI's `gaps` command and its copy of the Δ-speedup
# rule (7 742). Keep the saving from silently eroding — raise this number
# only with a reason in the commit.
echo "== lint: serve + CLI line budget"
serve_lines=$(find crates/serve/src src/bin -name '*.rs' | xargs cat | wc -l)
if [ "$serve_lines" -gt 7750 ]; then
    echo "crates/serve/src + src/bin hold $serve_lines lines, budget is 7750" >&2
    exit 1
fi

echo "== cargo test -q"
cargo test -q --offline --workspace

# The block-sketch kernel is shifts, `leading_zeros` and `as` casts, where
# debug and release differ on overflow: run the storage suite (kernel == fold
# differential proptest included) optimized too.
echo "== cargo test -q --release -p warper-storage"
cargo test -q --offline --release -p warper-storage

# Chaos/property suites: fault injection and snapshot corruption. With the
# feature on, this one leg also builds and runs the three sweeps:
# * crash-recovery proptests (warper-durable `crash_recovery`): kill the
#   store at every schedulable failpoint (power cut, torn write, short
#   write, op error) and prove every acknowledged label survives recovery;
# * replica-install sweep (warper-durable `replica_install`): the same four
#   faults at every op of a standby installing a shipped sequence, and every
#   label at or below the acknowledged watermark survives;
# * network failover proptests (warper-serve `net_failover`): cut / delay /
#   torn-write / garbage the replication link at every op for every fault
#   kind and prove every replicated-acked label survives failover from the
#   standby's directory, promotion stays gated on a validated checkpoint,
#   and clients get typed errors (never hangs) across link faults.
echo "== cargo test -q --features faults"
cargo test -q --offline --workspace --features faults

# Portable-path kernel equivalence: the workspace builds with
# target-cpu=native (.cargo/config.toml), so the SIMD tiers are compiled
# in everywhere above. Re-run the kernel-equivalence and quantization-error
# proptests with RUSTFLAGS cleared — no target-cpu=native, so the
# runtime-dispatch fallback is what autovectorization-free builds ship —
# in a separate target dir to keep caches apart.
echo "== portable-path proptests (no target-cpu=native)"
RUSTFLAGS="" CARGO_TARGET_DIR=target/portable \
    cargo test -q --offline -p warper-linalg --test gemm32_proptests
RUSTFLAGS="" CARGO_TARGET_DIR=target/portable \
    cargo test -q --offline -p warper-ce --test quant_proptests
# Cross-shard packing must stay bit-identical to isolated serving on the
# portable kernels too (the SIMD path is covered by the workspace run).
RUSTFLAGS="" CARGO_TARGET_DIR=target/portable \
    cargo test -q --offline -p warper-serve --test fleet_proptests
# Sketch merge laws, refresh-equals-rebuild, kernel-equals-fold, zone-map
# mutator domains and HLL error bounds must hold on the portable build too —
# the sketches hash every table value, so a codegen difference here would
# silently skew drift detection fleet-wide.
RUSTFLAGS="" CARGO_TARGET_DIR=target/portable \
    cargo test -q --offline -p warper-storage --test sketch_proptests

# Serving smoke: 1k queries at a fixed seed against the one-shard fleet with
# mid-run drift and background adaptation. --smoke fails the run on any
# served error, any shed at idle load, a p99 above the generous 250 ms
# bound, or an adaptation loop that never ran.
echo "== serve smoke (1k queries, drift + background adaptation)"
cargo run -q --release --offline --bin warper -- serve \
    --queries 1000 --seed 7 --drift-at 500 --smoke

# Fleet smoke: 2k Zipf-skewed queries over 128 shards through the shared
# worker pool. --smoke fails on any error, any admission or deadline shed
# at idle load, or a pack efficiency below 1.0. The replay is run twice
# (and once unpacked) and the FNV checksums must agree: the fleet is
# deterministic run-to-run, and packing never changes a single answer.
echo "== fleet smoke (128 Zipf shards, deterministic, pack-invariant)"
fleet_smoke() {
    cargo run -q --release --offline --bin warper -- serve \
        --shards 128 --queries 2000 --clients 4 --rows 2000 --seed 7 \
        --smoke "$@" | awk '/estimates checksum/ {print $3}'
}
c_packed1=$(fleet_smoke)
c_packed2=$(fleet_smoke)
c_unpacked=$(fleet_smoke --no-pack)
if [ -z "$c_packed1" ] || [ "$c_packed1" != "$c_packed2" ]; then
    echo "fleet replay checksum not deterministic: $c_packed1 vs $c_packed2" >&2
    exit 1
fi
if [ "$c_packed1" != "$c_unpacked" ]; then
    echo "packing changed answers: $c_packed1 packed vs $c_unpacked unpacked" >&2
    exit 1
fi
echo "fleet checksum $c_packed1 (stable across runs and packing modes)"

# Serving benchmark: asserts the >=3x micro-batching speedup on a one-shard
# fleet, the >=4x f32-vs-f64 quantized-serving speedup per GEMM thread (the
# f64 GEMM fans out over the host's cores, the f32 microkernels do not), and
# the no-stall drift/adaptation run, and publishes BENCH_serve.json.
echo "== cargo bench --bench serve (publishes BENCH_serve.json)"
cargo bench -q --offline -p warper-bench --bench serve

# Fleet benchmark: asserts the packed fleet's aggregate qps is >= 2x 128
# independent one-shard fleets under the same Zipf load, and that
# packing grows GEMM batches over the unpacked fleet. Publishes
# BENCH_fleet.json.
echo "== cargo bench --bench fleet (publishes BENCH_fleet.json)"
cargo bench -q --offline -p warper-bench --bench fleet

# Sketch telemetry benchmark: asserts the one-pass block kernel is >= 3x the
# per-value fold it equals (all-distinct column, same process), that
# sketch-backed drift detection is >= 10x faster than the exact canary rescan
# (and that both paths agree the injected drift is real), and that the
# incremental block refresh beats a cold rebuild. Publishes BENCH_sketch.json.
echo "== cargo bench --bench sketch (publishes BENCH_sketch.json)"
cargo bench -q --offline -p warper-bench --bench sketch

echo "CI OK"
