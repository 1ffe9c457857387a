#!/usr/bin/env bash
# Tier-1 gate: formatting, release build, full test suite, conformance.
# CI runs exactly this script; run it locally before pushing.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --all -- --check

# Workspace lints are deny-level for clippy::unwrap_used (tests exempt via
# clippy.toml); the full-target pass keeps benches and examples honest too.
echo "==> cargo clippy"
cargo clippy -q --workspace --all-targets

echo "==> cargo build --release"
cargo build --release --workspace

echo "==> cargo test"
cargo test -q --workspace

# Transport/event-loop crates again, serialized: surfaces ordering and
# shutdown races that only reproduce without inter-test parallelism.
echo "==> cargo test (transport crates, single-threaded)"
cargo test -q -p bf-rpc -p bf-devmgr -p bf-remote -- --test-threads=1

# Conformance + interprocedural flow + trust-boundary taint passes plus
# the wire-schema drift gate, all gated on the checked-in baseline:
# pre-existing accepted findings don't block, NEW findings fail (exit 1)
# with call-chain witnesses (for taint: the wire-source → sink flow);
# stale baseline entries only warn. A renumbered/removed wire tag, or a
# new tag without a regenerated wire-schema.json, fails here too. The
# JSON report is kept as a CI artifact.
echo "==> bf-lint (baseline-gated, report at target/lint-report.json)"
mkdir -p target
cargo run -q --release -p bf-lint -- --json | tee target/lint-report.json

# Deterministic schedule exploration: the bounded transport, poller,
# device-manager event loop, shm, and device-memory cores under the bf-race
# model scheduler. --nocapture surfaces the explored-schedule count per
# model so CI logs show the interleaving coverage each run bought.
echo "==> bf-race model suite (deterministic schedule exploration)"
cargo test -q -p bf-race --features model -- --nocapture

# Datapath copy-accounting smoke: the small-size ladder must reproduce the
# archived per-round-trip copy counts exactly (wall-clock is informational;
# only the deterministic copy fields are compared).
echo "==> datapath bench (smoke + archive check)"
cargo run -q --release -p bf-bench --bin datapath -- --smoke --check experiments/BENCH_datapath.json

# Gateway batching smoke: the open-loop sweep subset must reproduce the
# archived deterministic rows exactly, and batched peak throughput must
# stay strictly above unbatched (the headline batching win).
echo "==> gateway bench (smoke + archive check)"
cargo run -q --release -p bf-bench --bin gateway -- --smoke --check experiments/BENCH_gateway.json

# Production-day scale smoke: the small ladder point (100 nodes / 1k
# functions, full fault battery) must reproduce the archived counters and
# the FNV-1a trace digest exactly — the deterministic-replay certificate
# for the control-plane hot paths (ready-list poller, sharded metrics,
# coalesced watch delivery).
echo "==> scale bench (smoke + archive check)"
cargo run -q --release -p bf-bench --bin scale -- --smoke --check experiments/BENCH_scale.json

# Payload-cache smoke: the hot + churn points must reproduce the archived
# wire-byte/hit/miss/eviction accounting exactly, and the hot-set
# wire-bytes-per-request reduction must stay at or above the 5x floor.
echo "==> cache bench (smoke + archive check)"
cargo run -q --release -p bf-bench --bin cache -- --smoke --check experiments/BENCH_cache.json

# Federation smoke: both 100-node points (1 and 16 shards) must reproduce
# the archived placement/outcome/contention counters and trace digests
# exactly, keep the allocation-quality floor (configured+warm share of
# placements), and keep the 16-shard max per-lock span at least 4x below
# the single-registry baseline.
echo "==> federation bench (smoke + archive check)"
cargo run -q --release -p bf-bench --bin federation -- --smoke --check experiments/BENCH_federation.json

# Wall-clock benchmark self-tests: perfbench is a package of its own (see
# perfbench/README.md); its tests run each workload at a fixed request
# count and require identical work counters across same-seed runs and
# different inputs across seeds.
echo "==> perfbench determinism tests"
cargo test -q --release --offline --manifest-path perfbench/Cargo.toml

# Virtual-time conformance: no change may move the paper's Fig. 4
# numbers — regenerate all three panels and require byte-identical JSON.
echo "==> fig4a/b/c virtual-time check"
cargo run -q --release -p bf-bench --bin fig4a > /dev/null
cmp target/experiments/fig4a.json experiments/fig4a.json
cargo run -q --release -p bf-bench --bin fig4b > /dev/null
cmp target/experiments/fig4b.json experiments/fig4b.json
cargo run -q --release -p bf-bench --bin fig4c > /dev/null
cmp target/experiments/fig4c.json experiments/fig4c.json

echo "ci.sh: all gates passed"
