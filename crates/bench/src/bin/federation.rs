//! The federated control-plane ladder: the production-day placement
//! workload at 1, 4 and 16 registry shards, fully deterministic.
//!
//! Usage: `federation [--smoke] [--check <archived.json>]`, as documented
//! on [`bf_bench::Ladder::run_cli`]. The full ladder adds the 1/4/16-shard
//! production days to the two 100-node smoke points; `--smoke` runs both
//! smoke points, so the 1-vs-16-shard contention gate still runs. The
//! trace digest is pinned.

fn main() -> std::process::ExitCode {
    bf_bench::FEDERATION.run_cli()
}
