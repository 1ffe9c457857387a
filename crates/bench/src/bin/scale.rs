//! The production-day scale sweep: diurnal open-loop traffic with Zipf
//! function popularity over a 1000-node cluster, full fault battery,
//! everything in virtual time and fully deterministic.
//!
//! Usage: `scale [--smoke] [--check <archived.json>]`, as documented on
//! [`bf_bench::Ladder::run_cli`]. The full ladder is small/medium/large;
//! `--smoke` runs the small point. The trace digest is pinned.

fn main() -> std::process::ExitCode {
    bf_bench::SCALE.run_cli()
}
