//! Measures host-side copy volume and wall-clock per EnqueueWrite→Read
//! round trip over both BlastFunction transports.
//!
//! Usage: `datapath [--smoke] [--check <archived.json>]`, as documented
//! on [`bf_bench::Ladder::run_cli`]. The full ladder runs 1 KB → 2 GB;
//! `--smoke` runs the sizes ≤ 1 MB.

fn main() -> std::process::ExitCode {
    bf_bench::DATAPATH.run_cli()
}
