//! Content-addressed payload-cache sweep: wire bytes per request with
//! and without the Device Manager's cache under Zipf(1.2) payload reuse.
//!
//! Usage: `cache [--smoke] [--check <archived.json>]`, as documented on
//! [`bf_bench::Ladder::run_cli`]. The full ladder is hot/churn/big;
//! `--smoke` runs hot + churn.

fn main() -> std::process::ExitCode {
    bf_bench::CACHE.run_cli()
}
