//! Open-loop arrival-rate sweep of the gateway's batched vs unbatched
//! invocation queues (virtual time; fully deterministic).
//!
//! Usage: `gateway [--smoke] [--check <archived.json>]`, as documented on
//! [`bf_bench::Ladder::run_cli`]. The smoke rates run the same virtual
//! duration, so their rows compare directly to the archive. Every run
//! re-asserts that batched peak throughput strictly beats unbatched.

fn main() -> std::process::ExitCode {
    bf_bench::GATEWAY.run_cli()
}
