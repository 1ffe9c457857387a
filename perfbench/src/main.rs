#![forbid(unsafe_code)]

//! # perfbench — wall-clock benchmark of the BlastFunction stack
//!
//! Drives the real threaded stack from outside, times only calls into each
//! layer's public functions, checks every output, and prints every metric
//! by name with its unit. See `README.md` next to this file for the
//! workloads and the layer → metric → workload map.
//!
//! ```text
//! perfbench --workload <rtt-small|invoke-shared|placement-churn>
//!           --seed <n> --seconds <s> --trace <0|1>
//!           [--requests <n>]
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! Untraced runs (`--trace 0`) report the end-to-end metrics; traced runs
//! report the per-layer ones. Exit code 0 only when every output was
//! correct; 2 on a usage error; 1 on a failed run; 3 when the system under
//! test stopped making progress.

mod gen;
mod harness;
mod invoke;
mod meta;
mod placement;
mod probes;
mod rtt;
mod stack;
mod trace;

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Duration;

use harness::{drive, with_watchdog, Opts, Outcome};

/// Longest a run may go without progress before it is declared stuck.
const STALL_LIMIT: Duration = Duration::from_secs(30);

const WORKLOADS: [&str; 3] = ["rtt-small", "invoke-shared", "placement-churn"];

fn usage() -> String {
    format!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> \
         [--requests <n>]",
        WORKLOADS.join("|")
    )
}

fn value<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("bad value {value:?} for {flag}"))
}

fn parse(args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts {
        workload: String::new(),
        seed: 0,
        seconds: 0.0,
        trace: false,
        requests: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let v = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => opts.workload = v.clone(),
            "--seed" => opts.seed = value(flag, v)?,
            "--seconds" => opts.seconds = value(flag, v)?,
            "--trace" => opts.trace = value::<u8>(flag, v)? == 1,
            "--requests" => opts.requests = Some(value(flag, v)?),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if !WORKLOADS.contains(&opts.workload.as_str()) {
        return Err(format!("unknown workload {:?}", opts.workload));
    }
    if opts.requests.is_none() && !(opts.seconds > 0.0 && opts.seconds.is_finite()) {
        return Err("--seconds must be positive".to_string());
    }
    Ok(opts)
}

fn run(opts: &Opts) -> Result<Outcome, String> {
    match opts.workload.as_str() {
        "rtt-small" => drive::<rtt::RttSmall>(opts),
        "invoke-shared" => drive::<invoke::InvokeShared>(opts),
        "placement-churn" => drive::<placement::PlacementChurn>(opts),
        other => Err(format!("unknown workload {other:?}")),
    }
}

/// Formats a metric value with all its digits (JSON has no NaN or ∞).
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

/// The run's record: metadata, every metric, the result line.
fn render(opts: &Opts, out: &Outcome, correct: bool) -> (String, String) {
    let meta = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"nproc\": {}, \
         \"profile\": \"{}\", \"commit\": \"{}\", \"inputs_digest\": \"{:016x}\"}}",
        opts.workload,
        opts.seed,
        opts.seconds,
        u8::from(opts.trace),
        meta::nproc(),
        meta::profile(),
        meta::commit(),
        out.inputs_digest
    );
    let mut metrics = String::new();
    for (i, (name, value, unit)) in out.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            metrics,
            "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            number(*value)
        );
    }
    let result = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        out.attempted, out.failed
    );
    (meta, result)
}

/// Writes the run record (and the traced phase's spans) under `out/` in
/// the benchmark's directory.
fn save(opts: &Opts, meta: &str, result: &str, out: &Outcome) -> Result<(), String> {
    let dir = meta::package_dir().join("out");
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let stem = format!(
        "{}-seed{}-trace{}",
        opts.workload,
        opts.seed,
        u8::from(opts.trace)
    );
    std::fs::write(
        dir.join(format!("{stem}.json")),
        format!("{{\"meta\": {meta}, \"result\": {result}}}\n"),
    )
    .map_err(|e| e.to_string())?;
    if opts.trace {
        trace::write_csv(
            &dir.join(format!("{}.spans.csv", opts.workload)),
            &out.spans,
        )
        .map_err(|e| e.to_string())?;
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let outcome = match with_watchdog(STALL_LIMIT, || run(&opts)) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", opts.workload);
            return ExitCode::from(1);
        }
    };
    let correct = outcome.failed == 0 && outcome.attempted > 0;
    let (meta, result) = render(&opts, &outcome, correct);
    println!("meta {meta}");
    for note in &outcome.notes {
        println!("note {note}");
    }
    for (name, value, unit) in &outcome.metrics {
        println!("metric {name} {} {unit}", number(*value));
    }
    if let Err(e) = save(&opts, &meta, &result, &outcome) {
        eprintln!("perfbench: writing the run record failed: {e}");
        return ExitCode::from(1);
    }
    println!("{result}");
    if correct {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "perfbench: {} of {} requests failed or returned a wrong output",
            outcome.failed, outcome.attempted
        );
        ExitCode::from(1)
    }
}
