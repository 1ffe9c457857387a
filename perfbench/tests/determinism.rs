//! The benchmark's own determinism: two runs at one seed do identical
//! deterministic work, and another seed generates other inputs. Also
//! checks that `invoke-shared`'s cache mix does not change once a run
//! outlasts one period of its request sequence.
//!
//! Each workload runs with a fixed request count (`--requests`) instead of
//! a time budget, so the op sequence is a pure function of the seed. The
//! work counters a run reports must then repeat exactly; wall-clock
//! figures are never compared.

use std::collections::BTreeMap;
use std::process::Command;

/// Counters that must repeat exactly between runs at one seed.
const PINNED: [&str; 15] = [
    "rpc.copied_bytes_per_request",
    "rpc.copy_ops_per_request",
    "rpc.wire_payload_bytes_per_request",
    "cache.hit_ratio",
    "cache.evictions_per_request",
    "cache.nack_resends_per_request",
    "cache.bytes_saved_per_request",
    "devmgr.ops_per_request",
    "devmgr.tasks_per_request",
    "registry.outcome.configured",
    "registry.outcome.warm",
    "registry.outcome.cold",
    "registry.displaced_per_placement",
    "cluster.watch_deliveries_per_request",
    "modelled_latency_p50",
];

struct Run {
    metrics: BTreeMap<String, String>,
    meta: String,
    correct: bool,
}

fn run(workload: &str, seed: u64, requests: u64) -> Run {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--requests", &requests.to_string(), "--trace", "1"])
        .output()
        .expect("the benchmark binary runs");
    assert!(
        out.status.success(),
        "{workload} seed {seed} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let mut metrics = BTreeMap::new();
    let mut meta = String::new();
    for line in stdout.lines() {
        if let Some(rest) = line.strip_prefix("metric ") {
            let mut parts = rest.split(' ');
            let (Some(name), Some(value)) = (parts.next(), parts.next()) else {
                panic!("malformed metric line {line:?}");
            };
            metrics.insert(name.to_string(), value.to_string());
        } else if let Some(rest) = line.strip_prefix("meta ") {
            meta = rest.to_string();
        }
    }
    let result = stdout.lines().last().unwrap_or_default();
    Run {
        metrics,
        meta,
        correct: result.starts_with("{\"correct\": true,"),
    }
}

/// The `"key": "value"` string field `key` of the meta line.
fn meta_field(meta: &str, key: &str) -> String {
    let tag = format!("\"{key}\": \"");
    let start = meta
        .find(&tag)
        .map(|i| i + tag.len())
        .expect("field present");
    meta[start..]
        .split('"')
        .next()
        .unwrap_or_default()
        .to_string()
}

fn check(workload: &str, requests: u64) {
    let a = run(workload, 7, requests);
    let b = run(workload, 7, requests);
    let c = run(workload, 8, requests);
    for r in [&a, &b, &c] {
        assert!(r.correct, "{workload}: a run reported wrong outputs");
    }
    for key in PINNED {
        assert_eq!(
            a.metrics.get(key),
            b.metrics.get(key),
            "{workload}: {key} differs between two runs at one seed"
        );
    }
    for key in ["seed", "nproc", "profile", "commit"] {
        assert!(a.meta.contains(&format!("\"{key}\":")), "meta lacks {key}");
    }
    assert_eq!(
        meta_field(&a.meta, "inputs_digest"),
        meta_field(&b.meta, "inputs_digest"),
        "{workload}: one seed generated different inputs"
    );
    assert_ne!(
        meta_field(&a.meta, "inputs_digest"),
        meta_field(&c.meta, "inputs_digest"),
        "{workload}: another seed generated the same inputs"
    );
}

#[test]
fn rtt_small_is_deterministic_per_seed() {
    check("rtt-small", 300);
}

#[test]
fn invoke_shared_is_deterministic_per_seed() {
    check("invoke-shared", 40);
}

#[test]
fn placement_churn_is_deterministic_per_seed() {
    check("placement-churn", 200);
}

/// A `B` matrix must age out of the client's digest tracker before its
/// slot comes round again. A stale tracker entry would send a digest the
/// manager no longer holds: one `CacheMiss` NACK and inline resend per
/// `mm` request, +0.5 per request with two equal tenants. At 1200
/// requests per phase the traced phase covers `mm` requests 1240..2440,
/// across the end of the first 2048-request period.
#[test]
fn invoke_shared_cache_mix_holds_past_one_period() {
    let short = run("invoke-shared", 5, 100);
    let long = run("invoke-shared", 5, 1200);
    let nacks = |r: &Run| -> f64 {
        r.metrics["cache.nack_resends_per_request"]
            .parse()
            .expect("numeric metric")
    };
    assert!(short.correct && long.correct);
    assert!(
        nacks(&long) < 0.35 && (nacks(&long) - nacks(&short)).abs() < 0.15,
        "NACK resends per request: {} at 100 requests, {} at 1200",
        nacks(&short),
        nacks(&long)
    );
}
