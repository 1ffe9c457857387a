//! The production-day scale sweep: the trace-driven control-plane
//! benchmark over the [`bf_sim::run_scale`] harness.
//!
//! Three ladder points grow the cluster from the CI smoke size to the
//! full 1000-node / 10k-function production day, all with the complete
//! fault battery (node losses, slow consumers, a shed storm and a
//! stalled-watcher window). Every row is deterministic down to the
//! trace digest, so the whole row set is CI-diffable against the
//! archived `experiments/BENCH_scale.json` — the digest column doubles
//! as the byte-identical-replay certificate for each point.

use serde::Serialize;

use bf_sim::{run_scale, ScaleConfig};

use crate::archive::Ladder;

/// Root seed of every ladder point.
pub const SCALE_SEED: u64 = 42;

/// Ladder labels in sweep order.
pub const SCALE_LADDER: [&str; 3] = ["small", "medium", "large"];

/// The CI smoke subset: the small point only, which still runs 100
/// nodes / 1k functions with the full fault battery.
pub const SCALE_SMOKE: [&str; 1] = ["small"];

/// The scale ladder, trace digest included in the pins.
pub const SCALE: Ladder<&str, ScaleBenchRow> = Ladder {
    name: "scale",
    title: "Scale — production-day sweep (diurnal Zipf traffic, full fault battery)",
    ladder: &SCALE_LADDER,
    smoke: &SCALE_SMOKE,
    rows: scale_rows,
    render: render_scale,
    invariants: check_scale_invariants,
    key: &["label"],
    pinned: &[
        "arrivals",
        "processed",
        "shed",
        "failed_inflight",
        "node_losses",
        "rerouted",
        "force_disconnects",
        "watch_events",
        "watch_seen",
        "metrics_series",
        "trace_digest",
    ],
};

/// Resolves a ladder label to its configuration. The `small` point is
/// [`ScaleConfig::smoke`] and the `large` point is
/// [`ScaleConfig::production_day`]; `medium` sits between them.
///
/// # Panics
///
/// Panics on an unknown label (the ladder is a closed set).
pub fn scale_config(label: &str) -> ScaleConfig {
    match label {
        "small" => ScaleConfig::smoke(SCALE_SEED),
        "medium" => ScaleConfig::production_day(SCALE_SEED)
            .with_nodes(300)
            .with_functions(3_000)
            .with_sessions(3_000)
            .with_day(bf_model::VirtualDuration::from_secs(30))
            .with_base_rps(400.0),
        "large" => ScaleConfig::production_day(SCALE_SEED),
        // bf-lint: allow(panic): the ladder is a closed set; an unknown
        // label is a harness bug, never a runtime condition.
        other => panic!("unknown scale ladder point {other:?}"),
    }
}

/// One measured ladder point. Every field is deterministic.
#[derive(Debug, Clone, Serialize)]
#[cfg_attr(test, derive(Default))]
pub struct ScaleBenchRow {
    /// Ladder label.
    pub label: String,
    /// Cluster size.
    pub nodes: u64,
    /// Function catalog size.
    pub functions: u64,
    /// Client sessions.
    pub sessions: u64,
    /// Arrivals inside the day.
    pub arrivals: u64,
    /// Completed requests.
    pub processed: u64,
    /// Requests shed at full node queues.
    pub shed: u64,
    /// Requests lost in flight to node deaths.
    pub failed_inflight: u64,
    /// Node-death events.
    pub node_losses: u64,
    /// Instances migrated off dead nodes.
    pub rerouted: u64,
    /// Slow-consumer forced disconnects.
    pub force_disconnects: u64,
    /// Payload-cache hits across admitted requests.
    pub cache_hits: u64,
    /// Payload-cache misses across admitted requests.
    pub cache_misses: u64,
    /// Payload-cache hit ratio over the day.
    pub cache_hit_ratio: f64,
    /// Wire bytes the payload cache elided.
    pub cache_bytes_saved: u64,
    /// Median latency (ms).
    pub latency_p50_ms: f64,
    /// 99th-percentile latency (ms).
    pub latency_p99_ms: f64,
    /// Completed poller polls.
    pub poller_polls: u64,
    /// Slots examined across all poller scans.
    pub poller_slots_scanned: u64,
    /// Watch events generated.
    pub watch_events: u64,
    /// Watch channel deliveries performed.
    pub watch_deliveries: u64,
    /// Watch events consumed by the harness.
    pub watch_seen: u64,
    /// Metric series registered.
    pub metrics_series: u64,
    /// Registry shards.
    pub metrics_shards: u64,
    /// Series behind the most loaded registry shard.
    pub metrics_max_shard: u64,
    /// The byte-identical-replay certificate.
    pub trace_digest: String,
}

fn measure_one(label: &str) -> ScaleBenchRow {
    let r = run_scale(&scale_config(label));
    ScaleBenchRow {
        label: label.to_string(),
        nodes: r.nodes,
        functions: r.functions,
        sessions: r.sessions,
        arrivals: r.arrivals,
        processed: r.processed,
        shed: r.shed,
        failed_inflight: r.failed_inflight,
        node_losses: r.node_losses,
        rerouted: r.rerouted,
        force_disconnects: r.force_disconnects,
        cache_hits: r.cache_hits,
        cache_misses: r.cache_misses,
        cache_hit_ratio: r.cache_hit_ratio,
        cache_bytes_saved: r.cache_bytes_saved,
        latency_p50_ms: r.latency_p50_ms,
        latency_p99_ms: r.latency_p99_ms,
        poller_polls: r.poller_polls,
        poller_slots_scanned: r.poller_slots_scanned,
        watch_events: r.watch_events,
        watch_deliveries: r.watch_deliveries,
        watch_seen: r.watch_seen,
        metrics_series: r.metrics_series,
        metrics_shards: r.metrics_shards,
        metrics_max_shard: r.metrics_max_shard,
        trace_digest: r.trace_digest,
    }
}

/// Runs the sweep over the given ladder labels.
pub fn scale_rows(labels: &[&str]) -> Vec<ScaleBenchRow> {
    labels.iter().map(|l| measure_one(l)).collect()
}

/// Checks the harness invariants every row must satisfy regardless of
/// the archive: request conservation and fault-battery visibility.
///
/// # Errors
///
/// Returns a description of the first violated invariant.
pub fn check_scale_invariants(rows: &[ScaleBenchRow]) -> Result<(), String> {
    for r in rows {
        if r.arrivals != r.processed + r.shed + r.failed_inflight {
            return Err(format!(
                "{}: arrivals {} != processed {} + shed {} + failed_inflight {}",
                r.label, r.arrivals, r.processed, r.shed, r.failed_inflight
            ));
        }
        if r.node_losses == 0 || r.rerouted == 0 {
            return Err(format!(
                "{}: fault battery invisible (node_losses {}, rerouted {})",
                r.label, r.node_losses, r.rerouted
            ));
        }
        if r.watch_seen < r.functions {
            return Err(format!(
                "{}: watchers missed the deploy storm ({} seen, {} functions)",
                r.label, r.watch_seen, r.functions
            ));
        }
    }
    Ok(())
}

/// Renders the sweep as an aligned text table.
pub fn render_scale(title: &str, rows: &[ScaleBenchRow]) -> String {
    let mut out = format!("{title}\n");
    out.push_str(&format!(
        "{:<8} {:>6} {:>6} {:>9} {:>9} {:>7} {:>7} {:>6} {:>6} {:>9} {:>13} {:>9} {:>10} {:>8} {:>17}\n",
        "point",
        "nodes",
        "fns",
        "arrivals",
        "processed",
        "shed",
        "failed",
        "p99",
        "hit%",
        "polls",
        "slots_scanned",
        "watch_ev",
        "deliveries",
        "maxshard",
        "digest"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:<8} {:>6} {:>6} {:>9} {:>9} {:>7} {:>7} {:>4.1}ms {:>5.1}% {:>9} {:>13} {:>9} {:>10} {:>8} {:>17}\n",
            r.label,
            r.nodes,
            r.functions,
            r.arrivals,
            r.processed,
            r.shed,
            r.failed_inflight,
            r.latency_p99_ms,
            r.cache_hit_ratio * 100.0,
            r.poller_polls,
            r.poller_slots_scanned,
            r.watch_events,
            r.watch_deliveries,
            r.metrics_max_shard,
            r.trace_digest,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_labels_are_a_subset_of_the_ladder() {
        for label in SCALE_SMOKE {
            assert!(SCALE_LADDER.contains(&label));
        }
    }

    #[test]
    fn every_ladder_label_resolves() {
        for label in SCALE_LADDER {
            let cfg = scale_config(label);
            assert!(cfg.nodes > 0);
        }
    }

    #[test]
    fn smoke_row_satisfies_the_invariants_and_round_trips() {
        let rows = scale_rows(&SCALE_SMOKE);
        assert!(check_scale_invariants(&rows).is_ok(), "{rows:?}");
        // The measured rows, not just hand-made ones, pass the shared gate.
        let json = serde_json::to_string_pretty(&rows).expect("serialize");
        let doc = serde_json::from_str(&json).expect("parse");
        assert!(SCALE.check(&rows, &doc).is_empty());
    }
}
