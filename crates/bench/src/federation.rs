//! The federated control-plane ladder: the placement benchmark over the
//! [`bf_sim::run_federation`] harness.
//!
//! The ladder holds the workload fixed (the production day: 1000 nodes,
//! 10k functions, churn, failures, one join/leave rebalance) and sweeps
//! the shard count — 1, 4, 16 — so the only thing that changes is how
//! the control plane is partitioned. Two smoke points (100 nodes at 1
//! and 16 shards) run the same comparison at CI size, so the contention
//! gate holds in the smoke subset too. Every row is deterministic down
//! to the trace digest and is CI-diffed against the archived
//! `experiments/BENCH_federation.json`.

use serde::Serialize;

use bf_sim::{run_federation, FederationConfig};

use crate::archive::Ladder;

/// Ladder labels in sweep order.
pub const FEDERATION_LADDER: [&str; 5] = ["smoke-1", "smoke-16", "1-shard", "4-shard", "16-shard"];

/// The CI smoke subset: both 100-node points, so the smoke gate still
/// compares 1 shard against 16.
pub const FEDERATION_SMOKE: [&str; 2] = ["smoke-1", "smoke-16"];

/// The federation ladder, trace digest included in the pins.
pub const FEDERATION: Ladder<&str, FederationBenchRow> = Ladder {
    name: "federation",
    title: "Federation — sharded control plane (placement storm, churn, failures, rebalance)",
    ladder: &FEDERATION_LADDER,
    smoke: &FEDERATION_SMOKE,
    rows: federation_rows,
    render: render_federation,
    invariants: check_federation_invariants,
    key: &["label"],
    pinned: &[
        "placed",
        "configured",
        "warm",
        "cold",
        "reconfigurations",
        "migrated",
        "rebalance_moves",
        "max_lock_span",
        "trace_digest",
    ],
};

/// Floor on the fraction of placements that avoid a cold reprogram
/// (landed configured or warm) — the allocation-quality gate.
pub const FEDERATION_QUALITY_FLOOR: f64 = 0.25;

/// Required max-lock-span improvement between the 1-shard baseline and
/// a point with [`FEDERATION_SPAN_RATIO`]x the shards, within one
/// workload size.
pub const FEDERATION_SPAN_DROP: u64 = 4;

/// Shard-count growth that triggers the contention gate (the ladder's
/// 1-shard -> 16-shard comparison).
pub const FEDERATION_SPAN_RATIO: u64 = 16;

/// Resolves a ladder label to its configuration.
///
/// # Panics
///
/// Panics on an unknown label (the ladder is a closed set).
pub fn federation_config(label: &str) -> FederationConfig {
    match label {
        "smoke-1" => FederationConfig::smoke(1),
        "smoke-16" => FederationConfig::smoke(16),
        "1-shard" => FederationConfig::ladder(1),
        "4-shard" => FederationConfig::ladder(4),
        "16-shard" => FederationConfig::ladder(16),
        // bf-lint: allow(panic): the ladder is a closed set; an unknown
        // label is a harness bug, never a runtime condition.
        other => panic!("unknown federation ladder point {other:?}"),
    }
}

/// One measured ladder point. Every field is deterministic.
#[derive(Debug, Clone, Serialize)]
#[cfg_attr(test, derive(Default))]
pub struct FederationBenchRow {
    /// Ladder label.
    pub label: String,
    /// Registry shards.
    pub shards: u64,
    /// Cluster size.
    pub nodes: u64,
    /// Function catalog size.
    pub functions: u64,
    /// Successful placements across all phases.
    pub placed: u64,
    /// Placements onto an already-configured board.
    pub configured: u64,
    /// Placements served from a warm bitstream cache.
    pub warm: u64,
    /// Placements that forced a cold reprogram.
    pub cold: u64,
    /// Board reprogram operations.
    pub reconfigurations: u64,
    /// Reprograms satisfied from a board's warm cache.
    pub warm_reprograms: u64,
    /// Tenants migrated off failed devices.
    pub migrated: u64,
    /// Devices moved by the join+leave rebalance pair.
    pub rebalance_moves: u64,
    /// Max devices+bindings walked under one registry-lock acquisition,
    /// across all shards — the contention headline.
    pub max_lock_span: u64,
    /// Registry-lock acquisitions recorded across all shards.
    pub lock_acquisitions: u64,
    /// The byte-identical-replay certificate.
    pub trace_digest: String,
}

impl FederationBenchRow {
    /// Fraction of placements that avoided a cold reprogram.
    pub fn quality(&self) -> f64 {
        if self.placed == 0 {
            0.0
        } else {
            (self.configured + self.warm) as f64 / self.placed as f64
        }
    }
}

fn measure_one(label: &str) -> FederationBenchRow {
    let r = run_federation(&federation_config(label));
    FederationBenchRow {
        label: label.to_string(),
        shards: r.shards as u64,
        nodes: r.nodes as u64,
        functions: r.functions as u64,
        placed: r.placed,
        configured: r.configured,
        warm: r.warm,
        cold: r.cold,
        reconfigurations: r.reconfigurations,
        warm_reprograms: r.warm_reprograms,
        migrated: r.migrated,
        rebalance_moves: r.rebalance_moves,
        max_lock_span: r.max_lock_span,
        lock_acquisitions: r.lock_acquisitions,
        trace_digest: r.trace_digest,
    }
}

/// Runs the sweep over the given ladder labels.
pub fn federation_rows(labels: &[&str]) -> Vec<FederationBenchRow> {
    labels.iter().map(|l| measure_one(l)).collect()
}

/// Checks the invariants every run must satisfy regardless of the
/// archive: outcome conservation, fault/rebalance visibility, the
/// allocation-quality floor, and the sharded contention drop.
///
/// # Errors
///
/// Returns a description of the first violated invariant.
pub fn check_federation_invariants(rows: &[FederationBenchRow]) -> Result<(), String> {
    for r in rows {
        if r.configured + r.warm + r.cold != r.placed {
            return Err(format!(
                "{}: outcomes {}+{}+{} != placed {}",
                r.label, r.configured, r.warm, r.cold, r.placed
            ));
        }
        if r.placed < r.functions {
            return Err(format!(
                "{}: storm under-placed ({} placed, {} functions)",
                r.label, r.placed, r.functions
            ));
        }
        if r.migrated == 0 {
            return Err(format!(
                "{}: failure battery invisible (0 migrated)",
                r.label
            ));
        }
        if r.rebalance_moves == 0 {
            return Err(format!("{}: join/leave rebalance moved nothing", r.label));
        }
        if r.quality() < FEDERATION_QUALITY_FLOOR {
            return Err(format!(
                "{}: allocation quality {:.1}% below the {:.0}% floor",
                r.label,
                r.quality() * 100.0,
                FEDERATION_QUALITY_FLOOR * 100.0
            ));
        }
    }
    // Contention gate: within one workload size, growing the shard
    // count FEDERATION_SPAN_RATIO times (the 1 -> 16 ladder step) must
    // cut the max per-lock span at least FEDERATION_SPAN_DROP times.
    for base in rows {
        for wide in rows {
            if base.nodes != wide.nodes
                || base.functions != wide.functions
                || wide.shards < base.shards * FEDERATION_SPAN_RATIO
            {
                continue;
            }
            if wide.max_lock_span * FEDERATION_SPAN_DROP > base.max_lock_span {
                return Err(format!(
                    "{} -> {}: max lock span {} -> {} misses the {}x drop",
                    base.label,
                    wide.label,
                    base.max_lock_span,
                    wide.max_lock_span,
                    FEDERATION_SPAN_DROP
                ));
            }
        }
    }
    Ok(())
}

/// Renders the sweep as an aligned text table.
pub fn render_federation(title: &str, rows: &[FederationBenchRow]) -> String {
    let mut out = format!("{title}\n");
    out.push_str(&format!(
        "{:<9} {:>6} {:>6} {:>6} {:>7} {:>7} {:>6} {:>6} {:>8} {:>8} {:>8} {:>9} {:>9} {:>17}\n",
        "point",
        "shards",
        "nodes",
        "fns",
        "placed",
        "config",
        "warm",
        "cold",
        "reprog",
        "migrate",
        "rebal",
        "maxspan",
        "acqs",
        "digest"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:<9} {:>6} {:>6} {:>6} {:>7} {:>7} {:>6} {:>6} {:>8} {:>8} {:>8} {:>9} {:>9} {:>17}\n",
            r.label,
            r.shards,
            r.nodes,
            r.functions,
            r.placed,
            r.configured,
            r.warm,
            r.cold,
            r.reconfigurations,
            r.migrated,
            r.rebalance_moves,
            r.max_lock_span,
            r.lock_acquisitions,
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
        for label in FEDERATION_SMOKE {
            assert!(FEDERATION_LADDER.contains(&label));
        }
    }

    #[test]
    fn every_ladder_label_resolves() {
        for label in FEDERATION_LADDER {
            let cfg = federation_config(label);
            assert!(cfg.shards > 0 && cfg.nodes > 0);
        }
    }

    #[test]
    fn smoke_rows_satisfy_the_invariants_and_round_trip() {
        let rows = federation_rows(&FEDERATION_SMOKE);
        assert!(check_federation_invariants(&rows).is_ok(), "{rows:?}");
        // The measured rows, not just hand-made ones, pass the shared gate.
        let json = serde_json::to_string_pretty(&rows).expect("serialize");
        let doc = serde_json::from_str(&json).expect("parse");
        assert!(FEDERATION.check(&rows, &doc).is_empty());
    }
}
