//! The archive gate and command line shared by the deterministic bench
//! ladders.
//!
//! Each ladder is declared once as a [`Ladder`] value: its artifact name,
//! full and smoke points, how to measure and render rows, an invariant
//! check, and the two field lists the gate reads. `key` matches a fresh
//! row to its archived counterpart; `pinned` names the deterministic
//! fields that must agree. Wall-clock fields are never pinned. [`Ladder::run_cli`] is the whole `--smoke` / `--check` binary.

use std::process::ExitCode;

use serde::Serialize;
use serde_json::Value;

use crate::save_json;

/// Absolute tolerance for float fields, keys and pins alike.
const FLOAT_TOLERANCE: f64 = 1e-6;

/// One bench ladder, declared as data.
pub struct Ladder<P: 'static, R> {
    /// Artifact stem: a full run writes `target/experiments/BENCH_<name>.json`.
    pub name: &'static str,
    /// Table heading printed above the rows.
    pub title: &'static str,
    /// Points of a full run.
    pub ladder: &'static [P],
    /// Points of a `--smoke` run; a subset of `ladder`.
    pub smoke: &'static [P],
    /// Measures the given points.
    pub rows: fn(&[P]) -> Vec<R>,
    /// Renders rows as an aligned text table under a title.
    pub render: fn(&str, &[R]) -> String,
    /// Invariants every run must hold, archive or not.
    pub invariants: fn(&[R]) -> Result<(), String>,
    /// Fields that identify a row across runs.
    pub key: &'static [&'static str],
    /// Deterministic fields that must match the archived row.
    pub pinned: &'static [&'static str],
}

impl<P, R: Serialize> Ladder<P, R> {
    /// Runs the ladder as a binary. With no flags it measures the full
    /// ladder and writes the JSON artifact; `--smoke` measures the smoke
    /// points instead and writes nothing. The invariants run either way.
    /// `--check <archive.json>` then diffs the pinned fields against an
    /// archived run. Exits non-zero on a broken invariant, on drift, or on
    /// an unreadable archive.
    pub fn run_cli(&self) -> ExitCode {
        let args: Vec<String> = std::env::args().skip(1).collect();
        let smoke = args.iter().any(|a| a == "--smoke");
        let check_path = args
            .iter()
            .position(|a| a == "--check")
            .and_then(|i| args.get(i + 1));

        let rows = (self.rows)(if smoke { self.smoke } else { self.ladder });
        print!("{}", (self.render)(self.title, &rows));

        if !smoke {
            let path = save_json(&format!("BENCH_{}", self.name), &rows);
            println!("\nJSON artifact: {}", path.display());
        }

        if let Err(msg) = (self.invariants)(&rows) {
            eprintln!("{} invariant violated: {msg}", self.name);
            return ExitCode::FAILURE;
        }

        let Some(path) = check_path else {
            return ExitCode::SUCCESS;
        };
        let mismatches = match read_archive(path) {
            Ok(archived) => self.check(&rows, &archived),
            Err(e) => vec![e],
        };
        if mismatches.is_empty() {
            println!("{} ladder matches {path}", self.name);
            return ExitCode::SUCCESS;
        }
        eprintln!("{} ladder drifted from {path}:", self.name);
        for m in &mismatches {
            eprintln!("  {m}");
        }
        ExitCode::FAILURE
    }

    /// Diffs `rows` against an archived document, one description per
    /// mismatch (empty when the run reproduces the archive).
    ///
    /// Rows are matched on the `key` fields and compared on the `pinned`
    /// ones. Integers and strings must be equal; a float on either side
    /// compares within 1e-6. A fresh row without an archived counterpart,
    /// a pinned field missing on either side, and an archive that is not
    /// an array of rows are mismatches too.
    pub fn check(&self, rows: &[R], archived: &Value) -> Vec<String> {
        let Some(archived) = archived.as_array() else {
            return vec!["archive is not a JSON array of rows".to_string()];
        };
        let same_key = |a: &Value, b: &Value| self.key.iter().all(|k| same(a.get(k), b.get(k)));
        let mut mismatches = Vec::new();
        for row in serde_json::to_value(rows).as_array().into_iter().flatten() {
            let id = self
                .key
                .iter()
                .map(|k| format!("{k}={}", show(row.get(k))))
                .collect::<Vec<_>>()
                .join(" ");
            let Some(old) = archived.iter().find(|a| same_key(row, a)) else {
                mismatches.push(format!("{id}: no archived row"));
                continue;
            };
            for field in self.pinned {
                let (got, want) = (row.get(field), old.get(field));
                if !same(got, want) {
                    mismatches.push(format!(
                        "{id}: {field} {} != archived {}",
                        show(got),
                        show(want)
                    ));
                }
            }
        }
        mismatches
    }
}

fn read_archive(path: &str) -> Result<Value, String> {
    let raw = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    serde_json::from_str(&raw).map_err(|e| format!("cannot parse {path}: {e}"))
}

fn same(a: Option<&Value>, b: Option<&Value>) -> bool {
    let (Some(a), Some(b)) = (a, b) else {
        return false;
    };
    if let (Some(x), Some(y)) = (a.as_u64(), b.as_u64()) {
        return x == y;
    }
    match (a.as_f64(), b.as_f64()) {
        (Some(x), Some(y)) => (x - y).abs() <= FLOAT_TOLERANCE,
        _ => a == b,
    }
}

fn show(v: Option<&Value>) -> String {
    v.and_then(|v| serde_json::to_string(v).ok())
        .unwrap_or_else(|| "missing".to_string())
}

#[cfg(test)]
mod tests {
    use std::fmt::Debug;

    use serde_json::Number;

    use super::*;
    use crate::{CACHE, DATAPATH, FEDERATION, GATEWAY, SCALE};

    /// Each ladder as `name: key fields: pinned fields`, exactly as the gate
    /// must read them.
    const GATES: [&str; 5] = [
        "datapath: bytes system: copied_bytes_per_rtt copy_ops_per_rtt",
        "cache: label system: requests offered_bytes wire_bytes hits misses evictions device_hits",
        "federation: label: placed configured warm cold reconfigurations migrated \
         rebalance_moves max_lock_span trace_digest",
        "gateway: mode rate: offered processed shed failed achieved_rps mean_batch_size",
        "scale: label: arrivals processed shed failed_inflight node_losses rerouted \
         force_disconnects watch_events watch_seen metrics_series trace_digest",
    ];

    /// `v` moved by one unit, or by `step` if it is a float.
    fn drifted(v: &Value, step: f64) -> Value {
        match v {
            Value::Number(Number::Float(x)) => Value::Number(Number::Float(x + step)),
            Value::Number(n) => Value::Number(Number::PosInt(n.as_u64().expect("u64") + 1)),
            Value::String(s) => Value::String(format!("{s}x")),
            Value::Null => Value::Number(Number::PosInt(1)),
            other => panic!("no drift for {other:?}"),
        }
    }

    /// The one-row archive `doc` with `field` set to `value`, or removed.
    fn edit(doc: &Value, field: &str, value: Option<Value>) -> Value {
        let mut row = doc[0].as_object().expect("row object").clone();
        match value {
            Some(v) => row.insert(field.to_string(), v),
            None => row.remove(field),
        };
        Value::Array(vec![Value::Object(row)])
    }

    fn gate_pins_exactly<P: PartialEq + Debug, R: Serialize + Default>(spec: &Ladder<P, R>) {
        let name = spec.name;
        let gate = GATES
            .iter()
            .find_map(|g| g.strip_prefix(name)?.strip_prefix(':'));
        let (key, pinned) = gate.and_then(|g| g.split_once(':')).expect("gate row");
        let words = |s: &'static str| s.split_whitespace().collect::<Vec<_>>();
        assert_eq!(spec.key, words(key), "{name}: key");
        assert_eq!(spec.pinned, words(pinned), "{name}: pinned fields");
        for p in spec.smoke {
            assert!(spec.ladder.contains(p), "{name}: smoke point {p:?}");
        }

        let rows = vec![R::default()];
        let json = serde_json::to_string_pretty(&rows).expect("serialize");
        let doc = serde_json::from_str(&json).expect("parse");
        // A gated name that is not a row field shows up here as missing.
        let got = spec.check(&rows, &doc);
        assert!(got.is_empty(), "{name}: round trip: {got:?}");
        let fields = doc[0].as_object().expect("row object");
        for (field, value) in fields {
            let gated = spec.key.contains(&field.as_str()) || spec.pinned.contains(&field.as_str());
            let got = spec.check(&rows, &edit(&doc, field, Some(drifted(value, 1.0))));
            assert_eq!(got.len(), usize::from(gated), "{name}: {field}: {got:?}");
            let got = spec.check(&rows, &edit(&doc, field, Some(drifted(value, 1e-9))));
            let within_tolerance = matches!(value, Value::Number(Number::Float(_)));
            let want = usize::from(gated && !within_tolerance);
            assert_eq!(got.len(), want, "{name}: nudging {field}: {got:?}");
        }
        for field in spec.pinned {
            let got = spec.check(&rows, &edit(&doc, field, None));
            assert_eq!(got.len(), 1, "{name}: dropping {field}: {got:?}");
        }
        let got = spec.check(&rows, &Value::Array(Vec::new()));
        assert_eq!(got.len(), 1, "{name}: unmatched row: {got:?}");
        let got = spec.check(&rows, &Value::Null);
        assert_eq!(got.len(), 1, "{name}: malformed archive: {got:?}");
    }

    #[test]
    fn every_ladder_gate_pins_exactly_its_fields() {
        gate_pins_exactly(&DATAPATH);
        gate_pins_exactly(&CACHE);
        gate_pins_exactly(&FEDERATION);
        gate_pins_exactly(&GATEWAY);
        gate_pins_exactly(&SCALE);
    }
}
