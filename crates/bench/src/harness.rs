//! The shared bench harness: one seed, one `--check` semantics, one
//! `BENCH_<name>.json` schema.
//!
//! Every bench bin builds a [`Harness`], records its headline numbers as
//! named metrics, declares pass/fail **gates** whose thresholds are stored
//! in the emitted artifact itself, declares its CSV artifacts with an
//! explicit per-artifact [`CheckKind`], and exits through [`Harness::finish`].
//! `finish` emits `results/BENCH_<bench>.json` (schema version
//! [`SCHEMA_VERSION`]) and returns the process exit code.
//!
//! The JSON artifact is deliberately line-oriented and fully deterministic
//! for non-volatile benches, so `--check` byte-diffs it like any CSV. For
//! wall-clock benches (`volatile: true`) the values change run to run and
//! `--check` verifies the *schema* instead: same metric keys, same gates,
//! and every committed gate still passing.

use crate::{report_checks, write_artifact, write_artifact_volatile, ShapeCheck};
use std::fmt::Write as _;

/// The pinned experiment seed every bench runs at (the paper's date).
pub const SEED: u64 = 20170814;

/// Version tag of the `BENCH_*.json` schema; the `trajectory` bin refuses
/// artifacts from a different schema generation.
pub const SCHEMA_VERSION: u64 = 1;

/// How `--check` compares a regenerated artifact against the committed one.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CheckKind {
    /// Fully deterministic: byte-for-byte identity.
    Byte,
    /// Wall-clock-dependent values: structure only (header columns and row
    /// count for CSVs; metric/gate schema for BENCH JSONs).
    Structure,
}

/// One artifact declaration: name under `results/`, rendered content, and
/// how `--check` treats it.
pub struct Artifact<'a> {
    /// File name under the results directory.
    pub name: &'a str,
    /// Rendered content.
    pub content: &'a str,
    /// Byte-exact or structure-only freshness.
    pub kind: CheckKind,
}

/// Writes (or, under `--check`, verifies) a batch of declared artifacts.
/// This is the one place the byte-vs-structure decision is dispatched, so
/// bins state the intent per artifact instead of hand-rolling diffs.
pub fn check_artifacts(artifacts: &[Artifact]) {
    for a in artifacts {
        match a.kind {
            CheckKind::Byte => write_artifact(a.name, a.content),
            CheckKind::Structure => write_artifact_volatile(a.name, a.content),
        }
    }
}

/// A typed metric value with explicit rendering, so the JSON artifact is
/// byte-stable across runs and platforms.
#[derive(Clone, Debug)]
pub enum MetricValue {
    /// Unsigned counter.
    UInt(u64),
    /// Signed integer.
    Int(i64),
    /// Float rendered with a fixed number of decimals.
    Float {
        /// The value.
        v: f64,
        /// Decimal places in the artifact.
        prec: usize,
    },
    /// Boolean.
    Bool(bool),
    /// String (labels, mode names).
    Str(String),
    /// Array of floats, fixed decimals.
    Floats {
        /// The values.
        v: Vec<f64>,
        /// Decimal places in the artifact.
        prec: usize,
    },
    /// Array of unsigned integers.
    UInts(Vec<u64>),
}

impl MetricValue {
    fn render(&self) -> String {
        fn f(v: f64, prec: usize) -> String {
            if v.is_finite() {
                format!("{v:.prec$}")
            } else {
                // JSON has no NaN/inf; encode as null.
                String::from("null")
            }
        }
        match self {
            MetricValue::UInt(v) => format!("{v}"),
            MetricValue::Int(v) => format!("{v}"),
            MetricValue::Float { v, prec } => f(*v, *prec),
            MetricValue::Bool(v) => format!("{v}"),
            MetricValue::Str(v) => format!("\"{}\"", escape_json(v)),
            MetricValue::Floats { v, prec } => {
                let items: Vec<String> = v.iter().map(|x| f(*x, *prec)).collect();
                format!("[{}]", items.join(", "))
            }
            MetricValue::UInts(v) => {
                let items: Vec<String> = v.iter().map(|x| format!("{x}")).collect();
                format!("[{}]", items.join(", "))
            }
        }
    }

    /// The value as a float for gate evaluation (booleans are 0/1); `None`
    /// for strings and arrays, which cannot gate.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            MetricValue::UInt(v) => Some(*v as f64),
            MetricValue::Int(v) => Some(*v as f64),
            MetricValue::Float { v, .. } => Some(*v),
            MetricValue::Bool(v) => Some(if *v { 1.0 } else { 0.0 }),
            MetricValue::Str(_) | MetricValue::Floats { .. } | MetricValue::UInts { .. } => None,
        }
    }
}

fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Comparison operator of a gate.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum GateOp {
    /// value ≥ threshold.
    Ge,
    /// value ≤ threshold.
    Le,
    /// value == threshold (exact; used for booleans and counts).
    Eq,
}

impl GateOp {
    /// The artifact's operator spelling.
    pub(crate) fn symbol(self) -> &'static str {
        match self {
            GateOp::Ge => ">=",
            GateOp::Le => "<=",
            GateOp::Eq => "==",
        }
    }

    /// Evaluates `value op threshold`; NaN fails every gate.
    pub(crate) fn eval(self, value: f64, threshold: f64) -> bool {
        match self {
            GateOp::Ge => value >= threshold,
            GateOp::Le => value <= threshold,
            GateOp::Eq => value == threshold,
        }
    }
}

/// One regression gate: the threshold travels with the artifact, so the
/// `trajectory` aggregator re-evaluates it without knowing the bin.
pub struct Gate {
    /// Human-readable claim under test.
    pub name: String,
    /// Metric key the gate reads.
    pub metric: String,
    /// Comparison.
    pub op: GateOp,
    /// Pass threshold.
    pub threshold: f64,
    /// The metric's value at emit time.
    pub value: f64,
    /// Did it pass?
    pub pass: bool,
}

/// Builder for one bench run's artifact set and exit status.
pub struct Harness {
    bench: String,
    volatile: bool,
    metrics: Vec<(String, MetricValue)>,
    gates: Vec<Gate>,
    checks: Vec<ShapeCheck>,
}

impl Harness {
    /// A deterministic bench: its `BENCH_<name>.json` byte-diffs under
    /// `--check`.
    pub fn new(bench: &str) -> Self {
        Harness {
            bench: bench.to_string(),
            volatile: false,
            metrics: Vec::new(),
            gates: Vec::new(),
            checks: Vec::new(),
        }
    }

    /// A wall-clock bench: values vary run to run, so `--check` verifies
    /// the JSON's schema (keys, gates, committed gates passing) instead of
    /// bytes.
    pub fn new_volatile(bench: &str) -> Self {
        let mut h = Harness::new(bench);
        h.volatile = true;
        h
    }

    /// Records a metric; insertion order is emission order.
    pub fn metric(&mut self, key: &str, value: MetricValue) -> &mut Self {
        self.metrics.push((key.to_string(), value));
        self
    }

    /// Unsigned counter metric.
    pub fn metric_u64(&mut self, key: &str, v: u64) -> &mut Self {
        self.metric(key, MetricValue::UInt(v))
    }

    /// Float metric with `prec` decimals in the artifact.
    pub fn metric_f64(&mut self, key: &str, v: f64, prec: usize) -> &mut Self {
        self.metric(key, MetricValue::Float { v, prec })
    }

    /// Boolean metric.
    pub fn metric_bool(&mut self, key: &str, v: bool) -> &mut Self {
        self.metric(key, MetricValue::Bool(v))
    }

    /// String metric.
    pub fn metric_str(&mut self, key: &str, v: &str) -> &mut Self {
        self.metric(key, MetricValue::Str(v.to_string()))
    }

    /// The recorded value of `key`, if any.
    pub(crate) fn metric_value(&self, key: &str) -> Option<&MetricValue> {
        self.metrics.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Declares a gate on a previously recorded metric and mirrors it into
    /// the printed PASS/FAIL checks. A missing or non-numeric metric fails
    /// the gate (value NaN) rather than panicking.
    pub fn gate(&mut self, name: &str, metric: &str, op: GateOp, threshold: f64) -> &mut Self {
        let value = self
            .metric_value(metric)
            .and_then(MetricValue::as_f64)
            .unwrap_or(f64::NAN);
        let pass = op.eval(value, threshold);
        self.checks.push(ShapeCheck::new(
            name,
            pass,
            format!("{metric} = {value} (gate: {} {threshold})", op.symbol()),
        ));
        self.gates.push(Gate {
            name: name.to_string(),
            metric: metric.to_string(),
            op,
            threshold,
            value,
            pass,
        });
        self
    }

    /// Adds a plain shape check (printed, affects exit code, not exported
    /// as a gate) — for claims whose evidence isn't a single metric.
    pub fn check(&mut self, name: impl Into<String>, ok: bool, detail: impl Into<String>) -> &mut Self {
        self.checks.push(ShapeCheck::new(name, ok, detail));
        self
    }

    /// Declares one artifact (see [`check_artifacts`]).
    pub fn artifact(&self, name: &str, content: &str, kind: CheckKind) {
        check_artifacts(&[Artifact {
            name,
            content,
            kind,
        }]);
    }

    /// Renders the `BENCH_<name>.json` content.
    pub fn render_json(&self) -> String {
        let mut json = String::from("{\n");
        let _ = writeln!(json, "  \"schema_version\": {SCHEMA_VERSION},");
        let _ = writeln!(json, "  \"bench\": \"{}\",", escape_json(&self.bench));
        let _ = writeln!(json, "  \"seed\": {SEED},");
        let _ = writeln!(json, "  \"volatile\": {},", self.volatile);
        json.push_str("  \"metrics\": {\n");
        for (i, (k, v)) in self.metrics.iter().enumerate() {
            let comma = if i + 1 == self.metrics.len() { "" } else { "," };
            let _ = writeln!(json, "    \"{}\": {}{comma}", escape_json(k), v.render());
        }
        json.push_str("  },\n");
        json.push_str("  \"gates\": [\n");
        for (i, g) in self.gates.iter().enumerate() {
            let comma = if i + 1 == self.gates.len() { "" } else { "," };
            let _ = writeln!(
                json,
                "    {{\"name\": \"{}\", \"metric\": \"{}\", \"op\": \"{}\", \
                 \"threshold\": {}, \"value\": {}, \"pass\": {}}}{comma}",
                escape_json(&g.name),
                escape_json(&g.metric),
                g.op.symbol(),
                render_gate_num(g.threshold),
                render_gate_num(g.value),
                g.pass,
            );
        }
        json.push_str("  ]\n}\n");
        json
    }

    /// Emits `BENCH_<name>.json`, prints all checks, and returns the
    /// process exit code (0 iff every check passed and, under `--check`,
    /// no artifact was stale).
    pub fn finish(self) -> i32 {
        let name = format!("BENCH_{}.json", self.bench);
        let kind = if self.volatile {
            CheckKind::Structure
        } else {
            CheckKind::Byte
        };
        self.artifact(&name, &self.render_json(), kind);
        report_checks(&self.checks)
    }
}

/// Gate thresholds/values use the shortest round-trip float repr (Rust's
/// `{}`), which is deterministic; non-finite values encode as null.
fn render_gate_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        String::from("null")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metrics_render_deterministically() {
        let mut h = Harness::new("demo");
        h.metric_u64("count", 42)
            .metric_f64("ratio", 0.123456789, 4)
            .metric_bool("ok", true)
            .metric_str("mode", "a\"b")
            .metric("arr", MetricValue::Floats { v: vec![1.0, 2.5], prec: 1 })
            .metric("nan", MetricValue::Float { v: f64::NAN, prec: 3 });
        let json = h.render_json();
        assert!(json.contains("\"count\": 42,"));
        assert!(json.contains("\"ratio\": 0.1235,"));
        assert!(json.contains("\"ok\": true,"));
        assert!(json.contains("\"mode\": \"a\\\"b\","));
        assert!(json.contains("\"arr\": [1.0, 2.5],"));
        assert!(json.contains("\"nan\": null\n"));
        // Two renders are byte-identical.
        assert_eq!(json, h.render_json());
    }

    #[test]
    fn gates_read_metrics_and_set_exit_status() {
        let mut h = Harness::new("demo");
        h.metric_f64("eff", 0.93, 4);
        h.gate("efficiency holds", "eff", GateOp::Ge, 0.9);
        h.gate("missing metric fails", "nope", GateOp::Ge, 0.0);
        assert!(h.gates[0].pass);
        assert!(!h.gates[1].pass);
        let json = h.render_json();
        assert!(json.contains("\"op\": \">=\", \"threshold\": 0.9, \"value\": 0.93, \"pass\": true"));
        assert!(json.contains("\"value\": null, \"pass\": false"));
    }

    #[test]
    fn gate_ops() {
        assert!(GateOp::Ge.eval(1.0, 1.0));
        assert!(GateOp::Le.eval(0.5, 1.0));
        assert!(GateOp::Eq.eval(1.0, 1.0));
        assert!(!GateOp::Eq.eval(1.0, 0.0));
        assert!(!GateOp::Ge.eval(f64::NAN, 0.0));
    }

    #[test]
    fn bool_metrics_gate_as_zero_one() {
        let mut h = Harness::new("demo");
        h.metric_bool("conserved", true);
        h.gate("conservation", "conserved", GateOp::Eq, 1.0);
        assert!(h.gates[0].pass);
    }
}
