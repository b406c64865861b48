//! Trajectory gate: loads every committed `results/BENCH_*.json`, validates
//! the shared schema (schema_version, pinned seed, well-formed gates whose
//! recorded `pass` matches their own op/threshold/value), and fails if any
//! bench's gates regressed. This is what the CI `trajectory` job runs after
//! the per-bench `--check` passes; it is the single place that knows what
//! "the whole benchmark suite is healthy" means.

use fftx_bench::harness::{SCHEMA_VERSION, SEED};
use fftx_bench::{json, results_dir, CheckKind, GateOp, Harness};

/// Every bench that must have a BENCH_*.json on disk. A missing file is a
/// freshness failure — it means a bin was added or renamed without
/// regenerating artifacts.
const EXPECTED: &[&str] = &[
    "ablation_contention",
    "ablation_grain",
    "ablation_ntg",
    "capacity",
    "decomp",
    "failover",
    "fft",
    "fig2",
    "fig3",
    "fig6",
    "fig7",
    "future_overlap",
    "integrity",
    "recovery",
    "resilience",
    "schedulers",
    "serve",
    "table1",
    "table2",
];

struct Report {
    bench: String,
    volatile: bool,
    metrics: usize,
    gates: usize,
    gates_passed: usize,
    schema_ok: bool,
    problems: Vec<String>,
}

fn eval_gate(op: &str, value: f64, threshold: f64) -> Option<bool> {
    let ok = match op {
        ">=" => value >= threshold,
        "<=" => value <= threshold,
        "==" => value == threshold,
        _ => return None,
    };
    Some(ok && value.is_finite())
}

fn validate(name: &str, text: &str) -> Report {
    let mut r = Report {
        bench: name.to_string(),
        volatile: false,
        metrics: 0,
        gates: 0,
        gates_passed: 0,
        schema_ok: true,
        problems: Vec::new(),
    };
    let fail = |r: &mut Report, msg: String| {
        r.schema_ok = false;
        r.problems.push(msg);
    };
    let v = match json::parse(text) {
        Ok(v) => v,
        Err(e) => {
            fail(&mut r, format!("unparseable JSON: {e}"));
            return r;
        }
    };
    match v.get("schema_version").and_then(|x| x.as_f64()) {
        Some(s) if s == SCHEMA_VERSION as f64 => {}
        other => fail(&mut r, format!("schema_version {other:?} != {SCHEMA_VERSION}")),
    }
    match v.get("bench").and_then(|x| x.as_str()) {
        Some(b) if b == name => {}
        other => fail(&mut r, format!("bench field {other:?} != file name {name}")),
    }
    match v.get("seed").and_then(|x| x.as_f64()) {
        Some(s) if s == SEED as f64 => {}
        other => fail(&mut r, format!("seed {other:?} != pinned {SEED}")),
    }
    match v.get("volatile").and_then(|x| x.as_bool()) {
        Some(b) => r.volatile = b,
        None => fail(&mut r, "missing boolean `volatile`".into()),
    }
    match v.get("metrics").and_then(|x| x.as_obj()) {
        Some(m) => r.metrics = m.len(),
        None => fail(&mut r, "missing object `metrics`".into()),
    }
    let gates = match v.get("gates").and_then(|x| x.as_arr()) {
        Some(g) => g,
        None => {
            fail(&mut r, "missing array `gates`".into());
            return r;
        }
    };
    r.gates = gates.len();
    if gates.is_empty() {
        fail(&mut r, "bench declares no gates".into());
    }
    for (i, g) in gates.iter().enumerate() {
        let gname = g
            .get("name")
            .and_then(|x| x.as_str())
            .unwrap_or("<unnamed>")
            .to_string();
        let pass = g.get("pass").and_then(|x| x.as_bool());
        let op = g.get("op").and_then(|x| x.as_str());
        let threshold = g.get("threshold").and_then(|x| x.as_f64());
        // `value` is null when the metric was missing/non-numeric.
        let value = g.get("value").and_then(|x| x.as_f64());
        let (Some(pass), Some(op), Some(threshold)) = (pass, op, threshold) else {
            fail(&mut r, format!("gate {i} ({gname}) missing pass/op/threshold"));
            continue;
        };
        let recomputed = value.and_then(|v| eval_gate(op, v, threshold));
        match recomputed {
            Some(want) if want != pass => fail(
                &mut r,
                format!("gate {i} ({gname}) pass={pass} inconsistent with {value:?} {op} {threshold}"),
            ),
            None if pass => fail(
                &mut r,
                format!("gate {i} ({gname}) claims pass with null value or bad op {op:?}"),
            ),
            _ => {}
        }
        if pass {
            r.gates_passed += 1;
        } else {
            r.problems.push(format!("gate {i} ({gname}) FAILED"));
        }
    }
    r
}

fn main() {
    println!("=== Trajectory: validating every BENCH_*.json ===\n");
    let dir = results_dir();
    let mut reports: Vec<Report> = Vec::new();
    let mut seen: Vec<String> = Vec::new();
    let mut entries: Vec<_> = std::fs::read_dir(&dir)
        .map(|rd| rd.filter_map(|e| e.ok()).collect::<Vec<_>>())
        .unwrap_or_default();
    entries.sort_by_key(|e| e.file_name());
    for e in entries {
        let fname = e.file_name().to_string_lossy().into_owned();
        let Some(bench) = fname
            .strip_prefix("BENCH_")
            .and_then(|s| s.strip_suffix(".json"))
        else {
            continue;
        };
        if bench == "trajectory" {
            continue; // this bin's own output is not its own input
        }
        let text = std::fs::read_to_string(e.path()).unwrap_or_default();
        seen.push(bench.to_string());
        reports.push(validate(bench, &text));
    }

    let missing: Vec<&str> = EXPECTED
        .iter()
        .copied()
        .filter(|b| !seen.iter().any(|s| s == b))
        .collect();
    let unexpected: Vec<&String> = seen.iter().filter(|s| !EXPECTED.contains(&s.as_str())).collect();

    let mut csv = String::from("bench,volatile,schema_ok,metrics,gates,gates_passed\n");
    for r in &reports {
        csv.push_str(&format!(
            "{},{},{},{},{},{}\n",
            r.bench, r.volatile as u8, r.schema_ok as u8, r.metrics, r.gates, r.gates_passed
        ));
        let status = if r.schema_ok && r.gates_passed == r.gates {
            "ok"
        } else {
            "FAIL"
        };
        println!(
            "{:<22} {status:<4} {} metrics, {}/{} gates{}",
            r.bench,
            r.metrics,
            r.gates_passed,
            r.gates,
            if r.volatile { "  (volatile)" } else { "" }
        );
        for p in &r.problems {
            println!("    !! {p}");
        }
    }
    if !missing.is_empty() {
        println!("\nmissing BENCH files for: {missing:?}");
    }
    if !unexpected.is_empty() {
        println!("unexpected BENCH files: {unexpected:?} (add to trajectory's EXPECTED list)");
    }
    println!();

    let total_gates: usize = reports.iter().map(|r| r.gates).sum();
    let total_passed: usize = reports.iter().map(|r| r.gates_passed).sum();
    let all_schema = reports.iter().all(|r| r.schema_ok);
    // Volatile: ablation_grain adds speedup gates only on multi-core
    // hosts, so per-bench counts are host-dependent — structure-check.
    let mut h = Harness::new_volatile("trajectory");
    h.artifact("trajectory.csv", &csv, CheckKind::Structure);
    h.metric_u64("benches", reports.len() as u64)
        .metric_u64("total_gates", total_gates as u64)
        .metric_u64("total_gates_passed", total_passed as u64)
        .metric_u64("missing_benches", missing.len() as u64)
        .metric_u64("unexpected_benches", unexpected.len() as u64)
        .metric_bool("all_schemas_valid", all_schema && !reports.is_empty())
        .metric_bool("all_gates_pass", total_gates > 0 && total_passed == total_gates);
    h.gate(
        "every expected bench has a BENCH json on disk",
        "missing_benches",
        GateOp::Eq,
        0.0,
    )
    .gate(
        "no stray BENCH json outside the expected set",
        "unexpected_benches",
        GateOp::Eq,
        0.0,
    )
    .gate(
        "every BENCH json is schema-valid at the pinned seed",
        "all_schemas_valid",
        GateOp::Eq,
        1.0,
    )
    .gate(
        "every recorded gate passes",
        "all_gates_pass",
        GateOp::Eq,
        1.0,
    );
    std::process::exit(h.finish());
}
