//! Shared helpers for the benchmark harness: output locations, CSV writing,
//! the paper's reference numbers, and the standard sweep runner used by the
//! figure/table binaries.

use fftx_core::{run_modeled, FftxConfig, ModeledRun, SchedulerPolicy};
use fftx_trace::{efficiency_factors, EfficiencyFactors};
use std::path::PathBuf;
use std::sync::{Mutex, OnceLock};

pub mod harness;
pub mod json;

pub use harness::{check_artifacts, Artifact, CheckKind, Gate, GateOp, Harness, MetricValue};

/// Directory the harness writes CSV artefacts into (`./results`).
pub fn results_dir() -> PathBuf {
    let dir = std::env::var_os("FFTX_RESULTS_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("results"));
    std::fs::create_dir_all(&dir).expect("create results dir");
    dir
}

/// True when the bin was invoked with `--check`: artifacts are diffed
/// against the committed files instead of overwritten, so CI can detect
/// stale committed CSVs (code changed, artifacts didn't get regenerated).
pub(crate) fn check_mode() -> bool {
    static MODE: OnceLock<bool> = OnceLock::new();
    *MODE.get_or_init(|| std::env::args().any(|a| a == "--check"))
}

fn stale_log() -> &'static Mutex<Vec<String>> {
    static STALE: OnceLock<Mutex<Vec<String>>> = OnceLock::new();
    STALE.get_or_init(|| Mutex::new(Vec::new()))
}

fn record_stale(msg: String) {
    println!("[STALE] {msg}");
    stale_log().lock().expect("stale log").push(msg);
}

/// Writes `content` to `results/<name>` and reports the path on stdout.
/// Under `--check`, compares byte-for-byte against the committed file
/// instead; a mismatch is reported through [`report_checks`].
pub fn write_artifact(name: &str, content: &str) {
    let path = results_dir().join(name);
    if check_mode() {
        match std::fs::read_to_string(&path) {
            Ok(existing) if existing == content => {
                println!("[check-ok] {}", path.display());
            }
            Ok(_) => record_stale(format!(
                "{}: committed artifact differs from regenerated content",
                path.display()
            )),
            Err(e) => record_stale(format!("{}: unreadable ({e})", path.display())),
        }
        return;
    }
    std::fs::write(&path, content).expect("write artifact");
    println!("[written] {}", path.display());
}

/// [`write_artifact`] for wall-clock-dependent artifacts (measured
/// speedups, recovery timings, histogram bin edges): the values change run
/// to run, so `--check` verifies the *structure* only — same number of
/// header columns and same row count as the committed file.
pub fn write_artifact_volatile(name: &str, content: &str) {
    let path = results_dir().join(name);
    if check_mode() {
        match std::fs::read_to_string(&path) {
            Ok(existing) => {
                let cols = |s: &str| s.lines().next().map(|h| h.split(',').count());
                let same_header = cols(&existing) == cols(content);
                let same_rows = existing.lines().count() == content.lines().count();
                if same_header && same_rows {
                    println!("[check-ok] {} (structure)", path.display());
                } else {
                    record_stale(format!(
                        "{}: committed artifact structure differs (columns match: \
                         {same_header}, rows {} vs {})",
                        path.display(),
                        existing.lines().count(),
                        content.lines().count()
                    ));
                }
            }
            Err(e) => record_stale(format!("{}: unreadable ({e})", path.display())),
        }
        return;
    }
    std::fs::write(&path, content).expect("write artifact");
    println!("[written] {}", path.display());
}

/// One sweep point: the modeled run and its efficiency factors relative to
/// the sweep's 1×8 reference.
pub struct SweepPoint {
    /// R of the R×8 configuration.
    pub nr: usize,
    /// Paper-style label ("8 x 8").
    pub label: String,
    /// The modeled run (runtime, ideal runtime, trace).
    pub run: ModeledRun,
    /// POP factors vs the sweep reference.
    pub factors: EfficiencyFactors,
}

/// Runs the standard R×8 sweep of the paper for one mode on the calibrated
/// KNL model. The first entry (smallest R) is the scalability reference.
pub fn sweep(mode: SchedulerPolicy, nrs: &[usize]) -> Vec<SweepPoint> {
    assert!(!nrs.is_empty());
    let mut reference = None;
    let mut out = Vec::with_capacity(nrs.len());
    for &nr in nrs {
        let cfg = FftxConfig::paper(nr, mode);
        let run = run_modeled(cfg);
        if reference.is_none() {
            reference = Some(run.trace.clone());
        }
        let factors = efficiency_factors(
            reference.as_ref().expect("reference set"),
            &run.trace,
            Some(run.runtime),
            Some(run.ideal_runtime),
        );
        out.push(SweepPoint {
            nr,
            label: cfg.label(),
            run,
            factors,
        });
    }
    out
}

/// One column of the paper's Tables I/II for side-by-side comparison.
pub struct PaperColumn {
    /// Configuration label.
    pub label: &'static str,
    /// Parallel efficiency.
    pub parallel: f64,
    /// Load balance.
    pub load_balance: f64,
    /// Communication efficiency.
    pub comm: f64,
    /// Synchronisation efficiency.
    pub sync: f64,
    /// Transfer efficiency.
    pub transfer: f64,
    /// Computation scalability.
    pub comp: f64,
    /// IPC scalability.
    pub ipc: f64,
    /// Instruction scalability.
    pub ins: f64,
    /// Global efficiency.
    pub global: f64,
}

/// Table I of the paper (original version).
pub const PAPER_TABLE1: [PaperColumn; 5] = [
    PaperColumn { label: "1 x 8", parallel: 0.9575, load_balance: 0.9731, comm: 0.9840, sync: 0.9956, transfer: 0.9883, comp: 1.0000, ipc: 1.0000, ins: 1.0000, global: 0.9575 },
    PaperColumn { label: "2 x 8", parallel: 0.9121, load_balance: 0.9504, comm: 0.9597, sync: 0.9888, transfer: 0.9706, comp: 0.9187, ipc: 0.9278, ins: 0.9978, global: 0.8380 },
    PaperColumn { label: "4 x 8", parallel: 0.9270, load_balance: 0.9831, comm: 0.9429, sync: 0.9809, transfer: 0.9613, comp: 0.7809, ipc: 0.7868, ins: 0.9962, global: 0.7239 },
    PaperColumn { label: "8 x 8", parallel: 0.9097, load_balance: 0.9818, comm: 0.9266, sync: 0.9776, transfer: 0.9478, comp: 0.5474, ipc: 0.5628, ins: 0.9942, global: 0.4979 },
    PaperColumn { label: "16 x 8", parallel: 0.8615, load_balance: 0.9691, comm: 0.8890, sync: 0.9581, transfer: 0.9278, comp: 0.2732, ipc: 0.2826, ins: 0.9888, global: 0.2354 },
];

/// Table II of the paper (OmpSs version).
pub const PAPER_TABLE2: [PaperColumn; 5] = [
    PaperColumn { label: "1 x 8", parallel: 0.9913, load_balance: 0.9986, comm: 0.9926, sync: 1.0000, transfer: 0.9926, comp: 1.0000, ipc: 1.0000, ins: 1.0000, global: 0.9913 },
    PaperColumn { label: "2 x 8", parallel: 0.9553, load_balance: 0.9825, comm: 0.9723, sync: 0.9984, transfer: 0.9739, comp: 0.9256, ipc: 0.9404, ins: 0.9946, global: 0.8842 },
    PaperColumn { label: "4 x 8", parallel: 0.9167, load_balance: 0.9552, comm: 0.9597, sync: 0.9985, transfer: 0.9611, comp: 0.8116, ipc: 0.8405, ins: 0.9855, global: 0.7440 },
    PaperColumn { label: "8 x 8", parallel: 0.8333, load_balance: 0.9181, comm: 0.9077, sync: 0.9752, transfer: 0.9307, comp: 0.6136, ipc: 0.6614, ins: 0.9719, global: 0.5113 },
    PaperColumn { label: "16 x 8", parallel: 0.7047, load_balance: 0.9032, comm: 0.7803, sync: 0.9217, transfer: 0.8466, comp: 0.3729, ipc: 0.4257, ins: 0.9118, global: 0.2628 },
];

/// Renders a side-by-side (model vs paper) comparison for the headline
/// factor columns.
pub fn render_comparison(title: &str, points: &[SweepPoint], paper: &[PaperColumn]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "{title}");
    let _ = writeln!(
        out,
        "{:<8} {:>19} {:>19} {:>19} {:>19}",
        "config", "ParEff model/paper", "CommEff model/paper", "IPCscal model/paper", "Global model/paper"
    );
    for p in points {
        let ref_col = paper.iter().find(|c| c.label == p.label);
        let fmt = |model: f64, paper: Option<f64>| match paper {
            Some(v) => format!("{:>5.1}% / {:>5.1}%", model * 100.0, v * 100.0),
            None => format!("{:>5.1}% /     -", model * 100.0),
        };
        let _ = writeln!(
            out,
            "{:<8} {:>19} {:>19} {:>19} {:>19}",
            p.label,
            fmt(p.factors.intra.parallel_efficiency, ref_col.map(|c| c.parallel)),
            fmt(p.factors.intra.comm_efficiency, ref_col.map(|c| c.comm)),
            fmt(p.factors.scal.ipc, ref_col.map(|c| c.ipc)),
            fmt(p.factors.global, ref_col.map(|c| c.global)),
        );
    }
    out
}

/// CSV of a sweep's factor set.
pub fn sweep_csv(points: &[SweepPoint]) -> String {
    use std::fmt::Write as _;
    let mut out = String::from(
        "config,runtime_s,ideal_runtime_s,parallel_eff,load_balance,comm_eff,sync_eff,transfer_eff,comp_scal,ipc_scal,ins_scal,global_eff,main_ipc\n",
    );
    for p in points {
        let f = &p.factors;
        let _ = writeln!(
            out,
            "{},{:.6},{:.6},{:.4},{:.4},{:.4},{:.4},{:.4},{:.4},{:.4},{:.4},{:.4},{:.4}",
            p.label,
            p.run.runtime,
            p.run.ideal_runtime,
            f.intra.parallel_efficiency,
            f.intra.load_balance,
            f.intra.comm_efficiency,
            f.intra.sync.unwrap_or(f64::NAN),
            f.intra.transfer.unwrap_or(f64::NAN),
            f.scal.computation,
            f.scal.ipc,
            f.scal.instructions,
            f.global,
            p.run.trace.mean_ipc(fftx_trace::StateClass::FftXy),
        );
    }
    out
}

/// A shape criterion: a named boolean check (a claim of the paper) printed
/// as PASS/FAIL. Bins exit non-zero when a check fails, so calibration
/// regressions are caught mechanically.
pub struct ShapeCheck {
    /// The paper claim under test.
    pub name: String,
    /// Did the model reproduce it?
    pub ok: bool,
    /// Supporting numbers.
    pub detail: String,
}

impl ShapeCheck {
    /// Convenience constructor.
    pub fn new(name: impl Into<String>, ok: bool, detail: impl Into<String>) -> Self {
        ShapeCheck {
            name: name.into(),
            ok,
            detail: detail.into(),
        }
    }
}

/// Prints the checks and returns the process exit code (0 iff all passed).
/// Stale artifacts detected by a `--check` run fail the bin here too.
pub fn report_checks(checks: &[ShapeCheck]) -> i32 {
    let mut code = 0;
    for c in checks {
        println!(
            "[{}] {} — {}",
            if c.ok { "PASS" } else { "FAIL" },
            c.name,
            c.detail
        );
        if !c.ok {
            code = 1;
        }
    }
    for msg in stale_log().lock().expect("stale log").drain(..) {
        println!("[FAIL] committed artifact up to date — {msg}");
        code = 1;
    }
    code
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_tables_are_consistent() {
        for t in [&PAPER_TABLE1[..], &PAPER_TABLE2[..]] {
            for c in t {
                // ParEff = LB x Comm (paper rounds to 4 digits).
                assert!((c.parallel - c.load_balance * c.comm).abs() < 0.01, "{}", c.label);
                // Global = ParEff x CompScal.
                assert!((c.global - c.parallel * c.comp).abs() < 0.01, "{}", c.label);
                // CompScal ~ IPC x Ins (the paper's own columns carry a
                // frequency/measurement residual of up to ~3 points, e.g.
                // Table II 8x8: 0.6614 x 0.9719 = 0.643 vs 0.614).
                assert!((c.comp - c.ipc * c.ins).abs() < 0.035, "{}", c.label);
            }
        }
    }

    #[test]
    fn shape_check_exit_codes() {
        let ok = ShapeCheck::new("a", true, "d");
        let bad = ShapeCheck::new("b", false, "d");
        assert_eq!(report_checks(&[ok]), 0);
        assert_eq!(report_checks(&[ShapeCheck::new("a", true, ""), bad]), 1);
    }
}
