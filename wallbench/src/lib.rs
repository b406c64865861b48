//! Wall-clock benchmark of the real FFT engine (`run_policy`) and of the
//! fleet serving tier (`run_fleet`/`resume_fleet`).
//!
//! An untraced run measures the end-to-end metrics; a traced run measures
//! the per-layer split with the benchmark's own spans around calls into
//! each layer's public functions. See `README.md` for the workloads, the
//! metric map and the measured spread.

pub mod fleet;
pub mod host;
pub mod kernel;
pub mod spans;
pub mod stats;

use host::HostMonitor;
use kernel::KernelSpec;
use spans::Spans;
use stats::{kept, least_stolen, median, percentile, supports};
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 60³ grid, serial policy at 1×2: the FFT kernels dominate.
    DenseSlab,
    /// The serving `Small` class under `TaskAsync` at 2×1: exchange,
    /// scheduling and plan tables matter.
    SparseAsync,
    /// `run_fleet` + `resume_fleet` on a steady trace: the control plane
    /// dominates; the no-change control for kernel changes.
    FleetReplay,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 3] = [
        Workload::DenseSlab,
        Workload::SparseAsync,
        Workload::FleetReplay,
    ];

    /// Command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::DenseSlab => "dense-slab",
            Workload::SparseAsync => "sparse-async",
            Workload::FleetReplay => "fleet-replay",
        }
    }

    /// Parses a command-line name.
    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// How long a run measures.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Budget {
    /// Wall time of the measured loop.
    pub seconds: f64,
    /// Timed `run_policy` calls a kernel run makes at least, and band
    /// samples any run keeps at least when it sets stolen ones aside (100
    /// lets ten samples lie beyond the 90th percentile).
    pub min_calls: usize,
    /// Fleet repetitions a run makes at least.
    pub min_reps: usize,
    /// Set-up samples a kernel run takes at least.
    pub setup_reps: usize,
}

impl Budget {
    /// The command line's budget for `seconds` of measurement.
    pub fn for_seconds(seconds: f64) -> Self {
        Budget {
            seconds,
            min_calls: 100,
            min_reps: 5,
            setup_reps: 15,
        }
    }

    fn time(&self, share: f64) -> Duration {
        Duration::from_secs_f64((self.seconds * share).max(0.0))
    }
}

/// Named metrics with units, in insertion order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Metrics(Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    /// Sets (or replaces) metric `name`.
    pub fn set(&mut self, name: &'static str, value: f64, unit: &'static str) {
        match self.0.iter_mut().find(|m| m.0 == name) {
            Some(m) => *m = (name, value, unit),
            None => self.0.push((name, value, unit)),
        }
    }

    /// The value of `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.0 == name).map(|m| m.1)
    }

    /// Every (name, value, unit).
    pub fn iter(&self) -> impl Iterator<Item = &(&'static str, f64, &'static str)> {
        self.0.iter()
    }

    /// Copies `names` from `other` when present.
    fn take(&mut self, other: &Metrics, names: &[&str]) {
        for m in other.iter().filter(|m| names.contains(&m.0)) {
            self.set(m.0, m.1, m.2);
        }
    }
}

/// The end-to-end metrics, printed by an untraced run.
pub const END_TO_END: [&str; 6] = [
    "band_ms",
    "band_ms_p90",
    "job_ms",
    "resume_s",
    "setup_s",
    "peak_rss_mb",
];

/// Exact counts: they repeat bit for bit across runs and between the
/// untraced and traced runs of one workload.
pub const COUNTS: [&str; 11] = [
    "fft.flops_per_band",
    "core.plan.bytes_per_band",
    "vmpi.msgs_per_band",
    "vmpi.bytes_per_band",
    "taskrt.tasks_per_band",
    "trace.events_per_band",
    "serve.journal.records_per_job",
    "serve.tuner.cold_keys",
    "serve.batch.coalesce",
    "serve.batch.pad_waste",
    "serve.exec.threads",
];

/// The outcome of one run.
pub struct Report {
    /// Every check passed and no operation failed.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed their check (or jobs shed or left open).
    pub failed: u64,
    /// The printed metrics: end-to-end (untraced) or per-layer (traced).
    pub metrics: Metrics,
    /// Exact counts the run derived (see [`COUNTS`]).
    pub counts: Metrics,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
    /// The traced run's spans, written out when the run ends.
    pub spans: Option<Spans>,
}

impl Report {
    /// The one-line result: `correct`, `attempted`, `failed`, `metrics`.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }
}

/// Share of a kernel run's time given to set-up samples.
const SETUP_SHARE: f64 = 0.1;

/// Seconds of virtual trace behind the serve-layer probe of the kernel
/// workloads (about ten requests).
const PROBE_TRACE_S: f64 = 0.1;

/// Runs `workload` for `seed` under `budget`, untraced or traced.
///
/// # Errors
/// A description of a failure that leaves no result to print (a fleet run
/// that errors out).
pub fn run(workload: Workload, seed: u64, budget: &Budget, traced: bool) -> Result<Report, String> {
    let monitor = HostMonitor::start();
    let origin = Instant::now();
    let mut r = match (workload, traced) {
        (Workload::DenseSlab, false) => kernel_untraced(KernelSpec::DENSE_SLAB, seed, budget),
        (Workload::SparseAsync, false) => kernel_untraced(KernelSpec::SPARSE_ASYNC, seed, budget),
        (Workload::DenseSlab, true) => kernel_traced(KernelSpec::DENSE_SLAB, seed, budget, origin)?,
        (Workload::SparseAsync, true) => {
            kernel_traced(KernelSpec::SPARSE_ASYNC, seed, budget, origin)?
        }
        (Workload::FleetReplay, false) => fleet_untraced(seed, budget)?,
        (Workload::FleetReplay, true) => fleet_traced(seed, budget, origin)?,
    };
    let host = monitor.finish();
    r.notes.push(format!(
        "host: steal_frac={:.4} cal_ms={:.3} threads_peak={} nproc={}",
        host.steal_frac, host.cal_ms, host.threads_peak, host.nproc
    ));
    if traced {
        r.metrics.set("host.steal_frac", host.steal_frac, "ratio");
        r.metrics.set("host.cal_ms", host.cal_ms, "ms");
        r.metrics
            .set("host.threads_peak", host.threads_peak as f64, "count");
        r.metrics.set("host.nproc", host.nproc as f64, "count");
    }
    let finite = r.metrics.iter().all(|m| m.1.is_finite());
    r.correct &= r.failed == 0 && finite;
    Ok(r)
}

/// Reports `band_ms` and `band_ms_p90` over the band samples `values`
/// that [`least_stolen`] keeps, at least `min` of them; returns which it
/// kept.
fn band_metrics(
    values: &[f64],
    ticks: &[u64],
    min: usize,
    m: &mut Metrics,
    notes: &mut Vec<String>,
) -> Vec<bool> {
    let keep = least_stolen(ticks, min);
    let samples = kept(values, &keep);
    m.set("band_ms", median(&samples), "ms");
    m.set("band_ms_p90", percentile(&samples, 0.9), "ms");
    let free = ticks.iter().filter(|&&t| t == 0).count();
    notes.push(format!(
        "band_ms samples={} p90_supported={} (steal-free {free} of {}; over all samples band_ms {:.6} p90 {:.6})",
        samples.len(),
        supports(samples.len(), 0.9),
        values.len(),
        median(values),
        percentile(values, 0.9)
    ));
    keep
}

/// The median of the samples [`least_stolen`] keeps when at least half of
/// them must stay.
fn steady_median(values: &[f64], ticks: &[u64]) -> f64 {
    median(&kept(
        values,
        &least_stolen(ticks, values.len().div_ceil(2)),
    ))
}

fn kernel_untraced(spec: KernelSpec, seed: u64, budget: &Budget) -> Report {
    let cfg = spec.config(seed);
    let problem = fftx_core::Problem::new(cfg);
    let setup = kernel::SetupSampling {
        min: budget.setup_reps,
        share: SETUP_SHARE,
    };
    let un = kernel::untraced(
        &problem,
        spec.policy,
        budget.time(1.0),
        budget.min_calls,
        3,
        setup,
    );
    let deviation = kernel::reference_deviation(&problem, &un.first.bands);
    let mut notes = vec![format!(
        "reference deviation {deviation:.3e} (tolerance {:.0e})",
        kernel::TOLERANCE
    )];
    let mut m = Metrics::default();
    let keep = band_metrics(
        &un.band_ms,
        &un.call_steal,
        budget.min_calls,
        &mut m,
        &mut notes,
    );
    m.set("job_ms", median(&kept(&un.call_ms, &keep)), "ms");
    m.set(
        "resume_s",
        steady_median(&un.restart_s, &un.restart_steal),
        "s",
    );
    m.set("setup_s", steady_median(&un.setup_s, &un.setup_steal), "s");
    m.set("peak_rss_mb", host::peak_rss_mb(), "MB");
    notes.push(format!(
        "set-up samples {} (steal-free {})",
        un.setup_s.len(),
        un.setup_steal.iter().filter(|&&t| t == 0).count()
    ));
    let mut counts = Metrics::default();
    kernel::counts(&problem, &un.first, &mut counts);
    Report {
        correct: deviation <= kernel::TOLERANCE,
        attempted: un.calls,
        failed: un.failed,
        metrics: m,
        counts,
        notes,
        spans: None,
    }
}

fn kernel_traced(
    spec: KernelSpec,
    seed: u64,
    budget: &Budget,
    origin: Instant,
) -> Result<Report, String> {
    let problem = fftx_core::Problem::new(spec.config(seed));
    let mut m = Metrics::default();
    let (mut attempted, mut failed, spans) =
        kernel::layers(&problem, spec.policy, budget.time(0.85), origin, &mut m);
    // The serving tier on a short trace of the same seed: the least work
    // its layers do.
    let reqs = fleet::requests(seed, PROBE_TRACE_S);
    let cfg = fleet::config(seed);
    let t = Instant::now();
    let report = fftx_serve::run_fleet(&reqs, &cfg).map_err(|e| e.to_string())?;
    let job_ms = t.elapsed().as_secs_f64() * 1e3 / report.jobs.len().max(1) as f64;
    attempted += reqs.len() as u64;
    failed += fleet::lost_jobs(&report);
    let (checked, bad) = fleet::layers(&report, &reqs, &cfg, job_ms, &mut m)?;
    attempted += checked;
    failed += bad;
    let mut counts = Metrics::default();
    counts.take(&m, &COUNTS);
    Ok(Report {
        correct: true,
        attempted,
        failed,
        metrics: m,
        counts,
        notes: Vec::new(),
        spans: Some(spans),
    })
}

fn fleet_untraced(seed: u64, budget: &Budget) -> Result<Report, String> {
    let u = fleet::untraced(seed, budget.time(1.0), budget.min_reps)?;
    let (first, reqs, cfg, batches) = u.first.as_ref().ok_or("fleet made no repetition")?;
    let mut notes = vec![format!(
        "fleet: reps={} first trace: requests={} jobs={} shed={} batches={} records={}",
        u.job_ms.len(),
        reqs.len(),
        first.jobs.len(),
        first.shed.len(),
        batches.len(),
        first.journal.len()
    )];
    let mut m = Metrics::default();
    band_metrics(
        &u.band_ms,
        &u.band_steal,
        budget.min_calls,
        &mut m,
        &mut notes,
    );
    m.set("job_ms", steady_median(&u.job_ms, &u.job_steal), "ms");
    m.set("resume_s", steady_median(&u.resume_s, &u.resume_steal), "s");
    m.set("setup_s", steady_median(&u.setup_s, &u.setup_steal), "s");
    m.set("peak_rss_mb", host::peak_rss_mb(), "MB");
    let mut counts = Metrics::default();
    fleet::counts(first, batches, reqs, cfg, &mut counts);
    Ok(Report {
        correct: true,
        attempted: u.attempted,
        failed: u.failed,
        metrics: m,
        counts,
        notes,
        spans: None,
    })
}

fn fleet_traced(seed: u64, budget: &Budget, origin: Instant) -> Result<Report, String> {
    let u = fleet::untraced(seed, budget.time(0.3), 3)?;
    let (report, reqs, cfg, batches) = u.first.as_ref().ok_or("fleet made no repetition")?;
    let mut m = Metrics::default();
    let (checked, bad) = fleet::layers(report, reqs, cfg, u.job_ms[0], &mut m)?;
    // The kernel layers on the first trace's most common batch shape.
    let mut shapes: std::collections::BTreeMap<String, (usize, usize)> = Default::default();
    for (i, b) in batches.iter().enumerate() {
        let key = format!(
            "{:?}/{}/{}",
            b.batch.class,
            b.batch.nbnd,
            b.placement.label()
        );
        shapes.entry(key).or_insert((0, i)).0 += 1;
    }
    let (_, &(_, i)) = shapes
        .iter()
        .max_by_key(|(_, (n, _))| *n)
        .ok_or("fleet ran no batch")?;
    let b = &batches[i];
    let problem = fftx_serve::Backend::new(cfg.serve.seed, None).problem_for(
        b.batch.class,
        b.batch.nbnd,
        &b.placement,
    );
    let (calls, kfailed, spans) = kernel::layers(
        &problem,
        b.placement.policy,
        budget.time(0.45),
        origin,
        &mut m,
    );
    let mut counts = Metrics::default();
    fleet::counts(report, batches, reqs, cfg, &mut counts);
    Ok(Report {
        correct: true,
        attempted: u.attempted + checked + calls,
        failed: u.failed + bad + kfailed,
        metrics: m,
        counts,
        notes: vec![format!(
            "kernel layers on the fleet's most common batch: {}",
            b.placement.label()
        )],
        spans: Some(spans),
    })
}
