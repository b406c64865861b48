//! Whole-stack integration tests through the umbrella crate: real
//! distributed executions against the serial reference, trace recording,
//! and the analysis pipeline (POP metrics, timelines, histograms).

use fftxlib_repro::core::{run_policy, FftxConfig, Problem, SchedulerPolicy};
use fftxlib_repro::fft::max_dist;
use fftxlib_repro::pw::apply_vloc;
use fftxlib_repro::trace::{
    intra_factors, render_timeline, timeline_csv, IpcHistogram, StateClass, TimelineOptions,
};

fn reference(problem: &Problem) -> Vec<Vec<fftxlib_repro::fft::Complex64>> {
    let bands: Vec<Vec<_>> = (0..problem.config.nbnd).map(|b| problem.band(b)).collect();
    apply_vloc(&problem.layout.set, &problem.grid(), &problem.v, &bands)
}

#[test]
fn all_modes_match_reference_through_public_api() {
    for mode in [
        SchedulerPolicy::Serial,
        SchedulerPolicy::TaskPerStep,
        SchedulerPolicy::TaskPerFft,
    ] {
        let cfg = FftxConfig::small(2, 2, mode);
        let problem = Problem::new(cfg);
        let out = run_policy(&problem, mode);
        let expect = reference(&problem);
        for (b, (got, want)) in out.bands.iter().zip(&expect).enumerate() {
            assert!(
                max_dist(got, want) < 1e-9,
                "{mode:?} band {b}: {}",
                max_dist(got, want)
            );
        }
    }
}

#[test]
fn trace_feeds_the_analysis_pipeline() {
    let cfg = FftxConfig::small(2, 2, SchedulerPolicy::Serial);
    let problem = Problem::new(cfg);
    let out = run_policy(&problem, SchedulerPolicy::Serial);

    // POP metrics compute without NaNs and within sane ranges.
    let f = intra_factors(&out.trace, None, None);
    assert!(f.load_balance > 0.0 && f.load_balance <= 1.0 + 1e-9);
    assert!(f.comm_efficiency > 0.0 && f.comm_efficiency <= 1.0 + 1e-9);
    assert!(f.parallel_efficiency > 0.0);

    // Timeline renders one row per lane plus header/legend.
    let tl = render_timeline(&out.trace, &TimelineOptions::default());
    let rows = tl.lines().filter(|l| l.starts_with('r')).count();
    assert_eq!(rows, 4, "one row per rank lane:\n{tl}");

    // CSV export contains every record.
    let csv = timeline_csv(&out.trace);
    assert_eq!(
        csv.lines().count(),
        1 + out.trace.compute.len() + out.trace.comm.len() + out.trace.tasks.len()
    );

    // Histogram over the main phase is populated.
    let h = IpcHistogram::from_trace(&out.trace, Some(StateClass::FftXy), 20, 0.0, 2.0);
    let total: f64 = h.cells.iter().flatten().sum();
    assert!(total > 0.0);
}

#[test]
fn task_mode_records_task_lifecycles() {
    let cfg = FftxConfig::small(2, 2, SchedulerPolicy::TaskPerFft);
    let problem = Problem::new(cfg);
    let out = run_policy(&problem, SchedulerPolicy::TaskPerFft);
    assert_eq!(out.trace.tasks.len(), cfg.nbnd * cfg.nr);
    for t in &out.trace.tasks {
        assert!(t.label.starts_with("fft-band-"));
        assert!(t.t_end >= t.t_start);
    }
}

#[test]
fn step_mode_chains_are_ordered_per_band() {
    let cfg = FftxConfig::small(1, 2, SchedulerPolicy::TaskPerStep);
    let problem = Problem::new(cfg);
    let out = run_policy(&problem, SchedulerPolicy::TaskPerStep);
    // For each band, the 9 step tasks must execute in pipeline order.
    let order = [
        "pack", "fftz-inv", "scatter-fw", "fftxy-inv", "vofr", "fftxy-fw", "scatter-bw",
        "fftz-fw", "unpack",
    ];
    for b in 0..cfg.nbnd {
        let mut times = Vec::new();
        for step in order {
            let rec = out
                .trace
                .tasks
                .iter()
                .find(|t| t.label == format!("{step}[{b}]"))
                .unwrap_or_else(|| panic!("missing {step}[{b}]"));
            times.push((rec.t_start, rec.t_end));
        }
        for w in times.windows(2) {
            assert!(
                w[0].1 <= w[1].0 + 1e-9,
                "band {b}: step finished after successor started"
            );
        }
    }
}

#[test]
fn different_seeds_give_different_problems_same_layout() {
    let mut a = FftxConfig::small(2, 1, SchedulerPolicy::Serial);
    let mut b = a;
    a.seed = 1;
    b.seed = 2;
    let pa = Problem::new(a);
    let pb = Problem::new(b);
    assert_ne!(pa.band(0), pb.band(0));
    assert_ne!(pa.v, pb.v);
    assert_eq!(pa.layout.set.ngw, pb.layout.set.ngw);
    assert_eq!(pa.layout.group_sticks, pb.layout.group_sticks);
}

#[test]
fn energy_is_bounded_by_potential_extrema() {
    // ||A psi|| <= max|V| * ||psi|| for the real-space-diagonal operator
    // restricted to the sphere (projection only removes energy).
    let cfg = FftxConfig::small(2, 2, SchedulerPolicy::Serial);
    let problem = Problem::new(cfg);
    let out = run_policy(&problem, SchedulerPolicy::Serial);
    let vmax = problem.v.iter().cloned().fold(0.0_f64, f64::max);
    for b in 0..cfg.nbnd {
        let before = fftxlib_repro::pw::band_norm2(&problem.band(b)).sqrt();
        let after = fftxlib_repro::pw::band_norm2(&out.bands[b]).sqrt();
        assert!(
            after <= vmax * before * (1.0 + 1e-9),
            "band {b}: ||out|| {after} > max|V| {vmax} * ||in|| {before}"
        );
    }
}
