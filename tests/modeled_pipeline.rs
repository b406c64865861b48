//! Integration tests of the modeled (KNL-simulator) pipeline at small
//! scale: determinism, conservation, ideal-network ordering, and the
//! consistency of the three mode lowerings.

use fftxlib_repro::core::{
    build_programs, run_modeled, run_modeled_with, FftxConfig, Problem, SchedulerPolicy,
};
use fftxlib_repro::knlsim::{CommModel, ContentionModel, KnlConfig};
use fftxlib_repro::trace::{efficiency_factors, CommOp};

fn small(mode: SchedulerPolicy) -> FftxConfig {
    FftxConfig::small(2, 2, mode)
}

#[test]
fn modeled_runs_are_deterministic() {
    for mode in [
        SchedulerPolicy::Serial,
        SchedulerPolicy::TaskPerFft,
        SchedulerPolicy::TaskPerStep,
    ] {
        let a = run_modeled(small(mode));
        let b = run_modeled(small(mode));
        assert_eq!(a.runtime, b.runtime, "{mode:?}");
        assert_eq!(a.trace.compute.len(), b.trace.compute.len());
        for (x, y) in a.trace.compute.iter().zip(&b.trace.compute) {
            assert_eq!(x.t_start, y.t_start);
            assert_eq!(x.instructions, y.instructions);
        }
    }
}

#[test]
fn ideal_network_never_slower() {
    for mode in [
        SchedulerPolicy::Serial,
        SchedulerPolicy::TaskPerFft,
        SchedulerPolicy::TaskPerStep,
    ] {
        let run = run_modeled(small(mode));
        assert!(
            run.ideal_runtime <= run.runtime * (1.0 + 1e-12),
            "{mode:?}: ideal {} > real {}",
            run.ideal_runtime,
            run.runtime
        );
    }
}

#[test]
fn every_collective_in_the_plan_executes() {
    for mode in [
        SchedulerPolicy::Serial,
        SchedulerPolicy::TaskPerFft,
        SchedulerPolicy::TaskPerStep,
    ] {
        let cfg = small(mode);
        let problem = Problem::new(cfg);
        let programs = build_programs(&problem);
        let planned: usize = programs.iter().map(|p| p.collective_count()).sum();
        let run = run_modeled(cfg);
        assert_eq!(
            run.trace.comm.len(),
            planned,
            "{mode:?}: planned {planned} collective participations"
        );
    }
}

#[test]
fn original_plan_uses_both_comm_families() {
    let run = run_modeled(small(SchedulerPolicy::Serial));
    let has_pack = run.trace.comm.iter().any(|r| r.op == CommOp::Alltoallv);
    let has_scatter = run.trace.comm.iter().any(|r| r.op == CommOp::Alltoall);
    assert!(has_pack && has_scatter);
}

#[test]
fn task_plans_use_band_tags() {
    let cfg = small(SchedulerPolicy::TaskPerFft);
    let problem = Problem::new(cfg);
    let programs = build_programs(&problem);
    // Every band appears as a task with its own priority.
    for p in &programs {
        let prios: Vec<u64> = p.tasks.iter().map(|t| t.priority).collect();
        assert_eq!(prios, (0..cfg.nbnd as u64).collect::<Vec<_>>());
    }
}

#[test]
fn uncontended_node_is_a_lower_bound() {
    let knl = KnlConfig::paper();
    let comm = CommModel::paper();
    let cfg = small(SchedulerPolicy::Serial);
    let contended = run_modeled_with(cfg, &knl, &ContentionModel::paper(), &comm);
    let free = run_modeled_with(cfg, &knl, &ContentionModel::uncontended(), &comm);
    assert!(free.runtime <= contended.runtime * (1.0 + 1e-12));
}

#[test]
fn efficiency_factors_of_modeled_runs_are_sane() {
    let a = run_modeled(small(SchedulerPolicy::Serial));
    let f = efficiency_factors(&a.trace, &a.trace, Some(a.runtime), Some(a.ideal_runtime));
    // Self-comparison: scalabilities are exactly 1.
    assert!((f.scal.computation - 1.0).abs() < 1e-12);
    assert!((f.scal.ipc - 1.0).abs() < 1e-12);
    assert!((f.scal.instructions - 1.0).abs() < 1e-12);
    assert!(f.intra.load_balance > 0.5 && f.intra.load_balance <= 1.0 + 1e-9);
    let transfer = f.intra.transfer.expect("ideal runtime given");
    assert!(transfer > 0.0 && transfer <= 1.0 + 1e-9);
}

#[test]
fn more_lanes_do_not_increase_total_flops() {
    // Work conservation across configurations: total planned flops is the
    // same no matter how many ranks split it.
    let mut c2 = FftxConfig::small(2, 2, SchedulerPolicy::Serial);
    c2.nbnd = 4;
    let mut c4 = FftxConfig::small(4, 1, SchedulerPolicy::Serial);
    c4.nbnd = 4;
    let f2 = {
        let p = Problem::new(c2);
        build_programs(&p).iter().map(|r| r.total_flops()).sum::<f64>()
    };
    let f4 = {
        let p = Problem::new(c4);
        build_programs(&p).iter().map(|r| r.total_flops()).sum::<f64>()
    };
    // Identical FFT work; bookkeeping (prep/copy) differs slightly with the
    // layout, so allow a modest band.
    assert!(
        (f2 / f4 - 1.0).abs() < 0.30,
        "total flops diverge: {f2} vs {f4}"
    );
}
