//! Exact counts: they repeat bit for bit across runs, agree between the
//! untraced and the traced run, and (for the kernel) do not depend on the
//! seed, because they depend only on geometry and policy.

use fftx_wallbench::{run, Budget, Metrics, Report, Workload, COUNTS};

/// The smallest budget: every loop stops at its minimum count.
const QUICK: Budget = Budget {
    seconds: 0.0,
    min_calls: 3,
    min_reps: 1,
    setup_reps: 1,
};

fn quick(w: Workload, seed: u64, traced: bool) -> Report {
    let r = run(w, seed, &QUICK, traced).expect("run completes");
    assert!(
        r.correct,
        "{} seed {seed} traced={traced}: checks failed",
        w.name()
    );
    assert_eq!(r.failed, 0);
    assert!(r.attempted > 0);
    r
}

fn names(m: &Metrics) -> Vec<&'static str> {
    m.iter().map(|c| c.0).collect()
}

/// The counts both reports carry must be equal, bit for bit.
fn assert_same_counts(a: &Metrics, b: &Metrics, what: &str) -> usize {
    let mut shared = 0;
    for (name, value, _) in a.iter() {
        if let Some(other) = b.get(name) {
            assert_eq!(
                value.to_bits(),
                other.to_bits(),
                "{what}: {name} {value} vs {other}"
            );
            shared += 1;
        }
    }
    shared
}

const KERNEL_COUNTS: [&str; 6] = [
    "fft.flops_per_band",
    "core.plan.bytes_per_band",
    "vmpi.msgs_per_band",
    "vmpi.bytes_per_band",
    "taskrt.tasks_per_band",
    "trace.events_per_band",
];

const FLEET_COUNTS: [&str; 5] = [
    "serve.journal.records_per_job",
    "serve.tuner.cold_keys",
    "serve.batch.coalesce",
    "serve.batch.pad_waste",
    "serve.exec.threads",
];

fn expected(w: Workload) -> &'static [&'static str] {
    match w {
        Workload::FleetReplay => &FLEET_COUNTS,
        _ => &KERNEL_COUNTS,
    }
}

fn check_workload(w: Workload) {
    let a = quick(w, 7, false);
    let b = quick(w, 7, false);
    for name in expected(w) {
        assert!(
            a.counts.get(name).is_some(),
            "{}: missing count {name}",
            w.name()
        );
    }
    assert!(names(&a.counts).iter().all(|n| COUNTS.contains(n)));
    let n = assert_same_counts(&a.counts, &b.counts, "repeat");
    assert_eq!(n, expected(w).len());

    let t = quick(w, 7, true);
    let shared = assert_same_counts(&a.counts, &t.counts, "untraced vs traced");
    assert_eq!(
        shared,
        expected(w).len(),
        "{}: traced run lacks counts",
        w.name()
    );
}

#[test]
fn dense_slab_counts_are_exact() {
    check_workload(Workload::DenseSlab);
}

#[test]
fn sparse_async_counts_are_exact() {
    check_workload(Workload::SparseAsync);
}

#[test]
fn fleet_replay_counts_are_exact() {
    check_workload(Workload::FleetReplay);
}

#[test]
fn kernel_counts_do_not_depend_on_the_seed() {
    for w in [Workload::DenseSlab, Workload::SparseAsync] {
        let a = quick(w, 1, false);
        let b = quick(w, 2, false);
        let n = assert_same_counts(&a.counts, &b.counts, "second seed");
        assert_eq!(n, KERNEL_COUNTS.len());
    }
}

#[test]
fn untraced_run_prints_every_end_to_end_metric() {
    let r = quick(Workload::SparseAsync, 3, false);
    let printed = names(&r.metrics);
    assert_eq!(printed, fftx_wallbench::END_TO_END.to_vec());
    assert!(r.metrics.iter().all(|m| m.1 > 0.0 && m.1.is_finite()));
    let json = r.to_json();
    assert!(json.starts_with("{\"correct\": true, \"attempted\": "));
    assert!(json.contains("\"band_ms_p90\": {\"value\": "));
}
