//! The two task-based optimisation strategies of Section IV, executed for
//! real: strategy 1 turns every pipeline step into a dependency-chained
//! task (communication/computation overlap), strategy 2 turns every band's
//! whole FFT into one independent task (de-synchronisation). Both must — and
//! do — produce bit-identical results to the static original.
//!
//! Run with: `cargo run --release --example ompss_pipeline`

use fftxlib_repro::core::{run_policy, FftxConfig, Problem, SchedulerPolicy};
use fftxlib_repro::fft::max_dist;
use fftxlib_repro::trace::{render_timeline, TimelineOptions};

fn main() {
    let base = FftxConfig::small(2, 3, SchedulerPolicy::Serial);
    println!("Strategy comparison on a small real problem ({} ranks x {} threads/groups, {} bands)\n",
        base.nr, base.ntg, base.nbnd);

    let mut reference: Option<Vec<Vec<fftxlib_repro::fft::Complex64>>> = None;
    for mode in [
        SchedulerPolicy::Serial,
        SchedulerPolicy::TaskPerStep,
        SchedulerPolicy::TaskPerFft,
    ] {
        let mut config = base;
        config.mode = mode;
        let problem = Problem::new(config);
        let out = run_policy(&problem, mode);

        match &reference {
            None => reference = Some(out.bands.clone()),
            Some(expect) => {
                let worst = out
                    .bands
                    .iter()
                    .zip(expect)
                    .map(|(a, b)| max_dist(a, b))
                    .fold(0.0_f64, f64::max);
                assert!(worst < 1e-12, "{mode:?} diverged: {worst}");
            }
        }

        let tasks = out.trace.tasks.len();
        let threads: std::collections::BTreeSet<usize> = out
            .trace
            .compute
            .iter()
            .map(|r| r.lane.thread)
            .collect();
        println!(
            "{:<12} wall {:.4}s, {:>3} task records, compute on worker threads {:?}",
            mode.label(),
            out.fft_phase_s,
            tasks,
            threads
        );

        if mode == SchedulerPolicy::TaskPerStep {
            // Show the step-task pipeline of rank 0: chains of
            // pack -> fftz -> scatter -> fftxy -> vofr -> ... per band,
            // with different bands overlapping.
            println!("\n  task pipeline on rank 0 (first 12 task records):");
            let mut recs: Vec<_> = out
                .trace
                .tasks
                .iter()
                .filter(|t| t.lane.rank == 0)
                .collect();
            recs.sort_by(|a, b| a.t_start.total_cmp(&b.t_start));
            for t in recs.iter().take(12) {
                println!(
                    "    {:<16} worker {}  {:.6}s .. {:.6}s",
                    t.label, t.lane.thread, t.t_start, t.t_end
                );
            }
            println!();
        }
    }

    println!("\nAll three strategies produced identical bands (max deviation < 1e-12).\n");

    // Timeline of the task-per-fft run, lanes = (rank, worker).
    let mut config = base;
    config.mode = SchedulerPolicy::TaskPerFft;
    let problem = Problem::new(config);
    let out = run_policy(&problem, SchedulerPolicy::TaskPerFft);
    println!("Compute timeline of the task-per-FFT run (lanes are rank x worker):");
    print!(
        "{}",
        render_timeline(
            &out.trace,
            &TimelineOptions {
                width: 100,
                window: None,
                show_comm: true,
            }
        )
    );
}
