//! Figure 7: the effect of de-synchronising the compute phases — timelines
//! (left) and IPC × duration histograms (right) for the original 8×8 vs the
//! OmpSs 8×8 execution. Paper claims: the original runs its phases in
//! synchronised blocks, the OmpSs version scatters them; the main compute
//! phase's IPC rises from ~0.75 to ~0.85.

use fftx_bench::{CheckKind, GateOp, Harness};
use fftx_core::{run_modeled, FftxConfig, ModeledRun, SchedulerPolicy};
use fftx_trace::{render_timeline, IpcHistogram, StateClass, TimelineOptions};

/// Duration-weighted mean count of main-phase co-runners observed by a
/// main-phase burst — 64 in perfect lockstep, ~(main-phase time share)·64
/// when fully de-synchronised.
fn concentration(run: &ModeledRun) -> f64 {
    let trace = &run.trace;
    let (t0, t1) = (run.runtime * 0.1, run.runtime * 0.9);
    let mut num = 0.0;
    let mut den = 0.0;
    for i in 0..400 {
        let t = t0 + (t1 - t0) * (i as f64 + 0.5) / 400.0;
        let mut xy = 0.0;
        for r in &trace.compute {
            if r.t_start <= t
                && t < r.t_end
                && (r.class == StateClass::FftXy || r.class == StateClass::Vofr)
            {
                xy += 1.0;
            }
        }
        num += xy * xy;
        den += xy;
    }
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn main() {
    println!("=== Figure 7: de-synchronisation, original 8x8 vs OmpSs 8x8 ===\n");
    let orig = run_modeled(FftxConfig::paper(8, SchedulerPolicy::Serial));
    let ompss = run_modeled(FftxConfig::paper(8, SchedulerPolicy::TaskPerFft));
    let mut h = Harness::new("fig7");

    for (name, run) in [("original", &orig), ("ompss", &ompss)] {
        println!("--- {name} (runtime {:.4}s) ---", run.runtime);
        // A mid-run window, a few iterations wide, like the paper's crop.
        let window = (run.runtime * 0.35, run.runtime * 0.65);
        let tl = render_timeline(
            &run.trace,
            &TimelineOptions {
                width: 100,
                window: Some(window),
                show_comm: false,
            },
        );
        for (i, line) in tl.lines().enumerate() {
            if i < 18 || line.starts_with("legend") {
                println!("{line}");
            }
        }
        println!("  ...");

        let hist = IpcHistogram::from_trace(&run.trace, Some(StateClass::FftXy), 40, 0.0, 1.2);
        println!("\nIPC histogram of the main (xy-FFT) phase:");
        print!("{}", {
            // Only show a subset of lanes for readability.
            let rendered = hist.render();
            rendered
                .lines()
                .take(14)
                .chain(rendered.lines().filter(|l| l.trim_start().starts_with("ipc:")))
                .collect::<Vec<_>>()
                .join("\n")
        });
        println!("\n  main-phase mean IPC: {:.3}, spread (stddev): {:.3}\n",
            hist.weighted_mean_ipc(), hist.ipc_spread());
        h.artifact(&format!("fig7_hist_{name}.csv"), &hist.to_csv(), CheckKind::Byte);
    }

    let ipc_orig = orig.trace.mean_ipc(StateClass::FftXy);
    let ipc_ompss = ompss.trace.mean_ipc(StateClass::FftXy);
    let conc_orig = concentration(&orig);
    let conc_ompss = concentration(&ompss);
    let spread_orig = IpcHistogram::from_trace(&orig.trace, Some(StateClass::FftXy), 60, 0.0, 1.2)
        .ipc_spread();
    let spread_ompss =
        IpcHistogram::from_trace(&ompss.trace, Some(StateClass::FftXy), 60, 0.0, 1.2).ipc_spread();

    let mut csv = String::from("version,main_ipc,ipc_spread,main_phase_concentration\n");
    csv.push_str(&format!("original,{ipc_orig:.4},{spread_orig:.4},{conc_orig:.2}\n"));
    csv.push_str(&format!("ompss,{ipc_ompss:.4},{spread_ompss:.4},{conc_ompss:.2}\n"));
    h.artifact("fig7_summary.csv", &csv, CheckKind::Byte);

    println!(
        "IPC {ipc_orig:.3} -> {ipc_ompss:.3}; main-phase co-runners {conc_orig:.1} -> \
         {conc_ompss:.1} (of 64); IPC stddev {spread_orig:.3} -> {spread_ompss:.3}"
    );
    h.metric_f64("ipc_original", ipc_orig, 4)
        .metric_f64("ipc_ompss", ipc_ompss, 4)
        .metric_f64("ipc_gain", ipc_ompss - ipc_orig, 4)
        .metric_f64("concentration_original", conc_orig, 2)
        .metric_f64("concentration_ompss", conc_ompss, 2)
        .metric_f64("concentration_drop", conc_orig - conc_ompss, 2)
        .metric_f64("ipc_spread_original", spread_orig, 4)
        .metric_f64("ipc_spread_ompss", spread_ompss, 4)
        .metric_bool("ompss_spread_wider", spread_ompss > spread_orig);
    h.gate(
        "main-phase IPC rises with de-synchronisation (paper: 0.75 -> 0.85)",
        "ipc_gain",
        GateOp::Ge,
        0.03,
    )
    .gate(
        "OmpSs main-phase IPC lands near the paper's 0.85 (>= 0.78)",
        "ipc_ompss",
        GateOp::Ge,
        0.78,
    )
    .gate(
        "OmpSs main-phase IPC stays below 0.95",
        "ipc_ompss",
        GateOp::Le,
        0.95,
    )
    .gate(
        "phases are de-synchronised (lower main-phase concentration)",
        "concentration_drop",
        GateOp::Ge,
        4.0,
    )
    .gate(
        "OmpSs IPC distribution is more scattered (the 'chaotic' histogram)",
        "ompss_spread_wider",
        GateOp::Eq,
        1.0,
    );
    std::process::exit(h.finish());
}
