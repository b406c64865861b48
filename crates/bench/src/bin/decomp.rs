//! Decomposition shoot-out: slab (one sticks↔planes exchange) versus
//! pencil (2-D process grid, two smaller transpose exchanges) versus the
//! tuner's auto choice.
//!
//! Three claims are gated:
//!
//! 1. **The lowering is free of numerics** — on the real engine every
//!    scheduler policy produces bit-identical bands under either
//!    decomposition (spot-checked here; the golden suite pins the full
//!    matrix).
//! 2. **Pencil wins at scale** — on the paper's network model the two
//!    p1/p2-sized exchanges beat the single r-sized alltoall once the
//!    per-message cost dominates, so modeled scatter throughput at high
//!    rank counts is at least slab's, and `choose_decomp` always picks
//!    the cheaper side.
//! 3. **Auto dominates** — the placement tuner's auto decision (which
//!    searches both decompositions) is never worse than either fixed
//!    decomposition, for every workload class.

use fftx_bench::{CheckKind, GateOp, Harness};
use fftx_core::{
    choose_decomp, modeled_scatter_seconds, run_policy, simulate_config, Decomposition, FftxConfig,
    Problem, SchedulerPolicy,
};
use fftx_knlsim::{CommModel, ContentionModel, KnlConfig};
use fftx_serve::{GeometryClass, Tuner, TunerConfig};

const SEED: u64 = 20170814;

fn main() {
    println!("=== Decomposition: slab vs pencil vs auto ===\n");
    let mut h = Harness::new("decomp");

    // --- Real engine: bitwise equivalence across policies. ---
    println!("--- real engine: slab vs pencil bitwise ---");
    let mut bitwise_ok = true;
    for policy in SchedulerPolicy::ALL {
        for (nr, ntg) in [(4, 1), (6, 1)] {
            let mut slab_cfg = FftxConfig::small(nr, ntg, policy);
            slab_cfg.seed = SEED;
            let pencil_cfg = slab_cfg.with_decomp(Decomposition::Pencil);
            let s = run_policy(&Problem::new(slab_cfg), policy);
            let p = run_policy(&Problem::new(pencil_cfg), policy);
            let same = s.bands == p.bands;
            bitwise_ok &= same;
            println!(
                "  {:<8} {}x{}  bands {}",
                policy.name(),
                nr,
                ntg,
                if same { "match" } else { "DIVERGE" }
            );
        }
    }
    println!();

    // --- Network model: scatter cost sweep over rank counts. ---
    // 256 KiB is a representative per-band exchange buffer at paper scale;
    // the message-count savings of the two grid-sized exchanges overtake
    // their extra bandwidth pass between 16 and 32 ranks there.
    println!("--- modeled scatter seconds (paper network, 256 KiB buffer) ---");
    let bytes = 1 << 18;
    let mut rows = String::from("r,slab_s,pencil_s,auto\n");
    let mut auto_matches_best = true;
    let mut speedup_r64 = 0.0;
    for r in [2usize, 4, 8, 16, 32, 64, 128, 256] {
        let slab = modeled_scatter_seconds(Decomposition::Slab, r, bytes);
        let pencil = modeled_scatter_seconds(Decomposition::Pencil, r, bytes);
        let auto = choose_decomp(r, bytes);
        // Auto must always land on the cheaper lowering.
        auto_matches_best &= modeled_scatter_seconds(auto, r, bytes) <= slab.min(pencil) + 1e-15;
        if r == 64 {
            speedup_r64 = slab / pencil;
        }
        println!(
            "  r {:>3}  slab {:.3e}s  pencil {:.3e}s  auto {}",
            r,
            slab,
            pencil,
            auto.name()
        );
        rows.push_str(&format!("{r},{slab:.9e},{pencil:.9e},{}\n", auto.name()));
    }
    h.artifact("decomp_scatter_sweep.csv", &rows, CheckKind::Byte);
    println!();

    // --- End-to-end modeled runs at high rank counts. The paper model's
    // single network channel serializes every in-flight collective, even
    // ones over disjoint rank sets — that arbitration cannot express the
    // pencil's central win (its p1 row exchanges touch disjoint ranks and
    // proceed concurrently on the real mesh). The end-to-end comparison
    // therefore runs BOTH decompositions under the same mesh model with 16
    // parallel channels; everything else (latency, bandwidth, per-message
    // cost, contention) is the paper model unchanged. ---
    println!("--- modeled end-to-end (paper network, 16-channel mesh) ---");
    let knl = KnlConfig::paper();
    let contention = ContentionModel::paper();
    let mesh = CommModel {
        channels: 16,
        ..CommModel::paper()
    };
    let e2e_ratio = |nr: usize, ntg: usize| {
        let mut cfg = FftxConfig::paper(nr, SchedulerPolicy::Serial);
        cfg.ntg = ntg;
        let slab = simulate_config(cfg, &knl, &contention, &mesh).runtime;
        let pencil = simulate_config(
            cfg.with_decomp(Decomposition::Pencil),
            &knl,
            &contention,
            &mesh,
        )
        .runtime;
        println!(
            "  {nr:>3}x{ntg}  slab {slab:.4}s  pencil {pencil:.4}s  ({:.2}% of slab)",
            100.0 * pencil / slab
        );
        (slab, pencil)
    };
    let (slab_64, pencil_64) = e2e_ratio(64, 4);
    let (slab_128, pencil_128) = e2e_ratio(128, 2);
    println!();

    // --- Tuner: auto vs the fixed-decomposition baselines, per class. ---
    println!("--- tuner: auto vs fixed decompositions per workload class ---");
    let mut trows = String::from("class,nbnd,auto_s,slab_s,pencil_s,auto_label\n");
    let mut worst_ratio: f64 = 0.0;
    for class in GeometryClass::ALL {
        for nbnd in [4usize, 8] {
            let mut t = Tuner::new(TunerConfig::default());
            let auto = t.decide(class, nbnd);
            let slab = t.decide_decomp(class, nbnd, Decomposition::Slab).service_s;
            let pencil = t.decide_decomp(class, nbnd, Decomposition::Pencil).service_s;
            let best_fixed = slab.min(pencil);
            worst_ratio = worst_ratio.max(auto.service_s / best_fixed);
            println!(
                "  {:<7} nbnd {:>2}  auto {:.4e}s ({})  slab {:.4e}s  pencil {:.4e}s",
                class.name(),
                nbnd,
                auto.service_s,
                auto.placement.label(),
                slab,
                pencil
            );
            trows.push_str(&format!(
                "{},{},{:.9e},{:.9e},{:.9e},{}\n",
                class.name(),
                nbnd,
                auto.service_s,
                slab,
                pencil,
                auto.placement.label()
            ));
        }
    }
    h.artifact("decomp_tuner.csv", &trows, CheckKind::Byte);
    println!();

    h.metric_bool("bitwise_identical_bands", bitwise_ok)
        .metric_bool("auto_scatter_matches_best", auto_matches_best)
        .metric_f64("pencil_scatter_speedup_r64", speedup_r64, 4)
        .metric_f64("slab_e2e_64_s", slab_64, 6)
        .metric_f64("pencil_e2e_64_s", pencil_64, 6)
        .metric_f64("pencil_e2e_vs_slab_64", pencil_64 / slab_64, 4)
        .metric_f64("slab_e2e_128_s", slab_128, 6)
        .metric_f64("pencil_e2e_128_s", pencil_128, 6)
        .metric_f64("pencil_e2e_vs_slab_128", pencil_128 / slab_128, 4)
        .metric_f64("auto_vs_best_fixed_ratio", worst_ratio, 6);
    h.gate(
        "slab and pencil produce bit-identical bands on the real engine",
        "bitwise_identical_bands",
        GateOp::Eq,
        1.0,
    )
    .gate(
        "choose_decomp always picks the cheaper modeled lowering",
        "auto_scatter_matches_best",
        GateOp::Eq,
        1.0,
    )
    .gate(
        "pencil beats slab modeled scatter throughput at 64 ranks (CI gate)",
        "pencil_scatter_speedup_r64",
        GateOp::Ge,
        1.0,
    )
    .gate(
        "pencil end-to-end no slower than slab at 64 modeled ranks",
        "pencil_e2e_vs_slab_64",
        GateOp::Le,
        1.0,
    )
    .gate(
        "pencil end-to-end beats slab at 128 modeled ranks",
        "pencil_e2e_vs_slab_128",
        GateOp::Le,
        1.0,
    )
    .gate(
        "auto placement never worse than the best fixed decomposition",
        "auto_vs_best_fixed_ratio",
        GateOp::Le,
        1.0 + 1e-9,
    );
    std::process::exit(h.finish());
}
