//! Every scheduler policy's wall clock on this host, raced in-run.
//!
//! The KNL model ranks the fine-grained policies first; this bin measures
//! what each one costs here. It runs the real engine (`run_policy`) in
//! alternating rounds, one call per row per round, so host drift lands on
//! every row alike, and prints the median milliseconds per band:
//!
//! - the 14³ serving problem (32 bands a call): all five policies at 2×1,
//!   and serial, task-per-FFT and async at 1×2;
//! - the 60³ dense-slab problem (8 bands a call): serial at 1×2 and
//!   task-per-FFT at 2×1.
//!
//! It also prints `async_over_fft_14_2x1`, the split-phase policy's band
//! time over task-per-FFT's on 14³ at 2×1: the task runtime's per-task
//! cost, which the model charges as 1% of a band. The ratio moves by about
//! 0.2 between runs of one binary, so the bin is a measurement tool: it
//! writes no artifact and gates nothing (`schedulers` and `golden_bitwise`
//! already check that every policy computes the same bands).
//!
//! ```sh
//! cargo run --release -p fftx-bench --bin policies
//! ```

use fftx_core::{run_policy, FftxConfig, Problem, SchedulerPolicy};
use std::sync::Arc;
use std::time::Instant;

/// One grid: its geometry, bands per call and rounds.
struct Grid {
    name: &'static str,
    ecutwfc: f64,
    alat: f64,
    nbnd: usize,
    rounds: usize,
}

static SERVING: Grid = Grid {
    name: "14",
    ecutwfc: 6.0,
    alat: 8.0,
    nbnd: 32,
    rounds: 51,
};

static DENSE: Grid = Grid {
    name: "60",
    ecutwfc: 40.0,
    alat: 14.0,
    nbnd: 8,
    rounds: 13,
};

/// One raced row: a policy on an R×T layout of a grid.
struct Row {
    grid: &'static Grid,
    policy: SchedulerPolicy,
    nr: usize,
    ntg: usize,
    problem: Arc<Problem>,
    ms_per_band: Vec<f64>,
}

impl Row {
    fn new(grid: &'static Grid, policy: SchedulerPolicy, nr: usize, ntg: usize) -> Row {
        let cfg = FftxConfig {
            ecutwfc: grid.ecutwfc,
            alat: grid.alat,
            nbnd: grid.nbnd,
            ..FftxConfig::small(nr, ntg, policy)
        };
        Row {
            grid,
            policy,
            nr,
            ntg,
            problem: Problem::new(cfg),
            ms_per_band: Vec::new(),
        }
    }

    fn key(&self) -> String {
        format!(
            "{}_{}_{}x{}",
            self.policy.name(),
            self.grid.name,
            self.nr,
            self.ntg
        )
    }

    fn race_once(&mut self) {
        let t = Instant::now();
        run_policy(&self.problem, self.policy);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        self.ms_per_band.push(ms / self.grid.nbnd as f64);
    }

    fn median(&self) -> f64 {
        let mut xs = self.ms_per_band.clone();
        xs.sort_by(f64::total_cmp);
        xs[xs.len() / 2]
    }
}

fn main() {
    println!("=== Every scheduler policy's wall clock, raced in-run ===\n");
    use SchedulerPolicy::{Hybrid, Serial, TaskAsync, TaskPerFft, TaskPerStep};
    let mut rows: Vec<Row> = [Serial, TaskPerStep, TaskPerFft, TaskAsync, Hybrid]
        .into_iter()
        .map(|p| Row::new(&SERVING, p, 2, 1))
        .chain([Serial, TaskPerFft, TaskAsync].map(|p| Row::new(&SERVING, p, 1, 2)))
        .chain([
            Row::new(&DENSE, Serial, 1, 2),
            Row::new(&DENSE, TaskPerFft, 2, 1),
        ])
        .collect();

    for grid in [&SERVING, &DENSE] {
        for _ in 0..grid.rounds {
            for row in rows.iter_mut().filter(|r| r.grid.name == grid.name) {
                row.race_once();
            }
        }
    }

    for row in &rows {
        println!(
            "{:>3}³  {:<7} {}x{}  {:>8.4} ms/band",
            row.grid.name,
            row.policy.name(),
            row.nr,
            row.ntg,
            row.median()
        );
    }
    let ms = |key: &str| {
        rows.iter()
            .find(|r| r.key() == key)
            .map_or(f64::NAN, Row::median)
    };
    let ratio = ms("async_14_2x1") / ms("fft_14_2x1");
    println!("\nasync_over_fft_14_2x1 (async / task-per-FFT on 14³ at 2x1): {ratio:.3}");
}
