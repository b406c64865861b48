//! ABFT verification of the FFT pipeline: algorithm-based fault tolerance
//! that detects silent *compute* corruption — the faults the checksummed
//! transport cannot see because they happen inside a rank's FFT unit, not
//! on the wire — and heals each through the existing recovery machinery.
//!
//! The division of labour in the integrity layer:
//!
//! - **Wire integrity** is the transport's job: every `alltoall` /
//!   `alltoallv` chunk is checksummed at pack time and verified at unpack
//!   (`fftx-vmpi`), so [`PayloadCorrupt`](fftx_fault::PayloadCorrupt)
//!   strikes surface as typed [`VmpiError::Integrity`] errors.
//! - **Compute integrity** is this module's job: a bit flip in an FFT
//!   output buffer ([`fftx_fault::BitFlip`]) or a degraded vector lane of
//!   one rank's FFT unit ([`StuckLane`]) produces *plausible* numbers the
//!   transport happily checksums and delivers. ABFT invariants of the
//!   transform itself catch them.
//!
//! Two invariants are checked per FFT leg, selected by [`VerifyMode`]:
//!
//! - **`cheap`** — Parseval's theorem. The repository's FFTs follow the
//!   Quantum ESPRESSO scaling convention (forward carries `1/N`, backward
//!   is unnormalised), so each leg multiplies total energy by exactly `N`
//!   (inverse) or `1/N` (forward) up to rounding: `E_out ≈ factor · E_in`
//!   within [`PARSEVAL_TOL`]. One pass over the buffer per leg. The
//!   forward xy leg y-transforms only the stick columns and leaves the
//!   rest x-transformed, so it checks the identity of that restricted
//!   transform instead (`Parseval::StickCols`), which still covers every
//!   element of the buffer.
//! - **`full`** — recompute and compare. The leg input is snapshotted, the
//!   leg recomputed on an independent (clean) path, and the outputs
//!   compared bit-exactly. Catches *every* corrupting flip, at ~2× FFT
//!   cost; a mismatch is repaired in place from the clean recomputation
//!   (the "verify-and-recompute" in ABFT), so full mode needs no rollback
//!   for transient faults.
//!
//! **Detectability contract.** Injected transient strikes are constrained
//! to the high exponent bit of one `f64` component
//! (`apply_significant_strike`): such a flip rescales the component by
//! `2^±512`, which no finite wavefunction value hides from the energy
//! check. Raw mantissa flips below the Parseval tolerance are numerically
//! indistinguishable from kernel rounding — `cheap` mode cannot and does
//! not claim to see them (that is `full` mode's job); the high-exponent
//! strike is the representative *detectable* silent error, and it is what
//! the integrity bench gates 100% detection on.
//!
//! **Symmetry.** Detection must not desynchronise the per-communicator
//! collective sequence counters, so a rank never aborts a batch on its own
//! verdict: local flags accumulate through the batch, a world-wide
//! OR-allreduce agrees on the outcome, and then *every* rank rolls the
//! batch back to its checkpoint in lockstep — the replay ladder of the
//! serial policy's shared batch loop, to which this module supplies the
//! leg hook and the replay rule. Transient profiles bound their strikes
//! per key, so the rollback budget provably clears them; budget
//! exhaustion escalates a typed [`VmpiError::Integrity`].
//!
//! **Persistent faults.** A stuck lane strikes on every replay — rollback
//! cannot clear it. Instead, every rank's FFT unit is *probed* before the
//! run ([`probe_fft_unit`]: a known-energy vector plus a linearity check,
//! pure in `(seed, rank)` so every process computes the same verdict), and
//! a flaky rank is escalated straight to [`run_eviction`] — it is evicted
//! at batch 0, computes nothing, and the survivors re-plan the layout. One
//! eviction per run: a second flaky rank escalates as a typed error.

use crate::config::SchedulerPolicy;
use crate::plan::ExecPlan;
use crate::problem::Problem;
use crate::recovery::run_eviction;
use crate::stages::{finish_run, Attempt, BatchRule, RunOutput, SerialRank};
use fftx_fault::{mix64, CorruptionConfig, RankDeath, RecoveryConfig, Strike, StuckLane};
use fftx_fft::{c64, cached_plan, cft_1z, Complex64, Direction};
use fftx_trace::TraceSink;
use fftx_vmpi::{Communicator, VmpiError, World};
use std::sync::Arc;

/// Relative tolerance of the `cheap`-mode Parseval check. FFT rounding
/// error is O(ε·log N) ≈ 1e-14 for the grids here; a high-exponent strike
/// moves the energy by many orders of magnitude. 1e-9 sits comfortably
/// between the two.
pub const PARSEVAL_TOL: f64 = 1e-9;

/// Salt of the strike-target-rank draw (disjoint from every profile salt).
const TARGET_SALT: u64 = 0x7C15_8A2D_93E4_F506;

// ---------------------------------------------------------------------
// Verify mode
// ---------------------------------------------------------------------

/// How much ABFT verification [`run_verified`] runs per FFT leg. Callers
/// pass it per run: the `integrity` bench sweeps every mode, and the
/// serving backend runs `cheap` on batches under corruption chaos.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum VerifyMode {
    /// No compute verification (transport checksums still apply).
    #[default]
    Off,
    /// Parseval energy check per FFT leg (one buffer pass).
    Cheap,
    /// Bit-exact recompute-and-compare per FFT leg (~2× FFT cost), with
    /// in-place repair from the clean recomputation.
    Full,
}

impl VerifyMode {
    /// Every mode, in escalation order.
    pub const ALL: [VerifyMode; 3] = [VerifyMode::Off, VerifyMode::Cheap, VerifyMode::Full];

    /// The mode's name, as CSV columns and reports spell it.
    pub fn name(self) -> &'static str {
        match self {
            VerifyMode::Off => "off",
            VerifyMode::Cheap => "cheap",
            VerifyMode::Full => "full",
        }
    }

    /// Parses a mode name (the inverse of [`VerifyMode::name`]).
    pub fn parse(s: &str) -> Option<VerifyMode> {
        VerifyMode::ALL.iter().copied().find(|m| m.name() == s)
    }
}

/// What the verification layer did during one run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct VerifyStats {
    /// FFT-unit startup probes executed (one per world rank).
    pub probes: u64,
    /// World ranks whose FFT unit failed the startup probe.
    pub probe_failures: Vec<usize>,
    /// Parseval energy checks executed (summed over ranks).
    pub parseval_checks: u64,
    /// Full-mode leg recomputations executed (summed over ranks).
    pub recomputed_legs: u64,
    /// Full-mode legs whose output mismatched the clean recomputation and
    /// was repaired in place (summed over ranks).
    pub repaired_legs: u64,
    /// Band batches flagged corrupt by the world-wide agreement (counted
    /// once per rank-symmetric detection).
    pub detected_batches: u64,
    /// Band batches rolled back to their checkpoint and replayed.
    pub batch_rollbacks: u64,
    /// Ranks evicted after a failed probe.
    pub evictions: u64,
    /// World ranks that were evicted.
    pub evicted_ranks: Vec<usize>,
    /// Bytes of checkpoint state written, summed over ranks.
    pub checkpoint_bytes: u64,
}

// ---------------------------------------------------------------------
// The fault model: strikes applied to a rank's FFT-unit output
// ---------------------------------------------------------------------

/// Applies `rank`'s stuck lane to a complex buffer, viewing it as the f64
/// component stream the vector unit actually processes (lane `l` strikes
/// components `l, l+width, …`). Returns the number of components zeroed.
fn apply_stuck(st: &StuckLane, rank: u64, buf: &mut [Complex64]) -> usize {
    let Some(lane) = st.lane_of(rank) else {
        return 0;
    };
    let width = st.width as usize;
    let mut struck = 0;
    let mut f = lane as usize;
    while f < 2 * buf.len() {
        let c = &mut buf[f / 2];
        let v = if f.is_multiple_of(2) { &mut c.re } else { &mut c.im };
        if *v != 0.0 {
            *v = 0.0;
            struck += 1;
        }
        f += width;
    }
    struck
}

/// Applies a transient strike as a *high-exponent* flip of one f64
/// component: the component rescales by `2^±512` (or a flat zero becomes
/// 2.0), so the corruption is energy-visible on any finite value — the
/// detectability contract of the module docs. Returns `false` on an empty
/// buffer.
fn apply_significant_strike(s: &Strike, buf: &mut [Complex64]) -> bool {
    if buf.is_empty() {
        return false;
    }
    let f = (s.index_bits % (2 * buf.len() as u64)) as usize;
    let c = &mut buf[f / 2];
    let v = if f.is_multiple_of(2) { &mut c.re } else { &mut c.im };
    *v = f64::from_bits(v.to_bits() ^ (1u64 << 62));
    true
}

/// The world rank a transient strike against `key` lands on — hash-spread
/// so corruption exercises every rank's detection path over a run.
fn strike_target(key: u64, ranks: usize) -> usize {
    (mix64(key ^ TARGET_SALT) % ranks.max(1) as u64) as usize
}

/// Injects the modeled FFT-unit faults of world rank `comm.rank()` into a
/// leg's output buffer: a bounded transient strike when the rank is the
/// key's target, plus the rank's persistent stuck lane.
fn inject(c: &CorruptionConfig, comm: &Communicator, key: u64, attempt: u32, b: &mut [Complex64]) {
    let rank = comm.rank();
    if let Some(bf) = c.bitflip {
        if strike_target(key, comm.size()) == rank {
            if let Some(s) = bf.strike(key, attempt) {
                apply_significant_strike(&s, b);
            }
        }
    }
    if let Some(st) = c.stuck {
        apply_stuck(&st, rank as u64, b);
    }
}

/// The fault key of one FFT leg of one band batch.
fn leg_key(base: usize, leg: u64) -> u64 {
    ((base as u64) << 3) | leg
}

// ---------------------------------------------------------------------
// ABFT invariants
// ---------------------------------------------------------------------

/// Total energy `Σ |c|²` of a buffer.
fn energy(buf: &[Complex64]) -> f64 {
    buf.iter().map(|c| c.re * c.re + c.im * c.im).sum()
}

/// The energy identity a leg's `cheap` check holds its output to.
#[derive(Clone, Copy)]
enum Parseval<'a> {
    /// The leg transforms the whole buffer: `E_out = factor · E_in`.
    Whole(f64),
    /// The stick-aware forward xy leg of this plan. With `s = 1/(nx·ny)`,
    /// `b` the output energy on the plan's stick columns (y-transformed
    /// and scaled) and `a` the energy on the others (x-transformed only,
    /// so row Parseval gives them `nx` times their input energy):
    /// `a/(nx²·ny) + b = s·E_in`. With every column selected `a = 0` and
    /// this is [`Parseval::Whole`]`(s)` to the bit.
    StickCols(&'a ExecPlan),
}

impl Parseval<'_> {
    /// `(want, got)`: the output energy the identity predicts from an
    /// input of energy `e_in`, and the one `out` carries, weighed alike.
    fn energies(self, e_in: f64, out: &[Complex64]) -> (f64, f64) {
        match self {
            Parseval::Whole(factor) => (factor * e_in, energy(out)),
            Parseval::StickCols(plan) => {
                let (nx, ny) = (plan.grid.nr1, plan.grid.nr2);
                let (mut a, mut b) = (0.0, 0.0);
                for row in out.chunks_exact(nx) {
                    let mut cols = plan.stick_cols.iter().peekable();
                    for (x, c) in row.iter().enumerate() {
                        let e = c.re * c.re + c.im * c.im;
                        if cols.next_if_eq(&&x).is_some() {
                            b += e;
                        } else {
                            a += e;
                        }
                    }
                }
                let s = 1.0 / (nx * ny) as f64;
                (s * e_in, a / (nx * nx * ny) as f64 + b)
            }
        }
    }
}

/// Whether `got ≈ want` within relative tolerance `tol`. NaN never
/// compares close (a NaN-poisoned buffer is a detection, not an escape).
fn energy_close(got: f64, want: f64, tol: f64) -> bool {
    let scale = want.abs().max(got.abs()).max(f64::MIN_POSITIVE);
    (got - want).abs() / scale <= tol
}

/// Whether two buffers are bit-identical (distinguishes `-0.0` from `0.0`
/// and never equates NaNs — stricter than `==`, which is the point).
fn bits_equal(a: &[Complex64], b: &[Complex64]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.re.to_bits() == y.re.to_bits() && x.im.to_bits() == y.im.to_bits()
        })
}

// ---------------------------------------------------------------------
// The startup probe
// ---------------------------------------------------------------------

/// Probes `rank`'s FFT unit before the run: a z-FFT of two deterministic
/// known-energy vectors through the unit (kernel plus the rank's modeled
/// persistent faults), checked against Parseval and linearity. Pure in
/// `(corruption, rank, n)`, so every process computes the same verdict for
/// every rank without communicating — the agreement-free analogue of a
/// startup health collective. Returns `false` for a flaky unit.
///
/// A stuck-at-zero lane is linear, so the *energy* check is the one that
/// catches it; the linearity check covers the complementary class
/// (stuck-at-value, additive offsets) for free.
pub fn probe_fft_unit(corruption: &CorruptionConfig, rank: usize, n: usize) -> bool {
    let n = n.max(8);
    let unit = |x: &[Complex64]| -> Vec<Complex64> {
        let mut y = x.to_vec();
        let mut scratch = Vec::new();
        cft_1z(&cached_plan(n), &mut y, 1, n, Direction::Inverse, &mut scratch);
        if let Some(st) = corruption.stuck {
            apply_stuck(&st, rank as u64, &mut y);
        }
        y
    };
    // Two probe vectors with energy in every component (so every lane of
    // the unit carries signal), plus their sum for the linearity check.
    let a: Vec<Complex64> = (0..n)
        .map(|i| c64(1.5 + (i as f64 * 0.618).cos(), (i as f64 * 0.377).sin() - 0.25))
        .collect();
    let b: Vec<Complex64> = (0..n)
        .map(|i| c64((i as f64 * 0.271).sin() - 1.25, 0.75 + (i as f64 * 0.533).cos()))
        .collect();
    let (fa, fb) = (unit(&a), unit(&b));
    // Parseval: the inverse (unnormalised) z-FFT multiplies energy by n.
    if !energy_close(energy(&fa), n as f64 * energy(&a), PARSEVAL_TOL)
        || !energy_close(energy(&fb), n as f64 * energy(&b), PARSEVAL_TOL)
    {
        return false;
    }
    // Linearity: F(a+b) = F(a) + F(b) through the unit. Output magnitudes
    // are O(n); 1e-9 absolute dwarfs rounding for any grid here.
    let ab: Vec<Complex64> = a.iter().zip(&b).map(|(x, y)| *x + *y).collect();
    let fab = unit(&ab);
    fab.iter()
        .zip(fa.iter().zip(&fb))
        .all(|(s, (x, y))| {
            let d = *s - (*x + *y);
            d.re.abs() <= 1e-9 && d.im.abs() <= 1e-9
        })
}

// ---------------------------------------------------------------------
// The verify engine's batch rule
// ---------------------------------------------------------------------

/// The verify engine's rule for one rank: every FFT leg runs through the
/// fault model and the mode's invariant, and a batch replays from its
/// checkpoint when the world agrees it is corrupt.
struct Verifier<'a> {
    mode: VerifyMode,
    corruption: CorruptionConfig,
    /// The world: its rank is the fault-model identity (strike targeting,
    /// stuck lanes), and the verdict allreduce spans it.
    comm: &'a Communicator,
    /// The rank's plan (the forward xy leg's [`Parseval`] identity).
    plan: &'a ExecPlan,
    max_rollbacks: u32,
    /// `(expected, got)` energy bits of the running attempt's first local
    /// detection — the evidence carried into the escalation error.
    evidence: Option<(u64, u64)>,
    /// This rank's checks, recomputes, repairs and detections.
    stats: VerifyStats,
}

impl BatchRule for Verifier<'_> {
    /// `Off` must stay zero-overhead: it takes no checkpoint.
    fn checkpoints(&self) -> bool {
        self.mode != VerifyMode::Off
    }

    /// Runs one FFT leg through the fault model and the selected
    /// invariant: compute, inject, then check (`cheap`: the leg's
    /// [`Parseval`] identity; `full`: bit-exact recompute from the
    /// snapshot, repairing in place on mismatch).
    fn leg(
        &mut self,
        at: Attempt,
        leg: usize,
        buf: &mut [Complex64],
        run: &mut dyn FnMut(&mut [Complex64]),
    ) -> Result<(), VmpiError> {
        let key = leg_key(at.base, leg as u64);
        let faults = |b: &mut [Complex64]| inject(&self.corruption, self.comm, key, at.replays, b);
        match self.mode {
            VerifyMode::Off => {
                run(buf);
                faults(buf);
            }
            VerifyMode::Cheap => {
                let grid = &self.plan.grid;
                let (nz, nxy) = (grid.nr3 as f64, (grid.nr1 * grid.nr2) as f64);
                // The inverse xy leg skips only rows that are zero in and
                // out, so the whole-buffer identity holds for it as for the
                // z legs.
                let parseval = match leg {
                    0 => Parseval::Whole(nz),
                    1 => Parseval::Whole(nxy),
                    2 => Parseval::StickCols(self.plan),
                    _ => Parseval::Whole(1.0 / nz),
                };
                let e_in = energy(buf);
                run(buf);
                faults(buf);
                self.stats.parseval_checks += 1;
                let (want, got) = parseval.energies(e_in, buf);
                if !energy_close(got, want, PARSEVAL_TOL) {
                    self.evidence.get_or_insert((want.to_bits(), got.to_bits()));
                }
            }
            VerifyMode::Full => {
                let snapshot = buf.to_vec();
                run(buf);
                faults(buf);
                self.stats.recomputed_legs += 1;
                // Recompute on the clean path (the check unit: in the KNL
                // story, the scalar fallback kernel) and compare bit-exactly.
                let mut clean = snapshot;
                run(&mut clean);
                if !bits_equal(buf, &clean) {
                    buf.copy_from_slice(&clean);
                    self.stats.repaired_legs += 1;
                }
            }
        }
        Ok(())
    }

    /// Replays only a batch the whole world agrees is corrupt (a rank
    /// acting on its own flag would desynchronise the collective sequence
    /// counters); strikes are pure in (seed, key, attempt), so every rank
    /// replays in lockstep. A transport error escapes without a replay.
    fn replay(&mut self, at: Attempt, done: Result<(), VmpiError>) -> Result<bool, VmpiError> {
        done?;
        let evidence = self.evidence.take();
        let corrupt = self.mode != VerifyMode::Off
            && self.comm.allreduce(vec![u64::from(evidence.is_some())], |a, b| a | b)[0] != 0;
        if !corrupt {
            return Ok(false);
        }
        self.stats.detected_batches += 1;
        if at.replays >= self.max_rollbacks {
            let (expected, got) = evidence.unwrap_or((0, 0));
            return Err(VmpiError::Integrity {
                peer: self.comm.rank(),
                tag: at.k as u32,
                expected,
                got,
            });
        }
        Ok(true)
    }
}

// ---------------------------------------------------------------------
// The verified run
// ---------------------------------------------------------------------

/// Runs the original pipeline under the corruption model with ABFT
/// verification: every rank's FFT unit is probed up front (a flaky rank is
/// escalated straight to eviction with layout re-planning), then every FFT
/// leg of every batch runs through the selected invariant; a detected
/// corruption rolls the batch back to its checkpoint rank-symmetrically
/// (`cheap`) or is repaired in place from the clean recomputation
/// (`full`), and budget exhaustion — or a second flaky rank — escalates a
/// typed [`VmpiError::Integrity`].
///
/// Corruption delivered under [`VerifyMode::Off`] is the *point* of that
/// mode: it is the silent-data-corruption baseline the bench measures
/// detection against.
pub fn run_verified(
    problem: &Arc<Problem>,
    corruption: CorruptionConfig,
    mode: VerifyMode,
    recovery: &RecoveryConfig,
) -> Result<(RunOutput, VerifyStats), VmpiError> {
    let cfg = problem.config;
    assert!(
        matches!(cfg.mode, SchedulerPolicy::Serial),
        "run_verified: config mode must be Serial"
    );
    let p = cfg.vmpi_ranks();
    let mut stats = VerifyStats::default();

    if mode != VerifyMode::Off {
        stats.probes = p as u64;
        let flaky: Vec<usize> = (0..p)
            .filter(|&r| !probe_fft_unit(&corruption, r, problem.layout.grid.nr3))
            .collect();
        stats.probe_failures.clone_from(&flaky);
        if flaky.len() > 1 {
            // The eviction path heals one rank per run; report the excess
            // as a typed error instead of delivering corrupt data.
            return Err(VmpiError::Integrity {
                peer: flaky[1],
                tag: 0,
                expected: 1,
                got: flaky.len() as u64,
            });
        }
        if let Some(&victim) = flaky.first() {
            // Evict at batch 0: the victim's flaky unit computes nothing;
            // survivors recompute its bands deterministically.
            let (out, es) = run_eviction(problem, RankDeath::at(victim, 0), recovery)?;
            stats.evictions = es.evictions;
            stats.evicted_ranks = es.evicted_ranks;
            stats.checkpoint_bytes = es.checkpoint_bytes;
            return Ok((out, stats));
        }
    }

    let sink = TraceSink::new();
    let world = World::new(p).with_trace(sink.clone());
    let results = world.run(|comm| {
        let mut rank = SerialRank::start(problem, comm);
        let mut rule = Verifier {
            mode,
            corruption,
            comm,
            plan: problem.exec_plan(problem.layout.task_group_of(comm.rank())),
            max_rollbacks: recovery.max_rollbacks,
            evidence: None,
            stats: VerifyStats::default(),
        };
        rank.run(0, cfg.iterations(), &mut rule, |_, _| Ok(()))?;
        let span = rank.finish()?;
        Ok::<_, VmpiError>((rank.shares, span, rule.stats, rank.rollbacks, rank.ckpt_bytes))
    });
    let mut plain = Vec::with_capacity(results.len());
    for r in results {
        let (shares, span, rs, rollbacks, ckpt_bytes) = r?;
        stats.parseval_checks += rs.parseval_checks;
        stats.recomputed_legs += rs.recomputed_legs;
        stats.repaired_legs += rs.repaired_legs;
        // Detection and rollback decisions are rank-symmetric; count once.
        stats.detected_batches = stats.detected_batches.max(rs.detected_batches);
        stats.batch_rollbacks = stats.batch_rollbacks.max(rollbacks);
        stats.checkpoint_bytes += ckpt_bytes;
        plain.push((shares, span));
    }
    Ok((finish_run(&problem.layout, sink, plain), stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FftxConfig;
    use crate::stages::run_policy;
    use fftx_fault::BitFlip;

    fn problem(r: usize, t: usize) -> Arc<Problem> {
        Problem::new(FftxConfig::small(r, t, SchedulerPolicy::Serial))
    }

    #[test]
    fn verify_mode_parses_its_own_names() {
        for m in VerifyMode::ALL {
            assert_eq!(VerifyMode::parse(m.name()), Some(m));
        }
        assert_eq!(VerifyMode::parse("paranoid"), None);
        assert_eq!(VerifyMode::default(), VerifyMode::Off);
    }

    #[test]
    fn significant_strike_is_energy_visible_on_any_value() {
        for v in [0.0, 1.0, -3.25, 1e-300, 1e12] {
            let mut buf = vec![c64(v, v); 9];
            let s = Strike { index_bits: 5, bit: 17 };
            let before = energy(&buf);
            assert!(apply_significant_strike(&s, &mut buf));
            let after = energy(&buf);
            assert!(
                !energy_close(after, before, PARSEVAL_TOL),
                "strike on {v} must move the energy: {before} -> {after}"
            );
        }
        assert!(!apply_significant_strike(&Strike { index_bits: 0, bit: 0 }, &mut []));
    }

    #[test]
    fn stuck_lane_zeroes_the_component_stream() {
        let st = StuckLane::new(3, 1.0, 8);
        let lane = st.lane_of(0).expect("p=1 sticks") as usize;
        let mut buf = vec![c64(1.0, 2.0); 16];
        let n = apply_stuck(&st, 0, &mut buf);
        assert_eq!(n, 32 / 8, "every 8th of 32 components zeroed");
        for (i, c) in buf.iter().enumerate() {
            for (f, v) in [(2 * i, c.re), (2 * i + 1, c.im)] {
                if f % 8 == lane {
                    assert_eq!(v, 0.0, "component {f} stuck");
                } else {
                    assert_ne!(v, 0.0, "component {f} untouched");
                }
            }
        }
    }

    #[test]
    fn probe_passes_healthy_units_and_fails_stuck_ones() {
        let sticky = CorruptionConfig::sticky(11, 0.5);
        let st = sticky.stuck.expect("sticky preset");
        for rank in 0..32 {
            assert_eq!(
                probe_fft_unit(&sticky, rank, 18),
                st.lane_of(rank as u64).is_none(),
                "probe verdict must mirror the stuck-lane plan for rank {rank}"
            );
        }
        assert!((0..8).all(|r| probe_fft_unit(&CorruptionConfig::off(), r, 18)));
    }

    #[test]
    fn clean_verified_run_detects_nothing_and_matches_baseline() {
        let problem = problem(2, 2);
        let baseline = run_policy(&problem, SchedulerPolicy::Serial);
        for mode in VerifyMode::ALL {
            let (out, stats) =
                run_verified(&problem, CorruptionConfig::off(), mode, &RecoveryConfig::default())
                    .expect("clean run");
            assert_eq!(out.bands, baseline.bands, "{} changed the answer", mode.name());
            assert_eq!(stats.detected_batches, 0);
            assert_eq!(stats.batch_rollbacks, 0);
            assert_eq!(stats.repaired_legs, 0);
            assert!(stats.probe_failures.is_empty());
            match mode {
                VerifyMode::Off => assert_eq!(stats.parseval_checks, 0),
                VerifyMode::Cheap => assert!(stats.parseval_checks > 0),
                VerifyMode::Full => assert!(stats.recomputed_legs > 0),
            }
        }
    }

    #[test]
    fn off_mode_delivers_corrupted_results() {
        // The silent-data-corruption baseline: with verification off, an
        // injected compute fault flows straight into the answer.
        let problem = problem(2, 2);
        let baseline = run_policy(&problem, SchedulerPolicy::Serial);
        let corruption = CorruptionConfig {
            bitflip: Some(BitFlip::new(9, 1.0, 2)),
            ..CorruptionConfig::off()
        };
        let (out, stats) =
            run_verified(&problem, corruption, VerifyMode::Off, &RecoveryConfig::default())
                .expect("off mode never detects, so never escalates");
        assert_ne!(out.bands, baseline.bands, "corruption must reach the output");
        assert_eq!(stats.detected_batches, 0);
        assert_eq!(stats.checkpoint_bytes, 0, "Off stays zero-overhead");
    }

    #[test]
    fn cheap_mode_detects_rolls_back_and_restores_bitwise_identity() {
        let problem = problem(2, 2);
        let baseline = run_policy(&problem, SchedulerPolicy::Serial);
        let corruption = CorruptionConfig {
            bitflip: Some(BitFlip::new(9, 1.0, 2)),
            ..CorruptionConfig::off()
        };
        let (out, stats) =
            run_verified(&problem, corruption, VerifyMode::Cheap, &RecoveryConfig::default())
                .expect("bounded transients clear within the budget");
        assert!(stats.detected_batches > 0, "p=1.0 must strike and be seen");
        assert!(stats.batch_rollbacks > 0);
        assert!(stats.checkpoint_bytes > 0);
        assert_eq!(out.bands, baseline.bands, "recovery changed the answer");
    }

    #[test]
    fn cheap_mode_sees_a_strike_off_the_stick_columns_after_forward_xy() {
        // The forward xy leg leaves the columns without sticks
        // x-transformed and nothing reads them, so only the restricted
        // Parseval identity can see a strike there. Find a seed whose one
        // strike lands in such a column right after that leg.
        let problem = problem(2, 2);
        let baseline = run_policy(&problem, SchedulerPolicy::Serial);
        let (l, ranks) = (&problem.layout, problem.config.vmpi_ranks());
        let keys: Vec<u64> = (0..problem.config.iterations())
            .flat_map(|k| (0..4).map(move |leg| leg_key(k * l.t, leg)))
            .collect();
        let bitflip = (0u64..)
            .map(|seed| BitFlip::new(seed, 0.1, 1))
            .find(|bf| {
                let struck: Vec<u64> = keys
                    .iter()
                    .copied()
                    .filter(|&k| bf.strike(k, 0).is_some())
                    .collect();
                let [key] = struck[..] else { return false };
                let plan = problem.exec_plan(l.task_group_of(strike_target(key, ranks)));
                let s = bf.strike(key, 0).expect("struck");
                let at = (s.index_bits % (2 * plan.planes_len() as u64)) as usize / 2;
                key & 7 == 2 && !plan.stick_cols.contains(&(at % plan.grid.nr1))
            })
            .expect("some seed strikes one column without sticks");
        let corruption = CorruptionConfig {
            bitflip: Some(bitflip),
            ..CorruptionConfig::off()
        };
        let run = |mode| {
            run_verified(&problem, corruption, mode, &RecoveryConfig::default())
                .expect("one strike clears in one rollback")
        };
        let (off, _) = run(VerifyMode::Off);
        assert_eq!(off.bands, baseline.bands, "the struck column is never read");
        let (out, stats) = run(VerifyMode::Cheap);
        assert_eq!(
            stats.detected_batches, 1,
            "the identity covers the whole buffer"
        );
        assert_eq!(stats.batch_rollbacks, 1);
        assert_eq!(out.bands, baseline.bands, "recovery changed the answer");
    }

    #[test]
    fn full_mode_repairs_in_place_without_rollbacks() {
        let problem = problem(2, 2);
        let baseline = run_policy(&problem, SchedulerPolicy::Serial);
        let corruption = CorruptionConfig {
            bitflip: Some(BitFlip::new(9, 1.0, 2)),
            ..CorruptionConfig::off()
        };
        let (out, stats) =
            run_verified(&problem, corruption, VerifyMode::Full, &RecoveryConfig::default())
                .expect("repair needs no rollback");
        assert!(stats.repaired_legs > 0, "p=1.0 must strike and be repaired");
        assert_eq!(stats.batch_rollbacks, 0, "in-place repair, not replay");
        assert_eq!(out.bands, baseline.bands, "repair changed the answer");
    }

    #[test]
    fn exhausted_rollback_budget_escalates_to_integrity_error() {
        let problem = problem(2, 2);
        let corruption = CorruptionConfig {
            bitflip: Some(BitFlip::new(9, 1.0, 2)),
            ..CorruptionConfig::off()
        };
        let no_budget = RecoveryConfig {
            max_rollbacks: 0,
            ..RecoveryConfig::default()
        };
        let Err(err) = run_verified(&problem, corruption, VerifyMode::Cheap, &no_budget) else {
            panic!("exhausted budget must escalate");
        };
        assert!(
            matches!(err, VmpiError::Integrity { .. }),
            "expected Integrity, got {err:?}"
        );
    }

    #[test]
    fn sticky_rank_is_probed_and_evicted() {
        // 7 ranks as 7×1 (the eviction-compatible shape); find a seed whose
        // stuck-lane plan marks exactly one of them flaky.
        let mut cfg = FftxConfig::small(7, 1, SchedulerPolicy::Serial);
        cfg.nbnd = 6;
        let problem = Problem::new(cfg);
        let baseline = run_policy(&problem, SchedulerPolicy::Serial);
        let (seed, victim) = (0u64..)
            .find_map(|s| {
                let flaky: Vec<usize> = (0..7)
                    .filter(|&r| StuckLane::new(s, 0.2, 8).lane_of(r as u64).is_some())
                    .collect();
                (flaky.len() == 1).then(|| (s, flaky[0]))
            })
            .expect("some seed sticks exactly one rank");
        let corruption = CorruptionConfig {
            stuck: Some(StuckLane::new(seed, 0.2, 8)),
            ..CorruptionConfig::off()
        };
        let (out, stats) =
            run_verified(&problem, corruption, VerifyMode::Cheap, &RecoveryConfig::default())
                .expect("survivors finish");
        assert_eq!(stats.probe_failures, vec![victim]);
        assert_eq!(stats.evicted_ranks, vec![victim]);
        assert_eq!(stats.evictions, 1);
        assert_eq!(out.bands, baseline.bands, "eviction changed the answer");
    }

    #[test]
    fn two_flaky_ranks_exceed_the_eviction_path() {
        let problem = problem(2, 2);
        let seed = (0u64..)
            .find(|&s| {
                (0..4)
                    .filter(|&r| StuckLane::new(s, 0.5, 8).lane_of(r as u64).is_some())
                    .count()
                    > 1
            })
            .expect("some seed sticks two ranks");
        let corruption = CorruptionConfig {
            stuck: Some(StuckLane::new(seed, 0.5, 8)),
            ..CorruptionConfig::off()
        };
        let Err(err) = run_verified(&problem, corruption, VerifyMode::Cheap, &RecoveryConfig::default())
        else {
            panic!("one eviction per run: two flaky ranks must escalate");
        };
        assert!(matches!(err, VmpiError::Integrity { .. }));
    }

    #[test]
    fn verified_runs_are_deterministic() {
        let problem = problem(2, 2);
        let corruption = CorruptionConfig {
            bitflip: Some(BitFlip::new(31, 0.5, 2)),
            ..CorruptionConfig::off()
        };
        let run = || {
            run_verified(&problem, corruption, VerifyMode::Cheap, &RecoveryConfig::default())
                .expect("bounded transients recover")
        };
        let (a, sa) = run();
        let (b, sb) = run();
        assert_eq!(a.bands, b.bands);
        assert_eq!(sa, sb, "stats must replay identically");
    }
}
