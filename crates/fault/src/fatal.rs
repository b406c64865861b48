//! Fatal-fault profiles and recovery knobs.
//!
//! PR 1's chaos engine is lossless by construction — it perturbs timing,
//! never outcomes. This module supplies the opposite end of the spectrum:
//! deterministic plans for *fatal* events that the recovery layer has to
//! survive — a task body crashing, a band batch aborting mid-flight, a
//! rank dying at a batch boundary.
//!
//! Every decision is a pure function of `(seed, logical key, attempt)` and
//! **never** of rank identity, thread scheduling, or wall time. That purity
//! carries the recovery layer's consistency argument: when a fault keyed by
//! band or batch fires, every rank evaluates the identical plan, reaches
//! the identical retry/rollback decision, and the per-communicator
//! collective sequence counters stay aligned across replays without any
//! agreement protocol. (A production runtime would run a watchdog-agreement
//! round here; the deterministic plan is the stand-in that keeps the
//! experiment reproducible — see DESIGN.md §11.)

use crate::{mix64, unit_f64};
use std::time::Duration;

/// Deterministic task-crash plan: decides how many times the task keyed by
/// `key` panics before its body is allowed to succeed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TaskCrashes {
    /// Seed of the crash schedule.
    pub seed: u64,
    /// Probability that a given task key crashes at all.
    pub p_crash: f64,
    /// Upper bound on consecutive crashes of one task. Recovery succeeds
    /// iff this stays within the retry budget.
    pub max_crashes: u32,
}

impl TaskCrashes {
    /// A plan crashing roughly `p_crash` of all task keys, each at most
    /// `max_crashes` times.
    pub fn new(seed: u64, p_crash: f64, max_crashes: u32) -> Self {
        TaskCrashes {
            seed,
            p_crash,
            max_crashes: max_crashes.max(1),
        }
    }

    /// How many attempts of the task keyed `key` crash before one succeeds
    /// — pure in `(seed, key)`.
    pub(crate) fn crashes_for(&self, key: u64) -> u32 {
        let h = mix64(self.seed ^ mix64(key ^ 0xA5F1_52C8_9D3B_7E41));
        if unit_f64(h) < self.p_crash {
            1 + (mix64(h) % u64::from(self.max_crashes)) as u32
        } else {
            0
        }
    }

    /// Whether attempt `attempt` (0-based) of task `key` should crash.
    pub fn should_crash(&self, key: u64, attempt: u32) -> bool {
        attempt < self.crashes_for(key)
    }
}

/// Deterministic batch-abort plan: decides how many executions of band
/// batch `batch` fail mid-flight before a replay is allowed to complete.
/// The recovery engine converts each planned abort into the same typed
/// error path a real collective timeout takes, then rolls the batch back
/// to its checkpoint and replays it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchAborts {
    /// Seed of the abort schedule.
    pub seed: u64,
    /// Probability that a given batch aborts at all.
    pub p_abort: f64,
    /// Upper bound on consecutive aborts of one batch. Recovery succeeds
    /// iff this stays within the rollback budget.
    pub max_aborts: u32,
}

impl BatchAborts {
    /// A plan aborting roughly `p_abort` of all batches, each at most
    /// `max_aborts` times.
    pub fn new(seed: u64, p_abort: f64, max_aborts: u32) -> Self {
        BatchAborts {
            seed,
            p_abort,
            max_aborts: max_aborts.max(1),
        }
    }

    /// How many executions of `batch` abort before one completes — pure in
    /// `(seed, batch)`.
    pub(crate) fn aborts_for(&self, batch: u64) -> u32 {
        let h = mix64(self.seed ^ mix64(batch ^ 0x1B56_C4E9_A92D_F30C));
        if unit_f64(h) < self.p_abort {
            1 + (mix64(h) % u64::from(self.max_aborts)) as u32
        } else {
            0
        }
    }

    /// Whether execution `attempt` (0-based) of `batch` should abort.
    pub fn should_abort(&self, batch: u64, attempt: u32) -> bool {
        attempt < self.aborts_for(batch)
    }
}

/// A rank declared dead by the watchdog at a batch boundary: before
/// starting `batch`, rank `rank` stops participating and the survivors
/// evict it, shrink the world, and re-plan the layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RankDeath {
    /// The world rank that dies.
    pub rank: usize,
    /// The batch index at whose boundary it dies.
    pub batch: usize,
}

impl RankDeath {
    /// Rank `rank` dies at the boundary of batch `batch`.
    pub fn at(rank: usize, batch: usize) -> Self {
        RankDeath { rank, batch }
    }
}

/// Deterministic node-death plan for a serving fleet: decides, per shard,
/// whether (and when, as a fraction of the run horizon) the whole node
/// dies. A dead node stops heartbeating and executing; the supervisor
/// detects the silence and replays the victim's journaled incomplete jobs
/// onto the survivors.
///
/// Pure in `(seed, shard)`, so every observer — the shard simulation, the
/// supervisor, a journal replay — reaches the identical verdict with no
/// agreement protocol.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeDeath {
    /// Seed of the death schedule.
    pub seed: u64,
    /// Probability that a given shard dies during the run.
    pub p_death: f64,
}

impl NodeDeath {
    /// A plan killing roughly `p_death` of all shards.
    pub fn new(seed: u64, p_death: f64) -> Self {
        NodeDeath { seed, p_death }
    }

    /// When shard `shard` dies, as a fraction of the run horizon in
    /// `[0.2, 0.8)` (deaths land mid-run so there is work to fail over),
    /// or `None` if it survives — pure in `(seed, shard)`.
    pub(crate) fn death_fraction(&self, shard: u64) -> Option<f64> {
        let h = mix64(self.seed ^ mix64(shard ^ 0x6E0D_EDEA_7511_34B7));
        if unit_f64(h) < self.p_death {
            Some(0.2 + 0.6 * unit_f64(mix64(h)))
        } else {
            None
        }
    }

    /// Absolute death time on a `horizon_s`-second run.
    pub fn death_time(&self, shard: u64, horizon_s: f64) -> Option<f64> {
        self.death_fraction(shard).map(|f| f * horizon_s)
    }
}

/// Deterministic slow-node plan: a shard may run every batch slower by a
/// bounded factor (thermal throttling, a noisy neighbour, a degraded DIMM).
/// Pure in `(seed, shard)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SlowNode {
    /// Seed of the slowdown schedule.
    pub seed: u64,
    /// Probability that a given shard is slow at all.
    pub p_slow: f64,
    /// Largest slowdown factor (a slow shard draws from `(1, max_factor]`).
    pub max_factor: f64,
}

impl SlowNode {
    /// A plan slowing roughly `p_slow` of all shards by up to `max_factor`.
    pub fn new(seed: u64, p_slow: f64, max_factor: f64) -> Self {
        SlowNode {
            seed,
            p_slow,
            max_factor: max_factor.max(1.0),
        }
    }

    /// The service-time multiplier of shard `shard` (1.0 = healthy) —
    /// pure in `(seed, shard)`.
    pub fn factor(&self, shard: u64) -> f64 {
        let h = mix64(self.seed ^ mix64(shard ^ 0x51ED_BA1A_2C87_F96D));
        if unit_f64(h) < self.p_slow {
            1.0 + (self.max_factor - 1.0) * unit_f64(mix64(h)).max(0.25)
        } else {
            1.0
        }
    }
}

/// Deterministic network-partition plan: a shard may become unreachable
/// for one bounded window (heartbeats are lost, routing avoids it) while
/// staying alive — work it already holds keeps executing and completes.
/// Pure in `(seed, shard)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Partition {
    /// Seed of the partition schedule.
    pub seed: u64,
    /// Probability that a given shard is partitioned at all.
    pub p_partition: f64,
    /// Window length as a fraction of the run horizon.
    pub window_fraction: f64,
}

impl Partition {
    /// A plan partitioning roughly `p_partition` of all shards for
    /// `window_fraction` of the horizon.
    pub fn new(seed: u64, p_partition: f64, window_fraction: f64) -> Self {
        Partition {
            seed,
            p_partition,
            window_fraction: window_fraction.clamp(0.0, 1.0),
        }
    }

    /// The partition window of shard `shard` as horizon fractions
    /// `[start, end)`, or `None` — pure in `(seed, shard)`.
    pub(crate) fn window_fraction_of(&self, shard: u64) -> Option<(f64, f64)> {
        let h = mix64(self.seed ^ mix64(shard ^ 0x9A2F_70B3_C4D8_115E));
        if unit_f64(h) < self.p_partition {
            let start = 0.15 + 0.5 * unit_f64(mix64(h));
            Some((start, (start + self.window_fraction).min(1.0)))
        } else {
            None
        }
    }

    /// Whether shard `shard` is unreachable at time `t_s` of a
    /// `horizon_s`-second run.
    pub fn cut_at(&self, shard: u64, t_s: f64, horizon_s: f64) -> bool {
        match self.window_fraction_of(shard) {
            Some((a, b)) => {
                let f = t_s / horizon_s;
                f >= a && f < b
            }
            None => false,
        }
    }
}

/// Budgets and preferences of the recovery layer, settable through
/// `FFTX_RECOVERY_*` environment knobs (see README).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryConfig {
    /// Task re-execution budget: a panicking task is retried at most this
    /// many times before escalating to `TaskError`.
    pub max_retries: u32,
    /// Base of the bounded exponential retry backoff.
    pub base_backoff: Duration,
    /// Cap of the retry backoff (`min(base · 2^attempt, max)`).
    pub max_backoff: Duration,
    /// Rollback budget: a band batch is replayed from its checkpoint at
    /// most this many times before the error escalates.
    pub max_rollbacks: u32,
    /// Preferred task-group width T when re-factorising R×T over the
    /// survivors after a rank eviction (the largest divisor of the
    /// surviving rank count ≤ this is chosen).
    pub prefer_t: usize,
}

impl Default for RecoveryConfig {
    fn default() -> Self {
        RecoveryConfig {
            max_retries: 3,
            base_backoff: Duration::from_micros(50),
            max_backoff: Duration::from_millis(2),
            max_rollbacks: 4,
            prefer_t: 2,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crash_plan_is_pure_and_bounded() {
        let p = TaskCrashes::new(42, 0.5, 3);
        let mut crashed = 0;
        for key in 0..200 {
            let n = p.crashes_for(key);
            assert_eq!(n, p.crashes_for(key), "pure in (seed, key)");
            assert!(n <= 3);
            if n > 0 {
                crashed += 1;
                assert!(p.should_crash(key, 0));
                assert!(!p.should_crash(key, n));
            } else {
                assert!(!p.should_crash(key, 0));
            }
        }
        assert!(crashed > 50 && crashed < 150, "~half the keys: {crashed}");
        // Different seeds give different schedules.
        let q = TaskCrashes::new(43, 0.5, 3);
        assert!((0..200).any(|k| p.crashes_for(k) != q.crashes_for(k)));
    }

    #[test]
    fn abort_plan_is_pure_and_bounded() {
        let p = BatchAborts::new(7, 1.0, 2);
        for batch in 0..50 {
            let n = p.aborts_for(batch);
            assert!((1..=2).contains(&n), "p=1 must abort every batch");
            assert!(p.should_abort(batch, 0));
            assert!(!p.should_abort(batch, n));
        }
        let none = BatchAborts::new(7, 0.0, 2);
        assert!((0..50).all(|b| none.aborts_for(b) == 0));
    }

    #[test]
    fn node_death_is_pure_bounded_and_mid_run() {
        let p = NodeDeath::new(11, 0.5);
        let mut died = 0;
        for shard in 0..200 {
            let f = p.death_fraction(shard);
            assert_eq!(f, p.death_fraction(shard), "pure in (seed, shard)");
            if let Some(f) = f {
                died += 1;
                assert!((0.2..0.8).contains(&f), "mid-run death: {f}");
                let t = p.death_time(shard, 10.0).unwrap();
                assert!((f * 10.0 - t).abs() < 1e-12);
            }
        }
        assert!(died > 50 && died < 150, "~half the shards: {died}");
        let none = NodeDeath::new(11, 0.0);
        assert!((0..50).all(|s| none.death_fraction(s).is_none()));
    }

    #[test]
    fn slow_node_factor_is_pure_and_bounded() {
        let p = SlowNode::new(3, 0.5, 4.0);
        let mut slowed = 0;
        for shard in 0..200 {
            let f = p.factor(shard);
            assert_eq!(f, p.factor(shard));
            assert!((1.0..=4.0).contains(&f));
            if f > 1.0 {
                slowed += 1;
            }
        }
        assert!(slowed > 50 && slowed < 150, "~half the shards: {slowed}");
        assert_eq!(SlowNode::new(3, 0.0, 4.0).factor(0), 1.0);
    }

    #[test]
    fn partition_windows_are_pure_and_bounded() {
        let p = Partition::new(9, 1.0, 0.2);
        for shard in 0..50 {
            let (a, b) = p.window_fraction_of(shard).expect("p=1 partitions all");
            assert!(a >= 0.15 && b <= 1.0 && b > a);
            assert!((b - a) <= 0.2 + 1e-12);
            // cut_at matches the window on a 10-second horizon.
            assert!(p.cut_at(shard, (a + 1e-9) * 10.0, 10.0));
            assert!(!p.cut_at(shard, (b + 1e-9) * 10.0, 10.0));
            assert!(!p.cut_at(shard, 0.0, 10.0));
        }
        let none = Partition::new(9, 0.0, 0.2);
        assert!((0..50).all(|s| none.window_fraction_of(s).is_none()));
    }
}
