//! Shard health checking: the supervisor's heartbeat schedule and the
//! per-shard circuit breaker.
//!
//! Each supervisor tick (`TICK_S`, 0.05 virtual seconds apart) probes
//! every monitored shard once. The breaker trips open after
//! `FAIL_THRESHOLD` (2) consecutive misses (routing stops sending the
//! shard new work) and re-probes on the next tick: the first heartbeat
//! after the tick it opened on half-opens it for that single probe. An
//! answered probe closes it, a missed one re-opens it for another tick.
//! The wait is one tick, not a backoff: the task-retry backoff
//! (50 µs doubling to a 2 ms cap) is far below one tick, so any backoff
//! rounded up to whole ticks is one tick on every attempt. A shard that
//! misses `DEATH_THRESHOLD` (4) consecutive probes is declared dead and
//! failed over — see the supervisor.
//!
//! Everything is driven by the virtual tick counter, so breaker evolution
//! is a pure fold over the journaled heartbeat and corruption records and
//! replays bit-identically.

/// Virtual seconds between supervisor ticks (one probe per shard per tick).
pub(crate) const TICK_S: f64 = 0.05;

/// Consecutive missed probes that trip the breaker open.
const FAIL_THRESHOLD: u32 = 2;

/// Consecutive missed probes that declare the shard dead. Exceeds
/// [`FAIL_THRESHOLD`]: a shard stops receiving new work before the
/// (expensive) failover is committed.
pub(crate) const DEATH_THRESHOLD: u32 = 4;

/// Corrupt batches (ABFT verification failures) that trip the breaker
/// open: a shard whose results keep failing verification stops receiving
/// new work even though its heartbeats answer. Unlike heartbeat misses,
/// corruption strikes are not cleared by healthy probes — only a
/// successful half-open probe (one re-probe tick later) resets them.
const CORRUPT_THRESHOLD: u32 = 3;

/// Ticks an open breaker waits before its half-open re-probe.
const REPROBE_TICKS: u64 = 1;

/// Breaker state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: the shard receives new work.
    Closed,
    /// Tripped: no new work until the re-probe tick.
    Open,
    /// Probing: one answered heartbeat closes it, one miss re-opens it.
    HalfOpen,
}

impl BreakerState {
    /// Stable short name (timeline state, counter key).
    pub fn name(self) -> &'static str {
        match self {
            BreakerState::Closed => "closed",
            BreakerState::Open => "open",
            BreakerState::HalfOpen => "half_open",
        }
    }
}

/// The per-shard circuit breaker. See the module docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Breaker {
    state: BreakerState,
    /// Consecutive misses in Closed (trip counter).
    misses: u32,
    /// Consecutive misses across all states (death counter).
    run: u32,
    /// Corrupt batches since the breaker last closed (quarantine counter).
    corruptions: u32,
    opened_tick: u64,
}

impl Default for Breaker {
    fn default() -> Self {
        Self::new()
    }
}

impl Breaker {
    /// A closed breaker.
    pub fn new() -> Breaker {
        Breaker {
            state: BreakerState::Closed,
            misses: 0,
            run: 0,
            corruptions: 0,
            opened_tick: 0,
        }
    }

    /// Current state.
    pub fn state(&self) -> BreakerState {
        self.state
    }

    /// Whether routing may send the shard new work.
    pub fn admits(&self) -> bool {
        matches!(self.state, BreakerState::Closed | BreakerState::HalfOpen)
    }

    /// Consecutive missed probes, across open/half-open cycles — the
    /// supervisor's death counter.
    pub fn consecutive_misses(&self) -> u32 {
        self.run
    }

    /// Corrupt batches since the breaker last closed — the supervisor's
    /// quarantine counter.
    pub fn corruption_strikes(&self) -> u32 {
        self.corruptions
    }

    /// Folds one detected-corruption event (a batch that failed ABFT
    /// verification) into the breaker at `tick`. At `CORRUPT_THRESHOLD`
    /// (3) strikes a closed breaker trips open — the shard is quarantined
    /// from new work until its re-probe, exactly like a heartbeat trip, but
    /// healthy heartbeats do *not* clear the strike count: only the
    /// successful half-open probe that re-closes the breaker does. Returns
    /// the new state's name on a transition.
    pub fn on_corruption(&mut self, tick: u64) -> Option<&'static str> {
        self.corruptions += 1;
        if self.state == BreakerState::Closed && self.corruptions >= CORRUPT_THRESHOLD {
            self.state = BreakerState::Open;
            self.opened_tick = tick;
            return Some(self.state.name());
        }
        None
    }

    /// Folds one probe outcome at `tick` into the breaker. Returns the new
    /// state's name when the probe changed the state (an open breaker
    /// half-opening at its re-probe tick counts, even though the transition
    /// is then immediately resolved by the probe itself).
    pub fn on_heartbeat(&mut self, ok: bool, tick: u64) -> Option<&'static str> {
        let before = self.state;
        let mut half_opened = false;
        self.run = if ok { 0 } else { self.run + 1 };
        // An open breaker at its re-probe tick half-opens first; the probe
        // below then resolves the half-open state.
        if self.state == BreakerState::Open && tick >= self.opened_tick + REPROBE_TICKS {
            self.state = BreakerState::HalfOpen;
            half_opened = true;
        }
        match self.state {
            BreakerState::Closed => {
                if ok {
                    self.misses = 0;
                } else {
                    self.misses += 1;
                    if self.misses >= FAIL_THRESHOLD {
                        self.state = BreakerState::Open;
                        self.opened_tick = tick;
                    }
                }
            }
            BreakerState::HalfOpen => {
                if ok {
                    self.state = BreakerState::Closed;
                    self.misses = 0;
                    self.corruptions = 0;
                } else {
                    self.state = BreakerState::Open;
                    self.opened_tick = tick;
                }
            }
            BreakerState::Open => {}
        }
        (self.state != before || half_opened).then(|| self.state.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breaker_trips_after_consecutive_misses() {
        let mut b = Breaker::new();
        assert!(b.admits());
        assert_eq!(b.on_heartbeat(false, 0), None);
        assert!(b.admits(), "one miss is below the threshold");
        assert_eq!(b.on_heartbeat(false, 1), Some("open"));
        assert!(!b.admits());
        assert_eq!(b.consecutive_misses(), 2);
    }

    #[test]
    fn ok_probe_resets_the_trip_counter() {
        let mut b = Breaker::new();
        b.on_heartbeat(false, 0);
        b.on_heartbeat(true, 1);
        b.on_heartbeat(false, 2);
        assert_eq!(b.state(), BreakerState::Closed, "non-consecutive misses never trip");
        assert_eq!(b.consecutive_misses(), 1);
    }

    #[test]
    fn half_open_probe_closes_or_reopens_with_backoff() {
        let mut b = Breaker::new();
        b.on_heartbeat(false, 0);
        b.on_heartbeat(false, 1);
        assert_eq!(b.state(), BreakerState::Open);
        // Before the re-probe tick the breaker ignores probes.
        assert_eq!(b.on_heartbeat(true, 1 + REPROBE_TICKS - 1), None);
        assert_eq!(b.state(), BreakerState::Open);
        // At the re-probe tick it half-opens; a good probe closes it in the
        // same tick.
        assert_eq!(b.on_heartbeat(true, 1 + REPROBE_TICKS), Some("closed"));
        assert!(b.admits());

        // A failed half-open probe re-opens for another tick.
        let mut b = Breaker::new();
        b.on_heartbeat(false, 0);
        b.on_heartbeat(false, 1);
        let t = 1 + REPROBE_TICKS;
        assert_eq!(b.on_heartbeat(false, t), Some("open"));
        assert_eq!(b.on_heartbeat(true, t + REPROBE_TICKS), Some("closed"));
    }

    #[test]
    fn death_counter_spans_breaker_cycles() {
        let mut b = Breaker::new();
        for tick in 0..DEATH_THRESHOLD as u64 {
            b.on_heartbeat(false, tick);
        }
        assert!(b.consecutive_misses() >= DEATH_THRESHOLD);
        b.on_heartbeat(true, 100);
        assert_eq!(b.consecutive_misses(), 0);
    }

    #[test]
    fn corruption_strikes_trip_the_breaker_despite_healthy_heartbeats() {
        let mut b = Breaker::new();
        // Strikes interleaved with answered probes: heartbeats never clear
        // corruption, so the third corrupt batch trips the breaker.
        for tick in 0..(CORRUPT_THRESHOLD - 1) as u64 {
            assert_eq!(b.on_corruption(tick), None);
            assert_eq!(b.on_heartbeat(true, tick), None);
            assert!(b.admits());
        }
        assert_eq!(b.on_corruption(10), Some("open"));
        assert!(!b.admits(), "a corrupting shard is quarantined");
        assert_eq!(b.consecutive_misses(), 0, "corruption never declares death");
        assert_eq!(b.corruption_strikes(), CORRUPT_THRESHOLD);

        // The re-probe tick comes; the successful half-open probe re-closes
        // the breaker and resets the strike count.
        let t = 10 + REPROBE_TICKS;
        assert_eq!(b.on_heartbeat(true, t), Some("closed"));
        assert_eq!(b.corruption_strikes(), 0);
    }
}
