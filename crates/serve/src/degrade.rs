//! Graceful degradation: the fleet's brown-out ladder.
//!
//! Under sustained queue pressure the fleet degrades in explicit,
//! journaled steps instead of letting latency collapse: first batch-class
//! (throughput) traffic is shed, then standard traffic, then large batches
//! are split in half to cap head-of-line blocking, and finally all new
//! work is rejected with a typed
//! [`RejectReason::FleetDegraded`](crate::request::RejectReason) while the
//! backlog drains. Pressure is the admitting shards' mean queue occupancy;
//! the ladder moves at most one level per supervisor tick (hysteresis: it
//! climbs at `UPGRADE_AT` (0.75) and descends at `DOWNGRADE_AT` (0.40), so
//! it cannot flap on a pressure boundary).
//!
//! Above the queue-pressure rungs sits [`DegradeLevel::Quarantine`], the
//! data-integrity rung: when the fraction of dispatched batches whose
//! results failed ABFT verification reaches `QUARANTINE_AT` (0.5), the
//! ladder climbs past `RejectNew` regardless of queue pressure — the fleet
//! stops accepting work it can no longer trust itself to compute, drains
//! under verification, and steps back down once the corruption rate
//! subsides. Queue pressure alone can never reach this rung.

use crate::request::DeadlineClass;

/// One rung of the ladder, mildest first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum DegradeLevel {
    /// Full service.
    Normal,
    /// Shed new batch-deadline (throughput) requests.
    ShedBatch,
    /// Also shed new standard-deadline requests.
    ShedStandard,
    /// Additionally split large batches (half the band cap) to bound
    /// head-of-line blocking on interactive work.
    SplitLarge,
    /// Reject all new work while the backlog drains.
    RejectNew,
    /// Data-integrity brown-out: too many dispatched batches failed ABFT
    /// verification. Reject all new work while the corrupting shards are
    /// breaker-isolated and the backlog drains under verification. Only
    /// corruption pressure climbs here; queue pressure caps at
    /// [`DegradeLevel::RejectNew`].
    Quarantine,
}

impl DegradeLevel {
    /// Every level, mildest first.
    pub const ALL: [DegradeLevel; 6] = [
        DegradeLevel::Normal,
        DegradeLevel::ShedBatch,
        DegradeLevel::ShedStandard,
        DegradeLevel::SplitLarge,
        DegradeLevel::RejectNew,
        DegradeLevel::Quarantine,
    ];

    /// Stable short name (journal, counters, timeline).
    pub fn name(self) -> &'static str {
        match self {
            DegradeLevel::Normal => "normal",
            DegradeLevel::ShedBatch => "shed_batch",
            DegradeLevel::ShedStandard => "shed_standard",
            DegradeLevel::SplitLarge => "split_large",
            DegradeLevel::RejectNew => "reject_new",
            DegradeLevel::Quarantine => "quarantine",
        }
    }

    /// Stable index (row order of [`DegradeLevel::ALL`]).
    pub fn index(self) -> usize {
        self as usize
    }

    /// Whether a new request of `deadline` class is admitted at this level.
    pub fn admits(self, deadline: DeadlineClass) -> bool {
        match self {
            DegradeLevel::Normal => true,
            DegradeLevel::ShedBatch => deadline != DeadlineClass::Batch,
            DegradeLevel::ShedStandard | DegradeLevel::SplitLarge => {
                deadline == DeadlineClass::Interactive
            }
            DegradeLevel::RejectNew | DegradeLevel::Quarantine => false,
        }
    }

    /// Whether batch formation halves its band cap at this level.
    pub fn splits_batches(self) -> bool {
        self >= DegradeLevel::SplitLarge
    }
}

/// Pressure at or above which the ladder climbs one level per tick.
const UPGRADE_AT: f64 = 0.75;

/// Pressure at or below which it descends one level per tick. Below
/// [`UPGRADE_AT`] (the hysteresis band).
const DOWNGRADE_AT: f64 = 0.40;

/// Corruption pressure — the fraction of dispatched batches whose results
/// failed ABFT verification — at or above which the ladder climbs one rung
/// per tick toward [`DegradeLevel::Quarantine`], overriding the
/// queue-pressure rules. Below it, a quarantined ladder steps back down.
const QUARANTINE_AT: f64 = 0.5;

/// The ladder state machine: current level plus the one-step transition
/// rule. The supervisor journals every transition as a `Degraded` record
/// and drives the state through its apply path, so replay reconstructs
/// the level exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ladder {
    level: DegradeLevel,
}

impl Default for Ladder {
    fn default() -> Self {
        Self::new()
    }
}

impl Ladder {
    /// A ladder at [`DegradeLevel::Normal`].
    pub fn new() -> Ladder {
        Ladder { level: DegradeLevel::Normal }
    }

    /// Current level.
    pub fn level(&self) -> DegradeLevel {
        self.level
    }

    /// Forces the level — the journal-apply path.
    pub fn set_level(&mut self, level: DegradeLevel) {
        self.level = level;
    }

    /// The one-step transition `(pressure, corruption)` implies, or
    /// `None` when the level holds. Corruption pressure dominates: at or
    /// above `QUARANTINE_AT` the ladder climbs toward
    /// [`DegradeLevel::Quarantine`] whatever the queues look like, and a
    /// quarantined ladder only descends once corruption subsides. Queue
    /// pressure alone caps at [`DegradeLevel::RejectNew`]. Pure: the
    /// supervisor journals the returned level before applying it.
    pub fn next_level(&self, pressure: f64, corruption: f64) -> Option<DegradeLevel> {
        let i = self.level.index();
        if corruption >= QUARANTINE_AT {
            return DegradeLevel::ALL.get(i + 1).copied();
        }
        if self.level == DegradeLevel::Quarantine {
            return Some(DegradeLevel::ALL[i - 1]);
        }
        if pressure >= UPGRADE_AT && i + 2 < DegradeLevel::ALL.len() {
            Some(DegradeLevel::ALL[i + 1])
        } else if pressure <= DOWNGRADE_AT && i > 0 {
            Some(DegradeLevel::ALL[i - 1])
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_climbs_one_level_per_step_and_descends_with_hysteresis() {
        let mut l = Ladder::new();
        // Sustained queue pressure walks the ladder one rung at a time —
        // but stops at RejectNew: Quarantine is corruption-only.
        let mut seen = vec![l.level()];
        while let Some(next) = l.next_level(0.9, 0.0) {
            assert_eq!(next.index(), l.level().index() + 1);
            l.set_level(next);
            seen.push(next);
        }
        assert_eq!(seen, DegradeLevel::ALL[..5].to_vec());
        assert_eq!(l.level(), DegradeLevel::RejectNew);
        // Mid-band pressure holds the level (hysteresis).
        assert_eq!(l.next_level(0.6, 0.0), None);
        // Low pressure walks back down.
        while let Some(next) = l.next_level(0.1, 0.0) {
            assert_eq!(next.index() + 1, l.level().index());
            l.set_level(next);
        }
        assert_eq!(l.level(), DegradeLevel::Normal);
    }

    #[test]
    fn only_corruption_pressure_reaches_quarantine() {
        let mut l = Ladder::new();
        // Corruption at the threshold climbs even with idle queues.
        while let Some(next) = l.next_level(0.0, QUARANTINE_AT) {
            assert_eq!(next.index(), l.level().index() + 1);
            l.set_level(next);
        }
        assert_eq!(l.level(), DegradeLevel::Quarantine);
        assert!(!l.level().admits(DeadlineClass::Interactive));
        assert!(l.level().splits_batches());
        // Queue pressure alone cannot hold the quarantine rung: once
        // corruption subsides the ladder steps down, however hot the queues.
        assert_eq!(l.next_level(1.0, 0.0), Some(DegradeLevel::RejectNew));
        l.set_level(DegradeLevel::RejectNew);
        // From RejectNew, queue pressure holds but never re-enters
        // quarantine; renewed corruption does.
        assert_eq!(l.next_level(1.0, 0.0), None);
        assert_eq!(
            l.next_level(0.0, QUARANTINE_AT),
            Some(DegradeLevel::Quarantine)
        );
    }

    #[test]
    fn levels_shed_deadline_classes_in_order() {
        use DeadlineClass::*;
        assert!(DegradeLevel::Normal.admits(Batch));
        assert!(!DegradeLevel::ShedBatch.admits(Batch));
        assert!(DegradeLevel::ShedBatch.admits(Standard));
        assert!(!DegradeLevel::ShedStandard.admits(Standard));
        assert!(DegradeLevel::ShedStandard.admits(Interactive));
        assert!(DegradeLevel::SplitLarge.admits(Interactive));
        assert!(!DegradeLevel::RejectNew.admits(Interactive));
        // Splitting engages at the second-to-last rung.
        assert!(!DegradeLevel::ShedStandard.splits_batches());
        assert!(DegradeLevel::SplitLarge.splits_batches());
        assert!(DegradeLevel::RejectNew.splits_batches());
    }

    #[test]
    fn level_names_and_indices_are_stable() {
        for (i, level) in DegradeLevel::ALL.iter().enumerate() {
            assert_eq!(level.index(), i);
            assert!(!level.name().is_empty());
        }
    }
}
