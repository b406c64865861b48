//! Silent-data-corruption profiles: seeded bit flips, stuck SIMD lanes,
//! and in-flight payload corruption.
//!
//! PR 1/2's fault spectrum is entirely *fail-stop*: crashes, timeouts,
//! deaths — faults that announce themselves. This module supplies the
//! faults that don't: a cosmic-ray bit flip in an arena buffer, a vector
//! lane stuck at zero on one degraded core, a payload word mangled on the
//! wire between pack and unpack. None of these raise an error on their
//! own; the integrity layer (vmpi exchange checksums + core's ABFT
//! verification) exists to *detect* them and convert each into the same
//! typed error path a fail-stop fault takes, so the existing recovery
//! machinery (rollback, recompute, eviction) can heal them.
//!
//! Every decision is a pure function of `(seed, logical key, attempt)`,
//! mirroring [`fatal`](crate): purity is what lets a replayed batch reach
//! the identical verdict on every rank, and what lets the bench count
//! injected strikes exactly. Transient profiles ([`BitFlip`],
//! [`PayloadCorrupt`]) bound their strikes per key, so a bounded
//! rollback/recompute budget provably clears them; [`StuckLane`] is
//! deliberately *persistent* per rank — the profile recovery cannot
//! out-replay, forcing the eviction escalation.

use crate::{mix64, unit_f64};

/// One planned corruption: which word of a buffer, which bit of the word.
///
/// `index_bits` is raw hash entropy; callers reduce it modulo the actual
/// buffer length via [`Strike::index`], so one strike plan applies to any
/// buffer size without re-hashing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Strike {
    /// Hash entropy selecting the struck word (reduce via [`Strike::index`]).
    pub index_bits: u64,
    /// The bit to flip within the struck 64-bit word (0–63).
    pub bit: u32,
}

impl Strike {
    /// The struck element index in a buffer of `len` elements.
    pub fn index(&self, len: usize) -> usize {
        if len == 0 {
            0
        } else {
            (self.index_bits % len as u64) as usize
        }
    }
}

/// Deterministic transient bit-flip plan over arena buffers: decides how
/// many executions of the buffer keyed `key` get one bit flipped before a
/// replay is allowed to run clean — the corruption analogue of
/// [`BatchAborts`](crate::BatchAborts), and bounded the same way so the
/// rollback budget provably clears it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BitFlip {
    /// Seed of the flip schedule.
    pub seed: u64,
    /// Probability that a given buffer key is struck at all.
    pub p_flip: f64,
    /// Upper bound on consecutive struck executions of one key.
    pub max_strikes: u32,
}

impl BitFlip {
    /// A plan striking roughly `p_flip` of all keys, each at most
    /// `max_strikes` consecutive executions.
    pub fn new(seed: u64, p_flip: f64, max_strikes: u32) -> Self {
        BitFlip {
            seed,
            p_flip,
            max_strikes: max_strikes.max(1),
        }
    }

    /// How many executions of `key` are struck before one runs clean —
    /// pure in `(seed, key)`.
    pub(crate) fn strikes_for(&self, key: u64) -> u32 {
        let h = mix64(self.seed ^ mix64(key ^ 0xC3A5_9D17_4B6E_F208));
        if unit_f64(h) < self.p_flip {
            1 + (mix64(h) % u64::from(self.max_strikes)) as u32
        } else {
            0
        }
    }

    /// The strike for execution `attempt` (0-based) of `key`, or `None`
    /// when that attempt runs clean — pure in `(seed, key, attempt)`.
    pub fn strike(&self, key: u64, attempt: u32) -> Option<Strike> {
        if attempt >= self.strikes_for(key) {
            return None;
        }
        let h = mix64(self.seed ^ mix64(key ^ 0x7E19_A4C2_D58B_3F61) ^ u64::from(attempt));
        Some(Strike {
            index_bits: h,
            bit: (mix64(h) % 64) as u32,
        })
    }
}

/// Deterministic *persistent* corruption: a vector lane of one rank's FFT
/// unit is stuck at zero (a degraded AVX-512 lane). Pure in `(seed, rank)`
/// and independent of attempt — replaying a batch on the same rank strikes
/// again, every time. This is the profile the rollback budget cannot
/// clear; detection must escalate to evicting the flaky rank.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StuckLane {
    /// Seed of the stuck-lane schedule.
    pub seed: u64,
    /// Probability that a given rank has a stuck lane at all.
    pub p_stuck: f64,
    /// Vector width: lane `l` strikes elements `l, l+width, l+2·width, …`.
    pub width: u32,
}

impl StuckLane {
    /// A plan sticking roughly `p_stuck` of all ranks, with vector width
    /// `width` (8 = the KNL AVX-512 f64 width).
    pub fn new(seed: u64, p_stuck: f64, width: u32) -> Self {
        StuckLane {
            seed,
            p_stuck,
            width: width.max(1),
        }
    }

    /// The stuck lane of `rank` (`0..width`), or `None` for a healthy rank
    /// — pure in `(seed, rank)`.
    pub fn lane_of(&self, rank: u64) -> Option<u32> {
        let h = mix64(self.seed ^ mix64(rank ^ 0x58D2_E7B9_F013_6CA4));
        if unit_f64(h) < self.p_stuck {
            Some((mix64(h) % u64::from(self.width)) as u32)
        } else {
            None
        }
    }

    /// Applies `rank`'s stuck lane to `buf` (elements of the lane forced
    /// to zero). Returns the number of elements struck (0 for a healthy
    /// rank or an empty buffer).
    pub fn apply(&self, rank: u64, buf: &mut [f64]) -> usize {
        let Some(lane) = self.lane_of(rank) else {
            return 0;
        };
        let mut struck = 0;
        let mut i = lane as usize;
        while i < buf.len() {
            if buf[i] != 0.0 {
                buf[i] = 0.0;
                struck += 1;
            }
            i += self.width as usize;
        }
        struck
    }
}

/// Deterministic in-flight payload corruption: a collective chunk's word
/// is mangled on the wire *after* the sender computed its checksum and
/// *before* the receiver verifies it. Memoryless per key (the transport's
/// per-site sequence counters advance on replay, so a replayed exchange
/// draws a fresh decision) and rate-bounded, so recovery converges.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PayloadCorrupt {
    /// Seed of the corruption schedule.
    pub seed: u64,
    /// Probability that a given chunk key is corrupted.
    pub p_corrupt: f64,
}

impl PayloadCorrupt {
    /// A plan corrupting roughly `p_corrupt` of all chunk keys.
    pub fn new(seed: u64, p_corrupt: f64) -> Self {
        PayloadCorrupt { seed, p_corrupt }
    }

    /// The strike for chunk `key`, or `None` when it travels clean —
    /// pure in `(seed, key)`.
    pub fn strike(&self, key: u64) -> Option<Strike> {
        let h = mix64(self.seed ^ mix64(key ^ 0x2F8C_61D5_A9E4_0B73));
        if unit_f64(h) < self.p_corrupt {
            let s = mix64(h);
            Some(Strike {
                index_bits: s,
                bit: (mix64(s) % 64) as u32,
            })
        } else {
            None
        }
    }
}

/// The bundled corruption schedule one run executes under: any subset of
/// the three profiles, composable with every existing chaos/death profile
/// (they draw from disjoint salt chains, so enabling one never perturbs
/// another's schedule).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CorruptionConfig {
    /// Transient arena-buffer bit flips.
    pub bitflip: Option<BitFlip>,
    /// Persistent per-rank stuck lanes.
    pub stuck: Option<StuckLane>,
    /// In-flight collective payload corruption.
    pub payload: Option<PayloadCorrupt>,
}

impl CorruptionConfig {
    /// No corruption (the zero-overhead default).
    pub fn off() -> Self {
        CorruptionConfig::default()
    }

    /// Transient corruption only — bit flips in arena buffers plus wire
    /// payload corruption at `rate`, both bounded, both clearable by the
    /// rollback/recompute budget.
    pub fn transient(seed: u64, rate: f64) -> Self {
        CorruptionConfig {
            bitflip: Some(BitFlip::new(seed, rate, 2)),
            stuck: None,
            payload: Some(PayloadCorrupt::new(mix64(seed ^ 0x9E37), rate)),
        }
    }

    /// Persistent corruption — roughly `p_stuck` of ranks carry a stuck
    /// AVX-512 lane that strikes on every attempt. Only rank eviction
    /// clears this profile.
    pub fn sticky(seed: u64, p_stuck: f64) -> Self {
        CorruptionConfig {
            bitflip: None,
            stuck: Some(StuckLane::new(seed, p_stuck, 8)),
            payload: None,
        }
    }

    /// Whether any profile is active.
    pub fn is_active(&self) -> bool {
        self.bitflip.is_some() || self.stuck.is_some() || self.payload.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bitflip_is_pure_bounded_and_transient() {
        let p = BitFlip::new(42, 0.5, 2);
        let mut struck = 0;
        for key in 0..200 {
            let n = p.strikes_for(key);
            assert_eq!(n, p.strikes_for(key), "pure in (seed, key)");
            assert!(n <= 2);
            if n > 0 {
                struck += 1;
                assert!(p.strike(key, 0).is_some());
                assert_eq!(p.strike(key, n), None, "attempt n runs clean");
                // Consecutive attempts draw distinct strikes.
                if n == 2 {
                    assert_ne!(p.strike(key, 0), p.strike(key, 1));
                }
            } else {
                assert_eq!(p.strike(key, 0), None);
            }
        }
        assert!(struck > 50 && struck < 150, "~half the keys: {struck}");
        assert!((0..50).all(|k| BitFlip::new(42, 0.0, 2).strike(k, 0).is_none()));
    }

    #[test]
    fn stuck_lane_is_pure_persistent_and_lane_shaped() {
        let p = StuckLane::new(11, 0.5, 8);
        let mut stuck_ranks = 0;
        for rank in 0..200 {
            let l = p.lane_of(rank);
            assert_eq!(l, p.lane_of(rank), "pure in (seed, rank)");
            if let Some(l) = l {
                stuck_ranks += 1;
                assert!(l < 8);
            }
        }
        assert!(stuck_ranks > 50 && stuck_ranks < 150, "~half: {stuck_ranks}");

        let rank = (0..200).find(|&r| p.lane_of(r).is_some()).expect("some rank sticks");
        let lane = p.lane_of(rank).expect("stuck") as usize;
        let mut buf = vec![1.0f64; 37];
        let n = p.apply(rank, &mut buf);
        assert!(n > 0, "persistent profile strikes every attempt");
        assert_eq!(n, p.apply(rank, &mut vec![1.0f64; 37]), "same strike on replay");
        for (i, &x) in buf.iter().enumerate() {
            if i % 8 == lane {
                assert_eq!(x, 0.0, "lane element {i} stuck at zero");
            } else {
                assert_eq!(x, 1.0, "off-lane element {i} untouched");
            }
        }
        let healthy = (0..200).find(|&r| p.lane_of(r).is_none()).expect("some rank healthy");
        assert_eq!(p.apply(healthy, &mut buf), 0);
    }

    #[test]
    fn payload_corruption_is_pure_and_rate_bounded() {
        let p = PayloadCorrupt::new(3, 0.5);
        let mut hit = 0;
        for key in 0..200 {
            let s = p.strike(key);
            assert_eq!(s, p.strike(key), "pure in (seed, key)");
            if let Some(s) = s {
                hit += 1;
                assert!(s.bit < 64);
            }
        }
        assert!(hit > 50 && hit < 150, "~half the keys: {hit}");
        assert!((0..50).all(|k| PayloadCorrupt::new(3, 0.0).strike(k).is_none()));
        // Different seeds give different schedules.
        let q = PayloadCorrupt::new(4, 0.5);
        assert!((0..200).any(|k| p.strike(k) != q.strike(k)));
    }

    #[test]
    fn config_presets_compose_expected_profiles() {
        assert!(!CorruptionConfig::off().is_active());
        let t = CorruptionConfig::transient(9, 0.3);
        assert!(t.is_active() && t.bitflip.is_some() && t.payload.is_some() && t.stuck.is_none());
        let s = CorruptionConfig::sticky(9, 0.5);
        assert!(s.is_active() && s.stuck.is_some() && s.bitflip.is_none());
        // Profiles draw from disjoint salt chains: the transient preset's
        // bitflip schedule is independent of whether payload is enabled.
        let t2 = CorruptionConfig {
            payload: None,
            ..CorruptionConfig::transient(9, 0.3)
        };
        assert_eq!(t.bitflip, t2.bitflip);
    }
}
