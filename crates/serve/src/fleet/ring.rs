//! The tenant→shard consistent-hash ring: virtual nodes, bounded-load
//! overflow, rendezvous tie-breaking, and a monotone membership epoch.
//!
//! Routing places each shard at `VNODES` (16) seeded points on a
//! 64-bit ring and sends a tenant key to the first member clockwise from
//! the key's point. Membership changes move only the keys in the arcs the
//! joining (or leaving) shard owns — the *minimal movement* property the
//! proptests pin — so a resharding event never reshuffles the whole tenant
//! population the way `hash(tenant) % shards` would.
//!
//! Two refinements on the textbook ring:
//!
//! * **bounded-load overflow** ([`HashRing::route_bounded`]): a key whose
//!   home shard already carries at least `ceil(c · (load+1) / members)`
//!   queued jobs overflows clockwise to the next admitting member under
//!   the bound, keeping the max/mean load ratio bounded by `c` (plus one
//!   job of quantisation) however skewed the tenant population is; the
//!   fleet routes with `c` = `LOAD_FACTOR` (1.25);
//! * **rendezvous tie-breaking**: virtual nodes of different shards that
//!   hash to the same ring point are ordered by their seeded rendezvous
//!   weight ([`fftx_fault::mix64`] of point and shard), so collisions
//!   resolve deterministically instead of by insertion order.
//!
//! Every membership change bumps the [`HashRing::epoch`]. The supervisor
//! journals the epoch in each `Started` record and validates it on replay:
//! a resumed fleet that reconstructed a different membership sequence —
//! and would therefore route differently — fails loudly instead of
//! silently diverging.

use fftx_fault::mix64;

/// Virtual nodes per shard. More vnodes smooth the arc distribution
/// (smaller max/mean spread) at linear routing-table cost.
const VNODES: usize = 16;

/// The fleet's bounded-load factor `c`: a shard's queue may exceed the
/// mean load by at most this factor before keys overflow past it.
pub(crate) const LOAD_FACTOR: f64 = 1.25;

/// Ring configuration.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RingConfig {
    /// Seed of every ring point and tie-break weight.
    pub seed: u64,
}

/// The consistent-hash ring. See the module docs.
#[derive(Debug, Clone, PartialEq)]
pub struct HashRing {
    cfg: RingConfig,
    /// Sorted (point, shard) pairs; ties ordered by rendezvous weight.
    points: Vec<(u64, u32)>,
    members: Vec<u32>,
    epoch: u64,
}

impl HashRing {
    /// An empty ring at epoch 0.
    pub fn new(cfg: RingConfig) -> HashRing {
        HashRing {
            cfg,
            points: Vec::new(),
            members: Vec::new(),
            epoch: 0,
        }
    }

    /// The membership epoch: the number of joins and leaves folded into
    /// the ring so far. Equal epochs on equal configurations mean equal
    /// routing tables.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Current members, ascending shard index.
    pub fn members(&self) -> &[u32] {
        &self.members
    }

    /// Whether `shard` is a member.
    pub fn contains(&self, shard: u32) -> bool {
        self.members.binary_search(&shard).is_ok()
    }

    /// The ring point of virtual node `v` of `shard`.
    fn vnode_point(&self, shard: u32, v: usize) -> u64 {
        mix64(self.cfg.seed ^ mix64(((shard as u64 + 1) << 20) | v as u64))
    }

    /// The seeded rendezvous weight breaking ties between virtual nodes of
    /// different shards at the same ring point.
    fn tie_weight(&self, point: u64, shard: u32) -> u64 {
        mix64(self.cfg.seed ^ point ^ mix64(shard as u64 + 1))
    }

    /// Adds `shard` (no-op when already a member). Bumps the epoch.
    pub fn insert(&mut self, shard: u32) {
        if self.contains(shard) {
            return;
        }
        let idx = self.members.partition_point(|&m| m < shard);
        self.members.insert(idx, shard);
        for v in 0..VNODES {
            let p = self.vnode_point(shard, v);
            self.points.push((p, shard));
        }
        let weight = |ring: &HashRing, p: u64, s: u32| ring.tie_weight(p, s);
        // Highest rendezvous weight first within a point: the winner of a
        // collision owns the point, deterministically.
        let snapshot = self.clone();
        self.points.sort_by(|a, b| {
            a.0.cmp(&b.0)
                .then(weight(&snapshot, b.0, b.1).cmp(&weight(&snapshot, a.0, a.1)))
        });
        self.epoch += 1;
    }

    /// Removes `shard` (no-op when not a member). Bumps the epoch.
    pub fn remove(&mut self, shard: u32) {
        let Ok(idx) = self.members.binary_search(&shard) else {
            return;
        };
        self.members.remove(idx);
        self.points.retain(|&(_, s)| s != shard);
        self.epoch += 1;
    }

    /// The ring point of a routing key.
    fn key_point(&self, key: u64) -> u64 {
        mix64(self.cfg.seed ^ mix64(key.wrapping_add(1)))
    }

    /// Distinct members in clockwise ring order starting at `key`'s point:
    /// the key's home shard first, then each successor arc's owner.
    fn clockwise(&self, key: u64) -> Vec<u32> {
        let n = self.points.len();
        let mut order = Vec::with_capacity(self.members.len());
        if n == 0 {
            return order;
        }
        let start = self.points.partition_point(|&(p, _)| p < self.key_point(key));
        for i in 0..n {
            let (_, shard) = self.points[(start + i) % n];
            if !order.contains(&shard) {
                order.push(shard);
                if order.len() == self.members.len() {
                    break;
                }
            }
        }
        order
    }

    /// Routes `key` to the first admitting member clockwise from its ring
    /// point. `None` when no member admits.
    pub fn route(&self, key: u64, admits: impl Fn(u32) -> bool) -> Option<u32> {
        self.clockwise(key).into_iter().find(|&s| admits(s))
    }

    /// Bounded-load routing: the first admitting member clockwise whose
    /// current `load` is under `bound` (see [`load_bound`]); when every
    /// admitting member is at the bound, the key falls back to its home —
    /// the first admitting member — so routing never fails while any
    /// member admits.
    pub fn route_bounded(
        &self,
        key: u64,
        bound: usize,
        load: impl Fn(u32) -> usize,
        admits: impl Fn(u32) -> bool,
    ) -> Option<u32> {
        let order = self.clockwise(key);
        order
            .iter()
            .copied()
            .find(|&s| admits(s) && load(s) < bound)
            .or_else(|| order.into_iter().find(|&s| admits(s)))
    }
}

/// The bounded-load threshold for a ring of `members` shards carrying
/// `total_load` queued jobs in all: `ceil(factor · (total_load + 1) /
/// members)`, at least 1. Routing one more job to a shard already at the
/// bound would push it past `factor` times the post-placement mean, so
/// [`HashRing::route_bounded`] overflows past it instead.
pub fn load_bound(total_load: usize, members: usize, factor: f64) -> usize {
    if members == 0 {
        return 1;
    }
    let mean = (total_load + 1) as f64 / members as f64;
    ((factor * mean).ceil() as usize).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn ring(members: &[u32]) -> HashRing {
        let mut r = HashRing::new(RingConfig { seed: 7 });
        for &m in members {
            r.insert(m);
        }
        r
    }

    #[test]
    fn epoch_counts_every_membership_change() {
        let mut r = ring(&[0, 1, 2]);
        assert_eq!(r.epoch(), 3);
        r.insert(1); // duplicate: no-op
        assert_eq!(r.epoch(), 3);
        r.remove(1);
        assert_eq!(r.epoch(), 4);
        r.remove(1); // absent: no-op
        assert_eq!(r.epoch(), 4);
        assert_eq!(r.members(), &[0, 2]);
    }

    #[test]
    fn routing_is_deterministic_and_total() {
        let r = ring(&[0, 1, 2, 3]);
        for key in 0..256u64 {
            let a = r.route(key, |_| true).expect("total");
            let b = r.route(key, |_| true).expect("total");
            assert_eq!(a, b);
            assert!(r.contains(a));
        }
        // No admitting member: route is None, never a panic.
        assert_eq!(r.route(5, |_| false), None);
    }

    #[test]
    fn join_moves_keys_only_to_the_joiner() {
        let mut r = ring(&[0, 1, 2]);
        let before: BTreeMap<u64, u32> =
            (0..512u64).map(|k| (k, r.route(k, |_| true).unwrap())).collect();
        r.insert(3);
        let mut moved = 0;
        for (k, home) in &before {
            let now = r.route(*k, |_| true).unwrap();
            if now != *home {
                assert_eq!(now, 3, "key {k} moved to shard {now}, not the joiner");
                moved += 1;
            }
        }
        assert!(moved > 0, "the joiner must take over some arcs");
        assert!(
            moved < before.len() / 2,
            "minimal movement: {moved}/{} keys moved on one join",
            before.len()
        );
    }

    #[test]
    fn leave_moves_only_the_leavers_keys() {
        let mut r = ring(&[0, 1, 2, 3]);
        let before: BTreeMap<u64, u32> =
            (0..512u64).map(|k| (k, r.route(k, |_| true).unwrap())).collect();
        r.remove(2);
        for (k, home) in &before {
            let now = r.route(*k, |_| true).unwrap();
            if *home != 2 {
                assert_eq!(now, *home, "key {k} moved without cause");
            } else {
                assert_ne!(now, 2);
            }
        }
    }

    #[test]
    fn bounded_route_respects_the_load_bound() {
        let r = ring(&[0, 1, 2]);
        let mut loads: BTreeMap<u32, usize> = BTreeMap::new();
        let n = 300usize;
        for key in 0..n as u64 {
            let total: usize = loads.values().sum();
            let bound = load_bound(total, 3, 1.25);
            let s = r
                .route_bounded(key, bound, |s| loads.get(&s).copied().unwrap_or(0), |_| true)
                .expect("total");
            *loads.entry(s).or_default() += 1;
        }
        let max = *loads.values().max().unwrap();
        let mean = n as f64 / 3.0;
        assert!(
            (max as f64) <= 1.25 * mean + 1.0,
            "max load {max} exceeds the bound over mean {mean}"
        );
    }

    #[test]
    fn non_admitting_members_are_skipped_not_crashed() {
        let r = ring(&[0, 1, 2]);
        for key in 0..64u64 {
            let s = r.route(key, |s| s != 1).expect("two admitting members");
            assert_ne!(s, 1);
        }
        // Bounded route falls back to the first admitting member when all
        // admitting members sit at the bound.
        let s = r.route_bounded(9, 1, |_| 10, |s| s == 2);
        assert_eq!(s, Some(2));
    }

    #[test]
    fn load_bound_floor_is_one() {
        assert_eq!(load_bound(0, 0, 1.25), 1);
        assert!(load_bound(0, 3, 1.25) >= 1);
        assert!(load_bound(300, 3, 1.25) >= 126);
    }
}
