//! Admission control and backpressure: a bounded FIFO queue with a
//! per-tenant fair-share cap and deadline-aware load shedding, returning
//! typed rejections so callers (and the shed-rate counters) can tell the
//! overload modes apart.

use crate::batch::{assemble, plan_batch, Batch, BatchConfig};
use crate::error::ServeError;
use crate::request::{RejectReason, Request};
use std::collections::{BTreeMap, VecDeque};

/// Admission knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdmissionConfig {
    /// Bounded queue capacity (requests).
    pub queue_cap: usize,
    /// Largest fraction of the queue one tenant may hold (fair share);
    /// at least one slot is always allowed.
    pub tenant_share: f64,
    /// Shed a request at arrival when its estimated completion time
    /// already exceeds its deadline budget.
    pub shed_late: bool,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            queue_cap: 64,
            tenant_share: 0.5,
            shed_late: true,
        }
    }
}

/// The admission controller: owns the bounded queue and the per-tenant
/// occupancy accounting.
#[derive(Debug)]
pub struct Admission {
    cfg: AdmissionConfig,
    queue: VecDeque<Request>,
    held: BTreeMap<u32, usize>,
}

impl Admission {
    /// An empty queue under `cfg`.
    pub fn new(cfg: AdmissionConfig) -> Self {
        assert!(cfg.queue_cap > 0, "admission: queue capacity must be positive");
        Admission {
            cfg,
            queue: VecDeque::new(),
            held: BTreeMap::new(),
        }
    }

    /// Requests currently queued.
    pub fn depth(&self) -> usize {
        self.queue.len()
    }

    /// Queue slots one tenant may hold at most.
    pub(crate) fn tenant_cap(&self) -> usize {
        ((self.cfg.queue_cap as f64 * self.cfg.tenant_share) as usize).max(1)
    }

    /// The queued requests, front (oldest) first.
    pub fn queued(&self) -> impl Iterator<Item = &Request> {
        self.queue.iter()
    }

    /// The admission decision for a request, without mutating the queue.
    /// `estimate_s` is the caller's estimate of the request's completion
    /// latency (wait + service) were it admitted now. Pure, so callers
    /// that journal decisions before applying them (the fleet's write-ahead
    /// path) decide and enqueue in two steps.
    ///
    /// # Errors
    /// Returns the typed [`RejectReason`] when the request would be shed:
    /// queue full, tenant over its fair share, or deadline unmeetable.
    pub fn check(&self, req: &Request, estimate_s: f64) -> Result<(), RejectReason> {
        if self.queue.len() >= self.cfg.queue_cap {
            return Err(RejectReason::QueueFull {
                depth: self.queue.len(),
                cap: self.cfg.queue_cap,
            });
        }
        let held = self.held.get(&req.tenant).copied().unwrap_or(0);
        if held >= self.tenant_cap() {
            return Err(RejectReason::TenantOverShare {
                tenant: req.tenant,
                held,
                cap: self.tenant_cap(),
            });
        }
        let budget_s = req.deadline.budget_s();
        if self.cfg.shed_late && estimate_s > budget_s {
            return Err(RejectReason::DeadlineUnmeetable {
                estimate_s,
                budget_s,
            });
        }
        Ok(())
    }

    /// Enqueues unconditionally at the back, bypassing every cap — the
    /// apply path of an already-journaled acceptance.
    pub fn push_back(&mut self, req: Request) {
        *self.held.entry(req.tenant).or_insert(0) += 1;
        self.queue.push_back(req);
    }

    /// Enqueues unconditionally at the *front*, bypassing every cap. The
    /// failover path: a job drained from a dead shard was already accepted
    /// once, so it re-queues ahead of fresh arrivals and is never re-shed.
    pub fn restore_front(&mut self, req: Request) {
        *self.held.entry(req.tenant).or_insert(0) += 1;
        self.queue.push_front(req);
    }

    /// Offers a request: [`Admission::check`] then [`Admission::push_back`].
    ///
    /// # Errors
    /// Returns the typed [`RejectReason`] when the request is shed.
    pub fn offer(&mut self, req: Request, estimate_s: f64) -> Result<(), RejectReason> {
        self.check(&req, estimate_s)?;
        self.push_back(req);
        Ok(())
    }

    /// Removes the requests with ids `ids` from the queue (releasing their
    /// tenant slots) and returns them in the order given — the apply path
    /// of an already-journaled batch formation, where the member set was
    /// decided (and written ahead) before the queue is touched.
    ///
    /// # Errors
    /// [`ServeError::PlanOutOfRange`] when an id is not queued — a
    /// journal/queue desync, reported instead of panicking.
    pub fn take_ids(&mut self, ids: &[u64]) -> Result<Vec<Request>, ServeError> {
        let mut members = Vec::with_capacity(ids.len());
        for &id in ids {
            let pos = self
                .queue
                .iter()
                .position(|r| r.id == id)
                .ok_or(ServeError::PlanOutOfRange { pos: id as usize, depth: self.queue.len() })?;
            let req = self
                .queue
                .remove(pos)
                .ok_or(ServeError::PlanOutOfRange { pos, depth: self.queue.len() })?;
            let held = self
                .held
                .get_mut(&req.tenant)
                .ok_or(ServeError::TenantUnaccounted { tenant: req.tenant })?;
            *held -= 1;
            if *held == 0 {
                self.held.remove(&req.tenant);
            }
            members.push(req);
        }
        Ok(members)
    }

    /// Drains the whole queue front-first, releasing every tenant slot —
    /// the failover path collecting a dead shard's unserved requests.
    pub fn drain(&mut self) -> Vec<Request> {
        self.held.clear();
        self.queue.drain(..).collect()
    }

    /// Forms the next batch (see [`plan_batch`]): removes the coalesced
    /// requests from the queue and releases their tenant slots. `Ok(None)`
    /// when the queue is empty.
    ///
    /// # Errors
    /// [`ServeError`] when the plan and the queue desync (a position out of
    /// range, a tenant missing from the occupancy accounting) — internal
    /// inconsistencies reported instead of panicking.
    pub fn form_batch(&mut self, cfg: &BatchConfig) -> Result<Option<Batch>, ServeError> {
        let plan = plan_batch(self.queue.iter(), cfg);
        if plan.is_empty() {
            return Ok(None);
        }
        let mut members = Vec::with_capacity(plan.len());
        // Remove back to front so earlier positions stay valid.
        for &pos in plan.iter().rev() {
            let req = self
                .queue
                .remove(pos)
                .ok_or(ServeError::PlanOutOfRange { pos, depth: self.queue.len() })?;
            let held = self
                .held
                .get_mut(&req.tenant)
                .ok_or(ServeError::TenantUnaccounted { tenant: req.tenant })?;
            *held -= 1;
            if *held == 0 {
                self.held.remove(&req.tenant);
            }
            members.push(req);
        }
        members.reverse();
        assemble(members, cfg).map(Some)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::{DeadlineClass, GeometryClass};

    fn req(id: u64, tenant: u32, deadline: DeadlineClass) -> Request {
        Request {
            id,
            tenant,
            class: GeometryClass::Small,
            bands: 2,
            deadline,
            arrival_s: id as f64,
        }
    }

    #[test]
    fn bounded_queue_rejects_overflow() {
        let mut adm = Admission::new(AdmissionConfig {
            queue_cap: 2,
            tenant_share: 1.0,
            shed_late: false,
        });
        adm.offer(req(0, 0, DeadlineClass::Standard), 0.0).expect("fits");
        adm.offer(req(1, 1, DeadlineClass::Standard), 0.0).expect("fits");
        let err = adm.offer(req(2, 2, DeadlineClass::Standard), 0.0).expect_err("full");
        assert!(matches!(err, RejectReason::QueueFull { depth: 2, cap: 2 }));
    }

    #[test]
    fn tenant_fair_share_is_enforced() {
        let mut adm = Admission::new(AdmissionConfig {
            queue_cap: 8,
            tenant_share: 0.25,
            shed_late: false,
        });
        assert_eq!(adm.tenant_cap(), 2);
        adm.offer(req(0, 7, DeadlineClass::Standard), 0.0).expect("1st");
        adm.offer(req(1, 7, DeadlineClass::Standard), 0.0).expect("2nd");
        let err = adm.offer(req(2, 7, DeadlineClass::Standard), 0.0).expect_err("over share");
        assert!(matches!(err, RejectReason::TenantOverShare { tenant: 7, held: 2, cap: 2 }));
        // Other tenants still get in.
        adm.offer(req(3, 1, DeadlineClass::Standard), 0.0).expect("other tenant");
    }

    #[test]
    fn deadline_shedding_uses_the_budget() {
        let mut adm = Admission::new(AdmissionConfig::default());
        let tight = req(0, 0, DeadlineClass::Interactive);
        let err = adm.offer(tight, 1.0).expect_err("hopeless");
        assert!(matches!(err, RejectReason::DeadlineUnmeetable { .. }));
        // The same estimate fits a batch-class budget.
        adm.offer(req(1, 0, DeadlineClass::Batch), 1.0).expect("batch budget");
        // Shedding off admits anything.
        let mut lax = Admission::new(AdmissionConfig { shed_late: false, ..Default::default() });
        lax.offer(tight, 99.0).expect("shedding disabled");
    }

    #[test]
    fn forming_batches_releases_tenant_slots() {
        let mut adm = Admission::new(AdmissionConfig {
            queue_cap: 4,
            tenant_share: 0.25,
            shed_late: false,
        });
        adm.offer(req(0, 3, DeadlineClass::Standard), 0.0).expect("fits");
        assert!(adm.offer(req(1, 3, DeadlineClass::Standard), 0.0).is_err());
        let batch = adm
            .form_batch(&BatchConfig::default())
            .expect("consistent queue")
            .expect("batch");
        assert_eq!(batch.members.len(), 1);
        assert_eq!(adm.depth(), 0);
        adm.offer(req(2, 3, DeadlineClass::Standard), 0.0).expect("slot released");
    }

    #[test]
    fn form_batch_on_empty_queue_is_none() {
        let mut adm = Admission::new(AdmissionConfig::default());
        assert!(adm.form_batch(&BatchConfig::default()).expect("consistent").is_none());
    }

    #[test]
    fn restore_front_bypasses_caps_and_jumps_the_queue() {
        let mut adm = Admission::new(AdmissionConfig {
            queue_cap: 2,
            tenant_share: 0.5,
            shed_late: true,
        });
        adm.offer(req(0, 0, DeadlineClass::Standard), 0.0).expect("fits");
        adm.offer(req(1, 1, DeadlineClass::Standard), 0.0).expect("fits");
        // Full queue, saturated tenant, hopeless deadline: a failover
        // restore still goes in — and at the front.
        assert!(adm.check(&req(2, 0, DeadlineClass::Interactive), 9.0).is_err());
        adm.restore_front(req(2, 0, DeadlineClass::Interactive));
        assert_eq!(adm.depth(), 3);
        assert_eq!(adm.queued().next().map(|r| r.id), Some(2));
        // The restored slot is released like any other on batch formation.
        let batch = adm
            .form_batch(&BatchConfig::default())
            .expect("consistent queue")
            .expect("batch");
        assert!(batch.members.iter().any(|m| m.request.id == 2));
    }

    #[test]
    fn check_is_pure() {
        let adm = Admission::new(AdmissionConfig::default());
        let r = req(0, 0, DeadlineClass::Standard);
        assert!(adm.check(&r, 0.0).is_ok());
        assert_eq!(adm.depth(), 0, "check must not enqueue");
    }
}
