//! Request vocabulary of the serving subsystem: workload classes, deadline
//! classes, the request record itself, and the typed rejection reasons the
//! admission controller returns.

use fftx_core::{Cell, Decomposition, FftGrid, FftxConfig, Problem, SchedulerPolicy, DUAL};
use fftx_fft::Complex64;
use std::sync::Arc;

/// Problem-geometry class of a request. The serving layer batches only
/// requests of one class together, because a batch shares one `Problem`
/// (grid, stick layout, execution plans).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum GeometryClass {
    /// ~18³ dense grid (cutoff 6 Ry, 8 bohr cell) — the workspace's
    /// laptop-scale test geometry.
    Small,
    /// ~24³ dense grid (cutoff 8 Ry, 9 bohr cell).
    Medium,
    /// ~28³ dense grid (cutoff 10 Ry, 10 bohr cell).
    Large,
    /// The Small geometry with the z dimension forced to [`PRIME_NR3`]
    /// (a prime above the 1-D engine's direct-size limit), so every z-axis
    /// transform takes the Bluestein chirp-z path. Carries zero weight in
    /// the synthetic traffic generator — it exists for explicit coverage of
    /// the non-power-friendly serving path, not for the steady-state mix.
    Prime,
}

/// The z dimension of the `prime` geometry class: the smallest prime above
/// `MAX_DIRECT_PRIME` (37), so the dimension cannot be handled by direct
/// mixed-radix kernels and must go through Bluestein. Cutoff-derived grids
/// can never produce it — `good_fft_order` rounds every dimension to
/// `2^a·3^b·5^c·7^d·11^e` form — which is exactly why the class exists.
pub const PRIME_NR3: usize = 41;

impl GeometryClass {
    /// Every class, smallest first; `Prime` last so the first three rows
    /// keep their historical traffic-weight indices.
    pub const ALL: [GeometryClass; 4] = [
        GeometryClass::Small,
        GeometryClass::Medium,
        GeometryClass::Large,
        GeometryClass::Prime,
    ];

    /// Short name used in reports and CSVs.
    pub fn name(self) -> &'static str {
        match self {
            GeometryClass::Small => "small",
            GeometryClass::Medium => "medium",
            GeometryClass::Large => "large",
            GeometryClass::Prime => "prime",
        }
    }

    /// Plane-wave cutoff of the class (Ry).
    pub fn ecutwfc(self) -> f64 {
        match self {
            GeometryClass::Small | GeometryClass::Prime => 6.0,
            GeometryClass::Medium => 8.0,
            GeometryClass::Large => 10.0,
        }
    }

    /// Cubic lattice parameter of the class (bohr).
    pub fn alat(self) -> f64 {
        match self {
            GeometryClass::Small | GeometryClass::Prime => 8.0,
            GeometryClass::Medium => 9.0,
            GeometryClass::Large => 10.0,
        }
    }

    /// Stable index (row order of [`GeometryClass::ALL`]).
    pub fn index(self) -> usize {
        match self {
            GeometryClass::Small => 0,
            GeometryClass::Medium => 1,
            GeometryClass::Large => 2,
            GeometryClass::Prime => 3,
        }
    }

    /// The explicit dense grid this class forces, when it does not use the
    /// cutoff-derived one. Only `Prime` overrides: its z dimension becomes
    /// [`PRIME_NR3`] while x and y keep the cutoff-derived order.
    pub(crate) fn grid_override(self, config: &FftxConfig) -> Option<FftGrid> {
        match self {
            GeometryClass::Prime => {
                let cell = Cell::cubic(config.alat);
                let base = FftGrid::from_cutoff(&cell, DUAL * config.ecutwfc);
                Some(FftGrid::raw(base.nr1, base.nr2, PRIME_NR3))
            }
            _ => None,
        }
    }

    /// The miniapp configuration of a batch of this class: `nbnd` coalesced
    /// bands on an `nr`×`ntg` layout under `mode`, with the serving
    /// workload seed (the seed fixes the synthetic band/potential data, so
    /// a served batch and a direct engine run on the same configuration are
    /// bit-comparable).
    pub fn config(
        self,
        nbnd: usize,
        nr: usize,
        ntg: usize,
        mode: SchedulerPolicy,
        seed: u64,
    ) -> FftxConfig {
        FftxConfig {
            ecutwfc: self.ecutwfc(),
            alat: self.alat(),
            nbnd,
            nr,
            ntg,
            mode,
            decomp: Decomposition::Slab,
            seed,
        }
    }
}

/// Builds the batch [`Problem`] of a class the class-aware way: classes on
/// cutoff-derived grids go through [`Problem::new`]; a class with a grid
/// override (today only [`GeometryClass::Prime`]) goes through
/// [`Problem::with_grid`] on its explicit grid. Every site that turns a
/// batch into a `Problem` — the serving executor, the tuner's DES pricing,
/// and the golden tests' direct re-runs — must route through this function
/// so served and direct executions of one class build identical problems.
pub fn class_problem(class: GeometryClass, config: FftxConfig) -> Arc<Problem> {
    match class.grid_override(&config) {
        Some(grid) => Problem::with_grid(config, grid),
        None => Problem::new(config),
    }
}

/// Latency expectation of a request, in virtual seconds from arrival.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum DeadlineClass {
    /// Interactive traffic: tight budget, shed early under overload.
    Interactive,
    /// Default traffic.
    Standard,
    /// Throughput traffic: generous budget, sheds last.
    Batch,
}

impl DeadlineClass {
    /// Every class, tightest first.
    pub const ALL: [DeadlineClass; 3] = [
        DeadlineClass::Interactive,
        DeadlineClass::Standard,
        DeadlineClass::Batch,
    ];

    /// Short name used in reports and CSVs.
    pub fn name(self) -> &'static str {
        match self {
            DeadlineClass::Interactive => "interactive",
            DeadlineClass::Standard => "standard",
            DeadlineClass::Batch => "batch",
        }
    }

    /// Latency budget in virtual seconds: a request whose estimated wait
    /// already exceeds this at arrival is shed instead of queued.
    pub fn budget_s(self) -> f64 {
        match self {
            DeadlineClass::Interactive => 0.05,
            DeadlineClass::Standard => 0.25,
            DeadlineClass::Batch => 2.0,
        }
    }
}

/// One wavefunction-transform request: apply the real-space-diagonal
/// operator to `bands` fresh bands of the class geometry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Request {
    /// Unique, monotonically-assigned request id.
    pub id: u64,
    /// Tenant (client) the request belongs to.
    pub tenant: u32,
    /// Problem geometry class.
    pub class: GeometryClass,
    /// Number of bands to transform (the unit of batch coalescing).
    pub bands: usize,
    /// Latency expectation.
    pub deadline: DeadlineClass,
    /// Arrival time in virtual seconds.
    pub arrival_s: f64,
}

/// Typed rejection returned by admission control — the caller can tell a
/// capacity problem from a fairness cap from a hopeless deadline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RejectReason {
    /// The bounded queue is full.
    QueueFull {
        /// Requests currently queued.
        depth: usize,
        /// Queue capacity.
        cap: usize,
    },
    /// The tenant already holds its fair share of the queue.
    TenantOverShare {
        /// The tenant.
        tenant: u32,
        /// Requests the tenant holds in the queue.
        held: usize,
        /// Per-tenant slot cap.
        cap: usize,
    },
    /// The estimated completion time already exceeds the deadline budget;
    /// queueing the request would only waste capacity on a late answer.
    DeadlineUnmeetable {
        /// Estimated wait + service at arrival (virtual seconds).
        estimate_s: f64,
        /// The request's budget (virtual seconds).
        budget_s: f64,
    },
    /// The fleet's brown-out ladder refused the request: under sustained
    /// pressure the fleet sheds whole deadline classes (then rejects all
    /// new work) instead of queueing requests it cannot serve in time.
    FleetDegraded {
        /// Degradation-level name at rejection (see `degrade`), or
        /// `no_shard` when no shard was admitting at all.
        level: &'static str,
    },
}

impl RejectReason {
    /// Stable short label of the rejection class (counter key, CSV column).
    pub fn kind(&self) -> &'static str {
        match self {
            RejectReason::QueueFull { .. } => "queue_full",
            RejectReason::TenantOverShare { .. } => "tenant_share",
            RejectReason::DeadlineUnmeetable { .. } => "deadline",
            RejectReason::FleetDegraded { .. } => "degraded",
        }
    }
}

/// FNV-1a over the exact bit patterns of band coefficients — the same
/// construction as the golden bitwise suite, so serving-layer hashes and
/// direct-engine hashes are comparable.
pub fn band_hash(bands: &[Vec<Complex64>]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    let mut eat = |bits: u64| {
        for byte in bits.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(PRIME);
        }
    };
    eat(bands.len() as u64);
    for band in bands {
        eat(band.len() as u64);
        for c in band {
            eat(c.re.to_bits());
            eat(c.im.to_bits());
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_configs_validate() {
        for class in GeometryClass::ALL {
            let c = class.config(4, 2, 2, SchedulerPolicy::Serial, 1);
            c.validate();
            assert_eq!(c.ecutwfc, class.ecutwfc());
            assert!(!class.name().is_empty());
        }
        assert_eq!(GeometryClass::Small.index(), 0);
        assert_eq!(GeometryClass::Large.index(), 2);
        assert_eq!(GeometryClass::Prime.index(), 3);
        for (i, class) in GeometryClass::ALL.iter().enumerate() {
            assert_eq!(class.index(), i);
        }
    }

    #[test]
    fn prime_class_forces_a_bluestein_dimension() {
        let cfg = GeometryClass::Prime.config(4, 2, 2, SchedulerPolicy::Serial, 1);
        let grid = GeometryClass::Prime
            .grid_override(&cfg)
            .expect("prime class overrides its grid");
        assert_eq!(grid.nr3, PRIME_NR3);
        // No good FFT order equals a prime above the direct-size limit.
        assert_ne!(fftx_fft::good_fft_order(PRIME_NR3 - 1), PRIME_NR3);
        for class in [GeometryClass::Small, GeometryClass::Medium, GeometryClass::Large] {
            let cfg = class.config(4, 2, 2, SchedulerPolicy::Serial, 1);
            assert!(class.grid_override(&cfg).is_none());
        }
    }

    #[test]
    fn class_problem_builds_the_override_grid() {
        let cfg = GeometryClass::Prime.config(4, 2, 2, SchedulerPolicy::Serial, 1);
        let p = class_problem(GeometryClass::Prime, cfg);
        assert_eq!(p.grid().nr3, PRIME_NR3);
        let small = class_problem(
            GeometryClass::Small,
            GeometryClass::Small.config(4, 2, 2, SchedulerPolicy::Serial, 1),
        );
        assert_ne!(small.grid().nr3, PRIME_NR3);
    }

    #[test]
    fn deadline_budgets_are_ordered() {
        assert!(DeadlineClass::Interactive.budget_s() < DeadlineClass::Standard.budget_s());
        assert!(DeadlineClass::Standard.budget_s() < DeadlineClass::Batch.budget_s());
    }

    #[test]
    fn reject_kinds_are_distinct() {
        let kinds = [
            RejectReason::QueueFull { depth: 1, cap: 1 }.kind(),
            RejectReason::TenantOverShare { tenant: 0, held: 1, cap: 1 }.kind(),
            RejectReason::DeadlineUnmeetable { estimate_s: 1.0, budget_s: 0.5 }.kind(),
            RejectReason::FleetDegraded { level: "reject_new" }.kind(),
        ];
        assert_eq!(kinds.len(), 4);
        assert!(kinds.windows(2).all(|w| w[0] != w[1]));
    }

    #[test]
    fn band_hash_discriminates_shape_and_value() {
        let a = vec![vec![Complex64 { re: 1.0, im: 2.0 }]];
        let b = vec![vec![Complex64 { re: 1.0, im: 2.0 }, Complex64 { re: 0.0, im: 0.0 }]];
        let c = vec![vec![Complex64 { re: 1.0, im: 2.5 }]];
        assert_eq!(band_hash(&a), band_hash(&a));
        assert_ne!(band_hash(&a), band_hash(&b));
        assert_ne!(band_hash(&a), band_hash(&c));
    }
}
