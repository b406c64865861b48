//! Problem setup shared by every execution engine: grid, layout, potential,
//! and per-rank band shares — all deterministic from the configuration, so
//! each rank builds an identical copy with no communication (exactly how
//! FFTXlib initialises its descriptor on every process).

use crate::config::FftxConfig;
use crate::plan::ExecPlan;
use fftx_fft::Complex64;
use fftx_pw::{
    extract_share, generate_band, generate_potential, Cell, FftGrid, GSphere, StickSet,
    TaskGroupLayout, DUAL,
};
use std::sync::Arc;

/// Immutable problem state shared by all ranks of one run.
pub struct Problem {
    /// The configuration it was built from.
    pub config: FftxConfig,
    /// The simulation cell.
    pub cell: Cell,
    /// The distributed layout (grid, sticks, groups, planes).
    pub layout: TaskGroupLayout,
    /// Dense real-space potential.
    pub v: Vec<f64>,
    /// Per-group execution plans (index maps, chunk geometry, interned FFT
    /// plans), built once here and shared by every engine and iteration.
    plans: Vec<Arc<ExecPlan>>,
}

impl Problem {
    /// Builds the problem for `config` (validates it first).
    pub fn new(config: FftxConfig) -> Arc<Self> {
        let cell = Cell::cubic(config.alat);
        let grid = FftGrid::from_cutoff(&cell, DUAL * config.ecutwfc);
        Self::with_grid(config, grid)
    }

    /// Builds the problem for `config` on an explicitly chosen dense grid
    /// instead of the cutoff-derived one. This is how the serving layer's
    /// `prime` geometry class forces a dimension with a large prime factor
    /// (Bluestein path) through the full stack — [`Problem::new`] always
    /// rounds through `good_fft_order`, so no cutoff can produce such a
    /// grid. The grid must still hold the cutoff sphere (the caller only
    /// ever *grows* a dimension, which is always safe).
    pub fn with_grid(config: FftxConfig, grid: FftGrid) -> Arc<Self> {
        config.validate();
        let cell = Cell::cubic(config.alat);
        let sphere = GSphere::generate(&cell, config.ecutwfc, &grid);
        let set = StickSet::build(&sphere, &grid);
        let layout = TaskGroupLayout::new(grid, set, config.nr, config.layout_ntg());
        layout.validate();
        let v = generate_potential(&grid, config.seed);
        let plans = (0..layout.r)
            .map(|g| Arc::new(ExecPlan::for_layout_decomp(&layout, g, config.decomp)))
            .collect();
        Arc::new(Problem {
            config,
            cell,
            layout,
            v,
            plans,
        })
    }

    /// A problem sharing this one's cell, layout, potential, and execution
    /// plans, with a different band count — the batch entry point of the
    /// serving layer. The layout and plans depend only on the geometry, so
    /// a batch of coalesced requests reuses the index maps and interned FFT
    /// plans built once per geometry class instead of paying the full
    /// [`Problem::new`] per batch.
    ///
    /// # Panics
    /// Panics when the adjusted configuration fails validation (band count
    /// not divisible by the task-group count).
    pub fn with_nbnd(&self, nbnd: usize) -> Arc<Self> {
        let mut config = self.config;
        config.nbnd = nbnd;
        config.validate();
        Arc::new(Problem {
            config,
            cell: self.cell,
            layout: self.layout.clone(),
            v: self.v.clone(),
            plans: self.plans.clone(),
        })
    }

    /// The precomputed execution plan of task group `g`.
    pub fn exec_plan(&self, g: usize) -> &Arc<ExecPlan> {
        &self.plans[g]
    }

    /// Canonical coefficients of band `b`.
    pub fn band(&self, b: usize) -> Vec<Complex64> {
        generate_band(&self.layout.set, b, self.config.seed)
    }

    /// Rank `rank`'s share of every band (the initial distributed state).
    pub fn initial_shares(&self, rank: usize) -> Vec<Vec<Complex64>> {
        (0..self.config.nbnd)
            .map(|b| extract_share(&self.layout.set, &self.layout.dist, rank, &self.band(b)))
            .collect()
    }

    /// Grid dimensions.
    pub fn grid(&self) -> FftGrid {
        self.layout.grid
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SchedulerPolicy;
    use fftx_pw::assemble_shares;

    #[test]
    fn problem_setup_is_deterministic() {
        let c = FftxConfig::small(2, 2, SchedulerPolicy::Serial);
        let p1 = Problem::new(c);
        let p2 = Problem::new(c);
        assert_eq!(p1.v, p2.v);
        assert_eq!(p1.band(1), p2.band(1));
        assert_eq!(p1.layout.group_sticks, p2.layout.group_sticks);
    }

    #[test]
    fn shares_reassemble_to_bands() {
        let c = FftxConfig::small(2, 2, SchedulerPolicy::Serial);
        let p = Problem::new(c);
        let all: Vec<Vec<Vec<Complex64>>> = (0..c.vmpi_ranks())
            .map(|r| p.initial_shares(r))
            .collect();
        for b in 0..c.nbnd {
            let shares: Vec<Vec<Complex64>> = all.iter().map(|r| r[b].clone()).collect();
            let band = assemble_shares(&p.layout.set, &p.layout.dist, &shares);
            assert_eq!(band, p.band(b));
        }
    }

    #[test]
    fn with_nbnd_matches_a_fresh_build() {
        let c = FftxConfig::small(2, 2, SchedulerPolicy::Serial);
        let base = Problem::new(c);
        let grown = base.with_nbnd(8);
        assert_eq!(grown.config.nbnd, 8);
        let fresh = Problem::new(FftxConfig { nbnd: 8, ..c });
        assert_eq!(grown.v, fresh.v);
        assert_eq!(grown.band(7), fresh.band(7));
        assert_eq!(grown.layout.group_sticks, fresh.layout.group_sticks);
        for r in 0..c.vmpi_ranks() {
            assert_eq!(grown.initial_shares(r), fresh.initial_shares(r));
        }
    }

    #[test]
    #[should_panic(expected = "divisible")]
    fn with_nbnd_validates() {
        let base = Problem::new(FftxConfig::small(1, 4, SchedulerPolicy::Serial));
        let _ = base.with_nbnd(6);
    }

    #[test]
    fn with_grid_matches_new_on_the_derived_grid() {
        let c = FftxConfig::small(2, 2, SchedulerPolicy::Serial);
        let base = Problem::new(c);
        let explicit = Problem::with_grid(c, base.grid());
        assert_eq!(explicit.v, base.v);
        assert_eq!(explicit.band(1), base.band(1));
        assert_eq!(explicit.layout.group_sticks, base.layout.group_sticks);
    }

    #[test]
    fn with_grid_accepts_a_prime_dimension() {
        // Grow z to a prime above the direct-size limit: the stick layout
        // and plans must still build, and the grid survives verbatim.
        let c = FftxConfig::small(2, 2, SchedulerPolicy::Serial);
        let base = Problem::new(c);
        let g = base.grid();
        let raw = FftGrid::raw(g.nr1, g.nr2, 41);
        let p = Problem::with_grid(c, raw);
        assert_eq!(p.grid().nr3, 41);
        assert_eq!(p.v.len(), p.grid().volume());
        p.layout.validate();
    }

    #[test]
    fn task_mode_layout_has_one_group_member() {
        let c = FftxConfig::small(4, 2, SchedulerPolicy::TaskPerFft);
        let p = Problem::new(c);
        assert_eq!(p.layout.t, 1);
        assert_eq!(p.layout.r, 4);
    }
}
