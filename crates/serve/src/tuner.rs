//! The auto-tuned placement engine: picks (R×T layout, ntg, scheduler
//! policy, hyper-threading degree, decomposition) per workload class.
//!
//! Decisions are **seeded from the cost models**: every candidate placement
//! is screened with the closed-form `knlsim` estimate
//! ([`fftx_knlsim::quick_estimate`]), the top candidates per policy are
//! priced exactly on the discrete-event simulator
//! ([`fftx_knlsim::simulate`] over the class-aware problem), and the
//! cheapest wins. All model
//! queries are memoised in a deterministic tuning table (`BTreeMap`s keyed
//! by the candidate configuration), so a decision is a pure function of
//! the table state and replays bit-identically.
//!
//! Decisions are **refined online**: the serving loop feeds measured batch
//! durations (derived from `trace::stage` histograms of real executions)
//! back through [`Tuner::observe`]; once a placement has enough
//! observations, the observed mean replaces the modeled cost in the
//! ranking. Every decision is **explainable**: [`Tuner::why`] dumps the
//! full candidate table with quick/DES/observed costs and the winner.

use crate::request::{class_problem, GeometryClass};
use fftx_core::{build_programs, Decomposition, SchedulerPolicy};
use fftx_knlsim::{quick_estimate, simulate, CommModel, ContentionModel, KnlConfig};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One candidate execution configuration for a batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Placement {
    /// First parallel dimension R.
    pub nr: usize,
    /// Task groups (serial policy) or worker threads per rank (task
    /// policies).
    pub ntg: usize,
    /// Scheduler policy over the unified stage graph.
    pub policy: SchedulerPolicy,
    /// Scatter decomposition (slab or pencil lowering).
    pub decomp: Decomposition,
}

impl Placement {
    /// Execution lanes (hardware threads) the placement occupies.
    pub fn lanes(&self) -> usize {
        self.nr * self.ntg
    }

    /// Hyper-threading degree on `node`: lanes stacked per core once the
    /// placement occupies more lanes than the node has cores.
    pub(crate) fn ht_degree(&self, node: &KnlConfig) -> usize {
        self.lanes().div_ceil(node.cores_used(self.lanes()))
    }

    /// Stable display label, e.g. `2x4/fft/slab`.
    pub fn label(&self) -> String {
        format!("{}x{}/{}/{}", self.nr, self.ntg, self.policy.name(), self.decomp.name())
    }

    /// The batch configuration this placement executes: `nbnd` bands of
    /// `class` geometry with the serving workload seed, under this
    /// placement's decomposition.
    pub fn config(&self, class: GeometryClass, nbnd: usize, seed: u64) -> fftx_core::FftxConfig {
        class
            .config(nbnd, self.nr, self.ntg, self.policy, seed)
            .with_decomp(self.decomp)
    }
}

/// The candidate (R, T) layouts of one scheduler policy under one
/// decomposition. Layouts are sized for the serving node slice
/// ([`serve_node`]): up to 16 lanes on 4 cores, so candidates span
/// hyper-threading degrees 1–4 (the paper's Fig. 6 axis).
pub fn candidates_for(policy: SchedulerPolicy, decomp: Decomposition) -> Vec<Placement> {
    let pairs: &[(usize, usize)] = match policy {
        // Original static code: R×T virtual ranks, T task groups.
        SchedulerPolicy::Serial => &[(1, 2), (2, 2), (1, 4), (2, 4)],
        // Task runtimes: R ranks × T workers, layout ntg = 1.
        _ => &[(2, 2), (4, 2), (2, 4), (4, 4)],
    };
    pairs
        .iter()
        .map(|&(nr, ntg)| Placement { nr, ntg, policy, decomp })
        .collect()
}

/// The candidate placements of one scheduler policy across every
/// decomposition. The union over all policies is the auto tuner's search
/// space; a static baseline searches one policy's rows only.
pub fn candidates(policy: SchedulerPolicy) -> Vec<Placement> {
    Decomposition::ALL
        .iter()
        .flat_map(|&d| candidates_for(policy, d))
        .collect()
}

/// The node slice one serving instance schedules onto: a 4-core cut of the
/// paper's KNL (same frequency, same 4-way SMT), so the candidate layouts
/// exercise real hyper-threading degrees while staying laptop-executable.
pub fn serve_node() -> KnlConfig {
    KnlConfig {
        cores: 4,
        ..KnlConfig::paper()
    }
}

/// Tuner knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TunerConfig {
    /// Candidates per policy priced exactly on the DES after the
    /// closed-form screen.
    pub des_top_k: usize,
    /// Observations of one (workload, placement) pair before the measured
    /// mean overrides the modeled cost.
    pub min_observations: u32,
}

impl Default for TunerConfig {
    fn default() -> Self {
        TunerConfig {
            des_top_k: 2,
            min_observations: 3,
        }
    }
}

/// A scored candidate inside a [`Decision`].
#[derive(Debug, Clone, PartialEq)]
pub struct CandidateScore {
    /// The candidate.
    pub placement: Placement,
    /// Closed-form screening estimate (seconds).
    pub quick_s: f64,
    /// Exact DES cost (seconds); `None` when screened out.
    pub des_s: Option<f64>,
    /// Observed mean batch duration (seconds) with the observation count,
    /// once past the refinement threshold.
    pub observed_s: Option<(f64, u32)>,
}

impl CandidateScore {
    /// The cost the ranking uses: observed mean when refined, else the DES
    /// price, else infinity (screened out).
    pub(crate) fn effective_s(&self) -> f64 {
        self.observed_s
            .map(|(s, _)| s)
            .or(self.des_s)
            .unwrap_or(f64::INFINITY)
    }
}

/// A placement decision for one workload key.
#[derive(Debug, Clone, PartialEq)]
pub struct Decision {
    /// The chosen placement.
    pub placement: Placement,
    /// Modeled (or observed) batch service seconds of the choice.
    pub service_s: f64,
    /// Every candidate considered, with its scores.
    pub scored: Vec<CandidateScore>,
    /// True when a measured observation influenced the ranking.
    pub refined: bool,
}

/// Tuning-table key: one candidate configuration of one workload class.
type CKey = (usize, usize, usize, usize, usize, usize); // (class, nbnd, nr, ntg, policy, decomp)

fn ckey(class: GeometryClass, nbnd: usize, p: &Placement) -> CKey {
    let policy_idx = SchedulerPolicy::ALL
        .iter()
        .position(|q| *q == p.policy)
        .expect("policy in ALL");
    (class.index(), nbnd, p.nr, p.ntg, policy_idx, p.decomp.index())
}

#[derive(Debug, Clone, Copy, Default)]
struct Observation {
    n: u32,
    sum_s: f64,
}

/// The placement tuner. See the module docs.
pub struct Tuner {
    node: KnlConfig,
    contention: ContentionModel,
    comm: CommModel,
    cfg: TunerConfig,
    quick_table: BTreeMap<CKey, f64>,
    des_table: BTreeMap<CKey, f64>,
    observations: BTreeMap<CKey, Observation>,
}

impl Tuner {
    /// A tuner for the serving node slice with the paper-calibrated
    /// contention and communication models.
    pub fn new(cfg: TunerConfig) -> Self {
        Tuner {
            node: serve_node(),
            contention: ContentionModel::paper(),
            comm: CommModel::paper(),
            cfg,
            quick_table: BTreeMap::new(),
            des_table: BTreeMap::new(),
            observations: BTreeMap::new(),
        }
    }

    /// The node slice the tuner prices placements for.
    pub fn node(&self) -> &KnlConfig {
        &self.node
    }

    /// Closed-form screening cost of one candidate (memoised).
    fn quick_s(&mut self, class: GeometryClass, nbnd: usize, p: &Placement) -> f64 {
        let key = ckey(class, nbnd, p);
        if let Some(&s) = self.quick_table.get(&key) {
            return s;
        }
        // Cost configs pin seed 0: the data seed feeds the synthetic band
        // values, never the work volume, so pricing is seed-independent.
        let problem = class_problem(class, p.config(class, nbnd, 0));
        let programs = build_programs(&problem);
        let s = quick_estimate(&programs, &self.node, &self.contention, &self.comm).total();
        self.quick_table.insert(key, s);
        s
    }

    /// Exact DES cost of one candidate (memoised). Built from the
    /// class-aware problem so a grid-override class (`prime`) is priced on
    /// the grid it actually executes, not the cutoff-derived one.
    fn des_s(&mut self, class: GeometryClass, nbnd: usize, p: &Placement) -> f64 {
        let key = ckey(class, nbnd, p);
        if let Some(&s) = self.des_table.get(&key) {
            return s;
        }
        let problem = class_problem(class, p.config(class, nbnd, 0));
        let programs = build_programs(&problem);
        let s = simulate(&programs, &self.node, &self.contention, &self.comm).runtime;
        self.des_table.insert(key, s);
        s
    }

    fn observed(&self, class: GeometryClass, nbnd: usize, p: &Placement) -> Option<(f64, u32)> {
        let o = self.observations.get(&ckey(class, nbnd, p))?;
        (o.n >= self.cfg.min_observations).then(|| (o.sum_s / o.n as f64, o.n))
    }

    /// Modeled (or observed, once refined) batch service seconds of a
    /// specific placement for a workload key.
    pub fn service_s(&mut self, class: GeometryClass, nbnd: usize, p: &Placement) -> f64 {
        self.observed(class, nbnd, p)
            .map(|(s, _)| s)
            .unwrap_or_else(|| self.des_s(class, nbnd, p))
    }

    /// Scores one candidate row: closed-form screen on every member, the
    /// top-k priced exactly on the DES (with any observed refinement).
    /// (Stable sort + label tie-break keeps the order deterministic.)
    fn score_row(
        &mut self,
        class: GeometryClass,
        nbnd: usize,
        row: Vec<Placement>,
    ) -> Vec<CandidateScore> {
        let mut scored: Vec<CandidateScore> = row
            .into_iter()
            .map(|p| {
                let quick_s = self.quick_s(class, nbnd, &p);
                CandidateScore {
                    placement: p,
                    quick_s,
                    des_s: None,
                    observed_s: None,
                }
            })
            .collect();
        let mut order: Vec<usize> = (0..scored.len()).collect();
        order.sort_by(|&a, &b| {
            scored[a]
                .quick_s
                .total_cmp(&scored[b].quick_s)
                .then_with(|| scored[a].placement.label().cmp(&scored[b].placement.label()))
        });
        for &i in order.iter().take(self.cfg.des_top_k.max(1)) {
            let p = scored[i].placement;
            scored[i].des_s = Some(self.des_s(class, nbnd, &p));
            scored[i].observed_s = self.observed(class, nbnd, &p);
        }
        scored
    }

    /// Decides the placement for `(class, nbnd)` over every (policy,
    /// decomposition) candidate row, policy major, that matches `policy`
    /// and `decomp` where those are pinned — the static baselines the
    /// auto path is gated against. Each row is screened on its own, so
    /// every decomposition always gets DES-priced representation.
    pub fn decide_in(
        &mut self,
        class: GeometryClass,
        nbnd: usize,
        policy: Option<SchedulerPolicy>,
        decomp: Option<Decomposition>,
    ) -> Decision {
        let mut scored = Vec::new();
        for p in SchedulerPolicy::ALL {
            for d in Decomposition::ALL {
                if policy.is_none_or(|x| x == p) && decomp.is_none_or(|x| x == d) {
                    scored.extend(self.score_row(class, nbnd, candidates_for(p, d)));
                }
            }
        }
        Self::pick(scored)
    }

    /// Decides the placement for `(class, nbnd)` over the full candidate
    /// space — the auto path. By construction its scored set is a
    /// superset of every restricted decision's ([`Tuner::decide_in`]), so
    /// its modeled service time is never worse than any fixed baseline's.
    pub fn decide(&mut self, class: GeometryClass, nbnd: usize) -> Decision {
        self.decide_in(class, nbnd, None, None)
    }

    fn pick(scored: Vec<CandidateScore>) -> Decision {
        let best = scored
            .iter()
            .min_by(|a, b| {
                a.effective_s()
                    .total_cmp(&b.effective_s())
                    .then_with(|| a.placement.label().cmp(&b.placement.label()))
            })
            .expect("non-empty candidate set");
        Decision {
            placement: best.placement,
            service_s: best.effective_s(),
            refined: scored.iter().any(|c| c.observed_s.is_some()),
            scored,
        }
    }

    /// Feeds one measured batch duration (virtual-comparable seconds,
    /// derived from the stage-span histogram of a real execution) back
    /// into the table. Non-finite or non-positive samples are ignored.
    pub fn observe(
        &mut self,
        class: GeometryClass,
        nbnd: usize,
        placement: &Placement,
        measured_s: f64,
    ) {
        if !measured_s.is_finite() || measured_s <= 0.0 {
            return;
        }
        let o = self
            .observations
            .entry(ckey(class, nbnd, placement))
            .or_default();
        o.n += 1;
        o.sum_s += measured_s;
    }

    /// The explainable dump: the full candidate table of one decision,
    /// with the screen estimate, the exact DES price, any observed
    /// refinement, the HT degree, and the winner.
    pub fn why(&mut self, class: GeometryClass, nbnd: usize) -> String {
        let decision = self.decide(class, nbnd);
        let mut out = String::new();
        let _ = writeln!(
            out,
            "placement decision for class={} nbnd={} (node: {} cores x {}-way SMT)",
            class.name(),
            nbnd,
            self.node.cores,
            self.node.max_smt,
        );
        let _ = writeln!(
            out,
            "  {:<14} {:>5} {:>3} {:>12} {:>12} {:>16}",
            "candidate", "lanes", "ht", "quick_s", "des_s", "observed_s(n)"
        );
        for c in &decision.scored {
            let des = c
                .des_s
                .map_or_else(|| "screened".into(), |s| format!("{s:.6}"));
            let obs = c
                .observed_s
                .map_or_else(|| "-".into(), |(s, n)| format!("{s:.6}({n})"));
            let _ = writeln!(
                out,
                "  {:<14} {:>5} {:>3} {:>12.6} {:>12} {:>16}{}",
                c.placement.label(),
                c.placement.lanes(),
                c.placement.ht_degree(&self.node),
                c.quick_s,
                des,
                obs,
                if c.placement == decision.placement { "  <- chosen" } else { "" },
            );
        }
        let _ = writeln!(
            out,
            "  chosen {} at {:.6}s per batch{}",
            decision.placement.label(),
            decision.service_s,
            if decision.refined { " (observation-refined)" } else { " (model-seeded)" },
        );
        out
    }

    /// CSV dump of the deterministic tuning table (every priced candidate).
    pub fn table_csv(&self) -> String {
        let mut out =
            String::from("class,nbnd,nr,ntg,policy,decomp,quick_s,des_s,observed_n,observed_mean_s\n");
        for (&(class, nbnd, nr, ntg, policy, decomp), &quick) in &self.quick_table {
            let key = (class, nbnd, nr, ntg, policy, decomp);
            let des = self.des_table.get(&key);
            let obs = self.observations.get(&key);
            let _ = writeln!(
                out,
                "{},{},{},{},{},{},{:.6e},{},{},{}",
                GeometryClass::ALL[class].name(),
                nbnd,
                nr,
                ntg,
                SchedulerPolicy::ALL[policy].name(),
                Decomposition::ALL[decomp].name(),
                quick,
                des.map_or_else(|| "-".into(), |s| format!("{s:.6e}")),
                obs.map_or(0, |o| o.n),
                obs.map_or_else(|| "-".into(), |o| format!("{:.6e}", o.sum_s / o.n.max(1) as f64)),
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn candidate_rows_cover_ht_degrees() {
        let node = serve_node();
        for policy in SchedulerPolicy::ALL {
            let row = candidates(policy);
            assert!(!row.is_empty());
            for p in &row {
                assert!(p.lanes() <= node.cores * node.max_smt);
                assert!(p.ht_degree(&node) >= 1);
            }
        }
        // The task rows reach into hyper-threading on the 4-core slice.
        assert!(candidates(SchedulerPolicy::TaskPerFft)
            .iter()
            .any(|p| p.ht_degree(&node) > 1));
    }

    #[test]
    fn decisions_replay_bit_identically() {
        let mut t = Tuner::new(TunerConfig::default());
        let a = t.decide(GeometryClass::Small, 4);
        let b = t.decide(GeometryClass::Small, 4);
        assert_eq!(a, b);
        // A fresh tuner reaches the identical decision (pure in the
        // models, not in accumulated state).
        let mut u = Tuner::new(TunerConfig::default());
        assert_eq!(u.decide(GeometryClass::Small, 4), a);
    }

    #[test]
    fn auto_is_never_worse_than_any_static_policy() {
        let mut t = Tuner::new(TunerConfig::default());
        let auto = t.decide(GeometryClass::Small, 8);
        for policy in SchedulerPolicy::ALL {
            let fixed = t.decide_in(GeometryClass::Small, 8, Some(policy), None);
            assert!(
                auto.service_s <= fixed.service_s + 1e-15,
                "auto {} vs {} {}",
                auto.service_s,
                policy.name(),
                fixed.service_s
            );
        }
    }

    #[test]
    fn observations_refine_after_the_threshold() {
        let mut t = Tuner::new(TunerConfig { des_top_k: 2, min_observations: 2 });
        let before = t.decide(GeometryClass::Small, 4);
        assert!(!before.refined);
        // Report the chosen placement as catastrophically slow, twice.
        let slow = before.placement;
        t.observe(GeometryClass::Small, 4, &slow, 1e3);
        let mid = t.decide(GeometryClass::Small, 4);
        assert!(!mid.refined, "one observation is below the threshold");
        t.observe(GeometryClass::Small, 4, &slow, 1e3);
        let after = t.decide(GeometryClass::Small, 4);
        assert!(after.refined);
        assert_ne!(after.placement, slow, "tuner must route around the slow placement");
        // Bogus samples are ignored.
        t.observe(GeometryClass::Small, 4, &slow, f64::NAN);
        t.observe(GeometryClass::Small, 4, &slow, -1.0);
        assert_eq!(t.decide(GeometryClass::Small, 4), after);
    }

    #[test]
    fn why_dump_names_candidates_and_winner() {
        let mut t = Tuner::new(TunerConfig::default());
        let why = t.why(GeometryClass::Small, 4);
        assert!(why.contains("<- chosen"));
        assert!(why.contains("quick_s"));
        assert!(why.contains("class=small"));
        let decision = t.decide(GeometryClass::Small, 4);
        assert!(why.contains(&decision.placement.label()));
        let csv = t.table_csv();
        assert!(csv.lines().count() > 1);
        assert!(csv.starts_with("class,nbnd"));
    }
}
