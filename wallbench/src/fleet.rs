//! The serving tier: `run_fleet`/`resume_fleet` on a seeded steady trace,
//! and the journal-driven rebuild behind the serve layers' split.

use crate::host::timed;
use crate::kernel::median_time;
use crate::stats::{closure, median, steal_around, STEAL_REACH};
use crate::Metrics;
use fftx_core::{build_programs, Decomposition, SchedulerPolicy};
use fftx_knlsim::{simulate, CommModel, ContentionModel};
use fftx_serve::{
    assemble, band_hash, class_problem, generate, resume_fleet, run_fleet, serve_node, Admission,
    Backend, Batch, FleetConfig, FleetReport, GeometryClass, HashRing, Journal, LoadProfile,
    Placement, Record, Request, RingConfig, TrafficConfig, Tuner,
};
use std::collections::{BTreeMap, BTreeSet};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Arrival rate of the trace (requests per virtual second).
pub const RATE_HZ: f64 = 100.0;
/// Virtual length of the fleet-replay trace (seconds).
pub const DURATION_S: f64 = 2.0;
/// Shard nodes of the fleet.
pub const SHARDS: usize = 3;
/// Share of the journal a resume starts from.
pub const CUT: f64 = 0.9;

/// The fleet: 3 shards, real execution, workload data seed `seed`.
pub fn config(seed: u64) -> FleetConfig {
    let mut cfg = FleetConfig {
        shards: SHARDS,
        ..FleetConfig::default()
    };
    cfg.serve.execute_real = true;
    cfg.serve.seed = seed;
    cfg
}

/// The seeded steady Poisson trace at [`RATE_HZ`] over `duration_s`.
pub fn requests(seed: u64, duration_s: f64) -> Vec<Request> {
    generate(&TrafficConfig {
        seed,
        rate_hz: RATE_HZ,
        duration_s,
        profile: LoadProfile::Steady,
        ..TrafficConfig::default()
    })
}

/// The journal prefix up to the record boundary at [`CUT`].
pub fn cut(journal: &Journal) -> Journal {
    let n = (journal.len() as f64 * CUT).ceil() as usize;
    let mut prefix = Journal::new();
    for rec in &journal.records()[..n.min(journal.len())] {
        prefix.append(rec.clone());
    }
    prefix
}

/// Jobs of one fleet run that were shed or left open by a fresh
/// conservation audit of its journal (all of them when the audit fails).
pub fn lost_jobs(r: &FleetReport) -> u64 {
    match r.journal.conservation() {
        Ok(c) => (r.shed.len() + c.open.len()) as u64,
        Err(_) => r.offered() as u64,
    }
}

/// A journaled batch rebuilt from its `Batched` and `Started` records,
/// with the hashes its `Completed` records delivered.
pub struct Rebuilt {
    /// Fleet-unique batch id.
    pub id: u64,
    /// The assembled batch.
    pub batch: Batch,
    /// The placement it started under.
    pub placement: Placement,
    /// Delivered result hash per member job.
    pub hashes: BTreeMap<u64, u64>,
}

/// Rebuilds every executed batch of `journal` over the trace `requests`.
///
/// # Errors
/// A description of the first record that does not fit the trace.
pub fn rebuild(
    journal: &Journal,
    requests: &[Request],
    cfg: &FleetConfig,
) -> Result<Vec<Rebuilt>, String> {
    let by_id: BTreeMap<u64, Request> = requests.iter().map(|r| (r.id, *r)).collect();
    let mut formed: BTreeMap<u64, Batch> = BTreeMap::new();
    let mut out: BTreeMap<u64, Rebuilt> = BTreeMap::new();
    for rec in journal.records() {
        match rec {
            Record::Batched { batch, jobs, .. } => {
                let members = jobs
                    .iter()
                    .map(|j| {
                        by_id
                            .get(j)
                            .copied()
                            .ok_or(format!("job {j} not in the trace"))
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                let b = assemble(members, &cfg.serve.batch).map_err(|e| e.to_string())?;
                formed.insert(*batch, b);
            }
            Record::Started {
                batch,
                nr,
                ntg,
                policy,
                decomp,
                ..
            } => {
                let b = formed
                    .get(batch)
                    .ok_or(format!("batch {batch} started unformed"))?;
                let placement = Placement {
                    nr: *nr,
                    ntg: *ntg,
                    policy: *SchedulerPolicy::ALL
                        .get(*policy)
                        .ok_or("bad policy index")?,
                    decomp: *Decomposition::ALL.get(*decomp).ok_or("bad decomp index")?,
                };
                out.insert(
                    *batch,
                    Rebuilt {
                        id: *batch,
                        batch: b.clone(),
                        placement,
                        hashes: BTreeMap::new(),
                    },
                );
            }
            Record::Completed {
                batch,
                job,
                hash: Some(h),
                ..
            } => {
                out.get_mut(batch)
                    .ok_or(format!("batch {batch} completed unstarted"))?
                    .hashes
                    .insert(*job, *h);
            }
            _ => {}
        }
    }
    Ok(out.into_values().collect())
}

/// What re-executing the journaled batches measured.
pub struct Replay {
    /// Per batch: `Backend::execute` wall time ÷ computed bands (ms).
    pub band_ms: Vec<f64>,
    /// Per batch: `Backend::execute` wall time (ms).
    pub batch_ms: Vec<f64>,
    /// Per batch: steal ticks that fell while it ran.
    pub steal: Vec<u64>,
    /// Delivered jobs whose hash was re-derived.
    pub checked: u64,
    /// Delivered jobs whose re-derived hash differed (or had none).
    pub mismatched: u64,
}

/// Re-executes every rebuilt batch through a fresh `Backend` and checks
/// each delivered hash against its member's re-derived bands.
pub fn replay(batches: &[&Rebuilt], seed: u64) -> Replay {
    let mut backend = Backend::new(seed, None);
    let mut r = Replay {
        band_ms: Vec::new(),
        batch_ms: Vec::new(),
        steal: Vec::new(),
        checked: 0,
        mismatched: 0,
    };
    for b in batches {
        let (run, wall, steal) =
            timed(|| backend.execute(&b.batch, &b.placement, b.id as usize, false));
        let nbnd = b.batch.nbnd as f64;
        r.band_ms.push(wall * 1e3 / nbnd);
        r.batch_ms.push(wall * 1e3);
        r.steal.push(steal);
        for m in &b.batch.members {
            let bands = run
                .output
                .bands
                .get(m.band_start..m.band_start + m.request.bands);
            let ok = bands.is_some_and(|x| b.hashes.get(&m.request.id) == Some(&band_hash(x)));
            r.checked += 1;
            r.mismatched += u64::from(!ok);
        }
    }
    r
}

/// (class, bands) keys the fleet's tuner decides: every batch's, and the
/// padded single-request key each arrival's estimate asks for.
pub fn tuner_keys(
    batches: &[Rebuilt],
    requests: &[Request],
    cfg: &FleetConfig,
) -> BTreeSet<(GeometryClass, usize)> {
    let pad = cfg.serve.batch.pad_to.max(1);
    let mut keys: BTreeSet<(GeometryClass, usize)> = batches
        .iter()
        .map(|b| (b.batch.class, b.batch.nbnd))
        .collect();
    keys.extend(
        requests
            .iter()
            .map(|r| (r.class, r.bands.div_ceil(pad) * pad)),
    );
    keys
}

/// Threads one batch runs: a thread per vmpi rank, plus the task
/// runtime's workers on every rank under the task policies.
pub fn threads(p: &Placement) -> usize {
    match p.policy {
        SchedulerPolicy::Serial => p.nr * p.ntg,
        _ => p.nr + p.nr * p.ntg,
    }
}

/// Exact counts of a fleet run: they depend only on the trace.
pub fn counts(
    report: &FleetReport,
    batches: &[Rebuilt],
    requests: &[Request],
    cfg: &FleetConfig,
    m: &mut Metrics,
) {
    let jobs = report.jobs.len().max(1) as f64;
    m.set(
        "serve.journal.records_per_job",
        report.journal.len() as f64 / jobs,
        "count",
    );
    m.set(
        "serve.tuner.cold_keys",
        tuner_keys(batches, requests, cfg).len() as f64,
        "count",
    );
    let n = batches.len().max(1) as f64;
    let members: usize = batches.iter().map(|b| b.batch.members.len()).sum();
    m.set("serve.batch.coalesce", members as f64 / n, "count");
    let (payload, computed) = batches.iter().fold((0, 0), |(p, c), b| {
        (p + b.batch.payload_bands, c + b.batch.nbnd)
    });
    m.set(
        "serve.batch.pad_waste",
        (computed - payload) as f64 / computed.max(1) as f64,
        "ratio",
    );
    let t: usize = batches.iter().map(|b| threads(&b.placement)).sum();
    m.set("serve.exec.threads", t as f64 / n, "count");
}

/// Every serve-layer metric of one fleet run (`report`, whose `run_fleet`
/// call took `job_ms` per job): the journal's batches re-executed, the
/// tuner, admission, batching, journal and ring calls timed one by one.
/// Returns (operations, failures) of the hash re-derivation.
pub fn layers(
    report: &FleetReport,
    requests: &[Request],
    cfg: &FleetConfig,
    job_ms: f64,
    m: &mut Metrics,
) -> Result<(u64, u64), String> {
    let batches = rebuild(&report.journal, requests, cfg)?;
    let jobs = report.jobs.len().max(1) as f64;
    counts(report, &batches, requests, cfg, m);

    let rp = replay(&batches.iter().collect::<Vec<_>>(), cfg.serve.seed);
    let exec_ms: f64 = rp.batch_ms.iter().sum();
    m.set("serve.exec.batch_ms", median(&rp.batch_ms), "ms");

    // Tuner: each key cold on a fresh tuner, then warm; the DES pricing of
    // the placement it picked.
    let mut tuner = Tuner::new(cfg.serve.tuner);
    let (mut cold_ms, mut warm_us, mut des_ms) = (Vec::new(), Vec::new(), Vec::new());
    let (contention, comm, node) = (ContentionModel::paper(), CommModel::paper(), serve_node());
    for &(class, nbnd) in &tuner_keys(&batches, requests, cfg) {
        let t = Instant::now();
        let d = tuner.decide(class, nbnd);
        cold_ms.push(t.elapsed().as_secs_f64() * 1e3);
        warm_us.push(median_time(9, || drop(black_box(tuner.decide(class, nbnd)))) * 1e6);
        let programs = build_programs(&class_problem(class, d.placement.config(class, nbnd, 0)));
        let t = Instant::now();
        black_box(simulate(&programs, &node, &contention, &comm));
        des_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    let cold_total: f64 = cold_ms.iter().sum();
    m.set("serve.tuner.cold_ms", median(&cold_ms), "ms");
    m.set("serve.tuner.warm_us", median(&warm_us), "us");
    m.set("knlsim.des_ms", median(&des_ms), "ms");

    // Admission and batch formation, replayed per shard in journal order.
    let mut shards: Vec<Admission> = (0..cfg.shards)
        .map(|_| Admission::new(cfg.serve.admission))
        .collect();
    let (mut offer_s, mut form_s, mut offers, mut forms) = (0.0, 0.0, 0usize, 0usize);
    for rec in report.journal.records() {
        match rec {
            Record::Accepted { req, shard, .. } => {
                let adm = &mut shards[*shard as usize];
                let t = Instant::now();
                let _ = black_box(adm.offer(*req, 0.0));
                offer_s += t.elapsed().as_secs_f64();
                offers += 1;
            }
            Record::Batched { shard, .. } => {
                let adm = &mut shards[*shard as usize];
                let t = Instant::now();
                let _ = black_box(adm.form_batch(&cfg.serve.batch));
                form_s += t.elapsed().as_secs_f64();
                forms += 1;
            }
            _ => {}
        }
    }
    m.set(
        "serve.admission.offer_us",
        offer_s * 1e6 / offers.max(1) as f64,
        "us",
    );
    m.set(
        "serve.batch.form_us",
        form_s * 1e6 / forms.max(1) as f64,
        "us",
    );

    // Journal: encode, decode and audit of the whole run.
    let j = &report.journal;
    let records = j.len().max(1) as f64;
    let text = j.encode();
    let encode_s = median_time(5, || drop(black_box(j.encode())));
    let decode_s = median_time(5, || drop(black_box(Journal::decode(&text))));
    let audit_s = median_time(5, || drop(black_box(j.conservation())));
    m.set("serve.journal.encode_us", encode_s * 1e6 / records, "us");
    m.set("serve.journal.decode_us", decode_s * 1e6 / records, "us");
    m.set("serve.journal.audit_ms", audit_s * 1e3, "ms");

    // Ring: bounded-load routing of every request's tenant.
    let mut ring = HashRing::new(RingConfig {
        seed: cfg.serve.seed,
        ..cfg.ring
    });
    for s in 0..cfg.shards {
        ring.insert(s as u32);
    }
    let rounds = 200;
    let t = Instant::now();
    for _ in 0..rounds {
        for r in requests {
            black_box(ring.route_bounded(r.tenant as u64, 2, |s| s as usize, |_| true));
        }
    }
    let route_s = t.elapsed().as_secs_f64();
    let routes = (rounds * requests.len()).max(1) as f64;
    m.set("serve.fleet.route_ns", route_s * 1e9 / routes, "ns");

    // What the serve layers explain of one job.
    let per_job = |total_s: f64| total_s * 1e3 / jobs;
    let parts = [
        cold_total / jobs,
        exec_ms / jobs,
        per_job(offer_s),
        per_job(form_s),
        per_job(route_s / rounds as f64),
    ];
    let c = closure(job_ms, &parts);
    m.set("serve.supervisor.residue_ms", c.residue, "ms");
    m.set("bench.serve_closure", c.ratio, "ratio");
    Ok((rp.checked, rp.mismatched))
}

/// The seed of repetition `rep` of a run seeded `seed` (splitmix64), so a
/// run samples many traces and its medians do not hang on one trace.
pub fn rep_seed(seed: u64, rep: u64) -> u64 {
    let mut z = seed ^ rep.wrapping_add(1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One repetition's trace and fleet.
pub fn rep_inputs(seed: u64, rep: u64) -> (Vec<Request>, FleetConfig) {
    let s = rep_seed(seed, rep);
    (requests(s, DURATION_S), config(s))
}

/// What the untraced fleet loop measured, every sample with the steal
/// ticks that fell while it was timed (around it, for the batches).
pub struct Untraced {
    /// `Fleet::new` wall times (s).
    pub setup_s: Vec<f64>,
    /// Steal ticks of each set-up sample.
    pub setup_steal: Vec<u64>,
    /// Per repetition: `run_fleet` wall time ÷ jobs served (ms).
    pub job_ms: Vec<f64>,
    /// Steal ticks of each `run_fleet` call.
    pub job_steal: Vec<u64>,
    /// Per repetition: `resume_fleet` wall time from the cut (s).
    pub resume_s: Vec<f64>,
    /// Steal ticks of each `resume_fleet` call.
    pub resume_steal: Vec<u64>,
    /// Per re-executed batch: wall ÷ computed bands (ms).
    pub band_ms: Vec<f64>,
    /// Steal ticks around each re-executed batch ([`steal_around`] over
    /// the repetition's batches).
    pub band_steal: Vec<u64>,
    /// Operations attempted: jobs offered, resumes, and re-derived hashes.
    pub attempted: u64,
    /// Jobs shed or left open, resumes that diverged, hashes that differed.
    pub failed: u64,
    /// The first repetition's run, its trace, fleet and batches.
    pub first: Option<(FleetReport, Vec<Request>, FleetConfig, Vec<Rebuilt>)>,
}

/// `Fleet::new` calls timed per repetition (after a few untimed ones): the
/// set-up takes microseconds, so its median needs many samples.
const SETUP_CALLS: usize = 200;

/// Re-executes every `REPLAY_EVERY`-th journaled batch of each repetition
/// for `band_ms`.
const REPLAY_EVERY: usize = 2;

/// Repeats until `budget` has passed and `min_reps` were made; repetition
/// `r` runs its own trace ([`rep_inputs`]): `Fleet::new` set-ups, one
/// `run_fleet`, `resume_fleet` from the cut (its journal must equal the
/// uninterrupted one byte for byte), and re-execution of journaled batches
/// (each delivered hash re-derived).
pub fn untraced(seed: u64, budget: Duration, min_reps: usize) -> Result<Untraced, String> {
    let mut u = Untraced {
        setup_s: Vec::new(),
        setup_steal: Vec::new(),
        job_ms: Vec::new(),
        job_steal: Vec::new(),
        resume_s: Vec::new(),
        resume_steal: Vec::new(),
        band_ms: Vec::new(),
        band_steal: Vec::new(),
        attempted: 0,
        failed: 0,
        first: None,
    };
    let start = Instant::now();
    let mut rep = 0;
    while u.job_ms.len() < min_reps || start.elapsed() < budget {
        let (reqs, cfg) = rep_inputs(seed, rep);
        for i in 0..SETUP_CALLS + 5 {
            let (fleet, s, steal) = timed(|| black_box(fftx_serve::Fleet::new(&reqs, cfg)));
            drop(fleet);
            if i >= 5 {
                u.setup_s.push(s);
                u.setup_steal.push(steal);
            }
        }

        let (r, wall, steal) = timed(|| run_fleet(&reqs, &cfg));
        let r = r.map_err(|e| e.to_string())?;
        u.job_ms.push(wall * 1e3 / r.jobs.len().max(1) as f64);
        u.job_steal.push(steal);
        u.attempted += reqs.len() as u64;
        u.failed += lost_jobs(&r);

        let reference = r.journal.encode();
        let prefix = cut(&r.journal);
        let (resumed, wall, steal) = timed(|| resume_fleet(&prefix, &reqs, &cfg));
        let resumed = resumed.map_err(|e| e.to_string())?;
        u.resume_s.push(wall);
        u.resume_steal.push(steal);
        u.attempted += 1;
        u.failed += u64::from(resumed.journal.encode() != reference);
        drop(resumed);

        let batches = rebuild(&r.journal, &reqs, &cfg)?;
        let picked: Vec<&Rebuilt> = batches.iter().step_by(REPLAY_EVERY).collect();
        let rp = replay(&picked, cfg.serve.seed);
        u.band_ms.extend(rp.band_ms);
        u.band_steal
            .extend((0..rp.steal.len()).map(|i| steal_around(&rp.steal, i, i, STEAL_REACH)));
        u.attempted += rp.checked;
        u.failed += rp.mismatched;
        if rep == 0 {
            u.first = Some((r, reqs, cfg, batches));
        }
        rep += 1;
    }
    Ok(u)
}
