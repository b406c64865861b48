//! The durable job journal: an append-only write-ahead log of every fleet
//! state transition, with a lossless text encoding and a machine-checked
//! conservation audit.
//!
//! Every mutation of fleet state — acceptance, shedding, batch formation,
//! dispatch, completion, heartbeats, shard death, failover, degradation —
//! is journaled *before* it is applied, and the supervisor's `apply` path
//! is the only way state changes. Recovery is therefore exact: replaying a
//! journal prefix through `apply` reconstructs the queues, in-flight
//! batches, breakers, and the degradation ladder at the crash point, and
//! continuing the (deterministic, virtual-time) serving loop from there
//! produces a journal byte-identical to the uninterrupted run's.
//!
//! Floats are encoded as the hex of their IEEE-754 bit patterns, so
//! encode → decode is the identity on every record and two journals can be
//! compared byte-for-byte.

use crate::error::ServeError;
use crate::request::{DeadlineClass, GeometryClass, Request};
use fftx_fault::mix64;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

/// The per-job idempotency key: pure in `(seed, id)`, carried in the
/// `Accepted` record and used by the completion guard to recognise a job
/// it has already completed — a batch re-run after failover, or a report
/// from a shard that was spuriously declared dead, completes each job at
/// most once.
pub fn idempotency_key(seed: u64, id: u64) -> u64 {
    mix64(seed ^ mix64(id.wrapping_mul(0x9E37_79B9_7F4A_7C15)))
}

/// One journaled fleet state transition.
#[derive(Debug, Clone, PartialEq)]
pub enum Record {
    /// A request was admitted and routed to `shard`.
    Accepted {
        /// The request.
        req: Request,
        /// Idempotency key ([`idempotency_key`]).
        key: u64,
        /// Shard the request was routed to.
        shard: u32,
    },
    /// A request was refused (admission or the degradation ladder).
    Shed {
        /// The request.
        req: Request,
        /// Rejection kind ([`crate::request::RejectReason::kind`]).
        kind: String,
    },
    /// `shard` coalesced the queued requests `jobs` (in batch-member
    /// order) into batch `batch`.
    Batched {
        /// The shard.
        shard: u32,
        /// Fleet-unique batch id.
        batch: u64,
        /// Member request ids, band order.
        jobs: Vec<u64>,
    },
    /// Batch `batch` started executing on `shard`.
    Started {
        /// The shard.
        shard: u32,
        /// The batch.
        batch: u64,
        /// Dispatch time (virtual seconds).
        start_s: f64,
        /// Service time under the chosen placement, slow-node factor
        /// included (virtual seconds).
        service_s: f64,
        /// Placement: first parallel dimension R.
        nr: usize,
        /// Placement: task groups / workers per rank.
        ntg: usize,
        /// Placement: index into `SchedulerPolicy::ALL`.
        policy: usize,
        /// Placement: index into `Decomposition::ALL`.
        decomp: usize,
        /// Hash-ring membership epoch at dispatch: the number of
        /// joins/leaves folded into the tenant→shard ring so far. Replay
        /// validates it against the ring it reconstructed from the
        /// membership records, so a resumed fleet that would route
        /// differently after a resharding event fails loudly instead of
        /// silently diverging.
        epoch: u64,
    },
    /// Job `job` of batch `batch` completed on `shard`.
    Completed {
        /// The shard.
        shard: u32,
        /// The batch.
        batch: u64,
        /// The request id.
        job: u64,
        /// Completion time (virtual seconds).
        done_s: f64,
        /// FNV hash of the job's result bands (real executions only).
        hash: Option<u64>,
    },
    /// A completion report for a job already completed elsewhere — the
    /// idempotency guard swallowed it (failover re-run racing a shard that
    /// was declared dead while actually alive).
    Suppressed {
        /// Shard whose report was suppressed.
        shard: u32,
        /// The batch it came from.
        batch: u64,
        /// The request id.
        job: u64,
        /// Virtual time of the suppressed report.
        t_s: f64,
        /// FNV hash of the zombie report's result bands (real executions
        /// only). Hashes are positional within a batch, so the audit
        /// compares them per `(batch, job)`: a second record for the same
        /// pair with a different hash is silent-corruption evidence.
        hash: Option<u64>,
    },
    /// The ABFT verification layer caught corrupted FFT results in
    /// `batch` on `shard` before any member completed. Always precedes
    /// the batch's completions; [`Record::Recomputed`] journals the
    /// recovery.
    CorruptionDetected {
        /// Shard whose execution failed verification.
        shard: u32,
        /// The batch.
        batch: u64,
        /// Verification failures the run absorbed.
        detections: u64,
        /// Virtual time of the report.
        t_s: f64,
    },
    /// Batch `batch` recovered from detected corruption: `rollbacks`
    /// checkpoint restores re-ran the work until it verified clean.
    Recomputed {
        /// The shard.
        shard: u32,
        /// The batch.
        batch: u64,
        /// Checkpoint rollbacks the recovery took.
        rollbacks: u64,
        /// Virtual time of the report.
        t_s: f64,
    },
    /// One health-check probe of `shard`.
    Heartbeat {
        /// The shard.
        shard: u32,
        /// Supervisor tick index.
        tick: u64,
        /// Probe time (virtual seconds).
        t_s: f64,
        /// Whether the probe was answered.
        ok: bool,
    },
    /// The supervisor declared `shard` dead after four consecutive missed
    /// heartbeats.
    ShardDown {
        /// The shard.
        shard: u32,
        /// Declaration time (virtual seconds).
        t_s: f64,
    },
    /// Job `job` was drained from dead shard `from` and re-queued at the
    /// front of `to`'s admission queue.
    Failover {
        /// The dead shard.
        from: u32,
        /// The surviving shard that inherits the job.
        to: u32,
        /// The request id.
        job: u64,
        /// Failover time (virtual seconds).
        t_s: f64,
    },
    /// The degradation ladder moved to level `level`.
    Degraded {
        /// Index into [`crate::degrade::DegradeLevel::ALL`].
        level: usize,
        /// Transition time (virtual seconds).
        t_s: f64,
    },
    /// The autoscaler activated `shard` from the provisioned pool: it
    /// joins the hash ring immediately and starts taking dispatches after
    /// its warm-up ticks.
    ScaleUp {
        /// The activated shard.
        shard: u32,
        /// Decision time (virtual seconds).
        t_s: f64,
    },
    /// The autoscaler retired `shard`: it leaves the hash ring and stops
    /// taking traffic. Only a fully idle shard (empty queue, nothing
    /// pending or in flight) is ever retired, so nothing needs draining.
    ScaleDown {
        /// The retired shard.
        shard: u32,
        /// Decision time (virtual seconds).
        t_s: f64,
    },
    /// Idle shard `to` stole the journaled-but-not-yet-started batch
    /// `batch` from busy shard `from`. The batch's members, placement, and
    /// id are unchanged, so the thief's execution is bit-identical to what
    /// the origin's would have been; the conservation audit holds every
    /// stolen batch to exactly-once across origin and thief.
    Stolen {
        /// The busy origin shard the batch was formed on.
        from: u32,
        /// The idle thief that will start it.
        to: u32,
        /// The batch.
        batch: u64,
        /// Steal time (virtual seconds).
        t_s: f64,
    },
}

fn f64_hex(v: f64) -> String {
    format!("{:016x}", v.to_bits())
}

fn parse_u64(tok: Option<&str>, line: usize) -> Result<u64, ServeError> {
    tok.and_then(|t| t.parse().ok())
        .ok_or_else(|| ServeError::Journal(format!("line {line}: bad integer field")))
}

fn parse_usize(tok: Option<&str>, line: usize) -> Result<usize, ServeError> {
    tok.and_then(|t| t.parse().ok())
        .ok_or_else(|| ServeError::Journal(format!("line {line}: bad integer field")))
}

fn parse_f64_bits(tok: Option<&str>, line: usize) -> Result<f64, ServeError> {
    tok.and_then(|t| u64::from_str_radix(t, 16).ok())
        .map(f64::from_bits)
        .ok_or_else(|| ServeError::Journal(format!("line {line}: bad float bit pattern")))
}

/// The optional result-hash field shared by `C` and `Z` records: 16 hex
/// digits or the literal `-`.
fn parse_hash(tok: Option<&str>, line: usize) -> Result<Option<u64>, ServeError> {
    match tok {
        Some("-") => Ok(None),
        Some(t) => u64::from_str_radix(t, 16)
            .map(Some)
            .map_err(|_| ServeError::Journal(format!("line {line}: bad hash"))),
        None => Err(ServeError::Journal(format!("line {line}: missing hash"))),
    }
}

fn encode_req(out: &mut String, req: &Request) {
    let _ = write!(
        out,
        "{} {} {} {} {} {}",
        req.id,
        req.tenant,
        req.class.index(),
        req.bands,
        req.deadline as usize,
        f64_hex(req.arrival_s),
    );
}

fn decode_req<'a>(
    toks: &mut impl Iterator<Item = &'a str>,
    line: usize,
) -> Result<Request, ServeError> {
    let id = parse_u64(toks.next(), line)?;
    let tenant = parse_u64(toks.next(), line)? as u32;
    let class_idx = parse_usize(toks.next(), line)?;
    let class = *GeometryClass::ALL
        .get(class_idx)
        .ok_or_else(|| ServeError::Journal(format!("line {line}: class index {class_idx}")))?;
    let bands = parse_usize(toks.next(), line)?;
    let deadline_idx = parse_usize(toks.next(), line)?;
    let deadline = *DeadlineClass::ALL
        .get(deadline_idx)
        .ok_or_else(|| ServeError::Journal(format!("line {line}: deadline index {deadline_idx}")))?;
    let arrival_s = parse_f64_bits(toks.next(), line)?;
    Ok(Request { id, tenant, class, bands, deadline, arrival_s })
}

impl Record {
    /// One-line lossless text encoding (no trailing newline).
    pub fn encode(&self) -> String {
        let mut out = String::new();
        match self {
            Record::Accepted { req, key, shard } => {
                out.push_str("A ");
                encode_req(&mut out, req);
                let _ = write!(out, " {key:016x} {shard}");
            }
            Record::Shed { req, kind } => {
                out.push_str("S ");
                encode_req(&mut out, req);
                let _ = write!(out, " {kind}");
            }
            Record::Batched { shard, batch, jobs } => {
                let _ = write!(out, "B {shard} {batch} {}", jobs.len());
                for j in jobs {
                    let _ = write!(out, " {j}");
                }
            }
            Record::Started { shard, batch, start_s, service_s, nr, ntg, policy, decomp, epoch } => {
                let _ = write!(
                    out,
                    "T {shard} {batch} {} {} {nr} {ntg} {policy} {decomp} {epoch}",
                    f64_hex(*start_s),
                    f64_hex(*service_s),
                );
            }
            Record::Completed { shard, batch, job, done_s, hash } => {
                let _ = write!(out, "C {shard} {batch} {job} {}", f64_hex(*done_s));
                match hash {
                    Some(h) => {
                        let _ = write!(out, " {h:016x}");
                    }
                    None => out.push_str(" -"),
                }
            }
            Record::Suppressed { shard, batch, job, t_s, hash } => {
                let _ = write!(out, "Z {shard} {batch} {job} {}", f64_hex(*t_s));
                match hash {
                    Some(h) => {
                        let _ = write!(out, " {h:016x}");
                    }
                    None => out.push_str(" -"),
                }
            }
            Record::CorruptionDetected { shard, batch, detections, t_s } => {
                let _ = write!(out, "X {shard} {batch} {detections} {}", f64_hex(*t_s));
            }
            Record::Recomputed { shard, batch, rollbacks, t_s } => {
                let _ = write!(out, "R {shard} {batch} {rollbacks} {}", f64_hex(*t_s));
            }
            Record::Heartbeat { shard, tick, t_s, ok } => {
                let _ = write!(
                    out,
                    "H {shard} {tick} {} {}",
                    f64_hex(*t_s),
                    u8::from(*ok)
                );
            }
            Record::ShardDown { shard, t_s } => {
                let _ = write!(out, "D {shard} {}", f64_hex(*t_s));
            }
            Record::Failover { from, to, job, t_s } => {
                let _ = write!(out, "F {from} {to} {job} {}", f64_hex(*t_s));
            }
            Record::Degraded { level, t_s } => {
                let _ = write!(out, "G {level} {}", f64_hex(*t_s));
            }
            Record::ScaleUp { shard, t_s } => {
                let _ = write!(out, "U {shard} {}", f64_hex(*t_s));
            }
            Record::ScaleDown { shard, t_s } => {
                let _ = write!(out, "V {shard} {}", f64_hex(*t_s));
            }
            Record::Stolen { from, to, batch, t_s } => {
                let _ = write!(out, "W {from} {to} {batch} {}", f64_hex(*t_s));
            }
        }
        out
    }

    /// Decodes one encoded line (`line` is the 1-based line number used in
    /// error messages).
    ///
    /// # Errors
    /// [`ServeError::Journal`] on any malformed field.
    pub fn decode(s: &str, line: usize) -> Result<Record, ServeError> {
        let mut toks = s.split_ascii_whitespace();
        let tag = toks
            .next()
            .ok_or_else(|| ServeError::Journal(format!("line {line}: empty record")))?;
        let rec = match tag {
            "A" => {
                let req = decode_req(&mut toks, line)?;
                let key = toks
                    .next()
                    .and_then(|t| u64::from_str_radix(t, 16).ok())
                    .ok_or_else(|| ServeError::Journal(format!("line {line}: bad key")))?;
                let shard = parse_u64(toks.next(), line)? as u32;
                Record::Accepted { req, key, shard }
            }
            "S" => {
                let req = decode_req(&mut toks, line)?;
                let kind = toks
                    .next()
                    .ok_or_else(|| ServeError::Journal(format!("line {line}: missing shed kind")))?
                    .to_string();
                Record::Shed { req, kind }
            }
            "B" => {
                let shard = parse_u64(toks.next(), line)? as u32;
                let batch = parse_u64(toks.next(), line)?;
                let n = parse_usize(toks.next(), line)?;
                let mut jobs = Vec::with_capacity(n);
                for _ in 0..n {
                    jobs.push(parse_u64(toks.next(), line)?);
                }
                Record::Batched { shard, batch, jobs }
            }
            "T" => Record::Started {
                shard: parse_u64(toks.next(), line)? as u32,
                batch: parse_u64(toks.next(), line)?,
                start_s: parse_f64_bits(toks.next(), line)?,
                service_s: parse_f64_bits(toks.next(), line)?,
                nr: parse_usize(toks.next(), line)?,
                ntg: parse_usize(toks.next(), line)?,
                policy: parse_usize(toks.next(), line)?,
                decomp: parse_usize(toks.next(), line)?,
                epoch: parse_u64(toks.next(), line)?,
            },
            "C" => {
                let shard = parse_u64(toks.next(), line)? as u32;
                let batch = parse_u64(toks.next(), line)?;
                let job = parse_u64(toks.next(), line)?;
                let done_s = parse_f64_bits(toks.next(), line)?;
                let hash = parse_hash(toks.next(), line)?;
                Record::Completed { shard, batch, job, done_s, hash }
            }
            "Z" => Record::Suppressed {
                shard: parse_u64(toks.next(), line)? as u32,
                batch: parse_u64(toks.next(), line)?,
                job: parse_u64(toks.next(), line)?,
                t_s: parse_f64_bits(toks.next(), line)?,
                hash: parse_hash(toks.next(), line)?,
            },
            "X" => Record::CorruptionDetected {
                shard: parse_u64(toks.next(), line)? as u32,
                batch: parse_u64(toks.next(), line)?,
                detections: parse_u64(toks.next(), line)?,
                t_s: parse_f64_bits(toks.next(), line)?,
            },
            "R" => Record::Recomputed {
                shard: parse_u64(toks.next(), line)? as u32,
                batch: parse_u64(toks.next(), line)?,
                rollbacks: parse_u64(toks.next(), line)?,
                t_s: parse_f64_bits(toks.next(), line)?,
            },
            "H" => Record::Heartbeat {
                shard: parse_u64(toks.next(), line)? as u32,
                tick: parse_u64(toks.next(), line)?,
                t_s: parse_f64_bits(toks.next(), line)?,
                ok: parse_u64(toks.next(), line)? != 0,
            },
            "D" => Record::ShardDown {
                shard: parse_u64(toks.next(), line)? as u32,
                t_s: parse_f64_bits(toks.next(), line)?,
            },
            "F" => Record::Failover {
                from: parse_u64(toks.next(), line)? as u32,
                to: parse_u64(toks.next(), line)? as u32,
                job: parse_u64(toks.next(), line)?,
                t_s: parse_f64_bits(toks.next(), line)?,
            },
            "G" => Record::Degraded {
                level: parse_usize(toks.next(), line)?,
                t_s: parse_f64_bits(toks.next(), line)?,
            },
            "U" => Record::ScaleUp {
                shard: parse_u64(toks.next(), line)? as u32,
                t_s: parse_f64_bits(toks.next(), line)?,
            },
            "V" => Record::ScaleDown {
                shard: parse_u64(toks.next(), line)? as u32,
                t_s: parse_f64_bits(toks.next(), line)?,
            },
            "W" => Record::Stolen {
                from: parse_u64(toks.next(), line)? as u32,
                to: parse_u64(toks.next(), line)? as u32,
                batch: parse_u64(toks.next(), line)?,
                t_s: parse_f64_bits(toks.next(), line)?,
            },
            other => {
                return Err(ServeError::Journal(format!(
                    "line {line}: unknown record tag '{other}'"
                )))
            }
        };
        if toks.next().is_some() {
            return Err(ServeError::Journal(format!("line {line}: trailing fields")));
        }
        Ok(rec)
    }
}

/// What the conservation audit found: the accounting of every accepted
/// job across the journal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Conservation {
    /// Requests accepted.
    pub accepted: usize,
    /// Requests shed.
    pub shed: usize,
    /// Accepted requests completed (exactly once each).
    pub completed: usize,
    /// Duplicate completion reports the idempotency guard suppressed.
    pub suppressed: usize,
    /// Completions carrying a result hash. Either every completion is
    /// hashed (real-execution journal) or none is (modeled journal) —
    /// the audit rejects a mix.
    pub hashed: usize,
    /// ABFT verification failures journaled (`CorruptionDetected` sums).
    pub corruption_detected: u64,
    /// Checkpoint rollbacks corruption recovery took (`Recomputed` sums).
    pub recomputed: u64,
    /// Batches an idle shard stole from a busy origin (`Stolen` records).
    /// Each is audited to exactly-once across origin and thief: only a
    /// formed-but-not-started batch may move, only its current owner may
    /// give it up, and every completion or zombie report of a stolen batch
    /// must come from the shard that owned it when the report landed.
    pub steals: usize,
    /// Accepted-but-not-completed request ids (empty on a finished run).
    pub open: Vec<u64>,
}

/// The append-only journal.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Journal {
    records: Vec<Record>,
}

impl Journal {
    /// An empty journal.
    pub fn new() -> Self {
        Journal { records: Vec::new() }
    }

    /// Appends one record.
    pub fn append(&mut self, rec: Record) {
        self.records.push(rec);
    }

    /// The records, append order.
    pub fn records(&self) -> &[Record] {
        &self.records
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the journal is empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Lossless text encoding: one line per record.
    pub fn encode(&self) -> String {
        let mut out = String::new();
        for rec in &self.records {
            out.push_str(&rec.encode());
            out.push('\n');
        }
        out
    }

    /// Decodes an [`encode`](Journal::encode)d journal.
    ///
    /// # Errors
    /// [`ServeError::Journal`] on any malformed line.
    pub fn decode(s: &str) -> Result<Journal, ServeError> {
        let mut j = Journal::new();
        for (i, line) in s.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            j.append(Record::decode(line, i + 1)?);
        }
        Ok(j)
    }

    /// The machine-checked conservation audit: every accepted job id is
    /// unique, is never also shed, and completes at most once; every
    /// completion (and suppressed duplicate) refers to an accepted job.
    ///
    /// The audit also checks result-hash integrity. Hash presence must be
    /// uniform — either every completion and suppressed report carries a
    /// hash (real executions) or none does (modeled service) — and any
    /// two records naming the same `(batch, job)` must agree on the hash:
    /// a zombie report that re-executed the same batch and got different
    /// bits is silent-corruption evidence, not a benign duplicate.
    ///
    /// Stolen batches are audited to exactly-once across origin and
    /// thief: a `Stolen` record must name a formed-but-not-started batch
    /// and its current owner, and every later report of that batch —
    /// completion or suppressed zombie — must come from the owner at that
    /// point. An origin that executed a batch it had already given up
    /// would trip the audit, not silently double-serve.
    ///
    /// # Errors
    /// [`ServeError::Journal`] naming the first violated invariant.
    pub fn conservation(&self) -> Result<Conservation, ServeError> {
        let mut accepted: BTreeMap<u64, u64> = BTreeMap::new(); // id -> key
        let mut shed: BTreeSet<u64> = BTreeSet::new();
        let mut completed: BTreeSet<u64> = BTreeSet::new();
        let mut suppressed = 0usize;
        let mut hashed = 0usize;
        let mut corruption_detected = 0u64;
        let mut recomputed = 0u64;
        let mut steals = 0usize;
        // Batch ownership: formed on a shard (`Batched`), possibly moved
        // by `Stolen` records, frozen once `Started`.
        let mut batch_owner: BTreeMap<u64, u32> = BTreeMap::new();
        let mut batch_started: BTreeSet<u64> = BTreeSet::new();
        let mut batch_stolen: BTreeSet<u64> = BTreeSet::new();
        // Whether this journal's completions carry hashes (set by the
        // first completion, then enforced), and the per-(batch, job)
        // hash agreement map.
        let mut hash_presence: Option<bool> = None;
        let mut batch_hashes: BTreeMap<(u64, u64), u64> = BTreeMap::new();
        let mut check_hash = |batch: u64,
                              job: u64,
                              hash: &Option<u64>,
                              presence: &mut Option<bool>,
                              what: &str|
         -> Result<(), ServeError> {
            match *presence {
                None => *presence = Some(hash.is_some()),
                Some(p) if p != hash.is_some() => {
                    return Err(ServeError::Journal(format!(
                        "{what} of job {job} {} a result hash in a journal whose completions {}",
                        if hash.is_some() { "carries" } else { "is missing" },
                        if p { "are hashed" } else { "are hashless" },
                    )))
                }
                Some(_) => {}
            }
            if let Some(h) = hash {
                match batch_hashes.get(&(batch, job)) {
                    Some(&prev) if prev != *h => {
                        return Err(ServeError::Journal(format!(
                            "{what} of job {job} in batch {batch} diverges from the recorded \
                             result hash ({prev:016x} vs {h:016x}) — silent corruption evidence"
                        )))
                    }
                    _ => {
                        batch_hashes.insert((batch, job), *h);
                    }
                }
            }
            Ok(())
        };
        for rec in &self.records {
            match rec {
                Record::Accepted { req, key, .. } => {
                    if shed.contains(&req.id) {
                        return Err(ServeError::Journal(format!(
                            "job {} both shed and accepted",
                            req.id
                        )));
                    }
                    if accepted.insert(req.id, *key).is_some() {
                        return Err(ServeError::Journal(format!(
                            "job {} accepted twice",
                            req.id
                        )));
                    }
                }
                Record::Shed { req, .. } => {
                    if accepted.contains_key(&req.id) {
                        return Err(ServeError::Journal(format!(
                            "job {} both accepted and shed",
                            req.id
                        )));
                    }
                    shed.insert(req.id);
                }
                Record::Batched { shard, batch, .. } => {
                    let prev = batch_owner.insert(*batch, *shard);
                    if prev.is_some() {
                        return Err(ServeError::Journal(format!(
                            "batch {batch} formed twice"
                        )));
                    }
                }
                Record::Started { shard, batch, .. } => {
                    match batch_owner.get(batch) {
                        Some(owner) if owner == shard => {}
                        Some(owner) => {
                            return Err(ServeError::Journal(format!(
                                "batch {batch} started on shard {shard} but owned by {owner}"
                            )))
                        }
                        // Batches formed before the journal prefix began
                        // are unknown to the audit; tolerate them the way
                        // the completion checks tolerate unknown batches.
                        None => {}
                    }
                    batch_started.insert(*batch);
                }
                Record::Stolen { from, to, batch, .. } => {
                    if batch_started.contains(batch) {
                        return Err(ServeError::Journal(format!(
                            "batch {batch} stolen after it started"
                        )));
                    }
                    if from == to {
                        return Err(ServeError::Journal(format!(
                            "batch {batch} stolen from shard {from} by itself"
                        )));
                    }
                    match batch_owner.get(batch) {
                        Some(owner) if owner == from => {}
                        other => {
                            return Err(ServeError::Journal(format!(
                                "batch {batch} stolen from shard {from} but owned by {other:?}"
                            )))
                        }
                    }
                    batch_owner.insert(*batch, *to);
                    batch_stolen.insert(*batch);
                    steals += 1;
                }
                Record::Completed { shard, batch, job, hash, .. } => {
                    if !accepted.contains_key(job) {
                        return Err(ServeError::Journal(format!(
                            "job {job} completed but never accepted"
                        )));
                    }
                    if !completed.insert(*job) {
                        return Err(ServeError::Journal(format!(
                            "job {job} completed twice"
                        )));
                    }
                    if batch_stolen.contains(batch) && batch_owner.get(batch) != Some(shard) {
                        return Err(ServeError::Journal(format!(
                            "stolen batch {batch} completed job {job} on shard {shard}, \
                             which does not own it — double service across origin and thief"
                        )));
                    }
                    check_hash(*batch, *job, hash, &mut hash_presence, "completion")?;
                    if hash.is_some() {
                        hashed += 1;
                    }
                }
                Record::Suppressed { shard, batch, job, hash, .. } => {
                    if !completed.contains(job) {
                        return Err(ServeError::Journal(format!(
                            "job {job} suppressed before any completion"
                        )));
                    }
                    if batch_stolen.contains(batch) && batch_owner.get(batch) != Some(shard) {
                        return Err(ServeError::Journal(format!(
                            "stolen batch {batch} produced a zombie report from shard {shard}, \
                             which does not own it — the origin executed a batch it gave up"
                        )));
                    }
                    check_hash(*batch, *job, hash, &mut hash_presence, "zombie report")?;
                    suppressed += 1;
                }
                Record::CorruptionDetected { detections, .. } => {
                    corruption_detected += detections;
                }
                Record::Recomputed { rollbacks, .. } => {
                    recomputed += rollbacks;
                }
                _ => {}
            }
        }
        let open: Vec<u64> = accepted
            .keys()
            .filter(|id| !completed.contains(id))
            .copied()
            .collect();
        Ok(Conservation {
            accepted: accepted.len(),
            shed: shed.len(),
            completed: completed.len(),
            suppressed,
            hashed,
            corruption_detected,
            recomputed,
            steals,
            open,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(id: u64) -> Request {
        Request {
            id,
            tenant: id as u32 % 3,
            class: GeometryClass::ALL[id as usize % 4],
            bands: 2 + id as usize % 3,
            deadline: DeadlineClass::ALL[id as usize % 3],
            arrival_s: 0.125 * id as f64 + 1e-3,
        }
    }

    fn sample_records() -> Vec<Record> {
        vec![
            Record::Accepted { req: req(0), key: idempotency_key(7, 0), shard: 1 },
            Record::Shed { req: req(1), kind: "queue_full".into() },
            Record::Batched { shard: 1, batch: 0, jobs: vec![0] },
            Record::Started {
                shard: 1,
                batch: 0,
                start_s: 0.05,
                service_s: 0.021_375,
                nr: 2,
                ntg: 2,
                policy: 3,
                decomp: 1,
                epoch: 3,
            },
            Record::Heartbeat { shard: 0, tick: 3, t_s: 0.15, ok: true },
            Record::Heartbeat { shard: 1, tick: 3, t_s: 0.15, ok: false },
            Record::CorruptionDetected { shard: 1, batch: 0, detections: 2, t_s: 0.07 },
            Record::Recomputed { shard: 1, batch: 0, rollbacks: 2, t_s: 0.07 },
            Record::Completed { shard: 1, batch: 0, job: 0, done_s: 0.071_375, hash: Some(42) },
            Record::Suppressed { shard: 2, batch: 5, job: 0, t_s: 0.08, hash: Some(0x5a5a) },
            Record::ShardDown { shard: 2, t_s: 0.2 },
            Record::Failover { from: 2, to: 1, job: 9, t_s: 0.2 },
            Record::Degraded { level: 1, t_s: 0.25 },
            Record::ScaleUp { shard: 3, t_s: 0.25 },
            Record::Batched { shard: 3, batch: 2, jobs: vec![] },
            Record::Stolen { from: 3, to: 1, batch: 2, t_s: 0.3 },
            Record::ScaleDown { shard: 3, t_s: 0.35 },
            Record::Completed { shard: 1, batch: 1, job: 9, done_s: 0.3, hash: Some(0x2b) },
        ]
    }

    #[test]
    fn encode_decode_is_the_identity() {
        let mut j = Journal::new();
        // The round trip must survive awkward floats bit-exactly.
        let mut records = sample_records();
        records.push(Record::Started {
            shard: 0,
            batch: 7,
            start_s: 0.1 + 0.2, // 0.30000000000000004
            service_s: f64::MIN_POSITIVE,
            nr: 1,
            ntg: 4,
            policy: 0,
            decomp: 0,
            epoch: 0,
        });
        // Hashless completion and zombie report (modeled-service journal).
        records.push(Record::Completed { shard: 0, batch: 7, job: 3, done_s: 0.4, hash: None });
        records.push(Record::Suppressed { shard: 1, batch: 8, job: 3, t_s: 0.5, hash: None });
        for r in records {
            j.append(r);
        }
        let text = j.encode();
        let back = Journal::decode(&text).expect("decodes");
        assert_eq!(back, j);
        assert_eq!(back.encode(), text, "re-encode is byte-identical");
    }

    #[test]
    fn decode_rejects_malformed_lines() {
        assert!(Journal::decode("Q 1 2\n").is_err(), "unknown tag");
        assert!(Journal::decode("A 0 0 9 2 0 0000000000000000 aa 1\n").is_err(), "bad class");
        assert!(Journal::decode("H 0 1 zzzz 1\n").is_err(), "bad float bits");
        assert!(
            Journal::decode("Z 1 2 3 0000000000000000\n").is_err(),
            "zombie report without its hash field"
        );
        assert!(Journal::decode("X 1 2 zz 0000000000000000\n").is_err(), "bad detections");
        assert!(
            Journal::decode("T 0 1 0000000000000000 0000000000000000 1 1 0 0\n").is_err(),
            "dispatch without its ring epoch"
        );
        assert!(Journal::decode("U 0\n").is_err(), "scale-up without its time");
        assert!(Journal::decode("W 0 1 zz 0000000000000000\n").is_err(), "bad stolen batch");
        assert!(
            Journal::decode("D 0 0000000000000000 junk\n").is_err(),
            "trailing fields"
        );
        assert!(Journal::decode("").expect("empty ok").is_empty());
    }

    #[test]
    fn conservation_accounts_every_job_exactly_once() {
        let mut j = Journal::new();
        // Accepted jobs 0 and 9 (9 via the failover path), shed job 1,
        // one suppressed duplicate report.
        for r in sample_records() {
            match r {
                Record::Failover { .. } => {
                    j.append(Record::Accepted {
                        req: req(9),
                        key: idempotency_key(7, 9),
                        shard: 2,
                    });
                    j.append(r);
                }
                r => j.append(r),
            }
        }
        let c = j.conservation().expect("conserved");
        assert_eq!(c.accepted, 2);
        assert_eq!(c.shed, 1);
        assert_eq!(c.completed, 2);
        assert_eq!(c.suppressed, 1);
        assert_eq!(c.hashed, 2, "every completion in a real journal is hashed");
        assert_eq!(c.corruption_detected, 2);
        assert_eq!(c.recomputed, 2);
        assert_eq!(c.steals, 1);
        assert!(c.open.is_empty());
    }

    #[test]
    fn conservation_holds_stolen_batches_to_exactly_once() {
        let a = |id| Record::Accepted { req: req(id), key: idempotency_key(7, id), shard: 0 };
        let formed = Record::Batched { shard: 0, batch: 4, jobs: vec![0] };
        let steal = Record::Stolen { from: 0, to: 2, batch: 4, t_s: 0.1 };

        // The legitimate shape: formed on the origin, stolen, completed
        // by the thief.
        let mut j = Journal::new();
        j.append(a(0));
        j.append(formed.clone());
        j.append(steal.clone());
        j.append(Record::Completed { shard: 2, batch: 4, job: 0, done_s: 0.2, hash: None });
        let c = j.conservation().expect("thief completion is the owner's");
        assert_eq!(c.steals, 1);

        // The origin completing a batch it gave up is double service.
        let mut j = Journal::new();
        j.append(a(0));
        j.append(formed.clone());
        j.append(steal.clone());
        j.append(Record::Completed { shard: 0, batch: 4, job: 0, done_s: 0.2, hash: None });
        let err = j.conservation().expect_err("origin kept serving");
        assert!(err.to_string().contains("does not own it"), "{err}");

        // Stealing from a shard that does not own the batch.
        let mut j = Journal::new();
        j.append(a(0));
        j.append(formed.clone());
        j.append(Record::Stolen { from: 1, to: 2, batch: 4, t_s: 0.1 });
        assert!(j.conservation().is_err(), "steal from a non-owner");

        // Stealing a batch that already started.
        let mut j = Journal::new();
        j.append(a(0));
        j.append(formed.clone());
        j.append(Record::Started {
            shard: 0,
            batch: 4,
            start_s: 0.05,
            service_s: 0.01,
            nr: 1,
            ntg: 1,
            policy: 0,
            decomp: 0,
            epoch: 1,
        });
        j.append(steal.clone());
        let err = j.conservation().expect_err("steal after start");
        assert!(err.to_string().contains("after it started"), "{err}");

        // A self-steal is always inconsistent.
        let mut j = Journal::new();
        j.append(a(0));
        j.append(formed);
        j.append(Record::Stolen { from: 0, to: 0, batch: 4, t_s: 0.1 });
        assert!(j.conservation().is_err(), "self-steal");
    }

    #[test]
    fn conservation_rejects_mixed_hash_presence() {
        let a = |id| Record::Accepted { req: req(id), key: idempotency_key(7, id), shard: 0 };
        let mut j = Journal::new();
        j.append(a(0));
        j.append(a(3));
        j.append(Record::Completed { shard: 0, batch: 0, job: 0, done_s: 0.1, hash: Some(1) });
        j.append(Record::Completed { shard: 0, batch: 0, job: 3, done_s: 0.2, hash: None });
        let err = j.conservation().expect_err("mixed hash presence");
        assert!(err.to_string().contains("hash"), "{err}");

        // A zombie report must follow the journal's hash discipline too.
        let mut j = Journal::new();
        j.append(a(0));
        j.append(Record::Completed { shard: 0, batch: 0, job: 0, done_s: 0.1, hash: Some(1) });
        j.append(Record::Suppressed { shard: 1, batch: 2, job: 0, t_s: 0.2, hash: None });
        assert!(j.conservation().is_err(), "hashless zombie in a hashed journal");
    }

    #[test]
    fn conservation_catches_a_divergent_zombie_hash() {
        let a = Record::Accepted { req: req(0), key: idempotency_key(7, 0), shard: 0 };
        let c = Record::Completed { shard: 0, batch: 4, job: 0, done_s: 0.1, hash: Some(0xAB) };

        // A zombie report of the SAME batch with the same hash is a benign
        // duplicate; a different hash is silent-corruption evidence.
        let mut j = Journal::new();
        j.append(a.clone());
        j.append(c.clone());
        j.append(Record::Suppressed { shard: 1, batch: 4, job: 0, t_s: 0.2, hash: Some(0xAB) });
        let cons = j.conservation().expect("agreeing duplicate is benign");
        assert_eq!(cons.suppressed, 1);

        let mut j = Journal::new();
        j.append(a);
        j.append(c);
        j.append(Record::Suppressed { shard: 1, batch: 4, job: 0, t_s: 0.2, hash: Some(0xCD) });
        let err = j.conservation().expect_err("divergent zombie hash");
        assert!(err.to_string().contains("silent corruption"), "{err}");
    }

    #[test]
    fn conservation_catches_loss_and_duplication() {
        let a = Record::Accepted { req: req(0), key: 1, shard: 0 };
        let c = Record::Completed { shard: 0, batch: 0, job: 0, done_s: 1.0, hash: None };

        // Duplicate completion.
        let mut j = Journal::new();
        j.append(a.clone());
        j.append(c.clone());
        j.append(c.clone());
        assert!(j.conservation().is_err());

        // Completion of a never-accepted job.
        let mut j = Journal::new();
        j.append(c.clone());
        assert!(j.conservation().is_err());

        // Accepted and shed.
        let mut j = Journal::new();
        j.append(a.clone());
        j.append(Record::Shed { req: req(0), kind: "deadline".into() });
        assert!(j.conservation().is_err());

        // An open (lost) job is visible, not an error: a crash-point
        // prefix legitimately holds open jobs.
        let mut j = Journal::new();
        j.append(a);
        let cons = j.conservation().expect("prefix ok");
        assert_eq!(cons.open, vec![0]);
    }

    #[test]
    fn idempotency_keys_are_stable_and_distinct() {
        let k = idempotency_key(20170814, 5);
        assert_eq!(k, idempotency_key(20170814, 5));
        assert_ne!(k, idempotency_key(20170814, 6));
        assert_ne!(k, idempotency_key(20170815, 5));
    }
}
