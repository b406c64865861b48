//! The columnar event log — the single storage layer of the telemetry
//! stack.
//!
//! Every record the reproduction emits — compute bursts, MPI calls, task
//! lifecycles, stage-graph spans, serving counters, queue-depth gauges and
//! fleet state transitions — lands in one [`EventLog`]: an append-only set
//! of typed column streams with one shared string dictionary. The legacy
//! row types ([`crate::trace::Trace`], [`crate::metrics::CounterSet`],
//! [`crate::metrics::DepthSeries`], [`crate::metrics::StateTimeline`]) are
//! *materialized views* over this log, so the recording path has exactly
//! one store and the analysis/exporter path has exactly one source.
//!
//! The on-disk form is a self-describing binary: a header carrying the
//! dictionary and the per-stream column schemas (name + type tag), then the
//! rows in append-only chunks. Inside a chunk every column is
//! delta-encoded against its previous value (zigzag varint over the
//! wrapping u64 difference; `f64` goes through its IEEE bit pattern), which
//! is bit-exact for arbitrary values and compact for the monotone
//! virtual-time tick columns the simulator produces. `decode(encode(log))`
//! is bit-identical to the original log by construction (see the
//! round-trip proptest in `tests/proptest_columnar.rs`).

use crate::error::TraceError;
use crate::event::{CommOp, CommRecord, ComputeRecord, Lane, StateClass, TaskRecord};
use crate::metrics::{CounterSet, DepthSeries, StateTimeline};
use crate::stage::StageRecord;
use crate::trace::Trace;
use std::collections::{BTreeMap, HashMap};

/// Magic bytes of the binary format.
const MAGIC: &[u8; 4] = b"FXCL";
/// Format version.
const VERSION: u8 = 1;
/// Default rows per encoded chunk.
pub(crate) const DEFAULT_CHUNK_ROWS: usize = 512;

/// Column payload: one type tag per column, values in row order.
#[derive(Debug, Clone, PartialEq)]
pub enum ColumnData {
    /// 32-bit unsigned values (lane indices, class/op codes, stage ids).
    U32(Vec<u32>),
    /// 64-bit unsigned values (ids, byte counts, counter increments).
    U64(Vec<u64>),
    /// IEEE-754 doubles (timestamps, counters measured in seconds).
    F64(Vec<f64>),
    /// Dictionary-encoded strings (ids into the log-wide dictionary).
    Str(Vec<u32>),
}

impl ColumnData {
    fn type_tag(&self) -> u8 {
        match self {
            ColumnData::U32(_) => 0,
            ColumnData::U64(_) => 1,
            ColumnData::F64(_) => 2,
            ColumnData::Str(_) => 3,
        }
    }

    fn len(&self) -> usize {
        match self {
            ColumnData::U32(v) => v.len(),
            ColumnData::U64(v) => v.len(),
            ColumnData::F64(v) => v.len(),
            ColumnData::Str(v) => v.len(),
        }
    }
}

/// One named, typed column.
#[derive(Debug, Clone, PartialEq)]
pub struct Column {
    /// Column name (part of the self-describing header).
    pub name: String,
    /// The values.
    pub data: ColumnData,
}

/// One event stream: a fixed set of columns appended to in lockstep.
#[derive(Debug, Clone, PartialEq)]
pub struct Stream {
    /// Stream name (part of the self-describing header).
    pub name: String,
    /// The columns, all of equal length.
    pub columns: Vec<Column>,
}

impl Stream {
    fn new(name: &str, cols: &[(&str, u8)]) -> Self {
        Stream {
            name: name.to_string(),
            columns: cols
                .iter()
                .map(|&(n, tag)| Column {
                    name: n.to_string(),
                    data: match tag {
                        0 => ColumnData::U32(Vec::new()),
                        1 => ColumnData::U64(Vec::new()),
                        2 => ColumnData::F64(Vec::new()),
                        _ => ColumnData::Str(Vec::new()),
                    },
                })
                .collect(),
        }
    }

    /// Number of rows in the stream.
    pub fn rows(&self) -> usize {
        self.columns.first().map_or(0, |c| c.data.len())
    }

    fn column(&self, name: &str) -> Result<&ColumnData, TraceError> {
        self.columns
            .iter()
            .find(|c| c.name == name)
            .map(|c| &c.data)
            .ok_or_else(|| {
                TraceError::Schema(format!("stream '{}' has no column '{name}'", self.name))
            })
    }

    /// Typed column accessors (schema errors instead of panics).
    pub fn col_u32(&self, name: &str) -> Result<&[u32], TraceError> {
        match self.column(name)? {
            ColumnData::U32(v) => Ok(v),
            other => Err(type_err(&self.name, name, "u32", other)),
        }
    }

    /// See [`Stream::col_u32`].
    pub(crate) fn col_u64(&self, name: &str) -> Result<&[u64], TraceError> {
        match self.column(name)? {
            ColumnData::U64(v) => Ok(v),
            other => Err(type_err(&self.name, name, "u64", other)),
        }
    }

    /// See [`Stream::col_u32`].
    pub fn col_f64(&self, name: &str) -> Result<&[f64], TraceError> {
        match self.column(name)? {
            ColumnData::F64(v) => Ok(v),
            other => Err(type_err(&self.name, name, "f64", other)),
        }
    }

    /// See [`Stream::col_u32`] (values are dictionary ids).
    pub fn col_str(&self, name: &str) -> Result<&[u32], TraceError> {
        match self.column(name)? {
            ColumnData::Str(v) => Ok(v),
            other => Err(type_err(&self.name, name, "str", other)),
        }
    }
}

fn type_err(stream: &str, col: &str, want: &str, got: &ColumnData) -> TraceError {
    TraceError::Schema(format!(
        "stream '{stream}' column '{col}': expected {want}, found tag {}",
        got.type_tag()
    ))
}

/// Stream names (indices into [`EventLog::streams`] in this order).
pub const STREAM_COMPUTE: usize = 0;
/// See [`STREAM_COMPUTE`].
pub(crate) const STREAM_COMM: usize = 1;
/// See [`STREAM_COMPUTE`].
pub(crate) const STREAM_TASK: usize = 2;
/// See [`STREAM_COMPUTE`].
pub const STREAM_STAGE: usize = 3;
/// See [`STREAM_COMPUTE`].
pub const STREAM_COUNTER: usize = 4;
/// See [`STREAM_COMPUTE`].
pub(crate) const STREAM_GAUGE: usize = 5;
/// See [`STREAM_COMPUTE`].
pub const STREAM_STATE: usize = 6;

/// The single columnar store every telemetry producer records into.
#[derive(Debug, Clone, PartialEq)]
pub struct EventLog {
    dict: Vec<String>,
    dict_index: HashMap<String, u32>,
    streams: Vec<Stream>,
    /// Derived index over the counter stream (running totals); rebuilt on
    /// decode, never encoded.
    counter_totals: BTreeMap<u32, u64>,
}

impl Default for EventLog {
    fn default() -> Self {
        Self::new()
    }
}

impl EventLog {
    /// An empty log with the standard stream schemas.
    pub fn new() -> Self {
        EventLog {
            dict: Vec::new(),
            dict_index: HashMap::new(),
            streams: vec![
                Stream::new(
                    "compute",
                    &[
                        ("rank", 0),
                        ("thread", 0),
                        ("class", 0),
                        ("t_start", 2),
                        ("t_end", 2),
                        ("instructions", 2),
                        ("cycles", 2),
                    ],
                ),
                Stream::new(
                    "comm",
                    &[
                        ("rank", 0),
                        ("thread", 0),
                        ("op", 0),
                        ("comm_id", 1),
                        ("comm_size", 1),
                        ("bytes", 1),
                        ("t_start", 2),
                        ("t_end", 2),
                    ],
                ),
                Stream::new(
                    "task",
                    &[
                        ("rank", 0),
                        ("thread", 0),
                        ("task_id", 1),
                        ("label", 3),
                        ("t_created", 2),
                        ("t_start", 2),
                        ("t_end", 2),
                    ],
                ),
                Stream::new(
                    "stage",
                    &[
                        ("rank", 0),
                        ("thread", 0),
                        ("stage", 0),
                        ("band", 0),
                        ("t_start", 2),
                        ("t_end", 2),
                    ],
                ),
                Stream::new("counter", &[("key", 3), ("n", 1)]),
                Stream::new("gauge", &[("series", 3), ("t", 2), ("value", 1)]),
                Stream::new("state", &[("t", 2), ("lane", 0), ("state", 3)]),
            ],
            counter_totals: BTreeMap::new(),
        }
    }

    /// Interns a string into the log dictionary, returning its id.
    pub fn intern(&mut self, s: &str) -> u32 {
        if let Some(&id) = self.dict_index.get(s) {
            return id;
        }
        let id = self.dict.len() as u32;
        self.dict.push(s.to_string());
        self.dict_index.insert(s.to_string(), id);
        id
    }

    /// The interned string for a dictionary id.
    pub fn lookup(&self, id: u32) -> Result<&str, TraceError> {
        self.dict
            .get(id as usize)
            .map(String::as_str)
            .ok_or_else(|| TraceError::Decode(format!("dictionary id {id} out of range")))
    }

    /// Number of interned dictionary entries.
    pub fn dict_len(&self) -> usize {
        self.dict.len()
    }

    /// The streams (fixed order, see [`STREAM_COMPUTE`] …).
    pub fn streams(&self) -> &[Stream] {
        &self.streams
    }

    /// Total rows across all streams.
    pub fn rows(&self) -> usize {
        self.streams.iter().map(Stream::rows).sum()
    }

    /// True when no event has been recorded.
    pub fn is_empty(&self) -> bool {
        self.rows() == 0
    }

    fn push(&mut self, stream: usize, values: &[CellValue<'_>]) {
        // Intern first: interning needs &mut self, column push does too.
        let interned: Vec<u64> = values
            .iter()
            .map(|v| match v {
                CellValue::Str(s) => self.intern(s) as u64,
                CellValue::U32(x) => *x as u64,
                CellValue::U64(x) => *x,
                CellValue::F64(x) => x.to_bits(),
            })
            .collect();
        let st = &mut self.streams[stream];
        debug_assert_eq!(st.columns.len(), values.len());
        for (col, (v, raw)) in st.columns.iter_mut().zip(interned.iter().zip(values)) {
            match (&mut col.data, raw) {
                (ColumnData::U32(d), CellValue::U32(x)) => d.push(*x),
                (ColumnData::U64(d), CellValue::U64(x)) => d.push(*x),
                (ColumnData::F64(d), CellValue::F64(x)) => d.push(*x),
                (ColumnData::Str(d), CellValue::Str(_)) => d.push(*v as u32),
                _ => unreachable!("push: value type mismatches stream schema"),
            }
        }
    }

    /// Appends a compute burst.
    pub fn push_compute(&mut self, r: &ComputeRecord) {
        self.push(
            STREAM_COMPUTE,
            &[
                CellValue::U32(r.lane.rank as u32),
                CellValue::U32(r.lane.thread as u32),
                CellValue::U32(r.class.code()),
                CellValue::F64(r.t_start),
                CellValue::F64(r.t_end),
                CellValue::F64(r.instructions),
                CellValue::F64(r.cycles),
            ],
        );
    }

    /// Appends a communication operation.
    pub fn push_comm(&mut self, r: &CommRecord) {
        self.push(
            STREAM_COMM,
            &[
                CellValue::U32(r.lane.rank as u32),
                CellValue::U32(r.lane.thread as u32),
                CellValue::U32(r.op.code()),
                CellValue::U64(r.comm_id),
                CellValue::U64(r.comm_size as u64),
                CellValue::U64(r.bytes as u64),
                CellValue::F64(r.t_start),
                CellValue::F64(r.t_end),
            ],
        );
    }

    /// Appends a task lifecycle record.
    pub fn push_task(&mut self, r: &TaskRecord) {
        self.push(
            STREAM_TASK,
            &[
                CellValue::U32(r.lane.rank as u32),
                CellValue::U32(r.lane.thread as u32),
                CellValue::U64(r.task_id),
                CellValue::Str(&r.label),
                CellValue::F64(r.t_created),
                CellValue::F64(r.t_start),
                CellValue::F64(r.t_end),
            ],
        );
    }

    /// Appends a stage-graph node span.
    pub fn push_stage(&mut self, r: &StageRecord) {
        self.push(
            STREAM_STAGE,
            &[
                CellValue::U32(r.lane.rank as u32),
                CellValue::U32(r.lane.thread as u32),
                CellValue::U32(r.stage),
                CellValue::U32(r.band),
                CellValue::F64(r.t_start),
                CellValue::F64(r.t_end),
            ],
        );
    }

    /// Appends a counter increment and updates the running-total index.
    pub fn push_counter(&mut self, key: &str, n: u64) {
        let id = self.intern(key);
        self.push(STREAM_COUNTER, &[CellValue::Str(key), CellValue::U64(n)]);
        *self.counter_totals.entry(id).or_insert(0) += n;
    }

    /// Appends a gauge observation (queue depth and friends).
    pub fn push_gauge(&mut self, series: &str, t: f64, value: u64) {
        self.push(
            STREAM_GAUGE,
            &[CellValue::Str(series), CellValue::F64(t), CellValue::U64(value)],
        );
    }

    /// Appends a state transition of an integer lane.
    pub fn push_state(&mut self, t: f64, lane: u32, state: &str) {
        self.push(
            STREAM_STATE,
            &[CellValue::F64(t), CellValue::U32(lane), CellValue::Str(state)],
        );
    }

    /// Running total of a counter (O(log k) via the append-time index).
    pub fn counter_total(&self, key: &str) -> u64 {
        self.dict_index
            .get(key)
            .and_then(|id| self.counter_totals.get(id))
            .copied()
            .unwrap_or(0)
    }

    /// Sum of all counters whose key starts with `prefix`.
    pub fn counter_prefix_total(&self, prefix: &str) -> u64 {
        self.counter_totals
            .iter()
            .filter(|(&id, _)| self.dict[id as usize].starts_with(prefix))
            .map(|(_, &v)| v)
            .sum()
    }

    // ------------------------------------------------------------------
    // Materialized views.
    // ------------------------------------------------------------------

    /// Materializes the execution-trace view (compute/comm/task/stage rows
    /// in append order — [`Trace::sort`] is the caller's choice, matching
    /// the old four-vector store).
    pub fn to_trace(&self) -> Result<Trace, TraceError> {
        let mut t = Trace::default();
        let s = &self.streams[STREAM_COMPUTE];
        let (rank, thread) = (s.col_u32("rank")?, s.col_u32("thread")?);
        let class = s.col_u32("class")?;
        let (t0, t1) = (s.col_f64("t_start")?, s.col_f64("t_end")?);
        let (ins, cyc) = (s.col_f64("instructions")?, s.col_f64("cycles")?);
        for i in 0..s.rows() {
            t.compute.push(ComputeRecord {
                lane: Lane::new(rank[i] as usize, thread[i] as usize),
                class: StateClass::from_code(class[i]).ok_or_else(|| {
                    TraceError::Decode(format!("unknown state-class code {}", class[i]))
                })?,
                t_start: t0[i],
                t_end: t1[i],
                instructions: ins[i],
                cycles: cyc[i],
            });
        }
        let s = &self.streams[STREAM_COMM];
        let (rank, thread) = (s.col_u32("rank")?, s.col_u32("thread")?);
        let op = s.col_u32("op")?;
        let (cid, csz, bytes) = (s.col_u64("comm_id")?, s.col_u64("comm_size")?, s.col_u64("bytes")?);
        let (t0, t1) = (s.col_f64("t_start")?, s.col_f64("t_end")?);
        for i in 0..s.rows() {
            t.comm.push(CommRecord {
                lane: Lane::new(rank[i] as usize, thread[i] as usize),
                op: CommOp::from_code(op[i]).ok_or_else(|| {
                    TraceError::Decode(format!("unknown comm-op code {}", op[i]))
                })?,
                comm_id: cid[i],
                comm_size: csz[i] as usize,
                bytes: bytes[i] as usize,
                t_start: t0[i],
                t_end: t1[i],
            });
        }
        let s = &self.streams[STREAM_TASK];
        let (rank, thread) = (s.col_u32("rank")?, s.col_u32("thread")?);
        let (tid, label) = (s.col_u64("task_id")?, s.col_str("label")?);
        let (tc, t0, t1) = (s.col_f64("t_created")?, s.col_f64("t_start")?, s.col_f64("t_end")?);
        for i in 0..s.rows() {
            t.tasks.push(TaskRecord {
                lane: Lane::new(rank[i] as usize, thread[i] as usize),
                task_id: tid[i],
                label: self.lookup(label[i])?.to_string(),
                t_created: tc[i],
                t_start: t0[i],
                t_end: t1[i],
            });
        }
        let s = &self.streams[STREAM_STAGE];
        let (rank, thread) = (s.col_u32("rank")?, s.col_u32("thread")?);
        let (stage, band) = (s.col_u32("stage")?, s.col_u32("band")?);
        let (t0, t1) = (s.col_f64("t_start")?, s.col_f64("t_end")?);
        for i in 0..s.rows() {
            t.stages.push(StageRecord {
                lane: Lane::new(rank[i] as usize, thread[i] as usize),
                stage: stage[i],
                band: band[i],
                t_start: t0[i],
                t_end: t1[i],
            });
        }
        Ok(t)
    }

    /// Materializes the counter view.
    pub fn counters(&self) -> Result<CounterSet, TraceError> {
        let mut out = CounterSet::new();
        for (&id, &v) in &self.counter_totals {
            out.add(self.lookup(id)?, v);
        }
        Ok(out)
    }

    /// Materializes one gauge series as a [`DepthSeries`].
    pub fn gauge(&self, series: &str) -> Result<DepthSeries, TraceError> {
        let s = &self.streams[STREAM_GAUGE];
        let (names, ts, vals) = (s.col_str("series")?, s.col_f64("t")?, s.col_u64("value")?);
        let mut out = DepthSeries::new();
        for i in 0..s.rows() {
            if self.lookup(names[i])? == series {
                out.record(ts[i], vals[i] as usize);
            }
        }
        Ok(out)
    }

    /// Materializes the state-transition view. Rows are stable-sorted by
    /// timestamp first: a virtual-time loop can *discover* transitions
    /// slightly out of time order within one tick (e.g. two shards'
    /// batches completing at different virtual times, processed in shard
    /// order), and the timeline view orders by when they happened, with
    /// append order breaking ties deterministically.
    pub fn state_timeline(&self) -> Result<StateTimeline, TraceError> {
        let s = &self.streams[STREAM_STATE];
        let (ts, lanes, states) = (s.col_f64("t")?, s.col_u32("lane")?, s.col_str("state")?);
        let mut order: Vec<usize> = (0..s.rows()).collect();
        order.sort_by(|&a, &b| ts[a].total_cmp(&ts[b]));
        let mut out = StateTimeline::new();
        for i in order {
            out.record(ts[i], lanes[i], self.lookup(states[i])?);
        }
        Ok(out)
    }

    /// Builds a log from an existing row-form trace (the bridge for code
    /// that assembles [`Trace`] values directly, e.g. the KNL simulator).
    pub fn from_trace(t: &Trace) -> Self {
        let mut log = EventLog::new();
        for r in &t.compute {
            log.push_compute(r);
        }
        for r in &t.comm {
            log.push_comm(r);
        }
        for r in &t.tasks {
            log.push_task(r);
        }
        for r in &t.stages {
            log.push_stage(r);
        }
        log
    }

    // ------------------------------------------------------------------
    // Binary encoding.
    // ------------------------------------------------------------------

    /// Encodes the log with the default chunk size.
    pub fn encode(&self) -> Vec<u8> {
        self.encode_chunked(DEFAULT_CHUNK_ROWS)
    }

    /// Encodes with an explicit chunk size (tests exercise small chunks to
    /// hit chunk boundaries on short streams).
    pub fn encode_chunked(&self, chunk_rows: usize) -> Vec<u8> {
        let chunk_rows = chunk_rows.max(1);
        let mut out = Vec::new();
        out.extend_from_slice(MAGIC);
        out.push(VERSION);
        put_varint(&mut out, self.dict.len() as u64);
        for s in &self.dict {
            put_bytes(&mut out, s.as_bytes());
        }
        put_varint(&mut out, self.streams.len() as u64);
        for stream in &self.streams {
            put_bytes(&mut out, stream.name.as_bytes());
            put_varint(&mut out, stream.columns.len() as u64);
            for col in &stream.columns {
                put_bytes(&mut out, col.name.as_bytes());
                out.push(col.data.type_tag());
            }
            let rows = stream.rows();
            put_varint(&mut out, rows as u64);
            put_varint(&mut out, chunk_rows as u64);
            let mut start = 0;
            while start < rows {
                let end = (start + chunk_rows).min(rows);
                for col in &stream.columns {
                    encode_column_slice(&mut out, &col.data, start, end);
                }
                start = end;
            }
        }
        out
    }

    /// Decodes a binary log, validating magic, version, schema and
    /// dictionary references.
    pub fn decode(bytes: &[u8]) -> Result<Self, TraceError> {
        let mut pos = 0usize;
        let magic = take(bytes, &mut pos, 4)?;
        if magic != MAGIC {
            return Err(TraceError::Decode("bad magic (not an FXCL log)".into()));
        }
        let version = take(bytes, &mut pos, 1)?[0];
        if version != VERSION {
            return Err(TraceError::Decode(format!(
                "unsupported version {version} (expected {VERSION})"
            )));
        }
        let dict_len = get_varint(bytes, &mut pos)? as usize;
        let mut dict = Vec::with_capacity(dict_len.min(1 << 20));
        for _ in 0..dict_len {
            dict.push(get_string(bytes, &mut pos)?);
        }
        let n_streams = get_varint(bytes, &mut pos)? as usize;
        let mut streams = Vec::with_capacity(n_streams.min(64));
        for _ in 0..n_streams {
            let name = get_string(bytes, &mut pos)?;
            let n_cols = get_varint(bytes, &mut pos)? as usize;
            let mut schema = Vec::with_capacity(n_cols.min(64));
            for _ in 0..n_cols {
                let cname = get_string(bytes, &mut pos)?;
                let tag = take(bytes, &mut pos, 1)?[0];
                if tag > 3 {
                    return Err(TraceError::Decode(format!(
                        "unknown column type tag {tag} in stream '{name}'"
                    )));
                }
                schema.push((cname, tag));
            }
            let rows = get_varint(bytes, &mut pos)? as usize;
            let chunk_rows = get_varint(bytes, &mut pos)?.max(1) as usize;
            let mut columns: Vec<Column> = schema
                .into_iter()
                .map(|(cname, tag)| Column {
                    name: cname,
                    data: match tag {
                        0 => ColumnData::U32(Vec::new()),
                        1 => ColumnData::U64(Vec::new()),
                        2 => ColumnData::F64(Vec::new()),
                        _ => ColumnData::Str(Vec::new()),
                    },
                })
                .collect();
            let mut start = 0;
            while start < rows {
                let end = (start + chunk_rows).min(rows);
                for col in columns.iter_mut() {
                    decode_column_slice(bytes, &mut pos, &mut col.data, end - start)?;
                }
                start = end;
            }
            // Validate dictionary references.
            for col in &columns {
                if let ColumnData::Str(ids) = &col.data {
                    if let Some(&bad) = ids.iter().find(|&&id| id as usize >= dict.len()) {
                        return Err(TraceError::Decode(format!(
                            "stream '{name}' column '{}' references dictionary id {bad} \
                             beyond dictionary of {}",
                            col.name,
                            dict.len()
                        )));
                    }
                }
            }
            streams.push(Stream { name, columns });
        }
        if pos != bytes.len() {
            return Err(TraceError::Decode(format!(
                "{} trailing bytes after log body",
                bytes.len() - pos
            )));
        }
        let dict_index = dict
            .iter()
            .enumerate()
            .map(|(i, s)| (s.clone(), i as u32))
            .collect();
        let mut log = EventLog {
            dict,
            dict_index,
            streams,
            counter_totals: BTreeMap::new(),
        };
        // Rebuild the derived counter index.
        if let Some(s) = log.streams.get(STREAM_COUNTER) {
            if s.name == "counter" {
                let keys = s.col_str("key")?.to_vec();
                let ns = s.col_u64("n")?.to_vec();
                for (k, n) in keys.into_iter().zip(ns) {
                    *log.counter_totals.entry(k).or_insert(0) += n;
                }
            }
        }
        Ok(log)
    }
}

/// A typed cell for the internal append path.
enum CellValue<'a> {
    U32(u32),
    U64(u64),
    F64(f64),
    Str(&'a str),
}

// ----------------------------------------------------------------------
// Varint / zigzag / column codecs.
// ----------------------------------------------------------------------

fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let b = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(b);
            return;
        }
        out.push(b | 0x80);
    }
}

fn get_varint(bytes: &[u8], pos: &mut usize) -> Result<u64, TraceError> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let b = *bytes
            .get(*pos)
            .ok_or_else(|| TraceError::Decode("truncated varint".into()))?;
        *pos += 1;
        if shift >= 64 {
            return Err(TraceError::Decode("varint overflows u64".into()));
        }
        v |= ((b & 0x7f) as u64) << shift;
        if b & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

fn put_bytes(out: &mut Vec<u8>, b: &[u8]) {
    put_varint(out, b.len() as u64);
    out.extend_from_slice(b);
}

fn take<'a>(bytes: &'a [u8], pos: &mut usize, n: usize) -> Result<&'a [u8], TraceError> {
    let end = pos
        .checked_add(n)
        .filter(|&e| e <= bytes.len())
        .ok_or_else(|| TraceError::Decode("truncated record".into()))?;
    let s = &bytes[*pos..end];
    *pos = end;
    Ok(s)
}

fn get_string(bytes: &[u8], pos: &mut usize) -> Result<String, TraceError> {
    let len = get_varint(bytes, pos)? as usize;
    let raw = take(bytes, pos, len)?;
    String::from_utf8(raw.to_vec())
        .map_err(|e| TraceError::Decode(format!("invalid utf-8 string: {e}")))
}

fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(u: u64) -> i64 {
    ((u >> 1) as i64) ^ -((u & 1) as i64)
}

/// Delta-encodes `col[start..end]` as zigzag varints over the wrapping u64
/// difference to the previous value (the chunk's first value deltas against
/// 0). Bit-exact for every value; compact for monotone tick columns.
fn encode_column_slice(out: &mut Vec<u8>, col: &ColumnData, start: usize, end: usize) {
    let mut prev = 0u64;
    let mut emit = |raw: u64, out: &mut Vec<u8>| {
        put_varint(out, zigzag(raw.wrapping_sub(prev) as i64));
        prev = raw;
    };
    match col {
        ColumnData::U32(v) => v[start..end].iter().for_each(|&x| emit(x as u64, out)),
        ColumnData::U64(v) => v[start..end].iter().for_each(|&x| emit(x, out)),
        ColumnData::F64(v) => v[start..end].iter().for_each(|&x| emit(x.to_bits(), out)),
        ColumnData::Str(v) => v[start..end].iter().for_each(|&x| emit(x as u64, out)),
    }
}

fn decode_column_slice(
    bytes: &[u8],
    pos: &mut usize,
    col: &mut ColumnData,
    n: usize,
) -> Result<(), TraceError> {
    let mut prev = 0u64;
    for _ in 0..n {
        let raw = prev.wrapping_add(unzigzag(get_varint(bytes, pos)?) as u64);
        prev = raw;
        match col {
            ColumnData::U32(v) => {
                let x = u32::try_from(raw).map_err(|_| {
                    TraceError::Decode(format!("value {raw} overflows u32 column"))
                })?;
                v.push(x);
            }
            ColumnData::U64(v) => v.push(raw),
            ColumnData::F64(v) => v.push(f64::from_bits(raw)),
            ColumnData::Str(v) => {
                let x = u32::try_from(raw).map_err(|_| {
                    TraceError::Decode(format!("dictionary id {raw} overflows u32"))
                })?;
                v.push(x);
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn burst(rank: usize, t0: f64, t1: f64) -> ComputeRecord {
        ComputeRecord {
            lane: Lane::new(rank, 0),
            class: StateClass::FftXy,
            t_start: t0,
            t_end: t1,
            instructions: 10.0,
            cycles: 20.0,
        }
    }

    fn sample_log() -> EventLog {
        let mut log = EventLog::new();
        log.push_compute(&burst(0, 0.0, 1.0));
        log.push_compute(&burst(1, 0.5, 2.0));
        log.push_comm(&CommRecord {
            lane: Lane::new(0, 0),
            op: CommOp::Alltoall,
            comm_id: 7,
            comm_size: 2,
            bytes: 4096,
            t_start: 1.0,
            t_end: 1.5,
        });
        log.push_task(&TaskRecord {
            lane: Lane::new(1, 2),
            task_id: 99,
            label: "pack[3]".into(),
            t_created: 0.0,
            t_start: 0.1,
            t_end: 0.2,
        });
        log.push_stage(&StageRecord {
            lane: Lane::new(0, 1),
            stage: 4,
            band: 2,
            t_start: 0.25,
            t_end: 0.75,
        });
        log.push_counter("jobs.accepted", 3);
        log.push_counter("jobs.accepted", 2);
        log.push_counter("jobs.shed", 1);
        log.push_gauge("queue", 0.0, 0);
        log.push_gauge("queue", 1.0, 5);
        log.push_state(0.0, 0, "closed");
        log.push_state(1.0, 0, "open");
        log
    }

    #[test]
    fn roundtrip_is_bit_identical() {
        let log = sample_log();
        for chunk in [1, 2, 3, 512] {
            let decoded = EventLog::decode(&log.encode_chunked(chunk)).expect("decode");
            assert_eq!(decoded, log, "chunk_rows {chunk}");
        }
    }

    #[test]
    fn empty_log_roundtrips() {
        let log = EventLog::new();
        let decoded = EventLog::decode(&log.encode()).expect("decode");
        assert_eq!(decoded, log);
        assert!(log.is_empty());
    }

    #[test]
    fn trace_view_matches_inputs() {
        let log = sample_log();
        let t = log.to_trace().expect("trace");
        assert_eq!(t.compute.len(), 2);
        assert_eq!(t.comm.len(), 1);
        assert_eq!(t.tasks.len(), 1);
        assert_eq!(t.stages.len(), 1);
        assert_eq!(t.tasks[0].label, "pack[3]");
        assert_eq!(t.comm[0].bytes, 4096);
        assert_eq!(t.stages[0].stage, 4);
        // from_trace rebuilds the execution streams exactly.
        let rebuilt = EventLog::from_trace(&t);
        assert_eq!(rebuilt.to_trace().expect("trace").compute, t.compute);
    }

    #[test]
    fn counter_index_and_views() {
        let log = sample_log();
        assert_eq!(log.counter_total("jobs.accepted"), 5);
        assert_eq!(log.counter_total("jobs.shed"), 1);
        assert_eq!(log.counter_total("missing"), 0);
        assert_eq!(log.counter_prefix_total("jobs."), 6);
        let c = log.counters().expect("counters");
        assert_eq!(c.get("jobs.accepted"), 5);
        let depth = log.gauge("queue").expect("gauge");
        assert_eq!(depth.len(), 2);
        assert_eq!(depth.max(), 5);
        let tl = log.state_timeline().expect("timeline");
        assert_eq!(tl.last_state(0), Some("open"));
        // The index survives a decode round-trip.
        let decoded = EventLog::decode(&log.encode()).expect("decode");
        assert_eq!(decoded.counter_total("jobs.accepted"), 5);
    }

    #[test]
    fn dictionary_deduplicates() {
        let mut log = EventLog::new();
        for _ in 0..100 {
            log.push_counter("same.key", 1);
        }
        assert_eq!(log.dict_len(), 1);
        assert_eq!(log.counter_total("same.key"), 100);
    }

    #[test]
    fn special_floats_roundtrip() {
        let mut log = EventLog::new();
        for v in [0.0, -0.0, f64::INFINITY, f64::NEG_INFINITY, f64::MIN_POSITIVE, 1e300] {
            log.push_gauge("g", v, 0);
        }
        log.push_gauge("g", f64::NAN, 0);
        let decoded = EventLog::decode(&log.encode_chunked(2)).expect("decode");
        let a = log.streams()[STREAM_GAUGE].col_f64("t").expect("col");
        let b = decoded.streams()[STREAM_GAUGE].col_f64("t").expect("col");
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(EventLog::decode(b"").is_err());
        assert!(EventLog::decode(b"NOPE").is_err());
        assert!(EventLog::decode(b"FXCL\x07").is_err());
        let mut ok = sample_log().encode();
        ok.push(0); // trailing byte
        assert!(EventLog::decode(&ok).is_err());
        let ok = sample_log().encode();
        assert!(EventLog::decode(&ok[..ok.len() - 1]).is_err());
    }

    #[test]
    fn schema_lookups_are_typed_errors() {
        let log = EventLog::new();
        let s = &log.streams()[STREAM_COMPUTE];
        assert!(s.col_u32("rank").is_ok());
        assert!(matches!(s.col_u32("nope"), Err(TraceError::Schema(_))));
        assert!(matches!(s.col_u64("rank"), Err(TraceError::Schema(_))));
        assert!(matches!(log.lookup(0), Err(TraceError::Decode(_))));
    }

    #[test]
    fn varint_edge_values() {
        let mut out = Vec::new();
        for v in [0u64, 1, 127, 128, u32::MAX as u64, u64::MAX] {
            out.clear();
            put_varint(&mut out, v);
            let mut pos = 0;
            assert_eq!(get_varint(&out, &mut pos).expect("varint"), v);
            assert_eq!(pos, out.len());
        }
        for v in [0i64, -1, 1, i64::MIN, i64::MAX] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }
}
