//! The wire format of a [`Trace`]: a self-describing columnar binary.
//!
//! An [`EventLog`] holds one finished trace and writes its four execution
//! streams (`compute`, `comm`, `task`, `stage`) as typed columns, in the
//! spirit of the single trace file Extrae writes per run. The format is:
//!
//! * the magic `FXCL` and a version byte;
//! * a dictionary of the task labels, in order of first appearance;
//! * each stream's name and column schema (column name and type tag:
//!   `u32`, `u64`, `f64` or dictionary id), its row count and chunk size;
//! * the rows in chunks: inside a chunk every column is delta-encoded
//!   against its previous value (zigzag varint over the wrapping u64
//!   difference; `f64` goes through its IEEE bit pattern), which is
//!   bit-exact for arbitrary values and compact for monotone timestamps.
//!
//! [`EventLog::decode`] checks every header field against the fixed
//! schema and every value against its column's range, and it sizes no
//! buffer beyond what the input can fill, so any byte string decodes to a
//! trace or a typed [`TraceError`]. `decode(encode(log))` is the original
//! log (see `tests/proptest_columnar.rs`).

use crate::error::TraceError;
use crate::event::{CommOp, CommRecord, ComputeRecord, Lane, StateClass, TaskRecord};
use crate::stage::StageRecord;
use crate::trace::Trace;
use std::collections::HashMap;

/// Magic bytes of the binary format.
const MAGIC: &[u8; 4] = b"FXCL";
/// Format version. Version 1 also carried the serving supervisor's
/// counter, gauge and state streams.
const VERSION: u8 = 2;
/// Default rows per encoded chunk.
const DEFAULT_CHUNK_ROWS: usize = 512;
/// Largest chunk size the format admits.
const MAX_CHUNK_ROWS: usize = u32::MAX as usize;

/// Column type tags.
const U32: u8 = 0;
const U64: u8 = 1;
const F64: u8 = 2;
const STR: u8 = 3;

/// A stream's column names and type tags, in wire order.
type Schema<const N: usize> = [(&'static str, u8); N];

const COMPUTE: Schema<7> = [
    ("rank", U32),
    ("thread", U32),
    ("class", U32),
    ("t_start", F64),
    ("t_end", F64),
    ("instructions", F64),
    ("cycles", F64),
];
const COMM: Schema<8> = [
    ("rank", U32),
    ("thread", U32),
    ("op", U32),
    ("comm_id", U64),
    ("comm_size", U64),
    ("bytes", U64),
    ("t_start", F64),
    ("t_end", F64),
];
const TASK: Schema<7> = [
    ("rank", U32),
    ("thread", U32),
    ("task_id", U64),
    ("label", STR),
    ("t_created", F64),
    ("t_start", F64),
    ("t_end", F64),
];
const STAGE: Schema<6> = [
    ("rank", U32),
    ("thread", U32),
    ("stage", U32),
    ("band", U32),
    ("t_start", F64),
    ("t_end", F64),
];
/// Number of streams in a log.
const STREAMS: u64 = 4;

/// A [`Trace`] in its wire form: encodes to and decodes from the columnar
/// binary described in the module docs.
#[derive(Debug, Clone, PartialEq)]
pub struct EventLog {
    trace: Trace,
}

impl EventLog {
    /// A log of a copy of `t`.
    pub fn from_trace(t: &Trace) -> Self {
        EventLog { trace: t.clone() }
    }

    /// The trace the log holds.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Total rows across the four streams.
    pub fn rows(&self) -> usize {
        let t = &self.trace;
        t.compute.len() + t.comm.len() + t.tasks.len() + t.stages.len()
    }

    /// Encodes the log with the default chunk size.
    pub fn encode(&self) -> Vec<u8> {
        self.encode_chunked(DEFAULT_CHUNK_ROWS)
    }

    /// Encodes with an explicit chunk size, clamped to `1..=u32::MAX`
    /// (tests exercise small chunks to hit chunk boundaries on short
    /// streams).
    pub fn encode_chunked(&self, chunk_rows: usize) -> Vec<u8> {
        let chunk = chunk_rows.clamp(1, MAX_CHUNK_ROWS);
        let t = &self.trace;
        // The task labels in order of first appearance, and their ids.
        let mut dict: Vec<&str> = Vec::new();
        let mut index: HashMap<&str, u64> = HashMap::new();
        for r in &t.tasks {
            index.entry(&r.label).or_insert_with(|| {
                dict.push(&r.label);
                dict.len() as u64 - 1
            });
        }
        let mut out = Vec::new();
        out.extend_from_slice(MAGIC);
        out.push(VERSION);
        put_varint(&mut out, dict.len() as u64);
        for s in &dict {
            put_bytes(&mut out, s.as_bytes());
        }
        put_varint(&mut out, STREAMS);
        encode_stream(&mut out, "compute", &COMPUTE, &t.compute, chunk, |r| {
            [
                r.lane.rank as u64,
                r.lane.thread as u64,
                u64::from(r.class.code()),
                r.t_start.to_bits(),
                r.t_end.to_bits(),
                r.instructions.to_bits(),
                r.cycles.to_bits(),
            ]
        });
        encode_stream(&mut out, "comm", &COMM, &t.comm, chunk, |r| {
            [
                r.lane.rank as u64,
                r.lane.thread as u64,
                u64::from(r.op.code()),
                r.comm_id,
                r.comm_size as u64,
                r.bytes as u64,
                r.t_start.to_bits(),
                r.t_end.to_bits(),
            ]
        });
        encode_stream(&mut out, "task", &TASK, &t.tasks, chunk, |r| {
            [
                r.lane.rank as u64,
                r.lane.thread as u64,
                r.task_id,
                index[r.label.as_str()],
                r.t_created.to_bits(),
                r.t_start.to_bits(),
                r.t_end.to_bits(),
            ]
        });
        encode_stream(&mut out, "stage", &STAGE, &t.stages, chunk, |r| {
            [
                r.lane.rank as u64,
                r.lane.thread as u64,
                u64::from(r.stage),
                u64::from(r.band),
                r.t_start.to_bits(),
                r.t_end.to_bits(),
            ]
        });
        out
    }

    /// Decodes a binary log, validating magic, version, schema, value
    /// ranges and dictionary references.
    ///
    /// # Errors
    /// [`TraceError::Schema`] when a stream or column differs from the
    /// fixed schema; [`TraceError::Decode`] for any other malformed input.
    pub fn decode(bytes: &[u8]) -> Result<Self, TraceError> {
        let mut pos = 0usize;
        if take(bytes, &mut pos, 4)? != MAGIC {
            return Err(TraceError::Decode("bad magic (not an FXCL log)".into()));
        }
        let version = take(bytes, &mut pos, 1)?[0];
        if version != VERSION {
            return Err(TraceError::Decode(format!(
                "unsupported version {version} (expected {VERSION})"
            )));
        }
        // Every entry takes at least its length byte.
        let dict_len = get_len(bytes, &mut pos, 1, "dictionary entries")?;
        let mut dict = Vec::with_capacity(dict_len);
        for _ in 0..dict_len {
            dict.push(get_str(bytes, &mut pos)?.to_string());
        }
        let streams = get_varint(bytes, &mut pos)?;
        if streams != STREAMS {
            return Err(TraceError::Schema(format!(
                "{streams} streams (expected {STREAMS})"
            )));
        }
        let compute = decode_stream(bytes, &mut pos, "compute", &COMPUTE, |c| {
            Ok(ComputeRecord {
                lane: Lane::new(c[0] as usize, c[1] as usize),
                class: StateClass::from_code(c[2] as u32).ok_or_else(|| {
                    TraceError::Decode(format!("unknown state-class code {}", c[2]))
                })?,
                t_start: f64::from_bits(c[3]),
                t_end: f64::from_bits(c[4]),
                instructions: f64::from_bits(c[5]),
                cycles: f64::from_bits(c[6]),
            })
        })?;
        let comm = decode_stream(bytes, &mut pos, "comm", &COMM, |c| {
            Ok(CommRecord {
                lane: Lane::new(c[0] as usize, c[1] as usize),
                op: CommOp::from_code(c[2] as u32)
                    .ok_or_else(|| TraceError::Decode(format!("unknown comm-op code {}", c[2])))?,
                comm_id: c[3],
                comm_size: c[4] as usize,
                bytes: c[5] as usize,
                t_start: f64::from_bits(c[6]),
                t_end: f64::from_bits(c[7]),
            })
        })?;
        let tasks = decode_stream(bytes, &mut pos, "task", &TASK, |c| {
            let label = dict.get(c[3] as usize).ok_or_else(|| {
                TraceError::Decode(format!("dictionary id {} out of range", c[3]))
            })?;
            Ok(TaskRecord {
                lane: Lane::new(c[0] as usize, c[1] as usize),
                task_id: c[2],
                label: label.clone(),
                t_created: f64::from_bits(c[4]),
                t_start: f64::from_bits(c[5]),
                t_end: f64::from_bits(c[6]),
            })
        })?;
        let stages = decode_stream(bytes, &mut pos, "stage", &STAGE, |c| {
            Ok(StageRecord {
                lane: Lane::new(c[0] as usize, c[1] as usize),
                stage: c[2] as u32,
                band: c[3] as u32,
                t_start: f64::from_bits(c[4]),
                t_end: f64::from_bits(c[5]),
            })
        })?;
        if pos != bytes.len() {
            return Err(TraceError::Decode(format!(
                "{} trailing bytes after log body",
                bytes.len() - pos
            )));
        }
        Ok(EventLog {
            trace: Trace {
                compute,
                comm,
                tasks,
                stages,
            },
        })
    }
}

/// Writes one stream: its header, then its rows chunk by chunk, each
/// column of a chunk delta-encoded over the raw cells `cells` gives a row
/// (`u32`/`u64` values, `f64` bit patterns, dictionary ids).
fn encode_stream<R, const N: usize>(
    out: &mut Vec<u8>,
    name: &str,
    schema: &Schema<N>,
    rows: &[R],
    chunk: usize,
    cells: impl Fn(&R) -> [u64; N],
) {
    put_bytes(out, name.as_bytes());
    put_varint(out, N as u64);
    for (col, tag) in schema {
        put_bytes(out, col.as_bytes());
        out.push(*tag);
    }
    put_varint(out, rows.len() as u64);
    put_varint(out, chunk as u64);
    let rows: Vec<[u64; N]> = rows.iter().map(cells).collect();
    for part in rows.chunks(chunk) {
        for c in 0..N {
            let mut prev = 0u64;
            for row in part {
                put_varint(out, zigzag(row[c].wrapping_sub(prev) as i64));
                prev = row[c];
            }
        }
    }
}

/// Reads one stream written by [`encode_stream`] and builds its records
/// with `record`. The header must match `name` and `schema` exactly; a
/// `u32` or dictionary-id cell must fit in 32 bits.
fn decode_stream<R, const N: usize>(
    bytes: &[u8],
    pos: &mut usize,
    name: &str,
    schema: &Schema<N>,
    record: impl Fn(&[u64; N]) -> Result<R, TraceError>,
) -> Result<Vec<R>, TraceError> {
    let got = get_str(bytes, pos)?;
    if got != name {
        return Err(TraceError::Schema(format!(
            "found stream '{got}' where '{name}' belongs"
        )));
    }
    let cols = get_varint(bytes, pos)?;
    if cols != N as u64 {
        return Err(TraceError::Schema(format!(
            "stream '{name}' has {cols} columns (expected {N})"
        )));
    }
    for &(col, tag) in schema {
        let (got, got_tag) = (get_str(bytes, pos)?, take(bytes, pos, 1)?[0]);
        if got != col || got_tag != tag {
            return Err(TraceError::Schema(format!(
                "stream '{name}': found column '{got}' of type tag {got_tag} \
                 where '{col}' of type tag {tag} belongs"
            )));
        }
    }
    // Every row takes at least one byte per column.
    let rows = get_len(bytes, pos, N, &format!("stream '{name}' rows"))?;
    let chunk = get_varint(bytes, pos)?;
    if chunk == 0 || chunk > MAX_CHUNK_ROWS as u64 {
        return Err(TraceError::Decode(format!(
            "stream '{name}': chunk size {chunk} outside 1..={MAX_CHUNK_ROWS}"
        )));
    }
    let mut cells = vec![[0u64; N]; rows];
    for part in cells.chunks_mut(chunk as usize) {
        for (c, &(col, tag)) in schema.iter().enumerate() {
            let mut prev = 0u64;
            for row in part.iter_mut() {
                prev = prev.wrapping_add(unzigzag(get_varint(bytes, pos)?) as u64);
                if matches!(tag, U32 | STR) && prev > u64::from(u32::MAX) {
                    return Err(TraceError::Decode(format!(
                        "stream '{name}' column '{col}': value {prev} overflows u32"
                    )));
                }
                row[c] = prev;
            }
        }
    }
    cells.iter().map(record).collect()
}

// ----------------------------------------------------------------------
// Varint / zigzag primitives.
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

/// Reads a count of items that take at least `min_bytes` each and
/// rejects one the rest of the input cannot hold, so no buffer is ever
/// sized from a count the input does not back.
fn get_len(
    bytes: &[u8],
    pos: &mut usize,
    min_bytes: usize,
    what: &str,
) -> Result<usize, TraceError> {
    let n = get_varint(bytes, pos)?;
    let left = bytes.len() - *pos;
    match usize::try_from(n) {
        Ok(n) if n.saturating_mul(min_bytes) <= left => Ok(n),
        _ => Err(TraceError::Decode(format!(
            "{what}: {n} declared, but only {left} bytes remain"
        ))),
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

fn get_str<'a>(bytes: &'a [u8], pos: &mut usize) -> Result<&'a str, TraceError> {
    let len = get_varint(bytes, pos)?;
    let raw = take(bytes, pos, usize::try_from(len).unwrap_or(usize::MAX))?;
    std::str::from_utf8(raw).map_err(|e| TraceError::Decode(format!("invalid utf-8 string: {e}")))
}

fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(u: u64) -> i64 {
    ((u >> 1) as i64) ^ -((u & 1) as i64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_trace() -> Trace {
        let burst = |rank, t_start, t_end| ComputeRecord {
            lane: Lane::new(rank, 0),
            class: StateClass::FftXy,
            t_start,
            t_end,
            instructions: 10.0,
            cycles: 20.0,
        };
        let task = |label: &str| TaskRecord {
            lane: Lane::new(1, 2),
            task_id: 99,
            label: label.into(),
            t_created: 0.0,
            t_start: 0.1,
            t_end: 0.2,
        };
        let comm = CommRecord {
            lane: Lane::new(0, 0),
            op: CommOp::Alltoall,
            comm_id: 7,
            comm_size: 2,
            bytes: 4096,
            t_start: 1.0,
            t_end: 1.5,
        };
        let stage = StageRecord {
            lane: Lane::new(0, 1),
            stage: 4,
            band: 2,
            t_start: 0.25,
            t_end: 0.75,
        };
        Trace {
            compute: vec![burst(0, 0.0, 1.0), burst(1, 0.5, 2.0)],
            comm: vec![comm],
            tasks: vec![task("pack[3]"), task("fft[3]"), task("pack[3]")],
            stages: vec![stage],
        }
    }

    #[test]
    fn roundtrip_is_bit_identical() {
        for (trace, rows) in [(sample_trace(), 7), (Trace::default(), 0)] {
            let log = EventLog::from_trace(&trace);
            assert_eq!(log.rows(), rows);
            for chunk in [1, 2, 3, 512] {
                let decoded = EventLog::decode(&log.encode_chunked(chunk)).expect("decode");
                assert_eq!(decoded, log, "chunk_rows {chunk}");
            }
            assert_eq!(log.trace(), &trace);
        }
    }

    #[test]
    fn dictionary_holds_each_label_once() {
        let bytes = EventLog::from_trace(&sample_trace()).encode();
        // Magic, version, two entries: "pack[3]" then "fft[3]".
        assert_eq!(&bytes[..21], b"FXCL\x02\x02\x07pack[3]\x06fft[3]");
    }

    #[test]
    fn special_floats_roundtrip() {
        let mut t = Trace::default();
        for v in [
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE,
            1e300,
            f64::NAN,
        ] {
            let mut r = sample_trace().compute[0];
            (r.t_start, r.t_end, r.instructions, r.cycles) = (v, v, v, v);
            t.compute.push(r);
        }
        let decoded =
            EventLog::decode(&EventLog::from_trace(&t).encode_chunked(2)).expect("decode");
        let bits = |t: &Trace| -> Vec<u64> {
            let fields = t
                .compute
                .iter()
                .flat_map(|r| [r.t_start, r.t_end, r.instructions, r.cycles]);
            fields.map(f64::to_bits).collect()
        };
        assert_eq!(bits(decoded.trace()), bits(&t));
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(EventLog::decode(b"").is_err());
        assert!(EventLog::decode(b"NOPE").is_err());
        assert!(EventLog::decode(b"FXCL\x07").is_err());
        // A version-1 log is refused.
        assert!(EventLog::decode(b"FXCL\x01\x00\x07").is_err());
        let mut ok = EventLog::from_trace(&sample_trace()).encode();
        assert!(EventLog::decode(&ok[..ok.len() - 1]).is_err());
        ok.push(0); // trailing byte
        assert!(matches!(EventLog::decode(&ok), Err(TraceError::Decode(_))));
    }

    #[test]
    fn huge_declared_sizes_are_decode_errors() {
        // An empty log whose `compute` header declares `rows` rows in
        // chunks of `chunk`: the counts follow the stream's name and its
        // seven column names and tags.
        let with_counts = |rows: u64, chunk: u64| {
            let mut out = EventLog::from_trace(&Trace::default()).encode();
            let at = 8 + 7 + 1 + COMPUTE.iter().map(|(c, _)| c.len() + 2).sum::<usize>();
            assert_eq!(
                &out[at - 7..at + 3],
                b"cycles\x02\x00\x80\x04",
                "0 rows, chunks of 512"
            );
            let mut counts = Vec::new();
            put_varint(&mut counts, rows);
            put_varint(&mut counts, chunk);
            out.splice(at..at + 3, counts);
            EventLog::decode(&out)
        };
        assert!(with_counts(0, 512).is_ok());
        for (rows, chunk) in [(1 << 40, 512), (0, 1 << 40), (0, 0)] {
            let got = with_counts(rows, chunk);
            assert!(
                matches!(got, Err(TraceError::Decode(_))),
                "rows {rows}, chunk {chunk}"
            );
        }
        // A dictionary longer than the input.
        let mut bytes = b"FXCL\x02".to_vec();
        put_varint(&mut bytes, 1 << 40);
        assert!(matches!(
            EventLog::decode(&bytes),
            Err(TraceError::Decode(_))
        ));
    }

    #[test]
    fn foreign_schema_is_a_schema_error() {
        let ok = EventLog::from_trace(&Trace::default()).encode();
        let swaps: [(&[u8], &[u8]); 3] = [
            (b"compute", b"kompute"),
            (b"t_end", b"t_fin"),
            (b"comm_id\x01", b"comm_id\x02"),
        ];
        for (from, to) in swaps {
            let at = ok
                .windows(from.len())
                .position(|w| w == from)
                .expect("present");
            let mut bad = ok.clone();
            bad[at..at + to.len()].copy_from_slice(to);
            assert!(matches!(EventLog::decode(&bad), Err(TraceError::Schema(_))));
        }
        let mut extra = ok;
        extra[6] = 5; // the stream count, after the empty dictionary
        assert!(matches!(
            EventLog::decode(&extra),
            Err(TraceError::Schema(_))
        ));
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
