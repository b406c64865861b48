//! Round-trip properties of the columnar wire format of a [`Trace`]:
//!
//! * `decode(encode_chunked(log, c)) == log` for any record mix and any
//!   chunk size, including chunk sizes that straddle row counts (1, 2, 3,
//!   7, 511, the default 512, 513);
//! * the encoding is canonical: re-encoding a decoded log reproduces the
//!   bytes exactly;
//! * the label dictionary survives arbitrary growth (every task label
//!   distinct);
//!
//! and the totality of `decode`: random bytes, truncated encodings and
//! encodings with mutated bytes each decode to a log or a typed error,
//! never a panic, and a log decoded from any bytes encodes canonically.

use fftx_trace::columnar::EventLog;
use fftx_trace::{
    CommOp, CommRecord, ComputeRecord, Lane, StageRecord, StateClass, TaskRecord, Trace,
};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

/// A trace of fewer than `max` records, drawn from every stream.
fn trace_strategy(max: usize) -> impl Strategy<Value = Trace> {
    let record = (
        0u8..4,
        0usize..8,
        0usize..8,
        0u32..10_000,
        0u64..u64::MAX / 2,
        0.0f64..100.0,
        0.0f64..0.5,
    );
    proptest::collection::vec(record, 0..max).prop_map(|records| {
        let mut t = Trace::default();
        for (kind, rank, thread, big, huge, t_start, dur) in records {
            let lane = Lane::new(rank, thread);
            match kind {
                0 => t.compute.push(ComputeRecord {
                    lane,
                    class: StateClass::ALL[big as usize % 8],
                    t_start,
                    t_end: t_start + dur,
                    instructions: dur * 1.0e9,
                    cycles: dur * 1.4e9,
                }),
                1 => t.comm.push(CommRecord {
                    lane,
                    op: CommOp::ALL[big as usize % 7],
                    comm_id: huge,
                    comm_size: big as usize % 512,
                    bytes: big as usize,
                    t_start,
                    t_end: t_start + 1.5e-4,
                }),
                2 => t.tasks.push(task(lane, huge, big, t_start)),
                _ => t.stages.push(StageRecord {
                    lane,
                    stage: big % 64,
                    band: big % 128,
                    t_start,
                    t_end: t_start + 3e-5,
                }),
            }
        }
        t
    })
}

fn task(lane: Lane, task_id: u64, label: u32, t_created: f64) -> TaskRecord {
    TaskRecord {
        lane,
        task_id,
        label: format!("task-{label}"),
        t_created,
        t_start: t_created + 1e-6,
        t_end: t_created + 2e-6,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn encode_decode_round_trips_any_event_mix(
        trace in trace_strategy(200),
        chunk_sel in 0usize..7,
    ) {
        let log = EventLog::from_trace(&trace);
        let chunk = [1usize, 2, 3, 7, 511, 512, 513][chunk_sel];
        let bytes = log.encode_chunked(chunk);
        let decoded = EventLog::decode(&bytes).expect("decode");
        prop_assert_eq!(&decoded, &log);
        // Canonical: re-encoding with the same chunking is byte-identical.
        prop_assert_eq!(decoded.encode_chunked(chunk), bytes);
    }

    #[test]
    fn dictionary_growth_survives_round_trip(
        n in 1u32..400,
    ) {
        // Every label distinct: the dictionary grows one entry per task.
        let tasks = (0..n).map(|i| task(Lane::new(0, 0), i.into(), i, i.into())).collect();
        let log = EventLog::from_trace(&Trace { tasks, ..Trace::default() });
        let decoded = EventLog::decode(&log.encode_chunked(2)).expect("decode");
        prop_assert_eq!(&decoded, &log);
        prop_assert_eq!(decoded.trace().tasks.len(), n as usize);
    }

    #[test]
    fn random_bytes_never_panic(
        body in proptest::collection::vec(any::<u8>(), 0..512),
        framed in any::<bool>(),
    ) {
        // Framed inputs carry a valid magic and version, so the decoder
        // reads on into the header.
        let mut bytes = if framed { b"FXCL\x02".to_vec() } else { Vec::new() };
        bytes.extend_from_slice(&body);
        check_total(&bytes)?;
    }

    #[test]
    fn truncated_encodings_are_errors(
        trace in trace_strategy(60),
        chunk_sel in 0usize..3,
        cut in any::<usize>(),
    ) {
        let bytes = EventLog::from_trace(&trace).encode_chunked([1usize, 3, 512][chunk_sel]);
        let cut = cut % bytes.len();
        prop_assert!(EventLog::decode(&bytes[..cut]).is_err(), "prefix of {} bytes decoded", cut);
    }

    #[test]
    fn mutated_encodings_never_panic(
        trace in trace_strategy(60),
        chunk_sel in 0usize..3,
        edits in proptest::collection::vec((any::<usize>(), any::<u8>()), 1..4),
    ) {
        let mut bytes = EventLog::from_trace(&trace).encode_chunked([1usize, 3, 512][chunk_sel]);
        for (at, b) in edits {
            let i = at % bytes.len();
            bytes[i] = b;
        }
        check_total(&bytes)?;
    }
}

/// `decode` returns a value or a typed error (a panic fails the property
/// by itself), and a decoded log re-encodes to bytes that decode back to
/// the same bytes. Bytes, not logs, are compared: a mutation can make a
/// NaN, which no log equals.
fn check_total(bytes: &[u8]) -> Result<(), TestCaseError> {
    if let Ok(log) = EventLog::decode(bytes) {
        let canonical = log.encode();
        let again = EventLog::decode(&canonical).expect("a canonical encoding decodes");
        prop_assert_eq!(again.encode(), canonical);
    }
    Ok(())
}
