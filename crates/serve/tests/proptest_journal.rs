//! Journal-replay properties of the durable fleet (modeled service, so
//! the space of fleets × fault seeds × crash points stays cheap to sweep):
//!
//! * resuming from a journal prefix cut at *any* record boundary
//!   reproduces the uninterrupted run's journal byte for byte,
//! * the conservation audit accounts every accepted job exactly once,
//!   whatever the fault profile did to the shards,
//! * a resume from the complete journal re-emits nothing (replay is
//!   idempotent),
//! * all of the above still hold with silent-corruption injection
//!   composed on top of transport chaos and shard death — and every
//!   corrupt batch the fleet delivers from is journaled as detected;
//! * the decoders are total: random lines, truncations and single-character
//!   mutations of a seeded fleet's encoded journal each decode to a value
//!   or a `ServeError::Journal`, never a panic, and every accepted line is
//!   byte for byte its record's encoding.

use fftx_core::SchedulerPolicy;
use fftx_serve::{
    generate, resume_fleet, run_fleet, FleetConfig, FleetFaults, Journal, LoadProfile,
    PlacementMode, Record, ServeChaos, ServeConfig, ServeError, TrafficConfig,
};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use std::collections::BTreeSet;
use std::sync::OnceLock;

fn cfg(shards: usize, fault_seed: u64) -> FleetConfig {
    FleetConfig {
        shards,
        serve: ServeConfig::default(),
        faults: FleetFaults {
            seed: fault_seed,
            p_death: 0.6,
            p_slow: 0.5,
            slow_max: 8.0,
            ..Default::default()
        },
        ..Default::default()
    }
}

fn trace(seed: u64) -> Vec<fftx_serve::Request> {
    generate(&TrafficConfig {
        seed,
        rate_hz: 60.0,
        duration_s: 1.0,
        tenants: 3,
        profile: LoadProfile::Burst,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn resume_from_a_random_crash_point_is_bit_identical(
        seed in 1u64..100_000,
        fault_seed in 0u64..1_000,
        shards in 2usize..5,
        cut_frac in 0.0f64..1.0,
    ) {
        let reqs = trace(seed);
        let cfg = cfg(shards, fault_seed);
        let full = run_fleet(&reqs, &cfg).expect("uninterrupted fleet");
        let cut = ((full.journal.len() as f64) * cut_frac) as usize;
        let resumed =
            resume_fleet(&full.journal.prefix(cut), &reqs, &cfg).expect("resume");
        prop_assert_eq!(
            resumed.journal.encode(),
            full.journal.encode(),
            "cut {} of {} (shards {}, fault seed {})",
            cut, full.journal.len(), shards, fault_seed
        );
    }

    #[test]
    fn every_accepted_job_is_accounted_exactly_once(
        seed in 1u64..100_000,
        fault_seed in 0u64..1_000,
        shards in 2usize..5,
    ) {
        let reqs = trace(seed);
        let r = run_fleet(&reqs, &cfg(shards, fault_seed)).expect("fleet");
        // The machine audit: accepted = completed (exactly once), none open.
        prop_assert!(r.conservation.open.is_empty());
        prop_assert_eq!(r.conservation.accepted, r.conservation.completed);
        prop_assert_eq!(r.offered(), reqs.len());
        // No job is served twice and none invented: completed ids are
        // unique and a subset of the offered trace.
        let offered: BTreeSet<u64> = reqs.iter().map(|q| q.id).collect();
        let mut seen = BTreeSet::new();
        for j in &r.jobs {
            prop_assert!(seen.insert(j.request.id), "job {} served twice", j.request.id);
            prop_assert!(offered.contains(&j.request.id));
        }
        prop_assert_eq!(seen.len() + r.shed.len(), reqs.len());
    }

    #[test]
    fn corruption_composed_with_chaos_and_death_stays_lossless_and_replayable(
        seed in 1u64..100_000,
        fault_seed in 0u64..1_000,
        corrupt_idx in 0usize..2,
        cut_frac in 0.0f64..1.0,
    ) {
        let corrupt_per_mille = [250u32, 1000][corrupt_idx];
        // Real execution under the full fault stack: seeded bit-flip
        // corruption (ABFT-verified), light transport chaos, shard death
        // and slowdown — all at once.
        let reqs = generate(&TrafficConfig {
            seed,
            rate_hz: 25.0,
            duration_s: 1.0,
            tenants: 2,
            profile: LoadProfile::Steady,
        });
        let cfg = FleetConfig {
            shards: 3,
            serve: ServeConfig {
                mode: PlacementMode::Static(SchedulerPolicy::Serial),
                chaos: Some(ServeChaos {
                    seed: fault_seed ^ 0xC0DE,
                    evict_batch: None,
                    corrupt_per_mille,
                }),
                ..Default::default()
            },
            faults: FleetFaults {
                seed: fault_seed,
                p_death: 0.4,
                p_slow: 0.3,
                slow_max: 4.0,
                ..Default::default()
            },
            ..Default::default()
        };
        let full = run_fleet(&reqs, &cfg).expect("fleet under composed faults");
        // Determinism: the same seeds reproduce the journal byte for byte.
        let again = run_fleet(&reqs, &cfg).expect("rerun");
        prop_assert_eq!(again.journal.encode(), full.journal.encode());
        // Zero loss: every accepted job completes exactly once.
        prop_assert!(full.conservation.open.is_empty());
        prop_assert_eq!(full.conservation.accepted, full.conservation.completed);
        // The conservation audit's corruption ledger matches the counters:
        // nothing detected goes unjournaled.
        prop_assert_eq!(
            full.conservation.corruption_detected,
            full.counters.get("fleet.corruption.detected")
        );
        // Bit-identical resume from a random crash point.
        let cut = ((full.journal.len() as f64) * cut_frac) as usize;
        let resumed =
            resume_fleet(&full.journal.prefix(cut), &reqs, &cfg).expect("resume");
        prop_assert_eq!(resumed.journal.encode(), full.journal.encode());
        prop_assert_eq!(resumed.jobs, full.jobs);
    }

    #[test]
    fn replay_of_a_complete_journal_is_idempotent(
        seed in 1u64..100_000,
        shards in 2usize..5,
    ) {
        let reqs = trace(seed);
        let cfg = cfg(shards, 3);
        let full = run_fleet(&reqs, &cfg).expect("fleet");
        let resumed = resume_fleet(&full.journal, &reqs, &cfg).expect("resume");
        prop_assert_eq!(resumed.journal.encode(), full.journal.encode());
        prop_assert_eq!(resumed.jobs, full.jobs);
    }
}

/// The encoded journal of one seeded fleet with shard deaths, slowdowns
/// and failover, built once for the decoder properties.
fn seeded_journal() -> &'static str {
    static TEXT: OnceLock<String> = OnceLock::new();
    TEXT.get_or_init(|| {
        run_fleet(&trace(11), &cfg(3, 7))
            .expect("fleet")
            .journal
            .encode()
    })
}

/// What random lines are built from: every record tag, digits, hex
/// letters, the optional-field dash, separators and a non-ASCII char.
const ALPHABET: &[char] = &[
    'A', 'S', 'B', 'T', 'C', 'Z', 'X', 'R', 'H', 'D', 'F', 'G', 'U', 'V', 'W', '0', '1', '2', '7',
    '9', 'a', 'f', 'z', '-', '+', ' ', ' ', '\n', '\t', 'é',
];

/// Whole fields that reach the decoder's range checks: huge counts, the
/// first u32 and u64 overflows, a 16-digit hex pattern, a NaN pattern.
const TOKENS: &[&str] = &[
    "0",
    "3",
    "18446744073709551615",
    "18446744073709551616",
    "4294967296",
    "1099511627776",
    "3ff0000000000000",
    "7ff8000000000001",
    "-",
    "queue_full",
];

/// Each decoder returns a value or a `ServeError::Journal` (a panic fails
/// the property by itself), and accepts only what `encode` writes: an
/// accepted line equals its record's encoding byte for byte, and an
/// accepted journal equals its encoding once empty lines are dropped.
/// Encodings are compared, not records, because a mutation can make a NaN
/// field, which no record equals.
fn check_total(text: &str) -> Result<(), TestCaseError> {
    for (i, line) in text.split('\n').enumerate() {
        match Record::decode(line, i + 1) {
            Ok(rec) => prop_assert_eq!(rec.encode(), line),
            Err(ServeError::Journal(_)) => {}
            Err(e) => prop_assert!(false, "line {:?}: not a journal error: {}", line, e),
        }
    }
    match Journal::decode(text) {
        Ok(journal) => {
            let lines: String = text
                .split('\n')
                .filter(|l| !l.is_empty())
                .map(|l| format!("{l}\n"))
                .collect();
            prop_assert_eq!(journal.encode(), lines);
        }
        Err(ServeError::Journal(_)) => {}
        Err(e) => prop_assert!(false, "not a journal error: {}", e),
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn random_text_never_panics(
        chars in proptest::collection::vec(0usize..ALPHABET.len(), 0..64),
    ) {
        check_total(&chars.iter().map(|&c| ALPHABET[c]).collect::<String>())?;
    }

    #[test]
    fn journals_with_an_extreme_token_never_panic(
        at in 1usize..12,
        token in 0usize..TOKENS.len(),
    ) {
        // Field `at` of every record of the journal becomes `token`: a
        // batch's member count, a shard, a float pattern, and so on.
        for line in seeded_journal().lines() {
            let mut toks: Vec<&str> = line.split(' ').collect();
            if at < toks.len() {
                toks[at] = TOKENS[token];
                check_total(&toks.join(" "))?;
            }
        }
    }

    #[test]
    fn truncated_journals_never_panic(cut in any::<usize>()) {
        let text = seeded_journal();
        check_total(&text[..cut % (text.len() + 1)])?;
    }

    #[test]
    fn mutated_journals_never_panic(
        at in any::<usize>(),
        op in 0usize..3,
        c in 0usize..ALPHABET.len(),
    ) {
        // The journal is ASCII, so every index is a char boundary.
        let mut text = seeded_journal().to_string();
        let i = at % text.len();
        match op {
            0 => text.replace_range(i..=i, ALPHABET[c].encode_utf8(&mut [0; 4])),
            1 => text.insert(i, ALPHABET[c]),
            _ => {
                text.remove(i);
            }
        }
        check_total(&text)?;
    }
}
