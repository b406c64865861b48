//! Golden trace-content suite: pins what one 14³ run records into its
//! trace sink under every scheduler policy, slab and pencil, at 2×1 and
//! 1×2 — the per-stream record counts, the sorted list of task labels and
//! the multiset of (rank, stage, band) stage keys.
//!
//! Times and lanes are left out: times depend on the host, and at 1×2
//! which worker runs a task is up to the scheduler. What stays is what
//! the trace must hold however the sink buffers and merges its records.
//!
//! Re-blessing (only legitimate when a policy records different spans,
//! never for a change to how the sink stores them):
//! `FFTX_GOLDEN_BLESS=1 cargo test -p fftx-core --test golden_trace`

use fftx_core::{run_policy, Decomposition, FftxConfig, Problem, SchedulerPolicy};
use fftx_trace::Trace;
use std::fmt::Write as _;

const GOLDEN_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/trace.txt");

/// The (R, T) layouts: two ranks of one worker, one rank of two workers.
const LAYOUTS: [(usize, usize); 2] = [(2, 1), (1, 2)];

/// Bands per run (two per rank or worker at both layouts).
const NBND: usize = 4;

/// FNV-1a over a stream of u64 words (little-endian bytes).
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn eat(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn eat_str(&mut self, s: &str) {
        self.eat(s.len() as u64);
        for byte in s.bytes() {
            self.eat(u64::from(byte));
        }
    }
}

/// One line of the golden file: stream counts, then hashes of the sorted
/// task labels and of the sorted (rank, stage, band) stage keys.
fn content(trace: &Trace) -> String {
    let mut labels: Vec<&str> = trace.tasks.iter().map(|t| t.label.as_str()).collect();
    labels.sort_unstable();
    let mut h_labels = Fnv::new();
    h_labels.eat(labels.len() as u64);
    for l in &labels {
        h_labels.eat_str(l);
    }
    let mut keys: Vec<(usize, u32, u32)> = trace
        .stages
        .iter()
        .map(|s| (s.lane.rank, s.stage, s.band))
        .collect();
    keys.sort_unstable();
    let mut h_keys = Fnv::new();
    h_keys.eat(keys.len() as u64);
    for (rank, stage, band) in keys {
        h_keys.eat(rank as u64);
        h_keys.eat(u64::from(stage));
        h_keys.eat(u64::from(band));
    }
    format!(
        "compute={} comm={} tasks={} stages={} labels={:016x} stage_keys={:016x}",
        trace.compute.len(),
        trace.comm.len(),
        trace.tasks.len(),
        trace.stages.len(),
        h_labels.0,
        h_keys.0
    )
}

fn scenarios() -> Vec<(String, String)> {
    let mut out = Vec::new();
    for policy in SchedulerPolicy::ALL {
        for decomp in Decomposition::ALL {
            for (nr, ntg) in LAYOUTS {
                let cfg = FftxConfig {
                    nbnd: NBND,
                    ..FftxConfig::small(nr, ntg, policy).with_decomp(decomp)
                };
                let problem = Problem::new(cfg);
                let g = problem.grid();
                assert_eq!((g.nr1, g.nr2, g.nr3), (14, 14, 14), "the 14³ problem");
                let run = run_policy(&problem, policy);
                out.push((
                    format!("{}/{}/{nr}x{ntg}", policy.name(), decomp.name()),
                    content(&run.trace),
                ));
            }
        }
    }
    out
}

fn render(entries: &[(String, String)]) -> String {
    let mut s = String::from(
        "# Golden trace content of one 14³ run per configuration (record counts,\n\
         # FNV-1a of the sorted task labels and of the sorted stage keys);\n\
         # see tests/golden_trace.rs.\n",
    );
    for (name, line) in entries {
        let _ = writeln!(s, "{name} {line}");
    }
    s
}

#[test]
fn trace_content_matches_golden() {
    let entries = scenarios();
    if std::env::var_os("FFTX_GOLDEN_BLESS").is_some() {
        std::fs::write(GOLDEN_PATH, render(&entries)).expect("write golden file");
        eprintln!(
            "blessed {} configurations into {GOLDEN_PATH}",
            entries.len()
        );
        return;
    }
    let golden = std::fs::read_to_string(GOLDEN_PATH)
        .expect("golden file missing — run once with FFTX_GOLDEN_BLESS=1");
    let actual = render(&entries);
    let mismatches: Vec<String> = golden
        .lines()
        .filter(|l| !l.starts_with('#'))
        .zip(actual.lines().filter(|l| !l.starts_with('#')))
        .filter(|(g, a)| g != a)
        .map(|(g, a)| format!("  golden: {g}\n  actual: {a}"))
        .collect();
    assert!(
        mismatches.is_empty() && golden == actual,
        "trace content drifted from the golden file:\n{}",
        mismatches.join("\n")
    );
}
