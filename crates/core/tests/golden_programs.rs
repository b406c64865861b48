//! Golden model-program suite: pins every field of the KNL-model programs
//! `build_programs` lowers each scheduler policy to — task labels,
//! priorities, dependency lists, worker counts and every segment's
//! class, flop volume (by its f64 bit pattern), noise key, communicator
//! key, size, bytes and tag.
//!
//! The modeled experiments (Figs. 2/3/6/7, Tables I/II, the serving
//! tuner's prices) are pure functions of these programs, so a lowering
//! refactor that keeps this file unchanged keeps every modeled artifact
//! unchanged too.
//!
//! Re-blessing (only legitimate when the *modeled pipeline* changes,
//! never for a refactor of how the programs are built):
//! `FFTX_GOLDEN_BLESS=1 cargo test -p fftx-core --test golden_programs`

use fftx_core::{build_programs, Decomposition, FftxConfig, Problem, SchedulerPolicy};
use fftx_knlsim::{RankTasks, Segment};
use std::fmt::Write as _;

const GOLDEN_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/programs.txt");

/// The `FftxConfig::small` layouts (R, T) every policy and decomposition
/// is lowered at: trivial, prime and composite rank counts, pencil grids
/// that factor (4, 6, 2×2 ...) and ones that degenerate (2, 3, 7).
const LAYOUTS: [(usize, usize); 9] = [
    (1, 1),
    (2, 1),
    (2, 2),
    (3, 2),
    (2, 3),
    (4, 1),
    (6, 1),
    (7, 1),
    (4, 2),
];

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

/// Hashes one segment: a variant tag, then every field in declaration
/// order (flops by bit pattern).
fn eat_segment(h: &mut Fnv, s: &Segment) {
    match s {
        Segment::Compute {
            class,
            flops,
            noise_key,
        } => {
            h.eat(0);
            h.eat(u64::from(class.code()));
            h.eat(flops.to_bits());
            h.eat(*noise_key);
        }
        Segment::Collective {
            op,
            comm_key,
            size,
            bytes,
            tag,
        } => {
            h.eat(1);
            h.eat(u64::from(op.code()));
            h.eat(*comm_key);
            h.eat(*size as u64);
            h.eat(*bytes as u64);
            h.eat(*tag);
        }
        Segment::CollectivePost {
            op,
            comm_key,
            size,
            bytes,
            tag,
        } => {
            h.eat(2);
            h.eat(u64::from(op.code()));
            h.eat(*comm_key);
            h.eat(*size as u64);
            h.eat(*bytes as u64);
            h.eat(*tag);
        }
        Segment::CollectiveWait { comm_key, tag } => {
            h.eat(3);
            h.eat(*comm_key);
            h.eat(*tag);
        }
    }
}

/// Field-by-field hash of one configuration's programs (counts mixed in,
/// so shape changes cannot alias with value changes).
fn hash_programs(programs: &[RankTasks]) -> u64 {
    let mut h = Fnv::new();
    h.eat(programs.len() as u64);
    for rank in programs {
        h.eat(rank.workers as u64);
        h.eat(rank.tasks.len() as u64);
        for task in &rank.tasks {
            h.eat_str(&task.label);
            h.eat(task.priority);
            h.eat(task.deps.len() as u64);
            for &d in &task.deps {
                h.eat(d as u64);
            }
            h.eat(task.segments.len() as u64);
            for s in &task.segments {
                eat_segment(&mut h, s);
            }
        }
    }
    h.0
}

fn scenarios() -> Vec<(String, u64)> {
    let mut out = Vec::new();
    for policy in SchedulerPolicy::ALL {
        for decomp in Decomposition::ALL {
            for (nr, ntg) in LAYOUTS {
                let cfg = FftxConfig::small(nr, ntg, policy).with_decomp(decomp);
                out.push((
                    format!("small/{}/{}/{nr}x{ntg}", policy.name(), decomp.name()),
                    hash_programs(&build_programs(&Problem::new(cfg))),
                ));
            }
        }
    }
    for policy in SchedulerPolicy::ALL {
        let cfg = FftxConfig::paper(8, policy);
        out.push((
            format!("paper/{}/8x8", policy.name()),
            hash_programs(&build_programs(&Problem::new(cfg))),
        ));
    }
    out
}

fn render(entries: &[(String, u64)]) -> String {
    let mut s = String::from(
        "# Golden model-program hashes (FNV-1a over every field of build_programs),\n\
         # one configuration per line; see tests/golden_programs.rs.\n",
    );
    for (name, h) in entries {
        let _ = writeln!(s, "{name} {h:016x}");
    }
    s
}

#[test]
fn model_programs_match_golden_hashes() {
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
        "model programs drifted from the golden hashes:\n{}",
        mismatches.join("\n")
    );
}

#[test]
fn hash_sees_every_field() {
    // Flipping one field of one segment, or a task's label, priority or
    // dependency list, must move the hash.
    let problem = Problem::new(FftxConfig::small(2, 2, SchedulerPolicy::TaskAsync));
    let base = build_programs(&problem);
    let h0 = hash_programs(&base);
    let tweaks: [fn(&mut Vec<RankTasks>); 5] = [
        |p| p[0].workers += 1,
        |p| p[0].tasks[1].label.push('x'),
        |p| p[0].tasks[1].priority += 1,
        |p| p[0].tasks[1].deps.clear(),
        |p| {
            if let Segment::Compute { flops, .. } = &mut p[1].tasks[0].segments[1] {
                *flops = f64::from_bits(flops.to_bits() ^ 1);
            }
        },
    ];
    for (i, tweak) in tweaks.iter().enumerate() {
        let mut p = base.clone();
        tweak(&mut p);
        assert_ne!(hash_programs(&p), h0, "tweak {i} left the hash unchanged");
    }
}
