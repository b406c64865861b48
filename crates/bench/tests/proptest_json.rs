//! Totality of the `BENCH_*.json` reader: random text, every truncation
//! and single-character mutations of a rendered harness document each
//! parse to a value or an `Err`, never a panic, and an accepted input
//! parses the same way twice.

use fftx_bench::json::parse;
use fftx_bench::{GateOp, Harness};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use std::sync::OnceLock;

/// A harness document with every metric kind, a gate and strings that
/// need escapes.
fn document() -> &'static str {
    static DOC: OnceLock<String> = OnceLock::new();
    DOC.get_or_init(|| {
        let mut h = Harness::new("totality");
        h.metric_u64("n", 3)
            .metric_f64("eff", 0.25, 4)
            .metric_f64("nan", f64::NAN, 4)
            .metric_bool("ok", true)
            .metric_str("label", "8 x 8 \"quoted\" \\ é");
        h.gate("eff high enough", "eff", GateOp::Ge, 0.2);
        h.render_json()
    })
}

/// What random text is built from: every JSON structural char, the
/// literals' letters, number chars, escapes and non-ASCII chars.
const ALPHABET: &[char] = &[
    '{', '}', '[', ']', ':', ',', '"', '\\', 'u', 't', 'r', 'e', 'f', 'a', 'l', 's', 'n', '0', '1',
    '9', '-', '+', '.', 'E', ' ', '\n', 'é', '€',
];

/// `parse` returns a value or an error (a panic fails the property by
/// itself), and the same answer twice.
fn check_total(text: &str) -> Result<(), TestCaseError> {
    prop_assert_eq!(format!("{:?}", parse(text)), format!("{:?}", parse(text)));
    Ok(())
}

/// The nearest char boundary of `s` at or before `i`.
fn floor_boundary(s: &str, mut i: usize) -> usize {
    while !s.is_char_boundary(i) {
        i -= 1;
    }
    i
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn random_text_never_panics(
        chars in proptest::collection::vec(0usize..ALPHABET.len(), 0..48),
    ) {
        check_total(&chars.iter().map(|&c| ALPHABET[c]).collect::<String>())?;
    }

    #[test]
    fn truncated_documents_never_panic(cut in any::<usize>()) {
        let doc = document();
        check_total(&doc[..floor_boundary(doc, cut % (doc.len() + 1))])?;
    }

    #[test]
    fn mutated_documents_never_panic(
        at in any::<usize>(),
        op in 0usize..3,
        c in 0usize..ALPHABET.len(),
    ) {
        let mut doc = document().to_string();
        let i = floor_boundary(&doc, at % doc.len());
        match op {
            0 => {
                let end = i + doc[i..].chars().next().map_or(0, char::len_utf8);
                doc.replace_range(i..end, ALPHABET[c].encode_utf8(&mut [0; 4]));
            }
            1 => doc.insert(i, ALPHABET[c]),
            _ => {
                doc.remove(i);
            }
        }
        check_total(&doc)?;
    }
}
