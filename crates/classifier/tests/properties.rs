//! Property-based tests for classification invariants: totality, bounded
//! confidences, ensemble consistency, and response-format round trips, on
//! the workspace's seeded runner (`diffaudit_util::prop`).

use diffaudit_classifier::llm::{parse_response, LlmClassifier, LlmOptions};
use diffaudit_classifier::text::{normalize, tokenize};
use diffaudit_classifier::{Classifier, ConfidenceAggregation, MajorityEnsemble};
use diffaudit_util::prop::{self, check};
use diffaudit_util::Rng;

const CASES: u32 = 256;

/// `[a-zA-Z0-9_.-]`, the alphabet of raw payload keys.
const KEY_CHARS: &str = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_.-";

fn key(rng: &mut Rng, len: std::ops::RangeInclusive<usize>) -> String {
    prop::string_over(rng, KEY_CHARS, len)
}

/// Every token is non-empty, alphanumeric, and already in lowercase form
/// (some scripts have uppercase-only characters that map to themselves).
fn assert_clean_tokens(input: &str) {
    for token in tokenize(input) {
        assert!(!token.is_empty());
        assert!(
            token
                .chars()
                .all(|c| c.is_alphanumeric() && c.to_lowercase().next() == Some(c)),
            "dirty token {token:?} from {input:?}"
        );
    }
}

#[test]
fn tokenizer_never_panics_and_tokens_are_clean() {
    // Once saved as a failing case: '𝒞' is uppercase with no lowercase.
    assert_clean_tokens("𝒞");
    check(
        "tokenizer_never_panics_and_tokens_are_clean",
        4 * CASES,
        |rng| {
            assert_clean_tokens(&prop::text(rng, 0..=80));
        },
    );
}

#[test]
fn normalize_never_panics() {
    check("normalize_never_panics", 4 * CASES, |rng| {
        let _ = normalize(&prop::text(rng, 0..=80));
    });
}

#[test]
fn llm_confidence_bounded_and_deterministic() {
    check("llm_confidence_bounded_and_deterministic", CASES, |rng| {
        let input = key(rng, 1..=30);
        let temperature = *rng.choose(&[0.0, 0.25, 0.5, 0.75, 1.0]);
        let seed = rng.next_u64();
        let model = LlmClassifier::new(LlmOptions { temperature, seed });
        let a = model.classify_batch(&[&input]);
        let b = model.classify_batch(&[&input]);
        assert_eq!(&a, &b, "nondeterministic at fixed seed");
        assert!((0.0..=1.0).contains(&a[0].confidence));
        // At or below temperature 1 the model always emits a valid label.
        assert!(a[0].category.is_some());
    });
}

#[test]
fn ensemble_label_is_a_member_label() {
    check("ensemble_label_is_a_member_label", CASES, |rng| {
        let input = key(rng, 1..=30);
        let seed = rng.next_u64();
        let member_labels: Vec<_> = [0.0, 0.25, 0.5, 0.75, 1.0]
            .iter()
            .filter_map(|&temperature| {
                LlmClassifier::new(LlmOptions { temperature, seed })
                    .classify_batch(&[&input])
                    .remove(0)
                    .category
            })
            .collect();
        let mut ensemble = MajorityEnsemble::new(seed, ConfidenceAggregation::Average);
        if let Some((label, _)) = ensemble.classify(&input) {
            assert!(
                member_labels.contains(&label),
                "ensemble label {label:?} not among member labels {member_labels:?}"
            );
        }
    });
}

#[test]
fn max_aggregation_never_below_average() {
    check("max_aggregation_never_below_average", CASES, |rng| {
        let input = key(rng, 1..=30);
        let seed = rng.next_u64();
        let max_r = MajorityEnsemble::new(seed, ConfidenceAggregation::Max)
            .classify_batch(&[&input])
            .remove(0);
        let avg_r = MajorityEnsemble::new(seed, ConfidenceAggregation::Average)
            .classify_batch(&[&input])
            .remove(0);
        if max_r.category == avg_r.category {
            assert!(max_r.confidence >= avg_r.confidence - 1e-9);
        }
    });
}

#[test]
fn response_format_round_trips() {
    check("response_format_round_trips", CASES, |rng| {
        // Deduplicate: the response format keys on input text.
        let mut unique: Vec<String> = (0..rng.range(1, 8)).map(|_| key(rng, 1..=20)).collect();
        unique.sort();
        unique.dedup();
        let refs: Vec<&str> = unique.iter().map(String::as_str).collect();
        let model = LlmClassifier::new(LlmOptions {
            temperature: 0.0,
            seed: 1,
        });
        let direct = model.classify_batch(&refs);
        // classify_batch itself routes through the textual format; parsing
        // the re-rendered response again must agree.
        let response: String = direct
            .iter()
            .map(|c| {
                format!(
                    "{} // {} // {:.2} // {}\n",
                    c.input,
                    c.category.map(|x| x.label()).unwrap_or("???"),
                    c.confidence,
                    c.explanation
                )
            })
            .collect();
        let reparsed = parse_response(&response, &refs);
        for (a, b) in direct.iter().zip(&reparsed) {
            assert_eq!(a.category, b.category);
        }
    });
}

#[test]
fn parse_response_never_panics() {
    check("parse_response_never_panics", CASES, |rng| {
        let response = prop::text(rng, 0..=200);
        let inputs: Vec<String> = (0..rng.range(0, 4))
            .map(|_| prop::string_over(rng, "abcdefghijklmnopqrstuvwxyz", 1..=8))
            .collect();
        let refs: Vec<&str> = inputs.iter().map(String::as_str).collect();
        assert_eq!(parse_response(&response, &refs).len(), refs.len());
    });
}
