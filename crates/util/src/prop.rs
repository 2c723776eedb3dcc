//! Seeded, shrink-free property runner.
//!
//! [`check`] runs a property on a fixed number of cases. Each case gets its
//! own [`Rng`], seeded from a root generator that is itself seeded from the
//! property's name, so every run of a property replays the same cases on
//! every platform. A failing case panics with the property's name, the case
//! index and the case seed; `property(&mut Rng::new(seed))` replays it.
//!
//! The free functions below draw the inputs that several suites share.

use crate::hash::fnv1a64;
use crate::rng::Rng;
use std::ops::RangeInclusive;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Run `property` on `cases` seeded cases; panic on the first that fails.
#[allow(clippy::panic)] // failing is this test runner's job
pub fn check(name: &str, cases: u32, mut property: impl FnMut(&mut Rng)) {
    for (case, seed) in case_seeds(name).take(cases as usize).enumerate() {
        let outcome = catch_unwind(AssertUnwindSafe(|| property(&mut Rng::new(seed))));
        if let Err(payload) = outcome {
            let message = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or("non-string panic payload");
            panic!("property `{name}` failed at case {case} (seed {seed:#018x}): {message}");
        }
    }
}

/// The seed of every case of the property `name`, in case order.
fn case_seeds(name: &str) -> impl Iterator<Item = u64> {
    let mut root = Rng::new(fnv1a64(name.as_bytes()));
    std::iter::repeat_with(move || root.next_u64())
}

/// A uniform length in `len`.
fn length(rng: &mut Rng, len: RangeInclusive<usize>) -> usize {
    rng.range(*len.start(), len.end() + 1)
}

/// Uniform random bytes, `len` of them.
pub fn bytes(rng: &mut Rng, len: RangeInclusive<usize>) -> Vec<u8> {
    let mut out = vec![0; length(rng, len)];
    rng.fill_bytes(&mut out);
    out
}

/// Any char: printable ASCII, C0 controls, Latin-1 and Latin Extended, the
/// rest of the BMP, the supplementary planes, and any scalar value at all,
/// so that case-mapping and multi-byte code paths see a real share of
/// non-ASCII input.
fn any_char(rng: &mut Rng) -> char {
    let (lo, hi) = match rng.range(0, 10) {
        0..=3 => (0x20, 0x7F),
        4 => (0x00, 0x20),
        5 => (0x80, 0x250),
        6 | 7 => (0x250, 0x1_0000),
        8 => (0x1_0000, 0x3_0000),
        _ => (0x00, 0x11_0000),
    };
    loop {
        // Surrogates are no chars; draw again.
        if let Some(c) = char::from_u32(rng.range(lo, hi) as u32) {
            return c;
        }
    }
}

/// A string of `len` arbitrary chars: a superset of the regex class `\PC`
/// with a real share of Latin Extended and supplementary-plane chars.
pub fn text(rng: &mut Rng, len: RangeInclusive<usize>) -> String {
    (0..length(rng, len)).map(|_| any_char(rng)).collect()
}

/// A string of `len` chars drawn uniformly from `alphabet`'s chars.
pub fn string_over(rng: &mut Rng, alphabet: &str, len: RangeInclusive<usize>) -> String {
    let chars: Vec<char> = alphabet.chars().collect();
    (0..length(rng, len)).map(|_| *rng.choose(&chars)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The first draw of every case of `name`.
    fn first_draws(name: &str) -> Vec<u64> {
        let mut seen = Vec::new();
        check(name, 300, |rng| seen.push(rng.next_u64()));
        seen
    }

    #[test]
    fn two_runs_of_a_property_see_identical_cases() {
        let a = first_draws("replay");
        assert_eq!(a.len(), 300);
        assert_eq!(a, first_draws("replay"));
        assert_ne!(a, first_draws("another property"));
        let mut distinct = a.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(distinct.len(), a.len(), "cases repeat");
    }

    #[test]
    fn a_failure_names_the_property_case_and_seed() {
        let mut case = 0;
        let payload = catch_unwind(AssertUnwindSafe(|| {
            check("fails_at_case_3", 10, |_| {
                case += 1;
                assert!(case <= 3, "boom");
            })
        }))
        .expect_err("the property fails");
        let message = payload.downcast_ref::<String>().expect("formatted message");
        let seed = case_seeds("fails_at_case_3").nth(3).expect("seed");
        assert_eq!(
            message,
            &format!("property `fails_at_case_3` failed at case 3 (seed {seed:#018x}): boom")
        );
        assert_eq!(case, 4, "the runner stops at the first failure");
    }

    #[test]
    fn helpers_respect_their_lengths_and_alphabets() {
        check("helpers", 256, |rng| {
            assert!(bytes(rng, 3..=5).len() <= 5);
            assert!(bytes(rng, 3..=5).len() >= 3);
            let t = text(rng, 0..=7);
            assert!(t.chars().count() <= 7);
            let s = string_over(rng, "ab-", 1..=4);
            assert!((1..=4).contains(&s.len()));
            assert!(s.chars().all(|c| "ab-".contains(c)));
        });
    }

    #[test]
    fn any_char_reaches_beyond_ascii() {
        let mut rng = Rng::new(1);
        let chars: Vec<char> = (0..1000).map(|_| any_char(&mut rng)).collect();
        assert!(chars.iter().any(|c| (0x80..0x250).contains(&(*c as u32))));
        assert!(chars.iter().any(|c| *c as u32 >= 0x1_0000));
        assert!(chars.iter().any(|c| c.is_ascii_graphic()));
    }
}
