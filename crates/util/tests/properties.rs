//! Property-based tests for encodings, RNG, and statistics, on the
//! workspace's seeded runner (`diffaudit_util::prop`).

use diffaudit_util::par::{par_map_ctx, par_map_ctx_cancel};
use diffaudit_util::prop::{self, check};
use diffaudit_util::{base64, hex, rng::Rng, stats, Ctl, Interrupt};
use std::sync::atomic::{AtomicUsize, Ordering};

const CASES: u32 = 512;

#[test]
fn base64_round_trips() {
    check("base64_round_trips", CASES, |rng| {
        let data = prop::bytes(rng, 0..=255);
        let encoded = base64::encode(&data);
        assert_eq!(base64::decode(&encoded).unwrap(), data);
    });
}

#[test]
fn base64_never_panics_on_garbage() {
    check("base64_never_panics_on_garbage", CASES, |rng| {
        let _ = base64::decode(&prop::text(rng, 0..=128));
    });
}

#[test]
fn hex_round_trips() {
    check("hex_round_trips", CASES, |rng| {
        let data = prop::bytes(rng, 0..=255);
        let encoded = hex::encode(&data);
        assert_eq!(hex::decode(&encoded).unwrap(), data);
    });
}

#[test]
fn hex_never_panics_on_garbage() {
    check("hex_never_panics_on_garbage", CASES, |rng| {
        let _ = hex::decode(&prop::text(rng, 0..=128));
    });
}

#[test]
fn rng_range_stays_in_bounds() {
    check("rng_range_stays_in_bounds", CASES, |rng| {
        let lo = rng.range(0, 1000);
        let span = rng.range(1, 1000);
        let mut subject = Rng::new(rng.next_u64());
        for _ in 0..50 {
            let v = subject.range(lo, lo + span);
            assert!((lo..lo + span).contains(&v));
        }
    });
}

#[test]
fn rng_f64_unit_interval() {
    check("rng_f64_unit_interval", CASES, |rng| {
        let mut subject = Rng::new(rng.next_u64());
        for _ in 0..100 {
            let v = subject.f64();
            assert!((0.0..1.0).contains(&v));
        }
    });
}

#[test]
fn shuffle_preserves_multiset() {
    check("shuffle_preserves_multiset", CASES, |rng| {
        let len = rng.range(0, 256);
        let mut items: Vec<u32> = (0..len).map(|_| rng.next_u32()).collect();
        let mut original = items.clone();
        Rng::new(rng.next_u64()).shuffle(&mut items);
        original.sort_unstable();
        items.sort_unstable();
        assert_eq!(items, original);
    });
}

#[test]
fn sample_indices_distinct_in_range() {
    check("sample_indices_distinct_in_range", CASES, |rng| {
        let n = rng.range(0, 200);
        let k = rng.range(0, 300);
        let sample = Rng::new(rng.next_u64()).sample_indices(n, k);
        assert_eq!(sample.len(), k.min(n));
        let mut sorted = sample.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), sample.len());
        assert!(sample.iter().all(|&i| i < n));
    });
}

#[test]
fn percentile_bounded_by_extremes() {
    check("percentile_bounded_by_extremes", CASES, |rng| {
        let len = rng.range(1, 100);
        let xs: Vec<f64> = (0..len).map(|_| rng.f64() * 2e6 - 1e6).collect();
        let p = rng.f64() * 100.0;
        let value = stats::percentile(&xs, p).unwrap();
        let min = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        assert!(
            value >= min - 1e-9 && value <= max + 1e-9,
            "{value} outside {min}..={max}"
        );
    });
}

#[test]
fn fork_is_deterministic() {
    check("fork_is_deterministic", CASES, |rng| {
        let root = Rng::new(rng.next_u64());
        let label = prop::text(rng, 0..=40);
        let mut a = root.fork(&label);
        let mut b = root.fork(&label);
        assert_eq!(a.next_u64(), b.next_u64());
    });
}

/// Fork-join cases: few, because each joins up to eight scoped threads
/// three times before the next case starts.
const PAR_CASES: u32 = 64;

#[test]
fn fork_join_maps_like_serial_and_cancels_all_or_nothing() {
    check(
        "fork_join_maps_like_serial_and_cancels_all_or_nothing",
        PAR_CASES,
        |rng| {
            let len = rng.range(0, 301);
            let threads = rng.range(1, 9);
            let items: Vec<u64> = (0..len).map(|_| rng.next_u64()).collect();
            let mix = |index: usize, item: u64| item.rotate_left(7) ^ index as u64;
            let expected: Vec<u64> = items.iter().enumerate().map(|(i, &v)| mix(i, v)).collect();

            // Plain run: serial `map` order, one context per started worker.
            let (made, finished) = (AtomicUsize::new(0), AtomicUsize::new(0));
            let out = par_map_ctx(
                threads,
                &items,
                || made.fetch_add(1, Ordering::Relaxed),
                |_, index, &item| mix(index, item),
                |_| {
                    finished.fetch_add(1, Ordering::Relaxed);
                },
            );
            assert_eq!(out, expected, "len={len} threads={threads}");
            let made = made.load(Ordering::Relaxed);
            assert_eq!(made, finished.load(Ordering::Relaxed));
            assert!(made <= threads, "{made} contexts for {threads} threads");

            // An untripped control changes nothing.
            let out = par_map_ctx_cancel(
                threads,
                items.clone(),
                &Ctl::unbounded(),
                || (),
                |(), index, item| mix(index, item),
                |()| {},
            );
            assert_eq!(out.as_ref(), Ok(&expected));

            // Tripped inside `f`: the whole vector or the interrupt, never a
            // prefix; inline, only a trip on the last item lets the run finish.
            let ctl = Ctl::unbounded();
            let trip_at = rng.range(0, len.max(1));
            let out = par_map_ctx_cancel(
                threads,
                &items,
                &ctl,
                || (),
                |(), index, &item| {
                    if index == trip_at {
                        ctl.token().cancel();
                    }
                    mix(index, item)
                },
                |()| {},
            );
            match &out {
                Ok(all) => assert_eq!(all, &expected),
                Err(interrupt) => assert_eq!(*interrupt, Interrupt::Cancelled),
            }
            if threads == 1 && trip_at + 1 < len {
                assert_eq!(out, Err(Interrupt::Cancelled));
            }
        },
    );
}
