//! Scoped-thread fork-join execution and hash-consed key interning.
//!
//! The audit pipeline is embarrassingly parallel per capture unit, but the
//! workspace is dependency-free by design, so this module builds the whole
//! parallel substrate from `std` alone:
//!
//! - a scoped-thread fork-join executor with three entry points
//!   on one private worker loop: [`par_map`] (a plain map),
//!   [`par_map_ctx`] (adds a per-worker context built by `make` and drained
//!   by `finish`) and [`par_map_ctx_cancel`] (adds a [`Ctl`] checked before
//!   every claim, all-or-interrupt). Items are any `IntoIterator`: `&slice`
//!   maps borrowed items, a `Vec` hands each item over by value. Workers
//!   claim items from one shared queue, and results always come back in
//!   input order, so downstream output is byte-identical regardless of the
//!   thread count;
//! - no process-global thread-count default: callers thread their chosen
//!   count explicitly (the `--threads N` CLI flag plumbs through function
//!   arguments), with [`available_threads`] as the conventional fallback;
//! - a [`KeyInterner`] that hash-conses raw payload keys into shared
//!   [`Key`] (`Arc<str>`) handles, so the ~73k key occurrences funneling
//!   into ~29.5k unique keys stop cloning `String`s through
//!   extract → classify → observed exchanges.
//!
//! Ownership rules for interned keys: the interner hands out clones of one
//! canonical `Arc<str>` per distinct spelling. Clones are reference-count
//! bumps, comparisons and ordering delegate to the underlying `str`, and a
//! `BTreeSet<Key>` therefore sorts exactly like a `BTreeSet<String>` —
//! the property the deterministic unique-key merge relies on.
//!
//! Everything here is `unsafe`-free and panic-free: worker panics are
//! re-raised on the caller thread via `std::panic::resume_unwind`, so a
//! failing closure behaves exactly as it would have on the serial path.

use crate::cancel::{Ctl, Interrupt};
use std::collections::HashSet;
use std::num::NonZeroUsize;
use std::sync::{Arc, Mutex};

/// The machine's available parallelism (1 when it cannot be determined).
pub fn available_threads() -> usize {
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

/// Map `f` over `items` on up to `threads` scoped threads, returning the
/// results in input order. Pass `&slice` to map borrowed items or a `Vec`
/// to hand each item to `f` by value. `threads <= 1` (or fewer than two
/// items) runs inline on the caller thread — the serial path.
pub fn par_map<T, R, F>(threads: usize, items: impl IntoIterator<Item = T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    par_map_ctx(
        threads,
        items,
        || (),
        |(), index, item| f(index, item),
        |()| {},
    )
}

/// Context-carrying variant of [`par_map`]: every worker thread builds one
/// context with `make`, threads it through each `f` call, and hands it to
/// `finish` after its last item. The pipeline uses the context for
/// per-thread metric recorders and key batches that merge once at join
/// instead of contending on a lock per item.
pub fn par_map_ctx<T, C, R, M, F, D>(
    threads: usize,
    items: impl IntoIterator<Item = T>,
    make: M,
    f: F,
    finish: D,
) -> Vec<R>
where
    T: Send,
    R: Send,
    M: Fn() -> C + Sync,
    F: Fn(&mut C, usize, T) -> R + Sync,
    D: Fn(C) + Sync,
{
    // A predicate that never fires cannot cut the run short, so the
    // default (empty) vector is unreachable.
    fork_join(threads, items, || false, make, f, finish).unwrap_or_default()
}

/// Cancellation-aware variant of [`par_map_ctx`]: workers consult `ctl`
/// before claiming each item and stop claiming once it trips. Either every
/// item was mapped (`Ok`, results in input order — bit-identical to the
/// uncancelled run) or the interrupt is returned and partial results are
/// discarded; a half-mapped result vector never escapes. `finish` still
/// runs for every started worker context, so metrics gathered before the
/// interrupt are preserved for the degradation report.
pub fn par_map_ctx_cancel<T, C, R, M, F, D>(
    threads: usize,
    items: impl IntoIterator<Item = T>,
    ctl: &Ctl,
    make: M,
    f: F,
    finish: D,
) -> Result<Vec<R>, Interrupt>
where
    T: Send,
    R: Send,
    M: Fn() -> C + Sync,
    F: Fn(&mut C, usize, T) -> R + Sync,
    D: Fn(C) + Sync,
{
    let stop = || ctl.interrupted().is_some();
    // Workers only stop early when the control tripped; cancellation is
    // sticky and deadlines are monotone, so re-reading it here is safe.
    fork_join(threads, items, stop, make, f, finish)
        .ok_or_else(|| ctl.interrupted().unwrap_or(Interrupt::Cancelled))
}

/// The one worker loop behind every entry point. Each worker builds its
/// context, then — until `stop` fires or the items run out — claims the
/// next `(index, item)` from a shared queue (work stealing: a slow item
/// never blocks the others) and maps it. The serial path runs that same
/// worker inline; otherwise `min(threads, len)` copies run on scoped
/// threads and their `(index, result)` batches are put back in input
/// order after the join. `None` when `stop` left an item unmapped.
fn fork_join<T, C, R, S, M, F, D>(
    threads: usize,
    items: impl IntoIterator<Item = T>,
    stop: S,
    make: M,
    f: F,
    finish: D,
) -> Option<Vec<R>>
where
    T: Send,
    R: Send,
    S: Fn() -> bool + Sync,
    M: Fn() -> C + Sync,
    F: Fn(&mut C, usize, T) -> R + Sync,
    D: Fn(C) + Sync,
{
    let items: Vec<T> = items.into_iter().collect();
    let total = items.len();
    let workers = threads.min(total);
    let queue = Mutex::new(items.into_iter().enumerate());
    let worker = || {
        let mut ctx = make();
        let mut out: Vec<(usize, R)> = Vec::new();
        while !stop() {
            let claimed = match queue.lock() {
                Ok(mut guard) => guard.next(),
                Err(poisoned) => poisoned.into_inner().next(),
            };
            let Some((index, item)) = claimed else {
                break;
            };
            out.push((index, f(&mut ctx, index, item)));
        }
        finish(ctx);
        out
    };

    let mut pairs: Vec<(usize, R)> = if workers <= 1 {
        worker()
    } else {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers).map(|_| scope.spawn(&worker)).collect();
            let mut pairs = Vec::with_capacity(total);
            for handle in handles {
                match handle.join() {
                    Ok(part) => pairs.extend(part),
                    // Re-raise a worker panic on the caller thread (after
                    // the scope joins the rest), as the serial path would.
                    Err(payload) => std::panic::resume_unwind(payload),
                }
            }
            pairs
        })
    };
    if pairs.len() < total {
        return None;
    }
    pairs.sort_unstable_by_key(|(index, _)| *index);
    Some(pairs.into_iter().map(|(_, result)| result).collect())
}

/// A hash-consed raw payload key: one shared allocation per distinct
/// spelling. Ordering and hashing delegate to the underlying `str`.
pub type Key = Arc<str>;

/// Hash-consing table for raw payload keys (see [`Key`]).
///
/// `intern` is `&self` and internally locked, so worker threads can share
/// one interner by reference; the canonical `Arc<str>` for a spelling is
/// created at most once and every later occurrence is a reference-count
/// bump instead of a fresh `String`.
#[derive(Debug, Default)]
pub struct KeyInterner {
    strings: Mutex<HashSet<Key>>,
}

impl KeyInterner {
    /// Empty interner.
    pub fn new() -> KeyInterner {
        KeyInterner::default()
    }

    /// The canonical [`Key`] for `s`, creating it on first sight.
    pub fn intern(&self, s: &str) -> Key {
        let mut strings = match self.strings.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        };
        match strings.get(s) {
            Some(key) => key.clone(),
            None => {
                let key: Key = Arc::from(s);
                strings.insert(key.clone());
                key
            }
        }
    }

    /// Number of distinct spellings interned so far.
    pub fn len(&self) -> usize {
        match self.strings.lock() {
            Ok(guard) => guard.len(),
            Err(poisoned) => poisoned.into_inner().len(),
        }
    }

    /// Whether nothing has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn results_come_back_in_input_order() {
        let items: Vec<u64> = (0..257).collect();
        for threads in [1, 2, 4, 9] {
            let out = par_map(threads, &items, |i, &v| {
                assert_eq!(i as u64, v);
                v * 2
            });
            let expected: Vec<u64> = items.iter().map(|v| v * 2).collect();
            assert_eq!(out, expected, "threads={threads}");
        }
    }

    #[test]
    fn owned_variant_consumes_each_item_exactly_once() {
        let items: Vec<String> = (0..64).map(|i| format!("item-{i}")).collect();
        let out = par_map(4, items.clone(), |_, s| s);
        assert_eq!(out, items);
    }

    #[test]
    fn contexts_are_made_and_finished_per_worker() {
        let made = AtomicU64::new(0);
        let finished = AtomicU64::new(0);
        let summed = AtomicU64::new(0);
        let items: Vec<u64> = (1..=100).collect();
        let out = par_map_ctx(
            4,
            &items,
            || {
                made.fetch_add(1, Ordering::Relaxed);
                0u64
            },
            |acc, _, &v| {
                *acc += v;
                v
            },
            |acc| {
                finished.fetch_add(1, Ordering::Relaxed);
                summed.fetch_add(acc, Ordering::Relaxed);
            },
        );
        assert_eq!(out, items);
        assert_eq!(
            made.load(Ordering::Relaxed),
            finished.load(Ordering::Relaxed)
        );
        assert_eq!(summed.load(Ordering::Relaxed), 5050);
    }

    #[test]
    fn empty_and_single_item_inputs_run_inline() {
        let none: Vec<u8> = Vec::new();
        assert!(par_map(8, &none, |_, &v| v).is_empty());
        assert_eq!(par_map(8, &[7u8], |_, &v| v + 1), vec![8]);
    }

    #[test]
    fn worker_panics_are_re_raised_on_the_caller() {
        let items: Vec<u64> = (0..64).collect();
        for threads in [1, 4] {
            let caught = std::panic::catch_unwind(|| {
                par_map(threads, &items, |i, &v| {
                    if i == 17 {
                        std::panic::panic_any("worker 17");
                    }
                    v
                })
            });
            let payload = caught.expect_err("the panic reaches the caller");
            assert_eq!(payload.downcast_ref::<&str>(), Some(&"worker 17"));
        }
    }

    #[test]
    fn available_threads_is_at_least_one() {
        assert!(available_threads() >= 1);
    }

    #[test]
    fn interner_returns_one_allocation_per_spelling() {
        let interner = KeyInterner::new();
        assert!(interner.is_empty());
        let a = interner.intern("user_email");
        let b = interner.intern("user_email");
        let c = interner.intern("device_id");
        assert!(Arc::ptr_eq(&a, &b));
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(interner.len(), 2);
    }

    #[test]
    fn interned_keys_sort_like_strings() {
        let interner = KeyInterner::new();
        let mut keys = vec![
            interner.intern("zeta"),
            interner.intern("alpha"),
            interner.intern("midway"),
        ];
        keys.sort();
        let spellings: Vec<&str> = keys.iter().map(|k| k.as_ref()).collect();
        assert_eq!(spellings, ["alpha", "midway", "zeta"]);
    }

    #[test]
    fn cancel_variant_completes_when_untripped() {
        let items: Vec<u64> = (0..129).collect();
        for threads in [1, 4] {
            let out = par_map_ctx_cancel(
                threads,
                items.clone(),
                &Ctl::unbounded(),
                || (),
                |(), _, v| v + 1,
                |()| {},
            );
            let expected: Vec<u64> = items.iter().map(|v| v + 1).collect();
            assert_eq!(out, Ok(expected), "threads={threads}");
        }
    }

    #[test]
    fn pre_tripped_ctl_interrupts_before_any_work() {
        let ctl = Ctl::unbounded();
        ctl.token().cancel();
        let mapped = AtomicU64::new(0);
        for threads in [1, 4] {
            let items: Vec<u64> = (0..64).collect();
            let out = par_map_ctx_cancel(
                threads,
                items,
                &ctl,
                || (),
                |(), _, v| {
                    mapped.fetch_add(1, Ordering::Relaxed);
                    v
                },
                |()| {},
            );
            assert_eq!(out, Err(Interrupt::Cancelled), "threads={threads}");
        }
        assert_eq!(mapped.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn mid_run_cancel_stops_claiming_and_reports() {
        let ctl = Ctl::unbounded();
        let token = ctl.token().clone();
        let items: Vec<u64> = (0..1000).collect();
        let out = par_map_ctx_cancel(
            4,
            &items,
            &ctl,
            || (),
            |(), index, &v| {
                if index == 3 {
                    token.cancel();
                }
                v
            },
            |()| {},
        );
        assert_eq!(out, Err(Interrupt::Cancelled));
    }

    #[test]
    fn cancel_variant_runs_finish_per_started_worker() {
        let made = AtomicU64::new(0);
        let finished = AtomicU64::new(0);
        let ctl = Ctl::unbounded();
        ctl.token().cancel();
        let items: Vec<u64> = (0..64).collect();
        let _ = par_map_ctx_cancel(
            4,
            items,
            &ctl,
            || {
                made.fetch_add(1, Ordering::Relaxed);
            },
            |(), _, v| v,
            |()| {
                finished.fetch_add(1, Ordering::Relaxed);
            },
        );
        assert_eq!(
            made.load(Ordering::Relaxed),
            finished.load(Ordering::Relaxed)
        );
    }

    #[test]
    fn interner_is_shareable_across_threads() {
        let interner = KeyInterner::new();
        let items: Vec<usize> = (0..200).collect();
        let keys = par_map(4, &items, |_, &i| {
            interner.intern(&format!("key-{}", i % 10))
        });
        assert_eq!(interner.len(), 10);
        assert_eq!(keys.len(), 200);
    }
}
