//! Offline vendored shim for `rayon`, with a real thread pool.
//!
//! Exposes the parallel-iterator entry points this workspace calls
//! (`par_iter`, `par_iter_mut`, `par_chunks`, `into_par_iter` and the
//! combinators chained off them) and executes them on a process-wide
//! `std::thread` worker pool (see [`pool`]). The registry is unreachable
//! in this build environment, so the real crate cannot be fetched; this
//! shim keeps rayon's API shape at the call sites while providing the
//! subset of its execution semantics the workspace needs.
//!
//! ## Execution & chunking contract
//!
//! A terminal operation (`collect`, `sum`, `count`, `reduce`, `for_each`)
//! materializes its base items, splits them into a **fixed** number of
//! contiguous chunks — [`pool::chunk_count`]`(n) = min(n, 64)`, a function
//! of the item count only, never of the thread count — and claims chunks
//! across the calling thread plus up to `threads − 1` pool workers.
//! Per-chunk partial results are combined **in chunk order** on the
//! calling thread.
//!
//! ## Determinism guarantee
//!
//! * Order-preserving operations (`collect`, `neighbors`-style filters)
//!   concatenate chunk outputs in chunk order: results are identical to
//!   the sequential pass at every thread count, unconditionally.
//! * Reductions (`reduce`, `sum`, `count`) fold each chunk sequentially
//!   and then fold the partials in chunk order. Because the split is
//!   thread-count-independent, results are bit-for-bit identical at every
//!   thread count ≥ 2; they also equal the single-threaded fold whenever
//!   the operator is associative with a true identity — which rayon itself
//!   requires, and which every reduction in this workspace satisfies
//!   (integer sums, max/min selections).
//! * An effective thread count of **1** (`KCENTER_THREADS=1`, or
//!   [`with_threads`]`(1, ..)`) bypasses the pool and chunking entirely
//!   and reproduces the pre-pool sequential shim exactly.
//!
//! Pool size comes from `std::thread::available_parallelism()`, overridden
//! process-wide by `KCENTER_THREADS` and per-thread by [`with_threads`].
//! Nested parallel ops (a `par_iter` inside a chunk body) are safe: the
//! submitting thread always drains its own op, so progress never depends
//! on a free worker. Panics in any chunk propagate to the submitting
//! thread after the op finishes.
//!
//! Swapping the real rayon back in remains a `Cargo.toml` change; the only
//! shim-specific extensions call sites use are [`with_threads`] /
//! [`current_num_threads`] (real rayon: `ThreadPoolBuilder`) and the
//! `pool::chunk_*` helpers, none of which appear in the library crates'
//! public APIs.

pub mod pool;

pub use pool::{current_num_threads, default_threads, with_threads};

use std::sync::Mutex;

/// A fused per-item pipeline: maps a base item (plus its base index, for
/// `enumerate`) to `Some(output)` or `None` (filtered out). Composed
/// statically by the combinators so chunk bodies run one closure per item.
pub trait Pipe<T>: Sync {
    /// The pipeline's output item type.
    type Out: Send;
    /// Applies the pipeline to `item`, the `index`-th item of the base.
    fn apply(&self, index: usize, item: T) -> Option<Self::Out>;
}

/// The empty pipeline: yields base items unchanged.
pub struct Identity;

impl<T: Send> Pipe<T> for Identity {
    type Out = T;
    #[inline]
    fn apply(&self, _index: usize, item: T) -> Option<T> {
        Some(item)
    }
}

/// Pipeline stage for [`ParIter::map`].
pub struct MapPipe<P, F> {
    prev: P,
    f: F,
}

impl<T, P: Pipe<T>, U: Send, F: Fn(P::Out) -> U + Sync> Pipe<T> for MapPipe<P, F> {
    type Out = U;
    #[inline]
    fn apply(&self, index: usize, item: T) -> Option<U> {
        self.prev.apply(index, item).map(&self.f)
    }
}

/// Pipeline stage for [`ParIter::filter`].
pub struct FilterPipe<P, F> {
    prev: P,
    f: F,
}

impl<T, P: Pipe<T>, F: Fn(&P::Out) -> bool + Sync> Pipe<T> for FilterPipe<P, F> {
    type Out = P::Out;
    #[inline]
    fn apply(&self, index: usize, item: T) -> Option<P::Out> {
        self.prev.apply(index, item).filter(|out| (self.f)(out))
    }
}

/// Pipeline stage for [`ParIter::enumerate`]. Indices are **base**
/// positions, so like real rayon (where `enumerate` needs an indexed
/// iterator) it belongs before any `filter`.
pub struct EnumeratePipe<P> {
    prev: P,
}

impl<T, P: Pipe<T>> Pipe<T> for EnumeratePipe<P> {
    type Out = (usize, P::Out);
    #[inline]
    fn apply(&self, index: usize, item: T) -> Option<(usize, P::Out)> {
        self.prev.apply(index, item).map(|out| (index, out))
    }
}

/// Splits `items` into [`pool::chunk_count`] chunks, runs
/// `f(base_offset, chunk_items)` for each chunk across the pool, and
/// returns the per-chunk results **in chunk order**. Thread count 1 runs
/// one unsplit chunk inline (the exact pre-pool sequential path).
fn run_split<T: Send, R: Send>(items: Vec<T>, f: &(dyn Fn(usize, Vec<T>) -> R + Sync)) -> Vec<R> {
    if pool::current_num_threads() <= 1 {
        return vec![f(0, items)];
    }
    let n = items.len();
    let k = pool::chunk_count(n);
    // Materialize the fixed split up front; each slot hands its input to
    // whichever thread claims the chunk and collects that chunk's output.
    let mut inputs: Vec<Vec<T>> = (0..k)
        .map(|c| Vec::with_capacity(pool::chunk_range(n, k, c).len()))
        .collect();
    let mut chunk = 0usize;
    for (i, item) in items.into_iter().enumerate() {
        while i >= pool::chunk_range(n, k, chunk).end {
            chunk += 1;
        }
        inputs[chunk].push(item);
    }
    let slots: Vec<Mutex<(Vec<T>, Option<R>)>> = inputs
        .into_iter()
        .map(|input| Mutex::new((input, None)))
        .collect();
    let body = |c: usize| {
        let mut slot = slots[c].lock().unwrap();
        let input = std::mem::take(&mut slot.0);
        let out = f(pool::chunk_range(n, k, c).start, input);
        slot.1 = Some(out);
    };
    pool::run_chunks(k, &body);
    slots
        .into_iter()
        .map(|m| m.into_inner().unwrap().1.expect("every chunk ran"))
        .collect()
}

/// A parallel iterator: materialized base items plus a fused combinator
/// pipeline, executed chunk-wise on the pool by the terminal operations.
/// (`Send`/`Sync` obligations land on the terminal operations, so building
/// and combining iterators stays bound-free like the real crate.)
pub struct ParIter<T, P> {
    items: Vec<T>,
    pipe: P,
}

impl<T, P: Pipe<T>> ParIter<T, P> {
    /// See rayon's `ParallelIterator::map`.
    pub fn map<U: Send, F: Fn(P::Out) -> U + Sync>(self, f: F) -> ParIter<T, MapPipe<P, F>> {
        ParIter {
            items: self.items,
            pipe: MapPipe { prev: self.pipe, f },
        }
    }

    /// See rayon's `ParallelIterator::filter`.
    pub fn filter<F: Fn(&P::Out) -> bool + Sync>(self, f: F) -> ParIter<T, FilterPipe<P, F>> {
        ParIter {
            items: self.items,
            pipe: FilterPipe { prev: self.pipe, f },
        }
    }

    /// See rayon's `IndexedParallelIterator::enumerate`. Indices are base
    /// positions; chain it before any `filter`, as real rayon's indexed
    /// iterators force.
    pub fn enumerate(self) -> ParIter<T, EnumeratePipe<P>> {
        ParIter {
            items: self.items,
            pipe: EnumeratePipe { prev: self.pipe },
        }
    }
}

impl<T: Send, P: Pipe<T>> ParIter<T, P> {
    /// See [`Iterator::collect`]; chunk outputs concatenate in order, so
    /// the result matches the sequential pass at every thread count.
    pub fn collect<C: FromIterator<P::Out>>(self) -> C {
        let pipe = self.pipe;
        let parts = run_split(self.items, &|off, input: Vec<T>| {
            input
                .into_iter()
                .enumerate()
                .filter_map(|(j, item)| pipe.apply(off + j, item))
                .collect::<Vec<P::Out>>()
        });
        parts.into_iter().flatten().collect()
    }

    /// See [`Iterator::sum`]; per-chunk sums combine in chunk order.
    pub fn sum<S>(self) -> S
    where
        S: std::iter::Sum<P::Out> + std::iter::Sum<S> + Send,
    {
        let pipe = self.pipe;
        run_split(self.items, &|off, input: Vec<T>| {
            input
                .into_iter()
                .enumerate()
                .filter_map(|(j, item)| pipe.apply(off + j, item))
                .sum::<S>()
        })
        .into_iter()
        .sum()
    }

    /// See [`Iterator::count`].
    pub fn count(self) -> usize {
        let pipe = self.pipe;
        run_split(self.items, &|off, input: Vec<T>| {
            input
                .into_iter()
                .enumerate()
                .filter_map(|(j, item)| pipe.apply(off + j, item))
                .count()
        })
        .into_iter()
        .sum()
    }

    /// Rayon's two-argument reduce: each chunk folds from `identity()`,
    /// partials fold in chunk order. Identical to the sequential fold for
    /// the associative, identity-respecting operators rayon requires.
    pub fn reduce<ID, OP>(self, identity: ID, op: OP) -> P::Out
    where
        ID: Fn() -> P::Out + Sync,
        OP: Fn(P::Out, P::Out) -> P::Out + Sync,
    {
        let pipe = self.pipe;
        let parts = run_split(self.items, &|off, input: Vec<T>| {
            input
                .into_iter()
                .enumerate()
                .filter_map(|(j, item)| pipe.apply(off + j, item))
                .fold(identity(), &op)
        });
        // Each partial already folds from the identity once; combining
        // without re-seeding keeps the single-chunk path exactly equal to
        // the plain sequential fold.
        parts.into_iter().reduce(&op).unwrap_or_else(&identity)
    }

    /// See [`Iterator::for_each`]. `f` runs concurrently across chunks;
    /// like real rayon it must be `Fn + Sync` and order-insensitive.
    pub fn for_each<F: Fn(P::Out) + Sync>(self, f: F) {
        let pipe = self.pipe;
        run_split(self.items, &|off, input: Vec<T>| {
            for (j, item) in input.into_iter().enumerate() {
                if let Some(out) = pipe.apply(off + j, item) {
                    f(out);
                }
            }
        });
    }
}

impl<T> ParIter<T, Identity> {
    /// Pairs with another base-level parallel iterator, like rayon's
    /// `IndexedParallelIterator::zip` (which likewise only exists before
    /// un-indexing combinators such as `filter`).
    pub fn zip<U>(self, other: ParIter<U, Identity>) -> ParIter<(T, U), Identity> {
        ParIter {
            items: self.items.into_iter().zip(other.items).collect(),
            pipe: Identity,
        }
    }
}

/// `par_iter`/`par_iter_mut`/`par_chunks` on slices (and anything
/// derefing to one).
pub trait ParSliceExt<T> {
    /// Stand-in for `rayon::prelude::IntoParallelRefIterator::par_iter`.
    fn par_iter(&self) -> ParIter<&T, Identity>;

    /// Stand-in for
    /// `rayon::prelude::IntoParallelRefMutIterator::par_iter_mut`.
    fn par_iter_mut(&mut self) -> ParIter<&mut T, Identity>;

    /// Stand-in for `rayon::prelude::ParallelSlice::par_chunks`: the slice
    /// in contiguous pieces of `chunk_size` (last may be shorter).
    fn par_chunks(&self, chunk_size: usize) -> ParIter<&[T], Identity>;
}

impl<T> ParSliceExt<T> for [T] {
    fn par_iter(&self) -> ParIter<&T, Identity> {
        ParIter {
            items: self.iter().collect(),
            pipe: Identity,
        }
    }

    fn par_iter_mut(&mut self) -> ParIter<&mut T, Identity> {
        ParIter {
            items: self.iter_mut().collect(),
            pipe: Identity,
        }
    }

    fn par_chunks(&self, chunk_size: usize) -> ParIter<&[T], Identity> {
        assert!(chunk_size > 0, "chunk size must be positive");
        ParIter {
            items: self.chunks(chunk_size).collect(),
            pipe: Identity,
        }
    }
}

/// `into_par_iter` on any owned iterable (ranges, vectors, ...).
pub trait IntoParIterExt: IntoIterator + Sized {
    /// Stand-in for
    /// `rayon::prelude::IntoParallelIterator::into_par_iter`.
    fn into_par_iter(self) -> ParIter<Self::Item, Identity> {
        ParIter {
            items: self.into_iter().collect(),
            pipe: Identity,
        }
    }
}

impl<T: IntoIterator> IntoParIterExt for T {}

/// Mirror of `rayon::prelude` — the import path used at every call site.
pub mod prelude {
    pub use crate::{IntoParIterExt, ParIter, ParSliceExt};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::{pool, with_threads};

    #[test]
    fn thread_env_values_are_validated() {
        assert_eq!(pool::parse_threads_env(None), Ok(None));
        assert_eq!(pool::parse_threads_env(Some(" ")), Ok(None));
        assert_eq!(pool::parse_threads_env(Some("2")), Ok(Some(2)));
        for bad in ["0", "zero", "-1", "2.5"] {
            let err = pool::parse_threads_env(Some(bad)).unwrap_err();
            assert!(err.contains("integer >= 1"), "{err}");
        }
    }

    #[test]
    fn map_collect_matches_sequential() {
        let v = [1u32, 2, 3, 4];
        let doubled: Vec<u32> = v.par_iter().map(|&x| x * 2).collect();
        assert_eq!(doubled, vec![2, 4, 6, 8]);
    }

    #[test]
    fn zip_enumerate_reduce() {
        let a = [1.0f64, 5.0, 3.0];
        let mut b = [10.0f64, 0.0, 10.0];
        let best = a
            .par_iter()
            .zip(b.par_iter_mut())
            .enumerate()
            .map(|(i, (&x, slot))| {
                *slot = slot.min(x);
                (x, i)
            })
            .reduce(
                || (f64::NEG_INFINITY, usize::MAX),
                |acc, cur| if cur.0 > acc.0 { cur } else { acc },
            );
        assert_eq!(best, (5.0, 1));
        assert_eq!(b, [1.0, 0.0, 3.0]);
    }

    #[test]
    fn range_into_par_iter() {
        let total: usize = (0..10usize).into_par_iter().map(|x| x * 2).sum();
        assert_eq!(total, 90);
    }

    #[test]
    fn filter_preserves_order() {
        let v: Vec<u32> = (0..1000).collect();
        let odd: Vec<u32> = with_threads(8, || {
            v.par_iter().map(|&x| x).filter(|x| x % 2 == 1).collect()
        });
        let want: Vec<u32> = (0..1000).filter(|x| x % 2 == 1).collect();
        assert_eq!(odd, want);
    }

    #[test]
    fn par_chunks_covers_slice_in_order() {
        let v: Vec<u32> = (0..103).collect();
        let sizes: Vec<usize> = with_threads(4, || v.par_chunks(10).map(|c| c.len()).collect());
        assert_eq!(sizes.len(), 11);
        assert_eq!(sizes.iter().sum::<usize>(), 103);
        assert_eq!(sizes[10], 3);
        let flat: Vec<u32> = with_threads(4, || {
            v.par_chunks(10).map(|c| c.to_vec()).collect::<Vec<_>>()
        })
        .into_iter()
        .flatten()
        .collect();
        assert_eq!(flat, v);
    }

    #[test]
    fn empty_input_all_terminals() {
        let v: Vec<u64> = Vec::new();
        for t in [1usize, 2, 8] {
            with_threads(t, || {
                let c: Vec<u64> = v.par_iter().map(|&x| x).collect();
                assert!(c.is_empty());
                assert_eq!(v.par_iter().map(|&x| x).sum::<u64>(), 0);
                assert_eq!(v.par_iter().map(|&x| x).count(), 0);
                assert_eq!(v.par_iter().map(|&x| x).reduce(|| 7u64, |a, b| a + b), 7);
                v.par_iter().for_each(|_| panic!("no items, no calls"));
            });
        }
    }

    #[test]
    fn more_threads_than_items() {
        // 3 items, 8-thread override: chunk count clamps to the item
        // count and every item is processed exactly once.
        let out: Vec<u32> = with_threads(8, || [5u32, 6, 7].par_iter().map(|&x| x * 10).collect());
        assert_eq!(out, vec![50, 60, 70]);
    }

    #[test]
    fn results_identical_across_thread_counts() {
        let v: Vec<u64> = (0..10_000).collect();
        let base: Vec<u64> = with_threads(1, || v.par_iter().map(|&x| x * x % 9973).collect());
        let base_sum: u64 = with_threads(1, || v.par_iter().map(|&x| x * x % 9973).sum());
        let base_max = with_threads(1, || {
            v.par_iter()
                .enumerate()
                .map(|(i, &x)| (x * 37 % 1009, i))
                .reduce(|| (0, usize::MAX), |a, c| if c.0 > a.0 { c } else { a })
        });
        for t in [2usize, 3, 8] {
            with_threads(t, || {
                let got: Vec<u64> = v.par_iter().map(|&x| x * x % 9973).collect();
                assert_eq!(got, base, "collect at {t} threads");
                let sum: u64 = v.par_iter().map(|&x| x * x % 9973).sum();
                assert_eq!(sum, base_sum, "sum at {t} threads");
                let max = v
                    .par_iter()
                    .enumerate()
                    .map(|(i, &x)| (x * 37 % 1009, i))
                    .reduce(|| (0, usize::MAX), |a, c| if c.0 > a.0 { c } else { a });
                assert_eq!(max, base_max, "reduce at {t} threads");
            });
        }
    }

    #[test]
    fn nested_par_iter_does_not_deadlock() {
        // A parallel op whose chunk bodies themselves submit parallel ops:
        // the submitting thread drains its own cursor, so this terminates
        // even when every worker is busy with the outer op.
        let total: u64 = with_threads(4, || {
            (0u64..16)
                .into_par_iter()
                .map(|i| {
                    with_threads(2, || {
                        (0u64..100).into_par_iter().map(|j| i * j).sum::<u64>()
                    })
                })
                .sum()
        });
        let want: u64 = (0u64..16)
            .map(|i| (0u64..100).map(|j| i * j).sum::<u64>())
            .sum();
        assert_eq!(total, want);
    }

    #[test]
    fn worker_panic_propagates_and_pool_survives() {
        let caught = std::panic::catch_unwind(|| {
            with_threads(4, || {
                (0u32..1000).into_par_iter().for_each(|i| {
                    if i == 371 {
                        panic!("chunk panic 371");
                    }
                });
            })
        });
        let payload = caught.expect_err("panic must propagate to the submitter");
        let msg = payload
            .downcast_ref::<&str>()
            .copied()
            .map(str::to_owned)
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        assert!(msg.contains("chunk panic 371"), "got: {msg}");
        // The pool must stay usable after a panicked op.
        let sum: u32 = with_threads(4, || (0u32..100).into_par_iter().map(|x| x).sum());
        assert_eq!(sum, 4950);
    }

    #[test]
    fn chunk_split_is_thread_count_independent() {
        assert_eq!(pool::chunk_count(0), 1);
        assert_eq!(pool::chunk_count(3), 3);
        assert_eq!(pool::chunk_count(64), 64);
        assert_eq!(pool::chunk_count(1_000_000), 64);
        // Ranges tile [0, n) exactly.
        for n in [1usize, 7, 64, 65, 100_000] {
            let k = pool::chunk_count(n);
            let mut next = 0;
            for c in 0..k {
                let r = pool::chunk_range(n, k, c);
                assert_eq!(r.start, next);
                next = r.end;
            }
            assert_eq!(next, n);
        }
    }

    #[test]
    fn with_threads_restores_on_exit() {
        let outer = super::current_num_threads();
        with_threads(3, || assert_eq!(super::current_num_threads(), 3));
        assert_eq!(super::current_num_threads(), outer);
    }
}
