//! Offline drop-in replacement for the subset of `rayon` this workspace
//! uses: `into_par_iter()` over a `Vec` or a `Range<usize>`, then
//! `for_each`, or `map` and `collect`. Two callers fork: the GEMM driver
//! (`seneca_tensor::gemm`, over its row/column parts) and the cohort
//! rasteriser (`seneca_data::phantom`, over slices). Every other kernel runs
//! on its caller's thread, because inference sessions already hold one
//! worker per core.
//!
//! Parallelism is real: an iterator is `split_at` into contiguous parts, one
//! per available core; all but the last are driven on `std::thread::scope`
//! workers, the last on the calling thread. Inputs too small to split run
//! inline on the calling thread, so tiny calls pay no spawn cost.

#![deny(unsafe_code)]

use std::sync::OnceLock;

pub mod prelude {
    pub use crate::{IndexedParallelIterator, IntoParallelIterator, ParallelIterator};
}

/// Worker count: `RAYON_NUM_THREADS` if set, else `available_parallelism`.
pub fn current_num_threads() -> usize {
    static N: OnceLock<usize> = OnceLock::new();
    *N.get_or_init(|| {
        std::env::var("RAYON_NUM_THREADS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or_else(|| std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1))
    })
}

/// A splittable iterator with a known length — the producer contract the
/// drivers below are built on.
pub trait IndexedParallelIterator: Sized + Send {
    type Item: Send;

    fn len(&self) -> usize;

    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Splits into `[0, index)` and `[index, len)`.
    fn split_at(self, index: usize) -> (Self, Self);

    /// Drains this part sequentially on the current thread.
    fn drive<F: FnMut(Self::Item)>(self, f: &mut F);
}

/// Consumer-side adapters; blanket-implemented for every producer.
pub trait ParallelIterator: IndexedParallelIterator {
    fn for_each<F>(self, f: F)
    where
        F: Fn(Self::Item) + Sync,
    {
        map_parts(self, &|part| part.drive(&mut |item| f(item)));
    }

    fn map<R, F>(self, f: F) -> Map<Self, F>
    where
        R: Send,
        F: Fn(Self::Item) -> R + Sync + Clone + Send,
    {
        Map { base: self, f }
    }

    /// Gathers every item in iterator order.
    fn collect<C: From<Vec<Self::Item>>>(self) -> C {
        let len = self.len();
        let parts = map_parts(self, &|part| {
            let mut items = Vec::with_capacity(part.len());
            part.drive(&mut |item| items.push(item));
            items
        });
        let mut out = Vec::with_capacity(len);
        for mut part in parts {
            out.append(&mut part);
        }
        C::from(out)
    }
}

impl<I: IndexedParallelIterator> ParallelIterator for I {}

/// Splits `iter` into at most `current_num_threads()` contiguous parts, runs
/// `body` on each (scoped threads when there is more than one) and gathers
/// each part's result in part order.
fn map_parts<I, R, F>(iter: I, body: &F) -> Vec<R>
where
    I: IndexedParallelIterator,
    R: Send,
    F: Fn(I) -> R + Sync,
{
    let len = iter.len();
    let threads = current_num_threads();
    if len < 2 || threads < 2 {
        return vec![body(iter)];
    }
    let mut parts = split_even(iter, len.min(threads));
    // The caller is a core too: it runs the last part itself (N-1 spawns)
    // instead of parking in `join` while N workers share its core.
    let last = parts.pop().expect("split_even yields at least one part");
    std::thread::scope(|scope| {
        let handles: Vec<_> =
            parts.into_iter().map(|part| scope.spawn(move || body(part))).collect();
        let last = body(last);
        let mut out: Vec<R> =
            handles.into_iter().map(|h| h.join().expect("rayon shim worker panicked")).collect();
        out.push(last);
        out
    })
}

fn split_even<I: IndexedParallelIterator>(iter: I, parts: usize) -> Vec<I> {
    let mut out = Vec::with_capacity(parts);
    let mut rest = iter;
    for i in (1..=parts).rev() {
        let n = rest.len();
        if i == 1 || n == 0 {
            out.push(rest);
            break;
        }
        let take = n.div_ceil(i);
        let (head, tail) = rest.split_at(take);
        out.push(head);
        rest = tail;
    }
    out
}

// ---------------------------------------------------------------------------
// Producers
// ---------------------------------------------------------------------------

pub struct ParRange {
    start: usize,
    end: usize,
}

impl IndexedParallelIterator for ParRange {
    type Item = usize;

    fn len(&self) -> usize {
        self.end - self.start
    }

    fn split_at(self, index: usize) -> (Self, Self) {
        let mid = (self.start + index).min(self.end);
        (Self { start: self.start, end: mid }, Self { start: mid, end: self.end })
    }

    fn drive<F: FnMut(Self::Item)>(self, f: &mut F) {
        for i in self.start..self.end {
            f(i);
        }
    }
}

pub struct IntoParIterVec<T> {
    items: Vec<T>,
}

impl<T: Send> IndexedParallelIterator for IntoParIterVec<T> {
    type Item = T;

    fn len(&self) -> usize {
        self.items.len()
    }

    fn split_at(mut self, index: usize) -> (Self, Self) {
        let tail = self.items.split_off(index);
        (self, Self { items: tail })
    }

    fn drive<F: FnMut(Self::Item)>(self, f: &mut F) {
        for item in self.items {
            f(item);
        }
    }
}

// ---------------------------------------------------------------------------
// Adapter and entry point
// ---------------------------------------------------------------------------

pub struct Map<I, F> {
    base: I,
    f: F,
}

impl<I, R, F> IndexedParallelIterator for Map<I, F>
where
    I: IndexedParallelIterator,
    R: Send,
    F: Fn(I::Item) -> R + Sync + Clone + Send,
{
    type Item = R;

    fn len(&self) -> usize {
        self.base.len()
    }

    fn split_at(self, index: usize) -> (Self, Self) {
        let (a, b) = self.base.split_at(index);
        (Self { base: a, f: self.f.clone() }, Self { base: b, f: self.f })
    }

    fn drive<G: FnMut(Self::Item)>(self, g: &mut G) {
        let f = self.f;
        self.base.drive(&mut |item| g(f(item)));
    }
}

pub trait IntoParallelIterator {
    type Iter: IndexedParallelIterator<Item = Self::Item>;
    type Item: Send;
    fn into_par_iter(self) -> Self::Iter;
}

impl IntoParallelIterator for std::ops::Range<usize> {
    type Iter = ParRange;
    type Item = usize;

    fn into_par_iter(self) -> ParRange {
        ParRange { start: self.start, end: self.end.max(self.start) }
    }
}

impl<T: Send> IntoParallelIterator for Vec<T> {
    type Iter = IntoParIterVec<T>;
    type Item = T;

    fn into_par_iter(self) -> IntoParIterVec<T> {
        IntoParIterVec { items: self }
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn map_collect_preserves_order() {
        let out: Vec<usize> = (0..517).into_par_iter().map(|i| i * 2).collect();
        assert_eq!(out, (0..517).map(|i| i * 2).collect::<Vec<_>>());
        let out: Vec<String> =
            (0..301).collect::<Vec<usize>>().into_par_iter().map(|i| i.to_string()).collect();
        assert_eq!(out, (0..301).map(|i| i.to_string()).collect::<Vec<_>>());
    }

    #[test]
    fn for_each_runs_exactly_len_times() {
        let count = AtomicUsize::new(0);
        (0..999).into_par_iter().for_each(|_| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 999);
        let sum = AtomicUsize::new(0);
        (1..=100).collect::<Vec<usize>>().into_par_iter().for_each(|i| {
            sum.fetch_add(i, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 5050, "each Vec item exactly once");
    }

    /// Two parts, one spawn: the caller runs a part itself.
    #[test]
    fn caller_thread_runs_exactly_one_of_two_parts() {
        let caller = std::thread::current().id();
        let ids = super::map_parts(super::ParRange { start: 0, end: 2 }, &|_| {
            std::thread::current().id()
        });
        if super::current_num_threads() < 2 {
            return assert_eq!(ids, [caller], "single-threaded: one inline part");
        }
        assert_eq!(ids.len(), 2);
        assert_eq!(ids.iter().filter(|&&id| id == caller).count(), 1, "{ids:?} vs {caller:?}");
        assert_eq!(ids[1], caller, "part order: the caller takes the last part");
    }

    #[test]
    #[should_panic]
    fn a_panicking_part_panics_the_caller() {
        (0..2).into_par_iter().for_each(|i| assert_ne!(i, 0, "part 0 fails"));
    }
}
