//! Offline drop-in replacement for the subset of `rayon` this workspace
//! uses. Parallelism is real: indexed parallel iterators are recursively
//! `split_at` into contiguous parts, one per available core; all but the
//! last are driven on `std::thread::scope` workers, the last on the calling
//! thread. Inputs too small to split run inline on the calling thread, so
//! tiny kernels pay no spawn cost.

use std::sync::OnceLock;

pub mod prelude {
    pub use crate::{
        IndexedParallelIterator, IntoParallelIterator, ParallelIterator, ParallelSlice,
        ParallelSliceMut,
    };
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

/// A splittable iterator with a known length — the minimal producer
/// contract every adapter and driver in this shim is built on.
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
        run_parts(self, &|part| part.drive(&mut |item| f(item)));
    }

    fn map<R, F>(self, f: F) -> Map<Self, F>
    where
        R: Send,
        F: Fn(Self::Item) -> R + Sync + Clone + Send,
    {
        Map { base: self, f }
    }

    fn zip<B: IndexedParallelIterator>(self, other: B) -> Zip<Self, B> {
        Zip { a: self, b: other }
    }

    fn enumerate(self) -> Enumerate<Self> {
        Enumerate { base: self, offset: 0 }
    }

    fn with_min_len(self, _min: usize) -> Self {
        self
    }

    fn collect<C: From<Vec<Self::Item>>>(self) -> C {
        let len = self.len();
        let mut parts = collect_parts(self, len);
        let mut out = Vec::with_capacity(len);
        for part in &mut parts {
            out.append(part);
        }
        C::from(out)
    }

    fn sum<S>(self) -> S
    where
        S: std::iter::Sum<Self::Item> + Send + std::iter::Sum<S>,
    {
        let parts = map_parts(self, &|part| {
            let mut items = Vec::new();
            part.drive(&mut |item| items.push(item));
            items.into_iter().sum::<S>()
        });
        parts.into_iter().sum()
    }
}

impl<I: IndexedParallelIterator> ParallelIterator for I {}

/// Splits `iter` into at most `current_num_threads()` contiguous parts and
/// runs `body` on each, using scoped threads when there is more than one.
fn run_parts<I, F>(iter: I, body: &F)
where
    I: IndexedParallelIterator,
    F: Fn(I) + Sync,
{
    map_parts(iter, &|part| body(part));
}

/// Like [`run_parts`] but gathers each part's result in part order.
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

fn collect_parts<I: IndexedParallelIterator>(iter: I, _len: usize) -> Vec<Vec<I::Item>> {
    map_parts(iter, &|part| {
        let mut items = Vec::with_capacity(part.len());
        part.drive(&mut |item| items.push(item));
        items
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

pub struct ParChunksMut<'a, T> {
    slice: &'a mut [T],
    chunk: usize,
}

impl<'a, T: Send> IndexedParallelIterator for ParChunksMut<'a, T> {
    type Item = &'a mut [T];

    fn len(&self) -> usize {
        self.slice.len().div_ceil(self.chunk)
    }

    fn split_at(self, index: usize) -> (Self, Self) {
        let mid = (index * self.chunk).min(self.slice.len());
        let (a, b) = self.slice.split_at_mut(mid);
        (Self { slice: a, chunk: self.chunk }, Self { slice: b, chunk: self.chunk })
    }

    fn drive<F: FnMut(Self::Item)>(self, f: &mut F) {
        for chunk in self.slice.chunks_mut(self.chunk) {
            f(chunk);
        }
    }
}

pub struct ParChunks<'a, T> {
    slice: &'a [T],
    chunk: usize,
}

impl<'a, T: Sync> IndexedParallelIterator for ParChunks<'a, T> {
    type Item = &'a [T];

    fn len(&self) -> usize {
        self.slice.len().div_ceil(self.chunk)
    }

    fn split_at(self, index: usize) -> (Self, Self) {
        let mid = (index * self.chunk).min(self.slice.len());
        let (a, b) = self.slice.split_at(mid);
        (Self { slice: a, chunk: self.chunk }, Self { slice: b, chunk: self.chunk })
    }

    fn drive<F: FnMut(Self::Item)>(self, f: &mut F) {
        for chunk in self.slice.chunks(self.chunk) {
            f(chunk);
        }
    }
}

pub struct ParIterMut<'a, T> {
    slice: &'a mut [T],
}

impl<'a, T: Send> IndexedParallelIterator for ParIterMut<'a, T> {
    type Item = &'a mut T;

    fn len(&self) -> usize {
        self.slice.len()
    }

    fn split_at(self, index: usize) -> (Self, Self) {
        let (a, b) = self.slice.split_at_mut(index);
        (Self { slice: a }, Self { slice: b })
    }

    fn drive<F: FnMut(Self::Item)>(self, f: &mut F) {
        for item in self.slice.iter_mut() {
            f(item);
        }
    }
}

pub struct ParIter<'a, T> {
    slice: &'a [T],
}

impl<'a, T: Sync> IndexedParallelIterator for ParIter<'a, T> {
    type Item = &'a T;

    fn len(&self) -> usize {
        self.slice.len()
    }

    fn split_at(self, index: usize) -> (Self, Self) {
        let (a, b) = self.slice.split_at(index);
        (Self { slice: a }, Self { slice: b })
    }

    fn drive<F: FnMut(Self::Item)>(self, f: &mut F) {
        for item in self.slice.iter() {
            f(item);
        }
    }
}

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
// Adapters
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

pub struct Zip<A, B> {
    a: A,
    b: B,
}

impl<A, B> IndexedParallelIterator for Zip<A, B>
where
    A: IndexedParallelIterator,
    B: IndexedParallelIterator,
{
    type Item = (A::Item, B::Item);

    fn len(&self) -> usize {
        self.a.len().min(self.b.len())
    }

    fn split_at(self, index: usize) -> (Self, Self) {
        let (a1, a2) = self.a.split_at(index);
        let (b1, b2) = self.b.split_at(index);
        (Self { a: a1, b: b1 }, Self { a: a2, b: b2 })
    }

    fn drive<F: FnMut(Self::Item)>(self, f: &mut F) {
        let n = self.len();
        let mut bs = Vec::with_capacity(n);
        let mut b = self.b;
        if b.len() > n {
            b = b.split_at(n).0;
        }
        b.drive(&mut |item| bs.push(item));
        let mut b_iter = bs.into_iter();
        let mut a = self.a;
        if a.len() > n {
            a = a.split_at(n).0;
        }
        a.drive(&mut |item| {
            if let Some(bi) = b_iter.next() {
                f((item, bi));
            }
        });
    }
}

pub struct Enumerate<I> {
    base: I,
    offset: usize,
}

impl<I: IndexedParallelIterator> IndexedParallelIterator for Enumerate<I> {
    type Item = (usize, I::Item);

    fn len(&self) -> usize {
        self.base.len()
    }

    fn split_at(self, index: usize) -> (Self, Self) {
        let (a, b) = self.base.split_at(index);
        (Self { base: a, offset: self.offset }, Self { base: b, offset: self.offset + index })
    }

    fn drive<F: FnMut(Self::Item)>(self, f: &mut F) {
        let mut i = self.offset;
        self.base.drive(&mut |item| {
            f((i, item));
            i += 1;
        });
    }
}

// ---------------------------------------------------------------------------
// Entry-point traits
// ---------------------------------------------------------------------------

pub trait ParallelSliceMut<T: Send> {
    fn par_chunks_mut(&mut self, chunk: usize) -> ParChunksMut<'_, T>;
    fn par_iter_mut(&mut self) -> ParIterMut<'_, T>;
}

impl<T: Send> ParallelSliceMut<T> for [T] {
    fn par_chunks_mut(&mut self, chunk: usize) -> ParChunksMut<'_, T> {
        assert!(chunk > 0, "chunk size must be non-zero");
        ParChunksMut { slice: self, chunk }
    }

    fn par_iter_mut(&mut self) -> ParIterMut<'_, T> {
        ParIterMut { slice: self }
    }
}

pub trait ParallelSlice<T: Sync> {
    fn par_chunks(&self, chunk: usize) -> ParChunks<'_, T>;
    fn par_iter(&self) -> ParIter<'_, T>;
}

impl<T: Sync> ParallelSlice<T> for [T] {
    fn par_chunks(&self, chunk: usize) -> ParChunks<'_, T> {
        assert!(chunk > 0, "chunk size must be non-zero");
        ParChunks { slice: self, chunk }
    }

    fn par_iter(&self) -> ParIter<'_, T> {
        ParIter { slice: self }
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
    fn chunks_mut_covers_every_element_once() {
        let mut data = vec![0u32; 1003];
        data.par_chunks_mut(64).enumerate().for_each(|(i, chunk)| {
            for x in chunk {
                *x += 1 + i as u32;
            }
        });
        for (i, &x) in data.iter().enumerate() {
            assert_eq!(x, 1 + (i / 64) as u32);
        }
    }

    #[test]
    fn map_collect_preserves_order() {
        let out: Vec<usize> = (0..517).into_par_iter().map(|i| i * 2).collect();
        assert_eq!(out, (0..517).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn zip_pairs_by_index() {
        let a: Vec<usize> = (0..300).collect();
        let mut b = vec![0usize; 300];
        b.par_iter_mut().zip(a.par_iter()).for_each(|(dst, &src)| {
            *dst = src + 7;
        });
        assert!(b.iter().enumerate().all(|(i, &x)| x == i + 7));
    }

    #[test]
    fn for_each_runs_exactly_len_times() {
        let count = AtomicUsize::new(0);
        (0..999).into_par_iter().for_each(|_| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 999);
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

    #[test]
    fn sum_matches_sequential() {
        let s: usize = (0..1000).into_par_iter().map(|i| i * i).sum();
        assert_eq!(s, (0..1000usize).map(|i| i * i).sum::<usize>());
    }
}
