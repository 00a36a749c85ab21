//! The parallel-iterator traits and adaptors.
//!
//! A [`ParallelIterator`] here is a *description* of an indexed
//! pipeline: a source (slice or vector) plus a stack of adaptors
//! (`map`, `flat_map_iter`, `seq_below`, `fold`). Terminal methods
//! ([`ParallelIterator::collect`], [`ParallelIterator::reduce`],
//! [`ParallelIterator::sum_stable`]) hand
//! the description to the executor in [`crate::pool`], which cuts the
//! input index space into contiguous chunks and fans them out over the
//! persistent worker pool.
//!
//! The executor interface is [`Source`]: a pipeline freezes into one
//! shared, immutable chunk source (`into_source`), and every worker
//! materializes the chunks it claims straight from `&Source` via
//! [`Source::chunk_iter`]. Because the source is borrowed — never
//! moved, split or handed over — workers need no per-chunk slots and
//! no locks to pick up work; the atomic band cursors in the pool are
//! the only scheduling state.
//!
//! The determinism contract lives in the shapes of these adaptors:
//! `chunk_iter(range)` must replay exactly the elements a sequential
//! run would produce for those input indices, so the chunks
//! concatenated in ascending chunk order equal the sequential result.
//! Every adaptor below preserves that property, which is what makes
//! `collect` (and the chunk-ordered `fold`/`reduce` combine)
//! bit-identical to a single-threaded run.

use crate::pool;
use std::ops::Range;
use std::sync::Mutex;

/// A description of a data-parallel pipeline over an indexed input.
///
/// The three `#[doc(hidden)]` methods are the executor interface; call
/// sites use the adaptor and terminal methods, which mirror rayon's.
pub trait ParallelIterator: Sized {
    /// Element type the pipeline yields.
    type Item: Send;
    /// Frozen chunk source the pipeline executes through.
    type Source: Source<Item = Self::Item>;

    /// Number of *input* indices the chunk grid is laid over.
    #[doc(hidden)]
    fn input_len(&self) -> usize;

    /// Input-size floor below which the execution runs inline on the
    /// calling thread (see [`ParallelIterator::seq_below`]).
    #[doc(hidden)]
    fn seq_floor(&self) -> usize {
        0
    }

    /// Freezes the pipeline into a [`Source`] all workers share by
    /// reference. `chunk_size` is the executor's (deterministic) grid
    /// pitch; only by-value sources need it (to pre-split their
    /// elements into per-chunk bins).
    #[doc(hidden)]
    fn into_source(self, chunk_size: usize) -> Self::Source;

    /// Applies `f` to every element in parallel (order-preserving).
    fn map<R, F>(self, f: F) -> Map<Self, F>
    where
        R: Send,
        F: Fn(Self::Item) -> R + Send + Sync,
    {
        Map { base: self, f }
    }

    /// Maps every element to a *sequential* iterator and splices the
    /// results in input order (rayon's `flat_map_iter`).
    fn flat_map_iter<U, F>(self, f: F) -> FlatMapIter<Self, F>
    where
        U: IntoIterator,
        U::Item: Send,
        F: Fn(Self::Item) -> U + Send + Sync,
    {
        FlatMapIter { base: self, f }
    }

    /// Dispatches inline — no pool wakeup, no epoch — whenever the
    /// input holds fewer than `n` elements, and in parallel otherwise.
    /// The size-aware dispatch knob for kernels whose total work at
    /// small sizes is cheaper than waking the pool (a handful of
    /// correlation pairs, a short KDE grid).
    ///
    /// The inline path replays the exact chunk grid in ascending chunk
    /// order, so every result — including non-associative float
    /// reductions — is bit-identical to the parallel path; only the
    /// dispatch mechanism changes.
    fn seq_below(self, n: usize) -> SeqBelow<Self> {
        SeqBelow { base: self, n }
    }

    /// Folds each chunk into an accumulator seeded by `identity`,
    /// yielding one accumulator per chunk (rayon's `fold`). Combine the
    /// per-chunk accumulators with [`ParallelIterator::reduce`].
    fn fold<A, ID, F>(self, identity: ID, fold_op: F) -> Fold<Self, ID, F>
    where
        A: Send,
        ID: Fn() -> A + Send + Sync,
        F: Fn(A, Self::Item) -> A + Send + Sync,
    {
        Fold {
            base: self,
            identity,
            fold_op,
        }
    }

    /// Reduces all elements to one value: each chunk folds its elements
    /// left-to-right from `identity()`, then the per-chunk accumulators
    /// combine in ascending chunk order. With an associative `op` this
    /// equals the sequential reduction exactly; for non-associative
    /// (floating-point) `op`s the grouping is fixed by the chunk layout
    /// and therefore identical for every thread count.
    fn reduce<ID, OP>(self, identity: ID, op: OP) -> Self::Item
    where
        ID: Fn() -> Self::Item + Send + Sync,
        OP: Fn(Self::Item, Self::Item) -> Self::Item + Send + Sync,
    {
        let folded = Fold {
            base: self,
            identity: &identity,
            fold_op: &op,
        };
        let mut acc = identity();
        for chunk_acc in pool::run(folded).into_iter().flatten() {
            acc = op(acc, chunk_acc);
        }
        acc
    }

    /// Sums float elements through the exact merge tree: each chunk
    /// accumulates left-to-right from `zero()`, then chunk sums combine
    /// in ascending chunk order. The grouping is a pure function of the
    /// chunk grid, so the result is bit-identical for every thread
    /// count — unlike a re-associating `.sum::<f64>()`, which the
    /// `float-reduction` lint bans inside parallel pipelines.
    fn sum_stable(self) -> Self::Item
    where
        Self::Item: StableSum,
    {
        self.reduce(Self::Item::zero, StableSum::add)
    }

    /// Executes the pipeline and collects every element in input order.
    fn collect<C>(self) -> C
    where
        C: FromParallelIterator<Self::Item>,
    {
        C::from_par_iter(self)
    }
}

/// A frozen pipeline every worker reads chunks from by shared
/// reference.
///
/// `Sync` is the load-bearing bound: the persistent pool hands the
/// *same* `&Source` to every participating thread, and a chunk's
/// content must depend only on its index range — never on which worker
/// asks, or in what order. The executor calls
/// [`chunk_iter`](Source::chunk_iter) exactly once per chunk (the
/// atomic band cursors guarantee exactly-once claims).
pub trait Source: Sync {
    /// Element type the chunks yield.
    type Item: Send;
    /// Iterator over one chunk's elements, borrowing the source.
    type ChunkIter<'s>: Iterator<Item = Self::Item>
    where
        Self: 's;

    /// Materializes the elements for input indices `range`. Building
    /// the iterator must be cheap; the work runs as the caller drains
    /// it.
    fn chunk_iter(&self, range: Range<usize>) -> Self::ChunkIter<'_>;
}

/// Element types [`ParallelIterator::sum_stable`] can reduce through
/// the exact merge tree. Implemented for the float types whose addition
/// is non-associative; integers can keep using `fold`/`reduce` freely.
pub trait StableSum: Send {
    /// Additive identity.
    fn zero() -> Self;
    /// Element addition (applied chunk-locally, then across chunks in
    /// ascending chunk order).
    fn add(self, rhs: Self) -> Self;
}

impl StableSum for f32 {
    fn zero() -> Self {
        0.0
    }
    fn add(self, rhs: Self) -> Self {
        self + rhs
    }
}

impl StableSum for f64 {
    fn zero() -> Self {
        0.0
    }
    fn add(self, rhs: Self) -> Self {
        self + rhs
    }
}

/// Conversion into a [`ParallelIterator`] by shared reference
/// (`.par_iter()`).
pub trait IntoParallelRefIterator<'data> {
    /// Pipeline yielded by [`par_iter`](Self::par_iter).
    type Iter: ParallelIterator;

    /// Returns a parallel iterator over `&self`'s elements.
    fn par_iter(&'data self) -> Self::Iter;
}

impl<'data, T: Sync + 'data> IntoParallelRefIterator<'data> for [T] {
    type Iter = ParSlice<'data, T>;

    fn par_iter(&'data self) -> ParSlice<'data, T> {
        ParSlice { data: self }
    }
}

/// Conversion into a [`ParallelIterator`] by value (`.into_par_iter()`).
pub trait IntoParallelIterator {
    /// Element type.
    type Item: Send;
    /// Pipeline yielded by [`into_par_iter`](Self::into_par_iter).
    type Iter: ParallelIterator<Item = Self::Item>;

    /// Consumes `self` into a parallel iterator.
    fn into_par_iter(self) -> Self::Iter;
}

impl<T: Send> IntoParallelIterator for Vec<T> {
    type Item = T;
    type Iter = ParVec<T>;

    fn into_par_iter(self) -> ParVec<T> {
        ParVec { data: self }
    }
}

/// Collection types buildable from a [`ParallelIterator`].
pub trait FromParallelIterator<T: Send>: Sized {
    /// Executes `iter` and assembles the result in input order.
    fn from_par_iter<I: ParallelIterator<Item = T>>(iter: I) -> Self;
}

impl<T: Send> FromParallelIterator<T> for Vec<T> {
    fn from_par_iter<I: ParallelIterator<Item = T>>(iter: I) -> Self {
        let chunks = pool::run(iter);
        let total = chunks.iter().map(Vec::len).sum();
        let mut out = Vec::with_capacity(total);
        for chunk in chunks {
            out.extend(chunk);
        }
        out
    }
}

// --- sources -----------------------------------------------------------

/// Borrowing source over a slice (`.par_iter()`). Doubles as its own
/// [`Source`]: a chunk is just a subslice iterator.
#[derive(Debug)]
pub struct ParSlice<'data, T> {
    data: &'data [T],
}

impl<'data, T: Sync + 'data> ParallelIterator for ParSlice<'data, T> {
    type Item = &'data T;
    type Source = Self;

    fn input_len(&self) -> usize {
        self.data.len()
    }

    fn into_source(self, _chunk_size: usize) -> Self {
        self
    }
}

impl<'data, T: Sync + 'data> Source for ParSlice<'data, T> {
    type Item = &'data T;
    type ChunkIter<'s>
        = std::slice::Iter<'data, T>
    where
        Self: 's;

    fn chunk_iter(&self, range: Range<usize>) -> std::slice::Iter<'data, T> {
        let end = range.end.min(self.data.len());
        self.data[range.start.min(end)..end].iter()
    }
}

/// Owning source over a vector (`.into_par_iter()`).
#[derive(Debug)]
pub struct ParVec<T> {
    data: Vec<T>,
}

impl<T: Send> ParallelIterator for ParVec<T> {
    type Item = T;
    type Source = VecSource<T>;

    fn input_len(&self) -> usize {
        self.data.len()
    }

    fn into_source(self, chunk_size: usize) -> VecSource<T> {
        let chunk_size = chunk_size.max(1);
        let mut bins = Vec::with_capacity(self.data.len().div_ceil(chunk_size));
        let mut source = self.data.into_iter();
        loop {
            let bin: Vec<T> = source.by_ref().take(chunk_size).collect();
            if bin.is_empty() {
                break;
            }
            bins.push(Mutex::new(Some(bin.into_iter())));
        }
        VecSource { chunk_size, bins }
    }
}

/// Frozen by-value source: elements pre-split into per-chunk bins at
/// freeze time (preserving move semantics — no `Clone` bound on
/// `into_par_iter`). Each bin sits behind its own `Mutex<Option<..>>`
/// so a `&self` chunk claim can move it out; the lock is an ownership
/// formality, never contended — the pool's band cursors already
/// guarantee each chunk index is claimed by exactly one worker.
#[derive(Debug)]
pub struct VecSource<T> {
    chunk_size: usize,
    bins: Vec<Mutex<Option<std::vec::IntoIter<T>>>>,
}

impl<T: Send> Source for VecSource<T> {
    type Item = T;
    type ChunkIter<'s>
        = std::vec::IntoIter<T>
    where
        Self: 's;

    fn chunk_iter(&self, range: Range<usize>) -> std::vec::IntoIter<T> {
        let k = range.start / self.chunk_size;
        self.bins
            .get(k)
            .and_then(|bin| {
                bin.lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .take()
            })
            .unwrap_or_default()
    }
}

// --- adaptors ----------------------------------------------------------

/// Element-wise transformation (see [`ParallelIterator::map`]).
#[derive(Debug)]
pub struct Map<I, F> {
    base: I,
    f: F,
}

impl<I, F, R> ParallelIterator for Map<I, F>
where
    I: ParallelIterator,
    R: Send,
    F: Fn(I::Item) -> R + Send + Sync,
{
    type Item = R;
    type Source = MapSource<I::Source, F>;

    fn input_len(&self) -> usize {
        self.base.input_len()
    }

    fn seq_floor(&self) -> usize {
        self.base.seq_floor()
    }

    fn into_source(self, chunk_size: usize) -> MapSource<I::Source, F> {
        MapSource {
            base: self.base.into_source(chunk_size),
            f: self.f,
        }
    }
}

/// Frozen [`Map`]: shares one closure across all chunks by reference.
#[derive(Debug)]
pub struct MapSource<S, F> {
    base: S,
    f: F,
}

impl<S, F, R> Source for MapSource<S, F>
where
    S: Source,
    R: Send,
    F: Fn(S::Item) -> R + Send + Sync,
{
    type Item = R;
    type ChunkIter<'s>
        = MapChunk<'s, S::ChunkIter<'s>, F>
    where
        Self: 's;

    fn chunk_iter(&self, range: Range<usize>) -> MapChunk<'_, S::ChunkIter<'_>, F> {
        MapChunk {
            base: self.base.chunk_iter(range),
            f: &self.f,
        }
    }
}

/// Per-chunk iterator of [`MapSource`].
#[derive(Debug)]
pub struct MapChunk<'s, C, F> {
    base: C,
    f: &'s F,
}

impl<C, F, R> Iterator for MapChunk<'_, C, F>
where
    C: Iterator,
    F: Fn(C::Item) -> R,
{
    type Item = R;

    fn next(&mut self) -> Option<R> {
        self.base.next().map(|x| (self.f)(x))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.base.size_hint()
    }
}

/// Order-preserving flatten of per-element sequential iterators (see
/// [`ParallelIterator::flat_map_iter`]).
#[derive(Debug)]
pub struct FlatMapIter<I, F> {
    base: I,
    f: F,
}

impl<I, F, U> ParallelIterator for FlatMapIter<I, F>
where
    I: ParallelIterator,
    U: IntoIterator,
    U::Item: Send,
    F: Fn(I::Item) -> U + Send + Sync,
{
    type Item = U::Item;
    type Source = FlatMapSource<I::Source, F>;

    fn input_len(&self) -> usize {
        self.base.input_len()
    }

    fn seq_floor(&self) -> usize {
        self.base.seq_floor()
    }

    fn into_source(self, chunk_size: usize) -> FlatMapSource<I::Source, F> {
        FlatMapSource {
            base: self.base.into_source(chunk_size),
            f: self.f,
        }
    }
}

/// Frozen [`FlatMapIter`].
#[derive(Debug)]
pub struct FlatMapSource<S, F> {
    base: S,
    f: F,
}

impl<S, F, U> Source for FlatMapSource<S, F>
where
    S: Source,
    U: IntoIterator,
    U::Item: Send,
    F: Fn(S::Item) -> U + Send + Sync,
{
    type Item = U::Item;
    type ChunkIter<'s>
        = FlatMapChunk<'s, S::ChunkIter<'s>, F, U>
    where
        Self: 's;

    fn chunk_iter(&self, range: Range<usize>) -> FlatMapChunk<'_, S::ChunkIter<'_>, F, U> {
        FlatMapChunk {
            base: self.base.chunk_iter(range),
            f: &self.f,
            current: None,
        }
    }
}

/// Per-chunk iterator of [`FlatMapSource`].
#[derive(Debug)]
pub struct FlatMapChunk<'s, C, F, U: IntoIterator> {
    base: C,
    f: &'s F,
    current: Option<U::IntoIter>,
}

impl<C, F, U> Iterator for FlatMapChunk<'_, C, F, U>
where
    C: Iterator,
    U: IntoIterator,
    F: Fn(C::Item) -> U,
{
    type Item = U::Item;

    fn next(&mut self) -> Option<U::Item> {
        loop {
            if let Some(current) = &mut self.current {
                if let Some(x) = current.next() {
                    return Some(x);
                }
            }
            self.current = Some((self.f)(self.base.next()?).into_iter());
        }
    }
}

/// Size-aware dispatch floor (see [`ParallelIterator::seq_below`]).
/// Pass-through in every respect except [`ParallelIterator::seq_floor`]:
/// the chunk grid, the source and the element stream are untouched.
#[derive(Debug)]
pub struct SeqBelow<I> {
    base: I,
    n: usize,
}

impl<I: ParallelIterator> ParallelIterator for SeqBelow<I> {
    type Item = I::Item;
    type Source = I::Source;

    fn input_len(&self) -> usize {
        self.base.input_len()
    }

    fn seq_floor(&self) -> usize {
        self.base.seq_floor().max(self.n)
    }

    fn into_source(self, chunk_size: usize) -> I::Source {
        self.base.into_source(chunk_size)
    }
}

/// Per-chunk accumulator pipeline (see [`ParallelIterator::fold`]).
#[derive(Debug)]
pub struct Fold<I, ID, F> {
    base: I,
    identity: ID,
    fold_op: F,
}

impl<I, A, ID, F> ParallelIterator for Fold<I, ID, F>
where
    I: ParallelIterator,
    A: Send,
    ID: Fn() -> A + Send + Sync,
    F: Fn(A, I::Item) -> A + Send + Sync,
{
    type Item = A;
    type Source = FoldSource<I::Source, ID, F>;

    fn input_len(&self) -> usize {
        self.base.input_len()
    }

    fn seq_floor(&self) -> usize {
        self.base.seq_floor()
    }

    fn into_source(self, chunk_size: usize) -> FoldSource<I::Source, ID, F> {
        FoldSource {
            base: self.base.into_source(chunk_size),
            identity: self.identity,
            fold_op: self.fold_op,
        }
    }
}

/// Frozen [`Fold`]: a chunk yields its accumulator once. The fold runs
/// inside [`Source::chunk_iter`], i.e. on the worker that claimed the
/// chunk.
#[derive(Debug)]
pub struct FoldSource<S, ID, F> {
    base: S,
    identity: ID,
    fold_op: F,
}

impl<S, A, ID, F> Source for FoldSource<S, ID, F>
where
    S: Source,
    A: Send,
    ID: Fn() -> A + Send + Sync,
    F: Fn(A, S::Item) -> A + Send + Sync,
{
    type Item = A;
    type ChunkIter<'s>
        = std::iter::Once<A>
    where
        Self: 's;

    fn chunk_iter(&self, range: Range<usize>) -> std::iter::Once<A> {
        let mut acc = (self.identity)();
        for x in self.base.chunk_iter(range) {
            acc = (self.fold_op)(acc, x);
        }
        std::iter::once(acc)
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
    use super::*;
    use crate::with_thread_count;

    #[test]
    fn sum_stable_is_bit_identical_across_thread_counts() {
        // Magnitudes spread over ~12 orders so any re-association of
        // the additions changes low-order mantissa bits.
        let xs: Vec<f64> = (0..10_000)
            .map(|i| 1.0 + (i as f64) * 1e-12 + ((i % 7) as f64) * 1e3)
            .collect();
        let baseline = with_thread_count(1, || xs.par_iter().map(|&x| x).sum_stable());
        for threads in [2, 4, 0] {
            let got = if threads == 0 {
                xs.par_iter().map(|&x| x).sum_stable()
            } else {
                with_thread_count(threads, || xs.par_iter().map(|&x| x).sum_stable())
            };
            assert_eq!(baseline.to_bits(), got.to_bits());
        }
    }

    #[test]
    fn sum_stable_f32_zero_and_add() {
        let xs: Vec<f32> = vec![0.1, 0.2, 0.3];
        let a = with_thread_count(1, || xs.par_iter().map(|&x| x).sum_stable());
        let b = with_thread_count(3, || xs.par_iter().map(|&x| x).sum_stable());
        assert_eq!(a.to_bits(), b.to_bits());
    }

    #[test]
    fn vec_source_moves_elements_without_cloning() {
        // A type without `Clone`: by-value pipelines must still work,
        // proving the frozen source hands elements over by move.
        #[derive(Debug, PartialEq)]
        struct NoClone(usize);
        let data: Vec<NoClone> = (0..100).map(NoClone).collect();
        let out: Vec<usize> =
            with_thread_count(4, || data.into_par_iter().map(|x| x.0 * 2).collect());
        assert_eq!(out, (0..100).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn sources_replay_exact_ranges() {
        let v: Vec<u32> = (0..50).collect();
        let slice_src = v.par_iter().into_source(16);
        let got: Vec<&u32> = slice_src.chunk_iter(16..32).collect();
        assert_eq!(got, v[16..32].iter().collect::<Vec<_>>());
        // Out-of-grid tails clamp instead of panicking.
        assert_eq!(slice_src.chunk_iter(48..64).count(), 2);

        let vec_src = v.clone().into_par_iter().into_source(16);
        let got: Vec<u32> = vec_src.chunk_iter(16..32).collect();
        assert_eq!(got, (16..32).collect::<Vec<_>>());
        // A bin is consumable exactly once; re-claims come back empty.
        assert_eq!(vec_src.chunk_iter(16..32).count(), 0);
    }
}
