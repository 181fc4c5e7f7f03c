//! Host-side data parallelism over mesh blocks.

use crate::pool;

/// Shares a base pointer into a slice with pool workers.
///
/// Soundness contract: the pool claims each index exactly once per region,
/// so every `&mut` produced by [`SharedMut::at`] is to a distinct element.
struct SharedMut<T>(*mut T);

// SAFETY: see the contract above — disjoint indices mean disjoint `&mut`s.
unsafe impl<T> Sync for SharedMut<T> {}

impl<T> SharedMut<T> {
    /// # Safety
    /// `i` must be in bounds and claimed by exactly one thread.
    #[allow(clippy::mut_from_ref)] // aliasing excluded by the index contract
    unsafe fn at(&self, i: usize) -> &mut T {
        &mut *self.0.add(i)
    }
}

/// One block's storage shared with pool workers at row granularity — the
/// stage visit's view of a block that is a *sender* to some workers (they
/// read its interior) while one other worker, the block's own, fills its
/// ghost band and then sweeps it. `T` is `f64` for cell storage; the visit
/// also shares each block's container this way, to hand the claiming
/// worker a shared borrow of it.
///
/// Soundness contract, established by the ghost exchange when it compiles
/// its plan (`vibe_field::RowProgram::compile` checks it per transfer in
/// debug builds): within one dispatch every block's *interior* is read-only
/// for every worker; a block's ghost band, and whatever else of the block
/// is written, belongs to the one worker that claimed the block, which
/// writes a cell before it reads it back. Interior and ghost band are
/// disjoint, so no cell is written while another worker reads or writes
/// it. The lifetime keeps the storage mutably borrowed for as long as any
/// view of it exists.
#[derive(Debug)]
pub struct SharedCells<'a, T = f64> {
    ptr: *mut T,
    len: usize,
    _storage: std::marker::PhantomData<&'a mut [T]>,
}

impl<T> Clone for SharedCells<'_, T> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<T> Copy for SharedCells<'_, T> {}

// SAFETY: a view is a pointer and a length into storage of `T` that
// outlives it and that other threads read (`T: Sync`) or, for the claimed
// part, write (`T: Send`); what may be touched through it from which thread
// is the contract of `read` and `write`, which are `unsafe` to call.
unsafe impl<T: Send + Sync> Send for SharedCells<'_, T> {}
// SAFETY: as above.
unsafe impl<T: Send + Sync> Sync for SharedCells<'_, T> {}

impl<'a, T> SharedCells<'a, T> {
    /// A view of `cells`.
    pub fn new(cells: &'a mut [T]) -> Self {
        Self {
            ptr: cells.as_mut_ptr(),
            len: cells.len(),
            _storage: std::marker::PhantomData,
        }
    }

    /// A view of no cells (a block that is not resident).
    pub fn empty() -> Self {
        Self::new(&mut [])
    }

    /// Number of cells in view.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` for [`SharedCells::empty`].
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The cells `start .. start + len`.
    ///
    /// # Safety
    ///
    /// `start + len <= self.len()`, and no thread writes any of these cells
    /// while the returned slice is alive.
    #[inline(always)]
    pub unsafe fn read(&self, start: usize, len: usize) -> &[T] {
        debug_assert!(start + len <= self.len);
        std::slice::from_raw_parts(self.ptr.add(start), len)
    }

    /// The cells `start .. start + len`, writable.
    ///
    /// # Safety
    ///
    /// `start + len <= self.len()`, and no other thread reads or writes any
    /// of these cells — and this thread holds no other slice of them —
    /// while the returned slice is alive.
    #[inline(always)]
    #[allow(clippy::mut_from_ref)] // aliasing excluded by the contract above
    pub unsafe fn write(&self, start: usize, len: usize) -> &mut [T] {
        debug_assert!(start + len <= self.len);
        std::slice::from_raw_parts_mut(self.ptr.add(start), len)
    }
}

/// Per-driver host execution context of the framework's per-block
/// parallel stages: carries their thread budget.
///
/// `threads == 1` (the default) guarantees the exact inline serial path —
/// results at any thread count are bitwise identical to it because blocks
/// are independent and all cross-block reductions fold per-block partials
/// in block order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecCtx {
    threads: usize,
}

impl Default for ExecCtx {
    fn default() -> Self {
        Self::serial()
    }
}

impl ExecCtx {
    /// Context using up to `threads` OS threads (clamped to at least 1).
    pub fn new(threads: usize) -> Self {
        Self {
            threads: threads.max(1),
        }
    }

    /// The inline single-thread context.
    pub fn serial() -> Self {
        Self::new(1)
    }

    /// Thread budget.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Applies `f` to every element of `items` using up to the thread
    /// budget of OS threads (the persistent [`pool`], caller included),
    /// preserving no particular order. Each item is visited exactly once;
    /// with a budget of 1 (or one item) the loop runs inline, in index
    /// order, with no pool interaction — the serial path is exactly the
    /// plain `for` loop.
    ///
    /// This is the CPU analogue of launching one packed kernel over all
    /// mesh blocks owned by a rank: blocks are independent, so the
    /// per-block bodies run concurrently. Items are claimed dynamically
    /// through an atomic index, so imbalanced per-block costs load-balance
    /// automatically.
    ///
    /// The index of each item is passed alongside the mutable reference.
    pub fn for_each_block<T, F>(&self, items: &mut [T], f: F)
    where
        T: Send,
        F: Fn(usize, &mut T) + Send + Sync,
    {
        let n = items.len();
        if n == 0 {
            return;
        }
        let threads = self.threads.min(n);
        if threads == 1 {
            let start = pool::stats_sampling().then(std::time::Instant::now);
            for (i, item) in items.iter_mut().enumerate() {
                f(i, item);
            }
            if let Some(start) = start {
                pool::stats_record_inline(n, start);
            }
            return;
        }
        let base = SharedMut(items.as_mut_ptr());
        pool::global().run(n, threads, &|i| {
            let item = unsafe { base.at(i) };
            f(i, item);
        });
    }

    /// Like [`ExecCtx::for_each_block`] but collecting one result per
    /// item, in item order regardless of execution order — per-block
    /// partials for the deterministic fixed-order reductions (timestep
    /// minima, history sums).
    pub fn map_blocks<T, R, F>(&self, items: &mut [T], f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(usize, &mut T) -> R + Send + Sync,
    {
        let mut out: Vec<Option<R>> = items.iter().map(|_| None).collect();
        let mut pairs: Vec<(&mut T, &mut Option<R>)> = items.iter_mut().zip(&mut out).collect();
        self.for_each_block(&mut pairs, |i, (item, slot)| **slot = Some(f(i, item)));
        out.into_iter()
            .map(|r| r.expect("every index executed"))
            .collect()
    }

    /// Index-space parallel-for (`f(0), …, f(n-1)`) on the [`global`]
    /// pool with this context's thread budget, blocking until all
    /// complete; inline and in order when the budget is 1.
    ///
    /// [`global`]: pool::global
    pub fn for_each_index(&self, n: usize, f: impl Fn(usize) + Sync) {
        pool::global().run(n, self.threads, &f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// Miri-sized model of the stage visit: two blocks of 2 ghost + 4
    /// interior + 2 ghost cells, each worker filling its own block's ghosts
    /// from the other block's interior, then reading its own cells — ghosts
    /// included — into an array only it owns, concurrently.
    #[test]
    fn shared_cells_fill_ghosts_from_the_other_blocks_interior_then_sweep() {
        let mut blocks = [[0.0f64; 8], [0.0f64; 8]];
        for (b, block) in blocks.iter_mut().enumerate() {
            for (i, cell) in block[2..6].iter_mut().enumerate() {
                *cell = (10 * (b + 1) + i) as f64;
            }
        }
        let mut sums = [[0.0f64; 4]; 2];
        {
            let [a, b] = &mut blocks;
            let views = [SharedCells::new(a), SharedCells::new(b)];
            ExecCtx::new(2).for_each_block(&mut sums, |r, sum| {
                let (recv, send) = (views[r], views[1 - r]);
                // SAFETY: reads are interior cells 2..6 of either block,
                // which nobody writes, and this worker's own ghost cells
                // after it wrote them; writes are ghost cells 0..2 and 6..8
                // of this worker's own block, which nobody else touches.
                unsafe {
                    recv.write(0, 2).copy_from_slice(send.read(4, 2));
                    recv.write(6, 2).copy_from_slice(send.read(2, 2));
                    let (lower, upper) = (recv.read(0, 4), recv.read(4, 4));
                    for (s, (l, u)) in sum.iter_mut().zip(lower.iter().zip(upper)) {
                        *s = l + u;
                    }
                }
            });
        }
        assert_eq!(blocks[0], [22.0, 23.0, 10.0, 11.0, 12.0, 13.0, 20.0, 21.0]);
        assert_eq!(blocks[1], [12.0, 13.0, 20.0, 21.0, 22.0, 23.0, 10.0, 11.0]);
        assert_eq!(sums, [[34.0, 36.0, 30.0, 32.0], [34.0, 36.0, 30.0, 32.0]]);
        assert!(SharedCells::<f64>::empty().is_empty());
    }

    #[test]
    fn visits_every_item_once_inline() {
        let mut v = vec![0u64; 10];
        ExecCtx::new(1).for_each_block(&mut v, |i, x| *x += i as u64 + 1);
        let expected: Vec<u64> = (1..=10).collect();
        assert_eq!(v, expected);
    }

    #[test]
    fn visits_every_item_once_parallel() {
        let mut v = vec![0u64; 1000];
        ExecCtx::new(8).for_each_block(&mut v, |i, x| *x = i as u64 * 3);
        for (i, &x) in v.iter().enumerate() {
            assert_eq!(x, i as u64 * 3);
        }
    }

    #[test]
    fn thread_count_clamped_to_items() {
        let counter = AtomicUsize::new(0);
        let mut v = vec![(); 3];
        ExecCtx::new(64).for_each_block(&mut v, |_, _| {
            counter.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(counter.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn empty_slice_is_noop() {
        let mut v: Vec<u8> = Vec::new();
        ExecCtx::new(4).for_each_block(&mut v, |_, _| panic!("must not run"));
    }

    #[test]
    fn parallel_matches_serial_result() {
        let mut a = vec![1.5f64; 257];
        let mut b = a.clone();
        ExecCtx::new(1).for_each_block(&mut a, |i, x| *x += (i as f64).sin());
        ExecCtx::new(7).for_each_block(&mut b, |i, x| *x += (i as f64).sin());
        assert_eq!(a, b);
    }

    #[test]
    fn heavy_items_load_balance_without_loss() {
        // Mixed cost items: correctness must not depend on scheduling.
        let mut v: Vec<f64> = (0..97).map(|i| i as f64).collect();
        let mut expect = v.clone();
        for x in expect.iter_mut() {
            *x = x.sqrt() + 1.0;
        }
        ExecCtx::new(5).for_each_block(&mut v, |i, x| {
            if i % 7 == 0 {
                std::thread::yield_now();
            }
            *x = x.sqrt() + 1.0;
        });
        assert_eq!(v, expect);
    }

    #[test]
    fn map_results_in_item_order() {
        let mut v: Vec<u32> = (0..333).collect();
        let serial = ExecCtx::new(1).map_blocks(&mut v, |i, x| *x as u64 + i as u64);
        let parallel = ExecCtx::new(6).map_blocks(&mut v, |i, x| *x as u64 + i as u64);
        assert_eq!(serial, parallel);
        assert_eq!(serial[10], 20);
    }

    #[test]
    fn exec_ctx_clamps_and_dispatches() {
        assert_eq!(ExecCtx::new(0).threads(), 1);
        assert_eq!(ExecCtx::default(), ExecCtx::serial());
        let ctx = ExecCtx::new(4);
        let mut v = vec![1.0f64; 64];
        ctx.for_each_block(&mut v, |i, x| *x += i as f64);
        assert_eq!(v[10], 11.0);
        let sums = ctx.map_blocks(&mut v, |_, x| *x * 2.0);
        assert_eq!(sums[10], 22.0);
        let count = AtomicUsize::new(0);
        ctx.for_each_index(17, |_| {
            count.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(count.load(Ordering::SeqCst), 17);
    }
}
