//! Device memory buffers.
//!
//! A [`Buffer<T>`] models `cl_mem`: a linear allocation of scalars that
//! lives in device memory, is created through a [`crate::context::Context`]
//! (which meters total allocation against the device's global memory, and
//! whose running total reproduces the paper's §4.4 footprint verification:
//! "the memory footprint was verified for each benchmark by printing the sum
//! of the size of all memory allocated on the device"), and is accessed by
//! kernels through cheap [`BufView`] handles.
//!
//! Storage is a `Vec` of relaxed atomics (see [`crate::scalar`]), so
//! concurrent work-items reading and writing disjoint elements are sound
//! without locks and without overhead on x86-64.

use crate::context::Meter;
use crate::scalar::Scalar;
use std::sync::Arc;

/// Returns the buffer's bytes to the context's allocation meter when the
/// buffer dies.
#[derive(Debug)]
pub(crate) struct AllocGuard {
    pub(crate) meter: Arc<Meter>,
    pub(crate) bytes: u64,
}

impl Drop for AllocGuard {
    fn drop(&mut self) {
        self.meter.release(self.bytes);
    }
}

/// A device-side linear buffer of `len` scalars of type `T`.
#[derive(Debug)]
pub struct Buffer<T: Scalar> {
    cells: Arc<Vec<T::Atomic>>,
    _guard: Arc<AllocGuard>,
}

// Manual impl: the derive would demand `T::Atomic: Clone`, but cloning a
// Buffer only clones the `Arc` handles.
impl<T: Scalar> Clone for Buffer<T> {
    fn clone(&self) -> Self {
        Self {
            cells: Arc::clone(&self.cells),
            _guard: Arc::clone(&self._guard),
        }
    }
}

impl<T: Scalar> Buffer<T> {
    pub(crate) fn new_with_guard(init: &[T], guard: AllocGuard) -> Self {
        Self::from_cells(init.iter().map(|&v| T::new_cell(v)).collect(), guard)
    }

    /// `len` cells of `T::default()`, built in place: no host-side
    /// staging vector to allocate, fill and read back.
    pub(crate) fn zeroed(len: usize, guard: AllocGuard) -> Self {
        let cells = std::iter::repeat_with(|| T::new_cell(T::default()))
            .take(len)
            .collect();
        Self::from_cells(cells, guard)
    }

    fn from_cells(cells: Vec<T::Atomic>, guard: AllocGuard) -> Self {
        Self {
            cells: Arc::new(cells),
            _guard: Arc::new(guard),
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// True when the buffer holds no elements.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Size in bytes as allocated on the device.
    pub fn bytes(&self) -> u64 {
        (self.len() * T::BYTES) as u64
    }

    /// A kernel-side view of this buffer. Views are cheap (`Arc` clone) and
    /// `Send + Sync`, so kernels capture them by value.
    pub fn view(&self) -> BufView<T> {
        BufView {
            cells: Arc::clone(&self.cells),
        }
    }

    /// Host read of one element (bounds-checked).
    pub fn get(&self, i: usize) -> T {
        T::load(&self.cells[i])
    }

    /// Host write of one element (bounds-checked).
    pub fn set(&self, i: usize, v: T) {
        T::store(&self.cells[i], v)
    }

    /// Copy the whole buffer out to a new `Vec` (host-side convenience; the
    /// metered path is `CommandQueue::enqueue_read_buffer`). Reads each
    /// element with a relaxed atomic load, so it is safe — and merely
    /// possibly stale — even while kernels are writing the buffer.
    pub fn to_vec(&self) -> Vec<T> {
        self.cells.iter().map(|c| T::load(c)).collect()
    }

    /// Overwrite the buffer from a slice of the same length in one
    /// memcpy-style pass (see [`Scalar::store_slice`] for the layout
    /// argument). This is the transfer fast path behind
    /// `CommandQueue::enqueue_write_buffer`.
    ///
    /// # Safety
    ///
    /// The write is non-atomic: no other thread may access any element of
    /// this buffer (through any clone or [`BufView`]) for the duration of
    /// the call — the [`Scalar::store_slice`] contract.
    pub unsafe fn copy_from_slice(&self, data: &[T]) {
        assert_eq!(data.len(), self.len(), "host slice length mismatch");
        // SAFETY: forwarded to the caller.
        unsafe { T::store_slice(&self.cells, data) };
    }

    /// Read the buffer into a slice of the same length in one
    /// memcpy-style pass (see [`Scalar::load_slice`]). This is the
    /// transfer fast path behind `CommandQueue::enqueue_read_buffer`.
    ///
    /// # Safety
    ///
    /// The read is non-atomic: no other thread may *write* any element of
    /// this buffer for the duration of the call — the
    /// [`Scalar::load_slice`] contract. (The safe [`Buffer::to_vec`]
    /// tolerates concurrent writers.)
    pub unsafe fn copy_to_slice(&self, out: &mut [T]) {
        assert_eq!(out.len(), self.len(), "host slice length mismatch");
        // SAFETY: forwarded to the caller.
        unsafe { T::load_slice(&self.cells, out) };
    }
}

/// Kernel-side handle to a buffer: loads and stores with relaxed atomics.
/// Indexing semantics match `__global T*` pointers. The safe per-item
/// accessors [`BufView::get`]/[`BufView::set`] are always bounds-checked
/// (an out-of-bounds index panics, never corrupts memory); kernels whose
/// hot loop has already established its index range can opt into the
/// unchecked variants with an explicit `unsafe` block. The bulk accessors
/// bounds-check once per span but are `unsafe` for a different reason:
/// they copy non-atomically, so the caller must rule out concurrent
/// access to the covered elements.
#[derive(Debug)]
pub struct BufView<T: Scalar> {
    cells: Arc<Vec<T::Atomic>>,
}

impl<T: Scalar> Clone for BufView<T> {
    fn clone(&self) -> Self {
        Self {
            cells: Arc::clone(&self.cells),
        }
    }
}

impl<T: Scalar> BufView<T> {
    /// Number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// True when the view covers no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Load element `i` (bounds-checked; panics past `len()`, as a safe
    /// API must — a kernel index bug is a panic, never memory
    /// corruption).
    #[inline]
    pub fn get(&self, i: usize) -> T {
        T::load(&self.cells[i])
    }

    /// Store element `i` (bounds-checked; see [`BufView::get`]).
    #[inline]
    pub fn set(&self, i: usize, v: T) {
        T::store(&self.cells[i], v)
    }

    /// Load element `i` without a bounds check (checked in debug builds
    /// only; the release fast path is a bare `mov`).
    ///
    /// # Safety
    ///
    /// `i` must be `< self.len()` — an out-of-bounds index is undefined
    /// behaviour, as for an OpenCL global pointer.
    #[inline]
    pub unsafe fn get_unchecked(&self, i: usize) -> T {
        debug_assert!(
            i < self.cells.len(),
            "buffer read at {i} >= len {}",
            self.cells.len()
        );
        // SAFETY: in-bounds is the caller's contract, verified under
        // debug_assertions (the test profile keeps them on).
        T::load(unsafe { self.cells.get_unchecked(i) })
    }

    /// Store element `i` without a bounds check.
    ///
    /// # Safety
    ///
    /// `i` must be `< self.len()`; see [`BufView::get_unchecked`].
    #[inline]
    pub unsafe fn set_unchecked(&self, i: usize, v: T) {
        debug_assert!(
            i < self.cells.len(),
            "buffer write at {i} >= len {}",
            self.cells.len()
        );
        // SAFETY: as in `get_unchecked`.
        T::store(unsafe { self.cells.get_unchecked(i) }, v)
    }

    /// Bulk-read `out.len()` elements starting at `start` in one
    /// memcpy-style pass — the row/tile access path for kernels that
    /// stage a span of device memory into private/local storage.
    /// Equivalent to `out[j] = self.get(start + j)` for all `j`; the
    /// range is bounds-checked (one check for the whole span, panicking
    /// like the safe accessors).
    ///
    /// # Safety
    ///
    /// The covered elements must not be written concurrently (disjoint
    /// concurrent access elsewhere in the buffer is fine); see
    /// [`Scalar::load_slice`]. Kernels typically discharge this by
    /// reading only buffers the launch treats as inputs, or spans their
    /// own work-group exclusively owns.
    #[inline]
    pub unsafe fn read_slice(&self, start: usize, out: &mut [T]) {
        // SAFETY: no-concurrent-writer is forwarded to the caller.
        unsafe { T::load_slice(&self.cells[start..start + out.len()], out) };
    }

    /// Bulk-write `src.len()` elements starting at `start` in one
    /// memcpy-style pass. Equivalent to `self.set(start + j, src[j])`
    /// for all `j`; the range is bounds-checked (one check for the whole
    /// span).
    ///
    /// # Safety
    ///
    /// The covered elements must not be accessed concurrently at all;
    /// see [`Scalar::store_slice`]. Kernels typically discharge this by
    /// writing only the span their own work-group exclusively owns.
    #[inline]
    pub unsafe fn write_slice(&self, start: usize, src: &[T]) {
        // SAFETY: no-concurrent-access is forwarded to the caller.
        unsafe { T::store_slice(&self.cells[start..start + src.len()], src) };
    }

    /// Set every element to `v` in one pass. Equivalent to a full
    /// per-element store loop.
    ///
    /// # Safety
    ///
    /// Same no-concurrent-access contract as [`BufView::write_slice`],
    /// over the whole buffer.
    #[inline]
    pub unsafe fn fill(&self, v: T) {
        // SAFETY: no-concurrent-access is forwarded to the caller.
        unsafe { T::fill_cells(&self.cells, v) };
    }

    /// Borrow `range` as a plain shared slice — the zero-copy read path
    /// for vectorized kernels (see [`crate::vecops`]). Unlike
    /// [`BufView::read_slice`] nothing is staged: the slice aliases device
    /// storage directly, so the compiler sees contiguous `&[T]` loads it
    /// can autovectorize. The range is bounds-checked (panics like the
    /// safe accessors).
    ///
    /// # Safety
    ///
    /// The covered elements must not be *written* for the borrow's
    /// lifetime (concurrent readers are fine; writes elsewhere in the
    /// buffer are fine) — the [`Scalar::load_slice`] contract, held open
    /// instead of paid per copy. Vectorized kernels discharge this by
    /// slicing only launch inputs, or spans their own `run_span` call
    /// exclusively owns.
    #[inline]
    pub unsafe fn slice(&self, range: std::ops::Range<usize>) -> &[T] {
        const { T::LAYOUT_COMPAT };
        let cells = &self.cells[range];
        // SAFETY: LAYOUT_COMPAT proves the cell array is bit-compatible
        // with a scalar array; the caller rules out concurrent writers to
        // the covered cells, so non-atomic reads through the reborrow
        // cannot race.
        unsafe { std::slice::from_raw_parts(cells.as_ptr().cast::<T>(), cells.len()) }
    }

    /// Borrow `range` as a plain mutable slice — the zero-copy write path
    /// for vectorized kernels. The range is bounds-checked.
    ///
    /// # Safety
    ///
    /// The covered elements must not be accessed *at all* by anyone else
    /// for the borrow's lifetime (disjoint access elsewhere in the buffer
    /// is fine) — the [`Scalar::store_slice`] contract, held open.
    /// Vectorized kernels discharge this by mutably slicing only the span
    /// their own `run_span` call exclusively owns; the backend hands out
    /// disjoint spans. Callers must also not request overlapping `slice`/
    /// `slice_mut` borrows of the same elements from one view.
    #[inline]
    #[allow(clippy::mut_from_ref)] // interior mutability: cells are atomics
    pub unsafe fn slice_mut(&self, range: std::ops::Range<usize>) -> &mut [T] {
        const { T::LAYOUT_COMPAT };
        let cells = &self.cells[range];
        // SAFETY: layout-compat as in `slice`; atomic cells are interior-
        // mutable, so a mutable reborrow derived from a shared reference
        // is permitted, and the caller guarantees exclusive access to the
        // covered cells for the borrow's lifetime.
        unsafe { std::slice::from_raw_parts_mut(cells.as_ptr() as *mut T, cells.len()) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::Ordering;

    fn metered(bytes: u64) -> Arc<Meter> {
        let meter = Arc::<Meter>::default();
        meter.allocated.store(bytes, Ordering::Relaxed);
        meter
    }

    fn test_buffer<T: Scalar>(init: &[T]) -> Buffer<T> {
        let bytes = (init.len() * T::BYTES) as u64;
        let meter = metered(bytes);
        Buffer::new_with_guard(init, AllocGuard { meter, bytes })
    }

    #[test]
    fn roundtrip_host_access() {
        let b = test_buffer(&[1.0f32, 2.0, 3.0]);
        assert_eq!(b.len(), 3);
        assert_eq!(b.bytes(), 12);
        assert_eq!(b.get(1), 2.0);
        b.set(1, 9.0);
        assert_eq!(b.to_vec(), vec![1.0, 9.0, 3.0]);
    }

    #[test]
    fn views_alias_storage() {
        let b = test_buffer(&[0i32; 8]);
        let v = b.view();
        v.set(3, 42);
        assert_eq!(b.get(3), 42);
        assert_eq!(v.len(), 8);
    }

    #[test]
    fn copy_from_and_to_slice() {
        let b = test_buffer(&[0u32; 4]);
        // SAFETY: single-threaded test — no concurrent access.
        unsafe { b.copy_from_slice(&[5, 6, 7, 8]) };
        let mut out = [0u32; 4];
        unsafe { b.copy_to_slice(&mut out) };
        assert_eq!(out, [5, 6, 7, 8]);
    }

    #[test]
    fn view_slice_ops_roundtrip() {
        let b = test_buffer(&[0.0f32; 8]);
        let v = b.view();
        // SAFETY: single-threaded test — no concurrent access.
        unsafe { v.write_slice(2, &[1.0, 2.0, 3.0]) };
        assert_eq!(b.to_vec(), vec![0.0, 0.0, 1.0, 2.0, 3.0, 0.0, 0.0, 0.0]);
        let mut mid = [0.0f32; 4];
        unsafe { v.read_slice(1, &mut mid) };
        assert_eq!(mid, [0.0, 1.0, 2.0, 3.0]);
        unsafe { v.fill(7.5) };
        assert_eq!(b.to_vec(), vec![7.5; 8]);
    }

    #[test]
    fn span_slices_alias_storage() {
        let b = test_buffer(&[1.0f32, 2.0, 3.0, 4.0, 5.0]);
        let v = b.view();
        // SAFETY: single-threaded test — no concurrent access; the two
        // borrows cover disjoint ranges.
        unsafe {
            assert_eq!(v.slice(1..4), &[2.0, 3.0, 4.0]);
            let mid = v.slice_mut(1..4);
            mid[0] = 20.0;
            mid[2] = 40.0;
        }
        assert_eq!(b.to_vec(), vec![1.0, 20.0, 3.0, 40.0, 5.0]);
    }

    #[test]
    #[should_panic(expected = "range end index")]
    fn span_slice_out_of_range_panics() {
        let b = test_buffer(&[0u32; 4]);
        // SAFETY: single-threaded test; must panic on the range check.
        let _ = unsafe { b.view().slice(2..6) };
    }

    #[test]
    #[should_panic(expected = "index out of bounds")]
    fn view_get_out_of_bounds_panics() {
        let b = test_buffer(&[0u32; 4]);
        b.view().get(4);
    }

    #[test]
    #[should_panic(expected = "index out of bounds")]
    fn view_set_out_of_bounds_panics() {
        let b = test_buffer(&[0u32; 4]);
        b.view().set(4, 1);
    }

    #[test]
    #[should_panic(expected = "range end index")]
    fn view_slice_out_of_range_panics() {
        let b = test_buffer(&[0u32; 4]);
        let mut out = [0u32; 3];
        // SAFETY: single-threaded test; the call must panic on the range
        // check before any copy happens.
        unsafe { b.view().read_slice(2, &mut out) };
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_slice_panics() {
        let b = test_buffer(&[0u32; 4]);
        // SAFETY: single-threaded test; panics on the length check.
        unsafe { b.copy_from_slice(&[1, 2]) };
    }

    #[test]
    fn drop_releases_meter() {
        let meter = metered(16);
        {
            let bytes = 16;
            let _b = Buffer::new_with_guard(
                &[0.0f32; 4],
                AllocGuard {
                    meter: Arc::clone(&meter),
                    bytes,
                },
            );
            assert_eq!(meter.allocated.load(Ordering::Relaxed), 16);
        }
        assert_eq!(meter.allocated.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn clones_share_one_guard() {
        let meter = metered(8);
        let b = Buffer::new_with_guard(
            &[0u64],
            AllocGuard {
                meter: Arc::clone(&meter),
                bytes: 8,
            },
        );
        let b2 = b.clone();
        drop(b);
        assert_eq!(
            meter.allocated.load(Ordering::Relaxed),
            8,
            "clone keeps alloc alive"
        );
        drop(b2);
        assert_eq!(meter.allocated.load(Ordering::Relaxed), 0);
    }
}
