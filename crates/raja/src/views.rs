//! Multi-dimensional data views with permutable and offset layouts.
//!
//! RAJA `View`s decouple a kernel's logical multi-dimensional indexing from
//! the physical memory layout: a `Layout` maps an index tuple to a linear
//! offset, and may permute stride order or add per-dimension offsets
//! (`OffsetLayout`). The suite's `LTIMES`, `NODAL/ZONAL_ACCUMULATION_3D`,
//! `INIT_VIEW1D_OFFSET`, and the finite-element kernels exercise views; the
//! `LTIMES` vs `LTIMES_NOVIEW` pair measures their abstraction cost.
//!
//! [`View`] is `Copy + Send + Sync` and grants GPU-style unchecked access
//! with debug-mode bounds checks, mirroring how RAJA views wrap raw
//! pointers.

/// Maps a `D`-dimensional index tuple to a linear memory offset.
///
/// Strides are derived from extents in *permutation order*: the last entry
/// of the permutation names the stride-1 (fastest) dimension, as in
/// `RAJA::make_permuted_layout`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Layout<const D: usize> {
    extents: [usize; D],
    strides: [usize; D],
    offsets: [isize; D],
}

impl<const D: usize> Layout<D> {
    /// Row-major layout (identity permutation; last dimension fastest).
    pub fn new(extents: [usize; D]) -> Layout<D> {
        let mut perm = [0usize; D];
        for (i, p) in perm.iter_mut().enumerate() {
            *p = i;
        }
        Layout::permuted(extents, perm)
    }

    /// Layout with an explicit dimension permutation. `perm[D-1]` is the
    /// fastest-varying (stride-1) dimension.
    ///
    /// # Panics
    /// Panics if `perm` is not a permutation of `0..D`.
    pub fn permuted(extents: [usize; D], perm: [usize; D]) -> Layout<D> {
        let mut seen = [false; D];
        for &p in &perm {
            assert!(p < D && !seen[p], "invalid layout permutation {perm:?}");
            seen[p] = true;
        }
        let mut strides = [0usize; D];
        let mut stride = 1usize;
        for &dim in perm.iter().rev() {
            strides[dim] = stride;
            stride *= extents[dim];
        }
        Layout {
            extents,
            strides,
            offsets: [0; D],
        }
    }

    /// Offset layout: logical indices run from `begin[d]` to `end[d]`
    /// (exclusive) in each dimension, as in `RAJA::make_offset_layout`.
    pub fn offset(begin: [isize; D], end: [isize; D]) -> Layout<D> {
        let mut extents = [0usize; D];
        for d in 0..D {
            assert!(end[d] >= begin[d], "offset layout end < begin in dim {d}");
            extents[d] = (end[d] - begin[d]) as usize;
        }
        let mut l = Layout::new(extents);
        l.offsets = begin;
        l
    }

    /// Linear offset of the logical index tuple `idx`.
    ///
    /// Debug builds bounds-check each dimension.
    #[inline]
    pub fn index(&self, idx: [isize; D]) -> usize {
        let mut lin = 0usize;
        for d in 0..D {
            let shifted = idx[d] - self.offsets[d];
            debug_assert!(
                shifted >= 0 && (shifted as usize) < self.extents[d],
                "view index {idx:?} out of bounds in dim {d} (extent {}, offset {})",
                self.extents[d],
                self.offsets[d]
            );
            lin += shifted as usize * self.strides[d];
        }
        lin
    }

    /// Per-dimension extents.
    pub fn extents(&self) -> [usize; D] {
        self.extents
    }

    /// Total number of addressable elements.
    pub fn size(&self) -> usize {
        self.extents.iter().product()
    }

    /// Per-dimension strides (elements).
    pub fn strides(&self) -> [usize; D] {
        self.strides
    }
}

/// A `D`-dimensional view over a linear buffer.
///
/// Like a RAJA view, this wraps a raw pointer plus a [`Layout`]; `get`/`set`
/// are `unsafe` with the same obligations as [`gpusim::DevicePtr`]: indices
/// in bounds and no conflicting concurrent access to the same element.
#[derive(Clone, Copy)]
pub struct View<T, const D: usize> {
    ptr: *mut T,
    len: usize,
    layout: Layout<D>,
}

// SAFETY: same justification as DevicePtr — the unsafe accessors carry the
// data-race obligations.
unsafe impl<T: Send, const D: usize> Send for View<T, D> {}
unsafe impl<T: Sync, const D: usize> Sync for View<T, D> {}

impl<T, const D: usize> View<T, D> {
    /// Wrap `data` with `layout`.
    ///
    /// # Panics
    /// Panics if the layout addresses more elements than `data` holds.
    pub fn new(data: &mut [T], layout: Layout<D>) -> View<T, D> {
        assert!(
            layout.size() <= data.len(),
            "layout addresses {} elements but buffer holds {}",
            layout.size(),
            data.len()
        );
        View {
            ptr: data.as_mut_ptr(),
            len: data.len(),
            layout,
        }
    }

    /// The view's layout.
    pub fn layout(&self) -> &Layout<D> {
        &self.layout
    }

    /// Read the element at logical index `idx`.
    ///
    /// # Safety
    /// `idx` in bounds; no concurrent writer of this element.
    #[inline]
    pub unsafe fn get(&self, idx: [isize; D]) -> T
    where
        T: Copy,
    {
        let lin = self.layout.index(idx);
        debug_assert!(lin < self.len);
        // SAFETY: the index is in bounds of the allocation the pointer was built
        // from, and each parallel iterate writes a distinct element, so writes
        // never alias.
        unsafe { *self.ptr.add(lin) }
    }

    /// Write the element at logical index `idx`.
    ///
    /// # Safety
    /// `idx` in bounds; exclusive access to this element.
    #[inline]
    pub unsafe fn set(&self, idx: [isize; D], v: T) {
        let lin = self.layout.index(idx);
        debug_assert!(lin < self.len);
        unsafe { *self.ptr.add(lin) = v };
    }

    /// Add `v` to the element at logical index `idx` (read-modify-write).
    ///
    /// # Safety
    /// Same obligations as [`View::set`].
    #[inline]
    pub unsafe fn add(&self, idx: [isize; D], v: T)
    where
        T: Copy + std::ops::Add<Output = T>,
    {
        let lin = self.layout.index(idx);
        debug_assert!(lin < self.len);
        // SAFETY: the index is in bounds of the allocation the pointer was built
        // from, and each parallel iterate writes a distinct element, so writes
        // never alias.
        unsafe { *self.ptr.add(lin) = *self.ptr.add(lin) + v };
    }
}

/// An array-of-pointers view (RAJA `MultiView`): one logical array whose
/// leading index selects among independent buffers. Exercised by the
/// `ARRAY_OF_PTRS` kernel pattern.
#[derive(Clone, Copy)]
pub struct MultiView<T, const N: usize> {
    ptrs: [*mut T; N],
    len: usize,
}

// SAFETY: the wrapped raw pointer is only dereferenced through unsafe
// accessors whose contracts require in-bounds, data-race-free access; the
// wrapper itself holds no shared mutable state.
unsafe impl<T: Send, const N: usize> Send for MultiView<T, N> {}
// SAFETY: the wrapped raw pointer is only dereferenced through unsafe
// accessors whose contracts require in-bounds, data-race-free access; the
// wrapper itself holds no shared mutable state.
unsafe impl<T: Sync, const N: usize> Sync for MultiView<T, N> {}

impl<T, const N: usize> MultiView<T, N> {
    /// Build from `N` equal-length buffers.
    pub fn new(bufs: [&mut [T]; N]) -> MultiView<T, N> {
        let len = bufs[0].len();
        assert!(
            bufs.iter().all(|b| b.len() == len),
            "MultiView buffers must share a length"
        );
        let mut ptrs = [std::ptr::null_mut(); N];
        for (p, b) in ptrs.iter_mut().zip(bufs) {
            *p = b.as_mut_ptr();
        }
        MultiView { ptrs, len }
    }

    /// Read `bufs[a][i]`.
    ///
    /// # Safety
    /// `a < N`, `i < len`; no concurrent writer of this element.
    #[inline]
    pub unsafe fn get(&self, a: usize, i: usize) -> T
    where
        T: Copy,
    {
        debug_assert!(a < N && i < self.len);
        unsafe { *self.ptrs[a].add(i) }
    }

    /// Write `bufs[a][i]`.
    ///
    /// # Safety
    /// `a < N`, `i < len`; exclusive access to this element.
    #[inline]
    pub unsafe fn set(&self, a: usize, i: usize, v: T) {
        debug_assert!(a < N && i < self.len);
        unsafe { *self.ptrs[a].add(i) = v };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_major_layout_strides() {
        let l = Layout::new([2, 3, 4]);
        assert_eq!(l.strides(), [12, 4, 1]);
        assert_eq!(l.index([0, 0, 0]), 0);
        assert_eq!(l.index([1, 2, 3]), 23);
        assert_eq!(l.size(), 24);
    }

    #[test]
    fn permuted_layout_changes_fastest_dimension() {
        // Permutation (2,1,0): dimension 0 becomes stride-1.
        let l = Layout::permuted([2, 3, 4], [2, 1, 0]);
        assert_eq!(l.strides(), [1, 2, 6]);
        assert_eq!(l.index([1, 0, 0]), 1);
        assert_eq!(l.index([0, 0, 1]), 6);
    }

    #[test]
    fn layout_is_a_bijection() {
        for layout in [Layout::new([3, 4, 5]), Layout::permuted([3, 4, 5], [1, 2, 0])] {
            let mut seen = vec![false; layout.size()];
            for i in 0..3isize {
                for j in 0..4 {
                    for k in 0..5 {
                        let lin = layout.index([i, j, k]);
                        assert!(!seen[lin], "duplicate mapping at {lin}");
                        seen[lin] = true;
                    }
                }
            }
            assert!(seen.iter().all(|&s| s), "layout covers the buffer");
        }
    }

    #[test]
    fn offset_layout_shifts_index_window() {
        let l = Layout::offset([-1, -1], [3, 3]);
        assert_eq!(l.extents(), [4, 4]);
        assert_eq!(l.index([-1, -1]), 0);
        assert_eq!(l.index([2, 2]), 15);
    }

    #[test]
    #[should_panic(expected = "invalid layout permutation")]
    fn bad_permutation_panics() {
        let _ = Layout::permuted([2, 2], [0, 0]);
    }

    #[test]
    fn view_get_set_roundtrip() {
        let mut data = vec![0.0f64; 12];
        let v = View::new(&mut data, Layout::new([3, 4]));
        // SAFETY: indices stay within the extents the device pointers/views were
        // built from, and each parallel iterate touches a disjoint set of output
        // elements, so writes never alias.
        unsafe {
            v.set([2, 1], 42.0);
            assert_eq!(v.get([2, 1]), 42.0);
        }
        assert_eq!(data[2 * 4 + 1], 42.0);
    }

    #[test]
    fn view_add_accumulates() {
        let mut data = vec![1.0f64; 4];
        let v = View::new(&mut data, Layout::new([2, 2]));
        // SAFETY: indices stay within the extents the device pointers/views were
        // built from, and each parallel iterate touches a disjoint set of output
        // elements, so writes never alias.
        unsafe {
            v.add([1, 1], 2.5);
        }
        assert_eq!(data[3], 3.5);
    }

    #[test]
    #[should_panic(expected = "layout addresses")]
    fn oversized_layout_panics() {
        let mut data = vec![0.0f64; 5];
        let _ = View::new(&mut data, Layout::new([3, 4]));
    }

    #[test]
    fn multiview_addresses_separate_buffers() {
        let mut a = vec![0.0f64; 4];
        let mut b = vec![0.0f64; 4];
        let mv = MultiView::new([&mut a, &mut b]);
        // SAFETY: indices stay within the extents the device pointers/views were
        // built from, and each parallel iterate touches a disjoint set of output
        // elements, so writes never alias.
        unsafe {
            mv.set(0, 1, 10.0);
            mv.set(1, 1, 20.0);
            assert_eq!(mv.get(0, 1), 10.0);
            assert_eq!(mv.get(1, 1), 20.0);
        }
        assert_eq!(a[1], 10.0);
        assert_eq!(b[1], 20.0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    #[cfg(debug_assertions)]
    fn view_index_out_of_bounds_is_caught_in_debug() {
        let mut data = vec![0.0f64; 4];
        let v = View::new(&mut data, Layout::new([2, 2]));
        // SAFETY: the index is in bounds of the allocation the pointer was built
        // from, and each parallel iterate writes a distinct element, so writes
        // never alias.
        unsafe { v.set([2, 0], 1.0) };
    }

    #[test]
    fn view_works_inside_forall() {
        use crate::policy::{ExecPolicy, ParExec};
        let (ni, nj) = (16, 16);
        let mut data = vec![0.0f64; ni * nj];
        let v = View::new(&mut data, Layout::new([ni, nj]));
        // SAFETY: indices stay within the extents the device pointers/views were
        // built from, and each parallel iterate touches a disjoint set of output
        // elements, so writes never alias.
        ParExec.forall_2d(0..ni, 0..nj, &|i, j| unsafe {
            v.set([i as isize, j as isize], (i * nj + j) as f64);
        });
        assert_eq!(data[5 * nj + 7], (5 * nj + 7) as f64);
    }
}
