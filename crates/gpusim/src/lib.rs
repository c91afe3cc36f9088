//! A simulated GPU execution substrate.
//!
//! The paper's RAJAPerf kernels have CUDA/HIP/SYCL variants that execute on
//! real accelerators. This container has no GPU, so this crate provides the
//! closest synthetic equivalent that exercises the same *code structure*: a
//! device with a grid/block/thread launch hierarchy, per-block shared memory,
//! block-level barriers, and a warp width — executed on the host CPU (blocks
//! optionally in parallel via rayon, threads within a block sequentially in
//! barrier-delimited *phases*).
//!
//! What this preserves from the real thing:
//!
//! * Tiled/blocked kernel algorithms (e.g. `MAT_MAT_SHARED`'s shared-memory
//!   tile loop) run exactly as written for a GPU: load-tile phase, barrier,
//!   compute phase, barrier.
//! * Launch configuration (block size tunings — RAJAPerf's GPU `tunings`) is
//!   a first-class parameter, so block-size sweeps remain meaningful.
//! * The device counts launches / blocks / threads, which the performance
//!   model uses for launch-overhead-bound kernels (the paper's Comm HALO
//!   analysis) and which Nsight-Compute-style metrics are derived from.
//!
//! What it deliberately does not do: cycle-level SM simulation. Cache
//! transaction counts for the instruction-roofline analysis are computed
//! analytically in the `perfmodel` crate from each kernel's access
//! descriptors, mirroring how the paper derives them from hardware counters.
//!
//! # Example
//! ```
//! use gpusim::{LaunchConfig, launch};
//! let n = 1000usize;
//! let mut out = vec![0.0f64; n];
//! let cfg = LaunchConfig::linear(n, 256);
//! let out_ptr = gpusim::DevicePtr::new(&mut out);
//! launch(&cfg, |block| {
//!     block.threads(|t, _shared| {
//!         let i = t.global_id_x();
//!         if i < n {
//!             unsafe { out_ptr.write(i, i as f64 * 2.0) };
//!         }
//!     });
//! });
//! assert_eq!(out[10], 20.0);
//! ```

use std::cell::Cell;
use std::ops::{Deref, DerefMut, Index, IndexMut};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

pub mod occupancy;
pub mod sanitizer;
pub(crate) mod shadow;
pub mod txn;

/// Threads per warp, matching NVIDIA/AMD-GCN warp/wavefront granularity used
/// by the paper's instruction-roofline metrics (warp instructions = thread
/// instructions / 32).
pub const WARP_SIZE: usize = 32;

/// Default thread-block size used by RAJAPerf GPU tunings.
pub const DEFAULT_BLOCK_SIZE: usize = 256;

/// A 3-component launch dimension.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Dim3 {
    /// Fastest-varying dimension.
    pub x: usize,
    /// Middle dimension.
    pub y: usize,
    /// Slowest-varying dimension.
    pub z: usize,
}

impl Dim3 {
    /// A 1-D dimension `(x, 1, 1)`.
    pub const fn d1(x: usize) -> Dim3 {
        Dim3 { x, y: 1, z: 1 }
    }

    /// A 2-D dimension `(x, y, 1)`.
    pub const fn d2(x: usize, y: usize) -> Dim3 {
        Dim3 { x, y, z: 1 }
    }

    /// A 3-D dimension.
    pub const fn d3(x: usize, y: usize, z: usize) -> Dim3 {
        Dim3 { x, y, z }
    }

    /// Total element count.
    pub const fn total(&self) -> usize {
        self.x * self.y * self.z
    }
}

/// A kernel launch configuration: grid of blocks, threads per block, and the
/// per-block shared-memory allocation in `f64` words.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaunchConfig {
    /// Number of blocks in each grid dimension.
    pub grid: Dim3,
    /// Number of threads in each block dimension.
    pub block: Dim3,
    /// Shared memory per block, in `f64` words.
    pub shared_f64: usize,
}

impl LaunchConfig {
    /// 1-D config covering `n` elements with `block_size` threads per block
    /// (grid size rounded up), the standard RAJAPerf GPU mapping.
    pub fn linear(n: usize, block_size: usize) -> LaunchConfig {
        assert!(block_size > 0, "block size must be positive");
        LaunchConfig {
            grid: Dim3::d1(n.div_ceil(block_size).max(1)),
            block: Dim3::d1(block_size),
            shared_f64: 0,
        }
    }

    /// Explicit grid/block config.
    pub fn grid_block(grid: Dim3, block: Dim3) -> LaunchConfig {
        LaunchConfig {
            grid,
            block,
            shared_f64: 0,
        }
    }

    /// Set the shared-memory allocation (in `f64` words).
    pub fn with_shared_f64(mut self, words: usize) -> LaunchConfig {
        self.shared_f64 = words;
        self
    }
}

/// Identity of one thread within an executing block.
#[derive(Debug, Clone, Copy)]
pub struct ThreadCtx {
    /// Thread index within the block.
    pub thread_idx: Dim3,
    /// Block index within the grid.
    pub block_idx: Dim3,
    /// Block dimensions.
    pub block_dim: Dim3,
    /// Grid dimensions.
    pub grid_dim: Dim3,
}

impl ThreadCtx {
    /// Global 1-D thread id: `block_idx.x * block_dim.x + thread_idx.x`.
    #[inline]
    pub fn global_id_x(&self) -> usize {
        self.block_idx.x * self.block_dim.x + self.thread_idx.x
    }

    /// Global thread id in y.
    #[inline]
    pub fn global_id_y(&self) -> usize {
        self.block_idx.y * self.block_dim.y + self.thread_idx.y
    }

    /// Global thread id in z.
    #[inline]
    pub fn global_id_z(&self) -> usize {
        self.block_idx.z * self.block_dim.z + self.thread_idx.z
    }

    /// Flat thread index within the block.
    #[inline]
    pub fn flat_thread(&self) -> usize {
        (self.thread_idx.z * self.block_dim.y + self.thread_idx.y) * self.block_dim.x
            + self.thread_idx.x
    }

    /// Warp index of this thread within its block.
    #[inline]
    pub fn warp(&self) -> usize {
        self.flat_thread() / WARP_SIZE
    }
}

/// The block's shared-memory allocation, handed to every thread of a phase.
///
/// Element access with `shared[i]` goes through [`Index`]/[`IndexMut`] and
/// is observed by the sanitizer (see [`sanitizer`]) for barrier-hazard
/// detection; slice-wide operations are available through `Deref<[f64]>`
/// but bypass instrumentation, like casting away `volatile` in CUDA.
pub struct SharedMem {
    data: Vec<f64>,
}

thread_local! {
    /// Per-host-thread scratch arena backing [`SharedMem`]. Each block
    /// borrows the arena for its lifetime and returns it on completion, so
    /// steady-state launches perform no shared-memory allocation at all —
    /// the buffer is re-zeroed on reuse to preserve the device's zero-init
    /// semantics. Blocks run one at a time per host thread, so a single
    /// buffer per thread suffices; a nested launch inside a block body
    /// simply falls back to a fresh allocation for the inner blocks.
    static SHARED_ARENA: Cell<Vec<f64>> = const { Cell::new(Vec::new()) };
}

impl SharedMem {
    /// Take the thread's arena, zeroed to `words` elements.
    fn acquire(words: usize) -> SharedMem {
        let mut data = SHARED_ARENA.with(Cell::take);
        data.clear();
        data.resize(words, 0.0);
        SharedMem { data }
    }

    /// Return the backing buffer to the thread's arena for the next block.
    fn release(self) {
        SHARED_ARENA.with(|a| a.set(self.data));
    }

    /// Allocation size in `f64` words.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the block has no shared memory.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }
}

impl Index<usize> for SharedMem {
    type Output = f64;

    #[inline]
    fn index(&self, i: usize) -> &f64 {
        if sanitizer::active() {
            sanitizer::on_shared_read(i);
        }
        &self.data[i]
    }
}

impl IndexMut<usize> for SharedMem {
    #[inline]
    fn index_mut(&mut self, i: usize) -> &mut f64 {
        if sanitizer::active() {
            sanitizer::on_shared_write(i);
        }
        &mut self.data[i]
    }
}

impl Deref for SharedMem {
    type Target = [f64];

    fn deref(&self) -> &[f64] {
        &self.data
    }
}

impl DerefMut for SharedMem {
    fn deref_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }
}

/// Execution context for one thread block.
///
/// A block's threads run sequentially inside each [`BlockCtx::threads`] call;
/// successive calls are separated by an implicit block-level barrier
/// (`__syncthreads()`), which is exactly the programming discipline barriered
/// CUDA kernels follow.
pub struct BlockCtx {
    /// Index of this block within the grid.
    pub block_idx: Dim3,
    /// Block dimensions.
    pub block_dim: Dim3,
    /// Grid dimensions.
    pub grid_dim: Dim3,
    shared: SharedMem,
    barriers: Cell<u64>,
}

impl BlockCtx {
    /// Run the body once per thread in the block (a barrier-delimited phase).
    /// The body receives the thread identity and the block's shared memory.
    pub fn threads(&mut self, mut body: impl FnMut(ThreadCtx, &mut SharedMem)) {
        let phase = self.barriers.get();
        if !sanitizer::active() {
            // Raw phase loop: no instrumentation hooks anywhere in the body.
            // 1-D blocks (the overwhelmingly common case) additionally skip
            // the y/z loop nesting so the per-thread work is a single
            // counter increment plus the body call.
            if self.block_dim.y == 1 && self.block_dim.z == 1 {
                for tx in 0..self.block_dim.x {
                    let t = ThreadCtx {
                        // NB: index, not extent — y/z are 0, unlike d1().
                        thread_idx: Dim3::d3(tx, 0, 0),
                        block_idx: self.block_idx,
                        block_dim: self.block_dim,
                        grid_dim: self.grid_dim,
                    };
                    body(t, &mut self.shared);
                }
            } else {
                for tz in 0..self.block_dim.z {
                    for ty in 0..self.block_dim.y {
                        for tx in 0..self.block_dim.x {
                            let t = ThreadCtx {
                                thread_idx: Dim3::d3(tx, ty, tz),
                                block_idx: self.block_idx,
                                block_dim: self.block_dim,
                                grid_dim: self.grid_dim,
                            };
                            body(t, &mut self.shared);
                        }
                    }
                }
            }
        } else {
            for tz in 0..self.block_dim.z {
                for ty in 0..self.block_dim.y {
                    for tx in 0..self.block_dim.x {
                        let t = ThreadCtx {
                            thread_idx: Dim3::d3(tx, ty, tz),
                            block_idx: self.block_idx,
                            block_dim: self.block_dim,
                            grid_dim: self.grid_dim,
                        };
                        sanitizer::on_thread_begin(self.block_idx, t.thread_idx, phase);
                        body(t, &mut self.shared);
                    }
                }
            }
            sanitizer::on_phase_end();
        }
        self.barriers.set(phase + 1);
    }

    /// Number of barrier-delimited phases executed so far (diagnostic).
    pub fn barriers_executed(&self) -> u64 {
        self.barriers.get()
    }

    /// Direct read-only access to the block's shared memory between phases.
    pub fn shared(&self) -> &[f64] {
        &self.shared.data
    }

    /// Direct mutable access to the block's shared memory between phases
    /// (single-threaded from the block's perspective — it models the block
    /// leader initializing shared state followed by a barrier).
    pub fn shared_mut(&mut self) -> &mut [f64] {
        &mut self.shared.data
    }
}

/// Cumulative device statistics since the last [`reset_stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeviceStats {
    /// Kernel launches issued.
    pub launches: u64,
    /// Thread blocks executed.
    pub blocks: u64,
    /// Threads launched, counting grid padding: `grid.total() *
    /// block.total()` per launch, exactly what the hardware schedules.
    pub threads_launched: u64,
    /// Threads that had real work: for [`launch_1d`] the requested `n`
    /// (padding threads fail the bounds guard and retire immediately); for
    /// a bare [`launch`] every thread runs the body, so active = launched.
    pub threads_active: u64,
}

impl DeviceStats {
    /// Threads launched purely as grid-rounding padding (launched − active).
    pub fn threads_padded(&self) -> u64 {
        self.threads_launched - self.threads_active
    }
}

static LAUNCHES: AtomicU64 = AtomicU64::new(0);
static BLOCKS: AtomicU64 = AtomicU64::new(0);
static THREADS_LAUNCHED: AtomicU64 = AtomicU64::new(0);
static THREADS_ACTIVE: AtomicU64 = AtomicU64::new(0);

/// Snapshot the device counters.
pub fn stats() -> DeviceStats {
    DeviceStats {
        launches: LAUNCHES.load(Ordering::Relaxed),
        blocks: BLOCKS.load(Ordering::Relaxed),
        threads_launched: THREADS_LAUNCHED.load(Ordering::Relaxed),
        threads_active: THREADS_ACTIVE.load(Ordering::Relaxed),
    }
}

/// Zero the device counters.
pub fn reset_stats() {
    LAUNCHES.store(0, Ordering::Relaxed);
    BLOCKS.store(0, Ordering::Relaxed);
    THREADS_LAUNCHED.store(0, Ordering::Relaxed);
    THREADS_ACTIVE.store(0, Ordering::Relaxed);
}

/// Record one launch in the device counters. `active` is the number of
/// threads with real work (≤ launched; see [`DeviceStats::threads_active`]).
fn count_launch(cfg: &LaunchConfig, active: u64) {
    // Fault-injection hook, gated like the sanitizer hooks: one thread-local
    // flag load here, the evaluation behind a cold call. Sits
    // before the counters so an injected launch failure counts nothing.
    if simfault::armed() {
        launch_failpoint();
    }
    let nblocks = cfg.grid.total() as u64;
    LAUNCHES.fetch_add(1, Ordering::Relaxed);
    BLOCKS.fetch_add(nblocks, Ordering::Relaxed);
    THREADS_LAUNCHED.fetch_add(nblocks * cfg.block.total() as u64, Ordering::Relaxed);
    THREADS_ACTIVE.fetch_add(active, Ordering::Relaxed);
    // Event-trace hook, gated sanitizer-style: one relaxed atomic load on
    // the launch path, everything else behind a cold call.
    if caliper::trace::enabled() {
        trace_launch();
    }
}

/// Evaluate the `gpusim.launch` failpoint. `launch` returns `()`, so an
/// `err`-mode injection cannot propagate as a `Result`; it surfaces as a
/// panic that keeps the `simfault:` message prefix, which the suite's
/// isolation layer classifies as a *transient* (retryable) failure — the
/// moral equivalent of a `cudaErrorLaunchFailure` return code.
#[cold]
fn launch_failpoint() {
    if let Err(e) = simfault::fail_point("gpusim.launch") {
        panic!("simfault: {e}");
    }
}

/// Emit the per-launch trace events: an instant marker on the launching
/// thread's lane plus the cumulative device counters as Chrome counter
/// tracks. Cold so the trace-off launch path carries only the gate load.
#[cold]
fn trace_launch() {
    caliper::trace::instant_event("gpusim.launch");
    caliper::trace::counter_event("gpusim.launches", LAUNCHES.load(Ordering::Relaxed) as f64);
    caliper::trace::counter_event("gpusim.blocks", BLOCKS.load(Ordering::Relaxed) as f64);
    caliper::trace::counter_event(
        "gpusim.threads_active",
        THREADS_ACTIVE.load(Ordering::Relaxed) as f64,
    );
}

/// Launch a kernel on the simulated device.
///
/// Blocks execute independently — in parallel across the rayon pool when it
/// has more than one thread, sequentially otherwise. The scheduling order is
/// unspecified, as on a real device, so block bodies must not assume
/// inter-block ordering. The body runs once per block with that block's
/// [`BlockCtx`].
///
/// Sanitized launches (an active [`sanitizer`] scope) always run their
/// blocks sequentially on the launching thread: the sanitizer's shadow state
/// is thread-local, and serializing instrumented launches keeps every access
/// observation in one coherent map (the hazard classes it detects are
/// intra-block, so serializing blocks loses no coverage).
pub fn launch<F>(cfg: &LaunchConfig, body: F)
where
    F: Fn(&mut BlockCtx) + Sync,
{
    // Every thread of a bare launch runs the body: active = launched.
    count_launch(cfg, (cfg.grid.total() * cfg.block.total()) as u64);
    if sanitizer::active() {
        launch_blocks_sanitized(cfg, &body);
    } else {
        launch_blocks_raw(cfg, &body);
    }
}

/// Run one block of `cfg` at grid position `(bx, by, bz)`, borrowing the
/// host thread's pooled shared-memory arena for the block's lifetime.
fn run_block<F>(cfg: &LaunchConfig, body: &F, bx: usize, by: usize, bz: usize)
where
    F: Fn(&mut BlockCtx) + Sync,
{
    // Per-block trace events land on the executing thread's lane, giving the
    // trace one span per block per pool worker. Gated like the launch hook.
    let tracing = caliper::trace::enabled();
    if tracing {
        caliper::trace::begin_event("gpusim.block");
    }
    let mut ctx = BlockCtx {
        block_idx: Dim3::d3(bx, by, bz),
        block_dim: cfg.block,
        grid_dim: cfg.grid,
        shared: SharedMem::acquire(cfg.shared_f64),
        barriers: Cell::new(0),
    };
    body(&mut ctx);
    ctx.shared.release();
    if tracing {
        caliper::trace::end_event("gpusim.block");
    }
}

/// The un-instrumented block scheduler: flatten the grid and let the pool
/// schedule blocks. With a one-thread pool this degrades to the same
/// in-order bz/by/bx sweep as the sanitized sequential loop.
fn launch_blocks_raw<F>(cfg: &LaunchConfig, body: &F)
where
    F: Fn(&mut BlockCtx) + Sync,
{
    use rayon::prelude::*;
    let (gx, gy) = (cfg.grid.x, cfg.grid.y);
    (0..cfg.grid.total()).into_par_iter().for_each(|flat| {
        let bx = flat % gx;
        let by = (flat / gx) % gy;
        let bz = flat / (gx * gy);
        run_block(cfg, body, bx, by, bz);
    });
}

/// The instrumented block scheduler, monomorphized separately from
/// [`launch_blocks_raw`] so the raw path carries no sanitizer branches.
/// Blocks run sequentially on the launching thread: the sanitizer's shadow
/// state is thread-local, and the hazard classes it detects are intra-block,
/// so serializing blocks loses no coverage.
#[cold]
fn launch_blocks_sanitized<F>(cfg: &LaunchConfig, body: &F)
where
    F: Fn(&mut BlockCtx) + Sync,
{
    sanitizer::on_launch(cfg);
    for bz in 0..cfg.grid.z {
        for by in 0..cfg.grid.y {
            for bx in 0..cfg.grid.x {
                run_block(cfg, body, bx, by, bz);
            }
        }
    }
}

/// Whether [`launch_1d`] must take its generic block-structured path even
/// when the fast-path conditions hold; toggled with [`force_generic_launch`]
/// (the fast-path equivalence tests flip it to compare both paths in one
/// process).
static FORCE_GENERIC_LAUNCH: AtomicBool = AtomicBool::new(false);

/// True when the 1-D fast path is disabled (see [`force_generic_launch`]).
fn generic_launch_forced() -> bool {
    FORCE_GENERIC_LAUNCH.load(Ordering::Relaxed)
}

/// Force (or re-allow) the generic block-structured path in [`launch_1d`].
/// At pool width 1 the fast path and the generic path produce
/// bitwise-identical results; this switch exists so tests can prove that.
pub fn force_generic_launch(on: bool) {
    FORCE_GENERIC_LAUNCH.store(on, Ordering::Relaxed);
}

/// Convenience: launch a 1-D grid-mapped kernel where each thread handles at
/// most one index `i < n` (RAJAPerf's standard `blockIdx.x * blockDim.x +
/// threadIdx.x` mapping). The body must tolerate concurrent disjoint writes.
///
/// # Fast path
///
/// A 1-D launch with no shared memory and no active [`sanitizer`] scope has
/// no observable block structure: no barriers, no shared state, and a body
/// that only sees its global index. In that case the device runs each
/// block's threads as one tight contiguous-index loop — no per-thread
/// [`ThreadCtx`] construction, no `Dim3` index math, no bounds guard on the
/// padding threads (they are never materialized, though the stats still
/// count them as launched). Work is chunked deterministically across the
/// rayon pool; with a one-thread pool both paths degrade to the same
/// strictly in-order `0..n` sweep, so results are bitwise identical there
/// (call [`force_generic_launch`] to compare — the equivalence tests do
/// exactly that).
pub fn launch_1d<F>(n: usize, block_size: usize, body: F)
where
    F: Fn(usize) + Sync,
{
    let cfg = LaunchConfig::linear(n, block_size);
    count_launch(&cfg, n as u64);
    // An active event trace takes the generic path too: the fast path has no
    // block structure, so it cannot emit the per-block spans the trace is
    // for. Same discipline as the sanitizer gate — one relaxed load here,
    // zero cost while tracing is off.
    if !sanitizer::active() && !generic_launch_forced() && !caliper::trace::enabled() {
        // `for_each_index` drives each pool chunk with a bare counted loop;
        // the par-iter `SpanIter` equivalent costs ~2.4ns/element extra on
        // slice-indexed bodies (measured on Stream_TRIAD), which at stream
        // sizes erases the win from skipping the block machinery.
        rayon::for_each_index(n, &body);
    } else {
        launch_1d_generic(&cfg, n, &body);
    }
}

/// The block-structured execution of [`launch_1d`]: one guarded
/// [`ThreadCtx`] per thread, including grid-padding threads. Used under the
/// sanitizer (which needs the block/thread coordinates) and when
/// [`force_generic_launch`] is set.
fn launch_1d_generic<F>(cfg: &LaunchConfig, n: usize, body: &F)
where
    F: Fn(usize) + Sync,
{
    let wrapped = |block: &mut BlockCtx| {
        block.threads(|t, _| {
            let i = t.global_id_x();
            if i < n {
                body(i);
            }
        });
    };
    if sanitizer::active() {
        launch_blocks_sanitized(cfg, &wrapped);
    } else {
        launch_blocks_raw(cfg, &wrapped);
    }
}

/// A `Send + Sync` raw-pointer wrapper granting GPU-kernel-style unchecked
/// access to a host buffer from device code.
///
/// This is the moral equivalent of the raw device pointers CUDA kernels
/// receive: aliasing discipline is the kernel author's responsibility.
#[derive(Clone, Copy)]
pub struct DevicePtr<T> {
    ptr: *mut T,
    len: usize,
}

// SAFETY: DevicePtr is a capability to perform raw indexed access; the
// `read`/`write` methods carry the actual safety obligations (in-bounds,
// data-race-free access), exactly like a device pointer in CUDA C++.
unsafe impl<T: Send> Send for DevicePtr<T> {}
unsafe impl<T: Sync> Sync for DevicePtr<T> {}

/// Evaluate the `gpusim.ecc` failpoint: an armed `flip` entry models an
/// uncorrected ECC error by flipping one deterministically-chosen bit of the
/// buffer being registered with the device. Kernel buffers are plain numeric
/// data, where any bit pattern is a valid value.
#[cold]
fn ecc_failpoint<T>(slice: &mut [T]) {
    // SAFETY: `slice` is an exclusive borrow and the byte view covers
    // exactly its memory; u8 has no validity or alignment requirements.
    let bytes = unsafe {
        std::slice::from_raw_parts_mut(slice.as_mut_ptr() as *mut u8, std::mem::size_of_val(slice))
    };
    simfault::corrupt_bytes("gpusim.ecc", bytes);
}

impl<T> DevicePtr<T> {
    /// Wrap a host slice for device access. The borrow is logically exclusive
    /// for the duration of the launch.
    pub fn new(slice: &mut [T]) -> DevicePtr<T> {
        if simfault::armed() {
            ecc_failpoint(slice);
        }
        let p = DevicePtr {
            ptr: slice.as_mut_ptr(),
            len: slice.len(),
        };
        if sanitizer::active() {
            // The buffer arrives initialized: clear any stale uninit
            // tracking of this memory from a previous allocation.
            sanitizer::on_alloc_init(p.ptr as usize, p.len * std::mem::size_of::<T>());
        }
        p
    }

    /// Wrap a host slice whose contents are *logically uninitialized*: the
    /// kernel is expected to write every element it later reads. Under an
    /// active [`sanitizer`] scope, reads that precede any write to the same
    /// element are reported as [`sanitizer::HazardKind::UninitRead`]
    /// (the memory itself is real host memory, so the access stays defined
    /// — this models `compute-sanitizer initcheck`, not UB detection).
    pub fn new_uninit(slice: &mut [T]) -> DevicePtr<T> {
        if simfault::armed() {
            ecc_failpoint(slice);
        }
        let p = DevicePtr {
            ptr: slice.as_mut_ptr(),
            len: slice.len(),
        };
        if sanitizer::active() {
            sanitizer::on_alloc_uninit(
                p.ptr as usize,
                p.len * std::mem::size_of::<T>(),
                std::mem::size_of::<T>(),
            );
        }
        p
    }

    /// Length of the underlying buffer.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the underlying buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Read element `i`.
    ///
    /// Under an active [`sanitizer`] scope the access is recorded (race,
    /// bounds, and init checks); an out-of-bounds index is reported and
    /// clamped in bounds so execution stays defined.
    ///
    /// # Safety
    /// `i < len`, and no thread may be concurrently writing element `i`.
    #[inline]
    pub unsafe fn read(&self, i: usize) -> T
    where
        T: Copy,
    {
        let i = if sanitizer::active() {
            sanitizer::on_global_read(self.ptr as usize, std::mem::size_of::<T>(), self.len, i)
        } else {
            i
        };
        debug_assert!(i < self.len, "DevicePtr read out of bounds: {i} >= {}", self.len);
        // SAFETY: the index is in bounds of the allocation the pointer was built
        // from, and each parallel iterate writes a distinct element, so writes
        // never alias.
        unsafe { *self.ptr.add(i) }
    }

    /// Write element `i`.
    ///
    /// Under an active [`sanitizer`] scope the access is recorded (race,
    /// bounds, and init checks); an out-of-bounds index is reported and
    /// clamped in bounds so execution stays defined.
    ///
    /// # Safety
    /// `i < len`, and no other thread may concurrently access element `i`.
    #[inline]
    pub unsafe fn write(&self, i: usize, v: T) {
        let i = if sanitizer::active() {
            sanitizer::on_global_write(self.ptr as usize, std::mem::size_of::<T>(), self.len, i)
        } else {
            i
        };
        debug_assert!(i < self.len, "DevicePtr write out of bounds: {i} >= {}", self.len);
        // SAFETY: the index is in bounds of the allocation the pointer was built
        // from, and each parallel iterate writes a distinct element, so writes
        // never alias.
        unsafe { *self.ptr.add(i) = v };
    }

    /// Get a mutable reference to element `i` (treated as a write by the
    /// [`sanitizer`], which also reports and clamps out-of-bounds indices).
    ///
    /// # Safety
    /// `i < len`, exclusive access to element `i` for the reference lifetime.
    #[inline]
    #[allow(clippy::mut_from_ref)]
    pub unsafe fn at_mut(&self, i: usize) -> &mut T {
        let i = if sanitizer::active() {
            sanitizer::on_global_write(self.ptr as usize, std::mem::size_of::<T>(), self.len, i)
        } else {
            i
        };
        debug_assert!(i < self.len, "DevicePtr at_mut out of bounds: {i} >= {}", self.len);
        // SAFETY: the index is in bounds of the allocation the pointer was built
        // from, and each parallel iterate writes a distinct element, so writes
        // never alias.
        unsafe { &mut *self.ptr.add(i) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_config_rounds_up() {
        let cfg = LaunchConfig::linear(1000, 256);
        assert_eq!(cfg.grid.x, 4);
        assert_eq!(cfg.block.x, 256);
        let cfg = LaunchConfig::linear(1024, 256);
        assert_eq!(cfg.grid.x, 4);
        let cfg = LaunchConfig::linear(0, 256);
        assert_eq!(cfg.grid.x, 1);
    }

    #[test]
    fn launch_1d_covers_exactly_n_indices() {
        let n = 1003;
        let mut hits = vec![0u8; n];
        let p = DevicePtr::new(&mut hits);
        // SAFETY: the index is in bounds of the allocation the pointer was built
        // from, and each parallel iterate writes a distinct element, so writes
        // never alias.
        launch_1d(n, 128, |i| unsafe { p.write(i, p.read(i) + 1) });
        assert!(hits.iter().all(|&h| h == 1));
    }

    #[test]
    fn generic_launch_path_matches_fast_path() {
        let n = 1003;
        let run = |generic: bool| {
            force_generic_launch(generic);
            let mut out = vec![0.0f64; n];
            let p = DevicePtr::new(&mut out);
            // SAFETY: the index is in bounds of the allocation the pointer was built
            // from, and each parallel iterate writes a distinct element, so writes
            // never alias.
            launch_1d(n, 128, |i| unsafe { p.write(i, (i as f64).sin()) });
            force_generic_launch(false);
            out
        };
        let fast = run(false);
        let generic = run(true);
        assert!(fast
            .iter()
            .zip(&generic)
            .all(|(a, b)| a.to_bits() == b.to_bits()));
    }

    #[test]
    fn shared_memory_persists_across_phases() {
        // Per-block reduction into shared[0] in phase 1; read it in phase 2.
        let n = 256;
        let data: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let mut out = vec![0.0f64; 1];
        let out_ptr = DevicePtr::new(&mut out);
        let cfg = LaunchConfig::linear(n, 256).with_shared_f64(1);
        launch(&cfg, |block| {
            block.threads(|t, shared| {
                shared[0] += data[t.global_id_x()];
            });
            block.threads(|t, shared| {
                if t.flat_thread() == 0 {
                    // SAFETY: the index is in bounds of the allocation the pointer was built
                    // from, and each parallel iterate writes a distinct element, so writes
                    // never alias.
                    unsafe { out_ptr.write(0, shared[0]) };
                }
            });
            assert_eq!(block.barriers_executed(), 2);
        });
        assert_eq!(out[0], (0..n).map(|i| i as f64).sum::<f64>());
    }

    #[test]
    fn two_d_thread_identities() {
        let cfg = LaunchConfig::grid_block(Dim3::d2(2, 2), Dim3::d2(4, 4));
        let mut seen = vec![0u8; 8 * 8];
        let p = DevicePtr::new(&mut seen);
        launch(&cfg, |block| {
            block.threads(|t, _| {
                let (gx, gy) = (t.global_id_x(), t.global_id_y());
                // SAFETY: the index is in bounds of the allocation the pointer was built
                // from, and each parallel iterate writes a distinct element, so writes
                // never alias.
                unsafe { p.write(gy * 8 + gx, 1) };
            });
        });
        assert!(seen.iter().all(|&s| s == 1));
    }

    #[test]
    fn warp_index_matches_flat_id() {
        let cfg = LaunchConfig::linear(64, 64);
        launch(&cfg, |block| {
            block.threads(|t, _| {
                assert_eq!(t.warp(), t.flat_thread() / WARP_SIZE);
            });
        });
    }

    #[test]
    fn blocks_have_private_shared_memory() {
        let nblocks = 4;
        let mut firsts = vec![-1.0f64; nblocks];
        let p = DevicePtr::new(&mut firsts);
        let cfg = LaunchConfig::grid_block(Dim3::d1(nblocks), Dim3::d1(8)).with_shared_f64(1);
        launch(&cfg, |block| {
            let bx = block.block_idx.x;
            block.threads(|_, shared| {
                shared[0] += 1.0;
            });
            // 8 threads incremented a zero-initialized private slot.
            assert_eq!(block.shared()[0], 8.0);
            // SAFETY: the index is in bounds of the allocation the pointer was built
            // from, and each parallel iterate writes a distinct element, so writes
            // never alias.
            unsafe { p.write(bx, block.shared()[0]) };
        });
        assert!(firsts.iter().all(|&f| f == 8.0));
    }
}
