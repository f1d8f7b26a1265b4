//! The kernel execution layer: deterministic parallel GEMM and reusable
//! scratch buffers.
//!
//! Every forward pass in the workspace bottoms out in the two GEMM entry
//! points here ([`gemm_into`] / [`gemm_transb_into`]); convolutions lower
//! through `vol2col` into them and the linear head hits them
//! directly. The layer provides three things:
//!
//! 1. **Deterministic parallelism.** A GEMM's output is partitioned into
//!    contiguous flat ranges, one per worker on a [`std::thread::scope`]
//!    pool. Each output element is still accumulated in the exact
//!    sequential `p = 0..k` order, so the result is **bit-identical for
//!    every thread count including 1** — partitioning only decides *who*
//!    computes an element, never the order of the floating-point
//!    additions that produce it. This is the property that lets the
//!    `serve_equivalence` suite pass unmodified at any thread count.
//! 2. **Scratch reuse.** [`KernelScratch`] is a free-list of `f32`
//!    buffers that conv/pool/norm forwards borrow instead of allocating;
//!    once warm, the steady-state classify path performs zero heap
//!    allocations.
//! 3. **Observability.** Registered observers (see
//!    [`register_gemm_observer`]) receive one [`GemmSample`] per GEMM,
//!    which the orchestrator bridges into `nn.gemm.*` telemetry.
//!
//! The thread count ([`threads`]) is resolved on first use: the
//! `SAFECROSS_KERNEL_THREADS` environment variable when set, otherwise
//! the host's available parallelism; [`set_threads`] overrides it. It
//! caps the workers of GEMMs of at least 2²⁴ flops; smaller GEMMs —
//! every classifier GEMM on the frame path — run on the caller's thread,
//! because a thread spawn costs more than it saves there. `1` never
//! spins up a worker at all.
//!
//! The instruction set ([`isa`]) is resolved the same way: detected
//! once ([`Isa::detect`]) unless `SAFECROSS_KERNEL_ISA` or [`set_isa`]
//! overrides it. The f32 inner loops in the crate-private `simd`
//! module are built so dispatch **never changes result bits** —
//! vector lanes are independent output elements and multiplies/adds are
//! never fused — so like the thread count, the ISA is purely a
//! performance knob.

pub(crate) mod simd;

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock, RwLock, Weak};
use std::time::Instant;

pub use simd::Isa;

use crate::{Shape, Tensor};

// ---------------------------------------------------------------------
// Thread configuration
// ---------------------------------------------------------------------

/// Environment variable overriding the kernel worker count.
pub const KERNEL_THREADS_ENV: &str = "SAFECROSS_KERNEL_THREADS";

/// Environment variable forcing the kernel instruction set
/// (`avx2`/`neon`/`scalar`; unsupported values fall back to detection).
pub const KERNEL_ISA_ENV: &str = "SAFECROSS_KERNEL_ISA";

/// `0` means "not resolved yet"; resolved lazily on first use.
static KERNEL_THREADS: AtomicUsize = AtomicUsize::new(0);

/// `0` means "not resolved yet"; otherwise `1 + Isa` encoding below.
static KERNEL_ISA: AtomicUsize = AtomicUsize::new(0);

fn isa_encode(isa: Isa) -> usize {
    match isa {
        Isa::Avx2 => 1,
        Isa::Neon => 2,
        Isa::Scalar => 3,
    }
}

fn isa_decode(code: usize) -> Option<Isa> {
    match code {
        1 => Some(Isa::Avx2),
        2 => Some(Isa::Neon),
        3 => Some(Isa::Scalar),
        _ => None,
    }
}

/// The process-wide kernel worker count. Resolved on first use from
/// `SAFECROSS_KERNEL_THREADS` when set (values below 1 or unparsable
/// are ignored), else the host's available parallelism.
pub fn threads() -> usize {
    let n = KERNEL_THREADS.load(Ordering::Relaxed);
    if n != 0 {
        return n;
    }
    let resolved = std::env::var(KERNEL_THREADS_ENV)
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, usize::from));
    // Racing first calls resolve to the same value; last store wins.
    KERNEL_THREADS.store(resolved, Ordering::Relaxed);
    resolved
}

/// Sets the process-wide kernel worker count (clamped to ≥ 1). The
/// instruction-set setting is left untouched.
///
/// Results are bit-identical at every thread count, so this only trades
/// wall-clock for cores.
pub fn set_threads(threads: usize) {
    KERNEL_THREADS.store(threads.max(1), Ordering::Relaxed);
}

/// The process-wide kernel instruction set. Resolved on first use from
/// `SAFECROSS_KERNEL_ISA` when set (sanitized against host support),
/// else detection.
pub fn isa() -> Isa {
    if let Some(isa) = isa_decode(KERNEL_ISA.load(Ordering::Relaxed)) {
        return isa;
    }
    let resolved = std::env::var(KERNEL_ISA_ENV)
        .ok()
        .and_then(|v| Isa::parse(&v))
        .map_or_else(Isa::detect, Isa::sanitize);
    // Racing first calls resolve to the same value; last store wins.
    KERNEL_ISA.store(isa_encode(resolved), Ordering::Relaxed);
    resolved
}

/// Sets the process-wide kernel instruction set (sanitized against host
/// support). f32 results are bit-identical across instruction sets, so
/// like [`set_threads`] this only trades wall-clock.
pub fn set_isa(isa: Isa) {
    KERNEL_ISA.store(isa_encode(isa.sanitize()), Ordering::Relaxed);
}

// ---------------------------------------------------------------------
// GEMM observers
// ---------------------------------------------------------------------

/// One completed GEMM, as reported to observers.
#[derive(Debug, Clone, Copy)]
pub struct GemmSample {
    /// Output rows.
    pub m: usize,
    /// Inner (reduction) dimension.
    pub k: usize,
    /// Output columns.
    pub n: usize,
    /// Wall-clock time of the call, in milliseconds.
    pub elapsed_ms: f64,
}

impl GemmSample {
    /// Multiply-add operation count (`2·m·k·n`).
    pub fn flops(&self) -> u64 {
        2 * (self.m as u64) * (self.k as u64) * (self.n as u64)
    }
}

/// An observer callback receiving one [`GemmSample`] per GEMM.
pub type GemmObserverFn = dyn Fn(&GemmSample) + Send + Sync;

static OBSERVERS_ACTIVE: AtomicBool = AtomicBool::new(false);

fn observer_registry() -> &'static RwLock<Vec<Weak<GemmObserverFn>>> {
    static REGISTRY: OnceLock<RwLock<Vec<Weak<GemmObserverFn>>>> = OnceLock::new();
    REGISTRY.get_or_init(|| RwLock::new(Vec::new()))
}

/// Registers a GEMM observer. The registry holds only a [`Weak`]
/// reference: the caller keeps the [`Arc`] alive for as long as it wants
/// samples, and dropping it unregisters the observer (dead entries are
/// pruned on the next registration). Observers must not allocate if the
/// zero-allocation classify guarantee matters to the process, and they
/// run on whichever thread issues the GEMM.
pub fn register_gemm_observer(observer: &Arc<GemmObserverFn>) {
    let mut observers = observer_registry()
        .write()
        .expect("gemm observer registry poisoned");
    observers.retain(|w| w.strong_count() > 0);
    observers.push(Arc::downgrade(observer));
    OBSERVERS_ACTIVE.store(true, Ordering::Release);
}

/// Whether at least one observer registration is live (it may since have
/// been dropped; the observe path tolerates that).
fn observers_active() -> bool {
    OBSERVERS_ACTIVE.load(Ordering::Acquire)
}

fn observe(sample: &GemmSample) {
    let observers = observer_registry()
        .read()
        .expect("gemm observer registry poisoned");
    for weak in observers.iter() {
        if let Some(observer) = weak.upgrade() {
            observer(sample);
        }
    }
}

// ---------------------------------------------------------------------
// Scratch arena
// ---------------------------------------------------------------------

/// A reusable free-list of `f32` buffers for allocation-free forwards.
///
/// Layers borrow zero-filled buffers with [`KernelScratch::take`] /
/// [`KernelScratch::take_tensor`] and hand them back with the matching
/// `recycle` calls once downstream consumers are done. `take` picks the
/// smallest pooled buffer whose capacity fits (best fit), falling back
/// to growing the largest one, so after a warm-up pass the pool reaches
/// a fixed point and steady-state traffic never touches the allocator.
///
/// One scratch belongs to one owner — a `SafeCross` session's classify
/// stage, one serve-executor worker — and is **not** `Sync`; sharing
/// across threads would serialise the very work the kernel layer
/// parallelises.
///
/// ```
/// use safecross_tensor::kernel::KernelScratch;
///
/// let mut scratch = KernelScratch::new();
/// let t = scratch.take_tensor(&[2, 3]);
/// assert_eq!(t.dims(), &[2, 3]);
/// assert!(t.data().iter().all(|&v| v == 0.0));
/// scratch.recycle_tensor(t);
/// assert_eq!(scratch.pooled_buffers(), 1);
/// ```
#[derive(Debug, Default)]
pub struct KernelScratch {
    pool: Vec<Vec<f32>>,
    qpool: Vec<Vec<i8>>,
}

impl KernelScratch {
    /// An empty scratch arena.
    pub fn new() -> Self {
        KernelScratch {
            pool: Vec::new(),
            qpool: Vec::new(),
        }
    }

    /// Borrows a zero-filled buffer of exactly `len` elements.
    pub fn take(&mut self, len: usize) -> Vec<f32> {
        // Best fit: the smallest pooled buffer whose capacity suffices.
        let mut best: Option<usize> = None;
        for (i, buf) in self.pool.iter().enumerate() {
            if buf.capacity() >= len
                && best.is_none_or(|j| buf.capacity() < self.pool[j].capacity())
            {
                best = Some(i);
            }
        }
        // Otherwise grow the largest buffer, so repeated warm-up growth
        // concentrates in one allocation instead of fragmenting the pool.
        let best = best.or_else(|| (0..self.pool.len()).max_by_key(|&i| self.pool[i].capacity()));
        let mut buf = match best {
            Some(i) => self.pool.swap_remove(i),
            None => Vec::new(),
        };
        buf.clear();
        buf.resize(len, 0.0);
        buf
    }

    /// Borrows a zero-filled tensor of the given shape.
    pub fn take_tensor(&mut self, dims: &[usize]) -> Tensor {
        let shape = Shape::new(dims);
        Tensor::from_vec(self.take(shape.len()), dims)
    }

    /// Returns a buffer obtained from [`KernelScratch::take`].
    pub fn recycle(&mut self, buf: Vec<f32>) {
        if buf.capacity() > 0 {
            self.pool.push(buf);
        }
    }

    /// Returns a tensor's backing buffer to the pool.
    pub fn recycle_tensor(&mut self, t: Tensor) {
        self.recycle(t.into_vec());
    }

    /// Borrows a zero-filled `i8` buffer of exactly `len` elements —
    /// the quantized-activation counterpart of [`KernelScratch::take`],
    /// pooled separately so the f32 free-list semantics (and the
    /// [`KernelScratch::pooled_buffers`] diagnostic) are untouched.
    pub fn take_q(&mut self, len: usize) -> Vec<i8> {
        let mut best: Option<usize> = None;
        for (i, buf) in self.qpool.iter().enumerate() {
            if buf.capacity() >= len
                && best.is_none_or(|j| buf.capacity() < self.qpool[j].capacity())
            {
                best = Some(i);
            }
        }
        let best = best.or_else(|| (0..self.qpool.len()).max_by_key(|&i| self.qpool[i].capacity()));
        let mut buf = match best {
            Some(i) => self.qpool.swap_remove(i),
            None => Vec::new(),
        };
        buf.clear();
        buf.resize(len, 0);
        buf
    }

    /// Returns a buffer obtained from [`KernelScratch::take_q`].
    pub fn recycle_q(&mut self, buf: Vec<i8>) {
        if buf.capacity() > 0 {
            self.qpool.push(buf);
        }
    }

    /// How many f32 buffers are currently pooled (diagnostic).
    pub fn pooled_buffers(&self) -> usize {
        self.pool.len()
    }

    /// How many i8 buffers are currently pooled (diagnostic).
    pub fn pooled_qbuffers(&self) -> usize {
        self.qpool.len()
    }
}

// ---------------------------------------------------------------------
// GEMM kernels
// ---------------------------------------------------------------------

/// Below this many flops (`2·m·k·n`) the process-wide entry points
/// ([`gemm_into`], [`gemm_transb_into`] and the `qgemm_*` kernels) run a
/// GEMM on the caller's thread even when more workers are configured.
/// A scoped spawn + join costs 25–55 µs per call on a 2-vCPU host, and
/// two workers were slower than one there up to 16.6 M flops, breaking
/// even only at 118 M (DESIGN §9 has the table). So every classifier
/// GEMM on the frame path (the largest, C3D's `conv2`, is 11.1 M flops
/// per clip) stays serial; serving parallelism is the shards', one
/// forward per core. The only GEMMs above the bar are the
/// `YoloProfile::Paper` detector's convs, 44–88 M flops per frame at
/// 160×120 in both training and inference; there two workers ran Table
/// II's YOLO 1.4× faster than one, so they still fan out.
const MIN_PARALLEL_FLOPS: usize = 1 << 24;

/// Column-block width for the inner accumulation loops: one `b` panel of
/// `k × COL_BLOCK` f32 stays resident in L2 while a row block streams
/// over it.
const COL_BLOCK: usize = 1024;

/// Inspects up to 16 evenly-spaced elements of an lhs row and reports
/// whether the row looks sparse (≥ 25 % sampled zeros).
///
/// The historical kernel tested `av == 0.0` on *every* element, which on
/// dense GEMMs (conv weights, im2col patches of raw frames) is a
/// never-taken branch per multiply. Skipping zero rows only pays on
/// genuinely sparse inputs — post-ReLU activations on the lhs, padded
/// patch rows — so the decision is made once per row from a bounded
/// sample. The choice is value-exact: for finite rhs values,
/// accumulating `0.0 * bv` leaves the (never `-0.0`) accumulator
/// bit-unchanged, so the skip and dense loops produce identical bits.
/// And because the decision reads only the row's own values, it is
/// independent of how the output is partitioned across workers.
fn row_is_sparse(row: &[f32]) -> bool {
    let k = row.len();
    if k == 0 {
        return false;
    }
    let samples = k.min(16);
    let mut zeros = 0;
    for s in 0..samples {
        if row[s * k / samples] == 0.0 {
            zeros += 1;
        }
    }
    4 * zeros >= samples
}

/// Computes the flat output elements `[start, start + out.len())` of an
/// `[m, k] × [k, n]` product, overwriting `out`. Each element accumulates
/// in ascending-`p` order regardless of the range split or the route its
/// row takes, and no route changes a bit: runs of dense rows go through
/// [`simd::gemm_tile`] four rows at a time, while the rows a run leaves
/// over, the sparse rows (whose zero-skip is observable on a non-finite
/// rhs) and the partial rows of a flat split keep the [`axpy_range`]
/// loop — and the tile adds in exactly that loop's order.
fn gemm_flat_range(
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    start: usize,
    k: usize,
    n: usize,
    isa: Isa,
) {
    out.fill(0.0);
    if n == 0 {
        return;
    }
    let end = start + out.len();
    // The whole rows of the range, and the partial rows either side.
    let (first, last) = (start.div_ceil(n), end / n);
    if first >= last {
        axpy_range(a, b, out, start, k, n, isa);
        return;
    }
    let (head, rest) = out.split_at_mut(first * n - start);
    let (whole, tail) = rest.split_at_mut((last - first) * n);
    axpy_range(a, b, head, start, k, n, isa);
    axpy_range(a, b, tail, last * n, k, n, isa);
    let mut i = first;
    while i < last {
        let dense = (i..last)
            .take_while(|&r| !row_is_sparse(&a[r * k..(r + 1) * k]))
            .count();
        let tiled = dense - dense % simd::TILE_ROWS;
        // The run, plus the sparse row that ends it.
        let next = (i + dense + 1).min(last);
        let run = &mut whole[(i - first) * n..(next - first) * n];
        let (tile_out, rest) = run.split_at_mut(tiled * n);
        if tiled > 0 {
            simd::gemm_tile(isa, &a[i * k..(i + tiled) * k], b, tile_out, tiled, k, n);
        }
        axpy_range(a, b, rest, (i + tiled) * n, k, n, isa);
        i = next;
    }
}

/// Accumulates the flat output elements `[start, start + out.len())` of
/// an `[m, k] × [k, n]` product into zero-filled `out`: one [`simd::axpy`]
/// per (row, k), skipping zero lhs elements of rows [`row_is_sparse`]
/// flags. [`simd::axpy`] vectorises across independent output columns
/// with non-fused multiply/add, so the ISA cannot change bits.
fn axpy_range(a: &[f32], b: &[f32], out: &mut [f32], start: usize, k: usize, n: usize, isa: Isa) {
    let end = start + out.len();
    let mut pos = start;
    while pos < end {
        let i = pos / n;
        let j0 = pos - i * n;
        let j1 = n.min(j0 + (end - pos));
        let arow = &a[i * k..(i + 1) * k];
        let orow = &mut out[pos - start..pos - start + (j1 - j0)];
        let sparse = row_is_sparse(arow);
        let mut jb = j0;
        while jb < j1 {
            let je = (jb + COL_BLOCK).min(j1);
            let oseg = &mut orow[jb - j0..je - j0];
            for (p, &av) in arow.iter().enumerate() {
                if sparse && av == 0.0 {
                    continue;
                }
                simd::axpy(isa, oseg, av, &b[p * n + jb..p * n + je]);
            }
            jb = je;
        }
        pos += j1 - j0;
    }
}

/// Same contract as [`gemm_flat_range`] for `A × Bᵀ` with `b` stored
/// `[n, k]`: `out[i, j] = Σ_p a[i, p] · b[j, p]`, `p` ascending — the
/// packed-transpose fast path (both operands stream along rows, no
/// materialised transpose). Deliberately **not** SIMD-dispatched: its
/// reduction runs along `p`, so vector lanes would have to split the
/// accumulation and change the rounding sequence. The int8 path covers
/// this shape instead (integer accumulation is order-free).
fn gemm_transb_flat_range(a: &[f32], b: &[f32], out: &mut [f32], start: usize, k: usize, n: usize) {
    for (off, o) in out.iter_mut().enumerate() {
        let pos = start + off;
        let i = pos / n;
        let j = pos - i * n;
        let arow = &a[i * k..(i + 1) * k];
        let brow = &b[j * k..(j + 1) * k];
        let mut acc = 0.0f32;
        for (&av, &bv) in arow.iter().zip(brow) {
            acc += av * bv;
        }
        *o = acc;
    }
}

/// Splits `out` into per-worker contiguous flat ranges and runs `body`
/// on each — on the calling thread when one worker suffices, otherwise
/// on a scoped pool (the caller's thread takes the first range). Ranges
/// are row-aligned when there are at least as many rows as workers;
/// otherwise the flat element range is split directly so wide-and-short
/// outputs (the single-clip conv case) still fan out.
pub(crate) fn partition_out<F>(out: &mut [f32], m: usize, n: usize, workers: usize, body: F)
where
    F: Fn(&mut [f32], usize) + Sync,
{
    let total = out.len();
    debug_assert_eq!(total, m * n);
    if workers <= 1 || total == 0 {
        body(out, 0);
        return;
    }
    let chunk = if m >= workers {
        m.div_ceil(workers) * n
    } else {
        total.div_ceil(workers)
    };
    std::thread::scope(|s| {
        let mut chunks = out.chunks_mut(chunk).enumerate();
        let first = chunks.next();
        let workers: Vec<_> = chunks
            .map(|(w, chunk_out)| {
                let body = &body;
                s.spawn(move || body(chunk_out, w * chunk))
            })
            .collect();
        if let Some((_, chunk_out)) = first {
            body(chunk_out, 0);
        }
        // Join rather than let the scope's end wait: that only waits for
        // the closures to return, and a worker still tearing down holds
        // its malloc arena. A caller that exits before such a straggler
        // gets a different arena on its next run and the freed memory in
        // its old one stays resident (DESIGN §9).
        for worker in workers {
            worker.join().expect("GEMM worker panicked");
        }
    });
}

/// The worker count for a GEMM issued through a process-wide entry
/// point: `threads` (capped at `m·n`) once the GEMM clears
/// [`MIN_PARALLEL_FLOPS`], otherwise 1.
pub(crate) fn effective_workers(m: usize, k: usize, n: usize, threads: usize) -> usize {
    let flops = 2usize.saturating_mul(m).saturating_mul(k).saturating_mul(n);
    if flops < MIN_PARALLEL_FLOPS {
        1
    } else {
        threads.min(m * n)
    }
}

/// `[m, k] × [k, n] → [m, n]`, overwriting `out`, on exactly `threads`
/// workers (capped at `m·n`) whatever the GEMM's size: the serial bar
/// of 2²⁴ flops applies only to [`gemm_into`]. Results are bit-identical
/// for every `threads` value.
///
/// # Panics
///
/// Panics if a slice length disagrees with its dimensions.
pub(crate) fn gemm_into_with_threads(
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    threads: usize,
) {
    assert_eq!(a.len(), m * k, "gemm lhs length mismatch");
    assert_eq!(b.len(), k * n, "gemm rhs length mismatch");
    assert_eq!(out.len(), m * n, "gemm output length mismatch");
    let active_isa = isa();
    partition_out(out, m, n, threads.min(m * n), |chunk, start| {
        gemm_flat_range(a, b, chunk, start, k, n, active_isa);
    });
}

/// `[m, k] × [n, k]ᵀ → [m, n]`, overwriting `out`, on exactly `threads`
/// workers (capped at `m·n`) whatever the GEMM's size. Bit-identical to
/// `a.matmul(&b.transpose())` for finite inputs and for every `threads`
/// value.
///
/// # Panics
///
/// Panics if a slice length disagrees with its dimensions.
pub(crate) fn gemm_transb_into_with_threads(
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    threads: usize,
) {
    assert_eq!(a.len(), m * k, "gemm lhs length mismatch");
    assert_eq!(b.len(), n * k, "gemm rhs length mismatch");
    assert_eq!(out.len(), m * n, "gemm output length mismatch");
    partition_out(out, m, n, threads.min(m * n), |chunk, start| {
        gemm_transb_flat_range(a, b, chunk, start, k, n);
    });
}

/// `[m, k] × [k, n] → [m, n]`, overwriting `out`, using the process-wide
/// thread setting and reporting to registered observers. A GEMM below
/// 2²⁴ flops runs on the caller's thread whatever that setting is.
///
/// # Panics
///
/// Panics if a slice length disagrees with its dimensions.
pub fn gemm_into(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    let workers = effective_workers(m, k, n, threads());
    if !observers_active() {
        gemm_into_with_threads(a, b, out, m, k, n, workers);
        return;
    }
    let t0 = Instant::now();
    gemm_into_with_threads(a, b, out, m, k, n, workers);
    observe(&GemmSample {
        m,
        k,
        n,
        elapsed_ms: t0.elapsed().as_secs_f64() * 1e3,
    });
}

/// `[m, k] × [n, k]ᵀ → [m, n]`, overwriting `out`, using the
/// process-wide thread setting and reporting to registered observers. A
/// GEMM below 2²⁴ flops runs on the caller's thread whatever that
/// setting is.
///
/// # Panics
///
/// Panics if a slice length disagrees with its dimensions.
pub fn gemm_transb_into(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    let workers = effective_workers(m, k, n, threads());
    if !observers_active() {
        gemm_transb_into_with_threads(a, b, out, m, k, n, workers);
        return;
    }
    let t0 = Instant::now();
    gemm_transb_into_with_threads(a, b, out, m, k, n, workers);
    observe(&GemmSample {
        m,
        k,
        n,
        elapsed_ms: t0.elapsed().as_secs_f64() * 1e3,
    });
}

/// The seed kernel, verbatim: (i, k, j) loops with an unconditional
/// zero-skip branch. The reference every path must match bit-for-bit on
/// a finite rhs.
#[cfg(test)]
pub(crate) fn reference_gemm(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        let arow = &a[i * k..(i + 1) * k];
        let orow = &mut out[i * n..(i + 1) * n];
        for (p, &av) in arow.iter().enumerate() {
            if av == 0.0 {
                continue;
            }
            let brow = &b[p * n..(p + 1) * n];
            for (o, &bv) in orow.iter_mut().zip(brow.iter()) {
                *o += av * bv;
            }
        }
    }
    out
}

/// [`reference_gemm`] with its zero-skip confined to the rows
/// [`row_is_sparse`] flags, as the kernel routes them; every other row
/// multiplies its zeros. The two references agree on a finite rhs and
/// part where a zero meets `±inf` or NaN (`0 · inf` is NaN).
#[cfg(test)]
pub(crate) fn reference_gemm_routed(
    a: &[f32],
    b: &[f32],
    m: usize,
    k: usize,
    n: usize,
) -> Vec<f32> {
    let mut out = reference_gemm(a, b, m, k, n);
    for i in (0..m).filter(|&i| !row_is_sparse(&a[i * k..(i + 1) * k])) {
        let orow = &mut out[i * n..(i + 1) * n];
        orow.fill(0.0);
        for (p, &av) in a[i * k..(i + 1) * k].iter().enumerate() {
            for (o, &bv) in orow.iter_mut().zip(&b[p * n..(p + 1) * n]) {
                *o += av * bv;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TensorRng;

    fn random_case(
        seed: u64,
        m: usize,
        k: usize,
        n: usize,
        zero_rate: f32,
    ) -> (Vec<f32>, Vec<f32>) {
        let mut rng = TensorRng::seed_from(seed);
        let mut a = vec![0.0f32; m * k];
        for v in &mut a {
            *v = if rng.unit() < zero_rate {
                0.0
            } else {
                rng.unit() * 2.0 - 1.0
            };
        }
        let mut b = vec![0.0f32; k * n];
        for v in &mut b {
            *v = rng.unit() * 2.0 - 1.0;
        }
        (a, b)
    }

    #[test]
    fn matches_reference_dense_and_sparse() {
        for (seed, m, k, n, zr) in [
            (1u64, 7, 13, 9, 0.0),
            (2, 4, 27, 320, 0.0),
            (3, 16, 33, 40, 0.6),
            (4, 3, 5, 2, 0.95),
        ] {
            let (a, b) = random_case(seed, m, k, n, zr);
            let expect = reference_gemm(&a, &b, m, k, n);
            let mut out = vec![f32::NAN; m * n];
            gemm_into_with_threads(&a, &b, &mut out, m, k, n, 1);
            assert_eq!(out, expect, "serial mismatch at m={m} k={k} n={n}");
        }
    }

    #[test]
    fn thread_count_never_changes_bits() {
        // An explicit count partitions at any size, so workers spawn.
        let (m, k, n) = (16, 64, 160);
        let (a, b) = random_case(7, m, k, n, 0.3);
        let mut expect = vec![0.0f32; m * n];
        gemm_into_with_threads(&a, &b, &mut expect, m, k, n, 1);
        for threads in [2, 4, 7, 32] {
            let mut out = vec![f32::NAN; m * n];
            gemm_into_with_threads(&a, &b, &mut out, m, k, n, threads);
            assert_eq!(out, expect, "threads={threads} changed bits");
        }
    }

    #[test]
    fn wide_single_row_still_partitions() {
        // m < workers forces the flat element-range split mid-row.
        let (m, k, n) = (2, 80, 1024);
        let (a, b) = random_case(9, m, k, n, 0.0);
        let mut expect = vec![0.0f32; m * n];
        gemm_into_with_threads(&a, &b, &mut expect, m, k, n, 1);
        let mut out = vec![f32::NAN; m * n];
        gemm_into_with_threads(&a, &b, &mut out, m, k, n, 8);
        assert_eq!(out, expect);
    }

    #[test]
    fn frame_path_gemms_stay_on_the_callers_thread() {
        // C3D's conv2, the largest classifier GEMM per clip (11.1 M
        // flops), runs serially at any configured count; a 34 M-flop
        // GEMM fans out, capped at its output size.
        assert_eq!(effective_workers(16, 216, 1600, 8), 1);
        assert_eq!(effective_workers(16, 324, 3300, 8), 8);
        assert_eq!(effective_workers(1, 1 << 24, 2, 8), 2);
        assert_eq!(effective_workers(16, 324, 3300, 1), 1);
    }

    #[test]
    fn degenerate_extents() {
        // m = 0: legal on the slice API even though Shape forbids it.
        let mut out: Vec<f32> = Vec::new();
        gemm_into_with_threads(&[], &[1.0, 2.0], &mut out, 0, 2, 1, 4);
        assert!(out.is_empty());
        // k = 0: the product of empty matrices is all zeros.
        let mut out = vec![f32::NAN; 4];
        gemm_into_with_threads(&[], &[], &mut out, 2, 0, 2, 2);
        assert_eq!(out, vec![0.0; 4]);
        // n = 1 and k = 1.
        let mut out = vec![f32::NAN; 3];
        gemm_into_with_threads(&[2.0, 3.0, 4.0], &[5.0], &mut out, 3, 1, 1, 2);
        assert_eq!(out, vec![10.0, 15.0, 20.0]);
    }

    #[test]
    fn transb_matches_explicit_transpose() {
        let (m, k, n) = (5, 33, 12);
        let (a, bt) = random_case(11, m, k, n, 0.2);
        // bt is [k, n] random data; reinterpret as b stored [n, k].
        let b = bt;
        let mut manual = vec![0.0f32; k * n];
        for r in 0..n {
            for c in 0..k {
                manual[c * n + r] = b[r * k + c];
            }
        }
        let expect = reference_gemm(&a, &manual, m, k, n);
        for threads in [1, 3, 8] {
            let mut out = vec![f32::NAN; m * n];
            gemm_transb_into_with_threads(&a, &b, &mut out, m, k, n, threads);
            assert_eq!(out, expect, "transb threads={threads}");
        }
    }

    #[test]
    fn output_is_overwritten_not_accumulated() {
        let mut out = vec![100.0f32; 4];
        gemm_into_with_threads(
            &[1.0, 0.0, 0.0, 1.0],
            &[1.0, 2.0, 3.0, 4.0],
            &mut out,
            2,
            2,
            2,
            1,
        );
        assert_eq!(out, vec![1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn scratch_reuses_capacity() {
        let mut scratch = KernelScratch::new();
        let a = scratch.take(100);
        scratch.recycle(a);
        let b = scratch.take(50);
        assert!(
            b.capacity() >= 100,
            "best fit should hand back the pooled buffer"
        );
        assert_eq!(b.len(), 50);
        assert!(b.iter().all(|&v| v == 0.0));
        scratch.recycle(b);
        // Growth request grows the pooled buffer rather than pooling a new one.
        let c = scratch.take(200);
        assert_eq!(scratch.pooled_buffers(), 0);
        scratch.recycle(c);
        assert_eq!(scratch.pooled_buffers(), 1);
    }

    #[test]
    fn scratch_take_returns_zeroed_after_dirty_recycle() {
        let mut scratch = KernelScratch::new();
        let mut a = scratch.take(8);
        a.iter_mut().for_each(|v| *v = 3.0);
        scratch.recycle(a);
        let b = scratch.take(8);
        assert!(b.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn sparse_heuristic_thresholds() {
        assert!(row_is_sparse(&[0.0; 8]));
        assert!(!row_is_sparse(&[1.0; 8]));
        // Exactly 25 % zeros trips the sparse path.
        assert!(row_is_sparse(&[0.0, 1.0, 1.0, 1.0]));
        assert!(!row_is_sparse(&[0.1, 1.0, 1.0, 1.0]));
        assert!(!row_is_sparse(&[]));
    }

    #[test]
    fn observers_receive_samples_and_unregister_on_drop() {
        use std::sync::atomic::AtomicU64;
        let count = Arc::new(AtomicU64::new(0));
        let flops = Arc::new(AtomicU64::new(0));
        let (c2, f2) = (count.clone(), flops.clone());
        let observer: Arc<GemmObserverFn> = Arc::new(move |s: &GemmSample| {
            c2.fetch_add(1, Ordering::Relaxed);
            f2.fetch_add(s.flops(), Ordering::Relaxed);
        });
        register_gemm_observer(&observer);
        let (a, b) = random_case(5, 3, 4, 5, 0.0);
        let mut out = vec![0.0f32; 15];
        gemm_into(&a, &b, &mut out, 3, 4, 5);
        assert!(count.load(Ordering::Relaxed) >= 1);
        assert!(flops.load(Ordering::Relaxed) >= 2 * 3 * 4 * 5);
        // Dropping the Arc unregisters: the count stops moving.
        drop(observer);
        let seen = count.load(Ordering::Relaxed);
        gemm_into(&a, &b, &mut out, 3, 4, 5);
        assert_eq!(count.load(Ordering::Relaxed), seen);
    }

    #[test]
    fn config_roundtrip() {
        // Other tests in this binary flip both globals while this one
        // runs (to valid values only), so every assertion here holds
        // under any interleaving.
        let (before, detected) = (threads(), Isa::detect());
        assert!(before >= 1);
        set_threads(0);
        assert!(threads() >= 1, "a zero worker count is clamped");
        set_threads(before);
        // The ISA knob sanitizes: scalar always sticks, the detected
        // set round-trips, and nothing else is ever observable.
        let isa_before = isa();
        for requested in [Isa::Scalar, Isa::Avx2, Isa::Neon, detected] {
            set_isa(requested);
            assert!([Isa::Scalar, detected].contains(&isa()), "{requested:?}");
        }
        set_isa(isa_before);
    }

    #[test]
    fn isa_dispatch_never_changes_f32_bits() {
        // Safe to flip the global mid-suite precisely because of the
        // property under test: other concurrently-running gemm tests
        // see identical bits whichever ISA they land on.
        let detected = Isa::detect();
        for (seed, m, k, n, zr) in [
            (21u64, 7, 13, 9, 0.0),
            (22, 4, 27, 3200, 0.0),
            (23, 16, 324, 100, 0.4),
            (24, 3, 5, 2, 0.95),
            (25, 2, 80, 1024, 0.0),
        ] {
            let (a, b) = random_case(seed, m, k, n, zr);
            set_isa(Isa::Scalar);
            let mut scalar = vec![f32::NAN; m * n];
            gemm_into_with_threads(&a, &b, &mut scalar, m, k, n, 1);
            set_isa(detected);
            for threads in [1usize, 4] {
                let mut out = vec![f32::NAN; m * n];
                gemm_into_with_threads(&a, &b, &mut out, m, k, n, threads);
                assert_eq!(
                    out.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    scalar.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    "isa={detected:?} threads={threads} m={m} k={k} n={n}"
                );
            }
        }
    }

    #[test]
    fn scratch_qpool_is_separate_and_zeroed() {
        let mut scratch = KernelScratch::new();
        let mut q = scratch.take_q(64);
        q.iter_mut().for_each(|v| *v = -5);
        scratch.recycle_q(q);
        assert_eq!(scratch.pooled_qbuffers(), 1);
        assert_eq!(scratch.pooled_buffers(), 0);
        let q2 = scratch.take_q(32);
        assert!(
            q2.capacity() >= 64,
            "best fit should reuse the pooled buffer"
        );
        assert!(q2.iter().all(|&v| v == 0));
        scratch.recycle_q(q2);
    }
}
