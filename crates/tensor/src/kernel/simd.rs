//! Runtime-dispatched SIMD microkernels.
//!
//! This module is the **only** place in the workspace where `unsafe`
//! code is permitted (the crate root carries `#![deny(unsafe_code)]`;
//! CI's unsafe-audit gate enforces both the confinement and the
//! `// SAFETY:` contract preceding every block). Everything it hands the
//! rest of the crate is a safe function; the unsafety is the usual `std::arch` pair of
//! obligations — the CPU must actually support the instruction set, and
//! pointer-based lane loads/stores must stay inside their slices — and
//! both are discharged locally, per block. The first obligation is
//! enforced *inside* every dispatcher, not assumed of callers: [`Isa`]
//! is freely constructible ([`Isa::parse`] accepts any spelling), so
//! each entry point runs the requested set through
//! [`Isa::sanitize`] before matching, and an unsupported request simply
//! executes on the detected (or scalar) path.
//!
//! The microkernels, chosen so that vectorisation **cannot change
//! result bits**:
//!
//! - [`axpy`]: `acc[j] += a * b[j]` over a contiguous column segment —
//!   the f32 GEMM's per-(row, k) loop for the rows the tile does not
//!   take. Lanes are independent output elements, and the multiply and
//!   add are issued as *separate* rounded operations (`mul` then `add`,
//!   never an FMA), so every output element sees exactly the scalar
//!   path's operation sequence. f32 results are therefore bit-identical
//!   across `Isa`s, which is what lets [`Isa`] be a pure performance
//!   knob.
//! - [`gemm_tile`]: the f32 GEMM over blocks of [`TILE_ROWS`] rows, with
//!   a 4 × 16 block of accumulators held in AVX2 registers across the
//!   whole reduction, then one 8-lane block per row and a masked 8-lane
//!   tail. Each output element still starts at `+0.0` and adds `a[i, p]
//!   · b[p, j]` for ascending `p`, multiply and add unfused — the very
//!   sequence repeated [`axpy`] calls perform — so it moves no bit;
//!   masked lanes are columns nobody reads or writes. One dispatch
//!   covers every row block, where the axpy loop dispatched once per
//!   (row, k).
//! - [`conv_direct`]: the direct convolution of
//!   [`crate::kernel::conv_direct_into`], output channels in lanes. Its
//!   body is safe array code; this module only compiles it once more
//!   under AVX2, and lanes, as in the tile, never fuse or reorder an
//!   element's adds.
//! - [`qdot`]: `Σ a[p]·b[p]` over `i8` operands in an `i32`
//!   accumulator — the inner loop of the transposed int8 GEMM (both
//!   operands row-contiguous, deep `k`: the linear-layer shape).
//!   Integer arithmetic is exact, so lane order is free and the SIMD
//!   and scalar paths agree bit-for-bit by construction.
//! - [`qgemm_row`]: one output row of the *flat* int8 GEMM that
//!   convolutions lower to, over a pair-interleaved `i8` panel
//!   (`acc[j] += a0·b[2j] + a1·b[2j+1]` per reduction pair).
//!   Interleaving two reduction rows per column lets AVX2 `madd` / NEON
//!   `padal` fold both products into an `i32` lane in one instruction,
//!   with no horizontal reductions and no scalar tail along `k` — which
//!   is what makes int8 pay off even for the shallow fan-ins of the
//!   fast-pathway convs (`k = 27`). Accumulators are kept in registers
//!   for the whole reduction instead of being re-loaded per pair.
//!   Integer-exact, so ISA is again a pure performance knob.
//! - [`quantize_pair_i8`]: the f32 → i8 activation quantizer feeding
//!   the paired panel. Its rounding contract is ties-to-even (see
//!   [`quantize_value`]) precisely because that is the one rounding the
//!   f32→i32 convert instructions implement natively; round-half-away
//!   would cost a libm call per element and dominate the int8 forward.

#![allow(unsafe_code)]

/// The instruction set a kernel dispatches to.
///
/// Detected once per process (see [`crate::kernel::isa`]) and
/// overridable through [`crate::kernel::set_isa`] or the
/// `SAFECROSS_KERNEL_ISA` environment variable. Forcing
/// [`Isa::Scalar`] on a SIMD-capable host is always safe and changes no
/// f32 result bits; forcing a SIMD variant the host lacks falls back to
/// detection — every dispatcher in this module calls [`Isa::sanitize`]
/// itself, so *any* `Isa` value is safe to pass from safe code.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Isa {
    /// x86-64 AVX2: 8-lane f32, 16-lane i8→i16 widening integer ops.
    Avx2,
    /// AArch64 NEON: 4-lane f32, 8-lane i8→i16 widening integer ops.
    Neon,
    /// Portable scalar fallback; the reference semantics.
    Scalar,
}

impl Isa {
    /// Detects the best instruction set the running CPU supports.
    pub fn detect() -> Isa {
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx2") {
                return Isa::Avx2;
            }
        }
        #[cfg(target_arch = "aarch64")]
        {
            // NEON is architecturally mandatory on AArch64.
            return Isa::Neon;
        }
        #[allow(unreachable_code)]
        Isa::Scalar
    }

    /// The JSON/env spelling: `"avx2"`, `"neon"`, or `"scalar"`.
    pub fn name(self) -> &'static str {
        match self {
            Isa::Avx2 => "avx2",
            Isa::Neon => "neon",
            Isa::Scalar => "scalar",
        }
    }

    /// Parses the [`Isa::name`] spelling (case-insensitive).
    pub fn parse(s: &str) -> Option<Isa> {
        match s.trim().to_ascii_lowercase().as_str() {
            "avx2" => Some(Isa::Avx2),
            "neon" => Some(Isa::Neon),
            "scalar" => Some(Isa::Scalar),
            _ => None,
        }
    }

    /// Clamps a requested instruction set to what the host supports:
    /// scalar is always honoured, a supported SIMD request is honoured,
    /// and an unsupported one falls back to [`Isa::detect`].
    pub fn sanitize(self) -> Isa {
        match self {
            Isa::Scalar => Isa::Scalar,
            requested if requested == Isa::detect() => requested,
            _ => Isa::detect(),
        }
    }
}

// ---------------------------------------------------------------------
// f32 axpy: acc[j] += a * b[j]
// ---------------------------------------------------------------------

/// The reference semantics: one rounded multiply then one rounded add
/// per element, ascending `j`.
#[inline]
fn axpy_scalar(acc: &mut [f32], a: f32, b: &[f32]) {
    for (o, &bv) in acc.iter_mut().zip(b) {
        *o += a * bv;
    }
}

/// `acc[j] += a * b[j]` for `j` in `0..acc.len()`, dispatched to `isa`.
///
/// Bit-identical across every [`Isa`]: lanes are independent output
/// elements and the SIMD bodies use separate (non-fused) multiply and
/// add, so each element sees exactly the scalar operation sequence.
///
/// # Panics
///
/// Panics if `b` is shorter than `acc`.
#[inline]
pub(crate) fn axpy(isa: Isa, acc: &mut [f32], a: f32, b: &[f32]) {
    assert!(b.len() >= acc.len(), "axpy rhs shorter than accumulator");
    match isa.sanitize() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the `sanitize` above only yields `Isa::Avx2` when
        // `is_x86_feature_detected!("avx2")` holds on this host, so the
        // target feature is present.
        Isa::Avx2 => unsafe { axpy_avx2(acc, a, b) },
        #[cfg(target_arch = "aarch64")]
        // SAFETY: NEON is architecturally mandatory on AArch64, so the
        // target feature is always present when this arm compiles.
        Isa::Neon => unsafe { axpy_neon(acc, a, b) },
        _ => axpy_scalar(acc, a, b),
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn axpy_avx2(acc: &mut [f32], a: f32, b: &[f32]) {
    use std::arch::x86_64::{
        _mm256_add_ps, _mm256_loadu_ps, _mm256_mul_ps, _mm256_set1_ps, _mm256_storeu_ps,
    };
    debug_assert!(b.len() >= acc.len());
    let n = acc.len();
    let av = _mm256_set1_ps(a);
    let mut j = 0;
    while j + 8 <= n {
        // SAFETY: `j + 8 <= acc.len() <= b.len()`, so both unaligned
        // 8-lane loads and the store address lanes `j..j+8`, all inside
        // their respective slices; `loadu`/`storeu` have no alignment
        // requirement.
        unsafe {
            let bv = _mm256_loadu_ps(b.as_ptr().add(j));
            let ov = _mm256_loadu_ps(acc.as_ptr().add(j));
            // mul then add, separately rounded — never fused — to match
            // the scalar `*o += a * bv` bit-for-bit.
            _mm256_storeu_ps(
                acc.as_mut_ptr().add(j),
                _mm256_add_ps(ov, _mm256_mul_ps(av, bv)),
            );
        }
        j += 8;
    }
    axpy_scalar(&mut acc[j..], a, &b[j..n]);
}

#[cfg(target_arch = "aarch64")]
#[target_feature(enable = "neon")]
fn axpy_neon(acc: &mut [f32], a: f32, b: &[f32]) {
    use std::arch::aarch64::{vaddq_f32, vdupq_n_f32, vld1q_f32, vmulq_f32, vst1q_f32};
    debug_assert!(b.len() >= acc.len());
    let n = acc.len();
    let av = vdupq_n_f32(a);
    let mut j = 0;
    while j + 4 <= n {
        // SAFETY: `j + 4 <= acc.len() <= b.len()`, so the 4-lane loads
        // and store stay inside their slices; `vld1q`/`vst1q` accept
        // unaligned addresses.
        unsafe {
            let bv = vld1q_f32(b.as_ptr().add(j));
            let ov = vld1q_f32(acc.as_ptr().add(j));
            // vmul + vadd, not vfma: fused rounding would diverge from
            // the scalar reference bits.
            vst1q_f32(acc.as_mut_ptr().add(j), vaddq_f32(ov, vmulq_f32(av, bv)));
        }
        j += 4;
    }
    axpy_scalar(&mut acc[j..], a, &b[j..n]);
}

// ---------------------------------------------------------------------
// f32 register tile: out[i, j] = Σ_p a[i, p] · b[p, j]
// ---------------------------------------------------------------------

/// Rows per register tile of [`gemm_tile`].
pub(crate) const TILE_ROWS: usize = 4;

/// Overwrites `out` (`rows × n`) with `a × b` for `a` of `rows × k` and
/// `b` of `k × n`, all row-major, `rows` a multiple of [`TILE_ROWS`].
///
/// Every output element starts at `+0.0` and adds `a[i, p] · b[p, j]`
/// for ascending `p`, multiply and add separately rounded: exactly what
/// zero-filling a row and calling [`axpy`] once per `p` does, so the
/// bits are those of that loop on every [`Isa`]. Zero lhs elements are
/// multiplied, not skipped (`0 · inf` is NaN), so a row that should
/// skip them must not come here. On AVX2 the rows run through a 4 × 16
/// register tile; the scalar and NEON arms are the per-(row, k) axpy
/// loop itself.
///
/// # Panics
///
/// Panics if `rows` is not a multiple of [`TILE_ROWS`] or a slice length
/// disagrees with its dimensions.
pub(crate) fn gemm_tile(
    isa: Isa,
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    rows: usize,
    k: usize,
    n: usize,
) {
    assert!(
        rows.is_multiple_of(TILE_ROWS),
        "gemm_tile rows must come in tiles"
    );
    assert_eq!(a.len(), rows * k, "gemm_tile lhs length mismatch");
    assert_eq!(b.len(), k * n, "gemm_tile rhs length mismatch");
    assert_eq!(out.len(), rows * n, "gemm_tile output length mismatch");
    match isa.sanitize() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the `sanitize` above only yields `Isa::Avx2` when
        // `is_x86_feature_detected!("avx2")` holds on this host, so the
        // target feature is present.
        Isa::Avx2 => unsafe { gemm_tile_avx2(a, b, out, rows, k, n) },
        isa => {
            for i in 0..rows {
                let (arow, orow) = (&a[i * k..(i + 1) * k], &mut out[i * n..(i + 1) * n]);
                orow.fill(0.0);
                for jb in (0..n).step_by(super::COL_BLOCK) {
                    let je = (jb + super::COL_BLOCK).min(n);
                    for (p, &av) in arow.iter().enumerate() {
                        axpy(isa, &mut orow[jb..je], av, &b[p * n + jb..p * n + je]);
                    }
                }
            }
        }
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn gemm_tile_avx2(a: &[f32], b: &[f32], out: &mut [f32], rows: usize, k: usize, n: usize) {
    use std::arch::x86_64::{
        _mm256_add_ps, _mm256_cmpgt_epi32, _mm256_loadu_ps, _mm256_maskload_ps,
        _mm256_maskstore_ps, _mm256_mul_ps, _mm256_set1_epi32, _mm256_set1_ps, _mm256_setr_epi32,
        _mm256_setzero_ps, _mm256_storeu_ps,
    };
    debug_assert!(rows.is_multiple_of(TILE_ROWS) && a.len() == rows * k);
    debug_assert!(b.len() == k * n && out.len() == rows * n);
    let lane = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
    // Column blocks outermost, so one `k × COL_BLOCK` panel of `b` stays
    // in cache while every row tile sweeps it.
    for jb in (0..n).step_by(super::COL_BLOCK) {
        let je = (jb + super::COL_BLOCK).min(n);
        for i in (0..rows).step_by(TILE_ROWS) {
            let mut j = jb;
            while j + 16 <= je {
                // SAFETY: `i + 4 <= rows`, so the lhs reads `a[(i + r)·k
                // + p]` for `r < 4`, `p < k` stay inside `a`'s `rows·k`
                // elements. `j + 16 <= je <= n`, so each row `p < k` of
                // `b` is read at `p·n + j .. p·n + j + 16`, inside `b`'s
                // `k·n`, and the stores cover `(i + r)·n + j ..
                // (i + r)·n + j + 16`, inside `out`'s `rows·n`. The
                // unaligned load/store variants have no alignment
                // requirement.
                unsafe {
                    let (ap, bp) = (a.as_ptr().add(i * k), b.as_ptr().add(j));
                    let op = out.as_mut_ptr().add(i * n + j);
                    let [mut c00, mut c01, mut c10, mut c11] = [_mm256_setzero_ps(); 4];
                    let [mut c20, mut c21, mut c30, mut c31] = [_mm256_setzero_ps(); 4];
                    for p in 0..k {
                        let b0 = _mm256_loadu_ps(bp.add(p * n));
                        let b1 = _mm256_loadu_ps(bp.add(p * n + 8));
                        // mul then add, separately rounded — never fused
                        // — in `axpy`'s operand order.
                        let a0 = _mm256_set1_ps(*ap.add(p));
                        c00 = _mm256_add_ps(c00, _mm256_mul_ps(a0, b0));
                        c01 = _mm256_add_ps(c01, _mm256_mul_ps(a0, b1));
                        let a1 = _mm256_set1_ps(*ap.add(k + p));
                        c10 = _mm256_add_ps(c10, _mm256_mul_ps(a1, b0));
                        c11 = _mm256_add_ps(c11, _mm256_mul_ps(a1, b1));
                        let a2 = _mm256_set1_ps(*ap.add(2 * k + p));
                        c20 = _mm256_add_ps(c20, _mm256_mul_ps(a2, b0));
                        c21 = _mm256_add_ps(c21, _mm256_mul_ps(a2, b1));
                        let a3 = _mm256_set1_ps(*ap.add(3 * k + p));
                        c30 = _mm256_add_ps(c30, _mm256_mul_ps(a3, b0));
                        c31 = _mm256_add_ps(c31, _mm256_mul_ps(a3, b1));
                    }
                    _mm256_storeu_ps(op, c00);
                    _mm256_storeu_ps(op.add(8), c01);
                    _mm256_storeu_ps(op.add(n), c10);
                    _mm256_storeu_ps(op.add(n + 8), c11);
                    _mm256_storeu_ps(op.add(2 * n), c20);
                    _mm256_storeu_ps(op.add(2 * n + 8), c21);
                    _mm256_storeu_ps(op.add(3 * n), c30);
                    _mm256_storeu_ps(op.add(3 * n + 8), c31);
                }
                j += 16;
            }
            // At most one full 8-column block, then the tail: lanes
            // `< width` are live, the rest are neither read nor written.
            while j < je {
                let width = (je - j).min(8);
                let mask = _mm256_cmpgt_epi32(_mm256_set1_epi32(width as i32), lane);
                // SAFETY: the lhs reads are those of the 16-column block.
                // Only the `width` live lanes, columns `j .. j + width`
                // with `j + width <= je <= n`, are loaded from row `p`
                // of `b` and stored to rows `i + r` of `out`: the
                // masked-off lanes of `maskload`/`maskstore` access no
                // memory, so every access is inside its slice.
                unsafe {
                    let (ap, bp) = (a.as_ptr().add(i * k), b.as_ptr().add(j));
                    let op = out.as_mut_ptr().add(i * n + j);
                    let [mut c0, mut c1, mut c2, mut c3] = [_mm256_setzero_ps(); 4];
                    for p in 0..k {
                        let bv = _mm256_maskload_ps(bp.add(p * n), mask);
                        c0 = _mm256_add_ps(c0, _mm256_mul_ps(_mm256_set1_ps(*ap.add(p)), bv));
                        c1 = _mm256_add_ps(c1, _mm256_mul_ps(_mm256_set1_ps(*ap.add(k + p)), bv));
                        c2 = _mm256_add_ps(
                            c2,
                            _mm256_mul_ps(_mm256_set1_ps(*ap.add(2 * k + p)), bv),
                        );
                        c3 = _mm256_add_ps(
                            c3,
                            _mm256_mul_ps(_mm256_set1_ps(*ap.add(3 * k + p)), bv),
                        );
                    }
                    _mm256_maskstore_ps(op, mask, c0);
                    _mm256_maskstore_ps(op.add(n), mask, c1);
                    _mm256_maskstore_ps(op.add(2 * n), mask, c2);
                    _mm256_maskstore_ps(op.add(3 * n), mask, c3);
                }
                j += width;
            }
        }
    }
}

// ---------------------------------------------------------------------
// f32 direct convolution: output channels in lanes
// ---------------------------------------------------------------------

/// Runs a direct convolution's safe body on `isa`. The body is plain
/// array code written for vectorisation; on AVX2 it is compiled under
/// the target feature, and the scalar and NEON arms run it as the
/// baseline build compiles it. Lanes are independent output channels
/// and multiply and add are never fused, so every arm gives the same
/// bits.
pub(crate) fn conv_direct(isa: Isa, job: &super::direct::Job, out: &mut [f32]) {
    match isa.sanitize() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the `sanitize` above only yields `Isa::Avx2` when
        // `is_x86_feature_detected!("avx2")` holds on this host, so the
        // target feature is present. The body is safe code.
        Isa::Avx2 => unsafe { conv_direct_avx2(job, out) },
        _ => job.run(out),
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn conv_direct_avx2(job: &super::direct::Job, out: &mut [f32]) {
    job.run(out);
}

// ---------------------------------------------------------------------
// i8 dot product: Σ a[p]·b[p] in i32
// ---------------------------------------------------------------------

/// Largest reduction depth `k` for which `k · 127 · 127` cannot
/// overflow the `i32` accumulator. Callers assert against it once per
/// GEMM, not per dot product.
pub(crate) const QDOT_MAX_K: usize = (i32::MAX / (127 * 127)) as usize;

#[inline]
fn qdot_scalar(a: &[i8], b: &[i8]) -> i32 {
    let mut acc = 0i32;
    for (&x, &y) in a.iter().zip(b) {
        acc += x as i32 * y as i32;
    }
    acc
}

/// `Σ_p a[p] · b[p]` over `i8` operands in an `i32` accumulator,
/// dispatched to `isa`. Integer-exact, so every [`Isa`] returns the
/// same value.
///
/// # Panics
///
/// Panics if the slices have different lengths or exceed
/// [`QDOT_MAX_K`].
#[inline]
pub(crate) fn qdot(isa: Isa, a: &[i8], b: &[i8]) -> i32 {
    assert_eq!(a.len(), b.len(), "qdot operand length mismatch");
    assert!(a.len() <= QDOT_MAX_K, "qdot reduction too deep for i32");
    match isa.sanitize() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the `sanitize` above only yields `Isa::Avx2` when
        // `is_x86_feature_detected!("avx2")` holds on this host, so the
        // target feature is present.
        Isa::Avx2 => unsafe { qdot_avx2(a, b) },
        #[cfg(target_arch = "aarch64")]
        // SAFETY: NEON is architecturally mandatory on AArch64, so the
        // target feature is always present when this arm compiles.
        Isa::Neon => unsafe { qdot_neon(a, b) },
        _ => qdot_scalar(a, b),
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn qdot_avx2(a: &[i8], b: &[i8]) -> i32 {
    use std::arch::x86_64::{
        __m128i, __m256i, _mm256_add_epi32, _mm256_cvtepi8_epi16, _mm256_madd_epi16,
        _mm256_setzero_si256, _mm256_storeu_si256, _mm_loadu_si128,
    };
    debug_assert_eq!(a.len(), b.len());
    let k = a.len();
    let mut acc = _mm256_setzero_si256();
    let mut p = 0;
    while p + 16 <= k {
        // SAFETY: `p + 16 <= a.len() == b.len()`, so each 16-byte
        // unaligned load reads bytes `p..p+16` inside its slice.
        unsafe {
            let va = _mm256_cvtepi8_epi16(_mm_loadu_si128(a.as_ptr().add(p) as *const __m128i));
            let vb = _mm256_cvtepi8_epi16(_mm_loadu_si128(b.as_ptr().add(p) as *const __m128i));
            // madd: i16×i16 products summed pairwise into i32 lanes.
            // |product| ≤ 127², so even the pairwise sum fits i16-free
            // in i32; the caller's QDOT_MAX_K bound covers the lane
            // accumulation.
            acc = _mm256_add_epi32(acc, _mm256_madd_epi16(va, vb));
        }
        p += 16;
    }
    let mut lanes = [0i32; 8];
    // SAFETY: `lanes` is exactly 32 bytes, the size `storeu_si256`
    // writes; an unaligned store to a stack array is always in-bounds.
    unsafe { _mm256_storeu_si256(lanes.as_mut_ptr() as *mut __m256i, acc) };
    lanes.iter().sum::<i32>() + qdot_scalar(&a[p..], &b[p..])
}

#[cfg(target_arch = "aarch64")]
#[target_feature(enable = "neon")]
fn qdot_neon(a: &[i8], b: &[i8]) -> i32 {
    use std::arch::aarch64::{vaddvq_s32, vdupq_n_s32, vld1_s8, vmull_s8, vpadalq_s16};
    debug_assert_eq!(a.len(), b.len());
    let k = a.len();
    let mut acc = vdupq_n_s32(0);
    let mut p = 0;
    while p + 8 <= k {
        // SAFETY: `p + 8 <= a.len() == b.len()`, so each 8-byte load
        // reads bytes `p..p+8` inside its slice; `vld1` accepts
        // unaligned addresses.
        unsafe {
            let va = vld1_s8(a.as_ptr().add(p));
            let vb = vld1_s8(b.as_ptr().add(p));
            // Widening i8×i8→i16 multiply, then pairwise-accumulate the
            // eight i16 products into the four i32 lanes. |product| ≤
            // 127² so the i16 intermediates cannot overflow.
            acc = vpadalq_s16(acc, vmull_s8(va, vb));
        }
        p += 8;
    }
    vaddvq_s32(acc) + qdot_scalar(&a[p..], &b[p..])
}

// ---------------------------------------------------------------------
// quantization: f32 → i8 against a reciprocal scale
// ---------------------------------------------------------------------

/// Quantizes one value against a (positive) reciprocal scale:
/// `round_ties_even(x · inv_scale)` clamped to `[-127, 127]`.
///
/// Ties-to-even is the contract (not round-half-away) because it is the
/// native rounding of AVX2 `cvtps_epi32` and NEON `fcvtns` — one
/// instruction in the vector quantizers below — while half-away lowers
/// to a per-element libm call that dominates the whole int8 forward.
/// Every quantizer in the workspace goes through this definition, so
/// scalar and vector paths produce identical bytes on **every** input:
/// a NaN product quantizes to `0` (the NaN-propagating clamp feeds
/// Rust's saturating `as i8`, which maps NaN to zero) and out-of-range
/// magnitudes — `±inf` included — saturate to `±127`. The vector paths
/// reproduce exactly those semantics by zeroing NaN lanes and clamping
/// in f32 before their integer converts.
#[inline]
pub(crate) fn quantize_value(x: f32, inv_scale: f32) -> i8 {
    (x * inv_scale).round_ties_even().clamp(-127.0, 127.0) as i8
}

/// The reference semantics of [`quantize_pair_i8`]: interleave the
/// quantized values of two rows column-by-column (`out[2j]` from
/// `row0`, `out[2j + 1]` from `row1`, or `0` when there is no partner
/// row).
#[inline]
fn quantize_pair_scalar(row0: &[f32], row1: Option<&[f32]>, inv: &[f32], out: &mut [i8]) {
    match row1 {
        Some(row1) => {
            for (j, ((&v0, &v1), &iv)) in row0.iter().zip(row1).zip(inv).enumerate() {
                out[2 * j] = quantize_value(v0, iv);
                out[2 * j + 1] = quantize_value(v1, iv);
            }
        }
        None => {
            for (j, (&v0, &iv)) in row0.iter().zip(inv).enumerate() {
                out[2 * j] = quantize_value(v0, iv);
                out[2 * j + 1] = 0;
            }
        }
    }
}

/// Quantizes two f32 rows against per-column reciprocal scales into a
/// pair-interleaved `i8` panel row: `out[2j] = q(row0[j] · inv[j])`,
/// `out[2j + 1] = q(row1[j] · inv[j])` (or `0` with no partner row).
/// Dispatched to `isa`; bit-identical to the scalar path on every
/// input, non-finite values included (see [`quantize_value`] for the
/// rounding and saturation contract).
///
/// # Panics
///
/// Panics if `inv` or `row1` disagree with `row0`'s length, or `out` is
/// not exactly twice it.
#[inline]
pub(crate) fn quantize_pair_i8(
    isa: Isa,
    row0: &[f32],
    row1: Option<&[f32]>,
    inv: &[f32],
    out: &mut [i8],
) {
    assert_eq!(inv.len(), row0.len(), "one reciprocal scale per column");
    assert_eq!(out.len(), 2 * row0.len(), "paired output is twice the row");
    if let Some(row1) = row1 {
        assert_eq!(row1.len(), row0.len(), "partner row length mismatch");
    }
    match isa.sanitize() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the `sanitize` above only yields `Isa::Avx2` when
        // `is_x86_feature_detected!("avx2")` holds on this host, so the
        // target feature is present.
        Isa::Avx2 => unsafe { quantize_pair_avx2(row0, row1, inv, out) },
        #[cfg(target_arch = "aarch64")]
        // SAFETY: NEON is architecturally mandatory on AArch64, so the
        // target feature is always present when this arm compiles.
        Isa::Neon => unsafe { quantize_pair_neon(row0, row1, inv, out) },
        _ => quantize_pair_scalar(row0, row1, inv, out),
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn quantize_pair_avx2(row0: &[f32], row1: Option<&[f32]>, inv: &[f32], out: &mut [i8]) {
    use std::arch::x86_64::{
        __m128i, _mm256_and_ps, _mm256_castsi256_si128, _mm256_cmp_ps, _mm256_cvtps_epi32,
        _mm256_extracti128_si256, _mm256_loadu_ps, _mm256_max_ps, _mm256_min_ps, _mm256_mul_ps,
        _mm256_packs_epi32, _mm256_permute4x64_epi64, _mm256_set1_ps, _mm256_setzero_si256,
        _mm_packs_epi16, _mm_storeu_si128, _mm_unpackhi_epi16, _mm_unpacklo_epi16, _CMP_ORD_Q,
    };
    let n = row0.len();
    let lo_bound = _mm256_set1_ps(-127.0);
    let hi_bound = _mm256_set1_ps(127.0);
    let mut j = 0;
    while j + 8 <= n {
        // SAFETY: `j + 8 <= n` bounds every 8-lane load inside `row0`,
        // `row1` (same length, asserted by the caller) and `inv`; the
        // 16-byte store covers `out[2j..2j+16]`, inside `out`'s
        // `2n`-byte extent. Before the convert, NaN lanes are zeroed
        // (the ordered self-compare mask is 0 exactly on NaN) and the
        // products clamped to `[-127.0, 127.0]` — clamping to an
        // integer bound before a ties-to-even convert equals the scalar
        // round-then-clamp, and NaN→0 / ±inf→±127 match the scalar
        // NaN-propagating clamp-and-saturating-cast, so the two paths
        // agree on *all* inputs, not just finite ones. `cvtps_epi32`
        // rounds ties-to-even — the scalar contract — and the `packs`
        // saturations cannot alter values already in `[-127, 127]`.
        unsafe {
            let vi = _mm256_loadu_ps(inv.as_ptr().add(j));
            let quant = |row: &[f32]| {
                let p = _mm256_mul_ps(_mm256_loadu_ps(row.as_ptr().add(j)), vi);
                let p = _mm256_and_ps(p, _mm256_cmp_ps::<_CMP_ORD_Q>(p, p));
                _mm256_cvtps_epi32(_mm256_min_ps(_mm256_max_ps(p, lo_bound), hi_bound))
            };
            let r0 = quant(row0);
            let r1 = match row1 {
                Some(row1) => quant(row1),
                None => _mm256_setzero_si256(),
            };
            // packs + permute: [q0 j0..7 | q1 j0..7] as ordered i16s.
            let p = _mm256_permute4x64_epi64(_mm256_packs_epi32(r0, r1), 0b1101_1000);
            let q0 = _mm256_castsi256_si128(p);
            let q1 = _mm256_extracti128_si256(p, 1);
            // Interleave per column, then narrow: bytes land as
            // (q0[j'], q1[j']) pairs in ascending j'.
            let il_lo = _mm_unpacklo_epi16(q0, q1);
            let il_hi = _mm_unpackhi_epi16(q0, q1);
            _mm_storeu_si128(
                out.as_mut_ptr().add(2 * j) as *mut __m128i,
                _mm_packs_epi16(il_lo, il_hi),
            );
        }
        j += 8;
    }
    let row1_tail = row1.map(|r| &r[j..]);
    quantize_pair_scalar(&row0[j..], row1_tail, &inv[j..], &mut out[2 * j..]);
}

#[cfg(target_arch = "aarch64")]
#[target_feature(enable = "neon")]
fn quantize_pair_neon(row0: &[f32], row1: Option<&[f32]>, inv: &[f32], out: &mut [i8]) {
    use std::arch::aarch64::{
        vandq_u32, vceqq_f32, vcombine_s16, vcombine_s8, vcvtnq_s32_f32, vdupq_n_f32, vdupq_n_s16,
        vld1q_f32, vmaxq_f32, vminq_f32, vmulq_f32, vqmovn_s16, vqmovn_s32, vreinterpretq_f32_u32,
        vreinterpretq_u32_f32, vst1q_s8, vzipq_s16,
    };
    let n = row0.len();
    // SAFETY: `vdupq_n_f32` is a pure register op.
    let (lo_bound, hi_bound) = unsafe { (vdupq_n_f32(-127.0), vdupq_n_f32(127.0)) };
    let mut j = 0;
    while j + 8 <= n {
        // SAFETY: `j + 8 <= n` bounds the two 4-lane loads per row and
        // per `inv`; the 16-byte store covers `out[2j..2j+16]`, inside
        // `out`'s `2n`-byte extent. Before the convert, NaN lanes are
        // zeroed (the self-equality mask is 0 exactly on NaN) and the
        // products clamped to `[-127.0, 127.0]` — clamping to an
        // integer bound before a ties-to-even convert equals the scalar
        // round-then-clamp, and NaN→0 / ±inf→±127 match the scalar
        // NaN-propagating clamp-and-saturating-cast, so the two paths
        // agree on *all* inputs, not just finite ones. `vcvtnq_s32_f32`
        // rounds ties-to-even — the scalar contract — and the `vqmovn`
        // saturating narrows cannot alter values already in
        // `[-127, 127]`.
        unsafe {
            let i0 = vld1q_f32(inv.as_ptr().add(j));
            let i1 = vld1q_f32(inv.as_ptr().add(j + 4));
            let quant4 = |row: &[f32], off: usize, vi| {
                let p = vmulq_f32(vld1q_f32(row.as_ptr().add(off)), vi);
                let p = vreinterpretq_f32_u32(vandq_u32(vreinterpretq_u32_f32(p), vceqq_f32(p, p)));
                vcvtnq_s32_f32(vminq_f32(vmaxq_f32(p, lo_bound), hi_bound))
            };
            let quant8 = |row: &[f32]| {
                vcombine_s16(
                    vqmovn_s32(quant4(row, j, i0)),
                    vqmovn_s32(quant4(row, j + 4, i1)),
                )
            };
            let q0 = quant8(row0);
            let q1 = match row1 {
                Some(row1) => quant8(row1),
                None => vdupq_n_s16(0),
            };
            let z = vzipq_s16(q0, q1);
            vst1q_s8(
                out.as_mut_ptr().add(2 * j),
                vcombine_s8(vqmovn_s16(z.0), vqmovn_s16(z.1)),
            );
        }
        j += 8;
    }
    let row1_tail = row1.map(|r| &r[j..]);
    quantize_pair_scalar(&row0[j..], row1_tail, &inv[j..], &mut out[2 * j..]);
}

// ---------------------------------------------------------------------
// paired-panel GEMM row: one output row against the whole panel
// ---------------------------------------------------------------------

/// One reduction pair of the paired-panel recurrence: `acc[j] += a0 ·
/// b[2j] + a1 · b[2j + 1]`, two widening multiplies and two adds per
/// `i32` accumulator lane, ascending `j`. Order is irrelevant — integer
/// arithmetic is exact — but this loop *is* the contract.
#[inline]
fn qaxpy2_scalar(acc: &mut [i32], a0: i8, a1: i8, b: &[i8]) {
    let (a0, a1) = (a0 as i32, a1 as i32);
    for (j, o) in acc.iter_mut().enumerate() {
        *o += a0 * b[2 * j] as i32 + a1 * b[2 * j + 1] as i32;
    }
}

/// Splits the reduction vector into its even/odd panel operands for
/// pair `t`: the phantom partner of an odd-length row is zero.
#[inline]
fn arow_pair(arow: &[i8], t: usize) -> (i8, i8) {
    let a1 = if 2 * t + 1 < arow.len() {
        arow[2 * t + 1]
    } else {
        0
    };
    (arow[2 * t], a1)
}

/// The reference semantics of [`qgemm_row`]: a [`qaxpy2_scalar`] sweep
/// per reduction pair, ascending `t`. Integer-exact in any order.
#[inline]
fn qgemm_row_scalar(arow: &[i8], panel: &[i8], n: usize, j0: usize, acc: &mut [i32]) {
    let len = acc.len();
    for t in 0..arow.len().div_ceil(2) {
        let (a0, a1) = arow_pair(arow, t);
        qaxpy2_scalar(
            acc,
            a0,
            a1,
            &panel[(t * n + j0) * 2..(t * n + j0 + len) * 2],
        );
    }
}

/// Accumulates one output row of the pair-interleaved int8 GEMM:
/// `acc[d] += Σ_t a[2t]·panel[(t·n + j0 + d)·2] + a[2t+1]·panel[(t·n +
/// j0 + d)·2 + 1]` over every reduction pair `t` (phantom `a[k] = 0`
/// for odd `k = arow.len()`). Unlike a per-pair [`qaxpy2_scalar`] sweep, the
/// vector paths block columns so the accumulators stay in registers
/// across the *entire* reduction — no per-pair load/add/store traffic.
/// Integer-exact: every [`Isa`] and column split produce identical
/// accumulators.
///
/// # Panics
///
/// Panics if `panel` is not exactly `2 · ⌈arow.len()/2⌉ · n` bytes or
/// the column window `j0..j0 + acc.len()` overruns `n`.
#[inline]
pub(crate) fn qgemm_row(isa: Isa, arow: &[i8], panel: &[i8], n: usize, j0: usize, acc: &mut [i32]) {
    assert!(
        j0 + acc.len() <= n,
        "qgemm_row column window exceeds panel width"
    );
    assert_eq!(
        panel.len(),
        2 * arow.len().div_ceil(2) * n,
        "qgemm_row panel extent mismatch"
    );
    match isa.sanitize() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the `sanitize` above only yields `Isa::Avx2` when
        // `is_x86_feature_detected!("avx2")` holds on this host, so the
        // target feature is present.
        Isa::Avx2 => unsafe { qgemm_row_avx2(arow, panel, n, j0, acc) },
        #[cfg(target_arch = "aarch64")]
        // SAFETY: NEON is architecturally mandatory on AArch64, so the
        // target feature is always present when this arm compiles.
        Isa::Neon => unsafe { qgemm_row_neon(arow, panel, n, j0, acc) },
        _ => qgemm_row_scalar(arow, panel, n, j0, acc),
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn qgemm_row_avx2(arow: &[i8], panel: &[i8], n: usize, j0: usize, acc: &mut [i32]) {
    use std::arch::x86_64::{
        __m128i, __m256i, _mm256_add_epi32, _mm256_cvtepi8_epi16, _mm256_loadu_si256,
        _mm256_madd_epi16, _mm256_set1_epi32, _mm256_storeu_si256, _mm_loadu_si128,
    };
    debug_assert!(j0 + acc.len() <= n);
    debug_assert_eq!(panel.len(), 2 * arow.len().div_ceil(2) * n);
    let k2 = arow.len().div_ceil(2);
    let len = acc.len();
    let pair_vec = |t: usize| {
        let (a0, a1) = arow_pair(arow, t);
        // Every i32 lane holds the i16 pair (a0, a1), matching the
        // (b[2j], b[2j+1]) pairs `cvtepi8_epi16` produces. Safe to call
        // here: the enclosing fn already carries the avx2 feature.
        _mm256_set1_epi32(((a1 as i16 as u16 as i32) << 16) | (a0 as i16 as u16 as i32))
    };
    let mut j = 0;
    // 32-column block: four i32x8 accumulators live in registers for
    // the whole reduction, so the only per-pair memory traffic is the
    // 64 panel bytes actually being multiplied.
    while j + 32 <= len {
        // SAFETY: `j + 32 <= acc.len()` bounds the four 8-lane
        // accumulator loads/stores; for every pair `t < k2` the four
        // 16-byte panel loads cover bytes `(t·n + j0 + j)·2 ..
        // (t·n + j0 + j + 32)·2`, inside the panel because
        // `j0 + j + 32 <= n` and the panel holds `2·k2·n` bytes. The
        // i16 `madd` products are at most 127² so each pairwise i32 sum
        // is exact. Unaligned variants are used throughout.
        unsafe {
            let base = acc.as_mut_ptr().add(j);
            let mut s0 = _mm256_loadu_si256(base as *const __m256i);
            let mut s1 = _mm256_loadu_si256(base.add(8) as *const __m256i);
            let mut s2 = _mm256_loadu_si256(base.add(16) as *const __m256i);
            let mut s3 = _mm256_loadu_si256(base.add(24) as *const __m256i);
            for t in 0..k2 {
                let va = pair_vec(t);
                let b = panel.as_ptr().add((t * n + j0 + j) * 2);
                let lane = |off: usize| {
                    _mm256_cvtepi8_epi16(_mm_loadu_si128(b.add(off) as *const __m128i))
                };
                s0 = _mm256_add_epi32(s0, _mm256_madd_epi16(lane(0), va));
                s1 = _mm256_add_epi32(s1, _mm256_madd_epi16(lane(16), va));
                s2 = _mm256_add_epi32(s2, _mm256_madd_epi16(lane(32), va));
                s3 = _mm256_add_epi32(s3, _mm256_madd_epi16(lane(48), va));
            }
            _mm256_storeu_si256(base as *mut __m256i, s0);
            _mm256_storeu_si256(base.add(8) as *mut __m256i, s1);
            _mm256_storeu_si256(base.add(16) as *mut __m256i, s2);
            _mm256_storeu_si256(base.add(24) as *mut __m256i, s3);
        }
        j += 32;
    }
    // 8-column block for mid-size remainders.
    while j + 8 <= len {
        // SAFETY: same bounds argument with a single 8-lane accumulator
        // and one 16-byte panel load per pair (`j0 + j + 8 <= n`).
        unsafe {
            let base = acc.as_mut_ptr().add(j);
            let mut s0 = _mm256_loadu_si256(base as *const __m256i);
            for t in 0..k2 {
                let va = pair_vec(t);
                let b = panel.as_ptr().add((t * n + j0 + j) * 2);
                let vb = _mm256_cvtepi8_epi16(_mm_loadu_si128(b as *const __m128i));
                s0 = _mm256_add_epi32(s0, _mm256_madd_epi16(vb, va));
            }
            _mm256_storeu_si256(base as *mut __m256i, s0);
        }
        j += 8;
    }
    if j < len {
        for t in 0..k2 {
            let (a0, a1) = arow_pair(arow, t);
            qaxpy2_scalar(
                &mut acc[j..],
                a0,
                a1,
                &panel[(t * n + j0 + j) * 2..(t * n + j0 + len) * 2],
            );
        }
    }
}

#[cfg(target_arch = "aarch64")]
#[target_feature(enable = "neon")]
fn qgemm_row_neon(arow: &[i8], panel: &[i8], n: usize, j0: usize, acc: &mut [i32]) {
    use std::arch::aarch64::{
        vdup_n_s16, vget_high_s8, vget_low_s8, vld1q_s32, vld1q_s8, vmull_s8, vpadalq_s16,
        vreinterpret_s8_s16, vst1q_s32,
    };
    debug_assert!(j0 + acc.len() <= n);
    debug_assert_eq!(panel.len(), 2 * arow.len().div_ceil(2) * n);
    let k2 = arow.len().div_ceil(2);
    let len = acc.len();
    let pair_vec = |t: usize| {
        let (a0, a1) = arow_pair(arow, t);
        // An i8x8 of repeated (a0, a1) pairs, aligned with the panel's
        // column-pair interleaving.
        // SAFETY: pure register ops.
        unsafe { vreinterpret_s8_s16(vdup_n_s16(((a1 as i16) << 8) | (a0 as u8 as i16))) }
    };
    let mut j = 0;
    // 16-column block: four i32x4 accumulators stay in registers across
    // the whole reduction.
    while j + 16 <= len {
        // SAFETY: `j + 16 <= acc.len()` bounds the four 4-lane
        // accumulator loads/stores; for every pair `t < k2` the two
        // 16-byte panel loads cover bytes `(t·n + j0 + j)·2 ..
        // (t·n + j0 + j + 16)·2`, inside the panel because
        // `j0 + j + 16 <= n` and the panel holds `2·k2·n` bytes. The
        // widening i8 multiplies and pairwise i16→i32 accumulations are
        // exact (|product| ≤ 127²).
        unsafe {
            let base = acc.as_mut_ptr().add(j);
            let mut s0 = vld1q_s32(base);
            let mut s1 = vld1q_s32(base.add(4));
            let mut s2 = vld1q_s32(base.add(8));
            let mut s3 = vld1q_s32(base.add(12));
            for t in 0..k2 {
                let va = pair_vec(t);
                let b = panel.as_ptr().add((t * n + j0 + j) * 2);
                let vb0 = vld1q_s8(b);
                let vb1 = vld1q_s8(b.add(16));
                s0 = vpadalq_s16(s0, vmull_s8(va, vget_low_s8(vb0)));
                s1 = vpadalq_s16(s1, vmull_s8(va, vget_high_s8(vb0)));
                s2 = vpadalq_s16(s2, vmull_s8(va, vget_low_s8(vb1)));
                s3 = vpadalq_s16(s3, vmull_s8(va, vget_high_s8(vb1)));
            }
            vst1q_s32(base, s0);
            vst1q_s32(base.add(4), s1);
            vst1q_s32(base.add(8), s2);
            vst1q_s32(base.add(12), s3);
        }
        j += 16;
    }
    // 8-column block for mid-size remainders.
    while j + 8 <= len {
        // SAFETY: same bounds argument with two 4-lane accumulators and
        // one 16-byte panel load per pair (`j0 + j + 8 <= n`).
        unsafe {
            let base = acc.as_mut_ptr().add(j);
            let mut s0 = vld1q_s32(base);
            let mut s1 = vld1q_s32(base.add(4));
            for t in 0..k2 {
                let va = pair_vec(t);
                let vb = vld1q_s8(panel.as_ptr().add((t * n + j0 + j) * 2));
                s0 = vpadalq_s16(s0, vmull_s8(va, vget_low_s8(vb)));
                s1 = vpadalq_s16(s1, vmull_s8(va, vget_high_s8(vb)));
            }
            vst1q_s32(base, s0);
            vst1q_s32(base.add(4), s1);
        }
        j += 8;
    }
    if j < len {
        for t in 0..k2 {
            let (a0, a1) = arow_pair(arow, t);
            qaxpy2_scalar(
                &mut acc[j..],
                a0,
                a1,
                &panel[(t * n + j0 + j) * 2..(t * n + j0 + len) * 2],
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detect_names_roundtrip() {
        for isa in [Isa::Avx2, Isa::Neon, Isa::Scalar] {
            assert_eq!(Isa::parse(isa.name()), Some(isa));
        }
        assert_eq!(Isa::parse("AVX2"), Some(Isa::Avx2));
        assert_eq!(Isa::parse("sse9"), None);
    }

    #[test]
    fn sanitize_never_yields_unsupported_simd() {
        for requested in [Isa::Avx2, Isa::Neon, Isa::Scalar] {
            let got = requested.sanitize();
            assert!(got == Isa::Scalar || got == Isa::detect());
        }
        assert_eq!(Isa::Scalar.sanitize(), Isa::Scalar);
    }

    #[test]
    fn axpy_matches_scalar_bits_on_detected_isa() {
        let isa = Isa::detect();
        // Lengths straddling every lane boundary, including empty.
        for len in [0usize, 1, 3, 7, 8, 9, 15, 16, 17, 31, 64, 100] {
            let b: Vec<f32> = (0..len).map(|i| (i as f32).sin() * 3.0).collect();
            let a = 0.7391f32;
            let mut expect: Vec<f32> = (0..len).map(|i| (i as f32).cos()).collect();
            let mut got = expect.clone();
            axpy_scalar(&mut expect, a, &b);
            axpy(isa, &mut got, a, &b);
            assert_eq!(
                got.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                expect.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "len={len} isa={:?}",
                isa
            );
        }
    }

    #[test]
    fn qdot_matches_scalar_on_detected_isa() {
        let isa = Isa::detect();
        for len in [0usize, 1, 7, 8, 9, 15, 16, 17, 33, 127, 324] {
            let a: Vec<i8> = (0..len).map(|i| ((i * 37 + 11) % 255) as i8).collect();
            let b: Vec<i8> = (0..len).map(|i| ((i * 91 + 3) % 255) as i8).collect();
            assert_eq!(qdot(isa, &a, &b), qdot_scalar(&a, &b), "len={len}");
        }
    }

    #[test]
    fn qdot_extremes_stay_exact() {
        let a = vec![-127i8; 1024];
        let b = vec![-127i8; 1024];
        assert_eq!(qdot(Isa::detect(), &a, &b), 1024 * 127 * 127);
        let c = vec![127i8; 1024];
        assert_eq!(qdot(Isa::detect(), &a, &c), -1024 * 127 * 127);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn qdot_length_mismatch_panics() {
        qdot(Isa::Scalar, &[1], &[1, 2]);
    }

    #[test]
    fn qgemm_row_extremes_stay_exact() {
        // One reduction pair at the i8 extremes: each lane gets
        // (-127)(-127) + (127)(-127) = 0, then 2·127² for (-127, -127).
        let panel = vec![-127i8; 64];
        let mut acc = vec![0i32; 32];
        qgemm_row(Isa::detect(), &[-127, 127], &panel, 32, 0, &mut acc);
        assert!(acc.iter().all(|&v| v == 0));
        qgemm_row(Isa::detect(), &[-127, -127], &panel, 32, 0, &mut acc);
        assert!(acc.iter().all(|&v| v == 2 * 127 * 127));
    }

    /// Zero-fills `out` and runs one [`axpy_scalar`] per (row, k): the
    /// loop [`gemm_tile`] must reproduce bit for bit.
    fn axpy_loop(a: &[f32], b: &[f32], out: &mut [f32], k: usize, n: usize) {
        out.fill(0.0);
        for (i, orow) in out.chunks_mut(n).enumerate() {
            for p in 0..k {
                axpy_scalar(orow, a[i * k + p], &b[p * n..(p + 1) * n]);
            }
        }
    }

    #[test]
    fn gemm_tile_matches_the_axpy_loop_across_column_tails() {
        // Widths through every tail length around the 16- and 8-column
        // blocks; non-finite and signed-zero rhs values ride along.
        for &(rows, k, n) in &[
            (4usize, 1usize, 1usize),
            (4, 3, 7),
            (8, 13, 24),
            (4, 9, 31),
            (12, 5, 60),
        ] {
            let a: Vec<f32> = (0..rows * k).map(|i| (i as f32 * 0.37).sin()).collect();
            let mut b: Vec<f32> = (0..k * n).map(|i| (i as f32 * 0.11).cos() * 2.0).collect();
            b[0] = -0.0;
            if b.len() > 2 {
                b[1] = f32::INFINITY;
                b[2] = f32::NAN;
            }
            let mut expect = vec![0.0f32; rows * n];
            axpy_loop(&a, &b, &mut expect, k, n);
            // Every NaN reads as one: which NaN an add of two NaNs
            // returns hangs on an operand order the compiler may swap.
            let bits = |v: &[f32]| {
                v.iter()
                    .map(|x| if x.is_nan() { u32::MAX } else { x.to_bits() })
                    .collect::<Vec<_>>()
            };
            for isa in [Isa::detect(), Isa::Scalar] {
                let mut got = vec![7.0f32; rows * n];
                gemm_tile(isa, &a, &b, &mut got, rows, k, n);
                assert_eq!(
                    bits(&got),
                    bits(&expect),
                    "rows={rows} k={k} n={n} isa={isa:?}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "rows must come in tiles")]
    fn gemm_tile_partial_tile_panics() {
        gemm_tile(Isa::Scalar, &[1.0; 3], &[1.0], &mut [0.0; 3], 3, 1, 1);
    }

    #[test]
    fn quantize_value_rounds_ties_to_even() {
        assert_eq!(quantize_value(2.5, 1.0), 2);
        assert_eq!(quantize_value(3.5, 1.0), 4);
        assert_eq!(quantize_value(-2.5, 1.0), -2);
        assert_eq!(quantize_value(-3.5, 1.0), -4);
        assert_eq!(quantize_value(400.0, 1.0), 127);
        assert_eq!(quantize_value(-400.0, 1.0), -127);
        assert_eq!(quantize_value(0.0, 1.0), 0);
    }

    #[test]
    fn quantize_pair_matches_scalar_on_detected_isa() {
        let isa = Isa::detect();
        for n in [0usize, 1, 3, 7, 8, 9, 15, 16, 17, 40, 100] {
            let row0: Vec<f32> = (0..n)
                .map(|j| (j as f32 * 0.37 - 5.0) * if j % 3 == 0 { -1.0 } else { 1.0 })
                .collect();
            let row1: Vec<f32> = (0..n).map(|j| 130.0 - j as f32 * 1.9).collect();
            let inv: Vec<f32> = (0..n).map(|j| 0.1 + j as f32 * 0.45).collect();
            for partner in [true, false] {
                let row1 = partner.then_some(row1.as_slice());
                let mut expect = vec![0i8; 2 * n];
                let mut got = vec![99i8; 2 * n];
                quantize_pair_scalar(&row0, row1, &inv, &mut expect);
                quantize_pair_i8(isa, &row0, row1, &inv, &mut got);
                assert_eq!(expect, got, "n={n} partner={partner} isa={isa:?}");
            }
        }
    }

    #[test]
    fn quantize_pair_handles_ties_and_saturation() {
        // Exact .5 ties round to even on every ISA, and magnitudes
        // beyond the i8 range clamp to ±127.
        let row0 = [2.5f32, 3.5, -2.5, -3.5, 1_000.0, -1_000.0, 0.5, -0.5, 126.5];
        let inv = [1.0f32; 9];
        let mut out = [0i8; 18];
        quantize_pair_i8(Isa::detect(), &row0, None, &inv, &mut out);
        let got: Vec<i8> = out.iter().step_by(2).copied().collect();
        assert_eq!(got, vec![2, 4, -2, -4, 127, -127, 0, 0, 126]);
        assert!(out.iter().skip(1).step_by(2).all(|&v| v == 0));
    }

    #[test]
    #[should_panic(expected = "paired output is twice the row")]
    fn quantize_pair_bad_output_len_panics() {
        quantize_pair_i8(Isa::Scalar, &[1.0, 2.0], None, &[1.0, 1.0], &mut [0i8; 3]);
    }

    #[test]
    fn qgemm_row_matches_scalar_on_detected_isa() {
        let isa = Isa::detect();
        // Widths crossing every block boundary (32/16/8 + scalar tail)
        // and both parities of k (phantom odd row).
        for &(k, n) in &[
            (1usize, 1usize),
            (3, 7),
            (27, 33),
            (27, 100),
            (9, 40),
            (4, 70),
            (5, 129),
        ] {
            let k2 = k.div_ceil(2);
            let arow: Vec<i8> = (0..k)
                .map(|p| (((p * 37 + 11) % 255) as i32 - 127).clamp(-127, 127) as i8)
                .collect();
            let panel: Vec<i8> = (0..2 * k2 * n)
                .map(|i| (((i * 73 + 5) % 255) as i32 - 127).clamp(-127, 127) as i8)
                .collect();
            for j0 in [0usize, 1, n / 2] {
                let len = n - j0;
                let mut expect = vec![7i32; len];
                let mut got = expect.clone();
                qgemm_row_scalar(&arow, &panel, n, j0, &mut expect);
                qgemm_row(isa, &arow, &panel, n, j0, &mut got);
                assert_eq!(expect, got, "k={k} n={n} j0={j0} isa={isa:?}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "panel extent mismatch")]
    fn qgemm_row_bad_panel_panics() {
        qgemm_row(Isa::Scalar, &[1, 2], &[0i8; 7], 2, 0, &mut [0i32; 2]);
    }

    #[test]
    fn unsupported_isa_requests_dispatch_safely() {
        // `Isa` is freely constructible (any `parse` spelling), so every
        // dispatcher sanitizes for itself: at most one of these two is
        // the host's ISA, and requesting the other must still execute on
        // a supported path with identical results — never reach a
        // `#[target_feature]` body the CPU lacks.
        for isa in [Isa::Avx2, Isa::Neon] {
            let b: Vec<f32> = (0..33).map(|i| i as f32 * 0.25 - 3.0).collect();
            let mut expect: Vec<f32> = (0..33).map(|i| (i as f32).sqrt()).collect();
            let mut got = expect.clone();
            axpy_scalar(&mut expect, 1.5, &b);
            axpy(isa, &mut got, 1.5, &b);
            assert_eq!(expect, got, "axpy isa={isa:?}");

            let qa: Vec<i8> = (0..33).map(|i| (i - 16) as i8).collect();
            let qb: Vec<i8> = (0..33i32).map(|i| (i * 7 % 100 - 50) as i8).collect();
            assert_eq!(
                qdot(isa, &qa, &qb),
                qdot_scalar(&qa, &qb),
                "qdot isa={isa:?}"
            );

            let (ta, tb): (Vec<f32>, Vec<f32>) = (
                (0..12).map(|i| i as f32 - 5.5).collect(),
                (0..33).map(|i| i as f32 * 0.5).collect(),
            );
            let mut te = vec![0.0f32; 44];
            let mut tg = vec![1.0f32; 44];
            axpy_loop(&ta, &tb, &mut te, 3, 11);
            gemm_tile(isa, &ta, &tb, &mut tg, 4, 3, 11);
            assert_eq!(te, tg, "gemm_tile isa={isa:?}");

            let (k, n) = (5usize, 33usize);
            let arow: Vec<i8> = (0..k).map(|p| (p as i32 * 11 - 20) as i8).collect();
            let gp: Vec<i8> = (0..2 * k.div_ceil(2) * n)
                .map(|i| (i as i32 % 50 - 25) as i8)
                .collect();
            let mut ge = vec![1i32; n];
            let mut gg = ge.clone();
            qgemm_row_scalar(&arow, &gp, n, 0, &mut ge);
            qgemm_row(isa, &arow, &gp, n, 0, &mut gg);
            assert_eq!(ge, gg, "qgemm_row isa={isa:?}");

            let inv = vec![0.5f32; 17];
            let row: Vec<f32> = (0..17).map(|i| i as f32 * 3.3 - 20.0).collect();
            let mut pe = vec![0i8; 34];
            let mut pg = vec![99i8; 34];
            quantize_pair_scalar(&row, None, &inv, &mut pe);
            quantize_pair_i8(isa, &row, None, &inv, &mut pg);
            assert_eq!(pe, pg, "quantize_pair isa={isa:?}");
        }
    }

    #[test]
    fn quantize_pair_nonfinite_matches_scalar() {
        // NaN, ±inf, and out-of-i32-range products must quantize
        // identically on every ISA: NaN → 0, saturation → ±127. A raw
        // vector convert would yield INT_MIN (→ -127) for all of these,
        // so this pins the pre-convert zeroing/clamping in the SIMD
        // paths against the scalar reference.
        let isa = Isa::detect();
        let row0 = [
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            1e30,
            -1e30,
            f32::MAX,
            f32::MIN,
            0.0,
            -0.0,
            f32::NAN,
            64.5,
            -64.5,
            f32::INFINITY,
            1.0,
            -1.0,
            200.0,
        ];
        let row1: Vec<f32> = row0.iter().rev().copied().collect();
        let mut inv = vec![1.0f32; row0.len()];
        // inf · 0 = NaN on the product side, not just the input side.
        inv[12] = 0.0;
        for partner in [true, false] {
            let row1 = partner.then_some(row1.as_slice());
            let mut expect = vec![0i8; 2 * row0.len()];
            let mut got = vec![99i8; 2 * row0.len()];
            quantize_pair_scalar(&row0, row1, &inv, &mut expect);
            quantize_pair_i8(isa, &row0, row1, &inv, &mut got);
            assert_eq!(expect, got, "partner={partner} isa={isa:?}");
        }
        // The scalar contract on the extremes, pinned explicitly.
        assert_eq!(quantize_value(f32::NAN, 1.0), 0);
        assert_eq!(quantize_value(f32::INFINITY, 1.0), 127);
        assert_eq!(quantize_value(f32::NEG_INFINITY, 1.0), -127);
    }
}
