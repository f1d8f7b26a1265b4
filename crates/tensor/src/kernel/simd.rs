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
//!
//! Int8 has no kernels of its own: its quantized values are
//! integer-valued f32 and multiply through these f32 kernels exactly
//! (see [`crate::qtensor`]).

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
    /// x86-64 AVX2: 8-lane f32.
    Avx2,
    /// AArch64 NEON: 4-lane f32.
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

            let (ta, tb): (Vec<f32>, Vec<f32>) = (
                (0..12).map(|i| i as f32 - 5.5).collect(),
                (0..33).map(|i| i as f32 * 0.5).collect(),
            );
            let mut te = vec![0.0f32; 44];
            let mut tg = vec![1.0f32; 44];
            axpy_loop(&ta, &tb, &mut te, 3, 11);
            gemm_tile(isa, &ta, &tb, &mut tg, 4, 3, 11);
            assert_eq!(te, tg, "gemm_tile isa={isa:?}");
        }
    }
}
