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
//! The kernels, chosen so that vectorisation **cannot change result
//! bits**:
//!
//! - [`gemm_tile`]: the f32 GEMM over any number of rows. On AVX2 the
//!   rows come in blocks of [`TILE_ROWS`], each with a 4 × 16 block of
//!   accumulators held in registers across the whole reduction, then
//!   one 8-lane block per row and a masked 8-lane tail; the rows a
//!   block leaves over, and every row on the scalar ISA, run one safe
//!   loop. Each output element starts at `+0.0` and adds `a[i, p] ·
//!   b[p, j]` for ascending `p`, multiply and add separately rounded
//!   (never an FMA), on either route; lanes are independent output
//!   elements and masked lanes are columns nobody reads or writes. f32
//!   results are therefore bit-identical across `Isa`s, which is what
//!   lets [`Isa`] be a pure performance knob.
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
    /// The baseline build of the target, whatever the compiler
    /// vectorises it with; the reference semantics.
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
        Isa::Scalar
    }

    /// The JSON/env spelling: `"avx2"` or `"scalar"`.
    pub fn name(self) -> &'static str {
        match self {
            Isa::Avx2 => "avx2",
            Isa::Scalar => "scalar",
        }
    }

    /// Parses the [`Isa::name`] spelling (case-insensitive).
    pub fn parse(s: &str) -> Option<Isa> {
        match s.trim().to_ascii_lowercase().as_str() {
            "avx2" => Some(Isa::Avx2),
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
// f32 register tile: out[i, j] = Σ_p a[i, p] · b[p, j]
// ---------------------------------------------------------------------

/// Rows per register tile of [`gemm_tile`].
const TILE_ROWS: usize = 4;

/// Overwrites `out` (`rows × n`) with `a × b` for `a` of `rows × k` and
/// `b` of `k × n`, all row-major.
///
/// Every output element starts at `+0.0` and adds `a[i, p] · b[p, j]`
/// for ascending `p`, multiply and add separately rounded, on every
/// [`Isa`]; zero lhs elements are multiplied like any other (`0 · inf`
/// is NaN). On AVX2 the first `rows − rows % TILE_ROWS` rows run
/// through a 4 × 16 register tile; the rows it leaves over, and every
/// row on the scalar ISA, run [`gemm_rows`].
///
/// # Panics
///
/// Panics if a slice length disagrees with its dimensions.
pub(crate) fn gemm_tile(
    isa: Isa,
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    rows: usize,
    k: usize,
    n: usize,
) {
    assert_eq!(a.len(), rows * k, "gemm_tile lhs length mismatch");
    assert_eq!(b.len(), k * n, "gemm_tile rhs length mismatch");
    assert_eq!(out.len(), rows * n, "gemm_tile output length mismatch");
    let tiled = match isa.sanitize() {
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2 => {
            let tiled = rows - rows % TILE_ROWS;
            let (a, out) = (&a[..tiled * k], &mut out[..tiled * n]);
            // SAFETY: the `sanitize` above only yields `Isa::Avx2` when
            // `is_x86_feature_detected!("avx2")` holds on this host, so
            // the target feature is present.
            unsafe { gemm_tile_avx2(a, b, out, tiled, k, n) };
            tiled
        }
        _ => 0,
    };
    gemm_rows(&a[tiled * k..], b, &mut out[tiled * n..], k, n);
}

/// The rows of [`gemm_tile`] that no register tile takes: each output
/// row zero-filled, then per column block and ascending `p` one
/// multiply and one add per element, separately rounded (Rust never
/// contracts them into an FMA). Safe code, which the compiler
/// vectorises across independent output columns.
fn gemm_rows(a: &[f32], b: &[f32], out: &mut [f32], k: usize, n: usize) {
    // At `n = 0` `out` is empty and the `max` only keeps the chunk
    // size legal.
    for (i, orow) in out.chunks_exact_mut(n.max(1)).enumerate() {
        let arow = &a[i * k..(i + 1) * k];
        orow.fill(0.0);
        for jb in (0..n).step_by(super::COL_BLOCK) {
            let je = (jb + super::COL_BLOCK).min(n);
            for (p, &av) in arow.iter().enumerate() {
                let bseg = &b[p * n + jb..p * n + je];
                for (o, &bv) in orow[jb..je].iter_mut().zip(bseg) {
                    *o += av * bv;
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
                        // — in `gemm_rows`'s operand order.
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
/// the target feature, and the scalar arm runs it as the baseline
/// build compiles it. Lanes are independent output channels
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
        for isa in [Isa::Avx2, Isa::Scalar] {
            assert_eq!(Isa::parse(isa.name()), Some(isa));
        }
        assert_eq!(Isa::parse("AVX2"), Some(Isa::Avx2));
        assert_eq!(Isa::parse("neon"), None);
        assert_eq!(Isa::parse("sse9"), None);
    }

    #[test]
    fn sanitize_never_yields_unsupported_simd() {
        for requested in [Isa::Avx2, Isa::Scalar] {
            let got = requested.sanitize();
            assert!(got == Isa::Scalar || got == Isa::detect());
        }
        assert_eq!(Isa::Scalar.sanitize(), Isa::Scalar);
    }

    /// Zero-fills `out` and adds `a[i, p] · b[p, j]` for ascending `p`,
    /// element by element: the sequence [`gemm_tile`] must reproduce bit
    /// for bit.
    fn plain_loop(a: &[f32], b: &[f32], out: &mut [f32], k: usize, n: usize) {
        out.fill(0.0);
        for (i, orow) in out.chunks_mut(n).enumerate() {
            for p in 0..k {
                for (o, &bv) in orow.iter_mut().zip(&b[p * n..(p + 1) * n]) {
                    *o += a[i * k + p] * bv;
                }
            }
        }
    }

    #[test]
    fn gemm_tile_matches_the_plain_loop_across_row_and_column_tails() {
        // Row counts leaving 0–3 rows past the 4-row tile, widths through
        // every tail length around the 16- and 8-column blocks;
        // non-finite and signed-zero rhs values ride along.
        for &(rows, k, n) in &[
            (1usize, 1usize, 1usize),
            (2, 3, 7),
            (3, 13, 24),
            (4, 9, 31),
            (5, 5, 60),
            (6, 4, 17),
            (7, 11, 9),
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
            plain_loop(&a, &b, &mut expect, k, n);
            // Every NaN reads as one: which NaN an add of two NaNs
            // returns hangs on an operand order the compiler may swap.
            let bits = |v: &[f32]| {
                v.iter()
                    .map(|x| if x.is_nan() { u32::MAX } else { x.to_bits() })
                    .collect::<Vec<_>>()
            };
            for isa in [Isa::detect(), Isa::Scalar, Isa::Avx2] {
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
    fn unsupported_isa_requests_dispatch_safely() {
        // `Isa` is freely constructible (any `parse` spelling), so every
        // dispatcher sanitizes for itself: requesting AVX2 on a host
        // without it must still execute on a supported path with
        // identical results — never reach a `#[target_feature]` body the
        // CPU lacks.
        use super::super::direct::{transpose_into, Job, Layout, LANES};
        let isa = Isa::Avx2;
        let (ta, tb): (Vec<f32>, Vec<f32>) = (
            (0..15).map(|i| i as f32 - 5.5).collect(),
            (0..33).map(|i| i as f32 * 0.5).collect(),
        );
        let mut te = vec![0.0f32; 55];
        let mut tg = vec![1.0f32; 55];
        plain_loop(&ta, &tb, &mut te, 3, 11);
        gemm_tile(isa, &ta, &tb, &mut tg, 5, 3, 11);
        assert_eq!(te, tg, "gemm_tile isa={isa:?}");

        // A 1 × 1 convolution of three positions into two channels.
        let g = crate::Conv3dGeom {
            in_channels: 1,
            frames: 1,
            height: 1,
            width: 3,
            kernel_t: 1,
            kernel_s: 1,
            stride_t: 1,
            stride_s: 1,
            pad_t: 0,
            pad_s: 0,
        };
        let mut wt = [0.0f32; LANES];
        transpose_into(&[1.5, -3.0], 1, &mut wt);
        let job = Job {
            x: &[0.5, -2.0, 4.0],
            wt: &wt,
            bias: &[0.25, 1.0],
            positions: None,
            offsets: &[0],
            g,
            lay: Layout::new(&g),
        };
        let (mut ce, mut cg) = ([0.0f32; 6], [9.0f32; 6]);
        job.run(&mut ce);
        conv_direct(isa, &job, &mut cg);
        assert_eq!(ce, cg, "conv_direct isa={isa:?}");
    }
}
