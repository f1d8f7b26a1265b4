//! Int8 quantized tensors and the quantized GEMM.
//!
//! Quantization is **symmetric, per-first-axis-row**: every row `i` of
//! a tensor (its leading-dimension slice) gets one positive scale
//! `s_i = max|x|/127` (`1.0` for an all-zero row) and stores
//! `q = round_ties_even(x / s_i)` clamped to `[-127, 127]` (see
//! [`simd::quantize_value`] for why ties-to-even). For a conv/linear
//! weight stored `[out, fan_in]` this is exactly per-output-channel
//! calibration; for an activation batch `[n, features]` it is per-row
//! dynamic quantization.
//!
//! The quantized GEMM accumulates `i8 × i8` products in `i32` —
//! integer-exact, so results are bit-identical across thread counts and
//! instruction sets by construction — and dequantizes each output once:
//! `out[i, j] = s_a[i] · s_b[j] · Σ_p qa[i, p] · qb[j, p]`.
//!
//! Everything here is deterministic: quantizing the same f32 bits
//! always yields the same i8 bits and scales, which is what lets every
//! serving replica quantize its own copy of a checkpoint and still agree
//! with every other replica bit-for-bit.

use crate::kernel::{self, simd};
use crate::Tensor;

/// The numeric precision a model (or stream) runs its forwards at.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Precision {
    /// Full f32 — the bit-identity reference path.
    #[default]
    F32,
    /// Symmetric per-channel int8 with i32 accumulation.
    Int8,
}

impl Precision {
    /// The JSON/config spelling: `"f32"` or `"int8"`.
    pub fn label(self) -> &'static str {
        match self {
            Precision::F32 => "f32",
            Precision::Int8 => "int8",
        }
    }

    /// Parses the [`Precision::label`] spelling (case-insensitive).
    pub fn parse(s: &str) -> Option<Precision> {
        match s.trim().to_ascii_lowercase().as_str() {
            "f32" => Some(Precision::F32),
            "int8" => Some(Precision::Int8),
            _ => None,
        }
    }
}

// One rounding contract for the whole workspace: every quantizer below
// goes through `simd::quantize_value`, so scalar and vector paths agree
// bit-for-bit.
use simd::quantize_value;

/// The symmetric scale for a row: `max|x| / 127`, or `1.0` when the row
/// is all zeros (any scale represents zeros exactly; `1.0` keeps the
/// bytes deterministic).
#[inline]
fn row_scale(row: &[f32]) -> f32 {
    let mut maxabs = 0.0f32;
    for &v in row {
        maxabs = maxabs.max(v.abs());
    }
    if maxabs == 0.0 {
        1.0
    } else {
        maxabs / 127.0
    }
}

/// An int8 tensor with per-first-axis-row symmetric scales.
///
/// ```
/// use safecross_tensor::{QTensor, Tensor};
///
/// let w = Tensor::from_vec(vec![1.0, -2.0, 0.5, 4.0], &[2, 2]);
/// let q = QTensor::quantize_rows(&w);
/// assert_eq!(q.dims(), &[2, 2]);
/// assert_eq!(q.scales().len(), 2);
/// assert!(q.dequantize().allclose(&w, 0.05));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct QTensor {
    dims: Vec<usize>,
    data: Vec<i8>,
    scales: Vec<f32>,
}

impl QTensor {
    /// Quantizes a tensor with one symmetric scale per first-axis row.
    ///
    /// # Panics
    ///
    /// Panics on a 0-dimensional tensor.
    pub fn quantize_rows(t: &Tensor) -> QTensor {
        let dims = t.dims().to_vec();
        assert!(!dims.is_empty(), "cannot row-quantize a scalar");
        let rows = dims[0];
        let row_len = t.len().checked_div(rows).unwrap_or(0);
        let mut data = vec![0i8; t.len()];
        let mut scales = vec![1.0f32; rows];
        for i in 0..rows {
            let row = &t.data()[i * row_len..(i + 1) * row_len];
            let s = row_scale(row);
            scales[i] = s;
            let inv = 1.0 / s;
            for (q, &v) in data[i * row_len..(i + 1) * row_len].iter_mut().zip(row) {
                *q = quantize_value(v, inv);
            }
        }
        QTensor { dims, data, scales }
    }

    /// The tensor's dimensions.
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// The quantized values, row-major.
    pub fn data(&self) -> &[i8] {
        &self.data
    }

    /// Per-first-axis-row symmetric scales.
    pub fn scales(&self) -> &[f32] {
        &self.scales
    }

    /// Elements per leading-axis row.
    fn row_len(&self) -> usize {
        self.data.len().checked_div(self.dims[0]).unwrap_or(0)
    }

    /// Total element count.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Reconstructs the f32 tensor `q · s_row` (lossy: this is the
    /// value the quantized path actually computes with).
    pub fn dequantize(&self) -> Tensor {
        let rows = self.dims[0];
        let row_len = self.row_len();
        let mut out = vec![0.0f32; self.data.len()];
        for i in 0..rows {
            let s = self.scales[i];
            for (o, &q) in out[i * row_len..(i + 1) * row_len]
                .iter_mut()
                .zip(&self.data[i * row_len..(i + 1) * row_len])
            {
                *o = q as f32 * s;
            }
        }
        Tensor::from_vec(out, &self.dims)
    }
}

/// Quantized `A × Bᵀ`: `out[i, j] = sa[i] · sb[j] · Σ_p a[i, p] · b[j, p]`
/// with `a` stored `[m, k]` and `b` stored `[n, k]` (both row-major, so
/// every dot product streams two contiguous rows). Accumulation is
/// integer-exact, so the result is bit-identical across thread counts
/// and instruction sets.
///
/// # Panics
///
/// Panics if a slice length disagrees with its dimensions or `k`
/// exceeds [`simd::QDOT_MAX_K`].
#[allow(clippy::too_many_arguments)] // two operand/scale pairs + dims: the GEMM shape
pub fn qgemm_transb_into(
    a: &[i8],
    a_scales: &[f32],
    b: &[i8],
    b_scales: &[f32],
    out: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) {
    assert_eq!(a.len(), m * k, "qgemm lhs length mismatch");
    assert_eq!(b.len(), n * k, "qgemm rhs length mismatch");
    assert_eq!(a_scales.len(), m, "qgemm lhs scale count mismatch");
    assert_eq!(b_scales.len(), n, "qgemm rhs scale count mismatch");
    assert_eq!(out.len(), m * n, "qgemm output length mismatch");
    assert!(k <= simd::QDOT_MAX_K, "qgemm reduction too deep for i32");
    let isa = kernel::isa();
    let workers = kernel::effective_workers(m, k, n, kernel::threads());
    kernel::partition_out(out, m, n, workers, |chunk, start| {
        for (off, o) in chunk.iter_mut().enumerate() {
            let pos = start + off;
            let i = pos / n;
            let j = pos - i * n;
            let acc = simd::qdot(isa, &a[i * k..(i + 1) * k], &b[j * k..(j + 1) * k]);
            *o = a_scales[i] * b_scales[j] * acc as f32;
        }
    });
}

/// Quantizes an `[k, n]` column matrix (the im2col/vol2col layout:
/// one *column* per output position) into the **transposed** `[n, k]`
/// int8 layout with one symmetric scale per column — the exact rhs
/// shape [`qgemm_transb_into`] wants. Convolutions use the
/// pair-interleaved [`quantize_cols_paired`] instead; this transposed
/// form suits consumers that want each quantized column contiguous.
///
/// # Panics
///
/// Panics if a slice length disagrees with its dimensions.
pub fn quantize_cols_transposed(
    cols: &[f32],
    k: usize,
    n: usize,
    qdata: &mut [i8],
    scales: &mut [f32],
) {
    assert_eq!(cols.len(), k * n, "column matrix length mismatch");
    assert_eq!(qdata.len(), k * n, "quantized buffer length mismatch");
    assert_eq!(scales.len(), n, "one scale per column");
    column_scales(cols, k, n, scales);
    // Quantize in j-blocks: reads stay row-major (sequential within each
    // block row), and a block's transposed writes land in an
    // L1/L2-resident `JBLOCK × k` window instead of striding the whole
    // output per column.
    let mut inv = [0.0f32; JBLOCK];
    let mut jb = 0;
    while jb < n {
        let je = n.min(jb + JBLOCK);
        for (x, &s) in inv.iter_mut().zip(&scales[jb..je]) {
            *x = 1.0 / s;
        }
        for p in 0..k {
            let row = &cols[p * n + jb..p * n + je];
            for (dj, &v) in row.iter().enumerate() {
                qdata[(jb + dj) * k + p] = quantize_value(v, inv[dj]);
            }
        }
        jb = je;
    }
}

/// Column-block width for the blocked quantizers: reciprocal scales stay
/// on the stack and a transposed write window stays cache-resident.
const JBLOCK: usize = 256;

/// Fills `scales[j]` with the symmetric scale of column `j` of an
/// `[k, n]` matrix (`max|x| / 127`, `1.0` for an all-zero column),
/// sweeping row-major so `cols` is streamed once sequentially while the
/// `n` running maxima stay cache-resident. `f32::max` is exact and
/// order-free, so this matches the per-column definition bit-for-bit.
fn column_scales(cols: &[f32], k: usize, n: usize, scales: &mut [f32]) {
    scales.fill(0.0);
    for p in 0..k {
        for (s, &v) in scales.iter_mut().zip(&cols[p * n..(p + 1) * n]) {
            *s = s.max(v.abs());
        }
    }
    for s in scales.iter_mut() {
        *s = if *s == 0.0 { 1.0 } else { *s / 127.0 };
    }
}

/// Quantizes an `[k, n]` column matrix into the **pair-interleaved**
/// panel [`qgemm_paired_into`] consumes: reduction rows `2t` and
/// `2t + 1` are stored column-by-column as adjacent bytes
/// (`panel[(t·n + j)·2] = q(cols[2t, j])`,
/// `panel[(t·n + j)·2 + 1] = q(cols[2t + 1, j])`), with one symmetric
/// scale per column and a zeroed phantom row when `k` is odd. Both
/// passes stream `cols` row-major — no strided traffic — and the layout
/// is exactly what lets [`simd::qaxpy2`] fold two `i8 × i8` products
/// per `i32` lane in one instruction.
///
/// The quantized value of every real element is identical to
/// [`quantize_cols_transposed`]'s; only the placement differs.
///
/// # Panics
///
/// Panics if a slice length disagrees with its dimensions
/// (`qpanel.len()` must be `2 · ⌈k/2⌉ · n`).
pub fn quantize_cols_paired(
    cols: &[f32],
    k: usize,
    n: usize,
    qpanel: &mut [i8],
    scales: &mut [f32],
) {
    let k2 = k.div_ceil(2);
    assert_eq!(cols.len(), k * n, "column matrix length mismatch");
    assert_eq!(qpanel.len(), 2 * k2 * n, "paired panel length mismatch");
    assert_eq!(scales.len(), n, "one scale per column");
    column_scales(cols, k, n, scales);
    let isa = kernel::isa();
    let mut inv = [0.0f32; JBLOCK];
    let mut jb = 0;
    while jb < n {
        let je = n.min(jb + JBLOCK);
        for (x, &s) in inv.iter_mut().zip(&scales[jb..je]) {
            *x = 1.0 / s;
        }
        for t in 0..k2 {
            let row0 = &cols[2 * t * n + jb..2 * t * n + je];
            let out = &mut qpanel[(t * n + jb) * 2..(t * n + je) * 2];
            // Odd k: the phantom partner row is all zeros, which
            // contributes nothing to any accumulator.
            let row1 =
                (2 * t + 1 < k).then(|| &cols[(2 * t + 1) * n + jb..(2 * t + 1) * n + je]);
            simd::quantize_pair_i8(isa, row0, row1, &inv[..je - jb], out);
        }
        jb = je;
    }
}

/// Quantized flat GEMM over a pair-interleaved activation panel:
/// `out[i, j] = sa[i] · sb[j] · Σ_p a[i, p] · cols[p, j]` with `a`
/// stored `[m, k]` row-major and the rhs produced by
/// [`quantize_cols_paired`]. This is the convolution shape — `m` output
/// channels against an im2col/vol2col matrix — where the transposed
/// [`qgemm_transb_into`] loses to shallow fan-ins: per-output dot
/// products over `k = 9..27` spend their time in scalar tails and
/// horizontal reductions, while the paired panel keeps every instruction
/// a full-width multiply-accumulate along `n`. Accumulation is
/// integer-exact, so results are bit-identical across thread counts and
/// instruction sets.
///
/// # Panics
///
/// Panics if a slice length disagrees with its dimensions or `k`
/// exceeds [`simd::QDOT_MAX_K`].
#[allow(clippy::too_many_arguments)] // two operand/scale pairs + dims: the GEMM shape
pub fn qgemm_paired_into(
    a: &[i8],
    a_scales: &[f32],
    bpanel: &[i8],
    b_scales: &[f32],
    out: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) {
    let k2 = k.div_ceil(2);
    assert_eq!(a.len(), m * k, "qgemm lhs length mismatch");
    assert_eq!(bpanel.len(), 2 * k2 * n, "qgemm paired panel length mismatch");
    assert_eq!(a_scales.len(), m, "qgemm lhs scale count mismatch");
    assert_eq!(b_scales.len(), n, "qgemm rhs scale count mismatch");
    assert_eq!(out.len(), m * n, "qgemm output length mismatch");
    assert!(k <= simd::QDOT_MAX_K, "qgemm reduction too deep for i32");
    let isa = kernel::isa();
    let workers = kernel::effective_workers(m, k, n, kernel::threads());
    kernel::partition_out(out, m, n, workers, |chunk, start| {
        // A fixed stack tile of column sums: integer sums are per column,
        // so walking a row in tiles changes no bit and allocates nothing.
        let mut tile = [0i32; JBLOCK];
        let end = start + chunk.len();
        let mut pos = start;
        while pos < end {
            let i = pos / n;
            let j0 = pos - i * n;
            let j1 = n.min(j0 + (end - pos)).min(j0 + JBLOCK);
            let acc = &mut tile[..j1 - j0];
            acc.fill(0);
            // One register-blocked sweep over the whole reduction: the
            // accumulators never round-trip through memory per pair.
            simd::qgemm_row(isa, &a[i * k..(i + 1) * k], bpanel, n, j0, acc);
            let sa = a_scales[i];
            let oseg = &mut chunk[pos - start..pos - start + (j1 - j0)];
            for ((o, &sb), &v) in oseg.iter_mut().zip(&b_scales[j0..j1]).zip(acc.iter()) {
                *o = sa * sb * v as f32;
            }
            pos += j1 - j0;
        }
    });
}

/// Quantizes a `[n, k]` row-major batch (e.g. linear-layer activations)
/// in place into `qdata` with one scale per row — the lhs shape for
/// [`qgemm_transb_into`].
///
/// # Panics
///
/// Panics if a slice length disagrees with its dimensions.
pub fn quantize_rows_into(x: &[f32], n: usize, k: usize, qdata: &mut [i8], scales: &mut [f32]) {
    assert_eq!(x.len(), n * k, "row matrix length mismatch");
    assert_eq!(qdata.len(), n * k, "quantized buffer length mismatch");
    assert_eq!(scales.len(), n, "one scale per row");
    for i in 0..n {
        let row = &x[i * k..(i + 1) * k];
        let s = row_scale(row);
        scales[i] = s;
        let inv = 1.0 / s;
        for (q, &v) in qdata[i * k..(i + 1) * k].iter_mut().zip(row) {
            *q = quantize_value(v, inv);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::Isa;
    use crate::TensorRng;

    #[test]
    fn quantize_roundtrip_error_is_bounded() {
        let mut rng = TensorRng::seed_from(3);
        let t = rng.uniform(&[5, 40], -2.0, 2.0);
        let q = QTensor::quantize_rows(&t);
        let back = q.dequantize();
        for (i, (&a, &b)) in t.data().iter().zip(back.data()).enumerate() {
            let row = i / 40;
            // Half a quantization step per element.
            assert!((a - b).abs() <= 0.5 * q.scales()[row] + 1e-7, "{a} vs {b}");
        }
    }

    #[test]
    fn zero_rows_quantize_exactly() {
        let t = Tensor::zeros(&[3, 7]);
        let q = QTensor::quantize_rows(&t);
        assert!(q.data().iter().all(|&v| v == 0));
        assert!(q.scales().iter().all(|&s| s == 1.0));
        assert_eq!(q.dequantize(), t);
    }

    #[test]
    fn quantization_is_deterministic() {
        let mut rng = TensorRng::seed_from(4);
        let t = rng.uniform(&[4, 33], -1.0, 1.0);
        let a = QTensor::quantize_rows(&t);
        let b = QTensor::quantize_rows(&t.clone());
        assert_eq!(a, b);
    }

    /// Reference: dequantize then float matmul in exact i32-equivalent
    /// arithmetic (small products stay exact in f64).
    fn reference_qgemm(
        a: &[i8],
        sa: &[f32],
        b: &[i8],
        sb: &[f32],
        m: usize,
        k: usize,
        n: usize,
    ) -> Vec<f32> {
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0i32;
                for p in 0..k {
                    acc += a[i * k + p] as i32 * b[j * k + p] as i32;
                }
                out[i * n + j] = sa[i] * sb[j] * acc as f32;
            }
        }
        out
    }

    #[test]
    fn qgemm_matches_reference_across_threads_and_isa() {
        let mut rng = TensorRng::seed_from(6);
        for (m, k, n) in [(1usize, 1usize, 1usize), (4, 27, 33), (16, 324, 10), (3, 100, 7)] {
            let wa = rng.uniform(&[m.max(1), k], -1.5, 1.5);
            let wb = rng.uniform(&[n, k], -1.5, 1.5);
            let qa = QTensor::quantize_rows(&wa);
            let qb = QTensor::quantize_rows(&wb);
            let expect = reference_qgemm(qa.data(), qa.scales(), qb.data(), qb.scales(), m, k, n);
            let detected = Isa::detect();
            for isa in [Isa::Scalar, detected] {
                kernel::set_isa(isa);
                let mut out = vec![f32::NAN; m * n];
                qgemm_transb_into(
                    qa.data(),
                    qa.scales(),
                    qb.data(),
                    qb.scales(),
                    &mut out,
                    m,
                    k,
                    n,
                );
                assert_eq!(
                    out.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    expect.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    "isa={isa:?} m={m} k={k} n={n}"
                );
            }
            kernel::set_isa(detected);
        }
    }

    #[test]
    fn quantize_cols_transposed_matches_per_column_quantization() {
        let mut rng = TensorRng::seed_from(7);
        let (k, n) = (27, 50);
        let cols = rng.uniform(&[k, n], -3.0, 3.0);
        let mut qdata = vec![0i8; k * n];
        let mut scales = vec![0.0f32; n];
        quantize_cols_transposed(cols.data(), k, n, &mut qdata, &mut scales);
        // Column j of `cols` is row j of the transposed quantized view.
        let t = cols.transpose();
        let qt = QTensor::quantize_rows(&t);
        assert_eq!(&qdata, qt.data());
        assert_eq!(&scales, qt.scales());
    }

    #[test]
    fn quantize_cols_paired_matches_transposed_values() {
        let mut rng = TensorRng::seed_from(9);
        // Odd and even k, n straddling the JBLOCK boundary.
        for (k, n) in [(27usize, 300usize), (4, 10), (1, 7), (9, 257)] {
            let cols = rng.uniform(&[k, n], -3.0, 3.0);
            let k2 = k.div_ceil(2);
            let mut qt = vec![0i8; k * n];
            let mut st = vec![0.0f32; n];
            quantize_cols_transposed(cols.data(), k, n, &mut qt, &mut st);
            let mut qp = vec![0i8; 2 * k2 * n];
            let mut sp = vec![0.0f32; n];
            quantize_cols_paired(cols.data(), k, n, &mut qp, &mut sp);
            assert_eq!(sp, st, "k={k} n={n}");
            for j in 0..n {
                for p in 0..k {
                    assert_eq!(
                        qp[((p / 2) * n + j) * 2 + p % 2],
                        qt[j * k + p],
                        "k={k} n={n} p={p} j={j}"
                    );
                }
                if k % 2 == 1 {
                    assert_eq!(qp[((k / 2) * n + j) * 2 + 1], 0, "phantom row must be zero");
                }
            }
        }
    }

    #[test]
    fn qgemm_paired_matches_transb_across_threads_and_isa() {
        let mut rng = TensorRng::seed_from(10);
        let detected = Isa::detect();
        let threads = kernel::threads();
        // (16, 324, 3300) is 34 M flops: above the serial bar, so the
        // four-worker arm really partitions, and each row spans many
        // accumulator tiles.
        for (m, k, n) in [
            (4usize, 27usize, 320usize),
            (8, 9, 40),
            (16, 324, 100),
            (1, 1, 1),
            (16, 324, 3300),
        ] {
            let w = rng.uniform(&[m, k], -1.5, 1.5);
            let cols = rng.uniform(&[k, n], -2.0, 2.0);
            let qw = QTensor::quantize_rows(&w);
            // Reference through the transposed layout.
            let mut qt = vec![0i8; k * n];
            let mut st = vec![0.0f32; n];
            quantize_cols_transposed(cols.data(), k, n, &mut qt, &mut st);
            let mut expect = vec![f32::NAN; m * n];
            qgemm_transb_into(qw.data(), qw.scales(), &qt, &st, &mut expect, m, k, n);
            let k2 = k.div_ceil(2);
            let mut qp = vec![0i8; 2 * k2 * n];
            let mut sp = vec![0.0f32; n];
            quantize_cols_paired(cols.data(), k, n, &mut qp, &mut sp);
            for isa in [Isa::Scalar, detected] {
                for workers in [1usize, 4] {
                    kernel::set_isa(isa);
                    kernel::set_threads(workers);
                    let mut out = vec![f32::NAN; m * n];
                    qgemm_paired_into(qw.data(), qw.scales(), &qp, &sp, &mut out, m, k, n);
                    kernel::set_isa(detected);
                    kernel::set_threads(threads);
                    assert_eq!(
                        out.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                        expect.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                        "isa={isa:?} workers={workers} m={m} k={k} n={n}"
                    );
                }
            }
        }
    }

    #[test]
    fn quantize_rows_into_matches_qtensor() {
        let mut rng = TensorRng::seed_from(8);
        let x = rng.uniform(&[6, 19], -2.0, 2.0);
        let mut qdata = vec![0i8; 6 * 19];
        let mut scales = vec![0.0f32; 6];
        quantize_rows_into(x.data(), 6, 19, &mut qdata, &mut scales);
        let q = QTensor::quantize_rows(&x);
        assert_eq!(&qdata, q.data());
        assert_eq!(&scales, q.scales());
    }
}
