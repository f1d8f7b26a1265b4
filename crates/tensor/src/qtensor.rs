//! Int8 quantization over the f32 kernels.
//!
//! Quantization is **symmetric**: a row (or column) gets one positive
//! scale `s = max|x|/127` (`1.0` when it is all zeros) and stores
//! `q = round_ties_even(x / s)` clamped to `[-127, 127]`, with NaN
//! quantizing to `0`. For a conv/linear weight stored `[out, fan_in]`,
//! one scale per row is per-output-channel calibration; a conv's
//! lowered activations get one scale per panel column ([`quantize_cols`])
//! and a linear layer's one per batch row ([`quantize_rows`]).
//!
//! The quantized values are stored as integer-valued `f32` and multiply
//! through the ordinary f32 GEMMs. That is exact: every product of two
//! values in `[-127, 127]` is an integer of magnitude at most 16 129, so
//! a sum of up to [`MAX_FAN_IN`] = 1 040 of them stays within 2²⁴, where
//! every integer is an `f32`. Every add is then exact in any order,
//! tile, thread split or instruction set, and the f32 sum *is* the
//! integer sum. [`dequantize`] turns each sum into a value,
//! `out[i, j] = s_row[i] · s_col[j] · Σ_p qa[i, p] · qb[p, j]`.
//!
//! Everything here is deterministic: quantizing the same f32 bits
//! always yields the same values and scales, which is what lets every
//! serving replica quantize its own copy of a checkpoint and still agree
//! with every other replica bit-for-bit.

/// The numeric precision a model (or stream) runs its forwards at.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Precision {
    /// Full f32 — the bit-identity reference path.
    #[default]
    F32,
    /// Symmetric per-channel int8, multiplied exactly on the f32 GEMM.
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

/// The largest fan-in an int8 product may reduce over:
/// `1040 · 127² = 16 774 160 ≤ 2²⁴`, so every partial sum is an integer
/// `f32` holds exactly. The quantizers panic past it.
pub const MAX_FAN_IN: usize = 1040;

fn check_fan_in(k: usize) {
    assert!(
        k <= MAX_FAN_IN,
        "int8 fan-in {k} exceeds {MAX_FAN_IN}: f32 sums of its products would round"
    );
}

/// `1.5 · 2²³`. Adding it to a value in `[-127, 127]` lands the sum in
/// `[2²³, 2²⁴)`, where the `f32` spacing is 1, so the add rounds to an
/// integer — ties to even, because the constant itself is even — and
/// subtracting it again is exact.
const ROUNDER: f32 = 12_582_912.0;

/// Quantizes one value: `round_ties_even(x · inv_scale)` clamped to
/// `[-127, 127]`, NaN to `0`, as an integer-valued `f32` (zero is always
/// `+0.0`). Safe, branch-free arithmetic that the baseline x86-64 build
/// vectorises, where `round_ties_even` would become a libm call per
/// element without SSE4.1.
#[inline]
fn quantize(x: f32, inv_scale: f32) -> f32 {
    let y = x * inv_scale;
    let y = if y.is_nan() {
        0.0
    } else {
        y.clamp(-127.0, 127.0)
    };
    (y + ROUNDER) - ROUNDER
}

/// The symmetric scale of a running `max|x|`: `maxabs / 127`, or `1.0`
/// when it is zero (any scale represents zeros exactly; `1.0` keeps the
/// values deterministic).
#[inline]
fn scale_of(maxabs: f32) -> f32 {
    if maxabs == 0.0 {
        1.0
    } else {
        maxabs / 127.0
    }
}

/// Quantizes each `k`-long row of the row-major `x` with its own scale:
/// `scales[i]` gets row `i`'s scale and `q` every row's integer values,
/// as `f32`. This is a weight's per-output-channel quantization and a
/// linear layer's per-row activation quantization.
///
/// # Panics
///
/// Panics if `k` exceeds [`MAX_FAN_IN`] or a slice length disagrees with
/// `scales.len()` rows of `k`.
pub fn quantize_rows(x: &[f32], k: usize, q: &mut [f32], scales: &mut [f32]) {
    check_fan_in(k);
    let rows = scales.len();
    assert_eq!(x.len(), rows * k, "row matrix length mismatch");
    assert_eq!(q.len(), rows * k, "quantized buffer length mismatch");
    for (i, s) in scales.iter_mut().enumerate() {
        let row = &x[i * k..(i + 1) * k];
        *s = scale_of(row.iter().fold(0.0f32, |m, v| m.max(v.abs())));
        let inv = 1.0 / *s;
        for (qv, &v) in q[i * k..(i + 1) * k].iter_mut().zip(row) {
            *qv = quantize(v, inv);
        }
    }
}

/// Columns per block of [`quantize_cols`]: their reciprocal scales stay
/// on the stack.
const COL_BLOCK: usize = 64;

/// Quantizes each column of the `[k, n]` row-major `cols` (a lowered
/// convolution panel: one column per output position) with its own
/// scale, keeping the layout: `scales[j]` gets column `j`'s scale and
/// `q` the integer values, as `f32`, ready for the rhs of
/// [`crate::kernel::gemm_into`]. Every column depends only on itself,
/// so a panel of any subset of columns quantizes those columns alike.
///
/// # Panics
///
/// Panics if `k` exceeds [`MAX_FAN_IN`] or a slice length disagrees with
/// its dimensions.
pub fn quantize_cols(cols: &[f32], k: usize, n: usize, q: &mut [f32], scales: &mut [f32]) {
    check_fan_in(k);
    assert_eq!(cols.len(), k * n, "column matrix length mismatch");
    assert_eq!(q.len(), k * n, "quantized buffer length mismatch");
    assert_eq!(scales.len(), n, "one scale per column");
    // Row-major sweeps: `f32::max` is exact and order-free, so the
    // running maxima match the per-column definition bit for bit.
    scales.fill(0.0);
    for row in cols.chunks_exact(n.max(1)) {
        for (s, &v) in scales.iter_mut().zip(row) {
            *s = s.max(v.abs());
        }
    }
    let mut inv = [0.0f32; COL_BLOCK];
    for j0 in (0..n).step_by(COL_BLOCK) {
        let j1 = n.min(j0 + COL_BLOCK);
        for (iv, s) in inv.iter_mut().zip(&mut scales[j0..j1]) {
            *s = scale_of(*s);
            *iv = 1.0 / *s;
        }
        for p in 0..k {
            let (src, dst) = (
                &cols[p * n + j0..p * n + j1],
                &mut q[p * n + j0..p * n + j1],
            );
            for ((qv, &v), &iv) in dst.iter_mut().zip(src).zip(&inv) {
                *qv = quantize(v, iv);
            }
        }
    }
}

/// The epilogue of an int8 product: turns the `[m, n]` sums in `out`
/// into values, `out[i, j] = row_scales[i] · col_scales[j] · out[i, j]`,
/// in that order and unfused. A convolution passes its weight scales as
/// the rows and its column scales as the columns, a linear layer its
/// activation scales as the rows and its weight scales as the columns.
///
/// # Panics
///
/// Panics if `out.len()` is not `row_scales.len() · col_scales.len()`.
pub fn dequantize(out: &mut [f32], row_scales: &[f32], col_scales: &[f32]) {
    let n = col_scales.len();
    assert_eq!(out.len(), row_scales.len() * n, "output length mismatch");
    for (row, &rs) in out.chunks_exact_mut(n.max(1)).zip(row_scales) {
        for (o, &cs) in row.iter_mut().zip(col_scales) {
            // `acc · (rs · cs)`: multiplication commutes exactly.
            *o *= rs * cs;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Tensor, TensorRng};
    use proptest::prelude::*;

    /// The integer quantizer: `x · inv_scale` rounded ties-to-even,
    /// clamped and saturated into `i8` (NaN → 0). [`quantize`] must
    /// equal it bit for bit as an `f32`.
    fn quantize_value(x: f32, inv_scale: f32) -> i8 {
        (x * inv_scale).round_ties_even().clamp(-127.0, 127.0) as i8
    }

    /// Quantizes a `[rows, k]` tensor per row.
    fn quantize_tensor_rows(t: &Tensor) -> (Vec<f32>, Vec<f32>) {
        let rows = t.shape().dim(0);
        let mut q = vec![f32::NAN; t.len()];
        let mut scales = vec![f32::NAN; rows];
        quantize_rows(t.data(), t.len() / rows, &mut q, &mut scales);
        (q, scales)
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn quantize_roundtrip_error_is_bounded() {
        let mut rng = TensorRng::seed_from(3);
        let t = rng.uniform(&[5, 40], -2.0, 2.0);
        let (q, scales) = quantize_tensor_rows(&t);
        for (i, (&a, &qv)) in t.data().iter().zip(&q).enumerate() {
            let s = scales[i / 40];
            // Half a quantization step per element.
            assert!((a - qv * s).abs() <= 0.5 * s + 1e-7, "{a} vs {}", qv * s);
        }
    }

    #[test]
    fn zero_rows_quantize_exactly() {
        let (q, scales) = quantize_tensor_rows(&Tensor::zeros(&[3, 7]));
        assert!(q.iter().all(|&v| v.to_bits() == 0));
        assert!(scales.iter().all(|&s| s == 1.0));
    }

    #[test]
    fn quantization_is_deterministic() {
        let mut rng = TensorRng::seed_from(4);
        let t = rng.uniform(&[4, 33], -1.0, 1.0);
        assert_eq!(quantize_tensor_rows(&t), quantize_tensor_rows(&t.clone()));
    }

    #[test]
    fn quantize_value_rounds_ties_to_even() {
        for (x, q) in [
            (2.5f32, 2.0f32),
            (3.5, 4.0),
            (-2.5, -2.0),
            (-3.5, -4.0),
            (400.0, 127.0),
            (-400.0, -127.0),
            (0.0, 0.0),
        ] {
            assert_eq!(quantize(x, 1.0).to_bits(), q.to_bits(), "{x}");
        }
    }

    #[test]
    fn quantize_matches_the_integer_quantizer_on_edges() {
        let tiny = f32::from_bits(1);
        let mut xs = vec![
            f32::NAN,
            -f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            -0.0,
            0.0,
            tiny,
            -tiny,
            f32::MIN_POSITIVE / 2.0,
            -f32::MIN_POSITIVE / 2.0,
            f32::MIN_POSITIVE,
            f32::MAX,
            f32::MIN,
        ];
        for tie in [0.5f32, 1.5, 126.5, 127.5] {
            xs.extend([tie, -tie]);
        }
        for inv in [1.0f32, 0.0, 0.5, 1e-30, 1e30, f32::INFINITY, f32::NAN] {
            for &x in &xs {
                let want = quantize_value(x, inv) as f32;
                assert_eq!(
                    quantize(x, inv).to_bits(),
                    want.to_bits(),
                    "x={x:e} inv={inv:e}"
                );
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]

        #[test]
        fn quantize_matches_the_integer_quantizer_on_any_bits(
            x_bits in any::<u32>(),
            inv_bits in any::<u32>(),
            scale in 1e-6f32..1e3,
        ) {
            let x = f32::from_bits(x_bits);
            for inv in [1.0 / scale, f32::from_bits(inv_bits)] {
                let want = quantize_value(x, inv) as f32;
                prop_assert_eq!(quantize(x, inv).to_bits(), want.to_bits());
            }
            // Values on and between the half steps, where ties live.
            let near = (x_bits % 1_200) as f32 / 4.0 - 150.0;
            let want = quantize_value(near, 1.0) as f32;
            prop_assert_eq!(quantize(near, 1.0).to_bits(), want.to_bits());
        }
    }

    #[test]
    fn column_quantization_is_row_quantization_of_the_transpose() {
        let mut rng = TensorRng::seed_from(7);
        // n straddles the column block; a zero column and a NaN ride along.
        for (k, n) in [(27usize, 150usize), (1, 7), (9, 64), (4, 1)] {
            let mut cols = rng.uniform(&[k, n], -3.0, 3.0);
            for p in 0..k {
                cols.data_mut()[p * n] = 0.0;
            }
            if n > 1 {
                cols.data_mut()[n - 1] = f32::NAN;
            }
            let mut q = vec![f32::NAN; k * n];
            let mut scales = vec![f32::NAN; n];
            quantize_cols(cols.data(), k, n, &mut q, &mut scales);
            // Column j of `cols` is row j of its transpose.
            let (qt, st) = quantize_tensor_rows(&cols.transpose());
            assert_eq!(bits(&scales), bits(&st), "k={k} n={n}");
            let qt = Tensor::from_vec(qt, &[n, k]).transpose();
            assert_eq!(bits(&q), bits(qt.data()), "k={k} n={n}");
        }
    }

    #[test]
    #[should_panic(expected = "int8 fan-in 1041 exceeds 1040")]
    fn int8_panel_past_the_exact_bound_panics() {
        let k = 1041;
        quantize_cols(&vec![1.0; k], k, 1, &mut vec![0.0; k], &mut [0.0]);
    }
}
