//! Property-based tests over the tensor core.

use crate::conv::vol2col_reference_into;
use crate::{col2vol, vol2col_cols_into, vol2col_into, Conv3dGeom, Tensor};
use proptest::prelude::*;

fn small_tensor() -> impl Strategy<Value = Tensor> {
    (1usize..5, 1usize..5).prop_flat_map(|(r, c)| {
        proptest::collection::vec(-100.0f32..100.0, r * c)
            .prop_map(move |data| Tensor::from_vec(data, &[r, c]))
    })
}

proptest! {
    #[test]
    fn add_commutes(a in small_tensor()) {
        let b = a.map(|x| x * 0.5 + 1.0);
        prop_assert!((&a + &b).allclose(&(&b + &a), 1e-5));
    }

    #[test]
    fn add_zero_is_identity(a in small_tensor()) {
        let z = Tensor::zeros(a.dims());
        prop_assert_eq!(&a + &z, a);
    }

    #[test]
    fn double_negation_is_identity(a in small_tensor()) {
        prop_assert_eq!(-(-&a), a);
    }

    #[test]
    fn reshape_preserves_sum(a in small_tensor()) {
        let n = a.len();
        let flat = a.reshape(&[n]);
        prop_assert!((a.sum() - flat.sum()).abs() < 1e-3);
    }

    #[test]
    fn transpose_involution(a in small_tensor()) {
        prop_assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn matmul_distributes_over_add(
        seed in 0u64..1000,
        m in 1usize..4, k in 1usize..4, n in 1usize..4,
    ) {
        let mut rng = crate::TensorRng::seed_from(seed);
        let a = rng.uniform(&[m, k], -1.0, 1.0);
        let b = rng.uniform(&[k, n], -1.0, 1.0);
        let c = rng.uniform(&[k, n], -1.0, 1.0);
        let lhs = a.matmul(&(&b + &c));
        let rhs = a.matmul(&b) + a.matmul(&c);
        prop_assert!(lhs.allclose(&rhs, 1e-4));
    }

    #[test]
    fn softmax_rows_are_distributions(
        seed in 0u64..1000, r in 1usize..4, c in 1usize..6,
    ) {
        let mut rng = crate::TensorRng::seed_from(seed);
        let logits = rng.uniform(&[r, c], -10.0, 10.0);
        let p = logits.softmax_rows();
        for row in 0..r {
            let s: f32 = p.data()[row * c..(row + 1) * c].iter().sum();
            prop_assert!((s - 1.0).abs() < 1e-5);
        }
        prop_assert!(p.data().iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn vol2col_col2vol_adjoint(
        seed in 0u64..500,
        c in 1usize..3, t in 1usize..5, h in 3usize..7, w in 3usize..7,
        kt in 1usize..4, st in 1usize..3, pt in 0usize..2,
        k in 1usize..4, s in 1usize..3, p in 0usize..2,
    ) {
        // A quarter of the draws are the 2-D (im2col) geometry.
        let (kt, st, pt) = if t == 1 { (1, 1, 0) } else { (kt, st, pt) };
        prop_assume!(t + 2 * pt >= kt && h + 2 * p >= k && w + 2 * p >= k);
        let g = Conv3dGeom {
            in_channels: c, frames: t, height: h, width: w,
            kernel_t: kt, kernel_s: k, stride_t: st, stride_s: s, pad_t: pt, pad_s: p,
        };
        let mut rng = crate::TensorRng::seed_from(seed);
        let x = rng.uniform(&[c, t, h, w], -1.0, 1.0);
        let plane = g.out_frames() * g.out_height() * g.out_width();
        let mut cols = vec![0.0f32; g.patch_len() * plane];
        vol2col_into(x.data(), &g, &mut cols);
        let y = rng.uniform(&[g.patch_len(), plane], -1.0, 1.0);
        let lhs: f32 = cols.iter().zip(y.data()).map(|(&a, &b)| a * b).sum();
        let back = col2vol(&y, &g);
        let rhs: f32 = x.data().iter().zip(back.data()).map(|(&a, &b)| a * b).sum();
        prop_assert!((lhs - rhs).abs() < 1e-2, "{} vs {}", lhs, rhs);
    }

    #[test]
    fn stack_then_index_roundtrip(a in small_tensor(), n in 1usize..4) {
        let parts: Vec<Tensor> = (0..n).map(|i| a.map(|x| x + i as f32)).collect();
        let stacked = Tensor::stack(&parts);
        for (i, p) in parts.iter().enumerate() {
            prop_assert_eq!(&stacked.index_axis0(i), p);
        }
    }

    #[test]
    fn parallel_matmul_bit_identical_across_thread_counts(
        seed in 0u64..1000,
        m in 0usize..9, k in 1usize..40, n in 1usize..40,
        zero_rate in 0.0f32..1.0,
    ) {
        // m = 0 is legal on the raw slice API (Shape forbids it, so the
        // sweep runs below the Tensor layer); n = 1 / k = 1 hit the
        // matvec-shaped and rank-1-update corners.
        let mut rng = crate::TensorRng::seed_from(seed);
        let mut a = vec![0.0f32; m * k];
        for v in &mut a {
            *v = if rng.unit() < zero_rate { 0.0 } else { rng.unit() * 2.0 - 1.0 };
        }
        let mut b = vec![0.0f32; k * n];
        for v in &mut b {
            *v = rng.unit() * 2.0 - 1.0;
        }
        let mut sequential = vec![0.0f32; m * n];
        crate::kernel::gemm_into_with_threads(&a, &b, &mut sequential, m, k, n, 1);
        for threads in [2usize, 4, 7] {
            let mut out = vec![f32::NAN; m * n];
            crate::kernel::gemm_into_with_threads(&a, &b, &mut out, m, k, n, threads);
            prop_assert_eq!(&out, &sequential);
        }
    }

    #[test]
    fn simd_gemm_bit_identical_to_scalar_fallback(
        seed in 0u64..1000,
        m in 0usize..9, k in 1usize..40, n in 1usize..40,
        zero_rate in 0.0f32..1.0,
    ) {
        // The dispatch contract: whatever ISA the host detects, f32
        // GEMM bits match the portable scalar path for every shape
        // (m=0 / n=1 / k=1 degenerates included) and thread count.
        // Flipping the global ISA mid-suite is safe for concurrently
        // running tests precisely because of this property.
        let mut rng = crate::TensorRng::seed_from(seed);
        let mut a = vec![0.0f32; m * k];
        for v in &mut a {
            *v = if rng.unit() < zero_rate { 0.0 } else { rng.unit() * 2.0 - 1.0 };
        }
        let mut b = vec![0.0f32; k * n];
        for v in &mut b {
            *v = rng.unit() * 2.0 - 1.0;
        }
        let detected = crate::kernel::Isa::detect();
        crate::kernel::set_isa(crate::kernel::Isa::Scalar);
        let mut scalar = vec![0.0f32; m * n];
        crate::kernel::gemm_into_with_threads(&a, &b, &mut scalar, m, k, n, 1);
        crate::kernel::set_isa(detected);
        for threads in [1usize, 2, 4, 7] {
            let mut out = vec![f32::NAN; m * n];
            crate::kernel::gemm_into_with_threads(&a, &b, &mut out, m, k, n, threads);
            prop_assert_eq!(
                out.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                scalar.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn quantized_gemm_identical_across_isa_and_threads(
        seed in 0u64..500,
        m in 1usize..6, k in 1usize..48, n in 1usize..6,
    ) {
        // Quantized real weights against a quantized real panel: the
        // int8 product of a convolution, which must give the i32
        // reference's bits on every instruction set and thread count.
        let mut rng = crate::TensorRng::seed_from(seed);
        let w = rng.uniform(&[m, k], -2.0, 2.0);
        let cols = rng.uniform(&[k, n], -2.0, 2.0);
        let (mut qw, mut sw) = (vec![0.0f32; m * k], vec![0.0f32; m]);
        crate::qtensor::quantize_rows(w.data(), k, &mut qw, &mut sw);
        let (mut qc, mut sc) = (vec![0.0f32; k * n], vec![0.0f32; n]);
        crate::qtensor::quantize_cols(cols.data(), k, n, &mut qc, &mut sc);
        let checked = check_int8_product(&Int8Case { a: qw, sa: sw, b: qc, sb: sc, k }, false);
        prop_assert!(checked.is_ok(), "{}", checked.unwrap_err());
    }

    #[test]
    fn tiled_transpose_involution_across_tile_boundaries(
        seed in 0u64..1000, m in 1usize..48, n in 1usize..48,
    ) {
        // Up to 48 per axis so shapes land on both sides of the 32-wide
        // tile edge (partial tiles in one or both dimensions).
        let mut rng = crate::TensorRng::seed_from(seed);
        let a = rng.uniform(&[m, n], -1.0, 1.0);
        let t = a.transpose();
        prop_assert_eq!(t.dims(), &[n, m]);
        for i in 0..m.min(5) {
            for j in 0..n.min(5) {
                prop_assert_eq!(t.at(&[j, i]), a.at(&[i, j]));
            }
        }
        prop_assert_eq!(t.transpose(), a);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn vol2col_row_runs_match_per_element_reference(
        seed in 0u64..1000,
        c in 1usize..3, t in 1usize..5, h in 1usize..8, w in 1usize..8,
        kt in 1usize..4, st in 1usize..4, pt in 0usize..3,
        k in 1usize..5, s in 1usize..6, p in 0usize..4,
        corner in 0usize..4,
    ) {
        // The row-run lowering against the per-element reference, bit
        // for bit. The ranges reach pad >= kernel and stride > kernel
        // on their own; `corner` forces the remaining edge cases.
        let (mut t, mut kt, mut st, mut pt, mut h, mut k) = (t, kt, st, pt, h, k);
        match corner {
            // The 2-D (im2col) geometry: one frame, no temporal extent.
            0 => (t, kt, st, pt) = (1, 1, 1, 0),
            // Spatial kernel = padded width: one output column.
            1 => { k = w + 2 * p; h = h.max(w); }
            // Temporal kernel = padded frame count: one output frame.
            2 => kt = t + 2 * pt,
            _ => {}
        }
        // Otherwise grow the input until the kernel fits its padded extent.
        t = t.max(kt.saturating_sub(2 * pt));
        h = h.max(k.saturating_sub(2 * p));
        let w = w.max(k.saturating_sub(2 * p));
        let g = Conv3dGeom {
            in_channels: c, frames: t, height: h, width: w,
            kernel_t: kt, kernel_s: k, stride_t: st, stride_s: s, pad_t: pt, pad_s: p,
        };
        let mut rng = crate::TensorRng::seed_from(seed);
        let x = rng.uniform(&[c, t, h, w], -1.0, 1.0);
        let len = g.patch_len() * g.out_frames() * g.out_height() * g.out_width();
        let mut expect = vec![f32::NAN; len];
        vol2col_reference_into(x.data(), &g, &mut expect);
        // NaN-prefilled, like a recycled scratch buffer: every element,
        // padding zeros included, must be overwritten.
        let mut out = vec![f32::NAN; len];
        vol2col_into(x.data(), &g, &mut out);
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        prop_assert!(bits(&out) == bits(&expect), "row runs differ at {:?}", g);
    }
}

/// An lhs whose rows are, at random, zero-free, all zero, or zero at
/// `zero_rate` or at 25–60 % of their elements, and an rhs with `±inf`,
/// NaN and `-0.0` spliced in at `special_rate`.
fn gemm_case(
    seed: u64,
    m: usize,
    k: usize,
    n: usize,
    zero_rate: f32,
    special_rate: f32,
) -> (Vec<f32>, Vec<f32>) {
    let mut rng = crate::TensorRng::seed_from(seed);
    let mut a = vec![0.0f32; m * k];
    for row in a.chunks_mut(k.max(1)) {
        let zeros = match rng.index(4) {
            0 => 0.0,
            1 => 1.0,
            2 => zero_rate,
            _ => 0.25 + 0.35 * rng.unit(),
        };
        for v in row {
            *v = if rng.unit() < zeros {
                0.0
            } else {
                rng.unit() * 2.0 - 1.0
            };
        }
    }
    const SPECIALS: [f32; 4] = [f32::INFINITY, f32::NEG_INFINITY, f32::NAN, -0.0];
    let mut b = vec![0.0f32; k * n];
    for v in &mut b {
        *v = if rng.unit() < special_rate {
            SPECIALS[rng.index(SPECIALS.len())]
        } else {
            rng.unit() * 2.0 - 1.0
        };
    }
    (a, b)
}

/// Runs `[m, k] × [k, n]` on the detected and the scalar ISA at one and
/// two workers and checks every result's bits against the seed kernel
/// without its zero-skip ([`crate::kernel::reference_gemm_dense`]; on a
/// finite rhs it is [`crate::kernel::reference_gemm`] itself).
fn check_gemm_against_reference(
    a: &[f32],
    b: &[f32],
    m: usize,
    k: usize,
    n: usize,
) -> Result<(), String> {
    // Bits, except that every NaN reads as one: which NaN an add of two
    // NaNs returns depends on operand order, which the compiler may swap
    // (x86's `inf − inf` is the negative default NaN, an input NaN is
    // positive), and the seed kernel's NaNs already differed in sign
    // from the kernel's.
    let bits = |v: &[f32]| {
        v.iter()
            .map(|x| if x.is_nan() { u32::MAX } else { x.to_bits() })
            .collect::<Vec<_>>()
    };
    let expect = crate::kernel::reference_gemm_dense(a, b, m, k, n);
    if b.iter().all(|v| v.is_finite())
        && bits(&expect) != bits(&crate::kernel::reference_gemm(a, b, m, k, n))
    {
        return Err(format!(
            "references part on a finite rhs at m={m} k={k} n={n}"
        ));
    }
    let detected = crate::kernel::Isa::detect();
    for isa in [detected, crate::kernel::Isa::Scalar] {
        crate::kernel::set_isa(isa);
        for threads in [1usize, 2] {
            let mut out = vec![f32::NAN; m * n];
            crate::kernel::gemm_into_with_threads(a, b, &mut out, m, k, n, threads);
            if bits(&out) != bits(&expect) {
                crate::kernel::set_isa(detected);
                let at = bits(&out)
                    .iter()
                    .zip(bits(&expect))
                    .position(|(x, y)| *x != y);
                return Err(format!(
                    "m={m} k={k} n={n} isa={isa:?} threads={threads}: first difference at {at:?}"
                ));
            }
        }
    }
    crate::kernel::set_isa(detected);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn gemm_bit_identical_to_the_seed_kernel_across_tile_edges(
        seed in 0u64..1_000_000,
        m in 1usize..21, k in 0usize..401, n in 0usize..71,
        zero_rate in 0.0f32..1.0,
        special in 0usize..3,
    ) {
        // m crosses the 4-row tile (leftover rows 1–3), n every column
        // tail of the 16- and 8-wide blocks, k reaches the conv fan-ins.
        // A third of the cases keep the rhs finite; the rest splice in
        // ±inf, NaN and -0.0, where every zero weight must multiply.
        let special_rate = [0.0, 0.01, 0.2][special];
        let (a, b) = gemm_case(seed, m, k, n, zero_rate, special_rate);
        let checked = check_gemm_against_reference(&a, &b, m, k, n);
        prop_assert!(checked.is_ok(), "{}", checked.unwrap_err());
    }
}

#[test]
fn gemm_bit_identical_to_the_seed_kernel_on_conv_shapes() {
    // `slow2` and `fast2` of the planned SlowFast forward (16 × 324 × 60
    // and 8 × 108 × 190), then a GEMM past 2²⁴ flops, the size from which
    // the process-wide entry points fan out; at two workers its
    // row-aligned partitions each go through the tile.
    for (seed, m, k, n) in [(1u64, 16, 324, 60), (2, 8, 108, 190), (3, 16, 324, 1620)] {
        assert!(m * k * n < 1 << 23 || 2 * m * k * n >= 1 << 24);
        for (zero_rate, special_rate) in [(0.0, 0.0), (0.5, 0.0), (0.3, 0.01)] {
            let (a, b) = gemm_case(seed, m, k, n, zero_rate, special_rate);
            if let Err(e) = check_gemm_against_reference(&a, &b, m, k, n) {
                panic!("zero_rate={zero_rate} special_rate={special_rate}: {e}");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The direct kernel against the panel route it replaces — lowered
    /// columns, the GEMM, the bias — bit for bit (NaNs as one value), over
    /// every position, a shuffled subset with a repeat, or one position.
    /// Weight rows run from zero-free to all zero; inputs and, at times,
    /// a weight carry `±inf`, NaN and `-0.0`, which padding taps and zero
    /// weights turn into NaNs exactly where the panel route does, and the
    /// scratch arrives dirty.
    #[test]
    fn direct_conv_matches_the_panel(
        seed in 0u64..100_000,
        c in 1usize..4, oc in 1usize..21,
        t in 1usize..6, h in 1usize..13, w in 1usize..71,
        kt in 1usize..4, ks in 1usize..4, st in 1usize..3, ss in 1usize..3,
        pt in 0usize..4, ps in 0usize..4, list in 0usize..3,
    ) {
        let (pt, ps) = (pt.min(kt), ps.min(ks));
        prop_assume!(t + 2 * pt >= kt && h + 2 * ps >= ks && w + 2 * ps >= ks);
        let g = geom(c, [t, h, w], (kt, st, pt), (ks, ss, ps));
        let (mut weight, _) = gemm_case(seed, oc, g.patch_len(), 0, 0.3, 0.0);
        let mut rng = crate::TensorRng::seed_from(seed + 1);
        const SPECIALS: [f32; 4] = [f32::INFINITY, f32::NEG_INFINITY, f32::NAN, -0.0];
        if rng.index(4) == 0 {
            let at = rng.index(weight.len());
            weight[at] = SPECIALS[rng.index(3)];
        }
        let x: Vec<f32> = (0..c * t * h * w)
            .map(|_| if rng.unit() < 0.02 { SPECIALS[rng.index(4)] } else { rng.unit() * 2.0 - 1.0 })
            .collect();
        let bias = rng.uniform(&[oc], -1.0, 1.0).into_vec();
        let total = g.out_frames() * g.out_height() * g.out_width();
        let cols: Option<Vec<u32>> = match list {
            0 => None,
            1 => {
                let mut cols: Vec<u32> = (0..total as u32).filter(|_| rng.unit() < 0.3).collect();
                cols.push(rng.index(total) as u32);
                for i in (1..cols.len()).rev() {
                    cols.swap(i, rng.index(i + 1));
                }
                Some(cols)
            }
            _ => Some(vec![rng.index(total) as u32]),
        };
        let n = cols.as_ref().map_or(total, Vec::len);
        let mut panel = vec![f32::NAN; g.patch_len() * n];
        match &cols {
            Some(cols) => vol2col_cols_into(&x, &g, cols, &mut panel),
            None => vol2col_into(&x, &g, &mut panel),
        }
        let weight = Tensor::from_vec(weight, &[oc, g.patch_len()]);
        let expect = conv_gemm(&weight, &bias, &panel, n);
        // The scratch arrives dirty: a first convolution leaves NaN
        // wherever this one's padded copy goes.
        let mut scratch = crate::KernelScratch::new();
        let dirty = geom(c, [t + 2 * pt, h + 2 * ps, w + 2 * ps], (1, 1, 0), (1, 1, 0));
        let nan = vec![f32::NAN; c * (t + 2 * pt) * (h + 2 * ps) * (w + 2 * ps)];
        let mut sink = vec![0.0; nan.len() / c];
        crate::kernel::conv_direct_into(&nan, &dirty, &vec![1.0; c], &[0.0], None, &mut sink, &mut scratch);
        let mut out = vec![f32::NAN; oc * n];
        crate::kernel::conv_direct_into(
            &x, &g, weight.data(), &bias, cols.as_deref(), &mut out, &mut scratch,
        );
        let bits = |v: &[f32]| {
            v.iter().map(|x| if x.is_nan() { u32::MAX } else { x.to_bits() }).collect::<Vec<_>>()
        };
        prop_assert!(bits(&out) == bits(&expect), "direct differs from the panel at {:?}", g);
    }
}

/// `[oc, n]` = `w · cols + b` through the kernel's GEMM, as a layer does.
fn conv_gemm(w: &Tensor, b: &[f32], cols: &[f32], n: usize) -> Vec<f32> {
    let (oc, patch) = (w.dims()[0], w.dims()[1]);
    let mut out = vec![f32::NAN; oc * n];
    crate::kernel::gemm_into(w.data(), cols, &mut out, oc, patch, n);
    for (row, &bc) in out.chunks_exact_mut(n).zip(b) {
        for v in row {
            *v += bc;
        }
    }
    out
}

/// A `[1, 1, t, h, w]`-sized clip: empty, full, one cell, the border
/// ring, or a few-percent random blob pattern, by `kind`.
fn occupancy_clip(
    rng: &mut crate::TensorRng,
    kind: usize,
    t: usize,
    h: usize,
    w: usize,
) -> Vec<f32> {
    let values = rng.uniform(&[t * h * w], 0.1, 1.0).into_vec();
    let mut keep = vec![false; t * h * w];
    match kind {
        0 => {}
        1 => keep.fill(true),
        2 => {
            let cells = keep.len();
            keep[(rng.unit() * cells as f32) as usize % cells] = true;
        }
        3 => {
            for (i, k) in keep.iter_mut().enumerate() {
                let (y, x) = (i / w % h, i % w);
                *k = y == 0 || x == 0 || y + 1 == h || x + 1 == w;
            }
        }
        _ => {
            let density = 0.01 + 0.09 * rng.unit();
            for k in keep.iter_mut() {
                *k = rng.unit() < density;
            }
        }
    }
    values
        .iter()
        .zip(&keep)
        .map(|(&v, &k)| if k { v } else { 0.0 })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn vol2col_cols_of_every_position_is_vol2col(
        seed in 0u64..1000,
        c in 1usize..3, t in 1usize..5, h in 1usize..8, w in 1usize..70,
        kt in 1usize..4, st in 1usize..3, pt in 0usize..3,
        k in 1usize..4, s in 1usize..3, p in 0usize..3,
    ) {
        // Lowering the whole column list in order is the dense lowering,
        // interior and bounds-checked columns alike; any sublist is the
        // matching columns of it.
        let (t, h, w) = (t.max(kt.saturating_sub(2 * pt)), h.max(k.saturating_sub(2 * p)), w.max(k.saturating_sub(2 * p)));
        let g = Conv3dGeom {
            in_channels: c, frames: t, height: h, width: w,
            kernel_t: kt, kernel_s: k, stride_t: st, stride_s: s, pad_t: pt, pad_s: p,
        };
        let mut rng = crate::TensorRng::seed_from(seed);
        let x = rng.uniform(&[c, t, h, w], -1.0, 1.0);
        let n = g.out_frames() * g.out_height() * g.out_width();
        let mut dense = vec![f32::NAN; g.patch_len() * n];
        vol2col_into(x.data(), &g, &mut dense);
        let all: Vec<u32> = (0..n as u32).collect();
        let mut listed = vec![f32::NAN; dense.len()];
        vol2col_cols_into(x.data(), &g, &all, &mut listed);
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        prop_assert!(bits(&listed) == bits(&dense), "column list differs at {:?}", g);
        let some: Vec<u32> = all.iter().copied().filter(|_| rng.unit() < 0.3).collect();
        let mut part = vec![f32::NAN; g.patch_len() * some.len()];
        vol2col_cols_into(x.data(), &g, &some, &mut part);
        for (j, &col) in some.iter().enumerate() {
            for r in 0..g.patch_len() {
                prop_assert!(part[r * some.len() + j].to_bits() == dense[r * n + col as usize].to_bits());
            }
        }
    }

    #[test]
    fn planned_conv_chain_matches_dense_chain(
        seed in 0u64..1000, kind in 0usize..6,
        t in 1usize..6, h in 1usize..12, w in 1usize..70,
        kt in 1usize..4, st in 1usize..3, pt in 0usize..2,
        k in 1usize..4, s in 1usize..3, p in 0usize..2,
    ) {
        // Two convolutions with non-zero biases over a sparse clip: the
        // active columns plus one representative per border class,
        // scattered back, reproduce each dense layer bit for bit.
        let (t, h, w) = (t.max(kt), h.max(k), w.max(k));
        let mut rng = crate::TensorRng::seed_from(seed);
        let clip = occupancy_clip(&mut rng, kind, t, h, w);
        let g1 = geom(1, [t, h, w], (kt, st, pt), (k, s, p));
        let g2 = geom(3, [g1.out_frames(), g1.out_height(), g1.out_width()], (kt, 1, pt), (k, 1, p));
        prop_assume!(g2.frames + 2 * pt >= kt && g2.height + 2 * p >= k && g2.width + 2 * p >= k);
        let mut plans = [crate::GridPlan::default(), crate::GridPlan::default(), crate::GridPlan::default()];
        plans[0].fill(&clip, t, h, w);
        let [p0, p1, p2] = &mut plans;
        let y1 = planned_layer(&mut rng, &clip, &g1, p0, p1)?;
        planned_layer(&mut rng, &y1, &g2, p1, p2)?;
    }

    #[test]
    fn planned_subsample_and_concat_match_dense(
        seed in 0u64..1000, kind in 0usize..6,
        r in 1usize..4, tf in 1usize..7, h in 1usize..10, w in 1usize..70,
    ) {
        // SlowFast's lateral in miniature: a temporal pathway A (3-frame
        // kernel, 1×1 spatially) and a spatial pathway B (one frame,
        // 3×3), two layers each so their border classes carry distinct
        // values, every r-th frame of each concatenated B-first, then
        // one more 3×3×3 layer. Each planned layer matches its dense one.
        let t = r * tf;
        let mut rng = crate::TensorRng::seed_from(seed);
        let clip = occupancy_clip(&mut rng, kind, t, h, w);
        let ga = |c| geom(c, [t, h, w], (3, 1, 1), (1, 1, 0));
        let gb = |c| geom(c, [t, h, w], (1, 1, 0), (3, 1, 1));
        let mut plans: [crate::GridPlan; 8] = Default::default();
        let [clip_plan, a1p, a2p, b1p, b2p, a_sub, b_sub, cat] = &mut plans;
        clip_plan.fill(&clip, t, h, w);
        let a1 = planned_layer(&mut rng, &clip, &ga(1), clip_plan, a1p)?;
        let a2 = planned_layer(&mut rng, &a1, &ga(3), a1p, a2p)?;
        let b1 = planned_layer(&mut rng, &clip, &gb(1), clip_plan, b1p)?;
        let b2 = planned_layer(&mut rng, &b1, &gb(3), b1p, b2p)?;
        a2p.subsample_into(r, a_sub);
        b2p.subsample_into(r, b_sub);
        b_sub.concat_into(a_sub, cat);
        let frames = |x: &[f32]| -> Vec<f32> {
            x.chunks_exact(h * w).enumerate().filter(|(i, _)| i % t % r == 0).flat_map(|(_, f)| f.to_vec()).collect()
        };
        let joined: Vec<f32> = frames(&b2).into_iter().chain(frames(&a2)).collect();
        let gc = geom(6, [tf, h, w], (3, 1, 1), (3, 1, 1));
        let mut out = crate::GridPlan::default();
        planned_layer(&mut rng, &joined, &gc, cat, &mut out)?;
    }
}

/// A geometry over a `[T, H, W]` grid with `(kernel, stride, pad)` per
/// time and space.
fn geom(
    c: usize,
    [t, h, w]: [usize; 3],
    time: (usize, usize, usize),
    space: (usize, usize, usize),
) -> Conv3dGeom {
    Conv3dGeom {
        in_channels: c,
        frames: t,
        height: h,
        width: w,
        kernel_t: time.0,
        kernel_s: space.0,
        stride_t: time.1,
        stride_s: space.1,
        pad_t: time.2,
        pad_s: space.2,
    }
}

/// One 3-output-channel convolution with random weights and non-zero
/// biases over `input` (planned by `plan`), dense and planned: checks
/// that both planned routes — the lowered panel and the direct kernel —
/// scatter to the dense layer bit for bit, and returns the dense output,
/// with its plan in `out`.
fn planned_layer(
    rng: &mut crate::TensorRng,
    input: &[f32],
    g: &Conv3dGeom,
    plan: &crate::GridPlan,
    out: &mut crate::GridPlan,
) -> Result<Vec<f32>, TestCaseError> {
    let weight = rng.uniform(&[3, g.patch_len()], -1.0, 1.0);
    let bias = rng.uniform(&[3], -1.0, 1.0).into_vec();
    let n = g.out_frames() * g.out_height() * g.out_width();
    let mut cols = vec![0.0; g.patch_len() * n];
    vol2col_into(input, g, &mut cols);
    let dense = conv_gemm(&weight, &bias, &cols, n);
    plan.conv_into(g, out);
    let list = out.columns();
    let m = list.map_or(n, <[u32]>::len);
    let mut direct = vec![f32::NAN; 3 * m];
    let mut scratch = crate::KernelScratch::new();
    crate::kernel::conv_direct_into(
        input,
        g,
        weight.data(),
        &bias,
        list,
        &mut direct,
        &mut scratch,
    );
    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let Some(list) = list else {
        prop_assert!(
            bits(&direct) == bits(&dense),
            "direct full layer differs at {:?}",
            g
        );
        return Ok(dense);
    };
    let mut panel = vec![f32::NAN; g.patch_len() * m];
    vol2col_cols_into(input, g, list, &mut panel);
    let routes = [conv_gemm(&weight, &bias, &panel, m), direct];
    for (route, compact) in ["panel", "direct"].into_iter().zip(routes) {
        let compact = Tensor::from_vec(compact, &[1, 3, m]);
        let spread = out.scatter(&compact, &mut scratch);
        prop_assert!(
            bits(spread.data()) == bits(&dense),
            "planned {} layer differs at {:?}",
            route,
            g
        );
    }
    Ok(dense)
}

/// The operands of an int8 product: integer values in `[-127, 127]` as
/// `f32`, `a` `[m, k]` with one scale per row, `b` `[k, n]` (or `[n, k]`
/// for the transposed product) with one scale per column of the result.
struct Int8Case {
    a: Vec<f32>,
    sa: Vec<f32>,
    b: Vec<f32>,
    sb: Vec<f32>,
    k: usize,
}

/// Random operands of an `[m, k] × [k, n]` int8 product, every one `±127`
/// when `extreme`.
fn int8_case(seed: u64, m: usize, k: usize, n: usize, extreme: bool) -> Int8Case {
    let mut rng = crate::TensorRng::seed_from(seed);
    let mut draw = |len: usize| -> Vec<f32> {
        (0..len)
            .map(|_| match extreme {
                true => [-127.0, 127.0][rng.index(2)],
                false => rng.index(255) as f32 - 127.0,
            })
            .collect()
    };
    let (a, b) = (draw(m * k), draw(k * n));
    let mut scales = |len: usize| -> Vec<f32> { (0..len).map(|_| 1e-3 + rng.unit()).collect() };
    let (sa, sb) = (scales(m), scales(n));
    Int8Case { a, sa, b, sb, k }
}

/// The int8 product in integer arithmetic: `i32` sums of `i8` products,
/// then `sa[i] · sb[j] · acc`.
fn reference_qgemm(case: &Int8Case, transb: bool) -> Vec<f32> {
    let (m, k, n) = (case.sa.len(), case.k, case.sb.len());
    let (a, b) = (&case.a, &case.b);
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0i32;
            for p in 0..k {
                let bv = if transb { b[j * k + p] } else { b[p * n + j] };
                acc += a[i * k + p] as i8 as i32 * bv as i8 as i32;
            }
            out[i * n + j] = case.sa[i] * case.sb[j] * acc as f32;
        }
    }
    out
}

/// Runs an int8 product — the f32 GEMM over the quantized values
/// (transposed or not), then [`crate::qtensor::dequantize`] — on the
/// detected and the scalar ISA at one and two workers, and checks its
/// bits against [`reference_qgemm`].
fn check_int8_product(case: &Int8Case, transb: bool) -> Result<(), String> {
    let (m, k, n) = (case.sa.len(), case.k, case.sb.len());
    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let expect = bits(&reference_qgemm(case, transb));
    let detected = crate::kernel::Isa::detect();
    for isa in [detected, crate::kernel::Isa::Scalar] {
        crate::kernel::set_isa(isa);
        for threads in [1usize, 2] {
            let mut out = vec![f32::NAN; m * n];
            let (a, b) = (&case.a, &case.b);
            if transb {
                crate::kernel::gemm_transb_into_with_threads(a, b, &mut out, m, k, n, threads);
            } else {
                crate::kernel::gemm_into_with_threads(a, b, &mut out, m, k, n, threads);
            }
            crate::qtensor::dequantize(&mut out, &case.sa, &case.sb);
            if bits(&out) != expect {
                crate::kernel::set_isa(detected);
                let at = bits(&out).iter().zip(&expect).position(|(x, y)| x != y);
                return Err(format!(
                    "m={m} k={k} n={n} transb={transb} isa={isa:?} threads={threads}: \
                     first difference at {at:?}"
                ));
            }
        }
    }
    crate::kernel::set_isa(detected);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Up to the fan-in bound, the f32 GEMM sums of i8-valued operands are
    /// the i32 sums, so the int8 product is integer arithmetic's bit for
    /// bit, in both layouts; one case in eight has every operand at ±127.
    #[test]
    fn int8_product_is_the_i32_product_bit_for_bit(
        seed in 0u64..1_000_000,
        m in 1usize..21, k in 0usize..1041, n in 1usize..21,
        extreme in 0usize..8,
    ) {
        let case = int8_case(seed, m, k, n, extreme == 0);
        for transb in [false, true] {
            let checked = check_int8_product(&case, transb);
            prop_assert!(checked.is_ok(), "{}", checked.unwrap_err());
        }
    }
}

#[test]
fn int8_product_is_exact_at_the_fan_in_bound() {
    // Every operand ±127 at k = 1040, with random signs and then all of
    // one sign, where the sums reach ±1040 · 127² = ±16 774 160, 3 056
    // below 2²⁴.
    let k = crate::qtensor::MAX_FAN_IN;
    let mut cases = vec![int8_case(1, 4, k, 5, true)];
    for (a, b) in [(127.0, 127.0), (-127.0, 127.0)] {
        let mut case = int8_case(2, 4, k, 5, true);
        case.a.fill(a);
        case.b.fill(b);
        cases.push(case);
    }
    for (c, case) in cases.iter().enumerate() {
        for transb in [false, true] {
            if let Err(e) = check_int8_product(case, transb) {
                panic!("case {c}: {e}");
            }
        }
    }
}
