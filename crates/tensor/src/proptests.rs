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
        // Integer accumulation is exact, so the int8 GEMM must agree
        // bit-for-bit between the scalar and SIMD paths too.
        let mut rng = crate::TensorRng::seed_from(seed);
        let wa = rng.uniform(&[m, k], -2.0, 2.0);
        let wb = rng.uniform(&[n, k], -2.0, 2.0);
        let qa = crate::QTensor::quantize_rows(&wa);
        let qb = crate::QTensor::quantize_rows(&wb);
        let detected = crate::kernel::Isa::detect();
        crate::kernel::set_isa(crate::kernel::Isa::Scalar);
        let mut scalar = vec![f32::NAN; m * n];
        crate::qtensor::qgemm_transb_into(
            qa.data(), qa.scales(), qb.data(), qb.scales(), &mut scalar, m, k, n,
        );
        crate::kernel::set_isa(detected);
        let mut out = vec![f32::NAN; m * n];
        crate::qtensor::qgemm_transb_into(
            qa.data(), qa.scales(), qb.data(), qb.scales(), &mut out, m, k, n,
        );
        prop_assert_eq!(
            out.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            scalar.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
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
/// `zero_rate` or at 25–60 % of their elements (so [`row_is_sparse`]
/// sends some down the skip route and misses others), and an rhs with
/// `±inf`, NaN and `-0.0` spliced in at `special_rate`.
///
/// [`row_is_sparse`]: crate::kernel
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
/// (routed: see [`crate::kernel::reference_gemm_routed`]; on a finite
/// rhs it is [`crate::kernel::reference_gemm`] itself).
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
    // from the axpy loop's.
    let bits = |v: &[f32]| {
        v.iter()
            .map(|x| if x.is_nan() { u32::MAX } else { x.to_bits() })
            .collect::<Vec<_>>()
    };
    let expect = crate::kernel::reference_gemm_routed(a, b, m, k, n);
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
        // ±inf, NaN and -0.0, where the zero-skip of sparse rows shows.
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
/// the planned layer scatters to the dense one bit for bit and returns
/// the dense output, with its plan in `out`.
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
    if let Some(list) = out.columns() {
        let mut panel = vec![f32::NAN; g.patch_len() * list.len()];
        vol2col_cols_into(input, g, list, &mut panel);
        let compact = Tensor::from_vec(
            conv_gemm(&weight, &bias, &panel, list.len()),
            &[1, 3, list.len()],
        );
        let spread = out.scatter(&compact, &mut crate::KernelScratch::new());
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        prop_assert!(
            bits(spread.data()) == bits(&dense),
            "planned layer differs at {:?}",
            g
        );
    }
    Ok(dense)
}
