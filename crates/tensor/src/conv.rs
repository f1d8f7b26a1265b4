//! `vol2col` lowering for convolutions.
//!
//! Convolutions in `safecross-nn` are computed as matrix products between a
//! reshaped weight matrix and a patch matrix produced here, which is the
//! standard CPU lowering (and what cuDNN's GEMM algorithms do internally).
//! A 2-D convolution is the `frames = kernel_t = stride_t = 1, pad_t = 0`
//! case: patch rows come out in `(c, ky, kx)` order and columns in
//! `(oy, ox)` order, exactly the classic im2col layout.

use crate::Tensor;

/// Geometry of a 3-D convolution over a `[C, T, H, W]` input.
///
/// Temporal and spatial kernel/stride are independent, which is what the
/// SlowFast pathways need (e.g. temporal kernel 1 on the Slow pathway,
/// larger on Fast).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Conv3dGeom {
    /// Input channels.
    pub in_channels: usize,
    /// Number of frames.
    pub frames: usize,
    /// Frame height.
    pub height: usize,
    /// Frame width.
    pub width: usize,
    /// Temporal kernel extent.
    pub kernel_t: usize,
    /// Spatial (square) kernel side.
    pub kernel_s: usize,
    /// Temporal stride.
    pub stride_t: usize,
    /// Spatial stride.
    pub stride_s: usize,
    /// Temporal zero padding.
    pub pad_t: usize,
    /// Spatial zero padding.
    pub pad_s: usize,
}

impl Conv3dGeom {
    /// Output frame count.
    pub fn out_frames(&self) -> usize {
        out_extent(self.frames, self.kernel_t, self.stride_t, self.pad_t)
    }

    /// Output height.
    pub fn out_height(&self) -> usize {
        out_extent(self.height, self.kernel_s, self.stride_s, self.pad_s)
    }

    /// Output width.
    pub fn out_width(&self) -> usize {
        out_extent(self.width, self.kernel_s, self.stride_s, self.pad_s)
    }

    /// Rows of the patch matrix (`C * kt * ks * ks`).
    pub fn patch_len(&self) -> usize {
        self.in_channels * self.kernel_t * self.kernel_s * self.kernel_s
    }
}

fn out_extent(input: usize, kernel: usize, stride: usize, pad: usize) -> usize {
    let padded = input + 2 * pad;
    assert!(
        padded >= kernel,
        "kernel {kernel} larger than padded input {padded}"
    );
    (padded - kernel) / stride + 1
}

/// Lowers a `[C, T, H, W]` clip (as a raw row-major slice) into a
/// `[C*kt*ks*ks, oT*oH*oW]` patch matrix written into `out`, without
/// allocating.
///
/// Pure data movement, written in runs: per patch row `(c, kt, ky, kx)`
/// the in-frame output columns `[lo, hi)` are found once, so every output
/// row is two zero runs around one copied interior (`copy_from_slice` at
/// stride 1, a strided gather otherwise), and padded frames and rows are
/// zero-filled whole. Every element of `out` is written.
///
/// # Panics
///
/// Panics if `data` or `out` lengths disagree with the geometry.
pub fn vol2col_into(data: &[f32], g: &Conv3dGeom, out: &mut [f32]) {
    assert_eq!(
        data.len(),
        g.in_channels * g.frames * g.height * g.width,
        "vol2col input length mismatch"
    );
    let (ot, oh, ow) = (g.out_frames(), g.out_height(), g.out_width());
    let plane = oh * ow;
    let cols = ot * plane;
    let rows = g.patch_len();
    assert_eq!(out.len(), rows * cols, "vol2col output length mismatch");
    let (s, p) = (g.stride_s, g.pad_s);
    let hw = g.height * g.width;
    let thw = g.frames * hw;
    // The first output index `o` whose input coordinate `o·s + tap − p`
    // is at least `edge`, clamped to `ow`.
    let first_reaching = |edge: usize, tap: usize| {
        if tap >= edge + p {
            0
        } else {
            (edge + p - tap).div_ceil(s).min(ow)
        }
    };
    let mut rows_out = out.chunks_exact_mut(cols);
    for c in 0..g.in_channels {
        for kt in 0..g.kernel_t {
            for ky in 0..g.kernel_s {
                for kx in 0..g.kernel_s {
                    let dst = rows_out.next().expect("one output row per patch row");
                    // In-frame output columns: `0 <= ox·s + kx − p < W`.
                    let (lo, hi) = (first_reaching(0, kx), first_reaching(g.width, kx));
                    for (oti, frame_out) in dst.chunks_exact_mut(plane).enumerate() {
                        let it = (oti * g.stride_t + kt).checked_sub(g.pad_t);
                        let Some(it) = it.filter(|&it| it < g.frames) else {
                            frame_out.fill(0.0);
                            continue;
                        };
                        for (oy, seg) in frame_out.chunks_exact_mut(ow).enumerate() {
                            let iy = (oy * s + ky).checked_sub(p);
                            let Some(iy) = iy.filter(|&iy| iy < g.height) else {
                                seg.fill(0.0);
                                continue;
                            };
                            seg[..lo].fill(0.0);
                            seg[hi..].fill(0.0);
                            if lo == hi {
                                continue;
                            }
                            let row_in = c * thw + it * hw + iy * g.width;
                            let src = &data[row_in + lo * s + kx - p..row_in + g.width];
                            let run = &mut seg[lo..hi];
                            if s == 1 {
                                run.copy_from_slice(&src[..run.len()]);
                            } else {
                                for (o, &v) in run.iter_mut().zip(src.iter().step_by(s)) {
                                    *o = v;
                                }
                            }
                        }
                    }
                }
            }
        }
    }
}

/// Lowers only the output positions `cols` of a `[C, T, H, W]` clip into
/// a `[C*kt*ks*ks, cols.len()]` patch matrix written into `out`. A
/// position is a flat `(ot, oy, ox)` index into the `oT × oH × oW`
/// output grid; column `j` holds position `cols[j]`'s receptive field in
/// [`vol2col_into`]'s row order, so lowering every position in order
/// reproduces [`vol2col_into`] bit for bit. Per column, the taps inside
/// the clip are found once per axis and copied in runs; the rest are the
/// zero padding.
///
/// Only the int8 planned eval forward lowers this way, because its
/// quantizer reads a panel: the f32 one computes the same positions
/// without one ([`crate::kernel::conv_direct_into`]).
///
/// # Panics
///
/// Panics if `data` or `out` lengths disagree with the geometry, or if a
/// position lies outside the output grid.
pub fn vol2col_cols_into(data: &[f32], g: &Conv3dGeom, cols: &[u32], out: &mut [f32]) {
    assert_eq!(
        data.len(),
        g.in_channels * g.frames * g.height * g.width,
        "vol2col input length mismatch"
    );
    let n = cols.len();
    assert_eq!(
        out.len(),
        g.patch_len() * n,
        "vol2col output length mismatch"
    );
    let (oh, ow) = (g.out_height(), g.out_width());
    let positions = g.out_frames() * oh * ow;
    let (kt, ks, w) = (g.kernel_t, g.kernel_s, g.width);
    let hw = g.height * w;
    // The taps `d` of a window starting at padded coordinate `first`
    // that land inside an axis of `extent` cells padded by `pad`.
    let taps = |first: usize, kernel: usize, pad: usize, extent: usize| {
        pad.saturating_sub(first)..(extent + pad).saturating_sub(first).min(kernel)
    };
    for (j, &pos) in cols.iter().enumerate() {
        let pos = pos as usize;
        assert!(
            pos < positions,
            "output position {pos} outside the {positions}-position grid"
        );
        let t0 = pos / (oh * ow) * g.stride_t;
        let (y0, x0) = (pos / ow % oh * g.stride_s, pos % ow * g.stride_s);
        let ts = taps(t0, kt, g.pad_t, g.frames);
        let (ys, xs) = (taps(y0, ks, g.pad_s, g.height), taps(x0, ks, g.pad_s, w));
        // Walk column j down the patch rows, `n` apart.
        let mut r = j;
        let mut put = |v: f32| {
            out[r] = v;
            r += n;
        };
        for frames in data.chunks_exact(g.frames * hw) {
            for dt in 0..kt {
                for dy in 0..ks {
                    if !(ts.contains(&dt) && ys.contains(&dy) && !xs.is_empty()) {
                        (0..ks).for_each(|_| put(0.0));
                        continue;
                    }
                    let row = (t0 + dt - g.pad_t) * hw + (y0 + dy - g.pad_s) * w + x0;
                    (0..xs.start).for_each(|_| put(0.0));
                    let run = &frames[row + xs.start - g.pad_s..row + xs.end - g.pad_s];
                    run.iter().for_each(|&v| put(v));
                    (xs.end..ks).for_each(|_| put(0.0));
                }
            }
        }
    }
}

/// Adjoint of [`vol2col_into`]: scatters patch gradients back to `[C, T, H, W]`.
///
/// # Panics
///
/// Panics if `cols_t` does not match the geometry.
pub fn col2vol(cols_t: &Tensor, g: &Conv3dGeom) -> Tensor {
    let (ot, oh, ow) = (g.out_frames(), g.out_height(), g.out_width());
    let cols = ot * oh * ow;
    assert_eq!(
        cols_t.dims(),
        &[g.patch_len(), cols],
        "col2vol input shape mismatch"
    );
    let mut out = Tensor::zeros(&[g.in_channels, g.frames, g.height, g.width]);
    let hw = g.height * g.width;
    let thw = g.frames * hw;
    let src = cols_t.data();
    let dst = out.data_mut();
    let mut row = 0;
    for c in 0..g.in_channels {
        for kt in 0..g.kernel_t {
            for ky in 0..g.kernel_s {
                for kx in 0..g.kernel_s {
                    let base = row * cols;
                    for oti in 0..ot {
                        let it = (oti * g.stride_t + kt) as isize - g.pad_t as isize;
                        if it < 0 || it >= g.frames as isize {
                            continue;
                        }
                        for oy in 0..oh {
                            let iy = (oy * g.stride_s + ky) as isize - g.pad_s as isize;
                            if iy < 0 || iy >= g.height as isize {
                                continue;
                            }
                            for ox in 0..ow {
                                let ix = (ox * g.stride_s + kx) as isize - g.pad_s as isize;
                                if ix < 0 || ix >= g.width as isize {
                                    continue;
                                }
                                dst[c * thw
                                    + it as usize * hw
                                    + iy as usize * g.width
                                    + ix as usize] += src[base + oti * oh * ow + oy * ow + ox];
                            }
                        }
                    }
                    row += 1;
                }
            }
        }
    }
    out
}

/// A per-element lowering, every output element bounds-tested and
/// indexed on its own: the bit-exact reference [`vol2col_into`]'s row
/// runs are tested against.
#[cfg(test)]
pub(crate) fn vol2col_reference_into(data: &[f32], g: &Conv3dGeom, out: &mut [f32]) {
    let (ot, oh, ow) = (g.out_frames(), g.out_height(), g.out_width());
    let cols = ot * oh * ow;
    assert_eq!(
        out.len(),
        g.patch_len() * cols,
        "vol2col output length mismatch"
    );
    let hw = g.height * g.width;
    let thw = g.frames * hw;
    let mut row = 0;
    for c in 0..g.in_channels {
        for kt in 0..g.kernel_t {
            for ky in 0..g.kernel_s {
                for kx in 0..g.kernel_s {
                    let base = row * cols;
                    for oti in 0..ot {
                        let it = (oti * g.stride_t + kt) as isize - g.pad_t as isize;
                        let t_ok = it >= 0 && it < g.frames as isize;
                        for oy in 0..oh {
                            let iy = (oy * g.stride_s + ky) as isize - g.pad_s as isize;
                            let y_ok = iy >= 0 && iy < g.height as isize;
                            for ox in 0..ow {
                                let ix = (ox * g.stride_s + kx) as isize - g.pad_s as isize;
                                let v = if t_ok && y_ok && ix >= 0 && ix < g.width as isize {
                                    data[c * thw
                                        + it as usize * hw
                                        + iy as usize * g.width
                                        + ix as usize]
                                } else {
                                    0.0
                                };
                                out[base + oti * oh * ow + oy * ow + ox] = v;
                            }
                        }
                    }
                    row += 1;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vol2col(input: &Tensor, g: &Conv3dGeom) -> Tensor {
        assert_eq!(input.dims(), &[g.in_channels, g.frames, g.height, g.width]);
        let cols = g.out_frames() * g.out_height() * g.out_width();
        let mut out = vec![0.0f32; g.patch_len() * cols];
        vol2col_into(input.data(), g, &mut out);
        Tensor::from_vec(out, &[g.patch_len(), cols])
    }

    #[test]
    fn out_extent_formula() {
        assert_eq!(out_extent(5, 3, 1, 0), 3);
        assert_eq!(out_extent(5, 3, 1, 1), 5);
        assert_eq!(out_extent(8, 3, 2, 1), 4);
    }

    /// A 2-D convolution's geometry: one frame, no temporal extent.
    fn geom2d(c: usize, h: usize, w: usize, k: usize, s: usize, p: usize) -> Conv3dGeom {
        Conv3dGeom {
            in_channels: c,
            frames: 1,
            height: h,
            width: w,
            kernel_t: 1,
            kernel_s: k,
            stride_t: 1,
            stride_s: s,
            pad_t: 0,
            pad_s: p,
        }
    }

    #[test]
    fn single_frame_identity_kernel() {
        // 1x1 kernel, stride 1: patch matrix equals the flattened image.
        let g = geom2d(1, 2, 3, 1, 1, 0);
        let img = Tensor::from_vec((0..6).map(|x| x as f32).collect(), &[1, 1, 2, 3]);
        let cols = vol2col(&img, &g);
        assert_eq!(cols.dims(), &[1, 6]);
        assert_eq!(cols.data(), img.data());
    }

    #[test]
    fn single_frame_3x3_single_patch() {
        let g = geom2d(1, 3, 3, 3, 1, 0);
        let img = Tensor::from_vec((0..9).map(|x| x as f32).collect(), &[1, 1, 3, 3]);
        let cols = vol2col(&img, &g);
        assert_eq!(cols.dims(), &[9, 1]);
        assert_eq!(cols.data(), img.data());
    }

    #[test]
    fn single_frame_padding_produces_zeros() {
        let g = geom2d(1, 1, 1, 3, 1, 1);
        let img = Tensor::from_vec(vec![7.0], &[1, 1, 1, 1]);
        let cols = vol2col(&img, &g);
        assert_eq!(cols.dims(), &[9, 1]);
        // The centre tap sees the pixel, everything else is padding.
        assert_eq!(cols.data().iter().filter(|&&v| v == 7.0).count(), 1);
        assert_eq!(cols.data()[4], 7.0);
        assert_eq!(cols.sum(), 7.0);
    }

    #[test]
    fn single_frame_rows_are_channel_ky_kx_and_columns_oy_ox() {
        // The layout a 2-D convolution's [out, C*k*k] weight relies on.
        let g = geom2d(2, 2, 3, 2, 1, 0);
        let img = Tensor::from_vec((0..12).map(|x| x as f32).collect(), &[2, 1, 2, 3]);
        let cols = vol2col(&img, &g);
        assert_eq!(cols.dims(), &[8, 2]);
        let expect: [[f32; 2]; 8] = [
            [0.0, 1.0], // c0 ky0 kx0
            [1.0, 2.0], // c0 ky0 kx1
            [3.0, 4.0], // c0 ky1 kx0
            [4.0, 5.0], // c0 ky1 kx1
            [6.0, 7.0], // c1 ...
            [7.0, 8.0],
            [9.0, 10.0],
            [10.0, 11.0],
        ];
        assert_eq!(cols.data(), expect.concat().as_slice());
    }

    #[test]
    fn single_frame_col2vol_is_adjoint_of_vol2col() {
        // <vol2col(x), y> == <x, col2vol(y)> for arbitrary x, y.
        let g = geom2d(2, 5, 4, 3, 2, 1);
        let x = Tensor::from_vec(
            (0..2 * 5 * 4).map(|i| (i as f32 * 0.37).sin()).collect(),
            &[2, 1, 5, 4],
        );
        let cols = vol2col(&x, &g);
        let y = Tensor::from_vec(
            (0..cols.len()).map(|i| (i as f32 * 0.11).cos()).collect(),
            cols.dims(),
        );
        let lhs: f32 = cols.data().iter().zip(y.data()).map(|(&a, &b)| a * b).sum();
        let back = col2vol(&y, &g);
        let rhs: f32 = x.data().iter().zip(back.data()).map(|(&a, &b)| a * b).sum();
        assert!((lhs - rhs).abs() < 1e-3, "{lhs} vs {rhs}");
    }

    #[test]
    fn vol2col_identity_kernel() {
        let g = Conv3dGeom {
            in_channels: 1,
            frames: 2,
            height: 2,
            width: 2,
            kernel_t: 1,
            kernel_s: 1,
            stride_t: 1,
            stride_s: 1,
            pad_t: 0,
            pad_s: 0,
        };
        let clip = Tensor::from_vec((0..8).map(|x| x as f32).collect(), &[1, 2, 2, 2]);
        let cols = vol2col(&clip, &g);
        assert_eq!(cols.dims(), &[1, 8]);
        assert_eq!(cols.data(), clip.data());
    }

    #[test]
    fn col2vol_is_adjoint_of_vol2col() {
        let g = Conv3dGeom {
            in_channels: 2,
            frames: 4,
            height: 3,
            width: 3,
            kernel_t: 3,
            kernel_s: 2,
            stride_t: 1,
            stride_s: 1,
            pad_t: 1,
            pad_s: 0,
        };
        let x = Tensor::from_vec(
            (0..2 * 4 * 3 * 3)
                .map(|i| (i as f32 * 0.21).sin())
                .collect(),
            &[2, 4, 3, 3],
        );
        let cols = vol2col(&x, &g);
        let y = Tensor::from_vec(
            (0..cols.len()).map(|i| (i as f32 * 0.07).cos()).collect(),
            cols.dims(),
        );
        let lhs: f32 = cols.data().iter().zip(y.data()).map(|(&a, &b)| a * b).sum();
        let back = col2vol(&y, &g);
        let rhs: f32 = x.data().iter().zip(back.data()).map(|(&a, &b)| a * b).sum();
        assert!((lhs - rhs).abs() < 1e-3, "{lhs} vs {rhs}");
    }

    #[test]
    fn vol2col_temporal_pad_with_full_length_kernel() {
        // kernel_t == frames with pad_t > 0: every output frame's window
        // hangs off at least one clip boundary, so the temporal clamp is
        // exercised on both ends.
        let g = Conv3dGeom {
            in_channels: 1,
            frames: 2,
            height: 1,
            width: 2,
            kernel_t: 2,
            kernel_s: 1,
            stride_t: 1,
            stride_s: 1,
            pad_t: 1,
            pad_s: 0,
        };
        assert_eq!(g.out_frames(), 3);
        let clip = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 2, 1, 2]);
        let cols = vol2col(&clip, &g);
        // Rows are (kt=0, kt=1) taps; columns are (ot, ox).
        assert_eq!(cols.dims(), &[2, 6]);
        // kt=0 reads frame ot-1: padding for ot=0, then frames 0 and 1.
        assert_eq!(&cols.data()[..6], &[0.0, 0.0, 1.0, 2.0, 3.0, 4.0]);
        // kt=1 reads frame ot: frames 0 and 1, then padding for ot=2.
        assert_eq!(&cols.data()[6..], &[1.0, 2.0, 3.0, 4.0, 0.0, 0.0]);
        // Scatter-back adjoint survives the same clamps.
        let back = col2vol(&cols, &g);
        assert_eq!(back.data(), &[2.0, 4.0, 6.0, 8.0]);
    }

    #[test]
    fn vol2col_into_overwrites_a_dirty_buffer() {
        // Scratch buffers arrive recycled, so every element — padding
        // zeros included — must be written.
        let g = geom2d(2, 4, 5, 3, 2, 1);
        let img = Tensor::from_vec(
            (0..2 * 4 * 5).map(|i| (i as f32 * 0.13).sin()).collect(),
            &[2, 1, 4, 5],
        );
        let cols = vol2col(&img, &g);
        let mut buf = vec![f32::NAN; cols.len()];
        vol2col_into(img.data(), &g, &mut buf);
        assert_eq!(buf.as_slice(), cols.data());
    }

    #[test]
    fn conv3d_geometry() {
        let g = Conv3dGeom {
            in_channels: 3,
            frames: 8,
            height: 16,
            width: 16,
            kernel_t: 3,
            kernel_s: 3,
            stride_t: 1,
            stride_s: 2,
            pad_t: 1,
            pad_s: 1,
        };
        assert_eq!(g.out_frames(), 8);
        assert_eq!(g.out_height(), 8);
        assert_eq!(g.out_width(), 8);
        assert_eq!(g.patch_len(), 3 * 3 * 3 * 3);
    }
}
