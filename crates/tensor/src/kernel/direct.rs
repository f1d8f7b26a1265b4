//! The body of [`super::conv_direct_into`]: an eval 3-D convolution that
//! reads a zero-padded copy of its input instead of a lowered panel.
//!
//! In the padded copy every kernel tap of every output position is in
//! bounds, so a position is one base index and a tap `p = (c, kt, ky,
//! kx)` is a fixed offset from it. Output channels sit in the lanes of
//! `[f32; LANES]` accumulators and [`Q`] positions are computed at once;
//! the arrays are plain safe Rust that the compiler vectorises,
//! once per instruction set the dispatcher in `simd` compiles the body
//! for. Only the padded rows that the listed positions' windows read are
//! written.
//!
//! Each output starts at `+0.0`, adds `w[i, p] · x[base + off(p)]` for
//! ascending `p` with multiply and add separately rounded, and then adds
//! the bias: the panel GEMM's sequence for that element, padding taps
//! and zero weights included (they read the copy's zeros and multiply,
//! as every GEMM row does).

use crate::Conv3dGeom;

/// Output channels per vector of accumulators: one AVX2 register.
pub(super) const LANES: usize = 8;

/// Output positions computed together: eight independent accumulator
/// vectors.
const Q: usize = 8;

/// Output positions per transposing store, a multiple of [`Q`].
const CHUNK: usize = 64;

/// Writes `weight` (`[oc, patch]`) into `wt` as blocks of [`LANES`]
/// output channels, each `[patch, LANES]`, the channels past `oc` zero.
pub(super) fn transpose_into(weight: &[f32], patch: usize, wt: &mut [f32]) {
    let mut rows = weight.chunks_exact(patch);
    for block in wt.chunks_exact_mut(patch * LANES) {
        for l in 0..LANES {
            let lane = block.iter_mut().skip(l).step_by(LANES);
            match rows.next() {
                Some(row) => lane.zip(row).for_each(|(t, &w)| *t = w),
                None => lane.for_each(|t| *t = 0.0),
            }
        }
    }
}

/// Strides of the padded input and extents of the output grid.
pub(super) struct Layout {
    /// Padded row, frame and channel lengths.
    row: usize,
    frame: usize,
    channel: usize,
    /// Padded frames and rows per frame.
    frames: usize,
    rows: usize,
    /// Output rows and columns.
    oh: usize,
    ow: usize,
}

impl Layout {
    pub(super) fn new(g: &Conv3dGeom) -> Self {
        let row = g.width + 2 * g.pad_s;
        let rows = g.height + 2 * g.pad_s;
        let frames = g.frames + 2 * g.pad_t;
        Layout {
            row,
            frame: rows * row,
            channel: frames * rows * row,
            frames,
            rows,
            oh: g.out_height(),
            ow: g.out_width(),
        }
    }

    /// Elements of the padded input.
    pub(super) fn volume(&self, g: &Conv3dGeom) -> usize {
        g.in_channels * self.channel
    }

    /// Padded `(frame, row)` pairs.
    pub(super) fn frame_rows(&self) -> usize {
        self.frames * self.rows
    }

    /// Writes into `offsets` each tap's offset from its window's first,
    /// in `(c, kt, ky, kx)` order.
    pub(super) fn tap_offsets(&self, g: &Conv3dGeom, offsets: &mut Vec<usize>) {
        offsets.clear();
        for c in 0..g.in_channels {
            for dt in 0..g.kernel_t {
                for dy in 0..g.kernel_s {
                    let row = c * self.channel + dt * self.frame + dy * self.row;
                    offsets.extend(row..row + g.kernel_s);
                }
            }
        }
    }

    /// The `(t, y, x)` of flat output position `pos`.
    fn coords(&self, pos: usize) -> (usize, usize, usize) {
        (
            pos / (self.oh * self.ow),
            pos / self.ow % self.oh,
            pos % self.ow,
        )
    }

    /// The `(t, y, x)` of outputs `from ..` of `positions` (of the whole
    /// grid when `None`), in order. It divides only where an output
    /// leaves its predecessor's output row.
    fn walk<'a>(
        &'a self,
        positions: Option<&'a [u32]>,
        from: usize,
    ) -> impl Iterator<Item = (usize, usize, usize)> + 'a {
        let mut last: Option<(usize, (usize, usize, usize))> = None;
        let pos = move |j| positions.map_or(Some(j), |p| p.get(j).map(|&p| p as usize));
        (from..).map_while(pos).map(move |pos| {
            let at = match last {
                Some((prev, (t, y, x))) if pos > prev && pos - prev < self.ow - x => {
                    (t, y, x + pos - prev)
                }
                _ => self.coords(pos),
            };
            last = Some((pos, at));
            at
        })
    }
}

/// Marks in `rows` (`[T + 2pt, H + 2ps]`) with `1.0` the padded
/// `(frame, row)` pairs that the windows of `positions` (of every output
/// when `None`) read, and the others with `0.0`.
pub(super) fn mark_rows(g: &Conv3dGeom, lay: &Layout, positions: Option<&[u32]>, rows: &mut [f32]) {
    let Some(positions) = positions else {
        rows.fill(1.0);
        return;
    };
    rows.fill(0.0);
    let mut last = None;
    for (t, y, _) in lay.walk(Some(positions), 0) {
        // Outputs of one output row read the same padded rows.
        if last.replace((t, y)) == Some((t, y)) {
            continue;
        }
        let (t0, y0) = (t * g.stride_t, y * g.stride_s);
        for dt in 0..g.kernel_t {
            for dy in 0..g.kernel_s {
                rows[(t0 + dt) * lay.rows + y0 + dy] = 1.0;
            }
        }
    }
}

/// Writes `data` (`[C, T, H, W]`) into `out` as `[C, T + 2pt, H + 2ps,
/// W + 2ps]` with a `+0.0` border, for the padded `(frame, row)` pairs
/// `rows` marks. Nothing is zeroed first.
pub(super) fn pad_into(data: &[f32], g: &Conv3dGeom, lay: &Layout, rows: &[f32], out: &mut [f32]) {
    let (w, h, ps) = (g.width, g.height, g.pad_s);
    let frames = out.chunks_exact_mut(lay.frame);
    for (f, frame) in frames.enumerate() {
        let t = f % lay.frames;
        let marks = &rows[t * lay.rows..(t + 1) * lay.rows];
        let zero = |rows: &mut [f32], marks: &[f32]| {
            let dsts = rows.chunks_exact_mut(lay.row).zip(marks);
            dsts.filter(|(_, &mark)| mark != 0.0)
                .for_each(|(dst, _)| zero_row(dst));
        };
        let Some(t) = t.checked_sub(g.pad_t).filter(|&t| t < g.frames) else {
            zero(frame, marks);
            continue;
        };
        let src = &data[(f / lay.frames * g.frames + t) * h * w..][..h * w];
        // The border rows above and below, then the frame's rows.
        let (top, rest) = frame.split_at_mut(ps * lay.row);
        let (mid, bottom) = rest.split_at_mut(h * lay.row);
        zero(top, &marks[..ps]);
        zero(bottom, &marks[ps + h..]);
        let dsts = mid.chunks_exact_mut(lay.row).zip(&marks[ps..ps + h]);
        for ((dst, &mark), row) in dsts.zip(src.chunks_exact(w)) {
            if mark != 0.0 {
                pad_row(dst, ps, row);
            }
        }
    }
}

/// Writes `row` into `dst` between `ps` zeros on either side.
#[inline]
fn pad_row(dst: &mut [f32], ps: usize, row: &[f32]) {
    let w = row.len();
    if w >= 8 && ps <= 8 {
        // The zeros at both ends, then the row over their spill.
        let end = dst.len() - 8;
        dst[..8].copy_from_slice(&[0.0; 8]);
        dst[end..].copy_from_slice(&[0.0; 8]);
        copy_row(&mut dst[ps..ps + w], row);
    } else {
        dst.fill(0.0);
        dst[ps..ps + w].copy_from_slice(row);
    }
}

/// Zeroes a padded row.
#[inline]
fn zero_row(dst: &mut [f32]) {
    match dst.len() {
        n @ 8..=32 => copy_row(dst, &[0.0; 32][..n]),
        _ => dst.fill(0.0),
    }
}

/// `dst.copy_from_slice(src)`, for 8 to 32 elements as 8-lane moves
/// (the last overlapping its predecessor), so that a short row costs no
/// library call; compilers turn any loop of such moves back into one.
#[inline]
fn copy_row(dst: &mut [f32], src: &[f32]) {
    let n = src.len();
    if !(8..=32).contains(&n) {
        dst.copy_from_slice(src);
        return;
    }
    dst[..8].copy_from_slice(&src[..8]);
    if n > 16 {
        dst[8..16].copy_from_slice(&src[8..16]);
    }
    if n > 24 {
        dst[16..24].copy_from_slice(&src[16..24]);
    }
    dst[n - 8..].copy_from_slice(&src[n - 8..]);
}

/// One direct convolution, its operands prepared by the entry point.
pub(crate) struct Job<'a> {
    /// The padded input, `[C, T + 2pt, H + 2ps, W + 2ps]`.
    pub(super) x: &'a [f32],
    /// The weight in blocks of [`LANES`] channels, each `[patch,
    /// LANES]`, channels past `oc` zero.
    pub(super) wt: &'a [f32],
    pub(super) bias: &'a [f32],
    /// Flat `(ot, oy, ox)` output positions; `None` is all of them.
    pub(super) positions: Option<&'a [u32]>,
    /// Each tap's offset from its window's first, in `(c, kt, ky, kx)`
    /// order.
    pub(super) offsets: &'a [usize],
    pub(super) g: Conv3dGeom,
    pub(super) lay: Layout,
}

impl Job<'_> {
    /// The padded-input index of the first tap of the output at `(t,
    /// y, x)`.
    #[inline(always)]
    fn base(&self, (t, y, x): (usize, usize, usize)) -> usize {
        let lay = &self.lay;
        t * self.g.stride_t * lay.frame + (y * lay.row + x) * self.g.stride_s
    }

    /// Computes `out` (`[oc, positions]`).
    #[inline(always)]
    pub(crate) fn run(&self, out: &mut [f32]) {
        let (oc, patch) = (self.bias.len(), self.g.patch_len());
        let n = out.len() / oc;
        for c0 in (0..n).step_by(CHUNK) {
            let m = (n - c0).min(CHUNK);
            // A short last group repeats the chunk's last position.
            let mut bases = [0; CHUNK];
            for (b, at) in bases[..m].iter_mut().zip(self.lay.walk(self.positions, c0)) {
                *b = self.base(at);
            }
            let last = bases[m - 1];
            bases[m..].fill(last);
            for (b, wt) in self.wt.chunks_exact(patch * LANES).enumerate() {
                let mut tile = [[0.0f32; LANES]; CHUNK];
                let groups = tile.chunks_exact_mut(Q).zip(bases.chunks_exact(Q));
                for (group, bases) in groups.take(m.div_ceil(Q)) {
                    let bases = bases.try_into().expect("Q bases per group");
                    group.copy_from_slice(&self.group(wt, bases));
                }
                let first = b * LANES;
                for (l, &bc) in self.bias[first..oc.min(first + LANES)].iter().enumerate() {
                    let row = &mut out[(first + l) * n + c0..][..m];
                    for (o, t) in row.iter_mut().zip(&tile) {
                        *o = t[l] + bc;
                    }
                }
            }
        }
    }

    /// The accumulators of the [`Q`] positions at `bases`, from a
    /// block's `[patch, LANES]` weight `wt`.
    #[inline(always)]
    fn group(&self, wt: &[f32], bases: &[usize; Q]) -> [[f32; LANES]; Q] {
        let mut acc = [[0.0f32; LANES]; Q];
        // Each position's whole window, all of one length, so that one
        // bounds test per tap serves every position.
        let span = self.offsets.last().map_or(0, |&o| o + 1);
        let mut windows: [&[f32]; Q] = [&[]; Q];
        for (window, &b) in windows.iter_mut().zip(bases) {
            *window = &self.x[b..b + span];
        }
        for (w, &off) in wt.chunks_exact(LANES).zip(self.offsets) {
            let w: [f32; LANES] = w.try_into().expect("LANES weights per tap");
            for (a, window) in acc.iter_mut().zip(&windows) {
                let v = window[off];
                for l in 0..LANES {
                    // mul then add, separately rounded.
                    a[l] += w[l] * v;
                }
            }
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::super::{conv_direct_into, gemm_into_with_threads, isa, set_isa, KernelScratch};
    use crate::{vol2col_cols_into, vol2col_into, Conv3dGeom, Isa, TensorRng};

    /// The panel route: lowered columns, the GEMM, then the bias.
    fn panel(x: &[f32], g: &Conv3dGeom, w: &[f32], b: &[f32], cols: Option<&[u32]>) -> Vec<f32> {
        let total = g.out_frames() * g.out_height() * g.out_width();
        let n = cols.map_or(total, <[u32]>::len);
        let mut panel = vec![f32::NAN; g.patch_len() * n];
        match cols {
            Some(cols) => vol2col_cols_into(x, g, cols, &mut panel),
            None => vol2col_into(x, g, &mut panel),
        }
        let mut out = vec![f32::NAN; b.len() * n];
        gemm_into_with_threads(w, &panel, &mut out, b.len(), g.patch_len(), n, 1);
        for (row, &bc) in out.chunks_exact_mut(n).zip(b) {
            row.iter_mut().for_each(|v| *v += bc);
        }
        out
    }

    fn direct(x: &[f32], g: &Conv3dGeom, w: &[f32], b: &[f32], cols: Option<&[u32]>) -> Vec<f32> {
        let total = g.out_frames() * g.out_height() * g.out_width();
        let mut out = vec![f32::NAN; b.len() * cols.map_or(total, <[u32]>::len)];
        conv_direct_into(x, g, w, b, cols, &mut out, &mut KernelScratch::new());
        out
    }

    /// Bits, every NaN as one value.
    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter()
            .map(|x| if x.is_nan() { u32::MAX } else { x.to_bits() })
            .collect()
    }

    fn geom(
        c: usize,
        [t, h, w]: [usize; 3],
        k: (usize, usize),
        s: (usize, usize),
        p: (usize, usize),
    ) -> Conv3dGeom {
        Conv3dGeom {
            in_channels: c,
            frames: t,
            height: h,
            width: w,
            kernel_t: k.0,
            kernel_s: k.1,
            stride_t: s.0,
            stride_s: s.1,
            pad_t: p.0,
            pad_s: p.1,
        }
    }

    #[test]
    fn scalar_arm_matches_the_panel_across_lane_blocks() {
        let g = geom(2, [3, 5, 9], (3, 3), (1, 2), (1, 1));
        let mut rng = TensorRng::seed_from(3);
        let x = rng.uniform(&[2 * 3 * 5 * 9], -1.0, 1.0).into_vec();
        let before = isa();
        set_isa(Isa::Scalar);
        for oc in [3, 12] {
            let w = rng.uniform(&[oc * g.patch_len()], -1.0, 1.0).into_vec();
            let b = rng.uniform(&[oc], -1.0, 1.0).into_vec();
            for cols in [None, Some(&[44u32, 0, 7, 7, 29][..]), Some(&[31u32][..])] {
                let expect = bits(&panel(&x, &g, &w, &b, cols));
                assert_eq!(
                    bits(&direct(&x, &g, &w, &b, cols)),
                    expect,
                    "oc {oc} {cols:?}"
                );
            }
        }
        set_isa(before);
    }

    #[test]
    fn zero_weights_meeting_inf_give_nan_in_every_row() {
        // A 1×1 kernel over five channels, the first input infinite.
        // Row r has zero weights on channels 0..=r, so its zero count
        // runs from one in five to all five: every row multiplies its
        // zero by the inf, in the GEMM (four tile rows and one leftover
        // on AVX2) and in the direct conv alike, on every ISA.
        let g = geom(5, [1, 1, 1], (1, 1), (1, 1), (0, 0));
        let x = [f32::INFINITY, 1.0, 2.0, 3.0, 4.0];
        let w: Vec<f32> = (0..25)
            .map(|i| if i % 5 <= i / 5 { 0.0 } else { 1.0 })
            .collect();
        let b = [0.5; 5];
        let before = isa();
        for requested in [Isa::detect(), Isa::Scalar] {
            set_isa(requested);
            let mut gemm = vec![0.0; 5];
            gemm_into_with_threads(&w, &x, &mut gemm, 5, 5, 1, 1);
            assert!(gemm.iter().all(|v| v.is_nan()), "{requested:?}: {gemm:?}");
            let out = direct(&x, &g, &w, &b, None);
            assert!(out.iter().all(|v| v.is_nan()), "{requested:?}: {out:?}");
        }
        set_isa(before);
    }

    #[test]
    fn padding_taps_read_zeros_at_every_border() {
        // Pad = kernel - 1, so the corner windows hold a single input
        // cell; an infinite weight turns every padding tap it meets into
        // NaN, as the panel's zeros do. The scratch arrives dirty from a
        // larger convolution.
        let g = geom(1, [2, 2, 3], (2, 3), (1, 1), (1, 2));
        let mut rng = TensorRng::seed_from(5);
        let x = rng.uniform(&[2 * 2 * 3], -1.0, 1.0).into_vec();
        let mut w = rng.uniform(&[2 * g.patch_len()], -1.0, 1.0).into_vec();
        w[g.patch_len() + 4] = f32::INFINITY;
        let b = [0.25, -0.25];
        let mut scratch = KernelScratch::new();
        let big = geom(2, [4, 6, 9], (3, 3), (1, 1), (1, 1));
        let mut out = vec![0.0; 5 * 4 * 6 * 9];
        let xs = vec![f32::NAN; 2 * 4 * 6 * 9];
        conv_direct_into(
            &xs,
            &big,
            &vec![1.0; 5 * big.patch_len()],
            &[0.0; 5],
            None,
            &mut out,
            &mut scratch,
        );
        let total = g.out_frames() * g.out_height() * g.out_width();
        let corners = [0, 6, total as u32 - 7, total as u32 - 1];
        for cols in [None, Some(&corners[..])] {
            let n = cols.map_or(total, <[u32]>::len);
            let mut out = vec![f32::NAN; 2 * n];
            conv_direct_into(&x, &g, &w, &b, cols, &mut out, &mut scratch);
            assert_eq!(bits(&out), bits(&panel(&x, &g, &w, &b, cols)), "{cols:?}");
        }
    }
}
