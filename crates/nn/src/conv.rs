//! 2-D and 3-D convolution: one vol2col + GEMM core, two public shapes.

use crate::layer::Int8Weight;
use crate::{Layer, Mode, Param};
use safecross_tensor::{
    col2vol, kernel, qtensor, vol2col_cols_into, vol2col_into, Conv3dGeom, GridPlan, KernelScratch,
    Precision, Tensor, TensorRng,
};

/// The lowered convolution both public layers drive: weights, caches and
/// arithmetic over `[N, C, T, H, W]` data described by a [`Conv3dGeom`].
#[derive(Debug, Clone)]
struct ConvCore {
    weight: Param, // [out_c, in_c * kt * ks * ks]
    bias: Param,   // [out_c]
    out_channels: usize,
    // Kernel/stride/padding template; `frames`/`height`/`width` are
    // filled in per call by `geometry`.
    template: Conv3dGeom,
    cached_cols: Vec<Tensor>,
    cached_geom: Option<Conv3dGeom>,
    // Some(..) only while Precision::Int8 is selected: the [out_c,
    // fan_in] weight quantized per output channel.
    qweight: Option<Int8Weight>,
}

impl ConvCore {
    fn new(out_channels: usize, template: Conv3dGeom, rng: &mut TensorRng) -> Self {
        assert!(
            template.in_channels > 0 && out_channels > 0,
            "channel counts must be positive"
        );
        assert!(
            template.kernel_t > 0 && template.kernel_s > 0,
            "kernel extents must be positive"
        );
        assert!(
            template.stride_t > 0 && template.stride_s > 0,
            "strides must be positive"
        );
        let fan_in = template.patch_len();
        ConvCore {
            weight: Param::new("weight", rng.kaiming(&[out_channels, fan_in], fan_in)),
            bias: Param::new("bias", Tensor::zeros(&[out_channels])),
            out_channels,
            template,
            cached_cols: Vec::new(),
            cached_geom: None,
            qweight: None,
        }
    }

    fn geometry(&self, frames: usize, height: usize, width: usize) -> Conv3dGeom {
        Conv3dGeom {
            frames,
            height,
            width,
            ..self.template
        }
    }

    /// The int8 product of a lowered `[patch, plane]` panel: quantize it
    /// per column, multiply on the f32 GEMM (exact, see
    /// [`safecross_tensor::qtensor`]), then scale each sum by its
    /// channel's and its column's scale.
    fn gemm_int8_cols(
        &self,
        qw: &Int8Weight,
        cols: &[f32],
        oseg: &mut [f32],
        patch: usize,
        plane: usize,
        scratch: &mut KernelScratch,
    ) {
        let mut qcols = scratch.take(patch * plane);
        let mut cscales = scratch.take(plane);
        qtensor::quantize_cols(cols, patch, plane, &mut qcols, &mut cscales);
        kernel::gemm_into(&qw.values, &qcols, oseg, self.out_channels, patch, plane);
        qtensor::dequantize(oseg, &qw.scales, &cscales);
        scratch.recycle(qcols);
        scratch.recycle(cscales);
    }

    /// Multiplies a lowered `[patch, n]` panel into `out` (`[out_c, n]`)
    /// and adds the bias: int8 when that precision is selected and the
    /// pass is eval, f32 otherwise. Each output column depends only on
    /// its own panel column, at either precision, so a panel of any
    /// subset of columns yields those columns' dense values bit for bit.
    fn multiply(
        &self,
        cols: &[f32],
        out: &mut [f32],
        n: usize,
        mode: Mode,
        scratch: &mut KernelScratch,
    ) {
        let patch = self.template.patch_len();
        match (&self.qweight, mode) {
            // Int8 inference path; training stays f32.
            (Some(qw), Mode::Eval) => self.gemm_int8_cols(qw, cols, out, patch, n, scratch),
            _ => {
                let w = self.weight.value.data();
                kernel::gemm_into(w, cols, out, self.out_channels, patch, n)
            }
        }
        for (row, &bc) in out.chunks_exact_mut(n).zip(self.bias.value.data()) {
            for v in row {
                *v += bc;
            }
        }
    }

    /// Convolves the `n` items of `x` (row-major `[n, C, T, H, W]` data
    /// matching `g`) into a pooled `[n, out_c, oT, oH, oW]` tensor.
    fn convolve(
        &mut self,
        x: &Tensor,
        g: Conv3dGeom,
        mode: Mode,
        scratch: &mut KernelScratch,
    ) -> Tensor {
        assert_eq!(
            x.shape().dim(1),
            g.in_channels,
            "convolution channel mismatch"
        );
        let n = x.shape().dim(0);
        let (ot, oh, ow) = (g.out_frames(), g.out_height(), g.out_width());
        let plane = ot * oh * ow;
        let (patch, cthw) = (g.patch_len(), x.len() / n);
        if mode == Mode::Train {
            self.cached_cols.clear();
            self.cached_geom = Some(g);
        }
        let mut out = scratch.take_tensor(&[n, self.out_channels, ot, oh, ow]);
        let mut cols = scratch.take(patch * plane);
        let outs = out.data_mut().chunks_exact_mut(self.out_channels * plane);
        for (item, oseg) in x.data().chunks_exact(cthw).zip(outs) {
            vol2col_into(item, &g, &mut cols);
            self.multiply(&cols, oseg, plane, mode, scratch);
            if mode == Mode::Train {
                self.cached_cols
                    .push(Tensor::from_vec(cols.clone(), &[patch, plane]));
            }
        }
        scratch.recycle(cols);
        out
    }

    /// Accumulates `dW`/`db` and returns `dx` as `[n, C, T, H, W]`.
    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let g = self
            .cached_geom
            .expect("convolution backward called before a training forward");
        let n = grad_out.shape().dim(0);
        assert_eq!(
            n,
            self.cached_cols.len(),
            "batch size changed between passes"
        );
        let plane = g.out_frames() * g.out_height() * g.out_width();
        let mut dx = Tensor::zeros(&[n, g.in_channels, g.frames, g.height, g.width]);
        for i in 0..n {
            let dy = grad_out.index_axis0(i).reshape(&[self.out_channels, plane]);
            // dW += dy * cols^T (transb: cols rows are already packed)
            let dw = dy.matmul_transb(&self.cached_cols[i]);
            self.weight.grad_mut().add_scaled(&dw, 1.0);
            // db += row sums of dy
            let db = self.bias.grad_mut().data_mut();
            for (c, dbc) in db.iter_mut().enumerate() {
                *dbc += dy.data()[c * plane..(c + 1) * plane].iter().sum::<f32>();
            }
            // dx = col2vol(W^T dy)
            let dcols = self.weight.value.transpose().matmul(&dy);
            dx.set_axis0(i, &col2vol(&dcols, &g));
        }
        dx
    }

    fn set_precision(&mut self, precision: Precision) {
        self.qweight = match precision {
            Precision::Int8 => Some(Int8Weight::new(&self.weight.value)),
            Precision::F32 => None,
        };
    }
}

/// A 2-D convolution over `[N, C, H, W]` batches with square kernels.
///
/// Lowered through the 3-D path as a single-frame clip (`T = 1`,
/// temporal kernel and stride 1, no temporal padding), which yields the
/// classic im2col patch matrix — rows `(c, ky, kx)`, columns `(oy, ox)` —
/// so weights stay `[out_c, in_c * k * k]`. Used by the TSN-lite
/// classifier and the YOLO-lite detector.
///
/// ```
/// use safecross_nn::{Conv2d, Layer, Mode};
/// use safecross_tensor::{Tensor, TensorRng};
///
/// let mut rng = TensorRng::seed_from(0);
/// let mut conv = Conv2d::new(1, 4, 3, 1, 1, &mut rng);
/// let y = conv.forward(&Tensor::ones(&[2, 1, 8, 8]), Mode::Eval);
/// assert_eq!(y.dims(), &[2, 4, 8, 8]);
/// ```
#[derive(Debug, Clone)]
pub struct Conv2d {
    core: ConvCore,
}

impl Conv2d {
    /// Creates a convolution with the given channel counts, square
    /// `kernel`, `stride` and zero `padding`.
    ///
    /// # Panics
    ///
    /// Panics if any of the channel counts, kernel or stride are zero.
    pub fn new(
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
        rng: &mut TensorRng,
    ) -> Self {
        let template = Conv3dGeom {
            in_channels,
            frames: 1,
            height: 0,
            width: 0,
            kernel_t: 1,
            kernel_s: kernel,
            stride_t: 1,
            stride_s: stride,
            pad_t: 0,
            pad_s: padding,
        };
        Conv2d {
            core: ConvCore::new(out_channels, template, rng),
        }
    }

    /// Output channel count.
    pub fn out_channels(&self) -> usize {
        self.core.out_channels
    }
}

impl Layer for Conv2d {
    fn forward_scratch(&mut self, x: &Tensor, mode: Mode, scratch: &mut KernelScratch) -> Tensor {
        assert_eq!(x.shape().ndim(), 4, "Conv2d expects [N, C, H, W]");
        let g = self.core.geometry(1, x.shape().dim(2), x.shape().dim(3));
        let mut y = self.core.convolve(x, g, mode, scratch);
        let (n, out_c) = (y.shape().dim(0), y.shape().dim(1));
        y.reshape_in_place(&[n, out_c, g.out_height(), g.out_width()]);
        y
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let mut dx = self.core.backward(grad_out);
        let d = *dx.shape();
        dx.reshape_in_place(&[d.dim(0), d.dim(1), d.dim(3), d.dim(4)]);
        dx
    }

    fn params(&self) -> Vec<&Param> {
        vec![&self.core.weight, &self.core.bias]
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.core.weight, &mut self.core.bias]
    }

    fn set_precision(&mut self, precision: Precision) {
        self.core.set_precision(precision);
    }

    fn name(&self) -> String {
        let t = &self.core.template;
        format!(
            "conv2d({}->{}, k{}, s{}, p{})",
            t.in_channels, self.core.out_channels, t.kernel_s, t.stride_s, t.pad_s
        )
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

/// A 3-D convolution over `[N, C, T, H, W]` video batches.
///
/// Temporal and spatial kernel/stride/padding are independent so the
/// SlowFast pathways can use temporally-thin kernels on the Slow pathway
/// and thicker ones on the Fast pathway, exactly as in the paper's
/// backbone.
///
/// ```
/// use safecross_nn::{Conv3d, Layer, Mode};
/// use safecross_tensor::{Tensor, TensorRng};
///
/// let mut rng = TensorRng::seed_from(0);
/// let mut conv = Conv3d::new(1, 4, (3, 3), (1, 1), (1, 1), &mut rng);
/// let y = conv.forward(&Tensor::ones(&[1, 1, 8, 6, 6]), Mode::Eval);
/// assert_eq!(y.dims(), &[1, 4, 8, 6, 6]);
/// ```
#[derive(Debug, Clone)]
pub struct Conv3d {
    core: ConvCore,
}

impl Conv3d {
    /// Creates a 3-D convolution. `kernel`, `stride` and `padding` are
    /// `(temporal, spatial)` pairs; the spatial kernel is square.
    ///
    /// # Panics
    ///
    /// Panics if channel counts, kernel extents or strides are zero.
    pub fn new(
        in_channels: usize,
        out_channels: usize,
        kernel: (usize, usize),
        stride: (usize, usize),
        padding: (usize, usize),
        rng: &mut TensorRng,
    ) -> Self {
        let template = Conv3dGeom {
            in_channels,
            frames: 0,
            height: 0,
            width: 0,
            kernel_t: kernel.0,
            kernel_s: kernel.1,
            stride_t: stride.0,
            stride_s: stride.1,
            pad_t: padding.0,
            pad_s: padding.1,
        };
        Conv3d {
            core: ConvCore::new(out_channels, template, rng),
        }
    }

    /// Output channel count.
    pub fn out_channels(&self) -> usize {
        self.core.out_channels
    }

    /// The eval forward of batch item `item` of `x` over an occupancy
    /// plan. `plan` is the plan of `x`'s `[T, H, W]` grid; the output's
    /// plan is derived into `out_plan`, and only the positions its
    /// [`GridPlan::columns`] lists are computed, into a
    /// compact `[1, out_c, columns]` tensor for [`GridPlan::scatter`].
    /// When every output position is active the result is instead the
    /// dense `[1, out_c, oT, oH, oW]` output itself. At f32 the positions
    /// are computed by [`kernel::conv_direct_into`] from a padded copy of
    /// the input; at int8 they are lowered into a panel and multiplied.
    /// Either way every value is bit-identical to the matching element
    /// of `forward_scratch(x, Mode::Eval, ..)`, at either precision.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not `[N, C, T, H, W]` with this layer's `C`, if
    /// `item` is out of range, or if `plan` is not of `x`'s grid.
    pub fn forward_planned(
        &self,
        x: &Tensor,
        item: usize,
        plan: &GridPlan,
        out_plan: &mut GridPlan,
        scratch: &mut KernelScratch,
    ) -> Tensor {
        assert_eq!(x.shape().ndim(), 5, "Conv3d expects [N, C, T, H, W]");
        let s = x.shape();
        let g = self.core.geometry(s.dim(2), s.dim(3), s.dim(4));
        assert_eq!(s.dim(1), g.in_channels, "convolution channel mismatch");
        let cthw = x.len() / s.dim(0);
        let data = &x.data()[item * cthw..(item + 1) * cthw];
        plan.conv_into(&g, out_plan);
        let cols = out_plan.columns();
        let (ot, oh, ow) = (g.out_frames(), g.out_height(), g.out_width());
        let n = cols.map_or(ot * oh * ow, <[u32]>::len);
        let oc = self.core.out_channels;
        let mut out = match cols {
            Some(_) => scratch.take_tensor(&[1, oc, n]),
            None => scratch.take_tensor(&[1, oc, ot, oh, ow]),
        };
        if self.core.qweight.is_none() {
            let (w, b) = (self.core.weight.value.data(), self.core.bias.value.data());
            kernel::conv_direct_into(data, &g, w, b, cols, out.data_mut(), scratch);
            return out;
        }
        // int8 quantizes a lowered panel.
        let mut panel = scratch.take(g.patch_len() * n);
        match cols {
            Some(cols) => vol2col_cols_into(data, &g, cols, &mut panel),
            None => vol2col_into(data, &g, &mut panel),
        }
        self.core
            .multiply(&panel, out.data_mut(), n, Mode::Eval, scratch);
        scratch.recycle(panel);
        out
    }
}

impl Layer for Conv3d {
    fn forward_scratch(&mut self, x: &Tensor, mode: Mode, scratch: &mut KernelScratch) -> Tensor {
        assert_eq!(x.shape().ndim(), 5, "Conv3d expects [N, C, T, H, W]");
        let s = x.shape();
        let g = self.core.geometry(s.dim(2), s.dim(3), s.dim(4));
        self.core.convolve(x, g, mode, scratch)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        self.core.backward(grad_out)
    }

    fn params(&self) -> Vec<&Param> {
        vec![&self.core.weight, &self.core.bias]
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.core.weight, &mut self.core.bias]
    }

    fn set_precision(&mut self, precision: Precision) {
        self.core.set_precision(precision);
    }

    fn name(&self) -> String {
        let t = &self.core.template;
        format!(
            "conv3d({}->{}, kt{} ks{}, st{} ss{})",
            t.in_channels, self.core.out_channels, t.kernel_t, t.kernel_s, t.stride_t, t.stride_s
        )
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn bits(t: &Tensor) -> Vec<u32> {
        t.data().iter().map(|v| v.to_bits()).collect()
    }

    fn worst_gap(a: &Tensor, b: &Tensor) -> f32 {
        a.data()
            .iter()
            .zip(b.data())
            .map(|(&a, &b)| (a - b).abs())
            .fold(0.0f32, f32::max)
    }

    proptest! {
        /// The guard on the `T = 1` wiring: a `Conv2d` and a `Conv3d`
        /// built as its single-frame twin agree bit for bit on outputs
        /// and on every gradient, at both precisions.
        #[test]
        fn conv2d_is_conv3d_at_one_frame(
            seed in 0u64..1000,
            n in 1usize..3, c in 1usize..4, out in 1usize..5,
            k in 1usize..4, s in 1usize..3, p in 0usize..2,
            h in 3usize..8, w in 3usize..8,
        ) {
            prop_assume!(h + 2 * p >= k && w + 2 * p >= k);
            let mut rng = TensorRng::seed_from(seed);
            let mut c2 = Conv2d::new(c, out, k, s, p, &mut rng);
            let mut c3 = Conv3d::new(c, out, (1, k), (1, s), (0, p), &mut rng);
            for (p3, p2) in c3.params_mut().into_iter().zip(c2.params_mut()) {
                p2.value = rng.uniform(p2.value.dims(), -1.0, 1.0);
                p3.value = p2.value.clone();
            }
            let x = rng.uniform(&[n, c, h, w], -1.0, 1.0);
            let x3 = x.reshape(&[n, c, 1, h, w]);
            for precision in [Precision::F32, Precision::Int8] {
                c2.set_precision(precision);
                c3.set_precision(precision);
                let y2 = c2.forward(&x, Mode::Eval);
                let y3 = c3.forward(&x3, Mode::Eval);
                prop_assert!(bits(&y2) == bits(&y3), "{:?} eval output", precision);
                // Training always runs f32, whatever precision is selected.
                let t2 = c2.forward(&x, Mode::Train);
                let t3 = c3.forward(&x3, Mode::Train);
                prop_assert!(bits(&t2) == bits(&t3), "{:?} train output", precision);
                let dy = rng.uniform(t2.dims(), -1.0, 1.0);
                let dx2 = c2.backward(&dy);
                let dx3 = c3.backward(&dy.reshape(t3.dims()));
                prop_assert!(dx2.dims() == [n, c, h, w], "dx shape {:?}", dx2.dims());
                prop_assert!(bits(&dx2) == bits(&dx3), "{:?} dx", precision);
                for (p2, p3) in c2.params().into_iter().zip(c3.params()) {
                    prop_assert!(
                        bits(&p2.grad_or_zeros()) == bits(&p3.grad_or_zeros()),
                        "{:?} d{}", precision, p2.name
                    );
                }
            }
        }
    }

    #[test]
    fn conv2d_identity_kernel_passes_through() {
        let mut rng = TensorRng::seed_from(0);
        let mut conv = Conv2d::new(1, 1, 1, 1, 0, &mut rng);
        conv.core.weight.value = Tensor::ones(&[1, 1]);
        conv.core.bias.value = Tensor::zeros(&[1]);
        let x = Tensor::from_vec((0..16).map(|v| v as f32).collect(), &[1, 1, 4, 4]);
        let y = conv.forward(&x, Mode::Eval);
        assert_eq!(y.data(), x.data());
    }

    #[test]
    fn conv2d_box_filter_averages() {
        let mut rng = TensorRng::seed_from(0);
        let mut conv = Conv2d::new(1, 1, 3, 1, 0, &mut rng);
        conv.core.weight.value = Tensor::full(&[1, 9], 1.0 / 9.0);
        conv.core.bias.value = Tensor::zeros(&[1]);
        let x = Tensor::ones(&[1, 1, 3, 3]);
        let y = conv.forward(&x, Mode::Eval);
        assert_eq!(y.dims(), &[1, 1, 1, 1]);
        assert!((y.data()[0] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn conv2d_stride_and_padding_shape() {
        let mut rng = TensorRng::seed_from(0);
        let mut conv = Conv2d::new(3, 8, 3, 2, 1, &mut rng);
        let y = conv.forward(&Tensor::ones(&[2, 3, 8, 8]), Mode::Eval);
        assert_eq!(y.dims(), &[2, 8, 4, 4]);
    }

    #[test]
    fn conv2d_bias_shifts_output() {
        let mut rng = TensorRng::seed_from(0);
        let mut conv = Conv2d::new(1, 2, 1, 1, 0, &mut rng);
        conv.core.weight.value = Tensor::zeros(&[2, 1]);
        conv.core.bias.value = Tensor::from_vec(vec![1.5, -2.0], &[2]);
        let y = conv.forward(&Tensor::ones(&[1, 1, 2, 2]), Mode::Eval);
        assert_eq!(&y.data()[0..4], &[1.5; 4]);
        assert_eq!(&y.data()[4..8], &[-2.0; 4]);
    }

    #[test]
    fn conv2d_int8_eval_tracks_f32_and_f32_restore_is_exact() {
        let mut rng = TensorRng::seed_from(9);
        let mut conv = Conv2d::new(2, 4, 3, 1, 1, &mut rng);
        let x = rng.uniform(&[2, 2, 6, 6], -1.0, 1.0);
        let exact = conv.forward(&x, Mode::Eval);
        conv.set_precision(Precision::Int8);
        let quant = conv.forward(&x, Mode::Eval);
        let worst = worst_gap(&exact, &quant);
        assert!(worst > 0.0 && worst < 0.1, "int8 conv drifted by {worst}");
        conv.set_precision(Precision::F32);
        assert_eq!(
            conv.forward(&x, Mode::Eval),
            exact,
            "f32 restore must be exact"
        );
    }

    #[test]
    fn conv3d_pointwise_kernel_is_identity() {
        let mut rng = TensorRng::seed_from(0);
        let mut conv = Conv3d::new(1, 1, (1, 1), (1, 1), (0, 0), &mut rng);
        conv.core.weight.value = Tensor::ones(&[1, 1]);
        conv.core.bias.value = Tensor::zeros(&[1]);
        let x = Tensor::from_vec((0..24).map(|v| v as f32).collect(), &[1, 1, 2, 3, 4]);
        let y = conv.forward(&x, Mode::Eval);
        assert_eq!(y.data(), x.data());
    }

    #[test]
    fn conv3d_temporal_stride_reduces_frames() {
        let mut rng = TensorRng::seed_from(0);
        let mut conv = Conv3d::new(2, 3, (3, 3), (2, 1), (1, 1), &mut rng);
        let y = conv.forward(&Tensor::ones(&[1, 2, 8, 4, 4]), Mode::Eval);
        assert_eq!(y.dims(), &[1, 3, 4, 4, 4]);
    }

    #[test]
    fn conv3d_int8_eval_tracks_f32_and_f32_restore_is_exact() {
        let mut rng = TensorRng::seed_from(5);
        let mut conv = Conv3d::new(2, 4, (3, 3), (1, 1), (1, 1), &mut rng);
        let x = rng.uniform(&[2, 2, 4, 5, 5], -1.0, 1.0);
        let exact = conv.forward(&x, Mode::Eval);
        conv.set_precision(Precision::Int8);
        let quant = conv.forward(&x, Mode::Eval);
        let worst = worst_gap(&exact, &quant);
        assert!(worst > 0.0 && worst < 0.1, "int8 conv drifted by {worst}");
        conv.set_precision(Precision::F32);
        assert_eq!(
            conv.forward(&x, Mode::Eval),
            exact,
            "f32 restore must be exact"
        );
    }

    #[test]
    fn conv3d_temporal_box_filter_sums_frames() {
        let mut rng = TensorRng::seed_from(0);
        let mut conv = Conv3d::new(1, 1, (2, 1), (1, 1), (0, 0), &mut rng);
        conv.core.weight.value = Tensor::ones(&[1, 2]);
        conv.core.bias.value = Tensor::zeros(&[1]);
        // Two frames of constant 1 and 2 -> single output frame of 3.
        let mut x = Tensor::zeros(&[1, 1, 2, 2, 2]);
        for v in x.data_mut()[0..4].iter_mut() {
            *v = 1.0;
        }
        for v in x.data_mut()[4..8].iter_mut() {
            *v = 2.0;
        }
        let y = conv.forward(&x, Mode::Eval);
        assert_eq!(y.dims(), &[1, 1, 1, 2, 2]);
        assert!(y.data().iter().all(|&v| (v - 3.0).abs() < 1e-6));
    }

    #[test]
    fn planned_conv_reports_one_gemm_sample() {
        // One sample of (oc, patch, positions) per planned convolution,
        // so the GEMM share of a traced clip still counts the convs;
        // samples from other tests' threads are not this one's.
        use kernel::{register_gemm_observer, GemmObserverFn, GemmSample};
        use std::sync::{Arc, Mutex};
        let mut rng = TensorRng::seed_from(4);
        let conv = Conv3d::new(2, 5, (3, 3), (1, 2), (1, 1), &mut rng);
        let mut x = Tensor::zeros(&[1, 2, 4, 8, 8]);
        x.set(&[0, 1, 2, 3, 5], 1.0);
        let mut plan = GridPlan::default();
        plan.fill(x.data(), 4, 8, 8);
        let (mut out_plan, mut scratch) = (GridPlan::default(), KernelScratch::new());
        let me = std::thread::current().id();
        let seen: Arc<Mutex<Vec<(usize, usize, usize)>>> = Arc::default();
        let log = seen.clone();
        let observer: Arc<GemmObserverFn> = Arc::new(move |s: &GemmSample| {
            if std::thread::current().id() == me {
                log.lock().expect("log").push((s.m, s.k, s.n));
            }
        });
        register_gemm_observer(&observer);
        let y = conv.forward_planned(&x, 0, &plan, &mut out_plan, &mut scratch);
        let n = out_plan.columns().expect("one active cell").len();
        assert_eq!(y.dims(), &[1, 5, n]);
        assert_eq!(*seen.lock().expect("log"), [(5, 2 * 3 * 3 * 3, n)]);
        drop(observer);
        conv.forward_planned(&x, 0, &plan, &mut out_plan, &mut scratch);
        assert_eq!(
            seen.lock().expect("log").len(),
            1,
            "a dropped observer hears nothing"
        );
    }
}
