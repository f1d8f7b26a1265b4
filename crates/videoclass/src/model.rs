//! The classifier trait and tensor glue shared by the architectures.

use safecross_nn::{Mode, Param};
use safecross_telemetry::{Counter, Histogram, Registry, Timer};
use safecross_tensor::{KernelScratch, Precision, Tensor};

/// Pre-fetched forward-pass telemetry handles shared by the three
/// architectures. Fetched once at [`VideoClassifier::instrument`] time
/// so the registry lock never sits on the inference hot path.
#[derive(Debug, Clone)]
pub(crate) struct ForwardTelemetry {
    forwards: Counter,
    forward_ms: Histogram,
}

impl ForwardTelemetry {
    /// Handles under `vc.<family>.forwards` / `vc.<family>.forward_ms`.
    pub(crate) fn new(registry: &Registry, family: &str) -> Self {
        ForwardTelemetry {
            forwards: registry.counter(&format!("vc.{family}.forwards")),
            forward_ms: registry.histogram(&format!("vc.{family}.forward_ms")),
        }
    }

    /// Counts one forward pass and returns the scoped timer for it.
    pub(crate) fn start(&self) -> Timer {
        self.forwards.inc();
        self.forward_ms.start_timer()
    }
}

/// A trainable clip classifier: `[N, 1, T, H, W]` clips in, `[N, K]`
/// logits out.
///
/// Mirrors the [`safecross_nn::Layer`] contract (forward caches, backward
/// accumulates parameter gradients) at the whole-model level. Models are
/// `Clone` so the few-shot module can copy them for inner-loop
/// adaptation.
pub trait VideoClassifier: Send + Sync {
    /// Runs the classifier on a clip batch.
    ///
    /// Provided: runs [`VideoClassifier::forward_scratch`] — the model's
    /// one forward body — on a fresh [`KernelScratch`], so logits are
    /// bit-identical to it by construction. Implementors should not
    /// override this. (Before the two were unified the default pointed
    /// the other way: out-of-tree classifiers that implemented `forward`
    /// must now move that body into `forward_scratch`.)
    fn forward(&mut self, clips: &Tensor, mode: Mode) -> Tensor {
        self.forward_scratch(clips, mode, &mut KernelScratch::new())
    }

    /// The forward pass, for both modes, borrowing working buffers (and
    /// the returned logits' storage) from `scratch`. Logits must not
    /// depend on what the recycled buffers held; in `Mode::Eval` the
    /// in-repo models allocate nothing once the scratch is warm, while
    /// `Mode::Train` additionally writes the backward caches.
    fn forward_scratch(&mut self, clips: &Tensor, mode: Mode, scratch: &mut KernelScratch) -> Tensor;

    /// Attaches a telemetry registry: subsequent forward passes record
    /// wall time and counts under `vc.<family>.*`. Instrumentation never
    /// touches the numeric path — logits stay bit-identical. The default
    /// implementation ignores the registry.
    fn instrument(&mut self, _registry: &Registry) {}

    /// Back-propagates the logit gradient, accumulating into parameters.
    fn backward(&mut self, grad: &Tensor);

    /// Immutable parameter access.
    fn params(&self) -> Vec<&Param>;

    /// Mutable parameter access (for optimizers).
    fn params_mut(&mut self) -> Vec<&mut Param>;

    /// Persistent non-parameter state (batch-norm statistics).
    fn buffers(&self) -> Vec<(String, Tensor)>;

    /// Restores a buffer by name; unknown names are ignored.
    fn set_buffer(&mut self, name: &str, value: Tensor);

    /// Selects the arithmetic precision for eval-mode forward passes
    /// (see [`safecross_nn::Layer::set_precision`]). Int8 quantizes the
    /// conv/linear weights per output channel; f32 restores the exact
    /// bit-identity path. Must be re-invoked after the weights change
    /// (e.g. after [`VideoClassifier::load_state_dict`]) so cached
    /// quantized copies stay in sync. The default is a no-op for
    /// classifiers without quantizable kernels.
    fn set_precision(&mut self, _precision: Precision) {}

    /// Model family name (used in result tables).
    fn name(&self) -> &'static str;

    /// A multi-line architecture description (the paper's Fig. 5
    /// equivalent).
    fn describe(&self) -> String;

    /// Total scalar weight count.
    fn num_parameters(&self) -> usize {
        self.params().iter().map(|p| p.len()).sum()
    }

    /// Zeroes every parameter gradient.
    fn zero_grad(&mut self) {
        for p in self.params_mut() {
            p.zero_grad();
        }
    }

    /// Full state dictionary (parameters then buffers), for
    /// serialisation and for the model-switching payload size.
    fn state_dict(&self) -> Vec<(String, Tensor)> {
        let mut out: Vec<(String, Tensor)> = self
            .params()
            .iter()
            .enumerate()
            .map(|(i, p)| (format!("param.{i}.{}", p.name), p.value.clone()))
            .collect();
        out.extend(
            self.buffers()
                .into_iter()
                .map(|(n, t)| (format!("buffer.{n}"), t)),
        );
        out
    }

    /// The state dictionary partitioned into named **layer groups** —
    /// the unit the model registry stores (content-addressed, deduped)
    /// and a model switch activates (group by group, in this order).
    ///
    /// Contract: the concatenated groups must carry exactly the
    /// [`VideoClassifier::state_dict`] entries — same qualified names,
    /// same tensors — so a registry-reconstructed state dict feeds
    /// straight into [`VideoClassifier::load_state_dict`]. Entry order
    /// may differ from `state_dict` (restoration is name-based), but
    /// within a PR of the same model it must be deterministic.
    ///
    /// The default is a single group named `"all"`; architectures with
    /// meaningful stages (e.g. the SlowFast pathways) override this so
    /// checkpoints that share stages dedupe at stage granularity.
    fn state_groups(&self) -> Vec<(String, Vec<(String, Tensor)>)> {
        vec![("all".to_owned(), self.state_dict())]
    }

    /// Restores a state dictionary produced by
    /// [`VideoClassifier::state_dict`] on an identically-shaped model.
    ///
    /// # Panics
    ///
    /// Panics if a parameter entry has a mismatched shape.
    fn load_state_dict(&mut self, state: &[(String, Tensor)]) {
        let mut params = self.params_mut();
        for (name, tensor) in state {
            if let Some(rest) = name.strip_prefix("param.") {
                if let Some((idx, _)) = rest.split_once('.') {
                    if let Ok(i) = idx.parse::<usize>() {
                        assert_eq!(
                            params[i].value.dims(),
                            tensor.dims(),
                            "shape mismatch restoring {name}"
                        );
                        params[i].value = tensor.clone();
                    }
                }
            }
        }
        drop(params);
        for (name, tensor) in state {
            if let Some(rest) = name.strip_prefix("buffer.") {
                self.set_buffer(rest, tensor.clone());
            }
        }
    }
}

/// Selects every `stride`-th frame of a `[N, C, T, H, W]` clip,
/// producing `[N, C, T/stride, H, W]` in a scratch-pooled tensor — the
/// Slow pathway's input sampling and the lateral connections' temporal
/// alignment.
///
/// # Panics
///
/// Panics if the input is not 5-D or `stride` does not divide `T`.
pub(crate) fn temporal_subsample(x: &Tensor, stride: usize, scratch: &mut KernelScratch) -> Tensor {
    assert_eq!(x.shape().ndim(), 5, "expected [N, C, T, H, W]");
    assert!(stride > 0, "stride must be positive");
    let (n, c, t, h, w) = dims5(x);
    assert_eq!(t % stride, 0, "stride {stride} must divide T={t}");
    let ot = t / stride;
    let mut out = scratch.take_tensor(&[n, c, ot, h, w]);
    let hw = h * w;
    for i in 0..n {
        for ch in 0..c {
            for ti in 0..ot {
                let src = ((i * c + ch) * t + ti * stride) * hw;
                let dst = ((i * c + ch) * ot + ti) * hw;
                out.data_mut()[dst..dst + hw].copy_from_slice(&x.data()[src..src + hw]);
            }
        }
    }
    out
}

/// Adjoint of [`temporal_subsample`]: scatters a `[N, C, T/stride, H, W]`
/// gradient back into a zero-padded `[N, C, T, H, W]` gradient.
///
/// # Panics
///
/// Panics if the gradient is not 5-D.
pub(crate) fn temporal_upsample_grad(grad: &Tensor, stride: usize, full_t: usize) -> Tensor {
    assert_eq!(grad.shape().ndim(), 5, "expected [N, C, T', H, W]");
    let (n, c, ot, h, w) = dims5(grad);
    assert_eq!(ot * stride, full_t, "stride/T mismatch");
    let mut out = Tensor::zeros(&[n, c, full_t, h, w]);
    let hw = h * w;
    for i in 0..n {
        for ch in 0..c {
            for ti in 0..ot {
                let dst = ((i * c + ch) * full_t + ti * stride) * hw;
                let src = ((i * c + ch) * ot + ti) * hw;
                out.data_mut()[dst..dst + hw].copy_from_slice(&grad.data()[src..src + hw]);
            }
        }
    }
    out
}

/// Concatenates two `[N, C, T, H, W]` clips along the channel axis into
/// a scratch-pooled tensor.
///
/// # Panics
///
/// Panics on non-5-D inputs or mismatched non-channel dimensions.
pub(crate) fn concat_channels(a: &Tensor, b: &Tensor, scratch: &mut KernelScratch) -> Tensor {
    assert_eq!(a.shape().ndim(), 5, "expected [N, C, T, H, W]");
    assert_eq!(b.shape().ndim(), 5, "expected [N, C, T, H, W]");
    let (n, ca, t, h, w) = dims5(a);
    let (nb, cb, tb, hb, wb) = dims5(b);
    assert_eq!((n, t, h, w), (nb, tb, hb, wb), "non-channel dims must match");
    let mut out = scratch.take_tensor(&[n, ca + cb, t, h, w]);
    let chunk = t * h * w;
    for i in 0..n {
        for ch in 0..ca {
            let src = (i * ca + ch) * chunk;
            let dst = (i * (ca + cb) + ch) * chunk;
            out.data_mut()[dst..dst + chunk].copy_from_slice(&a.data()[src..src + chunk]);
        }
        for ch in 0..cb {
            let src = (i * cb + ch) * chunk;
            let dst = (i * (ca + cb) + ca + ch) * chunk;
            out.data_mut()[dst..dst + chunk].copy_from_slice(&b.data()[src..src + chunk]);
        }
    }
    out
}

/// Splits a channel-concatenated gradient back into `(grad_a, grad_b)`
/// where `a` held `ca` channels.
///
/// # Panics
///
/// Panics if the gradient is not 5-D or `ca` exceeds its channels.
pub(crate) fn split_channels(grad: &Tensor, ca: usize) -> (Tensor, Tensor) {
    assert_eq!(grad.shape().ndim(), 5, "expected [N, C, T, H, W]");
    let (n, c, t, h, w) = dims5(grad);
    assert!(ca < c, "split point {ca} must be inside {c} channels");
    let cb = c - ca;
    let mut a = Tensor::zeros(&[n, ca, t, h, w]);
    let mut b = Tensor::zeros(&[n, cb, t, h, w]);
    let chunk = t * h * w;
    for i in 0..n {
        for ch in 0..ca {
            let src = (i * c + ch) * chunk;
            let dst = (i * ca + ch) * chunk;
            a.data_mut()[dst..dst + chunk].copy_from_slice(&grad.data()[src..src + chunk]);
        }
        for ch in 0..cb {
            let src = (i * c + ca + ch) * chunk;
            let dst = (i * cb + ch) * chunk;
            b.data_mut()[dst..dst + chunk].copy_from_slice(&grad.data()[src..src + chunk]);
        }
    }
    (a, b)
}

pub(crate) fn dims5(x: &Tensor) -> (usize, usize, usize, usize, usize) {
    let d = x.dims();
    (d[0], d[1], d[2], d[3], d[4])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq_clip(n: usize, c: usize, t: usize, h: usize, w: usize) -> Tensor {
        Tensor::from_vec(
            (0..n * c * t * h * w).map(|v| v as f32).collect(),
            &[n, c, t, h, w],
        )
    }

    #[test]
    fn subsample_picks_strided_frames() {
        let x = seq_clip(1, 1, 4, 1, 2);
        let y = temporal_subsample(&x, 2, &mut KernelScratch::new());
        assert_eq!(y.dims(), &[1, 1, 2, 1, 2]);
        assert_eq!(y.data(), &[0.0, 1.0, 4.0, 5.0]); // frames 0 and 2
    }

    #[test]
    fn subsample_upsample_adjoint() {
        let x = seq_clip(2, 3, 8, 2, 2);
        let y = temporal_subsample(&x, 4, &mut KernelScratch::new());
        let g = y.map(|v| v * 0.5);
        let back = temporal_upsample_grad(&g, 4, 8);
        // <subsample(x), g> == <x, upsample(g)>
        let lhs: f32 = y.data().iter().zip(g.data()).map(|(&a, &b)| a * b).sum();
        let rhs: f32 = x.data().iter().zip(back.data()).map(|(&a, &b)| a * b).sum();
        assert!((lhs - rhs).abs() < 1.0, "{lhs} vs {rhs}");
    }

    #[test]
    fn concat_then_split_roundtrip() {
        let a = seq_clip(2, 2, 3, 2, 2);
        let b = a.map(|v| -v);
        let cat = concat_channels(&a, &b, &mut KernelScratch::new());
        assert_eq!(cat.dims(), &[2, 4, 3, 2, 2]);
        let (ga, gb) = split_channels(&cat, 2);
        assert_eq!(ga, a);
        assert_eq!(gb, b);
    }

    #[test]
    fn concat_preserves_per_sample_layout() {
        let a = Tensor::full(&[2, 1, 1, 1, 1], 1.0);
        let b = Tensor::full(&[2, 1, 1, 1, 1], 2.0);
        let cat = concat_channels(&a, &b, &mut KernelScratch::new());
        assert_eq!(cat.data(), &[1.0, 2.0, 1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "must divide")]
    fn bad_stride_panics() {
        temporal_subsample(&Tensor::zeros(&[1, 1, 5, 1, 1]), 2, &mut KernelScratch::new());
    }
}
