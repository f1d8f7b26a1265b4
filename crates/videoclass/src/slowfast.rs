//! The SlowFast-lite classifier.

use crate::model::{
    concat_channels, dims5, split_channels, temporal_subsample, temporal_upsample_grad,
    ForwardTelemetry, VideoClassifier,
};
use safecross_nn::{
    BatchNorm, Conv3d, Dropout, GlobalAvgPool, Layer, Linear, Mode, Param, Relu, Sequential,
};
use safecross_telemetry::Registry;
use safecross_tensor::{GridPlan, KernelScratch, Precision, Tensor, TensorRng};

/// A miniature SlowFast network (Feichtenhofer et al., ICCV 2019),
/// preserving the paper's architectural signature:
///
/// - **Fast pathway**: all `T` frames, few channels (`β` fraction);
/// - **Slow pathway**: every `α`-th frame (`α = 8`, the paper's
///   `slowfast_r50_4x16`: 4 slow frames from a 32-frame clip), more
///   channels;
/// - **Lateral connections** after each stage, fusing time-strided Fast
///   features into the Slow pathway;
/// - concatenated global-average-pooled features into a linear head.
///
/// ```
/// use safecross_videoclass::{SlowFastLite, VideoClassifier};
/// use safecross_nn::Mode;
/// use safecross_tensor::{Tensor, TensorRng};
///
/// let mut rng = TensorRng::seed_from(0);
/// let mut model = SlowFastLite::new(2, &mut rng);
/// let clips = Tensor::zeros(&[2, 1, 32, 20, 20]);
/// let logits = model.forward(&clips, Mode::Eval);
/// assert_eq!(logits.dims(), &[2, 2]);
/// ```
#[derive(Clone)]
pub struct SlowFastLite {
    alpha: usize,
    fast1: Stage,
    fast2: Stage,
    slow1: Stage,
    slow2: Stage,
    gap_fused: GlobalAvgPool,
    gap_fast: GlobalAvgPool,
    head: Sequential,
    num_classes: usize,
    cache: Option<FwdCache>,
    telemetry: Option<ForwardTelemetry>,
    /// The occupancy plans of one clip through the pathways (clip, slow
    /// input, fast1, fast2, slow1, lateral 1, slow2 input, slow2),
    /// rebuilt for every clip of every eval forward in buffers that
    /// persist.
    plans: [GridPlan; 8],
}

/// One pathway stage: conv → BN → ReLU. Parameter and buffer names are
/// those of the three-layer `Sequential` it stands for (`1.running_mean`
/// is the BN's), so checkpoints are unchanged.
#[derive(Clone)]
struct Stage {
    conv: Conv3d,
    bn: BatchNorm,
    relu: Relu,
}

impl Stage {
    fn new(conv: Conv3d) -> Self {
        let bn = BatchNorm::new(conv.out_channels());
        Stage {
            conv,
            bn,
            relu: Relu::new(),
        }
    }

    /// Batch-norm and ReLU over a conv output, recycling the intermediates.
    fn bn_relu(&mut self, y: Tensor, mode: Mode, scratch: &mut KernelScratch) -> Tensor {
        let z = self.bn.forward_scratch(&y, mode, scratch);
        scratch.recycle_tensor(y);
        let a = self.relu.forward_scratch(&z, mode, scratch);
        scratch.recycle_tensor(z);
        a
    }

    fn forward_scratch(&mut self, x: &Tensor, mode: Mode, scratch: &mut KernelScratch) -> Tensor {
        let y = self.conv.forward_scratch(x, mode, scratch);
        self.bn_relu(y, mode, scratch)
    }

    /// The eval forward of batch item `item` of `x` over `plan`: conv,
    /// BN and ReLU run on the compact columns of `out_plan`, which are
    /// then scattered to the dense `[1, out_c, oT, oH, oW]` output. BN
    /// and ReLU act per element, so each computed value is the dense
    /// stage's.
    fn forward_planned(
        &mut self,
        x: &Tensor,
        item: usize,
        plan: &GridPlan,
        out_plan: &mut GridPlan,
        scratch: &mut KernelScratch,
    ) -> Tensor {
        let y = self.conv.forward_planned(x, item, plan, out_plan, scratch);
        let a = self.bn_relu(y, Mode::Eval, scratch);
        if a.shape().ndim() == 5 {
            return a; // a full plan: already the dense output
        }
        let dense = out_plan.scatter(&a, scratch);
        scratch.recycle_tensor(a);
        dense
    }

    fn backward(&mut self, grad: &Tensor) -> Tensor {
        let g = self.relu.backward(grad);
        let g = self.bn.backward(&g);
        self.conv.backward(&g)
    }

    fn params(&self) -> Vec<&Param> {
        let mut p = self.conv.params();
        p.extend(self.bn.params());
        p
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut p = self.conv.params_mut();
        p.extend(self.bn.params_mut());
        p
    }

    fn buffers(&self) -> Vec<(String, Tensor)> {
        self.bn
            .buffers()
            .into_iter()
            .map(|(n, t)| (format!("1.{n}"), t))
            .collect()
    }

    fn set_buffer(&mut self, name: &str, value: Tensor) {
        if let Some(rest) = name.strip_prefix("1.") {
            self.bn.set_buffer(rest, value);
        }
    }
}

impl std::fmt::Debug for Stage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let names = [self.conv.name(), self.bn.name(), self.relu.name()];
        write!(f, "Sequential[{}]", names.join(" -> "))
    }
}

#[derive(Clone)]
struct FwdCache {
    t: usize,
    t_f2: usize,
    fused_channels: usize,
    fast_feat: usize,
}

const FAST_C1: usize = 4;
const FAST_C2: usize = 8;
const SLOW_C1: usize = 8;
const SLOW_C2: usize = 16;

impl SlowFastLite {
    /// Builds the model for `num_classes` output classes.
    ///
    /// # Panics
    ///
    /// Panics if `num_classes` is zero.
    pub fn new(num_classes: usize, rng: &mut TensorRng) -> Self {
        assert!(num_classes > 0, "need at least one class");
        let fast1 = Stage::new(Conv3d::new(1, FAST_C1, (3, 3), (1, 2), (1, 1), rng));
        let fast2 = Stage::new(Conv3d::new(FAST_C1, FAST_C2, (3, 3), (2, 2), (1, 1), rng));
        let slow1 = Stage::new(Conv3d::new(1, SLOW_C1, (1, 3), (1, 2), (0, 1), rng));
        let slow2 = Stage::new(Conv3d::new(
            SLOW_C1 + FAST_C1,
            SLOW_C2,
            (3, 3),
            (1, 2),
            (1, 1),
            rng,
        ));
        let feat = SLOW_C2 + FAST_C2 + FAST_C2; // fused (slow2+lat2) + fast pool
        let head = Sequential::new(vec![
            Box::new(Dropout::new(0.2, rng)),
            Box::new(Linear::new(feat, num_classes, rng)),
        ]);
        SlowFastLite {
            alpha: 8,
            fast1,
            fast2,
            slow1,
            slow2,
            gap_fused: GlobalAvgPool::new(),
            gap_fast: GlobalAvgPool::new(),
            head,
            num_classes,
            cache: None,
            telemetry: None,
            plans: Default::default(),
        }
    }

    /// The temporal sampling ratio between pathways (paper: `α = 8`).
    pub fn alpha(&self) -> usize {
        self.alpha
    }

    /// Output class count.
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// The whole-batch forward every position of every layer takes:
    /// training's (it writes the backward caches), and in tests the
    /// reference the planned eval forward is held to.
    fn forward_dense(&mut self, clips: &Tensor, mode: Mode, scratch: &mut KernelScratch) -> Tensor {
        let t = clips.shape().dim(2);
        // Each intermediate is recycled as soon as its last consumer has
        // read it, so a warm scratch cycles a fixed working set across
        // clips. Fast pathway over every frame:
        let f1 = self.fast1.forward_scratch(clips, mode, scratch);
        let f2 = self.fast2.forward_scratch(&f1, mode, scratch);
        // Slow pathway over every alpha-th frame.
        let slow_in = temporal_subsample(clips, self.alpha, scratch);
        let s1 = self.slow1.forward_scratch(&slow_in, mode, scratch);
        scratch.recycle_tensor(slow_in);
        // Lateral 1: time-strided Fast stage-1 features into Slow.
        let t_slow = t / self.alpha;
        let lat1 = temporal_subsample(&f1, f1.shape().dim(2) / t_slow, scratch);
        scratch.recycle_tensor(f1);
        let s_cat = concat_channels(&s1, &lat1, scratch);
        scratch.recycle_tensor(s1);
        scratch.recycle_tensor(lat1);
        let s2 = self.slow2.forward_scratch(&s_cat, mode, scratch);
        scratch.recycle_tensor(s_cat);
        // Lateral 2: fuse Fast stage-2 features at the head.
        let t_f2 = f2.shape().dim(2);
        assert_eq!(t_f2 % t_slow, 0, "fast/slow frame counts incompatible");
        let lat2 = temporal_subsample(&f2, t_f2 / t_slow, scratch);
        let fused = concat_channels(&s2, &lat2, scratch);
        scratch.recycle_tensor(s2);
        scratch.recycle_tensor(lat2);

        let pool_fused = self.gap_fused.forward_scratch(&fused, mode, scratch);
        let fused_channels = fused.shape().dim(1);
        scratch.recycle_tensor(fused);
        let pool_fast = self.gap_fast.forward_scratch(&f2, mode, scratch);
        scratch.recycle_tensor(f2);
        let feat = Self::concat_features(&pool_fused, &pool_fast, scratch);
        if mode == Mode::Train {
            self.cache = Some(FwdCache {
                t,
                t_f2,
                fused_channels,
                fast_feat: pool_fast.shape().dim(1),
            });
        }
        scratch.recycle_tensor(pool_fused);
        scratch.recycle_tensor(pool_fast);
        let logits = self.head.forward_scratch(&feat, mode, scratch);
        scratch.recycle_tensor(feat);
        logits
    }

    /// The eval forward, clip by clip over occupancy plans (DESIGN §9,
    /// "Occupancy-planned forward"): each stage computes its active
    /// positions and one representative per border class, then scatters
    /// them to the dense maps the laterals and pools read. Pooled
    /// features are gathered per clip and the head runs once on the
    /// batch, so every logit is bit-identical to [`Self::forward_dense`]'s.
    fn forward_planned(&mut self, clips: &Tensor, scratch: &mut KernelScratch) -> Tensor {
        let (n, _, t, h, w) = dims5(clips);
        let t_slow = t / self.alpha;
        let slow_in = temporal_subsample(clips, self.alpha, scratch);
        let feat_len = SLOW_C2 + FAST_C2 + FAST_C2;
        let mut feat = scratch.take_tensor(&[n, feat_len]);
        let [clip, slow_plan, f1_plan, f2_plan, s1_plan, lat1_plan, cat_plan, s2_plan] =
            &mut self.plans;
        let cells = t * h * w;
        for (item, row) in feat.data_mut().chunks_exact_mut(feat_len).enumerate() {
            clip.fill(&clips.data()[item * cells..(item + 1) * cells], t, h, w);
            // Fast pathway over every frame.
            let f1 = self
                .fast1
                .forward_planned(clips, item, clip, f1_plan, scratch);
            let f2 = self
                .fast2
                .forward_planned(&f1, 0, f1_plan, f2_plan, scratch);
            // Slow pathway over every alpha-th frame.
            clip.subsample_into(self.alpha, slow_plan);
            let s1 = self
                .slow1
                .forward_planned(&slow_in, item, slow_plan, s1_plan, scratch);
            // Lateral 1: time-strided Fast stage-1 features into Slow.
            let stride1 = f1.shape().dim(2) / t_slow;
            let lat1 = temporal_subsample(&f1, stride1, scratch);
            f1_plan.subsample_into(stride1, lat1_plan);
            scratch.recycle_tensor(f1);
            let s_cat = concat_channels(&s1, &lat1, scratch);
            s1_plan.concat_into(lat1_plan, cat_plan);
            scratch.recycle_tensor(s1);
            scratch.recycle_tensor(lat1);
            let s2 = self
                .slow2
                .forward_planned(&s_cat, 0, cat_plan, s2_plan, scratch);
            scratch.recycle_tensor(s_cat);
            // Lateral 2 and the pools, as in the dense forward.
            let lat2 = temporal_subsample(&f2, f2.shape().dim(2) / t_slow, scratch);
            let fused = concat_channels(&s2, &lat2, scratch);
            scratch.recycle_tensor(s2);
            scratch.recycle_tensor(lat2);
            let pool_fused = self.gap_fused.forward_scratch(&fused, Mode::Eval, scratch);
            scratch.recycle_tensor(fused);
            let pool_fast = self.gap_fast.forward_scratch(&f2, Mode::Eval, scratch);
            scratch.recycle_tensor(f2);
            let (a, b) = row.split_at_mut(pool_fused.len());
            a.copy_from_slice(pool_fused.data());
            b.copy_from_slice(pool_fast.data());
            scratch.recycle_tensor(pool_fused);
            scratch.recycle_tensor(pool_fast);
        }
        scratch.recycle_tensor(slow_in);
        let logits = self.head.forward_scratch(&feat, Mode::Eval, scratch);
        scratch.recycle_tensor(feat);
        logits
    }

    /// Name, parameters and buffers of each stage and of the head, in
    /// `params()` order.
    #[allow(clippy::type_complexity)] // one row per stage: the checkpoint layout
    fn stage_state(&self) -> [(&'static str, Vec<&Param>, Vec<(String, Tensor)>); 5] {
        let [f1, f2, s1, s2] = [&self.fast1, &self.fast2, &self.slow1, &self.slow2];
        [
            ("fast1", f1.params(), f1.buffers()),
            ("fast2", f2.params(), f2.buffers()),
            ("slow1", s1.params(), s1.buffers()),
            ("slow2", s2.params(), s2.buffers()),
            ("head", self.head.params(), self.head.buffers()),
        ]
    }

    fn concat_features(a: &Tensor, b: &Tensor, scratch: &mut KernelScratch) -> Tensor {
        let (n, ca) = (a.shape().dim(0), a.shape().dim(1));
        let cb = b.shape().dim(1);
        let mut out = scratch.take_tensor(&[n, ca + cb]);
        for i in 0..n {
            out.data_mut()[i * (ca + cb)..i * (ca + cb) + ca]
                .copy_from_slice(&a.data()[i * ca..(i + 1) * ca]);
            out.data_mut()[i * (ca + cb) + ca..(i + 1) * (ca + cb)]
                .copy_from_slice(&b.data()[i * cb..(i + 1) * cb]);
        }
        out
    }

    fn split_features(grad: &Tensor, ca: usize) -> (Tensor, Tensor) {
        let (n, c) = (grad.shape().dim(0), grad.shape().dim(1));
        let cb = c - ca;
        let mut a = Tensor::zeros(&[n, ca]);
        let mut b = Tensor::zeros(&[n, cb]);
        for i in 0..n {
            a.data_mut()[i * ca..(i + 1) * ca]
                .copy_from_slice(&grad.data()[i * c..i * c + ca]);
            b.data_mut()[i * cb..(i + 1) * cb]
                .copy_from_slice(&grad.data()[i * c + ca..(i + 1) * c]);
        }
        (a, b)
    }
}

impl VideoClassifier for SlowFastLite {
    fn instrument(&mut self, registry: &Registry) {
        self.telemetry = Some(ForwardTelemetry::new(registry, "slowfast"));
    }

    fn forward_scratch(&mut self, clips: &Tensor, mode: Mode, scratch: &mut KernelScratch) -> Tensor {
        assert_eq!(clips.shape().ndim(), 5, "expected [N, 1, T, H, W]");
        let _timer = self.telemetry.as_ref().map(ForwardTelemetry::start);
        let (_, c, t, _, _) = dims5(clips);
        assert_eq!(c, 1, "SlowFastLite expects single-channel occupancy clips");
        assert_eq!(t % self.alpha, 0, "T={t} must be divisible by alpha={}", self.alpha);
        match mode {
            Mode::Train => self.forward_dense(clips, mode, scratch),
            Mode::Eval => self.forward_planned(clips, scratch),
        }
    }

    fn backward(&mut self, grad: &Tensor) {
        let cache = self
            .cache
            .clone()
            .expect("SlowFastLite::backward called before a training forward");
        let t_slow = cache.t / self.alpha;
        let dfeat = self.head.backward(grad);
        let fused_feat = cache.fused_channels;
        let (dpool_fused, dpool_fast) = Self::split_features(&dfeat, fused_feat);
        debug_assert_eq!(dpool_fast.shape().dim(1), cache.fast_feat);
        let dfused = self.gap_fused.backward(&dpool_fused);
        let (ds2, dlat2) = split_channels(&dfused, SLOW_C2);
        let df2_lateral = temporal_upsample_grad(&dlat2, cache.t_f2 / t_slow, cache.t_f2);
        let ds_cat = self.slow2.backward(&ds2);
        let (ds1, dlat1) = split_channels(&ds_cat, SLOW_C1);
        let df1_lateral = temporal_upsample_grad(&dlat1, cache.t / t_slow, cache.t);
        self.slow1.backward(&ds1); // input grad not needed further
        let df2 = self.gap_fast.backward(&dpool_fast) + df2_lateral;
        let df1 = self.fast2.backward(&df2) + df1_lateral;
        self.fast1.backward(&df1);
    }

    fn params(&self) -> Vec<&Param> {
        let mut p = self.fast1.params();
        p.extend(self.fast2.params());
        p.extend(self.slow1.params());
        p.extend(self.slow2.params());
        p.extend(self.head.params());
        p
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut p = self.fast1.params_mut();
        p.extend(self.fast2.params_mut());
        p.extend(self.slow1.params_mut());
        p.extend(self.slow2.params_mut());
        p.extend(self.head.params_mut());
        p
    }

    fn buffers(&self) -> Vec<(String, Tensor)> {
        self.stage_state()
            .into_iter()
            .flat_map(|(prefix, _, buffers)| {
                buffers
                    .into_iter()
                    .map(move |(n, t)| (format!("{prefix}.{n}"), t))
            })
            .collect()
    }

    fn set_buffer(&mut self, name: &str, value: Tensor) {
        if let Some((prefix, rest)) = name.split_once('.') {
            let stage = match prefix {
                "fast1" => &mut self.fast1,
                "fast2" => &mut self.fast2,
                "slow1" => &mut self.slow1,
                "slow2" => &mut self.slow2,
                "head" => return self.head.set_buffer(rest, value),
                _ => return,
            };
            stage.set_buffer(rest, value);
        }
    }

    fn state_groups(&self) -> Vec<(String, Vec<(String, Tensor)>)> {
        // One group per stage so checkpoints that share a pathway (e.g.
        // few-shot heads fine-tuned on a frozen trunk) dedupe in the
        // model registry at stage granularity. Names must match
        // `state_dict` exactly: the param index is *global* across the
        // stage concatenation order used by `params()`.
        let mut idx = 0usize;
        let mut groups = Vec::with_capacity(5);
        for (stage_name, params, buffers) in self.stage_state() {
            let mut entries = Vec::new();
            for p in params {
                entries.push((format!("param.{idx}.{}", p.name), p.value.clone()));
                idx += 1;
            }
            for (bname, t) in buffers {
                entries.push((format!("buffer.{stage_name}.{bname}"), t));
            }
            groups.push((stage_name.to_owned(), entries));
        }
        groups
    }

    fn set_precision(&mut self, precision: Precision) {
        for stage in [
            &mut self.fast1,
            &mut self.fast2,
            &mut self.slow1,
            &mut self.slow2,
        ] {
            stage.conv.set_precision(precision);
        }
        self.head.set_precision(precision);
    }

    fn name(&self) -> &'static str {
        "slowfast_lite_4x16"
    }

    fn describe(&self) -> String {
        format!(
            "SlowFastLite (alpha={}, {} params)\n\
             Fast : {:?} -> {:?}\n\
             Slow : {:?} -> lateral concat -> {:?}\n\
             Head : fused GAP ++ fast GAP -> {:?}",
            self.alpha,
            self.num_parameters(),
            self.fast1,
            self.fast2,
            self.slow1,
            self.slow2,
            self.head,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use safecross_nn::{softmax_cross_entropy, Optimizer, Sgd};

    fn model() -> (SlowFastLite, TensorRng) {
        let mut rng = TensorRng::seed_from(0);
        let m = SlowFastLite::new(2, &mut rng);
        (m, rng)
    }

    #[test]
    fn forward_shape() {
        let (mut m, mut rng) = model();
        let x = rng.uniform(&[3, 1, 32, 20, 20], 0.0, 1.0);
        let y = m.forward(&x, Mode::Eval);
        assert_eq!(y.dims(), &[3, 2]);
        assert!(y.data().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn backward_accumulates_all_stage_gradients() {
        let (mut m, mut rng) = model();
        let x = rng.uniform(&[2, 1, 32, 20, 20], 0.0, 1.0);
        let logits = m.forward(&x, Mode::Train);
        let (_, grad) = softmax_cross_entropy(&logits, &[0, 1]);
        m.backward(&grad);
        // Every stage — including both pathways and the laterally-fed
        // fast stages — must receive gradient.
        for p in m.params() {
            assert!(
                p.grad().is_some_and(|g| g.norm() > 0.0) || p.name == "bias",
                "parameter {} got no gradient",
                p.name
            );
        }
    }

    #[test]
    fn learns_a_motion_direction_task() {
        // Classify whether a bright cell moves left->right or right->left:
        // exactly the temporal signature SlowFast exists to capture.
        let (mut m, _rng) = model();
        let make_clip = |dir: bool, offset: usize| {
            let mut clip = Tensor::zeros(&[1, 1, 32, 20, 20]);
            for t in 0..32 {
                let x = if dir { t * 20 / 32 } else { 19 - t * 20 / 32 };
                clip.set(&[0, 0, t, 8 + offset % 4, x], 1.0);
            }
            clip
        };
        let clips: Vec<Tensor> = (0..12)
            .map(|i| make_clip(i % 2 == 0, i / 2))
            .collect();
        let flat: Vec<Tensor> = clips.iter().map(|c| c.index_axis0(0)).collect();
        let batch = Tensor::stack(&flat);
        let labels: Vec<usize> = (0..12).map(|i| i % 2).collect();
        let mut opt = Sgd::with_momentum(0.08, 0.9);
        let mut last = f32::INFINITY;
        for _ in 0..70 {
            let logits = m.forward(&batch, Mode::Train);
            let (loss, grad) = softmax_cross_entropy(&logits, &labels);
            m.backward(&grad);
            opt.step(&mut m.params_mut());
            last = loss;
        }
        assert!(last < 0.35, "loss stayed at {last}");
        let logits = m.forward(&batch, Mode::Eval);
        assert!(safecross_nn::accuracy(&logits, &labels) > 0.9);
    }

    #[test]
    fn state_dict_roundtrip() {
        let (mut a, mut rng) = model();
        let mut b = SlowFastLite::new(2, &mut rng);
        let x = rng.uniform(&[1, 1, 32, 20, 20], 0.0, 1.0);
        // Make A's batch-norm stats non-trivial.
        a.forward(&x, Mode::Train);
        let state = a.state_dict();
        b.load_state_dict(&state);
        let ya = a.forward(&x, Mode::Eval);
        let yb = b.forward(&x, Mode::Eval);
        assert!(ya.allclose(&yb, 1e-5), "{ya:?} vs {yb:?}");
    }

    #[test]
    fn state_groups_cover_state_dict_exactly() {
        let (mut m, mut rng) = model();
        let x = rng.uniform(&[1, 1, 32, 20, 20], 0.0, 1.0);
        m.forward(&x, Mode::Train); // non-trivial batch-norm buffers
        let mut from_groups: Vec<(String, Tensor)> = m
            .state_groups()
            .into_iter()
            .flat_map(|(_, entries)| entries)
            .collect();
        let mut flat = m.state_dict();
        from_groups.sort_by(|a, b| a.0.cmp(&b.0));
        flat.sort_by(|a, b| a.0.cmp(&b.0));
        assert_eq!(from_groups.len(), flat.len());
        for ((gn, gt), (fn_, ft)) in from_groups.iter().zip(&flat) {
            assert_eq!(gn, fn_);
            assert_eq!(gt, ft, "tensor mismatch for {gn}");
        }
        // Stage granularity: one group per pathway stage plus the head.
        let names: Vec<String> = m.state_groups().into_iter().map(|(n, _)| n).collect();
        assert_eq!(names, ["fast1", "fast2", "slow1", "slow2", "head"]);
    }

    #[test]
    fn clone_decouples_parameters() {
        let (mut a, mut rng) = model();
        let b = a.clone();
        let x = rng.uniform(&[1, 1, 32, 20, 20], 0.0, 1.0);
        let logits = a.forward(&x, Mode::Train);
        let (_, grad) = softmax_cross_entropy(&logits, &[0]);
        a.backward(&grad);
        let mut opt = Sgd::new(0.5);
        opt.step(&mut a.params_mut());
        let pa: f32 = a.params().iter().map(|p| p.value.norm()).sum();
        let pb: f32 = b.params().iter().map(|p| p.value.norm()).sum();
        assert_ne!(pa, pb);
    }

    #[test]
    fn describe_mentions_both_pathways() {
        let (m, _rng) = model();
        let d = m.describe();
        assert!(d.contains("Fast"));
        assert!(d.contains("Slow"));
        assert!(d.contains("alpha=8"));
    }

    /// SlowFast-lite with every bias, BN γ/β and running statistic drawn
    /// non-zero, so an empty region is a non-zero constant past the
    /// first conv and every border class carries its own value.
    fn nonzero_model(rng: &mut TensorRng) -> SlowFastLite {
        let mut m = SlowFastLite::new(2, rng);
        let state: Vec<(String, Tensor)> = m
            .state_dict()
            .into_iter()
            .map(|(name, t)| {
                let value = if name.ends_with(".running_var") || name.ends_with(".gamma") {
                    rng.uniform(t.dims(), 0.5, 1.5)
                } else if name.ends_with(".weight") {
                    t
                } else {
                    rng.uniform(t.dims(), -0.5, 0.5)
                };
                (name, value)
            })
            .collect();
        m.load_state_dict(&state);
        m
    }

    /// `[n, 1, t, h, w]` clips whose non-zero cells are, by `kind`: none,
    /// all, one, the grid's border in the first, last and a random frame,
    /// or random boxes filling 1–10 % of the cells.
    fn occupancy_clips(rng: &mut TensorRng, kind: usize, dims: [usize; 4]) -> Tensor {
        let [n, t, h, w] = dims;
        let mut clips = Tensor::zeros(&[n, 1, t, h, w]);
        let pick = |rng: &mut TensorRng, n: usize| (rng.unit() * n as f32) as usize % n;
        for i in 0..n {
            let mut cells = Vec::new();
            match kind {
                0 => {}
                1 => cells.extend((0..t * h * w).map(|c| (c / (h * w), c / w % h, c % w))),
                2 => cells.push((pick(rng, t), pick(rng, h), pick(rng, w))),
                3 => {
                    for ti in [0, t - 1, pick(rng, t)] {
                        for y in 0..h {
                            for x in 0..w {
                                if y == 0 || x == 0 || y + 1 == h || x + 1 == w {
                                    cells.push((ti, y, x));
                                }
                            }
                        }
                    }
                }
                _ => {
                    let target = ((0.01 + 0.09 * rng.unit()) * (t * h * w) as f32) as usize;
                    while cells.len() < target.max(1) {
                        let (t0, y0, x0) = (pick(rng, t), pick(rng, h), pick(rng, w));
                        let (dt, dy, dx) = (1 + pick(rng, 4), 1 + pick(rng, 4), 1 + pick(rng, 4));
                        for ti in t0..(t0 + dt).min(t) {
                            for y in y0..(y0 + dy).min(h) {
                                for x in x0..(x0 + dx).min(w) {
                                    cells.push((ti, y, x));
                                }
                            }
                        }
                    }
                }
            }
            for (ti, y, x) in cells {
                clips.set(&[i, 0, ti, y, x], 0.05 + rng.unit());
            }
        }
        clips
    }

    proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// The planned eval forward against the dense one it replaced,
        /// bit for bit: occupancy from empty to full, non-zero biases and
        /// BN statistics, both precisions, three clip lengths, grids up
        /// to 70 cells wide (more than one occupancy word per row), and
        /// batches whose clips plan differently.
        #[test]
        fn planned_eval_matches_the_dense_forward(
            seed in 0u64..10_000, kind in 0usize..6, t_pick in 0usize..3,
            n in 1usize..3, h in 1usize..24, w in 1usize..71,
        ) {
            let t = [8, 16, 32][t_pick];
            let mut rng = TensorRng::seed_from(seed);
            let mut m = nonzero_model(&mut rng);
            let clips = occupancy_clips(&mut rng, kind, [n, t, h, w]);
            let mut scratch = KernelScratch::new();
            for precision in [Precision::F32, Precision::Int8] {
                m.set_precision(precision);
                let planned = m.forward_scratch(&clips, Mode::Eval, &mut scratch);
                let dense = m.forward_dense(&clips, Mode::Eval, &mut scratch);
                let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                prop_assert!(
                    bits(&planned) == bits(&dense),
                    "{:?} kind {} [{}, 1, {}, {}, {}]: {:?} vs {:?}",
                    precision, kind, n, t, h, w, planned.data(), dense.data()
                );
                scratch.recycle_tensor(planned);
                scratch.recycle_tensor(dense);
            }
        }
    }

    #[test]
    #[should_panic(expected = "divisible by alpha")]
    fn indivisible_clip_length_panics() {
        let (mut m, _) = model();
        m.forward(&Tensor::zeros(&[1, 1, 30, 20, 20]), Mode::Eval);
    }
}
