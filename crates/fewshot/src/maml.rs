//! First-order MAML and the Table V ablation baselines.

use crate::episode::{sample_episode, Episode};
use safecross_dataset::Dataset;
use safecross_modelswitch::{ModelManifest, ModelRegistry};
use safecross_nn::{softmax_cross_entropy, Mode, Optimizer, Sgd};
use safecross_tensor::{Tensor, TensorRng};
use safecross_videoclass::{train, TrainConfig, VideoClassifier};

/// MAML hyper-parameters (paper Sec. III-D: inner loop Eq. 1, outer loop
/// Eq. 2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MamlConfig {
    /// Inner-loop gradient steps `k`.
    pub inner_steps: usize,
    /// Inner-loop learning rate `α`.
    pub inner_lr: f32,
    /// Outer-loop (meta) learning rate `β`.
    pub outer_lr: f32,
    /// Outer-loop iterations.
    pub meta_iterations: usize,
    /// Episodes per outer update, evaluated in parallel.
    pub meta_batch: usize,
    /// Support shots per class (`K`).
    pub k_shot: usize,
    /// Query samples per class.
    pub query_per_class: usize,
}

impl Default for MamlConfig {
    fn default() -> Self {
        MamlConfig {
            inner_steps: 3,
            inner_lr: 0.05,
            outer_lr: 0.02,
            meta_iterations: 10,
            meta_batch: 2,
            k_shot: 4,
            query_per_class: 4,
        }
    }
}

/// The meta-trainer.
///
/// First-order MAML: the inner loop adapts a *clone* of the meta model
/// on an episode's support set (Eq. 1); the query-set gradient evaluated
/// at the adapted parameters is then applied directly to the meta
/// parameters (Eq. 2 with the second-order term dropped — the standard
/// FOMAML simplification).
#[derive(Debug, Clone)]
pub struct Maml {
    config: MamlConfig,
}

impl Maml {
    /// Creates a meta-trainer.
    pub fn new(config: MamlConfig) -> Self {
        Maml { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &MamlConfig {
        &self.config
    }

    /// Runs the inner loop on a clone and returns the query-set gradient
    /// (one tensor per parameter, meta-model order) plus the query loss.
    fn episode_gradient<M>(&self, meta: &M, episode: &Episode) -> (Vec<Tensor>, f32)
    where
        M: VideoClassifier + Clone,
    {
        let mut task_model = meta.clone();
        inner_adapt(&mut task_model, episode, self.config.inner_steps, self.config.inner_lr);
        // Query gradient at the adapted parameters.
        task_model.zero_grad();
        let logits = task_model.forward(&episode.query.0, Mode::Train);
        let (loss, grad) = softmax_cross_entropy(&logits, &episode.query.1);
        task_model.backward(&grad);
        let grads = task_model.params().iter().map(|p| p.grad_or_zeros()).collect();
        (grads, loss)
    }

    /// Meta-trains `model` in place on episodes drawn from
    /// `data[indices]`, returning the query loss per outer iteration.
    ///
    /// Episodes within a meta-batch run on separate threads (std::thread
    /// scope); gradients are averaged before the meta update.
    pub fn meta_train<M>(
        &self,
        model: &mut M,
        data: &Dataset,
        indices: &[usize],
        seed: u64,
    ) -> Vec<f32>
    where
        M: VideoClassifier + Clone + Sync,
    {
        let mut rng = TensorRng::seed_from(seed);
        let mut losses = Vec::with_capacity(self.config.meta_iterations);
        for _ in 0..self.config.meta_iterations {
            let episodes: Vec<Episode> = (0..self.config.meta_batch)
                .map(|_| {
                    sample_episode(
                        data,
                        indices,
                        self.config.k_shot,
                        self.config.query_per_class,
                        &mut rng,
                    )
                })
                .collect();
            // Evaluate episodes in parallel; each worker clones the meta
            // model, adapts it, and reports the query gradient.
            let results: Vec<(Vec<Tensor>, f32)> = std::thread::scope(|scope| {
                let handles: Vec<_> = episodes
                    .iter()
                    .map(|ep| {
                        let meta_ref = &*model;
                        scope.spawn(move || self.episode_gradient(meta_ref, ep))
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().expect("worker panicked")).collect()
            });

            // Average gradients and take the meta step (Eq. 2).
            let n = results.len() as f32;
            let mut mean_loss = 0.0;
            let mut params = model.params_mut();
            for (grads, loss) in &results {
                mean_loss += loss / n;
                for (p, g) in params.iter_mut().zip(grads) {
                    p.grad_mut().add_scaled(g, 1.0 / n);
                }
            }
            for p in params.iter_mut() {
                let update = p.grad_or_zeros();
                p.value.add_scaled(&update, -self.config.outer_lr);
                p.zero_grad();
            }
            losses.push(mean_loss);
        }
        losses
    }
}

/// Inner-loop adaptation in place: a few SGD steps on the support set.
fn inner_adapt<M: VideoClassifier>(model: &mut M, episode: &Episode, steps: usize, lr: f32) {
    let mut opt = Sgd::new(lr);
    for _ in 0..steps {
        let logits = model.forward(&episode.support.0, Mode::Train);
        let (_, grad) = softmax_cross_entropy(&logits, &episode.support.1);
        model.backward(&grad);
        opt.step(&mut model.params_mut());
    }
}

/// Deployment-time adaptation (the paper's `f_{θ'}`): clones the meta
/// model and adapts it to a new scene's small support set.
pub fn adapt<M>(meta: &M, support: &(Tensor, Vec<usize>), steps: usize, lr: f32) -> M
where
    M: VideoClassifier + Clone,
{
    let mut adapted = meta.clone();
    let episode = Episode {
        support: support.clone(),
        query: support.clone(), // unused by the inner loop
    };
    inner_adapt(&mut adapted, &episode, steps, lr);
    adapted
}

/// [`adapt`], persisted: the adapted model is saved into `store` under
/// `name` as content-addressed layer groups and returned together with
/// its manifest. Layer groups the adaptation left untouched (e.g. a
/// trunk the few inner steps barely moved won't dedup, but a frozen one
/// will, and a re-registration of an identical checkpoint always does)
/// share blobs with the checkpoints already in the store — so a fleet
/// keeping daytime/rain/snow plus few-shot-adapted variants pays only
/// for the groups that actually changed.
pub fn adapt_checkpoint<M>(
    meta: &M,
    support: &(Tensor, Vec<usize>),
    steps: usize,
    lr: f32,
    store: &ModelRegistry,
    name: &str,
) -> (M, ModelManifest)
where
    M: VideoClassifier + Clone,
{
    let adapted = adapt(meta, support, steps, lr);
    let manifest = store.register_model(name, &adapted.state_groups());
    (adapted, manifest)
}

/// The "without few-shot learning" ablation arm: trains a fresh model
/// directly on the (small) target-scene training set.
pub fn train_from_scratch<M>(
    mut model: M,
    data: &Dataset,
    indices: &[usize],
    epochs: usize,
    lr: f32,
    seed: u64,
) -> M
where
    M: VideoClassifier,
{
    let cfg = TrainConfig {
        epochs,
        lr,
        seed,
        ..TrainConfig::default()
    };
    train(&mut model, data, indices, &cfg);
    model
}

#[cfg(test)]
mod tests {
    use super::*;
    use safecross_dataset::{Class, GridSegment, SegmentLabel, TurnAction};
    use safecross_trafficsim::Weather;
    use safecross_videoclass::{evaluate, SlowFastLite};

    /// A synthetic "weather" task family: class 0 clips have a blob in
    /// the top half, class 1 in the bottom half; a scene-specific bias
    /// perturbs all values.
    fn synthetic_dataset(n_per_class: usize, bias: f32, seed: u64) -> Dataset {
        let mut rng = TensorRng::seed_from(seed);
        let mut segs = Vec::new();
        for i in 0..2 * n_per_class {
            let class = if i % 2 == 0 { Class::Danger } else { Class::Safe };
            let mut clip = Tensor::zeros(&[1, 8, 8, 8]);
            let row = if class == Class::Danger { 1 } else { 6 };
            for t in 0..8 {
                let col = (t + i) % 8;
                clip.set(&[0, t, row, col], 1.0 + bias);
            }
            // Mild noise.
            let noise = rng.uniform(clip.dims(), 0.0, 0.1);
            let clip = clip + noise;
            segs.push(GridSegment {
                clip,
                label: SegmentLabel {
                    action: TurnAction::Turn,
                    blind_area: false,
                    class,
                    blind_occupied: false,
                },
                weather: Weather::Rain,
            });
        }
        Dataset::new(segs)
    }

    fn small_model(seed: u64) -> SlowFastLite {
        let mut rng = TensorRng::seed_from(seed);
        SlowFastLite::new(2, &mut rng)
    }

    #[test]
    fn meta_training_reduces_query_loss() {
        let data = synthetic_dataset(12, 0.0, 0);
        let all: Vec<usize> = (0..data.len()).collect();
        let mut model = small_model(1);
        let cfg = MamlConfig {
            meta_iterations: 8,
            meta_batch: 2,
            inner_steps: 2,
            k_shot: 3,
            query_per_class: 3,
            ..MamlConfig::default()
        };
        let losses = Maml::new(cfg).meta_train(&mut model, &data, &all, 7);
        assert_eq!(losses.len(), 8);
        let first = losses[..2].iter().sum::<f32>() / 2.0;
        let last = losses[losses.len() - 2..].iter().sum::<f32>() / 2.0;
        assert!(last < first, "meta loss did not improve: {losses:?}");
    }

    #[test]
    fn adaptation_improves_on_shifted_scene() {
        // Meta-train on the base scene, then adapt to a biased scene with
        // few shots; the adapted model must beat the unadapted one there.
        let base = synthetic_dataset(12, 0.0, 2);
        let target = synthetic_dataset(8, 0.6, 3);
        let base_idx: Vec<usize> = (0..base.len()).collect();
        let mut meta = small_model(4);
        let cfg = MamlConfig {
            meta_iterations: 6,
            meta_batch: 2,
            inner_steps: 2,
            k_shot: 3,
            query_per_class: 3,
            ..MamlConfig::default()
        };
        Maml::new(cfg).meta_train(&mut meta, &base, &base_idx, 8);

        let mut rng = TensorRng::seed_from(9);
        let support_ep = sample_episode(&target, &(0..target.len()).collect::<Vec<_>>(), 3, 3, &mut rng);
        let mut adapted = adapt(&meta, &support_ep.support, 5, 0.05);

        // Evaluate both on all target segments.
        let target_idx: Vec<usize> = (0..target.len()).collect();
        let mut meta_eval = meta.clone();
        let before = evaluate(&mut meta_eval, &target, &target_idx);
        let after = evaluate(&mut adapted, &target, &target_idx);
        assert!(
            after.top1 >= before.top1,
            "adaptation hurt: {} -> {}",
            before.top1,
            after.top1
        );
    }

    #[test]
    fn scratch_training_runs() {
        let data = synthetic_dataset(6, 0.0, 5);
        let all: Vec<usize> = (0..data.len()).collect();
        let model = train_from_scratch(small_model(6), &data, &all, 2, 0.05, 0);
        assert!(model.num_parameters() > 0);
    }

    #[test]
    fn adapt_checkpoint_persists_the_adapted_weights() {
        let data = synthetic_dataset(6, 0.0, 11);
        let meta = small_model(12);
        let store = ModelRegistry::new();
        // The meta model itself is a stored checkpoint too.
        store.register_model("meta", &meta.state_groups());
        let mut rng = TensorRng::seed_from(2);
        let ep = sample_episode(&data, &(0..data.len()).collect::<Vec<_>>(), 2, 2, &mut rng);
        let (adapted, manifest) =
            adapt_checkpoint(&meta, &ep.support, 3, 0.1, &store, "rain_adapted");
        assert_eq!(manifest.model, "rain_adapted");
        assert!(store.contains("rain_adapted"));
        // The stored state dict is bit-identical to the adapted model's.
        let stored = store.state_dict("rain_adapted").expect("stored");
        let live = adapted.state_dict();
        let as_map = |v: &[(String, Tensor)]| {
            let mut v: Vec<(String, Vec<u32>)> = v
                .iter()
                .map(|(n, t)| (n.clone(), t.data().iter().map(|x| x.to_bits()).collect()))
                .collect();
            v.sort();
            v
        };
        assert_eq!(as_map(&stored), as_map(&live));
        // Adaptation ran, so at least one group diverged from the meta
        // checkpoint — but identical groups (batch-norm-free stages the
        // support gradient never reached, if any) may still be shared.
        assert_ne!(
            store.state_dict("meta").map(|s| as_map(&s)),
            Some(as_map(&live)),
            "adaptation should move some weights"
        );
    }

    #[test]
    fn adapt_does_not_mutate_meta_model() {
        let data = synthetic_dataset(6, 0.0, 7);
        let meta = small_model(8);
        let before: Vec<f32> = meta.params().iter().map(|p| p.value.norm()).collect();
        let mut rng = TensorRng::seed_from(1);
        let ep = sample_episode(&data, &(0..data.len()).collect::<Vec<_>>(), 2, 2, &mut rng);
        let _adapted = adapt(&meta, &ep.support, 3, 0.1);
        let after: Vec<f32> = meta.params().iter().map(|p| p.value.norm()).collect();
        assert_eq!(before, after);
    }
}
