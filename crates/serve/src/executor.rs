//! Shard-local batched inference.
//!
//! Each shard owns a [`ShardCompute`]: lazily-materialized model
//! replicas plus a kernel scratch arena — the warm state a dedicated
//! inference worker used to carry, now embedded in the shard loop.
//! Micro-batches of clips bound for the *same checkpoint* run as
//! **one** stacked forward pass through the shard's replica of that
//! checkpoint.
//!
//! Replicas are keyed by checkpoint name, not weather: a stream whose
//! scene was rebound to a promoted challenger
//! (see [`crate::LearnHook`]) batches under the challenger's name,
//! whose weights are resolved out of the fleet's shared
//! [`ModelRegistry`]. Streams still on the base scene checkpoints key
//! by the weather label, so without promotions the grouping — and
//! therefore every output bit — is identical to weather-keyed
//! batching.
//!
//! The numeric contract: every layer the classifiers use (eval-mode
//! batch norm, convolution, pooling, the linear head, row softmax)
//! processes batch rows independently, so a clip's verdict is
//! bit-identical whether it rides in a batch of 1 or 16, regardless of
//! which clips share its batch, and regardless of which shard executed
//! it (replicas share the stored weights bit-for-bit).
//! `batched_forward_is_bit_identical` below pins that down, and the
//! serve equivalence tests lean on it.

use safecross::{classify_stacked, classify_with_model, Verdict};
use safecross_modelswitch::ModelRegistry;
use safecross_tensor::{KernelScratch, Precision, Tensor};
use safecross_trafficsim::Weather;
use safecross_videoclass::{SlowFastLite, VideoClassifier};
use std::collections::HashMap;
use std::sync::Arc;

/// One clip awaiting classification.
pub(crate) struct ClipJob {
    pub stream: usize,
    pub seq: u64,
    pub weather: Weather,
    /// Checkpoint the owning session has bound for `weather` — the
    /// weather label unless a challenger was promoted on that stream.
    pub model: Arc<str>,
    /// The precision the owning stream was opened at. Part of the
    /// batch key: an int8 stream and an f32 stream never co-batch even
    /// when bound to the same checkpoint, so each stream's verdicts
    /// are a pure function of its own precision contract.
    pub precision: Precision,
    pub clip: Tensor,
}

/// A micro-batch of clips bound for one (checkpoint, precision) pair,
/// all owned by one shard.
pub(crate) struct Batch {
    pub weather: Weather,
    pub model: Arc<str>,
    pub precision: Precision,
    pub jobs: Vec<ClipJob>,
}

/// The raw (ungated) result for one dispatched clip, routed back to
/// the owning shard.
pub(crate) struct Completion {
    pub stream: usize,
    pub seq: u64,
    pub raw: Option<Verdict>,
}

/// What one shard counted over a run (merged fleet-wide for the
/// report).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct ExecStats {
    /// Micro-batches dispatched to a shard queue.
    pub batches: u64,
    /// Clips across those batches.
    pub clips: u64,
    /// Largest dispatched batch, in clips.
    pub max_batch: usize,
    /// Batches this shard executed out of another shard's queue.
    pub steals: u64,
}

impl ExecStats {
    /// Folds another shard's counters into this one.
    pub fn merge(&mut self, other: &ExecStats) {
        self.batches += other.batches;
        self.clips += other.clips;
        self.max_batch = self.max_batch.max(other.max_batch);
        self.steals += other.steals;
    }
}

/// A shard's warm compute state: local model replicas (materialized on
/// first use, keyed by checkpoint name) and the kernel scratch arena
/// the stacked forwards cycle through. This is exactly what a crashed
/// inference process would lose, so the chaos seam's `Die` action
/// drops it wholesale and the shard rebuilds on demand — base replicas
/// by re-cloning the shared scene models, promoted replicas by
/// re-resolving their checkpoints out of the store.
pub(crate) struct ShardCompute<'a> {
    shared: &'a HashMap<Weather, SlowFastLite>,
    store: ModelRegistry,
    local: HashMap<(Arc<str>, Precision), SlowFastLite>,
    scratch: KernelScratch,
}

impl<'a> ShardCompute<'a> {
    pub(crate) fn new(shared: &'a HashMap<Weather, SlowFastLite>, store: ModelRegistry) -> Self {
        ShardCompute {
            shared,
            store,
            local: HashMap::new(),
            scratch: KernelScratch::new(),
        }
    }

    /// Materializes the replica for `(name, precision)`, cloning the
    /// shared `weather` model as the architecture template, — for
    /// promoted checkpoints — loading the stored weights over it, and
    /// finally applying the precision contract: an int8 replica
    /// quantizes its weights *after* they are final, so its calibration
    /// matches the checkpoint it actually serves. Quantization is
    /// deterministic in the weight bits, so every shard's int8 replica
    /// of one checkpoint is bit-identical to every other's; these are
    /// the only int8 weights anywhere — none are stored. A promoted
    /// checkpoint is never evicted while some session can switch to it,
    /// so a batch for it finds it stored; should it be missing anyway,
    /// the replica deterministically falls back to the base scene
    /// weights. `None` only when `weather` has no shared model.
    fn ensure_replica(
        &mut self,
        name: &Arc<str>,
        weather: Weather,
        precision: Precision,
    ) -> Option<()> {
        let key = (Arc::clone(name), precision);
        if !self.local.contains_key(&key) {
            let mut model = self.shared.get(&weather)?.clone();
            if name.as_ref() != weather.label() {
                if let Some(state) = self.store.state_dict(name) {
                    model.load_state_dict(&state);
                }
            }
            model.set_precision(precision);
            self.local.insert(key, model);
        }
        Some(())
    }

    /// Classifies a micro-batch with one stacked forward
    /// ([`classify_stacked`]), returning one raw verdict per job in job
    /// order. The stacked batch and every intermediate cycle through
    /// the shard-owned scratch arena, so a warm shard only allocates
    /// the verdict vector it returns.
    pub(crate) fn classify(&mut self, batch: &Batch) -> Vec<Verdict> {
        debug_assert!(!batch.jobs.is_empty(), "empty batch dispatched");
        self.ensure_replica(&batch.model, batch.weather, batch.precision)
            .expect("dispatched batch has a shared scene model");
        let key = (Arc::clone(&batch.model), batch.precision);
        let model = self.local.get_mut(&key).expect("just materialized");
        let mut verdicts = Vec::with_capacity(batch.jobs.len());
        classify_stacked(
            model,
            batch.jobs.iter().map(|job| &job.clip),
            batch.weather,
            &mut self.scratch,
            |verdict| verdicts.push(verdict),
        );
        verdicts
    }

    /// Classifies one clip against the replica for `name` — the
    /// reference mode's in-line path. `None` when `weather` has no
    /// shared model.
    pub(crate) fn classify_single(
        &mut self,
        name: &Arc<str>,
        weather: Weather,
        precision: Precision,
        clip: &Tensor,
    ) -> Option<Verdict> {
        self.ensure_replica(name, weather, precision)?;
        let key = (Arc::clone(name), precision);
        let model = self.local.get_mut(&key).expect("just materialized");
        Some(classify_with_model(model, clip, weather, &mut self.scratch))
    }

    /// Simulates a worker crash: every piece of warm state dies and the
    /// respawned slot rebuilds it on demand.
    pub(crate) fn drop_warm_state(&mut self) {
        self.local = HashMap::new();
        self.scratch = KernelScratch::new();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use safecross_tensor::TensorRng;

    fn label(weather: Weather) -> Arc<str> {
        Arc::from(weather.label())
    }

    #[test]
    fn batched_forward_is_bit_identical() {
        let mut rng = TensorRng::seed_from(11);
        let mut model = SlowFastLite::new(2, &mut rng);
        let mut shared = HashMap::new();
        shared.insert(Weather::Rain, model.clone());
        let clips: Vec<Tensor> = (0..5)
            .map(|_| rng.uniform(&[1, 32, 20, 20], 0.0, 1.0))
            .collect();
        let mut scratch = KernelScratch::new();
        let singles: Vec<Verdict> = clips
            .iter()
            .map(|c| classify_with_model(&mut model, c, Weather::Rain, &mut scratch))
            .collect();
        let batch = Batch {
            weather: Weather::Rain,
            model: label(Weather::Rain),
            precision: Precision::F32,
            jobs: clips
                .into_iter()
                .enumerate()
                .map(|(i, clip)| ClipJob {
                    stream: i,
                    seq: i as u64,
                    weather: Weather::Rain,
                    model: label(Weather::Rain),
                    precision: Precision::F32,
                    clip,
                })
                .collect(),
        };
        let batched = ShardCompute::new(&shared, ModelRegistry::new()).classify(&batch);
        assert_eq!(batched, singles);
    }

    #[test]
    fn shard_compute_survives_warm_state_loss() {
        let mut rng = TensorRng::seed_from(12);
        let mut shared = HashMap::new();
        shared.insert(Weather::Snow, SlowFastLite::new(2, &mut rng));
        let clip = rng.uniform(&[1, 32, 20, 20], 0.0, 1.0);
        let batch = Batch {
            weather: Weather::Snow,
            model: label(Weather::Snow),
            precision: Precision::F32,
            jobs: vec![ClipJob {
                stream: 0,
                seq: 0,
                weather: Weather::Snow,
                model: label(Weather::Snow),
                precision: Precision::F32,
                clip,
            }],
        };
        let mut compute = ShardCompute::new(&shared, ModelRegistry::new());
        let warm = compute.classify(&batch);
        compute.drop_warm_state();
        let cold = compute.classify(&batch);
        assert_eq!(warm, cold, "a cold respawn must not change a verdict bit");
    }

    #[test]
    fn promoted_replicas_resolve_store_weights() {
        let mut rng = TensorRng::seed_from(13);
        let base = SlowFastLite::new(2, &mut rng);
        let mut adapted = base.clone();
        // Perturb one parameter so the adapted checkpoint really
        // differs, then park it in the store under a challenger name.
        if let Some(p) = adapted.params_mut().into_iter().next() {
            let bump = Tensor::full(p.value.dims(), 0.125);
            p.value.add_scaled(&bump, 1.0);
        }
        let store = ModelRegistry::new();
        store.register_model("rain#s0g1", &adapted.state_groups());

        let mut shared = HashMap::new();
        shared.insert(Weather::Rain, base);
        let clip = rng.uniform(&[1, 32, 20, 20], 0.0, 1.0);
        let job = |model: Arc<str>, precision: Precision| Batch {
            weather: Weather::Rain,
            model: Arc::clone(&model),
            precision,
            jobs: vec![ClipJob {
                stream: 0,
                seq: 0,
                weather: Weather::Rain,
                model,
                precision,
                clip: clip.clone(),
            }],
        };
        let mut compute = ShardCompute::new(&shared, store);
        for precision in [Precision::F32, Precision::Int8] {
            let base_v = compute.classify(&job(label(Weather::Rain), precision));
            let promoted_v = compute.classify(&job(Arc::from("rain#s0g1"), precision));

            // The challenger replica ran the stored (perturbed) weights —
            // at int8, quantized from them, not from the base weights the
            // replica was cloned with.
            let mut direct_model = adapted.clone();
            direct_model.set_precision(precision);
            let mut direct_scratch = KernelScratch::new();
            let direct =
                classify_with_model(&mut direct_model, &clip, Weather::Rain, &mut direct_scratch);
            assert_eq!(promoted_v[0], direct, "{precision:?}");
            assert_ne!(
                base_v[0].confidence.to_bits(),
                promoted_v[0].confidence.to_bits(),
                "{precision:?}: perturbed checkpoint produced the base confidence — \
                 store weights not loaded before the replica was calibrated"
            );

            // An evicted challenger falls back to the base scene weights.
            let missing = compute.classify(&job(Arc::from("rain#s0g9"), precision));
            assert_eq!(missing[0], base_v[0], "{precision:?}");
        }
    }

    #[test]
    fn int8_replica_is_keyed_separately_and_tracks_f32() {
        let mut rng = TensorRng::seed_from(14);
        let mut shared = HashMap::new();
        shared.insert(Weather::Daytime, SlowFastLite::new(2, &mut rng));
        let clip = rng.uniform(&[1, 32, 20, 20], 0.0, 1.0);
        let batch = |precision: Precision| Batch {
            weather: Weather::Daytime,
            model: label(Weather::Daytime),
            precision,
            jobs: vec![ClipJob {
                stream: 0,
                seq: 0,
                weather: Weather::Daytime,
                model: label(Weather::Daytime),
                precision,
                clip: clip.clone(),
            }],
        };
        let mut compute = ShardCompute::new(&shared, ModelRegistry::new());
        let f32_v = compute.classify(&batch(Precision::F32));
        let int8_v = compute.classify(&batch(Precision::Int8));
        // Two replicas now exist — the precisions never share one.
        assert_eq!(compute.local.len(), 2);
        // Quantization perturbs the logits, not the contract: both
        // verdicts carry the same weather and a sane confidence.
        assert_eq!(int8_v[0].weather, f32_v[0].weather);
        assert!(int8_v[0].confidence > 0.0 && int8_v[0].confidence <= 1.0);
        // The int8 replica is itself deterministic: re-running the
        // batch (warm) and after a crash (cold) produces the same bits.
        let warm = compute.classify(&batch(Precision::Int8));
        compute.drop_warm_state();
        let cold = compute.classify(&batch(Precision::Int8));
        assert_eq!(warm, int8_v);
        assert_eq!(cold, int8_v);
    }
}
