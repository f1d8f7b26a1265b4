//! Shard-local inference.
//!
//! Each shard owns a [`ShardCompute`]: lazily-materialized model
//! replicas plus a kernel scratch arena — the warm state a dedicated
//! inference worker used to carry, now embedded in the shard loop.
//! A queue entry ([`Batch`]) is only a unit of dispatch and stealing:
//! its clips may belong to any streams, checkpoints and precisions, and
//! each one runs alone through [`classify_with_model`] on the shard's
//! replica of its own (checkpoint, precision).
//!
//! Replicas are keyed by checkpoint name, not weather: a stream whose
//! scene was rebound to a promoted challenger
//! (see [`crate::LearnHook`]) runs the challenger's replica, whose
//! weights are resolved out of the fleet's shared [`ModelRegistry`].
//! Streams still on the base scene checkpoints key by the weather
//! label.
//!
//! The numeric contract: a clip's verdict is a function of the clip
//! and its job's (weather, checkpoint, precision) alone — it never
//! depends on which clips share its queue entry or which shard executed
//! it (replicas share the stored weights bit-for-bit).
//! `mixed_company_matches_fresh_replicas` below pins that down, and the
//! serve equivalence tests lean on it.

use safecross::{classify_with_model, Verdict};
use safecross_modelswitch::ModelRegistry;
use safecross_tensor::{KernelScratch, Precision, Tensor};
use safecross_trafficsim::Weather;
use safecross_videoclass::{SlowFastLite, VideoClassifier};
use std::collections::HashMap;
use std::sync::Arc;

/// One clip awaiting classification. It carries everything its forward
/// needs, so it may ride in any queue entry and run on any shard.
pub(crate) struct ClipJob {
    pub stream: usize,
    pub seq: u64,
    pub weather: Weather,
    /// Checkpoint the owning session has bound for `weather` — the
    /// weather label unless a challenger was promoted on that stream.
    pub model: Arc<str>,
    /// The precision the owning stream was opened at: the job runs on
    /// the replica of `model` at this precision, so each stream's
    /// verdicts are a pure function of its own precision contract.
    pub precision: Precision,
    pub clip: Tensor,
}

/// One queue entry: up to [`ServeConfig::batch_max`] clips one shard
/// dispatched together, executed (and stolen) as a unit.
///
/// [`ServeConfig::batch_max`]: crate::ServeConfig::batch_max
pub(crate) type Batch = Vec<ClipJob>;

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
    /// Queue entries dispatched to a shard queue.
    pub batches: u64,
    /// Clips across those entries.
    pub clips: u64,
    /// Largest dispatched entry, in clips.
    pub max_batch: usize,
    /// Entries this shard executed out of another shard's queue.
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
/// its forwards cycle through. This is exactly what a crashed
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
    /// so a job for it finds it stored; should it be missing anyway,
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

    /// Classifies every job of a queue entry on its own replica,
    /// returning one raw verdict per job in job order.
    pub(crate) fn classify(&mut self, batch: &[ClipJob]) -> Vec<Verdict> {
        debug_assert!(!batch.is_empty(), "empty batch dispatched");
        batch
            .iter()
            .map(|job| {
                self.classify_single(&job.model, job.weather, job.precision, &job.clip)
                    .expect("dispatched job has a shared scene model")
            })
            .collect()
    }

    /// Classifies one clip against the replica for `(name, precision)`
    /// — the reference mode's in-line path, and [`Self::classify`]'s
    /// per-job call. `None` when `weather` has no shared model.
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

    fn job(weather: Weather, model: Arc<str>, precision: Precision, clip: Tensor) -> ClipJob {
        ClipJob {
            stream: 0,
            seq: 0,
            weather,
            model,
            precision,
            clip,
        }
    }

    /// `model` with its first parameter shifted, so a checkpoint saved
    /// from it really differs from the one it was cloned from.
    fn perturbed(model: &SlowFastLite) -> SlowFastLite {
        let mut adapted = model.clone();
        if let Some(p) = adapted.params_mut().into_iter().next() {
            let bump = Tensor::full(p.value.dims(), 0.125);
            p.value.add_scaled(&bump, 1.0);
        }
        adapted
    }

    #[test]
    fn mixed_company_matches_fresh_replicas() {
        let mut rng = TensorRng::seed_from(11);
        let base = SlowFastLite::new(2, &mut rng);
        let challenger = perturbed(&base);
        let store = ModelRegistry::new();
        store.register_model("rain#s0g1", &challenger.state_groups());
        let mut shared = HashMap::new();
        shared.insert(Weather::Rain, base.clone());
        let clips: Vec<Tensor> = (0..3)
            .map(|_| rng.uniform(&[1, 32, 20, 20], 0.0, 1.0))
            .collect();

        // An f32 base job, an int8 job on the same checkpoint and a
        // promoted challenger's job share one queue entry.
        let company = [
            (label(Weather::Rain), Precision::F32, &base),
            (label(Weather::Rain), Precision::Int8, &base),
            (Arc::from("rain#s0g1"), Precision::F32, &challenger),
        ];
        let batch: Batch = company
            .iter()
            .zip(&clips)
            .map(|((name, precision, _), clip)| {
                job(Weather::Rain, Arc::clone(name), *precision, clip.clone())
            })
            .collect();
        let verdicts = ShardCompute::new(&shared, store).classify(&batch);

        for (((_, precision, weights), clip), verdict) in company.iter().zip(&clips).zip(verdicts) {
            let mut replica = (*weights).clone();
            replica.set_precision(*precision);
            let alone =
                classify_with_model(&mut replica, clip, Weather::Rain, &mut KernelScratch::new());
            assert_eq!(verdict.class, alone.class, "{precision:?}");
            assert_eq!(
                verdict.confidence.to_bits(),
                alone.confidence.to_bits(),
                "{precision:?}: a job's verdict moved with its company"
            );
            assert_eq!(verdict.weather, alone.weather);
        }
    }

    #[test]
    fn shard_compute_survives_warm_state_loss() {
        let mut rng = TensorRng::seed_from(12);
        let mut shared = HashMap::new();
        shared.insert(Weather::Snow, SlowFastLite::new(2, &mut rng));
        let clip = rng.uniform(&[1, 32, 20, 20], 0.0, 1.0);
        let batch = vec![job(
            Weather::Snow,
            label(Weather::Snow),
            Precision::F32,
            clip,
        )];
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
        // Park a really different checkpoint in the store under a
        // challenger name.
        let adapted = perturbed(&base);
        let store = ModelRegistry::new();
        store.register_model("rain#s0g1", &adapted.state_groups());

        let mut shared = HashMap::new();
        shared.insert(Weather::Rain, base);
        let clip = rng.uniform(&[1, 32, 20, 20], 0.0, 1.0);
        let one = |model: Arc<str>, precision: Precision| {
            vec![job(Weather::Rain, model, precision, clip.clone())]
        };
        let mut compute = ShardCompute::new(&shared, store);
        for precision in [Precision::F32, Precision::Int8] {
            let base_v = compute.classify(&one(label(Weather::Rain), precision));
            let promoted_v = compute.classify(&one(Arc::from("rain#s0g1"), precision));

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
            let missing = compute.classify(&one(Arc::from("rain#s0g9"), precision));
            assert_eq!(missing[0], base_v[0], "{precision:?}");
        }
    }

    #[test]
    fn int8_replica_is_keyed_separately_and_tracks_f32() {
        let mut rng = TensorRng::seed_from(14);
        let mut shared = HashMap::new();
        shared.insert(Weather::Daytime, SlowFastLite::new(2, &mut rng));
        let clip = rng.uniform(&[1, 32, 20, 20], 0.0, 1.0);
        let batch = |precision: Precision| {
            vec![job(
                Weather::Daytime,
                label(Weather::Daytime),
                precision,
                clip.clone(),
            )]
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
        // job (warm) and after a crash (cold) produces the same bits.
        let warm = compute.classify(&batch(Precision::Int8));
        compute.drop_warm_state();
        let cold = compute.classify(&batch(Precision::Int8));
        assert_eq!(warm, int8_v);
        assert_eq!(cold, int8_v);
    }
}
