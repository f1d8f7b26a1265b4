//! End-to-end experiment harnesses regenerating the paper's evaluation.
//!
//! One function per table/figure of Sec. V, each returning a typed report
//! whose `Display` implementation prints the same rows the paper
//! tabulates. `examples/paper_tables.rs` calls these at the default
//! scale to regenerate `EXPERIMENTS.md`; the other runnable examples
//! call them at smoke scale.
//!
//! Every harness takes an [`ExperimentConfig`] so tests can run scaled-
//! down versions of the same code path the full-scale run exercises.

use crate::framework::{SafeCross, SafeCrossConfig};
use crate::throughput::{throughput_study, ThroughputReport};
use safecross_dataset::{Dataset, DatasetSpec, SegmentGenerator};
use safecross_fewshot::train_from_scratch;
use safecross_telemetry::Snapshot;
use safecross_tensor::TensorRng;
use safecross_trafficsim::Weather;
use safecross_videoclass::{
    evaluate, train, C3dLite, EvalReport, SlowFastLite, TrainConfig, TsnLite,
};
use std::collections::HashMap;
use std::fmt;

/// Shared experiment knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExperimentConfig {
    /// Dataset size as a fraction of the paper's Table I counts.
    pub dataset_factor: f64,
    /// Training epochs for from-scratch models.
    pub epochs: usize,
    /// Few-shot support shots per class (K-sweep ablations).
    pub k_shot: usize,
    /// Inner-loop adaptation steps (K-shot ablations).
    pub adapt_steps: usize,
    /// Fine-tuning epochs when adapting the daytime model to a scarce
    /// scene's training pool (the paper's FL recipe).
    pub finetune_epochs: usize,
    /// Master seed.
    pub seed: u64,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        ExperimentConfig {
            dataset_factor: 0.10,
            epochs: 10,
            k_shot: 2,
            adapt_steps: 12,
            finetune_epochs: 8,
            seed: 2022,
        }
    }
}

impl ExperimentConfig {
    /// A drastically reduced configuration for unit tests.
    pub fn smoke_test() -> Self {
        ExperimentConfig {
            dataset_factor: 0.016,
            epochs: 2,
            k_shot: 2,
            adapt_steps: 2,
            finetune_epochs: 1,
            seed: 7,
        }
    }

    fn spec(&self) -> DatasetSpec {
        DatasetSpec::paper_scaled(self.dataset_factor)
    }
}

/// Experiment E1 (Table I): generate the dataset and report its
/// statistics.
pub fn table1_dataset(cfg: &ExperimentConfig) -> Dataset {
    SegmentGenerator::new(cfg.seed).generate_dataset(&cfg.spec())
}

/// One row of Table III.
#[derive(Debug, Clone, PartialEq)]
pub struct SceneAccuracyRow {
    /// Weather scene.
    pub scene: Weather,
    /// Top-1 accuracy on the scene's held-out segments.
    pub top1: f32,
    /// Mean per-class accuracy.
    pub mean_class: f32,
    /// Held-out sample count.
    pub test_samples: usize,
}

/// Results of E3: Table III plus the trained per-scene models, which
/// downstream experiments (throughput, model switching) reuse.
pub struct SceneAccuracyResult {
    /// Table III rows in paper order (daytime, snow, rain).
    pub rows: Vec<SceneAccuracyRow>,
    /// The per-scene models (daytime trained from scratch; rain/snow
    /// few-shot adapted from daytime).
    pub models: HashMap<Weather, SlowFastLite>,
    /// Held-out test indices per scene.
    pub test_indices: HashMap<Weather, Vec<usize>>,
}

impl fmt::Display for SceneAccuracyResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Types      Top1_acc   Mean_class_acc   (n)")?;
        for row in &self.rows {
            writeln!(
                f,
                "{:<10} {:<10.4} {:<16.4} {}",
                row.scene, row.top1, row.mean_class, row.test_samples
            )?;
        }
        Ok(())
    }
}

/// Experiment E3 (Table III): per-scene classification accuracy with the
/// paper's training recipe — daytime from scratch on the 8:1:1 split,
/// rain and snow few-shot adapted from the daytime model.
pub fn table3_scene_accuracy(data: &Dataset, cfg: &ExperimentConfig) -> SceneAccuracyResult {
    let mut rng = TensorRng::seed_from(cfg.seed);
    let mut models = HashMap::new();
    let mut test_indices = HashMap::new();
    let mut rows = Vec::new();

    // Daytime: from-scratch training on the 8:1:1 split.
    let day_idx = data.indices_of_weather(Weather::Daytime);
    let day_split = data.split_indices(&day_idx, &mut rng);
    let mut daytime = SlowFastLite::new(2, &mut rng);
    train(
        &mut daytime,
        data,
        &day_split.train,
        &TrainConfig {
            epochs: cfg.epochs,
            seed: cfg.seed,
            ..TrainConfig::default()
        },
    );
    let day_eval = evaluate(&mut daytime, data, &day_split.test);
    rows.push(SceneAccuracyRow {
        scene: Weather::Daytime,
        top1: day_eval.top1,
        mean_class: day_eval.mean_class,
        test_samples: day_eval.samples,
    });
    test_indices.insert(Weather::Daytime, day_split.test.clone());

    // Snow then rain (paper row order): few-shot adaptation.
    for weather in [Weather::Snow, Weather::Rain] {
        let (model, eval, test) = adapt_scene(&daytime, data, weather, cfg, &mut rng);
        rows.push(SceneAccuracyRow {
            scene: weather,
            top1: eval.top1,
            mean_class: eval.mean_class,
            test_samples: eval.samples,
        });
        test_indices.insert(weather, test);
        models.insert(weather, model);
    }
    models.insert(Weather::Daytime, daytime);
    SceneAccuracyResult {
        rows,
        models,
        test_indices,
    }
}

/// Splits a scene's indices into a 75/25 train/test partition, fine-tunes
/// the pretrained daytime model on the training pool (the paper's FL
/// recipe: small data, few epochs, reduced learning rate), and evaluates
/// on the held-out quarter.
fn adapt_scene(
    pretrained: &SlowFastLite,
    data: &Dataset,
    weather: Weather,
    cfg: &ExperimentConfig,
    rng: &mut TensorRng,
) -> (SlowFastLite, EvalReport, Vec<usize>) {
    // Scarce scenes get 3-fold repetition so the reported accuracy is not
    // hostage to one tiny split (the paper's rain test is just as small).
    let folds = if data.indices_of_weather(weather).len() < 40 {
        3
    } else {
        1
    };
    let mut reports = Vec::with_capacity(folds);
    let mut last = None;
    for _ in 0..folds {
        let (train_pool, test) = scene_split(data, weather, rng);
        let mut model = finetune(pretrained, data, &train_pool, cfg);
        let eval = evaluate(&mut model, data, &test);
        reports.push(eval);
        last = Some((model, test));
    }
    let (model, test) = last.expect("at least one fold");
    let samples: usize = reports.iter().map(|r| r.samples).sum();
    let mean = |f: fn(&EvalReport) -> f32| {
        reports.iter().map(|r| f(r) * r.samples as f32).sum::<f32>() / samples as f32
    };
    let eval = EvalReport {
        top1: mean(|r| r.top1),
        mean_class: mean(|r| r.mean_class),
        confusion: reports.last().expect("non-empty").confusion,
        samples,
    };
    (model, eval, test)
}

/// 75/25 train/test partition of one scene's segments.
///
/// # Panics
///
/// Panics if the scene has fewer than 4 segments.
pub fn scene_split(
    data: &Dataset,
    weather: Weather,
    rng: &mut TensorRng,
) -> (Vec<usize>, Vec<usize>) {
    let mut idx = data.indices_of_weather(weather);
    assert!(idx.len() >= 4, "{weather}: need at least 4 segments");
    rng.shuffle(&mut idx);
    let n_test = (idx.len() / 4).max(1);
    let test = idx[..n_test].to_vec();
    let train = idx[n_test..].to_vec();
    (train, test)
}

/// The FL module's transfer recipe: clone the daytime model and
/// fine-tune briefly at a reduced learning rate.
pub fn finetune(
    pretrained: &SlowFastLite,
    data: &Dataset,
    train_pool: &[usize],
    cfg: &ExperimentConfig,
) -> SlowFastLite {
    let mut model = pretrained.clone();
    train(
        &mut model,
        data,
        train_pool,
        &TrainConfig {
            epochs: cfg.finetune_epochs,
            lr: 0.02,
            seed: cfg.seed + 17,
            ..TrainConfig::default()
        },
    );
    model
}

/// Shots per class for a scene: proportional to how much labelled data
/// the scene has (the paper's snow set is ~25x larger than rain), capped
/// at 4x the configured base shot count.
pub fn scene_shots(data: &Dataset, weather: Weather, cfg: &ExperimentConfig) -> usize {
    use safecross_dataset::Class;
    let idx = data.indices_of_weather(weather);
    let per_class = idx
        .iter()
        .filter(|&&i| data.get(i).label.class == Class::Danger)
        .count()
        .min(
            idx.iter()
                .filter(|&&i| data.get(i).label.class == Class::Safe)
                .count(),
        );
    (per_class / 3).clamp(
        cfg.k_shot.min(per_class.saturating_sub(1)).max(1),
        cfg.k_shot * 4,
    )
}

/// Balanced `k`-shot support selection; everything else becomes test.
///
/// # Panics
///
/// Panics if either class has fewer than `k + 1` segments in the scene.
pub fn fewshot_split(
    data: &Dataset,
    weather: Weather,
    k: usize,
    rng: &mut TensorRng,
) -> (Vec<usize>, Vec<usize>) {
    use safecross_dataset::Class;
    let idx = data.indices_of_weather(weather);
    let mut danger: Vec<usize> = idx
        .iter()
        .copied()
        .filter(|&i| data.get(i).label.class == Class::Danger)
        .collect();
    let mut safe: Vec<usize> = idx
        .iter()
        .copied()
        .filter(|&i| data.get(i).label.class == Class::Safe)
        .collect();
    assert!(
        danger.len() > k && safe.len() > k,
        "{weather}: need more than {k} segments per class (danger {}, safe {})",
        danger.len(),
        safe.len()
    );
    rng.shuffle(&mut danger);
    rng.shuffle(&mut safe);
    let mut support: Vec<usize> = danger[..k].to_vec();
    support.extend(&safe[..k]);
    let mut test: Vec<usize> = danger[k..].to_vec();
    test.extend(&safe[k..]);
    (support, test)
}

/// One row of Table IV.
#[derive(Debug, Clone, PartialEq)]
pub struct ArchitectureRow {
    /// Model configuration name.
    pub model: &'static str,
    /// Top-1 accuracy on the daytime test split.
    pub top1: f32,
    /// Mean per-class accuracy.
    pub mean_class: f32,
}

/// Results of E4 (Table IV).
pub struct ArchitectureResult {
    /// Rows in the paper's order: SlowFast, C3D, TSN.
    pub rows: Vec<ArchitectureRow>,
}

impl fmt::Display for ArchitectureResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Models                      Top1_acc   Mean_class_acc")?;
        for row in &self.rows {
            writeln!(
                f,
                "{:<27} {:<10.4} {:.4}",
                row.model, row.top1, row.mean_class
            )?;
        }
        Ok(())
    }
}

/// Experiment E4 (Table IV): SlowFast vs C3D vs TSN, trained on the
/// daytime 8:1:1 train split and evaluated on the held-out split *plus*
/// a freshly generated daytime evaluation set — the scaled-down dataset
/// needs the larger n to resolve the architectures' true error rates.
pub fn table4_architectures(data: &Dataset, cfg: &ExperimentConfig) -> ArchitectureResult {
    let mut rng = TensorRng::seed_from(cfg.seed);
    let day_idx = data.indices_of_weather(Weather::Daytime);
    let split = data.split_indices(&day_idx, &mut rng);
    let tc = TrainConfig {
        epochs: cfg.epochs,
        seed: cfg.seed,
        ..TrainConfig::default()
    };

    // Fresh evaluation segments from an independent generator seed.
    let extra_n = (day_idx.len() / 2).clamp(8, 80);
    let mut eval_data: Dataset = data
        .iter()
        .enumerate()
        .filter(|(i, _)| split.test.contains(i))
        .map(|(_, seg)| seg.clone())
        .collect();
    let mut fresh_gen = SegmentGenerator::new(cfg.seed + 31);
    let spec = cfg.spec();
    for i in 0..extra_n {
        let blind = i % 2 == 0;
        let want_danger = (i / 2) % 2 == 0;
        eval_data.push(fresh_gen.generate(Weather::Daytime, blind, want_danger, &spec));
    }
    let eval_idx: Vec<usize> = (0..eval_data.len()).collect();

    let mut rows = Vec::new();
    let mut slowfast = SlowFastLite::new(2, &mut rng);
    train(&mut slowfast, data, &split.train, &tc);
    let e = evaluate(&mut slowfast, &eval_data, &eval_idx);
    rows.push(ArchitectureRow {
        model: "slowfast_r50_4x16x1_256e",
        top1: e.top1,
        mean_class: e.mean_class,
    });

    let mut c3d = C3dLite::new(2, &mut rng);
    train(&mut c3d, data, &split.train, &tc);
    let e = evaluate(&mut c3d, &eval_data, &eval_idx);
    rows.push(ArchitectureRow {
        model: "c3d_sports1m_16x1x1_45e",
        top1: e.top1,
        mean_class: e.mean_class,
    });

    let mut tsn = TsnLite::new(2, &mut rng);
    train(&mut tsn, data, &split.train, &tc);
    let e = evaluate(&mut tsn, &eval_data, &eval_idx);
    rows.push(ArchitectureRow {
        model: "tsn_r50_1x1x3_75e",
        top1: e.top1,
        mean_class: e.mean_class,
    });

    ArchitectureResult { rows }
}

/// One row of Table V.
#[derive(Debug, Clone, PartialEq)]
pub struct FewshotRow {
    /// Scene and arm description (e.g. "snow with few shot learning").
    pub experiment: String,
    /// Top-1 accuracy.
    pub top1: f32,
    /// Mean per-class accuracy.
    pub mean_class: f32,
}

/// Results of E5 (Table V).
pub struct FewshotResult {
    /// Four rows: snow/rain x with/without few-shot learning.
    pub rows: Vec<FewshotRow>,
}

impl fmt::Display for FewshotResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Experiments                        Top1_acc   Mean_class_acc"
        )?;
        for row in &self.rows {
            writeln!(
                f,
                "{:<34} {:<10.4} {:.4}",
                row.experiment, row.top1, row.mean_class
            )?;
        }
        Ok(())
    }
}

/// Experiment E5 (Table V): the few-shot ablation. For each scarce scene
/// the same support/test split is used by both arms; "with few-shot"
/// adapts the daytime-pretrained model, "without" trains from scratch on
/// the support set alone.
pub fn table5_fewshot(
    data: &Dataset,
    daytime: &SlowFastLite,
    cfg: &ExperimentConfig,
) -> FewshotResult {
    let mut rng = TensorRng::seed_from(cfg.seed + 1);
    let mut rows = Vec::new();
    for weather in [Weather::Snow, Weather::Rain] {
        // Both arms share the same train/test partition of the scene.
        let (train_pool, test) = scene_split(data, weather, &mut rng);

        let mut adapted = finetune(daytime, data, &train_pool, cfg);
        let with_fs = evaluate(&mut adapted, data, &test);
        rows.push(FewshotRow {
            experiment: format!("{weather} with few shot learning"),
            top1: with_fs.top1,
            mean_class: with_fs.mean_class,
        });

        let fresh = SlowFastLite::new(2, &mut rng);
        let mut scratch = train_from_scratch(fresh, data, &train_pool, cfg.epochs, 0.05, cfg.seed);
        let without_fs = evaluate(&mut scratch, data, &test);
        rows.push(FewshotRow {
            experiment: format!("{weather} without few shot learning"),
            top1: without_fs.top1,
            mean_class: without_fs.mean_class,
        });
    }
    FewshotResult { rows }
}

/// Experiment E7 (Sec. V-D): build the blind-zone test set (the paper's
/// 63 segments: 32 safe, 31 danger), classify with the scene models, and
/// tally the throughput gain.
pub fn table7_throughput(
    models: &HashMap<Weather, SlowFastLite>,
    cfg: &ExperimentConfig,
) -> ThroughputReport {
    let test_set = blind_zone_test_set(cfg);
    let mut system = system_with(models, false);
    let all: Vec<usize> = (0..test_set.len()).collect();
    throughput_study(&mut system, &test_set, &all)
        .expect("harness registers a model for every test-set scene")
}

/// Experiment E7 with telemetry enabled: the same study, returning the
/// registry [`Snapshot`] alongside the report so `paper_tables` and
/// downstream tooling can export per-stage latency distributions and
/// switch events next to the throughput numbers.
pub fn table7_throughput_instrumented(
    models: &HashMap<Weather, SlowFastLite>,
    cfg: &ExperimentConfig,
) -> (ThroughputReport, Snapshot) {
    let test_set = blind_zone_test_set(cfg);
    let mut system = system_with(models, true);
    let all: Vec<usize> = (0..test_set.len()).collect();
    let report = throughput_study(&mut system, &test_set, &all)
        .expect("harness registers a model for every test-set scene");
    (report, system.telemetry().snapshot())
}

fn system_with(models: &HashMap<Weather, SlowFastLite>, telemetry: bool) -> SafeCross {
    let config = SafeCrossConfig::builder()
        .telemetry(telemetry)
        .build()
        .expect("default experiment configuration is valid");
    let mut system = SafeCross::try_new(config).expect("validated configuration");
    // Sorted registration keeps the switch log and fallback order stable
    // regardless of HashMap iteration order.
    let mut entries: Vec<_> = models.iter().collect();
    entries.sort_by_key(|(w, _)| w.label());
    for (weather, model) in entries {
        system.register_model(*weather, model.clone());
    }
    system
}

/// The dedicated blind-zone test set (the paper's 63 segments), built
/// with a fresh seed so it is disjoint from training data.
fn blind_zone_test_set(cfg: &ExperimentConfig) -> Dataset {
    let spec = cfg.spec();
    let mut generator = SegmentGenerator::new(cfg.seed + 99);
    let mut segments = Vec::with_capacity(63);
    // The paper's mix: segments from all three scenes' footage. Weight
    // towards daytime like the underlying 10 h of video.
    let plan: [(Weather, usize, usize); 3] = [
        (Weather::Daytime, 22, 21),
        (Weather::Snow, 6, 6),
        (Weather::Rain, 4, 4),
    ];
    // The paper's Sec. V-D classes are presence/absence of a car in the
    // blind zone — unambiguous situations, not near-boundary gaps — so
    // the test set is generated with a wide scripting margin.
    for (weather, n_safe, n_danger) in plan {
        for _ in 0..n_safe {
            segments.push(generator.generate_with_margin(weather, true, false, &spec, 1.2));
        }
        for _ in 0..n_danger {
            segments.push(generator.generate_with_margin(weather, true, true, &spec, 1.2));
        }
    }
    Dataset::new(segments)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One smoke-test pass through every harness; the full-scale run
    /// is `examples/paper_tables.rs`.
    #[test]
    fn all_experiments_run_end_to_end_at_smoke_scale() {
        let cfg = ExperimentConfig::smoke_test();
        let data = table1_dataset(&cfg);
        assert!(data.len() >= 24);
        let stats = data.stats();
        assert!(stats.daytime.0 >= stats.rain.0);

        let scene = table3_scene_accuracy(&data, &cfg);
        assert_eq!(scene.rows.len(), 3);
        assert_eq!(scene.rows[0].scene, Weather::Daytime);
        assert!(scene.models.contains_key(&Weather::Rain));
        assert!(!format!("{scene}").is_empty());

        let fewshot = table5_fewshot(&data, &scene.models[&Weather::Daytime], &cfg);
        assert_eq!(fewshot.rows.len(), 4);
        assert!(fewshot.rows[0].experiment.contains("snow"));

        let throughput = table7_throughput(&scene.models, &cfg);
        assert_eq!(throughput.segments, 63);
        assert!(!format!("{throughput}").is_empty());
    }

    #[test]
    fn architecture_comparison_runs_at_smoke_scale() {
        let cfg = ExperimentConfig::smoke_test();
        let data = table1_dataset(&cfg);
        let arch = table4_architectures(&data, &cfg);
        assert_eq!(arch.rows.len(), 3);
        assert!(arch.rows.iter().all(|r| (0.0..=1.0).contains(&r.top1)));
        let table = format!("{arch}");
        assert!(table.contains("slowfast"));
        assert!(table.contains("tsn"));
    }

    #[test]
    fn scene_split_partitions_without_overlap() {
        let cfg = ExperimentConfig::smoke_test();
        let data = table1_dataset(&cfg);
        let mut rng = TensorRng::seed_from(1);
        let (train, test) = scene_split(&data, Weather::Snow, &mut rng);
        let snow = data.indices_of_weather(Weather::Snow);
        assert_eq!(train.len() + test.len(), snow.len());
        for t in &test {
            assert!(!train.contains(t));
            assert!(snow.contains(t));
        }
        // Roughly a quarter held out.
        assert!(test.len() >= snow.len() / 5);
    }

    #[test]
    fn scene_shots_scale_with_data_volume() {
        let cfg = ExperimentConfig::default();
        let data = table1_dataset(&ExperimentConfig {
            dataset_factor: 0.05,
            ..ExperimentConfig::smoke_test()
        });
        let rain_k = scene_shots(&data, Weather::Rain, &cfg);
        let snow_k = scene_shots(&data, Weather::Snow, &cfg);
        assert!(snow_k >= rain_k, "snow {snow_k} < rain {rain_k}");
        assert!(rain_k >= 1);
        assert!(snow_k <= cfg.k_shot * 4);
    }

    #[test]
    fn throughput_test_set_is_the_papers_63() {
        // Structure only (no training): the generated blind-zone test set
        // always holds 63 segments with the paper's 32/31 split intent.
        let cfg = ExperimentConfig::smoke_test();
        let mut models = HashMap::new();
        let mut rng = TensorRng::seed_from(0);
        models.insert(Weather::Daytime, SlowFastLite::new(2, &mut rng));
        models.insert(Weather::Rain, SlowFastLite::new(2, &mut rng));
        models.insert(Weather::Snow, SlowFastLite::new(2, &mut rng));
        let report = table7_throughput(&models, &cfg);
        assert_eq!(report.segments, 63);
        assert_eq!(report.truth_safe + report.truth_danger, 63);
        // Clear-margin scripting keeps the intended 32/31 split within a
        // segment or two.
        assert!((report.truth_safe as i64 - 32).abs() <= 2, "{report:?}");
        // The instrumented study sees the same segments and exports a
        // snapshot covering every clip it classified: one forward pass
        // per blind-zone segment.
        let (timed_report, snapshot) = table7_throughput_instrumented(&models, &cfg);
        assert_eq!(timed_report, report);
        assert_eq!(snapshot.counter("vc.slowfast.forwards"), Some(63));
        let forward_ms = snapshot
            .histogram("vc.slowfast.forward_ms")
            .expect("instrumented models time every forward");
        assert_eq!(forward_ms.count, 63);
    }

    #[test]
    fn fewshot_split_is_balanced_and_disjoint() {
        let cfg = ExperimentConfig::smoke_test();
        let data = table1_dataset(&cfg);
        let mut rng = TensorRng::seed_from(0);
        let (support, test) = fewshot_split(&data, Weather::Snow, 2, &mut rng);
        assert_eq!(support.len(), 4);
        for i in &support {
            assert!(!test.contains(i));
        }
        // Support is class-balanced.
        use safecross_dataset::Class;
        let danger = support
            .iter()
            .filter(|&&i| data.get(i).label.class == Class::Danger)
            .count();
        assert_eq!(danger, 2);
    }
}
