//! Training loop and evaluation metrics.

use crate::model::VideoClassifier;
use safecross_dataset::Dataset;
use safecross_nn::{
    accuracy, clip_grad_norm, mean_class_accuracy, softmax_cross_entropy, Mode, Optimizer, Sgd,
};
use safecross_tensor::{Tensor, TensorRng};
use std::fmt;

/// Hyper-parameters for [`train`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainConfig {
    /// Passes over the training set.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// SGD learning rate.
    pub lr: f32,
    /// SGD momentum.
    pub momentum: f32,
    /// Global gradient-norm clip.
    pub clip_norm: f32,
    /// Shuffling seed.
    pub seed: u64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 10,
            batch_size: 8,
            lr: 0.05,
            momentum: 0.9,
            clip_norm: 5.0,
            seed: 0,
        }
    }
}

/// Per-epoch training telemetry.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TrainReport {
    /// Mean loss per epoch.
    pub epoch_losses: Vec<f32>,
}

impl TrainReport {
    /// Loss of the final epoch.
    pub fn final_loss(&self) -> f32 {
        self.epoch_losses.last().copied().unwrap_or(f32::NAN)
    }

    /// Whether the loss decreased from first to last epoch.
    pub fn improved(&self) -> bool {
        match (self.epoch_losses.first(), self.epoch_losses.last()) {
            (Some(a), Some(b)) => b < a,
            _ => false,
        }
    }
}

/// Classification quality on a held-out set — the paper's two headline
/// metrics plus the confusion matrix they derive from.
#[derive(Debug, Clone, PartialEq)]
pub struct EvalReport {
    /// Top-1 accuracy.
    pub top1: f32,
    /// Mean per-class accuracy (`Mean_class_acc`).
    pub mean_class: f32,
    /// `confusion[truth][pred]` counts.
    pub confusion: [[usize; 2]; 2],
    /// Evaluated sample count.
    pub samples: usize,
}

impl fmt::Display for EvalReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "top1 {:.4}  mean_class {:.4}  (n={})",
            self.top1, self.mean_class, self.samples
        )
    }
}

/// Trains `model` on the given dataset indices.
///
/// # Panics
///
/// Panics if `indices` is empty.
pub fn train(
    model: &mut dyn VideoClassifier,
    data: &Dataset,
    indices: &[usize],
    cfg: &TrainConfig,
) -> TrainReport {
    assert!(!indices.is_empty(), "cannot train on an empty index set");
    let mut rng = TensorRng::seed_from(cfg.seed);
    let mut order: Vec<usize> = indices.to_vec();
    let mut opt = Sgd::with_momentum(cfg.lr, cfg.momentum);
    let mut report = TrainReport::default();
    for _epoch in 0..cfg.epochs {
        rng.shuffle(&mut order);
        let mut epoch_loss = 0.0;
        let mut batches = 0;
        for chunk in order.chunks(cfg.batch_size) {
            let (x, y) = data.batch(chunk);
            let logits = model.forward(&x, Mode::Train);
            let (loss, grad) = softmax_cross_entropy(&logits, &y);
            model.backward(&grad);
            clip_grad_norm(&mut model.params_mut(), cfg.clip_norm);
            opt.step(&mut model.params_mut());
            epoch_loss += loss;
            batches += 1;
        }
        report.epoch_losses.push(epoch_loss / batches as f32);
    }
    report
}

/// Trains on pre-assembled `(clips, labels)` batches — used by the
/// few-shot module, which builds episodes rather than index sets.
pub fn train_batches(
    model: &mut dyn VideoClassifier,
    batches: &[(Tensor, Vec<usize>)],
    epochs: usize,
    lr: f32,
) -> TrainReport {
    let mut opt = Sgd::with_momentum(lr, 0.9);
    let mut report = TrainReport::default();
    for _ in 0..epochs {
        let mut epoch_loss = 0.0;
        for (x, y) in batches {
            let logits = model.forward(x, Mode::Train);
            let (loss, grad) = softmax_cross_entropy(&logits, y);
            model.backward(&grad);
            clip_grad_norm(&mut model.params_mut(), 5.0);
            opt.step(&mut model.params_mut());
            epoch_loss += loss;
        }
        report.epoch_losses.push(epoch_loss / batches.len().max(1) as f32);
    }
    report
}

/// Evaluates `model` on the given indices (eval mode, batched).
///
/// # Panics
///
/// Panics if `indices` is empty.
pub fn evaluate(model: &mut dyn VideoClassifier, data: &Dataset, indices: &[usize]) -> EvalReport {
    assert!(!indices.is_empty(), "cannot evaluate an empty index set");
    let mut all_logits: Vec<Tensor> = Vec::new();
    let mut all_labels: Vec<usize> = Vec::new();
    for chunk in indices.chunks(16) {
        let (x, y) = data.batch(chunk);
        let logits = model.forward(&x, Mode::Eval);
        for i in 0..y.len() {
            all_logits.push(logits.index_axis0(i));
        }
        all_labels.extend(y);
    }
    let logits = Tensor::stack(&all_logits);
    let mut confusion = [[0usize; 2]; 2];
    for (pred, &truth) in logits.argmax_rows().iter().zip(&all_labels) {
        confusion[truth][*pred] += 1;
    }
    EvalReport {
        top1: accuracy(&logits, &all_labels),
        mean_class: mean_class_accuracy(&logits, &all_labels, 2),
        confusion,
        samples: all_labels.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SlowFastLite;
    use safecross_dataset::{DatasetSpec, SegmentGenerator};

    fn tiny_dataset() -> Dataset {
        let spec = DatasetSpec {
            daytime_segments: 12,
            rain_segments: 0,
            snow_segments: 0,
            frames_per_segment: 32,
            ..DatasetSpec::tiny()
        };
        SegmentGenerator::new(11).generate_dataset(&spec)
    }

    #[test]
    fn training_reduces_loss_on_real_segments() {
        let data = tiny_dataset();
        let mut rng = TensorRng::seed_from(0);
        let mut model = SlowFastLite::new(2, &mut rng);
        let all: Vec<usize> = (0..data.len()).collect();
        let report = train(
            &mut model,
            &data,
            &all,
            &TrainConfig {
                epochs: 6,
                batch_size: 6,
                lr: 0.05,
                ..TrainConfig::default()
            },
        );
        assert_eq!(report.epoch_losses.len(), 6);
        assert!(report.improved(), "losses: {:?}", report.epoch_losses);
    }

    #[test]
    fn evaluation_reports_are_consistent() {
        let data = tiny_dataset();
        let mut rng = TensorRng::seed_from(1);
        let mut model = SlowFastLite::new(2, &mut rng);
        let all: Vec<usize> = (0..data.len()).collect();
        let report = evaluate(&mut model, &data, &all);
        assert_eq!(report.samples, data.len());
        let total: usize = report.confusion.iter().flatten().sum();
        assert_eq!(total, data.len());
        // top1 equals trace / total.
        let trace = report.confusion[0][0] + report.confusion[1][1];
        assert!((report.top1 - trace as f32 / total as f32).abs() < 1e-6);
        assert!(!format!("{report}").is_empty());
    }

    #[test]
    fn train_batches_runs() {
        let data = tiny_dataset();
        let mut rng = TensorRng::seed_from(2);
        let mut model = SlowFastLite::new(2, &mut rng);
        let (x, y) = data.batch(&[0, 1, 2, 3]);
        let report = train_batches(&mut model, &[(x, y)], 3, 0.05);
        assert_eq!(report.epoch_losses.len(), 3);
        assert!(report.final_loss().is_finite());
    }

    #[test]
    #[should_panic(expected = "empty index set")]
    fn empty_training_panics() {
        let data = tiny_dataset();
        let mut rng = TensorRng::seed_from(3);
        let mut model = SlowFastLite::new(2, &mut rng);
        train(&mut model, &data, &[], &TrainConfig::default());
    }
}
