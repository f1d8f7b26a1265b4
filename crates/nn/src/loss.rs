//! Losses and classification metrics.

use safecross_tensor::Tensor;

/// Softmax cross-entropy over a `[N, K]` logit matrix with integer labels.
///
/// Returns the mean loss and the gradient with respect to the logits
/// (already divided by the batch size, ready to feed `backward`).
///
/// ```
/// use safecross_nn::softmax_cross_entropy;
/// use safecross_tensor::Tensor;
///
/// let logits = Tensor::from_vec(vec![10.0, -10.0], &[1, 2]);
/// let (loss, grad) = softmax_cross_entropy(&logits, &[0]);
/// assert!(loss < 1e-3); // confidently correct
/// assert_eq!(grad.dims(), &[1, 2]);
/// ```
///
/// # Panics
///
/// Panics if the logits are not 2-D, the label count mismatches the batch,
/// or any label is out of range.
pub fn softmax_cross_entropy(logits: &Tensor, labels: &[usize]) -> (f32, Tensor) {
    assert_eq!(logits.shape().ndim(), 2, "logits must be [N, K]");
    let (n, k) = (logits.shape().dim(0), logits.shape().dim(1));
    assert_eq!(
        labels.len(),
        n,
        "label count {} != batch {}",
        labels.len(),
        n
    );
    assert!(
        labels.iter().all(|&l| l < k),
        "label out of range for {k} classes"
    );
    let probs = logits.softmax_rows();
    let mut loss = 0.0f32;
    let mut grad = probs.clone();
    for (i, &label) in labels.iter().enumerate() {
        let p = probs.data()[i * k + label].max(1e-12);
        loss -= p.ln();
        grad.data_mut()[i * k + label] -= 1.0;
    }
    let inv_n = 1.0 / n as f32;
    grad.map_in_place(|g| g * inv_n);
    (loss * inv_n, grad)
}

/// Top-1 accuracy: fraction of rows whose argmax equals the label.
///
/// # Panics
///
/// Panics if `logits` is not 2-D or the label count mismatches.
pub fn accuracy(logits: &Tensor, labels: &[usize]) -> f32 {
    let preds = logits.argmax_rows();
    assert_eq!(preds.len(), labels.len(), "label count mismatch");
    if labels.is_empty() {
        return 0.0;
    }
    let correct = preds.iter().zip(labels).filter(|(p, l)| p == l).count();
    correct as f32 / labels.len() as f32
}

/// Mean per-class accuracy (the paper's `Mean_class_acc`): recall averaged
/// over classes, so the metric is insensitive to class imbalance.
///
/// Classes absent from `labels` are skipped.
///
/// # Panics
///
/// Panics if `logits` is not 2-D or the label count mismatches.
pub fn mean_class_accuracy(logits: &Tensor, labels: &[usize], num_classes: usize) -> f32 {
    let preds = logits.argmax_rows();
    assert_eq!(preds.len(), labels.len(), "label count mismatch");
    let mut correct = vec![0usize; num_classes];
    let mut total = vec![0usize; num_classes];
    for (&p, &l) in preds.iter().zip(labels) {
        total[l] += 1;
        if p == l {
            correct[l] += 1;
        }
    }
    let mut sum = 0.0;
    let mut classes = 0;
    for c in 0..num_classes {
        if total[c] > 0 {
            sum += correct[c] as f32 / total[c] as f32;
            classes += 1;
        }
    }
    if classes == 0 {
        0.0
    } else {
        sum / classes as f32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_logits_give_log_k_loss() {
        let logits = Tensor::zeros(&[2, 4]);
        let (loss, grad) = softmax_cross_entropy(&logits, &[0, 3]);
        assert!((loss - 4.0f32.ln()).abs() < 1e-5);
        // Gradient sums to zero per row.
        for r in 0..2 {
            let s: f32 = grad.data()[r * 4..(r + 1) * 4].iter().sum();
            assert!(s.abs() < 1e-6);
        }
    }

    #[test]
    fn gradient_points_away_from_wrong_class() {
        let logits = Tensor::zeros(&[1, 2]);
        let (_, grad) = softmax_cross_entropy(&logits, &[1]);
        assert!(grad.data()[0] > 0.0); // push class-0 logit down
        assert!(grad.data()[1] < 0.0); // push class-1 logit up
    }

    #[test]
    fn loss_gradient_matches_finite_difference() {
        let base = Tensor::from_vec(vec![0.3, -0.7, 1.2, 0.1, 0.0, -0.5], &[2, 3]);
        let labels = [2, 0];
        let (_, grad) = softmax_cross_entropy(&base, &labels);
        let eps = 1e-3;
        for i in 0..base.len() {
            let mut plus = base.clone();
            plus.data_mut()[i] += eps;
            let mut minus = base.clone();
            minus.data_mut()[i] -= eps;
            let (lp, _) = softmax_cross_entropy(&plus, &labels);
            let (lm, _) = softmax_cross_entropy(&minus, &labels);
            let numeric = (lp - lm) / (2.0 * eps);
            assert!(
                (numeric - grad.data()[i]).abs() < 1e-3,
                "element {i}: numeric {numeric} vs analytic {}",
                grad.data()[i]
            );
        }
    }

    #[test]
    fn accuracy_counts_matches() {
        let logits = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0, 1.0, 0.0], &[3, 2]);
        assert!((accuracy(&logits, &[0, 1, 1]) - 2.0 / 3.0).abs() < 1e-6);
    }

    #[test]
    fn mean_class_accuracy_is_balanced() {
        // 3 samples of class 0 (all right), 1 of class 1 (wrong):
        // top-1 = 0.75 but mean-class = (1.0 + 0.0)/2 = 0.5.
        let logits = Tensor::from_vec(vec![1.0, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0], &[4, 2]);
        let labels = [0, 0, 0, 1];
        assert!((accuracy(&logits, &labels) - 0.75).abs() < 1e-6);
        assert!((mean_class_accuracy(&logits, &labels, 2) - 0.5).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "label out of range")]
    fn out_of_range_label_panics() {
        softmax_cross_entropy(&Tensor::zeros(&[1, 2]), &[5]);
    }
}
