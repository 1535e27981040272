//! Evaluation metrics for trained models, and the [`EvalMetric`]
//! selector the validation-driven early-stopping pipeline scores with.

use serde::{Deserialize, Serialize};

use crate::gradients::{lambdarank_grad_refresh, GradPair, Loss, Objective};

/// Which metric the early-stopping pipeline tracks on the held-out
/// evaluation set after each tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum EvalMetric {
    /// Mean training-objective loss on the eval set (always available;
    /// the default).
    #[default]
    Loss,
    /// Root-mean-square error of transformed predictions.
    Rmse,
    /// Binary log-loss of transformed predictions (predictions are
    /// clamped away from 0/1, so any loss's output is accepted).
    Logloss,
    /// Area under the ROC curve of transformed predictions.
    /// Higher is better.
    Auc,
    /// Mean multiclass log-loss `-ln p_y` over softmax-normalized
    /// class probabilities. With a single output this degenerates to
    /// binary [`EvalMetric::Logloss`].
    MultiLogloss,
    /// Classification accuracy: argmax over K class margins for
    /// multiclass models, probability-0.5 threshold for binary.
    /// Higher is better.
    Accuracy,
    /// Normalized discounted cumulative gain truncated at position `k`,
    /// averaged over query groups (groups with no relevant document are
    /// skipped). Higher is better.
    Ndcg {
        /// Truncation position (0 means no truncation).
        k: u32,
    },
    /// Mean pinball loss at the objective's quantile (0.5 when the
    /// model was not trained with a quantile loss).
    Pinball,
}

impl EvalMetric {
    /// Short human-readable name — the canonical string table shared by
    /// train logs, bench output, and the README metrics table.
    pub fn name(&self) -> &'static str {
        match self {
            EvalMetric::Loss => "loss",
            EvalMetric::Rmse => "rmse",
            EvalMetric::Logloss => "logloss",
            EvalMetric::Auc => "auc",
            EvalMetric::MultiLogloss => "multi-logloss",
            EvalMetric::Accuracy => "accuracy",
            EvalMetric::Ndcg { .. } => "ndcg",
            EvalMetric::Pinball => "pinball",
        }
    }

    /// Whether larger values of this metric are better (AUC, accuracy,
    /// NDCG) instead of smaller (the error metrics). Early stopping
    /// compares in this direction.
    pub fn is_maximizing(&self) -> bool {
        matches!(self, EvalMetric::Auc | EvalMetric::Accuracy | EvalMetric::Ndcg { .. })
    }

    /// Does `current` improve on `best` by more than `min_delta`, in
    /// this metric's direction?
    pub fn improved(&self, current: f64, best: f64, min_delta: f64) -> bool {
        if self.is_maximizing() {
            current > best + min_delta
        } else {
            current < best - min_delta
        }
    }

    /// The value no observation can beat — the initial "best" for
    /// improvement tracking.
    pub fn worst(&self) -> f64 {
        if self.is_maximizing() {
            f64::NEG_INFINITY
        } else {
            f64::INFINITY
        }
    }

    /// How this metric reads a model trained with `objective` — the one
    /// metric x objective table. `None` means the pair is undefined:
    /// [`TrainConfig::validate`](crate::train::TrainConfig::validate)
    /// rejects it before training and [`Self::compute_reusing`] refuses
    /// to score it.
    fn reading(&self, objective: &Objective) -> Option<Reading> {
        Some(match (objective, self) {
            (Objective::Softmax { .. }, EvalMetric::Loss | EvalMetric::MultiLogloss) => {
                Reading::MultiLogloss
            }
            (Objective::Softmax { .. }, EvalMetric::Accuracy) => Reading::MultiAccuracy,
            (Objective::Softmax { .. }, _) => return None,
            (Objective::LambdaRank, EvalMetric::Loss) => Reading::RankLoss,
            // A monotone output transform never changes a ranking, so
            // NDCG scores raw margins for every single-output objective.
            (_, EvalMetric::Ndcg { k }) => Reading::Ndcg { k: *k as usize },
            (Objective::LambdaRank, _) => return None,
            (scalar, _) => Reading::Scalar(scalar.scalar_loss()?),
        })
    }

    /// Whether this metric is defined for models trained with
    /// `objective`: every metric has a scalar-loss reading, softmax
    /// models score by loss / multi-logloss / accuracy, and LambdaRank
    /// models by loss / NDCG.
    pub fn is_defined_for(&self, objective: &Objective) -> bool {
        self.reading(objective).is_some()
    }

    /// Score the raw margins of a scalar-`loss` model against labels,
    /// the whole set ranking as one query: the convenience form of
    /// [`EvalMetric::compute_reusing`].
    pub fn compute(&self, loss: Loss, margins: &[f64], labels: &[f32]) -> f64 {
        let labels64: Vec<f64> = labels.iter().map(|&y| f64::from(y)).collect();
        let group = [margins.len() as u32];
        self.compute_reusing(&loss.into(), margins, &labels64, &group, &mut Vec::new())
    }

    /// Score row-major `n x K` raw margins of a model trained with
    /// `objective` (`K = objective.num_outputs()`): the objective's
    /// mean loss for [`EvalMetric::Loss`], otherwise the metric over
    /// the link-transformed predictions. Labels are preconverted to
    /// `f64`, `groups` are the query-group sizes tiling the records,
    /// and `preds_scratch` is a reusable buffer for the transformed
    /// predictions — the shape the per-round eval loop calls without
    /// reallocating.
    ///
    /// # Panics
    /// Panics if the metric is not defined for `objective`
    /// ([`EvalMetric::is_defined_for`]).
    pub fn compute_reusing(
        &self,
        objective: &Objective,
        margins: &[f64],
        labels: &[f64],
        groups: &[u32],
        preds_scratch: &mut Vec<f64>,
    ) -> f64 {
        let k = objective.num_outputs();
        assert_eq!(margins.len(), labels.len() * k);
        assert!(!margins.is_empty(), "cannot evaluate an empty set");
        let Some(reading) = self.reading(objective) else {
            panic!("eval metric {} is not defined for {} models", self.name(), objective.name())
        };
        let loss = match reading {
            Reading::Scalar(loss) => loss,
            Reading::MultiLogloss => return multi_logloss(margins, labels, k),
            Reading::MultiAccuracy => return multiclass_accuracy(margins, labels, k),
            Reading::Ndcg { k } => return ndcg_at_k(margins, labels, groups, k),
            Reading::RankLoss => {
                // Labels were widened from `f32`, so narrowing is exact.
                let labels: Vec<f32> = labels.iter().map(|&y| y as f32).collect();
                let mut grads = vec![GradPair::zero(); margins.len()];
                return lambdarank_grad_refresh(margins, &labels, groups, &mut grads);
            }
        };
        if *self == EvalMetric::Loss {
            return margins.iter().zip(labels).map(|(&m, &y)| loss.value(m, y)).sum::<f64>()
                / margins.len() as f64;
        }
        preds_scratch.clear();
        preds_scratch.extend(margins.iter().map(|&m| loss.transform(m)));
        match self {
            EvalMetric::Rmse => rmse(preds_scratch, labels),
            // With one output, multiclass log-loss over {p, 1-p} is
            // exactly binary log-loss.
            EvalMetric::Logloss | EvalMetric::MultiLogloss => logloss(preds_scratch, labels),
            EvalMetric::Auc => auc(preds_scratch, labels),
            EvalMetric::Accuracy => accuracy(preds_scratch, labels, 0.5),
            EvalMetric::Pinball => {
                let alpha = match loss {
                    Loss::Quantile { alpha } => alpha,
                    _ => 0.5,
                };
                pinball_loss(preds_scratch, labels, alpha)
            }
            EvalMetric::Loss | EvalMetric::Ndcg { .. } => unreachable!("read above"),
        }
    }
}

/// One cell of the metric x objective table: how a metric reads a
/// model's margins.
enum Reading {
    /// Any metric over one output through a per-record loss's link.
    Scalar(Loss),
    /// Softmax cross-entropy over K class margins.
    MultiLogloss,
    /// Argmax accuracy over K class margins.
    MultiAccuracy,
    /// NDCG@k of raw scores within query groups (0 = untruncated).
    Ndcg { k: usize },
    /// LambdaRank's |ΔNDCG|-weighted pairwise surrogate loss.
    RankLoss,
}

/// Root-mean-square error between predictions and labels.
pub fn rmse(preds: &[f64], labels: &[f64]) -> f64 {
    assert_eq!(preds.len(), labels.len());
    assert!(!preds.is_empty());
    let mse = preds
        .iter()
        .zip(labels)
        .map(|(&p, &y)| {
            let d = p - y;
            d * d
        })
        .sum::<f64>()
        / preds.len() as f64;
    mse.sqrt()
}

/// Binary log-loss; predictions must be probabilities.
pub fn logloss(preds: &[f64], labels: &[f64]) -> f64 {
    assert_eq!(preds.len(), labels.len());
    assert!(!preds.is_empty());
    preds
        .iter()
        .zip(labels)
        .map(|(&p, &y)| {
            let p = p.clamp(1e-15, 1.0 - 1e-15);
            -(y * p.ln() + (1.0 - y) * (1.0 - p).ln())
        })
        .sum::<f64>()
        / preds.len() as f64
}

/// Classification accuracy at the given probability threshold.
pub fn accuracy(preds: &[f64], labels: &[f64], threshold: f64) -> f64 {
    assert_eq!(preds.len(), labels.len());
    assert!(!preds.is_empty());
    let correct =
        preds.iter().zip(labels).filter(|(&p, &y)| (p >= threshold) == (y >= 0.5)).count();
    correct as f64 / preds.len() as f64
}

/// Area under the ROC curve (rank-based; ties get the average rank).
///
/// NaN predictions are totally ordered via [`f64::total_cmp`] (positive
/// NaN above `+inf`, negative NaN below `-inf`) instead of panicking,
/// and tie-averaged like any other equal predictions, so a model that
/// emits NaN scores degrades the metric deterministically rather than
/// aborting evaluation.
pub fn auc(preds: &[f64], labels: &[f64]) -> f64 {
    assert_eq!(preds.len(), labels.len());
    assert!(!preds.is_empty());
    let mut idx: Vec<usize> = (0..preds.len()).collect();
    idx.sort_by(|&a, &b| preds[a].total_cmp(&preds[b]));
    // Average ranks over tied prediction groups. Ties are detected with
    // total_cmp too: `==` would never group NaNs, making their ranks —
    // and the metric — depend on record order.
    let mut ranks = vec![0.0f64; preds.len()];
    let mut i = 0;
    while i < idx.len() {
        let mut j = i;
        while j + 1 < idx.len()
            && preds[idx[j + 1]].total_cmp(&preds[idx[i]]) == std::cmp::Ordering::Equal
        {
            j += 1;
        }
        let avg_rank = (i + j) as f64 / 2.0 + 1.0;
        for &k in &idx[i..=j] {
            ranks[k] = avg_rank;
        }
        i = j + 1;
    }
    let pos: f64 = labels.iter().filter(|&&y| y >= 0.5).count() as f64;
    let neg = labels.len() as f64 - pos;
    if pos == 0.0 || neg == 0.0 {
        return 0.5;
    }
    let pos_rank_sum: f64 =
        ranks.iter().zip(labels).filter(|(_, &y)| y >= 0.5).map(|(&r, _)| r).sum();
    (pos_rank_sum - pos * (pos + 1.0) / 2.0) / (pos * neg)
}

/// Mean multiclass log-loss `-ln p_y` over a row-major `n x k` margin
/// matrix; probabilities are softmax-normalized per row and clamped
/// away from zero. Labels are class indices.
pub fn multi_logloss(margins: &[f64], labels: &[f64], k: usize) -> f64 {
    assert!(k >= 1, "need at least one class");
    assert_eq!(margins.len(), labels.len() * k);
    assert!(!labels.is_empty());
    let mut probs = vec![0.0f64; k];
    let mut sum = 0.0f64;
    for (r, &y) in labels.iter().enumerate() {
        probs.copy_from_slice(&margins[r * k..(r + 1) * k]);
        crate::gradients::softmax_inplace(&mut probs);
        let class = y as usize;
        assert!(class < k, "label {y} out of range for {k} classes");
        sum += -(probs[class].max(1e-15).ln());
    }
    sum / labels.len() as f64
}

/// Multiclass accuracy: fraction of records whose argmax class margin
/// matches the label (row-major `n x k` margins; argmax is invariant to
/// the softmax link, so raw margins work). Ties resolve to the lowest
/// class index.
pub fn multiclass_accuracy(margins: &[f64], labels: &[f64], k: usize) -> f64 {
    assert!(k >= 1, "need at least one class");
    assert_eq!(margins.len(), labels.len() * k);
    assert!(!labels.is_empty());
    let correct = labels
        .iter()
        .enumerate()
        .filter(|(r, &y)| {
            let row = &margins[r * k..(r + 1) * k];
            let mut best = 0usize;
            for (c, &m) in row.iter().enumerate() {
                if m > row[best] {
                    best = c;
                }
            }
            best == y as usize
        })
        .count();
    correct as f64 / labels.len() as f64
}

/// NDCG truncated at position `k` (0 = untruncated), averaged over
/// query groups. Documents are ranked by descending score with ties
/// broken by in-group index (deterministic); gains are `2^rel - 1` with
/// `1 / log2(rank + 2)` discounts. Groups whose ideal DCG is zero (no
/// relevant document) are skipped; if every group is skipped the metric
/// is a vacuous 1.0.
///
/// # Panics
/// Panics if `groups` does not tile the records exactly.
pub fn ndcg_at_k(scores: &[f64], labels: &[f64], groups: &[u32], k: usize) -> f64 {
    assert_eq!(scores.len(), labels.len());
    assert_eq!(
        groups.iter().map(|&g| g as usize).sum::<usize>(),
        scores.len(),
        "query groups must tile the records"
    );
    let cutoff = if k == 0 { usize::MAX } else { k };
    let mut total = 0.0f64;
    let mut scored_groups = 0usize;
    let mut start = 0usize;
    for &len in groups {
        let len = len as usize;
        let (ss, ys) = (&scores[start..start + len], &labels[start..start + len]);
        start += len;
        let mut gains: Vec<f64> = ys.iter().map(|&y| y.exp2() - 1.0).collect();
        let mut order: Vec<usize> = (0..len).collect();
        order.sort_by(|&a, &b| ss[b].total_cmp(&ss[a]).then(a.cmp(&b)));
        let dcg: f64 = order
            .iter()
            .take(cutoff)
            .enumerate()
            .map(|(rank, &i)| gains[i] / (rank as f64 + 2.0).log2())
            .sum();
        gains.sort_by(|a, b| b.total_cmp(a));
        let ideal: f64 = gains
            .iter()
            .take(cutoff)
            .enumerate()
            .map(|(rank, &g)| g / (rank as f64 + 2.0).log2())
            .sum();
        if ideal > 0.0 {
            total += dcg / ideal;
            scored_groups += 1;
        }
    }
    if scored_groups == 0 {
        1.0
    } else {
        total / scored_groups as f64
    }
}

/// Mean pinball (quantile) loss at quantile `alpha`.
pub fn pinball_loss(preds: &[f64], labels: &[f64], alpha: f64) -> f64 {
    assert_eq!(preds.len(), labels.len());
    assert!(!preds.is_empty());
    preds
        .iter()
        .zip(labels)
        .map(|(&p, &y)| if p <= y { alpha * (y - p) } else { (1.0 - alpha) * (p - y) })
        .sum::<f64>()
        / preds.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rmse_basic() {
        assert_eq!(rmse(&[1.0, 2.0], &[1.0, 2.0]), 0.0);
        assert!((rmse(&[0.0, 0.0], &[3.0, 4.0]) - (12.5f64).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn accuracy_basic() {
        let preds = [0.9, 0.2, 0.7, 0.4];
        let labels = [1.0, 0.0, 0.0, 1.0];
        assert!((accuracy(&preds, &labels, 0.5) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn logloss_perfect_predictions_near_zero() {
        let l = logloss(&[1.0, 0.0], &[1.0, 0.0]);
        assert!(l < 1e-10);
    }

    #[test]
    fn auc_perfect_and_inverted() {
        let labels = [0.0, 0.0, 1.0, 1.0];
        assert!((auc(&[0.1, 0.2, 0.8, 0.9], &labels) - 1.0).abs() < 1e-12);
        assert!((auc(&[0.9, 0.8, 0.2, 0.1], &labels) - 0.0).abs() < 1e-12);
    }

    #[test]
    fn auc_random_is_half() {
        // Symmetric ties -> 0.5.
        let labels = [0.0, 1.0, 0.0, 1.0];
        assert!((auc(&[0.5, 0.5, 0.5, 0.5], &labels) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn auc_single_class_is_half() {
        assert_eq!(auc(&[0.2, 0.8], &[1.0, 1.0]), 0.5);
    }

    #[test]
    fn auc_does_not_panic_on_nan_predictions() {
        // NaN sorts above every finite value under total_cmp; the metric
        // must stay defined (here NaNs sit on positive records, so they
        // help) instead of panicking mid-evaluation.
        let a = auc(&[0.1, f64::NAN, 0.3, f64::NAN], &[0.0, 1.0, 0.0, 1.0]);
        assert!((0.0..=1.0).contains(&a), "auc {a} out of range");
        assert!((a - 1.0).abs() < 1e-12, "NaNs rank last: {a}");
        // Identical NaNs are ties: the metric must not depend on record
        // order (0.5, not 1.0-or-0.0 by accident of sort position).
        let b = auc(&[f64::NAN, f64::NAN], &[0.0, 1.0]);
        let c = auc(&[f64::NAN, f64::NAN], &[1.0, 0.0]);
        assert!((b - 0.5).abs() < 1e-12, "tied NaNs average: {b}");
        assert_eq!(b.to_bits(), c.to_bits(), "order-independent: {b} vs {c}");
    }

    #[test]
    fn auc_ties_get_average_rank() {
        // Ranks: 0.3 -> 1, the two 0.5s -> 2.5 each, 0.9 -> 4.
        // Positive rank sum 6.5 -> (6.5 - 3) / (2 * 2) = 0.875.
        let a = auc(&[0.3, 0.5, 0.5, 0.9], &[0.0, 0.0, 1.0, 1.0]);
        assert!((a - 0.875).abs() < 1e-12, "tie-averaged auc {a}");
    }

    #[test]
    #[should_panic]
    fn auc_rejects_empty_input() {
        let _ = auc(&[], &[]);
    }

    /// Every metric variant, for exhaustive direction/name coverage.
    fn all_metrics() -> [EvalMetric; 8] {
        [
            EvalMetric::Loss,
            EvalMetric::Rmse,
            EvalMetric::Logloss,
            EvalMetric::Auc,
            EvalMetric::MultiLogloss,
            EvalMetric::Accuracy,
            EvalMetric::Ndcg { k: 5 },
            EvalMetric::Pinball,
        ]
    }

    #[test]
    fn eval_metric_directions_and_improvement() {
        // is_maximizing pinned for every metric so early stopping never
        // flips direction: only AUC, accuracy and NDCG maximize.
        assert!(!EvalMetric::Loss.is_maximizing());
        assert!(!EvalMetric::Rmse.is_maximizing());
        assert!(!EvalMetric::Logloss.is_maximizing());
        assert!(!EvalMetric::MultiLogloss.is_maximizing());
        assert!(!EvalMetric::Pinball.is_maximizing());
        assert!(EvalMetric::Auc.is_maximizing());
        assert!(EvalMetric::Accuracy.is_maximizing());
        assert!(EvalMetric::Ndcg { k: 10 }.is_maximizing());
        // Lower-is-better: strictly smaller improves at min_delta 0.
        assert!(EvalMetric::Rmse.improved(0.9, 1.0, 0.0));
        assert!(!EvalMetric::Rmse.improved(1.0, 1.0, 0.0));
        assert!(!EvalMetric::Rmse.improved(0.95, 1.0, 0.1));
        // Higher-is-better mirrors.
        assert!(EvalMetric::Auc.improved(0.8, 0.7, 0.0));
        assert!(!EvalMetric::Auc.improved(0.75, 0.7, 0.1));
        // Every metric improves on its own worst value.
        for m in all_metrics() {
            assert!(m.improved(0.5, m.worst(), 0.0), "{}", m.name());
        }
    }

    #[test]
    fn multi_logloss_matches_closed_form() {
        // Two records, three classes, hand-computed softmax.
        // Record 0: margins (1, 0, 0), label 0 -> p0 = e / (e + 2).
        // Record 1: margins (0, 0, 0), label 2 -> p2 = 1/3.
        let margins = [1.0, 0.0, 0.0, 0.0, 0.0, 0.0];
        let labels = [0.0, 2.0];
        let e = std::f64::consts::E;
        let expect = (-(e / (e + 2.0)).ln() - (1.0f64 / 3.0).ln()) / 2.0;
        let got = multi_logloss(&margins, &labels, 3);
        assert!((got - expect).abs() < 1e-12, "{got} vs {expect}");
    }

    #[test]
    fn multi_logloss_degenerates_to_certainty() {
        // A huge margin on the true class drives the loss to ~0.
        let margins = [50.0, 0.0, 0.0];
        assert!(multi_logloss(&margins, &[0.0], 3) < 1e-10);
    }

    #[test]
    fn multiclass_accuracy_argmax_and_ties() {
        // Record 0: argmax class 1 (correct). Record 1: argmax class 0,
        // label 2 (wrong). Record 2: exact tie -> lowest index 0 wins.
        let margins = [0.1, 0.9, 0.0, 0.8, 0.1, 0.1, 0.5, 0.5, 0.5];
        let labels = [1.0, 2.0, 0.0];
        let got = multiclass_accuracy(&margins, &labels, 3);
        assert!((got - 2.0 / 3.0).abs() < 1e-12, "{got}");
    }

    #[test]
    fn ndcg_hand_computed_single_group() {
        // Scores already rank rel (3, 2, 0) perfectly -> NDCG 1.
        let labels = [3.0, 2.0, 0.0];
        assert!((ndcg_at_k(&[0.9, 0.5, 0.1], &labels, &[3], 0) - 1.0).abs() < 1e-12);
        // Swap the top two: DCG = 3/log2(2) + 7/log2(3) + 0,
        // ideal = 7/log2(2) + 3/log2(3).
        let dcg = 3.0 + 7.0 / 3.0f64.log2();
        let ideal = 7.0 + 3.0 / 3.0f64.log2();
        let got = ndcg_at_k(&[0.5, 0.9, 0.1], &labels, &[3], 0);
        assert!((got - dcg / ideal).abs() < 1e-12, "{got}");
    }

    #[test]
    fn ndcg_truncation_ignores_tail() {
        // k=1 only looks at the top document: placing the rel-3 doc
        // first scores 1.0 regardless of the tail ordering.
        let labels = [3.0, 2.0, 1.0];
        let got = ndcg_at_k(&[0.9, 0.1, 0.5], &labels, &[3], 1);
        assert!((got - 1.0).abs() < 1e-12, "{got}");
        // Top doc rel 1 under k=1: DCG = 1, ideal = 7 -> 1/7.
        let got = ndcg_at_k(&[0.1, 0.2, 0.9], &labels, &[3], 1);
        assert!((got - 1.0 / 7.0).abs() < 1e-12, "{got}");
    }

    #[test]
    fn ndcg_ties_break_by_index_deterministically() {
        // Both docs score 0.5; the tie resolves to in-group order, so
        // the rel-0 doc (index 0) ranks first.
        // DCG = 0 + 1/log2(3); ideal = 1.
        let got = ndcg_at_k(&[0.5, 0.5], &[0.0, 1.0], &[2], 0);
        let expect = 1.0 / 3.0f64.log2();
        assert!((got - expect).abs() < 1e-12, "{got} vs {expect}");
        // Reversing the records flips which doc wins the tie: now the
        // rel-1 doc is first and the group is perfect.
        let got = ndcg_at_k(&[0.5, 0.5], &[1.0, 0.0], &[2], 0);
        assert!((got - 1.0).abs() < 1e-12, "{got}");
    }

    #[test]
    fn ndcg_skips_empty_and_all_zero_groups() {
        // Group 1 has no relevant docs (ideal DCG 0) and group 2 is
        // empty: both are skipped, leaving only the perfect group 0.
        let scores = [0.9, 0.1, 0.4, 0.6];
        let labels = [1.0, 0.0, 0.0, 0.0];
        let got = ndcg_at_k(&scores, &labels, &[2, 2, 0], 0);
        assert!((got - 1.0).abs() < 1e-12, "{got}");
        // Every group unscorable -> vacuous 1.0, not NaN.
        let got = ndcg_at_k(&[0.3, 0.7], &[0.0, 0.0], &[2], 0);
        assert!((got - 1.0).abs() < 1e-12, "{got}");
    }

    #[test]
    fn pinball_matches_closed_form() {
        // alpha = 0.9: under-prediction (p <= y) costs 0.9 per unit,
        // over-prediction costs 0.1.
        let got = pinball_loss(&[1.0, 5.0], &[3.0, 3.0], 0.9);
        let expect = (0.9 * 2.0 + 0.1 * 2.0) / 2.0;
        assert!((got - expect).abs() < 1e-12, "{got} vs {expect}");
        // Perfect predictions cost nothing at any quantile.
        assert_eq!(pinball_loss(&[2.0], &[2.0], 0.3), 0.0);
        // At alpha = 0.5 the pinball loss is half the mean absolute
        // error.
        let got = pinball_loss(&[0.0, 4.0], &[2.0, 2.0], 0.5);
        assert!((got - 1.0).abs() < 1e-12, "{got}");
    }

    #[test]
    fn compute_reusing_covers_the_new_scalar_metrics() {
        let margins = [0.2f64, -1.0, 1.5, 0.0];
        let labels = [0.0f32, 0.0, 1.0, 1.0];
        let labels64: Vec<f64> = labels.iter().map(|&y| f64::from(y)).collect();
        // MultiLogloss at K=1 is binary logloss.
        assert_eq!(
            EvalMetric::MultiLogloss.compute(Loss::Logistic, &margins, &labels).to_bits(),
            EvalMetric::Logloss.compute(Loss::Logistic, &margins, &labels).to_bits()
        );
        // Accuracy thresholds transformed predictions at 0.5.
        let preds: Vec<f64> = margins.iter().map(|&m| Loss::Logistic.transform(m)).collect();
        assert_eq!(
            EvalMetric::Accuracy.compute(Loss::Logistic, &margins, &labels).to_bits(),
            accuracy(&preds, &labels64, 0.5).to_bits()
        );
        // Pinball reads alpha from the quantile loss.
        let q = Loss::Quantile { alpha: 0.75 };
        assert_eq!(
            EvalMetric::Pinball.compute(q, &margins, &labels).to_bits(),
            pinball_loss(&margins, &labels64, 0.75).to_bits()
        );
        // Scalar NDCG falls back to one whole-set query group.
        assert_eq!(
            EvalMetric::Ndcg { k: 2 }.compute(Loss::SquaredError, &margins, &labels).to_bits(),
            ndcg_at_k(&margins, &labels64, &[4], 2).to_bits()
        );
    }

    #[test]
    fn eval_metric_compute_matches_direct_formulas() {
        let margins = [0.2f64, -1.0, 1.5, 0.0];
        let labels = [0.0f32, 0.0, 1.0, 1.0];
        let loss = Loss::Logistic;
        let preds: Vec<f64> = margins.iter().map(|&m| loss.transform(m)).collect();
        let labels64: Vec<f64> = labels.iter().map(|&y| f64::from(y)).collect();
        let direct_loss =
            margins.iter().zip(&labels).map(|(&m, &y)| loss.value(m, f64::from(y))).sum::<f64>()
                / 4.0;
        assert_eq!(
            EvalMetric::Loss.compute(loss, &margins, &labels).to_bits(),
            direct_loss.to_bits()
        );
        assert_eq!(
            EvalMetric::Rmse.compute(loss, &margins, &labels).to_bits(),
            rmse(&preds, &labels64).to_bits()
        );
        assert_eq!(
            EvalMetric::Logloss.compute(loss, &margins, &labels).to_bits(),
            logloss(&preds, &labels64).to_bits()
        );
        assert_eq!(
            EvalMetric::Auc.compute(loss, &margins, &labels).to_bits(),
            auc(&preds, &labels64).to_bits()
        );
    }

    /// The table has one reader: a pair passes `is_defined_for` (what
    /// `TrainConfig::validate` asks) exactly when the scorer accepts it.
    #[test]
    fn the_scorer_accepts_exactly_the_pairs_the_table_defines() {
        let objectives = [
            Objective::SquaredError,
            Objective::Logistic,
            Objective::PinballQuantile { alpha: 0.3 },
            Objective::Softmax { num_class: 2 },
            Objective::LambdaRank,
        ];
        let labels = [0.0f64, 1.0, 1.0, 0.0];
        let mut defined = Vec::new();
        for objective in objectives {
            let margins = vec![0.25f64; labels.len() * objective.num_outputs()];
            for metric in all_metrics() {
                let scored = std::panic::catch_unwind(|| {
                    metric.compute_reusing(&objective, &margins, &labels, &[4], &mut Vec::new())
                });
                assert_eq!(
                    scored.is_ok(),
                    metric.is_defined_for(&objective),
                    "{} x {}",
                    metric.name(),
                    objective.name()
                );
                if scored.is_ok() && objective.scalar_loss().is_none() {
                    defined.push((objective.name(), metric.name()));
                }
            }
        }
        // Every metric reads a scalar-loss model; the coupled objectives
        // define exactly these.
        assert_eq!(
            defined,
            [
                ("softmax", "loss"),
                ("softmax", "multi-logloss"),
                ("softmax", "accuracy"),
                ("lambdarank", "loss"),
                ("lambdarank", "ndcg"),
            ]
        );
    }

    #[test]
    fn eval_metric_names_are_distinct() {
        let names: Vec<&str> = all_metrics().iter().map(EvalMetric::name).collect();
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len());
    }
}
