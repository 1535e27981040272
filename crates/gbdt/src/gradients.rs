//! Gradient statistics and loss functions.
//!
//! GB is agnostic about the loss as long as it is differentiable and convex
//! (Section II-A). Training maintains per-record first- and second-order
//! gradient statistics `(g_i, h_i)` of the loss w.r.t. the current model
//! margin; Step 5 recomputes them after each tree is added.

use serde::{Deserialize, Serialize};

/// First- and second-order gradient statistics for one record, or a
/// summation thereof (the `G`/`H` of a histogram bin).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct GradPair {
    /// First-order gradient (g, or bin summation G).
    pub g: f64,
    /// Second-order gradient (h, or bin summation H).
    pub h: f64,
}

impl GradPair {
    /// Construct from components.
    pub const fn new(g: f64, h: f64) -> Self {
        GradPair { g, h }
    }

    /// Zero pair.
    pub const fn zero() -> Self {
        GradPair { g: 0.0, h: 0.0 }
    }
}

impl core::ops::Add for GradPair {
    type Output = GradPair;
    fn add(self, rhs: GradPair) -> GradPair {
        GradPair { g: self.g + rhs.g, h: self.h + rhs.h }
    }
}

impl core::ops::AddAssign for GradPair {
    fn add_assign(&mut self, rhs: GradPair) {
        self.g += rhs.g;
        self.h += rhs.h;
    }
}

impl core::ops::Sub for GradPair {
    type Output = GradPair;
    fn sub(self, rhs: GradPair) -> GradPair {
        GradPair { g: self.g - rhs.g, h: self.h - rhs.h }
    }
}

impl core::ops::SubAssign for GradPair {
    fn sub_assign(&mut self, rhs: GradPair) {
        self.g -= rhs.g;
        self.h -= rhs.h;
    }
}

/// Which scalar per-record loss the trainer minimizes on a single
/// margin. The engine-facing primitive: every variant computes `(g, h)`
/// and a loss value from one `(margin, label)` pair, which is exactly
/// what Step 5's per-block refresh needs. Objectives whose gradients
/// couple records (softmax across outputs, LambdaRank across a query
/// group) live one layer up in [`Objective`] and do not appear here.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Loss {
    /// Squared error, `l = 1/2 (margin - y)^2` — regression.
    SquaredError,
    /// Logistic loss over a raw margin — binary classification with
    /// labels in {0, 1}.
    Logistic,
    /// Pinball (quantile) loss, `l = alpha (y - m)` for `m <= y` else
    /// `(1 - alpha)(m - y)` — quantile regression for heavy-tailed
    /// targets. First order only; `h` is the constant 1.
    Quantile {
        /// The target quantile in (0, 1); 0.5 recovers the median (L1).
        alpha: f64,
    },
}

impl Loss {
    /// A reasonable initial margin (base score) for this loss given the
    /// label mean.
    pub fn base_score(&self, label_mean: f64) -> f64 {
        match self {
            Loss::SquaredError | Loss::Quantile { .. } => label_mean,
            Loss::Logistic => {
                // logit of the positive rate, clamped away from infinities.
                let p = label_mean.clamp(1e-6, 1.0 - 1e-6);
                (p / (1.0 - p)).ln()
            }
        }
    }

    /// Gradient statistics of the loss at the given margin and label.
    #[inline]
    pub fn grad(&self, margin: f64, label: f64) -> GradPair {
        match self {
            Loss::SquaredError => GradPair { g: margin - label, h: 1.0 },
            Loss::Logistic => {
                let p = sigmoid(margin);
                GradPair { g: p - label, h: (p * (1.0 - p)).max(1e-16) }
            }
            Loss::Quantile { alpha } => {
                GradPair { g: if margin < label { -alpha } else { 1.0 - alpha }, h: 1.0 }
            }
        }
    }

    /// Loss value of a single prediction (for monitoring the residual loss,
    /// Step 5 / Step 6 stopping).
    #[inline]
    pub fn value(&self, margin: f64, label: f64) -> f64 {
        match self {
            Loss::SquaredError => {
                let d = margin - label;
                0.5 * d * d
            }
            Loss::Logistic => logistic_value(sigmoid(margin), label),
            Loss::Quantile { alpha } => pinball_value(margin, label, *alpha),
        }
    }

    /// Gradient statistics and loss value in one evaluation (the Step-5
    /// hot path): for [`Loss::Logistic`] the sigmoid is computed once
    /// and shared by both. Bit-identical to calling [`Self::grad`] and
    /// [`Self::value`] separately.
    #[inline]
    pub fn grad_value(&self, margin: f64, label: f64) -> (GradPair, f64) {
        match self {
            Loss::SquaredError => {
                let d = margin - label;
                (GradPair { g: d, h: 1.0 }, 0.5 * d * d)
            }
            Loss::Logistic => {
                let p = sigmoid(margin);
                let grad = GradPair { g: p - label, h: (p * (1.0 - p)).max(1e-16) };
                (grad, logistic_value(p, label))
            }
            Loss::Quantile { alpha } => {
                let grad =
                    GradPair { g: if margin < label { -alpha } else { 1.0 - alpha }, h: 1.0 };
                (grad, pinball_value(margin, label, *alpha))
            }
        }
    }

    /// Transform a raw margin into the prediction users expect
    /// (identity for regression and quantiles, probability for
    /// logistic).
    #[inline]
    pub fn transform(&self, margin: f64) -> f64 {
        match self {
            Loss::SquaredError | Loss::Quantile { .. } => margin,
            Loss::Logistic => sigmoid(margin),
        }
    }

    /// Short human-readable name (used by reports, benches and
    /// examples). The canonical string table shared with
    /// [`Objective::name`] and `EvalMetric::name`.
    pub fn name(&self) -> &'static str {
        match self {
            Loss::SquaredError => "squared-error",
            Loss::Logistic => "logistic",
            Loss::Quantile { .. } => "quantile",
        }
    }
}

/// The training objective: what the full K-output model optimizes.
///
/// Scalar objectives ([`Objective::SquaredError`], [`Objective::Logistic`],
/// [`Objective::PinballQuantile`]) lower to a [`Loss`] and update their
/// gradients in Step 5's refresh, block by block behind the tree walk. [`Objective::Softmax`]
/// grows `num_class` trees per boosting round (one per output) and
/// couples gradients across the K margins of a record;
/// [`Objective::LambdaRank`] keeps one output but couples gradients
/// across each query group (pairwise λ-gradients). GB is agnostic about
/// the loss as long as it is differentiable (Section II-A) — this enum
/// is where that generality lives.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub enum Objective {
    /// Squared-error regression (K = 1).
    #[default]
    SquaredError,
    /// Binary classification via logistic loss (K = 1).
    Logistic,
    /// Multiclass classification via softmax cross-entropy: K =
    /// `num_class` outputs, labels are class indices `0..num_class`
    /// stored as `f32`.
    Softmax {
        /// Number of classes (≥ 2); one tree per class per round.
        num_class: u32,
    },
    /// LambdaMART-style learning-to-rank (K = 1): labels are relevance
    /// grades, records are grouped into queries
    /// (`BinnedDataset::set_query_groups`), and gradients are pairwise
    /// λ-gradients weighted by |ΔNDCG|.
    LambdaRank,
    /// Quantile regression via the pinball loss (K = 1).
    PinballQuantile {
        /// The target quantile in (0, 1).
        alpha: f64,
    },
}

impl From<Loss> for Objective {
    fn from(loss: Loss) -> Self {
        match loss {
            Loss::SquaredError => Objective::SquaredError,
            Loss::Logistic => Objective::Logistic,
            Loss::Quantile { alpha } => Objective::PinballQuantile { alpha },
        }
    }
}

impl Objective {
    /// Number of model outputs K (trees per boosting round).
    pub fn num_outputs(&self) -> usize {
        match self {
            Objective::Softmax { num_class } => *num_class as usize,
            _ => 1,
        }
    }

    /// The per-record scalar loss this objective lowers to, when its
    /// gradients decouple per record. `None` for the coupled objectives
    /// (softmax, LambdaRank), which refresh theirs once per round.
    pub fn scalar_loss(&self) -> Option<Loss> {
        match self {
            Objective::SquaredError => Some(Loss::SquaredError),
            Objective::Logistic => Some(Loss::Logistic),
            Objective::PinballQuantile { alpha } => Some(Loss::Quantile { alpha: *alpha }),
            Objective::Softmax { .. } | Objective::LambdaRank => None,
        }
    }

    /// Transform one raw margin into the user-facing prediction. For
    /// the scalar objectives this is the matching [`Loss::transform`]
    /// (bit-identical); softmax margins are per-class scores whose link
    /// couples the whole row — use [`Objective::transform_outputs`] —
    /// so the single-margin transform is the identity, and LambdaRank
    /// scores are used raw for ordering.
    #[inline]
    pub fn transform(&self, margin: f64) -> f64 {
        match self {
            Objective::SquaredError
            | Objective::PinballQuantile { .. }
            | Objective::Softmax { .. }
            | Objective::LambdaRank => margin,
            Objective::Logistic => sigmoid(margin),
        }
    }

    /// Apply the link function to one record's K raw margins in place:
    /// softmax normalizes the row into class probabilities; every other
    /// objective applies its scalar transform to the (single) entry.
    pub fn transform_outputs(&self, row: &mut [f64]) {
        match self {
            Objective::Softmax { .. } => softmax_inplace(row),
            _ => {
                for m in row.iter_mut() {
                    *m = self.transform(*m);
                }
            }
        }
    }

    /// Short human-readable name — the canonical string table shared by
    /// train logs, bench output, and the README objectives table.
    pub fn name(&self) -> &'static str {
        match self {
            Objective::SquaredError => "squared-error",
            Objective::Logistic => "logistic",
            Objective::Softmax { .. } => "softmax",
            Objective::LambdaRank => "lambdarank",
            Objective::PinballQuantile { .. } => "quantile",
        }
    }

    /// Check parameter bounds, returning a description of the first
    /// violation.
    pub fn validate(&self) -> Result<(), String> {
        match self {
            Objective::Softmax { num_class } if *num_class < 2 => {
                Err(format!("softmax needs at least 2 classes, got {num_class}"))
            }
            Objective::PinballQuantile { alpha }
                if !(alpha.is_finite() && *alpha > 0.0 && *alpha < 1.0) =>
            {
                Err(format!("quantile alpha must be in (0, 1), got {alpha}"))
            }
            _ => Ok(()),
        }
    }
}

/// Pinball loss of one prediction at quantile `alpha`.
#[inline]
fn pinball_value(margin: f64, label: f64, alpha: f64) -> f64 {
    if margin <= label {
        alpha * (label - margin)
    } else {
        (1.0 - alpha) * (margin - label)
    }
}

/// Normalize one row of raw class margins into softmax probabilities in
/// place (max-subtracted for stability).
pub fn softmax_inplace(row: &mut [f64]) {
    let max = row.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let mut sum = 0.0;
    for m in row.iter_mut() {
        *m = (*m - max).exp();
        sum += *m;
    }
    for m in row.iter_mut() {
        *m /= sum;
    }
}

/// Refresh the full softmax gradient matrix from the margin matrix
/// (both row-major `n x k`): for each record, `g_c = p_c - 1[y = c]`,
/// `h_c = p_c (1 - p_c)` (floored away from zero), with `p` the
/// softmax of the record's K margins. Returns the mean multiclass
/// logloss `-log p_y`. Labels are class indices stored as `f32`.
///
/// # Panics
/// Panics if a label is not an integer in `0..k`.
pub fn softmax_grad_refresh(
    margins: &[f64],
    labels: &[f32],
    k: usize,
    grads: &mut [GradPair],
) -> f64 {
    let n = labels.len();
    assert_eq!(margins.len(), n * k, "margin matrix shape");
    assert_eq!(grads.len(), n * k, "gradient matrix shape");
    let mut probs = vec![0.0f64; k];
    let mut loss_sum = 0.0f64;
    for r in 0..n {
        let row = &margins[r * k..(r + 1) * k];
        probs.copy_from_slice(row);
        softmax_inplace(&mut probs);
        let y = labels[r];
        let class = y as usize;
        assert!(
            y >= 0.0 && y.fract() == 0.0 && class < k,
            "softmax label must be a class index in 0..{k}, got {y}"
        );
        loss_sum += -(probs[class].max(1e-15).ln());
        for (c, &p) in probs.iter().enumerate() {
            let target = f64::from(u8::from(c == class));
            grads[r * k + c] = GradPair { g: p - target, h: (p * (1.0 - p)).max(1e-16) };
        }
    }
    loss_sum / n as f64
}

/// One LambdaRank gradient refresh: recompute every record's pairwise
/// λ-gradient `(g, h)` from the current margins, per query group, and
/// return the mean |ΔNDCG|-weighted pairwise logistic surrogate loss.
///
/// For every in-group pair `(i, j)` with `rel_i > rel_j`:
/// `ρ = σ(-(s_i - s_j))`, `λ = -ρ |ΔNDCG_ij|`, accumulated as
/// `g_i += λ`, `g_j -= λ`, and `h_{i,j} += ρ (1 - ρ) |ΔNDCG_ij|`,
/// where |ΔNDCG| is the NDCG change from swapping the two documents in
/// the current ranking (gain `2^rel - 1`, log2 position discounts,
/// normalized by the group's ideal DCG). Groups with no relevant
/// document (ideal DCG 0) contribute no pairs.
///
/// # Panics
/// Panics if `groups` does not tile `labels` exactly.
pub fn lambdarank_grad_refresh(
    margins: &[f64],
    labels: &[f32],
    groups: &[u32],
    grads: &mut [GradPair],
) -> f64 {
    let n = labels.len();
    assert_eq!(margins.len(), n, "one margin per record");
    assert_eq!(grads.len(), n, "one gradient pair per record");
    assert_eq!(
        groups.iter().map(|&g| g as usize).sum::<usize>(),
        n,
        "query groups must tile the dataset"
    );
    for gp in grads.iter_mut() {
        *gp = GradPair::zero();
    }
    let mut loss_sum = 0.0f64;
    let mut pair_count = 0u64;
    let mut start = 0usize;
    for &len in groups {
        let len = len as usize;
        let (ms, ys) = (&margins[start..start + len], &labels[start..start + len]);
        // Current ranking: position of each document when sorted by
        // descending score (ties broken by in-group index, so the
        // refresh is deterministic).
        let mut order: Vec<usize> = (0..len).collect();
        order.sort_by(|&a, &b| ms[b].partial_cmp(&ms[a]).unwrap().then(a.cmp(&b)));
        let mut pos = vec![0usize; len];
        for (rank, &i) in order.iter().enumerate() {
            pos[i] = rank;
        }
        let gain = |i: usize| (f64::from(ys[i])).exp2() - 1.0;
        let disc = |rank: usize| 1.0 / ((rank as f64 + 2.0).log2());
        // Ideal DCG: gains sorted descending.
        let mut gains: Vec<f64> = (0..len).map(gain).collect();
        gains.sort_by(|a, b| b.partial_cmp(a).unwrap());
        let ideal: f64 = gains.iter().enumerate().map(|(r, g)| g * disc(r)).sum();
        if ideal > 0.0 {
            for i in 0..len {
                for j in 0..len {
                    if ys[i] <= ys[j] || i == j {
                        continue;
                    }
                    let delta = ((gain(i) - gain(j)) * (disc(pos[i]) - disc(pos[j])) / ideal).abs();
                    let s = ms[i] - ms[j];
                    let rho = sigmoid(-s);
                    let lambda = -rho * delta;
                    grads[start + i].g += lambda;
                    grads[start + j].g -= lambda;
                    let hess = (rho * (1.0 - rho) * delta).max(1e-16);
                    grads[start + i].h += hess;
                    grads[start + j].h += hess;
                    // Weighted RankNet surrogate: ln(1 + e^{-s}),
                    // computed stably for both signs of s.
                    loss_sum += delta * ((-s.abs()).exp().ln_1p() + (-s).max(0.0));
                    pair_count += 1;
                }
            }
        }
        start += len;
    }
    // Records in pairless groups keep (0, 0) gradients; floor h so leaf
    // weights stay finite.
    for gp in grads.iter_mut() {
        if gp.h == 0.0 {
            gp.h = 1e-16;
        }
    }
    if pair_count == 0 {
        0.0
    } else {
        loss_sum / pair_count as f64
    }
}

/// Cross-entropy of an (unclamped) predicted probability.
///
/// The 0/1-label arms drop the zero-coefficient log term; that is
/// bit-exact with the general two-term form because the dropped term is
/// `±0.0 * ln(p̂)` with `p̂` clamped away from 0 and 1 — a finite
/// nonzero log, so the product is a signed zero and adding it leaves
/// the other (nonzero) term unchanged.
#[inline]
fn logistic_value(p: f64, label: f64) -> f64 {
    let p = p.clamp(1e-15, 1.0 - 1e-15);
    if label == 0.0 {
        -((1.0 - p).ln())
    } else if label == 1.0 {
        -(p.ln())
    } else {
        -(label * p.ln() + (1.0 - label) * (1.0 - p).ln())
    }
}

/// Numerically-stable logistic sigmoid.
#[inline]
pub fn sigmoid(x: f64) -> f64 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gradpair_arithmetic() {
        let a = GradPair::new(1.0, 2.0);
        let b = GradPair::new(0.5, 0.25);
        assert_eq!(a + b, GradPair::new(1.5, 2.25));
        assert_eq!(a - b, GradPair::new(0.5, 1.75));
        let mut c = a;
        c += b;
        c -= b;
        assert_eq!(c, a);
    }

    #[test]
    fn squared_error_gradients() {
        let gp = Loss::SquaredError.grad(3.0, 1.0);
        assert_eq!(gp.g, 2.0);
        assert_eq!(gp.h, 1.0);
    }

    #[test]
    fn logistic_gradients_at_zero_margin() {
        let gp = Loss::Logistic.grad(0.0, 1.0);
        assert!((gp.g + 0.5).abs() < 1e-12); // p=0.5, g = p - y = -0.5
        assert!((gp.h - 0.25).abs() < 1e-12);
    }

    #[test]
    fn sigmoid_is_stable_at_extremes() {
        assert!(sigmoid(1000.0) <= 1.0);
        assert!(sigmoid(-1000.0) >= 0.0);
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-12);
        // symmetric
        assert!((sigmoid(3.0) + sigmoid(-3.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn base_score_matches_loss() {
        assert_eq!(Loss::SquaredError.base_score(3.25), 3.25);
        let b = Loss::Logistic.base_score(0.5);
        assert!(b.abs() < 1e-9);
        assert!(Loss::Logistic.base_score(0.9) > 0.0);
    }

    #[test]
    fn logistic_loss_decreases_toward_correct_margin() {
        let l_bad = Loss::Logistic.value(-2.0, 1.0);
        let l_good = Loss::Logistic.value(2.0, 1.0);
        assert!(l_good < l_bad);
    }

    #[test]
    fn gradient_is_zero_at_minimum() {
        // Squared error: minimum at margin == label.
        let gp = Loss::SquaredError.grad(1.5, 1.5);
        assert_eq!(gp.g, 0.0);
    }

    #[test]
    fn loss_names_are_distinct() {
        assert_ne!(Loss::SquaredError.name(), Loss::Logistic.name());
    }

    #[test]
    fn quantile_gradients_match_the_closed_form() {
        let loss = Loss::Quantile { alpha: 0.9 };
        // Below the label the subgradient is -alpha, above it 1 - alpha.
        assert_eq!(loss.grad(1.0, 5.0), GradPair::new(-0.9, 1.0));
        assert_eq!(loss.grad(9.0, 5.0), GradPair::new(1.0 - 0.9, 1.0));
        // Pinball value: alpha * under-shoot, (1-alpha) * over-shoot.
        assert!((loss.value(1.0, 5.0) - 0.9 * 4.0).abs() < 1e-12);
        assert!((loss.value(9.0, 5.0) - 0.1 * 4.0).abs() < 1e-12);
        // grad_value is bit-identical to the separate calls.
        let (gp, v) = loss.grad_value(2.5, 5.0);
        assert_eq!(gp, loss.grad(2.5, 5.0));
        assert_eq!(v.to_bits(), loss.value(2.5, 5.0).to_bits());
        // The base score and transform are the identity family.
        assert_eq!(loss.base_score(3.0), 3.0);
        assert_eq!(loss.transform(1.25), 1.25);
    }

    #[test]
    fn softmax_rows_are_probabilities_and_shift_invariant() {
        let mut row = [1.0, 2.0, 3.0];
        softmax_inplace(&mut row);
        let sum: f64 = row.iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
        assert!(row[2] > row[1] && row[1] > row[0]);
        // Max-subtraction makes huge margins safe.
        let mut big = [1000.0, 1001.0];
        softmax_inplace(&mut big);
        assert!(big.iter().all(|p| p.is_finite()));
        assert!((big[0] + big[1] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn softmax_grad_refresh_matches_hand_computation() {
        // One record, 3 classes, all margins zero: p = 1/3 each.
        let margins = [0.0, 0.0, 0.0];
        let labels = [1.0f32];
        let mut grads = [GradPair::zero(); 3];
        let loss = softmax_grad_refresh(&margins, &labels, 3, &mut grads);
        let third: f64 = 1.0 / 3.0;
        assert!((loss - (-third.ln())).abs() < 1e-12);
        for (c, gp) in grads.iter().enumerate() {
            let target = if c == 1 { 1.0 } else { 0.0 };
            assert!((gp.g - (third - target)).abs() < 1e-12, "class {c}");
            assert!((gp.h - third * (1.0 - third)).abs() < 1e-12, "class {c}");
        }
        // Gradients over a record sum to zero (softmax identity).
        let g_sum: f64 = grads.iter().map(|gp| gp.g).sum();
        assert!(g_sum.abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "class index")]
    fn softmax_grad_refresh_rejects_non_class_labels() {
        let mut grads = [GradPair::zero(); 2];
        softmax_grad_refresh(&[0.0, 0.0], &[1.5f32], 2, &mut grads);
    }

    #[test]
    fn lambdarank_refresh_is_deterministic_and_pushes_relevant_up() {
        // One query of 3 docs; the relevant doc (rel 2) currently ranks
        // last, so its λ-gradient must pull it up (g < 0 — gradients
        // point toward loss increase, weights move against them).
        let margins = [2.0, 1.0, 0.0];
        let labels = [0.0f32, 0.0, 2.0];
        let groups = [3u32];
        let mut grads = [GradPair::zero(); 3];
        let loss_a = lambdarank_grad_refresh(&margins, &labels, &groups, &mut grads);
        assert!(grads[2].g < 0.0, "relevant doc must be pulled up, got {}", grads[2].g);
        assert!(grads[0].g > 0.0, "irrelevant doc above it must be pushed down");
        assert!(grads.iter().all(|gp| gp.h > 0.0));
        // Identical inputs refresh to bit-identical gradients.
        let mut again = [GradPair::zero(); 3];
        let loss_b = lambdarank_grad_refresh(&margins, &labels, &groups, &mut again);
        assert_eq!(loss_a.to_bits(), loss_b.to_bits());
        for (a, b) in grads.iter().zip(&again) {
            assert_eq!(a.g.to_bits(), b.g.to_bits());
            assert_eq!(a.h.to_bits(), b.h.to_bits());
        }
        // A group with no relevant docs contributes no pairs: zero loss,
        // floored hessians.
        let mut idle = [GradPair::zero(); 2];
        let l = lambdarank_grad_refresh(&[1.0, 0.0], &[0.0, 0.0], &[2], &mut idle);
        assert_eq!(l, 0.0);
        assert!(idle.iter().all(|gp| gp.g == 0.0 && gp.h == 1e-16));
    }

    #[test]
    fn objective_arity_and_scalar_lowering() {
        assert_eq!(Objective::SquaredError.num_outputs(), 1);
        assert_eq!(Objective::Logistic.num_outputs(), 1);
        assert_eq!(Objective::LambdaRank.num_outputs(), 1);
        assert_eq!(Objective::PinballQuantile { alpha: 0.5 }.num_outputs(), 1);
        assert_eq!(Objective::Softmax { num_class: 7 }.num_outputs(), 7);
        assert_eq!(Objective::SquaredError.scalar_loss(), Some(Loss::SquaredError));
        assert_eq!(Objective::Logistic.scalar_loss(), Some(Loss::Logistic));
        assert_eq!(
            Objective::PinballQuantile { alpha: 0.25 }.scalar_loss(),
            Some(Loss::Quantile { alpha: 0.25 })
        );
        assert_eq!(Objective::Softmax { num_class: 3 }.scalar_loss(), None);
        assert_eq!(Objective::LambdaRank.scalar_loss(), None);
        // From<Loss> and scalar_loss are inverses on the scalar family.
        for loss in [Loss::SquaredError, Loss::Logistic, Loss::Quantile { alpha: 0.1 }] {
            assert_eq!(Objective::from(loss).scalar_loss(), Some(loss));
        }
    }

    #[test]
    fn objective_validate_bounds_parameters() {
        assert!(Objective::Softmax { num_class: 2 }.validate().is_ok());
        assert!(Objective::Softmax { num_class: 1 }.validate().is_err());
        assert!(Objective::PinballQuantile { alpha: 0.5 }.validate().is_ok());
        for alpha in [0.0, 1.0, -0.1, f64::NAN] {
            assert!(Objective::PinballQuantile { alpha }.validate().is_err(), "alpha {alpha}");
        }
        assert!(Objective::LambdaRank.validate().is_ok());
    }

    #[test]
    fn objective_transform_agrees_with_loss_transform() {
        for (objective, loss) in [
            (Objective::SquaredError, Loss::SquaredError),
            (Objective::Logistic, Loss::Logistic),
            (Objective::PinballQuantile { alpha: 0.75 }, Loss::Quantile { alpha: 0.75 }),
        ] {
            for m in [-3.0, 0.0, 0.5, 10.0] {
                assert_eq!(objective.transform(m).to_bits(), loss.transform(m).to_bits());
            }
            assert_eq!(objective.name(), loss.name(), "name table must not drift");
        }
        // transform_outputs on a softmax row is the softmax link.
        let mut row = [0.0, 1.0];
        Objective::Softmax { num_class: 2 }.transform_outputs(&mut row);
        assert!((row[0] + row[1] - 1.0).abs() < 1e-12);
    }
}
