//! Training configuration, instrumentation types and the sequential
//! execution backend — plus the entry points `train` and `train_with`,
//! which call the growth engine in [`crate::grow`] without an
//! evaluation set ([`crate::grow::grow_forest_with_eval`] attaches
//! one).
//!
//! The engine grows the ensemble one tree at a time (Step 6 of Table I)
//! and each tree in the order picked by
//! [`TrainConfig::growth`](crate::grow::GrowthStrategy), interleaving:
//!
//! 1. histogram binning of the relevant records (with the smaller-child
//!    subtraction optimization — only the child with fewer records is
//!    binned explicitly),
//! 2. split finding over histogram bins,
//! 3. single-predicate partitioning of the relevant records (reading only
//!    the predicate's single-field column, per the redundant format),
//! 5. one-tree traversal updating every record's `(g, h)` and the total
//!    loss.
//!
//! Every section is wall-clock timed ([`StepTimes`], regenerating Fig 6)
//! and work-counted, and — when enabled — logged as phase descriptors
//! ([`PhaseLog`]) that the `booster-sim` timing models consume.

use std::fmt;
use std::time::Duration;

use serde::{Deserialize, Serialize};

use crate::columnar::{ColumnRef, ColumnarMirror};
use crate::gradients::{GradPair, Loss, Objective};
use crate::grow::{grow_forest_with_eval, GrowthStrategy};
use crate::histogram::{sum_grad_pairs, NodeHistogram};
use crate::metrics::EvalMetric;
use crate::partition::partition_rows;
use crate::phases::PhaseLog;
use crate::predict::Model;
use crate::preprocess::BinnedDataset;
use crate::split::{SplitParams, SplitRule};
use crate::tree::Tree;
use crate::walk::TreeWalk;

/// Pluggable execution backend for the record-heavy steps (1, 3 and 5).
///
/// The sequential backend reproduces the paper's single-thread runs
/// (Fig 6); the rayon backend in [`crate::parallel`] reproduces the
/// multicore software implementation of Section II-D (record-partitioned
/// private histograms + reduction).
///
/// Histograms exist for scanned vertices only: the engine calls
/// [`Self::bin_records`] for a tree's root and for the smaller child of
/// a split whose children Step 2 will scan. Children at `max_depth`
/// become leaves unscanned, and a leaf weight reads the vertex's
/// gradient total alone — [`Self::vertex_total`] is the one other
/// Step-1 entry point, and it touches no bins.
pub trait StepExecutor: Sync {
    /// Step 1: bin `rows` into `hist`; returns the number of histogram
    /// updates performed. Backends may stream either the row-major
    /// matrix of `data` or the per-field columns of `columnar`
    /// (field-parallel binning) — both orders are bit-identical per bin.
    fn bin_records(
        &self,
        data: &BinnedDataset,
        columnar: &ColumnarMirror,
        rows: &[u32],
        grads: &[GradPair],
        hist: &mut NodeHistogram,
    ) -> u64;

    /// Step 1 for a vertex nobody will scan: the gradient total of
    /// `rows`, bit for bit the `hist.total()` that [`Self::bin_records`]
    /// would leave behind for the same rows. The default is the
    /// four-lane reduction every local backend's build ends with
    /// ([`sum_grad_pairs`]); only a backend that does not hold the
    /// gradients (distributed training) overrides it.
    fn vertex_total(&self, rows: &[u32], grads: &[GradPair]) -> GradPair {
        sum_grad_pairs(rows, grads)
    }

    /// Step 3: partition `rows` by a predicate over a single-field column.
    /// Must be order-preserving. `field` names the column's field index —
    /// local backends read the data through `column` directly, while
    /// remote backends ship `field` so workers can resolve their own
    /// shard's column.
    fn partition(
        &self,
        rows: &[u32],
        column: ColumnRef<'_>,
        field: usize,
        rule: SplitRule,
        default_left: bool,
        absent_bin: u32,
    ) -> (Vec<u32>, Vec<u32>);

    /// Step 5: traverse `tree` for every record, update margins and
    /// gradients in place; returns `(sum of path lengths, total loss)`.
    /// The local backends lower the tree once and run the lane walk
    /// batch inference runs ([`crate::walk::TreeWalk`]): blocks of leaf
    /// indices first, then the margin / gradient / loss refresh over
    /// each block in row order.
    fn traverse_update(
        &self,
        data: &BinnedDataset,
        tree: &Tree,
        loss: Loss,
        labels: &[f32],
        margins: &mut [f64],
        grads: &mut [GradPair],
    ) -> (u64, f64);
}

/// Lower a finished tree for Step 5's lane walk.
///
/// # Panics
/// Panics, naming the broken invariant, if `tree` is not one the grower
/// could have built for `data` ([`TreeWalk::lower`]): a caller-built
/// tree is rejected here, before the walk's unchecked indexing.
pub(crate) fn lower_for_step5(tree: &Tree, data: &BinnedDataset) -> TreeWalk {
    TreeWalk::lower(tree, data).unwrap_or_else(|e| panic!("Step 5 cannot walk this tree: {e}"))
}

/// Single-threaded execution (the paper's sequential configuration).
#[derive(Debug, Clone, Copy, Default)]
pub struct SequentialExec;

impl StepExecutor for SequentialExec {
    fn bin_records(
        &self,
        data: &BinnedDataset,
        columnar: &ColumnarMirror,
        rows: &[u32],
        grads: &[GradPair],
        hist: &mut NodeHistogram,
    ) -> u64 {
        // A row set as large as the dataset can only be the full
        // ascending range (ids are unique, in-range, and every subset
        // the grower builds is ascending); anything smaller is a
        // sampled root or an interior vertex.
        let dense = rows.len() == data.num_records();
        debug_assert!(!dense || rows.iter().enumerate().all(|(i, &r)| i as u32 == r));
        hist.bin_columns(columnar, (!dense).then_some(rows), grads);
        rows.len() as u64 * data.num_fields() as u64
    }

    fn partition(
        &self,
        rows: &[u32],
        column: ColumnRef<'_>,
        _field: usize,
        rule: SplitRule,
        default_left: bool,
        absent_bin: u32,
    ) -> (Vec<u32>, Vec<u32>) {
        partition_rows(rows, column, rule, default_left, absent_bin)
    }

    fn traverse_update(
        &self,
        data: &BinnedDataset,
        tree: &Tree,
        loss: Loss,
        labels: &[f32],
        margins: &mut [f64],
        grads: &mut [GradPair],
    ) -> (u64, f64) {
        let mut total_loss = 0.0f64;
        let sum_path = lower_for_step5(tree, data).traverse_update(
            data,
            0,
            loss,
            labels,
            margins,
            grads,
            |_, value| total_loss += value,
        );
        (sum_path, total_loss)
    }
}

/// Training configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TrainConfig {
    /// Number of boosting rounds (the paper trains 500 per dataset).
    /// A round grows one tree per model output: one tree for every
    /// objective but softmax, which grows `num_class`.
    pub num_trees: usize,
    /// Maximum tree depth (the paper uses up to 6).
    pub max_depth: u32,
    /// Shrinkage applied to leaf weights.
    pub learning_rate: f64,
    /// Training objective. Every objective trains through the same
    /// boosting loop; softmax grows one tree per class per round and
    /// LambdaRank needs query groups on the training set.
    pub objective: Objective,
    /// Split-evaluation parameters (Step 2).
    pub split: SplitParams,
    /// Record phase descriptors for the timing simulators.
    pub collect_phases: bool,
    /// Stop adding trees once the mean loss stops improving by at least
    /// this amount (Step 6's "if the loss continues to decrease").
    pub min_loss_decrease: Option<f64>,
    /// Stochastic GB (Friedman 2002): fraction of records sampled per
    /// tree (1.0 disables sampling).
    pub subsample: f64,
    /// Fraction of fields considered for splits per tree (1.0 disables
    /// column sampling).
    pub colsample_bytree: f64,
    /// Fraction of the tree's fields re-drawn for every vertex (1.0
    /// disables per-node column sampling). Applied on top of
    /// `colsample_bytree`: each vertex's candidate set is a fresh subset
    /// of the tree's mask.
    pub colsample_bynode: f64,
    /// Seed for the sampling RNG (training is deterministic in it).
    pub seed: u64,
    /// Validation-driven early stopping. Requires an evaluation set
    /// ([`EvalSet`]): training stops once the eval metric has not
    /// improved for `patience` rounds and the model is truncated back to
    /// its best iteration. The metric must be defined for the objective
    /// ([`EvalMetric::is_defined_for`]).
    pub early_stopping: Option<EarlyStopping>,
    /// Tree-growth order: vertex-wise (default), level-wise, or
    /// best-first leaf-wise under a leaf budget.
    pub growth: GrowthStrategy,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            num_trees: 100,
            max_depth: 6,
            learning_rate: 0.1,
            objective: Objective::SquaredError,
            split: SplitParams::default(),
            collect_phases: false,
            min_loss_decrease: None,
            subsample: 1.0,
            colsample_bytree: 1.0,
            colsample_bynode: 1.0,
            seed: 0,
            early_stopping: None,
            growth: GrowthStrategy::VertexWise,
        }
    }
}

/// Validation-driven early stopping: after each boosting round the
/// held-out [`EvalSet`] is scored with `metric`; once `patience`
/// consecutive rounds fail to improve the best value by more than
/// `min_delta`, training stops and the model is truncated to its best
/// iteration (recorded in [`TrainReport::best_iteration`]).
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct EarlyStopping {
    /// Metric tracked on the evaluation set.
    pub metric: EvalMetric,
    /// Rounds without improvement tolerated before stopping (≥ 1).
    pub patience: usize,
    /// Minimum improvement that resets the patience counter (≥ 0).
    pub min_delta: f64,
}

impl Default for EarlyStopping {
    fn default() -> Self {
        EarlyStopping { metric: EvalMetric::Loss, patience: 10, min_delta: 0.0 }
    }
}

/// A held-out evaluation set for the early-stopping pipeline.
///
/// The wrapped dataset must be binned with the **training binnings**
/// (tree predicates reference training bin indices) — use
/// [`BinnedDataset::from_dataset_with_binnings`](crate::preprocess::BinnedDataset::from_dataset_with_binnings)
/// or a joint-binning split helper such as
/// `booster_datagen::generate_binned_split`. Schema arity is checked
/// against the training set when training starts.
#[derive(Debug, Clone, Copy)]
pub struct EvalSet<'a> {
    data: &'a BinnedDataset,
}

impl<'a> EvalSet<'a> {
    /// Wrap a binned evaluation set.
    ///
    /// # Panics
    /// Panics if the set is empty (an empty set can never rank
    /// iterations).
    pub fn new(data: &'a BinnedDataset) -> Self {
        assert!(data.num_records() > 0, "evaluation set must not be empty");
        EvalSet { data }
    }

    /// The wrapped dataset.
    pub fn data(&self) -> &'a BinnedDataset {
        self.data
    }
}

/// A [`TrainConfig`] bound violation, reported by
/// [`TrainConfig::validate`] before any training work starts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError {
    /// The offending configuration field.
    pub field: &'static str,
    /// Human-readable description of the violated bound.
    pub message: String,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.field, self.message)
    }
}

impl std::error::Error for ConfigError {}

/// Deepest tree the flat `u32` node indexing can sensibly address; far
/// beyond any useful GBDT depth (the paper trains at depth 6).
pub const MAX_SUPPORTED_DEPTH: u32 = 30;

impl TrainConfig {
    /// The paper's evaluation configuration: 500 trees of depth up to 6.
    pub fn paper() -> Self {
        TrainConfig { num_trees: 500, max_depth: 6, ..Default::default() }
    }

    /// Check every field against its documented bounds, returning a
    /// descriptive [`ConfigError`] for the first violation instead of
    /// failing deep inside the training loop.
    pub fn validate(&self) -> Result<(), ConfigError> {
        let err = |field: &'static str, message: String| Err(ConfigError { field, message });
        if self.num_trees == 0 {
            return err("num_trees", "must be at least 1".into());
        }
        if let Err(message) = self.objective.validate() {
            return err("objective", message);
        }
        if self.max_depth > MAX_SUPPORTED_DEPTH {
            return err(
                "max_depth",
                format!("must be at most {MAX_SUPPORTED_DEPTH}, got {}", self.max_depth),
            );
        }
        if !(self.learning_rate.is_finite() && self.learning_rate > 0.0) {
            return err(
                "learning_rate",
                format!("must be finite and positive, got {}", self.learning_rate),
            );
        }
        if !(self.subsample > 0.0 && self.subsample <= 1.0) {
            return err("subsample", format!("must be in (0, 1], got {}", self.subsample));
        }
        if !(self.colsample_bytree > 0.0 && self.colsample_bytree <= 1.0) {
            return err(
                "colsample_bytree",
                format!("must be in (0, 1], got {}", self.colsample_bytree),
            );
        }
        if !(self.colsample_bynode > 0.0 && self.colsample_bynode <= 1.0) {
            return err(
                "colsample_bynode",
                format!("must be in (0, 1], got {}", self.colsample_bynode),
            );
        }
        if let Some(es) = &self.early_stopping {
            if es.patience == 0 {
                return err("early_stopping.patience", "must be at least 1".into());
            }
            if !(es.min_delta.is_finite() && es.min_delta >= 0.0) {
                return err(
                    "early_stopping.min_delta",
                    format!("must be finite and non-negative, got {}", es.min_delta),
                );
            }
            if !es.metric.is_defined_for(&self.objective) {
                let (metric, objective) = (es.metric.name(), self.objective.name());
                return err(
                    "early_stopping.metric",
                    format!("{metric} is not defined for {objective} models"),
                );
            }
        }
        if !(self.split.lambda.is_finite() && self.split.lambda >= 0.0) {
            return err(
                "split.lambda",
                format!("must be finite and non-negative, got {}", self.split.lambda),
            );
        }
        if !(self.split.gamma.is_finite() && self.split.gamma >= 0.0) {
            return err(
                "split.gamma",
                format!("must be finite and non-negative, got {}", self.split.gamma),
            );
        }
        if !(self.split.min_child_weight.is_finite() && self.split.min_child_weight >= 0.0) {
            return err(
                "split.min_child_weight",
                format!("must be finite and non-negative, got {}", self.split.min_child_weight),
            );
        }
        if let Some(d) = self.min_loss_decrease {
            if !d.is_finite() {
                return err("min_loss_decrease", format!("must be finite, got {d}"));
            }
        }
        if let GrowthStrategy::LeafWise { max_leaves } = self.growth {
            if max_leaves < 2 {
                return err(
                    "growth.max_leaves",
                    format!("leaf-wise growth needs a budget of at least 2, got {max_leaves}"),
                );
            }
        }
        Ok(())
    }
}

/// Wall-clock time per algorithm step (Fig 6's breakdown).
#[derive(Debug, Clone, Copy, Default)]
pub struct StepTimes {
    /// Step 1: histogram binning.
    pub step1: Duration,
    /// Step 2: split finding.
    pub step2: Duration,
    /// Step 3: single-predicate partitioning.
    pub step3: Duration,
    /// Step 5: one-tree traversal + gradient update.
    pub step5: Duration,
    /// Everything else (initialization, bookkeeping).
    pub other: Duration,
}

impl StepTimes {
    /// Total measured time.
    pub fn total(&self) -> Duration {
        self.step1 + self.step2 + self.step3 + self.step5 + self.other
    }

    /// Fractions `[step1, step2, step3, step5, other]` of the total.
    pub fn fractions(&self) -> [f64; 5] {
        let t = self.total().as_secs_f64().max(1e-12);
        [
            self.step1.as_secs_f64() / t,
            self.step2.as_secs_f64() / t,
            self.step3.as_secs_f64() / t,
            self.step5.as_secs_f64() / t,
            self.other.as_secs_f64() / t,
        ]
    }
}

/// Work counters (architecture-independent operation counts).
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct WorkCounters {
    /// Records explicitly histogram-binned (Step 1): every root's, plus
    /// the smaller child's of every split whose children are scanned.
    /// Children at `max_depth` are never binned — only their gradient
    /// totals are reduced ([`StepExecutor::vertex_total`]), which
    /// updates no bin and is not counted here.
    pub step1_records: u64,
    /// Histogram bin updates = records binned × fields (Step 1).
    pub step1_updates: u64,
    /// Split scans performed (Step 2).
    pub step2_scans: u64,
    /// Bins scanned across all split scans (Step 2).
    pub step2_bins: u64,
    /// Records partitioned (Step 3).
    pub step3_records: u64,
    /// Records traversed (Step 5).
    pub step5_records: u64,
    /// Tree-table lookups = sum of path lengths (Step 5).
    pub step5_lookups: u64,
}

/// Everything the trainer reports besides the model.
#[derive(Debug, Clone)]
pub struct TrainReport {
    /// Wall-clock per step.
    pub times: StepTimes,
    /// Operation counts per step.
    pub work: WorkCounters,
    /// Phase descriptors (present iff `collect_phases`).
    pub phase_log: Option<PhaseLog>,
    /// Mean training loss after each boosting round (a round is one
    /// tree, except under softmax, where it is `num_class` trees).
    pub loss_history: Vec<f64>,
    /// Per-round evaluation metric on the held-out set (present iff an
    /// [`EvalSet`] was provided; one entry per round actually trained).
    pub eval_history: Option<Vec<f64>>,
    /// Tree count of the best model under the eval metric — the best
    /// round times the trees per round, so always a round boundary
    /// (present iff an [`EvalSet`] was provided). With early stopping
    /// enabled the returned model is truncated to exactly this many
    /// trees.
    pub best_iteration: Option<usize>,
}

/// Train a model sequentially on a binned dataset with its columnar
/// mirror.
pub fn train(
    data: &BinnedDataset,
    columnar: &ColumnarMirror,
    cfg: &TrainConfig,
) -> (Model, TrainReport) {
    train_with(data, columnar, cfg, &SequentialExec)
}

/// Train a model with an explicit execution backend and no evaluation
/// set; the growth order is taken from `cfg.growth`.
pub fn train_with(
    data: &BinnedDataset,
    columnar: &ColumnarMirror,
    cfg: &TrainConfig,
    exec: &dyn StepExecutor,
) -> (Model, TrainReport) {
    grow_forest_with_eval(data, columnar, cfg, exec, None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{Dataset, RawValue};
    use crate::metrics;
    use crate::schema::{DatasetSchema, FieldSchema};

    fn xor_like_dataset(n: usize) -> (BinnedDataset, ColumnarMirror) {
        // y = 1 iff (x0 >= 0.5) xor (x1 >= 0.5): needs depth >= 2.
        let schema = DatasetSchema::new(vec![
            FieldSchema::numeric_with_bins("x0", 32),
            FieldSchema::numeric_with_bins("x1", 32),
        ]);
        let mut ds = Dataset::new(schema);
        let mut state = 0x12345678u64;
        let mut rng = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) as f32) / (u32::MAX >> 1) as f32
        };
        for _ in 0..n {
            let a = rng();
            let b = rng();
            let y = ((a >= 0.5) ^ (b >= 0.5)) as u8 as f32;
            ds.push_record(&[RawValue::Num(a), RawValue::Num(b)], y);
        }
        let binned = BinnedDataset::from_dataset(&ds);
        let mirror = ColumnarMirror::from_binned(&binned);
        (binned, mirror)
    }

    #[test]
    fn training_reduces_loss_monotonically_at_start() {
        let (data, mirror) = xor_like_dataset(2000);
        let cfg = TrainConfig { num_trees: 20, max_depth: 3, ..Default::default() };
        let (_, report) = train(&data, &mirror, &cfg);
        assert_eq!(report.loss_history.len(), 20);
        assert!(
            report.loss_history.last().unwrap() < &report.loss_history[0],
            "loss must decrease: {:?}",
            report.loss_history
        );
    }

    #[test]
    fn learns_xor_to_high_accuracy() {
        let (data, mirror) = xor_like_dataset(4000);
        let cfg = TrainConfig {
            num_trees: 60,
            max_depth: 4,
            learning_rate: 0.3,
            objective: Objective::Logistic,
            ..Default::default()
        };
        let (model, _) = train(&data, &mirror, &cfg);
        let preds = model.predict_batch(&data);
        let labels: Vec<f64> = data.labels().iter().map(|&y| f64::from(y)).collect();
        let acc = metrics::accuracy(&preds, &labels, 0.5);
        assert!(acc > 0.95, "xor accuracy too low: {acc}");
    }

    #[test]
    fn respects_max_depth() {
        let (data, mirror) = xor_like_dataset(1000);
        for depth in [1u32, 2, 4] {
            let cfg = TrainConfig { num_trees: 5, max_depth: depth, ..Default::default() };
            let (model, _) = train(&data, &mirror, &cfg);
            assert!(model.max_depth() <= depth, "depth {depth} violated");
        }
    }

    #[test]
    fn phase_log_consistency() {
        let (data, mirror) = xor_like_dataset(1500);
        let cfg =
            TrainConfig { num_trees: 8, max_depth: 4, collect_phases: true, ..Default::default() };
        let (model, report) = train(&data, &mirror, &cfg);
        let log = report.phase_log.expect("phases collected");
        assert_eq!(log.trees.len(), model.num_trees());
        assert_eq!(log.num_records, 1500);
        // Work counters must agree with the log.
        assert_eq!(log.total_bin_updates(), report.work.step1_updates);
        assert_eq!(log.total_partition_records(), report.work.step3_records);
        assert_eq!(log.total_traversal_lookups(), report.work.step5_lookups);
        for (t, tp) in log.trees.iter().enumerate() {
            // Root is always explicitly binned with all records.
            assert_eq!(tp.nodes[0].bin.n_binned, 1500, "tree {t} root");
            assert_eq!(tp.traversal.n_records, 1500);
            // Partition children counts sum to the parent.
            for np in &tp.nodes {
                if let Some(p) = &np.partition {
                    assert_eq!(p.n_left + p.n_right, p.n_records);
                }
            }
        }
    }

    #[test]
    fn smaller_child_binning_saves_work() {
        let (data, mirror) = xor_like_dataset(2000);
        let cfg =
            TrainConfig { num_trees: 10, max_depth: 5, collect_phases: true, ..Default::default() };
        let (_, report) = train(&data, &mirror, &cfg);
        let log = report.phase_log.unwrap();
        // Explicitly-binned records must be at most half of reaching
        // records, over all non-root vertices.
        let mut binned = 0u64;
        let mut reaching = 0u64;
        for tp in &log.trees {
            for np in tp.nodes.iter().skip(1) {
                binned += np.bin.n_binned as u64;
                reaching += np.bin.n_reaching as u64;
            }
        }
        assert!(binned * 2 <= reaching + 1, "binned {binned} vs reaching {reaching}");
    }

    #[test]
    fn early_stop_on_no_improvement() {
        let (data, mirror) = xor_like_dataset(500);
        let cfg = TrainConfig {
            num_trees: 200,
            max_depth: 4,
            learning_rate: 0.5,
            min_loss_decrease: Some(1e-4),
            ..Default::default()
        };
        let (model, _) = train(&data, &mirror, &cfg);
        assert!(model.num_trees() < 200, "early stopping should have kicked in");
    }

    #[test]
    fn constant_labels_yield_single_leaf_trees() {
        let schema = DatasetSchema::new(vec![FieldSchema::numeric_with_bins("x", 8)]);
        let mut ds = Dataset::new(schema);
        for i in 0..100 {
            ds.push_record(&[RawValue::Num(i as f32)], 2.5);
        }
        let data = BinnedDataset::from_dataset(&ds);
        let mirror = ColumnarMirror::from_binned(&data);
        let cfg = TrainConfig { num_trees: 3, ..Default::default() };
        let (model, _) = train(&data, &mirror, &cfg);
        for t in &model.trees {
            assert_eq!(t.num_leaves(), 1, "pure labels must not split");
        }
        // Prediction equals the label mean.
        let p = model.predict_binned(&data, 0);
        assert!((p - 2.5).abs() < 1e-9, "prediction {p}");
    }

    #[test]
    fn early_stopping_trims_to_best_eval_iteration() {
        let (data, mirror) = xor_like_dataset(3000);
        // A *mismatched* eval set (different seed region): training loss
        // keeps falling, eval loss bottoms out earlier.
        let (eval, _) = {
            let schema = data.schema().clone();
            let mut ds = crate::dataset::Dataset::new(schema);
            let mut state = 0xDEADBEEFu64;
            let mut rng = move || {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                ((state >> 33) as f32) / (u32::MAX >> 1) as f32
            };
            for _ in 0..1500 {
                let a = rng();
                let b = rng();
                // 15% label noise on the eval distribution.
                let mut y = (a >= 0.5) ^ (b >= 0.5);
                if rng() < 0.15 {
                    y = !y;
                }
                ds.push_record(&[RawValue::Num(a), RawValue::Num(b)], y as u8 as f32);
            }
            let binned = BinnedDataset::from_dataset(&ds);
            let mirror = ColumnarMirror::from_binned(&binned);
            (binned, mirror)
        };
        let cfg = TrainConfig {
            num_trees: 120,
            max_depth: 4,
            learning_rate: 0.4,
            objective: Objective::Logistic,
            early_stopping: Some(EarlyStopping { patience: 10, ..Default::default() }),
            ..Default::default()
        };
        let (model, report) = grow_forest_with_eval(
            &data,
            &mirror,
            &cfg,
            &SequentialExec,
            Some(&EvalSet::new(&eval)),
        );
        let history = report.eval_history.expect("eval set provided");
        assert!(!history.is_empty());
        assert!(model.num_trees() <= history.len());
        // The trimmed size is the argmin of the eval history.
        let argmin =
            history.iter().enumerate().min_by(|a, b| a.1.partial_cmp(b.1).unwrap()).unwrap().0 + 1;
        assert_eq!(model.num_trees(), argmin);
    }

    #[test]
    fn subsample_reduces_step1_work_but_still_learns() {
        let (data, mirror) = xor_like_dataset(4000);
        let full_cfg = TrainConfig {
            num_trees: 30,
            max_depth: 4,
            learning_rate: 0.3,
            objective: Objective::Logistic,
            ..Default::default()
        };
        let sub_cfg = TrainConfig { subsample: 0.5, seed: 5, ..full_cfg.clone() };
        let (_, full_rep) = train(&data, &mirror, &full_cfg);
        let (sub_model, sub_rep) = train(&data, &mirror, &sub_cfg);
        // Roughly half the records binned per tree.
        let ratio = sub_rep.work.step1_records as f64 / full_rep.work.step1_records as f64;
        assert!((0.35..0.65).contains(&ratio), "subsample work ratio {ratio}");
        // Still learns the function.
        let preds = sub_model.predict_batch(&data);
        let labels: Vec<f64> = data.labels().iter().map(|&y| f64::from(y)).collect();
        assert!(metrics::accuracy(&preds, &labels, 0.5) > 0.9);
    }

    #[test]
    fn colsample_restricts_fields_used() {
        let (data, mirror) = xor_like_dataset(2000);
        // With only 2 fields and colsample 0.5, some trees must use a
        // single field; every tree uses only masked fields by
        // construction — verify via determinism + convergence.
        let cfg = TrainConfig {
            num_trees: 20,
            max_depth: 3,
            colsample_bytree: 0.5,
            seed: 9,
            ..Default::default()
        };
        let (m1, _) = train(&data, &mirror, &cfg);
        let (m2, _) = train(&data, &mirror, &cfg);
        // Deterministic in the seed.
        assert_eq!(m1.trees, m2.trees);
        // Some tree used fewer fields than the full set.
        assert!(
            m1.trees.iter().any(|t| t.fields_used().len() < 2),
            "expected at least one single-field tree"
        );
    }

    #[test]
    fn different_seeds_give_different_stochastic_models() {
        let (data, mirror) = xor_like_dataset(2000);
        let base =
            TrainConfig { num_trees: 10, max_depth: 3, subsample: 0.6, ..Default::default() };
        let (m1, _) = train(&data, &mirror, &TrainConfig { seed: 1, ..base.clone() });
        let (m2, _) = train(&data, &mirror, &TrainConfig { seed: 2, ..base });
        assert_ne!(m1.trees, m2.trees);
    }

    #[test]
    #[should_panic(expected = "subsample")]
    fn invalid_subsample_rejected() {
        let (data, mirror) = xor_like_dataset(100);
        let cfg = TrainConfig { subsample: 0.0, ..Default::default() };
        let _ = train(&data, &mirror, &cfg);
    }

    #[test]
    fn validate_accepts_defaults_and_paper_config() {
        assert_eq!(TrainConfig::default().validate(), Ok(()));
        assert_eq!(TrainConfig::paper().validate(), Ok(()));
        // Depth 0 is a legal budget (leaf-only trees).
        assert_eq!(TrainConfig { max_depth: 0, ..Default::default() }.validate(), Ok(()));
    }

    #[test]
    fn validate_rejects_out_of_bound_fields() {
        let cases: Vec<(TrainConfig, &str)> = vec![
            (TrainConfig { num_trees: 0, ..Default::default() }, "num_trees"),
            (
                TrainConfig {
                    objective: Objective::Softmax { num_class: 1 },
                    ..Default::default()
                },
                "objective",
            ),
            (
                TrainConfig {
                    objective: Objective::PinballQuantile { alpha: 1.0 },
                    ..Default::default()
                },
                "objective",
            ),
            (
                TrainConfig {
                    objective: Objective::PinballQuantile { alpha: f64::NAN },
                    ..Default::default()
                },
                "objective",
            ),
            (TrainConfig { max_depth: 31, ..Default::default() }, "max_depth"),
            (TrainConfig { learning_rate: 0.0, ..Default::default() }, "learning_rate"),
            (TrainConfig { learning_rate: f64::NAN, ..Default::default() }, "learning_rate"),
            (TrainConfig { subsample: 0.0, ..Default::default() }, "subsample"),
            (TrainConfig { subsample: 1.5, ..Default::default() }, "subsample"),
            (TrainConfig { colsample_bytree: -0.1, ..Default::default() }, "colsample_bytree"),
            (TrainConfig { colsample_bynode: 0.0, ..Default::default() }, "colsample_bynode"),
            (TrainConfig { colsample_bynode: 2.0, ..Default::default() }, "colsample_bynode"),
            (
                TrainConfig {
                    early_stopping: Some(EarlyStopping { patience: 0, ..Default::default() }),
                    ..Default::default()
                },
                "early_stopping.patience",
            ),
            (
                TrainConfig {
                    early_stopping: Some(EarlyStopping {
                        min_delta: f64::NAN,
                        ..Default::default()
                    }),
                    ..Default::default()
                },
                "early_stopping.min_delta",
            ),
            (
                TrainConfig {
                    early_stopping: Some(EarlyStopping { min_delta: -0.5, ..Default::default() }),
                    ..Default::default()
                },
                "early_stopping.min_delta",
            ),
            (
                TrainConfig {
                    objective: Objective::Softmax { num_class: 3 },
                    early_stopping: Some(EarlyStopping {
                        metric: EvalMetric::Auc,
                        ..Default::default()
                    }),
                    ..Default::default()
                },
                "early_stopping.metric",
            ),
            (
                TrainConfig {
                    objective: Objective::LambdaRank,
                    early_stopping: Some(EarlyStopping {
                        metric: EvalMetric::Accuracy,
                        ..Default::default()
                    }),
                    ..Default::default()
                },
                "early_stopping.metric",
            ),
            (
                TrainConfig {
                    split: SplitParams { lambda: -1.0, ..Default::default() },
                    ..Default::default()
                },
                "split.lambda",
            ),
            (
                TrainConfig {
                    split: SplitParams { gamma: f64::INFINITY, ..Default::default() },
                    ..Default::default()
                },
                "split.gamma",
            ),
            (
                TrainConfig {
                    split: SplitParams { min_child_weight: -2.0, ..Default::default() },
                    ..Default::default()
                },
                "split.min_child_weight",
            ),
            (
                TrainConfig { min_loss_decrease: Some(f64::NAN), ..Default::default() },
                "min_loss_decrease",
            ),
            (
                TrainConfig {
                    growth: crate::grow::GrowthStrategy::LeafWise { max_leaves: 1 },
                    ..Default::default()
                },
                "growth.max_leaves",
            ),
        ];
        for (cfg, field) in cases {
            let err = cfg.validate().expect_err(field);
            assert_eq!(err.field, field);
            // The Display form names the field for panic messages.
            assert!(err.to_string().contains(field), "{err}");
        }
    }

    #[test]
    #[should_panic(expected = "num_trees")]
    fn invalid_num_trees_rejected_up_front() {
        let (data, mirror) = xor_like_dataset(50);
        let cfg = TrainConfig { num_trees: 0, ..Default::default() };
        let _ = train(&data, &mirror, &cfg);
    }

    /// A second xor-like table drawn from a different seed region with
    /// label noise: eval loss bottoms out before training loss does.
    fn noisy_eval_like(data: &BinnedDataset, n: usize, noise: f64) -> BinnedDataset {
        let schema = data.schema().clone();
        let mut ds = Dataset::new(schema);
        let mut state = 0xDEADBEEFu64;
        let mut rng = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) as f32) / (u32::MAX >> 1) as f32
        };
        for _ in 0..n {
            let a = rng();
            let b = rng();
            let mut y = (a >= 0.5) ^ (b >= 0.5);
            if f64::from(rng()) < noise {
                y = !y;
            }
            ds.push_record(&[RawValue::Num(a), RawValue::Num(b)], y as u8 as f32);
        }
        crate::preprocess::BinnedDataset::from_dataset_with_binnings(&ds, data.binnings().to_vec())
    }

    #[test]
    fn colsample_bynode_is_deterministic_and_changes_the_model() {
        let (data, mirror) = xor_like_dataset(2000);
        let base = TrainConfig { num_trees: 15, max_depth: 3, seed: 4, ..Default::default() };
        let bynode = TrainConfig { colsample_bynode: 0.5, ..base.clone() };
        let (m1, _) = train(&data, &mirror, &bynode);
        let (m2, _) = train(&data, &mirror, &bynode);
        assert_eq!(m1.trees, m2.trees, "deterministic in the seed");
        // Restricting per-node candidates must alter at least one split
        // relative to the unsampled model.
        let (full, _) = train(&data, &mirror, &base);
        assert_ne!(m1.trees, full.trees);
    }

    #[test]
    fn engine_eval_pipeline_stops_early_and_truncates() {
        use crate::grow::grow_forest_with_eval;
        let (data, mirror) = xor_like_dataset(3000);
        let eval = noisy_eval_like(&data, 1500, 0.15);
        let cfg = TrainConfig {
            num_trees: 120,
            max_depth: 4,
            learning_rate: 0.4,
            objective: Objective::Logistic,
            early_stopping: Some(EarlyStopping {
                metric: EvalMetric::Loss,
                patience: 8,
                min_delta: 0.0,
            }),
            ..Default::default()
        };
        let (model, report) = grow_forest_with_eval(
            &data,
            &mirror,
            &cfg,
            &SequentialExec,
            Some(&EvalSet::new(&eval)),
        );
        let history = report.eval_history.expect("eval history recorded");
        let best = report.best_iteration.expect("best iteration recorded");
        assert!(history.len() < 120, "patience must stop training ({} trees)", history.len());
        assert_eq!(model.num_trees(), best, "model truncated to its best iteration");
        // best is the argmin of the history (first occurrence).
        let argmin =
            history.iter().enumerate().min_by(|a, b| a.1.partial_cmp(b.1).unwrap()).unwrap().0 + 1;
        assert_eq!(best, argmin);
        // Exactly `patience` non-improving trees after the best one.
        assert_eq!(history.len(), best + 8);
        // loss_history covers every tree actually trained.
        assert_eq!(report.loss_history.len(), history.len());
    }

    #[test]
    fn early_stopped_model_is_a_bit_exact_prefix_of_the_full_run() {
        use crate::grow::grow_forest_with_eval;
        let (data, mirror) = xor_like_dataset(2000);
        let eval = noisy_eval_like(&data, 800, 0.2);
        let base = TrainConfig {
            num_trees: 60,
            max_depth: 3,
            learning_rate: 0.5,
            objective: Objective::Logistic,
            subsample: 0.8,
            colsample_bynode: 0.8,
            seed: 12,
            ..Default::default()
        };
        let es_cfg = TrainConfig {
            early_stopping: Some(EarlyStopping { patience: 5, ..Default::default() }),
            ..base.clone()
        };
        let (full, _) = train(&data, &mirror, &base);
        let (stopped, report) = grow_forest_with_eval(
            &data,
            &mirror,
            &es_cfg,
            &SequentialExec,
            Some(&EvalSet::new(&eval)),
        );
        // Early stopping only truncates: the surviving trees are the
        // exact trees the unstopped run grew (sampling streams are
        // independent of evaluation).
        assert!(stopped.num_trees() < full.num_trees());
        assert_eq!(stopped.trees[..], full.trees[..stopped.num_trees()]);
        assert_eq!(report.best_iteration, Some(stopped.num_trees()));
    }

    #[test]
    fn eval_without_early_stopping_records_history_without_truncating() {
        use crate::grow::grow_forest_with_eval;
        let (data, mirror) = xor_like_dataset(1500);
        let eval = noisy_eval_like(&data, 600, 0.1);
        let cfg = TrainConfig { num_trees: 12, max_depth: 3, ..Default::default() };
        let (model, report) = grow_forest_with_eval(
            &data,
            &mirror,
            &cfg,
            &SequentialExec,
            Some(&EvalSet::new(&eval)),
        );
        assert_eq!(model.num_trees(), 12, "no truncation without early stopping");
        assert_eq!(report.eval_history.as_deref().map(<[f64]>::len), Some(12));
        assert!(report.best_iteration.unwrap() <= 12);
    }

    #[test]
    fn auc_early_stopping_tracks_the_higher_is_better_direction() {
        use crate::grow::grow_forest_with_eval;
        let (data, mirror) = xor_like_dataset(2500);
        let eval = noisy_eval_like(&data, 1000, 0.2);
        let cfg = TrainConfig {
            num_trees: 80,
            max_depth: 4,
            learning_rate: 0.5,
            objective: Objective::Logistic,
            early_stopping: Some(EarlyStopping {
                metric: EvalMetric::Auc,
                patience: 6,
                min_delta: 0.0,
            }),
            ..Default::default()
        };
        let (model, report) = grow_forest_with_eval(
            &data,
            &mirror,
            &cfg,
            &SequentialExec,
            Some(&EvalSet::new(&eval)),
        );
        let history = report.eval_history.unwrap();
        let best = report.best_iteration.unwrap();
        assert_eq!(model.num_trees(), best);
        // best is the argmax (first occurrence) under AUC.
        let argmax = history
            .iter()
            .enumerate()
            .rev()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0
            + 1;
        assert_eq!(best, argmax);
        assert!(history.iter().all(|v| (0.0..=1.0).contains(v)));
    }

    #[test]
    #[should_panic(expected = "early_stopping requires an evaluation set")]
    fn early_stopping_without_eval_set_is_rejected() {
        let (data, mirror) = xor_like_dataset(200);
        let cfg = TrainConfig {
            num_trees: 5,
            early_stopping: Some(EarlyStopping::default()),
            ..Default::default()
        };
        let _ = train(&data, &mirror, &cfg);
    }

    #[test]
    #[should_panic(expected = "must not be empty")]
    fn empty_eval_set_is_rejected() {
        let schema = DatasetSchema::new(vec![FieldSchema::numeric_with_bins("x", 4)]);
        let ds = Dataset::new(schema);
        let empty = BinnedDataset::from_dataset(&ds);
        let _ = EvalSet::new(&empty);
    }

    #[test]
    fn step_times_cover_total() {
        let (data, mirror) = xor_like_dataset(1000);
        let cfg = TrainConfig { num_trees: 5, ..Default::default() };
        let (_, report) = train(&data, &mirror, &cfg);
        let fr = report.times.fractions();
        let sum: f64 = fr.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
        assert!(report.times.total() > Duration::ZERO);
    }
}
