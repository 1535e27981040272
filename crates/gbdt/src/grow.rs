//! The unified tree-growth engine: one loop for every growth order ×
//! execution backend.
//!
//! Section II-A of the paper contrasts two ways of scheduling Steps 1–4
//! of Table I: **vertex-by-vertex** (explore one vertex at a time,
//! fetching each vertex's sparse relevant-record subset) and
//! **level-by-level** (explore all valid vertices of a level together,
//! streaming the whole dataset once per level at unit density). A third
//! order used by LightGBM-style systems — **leaf-wise / best-first**
//! growth, where the frontier leaf with the highest split gain is always
//! expanded next under a leaf budget — dominates the wall-clock
//! comparisons in Anghel et al.'s GBDT benchmarking study
//! (arXiv:1809.04559).
//!
//! All three orders perform the *same* per-vertex work: scan the vertex's
//! histograms for the best split (Step 2), partition its relevant records
//! by the chosen predicate (Step 3), then histogram-bin the smaller child
//! explicitly and derive the larger sibling by subtraction (Step 1, the
//! smaller-child optimization). They differ only in *which* frontier
//! vertex is expanded next. This module therefore implements a single
//! engine: a frontier of split-ready vertices plus a [`GrowthStrategy`]
//! that picks the expansion order — depth-first ([`GrowthStrategy::VertexWise`]),
//! breadth-first ([`GrowthStrategy::LevelWise`]), or a best-first priority
//! order ([`GrowthStrategy::LeafWise`]). Every record-heavy step runs
//! through the [`StepExecutor`] trait, so every mode composes with both
//! [`crate::train::SequentialExec`] and [`crate::parallel::ParallelExec`]
//! (including the previously unreachable parallel level-wise
//! configuration) and with the functional device model in `booster-sim`.
//!
//! Shared machinery — base-score/margin/gradient initialization, the
//! outer tree loop with stochastic row/column sampling (all masks drawn
//! from one seeded [`SampleStream`] owned by the engine, never by an
//! executor), the validation pipeline
//! ([`grow_forest_with_eval`]: per-tree eval scoring with
//! patience-based early stopping),
//! [`StepTimes`] / [`WorkCounters`] instrumentation, Step-5 traversal,
//! and [`PhaseLog`] emission — lives here once. Phase descriptors keep their
//! mode-specific *memory access patterns*: vertex-wise and leaf-wise log
//! per-vertex sparse gathers, while level-wise logs dense full-dataset
//! streams per level, which is exactly the trade-off the
//! `ablation_growth` harness quantifies on the timing models.

use std::time::Instant;

use serde::{Deserialize, Serialize};

use crate::columnar::ColumnarMirror;
use crate::gradients::{lambdarank_grad_refresh, softmax_grad_refresh, GradPair, Loss, Objective};
use crate::histogram::{HistogramPool, NodeHistogram};
use crate::metrics::{multi_logloss, multiclass_accuracy, ndcg_at_k, EvalMetric};
use crate::phases::{
    column_blocks, gh_blocks, row_major_blocks, BinPhase, NodePhase, PartitionPhase, PhaseLog,
    TraversalPhase, TreePhases,
};
use crate::predict::Model;
use crate::preprocess::{BinnedDataset, BLOCK_BYTES};
use crate::sample::SampleStream;
use crate::split::{find_best_split, leaf_weight, SplitInfo};
use crate::train::{EvalSet, StepExecutor, StepTimes, TrainConfig, TrainReport, WorkCounters};
use crate::tree::{Node, Tree};

/// The order in which frontier vertices are expanded while growing a
/// tree. Orthogonal to the execution backend: every strategy runs its
/// record-heavy steps through a [`StepExecutor`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum GrowthStrategy {
    /// Depth-first, one vertex at a time (the paper's evaluated
    /// configuration). Each vertex fetches only its sparse
    /// relevant-record subset.
    #[default]
    VertexWise,
    /// Breadth-first: all valid vertices of a level are explored
    /// together, modeling one dense full-dataset stream per level
    /// (Section II-A's second configuration).
    LevelWise,
    /// Best-first: always expand the frontier leaf with the highest
    /// split gain, stopping once the tree has `max_leaves` leaves
    /// (LightGBM-style growth). `cfg.max_depth` still caps depth.
    LeafWise {
        /// Leaf budget per tree; growth stops when reached. Must be
        /// at least 2 (a budget of 1 never splits the root).
        max_leaves: u32,
    },
}

impl GrowthStrategy {
    /// Short human-readable name (used by benches and reports).
    pub fn name(&self) -> &'static str {
        match self {
            GrowthStrategy::VertexWise => "vertex-wise",
            GrowthStrategy::LevelWise => "level-wise",
            GrowthStrategy::LeafWise { .. } => "leaf-wise",
        }
    }
}

/// Train a model: the single engine behind [`crate::train::train`] and
/// [`crate::train::train_with`].
///
/// Grows `cfg.num_trees` trees in `cfg.growth` order, executing Steps 1,
/// 3 and 5 on `exec`, and returns the model plus the instrumented
/// report.
///
/// # Panics
/// Panics with a descriptive message if `cfg` fails
/// [`TrainConfig::validate`] or `data` is empty.
pub fn grow_forest(
    data: &BinnedDataset,
    columnar: &ColumnarMirror,
    cfg: &TrainConfig,
    exec: &dyn StepExecutor,
) -> (Model, TrainReport) {
    grow_forest_with_eval(data, columnar, cfg, exec, None)
}

/// Add one tree's margins over an eval set (the node walk: one new
/// tree per call, so there is no ensemble to lower).
fn add_eval_margins(tree: &Tree, data: &BinnedDataset, margins: &mut [f64]) {
    for (r, m) in margins.iter_mut().enumerate() {
        *m += tree.traverse_binned(data, r).0;
    }
}

/// Per-run state of the validation pipeline: incremental margins over
/// the held-out set, the metric history, and the best iteration so far.
struct EvalState<'a> {
    data: &'a BinnedDataset,
    metric: EvalMetric,
    min_delta: f64,
    /// The scalar loss used by [`EvalMetric::Loss`] and the per-metric
    /// transforms.
    loss: Loss,
    margins: Vec<f64>,
    /// Labels preconverted to `f64` once (they never change per tree).
    labels: Vec<f64>,
    /// Query-group sizes of the eval set, for [`EvalMetric::Ndcg`].
    groups: Option<Vec<u32>>,
    /// Scratch buffer for transformed predictions, reused every tree.
    preds: Vec<f64>,
    history: Vec<f64>,
    /// Tree count of the best model so far (0 until a metric value
    /// improves on [`EvalMetric::worst`]).
    best_iter: usize,
    best_value: f64,
}

impl<'a> EvalState<'a> {
    fn new(ev: &EvalSet<'a>, cfg: &TrainConfig, loss: Loss, base_score: f64) -> Self {
        let metric = cfg.early_stopping.map(|es| es.metric).unwrap_or_default();
        EvalState {
            data: ev.data(),
            metric,
            min_delta: cfg.early_stopping.map(|es| es.min_delta).unwrap_or(0.0),
            loss,
            margins: vec![base_score; ev.data().num_records()],
            labels: ev.data().labels().iter().map(|&y| f64::from(y)).collect(),
            groups: ev.data().query_groups().map(<[u32]>::to_vec),
            preds: Vec::new(),
            history: Vec::new(),
            best_iter: 0,
            best_value: metric.worst(),
        }
    }

    /// Score the newest tree into the margins and update the history and
    /// best-iteration tracking.
    fn score_tree(&mut self, tree: &Tree) {
        add_eval_margins(tree, self.data, &mut self.margins);
        let value = match self.metric {
            // NDCG ranks the eval set by its real query groups when the
            // dataset carries them; a monotone output transform never
            // changes the ranking, so raw margins are scored directly.
            EvalMetric::Ndcg { k } => {
                let whole = [self.margins.len() as u32];
                let groups: &[u32] = self.groups.as_deref().unwrap_or(&whole);
                ndcg_at_k(&self.margins, &self.labels, groups, k as usize)
            }
            _ => {
                self.metric.compute_reusing(self.loss, &self.margins, &self.labels, &mut self.preds)
            }
        };
        self.history.push(value);
        if self.metric.improved(value, self.best_value, self.min_delta) {
            self.best_value = value;
            self.best_iter = self.history.len();
        }
    }
}

/// Score the newest tree against the eval set (if any) and report
/// whether the patience budget is exhausted.
fn eval_and_check(
    eval_state: &mut Option<EvalState<'_>>,
    trees: &[Tree],
    cfg: &TrainConfig,
) -> bool {
    let Some(ev) = eval_state.as_mut() else { return false };
    ev.score_tree(trees.last().expect("a tree was just pushed"));
    match &cfg.early_stopping {
        Some(es) => trees.len() - ev.best_iter >= es.patience,
        None => false,
    }
}

/// [`grow_forest`] with the validation pipeline attached: after every
/// tree the `eval` set is scored and the metric recorded in
/// [`TrainReport::eval_history`]. With
/// [`TrainConfig::early_stopping`] set, training stops once the metric
/// has not improved for `patience` trees and the model is truncated to
/// [`TrainReport::best_iteration`].
///
/// # Panics
/// Additionally panics if `cfg.early_stopping` is set without an eval
/// set, or if the eval set's field arity differs from the training
/// set's.
pub fn grow_forest_with_eval(
    data: &BinnedDataset,
    columnar: &ColumnarMirror,
    cfg: &TrainConfig,
    exec: &dyn StepExecutor,
    eval: Option<&EvalSet<'_>>,
) -> (Model, TrainReport) {
    if let Err(e) = cfg.validate() {
        panic!("invalid TrainConfig: {e}");
    }
    assert!(data.num_records() > 0, "cannot train on an empty dataset");
    assert!(
        cfg.early_stopping.is_none() || eval.is_some(),
        "early_stopping requires an evaluation set (train_with_eval / grow_forest_with_eval)"
    );
    if let Some(ev) = eval {
        assert_eq!(
            ev.data().num_fields(),
            data.num_fields(),
            "eval set schema must match training schema"
        );
    }
    debug_assert!(columnar.is_consistent_with(data), "columnar mirror out of sync");
    // Objectives whose per-record gradients decouple lower to a scalar
    // loss and run the original one-output loop bit-for-bit; the
    // coupled objectives get dedicated loops over the same per-tree
    // engine.
    match cfg.objective.scalar_loss() {
        Some(loss) => grow_scalar(data, columnar, cfg, loss, exec, eval),
        None => match cfg.objective {
            Objective::Softmax { num_class } => {
                grow_softmax(data, columnar, cfg, num_class as usize, exec, eval)
            }
            Objective::LambdaRank => grow_lambdarank(data, columnar, cfg, exec, eval),
            _ => unreachable!("scalar objectives lower to a Loss"),
        },
    }
}

/// The original one-output training loop: margins and gradients are
/// scalar per record, and every boosting round grows exactly one tree.
/// This path is bit-identical to the engine before the multi-output
/// [`Objective`] layer existed.
fn grow_scalar(
    data: &BinnedDataset,
    columnar: &ColumnarMirror,
    cfg: &TrainConfig,
    loss: Loss,
    exec: &dyn StepExecutor,
    eval: Option<&EvalSet<'_>>,
) -> (Model, TrainReport) {
    let n = data.num_records();
    let labels = data.labels();
    // One seeded stream for every sampling decision, owned here —
    // outside the executor — so sequential and parallel backends draw
    // identical masks (the bit-identity invariant).
    let mut sampler = SampleStream::new(cfg.seed);

    let t_init = Instant::now();
    let label_mean = labels.iter().map(|&y| f64::from(y)).sum::<f64>() / n as f64;
    let base_score = loss.base_score(label_mean);
    let mut margins = vec![base_score; n];
    let mut grads: Vec<GradPair> = Vec::with_capacity(n);
    let mut loss_sum = 0.0f64;
    for r in 0..n {
        let (gp, lv) = loss.grad_value(margins[r], f64::from(labels[r]));
        grads.push(gp);
        loss_sum += lv;
    }
    let mut prev_loss = loss_sum / n as f64;

    let init_elapsed = t_init.elapsed();
    crate::telemetry::phase("train_init", t_init, init_elapsed);
    let mut times = StepTimes { other: init_elapsed, ..Default::default() };
    let mut work = WorkCounters::default();
    let mut tree_logs: Vec<TreePhases> = Vec::new();
    let mut loss_history = Vec::with_capacity(cfg.num_trees);
    let mut trees: Vec<Tree> = Vec::with_capacity(cfg.num_trees);
    let mut eval_state: Option<EvalState<'_>> =
        eval.map(|ev| EvalState::new(ev, cfg, loss, base_score));

    // Histogram allocations are recycled across vertices and trees: the
    // pool's peak size is the widest frontier ever reached, not the
    // vertex count.
    let mut pool = HistogramPool::new();

    for _tree_idx in 0..cfg.num_trees {
        // Stochastic GB: sample the records this tree sees.
        let root_rows = sampler.draw_rows(n, cfg.subsample);
        if root_rows.is_empty() {
            // A pathological subsample of a tiny dataset: skip this tree.
            loss_history.push(prev_loss);
            trees.push(Tree::leaf(0.0));
            if eval_and_check(&mut eval_state, &trees, cfg) {
                break;
            }
            continue;
        }
        // Column sampling: restrict this tree's candidate fields.
        let field_mask = sampler.draw_field_mask(data.num_fields(), cfg.colsample_bytree);

        // ---- Grow one tree (Steps 1-4) through the shared engine. ----
        let (tree, phases) = grow_single_tree(
            data,
            columnar,
            cfg,
            exec,
            &mut sampler,
            &mut pool,
            &grads,
            root_rows,
            field_mask.as_deref(),
            &mut times,
            &mut work,
        );

        // ---- Step 5: one-tree traversal, gradient + loss update. ----
        let t5 = Instant::now();
        let (sum_path, total_loss) =
            exec.traverse_update(data, &tree, loss, labels, &mut margins, &mut grads);
        let el5 = t5.elapsed();
        crate::telemetry::phase("step5_traverse", t5, el5);
        times.step5 += el5;
        work.step5_records += n as u64;
        work.step5_lookups += sum_path;

        if cfg.collect_phases {
            tree_logs.push(TreePhases {
                nodes: phases,
                traversal: TraversalPhase {
                    n_records: n,
                    fields_used: tree.fields_used().len(),
                    sum_path_len: sum_path,
                    max_depth: tree.depth(),
                },
            });
        }

        let mean_loss = total_loss / n as f64;
        loss_history.push(mean_loss);
        trees.push(tree);

        // ---- Validation pipeline: score the eval set incrementally. ----
        let patience_exhausted = eval_and_check(&mut eval_state, &trees, cfg);

        if let Some(min_dec) = cfg.min_loss_decrease {
            if prev_loss - mean_loss < min_dec {
                break;
            }
        }
        prev_loss = mean_loss;
        if patience_exhausted {
            break;
        }
    }

    // Record the best iteration and, under early stopping, trim the
    // model back to it (trees are prefix-stable: stopping later never
    // changes earlier trees).
    let (eval_history, best_iteration) = match eval_state {
        Some(ev) => {
            let best = ev.best_iter.max(1);
            if cfg.early_stopping.is_some() {
                trees.truncate(best);
            }
            (Some(ev.history), Some(best))
        }
        None => (None, None),
    };

    let model = Model {
        trees,
        base_score,
        objective: cfg.objective,
        num_outputs: 1,
        schema: data.schema().clone(),
        binnings: data.binnings().to_vec(),
    };
    let phase_log = cfg.collect_phases.then(|| PhaseLog {
        trees: tree_logs,
        num_records: n,
        num_fields: data.num_fields(),
        record_bytes: data.record_bytes(),
        total_bins: data.total_bins(),
        field_entry_bytes: (0..data.num_fields())
            .map(|f| data.binnings()[f].encoded_bytes())
            .collect(),
        field_bins: (0..data.num_fields()).map(|f| data.field_bins(f)).collect(),
    });
    crate::telemetry::train_finished(&times, &work);
    (model, TrainReport { times, work, phase_log, loss_history, eval_history, best_iteration })
}

/// Grow one tree (Steps 1-4) from a per-record gradient slice through
/// the shared frontier engine. The caller owns the sampling stream and
/// has already drawn this tree's root rows and field mask, so the
/// stream order — and with it bit-identity across backends — is fixed
/// by the caller's loop, not by this helper.
#[allow(clippy::too_many_arguments)]
fn grow_single_tree(
    data: &BinnedDataset,
    columnar: &ColumnarMirror,
    cfg: &TrainConfig,
    exec: &dyn StepExecutor,
    sampler: &mut SampleStream,
    pool: &mut HistogramPool,
    grads: &[GradPair],
    root_rows: Vec<u32>,
    field_mask: Option<&[bool]>,
    times: &mut StepTimes,
    work: &mut WorkCounters,
) -> (Tree, Vec<NodePhase>) {
    let mut grower = TreeGrower {
        data,
        columnar,
        grads,
        cfg,
        exec,
        field_mask,
        sampler,
        pool,
        nodes: vec![Node::Leaf { weight: 0.0 }],
        phases: Vec::new(),
        frontier: Vec::new(),
        leaves: 1,
        seq: 0,
        dense_scanned_depth: None,
        times,
        work,
    };
    grower.seed_root(root_rows);
    match cfg.growth {
        GrowthStrategy::VertexWise => grower.grow_depth_first(),
        GrowthStrategy::LevelWise => grower.grow_breadth_first(),
        GrowthStrategy::LeafWise { max_leaves } => grower.grow_best_first(max_leaves),
    }
    let (nodes, phases) = grower.finish();
    (Tree::new(nodes), phases)
}

/// Validation state for softmax training: a row-major `n x k` margin
/// matrix over the eval set, scored once per boosting round.
struct MultiEvalState<'a> {
    data: &'a BinnedDataset,
    metric: EvalMetric,
    min_delta: f64,
    k: usize,
    /// Row-major `n_eval x k`.
    margins: Vec<f64>,
    labels: Vec<f64>,
    history: Vec<f64>,
    /// Round count of the best model so far.
    best_round: usize,
    best_value: f64,
}

impl<'a> MultiEvalState<'a> {
    fn new(ev: &EvalSet<'a>, cfg: &TrainConfig, k: usize) -> Self {
        let metric = cfg.early_stopping.map(|es| es.metric).unwrap_or_default();
        MultiEvalState {
            data: ev.data(),
            metric,
            min_delta: cfg.early_stopping.map(|es| es.min_delta).unwrap_or(0.0),
            k,
            margins: vec![0.0; ev.data().num_records() * k],
            labels: ev.data().labels().iter().map(|&y| f64::from(y)).collect(),
            history: Vec::new(),
            best_round: 0,
            best_value: metric.worst(),
        }
    }

    /// Accumulate one class tree's margins into column `class` of the
    /// eval margin matrix.
    fn add_tree(&mut self, tree: &Tree, class: usize) {
        for (r, row) in self.margins.chunks_mut(self.k).enumerate() {
            row[class] += tree.traverse_binned(self.data, r).0;
        }
    }

    /// Score the completed round's full output vector and update the
    /// history and best-round tracking.
    fn score_round(&mut self) {
        let value = match self.metric {
            EvalMetric::Loss | EvalMetric::MultiLogloss => {
                multi_logloss(&self.margins, &self.labels, self.k)
            }
            EvalMetric::Accuracy => multiclass_accuracy(&self.margins, &self.labels, self.k),
            m => panic!("eval metric {} is not defined for softmax models", m.name()),
        };
        self.history.push(value);
        if self.metric.improved(value, self.best_value, self.min_delta) {
            self.best_value = value;
            self.best_round = self.history.len();
        }
    }
}

/// The softmax multiclass training loop: every boosting round grows K
/// trees (one per class, round-major) against a row-major `n x k`
/// gradient matrix refreshed once per round — each class tree of a
/// round sees the margins as they stood when the round started, the
/// standard per-class-tree semantics of multiclass GBDT.
fn grow_softmax(
    data: &BinnedDataset,
    columnar: &ColumnarMirror,
    cfg: &TrainConfig,
    k: usize,
    exec: &dyn StepExecutor,
    eval: Option<&EvalSet<'_>>,
) -> (Model, TrainReport) {
    let n = data.num_records();
    let labels = data.labels();
    let mut sampler = SampleStream::new(cfg.seed);

    let t_init = Instant::now();
    // Multiclass margins start at zero for every class; the label
    // distribution is learned by the first round's trees.
    let base_score = 0.0;
    let mut margins = vec![0.0f64; n * k];
    let mut grads = vec![GradPair::zero(); n * k];
    let mut prev_loss = softmax_grad_refresh(&margins, labels, k, &mut grads);

    let init_elapsed = t_init.elapsed();
    crate::telemetry::phase("train_init", t_init, init_elapsed);
    let mut times = StepTimes { other: init_elapsed, ..Default::default() };
    let mut work = WorkCounters::default();
    let mut tree_logs: Vec<TreePhases> = Vec::new();
    let mut loss_history = Vec::with_capacity(cfg.num_trees);
    let mut trees: Vec<Tree> = Vec::with_capacity(cfg.num_trees * k);
    let mut eval_state: Option<MultiEvalState<'_>> = eval.map(|ev| MultiEvalState::new(ev, cfg, k));
    let mut pool = HistogramPool::new();
    let mut class_grads: Vec<GradPair> = Vec::with_capacity(n);

    for _round in 0..cfg.num_trees {
        for class in 0..k {
            // Stochastic GB: each class tree draws its own row sample
            // and field mask, advancing the one stream deterministically.
            let root_rows = sampler.draw_rows(n, cfg.subsample);
            if root_rows.is_empty() {
                // A pathological subsample of a tiny dataset: a weight-0
                // leaf keeps the round-major layout intact.
                trees.push(Tree::leaf(0.0));
                continue;
            }
            let field_mask = sampler.draw_field_mask(data.num_fields(), cfg.colsample_bytree);

            // Gather this class's gradient column contiguously so the
            // engine's kernels stream it like a scalar run.
            class_grads.clear();
            class_grads.extend((0..n).map(|r| grads[r * k + class]));
            let (tree, phases) = grow_single_tree(
                data,
                columnar,
                cfg,
                exec,
                &mut sampler,
                &mut pool,
                &class_grads,
                root_rows,
                field_mask.as_deref(),
                &mut times,
                &mut work,
            );

            // ---- Step 5: update this class's margin column. Gradients
            // refresh at the round boundary, not here. ----
            let t5 = Instant::now();
            let mut sum_path = 0u64;
            for r in 0..n {
                let (w, path) = tree.traverse_binned(data, r);
                margins[r * k + class] += w;
                sum_path += u64::from(path);
            }
            let el5 = t5.elapsed();
            crate::telemetry::phase("step5_traverse", t5, el5);
            times.step5 += el5;
            work.step5_records += n as u64;
            work.step5_lookups += sum_path;

            if cfg.collect_phases {
                tree_logs.push(TreePhases {
                    nodes: phases,
                    traversal: TraversalPhase {
                        n_records: n,
                        fields_used: tree.fields_used().len(),
                        sum_path_len: sum_path,
                        max_depth: tree.depth(),
                    },
                });
            }
            if let Some(ev) = eval_state.as_mut() {
                ev.add_tree(&tree, class);
            }
            trees.push(tree);
        }

        // ---- Round boundary: refresh the full gradient matrix and
        // record the training loss after this round's K trees. ----
        let t5 = Instant::now();
        let mean_loss = softmax_grad_refresh(&margins, labels, k, &mut grads);
        let el5 = t5.elapsed();
        crate::telemetry::phase("step5_refresh", t5, el5);
        times.step5 += el5;
        loss_history.push(mean_loss);

        let patience_exhausted = match eval_state.as_mut() {
            Some(ev) => {
                ev.score_round();
                match &cfg.early_stopping {
                    Some(es) => loss_history.len() - ev.best_round >= es.patience,
                    None => false,
                }
            }
            None => false,
        };
        if let Some(min_dec) = cfg.min_loss_decrease {
            if prev_loss - mean_loss < min_dec {
                break;
            }
        }
        prev_loss = mean_loss;
        if patience_exhausted {
            break;
        }
    }

    // Early stopping truncates at a round boundary: the best round's
    // model keeps exactly `best_round * k` round-major trees.
    let (eval_history, best_iteration) = match eval_state {
        Some(ev) => {
            let best_round = ev.best_round.max(1);
            if cfg.early_stopping.is_some() {
                trees.truncate(best_round * k);
            }
            (Some(ev.history), Some(best_round * k))
        }
        None => (None, None),
    };

    let model = Model {
        trees,
        base_score,
        objective: cfg.objective,
        num_outputs: k as u32,
        schema: data.schema().clone(),
        binnings: data.binnings().to_vec(),
    };
    let phase_log = cfg.collect_phases.then(|| PhaseLog {
        trees: tree_logs,
        num_records: n,
        num_fields: data.num_fields(),
        record_bytes: data.record_bytes(),
        total_bins: data.total_bins(),
        field_entry_bytes: (0..data.num_fields())
            .map(|f| data.binnings()[f].encoded_bytes())
            .collect(),
        field_bins: (0..data.num_fields()).map(|f| data.field_bins(f)).collect(),
    });
    crate::telemetry::train_finished(&times, &work);
    (model, TrainReport { times, work, phase_log, loss_history, eval_history, best_iteration })
}

/// The LambdaRank training loop: one output, but gradients couple all
/// records of a query group — every boosting round recomputes pairwise
/// λ-gradients from the current margins before growing its tree.
fn grow_lambdarank(
    data: &BinnedDataset,
    columnar: &ColumnarMirror,
    cfg: &TrainConfig,
    exec: &dyn StepExecutor,
    eval: Option<&EvalSet<'_>>,
) -> (Model, TrainReport) {
    let n = data.num_records();
    let labels = data.labels();
    let groups: Vec<u32> = data
        .query_groups()
        .expect(
            "LambdaRank requires query groups on the training set \
             (BinnedDataset::set_query_groups)",
        )
        .to_vec();
    let mut sampler = SampleStream::new(cfg.seed);

    let t_init = Instant::now();
    // Ranking scores are relative; start every document at zero.
    let base_score = 0.0;
    let mut margins = vec![0.0f64; n];
    let mut grads = vec![GradPair::zero(); n];
    let mut prev_loss = lambdarank_grad_refresh(&margins, labels, &groups, &mut grads);

    let init_elapsed = t_init.elapsed();
    crate::telemetry::phase("train_init", t_init, init_elapsed);
    let mut times = StepTimes { other: init_elapsed, ..Default::default() };
    let mut work = WorkCounters::default();
    let mut tree_logs: Vec<TreePhases> = Vec::new();
    let mut loss_history = Vec::with_capacity(cfg.num_trees);
    let mut trees: Vec<Tree> = Vec::with_capacity(cfg.num_trees);
    let mut eval_state: Option<RankEvalState<'_>> = eval.map(|ev| RankEvalState::new(ev, cfg));
    let mut pool = HistogramPool::new();

    for _round in 0..cfg.num_trees {
        let root_rows = sampler.draw_rows(n, cfg.subsample);
        if root_rows.is_empty() {
            loss_history.push(prev_loss);
            trees.push(Tree::leaf(0.0));
            if rank_eval_and_check(&mut eval_state, &trees, cfg) {
                break;
            }
            continue;
        }
        let field_mask = sampler.draw_field_mask(data.num_fields(), cfg.colsample_bytree);
        let (tree, phases) = grow_single_tree(
            data,
            columnar,
            cfg,
            exec,
            &mut sampler,
            &mut pool,
            &grads,
            root_rows,
            field_mask.as_deref(),
            &mut times,
            &mut work,
        );

        // ---- Step 5: margin update, then the per-group λ-gradient
        // refresh against the new ranking. ----
        let t5 = Instant::now();
        let mut sum_path = 0u64;
        for (r, m) in margins.iter_mut().enumerate() {
            let (w, path) = tree.traverse_binned(data, r);
            *m += w;
            sum_path += u64::from(path);
        }
        let mean_loss = lambdarank_grad_refresh(&margins, labels, &groups, &mut grads);
        let el5 = t5.elapsed();
        crate::telemetry::phase("step5_refresh", t5, el5);
        times.step5 += el5;
        work.step5_records += n as u64;
        work.step5_lookups += sum_path;

        if cfg.collect_phases {
            tree_logs.push(TreePhases {
                nodes: phases,
                traversal: TraversalPhase {
                    n_records: n,
                    fields_used: tree.fields_used().len(),
                    sum_path_len: sum_path,
                    max_depth: tree.depth(),
                },
            });
        }
        loss_history.push(mean_loss);
        trees.push(tree);

        let patience_exhausted = rank_eval_and_check(&mut eval_state, &trees, cfg);
        if let Some(min_dec) = cfg.min_loss_decrease {
            if prev_loss - mean_loss < min_dec {
                break;
            }
        }
        prev_loss = mean_loss;
        if patience_exhausted {
            break;
        }
    }

    let (eval_history, best_iteration) = match eval_state {
        Some(ev) => {
            let best = ev.best_iter.max(1);
            if cfg.early_stopping.is_some() {
                trees.truncate(best);
            }
            (Some(ev.history), Some(best))
        }
        None => (None, None),
    };

    let model = Model {
        trees,
        base_score,
        objective: cfg.objective,
        num_outputs: 1,
        schema: data.schema().clone(),
        binnings: data.binnings().to_vec(),
    };
    let phase_log = cfg.collect_phases.then(|| PhaseLog {
        trees: tree_logs,
        num_records: n,
        num_fields: data.num_fields(),
        record_bytes: data.record_bytes(),
        total_bins: data.total_bins(),
        field_entry_bytes: (0..data.num_fields())
            .map(|f| data.binnings()[f].encoded_bytes())
            .collect(),
        field_bins: (0..data.num_fields()).map(|f| data.field_bins(f)).collect(),
    });
    crate::telemetry::train_finished(&times, &work);
    (model, TrainReport { times, work, phase_log, loss_history, eval_history, best_iteration })
}

/// Validation state for LambdaRank: scalar margins scored by NDCG over
/// the eval set's query groups (or the |ΔNDCG|-weighted surrogate loss
/// for [`EvalMetric::Loss`]).
struct RankEvalState<'a> {
    data: &'a BinnedDataset,
    metric: EvalMetric,
    min_delta: f64,
    margins: Vec<f64>,
    labels: Vec<f64>,
    groups: Vec<u32>,
    /// Scratch gradient pairs for the surrogate-loss evaluation.
    grads_scratch: Vec<GradPair>,
    history: Vec<f64>,
    best_iter: usize,
    best_value: f64,
}

impl<'a> RankEvalState<'a> {
    fn new(ev: &EvalSet<'a>, cfg: &TrainConfig) -> Self {
        let metric = cfg.early_stopping.map(|es| es.metric).unwrap_or_default();
        let n = ev.data().num_records();
        // An eval set without groups ranks as one whole-set query.
        let groups =
            ev.data().query_groups().map(<[u32]>::to_vec).unwrap_or_else(|| vec![n as u32]);
        RankEvalState {
            data: ev.data(),
            metric,
            min_delta: cfg.early_stopping.map(|es| es.min_delta).unwrap_or(0.0),
            margins: vec![0.0; n],
            labels: ev.data().labels().iter().map(|&y| f64::from(y)).collect(),
            groups,
            grads_scratch: vec![GradPair::zero(); n],
            history: Vec::new(),
            best_iter: 0,
            best_value: metric.worst(),
        }
    }

    fn score_tree(&mut self, tree: &Tree) {
        add_eval_margins(tree, self.data, &mut self.margins);
        let value = match self.metric {
            EvalMetric::Ndcg { k } => {
                ndcg_at_k(&self.margins, &self.labels, &self.groups, k as usize)
            }
            EvalMetric::Loss => lambdarank_grad_refresh(
                &self.margins,
                self.data.labels(),
                &self.groups,
                &mut self.grads_scratch,
            ),
            m => panic!("eval metric {} is not defined for LambdaRank models", m.name()),
        };
        self.history.push(value);
        if self.metric.improved(value, self.best_value, self.min_delta) {
            self.best_value = value;
            self.best_iter = self.history.len();
        }
    }
}

/// [`RankEvalState`] analogue of `eval_and_check`.
fn rank_eval_and_check(
    eval_state: &mut Option<RankEvalState<'_>>,
    trees: &[Tree],
    cfg: &TrainConfig,
) -> bool {
    let Some(ev) = eval_state.as_mut() else { return false };
    ev.score_tree(trees.last().expect("a tree was just pushed"));
    match &cfg.early_stopping {
        Some(es) => trees.len() - ev.best_iter >= es.patience,
        None => false,
    }
}

/// A split-ready frontier vertex: its relevant records, its histogram,
/// and the best split already found for it (vertices with no valid
/// split never enter the frontier — they are finalized as leaves on
/// admission).
struct Pending {
    node: u32,
    depth: u32,
    rows: Vec<u32>,
    hist: NodeHistogram,
    split: SplitInfo,
    bin: Option<BinPhase>,
    seq: u64,
}

/// Priority-queue key for leaf-wise growth: split gain with total order.
/// Gains returned by `find_best_split` are finite (they exceed the
/// validated-finite `gamma`), so `partial_cmp` cannot fail.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Gain(f64);

impl Eq for Gain {}

impl PartialOrd for Gain {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Gain {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.partial_cmp(&other.0).expect("split gains are finite")
    }
}

/// Per-level accumulator for the level-wise mode's aggregated phase
/// descriptor (one dense stream per level, not per vertex).
#[derive(Default)]
struct LevelAgg {
    partitioned: usize,
    explicit_binned: usize,
    active_splits: usize,
}

/// Growth state for one tree.
struct TreeGrower<'a> {
    data: &'a BinnedDataset,
    columnar: &'a ColumnarMirror,
    grads: &'a [GradPair],
    cfg: &'a TrainConfig,
    exec: &'a dyn StepExecutor,
    /// Column-sampling mask for this tree (stochastic GB).
    field_mask: Option<&'a [bool]>,
    /// The run's sampling stream, for per-node field masks
    /// (`colsample_bynode`). Lives outside the executor so masks are
    /// identical across backends.
    sampler: &'a mut SampleStream,
    /// Recycled histogram allocations (shared across trees).
    pool: &'a mut HistogramPool,
    nodes: Vec<Node>,
    phases: Vec<NodePhase>,
    frontier: Vec<Pending>,
    /// Leaves the tree would have if every frontier vertex stopped now.
    leaves: usize,
    /// Monotone admission counter (deterministic priority tie-break).
    seq: u64,
    /// Level-wise only: depth of the most recent Step-2 scans not yet
    /// covered by a per-level phase descriptor (a level whose vertices
    /// were all scanned but none split still costs host scan time).
    dense_scanned_depth: Option<u32>,
    times: &'a mut StepTimes,
    work: &'a mut WorkCounters,
}

impl TreeGrower<'_> {
    fn collect(&self) -> bool {
        self.cfg.collect_phases
    }

    fn dense(&self) -> bool {
        self.cfg.growth == GrowthStrategy::LevelWise
    }

    /// Dense full-dataset row-stream block count (the level-wise access
    /// pattern).
    fn dense_row_blocks(&self) -> usize {
        (self.data.num_records() * self.data.record_bytes() as usize).div_ceil(BLOCK_BYTES)
    }

    /// Dense full-dataset gradient-pair stream block count.
    fn dense_gh_blocks(&self) -> usize {
        (self.data.num_records() * 8).div_ceil(BLOCK_BYTES)
    }

    /// Step 1 at the root, then admit it to the frontier.
    fn seed_root(&mut self, rows: Vec<u32>) {
        let t1 = Instant::now();
        let mut hist = self.pool.acquire(self.data);
        let updates = self.exec.bin_records(self.data, self.columnar, &rows, self.grads, &mut hist);
        let el1 = t1.elapsed();
        crate::telemetry::phase("step1_build_hist", t1, el1);
        self.times.step1 += el1;
        self.work.step1_records += rows.len() as u64;
        self.work.step1_updates += updates;

        let bin = self.collect().then(|| {
            if self.dense() {
                // Level-wise streams the whole dataset to bin the root.
                BinPhase {
                    depth: 0,
                    n_reaching: rows.len(),
                    n_binned: rows.len(),
                    row_blocks: self.dense_row_blocks(),
                    gh_stream_blocks: self.dense_gh_blocks(),
                }
            } else {
                BinPhase {
                    depth: 0,
                    n_reaching: rows.len(),
                    n_binned: rows.len(),
                    row_blocks: row_major_blocks(&rows, self.data.record_bytes()),
                    gh_stream_blocks: gh_blocks(&rows),
                }
            }
        });
        if self.dense() {
            // Level-wise logs the root stream immediately; subsequent
            // levels log one aggregated descriptor each. (Its Step-2
            // scan is accounted with the level scans, hence
            // `scanned: false` here.)
            if let Some(bin) = bin.clone() {
                self.phases.push(NodePhase { bin, scanned: false, partition: None });
            }
        }
        self.admit(0, 0, rows, hist, bin);
    }

    /// Scan a vertex for its best split (Step 2) and either queue it on
    /// the frontier or finalize it as a leaf.
    fn admit(
        &mut self,
        node: u32,
        depth: u32,
        rows: Vec<u32>,
        hist: NodeHistogram,
        bin: Option<BinPhase>,
    ) {
        let scanned = depth < self.cfg.max_depth;
        let split = if scanned {
            // Per-node column sampling: re-draw this vertex's candidate
            // fields from within the tree mask. Drawn only for vertices
            // actually scanned, so the stream advances identically on
            // every backend.
            let node_mask: Option<Vec<bool>> = (self.cfg.colsample_bynode < 1.0).then(|| {
                self.sampler.draw_node_mask(
                    self.data.num_fields(),
                    self.cfg.colsample_bynode,
                    self.field_mask,
                )
            });
            let mask = node_mask.as_deref().or(self.field_mask);
            let t2 = Instant::now();
            let (s, bins) = find_best_split(&hist, self.data.binnings(), &self.cfg.split, mask);
            let el2 = t2.elapsed();
            crate::telemetry::phase("step2_split_scan", t2, el2);
            self.times.step2 += el2;
            self.work.step2_scans += 1;
            self.work.step2_bins += bins;
            if self.dense() {
                self.dense_scanned_depth = Some(depth);
            }
            s
        } else {
            None
        };
        match split {
            Some(split) => {
                let seq = self.seq;
                self.seq += 1;
                self.frontier.push(Pending { node, depth, rows, hist, split, bin, seq });
            }
            None => {
                self.finalize_leaf(node, depth, rows.len(), &hist, bin, scanned);
                self.pool.release(hist);
            }
        }
    }

    /// Set a vertex's leaf weight and (in per-vertex modes) log its
    /// phase descriptor.
    fn finalize_leaf(
        &mut self,
        node: u32,
        depth: u32,
        n_reaching: usize,
        hist: &NodeHistogram,
        bin: Option<BinPhase>,
        scanned: bool,
    ) {
        let w = leaf_weight(hist.total(), self.cfg.split.lambda) * self.cfg.learning_rate;
        self.nodes[node as usize] = Node::Leaf { weight: w };
        if self.collect() && !self.dense() {
            self.phases.push(NodePhase {
                bin: bin.unwrap_or_else(|| empty_bin_phase(depth, n_reaching)),
                scanned,
                partition: None,
            });
        }
    }

    /// Expand one frontier vertex: partition its records (Step 3), grow
    /// its two children, bin the smaller child and derive the larger by
    /// subtraction (Step 1), then admit both children.
    fn expand(&mut self, p: Pending, mut level: Option<&mut LevelAgg>) {
        let Pending { node, depth, rows, hist, split, bin, .. } = p;
        let field = split.field as usize;

        // ---- Step 3: partition by the new predicate's single column. ----
        let t3 = Instant::now();
        let column = self.columnar.column(field);
        let absent = self.data.binnings()[field].absent_bin();
        let (lrows, rrows) =
            self.exec.partition(&rows, column, field, split.rule, split.default_left, absent);
        let el3 = t3.elapsed();
        crate::telemetry::phase("step3_partition", t3, el3);
        self.times.step3 += el3;
        self.work.step3_records += rows.len() as u64;

        if self.collect() {
            match level.as_deref_mut() {
                Some(agg) => {
                    agg.partitioned += rows.len();
                    agg.active_splits += 1;
                }
                None => {
                    let entry_bytes = self.data.binnings()[field].encoded_bytes();
                    self.phases.push(NodePhase {
                        bin: bin.unwrap_or_else(|| empty_bin_phase(depth, rows.len())),
                        scanned: true,
                        partition: Some(PartitionPhase {
                            n_records: rows.len(),
                            col_blocks: column_blocks(&rows, entry_bytes),
                            row_blocks: row_major_blocks(&rows, self.data.record_bytes()),
                            n_left: lrows.len(),
                            n_right: rrows.len(),
                        }),
                    });
                }
            }
        }
        drop(rows);

        // ---- Materialize the internal node and its children. ----
        let left = self.nodes.len() as u32;
        let right = left + 1;
        self.nodes.push(Node::Leaf { weight: 0.0 });
        self.nodes.push(Node::Leaf { weight: 0.0 });
        self.nodes[node as usize] = Node::Internal {
            field: split.field,
            rule: split.rule,
            default_left: split.default_left,
            left,
            right,
        };
        self.leaves += 1;

        // ---- Step 1 at the children: bin only the smaller child
        // explicitly; derive the larger by subtraction. ----
        let left_smaller = lrows.len() <= rrows.len();
        let (srows, brows) = if left_smaller { (&lrows, &rrows) } else { (&rrows, &lrows) };

        let t1 = Instant::now();
        let mut small_hist = self.pool.acquire(self.data);
        let updates =
            self.exec.bin_records(self.data, self.columnar, srows, self.grads, &mut small_hist);
        let mut big_hist = self.pool.acquire(self.data);
        NodeHistogram::subtract_from_into(&hist, &small_hist, &mut big_hist);
        let el1 = t1.elapsed();
        crate::telemetry::phase("step1_build_hist", t1, el1);
        self.times.step1 += el1;
        self.work.step1_records += srows.len() as u64;
        self.work.step1_updates += updates;
        if let Some(agg) = level {
            agg.explicit_binned += srows.len();
        }

        let (small_bin, big_bin) = if self.collect() && !self.dense() {
            (
                Some(BinPhase {
                    depth: depth + 1,
                    n_reaching: srows.len(),
                    n_binned: srows.len(),
                    row_blocks: row_major_blocks(srows, self.data.record_bytes()),
                    gh_stream_blocks: gh_blocks(srows),
                }),
                Some(empty_bin_phase(depth + 1, brows.len())),
            )
        } else {
            (None, None)
        };
        self.pool.release(hist);

        let (lhist, rhist, lbin, rbin) = if left_smaller {
            (small_hist, big_hist, small_bin, big_bin)
        } else {
            (big_hist, small_hist, big_bin, small_bin)
        };
        self.admit(left, depth + 1, lrows, lhist, lbin);
        self.admit(right, depth + 1, rrows, rhist, rbin);
    }

    /// Vertex-wise: depth-first, one vertex at a time (LIFO frontier).
    fn grow_depth_first(&mut self) {
        while let Some(p) = self.frontier.pop() {
            self.expand(p, None);
        }
    }

    /// Level-wise: expand every frontier vertex of the current depth
    /// together, logging one dense-stream phase descriptor per level.
    fn grow_breadth_first(&mut self) {
        while !self.frontier.is_empty() {
            let batch = std::mem::take(&mut self.frontier);
            let depth = batch[0].depth;
            // This batch's descriptor covers the scans of its vertices.
            self.dense_scanned_depth = None;
            let mut agg = LevelAgg::default();
            for p in batch {
                self.expand(p, Some(&mut agg));
            }
            if self.collect() {
                let n = self.data.num_records();
                let binned = agg.explicit_binned;
                self.phases.push(NodePhase {
                    bin: BinPhase {
                        depth: depth + 1,
                        n_reaching: agg.partitioned,
                        n_binned: binned,
                        // Level-wise streams the whole dataset densely.
                        row_blocks: if binned > 0 { self.dense_row_blocks() } else { 0 },
                        gh_stream_blocks: if binned > 0 { self.dense_gh_blocks() } else { 0 },
                    },
                    scanned: true,
                    partition: Some(PartitionPhase {
                        n_records: agg.partitioned,
                        // One dense pass over the predicate columns used
                        // at this level (one column per active split).
                        col_blocks: agg.active_splits * n.div_ceil(BLOCK_BYTES),
                        row_blocks: self.dense_row_blocks(),
                        n_left: agg.partitioned / 2,
                        n_right: agg.partitioned - agg.partitioned / 2,
                    }),
                });
            }
        }
        // A level whose vertices were all scanned but none split never
        // forms a batch; its Step-2 host work still needs a descriptor.
        if let Some(depth) = self.dense_scanned_depth.take() {
            if self.collect() {
                self.phases.push(NodePhase {
                    bin: empty_bin_phase(depth, 0),
                    scanned: true,
                    partition: None,
                });
            }
        }
    }

    /// Leaf-wise: always expand the frontier vertex with the highest
    /// split gain (ties broken by admission order), until the leaf
    /// budget is spent or no vertex can split. The frontier is driven
    /// by a priority queue: O(log L) per expansion instead of a linear
    /// scan.
    fn grow_best_first(&mut self, max_leaves: u32) {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;
        // Heap entries index `slots`; each slot is expanded at most once.
        let mut heap: BinaryHeap<(Gain, Reverse<u64>, usize)> = BinaryHeap::new();
        let mut slots: Vec<Option<Pending>> = Vec::new();
        loop {
            for p in self.frontier.drain(..) {
                heap.push((Gain(p.split.gain), Reverse(p.seq), slots.len()));
                slots.push(Some(p));
            }
            if self.leaves >= max_leaves as usize {
                break;
            }
            let Some((_, _, slot)) = heap.pop() else { break };
            let p = slots[slot].take().expect("each slot is expanded once");
            self.expand(p, None);
        }
        // Unexpanded vertices go back to the frontier (in admission
        // order) for `finish` to finalize as leaves.
        self.frontier = slots.into_iter().flatten().collect();
    }

    /// Finalize any unexpanded frontier vertices (leaf-wise budget
    /// exhaustion) and return the grown tree's nodes and phases.
    fn finish(mut self) -> (Vec<Node>, Vec<NodePhase>) {
        let mut rest = std::mem::take(&mut self.frontier);
        rest.sort_by_key(|p| p.seq);
        for p in rest {
            let Pending { node, depth, rows, hist, bin, .. } = p;
            self.finalize_leaf(node, depth, rows.len(), &hist, bin, true);
            self.pool.release(hist);
        }
        (self.nodes, self.phases)
    }
}

/// Phase entry for a vertex whose histogram came from sibling
/// subtraction: no record traffic.
fn empty_bin_phase(depth: u32, n_reaching: usize) -> BinPhase {
    BinPhase { depth, n_reaching, n_binned: 0, row_blocks: 0, gh_stream_blocks: 0 }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{Dataset, RawValue};
    use crate::metrics;
    use crate::schema::{DatasetSchema, FieldSchema};
    use crate::train::{train, EarlyStopping, SequentialExec};

    /// Three separable classes on two numeric features: class = label
    /// index, feature 0 clusters at 10·class, feature 1 adds a
    /// deterministic wobble so trees have something to split beyond the
    /// first cut.
    fn multiclass_dataset(n: usize) -> BinnedDataset {
        let schema = DatasetSchema::new(vec![
            FieldSchema::numeric_with_bins("x", 32),
            FieldSchema::numeric_with_bins("y", 32),
        ]);
        let mut ds = Dataset::new(schema);
        for i in 0..n {
            let class = i % 3;
            let x = 10.0 * class as f32 + ((i * 7) % 5) as f32;
            let y = ((i * 13) % 11) as f32 + class as f32;
            ds.push_record(&[RawValue::Num(x), RawValue::Num(y)], class as f32);
        }
        BinnedDataset::from_dataset(&ds)
    }

    /// Query-grouped ranking data: 12 docs per query, relevance follows
    /// the first feature with a per-query offset the model must ignore.
    fn ranking_dataset(queries: usize) -> BinnedDataset {
        let schema = DatasetSchema::new(vec![
            FieldSchema::numeric_with_bins("rel_signal", 32),
            FieldSchema::numeric_with_bins("noise", 32),
        ]);
        let mut ds = Dataset::new(schema);
        let mut groups = Vec::with_capacity(queries);
        for q in 0..queries {
            let docs = 12usize;
            groups.push(docs as u32);
            for d in 0..docs {
                let rel = (d % 4) as f32; // grades 0..=3 present per query
                let signal = rel * 2.0 + ((q * 31 + d * 17) % 7) as f32 * 0.1;
                let noise = ((q * 13 + d * 5) % 23) as f32;
                ds.push_record(&[RawValue::Num(signal), RawValue::Num(noise)], rel);
            }
        }
        let mut binned = BinnedDataset::from_dataset(&ds);
        binned.set_query_groups(groups);
        binned
    }

    #[test]
    fn softmax_training_lays_trees_round_major_and_learns_the_classes() {
        let data = multiclass_dataset(300);
        let mirror = ColumnarMirror::from_binned(&data);
        let cfg = TrainConfig {
            num_trees: 8,
            max_depth: 3,
            objective: Objective::Softmax { num_class: 3 },
            ..Default::default()
        };
        let (model, report) = train(&data, &mirror, &cfg);
        assert_eq!(model.num_outputs, 3);
        assert_eq!(model.trees.len(), 8 * 3, "K trees per round, round-major");
        // Multiclass logloss decreases across rounds.
        let first = report.loss_history.first().copied().unwrap();
        let last = report.loss_history.last().copied().unwrap();
        assert!(last < first, "softmax loss did not improve: {first} -> {last}");
        // The model separates the classes far better than chance.
        let labels: Vec<f64> = data.labels().iter().map(|&y| f64::from(y)).collect();
        let margins = model.predict_batch_outputs(&data);
        let acc = multiclass_accuracy(&margins, &labels, 3);
        assert!(acc > 0.9, "train accuracy {acc} too low for separable blobs");
    }

    #[test]
    fn softmax_early_stopping_truncates_at_a_round_boundary() {
        let train_data = multiclass_dataset(240);
        let eval_data = multiclass_dataset(90);
        let mirror = ColumnarMirror::from_binned(&train_data);
        let cfg = TrainConfig {
            num_trees: 20,
            max_depth: 3,
            objective: Objective::Softmax { num_class: 3 },
            early_stopping: Some(EarlyStopping {
                metric: EvalMetric::MultiLogloss,
                patience: 3,
                min_delta: 0.0,
            }),
            ..Default::default()
        };
        let eval = EvalSet::new(&eval_data);
        let (model, report) =
            grow_forest_with_eval(&train_data, &mirror, &cfg, &SequentialExec, Some(&eval));
        let best = report.best_iteration.expect("eval pipeline ran");
        assert_eq!(model.trees.len(), best, "model truncated to the best round");
        assert_eq!(model.trees.len() % 3, 0, "truncation must land on a K-tree round boundary");
        assert!(
            report.eval_history.as_ref().is_some_and(|h| !h.is_empty()),
            "eval history recorded per round"
        );
        // Accuracy is also a valid softmax early-stopping metric.
        let cfg_acc = TrainConfig {
            early_stopping: Some(EarlyStopping {
                metric: EvalMetric::Accuracy,
                patience: 3,
                min_delta: 0.0,
            }),
            ..cfg
        };
        let (model_acc, _) =
            grow_forest_with_eval(&train_data, &mirror, &cfg_acc, &SequentialExec, Some(&eval));
        assert_eq!(model_acc.trees.len() % 3, 0);
    }

    #[test]
    fn lambdarank_training_improves_ndcg_over_the_untrained_ranking() {
        let data = ranking_dataset(25);
        let mirror = ColumnarMirror::from_binned(&data);
        let cfg = TrainConfig {
            num_trees: 12,
            max_depth: 3,
            objective: Objective::LambdaRank,
            ..Default::default()
        };
        let (model, report) = train(&data, &mirror, &cfg);
        assert_eq!(model.num_outputs, 1);
        let labels: Vec<f64> = data.labels().iter().map(|&y| f64::from(y)).collect();
        let groups = data.query_groups().unwrap();
        let flat_margins = vec![0.0f64; data.num_records()];
        let base_ndcg = ndcg_at_k(&flat_margins, &labels, groups, 5);
        let margins: Vec<f64> =
            (0..data.num_records()).map(|r| model.margin_binned(&data, r)).collect();
        let trained_ndcg = ndcg_at_k(&margins, &labels, groups, 5);
        assert!(
            trained_ndcg > base_ndcg + 0.05,
            "NDCG@5 did not improve: {base_ndcg} -> {trained_ndcg}"
        );
        // The pairwise surrogate loss decreases too.
        let first = report.loss_history.first().copied().unwrap();
        let last = report.loss_history.last().copied().unwrap();
        assert!(last < first, "λ-gradient surrogate did not improve: {first} -> {last}");
    }

    #[test]
    fn lambdarank_early_stops_on_eval_ndcg() {
        let train_data = ranking_dataset(20);
        let eval_data = ranking_dataset(8);
        let mirror = ColumnarMirror::from_binned(&train_data);
        let cfg = TrainConfig {
            num_trees: 30,
            max_depth: 3,
            objective: Objective::LambdaRank,
            early_stopping: Some(EarlyStopping {
                metric: EvalMetric::Ndcg { k: 5 },
                patience: 3,
                min_delta: 0.0,
            }),
            ..Default::default()
        };
        let eval = EvalSet::new(&eval_data);
        let (model, report) =
            grow_forest_with_eval(&train_data, &mirror, &cfg, &SequentialExec, Some(&eval));
        let best = report.best_iteration.expect("eval pipeline ran");
        assert_eq!(model.trees.len(), best);
        assert!(best <= 30);
    }

    #[test]
    #[should_panic(expected = "query groups")]
    fn lambdarank_requires_query_groups() {
        let data = multiclass_dataset(60);
        let mirror = ColumnarMirror::from_binned(&data);
        let cfg =
            TrainConfig { num_trees: 2, objective: Objective::LambdaRank, ..Default::default() };
        let _ = train(&data, &mirror, &cfg);
    }

    #[test]
    fn quantile_objective_trains_through_the_scalar_path() {
        // Heavy right tail: the 0.9-quantile model must sit above the
        // median model on the training distribution.
        let schema = DatasetSchema::new(vec![FieldSchema::numeric_with_bins("x", 32)]);
        let mut ds = Dataset::new(schema);
        for i in 0..400 {
            let x = (i % 20) as f32;
            let tail = if i % 10 == 0 { 25.0 } else { 0.0 };
            ds.push_record(&[RawValue::Num(x)], x * 0.5 + tail);
        }
        let data = BinnedDataset::from_dataset(&ds);
        let mirror = ColumnarMirror::from_binned(&data);
        let mean_pred = |alpha: f64| {
            let cfg = TrainConfig {
                num_trees: 10,
                max_depth: 3,
                objective: Objective::PinballQuantile { alpha },
                ..Default::default()
            };
            let (model, _) = train(&data, &mirror, &cfg);
            assert_eq!(model.num_outputs, 1);
            let preds = model.predict_batch(&data);
            preds.iter().sum::<f64>() / preds.len() as f64
        };
        let median = mean_pred(0.5);
        let upper = mean_pred(0.9);
        assert!(upper > median, "0.9-quantile ({upper}) must exceed the median fit ({median})");
    }

    // ------------------------------------------------ level-wise growth

    /// XOR-of-thresholds labels over two numeric fields plus a
    /// categorical bump: needs depth, so growth order matters.
    fn xor_dataset(n: usize) -> (BinnedDataset, ColumnarMirror) {
        let schema = DatasetSchema::new(vec![
            FieldSchema::numeric_with_bins("a", 32),
            FieldSchema::numeric_with_bins("b", 32),
            FieldSchema::categorical("c", 4),
        ]);
        let mut ds = Dataset::new(schema);
        let mut state = 99u64;
        let mut rng = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) as f32) / (u32::MAX >> 1) as f32
        };
        for _ in 0..n {
            let a = rng();
            let b = rng();
            let c = (rng() * 4.0) as u32 % 4;
            let y = ((a > 0.5) ^ (b > 0.5)) as u8 as f32 + if c == 1 { 0.5 } else { 0.0 };
            ds.push_record(&[RawValue::Num(a), RawValue::Num(b), RawValue::Cat(c)], y);
        }
        let binned = BinnedDataset::from_dataset(&ds);
        let mirror = ColumnarMirror::from_binned(&binned);
        (binned, mirror)
    }

    /// `cfg` grown level by level on the sequential backend.
    fn grow_by_level(
        data: &BinnedDataset,
        mirror: &ColumnarMirror,
        cfg: &TrainConfig,
    ) -> (Model, TrainReport) {
        let cfg = TrainConfig { growth: GrowthStrategy::LevelWise, ..cfg.clone() };
        train(data, mirror, &cfg)
    }

    #[test]
    fn levelwise_learns_the_same_function_as_vertexwise() {
        let (data, mirror) = xor_dataset(4_000);
        let cfg = TrainConfig { num_trees: 15, max_depth: 4, ..Default::default() };
        let (m_level, _) = grow_by_level(&data, &mirror, &cfg);
        let (m_vertex, _) = train(&data, &mirror, &cfg);
        let labels: Vec<f64> = data.labels().iter().map(|&y| f64::from(y)).collect();
        let r_level = metrics::rmse(&m_level.predict_batch(&data), &labels);
        let r_vertex = metrics::rmse(&m_vertex.predict_batch(&data), &labels);
        assert!(
            (r_level - r_vertex).abs() < 0.05 * (1.0 + r_vertex),
            "level {r_level} vs vertex {r_vertex}"
        );
    }

    #[test]
    fn levelwise_trees_are_identical_when_splits_are_unambiguous() {
        // Both growth orders visit the same vertices with the same
        // histograms, so with deterministic tie-breaking the trees match
        // structurally (leaf multiset).
        let (data, mirror) = xor_dataset(2_000);
        let cfg = TrainConfig { num_trees: 3, max_depth: 3, ..Default::default() };
        let (m_level, _) = grow_by_level(&data, &mirror, &cfg);
        let (m_vertex, _) = train(&data, &mirror, &cfg);
        for (tl, tv) in m_level.trees.iter().zip(&m_vertex.trees) {
            assert_eq!(tl.num_leaves(), tv.num_leaves());
            assert_eq!(tl.depth(), tv.depth());
            // Same predictions record by record.
            for r in (0..2_000).step_by(173) {
                let (wl, _) = tl.traverse_binned(&data, r);
                let (wv, _) = tv.traverse_binned(&data, r);
                assert!((wl - wv).abs() < 1e-9, "record {r}: {wl} vs {wv}");
            }
        }
    }

    #[test]
    fn levelwise_respects_depth() {
        let (data, mirror) = xor_dataset(1_500);
        for depth in [1u32, 2, 5] {
            let cfg = TrainConfig { num_trees: 4, max_depth: depth, ..Default::default() };
            let (model, _) = grow_by_level(&data, &mirror, &cfg);
            assert!(model.max_depth() <= depth);
        }
    }

    #[test]
    fn levelwise_phase_log_streams_densely() {
        let (data, mirror) = xor_dataset(3_000);
        let cfg =
            TrainConfig { num_trees: 4, max_depth: 4, collect_phases: true, ..Default::default() };
        let (_, report) = grow_by_level(&data, &mirror, &cfg);
        let log = report.phase_log.unwrap();
        let full_blocks = (3_000 * log.record_bytes as usize).div_ceil(64);
        for t in &log.trees {
            for np in &t.nodes {
                if np.bin.n_binned > 0 {
                    // Level passes always touch the full row stream.
                    assert_eq!(np.bin.row_blocks, full_blocks);
                }
            }
        }
        // Work counters still agree with the log.
        assert_eq!(log.total_bin_updates(), report.work.step1_updates);
    }

    #[test]
    fn levelwise_loss_decreases() {
        let (data, mirror) = xor_dataset(2_500);
        let cfg = TrainConfig { num_trees: 12, max_depth: 4, ..Default::default() };
        let (_, report) = grow_by_level(&data, &mirror, &cfg);
        assert!(report.loss_history.last().unwrap() < &report.loss_history[0]);
    }

    #[test]
    fn levelwise_logs_terminal_no_split_scan() {
        // Constant labels: the root is scanned but never splits. The
        // host still paid for that scan, so the phase log must carry a
        // trailing scanned descriptor (root + terminal scan = 2 phases).
        let schema = DatasetSchema::new(vec![FieldSchema::numeric_with_bins("x", 8)]);
        let mut ds = Dataset::new(schema);
        for i in 0..200 {
            ds.push_record(&[RawValue::Num(i as f32)], 1.0);
        }
        let data = BinnedDataset::from_dataset(&ds);
        let mirror = ColumnarMirror::from_binned(&data);
        let cfg =
            TrainConfig { num_trees: 2, max_depth: 4, collect_phases: true, ..Default::default() };
        let (model, report) = grow_by_level(&data, &mirror, &cfg);
        assert!(model.trees.iter().all(|t| t.num_leaves() == 1));
        let log = report.phase_log.unwrap();
        for t in &log.trees {
            assert_eq!(t.nodes.len(), 2, "root stream + terminal scan");
            assert!(!t.nodes[0].scanned);
            assert!(t.nodes[1].scanned);
            assert_eq!(t.nodes[1].bin.n_binned, 0);
            assert!(t.nodes[1].partition.is_none());
        }
    }
}
