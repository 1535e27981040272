//! The unified growth engine: one boosting loop for every objective, one
//! tree loop for every growth order × execution backend.
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
//! smaller-child optimization). Table I bins a vertex *in order to split
//! it*, so Step 1 builds only what Step 2 reads: children at `max_depth`
//! are never scanned, get no histograms at all, and take their leaf
//! weights from gradient totals — the smaller child's reduced directly
//! ([`StepExecutor::vertex_total`]), the larger one's by the same
//! subtraction, bit for bit what the histograms would have carried. On
//! depth-6 trees that is half of all child builds. The orders differ only
//! in *which* frontier vertex is expanded next. This module therefore implements a single
//! engine: a frontier of split-ready vertices plus a [`GrowthStrategy`]
//! that picks the expansion order — depth-first ([`GrowthStrategy::VertexWise`]),
//! breadth-first ([`GrowthStrategy::LevelWise`]), or a best-first priority
//! order ([`GrowthStrategy::LeafWise`]). Every record-heavy step runs
//! through the [`StepExecutor`] trait, so every mode composes with both
//! [`crate::train::SequentialExec`] and [`crate::parallel::ParallelExec`]
//! (including the previously unreachable parallel level-wise
//! configuration) and with the functional device model in `booster-sim`.
//!
//! Around that sits **one boosting loop** ([`grow_forest_with_eval`]).
//! Table I's Steps 1–4 see only per-record gradient pairs; the objective
//! enters once, in Step 5's gradient update. So every objective — the
//! scalar losses, K-output softmax, query-coupled LambdaRank — trains
//! through the same rounds: for each of the round's `K =
//! objective.num_outputs()` trees, draw the row sample and field mask
//! (all masks come from one seeded [`SampleStream`] owned by the engine,
//! never by an executor), grow the tree from that output's gradient
//! column, run Step 5, log the phases and add the tree to the eval
//! margins; then close the round — training loss, eval metric,
//! `min_loss_decrease` and patience checks. What differs per objective
//! is one small private state (`Boost`: `n x K` margins and gradients,
//! and how they open, update in Step 5 and refresh at a round's end).
//! The validation state, the truncate-to-best-round tail and the
//! [`StepTimes`] / [`WorkCounters`] / [`PhaseLog`] instrumentation exist
//! once. Phase descriptors keep their mode-specific *memory access
//! patterns*: vertex-wise and leaf-wise log per-vertex sparse gathers,
//! while level-wise logs dense full-dataset streams per level, which is
//! exactly the trade-off the `ablation_growth` harness quantifies on the
//! timing models.

use std::time::{Duration, Instant};

use serde::{Deserialize, Serialize};

use crate::columnar::ColumnarMirror;
use crate::gradients::{lambdarank_grad_refresh, softmax_grad_refresh, GradPair, Loss, Objective};
use crate::histogram::{HistogramPool, NodeHistogram};
use crate::metrics::EvalMetric;
use crate::phases::{
    column_blocks, gh_blocks, row_major_blocks, BinPhase, NodePhase, PartitionPhase, PhaseLog,
    TraversalPhase, TreePhases,
};
use crate::predict::Model;
use crate::preprocess::{BinnedDataset, BLOCK_BYTES};
use crate::sample::SampleStream;
use crate::split::{find_best_split, leaf_weight, SplitInfo};
use crate::train::{
    lower_for_step5, EvalSet, StepExecutor, StepTimes, TrainConfig, TrainReport, WorkCounters,
};
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

/// Close one timed section: mirror the already-measured interval into
/// the span ring and add it to its [`StepTimes`] slot (one clock read
/// serves both).
fn lap(name: &'static str, start: Instant, slot: &mut Duration) {
    let elapsed = start.elapsed();
    crate::telemetry::phase(name, start, elapsed);
    *slot += elapsed;
}

/// Base score of a scalar-loss run: the loss's link of the label mean,
/// folded over the whole dataset in row order. The engine opens with it
/// and the distributed coordinator hands the same value to its workers,
/// so the two agree by construction.
pub fn scalar_base_score(loss: Loss, labels: &[f32]) -> f64 {
    let label_mean = labels.iter().map(|&y| f64::from(y)).sum::<f64>() / labels.len() as f64;
    loss.base_score(label_mean)
}

/// Everything the boosting loop needs to know about the objective:
/// row-major `n x K` margins and gradients (`K =
/// objective.num_outputs()`) plus the four operations that differ per
/// objective — opening, the gradient column a tree is grown from,
/// Step 5, and the end of a round. Steps 1-4 only ever see the
/// gradient column.
struct Boost<'a> {
    /// Lowers to a per-record [`Loss`] when gradients decouple per
    /// record; the coupled objectives (softmax, LambdaRank) refresh
    /// theirs once per round from the whole margin matrix.
    objective: Objective,
    labels: &'a [f32],
    /// Query groups of the training set (LambdaRank only).
    groups: &'a [u32],
    k: usize,
    base_score: f64,
    margins: Vec<f64>,
    grads: Vec<GradPair>,
    /// One slot's gradient column gathered contiguously (K > 1 only),
    /// so the engine's kernels stream it like a scalar run.
    column: Vec<GradPair>,
    /// Loss total of the newest tree's Step 5 (scalar losses).
    loss_total: f64,
}

impl<'a> Boost<'a> {
    /// Initial margins and gradients, and the mean loss before the
    /// first tree. Scalar losses start every record at the label-mean
    /// base score; multiclass margins and ranking scores start at zero
    /// (the label distribution is learned by the first round, and
    /// ranking scores are relative).
    fn new(objective: Objective, data: &'a BinnedDataset) -> (Self, f64) {
        let groups = match objective {
            Objective::LambdaRank => data.query_groups().expect(
                "LambdaRank requires query groups on the training set \
                 (BinnedDataset::set_query_groups)",
            ),
            _ => &[],
        };
        let (labels, k) = (data.labels(), objective.num_outputs());
        let base_score =
            objective.scalar_loss().map_or(0.0, |loss| scalar_base_score(loss, labels));
        let mut boost = Boost {
            objective,
            labels,
            groups,
            k,
            base_score,
            margins: vec![base_score; labels.len() * k],
            grads: vec![GradPair::zero(); labels.len() * k],
            column: Vec::new(),
            loss_total: 0.0,
        };
        let initial_loss = boost.refresh();
        (boost, initial_loss)
    }

    /// Recompute every gradient pair from the current margins; returns
    /// the mean training loss.
    fn refresh(&mut self) -> f64 {
        match (self.objective.scalar_loss(), self.objective) {
            (Some(loss), _) => {
                let mut loss_sum = 0.0f64;
                for ((gp, &m), &y) in self.grads.iter_mut().zip(&self.margins).zip(self.labels) {
                    let (grad, value) = loss.grad_value(m, f64::from(y));
                    *gp = grad;
                    loss_sum += value;
                }
                loss_sum / self.labels.len() as f64
            }
            (None, Objective::LambdaRank) => {
                lambdarank_grad_refresh(&self.margins, self.labels, self.groups, &mut self.grads)
            }
            (None, _) => softmax_grad_refresh(&self.margins, self.labels, self.k, &mut self.grads),
        }
    }

    /// The per-record gradient column tree `slot` of a round is grown
    /// from: the gradient vector itself at K = 1 (never a copy), the
    /// gathered column otherwise.
    fn slot_grads(&mut self, slot: usize) -> &[GradPair] {
        if self.k == 1 {
            return &self.grads;
        }
        self.column.clear();
        self.column.extend(self.grads.iter().skip(slot).step_by(self.k));
        &self.column
    }

    /// Step 5 for one new tree; returns the sum of path lengths. A
    /// scalar loss runs the executor's `traverse_update` (margins,
    /// gradients and the loss total, block by block behind the lane
    /// walk). A coupled objective runs the same walk but only adds the
    /// tree into margin column `slot`: every tree of a round sees the
    /// gradients as they stood when the round started, and
    /// [`Self::end_round`] refreshes them.
    fn step5(
        &mut self,
        exec: &dyn StepExecutor,
        data: &BinnedDataset,
        tree: &Tree,
        slot: usize,
    ) -> u64 {
        if let Some(loss) = self.objective.scalar_loss() {
            let (sum_path, loss_total) = exec.traverse_update(
                data,
                tree,
                loss,
                self.labels,
                &mut self.margins,
                &mut self.grads,
            );
            self.loss_total = loss_total;
            return sum_path;
        }
        lower_for_step5(tree, data).add_to_slot(data, &mut self.margins, self.k, slot)
    }

    /// Close a round that grew at least one tree; returns the mean
    /// training loss after it. The scalar Step 5 already folded the
    /// total; the coupled objectives refresh their gradients here,
    /// timed as part of Step 5.
    fn end_round(&mut self, times: &mut StepTimes) -> f64 {
        if self.objective.scalar_loss().is_some() {
            return self.loss_total / self.labels.len() as f64;
        }
        let t5 = Instant::now();
        let mean_loss = self.refresh();
        lap("step5_refresh", t5, &mut times.step5);
        mean_loss
    }
}

/// Per-run state of the validation pipeline: incremental row-major
/// `n_eval x K` margins over the held-out set, the per-round metric
/// history, and the best round so far.
struct EvalState<'a> {
    data: &'a BinnedDataset,
    metric: EvalMetric,
    min_delta: f64,
    objective: Objective,
    k: usize,
    margins: Vec<f64>,
    /// Labels preconverted to `f64` once (they never change per round).
    labels: Vec<f64>,
    /// Query-group sizes of the eval set; a set without groups ranks as
    /// one whole-set query.
    groups: Vec<u32>,
    /// Scratch buffer for transformed predictions, reused every round.
    preds: Vec<f64>,
    history: Vec<f64>,
    /// Round count of the best model so far (0 until a metric value
    /// improves on [`EvalMetric::worst`]).
    best_round: usize,
    best_value: f64,
}

impl<'a> EvalState<'a> {
    /// # Panics
    /// Panics if a softmax eval label is not a class index in `0..K`.
    fn new(ev: &EvalSet<'a>, cfg: &TrainConfig, base_score: f64) -> Self {
        let metric = cfg.early_stopping.map(|es| es.metric).unwrap_or_default();
        let (data, k) = (ev.data(), cfg.objective.num_outputs());
        let n = data.num_records();
        if let Objective::Softmax { .. } = cfg.objective {
            for &y in data.labels() {
                assert!(
                    y >= 0.0 && y.fract() == 0.0 && (y as usize) < k,
                    "eval set: softmax label must be a class index in 0..{k}, got {y}"
                );
            }
        }
        EvalState {
            data,
            metric,
            min_delta: cfg.early_stopping.map(|es| es.min_delta).unwrap_or(0.0),
            objective: cfg.objective,
            k,
            margins: vec![base_score; n * k],
            labels: data.labels().iter().map(|&y| f64::from(y)).collect(),
            groups: data.query_groups().map(<[u32]>::to_vec).unwrap_or_else(|| vec![n as u32]),
            preds: Vec::new(),
            history: Vec::new(),
            best_round: 0,
            best_value: metric.worst(),
        }
    }

    /// Accumulate one new tree into margin column `slot` (the same
    /// one-tree lane walk as Step 5, over the held-out records).
    fn add_tree(&mut self, tree: &Tree, slot: usize) {
        lower_for_step5(tree, self.data).add_to_slot(self.data, &mut self.margins, self.k, slot);
    }

    /// Score the completed round's full output vectors and update the
    /// history and best-round tracking.
    fn score_round(&mut self) {
        let value = self.metric.compute_reusing(
            &self.objective,
            &self.margins,
            &self.labels,
            &self.groups,
            &mut self.preds,
        );
        self.history.push(value);
        if self.metric.improved(value, self.best_value, self.min_delta) {
            self.best_value = value;
            self.best_round = self.history.len();
        }
    }
}

/// Train a model: the single engine behind [`crate::train::train`],
/// [`crate::train::train_with`] and distributed training.
///
/// Runs up to `cfg.num_trees` boosting rounds of `K =
/// cfg.objective.num_outputs()` trees each (round-major: tree `t`
/// feeds output `t % K`), growing every tree in `cfg.growth` order and
/// executing Steps 1, 3 and 5 on `exec`. With an `eval` set attached,
/// every round is scored on it and the metric recorded in
/// [`TrainReport::eval_history`]; with [`TrainConfig::early_stopping`]
/// set, training stops once the metric has not improved for `patience`
/// rounds and the model is truncated to
/// [`TrainReport::best_iteration`] trees, a round boundary.
///
/// # Panics
/// Panics with a descriptive message if `cfg` fails
/// [`TrainConfig::validate`], `data` is empty, `cfg.early_stopping` is
/// set without an eval set, the eval set's field arity differs from the
/// training set's, a softmax label (training or eval) is not a class
/// index, or LambdaRank trains without query groups.
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
        "early_stopping requires an evaluation set (grow_forest_with_eval)"
    );
    if let Some(ev) = eval {
        assert_eq!(
            ev.data().num_fields(),
            data.num_fields(),
            "eval set schema must match training schema"
        );
    }
    debug_assert!(columnar.is_consistent_with(data), "columnar mirror out of sync");
    let n = data.num_records();
    let k = cfg.objective.num_outputs();
    // One seeded stream for every sampling decision, owned here —
    // outside the executor — so sequential and parallel backends draw
    // identical masks (the bit-identity invariant). Every tree draws
    // its own row sample and field mask, in slot order.
    let mut sampler = SampleStream::new(cfg.seed);

    let mut times = StepTimes::default();
    let t_init = Instant::now();
    let (mut boost, mut prev_loss) = Boost::new(cfg.objective, data);
    lap("train_init", t_init, &mut times.other);
    let mut work = WorkCounters::default();
    let mut tree_logs: Vec<TreePhases> = Vec::new();
    let mut loss_history = Vec::with_capacity(cfg.num_trees);
    let mut trees: Vec<Tree> = Vec::with_capacity(cfg.num_trees * k);
    let mut eval_state = eval.map(|ev| EvalState::new(ev, cfg, boost.base_score));

    // Histogram allocations are recycled across vertices and trees: the
    // pool's peak size is the widest frontier ever reached, not the
    // vertex count.
    let mut pool = HistogramPool::new();

    for _round in 0..cfg.num_trees {
        let mut grew = false;
        for slot in 0..k {
            // Stochastic GB: sample the records this tree sees.
            let root_rows = sampler.draw_rows(n, cfg.subsample);
            if root_rows.is_empty() {
                // A pathological subsample of a tiny dataset: a
                // weight-0 leaf keeps the round-major layout intact.
                trees.push(Tree::leaf(0.0));
                continue;
            }
            grew = true;
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
                boost.slot_grads(slot),
                root_rows,
                field_mask.as_deref(),
                &mut times,
                &mut work,
            );

            // ---- Step 5: one-tree traversal and margin update. ----
            let t5 = Instant::now();
            let sum_path = boost.step5(exec, data, &tree, slot);
            lap("step5_traverse", t5, &mut times.step5);
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
                ev.add_tree(&tree, slot);
            }
            trees.push(tree);
        }

        // ---- Round boundary: training loss, validation, stopping. ----
        let mean_loss = if grew { boost.end_round(&mut times) } else { prev_loss };
        loss_history.push(mean_loss);
        let patience_exhausted = eval_state.as_mut().is_some_and(|ev| {
            ev.score_round();
            cfg.early_stopping.is_some_and(|es| ev.history.len() - ev.best_round >= es.patience)
        });
        // A round whose every row draw came up empty grew no tree; its
        // unchanged loss never stops training by itself.
        if grew && cfg.min_loss_decrease.is_some_and(|min_dec| prev_loss - mean_loss < min_dec) {
            break;
        }
        prev_loss = mean_loss;
        if patience_exhausted {
            break;
        }
    }

    // Record the best iteration and, under early stopping, trim the
    // model back to it — a round boundary (trees are prefix-stable:
    // stopping later never changes earlier trees).
    let (eval_history, best_iteration) = match eval_state {
        Some(ev) => {
            let best = ev.best_round.max(1) * k;
            if cfg.early_stopping.is_some() {
                trees.truncate(best);
            }
            (Some(ev.history), Some(best))
        }
        None => (None, None),
    };

    let model = Model {
        trees,
        base_score: boost.base_score,
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
        lap("step1_build_hist", t1, &mut self.times.step1);
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
            lap("step2_split_scan", t2, &mut self.times.step2);
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
                self.finalize_leaf(node, depth, rows.len(), hist.total(), bin, scanned);
                self.pool.release(hist);
            }
        }
    }

    /// Set a vertex's leaf weight from its gradient total and (in
    /// per-vertex modes) log its phase descriptor.
    fn finalize_leaf(
        &mut self,
        node: u32,
        depth: u32,
        n_reaching: usize,
        total: GradPair,
        bin: Option<BinPhase>,
        scanned: bool,
    ) {
        let w = leaf_weight(total, self.cfg.split.lambda) * self.cfg.learning_rate;
        self.nodes[node as usize] = Node::Leaf { weight: w };
        if self.collect() && !self.dense() {
            self.phases.push(NodePhase {
                bin: bin.unwrap_or_else(|| empty_bin_phase(depth, n_reaching)),
                scanned,
                partition: None,
            });
        }
    }

    /// Expand one frontier vertex: partition its records (Step 3) and
    /// grow its two children. Children that will be scanned get
    /// histograms — the smaller one binned, the larger by subtraction
    /// (Step 1) — and are admitted; children at `max_depth` are
    /// finalized from their gradient totals with no histogram at all.
    fn expand(&mut self, p: Pending, mut level: Option<&mut LevelAgg>) {
        let Pending { node, depth, rows, hist, split, bin, .. } = p;
        let field = split.field as usize;

        // ---- Step 3: partition by the new predicate's single column. ----
        let t3 = Instant::now();
        let column = self.columnar.column(field);
        let absent = self.data.binnings()[field].absent_bin();
        let (lrows, rrows) =
            self.exec.partition(&rows, column, field, split.rule, split.default_left, absent);
        lap("step3_partition", t3, &mut self.times.step3);
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

        // ---- Step 1 at the children. A histogram exists to be
        // scanned: children at `max_depth` become leaves whatever their
        // bins hold, and a leaf weight reads the vertex total alone. ----
        let left_smaller = lrows.len() <= rrows.len();
        let (srows, brows) = if left_smaller { (&lrows, &rrows) } else { (&rrows, &lrows) };
        if depth + 1 >= self.cfg.max_depth {
            // The smaller child's total is the reduction its histogram
            // build would have run, the larger one's the subtraction
            // `subtract_from_into` would have made: the same bits, with
            // no bins behind them.
            let t1 = Instant::now();
            let small = self.exec.vertex_total(srows, self.grads);
            let big = hist.total() - small;
            lap("step1_vertex_total", t1, &mut self.times.step1);
            self.pool.release(hist);
            let (ltotal, rtotal) = if left_smaller { (small, big) } else { (big, small) };
            self.finalize_leaf(left, depth + 1, lrows.len(), ltotal, None, false);
            self.finalize_leaf(right, depth + 1, rrows.len(), rtotal, None, false);
            return;
        }

        // Scanned children: bin only the smaller one explicitly; derive
        // the larger by subtraction.
        let t1 = Instant::now();
        let mut small_hist = self.pool.acquire(self.data);
        let updates =
            self.exec.bin_records(self.data, self.columnar, srows, self.grads, &mut small_hist);
        let mut big_hist = self.pool.acquire(self.data);
        NodeHistogram::subtract_from_into(&hist, &small_hist, &mut big_hist);
        lap("step1_build_hist", t1, &mut self.times.step1);
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
            self.finalize_leaf(node, depth, rows.len(), hist.total(), bin, true);
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
    use crate::metrics::{self, multiclass_accuracy, ndcg_at_k};
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

    /// An eval metric that is undefined for the objective is a config
    /// error raised before the first tree, not a panic after it.
    #[test]
    #[should_panic(expected = "early_stopping.metric: auc is not defined for softmax models")]
    fn undefined_metric_objective_pair_fails_before_the_first_tree() {
        let data = multiclass_dataset(60);
        let mirror = ColumnarMirror::from_binned(&data);
        let cfg = TrainConfig {
            num_trees: 2,
            objective: Objective::Softmax { num_class: 3 },
            early_stopping: Some(EarlyStopping { metric: EvalMetric::Auc, ..Default::default() }),
            ..Default::default()
        };
        let eval = EvalSet::new(&data);
        let _ = grow_forest_with_eval(&data, &mirror, &cfg, &SequentialExec, Some(&eval));
    }

    /// Softmax eval labels are checked when the set is attached. Argmax
    /// accuracy never looks a label up, so without the check a stray
    /// class index would score silently.
    #[test]
    #[should_panic(expected = "eval set: softmax label must be a class index in 0..2, got 2")]
    fn softmax_eval_labels_are_checked_when_the_set_is_attached() {
        // Two-class training labels, three-class eval labels.
        let eval_data = multiclass_dataset(60);
        let mut two_class = Dataset::new(eval_data.schema().clone());
        for i in 0..40 {
            two_class.push_record(&[RawValue::Num(i as f32), RawValue::Num(1.0)], (i % 2) as f32);
        }
        let data = BinnedDataset::from_dataset(&two_class);
        let mirror = ColumnarMirror::from_binned(&data);
        let cfg = TrainConfig {
            num_trees: 2,
            objective: Objective::Softmax { num_class: 2 },
            early_stopping: Some(EarlyStopping {
                metric: EvalMetric::Accuracy,
                ..Default::default()
            }),
            ..Default::default()
        };
        let eval = EvalSet::new(&eval_data);
        let _ = grow_forest_with_eval(&data, &mirror, &cfg, &SequentialExec, Some(&eval));
    }

    /// Query groups can only reach an eval set through
    /// `set_query_groups`, which rejects sizes that do not tile it — so
    /// NDCG scoring never meets a mis-tiled set mid-training.
    #[test]
    #[should_panic(expected = "query groups must tile the dataset")]
    fn eval_query_groups_must_tile_when_attached() {
        let mut eval_data = ranking_dataset(2);
        eval_data.set_query_groups(vec![12, 11]);
    }

    /// One rule for every objective kind: a round whose row draws all
    /// came up empty pushes weight-0 leaves, repeats the previous loss,
    /// and never trips `min_loss_decrease` by itself.
    #[test]
    fn a_round_of_empty_row_draws_never_stops_training() {
        let mut data = multiclass_dataset(3);
        data.set_query_groups(vec![3]);
        let mirror = ColumnarMirror::from_binned(&data);
        for objective in
            [Objective::SquaredError, Objective::Softmax { num_class: 3 }, Objective::LambdaRank]
        {
            let cfg = TrainConfig {
                num_trees: 4,
                objective,
                subsample: 1e-12,
                min_loss_decrease: Some(1e-6),
                ..Default::default()
            };
            let (model, report) = train(&data, &mirror, &cfg);
            let name = objective.name();
            assert_eq!(report.loss_history.len(), 4, "{name}: every round must run");
            assert!(report.loss_history.windows(2).all(|w| w[0].to_bits() == w[1].to_bits()));
            assert_eq!(model.trees.len(), 4 * objective.num_outputs(), "{name}");
            assert!(model.trees.iter().all(|t| *t == Tree::leaf(0.0)), "{name}");
        }
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

    /// Children at `max_depth` get no histogram: each leaf's weight
    /// must still come from the gradient total of exactly the records
    /// that reach it — the smaller child's reduced directly, the larger
    /// one's by subtraction from the parent.
    #[test]
    fn leaves_at_max_depth_weigh_exactly_their_own_records() {
        let (data, mirror) = xor_dataset(1_200);
        let growths = [
            GrowthStrategy::VertexWise,
            GrowthStrategy::LevelWise,
            GrowthStrategy::LeafWise { max_leaves: 8 },
        ];
        for growth in growths {
            for max_depth in [1u32, 3] {
                let cfg = TrainConfig { num_trees: 1, max_depth, growth, ..Default::default() };
                let (model, _) = train(&data, &mirror, &cfg);
                let tree = &model.trees[0];
                assert_eq!(tree.depth(), max_depth, "{growth:?}: the tree must reach max_depth");
                // Squared error from the base score: g = base - y, h = 1.
                let mut totals: std::collections::BTreeMap<u64, (GradPair, u32)> =
                    Default::default();
                for r in 0..data.num_records() {
                    let (w, depth) = tree.traverse_binned(&data, r);
                    let g = model.base_score - f64::from(data.labels()[r]);
                    let leaf = totals.entry(w.to_bits()).or_insert((GradPair::zero(), depth));
                    leaf.0 += GradPair::new(g, 1.0);
                }
                assert_eq!(totals.len(), tree.num_leaves(), "{growth:?}: distinct leaf weights");
                assert!(totals.values().any(|&(_, depth)| depth == max_depth));
                for (&bits, &(total, depth)) in &totals {
                    let want = leaf_weight(total, cfg.split.lambda) * cfg.learning_rate;
                    let got = f64::from_bits(bits);
                    assert!(
                        (got - want).abs() <= 1e-12 * (1.0 + want.abs()),
                        "{growth:?}, max_depth {max_depth}: leaf at depth {depth} weighs {got}, \
                         its records say {want}"
                    );
                }
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
