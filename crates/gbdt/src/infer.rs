//! Lowered ensemble tables and the serving-style [`Predictor`]
//! (Section III-D, Fig 13).
//!
//! [`crate::predict::Model`] walks per-record over `Vec<Node>` trees —
//! pointer-chasing through wide enum nodes with a dynamic absent-bin
//! callback per step. It is kept deliberately simple: it is the oracle
//! every differential test compares against. Production scoring goes
//! the way Booster's batch-inference engine does, one fixed-function
//! table walk replicated over record streams:
//!
//! ```text
//! Model (node walk, oracle)
//!   └─ FlatEnsemble::from_model   lower: 16-byte tree tables, SoA
//!        └─ compiled()            compile: branch-free program, clusters
//!             ├─ score_into / score_bins_into    8-lane blocked kernel
//!             └─ score_into_parallel             record ranges over cores
//! ```
//!
//! [`FlatEnsemble`] is the lowering step: the *whole* model as one
//! contiguous structure-of-arrays — every tree's 16-byte
//! [`TableEntry`] row concatenated behind per-tree offsets, with the
//! renumbered-field gather lists pre-resolved into per-entry
//! original-field and absent-bin arrays and exact `f64` leaf weights in
//! a parallel array (the 16-byte entries store the on-chip `f32`). It
//! is the input of [`crate::compile::compile`] and owns the cached
//! default-options program ([`FlatEnsemble::compiled`]), which is what
//! scores: bit-identical to [`Model::predict_batch`] because every
//! output slot folds its trees' weights in tree order.
//!
//! [`Predictor`] wraps that program for serving-style raw-record
//! scoring with reusable buffers and absent bins precomputed once.

use std::sync::OnceLock;

use crate::compile::{compile, CompileOptions, CompiledEnsemble};
use crate::dataset::RawValue;
use crate::gradients::Objective;
use crate::predict::Model;
use crate::preprocess::FieldBinning;
use crate::tree::{Node, TableEntry, TableLoweringError, TreeTable, TABLE_ENTRY_BYTES};

/// A whole trained model lowered into one contiguous flat form — the
/// compiler's input, plus the program compiled from it.
///
/// Built from per-tree [`TreeTable`]s; construction fails (rather than
/// corrupting child pointers) if any tree exceeds the `u16` index space
/// — see [`TableLoweringError`].
///
/// # Thread safety
///
/// A `FlatEnsemble` is immutable after construction (the program cache
/// is a `OnceLock`), so it is `Send + Sync` (enforced by a compile-time
/// assertion below) and one instance behind an `Arc` can be scored from
/// any number of threads concurrently with no locking.
#[derive(Debug, Clone)]
pub struct FlatEnsemble {
    /// All trees' 16-byte table entries, concatenated.
    entries: Vec<TableEntry>,
    /// Exact `f64` leaf weight per entry (internal entries hold 0); kept
    /// alongside the `f32` on-chip encoding so compiled results match
    /// [`Model::predict_batch`] bit-for-bit.
    weights: Vec<f64>,
    /// Original field tested by each entry, pre-resolved from the
    /// renumbered gather list (leaves hold 0, never read).
    entry_fields: Vec<u32>,
    /// Absent bin of each entry's field, pre-resolved likewise.
    entry_absents: Vec<u32>,
    /// `entries[tree_offsets[t]..tree_offsets[t + 1]]` is tree `t`.
    tree_offsets: Vec<usize>,
    /// Field arity the ensemble expects of every record.
    num_fields: usize,
    /// Initial margin added to every prediction.
    base_score: f64,
    /// Training objective; its link function is applied at the
    /// prediction surface.
    objective: Objective,
    /// Outputs per record (`K`); tree `t` accumulates into output
    /// `t % K`. 1 for every scalar objective.
    num_outputs: usize,
    /// Lazily compiled program; `OnceLock` keeps the ensemble
    /// `Send + Sync` and the compile a once-per-ensemble cost shared by
    /// every later call.
    compiled: OnceLock<CompiledEnsemble>,
}

impl FlatEnsemble {
    /// Lower a trained model into flat form.
    ///
    /// # Errors
    /// Returns the first tree's [`TableLoweringError`] if any tree is
    /// too large for the 16-byte entry encoding.
    pub fn from_model(model: &Model) -> Result<Self, TableLoweringError> {
        let mut entries = Vec::new();
        let mut weights = Vec::new();
        let mut entry_fields = Vec::new();
        let mut entry_absents = Vec::new();
        let mut tree_offsets = Vec::with_capacity(model.trees.len() + 1);
        tree_offsets.push(0);
        for tree in &model.trees {
            entries.extend_from_slice(&TreeTable::try_from_tree(tree)?.entries);
            for node in tree.nodes() {
                let (weight, field, absent) = match node {
                    Node::Leaf { weight } => (*weight, 0, 0),
                    Node::Internal { field, .. } => {
                        (0.0, *field, model.binnings[*field as usize].absent_bin())
                    }
                };
                weights.push(weight);
                entry_fields.push(field);
                entry_absents.push(absent);
            }
            tree_offsets.push(entries.len());
        }
        Ok(FlatEnsemble {
            entries,
            weights,
            entry_fields,
            entry_absents,
            tree_offsets,
            num_fields: model.binnings.len(),
            base_score: model.base_score,
            objective: model.objective,
            num_outputs: model.num_outputs as usize,
            compiled: OnceLock::new(),
        })
    }

    /// Tree `t`'s raw lowered parts — `(entries, fields, absents,
    /// weights)` — the compiler's input view of the SoA.
    pub(crate) fn tree_parts(&self, t: usize) -> (&[TableEntry], &[u32], &[u32], &[f64]) {
        let span = self.tree_offsets[t]..self.tree_offsets[t + 1];
        (
            &self.entries[span.clone()],
            &self.entry_fields[span.clone()],
            &self.entry_absents[span.clone()],
            &self.weights[span],
        )
    }

    /// The ensemble compiled to its branch-free bytecode program
    /// (default [`CompileOptions`]), built on first use and cached —
    /// batch scoring, [`Predictor`], and the serve workers all share
    /// this one program. For non-default options (truncation, cluster
    /// sizing) call [`crate::compile::compile`] directly.
    pub fn compiled(&self) -> &CompiledEnsemble {
        self.compiled.get_or_init(|| {
            compile(self, &CompileOptions::default())
                .expect("ensemble exceeds the u32 instruction space of the program format")
        })
    }

    /// Number of trees.
    pub fn num_trees(&self) -> usize {
        self.tree_offsets.len() - 1
    }

    /// Total table entries across trees.
    pub fn num_entries(&self) -> usize {
        self.entries.len()
    }

    /// On-chip footprint of all tree tables in bytes.
    pub fn byte_size(&self) -> usize {
        self.entries.len() * TABLE_ENTRY_BYTES
    }

    /// Initial margin added to every prediction.
    pub fn base_score(&self) -> f64 {
        self.base_score
    }

    /// Training objective; its link function is applied to summed
    /// margins at every prediction surface.
    pub fn objective(&self) -> Objective {
        self.objective
    }

    /// Outputs per record (`K`); 1 for every scalar objective.
    pub fn num_outputs(&self) -> usize {
        self.num_outputs
    }

    /// Field arity the ensemble expects of every record.
    pub fn num_fields(&self) -> usize {
        self.num_fields
    }
}

// Compile-time thread-safety contract: the serving layer shares one
// `Arc<FlatEnsemble>` across scheduler shards and hands `Predictor`s to
// worker threads, so losing either auto-trait (e.g. by adding an
// interior-mutable cache or `Rc` field) must fail the build here rather
// than at a distant use site.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<FlatEnsemble>();
    assert_send_sync::<Predictor>();
    assert_send_sync::<Model>();
};

/// Serving-style scorer over raw records: the compiled program plus the
/// model's binnings, with **no per-call heap allocations** — the absent
/// bins are precomputed once at construction and the bins scratch
/// buffer is reused across calls, unlike [`Model::predict_raw`] which
/// re-discretizes into a fresh vector per record.
///
/// # Thread safety
///
/// `Predictor` is `Send + Sync` (compile-time asserted above), but its
/// scoring methods take `&mut self` for the scratch buffer — so share
/// it by giving each thread its own clone (the flat tables are cheap to
/// clone relative to per-call allocation, or share one
/// `Arc<FlatEnsemble>` and keep per-thread scratch separately).
#[derive(Debug, Clone)]
pub struct Predictor {
    flat: FlatEnsemble,
    binnings: Vec<FieldBinning>,
    bins: Vec<u32>,
}

impl Predictor {
    /// Build a predictor from a trained model. The program is compiled
    /// here, so the first request does not pay for it.
    ///
    /// # Errors
    /// Propagates [`TableLoweringError`] for trees too large to encode.
    pub fn from_model(model: &Model) -> Result<Self, TableLoweringError> {
        let flat = FlatEnsemble::from_model(model)?;
        let _ = flat.compiled();
        Ok(Predictor { flat, binnings: model.binnings.clone(), bins: Vec::new() })
    }

    /// Discretize one raw record into the scratch row and score it into
    /// `out` (`num_outputs` slots).
    fn score(&mut self, record: &[RawValue], out: &mut [f64]) {
        assert_eq!(record.len(), self.binnings.len(), "record arity mismatch");
        self.bins.clear();
        self.bins.extend(record.iter().zip(&self.binnings).map(|(v, b)| b.bin_of(*v)));
        self.flat.compiled().score_bins_into(&self.bins, out);
    }

    /// Transformed prediction for one raw record; bit-identical to
    /// [`Model::predict_raw`].
    ///
    /// # Panics
    /// Panics on a multi-output model (one slot cannot hold `K`
    /// outputs); use [`Predictor::predict_one_outputs`].
    pub fn predict_one(&mut self, record: &[RawValue]) -> f64 {
        let mut out = 0.0;
        self.score(record, std::slice::from_mut(&mut out));
        out
    }

    /// Score a mini-batch of raw records into a reusable output buffer
    /// (cleared first).
    pub fn predict_many<'a, I>(&mut self, records: I, out: &mut Vec<f64>)
    where
        I: IntoIterator<Item = &'a [RawValue]>,
    {
        out.clear();
        for r in records {
            out.push(self.predict_one(r));
        }
    }

    /// Transformed output vector for one raw record (softmax
    /// probabilities for multiclass models; a single slot for scalar
    /// objectives), bit-identical to [`Model::predict_raw_outputs`].
    /// `out` is overwritten and sized to `num_outputs`, with no other
    /// allocation.
    pub fn predict_one_outputs(&mut self, record: &[RawValue], out: &mut Vec<f64>) {
        out.clear();
        out.resize(self.flat.num_outputs, 0.0);
        self.score(record, out);
    }

    /// The underlying flat ensemble.
    pub fn flat(&self) -> &FlatEnsemble {
        &self.flat
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::columnar::ColumnarMirror;
    use crate::dataset::Dataset;
    use crate::preprocess::BinnedDataset;
    use crate::schema::{DatasetSchema, FieldSchema};
    use crate::train::{train, TrainConfig};
    use crate::tree::Tree;

    /// Train a real multi-tree model on > 2 blocks of records (mixed
    /// numeric/categorical, with missing values) so blocked scoring
    /// crosses block boundaries.
    fn trained_model() -> (Model, BinnedDataset, Dataset) {
        let schema = DatasetSchema::new(vec![
            FieldSchema::numeric_with_bins("x", 16),
            FieldSchema::categorical("c", 3),
            FieldSchema::numeric_with_bins("y", 8),
        ]);
        let mut ds = Dataset::new(schema);
        for i in 0..700 {
            let x = if i % 13 == 0 { RawValue::Missing } else { RawValue::Num(i as f32) };
            let c = RawValue::Cat(i % 3);
            let y = RawValue::Num(((i * 7) % 100) as f32);
            let label = f32::from(u8::from(i >= 350)) + ((i % 3) as f32) * 0.1;
            ds.push_record(&[x, c, y], label);
        }
        let data = BinnedDataset::from_dataset(&ds);
        let mirror = ColumnarMirror::from_binned(&data);
        let cfg = TrainConfig { num_trees: 6, max_depth: 4, ..Default::default() };
        let (model, _) = train(&data, &mirror, &cfg);
        (model, data, ds)
    }

    /// A 3-class softmax model over real trained trees: reuse the
    /// trained ensemble's trees round-robin so walks are non-trivial.
    fn softmax_model() -> (Model, BinnedDataset) {
        let (model, data, _) = trained_model();
        let stub = Model {
            base_score: 0.0,
            objective: Objective::Softmax { num_class: 3 },
            num_outputs: 3,
            ..model
        };
        (stub, data)
    }

    fn raw_record(ds: &Dataset, r: usize) -> Vec<RawValue> {
        (0..ds.num_fields()).map(|f| ds.value(r, f)).collect()
    }

    fn bin_matrix(data: &BinnedDataset) -> Vec<u32> {
        let mut bins = Vec::with_capacity(data.num_records() * data.num_fields());
        for r in 0..data.num_records() {
            data.row(r).extend_into(&mut bins);
        }
        bins
    }

    fn assert_bits(got: &[f64], expect: &[f64]) {
        assert_eq!(got.len(), expect.len());
        for (i, (a, b)) in got.iter().zip(expect).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "slot {i}");
        }
    }

    #[test]
    fn score_into_matches_predict_batch_bitwise() {
        let (model, data, _) = trained_model();
        let flat = FlatEnsemble::from_model(&model).expect("lowering");
        let expect = model.predict_batch(&data);
        // Scratch reuse: stale contents must not leak through either
        // the kernel or the parallel driver.
        let mut out = vec![f64::NAN; data.num_records()];
        flat.compiled().score_into(&data, &mut out);
        assert_bits(&out, &expect);
        out.fill(f64::NAN);
        flat.compiled().score_into_parallel(&data, &mut out);
        assert_bits(&out, &expect);
    }

    #[test]
    fn score_bins_into_matches_predict_batch_bitwise() {
        let (model, data, _) = trained_model();
        let flat = FlatEnsemble::from_model(&model).expect("lowering");
        let expect = model.predict_batch(&data);
        // The row-major bin matrix the serving path would hand in.
        let bins = bin_matrix(&data);
        let mut out = vec![f64::NAN; data.num_records()];
        flat.compiled().score_bins_into(&bins, &mut out);
        assert_bits(&out, &expect);
        // Sub-batch (fewer rows than one lane group, serving-sized).
        let m = 7;
        let mut small = vec![0.0; m];
        flat.compiled().score_bins_into(&bins[..m * flat.num_fields()], &mut small);
        assert_bits(&small, &expect[..m]);
    }

    #[test]
    #[should_panic(expected = "output buffer")]
    fn score_into_rejects_short_buffer() {
        let (model, data, _) = trained_model();
        let flat = FlatEnsemble::from_model(&model).expect("lowering");
        let mut out = vec![0.0; data.num_records() - 1];
        flat.compiled().score_into_parallel(&data, &mut out);
    }

    #[test]
    #[should_panic(expected = "bin matrix shape")]
    fn score_bins_into_rejects_ragged_matrix() {
        let (model, _, _) = trained_model();
        let flat = FlatEnsemble::from_model(&model).expect("lowering");
        let bins = vec![0u32; flat.num_fields() * 2 + 1];
        let mut out = vec![0.0; 2];
        flat.compiled().score_bins_into(&bins, &mut out);
    }

    #[test]
    fn paths_match_node_walk() {
        let (model, data, _) = trained_model();
        let flat = FlatEnsemble::from_model(&model).expect("lowering");
        let (preds_a, paths_a) = model.predict_batch_with_paths(&data);
        let (preds_b, paths_b) = flat.compiled().predict_batch_with_paths(&data);
        assert_eq!(paths_a, paths_b);
        assert_bits(&preds_b, &preds_a);
    }

    #[test]
    fn predictor_matches_predict_raw_and_reuses_buffers() {
        let (model, _, ds) = trained_model();
        let mut pred = Predictor::from_model(&model).expect("lowering");
        for r in (0..700).step_by(53) {
            let record = raw_record(&ds, r);
            let a = pred.predict_one(&record);
            let b = model.predict_raw(&record);
            assert_eq!(a.to_bits(), b.to_bits(), "record {r}");
        }
        // Mini-batch into a reused output buffer.
        let recs: Vec<Vec<RawValue>> = (0..5).map(|r| raw_record(&ds, r)).collect();
        let mut out = vec![0.0; 99]; // stale content must be cleared
        pred.predict_many(recs.iter().map(Vec::as_slice), &mut out);
        assert_eq!(out.len(), 5);
        for (rec, p) in recs.iter().zip(&out) {
            assert_eq!(p.to_bits(), model.predict_raw(rec).to_bits());
        }
    }

    #[test]
    fn leaf_only_ensemble_scores_base_plus_leaves() {
        let (model, data, _) = trained_model();
        let stub = Model {
            trees: vec![Tree::leaf(0.25), Tree::leaf(-0.125)],
            base_score: 0.5,
            objective: Objective::SquaredError,
            ..model
        };
        let flat = FlatEnsemble::from_model(&stub).expect("leaf trees lower");
        assert_eq!(flat.num_trees(), 2);
        let (got, paths) = flat.compiled().predict_batch_with_paths(&data);
        assert!(got.iter().all(|&p| p == 0.625));
        assert!(paths.iter().all(|&p| p == 0));
    }

    #[test]
    fn multi_output_batch_matches_model_outputs_bitwise() {
        let (model, data) = softmax_model();
        let flat = FlatEnsemble::from_model(&model).expect("lowering");
        assert_eq!(flat.num_outputs(), 3);
        let expect = model.predict_batch_outputs(&data);
        let got = flat.compiled().predict_batch(&data);
        assert_bits(&got, &expect);
        // Rows are probability vectors.
        for row in got.chunks(3) {
            assert!((row.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        }
        // The bin-matrix serving path agrees.
        let mut out = vec![f64::NAN; expect.len()];
        flat.compiled().score_bins_into(&bin_matrix(&data), &mut out);
        assert_bits(&out, &expect);
    }

    #[test]
    fn predictor_outputs_match_model_raw_outputs() {
        let (model, _) = softmax_model();
        let (_, _, ds) = trained_model();
        let mut pred = Predictor::from_model(&model).expect("lowering");
        let mut out = Vec::new();
        for r in (0..700).step_by(101) {
            let rec = raw_record(&ds, r);
            pred.predict_one_outputs(&rec, &mut out);
            assert_bits(&out, &model.predict_raw_outputs(&rec));
        }
    }

    #[test]
    #[should_panic(expected = "num_outputs slots per record")]
    fn scalar_scoring_rejects_multi_output_models() {
        let (model, _) = softmax_model();
        let (_, _, ds) = trained_model();
        let mut pred = Predictor::from_model(&model).expect("lowering");
        let _ = pred.predict_one(&raw_record(&ds, 0));
    }

    #[test]
    fn one_output_outputs_path_matches_scalar_margins() {
        let (model, _, ds) = trained_model();
        let mut pred = Predictor::from_model(&model).expect("lowering");
        let mut out = vec![f64::NAN; 4]; // resized to the one output
        for r in (0..700).step_by(101) {
            let rec = raw_record(&ds, r);
            pred.predict_one_outputs(&rec, &mut out);
            assert_bits(&out, &[model.predict_raw(&rec)]);
        }
    }

    #[test]
    fn flat_layout_accounting() {
        let (model, _, _) = trained_model();
        let flat = FlatEnsemble::from_model(&model).expect("lowering");
        assert_eq!(flat.num_trees(), model.num_trees());
        let nodes: usize = model.trees.iter().map(Tree::num_nodes).sum();
        assert_eq!(flat.num_entries(), nodes);
        assert_eq!(flat.byte_size(), nodes * TABLE_ENTRY_BYTES);
        assert_eq!(flat.base_score(), model.base_score);
        assert_eq!(flat.objective(), model.objective);
        assert_eq!(flat.num_outputs(), 1);
    }

    #[test]
    #[should_panic(expected = "field arity")]
    fn arity_mismatch_is_rejected() {
        let (model, _, _) = trained_model();
        let flat = FlatEnsemble::from_model(&model).expect("lowering");
        let schema = DatasetSchema::new(vec![FieldSchema::numeric_with_bins("only", 4)]);
        let mut ds = Dataset::new(schema);
        ds.push_record(&[RawValue::Num(1.0)], 0.0);
        let narrow = BinnedDataset::from_dataset(&ds);
        let _ = flat.compiled().predict_batch(&narrow);
    }
}
