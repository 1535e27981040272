//! # booster-gbdt
//!
//! A from-scratch, histogram-based gradient boosting decision tree (GBDT)
//! library — the workload accelerated by *Booster: An Accelerator for
//! Gradient Boosting Decision Trees* (He, Vijaykumar, Thottethodi;
//! IPDPS 2022, arXiv:2011.02022).
//!
//! The crate implements the complete training pipeline of the paper's
//! Table I:
//!
//! 1. **histogram binning** of per-record gradient statistics
//!    ([`histogram`]),
//! 2. **split finding** over histogram bins with XGBoost-style gain
//!    ([`split`]),
//! 3. **single-predicate partitioning** of the relevant records
//!    ([`partition`]),
//! 4. tree growth to a depth (or leaf) budget ([`grow`]),
//! 5. **one-tree traversal** updating every record's gradient statistics
//!    ([`walk`]: the finished tree is lowered once and walked by the
//!    lane kernel inference runs, then margins and gradients are
//!    refreshed block by block),
//! 6. the outer loop over trees.
//!
//! All training flows through **one growth engine** ([`grow`]): a
//! [`grow::GrowthStrategy`] (vertex-wise, level-wise, or best-first
//! leaf-wise) composed with a [`train::StepExecutor`] backend
//! (sequential, or the multicore backend of Section II-D in
//! [`parallel`]) — any growth order runs on any backend. The crate also
//! implements the data-layout machinery the accelerator relies on:
//! quantile [`binning`], one-hot-aware [`preprocess`]ing with per-field
//! absent bins, and the **redundant per-field column-major format**
//! ([`columnar`]). Per-step wall-clock times, work counters and phase
//! descriptors ([`phases`]) feed the `booster-sim` timing models.
//!
//! **Inference** has one oracle, one kernel and one driver. The
//! per-record node walk ([`predict`]) is the deliberately simple
//! reference the differential tests compare against. Production
//! scoring lowers the whole model into one contiguous
//! structure-of-arrays of 16-byte tree-table entries ([`infer`]) and
//! **compiles** it ([`compile`], [`program`]) into a partitioned
//! branch-free bytecode program — specialization, dead-code
//! elimination, and cache-budgeted tree clustering — run in cache-sized
//! record blocks of lockstep record lanes with no data-dependent
//! branches, for any number of outputs, bit-identical to the node walk:
//! the software analogue of Booster's SRAM-resident batch-inference
//! engine (Section III-D). Parallelism is a driver over record ranges
//! of that kernel, not a second engine. Step 5 and inference share the
//! walk ([`walk`]), as they share the BU table walk on the accelerator;
//! the node walk is the oracle of both.
//!
//! ## Quickstart
//!
//! ```
//! use booster_gbdt::prelude::*;
//!
//! // A tiny table: one numeric and one categorical field.
//! let schema = DatasetSchema::new(vec![
//!     FieldSchema::numeric("miles"),
//!     FieldSchema::categorical("status", 3),
//! ]);
//! let mut ds = Dataset::new(schema);
//! for i in 0..200 {
//!     let miles = RawValue::Num((i * 500) as f32);
//!     let status = RawValue::Cat(i % 3);
//!     let label = if i >= 100 { 1.0 } else { 0.0 };
//!     ds.push_record(&[miles, status], label);
//! }
//!
//! let binned = BinnedDataset::from_dataset(&ds);
//! let mirror = ColumnarMirror::from_binned(&binned);
//! let cfg = TrainConfig { num_trees: 10, max_depth: 3, ..Default::default() };
//! let (model, report) = train(&binned, &mirror, &cfg);
//!
//! assert!(report.loss_history.last().unwrap() < &report.loss_history[0]);
//! let p = model.predict_raw(&[RawValue::Num(90_000.0), RawValue::Cat(0)]);
//! assert!(p > 0.5);
//! ```

#![warn(missing_docs)]

pub mod binning;
pub mod columnar;
pub mod compile;
pub mod dataset;
pub mod gradients;
pub mod grow;
pub mod histogram;
pub mod infer;
pub mod io;
pub mod metrics;
pub mod parallel;
pub mod partition;
pub mod phases;
pub mod predict;
pub mod preprocess;
pub mod program;
pub mod sample;
pub mod schema;
pub mod serialize;
pub mod split;
pub(crate) mod telemetry;
pub mod train;
pub mod tree;
pub mod walk;

/// Convenient re-exports of the most common types.
pub mod prelude {
    pub use crate::columnar::ColumnarMirror;
    pub use crate::compile::{compile, CompileError, CompileOptions, CompiledEnsemble};
    pub use crate::dataset::{Dataset, RawValue};
    pub use crate::gradients::{GradPair, Loss, Objective};
    pub use crate::grow::{grow_forest_with_eval, GrowthStrategy};
    pub use crate::infer::{FlatEnsemble, Predictor};
    pub use crate::metrics::EvalMetric;
    pub use crate::parallel::ParallelExec;
    pub use crate::predict::Model;
    pub use crate::preprocess::BinnedDataset;
    pub use crate::program::{program_from_bytes, program_to_bytes, Program, ProgramError};
    pub use crate::sample::SampleStream;
    pub use crate::schema::{DatasetSchema, FieldKind, FieldSchema};
    pub use crate::serialize::{model_from_bytes, model_to_bytes};
    pub use crate::split::SplitParams;
    pub use crate::train::{
        train, train_with, EarlyStopping, EvalSet, SequentialExec, StepExecutor, TrainConfig,
        TrainReport,
    };
    pub use crate::tree::{TableLoweringError, Tree, TreeTable};
}
