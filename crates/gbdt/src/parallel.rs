//! The multicore software implementation of GB training (Section II-D).
//!
//! "The input records are partitioned among the threads each of which has
//! a private version of the histograms of Step 1, at the end of which the
//! histograms are reduced. Step 3 is parallelized by partitioning the
//! input records and replicating the current tree among the threads."
//!
//! This is the software baseline the paper's Ideal 32-core idealizes,
//! with one refinement: Step 1 is parallelized **across fields**
//! (LightGBM's feature-parallel histogram construction) instead of
//! across records. Each worker owns whole fields, so every histogram bin
//! accumulates its records in the exact sequential row order — no
//! cross-thread reduction, no floating-point reassociation — and the
//! trained model is **bit-identical** to [`SequentialExec`]'s on every
//! growth mode (the property `tests/property_tests.rs` asserts). Steps 3
//! and 5 chunk records deterministically with in-order concatenation,
//! and the Step-5 loss total is folded in record order over the chunks'
//! per-record loss values, so `loss_history` — and with it
//! `min_loss_decrease` early stopping — is bit-identical across backends
//! too.

use rayon::prelude::*;

use crate::columnar::{ColumnRef, ColumnarMirror};
use crate::gradients::{GradPair, Loss};
use crate::histogram::{bin_field_dense, bin_field_gathered, sum_grad_pairs_dense, NodeHistogram};
use crate::partition::partition_rows;
use crate::preprocess::BinnedDataset;
use crate::split::SplitRule;
use crate::train::{lower_for_step5, SequentialExec, StepExecutor};
use crate::tree::Tree;

/// Parallel execution of the record-heavy steps: field-parallel Step 1,
/// record-chunked Steps 3 and 5. Bit-identical models to
/// [`crate::train::SequentialExec`] under every [`crate::grow::GrowthStrategy`].
#[derive(Debug, Clone, Copy)]
pub struct ParallelExec {
    /// Minimum rows before a step goes parallel (below it, the scalar
    /// path is cheaper), and the rows per chunk for Steps 3 and 5.
    /// Chunk boundaries are fixed so outputs are deterministic.
    pub chunk_size: usize,
}

impl Default for ParallelExec {
    fn default() -> Self {
        ParallelExec { chunk_size: 16 * 1024 }
    }
}

impl StepExecutor for ParallelExec {
    fn bin_records(
        &self,
        data: &BinnedDataset,
        columnar: &ColumnarMirror,
        rows: &[u32],
        grads: &[GradPair],
        hist: &mut NodeHistogram,
    ) -> u64 {
        if rows.len() < self.chunk_size {
            // Same field-wise kernel, serially: below the parallel
            // threshold the scalar executor's path is the fastest one
            // (and bit-identical, like everything here).
            return SequentialExec.bin_records(data, columnar, rows, grads, hist);
        }
        // One worker per field: every bin sees its records in sequential
        // row order, so the result matches the scalar path bit for bit.
        // Each worker streams its field's contiguous (byte-packed) mirror
        // column instead of striding the row-major matrix; the subset's
        // gradient pairs are gathered once, serially, so the workers all
        // stream the same dense slice (or `grads` itself when the row
        // set is the full ascending range — see the scalar executor).
        let gathered_storage;
        let gathered: &[GradPair] = if rows.len() == data.num_records() {
            debug_assert!(rows.iter().enumerate().all(|(i, &r)| i as u32 == r));
            grads
        } else {
            gathered_storage = rows.iter().map(|&r| grads[r as usize]).collect::<Vec<_>>();
            &gathered_storage
        };
        let dense = rows.len() == data.num_records();
        let _: Vec<()> = hist
            .lanes_mut()
            .into_par_iter()
            .enumerate()
            .map(|(f, mut lanes)| {
                if dense {
                    bin_field_dense(columnar.column(f), gathered, &mut lanes)
                } else {
                    bin_field_gathered(columnar.column(f), rows, gathered, &mut lanes)
                }
            })
            .collect();
        // Vertex totals: the same fixed-order four-lane reduction as the
        // scalar path ([`sum_grad_pairs_dense`]).
        hist.add_total(sum_grad_pairs_dense(gathered), rows.len() as u64);
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
        if rows.len() < self.chunk_size {
            return partition_rows(rows, column, rule, default_left, absent_bin);
        }
        let parts: Vec<(Vec<u32>, Vec<u32>)> = rows
            .par_chunks(self.chunk_size)
            .map(|chunk| partition_rows(chunk, column, rule, default_left, absent_bin))
            .collect();
        // Concatenate in chunk order: preserves global stability.
        let (mut left, mut right) = (Vec::with_capacity(rows.len()), Vec::new());
        for (l, r) in parts {
            left.extend(l);
            right.extend(r);
        }
        (left, right)
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
        let chunk = self.chunk_size;
        let walk = lower_for_step5(tree, data);
        // Each chunk keeps its records' loss values (the `exp` is paid
        // once, with the gradient pair) ...
        let mut loss_values = vec![0.0f64; margins.len()];
        let sum_path = margins
            .par_chunks_mut(chunk)
            .zip(grads.par_chunks_mut(chunk))
            .zip(loss_values.par_chunks_mut(chunk))
            .enumerate()
            .map(|(ci, ((mchunk, gchunk), lchunk))| {
                let first = ci * chunk;
                let labels = &labels[first..first + mchunk.len()];
                walk.traverse_update(data, first, loss, labels, mchunk, gchunk, |i, value| {
                    lchunk[i] = value;
                })
            })
            .reduce(|| 0, |a, b| a + b);
        // ... and the total is one record-ordered fold over them — the
        // same association as the scalar path, so `loss_history` and
        // therefore `min_loss_decrease` early stopping are bit-identical
        // across backends, not just the model.
        let mut total_loss = 0.0f64;
        for value in loss_values {
            total_loss += value;
        }
        (sum_path, total_loss)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{Dataset, RawValue};
    use crate::grow::GrowthStrategy;
    use crate::metrics;
    use crate::predict::Model;
    use crate::schema::{DatasetSchema, FieldSchema};
    use crate::train::{train, train_with, TrainConfig};

    fn dataset(n: usize) -> (BinnedDataset, ColumnarMirror) {
        let schema = DatasetSchema::new(vec![
            FieldSchema::numeric_with_bins("a", 32),
            FieldSchema::numeric_with_bins("b", 32),
            FieldSchema::categorical("c", 5),
        ]);
        let mut ds = Dataset::new(schema);
        let mut state = 42u64;
        let mut rng = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) as f32) / (u32::MAX >> 1) as f32
        };
        for _ in 0..n {
            let a = rng();
            let b = rng();
            let c = (rng() * 5.0) as u32 % 5;
            let y = a + 0.5 * b + if c == 3 { 0.4 } else { 0.0 };
            ds.push_record(&[RawValue::Num(a), RawValue::Num(b), RawValue::Cat(c)], y);
        }
        let binned = BinnedDataset::from_dataset(&ds);
        let mirror = ColumnarMirror::from_binned(&binned);
        (binned, mirror)
    }

    #[test]
    fn parallel_is_bit_identical_to_sequential() {
        let (data, mirror) = dataset(8000);
        let cfg = TrainConfig { num_trees: 10, max_depth: 4, ..Default::default() };
        let (m_seq, rep_seq) = train(&data, &mirror, &cfg);
        // Small chunks force the parallel paths on every step.
        let exec = ParallelExec { chunk_size: 512 };
        let (m_par, rep_par) = train_with(&data, &mirror, &cfg, &exec);
        assert_eq!(m_seq.trees, m_par.trees, "field-parallel Step 1 must not reassociate");
        // The loss fold is record-ordered too, so early stopping can
        // never diverge between backends.
        assert_eq!(rep_seq.loss_history, rep_par.loss_history);
        // Predictions agree on RMSE too, trivially.
        let labels: Vec<f64> = data.labels().iter().map(|&y| f64::from(y)).collect();
        let r_seq = metrics::rmse(&m_seq.predict_batch(&data), &labels);
        let r_par = metrics::rmse(&m_par.predict_batch(&data), &labels);
        assert_eq!(r_seq, r_par);
    }

    #[test]
    fn parallel_reaches_every_growth_mode() {
        let (data, mirror) = dataset(3000);
        for growth in [
            GrowthStrategy::VertexWise,
            GrowthStrategy::LevelWise,
            GrowthStrategy::LeafWise { max_leaves: 8 },
        ] {
            let cfg = TrainConfig { num_trees: 4, max_depth: 4, growth, ..Default::default() };
            let (m_par, rep) = train_with(&data, &mirror, &cfg, &ParallelExec::default());
            assert_eq!(m_par.num_trees(), 4, "{growth:?}");
            assert!(
                rep.loss_history.last().unwrap() < &rep.loss_history[0],
                "{growth:?} loss must decrease"
            );
        }
    }

    #[test]
    fn parallel_small_input_falls_back_to_sequential_path() {
        let (data, mirror) = dataset(100);
        let cfg = TrainConfig { num_trees: 3, max_depth: 3, ..Default::default() };
        // chunk_size larger than n: everything goes through the scalar path.
        let exec = ParallelExec { chunk_size: 1 << 20 };
        let (m_par, _) = train_with(&data, &mirror, &cfg, &exec);
        let (m_seq, _) = train(&data, &mirror, &cfg);
        assert_eq!(m_par.trees, m_seq.trees);
    }

    #[test]
    fn chunked_partition_is_stable() {
        let exec = ParallelExec { chunk_size: 7 };
        let column: Vec<u32> = (0..100).map(|i| i % 10).collect();
        let rows: Vec<u32> = (0..100).collect();
        let (l, r) = exec.partition(
            &rows,
            ColumnRef::Wide(&column),
            0,
            SplitRule::Numeric { threshold_bin: 4 },
            false,
            99,
        );
        assert!(l.windows(2).all(|w| w[0] < w[1]));
        assert!(r.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(l.len() + r.len(), 100);
    }

    #[test]
    fn chunked_binning_matches_unchunked_exactly() {
        let (data, mirror) = dataset(5000);
        let grads: Vec<GradPair> =
            (0..5000).map(|i| GradPair::new((i as f64).cos(), 1.0)).collect();
        let rows: Vec<u32> = (0..5000).collect();
        let exec = ParallelExec { chunk_size: 333 };
        let mut h_par = NodeHistogram::zeroed(&data);
        exec.bin_records(&data, &mirror, &rows, &grads, &mut h_par);
        let mut h_seq = NodeHistogram::zeroed(&data);
        h_seq.bin_records(&data, &rows, &grads);
        // Field-parallel accumulation preserves the row order per bin:
        // exact equality, not tolerance.
        assert_eq!(h_par, h_seq);
    }

    #[test]
    fn parallel_works_as_a_boxed_executor() {
        // The engine takes `&dyn StepExecutor`; make sure both backends
        // coexist behind the trait object surface.
        let (data, mirror) = dataset(600);
        let cfg = TrainConfig { num_trees: 2, max_depth: 3, ..Default::default() };
        let execs: Vec<Box<dyn StepExecutor>> =
            vec![Box::new(SequentialExec), Box::new(ParallelExec { chunk_size: 64 })];
        let models: Vec<Model> =
            execs.iter().map(|e| train_with(&data, &mirror, &cfg, e.as_ref()).0).collect();
        assert_eq!(models[0].trees, models[1].trees);
    }
}
