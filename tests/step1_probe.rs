//! Step 1 builds only what Step 2 reads: a probe executor watches
//! every call the growth engine makes and checks that a histogram is
//! built for a vertex only if that vertex will be scanned.
//!
//! Per tree, `bin_records` must run exactly once for the root and once
//! per split whose children sit above `max_depth` (the smaller child;
//! the larger is a subtraction), never on the rows of a vertex at
//! `max_depth`; those vertices get one `vertex_total` per split
//! instead. The probe learns every vertex's depth from the partitions
//! it serves, so the check needs nothing from the engine but its calls.

use std::collections::HashMap;
use std::sync::Mutex;

use booster_repro::datagen::{default_objective, generate_binned, Benchmark};
use booster_repro::gbdt::columnar::{ColumnRef, ColumnarMirror};
use booster_repro::gbdt::gradients::{GradPair, Loss};
use booster_repro::gbdt::grow::GrowthStrategy;
use booster_repro::gbdt::histogram::NodeHistogram;
use booster_repro::gbdt::preprocess::BinnedDataset;
use booster_repro::gbdt::split::SplitRule;
use booster_repro::gbdt::train::{train, train_with, SequentialExec, StepExecutor, TrainConfig};
use booster_repro::gbdt::tree::Tree;

/// What one tree's growth asked of the executor.
#[derive(Debug, Default)]
struct TreeCalls {
    /// Depth of every vertex seen so far, keyed by its row set (the
    /// vertices of one tree hold disjoint, non-empty row sets).
    depth_of: HashMap<Vec<u32>, u32>,
    /// Depths of the vertices `bin_records` was called on, root first.
    binned: Vec<u32>,
    /// Depths of the vertices `vertex_total` was called on.
    totalled: Vec<u32>,
    /// Depths of the vertices that were split.
    split: Vec<u32>,
    /// Records handed to `bin_records`.
    binned_records: u64,
}

/// Delegates to [`SequentialExec`] and books every call.
#[derive(Default)]
struct Probe {
    current: Mutex<TreeCalls>,
    finished: Mutex<Vec<TreeCalls>>,
}

impl Probe {
    fn depth(calls: &TreeCalls, rows: &[u32]) -> u32 {
        assert!(!rows.is_empty(), "the engine never asks about an empty vertex");
        *calls.depth_of.get(rows).expect("rows of a vertex this tree's partitions produced")
    }
}

impl StepExecutor for Probe {
    fn bin_records(
        &self,
        data: &BinnedDataset,
        columnar: &ColumnarMirror,
        rows: &[u32],
        grads: &[GradPair],
        hist: &mut NodeHistogram,
    ) -> u64 {
        let mut calls = self.current.lock().unwrap();
        if calls.binned.is_empty() {
            // The first build of a tree is its root.
            calls.depth_of.insert(rows.to_vec(), 0);
        }
        let depth = Probe::depth(&calls, rows);
        calls.binned.push(depth);
        calls.binned_records += rows.len() as u64;
        SequentialExec.bin_records(data, columnar, rows, grads, hist)
    }

    fn vertex_total(&self, rows: &[u32], grads: &[GradPair]) -> GradPair {
        let mut calls = self.current.lock().unwrap();
        let depth = Probe::depth(&calls, rows);
        calls.totalled.push(depth);
        SequentialExec.vertex_total(rows, grads)
    }

    fn partition(
        &self,
        rows: &[u32],
        column: ColumnRef<'_>,
        field: usize,
        rule: SplitRule,
        default_left: bool,
        absent_bin: u32,
    ) -> (Vec<u32>, Vec<u32>) {
        let (left, right) =
            SequentialExec.partition(rows, column, field, rule, default_left, absent_bin);
        let mut calls = self.current.lock().unwrap();
        let depth = Probe::depth(&calls, rows);
        calls.split.push(depth);
        calls.depth_of.insert(left.clone(), depth + 1);
        calls.depth_of.insert(right.clone(), depth + 1);
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
        // Step 5 closes a tree.
        let done = std::mem::take(&mut *self.current.lock().unwrap());
        self.finished.lock().unwrap().push(done);
        SequentialExec.traverse_update(data, tree, loss, labels, margins, grads)
    }
}

#[test]
fn histograms_are_built_for_scanned_vertices_only() {
    let (data, mirror) = generate_binned(Benchmark::Higgs, 1_500, 17);
    let growths = [
        GrowthStrategy::VertexWise,
        GrowthStrategy::LevelWise,
        GrowthStrategy::LeafWise { max_leaves: 9 },
    ];
    let (mut child_builds, mut child_totals) = (0usize, 0usize);
    for growth in growths {
        for max_depth in [0u32, 1, 2, 4] {
            let cfg = TrainConfig {
                num_trees: 4,
                max_depth,
                growth,
                subsample: 0.8,
                colsample_bytree: 0.8,
                colsample_bynode: 0.6,
                seed: 77,
                objective: default_objective(Benchmark::Higgs),
                ..Default::default()
            };
            let what = format!("{growth:?}, max_depth {max_depth}");
            let probe = Probe::default();
            let (model, report) = train_with(&data, &mirror, &cfg, &probe);
            let trees = probe.finished.into_inner().unwrap();
            assert_eq!(trees.len(), model.trees.len(), "{what}: one call record per tree");

            let mut binned_records = 0u64;
            for (calls, tree) in trees.iter().zip(&model.trees) {
                assert_eq!(
                    calls.split.len(),
                    tree.num_leaves() - 1,
                    "{what}: one Step 3 per split"
                );
                let scanned_children = calls.split.iter().filter(|&&d| d + 1 < max_depth).count();
                assert_eq!(
                    calls.binned.len(),
                    1 + scanned_children,
                    "{what}: one build for the root, one per split whose children are scanned"
                );
                assert_eq!(
                    calls.totalled.len(),
                    calls.split.len() - scanned_children,
                    "{what}: one total per split whose children are leaves by depth"
                );
                assert_eq!(calls.binned[0], 0, "{what}: the root is built first");
                assert!(
                    calls.binned[1..].iter().all(|&d| d > 0 && d < max_depth),
                    "{what}: a vertex at max_depth was binned: depths {:?}",
                    calls.binned
                );
                assert!(
                    calls.totalled.iter().all(|&d| d == max_depth),
                    "{what}: totals are for vertices at max_depth only: {:?}",
                    calls.totalled
                );
                binned_records += calls.binned_records;
                child_builds += calls.binned.len() - 1;
                child_totals += calls.totalled.len();
            }
            // The counters say what the probe saw, no more.
            assert_eq!(report.work.step1_records, binned_records, "{what}");
            assert_eq!(
                report.work.step1_updates,
                binned_records * data.num_fields() as u64,
                "{what}"
            );

            // The probe changed nothing: per-node masks are drawn for
            // scanned vertices only, exactly as before, so the sampler
            // stream — and the model — match a plain run.
            let (plain, plain_report) = train(&data, &mirror, &cfg);
            assert_eq!(model.trees, plain.trees, "{what}");
            assert_eq!(
                format!("{:?}", report.work),
                format!("{:?}", plain_report.work),
                "{what}: work counters"
            );
        }
    }
    assert!(child_builds > 50 && child_totals > 50, "{child_builds} builds, {child_totals} totals");
}
