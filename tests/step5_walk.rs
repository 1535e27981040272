//! Differential test of the one-tree lane walk training's Step 5 runs
//! (`gbdt::walk::TreeWalk`) against the per-record node walk
//! (`Tree::traverse_binned`, the oracle): margins, gradient pairs, the
//! loss total's bits and the path sum must be equal on both bin
//! layouts, every growth order (including leaf-wise trees far deeper
//! than they are bushy, where most lanes idle on a leaf for most of the
//! fixed-depth walk), every per-record loss, and record counts on both
//! sides of every lane-group and block boundary.

use booster_repro::gbdt::columnar::ColumnarMirror;
use booster_repro::gbdt::dataset::{Dataset, RawValue};
use booster_repro::gbdt::gradients::{GradPair, Loss};
use booster_repro::gbdt::grow::GrowthStrategy;
use booster_repro::gbdt::parallel::ParallelExec;
use booster_repro::gbdt::preprocess::BinnedDataset;
use booster_repro::gbdt::schema::{DatasetSchema, FieldSchema};
use booster_repro::gbdt::split::SplitParams;
use booster_repro::gbdt::train::{train, SequentialExec, StepExecutor, TrainConfig};
use booster_repro::gbdt::tree::Tree;
use booster_repro::gbdt::walk::TreeWalk;

const RECORDS: usize = 700;

/// 700 records over a 16-valued numeric field with missing values, a
/// categorical and a coarse numeric. The training label quadruples with
/// every step of `x`, so the one split worth making is always "the top
/// value of what is left against the rest" and best-first growth builds
/// a vine.
fn dataset() -> BinnedDataset {
    let schema = DatasetSchema::new(vec![
        FieldSchema::numeric_with_bins("x", 128),
        FieldSchema::categorical("c", 4),
        FieldSchema::numeric_with_bins("y", 8),
    ]);
    let mut ds = Dataset::new(schema);
    for i in 0..RECORDS {
        let x = RawValue::Num((i % 16) as f32);
        let c = RawValue::Cat((i * 7 % 4) as u32);
        let y = if i % 17 == 0 { RawValue::Missing } else { RawValue::Num((i * 13 % 50) as f32) };
        let label = 4f32.powi((i % 16) as i32) + (i % 4) as f32;
        ds.push_record(&[x, c, y], label);
    }
    BinnedDataset::from_dataset(&ds)
}

/// The last tree of a short run in `growth` order. No L2 penalty: the
/// labels sit on a mean of ~1e8, and `lambda = 1` charges every extra
/// leaf that mean squared — more than the low end of the vine gains.
fn grown(data: &BinnedDataset, growth: GrowthStrategy, max_depth: u32) -> Tree {
    let split = SplitParams { lambda: 0.0, ..Default::default() };
    let cfg = TrainConfig { num_trees: 3, max_depth, growth, split, ..Default::default() };
    let (model, _) = train(data, &ColumnarMirror::from_binned(data), &cfg);
    model.trees.last().expect("three trees").clone()
}

/// Step 5 as every executor ran it before the lane walk: one node walk
/// per record, fused with the refresh.
fn oracle(
    data: &BinnedDataset,
    tree: &Tree,
    loss: Loss,
    labels: &[f32],
    margins: &mut [f64],
    grads: &mut [GradPair],
) -> (u64, f64) {
    let (mut sum_path, mut total) = (0u64, 0.0f64);
    for r in 0..margins.len() {
        let (w, path) = tree.traverse_binned(data, r);
        sum_path += u64::from(path);
        margins[r] += w;
        let (gp, value) = loss.grad_value(margins[r], f64::from(labels[r]));
        grads[r] = gp;
        total += value;
    }
    (sum_path, total)
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn grad_bits(v: &[GradPair]) -> Vec<(u64, u64)> {
    v.iter().map(|gp| (gp.g.to_bits(), gp.h.to_bits())).collect()
}

#[test]
fn lane_walk_equals_the_node_walk_oracle() {
    let packed = dataset();
    assert!(packed.is_packed());
    let wide = packed.to_wide();
    assert!(!wide.is_packed());
    let trees = [
        ("vertex-wise", grown(&packed, GrowthStrategy::VertexWise, 5)),
        ("level-wise", grown(&packed, GrowthStrategy::LevelWise, 5)),
        ("leaf-wise", grown(&packed, GrowthStrategy::LeafWise { max_leaves: 20 }, 18)),
    ];
    let vine = &trees[2].1;
    assert!(
        vine.depth() >= 12 && vine.num_leaves() <= 20,
        "the leaf-wise case must be deep and thin, got depth {} with {} leaves",
        vine.depth(),
        vine.num_leaves()
    );
    // Labels and margins of the Step-5 call itself: 0/1 labels (so the
    // logistic loss is in range) and a margin per record that is not
    // the same everywhere.
    let labels: Vec<f32> = (0..RECORDS).map(|r| (r % 3 == 0) as u8 as f32).collect();
    let start: Vec<f64> = (0..RECORDS).map(|r| (r as f64 * 0.37).sin()).collect();
    let losses = [Loss::Logistic, Loss::SquaredError, Loss::Quantile { alpha: 0.3 }];

    for (layout, data) in [("packed", &packed), ("wide", &wide)] {
        for (growth, tree) in &trees {
            let walk = TreeWalk::lower(tree, data).expect("grower-built tree lowers");
            for loss in losses {
                for n in [0usize, 1, 7, 8, 9, 255, 256, 257, 700] {
                    let case = format!("{layout} {growth} {loss:?} n={n}");
                    let mut want_m = start[..n].to_vec();
                    let mut want_g = vec![GradPair::zero(); n];
                    let (want_path, want_total) =
                        oracle(data, tree, loss, &labels[..n], &mut want_m, &mut want_g);

                    let mut got_m = start[..n].to_vec();
                    let mut got_g = vec![GradPair::zero(); n];
                    let mut got_total = 0.0f64;
                    let mut next = 0usize;
                    let got_path = walk.traverse_update(
                        data,
                        0,
                        loss,
                        &labels[..n],
                        &mut got_m,
                        &mut got_g,
                        |i, value| {
                            assert_eq!(i, next, "{case}: loss values must arrive in row order");
                            next += 1;
                            got_total += value;
                        },
                    );
                    assert_eq!(next, n, "{case}: one loss value per record");
                    assert_eq!(bits(&got_m), bits(&want_m), "{case}: margins");
                    assert_eq!(grad_bits(&got_g), grad_bits(&want_g), "{case}: gradient pairs");
                    assert_eq!(got_total.to_bits(), want_total.to_bits(), "{case}: loss total");
                    assert_eq!(got_path, want_path, "{case}: path sum");
                }
            }
        }
    }
}

/// The same equality one level up: both local executors' `traverse_update`
/// over a whole dataset, the parallel one with chunks of one lane group
/// (so every chunk starts mid-dataset and the last is a pure tail).
#[test]
fn both_executors_equal_the_oracle() {
    let data = dataset();
    let labels: Vec<f32> = (0..RECORDS).map(|r| (r % 5) as f32 * 0.25).collect();
    let start: Vec<f64> = (0..RECORDS).map(|r| (r as f64 * 0.11).cos()).collect();
    let tree = grown(&data, GrowthStrategy::LeafWise { max_leaves: 20 }, 18);
    for loss in [Loss::Logistic, Loss::SquaredError, Loss::Quantile { alpha: 0.8 }] {
        let mut want_m = start.clone();
        let mut want_g = vec![GradPair::zero(); RECORDS];
        let want = oracle(&data, &tree, loss, &labels, &mut want_m, &mut want_g);
        let execs: [(&str, &dyn StepExecutor); 3] = [
            ("sequential", &SequentialExec),
            ("parallel/8", &ParallelExec { chunk_size: 8 }),
            ("parallel/300", &ParallelExec { chunk_size: 300 }),
        ];
        for (name, exec) in execs {
            let mut m = start.clone();
            let mut g = vec![GradPair::zero(); RECORDS];
            let got = exec.traverse_update(&data, &tree, loss, &labels, &mut m, &mut g);
            assert_eq!(got.0, want.0, "{name} {loss:?}: path sum");
            assert_eq!(got.1.to_bits(), want.1.to_bits(), "{name} {loss:?}: loss total");
            assert_eq!(bits(&m), bits(&want_m), "{name} {loss:?}: margins");
            assert_eq!(grad_bits(&g), grad_bits(&want_g), "{name} {loss:?}: gradient pairs");
        }
    }
}
