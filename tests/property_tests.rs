//! Property-based tests (proptest) on the core data structures and
//! invariants, spanning the gbdt and dram crates.

use proptest::prelude::*;

use booster_repro::dram::{run_trace, DramConfig, Request};
use booster_repro::gbdt::binning::BinBoundaries;
use booster_repro::gbdt::columnar::ColumnRef;
use booster_repro::gbdt::dataset::{Dataset, RawValue};
use booster_repro::gbdt::gradients::GradPair;
use booster_repro::gbdt::histogram::NodeHistogram;
use booster_repro::gbdt::partition::partition_rows;
use booster_repro::gbdt::phases::{column_blocks, distinct_blocks, row_major_blocks};
use booster_repro::gbdt::preprocess::BinnedDataset;
use booster_repro::gbdt::schema::{DatasetSchema, FieldSchema};
use booster_repro::gbdt::split::{goes_left, SplitRule};

// ---------------------------------------------------------------- binning

proptest! {
    #[test]
    fn binning_is_monotone_and_total(mut values in prop::collection::vec(-1e6f32..1e6, 2..400), bins in 2u16..64) {
        let b = BinBoundaries::from_values(&mut values, bins);
        prop_assert!(b.num_bins() >= 1);
        prop_assert!(b.num_bins() <= u32::from(bins));
        // Monotone: larger values never map to smaller bins.
        let mut sorted = values.clone();
        sorted.sort_by(|a, c| a.partial_cmp(c).unwrap());
        let mut prev = 0u32;
        for v in sorted {
            let bin = b.bin_of(v);
            prop_assert!(bin >= prev);
            prop_assert!(bin < b.num_bins());
            prev = bin;
        }
        // Boundaries strictly increasing.
        for w in b.uppers().windows(2) {
            prop_assert!(w[0] < w[1]);
        }
    }

    #[test]
    fn every_value_lands_in_a_bin_containing_it(mut values in prop::collection::vec(-1e3f32..1e3, 2..200)) {
        let b = BinBoundaries::from_values(&mut values, 16);
        for &v in &values {
            let bin = b.bin_of(v);
            // v must be <= its bin's upper boundary (if bounded) and
            // greater than the previous boundary.
            if let Some(up) = b.upper(bin) {
                prop_assert!(v <= up);
            }
            if bin > 0 {
                let below = b.upper(bin - 1).unwrap();
                prop_assert!(v > below);
            }
        }
    }
}

// -------------------------------------------------------------- histograms

fn arb_dataset_and_grads() -> impl Strategy<Value = (BinnedDataset, Vec<GradPair>, Vec<u32>)> {
    (2usize..6, 20usize..150).prop_flat_map(|(nf, n)| {
        let schema = DatasetSchema::new(
            (0..nf)
                .map(|i| {
                    if i % 2 == 0 {
                        FieldSchema::numeric_with_bins(format!("n{i}"), 8)
                    } else {
                        FieldSchema::categorical(format!("c{i}"), 4)
                    }
                })
                .collect(),
        );
        (
            Just(schema),
            prop::collection::vec(prop::collection::vec(any::<u8>(), nf), n..=n),
            prop::collection::vec((-10.0f64..10.0, 0.1f64..2.0), n..=n),
            prop::collection::vec(any::<bool>(), n..=n),
        )
            .prop_map(move |(schema, raw_rows, grads, mask)| {
                let mut ds = Dataset::new(schema);
                let mut row = Vec::with_capacity(nf);
                for cells in &raw_rows {
                    row.clear();
                    for (f, &c) in cells.iter().enumerate() {
                        if f % 2 == 0 {
                            row.push(RawValue::Num(f32::from(c)));
                        } else {
                            row.push(RawValue::Cat(u32::from(c % 4)));
                        }
                    }
                    ds.push_record(&row, 0.0);
                }
                let binned = BinnedDataset::from_dataset(&ds);
                let grads: Vec<GradPair> =
                    grads.into_iter().map(|(g, h)| GradPair::new(g, h)).collect();
                let subset: Vec<u32> =
                    mask.iter().enumerate().filter(|(_, &m)| m).map(|(i, _)| i as u32).collect();
                (binned, grads, subset)
            })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn histogram_subtraction_equals_direct((data, grads, subset) in arb_dataset_and_grads()) {
        let n = data.num_records() as u32;
        let all: Vec<u32> = (0..n).collect();
        let rest: Vec<u32> = all.iter().copied().filter(|r| !subset.contains(r)).collect();

        let mut parent = NodeHistogram::zeroed(&data);
        parent.bin_records(&data, &all, &grads);
        let mut small = NodeHistogram::zeroed(&data);
        small.bin_records(&data, &subset, &grads);
        let derived = NodeHistogram::subtract_from(&parent, &small);
        let mut direct = NodeHistogram::zeroed(&data);
        direct.bin_records(&data, &rest, &grads);

        prop_assert_eq!(derived.total_count(), direct.total_count());
        for f in 0..data.num_fields() {
            for (a, b) in derived.field(f).iter().zip(direct.field(f)) {
                prop_assert_eq!(a.count, b.count);
                prop_assert!((a.grad.g - b.grad.g).abs() < 1e-6);
                prop_assert!((a.grad.h - b.grad.h).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn histogram_field_sums_equal_totals((data, grads, subset) in arb_dataset_and_grads()) {
        let mut h = NodeHistogram::zeroed(&data);
        h.bin_records(&data, &subset, &grads);
        for f in 0..data.num_fields() {
            let count: u64 = h.field(f).iter().map(|b| b.count).sum();
            prop_assert_eq!(count, subset.len() as u64, "field {} count", f);
            let g: f64 = h.field(f).iter().map(|b| b.grad.g).sum();
            prop_assert!((g - h.total().g).abs() < 1e-6);
        }
    }
}

// ------------------------------------------------------------- partitioning

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn partition_is_a_stable_disjoint_cover(
        column in prop::collection::vec(0u32..10, 10..200),
        threshold in 0u32..10,
        default_left in any::<bool>(),
    ) {
        let rows: Vec<u32> = (0..column.len() as u32).collect();
        let rule = SplitRule::Numeric { threshold_bin: threshold };
        let absent = 9u32;
        let (l, r) = partition_rows(&rows, ColumnRef::Wide(&column), rule, default_left, absent);
        prop_assert_eq!(l.len() + r.len(), rows.len());
        // Stable: both sides sorted.
        prop_assert!(l.windows(2).all(|w| w[0] < w[1]));
        prop_assert!(r.windows(2).all(|w| w[0] < w[1]));
        // Routing agrees with goes_left.
        for &x in &l {
            prop_assert!(goes_left(rule, default_left, column[x as usize], absent));
        }
        for &x in &r {
            prop_assert!(!goes_left(rule, default_left, column[x as usize], absent));
        }
    }

    #[test]
    fn block_counting_bounds(
        mask in prop::collection::vec(any::<bool>(), 1..500),
        record_bytes in 1u32..130,
    ) {
        let rows: Vec<u32> = mask
            .iter()
            .enumerate()
            .filter(|(_, &m)| m)
            .map(|(i, _)| i as u32)
            .collect();
        let rb = row_major_blocks(&rows, record_bytes);
        let cb = column_blocks(&rows, 1);
        // Never more blocks than records x blocks-per-record; never fewer
        // than the dense minimum.
        let per_record = (record_bytes as usize).div_ceil(64).max(1);
        prop_assert!(rb <= rows.len() * per_record);
        prop_assert!(cb <= rows.len());
        if !rows.is_empty() {
            prop_assert!(rb >= 1);
            prop_assert!(cb >= 1);
            // Lower bound: even perfectly packed, the subset's bytes need
            // this many blocks.
            let min_blocks = (rows.len() * record_bytes as usize) / 64;
            prop_assert!(rb >= min_blocks.max(1));
        }
        // Distinct blocks of a sorted list is monotone in items/block.
        prop_assert!(distinct_blocks(&rows, 64) <= distinct_blocks(&rows, 32));
    }
}

// ----------------------------------------------------------- split finding

/// Exhaustively evaluate every (rule, default) candidate by routing the
/// records directly, and return the best gain — the oracle the scan must
/// match.
fn brute_force_best_gain(data: &BinnedDataset, grads: &[GradPair], lambda: f64) -> Option<f64> {
    use booster_repro::gbdt::preprocess::FieldBinning;
    let n = data.num_records();
    let total: GradPair = (0..n).fold(GradPair::zero(), |acc, r| acc + grads[r]);
    let score = |gp: GradPair| gp.g * gp.g / (gp.h + lambda);
    let parent = score(total);
    let mut best: Option<f64> = None;
    for f in 0..data.num_fields() {
        let binning = &data.binnings()[f];
        let absent = binning.absent_bin();
        let candidates: Vec<SplitRule> = match binning {
            FieldBinning::Numeric(b) => (0..b.num_bins().saturating_sub(1))
                .map(|i| SplitRule::Numeric { threshold_bin: i })
                .collect(),
            FieldBinning::Categorical { categories } => {
                (0..*categories).map(|c| SplitRule::Categorical { category: c }).collect()
            }
        };
        for rule in candidates {
            for default_left in [false, true] {
                let mut left = GradPair::zero();
                let mut left_n = 0u64;
                for (r, g) in grads.iter().enumerate().take(n) {
                    if goes_left(rule, default_left, data.bin(r, f), absent) {
                        left += *g;
                        left_n += 1;
                    }
                }
                let right = total - left;
                let right_n = n as u64 - left_n;
                if left_n == 0 || right_n == 0 || left.h < 1.0 || right.h < 1.0 {
                    continue;
                }
                let gain = 0.5 * (score(left) + score(right) - parent);
                if gain > 0.0 && best.is_none_or(|b| gain > b) {
                    best = Some(gain);
                }
            }
        }
    }
    best
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn split_scan_matches_brute_force((data, grads, _) in arb_dataset_and_grads()) {
        use booster_repro::gbdt::histogram::NodeHistogram;
        use booster_repro::gbdt::split::{find_best_split, SplitParams};
        let rows: Vec<u32> = (0..data.num_records() as u32).collect();
        let mut hist = NodeHistogram::zeroed(&data);
        hist.bin_records(&data, &rows, &grads);
        let params = SplitParams { lambda: 1.0, gamma: 0.0, min_child_weight: 1.0 };
        let (scan, _) = find_best_split(&hist, data.binnings(), &params, None);
        let oracle = brute_force_best_gain(&data, &grads, 1.0);
        match (scan, oracle) {
            (Some(s), Some(o)) => {
                prop_assert!(
                    (s.gain - o).abs() < 1e-6 * (1.0 + o.abs()),
                    "scan gain {} vs brute force {}", s.gain, o
                );
            }
            (None, None) => {}
            (s, o) => prop_assert!(
                false,
                "scan {:?} vs oracle {:?} disagree on existence",
                s.map(|x| x.gain),
                o
            ),
        }
    }
}

// ------------------------------------------------- growth-mode equivalence

/// Replace the generated dataset's all-zero labels with bin-derived ones
/// so trees actually split, and build the columnar mirror.
fn relabel(data: &BinnedDataset) -> (BinnedDataset, booster_repro::gbdt::columnar::ColumnarMirror) {
    use booster_repro::gbdt::columnar::ColumnarMirror;
    let labels: Vec<f32> = (0..data.num_records()).map(|r| (data.bin(r, 0) % 3) as f32).collect();
    let data = BinnedDataset::from_parts(
        data.schema().clone(),
        data.binnings().to_vec(),
        (0..data.num_records()).flat_map(|r| data.row(r).to_vec()).collect(),
        labels,
    );
    let mirror = ColumnarMirror::from_binned(&data);
    (data, mirror)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Vertex-by-vertex and level-by-level growth visit the same vertices
    /// with the same histograms, so both trainers must produce identical
    /// predictions on any dataset.
    #[test]
    fn levelwise_equals_vertexwise((data, grads, _) in arb_dataset_and_grads()) {
        use booster_repro::gbdt::grow::GrowthStrategy;
        use booster_repro::gbdt::train::{train, TrainConfig};
        let _ = grads;
        let (data, mirror) = relabel(&data);
        let cfg = TrainConfig { num_trees: 3, max_depth: 4, ..Default::default() };
        let (mv, _) = train(&data, &mirror, &cfg);
        let level = TrainConfig { growth: GrowthStrategy::LevelWise, ..cfg };
        let (ml, _) = train(&data, &mirror, &level);
        for r in 0..data.num_records() {
            let pv = mv.predict_binned(&data, r);
            let pl = ml.predict_binned(&data, r);
            prop_assert!((pv - pl).abs() < 1e-9, "record {}: {} vs {}", r, pv, pl);
        }
    }

    /// The parallel backend must produce **bit-identical** models to the
    /// sequential one under every growth strategy: field-parallel Step-1
    /// binning preserves per-bin accumulation order, and Steps 3/5 are
    /// exact per record.
    #[test]
    fn executors_are_bit_identical_for_every_growth_mode(
        (data, grads, _) in arb_dataset_and_grads()
    ) {
        use booster_repro::gbdt::grow::GrowthStrategy;
        use booster_repro::gbdt::parallel::ParallelExec;
        use booster_repro::gbdt::train::{train_with, SequentialExec, TrainConfig};
        let _ = grads;
        let (data, mirror) = relabel(&data);
        for growth in [
            GrowthStrategy::VertexWise,
            GrowthStrategy::LevelWise,
            GrowthStrategy::LeafWise { max_leaves: 6 },
        ] {
            let cfg = TrainConfig { num_trees: 2, max_depth: 3, growth, ..Default::default() };
            let (ms, _) = train_with(&data, &mirror, &cfg, &SequentialExec);
            // A tiny chunk size forces the parallel paths even on these
            // small generated datasets.
            let (mp, _) = train_with(&data, &mirror, &cfg, &ParallelExec { chunk_size: 8 });
            prop_assert_eq!(&ms.trees, &mp.trees, "growth mode {:?}", growth);
            for r in 0..data.num_records() {
                prop_assert_eq!(
                    ms.predict_binned(&data, r).to_bits(),
                    mp.predict_binned(&data, r).to_bits(),
                    "growth mode {:?}, record {}", growth, r
                );
            }
        }
    }

    /// With a leaf budget of `2^max_depth` the best-first order can never
    /// run out of budget before the depth limit, so leaf-wise must grow
    /// exactly the trees level-wise grows (identical predictions, leaf
    /// counts and depths) — the orders differ only in scheduling.
    #[test]
    fn leafwise_with_full_budget_equals_levelwise(
        (data, grads, _) in arb_dataset_and_grads()
    ) {
        use booster_repro::gbdt::grow::GrowthStrategy;
        use booster_repro::gbdt::train::{train_with, SequentialExec, TrainConfig};
        let _ = grads;
        let (data, mirror) = relabel(&data);
        let max_depth = 4u32;
        let base = TrainConfig { num_trees: 3, max_depth, ..Default::default() };
        let level = TrainConfig { growth: GrowthStrategy::LevelWise, ..base.clone() };
        let leaf = TrainConfig {
            growth: GrowthStrategy::LeafWise { max_leaves: 1 << max_depth },
            ..base
        };
        let (ml, _) = train_with(&data, &mirror, &level, &SequentialExec);
        let (mf, _) = train_with(&data, &mirror, &leaf, &SequentialExec);
        for (tl, tf) in ml.trees.iter().zip(&mf.trees) {
            prop_assert_eq!(tl.num_leaves(), tf.num_leaves());
            prop_assert_eq!(tl.depth(), tf.depth());
        }
        for r in 0..data.num_records() {
            prop_assert_eq!(
                ml.predict_binned(&data, r).to_bits(),
                mf.predict_binned(&data, r).to_bits(),
                "record {}", r
            );
        }
    }
}

// --------------------------------------------- stochastic-training identity

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The bit-identity guarantee must survive the stochastic paths:
    /// with row subsampling and per-tree + per-node column sampling all
    /// enabled, every growth strategy still produces **bit-identical**
    /// models *and loss histories* on the sequential and parallel
    /// backends — the masks come from one seeded stream owned by the
    /// engine, never by an executor.
    #[test]
    fn stochastic_training_is_bit_identical_across_executors(
        (data, grads, _) in arb_dataset_and_grads(),
        seed in any::<u64>(),
    ) {
        use booster_repro::gbdt::grow::GrowthStrategy;
        use booster_repro::gbdt::parallel::ParallelExec;
        use booster_repro::gbdt::train::{train_with, SequentialExec, TrainConfig};
        let _ = grads;
        let (data, mirror) = relabel(&data);
        for growth in [
            GrowthStrategy::VertexWise,
            GrowthStrategy::LevelWise,
            GrowthStrategy::LeafWise { max_leaves: 6 },
        ] {
            let cfg = TrainConfig {
                num_trees: 3,
                max_depth: 3,
                subsample: 0.6,
                colsample_bytree: 0.7,
                colsample_bynode: 0.7,
                seed,
                growth,
                ..Default::default()
            };
            let (ms, rs) = train_with(&data, &mirror, &cfg, &SequentialExec);
            // A tiny chunk size forces the parallel paths even on these
            // small generated datasets.
            let (mp, rp) = train_with(&data, &mirror, &cfg, &ParallelExec { chunk_size: 8 });
            prop_assert_eq!(&ms.trees, &mp.trees, "growth {:?} seed {}", growth, seed);
            prop_assert_eq!(rs.loss_history.len(), rp.loss_history.len());
            for (t, (a, b)) in rs.loss_history.iter().zip(&rp.loss_history).enumerate() {
                prop_assert_eq!(
                    a.to_bits(), b.to_bits(),
                    "loss history diverged: growth {:?}, seed {}, tree {}", growth, seed, t
                );
            }
        }
    }

    /// The eval pipeline rides on the same invariant: identical eval
    /// histories and best iterations across backends, sampling enabled.
    #[test]
    fn eval_pipeline_is_bit_identical_across_executors(
        (data, grads, _) in arb_dataset_and_grads(),
        seed in any::<u64>(),
    ) {
        use booster_repro::gbdt::grow::grow_forest_with_eval;
        use booster_repro::gbdt::parallel::ParallelExec;
        use booster_repro::gbdt::train::{EarlyStopping, EvalSet, SequentialExec, TrainConfig};
        let _ = grads;
        let (data, mirror) = relabel(&data);
        let cfg = TrainConfig {
            num_trees: 4,
            max_depth: 3,
            subsample: 0.7,
            colsample_bytree: 0.8,
            seed,
            early_stopping: Some(EarlyStopping { patience: 2, ..Default::default() }),
            ..Default::default()
        };
        // Self-evaluation is enough here: the point is backend identity,
        // not generalization.
        let eval = EvalSet::new(&data);
        let (ms, rs) = grow_forest_with_eval(&data, &mirror, &cfg, &SequentialExec, Some(&eval));
        let (mp, rp) = grow_forest_with_eval(
            &data, &mirror, &cfg, &ParallelExec { chunk_size: 8 }, Some(&eval),
        );
        prop_assert_eq!(&ms.trees, &mp.trees);
        prop_assert_eq!(rs.best_iteration, rp.best_iteration);
        let (hs, hp) = (rs.eval_history.unwrap(), rp.eval_history.unwrap());
        prop_assert_eq!(hs.len(), hp.len());
        for (a, b) in hs.iter().zip(&hp) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
    }
}

// ------------------------------------------------- flat-ensemble inference

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// A lowered model's compiled program must reproduce the per-record
    /// node walk **bit-for-bit** on generated datasets, for models grown
    /// under every strategy, and report the same per-record path lengths
    /// as `predict_batch_with_paths`. (The entry-point x K x batch-shape
    /// matrix lives in `tests/compiled_differential.rs`.)
    #[test]
    fn flat_ensemble_is_bit_identical_to_node_walk(
        (data, grads, _) in arb_dataset_and_grads()
    ) {
        use booster_repro::gbdt::grow::GrowthStrategy;
        use booster_repro::gbdt::infer::FlatEnsemble;
        use booster_repro::gbdt::train::{train_with, SequentialExec, TrainConfig};
        let _ = grads;
        let (data, mirror) = relabel(&data);
        for growth in [
            GrowthStrategy::VertexWise,
            GrowthStrategy::LevelWise,
            GrowthStrategy::LeafWise { max_leaves: 6 },
        ] {
            let cfg = TrainConfig { num_trees: 3, max_depth: 3, growth, ..Default::default() };
            let (model, _) = train_with(&data, &mirror, &cfg, &SequentialExec);
            let flat = FlatEnsemble::from_model(&model).expect("depth-3 trees lower");
            let (preds_node, paths_node) = model.predict_batch_with_paths(&data);
            let (preds_flat, paths_flat) = flat.compiled().predict_batch_with_paths(&data);
            prop_assert_eq!(&paths_node, &paths_flat, "paths, growth {:?}", growth);
            let got = flat.compiled().predict_batch(&data);
            prop_assert_eq!(got.len(), preds_node.len());
            for (r, ((a, b), c)) in got.iter().zip(&preds_flat).zip(&preds_node).enumerate() {
                prop_assert_eq!(a.to_bits(), c.to_bits(), "growth {:?}, record {}", growth, r);
                prop_assert_eq!(
                    b.to_bits(), c.to_bits(),
                    "with paths, growth {:?}, record {}", growth, r
                );
            }
        }
    }
}

// ----------------------------------------------------------- serialization

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn model_serialization_roundtrips((data, grads, _) in arb_dataset_and_grads()) {
        use booster_repro::gbdt::columnar::ColumnarMirror;
        use booster_repro::gbdt::serialize::{model_from_bytes, model_to_bytes};
        use booster_repro::gbdt::train::{train, TrainConfig};
        let _ = grads;
        let mirror = ColumnarMirror::from_binned(&data);
        let cfg = TrainConfig { num_trees: 3, max_depth: 3, ..Default::default() };
        let (model, _) = train(&data, &mirror, &cfg);
        let restored = model_from_bytes(&model_to_bytes(&model)).expect("roundtrip");
        for r in 0..data.num_records() {
            prop_assert_eq!(
                restored.predict_binned(&data, r).to_bits(),
                model.predict_binned(&data, r).to_bits()
            );
        }
    }

    /// serialize → deserialize → flat-ensemble lowering: a restored
    /// model's [`FlatEnsemble`] must score **bit-identically** to the
    /// original in-memory model, for every growth strategy — the wire
    /// format preserves exactly what the batch engine consumes (closing
    /// the serialize ↔ infer coverage gap).
    #[test]
    fn deserialized_models_lower_to_bit_identical_flat_ensembles(
        (data, grads, _) in arb_dataset_and_grads()
    ) {
        use booster_repro::gbdt::grow::GrowthStrategy;
        use booster_repro::gbdt::infer::FlatEnsemble;
        use booster_repro::gbdt::serialize::{model_from_bytes, model_to_bytes};
        use booster_repro::gbdt::train::{train_with, SequentialExec, TrainConfig};
        let _ = grads;
        let (data, mirror) = relabel(&data);
        for growth in [
            GrowthStrategy::VertexWise,
            GrowthStrategy::LevelWise,
            GrowthStrategy::LeafWise { max_leaves: 6 },
        ] {
            let cfg = TrainConfig { num_trees: 3, max_depth: 3, growth, ..Default::default() };
            let (model, _) = train_with(&data, &mirror, &cfg, &SequentialExec);
            let restored =
                model_from_bytes(&model_to_bytes(&model)).expect("roundtrip");
            let flat = FlatEnsemble::from_model(&restored).expect("depth-3 trees lower");
            let expect = model.predict_batch(&data);
            let got = flat.compiled().predict_batch(&data);
            prop_assert_eq!(got.len(), expect.len());
            for (r, (a, b)) in got.iter().zip(&expect).enumerate() {
                prop_assert_eq!(a.to_bits(), b.to_bits(), "growth {:?}, record {}", growth, r);
            }
        }
    }
}

// ------------------------------------------------------------------- DRAM

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn dram_completes_every_request_within_physical_bounds(
        blocks in prop::collection::vec(0u64..100_000, 1..300),
        writes in prop::collection::vec(any::<bool>(), 300),
    ) {
        let cfg = DramConfig::default();
        let trace: Vec<Request> = blocks
            .iter()
            .zip(&writes)
            .map(|(&b, &w)| Request { block: b, is_write: w })
            .collect();
        let res = run_trace(cfg, trace.clone());
        prop_assert_eq!(res.blocks, trace.len() as u64);
        // Cannot beat the data bus: at most one block per t_burst per
        // channel per cycle.
        let min_cycles = trace.len() as u64 * u64::from(cfg.t_burst)
            / u64::from(cfg.channels);
        prop_assert!(res.cycles + u64::from(cfg.t_cas) >= min_cycles);
        // A single request's latency floor: tRCD + tCAS + tBURST.
        let floor = u64::from(cfg.t_rcd + cfg.t_cas + cfg.t_burst);
        prop_assert!(res.cycles >= floor);
    }

    #[test]
    fn dram_row_hits_bounded_by_completed(
        start in 0u64..1_000,
        len in 1u64..500,
    ) {
        let cfg = DramConfig { t_refi: 0, ..Default::default() };
        let trace: Vec<Request> = (start..start + len).map(Request::read).collect();
        let res = run_trace(cfg, trace);
        prop_assert!(res.stats.channels.row_hits <= res.stats.channels.completed);
        prop_assert_eq!(res.stats.channels.completed, len);
    }
}
