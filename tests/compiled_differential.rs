//! Differential test layer for compiled inference.
//!
//! The compiled bytecode program is the one production scoring engine;
//! its correctness contract is **bitwise equality** with the node-walk
//! oracle (`Model::predict_batch(_outputs)`, `Model::predict_raw(_outputs)`).
//! This suite enforces it differentially across the whole configuration
//! space — every scoring entry point (dataset and bin-matrix kernels in
//! both bin layouts, the parallel driver, `Predictor`) at every output
//! count and batch shape, every `GrowthStrategy`, stochastic-sampling
//! configs, truncated models, every partition shape, records with
//! missing values, and the program wire roundtrip — plus corruption/fuzz
//! tests proving the bytecode decoder rejects hostile streams with typed
//! errors and never panics or misscores.
//!
//! Runs on the vendored `PROPTEST_SEED` rail: CI's second-seed property
//! job re-runs the whole differential layer under a different seed, and
//! the release-profile test job re-runs it with optimizations on (the
//! branch-free mask arithmetic must be exact in both profiles).

use proptest::prelude::*;

use booster_repro::gbdt::columnar::ColumnarMirror;
use booster_repro::gbdt::compile::{compile, CompileOptions, CompiledEnsemble, LANES};
use booster_repro::gbdt::dataset::{Dataset, RawValue};
use booster_repro::gbdt::gradients::Objective;
use booster_repro::gbdt::grow::GrowthStrategy;
use booster_repro::gbdt::infer::{FlatEnsemble, Predictor};
use booster_repro::gbdt::predict::Model;
use booster_repro::gbdt::preprocess::BinnedDataset;
use booster_repro::gbdt::program::{program_from_bytes, ProgramError, INSTR_SLOT_BYTES};
use booster_repro::gbdt::schema::{DatasetSchema, FieldSchema};
use booster_repro::gbdt::train::{train_with, SequentialExec, TrainConfig};

/// Mixed numeric/categorical datasets **with missing values** (numeric
/// cells go missing at ~1/8 probability), labeled so trees actually
/// split: the compiled walk's absent-mask path is exercised on every
/// case.
fn arb_training_data() -> impl Strategy<Value = (BinnedDataset, ColumnarMirror)> {
    (2usize..6, 30usize..150).prop_flat_map(|(nf, n)| {
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
        (Just(schema), prop::collection::vec(prop::collection::vec(any::<u8>(), nf), n..=n))
            .prop_map(move |(schema, raw_rows)| {
                let mut ds = Dataset::new(schema);
                let mut row = Vec::with_capacity(nf);
                for cells in &raw_rows {
                    row.clear();
                    for (f, &c) in cells.iter().enumerate() {
                        if f % 2 == 0 {
                            if c % 8 == 0 {
                                row.push(RawValue::Missing);
                            } else {
                                row.push(RawValue::Num(f32::from(c)));
                            }
                        } else {
                            row.push(RawValue::Cat(u32::from(c % 4)));
                        }
                    }
                    let label = (u32::from(cells[0]) % 3) as f32;
                    ds.push_record(&row, label);
                }
                let binned = BinnedDataset::from_dataset(&ds);
                let mirror = ColumnarMirror::from_binned(&binned);
                (binned, mirror)
            })
    })
}

/// Assert `got` is bitwise-equal to `expect`.
fn assert_bits(got: &[f64], expect: &[f64], what: &str) {
    assert_eq!(got.len(), expect.len(), "{what}: length");
    for (r, (a, b)) in got.iter().zip(expect).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "{what}: record {r}");
    }
}

const GROWTHS: [GrowthStrategy; 3] = [
    GrowthStrategy::VertexWise,
    GrowthStrategy::LevelWise,
    GrowthStrategy::LeafWise { max_leaves: 6 },
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Compiled output is bit-identical to the node walk under every
    /// growth strategy, through both the cached default program and a
    /// direct compile, across partition shapes from one-tree-per-cluster
    /// to a single cluster, and after a program wire roundtrip.
    #[test]
    fn compiled_is_bit_identical_across_growth_and_partitions(
        (data, mirror) in arb_training_data()
    ) {
        for growth in GROWTHS {
            let cfg = TrainConfig { num_trees: 3, max_depth: 3, growth, ..Default::default() };
            let (model, _) = train_with(&data, &mirror, &cfg, &SequentialExec);
            let flat = FlatEnsemble::from_model(&model).expect("depth-3 trees lower");
            let expect = model.predict_batch(&data);
            assert_bits(
                &flat.compiled().predict_batch(&data),
                &expect,
                &format!("cached default program, growth {growth:?}"),
            );
            for cluster_bytes in [1usize, 24 * INSTR_SLOT_BYTES, usize::MAX] {
                let c = compile(&flat, &CompileOptions { cluster_bytes, max_trees: None })
                    .expect("compile");
                assert_bits(
                    &c.predict_batch(&data),
                    &expect,
                    &format!("compiled cluster_bytes={cluster_bytes}, growth {growth:?}"),
                );
                let back = CompiledEnsemble::from_bytes(&c.to_bytes()).expect("roundtrip");
                assert_bits(
                    &back.predict_batch(&data),
                    &expect,
                    &format!("wire roundtrip cluster_bytes={cluster_bytes}, growth {growth:?}"),
                );
            }
        }
    }

    /// Stochastic-sampling configs (row subsampling + per-tree and
    /// per-node column sampling) change which trees get grown, never the
    /// compiled engine's exactness.
    #[test]
    fn compiled_is_bit_identical_under_stochastic_training(
        (data, mirror) in arb_training_data(),
        seed in any::<u64>(),
    ) {
        for growth in GROWTHS {
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
            let (model, _) = train_with(&data, &mirror, &cfg, &SequentialExec);
            let flat = FlatEnsemble::from_model(&model).expect("lowering");
            let expect = model.predict_batch(&data);
            assert_bits(
                &flat.compiled().predict_batch(&data),
                &expect,
                &format!("stochastic, growth {growth:?}, seed {seed}"),
            );
        }
    }

    /// Truncation equivalence both ways: compiling a truncated model,
    /// and compiling the full model with `max_trees` (the DCE pass
    /// dropping the suffix), must each match the truncated node walk
    /// bit-for-bit — at every boundary (0 clamps to 1, full length,
    /// past the end).
    #[test]
    fn truncated_models_compile_bit_identically(
        (data, mirror) in arb_training_data()
    ) {
        let cfg = TrainConfig { num_trees: 4, max_depth: 3, ..Default::default() };
        let (model, _) = train_with(&data, &mirror, &cfg, &SequentialExec);
        let full_flat = FlatEnsemble::from_model(&model).expect("lowering");
        for k in [0usize, 1, 2, model.num_trees(), model.num_trees() + 5] {
            let truncated = model.truncated(k);
            let expect = truncated.predict_batch(&data);
            // Path A: truncate the model, then compile.
            let tf = FlatEnsemble::from_model(&truncated).expect("lowering");
            assert_bits(
                &tf.compiled().predict_batch(&data),
                &expect,
                &format!("truncate-then-compile, k={k}"),
            );
            // Path B: compile the full model with truncation as DCE.
            let c = compile(
                &full_flat,
                &CompileOptions { max_trees: Some(k), ..CompileOptions::default() },
            )
            .expect("compile");
            prop_assert_eq!(c.num_trees(), truncated.num_trees(), "clamping, k={}", k);
            assert_bits(&c.predict_batch(&data), &expect, &format!("compile-time DCE, k={k}"));
        }
    }

    /// Corrupting any single byte of a compiled program must yield a
    /// typed decode error — never a panic, and never a program that
    /// silently misscores (the body checksum catches flips structural
    /// validation cannot, e.g. in a leaf weight).
    #[test]
    fn bit_flipped_programs_are_rejected_with_typed_errors(
        (data, mirror) in arb_training_data(),
        stride in 1usize..7,
    ) {
        let cfg = TrainConfig { num_trees: 2, max_depth: 3, ..Default::default() };
        let (model, _) = train_with(&data, &mirror, &cfg, &SequentialExec);
        let flat = FlatEnsemble::from_model(&model).expect("lowering");
        let bytes = flat.compiled().to_bytes().to_vec();
        for i in (0..bytes.len()).step_by(stride) {
            let mut corrupted = bytes.clone();
            corrupted[i] ^= 0xFF;
            match program_from_bytes(&corrupted) {
                Err(
                    ProgramError::BadMagic
                    | ProgramError::BadVersion(_)
                    | ProgramError::Corrupt(_)
                    | ProgramError::Invalid(_),
                ) => {}
                Ok(_) => prop_assert!(false, "byte {} flip decoded successfully", i),
            }
        }
    }
}

// ------------------------------------------------- the entry-point matrix

/// Batch shapes around every kernel boundary: empty, a lone record, a
/// lane group minus/exactly/plus one, a scoring block minus/exactly/plus
/// one, and several blocks with a lane group + tail at the end.
const RECORD_COUNTS: [usize; 9] = [0, 1, 7, 8, 9, 255, 256, 257, 700];

/// 700 raw records (numeric cells go missing at ~1/13) whose label is a
/// class id in `0..3`, drawn from an LCG over `seed`.
fn matrix_dataset(seed: u64) -> Dataset {
    let schema = DatasetSchema::new(vec![
        FieldSchema::numeric_with_bins("x", 16),
        FieldSchema::categorical("c", 5),
        FieldSchema::numeric_with_bins("y", 8),
    ]);
    let mut ds = Dataset::new(schema);
    let mut state = seed | 1;
    let mut next = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (state >> 33) as u32
    };
    for _ in 0..700 {
        let (a, c, b) = (next() % 1000, next() % 5, next() % 100);
        let x = if a % 13 == 0 { RawValue::Missing } else { RawValue::Num(a as f32) };
        let class = (u32::from(a >= 500) + u32::from(c == 2 || b >= 60)) as f32;
        ds.push_record(&[x, RawValue::Cat(c), RawValue::Num(b as f32)], class);
    }
    ds
}

fn raw_record(ds: &Dataset, r: usize) -> Vec<RawValue> {
    (0..ds.num_fields()).map(|f| ds.value(r, f)).collect()
}

/// The first `n` records of `ds`, binned the way `model` was trained.
fn binned_prefix(ds: &Dataset, n: usize, model: &Model) -> BinnedDataset {
    let mut head = Dataset::new(ds.schema().clone());
    for r in 0..n {
        head.push_record(&raw_record(ds, r), ds.labels()[r]);
    }
    BinnedDataset::from_dataset_with_binnings(&head, model.binnings.clone())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// One matrix instead of a copy per engine: {`score_into` over packed
    /// and wide bins, `score_bins_into`, the parallel driver,
    /// `Predictor::predict_one(_outputs)`} x K in {1, 3} x every batch
    /// shape x every growth strategy x {one cluster, clusters that start
    /// mid-round} must equal the node-walk oracle bit for bit. Covers
    /// K = 3 through the lane kernel with a lane group + tail (9 and 257
    /// records; the parent commit had no such path) and, on a multi-core
    /// host, driver ranges that end off a lane boundary (700 records
    /// over 2 cores is 350 + 350).
    #[test]
    fn every_entry_point_matches_the_oracle_at_every_k_and_batch_shape(seed in any::<u64>()) {
        let ds = matrix_dataset(seed);
        let full = BinnedDataset::from_dataset(&ds);
        let mirror = ColumnarMirror::from_binned(&full);
        for growth in GROWTHS {
            for objective in [Objective::SquaredError, Objective::Softmax { num_class: 3 }] {
                let cfg = TrainConfig {
                    num_trees: 4,
                    max_depth: 4,
                    growth,
                    objective,
                    ..Default::default()
                };
                let (model, _) = train_with(&full, &mirror, &cfg, &SequentialExec);
                let k = model.num_outputs as usize;
                let what = format!("K={k}, growth {growth:?}");
                let flat = FlatEnsemble::from_model(&model).expect("depth-4 trees lower");
                // ~Two trees per cluster: with K = 3 the clusters open on
                // slots 0, 2, 1, … so the slot arithmetic is exercised.
                let clustered = compile(
                    &flat,
                    &CompileOptions { cluster_bytes: 40 * INSTR_SLOT_BYTES, max_trees: None },
                )
                .expect("compile");
                prop_assert!(
                    k == 1 || clustered.num_clusters() > 2,
                    "{}: partition too coarse", what
                );

                for n in RECORD_COUNTS {
                    let packed = binned_prefix(&ds, n, &model);
                    prop_assert!(packed.is_packed());
                    let wide = packed.to_wide();
                    let expect = if k == 1 {
                        model.predict_batch(&packed)
                    } else {
                        model.predict_batch_outputs(&packed)
                    };
                    let mut bins = Vec::with_capacity(n * packed.num_fields());
                    for r in 0..n {
                        packed.row(r).extend_into(&mut bins);
                    }
                    for (program, shape) in
                        [(flat.compiled(), "one cluster"), (&clustered, "clustered")]
                    {
                        // Stale buffer contents must never leak through.
                        let mut out = vec![f64::NAN; n * k];
                        let check = |out: &mut Vec<f64>, entry: &str| {
                            assert_bits(out, &expect, &format!("{entry}, {shape}, n={n}, {what}"));
                            out.fill(f64::NAN);
                        };
                        program.score_into(&packed, &mut out);
                        check(&mut out, "score_into packed");
                        program.score_into(&wide, &mut out);
                        check(&mut out, "score_into wide");
                        program.score_into_parallel(&packed, &mut out);
                        check(&mut out, "score_into_parallel packed");
                        program.score_into_parallel(&wide, &mut out);
                        check(&mut out, "score_into_parallel wide");
                        program.score_bins_into(&bins, &mut out);
                        check(&mut out, "score_bins_into");
                    }
                }

                let mut predictor = Predictor::from_model(&model).expect("lowering");
                let mut outputs = Vec::new();
                for r in (0..LANES + 1).chain((LANES + 1..700).step_by(61)) {
                    let record = raw_record(&ds, r);
                    predictor.predict_one_outputs(&record, &mut outputs);
                    assert_bits(
                        &outputs,
                        &model.predict_raw_outputs(&record),
                        &format!("predict_one_outputs, record {r}, {what}"),
                    );
                    if k == 1 {
                        prop_assert_eq!(
                            predictor.predict_one(&record).to_bits(),
                            model.predict_raw(&record).to_bits(),
                            "predict_one, record {}, {}", r, what
                        );
                    }
                }
            }
        }
    }
}

// --------------------------------------------------- deterministic tests

fn trained_fixture() -> (Model, BinnedDataset) {
    let schema = DatasetSchema::new(vec![
        FieldSchema::numeric_with_bins("x", 16),
        FieldSchema::categorical("c", 3),
        FieldSchema::numeric_with_bins("y", 8),
    ]);
    let mut ds = Dataset::new(schema);
    for i in 0..600 {
        let x = if i % 11 == 0 { RawValue::Missing } else { RawValue::Num(i as f32) };
        let c = RawValue::Cat(i % 3);
        let y = RawValue::Num(((i * 7) % 100) as f32);
        ds.push_record(&[x, c, y], f32::from(u8::from(i >= 300)));
    }
    let data = BinnedDataset::from_dataset(&ds);
    let mirror = ColumnarMirror::from_binned(&data);
    let cfg = TrainConfig { num_trees: 5, max_depth: 4, ..Default::default() };
    let (model, _) = train_with(&data, &mirror, &cfg, &SequentialExec);
    (model, data)
}

/// Every strict prefix of a valid program must fail to decode cleanly
/// (mirrors the serve frame fuzz style), and over-length input must be
/// rejected as trailing bytes rather than ignored.
#[test]
fn truncated_and_overlength_programs_are_rejected() {
    let (model, _) = trained_fixture();
    let flat = FlatEnsemble::from_model(&model).expect("lowering");
    let bytes = flat.compiled().to_bytes().to_vec();
    for cut in 0..bytes.len() {
        let r = program_from_bytes(&bytes[..cut]);
        assert!(r.is_err(), "prefix of {cut} bytes unexpectedly decoded");
    }
    let mut longer = bytes.clone();
    longer.push(0);
    // The appended byte lands inside the checksummed body region.
    assert_eq!(
        program_from_bytes(&longer),
        Err(ProgramError::Corrupt("checksum mismatch")),
        "over-length input must fail"
    );
    // Valid bytes still decode (the fuzz loop above must not have been
    // vacuous).
    assert!(program_from_bytes(&bytes).is_ok());
}

/// A hostile instruction count cannot trigger a huge allocation: the
/// decoder bounds every count by the remaining input first. (The body
/// is re-checksummed so the count check — not the checksum — is what
/// trips.)
#[test]
fn hostile_counts_cannot_cause_huge_allocations() {
    let (model, _) = trained_fixture();
    let flat = FlatEnsemble::from_model(&model).expect("lowering");
    let bytes = flat.compiled().to_bytes().to_vec();
    let body = &bytes[16..];
    // Body layout: objective tag u8 | num_outputs u32 | base_score f64
    // | num_fields u32 | num_trees u32 | per tree (len,depth) … — blow
    // up the first tree's len.
    let mut evil_body = body.to_vec();
    evil_body[21..25].copy_from_slice(&(u32::MAX - 1).to_le_bytes());
    let mut evil = Vec::new();
    evil.extend_from_slice(&bytes[..8]);
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in &evil_body {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    evil.extend_from_slice(&h.to_le_bytes());
    evil.extend_from_slice(&evil_body);
    match program_from_bytes(&evil) {
        Err(ProgramError::Corrupt(_) | ProgramError::Invalid(_)) => {}
        other => panic!("hostile tree len must be rejected, got {other:?}"),
    }
}
