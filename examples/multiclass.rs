//! Multiclass softmax end-to-end: K trees per boosting round →
//! validation-driven early stopping at a round boundary → `.bstr`
//! round trip → compiled K-output inference → multi-output serving.
//!
//! The workload is `datagen`'s 5-class Gaussian-blob benchmark; every
//! stage asserts the invariants the multi-output engine guarantees:
//!
//! 1. training lays trees round-major (`trees.len() % K == 0`) and the
//!    argmax accuracy beats the 1/K chance baseline by a wide margin;
//! 2. early stopping truncates at a whole round, never mid-round;
//! 3. serialize → deserialize → flatten → compile all preserve the K
//!    per-class probabilities bit for bit;
//! 4. the serving scheduler returns all K probabilities per request,
//!    bit-identical to offline scoring.
//!
//! Run with: `cargo run --release --example multiclass`

use std::sync::Arc;

use booster_repro::datagen::{generate_multiclass, split_dataset};
use booster_repro::gbdt::metrics::{multi_logloss, multiclass_accuracy};
use booster_repro::gbdt::prelude::*;
use booster_repro::serve::{ModelRegistry, ResponseSlot, ServeConfig, Server};

const K: usize = 5;

fn main() {
    // --- 1. Five Gaussian blobs, 80/20 split, training-set binnings. ----
    let ds = generate_multiclass(10_000, K as u32, 11);
    let (train_ds, eval_ds) = split_dataset(&ds, 0.2, 11);
    let data = BinnedDataset::from_dataset(&train_ds);
    let mirror = ColumnarMirror::from_binned(&data);
    let eval = BinnedDataset::from_dataset_with_binnings(&eval_ds, data.binnings().to_vec());
    println!(
        "multiclass blobs: {} train / {} eval records, {} classes",
        data.num_records(),
        eval.num_records(),
        K
    );

    // --- 2. Softmax training with early stopping on eval logloss. -------
    let budget = 40; // rounds; the tree budget is K x this
    let cfg = TrainConfig {
        num_trees: budget,
        max_depth: 4,
        learning_rate: 0.3,
        objective: Objective::Softmax { num_class: K as u32 },
        early_stopping: Some(EarlyStopping {
            metric: EvalMetric::MultiLogloss,
            patience: 5,
            min_delta: 0.0,
        }),
        ..Default::default()
    };
    let (model, report) =
        grow_forest_with_eval(&data, &mirror, &cfg, &SequentialExec, Some(&EvalSet::new(&eval)));
    let best = report.best_iteration.expect("eval pipeline ran");
    assert_eq!(model.num_outputs as usize, K);
    assert_eq!(model.trees.len(), best, "model truncated to the best round");
    assert_eq!(model.trees.len() % K, 0, "truncation lands on a K-tree round boundary");
    let history = report.eval_history.as_deref().expect("eval history recorded");
    println!(
        "trained {} rounds of {budget} budgeted ({} trees, {K} per round), best round {}",
        history.len(),
        model.trees.len(),
        best / K
    );
    println!("eval multi-logloss: first {:.4} -> best {:.4}", history[0], history[best / K - 1]);

    // --- 3. Argmax accuracy far above the 1/K chance baseline. ----------
    // `multi_logloss` takes *raw* margins (it applies the softmax link
    // itself); argmax accuracy is link-invariant so either works there.
    let eval_labels: Vec<f64> = eval.labels().iter().map(|&y| f64::from(y)).collect();
    let mut margins = vec![0.0f64; eval.num_records() * K];
    for r in 0..eval.num_records() {
        model.margin_outputs(&eval, r, &mut margins[r * K..(r + 1) * K]);
    }
    let acc = multiclass_accuracy(&margins, &eval_labels, K);
    let mll = multi_logloss(&margins, &eval_labels, K);
    assert_eq!(
        mll.to_bits(),
        history[best / K - 1].to_bits(),
        "offline rescoring reproduces the eval history bit-exactly"
    );
    println!(
        "eval accuracy {:.4} (chance baseline {:.2}), multi-logloss {:.4}",
        acc,
        1.0 / K as f64,
        mll
    );
    assert!(acc > 0.8, "blobs are separable; accuracy {acc} is too low");

    // --- 4. Serialize round trip preserves every class probability. -----
    let bytes = model_to_bytes(&model);
    let restored = model_from_bytes(&bytes).expect("v2 bytes parse");
    assert_eq!(restored.num_outputs as usize, K);
    println!("bstr round trip: {} bytes, objective '{}'", bytes.len(), restored.objective.name());

    // --- 5. The compiled kernel agrees bitwise on all K outputs. --------
    let flat = FlatEnsemble::from_model(&restored).expect("trees lower");
    let compiled_out = flat.compiled().predict_batch(&eval);
    let mut walk = vec![0.0; K];
    for (r, row) in compiled_out.chunks(K).enumerate() {
        model.predict_outputs(&eval, r, &mut walk);
        for (c, m) in row.iter().zip(&walk) {
            assert_eq!(c.to_bits(), m.to_bits(), "compiled vs model walk, record {r}");
        }
    }
    println!("compiled K-output scoring is bit-identical to the tree walk");

    // --- 6. Serve it: every response carries all K probabilities. -------
    let registry = Arc::new(ModelRegistry::new());
    registry.register_bytes(&bytes).expect("multiclass model registers");
    let server = Server::start(Arc::clone(&registry), ServeConfig::default()).expect("starts");
    let handle = server.handle();
    let slot = ResponseSlot::new();
    let mut served = 0usize;
    for r in (0..eval_ds.num_records()).step_by(97) {
        let rec: Arc<[RawValue]> = (0..eval_ds.num_fields()).map(|f| eval_ds.value(r, f)).collect();
        let resp = handle.score_with(&slot, Arc::clone(&rec), None).expect("scored");
        assert_eq!(resp.outputs.len(), K, "one probability per class");
        let offline = restored.predict_raw_outputs(&rec);
        for (got, want) in resp.outputs.iter().zip(&offline) {
            assert_eq!(got.to_bits(), want.to_bits(), "served == offline, record {r}");
        }
        let sum: f64 = resp.outputs.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9, "softmax outputs form a distribution");
        served += 1;
    }
    handle.drain();
    server.shutdown();
    println!("served {served} multiclass requests, all {K}-way distributions bit-exact");
    println!("ok");
}
