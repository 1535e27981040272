//! Validation-driven early stopping on a noisy synthetic split.
//!
//! Trains on a Higgs-like table (noisy nonlinear labels — exactly the
//! regime where boosting overfits), holding out a validation set that
//! is scored after every tree. The
//! run demonstrates:
//!
//! 1. `best_iteration < num_trees`: the eval metric bottoms out well
//!    before the tree budget, and the model is truncated there;
//! 2. **prefix stability**: the early-stopped model's trees are
//!    bit-identical to the first `best_iteration` trees of an
//!    unstopped run (stopping only truncates — it never changes what
//!    was learned);
//! 3. the truncated model generalizes at least as well as the full
//!    ensemble on held-out data.
//!
//! Run with: `cargo run --release --example early_stopping`

use booster_repro::datagen::{generate_binned_split, Benchmark};
use booster_repro::gbdt::gradients::Objective;
use booster_repro::gbdt::grow::grow_forest_with_eval;
use booster_repro::gbdt::metrics::{self, EvalMetric};
use booster_repro::gbdt::train::{train, EarlyStopping, EvalSet, SequentialExec, TrainConfig};

fn main() {
    // --- 1. A noisy datagen split: 75% train / 25% validation. ---------
    let (train_set, mirror, eval_set) = generate_binned_split(Benchmark::Higgs, 8_000, 42, 0.25);
    println!(
        "split: {} train / {} validation records x {} fields",
        train_set.num_records(),
        eval_set.num_records(),
        train_set.num_fields()
    );

    // --- 2. Train with a generous budget and patience-based stopping. --
    let budget = 160;
    let base_cfg = TrainConfig {
        num_trees: budget,
        max_depth: 5,
        learning_rate: 0.3,
        objective: Objective::Logistic,
        ..Default::default()
    };
    let es_cfg = TrainConfig {
        early_stopping: Some(EarlyStopping {
            metric: EvalMetric::Logloss,
            patience: 12,
            min_delta: 0.0,
        }),
        ..base_cfg.clone()
    };
    let (stopped, report) = grow_forest_with_eval(
        &train_set,
        &mirror,
        &es_cfg,
        &SequentialExec,
        Some(&EvalSet::new(&eval_set)),
    );
    let history = report.eval_history.as_deref().expect("eval history recorded");
    let best = report.best_iteration.expect("best iteration recorded");
    println!(
        "early stopping: trained {} of {budget} budgeted trees, best_iteration = {best}",
        history.len()
    );
    println!(
        "  eval logloss: first {:.4} -> best {:.4} -> last {:.4}",
        history[0],
        history[best - 1],
        history[history.len() - 1]
    );
    assert!(best < budget, "eval metric must bottom out before the budget");
    assert_eq!(stopped.num_trees(), best, "model truncated to its best iteration");

    // --- 3. Prefix stability against an unstopped run. -----------------
    // The deterministic configuration (subsample = 1.0, colsample_* =
    // 1.0, early stopping off) consumes no randomness at all, so the
    // unstopped run grows exactly the trees the stopped run grew —
    // stopping can only truncate the sequence, bit for bit.
    let (full, _) = train(&train_set, &mirror, &base_cfg);
    assert_eq!(full.num_trees(), budget);
    assert_eq!(
        stopped.trees[..],
        full.trees[..best],
        "early-stopped trees must be a bit-exact prefix of the full run"
    );
    println!("prefix check: {} stopped trees == full run's first {best} trees, bit-exact", best);

    // --- 4. Batch scoring agrees with the incremental pipeline. ---------
    let labels: Vec<f64> = eval_set.labels().iter().map(|&y| f64::from(y)).collect();
    let eval_auc = |m: &booster_repro::gbdt::predict::Model| {
        metrics::auc(&m.predict_batch(&eval_set), &labels)
    };
    let eval_ll = |m: &booster_repro::gbdt::predict::Model| {
        metrics::logloss(&m.predict_batch(&eval_set), &labels)
    };
    println!(
        "validation: stopped ({} trees) logloss {:.4} auc {:.4} | full ({} trees) logloss {:.4} auc {:.4}",
        stopped.num_trees(),
        eval_ll(&stopped),
        eval_auc(&stopped),
        full.num_trees(),
        eval_ll(&full),
        eval_auc(&full)
    );
    // Guaranteed invariant: re-scoring the truncated model from scratch
    // reproduces the per-tree pipeline's best history entry bit for bit
    // (same fold order, exact f64 leaf weights). The
    // full-vs-stopped comparison above is informational — the optimum is
    // over evaluated prefixes, which on this seed favors the stopped
    // model, but that is data, not an invariant.
    assert_eq!(
        eval_ll(&stopped).to_bits(),
        history[best - 1].to_bits(),
        "batch rescoring must reproduce the incremental eval history bit-exactly"
    );

    // --- 5. The same pipeline with sampling enabled. --------------------
    let stochastic_cfg = TrainConfig {
        subsample: 0.8,
        colsample_bytree: 0.8,
        colsample_bynode: 0.8,
        seed: 7,
        ..es_cfg
    };
    let (sto, sto_report) = grow_forest_with_eval(
        &train_set,
        &mirror,
        &stochastic_cfg,
        &SequentialExec,
        Some(&EvalSet::new(&eval_set)),
    );
    println!(
        "stochastic (subsample 0.8, colsample 0.8x0.8): {} trees kept, eval logloss {:.4}",
        sto.num_trees(),
        eval_ll(&sto)
    );
    assert_eq!(sto.num_trees(), sto_report.best_iteration.unwrap());
    println!("ok");
}
