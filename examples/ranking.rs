//! LambdaMART ranking end-to-end: query-grouped training with pairwise
//! λ-gradients → early stopping on validation NDCG@10 → `.bstr` round
//! trip → compiled inference → per-query ranking quality check.
//!
//! The workload is `datagen`'s LETOR-style synthetic: queries of 4-20
//! documents with graded relevance 0-3. The run demonstrates:
//!
//! 1. NDCG@10 of the trained ranker beats the untrained (all-zero
//!    margins) baseline by a wide margin on held-out queries;
//! 2. early stopping picks the best round under `EvalMetric::Ndcg`
//!    (a *maximizing* metric — the early-stopping engine handles both
//!    directions through one comparison);
//! 3. the ranker survives serialize → flatten → compile bit for bit,
//!    so offline ranking and production scoring order identically.
//!
//! Run with: `cargo run --release --example ranking`

use booster_repro::datagen::generate_ranking;
use booster_repro::gbdt::metrics::ndcg_at_k;
use booster_repro::gbdt::prelude::*;

fn main() {
    // --- 1. Query-grouped train and validation sets. --------------------
    // Separate seeds give disjoint query sets; the eval side reuses the
    // training binnings so split thresholds mean the same thing.
    let (train_ds, train_groups) = generate_ranking(600, 3);
    let (eval_ds, eval_groups) = generate_ranking(150, 4);
    let mut data = BinnedDataset::from_dataset(&train_ds);
    data.set_query_groups(train_groups);
    let mirror = ColumnarMirror::from_binned(&data);
    let mut eval = BinnedDataset::from_dataset_with_binnings(&eval_ds, data.binnings().to_vec());
    eval.set_query_groups(eval_groups.clone());
    println!(
        "ranking data: {} train docs in {} queries / {} eval docs in {} queries",
        data.num_records(),
        data.query_groups().unwrap().len(),
        eval.num_records(),
        eval_groups.len()
    );

    // --- 2. LambdaRank training, early-stopped on eval NDCG@10. ---------
    let budget = 120;
    let cfg = TrainConfig {
        num_trees: budget,
        max_depth: 4,
        learning_rate: 0.15,
        objective: Objective::LambdaRank,
        early_stopping: Some(EarlyStopping {
            metric: EvalMetric::Ndcg { k: 10 },
            patience: 15,
            min_delta: 0.0,
        }),
        ..Default::default()
    };
    let (model, report) =
        grow_forest_with_eval(&data, &mirror, &cfg, &SequentialExec, Some(&EvalSet::new(&eval)));
    let best = report.best_iteration.expect("eval pipeline ran");
    let history = report.eval_history.as_deref().expect("eval history recorded");
    assert_eq!(model.num_trees(), best, "model truncated to its best iteration");
    println!(
        "trained {} of {budget} budgeted trees, best iteration {best} (NDCG is maximizing: {})",
        history.len(),
        EvalMetric::Ndcg { k: 10 }.is_maximizing()
    );

    // --- 3. NDCG@10 beats the untrained baseline on held-out queries. ---
    let labels: Vec<f64> = eval.labels().iter().map(|&y| f64::from(y)).collect();
    let zero = vec![0.0f64; eval.num_records()];
    let base_ndcg = ndcg_at_k(&zero, &labels, &eval_groups, 10);
    let margins: Vec<f64> =
        (0..eval.num_records()).map(|r| model.margin_binned(&eval, r)).collect();
    let trained_ndcg = ndcg_at_k(&margins, &labels, &eval_groups, 10);
    println!(
        "eval NDCG@10: untrained {:.4} -> trained {:.4} (best-round history {:.4})",
        base_ndcg,
        trained_ndcg,
        history[best - 1]
    );
    assert!(
        trained_ndcg > base_ndcg + 0.05,
        "λ-gradients must lift NDCG well above the unranked baseline"
    );

    // --- 4. Serialize and compile: production scores rank identically. --
    let bytes = model_to_bytes(&model);
    let restored = model_from_bytes(&bytes).expect("v2 bytes parse");
    assert_eq!(restored.objective.name(), "lambdarank");
    let flat = FlatEnsemble::from_model(&restored).expect("trees lower");
    let compiled_scores = flat.compiled().predict_batch(&eval);
    for (r, (walk, prod)) in margins.iter().zip(&compiled_scores).enumerate() {
        assert_eq!(walk.to_bits(), prod.to_bits(), "record {r}: compiled score drifted");
    }
    let prod_ndcg = ndcg_at_k(&compiled_scores, &labels, &eval_groups, 10);
    assert_eq!(prod_ndcg.to_bits(), trained_ndcg.to_bits());
    println!(
        "bstr round trip ({} bytes) + compiled program: scores bit-identical, NDCG@10 {:.4}",
        bytes.len(),
        prod_ndcg
    );
    println!("ok");
}
