//! End-to-end integration tests: generators -> preprocessing -> training
//! -> inference, across all five paper benchmarks.

use booster_repro::datagen::{default_objective, generate, generate_binned, Benchmark};
use booster_repro::gbdt::columnar::ColumnarMirror;
use booster_repro::gbdt::metrics;
use booster_repro::gbdt::prelude::*;
use booster_repro::gbdt::preprocess::BinnedDataset;
use booster_repro::gbdt::split::SplitParams;

fn train_cfg(b: Benchmark, trees: usize) -> TrainConfig {
    TrainConfig {
        num_trees: trees,
        max_depth: 6,
        objective: default_objective(b),
        split: SplitParams { gamma: 1.0, ..Default::default() },
        ..Default::default()
    }
}

#[test]
fn every_benchmark_trains_and_improves() {
    for b in Benchmark::ALL {
        let (data, mirror) = generate_binned(b, 6_000, 42);
        let (model, report) = train(&data, &mirror, &train_cfg(b, 10));
        assert!(model.num_trees() >= 1, "{b:?} produced no trees");
        let first = report.loss_history.first().unwrap();
        let last = report.loss_history.last().unwrap();
        assert!(last < first, "{b:?} loss did not improve: {first} -> {last}");
    }
}

#[test]
fn classification_benchmarks_reach_reasonable_auc() {
    for b in [Benchmark::Iot, Benchmark::Higgs, Benchmark::Flight] {
        let (data, mirror) = generate_binned(b, 12_000, 9);
        let (model, _) = train(&data, &mirror, &train_cfg(b, 30));
        let preds = model.predict_batch(&data);
        let labels: Vec<f64> = data.labels().iter().map(|&y| f64::from(y)).collect();
        let auc = metrics::auc(&preds, &labels);
        assert!(auc > 0.7, "{b:?} AUC too low: {auc}");
    }
}

#[test]
fn iot_is_nearly_separable() {
    let (data, mirror) = generate_binned(Benchmark::Iot, 12_000, 3);
    let (model, _) = train(&data, &mirror, &train_cfg(Benchmark::Iot, 20));
    let preds = model.predict_batch(&data);
    let labels: Vec<f64> = data.labels().iter().map(|&y| f64::from(y)).collect();
    let acc = metrics::accuracy(&preds, &labels, 0.5);
    assert!(acc > 0.97, "IoT accuracy {acc}");
}

#[test]
fn iot_trees_are_shallower_than_higgs_trees() {
    // The structural property behind the paper's IoT observations
    // (Section IV): shallow trees for the separable dataset.
    let mut depths = Vec::new();
    for b in [Benchmark::Iot, Benchmark::Higgs] {
        let (data, mirror) = generate_binned(b, 15_000, 4);
        let cfg = TrainConfig {
            split: SplitParams { gamma: 3.0, ..Default::default() },
            ..train_cfg(b, 15)
        };
        let (model, _) = train(&data, &mirror, &cfg);
        depths.push(model.mean_leaf_depth());
    }
    assert!(
        depths[0] < depths[1] * 0.75,
        "IoT mean depth {} should be well below Higgs {}",
        depths[0],
        depths[1]
    );
}

#[test]
fn categorical_benchmarks_have_lopsided_splits() {
    // The property driving the paper's smaller-child observation for
    // Allstate/Flight: most categorical one-hot splits are lopsided, so
    // the explicitly-binned fraction is small.
    for b in [Benchmark::Allstate, Benchmark::Flight] {
        let (data, mirror) = generate_binned(b, 10_000, 6);
        let cfg = TrainConfig { collect_phases: true, ..train_cfg(b, 10) };
        let (_, report) = train(&data, &mirror, &cfg);
        let log = report.phase_log.unwrap();
        let mut binned = 0u64;
        let mut reaching = 0u64;
        for t in &log.trees {
            for n in t.nodes.iter().skip(1) {
                binned += n.bin.n_binned as u64;
                reaching += n.bin.n_reaching as u64;
            }
        }
        let frac = binned as f64 / reaching.max(1) as f64;
        assert!(frac < 0.35, "{b:?}: explicitly-binned fraction {frac} not lopsided");
    }
}

#[test]
fn parallel_training_matches_sequential_on_benchmarks() {
    for b in [Benchmark::Higgs, Benchmark::Flight] {
        let (data, mirror) = generate_binned(b, 8_000, 2);
        let cfg = train_cfg(b, 8);
        let (m_seq, _) = train(&data, &mirror, &cfg);
        let (m_par, _) = train_with(&data, &mirror, &cfg, &ParallelExec::default());
        let labels: Vec<f64> = data.labels().iter().map(|&y| f64::from(y)).collect();
        let l_seq = metrics::logloss(&m_seq.predict_batch(&data), &labels);
        let l_par = metrics::logloss(&m_par.predict_batch(&data), &labels);
        assert!((l_seq - l_par).abs() < 0.02 * (1.0 + l_seq), "{b:?}: seq {l_seq} vs par {l_par}");
    }
}

#[test]
fn raw_and_binned_prediction_agree() {
    let raw = generate(Benchmark::Flight, 3_000, 8);
    let binned = BinnedDataset::from_dataset(&raw);
    let mirror = ColumnarMirror::from_binned(&binned);
    let (model, _) = train(&binned, &mirror, &train_cfg(Benchmark::Flight, 10));
    let mut record = Vec::new();
    for r in (0..3_000).step_by(97) {
        record.clear();
        for f in 0..raw.num_fields() {
            record.push(raw.value(r, f));
        }
        let p_raw = model.predict_raw(&record);
        let p_binned = model.predict_binned(&binned, r);
        assert!((p_raw - p_binned).abs() < 1e-9, "record {r}: raw {p_raw} vs binned {p_binned}");
    }
}

#[test]
fn tree_tables_reproduce_model_predictions() {
    let (data, mirror) = generate_binned(Benchmark::Higgs, 4_000, 12);
    let (model, _) = train(&data, &mirror, &train_cfg(Benchmark::Higgs, 6));
    let absents: Vec<u32> = data.binnings().iter().map(|b| b.absent_bin()).collect();
    for r in (0..4_000).step_by(131) {
        let mut margin = model.base_score;
        for tree in &model.trees {
            let table = tree.to_table();
            let bins: Vec<u32> =
                table.fields_used.iter().map(|&f| data.bin(r, f as usize)).collect();
            let abs: Vec<u32> = table.fields_used.iter().map(|&f| absents[f as usize]).collect();
            let (w, _) = table.walk(&bins, &abs);
            margin += f64::from(w);
        }
        let expect = model.margin_binned(&data, r);
        assert!(
            (margin - expect).abs() < 1e-4,
            "record {r}: table margin {margin} vs model {expect}"
        );
    }
}
