//! Batch inference (offline analytics / scoring): train an ensemble,
//! score a large batch functionally — the per-record node walk (the
//! oracle) against the compiled branch-free lane kernel on one core and
//! fanned over cores — and model the same batch on Booster's inference
//! engine (Section III-D).
//!
//! Run with: `cargo run --release --example batch_inference`

use std::time::Instant;

use booster_repro::datagen::{default_objective, generate_binned, Benchmark};
use booster_repro::gbdt::prelude::*;
use booster_repro::sim::{
    booster_inference, ideal_inference, BandwidthModel, BoosterConfig, IdealMachineConfig,
    InferenceWorkload, WorkModel,
};

fn main() {
    let (data, mirror) = generate_binned(Benchmark::Allstate, 60_000, 17);
    let cfg = TrainConfig {
        num_trees: 100,
        max_depth: 6,
        objective: default_objective(Benchmark::Allstate),
        ..Default::default()
    };
    let (model, _) = train(&data, &mirror, &cfg);
    let flat = FlatEnsemble::from_model(&model).expect("trees fit the u16 table encoding");
    println!(
        "model: {} trees, max depth {} ({} KB of flat tree tables, {} entries)",
        model.num_trees(),
        model.max_depth(),
        flat.byte_size() / 1024,
        flat.num_entries()
    );

    // --- Functional batch scoring: node walk vs the compiled kernel. -----
    let t0 = Instant::now();
    let node_walk = model.predict_batch(&data);
    let t_node = t0.elapsed();
    // The one-time lowering happens outside the timed region; report
    // the program's shape alongside the tables it was compiled from.
    let compiled = flat.compiled();
    println!(
        "compiled program: {} instrs in {} clusters ({} KB, {} entries DCE'd)",
        compiled.num_instrs(),
        compiled.num_clusters(),
        compiled.to_bytes().len() / 1024,
        compiled.dce_dropped()
    );
    let mut preds = vec![0.0; data.num_records()];
    let mut timed = |score: &dyn Fn(&mut [f64])| {
        let t = Instant::now();
        score(&mut preds);
        let dt = t.elapsed();
        // Bit-identical to the per-record node walk either way.
        assert!(preds.iter().zip(&node_walk).all(|(a, b)| a.to_bits() == b.to_bits()));
        dt
    };
    let t_comp = timed(&|out| compiled.score_into(&data, out));
    let t_par = timed(&|out| compiled.score_into_parallel(&data, out));
    println!("functional scoring of {} records (all bit-identical):", data.num_records());
    let row = |name: &str, dt: std::time::Duration| {
        println!(
            "  {name:<18}: {:7.1} ms  ({:.2} M rec/s)  {:.2}x vs node walk",
            dt.as_secs_f64() * 1e3,
            data.num_records() as f64 / dt.as_secs_f64().max(1e-9) / 1e6,
            t_node.as_secs_f64() / dt.as_secs_f64().max(1e-9)
        );
    };
    row("node walk", t_node);
    row("compiled", t_comp);
    row("compiled parallel", t_par);

    // --- Accelerator model, scaled to a 10M-record batch x 500 trees. --
    let measured = InferenceWorkload::measure(&model, &data);
    let per_tree = measured.total_path_len as f64 / model.num_trees() as f64;
    let w = InferenceWorkload {
        n_records: 10_000_000,
        record_bytes: measured.record_bytes,
        num_trees: 500,
        total_path_len: (per_tree * 500.0 * (10_000_000.0 / 60_000.0)) as u64,
        max_depth: measured.max_depth,
    };
    let bw = BandwidthModel::new(booster_dram::DramConfig::default());
    let booster_cfg = BoosterConfig::default();
    let b = booster_inference(&booster_cfg, &bw, &w);
    let c = ideal_inference(
        &IdealMachineConfig::ideal_cpu(),
        &WorkModel::default(),
        &bw,
        &w,
        "Ideal 32-core",
    );
    let replicas = booster_cfg.total_bus() as usize / w.num_trees;
    println!(
        "\nmodeled batch inference (10M records x 500 trees, {} ensemble replicas on \
         {} BUs):",
        replicas,
        replicas * w.num_trees
    );
    println!(
        "  Ideal 32-core : {:8.1} ms  ({:.1} M records/s)",
        c.total() * 1e3,
        w.n_records as f64 / c.total() / 1e6
    );
    println!(
        "  Booster       : {:8.1} ms  ({:.1} M records/s)  -> {:.1}x",
        b.total() * 1e3,
        w.n_records as f64 / b.total() / 1e6,
        c.total() / b.total()
    );
}
