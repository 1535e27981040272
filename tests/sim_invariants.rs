//! Cross-crate invariants of the timing/energy models: orderings the
//! paper's evaluation depends on must hold for any workload the
//! functional trainer produces.

use booster_repro::datagen::{default_objective, generate_binned, Benchmark};
use booster_repro::gbdt::phases::PhaseLog;
use booster_repro::gbdt::prelude::*;
use booster_repro::sim::{
    real_cpu, real_gpu, BandwidthModel, BoosterConfig, BoosterSim, HostModel, IdealSim,
    Irregularity, RealModelParams,
};

fn phase_log(b: Benchmark, n: usize, scale: f64) -> (PhaseLog, BinnedDataset, Model) {
    let (data, mirror) = generate_binned(b, n, 77);
    let cfg = TrainConfig {
        num_trees: 6,
        max_depth: 6,
        objective: default_objective(b),
        collect_phases: true,
        ..Default::default()
    };
    let (model, report) = train(&data, &mirror, &cfg);
    (report.phase_log.unwrap().scaled(scale), data, model)
}

fn env() -> (BandwidthModel, HostModel) {
    (BandwidthModel::new(booster_dram::DramConfig::default()), HostModel::default())
}

#[test]
fn architecture_ordering_holds_across_benchmarks() {
    let (bw, host) = env();
    for b in [Benchmark::Higgs, Benchmark::Flight, Benchmark::Mq2008] {
        let (log, _, _) = phase_log(b, 5_000, 500.0);
        let (booster, _) =
            BoosterSim::new(BoosterConfig::default(), &bw).training_time(&log, &host);
        let cpu = IdealSim::cpu(&bw).training_time(&log, &host);
        let gpu = IdealSim::gpu(&bw).training_time(&log, &host);
        assert!(
            booster.total() < gpu.total() && gpu.total() < cpu.total(),
            "{b:?}: ordering violated (booster {}, gpu {}, cpu {})",
            booster.total(),
            gpu.total(),
            cpu.total()
        );
        // Step 2 is charged identically (host offload).
        assert!((cpu.steps.step2 - gpu.steps.step2).abs() < 1e-12);
        // Booster pays step 2 plus the replica reduction.
        assert!(booster.steps.step2 >= cpu.steps.step2);
    }
}

#[test]
fn ablation_ordering_no_opts_never_faster() {
    let (bw, host) = env();
    for b in [Benchmark::Allstate, Benchmark::Flight, Benchmark::Higgs] {
        let (log, _, _) = phase_log(b, 5_000, 200.0);
        let full = BoosterConfig::default();
        let run =
            |cfg: BoosterConfig| BoosterSim::new(cfg, &bw).training_time(&log, &host).0.total();
        let t_full = run(full);
        let t_gbf = run(full.group_by_field_only());
        let t_none = run(full.no_opts());
        assert!(
            t_full <= t_gbf + 1e-12 && t_gbf <= t_none + 1e-12,
            "{b:?}: ablation ordering violated: full {t_full}, gbf {t_gbf}, none {t_none}"
        );
    }
}

#[test]
fn redundant_format_never_increases_traffic() {
    let (bw, host) = env();
    for b in Benchmark::ALL {
        let (log, _, _) = phase_log(b, 4_000, 100.0);
        let with = BoosterSim::new(BoosterConfig::default(), &bw).training_time(&log, &host).0;
        let without = BoosterSim::new(BoosterConfig::default().group_by_field_only(), &bw)
            .training_time(&log, &host)
            .0;
        assert!(
            with.dram_blocks <= without.dram_blocks,
            "{b:?}: redundant format increased traffic"
        );
    }
}

#[test]
fn real_machines_are_never_faster_than_ideal() {
    let (bw, host) = env();
    let params = RealModelParams::default();
    for b in [Benchmark::Higgs, Benchmark::Allstate] {
        let (log, data, model) = phase_log(b, 5_000, 500.0);
        let cpu = IdealSim::cpu(&bw).training_time(&log, &host);
        let gpu = IdealSim::gpu(&bw).training_time(&log, &host);
        let mut irr = Irregularity::measure(&data, &model.trees);
        irr.num_records = log.num_records;
        let rc = real_cpu(&cpu, &irr, &params);
        let rg = real_gpu(&gpu, &irr, 10_000, &params);
        assert!(rc.total() >= cpu.total(), "{b:?} real CPU faster than ideal");
        assert!(rg.total() >= gpu.total(), "{b:?} real GPU faster than ideal");
    }
}

#[test]
fn speedup_grows_with_dataset_scale() {
    // The Fig 12 property: bigger datasets amortize the unaccelerated
    // residual, so Booster's speedup must not shrink.
    let (bw, host) = env();
    let (log1, _, _) = phase_log(Benchmark::Higgs, 5_000, 100.0);
    let log10 = log1.scaled(10.0);
    let speedup = |log: &PhaseLog| {
        let (booster, _) = BoosterSim::new(BoosterConfig::default(), &bw).training_time(log, &host);
        let cpu = IdealSim::cpu(&bw).training_time(log, &host);
        cpu.total() / booster.total()
    };
    let s1 = speedup(&log1);
    let s10 = speedup(&log10);
    assert!(s10 > s1, "scaling decreased speedup: {s1} -> {s10}");
}

#[test]
fn booster_accelerated_steps_scale_sublinearly_with_fields() {
    // Wide records bring more intra-record parallelism: Booster's time
    // per record must grow far slower than the field count.
    let (bw, host) = env();
    let (log_narrow, _, _) = phase_log(Benchmark::Flight, 5_000, 100.0); // 8 fields
    let (log_wide, _, _) = phase_log(Benchmark::Iot, 5_000, 100.0); // 115 fields
    let t = |log: &PhaseLog| {
        let (b, _) = BoosterSim::new(BoosterConfig::default(), &bw).training_time(log, &host);
        (b.steps.step1 + b.steps.step3 + b.steps.step5)
            / log.trees.iter().map(|t| t.traversal.n_records as f64).sum::<f64>()
    };
    let per_record_narrow = t(&log_narrow);
    let per_record_wide = t(&log_wide);
    let ratio = per_record_wide / per_record_narrow;
    assert!(ratio < 115.0 / 8.0, "per-record cost grew linearly with fields: {ratio}");
}

#[test]
fn energy_counters_are_consistent() {
    let (bw, host) = env();
    let (log, _, _) = phase_log(Benchmark::Higgs, 4_000, 1.0);
    let (booster, _) = BoosterSim::new(BoosterConfig::default(), &bw).training_time(&log, &host);
    let cpu = IdealSim::cpu(&bw).training_time(&log, &host);
    // Same algorithmic data-structure accesses on both machines.
    assert_eq!(booster.sram_accesses, cpu.sram_accesses);
    // Booster transfers no more DRAM blocks than the CPU.
    assert!(booster.dram_blocks <= cpu.dram_blocks);
    // Counters match the log.
    assert_eq!(booster.sram_accesses, log.total_bin_updates() * 2 + log.total_traversal_lookups());
}

/// The cluster-level histogram-traffic model is pinned to reality: the
/// formulas in `sim::cluster_sim` (`dist_step1_payload_bytes` for a
/// histogram build, `dist_vertex_total_payload_bytes` for a vertex at
/// `max_depth`) must equal, byte for byte, what the in-process
/// distributed transport actually counted for the same run — across
/// worker counts, under stochastic sampling (which changes the row ids
/// shipped per build), on a wide one-hot dataset whose lane blocks go
/// out sparse, and on trees that never reach `max_depth` (no
/// totals-only exchange) as well as trees that do.
#[test]
fn cluster_histogram_traffic_model_matches_measured_bytes() {
    use std::time::Duration;

    use booster_repro::dist::proto::{OP_BUILD_HIST, OP_HIST_DONE, OP_TOTAL_DONE, OP_VERTEX_TOTAL};
    use booster_repro::dist::train_distributed_threads;
    use booster_repro::sim::cluster_sim::{
        dist_step1_payload_bytes, dist_vertex_total_payload_bytes,
    };

    let (mut saw_sparse, mut saw_dense, mut saw_totals, mut saw_no_totals) =
        (false, false, false, false);
    for (bench, records, workers, subsample, max_depth) in [
        (Benchmark::Higgs, 600, 2usize, 1.0, 4),
        (Benchmark::Higgs, 600, 4, 1.0, 4),
        (Benchmark::Higgs, 600, 3, 0.6, 4),
        // Allstate-shaped: 4 232 one-hot bins over 900 records.
        (Benchmark::Allstate, 900, 2, 1.0, 4),
        (Benchmark::Allstate, 900, 4, 0.7, 3),
        // Deeper than the data can split: leaves stop short of
        // `max_depth`, so every Step-1 exchange is a histogram build.
        (Benchmark::Higgs, 40, 2, 1.0, 12),
    ] {
        let (data, mirror) = generate_binned(bench, records, 21);
        let cfg = TrainConfig {
            num_trees: 3,
            max_depth,
            subsample,
            seed: 5,
            objective: default_objective(bench),
            ..Default::default()
        };
        let out = train_distributed_threads(&data, &mirror, &cfg, workers, Duration::from_secs(20))
            .expect("distributed run");
        let what = format!("{}, N={workers}, subsample={subsample}", bench.name());
        let (stats, comm) = (&out.stats, &out.stats.comm);

        // Model vs measurement, exactly — histogram builds ...
        let predicted: u64 = stats
            .bin_events
            .iter()
            .map(|e| {
                assert_eq!(e.blocks.len(), e.engaged as usize, "{what}: one block per link");
                let blocks: Vec<Option<u64>> =
                    e.blocks.iter().map(|b| b.sparse.then_some(u64::from(b.occupied))).collect();
                dist_step1_payload_bytes(data.total_bins(), e.rows_shipped, &blocks)
            })
            .sum();
        let measured = comm.bytes_for_op(OP_BUILD_HIST) + comm.bytes_for_op(OP_HIST_DONE);
        assert_eq!(predicted, measured, "{what}: predicted vs measured histogram bytes");
        // ... and totals-only exchanges.
        let predicted: u64 = stats
            .total_events
            .iter()
            .map(|e| dist_vertex_total_payload_bytes(e.engaged, e.rows_shipped))
            .sum();
        let measured_totals = comm.bytes_for_op(OP_VERTEX_TOTAL) + comm.bytes_for_op(OP_TOTAL_DONE);
        assert_eq!(predicted, measured_totals, "{what}: predicted vs measured totals-only bytes");

        // The per-frame log agrees with the per-op counters, and the
        // per-event chain lengths account for every request frame.
        let logged: u64 = comm
            .frame_log
            .iter()
            .filter(|f| f.op == OP_BUILD_HIST || f.op == OP_HIST_DONE)
            .map(|f| u64::from(f.payload_bytes))
            .sum();
        assert_eq!(logged, measured, "{what}: frame log vs per-op counters");
        let requests =
            |op: u8| comm.frame_log.iter().filter(|f| f.sent && f.op == op).count() as u64;
        let engaged_sum: u64 = stats.bin_events.iter().map(|e| u64::from(e.engaged)).sum();
        assert_eq!(requests(OP_BUILD_HIST), engaged_sum, "{what}: one request per engaged worker");
        let engaged_sum: u64 = stats.total_events.iter().map(|e| u64::from(e.engaged)).sum();
        assert_eq!(
            requests(OP_VERTEX_TOTAL),
            engaged_sum,
            "{what}: one request per engaged worker"
        );

        // Every split bins or totals its smaller child, never both: the
        // builds beyond the roots plus the totals are the splits.
        let splits: usize = out.model.trees.iter().map(|t| t.num_leaves() - 1).sum();
        let roots = out.model.trees.len();
        assert_eq!(stats.bin_events.len() - roots + stats.total_events.len(), splits, "{what}");

        let blocks = || stats.bin_events.iter().flat_map(|e| &e.blocks);
        saw_sparse |= blocks().any(|b| b.sparse);
        saw_dense |= blocks().any(|b| !b.sparse);
        saw_totals |= !stats.total_events.is_empty();
        saw_no_totals |= stats.total_events.is_empty() && splits > 0;
        if bench == Benchmark::Allstate {
            assert!(blocks().any(|b| b.sparse), "{what}: a one-hot vertex must ship sparse");
        }
    }
    assert!(saw_sparse && saw_dense, "both lane-block modes must have been priced");
    assert!(saw_totals && saw_no_totals, "runs with and without totals-only exchanges");
}
