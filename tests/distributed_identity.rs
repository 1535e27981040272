//! Differential tests for distributed training: the distributed
//! trainer must be **bit-identical** to local training — same trees,
//! same base score, same loss history, same eval history, same early
//! stopping decision — for any worker count, any contiguous shard
//! plan, every growth strategy, and under stochastic sampling.
//!
//! The claim is exact, not approximate: `f64` addition is not
//! associative, so a naive AllReduce of independently-built partial
//! histograms would drift by ULPs; the chained fixed-order reduction
//! must not. These tests compare bit patterns.
//!
//! Runs on the vendored `PROPTEST_SEED` rail: CI's second-seed property
//! job re-runs this layer under a different seed.

use std::net::TcpListener;
use std::time::Duration;

use proptest::prelude::*;

use booster_repro::datagen::{
    default_objective, generate_binned, generate_binned_split, Benchmark,
};
use booster_repro::dist::{
    serve_worker_tcp, train_distributed, train_distributed_threads, train_distributed_with_eval,
    ChannelComm, DistOutcome, ShardPlan, TcpComm,
};
use booster_repro::gbdt::columnar::ColumnarMirror;
use booster_repro::gbdt::gradients::Objective;
use booster_repro::gbdt::grow::{grow_forest_with_eval, GrowthStrategy};
use booster_repro::gbdt::parallel::ParallelExec;
use booster_repro::gbdt::predict::Model;
use booster_repro::gbdt::preprocess::{BinMatrix, BinnedDataset};
use booster_repro::gbdt::train::{
    EarlyStopping, EvalSet, SequentialExec, TrainConfig, TrainReport,
};

const TIMEOUT: Duration = Duration::from_secs(20);

const GROWTHS: [GrowthStrategy; 3] = [
    GrowthStrategy::VertexWise,
    GrowthStrategy::LevelWise,
    GrowthStrategy::LeafWise { max_leaves: 6 },
];

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// The full identity assertion: trees, base score, loss history and
/// (when present) eval history and best iteration, all as bit patterns.
fn assert_identical(local: &(Model, TrainReport), dist: &DistOutcome, what: &str) {
    assert_eq!(local.0.trees, dist.model.trees, "{what}: trees must be bit-identical");
    assert_eq!(local.0.base_score.to_bits(), dist.model.base_score.to_bits(), "{what}: base score");
    assert_eq!(
        bits(&local.1.loss_history),
        bits(&dist.report.loss_history),
        "{what}: loss history"
    );
    assert_eq!(
        local.1.eval_history.as_deref().map(bits),
        dist.report.eval_history.as_deref().map(bits),
        "{what}: eval history"
    );
    assert_eq!(local.1.best_iteration, dist.report.best_iteration, "{what}: best iteration");
}

fn run_jittered(
    data: &BinnedDataset,
    mirror: &ColumnarMirror,
    cfg: &TrainConfig,
    workers: usize,
    plan_seed: u64,
) -> DistOutcome {
    let plan = ShardPlan::seeded(data.num_records(), workers, plan_seed);
    let shards = plan.shard(data).expect("plan covers the dataset");
    let comm = ChannelComm::spawn(shards, TIMEOUT);
    train_distributed(data, mirror, cfg, comm, &plan).expect("distributed run")
}

/// Train over real sockets: one `serve_worker_tcp` thread per shard.
fn run_tcp(
    data: &BinnedDataset,
    mirror: &ColumnarMirror,
    cfg: &TrainConfig,
    workers: usize,
) -> DistOutcome {
    let plan = ShardPlan::even(data.num_records(), workers);
    let shards = plan.shard(data).expect("plan covers the dataset");
    let mut addrs = Vec::new();
    let mut handles = Vec::new();
    for shard in shards {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind worker");
        addrs.push(listener.local_addr().expect("local addr"));
        handles.push(std::thread::spawn(move || serve_worker_tcp(shard, listener)));
    }
    let comm = TcpComm::connect(&addrs, TIMEOUT).expect("connect workers");
    let out = train_distributed(data, mirror, cfg, comm, &plan).expect("distributed run");
    for h in handles {
        h.join().expect("worker thread").expect("worker served cleanly");
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// N ∈ {1, 2, 4, 8} workers × all growth strategies × stochastic
    /// sampling, on even and seeded-jittered contiguous plans:
    /// everything observable matches local training exactly.
    #[test]
    fn distributed_training_is_bit_identical_to_local(
        bench_idx in 0usize..3,
        records in 60usize..180,
        data_seed in any::<u64>(),
        train_seed in any::<u64>(),
        plan_seed in any::<u64>(),
    ) {
        let bench = [Benchmark::Iot, Benchmark::Higgs, Benchmark::Allstate][bench_idx];
        let (data, mirror) = generate_binned(bench, records, data_seed);
        for growth in GROWTHS {
            let cfg = TrainConfig {
                num_trees: 3,
                max_depth: 3,
                subsample: 0.7,
                colsample_bytree: 0.8,
                seed: train_seed,
                growth,
                objective: default_objective(bench),
                ..Default::default()
            };
            let local = grow_forest_with_eval(&data, &mirror, &cfg, &SequentialExec, None);
            for workers in [1usize, 2, 4, 8] {
                let out = train_distributed_threads(&data, &mirror, &cfg, workers, TIMEOUT)
                    .expect("distributed run");
                assert_identical(&local, &out, &format!("{growth:?}, N={workers}, even plan"));
                let out = run_jittered(&data, &mirror, &cfg, workers, plan_seed);
                assert_identical(&local, &out, &format!("{growth:?}, N={workers}, jittered plan"));
            }
        }
    }

    /// Validation-driven early stopping: the eval scores and the
    /// truncation decision are reproduced exactly, so distributed and
    /// local training stop at the same tree.
    #[test]
    fn distributed_early_stopping_matches_local(
        records in 120usize..240,
        data_seed in any::<u64>(),
        train_seed in any::<u64>(),
    ) {
        let (data, mirror, eval_data) =
            generate_binned_split(Benchmark::Higgs, records, data_seed, 0.25);
        let eval = EvalSet::new(&eval_data);
        let cfg = TrainConfig {
            num_trees: 8,
            max_depth: 3,
            subsample: 0.8,
            seed: train_seed,
            early_stopping: Some(EarlyStopping { patience: 2, ..Default::default() }),
            objective: Objective::Logistic,
            ..Default::default()
        };
        let local = grow_forest_with_eval(&data, &mirror, &cfg, &SequentialExec, Some(&eval));
        for workers in [1usize, 2, 4] {
            let plan = ShardPlan::even(data.num_records(), workers);
            let shards = plan.shard(&data).expect("plan covers the dataset");
            let comm = ChannelComm::spawn(shards, TIMEOUT);
            let out = train_distributed_with_eval(&data, &mirror, &cfg, comm, &plan, Some(&eval))
                .expect("distributed run");
            assert_identical(&local, &out, &format!("early stopping, N={workers}"));
        }
    }
}

// ------------------------------------------------- deterministic tests

/// The localhost-TCP transport reproduces local training exactly too:
/// same bytes through a real socket, same model out.
#[test]
fn tcp_transport_is_bit_identical_to_local() {
    let (data, mirror) = generate_binned(Benchmark::Flight, 400, 11);
    let cfg = TrainConfig {
        num_trees: 4,
        max_depth: 4,
        subsample: 0.9,
        seed: 3,
        objective: default_objective(Benchmark::Flight),
        ..Default::default()
    };
    let local = grow_forest_with_eval(&data, &mirror, &cfg, &SequentialExec, None);
    for workers in [2usize, 4] {
        let out = run_tcp(&data, &mirror, &cfg, workers);
        assert_identical(&local, &out, &format!("tcp, N={workers}"));
    }
}

/// A wide-bin dataset (one-hot fields: `u32` bin columns, thousands of
/// bins, most of them empty at any vertex) grown to `max_depth`: the
/// lane blocks go out sparse and the last level's totals ride the
/// lanes-free chain. Sequential == Parallel == Dist(N) for N ∈ {1, 2,
/// 4, 8} on even and jittered plans over channels, and over TCP.
#[test]
fn wide_bin_sparse_blocks_and_totals_only_chains_are_bit_identical_to_local() {
    let (data, mirror) = generate_binned(Benchmark::Allstate, 700, 23);
    assert!(matches!(data.matrix(), BinMatrix::Wide(_)), "bins must not fit a byte");
    assert!(data.total_bins() > 256);
    for growth in GROWTHS {
        let cfg = TrainConfig {
            num_trees: 3,
            max_depth: 4,
            subsample: 0.85,
            colsample_bynode: 0.8,
            seed: 41,
            growth,
            objective: default_objective(Benchmark::Allstate),
            ..Default::default()
        };
        let local = grow_forest_with_eval(&data, &mirror, &cfg, &SequentialExec, None);
        let parallel =
            grow_forest_with_eval(&data, &mirror, &cfg, &ParallelExec { chunk_size: 64 }, None);
        assert_eq!(local.0.trees, parallel.0.trees, "{growth:?}: parallel");
        assert_eq!(bits(&local.1.loss_history), bits(&parallel.1.loss_history), "{growth:?}");

        for workers in [1usize, 2, 4, 8] {
            let even = train_distributed_threads(&data, &mirror, &cfg, workers, TIMEOUT)
                .expect("distributed run");
            assert_identical(&local, &even, &format!("{growth:?}, N={workers}, even plan"));
            let jittered = run_jittered(&data, &mirror, &cfg, workers, 0xD157 + workers as u64);
            assert_identical(&local, &jittered, &format!("{growth:?}, N={workers}, jittered"));

            // Both new wire shapes were really on the wire.
            let stats = &even.stats;
            let sparse = stats.bin_events.iter().flat_map(|e| &e.blocks).filter(|b| b.sparse);
            assert!(sparse.count() > 0, "{growth:?}, N={workers}: no sparse lane block");
            assert!(!stats.total_events.is_empty(), "{growth:?}, N={workers}: no totals chain");
            assert!(stats.total_events.iter().all(|e| e.engaged as usize <= workers));
            // The engine's own count of what it binned matches local's.
            assert_eq!(
                format!("{:?}", even.report.work),
                format!("{:?}", local.1.work),
                "{growth:?}, N={workers}: work counters"
            );
        }
        for workers in [2usize, 4] {
            let out = run_tcp(&data, &mirror, &cfg, workers);
            assert_identical(&local, &out, &format!("{growth:?}, tcp, N={workers}"));
        }
    }
}

/// Unsupported objectives fail with a typed error before any worker
/// traffic, not mid-run.
#[test]
fn coupled_objectives_are_rejected_up_front() {
    let (data, mirror) = generate_binned(Benchmark::Iot, 50, 1);
    let cfg = TrainConfig {
        num_trees: 2,
        objective: Objective::Softmax { num_class: 3 },
        ..Default::default()
    };
    let err = train_distributed_threads(&data, &mirror, &cfg, 2, TIMEOUT).unwrap_err();
    assert!(
        matches!(err, booster_repro::dist::DistError::Unsupported(_)),
        "expected Unsupported, got {err:?}"
    );
}

/// An eval metric undefined for the objective never reaches a worker:
/// it is the same typed "invalid config" error as any other
/// `TrainConfig::validate` failure.
#[test]
fn undefined_eval_metric_is_an_invalid_config_error() {
    use booster_repro::gbdt::metrics::EvalMetric;
    let (data, mirror) = generate_binned(Benchmark::Iot, 50, 1);
    let cfg = TrainConfig {
        num_trees: 2,
        objective: Objective::LambdaRank,
        early_stopping: Some(EarlyStopping { metric: EvalMetric::Auc, ..Default::default() }),
        ..Default::default()
    };
    let plan = ShardPlan::even(data.num_records(), 2);
    let comm = ChannelComm::spawn(plan.shard(&data).expect("shards"), TIMEOUT);
    let eval = EvalSet::new(&data);
    let err =
        train_distributed_with_eval(&data, &mirror, &cfg, comm, &plan, Some(&eval)).unwrap_err();
    match err {
        booster_repro::dist::DistError::Protocol(msg) => assert!(
            msg.contains("invalid config: early_stopping.metric"),
            "unexpected message: {msg}"
        ),
        other => panic!("expected an invalid-config protocol error, got {other:?}"),
    }
}

/// The Step-1 traffic measurements line up with the run: one bin event
/// per explicit histogram build, each engaging at most N workers, and
/// the per-op counters see exactly the BuildHist/HistDone traffic.
#[test]
fn traffic_stats_are_coherent() {
    let (data, mirror) = generate_binned(Benchmark::Iot, 300, 5);
    let cfg = TrainConfig {
        num_trees: 3,
        max_depth: 3,
        objective: default_objective(Benchmark::Iot),
        ..Default::default()
    };
    let out = train_distributed_threads(&data, &mirror, &cfg, 4, TIMEOUT).expect("run");
    assert!(!out.stats.bin_events.is_empty(), "some histogram builds must have happened");
    assert!(out.stats.bin_events.iter().all(|e| e.engaged >= 1 && e.engaged <= 4));
    assert!(out.stats.comm.frames_sent > 0 && out.stats.comm.frames_received > 0);
}
