//! Criterion benchmarks of the full pipelines: sequential vs rayon
//! training throughput, the growth-mode × executor matrix of the unified
//! engine, stochastic-sampling variants plus the eval-pipeline overhead,
//! batch inference (the per-record node-walk oracle vs the compiled
//! lane kernel and its parallel driver), the serving layer's per-request
//! scheduler overhead, and the end-to-end timing-model evaluation used
//! by the figure harnesses.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

use booster_datagen::{default_objective, generate_binned, Benchmark};
use booster_gbdt::grow::GrowthStrategy;
use booster_gbdt::infer::FlatEnsemble;
use booster_gbdt::parallel::ParallelExec;
use booster_gbdt::train::{train, train_with, TrainConfig};
use booster_sim::{BandwidthModel, BoosterConfig, BoosterSim, HostModel};

fn bench_training(c: &mut Criterion) {
    let mut g = c.benchmark_group("train_10trees");
    g.sample_size(10);
    for bench in [Benchmark::Higgs, Benchmark::Flight] {
        let (data, mirror) = generate_binned(bench, 30_000, 1);
        let cfg = TrainConfig {
            num_trees: 10,
            max_depth: 6,
            objective: default_objective(bench),
            ..Default::default()
        };
        g.throughput(Throughput::Elements(data.num_records() as u64));
        g.bench_function(BenchmarkId::new("sequential", bench.name()), |b| {
            b.iter(|| black_box(train(&data, &mirror, &cfg)))
        });
        g.bench_function(BenchmarkId::new("parallel", bench.name()), |b| {
            b.iter(|| black_box(train_with(&data, &mirror, &cfg, &ParallelExec::default())))
        });
    }
    g.finish();
}

/// Every growth mode on every executor through the one engine: the
/// matrix the unified `booster_gbdt::grow` engine makes reachable
/// (parallel level-wise included).
fn bench_growth_modes(c: &mut Criterion) {
    let (data, mirror) = generate_binned(Benchmark::Higgs, 20_000, 1);
    let modes = [
        ("vertex", GrowthStrategy::VertexWise),
        ("level", GrowthStrategy::LevelWise),
        ("leaf", GrowthStrategy::LeafWise { max_leaves: 48 }),
    ];
    let mut g = c.benchmark_group("growth_modes_10trees");
    g.sample_size(10);
    g.throughput(Throughput::Elements(data.num_records() as u64));
    for (name, growth) in modes {
        let cfg = TrainConfig {
            num_trees: 10,
            max_depth: 6,
            objective: default_objective(Benchmark::Higgs),
            growth,
            ..Default::default()
        };
        g.bench_function(BenchmarkId::new("sequential", name), |b| {
            b.iter(|| black_box(train(&data, &mirror, &cfg)))
        });
        g.bench_function(BenchmarkId::new("parallel", name), |b| {
            b.iter(|| {
                black_box(train_with(&data, &mirror, &cfg, &ParallelExec { chunk_size: 4096 }))
            })
        });
    }
    g.finish();
}

/// Stochastic training: how much wall-clock the sampling knobs buy (or
/// cost) against deterministic full-data training, and what the
/// per-tree eval scoring of the early-stopping pipeline adds on top.
fn bench_stochastic(c: &mut Criterion) {
    use booster_gbdt::grow::grow_forest_with_eval;
    use booster_gbdt::train::{EvalSet, SequentialExec};
    let (data, mirror, eval) =
        booster_datagen::generate_binned_split(Benchmark::Higgs, 25_000, 1, 0.2);
    let base = TrainConfig {
        num_trees: 10,
        max_depth: 6,
        objective: default_objective(Benchmark::Higgs),
        ..Default::default()
    };
    let variants = [
        ("full", 1.0, 1.0, 1.0),
        ("subsample_0.5", 0.5, 1.0, 1.0),
        ("colsample_0.5", 1.0, 0.5, 1.0),
        ("bynode_0.5", 1.0, 1.0, 0.5),
        ("sub+col_0.5", 0.5, 0.5, 1.0),
    ];
    let mut g = c.benchmark_group("stochastic_10trees");
    g.sample_size(10);
    g.throughput(Throughput::Elements(data.num_records() as u64));
    for (name, subsample, bytree, bynode) in variants {
        let cfg = TrainConfig {
            subsample,
            colsample_bytree: bytree,
            colsample_bynode: bynode,
            ..base.clone()
        };
        g.bench_function(BenchmarkId::new("train", name), |b| {
            b.iter(|| black_box(train(&data, &mirror, &cfg)))
        });
    }
    // The eval pipeline's overhead: identical training plus per-tree
    // scoring of the holdout.
    g.bench_function(BenchmarkId::new("train", "full+eval"), |b| {
        b.iter(|| {
            black_box(grow_forest_with_eval(
                &data,
                &mirror,
                &base,
                &SequentialExec,
                Some(&EvalSet::new(&eval)),
            ))
        })
    });
    g.finish();
}

/// Batch scoring: the per-record `Vec<Node>` pointer walk
/// (`Model::predict_batch`, the oracle) against the compiled lane kernel
/// on one core and fanned over cores by the record-range driver.
fn bench_inference(c: &mut Criterion) {
    let (data, mirror) = generate_binned(Benchmark::Higgs, 30_000, 1);
    let cfg = TrainConfig {
        num_trees: 50,
        max_depth: 6,
        objective: default_objective(Benchmark::Higgs),
        ..Default::default()
    };
    let (model, _) = train(&data, &mirror, &cfg);
    let flat = FlatEnsemble::from_model(&model).expect("depth-6 trees lower to tables");
    // Compile outside the timing loop so the bench measures the kernel,
    // not the one-time lowering.
    let compiled = flat.compiled();
    let mut out = vec![0.0f64; data.num_records()];
    let mut g = c.benchmark_group("inference");
    g.sample_size(10);
    g.throughput(Throughput::Elements(data.num_records() as u64));
    g.bench_function("node_walk", |b| b.iter(|| black_box(model.predict_batch(black_box(&data)))));
    g.bench_function("compiled", |b| {
        b.iter(|| {
            compiled.score_into(black_box(&data), &mut out);
            black_box(out[0])
        })
    });
    g.bench_function("compiled_parallel", |b| {
        b.iter(|| {
            compiled.score_into_parallel(black_box(&data), &mut out);
            black_box(out[0])
        })
    });
    g.finish();
}

/// Online serving overhead: one closed-loop round trip through the
/// micro-batching scheduler (submit → coalesce → shard worker → respond)
/// against direct in-thread `Predictor` scoring of the same record —
/// the price of the serving layer per request at batch size 1.
fn bench_serving(c: &mut Criterion) {
    use booster_gbdt::dataset::RawValue;
    use booster_gbdt::infer::Predictor;
    use booster_serve::{BatchPolicy, ModelRegistry, ResponseSlot, ServeConfig, Server};
    use std::sync::Arc;
    use std::time::Duration;

    let ds = booster_datagen::generate(Benchmark::Higgs, 10_000, 3);
    let data = booster_gbdt::preprocess::BinnedDataset::from_dataset(&ds);
    let mirror = booster_gbdt::columnar::ColumnarMirror::from_binned(&data);
    let cfg = TrainConfig {
        num_trees: 20,
        max_depth: 6,
        objective: default_objective(Benchmark::Higgs),
        ..Default::default()
    };
    let (model, _) = train(&data, &mirror, &cfg);
    let record: Arc<[RawValue]> =
        (0..ds.num_fields()).map(|f| ds.value(17, f)).collect::<Vec<_>>().into();

    let registry = Arc::new(ModelRegistry::new());
    registry.register(&model).expect("register");
    let server = Server::start(
        Arc::clone(&registry),
        ServeConfig {
            policy: BatchPolicy { max_batch: 16, max_delay: Duration::ZERO },
            ..Default::default()
        },
    )
    .expect("server starts");
    let handle = server.handle();
    let slot = ResponseSlot::new();
    let mut predictor = Predictor::from_model(&model).expect("lowering");

    let mut g = c.benchmark_group("serving");
    g.sample_size(10);
    g.bench_function("scheduler_round_trip", |b| {
        b.iter(|| black_box(handle.score_with(&slot, Arc::clone(&record), None).expect("scored")))
    });
    g.bench_function("predictor_direct", |b| {
        b.iter(|| black_box(predictor.predict_one(black_box(&record))))
    });
    g.finish();
    server.shutdown();
}

/// Objective-layer cost: what the multi-output engine charges relative
/// to the binary baseline at a matched tree budget (K=5 softmax grows
/// the same *total* trees, so the delta is the margin-matrix bookkeeping
/// and the coupled gradient refresh, not extra tree work), what pairwise
/// λ-gradient refresh costs on query-grouped data, and what `K` costs the
/// one K-aware scoring kernel: the same trees scored into one output
/// slot and round-robined into five.
fn bench_objectives(c: &mut Criterion) {
    use booster_datagen::{generate_multiclass, generate_ranking};
    use booster_gbdt::gradients::Objective;
    use booster_gbdt::preprocess::BinnedDataset;

    const TOTAL_TREES: usize = 10;
    let mut g = c.benchmark_group("objectives");
    g.sample_size(10);

    // Binary logistic baseline: 10 trees on Higgs-like data.
    let (binary, binary_mirror) = generate_binned(Benchmark::Higgs, 20_000, 1);
    let binary_cfg = TrainConfig {
        num_trees: TOTAL_TREES,
        max_depth: 6,
        objective: Objective::Logistic,
        ..Default::default()
    };
    g.throughput(Throughput::Elements(binary.num_records() as u64));
    g.bench_function(BenchmarkId::new("train", "binary_logistic"), |b| {
        b.iter(|| black_box(train(&binary, &binary_mirror, &binary_cfg)))
    });

    // K=5 softmax at the same total-tree budget (2 rounds x 5 trees).
    let blobs = generate_multiclass(20_000, 5, 1);
    let multi = BinnedDataset::from_dataset(&blobs);
    let multi_mirror = booster_gbdt::columnar::ColumnarMirror::from_binned(&multi);
    let softmax_cfg = TrainConfig {
        num_trees: TOTAL_TREES / 5,
        max_depth: 6,
        objective: Objective::Softmax { num_class: 5 },
        ..Default::default()
    };
    g.throughput(Throughput::Elements(multi.num_records() as u64));
    g.bench_function(BenchmarkId::new("train", "softmax_k5"), |b| {
        b.iter(|| black_box(train(&multi, &multi_mirror, &softmax_cfg)))
    });

    // LambdaRank on query-grouped data (~20k docs across 1.6k queries).
    let (rank_ds, groups) = generate_ranking(1_600, 1);
    let mut rank = BinnedDataset::from_dataset(&rank_ds);
    rank.set_query_groups(groups);
    let rank_mirror = booster_gbdt::columnar::ColumnarMirror::from_binned(&rank);
    let rank_cfg = TrainConfig {
        num_trees: TOTAL_TREES,
        max_depth: 6,
        objective: Objective::LambdaRank,
        ..Default::default()
    };
    g.throughput(Throughput::Elements(rank.num_records() as u64));
    g.bench_function(BenchmarkId::new("train", "lambdarank"), |b| {
        b.iter(|| black_box(train(&rank, &rank_mirror, &rank_cfg)))
    });

    // K cost of the kernel: the binary model's trees scored as they are
    // (K=1) and fed round-robin into five softmax slots (same tree work;
    // the delta is slot bookkeeping plus the softmax link).
    let (model, _) = train(&binary, &binary_mirror, &binary_cfg);
    let as_k5 = booster_gbdt::predict::Model {
        objective: Objective::Softmax { num_class: 5 },
        num_outputs: 5,
        ..model.clone()
    };
    g.throughput(Throughput::Elements(binary.num_records() as u64));
    for (id, m) in [("k1", &model), ("k5", &as_k5)] {
        let flat = FlatEnsemble::from_model(m).expect("trees lower");
        let compiled = flat.compiled();
        let mut out = vec![0.0f64; binary.num_records() * compiled.num_outputs()];
        g.bench_function(BenchmarkId::new("score", id), |b| {
            b.iter(|| {
                compiled.score_into(black_box(&binary), &mut out);
                black_box(out[0])
            })
        });
    }
    g.finish();
}

fn bench_timing_model(c: &mut Criterion) {
    let (data, mirror) = generate_binned(Benchmark::Higgs, 20_000, 1);
    let cfg =
        TrainConfig { num_trees: 10, max_depth: 6, collect_phases: true, ..Default::default() };
    let (_, report) = train(&data, &mirror, &cfg);
    let log = report.phase_log.unwrap().scaled(500.0);
    let bw = BandwidthModel::new(booster_dram::DramConfig::default());
    let host = HostModel::default();
    let mut g = c.benchmark_group("timing_model");
    g.sample_size(10);
    g.bench_function("booster_full_eval", |b| {
        let sim = BoosterSim::new(BoosterConfig::default(), &bw);
        b.iter(|| black_box(sim.training_time(black_box(&log), &host)))
    });
    g.bench_function("bandwidth_model_build", |b| {
        b.iter(|| black_box(BandwidthModel::new(booster_dram::DramConfig::default())))
    });
    g.finish();
}

/// Distributed data-parallel training against local training on the
/// same config: the in-process channel transport with N ∈ {2, 4}
/// worker threads (spawning, sharding and the wire protocol are all
/// inside the timed region — that *is* the distributed overhead), on a
/// dense numeric dataset (Higgs: lane blocks mostly full) and a wide
/// one-hot one (Allstate-shaped: 8 328 bins, 4 232 of them one-hot and
/// mostly empty below the root). Setup prints what one run put on the wire — histogram builds,
/// totals-only exchanges, lane blocks by mode and their mean occupancy,
/// Step-1 and total MB — so the records/sec numbers can be read against
/// bytes moved.
fn bench_distributed(c: &mut Criterion) {
    let timeout = std::time::Duration::from_secs(60);
    let mut g = c.benchmark_group("distributed");
    g.sample_size(10);
    for (bench, records) in [(Benchmark::Higgs, 20_000), (Benchmark::Allstate, 10_000)] {
        let (data, mirror) = generate_binned(bench, records, 1);
        let cfg = TrainConfig {
            num_trees: 5,
            max_depth: 5,
            objective: default_objective(bench),
            ..Default::default()
        };
        let name = bench.name().to_lowercase();
        g.throughput(Throughput::Elements(data.num_records() as u64));
        g.bench_function(format!("{name}/local"), |b| {
            b.iter(|| black_box(train(&data, &mirror, &cfg)))
        });
        for workers in [2usize, 4] {
            let out =
                booster_dist::train_distributed_threads(&data, &mirror, &cfg, workers, timeout)
                    .expect("distributed run");
            let stats = &out.stats;
            let step1_bytes: u64 = {
                use booster_dist::proto::*;
                [OP_BUILD_HIST, OP_HIST_DONE, OP_VERTEX_TOTAL, OP_TOTAL_DONE]
                    .iter()
                    .map(|&op| stats.comm.bytes_for_op(op))
                    .sum()
            };
            let blocks: Vec<_> = stats.bin_events.iter().flat_map(|e| &e.blocks).collect();
            let sparse = blocks.iter().filter(|b| b.sparse).count();
            let occupied: u64 = blocks.iter().map(|b| u64::from(b.occupied)).sum();
            eprintln!(
                "distributed/{name}/workers={workers}: {} histogram builds + {} totals-only \
                 exchanges, {} lane blocks ({sparse} sparse, mean occupancy {:.0}%), \
                 Step-1 {:.2} MB, wire {:.2} MB",
                stats.bin_events.len(),
                stats.total_events.len(),
                blocks.len(),
                100.0 * occupied as f64 / (blocks.len().max(1) as u64 * data.total_bins()) as f64,
                step1_bytes as f64 / 1e6,
                stats.comm.wire_bytes() as f64 / 1e6,
            );
            g.bench_function(BenchmarkId::new(format!("{name}/channel_workers"), workers), |b| {
                b.iter(|| {
                    black_box(
                        booster_dist::train_distributed_threads(
                            &data, &mirror, &cfg, workers, timeout,
                        )
                        .expect("distributed run"),
                    )
                })
            });
        }
    }
    g.finish();
}

/// Telemetry overhead: the same sequential training run with span
/// tracing disabled (the default — one relaxed atomic load per
/// instrumentation site) and enabled (ring buffering on). The
/// acceptance bar is ≤3% between `tracing_off` and the pre-telemetry
/// baseline; `tracing_on` quantifies the cost of actually buffering.
fn bench_observability(c: &mut Criterion) {
    let (data, mirror) = generate_binned(Benchmark::Higgs, 30_000, 1);
    let cfg = TrainConfig {
        num_trees: 10,
        max_depth: 6,
        objective: default_objective(Benchmark::Higgs),
        ..Default::default()
    };
    let mut g = c.benchmark_group("observability");
    g.sample_size(10);
    g.throughput(Throughput::Elements(data.num_records() as u64));
    booster_obs::span::set_enabled(false);
    g.bench_function("train_tracing_off", |b| b.iter(|| black_box(train(&data, &mirror, &cfg))));
    booster_obs::span::set_enabled(true);
    g.bench_function("train_tracing_on", |b| b.iter(|| black_box(train(&data, &mirror, &cfg))));
    booster_obs::span::set_enabled(false);
    booster_obs::span::clear();
    g.finish();
}

criterion_group!(
    benches,
    bench_training,
    bench_growth_modes,
    bench_stochastic,
    bench_inference,
    bench_serving,
    bench_objectives,
    bench_timing_model,
    bench_distributed,
    bench_observability
);
criterion_main!(benches);
