//! Criterion microbenchmarks for the hot GBDT kernels: histogram
//! binning (Step 1), split scan (Step 2), partitioning (Step 3) and
//! tree traversal (Step 5) — and the distributed trainer's lane-block
//! codec, which is Step 1's other half once histograms cross a wire.
//!
//! The record-streaming kernels run at two scales (one cache-resident,
//! one DRAM-bound) and — where a layout choice exists — against both
//! the bit-packed (`u8`, the default) and forced-wide (`u32`) bin
//! layouts, so the packing win is measured, not assumed.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

use booster_datagen::{default_objective, generate_binned, Benchmark};
use booster_gbdt::gradients::GradPair;
use booster_gbdt::grow::GrowthStrategy;
use booster_gbdt::histogram::NodeHistogram;
use booster_gbdt::partition::partition_rows;
use booster_gbdt::split::{find_best_split, SplitParams, SplitRule};
use booster_gbdt::train::{train, SequentialExec, StepExecutor, TrainConfig};

const SCALES: [usize; 2] = [50_000, 200_000];

fn bench_histogram(c: &mut Criterion) {
    let mut g = c.benchmark_group("step1_histogram");
    g.sample_size(10);
    for n in SCALES {
        for bench in [Benchmark::Higgs, Benchmark::Flight] {
            let (data, mirror) = generate_binned(bench, n, 1);
            let (wide, wide_mirror) = (data.to_wide(), mirror.to_wide());
            let grads: Vec<GradPair> =
                (0..n).map(|i| GradPair::new((i as f64).sin(), 1.0)).collect();
            let rows: Vec<u32> = (0..n as u32).collect();
            g.throughput(Throughput::Elements((n * data.num_fields()) as u64));
            // The executor's field-wise gathered kernel — the path
            // training actually runs — over both bin layouts.
            g.bench_function(BenchmarkId::new(bench.name(), n), |b| {
                b.iter(|| {
                    let mut h = NodeHistogram::zeroed(&data);
                    SequentialExec.bin_records(
                        black_box(&data),
                        black_box(&mirror),
                        black_box(&rows),
                        black_box(&grads),
                        &mut h,
                    );
                    black_box(h.total_count())
                })
            });
            g.bench_function(BenchmarkId::new(format!("{}_wide", bench.name()), n), |b| {
                b.iter(|| {
                    let mut h = NodeHistogram::zeroed(&wide);
                    SequentialExec.bin_records(
                        black_box(&wide),
                        black_box(&wide_mirror),
                        black_box(&rows),
                        black_box(&grads),
                        &mut h,
                    );
                    black_box(h.total_count())
                })
            });
            // The row-major scatter (parity reference and test kernel).
            g.bench_function(BenchmarkId::new(format!("{}_rowmajor", bench.name()), n), |b| {
                b.iter(|| {
                    let mut h = NodeHistogram::zeroed(&data);
                    h.bin_records(black_box(&data), black_box(&rows), black_box(&grads));
                    black_box(h.total_count())
                })
            });
        }
    }
    g.finish();
}

fn bench_split_scan(c: &mut Criterion) {
    let mut g = c.benchmark_group("step2_split_scan");
    g.sample_size(10);
    for n in SCALES {
        for bench in [Benchmark::Higgs, Benchmark::Allstate] {
            let (data, _) = generate_binned(bench, n, 1);
            let grads: Vec<GradPair> =
                (0..n).map(|i| GradPair::new((i as f64).cos(), 1.0)).collect();
            let rows: Vec<u32> = (0..n as u32).collect();
            let mut h = NodeHistogram::zeroed(&data);
            h.bin_records(&data, &rows, &grads);
            g.throughput(Throughput::Elements(data.total_bins()));
            g.bench_function(BenchmarkId::new(bench.name(), n), |b| {
                b.iter(|| {
                    let (s, bins) = find_best_split(
                        black_box(&h),
                        data.binnings(),
                        &SplitParams::default(),
                        None,
                    );
                    black_box((s, bins))
                })
            });
        }
    }
    g.finish();
}

fn bench_partition(c: &mut Criterion) {
    let mut g = c.benchmark_group("step3_partition");
    g.sample_size(10);
    for n in SCALES {
        let (data, mirror) = generate_binned(Benchmark::Higgs, n, 1);
        let wide_mirror = mirror.to_wide();
        let rows: Vec<u32> = (0..n as u32).collect();
        let absent = data.binnings()[0].absent_bin();
        let rule = SplitRule::Numeric { threshold_bin: 128 };
        g.throughput(Throughput::Elements(n as u64));
        g.bench_function(BenchmarkId::new("higgs_field0", n), |b| {
            b.iter(|| {
                let (l, r) = partition_rows(
                    black_box(&rows),
                    black_box(mirror.column(0)),
                    rule,
                    false,
                    absent,
                );
                black_box((l.len(), r.len()))
            })
        });
        g.bench_function(BenchmarkId::new("higgs_field0_wide", n), |b| {
            b.iter(|| {
                let (l, r) = partition_rows(
                    black_box(&rows),
                    black_box(wide_mirror.column(0)),
                    rule,
                    false,
                    absent,
                );
                black_box((l.len(), r.len()))
            })
        });
    }
    g.finish();
}

fn bench_traversal(c: &mut Criterion) {
    let (data, mirror) = generate_binned(Benchmark::Higgs, 20_000, 1);
    let cfg = TrainConfig { num_trees: 20, max_depth: 6, ..Default::default() };
    let (model, _) = train(&data, &mirror, &cfg);
    let mut g = c.benchmark_group("step5_traversal");
    g.sample_size(10);
    g.throughput(Throughput::Elements((data.num_records() * model.num_trees()) as u64));
    g.bench_function("higgs_20trees", |b| {
        b.iter(|| black_box(model.predict_batch(black_box(&data))))
    });
    g.bench_function("higgs_20trees_parallel", |b| {
        b.iter(|| black_box(model.predict_batch_parallel(black_box(&data))))
    });

    // Step 5 proper — one new tree over every record, margins and
    // gradient pairs refreshed, loss folded — as the executors run it
    // (`lanes`: the lowered tree walked in lockstep lanes, then the
    // refresh per block) beside the per-record node walk fused with the
    // refresh that it replaced and is tested against (`node_walk`).
    let depth6 = TrainConfig { num_trees: 3, max_depth: 6, ..Default::default() };
    let skewed = TrainConfig {
        max_depth: 24,
        growth: GrowthStrategy::LeafWise { max_leaves: 64 },
        ..depth6.clone()
    };
    let cases = [
        ("flight", Benchmark::Flight, SCALES[0], &depth6),
        ("flight", Benchmark::Flight, SCALES[1], &depth6),
        ("allstate_wide", Benchmark::Allstate, SCALES[0], &depth6),
        ("leafwise_skewed", Benchmark::Higgs, SCALES[0], &skewed),
    ];
    for (name, bench, n, cfg) in cases {
        let (data, mirror) = generate_binned(bench, n, 1);
        let objective = default_objective(bench);
        let loss = objective.scalar_loss().expect("the benchmark objectives are per-record");
        let (model, _) = train(&data, &mirror, &TrainConfig { objective, ..cfg.clone() });
        let tree = model.trees.last().expect("three trees");
        let labels = data.labels();
        let mut margins = vec![0.0f64; n];
        let mut grads = vec![GradPair::zero(); n];
        g.throughput(Throughput::Elements(n as u64));
        g.bench_function(BenchmarkId::new(format!("{name}/node_walk"), n), |b| {
            b.iter(|| {
                margins.fill(model.base_score);
                let (mut sum_path, mut total) = (0u64, 0.0f64);
                for r in 0..n {
                    let (w, path) = tree.traverse_binned(black_box(&data), r);
                    sum_path += u64::from(path);
                    margins[r] += w;
                    let (gp, value) = loss.grad_value(margins[r], f64::from(labels[r]));
                    grads[r] = gp;
                    total += value;
                }
                black_box((sum_path, total))
            })
        });
        g.bench_function(BenchmarkId::new(format!("{name}/lanes"), n), |b| {
            b.iter(|| {
                margins.fill(model.base_score);
                black_box(SequentialExec.traverse_update(
                    black_box(&data),
                    tree,
                    loss,
                    labels,
                    &mut margins,
                    &mut grads,
                ))
            })
        });
    }
    g.finish();
}

/// The Step-1 wire codec (`booster_dist::lanes`) at the two bin counts
/// the ledger trains on — Higgs (7 168 bins: 28 numeric fields) and
/// Allstate (8 328, 4 232 of them one-hot) — in both modes: every bin occupied (a root's block,
/// shipped dense: three bulk lane copies) and one bin in five (a deep
/// vertex's, shipped sparse: bitmap + occupied entries). `encode` is
/// the producer's `from_lanes`; `decode` is the consumer's whole path,
/// validation and the scatter into its lanes. Throughput is in bytes
/// actually shipped, so the sparse rows read lower in MB/s and higher
/// in blocks/s.
fn bench_lane_block(c: &mut Criterion) {
    use booster_dist::LaneBlock;
    let mut g = c.benchmark_group("lane_block");
    g.sample_size(20);
    for bench in [Benchmark::Higgs, Benchmark::Allstate] {
        let nbins = generate_binned(bench, 20_000, 1).0.total_bins() as usize;
        for (mode, every) in [("dense", 1usize), ("sparse", 5)] {
            let occupied = |i: usize| i % every == 0;
            let grad: Vec<f64> =
                (0..nbins).map(|i| if occupied(i) { (i as f64).sin() } else { 0.0 }).collect();
            let hess: Vec<f64> =
                (0..nbins).map(|i| if occupied(i) { 1.0 + i as f64 } else { 0.0 }).collect();
            let count: Vec<u64> = (0..nbins).map(|i| u64::from(occupied(i)) * 3).collect();
            let block = LaneBlock::from_lanes(&grad, &hess, &count);
            assert_eq!(block.is_sparse(), mode == "sparse");
            let mut wire = Vec::new();
            block.encode_into(&mut wire);
            g.throughput(Throughput::Bytes(wire.len() as u64));
            g.bench_function(BenchmarkId::new(format!("{mode}/encode"), bench.name()), |b| {
                b.iter(|| {
                    black_box(LaneBlock::from_lanes(
                        black_box(&grad),
                        black_box(&hess),
                        black_box(&count),
                    ))
                })
            });
            let (mut g2, mut h2, mut c2) = (vec![0.0; nbins], vec![0.0; nbins], vec![0u64; nbins]);
            g.bench_function(BenchmarkId::new(format!("{mode}/decode"), bench.name()), |b| {
                b.iter(|| {
                    let mut cursor = black_box(&wire[..]);
                    let block = LaneBlock::decode_from(&mut cursor).expect("valid block");
                    block.scatter_into(&mut g2, &mut h2, &mut c2);
                    black_box(c2[0])
                })
            });
        }
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_histogram,
    bench_split_scan,
    bench_partition,
    bench_traversal,
    bench_lane_block
);
criterion_main!(benches);
