//! Closed-loop serving load harness: offered load × batching policy.
//!
//! Trains one ensemble, registers it in a `booster-serve` registry, and
//! sweeps windowed closed-loop client counts (each client keeps
//! `SERVE_WINDOW` requests in flight) against batching policies,
//! printing a throughput / tail-latency table — the serving-side
//! benchmark trajectory complementing the offline engine comparison in
//! `examples/batch_inference.rs`. A final phase hot-swaps a second
//! model generation under full load and verifies zero requests are
//! lost.
//!
//! The default workload is a wide, shallow serving ensemble (the
//! paper's IoT / Mq2008 ranking shape): thousands of depth-4 trees
//! whose program spans several MB, so per-request scoring
//! (`max_batch = 1`) re-streams the whole model through the cache
//! hierarchy for every single record, while a coalesced batch walks
//! each cluster's code across the whole batch while it is hot — the
//! cache-blocking advantage of the compiled kernel, which micro-batching
//! exists to feed, on top of amortized scheduler hops. At this scale
//! coalesced batching must reach ≥ 2x the throughput of per-request
//! scoring at equal or better p99 (asserted). Knobs: `SERVE_RECORDS`,
//! `SERVE_TREES`, `SERVE_DURATION_MS`, `SERVE_CLIENTS`
//! (comma-separated), `SERVE_SHARDS`, `SERVE_WINDOW`, and
//! `SERVE_SMOKE=1` (tiny scale, assertion off — used by CI).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use booster_bench::print_header;
use booster_datagen::{default_objective, generate, Benchmark};
use booster_gbdt::columnar::ColumnarMirror;
use booster_gbdt::dataset::RawValue;
use booster_gbdt::predict::Model;
use booster_gbdt::preprocess::BinnedDataset;
use booster_gbdt::train::{train, TrainConfig};
use booster_serve::{BatchPolicy, ModelRegistry, ServeConfig, ServeError, Server};

fn env_usize(key: &str, default: usize) -> usize {
    std::env::var(key).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

struct Scale {
    records: usize,
    trees: usize,
    duration: Duration,
    clients: Vec<usize>,
    shards: usize,
    window: usize,
    assert_win: bool,
}

fn scale_from_env() -> Scale {
    let smoke = std::env::var("SERVE_SMOKE").is_ok_and(|v| v == "1");
    let (records, trees, duration_ms, clients) =
        if smoke { (2_000, 10, 120, vec![1, 4]) } else { (8_000, 3000, 700, vec![1, 8, 32]) };
    let clients = match std::env::var("SERVE_CLIENTS") {
        Ok(v) => v.split(',').filter_map(|c| c.trim().parse().ok()).collect(),
        Err(_) => clients,
    };
    Scale {
        records: env_usize("SERVE_RECORDS", records),
        trees: env_usize("SERVE_TREES", trees),
        duration: Duration::from_millis(env_usize("SERVE_DURATION_MS", duration_ms) as u64),
        clients,
        shards: env_usize("SERVE_SHARDS", 1),
        window: env_usize("SERVE_WINDOW", 4).max(1),
        assert_win: !smoke,
    }
}

fn train_generation(data: &BinnedDataset, mirror: &ColumnarMirror, trees: usize) -> Model {
    let cfg = TrainConfig {
        num_trees: trees,
        max_depth: 4,
        objective: default_objective(Benchmark::Higgs),
        ..Default::default()
    };
    train(data, mirror, &cfg).0
}

struct CellResult {
    throughput: f64,
    p50: u64,
    p99: u64,
    p999: u64,
    rejected: u64,
    mean_batch: f64,
}

/// Run `clients` windowed closed-loop threads (each keeps up to
/// `scale.window` requests in flight on one reusable `ResponseSlot`)
/// against one policy for `scale.duration`.
fn run_cell(
    registry: &Arc<ModelRegistry>,
    records: &[Arc<[RawValue]>],
    policy: BatchPolicy,
    clients: usize,
    scale: &Scale,
    swap_to: Option<u64>,
) -> CellResult {
    let (window, duration) = (scale.window, scale.duration);
    let config = ServeConfig {
        policy,
        num_shards: scale.shards,
        queue_capacity: 4096,
        ..Default::default()
    };
    let server = Server::start(Arc::clone(registry), config).expect("valid config");
    let handle = server.handle();
    let stop = Arc::new(AtomicBool::new(false));
    let start_line = Arc::new(Barrier::new(clients + 1));
    let completed = Arc::new(AtomicU64::new(0));
    let elapsed = std::thread::scope(|s| {
        for c in 0..clients {
            let handle = handle.clone();
            let stop = Arc::clone(&stop);
            let start_line = Arc::clone(&start_line);
            let completed = Arc::clone(&completed);
            s.spawn(move || {
                // One response channel and Arc'd records per client:
                // the closed-loop hot path allocates nothing per
                // request.
                let slot = booster_serve::ResponseSlot::new();
                let mut inflight = 0usize;
                let mut done = 0u64;
                start_line.wait();
                let mut k = c; // stagger record streams across clients
                while !stop.load(Ordering::Relaxed) {
                    while inflight < window {
                        let rec = Arc::clone(&records[k % records.len()]);
                        match handle.submit_to(rec, None, slot.sender()) {
                            Ok(()) => {
                                inflight += 1;
                                k = k.wrapping_add(17);
                            }
                            // Closed-loop clients back off on admission
                            // rejection (the open question loadgen
                            // answers is steady-state throughput, not
                            // retry policy).
                            Err(ServeError::Overloaded) => {
                                std::thread::yield_now();
                                break;
                            }
                            Err(e) => panic!("serving failed: {e}"),
                        }
                    }
                    if inflight == 0 {
                        continue; // everything rejected: retry submits
                    }
                    // Block for one response, then drain whatever else
                    // already arrived (one wake-up can retire several).
                    slot.recv().expect("request answered");
                    done += 1;
                    inflight -= 1;
                    while let Some(r) = slot.try_recv() {
                        r.expect("request answered");
                        done += 1;
                        inflight -= 1;
                    }
                }
                while inflight > 0 {
                    slot.recv().expect("request answered");
                    done += 1;
                    inflight -= 1;
                }
                completed.fetch_add(done, Ordering::Relaxed);
            });
        }
        start_line.wait();
        let t0 = Instant::now();
        if let Some(version) = swap_to {
            std::thread::sleep(duration / 2);
            registry.activate(version).expect("swap target registered");
            std::thread::sleep(duration - duration / 2);
        } else {
            std::thread::sleep(duration);
        }
        stop.store(true, Ordering::Relaxed);
        t0.elapsed()
    });
    handle.drain();
    let stats = server.shutdown();
    assert_eq!(stats.completed + stats.failed, stats.accepted, "requests lost");
    assert_eq!(stats.failed, 0, "no request may fail under load");
    CellResult {
        throughput: stats.completed as f64 / elapsed.as_secs_f64(),
        p50: stats.latency.quantile(0.5),
        p99: stats.latency.quantile(0.99),
        p999: stats.latency.quantile(0.999),
        rejected: stats.rejected,
        mean_batch: stats.batch_sizes.mean(),
    }
}

fn main() {
    print_header(
        "serve_loadgen: closed-loop micro-batching benchmark",
        "serving-layer trajectory — coalesced batching vs per-request scoring \
         (target: ≥ 2x throughput at equal or better p99), plus a zero-loss \
         hot-swap under load",
    );
    let scale = scale_from_env();
    println!(
        "workload: Higgs x {} records, {} trees (v2: {} trees), {} shard(s), \
         client window {}, {:?} per cell\n",
        scale.records,
        scale.trees,
        scale.trees + scale.trees / 4,
        scale.shards,
        scale.window,
        scale.duration
    );

    // Train two model generations over one schema.
    let ds = generate(Benchmark::Higgs, scale.records, 1);
    let data = BinnedDataset::from_dataset(&ds);
    let mirror = ColumnarMirror::from_binned(&data);
    let model_v1 = train_generation(&data, &mirror, scale.trees);
    let model_v2 = train_generation(&data, &mirror, scale.trees + scale.trees / 4);
    let records: Vec<Arc<[RawValue]>> = (0..ds.num_records().min(4096))
        .map(|r| (0..ds.num_fields()).map(|f| ds.value(r, f)).collect())
        .collect();
    let registry = Arc::new(ModelRegistry::new());
    let v1 = registry.register(&model_v1).expect("register v1");
    let v2 = registry.register(&model_v2).expect("register v2");
    assert_eq!(registry.active_version(), Some(v1));

    // Three points on the policy spectrum: no coalescing at all;
    // adaptive coalescing (max_delay 0 dispatches whatever is already
    // queued — batches form exactly when the pipeline is busy); and a
    // deadline policy that waits up to 200µs to fill medium batches.
    let policies = [
        ("per-request", BatchPolicy { max_batch: 1, max_delay: Duration::ZERO }),
        ("adaptive≤64", BatchPolicy { max_batch: 64, max_delay: Duration::ZERO }),
        ("batch≤32/200µs", BatchPolicy { max_batch: 32, max_delay: Duration::from_micros(200) }),
    ];
    println!(
        "{:<16} {:>8} {:>12} {:>9} {:>9} {:>9} {:>10} {:>9}",
        "policy", "clients", "req/s", "p50 µs", "p99 µs", "p999 µs", "mean batch", "rejected"
    );
    let mut results: Vec<(usize, usize, CellResult)> = Vec::new();
    for (p, (name, policy)) in policies.iter().enumerate() {
        for &clients in &scale.clients {
            let cell = run_cell(&registry, &records, *policy, clients, &scale, None);
            println!(
                "{:<16} {:>8} {:>12.0} {:>9} {:>9} {:>9} {:>10.1} {:>9}",
                name,
                clients,
                cell.throughput,
                cell.p50,
                cell.p99,
                cell.p999,
                cell.mean_batch,
                cell.rejected
            );
            results.push((p, clients, cell));
        }
    }

    // The headline comparison: best coalesced policy vs per-request
    // scoring at the highest offered load.
    let top_clients = *scale.clients.iter().max().expect("at least one client count");
    let baseline =
        results.iter().find(|(p, c, _)| *p == 0 && *c == top_clients).expect("baseline cell ran");
    let best = results
        .iter()
        .filter(|(p, c, _)| *p > 0 && *c == top_clients)
        .max_by(|a, b| a.2.throughput.total_cmp(&b.2.throughput))
        .expect("batched cell ran");
    let speedup = best.2.throughput / baseline.2.throughput;
    println!(
        "\nmicro-batching at {} clients: {:.2}x throughput vs per-request \
         (p99 {} µs vs {} µs)",
        top_clients, speedup, best.2.p99, baseline.2.p99
    );
    if scale.assert_win {
        assert!(
            speedup >= 2.0,
            "micro-batching must reach ≥ 2x per-request throughput (got {speedup:.2}x)"
        );
        assert!(
            best.2.p99 <= baseline.2.p99,
            "micro-batching p99 ({} µs) must not exceed per-request p99 ({} µs)",
            best.2.p99,
            baseline.2.p99
        );
    }

    // Hot-swap under full load: v1 → v2 mid-cell, zero requests lost
    // (the run_cell accounting asserts completed + failed == accepted
    // and failed == 0). The earlier sweep cells already served on v1
    // through this registry, so assert on per-version *deltas* across
    // the swap cell, not cumulative counts.
    let before = registry.snapshot();
    let cell = run_cell(&registry, &records, policies[2].1, top_clients, &scale, Some(v2));
    let after = registry.snapshot();
    let served: Vec<(u64, u64)> =
        after.versions.iter().map(|v| (v.version, v.served - before.served(v.version))).collect();
    println!(
        "\nhot-swap under load ({} clients, {:.0} req/s): zero lost; served this phase: {:?}",
        top_clients, cell.throughput, served
    );
    assert_eq!(after.active_version, Some(v2));
    assert!(
        served.iter().all(|&(_, n)| n > 0),
        "both versions must have served traffic across the swap"
    );
}
