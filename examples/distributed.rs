//! Distributed data-parallel training: shard a dataset across two
//! worker processes' worth of state behind localhost TCP, train through
//! the coordinator's unchanged growth engine, verify the model is
//! **bit-identical** to local training, then serve it through the
//! scoring service — the full train-anywhere/serve-anywhere loop.
//!
//! Run with: `cargo run --release --example distributed`

use std::net::TcpListener;
use std::sync::Arc;
use std::time::Duration;

use booster_repro::datagen::{default_objective, generate, Benchmark};
use booster_repro::dist::{serve_worker_tcp, train_distributed, ShardPlan, TcpComm};
use booster_repro::gbdt::prelude::*;
use booster_repro::serve::{ModelRegistry, ServeConfig, Server, TcpFrontend, TcpScoreClient};

fn main() {
    // --- One dataset, one config. ----------------------------------------
    let ds = generate(Benchmark::Flight, 8_000, 42);
    let data = BinnedDataset::from_dataset(&ds);
    let mirror = ColumnarMirror::from_binned(&data);
    let cfg = TrainConfig {
        num_trees: 12,
        max_depth: 5,
        subsample: 0.9,
        objective: default_objective(Benchmark::Flight),
        ..Default::default()
    };

    // --- Local reference run. ---------------------------------------------
    let (local_model, local_report) = train(&data, &mirror, &cfg);

    // --- The same run, sharded across two TCP workers. ----------------------
    let workers = 2;
    let plan = ShardPlan::even(data.num_records(), workers);
    let shards = plan.shard(&data).expect("plan covers the dataset");
    let mut addrs = Vec::new();
    let mut handles = Vec::new();
    for (k, shard) in shards.into_iter().enumerate() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind worker");
        let addr = listener.local_addr().expect("local addr");
        println!("worker {k}: {} records on {addr}", plan.range(k).len());
        addrs.push(addr);
        handles.push(std::thread::spawn(move || serve_worker_tcp(shard, listener)));
    }
    let comm = TcpComm::connect(&addrs, Duration::from_secs(30)).expect("connect workers");
    let out = train_distributed(&data, &mirror, &cfg, comm, &plan).expect("distributed train");
    for h in handles {
        h.join().expect("worker thread").expect("worker exits cleanly");
    }

    // --- The determinism contract, checked on real bits. --------------------
    assert_eq!(
        local_model.trees, out.model.trees,
        "distributed trees must be bit-identical to local"
    );
    assert_eq!(
        local_report.loss_history.iter().map(|l| l.to_bits()).collect::<Vec<_>>(),
        out.report.loss_history.iter().map(|l| l.to_bits()).collect::<Vec<_>>(),
        "loss history must be bit-identical too"
    );
    let summary = out.stats.summary();
    println!(
        "distributed == local: {} trees, {} loss entries, bit for bit",
        out.model.trees.len(),
        out.report.loss_history.len()
    );
    println!(
        "wire traffic: {} frames, {} bytes across {} histogram builds and {} totals-only exchanges",
        summary.frames, summary.wire_bytes, summary.hist_builds, summary.vertex_totals
    );

    // --- Serve the distributed-trained model over TCP. ----------------------
    let registry = Arc::new(ModelRegistry::new());
    registry.register(&out.model).expect("model registers");
    let server = Server::start(Arc::clone(&registry), ServeConfig::default()).expect("server");
    let frontend = TcpFrontend::bind("127.0.0.1:0", server.handle()).expect("bind frontend");
    let mut client = TcpScoreClient::connect(frontend.local_addr()).expect("connect client");
    let record: Arc<[RawValue]> = (0..ds.num_fields()).map(|f| ds.value(17, f)).collect();
    let got = client.score(&record, None).expect("transport").expect("scored");
    assert_eq!(
        got.prediction().to_bits(),
        local_model.predict_raw(&record).to_bits(),
        "served prediction matches the local model exactly"
    );
    println!(
        "served distributed-trained model on {}: prediction {:.4}",
        frontend.local_addr(),
        got.prediction()
    );
    frontend.shutdown();
    server.shutdown();
    println!("done");
}
