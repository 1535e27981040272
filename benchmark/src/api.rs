//! Every call into the crates under test lives in this file, so a
//! refactor of the stack has one place to follow. Only public functions
//! the ROADMAP expects to survive are used: `BinnedDataset::from_dataset`,
//! `ColumnarMirror::from_binned`, `train`, `train_with` +
//! `ParallelExec::default()`, `FlatEnsemble::from_model(..).compiled()`,
//! `Model::predict_batch`/`predict_raw` as oracle, `Predictor`,
//! `ModelRegistry`/`Server`/`TcpFrontend`/`TcpScoreClient` with
//! `ServeConfig::default()`, and `train_distributed` over `TcpComm` /
//! `ChannelComm`. The per-layer wrappers (`TimedExec`, `TimedComm`) are
//! here too: they time the crates from outside, never by editing them.

use std::net::{SocketAddr, TcpListener};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use booster_datagen::{default_objective, Benchmark};
use booster_dist::proto::{Msg, OP_BUILD_HIST, OP_HIST_DONE};
use booster_dist::{
    serve_worker_tcp, train_distributed, ChannelComm, Comm, CommStats, DistError, ShardPlan,
    TcpComm,
};
use booster_gbdt::columnar::{ColumnRef, ColumnarMirror};
use booster_gbdt::gradients::{GradPair, Loss};
use booster_gbdt::histogram::NodeHistogram;
use booster_gbdt::infer::{FlatEnsemble, Predictor};
use booster_gbdt::parallel::ParallelExec;
use booster_gbdt::preprocess::{BinMatrix, BinnedDataset};
use booster_gbdt::serialize::{model_from_bytes, model_to_bytes};
use booster_gbdt::split::{find_best_split, SplitRule};
use booster_gbdt::train::{train, train_with, SequentialExec, StepExecutor, TrainConfig};
use booster_gbdt::tree::Tree;
use booster_serve::frame::{
    decode_request, decode_response, encode_request, encode_response, WireRequest,
};
use booster_serve::{
    ModelRegistry, ResponseSlot, ScoreResponse, ServeConfig, ServeError, ServeHandle, Server,
    TcpFrontend, TcpScoreClient,
};

pub use booster_gbdt::dataset::{Dataset, RawValue};
pub use booster_gbdt::predict::Model;

use crate::measure::{micro, timed};
use crate::placement;
use crate::spec::Family;
use crate::trace::Recorder;

/// One raw record as the serving layer takes it.
pub type Record = Arc<[RawValue]>;

const DIST_TIMEOUT: Duration = Duration::from_secs(60);

// ---------------------------------------------------------------------
// Data: datagen -> binned rows + columnar mirror
// ---------------------------------------------------------------------

fn benchmark_of(family: Family) -> Benchmark {
    match family {
        Family::Higgs => Benchmark::Higgs,
        Family::Flight => Benchmark::Flight,
        Family::Allstate => Benchmark::Allstate,
    }
}

/// The generator seed of every workload's population. It is a constant:
/// the Allstate and Flight generators draw their per-category effects from
/// the seed, and those few numbers decide how full the trees grow (the
/// wire bytes of `allstate_dist` ranged 1 316-1 535 MB over seeds), so a
/// run's `--seed` draws the *sample* of this population instead.
const POPULATION_SEED: u64 = 11;

/// The fixed population a workload's records are drawn from.
pub fn generate(family: Family, records: usize) -> Dataset {
    booster_datagen::generate(benchmark_of(family), records, POPULATION_SEED)
}

/// The records of `ds` that `keep` says yes to, in their order.
pub fn sample(ds: &Dataset, size: usize, mut keep: impl FnMut(usize) -> bool) -> Dataset {
    let mut out = Dataset::with_capacity(ds.schema().clone(), size);
    let mut row = Vec::with_capacity(ds.num_fields());
    for r in (0..ds.num_records()).filter(|&r| keep(r)) {
        row.clear();
        row.extend((0..ds.num_fields()).map(|f| ds.value(r, f)));
        out.push_record(&row, ds.labels()[r]);
    }
    out
}

/// The first `n` records in raw form, for the serving phases.
pub fn raw_records(ds: &Dataset, n: usize) -> Vec<Record> {
    (0..ds.num_records().min(n))
        .map(|r| (0..ds.num_fields()).map(|f| ds.value(r, f)).collect())
        .collect()
}

/// A training set in the two layouts the trainer reads.
pub struct Binned {
    pub rows: BinnedDataset,
    pub cols: ColumnarMirror,
}

impl Binned {
    pub fn num_records(&self) -> usize {
        self.rows.num_records()
    }

    /// Bytes held by the row matrix, the mirror columns and the labels.
    pub fn bytes(&self) -> usize {
        let n = self.rows.num_records();
        let matrix = match self.rows.matrix() {
            BinMatrix::Packed(m) => m.len(),
            BinMatrix::Wide(m) => m.len() * 4,
        };
        let cols: usize = (0..self.cols.num_fields())
            .map(|f| if self.cols.is_packed(f) { n } else { n * 4 })
            .sum();
        matrix + cols + n * 4
    }
}

pub fn bin_rows(ds: &Dataset) -> BinnedDataset {
    BinnedDataset::from_dataset(ds)
}

pub fn mirror(rows: &BinnedDataset) -> ColumnarMirror {
    ColumnarMirror::from_binned(rows)
}

pub fn bin(ds: &Dataset) -> Binned {
    let rows = bin_rows(ds);
    let cols = mirror(&rows);
    Binned { rows, cols }
}

// ---------------------------------------------------------------------
// Training
// ---------------------------------------------------------------------

pub struct Config(TrainConfig);

impl Config {
    pub fn new(family: Family, trees: usize) -> Config {
        Config(TrainConfig {
            num_trees: trees,
            max_depth: 6,
            objective: default_objective(benchmark_of(family)),
            ..Default::default()
        })
    }

    pub fn trees(&self) -> usize {
        self.0.num_trees
    }
}

/// What a training run leaves behind, reduced to what the benchmark checks.
pub struct Trained {
    pub model: Model,
    pub loss_history: Vec<f64>,
    /// `[step1_updates, step3_records, step5_lookups]`, deterministic.
    pub work: [u64; 3],
}

impl Trained {
    pub fn num_trees(&self) -> usize {
        self.model.trees.len()
    }
}

fn trained((model, report): (Model, booster_gbdt::train::TrainReport)) -> Trained {
    let w = report.work;
    Trained {
        model,
        loss_history: report.loss_history,
        work: [w.step1_updates, w.step3_records, w.step5_lookups],
    }
}

pub fn train_seq(data: &Binned, cfg: &Config) -> Trained {
    trained(train(&data.rows, &data.cols, &cfg.0))
}

pub fn same_trees(a: &Model, b: &Model) -> bool {
    a.trees == b.trees && a.base_score.to_bits() == b.base_score.to_bits()
}

pub fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

pub fn model_nodes(model: &Model) -> u64 {
    model.trees.iter().map(|t| t.num_nodes() as u64).sum()
}

/// Busy time, calls and work of one training step across a run.
#[derive(Debug, Clone, Copy, Default)]
pub struct StepTotals {
    pub busy: Duration,
    pub calls: u64,
    /// Step 1: histogram updates; Step 3: rows; Step 5: records.
    pub work: u64,
    /// Step 5 only: tree-table lookups (sum of path lengths).
    pub lookups: u64,
}

/// Steps 1/3/5 of one traced training run plus its wall time; what is
/// left of the wall is the grow engine's own time (Step 2 + bookkeeping).
#[derive(Debug, Clone, Copy, Default)]
pub struct StepProfile {
    pub hist: StepTotals,
    pub part: StepTotals,
    pub trav: StepTotals,
    pub wall: Duration,
}

impl StepProfile {
    pub fn self_time(&self) -> Duration {
        self.wall.saturating_sub(self.hist.busy + self.part.busy + self.trav.busy)
    }
}

struct ExecState {
    profile: StepProfile,
    tree_id: u64,
    tree_start: Instant,
}

/// Delegating `StepExecutor` that records one span per call (parent =
/// the tree being built) and the work counts the calls return. A tree's
/// span runs from the end of the previous Step 5 to the end of its own.
struct TimedExec<'a, E: StepExecutor> {
    inner: E,
    rec: &'a Recorder,
    train_id: u64,
    state: Mutex<ExecState>,
}

impl<E: StepExecutor> TimedExec<'_, E> {
    /// Book one finished call: add it to its step's totals, record its
    /// span under the current tree, and - after Step 5, which ends a
    /// tree - close that tree's span and open the next.
    fn note(
        &self,
        name: &'static str,
        step: fn(&mut StepProfile) -> &mut StepTotals,
        start: Instant,
        work: u64,
        lookups: Option<u64>,
    ) {
        let end = Instant::now();
        let mut st = self.state.lock().expect("exec state lock poisoned");
        let totals = step(&mut st.profile);
        totals.busy += end - start;
        totals.calls += 1;
        totals.work += work;
        totals.lookups += lookups.unwrap_or(0);
        self.rec.record(name, self.rec.alloc_id(), st.tree_id, start, end, work);
        if lookups.is_some() {
            self.rec.record("gbdt.grow.tree", st.tree_id, self.train_id, st.tree_start, end, 0);
            st.tree_id = self.rec.alloc_id();
            st.tree_start = end;
        }
    }
}

impl<E: StepExecutor> StepExecutor for TimedExec<'_, E> {
    fn bin_records(
        &self,
        data: &BinnedDataset,
        columnar: &ColumnarMirror,
        rows: &[u32],
        grads: &[GradPair],
        hist: &mut NodeHistogram,
    ) -> u64 {
        let t0 = Instant::now();
        let updates = self.inner.bin_records(data, columnar, rows, grads, hist);
        self.note("gbdt.histogram.call", |p| &mut p.hist, t0, updates, None);
        updates
    }

    fn partition(
        &self,
        rows: &[u32],
        column: ColumnRef<'_>,
        field: usize,
        rule: SplitRule,
        default_left: bool,
        absent_bin: u32,
    ) -> (Vec<u32>, Vec<u32>) {
        let t0 = Instant::now();
        let halves = self.inner.partition(rows, column, field, rule, default_left, absent_bin);
        self.note("gbdt.partition.call", |p| &mut p.part, t0, rows.len() as u64, None);
        halves
    }

    fn traverse_update(
        &self,
        data: &BinnedDataset,
        tree: &Tree,
        loss: Loss,
        labels: &[f32],
        margins: &mut [f64],
        grads: &mut [GradPair],
    ) -> (u64, f64) {
        let t0 = Instant::now();
        let (lookups, total) = self.inner.traverse_update(data, tree, loss, labels, margins, grads);
        let records = data.num_records() as u64;
        self.note("gbdt.traverse.call", |p| &mut p.trav, t0, records, Some(lookups));
        (lookups, total)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    Sequential,
    Parallel,
}

fn train_timed<E: StepExecutor>(
    data: &Binned,
    cfg: &Config,
    inner: E,
    rec: &Recorder,
) -> (Trained, StepProfile) {
    let train_id = rec.alloc_id();
    let t0 = Instant::now();
    let exec = TimedExec {
        inner,
        rec,
        train_id,
        state: Mutex::new(ExecState {
            profile: StepProfile::default(),
            tree_id: rec.alloc_id(),
            tree_start: t0,
        }),
    };
    let out = train_with(&data.rows, &data.cols, &cfg.0, &exec);
    let end = Instant::now();
    rec.record("gbdt.grow.train", train_id, 0, t0, end, cfg.trees() as u64);
    let mut profile = exec.state.into_inner().expect("exec state lock poisoned").profile;
    profile.wall = end - t0;
    (trained(out), profile)
}

/// One training run through the `TimedExec` wrapper.
pub fn train_traced(
    data: &Binned,
    cfg: &Config,
    backend: Backend,
    rec: &Recorder,
) -> (Trained, StepProfile) {
    match backend {
        Backend::Sequential => train_timed(data, cfg, SequentialExec, rec),
        Backend::Parallel => train_timed(data, cfg, ParallelExec::default(), rec),
    }
}

/// Step 2 alone: seconds for `find_best_split` over the root histogram,
/// and the bins it scans.
pub fn root_split_scan(data: &Binned, cfg: &Config) -> (f64, u64) {
    let loss = cfg.0.objective.scalar_loss().expect("benchmark objectives are scalar");
    let labels = data.rows.labels();
    let mean = labels.iter().map(|&y| f64::from(y)).sum::<f64>() / labels.len() as f64;
    let base = loss.base_score(mean);
    let grads: Vec<GradPair> = labels.iter().map(|&y| loss.grad(base, f64::from(y))).collect();
    let rows: Vec<u32> = (0..labels.len() as u32).collect();
    let mut hist = NodeHistogram::zeroed(&data.rows);
    SequentialExec.bin_records(&data.rows, &data.cols, &rows, &grads, &mut hist);
    let mut bins = 0;
    let secs = micro(9, 3, || {
        let (split, scanned) = find_best_split(&hist, data.rows.binnings(), &cfg.0.split, None);
        bins = scanned;
        std::hint::black_box(split);
    });
    (secs, bins)
}

// ---------------------------------------------------------------------
// Model -> servable, batch scoring
// ---------------------------------------------------------------------

/// The compiled batch engine, lowered and compiled ahead of scoring.
pub struct Scorer(FlatEnsemble);

impl Scorer {
    pub fn new(model: &Model) -> Scorer {
        let flat = FlatEnsemble::from_model(model).expect("depth-6 trees lower");
        let _ = flat.compiled();
        Scorer(flat)
    }

    pub fn score(&self, data: &Binned) -> Vec<f64> {
        self.0.compiled().predict_batch(&data.rows)
    }

    pub fn program_bytes(&self) -> usize {
        self.0.compiled().byte_size()
    }

    pub fn clusters(&self) -> usize {
        self.0.compiled().num_clusters()
    }
}

/// The deliberately simple node walk the differential rail compares against.
pub fn oracle_scores(model: &Model, data: &Binned) -> Vec<f64> {
    model.predict_batch(&data.rows)
}

pub fn oracle_one(model: &Model, record: &[RawValue]) -> u64 {
    model.predict_raw(record).to_bits()
}

/// Model -> servable: lower, compile, and install in a fresh registry.
pub fn register_fresh(model: &Model) -> bool {
    ModelRegistry::new().register(model).is_ok()
}

/// Seconds of `FlatEnsemble::from_model` and of the first `compiled()`.
pub fn lower_and_compile(model: &Model) -> (f64, f64) {
    let (lower_s, flat) = timed(|| FlatEnsemble::from_model(model).expect("depth-6 trees lower"));
    let (compile_s, _) = timed(|| {
        let _ = flat.compiled();
    });
    (lower_s, compile_s)
}

/// Seconds to serialize and to parse the model, and its size in bytes.
pub fn serialize_round_trip(model: &Model) -> (f64, f64, usize, bool) {
    let (to_s, bytes) = timed(|| model_to_bytes(model));
    let (from_s, back) = timed(|| model_from_bytes(&bytes));
    let same = back.as_ref().is_ok_and(|m| same_trees(m, model));
    (to_s, from_s, bytes.len(), same)
}

/// Direct single-record scoring (raw -> bin -> score), no scheduler.
pub struct Direct(Predictor);

impl Direct {
    pub fn new(model: &Model) -> Direct {
        Direct(Predictor::from_model(model).expect("depth-6 trees lower"))
    }

    pub fn predict(&mut self, record: &[RawValue]) -> u64 {
        self.0.predict_one(record).to_bits()
    }
}

// ---------------------------------------------------------------------
// Serving: registry + scheduler + TCP front-end, default config
// ---------------------------------------------------------------------

pub struct ServeTotals {
    pub accepted: u64,
    pub completed: u64,
    pub failed: u64,
    pub rejected: u64,
    pub mean_batch: f64,
}

pub struct ServeStack {
    server: Server,
    frontend: TcpFrontend,
}

impl ServeStack {
    /// Every thread of the stack runs on the first CPU, leaving the second
    /// to the load generator (see `placement`): the threads are spawned
    /// while the calling thread is pinned there, and inherit its mask.
    pub fn start(model: &Model) -> ServeStack {
        placement::pinned(0, || ServeStack::start_here(model))
    }

    fn start_here(model: &Model) -> ServeStack {
        let registry = Arc::new(ModelRegistry::new());
        registry.register(model).expect("model registers");
        let server = Server::start(registry, ServeConfig::default()).expect("default config");
        let frontend =
            TcpFrontend::bind("127.0.0.1:0", server.handle()).expect("bind loopback port");
        ServeStack { server, frontend }
    }

    pub fn addr(&self) -> SocketAddr {
        self.frontend.local_addr()
    }

    pub fn inproc_client(&self) -> InprocClient {
        InprocClient { handle: self.server.handle(), slot: ResponseSlot::new() }
    }

    /// Drain, stop both layers and return the scheduler's final counters.
    pub fn shutdown(self) -> ServeTotals {
        self.server.handle().drain();
        self.frontend.shutdown();
        let stats = self.server.shutdown();
        ServeTotals {
            accepted: stats.accepted,
            completed: stats.completed,
            failed: stats.failed,
            rejected: stats.rejected,
            mean_batch: stats.batch_sizes.mean(),
        }
    }
}

/// One blocking TCP connection, one request in flight.
pub struct TcpClient(TcpScoreClient);

impl TcpClient {
    pub fn connect(addr: SocketAddr) -> Option<TcpClient> {
        TcpScoreClient::connect(addr).ok().map(TcpClient)
    }

    /// Prediction bits, or `None` for a transport failure or a refusal.
    pub fn score(&mut self, record: &[RawValue]) -> Option<u64> {
        match self.0.score(record, None) {
            Ok(Ok(resp)) => Some(resp.prediction().to_bits()),
            _ => None,
        }
    }
}

pub enum Submit {
    Accepted,
    Overloaded,
    Failed,
}

/// In-process client with one reusable response channel; several
/// requests may be in flight on it.
pub struct InprocClient {
    handle: ServeHandle,
    slot: ResponseSlot,
}

fn response_bits(r: Result<ScoreResponse, ServeError>) -> Option<u64> {
    r.ok().map(|resp| resp.prediction().to_bits())
}

impl InprocClient {
    pub fn submit(&self, record: Record) -> Submit {
        match self.handle.submit_to(record, None, self.slot.sender()) {
            Ok(()) => Submit::Accepted,
            Err(ServeError::Overloaded) => Submit::Overloaded,
            Err(_) => Submit::Failed,
        }
    }

    /// Block for the next response on this client's channel.
    pub fn recv(&self) -> Option<u64> {
        response_bits(self.slot.recv())
    }

    /// A response that already arrived, if any.
    pub fn try_recv(&self) -> Option<Option<u64>> {
        self.slot.try_recv().map(response_bits)
    }
}

/// Seconds per call of the four frame codec halves, and the request size.
pub struct FrameCosts {
    pub encode_request: f64,
    pub decode_request: f64,
    pub encode_response: f64,
    pub decode_response: f64,
    pub request_bytes: usize,
}

pub fn frame_codec(record: &[RawValue]) -> FrameCosts {
    let req = WireRequest { id: 7, pin: None, features: record.to_vec() };
    let req_bytes = encode_request(&req);
    let resp: Result<ScoreResponse, ServeError> =
        Ok(ScoreResponse { outputs: vec![0.5], version: 1, batch_size: 1, latency_micros: 1 });
    let resp_bytes = encode_response(7, &resp);
    let bb = std::hint::black_box::<&[u8]>;
    FrameCosts {
        encode_request: micro(9, 2_000, || {
            std::hint::black_box(encode_request(std::hint::black_box(&req)));
        }),
        decode_request: micro(9, 2_000, || {
            let _ = std::hint::black_box(decode_request(bb(&req_bytes)));
        }),
        encode_response: micro(9, 2_000, || {
            std::hint::black_box(encode_response(7, std::hint::black_box(&resp)));
        }),
        decode_response: micro(9, 2_000, || {
            let _ = std::hint::black_box(decode_response(bb(&resp_bytes)));
        }),
        request_bytes: req_bytes.len(),
    }
}

// ---------------------------------------------------------------------
// Distributed training
// ---------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transport {
    /// `TcpComm` to `serve_worker_tcp` threads on 127.0.0.1.
    Tcp,
    /// `ChannelComm` worker threads.
    Channel,
}

/// What the coordinator's edge of the transport saw, by op byte.
#[derive(Debug, Clone, Default)]
pub struct CommTimes {
    pub send: Duration,
    pub recv_wait: Duration,
    pub frames: u64,
    pub bytes_build_hist: u64,
    pub bytes_other: u64,
    /// The largest Step-1 frame seen, kept for the codec microbench.
    pub hist_frame: Vec<u8>,
}

/// Delegating `Comm` that times every send and every receive wait and
/// records one span per frame under the run's span.
struct TimedComm<'a, C: Comm> {
    inner: C,
    times: Arc<Mutex<CommTimes>>,
    rec: &'a Recorder,
    run_id: u64,
}

impl<C: Comm> TimedComm<'_, C> {
    fn note(&self, name: &'static str, start: Instant, payload: &[u8], sent: bool) {
        let end = Instant::now();
        let mut t = self.times.lock().expect("comm times lock poisoned");
        if sent {
            t.send += end - start;
        } else {
            t.recv_wait += end - start;
        }
        t.frames += 1;
        let op = payload.first().copied().unwrap_or(0);
        if op == OP_BUILD_HIST || op == OP_HIST_DONE {
            t.bytes_build_hist += payload.len() as u64;
            if op == OP_BUILD_HIST && payload.len() > t.hist_frame.len() {
                t.hist_frame = payload.to_vec();
            }
        } else {
            t.bytes_other += payload.len() as u64;
        }
        self.rec.record(name, self.rec.alloc_id(), self.run_id, start, end, payload.len() as u64);
    }
}

impl<C: Comm> Comm for TimedComm<'_, C> {
    fn num_workers(&self) -> usize {
        self.inner.num_workers()
    }

    fn send(&mut self, worker: usize, payload: &[u8]) -> Result<(), DistError> {
        let t0 = Instant::now();
        let r = self.inner.send(worker, payload);
        self.note("dist.comm.send", t0, payload, true);
        r
    }

    fn recv(&mut self, worker: usize) -> Result<Vec<u8>, DistError> {
        let t0 = Instant::now();
        let r = self.inner.recv(worker);
        if let Ok(payload) = &r {
            self.note("dist.comm.recv", t0, payload, false);
        }
        r
    }

    fn stats(&self) -> &CommStats {
        self.inner.stats()
    }
}

pub struct DistRun {
    pub trained: Trained,
    pub wire_bytes: u64,
    /// `ShardPlan::shard` alone.
    pub shard_seconds: f64,
    /// Spawn + shard + connect + train + tear-down.
    pub seconds: f64,
    /// Present when the run went through `TimedComm`.
    pub comm: Option<CommTimes>,
}

fn drive<C: Comm + Send>(
    data: &Binned,
    cfg: &Config,
    plan: &ShardPlan,
    comm: C,
    rec: Option<&Recorder>,
) -> Result<(Trained, u64, Option<CommTimes>), DistError> {
    let Some(rec) = rec else {
        let out = train_distributed(&data.rows, &data.cols, &cfg.0, comm, plan)?;
        return Ok((trained((out.model, out.report)), out.stats.summary().wire_bytes, None));
    };
    let times = Arc::new(Mutex::new(CommTimes::default()));
    let run_id = rec.alloc_id();
    let t0 = Instant::now();
    let timed_comm = TimedComm { inner: comm, times: Arc::clone(&times), rec, run_id };
    let out = train_distributed(&data.rows, &data.cols, &cfg.0, timed_comm, plan)?;
    rec.record("dist.coordinator.run", run_id, 0, t0, Instant::now(), cfg.trees() as u64);
    let times = times.lock().expect("comm times lock poisoned").clone();
    Ok((trained((out.model, out.report)), out.stats.summary().wire_bytes, Some(times)))
}

/// Train `cfg` across `workers` contiguous shards. With `rec` the
/// transport is wrapped in `TimedComm`; end-to-end numbers pass `None`.
pub fn dist_train(
    data: &Binned,
    cfg: &Config,
    workers: usize,
    transport: Transport,
    rec: Option<&Recorder>,
) -> Result<DistRun, String> {
    let t0 = Instant::now();
    let plan = ShardPlan::even(data.num_records(), workers);
    let (shard_seconds, shards) = timed(|| plan.shard(&data.rows));
    let shards = shards.map_err(|e| e.to_string())?;
    let (trained, wire_bytes, comm) = match transport {
        Transport::Channel => {
            drive(data, cfg, &plan, ChannelComm::spawn(shards, DIST_TIMEOUT), rec)
                .map_err(|e| e.to_string())?
        }
        // One CPU for the coordinator and every worker, which inherit it
        // (see `placement`): the chain hands one frame on at a time.
        Transport::Tcp => placement::pinned(0, || {
            let mut addrs = Vec::with_capacity(workers);
            let mut handles = Vec::with_capacity(workers);
            for shard in shards {
                let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
                addrs.push(listener.local_addr().map_err(|e| e.to_string())?);
                handles.push(std::thread::spawn(move || serve_worker_tcp(shard, listener)));
            }
            let comm = TcpComm::connect(&addrs, DIST_TIMEOUT).map_err(|e| e.to_string())?;
            let out = drive(data, cfg, &plan, comm, rec).map_err(|e| e.to_string())?;
            for h in handles {
                h.join()
                    .map_err(|_| "dist worker panicked".to_string())?
                    .map_err(|e| e.to_string())?;
            }
            Ok::<_, String>(out)
        })?,
    };
    Ok(DistRun { trained, wire_bytes, shard_seconds, seconds: t0.elapsed().as_secs_f64(), comm })
}

/// Seconds to decode and to re-encode one captured Step-1 frame.
pub fn proto_codec(frame: &[u8]) -> Option<(f64, f64)> {
    let msg = Msg::decode(frame).ok()?;
    let decode = micro(5, 20, || {
        let _ = std::hint::black_box(Msg::decode(std::hint::black_box(frame)));
    });
    let encode = micro(5, 20, || {
        std::hint::black_box(std::hint::black_box(&msg).encode());
    });
    Some((encode, decode))
}
