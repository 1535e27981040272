//! Micro-batching scheduler: single-record requests in, cache-blocked
//! [`FlatEnsemble`](booster_gbdt::infer::FlatEnsemble) batches out.
//!
//! ```text
//!  clients ──try_send──▶ bounded ingress queue ──▶ batcher thread
//!   (Overloaded when full)                      (coalesce ≤ max_batch,
//!                                                flush at max_delay)
//!                                                      │ round-robin
//!                              ┌───────────────────────┼──────────┐
//!                              ▼                       ▼          ▼
//!                        shard worker 0          shard worker 1  ...
//!                     (per-worker scratch: bins matrix + margin
//!                      buffer, reused across batches; version
//!                      resolution via the registry epoch cache)
//! ```
//!
//! Every queue is bounded: a full ingress queue rejects with
//! [`ServeError::Overloaded`] at submit time (admission control — the
//! client is never blocked or silently dropped), and the batcher's
//! blocking dispatch to a full shard queue propagates backpressure to
//! the ingress bound. Deadline math uses [`Instant`] exclusively —
//! monotonic time, immune to wall-clock steps.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, SyncSender, TrySendError};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use booster_gbdt::dataset::RawValue;
use booster_obs::hist::{AtomicHistogram, HistogramSnapshot};
use booster_obs::metrics::{Counter, Gauge};

use crate::error::ServeError;
use crate::registry::{ActiveCache, ModelRegistry, ServingModel};

/// Handles into the process-wide [`booster_obs`] registry, resolved
/// once per [`Server::start`]. These aggregate across every server in
/// the process (the introspection view); the per-server [`ServeStats`]
/// counters in [`Shared`] stay exact per instance.
struct ServeObs {
    accepted: std::sync::Arc<Counter>,
    rejected: std::sync::Arc<Counter>,
    completed: std::sync::Arc<Counter>,
    failed: std::sync::Arc<Counter>,
    queue_depth: std::sync::Arc<Gauge>,
    latency: std::sync::Arc<AtomicHistogram>,
    batch_sizes: std::sync::Arc<AtomicHistogram>,
}

impl ServeObs {
    fn register() -> ServeObs {
        let g = booster_obs::global();
        ServeObs {
            accepted: g.counter("serve_requests_total", &[("result", "accepted")]),
            rejected: g.counter("serve_requests_total", &[("result", "rejected")]),
            completed: g.counter("serve_requests_total", &[("result", "completed")]),
            failed: g.counter("serve_requests_total", &[("result", "failed")]),
            queue_depth: g.gauge("serve_queue_depth", &[]),
            latency: g.histogram("serve_latency_micros", &[]),
            batch_sizes: g.histogram("serve_batch_size", &[]),
        }
    }
}

/// When a coalesced batch is dispatched.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchPolicy {
    /// Dispatch as soon as this many requests are coalesced.
    pub max_batch: usize,
    /// Dispatch a partial batch once its oldest request has waited this
    /// long (the tail-latency bound; `ZERO` dispatches whatever is
    /// already queued without waiting).
    pub max_delay: Duration,
}

impl Default for BatchPolicy {
    fn default() -> Self {
        BatchPolicy { max_batch: 64, max_delay: Duration::from_micros(200) }
    }
}

/// Scheduler sizing knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Batching policy.
    pub policy: BatchPolicy,
    /// Worker shards (each owns its scratch buffers and scores whole
    /// batches).
    pub num_shards: usize,
    /// Bound of the ingress queue; a full queue rejects with
    /// [`ServeError::Overloaded`].
    pub queue_capacity: usize,
    /// Batches that may queue per shard before the batcher blocks
    /// (backpressure toward the ingress bound).
    pub shard_queue_depth: usize,
    /// Synthetic per-record scoring cost added by workers. Zero in
    /// production; the load harness and overload tests use it to
    /// emulate heavier models deterministically.
    pub synthetic_record_cost: Duration,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            policy: BatchPolicy::default(),
            num_shards: 1,
            queue_capacity: 1024,
            shard_queue_depth: 2,
            synthetic_record_cost: Duration::ZERO,
        }
    }
}

impl ServeConfig {
    fn validate(&self) -> Result<(), ServeError> {
        if self.policy.max_batch == 0 {
            return Err(ServeError::Config("max_batch must be at least 1"));
        }
        if self.num_shards == 0 {
            return Err(ServeError::Config("num_shards must be at least 1"));
        }
        if self.queue_capacity == 0 {
            return Err(ServeError::Config("queue_capacity must be at least 1"));
        }
        if self.shard_queue_depth == 0 {
            return Err(ServeError::Config("shard_queue_depth must be at least 1"));
        }
        Ok(())
    }
}

/// A completed scoring.
#[derive(Debug, Clone, PartialEq)]
pub struct ScoreResponse {
    /// Transformed predictions, one per model output (`num_outputs`
    /// slots — one for scalar objectives, `num_class` for softmax),
    /// bit-identical to offline
    /// [`FlatEnsemble`](booster_gbdt::infer::FlatEnsemble) scoring by
    /// the same version.
    pub outputs: Vec<f64>,
    /// Model version that scored this request.
    pub version: u64,
    /// Size of the coalesced batch this request rode in.
    pub batch_size: u32,
    /// Microseconds from submit to response.
    pub latency_micros: u64,
}

impl ScoreResponse {
    /// The scalar prediction of a single-output model (the common
    /// case). Panics if the model has more than one output — use
    /// [`ScoreResponse::outputs`] for multiclass responses.
    pub fn prediction(&self) -> f64 {
        assert_eq!(self.outputs.len(), 1, "multi-output response; read .outputs instead");
        self.outputs[0]
    }
}

/// Channel endpoint a response is delivered on.
pub type ResponseSender = mpsc::Sender<Result<ScoreResponse, ServeError>>;

struct Request {
    features: Arc<[RawValue]>,
    pin: Option<u64>,
    enqueued: Instant,
    tx: ResponseSender,
    /// `Some` while this accepted request still owes its accounting
    /// (latency sample, completed/failed counter, in-flight decrement).
    shared: Option<Arc<Shared>>,
}

impl Request {
    /// Deliver `result` to the client and settle the accounting exactly
    /// once.
    fn settle(mut self, result: Result<ScoreResponse, ServeError>) {
        let Some(shared) = self.shared.take() else { return };
        // One clock read per request: a successful response already
        // carries its latency (so the histogram and the client see the
        // same sample); errors sample here.
        let latency = match &result {
            Ok(resp) => resp.latency_micros,
            Err(_) => self.enqueued.elapsed().as_micros() as u64,
        };
        shared.latency.record(latency);
        shared.obs.latency.record(latency);
        if result.is_ok() {
            shared.completed.fetch_add(1, Ordering::Relaxed);
            shared.obs.completed.inc();
        } else {
            shared.failed.fetch_add(1, Ordering::Relaxed);
            shared.obs.failed.inc();
        }
        // The client may have given up and dropped its receiver; that
        // is its prerogative, not an error here.
        let _ = self.tx.send(result);
        // Decrement last: pending() == 0 implies every response was
        // sent.
        shared.obs.queue_depth.sub(1);
        shared.inflight.fetch_sub(1, Ordering::AcqRel);
    }

    /// Undo the in-flight accounting without delivering a response —
    /// only for requests the ingress queue refused (the caller gets the
    /// error as the submit return value instead).
    fn defuse(&mut self) {
        if let Some(shared) = self.shared.take() {
            shared.obs.queue_depth.sub(1);
            shared.inflight.fetch_sub(1, Ordering::AcqRel);
        }
    }
}

impl Drop for Request {
    /// An accepted request dropped anywhere — the channel teardown of a
    /// shutdown race, a worker unwinding mid-batch — still answers its
    /// client and keeps the counters consistent, so `drain()` can never
    /// hang on a leaked in-flight count.
    fn drop(&mut self) {
        let Some(shared) = self.shared.take() else { return };
        let latency = self.enqueued.elapsed().as_micros() as u64;
        shared.latency.record(latency);
        shared.obs.latency.record(latency);
        shared.failed.fetch_add(1, Ordering::Relaxed);
        shared.obs.failed.inc();
        let _ = self.tx.send(Err(ServeError::ShuttingDown));
        shared.obs.queue_depth.sub(1);
        shared.inflight.fetch_sub(1, Ordering::AcqRel);
    }
}

enum Ingress {
    Req(Request),
    Stop,
}

/// An in-flight request: [`Pending::wait`] blocks for the response.
#[derive(Debug)]
pub struct Pending {
    rx: mpsc::Receiver<Result<ScoreResponse, ServeError>>,
}

impl Pending {
    /// Block until the response arrives.
    pub fn wait(self) -> Result<ScoreResponse, ServeError> {
        self.rx.recv().unwrap_or(Err(ServeError::Disconnected))
    }
}

/// A reusable response channel for [`ServeHandle::score_with`] and
/// [`ServeHandle::submit_to`]: one allocation for a client thread's
/// whole lifetime instead of one per request. Several requests may be
/// in flight on one slot (a windowed closed-loop client); responses
/// then arrive in completion order.
#[derive(Debug)]
pub struct ResponseSlot {
    tx: ResponseSender,
    rx: mpsc::Receiver<Result<ScoreResponse, ServeError>>,
}

impl Default for ResponseSlot {
    fn default() -> Self {
        Self::new()
    }
}

impl ResponseSlot {
    /// A fresh slot.
    pub fn new() -> Self {
        let (tx, rx) = mpsc::channel();
        ResponseSlot { tx, rx }
    }

    /// The sender half, for [`ServeHandle::submit_to`]. With several
    /// requests in flight on one slot (a windowed closed-loop client),
    /// responses arrive in completion order, not submission order.
    pub fn sender(&self) -> &ResponseSender {
        &self.tx
    }

    /// Block for the next response on this slot.
    pub fn recv(&self) -> Result<ScoreResponse, ServeError> {
        self.rx.recv().unwrap_or(Err(ServeError::Disconnected))
    }

    /// Take an already-delivered response without blocking.
    pub fn try_recv(&self) -> Option<Result<ScoreResponse, ServeError>> {
        self.rx.try_recv().ok()
    }
}

struct Shared {
    registry: Arc<ModelRegistry>,
    accepted: AtomicU64,
    rejected: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    inflight: AtomicU64,
    latency: AtomicHistogram,
    batch_sizes: AtomicHistogram,
    closed: AtomicBool,
    obs: ServeObs,
}

/// Point-in-time scheduler counters and histograms.
#[derive(Debug, Clone)]
pub struct ServeStats {
    /// Requests admitted to the ingress queue.
    pub accepted: u64,
    /// Requests rejected with [`ServeError::Overloaded`].
    pub rejected: u64,
    /// Requests answered with a prediction.
    pub completed: u64,
    /// Requests answered with an error (bad request, unknown version).
    pub failed: u64,
    /// Requests accepted but not yet answered at snapshot time (the
    /// live queue depth, also exported as the `serve_queue_depth`
    /// gauge).
    pub inflight: u64,
    /// Submit-to-response latency in microseconds.
    pub latency: HistogramSnapshot,
    /// Dispatched batch sizes.
    pub batch_sizes: HistogramSnapshot,
}

/// Cloneable in-process client of a running [`Server`].
#[derive(Clone)]
pub struct ServeHandle {
    tx: SyncSender<Ingress>,
    shared: Arc<Shared>,
}

impl ServeHandle {
    /// Enqueue a request without waiting for its response. Never
    /// blocks: a full ingress queue returns
    /// [`ServeError::Overloaded`] immediately and a closed server
    /// [`ServeError::ShuttingDown`].
    pub fn submit(
        &self,
        features: Arc<[RawValue]>,
        pin: Option<u64>,
    ) -> Result<Pending, ServeError> {
        let (tx, rx) = mpsc::channel();
        self.submit_to(features, pin, &tx)?;
        Ok(Pending { rx })
    }

    /// [`ServeHandle::submit`] delivering onto a caller-owned channel —
    /// the zero-allocation hot path (the loop in
    /// `bench/src/bin/serve_loadgen.rs` reuses one channel per client
    /// thread via [`ResponseSlot`]). With multiple requests in flight
    /// on one channel, responses arrive in completion order, not
    /// submission order.
    pub fn submit_to(
        &self,
        features: Arc<[RawValue]>,
        pin: Option<u64>,
        tx: &ResponseSender,
    ) -> Result<(), ServeError> {
        if self.shared.closed.load(Ordering::Acquire) {
            return Err(ServeError::ShuttingDown);
        }
        // Count in-flight before enqueueing so `drain` can never
        // observe zero while a request sits in the queue.
        self.shared.inflight.fetch_add(1, Ordering::AcqRel);
        self.shared.obs.queue_depth.add(1);
        let req = Request {
            features,
            pin,
            enqueued: Instant::now(),
            tx: tx.clone(),
            shared: Some(Arc::clone(&self.shared)),
        };
        match self.tx.try_send(Ingress::Req(req)) {
            Ok(()) => {
                self.shared.accepted.fetch_add(1, Ordering::Relaxed);
                self.shared.obs.accepted.inc();
                Ok(())
            }
            Err(TrySendError::Full(msg)) => {
                if let Ingress::Req(mut req) = msg {
                    req.defuse();
                }
                self.shared.rejected.fetch_add(1, Ordering::Relaxed);
                self.shared.obs.rejected.inc();
                Err(ServeError::Overloaded)
            }
            Err(TrySendError::Disconnected(msg)) => {
                if let Ingress::Req(mut req) = msg {
                    req.defuse();
                }
                Err(ServeError::ShuttingDown)
            }
        }
    }

    /// Score one record against the active model, blocking for the
    /// response (submit + wait).
    pub fn score(&self, features: &[RawValue]) -> Result<ScoreResponse, ServeError> {
        self.submit(features.into(), None)?.wait()
    }

    /// Score one record against a pinned model version.
    pub fn score_pinned(
        &self,
        features: &[RawValue],
        version: u64,
    ) -> Result<ScoreResponse, ServeError> {
        self.submit(features.into(), Some(version))?.wait()
    }

    /// Blocking scoring through a reusable [`ResponseSlot`]: the
    /// allocation-free equivalent of [`ServeHandle::score`] for
    /// closed-loop clients. Expects the slot to have no other request
    /// in flight (otherwise the response received here may belong to an
    /// earlier `submit_to`).
    pub fn score_with(
        &self,
        slot: &ResponseSlot,
        features: Arc<[RawValue]>,
        pin: Option<u64>,
    ) -> Result<ScoreResponse, ServeError> {
        self.submit_to(features, pin, &slot.tx)?;
        slot.rx.recv().unwrap_or(Err(ServeError::Disconnected))
    }

    /// Requests accepted but not yet answered.
    pub fn pending(&self) -> u64 {
        self.shared.inflight.load(Ordering::Acquire)
    }

    /// Block until every accepted request has been answered — the
    /// quiesce point of a hot-swap flow (`activate(v2)`, `drain()`,
    /// `retire(v1)` guarantees no response is ever produced by v1
    /// afterwards). New submissions during the drain extend it.
    pub fn drain(&self) {
        while self.pending() > 0 {
            std::thread::sleep(Duration::from_micros(50));
        }
    }

    /// The registry this server resolves versions from.
    pub fn registry(&self) -> &Arc<ModelRegistry> {
        &self.shared.registry
    }

    /// Counter and histogram snapshot.
    pub fn stats(&self) -> ServeStats {
        ServeStats {
            accepted: self.shared.accepted.load(Ordering::Relaxed),
            rejected: self.shared.rejected.load(Ordering::Relaxed),
            completed: self.shared.completed.load(Ordering::Relaxed),
            failed: self.shared.failed.load(Ordering::Relaxed),
            inflight: self.shared.inflight.load(Ordering::Acquire),
            latency: self.shared.latency.snapshot(),
            batch_sizes: self.shared.batch_sizes.snapshot(),
        }
    }
}

/// A running scoring server: one batcher thread plus `num_shards`
/// worker threads. Create with [`Server::start`], talk to it through
/// [`Server::handle`] clones, stop with [`Server::shutdown`].
pub struct Server {
    handle: ServeHandle,
    batcher: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Validate the config and spawn the scheduler threads.
    pub fn start(registry: Arc<ModelRegistry>, config: ServeConfig) -> Result<Server, ServeError> {
        config.validate()?;
        let shared = Arc::new(Shared {
            registry,
            accepted: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            inflight: AtomicU64::new(0),
            latency: AtomicHistogram::new(),
            batch_sizes: AtomicHistogram::new(),
            closed: AtomicBool::new(false),
            obs: ServeObs::register(),
        });
        let (ingress_tx, ingress_rx) = mpsc::sync_channel(config.queue_capacity);
        let mut shard_txs = Vec::with_capacity(config.num_shards);
        let mut workers = Vec::with_capacity(config.num_shards);
        for i in 0..config.num_shards {
            let (tx, rx) = mpsc::sync_channel::<Vec<Request>>(config.shard_queue_depth);
            shard_txs.push(tx);
            let shared = Arc::clone(&shared);
            let cost = config.synthetic_record_cost;
            workers.push(
                std::thread::Builder::new()
                    .name(format!("serve-worker-{i}"))
                    .spawn(move || run_worker(rx, shared, cost))
                    .expect("spawn serve worker"),
            );
        }
        let policy = config.policy;
        let batcher = std::thread::Builder::new()
            .name("serve-batcher".into())
            .spawn(move || run_batcher(ingress_rx, shard_txs, policy))
            .expect("spawn serve batcher");
        Ok(Server {
            handle: ServeHandle { tx: ingress_tx, shared },
            batcher: Some(batcher),
            workers,
        })
    }

    /// A cloneable client handle.
    pub fn handle(&self) -> ServeHandle {
        self.handle.clone()
    }

    /// Stop accepting requests, answer everything already admitted, and
    /// join all threads. Returns the final stats snapshot.
    pub fn shutdown(mut self) -> ServeStats {
        self.handle.shared.closed.store(true, Ordering::Release);
        // FIFO guarantees every request admitted before the flag flip is
        // batched before the batcher sees Stop.
        let _ = self.handle.tx.send(Ingress::Stop);
        if let Some(b) = self.batcher.take() {
            let _ = b.join();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        self.handle.stats()
    }
}

fn run_batcher(
    rx: Receiver<Ingress>,
    mut shards: Vec<SyncSender<Vec<Request>>>,
    policy: BatchPolicy,
) {
    let mut next_shard = 0usize;
    let mut stopping = false;
    while !stopping {
        let first = match rx.recv() {
            Ok(Ingress::Req(r)) => r,
            Ok(Ingress::Stop) | Err(_) => break,
        };
        let mut batch = Vec::with_capacity(policy.max_batch.min(256));
        // The max_delay bound is anchored at *enqueue* time: queueing
        // delay already suffered counts against it, so a backed-up
        // batcher flushes immediately instead of granting itself a
        // fresh delay budget on top.
        let deadline = first.enqueued + policy.max_delay;
        batch.push(first);
        while batch.len() < policy.max_batch {
            let wait = deadline.saturating_duration_since(Instant::now());
            if wait.is_zero() {
                // Deadline reached: greedily take whatever is already
                // queued (coalescing without added delay), then flush.
                match rx.try_recv() {
                    Ok(Ingress::Req(r)) => batch.push(r),
                    Ok(Ingress::Stop) => {
                        stopping = true;
                        break;
                    }
                    Err(_) => break,
                }
            } else {
                match rx.recv_timeout(wait) {
                    Ok(Ingress::Req(r)) => batch.push(r),
                    Ok(Ingress::Stop) => {
                        stopping = true;
                        break;
                    }
                    Err(RecvTimeoutError::Timeout) => break,
                    Err(RecvTimeoutError::Disconnected) => {
                        stopping = true;
                        break;
                    }
                }
            }
        }
        // Dispatch — but never close a batch that cannot ship: while
        // every shard queue is full and the batch is below max_batch,
        // keep coalescing (under saturation, batches grow toward
        // max_batch instead of fragmenting into queue-depth-sized
        // slices). Once full, block on a shard: the stalled batcher
        // fills the bounded ingress queue, which rejects new work — the
        // backpressure chain ends in Overloaded, never in unbounded
        // buffering.
        let mut pending = Some(batch);
        'dispatch: while let Some(mut batch) = pending.take() {
            // Probe every live shard once; a Disconnected shard means
            // its worker died — remove it and keep serving on the rest.
            let mut probed = 0;
            while probed < shards.len() {
                let idx = (next_shard + probed) % shards.len();
                match shards[idx].try_send(batch) {
                    Ok(()) => {
                        next_shard = idx + 1;
                        break 'dispatch;
                    }
                    Err(TrySendError::Full(b)) => {
                        batch = b;
                        probed += 1;
                    }
                    Err(TrySendError::Disconnected(b)) => {
                        batch = b;
                        shards.remove(idx);
                        probed = 0; // shard set changed: re-probe
                        if shards.is_empty() {
                            // No workers left: dropping the batch (and
                            // returning, which drops the ingress queue)
                            // settles every request as ShuttingDown.
                            return;
                        }
                    }
                }
            }
            // All live shards are full.
            if batch.len() >= policy.max_batch || stopping {
                // Nothing more to coalesce into it: block until a shard
                // frees up.
                let idx = next_shard % shards.len();
                match shards[idx].send(batch) {
                    Ok(()) => {
                        next_shard = idx + 1;
                        break 'dispatch;
                    }
                    Err(send_err) => {
                        // This worker died while we were blocked.
                        shards.remove(idx);
                        if shards.is_empty() {
                            return;
                        }
                        pending = Some(send_err.0);
                    }
                }
            } else {
                match rx.recv_timeout(Duration::from_micros(20)) {
                    Ok(Ingress::Req(r)) => batch.push(r),
                    Ok(Ingress::Stop) => stopping = true,
                    Err(RecvTimeoutError::Timeout) => {}
                    Err(RecvTimeoutError::Disconnected) => stopping = true,
                }
                pending = Some(batch);
            }
        }
    }
    // Returning drops the ingress receiver; any request that raced in
    // behind the Stop marker is settled as ShuttingDown by its Drop.
}

fn run_worker(rx: Receiver<Vec<Request>>, shared: Arc<Shared>, cost: Duration) {
    let mut cache = ActiveCache::new();
    // Per-worker scratch, reused across batches: the packed bin matrix,
    // the margin/prediction buffer, and the requests of the run being
    // scored.
    let mut bins: Vec<u32> = Vec::new();
    let mut out: Vec<f64> = Vec::new();
    let mut run: Vec<Request> = Vec::new();
    while let Ok(batch) = rx.recv() {
        let batch_size = batch.len() as u32;
        shared.batch_sizes.record(u64::from(batch_size));
        shared.obs.batch_sizes.record(u64::from(batch_size));
        // Resolve each request's model — the pin, or the active version
        // through the epoch cache — answering unresolvable ones
        // immediately.
        let mut slots: Vec<Option<(Request, Arc<ServingModel>)>> = batch
            .into_iter()
            .map(|req| {
                let target = match req.pin {
                    Some(v) => shared.registry.get(v),
                    None => shared.registry.active_cached(&mut cache),
                };
                match target {
                    Some(model) => Some((req, model)),
                    None => {
                        let err = match req.pin {
                            Some(v) => ServeError::UnknownVersion(v),
                            None => ServeError::NoActiveModel,
                        };
                        req.settle(Err(err));
                        None
                    }
                }
            })
            .collect();
        // Score runs of requests sharing one model — in the common case
        // the whole batch in one cache-blocked pass; after a hot-swap, a
        // mixed batch becomes one pass per version.
        while let Some(lead) = slots.iter().position(Option::is_some) {
            let model = Arc::clone(&slots[lead].as_ref().expect("position() found Some").1);
            run.clear();
            bins.clear();
            for slot in slots[lead..].iter_mut() {
                if !slot.as_ref().is_some_and(|(_, t)| Arc::ptr_eq(t, &model)) {
                    continue;
                }
                let (req, _) = slot.take().expect("checked is_some");
                match model.bin_record_into(&req.features, &mut bins) {
                    Ok(()) => run.push(req),
                    Err(e) => req.settle(Err(e)),
                }
            }
            if run.is_empty() {
                continue;
            }
            let k = model.flat().num_outputs();
            out.clear();
            out.resize(run.len() * k, 0.0);
            // The compiled program was pre-warmed at registration.
            model.flat().compiled().score_bins_into(&bins, &mut out);
            if !cost.is_zero() {
                std::thread::sleep(cost * run.len() as u32);
            }
            model.add_served(run.len() as u64);
            for (chunk, req) in out.chunks(k).zip(run.drain(..)) {
                let latency_micros = req.enqueued.elapsed().as_micros() as u64;
                let resp = ScoreResponse {
                    outputs: chunk.to_vec(),
                    version: model.version(),
                    batch_size,
                    latency_micros,
                };
                req.settle(Ok(resp));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use booster_gbdt::columnar::ColumnarMirror;
    use booster_gbdt::dataset::Dataset;
    use booster_gbdt::predict::Model;
    use booster_gbdt::preprocess::BinnedDataset;
    use booster_gbdt::schema::{DatasetSchema, FieldSchema};
    use booster_gbdt::train::{train, TrainConfig};

    /// A small mixed numeric/categorical model plus raw records to
    /// score (including missing values).
    fn trained_model(num_trees: usize) -> (Model, Vec<Vec<RawValue>>) {
        let schema = DatasetSchema::new(vec![
            FieldSchema::numeric_with_bins("x", 16),
            FieldSchema::categorical("c", 3),
            FieldSchema::numeric_with_bins("y", 8),
        ]);
        let mut ds = Dataset::new(schema);
        for i in 0..300 {
            let x = if i % 13 == 0 { RawValue::Missing } else { RawValue::Num(i as f32) };
            let rec = [x, RawValue::Cat(i % 3), RawValue::Num(((i * 7) % 100) as f32)];
            ds.push_record(&rec, f32::from(u8::from(i >= 150)));
        }
        let data = BinnedDataset::from_dataset(&ds);
        let mirror = ColumnarMirror::from_binned(&data);
        let cfg = TrainConfig { num_trees, max_depth: 3, ..Default::default() };
        let (model, _) = train(&data, &mirror, &cfg);
        let records =
            (0..300).map(|r| (0..3).map(|f| ds.value(r, f)).collect::<Vec<_>>()).collect();
        (model, records)
    }

    fn quick_config() -> ServeConfig {
        ServeConfig {
            policy: BatchPolicy { max_batch: 8, max_delay: Duration::from_micros(100) },
            ..Default::default()
        }
    }

    #[test]
    fn round_trip_is_bit_identical_to_offline_scoring() {
        let (model, records) = trained_model(5);
        let registry = Arc::new(ModelRegistry::new());
        registry.register(&model).unwrap();
        let server = Server::start(Arc::clone(&registry), quick_config()).unwrap();
        let handle = server.handle();
        for (r, rec) in records.iter().enumerate().take(150) {
            let resp = handle.score(rec).unwrap();
            assert_eq!(resp.version, 1);
            assert!(resp.batch_size >= 1);
            assert_eq!(resp.prediction().to_bits(), model.predict_raw(rec).to_bits(), "record {r}");
        }
        let stats = server.shutdown();
        assert_eq!(stats.accepted, 150);
        assert_eq!(stats.completed, 150);
        assert_eq!(stats.rejected, 0);
        assert_eq!(stats.failed, 0);
        assert_eq!(stats.latency.count(), 150);
    }

    #[test]
    fn max_delay_flushes_partial_batches() {
        let (model, records) = trained_model(2);
        let registry = Arc::new(ModelRegistry::new());
        registry.register(&model).unwrap();
        // max_batch is far larger than the offered load: only the
        // Instant-based max_delay deadline can flush these batches.
        let cfg = ServeConfig {
            policy: BatchPolicy { max_batch: 1000, max_delay: Duration::from_millis(10) },
            ..Default::default()
        };
        let server = Server::start(Arc::clone(&registry), cfg).unwrap();
        let handle = server.handle();
        let pendings: Vec<Pending> = records
            .iter()
            .take(3)
            .map(|r| handle.submit(r.as_slice().into(), None).unwrap())
            .collect();
        for p in pendings {
            let resp = p.wait().expect("deadline flush must answer partial batches");
            assert!(resp.batch_size <= 3, "batch {} exceeds offered load", resp.batch_size);
        }
        let stats = server.shutdown();
        assert_eq!(stats.completed, 3);
        assert!(stats.batch_sizes.count() >= 1);
        assert!(stats.batch_sizes.max() <= 3);
    }

    #[test]
    fn overload_is_a_typed_rejection_never_a_block() {
        let (model, records) = trained_model(2);
        let registry = Arc::new(ModelRegistry::new());
        registry.register(&model).unwrap();
        // One-deep everything plus a synthetic 20ms/record cost: the
        // pipeline saturates after a couple of admissions.
        let cfg = ServeConfig {
            policy: BatchPolicy { max_batch: 1, max_delay: Duration::ZERO },
            num_shards: 1,
            queue_capacity: 1,
            shard_queue_depth: 1,
            synthetic_record_cost: Duration::from_millis(20),
        };
        let server = Server::start(Arc::clone(&registry), cfg).unwrap();
        let handle = server.handle();
        let first = handle.submit(records[0].as_slice().into(), None).unwrap();
        let mut overloaded = 0u32;
        let mut kept: Vec<Pending> = Vec::new();
        for _ in 0..5_000 {
            match handle.submit(records[1].as_slice().into(), None) {
                Ok(p) => kept.push(p),
                Err(ServeError::Overloaded) => {
                    overloaded += 1;
                    if overloaded >= 3 {
                        break;
                    }
                }
                Err(e) => panic!("unexpected error {e}"),
            }
        }
        assert!(overloaded >= 3, "bounded queue never rejected");
        first.wait().unwrap();
        for p in kept {
            p.wait().unwrap();
        }
        let stats = server.shutdown();
        assert!(stats.rejected >= 3);
        assert_eq!(stats.completed, stats.accepted);
    }

    #[test]
    fn pinned_versions_and_unknown_version_errors() {
        let (model_v1, records) = trained_model(2);
        let (model_v2, _) = trained_model(6);
        let registry = Arc::new(ModelRegistry::new());
        registry.register(&model_v1).unwrap();
        registry.register(&model_v2).unwrap();
        registry.activate(2).unwrap();
        let server = Server::start(Arc::clone(&registry), quick_config()).unwrap();
        let handle = server.handle();
        let rec = &records[7];
        let unpinned = handle.score(rec).unwrap();
        assert_eq!(unpinned.version, 2);
        assert_eq!(unpinned.prediction().to_bits(), model_v2.predict_raw(rec).to_bits());
        let pinned = handle.score_pinned(rec, 1).unwrap();
        assert_eq!(pinned.version, 1);
        assert_eq!(pinned.prediction().to_bits(), model_v1.predict_raw(rec).to_bits());
        assert_eq!(handle.score_pinned(rec, 99), Err(ServeError::UnknownVersion(99)));
        let stats = server.shutdown();
        assert_eq!(stats.completed, 2);
        assert_eq!(stats.failed, 1);
        assert_eq!(registry.version_stats(), vec![(1, 1), (2, 1)]);
    }

    #[test]
    fn no_active_model_is_reported_not_hung() {
        let registry = Arc::new(ModelRegistry::new());
        let server = Server::start(Arc::clone(&registry), quick_config()).unwrap();
        let handle = server.handle();
        assert_eq!(handle.score(&[RawValue::Num(1.0)]), Err(ServeError::NoActiveModel));
        server.shutdown();
    }

    #[test]
    fn bad_records_fail_without_poisoning_the_worker() {
        let (model, records) = trained_model(2);
        let registry = Arc::new(ModelRegistry::new());
        registry.register(&model).unwrap();
        let server = Server::start(Arc::clone(&registry), quick_config()).unwrap();
        let handle = server.handle();
        // Wrong kind in field 0 (numeric) and wrong arity.
        assert!(matches!(
            handle.score(&[RawValue::Cat(0), RawValue::Cat(0), RawValue::Num(1.0)]),
            Err(ServeError::BadRequest(_))
        ));
        assert!(matches!(handle.score(&[RawValue::Num(1.0)]), Err(ServeError::BadRequest(_))));
        // The worker still serves good requests afterwards.
        let resp = handle.score(&records[0]).unwrap();
        assert_eq!(resp.prediction().to_bits(), model.predict_raw(&records[0]).to_bits());
        let stats = server.shutdown();
        assert_eq!(stats.failed, 2);
        assert_eq!(stats.completed, 1);
    }

    #[test]
    fn shutdown_answers_inflight_then_rejects_new_work() {
        let (model, records) = trained_model(2);
        let registry = Arc::new(ModelRegistry::new());
        registry.register(&model).unwrap();
        let server = Server::start(Arc::clone(&registry), quick_config()).unwrap();
        let handle = server.handle();
        let pendings: Vec<Pending> = records
            .iter()
            .take(20)
            .map(|r| handle.submit(r.as_slice().into(), None).unwrap())
            .collect();
        let stats = server.shutdown();
        assert_eq!(stats.accepted, 20);
        assert_eq!(stats.completed + stats.failed, 20, "shutdown must answer everything");
        for p in pendings {
            assert!(p.wait().is_ok());
        }
        assert!(matches!(
            handle.submit(records[0].as_slice().into(), None),
            Err(ServeError::ShuttingDown)
        ));
    }

    #[test]
    fn hot_swap_drain_retire_flow() {
        let (model_v1, records) = trained_model(2);
        let (model_v2, _) = trained_model(6);
        let registry = Arc::new(ModelRegistry::new());
        registry.register(&model_v1).unwrap();
        let server = Server::start(Arc::clone(&registry), quick_config()).unwrap();
        let handle = server.handle();
        for rec in records.iter().take(20) {
            assert_eq!(handle.score(rec).unwrap().version, 1);
        }
        // Register → activate → drain → retire: the full swap flow.
        registry.register(&model_v2).unwrap();
        registry.activate(2).unwrap();
        handle.drain();
        assert_eq!(handle.pending(), 0);
        registry.retire(1).unwrap();
        for rec in records.iter().take(10) {
            let resp = handle.score(rec).unwrap();
            assert_eq!(resp.version, 2);
            assert_eq!(resp.prediction().to_bits(), model_v2.predict_raw(rec).to_bits());
        }
        assert_eq!(registry.version_stats(), vec![(2, 10)]);
        let stats = server.shutdown();
        assert_eq!(stats.completed, 30);
    }

    #[test]
    fn multiclass_responses_carry_every_class_probability() {
        let schema = DatasetSchema::new(vec![
            FieldSchema::numeric_with_bins("x", 16),
            FieldSchema::numeric_with_bins("y", 16),
        ]);
        let mut ds = Dataset::new(schema);
        for i in 0..300u32 {
            let rec = [RawValue::Num(i as f32), RawValue::Num(((i * 13) % 97) as f32)];
            ds.push_record(&rec, (i % 3) as f32);
        }
        let data = BinnedDataset::from_dataset(&ds);
        let mirror = ColumnarMirror::from_binned(&data);
        let cfg = TrainConfig {
            num_trees: 4,
            max_depth: 3,
            objective: booster_gbdt::gradients::Objective::Softmax { num_class: 3 },
            ..Default::default()
        };
        let (model, _) = train(&data, &mirror, &cfg);
        let registry = Arc::new(ModelRegistry::new());
        registry.register(&model).unwrap();
        let server = Server::start(Arc::clone(&registry), quick_config()).unwrap();
        let handle = server.handle();
        for i in (0..300u32).step_by(7) {
            let rec = [RawValue::Num(i as f32), RawValue::Num(((i * 13) % 97) as f32)];
            let resp = handle.score(&rec).unwrap();
            let offline = model.predict_raw_outputs(&rec);
            assert_eq!(resp.outputs.len(), 3);
            for (got, want) in resp.outputs.iter().zip(&offline) {
                assert_eq!(got.to_bits(), want.to_bits());
            }
            let sum: f64 = resp.outputs.iter().sum();
            assert!((sum - 1.0).abs() < 1e-9, "softmax outputs must sum to 1, got {sum}");
        }
        server.shutdown();
    }

    #[test]
    fn zero_sized_config_values_are_rejected() {
        let registry = Arc::new(ModelRegistry::new());
        for cfg in [
            ServeConfig {
                policy: BatchPolicy { max_batch: 0, ..Default::default() },
                ..Default::default()
            },
            ServeConfig { num_shards: 0, ..Default::default() },
            ServeConfig { queue_capacity: 0, ..Default::default() },
            ServeConfig { shard_queue_depth: 0, ..Default::default() },
        ] {
            assert!(matches!(
                Server::start(Arc::clone(&registry), cfg),
                Err(ServeError::Config(_))
            ));
        }
    }
}
