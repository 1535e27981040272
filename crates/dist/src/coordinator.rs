//! Coordinator side: the distributed [`StepExecutor`] and the training
//! entry points.
//!
//! [`DistExec`] plugs into the **unchanged** growth engine
//! (`grow_forest_with_eval`): the coordinator runs every control-flow
//! decision — sampling draws, split scans, growth order, early
//! stopping — exactly as local training does, and only the record-heavy
//! steps cross the wire. Step 1 is a chained fixed-order reduction in
//! shard order (bit-identical to the sequential fold, see the crate
//! docs): occupancy-coded lane blocks ([`crate::lanes`]) for a vertex
//! the engine will scan, the 72-byte total accumulator alone for one
//! it will not. Step 3 concatenates per-worker stable partitions, Step 5
//! runs shard traversals in parallel and chains only the cheap loss
//! fold.
//!
//! Error handling: `StepExecutor` methods return plain values, so on
//! the first transport or protocol failure the executor *poisons*
//! itself — it records the [`DistError`], returns empty results (an
//! untouched histogram scans to "no split", so the engine terminates in
//! bounded time) and [`train_distributed`] surfaces the recorded error
//! instead of a model.

use parking_lot::Mutex;

use booster_gbdt::columnar::{ColumnRef, ColumnarMirror};
use booster_gbdt::gradients::{GradPair, Loss};
use booster_gbdt::grow::{grow_forest_with_eval, scalar_base_score};
use booster_gbdt::histogram::{LaneAccumulator, NodeHistogram};
use booster_gbdt::predict::Model;
use booster_gbdt::preprocess::BinnedDataset;
use booster_gbdt::split::SplitRule;
use booster_gbdt::train::{EvalSet, StepExecutor, TrainConfig, TrainReport};
use booster_gbdt::tree::Tree;

use crate::comm::{ChannelComm, Comm, CommStats};
use crate::error::DistError;
use crate::proto::{Msg, WireLanes};
use crate::shard::ShardPlan;

/// The lane block one chain link replied with, as the traffic model
/// sees it. The same block crosses the wire again as the next link's
/// carry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockShape {
    /// Bins with a non-zero count.
    pub occupied: u32,
    /// Whether the encoder shipped occupied bins only.
    pub sparse: bool,
}

/// One histogram build as the traffic model sees it: how many row ids
/// were shipped and what each chain link sent back.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BinEvent {
    /// Workers with at least one row at this vertex (chain length).
    pub engaged: u32,
    /// Total row ids shipped across the chain's requests.
    pub rows_shipped: u64,
    /// One entry per chain link, in shard order.
    pub blocks: Vec<BlockShape>,
}

/// One totals-only exchange (a vertex at `max_depth`: no lanes cross).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TotalEvent {
    /// Workers with at least one row at this vertex (chain length).
    pub engaged: u32,
    /// Total row ids shipped across the chain's requests.
    pub rows_shipped: u64,
}

/// Distributed-run measurements: per-exchange Step-1 events plus the
/// transport's byte counters.
#[derive(Debug, Clone)]
pub struct DistStats {
    /// One entry per histogram build, in engine order.
    pub bin_events: Vec<BinEvent>,
    /// One entry per totals-only exchange, in engine order.
    pub total_events: Vec<TotalEvent>,
    /// Coordinator-edge traffic totals.
    pub comm: CommStats,
}

/// Headline numbers of a distributed run, derived from [`DistStats`] in
/// one call — what reports print instead of assembling counters
/// piecemeal from `comm` and `bin_events`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DistSummary {
    /// Histogram-build exchanges the coordinator drove.
    pub hist_builds: usize,
    /// Totals-only exchanges (vertices at `max_depth`).
    pub vertex_totals: usize,
    /// Frames crossing the coordinator's edge, both directions.
    pub frames: u64,
    /// Payload bytes, both directions.
    pub payload_bytes: u64,
    /// Total wire bytes (payload plus the 4-byte prefix per frame).
    pub wire_bytes: u64,
}

impl DistStats {
    /// Roll the run up into a [`DistSummary`].
    pub fn summary(&self) -> DistSummary {
        DistSummary {
            hist_builds: self.bin_events.len(),
            vertex_totals: self.total_events.len(),
            frames: self.comm.frames_sent + self.comm.frames_received,
            payload_bytes: self.comm.payload_bytes_sent + self.comm.payload_bytes_received,
            wire_bytes: self.comm.wire_bytes(),
        }
    }
}

/// What a successful distributed run returns.
#[derive(Debug)]
pub struct DistOutcome {
    /// The trained model — bit-identical to local training's.
    pub model: Model,
    /// The engine's report (loss/eval history, counters, timings).
    pub report: TrainReport,
    /// Traffic measurements.
    pub stats: DistStats,
}

struct Inner<C: Comm> {
    comm: C,
    seq: u32,
    err: Option<DistError>,
    bin_events: Vec<BinEvent>,
    total_events: Vec<TotalEvent>,
}

impl<C: Comm> Inner<C> {
    fn next_seq(&mut self) -> u32 {
        self.seq = self.seq.wrapping_add(1);
        self.seq
    }

    fn send(&mut self, worker: usize, msg: &Msg) -> Result<(), DistError> {
        self.comm.send(worker, &msg.encode())
    }

    /// Receive, decode, verify the sequence echo and unwrap worker
    /// errors — the one funnel every reply goes through.
    fn recv(&mut self, worker: usize, seq: u32) -> Result<Msg, DistError> {
        let payload = self.comm.recv(worker)?;
        let msg = Msg::decode(&payload)?;
        if let Msg::Err { msg, .. } = msg {
            return Err(DistError::Remote { worker, msg });
        }
        if msg.seq() != seq {
            return Err(DistError::Protocol(format!(
                "worker {worker} echoed seq {} for request {seq}",
                msg.seq()
            )));
        }
        Ok(msg)
    }

    fn exchange(&mut self, worker: usize, msg: &Msg) -> Result<Msg, DistError> {
        // Round-trip wall time per request op — the coordinator's view of
        // "time spent on the wire (plus the worker's compute)".
        let t = std::time::Instant::now();
        self.send(worker, msg)?;
        let reply = self.recv(worker, msg.seq());
        booster_obs::global()
            .counter("dist_wire_micros_total", &[("op", crate::comm::op_label(msg.op()))])
            .add(t.elapsed().as_micros() as u64);
        reply
    }
}

/// The distributed step executor. Created by the train entry points;
/// exposed so benches and tests can drive the engine directly.
pub struct DistExec<C: Comm> {
    plan: ShardPlan,
    inner: Mutex<Inner<C>>,
}

impl<C: Comm + Send> DistExec<C> {
    /// Wire an executor to `comm` under `plan`.
    ///
    /// # Errors
    /// Fails if the transport's worker count does not match the plan.
    pub fn new(comm: C, plan: ShardPlan) -> Result<DistExec<C>, DistError> {
        if comm.num_workers() != plan.num_workers() {
            return Err(DistError::Protocol(format!(
                "transport has {} workers, plan has {}",
                comm.num_workers(),
                plan.num_workers()
            )));
        }
        Ok(DistExec {
            plan,
            inner: Mutex::new(Inner {
                comm,
                seq: 0,
                err: None,
                bin_events: Vec::new(),
                total_events: Vec::new(),
            }),
        })
    }

    /// Run the init handshake: every worker (empty shards included)
    /// receives the loss and base score and must acknowledge with its
    /// shard size, which is verified against the plan.
    ///
    /// # Errors
    /// Any transport failure, or a shard-size mismatch.
    pub fn init_workers(&self, loss: Loss, base_score: f64) -> Result<(), DistError> {
        let mut inner = self.inner.lock();
        for k in 0..self.plan.num_workers() {
            let seq = inner.next_seq();
            let reply = inner.exchange(k, &Msg::Init { seq, loss, base_score })?;
            match reply {
                Msg::InitDone { records, .. } => {
                    let expect = self.plan.range(k).len() as u64;
                    if records != expect {
                        return Err(DistError::Protocol(format!(
                            "worker {k} holds {records} records, plan assigns {expect}"
                        )));
                    }
                }
                other => {
                    return Err(DistError::Protocol(format!(
                        "unexpected init reply op {}",
                        other.op()
                    )))
                }
            }
        }
        Ok(())
    }

    /// Tear down: send `Shutdown` to every worker and return the
    /// transport and measurements, or the poisoned error if any step
    /// failed mid-run.
    ///
    /// # Errors
    /// The first error any step recorded.
    pub fn finish(self) -> Result<(C, DistStats), DistError> {
        let mut inner = self.inner.into_inner();
        if let Some(e) = inner.err {
            return Err(e);
        }
        for k in 0..self.plan.num_workers() {
            let seq = inner.next_seq();
            // Best-effort: a worker that died after the last step should
            // not turn a finished run into an error.
            let _ = inner.send(k, &Msg::Shutdown { seq });
        }
        let stats = DistStats {
            bin_events: inner.bin_events,
            total_events: inner.total_events,
            comm: inner.comm.stats().clone(),
        };
        Ok((inner.comm, stats))
    }

    /// The Step-1 chain for a scanned vertex. Each link's reply is
    /// validated as it is decoded and then spliced, still encoded, into
    /// the next link's request; only the last one is scattered — once,
    /// straight into `hist`. Returns what each link shipped.
    fn bin_chain(
        &self,
        inner: &mut Inner<C>,
        pieces: Vec<(usize, Vec<u32>)>,
        hist: &mut NodeHistogram,
    ) -> Result<Vec<BlockShape>, DistError> {
        let nbins = hist.total_bins();
        let mut blocks = Vec::with_capacity(pieces.len());
        let mut carry: Option<WireLanes> = None;
        let mut expect_pos = 0u64;
        for (k, local) in pieces {
            expect_pos += local.len() as u64;
            let seq = inner.next_seq();
            let msg = Msg::BuildHist { seq, rows: local, carry: carry.take() };
            match inner.exchange(k, &msg)? {
                Msg::HistDone { lanes, .. } => {
                    if lanes.block.nbins() != nbins {
                        return Err(DistError::Protocol(format!(
                            "worker {k} returned {} bins, expected {nbins}",
                            lanes.block.nbins()
                        )));
                    }
                    check_pos(k, &lanes.acc, expect_pos)?;
                    blocks.push(BlockShape {
                        occupied: lanes.block.occupied() as u32,
                        sparse: lanes.block.is_sparse(),
                    });
                    carry = Some(lanes);
                }
                other => {
                    return Err(DistError::Protocol(format!(
                        "unexpected hist reply op {}",
                        other.op()
                    )))
                }
            }
        }
        let lanes = carry.expect("bin_chain called with engaged workers");
        let (grad, hess, count) = hist.raw_lanes_mut();
        lanes.block.scatter_into(grad, hess, count);
        hist.set_totals(lanes.acc.finish(), lanes.acc.count());
        Ok(blocks)
    }

    /// The Step-1 chain for a vertex nobody scans: row ids out, the
    /// running accumulator out and back, no lanes.
    fn total_chain(
        &self,
        inner: &mut Inner<C>,
        pieces: Vec<(usize, Vec<u32>)>,
    ) -> Result<GradPair, DistError> {
        let mut acc = LaneAccumulator::new();
        let mut expect_pos = 0u64;
        for (k, local) in pieces {
            expect_pos += local.len() as u64;
            let seq = inner.next_seq();
            match inner.exchange(k, &Msg::VertexTotal { seq, rows: local, acc })? {
                Msg::TotalDone { acc: folded, .. } => {
                    check_pos(k, &folded, expect_pos)?;
                    acc = folded;
                }
                other => {
                    return Err(DistError::Protocol(format!(
                        "unexpected vertex-total reply op {}",
                        other.op()
                    )))
                }
            }
        }
        Ok(acc.finish())
    }

    fn poison(&self, inner: &mut Inner<C>, e: DistError) {
        if inner.err.is_none() {
            inner.err = Some(e);
        }
    }
}

/// A chain link must have folded exactly the rows shipped so far.
fn check_pos(worker: usize, acc: &LaneAccumulator, expect: u64) -> Result<(), DistError> {
    if acc.count() == expect {
        return Ok(());
    }
    Err(DistError::Protocol(format!(
        "worker {worker} folded {} records, chain expected {expect}",
        acc.count()
    )))
}

impl<C: Comm + Send> StepExecutor for DistExec<C> {
    fn bin_records(
        &self,
        data: &BinnedDataset,
        _columnar: &ColumnarMirror,
        rows: &[u32],
        _grads: &[GradPair],
        hist: &mut NodeHistogram,
    ) -> u64 {
        let mut inner = self.inner.lock();
        if inner.err.is_some() {
            return 0;
        }
        let pieces = self.plan.split_rows(rows);
        if pieces.is_empty() {
            return 0;
        }
        let engaged = pieces.len() as u32;
        let rows_shipped = rows.len() as u64;
        match self.bin_chain(&mut inner, pieces, hist) {
            Ok(blocks) => {
                inner.bin_events.push(BinEvent { engaged, rows_shipped, blocks });
                rows_shipped * data.num_fields() as u64
            }
            Err(e) => {
                self.poison(&mut inner, e);
                0
            }
        }
    }

    /// The coordinator's `grads` are never refreshed (Step 5 runs on
    /// the workers), so the total is chained through the shards like a
    /// histogram build — minus the histogram.
    fn vertex_total(&self, rows: &[u32], _grads: &[GradPair]) -> GradPair {
        let mut inner = self.inner.lock();
        if inner.err.is_some() {
            return GradPair::zero();
        }
        let pieces = self.plan.split_rows(rows);
        let engaged = pieces.len() as u32;
        match self.total_chain(&mut inner, pieces) {
            Ok(total) => {
                if engaged > 0 {
                    inner
                        .total_events
                        .push(TotalEvent { engaged, rows_shipped: rows.len() as u64 });
                }
                total
            }
            Err(e) => {
                self.poison(&mut inner, e);
                GradPair::zero()
            }
        }
    }

    fn partition(
        &self,
        rows: &[u32],
        _column: ColumnRef<'_>,
        field: usize,
        rule: SplitRule,
        default_left: bool,
        absent_bin: u32,
    ) -> (Vec<u32>, Vec<u32>) {
        let mut inner = self.inner.lock();
        if inner.err.is_some() {
            return (Vec::new(), Vec::new());
        }
        let pieces = self.plan.split_rows(rows);
        // Send every request first, then collect replies in shard order:
        // workers partition their stretches concurrently, and shard-order
        // concatenation of stable partitions *is* the global stable
        // partition.
        let mut pending: Vec<(usize, u32)> = Vec::with_capacity(pieces.len());
        for (k, local) in pieces {
            let seq = inner.next_seq();
            let msg = Msg::Part {
                seq,
                field: field as u32,
                rule,
                default_left,
                absent: absent_bin,
                rows: local,
            };
            if let Err(e) = inner.send(k, &msg) {
                self.poison(&mut inner, e);
                return (Vec::new(), Vec::new());
            }
            pending.push((k, seq));
        }
        let mut left = Vec::new();
        let mut right = Vec::new();
        for (k, seq) in pending {
            match inner.recv(k, seq) {
                Ok(Msg::PartDone { left: l, right: r, .. }) => {
                    let lo = self.plan.range(k).start as u32;
                    left.extend(l.into_iter().map(|x| x + lo));
                    right.extend(r.into_iter().map(|x| x + lo));
                }
                Ok(other) => {
                    self.poison(
                        &mut inner,
                        DistError::Protocol(format!(
                            "unexpected partition reply op {}",
                            other.op()
                        )),
                    );
                    return (Vec::new(), Vec::new());
                }
                Err(e) => {
                    self.poison(&mut inner, e);
                    return (Vec::new(), Vec::new());
                }
            }
        }
        (left, right)
    }

    fn traverse_update(
        &self,
        _data: &BinnedDataset,
        tree: &Tree,
        _loss: Loss,
        _labels: &[f32],
        _margins: &mut [f64],
        _grads: &mut [GradPair],
    ) -> (u64, f64) {
        let mut inner = self.inner.lock();
        if inner.err.is_some() {
            return (0, 0.0);
        }
        let engaged: Vec<usize> =
            (0..self.plan.num_workers()).filter(|&k| !self.plan.range(k).is_empty()).collect();
        // Phase 1: every worker traverses its shard concurrently. The
        // path sum is an integer — exact in any reduction order.
        let mut pending: Vec<(usize, u32)> = Vec::with_capacity(engaged.len());
        for &k in &engaged {
            let seq = inner.next_seq();
            let msg = Msg::Traverse { seq, tree: tree.clone() };
            if let Err(e) = inner.send(k, &msg) {
                self.poison(&mut inner, e);
                return (0, 0.0);
            }
            pending.push((k, seq));
        }
        let mut sum_path = 0u64;
        for (k, seq) in pending {
            match inner.recv(k, seq) {
                Ok(Msg::TravDone { sum_path: s, .. }) => sum_path += s,
                Ok(other) => {
                    self.poison(
                        &mut inner,
                        DistError::Protocol(format!("unexpected traverse reply op {}", other.op())),
                    );
                    return (0, 0.0);
                }
                Err(e) => {
                    self.poison(&mut inner, e);
                    return (0, 0.0);
                }
            }
        }
        // Phase 2: chained sequential loss fold in shard order — the
        // only part of Step 5 whose order matters, and it is O(workers)
        // frames of 13 bytes.
        let mut carry = 0.0f64;
        for &k in &engaged {
            let seq = inner.next_seq();
            match inner.exchange(k, &Msg::FoldLoss { seq, carry }) {
                Ok(Msg::FoldLoss { carry: folded, .. }) => carry = folded,
                Ok(other) => {
                    self.poison(
                        &mut inner,
                        DistError::Protocol(format!("unexpected fold reply op {}", other.op())),
                    );
                    return (0, 0.0);
                }
                Err(e) => {
                    self.poison(&mut inner, e);
                    return (0, 0.0);
                }
            }
        }
        (sum_path, carry)
    }
}

/// Distributed training over an arbitrary transport, with an optional
/// evaluation set (scored coordinator-side, exactly as local training
/// scores it).
///
/// Bit-identical to `grow_forest_with_eval` with a local executor for
/// any worker count and any contiguous plan.
///
/// # Errors
/// Typed [`DistError`] on any transport, protocol or configuration
/// failure; the workers are torn down either way.
pub fn train_distributed_with_eval<C: Comm + Send>(
    data: &BinnedDataset,
    columnar: &ColumnarMirror,
    cfg: &TrainConfig,
    comm: C,
    plan: &ShardPlan,
    eval: Option<&EvalSet<'_>>,
) -> Result<DistOutcome, DistError> {
    cfg.validate().map_err(|e| DistError::Protocol(format!("invalid config: {e}")))?;
    if data.num_records() == 0 {
        return Err(DistError::Protocol("cannot train on an empty dataset".into()));
    }
    if cfg.early_stopping.is_some() && eval.is_none() {
        return Err(DistError::Protocol("early stopping requires an evaluation set".into()));
    }
    if plan.num_records() != data.num_records() {
        return Err(DistError::Protocol(format!(
            "plan covers {} records, dataset has {}",
            plan.num_records(),
            data.num_records()
        )));
    }
    let loss = cfg.objective.scalar_loss().ok_or(DistError::Unsupported(
        "coupled objectives (softmax, lambdarank) update their margins outside the executor",
    ))?;
    // The engine's own opening fold, over the full dataset in row order.
    let base_score = scalar_base_score(loss, data.labels());

    let exec = DistExec::new(comm, plan.clone())?;
    exec.init_workers(loss, base_score)?;
    let (model, report) = grow_forest_with_eval(data, columnar, cfg, &exec, eval);
    let (comm, stats) = exec.finish()?;
    drop(comm);
    Ok(DistOutcome { model, report, stats })
}

/// [`train_distributed_with_eval`] without an evaluation set.
///
/// # Errors
/// See [`train_distributed_with_eval`].
pub fn train_distributed<C: Comm + Send>(
    data: &BinnedDataset,
    columnar: &ColumnarMirror,
    cfg: &TrainConfig,
    comm: C,
    plan: &ShardPlan,
) -> Result<DistOutcome, DistError> {
    train_distributed_with_eval(data, columnar, cfg, comm, plan, None)
}

/// Convenience: evenly shard `data` across `workers` in-process worker
/// threads and train over channels.
///
/// # Errors
/// See [`train_distributed_with_eval`].
pub fn train_distributed_threads(
    data: &BinnedDataset,
    columnar: &ColumnarMirror,
    cfg: &TrainConfig,
    workers: usize,
    timeout: std::time::Duration,
) -> Result<DistOutcome, DistError> {
    let plan = ShardPlan::even(data.num_records(), workers);
    let shards = plan.shard(data)?;
    let comm = ChannelComm::spawn(shards, timeout);
    train_distributed(data, columnar, cfg, comm, &plan)
}
