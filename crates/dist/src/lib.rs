//! # booster-dist
//!
//! Distributed data-parallel GBDT training: the multi-node layout of
//! the Booster paper's cluster discussion made real. Records are
//! sharded contiguously across N workers ([`shard::ShardPlan`]); each
//! worker holds its shard, margins and gradients, and executes the
//! record-heavy steps (1, 3 and 5) on request; the coordinator runs the
//! *unchanged* growth engine (`grow_forest_with_eval`) with a
//! [`coordinator::DistExec`] backend that turns each step into a
//! message exchange over a [`comm::Comm`] transport — in-process
//! channels ([`comm::ChannelComm`]) or localhost TCP
//! ([`comm::TcpComm`]) speaking the `booster-serve` frame codec.
//!
//! ## The determinism contract
//!
//! Distributed training is **bit-identical** to local training — same
//! model, same `loss_history`, same `eval_history` — for any worker
//! count and any contiguous shard boundaries. That is a stronger claim
//! than "the merged histograms are statistically equal": `f64` addition
//! is not associative, so summing independently-built partial
//! histograms would drift from the sequential fold by ULPs. Instead the
//! reduction is a **chained fixed-order fold in shard order**:
//!
//! - *Step 1*: worker k bins its rows **into the running histogram**
//!   received from worker k-1 (the binning kernels accumulate with `+=`
//!   and never zero), so every bin sees its records in exactly the
//!   global row order; the vertex total rides a resumable
//!   four-lane accumulator (`LaneAccumulator`) whose state travels with
//!   the lanes. Workers bin with local training's columnar kernels
//!   (`NodeHistogram::bin_columns` over the shard's mirror). The lanes
//!   cross the wire occupancy-coded ([`lanes`]): a bin with count 0 was
//!   never added to, so leaving it out is exact. A vertex the engine
//!   will not scan (a child at `max_depth`) ships no lanes at all —
//!   only the accumulator makes the round (`StepExecutor::vertex_total`).
//! - *Step 3*: each worker partitions its shard's rows with the stable
//!   count-then-scatter kernel; concatenating the per-worker halves in
//!   shard order *is* the global stable partition — fully parallel.
//! - *Step 5*: all workers traverse their shards in parallel with local
//!   training's lane walk (`booster_gbdt::walk::TreeWalk`; margins,
//!   gradients and per-record loss values are shard-local; the path-sum
//!   is an exact integer reduction), then a cheap chained fold in shard
//!   order reproduces the sequential loss accumulation bit for bit.
//!
//! Control flow (sampling draws, split choices, early stopping) lives
//! entirely in the coordinator's engine loop, which is the same code
//! local training runs — identical by construction, not by re-implementation.
//!
//! Scope: scalar objectives (squared error, logistic, pinball
//! quantile). Softmax and LambdaRank run their step-5 loops outside the
//! executor and return [`error::DistError::Unsupported`].

#![warn(missing_docs)]

pub mod comm;
pub mod coordinator;
pub mod error;
pub mod fault;
pub mod lanes;
pub mod proto;
pub mod shard;
pub mod worker;

pub use comm::{ChannelComm, Comm, CommStats, FrameEvent, TcpComm};
pub use coordinator::{
    train_distributed, train_distributed_threads, train_distributed_with_eval, BinEvent,
    BlockShape, DistExec, DistOutcome, DistStats, DistSummary, TotalEvent,
};
pub use error::DistError;
pub use fault::{FaultKind, FaultyComm};
pub use lanes::LaneBlock;
pub use shard::ShardPlan;
pub use worker::{serve_worker_tcp, WorkerState};
