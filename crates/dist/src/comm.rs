//! Coordinator-side transports.
//!
//! One [`Comm`] trait, two implementations: [`ChannelComm`] spawns each
//! worker as an in-process thread behind an mpsc pair (tests, benches),
//! [`TcpComm`] connects to workers over localhost TCP using the
//! length-prefixed frame codec shared with the scoring service. Both
//! bound every receive by a timeout, so a sick worker surfaces as
//! [`DistError::Timeout`] instead of hanging the coordinator, and both
//! keep per-op traffic counters ([`CommStats`]) that the simulator's
//! traffic model is checked against.

use std::io::BufReader;
use std::net::{SocketAddr, TcpStream};
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender};
use std::thread::JoinHandle;
use std::time::Duration;

use booster_gbdt::preprocess::BinnedDataset;
use booster_serve::frame::{read_frame_limit, write_frame_vectored, DIST_MAX_FRAME_BYTES};

use crate::error::DistError;
use crate::worker::{serve_channel, WorkerState};

/// One frame crossing the coordinator's edge of the transport.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameEvent {
    /// `true` if the coordinator sent it, `false` if it received it.
    pub sent: bool,
    /// The worker on the other end.
    pub worker: usize,
    /// The payload's op byte (first payload byte; `0` for an empty payload).
    pub op: u8,
    /// Payload size in bytes (the wire adds a 4-byte length prefix).
    pub payload_bytes: u32,
}

/// Traffic accounting at the coordinator's edge: totals, per-op bytes
/// and an ordered per-frame log. Payload bytes only — add 4 bytes of
/// length prefix per frame for wire bytes.
#[derive(Debug, Clone, Default)]
pub struct CommStats {
    /// Frames sent by the coordinator.
    pub frames_sent: u64,
    /// Frames received by the coordinator.
    pub frames_received: u64,
    /// Payload bytes sent.
    pub payload_bytes_sent: u64,
    /// Payload bytes received.
    pub payload_bytes_received: u64,
    /// Payload bytes (both directions) keyed by op byte.
    pub bytes_by_op: [u64; 32],
    /// Every frame in order — lets tests group traffic per exchange.
    pub frame_log: Vec<FrameEvent>,
}

/// Human-readable label for a distributed-protocol op byte, used to
/// key the global telemetry counters.
pub(crate) fn op_label(op: u8) -> &'static str {
    use crate::proto::*;
    match op {
        OP_INIT => "init",
        OP_INIT_DONE => "init_done",
        OP_BUILD_HIST => "build_hist",
        OP_HIST_DONE => "hist_done",
        OP_PART => "part",
        OP_PART_DONE => "part_done",
        OP_TRAVERSE => "traverse",
        OP_TRAV_DONE => "trav_done",
        OP_FOLD_LOSS => "fold_loss",
        OP_SHUTDOWN => "shutdown",
        OP_ERR => "err",
        OP_VERTEX_TOTAL => "vertex_total",
        OP_TOTAL_DONE => "total_done",
        _ => "other",
    }
}

impl CommStats {
    fn record(&mut self, sent: bool, worker: usize, payload: &[u8]) {
        let op = payload.first().copied().unwrap_or(0);
        let bytes = payload.len() as u64;
        if sent {
            self.frames_sent += 1;
            self.payload_bytes_sent += bytes;
        } else {
            self.frames_received += 1;
            self.payload_bytes_received += bytes;
        }
        self.bytes_by_op[usize::from(op).min(31)] += bytes;
        self.frame_log.push(FrameEvent { sent, worker, op, payload_bytes: payload.len() as u32 });

        // Mirror into the process-wide registry. `CommStats` itself stays
        // the exact per-transport record the simulator is pinned against;
        // these aggregate across every transport in the process.
        let g = booster_obs::global();
        let dir = if sent { "sent" } else { "received" };
        g.counter("dist_frames_total", &[("dir", dir), ("op", op_label(op))]).inc();
        g.counter("dist_payload_bytes_total", &[("dir", dir), ("op", op_label(op))]).add(bytes);
    }

    /// Payload bytes (both directions) carried by frames with `op`.
    pub fn bytes_for_op(&self, op: u8) -> u64 {
        self.bytes_by_op[usize::from(op).min(31)]
    }

    /// Total bytes on the wire in both directions, including the 4-byte
    /// length prefix of every frame.
    pub fn wire_bytes(&self) -> u64 {
        self.payload_bytes_sent
            + self.payload_bytes_received
            + 4 * (self.frames_sent + self.frames_received)
    }
}

/// A coordinator-side transport to N workers. Point-to-point and
/// blocking: `send` enqueues or writes one frame, `recv` waits (bounded
/// by the transport's timeout) for the next frame from one worker.
pub trait Comm {
    /// Number of workers on the other side.
    fn num_workers(&self) -> usize;

    /// Send one frame payload to `worker`.
    ///
    /// # Errors
    /// Fails if the link is closed or the write fails.
    fn send(&mut self, worker: usize, payload: &[u8]) -> Result<(), DistError>;

    /// Receive the next frame payload from `worker`, bounded by the
    /// transport's read timeout.
    ///
    /// # Errors
    /// [`DistError::Timeout`] if nothing arrives in time,
    /// [`DistError::Disconnected`] if the link closed, [`DistError::Io`]
    /// otherwise.
    fn recv(&mut self, worker: usize) -> Result<Vec<u8>, DistError>;

    /// Traffic counters accumulated so far.
    fn stats(&self) -> &CommStats;
}

// ---------------------------------------------------------------------
// In-process channels
// ---------------------------------------------------------------------

struct ChannelLink {
    tx: Sender<Vec<u8>>,
    rx: Receiver<Vec<u8>>,
}

/// In-process transport: each worker is a named thread running
/// [`serve_channel`] behind an unbounded mpsc pair. Dropping the comm
/// closes the request channels (workers exit) and joins the threads.
pub struct ChannelComm {
    links: Vec<ChannelLink>,
    handles: Vec<JoinHandle<()>>,
    timeout: Duration,
    stats: CommStats,
}

impl ChannelComm {
    /// Spawn one worker thread per shard.
    ///
    /// # Panics
    /// Panics if a worker thread cannot be spawned.
    pub fn spawn(shards: Vec<BinnedDataset>, timeout: Duration) -> ChannelComm {
        let mut links = Vec::with_capacity(shards.len());
        let mut handles = Vec::with_capacity(shards.len());
        for (k, shard) in shards.into_iter().enumerate() {
            let (tx_req, rx_req) = std::sync::mpsc::channel::<Vec<u8>>();
            let (tx_rep, rx_rep) = std::sync::mpsc::channel::<Vec<u8>>();
            let handle = std::thread::Builder::new()
                .name(format!("dist-worker-{k}"))
                .spawn(move || serve_channel(WorkerState::new(shard), rx_req, tx_rep))
                .expect("spawn worker thread");
            links.push(ChannelLink { tx: tx_req, rx: rx_rep });
            handles.push(handle);
        }
        ChannelComm { links, handles, timeout, stats: CommStats::default() }
    }
}

impl Comm for ChannelComm {
    fn num_workers(&self) -> usize {
        self.links.len()
    }

    fn send(&mut self, worker: usize, payload: &[u8]) -> Result<(), DistError> {
        self.stats.record(true, worker, payload);
        self.links[worker].tx.send(payload.to_vec()).map_err(|_| DistError::Disconnected { worker })
    }

    fn recv(&mut self, worker: usize) -> Result<Vec<u8>, DistError> {
        match self.links[worker].rx.recv_timeout(self.timeout) {
            Ok(payload) => {
                self.stats.record(false, worker, &payload);
                Ok(payload)
            }
            Err(RecvTimeoutError::Timeout) => Err(DistError::Timeout { worker }),
            Err(RecvTimeoutError::Disconnected) => Err(DistError::Disconnected { worker }),
        }
    }

    fn stats(&self) -> &CommStats {
        &self.stats
    }
}

impl Drop for ChannelComm {
    fn drop(&mut self) {
        // Closing the request channels makes every worker's `recv` fail,
        // so the serve loops exit even if no Shutdown frame was sent
        // (e.g. the coordinator bailed with an error).
        self.links.clear();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

// ---------------------------------------------------------------------
// Localhost TCP
// ---------------------------------------------------------------------

struct TcpLink {
    reader: BufReader<TcpStream>,
    /// Unbuffered: every send is one whole frame, written at once.
    writer: TcpStream,
}

/// TCP transport: one connection per worker, length-prefixed frames
/// (shared codec with the scoring service, distributed frame cap),
/// `TCP_NODELAY`, and a read timeout on every receive.
pub struct TcpComm {
    links: Vec<TcpLink>,
    stats: CommStats,
}

impl TcpComm {
    /// Connect to one worker per address and arm the read timeout.
    ///
    /// # Errors
    /// Fails if any connection or socket option fails.
    pub fn connect(addrs: &[SocketAddr], timeout: Duration) -> Result<TcpComm, DistError> {
        let mut links = Vec::with_capacity(addrs.len());
        for addr in addrs {
            let stream = TcpStream::connect(addr).map_err(|e| DistError::Io(e.to_string()))?;
            stream.set_nodelay(true).ok();
            stream.set_read_timeout(Some(timeout)).map_err(|e| DistError::Io(e.to_string()))?;
            let reader =
                BufReader::new(stream.try_clone().map_err(|e| DistError::Io(e.to_string()))?);
            links.push(TcpLink { reader, writer: stream });
        }
        Ok(TcpComm { links, stats: CommStats::default() })
    }
}

impl Comm for TcpComm {
    fn num_workers(&self) -> usize {
        self.links.len()
    }

    fn send(&mut self, worker: usize, payload: &[u8]) -> Result<(), DistError> {
        self.stats.record(true, worker, payload);
        write_frame_vectored(&mut self.links[worker].writer, payload).map_err(|e| match e.kind() {
            std::io::ErrorKind::BrokenPipe | std::io::ErrorKind::ConnectionReset => {
                DistError::Disconnected { worker }
            }
            _ => DistError::Io(e.to_string()),
        })
    }

    fn recv(&mut self, worker: usize) -> Result<Vec<u8>, DistError> {
        match read_frame_limit(&mut self.links[worker].reader, DIST_MAX_FRAME_BYTES) {
            Ok(Some(payload)) => {
                self.stats.record(false, worker, &payload);
                Ok(payload)
            }
            Ok(None) => Err(DistError::Disconnected { worker }),
            Err(e) => Err(DistError::from_read(worker, e)),
        }
    }

    fn stats(&self) -> &CommStats {
        &self.stats
    }
}
