//! Fault-injection tests for the distributed transport.
//!
//! The contract under fire: a sick cluster surfaces as a **typed**
//! [`DistError`] — never a panic, never an unbounded hang. Receives are
//! bounded by the transport's read timeout, every reply's sequence echo
//! is verified (dropped and duplicated frames become protocol errors),
//! and workers answer undecodable or out-of-range requests with typed
//! error frames instead of dying.

use std::io::Write;
use std::net::TcpListener;
use std::time::{Duration, Instant};

use booster_repro::datagen::{default_objective, generate_binned, Benchmark};
use booster_repro::dist::proto::Msg;
use booster_repro::dist::{
    train_distributed, ChannelComm, DistError, FaultKind, FaultyComm, ShardPlan, TcpComm,
    WorkerState,
};
use booster_repro::gbdt::columnar::ColumnarMirror;
use booster_repro::gbdt::gradients::Loss;
use booster_repro::gbdt::preprocess::BinnedDataset;
use booster_repro::gbdt::train::TrainConfig;
use booster_repro::serve::frame::{read_frame_limit, write_frame, DIST_MAX_FRAME_BYTES};

/// Short timeout so drop-faults resolve quickly; generous enough that a
/// healthy in-process worker never trips it.
const TIMEOUT: Duration = Duration::from_millis(500);

/// Hard ceiling on any faulted run — the "never hangs" assertion.
const DEADLINE: Duration = Duration::from_secs(30);

fn small_case() -> (BinnedDataset, ColumnarMirror, TrainConfig) {
    let (data, mirror) = generate_binned(Benchmark::Iot, 80, 9);
    let cfg = TrainConfig {
        num_trees: 2,
        max_depth: 3,
        objective: default_objective(Benchmark::Iot),
        ..Default::default()
    };
    (data, mirror, cfg)
}

/// Run one faulted distributed training over in-process channels.
fn run_faulted(at_frame: u64, kind: FaultKind) -> Result<(), DistError> {
    let (data, mirror, cfg) = small_case();
    let plan = ShardPlan::even(data.num_records(), 2);
    let shards = plan.shard(&data).expect("plan covers the dataset");
    let comm = FaultyComm::new(ChannelComm::spawn(shards, TIMEOUT), at_frame, kind);
    let start = Instant::now();
    let out = train_distributed(&data, &mirror, &cfg, comm, &plan).map(|_| ());
    assert!(start.elapsed() < DEADLINE, "faulted run must stay bounded");
    out
}

#[test]
fn dropped_frame_times_out_with_a_typed_error() {
    // Frame 2 is the first Step-1 request (0 and 1 are the two inits):
    // the worker never sees it, so the coordinator's receive times out.
    let err = run_faulted(2, FaultKind::DropFrame).unwrap_err();
    assert!(matches!(err, DistError::Timeout { .. }), "expected Timeout, got {err:?}");
}

#[test]
fn dropped_init_times_out_too() {
    let err = run_faulted(0, FaultKind::DropFrame).unwrap_err();
    assert!(matches!(err, DistError::Timeout { worker: 0 }), "expected Timeout, got {err:?}");
}

#[test]
fn duplicated_frame_desynchronises_the_sequence_echo() {
    // The duplicate's second reply sits in the channel; the next
    // exchange with that worker reads it and sees a stale echo.
    let err = run_faulted(2, FaultKind::Duplicate).unwrap_err();
    assert!(matches!(err, DistError::Protocol(_)), "expected Protocol, got {err:?}");
}

#[test]
fn truncated_frame_is_rejected_by_the_worker() {
    // A 3-byte Init stub: the worker cannot decode it and answers with
    // a typed error frame, which surfaces as Remote.
    let err = run_faulted(0, FaultKind::Truncate(3)).unwrap_err();
    assert!(matches!(err, DistError::Remote { worker: 0, .. }), "expected Remote, got {err:?}");
}

#[test]
fn corrupted_op_byte_is_rejected_by_the_worker() {
    let err = run_faulted(1, FaultKind::XorByte(0)).unwrap_err();
    assert!(matches!(err, DistError::Remote { worker: 1, .. }), "expected Remote, got {err:?}");
}

/// The sweep: XOR-corrupt one byte at seeded (frame, offset) points all
/// over the session. Any outcome is acceptable *except* a panic or a
/// hang; errors must be typed. (An unlucky flip can also yield a
/// different-but-valid frame — the run then completes; the identity
/// tests are what guard the healthy path's bits.)
#[test]
fn seeded_corruption_sweep_never_panics_or_hangs() {
    for point in 0u64..12 {
        let at_frame = point * 3;
        let offset = (point as usize) * 7 + 1;
        let _ = run_faulted(at_frame, FaultKind::XorByte(offset));
        let _ = run_faulted(at_frame, FaultKind::Truncate(point as usize));
    }
}

/// Real Step-1 frames off a worker, corrupted one byte at a time and
/// cut at every length: a carried lane block in each mode (sparse from
/// a one-hot shard, dense from a numeric one) and a totals-only
/// request. The decoder answers every one with a typed error or a
/// valid message, and so does the worker behind it — bitmap, occupancy
/// count, mode byte, bin count and accumulator included — without
/// panicking and without allocating past the frame it was handed.
#[test]
fn corrupted_step1_frames_are_typed_errors_at_every_byte() {
    // Half of a one-hot shard leaves most bins empty; all of a numeric
    // shard whose bins were cut from these very records fills them.
    for (bench, first_rows, want_sparse) in
        [(Benchmark::Allstate, 8u32, true), (Benchmark::Higgs, 16, false)]
    {
        let (shard, _) = generate_binned(bench, 16, 13);
        let mut worker = WorkerState::new(shard);
        let init = Msg::Init { seq: 1, loss: Loss::SquaredError, base_score: 0.5 };
        worker.handle_payload(&init.encode()).expect("init reply");
        // Link 1 of a chain; its reply is link 2's carry.
        let first = Msg::BuildHist { seq: 2, rows: (0..first_rows).collect(), carry: None };
        let reply = worker.handle_payload(&first.encode()).expect("hist reply");
        let Ok(Msg::HistDone { lanes, .. }) = Msg::decode(&reply) else {
            panic!("{}: expected HistDone", bench.name())
        };
        assert_eq!(lanes.block.is_sparse(), want_sparse, "{}", bench.name());
        let acc = lanes.acc;
        let frames = [
            Msg::BuildHist { seq: 3, rows: (8..16).collect(), carry: Some(lanes) }.encode(),
            Msg::VertexTotal { seq: 4, rows: (8..16).collect(), acc }.encode(),
            reply,
        ];
        for frame in &frames {
            assert!(Msg::decode(frame).is_ok());
            let mut attempts = 0usize;
            for at in 0..frame.len() {
                for flip in [0x01u8, 0xFF] {
                    let mut bad = frame.clone();
                    bad[at] ^= flip;
                    if let Err(e) = Msg::decode(&bad) {
                        assert!(matches!(e, DistError::Protocol(_)), "byte {at}: {e:?}");
                    }
                    // The worker behind the decoder: the head of the
                    // frame (op, seq, row count, rows) and a stride
                    // through the lanes, which dominate its length.
                    if flip == 0xFF && (at < 128 || at % 61 == 0) {
                        let answer = worker.handle_payload(&bad).expect("a reply, never a hangup");
                        assert!(Msg::decode(&answer).is_ok(), "byte {at}: reply must decode");
                        attempts += 1;
                    }
                }
                assert!(Msg::decode(&frame[..at]).is_err(), "prefix {at} decoded");
            }
            assert!(attempts >= 128.min(frame.len()));
        }
    }
}

/// A TCP worker that serves `max_frames` requests and then drops the
/// connection — a worker dying mid-level.
fn flaky_tcp_worker(shard: BinnedDataset, listener: TcpListener, max_frames: usize) {
    let (stream, _) = listener.accept().expect("accept");
    let mut reader = std::io::BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = std::io::BufWriter::new(stream);
    let mut state = WorkerState::new(shard);
    for _ in 0..max_frames {
        let Ok(Some(payload)) = read_frame_limit(&mut reader, DIST_MAX_FRAME_BYTES) else {
            return;
        };
        match state.handle_payload(&payload) {
            Some(reply) => {
                if write_frame(&mut writer, &reply).and_then(|()| writer.flush()).is_err() {
                    return;
                }
            }
            None => return,
        }
    }
    // Drop the socket mid-session.
}

#[test]
fn tcp_worker_disconnect_mid_level_is_a_typed_error() {
    let (data, mirror, cfg) = small_case();
    let plan = ShardPlan::even(data.num_records(), 2);
    let shards = plan.shard(&data).expect("plan covers the dataset");
    let mut addrs = Vec::new();
    let mut handles = Vec::new();
    for (k, shard) in shards.into_iter().enumerate() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        addrs.push(listener.local_addr().expect("addr"));
        // Worker 1 dies after 3 frames — init plus a level's worth.
        let max = if k == 1 { 3 } else { usize::MAX };
        handles.push(std::thread::spawn(move || flaky_tcp_worker(shard, listener, max)));
    }
    let comm = TcpComm::connect(&addrs, TIMEOUT).expect("connect");
    let start = Instant::now();
    let err = train_distributed(&data, &mirror, &cfg, comm, &plan).unwrap_err();
    assert!(start.elapsed() < DEADLINE, "disconnect must resolve within the timeout");
    assert!(
        matches!(
            err,
            DistError::Disconnected { worker: 1 }
                | DistError::Timeout { worker: 1 }
                | DistError::Io(_)
        ),
        "expected a typed transport error for worker 1, got {err:?}"
    );
    for h in handles {
        h.join().expect("worker thread");
    }
}
