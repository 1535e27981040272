//! Worker side of the distributed trainer.
//!
//! A worker owns one shard of the training data (its own
//! [`BinnedDataset`] plus columnar mirror) and the per-record state the
//! record-heavy steps need: margins, gradient pairs and the last
//! traversal's per-record loss values. It is **row-stateless across
//! requests** — every request names the rows it touches in worker-local
//! ids — so the coordinator's engine loop is the only place training
//! control flow exists.
//!
//! Workers never panic on wire input: every request is validated
//! (row ids against the shard size, field ids against the schema,
//! lane lengths against the histogram shape) and failures are reported
//! back as [`Msg::Err`] frames, which the coordinator converts into
//! [`DistError::Remote`].

use std::io::BufReader;
use std::net::{TcpListener, TcpStream};

use booster_gbdt::columnar::ColumnarMirror;
use booster_gbdt::gradients::{GradPair, Loss};
use booster_gbdt::histogram::{LaneAccumulator, NodeHistogram};
use booster_gbdt::partition::partition_rows;
use booster_gbdt::preprocess::BinnedDataset;
use booster_gbdt::tree::Tree;
use booster_gbdt::walk::TreeWalk;
use booster_serve::frame::{read_frame_limit, write_frame_vectored, DIST_MAX_FRAME_BYTES};

use crate::error::DistError;
use crate::lanes::LaneBlock;
use crate::proto::{Msg, WireLanes};

/// One worker's shard and mutable training state.
pub struct WorkerState {
    data: BinnedDataset,
    mirror: ColumnarMirror,
    hist: NodeHistogram,
    loss: Option<Loss>,
    margins: Vec<f64>,
    grads: Vec<GradPair>,
    /// Per-record loss values from the last traverse, consumed by the
    /// chained loss fold.
    loss_vals: Vec<f64>,
}

impl WorkerState {
    /// Build a worker around its shard. No training state exists until
    /// the coordinator's `Init` arrives.
    pub fn new(shard: BinnedDataset) -> WorkerState {
        let mirror = ColumnarMirror::from_binned(&shard);
        let hist = NodeHistogram::zeroed(&shard);
        WorkerState {
            data: shard,
            mirror,
            hist,
            loss: None,
            margins: Vec::new(),
            grads: Vec::new(),
            loss_vals: Vec::new(),
        }
    }

    /// Shard size.
    pub fn num_records(&self) -> usize {
        self.data.num_records()
    }

    /// Handle one raw frame payload. Returns the reply payload, or
    /// `None` for `Shutdown` (the serve loop exits). Handler failures —
    /// including undecodable requests — become encoded [`Msg::Err`]
    /// replies, never panics.
    pub fn handle_payload(&mut self, payload: &[u8]) -> Option<Vec<u8>> {
        let msg = match Msg::decode(payload) {
            Ok(m) => m,
            Err(e) => return Some(Msg::Err { seq: 0, msg: e.to_string() }.encode()),
        };
        if matches!(msg, Msg::Shutdown { .. }) {
            return None;
        }
        let seq = msg.seq();
        let reply = match self.handle_msg(msg) {
            Ok(reply) => reply,
            Err(e) => Msg::Err { seq, msg: e.to_string() },
        };
        Some(reply.encode())
    }

    fn handle_msg(&mut self, msg: Msg) -> Result<Msg, DistError> {
        match msg {
            Msg::Init { seq, loss, base_score } => {
                self.init(loss, base_score);
                Ok(Msg::InitDone { seq, records: self.data.num_records() as u64 })
            }
            Msg::BuildHist { seq, rows, carry } => {
                let lanes = self.build_hist(&rows, carry)?;
                Ok(Msg::HistDone { seq, lanes })
            }
            Msg::VertexTotal { seq, rows, mut acc } => {
                self.require_init()?;
                self.fold_total(&rows, &mut acc)?;
                Ok(Msg::TotalDone { seq, acc })
            }
            Msg::Part { seq, field, rule, default_left, absent, rows } => {
                self.check_rows(&rows)?;
                let nf = self.data.num_fields();
                if field as usize >= nf {
                    return Err(DistError::Protocol(format!(
                        "partition field {field} out of range (shard has {nf} fields)"
                    )));
                }
                let (left, right) = partition_rows(
                    &rows,
                    self.mirror.column(field as usize),
                    rule,
                    default_left,
                    absent,
                );
                Ok(Msg::PartDone { seq, left, right })
            }
            Msg::Traverse { seq, tree } => {
                let sum_path = self.traverse(&tree)?;
                Ok(Msg::TravDone { seq, sum_path })
            }
            Msg::FoldLoss { seq, carry } => {
                // The chained sequential fold: exactly the order local
                // training adds per-record loss values, restricted to
                // this shard's contiguous stretch of it.
                let mut acc = carry;
                for &lv in &self.loss_vals {
                    acc += lv;
                }
                Ok(Msg::FoldLoss { seq, carry: acc })
            }
            other => {
                Err(DistError::Protocol(format!("unexpected request op {} at worker", other.op())))
            }
        }
    }

    /// Mirror of the engine's scalar-loss opening, restricted to the
    /// shard: every record starts at `base_score` and gets its first
    /// gradient pair and loss value from there.
    fn init(&mut self, loss: Loss, base_score: f64) {
        let n = self.data.num_records();
        self.loss = Some(loss);
        self.margins.clear();
        self.margins.resize(n, base_score);
        self.grads.clear();
        self.loss_vals.clear();
        for r in 0..n {
            let (gp, lv) = loss.grad_value(base_score, f64::from(self.data.labels()[r]));
            self.grads.push(gp);
            self.loss_vals.push(lv);
        }
    }

    fn check_rows(&self, rows: &[u32]) -> Result<(), DistError> {
        let n = self.data.num_records() as u32;
        if let Some(&bad) = rows.iter().find(|&&r| r >= n) {
            return Err(DistError::Protocol(format!(
                "row id {bad} out of range (shard has {n} records)"
            )));
        }
        Ok(())
    }

    fn require_init(&self) -> Result<Loss, DistError> {
        self.loss.ok_or_else(|| DistError::Protocol("worker not initialised".into()))
    }

    /// Continue the chained vertex total over this shard's `rows`: the
    /// whole of a [`Msg::VertexTotal`] exchange, and the total half of
    /// a histogram build.
    fn fold_total(&self, rows: &[u32], acc: &mut LaneAccumulator) -> Result<(), DistError> {
        self.check_rows(rows)?;
        for &r in rows {
            acc.push(self.grads[r as usize]);
        }
        Ok(())
    }

    /// Step 1 on the shard: continue the running histogram (or start it)
    /// by binning this shard's rows *into* it — the binning kernels
    /// accumulate and never zero, so the chain reproduces the global
    /// row-order fold bit for bit. The carried block is scattered
    /// straight into the shard histogram's lanes and the reply encoded
    /// straight out of them; the vertex-total accumulator resumes from
    /// the carried `(lanes, pos)` state.
    fn build_hist(
        &mut self,
        rows: &[u32],
        carry: Option<WireLanes>,
    ) -> Result<WireLanes, DistError> {
        self.require_init()?;
        let mut acc = carry.as_ref().map_or_else(LaneAccumulator::new, |c| c.acc);
        self.fold_total(rows, &mut acc)?;
        match carry {
            Some(c) => {
                let nbins = self.hist.total_bins();
                if c.block.nbins() != nbins {
                    return Err(DistError::Protocol(format!(
                        "carried lanes have {} bins, shard histogram has {nbins}",
                        c.block.nbins()
                    )));
                }
                let (grad, hess, count) = self.hist.raw_lanes_mut();
                c.block.scatter_into(grad, hess, count);
            }
            None => self.hist.reset(),
        }
        // The columnar kernels local training bins with. Rows come off
        // the wire, so "as many rows as records" is not yet "the full
        // ascending range": the dense stream is taken only when it is.
        let n = self.data.num_records();
        let identity = rows.len() == n && rows.iter().enumerate().all(|(i, &r)| r == i as u32);
        self.hist.bin_columns(&self.mirror, (!identity).then_some(rows), &self.grads);
        let (grad, hess, count) = self.hist.raw_lanes();
        Ok(WireLanes { block: LaneBlock::from_lanes(grad, hess, count), acc })
    }

    /// Step 5 on the shard: apply the finished tree to every record
    /// through the lane walk local training runs, refresh margins,
    /// gradients and stored per-record loss values, and return the
    /// shard's traversal path sum (integer — exact in any reduction
    /// order).
    fn traverse(&mut self, tree: &Tree) -> Result<u64, DistError> {
        let loss = self.require_init()?;
        // The lowering is the wire check: children in range and
        // strictly forward, one parent each, fields inside the shard's
        // schema — all before the walk's unchecked indexing.
        let walk = TreeWalk::lower(tree, &self.data)
            .map_err(|e| DistError::Protocol(format!("traverse tree rejected: {e}")))?;
        let loss_vals = &mut self.loss_vals;
        Ok(walk.traverse_update(
            &self.data,
            0,
            loss,
            self.data.labels(),
            &mut self.margins,
            &mut self.grads,
            |r, value| loss_vals[r] = value,
        ))
    }
}

/// Serve a worker over an in-process channel pair: handle requests
/// until `Shutdown` arrives or either channel closes.
pub fn serve_channel(
    mut state: WorkerState,
    rx: std::sync::mpsc::Receiver<Vec<u8>>,
    tx: std::sync::mpsc::Sender<Vec<u8>>,
) {
    while let Ok(payload) = rx.recv() {
        match state.handle_payload(&payload) {
            Some(reply) => {
                if tx.send(reply).is_err() {
                    return;
                }
            }
            None => return,
        }
    }
}

/// Serve a worker over one TCP connection: accept a single coordinator,
/// then handle frames until `Shutdown` or EOF. Uses the shared
/// length-prefixed codec with the distributed frame cap.
///
/// # Errors
/// Propagates accept/read/write failures; a clean shutdown or peer
/// disconnect returns `Ok(())`.
pub fn serve_worker_tcp(shard: BinnedDataset, listener: TcpListener) -> std::io::Result<()> {
    let (stream, _peer) = listener.accept()?;
    stream.set_nodelay(true).ok();
    serve_stream(WorkerState::new(shard), stream)
}

fn serve_stream(mut state: WorkerState, mut stream: TcpStream) -> std::io::Result<()> {
    let mut reader = BufReader::new(stream.try_clone()?);
    loop {
        let Some(payload) = read_frame_limit(&mut reader, DIST_MAX_FRAME_BYTES)? else {
            return Ok(()); // coordinator hung up
        };
        match state.handle_payload(&payload) {
            Some(reply) => write_frame_vectored(&mut stream, &reply)?,
            None => return Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use booster_gbdt::split::SplitRule;
    use booster_gbdt::tree::Node;

    fn tiny_shard() -> BinnedDataset {
        booster_datagen::generate_binned(booster_datagen::Benchmark::Iot, 32, 7).0
    }

    /// A block's lanes, decoded.
    fn lanes_of(block: &LaneBlock) -> (Vec<f64>, Vec<f64>, Vec<u64>) {
        let n = block.nbins();
        let (mut g, mut h, mut c) = (vec![1.0; n], vec![1.0; n], vec![1u64; n]);
        block.scatter_into(&mut g, &mut h, &mut c);
        (g, h, c)
    }

    #[test]
    fn init_then_hist_round_trip() {
        let mut w = WorkerState::new(tiny_shard());
        let init = Msg::Init { seq: 1, loss: Loss::SquaredError, base_score: 0.5 }.encode();
        let reply = Msg::decode(&w.handle_payload(&init).unwrap()).unwrap();
        assert_eq!(reply, Msg::InitDone { seq: 1, records: 32 });

        let req = Msg::BuildHist { seq: 2, rows: (0..32).collect(), carry: None }.encode();
        let reply = Msg::decode(&w.handle_payload(&req).unwrap()).unwrap();
        match reply {
            Msg::HistDone { seq, lanes } => {
                assert_eq!(seq, 2);
                assert_eq!(lanes.acc.count(), 32);
                let (_, _, count) = lanes_of(&lanes.block);
                assert_eq!(count.iter().sum::<u64>(), 32 * w.data.num_fields() as u64);
            }
            other => panic!("unexpected reply {other:?}"),
        }
    }

    #[test]
    fn uninitialised_hist_request_is_a_typed_error() {
        let mut w = WorkerState::new(tiny_shard());
        let req = Msg::BuildHist { seq: 9, rows: vec![0], carry: None }.encode();
        let reply = Msg::decode(&w.handle_payload(&req).unwrap()).unwrap();
        assert!(matches!(reply, Msg::Err { seq: 9, .. }));
        let req = Msg::VertexTotal { seq: 10, rows: vec![0], acc: LaneAccumulator::new() };
        let reply = Msg::decode(&w.handle_payload(&req.encode()).unwrap()).unwrap();
        assert!(matches!(reply, Msg::Err { seq: 10, .. }));
    }

    /// A totals-only chain cut anywhere folds to the bits of the
    /// one-shot reduction a local histogram build ends with.
    #[test]
    fn chained_vertex_total_matches_the_local_reduction() {
        let mut w = initialised(tiny_shard());
        let rows: Vec<u32> = (0..32).filter(|r| r % 3 != 1).collect();
        let want = booster_gbdt::histogram::sum_grad_pairs(&rows, &w.grads);
        for cut in [0, 1, 7, rows.len()] {
            let mut acc = LaneAccumulator::new();
            for (seq, piece) in [&rows[..cut], &rows[cut..]].into_iter().enumerate() {
                let req = Msg::VertexTotal { seq: seq as u32, rows: piece.to_vec(), acc };
                match Msg::decode(&w.handle_payload(&req.encode()).unwrap()).unwrap() {
                    Msg::TotalDone { acc: folded, .. } => acc = folded,
                    other => panic!("unexpected reply {other:?}"),
                }
            }
            assert_eq!(acc.count(), rows.len() as u64);
            let got = acc.finish();
            assert_eq!((got.g.to_bits(), got.h.to_bits()), (want.g.to_bits(), want.h.to_bits()));
        }
    }

    #[test]
    fn out_of_range_rows_and_fields_are_typed_errors() {
        let mut w = WorkerState::new(tiny_shard());
        let init = Msg::Init { seq: 1, loss: Loss::SquaredError, base_score: 0.0 }.encode();
        w.handle_payload(&init).unwrap();

        let req = Msg::BuildHist { seq: 2, rows: vec![999], carry: None }.encode();
        let reply = Msg::decode(&w.handle_payload(&req).unwrap()).unwrap();
        assert!(matches!(reply, Msg::Err { seq: 2, .. }));
        let req = Msg::VertexTotal { seq: 2, rows: vec![999], acc: LaneAccumulator::new() };
        let reply = Msg::decode(&w.handle_payload(&req.encode()).unwrap()).unwrap();
        assert!(matches!(reply, Msg::Err { seq: 2, .. }));

        let req = Msg::Part {
            seq: 3,
            field: 4000,
            rule: SplitRule::Numeric { threshold_bin: 1 },
            default_left: true,
            absent: 0,
            rows: vec![0, 1],
        }
        .encode();
        let reply = Msg::decode(&w.handle_payload(&req).unwrap()).unwrap();
        assert!(matches!(reply, Msg::Err { seq: 3, .. }));
    }

    fn initialised(shard: BinnedDataset) -> WorkerState {
        let mut w = WorkerState::new(shard);
        let init = Msg::Init { seq: 1, loss: Loss::Logistic, base_score: 0.25 }.encode();
        w.handle_payload(&init).unwrap();
        w
    }

    fn internal(field: u32, left: u32, right: u32) -> Node {
        let rule = SplitRule::Numeric { threshold_bin: 1 };
        Node::Internal { field, rule, default_left: false, left, right }
    }

    #[test]
    fn full_length_row_lists_are_binned_in_their_own_order() {
        // As many rows as the shard has records, but not the identity
        // range: a reversed list and one with a repeated id. The dense
        // stream must not be taken on length alone — the reply has to be
        // what the row-major kernel gives for exactly these rows.
        let shard = tiny_shard();
        let reversed: Vec<u32> = (0..32).rev().collect();
        let mut repeated: Vec<u32> = (0..32).collect();
        repeated[31] = 0;
        for rows in [reversed, repeated, (0..32).collect()] {
            let mut w = initialised(shard.clone());
            let mut oracle = NodeHistogram::zeroed(&shard);
            oracle.bin_records(&shard, &rows, &w.grads);
            let (grad, hess, count) = oracle.raw_lanes();
            let req = Msg::BuildHist { seq: 2, rows: rows.clone(), carry: None }.encode();
            match Msg::decode(&w.handle_payload(&req).unwrap()).unwrap() {
                Msg::HistDone { lanes, .. } => {
                    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    let (g, h, c) = lanes_of(&lanes.block);
                    assert_eq!(bits(&g), bits(grad), "rows {rows:?}");
                    assert_eq!(bits(&h), bits(hess), "rows {rows:?}");
                    assert_eq!(c, count, "rows {rows:?}");
                }
                other => panic!("unexpected reply {other:?}"),
            }
        }
    }

    #[test]
    fn malformed_traverse_trees_are_typed_errors() {
        let mut w = initialised(tiny_shard());
        let leaf = || Node::Leaf { weight: 0.5 };
        // The frame decoder already refuses children that are out of
        // range or not forward, so those reach the handler directly.
        let cases = [
            ("out-of-range child", vec![internal(0, 1, 9), leaf(), leaf()]),
            ("backward child", vec![internal(0, 1, 2), internal(0, 0, 3), leaf(), leaf()]),
            ("field past the schema", vec![internal(4000, 1, 2), leaf(), leaf()]),
            ("shared child", vec![internal(0, 1, 1), leaf()]),
        ];
        for (what, nodes) in cases {
            match w.handle_msg(Msg::Traverse { seq: 5, tree: Tree::new(nodes) }) {
                Err(DistError::Protocol(msg)) => {
                    assert!(msg.starts_with("traverse tree rejected"), "{what}: {msg}")
                }
                other => panic!("{what}: expected a protocol error, got {other:?}"),
            }
        }
        // And end to end, what the decoder lets through comes back as
        // an `Err` frame, not a panic.
        let tree = Tree::new(vec![internal(4000, 1, 2), leaf(), leaf()]);
        let req = Msg::Traverse { seq: 6, tree }.encode();
        let reply = Msg::decode(&w.handle_payload(&req).unwrap()).unwrap();
        assert!(matches!(reply, Msg::Err { seq: 6, .. }));
        // The worker is still usable afterwards: a single-leaf tree
        // walks zero edges.
        let req = Msg::Traverse { seq: 7, tree: Tree::leaf(0.5) }.encode();
        let reply = Msg::decode(&w.handle_payload(&req).unwrap()).unwrap();
        assert_eq!(reply, Msg::TravDone { seq: 7, sum_path: 0 });
        assert!(w.margins.iter().all(|&m| m == 0.75));
    }

    #[test]
    fn traverse_over_an_empty_shard_is_a_zero_path_sum() {
        let (data, _) = booster_datagen::generate_binned(booster_datagen::Benchmark::Iot, 32, 7);
        let empty = crate::shard::ShardPlan::even(32, 64).shard(&data).unwrap().pop().unwrap();
        assert_eq!(empty.num_records(), 0);
        let mut w = initialised(empty);
        let tree = Tree::new(vec![
            internal(0, 1, 2),
            Node::Leaf { weight: 1.0 },
            Node::Leaf { weight: 2.0 },
        ]);
        let req = Msg::Traverse { seq: 3, tree }.encode();
        let reply = Msg::decode(&w.handle_payload(&req).unwrap()).unwrap();
        assert_eq!(reply, Msg::TravDone { seq: 3, sum_path: 0 });
    }

    #[test]
    fn undecodable_payload_becomes_err_frame() {
        let mut w = WorkerState::new(tiny_shard());
        let reply = Msg::decode(&w.handle_payload(&[77, 1, 2]).unwrap()).unwrap();
        assert!(matches!(reply, Msg::Err { .. }));
    }

    #[test]
    fn shutdown_ends_the_session() {
        let mut w = WorkerState::new(tiny_shard());
        assert!(w.handle_payload(&Msg::Shutdown { seq: 1 }.encode()).is_none());
    }
}
