//! Distributed-training payload codecs.
//!
//! Framing (length prefix, op-byte namespace) is shared with the
//! scoring service — see the table in `booster_serve::frame`. This
//! module owns the payload layouts (the histogram lane block inside
//! the Step-1 messages is [`crate::lanes`]'s): little-endian integers,
//! counts bounded against the remaining payload *before* allocating (a
//! corrupt or hostile count cannot trigger a huge allocation), and a
//! trailing-bytes check so every payload decodes to exactly one
//! message.
//!
//! Every message carries a `seq` echo directly after the op byte. The
//! coordinator increments it per request and verifies the echo on every
//! reply, which converts dropped or duplicated frames — faults that
//! framing alone cannot see — into typed protocol errors at the next
//! exchange.

use bytes::{Buf, BufMut};

use booster_gbdt::gradients::{GradPair, Loss};
use booster_gbdt::histogram::LaneAccumulator;
use booster_gbdt::split::SplitRule;
use booster_gbdt::tree::{Node, Tree};
use booster_serve::frame::DIST_OP_BASE;

use crate::error::DistError;
use crate::lanes::LaneBlock;

/// Op byte of [`Msg::Init`].
pub const OP_INIT: u8 = DIST_OP_BASE;
/// Op byte of [`Msg::InitDone`].
pub const OP_INIT_DONE: u8 = DIST_OP_BASE + 1;
/// Op byte of [`Msg::BuildHist`] (Step-1 request; traffic-model key).
pub const OP_BUILD_HIST: u8 = DIST_OP_BASE + 2;
/// Op byte of [`Msg::HistDone`] (Step-1 reply; traffic-model key).
pub const OP_HIST_DONE: u8 = DIST_OP_BASE + 3;
/// Op byte of [`Msg::Part`].
pub const OP_PART: u8 = DIST_OP_BASE + 4;
/// Op byte of [`Msg::PartDone`].
pub const OP_PART_DONE: u8 = DIST_OP_BASE + 5;
/// Op byte of [`Msg::Traverse`].
pub const OP_TRAVERSE: u8 = DIST_OP_BASE + 6;
/// Op byte of [`Msg::TravDone`].
pub const OP_TRAV_DONE: u8 = DIST_OP_BASE + 7;
/// Op byte of [`Msg::FoldLoss`] (both directions).
pub const OP_FOLD_LOSS: u8 = DIST_OP_BASE + 8;
/// Op byte of [`Msg::Shutdown`].
pub const OP_SHUTDOWN: u8 = DIST_OP_BASE + 9;
/// Op byte of [`Msg::Err`].
pub const OP_ERR: u8 = DIST_OP_BASE + 10;
/// Op byte of [`Msg::VertexTotal`] (Step-1 request for a vertex nobody
/// scans: a gradient total, no lanes).
pub const OP_VERTEX_TOTAL: u8 = DIST_OP_BASE + 11;
/// Op byte of [`Msg::TotalDone`].
pub const OP_TOTAL_DONE: u8 = DIST_OP_BASE + 12;

/// Wire size of a suspended [`LaneAccumulator`]: four `(g, h)` partial
/// lanes and the position.
const ACC_BYTES: usize = 4 * 16 + 8;

/// The occupancy-coded lane block plus the suspended vertex-total
/// accumulator — the payload that travels along the Step-1 reduction
/// chain.
#[derive(Debug, Clone, PartialEq)]
pub struct WireLanes {
    /// The running histogram lanes, encoded (see [`crate::lanes`]).
    pub block: LaneBlock,
    /// The chained total accumulator: four partial lanes plus the
    /// records folded so far.
    pub acc: LaneAccumulator,
}

impl WireLanes {
    fn encoded_len(&self) -> usize {
        self.block.encoded_len() + ACC_BYTES
    }

    fn encode_into(&self, buf: &mut Vec<u8>) {
        self.block.encode_into(buf);
        put_acc(buf, &self.acc);
    }

    fn decode_from(buf: &mut &[u8]) -> Result<WireLanes, DistError> {
        let block = LaneBlock::decode_from(buf)?;
        Ok(WireLanes { block, acc: get_acc(buf)? })
    }
}

/// One distributed-protocol message. Requests flow coordinator to
/// worker, `*Done` and [`Msg::Err`] replies flow back;
/// [`Msg::FoldLoss`] is both (the carry goes out, the folded carry
/// comes back).
#[derive(Debug, Clone, PartialEq)]
pub enum Msg {
    /// Configure a worker for one training run.
    Init {
        /// Request sequence number, echoed by the reply.
        seq: u32,
        /// The scalar loss every worker evaluates.
        loss: Loss,
        /// Initial margin of every record.
        base_score: f64,
    },
    /// Init acknowledgement.
    InitDone {
        /// Echo of the request's sequence number.
        seq: u32,
        /// Worker-side shard size, verified against the plan.
        records: u64,
    },
    /// Step 1: bin `rows` (worker-local ids), continuing `carry` if the
    /// chain already passed through another worker.
    BuildHist {
        /// Request sequence number.
        seq: u32,
        /// Worker-local row ids to bin, ascending.
        rows: Vec<u32>,
        /// Running lanes from the predecessor, `None` at chain start.
        carry: Option<WireLanes>,
    },
    /// Step-1 reply: the running lanes after this worker's fold.
    HistDone {
        /// Echo of the request's sequence number.
        seq: u32,
        /// Updated running lanes.
        lanes: WireLanes,
    },
    /// Step 1 for a vertex nobody scans: fold the gradient pairs of
    /// `rows` onto `acc` — the chain of [`Msg::BuildHist`] without the
    /// lanes.
    VertexTotal {
        /// Request sequence number.
        seq: u32,
        /// Worker-local row ids to fold, ascending.
        rows: Vec<u32>,
        /// Running accumulator from the predecessor (fresh at chain
        /// start).
        acc: LaneAccumulator,
    },
    /// Vertex-total reply: the accumulator after this worker's fold.
    TotalDone {
        /// Echo of the request's sequence number.
        seq: u32,
        /// Updated running accumulator.
        acc: LaneAccumulator,
    },
    /// Step 3: partition `rows` by one predicate.
    Part {
        /// Request sequence number.
        seq: u32,
        /// Field whose column the predicate reads.
        field: u32,
        /// The split predicate.
        rule: SplitRule,
        /// Where missing values go.
        default_left: bool,
        /// The field's absent-bin index.
        absent: u32,
        /// Worker-local row ids to partition.
        rows: Vec<u32>,
    },
    /// Step-3 reply: stable left/right halves, worker-local ids.
    PartDone {
        /// Echo of the request's sequence number.
        seq: u32,
        /// Rows satisfying the predicate, in input order.
        left: Vec<u32>,
        /// The rest, in input order.
        right: Vec<u32>,
    },
    /// Step 5: traverse one finished tree over the whole shard.
    Traverse {
        /// Request sequence number.
        seq: u32,
        /// The tree to apply.
        tree: Tree,
    },
    /// Step-5 reply (the loss fold comes separately).
    TravDone {
        /// Echo of the request's sequence number.
        seq: u32,
        /// Sum of traversal path lengths over the shard.
        sum_path: u64,
    },
    /// Chained sequential loss fold: fold this shard's stored
    /// per-record loss values onto `carry`.
    FoldLoss {
        /// Sequence number (request) or its echo (reply).
        seq: u32,
        /// Running loss sum.
        carry: f64,
    },
    /// End of session; the worker exits without replying.
    Shutdown {
        /// Request sequence number.
        seq: u32,
    },
    /// Worker-side typed failure.
    Err {
        /// Echo of the request's sequence number (0 if unreadable).
        seq: u32,
        /// Description of the failure.
        msg: String,
    },
}

impl Msg {
    /// Encode to a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(self.encoded_hint());
        match self {
            Msg::Init { seq, loss, base_score } => {
                buf.put_u8(OP_INIT);
                buf.put_u32_le(*seq);
                match loss {
                    Loss::SquaredError => buf.put_u8(0),
                    Loss::Logistic => buf.put_u8(1),
                    Loss::Quantile { alpha } => {
                        buf.put_u8(2);
                        buf.put_f64_le(*alpha);
                    }
                }
                buf.put_f64_le(*base_score);
            }
            Msg::InitDone { seq, records } => {
                buf.put_u8(OP_INIT_DONE);
                buf.put_u32_le(*seq);
                buf.put_u64_le(*records);
            }
            Msg::BuildHist { seq, rows, carry } => {
                buf.put_u8(OP_BUILD_HIST);
                buf.put_u32_le(*seq);
                put_rows(&mut buf, rows);
                match carry {
                    None => buf.put_u8(0),
                    Some(lanes) => {
                        buf.put_u8(1);
                        lanes.encode_into(&mut buf);
                    }
                }
            }
            Msg::HistDone { seq, lanes } => {
                buf.put_u8(OP_HIST_DONE);
                buf.put_u32_le(*seq);
                lanes.encode_into(&mut buf);
            }
            Msg::VertexTotal { seq, rows, acc } => {
                buf.put_u8(OP_VERTEX_TOTAL);
                buf.put_u32_le(*seq);
                put_rows(&mut buf, rows);
                put_acc(&mut buf, acc);
            }
            Msg::TotalDone { seq, acc } => {
                buf.put_u8(OP_TOTAL_DONE);
                buf.put_u32_le(*seq);
                put_acc(&mut buf, acc);
            }
            Msg::Part { seq, field, rule, default_left, absent, rows } => {
                buf.put_u8(OP_PART);
                buf.put_u32_le(*seq);
                buf.put_u32_le(*field);
                put_rule(&mut buf, *rule);
                buf.put_u8(u8::from(*default_left));
                buf.put_u32_le(*absent);
                put_rows(&mut buf, rows);
            }
            Msg::PartDone { seq, left, right } => {
                buf.put_u8(OP_PART_DONE);
                buf.put_u32_le(*seq);
                put_rows(&mut buf, left);
                put_rows(&mut buf, right);
            }
            Msg::Traverse { seq, tree } => {
                buf.put_u8(OP_TRAVERSE);
                buf.put_u32_le(*seq);
                let nodes = tree.nodes();
                buf.put_u32_le(nodes.len() as u32);
                for node in nodes {
                    match node {
                        Node::Leaf { weight } => {
                            buf.put_u8(0);
                            buf.put_f64_le(*weight);
                        }
                        Node::Internal { field, rule, default_left, left, right } => {
                            buf.put_u8(1);
                            buf.put_u32_le(*field);
                            put_rule(&mut buf, *rule);
                            buf.put_u8(u8::from(*default_left));
                            buf.put_u32_le(*left);
                            buf.put_u32_le(*right);
                        }
                    }
                }
            }
            Msg::TravDone { seq, sum_path } => {
                buf.put_u8(OP_TRAV_DONE);
                buf.put_u32_le(*seq);
                buf.put_u64_le(*sum_path);
            }
            Msg::FoldLoss { seq, carry } => {
                buf.put_u8(OP_FOLD_LOSS);
                buf.put_u32_le(*seq);
                buf.put_f64_le(*carry);
            }
            Msg::Shutdown { seq } => {
                buf.put_u8(OP_SHUTDOWN);
                buf.put_u32_le(*seq);
            }
            Msg::Err { seq, msg } => {
                buf.put_u8(OP_ERR);
                buf.put_u32_le(*seq);
                buf.put_u32_le(msg.len() as u32);
                buf.extend_from_slice(msg.as_bytes());
            }
        }
        buf
    }

    fn encoded_hint(&self) -> usize {
        match self {
            Msg::BuildHist { rows, carry, .. } => {
                10 + rows.len() * 4 + carry.as_ref().map_or(0, WireLanes::encoded_len)
            }
            Msg::HistDone { lanes, .. } => 5 + lanes.encoded_len(),
            Msg::VertexTotal { rows, .. } => 9 + rows.len() * 4 + ACC_BYTES,
            Msg::TotalDone { .. } => 5 + ACC_BYTES,
            Msg::Part { rows, .. } => 32 + rows.len() * 4,
            Msg::PartDone { left, right, .. } => 16 + (left.len() + right.len()) * 4,
            Msg::Traverse { tree, .. } => 16 + tree.nodes().len() * 19,
            _ => 32,
        }
    }

    /// Decode a frame payload.
    pub fn decode(payload: &[u8]) -> Result<Msg, DistError> {
        let mut buf = payload;
        need(&buf, 5, "op byte and sequence")?;
        let op = buf.get_u8();
        let seq = buf.get_u32_le();
        let msg = match op {
            OP_INIT => {
                need(&buf, 1, "loss tag")?;
                let loss = match buf.get_u8() {
                    0 => Loss::SquaredError,
                    1 => Loss::Logistic,
                    2 => {
                        need(&buf, 8, "quantile alpha")?;
                        Loss::Quantile { alpha: buf.get_f64_le() }
                    }
                    t => return Err(DistError::Protocol(format!("unknown loss tag {t}"))),
                };
                need(&buf, 8, "base score")?;
                Msg::Init { seq, loss, base_score: buf.get_f64_le() }
            }
            OP_INIT_DONE => {
                need(&buf, 8, "record count")?;
                Msg::InitDone { seq, records: buf.get_u64_le() }
            }
            OP_BUILD_HIST => {
                let rows = get_rows(&mut buf)?;
                need(&buf, 1, "carry flag")?;
                let carry = match buf.get_u8() {
                    0 => None,
                    1 => Some(WireLanes::decode_from(&mut buf)?),
                    t => return Err(DistError::Protocol(format!("bad carry flag {t}"))),
                };
                Msg::BuildHist { seq, rows, carry }
            }
            OP_HIST_DONE => Msg::HistDone { seq, lanes: WireLanes::decode_from(&mut buf)? },
            OP_VERTEX_TOTAL => {
                let rows = get_rows(&mut buf)?;
                Msg::VertexTotal { seq, rows, acc: get_acc(&mut buf)? }
            }
            OP_TOTAL_DONE => Msg::TotalDone { seq, acc: get_acc(&mut buf)? },
            OP_PART => {
                need(&buf, 4, "field")?;
                let field = buf.get_u32_le();
                let rule = get_rule(&mut buf)?;
                need(&buf, 5, "default flag and absent bin")?;
                let default_left = buf.get_u8() != 0;
                let absent = buf.get_u32_le();
                let rows = get_rows(&mut buf)?;
                Msg::Part { seq, field, rule, default_left, absent, rows }
            }
            OP_PART_DONE => {
                let left = get_rows(&mut buf)?;
                let right = get_rows(&mut buf)?;
                Msg::PartDone { seq, left, right }
            }
            OP_TRAVERSE => {
                need(&buf, 4, "node count")?;
                let n = buf.get_u32_le() as usize;
                if n == 0 {
                    return Err(DistError::Protocol("empty tree".into()));
                }
                // A node is at least 9 bytes: bound before allocating.
                need(&buf, n.checked_mul(9).ok_or_else(oversize)?, "tree nodes")?;
                let mut nodes = Vec::with_capacity(n);
                for _ in 0..n {
                    need(&buf, 9, "tree node")?;
                    match buf.get_u8() {
                        0 => nodes.push(Node::Leaf { weight: buf.get_f64_le() }),
                        1 => {
                            let field = buf.get_u32_le();
                            let rule = get_rule(&mut buf)?;
                            need(&buf, 9, "internal node")?;
                            let default_left = buf.get_u8() != 0;
                            let left = buf.get_u32_le();
                            let right = buf.get_u32_le();
                            // Children must point strictly forward (the
                            // grower builds trees that way): rules out
                            // both out-of-range indices and cycles, so
                            // a corrupt frame can never make traversal
                            // loop forever.
                            let idx = nodes.len() as u32;
                            if left as usize >= n
                                || right as usize >= n
                                || left <= idx
                                || right <= idx
                            {
                                return Err(DistError::Protocol(
                                    "tree child index out of range or not forward".into(),
                                ));
                            }
                            nodes.push(Node::Internal { field, rule, default_left, left, right });
                        }
                        t => return Err(DistError::Protocol(format!("unknown node tag {t}"))),
                    }
                }
                Msg::Traverse { seq, tree: Tree::new(nodes) }
            }
            OP_TRAV_DONE => {
                need(&buf, 8, "path sum")?;
                Msg::TravDone { seq, sum_path: buf.get_u64_le() }
            }
            OP_FOLD_LOSS => {
                need(&buf, 8, "loss carry")?;
                Msg::FoldLoss { seq, carry: buf.get_f64_le() }
            }
            OP_SHUTDOWN => Msg::Shutdown { seq },
            OP_ERR => {
                need(&buf, 4, "error length")?;
                let n = buf.get_u32_le() as usize;
                need(&buf, n, "error text")?;
                let msg = String::from_utf8_lossy(&buf[..n]).into_owned();
                buf = &buf[n..];
                Msg::Err { seq, msg }
            }
            op => return Err(DistError::Protocol(format!("unknown op byte {op}"))),
        };
        if buf.has_remaining() {
            return Err(DistError::Protocol("trailing bytes".into()));
        }
        Ok(msg)
    }

    /// The message's op byte (traffic accounting key).
    pub fn op(&self) -> u8 {
        match self {
            Msg::Init { .. } => OP_INIT,
            Msg::InitDone { .. } => OP_INIT_DONE,
            Msg::BuildHist { .. } => OP_BUILD_HIST,
            Msg::HistDone { .. } => OP_HIST_DONE,
            Msg::VertexTotal { .. } => OP_VERTEX_TOTAL,
            Msg::TotalDone { .. } => OP_TOTAL_DONE,
            Msg::Part { .. } => OP_PART,
            Msg::PartDone { .. } => OP_PART_DONE,
            Msg::Traverse { .. } => OP_TRAVERSE,
            Msg::TravDone { .. } => OP_TRAV_DONE,
            Msg::FoldLoss { .. } => OP_FOLD_LOSS,
            Msg::Shutdown { .. } => OP_SHUTDOWN,
            Msg::Err { .. } => OP_ERR,
        }
    }

    /// The sequence number carried by any message.
    pub fn seq(&self) -> u32 {
        match self {
            Msg::Init { seq, .. }
            | Msg::InitDone { seq, .. }
            | Msg::BuildHist { seq, .. }
            | Msg::HistDone { seq, .. }
            | Msg::VertexTotal { seq, .. }
            | Msg::TotalDone { seq, .. }
            | Msg::Part { seq, .. }
            | Msg::PartDone { seq, .. }
            | Msg::Traverse { seq, .. }
            | Msg::TravDone { seq, .. }
            | Msg::FoldLoss { seq, .. }
            | Msg::Shutdown { seq }
            | Msg::Err { seq, .. } => *seq,
        }
    }
}

fn oversize() -> DistError {
    DistError::Protocol("count overflow".into())
}

fn need(buf: &&[u8], n: usize, what: &str) -> Result<(), DistError> {
    if buf.remaining() < n {
        Err(DistError::Protocol(format!("truncated payload: {what}")))
    } else {
        Ok(())
    }
}

fn put_rows(buf: &mut Vec<u8>, rows: &[u32]) {
    buf.put_u32_le(rows.len() as u32);
    for &r in rows {
        buf.put_u32_le(r);
    }
}

fn get_rows(buf: &mut &[u8]) -> Result<Vec<u32>, DistError> {
    need(buf, 4, "row count")?;
    let n = buf.get_u32_le() as usize;
    need(buf, n.checked_mul(4).ok_or_else(oversize)?, "row ids")?;
    Ok((0..n).map(|_| buf.get_u32_le()).collect())
}

fn put_acc(buf: &mut Vec<u8>, acc: &LaneAccumulator) {
    let (lanes, pos) = acc.state();
    for gp in lanes {
        buf.put_f64_le(gp.g);
        buf.put_f64_le(gp.h);
    }
    buf.put_u64_le(pos);
}

fn get_acc(buf: &mut &[u8]) -> Result<LaneAccumulator, DistError> {
    need(buf, ACC_BYTES, "total accumulator")?;
    let mut lanes = [GradPair::zero(); 4];
    for gp in &mut lanes {
        gp.g = buf.get_f64_le();
        gp.h = buf.get_f64_le();
    }
    Ok(LaneAccumulator::from_state(lanes, buf.get_u64_le()))
}

fn put_rule(buf: &mut Vec<u8>, rule: SplitRule) {
    match rule {
        SplitRule::Numeric { threshold_bin } => {
            buf.put_u8(0);
            buf.put_u32_le(threshold_bin);
        }
        SplitRule::Categorical { category } => {
            buf.put_u8(1);
            buf.put_u32_le(category);
        }
    }
}

fn get_rule(buf: &mut &[u8]) -> Result<SplitRule, DistError> {
    need(buf, 5, "split rule")?;
    Ok(match buf.get_u8() {
        0 => SplitRule::Numeric { threshold_bin: buf.get_u32_le() },
        1 => SplitRule::Categorical { category: buf.get_u32_le() },
        t => return Err(DistError::Protocol(format!("unknown rule tag {t}"))),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_acc() -> LaneAccumulator {
        LaneAccumulator::from_state(
            [
                GradPair::new(0.1, 0.2),
                GradPair::new(-0.3, 0.4),
                GradPair::zero(),
                GradPair::new(5.0, 6.0),
            ],
            11,
        )
    }

    /// A dense block (3 of 3 bins occupied) or a sparse one (2 of 40).
    fn sample_lanes(sparse: bool) -> WireLanes {
        let n = if sparse { 40 } else { 3 };
        let (mut grad, mut hess, mut count) = (vec![0.0; n], vec![0.0; n], vec![0u64; n]);
        (grad[0], hess[0], count[0]) = (0.5, 1.0, 4);
        (grad[n - 1], hess[n - 1], count[n - 1]) = (3.0, 0.5, 7);
        if !sparse {
            (grad[1], hess[1], count[1]) = (-1.25, 2.0, 1);
        }
        let block = LaneBlock::from_lanes(&grad, &hess, &count);
        assert_eq!(block.is_sparse(), sparse);
        WireLanes { block, acc: sample_acc() }
    }

    fn sample_tree() -> Tree {
        Tree::new(vec![
            Node::Internal {
                field: 1,
                rule: SplitRule::Numeric { threshold_bin: 4 },
                default_left: true,
                left: 1,
                right: 2,
            },
            Node::Leaf { weight: -0.5 },
            Node::Internal {
                field: 0,
                rule: SplitRule::Categorical { category: 2 },
                default_left: false,
                left: 3,
                right: 4,
            },
            Node::Leaf { weight: 1.25 },
            Node::Leaf { weight: 0.0 },
        ])
    }

    fn all_messages() -> Vec<Msg> {
        vec![
            Msg::Init { seq: 1, loss: Loss::SquaredError, base_score: 0.25 },
            Msg::Init { seq: 2, loss: Loss::Quantile { alpha: 0.9 }, base_score: -1.0 },
            Msg::InitDone { seq: 2, records: 1234 },
            Msg::BuildHist { seq: 3, rows: vec![0, 2, 5], carry: None },
            Msg::BuildHist { seq: 4, rows: vec![], carry: Some(sample_lanes(false)) },
            Msg::BuildHist { seq: 4, rows: vec![7], carry: Some(sample_lanes(true)) },
            Msg::HistDone { seq: 4, lanes: sample_lanes(false) },
            Msg::HistDone { seq: 4, lanes: sample_lanes(true) },
            Msg::VertexTotal { seq: 10, rows: vec![1, 4], acc: LaneAccumulator::new() },
            Msg::VertexTotal { seq: 11, rows: vec![], acc: sample_acc() },
            Msg::TotalDone { seq: 11, acc: sample_acc() },
            Msg::Part {
                seq: 5,
                field: 7,
                rule: SplitRule::Numeric { threshold_bin: 3 },
                default_left: true,
                absent: 9,
                rows: vec![1, 2, 3],
            },
            Msg::PartDone { seq: 5, left: vec![1, 3], right: vec![2] },
            Msg::Traverse { seq: 6, tree: sample_tree() },
            Msg::TravDone { seq: 6, sum_path: 99 },
            Msg::FoldLoss { seq: 7, carry: 2.5 },
            Msg::Shutdown { seq: 8 },
            Msg::Err { seq: 9, msg: "boom".into() },
        ]
    }

    #[test]
    fn every_message_round_trips() {
        for msg in all_messages() {
            let bytes = msg.encode();
            assert_eq!(bytes[0], msg.op());
            let back = Msg::decode(&bytes).unwrap();
            assert_eq!(back, msg);
            assert_eq!(back.seq(), msg.seq());
        }
    }

    #[test]
    fn every_strict_prefix_is_rejected() {
        for msg in all_messages() {
            let bytes = msg.encode();
            for cut in 0..bytes.len() {
                assert!(
                    Msg::decode(&bytes[..cut]).is_err(),
                    "prefix {cut}/{} of op {} decoded",
                    bytes.len(),
                    msg.op()
                );
            }
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        for msg in all_messages() {
            let mut bytes = msg.encode();
            bytes.push(0);
            assert!(Msg::decode(&bytes).is_err(), "op {} accepted trailing byte", msg.op());
        }
    }

    #[test]
    fn hostile_counts_do_not_allocate() {
        // A BuildHist header claiming u32::MAX rows with a 9-byte payload.
        let mut buf = vec![OP_BUILD_HIST, 0, 0, 0, 0];
        buf.put_u32_le(u32::MAX);
        assert!(Msg::decode(&buf).is_err());
        // A traverse frame claiming a giant node count.
        let mut buf = vec![OP_TRAVERSE, 0, 0, 0, 0];
        buf.put_u32_le(u32::MAX);
        assert!(Msg::decode(&buf).is_err());
    }

    #[test]
    fn corrupt_tags_are_typed_errors() {
        let mut bytes = Msg::Init { seq: 1, loss: Loss::Logistic, base_score: 0.0 }.encode();
        bytes[5] = 200; // loss tag
        assert!(matches!(Msg::decode(&bytes), Err(DistError::Protocol(_))));
        let mut bytes = Msg::Shutdown { seq: 1 }.encode();
        bytes[0] = 255; // op byte
        assert!(matches!(Msg::decode(&bytes), Err(DistError::Protocol(_))));
    }

    #[test]
    fn tree_with_out_of_range_children_is_rejected() {
        let msg = Msg::Traverse { seq: 1, tree: sample_tree() };
        let mut bytes = msg.encode();
        // Overwrite the root's left-child index (payload offset: op 1 +
        // seq 4 + count 4 + tag 1 + field 4 + rule 5 + default 1 = 20).
        bytes[20..24].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(Msg::decode(&bytes), Err(DistError::Protocol(_))));
    }

    #[test]
    fn single_bit_corruption_never_panics() {
        for msg in all_messages() {
            let bytes = msg.encode();
            for i in 0..bytes.len() {
                let mut c = bytes.clone();
                c[i] ^= 0xFF;
                let _ = Msg::decode(&c); // must not panic; Err or a different Msg both fine
            }
        }
    }
}
