//! Branch-free bytecode program format for compiled ensemble inference.
//!
//! [`crate::compile`] lowers a [`crate::infer::FlatEnsemble`] into a
//! [`Program`]: every tree becomes a contiguous run of fixed-width
//! [`Instr`]uctions plus a parallel array of exact `f64` leaf weights,
//! and trees are grouped into cache-sized [`ClusterSpan`]s. This module
//! owns the instruction format, its structural invariants, and the
//! versioned wire codec ([`program_to_bytes`] / [`program_from_bytes`]).
//!
//! # Instruction format invariants
//!
//! Each [`Instr`] is six little-endian `u32` words (24 bytes); its leaf
//! weight lives in a parallel `f64` array so on-wire instruction size
//! stays fixed and accumulation stays exact. The interpreter in
//! [`crate::compile`] runs **no data-dependent branches**: a step is a
//! pure mask-select ([`Instr::step`]) and every tree executes exactly
//! [`TreeSpan::depth`] steps per record. That only terminates at the
//! right leaf because of structural invariants every `Program` must
//! satisfy (checked by [`Program::validate`], enforced on every decode):
//!
//! 1. **BFS numbering** — within a tree, both children of an internal
//!    instruction have a strictly greater tree-local index than their
//!    parent (and index `< len`). Walks therefore always make forward
//!    progress, any instruction stream is cycle-free by construction,
//!    and one forward pass gives every instruction its depth — the
//!    path length of a record that lands there, so path counting costs
//!    the walk nothing ([`Program::instr_depths`]).
//! 2. **Self-looping leaves** — a leaf instruction has
//!    `left == right == own index`, so once a record reaches its leaf,
//!    the remaining fixed-depth steps are harmless no-ops.
//! 3. **Exact depth** — [`TreeSpan::depth`] equals the tree's true
//!    maximum leaf depth, so after `depth` steps every record sits on a
//!    leaf (an internal node deeper than the deepest leaf cannot
//!    exist), and the accumulated weight is that leaf's exact `f64`.
//! 4. **Total reachability** — every instruction is reachable from its
//!    tree's root; the compiler's DCE pass guarantees it and the
//!    validator rejects streams that violate it.
//! 5. **Resolved operands** — `field < num_fields` for every
//!    instruction (leaves carry field 0), and internal instructions
//!    have a `0.0` weight slot, so a validated program can never index
//!    out of a record row and corrupt accumulation silently.
//!
//! Because the wire codec re-validates all of the above and a whole-body
//! checksum, a decoded program can be interpreted with no per-step
//! checks and **cannot** panic, read out of bounds, or loop forever —
//! corrupted bytes fail loudly at decode time with a typed
//! [`ProgramError`].

use bytes::{Buf, BufMut, Bytes, BytesMut};

use crate::gradients::Objective;
use crate::serialize::{get_objective, put_objective};

/// Format magic (first four bytes of every serialized program).
pub const MAGIC: &[u8; 4] = b"BPRG";
/// Current program wire-format version, written at byte offset 4.
///
/// Bumping this is a compatibility event pinned by the golden fixture
/// (`tests/golden_program.rs`), exactly like `serialize::VERSION`.
/// Version 2 added the objective tag and `num_outputs`; v1 bodies
/// (a bare loss byte, always one output) still decode.
pub const VERSION: u32 = 2;

/// The original one-output program version (still readable).
pub const VERSION_V1: u32 = 1;

/// Flag bit: the test is numeric (`bin <= test` routes left); clear
/// means categorical (`bin != test` routes left).
pub const FLAG_NUMERIC: u32 = 1;
/// Flag bit: absent values route left.
pub const FLAG_DEFAULT_LEFT: u32 = 1 << 1;
/// Flag bit: leaf instruction (self-looping; its weight slot is the
/// exact leaf weight).
pub const FLAG_LEAF: u32 = 1 << 2;
const FLAG_MASK: u32 = FLAG_NUMERIC | FLAG_DEFAULT_LEFT | FLAG_LEAF;

/// Encoded size of one instruction in bytes (six `u32` words).
pub const INSTR_BYTES: usize = 24;
/// Bytes one instruction occupies in the interpreter's working set:
/// the instruction itself plus its parallel `f64` weight slot. The
/// partition pass budgets clusters in these units.
pub const INSTR_SLOT_BYTES: usize = INSTR_BYTES + 8;

/// One branch-free instruction: a fully specialized node test.
///
/// See the module docs for the structural invariants; `step` assumes
/// them and is only safe to drive over a validated [`Program`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Instr {
    /// Original field id whose bin this instruction tests (leaves: 0).
    pub field: u32,
    /// Absent bin of that field, pre-resolved at compile time.
    pub absent: u32,
    /// Threshold bin (numeric) or category (categorical) to test.
    pub test: u32,
    /// `FLAG_*` bits; all other bits must be zero.
    pub flags: u32,
    /// Tree-local index taken when the test routes left (leaf: self).
    pub left: u32,
    /// Tree-local index taken otherwise (leaf: self).
    pub right: u32,
}

impl Instr {
    /// Build the self-looping leaf instruction at tree-local index `at`.
    pub fn leaf(at: u32) -> Self {
        Instr { field: 0, absent: 0, test: 0, flags: FLAG_LEAF, left: at, right: at }
    }

    /// Whether this is a (self-looping) leaf instruction.
    #[inline]
    pub fn is_leaf(&self) -> bool {
        self.flags & FLAG_LEAF != 0
    }

    /// One branch-free walk step: next tree-local index for a record
    /// whose tested field holds `bin`.
    ///
    /// Semantically identical to [`crate::split::goes_left`] — absent
    /// routes by `FLAG_DEFAULT_LEFT`, numeric routes left on
    /// `bin <= test`, categorical on `bin != test` — but evaluated as
    /// masks and a cmov-style select, with no data-dependent branch.
    #[inline(always)]
    pub fn step(&self, bin: u32) -> u32 {
        let numeric = self.flags & FLAG_NUMERIC;
        let default_left = (self.flags >> 1) & 1;
        let is_absent = u32::from(bin == self.absent);
        let le = u32::from(bin <= self.test);
        let ne = u32::from(bin != self.test);
        let rule_left = (numeric & le) | ((numeric ^ 1) & ne);
        let go_left = (is_absent & default_left) | ((is_absent ^ 1) & rule_left);
        // Select left when go_left == 1, right when 0 (cmov idiom).
        self.right ^ ((self.left ^ self.right) & go_left.wrapping_neg())
    }
}

/// One tree's contiguous run of instructions inside a [`Program`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TreeSpan {
    /// First instruction index in `Program::instrs`.
    pub first: u32,
    /// Number of instructions (>= 1; a single-leaf tree has len 1).
    pub len: u32,
    /// Exact maximum leaf depth: the fixed step count the interpreter
    /// runs for this tree (0 for a single-leaf tree).
    pub depth: u32,
}

/// A contiguous run of trees whose instruction + weight bytes fit the
/// compile-time cluster budget; the interpreter streams all record
/// blocks through one cluster before touching the next, so a cluster
/// is the unit of code-side cache residency.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClusterSpan {
    /// Index of the first tree in this cluster.
    pub first_tree: u32,
    /// Number of trees (>= 1).
    pub num_trees: u32,
}

/// A compiled, partitioned, branch-free ensemble program.
///
/// Fields are public for inspection and crate-internal construction;
/// any externally supplied program must pass [`Program::validate`]
/// before being interpreted (the wire decoder and
/// [`crate::compile::CompiledEnsemble::from_program`] both enforce
/// this).
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    /// All trees' instructions, concatenated in tree order.
    pub instrs: Vec<Instr>,
    /// Exact `f64` leaf weight per instruction (internal: 0.0).
    pub weights: Vec<f64>,
    /// Per-tree spans, in ensemble (accumulation) order; spans tile
    /// `instrs` contiguously.
    pub trees: Vec<TreeSpan>,
    /// Partition of `trees` into contiguous cache-budgeted clusters.
    pub clusters: Vec<ClusterSpan>,
    /// Field arity every scored record row must have.
    pub num_fields: u32,
    /// Initial margin added to every prediction.
    pub base_score: f64,
    /// Training objective; its link function is applied at the
    /// prediction surface.
    pub objective: Objective,
    /// Outputs per record (`K`); tree `t` accumulates into output
    /// `t % K`. 1 for every scalar objective.
    pub num_outputs: u32,
}

/// Decode / validation errors for program bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProgramError {
    /// Wrong magic bytes.
    BadMagic,
    /// Unsupported wire-format version.
    BadVersion(u32),
    /// Input ended early, had trailing bytes, or failed the checksum.
    Corrupt(&'static str),
    /// Structurally well-formed bytes encoding an invalid program
    /// (broken BFS numbering, wrong depth, unreachable instruction, …).
    Invalid(&'static str),
}

impl std::fmt::Display for ProgramError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProgramError::BadMagic => write!(f, "not a Booster program (bad magic)"),
            ProgramError::BadVersion(v) => write!(f, "unsupported program version {v}"),
            ProgramError::Corrupt(what) => write!(f, "corrupt program data: {what}"),
            ProgramError::Invalid(what) => write!(f, "invalid program: {what}"),
        }
    }
}

impl std::error::Error for ProgramError {}

impl Program {
    /// Total instructions across all trees.
    pub fn num_instrs(&self) -> usize {
        self.instrs.len()
    }

    /// Interpreter working-set footprint: instructions plus their
    /// parallel weight slots.
    pub fn byte_size(&self) -> usize {
        self.instrs.len() * INSTR_SLOT_BYTES
    }

    /// Working-set bytes of one cluster.
    pub fn cluster_bytes(&self, c: usize) -> usize {
        let cl = &self.clusters[c];
        let t0 = cl.first_tree as usize;
        let t1 = t0 + cl.num_trees as usize;
        self.trees[t0..t1].iter().map(|s| s.len as usize * INSTR_SLOT_BYTES).sum()
    }

    /// Check every structural invariant of the instruction format (see
    /// the module docs). A program that passes can be interpreted with
    /// no per-step checks: walks stay in-span, always terminate on a
    /// leaf after exactly `depth` steps, and only ever index record
    /// rows below `num_fields`.
    pub fn validate(&self) -> Result<(), ProgramError> {
        self.instr_depths().map(drop)
    }

    /// [`Program::validate`], handing back what the validator computes
    /// on the way: every instruction's depth in its tree (edges from
    /// the root), indexed like `instrs`. The kernel reads a record's
    /// path length off this table at the leaf it lands on — exact for
    /// every tree-shaped span, which is all [`crate::compile`] emits;
    /// where a hand-built stream shares a child between parents it is
    /// the longest root path to that leaf.
    pub fn instr_depths(&self) -> Result<Vec<u32>, ProgramError> {
        if self.num_fields == 0 {
            return Err(ProgramError::Invalid("zero field arity"));
        }
        if self.objective.validate().is_err() {
            return Err(ProgramError::Invalid("objective parameters"));
        }
        if self.num_outputs as usize != self.objective.num_outputs() {
            return Err(ProgramError::Invalid("num_outputs mismatch"));
        }
        if self.weights.len() != self.instrs.len() {
            return Err(ProgramError::Invalid("weights length"));
        }
        // Tree spans must tile the instruction array contiguously.
        let mut at = 0u64;
        for span in &self.trees {
            if span.len == 0 {
                return Err(ProgramError::Invalid("empty tree span"));
            }
            if u64::from(span.first) != at {
                return Err(ProgramError::Invalid("tree spans not contiguous"));
            }
            at += u64::from(span.len);
        }
        if at != self.instrs.len() as u64 {
            return Err(ProgramError::Invalid("tree spans do not cover instrs"));
        }
        // Clusters must tile the tree list contiguously.
        let mut t_at = 0u64;
        for cl in &self.clusters {
            if cl.num_trees == 0 {
                return Err(ProgramError::Invalid("empty cluster"));
            }
            if u64::from(cl.first_tree) != t_at {
                return Err(ProgramError::Invalid("clusters not contiguous"));
            }
            t_at += u64::from(cl.num_trees);
        }
        if t_at != self.trees.len() as u64 {
            return Err(ProgramError::Invalid("clusters do not cover trees"));
        }
        // Per-tree instruction invariants + exact-depth recomputation.
        let mut depths = Vec::with_capacity(self.instrs.len());
        for span in &self.trees {
            let first = span.first as usize;
            let end = first + span.len as usize;
            let depth = validate_tree(
                &self.instrs[first..end],
                &self.weights[first..end],
                self.num_fields,
                &mut depths,
            )?;
            if depth != span.depth {
                return Err(ProgramError::Invalid("tree depth mismatch"));
            }
        }
        Ok(depths)
    }
}

/// Check one tree's instructions (module-doc invariants 1, 2, 4 and 5)
/// and append every instruction's depth to `depths`; returns the tree's
/// exact maximum leaf depth, the step count after which every walk sits
/// on a leaf. This is the one check the kernel's unchecked indexing
/// rests on: [`Program::instr_depths`] runs it per span, and
/// [`crate::walk::TreeWalk::lower`] on the one tree Step 5 walks.
pub(crate) fn validate_tree(
    code: &[Instr],
    weights: &[f64],
    num_fields: u32,
    depths: &mut Vec<u32>,
) -> Result<u32, ProgramError> {
    let len = code.len();
    debug_assert!(len > 0 && weights.len() == len, "callers pass one non-empty tree");
    let base = depths.len();
    depths.resize(base + len, u32::MAX); // MAX = unreached
    let depths = &mut depths[base..];
    depths[0] = 0;
    let mut max_leaf_depth = 0u32;
    for (i, ins) in code.iter().enumerate() {
        if ins.flags & !FLAG_MASK != 0 {
            return Err(ProgramError::Invalid("unknown flag bits"));
        }
        if ins.field >= num_fields {
            return Err(ProgramError::Invalid("field out of range"));
        }
        let d = depths[i];
        if d == u32::MAX {
            return Err(ProgramError::Invalid("unreachable instruction"));
        }
        if ins.is_leaf() {
            if ins.left as usize != i || ins.right as usize != i {
                return Err(ProgramError::Invalid("leaf must self-loop"));
            }
            max_leaf_depth = max_leaf_depth.max(d);
        } else {
            let (l, r) = (ins.left as usize, ins.right as usize);
            if l <= i || r <= i || l >= len || r >= len {
                return Err(ProgramError::Invalid("child index breaks BFS order"));
            }
            if weights[i] != 0.0 {
                return Err(ProgramError::Invalid("internal weight not zero"));
            }
            // Forward pass: parents precede children, so child depths
            // are final by the time we visit them. Keep the LONGEST
            // root path per node — hostile streams may share a child
            // between parents, and only the longest-path depth
            // guarantees every walk sits on a leaf after the returned
            // number of fixed steps.
            for c in [l, r] {
                depths[c] = if depths[c] == u32::MAX { d + 1 } else { depths[c].max(d + 1) };
            }
        }
    }
    Ok(max_leaf_depth)
}

/// FNV-1a over the body; guards the wire format against bit flips that
/// structural validation alone cannot see (e.g. a flipped leaf weight).
fn fnv1a64(data: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in data {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn get_u32(buf: &mut Bytes) -> Result<u32, ProgramError> {
    if buf.remaining() < 4 {
        return Err(ProgramError::Corrupt("u32"));
    }
    Ok(buf.get_u32_le())
}

fn get_f64(buf: &mut Bytes) -> Result<f64, ProgramError> {
    if buf.remaining() < 8 {
        return Err(ProgramError::Corrupt("f64"));
    }
    Ok(buf.get_f64_le())
}

/// Serialize a program:
///
/// ```text
/// magic "BPRG" | version u32 | body checksum u64 (FNV-1a) | body:
///   objective tag u8 [+ payload] | num_outputs u32
///   | base_score f64 | num_fields u32
///   | num_trees u32    | per tree: len u32, depth u32
///   | num_clusters u32 | per cluster: num_trees u32
///   | per instr: field, absent, test, flags, left, right (u32 x 6)
///   | per instr: weight f64
/// ```
///
/// All integers little-endian. Span starts and cluster starts are not
/// stored — contiguity is an invariant, so they are recomputed as
/// running sums on decode.
pub fn program_to_bytes(p: &Program) -> Bytes {
    let mut body = BytesMut::with_capacity(64 + p.instrs.len() * INSTR_SLOT_BYTES);
    put_objective(&mut body, p.objective);
    body.put_u32_le(p.num_outputs);
    body.put_f64_le(p.base_score);
    body.put_u32_le(p.num_fields);
    body.put_u32_le(p.trees.len() as u32);
    for span in &p.trees {
        body.put_u32_le(span.len);
        body.put_u32_le(span.depth);
    }
    body.put_u32_le(p.clusters.len() as u32);
    for cl in &p.clusters {
        body.put_u32_le(cl.num_trees);
    }
    for ins in &p.instrs {
        body.put_u32_le(ins.field);
        body.put_u32_le(ins.absent);
        body.put_u32_le(ins.test);
        body.put_u32_le(ins.flags);
        body.put_u32_le(ins.left);
        body.put_u32_le(ins.right);
    }
    for &w in &p.weights {
        body.put_f64_le(w);
    }
    let mut buf = BytesMut::with_capacity(16 + body.len());
    buf.put_slice(MAGIC);
    buf.put_u32_le(VERSION);
    buf.put_u64_le(fnv1a64(&body));
    buf.put_slice(&body);
    buf.freeze()
}

/// Deserialize and fully validate a program.
///
/// The decode path is hardened against hostile input: the checksum is
/// verified before parsing, every count is bounded by the remaining
/// input before allocating, truncated or over-length streams fail with
/// [`ProgramError::Corrupt`], and the parsed program must pass
/// [`Program::validate`] — so a returned program can never make the
/// interpreter panic, loop, or read out of bounds.
pub fn program_from_bytes(data: &[u8]) -> Result<Program, ProgramError> {
    let program = decode(data)?;
    program.validate()?;
    Ok(program)
}

/// The parse half of [`program_from_bytes`]: checksum, bounds and
/// framing, with the structural check left to the caller
/// ([`crate::compile::CompiledEnsemble::from_bytes`] validates once and
/// keeps the depth table).
pub(crate) fn decode(data: &[u8]) -> Result<Program, ProgramError> {
    let mut buf = Bytes::copy_from_slice(data);
    if buf.remaining() < 4 || &buf.copy_to_bytes(4)[..] != MAGIC {
        return Err(ProgramError::BadMagic);
    }
    let version = get_u32(&mut buf)?;
    if version != VERSION_V1 && version != VERSION {
        return Err(ProgramError::BadVersion(version));
    }
    if buf.remaining() < 8 {
        return Err(ProgramError::Corrupt("checksum"));
    }
    let checksum = buf.get_u64_le();
    if fnv1a64(&buf) != checksum {
        return Err(ProgramError::Corrupt("checksum mismatch"));
    }
    if buf.remaining() < 1 {
        return Err(ProgramError::Corrupt("loss"));
    }
    let (objective, num_outputs) = match version {
        // v1 bodies carry a bare loss byte and are always one-output.
        VERSION_V1 => {
            let objective = match buf.get_u8() {
                0 => Objective::SquaredError,
                1 => Objective::Logistic,
                _ => return Err(ProgramError::Corrupt("loss byte")),
            };
            (objective, 1u32)
        }
        _ => {
            let objective =
                get_objective(&mut buf).map_err(|_| ProgramError::Corrupt("objective"))?;
            (objective, get_u32(&mut buf)?)
        }
    };
    let base_score = get_f64(&mut buf)?;
    let num_fields = get_u32(&mut buf)?;

    let num_trees = get_u32(&mut buf)? as usize;
    // Each tree span needs 8 bytes: bound before allocating.
    if num_trees > buf.remaining() / 8 {
        return Err(ProgramError::Corrupt("tree count"));
    }
    let mut trees = Vec::with_capacity(num_trees);
    let mut first = 0u64;
    for _ in 0..num_trees {
        let len = get_u32(&mut buf)?;
        let depth = get_u32(&mut buf)?;
        if first + u64::from(len) > u64::from(u32::MAX) {
            return Err(ProgramError::Corrupt("instruction index overflow"));
        }
        trees.push(TreeSpan { first: first as u32, len, depth });
        first += u64::from(len);
    }
    let total_instrs = first as usize;
    let num_clusters = get_u32(&mut buf)? as usize;
    if num_clusters > buf.remaining() / 4 {
        return Err(ProgramError::Corrupt("cluster count"));
    }
    let mut clusters = Vec::with_capacity(num_clusters);
    let mut first_tree = 0u64;
    for _ in 0..num_clusters {
        let n = get_u32(&mut buf)?;
        if first_tree + u64::from(n) > u64::from(u32::MAX) {
            return Err(ProgramError::Corrupt("tree index overflow"));
        }
        clusters.push(ClusterSpan { first_tree: first_tree as u32, num_trees: n });
        first_tree += u64::from(n);
    }
    if total_instrs > buf.remaining() / INSTR_SLOT_BYTES {
        return Err(ProgramError::Corrupt("instruction count"));
    }
    let mut instrs = Vec::with_capacity(total_instrs);
    for _ in 0..total_instrs {
        instrs.push(Instr {
            field: get_u32(&mut buf)?,
            absent: get_u32(&mut buf)?,
            test: get_u32(&mut buf)?,
            flags: get_u32(&mut buf)?,
            left: get_u32(&mut buf)?,
            right: get_u32(&mut buf)?,
        });
    }
    let mut weights = Vec::with_capacity(total_instrs);
    for _ in 0..total_instrs {
        weights.push(get_f64(&mut buf)?);
    }
    if buf.has_remaining() {
        return Err(ProgramError::Corrupt("trailing bytes"));
    }
    Ok(Program { instrs, weights, trees, clusters, num_fields, base_score, objective, num_outputs })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two trees — a depth-2 mixed numeric/categorical tree and a
    /// single leaf — in one cluster.
    fn tiny_program() -> Program {
        let instrs = vec![
            Instr {
                field: 0,
                absent: 9,
                test: 3,
                flags: FLAG_NUMERIC | FLAG_DEFAULT_LEFT,
                left: 1,
                right: 2,
            },
            Instr::leaf(1),
            Instr { field: 1, absent: 4, test: 2, flags: 0, left: 3, right: 4 },
            Instr::leaf(3),
            Instr::leaf(4),
            Instr::leaf(0),
        ];
        let weights = vec![0.0, 0.5, 0.0, -0.25, 1.0, 0.0625];
        Program {
            instrs,
            weights,
            trees: vec![
                TreeSpan { first: 0, len: 5, depth: 2 },
                TreeSpan { first: 5, len: 1, depth: 0 },
            ],
            clusters: vec![ClusterSpan { first_tree: 0, num_trees: 2 }],
            num_fields: 2,
            base_score: 0.25,
            objective: Objective::SquaredError,
            num_outputs: 1,
        }
    }

    #[test]
    fn step_matches_goes_left_semantics() {
        use crate::split::{goes_left, SplitRule};
        for &numeric in &[false, true] {
            for &default_left in &[false, true] {
                let mut flags = 0;
                if numeric {
                    flags |= FLAG_NUMERIC;
                }
                if default_left {
                    flags |= FLAG_DEFAULT_LEFT;
                }
                let ins = Instr { field: 0, absent: 7, test: 3, flags, left: 1, right: 2 };
                let rule = if numeric {
                    SplitRule::Numeric { threshold_bin: 3 }
                } else {
                    SplitRule::Categorical { category: 3 }
                };
                for bin in 0..9 {
                    let expect = if goes_left(rule, default_left, bin, 7) { 1 } else { 2 };
                    assert_eq!(
                        ins.step(bin),
                        expect,
                        "numeric={numeric} default_left={default_left} bin={bin}"
                    );
                }
            }
        }
    }

    #[test]
    fn leaf_instruction_self_loops_on_any_bin() {
        let ins = Instr::leaf(7);
        for bin in 0..16 {
            assert_eq!(ins.step(bin), 7);
        }
        assert!(ins.is_leaf());
    }

    #[test]
    fn tiny_program_is_valid_and_roundtrips() {
        let p = tiny_program();
        p.validate().expect("tiny program valid");
        let bytes = program_to_bytes(&p);
        let back = program_from_bytes(&bytes).expect("roundtrip");
        assert_eq!(back, p);
        assert_eq!(p.num_instrs(), 6);
        assert_eq!(p.byte_size(), 6 * INSTR_SLOT_BYTES);
        assert_eq!(p.cluster_bytes(0), p.byte_size());
    }

    type Breaker = Box<dyn Fn(&mut Program)>;

    #[test]
    fn validate_rejects_each_broken_invariant() {
        let base = tiny_program();
        let cases: Vec<(&str, Breaker)> = vec![
            ("zero field arity", Box::new(|p| p.num_fields = 0)),
            ("weights length", Box::new(|p| p.weights.pop().map(|_| ()).unwrap())),
            ("empty tree span", Box::new(|p| p.trees[1].len = 0)),
            ("tree spans not contiguous", Box::new(|p| p.trees[1].first = 4)),
            ("tree spans do not cover instrs", Box::new(|p| p.trees[1].len = 2)),
            ("empty cluster", Box::new(|p| p.clusters[0].num_trees = 0)),
            ("clusters do not cover trees", Box::new(|p| p.clusters[0].num_trees = 1)),
            ("unknown flag bits", Box::new(|p| p.instrs[0].flags |= 1 << 7)),
            ("field out of range", Box::new(|p| p.instrs[2].field = 2)),
            ("unreachable instruction", Box::new(|p| p.instrs[0].right = 1)),
            ("leaf must self-loop", Box::new(|p| p.instrs[1].left = 2)),
            ("child index breaks BFS order", Box::new(|p| p.instrs[2].left = 2)),
            ("internal weight not zero", Box::new(|p| p.weights[0] = 0.1)),
            ("tree depth mismatch", Box::new(|p| p.trees[0].depth = 3)),
            (
                "objective parameters",
                Box::new(|p| p.objective = Objective::Softmax { num_class: 1 }),
            ),
            ("num_outputs mismatch", Box::new(|p| p.num_outputs = 3)),
        ];
        for (expect, mutate) in cases {
            let mut p = base.clone();
            mutate(&mut p);
            match p.validate() {
                Err(ProgramError::Invalid(what)) => {
                    assert_eq!(what, expect, "wrong rejection for case {expect:?}")
                }
                other => panic!("case {expect:?}: expected Invalid, got {other:?}"),
            }
        }
    }

    #[test]
    fn decoder_rejects_bad_magic_version_and_checksum() {
        let bytes = program_to_bytes(&tiny_program()).to_vec();
        let mut m = bytes.clone();
        m[0] = b'X';
        assert_eq!(program_from_bytes(&m), Err(ProgramError::BadMagic));
        let mut v = bytes.clone();
        v[4] = 99;
        assert_eq!(program_from_bytes(&v), Err(ProgramError::BadVersion(99)));
        let mut c = bytes.clone();
        *c.last_mut().unwrap() ^= 1;
        assert_eq!(program_from_bytes(&c), Err(ProgramError::Corrupt("checksum mismatch")));
    }

    #[test]
    fn decoder_reads_v1_bodies_as_one_output_programs() {
        let p = tiny_program();
        let v2 = program_to_bytes(&p).to_vec();
        // Rebuild the v1 layout by hand: same body minus the
        // num_outputs u32 (the scalar objective tag doubles as the v1
        // loss byte), with the checksum recomputed over the v1 body.
        let mut body = vec![v2[16]];
        body.extend_from_slice(&v2[21..]);
        let mut v1 = Vec::new();
        v1.extend_from_slice(MAGIC);
        v1.extend_from_slice(&VERSION_V1.to_le_bytes());
        v1.extend_from_slice(&fnv1a64(&body).to_le_bytes());
        v1.extend_from_slice(&body);
        let back = program_from_bytes(&v1).expect("v1 layout must keep decoding");
        assert_eq!(back, p);
    }

    #[test]
    fn roundtrips_multi_output_headers() {
        let mut p = tiny_program();
        p.objective = Objective::Softmax { num_class: 2 };
        p.num_outputs = 2;
        p.validate().expect("2-output program valid");
        let back = program_from_bytes(&program_to_bytes(&p)).expect("roundtrip");
        assert_eq!(back, p);
    }

    #[test]
    fn decoder_bounds_hostile_counts_before_allocating() {
        // A header claiming u32::MAX trees must fail on the byte bound,
        // not attempt a multi-gigabyte allocation. Rebuild the checksum
        // so the count check (not the checksum) is what trips.
        let p = tiny_program();
        let bytes = program_to_bytes(&p).to_vec();
        let mut body = bytes[16..].to_vec();
        // num_trees sits after the objective tag (1) + num_outputs (4)
        // + base_score (8) + num_fields (4).
        body[17..21].copy_from_slice(&u32::MAX.to_le_bytes());
        let mut evil = Vec::new();
        evil.extend_from_slice(MAGIC);
        evil.extend_from_slice(&VERSION.to_le_bytes());
        evil.extend_from_slice(&fnv1a64(&body).to_le_bytes());
        evil.extend_from_slice(&body);
        assert_eq!(program_from_bytes(&evil), Err(ProgramError::Corrupt("tree count")));
    }
}
