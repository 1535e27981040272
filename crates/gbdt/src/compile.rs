//! Compiler from [`FlatEnsemble`] to a partitioned branch-free bytecode
//! program, plus the blocked lane kernel that runs it — the one
//! production scoring engine (the per-record node walk in
//! [`crate::predict`] is kept only as the differential oracle).
//!
//! A walk over the lowered tree tables ([`crate::infer`]) pays three
//! dependent loads per step (entry, field, absent) and a data-dependent
//! leaf branch that the hardware mispredicts near the leaves.
//! Compilation removes both, the way the accelerator's fixed-function
//! walk does:
//!
//! 1. **Specialization pass** — every tree-table entry becomes one
//!    fully resolved [`Instr`]: original field id, absent bin, and
//!    threshold folded into the instruction, the numeric/categorical
//!    test and default direction reduced to flag bits consumed by a
//!    cmov-style mask select ([`Instr::step`]). Leaves become
//!    self-looping instructions so every tree runs a *fixed* number of
//!    steps with **no data-dependent branch anywhere in the walk**.
//! 2. **DCE pass** — instructions are emitted in BFS order from each
//!    root, so entries unreachable from the root (and whole trees past
//!    a [`CompileOptions::max_trees`] truncation point, mirroring
//!    [`crate::predict::Model::truncated`]) are dropped, never loaded,
//!    and never serialized.
//! 3. **Partition pass** — trees are greedily grouped, in ensemble
//!    order, into contiguous [`ClusterSpan`]s whose instruction +
//!    weight bytes stay under [`CompileOptions::cluster_bytes`] — the
//!    software analogue of sizing a BU's tree tables to its SRAM. The
//!    kernel streams every record block through one cluster before
//!    touching the next, so cluster code stays cache-resident across
//!    the whole batch.
//!
//! [`CompiledEnsemble::score_into`] then runs the program in cache-sized
//! record blocks with [`LANES`] records walked in lockstep per tree, for
//! any number of outputs `K` (tree `t` feeds output slot `t % K`), and
//! is **bit-identical** to the oracle
//! ([`crate::predict::Model::predict_batch_outputs`]): clusters partition
//! trees contiguously in ensemble order, so each output slot of each
//! record still accumulates its leaf weights in exact tree order
//! (`tests/compiled_differential.rs` enforces this across growth
//! strategies, output counts, truncations, and partition shapes).
//! [`CompiledEnsemble::score_into_parallel`] is the one parallel
//! driver: contiguous record ranges of the same kernel fanned over
//! cores.

use rayon::prelude::*;

use crate::infer::FlatEnsemble;
use crate::preprocess::{BinIndex, BinMatrix, BinnedDataset};
use crate::program::{
    self, program_to_bytes, ClusterSpan, Instr, Program, ProgramError, TreeSpan, FLAG_DEFAULT_LEFT,
    FLAG_NUMERIC, INSTR_SLOT_BYTES,
};
use crate::tree::TableEntry;
use crate::walk::{walk_lanes, walk_one, BLOCK_RECORDS};

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

pub use crate::walk::LANES;

/// Knobs for [`compile`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompileOptions {
    /// Upper bound on one cluster's instruction + weight bytes
    /// ([`INSTR_SLOT_BYTES`] per instruction). A tree larger than the
    /// budget gets a cluster of its own — the pass never splits a
    /// tree. Default 256 KiB: half a typical L2, leaving room for the
    /// record block and margins.
    pub cluster_bytes: usize,
    /// Compile only the first `n` trees (clamped like
    /// [`crate::predict::Model::truncated`]: at least 1, at most the
    /// model's tree count); the rest are dead code and dropped entirely.
    /// `None` compiles every tree.
    pub max_trees: Option<usize>,
}

impl Default for CompileOptions {
    fn default() -> Self {
        CompileOptions { cluster_bytes: 256 * 1024, max_trees: None }
    }
}

/// Errors from [`compile`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompileError {
    /// The ensemble needs more instructions than the `u32` index space
    /// of the program format.
    ProgramTooLarge {
        /// Instructions the ensemble would need.
        instrs: usize,
    },
}

impl std::fmt::Display for CompileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompileError::ProgramTooLarge { instrs } => {
                write!(f, "ensemble needs {instrs} instructions, over the u32 program limit")
            }
        }
    }
}

impl std::error::Error for CompileError {}

/// Specialize + DCE one tree: BFS from the root over its table entries,
/// renumbering so children always follow parents, and emit one
/// instruction per *reachable* entry. Returns `(len, depth, dropped)`.
fn lower_tree(
    entries: &[TableEntry],
    fields: &[u32],
    absents: &[u32],
    weights: &[f64],
    out_instrs: &mut Vec<Instr>,
    out_weights: &mut Vec<f64>,
) -> (u32, u32, usize) {
    let n = entries.len();
    let mut order: Vec<u32> = Vec::with_capacity(n);
    let mut renum: Vec<u32> = vec![u32::MAX; n];
    let mut depth_of: Vec<u32> = vec![0; n];
    order.push(0);
    renum[0] = 0;
    let mut head = 0;
    let mut max_depth = 0u32;
    while head < order.len() {
        let old = order[head] as usize;
        head += 1;
        let e = &entries[old];
        if e.kind == 2 {
            max_depth = max_depth.max(depth_of[old]);
            continue;
        }
        for child in [e.left as usize, e.right as usize] {
            if renum[child] == u32::MAX {
                renum[child] = order.len() as u32;
                depth_of[child] = depth_of[old] + 1;
                order.push(child as u32);
            }
        }
    }
    for (new_idx, &old) in order.iter().enumerate() {
        let old = old as usize;
        let e = &entries[old];
        if e.kind == 2 {
            out_instrs.push(Instr::leaf(new_idx as u32));
            out_weights.push(weights[old]);
        } else {
            let mut flags = 0;
            if e.kind == 0 {
                flags |= FLAG_NUMERIC;
            }
            if e.default_left {
                flags |= FLAG_DEFAULT_LEFT;
            }
            out_instrs.push(Instr {
                field: fields[old],
                absent: absents[old],
                test: e.threshold,
                flags,
                left: renum[e.left as usize],
                right: renum[e.right as usize],
            });
            out_weights.push(0.0);
        }
    }
    (order.len() as u32, max_depth, n - order.len())
}

/// Lower a flat ensemble into a partitioned branch-free program.
///
/// # Errors
/// [`CompileError::ProgramTooLarge`] if the reachable instruction count
/// exceeds the format's `u32` index space.
pub fn compile(
    flat: &FlatEnsemble,
    opts: &CompileOptions,
) -> Result<CompiledEnsemble, CompileError> {
    let nt = flat.num_trees();
    let keep = match opts.max_trees {
        Some(k) if nt > 0 => k.clamp(1, nt),
        _ => nt,
    };
    let mut instrs = Vec::new();
    let mut weights = Vec::new();
    let mut trees = Vec::with_capacity(keep);
    let mut dropped = 0usize;
    for t in 0..keep {
        let (entries, fields, absents, w) = flat.tree_parts(t);
        let first = instrs.len();
        if first + entries.len() > u32::MAX as usize {
            return Err(CompileError::ProgramTooLarge { instrs: first + entries.len() });
        }
        let (len, depth, dce) = lower_tree(entries, fields, absents, w, &mut instrs, &mut weights);
        dropped += dce;
        trees.push(TreeSpan { first: first as u32, len, depth });
    }
    // Trees past the truncation point are dead code in their entirety.
    for t in keep..nt {
        dropped += flat.tree_parts(t).0.len();
    }

    // Partition pass: greedy contiguous packing under the byte budget.
    let mut clusters = Vec::new();
    let mut first_tree = 0u32;
    let mut in_cluster = 0u32;
    let mut bytes = 0usize;
    for (t, span) in trees.iter().enumerate() {
        let tree_bytes = span.len as usize * INSTR_SLOT_BYTES;
        if in_cluster > 0 && bytes + tree_bytes > opts.cluster_bytes {
            clusters.push(ClusterSpan { first_tree, num_trees: in_cluster });
            first_tree = t as u32;
            in_cluster = 0;
            bytes = 0;
        }
        in_cluster += 1;
        bytes += tree_bytes;
    }
    if in_cluster > 0 {
        clusters.push(ClusterSpan { first_tree, num_trees: in_cluster });
    }

    let program = Program {
        instrs,
        weights,
        trees,
        clusters,
        num_fields: flat.num_fields() as u32,
        base_score: flat.base_score(),
        objective: flat.objective(),
        num_outputs: flat.num_outputs() as u32,
    };
    // Validate in release too (one-time, O(instrs)): every
    // `CompiledEnsemble` construction path establishes the structural
    // invariants the interpreter's unchecked indexing relies on.
    let compiled =
        CompiledEnsemble::from_program(program).expect("compiler emitted an invalid program");
    Ok(CompiledEnsemble { dropped_entries: dropped, ..compiled })
}

/// A validated program plus its blocked lane kernel.
///
/// Immutable after construction (all scoring takes `&self`), so it is
/// `Send + Sync` and freely shared across serving threads.
#[derive(Debug, Clone)]
pub struct CompiledEnsemble {
    program: Program,
    /// Depth of every instruction in its tree, indexed like
    /// `program.instrs` (what [`Program::instr_depths`] returned when
    /// the program was validated): a record's path length through a
    /// tree is the depth of the leaf it lands on.
    depths: Vec<u32>,
    /// Table entries eliminated by DCE + truncation (0 for programs
    /// rebuilt from bytes — the stat is not part of the wire format).
    dropped_entries: usize,
    /// Cluster residency odometer: one tick per cluster×record-block
    /// kernel pass, read by [`CompiledEnsemble::cluster_passes`]
    /// (and exported as a serving gauge). Behind an `Arc` so clones
    /// share the count; one relaxed add per drive call keeps it off
    /// the per-record path.
    cluster_passes: Arc<AtomicU64>,
}

impl CompiledEnsemble {
    /// Wrap an externally supplied program after full validation, so
    /// the kernel's no-per-step-check execution stays sound.
    ///
    /// # Errors
    /// [`ProgramError::Invalid`] describing the first broken invariant.
    pub fn from_program(program: Program) -> Result<Self, ProgramError> {
        let depths = program.instr_depths()?;
        Ok(CompiledEnsemble { program, depths, dropped_entries: 0, cluster_passes: Arc::default() })
    }

    /// Serialize the program (see [`crate::program`] for the format).
    pub fn to_bytes(&self) -> bytes::Bytes {
        program_to_bytes(&self.program)
    }

    /// Decode + validate a serialized program.
    ///
    /// # Errors
    /// Any [`ProgramError`]: corrupt bytes never yield an ensemble.
    pub fn from_bytes(data: &[u8]) -> Result<Self, ProgramError> {
        program::decode(data).and_then(Self::from_program)
    }

    /// The underlying program.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// Number of compiled trees.
    pub fn num_trees(&self) -> usize {
        self.program.trees.len()
    }

    /// Number of cache clusters the partition pass produced.
    pub fn num_clusters(&self) -> usize {
        self.program.clusters.len()
    }

    /// Total instructions after DCE.
    pub fn num_instrs(&self) -> usize {
        self.program.num_instrs()
    }

    /// Kernel working-set bytes (instructions + weights).
    pub fn byte_size(&self) -> usize {
        self.program.byte_size()
    }

    /// Table entries dropped by DCE / truncation during compilation.
    pub fn dce_dropped(&self) -> usize {
        self.dropped_entries
    }

    /// Cluster residency: total cluster×record-block kernel passes
    /// run so far (shared across clones). Rising passes with a stable
    /// cluster count means the partition pass is keeping code
    /// cache-resident across whole batches — the serving tier exports
    /// this per version.
    pub fn cluster_passes(&self) -> u64 {
        self.cluster_passes.load(Ordering::Relaxed)
    }

    /// Field arity every scored record must have.
    pub fn num_fields(&self) -> usize {
        self.program.num_fields as usize
    }

    /// Outputs per record (`K`); 1 for every scalar objective.
    pub fn num_outputs(&self) -> usize {
        self.program.num_outputs as usize
    }

    /// Walk every tree of one cluster over one record block, adding
    /// exact leaf weights into the block's row-major `records x K`
    /// margins (and path lengths into `paths` under `PATHS`; the slice
    /// is empty otherwise). `row_of(r)` yields record `r`'s full-arity
    /// bin row.
    ///
    /// Tree `t` feeds output slot `t % K`, so both loops go slot by
    /// slot over every `K`-th tree of the cluster: a slot's running
    /// margin stays in a register across its trees, and each slot still
    /// sees its trees in ensemble order. `K = 1` is one pass over every
    /// tree, and `SCALAR` monomorphizes it: a runtime stride of 1 cost
    /// the wide-bin lane loop 8%.
    ///
    /// The lane loop is the hot path: [`walk_lanes`] advances `LANES`
    /// records through a tree in lockstep, the walk Step 5 of training
    /// runs too ([`crate::walk`]). A record's path length through a
    /// tree is the depth of the leaf it lands on, so counting paths
    /// (the Fig-13 workload measurement) is one more table read per
    /// tree and rides the same lanes; `PATHS` keeps that read out of
    /// plain scoring's instantiation. The sub-`LANES` tail of a block
    /// takes [`walk_one`].
    fn run_cluster<'a, const SCALAR: bool, const PATHS: bool, B, R>(
        &self,
        cl: &ClusterSpan,
        row_of: &R,
        r0: usize,
        margins: &mut [f64],
        paths: &mut [u64],
    ) where
        B: BinIndex,
        R: Fn(usize) -> &'a [B],
    {
        let p = &self.program;
        let k = if SCALAR { 1 } else { p.num_outputs as usize };
        let t0 = cl.first_tree as usize;
        let spans = &p.trees[t0..t0 + cl.num_trees as usize];
        // Tree `t0 + j` opens slot `(t0 + j) % k`; past `k` trees every
        // slot is open.
        let slots = k.min(spans.len());
        let n = margins.len() / k;
        let lane_end = n - n % LANES;
        // SAFETY of the walks and the unchecked table reads below:
        // every construction path (`compile`, `from_program`,
        // `from_bytes`) runs `Program::instr_depths`, which puts each
        // span through `validate_tree` — span-relative child indices
        // stay inside their tree span, leaves self-loop, every `field`
        // is `< num_fields`, `span.depth` is the exact step count — and
        // `depths` is its output, one entry per instruction; callers
        // assert each row has exactly `num_fields` bins. A walk starts
        // at 0 (spans are non-empty) and only ever takes values of
        // validated `left`/`right` fields.
        for i in (0..lane_end).step_by(LANES) {
            let rows: [&[B]; LANES] = std::array::from_fn(|l| row_of(r0 + i + l));
            let mut edges = [0u64; LANES];
            for j in 0..slots {
                let c = (t0 + j) % k;
                let mut acc: [f64; LANES] = std::array::from_fn(|l| margins[(i + l) * k + c]);
                for span in spans[j..].iter().step_by(k) {
                    let first = span.first as usize;
                    let len = span.len as usize;
                    let w = &p.weights[first..first + len];
                    // SAFETY: see block comment above.
                    let idx =
                        unsafe { walk_lanes(&p.instrs[first..first + len], span.depth, &rows) };
                    for l in 0..LANES {
                        // SAFETY: see block comment above.
                        acc[l] += unsafe { *w.get_unchecked(idx[l] as usize) };
                    }
                    if PATHS {
                        let d = &self.depths[first..first + len];
                        for l in 0..LANES {
                            // SAFETY: see block comment above.
                            edges[l] += u64::from(unsafe { *d.get_unchecked(idx[l] as usize) });
                        }
                    }
                }
                for l in 0..LANES {
                    margins[(i + l) * k + c] = acc[l];
                }
            }
            if PATHS {
                for l in 0..LANES {
                    paths[i + l] += edges[l];
                }
            }
        }
        for i in lane_end..n {
            let row = row_of(r0 + i);
            for j in 0..slots {
                let c = (t0 + j) % k;
                let mut m = margins[i * k + c];
                for span in spans[j..].iter().step_by(k) {
                    let first = span.first as usize;
                    let code = &p.instrs[first..first + span.len as usize];
                    // SAFETY: see block comment above.
                    let leaf = first + unsafe { walk_one(code, span.depth, row) } as usize;
                    m += p.weights[leaf];
                    if PATHS {
                        paths[i] += u64::from(self.depths[leaf]);
                    }
                }
                margins[i * k + c] = m;
            }
        }
    }

    /// Cluster-major blocked drive over `out.len() / K` records: every
    /// record block streams through cluster 0, then cluster 1, … so
    /// each output slot still accumulates leaf weights in exact global
    /// tree order (clusters are contiguous tree ranges) while one
    /// cluster's code stays cache-hot for the whole batch. `out` is
    /// fully overwritten; under `PATHS`, `paths` holds one zeroed slot
    /// per record (it is not read otherwise).
    fn drive<'a, const PATHS: bool, B, R>(&self, row_of: &R, out: &mut [f64], paths: &mut [u64])
    where
        B: BinIndex,
        R: Fn(usize) -> &'a [B],
    {
        let p = &self.program;
        let k = p.num_outputs as usize;
        let n = out.len() / k;
        out.fill(p.base_score);
        // One relaxed add per drive call (not per block) keeps the
        // residency odometer invisible to the hot loop.
        let blocks = n.div_ceil(BLOCK_RECORDS) as u64;
        self.cluster_passes.fetch_add(blocks * p.clusters.len() as u64, Ordering::Relaxed);
        for cl in &p.clusters {
            for r0 in (0..n).step_by(BLOCK_RECORDS) {
                let r1 = (r0 + BLOCK_RECORDS).min(n);
                let block_paths = if PATHS { &mut paths[r0..r1] } else { &mut [][..] };
                let block = &mut out[r0 * k..r1 * k];
                if k == 1 {
                    self.run_cluster::<true, PATHS, B, R>(cl, row_of, r0, block, block_paths);
                } else {
                    self.run_cluster::<false, PATHS, B, R>(cl, row_of, r0, block, block_paths);
                }
            }
        }
        for row in out.chunks_mut(k) {
            p.objective.transform_outputs(row);
        }
    }

    /// [`CompiledEnsemble::drive`] over records `r0..` of a binned
    /// dataset. Dispatches the bin-matrix layout once; the lane loop is
    /// monomorphized per element width (packed rows stream 4x denser).
    fn drive_dataset<const PATHS: bool>(
        &self,
        data: &BinnedDataset,
        r0: usize,
        out: &mut [f64],
        paths: &mut [u64],
    ) {
        let nf = data.num_fields();
        match data.matrix() {
            BinMatrix::Packed(m) => {
                self.drive::<PATHS, _, _>(&|r| &m[(r0 + r) * nf..(r0 + r + 1) * nf], out, paths);
            }
            BinMatrix::Wide(m) => {
                self.drive::<PATHS, _, _>(&|r| &m[(r0 + r) * nf..(r0 + r + 1) * nf], out, paths);
            }
        }
    }

    fn check_shape(&self, data: &BinnedDataset, out: &[f64]) {
        assert_eq!(
            data.num_fields(),
            self.num_fields(),
            "dataset field arity does not match the compiled program"
        );
        assert_eq!(
            out.len(),
            data.num_records() * self.num_outputs(),
            "output buffer must hold num_outputs slots per record"
        );
    }

    /// Score a binned dataset into a caller-provided buffer: one
    /// row-major `K`-slot row per record (`out[r * K + c]`; a plain
    /// prediction vector when `K = 1`) with the objective's link
    /// function applied. `out` is fully overwritten; allocation-free and
    /// bit-identical to [`crate::predict::Model::predict_batch_outputs`].
    ///
    /// # Panics
    /// Panics if `out.len() != num_records * num_outputs` or on a
    /// field-arity mismatch.
    pub fn score_into(&self, data: &BinnedDataset, out: &mut [f64]) {
        self.check_shape(data, out);
        self.drive_dataset::<false>(data, 0, out, &mut []);
    }

    /// [`CompiledEnsemble::score_into`] with one contiguous record
    /// range per core, each streamed through the same kernel — the
    /// analogue of streaming record shards through ensemble replicas.
    /// Records never interact, so the result is bit-identical for any
    /// core count.
    ///
    /// # Panics
    /// As [`CompiledEnsemble::score_into`].
    pub fn score_into_parallel(&self, data: &BinnedDataset, out: &mut [f64]) {
        self.check_shape(data, out);
        let per_core = data.num_records().div_ceil(rayon::current_num_threads()).max(1);
        out.par_chunks_mut(per_core * self.num_outputs())
            .enumerate()
            .map(|(c, chunk)| self.drive_dataset::<false>(data, c * per_core, chunk, &mut []))
            .for_each();
    }

    /// [`CompiledEnsemble::score_into`] with an owned result.
    pub fn predict_batch(&self, data: &BinnedDataset) -> Vec<f64> {
        let mut out = vec![0.0; data.num_records() * self.num_outputs()];
        self.score_into(data, &mut out);
        out
    }

    /// Score a raw row-major bin matrix (`bins[r * num_fields + f]`)
    /// into `records x K` outputs — the allocation-free entry point
    /// online serving uses for coalesced micro-batches (and single
    /// records) that never materialize a [`BinnedDataset`].
    ///
    /// # Panics
    /// Panics if the matrix is not `records x num_fields` or `out` is
    /// not `records x num_outputs`.
    pub fn score_bins_into(&self, bins: &[u32], out: &mut [f64]) {
        let nf = self.num_fields();
        assert_eq!(bins.len() % nf, 0, "bin matrix shape must be records x fields");
        assert_eq!(
            out.len(),
            bins.len() / nf * self.num_outputs(),
            "output buffer must hold num_outputs slots per record"
        );
        self.drive::<false, _, _>(&|r| &bins[r * nf..(r + 1) * nf], out, &mut []);
    }

    /// Batch prediction returning per-record total path length (edges
    /// walked across all trees) — on un-truncated programs, identical to
    /// [`crate::predict::Model::predict_batch_with_paths`].
    pub fn predict_batch_with_paths(&self, data: &BinnedDataset) -> (Vec<f64>, Vec<u64>) {
        let n = data.num_records();
        let mut out = vec![0.0; n * self.num_outputs()];
        let mut paths = vec![0u64; n];
        self.check_shape(data, &out);
        self.drive_dataset::<true>(data, 0, &mut out, &mut paths);
        (out, paths)
    }
}

// The serving layer shares compiled programs across worker threads;
// keep the auto-traits pinned.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<CompiledEnsemble>();
    assert_send_sync::<Program>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::columnar::ColumnarMirror;
    use crate::dataset::{Dataset, RawValue};
    use crate::gradients::Objective;
    use crate::predict::Model;
    use crate::schema::{DatasetSchema, FieldSchema};
    use crate::train::{train, TrainConfig};

    fn trained() -> (Model, BinnedDataset) {
        let schema = DatasetSchema::new(vec![
            FieldSchema::numeric_with_bins("x", 16),
            FieldSchema::categorical("c", 3),
            FieldSchema::numeric_with_bins("y", 8),
        ]);
        let mut ds = Dataset::new(schema);
        for i in 0..700 {
            let x = if i % 13 == 0 { RawValue::Missing } else { RawValue::Num(i as f32) };
            let c = RawValue::Cat(i % 3);
            let y = RawValue::Num(((i * 7) % 100) as f32);
            let label = f32::from(u8::from(i >= 350)) + ((i % 3) as f32) * 0.1;
            ds.push_record(&[x, c, y], label);
        }
        let data = BinnedDataset::from_dataset(&ds);
        let mirror = ColumnarMirror::from_binned(&data);
        let cfg = TrainConfig { num_trees: 6, max_depth: 4, ..Default::default() };
        let (model, _) = train(&data, &mirror, &cfg);
        (model, data)
    }

    #[test]
    fn compiled_matches_node_walk_bitwise() {
        let (model, data) = trained();
        let flat = FlatEnsemble::from_model(&model).unwrap();
        let compiled = compile(&flat, &CompileOptions::default()).unwrap();
        let expect = model.predict_batch(&data);
        let got = compiled.predict_batch(&data);
        for (r, (a, b)) in got.iter().zip(&expect).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "record {r}");
        }
    }

    /// The trained trees round-robined into three softmax slots.
    fn softmax(model: Model) -> Model {
        Model {
            objective: Objective::Softmax { num_class: 3 },
            num_outputs: 3,
            base_score: 0.0,
            ..model
        }
    }

    #[test]
    fn compiled_multi_output_matches_flat_bitwise() {
        let (model, data) = trained();
        let m = softmax(model);
        let flat = FlatEnsemble::from_model(&m).unwrap();
        let expect = m.predict_batch_outputs(&data);
        // One tree per cluster makes every cluster open a different
        // slot; the default puts all six trees in one.
        for cluster_bytes in [1, CompileOptions::default().cluster_bytes] {
            let compiled =
                compile(&flat, &CompileOptions { cluster_bytes, max_trees: None }).unwrap();
            let mut got = vec![f64::NAN; expect.len()];
            compiled.score_into(&data, &mut got);
            for (i, (a, b)) in got.iter().zip(&expect).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "cluster_bytes={cluster_bytes} slot {i}");
            }
            // Wire roundtrip keeps the multi-output header.
            let back = CompiledEnsemble::from_bytes(&compiled.to_bytes()).unwrap();
            assert_eq!(back.num_outputs(), 3);
            assert_eq!(back.predict_batch(&data), got);
        }
    }

    #[test]
    fn every_partition_shape_is_bit_identical() {
        let (model, data) = trained();
        let flat = FlatEnsemble::from_model(&model).unwrap();
        let expect = model.predict_batch(&data);
        // One instruction slot per cluster budget forces one tree per
        // cluster; usize::MAX forces a single cluster.
        for cluster_bytes in [1, INSTR_SLOT_BYTES * 40, usize::MAX] {
            let c = compile(&flat, &CompileOptions { cluster_bytes, max_trees: None }).unwrap();
            assert!(c.num_clusters() >= 1 && c.num_clusters() <= c.num_trees());
            if cluster_bytes == 1 {
                assert_eq!(c.num_clusters(), c.num_trees(), "tiny budget: one tree per cluster");
            }
            if cluster_bytes == usize::MAX {
                assert_eq!(c.num_clusters(), 1, "unbounded budget: single cluster");
            }
            let got = c.predict_batch(&data);
            for (r, (a, b)) in got.iter().zip(&expect).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "cluster_bytes={cluster_bytes} record {r}");
            }
        }
    }

    #[test]
    fn clusters_respect_the_byte_budget() {
        let (model, _) = trained();
        let flat = FlatEnsemble::from_model(&model).unwrap();
        let budget = 4 * INSTR_SLOT_BYTES * 8; // small enough to force splits
        let c = compile(&flat, &CompileOptions { cluster_bytes: budget, max_trees: None }).unwrap();
        let p = c.program();
        for i in 0..c.num_clusters() {
            let bytes = p.cluster_bytes(i);
            // A cluster only exceeds the budget when a single tree does.
            assert!(
                bytes <= budget || p.clusters[i].num_trees == 1,
                "cluster {i}: {bytes} bytes over budget with multiple trees"
            );
        }
    }

    #[test]
    fn max_trees_matches_model_truncated_bitwise() {
        let (model, data) = trained();
        let flat = FlatEnsemble::from_model(&model).unwrap();
        for k in [0usize, 1, 3, 6, 99] {
            let c =
                compile(&flat, &CompileOptions { max_trees: Some(k), ..CompileOptions::default() })
                    .unwrap();
            let truncated = model.truncated(k);
            assert_eq!(c.num_trees(), truncated.num_trees(), "clamping must match truncated({k})");
            let expect = truncated.predict_batch(&data);
            let got = c.predict_batch(&data);
            for (r, (a, b)) in got.iter().zip(&expect).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "max_trees={k} record {r}");
            }
        }
    }

    #[test]
    fn truncation_dce_accounts_for_dropped_trees() {
        let (model, _) = trained();
        let flat = FlatEnsemble::from_model(&model).unwrap();
        let full = compile(&flat, &CompileOptions::default()).unwrap();
        let cut =
            compile(&flat, &CompileOptions { max_trees: Some(2), ..CompileOptions::default() })
                .unwrap();
        assert_eq!(
            cut.dce_dropped() - full.dce_dropped(),
            flat.num_entries() - (flat.tree_parts(0).0.len() + flat.tree_parts(1).0.len()),
            "entries of trees 2.. must be counted as dropped"
        );
        assert!(cut.num_instrs() < full.num_instrs());
    }

    #[test]
    fn program_roundtrip_preserves_scores_bitwise() {
        let (model, data) = trained();
        let flat = FlatEnsemble::from_model(&model).unwrap();
        let compiled = compile(&flat, &CompileOptions::default()).unwrap();
        let back = CompiledEnsemble::from_bytes(&compiled.to_bytes()).expect("roundtrip");
        assert_eq!(back.program(), compiled.program());
        let a = compiled.predict_batch(&data);
        let b = back.predict_batch(&data);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn compiled_paths_match_flat_paths() {
        // Edge counts are per record whatever the partition shape or
        // the number of output slots the trees feed.
        let (model, data) = trained();
        let (_, expect) = model.predict_batch_with_paths(&data);
        let multi = softmax(model.clone());
        for (m, cluster_bytes) in [(&model, 1), (&multi, 1), (&multi, usize::MAX)] {
            let flat = FlatEnsemble::from_model(m).unwrap();
            let c = compile(&flat, &CompileOptions { cluster_bytes, max_trees: None }).unwrap();
            let (preds, paths) = c.predict_batch_with_paths(&data);
            assert_eq!(paths, expect, "K={} cluster_bytes={cluster_bytes}", m.num_outputs);
            let outputs = m.predict_batch_outputs(&data);
            for (a, b) in preds.iter().zip(&outputs) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    #[should_panic(expected = "output buffer")]
    fn score_into_rejects_short_buffer() {
        let (model, data) = trained();
        let flat = FlatEnsemble::from_model(&model).unwrap();
        let mut out = vec![0.0; data.num_records() - 1];
        flat.compiled().score_into(&data, &mut out);
    }
}
