//! The one tree walk: lock-step record lanes through branch-free
//! [`Instr`]s, shared by batch inference and training's Step 5.
//!
//! The paper serves Step 5 (one-tree traversal + gradient update) with
//! the same BU tree-table walk that serves batch inference
//! (Sec. III-B / III-D). So does this crate: `walk_lanes` and
//! `walk_one` are the walk bodies of the compiled ensemble kernel
//! ([`crate::compile`]), and [`TreeWalk`] runs them over the **one**
//! finished tree of a boosting round — lowered straight from its nodes
//! (no `Model`, no schema clone, `u32` children, any node count),
//! validated once, then walked for exactly `depth` [`Instr::step`]s per
//! record with no data-dependent branch.
//!
//! A Step-5 caller never sees a per-record walk. [`TreeWalk::for_each_block`]
//! hands it blocks of tree-local **leaf indices** (at most
//! [`BLOCK_RECORDS`], on the stack — no `O(n)` scratch), and the caller
//! folds over the block *in row order*: `margins[r] += weight(leaf)`,
//! the loss's gradient pair, the loss total, and the path sum read off
//! the depth table ([`TreeWalk::path_len`] — a record's path length is
//! the depth of the leaf it lands on, so nothing is counted per step).
//! Keeping the walk apart from the `exp`/`ln` of the refresh is half of
//! the gain; the lanes are the other half. The two folds training needs
//! are here ([`TreeWalk::traverse_update`] for a per-record [`Loss`],
//! [`TreeWalk::add_to_slot`] for a margin column), and every executor —
//! sequential, chunk-parallel, distributed worker — calls them.
//! The per-record node walk of [`crate::tree::Tree`] stays as the
//! differential oracle they are tested against.

use std::ops::Range;

use crate::gradients::{GradPair, Loss};
use crate::preprocess::{BinIndex, BinMatrix, BinnedDataset};
use crate::program::{validate_tree, Instr, ProgramError, FLAG_DEFAULT_LEFT, FLAG_NUMERIC};
use crate::split::SplitRule;
use crate::tree::{Node, Tree};

/// Records walked in lockstep through one tree: enough independent
/// walk chains to hide load latency, small enough that their row slices
/// stay register/L1-resident.
pub const LANES: usize = 8;

/// Records per block: with tens of bins per record, a block's rows and
/// margins stay L1/L2-resident while the block is walked (by every tree
/// of a cluster when scoring, by the new tree and then the refresh in
/// Step 5).
pub const BLOCK_RECORDS: usize = 256;

/// Walk [`LANES`] records through one tree in lockstep: exactly `depth`
/// branch-free [`Instr::step`]s each — the trip count depends only on
/// the tree, so there is nothing for the branch predictor to miss.
/// Returns the tree-local leaf index each record lands on.
///
/// # Safety
/// `code` must have passed [`validate_tree`] for a field arity every
/// row of `rows` holds (as a span of a validated
/// [`crate::program::Program`], or inside a [`TreeWalk`]) and `depth`
/// must be the depth it returned: every `left`/`right` then stays
/// inside `code`, every `field` inside the row, and after `depth`
/// steps every lane sits on a self-looping leaf.
#[inline(always)]
pub(crate) unsafe fn walk_lanes<B: BinIndex>(
    code: &[Instr],
    depth: u32,
    rows: &[&[B]; LANES],
) -> [u32; LANES] {
    let mut idx = [0u32; LANES];
    for _ in 0..depth {
        for l in 0..LANES {
            let ins = code.get_unchecked(idx[l] as usize);
            idx[l] = ins.step(rows[l].get_unchecked(ins.field as usize).widen());
        }
    }
    idx
}

/// [`walk_lanes`] for one record: the sub-[`LANES`] tail of a block and
/// batch-1 scoring.
///
/// # Safety
/// As [`walk_lanes`].
#[inline(always)]
pub(crate) unsafe fn walk_one<B: BinIndex>(code: &[Instr], depth: u32, row: &[B]) -> u32 {
    let mut idx = 0u32;
    for _ in 0..depth {
        let ins = code.get_unchecked(idx as usize);
        idx = ins.step(row.get_unchecked(ins.field as usize).widen());
    }
    idx
}

/// One finished tree, lowered and validated for the lane walk.
///
/// Instruction `i` is node `i` of the tree (the grower already numbers
/// children after their parents, so nothing is renumbered); fields stay
/// private so only [`TreeWalk::lower`] — which validates — can build
/// one.
#[derive(Debug, Clone)]
pub struct TreeWalk {
    code: Vec<Instr>,
    /// Leaf weight per instruction (internal: 0.0).
    weights: Vec<f64>,
    /// Depth per instruction: the path length of a record landing there.
    depths: Vec<u32>,
    /// Maximum leaf depth: the fixed step count of every walk.
    depth: u32,
    num_fields: usize,
}

impl TreeWalk {
    /// Lower `tree` for walking records of `data` (whose binnings give
    /// each tested field's absent bin).
    ///
    /// # Errors
    /// [`ProgramError::Invalid`] unless every node but the root has
    /// exactly one parent of lower index and every tested field is one
    /// of `data`'s — which every tree the grower builds satisfies, and
    /// which is what makes the unchecked walk safe and `depth[leaf]`
    /// the exact path length on caller-built trees
    /// ([`Tree::new`] accepts any node vector).
    pub fn lower(tree: &Tree, data: &BinnedDataset) -> Result<TreeWalk, ProgramError> {
        let nodes = tree.nodes();
        let binnings = data.binnings();
        let mut code = Vec::with_capacity(nodes.len());
        let mut weights = Vec::with_capacity(nodes.len());
        let mut has_parent = vec![false; nodes.len()];
        for (i, node) in nodes.iter().enumerate() {
            match node {
                Node::Leaf { weight } => {
                    // (Past `u32::MAX` nodes the index wraps and the
                    // leaf no longer self-loops: `validate_tree` rejects
                    // it.)
                    code.push(Instr::leaf(i as u32));
                    weights.push(*weight);
                }
                Node::Internal { field, rule, default_left, left, right } => {
                    let Some(binning) = binnings.get(*field as usize) else {
                        return Err(ProgramError::Invalid("field out of range"));
                    };
                    // Range and direction of the children are
                    // `validate_tree`'s to check; a second parent is
                    // not (a program may share a child), and would make
                    // a leaf's depth one of several path lengths.
                    for child in [*left, *right] {
                        if let Some(seen) = has_parent.get_mut(child as usize) {
                            if std::mem::replace(seen, true) {
                                return Err(ProgramError::Invalid("node has two parents"));
                            }
                        }
                    }
                    let (numeric, test) = match *rule {
                        SplitRule::Numeric { threshold_bin } => (FLAG_NUMERIC, threshold_bin),
                        SplitRule::Categorical { category } => (0, category),
                    };
                    let default_left = if *default_left { FLAG_DEFAULT_LEFT } else { 0 };
                    code.push(Instr {
                        field: *field,
                        absent: binning.absent_bin(),
                        test,
                        flags: numeric | default_left,
                        left: *left,
                        right: *right,
                    });
                    weights.push(0.0);
                }
            }
        }
        let num_fields = data.num_fields();
        let mut depths = Vec::with_capacity(code.len());
        let depth = validate_tree(&code, &weights, num_fields as u32, &mut depths)?;
        Ok(TreeWalk { code, weights, depths, depth, num_fields })
    }

    /// Weight of the leaf at tree-local index `leaf` (a value
    /// [`TreeWalk::for_each_block`] handed out).
    #[inline]
    pub fn weight(&self, leaf: u32) -> f64 {
        self.weights[leaf as usize]
    }

    /// Path length (edges from the root) of a record landing on `leaf`.
    #[inline]
    pub fn path_len(&self, leaf: u32) -> u32 {
        self.depths[leaf as usize]
    }

    /// Walk records `range` of `data`, calling `fold(first, leaves)`
    /// once per block of at most [`BLOCK_RECORDS`] consecutive records,
    /// in ascending order: `leaves[i]` is the tree-local leaf index
    /// record `first + i` lands on.
    ///
    /// # Panics
    /// Panics if `data` has a different field arity than the dataset
    /// the tree was lowered for, or `range` runs past its records.
    pub fn for_each_block(
        &self,
        data: &BinnedDataset,
        range: Range<usize>,
        fold: impl FnMut(usize, &[u32]),
    ) {
        assert_eq!(
            data.num_fields(),
            self.num_fields,
            "dataset field arity changed since lowering"
        );
        assert!(range.end <= data.num_records(), "record range runs past the dataset");
        match data.matrix() {
            BinMatrix::Packed(m) => self.walk_range(m, range, fold),
            BinMatrix::Wide(m) => self.walk_range(m, range, fold),
        }
    }

    /// [`TreeWalk::for_each_block`] over one matrix layout.
    fn walk_range<B: BinIndex>(
        &self,
        matrix: &[B],
        range: Range<usize>,
        mut fold: impl FnMut(usize, &[u32]),
    ) {
        let nf = self.num_fields;
        let row = |r: usize| &matrix[r * nf..(r + 1) * nf];
        let mut leaves = [0u32; BLOCK_RECORDS];
        for first in range.clone().step_by(BLOCK_RECORDS) {
            let len = (range.end - first).min(BLOCK_RECORDS);
            let mut groups = leaves[..len].chunks_exact_mut(LANES);
            let mut r = first;
            for group in &mut groups {
                let rows: [&[B]; LANES] = std::array::from_fn(|l| row(r + l));
                // SAFETY: `code` passed `validate_tree` for `num_fields`
                // in `lower` (the only constructor) and `depth` is what
                // it returned; `row` slices exactly `num_fields` bins
                // (checked indexing; `for_each_block` asserted the
                // dataset's arity).
                group.copy_from_slice(&unsafe { walk_lanes(&self.code, self.depth, &rows) });
                r += LANES;
            }
            for leaf in groups.into_remainder() {
                // SAFETY: as for the lane groups above.
                *leaf = unsafe { walk_one(&self.code, self.depth, row(r)) };
                r += 1;
            }
            fold(first, &leaves[..len]);
        }
    }

    /// Step 5 for a per-record [`Loss`] over records `first..first +
    /// margins.len()`: add the tree into the margins, refresh the
    /// gradient pairs, and hand each record's loss value to `on_loss(i,
    /// value)` in row order (`i` counts from `first`). `labels`,
    /// `margins` and `grads` are the range's slices. Returns the sum of
    /// path lengths.
    ///
    /// # Panics
    /// As [`TreeWalk::for_each_block`], or if the slices differ in
    /// length.
    #[allow(clippy::too_many_arguments)]
    pub fn traverse_update(
        &self,
        data: &BinnedDataset,
        first: usize,
        loss: Loss,
        labels: &[f32],
        margins: &mut [f64],
        grads: &mut [GradPair],
        mut on_loss: impl FnMut(usize, f64),
    ) -> u64 {
        assert!(labels.len() == margins.len() && grads.len() == margins.len());
        let mut sum_path = 0u64;
        self.for_each_block(data, first..first + margins.len(), |at, leaves| {
            let at = at - first;
            let end = at + leaves.len();
            let (labels, margins, grads) =
                (&labels[at..end], &mut margins[at..end], &mut grads[at..end]);
            for (i, &leaf) in leaves.iter().enumerate() {
                margins[i] += self.weight(leaf);
                sum_path += u64::from(self.path_len(leaf));
                let (gp, value) = loss.grad_value(margins[i], f64::from(labels[i]));
                grads[i] = gp;
                on_loss(at + i, value);
            }
        });
        sum_path
    }

    /// Add the tree into column `slot` of row-major `n x k` margins,
    /// one row per record of `data` (the coupled objectives' Step 5 and
    /// the eval margins). Returns the sum of path lengths.
    ///
    /// # Panics
    /// As [`TreeWalk::for_each_block`].
    pub fn add_to_slot(
        &self,
        data: &BinnedDataset,
        margins: &mut [f64],
        k: usize,
        slot: usize,
    ) -> u64 {
        assert!(slot < k && margins.len() == data.num_records() * k);
        let mut sum_path = 0u64;
        self.for_each_block(data, 0..data.num_records(), |at, leaves| {
            let column = margins[at * k + slot..].iter_mut().step_by(k);
            for (&leaf, m) in leaves.iter().zip(column) {
                *m += self.weight(leaf);
                sum_path += u64::from(self.path_len(leaf));
            }
        });
        sum_path
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{Dataset, RawValue};
    use crate::schema::{DatasetSchema, FieldSchema};
    use crate::train::{SequentialExec, StepExecutor};

    /// `n` records over two numeric fields.
    fn data(n: usize) -> BinnedDataset {
        let schema = DatasetSchema::new(vec![
            FieldSchema::numeric_with_bins("a", 8),
            FieldSchema::numeric_with_bins("b", 8),
        ]);
        let mut ds = Dataset::new(schema);
        for i in 0..n {
            ds.push_record(&[RawValue::Num(i as f32), RawValue::Num((i * 3 % 7) as f32)], 0.0);
        }
        BinnedDataset::from_dataset(&ds)
    }

    fn internal(field: u32, left: u32, right: u32) -> Node {
        let rule = SplitRule::Numeric { threshold_bin: 2 };
        Node::Internal { field, rule, default_left: true, left, right }
    }

    fn leaf(weight: f64) -> Node {
        Node::Leaf { weight }
    }

    fn rejection(nodes: Vec<Node>) -> &'static str {
        match TreeWalk::lower(&Tree::new(nodes), &data(4)) {
            Err(ProgramError::Invalid(what)) => what,
            other => panic!("expected an Invalid rejection, got {other:?}"),
        }
    }

    #[test]
    fn lowering_rejects_what_the_unchecked_walk_cannot_take() {
        // `Tree::new` takes any node vector; each of these would send
        // the unchecked walk out of bounds, around a cycle, or make a
        // leaf's depth ambiguous.
        let broken = "child index breaks BFS order";
        assert_eq!(rejection(vec![internal(0, 1, 9), leaf(1.0), leaf(2.0)]), broken);
        assert_eq!(rejection(vec![internal(0, 1, u32::MAX), leaf(1.0)]), broken);
        let backward = vec![internal(0, 1, 2), internal(1, 0, 3), leaf(1.0), leaf(2.0)];
        assert_eq!(rejection(backward), broken);
        assert_eq!(rejection(vec![internal(0, 0, 1), leaf(1.0)]), broken, "self-loop");
        assert_eq!(rejection(vec![internal(2, 1, 2), leaf(1.0), leaf(2.0)]), "field out of range");
        assert_eq!(rejection(vec![internal(0, 1, 1), leaf(1.0)]), "node has two parents");
        let shared = vec![internal(0, 1, 2), internal(1, 2, 3), leaf(1.0), leaf(2.0)];
        assert_eq!(rejection(shared), "node has two parents");
        let orphan = vec![internal(0, 1, 2), leaf(1.0), leaf(2.0), leaf(3.0)];
        assert_eq!(rejection(orphan), "unreachable instruction");
    }

    #[test]
    #[should_panic(expected = "Step 5 cannot walk this tree: invalid program: child index")]
    fn a_local_executor_panics_with_the_broken_invariant() {
        let d = data(4);
        let tree = Tree::new(vec![internal(0, 1, 7), leaf(1.0)]);
        let (mut margins, mut grads) = (vec![0.0; 4], vec![GradPair::zero(); 4]);
        let loss = Loss::SquaredError;
        SequentialExec.traverse_update(&d, &tree, loss, d.labels(), &mut margins, &mut grads);
    }

    #[test]
    fn single_leaf_tree_takes_no_steps() {
        let d = data(11);
        let walk = TreeWalk::lower(&Tree::leaf(0.75), &d).expect("a leaf lowers");
        let mut margins = vec![1.0; 22];
        assert_eq!(walk.add_to_slot(&d, &mut margins, 2, 1), 0, "no edges on a single leaf");
        assert!(margins.chunks(2).all(|row| row == [1.0, 1.75]));
    }

    #[test]
    fn zero_records_fold_nothing() {
        let empty = data(0);
        let tree = Tree::new(vec![internal(1, 1, 2), leaf(1.0), leaf(2.0)]);
        let walk = TreeWalk::lower(&tree, &empty).expect("lowers against an empty dataset");
        walk.for_each_block(&empty, 0..0, |_, _| panic!("no block to fold"));
        let (sum_path, total) =
            SequentialExec.traverse_update(&empty, &tree, Loss::Logistic, &[], &mut [], &mut []);
        assert_eq!((sum_path, total.to_bits()), (0, 0.0f64.to_bits()));
    }

    #[test]
    fn blocks_arrive_in_order_and_cover_the_range() {
        let d = data(BLOCK_RECORDS * 2 + 13);
        let tree =
            Tree::new(vec![internal(0, 1, 2), leaf(1.0), internal(1, 3, 4), leaf(2.0), leaf(3.0)]);
        let walk = TreeWalk::lower(&tree, &d).unwrap();
        let mut next = 5usize;
        walk.for_each_block(&d, 5..d.num_records(), |first, leaves| {
            assert_eq!(first, next);
            for (i, &leaf) in leaves.iter().enumerate() {
                let (w, path) = tree.traverse_binned(&d, first + i);
                assert_eq!(
                    (walk.weight(leaf), walk.path_len(leaf)),
                    (w, path),
                    "record {}",
                    first + i
                );
            }
            next += leaves.len();
        });
        assert_eq!(next, d.num_records());
    }
}
