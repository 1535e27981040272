//! Decision trees and their flat table encoding.
//!
//! A trained tree is a vector of nodes (index 0 = root). The software
//! walks it through [`crate::walk`] (Step 5) and [`crate::compile`]
//! (batch inference); for the accelerator model the tree is lowered to
//! a [`TreeTable`] — the paper's
//! "well-known idea of mapping the newly-grown tree to a table where each
//! entry captures a vertex by encoding its predicate and pointers to the
//! vertex's left and right children" (Section III-B), with fields
//! *renumbered* among the fields the tree actually uses so the BU can index
//! the fetched single-field columns compactly.

use serde::{Deserialize, Serialize};

use crate::preprocess::BinnedDataset;
use crate::split::{goes_left, SplitRule};

/// One tree node.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Node {
    /// Internal decision node.
    Internal {
        /// Field tested by the predicate.
        field: u32,
        /// The predicate.
        rule: SplitRule,
        /// Direction taken by records with the field absent.
        default_left: bool,
        /// Index of the left child.
        left: u32,
        /// Index of the right child.
        right: u32,
    },
    /// Leaf carrying the weak prediction `w`.
    Leaf {
        /// Leaf weight (before learning-rate shrinkage is applied by the
        /// trainer).
        weight: f64,
    },
}

/// A regression tree.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Tree {
    nodes: Vec<Node>,
}

impl Tree {
    /// Build from nodes. Node 0 must be the root.
    pub fn new(nodes: Vec<Node>) -> Self {
        assert!(!nodes.is_empty(), "tree needs at least a root");
        Tree { nodes }
    }

    /// A single-leaf tree.
    pub fn leaf(weight: f64) -> Self {
        Tree { nodes: vec![Node::Leaf { weight }] }
    }

    /// The nodes.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Total node count.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Leaf count.
    pub fn num_leaves(&self) -> usize {
        self.nodes.iter().filter(|n| matches!(n, Node::Leaf { .. })).count()
    }

    /// Maximum root-to-leaf edge count.
    pub fn depth(&self) -> u32 {
        self.depth_from(0)
    }

    fn depth_from(&self, idx: u32) -> u32 {
        match &self.nodes[idx as usize] {
            Node::Leaf { .. } => 0,
            Node::Internal { left, right, .. } => {
                1 + self.depth_from(*left).max(self.depth_from(*right))
            }
        }
    }

    /// Traverse with a per-field bin lookup; returns `(leaf weight,
    /// path length in edges)`. This node walk is the reference every
    /// other walk is tested against (`Model::predict_*`, the Step-5
    /// differential tests); training and scoring run the lane walk of
    /// [`crate::walk`].
    #[inline]
    pub fn traverse<F, A>(&self, bin_of_field: F, absent_of_field: A) -> (f64, u32)
    where
        F: Fn(usize) -> u32,
        A: Fn(usize) -> u32,
    {
        let mut idx = 0u32;
        let mut path = 0u32;
        loop {
            match &self.nodes[idx as usize] {
                Node::Leaf { weight } => return (*weight, path),
                Node::Internal { field, rule, default_left, left, right } => {
                    let f = *field as usize;
                    let bin = bin_of_field(f);
                    let absent = absent_of_field(f);
                    idx = if goes_left(*rule, *default_left, bin, absent) { *left } else { *right };
                    path += 1;
                }
            }
        }
    }

    /// Traverse for record `r` of a binned dataset (the oracle's
    /// per-record walk). Monomorphized per row layout so the packed
    /// path stays a plain byte load.
    #[inline]
    pub fn traverse_binned(&self, data: &BinnedDataset, r: usize) -> (f64, u32) {
        let binnings = data.binnings();
        let absent = |f: usize| binnings[f].absent_bin();
        match data.row(r) {
            crate::preprocess::RowRef::Packed(row) => self.traverse(|f| u32::from(row[f]), absent),
            crate::preprocess::RowRef::Wide(row) => self.traverse(|f| row[f], absent),
        }
    }

    /// Sorted, deduplicated list of fields used by this tree's predicates
    /// (the set whose single-field columns Step 5 fetches).
    pub fn fields_used(&self) -> Vec<u32> {
        let mut fields: Vec<u32> = self
            .nodes
            .iter()
            .filter_map(|n| match n {
                Node::Internal { field, .. } => Some(*field),
                Node::Leaf { .. } => None,
            })
            .collect();
        fields.sort_unstable();
        fields.dedup();
        fields
    }

    /// Histogram of leaf depths weighted by nothing (structure only):
    /// `(depth, leaf count)` pairs, ascending by depth.
    pub fn leaf_depth_histogram(&self) -> Vec<(u32, usize)> {
        let mut counts: Vec<(u32, usize)> = Vec::new();
        self.collect_leaf_depths(0, 0, &mut counts);
        counts.sort_unstable();
        counts
    }

    fn collect_leaf_depths(&self, idx: u32, depth: u32, out: &mut Vec<(u32, usize)>) {
        match &self.nodes[idx as usize] {
            Node::Leaf { .. } => {
                if let Some(e) = out.iter_mut().find(|(d, _)| *d == depth) {
                    e.1 += 1;
                } else {
                    out.push((depth, 1));
                }
            }
            Node::Internal { left, right, .. } => {
                self.collect_leaf_depths(*left, depth + 1, out);
                self.collect_leaf_depths(*right, depth + 1, out);
            }
        }
    }

    /// Lower to the flat table encoding used by the BUs.
    ///
    /// # Panics
    /// Panics if the tree cannot be encoded (see
    /// [`TreeTable::try_from_tree`]); use [`Tree::try_to_table`] to
    /// handle oversized trees gracefully.
    pub fn to_table(&self) -> TreeTable {
        TreeTable::from_tree(self)
    }

    /// Fallible lowering to the flat table encoding.
    pub fn try_to_table(&self) -> Result<TreeTable, TableLoweringError> {
        TreeTable::try_from_tree(self)
    }
}

/// Why a [`Tree`] cannot be lowered to the 16-byte [`TreeTable`]
/// encoding.
///
/// The table stores child pointers and renumbered field indices as
/// `u16`, so trees beyond those ranges (reachable e.g. via `LeafWise`
/// with a very large `max_leaves`) must be rejected instead of silently
/// truncating indices into a corrupt table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TableLoweringError {
    /// The tree has more nodes than `u16` child pointers can address.
    TooManyNodes {
        /// Node count of the offending tree.
        nodes: usize,
        /// Largest encodable node count.
        max: usize,
    },
    /// The tree tests more distinct fields than the `u16` renumbering
    /// can express (`u16::MAX` is reserved as the leaf sentinel).
    TooManyFields {
        /// Distinct fields used by the offending tree.
        fields: usize,
        /// Largest encodable field count.
        max: usize,
    },
}

impl std::fmt::Display for TableLoweringError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TableLoweringError::TooManyNodes { nodes, max } => write!(
                f,
                "tree has {nodes} nodes but a tree table addresses at most {max} \
                 (u16 child pointers); split it or lower max_leaves"
            ),
            TableLoweringError::TooManyFields { fields, max } => write!(
                f,
                "tree tests {fields} distinct fields but the u16 renumbering \
                 encodes at most {max}"
            ),
        }
    }
}

impl std::error::Error for TableLoweringError {}

/// One fixed-size table entry (the SRAM-resident encoding; 16 bytes).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TableEntry {
    /// Renumbered field index into [`TreeTable::fields_used`]
    /// (`u16::MAX` for leaves).
    pub field_renum: u16,
    /// Entry kind: 0 = numeric internal, 1 = categorical internal,
    /// 2 = leaf.
    pub kind: u8,
    /// Default direction for absent values (internal nodes).
    pub default_left: bool,
    /// Threshold bin (numeric) or category (categorical); unused for
    /// leaves.
    pub threshold: u32,
    /// Left child entry index (internal) — leaves store 0.
    pub left: u16,
    /// Right child entry index (internal) — leaves store 0.
    pub right: u16,
    /// Leaf weight (f32, as stored on chip); 0 for internal nodes.
    pub weight: f32,
}

/// Size in bytes of one table entry as laid out in a BU SRAM.
pub const TABLE_ENTRY_BYTES: usize = 16;

/// Flat tree table with field renumbering (Section III-B).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TreeTable {
    /// Entries; index 0 is the root.
    pub entries: Vec<TableEntry>,
    /// Original field ids in renumbered order: `fields_used[renum] = field`.
    pub fields_used: Vec<u32>,
}

/// Largest node count a [`TreeTable`] can address: child pointers are
/// `u16`, so indices run `0..=u16::MAX`.
pub const MAX_TABLE_NODES: usize = u16::MAX as usize + 1;

/// Largest number of distinct fields a [`TreeTable`] can renumber
/// (`u16::MAX` itself is the leaf sentinel in `field_renum`).
pub const MAX_TABLE_FIELDS: usize = u16::MAX as usize;

impl TreeTable {
    /// Lower a tree into table form.
    ///
    /// # Panics
    /// Panics if the tree cannot be encoded (see
    /// [`TreeTable::try_from_tree`] for the fallible form).
    pub fn from_tree(tree: &Tree) -> Self {
        Self::try_from_tree(tree).unwrap_or_else(|e| panic!("tree table lowering failed: {e}"))
    }

    /// Lower a tree into table form, rejecting trees whose node count or
    /// field count exceeds what the `u16`-indexed entries can encode —
    /// such trees would previously truncate child indices silently and
    /// produce corrupt tables.
    pub fn try_from_tree(tree: &Tree) -> Result<Self, TableLoweringError> {
        if tree.num_nodes() > MAX_TABLE_NODES {
            return Err(TableLoweringError::TooManyNodes {
                nodes: tree.num_nodes(),
                max: MAX_TABLE_NODES,
            });
        }
        let fields_used = tree.fields_used();
        if fields_used.len() > MAX_TABLE_FIELDS {
            return Err(TableLoweringError::TooManyFields {
                fields: fields_used.len(),
                max: MAX_TABLE_FIELDS,
            });
        }
        let renum = |field: u32| -> u16 {
            fields_used.binary_search(&field).expect("field in fields_used") as u16
        };
        let entries = tree
            .nodes()
            .iter()
            .map(|n| match n {
                Node::Leaf { weight } => TableEntry {
                    field_renum: u16::MAX,
                    kind: 2,
                    default_left: false,
                    threshold: 0,
                    left: 0,
                    right: 0,
                    weight: *weight as f32,
                },
                Node::Internal { field, rule, default_left, left, right } => {
                    let (kind, threshold) = match rule {
                        SplitRule::Numeric { threshold_bin } => (0u8, *threshold_bin),
                        SplitRule::Categorical { category } => (1u8, *category),
                    };
                    TableEntry {
                        field_renum: renum(*field),
                        kind,
                        default_left: *default_left,
                        threshold,
                        left: *left as u16,
                        right: *right as u16,
                        weight: 0.0,
                    }
                }
            })
            .collect();
        Ok(TreeTable { entries, fields_used })
    }

    /// On-chip footprint of the table in bytes.
    pub fn byte_size(&self) -> usize {
        self.entries.len() * TABLE_ENTRY_BYTES
    }

    /// Walk the table for a record presented as renumbered-field bins.
    /// `bins[renum]` must be the record's bin in `fields_used[renum]`, and
    /// `absents[renum]` that field's absent bin. Returns `(weight, path)`.
    pub fn walk(&self, bins: &[u32], absents: &[u32]) -> (f32, u32) {
        let mut idx = 0usize;
        let mut path = 0u32;
        loop {
            let e = &self.entries[idx];
            if e.kind == 2 {
                return (e.weight, path);
            }
            let f = e.field_renum as usize;
            let bin = bins[f];
            let rule = if e.kind == 0 {
                SplitRule::Numeric { threshold_bin: e.threshold }
            } else {
                SplitRule::Categorical { category: e.threshold }
            };
            let left = goes_left(rule, e.default_left, bin, absents[f]);
            idx = if left { e.left as usize } else { e.right as usize };
            path += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// depth-2 tree: root tests field 3 (numeric, bin<=5 left);
    /// left child tests field 7 (cat == 2 right); leaves -1, 1, 2.
    fn sample_tree() -> Tree {
        Tree::new(vec![
            Node::Internal {
                field: 3,
                rule: SplitRule::Numeric { threshold_bin: 5 },
                default_left: false,
                left: 1,
                right: 2,
            },
            Node::Internal {
                field: 7,
                rule: SplitRule::Categorical { category: 2 },
                default_left: true,
                left: 3,
                right: 4,
            },
            Node::Leaf { weight: 2.0 },
            Node::Leaf { weight: -1.0 },
            Node::Leaf { weight: 1.0 },
        ])
    }

    #[test]
    fn structure_queries() {
        let t = sample_tree();
        assert_eq!(t.num_nodes(), 5);
        assert_eq!(t.num_leaves(), 3);
        assert_eq!(t.depth(), 2);
        assert_eq!(t.fields_used(), vec![3, 7]);
        assert_eq!(t.leaf_depth_histogram(), vec![(1, 1), (2, 2)]);
    }

    #[test]
    fn traversal_routes_correctly() {
        let t = sample_tree();
        let absent = |_f: usize| 100u32;
        // field3 bin 9 (>5) -> right leaf 2.0
        let (w, p) = t.traverse(|f| if f == 3 { 9 } else { 0 }, absent);
        assert_eq!((w, p), (2.0, 1));
        // field3 bin 2 (<=5), field7 cat 2 -> right leaf 1.0
        let (w, p) = t.traverse(|_| 2, absent);
        assert_eq!((w, p), (1.0, 2));
        // field3 bin 2, field7 cat 0 -> left leaf -1.0
        let (w, p) = t.traverse(|f| if f == 3 { 2 } else { 0 }, absent);
        assert_eq!((w, p), (-1.0, 2));
        // field3 absent -> default right (default_left=false)
        let (w, _) = t.traverse(|f| if f == 3 { 100 } else { 0 }, absent);
        assert_eq!(w, 2.0);
        // field7 absent -> default left
        let (w, _) = t.traverse(|f| if f == 3 { 0 } else { 100 }, absent);
        assert_eq!(w, -1.0);
    }

    #[test]
    fn table_matches_tree_traversal() {
        let t = sample_tree();
        let table = t.to_table();
        assert_eq!(table.fields_used, vec![3, 7]);
        assert_eq!(table.byte_size(), 5 * TABLE_ENTRY_BYTES);
        // Exhaustive check over small bin spaces: field3 bins 0..12 or
        // absent(100), field7 bins 0..4 or absent(100).
        let absent = |_f: usize| 100u32;
        for b3 in (0..12).chain([100]) {
            for b7 in (0..4).chain([100]) {
                let (w_tree, p_tree) = t.traverse(|f| if f == 3 { b3 } else { b7 }, absent);
                let (w_tab, p_tab) = table.walk(&[b3, b7], &[100, 100]);
                assert_eq!(w_tab as f64, w_tree, "bins ({b3},{b7})");
                assert_eq!(p_tab, p_tree, "bins ({b3},{b7})");
            }
        }
    }

    /// A left-leaning vine with `m` internal nodes and `m + 1` leaves
    /// (`2m + 1` nodes total): internal `i` hangs leaf `m + i` on its
    /// right and chains left to internal `i + 1`; the last internal's
    /// left child is the final leaf `2m`.
    fn vine_tree(m: usize) -> Tree {
        let mut nodes = Vec::with_capacity(2 * m + 1);
        for i in 0..m {
            let left = if i + 1 < m { i + 1 } else { 2 * m };
            nodes.push(Node::Internal {
                field: 0,
                rule: SplitRule::Numeric { threshold_bin: i as u32 },
                default_left: true,
                left: left as u32,
                right: (m + i) as u32,
            });
        }
        for _ in 0..=m {
            nodes.push(Node::Leaf { weight: 1.0 });
        }
        Tree::new(nodes)
    }

    #[test]
    fn lowering_accepts_the_largest_encodable_tree() {
        // 2m + 1 = 65535 nodes: every child index fits u16.
        let t = vine_tree(32_767);
        assert_eq!(t.num_nodes(), 65_535);
        let table = t.try_to_table().expect("65535 nodes must lower");
        assert_eq!(table.entries.len(), 65_535);
        // The deepest internal's left pointer is the last leaf — the
        // index that silent `as u16` truncation used to corrupt.
        assert_eq!(table.entries[32_766].left, 65_534);
    }

    #[test]
    fn lowering_rejects_trees_beyond_u16_indices() {
        // 2m + 1 = 65537 nodes: child indices overflow u16.
        let t = vine_tree(32_768);
        match t.try_to_table() {
            Err(TableLoweringError::TooManyNodes { nodes, max }) => {
                assert_eq!(nodes, 65_537);
                assert_eq!(max, MAX_TABLE_NODES);
            }
            other => panic!("expected TooManyNodes, got {other:?}"),
        }
        let msg = t.try_to_table().unwrap_err().to_string();
        assert!(msg.contains("65537 nodes"), "descriptive error, got: {msg}");
    }

    #[test]
    #[should_panic(expected = "tree table lowering failed")]
    fn infallible_lowering_panics_descriptively_on_oversized_trees() {
        let _ = vine_tree(32_768).to_table();
    }

    #[test]
    fn single_leaf_tree() {
        let t = Tree::leaf(0.5);
        assert_eq!(t.depth(), 0);
        assert_eq!(t.num_leaves(), 1);
        assert!(t.fields_used().is_empty());
        let (w, p) = t.traverse(|_| 0, |_: usize| 0);
        assert_eq!((w, p), (0.5, 0));
    }
}
