//! Per-field gradient-statistic histograms (Step 1 of Table I).
//!
//! Each field owns a histogram with one `(G, H, count)` entry per bin.
//! Binning adds each relevant record's `(g, h)` to the bin its field value
//! falls in. The module also implements the *smaller-child subtraction*
//! optimization (Section II-A): when a vertex splits, only the child with
//! fewer records is binned explicitly; the sibling's histogram is the
//! parent's minus the smaller child's.
//!
//! # Layout
//!
//! Storage is structure-of-arrays: three flat lanes (`grad`, `hess`,
//! `count`) with shared per-field offsets, instead of an array of
//! 24-byte AoS structs. The split scan streams each lane contiguously,
//! and the subtraction/merge passes are straight-line loops over three
//! homogeneous vectors — both autovectorize. The binning kernels are
//! monomorphized per bin-matrix layout ([`u8`] packed / [`u32`] wide)
//! and unrolled four-wide; per-bin accumulation stays in strict row
//! order, so packed, wide, sequential and field-parallel paths are all
//! bit-identical. Vertex totals are reduced with four positional
//! accumulator lanes merged in fixed order ([`sum_grad_pairs`]) — every
//! backend uses that one helper, so totals are deterministic and
//! backend-independent too.

use crate::columnar::{ColumnRef, ColumnarMirror};
use crate::gradients::GradPair;
use crate::preprocess::{BinIndex, BinMatrix, BinnedDataset};

/// One histogram bin: gradient summations and record count. Since the
/// SoA rewrite this is a by-value *view* assembled from the lanes, not
/// the storage format.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct BinStats {
    /// Sum of first-order gradients of records in this bin.
    pub grad: GradPair,
    /// Number of records in this bin.
    pub count: u64,
}

/// Borrowed SoA view of one field's bins: three parallel lanes of equal
/// length, one entry per bin.
#[derive(Debug, Clone, Copy)]
pub struct FieldLanes<'a> {
    /// Per-bin `G` summations.
    pub grad: &'a [f64],
    /// Per-bin `H` summations.
    pub hess: &'a [f64],
    /// Per-bin record counts.
    pub count: &'a [u64],
}

impl<'a> FieldLanes<'a> {
    /// Number of bins.
    #[inline]
    pub fn len(&self) -> usize {
        self.count.len()
    }

    /// Whether the field has no bins.
    pub fn is_empty(&self) -> bool {
        self.count.is_empty()
    }

    /// Assemble one bin's stats from the lanes.
    #[inline]
    pub fn get(&self, bin: usize) -> BinStats {
        BinStats { grad: GradPair::new(self.grad[bin], self.hess[bin]), count: self.count[bin] }
    }

    /// Iterate the bins as [`BinStats`] values.
    pub fn iter(&self) -> FieldLanesIter<'a> {
        FieldLanesIter { lanes: *self, idx: 0 }
    }
}

/// Iterator over a field's bins, yielding [`BinStats`] by value.
#[derive(Debug, Clone)]
pub struct FieldLanesIter<'a> {
    lanes: FieldLanes<'a>,
    idx: usize,
}

impl Iterator for FieldLanesIter<'_> {
    type Item = BinStats;

    fn next(&mut self) -> Option<BinStats> {
        if self.idx < self.lanes.len() {
            let b = self.lanes.get(self.idx);
            self.idx += 1;
            Some(b)
        } else {
            None
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rest = self.lanes.len() - self.idx;
        (rest, Some(rest))
    }
}

impl ExactSizeIterator for FieldLanesIter<'_> {}

impl<'a> IntoIterator for FieldLanes<'a> {
    type Item = BinStats;
    type IntoIter = FieldLanesIter<'a>;

    fn into_iter(self) -> FieldLanesIter<'a> {
        self.iter()
    }
}

/// Mutable SoA lanes of one field — the unit of work for field-parallel
/// binning (each worker owns whole fields, so per-bin row order is
/// preserved exactly).
#[derive(Debug)]
pub struct FieldLanesMut<'a> {
    /// Per-bin `G` summations.
    pub grad: &'a mut [f64],
    /// Per-bin `H` summations.
    pub hess: &'a mut [f64],
    /// Per-bin record counts.
    pub count: &'a mut [u64],
}

/// Histograms for all fields at one tree vertex.
///
/// Storage is three flat SoA lanes with per-field offsets so a node's
/// histogram set is three allocations (the on-chip footprint the paper
/// sizes at "under 2 MB" / 2–8 MB).
#[derive(Debug, Clone, PartialEq)]
pub struct NodeHistogram {
    grad: Vec<f64>,
    hess: Vec<f64>,
    count: Vec<u64>,
    offsets: Vec<u32>,
    /// Total gradient over all records reaching the vertex (same for every
    /// field; kept once).
    total: GradPair,
    total_count: u64,
}

impl NodeHistogram {
    /// Allocate an all-zero histogram set shaped for `data`'s fields.
    pub fn zeroed(data: &BinnedDataset) -> Self {
        let nf = data.num_fields();
        let mut offsets = Vec::with_capacity(nf + 1);
        let mut acc = 0u32;
        offsets.push(0);
        for f in 0..nf {
            acc += data.field_bins(f);
            offsets.push(acc);
        }
        NodeHistogram {
            grad: vec![0.0; acc as usize],
            hess: vec![0.0; acc as usize],
            count: vec![0; acc as usize],
            offsets,
            total: GradPair::zero(),
            total_count: 0,
        }
    }

    /// Zero every lane and the totals, keeping the allocations (the
    /// [`HistogramPool`] reuse path).
    pub fn reset(&mut self) {
        self.grad.fill(0.0);
        self.hess.fill(0.0);
        self.count.fill(0);
        self.total = GradPair::zero();
        self.total_count = 0;
    }

    /// Number of fields.
    pub fn num_fields(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of bins of field `f`.
    #[inline]
    fn field_len(&self, f: usize) -> usize {
        (self.offsets[f + 1] - self.offsets[f]) as usize
    }

    /// SoA lanes of field `f`.
    #[inline]
    pub fn field(&self, f: usize) -> FieldLanes<'_> {
        let span = self.offsets[f] as usize..self.offsets[f + 1] as usize;
        FieldLanes {
            grad: &self.grad[span.clone()],
            hess: &self.hess[span.clone()],
            count: &self.count[span],
        }
    }

    /// Total gradient over all records binned here.
    pub fn total(&self) -> GradPair {
        self.total
    }

    /// Total record count binned here.
    pub fn total_count(&self) -> u64 {
        self.total_count
    }

    /// Total number of bins across all fields.
    pub fn total_bins(&self) -> usize {
        self.count.len()
    }

    /// Bin a set of records: for each record, add `(g, h)` to the matching
    /// bin of **every** field (exactly one bin per field — the density
    /// property of Section III-A). Returns the number of histogram updates
    /// performed (records × fields), the SRAM-access count used by the
    /// energy model.
    pub fn bin_records(&mut self, data: &BinnedDataset, rows: &[u32], grads: &[GradPair]) -> u64 {
        let nf = self.num_fields();
        debug_assert_eq!(nf, data.num_fields());
        match data.matrix() {
            BinMatrix::Packed(m) => self.scatter_rows(m, nf, rows, grads),
            BinMatrix::Wide(m) => self.scatter_rows(m, nf, rows, grads),
        }
        self.total += sum_grad_pairs(rows, grads);
        self.total_count += rows.len() as u64;
        rows.len() as u64 * nf as u64
    }

    /// [`Self::bin_records`] field by field over the mirror's columns —
    /// the kernel the executors bin with: each field's lanes stay
    /// cache-resident for its whole pass, and each bin still sees its
    /// records in `rows` order, so lanes and totals are bit-identical
    /// to the row-major kernel. `rows = None` is the full ascending
    /// range `0..grads.len()`: the columns and the gradient pairs
    /// stream with no indirection at all.
    ///
    /// # Panics
    /// Panics if a row id is out of range.
    pub fn bin_columns(
        &mut self,
        columnar: &ColumnarMirror,
        rows: Option<&[u32]>,
        grads: &[GradPair],
    ) {
        let Some(rows) = rows else {
            for (f, mut lanes) in self.lanes_mut().into_iter().enumerate() {
                bin_field_dense(columnar.column(f), grads, &mut lanes);
            }
            self.add_total(sum_grad_pairs_dense(grads), grads.len() as u64);
            return;
        };
        // Gather the subset's gradient pairs once up front so every
        // per-field pass streams them sequentially.
        let gathered: Vec<GradPair> = rows.iter().map(|&r| grads[r as usize]).collect();
        for (f, mut lanes) in self.lanes_mut().into_iter().enumerate() {
            bin_field_gathered(columnar.column(f), rows, &gathered, &mut lanes);
        }
        self.add_total(sum_grad_pairs_dense(&gathered), rows.len() as u64);
    }

    /// Row-major scatter kernel, monomorphized per matrix layout. The
    /// field loop is unrolled four-wide: a record's four bin indices are
    /// computed up front (they address disjoint per-field ranges) so the
    /// loads and read-modify-writes overlap.
    ///
    /// SAFETY of the unchecked lane accesses: every bin index comes out
    /// of [`crate::binning`]'s `bin_of`/`absent_bin`, which guarantee
    /// `bin < bin_count(f)`, and the lanes are sized so field `f` spans
    /// `offsets[f]..offsets[f] + bin_count(f)` ([`Self::zeroed`] /
    /// [`HistogramPool::acquire`] shape check) — so
    /// `offsets[f] + bin < offsets[f + 1] <= lane length` always holds.
    /// Debug builds verify it per update.
    fn scatter_rows<B: BinIndex>(&mut self, m: &[B], nf: usize, rows: &[u32], grads: &[GradPair]) {
        let NodeHistogram { grad, hess, count, offsets, .. } = self;
        let offsets = &offsets[..nf];
        let mut bump = |i: usize, gp: GradPair| {
            debug_assert!(i < grad.len());
            // SAFETY: see the kernel's safety comment.
            unsafe {
                *grad.get_unchecked_mut(i) += gp.g;
                *hess.get_unchecked_mut(i) += gp.h;
                *count.get_unchecked_mut(i) += 1;
            }
        };
        for &r in rows {
            let r = r as usize;
            let gp = grads[r];
            let row = &m[r * nf..r * nf + nf];
            let mut f = 0usize;
            while f + 4 <= nf {
                let i0 = offsets[f] as usize + row[f].widen() as usize;
                let i1 = offsets[f + 1] as usize + row[f + 1].widen() as usize;
                let i2 = offsets[f + 2] as usize + row[f + 2].widen() as usize;
                let i3 = offsets[f + 3] as usize + row[f + 3].widen() as usize;
                bump(i0, gp);
                bump(i1, gp);
                bump(i2, gp);
                bump(i3, gp);
                f += 4;
            }
            while f < nf {
                bump(offsets[f] as usize + row[f].widen() as usize, gp);
                f += 1;
            }
        }
    }

    /// Add an externally-accumulated summation into one bin (used by
    /// accelerator readout paths that accumulate in hardware formats and
    /// hand the totals back).
    pub fn add_bin(&mut self, field: usize, bin: u32, grad: GradPair, count: u64) {
        let idx = self.offsets[field] as usize + bin as usize;
        debug_assert!(
            (idx as u32) < self.offsets[field + 1],
            "bin {bin} out of range for field {field}"
        );
        self.grad[idx] += grad.g;
        self.hess[idx] += grad.h;
        self.count[idx] += count;
    }

    /// Add to the vertex totals without touching bins (paired with
    /// [`Self::add_bin`] readouts).
    pub fn add_total(&mut self, grad: GradPair, count: u64) {
        self.total += grad;
        self.total_count += count;
    }

    /// `self = parent - sibling`, the smaller-child subtraction trick.
    ///
    /// # Panics
    /// Panics if shapes differ.
    pub fn subtract_from(parent: &NodeHistogram, sibling: &NodeHistogram) -> NodeHistogram {
        let mut out = parent.clone();
        NodeHistogram::subtract_from_into(parent, sibling, &mut out);
        out
    }

    /// `out = parent - sibling` without allocating: `out` must already
    /// have the parent's shape (typically a pooled histogram). Three
    /// straight-line lane subtractions — the autovectorized form of the
    /// smaller-child trick.
    ///
    /// # Panics
    /// Panics if shapes differ or a sibling bin exceeds its parent.
    pub fn subtract_from_into(
        parent: &NodeHistogram,
        sibling: &NodeHistogram,
        out: &mut NodeHistogram,
    ) {
        assert_eq!(parent.offsets, sibling.offsets, "histogram shapes differ");
        assert_eq!(parent.offsets, out.offsets, "histogram shapes differ");
        for ((o, &p), &s) in out.grad.iter_mut().zip(&parent.grad).zip(&sibling.grad) {
            *o = p - s;
        }
        for ((o, &p), &s) in out.hess.iter_mut().zip(&parent.hess).zip(&sibling.hess) {
            *o = p - s;
        }
        for ((o, &p), &s) in out.count.iter_mut().zip(&parent.count).zip(&sibling.count) {
            *o = p.checked_sub(s).expect("sibling count exceeds parent");
        }
        out.total = parent.total - sibling.total;
        out.total_count = parent
            .total_count
            .checked_sub(sibling.total_count)
            .expect("sibling total exceeds parent");
    }

    /// Mutable per-field SoA lanes, in field order.
    ///
    /// This is the unit of work for backends that parallelize Step 1
    /// **across fields** rather than records (LightGBM's
    /// feature-parallel histogram construction): each worker owns whole
    /// fields, so every bin still accumulates its records in the exact
    /// sequential row order and the result is bit-identical to
    /// [`Self::bin_records`].
    pub fn lanes_mut(&mut self) -> Vec<FieldLanesMut<'_>> {
        let NodeHistogram { grad, hess, count, offsets, .. } = self;
        let mut out = Vec::with_capacity(offsets.len() - 1);
        let (mut g, mut h, mut n) = (&mut grad[..], &mut hess[..], &mut count[..]);
        for w in offsets.windows(2) {
            let len = (w[1] - w[0]) as usize;
            let (ga, gb) = g.split_at_mut(len);
            let (ha, hb) = h.split_at_mut(len);
            let (na, nb) = n.split_at_mut(len);
            out.push(FieldLanesMut { grad: ga, hess: ha, count: na });
            g = gb;
            h = hb;
            n = nb;
        }
        out
    }

    /// Borrow the three flat SoA lanes (all fields concatenated in
    /// offset order). This is the wire view: a distributed worker
    /// encodes exactly these slices, and the peer writes them back
    /// through [`Self::raw_lanes_mut`].
    pub fn raw_lanes(&self) -> (&[f64], &[f64], &[u64]) {
        (&self.grad, &self.hess, &self.count)
    }

    /// Per-field lane offsets (length `num_fields + 1`), the shape key
    /// two histograms must share to be mergeable.
    pub fn offsets(&self) -> &[u32] {
        &self.offsets
    }

    /// The three flat lanes, writable (the decode half of
    /// [`Self::raw_lanes`]): a wire decoder scatters straight into
    /// them. The shape — and therefore the offsets — cannot change, and
    /// the vertex totals are left alone ([`Self::set_totals`]).
    pub fn raw_lanes_mut(&mut self) -> (&mut [f64], &mut [f64], &mut [u64]) {
        (&mut self.grad, &mut self.hess, &mut self.count)
    }

    /// Overwrite the vertex totals, leaving the bins untouched. The
    /// distributed reduction chain accumulates bins *in place* across
    /// shards but carries the vertex total separately in a
    /// [`LaneAccumulator`]; once the chain completes, the authoritative
    /// total replaces whatever the per-shard passes left here.
    pub fn set_totals(&mut self, total: GradPair, total_count: u64) {
        self.total = total;
        self.total_count = total_count;
    }

    /// Merge another histogram into this one (the per-cluster /
    /// per-thread replica reduction at the end of Step 1).
    pub fn merge(&mut self, other: &NodeHistogram) {
        assert_eq!(self.offsets, other.offsets, "histogram shapes differ");
        for (a, &b) in self.grad.iter_mut().zip(&other.grad) {
            *a += b;
        }
        for (a, &b) in self.hess.iter_mut().zip(&other.hess) {
            *a += b;
        }
        for (a, &b) in self.count.iter_mut().zip(&other.count) {
            *a += b;
        }
        self.total += other.total;
        self.total_count += other.total_count;
    }
}

/// Sum the gradient pairs of `rows` with four positional accumulator
/// lanes merged in fixed order `(l0 + l1) + (l2 + l3)` — breaking the
/// single-accumulator dependency chain while staying deterministic in
/// the row order alone. **Every** backend's vertex-total reduction goes
/// through this one helper, so sequential, field-parallel and device
/// paths produce bit-identical totals.
pub fn sum_grad_pairs(rows: &[u32], grads: &[GradPair]) -> GradPair {
    let mut l0 = GradPair::zero();
    let mut l1 = GradPair::zero();
    let mut l2 = GradPair::zero();
    let mut l3 = GradPair::zero();
    let mut chunks = rows.chunks_exact(4);
    for q in &mut chunks {
        l0 += grads[q[0] as usize];
        l1 += grads[q[1] as usize];
        l2 += grads[q[2] as usize];
        l3 += grads[q[3] as usize];
    }
    for (i, &r) in chunks.remainder().iter().enumerate() {
        let gp = grads[r as usize];
        match i {
            0 => l0 += gp,
            1 => l1 += gp,
            _ => l2 += gp,
        }
    }
    (l0 + l1) + (l2 + l3)
}

/// [`sum_grad_pairs`] over an already-gathered dense slice: when
/// `gathered[i] == grads[rows[i]]`, this returns the same bits as
/// `sum_grad_pairs(rows, grads)` (identical four-lane association).
pub fn sum_grad_pairs_dense(gathered: &[GradPair]) -> GradPair {
    let mut l0 = GradPair::zero();
    let mut l1 = GradPair::zero();
    let mut l2 = GradPair::zero();
    let mut l3 = GradPair::zero();
    let mut chunks = gathered.chunks_exact(4);
    for q in &mut chunks {
        l0 += q[0];
        l1 += q[1];
        l2 += q[2];
        l3 += q[3];
    }
    for (i, &gp) in chunks.remainder().iter().enumerate() {
        match i {
            0 => l0 += gp,
            1 => l1 += gp,
            _ => l2 += gp,
        }
    }
    (l0 + l1) + (l2 + l3)
}

/// A *resumable* form of the four-lane reduction: positions are
/// assigned to lanes by `position % 4`, additions retire in increasing
/// position order within each lane, and [`LaneAccumulator::finish`]
/// merges the lanes as `(l0 + l1) + (l2 + l3)` — exactly the
/// association of [`sum_grad_pairs`] / [`sum_grad_pairs_dense`].
///
/// Feeding a sequence in one go therefore matches `sum_grad_pairs_dense`
/// bit for bit, **and so does feeding it in arbitrary contiguous
/// chunks**: the accumulator's `(lanes, position)` state can be
/// suspended after any prefix, shipped across a wire, and resumed on
/// another machine. That is the mechanism the distributed trainer uses
/// to chain a vertex-total reduction across record shards without
/// reassociating a single addition.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LaneAccumulator {
    lanes: [GradPair; 4],
    pos: u64,
}

impl LaneAccumulator {
    /// An accumulator at position 0 with zeroed lanes.
    pub fn new() -> Self {
        LaneAccumulator::default()
    }

    /// Rebuild an accumulator from suspended state (see
    /// [`LaneAccumulator::state`]).
    pub fn from_state(lanes: [GradPair; 4], pos: u64) -> Self {
        LaneAccumulator { lanes, pos }
    }

    /// The suspendable state: four partial lanes plus the number of
    /// pairs folded so far.
    pub fn state(&self) -> ([GradPair; 4], u64) {
        (self.lanes, self.pos)
    }

    /// Fold one gradient pair at the current position.
    #[inline]
    pub fn push(&mut self, gp: GradPair) {
        self.lanes[(self.pos % 4) as usize] += gp;
        self.pos += 1;
    }

    /// Fold a dense run of pairs in order.
    pub fn push_all(&mut self, gathered: &[GradPair]) {
        for &gp in gathered {
            self.push(gp);
        }
    }

    /// Number of pairs folded so far.
    pub fn count(&self) -> u64 {
        self.pos
    }

    /// Merge the lanes in the fixed `(l0 + l1) + (l2 + l3)` order. Does
    /// not consume the accumulator — folding may continue afterwards.
    pub fn finish(&self) -> GradPair {
        let [l0, l1, l2, l3] = self.lanes;
        (l0 + l1) + (l2 + l3)
    }
}

/// Bin `rows` into a single field's lanes (one entry from
/// [`NodeHistogram::lanes_mut`]), reading the field's contiguous
/// column-major mirror column.
///
/// Records are visited in the given order, so running this for every
/// field — concurrently or not — reproduces [`NodeHistogram::bin_records`]
/// bit for bit; only the vertex totals remain to be accumulated (see
/// [`NodeHistogram::add_total`] and [`sum_grad_pairs`]).
pub fn bin_field_records(
    column: ColumnRef<'_>,
    rows: &[u32],
    grads: &[GradPair],
    lanes: &mut FieldLanesMut<'_>,
) {
    match column {
        ColumnRef::Packed(c) => scatter_column(c, rows, grads, lanes),
        ColumnRef::Wide(c) => scatter_column(c, rows, grads, lanes),
    }
}

/// Like [`bin_field_records`], but with the subset's gradient pairs
/// already gathered densely: `gathered[i]` must be `grads[rows[i]]`.
///
/// Executors binning every field over one row subset gather the pairs
/// once and stream the dense slice through each per-field pass —
/// sequential reads in place of a per-field sparse gather. Accumulation
/// order per bin is unchanged, so the result is bit-identical to
/// [`bin_field_records`].
pub fn bin_field_gathered(
    column: ColumnRef<'_>,
    rows: &[u32],
    gathered: &[GradPair],
    lanes: &mut FieldLanesMut<'_>,
) {
    debug_assert_eq!(rows.len(), gathered.len());
    match column {
        ColumnRef::Packed(c) => scatter_column_gathered(c, rows, gathered, lanes),
        ColumnRef::Wide(c) => scatter_column_gathered(c, rows, gathered, lanes),
    }
}

/// Single-column scatter kernel, monomorphized per column layout and
/// unrolled four-wide: four records' bin indices and gradient pairs are
/// loaded ahead of the read-modify-writes, which still retire in strict
/// row order (bit-exact).
///
/// SAFETY of the unchecked lane accesses: column values come out of
/// [`crate::binning`]'s `bin_of`/`absent_bin` (`bin < bin_count`), and
/// the per-field lanes are sized `bin_count` ([`NodeHistogram::zeroed`]
/// and the [`HistogramPool::acquire`] shape check). Debug builds verify
/// every index.
fn scatter_column<B: BinIndex>(
    col: &[B],
    rows: &[u32],
    grads: &[GradPair],
    lanes: &mut FieldLanesMut<'_>,
) {
    let (g, h, n) = (&mut *lanes.grad, &mut *lanes.hess, &mut *lanes.count);
    let mut bump = |b: usize, gp: GradPair| {
        debug_assert!(b < g.len());
        // SAFETY: see the kernel's safety comment.
        unsafe {
            *g.get_unchecked_mut(b) += gp.g;
            *h.get_unchecked_mut(b) += gp.h;
            *n.get_unchecked_mut(b) += 1;
        }
    };
    let mut chunks = rows.chunks_exact(4);
    for q in &mut chunks {
        let (r0, r1, r2, r3) = (q[0] as usize, q[1] as usize, q[2] as usize, q[3] as usize);
        let (b0, b1, b2, b3) = (
            col[r0].widen() as usize,
            col[r1].widen() as usize,
            col[r2].widen() as usize,
            col[r3].widen() as usize,
        );
        let (g0, g1, g2, g3) = (grads[r0], grads[r1], grads[r2], grads[r3]);
        bump(b0, g0);
        bump(b1, g1);
        bump(b2, g2);
        bump(b3, g3);
    }
    for &r in chunks.remainder() {
        let r = r as usize;
        bump(col[r].widen() as usize, grads[r]);
    }
}

/// [`bin_field_gathered`] for the full-dataset case (the root vertex
/// without row subsampling): the row set is exactly `0..n` in order,
/// so the column and the gradient pairs both stream sequentially with
/// no index indirection at all. Bit-identical to the gathered kernel
/// over the identity row set.
pub fn bin_field_dense(column: ColumnRef<'_>, grads: &[GradPair], lanes: &mut FieldLanesMut<'_>) {
    match column {
        ColumnRef::Packed(c) => scatter_column_dense(c, grads, lanes),
        ColumnRef::Wide(c) => scatter_column_dense(c, grads, lanes),
    }
}

/// [`scatter_column`] over the identity row set: both inputs stream.
/// Same bump order, same unchecked-lane safety argument.
fn scatter_column_dense<B: BinIndex>(col: &[B], grads: &[GradPair], lanes: &mut FieldLanesMut<'_>) {
    let (g, h, n) = (&mut *lanes.grad, &mut *lanes.hess, &mut *lanes.count);
    let mut bump = |b: usize, gp: GradPair| {
        debug_assert!(b < g.len());
        // SAFETY: see `scatter_column`'s safety comment.
        unsafe {
            *g.get_unchecked_mut(b) += gp.g;
            *h.get_unchecked_mut(b) += gp.h;
            *n.get_unchecked_mut(b) += 1;
        }
    };
    let mut bins = col.chunks_exact(4);
    let mut pairs = grads.chunks_exact(4);
    for (b4, p4) in (&mut bins).zip(&mut pairs) {
        bump(b4[0].widen() as usize, p4[0]);
        bump(b4[1].widen() as usize, p4[1]);
        bump(b4[2].widen() as usize, p4[2]);
        bump(b4[3].widen() as usize, p4[3]);
    }
    for (&b, &gp) in bins.remainder().iter().zip(pairs.remainder()) {
        bump(b.widen() as usize, gp);
    }
}

/// [`scatter_column`] with the gradient pairs pre-gathered densely
/// (`gathered[i]` pairs with `rows[i]`): the column is still a sparse
/// gather, but the 16-byte pair loads stream sequentially. Same bump
/// order, same unchecked-lane safety argument.
fn scatter_column_gathered<B: BinIndex>(
    col: &[B],
    rows: &[u32],
    gathered: &[GradPair],
    lanes: &mut FieldLanesMut<'_>,
) {
    let (g, h, n) = (&mut *lanes.grad, &mut *lanes.hess, &mut *lanes.count);
    let mut bump = |b: usize, gp: GradPair| {
        debug_assert!(b < g.len());
        // SAFETY: see `scatter_column`'s safety comment.
        unsafe {
            *g.get_unchecked_mut(b) += gp.g;
            *h.get_unchecked_mut(b) += gp.h;
            *n.get_unchecked_mut(b) += 1;
        }
    };
    let mut chunks = rows.chunks_exact(4);
    let mut pairs = gathered.chunks_exact(4);
    for (q, p) in (&mut chunks).zip(&mut pairs) {
        let (r0, r1, r2, r3) = (q[0] as usize, q[1] as usize, q[2] as usize, q[3] as usize);
        let (b0, b1, b2, b3) = (
            col[r0].widen() as usize,
            col[r1].widen() as usize,
            col[r2].widen() as usize,
            col[r3].widen() as usize,
        );
        bump(b0, p[0]);
        bump(b1, p[1]);
        bump(b2, p[2]);
        bump(b3, p[3]);
    }
    for (&r, &gp) in chunks.remainder().iter().zip(pairs.remainder()) {
        bump(col[r as usize].widen() as usize, gp);
    }
}

/// A free list of [`NodeHistogram`] allocations reused across tree
/// vertices: `acquire` hands back a zeroed histogram (recycling a
/// released one when its shape matches), `release` returns it. Replaces
/// the per-vertex `zeroed()` allocation in the growth engine — at depth
/// 6 a tree allocates up to 127 histograms, the pool keeps it at the
/// tree's peak frontier width.
#[derive(Debug, Default)]
pub struct HistogramPool {
    free: Vec<NodeHistogram>,
}

impl HistogramPool {
    /// An empty pool.
    pub fn new() -> Self {
        HistogramPool::default()
    }

    /// A zeroed histogram shaped for `data`: a recycled allocation when
    /// one of matching shape is pooled, a fresh one otherwise.
    pub fn acquire(&mut self, data: &BinnedDataset) -> NodeHistogram {
        while let Some(mut h) = self.free.pop() {
            let matches = h.num_fields() == data.num_fields()
                && (0..data.num_fields()).all(|f| h.field_len(f) == data.field_bins(f) as usize);
            if matches {
                h.reset();
                return h;
            }
            // Wrong shape (pool reused across datasets): drop it.
        }
        NodeHistogram::zeroed(data)
    }

    /// Return a histogram's allocation to the pool.
    pub fn release(&mut self, h: NodeHistogram) {
        self.free.push(h);
    }

    /// Number of allocations currently pooled.
    pub fn pooled(&self) -> usize {
        self.free.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::columnar::ColumnarMirror;
    use crate::dataset::{Dataset, RawValue};
    use crate::schema::{DatasetSchema, FieldSchema};

    fn make_data(n: usize) -> (BinnedDataset, Vec<GradPair>) {
        let schema = DatasetSchema::new(vec![
            FieldSchema::numeric_with_bins("x", 8),
            FieldSchema::categorical("c", 3),
        ]);
        let mut ds = Dataset::new(schema);
        for i in 0..n {
            let x = if i % 11 == 0 { RawValue::Missing } else { RawValue::Num(i as f32) };
            ds.push_record(&[x, RawValue::Cat((i % 3) as u32)], (i % 2) as f32);
        }
        let b = BinnedDataset::from_dataset(&ds);
        let grads =
            (0..n).map(|i| GradPair::new((i as f64).sin(), 1.0 + (i as f64 % 3.0))).collect();
        (b, grads)
    }

    #[test]
    fn bin_all_records_totals_match() {
        let (data, grads) = make_data(200);
        let rows: Vec<u32> = (0..200).collect();
        let mut h = NodeHistogram::zeroed(&data);
        let updates = h.bin_records(&data, &rows, &grads);
        assert_eq!(updates, 200 * 2);
        assert_eq!(h.total_count(), 200);
        let g_sum: f64 = grads.iter().map(|g| g.g).sum();
        assert!((h.total().g - g_sum).abs() < 1e-9);
        // Each field's bins sum to the total.
        for f in 0..2 {
            let fg: f64 = h.field(f).iter().map(|b| b.grad.g).sum();
            let fc: u64 = h.field(f).iter().map(|b| b.count).sum();
            assert!((fg - g_sum).abs() < 1e-9, "field {f} G mismatch");
            assert_eq!(fc, 200, "field {f} count mismatch");
        }
    }

    #[test]
    fn subtraction_equals_direct_binning() {
        let (data, grads) = make_data(300);
        let all: Vec<u32> = (0..300).collect();
        let (left, right): (Vec<u32>, Vec<u32>) = all.iter().partition(|&&r| r % 5 == 0);

        let mut parent = NodeHistogram::zeroed(&data);
        parent.bin_records(&data, &all, &grads);
        let mut small = NodeHistogram::zeroed(&data);
        small.bin_records(&data, &left, &grads);
        let derived = NodeHistogram::subtract_from(&parent, &small);

        let mut direct = NodeHistogram::zeroed(&data);
        direct.bin_records(&data, &right, &grads);

        assert_eq!(derived.total_count(), direct.total_count());
        for f in 0..2 {
            for (a, b) in derived.field(f).iter().zip(direct.field(f)) {
                assert_eq!(a.count, b.count);
                assert!((a.grad.g - b.grad.g).abs() < 1e-9);
                assert!((a.grad.h - b.grad.h).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn subtract_into_matches_allocating_form() {
        let (data, grads) = make_data(180);
        let all: Vec<u32> = (0..180).collect();
        let (left, _): (Vec<u32>, Vec<u32>) = all.iter().partition(|&&r| r % 3 == 0);
        let mut parent = NodeHistogram::zeroed(&data);
        parent.bin_records(&data, &all, &grads);
        let mut small = NodeHistogram::zeroed(&data);
        small.bin_records(&data, &left, &grads);

        let alloc = NodeHistogram::subtract_from(&parent, &small);
        // Seed `out` with garbage shape-alike content to prove every
        // lane entry is overwritten, not accumulated.
        let mut out = parent.clone();
        NodeHistogram::subtract_from_into(&parent, &small, &mut out);
        assert_eq!(alloc, out);
    }

    #[test]
    fn merge_equals_single_pass() {
        let (data, grads) = make_data(100);
        let rows_a: Vec<u32> = (0..50).collect();
        let rows_b: Vec<u32> = (50..100).collect();
        let mut ha = NodeHistogram::zeroed(&data);
        ha.bin_records(&data, &rows_a, &grads);
        let mut hb = NodeHistogram::zeroed(&data);
        hb.bin_records(&data, &rows_b, &grads);
        ha.merge(&hb);

        let mut whole = NodeHistogram::zeroed(&data);
        whole.bin_records(&data, &(0..100).collect::<Vec<_>>(), &grads);
        assert_eq!(ha.total_count(), whole.total_count());
        for f in 0..2 {
            for (a, b) in ha.field(f).iter().zip(whole.field(f)) {
                assert_eq!(a.count, b.count);
                assert!((a.grad.g - b.grad.g).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn missing_records_counted_in_absent_bin() {
        let (data, grads) = make_data(110);
        let rows: Vec<u32> = (0..110).collect();
        let mut h = NodeHistogram::zeroed(&data);
        h.bin_records(&data, &rows, &grads);
        let absent = data.binnings()[0].absent_bin() as usize;
        // i % 11 == 0 -> 10 missing records (0, 11, ..., 99) in 0..110 is 10.
        assert_eq!(h.field(0).get(absent).count, 10);
    }

    #[test]
    fn field_wise_binning_is_bit_identical_to_row_wise() {
        let (data, grads) = make_data(250);
        let mirror = ColumnarMirror::from_binned(&data);
        let rows: Vec<u32> = (0..250).filter(|r| r % 3 != 1).collect();
        let mut whole = NodeHistogram::zeroed(&data);
        whole.bin_records(&data, &rows, &grads);

        let mut by_field = NodeHistogram::zeroed(&data);
        for (f, mut lanes) in by_field.lanes_mut().into_iter().enumerate() {
            bin_field_records(mirror.column(f), &rows, &grads, &mut lanes);
        }
        by_field.add_total(sum_grad_pairs(&rows, &grads), rows.len() as u64);

        assert_eq!(by_field, whole, "field-parallel binning must match exactly");
    }

    /// The packed (`u8`) and wide (`u32`) row-major kernels accumulate in
    /// the same order: bit-identical histograms, not just close ones.
    #[test]
    fn packed_and_wide_matrices_bin_bit_identically() {
        let (data, grads) = make_data(300);
        assert!(data.is_packed(), "small fields should pack");
        let wide = data.to_wide();
        assert!(!wide.is_packed());
        let rows: Vec<u32> = (0..300).filter(|r| r % 7 != 2).collect();
        let mut hp = NodeHistogram::zeroed(&data);
        hp.bin_records(&data, &rows, &grads);
        let mut hw = NodeHistogram::zeroed(&wide);
        hw.bin_records(&wide, &rows, &grads);
        assert_eq!(hp, hw);
    }

    #[test]
    fn empty_rows_noop() {
        let (data, grads) = make_data(10);
        let mut h = NodeHistogram::zeroed(&data);
        let updates = h.bin_records(&data, &[], &grads);
        assert_eq!(updates, 0);
        assert_eq!(h.total_count(), 0);
        assert_eq!(h.total(), GradPair::zero());
    }

    #[test]
    fn four_lane_total_is_deterministic_and_close_to_serial() {
        let (_, grads) = make_data(1000);
        let rows: Vec<u32> = (0..1000).collect();
        let a = sum_grad_pairs(&rows, &grads);
        let b = sum_grad_pairs(&rows, &grads);
        assert_eq!(a, b, "same rows, same bits");
        let serial: f64 = rows.iter().map(|&r| grads[r as usize].g).sum();
        assert!((a.g - serial).abs() < 1e-9);
        // Remainder handling: lengths not divisible by 4.
        for cut in [1usize, 2, 3, 5, 7] {
            let sub = &rows[..cut];
            let s = sum_grad_pairs(sub, &grads);
            let serial: f64 = sub.iter().map(|&r| grads[r as usize].g).sum();
            assert!((s.g - serial).abs() < 1e-12, "len {cut}");
        }
    }

    #[test]
    fn pool_recycles_allocations_and_resets_state() {
        let (data, grads) = make_data(50);
        let rows: Vec<u32> = (0..50).collect();
        let mut pool = HistogramPool::new();
        let mut h = pool.acquire(&data);
        h.bin_records(&data, &rows, &grads);
        assert!(h.total_count() > 0);
        pool.release(h);
        assert_eq!(pool.pooled(), 1);
        // Recycled histogram comes back zeroed.
        let h2 = pool.acquire(&data);
        assert_eq!(pool.pooled(), 0);
        assert_eq!(h2, NodeHistogram::zeroed(&data));
    }

    #[test]
    fn pool_rejects_mismatched_shapes() {
        let (data, _) = make_data(20);
        let other_schema = DatasetSchema::new(vec![FieldSchema::numeric_with_bins("z", 4)]);
        let mut other_ds = Dataset::new(other_schema);
        for i in 0..20 {
            other_ds.push_record(&[RawValue::Num(i as f32)], 0.0);
        }
        let other = BinnedDataset::from_dataset(&other_ds);
        let mut pool = HistogramPool::new();
        pool.release(NodeHistogram::zeroed(&other));
        // Acquiring for a different shape must not hand back the pooled one.
        let h = pool.acquire(&data);
        assert_eq!(h.num_fields(), data.num_fields());
        assert_eq!(h, NodeHistogram::zeroed(&data));
    }

    /// A tiny two-field dataset with hand-computable bins: every record
    /// is a categorical pair, so the bin of each record is the category
    /// itself, and the gradient pairs are dyadic rationals so every
    /// partial sum is exactly representable. `shard(lo, hi)` cuts a
    /// contiguous record range into its own [`BinnedDataset`] the way
    /// the distributed sharder does.
    fn fixture() -> (BinnedDataset, Vec<GradPair>) {
        use crate::preprocess::FieldBinning;
        let schema = DatasetSchema::new(vec![
            FieldSchema::categorical("a", 3), // bins 0..3, absent = 3
            FieldSchema::categorical("b", 2), // bins 0..2, absent = 2
        ]);
        let binnings = vec![
            FieldBinning::Categorical { categories: 3 },
            FieldBinning::Categorical { categories: 2 },
        ];
        // (field-0 bin, field-1 bin) per record; rows 2 and 4 use the
        // absent bins.
        let bins: Vec<u32> = vec![0, 0, 1, 1, 0, 2, 2, 0, 3, 1, 0, 0];
        let data = BinnedDataset::from_parts(schema, binnings, bins, vec![0.0; 6]);
        let grads = vec![
            GradPair::new(0.5, 1.0),
            GradPair::new(0.25, 0.5),
            GradPair::new(1.5, 2.0),
            GradPair::new(0.125, 0.25),
            GradPair::new(2.0, 4.0),
            GradPair::new(0.75, 0.5),
        ];
        (data, grads)
    }

    fn fixture_shard(data: &BinnedDataset, lo: usize, hi: usize) -> BinnedDataset {
        let nf = data.num_fields();
        let bins: Vec<u32> = (lo..hi).flat_map(|r| (0..nf).map(move |f| data.bin(r, f))).collect();
        BinnedDataset::from_parts(
            data.schema().clone(),
            data.binnings().to_vec(),
            bins,
            data.labels()[lo..hi].to_vec(),
        )
    }

    /// Bin a shard's local rows with shard-local gradients into `h`.
    fn bin_shard(h: &mut NodeHistogram, shard: &BinnedDataset, grads: &[GradPair]) {
        let rows: Vec<u32> = (0..shard.num_records() as u32).collect();
        h.bin_records(shard, &rows, grads);
    }

    /// Two shards' histograms merge to the whole-dataset histogram with
    /// every lane entry matching a hand-computed literal (the gradient
    /// pairs are dyadic, so the partial sums are exact and association
    /// cannot matter).
    #[test]
    fn two_shard_merge_matches_hand_computed_whole() {
        let (data, grads) = fixture();
        let a = fixture_shard(&data, 0, 3);
        let b = fixture_shard(&data, 3, 6);
        let mut ha = NodeHistogram::zeroed(&a);
        bin_shard(&mut ha, &a, &grads[0..3]);
        let mut hb = NodeHistogram::zeroed(&b);
        bin_shard(&mut hb, &b, &grads[3..6]);
        ha.merge(&hb);

        // Hand-computed whole-dataset lanes.
        let f0 = ha.field(0);
        assert_eq!((f0.grad, f0.hess), (&[2.75, 0.25, 0.125, 2.0][..], &[3.5, 0.5, 0.25, 4.0][..]));
        assert_eq!(f0.count, &[3, 1, 1, 1]);
        let f1 = ha.field(1);
        assert_eq!((f1.grad, f1.hess), (&[1.375, 2.25, 1.5][..], &[1.75, 4.5, 2.0][..]));
        assert_eq!(f1.count, &[3, 2, 1]);
        assert_eq!(ha.total(), GradPair::new(5.125, 8.25));
        assert_eq!(ha.total_count(), 6);

        // And it equals the single-pass whole-dataset histogram.
        let mut whole = NodeHistogram::zeroed(&data);
        bin_shard(&mut whole, &data, &grads);
        assert_eq!(ha, whole);
    }

    /// Degenerate shard boundaries: an empty shard merges as the
    /// identity, and a single-record shard contributes exactly its one
    /// record.
    #[test]
    fn empty_and_single_record_shards_merge_exactly() {
        let (data, grads) = fixture();
        let mut whole = NodeHistogram::zeroed(&data);
        bin_shard(&mut whole, &data, &grads);

        // Boundaries (0, 1, 6): an empty prefix shard, then a
        // single-record shard, then the rest.
        let single = fixture_shard(&data, 0, 1);
        let rest = fixture_shard(&data, 1, 6);
        let mut h = NodeHistogram::zeroed(&data); // the empty shard's histogram
        assert_eq!(h.total_count(), 0);
        let mut hs = NodeHistogram::zeroed(&single);
        bin_shard(&mut hs, &single, &grads[0..1]);
        assert_eq!(hs.total_count(), 1);
        assert_eq!(hs.total(), grads[0]);
        let mut hr = NodeHistogram::zeroed(&rest);
        bin_shard(&mut hr, &rest, &grads[1..6]);
        h.merge(&hs);
        h.merge(&hr);
        assert_eq!(h, whole);
    }

    /// One shard packed, the other widened to the `u32` fallback layout:
    /// the merged histogram is still exactly the whole-dataset one (the
    /// two layouts' kernels are bit-identical).
    #[test]
    fn packed_and_wide_shards_merge_identically() {
        let (data, grads) = fixture();
        let a = fixture_shard(&data, 0, 4);
        assert!(a.is_packed());
        let b = fixture_shard(&data, 4, 6).to_wide();
        assert!(!b.is_packed());
        let mut ha = NodeHistogram::zeroed(&a);
        bin_shard(&mut ha, &a, &grads[0..4]);
        let mut hb = NodeHistogram::zeroed(&b);
        bin_shard(&mut hb, &b, &grads[4..6]);
        ha.merge(&hb);
        let mut whole = NodeHistogram::zeroed(&data);
        bin_shard(&mut whole, &data, &grads);
        assert_eq!(ha, whole);
    }

    /// [`LaneAccumulator`] fed in arbitrary contiguous chunks — with its
    /// state suspended and resumed at every boundary — matches
    /// [`sum_grad_pairs_dense`] over the whole run bit for bit. This is
    /// the exactness contract the distributed vertex-total chain relies
    /// on (real-world irrational gradients, not dyadic fixtures).
    #[test]
    fn lane_accumulator_resumes_bit_identically() {
        let (_, grads) = make_data(103);
        let expected = sum_grad_pairs_dense(&grads);
        for cuts in [vec![0, 103], vec![0, 1, 103], vec![0, 7, 7, 20, 51, 102, 103]] {
            let mut acc = LaneAccumulator::new();
            for w in cuts.windows(2) {
                // Suspend and resume across the boundary, as the wire does.
                let (lanes, pos) = acc.state();
                let mut resumed = LaneAccumulator::from_state(lanes, pos);
                resumed.push_all(&grads[w[0]..w[1]]);
                acc = resumed;
            }
            assert_eq!(acc.count(), 103);
            let got = acc.finish();
            assert_eq!(
                (got.g.to_bits(), got.h.to_bits()),
                (expected.g.to_bits(), expected.h.to_bits()),
                "chunking {cuts:?} reassociated the fold"
            );
        }
    }

    /// The distributed Step-1 reduction mechanism at unit scale: each
    /// shard bins **into the running histogram** received from its
    /// predecessor (the lanes accumulate in global row order), and the
    /// vertex total rides a [`LaneAccumulator`] chained across shards.
    /// The result must be bit-identical to one sequential
    /// [`NodeHistogram::bin_records`] pass — for any contiguous
    /// boundaries, including empty and single-record shards.
    #[test]
    fn chained_shard_binning_is_bit_identical_to_sequential() {
        let (data, grads) = make_data(157);
        let all: Vec<u32> = (0..157).collect();
        let mut whole = NodeHistogram::zeroed(&data);
        whole.bin_records(&data, &all, &grads);

        for bounds in [vec![0usize, 157], vec![0, 0, 1, 80, 80, 157], vec![0, 39, 78, 117, 157]] {
            let mut running = NodeHistogram::zeroed(&data);
            let mut acc = LaneAccumulator::new();
            for w in bounds.windows(2) {
                let shard = fixture_shard(&data, w[0], w[1]);
                let local: Vec<u32> = (0..(w[1] - w[0]) as u32).collect();
                let gathered = &grads[w[0]..w[1]];
                // Continue the lanes in place — bin_records accumulates
                // with += and never zeroes. Its per-shard total updates
                // are discarded below: the chained accumulator is the
                // authoritative vertex total.
                running.bin_records(&shard, &local, gathered);
                acc.push_all(gathered);
            }
            running.set_totals(acc.finish(), acc.count());
            assert_eq!(running, whole, "bounds {bounds:?}");
            let (wt, rt) = (whole.total(), running.total());
            assert_eq!((wt.g.to_bits(), wt.h.to_bits()), (rt.g.to_bits(), rt.h.to_bits()));
        }
    }

    /// A Bernoulli row subsample (the stochastic-GB root pass) must bin
    /// exactly the sampled rows: counts, totals and every bin equal to
    /// the dense histogram of the sample minus nothing, and equal to
    /// parent-minus-complement by subtraction.
    #[test]
    fn subsampled_rows_bin_exactly_the_sample() {
        use crate::sample::SampleStream;
        let (data, grads) = make_data(400);
        let sample = SampleStream::new(11).draw_rows(400, 0.4);
        assert!(!sample.is_empty() && sample.len() < 400);
        let mut sub = NodeHistogram::zeroed(&data);
        let updates = sub.bin_records(&data, &sample, &grads);
        assert_eq!(updates, sample.len() as u64 * data.num_fields() as u64);
        assert_eq!(sub.total_count(), sample.len() as u64);

        // Parent minus the complement reconstructs the sample exactly.
        let all: Vec<u32> = (0..400).collect();
        let rest: Vec<u32> = all.iter().copied().filter(|r| !sample.contains(r)).collect();
        let mut parent = NodeHistogram::zeroed(&data);
        parent.bin_records(&data, &all, &grads);
        let mut comp = NodeHistogram::zeroed(&data);
        comp.bin_records(&data, &rest, &grads);
        let derived = NodeHistogram::subtract_from(&parent, &comp);
        assert_eq!(derived.total_count(), sub.total_count());
        for f in 0..data.num_fields() {
            for (a, b) in derived.field(f).iter().zip(sub.field(f)) {
                assert_eq!(a.count, b.count);
                assert!((a.grad.g - b.grad.g).abs() < 1e-9);
            }
        }
    }
}
