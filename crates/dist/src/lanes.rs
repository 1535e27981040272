//! The occupancy-coded histogram lane block: what a Step-1 chain link
//! actually ships.
//!
//! A histogram's three flat lanes (`G`, `H`, count; see
//! `NodeHistogram::raw_lanes`) cross the wire `2·W − 1` times per
//! engaged build, and below the top of a tree most of their bins are
//! empty: a vertex holding a few thousand records cannot touch most of
//! a one-hot field's thousands of bins. A bin whose **count is 0 has
//! received no add** — every kernel bump adds `(g, h)` *and* 1 — so its
//! `G` and `H` are still the `+0.0` that `reset()` wrote, and omitting
//! it loses nothing: the consumer zero-fills and scatters the occupied
//! bins back, recovering the lanes bit for bit.
//!
//! ```text
//! block  : nbins u32 | mode u8 | body
//! dense  : mode 0 | nbins × f64 (G) | nbins × f64 (H) | nbins × u64 (count)
//! sparse : mode 1 | nnz u32 | ⌈nbins/8⌉-byte bitmap (bit i%8 of byte i/8
//!          set iff bin i is occupied) | nnz × (g f64, h f64, count u64)
//!          in ascending bin order
//! ```
//!
//! The mode is a property of the data, not an option: the encoder
//! counts the occupied bins (it has to, to build the bitmap) and ships
//! sparse only when that is at least 25 % smaller than dense; a
//! well-filled block goes out as three bulk lane copies with no per-bin
//! work at all.
//!
//! A [`LaneBlock`] holds the *encoded* bytes. The coordinator never
//! needs the lanes of an intermediate chain link — it validates the
//! block a worker replied with and splices the same bytes into the next
//! worker's request — so nothing between the producer's histogram and
//! the consumer's histogram materialises lane vectors.

use bytes::{Buf, BufMut};

use crate::error::DistError;

const MODE_DENSE: u8 = 0;
const MODE_SPARSE: u8 = 1;

/// Bytes before the body: bin count and mode.
const HEADER_BYTES: usize = 4 + 1;
/// Bytes of one bin's `(g, h, count)`, in either mode.
const BIN_BYTES: usize = 24;

/// Body size of a dense block over `nbins` bins.
fn dense_body_bytes(nbins: usize) -> usize {
    BIN_BYTES * nbins
}

/// Body size of a sparse block over `nbins` bins, `occupied` of them
/// shipped.
fn sparse_body_bytes(nbins: usize, occupied: usize) -> usize {
    4 + nbins.div_ceil(8) + BIN_BYTES * occupied
}

/// The encoder's mode rule: sparse only when it is at least 25 %
/// smaller than dense.
fn sparse_pays(nbins: usize, occupied: usize) -> bool {
    4 * sparse_body_bytes(nbins, occupied) <= 3 * dense_body_bytes(nbins)
}

/// One encoded, validated lane block (see the module docs for the
/// layout). Built from a histogram's lanes by [`LaneBlock::from_lanes`]
/// or from wire bytes by [`LaneBlock::decode_from`]; either way
/// [`LaneBlock::scatter_into`] reproduces the producer's lanes exactly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LaneBlock {
    /// Header and body, exactly as they cross the wire.
    bytes: Vec<u8>,
    nbins: u32,
    occupied: u32,
    sparse: bool,
}

impl LaneBlock {
    /// Encode three equal-length lanes. One pass over the counts builds
    /// the occupancy bitmap and picks the mode; the body is then
    /// written once into an exactly-sized buffer.
    ///
    /// # Panics
    /// Panics if the lanes differ in length or exceed `u32::MAX` bins.
    pub fn from_lanes(grad: &[f64], hess: &[f64], count: &[u64]) -> LaneBlock {
        let nbins = count.len();
        assert!(grad.len() == nbins && hess.len() == nbins, "lane lengths differ");
        let nbins_u32 = u32::try_from(nbins).expect("bin count fits u32");

        // A mask byte per eight bins: branch-free, and the set-bit walk
        // below visits occupied bins only.
        let mut bitmap = vec![0u8; nbins.div_ceil(8)];
        let mut occupied = 0usize;
        for (mask, eight) in bitmap.iter_mut().zip(count.chunks(8)) {
            for (bit, &c) in eight.iter().enumerate() {
                *mask |= u8::from(c != 0) << bit;
            }
            occupied += mask.count_ones() as usize;
        }

        let sparse = sparse_pays(nbins, occupied);
        let body =
            if sparse { sparse_body_bytes(nbins, occupied) } else { dense_body_bytes(nbins) };
        let mut bytes = Vec::with_capacity(HEADER_BYTES + body);
        bytes.put_u32_le(nbins_u32);
        if sparse {
            bytes.put_u8(MODE_SPARSE);
            bytes.put_u32_le(occupied as u32);
            bytes.extend_from_slice(&bitmap);
            let at = bytes.len();
            bytes.resize(at + BIN_BYTES * occupied, 0);
            let mut entries = bytes[at..].chunks_exact_mut(BIN_BYTES);
            for_each_set_bit(&bitmap, |bin| {
                let e = entries.next().expect("one entry per set bit");
                e[..8].copy_from_slice(&grad[bin].to_le_bytes());
                e[8..16].copy_from_slice(&hess[bin].to_le_bytes());
                e[16..].copy_from_slice(&count[bin].to_le_bytes());
            });
        } else {
            bytes.put_u8(MODE_DENSE);
            let at = bytes.len();
            bytes.resize(at + body, 0);
            let (g, rest) = bytes[at..].split_at_mut(8 * nbins);
            let (h, c) = rest.split_at_mut(8 * nbins);
            put_lane(g, grad, f64::to_le_bytes);
            put_lane(h, hess, f64::to_le_bytes);
            put_lane(c, count, u64::to_le_bytes);
        }
        LaneBlock { bytes, nbins: nbins_u32, occupied: occupied as u32, sparse }
    }

    /// Read one block off the front of `buf`, checking everything a
    /// hostile or corrupt frame could get wrong *before* copying the
    /// body: the body length against what is left of the payload, and
    /// for a sparse block `nnz <= nbins`, `popcount(bitmap) == nnz`, no
    /// bit at or past `nbins`, and no shipped count of 0 (an occupied
    /// bin has a count; accepting 0 would make two encodings of one
    /// histogram). A decoded block re-encodes to the same bytes.
    ///
    /// # Errors
    /// [`DistError::Protocol`] naming the violated rule.
    pub fn decode_from(buf: &mut &[u8]) -> Result<LaneBlock, DistError> {
        let bad = |what: &str| DistError::Protocol(format!("lane block: {what}"));
        if buf.remaining() < HEADER_BYTES {
            return Err(bad("truncated header"));
        }
        let mut head = &buf[..HEADER_BYTES];
        let nbins_u32 = head.get_u32_le();
        let nbins = nbins_u32 as usize;
        let mode = head.get_u8();
        let rest = &buf[HEADER_BYTES..];
        // Bound the bin count by what is left of the payload before any
        // size is computed from it: a hostile count can neither
        // allocate nor overflow.
        let (body, occupied) = match mode {
            MODE_DENSE => {
                if nbins > rest.len() / BIN_BYTES {
                    return Err(bad("truncated dense lanes"));
                }
                let body = dense_body_bytes(nbins);
                let counts = &rest[16 * nbins..body];
                (body, counts.chunks_exact(8).filter(|c| c.iter().any(|&b| b != 0)).count())
            }
            MODE_SPARSE => {
                if rest.len() < 4 {
                    return Err(bad("truncated occupancy count"));
                }
                let nnz = (&rest[..4]).get_u32_le() as usize;
                if nnz > nbins {
                    return Err(bad("more occupied bins than bins"));
                }
                if nbins.div_ceil(8) > rest.len()
                    || nnz > rest.len() / BIN_BYTES
                    || sparse_body_bytes(nbins, nnz) > rest.len()
                {
                    return Err(bad("truncated sparse body"));
                }
                let body = sparse_body_bytes(nbins, nnz);
                let (bitmap, entries) = rest[4..body].split_at(nbins.div_ceil(8));
                let set: usize = bitmap.iter().map(|m| m.count_ones() as usize).sum();
                if set != nnz {
                    return Err(bad("bitmap population differs from the occupancy count"));
                }
                if nbins % 8 != 0 && bitmap[nbins / 8] >> (nbins % 8) != 0 {
                    return Err(bad("bitmap bit past the last bin"));
                }
                if entries.chunks_exact(BIN_BYTES).any(|e| e[16..].iter().all(|&b| b == 0)) {
                    return Err(bad("shipped bin with count 0"));
                }
                (body, nnz)
            }
            _ => return Err(bad("unknown mode")),
        };
        let bytes = buf[..HEADER_BYTES + body].to_vec();
        *buf = &buf[HEADER_BYTES + body..];
        Ok(LaneBlock {
            bytes,
            nbins: nbins_u32,
            occupied: occupied as u32,
            sparse: mode == MODE_SPARSE,
        })
    }

    /// Append the block to a payload under construction.
    pub fn encode_into(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&self.bytes);
    }

    /// Size of the block on the wire.
    pub fn encoded_len(&self) -> usize {
        self.bytes.len()
    }

    /// Bins the block describes.
    pub fn nbins(&self) -> usize {
        self.nbins as usize
    }

    /// Bins with a non-zero count.
    pub fn occupied(&self) -> usize {
        self.occupied as usize
    }

    /// Whether the block went out sparse.
    pub fn is_sparse(&self) -> bool {
        self.sparse
    }

    /// Write the block's lanes into the consumer's (typically
    /// `NodeHistogram::raw_lanes_mut`), overwriting whatever they held:
    /// three bulk copies for a dense block, zero-fill plus one write
    /// per occupied bin for a sparse one.
    ///
    /// # Panics
    /// Panics if a lane's length is not [`Self::nbins`] — callers check
    /// the bin count against their histogram's shape first.
    pub fn scatter_into(&self, grad: &mut [f64], hess: &mut [f64], count: &mut [u64]) {
        let nbins = self.nbins();
        assert!(
            grad.len() == nbins && hess.len() == nbins && count.len() == nbins,
            "lane block of {nbins} bins scattered into lanes of another shape"
        );
        let body = &self.bytes[HEADER_BYTES..];
        if !self.sparse {
            let (g, rest) = body.split_at(8 * nbins);
            let (h, c) = rest.split_at(8 * nbins);
            get_lane(grad, g, f64::from_le_bytes);
            get_lane(hess, h, f64::from_le_bytes);
            get_lane(count, c, u64::from_le_bytes);
            return;
        }
        grad.fill(0.0);
        hess.fill(0.0);
        count.fill(0);
        let (bitmap, entries) = body[4..].split_at(nbins.div_ceil(8));
        let mut entries = entries.chunks_exact(BIN_BYTES);
        for_each_set_bit(bitmap, |bin| {
            let e = entries.next().expect("one entry per set bit");
            grad[bin] = f64::from_le_bytes(word(&e[..8]));
            hess[bin] = f64::from_le_bytes(word(&e[8..16]));
            count[bin] = u64::from_le_bytes(word(&e[16..]));
        });
    }
}

fn word(b: &[u8]) -> [u8; 8] {
    b.try_into().expect("8-byte lane entry")
}

/// Write one whole lane as little-endian words (a bulk copy on
/// little-endian targets).
fn put_lane<T: Copy>(dst: &mut [u8], src: &[T], to_le: impl Fn(T) -> [u8; 8]) {
    for (dst, &v) in dst.chunks_exact_mut(8).zip(src) {
        dst.copy_from_slice(&to_le(v));
    }
}

/// Read one whole lane of little-endian words.
fn get_lane<T>(dst: &mut [T], src: &[u8], from_le: impl Fn([u8; 8]) -> T) {
    for (dst, src) in dst.iter_mut().zip(src.chunks_exact(8)) {
        *dst = from_le(word(src));
    }
}

/// Call `f(bin)` for every set bit of `bitmap`, ascending. Clearing the
/// lowest set bit per step makes the cost proportional to the occupied
/// bins, not to the bins.
fn for_each_set_bit(bitmap: &[u8], mut f: impl FnMut(usize)) {
    for (byte, &mask) in bitmap.iter().enumerate() {
        let mut m = mask;
        while m != 0 {
            f(byte * 8 + m.trailing_zeros() as usize);
            m &= m - 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Lanes over `nbins` bins with exactly the bins in `occupied`
    /// holding (distinct, sign-mixed) sums.
    fn lanes(nbins: usize, occupied: &[usize]) -> (Vec<f64>, Vec<f64>, Vec<u64>) {
        let (mut g, mut h, mut c) = (vec![0.0; nbins], vec![0.0; nbins], vec![0u64; nbins]);
        for (k, &b) in occupied.iter().enumerate() {
            g[b] = (k as f64 + 0.5) * if k % 2 == 0 { 1.0 } else { -1.0 };
            h[b] = 1.0 / (k as f64 + 1.0);
            c[b] = k as u64 + 1;
        }
        (g, h, c)
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Encode, push through the wire form, scatter into dirty lanes:
    /// the producer's lanes come back bit for bit, in the mode the rule
    /// picks, at the size the formulas give.
    fn assert_round_trip(nbins: usize, occupied: &[usize]) -> LaneBlock {
        let (g, h, c) = lanes(nbins, occupied);
        let block = LaneBlock::from_lanes(&g, &h, &c);
        let what = format!("nbins {nbins}, {} occupied", occupied.len());
        assert_eq!(block.nbins(), nbins, "{what}");
        assert_eq!(block.occupied(), occupied.len(), "{what}");
        assert_eq!(block.is_sparse(), sparse_pays(nbins, occupied.len()), "{what}");
        let body = if block.is_sparse() {
            sparse_body_bytes(nbins, occupied.len())
        } else {
            dense_body_bytes(nbins)
        };
        assert_eq!(block.encoded_len(), HEADER_BYTES + body, "{what}");

        let mut wire = Vec::new();
        block.encode_into(&mut wire);
        wire.push(0xAB); // whatever follows the block is left alone
        let mut cursor = &wire[..];
        let back = LaneBlock::decode_from(&mut cursor).unwrap();
        assert_eq!(cursor, &[0xAB], "{what}");
        assert_eq!(back, block, "{what}: decode is the inverse of encode");

        let (mut g2, mut h2, mut c2) = (vec![7.0; nbins], vec![-3.0; nbins], vec![9u64; nbins]);
        back.scatter_into(&mut g2, &mut h2, &mut c2);
        assert_eq!(bits(&g2), bits(&g), "{what}");
        assert_eq!(bits(&h2), bits(&h), "{what}");
        assert_eq!(c2, c, "{what}");
        block
    }

    /// Largest occupancy at which the rule still picks sparse.
    fn threshold(nbins: usize) -> usize {
        (0..=nbins).rev().find(|&k| sparse_pays(nbins, k)).expect("0 occupied is sparse")
    }

    #[test]
    fn round_trip_is_the_identity_at_every_shape_and_occupancy() {
        for nbins in [0usize, 1, 7, 8, 9, 8_328] {
            // 0 bins, 1 bin, all bins, and both sides of the mode rule.
            let mut occupancies = vec![0, 1.min(nbins), nbins];
            if nbins >= 8 {
                let t = threshold(nbins);
                occupancies.extend([t - 1, t, t + 1]);
            }
            for k in occupancies {
                // Spread the occupied bins over the whole range,
                // always including the last bin.
                let step = (nbins / k.max(1)).max(1);
                let occupied: Vec<usize> = (0..k).rev().map(|i| nbins - 1 - i * step).collect();
                assert_round_trip(nbins, &occupied);
            }
        }
    }

    #[test]
    fn the_mode_follows_the_occupancy() {
        assert!(!assert_round_trip(0, &[]).is_sparse(), "an empty histogram has nothing to omit");
        assert!(assert_round_trip(8_328, &[3, 4_000]).is_sparse());
        let all: Vec<usize> = (0..8_328).collect();
        assert!(!assert_round_trip(8_328, &all).is_sparse());
        let t = threshold(8_328);
        assert!(assert_round_trip(8_328, &all[..t]).is_sparse());
        assert!(!assert_round_trip(8_328, &all[..t + 1]).is_sparse());
        // About three quarters: 25 % smaller needs a quarter of the
        // bins empty, plus the bitmap.
        assert!((6_100..6_246).contains(&t), "threshold {t}");
    }

    #[test]
    fn an_occupied_bin_ships_whatever_it_holds() {
        // Occupancy is decided by the count alone: a zero sum (of
        // either sign) in a bin with records is shipped as is, and only
        // unoccupied bins come back as the +0.0 of the zero-fill.
        let (mut g, h, c) = lanes(64, &[5]);
        g[5] = -0.0;
        let block = LaneBlock::from_lanes(&g, &h, &c);
        assert!(block.is_sparse());
        let (mut g2, mut h2, mut c2) = (vec![1.0; 64], vec![1.0; 64], vec![1u64; 64]);
        block.scatter_into(&mut g2, &mut h2, &mut c2);
        assert_eq!(bits(&g2), bits(&g));
    }

    fn sparse_wire() -> Vec<u8> {
        let (g, h, c) = lanes(20, &[0, 9, 19]);
        let block = LaneBlock::from_lanes(&g, &h, &c);
        assert!(block.is_sparse());
        block.bytes
    }

    fn decode_err(wire: &[u8]) -> String {
        let mut cursor = wire;
        match LaneBlock::decode_from(&mut cursor) {
            Err(DistError::Protocol(m)) => m,
            other => panic!("expected a protocol error, got {other:?}"),
        }
    }

    #[test]
    fn every_corruption_is_a_typed_error() {
        let good = sparse_wire();
        // Offsets: nbins 0..4, mode 4, nnz 5..9, bitmap 9..12, entries.
        let mut w = good.clone();
        w[4] = 2;
        assert!(decode_err(&w).contains("unknown mode"));

        let mut w = good.clone();
        w[5..9].copy_from_slice(&21u32.to_le_bytes());
        assert!(decode_err(&w).contains("more occupied bins than bins"));

        // nnz says 4, bitmap says 3: and the body is one entry short.
        let mut w = good.clone();
        w[5..9].copy_from_slice(&4u32.to_le_bytes());
        assert!(decode_err(&w).contains("truncated sparse body"));
        w.extend_from_slice(&[1; BIN_BYTES]);
        assert!(decode_err(&w).contains("bitmap population"));

        // Move bin 19's bit to bin 20: same population, past the end.
        let mut w = good.clone();
        w[11] = 0b0001_0000;
        assert!(decode_err(&w).contains("bit past the last bin"));

        // Zero the second entry's count.
        let mut w = good.clone();
        let count_at = 12 + BIN_BYTES + 16;
        w[count_at..count_at + 8].fill(0);
        assert!(decode_err(&w).contains("count 0"));

        for cut in 0..good.len() {
            assert!(decode_err(&good[..cut]).contains("truncated"), "prefix {cut}");
        }
        let (g, h, c) = lanes(3, &[0, 1, 2]);
        let dense = LaneBlock::from_lanes(&g, &h, &c).bytes;
        for cut in 0..dense.len() {
            assert!(decode_err(&dense[..cut]).contains("truncated"), "dense prefix {cut}");
        }
    }

    #[test]
    fn hostile_counts_do_not_allocate() {
        // A header claiming u32::MAX bins over a few bytes of payload,
        // in either mode: rejected on the length check, nothing copied.
        for mode in [MODE_DENSE, MODE_SPARSE] {
            let mut w = Vec::new();
            w.put_u32_le(u32::MAX);
            w.put_u8(mode);
            w.put_u32_le(3);
            w.extend_from_slice(&[0xFF; 64]);
            assert!(decode_err(&w).contains("truncated"));
        }
    }

    #[test]
    fn a_non_canonical_sparse_block_still_decodes_to_its_lanes() {
        // Every bin occupied but shipped sparse: not what the encoder
        // would pick, still one unambiguous histogram.
        let (g, h, c) = lanes(8, &[0, 1, 2, 3, 4, 5, 6, 7]);
        let mut w = Vec::new();
        w.put_u32_le(8);
        w.put_u8(MODE_SPARSE);
        w.put_u32_le(8);
        w.put_u8(0xFF);
        for b in 0..8 {
            w.put_f64_le(g[b]);
            w.put_f64_le(h[b]);
            w.put_u64_le(c[b]);
        }
        let mut cursor = &w[..];
        let block = LaneBlock::decode_from(&mut cursor).unwrap();
        let (mut g2, mut h2, mut c2) = (vec![0.0; 8], vec![0.0; 8], vec![0u64; 8]);
        block.scatter_into(&mut g2, &mut h2, &mut c2);
        assert_eq!((bits(&g2), bits(&h2), c2), (bits(&g), bits(&h), c));
    }
}
