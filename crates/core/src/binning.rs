//! Binning: mapping attribute values to bitvector ids.
//!
//! Bitmap indexing bins value-based attributes (Section 2.1 of the paper):
//! low-cardinality integer data gets one bitvector per distinct value, while
//! floating-point data is grouped into bins. The paper's Heat3D runs bin by
//! *decimal precision* ("retain 1 digit after the decimal point"), which
//! [`Binner::precision`] reproduces.
//!
//! Two analyses agree exactly if and only if they use the same binning scale
//! — the root of the paper's "no accuracy loss" claim — so the [`Binner`] is
//! carried inside every index and compared when metrics combine two of them.
//!
//! A binning holds at most [`Binner::MAX_BINS`] bins, checked by every
//! constructor: the one-pass joint table labels each row with its bin id in
//! a `u16`, so every statistic reads a partition it can label.

/// Maps `f64` values to bin ids in `0..nbins`.
#[derive(Debug, Clone, PartialEq)]
pub struct Binner {
    kind: Kind,
}

/// A serializable description of a binning scale; round-trips a [`Binner`]
/// exactly (`Binner::from_spec(b.spec()) == b`), which the on-disk index
/// format relies on so that reloaded indices stay metric-compatible with
/// in-memory ones.
#[derive(Debug, Clone, PartialEq)]
pub enum BinnerSpec {
    /// Equal-width bins starting at `min`.
    Width {
        /// Low edge of bin 0.
        min: f64,
        /// Bin width.
        width: f64,
        /// Bin count.
        nbins: usize,
    },
    /// Explicit ascending edges.
    Edges(Vec<f64>),
}

#[derive(Debug, Clone, PartialEq)]
enum Kind {
    /// Equal-width bins over `[min, min + width * nbins)`; out-of-range
    /// values clamp to the first/last bin.
    Width { min: f64, width: f64, nbins: usize },
    /// Explicit ascending edges; bin `i` covers `[edges[i], edges[i+1])`.
    Edges(Vec<f64>),
}

/// Panics unless `nbins` — counted in `f64`, so no arithmetic before it
/// can wrap — is 1 to [`Binner::MAX_BINS`]; returns it as a count.
fn checked_nbins(nbins: f64) -> usize {
    assert!(
        (1.0..=Binner::MAX_BINS as f64).contains(&nbins),
        "{nbins} bins: a binning holds 1 to {} bins",
        Binner::MAX_BINS
    );
    nbins as usize
}

impl Binner {
    /// The most bins a binning may have: the label walk's id space, a `u16`
    /// less the two labels it reserves for segments (see
    /// `ibis_analysis::histogram`).
    pub const MAX_BINS: usize = 65_534;

    /// `nbins` equal-width bins covering `[min, max]`.
    ///
    /// # Panics
    /// Panics if `max <= min`, `nbins` is 0 or above [`Binner::MAX_BINS`],
    /// or either bound is not finite.
    pub fn fixed_width(min: f64, max: f64, nbins: usize) -> Self {
        assert!(min.is_finite() && max.is_finite(), "bounds must be finite");
        assert!(max > min, "max must exceed min");
        let nbins = checked_nbins(nbins as f64);
        Binner {
            kind: Kind::Width {
                min,
                width: (max - min) / nbins as f64,
                nbins,
            },
        }
    }

    /// Bins of width `10^-digits` covering `[min, max]` — the paper's
    /// "retain `digits` digits after the decimal point" scale. With
    /// `digits = 1`, values 3.13 and 3.18 share a bin; 3.13 and 3.24 do not.
    ///
    /// # Panics
    /// Panics if the range would need more than [`Binner::MAX_BINS`] bins
    /// (the precision is wrong for the data range; a `10^-digits` that
    /// underflows to 0 needs infinitely many).
    pub fn precision(min: f64, max: f64, digits: i32) -> Self {
        assert!(min.is_finite() && max.is_finite(), "bounds must be finite");
        assert!(max >= min, "max must not be below min");
        let width = 10f64.powi(-digits);
        let nbins = checked_nbins(((max - min) / width).floor() + 1.0);
        Binner {
            kind: Kind::Width { min, width, nbins },
        }
    }

    /// One bin per integer in `[min, max]` — the low-level index of Figure 1,
    /// where each bitvector corresponds to one distinct value.
    ///
    /// # Panics
    /// Panics if `max < min` or the range holds more than
    /// [`Binner::MAX_BINS`] integers.
    pub fn distinct_ints(min: i64, max: i64) -> Self {
        assert!(max >= min, "max must not be below min");
        let nbins = checked_nbins(max.abs_diff(min) as f64 + 1.0);
        Binner {
            kind: Kind::Width {
                min: min as f64,
                width: 1.0,
                nbins,
            },
        }
    }

    /// Bins from explicit ascending edges; bin `i` covers
    /// `[edges[i], edges[i+1])`, out-of-range values clamp.
    ///
    /// # Panics
    /// Panics with fewer than two edges, non-increasing edges, or more than
    /// [`Binner::MAX_BINS`] bins.
    pub fn from_edges(edges: Vec<f64>) -> Self {
        assert!(edges.len() >= 2, "need at least two edges");
        checked_nbins(edges.len() as f64 - 1.0);
        assert!(
            edges.windows(2).all(|w| w[0] < w[1]),
            "edges must be strictly increasing"
        );
        Binner {
            kind: Kind::Edges(edges),
        }
    }

    /// Equal-width bins fitted to the observed data range. Empty data or a
    /// constant value yields a single bin.
    ///
    /// # Panics
    /// Panics if `nbins` is 0 or above [`Binner::MAX_BINS`].
    pub fn fit(data: &[f64], nbins: usize) -> Self {
        checked_nbins(nbins as f64);
        let (min, max) = min_max(data);
        if max <= min {
            return Binner {
                kind: Kind::Width {
                    min,
                    width: 1.0,
                    nbins: 1,
                },
            };
        }
        // Widen slightly so `max` itself lands inside the last bin.
        let width = (max - min) / nbins as f64;
        Binner {
            kind: Kind::Width {
                min,
                width: width * (1.0 + 1e-12),
                nbins,
            },
        }
    }

    /// Precision bins fitted to the observed data range (the paper's Heat3D
    /// configuration: bin count then depends on the value range of the
    /// time-step, 64–206 bins in their runs).
    pub fn fit_precision(data: &[f64], digits: i32) -> Self {
        let (min, max) = min_max(data);
        Self::precision(min, max, digits)
    }

    /// Like [`Binner::fit_precision`], but the low edge snaps *down* to a
    /// multiple of the bin width, so binners fitted to different time-steps
    /// of the same variable share a global bin lattice: their bins either
    /// coincide exactly or don't overlap at all. That is what makes the
    /// paper's per-step bin counts ("64 to 206, depending on the temperature
    /// range of different time-steps") compatible with cross-step metrics —
    /// see [`Binner::alignment_offset`].
    pub fn fit_precision_anchored(data: &[f64], digits: i32) -> Self {
        let (min, max) = min_max(data);
        let width = 10f64.powi(-digits);
        let min = (min / width).floor() * width;
        Self::precision(min, max.max(min), digits)
    }

    /// If `self` and `other` bin on the same lattice (equal widths, low
    /// edges an integer number of bins apart), returns `other`'s bin offset
    /// relative to `self`: `self` bin `j` covers the same value range as
    /// `other` bin `j - offset`. `None` when the lattices differ.
    ///
    /// Floating-point caveat: a value lying *exactly* on a bin edge may
    /// round into either adjacent cell depending on the binner's anchor;
    /// interior values always agree.
    pub fn alignment_offset(&self, other: &Binner) -> Option<i64> {
        let (
            Kind::Width {
                min: m1, width: w1, ..
            },
            Kind::Width {
                min: m2, width: w2, ..
            },
        ) = (&self.kind, &other.kind)
        else {
            return (self == other).then_some(0);
        };
        let rel = (w1 - w2).abs() / w1.abs().max(1e-300);
        if rel > 1e-9 {
            return None;
        }
        let shift = (m2 - m1) / w1;
        let rounded = shift.round();
        ((shift - rounded).abs() < 1e-6).then_some(rounded as i64)
    }

    /// Number of bins.
    pub fn nbins(&self) -> usize {
        match &self.kind {
            Kind::Width { nbins, .. } => *nbins,
            Kind::Edges(e) => e.len() - 1,
        }
    }

    /// Maps a value to its bin id (out-of-range values clamp to the edge
    /// bins; NaN maps to bin 0).
    #[inline]
    pub fn bin_of(&self, v: f64) -> u32 {
        match &self.kind {
            Kind::Width { min, width, nbins } => {
                let raw = (v - min) / width;
                if raw.is_nan() || raw <= 0.0 {
                    return 0; // below range, and NaN by convention
                }
                (raw as usize).min(nbins - 1) as u32
            }
            Kind::Edges(edges) => {
                let n = edges.len() - 1;
                let i = edges.partition_point(|&e| e <= v);
                i.saturating_sub(1).min(n - 1) as u32
            }
        }
    }

    /// The half-open value range `[lo, hi)` covered by a bin.
    pub fn bin_range(&self, bin: usize) -> (f64, f64) {
        assert!(bin < self.nbins(), "bin {bin} out of range");
        match &self.kind {
            Kind::Width { min, width, .. } => {
                (min + width * bin as f64, min + width * (bin + 1) as f64)
            }
            Kind::Edges(e) => (e[bin], e[bin + 1]),
        }
    }

    /// The serializable description of this binner.
    pub fn spec(&self) -> BinnerSpec {
        match &self.kind {
            Kind::Width { min, width, nbins } => BinnerSpec::Width {
                min: *min,
                width: *width,
                nbins: *nbins,
            },
            Kind::Edges(e) => BinnerSpec::Edges(e.clone()),
        }
    }

    /// Reconstructs a binner from its description (exact round-trip).
    ///
    /// # Panics
    /// Panics on invalid specs (zero width, non-increasing edges, 0 or more
    /// than [`Binner::MAX_BINS`] bins).
    pub fn from_spec(spec: BinnerSpec) -> Binner {
        match spec {
            BinnerSpec::Width { min, width, nbins } => {
                assert!(min.is_finite() && width > 0.0, "invalid width spec");
                let nbins = checked_nbins(nbins as f64);
                Binner {
                    kind: Kind::Width { min, width, nbins },
                }
            }
            BinnerSpec::Edges(edges) => Binner::from_edges(edges),
        }
    }

    /// Maps every value in `data` to its bin id.
    pub fn bin_all(&self, data: &[f64]) -> Vec<u32> {
        let mut out = Vec::new();
        self.bin_into(data, &mut out);
        out
    }

    /// Like [`Binner::bin_all`], but reuses `out`'s allocation — the
    /// per-time-step pipelines call this with a scratch buffer so steady
    /// state does no binning allocation. `out` is cleared first and holds
    /// exactly `data.len()` ids afterwards.
    pub fn bin_into(&self, data: &[f64], out: &mut Vec<u32>) {
        out.clear();
        out.resize(data.len(), 0);
        self.bin_slice_into(data, out);
    }

    /// Fills `out[i] = self.bin_of(data[i])` for equal-length slices. The
    /// fixed-width arm is branchless: the quotient is clamped to `[0, top]`
    /// in `f64` (`max` drops a NaN for the 0), matching
    /// [`Binner::bin_of`]'s clamp-and-NaN convention, so the subtract,
    /// divide and clamps run as packed SIMD and only the cast is scalar —
    /// which is what lets the fused generation loop in
    /// `MultiCodecBuilder::extend_binned` stay tight.
    #[inline]
    pub(crate) fn bin_slice_into(&self, data: &[f64], out: &mut [u32]) {
        debug_assert_eq!(data.len(), out.len());
        match &self.kind {
            Kind::Width { min, width, nbins } => {
                let top = (*nbins - 1) as f64;
                for (o, &v) in out.iter_mut().zip(data) {
                    // NaN and negatives -> 0, +inf/huge -> top: byte-identical
                    // to the branchy bin_of for every input
                    *o = ((v - *min) / *width).max(0.0).min(top) as u32;
                }
            }
            Kind::Edges(_) => {
                for (o, &v) in out.iter_mut().zip(data) {
                    *o = self.bin_of(v);
                }
            }
        }
    }

    /// A coarser binner whose bin `h` covers low bins
    /// `h*group .. min((h+1)*group, nbins)` — the high-level index of the
    /// paper's multi-level bitmaps. The two levels align exactly, which the
    /// top-down correlation miner relies on.
    pub fn coarsen(&self, group: usize) -> Binner {
        assert!(group >= 1, "group must be at least 1");
        let n_high = self.nbins().div_ceil(group);
        match &self.kind {
            Kind::Width { min, width, nbins } => {
                // The last high bin may be ragged; edges keep it exact.
                let mut edges: Vec<f64> = (0..n_high)
                    .map(|h| min + width * (h * group) as f64)
                    .collect();
                edges.push(min + width * *nbins as f64);
                Binner {
                    kind: Kind::Edges(edges),
                }
            }
            Kind::Edges(e) => {
                let mut edges: Vec<f64> = (0..n_high).map(|h| e[h * group]).collect();
                edges.push(*e.last().unwrap());
                Binner {
                    kind: Kind::Edges(edges),
                }
            }
        }
    }
}

fn min_max(data: &[f64]) -> (f64, f64) {
    let mut min = f64::INFINITY;
    let mut max = f64::NEG_INFINITY;
    for &v in data {
        if v < min {
            min = v;
        }
        if v > max {
            max = v;
        }
    }
    if !min.is_finite() {
        (0.0, 0.0)
    } else {
        (min, max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_width_partitions_range() {
        let b = Binner::fixed_width(0.0, 10.0, 5);
        assert_eq!(b.nbins(), 5);
        assert_eq!(b.bin_of(0.0), 0);
        assert_eq!(b.bin_of(1.99), 0);
        assert_eq!(b.bin_of(2.0), 1);
        assert_eq!(b.bin_of(9.99), 4);
        assert_eq!(b.bin_of(10.0), 4, "max clamps to last bin");
        assert_eq!(b.bin_of(-5.0), 0, "below range clamps");
        assert_eq!(b.bin_of(50.0), 4, "above range clamps");
        assert_eq!(b.bin_of(f64::NAN), 0, "NaN goes to bin 0");
    }

    #[test]
    fn precision_one_decimal_digit() {
        let b = Binner::precision(0.0, 5.0, 1);
        assert_eq!(b.nbins(), 51);
        assert_eq!(b.bin_of(3.13), b.bin_of(3.18));
        assert_ne!(b.bin_of(3.13), b.bin_of(3.24));
        assert_eq!(b.bin_of(0.0), 0);
        assert_eq!(b.bin_of(0.05), 0);
        assert_eq!(b.bin_of(0.15), 1);
    }

    #[test]
    fn distinct_ints_one_bin_per_value() {
        let b = Binner::distinct_ints(1, 4); // Figure 1's four values
        assert_eq!(b.nbins(), 4);
        for v in 1..=4i64 {
            assert_eq!(b.bin_of(v as f64), (v - 1) as u32);
        }
    }

    #[test]
    fn edges_partition() {
        let b = Binner::from_edges(vec![0.0, 1.0, 10.0, 100.0]);
        assert_eq!(b.nbins(), 3);
        assert_eq!(b.bin_of(0.5), 0);
        assert_eq!(b.bin_of(1.0), 1);
        assert_eq!(b.bin_of(9.99), 1);
        assert_eq!(b.bin_of(10.0), 2);
        assert_eq!(b.bin_of(-1.0), 0);
        assert_eq!(b.bin_of(1e9), 2);
        assert_eq!(b.bin_range(1), (1.0, 10.0));
    }

    #[test]
    fn fit_covers_all_data() {
        let data: Vec<f64> = (0..1000).map(|i| (i as f64).sin() * 37.0).collect();
        let b = Binner::fit(&data, 20);
        for &v in &data {
            let bin = b.bin_of(v) as usize;
            let (lo, hi) = b.bin_range(bin);
            let in_bin = v >= lo && (v < hi || bin == 19);
            assert!(in_bin, "{v} not in bin {bin} [{lo},{hi})");
        }
    }

    #[test]
    fn fit_constant_data_single_bin() {
        let b = Binner::fit(&[5.0; 10], 8);
        assert_eq!(b.nbins(), 1);
        assert_eq!(b.bin_of(5.0), 0);
        let b = Binner::fit(&[], 8);
        assert_eq!(b.nbins(), 1);
    }

    #[test]
    fn every_value_in_exactly_one_bin() {
        let b = Binner::fixed_width(-2.0, 2.0, 16);
        for i in 0..4000 {
            let v = -2.0 + i as f64 * 0.001;
            let bin = b.bin_of(v) as usize;
            assert!(bin < 16);
            let (lo, hi) = b.bin_range(bin);
            assert!(v >= lo - 1e-9 && v < hi + 1e-9);
        }
    }

    #[test]
    fn coarsen_aligns_with_low_bins() {
        let low = Binner::fixed_width(0.0, 10.0, 10);
        let high = low.coarsen(3); // groups: [0..3), [3..6), [6..9), [9..10)
        assert_eq!(high.nbins(), 4);
        for i in 0..1000 {
            let v = i as f64 * 0.01;
            let lo_bin = low.bin_of(v) as usize;
            let hi_bin = high.bin_of(v) as usize;
            assert_eq!(hi_bin, lo_bin / 3, "v={v}");
        }
    }

    #[test]
    fn coarsen_group_one_is_identityish() {
        let low = Binner::fixed_width(0.0, 1.0, 7);
        let high = low.coarsen(1);
        assert_eq!(high.nbins(), 7);
        for i in 0..100 {
            let v = i as f64 * 0.01;
            assert_eq!(low.bin_of(v), high.bin_of(v));
        }
    }

    #[test]
    fn coarsen_of_edges() {
        let low = Binner::from_edges(vec![0.0, 1.0, 2.0, 3.0, 4.0, 5.0]);
        let high = low.coarsen(2);
        assert_eq!(high.nbins(), 3);
        assert_eq!(high.bin_range(0), (0.0, 2.0));
        assert_eq!(high.bin_range(2), (4.0, 5.0));
    }

    #[test]
    #[should_panic(expected = "max must exceed min")]
    fn rejects_empty_range() {
        let _ = Binner::fixed_width(1.0, 1.0, 4);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn rejects_bad_edges() {
        let _ = Binner::from_edges(vec![0.0, 0.0, 1.0]);
    }

    #[test]
    fn max_bins_is_the_largest_binning() {
        let top = Binner::MAX_BINS;
        assert_eq!(Binner::fixed_width(0.0, 1.0, top).nbins(), top);
        assert_eq!(Binner::distinct_ints(-1, top as i64 - 2).nbins(), top);
        assert_eq!(Binner::precision(0.0, (top - 1) as f64, 0).nbins(), top);
        let edges: Vec<f64> = (0..=top).map(|e| e as f64).collect();
        assert_eq!(Binner::from_edges(edges).nbins(), top);
    }

    /// `10^-400` is 0: the bin count is infinite, not `usize::MAX + 1`.
    #[test]
    #[should_panic(expected = "a binning holds")]
    fn precision_below_the_smallest_width_panics() {
        let _ = Binner::precision(0.0, 1.0, 400);
    }

    /// `i64::MAX - i64::MIN` overflows `i64`: no zero-bin binner.
    #[test]
    #[should_panic(expected = "a binning holds")]
    fn distinct_ints_over_every_i64_panics() {
        let _ = Binner::distinct_ints(i64::MIN, i64::MAX);
    }

    #[test]
    #[should_panic(expected = "a binning holds")]
    fn fixed_width_one_past_the_cap_panics() {
        let _ = Binner::fixed_width(0.0, 1.0, Binner::MAX_BINS + 1);
    }

    #[test]
    #[should_panic(expected = "a binning holds")]
    fn from_edges_one_past_the_cap_panics() {
        let _ = Binner::from_edges((0..=Binner::MAX_BINS + 1).map(|e| e as f64).collect());
    }

    #[test]
    #[should_panic(expected = "a binning holds")]
    fn precision_one_past_the_cap_panics() {
        let _ = Binner::precision(0.0, Binner::MAX_BINS as f64, 0);
    }

    #[test]
    fn spec_round_trips_exactly() {
        let binners = [
            Binner::fixed_width(-3.0, 7.0, 12),
            Binner::precision(0.0, 5.0, 1),
            Binner::distinct_ints(-2, 9),
            Binner::from_edges(vec![0.0, 0.5, 2.0, 9.0]),
            Binner::fixed_width(0.0, 1.0, 5).coarsen(2),
        ];
        for b in binners {
            let back = Binner::from_spec(b.spec());
            assert_eq!(back, b, "round trip must be exact, not just equivalent");
        }
    }

    #[test]
    #[should_panic(expected = "invalid width spec")]
    fn from_spec_rejects_garbage() {
        let _ = Binner::from_spec(BinnerSpec::Width {
            min: 0.0,
            width: 0.0,
            nbins: 3,
        });
    }

    #[test]
    fn anchored_precision_shares_a_lattice() {
        let a: Vec<f64> = (0..100).map(|i| 3.17 + i as f64 * 0.05).collect();
        let b: Vec<f64> = (0..100).map(|i| 7.62 + i as f64 * 0.02).collect();
        let ba = Binner::fit_precision_anchored(&a, 1);
        let bb = Binner::fit_precision_anchored(&b, 1);
        let off = ba.alignment_offset(&bb).expect("same lattice");
        // a value covered by both binners must land in corresponding bins
        // (values on exact bin edges may round into either adjacent cell —
        // see alignment_offset's doc — so probe interior values)
        for v in [7.63, 7.94, 8.11] {
            let ja = ba.bin_of(v) as i64;
            let jb = bb.bin_of(v) as i64;
            assert_eq!(ja, jb + off, "v={v}");
        }
    }

    #[test]
    fn alignment_offset_cases() {
        let base = Binner::fixed_width(0.0, 10.0, 10); // width 1, min 0
        let shifted = Binner::fixed_width(3.0, 8.0, 5); // width 1, min 3
        assert_eq!(base.alignment_offset(&shifted), Some(3));
        assert_eq!(shifted.alignment_offset(&base), Some(-3));
        assert_eq!(base.alignment_offset(&base), Some(0));
        // different width: no lattice
        let other = Binner::fixed_width(0.0, 10.0, 20);
        assert_eq!(base.alignment_offset(&other), None);
        // fractional shift: no lattice
        let frac = Binner::fixed_width(0.5, 10.5, 10);
        assert_eq!(base.alignment_offset(&frac), None);
        // edge binners align only when identical
        let e = Binner::from_edges(vec![0.0, 1.0, 10.0]);
        assert_eq!(e.alignment_offset(&e.clone()), Some(0));
        assert_eq!(e.alignment_offset(&base), None);
    }

    #[test]
    fn bin_all_matches_bin_of() {
        let b = Binner::fixed_width(0.0, 1.0, 4);
        let data = [0.1, 0.3, 0.6, 0.9];
        assert_eq!(b.bin_all(&data), vec![0, 1, 2, 3]);
    }

    /// The branchless kernel clamps in `f64` before its cast; it must agree
    /// with `bin_of` on signed zeros, subnormals, every bin edge, quotients
    /// past 2^32 and 2^64 (a width of 1e-300), and the widest binning.
    #[test]
    fn the_binning_kernel_matches_bin_of_on_hostile_values() {
        let narrow = |nbins| {
            Binner::from_spec(BinnerSpec::Width {
                min: -1e-298,
                width: 1e-300,
                nbins,
            })
        };
        let binners = [
            Binner::fixed_width(-100.0, 100.0, 37),
            Binner::fixed_width(0.0, 1.0, Binner::MAX_BINS),
            narrow(3),
            narrow(Binner::MAX_BINS),
        ];
        for b in &binners {
            let (lo, hi) = b.bin_range(0);
            let w = hi - lo;
            let mut data = vec![0.0, -0.0, 5e-324, -5e-324, f64::MIN_POSITIVE / 2.0];
            data.extend((0..b.nbins()).map(|k| b.bin_range(k).0));
            data.push(b.bin_range(b.nbins() - 1).1);
            for q in [2f64.powi(32), 2f64.powi(32) + 1.0, 2f64.powi(64), 1e300] {
                data.extend([lo + q * w, lo - q * w, q, -q]);
            }
            data.extend([1.0, -1.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY]);
            let want: Vec<u32> = data.iter().map(|&v| b.bin_of(v)).collect();
            assert_eq!(b.bin_all(&data), want, "{b:?}");
        }
        // quotients past 2^32 clamp to the top bin, far below to bin 0, and
        // a signed zero or a subnormal bins as 0.0 does
        let b = narrow(Binner::MAX_BINS);
        let (top, zero) = (Binner::MAX_BINS as u32 - 1, b.bin_of(0.0));
        let ids = b.bin_all(&[1.0, 1e-290, -1.0, -0.0, 5e-324]);
        assert_eq!(ids, [top, top, 0, zero, zero]);
    }
}
