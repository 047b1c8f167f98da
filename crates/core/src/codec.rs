//! The two bitmap codecs a bin can be stored in — WAH ([`WahVec`]) and
//! Roaring ([`RoaringVec`]) — plus the per-bin selection policy the index
//! uses to pick between them.
//!
//! [`CodecVec`] is a bin in whichever codec it is stored in: a closed
//! two-variant enum, because the codec set is part of the on-disk blob
//! format (each codec owns a stable wire tag via [`CodecId`]), so a new
//! codec is a format revision, not an extension point. WAH is the working
//! form: every materialised set operation runs on it, and a Roaring bin
//! converts to it exactly. A stored Roaring bin is only ever read — counted,
//! intersected by cardinality ([`CodecVec::and_count`], in `ops.rs`),
//! probed over row ranges, walked for labels, ORed into a dense
//! accumulator — never combined into a new Roaring vector.
//!
//! [`select_codec`] is the policy: a pure function of a bin's
//! [`WahStats`] (counted from a Roaring vector's runs), applied where a bin
//! is made — at finish by the index builder, so a Roaring-bound bin never
//! exists as WAH, and per slice by `slice_rows`; the store writes each bin
//! as it is held. Coherent bins (long mean fill runs that WAH actually
//! compresses) stay WAH; scattered sparse bins and dense noise — where WAH
//! degenerates to one literal word per 31 bits — go to Roaring, whose
//! array/bitset containers are exactly the forms those populations want.

use crate::kernels::WahStats;
use crate::roaring::RoaringVec;
use crate::wah::WahVec;
use ibis_obs::LazyCounter;
use std::ops::Range;

// Selection tallies: how many bins the policy routed to each codec.
// Const-folded to no-ops when ibis-obs is built without its `obs` feature.
static OBS_SELECT_WAH: LazyCounter = LazyCounter::new("codec.select.wah");
static OBS_SELECT_ROARING: LazyCounter = LazyCounter::new("codec.select.roaring");

/// Identity of a bitmap codec — the unit of per-bin selection and the
/// stable wire tag written ahead of each bin of a v2 index payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CodecId {
    /// 31-bit word-aligned hybrid run-length code (the paper's codec).
    Wah,
    /// Roaring-style 64Ki containers (array / bitset / runs).
    Roaring,
}

impl CodecId {
    /// The stable on-disk tag (v2 index payload). Tag 1 belonged to a
    /// byte-aligned codec no writer ever selected; it stays unassigned so
    /// Roaring payload bytes do not move.
    pub fn tag(self) -> u8 {
        match self {
            CodecId::Wah => 0,
            CodecId::Roaring => 2,
        }
    }

    /// Inverse of [`CodecId::tag`]; `None` for unknown tags.
    pub fn from_tag(tag: u8) -> Option<CodecId> {
        match tag {
            0 => Some(CodecId::Wah),
            2 => Some(CodecId::Roaring),
            _ => None,
        }
    }

    /// Human-readable name (bench reports, fsck messages).
    pub fn name(self) -> &'static str {
        match self {
            CodecId::Wah => "wah",
            CodecId::Roaring => "roaring",
        }
    }
}

/// Mean fill-run length below which WAH stops compressing well enough to
/// beat containers: a 64-bit mean run still gives WAH ~2× compression, but
/// the adaptive kernels' literal path starts dominating op time.
const WAH_MIN_MEAN_RUN: u64 = 64;
/// Compression ratio (WAH payload bits / logical bits) above which the
/// vector is literal-heavy and container forms win.
const WAH_MAX_COMPRESSION: f64 = 0.5;

/// Picks the codec for one bin from its cached [`WahStats`] — the per-bin
/// auto-selection policy:
///
/// * empty / all-zero bins stay **WAH** (two words, nothing to win);
/// * bins whose mean 1-run length is at least 64 bits *and* whose WAH
///   encoding compresses to at most half of the logical bits stay
///   **WAH** — coherent data is WAH's home turf;
/// * everything else — scattered sparse bins (low-occupancy outer bins →
///   array containers) and dense noise (middle bins → bitset containers) —
///   goes to **Roaring**.
pub fn select_codec(stats: &WahStats, len_bits: u64) -> CodecId {
    let id = codec_for(stats, len_bits);
    match id {
        CodecId::Wah => OBS_SELECT_WAH.inc(),
        CodecId::Roaring => OBS_SELECT_ROARING.inc(),
    }
    id
}

/// [`select_codec`]'s policy without its tally — for costing a bin the
/// caller is not routing (the index's planner cost table).
pub(crate) fn codec_for(stats: &WahStats, len_bits: u64) -> CodecId {
    if len_bits == 0 || stats.ones == 0 {
        return CodecId::Wah;
    }
    let compression = stats.words as f64 * 31.0 / len_bits as f64;
    if stats.mean_run_bits() >= WAH_MIN_MEAN_RUN && compression <= WAH_MAX_COMPRESSION {
        CodecId::Wah
    } else {
        CodecId::Roaring
    }
}

impl WahVec {
    /// Estimated at-rest cost in bytes under the codec [`select_codec`]
    /// picks for this vector, from its cached stats — the query planner's
    /// cost unit. A WAH vector costs its word payload; a Roaring one is
    /// estimated (container overhead plus the cheapest of array / bitset /
    /// run forms) without materializing the conversion.
    pub fn at_rest_bytes(&self) -> u64 {
        let s = self.stats();
        match codec_for(s, self.len()) {
            CodecId::Wah => 4 * s.words as u64,
            CodecId::Roaring => {
                let nchunks = self.len().div_ceil(crate::roaring::CONTAINER_BITS).max(1);
                // roughly half of a WAH run count are 1-runs, at 4 bytes
                // per run container interval
                let one_runs = (s.runs as u64).div_ceil(2);
                8 * nchunks + (2 * s.ones).min(8192 * nchunks).min(4 * one_runs)
            }
        }
    }
}

/// A bitvector in whichever codec its bin selected. Its one cross-codec
/// kernel, [`CodecVec::and_count`], lives in `ops.rs`.
#[derive(Debug, Clone)]
pub enum CodecVec {
    /// WAH-coded.
    Wah(WahVec),
    /// Roaring-coded.
    Roaring(RoaringVec),
}

impl CodecVec {
    /// Converts a WAH vector into the codec [`select_codec`] picks from its
    /// cached stats. The conversion is exact.
    pub fn from_wah_auto(v: &WahVec) -> CodecVec {
        Self::with_codec(v, select_codec(v.stats(), v.len()))
    }

    /// This vector in the codec [`select_codec`] picks from its exact
    /// [`CodecVec::wah_stats`]: returned as it is when already in that
    /// codec, converted exactly otherwise. Where a bin's held form is
    /// chosen — once per built bin, once per sliced one.
    pub fn selected(self) -> CodecVec {
        match (select_codec(&self.wah_stats(), self.len()), self) {
            (CodecId::Roaring, CodecVec::Wah(v)) => CodecVec::Roaring(RoaringVec::from_wah(&v)),
            (CodecId::Wah, CodecVec::Roaring(r)) => CodecVec::Wah(r.to_wah()),
            (_, v) => v,
        }
    }

    /// The [`WahStats`] of the vector's canonical WAH form, read off the
    /// form it is in: a Roaring vector counts them from its runs.
    pub fn wah_stats(&self) -> WahStats {
        match self {
            CodecVec::Wah(v) => *v.stats(),
            CodecVec::Roaring(v) => v.wah_stats(),
        }
    }

    /// Converts a WAH vector into an explicitly chosen codec.
    pub fn with_codec(v: &WahVec, id: CodecId) -> CodecVec {
        match id {
            CodecId::Wah => CodecVec::Wah(v.clone()),
            CodecId::Roaring => CodecVec::Roaring(RoaringVec::from_wah(v)),
        }
    }

    /// Which codec this vector is in.
    pub fn id(&self) -> CodecId {
        match self {
            CodecVec::Wah(_) => CodecId::Wah,
            CodecVec::Roaring(_) => CodecId::Roaring,
        }
    }

    /// Number of bits.
    pub fn len(&self) -> u64 {
        match self {
            CodecVec::Wah(v) => v.len(),
            CodecVec::Roaring(v) => v.len(),
        }
    }

    /// `true` when the vector holds zero bits.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> u64 {
        match self {
            CodecVec::Wah(v) => v.count_ones(),
            CodecVec::Roaring(v) => v.count_ones(),
        }
    }

    /// At-rest size in bytes.
    pub fn size_bytes(&self) -> usize {
        match self {
            CodecVec::Wah(v) => v.size_bytes(),
            CodecVec::Roaring(v) => v.size_bytes(),
        }
    }

    /// Number of set bits inside `ranges` (half-open, sorted, disjoint),
    /// counted on the form the vector is in.
    pub fn count_ones_in_ranges(&self, ranges: &[Range<u64>]) -> u64 {
        match self {
            CodecVec::Wah(v) => v.count_ones_in_ranges(ranges),
            CodecVec::Roaring(v) => v.count_ones_in_ranges(ranges),
        }
    }

    /// Exact conversion to canonical WAH (the interchange form).
    pub fn to_wah(&self) -> WahVec {
        match self {
            CodecVec::Wah(v) => v.clone(),
            CodecVec::Roaring(v) => v.to_wah(),
        }
    }

    /// Borrows the WAH payload when this vector is WAH-coded.
    pub fn as_wah(&self) -> Option<&WahVec> {
        match self {
            CodecVec::Wah(v) => Some(v),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wah_of(bits: impl IntoIterator<Item = bool>) -> WahVec {
        WahVec::from_bits(bits)
    }

    #[test]
    fn tags_roundtrip_and_unknown_rejected() {
        for id in [CodecId::Wah, CodecId::Roaring] {
            assert_eq!(CodecId::from_tag(id.tag()), Some(id));
        }
        assert_eq!(CodecId::from_tag(1), None, "the retired BBC tag");
        assert_eq!(CodecId::from_tag(3), None);
        assert_eq!(CodecId::from_tag(0xFF), None);
    }

    #[test]
    fn selection_policy_on_canonical_patterns() {
        let pick = |v: &WahVec| select_codec(v.stats(), v.len());
        // empty / all-zero / all-one: WAH
        assert_eq!(pick(&wah_of(std::iter::empty())), CodecId::Wah);
        assert_eq!(pick(&wah_of((0..100_000).map(|_| false))), CodecId::Wah);
        assert_eq!(pick(&wah_of((0..100_000).map(|_| true))), CodecId::Wah);
        // coherent runs (the sparse_runs bench pattern): WAH
        let runs = wah_of((0..1_000_000usize).map(|i| (i / 310) % 300 == 0));
        assert_eq!(pick(&runs), CodecId::Wah);
        // scattered sparse (sparse_random): Roaring arrays
        let scattered = wah_of((0..1_000_000u32).map(|i| i.wrapping_mul(2_654_435_761) % 100 == 0));
        assert_eq!(pick(&scattered), CodecId::Roaring);
        // dense noise (dense30_random): Roaring bitsets
        let dense = wah_of((0..1_000_000u32).map(|i| i.wrapping_mul(2_654_435_761) % 10 < 3));
        assert_eq!(pick(&dense), CodecId::Roaring);
    }

    #[test]
    fn from_wah_auto_is_exact() {
        for bits in [
            (0..200_000usize)
                .map(|i| (i / 310) % 300 == 0)
                .collect::<Vec<_>>(),
            (0..200_000usize).map(|i| i % 101 == 0).collect(),
            (0..200_000usize).map(|i| i % 3 == 0).collect(),
            Vec::new(),
        ] {
            let w = wah_of(bits.iter().copied());
            let cv = CodecVec::from_wah_auto(&w);
            assert_eq!(cv.len(), w.len());
            assert_eq!(cv.count_ones(), w.count_ones());
            assert_eq!(cv.to_wah(), w);
        }
    }

    #[test]
    fn with_codec_roundtrips_every_codec() {
        let bits: Vec<bool> = (0..70_000).map(|i| i % 7 < 2).collect();
        let w = wah_of(bits.iter().copied());
        for id in [CodecId::Wah, CodecId::Roaring] {
            let cv = CodecVec::with_codec(&w, id);
            assert_eq!(cv.id(), id);
            assert_eq!(cv.to_wah(), w, "{}", id.name());
        }
    }

    #[test]
    fn codec_vec_surface_agrees() {
        let w = wah_of((0..100_000).map(|i| i % 97 == 0));
        let ranges = [0..1, 96..98, 65_000..70_000];
        for id in [CodecId::Wah, CodecId::Roaring] {
            let v = CodecVec::with_codec(&w, id);
            assert_eq!(CodecId::from_tag(v.id().tag()), Some(id));
            assert_eq!(v.len(), w.len());
            assert_eq!(v.count_ones(), w.count_ones());
            assert!(v.size_bytes() > 0);
            assert_eq!(
                v.count_ones_in_ranges(&ranges),
                w.count_ones_in_ranges(&ranges)
            );
            assert_eq!(v.as_wah().is_some(), id == CodecId::Wah);
            assert_eq!(v.to_wah(), w, "{}", id.name());
        }
    }
}
