//! A Roaring-style container bitmap (Chambi et al., *Better bitmap
//! performance with Roaring bitmaps*): the position space is cut into
//! 64Ki-bit chunks and each chunk picks the container form that fits its
//! population —
//!
//! * **Array** — a sorted `u16` list, for chunks with at most
//!   [`ARRAY_MAX`] set bits (2 bytes per set bit);
//! * **Bits** — a packed 1024×`u64` bitset, for dense chunks (8 KiB flat);
//! * **Runs** — sorted `(start, end)` inclusive intervals, for coherent
//!   chunks where a few runs cover everything (4 bytes per run).
//!
//! It is a **read-only stored form**: a vector is made once — by the index
//! builder, which streams each bin's rows into this form directly, by
//! [`RoaringVec::from_wah`] or [`RoaringVec::slice`], or from its verified
//! bytes ([`RoaringVec::deserialize`]) — and never edited or combined into
//! a new vector afterwards. What the system asks of a stored bin is answered
//! where it lies: cardinalities, the [`WahStats`] of its WAH form (counted
//! from its runs), intersection counts per container pair (array×array
//! merge or gallop, array×bitset probes, bitset×bitset `u64` loops), counts
//! and probes over row ranges, each container's set bits in its own form
//! for the label walk ([`Piece`]), an OR into a dense accumulator, and the
//! exact WAH form for whatever needs one.

use crate::kernels::WahStats;
use crate::runs::{Ones, Run, RunIter};
use crate::wah::{WahVec, LITERAL_MASK, MAX_FILL_BITS, SEG_BITS};
use crate::WahBuilder;
use std::ops::Range;

/// Bits covered by one container.
pub const CONTAINER_BITS: u64 = 1 << 16;
/// Words in a bitset container.
const BITS_WORDS: usize = (CONTAINER_BITS / 64) as usize;
/// Maximum cardinality of an array container; a chunk with more set bits
/// is held as a bitset (the classic Roaring 4096 threshold: above it the
/// 8 KiB bitset is smaller than the `u16` list).
pub const ARRAY_MAX: usize = 4096;

/// The storage form a container currently uses (introspection for tests,
/// size accounting, and the shootout bench).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ContainerForm {
    /// Sorted `u16` list.
    Array,
    /// Packed 1024×`u64` bitset.
    Bits,
    /// Sorted inclusive `(start, end)` intervals.
    Runs,
}

/// A stretch of set bits as [`RoaringVec::for_each_piece_in`] reads it
/// off a container, in the container's own form.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Piece {
    /// From a bitset: the set bits (non-zero, LSB-first) of the 31-row
    /// segment starting at row `.0`, a multiple of 31 — a WAH literal.
    Bits(u64, u32),
    /// From an array: one set row.
    Row(u64),
    /// From a run container: every row of `[.0, .1)`.
    Run(u64, u64),
}

#[derive(Debug, Clone)]
enum Container {
    Array(Vec<u16>),
    Bits {
        words: Box<[u64; BITS_WORDS]>,
        ones: u32,
    },
    Runs(Vec<(u16, u16)>),
}

impl Container {
    fn empty() -> Container {
        Container::Array(Vec::new())
    }

    fn ones(&self) -> u64 {
        match self {
            Container::Array(a) => a.len() as u64,
            Container::Bits { ones, .. } => *ones as u64,
            Container::Runs(rs) => rs.iter().map(|&(s, e)| (e - s) as u64 + 1).sum(),
        }
    }

    fn form(&self) -> ContainerForm {
        match self {
            Container::Array(_) => ContainerForm::Array,
            Container::Bits { .. } => ContainerForm::Bits,
            Container::Runs(_) => ContainerForm::Runs,
        }
    }

    fn heap_bytes(&self) -> usize {
        match self {
            Container::Array(a) => a.len() * 2,
            Container::Bits { .. } => BITS_WORDS * 8,
            Container::Runs(rs) => rs.len() * 4,
        }
    }

    fn get(&self, lo: u16) -> bool {
        match self {
            Container::Array(a) => a.binary_search(&lo).is_ok(),
            Container::Bits { words, .. } => words[lo as usize >> 6] >> (lo & 63) & 1 != 0,
            Container::Runs(rs) => match rs.binary_search_by(|&(s, _)| s.cmp(&lo)) {
                Ok(_) => true,
                Err(i) => i > 0 && rs[i - 1].1 >= lo,
            },
        }
    }

    /// Visits the container's set bits as maximal inclusive runs, in order.
    fn for_each_run(&self, mut f: impl FnMut(u16, u16)) {
        match self {
            Container::Array(a) => {
                let mut i = 0;
                while i < a.len() {
                    let start = a[i];
                    let mut end = start;
                    while i + 1 < a.len() && a[i + 1] == end + 1 {
                        i += 1;
                        end = a[i];
                    }
                    f(start, end);
                    i += 1;
                }
            }
            Container::Bits { words, .. } => for_each_bits_run(words.as_ref(), &mut f),
            Container::Runs(rs) => {
                for &(s, e) in rs {
                    f(s, e);
                }
            }
        }
    }

    /// Visits the set bits inside `[lo, hi]` of the chunk starting at row
    /// `base`, in order, as [`Piece`]s of the container's form.
    #[inline]
    fn for_each_piece(&self, base: u64, lo: u16, hi: u16, f: &mut impl FnMut(Piece)) {
        match self {
            Container::Array(a) => {
                let from = a.partition_point(|&v| v < lo);
                for &v in &a[from..a.partition_point(|&v| v <= hi)] {
                    f(Piece::Row(base + v as u64));
                }
            }
            Container::Bits { words, .. } => {
                let (first, last) = (base + lo as u64, base + hi as u64);
                for k in first / SEG_BITS..=last / SEG_BITS {
                    let at = k * SEG_BITS;
                    let mut bits = segment_at(&words[..], at as i64 - base as i64);
                    if at < first {
                        bits &= LITERAL_MASK << (first - at);
                    }
                    if last - at < SEG_BITS - 1 {
                        bits &= LITERAL_MASK >> (SEG_BITS - 1 - (last - at));
                    }
                    if bits != 0 {
                        f(Piece::Bits(at, bits));
                    }
                }
            }
            Container::Runs(rs) => {
                for &(s, e) in runs_meeting(rs, lo, hi) {
                    f(Piece::Run(
                        base + s.max(lo) as u64,
                        base + e.min(hi) as u64 + 1,
                    ));
                }
            }
        }
    }

    /// Set bits inside `[lo, hi]`.
    fn ones_in(&self, lo: u16, hi: u16) -> u64 {
        match self {
            _ if (lo, hi) == (0, u16::MAX) => self.ones(),
            Container::Array(a) => {
                (a.partition_point(|&v| v <= hi) - a.partition_point(|&v| v < lo)) as u64
            }
            Container::Bits { words, .. } => count_range(words.as_ref(), lo, hi),
            Container::Runs(rs) => runs_meeting(rs, lo, hi)
                .map(|&(s, e)| (e.min(hi) - s.max(lo)) as u64 + 1)
                .sum(),
        }
    }
}

/// Sets inclusive bit range `[s, e]` in a packed word buffer.
fn set_bits_range(words: &mut [u64], s: u16, e: u16) {
    let (s, e) = (s as usize, e as usize);
    let (ws, we) = (s >> 6, e >> 6);
    let head = !0u64 << (s & 63);
    let tail = !0u64 >> (63 - (e & 63));
    if ws == we {
        words[ws] |= head & tail;
    } else {
        words[ws] |= head;
        for w in &mut words[ws + 1..we] {
            *w = !0;
        }
        words[we] |= tail;
    }
}

/// The intervals of a run container that meet `[lo, hi]`, unclipped.
fn runs_meeting(rs: &[(u16, u16)], lo: u16, hi: u16) -> impl Iterator<Item = &(u16, u16)> {
    let from = rs.partition_point(|&(_, e)| e < lo);
    rs[from..].iter().take_while(move |&&(s, _)| s <= hi)
}

/// The 31 bits of a packed word buffer from bit `p` on, LSB-first: one
/// shift of two words. Bits before the buffer (`p` down to −31) or past
/// its end read 0.
#[inline]
fn segment_at(words: &[u64], p: i64) -> u32 {
    // word −1 wraps to an index past the end: both edges read as 0
    let word = |i: i64| words.get(i as usize).map_or(0, |&w| w as u128);
    let pair = word((p >> 6) + 1) << 64 | word(p >> 6);
    (pair >> (p & 63)) as u32 & LITERAL_MASK
}

/// Visits the maximal 1-runs of a packed word buffer.
fn for_each_bits_run(words: &[u64], f: &mut impl FnMut(u16, u16)) {
    let mut open: Option<u32> = None;
    for (wi, &w) in words.iter().enumerate() {
        let base = (wi * 64) as u32;
        let mut bit = 0u32;
        while bit < 64 {
            match open {
                None => {
                    let ones = w >> bit;
                    if ones == 0 {
                        break;
                    }
                    bit += ones.trailing_zeros();
                    open = Some(base + bit);
                }
                Some(start) => {
                    let zeros = (!w) >> bit;
                    if zeros == 0 {
                        break; // run continues into the next word
                    }
                    bit += zeros.trailing_zeros();
                    f(start as u16, (base + bit - 1) as u16);
                    open = None;
                }
            }
        }
    }
    if let Some(start) = open {
        f(start as u16, (words.len() * 64 - 1) as u16);
    }
}

/// `true` when `nruns` intervals are the smallest form of a chunk with
/// `ones` set bits: smaller than both the `u16` list and the bitset.
fn runs_win(nruns: usize, ones: usize) -> bool {
    4 * nruns < 2 * ones && 4 * nruns < BITS_WORDS * 8
}

/// The canonical container of one chunk whose set bits are `rows`
/// (ascending) and `runs` (ascending, disjoint inclusive intervals): runs
/// when strictly smaller than both other forms, else the array up to
/// [`ARRAY_MAX`] bits, else the bitset — the form every writer of a stored
/// bin gives a chunk, so equal bits are equal bytes. A chunk of rows alone
/// that stays a list (the noisy-field case) is copied, never re-walked.
fn canonical(rows: &[u16], runs: &[(u16, u16)]) -> Container {
    if runs.is_empty() {
        let nruns = 1 + rows.windows(2).filter(|w| w[1] != w[0] + 1).count();
        if !runs_win(nruns, rows.len()) && rows.len() <= ARRAY_MAX {
            return Container::Array(rows.to_vec());
        }
    }
    // the union as maximal intervals, merged in one pass
    let mut merged: Vec<(u16, u16)> = Vec::with_capacity(rows.len() + runs.len());
    let (mut rows, mut runs) = (rows.iter().peekable(), runs.iter().peekable());
    while let Some(next) = match (rows.peek(), runs.peek()) {
        (Some(&&r), Some(&&(s, _))) if r < s => rows.next().map(|&r| (r, r)),
        (_, Some(_)) => runs.next().copied(),
        _ => rows.next().map(|&r| (r, r)),
    } {
        match merged.last_mut() {
            Some(last) if last.1 as u32 + 1 == next.0 as u32 => last.1 = next.1,
            _ => merged.push(next),
        }
    }
    let ones: usize = merged.iter().map(|&(s, e)| (e - s) as usize + 1).sum();
    if runs_win(merged.len(), ones) {
        Container::Runs(merged)
    } else if ones <= ARRAY_MAX {
        Container::Array(merged.iter().flat_map(|&(s, e)| s..=e).collect())
    } else {
        let mut words = Box::new([0u64; BITS_WORDS]);
        for &(s, e) in &merged {
            set_bits_range(&mut words[..], s, e);
        }
        Container::Bits {
            words,
            ones: ones as u32,
        }
    }
}

/// The canonical container of `pieces` — one chunk's disjoint parts, in
/// row order — leaving `pieces` empty. A lone non-empty piece is moved.
fn union(pieces: &mut Vec<Container>) -> Container {
    pieces.retain(|c| c.ones() > 0);
    if pieces.len() <= 1 {
        return pieces.pop().unwrap_or_else(Container::empty);
    }
    let (mut rows, mut runs) = (Vec::new(), Vec::new());
    for c in pieces.drain(..) {
        match c {
            Container::Array(a) => rows.extend(a),
            c => c.for_each_run(|s, e| runs.push((s, e))),
        }
    }
    canonical(&rows, &runs)
}

/// Streams ascending set rows and runs into canonical containers, one 64Ki
/// chunk at a time: a chunk's rows land in a `u16` list (one store per row
/// — the array container itself), its runs in an interval list, and the
/// chunk is sealed into its [`canonical`] form once the stream leaves it.
/// The index builder keeps one per bin; [`RoaringVec::from_wah`],
/// [`RoaringVec::slice`] and [`RoaringVec::from_bits`] feed one too.
#[derive(Debug, Default)]
pub(crate) struct RoaringWriter {
    containers: Vec<Container>,
    /// The chunk `rows` and `runs` lie in.
    chunk: u64,
    rows: Vec<u16>,
    runs: Vec<(u16, u16)>,
}

impl RoaringWriter {
    /// Sets row `row`, past every row set so far.
    #[inline]
    pub(crate) fn push_row(&mut self, row: u64) {
        self.enter(row / CONTAINER_BITS);
        self.rows.push(row as u16);
    }

    /// Sets rows `start..end`, past every row set so far.
    pub(crate) fn push_run(&mut self, mut start: u64, end: u64) {
        if end == start + 1 {
            return self.push_row(start);
        }
        while start < end {
            self.enter(start / CONTAINER_BITS);
            let stop = end.min((self.chunk + 1) * CONTAINER_BITS);
            let (s, e) = (start as u16, (stop - 1) as u16);
            match self.runs.last_mut() {
                Some(last) if last.1 as u32 + 1 == s as u32 => last.1 = e,
                _ => self.runs.push((s, e)),
            }
            start = stop;
        }
    }

    /// Moves the stream to `chunk`, sealing the pending one if it differs.
    #[inline]
    pub(crate) fn enter(&mut self, chunk: u64) {
        if chunk != self.chunk {
            self.seal();
            self.chunk = chunk;
        }
    }

    /// Closes the pending chunk into its container (nothing when it holds
    /// no row); chunks skipped since the last one are empty containers.
    fn seal(&mut self) {
        if self.rows.is_empty() && self.runs.is_empty() {
            return;
        }
        self.containers
            .resize_with(self.chunk as usize, Container::empty);
        self.containers.push(canonical(&self.rows, &self.runs));
        self.rows.clear();
        self.runs.clear();
    }

    /// The vector of `len` rows holding everything pushed, the writer left
    /// empty (its row and run buffers keep their capacity).
    pub(crate) fn finish(&mut self, len: u64) -> RoaringVec {
        self.seal();
        let mut containers = std::mem::take(&mut self.containers);
        containers.resize_with(len.div_ceil(CONTAINER_BITS) as usize, Container::empty);
        RoaringVec {
            containers,
            len_bits: len,
        }
    }

    /// Drops everything pushed.
    pub(crate) fn clear(&mut self) {
        self.containers.clear();
        self.rows.clear();
        self.runs.clear();
    }
}

/// Counts the words, runs and ones of the canonical WAH form of a bit
/// sequence fed as ascending, disjoint 1-runs, without making the words —
/// what `compute_stats` reads off those words: 31-bit segments, all-0 and
/// all-1 segments merged into fills (split at [`MAX_FILL_BITS`]), every
/// other segment and a partial tail one literal word each. Segments before
/// `seg` are counted; `pop` bits of segment `seg` are set so far.
#[derive(Default)]
struct WahCount {
    words: usize,
    runs: usize,
    ones: u64,
    seg: u64,
    pop: u64,
    /// The last word counted, when it is a fill: its bit and its bits.
    fill: Option<(bool, u64)>,
    /// Whether the last word counted is a literal.
    literal: bool,
}

impl WahCount {
    /// Rows `start..end` are set.
    fn ones(&mut self, mut start: u64, end: u64) {
        while start < end {
            let k = start / SEG_BITS;
            if k > self.seg {
                self.advance(k);
            }
            let seg_end = (k + 1) * SEG_BITS;
            if start == k * SEG_BITS && end >= seg_end {
                let n = (end - start) / SEG_BITS;
                self.fill(true, n);
                self.seg += n;
                start += n * SEG_BITS;
            } else {
                let stop = end.min(seg_end);
                self.pop += stop - start;
                start = stop;
            }
        }
    }

    /// The rows `base + v` of a list container are set. A list's rows
    /// are scattered: unless some segment fills, each pair of neighbours
    /// adds independently — every segment entered closes the one before as
    /// a literal word, every gap before one is a 0-fill word — so the sums
    /// vectorize where a row-by-row count would branch on every row.
    fn list(&mut self, base: u64, a: &[u16]) {
        let (kb, r) = (base / SEG_BITS, (base % SEG_BITS) as u32);
        let seg = |v: u16| kb + ((r + v as u32) / SEG_BITS as u32) as u64;
        let (Some(&first), Some(&end)) = (a.first(), a.last()) else {
            return;
        };
        let (k0, last) = (seg(first), seg(end));
        let head = a.iter().take_while(|&&v| seg(v) == k0).count() as u64;
        let fills = k0 == self.seg && self.pop + head >= SEG_BITS;
        if fills || a.windows(31).any(|w| w[30] - w[0] == 30) {
            return a
                .iter()
                .for_each(|&v| self.ones(base + v as u64, base + v as u64 + 1));
        }
        if k0 > self.seg {
            self.advance(k0);
        }
        let (mut entered, mut gaps) = (0u64, 0u64);
        for w in a.windows(2) {
            let (p, k) = (seg(w[0]), seg(w[1]));
            entered += (k != p) as u64;
            gaps += (k > p + 1) as u64;
        }
        let tail = a.iter().rev().take_while(|&&v| seg(v) == last).count();
        if entered == 0 {
            self.pop += tail as u64;
            return;
        }
        let last_gap = seg(a[a.len() - tail - 1]).abs_diff(last) - 1;
        self.words += (entered + gaps) as usize;
        self.runs += !self.literal as usize + (2 * gaps - (last_gap > 0) as u64) as usize;
        self.ones += self.pop + (a.len() - tail) as u64;
        (self.seg, self.pop) = (last, tail as u64);
        self.literal = last_gap == 0;
        self.fill = (last_gap > 0).then_some((false, last_gap * SEG_BITS));
    }

    /// Counts the open segment, then 0-fills up to segment `k`.
    fn advance(&mut self, k: u64) {
        if self.pop > 0 {
            match std::mem::take(&mut self.pop) {
                SEG_BITS => self.fill(true, 1),
                pop => self.literal(pop),
            }
            self.seg += 1;
        }
        if k > self.seg {
            self.fill(false, k - self.seg);
            self.seg = k;
        }
    }

    fn literal(&mut self, pop: u64) {
        self.words += 1;
        self.runs += !self.literal as usize;
        self.literal = true;
        self.fill = None;
        self.ones += pop;
    }

    fn fill(&mut self, bit: bool, segs: u64) {
        let mut bits = segs * SEG_BITS;
        self.ones += if bit { bits } else { 0 };
        if let Some((b, have)) = &mut self.fill {
            if *b == bit {
                let take = bits.min(MAX_FILL_BITS - *have);
                *have += take;
                bits -= take;
            }
        }
        while bits > 0 {
            let take = bits.min(MAX_FILL_BITS);
            self.words += 1;
            self.runs += 1;
            self.fill = Some((bit, take));
            self.literal = false;
            bits -= take;
        }
    }

    /// The stats of the whole `len`-bit sequence.
    fn finish(mut self, len: u64) -> WahStats {
        let (full, tail) = (len / SEG_BITS, len % SEG_BITS);
        if self.seg < full {
            self.advance(full);
        }
        if tail > 0 {
            let pop = self.pop;
            self.literal(pop);
        }
        WahStats {
            words: self.words,
            runs: self.runs,
            ones: self.ones,
            density: if len == 0 {
                0.0
            } else {
                self.ones as f64 / len as f64
            },
        }
    }
}

/// A Roaring-style compressed bitvector over a dense position domain
/// (positions `0..len`, one container per 64Ki chunk), read-only once
/// made.
///
/// ```
/// use ibis_core::{RoaringVec, WahVec};
///
/// let w = WahVec::from_bits((0..100_000u64).map(|i| i % 97 == 0));
/// let v = RoaringVec::from_wah(&w);
/// assert_eq!(v.count_ones(), 1031);
/// assert!(v.get(97) && !v.get(1));
/// assert_eq!(v.to_wah(), w);
/// ```
#[derive(Debug, Clone, Default)]
pub struct RoaringVec {
    containers: Vec<Container>,
    len_bits: u64,
}

impl RoaringVec {
    /// Builds from an iterator of bits.
    pub fn from_bits<I: IntoIterator<Item = bool>>(bits: I) -> Self {
        let mut w = RoaringWriter::default();
        let mut len = 0;
        for bit in bits {
            if bit {
                w.push_row(len);
            }
            len += 1;
        }
        w.finish(len)
    }

    /// Converts from WAH in O(compressed runs + set literal bits): 1-fills
    /// become runs, literals scatter their set bits.
    pub fn from_wah(v: &WahVec) -> Self {
        let mut w = RoaringWriter::default();
        let mut pos = 0u64;
        for run in RunIter::new(v.words(), v.len()) {
            match run {
                Run::Fill(true, n) => w.push_run(pos, pos + n),
                Run::Fill(false, _) => {}
                Run::Literal(mut payload, _) => {
                    while payload != 0 {
                        w.push_row(pos + payload.trailing_zeros() as u64);
                        payload &= payload - 1;
                    }
                }
            }
            pos += run.len();
        }
        w.finish(v.len())
    }

    /// `parts` laid end to end, as the parallel build's sub-blocks make
    /// them: part `i` is `len_i` rows long and sets none of the rows before
    /// `len_{i-1}`. A chunk two or more parts reach becomes the canonical
    /// container of their union; every other chunk is moved as it is.
    pub(crate) fn concat(parts: impl IntoIterator<Item = RoaringVec>) -> RoaringVec {
        let mut out = RoaringVec::default();
        let mut seam = Vec::new(); // the pieces of chunk `out.containers.len()`
        for part in parts {
            let (n, open) = (part.containers.len(), part.len_bits % CONTAINER_BITS != 0);
            let skip = out.containers.len();
            for (ci, c) in part.containers.into_iter().enumerate().skip(skip) {
                seam.push(c);
                if ci + 1 < n || !open {
                    out.containers.push(union(&mut seam));
                }
            }
            out.len_bits = part.len_bits;
        }
        if !seam.is_empty() {
            out.containers.push(union(&mut seam));
        }
        out
    }

    /// The half-open `rows` as a vector of their own (row `rows.start`
    /// becoming row 0), re-chunked into canonical containers.
    ///
    /// # Panics
    /// When `rows` is inverted or ends past the vector's length.
    pub fn slice(&self, rows: Range<u64>) -> RoaringVec {
        assert!(rows.start <= rows.end, "range out of bounds");
        let mut w = RoaringWriter::default();
        let at = rows.start;
        self.for_each_piece_in(rows.clone(), |piece| match piece {
            Piece::Bits(base, bits) => Ones::Literal(base, bits).for_each(|r| w.push_row(r - at)),
            Piece::Row(r) => w.push_row(r - at),
            Piece::Run(s, e) => w.push_run(s - at, e - at),
        });
        w.finish(rows.end - at)
    }

    /// The [`WahStats`] of this vector's canonical WAH form, counted from
    /// its runs without making that form — what [`crate::select_codec`]
    /// reads, so a bin held as Roaring is judged exactly as its WAH form
    /// would be. O(runs); a list container's rows are summed branch-free.
    pub fn wah_stats(&self) -> WahStats {
        let mut count = WahCount::default();
        for (ci, c) in self.containers.iter().enumerate() {
            let base = ci as u64 * CONTAINER_BITS;
            match c {
                Container::Array(a) => count.list(base, a),
                _ => c.for_each_run(|s, e| count.ones(base + s as u64, base + e as u64 + 1)),
            }
        }
        count.finish(self.len_bits)
    }

    /// Converts to canonical WAH in O(set-bit runs).
    pub fn to_wah(&self) -> WahVec {
        let mut out = WahBuilder::new();
        let mut pos = 0u64;
        for (ci, c) in self.containers.iter().enumerate() {
            let base = ci as u64 * CONTAINER_BITS;
            c.for_each_run(|s, e| {
                let start = base + s as u64;
                out.append_run(false, start - pos);
                out.append_run(true, (e - s) as u64 + 1);
                pos = base + e as u64 + 1;
            });
        }
        out.append_run(false, self.len_bits - pos);
        out.finish()
    }

    /// Number of bits.
    pub fn len(&self) -> u64 {
        self.len_bits
    }

    /// `true` when the vector holds zero bits.
    pub fn is_empty(&self) -> bool {
        self.len_bits == 0
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> u64 {
        self.containers.iter().map(Container::ones).sum()
    }

    /// Heap + inline size in bytes (the at-rest cost the per-bin codec
    /// selection compares against WAH words).
    pub fn size_bytes(&self) -> usize {
        std::mem::size_of::<RoaringVec>()
            + self
                .containers
                .iter()
                .map(|c| c.heap_bytes() + std::mem::size_of::<Container>())
                .sum::<usize>()
    }

    /// The form of each container, in chunk order (tests/bench
    /// introspection).
    pub fn container_forms(&self) -> Vec<ContainerForm> {
        self.containers.iter().map(Container::form).collect()
    }

    /// Reads bit `i`.
    ///
    /// # Panics
    /// If `i >= len`.
    pub fn get(&self, i: u64) -> bool {
        assert!(i < self.len_bits, "bit {i} out of range {}", self.len_bits);
        self.containers[(i / CONTAINER_BITS) as usize].get((i % CONTAINER_BITS) as u16)
    }

    /// `popcount(self AND other)` without materializing — container-pair
    /// dispatch on the fast kernels (gallop / probe / word loop).
    pub fn and_count(&self, other: &RoaringVec) -> u64 {
        assert_eq!(self.len_bits, other.len_bits, "length mismatch");
        self.containers
            .iter()
            .zip(&other.containers)
            .map(|(a, b)| and_count_pair(a, b))
            .sum()
    }

    /// Visits the set bits inside the half-open `rows` in order, each
    /// container read by its form ([`Piece`]): a bitset by 31-row
    /// segment, an array element by element, a run container by its
    /// intervals clipped to `rows`. Nothing is merged across pieces: a
    /// segment that straddles a container edge comes as two.
    ///
    /// # Panics
    /// Panics when `rows` ends past the vector's length.
    pub fn for_each_piece_in(&self, rows: Range<u64>, mut f: impl FnMut(Piece)) {
        for (base, c, lo, hi) in self.windows(&rows) {
            c.for_each_piece(base, lo, hi, &mut f);
        }
    }

    /// The containers the half-open `rows` reaches: each with its first
    /// bit's position and the inclusive stretch of it inside `rows`.
    fn windows(&self, rows: &Range<u64>) -> impl Iterator<Item = (u64, &Container, u16, u16)> {
        assert!(rows.end <= self.len_bits, "range out of bounds");
        let chunks = match rows.is_empty() {
            true => 0..0,
            false => rows.start / CONTAINER_BITS..(rows.end - 1) / CONTAINER_BITS + 1,
        };
        let (start, end) = (rows.start, rows.end);
        chunks.map(move |ci| {
            let base = ci * CONTAINER_BITS;
            let lo = start.max(base) - base;
            let hi = end.min(base + CONTAINER_BITS) - 1 - base;
            (base, &self.containers[ci as usize], lo as u16, hi as u16)
        })
    }

    /// ORs the set bits into `words`, a packed buffer of the vector's
    /// length (`len.div_ceil(64)` words): a scattered bit is one store, a
    /// bitset container a word-parallel OR — nothing is transcoded.
    pub(crate) fn or_into(&self, words: &mut [u64]) {
        for (c, out) in self.containers.iter().zip(words.chunks_mut(BITS_WORDS)) {
            match c {
                Container::Array(a) => {
                    for &v in a {
                        out[v as usize >> 6] |= 1u64 << (v & 63);
                    }
                }
                Container::Bits { words, .. } => {
                    for (o, w) in out.iter_mut().zip(words.iter()) {
                        *o |= w;
                    }
                }
                Container::Runs(rs) => {
                    for &(s, e) in rs {
                        set_bits_range(out, s, e);
                    }
                }
            }
        }
    }

    /// Number of set bits inside `ranges` — half-open, sorted and
    /// disjoint, as [`WahVec::count_ones_in_ranges`] takes them. Each
    /// range costs a binary search or a word-range popcount per container
    /// it reaches: no pass over the vector, and no WAH form needed.
    ///
    /// # Panics
    /// Panics when a range ends past the vector's length.
    pub fn count_ones_in_ranges(&self, ranges: &[Range<u64>]) -> u64 {
        let windows = ranges.iter().flat_map(|r| self.windows(r));
        windows.map(|(_, c, lo, hi)| c.ones_in(lo, hi)).sum()
    }

    /// Length in bytes of what [`RoaringVec::serialize`] writes.
    pub fn serialized_bytes(&self) -> usize {
        8 + self
            .containers
            .iter()
            .map(|c| 5 + c.heap_bytes())
            .sum::<usize>()
    }

    /// Serializes to the store blob payload format: `len_bits u64 LE`,
    /// then one record per container — form tag `u8`, element count
    /// `u32 LE`, payload (`u16` values, raw `u64` words, or `(u16, u16)`
    /// inclusive intervals, all LE).
    pub fn serialize(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.serialized_bytes());
        self.serialize_into(&mut out);
        out
    }

    /// [`RoaringVec::serialize`], appended to `out`.
    pub fn serialize_into(&self, out: &mut Vec<u8>) {
        out.reserve(self.serialized_bytes());
        out.extend_from_slice(&self.len_bits.to_le_bytes());
        for c in &self.containers {
            let (tag, count) = match c {
                Container::Array(a) => (0u8, a.len() as u32),
                Container::Bits { ones, .. } => (1, *ones),
                Container::Runs(rs) => (2, rs.len() as u32),
            };
            out.push(tag);
            out.extend_from_slice(&count.to_le_bytes());
            match c {
                Container::Array(a) => put_le(out, a, u16::to_le_bytes),
                Container::Bits { words, .. } => put_le(out, &words[..], u64::to_le_bytes),
                Container::Runs(rs) => put_le(out, rs, |(s, e)| {
                    let (s, e) = (s.to_le_bytes(), e.to_le_bytes());
                    [s[0], s[1], e[0], e[1]]
                }),
            }
        }
    }

    /// Inverse of [`RoaringVec::serialize`], total on arbitrary bytes: a
    /// corrupt blob is an error, never a panic. Validates form tags,
    /// container count against the stored length, array sortedness, run
    /// ordering/overlap, and the cached bitset popcount.
    pub fn deserialize(bytes: &[u8]) -> Result<RoaringVec, String> {
        let mut r = bytes;
        // the one bounds-checked cursor: a borrowed field, or what is missing
        let mut take = |n: usize, what: &str| -> Result<&[u8], String> {
            let (head, rest) = r
                .split_at_checked(n)
                .ok_or_else(|| format!("roaring: truncated {what}: need {n}, have {}", r.len()))?;
            r = rest;
            Ok(head)
        };
        let len_bits = u64::from_le_bytes(take(8, "length")?.try_into().expect("took 8"));
        let nchunks = len_bits.div_ceil(CONTAINER_BITS) as usize;
        // a container is at least its 5-byte header: no stored length can
        // reserve more than the bytes behind it back
        let mut containers = Vec::with_capacity(nchunks.min(bytes.len() / 5));
        for ci in 0..nchunks {
            let tag = take(1, "container tag")?[0];
            let count = u32::from_le_bytes(take(4, "container count")?.try_into().expect("took 4"))
                as usize;
            let limit = if ci + 1 == nchunks && !len_bits.is_multiple_of(CONTAINER_BITS) {
                len_bits % CONTAINER_BITS
            } else {
                CONTAINER_BITS
            };
            containers.push(match tag {
                0 => {
                    let a: Vec<u16> = take(count * 2, "array payload")?
                        .chunks_exact(2)
                        .map(|p| u16::from_le_bytes([p[0], p[1]]))
                        .collect();
                    if !a.windows(2).all(|w| w[0] < w[1]) {
                        return Err(format!("roaring: container {ci} array not sorted"));
                    }
                    if let Some(&last) = a.last() {
                        if last as u64 >= limit {
                            return Err(format!("roaring: container {ci} value past length"));
                        }
                    }
                    Container::Array(a)
                }
                1 => {
                    let raw = take(BITS_WORDS * 8, "bitset payload")?;
                    let mut words = Box::new([0u64; BITS_WORDS]);
                    for (w, p) in words.iter_mut().zip(raw.chunks_exact(8)) {
                        *w = u64::from_le_bytes(p.try_into().expect("chunks_exact(8)"));
                    }
                    let ones: u64 = words.iter().map(|w| w.count_ones() as u64).sum();
                    if ones != count as u64 {
                        return Err(format!(
                            "roaring: container {ci} popcount {ones} != stored {count}"
                        ));
                    }
                    let high = words
                        .iter()
                        .rposition(|&w| w != 0)
                        .map(|wi| wi as u64 * 64 + 63 - words[wi].leading_zeros() as u64);
                    if high.is_some_and(|h| h >= limit) {
                        return Err(format!("roaring: container {ci} bit past length"));
                    }
                    Container::Bits {
                        words,
                        ones: count as u32,
                    }
                }
                2 => {
                    let rs: Vec<(u16, u16)> = take(count * 4, "runs payload")?
                        .chunks_exact(4)
                        .map(|p| {
                            (
                                u16::from_le_bytes([p[0], p[1]]),
                                u16::from_le_bytes([p[2], p[3]]),
                            )
                        })
                        .collect();
                    for (i, &(s, e)) in rs.iter().enumerate() {
                        if s > e {
                            return Err(format!("roaring: container {ci} inverted run"));
                        }
                        if i > 0 && rs[i - 1].1 >= s {
                            return Err(format!("roaring: container {ci} unordered runs"));
                        }
                    }
                    if let Some(&(_, e)) = rs.last() {
                        if e as u64 >= limit {
                            return Err(format!("roaring: container {ci} run past length"));
                        }
                    }
                    Container::Runs(rs)
                }
                t => return Err(format!("roaring: container {ci} unknown form tag {t}")),
            });
        }
        if !r.is_empty() {
            return Err(format!("roaring: {} trailing bytes", r.len()));
        }
        Ok(RoaringVec {
            containers,
            len_bits,
        })
    }
}

/// Appends `vals` as `N`-byte little-endian records — sized once, then
/// filled, which compiles to a block copy where a per-value `extend` does
/// not.
fn put_le<T: Copy, const N: usize>(out: &mut Vec<u8>, vals: &[T], le: impl Fn(T) -> [u8; N]) {
    let at = out.len();
    out.resize(at + vals.len() * N, 0);
    for (dst, &v) in out[at..].chunks_exact_mut(N).zip(vals) {
        dst.copy_from_slice(&le(v));
    }
}

/// Intersection cardinality of one container pair — the per-pair kernel
/// dispatch named in the paper: gallop, probe, or word loop.
fn and_count_pair(a: &Container, b: &Container) -> u64 {
    use Container::*;
    match (a, b) {
        (Array(x), Array(y)) => gallop_intersect_count(x, y),
        (Array(x), Bits { words, .. }) | (Bits { words, .. }, Array(x)) => {
            x.iter()
                .filter(|&&v| words[v as usize >> 6] >> (v & 63) & 1 != 0)
                .count() as u64
        }
        (Bits { words: wa, .. }, Bits { words: wb, .. }) => wa
            .iter()
            .zip(wb.iter())
            .map(|(x, y)| (x & y).count_ones() as u64)
            .sum(),
        (Runs(rs), Runs(qs)) => {
            // two-pointer overlap walk
            let (mut i, mut j, mut total) = (0usize, 0usize, 0u64);
            while i < rs.len() && j < qs.len() {
                let (s1, e1) = rs[i];
                let (s2, e2) = qs[j];
                let lo = s1.max(s2);
                let hi = e1.min(e2);
                if lo <= hi {
                    total += (hi - lo) as u64 + 1;
                }
                if e1 <= e2 {
                    i += 1;
                } else {
                    j += 1;
                }
            }
            total
        }
        // per run, the other side's members inside it: partition points in
        // an array, a word-range popcount in a bitset
        (Runs(rs), c) | (c, Runs(rs)) => rs.iter().map(|&(s, e)| c.ones_in(s, e)).sum(),
    }
}

/// Popcount of inclusive bit range `[s, e]` in a packed word buffer.
fn count_range(words: &[u64], s: u16, e: u16) -> u64 {
    let (s, e) = (s as usize, e as usize);
    let (ws, we) = (s >> 6, e >> 6);
    let head = !0u64 << (s & 63);
    let tail = !0u64 >> (63 - (e & 63));
    if ws == we {
        return (words[ws] & head & tail).count_ones() as u64;
    }
    let mut total = (words[ws] & head).count_ones() as u64 + (words[we] & tail).count_ones() as u64;
    for &w in &words[ws + 1..we] {
        total += w.count_ones() as u64;
    }
    total
}

/// Sorted-list intersection count. When the lists are badly mismatched
/// (16× or more) the short side gallops (exponential probe + binary search)
/// through the long side; comparable sizes run a branchless linear merge.
fn gallop_intersect_count(a: &[u16], b: &[u16]) -> u64 {
    let (short, long) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    if short.is_empty() {
        return 0;
    }
    if long.len() / short.len() >= 16 {
        // gallop: for each short element, exponential probe from a
        // monotone frontier, then binary search the probed window
        let mut total = 0u64;
        let mut base = 0usize;
        for &v in short {
            let mut step = 1usize;
            while base + step < long.len() && long[base + step] < v {
                step *= 2;
            }
            let hi = (base + step + 1).min(long.len());
            match long[base..hi].binary_search(&v) {
                Ok(i) => {
                    total += 1;
                    base += i + 1;
                }
                Err(i) => base += i,
            }
            if base >= long.len() {
                break;
            }
        }
        total
    } else {
        // branchless merge: each step advances the smaller side (both on a
        // match), so the loop carries no data-dependent branch to mispredict
        let (mut i, mut j, mut total) = (0usize, 0usize, 0u64);
        while i < short.len() && j < long.len() {
            let (x, y) = (short[i], long[j]);
            total += (x == y) as u64;
            i += (x <= y) as usize;
            j += (y <= x) as usize;
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn patterns() -> Vec<Vec<bool>> {
        vec![
            vec![],
            vec![true],
            vec![false; 70_000],
            vec![true; 70_000],
            (0..200_000).map(|i| i % 97 == 0).collect(),
            (0..100_000).map(|i| (i / 40) % 2 == 0).collect(),
            (0..65_536).map(|i| (i * 31) % 7 < 3).collect(),
            (0..65_537).map(|i| i >= 65_535).collect(),
        ]
    }

    #[test]
    fn from_bits_roundtrip() {
        for bits in patterns() {
            let v = RoaringVec::from_bits(bits.iter().copied());
            assert_eq!(v.len(), bits.len() as u64);
            assert_eq!(
                v.count_ones(),
                bits.iter().filter(|&&b| b).count() as u64,
                "len {}",
                bits.len()
            );
            for (i, &b) in bits.iter().enumerate() {
                assert_eq!(v.get(i as u64), b, "bit {i} of len {}", bits.len());
            }
        }
    }

    #[test]
    fn wah_conversion_roundtrip_is_exact() {
        for bits in patterns() {
            let w = WahVec::from_bits(bits.iter().copied());
            let r = RoaringVec::from_wah(&w);
            let back = r.to_wah();
            assert_eq!(back, w, "len {}", bits.len());
            back.check_canonical().unwrap();
        }
    }

    #[test]
    fn forms_match_population() {
        // sparse scatter → array; dense noise → bits; coherent → runs
        let sparse = RoaringVec::from_bits((0..65_536u32).map(|i| i % 1000 == 0));
        assert_eq!(sparse.container_forms(), vec![ContainerForm::Array]);
        let dense =
            RoaringVec::from_bits((0..65_536u32).map(|i| i.wrapping_mul(2_654_435_761) % 7 < 3));
        assert_eq!(dense.container_forms(), vec![ContainerForm::Bits]);
        let runs = RoaringVec::from_bits((0..65_536u32).map(|i| i < 30_000));
        assert_eq!(runs.container_forms(), vec![ContainerForm::Runs]);
    }

    #[test]
    fn array_bitset_threshold_updown() {
        // `n` isolated ones (every other bit): too many runs for a run
        // container, so the chunk's cardinality alone picks the form
        let scattered =
            |n: u64| RoaringVec::from_bits((0..CONTAINER_BITS).map(|i| i % 2 == 0 && i / 2 < n));
        let at = scattered(ARRAY_MAX as u64);
        assert_eq!(at.container_forms(), vec![ContainerForm::Array]);
        assert_eq!(at.count_ones(), ARRAY_MAX as u64);
        let over = scattered(ARRAY_MAX as u64 + 1); // the 4097th tips to a bitset
        assert_eq!(over.container_forms(), vec![ContainerForm::Bits]);
        assert_eq!(over.count_ones(), ARRAY_MAX as u64 + 1);
        assert_eq!(at.and_count(&over), ARRAY_MAX as u64);
    }

    #[test]
    fn container_boundary_bit_65535() {
        // The run-emission paths cast bit offsets to u16 (`for_each` tail
        // and in-word run ends); the 65535th bit is the largest value that
        // must survive the cast. Exercise it in every container form.

        // Full container: one run spanning the whole container, tail-emitted.
        let full = RoaringVec::from_bits((0..CONTAINER_BITS).map(|_| true));
        assert_eq!(full.count_ones(), CONTAINER_BITS);
        assert!(full.get(CONTAINER_BITS - 1));
        assert_eq!(full.container_forms(), vec![ContainerForm::Runs]);
        let w = full.to_wah();
        assert_eq!(w.count_ones(), CONTAINER_BITS);
        assert_eq!(RoaringVec::from_wah(&w).to_wah(), w);

        // Run ending exactly at the boundary, on a Bits container (dense
        // noise keeps it from normalizing to Runs), so the conversion goes
        // through for_each_bits_run's open-run tail.
        let bits: Vec<bool> = (0..CONTAINER_BITS)
            .map(|i| i.wrapping_mul(2_654_435_761) % 7 < 3 || i >= CONTAINER_BITS - 100)
            .collect();
        let v = RoaringVec::from_bits(bits.iter().copied());
        assert_eq!(v.container_forms(), vec![ContainerForm::Bits]);
        assert!(v.get(CONTAINER_BITS - 1));
        let w = v.to_wah();
        for (i, &b) in bits.iter().enumerate() {
            assert_eq!(w.get(i as u64), b, "bit {i}");
        }

        // Run ending exactly at the boundary on a Runs container, followed
        // by a second container: the run must not leak across.
        let bits: Vec<bool> = (0..CONTAINER_BITS + 64)
            .map(|i| (60_000..CONTAINER_BITS).contains(&i))
            .collect();
        let v = RoaringVec::from_bits(bits.iter().copied());
        assert_eq!(
            v.container_forms(),
            vec![ContainerForm::Runs, ContainerForm::Array]
        );
        assert!(v.get(CONTAINER_BITS - 1));
        assert!(!v.get(CONTAINER_BITS));
        assert_eq!(v.count_ones(), CONTAINER_BITS - 60_000);
        assert_eq!(RoaringVec::from_wah(&v.to_wah()).to_wah(), v.to_wah());

        // Single set bit at offset 65535 (Array container), and the same
        // through a Bits container forced by mutation.
        let mut bits = vec![false; CONTAINER_BITS as usize];
        bits[CONTAINER_BITS as usize - 1] = true;
        let v = RoaringVec::from_bits(bits.iter().copied());
        assert_eq!(v.container_forms(), vec![ContainerForm::Array]);
        assert_eq!(v.count_ones(), 1);
        assert!(v.get(CONTAINER_BITS - 1));
        let w = v.to_wah();
        assert_eq!(w.count_ones(), 1);
        assert!(w.get(CONTAINER_BITS - 1));

        let dense = RoaringVec::from_bits(
            (0..CONTAINER_BITS).map(|i| i == CONTAINER_BITS - 1 || i.wrapping_mul(97) % 5 < 3),
        );
        assert_eq!(dense.container_forms(), vec![ContainerForm::Bits]);
        assert!(dense.get(CONTAINER_BITS - 1));
        let w = dense.to_wah();
        assert_eq!(RoaringVec::from_wah(&w).to_wah(), w);
    }

    #[test]
    fn ops_match_naive() {
        // every read a stored bin answers, against the plain bits
        let a_bits: Vec<bool> = (0..150_000).map(|i| (i * 7) % 11 < 4).collect();
        let b_bits: Vec<bool> = (0..150_000).map(|i| i % 2 == 0 || i > 100_000).collect();
        let a = RoaringVec::from_bits(a_bits.iter().copied());
        let b = RoaringVec::from_bits(b_bits.iter().copied());
        let both = a_bits.iter().zip(&b_bits).filter(|&(&x, &y)| x && y);
        assert_eq!(a.and_count(&b), both.count() as u64);

        let ranges = [0..1, 65_530..65_540, 70_000..131_072, 149_999..150_000];
        let in_ranges = |bits: &[bool]| -> u64 {
            let rows = ranges.iter().flat_map(|r| r.start as usize..r.end as usize);
            rows.filter(|&i| bits[i]).count() as u64
        };
        assert_eq!(a.count_ones_in_ranges(&ranges), in_ranges(&a_bits));
        assert_eq!(b.count_ones_in_ranges(&ranges), in_ranges(&b_bits));
        assert_eq!(b.count_ones_in_ranges(&[]), 0);

        // windows on and off segment and container edges, each container
        // form: the pieces name every set bit inside, once, in order
        let c_bits: Vec<bool> = (0..a_bits.len())
            .map(|i| if i < 131_072 { a_bits[i] } else { i < 140_000 })
            .collect();
        let c = RoaringVec::from_bits(c_bits.iter().copied());
        assert_eq!(
            c.container_forms()[1..],
            [ContainerForm::Bits, ContainerForm::Runs]
        );
        let scatter: Vec<bool> = (0..150_000).map(|i| i % 97 == 0).collect();
        let sparse = RoaringVec::from_bits(scatter.iter().copied());
        for (v, bits) in [(&a, &a_bits), (&c, &c_bits), (&sparse, &scatter)] {
            for window in [
                0..150_000u64,
                62 * 31..140_000,
                60_001..65_540,
                65_536..65_537,
            ] {
                let mut visited = Vec::new();
                v.for_each_piece_in(window.clone(), |piece| match piece {
                    Piece::Bits(base, bits) => {
                        assert!(base % 31 == 0 && bits != 0 && bits >> 31 == 0);
                        (0..31)
                            .filter(|i| bits >> i & 1 == 1)
                            .for_each(|i| visited.push(base + i));
                    }
                    Piece::Row(r) => visited.push(r),
                    Piece::Run(s, e) => visited.extend(s..e),
                });
                let want: Vec<u64> = window.clone().filter(|&i| bits[i as usize]).collect();
                assert_eq!(visited, want, "pieces in {window:?}");
                let slice = v.slice(window.clone());
                assert_eq!(slice.count_ones(), want.len() as u64);
                assert!(want.iter().all(|&i| slice.get(i - window.start)));
            }
        }

        let mut words = vec![0u64; a_bits.len().div_ceil(64)];
        a.or_into(&mut words);
        b.or_into(&mut words);
        for (i, (&x, &y)) in a_bits.iter().zip(&b_bits).enumerate() {
            assert_eq!(
                words[i >> 6] >> (i & 63) & 1 == 1,
                x || y,
                "dense OR bit {i}"
            );
        }
    }

    #[test]
    fn and_count_covers_all_container_pairs() {
        // one vector per form, all same length, every pairing checked
        let n = 65_536u32;
        let sparse: Vec<bool> = (0..n).map(|i| i % 911 == 0).collect();
        let dense: Vec<bool> = (0..n)
            .map(|i| i.wrapping_mul(2_654_435_761) % 5 < 2)
            .collect();
        let runs: Vec<bool> = (0..n).map(|i| (i / 310) % 3 == 0).collect();
        let all = [sparse, dense, runs];
        for x in &all {
            for y in &all {
                let rx = RoaringVec::from_bits(x.iter().copied());
                let ry = RoaringVec::from_bits(y.iter().copied());
                let want = x.iter().zip(y).filter(|&(&a, &b)| a && b).count() as u64;
                assert_eq!(rx.and_count(&ry), want);
            }
        }
    }

    #[test]
    fn partial_tail_chunk_is_masked() {
        // a final chunk shorter than 64Ki bits: readers stop at the
        // length, and a stored bit at or past it is refused in any form
        let len = 2 * CONTAINER_BITS - 100;
        let forms = [
            (
                ContainerForm::Runs,
                RoaringVec::from_bits((0..len).map(|_| true)),
            ),
            (
                ContainerForm::Bits,
                RoaringVec::from_bits((0..len).map(|i| i % 2 == 1)),
            ),
            (
                ContainerForm::Array,
                RoaringVec::from_bits((0..len).map(|i| i == len - 1)),
            ),
        ];
        for (form, v) in &forms {
            assert_eq!(v.container_forms()[1], *form);
            assert!(v.get(len - 1));
            let want = v.to_wah();
            assert_eq!(want.len(), len);
            let every_row = 0..len;
            let in_range = v.count_ones_in_ranges(std::slice::from_ref(&every_row));
            assert_eq!(in_range, want.count_ones());
            let mut words = vec![0u64; len.div_ceil(64) as usize];
            v.or_into(&mut words);
            let ones: u64 = words.iter().map(|w| w.count_ones() as u64).sum();
            assert_eq!(ones, want.count_ones(), "{form:?}");
            // the same containers under a length one bit shorter
            let mut blob = v.serialize();
            blob[..8].copy_from_slice(&(len - 1).to_le_bytes());
            let err = RoaringVec::deserialize(&blob).unwrap_err();
            assert!(err.contains("past length"), "{form:?}: {err}");
        }
    }

    #[test]
    fn serialize_roundtrip_all_forms() {
        for bits in patterns() {
            let v = RoaringVec::from_bits(bits.iter().copied());
            let blob = v.serialize();
            let back = RoaringVec::deserialize(&blob).unwrap();
            assert_eq!(back.len(), v.len());
            assert_eq!(back.count_ones(), v.count_ones());
            assert_eq!(back.container_forms(), v.container_forms());
            assert_eq!(back.to_wah(), v.to_wah(), "len {}", bits.len());
        }
    }

    #[test]
    fn deserialize_rejects_corruption() {
        let v = RoaringVec::from_bits((0..200_000).map(|i| i % 97 == 0));
        let blob = v.serialize();
        // truncation anywhere must error, not panic
        for cut in [0, 4, 8, 9, 12, blob.len() - 1] {
            assert!(RoaringVec::deserialize(&blob[..cut]).is_err(), "cut {cut}");
        }
        // trailing garbage
        let mut long = blob.clone();
        long.push(0);
        assert!(RoaringVec::deserialize(&long).is_err());
        // unknown form tag
        let mut bad = blob.clone();
        bad[8] = 7;
        assert!(RoaringVec::deserialize(&bad).is_err());
        // unsorted array
        let s = RoaringVec::from_bits((0..100u32).map(|i| i % 9 == 0));
        let mut blob = s.serialize();
        // array payload starts at 8 (len) + 1 (tag) + 4 (count); swap two values
        let (a, b) = (13, 15);
        blob.swap(a, b);
        blob.swap(a + 1, b + 1);
        assert!(RoaringVec::deserialize(&blob).is_err());
        // bit set past the stored length
        let t = RoaringVec::from_bits((0..100).map(|_| true));
        let mut blob = t.serialize();
        let n = blob.len();
        // Runs form: last interval end pushed past limit
        blob[n - 1] = 0xFF;
        blob[n - 2] = 0xFF;
        assert!(RoaringVec::deserialize(&blob).is_err());
    }

    #[test]
    fn wah_stats_of_lists_with_filled_segments() {
        // list containers on the row-by-row path: a 31-row aligned run among
        // scattered rows, and a segment (2114: rows 65534..65565) filled
        // across the container seam by a list's first rows; beside them the
        // summed path's cases — a literal straddling the seam, empty
        // containers, gaps of every length
        let scattered = |i: u64| i.wrapping_mul(2_654_435_761).is_multiple_of(97);
        let cases: [&dyn Fn(u64) -> bool; 4] = [
            &|i| {
                scattered(i) || (3100..3131).contains(&i) || (3000..3200).contains(&i) && i % 2 == 0
            },
            &|i| scattered(i) || (65_534..65_565).contains(&i),
            &|i| scattered(i) || (65_530..65_540).contains(&i),
            &|i| (i < 2000 && scattered(i)) || i == 4 * CONTAINER_BITS + 7,
        ];
        for (n, set) in cases.iter().enumerate() {
            let len = 5 * CONTAINER_BITS - 11;
            let v = RoaringVec::from_bits((0..len).map(set));
            assert!(v
                .container_forms()
                .iter()
                .all(|&f| f == ContainerForm::Array));
            let w = WahVec::from_bits((0..len).map(set));
            assert_eq!(v.wah_stats(), *w.stats(), "case {n}");
        }
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn length_mismatch_panics() {
        let zeros = |n: u64| RoaringVec::from_wah(&WahVec::zeros(n));
        let _ = zeros(10).and_count(&zeros(11));
    }
}
