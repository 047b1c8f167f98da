//! Property-based tests for the WAH bitvector and builders, checked against
//! the uncompressed [`Bitset`] oracle.

use ibis_core::{
    Binner, BitmapIndex, Bitset, MultiLevelIndex, MultiWahBuilder, Ones, WahBuilder, WahVec,
};
use proptest::prelude::*;
use std::ops::Range;

/// Bit patterns biased toward runs (the regime WAH targets) as well as noise.
fn bit_vec() -> impl Strategy<Value = Vec<bool>> {
    prop_oneof![
        // pure noise
        proptest::collection::vec(any::<bool>(), 0..400),
        // run-structured: concatenated (bit, len) runs
        proptest::collection::vec((any::<bool>(), 1usize..120), 0..12).prop_map(|runs| {
            runs.into_iter()
                .flat_map(|(b, n)| std::iter::repeat_n(b, n))
                .collect()
        }),
        // sparse ones
        (1usize..2000, proptest::collection::vec(0usize..2000, 0..10)).prop_map(|(len, ones)| {
            let mut v = vec![false; len];
            for o in ones {
                if o < len {
                    v[o] = true;
                }
            }
            v
        }),
    ]
}

/// The range lists the range-count kernel's edges hide behind, over `n`
/// bits: none, one (whole, empty at either end), `picks` as (gap, length)
/// steps, adjacent thirds, two ranges inside one literal word, ranges
/// starting and ending on and one past a 31-bit edge, one spanning several
/// words, one ending at `len` inside a partial tail, and every other row
/// as a range of its own. Each list is sorted and disjoint.
fn edge_range_lists(n: u64, picks: &[(u64, u64)]) -> Vec<Vec<Range<u64>>> {
    let mut at = 0;
    let stepped = picks.iter().map(|&(gap, len)| {
        let r = at + gap..at + gap + len;
        at = r.end;
        r
    });
    let lists: Vec<Vec<Range<u64>>> = vec![
        vec![],
        vec![0..n],
        vec![0..0],
        vec![n..n],
        stepped.collect(),
        vec![0..n / 3, n / 3..2 * n / 3, 2 * n / 3..n],
        vec![33..35, 36..40],
        vec![30..31, 31..32, 61..62],
        vec![31..62],
        vec![30..63, 93..124],
        vec![0..31, 62..94],
        vec![3..31 * 6 + 2],
        vec![n.saturating_sub(7)..n],
        (0..n).step_by(2).map(|i| i..i + 1).collect(),
    ];
    // clipping to the length keeps a list sorted and disjoint
    let clip = |r: Range<u64>| r.start.min(n)..r.end.min(n);
    lists
        .into_iter()
        .map(|l| l.into_iter().map(clip).collect())
        .collect()
}

fn pair_same_len() -> impl Strategy<Value = (Vec<bool>, Vec<bool>)> {
    (0usize..500).prop_flat_map(|n| {
        (
            proptest::collection::vec(any::<bool>(), n),
            proptest::collection::vec(any::<bool>(), n),
        )
    })
}

proptest! {
    #[test]
    fn roundtrip(bits in bit_vec()) {
        let v = WahVec::from_bits(bits.iter().copied());
        prop_assert_eq!(v.len(), bits.len() as u64);
        prop_assert_eq!(v.to_bools(), bits);
        v.check_canonical().unwrap();
    }

    #[test]
    fn count_ones_matches_oracle(bits in bit_vec()) {
        let v = WahVec::from_bits(bits.iter().copied());
        let oracle = Bitset::from_bits(bits.iter().copied());
        prop_assert_eq!(v.count_ones(), oracle.count_ones());
    }

    #[test]
    fn get_matches_oracle(bits in bit_vec()) {
        let v = WahVec::from_bits(bits.iter().copied());
        for (i, &b) in bits.iter().enumerate() {
            prop_assert_eq!(v.get(i as u64), b);
        }
    }

    #[test]
    fn iter_ones_matches(bits in bit_vec()) {
        let v = WahVec::from_bits(bits.iter().copied());
        let want: Vec<u64> = bits.iter().enumerate()
            .filter_map(|(i, &b)| b.then_some(i as u64)).collect();
        prop_assert_eq!(v.iter_ones().collect::<Vec<_>>(), want);
    }

    #[test]
    fn cursor_windows_concatenate_to_iter_ones(
        bits in bit_vec(),
        cuts in proptest::collection::vec(0u64..80, 0..8),
    ) {
        // every vector twice: as drawn (partial tail word included), and
        // behind a 1-fill that the fixed cuts at 31, 62 and 93 split over
        // four windows
        let mut long = vec![true; 31 * 7];
        long.extend(&bits);
        for bits in [bits, long] {
            let v = WahVec::from_bits(bits.iter().copied());
            // 31-aligned window ends, ascending, then the vector's length
            let mut ends: Vec<u64> = cuts.iter().map(|c| c * 31).filter(|&e| e < v.len()).collect();
            ends.extend([31, 62, 93].iter().filter(|&&e| e < v.len()));
            ends.sort_unstable();
            ends.push(v.len());
            let mut cursor = v.ones_cursor();
            let mut got = Vec::new();
            let mut lo = 0;
            for hi in ends {
                while let Some(run) = cursor.next_before(hi) {
                    match run {
                        Ones::Fill(start, end) => {
                            prop_assert!(lo <= start && start < end && end <= hi, "{:?}", run);
                            prop_assert!(start % 31 == 0 && end % 31 == 0, "{:?}", run);
                        }
                        Ones::Literal(base, payload) => {
                            prop_assert!(lo <= base && base < hi && base % 31 == 0, "{:?}", run);
                            prop_assert!(payload != 0 && payload >> 31 == 0, "{:?}", run);
                        }
                    }
                    run.for_each(|pos| got.push(pos));
                }
                lo = hi;
            }
            prop_assert_eq!(&got, &v.iter_ones().collect::<Vec<_>>());
            // skipping a prefix drops exactly the ones below it
            let lo = v.len() / 62 * 31;
            let mut cursor = v.ones_cursor();
            cursor.skip_to(lo);
            let mut tail = Vec::new();
            while let Some(run) = cursor.next_before(v.len()) {
                run.for_each(|pos| tail.push(pos));
            }
            got.retain(|&pos| pos >= lo);
            prop_assert_eq!(tail, got);
        }
    }

    #[test]
    fn binary_ops_match_oracle((a_bits, b_bits) in pair_same_len()) {
        let a = WahVec::from_bits(a_bits.iter().copied());
        let b = WahVec::from_bits(b_bits.iter().copied());
        let n = a_bits.len();

        let and = a.and(&b);
        let or = a.or(&b);
        for i in 0..n {
            let (x, y) = (a_bits[i], b_bits[i]);
            prop_assert_eq!(and.get(i as u64), x & y);
            prop_assert_eq!(or.get(i as u64), x | y);
        }
        and.check_canonical().unwrap();
        or.check_canonical().unwrap();
        prop_assert_eq!(a.and_count(&b), and.count_ones());
    }

    #[test]
    fn ranged_count_matches_scan(bits in bit_vec(), lo_frac in 0.0f64..1.0, hi_frac in 0.0f64..1.0) {
        let v = WahVec::from_bits(bits.iter().copied());
        let n = bits.len() as u64;
        let (mut lo, mut hi) = ((lo_frac * n as f64) as u64, (hi_frac * n as f64) as u64);
        if lo > hi { std::mem::swap(&mut lo, &mut hi); }
        let want = bits[lo as usize..hi as usize].iter().filter(|&&b| b).count() as u64;
        prop_assert_eq!(v.count_ones_in_range(lo, hi), want);
    }

    #[test]
    fn counts_in_ranges_match_the_verbatim_scan(
        bits in bit_vec(),
        picks in proptest::collection::vec((0u64..300, 0u64..120), 0..8),
    ) {
        // every vector three times: as drawn (partial tail word included),
        // and behind a 1-fill and a 0-fill of several words
        let behind = |bit: bool| [vec![bit; 31 * 5], bits.clone()].concat();
        for bits in [bits.clone(), behind(true), behind(false)] {
            let v = WahVec::from_bits(bits.iter().copied());
            let oracle = Bitset::from_bits(bits.iter().copied());
            for ranges in edge_range_lists(v.len(), &picks) {
                let rows = ranges.iter().flat_map(|r| r.clone());
                let want = rows.filter(|&i| oracle.get(i)).count() as u64;
                prop_assert_eq!(v.count_ones_in_ranges(&ranges), want, "{:?}", &ranges);
                prop_assert_eq!(v.intersects_ranges(&ranges), want > 0, "{:?}", &ranges);
                if let [r] = &ranges[..] {
                    prop_assert_eq!(v.count_ones_in_range(r.start, r.end), want);
                    prop_assert_eq!(v.rank(r.end) - v.rank(r.start), want);
                }
            }
        }
    }

    #[test]
    fn per_unit_counts_sum(bits in bit_vec(), unit in 1u64..100) {
        // consecutive units of `unit` rows, the last one possibly shorter:
        // each counted on its own, and the units together count every row
        let v = WahVec::from_bits(bits.iter().copied());
        let units: Vec<Range<u64>> = (0..v.len()).step_by(unit as usize)
            .map(|lo| lo..(lo + unit).min(v.len()))
            .collect();
        let per: Vec<u64> = units.iter().map(|u| v.count_ones_in_ranges(std::slice::from_ref(u))).collect();
        for (u, &c) in units.iter().zip(&per) {
            prop_assert_eq!(c, bits[u.start as usize..u.end as usize].iter().filter(|&&b| b).count() as u64);
        }
        prop_assert_eq!(per.iter().sum::<u64>(), v.count_ones());
        prop_assert_eq!(v.count_ones_in_ranges(&units), v.count_ones());
    }

    #[test]
    fn concat_roundtrip(a_bits in bit_vec(), b_bits in bit_vec()) {
        // Pad a to a 31-bit boundary as the parallel generator does.
        let mut a_bits = a_bits;
        while !a_bits.len().is_multiple_of(31) { a_bits.push(false); }
        let mut a = WahVec::from_bits(a_bits.iter().copied());
        let b = WahVec::from_bits(b_bits.iter().copied());
        a.concat(&b);
        let want: Vec<bool> = a_bits.into_iter().chain(b_bits).collect();
        prop_assert_eq!(a.to_bools(), want);
        a.check_canonical().unwrap();
    }

    #[test]
    fn builder_append_run_equivalence(runs in proptest::collection::vec((any::<bool>(), 0u64..200), 0..10)) {
        // append_run(bit, n) must equal pushing n bits one at a time.
        let mut fast = WahBuilder::new();
        let mut slow = WahBuilder::new();
        for &(bit, n) in &runs {
            fast.append_run(bit, n);
            for _ in 0..n { slow.push_bit(bit); }
        }
        let (f, s) = (fast.finish(), slow.finish());
        prop_assert_eq!(&f, &s);
        f.check_canonical().unwrap();
    }

    #[test]
    fn multi_builder_partitions_positions(ids in proptest::collection::vec(0u32..12, 0..400)) {
        let mut mb = MultiWahBuilder::new(12);
        mb.extend_from(&ids);
        let bins = mb.finish();
        // every position is set in exactly the bin of its id
        for (pos, &id) in ids.iter().enumerate() {
            for (b, bin) in bins.iter().enumerate() {
                prop_assert_eq!(bin.get(pos as u64), b as u32 == id);
            }
        }
        for bin in &bins {
            bin.check_canonical().unwrap();
        }
    }

    #[test]
    fn index_counts_are_histogram(data in proptest::collection::vec(-100.0f64..100.0, 0..500), nbins in 1usize..40) {
        let binner = Binner::fixed_width(-100.0, 100.0, nbins);
        let idx = BitmapIndex::build(&data, binner.clone());
        let mut hist = vec![0u64; nbins];
        for &v in &data {
            hist[binner.bin_of(v) as usize] += 1;
        }
        prop_assert_eq!(idx.counts(), hist.as_slice());
        idx.check_consistent().unwrap();
    }

    #[test]
    fn multilevel_consistent(data in proptest::collection::vec(0.0f64..10.0, 1..300), group in 1usize..8) {
        let ml = MultiLevelIndex::build(&data, Binner::fixed_width(0.0, 10.0, 17), group);
        ml.low().check_consistent().unwrap();
        // the groups tile the low bins, in order
        let nhigh = ml.low().nbins().div_ceil(group);
        let tiled: Vec<usize> = (0..nhigh).flat_map(|h| ml.children(h)).collect();
        prop_assert_eq!(tiled, (0..ml.low().nbins()).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_build_identical(data in proptest::collection::vec(0.0f64..50.0, 0..800)) {
        let binner = Binner::fixed_width(0.0, 50.0, 25);
        let seq = BitmapIndex::build(&data, binner.clone());
        let par = ibis_core::build_index_parallel(&data, binner);
        for b in 0..25 {
            prop_assert_eq!(seq.bin(b), par.bin(b));
        }
    }

    #[test]
    fn not_is_involution(bits in bit_vec()) {
        let v = WahVec::from_bits(bits.iter().copied());
        prop_assert_eq!(&v.not().not(), &v);
    }

    #[test]
    fn or_many_equals_fold(vec_count in 0usize..6, len in 0usize..200, seed in any::<u64>()) {
        let mut state = seed;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            state
        };
        let vecs: Vec<WahVec> = (0..vec_count)
            .map(|_| WahVec::from_bits((0..len).map(|_| next() % 3 == 0)))
            .collect();
        let many = WahVec::or_many(vecs.iter());
        let fold = vecs.iter().fold(None::<WahVec>, |acc, v| match acc {
            None => Some(v.clone()),
            Some(a) => Some(a.or(v)),
        });
        match fold {
            None => prop_assert_eq!(many.len(), 0),
            Some(f) => prop_assert_eq!(many, f),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Thousands of single-row ranges over a vector of long fills and
    /// noise: the regime a space-filling row order hands the kernel.
    #[test]
    fn thousands_of_single_row_ranges_match_the_scan(
        runs in proptest::collection::vec((0u8..3, 1usize..900), 8..40),
        stride in 2u64..9,
        seed in any::<u64>(),
    ) {
        let mut state = seed | 1;
        let bits: Vec<bool> = runs
            .iter()
            .flat_map(|&(kind, n)| (0..n).map(move |_| kind))
            .map(|kind| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                match kind { 0 => false, 1 => true, _ => state >> 61 < 3 }
            })
            .collect();
        let v = WahVec::from_bits(bits.iter().copied());
        let lone: Vec<Range<u64>> = (seed % stride..v.len())
            .step_by(stride as usize)
            .map(|i| i..i + 1)
            .collect();
        // lone rows, and the same rows with every third range widened
        // over a 31-bit edge or two
        let widened: Vec<Range<u64>> = lone
            .chunks(3)
            .map(|c| c[0].start..c[c.len() - 1].end)
            .collect();
        for ranges in [lone, widened] {
            let rows = ranges.iter().flat_map(|r| r.clone());
            let want = rows.filter(|&i| bits[i as usize]).count() as u64;
            prop_assert_eq!(v.count_ones_in_ranges(&ranges), want);
            prop_assert_eq!(v.intersects_ranges(&ranges), want > 0);
            // a probe over ranges that hold no 1 at all is false
            let zeros: Vec<Range<u64>> = ranges
                .iter()
                .filter(|&r| r.clone().all(|i| !bits[i as usize]))
                .cloned()
                .collect();
            prop_assert!(!v.intersects_ranges(&zeros));
            prop_assert_eq!(v.count_ones_in_ranges(&zeros), 0);
        }
    }
}
