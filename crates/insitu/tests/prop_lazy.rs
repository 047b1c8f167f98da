//! Differential tests for lazy materialisation: `decode_index` verifies a
//! payload and hands back an index whose Roaring bins stay Roaring until
//! something asks for their WAH form. Whatever is asked of that index, in
//! whatever order and from however many threads, must equal what the index
//! it was encoded from answers — and must encode back to the same bytes.

use ibis_analysis::{
    execute_range_plan, joint_counts, joint_counts_where, mine_full, mine_index, mine_multilevel,
    plan_value_range, shard_mask, Metric, MiningConfig, MiningResult, SubsetQuery, VarSummary,
};
use ibis_core::{Binner, BitmapIndex, CodecId, MultiLevelIndex, WahVec};
use ibis_datagen::{OceanConfig, OceanModel};
use ibis_insitu::codec;
use proptest::prelude::*;
use std::ops::Range;
use std::sync::{Arc, Barrier, RwLock};

const NBINS: usize = 24;

/// The obs counters are process-wide and the tests of this binary run in
/// parallel: a test that transcodes holds this for reading, one that
/// asserts a counter unmoved holds it for writing.
static COUNTERS: RwLock<()> = RwLock::new(());

fn transcoded() -> u64 {
    match ibis_obs::global()
        .snapshot()
        .get("codec.decode.transcoded_bins")
    {
        Some(ibis_obs::MetricValue::Counter(v)) => *v,
        _ => 0,
    }
}

/// Per-row bin ids under the codec plans `prop_codecs` exercises bin by
/// bin: long runs (every bin WAH), scattered noise (every bin Roaring), and
/// a run-structured half beside a noisy half (a mixed plan, with bins left
/// empty). Some cases cross the 64Ki container boundary.
fn bin_ids() -> impl Strategy<Value = Vec<u32>> {
    let nbins = NBINS as u32;
    let runs = move || {
        proptest::collection::vec((0..nbins, 40usize..900), 1..12).prop_map(|runs| {
            runs.into_iter()
                .flat_map(|(b, n)| std::iter::repeat_n(b, n))
                .collect::<Vec<u32>>()
        })
    };
    let mix = |i: u64, seed: u64| (i ^ seed).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 33;
    let noise = move || {
        (1usize..4000, any::<u64>()).prop_map(move |(n, seed)| {
            (0..n as u64)
                .map(|i| (mix(i, seed) % nbins as u64) as u32)
                .collect::<Vec<u32>>()
        })
    };
    let long_noise = any::<u64>().prop_map(move |seed| {
        (0..70_000u64)
            .map(|i| (mix(i, seed) % 6) as u32 * 3)
            .collect::<Vec<u32>>()
    });
    prop_oneof![
        runs(),
        noise(),
        (runs(), noise()).prop_map(|(mut r, n)| {
            r.extend(n.into_iter().map(|b| b / 2));
            r
        }),
        long_noise,
    ]
}

/// How many of `idx`'s bins hold a WAH form: the ones that arrived as WAH
/// and those a caller has asked for since.
fn wah_held(idx: &BitmapIndex) -> usize {
    (0..idx.nbins())
        .filter(|&b| idx.resident_bin(b).is_some())
        .count()
}

fn build(ids: &[u32]) -> BitmapIndex {
    BitmapIndex::build_from_ids(ids, Binner::distinct_ints(0, NBINS as i64 - 1))
}

/// `idx` through the store's codec: the payload and what it decodes to.
fn reload(idx: &BitmapIndex) -> (Vec<u8>, Vec<CodecId>, BitmapIndex) {
    let (payload, plan) = codec::encode_index_auto(idx);
    let back = codec::decode_index(&payload).expect("own encoding decodes");
    (payload, plan, back)
}

/// Sorted, disjoint range lists over `n` rows cut at the given points.
fn range_lists(n: u64, cuts: &[u64]) -> Vec<Option<Vec<Range<u64>>>> {
    let mut at: Vec<u64> = cuts.iter().map(|c| c % (n + 1)).collect();
    at.sort_unstable();
    at.dedup();
    let every_other = at.chunks_exact(2).map(|w| w[0]..w[1]).collect();
    let lists: Vec<Vec<Range<u64>>> = vec![vec![], vec![0..n], vec![n / 3..n - n / 3], every_other];
    std::iter::once(None)
        .chain(lists.into_iter().map(Some))
        .collect()
}

fn queries(picks: &[u64]) -> Vec<SubsetQuery> {
    let bin = |k: usize| (picks[k % picks.len()] % NBINS as u64) as f64;
    vec![
        SubsetQuery::all(),
        SubsetQuery::value(bin(0), bin(0) + 1.0),
        SubsetQuery::value(bin(1).min(bin(2)), bin(1).max(bin(2)) + 1.0),
        SubsetQuery::value(0.0, NBINS as f64),
        SubsetQuery::value(2.0, NBINS as f64 - 1.0),
        SubsetQuery::value(bin(3), bin(3)),
    ]
}

proptest! {
    /// Everything a decoded index can be asked equals the index it was
    /// encoded from, counting and probing never transcode, a bin asked for
    /// is made once, and the bytes come back.
    #[test]
    fn a_decoded_index_answers_like_the_index_it_encodes(
        ids in bin_ids(),
        picks in proptest::collection::vec(any::<u64>(), 8..9),
    ) {
        let _shared = COUNTERS.read().unwrap_or_else(|e| e.into_inner());
        let idx = build(&ids);
        let n = idx.len();
        let (payload, plan, back) = reload(&idx);
        prop_assert_eq!(back.len(), n);
        prop_assert_eq!(back.binner(), idx.binner());
        prop_assert_eq!(back.counts(), idx.counts());
        prop_assert_eq!(back.partitions(), idx.partitions());
        for (b, &codec) in plan.iter().enumerate() {
            prop_assert_eq!(back.resident_bin(b).is_none(), codec == CodecId::Roaring, "bin {}", b);
            prop_assert_eq!(back.stored_bin(b).id(), codec);
        }
        let held = wah_held(&back);

        // counts and probes, bin by bin and query by query, on the form
        // each bin is held in
        for ranges in range_lists(n, &picks) {
            let ranges = ranges.as_deref();
            for b in 0..NBINS {
                let stored = back.stored_bin(b);
                let want = ranges.map_or(idx.counts()[b], |r| idx.bin(b).count_ones_in_ranges(r));
                prop_assert_eq!(ranges.map_or(stored.count_ones(), |r| stored.count_ones_in_ranges(r)), want);
                if let Some(r) = ranges {
                    prop_assert_eq!(stored.intersects_ranges(r), want > 0, "bin {} {:?}", b, r);
                }
            }
            for q in queries(&picks) {
                prop_assert_eq!(q.count(&back, ranges), q.count(&idx, ranges), "{:?} {:?}", &q, ranges);
                prop_assert_eq!(q.intersects(&back, ranges), q.intersects(&idx, ranges), "{:?}", &q);
            }
        }
        prop_assert_eq!(wah_held(&back), held, "a count transcoded a bin");

        // the label walk and the OR read Roaring bins where they lie
        let (_, _, other) = reload(&build(&ids.iter().rev().copied().collect::<Vec<_>>()));
        prop_assert_eq!(joint_counts(&back, &other), joint_counts(&idx, &other));
        for ranges in range_lists(n, &picks) {
            // every row, and the rows a value predicate over half the bins keeps
            for bins in [0..NBINS, 0..NBINS / 2 + 1] {
                let walk = |a, b| joint_counts_where(a, b, bins.clone(), 0..NBINS, ranges.as_deref());
                prop_assert_eq!(walk(&back, &other), walk(&idx, &other), "{:?} {:?}", &bins, &ranges);
                prop_assert_eq!(walk(&back, &back), walk(&idx, &idx), "{:?} {:?}", &bins, &ranges);
            }
        }
        prop_assert_eq!(wah_held(&back), held, "the label walk transcoded a bin");
        let (lo, hi) = ((picks[0] % NBINS as u64) as usize, NBINS - 1);
        let ored = back.query_bins(lo..=hi);
        prop_assert_eq!(&ored, &idx.query_bins(lo..=hi));
        ored.check_canonical().unwrap();
        prop_assert_eq!(back.or_bins([]), WahVec::zeros(n));

        // selections, under every region
        for ranges in range_lists(n, &picks) {
            let mask = ranges.as_deref().map(|r| shard_mask(r, 0..n));
            for q in queries(&picks) {
                let want = q.evaluate_masked(&idx, mask.as_ref()).unwrap();
                let got = q.evaluate_masked(&back, mask.as_ref()).unwrap();
                prop_assert_eq!(got.words(), want.words(), "{:?} {:?}", &q, &ranges);
            }
        }

        // every bin, in a drawn order; each transcode is made once
        let mut order: Vec<usize> = (0..NBINS).collect();
        for i in (1..NBINS).rev() {
            order.swap(i, (picks[i % picks.len()] >> 8) as usize % (i + 1));
        }
        for &b in &order {
            prop_assert_eq!(back.bin(b).words(), idx.bin(b).words(), "bin {}", b);
            prop_assert_eq!(back.bin(b).len(), n);
            let kept = back.resident_bin(b).expect("asked for, so held");
            prop_assert!(std::ptr::eq(back.bin(b), kept), "bin {} made twice", b);
        }
        back.check_consistent().unwrap();

        // and back to the bytes it came from, forced or fresh
        prop_assert_eq!(&codec::encode_index_auto(&back).0, &payload);
        let (_, _, fresh) = reload(&idx);
        prop_assert_eq!(&codec::encode_index_auto(&fresh).0, &payload);
        prop_assert_eq!(codec::encode_index(&fresh), codec::encode_index(&idx));
        prop_assert!(fresh.clone().bins().eq(idx.bins()), "a clone forgot a bin");
    }

    /// Both joint stages of the miner read a decoded index's bins where
    /// they lie — none is transcoded — and find what the full-data miner
    /// finds, work counters included; the multi-level miner finds on it
    /// what it finds on the index it was encoded from.
    #[test]
    fn mining_a_decoded_index_equals_the_full_data_miner(ids in bin_ids(), unit in 16u64..600) {
        // the first half a copy of `ids`, the rest mirrored: pairs survive
        let n = ids.len();
        let other: Vec<u32> = (0..n).map(|i| ids[if i < n / 2 { i } else { n - 1 - i }]).collect();
        let cfg = MiningConfig { value_threshold: 0.01, spatial_threshold: 0.05, unit_size: unit };
        let (a, b) = (build(&ids), build(&other));
        let (back_a, back_b) = (reload(&a).2, reload(&b).2);
        let held = (wah_held(&back_a), wah_held(&back_b));
        let got = mine_index(&back_a, &back_b, &cfg);
        prop_assert_eq!((wah_held(&back_a), wah_held(&back_b)), held, "mining transcoded a bin");
        let values = |v: &[u32]| v.iter().map(|&b| f64::from(b)).collect::<Vec<f64>>();
        let want = mine_full(&values(&ids), &values(&other), a.binner(), b.binner(), &cfg);
        prop_assert_eq!(&got.subsets, &want.subsets);
        let work = |r: &MiningResult| [r.pairs_evaluated, r.pairs_pruned, r.units_evaluated];
        prop_assert_eq!(work(&got), work(&want));
        let ml = |idx: BitmapIndex| MultiLevelIndex::from_low(idx, 3);
        let (got, _) = mine_multilevel(&ml(back_a), &ml(back_b), &cfg);
        let (want, _) = mine_multilevel(&ml(a), &ml(b), &cfg);
        prop_assert_eq!(&got.subsets, &want.subsets);
        prop_assert_eq!(work(&got), work(&want));
    }

    /// The selector's spatial EMD reads two stored ocean steps' bins where
    /// they lie — none is transcoded — and equals the full-data value,
    /// under the shared 64-bin scale the ocean store uses and under
    /// per-step anchored binners.
    #[test]
    fn spatial_emd_of_decoded_ocean_steps_reads_bins_where_they_lie(seed in any::<u64>()) {
        let _alone = COUNTERS.write().unwrap_or_else(|e| e.into_inner());
        let steps: Vec<Vec<f64>> = (0..2)
            .map(|i| {
                let cfg = OceanConfig { nlon: 32, nlat: 24, ndepth: 8, seed: seed.wrapping_add(i), ..OceanConfig::default() };
                OceanModel::new(cfg).variable("temperature")
            })
            .collect();
        let (lo, hi) = steps.iter().flatten().fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &x| (lo.min(x), hi.max(x)));
        let shared = Binner::fit(&[lo, hi], 64);
        let anchored = |s: &[f64]| Binner::fit_precision_anchored(s, 1);
        for (ba, bb) in [(shared.clone(), shared), (anchored(&steps[0]), anchored(&steps[1]))] {
            let full = |data: &[f64], b: &Binner| VarSummary::full(data.to_vec(), b.clone());
            let want = full(&steps[0], &ba).metric(&full(&steps[1], &bb), Metric::EmdSpatial);
            let stored = |data: &[f64], b: &Binner| {
                let (_, plan, back) = reload(&BitmapIndex::build(data, b.clone()));
                (plan.contains(&CodecId::Roaring), VarSummary::Bitmap(back))
            };
            let ((ra, a), (rb, b)) = (stored(&steps[0], &ba), stored(&steps[1], &bb));
            prop_assert!(ra && rb, "ocean noise must store some bins as Roaring");
            let before = transcoded();
            let got = a.metric(&b, Metric::EmdSpatial);
            if ibis_obs::ENABLED {
                prop_assert_eq!(transcoded(), before, "spatial EMD transcoded a bin");
            }
            prop_assert_eq!(got, want);
        }
    }

    /// A cold copy, a half-touched copy and a fully forced copy of one
    /// stored index plan every value range the same way and count and
    /// select the same rows; where the payload holds no Roaring bin the
    /// plan is the one the index it was built from picks.
    #[test]
    fn plans_do_not_depend_on_what_has_been_touched(
        ids in bin_ids(),
        picks in proptest::collection::vec(any::<u64>(), 8..9),
    ) {
        let _shared = COUNTERS.read().unwrap_or_else(|e| e.into_inner());
        let idx = build(&ids);
        let n = idx.len();
        let (cold, half, forced) = (reload(&idx).2, reload(&idx).2, reload(&idx).2);
        for b in (0..NBINS).step_by(2) {
            half.bin(b);
        }
        prop_assert_eq!(forced.bins().count(), NBINS);
        let all_wah = reload(&idx).1.iter().all(|&c| c == CodecId::Wah);

        for q in queries(&picks) {
            let Some((lo, hi)) = q.value_range else { continue };
            let plan = plan_value_range(&forced, None, lo, hi).unwrap();
            let want = idx.query_range(lo, hi);
            for copy in [&cold, &half, &forced] {
                let got = plan_value_range(copy, None, lo, hi).unwrap();
                prop_assert_eq!(&got, &plan, "{:?}", &q);
                let sel = execute_range_plan(copy, None, &got);
                prop_assert_eq!(sel.words(), want.words(), "{:?} {:?}", &q, &got);
                for ranges in range_lists(n, &picks) {
                    let ranges = ranges.as_deref();
                    let rows = ranges.map_or(want.count_ones(), |r| want.count_ones_in_ranges(r));
                    prop_assert_eq!(q.count(copy, ranges), Ok(rows), "{:?} {:?}", &q, ranges);
                }
            }
            if all_wah {
                let todays = plan_value_range(&idx, None, lo, hi).unwrap();
                prop_assert_eq!(&plan, &todays, "{:?}", &q);
            }
        }
    }
}

/// Eight threads asking one shared index for the same bins at once see one
/// materialisation of each: the same allocation.
#[test]
fn racing_threads_share_one_materialisation() {
    let _shared = COUNTERS.read().unwrap_or_else(|e| e.into_inner());
    let ids: Vec<u32> = (0..9000u64)
        .map(|i| ((i.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 33) % NBINS as u64) as u32)
        .collect();
    let idx = build(&ids);
    let (_, plan, back) = reload(&idx);
    let deferred: Vec<usize> = (0..NBINS)
        .filter(|&b| plan[b] == CodecId::Roaring)
        .collect();
    assert!(
        deferred.len() > NBINS / 2,
        "the noise must store as Roaring"
    );
    let back = Arc::new(back);
    let start = Arc::new(Barrier::new(8));
    let handles: Vec<_> = (0..8)
        .map(|t| {
            let (back, start) = (Arc::clone(&back), Arc::clone(&start));
            std::thread::spawn(move || {
                start.wait();
                // every thread in its own order, all of them at once
                let mut seen = vec![0usize; NBINS];
                for k in 0..NBINS {
                    let b = (k * 7 + t * 3) % NBINS;
                    seen[b] = back.bin(b) as *const WahVec as usize;
                }
                seen
            })
        })
        .collect();
    let seen: Vec<_> = handles
        .into_iter()
        .map(|h| h.join().expect("no thread may panic"))
        .collect();
    for other in &seen[1..] {
        assert_eq!(other, &seen[0], "two threads saw two materialisations");
    }
    assert_eq!(wah_held(&back), NBINS, "every bin asked for is held");
    for b in 0..NBINS {
        assert_eq!(back.bin(b), idx.bin(b));
    }
}
