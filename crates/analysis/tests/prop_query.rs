//! Property tests for the query layer: the planner and the joint-table
//! kernel against the reference model's scan of the raw values
//! (`ibis_testkit`: admit rows by bin span and region, count bin pairs row
//! by row), across
//! every binner kind — plus the guarantee that every planner strategy
//! produces the same selection, that the
//! one-pass joint table equals the AND table and the scan on every chunk
//! and 31-bit edge, that a correlation's selection-free shard partial
//! equals the one counted over the materialised selection and a scan, that
//! `correlation_query` is the pure finisher over the counts a scan fills, that counting a plan (`SubsetQuery::count`,
//! `count_range_plan`) equals materialising it and counting,
//! and a scan, under every plan variant forced, that an operand of
//! overlapping bins is refused as no partition, and that no generated query (inverted, empty,
//! NaN, out-of-range) ever panics.

use ibis_analysis::histogram::{joint_counts_per_range, CHUNK_ROWS};
use ibis_analysis::{
    correlation_partial_shard, correlation_query, correlation_query_mapped, correlation_query_ml,
    count_range_plan, execute_range_plan, joint_counts, joint_counts_and_table, joint_counts_where,
    plan_value_range, shard_mask, shard_ranges, stored_ranges, CorrelationPartial, QueryError,
    RangePlan, SubsetQuery,
};
use ibis_core::{
    Binner, BitmapIndex, CodecId, CodecVec, ContainerForm, MultiLevelIndex, RowOrder,
    RowPermutation, WahVec, CONTAINER_BITS,
};
use ibis_testkit::Column;
use proptest::prelude::*;
use std::ops::Range;

/// A binner over 1–11 explicit integer edges inside ±50.
fn edges_binner() -> impl Strategy<Value = Binner> {
    proptest::collection::vec(-50i32..50, 2..12).prop_map(|mut edges| {
        edges.sort_unstable();
        edges.dedup();
        if edges.len() < 2 {
            edges = vec![-50, 50];
        }
        Binner::from_edges(edges.into_iter().map(f64::from).collect())
    })
}

/// One binner of each kind the crate supports, all covering ±50.
fn any_binner() -> impl Strategy<Value = Binner> {
    prop_oneof![
        (1usize..24).prop_map(|n| Binner::fixed_width(-50.0, 50.0, n)),
        Just(Binner::precision(-50.0, 50.0, 0)),
        Just(Binner::precision(-50.0, 50.0, -1)),
        Just(Binner::distinct_ints(-50, 50)),
        edges_binner(),
    ]
}

/// Data plus a binner over the same domain.
fn data_and_binner() -> impl Strategy<Value = (Vec<f64>, Binner)> {
    (
        proptest::collection::vec(-50.0f64..50.0, 1..400),
        any_binner(),
    )
}

/// A subset query: optional value range (sometimes inverted or empty),
/// optional position range (kept in-bounds; out-of-range is tested
/// separately as an error path).
fn subset_query(n: usize) -> impl Strategy<Value = SubsetQuery> {
    (
        any::<bool>(),
        (-55.0f64..55.0, -55.0f64..55.0),
        any::<bool>(),
        (0..n as u64 + 1, 0..n as u64 + 1),
    )
        .prop_map(|(with_value, (lo, hi), with_region, (a, b))| {
            let mut q = SubsetQuery::all();
            if with_value {
                q = q.with_value(lo, hi);
            }
            if with_region {
                q = q.with_region(a.min(b)..a.max(b));
            }
            q
        })
}

/// The region mask as the query path built it before stored ranges —
/// validate, then gather the block's stored positions through the inverse
/// permutation, keep the shard's, rebase, sort, `from_ones` — kept word
/// for word as the oracle for [`stored_ranges`] + [`shard_mask`].
fn gathered_mask(
    region: &Range<u64>,
    rows: Range<u64>,
    global_len: u64,
    perm: Option<&RowPermutation>,
) -> Result<WahVec, QueryError> {
    if let Some(p) = perm {
        if p.len() as u64 != global_len {
            return Err(QueryError::LengthMismatch {
                len_a: global_len,
                len_b: p.len() as u64,
            });
        }
    }
    if region.start > region.end || region.end > global_len {
        return Err(QueryError::RegionOutOfRange {
            start: region.start,
            end: region.end,
            len: global_len,
        });
    }
    let stored: Vec<u64> = match perm {
        None => (region.start..region.end).collect(),
        Some(p) => p.inv()[region.start as usize..region.end as usize]
            .iter()
            .map(|&s| s as u64)
            .collect(),
    };
    let mut ones: Vec<u64> = stored
        .into_iter()
        .filter(|s| rows.contains(s))
        .map(|s| s - rows.start)
        .collect();
    ones.sort_unstable();
    Ok(WahVec::from_ones(&ones, rows.end - rows.start))
}

/// One binner of each kind with at most 24 bins, so the AND table stays
/// cheap on the multi-chunk arrays below.
fn small_binner() -> impl Strategy<Value = Binner> {
    prop_oneof![
        (1usize..24).prop_map(|n| Binner::fixed_width(-50.0, 50.0, n)),
        Just(Binner::precision(-50.0, 50.0, -1)),
        Just(Binner::distinct_ints(-9, 9)),
        edges_binner(),
    ]
}

/// `n` values of one data regime: 0 Heat3D-like plateaus, 1 noise,
/// 2 constant, 3 noise salted with NaN and ±inf.
fn regime_data(regime: usize, n: usize, seed: u64) -> Vec<f64> {
    let mut state = seed | 1;
    let mut noise = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 11) as f64 / (1u64 << 53) as f64 * 100.0 - 50.0
    };
    let plateau = 40 + seed as usize % 400;
    (0..n)
        .map(|i| match (regime, i % 11) {
            (0, _) => {
                ((i / plateau * 37 + seed as usize) % 100) as f64 - 50.0 + (i % 3) as f64 * 1e-3
            }
            (2, _) => 3.0,
            (3, 2) => f64::NAN,
            (3, 5) => f64::INFINITY,
            (3, 7) => f64::NEG_INFINITY,
            _ => noise(),
        })
        .collect()
}

/// The selections the joint kernel's edges hide behind, over `n` rows:
/// all rows (`None`), none, all, one row, a run across the first chunk
/// edge, runs ending on and one past a 31-bit edge, a run to the last row,
/// and scattered rows (literal selection words).
fn edge_selections(n: u64) -> Vec<Option<WahVec>> {
    let runs = |ranges: &[(u64, u64)]| {
        let ranges: Vec<Range<u64>> = ranges.iter().map(|&(lo, hi)| lo..hi).collect();
        Some(shard_mask(&ranges, 0..n))
    };
    let c = CHUNK_ROWS;
    vec![
        None,
        runs(&[]),
        runs(&[(0, n)]),
        runs(&[(n / 2, n / 2 + 1)]),
        runs(&[(c - 40, c + 40)]),
        runs(&[(5, 62), (70, 94), (2 * c + 3, 2 * c + 31)]),
        runs(&[(n.saturating_sub(45), n)]),
        Some(WahVec::from_bits((0..n).map(|i| i * i % 7 < 2))),
    ]
}

/// A selection as the sorted, disjoint ranges of its rows — what the joint
/// kernel takes in place of a vector.
fn runs_of(sel: &WahVec) -> Vec<Range<u64>> {
    let mut runs: Vec<Range<u64>> = Vec::new();
    for row in sel.iter_ones() {
        match runs.last_mut() {
            Some(run) if run.end == row => run.end = row + 1,
            _ => runs.push(row..row + 1),
        }
    }
    runs
}

/// `idx` with every bin held as WAH (0), as Roaring (1), or alternately (2).
fn held(idx: &BitmapIndex, how: usize) -> BitmapIndex {
    let bins = idx.bins().enumerate().map(|(b, v)| match (how, b % 2) {
        (0, _) | (2, 0) => CodecVec::with_codec(v, CodecId::Wah),
        _ => CodecVec::with_codec(v, CodecId::Roaring),
    });
    BitmapIndex::from_codec_bins(idx.binner().clone(), bins.collect())
}

/// A correlation's shard partial over materialised selections, the
/// label walk's oracle: both selections materialised under the shard's
/// share of `ranges`, ANDed, counted by the AND table and per bin.
fn materialised_partial(
    (a, qa): (&BitmapIndex, &SubsetQuery),
    (b, qb): (&BitmapIndex, &SubsetQuery),
    rows: Range<u64>,
    ranges: Option<&[Range<u64>]>,
) -> CorrelationPartial {
    let mask = ranges.map(|r| shard_mask(r, rows));
    let sel = (qa.evaluate_masked(a, mask.as_ref()).unwrap())
        .and(&qb.evaluate_masked(b, mask.as_ref()).unwrap());
    CorrelationPartial {
        selected: sel.count_ones(),
        joint: joint_counts_and_table(a, b, Some(&sel)),
        counts_a: a.bins().map(|bin| bin.and_count(&sel)).collect(),
        counts_b: b.bins().map(|bin| bin.and_count(&sel)).collect(),
        diagonal: Vec::new(),
    }
}

/// The gather of the first stride from `stride` up that is coprime to `n`
/// — about that many short ascending segments, so a region scatters over
/// many stored ranges — and the stride taken. `None` below three rows.
fn strided(n: usize, stride: usize) -> Option<(usize, RowPermutation)> {
    let gcd = |mut a: usize, mut b: usize| {
        while b != 0 {
            (a, b) = (b, a % b);
        }
        a
    };
    // `n - 1` is coprime to `n`, so the search ends whenever it starts
    let s = (stride.max(2)..n).find(|&s| gcd(s, n) == 1)?;
    let gather = (0..n).map(|i| (i * s % n) as u32).collect();
    Some((s, RowPermutation::from_gather(gather)))
}

/// The layouts a store can be in, by name: ingest order, `GrayBin` over
/// `data` (a few long segments; left out when it comes out as the
/// identity) and [`strided`].
fn layouts(data: &[f64], binner: &Binner, stride: usize) -> Vec<(String, Option<RowPermutation>)> {
    let sorted = RowOrder::GrayBin.permutation(&[], binner, data);
    let strided = strided(data.len(), stride).map(|(s, p)| (format!("stride {s}"), p));
    let permuted = sorted
        .map(|p| ("graybin".to_string(), p))
        .into_iter()
        .chain(strided);
    let identity = ("identity".to_string(), None);
    [identity]
        .into_iter()
        .chain(permuted.map(|(name, p)| (name, Some(p))))
        .collect()
}

fn counter(name: &str) -> u64 {
    match ibis_obs::global().snapshot().get(name) {
        Some(ibis_obs::MetricValue::Counter(v)) => *v,
        _ => 0,
    }
}

/// Every way to evaluate the bin span `b0..=b1`, whatever the planner
/// would choose: the naive OR and the complement.
fn forced_plans(b0: usize, b1: usize) -> [RangePlan; 2] {
    [
        RangePlan::OrBins { lo: b0, hi: b1 },
        RangePlan::Complement { lo: b0, hi: b1 },
    ]
}

/// Sorted, disjoint range lists over `n` rows: none (`None`), no range,
/// every row, `picks` as (gap, length) steps, a single row, ranges on and
/// around the first 31-bit edges, and the last rows.
fn range_lists(n: u64, picks: &[(u64, u64)]) -> Vec<Option<Vec<Range<u64>>>> {
    let mut at = 0;
    let stepped = picks.iter().map(|&(gap, len)| {
        let r = at + gap..at + gap + len;
        at = r.end;
        r
    });
    let lists = vec![
        vec![],
        vec![0..n],
        stepped.collect(),
        vec![n / 2..n / 2 + 1],
        vec![5..31, 31..40, 61..63, 93..124],
        vec![n.saturating_sub(9)..n],
    ];
    let clip = |r: Range<u64>| r.start.min(n)..r.end.min(n);
    let lists = lists
        .into_iter()
        .map(|l: Vec<Range<u64>>| Some(l.into_iter().map(clip).collect()));
    std::iter::once(None).chain(lists).collect()
}

fn has_nan(q: &SubsetQuery) -> bool {
    matches!(q.value_range, Some((lo, hi)) if lo.is_nan() || hi.is_nan())
}

proptest! {
    #[test]
    fn evaluate_matches_scan_oracle(
        (data, binner) in data_and_binner(),
        lo in -55.0f64..55.0,
        hi in -55.0f64..55.0,
        start_frac in 0.0f64..1.0,
        len_frac in 0.0f64..1.0,
    ) {
        let index = BitmapIndex::build(&data, binner.clone());
        // derive the region from the data length so it stays in range
        let n = data.len() as u64;
        let start = (start_frac * n as f64) as u64;
        let end = start + (len_frac * (n - start) as f64) as u64;
        let query = SubsetQuery::value(lo, hi).with_region(start..end);

        let sel = query.evaluate(&index).unwrap();
        let want = Column::new(&data, binner).admitted(&query).unwrap();
        prop_assert_eq!(sel.count_ones(), want.iter().filter(|&&b| b).count() as u64);
        for (i, &w) in want.iter().enumerate() {
            prop_assert_eq!(sel.get(i as u64), w, "position {}", i);
        }
    }

    #[test]
    fn joint_counts_match_direct_histogram(
        (data_a, binner_a) in data_and_binner(),
        (data_b, binner_b) in data_and_binner(),
        start_frac in 0.0f64..1.0,
        len_frac in 0.0f64..1.0,
    ) {
        let n = data_a.len().min(data_b.len());
        let a: Vec<f64> = data_a[..n].to_vec();
        let b: Vec<f64> = data_b[..n].to_vec();
        let ia = BitmapIndex::build(&a, binner_a.clone());
        let ib = BitmapIndex::build(&b, binner_b.clone());
        let start = (start_frac * n as f64) as u64;
        let end = start + (len_frac * (n as u64 - start) as f64) as u64;
        let sel = SubsetQuery::region(start..end).evaluate(&ia).unwrap();
        let all = (0..ia.nbins(), 0..ib.nbins());

        // the model's joint histogram, straight from the raw pairs
        let (ca, cb) = (Column::new(&a, binner_a), Column::new(&b, binner_b));
        let want = ca.partial(&cb, start as usize..end as usize).joint;
        let region = start..end;
        let region = Some(std::slice::from_ref(&region));
        let got = joint_counts_where(&ia, &ib, all.0, all.1, region);
        prop_assert_eq!(&got, &want);
        prop_assert_eq!(&joint_counts_and_table(&ia, &ib, Some(&sel)), &want);
    }

    #[test]
    fn correlation_query_agrees_across_engines(
        (data_a, binner_a) in data_and_binner(),
        (data_b, binner_b) in data_and_binner(),
        group in 1usize..9,
    ) {
        let n = data_a.len().min(data_b.len());
        let a: Vec<f64> = data_a[..n].to_vec();
        let b: Vec<f64> = data_b[..n].to_vec();
        let ma = MultiLevelIndex::build(&a, binner_a, group);
        let mb = MultiLevelIndex::build(&b, binner_b, group);
        let qa = SubsetQuery::value(-20.0, 20.0);
        let qb = SubsetQuery::region(0..(n as u64 / 2));
        let flat = correlation_query(ma.low(), mb.low(), &qa, &qb).unwrap();
        let ml = correlation_query_ml(&ma, &mb, &qa, &qb).unwrap();
        prop_assert_eq!(&flat, &ml);
        // MI and H(A|B) are finite on every input, even empty selections
        prop_assert!(flat.mutual_information.is_finite());
        prop_assert!(flat.conditional_entropy.is_finite());
        prop_assert!(flat.mutual_information >= -1e-12);
        prop_assert!(flat.conditional_entropy >= -1e-12);
    }

    #[test]
    fn correlation_query_equals_finisher_over_scanned_partial(
        (data_a, binner_a) in data_and_binner(),
        (data_b, binner_b) in data_and_binner(),
        qa in subset_query(200),
        qb in subset_query(200),
        permuted in any::<bool>(),
    ) {
        let n = data_a.len().min(data_b.len());
        let (a, b) = (&data_a[..n], &data_b[..n]);
        // regions were drawn against n=200; clamp into this data's range
        let clamp = |mut q: SubsetQuery| {
            if let Some(r) = &q.position_range {
                let end = r.end.min(n as u64);
                q.position_range = Some(r.start.min(end)..end);
            }
            q
        };
        let (qa, qb) = (clamp(qa), clamp(qb));
        let ia = BitmapIndex::build(a, binner_a.clone());
        let ib = BitmapIndex::build(b, binner_b.clone());

        // the model's answer: a scanned partial, in original row order,
        // through the pure finisher...
        let (ca, cb) = (Column::new(a, binner_a.clone()), Column::new(b, binner_b.clone()));
        let want = ca.correlation(&cb, &qa, &qb).unwrap();

        // ...equals the bitmap answer bit for bit — Pearson and both
        // means included — in stored order too: every metric is
        // row-order invariant and regions map through the inverse
        let perm = permuted
            .then(|| RowOrder::GrayBin.permutation(&[], &binner_a, a))
            .flatten();
        let got = match &perm {
            Some(perm) => correlation_query_mapped(
                &BitmapIndex::build_permuted(a, binner_a.clone(), perm),
                &BitmapIndex::build_permuted(b, binner_b.clone(), perm),
                &qa,
                &qb,
                perm,
            ),
            None => correlation_query(&ia, &ib, &qa, &qb),
        };
        prop_assert_eq!(got.unwrap(), want);
    }

    #[test]
    fn stored_range_masks_equal_gathered_masks_word_for_word(
        (n, stride) in (4u64..400, 2usize..60),
        values in proptest::collection::vec(-50.0f64..50.0, 400),
        binner in any_binner(),
        picks in proptest::collection::vec((0u64..401, 0u64..401), 3),
        cuts in proptest::collection::vec(0u64..401, 0..4),
    ) {
        let data = &values[..n as usize];
        let mut cuts: Vec<u64> = cuts.into_iter().map(|c| c % (n + 1)).chain([0, n]).collect();
        cuts.sort_unstable(); // repeated cuts make empty shards, on purpose
        let mut regions: Vec<Range<u64>> = picks
            .iter()
            .map(|&(a, b)| (a % (n + 1)).min(b % (n + 1))..(a % (n + 1)).max(b % (n + 1)))
            .collect();
        let at = picks[0].0 % n;
        regions.extend([at..at, 0..n, at..at + 1, 0..0, n..n]);
        for (layout, perm) in layouts(data, &binner, stride) {
            let perm = perm.as_ref();
            for region in &regions {
                let q = SubsetQuery::region(region.clone());
                let ranges = stored_ranges(&[&q], n, perm).unwrap().unwrap();
                prop_assert!(ranges.windows(2).all(|r| r[0].end <= r[1].start), "{:?}", ranges);
                if let Some(p) = perm {
                    prop_assert!(ranges.iter().all(|r| r.start < r.end), "{:?}", ranges);
                    let rows = region.end - region.start;
                    prop_assert!(ranges.len() as u64 <= rows.min(p.segments().len() as u64));
                }
                for shard in cuts.windows(2) {
                    let rows = shard[0]..shard[1];
                    let got = shard_mask(&ranges, rows.clone());
                    let want = gathered_mask(region, rows, n, perm).unwrap();
                    prop_assert_eq!(got.len(), want.len());
                    prop_assert_eq!(
                        got.words(), want.words(),
                        "{} region {:?} shard {:?}", layout, region, shard
                    );
                }
                // a correlation's two regions resolve to their common rows
                let other = SubsetQuery::region(regions[0].clone());
                let joint = stored_ranges(&[&q, &other], n, perm).unwrap().unwrap();
                let both = gathered_mask(region, 0..n, n, perm)
                    .unwrap()
                    .and(&gathered_mask(&regions[0], 0..n, n, perm).unwrap());
                prop_assert_eq!(shard_mask(&joint, 0..n), both);
            }
            // malformed input fails as it always did, before any mapping
            #[allow(clippy::reversed_empty_ranges)]
            for (bad, len) in [(0..n + 1, n), (n + 2..n + 3, n), (5..2, n), (0..1, n + 1)] {
                let got = stored_ranges(&[&SubsetQuery::region(bad.clone())], len, perm);
                let want = gathered_mask(&bad, 0..len, len, perm);
                prop_assert_eq!(got.err(), want.err(), "{:?} of {}", bad, len);
            }
        }
    }

    /// Regions shorter than the layout's segment count — where most
    /// segments contribute nothing and the rest a row or two — resolve to
    /// exactly the stored rows the inverse permutation gathers.
    #[test]
    fn stored_ranges_equal_the_inverse_gather_under_many_segments(
        (n, stride) in (50usize..400, 20usize..200),
        start_frac in 0.0f64..1.0,
        rows in 0u64..20,
    ) {
        let (_, p) = strided(n, stride.min(n / 2)).expect("a coprime stride below n");
        let rows = rows.min(p.segments().len() as u64 - 1);
        let lo = (start_frac * (n as u64 - rows) as f64) as u64;
        let q = SubsetQuery::region(lo..lo + rows);
        let ranges = stored_ranges(&[&q], n as u64, Some(&p)).unwrap().unwrap();
        prop_assert!(ranges.windows(2).all(|r| r[0].end <= r[1].start), "{:?}", ranges);
        let got: Vec<u64> = ranges.into_iter().flatten().collect();
        let mut want: Vec<u64> = p.inv()[lo as usize..(lo + rows) as usize]
            .iter()
            .map(|&s| s as u64)
            .collect();
        want.sort_unstable();
        prop_assert_eq!(got, want, "stride {} region {:?}", stride, q.position_range);
    }

    #[test]
    fn arbitrary_queries_never_panic(
        (data, binner) in data_and_binner(),
        nan_lo in any::<bool>(),
        nan_hi in any::<bool>(),
    ) {
        let n = data.len();
        let index = BitmapIndex::build(&data, binner);
        // NaN bounds: always a typed error, never a panic
        let lo = if nan_lo { f64::NAN } else { 1.0 };
        let hi = if nan_hi { f64::NAN } else { 2.0 };
        let q = SubsetQuery::value(lo, hi);
        match q.evaluate(&index) {
            Ok(sel) => {
                prop_assert!(!has_nan(&q));
                prop_assert_eq!(sel.len(), n as u64);
            }
            Err(QueryError::NanBound { .. }) => prop_assert!(has_nan(&q)),
            Err(other) => prop_assert!(false, "unexpected error {}", other),
        }
        // out-of-range and inverted regions: typed errors
        let far = SubsetQuery::region(0..n as u64 + 1).evaluate(&index);
        prop_assert!(matches!(far, Err(QueryError::RegionOutOfRange { .. })));
        // mismatched index lengths: typed error
        let other = BitmapIndex::build(&[0.0; 7], Binner::fixed_width(-1.0, 1.0, 2));
        if n != 7 {
            let err = correlation_query(&index, &other, &SubsetQuery::all(), &SubsetQuery::all());
            prop_assert!(matches!(err, Err(QueryError::LengthMismatch { .. })));
        }
    }

    #[test]
    fn generated_queries_evaluate_totally(
        (data, binner) in data_and_binner(),
        queries in proptest::collection::vec(subset_query(200), 1..5),
    ) {
        // Every generated query either evaluates (and matches the scan
        // oracle) or returns a typed error — total behavior end to end.
        let index = BitmapIndex::build(&data, binner.clone());
        let column = Column::new(&data, binner);
        for q in &queries {
            let mut q = q.clone();
            // regions were drawn against n=200; clamp into this data's range
            if let Some(r) = &q.position_range {
                let end = r.end.min(data.len() as u64);
                q.position_range = Some(r.start.min(end)..end);
            }
            match q.evaluate(&index) {
                Ok(sel) => {
                    let want = column.admitted(&q).unwrap();
                    prop_assert_eq!(
                        sel.count_ones(),
                        want.iter().filter(|&&b| b).count() as u64
                    );
                    prop_assert_eq!(sel, WahVec::from_bits(want));
                }
                Err(QueryError::NanBound { .. }) => prop_assert!(has_nan(&q)),
                Err(other) => prop_assert!(false, "unexpected error {}", other),
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The one-pass joint table equals the paper's AND table and a scan of
    /// the raw arrays on every chunk and 31-bit boundary, under every row
    /// order, and its marginals are the per-bin selected counts.
    #[test]
    fn joint_counts_equal_and_table_and_scan(
        (binner_a, binner_b) in (small_binner(), small_binner()),
        (regime_a, regime_b) in (0usize..4, 0usize..4),
        seed in any::<u64>(),
    ) {
        let c = CHUNK_ROWS as usize;
        let sizes = [0, 1, 30, 31, 32, c - 1, c, c + 1, 3 * c + 17];
        for (n, (layout, perm)) in sizes.into_iter().flat_map(|n| {
            let a = regime_data(regime_a, n, seed);
            layouts(&a, &binner_a, 37).into_iter().map(move |l| (n, l))
        }) {
            let a = regime_data(regime_a, n, seed);
            let b = regime_data(regime_b, n, seed.rotate_left(17));
            let build = |data: &[f64], binner: &Binner| match &perm {
                Some(perm) => BitmapIndex::build_permuted(data, binner.clone(), perm),
                None => BitmapIndex::build(data, binner.clone()),
            };
            let (ia, ib) = (build(&a, &binner_a), build(&b, &binner_b));
            let (ca, cb) = (Column::new(&a, binner_a.clone()), Column::new(&b, binner_b.clone()));
            // the original row a stored row holds
            let original = |row: usize| perm.as_ref().map_or(row, |p| p.perm()[row] as usize);
            for sel in edge_selections(n as u64) {
                let sel = sel.as_ref();
                let all = WahVec::ones(n as u64);
                let kept: Vec<usize> = sel.unwrap_or(&all).iter_ones().map(|row| row as usize).collect();
                let ranges = sel.map(runs_of);
                for (ix, iy, cy, same) in [(&ia, &ib, &cb, false), (&ia, &ia, &ca, true)] {
                    let ny = iy.nbins();
                    let scan = ca.partial(cy, kept.iter().map(|&row| original(row))).joint;
                    let got = joint_counts_where(ix, iy, 0..ix.nbins(), 0..ny, ranges.as_deref());
                    prop_assert_eq!(&got, &scan, "{} n={} same={} sel={:?}", layout, n, same, sel);
                    prop_assert_eq!(&got, &joint_counts_and_table(ix, iy, sel));
                    if sel.is_none() {
                        prop_assert_eq!(&got, &joint_counts(ix, iy));
                    }
                    let per_bin = |idx: &BitmapIndex| -> Vec<u64> {
                        idx.bins().map(|bin| bin.and_count(sel.unwrap_or(&all))).collect()
                    };
                    // the table's margins are the per-bin selected counts: what a
                    // correlation's partial carries, read off the same walk
                    let (qx, rows) = (SubsetQuery::all(), 0..n as u64);
                    let partial = correlation_partial_shard(ix, iy, &qx, &qx, rows, ranges.as_deref()).unwrap();
                    prop_assert_eq!(&partial.joint, &got);
                    prop_assert_eq!(partial.counts_a, per_bin(ix));
                    prop_assert_eq!(partial.counts_b, per_bin(iy));
                    prop_assert_eq!(partial.selected, kept.len() as u64);
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// A correlation's shard partial, counted with no selection built —
    /// value predicates as admitted bins, the region as the shard's stored
    /// ranges — equals the partial counted over the materialised
    /// selection by the AND table, and a scan of the raw rows: under every
    /// kind of value range and region, every layout and shard cut, both
    /// operands one index or two, bins held as WAH, Roaring or both.
    #[test]
    fn selection_free_partial_equals_materialised_and_scan(
        (binner_a, binner_b) in (small_binner(), small_binner()),
        (regime_a, regime_b) in (0usize..4, 0usize..4),
        (held_a, held_b) in (0usize..3, 0usize..3),
        seed in any::<u64>(),
        n in 40usize..2 * CHUNK_ROWS as usize + 700,
        picks in proptest::collection::vec((-50.0f64..50.0, 0.0f64..1.0), 4),
        cuts in proptest::collection::vec(0.0f64..1.0, 3),
    ) {
        let a = regime_data(regime_a, n, seed);
        let b = regime_data(regime_b, n, seed.rotate_left(23));
        let len = n as u64;
        // value ranges: absent, one bin edge to edge (the upper bound on a
        // bin boundary), the whole span, inverted, empty, and a drawn one
        let one_bin = |binner: &Binner, v: f64| binner.bin_range(binner.bin_of(v) as usize);
        let values = |binner: &Binner| -> Vec<Option<(f64, f64)>> {
            vec![
                None,
                Some(one_bin(binner, picks[0].0)),
                Some((-60.0, 60.0)),
                Some((picks[1].0.max(picks[2].0) + 1.0, picks[1].0.min(picks[2].0))),
                Some((picks[1].0, picks[1].0)),
                Some((picks[2].0.min(picks[3].0), picks[2].0.max(picks[3].0))),
                Some((one_bin(binner, picks[3].0).0, 55.0)),
            ]
        };
        let (values_a, values_b) = (values(&binner_a), values(&binner_b));
        let columns = [Column::new(&a, binner_a.clone()), Column::new(&b, binner_b.clone())];
        let mut at: Vec<u64> = cuts.iter().map(|c| (c * len as f64) as u64).chain([0, len]).collect();
        at.sort_unstable(); // repeated cuts make empty shards, on purpose
        // regions: absent, inside one 31-row segment, across the first chunk
        // edge, across a shard cut, a few rows (fewer than a scattered
        // layout has segments), everything, nothing
        let clip = |r: Range<u64>| r.start.min(len)..r.end.min(len);
        let spot = (picks[0].1 * len as f64) as u64;
        let regions = [
            None,
            Some(clip(spot / 31 * 31 + 3..spot / 31 * 31 + 19)),
            Some(clip(CHUNK_ROWS - 40..CHUNK_ROWS + 40)),
            Some(clip(at[2].saturating_sub(5)..at[2] + 5)),
            Some(clip(spot..spot + 4)),
            Some(0..len),
            Some(spot..spot),
        ];
        for (layout, perm) in layouts(&a, &binner_a, 333) {
            let perm = perm.as_ref();
            let build = |data: &[f64], binner: &Binner| match perm {
                Some(perm) => BitmapIndex::build_permuted(data, binner.clone(), perm),
                None => BitmapIndex::build(data, binner.clone()),
            };
            let (ia, ib) = (build(&a, &binner_a), build(&b, &binner_b));
            let original = |row: u64| perm.map_or(row as usize, |p| p.perm()[row as usize] as usize);
            for cuts in [vec![0, len], at.clone()] {
                let shards: Vec<(Range<u64>, BitmapIndex, BitmapIndex)> = cuts
                    .windows(2)
                    .map(|w| {
                        let of = |idx: &BitmapIndex, how| held(&idx.slice_rows(w[0]..w[1]), how);
                        (w[0]..w[1], of(&ia, held_a), of(&ib, held_b))
                    })
                    .collect();
                for (i, region) in regions.iter().enumerate() {
                    let query = |value: &[Option<(f64, f64)>], k: usize| SubsetQuery {
                        value_range: value[(seed as usize % 7 + k) % 7],
                        position_range: region.clone(),
                    };
                    // a region on either side, or both, is the one joint region
                    let (mut qa, mut qb) = (query(&values_a, i), query(&values_b, 2 * i + 1));
                    match i % 3 {
                        0 => qa.position_range = None,
                        1 => qb.position_range = None,
                        _ => {}
                    }
                    for (x, y, qx, qy) in [(0, 1, &qa, &qb), (0, 0, &qa, &qa), (1, 1, &qa, &qb)] {
                        let ranges = stored_ranges(&[qx, qy], len, perm).unwrap();
                        let ranges = ranges.as_deref();
                        let (cx, cy) = (&columns[x], &columns[y]);
                        let (in_x, in_y) = (cx.admitted(qx).unwrap(), cy.admitted(qy).unwrap());
                        for (rows, sa, sb) in &shards {
                            let (sx, sy) = ([sa, sb][x], [sa, sb][y]);
                            let admitted = rows.clone().map(original).filter(|&r| in_x[r] && in_y[r]);
                            let scan = cx.partial(cy, admitted);
                            let before = counter("query.corr.selection_free");
                            let got = correlation_partial_shard(sx, sy, qx, qy, rows.clone(), ranges).unwrap();
                            // other tests only ever add to the process-wide counter
                            prop_assert!(!cfg!(feature = "obs") || counter("query.corr.selection_free") > before);
                            let tag = format!("{layout} rows={rows:?} x={x} y={y} {qx:?} {qy:?}");
                            prop_assert_eq!(&got, &scan, "{}", tag);
                            let slow = materialised_partial((sx, qx), (sy, qy), rows.clone(), ranges);
                            prop_assert_eq!(&got, &slow, "{}", tag);
                        }
                    }
                }
            }
        }
        // a NaN bound is the planner's typed error on this path too
        let ia = BitmapIndex::build(&a, binner_a);
        for q in [SubsetQuery::value(f64::NAN, 1.0), SubsetQuery::value(1.0, f64::NAN)] {
            for (qa, qb) in [(&q, &SubsetQuery::all()), (&SubsetQuery::all(), &q)] {
                let err = correlation_partial_shard(&ia, &ia, qa, qb, 0..len, None).unwrap_err();
                prop_assert!(matches!(err, QueryError::NanBound { .. }));
            }
        }
        let short = correlation_partial_shard(&ia, &ia, &SubsetQuery::all(), &SubsetQuery::all(), 0..len - 1, None);
        prop_assert!(matches!(short, Err(QueryError::LengthMismatch { .. })));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Counting a plan equals materialising it and counting, and a scan of
    /// the raw values — for the planner's own choice and for every plan
    /// variant forced, on every binner kind and data regime (NaN and ±inf
    /// rows included), under every kind of range list.
    #[test]
    fn count_equals_materialise_then_count_and_scan(
        binner in any_binner(),
        regime in 0usize..4,
        seed in any::<u64>(),
        n in 1usize..700,
        value in (-55.0f64..55.0, -55.0f64..55.0),
        picks in proptest::collection::vec((0u64..200, 0u64..150), 0..6),
    ) {
        let data = regime_data(regime, n, seed);
        let idx = &BitmapIndex::build(&data, binner.clone());
        let column = Column::new(&data, binner);
        let queries = [
            SubsetQuery::all(),
            SubsetQuery::value(value.0, value.1),
            SubsetQuery::value(value.0.min(value.1), value.0.max(value.1) + 1.0),
            SubsetQuery::value(-60.0, 60.0),
            SubsetQuery::value(f64::NEG_INFINITY, f64::INFINITY),
            SubsetQuery::value(5.0, 2.0),
            SubsetQuery::value(3.0, 3.0),
        ];
        for ranges in range_lists(n as u64, &picks) {
            let ranges = ranges.as_deref();
            let mask = ranges.map(|r| shard_mask(r, 0..n as u64));
            let kept = |row: usize| {
                ranges.is_none_or(|r| r.iter().any(|r| r.contains(&(row as u64))))
            };
            for q in &queries {
                let scan = column.admitted(q).unwrap();
                let want = (0..n).filter(|&row| scan[row] && kept(row)).count() as u64;
                let sel = q.evaluate_masked(idx, mask.as_ref()).unwrap();
                prop_assert_eq!(sel.count_ones(), want, "{:?} {:?}", q, ranges);
                prop_assert_eq!(q.count(idx, ranges), Ok(want), "{:?} {:?}", q, ranges);
                let Some((lo, hi)) = q.value_range else { continue };
                let Some((b0, b1)) = idx.bin_span(lo, hi) else {
                    let plan = plan_value_range(idx, None, lo, hi).unwrap();
                    prop_assert_eq!(&plan, &RangePlan::Empty);
                    prop_assert_eq!(count_range_plan(idx, &plan, ranges), 0);
                    continue;
                };
                for plan in forced_plans(b0, b1) {
                    let got = count_range_plan(idx, &plan, ranges);
                    prop_assert_eq!(got, want, "{:?} {:?}", &plan, ranges);
                    let sel = execute_range_plan(idx, None, &plan);
                    let sel = mask.as_ref().map_or(sel.clone(), |m| sel.and(m));
                    prop_assert_eq!(sel.count_ones(), want, "{:?} {:?}", &plan, ranges);
                }
            }
            // a NaN bound is the same typed error, with the same message,
            // on every path
            for (lo, hi) in [(f64::NAN, 1.0), (1.0, f64::NAN)] {
                let q = SubsetQuery::value(lo, hi);
                let err = q.evaluate_masked(idx, mask.as_ref()).unwrap_err();
                prop_assert!(matches!(err, QueryError::NanBound { .. }));
                let counted = q.count(idx, ranges).unwrap_err();
                prop_assert_eq!(counted.to_string(), err.to_string());
            }
        }
        // ranges past the index's rows are a typed error, not a panic
        let n = n as u64;
        let err = QueryError::RegionOutOfRange { start: 1, end: n + 1, len: n };
        let past = [0..1, 1..n + 1];
        prop_assert_eq!(SubsetQuery::all().count(idx, Some(&past)), Err(err));
    }

    /// An index of overlapping bins does not partition its rows: a count
    /// or a correlation partial over it is `NotAPartition`, never a number,
    /// while its materialised selection never hides an exact row. On the
    /// exact index, per-shard counts over [`shard_ranges`] add up to the
    /// whole.
    #[test]
    fn a_lossy_operand_is_not_a_partition(
        binner in small_binner(),
        seed in any::<u64>(),
        n in 64usize..3000,
        value in (-55.0f64..55.0, 0.0f64..60.0),
        picks in proptest::collection::vec((0u64..400, 0u64..300), 0..6),
        cut in 0.0f64..1.0,
    ) {
        // every exact bin, one of them widened by rows it does not hold
        let data = regime_data(0, n, seed);
        let exact = BitmapIndex::build(&data, binner.clone());
        let mut bins: Vec<WahVec> = exact.bins().cloned().collect();
        let k = seed as usize % bins.len();
        bins[k] = bins[k].or(&WahVec::from_bits((0..n).map(|i| i % 13 == 5)));
        let widened = BitmapIndex::from_bins(binner, bins);
        let n = n as u64;
        let q = SubsetQuery::value(value.0, value.0 + value.1);
        // a widening that adds no row leaves a partition, and it counts
        let refused = QueryError::NotAPartition { rows: n, counted: widened.counts().iter().sum() };
        let refused = (!widened.partitions()).then_some(refused);
        let all = SubsetQuery::all();
        for (x, y) in [(&widened, &exact), (&exact, &widened), (&widened, &widened)] {
            let got = correlation_partial_shard(x, y, &all, &q, 0..n, None);
            match &refused {
                Some(e) => prop_assert_eq!(got, Err(e.clone())),
                None => prop_assert!(got.is_ok()),
            }
        }
        for ranges in range_lists(n, &picks) {
            let ranges = ranges.as_deref();
            let mask = ranges.map(|r| shard_mask(r, 0..n));
            let superset = q.evaluate_masked(&widened, mask.as_ref()).unwrap().count_ones();
            let exact_rows = q.count(&exact, ranges).unwrap();
            match &refused {
                Some(e) => prop_assert_eq!(q.count(&widened, ranges), Err(e.clone())),
                None => prop_assert_eq!(q.count(&widened, ranges), Ok(exact_rows)),
            }
            // the widened selection never hides an exact row
            prop_assert!(exact_rows <= superset);
            // each shard's share, counted in its own row numbers
            let Some(r) = ranges else { continue };
            let at = (cut * n as f64) as u64;
            let shares = [0..at, at..n].map(|rows| {
                let local = shard_ranges(r, rows.clone());
                q.count(&exact.slice_rows(rows), Some(&local)).unwrap()
            });
            prop_assert_eq!(shares[0] + shares[1], exact_rows, "cut at {}", at);
        }
    }
}

/// `n` integer values in `0..10` whose bins, held as Roaring, take every
/// container form, read from row `shift` on (wrapping): plateaus of bins
/// 4–8 up to row 30 000 (run containers), noise over bins 0–3 from there
/// across the first container edge to row 100 000 (bitset containers, so
/// segments straddle the edge), then bin 9 salted with lone rows of every
/// other bin (array containers, and bin 9's runs).
fn mixed_forms(n: usize, seed: u64, shift: usize) -> Vec<f64> {
    let hash = |i: usize| (i as u64 ^ seed).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40;
    let plateau = 40 + seed as usize % 400;
    (0..n)
        .map(|i| match (i + shift) % n {
            r if r < 30_000 => 4 + (r / plateau) % 5,
            r if r < 100_000 => hash(r) as usize % 4,
            r if hash(r) % 37 == 0 => hash(r + 1) as usize % 9,
            _ => 9,
        } as f64)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The label walk reads a Roaring bin container by container, each in
    /// its own form: on indices whose bins mix array, bitset and run
    /// containers across the 65 536-row container edges and every chunk
    /// edge, the table and the per-range counts are the same on the
    /// Roaring-held index, on its WAH-held copy, and from the reference
    /// model's scan — over every bin and restricted spans, every row, one
    /// region and scattered single rows, two operands and one.
    #[test]
    fn the_walk_reads_every_container_form(
        seed in any::<u64>(),
        extra in 0usize..20_000,
        shift in 0usize..40_000,
        span in (0usize..5, 5usize..11),
        region in (0u64..60_000, 10_000u64..80_000),
        stride in (20u64..200, 0u64..20),
    ) {
        let n = 2 * CONTAINER_BITS as usize + extra;
        let (a, b) = (mixed_forms(n, seed, 0), mixed_forms(n, seed.rotate_left(17), shift));
        let binner = Binner::distinct_ints(0, 9);
        let (ia, ib) = (BitmapIndex::build(&a, binner.clone()), BitmapIndex::build(&b, binner.clone()));
        let roaring = [held(&ia, 1), held(&ib, 1)];
        let wah = [held(&ia, 0), held(&ib, 0)];
        let forms: Vec<ContainerForm> = roaring.iter().flat_map(|idx| {
            (0..idx.nbins()).flat_map(move |bin| match idx.stored_bin(bin) {
                CodecVec::Roaring(v) => v.container_forms(),
                CodecVec::Wah(_) => Vec::new(),
            })
        }).collect();
        for form in [ContainerForm::Array, ContainerForm::Bits, ContainerForm::Runs] {
            prop_assert!(forms.contains(&form), "no {:?} container", form);
        }
        let len = n as u64;
        let one = region.0..(region.0 + region.1).min(len);
        let scattered: Vec<Range<u64>> = (stride.1..len).step_by(stride.0 as usize).map(|r| r..r + 1).collect();
        let columns = [Column::new(&a, binner.clone()), Column::new(&b, binner.clone())];
        let values = [&a, &b];
        for ranges in [None, Some(vec![one]), Some(scattered)] {
            let ranges = ranges.as_deref();
            let whole = 0..len;
            let stretches = ranges.unwrap_or(std::slice::from_ref(&whole));
            for (bins_x, bins_y) in [(0..10, 0..10), (span.0..span.1, 0..10), (3..9, span.0..span.1)] {
                for (x, y) in [(0, 1), (0, 0)] {
                    let admits = |row: usize| {
                        bins_x.contains(&(binner.bin_of(values[x][row]) as usize))
                            && bins_y.contains(&(binner.bin_of(values[y][row]) as usize))
                    };
                    // the model's table of each range, and of all of them
                    let per_range: Vec<Vec<u64>> = stretches.iter().map(|r| {
                        let rows = (r.start as usize..r.end as usize).filter(|&row| admits(row));
                        columns[x].partial(&columns[y], rows).joint
                    }).collect();
                    let table = per_range.iter().fold(vec![0; 100], |mut sum, t| {
                        sum.iter_mut().zip(t).for_each(|(s, c)| *s += c);
                        sum
                    });
                    for (held, pair) in [("roaring", &roaring), ("wah", &wah)] {
                        let (ix, iy) = (&pair[x], &pair[y]);
                        let tag = format!("{held} x={x} y={y} {bins_x:?} {bins_y:?} ranges={}", stretches.len());
                        let got = joint_counts_where(ix, iy, bins_x.clone(), bins_y.clone(), ranges);
                        prop_assert_eq!(&got, &table, "{}", tag);
                        let mut got = vec![vec![0u64; 100]; stretches.len()];
                        joint_counts_per_range(ix, iy, bins_x.clone(), bins_y.clone(), ranges, |i, j, k, c| {
                            got[i][j * 10 + k] += c
                        });
                        prop_assert_eq!(&got, &per_range, "{}", tag);
                    }
                }
            }
        }
    }
}
