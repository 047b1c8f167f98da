//! Property-based tests for the in-situ substrate: storage models,
//! scaling/calibration math, codec robustness, memory accounting.

use ibis_insitu::{
    codec, CachedStore, Calibration, CoreAllocation, LocalDisk, MemoryTracker, RemoteLink,
    ScalingModel, Storage, Store, StoreWriter,
};
use ibis_testkit::TempDir;
use proptest::prelude::*;

proptest! {
    #[test]
    fn local_disk_time_is_exact(bw in 1.0f64..1e9, writes in proptest::collection::vec(1u64..1_000_000, 1..20)) {
        let d = LocalDisk::new(bw);
        let mut total = 0.0;
        for &w in &writes {
            total += d.write(0.0, w).unwrap();
        }
        let want: f64 = writes.iter().map(|&w| w as f64 / bw).sum();
        prop_assert!((total - want).abs() < 1e-9 * want.max(1.0));
        prop_assert_eq!(d.bytes_written(), writes.iter().sum::<u64>());
    }

    #[test]
    fn remote_link_conserves_bandwidth(
        bw in 1.0f64..1e6,
        writes in proptest::collection::vec((0.0f64..100.0, 1u64..100_000), 1..20),
    ) {
        // No matter the arrival pattern, the link transfers at most bw
        // bytes/second: the last completion is at least total_bytes/bw after
        // the first arrival.
        let link = RemoteLink::new(bw);
        let mut completions = Vec::new();
        let mut first_arrival = f64::INFINITY;
        let mut total_bytes = 0u64;
        for &(now, bytes) in &writes {
            let wait = link.write(now, bytes).unwrap();
            completions.push(now + wait);
            first_arrival = first_arrival.min(now);
            total_bytes += bytes;
        }
        let last = completions.iter().cloned().fold(0.0, f64::max);
        prop_assert!(
            last + 1e-9 >= first_arrival + total_bytes as f64 / bw,
            "link moved {total_bytes} bytes faster than its bandwidth"
        );
        // each write takes at least its own transfer time
        for (&(_, bytes), (&(now, _), &done)) in
            writes.iter().zip(writes.iter().zip(&completions))
        {
            prop_assert!(done + 1e-9 >= now + bytes as f64 / bw);
        }
    }

    #[test]
    fn scaling_speedup_monotone(s in 0.0f64..1.0, a in 1usize..128, b in 1usize..128) {
        let m = ScalingModel::new(s);
        let (lo, hi) = (a.min(b), a.max(b));
        prop_assert!(m.speedup(hi) + 1e-12 >= m.speedup(lo));
        if s > 0.0 {
            prop_assert!(m.speedup(hi) <= 1.0 / s + 1e-9);
        }
    }

    #[test]
    fn calibration_split_properties(ts in 1e-6f64..100.0, tb in 1e-6f64..100.0, total in 2usize..128) {
        let cal = Calibration { time_simulate: ts, time_bitmap: tb };
        let CoreAllocation::Separate { sim_cores, bitmap_cores } = cal.allocate(total) else {
            prop_assert!(false, "allocate must split");
            unreachable!()
        };
        prop_assert_eq!(sim_cores + bitmap_cores, total);
        prop_assert!(sim_cores >= 1 && bitmap_cores >= 1);
        // heavier simulation never gets fewer cores than a lighter one would
        let cal2 = Calibration { time_simulate: ts * 2.0, time_bitmap: tb };
        let CoreAllocation::Separate { sim_cores: s2, .. } = cal2.allocate(total) else {
            unreachable!()
        };
        prop_assert!(s2 >= sim_cores);
    }

    #[test]
    fn index_codec_roundtrip(data in proptest::collection::vec(-10.0f64..10.0, 0..400), nbins in 1usize..20) {
        let binner = ibis_core::Binner::fixed_width(-10.0, 10.0, nbins);
        let idx = ibis_core::BitmapIndex::build(&data, binner);
        let blob = codec::encode_index(&idx);
        let back = codec::decode_index(&blob).expect("own encoding must decode");
        prop_assert_eq!(back.binner(), idx.binner());
        prop_assert_eq!(back.counts(), idx.counts());
    }

    #[test]
    fn index_codec_never_panics_on_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..200)) {
        let _ = codec::decode_index(&bytes); // must not panic
    }

    #[test]
    fn index_codec_never_panics_on_mutated_blobs(
        data in proptest::collection::vec(-5.0f64..5.0, 1..200),
        pos in 0usize..10_000,
        xor in 1u8..255,
    ) {
        // adversarial bytes that are *almost* a valid blob: a single-byte
        // corruption anywhere must decode to Ok or Err, never a panic
        let binner = ibis_core::Binner::fixed_width(-5.0, 5.0, 8);
        let idx = ibis_core::BitmapIndex::build(&data, binner);
        let mut blob = codec::encode_index(&idx);
        let i = pos % blob.len();
        blob[i] ^= xor;
        let _ = codec::decode_index(&blob);
    }

    #[test]
    fn index_codec_rejects_any_truncation(data in proptest::collection::vec(0.0f64..5.0, 1..100)) {
        let binner = ibis_core::Binner::fixed_width(0.0, 5.0, 5);
        let idx = ibis_core::BitmapIndex::build(&data, binner);
        let blob = codec::encode_index(&idx);
        for cut in [1usize, blob.len() / 2, blob.len() - 1] {
            prop_assert!(codec::decode_index(&blob[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn lossy_companion_survives_store_fsck_and_cache(
        data in proptest::collection::vec((-8.0f64..8.0, 1usize..30), 1..40),
        nbins in 2usize..16,
        fpr in prop_oneof![Just(1e-4), Just(1e-2), Just(1e-1), 1e-4f64..1e-1],
        case in 0u64..1_000_000,
    ) {
        // Round trip: put + put_lossy → finish → reopen → fsck (clean) →
        // CachedStore::get_lossy — the companion comes back with its FPR
        // and drop accounting intact and still a per-bin superset of the
        // exact index.
        let data: Vec<f64> = data
            .into_iter()
            .flat_map(|(v, n)| std::iter::repeat_n(v, n))
            .collect();
        let binner = ibis_core::Binner::fixed_width(-8.0, 8.0, nbins);
        let idx = ibis_core::BitmapIndex::build(&data, binner);
        let (lossy, stats) = idx.lossy(fpr);

        let dir = TempDir::new(&format!("prop-lossy-{case}"));
        let mut w = StoreWriter::create(&dir).expect("create store");
        w.put(3, "field", &idx).expect("put exact");
        w.put_lossy(3, "field", &lossy, fpr, &stats).expect("put lossy");
        w.finish().expect("finish");

        let mut store = Store::open(&dir).expect("reopen");
        let report = store.fsck();
        prop_assert!(report.quarantined.is_empty(), "fsck quarantined a healthy companion");
        prop_assert!(report.checked >= 2, "fsck skipped the companion");

        let cache = CachedStore::new(store, 1 << 20);
        let companion = cache
            .get_lossy("field", 3)
            .expect("load companion")
            .expect("companion must exist");
        prop_assert_eq!(companion.fpr, fpr);
        prop_assert_eq!(companion.bits_dropped, stats.bits_dropped);
        prop_assert_eq!(companion.zeros, stats.zeros);
        prop_assert_eq!(companion.index.nbins(), idx.nbins());
        for b in 0..idx.nbins() {
            let (e, l) = (idx.bin(b), companion.index.bin(b));
            prop_assert_eq!(&e.and(l), e, "bin {} lost a set bit in the round trip", b);
        }
        // memoized path returns the same companion
        let again = cache.get_lossy("field", 3).unwrap().unwrap();
        prop_assert!(std::sync::Arc::ptr_eq(&companion, &again));
    }

    #[test]
    fn memory_tracker_invariants(ops in proptest::collection::vec(1u64..1000, 1..50)) {
        // alloc everything, then free everything: current returns to zero
        // and peak equals the running maximum
        let m = MemoryTracker::new();
        let mut live = Vec::new();
        let mut running = 0u64;
        let mut max_seen = 0u64;
        for &sz in &ops {
            m.alloc(sz);
            live.push(sz);
            running += sz;
            max_seen = max_seen.max(running);
            prop_assert_eq!(m.current(), running);
        }
        prop_assert_eq!(m.peak(), max_seen);
        for sz in live {
            m.free(sz);
        }
        prop_assert_eq!(m.current(), 0);
        prop_assert_eq!(m.peak(), max_seen, "peak survives frees");
    }
}
