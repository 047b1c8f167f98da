//! CRC32-C (Castagnoli) — the integrity checksum of store format v2.
//!
//! Reflected polynomial `0x82F63B78`: the CRC SSE4.2's `crc32` instruction
//! and most storage systems (iSCSI, ext4, Btrfs) compute, so stored
//! checksums remain meaningful to external tooling.
//!
//! Every blob write, blob read, journal line and checkpoint goes through
//! [`crc32c_append`], which picks its kernel from what the CPU reports at
//! run time: the SSE4.2 `crc32` instruction (8 bytes per step) on x86-64
//! hosts that have it, the portable slicing-by-8 tables ([`crc32c_sw`])
//! everywhere else. Both compute the same function — the differential
//! tests below pin them to each other and to a bytewise oracle — so the
//! choice never shows in stored bytes.

/// The reflected Castagnoli polynomial.
const POLY: u32 = 0x82F6_3B78;

/// Slicing-by-8 lookup tables, built at compile time. `TABLES[0]` is the
/// classic one-byte table; `TABLES[k][b]` is the CRC of byte `b` followed
/// by `k` zero bytes, so eight lookups fold eight input bytes at once.
const TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// CRC32-C of `bytes`.
pub fn crc32c(bytes: &[u8]) -> u32 {
    crc32c_append(0, bytes)
}

/// Continues a CRC32-C over more bytes (for incremental checksumming).
pub fn crc32c_append(crc: u32, bytes: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if std::is_x86_feature_detected!("sse4.2") {
        // SAFETY: the SSE4.2 `crc32` instruction was detected just above.
        return unsafe { crc32c_hw(crc, bytes) };
    }
    crc32c_sw(crc, bytes)
}

/// [`crc32c_append`] on the SSE4.2 `crc32` instruction: eight bytes per
/// step through unaligned little-endian loads, the tail bytewise.
///
/// # Safety
///
/// The CPU must support SSE4.2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse4.2")]
unsafe fn crc32c_hw(crc: u32, bytes: &[u8]) -> u32 {
    use std::arch::x86_64::{_mm_crc32_u64, _mm_crc32_u8};
    let (chunks, tail) = bytes.as_chunks::<8>();
    let mut wide = u64::from(!crc);
    for chunk in chunks {
        wide = _mm_crc32_u64(wide, u64::from_le_bytes(*chunk));
    }
    let mut crc = wide as u32;
    for &b in tail {
        crc = _mm_crc32_u8(crc, b);
    }
    !crc
}

/// [`crc32c_append`] on the portable slicing-by-8 tables — the path every
/// host without a CRC instruction takes. Public so the kernel bench can
/// time it beside the dispatching entry point.
pub fn crc32c_sw(crc: u32, bytes: &[u8]) -> u32 {
    let (chunks, tail) = bytes.as_chunks::<8>();
    let mut crc = !crc;
    for chunk in chunks {
        let lo = crc ^ u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        crc = TABLES[7][(lo & 0xFF) as usize]
            ^ TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ TABLES[4][(lo >> 24) as usize]
            ^ TABLES[3][chunk[4] as usize]
            ^ TABLES[2][chunk[5] as usize]
            ^ TABLES[1][chunk[6] as usize]
            ^ TABLES[0][chunk[7] as usize];
    }
    for &b in tail {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    !crc
}

/// Little-endian `u32` from the first 4 bytes of `b`; missing bytes read
/// as zero, so short input cannot panic (callers length-check first).
pub(crate) fn le_u32(b: &[u8]) -> u32 {
    let mut a = [0u8; 4];
    for (d, s) in a.iter_mut().zip(b) {
        *d = *s;
    }
    u32::from_le_bytes(a)
}

/// Little-endian `u64` from the first 8 bytes of `b`; same contract as
/// [`le_u32`].
pub(crate) fn le_u64(b: &[u8]) -> u64 {
    let mut a = [0u8; 8];
    for (d, s) in a.iter_mut().zip(b) {
        *d = *s;
    }
    u64::from_le_bytes(a)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The one-byte-at-a-time table loop: the oracle both kernels are
    /// pinned to.
    fn crc32c_bytewise(crc: u32, bytes: &[u8]) -> u32 {
        let mut crc = !crc;
        for &b in bytes {
            crc = (crc >> 8) ^ TABLES[0][((crc ^ u32::from(b)) & 0xFF) as usize];
        }
        !crc
    }

    /// A CRC kernel: `(running crc, bytes) -> crc`.
    type Kernel = fn(u32, &[u8]) -> u32;

    /// The hardware kernel, where this host has one.
    fn hw() -> Option<Kernel> {
        #[cfg(target_arch = "x86_64")]
        if std::is_x86_feature_detected!("sse4.2") {
            // SAFETY: SSE4.2 was detected just above.
            return Some(|crc, bytes| unsafe { crc32c_hw(crc, bytes) });
        }
        None
    }

    /// Every path this host can run, by name — called directly, so no test
    /// depends on which one the dispatcher picks.
    fn paths() -> Vec<(&'static str, Kernel)> {
        let mut paths: Vec<(&'static str, Kernel)> = vec![
            ("bytewise", crc32c_bytewise),
            ("slicing-by-8", crc32c_sw),
            ("dispatch", crc32c_append),
        ];
        paths.extend(hw().map(|f| ("hardware", f)));
        paths
    }

    /// Deterministic filler (SplitMix64), cheap enough for MiB buffers in
    /// a debug build.
    fn noise(seed: u64, len: usize) -> Vec<u8> {
        let mut state = seed;
        let mut out = Vec::with_capacity(len + 8);
        while out.len() < len {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            out.extend_from_slice(&(z ^ (z >> 31)).to_le_bytes());
        }
        out.truncate(len);
        out
    }

    #[test]
    fn known_vectors() {
        // RFC 3720 / iSCSI test vectors, on every path
        let ascending: Vec<u8> = (0..32).collect();
        let descending: Vec<u8> = (0..32).rev().collect();
        for (name, path) in paths() {
            assert_eq!(path(0, b""), 0x0000_0000, "{name}");
            assert_eq!(path(0, b"123456789"), 0xE306_9283, "{name}");
            assert_eq!(path(0, &[0u8; 32]), 0x8A91_36AA, "{name}");
            assert_eq!(path(0, &[0xFFu8; 32]), 0x62A8_AB43, "{name}");
            assert_eq!(path(0, &ascending), 0x46DD_794E, "{name}");
            assert_eq!(path(0, &descending), 0x113F_DB5C, "{name}");
        }
    }

    #[test]
    fn incremental_matches_oneshot() {
        let data: Vec<u8> = (0..=255).collect();
        let oneshot = crc32c(&data);
        let mut inc = 0;
        for chunk in data.chunks(7) {
            inc = crc32c_append(inc, chunk);
        }
        assert_eq!(inc, oneshot);
    }

    #[test]
    fn short_lengths_and_misalignments_agree_exhaustively() {
        // every length 0..=64 at every start offset within an 8-byte word
        let buf = noise(7, 64 + 8);
        for offset in 0..8 {
            for len in 0..=64 {
                let bytes = &buf[offset..offset + len];
                let want = crc32c_bytewise(0x1234_5678, bytes);
                for (name, path) in paths() {
                    assert_eq!(
                        path(0x1234_5678, bytes),
                        want,
                        "{name} offset {offset} len {len}"
                    );
                }
            }
        }
    }

    proptest! {
        #[test]
        fn kernels_agree_on_random_buffers(
            seed in any::<u64>(),
            len in prop_oneof![0usize..4096, 0usize..(1 << 20) + 1],
            offset in 0usize..8,
            init in any::<u32>(),
            split in any::<u64>(),
        ) {
            let buf = noise(seed, offset + len);
            let bytes = &buf[offset..];
            let want = crc32c_bytewise(init, bytes);
            for (name, path) in paths() {
                prop_assert_eq!(path(init, bytes), want, "{}", name);
            }
            // incremental checksumming through the public entry point
            let (head, tail) = bytes.split_at((split % (len as u64 + 1)) as usize);
            prop_assert_eq!(crc32c_append(crc32c_append(init, head), tail), want);
        }
    }

    #[test]
    fn single_byte_flip_changes_crc() {
        let data = vec![7u8; 100];
        let base = crc32c(&data);
        for i in [0usize, 50, 99] {
            let mut flipped = data.clone();
            flipped[i] ^= 0x01;
            assert_ne!(crc32c(&flipped), base, "flip at {i} must be detected");
        }
    }
}
