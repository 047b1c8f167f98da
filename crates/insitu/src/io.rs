//! Storage cost models and the index payload codec.
//!
//! The paper's win comes from writing compressed bitmaps instead of raw
//! arrays. We model write time as `bytes / bandwidth` for the local-disk
//! case, and for the cluster's shared remote data server we serialize
//! transfers through a single contended link ([`RemoteLink`]), which is
//! what produces the Figure 13 remote-case speedups. Real bytes go to disk
//! through [`crate::store`], which frames what [`codec`] encodes, and
//! every change it makes to a run directory goes through [`FileOps`].
//!
//! All modeled writes are fallible: [`Storage::write`] returns a typed
//! [`StorageError`] instead of panicking, and the pipeline routes every
//! modeled write through [`crate::retry::write_with_retry`].

use crate::error::DecodeError;
use parking_lot::Mutex;
use std::fs::{File, OpenOptions};
use std::io::{self, Seek, SeekFrom, Write};
use std::path::Path;

/// Why a storage target rejected a write.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StorageError {
    /// The storage target's description.
    pub site: String,
    /// What went wrong.
    pub message: String,
    /// Whether a retry may succeed.
    pub transient: bool,
}

impl std::fmt::Display for StorageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.site, self.message)
    }
}

impl std::error::Error for StorageError {}

/// A storage target with modeled write cost.
pub trait Storage: Send + Sync {
    /// Records a write of `bytes` starting at pipeline time `now` (seconds);
    /// returns the seconds until the write completes (including any queueing
    /// behind other writers), or a typed error when the target rejects it.
    fn write(&self, now: f64, bytes: u64) -> Result<f64, StorageError>;

    /// Total bytes accepted so far.
    fn bytes_written(&self) -> u64;

    /// Human-readable description of the target, used in error reports.
    fn describe(&self) -> String {
        "storage".to_string()
    }
}

/// A node-local disk with fixed bandwidth: no contention between nodes.
#[derive(Debug)]
pub struct LocalDisk {
    bw: f64,
    written: Mutex<u64>,
}

impl LocalDisk {
    /// A disk writing at `bandwidth` bytes/second.
    pub fn new(bandwidth: f64) -> Self {
        assert!(bandwidth > 0.0, "bandwidth must be positive");
        LocalDisk {
            bw: bandwidth,
            written: Mutex::new(0),
        }
    }
}

impl Storage for LocalDisk {
    fn write(&self, _now: f64, bytes: u64) -> Result<f64, StorageError> {
        *self.written.lock() += bytes;
        Ok(bytes as f64 / self.bw)
    }

    fn bytes_written(&self) -> u64 {
        *self.written.lock()
    }

    fn describe(&self) -> String {
        "local disk".to_string()
    }
}

/// The single remote data server of the cluster experiment: one shared link
/// of ~100 MB/s. Concurrent writers queue — a node's write completes only
/// after everything ahead of it has drained, so the *effective* per-node
/// bandwidth falls as the node count grows, exactly the effect that makes
/// the bitmaps method pull ahead remotely (1.24×→3.79× in Figure 13).
#[derive(Debug)]
pub struct RemoteLink {
    bw: f64,
    state: Mutex<RemoteState>,
}

#[derive(Debug, Default)]
struct RemoteState {
    busy_until: f64,
    written: u64,
}

impl RemoteLink {
    /// A link transferring at `bandwidth` bytes/second.
    pub fn new(bandwidth: f64) -> Self {
        assert!(bandwidth > 0.0, "bandwidth must be positive");
        RemoteLink {
            bw: bandwidth,
            state: Mutex::new(RemoteState::default()),
        }
    }
}

impl Storage for RemoteLink {
    fn write(&self, now: f64, bytes: u64) -> Result<f64, StorageError> {
        let mut st = self.state.lock();
        let start = st.busy_until.max(now);
        let end = start + bytes as f64 / self.bw;
        st.busy_until = end;
        st.written += bytes;
        Ok(end - now)
    }

    fn bytes_written(&self) -> u64 {
        self.state.lock().written
    }

    fn describe(&self) -> String {
        "remote link".to_string()
    }
}

/// The one door every change to a run directory goes through — appends,
/// cuts, syncs, renames and unlinks; reads go to `std::fs`. Each operation
/// is its `std::fs` call, all [`Disk`] does. A crash test passes one that
/// also logs them ([`crate::pipeline::run_durable_on`],
/// [`crate::ShardedWriter::create_on`], [`crate::ShardedWriter::resume_on`],
/// [`crate::Store::fsck_on`]).
pub trait FileOps: Send + Sync + std::fmt::Debug {
    /// Opens `path` for writing: made if missing, emptied if `truncate`.
    fn open(&self, path: &Path, truncate: bool) -> io::Result<File> {
        let mut open = OpenOptions::new();
        open.write(true).create(true).truncate(truncate).open(path)
    }

    /// Writes all of `bytes` at offset `at` of `file`.
    fn write_at(&self, file: &mut File, at: u64, bytes: &[u8]) -> io::Result<()> {
        file.seek(SeekFrom::Start(at))?;
        file.write_all(bytes)
    }

    /// Cuts (or extends) `file` to `len` bytes.
    fn set_len(&self, file: &File, len: u64) -> io::Result<()> {
        file.set_len(len)
    }

    /// `fdatasync`s `file`: its bytes and their length survive a crash.
    fn sync(&self, file: &File) -> io::Result<()> {
        file.sync_data()
    }

    /// `fsync`s directory `dir`: the names made or removed in it survive.
    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        File::open(dir)?.sync_all()
    }

    /// Renames `from` to `to`, replacing a file there.
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        std::fs::rename(from, to)
    }

    /// Removes the file at `path`, or the directory and all under it.
    fn remove(&self, path: &Path) -> io::Result<()> {
        match path.is_dir() {
            true => std::fs::remove_dir_all(path),
            false => std::fs::remove_file(path),
        }
    }
}

/// The file system itself: every [`FileOps`] operation its `std::fs` call.
#[derive(Debug, Clone, Copy, Default)]
pub struct Disk;

impl FileOps for Disk {}

/// Writes `bytes` to `tmp`, syncs, renames onto `path` and syncs the
/// directory, so the new name survives a crash too — the atomic write
/// primitive behind every manifest, checkpoint and `SHARDS` file. On any
/// failure the final name is untouched.
pub(crate) fn write_atomic(fs: &dyn FileOps, tmp: &Path, path: &Path, b: &[u8]) -> io::Result<()> {
    let mut f = fs.open(tmp, true)?;
    fs.write_at(&mut f, 0, b)?;
    fs.sync(&f)?;
    drop(f);
    fs.rename(tmp, path)?;
    fs.sync_dir(path.parent().unwrap_or(Path::new(".")))
}

/// Serializes a WAH bitvector into a portable byte blob (little-endian
/// `len` + words) and back — the on-disk format for selected bitmaps.
///
/// Decoding is *total*: any byte string either decodes to a valid value or
/// yields a typed [`DecodeError`]; no input panics the decoder (the
/// adversarial property tests feed it arbitrary mutations of valid blobs).
pub mod codec {
    use super::DecodeError;
    use ibis_core::{Binner, BinnerSpec, BitmapIndex, CodecId, CodecVec, RoaringVec, WahVec};
    use ibis_obs::LazyCounter;

    const INDEX_MAGIC: &[u8; 4] = b"IBIS";
    const INDEX_VERSION: u32 = 1;
    /// Version 2 carries one codec tag per bin ahead of each blob; version
    /// 1 (untagged) remains fully readable and means all-WAH.
    const INDEX_VERSION_TAGGED: u32 = 2;

    // Per-bin payload traffic through the index codec, by bitmap codec —
    // no-ops when ibis-obs is built without its `obs` feature.
    static OBS_ENCODE_BINS: LazyCounter = LazyCounter::new("codec.encode.bins");
    static OBS_DECODE_BINS: LazyCounter = LazyCounter::new("codec.decode.bins");
    // bins left in their at-rest Roaring form, for `BitmapIndex::bin` to
    // transcode if anything ever asks (`codec.decode.transcoded_bins`)
    static OBS_DECODE_DEFERRED: LazyCounter = LazyCounter::new("codec.decode.deferred_bins");

    /// Encodes a complete index — binner, element count, every bitvector —
    /// into one blob, every bin as WAH (the version-1 layout). The binner
    /// round-trips exactly, so analyses on a reloaded index remain
    /// metric-compatible with in-memory indices.
    pub fn encode_index(index: &BitmapIndex) -> Vec<u8> {
        let mut out = Vec::with_capacity(index.size_bytes() + 64);
        put_index_header(&mut out, INDEX_VERSION, index);
        for bin in index.bins() {
            OBS_ENCODE_BINS.inc();
            put_blob(&mut out, |out| put_wah(out, bin));
        }
        out
    }

    /// Encodes an index under its per-bin codec plan
    /// ([`BitmapIndex::codec_plan`]), returning the blob and the plan. An
    /// all-WAH plan emits the untagged version-1 layout **byte-identically**
    /// — coherent data costs nothing and stays readable by version-1
    /// readers. Any non-WAH bin switches the payload to version 2, where
    /// each bin carries a codec tag (`u8`, [`CodecId::tag`]) ahead of its
    /// length-prefixed blob: WAH bins keep the [`encode`] layout, Roaring
    /// bins store [`RoaringVec::serialize`]. A built index holds every bin
    /// in its planned codec already, so nothing is converted or counted
    /// again.
    pub fn encode_index_auto(index: &BitmapIndex) -> (Vec<u8>, Vec<CodecId>) {
        let mut out = Vec::with_capacity(index.size_bytes() + 64);
        let plan = index.codec_plan();
        let tagged = plan.iter().any(|&c| c != CodecId::Wah);
        let version = if tagged {
            INDEX_VERSION_TAGGED
        } else {
            INDEX_VERSION
        };
        put_index_header(&mut out, version, index);
        for (b, &codec) in plan.iter().enumerate() {
            OBS_ENCODE_BINS.inc();
            if tagged {
                out.push(codec.tag());
            }
            put_blob(&mut out, |out| match (codec, index.stored_bin(b)) {
                (CodecId::Wah, _) => put_wah(out, index.bin(b)),
                (CodecId::Roaring, CodecVec::Roaring(r)) => r.serialize_into(out),
                (CodecId::Roaring, CodecVec::Wah(v)) => RoaringVec::from_wah(v).serialize_into(out),
            });
        }
        (out, plan)
    }

    /// The part of an index blob ahead of its bins: magic, layout version,
    /// binner spec, element count, bin count.
    fn put_index_header(out: &mut Vec<u8>, version: u32, index: &BitmapIndex) {
        out.extend_from_slice(INDEX_MAGIC);
        out.extend_from_slice(&version.to_le_bytes());
        match index.binner().spec() {
            BinnerSpec::Width { min, width, nbins } => {
                out.push(0u8);
                out.extend_from_slice(&min.to_le_bytes());
                out.extend_from_slice(&width.to_le_bytes());
                out.extend_from_slice(&(nbins as u64).to_le_bytes());
            }
            BinnerSpec::Edges(edges) => {
                out.push(1u8);
                out.extend_from_slice(&(edges.len() as u64).to_le_bytes());
                for e in edges {
                    out.extend_from_slice(&e.to_le_bytes());
                }
            }
        }
        out.extend_from_slice(&index.len().to_le_bytes());
        out.extend_from_slice(&(index.nbins() as u64).to_le_bytes());
    }

    /// Appends what `body` writes behind its `u64 LE` byte length: the
    /// length slot is reserved first and patched once the size is known.
    fn put_blob(out: &mut Vec<u8>, body: impl FnOnce(&mut Vec<u8>)) {
        let slot = out.len();
        out.extend_from_slice(&[0u8; 8]);
        body(out);
        let len = (out.len() - slot - 8) as u64;
        out[slot..slot + 8].copy_from_slice(&len.to_le_bytes());
    }

    /// Appends one bitvector in the [`encode`] layout.
    fn put_wah(out: &mut Vec<u8>, v: &WahVec) {
        let words = v.words();
        out.extend_from_slice(&v.len().to_le_bytes());
        out.extend_from_slice(&(words.len() as u32).to_le_bytes());
        put_words(out, words);
    }

    /// Appends `words` as `u32 LE` each — sized once, then filled, which
    /// compiles to a block copy where a per-word `extend` does not.
    pub(crate) fn put_words(out: &mut Vec<u8>, words: &[u32]) {
        let at = out.len();
        out.resize(at + words.len() * 4, 0);
        for (dst, w) in out[at..].chunks_exact_mut(4).zip(words) {
            dst.copy_from_slice(&w.to_le_bytes());
        }
    }

    /// Appends `v` as an unsigned LEB128 varint: seven bits a byte, least
    /// significant first, the high bit set on every byte but the last.
    pub(crate) fn put_varint(out: &mut Vec<u8>, mut v: u64) {
        while v >= 0x80 {
            out.push(v as u8 | 0x80);
            v >>= 7;
        }
        out.push(v as u8);
    }

    /// Decodes an index blob, reporting exactly how a malformed blob fails
    /// (bad magic / version / truncation / bad binner / malformed
    /// bitvectors / trailing bytes). Accepts both the untagged version-1
    /// layout (all bins WAH) and the tagged version-2 layout.
    ///
    /// Verification is eager and total — every WAH bin is decoded, every
    /// Roaring bin deserialized with all of its checks — so a payload this
    /// accepts cannot fail later. Materialisation is lazy: a Roaring bin
    /// stays in its validated at-rest form and is converted to canonical
    /// WAH the first time [`BitmapIndex::bin`] asks for it. The
    /// conversions are exact inverses, so a reloaded index is bit-identical
    /// regardless of the at-rest codec, and a miss pays only for the bins
    /// its plan touches.
    pub fn decode_index(bytes: &[u8]) -> Result<BitmapIndex, DecodeError> {
        let mut r = Reader::new(bytes);
        let (tagged, binner, len) = read_index_header(&mut r)?;
        // a bin is at least its 8-byte blob length: no declared count can
        // reserve more than the payload backs
        let mut bins = Vec::with_capacity(binner.nbins().min(bytes.len() / 8));
        for b in 0..binner.nbins() {
            let codec = if tagged {
                let tag = r.u8()?;
                CodecId::from_tag(tag).ok_or_else(|| DecodeError::BadCodec {
                    bin: b,
                    detail: format!("unknown codec tag {tag}"),
                })?
            } else {
                CodecId::Wah
            };
            let blob = r.blob()?;
            OBS_DECODE_BINS.inc();
            let v = match codec {
                CodecId::Wah => CodecVec::Wah(decode(blob)?),
                CodecId::Roaring => {
                    OBS_DECODE_DEFERRED.inc();
                    CodecVec::Roaring(
                        RoaringVec::deserialize(blob)
                            .map_err(|detail| DecodeError::BadCodec { bin: b, detail })?,
                    )
                }
            };
            if v.len() != len {
                return Err(DecodeError::LengthMismatch {
                    expected: len,
                    got: v.len(),
                });
            }
            bins.push(v);
        }
        r.finish()?;
        Ok(BitmapIndex::from_codec_bins(binner, bins))
    }

    /// `index` if its bins partition its rows, as an exact index's do —
    /// else why not. A CRC-valid payload can still count some rows twice
    /// or none; an exact index read back is checked here, so every
    /// statistic reads a partition.
    pub(crate) fn exact(index: BitmapIndex) -> Result<BitmapIndex, String> {
        let (counted, rows) = (index.counts().iter().sum::<u64>(), index.len());
        match index.partitions() {
            true => Ok(index),
            false => Err(format!(
                "bins hold {counted} rows of {rows}: not a partition"
            )),
        }
    }

    /// The element count an index blob declares, from its header alone.
    pub(crate) fn index_rows(bytes: &[u8]) -> Result<u64, DecodeError> {
        Ok(read_index_header(&mut Reader::new(bytes))?.2)
    }

    /// The part of an index blob ahead of its bins ([`put_index_header`]):
    /// whether the bins are tagged, the binner, the element count.
    fn read_index_header(r: &mut Reader<'_>) -> Result<(bool, Binner, u64), DecodeError> {
        if r.take(4)? != INDEX_MAGIC.as_slice() {
            return Err(DecodeError::BadMagic);
        }
        let version = r.u32()?;
        if version != INDEX_VERSION && version != INDEX_VERSION_TAGGED {
            return Err(DecodeError::BadVersion(version));
        }
        let spec = match r.u8()? {
            0 => BinnerSpec::Width {
                min: r.f64()?,
                width: r.f64()?,
                nbins: r.u64()? as usize,
            },
            1 => {
                let count = r.u64()? as usize;
                if !(2..=Binner::MAX_BINS + 1).contains(&count) || count > r.bytes.len() / 8 + 2 {
                    return Err(DecodeError::BadBinner);
                }
                let mut edges = Vec::with_capacity(count);
                for _ in 0..count {
                    edges.push(r.f64()?);
                }
                if !edges.windows(2).all(|w| w[0] < w[1]) {
                    return Err(DecodeError::BadBinner);
                }
                BinnerSpec::Edges(edges)
            }
            _ => return Err(DecodeError::BadBinner),
        };
        // from_spec panics on garbage; validate the width variant first
        if let BinnerSpec::Width { min, width, nbins } = &spec {
            let width_ok = width.is_finite() && *width > 0.0;
            if !min.is_finite() || !width_ok || !(1..=Binner::MAX_BINS).contains(nbins) {
                return Err(DecodeError::BadBinner);
            }
        }
        let binner = Binner::from_spec(spec);
        let len = r.u64()?;
        let nbins = r.u64()? as usize;
        if nbins != binner.nbins() {
            return Err(DecodeError::BinCountMismatch {
                expected: binner.nbins(),
                got: nbins,
            });
        }
        Ok((version == INDEX_VERSION_TAGGED, binner, len))
    }

    /// The one bounds-checked cursor every decoder of stored bytes reads
    /// through (index payloads here, the pipeline's checkpoint payload).
    pub(crate) struct Reader<'a> {
        bytes: &'a [u8],
        pos: usize,
    }

    impl<'a> Reader<'a> {
        pub(crate) fn new(bytes: &'a [u8]) -> Self {
            Reader { bytes, pos: 0 }
        }

        pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
            let truncated = DecodeError::Truncated { at: self.pos };
            let end = self.pos.checked_add(n).ok_or(truncated.clone())?;
            let s = self.bytes.get(self.pos..end).ok_or(truncated)?;
            self.pos = end;
            Ok(s)
        }

        pub(crate) fn u8(&mut self) -> Result<u8, DecodeError> {
            Ok(self.take(1)?[0])
        }

        pub(crate) fn u32(&mut self) -> Result<u32, DecodeError> {
            Ok(crate::crc::le_u32(self.take(4)?))
        }

        pub(crate) fn u64(&mut self) -> Result<u64, DecodeError> {
            Ok(crate::crc::le_u64(self.take(8)?))
        }

        fn f64(&mut self) -> Result<f64, DecodeError> {
            Ok(f64::from_bits(self.u64()?))
        }

        /// A [`put_varint`] value; one that does not end, or does not fit
        /// 64 bits, is reported as a truncation where it starts.
        pub(crate) fn varint(&mut self) -> Result<u64, DecodeError> {
            let at = self.pos;
            let mut v = 0u64;
            for shift in (0..64).step_by(7) {
                let byte = self.u8()?;
                let bits = (byte & 0x7f) as u64;
                if bits << shift >> shift != bits {
                    break;
                }
                v |= bits << shift;
                if byte < 0x80 {
                    return Ok(v);
                }
            }
            Err(DecodeError::Truncated { at })
        }

        /// A `u64 LE` this host can index with; one it cannot is reported
        /// as the truncation any use of it would run into.
        pub(crate) fn usize(&mut self) -> Result<usize, DecodeError> {
            let at = self.pos;
            usize::try_from(self.u64()?).map_err(|_| DecodeError::Truncated { at })
        }

        /// An element count whose elements take at least `min` bytes each:
        /// bounded by the bytes left, so no count can drive an allocation
        /// the input does not back.
        pub(crate) fn count(&mut self, min: usize) -> Result<usize, DecodeError> {
            let at = self.pos;
            let n = self.usize()?;
            if n > (self.bytes.len() - self.pos) / min {
                return Err(DecodeError::Truncated { at });
            }
            Ok(n)
        }

        /// A `u64 LE` length followed by that many bytes.
        pub(crate) fn blob(&mut self) -> Result<&'a [u8], DecodeError> {
            let len = self.usize()?;
            self.take(len)
        }

        /// Fails unless every byte was consumed.
        pub(crate) fn finish(self) -> Result<(), DecodeError> {
            match self.bytes.len() - self.pos {
                0 => Ok(()),
                extra => Err(DecodeError::TrailingBytes { extra }),
            }
        }
    }

    /// Encodes a bitvector.
    pub fn encode(v: &WahVec) -> Vec<u8> {
        let mut out = Vec::with_capacity(12 + v.words().len() * 4);
        put_wah(&mut out, v);
        out
    }

    /// Decodes a bitvector, reporting the typed malformation on failure
    /// (truncation, trailing bytes, or a malformed word stream such as an
    /// overlong fill).
    pub fn decode(bytes: &[u8]) -> Result<WahVec, DecodeError> {
        if bytes.len() < 12 {
            return Err(DecodeError::Truncated { at: bytes.len() });
        }
        let len = u64::from_le_bytes(
            bytes[..8]
                .try_into()
                .map_err(|_| DecodeError::Truncated { at: 0 })?,
        );
        let nwords = u32::from_le_bytes(
            bytes[8..12]
                .try_into()
                .map_err(|_| DecodeError::Truncated { at: 8 })?,
        ) as usize;
        let body = nwords
            .checked_mul(4)
            .and_then(|n| n.checked_add(12))
            .ok_or(DecodeError::Truncated { at: 12 })?;
        match bytes.len().cmp(&body) {
            std::cmp::Ordering::Less => return Err(DecodeError::Truncated { at: bytes.len() }),
            std::cmp::Ordering::Greater => {
                return Err(DecodeError::TrailingBytes {
                    extra: bytes.len() - body,
                })
            }
            std::cmp::Ordering::Equal => {}
        }
        let words: Vec<u32> = bytes[12..body]
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect();
        WahVec::try_from_raw(words, len).map_err(DecodeError::BadBitvector)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ibis_core::WahVec;
    use ibis_testkit::TempDir;

    #[test]
    fn local_disk_time_is_linear() {
        let d = LocalDisk::new(100.0);
        assert_eq!(d.write(0.0, 500).unwrap(), 5.0);
        assert_eq!(
            d.write(100.0, 500).unwrap(),
            5.0,
            "no contention on local disk"
        );
        assert_eq!(d.bytes_written(), 1000);
    }

    #[test]
    fn remote_link_serializes_concurrent_writers() {
        let l = RemoteLink::new(100.0);
        // two writers arrive at t=0: the second queues behind the first
        let t1 = l.write(0.0, 500).unwrap();
        let t2 = l.write(0.0, 500).unwrap();
        assert_eq!(t1, 5.0);
        assert_eq!(t2, 10.0, "second writer waits for the first");
        // a writer arriving after the link drained sees no queue
        let t3 = l.write(20.0, 100).unwrap();
        assert_eq!(t3, 1.0);
        assert_eq!(l.bytes_written(), 1100);
    }

    #[test]
    fn codec_rejects_malformed() {
        assert!(codec::decode(&[1, 2, 3]).is_err());
        let v = WahVec::ones(62);
        let mut blob = codec::encode(&v);
        blob.pop();
        assert!(codec::decode(&blob).is_err());
    }

    #[test]
    fn codec_errors_are_typed() {
        use crate::error::DecodeError;
        let v = WahVec::ones(62);
        let good = codec::encode(&v);
        // truncation
        assert!(matches!(
            codec::decode(&good[..good.len() - 1]),
            Err(DecodeError::Truncated { .. })
        ));
        // trailing garbage
        let mut bad = good.clone();
        bad.push(0);
        assert!(matches!(
            codec::decode(&bad),
            Err(DecodeError::TrailingBytes { extra: 1 })
        ));
        // an overlong fill: a 2-segment 0-fill (62 bits) in a 31-bit vector
        let fill_2_segs = 0x8000_0000u32 | 62;
        let blob = {
            let mut b = Vec::new();
            b.extend_from_slice(&31u64.to_le_bytes());
            b.extend_from_slice(&1u32.to_le_bytes());
            b.extend_from_slice(&fill_2_segs.to_le_bytes());
            b
        };
        assert!(matches!(
            codec::decode(&blob),
            Err(DecodeError::BadBitvector(_))
        ));
    }

    #[test]
    fn index_codec_round_trip() {
        use ibis_core::{Binner, BitmapIndex};
        let data: Vec<f64> = (0..2000).map(|i| ((i as f64) * 0.01).sin() * 9.0).collect();
        for binner in [
            Binner::fixed_width(-10.0, 10.0, 25),
            Binner::from_edges(vec![-10.0, -3.0, 0.0, 1.5, 10.0]),
        ] {
            let idx = BitmapIndex::build(&data, binner);
            let blob = codec::encode_index(&idx);
            let back = codec::decode_index(&blob).expect("valid blob");
            assert_eq!(
                back.binner(),
                idx.binner(),
                "binner must round-trip exactly"
            );
            assert_eq!(back.len(), idx.len());
            assert_eq!(back.counts(), idx.counts());
            for b in 0..idx.nbins() {
                assert_eq!(back.bin(b), idx.bin(b));
            }
        }
    }

    /// The documented blob layouts written out longhand, one temporary
    /// per bin: the encoders' shared header writer and in-place bin
    /// writers must emit exactly these bytes.
    #[test]
    fn index_encoders_emit_the_documented_layout() {
        use ibis_core::{Binner, BinnerSpec, BitmapIndex, CodecId, RoaringVec};
        let reference = |idx: &BitmapIndex, plan: Option<&[CodecId]>| {
            let mut out = b"IBIS".to_vec();
            out.extend_from_slice(&(if plan.is_some() { 2u32 } else { 1u32 }).to_le_bytes());
            match idx.binner().spec() {
                BinnerSpec::Width { min, width, nbins } => {
                    out.push(0);
                    out.extend_from_slice(&min.to_le_bytes());
                    out.extend_from_slice(&width.to_le_bytes());
                    out.extend_from_slice(&(nbins as u64).to_le_bytes());
                }
                BinnerSpec::Edges(edges) => {
                    out.push(1);
                    out.extend_from_slice(&(edges.len() as u64).to_le_bytes());
                    for e in edges {
                        out.extend_from_slice(&e.to_le_bytes());
                    }
                }
            }
            out.extend_from_slice(&idx.len().to_le_bytes());
            out.extend_from_slice(&(idx.nbins() as u64).to_le_bytes());
            for (b, bin) in idx.bins().enumerate() {
                let codec = plan.map_or(CodecId::Wah, |p| p[b]);
                let blob = match codec {
                    CodecId::Wah => {
                        let mut blob = bin.len().to_le_bytes().to_vec();
                        blob.extend_from_slice(&(bin.words().len() as u32).to_le_bytes());
                        for w in bin.words() {
                            blob.extend_from_slice(&w.to_le_bytes());
                        }
                        assert_eq!(blob, codec::encode(bin));
                        blob
                    }
                    CodecId::Roaring => RoaringVec::from_wah(bin).serialize(),
                };
                if plan.is_some() {
                    out.push(codec.tag());
                }
                out.extend_from_slice(&(blob.len() as u64).to_le_bytes());
                out.extend_from_slice(&blob);
            }
            out
        };
        // run-structured data on an edges binner: an all-WAH plan
        let smooth: Vec<f64> = (0..20_000).map(|i| (i / 500) as f64).collect();
        let idx = BitmapIndex::build(
            &smooth,
            Binner::from_edges((0..=40).map(f64::from).collect()),
        );
        assert_eq!(codec::encode_index(&idx), reference(&idx, None));
        let (auto, plan) = codec::encode_index_auto(&idx);
        assert!(plan.iter().all(|&c| c == CodecId::Wah));
        assert_eq!(
            auto,
            reference(&idx, None),
            "an all-WAH plan stays on layout 1"
        );
        // scattered residues on a width binner: Roaring bins beside empty
        // WAH ones, so the tagged layout
        let scattered: Vec<f64> = (0..500).map(|i| ((i * 4) % 40) as f64).collect();
        let idx = BitmapIndex::build(&scattered, Binner::distinct_ints(0, 39));
        assert_eq!(codec::encode_index(&idx), reference(&idx, None));
        let (auto, plan) = codec::encode_index_auto(&idx);
        assert!(plan.contains(&CodecId::Roaring) && plan.contains(&CodecId::Wah));
        assert_eq!(auto, reference(&idx, Some(&plan)));
        assert!(
            codec::decode_index(&auto).unwrap().bins().eq(idx.bins()),
            "either layout reloads bit-identically"
        );
    }

    #[test]
    fn index_codec_rejects_malformed() {
        use crate::error::DecodeError;
        use ibis_core::{Binner, BitmapIndex};
        let idx = BitmapIndex::build(&[1.0, 2.0, 3.0], Binner::fixed_width(0.0, 4.0, 4));
        let blob = codec::encode_index(&idx);
        assert!(codec::decode_index(&blob).is_ok());
        // truncation
        assert!(matches!(
            codec::decode_index(&blob[..blob.len() - 1]),
            Err(DecodeError::Truncated { .. })
        ));
        // bad magic
        let mut bad = blob.clone();
        bad[0] = b'X';
        assert!(matches!(
            codec::decode_index(&bad),
            Err(DecodeError::BadMagic)
        ));
        // bad version
        let mut bad = blob.clone();
        bad[4] = 99;
        assert!(matches!(
            codec::decode_index(&bad),
            Err(DecodeError::BadVersion(99))
        ));
        // trailing garbage
        let mut bad = blob.clone();
        bad.push(0);
        assert!(matches!(
            codec::decode_index(&bad),
            Err(DecodeError::TrailingBytes { extra: 1 })
        ));
        // empty
        assert!(matches!(
            codec::decode_index(&[]),
            Err(DecodeError::Truncated { .. })
        ));
        // a v2 bin under the retired BBC tag (1): no writer emits it, no
        // reader accepts it
        let scattered: Vec<f64> = (0..500).map(|i| ((i * 4) % 40) as f64).collect();
        let idx = BitmapIndex::build(&scattered, Binner::distinct_ints(0, 39));
        let (mut tagged, plan) = codec::encode_index_auto(&idx);
        let first_tag = 4 + 4 + (1 + 8 + 8 + 8) + 8 + 8; // magic, version, width binner, len, nbins
        assert_eq!(tagged[first_tag], plan[0].tag());
        tagged[first_tag] = 1;
        assert!(matches!(
            codec::decode_index(&tagged),
            Err(DecodeError::BadCodec { bin: 0, .. })
        ));
    }

    /// A binner past [`Binner::MAX_BINS`] is refused from the header, as a
    /// width spec and as edges, before a bin is read or `from_spec` panics.
    #[test]
    fn index_codec_rejects_more_bins_than_a_binning_holds() {
        use crate::error::DecodeError;
        use ibis_core::{Binner, BitmapIndex};
        let too_many = (Binner::MAX_BINS as u64 + 1).to_le_bytes();
        let idx = BitmapIndex::build(&[1.0, 2.0, 3.0], Binner::fixed_width(0.0, 4.0, 4));
        let mut blob = codec::encode_index(&idx);
        // magic, version, tag, min, width: then the spec's bin count, and
        // after the element count the index's own
        blob[25..33].copy_from_slice(&too_many);
        blob[41..49].copy_from_slice(&too_many);
        assert!(matches!(
            codec::decode_index(&blob),
            Err(DecodeError::BadBinner)
        ));
        let edges = BitmapIndex::build(&[1.0, 2.0], Binner::from_edges(vec![0.0, 1.5, 4.0]));
        let mut blob = codec::encode_index(&edges);
        // magic, version, tag: then the edge count, one more than the bins
        blob[9..17].copy_from_slice(&(Binner::MAX_BINS as u64 + 2).to_le_bytes());
        assert!(matches!(
            codec::decode_index(&blob),
            Err(DecodeError::BadBinner)
        ));
    }

    #[test]
    fn index_codec_file_round_trip() {
        use ibis_core::{Binner, BitmapIndex};
        let dir = TempDir::new("index-sink");
        std::fs::create_dir_all(&dir).unwrap();
        let data: Vec<f64> = (0..500).map(|i| (i % 40) as f64).collect();
        let idx = BitmapIndex::build(&data, Binner::fixed_width(0.0, 40.0, 40));
        let path = dir.join("step7.ibis");
        std::fs::write(&path, codec::encode_index(&idx)).unwrap();
        let back = codec::decode_index(&std::fs::read(&path).unwrap()).unwrap();
        assert_eq!(back.counts(), idx.counts());
    }
}
