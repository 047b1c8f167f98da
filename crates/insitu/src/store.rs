//! A durable on-disk store for the in-situ phase's output: one directory
//! holding the selected time-steps' indices (one `.ibis` file per step per
//! variable) plus a manifest — the artifact a post-analysis session opens
//! instead of the raw simulation output.
//!
//! Because this store *replaces* the raw data, format v2 treats silent
//! corruption and partial writes as first-class failure modes:
//!
//! * every blob is framed and written via temp-file + rename, so a
//!   crashed writer never leaves a half-written blob under its final
//!   name. All-WAH indices keep the v2 frame `IBB2 | payload len (u64
//!   LE) | payload | CRC32-C (u32 LE)` byte-identically; indices whose
//!   codec plan includes a non-WAH bin use the tagged v3 frame `IBB3 |
//!   codec tag (u8) | payload len (u64 LE) | payload | CRC32-C (u32
//!   LE)`, where the tag is the uniform per-bin [`CodecId::tag`] or
//!   `0xFF` for a mixed plan; a step ingested under a non-identity
//!   [`RowOrder`] additionally persists its inverse permutation under the
//!   reserved [`ORDER_VARIABLE`] entry in the analogous `IBP1` frame
//!   (order tag in the `IBB3` tag position, outside the payload CRC);
//! * a `JOURNAL` records each durable blob as it lands (each line carries
//!   its own CRC, so a torn journal tail is detected and ignored) — an
//!   interrupted run can [`StoreWriter::resume`] and re-put idempotently;
//! * the `MANIFEST` carries a format header, per-entry length + CRC, and
//!   a whole-file CRC footer, all written atomically; [`Store::open`]
//!   refuses a manifest whose footer does not check out;
//! * [`Store::fsck`] verifies every blob end-to-end — framing, CRC,
//!   decode, and that an `IBB3` frame's codec tag matches the codecs
//!   actually present in the payload (the tag sits outside the payload
//!   CRC, so only this cross-check catches a tampered tag byte) — and
//!   quarantines the corrupt ones (renamed to `*.quarantined`), so
//!   [`Store::load_series`] afterwards returns exactly the uncorrupted
//!   steps.
//!
//! Layout:
//!
//! ```text
//! run-dir/
//!   MANIFEST            # "#IBIS-STORE v2", entry lines, "#END n crc"
//!   JOURNAL             # only while a run is in flight
//!   s000000_temperature.ibis
//!   s000005_temperature.ibis
//!   …
//! ```
//!
//! There is no unchecked read path: a manifest without the v2 header and a
//! blob without a frame are refused with a typed error, never opened on
//! trust.

use crate::crc::crc32c;
use crate::error::{IbisError, Result};
use crate::fault::{FaultInjector, WriteFault};
use crate::io::{codec, write_atomic};
use ibis_core::{valid_fpr, BitmapIndex, CodecId, LossyStats, RowOrder, RowPermutation};
use ibis_obs::LazyCounter;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Magic prefix of an untagged (all-WAH) framed blob.
const BLOB_MAGIC: &[u8; 4] = b"IBB2";
/// Magic prefix of a codec-tagged framed blob.
const BLOB_MAGIC_TAGGED: &[u8; 4] = b"IBB3";
/// Magic prefix of a row-permutation framed blob (`IBP1 | order tag (u8) |
/// payload len (u64 LE) | payload | CRC32-C (u32 LE)`, the tag outside the
/// payload CRC exactly like `IBB3`'s codec tag).
const BLOB_MAGIC_PERM: &[u8; 4] = b"IBP1";
/// Magic prefix of a lossy-companion framed blob (`IBL1 | FPR class (u8) |
/// payload len (u64 LE) | payload | CRC32-C (u32 LE)`; the class byte sits
/// outside the payload CRC exactly like `IBB3`'s codec tag, so fsck
/// cross-checks it against the FPR recorded inside the payload).
const BLOB_MAGIC_LOSSY: &[u8; 4] = b"IBL1";
/// Frame codec tag meaning "bins use more than one codec".
const MIXED_TAG: u8 = 0xFF;
/// Reserved variable name a step's row permutation stores under. Passes
/// [`check_variable_name`] so the blob rides the ordinary entry / journal /
/// manifest machinery, but is hidden from [`Store::variables`] and refused
/// by [`StoreWriter::put`], so no data variable can collide with it.
pub const ORDER_VARIABLE: &str = "__order";
/// Reserved name prefix a variable's lossy companion index stores under
/// (`__lossy_<variable>`). Like [`ORDER_VARIABLE`] it passes
/// [`check_variable_name`] so the blob rides the ordinary entry / journal /
/// manifest machinery, but is hidden from [`Store::variables`] and refused
/// by [`StoreWriter::put`].
pub const LOSSY_PREFIX: &str = "__lossy_";
/// First line of a v2 manifest.
const MANIFEST_HEADER: &str = "#IBIS-STORE v2";
/// Tagged framing overhead: magic + codec tag + u64 length + u32 CRC.
const FRAME_OVERHEAD_TAGGED: usize = 4 + 1 + 8 + 4;

/// What the store knows about one blob.
#[derive(Debug, Clone, PartialEq, Eq)]
struct EntryMeta {
    file: String,
    /// On-disk (framed) length.
    len: u64,
    /// CRC32-C of the payload.
    crc: u32,
}

// Durable-store metrics (family `store`, see DESIGN.md §6e). All no-ops
// without `obs`.
static OBS_PUT_BLOBS: LazyCounter = LazyCounter::new("store.put.blobs");
static OBS_PUT_BYTES: LazyCounter = LazyCounter::new("store.put.bytes");
static OBS_CRC_VERIFIED: LazyCounter = LazyCounter::new("store.crc.verified");
static OBS_CRC_FAILED: LazyCounter = LazyCounter::new("store.crc.failed");
static OBS_FSCK_RUNS: LazyCounter = LazyCounter::new("store.fsck.runs");
static OBS_FSCK_QUARANTINED: LazyCounter = LazyCounter::new("store.fsck.quarantined");
static OBS_MANIFEST_WRITES: LazyCounter = LazyCounter::new("store.manifest.writes");
static OBS_PUT_TAGGED: LazyCounter = LazyCounter::new("store.put.tagged_blobs");
static OBS_FSCK_TAG_MISMATCH: LazyCounter = LazyCounter::new("store.fsck.tag_mismatch");
// Row-permutation blobs written and read back (family `reorder`, see
// DESIGN.md §6j).
static OBS_ORDER_PUT: LazyCounter = LazyCounter::new("reorder.store.put");
static OBS_ORDER_LOADED: LazyCounter = LazyCounter::new("reorder.store.loaded");
// Lossy companion blobs written and read back (family `lossy`, see
// DESIGN.md §6l).
static OBS_LOSSY_PUT: LazyCounter = LazyCounter::new("lossy.store.put");
static OBS_LOSSY_LOADED: LazyCounter = LazyCounter::new("lossy.store.loaded");

/// What a blob's frame declares about its payload's codecs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FrameTag {
    /// `IBB2` frame: implicitly an untagged, all-WAH payload.
    Untagged,
    /// `IBB3` frame: uniform per-bin codec tag, or [`MIXED_TAG`].
    Tagged(u8),
    /// `IBP1` frame: a row permutation, tagged with its
    /// [`RowOrder::tag`].
    Perm(u8),
    /// `IBL1` frame: a lossy companion index, tagged with its
    /// [FPR class](fpr_class).
    Lossy(u8),
}

/// Wraps a payload in its frame — `magic | tag (every magic but `IBB2`) |
/// payload len (u64 LE) | payload | CRC32-C (u32 LE)` — and returns the
/// frame together with the payload CRC it ends in, so a put checksums its
/// payload once for both the frame and the entry's journal/manifest record.
fn frame_blob(magic: &[u8; 4], tag: Option<u8>, payload: &[u8]) -> (Vec<u8>, u32) {
    let crc = crc32c(payload);
    let mut out = Vec::with_capacity(payload.len() + FRAME_OVERHEAD_TAGGED);
    out.extend_from_slice(magic);
    out.extend(tag);
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(payload);
    out.extend_from_slice(&crc.to_le_bytes());
    (out, crc)
}

/// The decade class of a lossy FPR: 1 for (1e-2, 1e-1], 2 for
/// (1e-3, 1e-2], … 4 for [1e-4, 1e-3]. This is the `IBL1` frame tag, a
/// coarse claim cross-checkable against the exact FPR stored inside the
/// payload CRC.
fn fpr_class(fpr: f64) -> u8 {
    (-fpr.log10()).ceil().clamp(1.0, 4.0) as u8
}

/// Serializes a lossy companion: `fpr (f64 LE) | bits dropped (u64 LE) |
/// zeros of the exact index (u64 LE) | encoded index`. All of it — the
/// lossy meta included — sits inside the payload CRC; only the class byte
/// in the frame is outside it.
fn encode_lossy_payload(fpr: f64, stats: &LossyStats, index_payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(24 + index_payload.len());
    out.extend_from_slice(&fpr.to_le_bytes());
    out.extend_from_slice(&stats.bits_dropped.to_le_bytes());
    out.extend_from_slice(&stats.zeros.to_le_bytes());
    out.extend_from_slice(index_payload);
    out
}

/// Parses an `IBL1` payload into `(fpr, bits dropped, zeros, encoded
/// index)`, or a description of what is wrong.
fn decode_lossy_payload(payload: &[u8]) -> std::result::Result<(f64, u64, u64, &[u8]), String> {
    if payload.len() < 24 {
        return Err(format!("lossy payload too short ({} bytes)", payload.len()));
    }
    let fpr = f64::from_bits(crate::crc::le_u64(&payload[..8]));
    if !valid_fpr(fpr) || fpr == 0.0 {
        return Err(format!("lossy FPR {fpr} outside the supported range"));
    }
    let dropped = crate::crc::le_u64(&payload[8..16]);
    let zeros = crate::crc::le_u64(&payload[16..24]);
    if zeros > 0 && dropped as f64 > fpr * zeros as f64 {
        return Err(format!(
            "recorded {dropped} dropped bits exceed the FPR {fpr} budget over {zeros} zeros"
        ));
    }
    Ok((fpr, dropped, zeros, &payload[24..]))
}

/// Appends an inverse permutation (`inv[original] = stored`) as `u64 LE
/// row count` followed by one `u32 LE` per row.
pub(crate) fn put_perm_payload(out: &mut Vec<u8>, inv: &[u32]) {
    out.extend_from_slice(&(inv.len() as u64).to_le_bytes());
    codec::put_words(out, inv);
}

/// Parses an `IBP1` payload back into the inverse permutation, or a
/// description of what is wrong.
pub(crate) fn decode_perm_payload(payload: &[u8]) -> std::result::Result<Vec<u32>, String> {
    if payload.len() < 8 {
        return Err(format!(
            "permutation payload too short ({} bytes)",
            payload.len()
        ));
    }
    let n = crate::crc::le_u64(&payload[..8]) as usize;
    let want = n
        .checked_mul(4)
        .and_then(|b| b.checked_add(8))
        .ok_or_else(|| "declared row count overflows".to_string())?;
    if payload.len() != want {
        return Err(format!(
            "permutation payload {} bytes != declared {want}",
            payload.len()
        ));
    }
    Ok(payload[8..]
        .chunks_exact(4)
        .map(crate::crc::le_u32)
        .collect())
}

/// The frame tag summarizing a per-bin codec plan.
fn plan_frame_tag(plan: &[CodecId]) -> u8 {
    match plan.first() {
        Some(&first) if plan.iter().all(|&c| c == first) => first.tag(),
        _ => MIXED_TAG,
    }
}

/// Validates a framed blob and returns its payload, the payload's CRC
/// (computed here, and equal to the frame's) and what the frame header
/// claims about its codecs, or a description of what is wrong.
fn unframe_blob(bytes: &[u8]) -> std::result::Result<(&[u8], u32, FrameTag), String> {
    let (tag, header_len) = if bytes.starts_with(BLOB_MAGIC) {
        (FrameTag::Untagged, 12usize)
    } else if bytes.starts_with(BLOB_MAGIC_TAGGED)
        || bytes.starts_with(BLOB_MAGIC_PERM)
        || bytes.starts_with(BLOB_MAGIC_LOSSY)
    {
        if bytes.len() < FRAME_OVERHEAD_TAGGED {
            return Err(format!("framed blob too short ({} bytes)", bytes.len()));
        }
        if bytes.starts_with(BLOB_MAGIC_PERM) {
            (FrameTag::Perm(bytes[4]), 13usize)
        } else if bytes.starts_with(BLOB_MAGIC_LOSSY) {
            (FrameTag::Lossy(bytes[4]), 13usize)
        } else {
            (FrameTag::Tagged(bytes[4]), 13usize)
        }
    } else {
        return Err("missing IBB2/IBB3/IBP1/IBL1 framing magic".into());
    };
    if bytes.len() < header_len + 4 {
        return Err(format!("framed blob too short ({} bytes)", bytes.len()));
    }
    let len = crate::crc::le_u64(&bytes[header_len - 8..header_len]) as usize;
    let expected_total = len
        .checked_add(header_len + 4)
        .ok_or_else(|| "declared payload length overflows".to_string())?;
    if bytes.len() != expected_total {
        return Err(format!(
            "framed length {} != declared {}",
            bytes.len(),
            expected_total
        ));
    }
    let payload = &bytes[header_len..header_len + len];
    let stored = crate::crc::le_u32(&bytes[header_len + len..]);
    let actual = crc32c(payload);
    if stored != actual {
        OBS_CRC_FAILED.inc();
        return Err(format!(
            "CRC mismatch: stored {stored:08x}, computed {actual:08x}"
        ));
    }
    OBS_CRC_VERIFIED.inc();
    Ok((payload, actual, tag))
}

/// `fsck`'s frame-tag cross-check: the frame header's codec claim must
/// match the codecs actually present in the decoded payload. The tag
/// byte sits outside the payload CRC, so this is the only check that
/// catches a tampered or stale tag.
fn check_frame_tag(tag: FrameTag, bins: &[CodecId]) -> std::result::Result<(), String> {
    let uniform = match bins.first() {
        Some(&first) if bins.iter().all(|&c| c == first) => Some(first),
        _ => None,
    };
    match tag {
        FrameTag::Untagged => match uniform {
            Some(CodecId::Wah) => Ok(()),
            _ => Err("untagged IBB2 frame over a non-WAH payload".into()),
        },
        FrameTag::Tagged(MIXED_TAG) => {
            if uniform.is_none() {
                Ok(())
            } else {
                Err("frame tag claims mixed codecs but the payload is uniform".into())
            }
        }
        FrameTag::Tagged(t) => match CodecId::from_tag(t) {
            Some(c) if uniform == Some(c) => Ok(()),
            Some(c) => Err(format!(
                "frame tag {} does not match the payload's codecs",
                c.name()
            )),
            None => Err(format!("unknown frame codec tag {t:#04x}")),
        },
        FrameTag::Perm(_) => Err("IBP1 permutation frame over an index entry".into()),
        FrameTag::Lossy(_) => Err("IBL1 lossy frame over an exact index entry".into()),
    }
}

fn check_variable_name(variable: &str) -> Result<()> {
    if variable.is_empty()
        || !variable
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_')
    {
        return Err(IbisError::Config(format!(
            "variable name {variable:?} must be non-empty [A-Za-z0-9_] for safe file names"
        )));
    }
    Ok(())
}

fn check_file_name(file: &str) -> std::result::Result<(), String> {
    if file.is_empty() || file.contains('/') || file.contains('\\') || file.contains("..") {
        return Err("file escapes the run directory".into());
    }
    Ok(())
}

/// One journal/manifest entry line (without the journal's own line CRC).
fn entry_line(step: usize, var: &str, meta: &EntryMeta) -> String {
    format!(
        "{step}\t{var}\t{}\t{}\t{:08x}",
        meta.file, meta.len, meta.crc
    )
}

/// A writer that accumulates selected-step indices into a run directory,
/// durably: atomic framed blobs, a journaled in-flight state, and a
/// checksummed manifest on [`StoreWriter::finish`].
#[derive(Debug)]
pub struct StoreWriter {
    dir: PathBuf,
    entries: BTreeMap<(usize, String), EntryMeta>,
    journal: std::fs::File,
    injector: Option<Arc<FaultInjector>>,
    max_attempts: u32,
}

impl StoreWriter {
    /// Creates (if needed) the run directory and starts a fresh journal.
    pub fn create(dir: impl AsRef<Path>) -> Result<Self> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)
            .map_err(|e| IbisError::io(format!("create run dir {}", dir.display()), &e))?;
        let journal = std::fs::File::create(dir.join("JOURNAL"))
            .map_err(|e| IbisError::io("create JOURNAL", &e))?;
        Ok(StoreWriter {
            dir,
            entries: BTreeMap::new(),
            journal,
            injector: None,
            max_attempts: 4,
        })
    }

    /// Reopens an interrupted *or finished* run directory, recovering
    /// every blob proven durable. Journal lines are trusted first (line
    /// CRC valid, blob present, framing and payload CRC intact; a torn
    /// tail drops everything after it). A valid v2 `MANIFEST` then seeds
    /// any entries the journal didn't cover, each re-verified against its
    /// blob the same way — so resuming a finished store keeps its
    /// contents instead of silently starting empty (a later
    /// [`StoreWriter::finish`] would otherwise clobber the manifest down
    /// to just the re-put entries). Blobs that fail verification are
    /// dropped; re-`put`ting them is idempotent — which is exactly the
    /// repair path after [`Store::fsck`] quarantines a corrupt blob.
    pub fn resume(dir: impl AsRef<Path>) -> Result<Self> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)
            .map_err(|e| IbisError::io(format!("create run dir {}", dir.display()), &e))?;
        let verify = |meta: &EntryMeta| -> bool {
            std::fs::read(dir.join(&meta.file))
                .ok()
                .filter(|bytes| bytes.len() as u64 == meta.len)
                .is_some_and(|bytes| unframe_blob(&bytes).is_ok_and(|(_, crc, _)| crc == meta.crc))
        };
        let mut entries = BTreeMap::new();
        let journal_path = dir.join("JOURNAL");
        if let Ok(text) = std::fs::read_to_string(&journal_path) {
            for line in text.lines() {
                let Some(entry) = parse_journal_line(line) else {
                    // malformed or torn line: everything after it is suspect
                    break;
                };
                let (step, var, meta) = entry;
                if check_file_name(&meta.file).is_err() {
                    break;
                }
                if verify(&meta) {
                    entries.insert((step, var), meta);
                }
            }
        }
        if let Ok(manifest) = std::fs::read_to_string(dir.join("MANIFEST")) {
            if let Ok(seed) = parse_manifest(&manifest) {
                for ((step, var), meta) in seed {
                    if !entries.contains_key(&(step, var.clone())) && verify(&meta) {
                        entries.insert((step, var), meta);
                    }
                }
            }
        }
        // Rewrite the journal to exactly the verified entries, so the next
        // crash-resume cycle starts from a clean (untorn) journal.
        let mut journal = std::fs::File::create(&journal_path)
            .map_err(|e| IbisError::io("rewrite JOURNAL", &e))?;
        for ((step, var), meta) in &entries {
            let line = entry_line(*step, var, meta);
            writeln!(journal, "{line}\t{:08x}", crc32c(line.as_bytes()))
                .map_err(|e| IbisError::io("rewrite JOURNAL", &e))?;
        }
        journal
            .sync_all()
            .map_err(|e| IbisError::io("sync JOURNAL", &e))?;
        Ok(StoreWriter {
            dir,
            entries,
            journal,
            injector: None,
            max_attempts: 4,
        })
    }

    /// Routes this writer's blob writes through a fault injector.
    pub fn with_fault_injector(mut self, injector: Arc<FaultInjector>) -> Self {
        self.injector = Some(injector);
        self
    }

    /// The run directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// A read-only view of exactly the entries durable right now; reads
    /// through it verify framing and CRC like any [`Store`] read. A
    /// resumed run reloads its previous winner through this.
    pub(crate) fn durable_view(&self) -> Store {
        Store {
            dir: self.dir.clone(),
            entries: self.entries.clone(),
        }
    }

    /// Steps with at least one durable entry, ascending.
    pub fn durable_steps(&self) -> Vec<usize> {
        let mut v: Vec<usize> = self.entries.keys().map(|(s, _)| *s).collect();
        v.dedup();
        v
    }

    /// Whether `(step, variable)` is already durable.
    pub fn contains(&self, step: usize, variable: &str) -> bool {
        self.entries.contains_key(&(step, variable.to_string()))
    }

    /// Persists one step's index for one variable: encoded under its
    /// per-bin codec plan, framed, checksummed, written atomically, then
    /// journaled. An all-WAH plan keeps the legacy untagged `IBB2` frame
    /// byte-identically; any non-WAH bin switches to the tagged `IBB3`
    /// frame carrying the plan's uniform codec tag (or [`MIXED_TAG`]).
    /// Re-putting an existing entry is idempotent (same payload → same
    /// bytes, entry overwritten).
    pub fn put(&mut self, step: usize, variable: &str, index: &BitmapIndex) -> Result<()> {
        check_variable_name(variable)?;
        if variable == ORDER_VARIABLE {
            return Err(IbisError::Config(format!(
                "variable name {ORDER_VARIABLE:?} is reserved for row permutations"
            )));
        }
        if variable.starts_with(LOSSY_PREFIX) {
            return Err(IbisError::Config(format!(
                "variable names starting with {LOSSY_PREFIX:?} are reserved for lossy companions"
            )));
        }
        let (payload, plan) = codec::encode_index_auto(index);
        let (framed, crc) = if plan.iter().all(|&c| c == CodecId::Wah) {
            frame_blob(BLOB_MAGIC, None, &payload)
        } else {
            OBS_PUT_TAGGED.inc();
            frame_blob(BLOB_MAGIC_TAGGED, Some(plan_frame_tag(&plan)), &payload)
        };
        self.commit(step, variable, &framed, crc)
    }

    /// Persists the step's row permutation under the reserved
    /// [`ORDER_VARIABLE`] entry: the inverse permutation
    /// (`inv[original] = stored`) framed as `IBP1` with `order`'s tag,
    /// CRC-checked, written atomically and journaled exactly like an
    /// index blob — so crash/resume and fsck cover it. One permutation
    /// per step: every variable of the step shares it, keeping
    /// cross-variable (correlation) bitmaps row-aligned.
    ///
    /// Identity orders (or identity permutations) have nothing to map;
    /// callers skip this call for them, and passing one is a config
    /// error.
    pub fn put_order(&mut self, step: usize, order: RowOrder, perm: &RowPermutation) -> Result<()> {
        if order == RowOrder::Identity || perm.is_identity() {
            return Err(IbisError::Config(
                "identity row orders are never persisted".into(),
            ));
        }
        let mut payload = Vec::with_capacity(8 + perm.inv().len() * 4);
        put_perm_payload(&mut payload, perm.inv());
        let (framed, crc) = frame_blob(BLOB_MAGIC_PERM, Some(order.tag()), &payload);
        self.commit(step, ORDER_VARIABLE, &framed, crc)?;
        OBS_ORDER_PUT.inc();
        Ok(())
    }

    /// Persists `variable`'s lossy superset companion for `step` under
    /// the reserved `__lossy_<variable>` entry: the lossy index (encoded
    /// under its codec plan) prefixed by its FPR and drop accounting,
    /// framed as `IBL1` with the FPR class in the tag byte, CRC-checked,
    /// written atomically and journaled exactly like an index blob — so
    /// crash/resume and fsck cover it. The companion is self-describing;
    /// it does not require the exact entry to exist first, but readers
    /// only ever use it as a filter in front of the exact index.
    pub fn put_lossy(
        &mut self,
        step: usize,
        variable: &str,
        lossy: &BitmapIndex,
        fpr: f64,
        stats: &LossyStats,
    ) -> Result<()> {
        check_variable_name(variable)?;
        if !valid_fpr(fpr) || fpr == 0.0 {
            return Err(IbisError::Config(format!(
                "lossy FPR {fpr} outside the supported range"
            )));
        }
        let (index_payload, _) = codec::encode_index_auto(lossy);
        let payload = encode_lossy_payload(fpr, stats, &index_payload);
        let (framed, crc) = frame_blob(BLOB_MAGIC_LOSSY, Some(fpr_class(fpr)), &payload);
        self.commit(step, &format!("{LOSSY_PREFIX}{variable}"), &framed, crc)?;
        OBS_LOSSY_PUT.inc();
        Ok(())
    }

    /// Lands one framed blob under `entry`: the atomic blob write first,
    /// then the journal line (synced) that declares it durable, then the
    /// in-memory entry. `crc` is the payload CRC [`frame_blob`] computed.
    fn commit(&mut self, step: usize, entry: &str, framed: &[u8], crc: u32) -> Result<()> {
        let meta = EntryMeta {
            file: format!("s{step:06}_{entry}.ibis"),
            len: framed.len() as u64,
            crc,
        };
        self.write_blob_with_faults(&meta.file, framed)?;
        OBS_PUT_BLOBS.inc();
        OBS_PUT_BYTES.add(framed.len() as u64);
        let line = entry_line(step, entry, &meta);
        writeln!(self.journal, "{line}\t{:08x}", crc32c(line.as_bytes()))
            .and_then(|()| self.journal.sync_all())
            .map_err(|e| IbisError::io("append JOURNAL", &e))?;
        self.entries.insert((step, entry.to_string()), meta);
        Ok(())
    }

    /// Atomic blob write with injected-fault retry. A torn write leaves
    /// partial bytes only in the temp file — the final name either holds
    /// the complete framed blob or nothing.
    fn write_blob_with_faults(&self, file: &str, framed: &[u8]) -> Result<()> {
        let path = self.dir.join(file);
        let tmp = self.dir.join(format!(".{file}.tmp"));
        let op = self.injector.as_ref().map(|inj| inj.begin_write());
        let mut last_error = String::new();
        for attempt in 0..self.max_attempts {
            let fault = match (&self.injector, op) {
                (Some(inj), Some(op)) => inj.write_fault_for(op, attempt),
                _ => None,
            };
            match fault {
                Some(WriteFault::IoError) => {
                    last_error = format!("injected I/O error writing {file}");
                }
                Some(WriteFault::Torn) => {
                    // simulate a crash mid-write: half the frame lands in
                    // the temp file and the rename never happens
                    let _ = std::fs::write(&tmp, &framed[..framed.len() / 2]);
                    last_error = format!("injected torn write of {file}");
                }
                Some(WriteFault::DelayedAck(_)) | None => {
                    return write_atomic(&tmp, &path, framed)
                        .map_err(|e| IbisError::io(format!("write blob {file}"), &e));
                }
            }
        }
        Err(IbisError::StorageExhausted {
            site: format!("store blob {file}"),
            attempts: self.max_attempts,
            last_error,
        })
    }

    /// Writes the checksummed manifest atomically, deletes the journal,
    /// and finishes the run. Until this is called the directory has no
    /// manifest and [`Store::open`] will refuse it.
    pub fn finish(self) -> Result<PathBuf> {
        let mut body = String::new();
        body.push_str(MANIFEST_HEADER);
        body.push('\n');
        for ((step, var), meta) in &self.entries {
            body.push_str(&entry_line(*step, var, meta));
            body.push('\n');
        }
        let footer = format!(
            "#END {} {:08x}\n",
            self.entries.len(),
            crc32c(body.as_bytes())
        );
        body.push_str(&footer);
        write_atomic(
            &self.dir.join(".MANIFEST.tmp"),
            &self.dir.join("MANIFEST"),
            body.as_bytes(),
        )
        .map_err(|e| IbisError::io("write MANIFEST", &e))?;
        OBS_MANIFEST_WRITES.inc();
        match std::fs::remove_file(self.dir.join("JOURNAL")) {
            Ok(()) => {}
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(IbisError::io("remove JOURNAL", &e)),
        }
        Ok(self.dir)
    }
}

fn parse_journal_line(line: &str) -> Option<(usize, String, EntryMeta)> {
    let (body, crc_field) = line.rsplit_once('\t')?;
    let line_crc = u32::from_str_radix(crc_field, 16).ok()?;
    if crc32c(body.as_bytes()) != line_crc {
        return None;
    }
    let (step, var, meta) = parse_entry_fields(body)?;
    Some((step, var, meta))
}

/// Parses `step \t var \t file \t len \t crc` into an entry.
fn parse_entry_fields(body: &str) -> Option<(usize, String, EntryMeta)> {
    let mut parts = body.split('\t');
    let (Some(step), Some(var), Some(file), Some(len), Some(crc), None) = (
        parts.next(),
        parts.next(),
        parts.next(),
        parts.next(),
        parts.next(),
        parts.next(),
    ) else {
        return None;
    };
    Some((
        step.parse().ok()?,
        var.to_string(),
        EntryMeta {
            file: file.to_string(),
            len: len.parse().ok()?,
            crc: u32::from_str_radix(crc, 16).ok()?,
        },
    ))
}

/// A variable's lossy superset companion, as loaded from its `IBL1` blob.
///
/// The index admits every row the exact index admits (plus at most
/// `fpr × zeros` false positives), so readers use it as a cheap filter in
/// front of the exact index and refine on the admitted rows.
#[derive(Debug, Clone)]
pub struct LossyCompanion {
    /// The lossy superset index.
    pub index: BitmapIndex,
    /// The FPR the companion was built for.
    pub fpr: f64,
    /// 0-bits flipped to 1 when the companion was built.
    pub bits_dropped: u64,
    /// 0-bits of the exact index (the FPR denominator).
    pub zeros: u64,
}

impl LossyCompanion {
    /// The companion's measured false-positive rate.
    pub fn measured_fpr(&self) -> f64 {
        if self.zeros == 0 {
            0.0
        } else {
            self.bits_dropped as f64 / self.zeros as f64
        }
    }
}

/// One blob [`Store::fsck`] had to quarantine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuarantinedBlob {
    /// The entry's time-step.
    pub step: usize,
    /// The entry's variable.
    pub variable: String,
    /// The blob's file name (now renamed to `<file>.quarantined`).
    pub file: String,
    /// What the integrity check found.
    pub reason: String,
}

/// Result of an [`Store::fsck`] pass.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FsckReport {
    /// Entries examined.
    pub checked: usize,
    /// Entries that failed verification and were quarantined.
    pub quarantined: Vec<QuarantinedBlob>,
}

impl FsckReport {
    /// True when every blob verified.
    pub fn is_clean(&self) -> bool {
        self.quarantined.is_empty()
    }
}

/// A read-only view of a finished run directory.
#[derive(Debug)]
pub struct Store {
    dir: PathBuf,
    /// `(step, variable) -> entry`, ordered by step then variable.
    entries: BTreeMap<(usize, String), EntryMeta>,
}

impl Store {
    /// Opens a run directory; fails without a valid manifest: the v2
    /// header, and an intact `#END` footer (count + CRC over the header
    /// and entry lines).
    pub fn open(dir: impl AsRef<Path>) -> Result<Self> {
        let dir = dir.as_ref().to_path_buf();
        let manifest = std::fs::read_to_string(dir.join("MANIFEST"))
            .map_err(|e| IbisError::io("read MANIFEST", &e))?;
        let entries = parse_manifest(&manifest)?;
        Ok(Store { dir, entries })
    }

    /// The run directory this store reads from.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Steps present in the store, ascending.
    pub fn steps(&self) -> Vec<usize> {
        let mut v: Vec<usize> = self.entries.keys().map(|(s, _)| *s).collect();
        v.dedup();
        v
    }

    /// Variables present for `step` — data variables only; the reserved
    /// [`ORDER_VARIABLE`] permutation and [`LOSSY_PREFIX`] companion
    /// entries are hidden.
    pub fn variables(&self, step: usize) -> Vec<&str> {
        self.entries
            .iter()
            .filter(|((s, v), _)| *s == step && v != ORDER_VARIABLE && !v.starts_with(LOSSY_PREFIX))
            .map(|((_, v), _)| v.as_str())
            .collect()
    }

    /// Loads one index, verifying framing and checksum on the way.
    pub fn get(&self, step: usize, variable: &str) -> Result<BitmapIndex> {
        let meta = self
            .entries
            .get(&(step, variable.to_string()))
            .filter(|_| variable != ORDER_VARIABLE && !variable.starts_with(LOSSY_PREFIX))
            .ok_or_else(|| IbisError::NotFound {
                step,
                variable: variable.to_string(),
            })?;
        let (payload, _) = self.verified_payload(meta)?;
        codec::decode_index(&payload).map_err(|source| IbisError::Decode {
            file: Some(meta.file.clone()),
            source,
        })
    }

    /// Reads a blob and runs every integrity check — on-disk length and
    /// payload CRC against the manifest's, framing and the frame's own CRC
    /// — returning the (still encoded) payload and the frame's codec claim.
    fn verified_payload(&self, meta: &EntryMeta) -> Result<(Vec<u8>, FrameTag)> {
        let corrupt = |detail: String| IbisError::Corrupt {
            file: meta.file.clone(),
            detail,
        };
        let bytes = std::fs::read(self.dir.join(&meta.file))
            .map_err(|e| IbisError::io(format!("read blob {}", meta.file), &e))?;
        if bytes.len() as u64 != meta.len {
            return Err(corrupt(format!(
                "on-disk length {} != manifest's {}",
                bytes.len(),
                meta.len
            )));
        }
        let (payload, actual, tag) = unframe_blob(&bytes).map_err(corrupt)?;
        if actual != meta.crc {
            return Err(corrupt(format!(
                "payload CRC {actual:08x} != manifest's {:08x}",
                meta.crc
            )));
        }
        Ok((payload.to_vec(), tag))
    }

    /// Loads `step`'s row permutation, or `None` when the step was stored
    /// in its original order. Verifies the `IBP1` framing and payload CRC
    /// like any blob, that the frame's order tag names a known
    /// non-identity [`RowOrder`], and that the payload is a bijection
    /// ([`RowPermutation::from_inverse`]) — a corrupt permutation would
    /// silently misroute region queries, so every failure is a typed
    /// [`IbisError::Corrupt`].
    pub fn load_order(&self, step: usize) -> Result<Option<(RowOrder, RowPermutation)>> {
        let Some(meta) = self.entries.get(&(step, ORDER_VARIABLE.to_string())) else {
            return Ok(None);
        };
        let (payload, tag) = self.verified_payload(meta)?;
        let corrupt = |detail: String| IbisError::Corrupt {
            file: meta.file.clone(),
            detail,
        };
        let FrameTag::Perm(order_tag) = tag else {
            return Err(corrupt("permutation blob lost its IBP1 framing".into()));
        };
        let order = RowOrder::from_tag(order_tag)
            .filter(|&o| o != RowOrder::Identity)
            .ok_or_else(|| corrupt(format!("unknown row-order tag {order_tag:#04x}")))?;
        let inv = decode_perm_payload(&payload).map_err(corrupt)?;
        let perm = RowPermutation::from_inverse(inv)
            .map_err(|detail| corrupt(format!("permutation is not a bijection: {detail}")))?;
        OBS_ORDER_LOADED.inc();
        Ok(Some((order, perm)))
    }

    /// Loads `step`/`variable`'s lossy superset companion, or `None` when
    /// the run stored no companion for it. Verifies the `IBL1` framing and
    /// payload CRC like any blob, that the frame's FPR-class byte (outside
    /// the payload CRC) matches the exact FPR recorded inside the payload,
    /// that the FPR is in the supported range, and that the recorded drop
    /// accounting respects the FPR budget — a corrupt companion would
    /// silently widen or (worse) narrow the filter, so every failure is a
    /// typed [`IbisError::Corrupt`].
    pub fn load_lossy(&self, step: usize, variable: &str) -> Result<Option<LossyCompanion>> {
        let entry = format!("{LOSSY_PREFIX}{variable}");
        let Some(meta) = self.entries.get(&(step, entry)) else {
            return Ok(None);
        };
        let (payload, tag) = self.verified_payload(meta)?;
        let corrupt = |detail: String| IbisError::Corrupt {
            file: meta.file.clone(),
            detail,
        };
        let FrameTag::Lossy(class) = tag else {
            return Err(corrupt("lossy companion lost its IBL1 framing".into()));
        };
        let (fpr, bits_dropped, zeros, index_payload) =
            decode_lossy_payload(&payload).map_err(&corrupt)?;
        if fpr_class(fpr) != class {
            return Err(corrupt(format!(
                "frame FPR class {class} does not match the payload FPR {fpr} (class {})",
                fpr_class(fpr)
            )));
        }
        let index = codec::decode_index(index_payload).map_err(|source| IbisError::Decode {
            file: Some(meta.file.clone()),
            source,
        })?;
        OBS_LOSSY_LOADED.inc();
        Ok(Some(LossyCompanion {
            index,
            fpr,
            bits_dropped,
            zeros,
        }))
    }

    /// Verifies every blob end-to-end (framing, CRC, decode, frame codec
    /// tag vs the codecs actually present in the payload) and quarantines
    /// the ones that fail: the file is renamed to `<file>.quarantined`
    /// and the entry removed, so subsequent reads see only intact data.
    pub fn fsck(&mut self) -> FsckReport {
        OBS_FSCK_RUNS.inc();
        let mut report = FsckReport::default();
        let keys: Vec<(usize, String)> = self.entries.keys().cloned().collect();
        for (step, variable) in keys {
            report.checked += 1;
            let meta = self.entries[&(step, variable.clone())].clone();
            let verdict = if variable == ORDER_VARIABLE {
                // Permutation entry: the full IBP1 check load_order runs
                // (framing, CRC, known order tag, bijection).
                self.load_order(step).map(|_| ())
            } else if let Some(base) = variable.strip_prefix(LOSSY_PREFIX) {
                // Lossy companion: the full IBL1 check load_lossy runs
                // (framing, CRC, FPR range + budget, class cross-check).
                self.load_lossy(step, base).map(|_| ())
            } else {
                self.verified_payload(&meta)
                    .and_then(|(payload, tag)| {
                        let (_, bin_tags) =
                            codec::decode_index_with_tags(&payload).map_err(|source| {
                                IbisError::Decode {
                                    file: Some(meta.file.clone()),
                                    source,
                                }
                            })?;
                        check_frame_tag(tag, &bin_tags).map_err(|detail| {
                            OBS_FSCK_TAG_MISMATCH.inc();
                            IbisError::Corrupt {
                                file: meta.file.clone(),
                                detail,
                            }
                        })
                    })
                    .map(|_| ())
            };
            if let Err(err) = verdict {
                OBS_FSCK_QUARANTINED.inc();
                let from = self.dir.join(&meta.file);
                let _ = std::fs::rename(&from, self.dir.join(format!("{}.quarantined", meta.file)));
                self.entries.remove(&(step, variable.clone()));
                report.quarantined.push(QuarantinedBlob {
                    step,
                    variable,
                    file: meta.file,
                    reason: err.to_string(),
                });
            }
        }
        report
    }

    /// Lazily loads one variable's index at one step — the per-blob read
    /// the query cache ([`crate::cache::CachedStore`]) builds on, so a
    /// query touching one `(variable, step)` pays for one blob instead of a
    /// whole [`Store::load_series`] scan. Verifies framing and checksum
    /// exactly like [`Store::get`].
    pub fn load_bitmap(&self, variable: &str, step: usize) -> Result<BitmapIndex> {
        self.get(step, variable)
    }

    /// Loads every step of one variable, in step order.
    pub fn load_series(&self, variable: &str) -> Result<Vec<(usize, BitmapIndex)>> {
        self.steps()
            .into_iter()
            .filter(|&s| self.entries.contains_key(&(s, variable.to_string())))
            .map(|s| Ok((s, self.get(s, variable)?)))
            .collect()
    }
}

fn parse_manifest(manifest: &str) -> Result<BTreeMap<(usize, String), EntryMeta>> {
    if !manifest.starts_with(MANIFEST_HEADER) {
        return Err(IbisError::Manifest {
            line: 1,
            reason: format!("missing the {MANIFEST_HEADER:?} header"),
        });
    }
    let footer_start = manifest.rfind("#END ").ok_or(IbisError::Manifest {
        line: 0,
        reason: "v2 manifest has no #END footer (truncated?)".into(),
    })?;
    let (body, footer) = manifest.split_at(footer_start);
    let footer = footer.trim_end();
    let mut fields = footer.strip_prefix("#END ").unwrap_or("").split(' ');
    let (Some(count), Some(crc), None) = (fields.next(), fields.next(), fields.next()) else {
        return Err(IbisError::Manifest {
            line: 0,
            reason: "malformed #END footer".into(),
        });
    };
    let count: usize = count.parse().map_err(|_| IbisError::Manifest {
        line: 0,
        reason: "bad entry count in #END footer".into(),
    })?;
    let crc = u32::from_str_radix(crc, 16).map_err(|_| IbisError::Manifest {
        line: 0,
        reason: "bad CRC in #END footer".into(),
    })?;
    let actual = crc32c(body.as_bytes());
    if actual != crc {
        return Err(IbisError::Manifest {
            line: 0,
            reason: format!("manifest CRC {actual:08x} != footer's {crc:08x}"),
        });
    }
    let mut entries = BTreeMap::new();
    for (lineno, line) in body.lines().enumerate().skip(1) {
        let (step, var, meta) = parse_entry_fields(line).ok_or_else(|| IbisError::Manifest {
            line: lineno + 1,
            reason: "expected 5 tab-separated fields".into(),
        })?;
        check_file_name(&meta.file).map_err(|reason| IbisError::Manifest {
            line: lineno + 1,
            reason,
        })?;
        entries.insert((step, var), meta);
    }
    if entries.len() != count {
        return Err(IbisError::Manifest {
            line: 0,
            reason: format!("{} entries != footer's count {count}", entries.len()),
        });
    }
    Ok(entries)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPlan;
    use ibis_core::Binner;

    fn sample_index(seed: usize) -> BitmapIndex {
        let data: Vec<f64> = (0..500).map(|i| ((i * (seed + 3)) % 40) as f64).collect();
        BitmapIndex::build(&data, Binner::distinct_ints(0, 39))
    }

    fn tmp(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("ibis-store-{name}"));
        std::fs::remove_dir_all(&d).ok();
        d
    }

    #[test]
    fn round_trip_store() {
        let dir = tmp("roundtrip");
        let mut w = StoreWriter::create(&dir).unwrap();
        for step in [0usize, 5, 9] {
            w.put(step, "temperature", &sample_index(step)).unwrap();
            w.put(step, "salinity", &sample_index(step + 100)).unwrap();
        }
        w.finish().unwrap();

        let store = Store::open(&dir).unwrap();
        assert_eq!(store.steps(), vec![0, 5, 9]);
        assert_eq!(store.variables(5), vec!["salinity", "temperature"]);
        let idx = store.get(5, "temperature").unwrap();
        assert_eq!(idx.counts(), sample_index(5).counts());
        let series = store.load_series("salinity").unwrap();
        assert_eq!(series.len(), 3);
        assert_eq!(series[2].0, 9);
        assert!(
            !dir.join("JOURNAL").exists(),
            "finish() must retire the journal"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn open_without_manifest_fails() {
        let dir = tmp("nomanifest");
        std::fs::create_dir_all(&dir).unwrap();
        assert!(Store::open(&dir).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_entry_is_not_found() {
        let dir = tmp("missing");
        let mut w = StoreWriter::create(&dir).unwrap();
        w.put(1, "temperature", &sample_index(1)).unwrap();
        w.finish().unwrap();
        let store = Store::open(&dir).unwrap();
        let err = store.get(1, "salinity").unwrap_err();
        assert!(matches!(err, IbisError::NotFound { step: 1, .. }), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truncated_blob_is_corrupt() {
        let dir = tmp("corrupt");
        let mut w = StoreWriter::create(&dir).unwrap();
        w.put(2, "temperature", &sample_index(2)).unwrap();
        let finished = w.finish().unwrap();
        let f = finished.join("s000002_temperature.ibis");
        let bytes = std::fs::read(&f).unwrap();
        std::fs::write(&f, &bytes[..bytes.len() / 2]).unwrap();
        let store = Store::open(&dir).unwrap();
        let err = store.get(2, "temperature").unwrap_err();
        assert!(matches!(err, IbisError::Corrupt { .. }), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn single_flipped_byte_is_detected() {
        let dir = tmp("bitflip");
        let mut w = StoreWriter::create(&dir).unwrap();
        w.put(3, "temperature", &sample_index(3)).unwrap();
        let finished = w.finish().unwrap();
        let f = finished.join("s000003_temperature.ibis");
        let mut bytes = std::fs::read(&f).unwrap();
        let mid = bytes.len() / 2; // somewhere inside the payload
        bytes[mid] ^= 0x01;
        std::fs::write(&f, &bytes).unwrap();
        let store = Store::open(&dir).unwrap();
        let err = store.get(3, "temperature").unwrap_err();
        match err {
            IbisError::Corrupt { detail, .. } => {
                assert!(detail.contains("CRC"), "flip must fail the CRC: {detail}")
            }
            other => panic!("expected Corrupt, got {other}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fsck_quarantines_corrupt_blob_and_series_skips_it() {
        let dir = tmp("fsck");
        let mut w = StoreWriter::create(&dir).unwrap();
        for step in [0usize, 1, 2] {
            w.put(step, "temperature", &sample_index(step)).unwrap();
        }
        let finished = w.finish().unwrap();
        let f = finished.join("s000001_temperature.ibis");
        let mut bytes = std::fs::read(&f).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&f, &bytes).unwrap();

        let mut store = Store::open(&dir).unwrap();
        let report = store.fsck();
        assert_eq!(report.checked, 3);
        assert_eq!(report.quarantined.len(), 1);
        assert_eq!(report.quarantined[0].step, 1);
        assert!(!report.is_clean());
        assert!(
            dir.join("s000001_temperature.ibis.quarantined").exists(),
            "corrupt blob must be set aside, not deleted"
        );
        assert!(!f.exists());

        let series = store.load_series("temperature").unwrap();
        assert_eq!(
            series.iter().map(|(s, _)| *s).collect::<Vec<_>>(),
            vec![0, 2],
            "load_series must return every uncorrupted step"
        );
        assert_eq!(series[0].1.counts(), sample_index(0).counts());

        // a second pass finds nothing left to quarantine
        assert!(store.fsck().is_clean());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resume_of_finished_store_keeps_manifest_entries() {
        let dir = tmp("resume-finished");
        let mut w = StoreWriter::create(&dir).unwrap();
        w.put(0, "temperature", &sample_index(0)).unwrap();
        w.put(1, "temperature", &sample_index(1)).unwrap();
        w.finish().unwrap();

        // A finished store (MANIFEST, no JOURNAL) must resume with its
        // entries intact, so appending and re-finishing loses nothing.
        let mut w = StoreWriter::resume(&dir).unwrap();
        assert!(w.contains(0, "temperature"));
        assert!(w.contains(1, "temperature"));
        w.put(2, "temperature", &sample_index(2)).unwrap();
        w.finish().unwrap();

        let store = Store::open(&dir).unwrap();
        assert_eq!(store.steps(), vec![0, 1, 2]);
        assert_eq!(
            store.get(1, "temperature").unwrap().counts(),
            sample_index(1).counts()
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resume_after_quarantine_drops_bad_entry_and_reput_repairs() {
        let dir = tmp("resume-repair");
        let mut w = StoreWriter::create(&dir).unwrap();
        for step in [0usize, 1] {
            w.put(step, "temperature", &sample_index(step)).unwrap();
        }
        w.finish().unwrap();
        // corrupt step 1's blob, quarantine it
        let f = dir.join("s000001_temperature.ibis");
        let mut bytes = std::fs::read(&f).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&f, &bytes).unwrap();
        let mut store = Store::open(&dir).unwrap();
        assert_eq!(store.fsck().quarantined.len(), 1);

        // resume verifies each manifest entry against its blob: the
        // quarantined (renamed-away) one is dropped, the intact one kept
        let mut w = StoreWriter::resume(&dir).unwrap();
        assert!(w.contains(0, "temperature"));
        assert!(!w.contains(1, "temperature"));
        w.put(1, "temperature", &sample_index(1)).unwrap();
        w.finish().unwrap();

        let mut store = Store::open(&dir).unwrap();
        assert!(store.fsck().is_clean());
        assert_eq!(
            store.get(1, "temperature").unwrap().counts(),
            sample_index(1).counts()
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn tampered_manifest_fails_footer_crc() {
        let dir = tmp("tamper");
        let mut w = StoreWriter::create(&dir).unwrap();
        w.put(0, "temperature", &sample_index(0)).unwrap();
        w.finish().unwrap();
        let path = dir.join("MANIFEST");
        let text = std::fs::read_to_string(&path).unwrap();
        // retarget the entry at a different file without fixing the footer
        std::fs::write(&path, text.replace("s000000", "s000009")).unwrap();
        let err = Store::open(&dir).unwrap_err();
        assert!(matches!(err, IbisError::Manifest { .. }), "{err}");
        // a truncated manifest (lost footer) is refused too
        let upto = text.rfind("#END").unwrap();
        std::fs::write(&path, &text[..upto]).unwrap();
        assert!(Store::open(&dir).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resume_recovers_journaled_blobs_and_ignores_torn_tail() {
        let dir = tmp("resume");
        let mut w = StoreWriter::create(&dir).unwrap();
        w.put(0, "temperature", &sample_index(0)).unwrap();
        w.put(1, "temperature", &sample_index(1)).unwrap();
        // crash: drop the writer without finish(); then tear the journal
        drop(w);
        let journal = dir.join("JOURNAL");
        let mut bytes = std::fs::read(&journal).unwrap();
        bytes.extend_from_slice(b"2\ttemperature\ts0000"); // torn final line
        std::fs::write(&journal, &bytes).unwrap();

        let mut w = StoreWriter::resume(&dir).unwrap();
        assert_eq!(w.durable_steps(), vec![0, 1]);
        assert!(w.contains(1, "temperature"));
        assert!(!w.contains(2, "temperature"));
        // idempotent re-put of step 1, then the step the crash lost
        w.put(1, "temperature", &sample_index(1)).unwrap();
        w.put(2, "temperature", &sample_index(2)).unwrap();
        w.finish().unwrap();

        let store = Store::open(&dir).unwrap();
        assert_eq!(store.steps(), vec![0, 1, 2]);
        assert_eq!(
            store.get(1, "temperature").unwrap().counts(),
            sample_index(1).counts()
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resume_drops_journal_entries_whose_blob_is_bad() {
        let dir = tmp("resumebad");
        let mut w = StoreWriter::create(&dir).unwrap();
        w.put(0, "temperature", &sample_index(0)).unwrap();
        w.put(1, "temperature", &sample_index(1)).unwrap();
        drop(w);
        // blob 1 is journaled but its file got corrupted before the resume
        let f = dir.join("s000001_temperature.ibis");
        let mut bytes = std::fs::read(&f).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        std::fs::write(&f, &bytes).unwrap();
        let w = StoreWriter::resume(&dir).unwrap();
        assert_eq!(
            w.durable_steps(),
            vec![0],
            "bad blob must not count as durable"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_write_fault_retries_and_leaves_no_partial_blob() {
        let dir = tmp("tornfault");
        let inj = Arc::new(FaultInjector::new(
            FaultPlan::none().with_torn_write_at(0).with_io_error_at(1),
        ));
        let mut w = StoreWriter::create(&dir)
            .unwrap()
            .with_fault_injector(Arc::clone(&inj));
        w.put(0, "temperature", &sample_index(0)).unwrap();
        w.put(1, "temperature", &sample_index(1)).unwrap();
        w.finish().unwrap();
        let store = Store::open(&dir).unwrap();
        assert_eq!(
            store.get(0, "temperature").unwrap().counts(),
            sample_index(0).counts()
        );
        assert_eq!(
            store.get(1, "temperature").unwrap().counts(),
            sample_index(1).counts()
        );
        assert_eq!(inj.events().len(), 2, "both faults must be recorded");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn persistent_write_fault_exhausts_attempts() {
        let dir = tmp("exhaust");
        let inj = Arc::new(FaultInjector::new(
            FaultPlan::none()
                .with_io_error_at(0)
                .with_persistent_write_faults(),
        ));
        let mut w = StoreWriter::create(&dir).unwrap().with_fault_injector(inj);
        let err = w.put(0, "temperature", &sample_index(0)).unwrap_err();
        assert!(
            matches!(err, IbisError::StorageExhausted { attempts: 4, .. }),
            "{err}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn hostile_manifest_rejected() {
        let dir = tmp("hostile");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("MANIFEST"), "0\ttemp\t../../etc/passwd\n").unwrap();
        assert!(Store::open(&dir).is_err());
        std::fs::write(dir.join("MANIFEST"), "zero\ttemp\tx.ibis\n").unwrap();
        assert!(Store::open(&dir).is_err());
        std::fs::write(dir.join("MANIFEST"), "0\ttemp\n").unwrap();
        assert!(Store::open(&dir).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn headerless_manifest_and_unframed_blob_are_refused() {
        let dir = tmp("unchecked");
        let mut w = StoreWriter::create(&dir).unwrap();
        w.put(4, "temperature", &sample_index(4)).unwrap();
        w.finish().unwrap();
        let manifest_path = dir.join("MANIFEST");
        let manifest = std::fs::read_to_string(&manifest_path).unwrap();

        // A pre-v2 three-field manifest, and a v2 manifest whose header
        // line is damaged or cut off, are refused by name — never parsed
        // as a format without integrity metadata.
        let body = manifest.strip_prefix(MANIFEST_HEADER).unwrap();
        for bad in [
            "4\ttemperature\ts000004_temperature.ibis\n".to_string(),
            format!("#IBIS-STORE v1{body}"),
            body.trim_start().to_string(),
            String::new(),
        ] {
            std::fs::write(&manifest_path, &bad).unwrap();
            let err = Store::open(&dir).unwrap_err();
            assert!(
                matches!(&err, IbisError::Manifest { line: 1, reason } if reason.contains("header")),
                "{bad:?}: {err}"
            );
            // a resumed writer does not trust it either
            let resumed = StoreWriter::resume(&dir).unwrap();
            assert!(resumed.durable_steps().is_empty(), "{bad:?}");
            std::fs::remove_file(dir.join("JOURNAL")).unwrap();
        }

        // A blob that lost its frame — here the bare payload under a
        // manifest that records exactly that length and CRC — is Corrupt
        // on every read path and quarantined by fsck.
        let payload = codec::encode_index(&sample_index(4));
        let blob = "s000004_temperature.ibis";
        std::fs::write(dir.join(blob), &payload).unwrap();
        let body = format!(
            "{MANIFEST_HEADER}\n4\ttemperature\t{blob}\t{}\t{:08x}\n",
            payload.len(),
            crc32c(&payload)
        );
        let sealed = format!("{body}#END 1 {:08x}\n", crc32c(body.as_bytes()));
        std::fs::write(&manifest_path, sealed).unwrap();
        let mut store = Store::open(&dir).unwrap();
        for read in [
            store.get(4, "temperature").map(|_| ()),
            store.load_series("temperature").map(|_| ()),
        ] {
            let err = read.unwrap_err();
            assert!(
                matches!(&err, IbisError::Corrupt { detail, .. } if detail.contains("framing")),
                "{err}"
            );
        }
        assert_eq!(store.fsck().quarantined.len(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Long smooth runs: every bin's codec plan stays WAH.
    fn smooth_index() -> BitmapIndex {
        let data: Vec<f64> = (0..20_000).map(|i| (i / 500) as f64).collect();
        BitmapIndex::build(&data, Binner::distinct_ints(0, 39))
    }

    #[test]
    fn all_wah_blob_keeps_legacy_ibb2_frame() {
        let dir = tmp("wahframe");
        let idx = smooth_index();
        let mut w = StoreWriter::create(&dir).unwrap();
        w.put(0, "temperature", &idx).unwrap();
        w.finish().unwrap();
        let bytes = std::fs::read(dir.join("s000000_temperature.ibis")).unwrap();
        assert_eq!(&bytes[..4], BLOB_MAGIC, "all-WAH plan must stay on IBB2");
        let payload = codec::encode_index(&idx);
        let mut legacy = b"IBB2".to_vec();
        legacy.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        legacy.extend_from_slice(&payload);
        legacy.extend_from_slice(&crc32c(&payload).to_le_bytes());
        assert_eq!(
            bytes, legacy,
            "all-WAH blob bytes must match the legacy framing exactly"
        );
        let store = Store::open(&dir).unwrap();
        assert_eq!(store.get(0, "temperature").unwrap().counts(), idx.counts());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn non_wah_blobs_use_tagged_frame_and_round_trip() {
        let dir = tmp("tagframe");
        let mut w = StoreWriter::create(&dir).unwrap();
        // seed 0: every residue mod 40 hit, all bins scattered → uniform
        // Roaring plan; seed 1: only residues 0,4,…,36 hit, so 30 empty
        // (WAH) bins alongside 10 Roaring bins → mixed plan
        w.put(0, "temperature", &sample_index(0)).unwrap();
        w.put(1, "temperature", &sample_index(1)).unwrap();
        w.finish().unwrap();

        let uniform = std::fs::read(dir.join("s000000_temperature.ibis")).unwrap();
        assert_eq!(&uniform[..4], BLOB_MAGIC_TAGGED);
        assert_eq!(
            uniform[4],
            ibis_core::CodecId::Roaring.tag(),
            "uniform plan must carry its codec's tag"
        );
        let mixed = std::fs::read(dir.join("s000001_temperature.ibis")).unwrap();
        assert_eq!(&mixed[..4], BLOB_MAGIC_TAGGED);
        assert_eq!(mixed[4], MIXED_TAG, "mixed plan must carry the mixed tag");

        let mut store = Store::open(&dir).unwrap();
        for step in [0usize, 1] {
            assert_eq!(
                store.get(step, "temperature").unwrap().counts(),
                sample_index(step).counts(),
                "tagged blob must decode back to the same index"
            );
        }
        assert!(store.fsck().is_clean(), "honest tags must pass fsck");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fsck_quarantines_frame_tag_payload_mismatch() {
        let dir = tmp("tagmismatch");
        let mut w = StoreWriter::create(&dir).unwrap();
        w.put(0, "temperature", &sample_index(0)).unwrap(); // uniform Roaring
        w.put(1, "temperature", &sample_index(1)).unwrap(); // mixed
        w.finish().unwrap();

        // The tag byte sits outside the payload CRC, so neither the frame
        // CRC nor the manifest notices a flipped tag — only fsck's
        // cross-check against the decoded payload does.
        let f0 = dir.join("s000000_temperature.ibis");
        let mut bytes = std::fs::read(&f0).unwrap();
        bytes[4] = MIXED_TAG; // claim mixed over a uniform payload
        std::fs::write(&f0, &bytes).unwrap();
        let f1 = dir.join("s000001_temperature.ibis");
        let mut bytes = std::fs::read(&f1).unwrap();
        bytes[4] = ibis_core::CodecId::Wah.tag(); // claim WAH over mixed
        std::fs::write(&f1, &bytes).unwrap();

        let store = Store::open(&dir).unwrap();
        // plain reads ignore the tag and still verify + decode
        assert_eq!(
            store.get(0, "temperature").unwrap().counts(),
            sample_index(0).counts()
        );
        drop(store);

        let mut store = Store::open(&dir).unwrap();
        let report = store.fsck();
        assert_eq!(report.checked, 2);
        assert_eq!(report.quarantined.len(), 2, "{report:?}");
        for q in &report.quarantined {
            assert!(
                q.reason.contains("tag") || q.reason.contains("mixed"),
                "reason must name the tag mismatch: {}",
                q.reason
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn order_blob_round_trips_and_stays_hidden() {
        let dir = tmp("orderblob");
        let data: Vec<f64> = (0..500).map(|i| ((i * 7) % 40) as f64).collect();
        let binner = Binner::distinct_ints(0, 39);
        let order = ibis_core::RowOrder::HistogramSorted;
        let perm = order.permutation(&[], &binner, &data).unwrap();
        let mut w = StoreWriter::create(&dir).unwrap();
        w.put(
            3,
            "temperature",
            &BitmapIndex::build_permuted(&data, binner, &perm),
        )
        .unwrap();
        w.put_order(3, order, &perm).unwrap();
        w.finish().unwrap();

        let bytes = std::fs::read(dir.join("s000003___order.ibis")).unwrap();
        assert_eq!(&bytes[..4], BLOB_MAGIC_PERM);
        assert_eq!(bytes[4], order.tag());

        let mut store = Store::open(&dir).unwrap();
        // hidden from the data catalog, unreadable as an index
        assert_eq!(store.variables(3), vec!["temperature"]);
        assert!(matches!(
            store.get(3, ORDER_VARIABLE).unwrap_err(),
            IbisError::NotFound { .. }
        ));
        // but loads back exactly, and fsck accepts it
        let (got_order, got_perm) = store.load_order(3).unwrap().unwrap();
        assert_eq!(got_order, order);
        assert_eq!(got_perm, perm);
        assert_eq!(store.load_order(4).unwrap(), None);
        assert!(store.fsck().is_clean());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fsck_quarantines_corrupt_order_blob() {
        let dir = tmp("orderfsck");
        let data: Vec<f64> = (0..400).map(|i| ((i * 3) % 40) as f64).collect();
        let binner = Binner::distinct_ints(0, 39);
        let order = ibis_core::RowOrder::GrayBin;
        let perm = order.permutation(&[], &binner, &data).unwrap();
        let mut w = StoreWriter::create(&dir).unwrap();
        w.put(0, "temperature", &sample_index(0)).unwrap();
        w.put_order(0, order, &perm).unwrap();
        w.finish().unwrap();

        // An unknown order tag sits outside the payload CRC — only the
        // load/fsck tag check catches it.
        let f = dir.join("s000000___order.ibis");
        let clean = std::fs::read(&f).unwrap();
        let mut bytes = clean.clone();
        bytes[4] = 0x7E;
        std::fs::write(&f, &bytes).unwrap();
        let store = Store::open(&dir).unwrap();
        let err = store.load_order(0).unwrap_err();
        assert!(matches!(err, IbisError::Corrupt { .. }), "{err}");

        // A payload edit with a fixed-up frame CRC still trips the
        // manifest's independent payload CRC, and fsck quarantines it.
        let payload_at = 13usize; // IBP1 + tag + u64 len
        let mut bytes = clean.clone();
        for b in &mut bytes[payload_at + 8..payload_at + 16] {
            *b = 0;
        }
        let payload_len = bytes.len() - payload_at - 4;
        let crc = crc32c(&bytes[payload_at..payload_at + payload_len]);
        let at = bytes.len() - 4;
        bytes[at..].copy_from_slice(&crc.to_le_bytes());
        std::fs::write(&f, &bytes).unwrap();
        let mut store = Store::open(&dir).unwrap();
        let report = store.fsck();
        assert_eq!(report.quarantined.len(), 1, "{report:?}");
        assert_eq!(report.quarantined[0].variable, ORDER_VARIABLE);
        assert!(dir.join("s000000___order.ibis.quarantined").exists());
        // the data entry survives and still reads
        assert_eq!(
            store.get(0, "temperature").unwrap().counts(),
            sample_index(0).counts()
        );
        assert_eq!(store.load_order(0).unwrap(), None);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reserved_order_variable_and_identity_rejected() {
        let dir = tmp("orderreserved");
        let mut w = StoreWriter::create(&dir).unwrap();
        let err = w.put(0, ORDER_VARIABLE, &sample_index(0)).unwrap_err();
        assert!(matches!(err, IbisError::Config(_)), "{err}");
        let identity = ibis_core::RowPermutation::from_inverse(vec![0, 1, 2]).unwrap();
        let err = w
            .put_order(0, ibis_core::RowOrder::GrayBin, &identity)
            .unwrap_err();
        assert!(matches!(err, IbisError::Config(_)), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn hostile_variable_name_rejected() {
        let dir = tmp("hostilevar");
        let mut w = StoreWriter::create(&dir).unwrap();
        let err = w.put(0, "../evil", &sample_index(0)).unwrap_err();
        assert!(matches!(err, IbisError::Config(_)), "{err}");
        assert!(w.put(0, "", &sample_index(0)).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn lossy_companion_round_trip() {
        let dir = tmp("lossyroundtrip");
        let exact = sample_index(7);
        let (lossy, stats) = exact.lossy(1e-2);
        let mut w = StoreWriter::create(&dir).unwrap();
        w.put(0, "temperature", &exact).unwrap();
        w.put_lossy(0, "temperature", &lossy, 1e-2, &stats).unwrap();
        w.finish().unwrap();

        let store = Store::open(&dir).unwrap();
        // the companion entry is hidden from the data-variable catalog
        assert_eq!(store.variables(0), vec!["temperature"]);
        assert!(matches!(
            store.get(0, "__lossy_temperature").unwrap_err(),
            IbisError::NotFound { .. }
        ));
        let companion = store.load_lossy(0, "temperature").unwrap().unwrap();
        assert!((companion.fpr - 1e-2).abs() < 1e-12);
        assert_eq!(companion.bits_dropped, stats.bits_dropped);
        assert_eq!(companion.zeros, stats.zeros);
        assert!(companion.measured_fpr() <= 1e-2);
        for b in 0..exact.nbins() {
            assert_eq!(
                exact.bin(b).and(companion.index.bin(b)),
                *exact.bin(b),
                "bin {b} superset"
            );
        }
        assert_eq!(store.load_lossy(0, "salinity").unwrap().map(|_| ()), None);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn lossy_reserved_prefix_and_bad_fpr_rejected() {
        let dir = tmp("lossyreserved");
        let mut w = StoreWriter::create(&dir).unwrap();
        let err = w
            .put(0, "__lossy_temperature", &sample_index(0))
            .unwrap_err();
        assert!(matches!(err, IbisError::Config(_)), "{err}");
        let (lossy, stats) = sample_index(0).lossy(1e-2);
        for bad in [0.0, 1e-5, 0.5, f64::NAN] {
            let err = w
                .put_lossy(0, "temperature", &lossy, bad, &stats)
                .unwrap_err();
            assert!(matches!(err, IbisError::Config(_)), "fpr {bad}: {err}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fsck_cross_checks_lossy_class_byte() {
        // the FPR class in the frame tag sits outside the payload CRC, so
        // only fsck's cross-check against the payload FPR catches it
        let dir = tmp("lossytag");
        let exact = sample_index(3);
        let (lossy, stats) = exact.lossy(1e-1);
        let mut w = StoreWriter::create(&dir).unwrap();
        w.put(0, "temperature", &exact).unwrap();
        w.put_lossy(0, "temperature", &lossy, 1e-1, &stats).unwrap();
        let finished = w.finish().unwrap();

        let f = finished.join("s000000___lossy_temperature.ibis");
        let mut bytes = std::fs::read(&f).unwrap();
        assert_eq!(&bytes[..4], BLOB_MAGIC_LOSSY);
        assert_eq!(bytes[4], 1, "1e-1 is class 1");
        bytes[4] = 3; // claim class 3 (≤1e-3): a stricter FPR than real
        std::fs::write(&f, &bytes).unwrap();

        let mut store = Store::open(&dir).unwrap();
        let err = store.load_lossy(0, "temperature").unwrap_err();
        assert!(matches!(err, IbisError::Corrupt { .. }), "{err}");
        let report = store.fsck();
        assert_eq!(report.quarantined.len(), 1);
        assert_eq!(report.quarantined[0].variable, "__lossy_temperature");
        // after quarantine the companion is simply absent; data survives
        assert!(store.load_lossy(0, "temperature").unwrap().is_none());
        assert_eq!(
            store.get(0, "temperature").unwrap().counts(),
            exact.counts()
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
