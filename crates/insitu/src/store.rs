//! A durable on-disk store for the in-situ phase's output: one directory
//! holding the selected time-steps' indices (one `.ibis` file per step per
//! variable) plus a manifest — the artifact a post-analysis session opens
//! instead of the raw simulation output.
//!
//! Because this store *replaces* the raw data, format v2 treats silent
//! corruption and partial writes as first-class failure modes:
//!
//! * every blob is one CRC-sealed frame — `"IBF" | kind (u8) |
//!   payload len (u64 LE) | payload | CRC32-C (u32 LE) of kind, len and
//!   payload` — written via temp-file + rename, so a crashed writer never
//!   leaves a half-written blob under its final name. The kind says what
//!   the payload is (index 1, row order 2, the pipeline's `CHECKPOINT` 4;
//!   kind 3 held the retired lossy companions), and nothing a reader acts
//!   on sits outside the CRC: per-bin codec tags live in the index payload,
//!   and the [`RowOrder`] tag is the first byte of the order payload;
//! * a `JOURNAL` records each durable blob as it lands (each line carries
//!   its own CRC, so a torn journal tail is detected and ignored) — an
//!   interrupted run can [`StoreWriter::resume`] and re-put idempotently;
//! * the `MANIFEST` carries a format header, per-entry length + CRC, and
//!   a whole-file CRC footer, all written atomically; [`Store::open`]
//!   refuses a manifest whose footer does not check out;
//! * [`Store::fsck`] runs every entry's ordinary typed load — framing,
//!   kind, CRC, decode — and quarantines the ones that fail (renamed to
//!   `*.quarantined`), so [`Store::load_series`] afterwards returns exactly
//!   the uncorrupted steps.
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
use ibis_core::{BitmapIndex, RowOrder, RowPermutation};
use ibis_obs::LazyCounter;
use std::collections::BTreeMap;
use std::io::Write;
use std::ops::{Range, RangeInclusive};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Magic prefix of every frame.
const FRAME_MAGIC: &[u8; 3] = b"IBF";
/// Framing overhead: magic + kind + u64 length + u32 CRC.
const FRAME_OVERHEAD: usize = 3 + 1 + 8 + 4;
/// Reserved variable name a step's row permutation stores under. Passes
/// [`check_variable_name`] so the blob rides the ordinary entry / journal /
/// manifest machinery, but is hidden from [`Store::variables`] and refused
/// by [`StoreWriter::put`], so no data variable can collide with it.
pub const ORDER_VARIABLE: &str = "__order";
/// Reserved name prefix of the retired lossy companions
/// (`__lossy_<variable>`, frame kind 3). [`StoreWriter::put`] refuses it,
/// and opening a store written with companions skips their entries
/// (`store.manifest.retired_skipped`): nothing reads them.
pub const LOSSY_PREFIX: &str = "__lossy_";
/// First line of a v2 manifest.
const MANIFEST_HEADER: &str = "#IBIS-STORE v2";

/// What a frame's payload is; the discriminant is the frame's kind byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Kind {
    /// A bitmap index ([`codec::encode_index_auto`]).
    Index = 1,
    /// A row permutation: `RowOrder` tag (u8), then [`put_perm_payload`].
    Order = 2,
    /// The durable pipeline's selector checkpoint.
    Checkpoint = 4,
}

impl Kind {
    /// The kind of blob the store entry named `entry` holds.
    fn of(entry: &str) -> Kind {
        if entry == ORDER_VARIABLE {
            Kind::Order
        } else {
            Kind::Index
        }
    }
}

/// What the store knows about one blob.
#[derive(Debug, Clone, PartialEq, Eq)]
struct EntryMeta {
    file: String,
    /// On-disk (framed) length.
    len: u64,
    /// The frame's CRC32-C.
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
static OBS_RETIRED_SKIPPED: LazyCounter = LazyCounter::new("store.manifest.retired_skipped");
// Row-permutation blobs written and read back (family `reorder`, see
// DESIGN.md §6j).
static OBS_ORDER_PUT: LazyCounter = LazyCounter::new("reorder.store.put");
static OBS_ORDER_LOADED: LazyCounter = LazyCounter::new("reorder.store.loaded");

/// Wraps a payload in the one frame — `"IBF" | kind | payload len (u64
/// LE) | payload | CRC32-C (u32 LE)` with the CRC over kind, length and
/// payload — and returns the frame together with that CRC, so a put
/// checksums its bytes once for both the frame and the entry's
/// journal/manifest record.
pub(crate) fn frame(kind: Kind, payload: &[u8]) -> (Vec<u8>, u32) {
    let mut out = Vec::with_capacity(payload.len() + FRAME_OVERHEAD);
    out.extend_from_slice(FRAME_MAGIC);
    out.push(kind as u8);
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(payload);
    let crc = crc32c(&out[FRAME_MAGIC.len()..]);
    out.extend_from_slice(&crc.to_le_bytes());
    (out, crc)
}

/// Validates a frame that must hold a `want` payload and returns the
/// payload and the frame's CRC (computed here, and equal to the stored
/// one), or a description of what is wrong.
pub(crate) fn unframe(bytes: &[u8], want: Kind) -> std::result::Result<(&[u8], u32), String> {
    if !bytes.starts_with(FRAME_MAGIC) {
        return Err("missing IBF framing magic".into());
    }
    if bytes.len() < FRAME_OVERHEAD {
        return Err(format!("framed blob too short ({} bytes)", bytes.len()));
    }
    let payload_len = bytes.len() - FRAME_OVERHEAD;
    let declared = crate::crc::le_u64(&bytes[4..12]);
    if payload_len as u64 != declared {
        return Err(format!(
            "framed length {} != declared payload {declared} + {FRAME_OVERHEAD}",
            bytes.len()
        ));
    }
    // everything the CRC covers: kind (1) | len (8) | payload
    let (sealed, stored) = bytes[FRAME_MAGIC.len()..].split_at(9 + payload_len);
    let stored = crate::crc::le_u32(stored);
    let actual = crc32c(sealed);
    if stored != actual {
        OBS_CRC_FAILED.inc();
        return Err(format!(
            "CRC mismatch: stored {stored:08x}, computed {actual:08x}"
        ));
    }
    OBS_CRC_VERIFIED.inc();
    if sealed[0] != want as u8 {
        return Err(format!(
            "framing holds a kind-{} payload where kind {} ({want:?}) belongs",
            sealed[0], want as u8
        ));
    }
    Ok((&sealed[9..], actual))
}

/// Appends a permutation as its gather order's runs of consecutive
/// original row ids ([`RowPermutation::runs`]): `rows | nruns | nruns ×
/// (zigzag(first − previous run's end) | len)`, every field a varint. A
/// stable sort by bin leaves long runs wherever the data is coherent, so
/// this is a few bits a row where the ids themselves are 32.
pub(crate) fn put_perm_payload(out: &mut Vec<u8>, perm: &RowPermutation) {
    let runs: Vec<(u32, u32)> = perm.runs().collect();
    codec::put_varint(out, perm.len() as u64);
    codec::put_varint(out, runs.len() as u64);
    let mut end = 0i64;
    for (first, len) in runs {
        let delta = first as i64 - end;
        codec::put_varint(out, ((delta << 1) ^ (delta >> 63)) as u64);
        codec::put_varint(out, len as u64);
        end = first as i64 + len as i64;
    }
}

/// Parses [`put_perm_payload`]'s bytes back into the permutation, or a
/// description of what is wrong. Everything is checked on the runs, whose
/// count the payload's own length bounds, before anything is allocated
/// per row: a run outside `0..rows`, runs that do not add up to `rows`,
/// overlap or leave a gap, two runs that are one, the identity (never
/// persisted), and a row count outside `want_rows` — what the indices it
/// orders allow, when the caller knows them — are all refused.
pub(crate) fn decode_perm_payload(
    payload: &[u8],
    want_rows: Option<RangeInclusive<u64>>,
) -> std::result::Result<RowPermutation, String> {
    let bad = |e: crate::error::DecodeError| format!("permutation payload: {e}");
    let mut r = codec::Reader::new(payload);
    let (rows, nruns) = (r.varint().map_err(bad)?, r.varint().map_err(bad)?);
    if rows > u32::MAX as u64 || nruns > payload.len() as u64 / 2 {
        return Err(format!(
            "{rows} rows in {nruns} runs cannot come from {} bytes",
            payload.len()
        ));
    }
    if let Some(want) = want_rows.filter(|want| !want.contains(&rows)) {
        let n = want.start();
        return Err(format!("orders {rows} rows, the step's index holds {n}"));
    }
    let mut runs: Vec<(u32, u32)> = Vec::with_capacity(nruns as usize);
    let (mut end, mut total) = (0u64, 0u64);
    for k in 0..nruns {
        let (zigzag, len) = (r.varint().map_err(bad)?, r.varint().map_err(bad)?);
        let delta = (zigzag >> 1) as i64 ^ -((zigzag & 1) as i64);
        let first = (end as i64)
            .checked_add(delta)
            .and_then(|s| u64::try_from(s).ok())
            .filter(|&s| (1..=rows - total).contains(&len) && s <= rows - len);
        let Some(first) = first else {
            return Err(format!("run {k} does not fit the {rows} rows"));
        };
        if k > 0 && delta == 0 {
            return Err(format!("runs {} and {k} are one run", k - 1));
        }
        runs.push((first as u32, len as u32));
        end = first + len;
        total += len;
    }
    r.finish().map_err(bad)?;
    if total != rows {
        return Err(format!("runs cover {total} of {rows} rows"));
    }
    if nruns < 2 {
        return Err("the identity permutation is never persisted".into());
    }
    // sorted by first id (one integer compare a pair), the runs must tile
    let mut by_first: Vec<u64> = runs
        .iter()
        .map(|&(first, len)| (first as u64) << 32 | len as u64)
        .collect();
    by_first.sort_unstable();
    let mut at = 0;
    for (first, len) in by_first.iter().map(|run| (run >> 32, run & 0xffff_ffff)) {
        if first != at {
            return Err(format!("row {} is gathered twice or never", first.min(at)));
        }
        at = first + len;
    }
    Ok(RowPermutation::from_runs(&runs))
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
    /// CRC valid, blob present, framing, kind and CRC intact; a torn
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
        let verify = |var: &str, meta: &EntryMeta| -> bool {
            std::fs::read(dir.join(&meta.file))
                .ok()
                .filter(|bytes| bytes.len() as u64 == meta.len)
                .is_some_and(|bytes| {
                    unframe(&bytes, Kind::of(var)).is_ok_and(|(_, crc)| crc == meta.crc)
                })
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
                if verify(&var, &meta) {
                    entries.insert((step, var), meta);
                }
            }
        }
        if let Ok(manifest) = std::fs::read_to_string(dir.join("MANIFEST")) {
            if let Ok(seed) = parse_manifest(&manifest) {
                for ((step, var), meta) in seed {
                    if !entries.contains_key(&(step, var.clone())) && verify(&var, &meta) {
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
            part: false,
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
    /// journaled. Re-putting an existing entry is idempotent (same payload
    /// → same bytes, entry overwritten).
    pub fn put(&mut self, step: usize, variable: &str, index: &BitmapIndex) -> Result<()> {
        check_variable_name(variable)?;
        if Kind::of(variable) != Kind::Index || variable.starts_with(LOSSY_PREFIX) {
            return Err(IbisError::Config(format!(
                "variable name {variable:?} is reserved ({ORDER_VARIABLE:?} holds row \
                 permutations, {LOSSY_PREFIX:?}… held retired lossy companions)"
            )));
        }
        let (payload, _) = codec::encode_index_auto(index);
        self.commit(step, variable, &payload)
    }

    /// Persists the step's row permutation under the reserved
    /// [`ORDER_VARIABLE`] entry: `order`'s tag, then the run-coded gather
    /// order ([`put_perm_payload`]), framed, CRC-checked, written
    /// atomically and journaled exactly like an index blob — so
    /// crash/resume and fsck cover it. One permutation per step: every
    /// variable of the step shares it, keeping cross-variable
    /// (correlation) bitmaps row-aligned.
    ///
    /// A permuted index read without its permutation answers region
    /// queries and cross-step metrics in the wrong row space, silently.
    /// Put the order *before* the step's permuted indices, so that a
    /// crash between the puts leaves an unused order rather than an
    /// orphaned index; [`Store::fsck`] holds up the other end and
    /// quarantines a step's indices with a lost order.
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
        let mut payload = vec![order.tag()];
        put_perm_payload(&mut payload, perm);
        self.commit(step, ORDER_VARIABLE, &payload)?;
        OBS_ORDER_PUT.inc();
        Ok(())
    }

    /// A no-op left of the retired lossy companions: writes nothing.
    /// Exists only for `benchmark/src/fixture.rs`; ROADMAP item 4's
    /// `[benchmark]` PR deletes it.
    #[doc(hidden)]
    pub fn put_lossy<L, S>(&mut self, _: usize, _: &str, _: &L, _: f64, _: &S) -> Result<()> {
        Ok(())
    }

    /// Lands `payload` under `entry`, framed as the entry's [`Kind`]: the
    /// atomic blob write first, then the journal line (synced) that
    /// declares it durable, then the in-memory entry.
    fn commit(&mut self, step: usize, entry: &str, payload: &[u8]) -> Result<()> {
        let (framed, crc) = frame(Kind::of(entry), payload);
        let meta = EntryMeta {
            file: format!("s{step:06}_{entry}.ibis"),
            len: framed.len() as u64,
            crc,
        };
        self.write_blob_with_faults(&meta.file, &framed)?;
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
    /// One shard of several ([`Store::into_part`]).
    part: bool,
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
        Ok(Store {
            dir,
            entries,
            part: false,
        })
    }

    /// Marks this store as one shard of several: its indices hold a slice
    /// of each step's rows while its row order is the whole step's, so
    /// [`Store::load_order`] expects the order to cover *at least* an
    /// index's rows where a whole store expects exactly them.
    pub(crate) fn into_part(mut self) -> Self {
        self.part = true;
        self
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
    /// [`ORDER_VARIABLE`] permutation entry is hidden.
    pub fn variables(&self, step: usize) -> Vec<&str> {
        self.entries
            .iter()
            .filter(|((s, v), _)| *s == step && Kind::of(v) == Kind::Index)
            .map(|((_, v), _)| v.as_str())
            .collect()
    }

    /// Loads one index, verifying framing and checksum on the way — the
    /// per-blob read the query cache ([`crate::cache::CachedStore`]) builds
    /// on. An exact index is a partition of its rows; one whose bins do not
    /// count every row once is [`IbisError::Corrupt`], so no statistic ever
    /// reads one.
    pub fn get(&self, step: usize, variable: &str) -> Result<BitmapIndex> {
        let meta = self
            .entries
            .get(&(step, variable.to_string()))
            .filter(|_| Kind::of(variable) == Kind::Index)
            .ok_or_else(|| IbisError::NotFound {
                step,
                variable: variable.to_string(),
            })?;
        let (bytes, payload) = self.verified_payload(meta, Kind::Index)?;
        let index = codec::decode_index(&bytes[payload]).map_err(|source| IbisError::Decode {
            file: Some(meta.file.clone()),
            source,
        })?;
        codec::exact(index).map_err(|detail| IbisError::Corrupt {
            file: meta.file.clone(),
            detail,
        })
    }

    /// Reads a blob and runs every integrity check — on-disk length and
    /// CRC against the manifest's, framing, the frame's own CRC, and that
    /// the frame holds a `kind` payload — returning the file's bytes and
    /// where in them the (still encoded) payload sits.
    fn verified_payload(&self, meta: &EntryMeta, kind: Kind) -> Result<(Vec<u8>, Range<usize>)> {
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
        let (_, actual) = unframe(&bytes, kind).map_err(corrupt)?;
        if actual != meta.crc {
            return Err(corrupt(format!(
                "frame CRC {actual:08x} != manifest's {:08x}",
                meta.crc
            )));
        }
        // the frame is `magic kind len | payload | crc`, as unframe checked
        let payload = FRAME_OVERHEAD - 4..bytes.len() - 4;
        Ok((bytes, payload))
    }

    /// Loads `step`'s row permutation, or `None` when the step was stored
    /// in its original order. Verifies framing, kind and CRC like any
    /// blob, that the payload's order tag names a known non-identity
    /// [`RowOrder`], and that the rest of it is a bijection
    /// ([`decode_perm_payload`]) over the rows the step's index holds —
    /// exactly as many, or at least as many in one shard of several (as
    /// [`crate::shard::ShardedStore`] opens them); the first index that
    /// verifies is asked, and a step with none yet has nothing to check
    /// against — before a row is allocated. A corrupt permutation would
    /// silently misroute region queries, so every failure is a typed
    /// [`IbisError::Corrupt`].
    pub fn load_order(&self, step: usize) -> Result<Option<(RowOrder, RowPermutation)>> {
        self.load_order_over(step, None)
    }

    /// [`Store::load_order`] by a caller that knows how many `rows` the
    /// order must cover (the engine: every shard's rows of the step) —
    /// checked in place of what this store's own index allows.
    pub(crate) fn load_order_over(
        &self,
        step: usize,
        rows: Option<u64>,
    ) -> Result<Option<(RowOrder, RowPermutation)>> {
        let Some(meta) = self.entries.get(&(step, ORDER_VARIABLE.to_string())) else {
            return Ok(None);
        };
        let (bytes, payload) = self.verified_payload(meta, Kind::Order)?;
        let corrupt = |detail: String| IbisError::Corrupt {
            file: meta.file.clone(),
            detail,
        };
        let (&order_tag, runs) = bytes[payload]
            .split_first()
            .ok_or_else(|| corrupt("empty row-order payload".into()))?;
        let order = RowOrder::from_tag(order_tag)
            .filter(|&o| o != RowOrder::Identity)
            .ok_or_else(|| corrupt(format!("unknown row-order tag {order_tag:#04x}")))?;
        let own_rows = || {
            let indices = self
                .entries
                .range((step, String::new())..(step + 1, String::new()))
                .filter(|(key, _)| Kind::of(&key.1) == Kind::Index);
            let mut rows = indices.filter_map(|(_, index)| {
                let (bytes, payload) = self.verified_payload(index, Kind::Index).ok()?;
                codec::index_rows(&bytes[payload]).ok()
            });
            rows.next()
                .map(|n| n..=if self.part { u64::MAX } else { n })
        };
        let want_rows = rows.map(|n| n..=n).or_else(own_rows);
        let perm = decode_perm_payload(runs, want_rows).map_err(corrupt)?;
        OBS_ORDER_LOADED.inc();
        Ok(Some((order, perm)))
    }

    /// Verifies every blob end-to-end by running its entry's ordinary
    /// typed load (framing, kind, CRC, decode and the payload's own
    /// checks) and quarantines the ones that fail: the file is renamed to
    /// `<file>.quarantined` and the entry removed, so subsequent reads see
    /// only intact data. A step that loses its [`ORDER_VARIABLE`] entry
    /// loses its indices with it — they are permuted, and read as if they
    /// were not they would answer in the wrong row space.
    pub fn fsck(&mut self) -> FsckReport {
        OBS_FSCK_RUNS.inc();
        let mut bad: BTreeMap<(usize, String), String> = BTreeMap::new();
        for ((step, variable), meta) in &self.entries {
            let verdict = match Kind::of(variable) {
                Kind::Order => self.load_order(*step).map(|_| ()),
                // a query may never ask an index for a bin's WAH form;
                // fsck asks for every one
                _ => self.get(*step, variable).and_then(|index| {
                    let forced = index.bins().map(|bin| bin.count_ones());
                    match forced.eq(index.counts().iter().copied()) {
                        true => Ok(()),
                        false => Err(IbisError::Corrupt {
                            file: meta.file.clone(),
                            detail: "a bin's rows disagree with its cardinality".into(),
                        }),
                    }
                }),
            };
            if let Err(err) = verdict {
                bad.insert((*step, variable.clone()), err.to_string());
            }
        }
        let lost = |step| bad.contains_key(&(step, ORDER_VARIABLE.to_string()));
        let orphans: Vec<_> = self.entries.keys().filter(|k| lost(k.0)).cloned().collect();
        for key in orphans {
            let reason = format!(
                "step {}'s row order is lost, its rows cannot be mapped",
                key.0
            );
            bad.entry(key).or_insert(reason);
        }
        let mut report = FsckReport {
            checked: self.entries.len(),
            quarantined: Vec::new(),
        };
        for ((step, variable), reason) in bad {
            let Some(meta) = self.entries.remove(&(step, variable.clone())) else {
                continue;
            };
            OBS_FSCK_QUARANTINED.inc();
            let from = self.dir.join(&meta.file);
            let _ = std::fs::rename(&from, self.dir.join(format!("{}.quarantined", meta.file)));
            report.quarantined.push(QuarantinedBlob {
                step,
                variable,
                file: meta.file,
                reason,
            });
        }
        report
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
    // the retired lossy companions (frame kind 3): nothing reads them
    let listed = entries.len();
    entries.retain(|(_, var), _| !var.starts_with(LOSSY_PREFIX));
    OBS_RETIRED_SKIPPED.add((listed - entries.len()) as u64);
    Ok(entries)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPlan;
    use ibis_core::{Binner, WahVec};
    use ibis_testkit::TempDir;

    fn sample_index(seed: usize) -> BitmapIndex {
        let data: Vec<f64> = (0..500).map(|i| ((i * (seed + 3)) % 40) as f64).collect();
        BitmapIndex::build(&data, Binner::distinct_ints(0, 39))
    }

    #[test]
    fn round_trip_store() {
        let dir = TempDir::new("roundtrip");
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
    }

    #[test]
    fn open_without_manifest_fails() {
        let dir = TempDir::new("nomanifest");
        std::fs::create_dir_all(&dir).unwrap();
        assert!(Store::open(&dir).is_err());
    }

    #[test]
    fn missing_entry_is_not_found() {
        let dir = TempDir::new("missing");
        let mut w = StoreWriter::create(&dir).unwrap();
        w.put(1, "temperature", &sample_index(1)).unwrap();
        w.finish().unwrap();
        let store = Store::open(&dir).unwrap();
        let err = store.get(1, "salinity").unwrap_err();
        assert!(matches!(err, IbisError::NotFound { step: 1, .. }), "{err}");
    }

    #[test]
    fn truncated_blob_is_corrupt() {
        let dir = TempDir::new("corrupt");
        let mut w = StoreWriter::create(&dir).unwrap();
        w.put(2, "temperature", &sample_index(2)).unwrap();
        let finished = w.finish().unwrap();
        let f = finished.join("s000002_temperature.ibis");
        let bytes = std::fs::read(&f).unwrap();
        std::fs::write(&f, &bytes[..bytes.len() / 2]).unwrap();
        let store = Store::open(&dir).unwrap();
        let err = store.get(2, "temperature").unwrap_err();
        assert!(matches!(err, IbisError::Corrupt { .. }), "{err}");
    }

    #[test]
    fn single_flipped_byte_is_detected() {
        let dir = TempDir::new("bitflip");
        let mut w = StoreWriter::create(&dir).unwrap();
        // a mixed codec plan: the blob whose frame used to keep a codec
        // tag at byte 4, outside the CRC, where only fsck looked
        w.put(3, "temperature", &sample_index(3)).unwrap();
        let finished = w.finish().unwrap();
        let f = finished.join("s000003_temperature.ibis");
        let clean = std::fs::read(&f).unwrap();
        // byte 4 of the header, and somewhere inside the payload
        for at in [4, clean.len() / 2] {
            let mut bytes = clean.clone();
            bytes[at] ^= 0x01;
            std::fs::write(&f, &bytes).unwrap();
            let mut store = Store::open(&dir).unwrap();
            let cached = crate::cache::CachedStore::new(Store::open(&dir).unwrap(), 1 << 20);
            for read in [
                store.get(3, "temperature").map(drop),
                store.load_series("temperature").map(drop),
                cached.get("temperature", 3).map(drop),
            ] {
                match read.unwrap_err() {
                    IbisError::Corrupt { detail, .. } => assert!(
                        at == 4 || detail.contains("CRC"),
                        "a payload flip must fail the CRC: {detail}"
                    ),
                    other => panic!("byte {at}: expected Corrupt, got {other}"),
                }
            }
            assert_eq!(store.fsck().quarantined.len(), 1, "byte {at}");
            std::fs::remove_file(f.with_extension("ibis.quarantined")).unwrap();
        }
    }

    #[test]
    fn fsck_quarantines_corrupt_blob_and_series_skips_it() {
        let dir = TempDir::new("fsck");
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
    }

    /// A CRC-valid exact blob whose bins count a row twice — an index no
    /// build makes — is refused on read and set aside by fsck.
    #[test]
    fn an_exact_blob_that_is_no_partition_is_corrupt_and_quarantined() {
        let dir = TempDir::new("no-partition");
        let n = sample_index(0).len();
        let mut bins = vec![WahVec::zeros(n); sample_index(0).nbins()];
        bins[0] = WahVec::ones(n);
        bins[1] = WahVec::from_bits((0..n).map(|r| r % 3 == 0));
        let overlapping = BitmapIndex::from_bins(sample_index(0).binner().clone(), bins);
        let mut w = StoreWriter::create(&dir).unwrap();
        w.put(0, "temperature", &sample_index(0)).unwrap();
        w.put(1, "temperature", &overlapping).unwrap();
        w.finish().unwrap();

        let mut store = Store::open(&dir).unwrap();
        assert!(store.get(0, "temperature").is_ok());
        match store.get(1, "temperature").unwrap_err() {
            IbisError::Corrupt { detail, .. } => assert!(detail.contains("not a partition")),
            other => panic!("expected Corrupt, got {other}"),
        }
        let report = store.fsck();
        assert_eq!(report.quarantined.len(), 1);
        assert_eq!(report.quarantined[0].step, 1);
        assert!(dir.join("s000001_temperature.ibis.quarantined").exists());
        assert!(store.fsck().is_clean());
    }

    #[test]
    fn resume_of_finished_store_keeps_manifest_entries() {
        let dir = TempDir::new("resume-finished");
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
    }

    #[test]
    fn resume_after_quarantine_drops_bad_entry_and_reput_repairs() {
        let dir = TempDir::new("resume-repair");
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
    }

    #[test]
    fn tampered_manifest_fails_footer_crc() {
        let dir = TempDir::new("tamper");
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
    }

    #[test]
    fn resume_recovers_journaled_blobs_and_ignores_torn_tail() {
        let dir = TempDir::new("resume");
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
    }

    #[test]
    fn resume_drops_journal_entries_whose_blob_is_bad() {
        let dir = TempDir::new("resumebad");
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
    }

    #[test]
    fn torn_write_fault_retries_and_leaves_no_partial_blob() {
        let dir = TempDir::new("tornfault");
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
    }

    #[test]
    fn persistent_write_fault_exhausts_attempts() {
        let dir = TempDir::new("exhaust");
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
    }

    #[test]
    fn hostile_manifest_rejected() {
        let dir = TempDir::new("hostile");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("MANIFEST"), "0\ttemp\t../../etc/passwd\n").unwrap();
        assert!(Store::open(&dir).is_err());
        std::fs::write(dir.join("MANIFEST"), "zero\ttemp\tx.ibis\n").unwrap();
        assert!(Store::open(&dir).is_err());
        std::fs::write(dir.join("MANIFEST"), "0\ttemp\n").unwrap();
        assert!(Store::open(&dir).is_err());
    }

    #[test]
    fn headerless_manifest_and_unframed_blob_are_refused() {
        let dir = TempDir::new("unchecked");
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

        // A blob without the frame — the bare payload, each of the four
        // retired framings around it, and an intact frame of another kind —
        // under a manifest that records exactly its length and CRC is
        // Corrupt on every read path, dropped by resume and quarantined by
        // fsck: never decoded on trust.
        let payload = codec::encode_index(&sample_index(4));
        let old_frame = |magic: &[u8; 4], tag: Option<u8>| {
            let mut out = magic.to_vec();
            out.extend(tag);
            out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
            out.extend_from_slice(&payload);
            out.extend_from_slice(&crc32c(&payload).to_le_bytes());
            out
        };
        let blob = "s000004_temperature.ibis";
        let bare_crc = crc32c(&payload);
        let (foreign, foreign_crc) = frame(Kind::Order, &payload);
        for (what, bytes, crc) in [
            ("framing", payload.clone(), bare_crc),
            ("framing", old_frame(b"IBB2", None), bare_crc),
            ("framing", old_frame(b"IBB3", Some(0xFF)), bare_crc),
            ("framing", old_frame(b"IBP1", Some(1)), bare_crc),
            ("framing", old_frame(b"IBL1", Some(2)), bare_crc),
            ("kind", foreign, foreign_crc),
        ] {
            std::fs::write(dir.join(blob), &bytes).unwrap();
            let body = format!(
                "{MANIFEST_HEADER}\n4\ttemperature\t{blob}\t{}\t{crc:08x}\n",
                bytes.len()
            );
            let sealed = format!("{body}#END 1 {:08x}\n", crc32c(body.as_bytes()));
            std::fs::write(&manifest_path, sealed).unwrap();
            let mut store = Store::open(&dir).unwrap();
            let cached = crate::cache::CachedStore::new(Store::open(&dir).unwrap(), 1 << 20);
            for read in [
                store.get(4, "temperature").map(drop),
                store.load_series("temperature").map(drop),
                cached.get("temperature", 4).map(drop),
            ] {
                let err = read.unwrap_err();
                assert!(
                    matches!(&err, IbisError::Corrupt { detail, .. } if detail.contains(what)),
                    "{:?}…: {err}",
                    &bytes[..4]
                );
            }
            assert!(!StoreWriter::resume(&dir)
                .unwrap()
                .contains(4, "temperature"));
            assert_eq!(store.fsck().quarantined.len(), 1);
        }
    }

    /// Long smooth runs: every bin's codec plan stays WAH.
    fn smooth_index() -> BitmapIndex {
        let data: Vec<f64> = (0..20_000).map(|i| (i / 500) as f64).collect();
        BitmapIndex::build(&data, Binner::distinct_ints(0, 39))
    }

    #[test]
    fn blob_is_the_documented_frame_around_its_payload() {
        let dir = TempDir::new("wahframe");
        let idx = smooth_index();
        let mut w = StoreWriter::create(&dir).unwrap();
        w.put(0, "temperature", &idx).unwrap();
        w.finish().unwrap();
        let bytes = std::fs::read(dir.join("s000000_temperature.ibis")).unwrap();
        // the frame grammar, longhand: an all-WAH plan's payload is the
        // untagged layout, and the CRC seals kind, length and payload
        let payload = codec::encode_index(&idx);
        let mut sealed = vec![1u8];
        sealed.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        sealed.extend_from_slice(&payload);
        let mut want = b"IBF".to_vec();
        want.extend_from_slice(&sealed);
        want.extend_from_slice(&crc32c(&sealed).to_le_bytes());
        assert_eq!(bytes, want);
        assert_eq!(bytes.len(), payload.len() + 16, "16 bytes of framing");
        let store = Store::open(&dir).unwrap();
        assert_eq!(store.get(0, "temperature").unwrap().counts(), idx.counts());
    }

    #[test]
    fn non_wah_blobs_round_trip_and_pass_fsck() {
        let dir = TempDir::new("tagframe");
        let mut w = StoreWriter::create(&dir).unwrap();
        // seed 0: every residue mod 40 hit, all bins scattered → uniform
        // Roaring plan; seed 1: only residues 0,4,…,36 hit, so 30 empty
        // (WAH) bins alongside 10 Roaring bins → mixed plan
        w.put(0, "temperature", &sample_index(0)).unwrap();
        w.put(1, "temperature", &sample_index(1)).unwrap();
        w.finish().unwrap();

        let mut store = Store::open(&dir).unwrap();
        for step in [0usize, 1] {
            assert_eq!(
                store.get(step, "temperature").unwrap().counts(),
                sample_index(step).counts(),
                "a per-bin-tagged payload must decode back to the same index"
            );
        }
        assert!(store.fsck().is_clean());
    }

    #[test]
    fn order_blob_round_trips_and_stays_hidden() {
        let dir = TempDir::new("orderblob");
        let data: Vec<f64> = (0..500).map(|i| ((i * 7) % 40) as f64).collect();
        let binner = Binner::distinct_ints(0, 39);
        let order = ibis_core::RowOrder::GrayBin;
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
        assert_eq!(bytes[3], Kind::Order as u8);
        assert_eq!(
            bytes[12],
            order.tag(),
            "the payload leads with the order tag"
        );

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
    }

    #[test]
    fn fsck_quarantines_corrupt_order_blob() {
        let dir = TempDir::new("orderfsck");
        let data: Vec<f64> = (0..400).map(|i| ((i * 3) % 40) as f64).collect();
        let binner = Binner::distinct_ints(0, 39);
        let order = ibis_core::RowOrder::GrayBin;
        let perm = order.permutation(&[], &binner, &data).unwrap();
        let mut w = StoreWriter::create(&dir).unwrap();
        w.put_order(0, order, &perm).unwrap();
        w.put(0, "temperature", &sample_index(0)).unwrap();
        w.put(1, "temperature", &sample_index(1)).unwrap();
        w.finish().unwrap();

        // The order tag is the payload's first byte, inside the CRC: an
        // unknown one is caught before anything interprets it.
        let f = dir.join("s000000___order.ibis");
        let clean = std::fs::read(&f).unwrap();
        let payload_at = 12usize; // IBF + kind + u64 len
        let mut bytes = clean.clone();
        bytes[payload_at] = 0x7E;
        std::fs::write(&f, &bytes).unwrap();
        let store = Store::open(&dir).unwrap();
        let err = store.load_order(0).unwrap_err();
        assert!(matches!(err, IbisError::Corrupt { .. }), "{err}");

        // A payload edit with a fixed-up frame CRC still trips the
        // manifest's record of that CRC, and fsck quarantines it — and
        // with it the step's index: it is stored permuted, and read as if
        // it were not it would answer in the wrong row space.
        let mut bytes = clean.clone();
        let at = bytes.len() - 4;
        bytes[at - 1] ^= 1; // the last run's length: the runs miss `rows`
        let crc = crc32c(&bytes[3..at]);
        bytes[at..].copy_from_slice(&crc.to_le_bytes());
        std::fs::write(&f, &bytes).unwrap();
        let mut store = Store::open(&dir).unwrap();
        let report = store.fsck();
        assert_eq!(report.checked, 3);
        let gone: Vec<&str> = report
            .quarantined
            .iter()
            .map(|q| q.variable.as_str())
            .collect();
        assert_eq!(gone, [ORDER_VARIABLE, "temperature"], "{report:?}");
        assert!(
            report.quarantined[1].reason.contains("row order is lost"),
            "{report:?}"
        );
        assert!(dir.join("s000000___order.ibis.quarantined").exists());
        assert!(dir.join("s000000_temperature.ibis.quarantined").exists());
        assert!(matches!(
            store.get(0, "temperature"),
            Err(IbisError::NotFound { .. })
        ));
        assert_eq!(store.load_series("temperature").unwrap().len(), 1);
        assert_eq!(store.load_order(0).unwrap(), None);
        // an intact step next to it is untouched
        assert_eq!(
            store.get(1, "temperature").unwrap().counts(),
            sample_index(1).counts()
        );
    }

    /// Varint-encodes `fields` behind a GrayBin order tag.
    fn order_payload(fields: &[u64]) -> Vec<u8> {
        let mut out = vec![ibis_core::RowOrder::GrayBin.tag()];
        for &f in fields {
            codec::put_varint(&mut out, f);
        }
        out
    }

    /// Zigzag of a run's start relative to the previous run's end.
    fn zz(delta: i64) -> u64 {
        ((delta << 1) ^ (delta >> 63)) as u64
    }

    #[test]
    fn order_payload_round_trips_every_order_and_is_small() {
        let data: Vec<f64> = (0..384).map(|i| ((i / 16) * 3 % 40) as f64).collect();
        let binner = Binner::distinct_ints(0, 39);
        let sorted = ibis_core::RowOrder::GrayBin
            .permutation(&[], &binner, &data)
            .unwrap();
        // a stride coprime to the rows: every run is one row long
        let scattered = RowPermutation::from_gather((0..384).map(|s| s * 85 % 384).collect());
        assert!(scattered.segments().len() > 4 * sorted.segments().len());
        for perm in [&sorted, &scattered] {
            let mut payload = Vec::new();
            put_perm_payload(&mut payload, perm);
            assert_eq!(&decode_perm_payload(&payload, None).unwrap(), perm);
        }
        // 16-row runs of consecutive ids: far under 4 bytes a row
        let mut payload = Vec::new();
        put_perm_payload(&mut payload, &sorted);
        assert!(payload.len() < sorted.len(), "{}", payload.len());
    }

    /// Tags 1, 2 and 4 named orders that are no longer offered. A blob
    /// carrying one — sealed under a valid frame CRC that the manifest
    /// records, so only the tag check stands in the way — is refused
    /// exactly as a never-assigned tag is: no panic, no identity layout.
    #[test]
    fn retired_order_tags_are_refused_like_unknown_ones() {
        let data: Vec<f64> = (0..400).map(|i| ((i * 3) % 40) as f64).collect();
        let binner = Binner::distinct_ints(0, 39);
        let order = ibis_core::RowOrder::GrayBin;
        let perm = order.permutation(&[], &binner, &data).unwrap();
        let index = BitmapIndex::build_permuted(&data, binner, &perm);
        for tag in [1u8, 2, 4, 0x7E] {
            let dir = TempDir::new(&format!("retiredtag{tag}"));
            let mut w = StoreWriter::create(&dir).unwrap();
            let mut payload = vec![tag];
            put_perm_payload(&mut payload, &perm);
            w.commit(0, ORDER_VARIABLE, &payload).unwrap();
            w.put(0, "temperature", &index).unwrap();
            w.finish().unwrap();

            let refused = |err: IbisError| match err {
                IbisError::Corrupt { file, detail } => {
                    assert_eq!(file, "s000000___order.ibis");
                    assert_eq!(detail, format!("unknown row-order tag {tag:#04x}"));
                }
                other => panic!("tag {tag}: {other}"),
            };
            refused(Store::open(&dir).unwrap().load_order(0).unwrap_err());
            let cache = crate::cache::CachedStore::new(Store::open(&dir).unwrap(), 1 << 20);
            refused(cache.get_order_over(0, Some(400)).unwrap_err());
            refused(cache.get_order_over(0, None).unwrap_err());
            // fsck sets the order aside, and the index whose rows it mapped
            let mut store = Store::open(&dir).unwrap();
            let report = store.fsck();
            let gone: Vec<&str> = report
                .quarantined
                .iter()
                .map(|q| q.variable.as_str())
                .collect();
            assert_eq!(gone, [ORDER_VARIABLE, "temperature"], "{report:?}");
            assert!(report.quarantined[0]
                .reason
                .contains("unknown row-order tag"));
        }
        // the tag every stored blob carries still opens
        let dir = TempDir::new("retiredtag-graybin");
        let mut w = StoreWriter::create(&dir).unwrap();
        w.put_order(0, order, &perm).unwrap();
        w.finish().unwrap();
        let loaded = Store::open(&dir).unwrap().load_order(0).unwrap();
        assert_eq!(loaded, Some((order, perm)));
    }

    #[test]
    fn hostile_order_payloads_are_typed_errors() {
        // Every payload sits in an intact frame under the CRC the manifest
        // records, so nothing but the payload's own checks stands between
        // it and a permutation. Each fails on the runs, before the
        // `rows`-sized buffers exist (most claim rows no test could hold).
        const BIG: u64 = u32::MAX as u64;
        let mut pr17 = vec![ibis_core::RowOrder::GrayBin.tag()];
        pr17.extend_from_slice(&6u64.to_le_bytes());
        codec::put_words(&mut pr17, &[3, 4, 5, 0, 1, 2]);
        let mut trailing = order_payload(&[10, 2, zz(5), 5, zz(-10), 5]);
        trailing.push(0);
        let mut unending = order_payload(&[10, 2, zz(5), 5]);
        unending.push(0x80);
        let mut overlong = order_payload(&[]);
        overlong.extend_from_slice(&[0xff; 10]);
        let table: Vec<(&str, Vec<u8>, &str)> = vec![
            ("valid", order_payload(&[10, 2, zz(5), 5, zz(-10), 5]), ""),
            (
                "run past rows",
                order_payload(&[BIG, 2, zz(5), BIG - 5, zz(0), 6]),
                "run 1 does not fit",
            ),
            (
                "run starts below zero",
                order_payload(&[BIG, 2, zz(-1), 5, zz(0), BIG - 5]),
                "run 0 does not fit",
            ),
            (
                "empty run",
                order_payload(&[BIG, 2, zz(5), 0, zz(-5), BIG]),
                "run 0 does not fit",
            ),
            (
                "overlapping runs",
                order_payload(&[BIG, 2, zz(5), BIG - 5, zz(-(BIG as i64) + 1), 5]),
                "row 0 is gathered twice or never",
            ),
            (
                "runs short of rows",
                order_payload(&[BIG, 2, zz(5), BIG - 5, zz(-(BIG as i64)), 4]),
                "runs cover 4294967294 of 4294967295 rows",
            ),
            (
                "two runs claiming 2^32 rows",
                order_payload(&[BIG + 1, 2, zz(1 << 31), 1 << 31, zz(-(1 << 32)), 1 << 31]),
                "cannot come from",
            ),
            (
                "runs summing past rows",
                order_payload(&[
                    BIG,
                    2,
                    zz((1 << 31) - 1),
                    1 << 31,
                    zz(-(BIG as i64)),
                    1 << 31,
                ]),
                "run 1 does not fit",
            ),
            (
                "more runs than bytes",
                order_payload(&[BIG, 1 << 40]),
                "cannot come from",
            ),
            ("truncated varint", unending, "truncated"),
            ("varint past 64 bits", overlong, "truncated"),
            ("bytes after the runs", trailing, "trailing"),
            (
                "identity",
                order_payload(&[BIG, 1, zz(0), BIG]),
                "identity permutation",
            ),
            (
                "two runs that are one",
                order_payload(&[BIG, 2, zz(0), 5, zz(0), BIG - 5]),
                "runs 0 and 1 are one run",
            ),
            // `rows:u64le | inv:u32le[rows]` reads as 6 rows in 0 runs
            ("the PR-17 layout", pr17, "trailing"),
        ];
        let dir = TempDir::new("orderhostile");
        let mut w = StoreWriter::create(&dir).unwrap();
        for (step, (_, payload, _)) in table.iter().enumerate() {
            w.commit(step, ORDER_VARIABLE, payload).unwrap();
        }
        w.finish().unwrap();
        let store = Store::open(&dir).unwrap();
        for (step, (what, _, want)) in table.iter().enumerate() {
            match store.load_order(step) {
                Ok(Some((_, perm))) => {
                    assert_eq!(*what, "valid");
                    assert_eq!(perm.perm(), [5, 6, 7, 8, 9, 0, 1, 2, 3, 4]);
                }
                Err(IbisError::Corrupt { detail, .. }) => {
                    assert!(detail.contains(want), "{what}: {detail}")
                }
                other => panic!("{what}: {other:?}"),
            }
        }
    }

    #[test]
    fn hostile_index_payloads_fail_at_get_or_answer_for_their_counts() {
        // Every single-byte mutation of a mixed-plan index payload, each
        // re-sealed in an intact frame under the CRC the manifest records:
        // nothing but the payload's own checks stands between it and a
        // query. Verification is eager and total, so whatever is wrong
        // with a Roaring bin is a typed error from `CachedStore::get` —
        // never from the first `bin(b)`, which cannot fail — a payload whose
        // counts no longer sum to its rows is no partition, and refused as
        // corrupt, and a payload `get` accepts answers, forced or not, for
        // the counts it declared.
        let noise: Vec<f64> = (0..200).map(|i| ((i * 7) % 16) as f64).collect();
        let idx = BitmapIndex::build(&noise, Binner::distinct_ints(0, 19));
        let (clean, plan) = codec::encode_index_auto(&idx);
        assert!(
            plan.contains(&ibis_core::CodecId::Roaring) && plan.contains(&ibis_core::CodecId::Wah)
        );
        let dir = TempDir::new("indexhostile");
        let mut w = StoreWriter::create(&dir).unwrap();
        let mut steps = 0;
        for at in 0..clean.len() {
            for mask in [0x01, 0x80, 0xFF] {
                let mut payload = clean.clone();
                payload[at] ^= mask;
                w.commit(steps, "noise", &payload).unwrap();
                steps += 1;
            }
        }
        w.finish().unwrap();
        let cache = crate::cache::CachedStore::new(Store::open(&dir).unwrap(), 1 << 30);
        let (mut refused, mut served) = (0, 0);
        for step in 0..steps {
            let ml = match cache.get("noise", step) {
                Ok(ml) => ml,
                Err(IbisError::Decode { .. }) => {
                    refused += 1;
                    continue;
                }
                Err(IbisError::Corrupt { detail, .. }) if detail.contains("not a partition") => {
                    refused += 1;
                    continue;
                }
                Err(other) => panic!("step {step}: {other}"),
            };
            served += 1;
            let low = ml.low();
            let every_row = 0..low.len();
            let every_row = std::slice::from_ref(&every_row);
            for b in 0..low.nbins() {
                let want = low.counts()[b];
                assert_eq!(low.stored_bin(b).count_ones_in_ranges(every_row), want);
                assert_eq!(low.bin(b).count_ones(), want, "step {step} bin {b}");
                assert_eq!(low.bin(b).len(), low.len());
                low.bin(b).check_canonical().unwrap();
            }
            let forced = codec::decode_index(&codec::encode_index_auto(low).0).unwrap();
            assert_eq!(forced.counts(), low.counts(), "step {step}");
        }
        // a bit flipped inside an array container moves a row within its
        // bin and is served; one in a tag, a length or a count, or one
        // that adds or drops a row, is refused
        assert!(
            refused > steps / 3 && served > steps / 20,
            "{refused} / {served}"
        );
    }

    #[test]
    fn an_order_over_the_wrong_row_count_is_refused_before_it_is_built() {
        // A well-formed permutation, sealed under a valid frame and manifest
        // CRC, that orders a row count the step's index does not hold. It
        // tiles its own rows, so only the cross-check stands between it and
        // two `rows`-sized buffers — here 2³²−1 rows from eleven bytes.
        const BIG: u64 = u32::MAX as u64;
        let data: Vec<f64> = (0..400).map(|i| ((i * 3) % 40) as f64).collect();
        let index = BitmapIndex::build(&data, Binner::distinct_ints(0, 39));
        let table = [
            (
                "too many",
                order_payload(&[BIG, 2, zz(5), BIG - 5, zz(-(BIG as i64)), 5]),
            ),
            ("too few", order_payload(&[10, 2, zz(5), 5, zz(-10), 5])),
            ("as many", order_payload(&[400, 2, zz(5), 395, zz(-400), 5])),
        ];
        let dir = TempDir::new("orderrows");
        let mut w = StoreWriter::create(&dir).unwrap();
        for (step, (_, payload)) in table.iter().enumerate() {
            w.commit(step, ORDER_VARIABLE, payload).unwrap();
            w.put(step, "temperature", &index).unwrap();
        }
        w.finish().unwrap();
        let whole = Store::open(&dir).unwrap();
        let part = Store::open(&dir).unwrap().into_part();
        for (step, (what, _)) in table.iter().enumerate() {
            let wrong = |store: &Store| match store.load_order(step) {
                Err(IbisError::Corrupt { file, detail }) => {
                    assert_eq!(file, format!("s{step:06}___order.ibis"), "{what}");
                    assert!(
                        detail.contains("rows, the step's index holds 400"),
                        "{detail}"
                    );
                    true
                }
                Ok(Some((_, perm))) => {
                    assert_eq!(perm.len(), 400, "{what}");
                    false
                }
                other => panic!("{what}: {other:?}"),
            };
            // a whole store's order covers exactly its rows; one shard's
            // covers every shard's — at least its own, and exactly what
            // the engine says the shards hold between them
            assert_eq!(wrong(&whole), *what != "as many", "{what}");
            if *what != "too many" {
                assert_eq!(wrong(&part), *what == "too few", "{what} in a shard");
            }
            match part.load_order_over(step, Some(1200)) {
                Err(IbisError::Corrupt { detail, .. }) => {
                    assert!(
                        detail.contains("rows, the step's index holds 1200"),
                        "{detail}"
                    )
                }
                other => panic!("{what}: {other:?}"),
            }
        }
    }

    #[test]
    fn resume_after_a_kill_between_order_and_index_keeps_the_unused_order() {
        // The writer's rule is order first: the crash window between the
        // two puts holds an order nothing uses yet, never a permuted index
        // that reads as if it were unpermuted.
        let dir = TempDir::new("orderresume");
        let data: Vec<f64> = (0..400).map(|i| ((i * 3) % 40) as f64).collect();
        let binner = Binner::distinct_ints(0, 39);
        let order = ibis_core::RowOrder::GrayBin;
        let perm = order.permutation(&[], &binner, &data).unwrap();
        let index = BitmapIndex::build_permuted(&data, binner, &perm);
        let mut w = StoreWriter::create(&dir).unwrap();
        w.put_order(0, order, &perm).unwrap();
        drop(w); // killed before the index landed

        let mut w = StoreWriter::resume(&dir).unwrap();
        assert!(w.contains(0, ORDER_VARIABLE));
        assert_eq!(w.durable_view().variables(0), Vec::<&str>::new());
        // the re-run step re-puts both, idempotently
        w.put_order(0, order, &perm).unwrap();
        w.put(0, "temperature", &index).unwrap();
        w.finish().unwrap();
        let mut store = Store::open(&dir).unwrap();
        assert_eq!(store.load_order(0).unwrap().unwrap().1, perm);
        assert_eq!(
            store.get(0, "temperature").unwrap().counts(),
            index.counts()
        );
        assert!(store.fsck().is_clean());
    }

    #[test]
    fn reserved_order_variable_and_identity_rejected() {
        let dir = TempDir::new("orderreserved");
        let mut w = StoreWriter::create(&dir).unwrap();
        let err = w.put(0, ORDER_VARIABLE, &sample_index(0)).unwrap_err();
        assert!(matches!(err, IbisError::Config(_)), "{err}");
        let identity = ibis_core::RowPermutation::from_gather(vec![0, 1, 2]);
        let err = w
            .put_order(0, ibis_core::RowOrder::GrayBin, &identity)
            .unwrap_err();
        assert!(matches!(err, IbisError::Config(_)), "{err}");
    }

    #[test]
    fn hostile_variable_name_rejected() {
        let dir = TempDir::new("hostilevar");
        let mut w = StoreWriter::create(&dir).unwrap();
        let err = w.put(0, "../evil", &sample_index(0)).unwrap_err();
        assert!(matches!(err, IbisError::Config(_)), "{err}");
        assert!(w.put(0, "", &sample_index(0)).is_err());
    }

    #[test]
    fn lossy_prefix_stays_reserved() {
        let dir = TempDir::new("lossyreserved");
        let mut w = StoreWriter::create(&dir).unwrap();
        let err = w
            .put(0, "__lossy_temperature", &sample_index(0))
            .unwrap_err();
        assert!(matches!(err, IbisError::Config(_)), "{err}");
        // the facade left of `put_lossy` writes nothing
        let (lossy, stats) = sample_index(0).lossy(1e-2);
        w.put_lossy(0, "temperature", &lossy, 1e-2, &stats).unwrap();
        assert_eq!(stats.bits_dropped, 0);
        assert!(w.durable_steps().is_empty());
        w.finish().unwrap();
        let files = std::fs::read_dir(&dir).unwrap().count();
        assert_eq!(files, 1, "only the MANIFEST");
    }

    /// A store written when lossy companions existed still opens: each
    /// `__lossy_*` entry (a frame of the retired kind 3) is skipped with a
    /// count — never listed, loaded, quarantined or reported — and the
    /// store answers every query as the same store without it.
    #[test]
    fn a_retired_lossy_blob_is_skipped_and_changes_no_answer() {
        let write = |name: &str, companion: bool| {
            let dir = TempDir::new(name);
            let mut w = StoreWriter::create(&dir).unwrap();
            for step in [0, 1] {
                w.put(step, "temperature", &sample_index(step)).unwrap();
                w.put(step, "salinity", &sample_index(step + 5)).unwrap();
            }
            if companion {
                // the retired payload: fpr | bits dropped | zeros | index
                let mut payload = 1e-2f64.to_le_bytes().to_vec();
                payload.extend_from_slice(&[0; 16]);
                payload.extend(codec::encode_index(&sample_index(0)));
                let mut framed = b"IBF\x03".to_vec();
                framed.extend_from_slice(&(payload.len() as u64).to_le_bytes());
                framed.extend_from_slice(&payload);
                let crc = crc32c(&framed[FRAME_MAGIC.len()..]);
                framed.extend_from_slice(&crc.to_le_bytes());
                let file = "s000000___lossy_temperature.ibis".to_string();
                std::fs::write(dir.join(&file), &framed).unwrap();
                let len = framed.len() as u64;
                let meta = EntryMeta { file, len, crc };
                w.entries.insert((0, "__lossy_temperature".into()), meta);
            }
            w.finish().unwrap();
            dir
        };
        let (with, without) = (write("retired-with", true), write("retired-without", false));
        let manifest = std::fs::read_to_string(with.join("MANIFEST")).unwrap();
        assert!(manifest.contains("__lossy_temperature"));

        let skipped = || match ibis_obs::global()
            .snapshot()
            .get("store.manifest.retired_skipped")
        {
            Some(ibis_obs::MetricValue::Counter(v)) => *v,
            _ => 0,
        };
        let before = skipped();
        let mut store = Store::open(&with).unwrap();
        assert_eq!(skipped() > before, ibis_obs::ENABLED);
        assert_eq!(store.variables(0), ["salinity", "temperature"]);
        assert!(matches!(
            store.get(0, "__lossy_temperature").unwrap_err(),
            IbisError::NotFound { .. }
        ));
        let report = store.fsck();
        assert!(report.is_clean(), "{report:?}");
        assert_eq!(report.checked, 4);
        assert!(with.join("s000000___lossy_temperature.ibis").exists());
        assert!(!StoreWriter::resume(&with)
            .unwrap()
            .contains(0, "__lossy_temperature"));

        let batch = r#"{"queries": [
            {"kind": "subset", "step": 0, "variable": "temperature", "value_range": [3.0, 20.0]},
            {"kind": "subset", "step": 0, "variable": "temperature", "region": [10, 300]},
            {"kind": "subset", "step": 0, "variable": "__lossy_temperature"},
            {"kind": "correlation", "step": 0, "var_a": "temperature", "var_b": "salinity",
             "value_a": [0.0, 30.0], "region": [50, 450]},
            {"kind": "correlation", "step": 1, "var_a": "temperature", "var_b": "salinity"}
        ]}"#;
        let answers = |dir: &Path| {
            let cache = crate::cache::CachedStore::new(Store::open(dir).unwrap(), 1 << 20);
            crate::engine::QueryEngine::new(cache)
                .run_batch_json(batch)
                .unwrap()
        };
        let got = answers(&with);
        assert_eq!(got, answers(&without));
        assert_eq!(got.matches("\"error\"").count(), 1, "{got}");

        // compaction of the finished store reclaims the retired blob (and
        // the journal the resume above left), and the answers stay the same
        let debris = [
            with.join("s000000___lossy_temperature.ibis"),
            with.join("JOURNAL"),
        ];
        let bytes: u64 = debris.iter().map(|f| f.metadata().unwrap().len()).sum();
        let store = crate::shard::ShardedStore::open(&with).unwrap();
        let report = store.compact().unwrap();
        assert_eq!(report.files_removed, 2);
        assert_eq!(report.bytes_reclaimed, bytes);
        assert!(debris.iter().all(|f| !f.exists()));
        assert_eq!(answers(&with), got);
        assert_eq!(store.compact().unwrap(), Default::default());
    }
}
