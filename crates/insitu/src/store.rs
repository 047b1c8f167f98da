//! A durable on-disk store for the in-situ phase's output: one directory
//! holding the selected time-steps' indices plus a manifest — the artifact
//! post-analysis opens instead of the raw simulation output.
//!
//! Because this store *replaces* the raw data, format v2 treats silent
//! corruption and partial writes as first-class failure modes (DESIGN.md
//! §6d; the bytes are §6m):
//!
//! * every entry is one CRC-sealed frame (`"IBF" | kind | len | payload |
//!   CRC32-C`), and nothing a reader acts on sits outside the CRC;
//! * a step's frames are records of one append-only segment,
//!   `s<step>.ibis`, each behind a header with a CRC of its own: a
//!   [`StoreWriter::put`] is one append and one `fdatasync`, durable when
//!   it returns — one append of `K` records in a store of `K` shards
//!   ([`crate::shard`]), whose entries name their shard (`v@i`) — and
//!   [`StoreWriter::resume`] scans the segments, keeping the whole
//!   records and cutting a torn tail off;
//! * the `MANIFEST` records each entry's file, offset, length and CRC
//!   under a whole-file CRC footer, and is written atomically;
//! * [`Store::fsck`] quarantines every entry whose ordinary typed load
//!   fails, so reads afterwards see exactly the uncorrupted steps.
//!
//! A store written before segments — one `s<step>_<variable>.ibis` file a
//! frame, five-field manifest lines — opens, verifies, compacts and
//! resumes as it is. There is no unchecked read path: a manifest without
//! the v2 header and a blob without a frame are typed errors.

use crate::crc::{crc32c, le_u32, le_u64};
use crate::error::{IbisError, Result};
use crate::io::{codec, write_atomic, Disk, FileOps};
use crate::shard::SHARDS_FILE;
use ibis_core::{BitmapIndex, RowOrder, RowPermutation};
use ibis_obs::LazyCounter;
use std::collections::BTreeMap;
use std::fs::File;
use std::io::{self, Read, Seek, SeekFrom};
use std::ops::{Range, RangeInclusive};
use std::path::{Path, PathBuf};

/// Magic prefix of every frame.
const FRAME_MAGIC: &[u8; 3] = b"IBF";
/// Framing overhead: magic + kind + u64 length + u32 CRC.
const FRAME_OVERHEAD: usize = 3 + 1 + 8 + 4;
/// Magic prefix of every segment record header.
const RECORD_MAGIC: &[u8; 3] = b"IBR";
/// Reserved variable name a step's row permutation stores under. It is a
/// valid variable name (1 to 255 of `[A-Za-z0-9_]`), so the blob rides the
/// ordinary entry / segment / manifest machinery, but is hidden from
/// [`Store::variables`] and refused by [`StoreWriter::put`], so no data
/// variable can collide with it.
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

/// A store's `(step, variable) -> entry`, ordered by step then variable.
type Entries = BTreeMap<(usize, String), EntryMeta>;

/// What the store knows about one entry's frame.
#[derive(Debug, Clone, PartialEq, Eq)]
struct EntryMeta {
    file: String,
    /// Where in its segment the frame starts; `None`: it is the whole file.
    at: Option<u64>,
    /// Framed length.
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

/// Appends the one frame around a payload to `out` — `"IBF" | kind |
/// payload len (u64 LE) | payload | CRC32-C (u32 LE)` with the CRC over
/// kind, length and payload — and returns that CRC, so a put checksums
/// its bytes once for both the frame and the entry's manifest record.
pub(crate) fn frame(out: &mut Vec<u8>, kind: Kind, payload: &[u8]) -> u32 {
    let at = out.len() + FRAME_MAGIC.len();
    out.extend_from_slice(FRAME_MAGIC);
    out.push(kind as u8);
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(payload);
    let crc = crc32c(&out[at..]);
    out.extend_from_slice(&crc.to_le_bytes());
    crc
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
    let declared = le_u64(&bytes[4..12]);
    if payload_len as u64 != declared {
        return Err(format!(
            "framed length {} != declared payload {declared} + {FRAME_OVERHEAD}",
            bytes.len()
        ));
    }
    // everything the CRC covers: kind (1) | len (8) | payload
    let (sealed, stored) = bytes[FRAME_MAGIC.len()..].split_at(9 + payload_len);
    let stored = le_u32(stored);
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

/// Appends a record header: `"IBR" | name len (u8) | name | frame len
/// (u64 LE) | CRC32-C (u32 LE) of name len, name and frame len`.
fn put_record_header(out: &mut Vec<u8>, entry: &str, frame_len: usize) {
    let at = out.len() + RECORD_MAGIC.len();
    out.extend_from_slice(RECORD_MAGIC);
    out.push(entry.len() as u8);
    out.extend_from_slice(entry.as_bytes());
    out.extend_from_slice(&(frame_len as u64).to_le_bytes());
    let crc = crc32c(&out[at..]);
    out.extend_from_slice(&crc.to_le_bytes());
}

/// The whole record at the start of `bytes`, if any: the entry its intact
/// header names, the header's length and the frame behind it.
fn whole_record(bytes: &[u8]) -> Option<(&str, usize, &[u8])> {
    let name_len = *bytes.strip_prefix(RECORD_MAGIC)?.first()? as usize;
    let header = bytes.get(RECORD_MAGIC.len()..RECORD_MAGIC.len() + 1 + name_len + 12)?;
    let (sealed, crc) = header.split_at(header.len() - 4);
    (crc32c(sealed) == le_u32(crc)).then_some(())?;
    let (name, len) = sealed[1..].split_at(name_len);
    let name = std::str::from_utf8(name).ok()?;
    entry_parts(name)?;
    let start = RECORD_MAGIC.len() + header.len();
    let end = start.checked_add(usize::try_from(le_u64(len)).ok()?)?;
    Some((name, start, bytes.get(start..end)?))
}

/// The segment file holding `step`'s records.
fn segment_file(step: usize) -> String {
    format!("s{step:06}.ibis")
}

/// The step and entry of a store file: `(step, "")` for a segment, and
/// for a blob file from before segments, `s<step>_<entry>.ibis`, its entry.
pub(crate) fn stored_file(name: &str) -> Option<(usize, &str)> {
    let rest = name.strip_prefix('s')?.strip_suffix(".ibis")?;
    let (digits, entry) = rest.split_once('_').unwrap_or((rest, ""));
    Some((digits.parse().ok()?, entry))
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
        || variable.len() > u8::MAX as usize
        || !variable
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_')
    {
        return Err(IbisError::Config(format!(
            "variable name {variable:?} must be 1 to 255 of [A-Za-z0-9_], for safe file names"
        )));
    }
    Ok(())
}

/// Refuses a name [`StoreWriter::put`] may not store an index under: not
/// a variable's, or reserved.
fn check_data_name(variable: &str) -> Result<()> {
    check_variable_name(variable)?;
    if Kind::of(variable) != Kind::Index || variable.starts_with(LOSSY_PREFIX) {
        return Err(IbisError::Config(format!(
            "variable name {variable:?} is reserved ({ORDER_VARIABLE:?} holds row \
             permutations, {LOSSY_PREFIX:?}… held retired lossy companions)"
        )));
    }
    Ok(())
}

/// An entry's variable and, for one shard's slice of it, that shard:
/// `temperature@2` is shard 2's slice of `temperature`. A name without a
/// shard — every entry of a flat store, and a step's order — is read by
/// every shard. `None`: not an entry's name.
fn entry_parts(entry: &str) -> Option<(&str, Option<usize>)> {
    let (var, shard) = match entry.split_once('@') {
        None => (entry, None),
        Some((var, i)) => {
            let shard = i.parse().ok().filter(|s: &usize| s.to_string() == i);
            (var, Some(shard.filter(|_| var != ORDER_VARIABLE)?))
        }
    };
    check_variable_name(var).ok()?;
    Some((var, shard))
}

/// Whether `name` is shard directory `shard-NNN`, where each shard of a
/// store written before one store held every shard kept a store of its
/// own ([`lift_shards`]).
pub(crate) fn is_shard_dir(name: &str) -> bool {
    let digits = name.strip_prefix("shard-").unwrap_or("");
    digits.len() == 3 && digits.bytes().all(|b| b.is_ascii_digit())
}

/// A manifest's file: a name in the run directory, or in one of its
/// shard directories — exactly `shard-NNN/<name>`, nothing else.
fn check_file_name(file: &str) -> std::result::Result<(), String> {
    let name = match file.split_once('/') {
        Some((dir, name)) if is_shard_dir(dir) => name,
        _ => file,
    };
    if name.is_empty() || name.contains('/') || name.contains('\\') || name.contains("..") {
        return Err("file escapes the run directory".into());
    }
    Ok(())
}

/// The entries of a store whose shards each kept a store of their own
/// under `shard-NNN/` (the layout before one store held every shard),
/// lifted from the shards' manifests into one map: shard `i`'s `v` is
/// `v@i` in `shard-NNN/<file>`, and the first copy of a step's order —
/// every shard kept one — stands for all. A shard without a valid
/// manifest is an error if `need`, else it adds nothing.
fn lift_shards(dir: &Path, nshards: usize, need: bool) -> Result<Entries> {
    let mut lifted = Entries::new();
    for i in 0..nshards {
        let sub = format!("shard-{i:03}");
        let text = std::fs::read_to_string(dir.join(&sub).join("MANIFEST"))
            .map_err(|e| IbisError::io(format!("read {sub}/MANIFEST"), &e));
        let entries = match text.and_then(|text| parse_manifest(&text)) {
            Ok(entries) => entries,
            Err(e) if need => return Err(e),
            Err(_) => continue,
        };
        for ((step, var), mut meta) in entries {
            meta.file = format!("{sub}/{}", meta.file);
            let entry = match Kind::of(&var) {
                Kind::Order => var,
                _ => format!("{var}@{i}"),
            };
            lifted.entry((step, entry)).or_insert(meta);
        }
    }
    Ok(lifted)
}

/// The entries `dir`'s `MANIFEST` names — or, without one, those of the
/// manifests of its `lifted` shard directories ([`lift_shards`]).
fn manifest_entries(dir: &Path, lifted: usize, need: bool) -> Result<Entries> {
    match std::fs::read_to_string(dir.join("MANIFEST")) {
        Ok(text) => parse_manifest(&text),
        Err(e) if lifted > 0 && e.kind() == std::io::ErrorKind::NotFound => {
            lift_shards(dir, lifted, need)
        }
        Err(e) => Err(IbisError::io("read MANIFEST", &e)),
    }
}

/// Refuses a manifest whose entries do not fit `nshards` shards: a name
/// that is no entry's, a slice of a shard past the last, a slice in a
/// flat store, or a whole index in a store of several.
fn check_shards(entries: &Entries, nshards: usize) -> Result<()> {
    let fits = |entry: &str| match entry_parts(entry) {
        Some((_, Some(i))) => nshards > 1 && i < nshards,
        Some((var, None)) => nshards == 1 || Kind::of(var) == Kind::Order,
        None => false,
    };
    match entries.keys().find(|(_, entry)| !fits(entry)) {
        Some((step, entry)) => Err(IbisError::Manifest {
            line: 0,
            reason: format!("step {step}'s entry {entry:?} is not one of {nshards} shard(s)"),
        }),
        None => Ok(()),
    }
}

/// One manifest entry line: `step \t var \t file \t offset \t len \t crc`,
/// without the offset for an entry written before segments.
fn entry_line(step: usize, var: &str, meta: &EntryMeta) -> String {
    let EntryMeta { file, at, len, crc } = meta;
    let at = at.map_or(String::new(), |at| format!("\t{at}"));
    format!("{step}\t{var}\t{file}{at}\t{len}\t{crc:08x}")
}

/// Reads `meta`'s frame — a range of a segment, or a whole blob file —
/// and checks framing, both CRCs and that it holds a `kind` payload:
/// returns the frame and where its payload sits in it.
fn read_frame(dir: &Path, meta: &EntryMeta, kind: Kind) -> Result<(Vec<u8>, Range<usize>)> {
    let corrupt = |detail: String| IbisError::Corrupt {
        file: meta.file.clone(),
        detail,
    };
    let io = |e: std::io::Error| IbisError::io(format!("read blob {}", meta.file), &e);
    let mut file = File::open(dir.join(&meta.file)).map_err(io)?;
    let (size, at) = (file.metadata().map_err(io)?.len(), meta.at.unwrap_or(0));
    let fits = match meta.at {
        Some(at) => at.checked_add(meta.len).is_some_and(|end| end <= size),
        None => size == meta.len,
    };
    if !fits {
        let len = meta.len;
        return Err(corrupt(format!("no {len}-byte entry at {at} of {size}")));
    }
    let mut bytes = Vec::with_capacity(meta.len as usize);
    file.seek(SeekFrom::Start(at))
        .and_then(|_| (&mut file).take(meta.len).read_to_end(&mut bytes))
        .map_err(io)?;
    let (_, actual) = unframe(&bytes, kind).map_err(corrupt)?;
    if actual != meta.crc {
        return Err(corrupt(format!(
            "frame CRC {actual:08x} != manifest's {:08x}",
            meta.crc
        )));
    }
    let payload = FRAME_OVERHEAD - 4..bytes.len() - 4; // as unframe checked
    Ok((bytes, payload))
}

/// The names of the files in `dir`.
fn file_names(dir: &Path) -> Result<Vec<String>> {
    let io = |e: std::io::Error| IbisError::io(format!("read run dir {}", dir.display()), &e);
    let entries = std::fs::read_dir(dir).map_err(io)?;
    let names = entries.map(|e| Ok(e.map_err(io)?.file_name().to_string_lossy().into_owned()));
    names.collect()
}

/// Scans `step`'s segment `file` into `out` in append order: a record
/// whose frame verifies is its entry's latest, one whose frame does not
/// (damaged, spoiled by fsck) drops its entry, bytes that begin no whole
/// record (a damaged header) are stepped over, and a tail with none — a
/// torn append — is cut off, never below `keep`, a manifest's last frame.
fn scan_segment(
    fs: &dyn FileOps,
    dir: &Path,
    step: usize,
    file: &str,
    keep: u64,
    out: &mut Entries,
) -> Result<()> {
    let path = dir.join(file);
    let io = |e: std::io::Error| IbisError::io(format!("scan segment {file}"), &e);
    let bytes = std::fs::read(&path).map_err(io)?;
    let mut at = 0;
    let whole_from = |at| (at..bytes.len()).find_map(|p| Some((p, whole_record(&bytes[p..])?)));
    while let Some((next, (entry, header, frame))) = whole_from(at) {
        let (start, len) = (next + header, frame.len() as u64);
        let key = (step, entry.to_string());
        match unframe(frame, Kind::of(entry)) {
            Ok((_, crc)) => {
                let (file, at) = (file.to_string(), Some(start as u64));
                out.insert(key, EntryMeta { file, at, len, crc });
            }
            Err(_) => drop(out.remove(&key)),
        }
        at = start + frame.len();
    }
    // unsynced: a crash brings back a tail a scan cuts again
    let end = keep.max(at as u64);
    if end < bytes.len() as u64 {
        fs.set_len(&fs.open(&path, false).map_err(io)?, end)
            .map_err(io)?;
    }
    Ok(())
}

/// Cuts `file` back to `end` when it is longer — what a failed append
/// leaves — and leaves it alone otherwise.
fn cut_to(fs: &dyn FileOps, file: &File, end: u64) -> std::io::Result<()> {
    match file.metadata()?.len() > end {
        true => fs.set_len(file, end),
        false => Ok(()),
    }
}

/// A segment a writer appends to: its step, its file, and the end of its
/// last whole record, where the next append goes.
#[derive(Debug)]
struct Segment {
    step: usize,
    file: File,
    end: u64,
}

/// A writer that accumulates selected-step indices into a run directory,
/// durably: one synced append a put into the step's segment, and a
/// checksummed manifest on [`StoreWriter::finish`].
#[derive(Debug)]
pub struct StoreWriter {
    dir: PathBuf,
    entries: Entries,
    /// The segment the last append went to.
    segment: Option<Segment>,
    /// The records an append lands — `(entry, frame offset in the append,
    /// framed length, CRC)` — kept between puts: a put allocating nothing
    /// but its bytes read 10 % faster on a cold open later in the process
    /// (EXPERIMENTS.md, "One store for all K shards").
    landed: Vec<((usize, String), u64, u64, u32)>,
    fs: &'static dyn FileOps,
}

impl StoreWriter {
    /// Creates (if needed) the run directory and starts a fresh run in it.
    /// A store already there is retired first, durably — its `MANIFEST`,
    /// then every segment and blob file, its `SHARDS` file and the
    /// `shard-NNN/` directories of the layout before one store held every
    /// shard, which nothing reads without a `SHARDS` file — so no reader
    /// ever serves, and no resume ever seeds, an earlier run's entries
    /// beside this run's, and the run starts as the flat store.
    pub fn create(dir: impl AsRef<Path>) -> Result<Self> {
        Self::create_on(&Disk, dir)
    }

    /// [`StoreWriter::create`] through `fs`.
    pub(crate) fn create_on(fs: &'static dyn FileOps, dir: impl AsRef<Path>) -> Result<Self> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)
            .map_err(|e| IbisError::io(format!("create run dir {}", dir.display()), &e))?;
        let io =
            |e: std::io::Error| IbisError::io(format!("retire the store in {}", dir.display()), &e);
        let mut retired = file_names(&dir)?;
        let retire = |name: &str| ["MANIFEST", SHARDS_FILE].contains(&name) || is_shard_dir(name);
        retired.retain(|name| retire(name) || stored_file(name).is_some());
        retired.sort_by_key(|name| name != "MANIFEST");
        for name in &retired {
            fs.remove(&dir.join(name)).map_err(io)?;
            if name == "MANIFEST" {
                fs.sync_dir(&dir).map_err(io)?; // durably gone before the files it names
            }
        }
        if !retired.is_empty() {
            fs.sync_dir(&dir).map_err(io)?;
        }
        Ok(StoreWriter {
            dir,
            entries: BTreeMap::new(),
            segment: None,
            landed: Vec::new(),
            fs,
        })
    }

    /// Reopens an interrupted *or finished* run directory, recovering
    /// every entry proven durable: each segment scanned record by record
    /// (a torn tail is cut off), then whatever else a valid `MANIFEST`
    /// names (a store written before segments), each frame re-verified. A
    /// dropped entry is repaired by re-`put`ting it — the path after
    /// [`Store::fsck`] quarantines one.
    ///
    /// Resume only a directory `create` returned for, or resume through
    /// [`crate::resume_durable`], whose `CHECKPOINT` decides: a crash inside
    /// `create`'s retirement leaves one this does not know as half-retired.
    pub fn resume(dir: impl AsRef<Path>) -> Result<Self> {
        Self::resume_in(&Disk, dir.as_ref(), 0)
    }

    /// [`StoreWriter::resume`] through `fs` of a store whose `lifted`
    /// shards each kept a store of their own, whose manifests stand in for
    /// a missing `MANIFEST` ([`lift_shards`]).
    pub(crate) fn resume_in(fs: &'static dyn FileOps, dir: &Path, lifted: usize) -> Result<Self> {
        let dir = dir.to_path_buf();
        std::fs::create_dir_all(&dir)
            .map_err(|e| IbisError::io(format!("create run dir {}", dir.display()), &e))?;
        let names = file_names(&dir)?.into_iter();
        let segment = |name: &str| stored_file(name).filter(|(_, e)| e.is_empty()).map(|s| s.0);
        let mut segments: Vec<_> = names.filter_map(|n| Some((segment(&n)?, n))).collect();
        segments.sort();
        let manifest = manifest_entries(&dir, lifted, false).unwrap_or_default();
        let mut entries = BTreeMap::new();
        for (step, file) in &segments {
            let named = manifest.values().filter(|m| &m.file == file);
            let keep = named.filter_map(|m| Some(m.at? + m.len)).max();
            scan_segment(fs, &dir, *step, file, keep.unwrap_or(0), &mut entries)?;
        }
        for (key, meta) in manifest {
            let kind = Kind::of(&key.1);
            if !entries.contains_key(&key) && read_frame(&dir, &meta, kind).is_ok() {
                entries.insert(key, meta);
            }
        }
        Ok(StoreWriter {
            dir,
            entries,
            segment: None,
            landed: Vec::new(),
            fs,
        })
    }

    /// The run directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// A read-only view of exactly the entries durable right now; reads
    /// through it verify framing and CRC like any [`Store`] read. A
    /// sharded writer asks it which entries every shard holds.
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
    /// per-bin codec plan, framed, checksummed, appended to the step's
    /// segment and synced. Re-putting an existing entry is idempotent:
    /// the same payload is the same frame, and a frame durable byte for
    /// byte is not written again.
    pub fn put(&mut self, step: usize, variable: &str, index: &BitmapIndex) -> Result<()> {
        check_data_name(variable)?;
        let (payload, _) = codec::encode_index_auto(index);
        self.commit(step, &[(variable, &payload)])
    }

    /// Persists one step's index of `variable` as the slices of several
    /// shards, slice `i` as entry `variable@i`: every slice's record goes
    /// into one append and one sync ([`StoreWriter::commit`]).
    pub(crate) fn put_slices(
        &mut self,
        step: usize,
        variable: &str,
        slices: &[BitmapIndex],
    ) -> Result<()> {
        check_data_name(variable)?;
        let record = |(i, slice)| (format!("{variable}@{i}"), codec::encode_index_auto(slice).0);
        let named: Vec<_> = (0..).zip(slices).map(record).collect();
        let records: Vec<_> = named.iter().map(|(e, p)| (e.as_str(), &p[..])).collect();
        self.commit(step, &records)
    }

    /// Persists the step's row permutation under the reserved
    /// [`ORDER_VARIABLE`] entry: `order`'s tag, then the run-coded gather
    /// order, framed, CRC-checked and appended exactly like an index — so
    /// crash/resume and fsck cover it. One permutation per step: every variable
    /// of the step shares it, keeping cross-variable (correlation) bitmaps
    /// row-aligned.
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
        self.commit(step, &[(ORDER_VARIABLE, &payload)])?;
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

    /// Lands each `(entry, payload)` of `records`, framed as the entry's
    /// [`Kind`]: one record — header, then frame — each, appended to the
    /// step's segment in one write and synced once, then the in-memory
    /// entries. A record durable byte for byte already is left out, so a
    /// re-put after a torn append writes only what the tear lost.
    fn commit(&mut self, step: usize, records: &[(&str, &[u8])]) -> Result<()> {
        let size = records
            .iter()
            .map(|(e, p)| p.len() + e.len() + FRAME_OVERHEAD + 16);
        let mut bytes = Vec::with_capacity(size.sum());
        let mut landed = std::mem::take(&mut self.landed);
        for (entry, payload) in records {
            let (start, len) = (bytes.len(), payload.len() + FRAME_OVERHEAD);
            put_record_header(&mut bytes, entry, len);
            let header = bytes.len();
            let crc = frame(&mut bytes, Kind::of(entry), payload);
            let key = (step, entry.to_string());
            let same = |m: &&EntryMeta| (m.crc, m.len) == (crc, len as u64);
            let durable = |m: &EntryMeta| read_frame(&self.dir, m, Kind::of(entry));
            match self.entries.get(&key).filter(same).map(durable) {
                Some(Ok((frame, _))) if frame == bytes[header..] => bytes.truncate(start),
                _ => landed.push((key, header as u64, len as u64, crc)),
            }
        }
        let Some(((_, first), ..)) = landed.first() else {
            self.landed = landed;
            return Ok(());
        };
        let (file, fs) = (segment_file(step), self.fs);
        let io = |e: std::io::Error| IbisError::io(format!("open segment {file}"), &e);
        let segment = match self.segment.take() {
            Some(open) if open.step == step => open,
            old => {
                // cut what a failed append left past the old segment's end
                if let Some(old) = old {
                    cut_to(fs, &old.file, old.end).map_err(io)?;
                }
                // an existing segment keeps its records: appends go at its end
                let f = fs.open(&self.dir.join(&file), false).map_err(io)?;
                let end = f.metadata().map_err(io)?.len();
                Segment { step, file: f, end }
            }
        };
        let Segment { file: f, end, .. } = self.segment.insert(segment);
        let base = *end;
        // cut what a failed append left first: no record behind a torn one
        let mut append = || {
            cut_to(fs, f, base)?;
            fs.write_at(f, base, &bytes)?;
            fs.sync(f)
        };
        append().map_err(|e| IbisError::io(format!("write segment {file} ({first})"), &e))?;
        *end += bytes.len() as u64;
        if base == 0 {
            fs.sync_dir(&self.dir).map_err(io)?; // a new segment: after its first sync, cheap
        }
        OBS_PUT_BLOBS.add(landed.len() as u64);
        OBS_PUT_BYTES.add(bytes.len() as u64);
        let files = std::iter::repeat_n(file, landed.len());
        for ((key, at, len, crc), file) in landed.drain(..).zip(files) {
            let at = Some(base + at);
            self.entries.insert(key, EntryMeta { file, at, len, crc });
        }
        self.landed = landed;
        Ok(())
    }

    /// Writes the checksummed manifest atomically and finishes the run.
    /// Until this is called the directory has no manifest and
    /// [`Store::open`] will refuse it.
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
            self.fs,
            &self.dir.join(".MANIFEST.tmp"),
            &self.dir.join("MANIFEST"),
            body.as_bytes(),
        )
        .map_err(|e| IbisError::io("write MANIFEST", &e))?;
        OBS_MANIFEST_WRITES.inc();
        Ok(self.dir)
    }
}

/// Parses `step \t var \t file [\t offset] \t len \t crc` into an entry;
/// a line without the offset names a whole file.
fn parse_entry_fields(body: &str) -> Option<(usize, String, EntryMeta)> {
    let mut fields = body.split('\t');
    let mut field = || fields.next();
    let (step, var, file, a, b) = (field()?, field()?, field()?, field()?, field()?);
    let (at, len, crc) = match (field(), field()) {
        (None, _) => (None, a, b),
        (Some(crc), None) => (Some(a.parse().ok()?), b, crc),
        _ => return None,
    };
    Some((
        step.parse().ok()?,
        var.to_string(),
        EntryMeta {
            file: file.to_string(),
            at,
            len: len.parse().ok()?,
            crc: u32::from_str_radix(crc, 16).ok()?,
        },
    ))
}

/// One entry [`Store::fsck`] had to quarantine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuarantinedBlob {
    /// The entry's time-step.
    pub step: usize,
    /// The entry's variable.
    pub variable: String,
    /// The file its frame sat in: the step's segment, or the entry's own
    /// blob file in a store written before segments.
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

/// Sets `meta`'s frame aside as `s<step>_<variable>.ibis.quarantined`: a
/// blob file is renamed there; a segment's range is copied there, the
/// copy and its name synced, and only then spoiled in place (its magic
/// overwritten, synced), so every later read, scan and resume sees the
/// entry as gone, a re-put repairs it, and no crash leaves it spoiled
/// without its whole copy.
fn quarantine(
    fs: &dyn FileOps,
    dir: &Path,
    key: &(usize, String),
    meta: &EntryMeta,
) -> io::Result<()> {
    let aside = dir.join(format!("s{:06}_{}.ibis.quarantined", key.0, key.1));
    let (path, mut bytes) = (dir.join(&meta.file), Vec::new());
    let Some(at) = meta.at else {
        return fs.rename(&path, &aside);
    };
    let mut file = File::open(&path)?;
    file.seek(SeekFrom::Start(at))?;
    file.take(meta.len).read_to_end(&mut bytes)?;
    let mut copy = fs.open(&aside, true)?;
    fs.write_at(&mut copy, 0, &bytes)?;
    fs.sync(&copy)?;
    fs.sync_dir(dir)?;
    let mut file = fs.open(&path, false)?;
    fs.write_at(&mut file, at, &b"IBQ"[..bytes.len().min(3)])?; // no frame's magic
    fs.sync(&file)
}

/// A read-only view of a finished run directory.
#[derive(Debug, Clone)]
pub struct Store {
    dir: PathBuf,
    entries: Entries,
    /// Whether its indices are slices of a store of several shards.
    part: bool,
}

impl Store {
    /// Opens a run directory; fails without a valid manifest: the v2
    /// header, and an intact `#END` footer (count + CRC over the header
    /// and entry lines).
    pub fn open(dir: impl AsRef<Path>) -> Result<Self> {
        Self::open_in(dir, 1, 0)
    }

    /// [`Store::open`] of a store of `nshards` shards, whose `lifted`
    /// shards each kept a store of their own, whose manifests stand in for
    /// a missing `MANIFEST` ([`lift_shards`]).
    pub(crate) fn open_in(dir: impl AsRef<Path>, nshards: usize, lifted: usize) -> Result<Self> {
        let dir = dir.as_ref().to_path_buf();
        let entries = manifest_entries(&dir, lifted, true)?;
        check_shards(&entries, nshards)?;
        let part = nshards > 1;
        Ok(Store { dir, entries, part })
    }

    /// Each of `nshards` shards' part of a store of several, in one pass:
    /// a shard's slices under their variables' names, beside every step's
    /// order. Its indices hold a slice of each step's rows while the order
    /// is the whole step's, so [`Store::load_order`] expects the order to
    /// cover *at least* an index's rows where a flat store expects exactly
    /// them.
    pub(crate) fn into_shard_views(self, nshards: usize) -> Vec<Store> {
        let mut views = vec![Vec::new(); nshards];
        for ((step, mut entry), meta) in self.entries {
            let Some((var, i)) = entry.split_once('@') else {
                for view in &mut views {
                    view.push(((step, entry.clone()), meta.clone()));
                }
                continue;
            };
            let shard = i.parse().ok().filter(|&i: &usize| i < nshards);
            if let Some(shard) = shard {
                entry.truncate(var.len());
                views[shard].push(((step, entry), meta));
            }
        }
        let view = |entries: Vec<_>| Store {
            dir: self.dir.clone(),
            entries: entries.into_iter().collect(),
            part: true,
        };
        views.into_iter().map(view).collect()
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
        let (bytes, payload) = read_frame(&self.dir, meta, Kind::Index)?;
        let index = codec::decode_index(&bytes[payload]).map_err(|source| IbisError::Decode {
            file: Some(meta.file.clone()),
            source,
        })?;
        codec::exact(index).map_err(|detail| IbisError::Corrupt {
            file: meta.file.clone(),
            detail,
        })
    }

    /// The file `(step, variable)`'s frame sits in and the bytes of it the
    /// frame takes: a range of the step's segment, or the whole blob file
    /// of a store written before segments. `variable` may be
    /// [`ORDER_VARIABLE`].
    pub fn locate(&self, step: usize, variable: &str) -> Option<(PathBuf, Range<u64>)> {
        let meta = self.entries.get(&(step, variable.to_string()))?;
        let at = meta.at.unwrap_or(0);
        Some((self.dir.join(&meta.file), at..at + meta.len))
    }

    /// Loads `step`'s row permutation, or `None` when the step was stored in
    /// its original order. Verifies framing, kind and CRC like any blob, that
    /// the payload's order tag names a known non-identity [`RowOrder`], and
    /// that the rest of it is a bijection over the rows the step's index holds
    /// — exactly as many, or at least as many in one shard of several (as
    /// [`crate::shard::ShardedStore`] opens them); the first index that
    /// verifies is asked, and a step with none yet has nothing to check against
    /// — before a row is allocated. A corrupt permutation would silently
    /// misroute region queries, so every failure is a typed
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
        let (bytes, payload) = read_frame(&self.dir, meta, Kind::Order)?;
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
                let (bytes, payload) = read_frame(&self.dir, index, Kind::Index).ok()?;
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

    /// Verifies every blob end-to-end by running its entry's ordinary typed
    /// load (framing, kind, CRC, decode and the payload's own checks) and
    /// quarantines the ones that fail (set aside as
    /// `s<step>_<variable>.ibis.quarantined`; a segment record's frame is also
    /// spoiled in place) and removes their entries, so subsequent reads see
    /// only intact data. A step that loses its [`ORDER_VARIABLE`] entry loses
    /// its indices with it — they are permuted, and read as if they were not
    /// they would answer in the wrong row space.
    pub fn fsck(&mut self) -> FsckReport {
        self.fsck_on(&Disk)
    }

    /// [`Store::fsck`], quarantining through `fs`.
    pub fn fsck_on(&mut self, fs: &dyn FileOps) -> FsckReport {
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
        for (key, reason) in bad {
            let Some(meta) = self.entries.remove(&key) else {
                continue;
            };
            OBS_FSCK_QUARANTINED.inc();
            let _ = quarantine(fs, &self.dir, &key, &meta);
            let (step, variable) = key;
            report.quarantined.push(QuarantinedBlob {
                step,
                variable,
                file: meta.file,
                reason,
            });
        }
        report
    }

    /// [`Store::fsck`] of a store of `nshards` shards, one report a
    /// shard: each counts and lists the entries the shard reads — its
    /// slices (`v@i`), and every step's order.
    pub(crate) fn fsck_by_shard(&mut self, nshards: usize) -> Vec<FsckReport> {
        let read_by =
            |entry: &str, i| entry_parts(entry).is_none_or(|p| p.1.is_none_or(|s| s == i));
        let checked =
            (0..nshards).map(|i| self.entries.keys().filter(|k| read_by(&k.1, i)).count());
        let checked: Vec<usize> = checked.collect();
        let whole = self.fsck();
        let lost = |i| {
            whole
                .quarantined
                .iter()
                .filter(move |q| read_by(&q.variable, i))
                .cloned()
        };
        let report = |(i, checked)| FsckReport {
            checked,
            quarantined: lost(i).collect(),
        };
        checked.into_iter().enumerate().map(report).collect()
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

fn parse_manifest(manifest: &str) -> Result<Entries> {
    let bad = |line, reason: &str| IbisError::Manifest {
        line,
        reason: reason.to_string(),
    };
    if !manifest.starts_with(MANIFEST_HEADER) {
        return Err(bad(1, &format!("missing the {MANIFEST_HEADER:?} header")));
    }
    let no_footer = || bad(0, "v2 manifest has no #END footer (truncated?)");
    let (body, footer) = manifest.split_at(manifest.rfind("#END ").ok_or_else(no_footer)?);
    let mut fields = footer
        .trim_end()
        .strip_prefix("#END ")
        .unwrap_or("")
        .split(' ');
    let (Some(count), Some(crc), None) = (fields.next(), fields.next(), fields.next()) else {
        return Err(bad(0, "malformed #END footer"));
    };
    let count: usize = count
        .parse()
        .map_err(|_| bad(0, "bad entry count in #END footer"))?;
    let crc = u32::from_str_radix(crc, 16).map_err(|_| bad(0, "bad CRC in #END footer"))?;
    let actual = crc32c(body.as_bytes());
    if actual != crc {
        return Err(bad(
            0,
            &format!("manifest CRC {actual:08x} != footer's {crc:08x}"),
        ));
    }
    let mut entries = BTreeMap::new();
    for (lineno, line) in body.lines().enumerate().skip(1) {
        let fields = || bad(lineno + 1, "expected 5 or 6 tab-separated fields");
        let (step, var, meta) = parse_entry_fields(line).ok_or_else(fields)?;
        check_file_name(&meta.file).map_err(|reason| bad(lineno + 1, &reason))?;
        entries.insert((step, var), meta);
    }
    if entries.len() != count {
        let reason = format!("{} entries != footer's count {count}", entries.len());
        return Err(bad(0, &reason));
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
    use ibis_core::{Binner, WahVec};
    use ibis_testkit::TempDir;

    fn sample_index(seed: usize) -> BitmapIndex {
        let data: Vec<f64> = (0..500).map(|i| ((i * (seed + 3)) % 40) as f64).collect();
        BitmapIndex::build(&data, Binner::distinct_ints(0, 39))
    }

    /// [`Store::locate`] of a finished store in `dir`, the range as
    /// indices into the file's bytes.
    fn located(dir: &Path, step: usize, variable: &str) -> (PathBuf, Range<usize>) {
        let (file, at) = Store::open(dir).unwrap().locate(step, variable).unwrap();
        (file, at.start as usize..at.end as usize)
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
            std::fs::read_dir(&dir).unwrap().count() == 4,
            "three segments and the manifest: nothing in flight is left"
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
        w.finish().unwrap();
        let (f, at) = located(&dir, 2, "temperature");
        let bytes = std::fs::read(&f).unwrap();
        std::fs::write(&f, &bytes[..at.start + at.len() / 2]).unwrap();
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
        w.finish().unwrap();
        let (f, frame) = located(&dir, 3, "temperature");
        let clean = std::fs::read(&f).unwrap();
        // byte 4 of the header, and somewhere inside the payload
        for at in [4, frame.len() / 2] {
            let mut bytes = clean.clone();
            bytes[frame.start + at] ^= 0x01;
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
            std::fs::remove_file(dir.join("s000003_temperature.ibis.quarantined")).unwrap();
        }
    }

    #[test]
    fn fsck_quarantines_corrupt_blob_and_series_skips_it() {
        let dir = TempDir::new("fsck");
        let mut w = StoreWriter::create(&dir).unwrap();
        for step in [0usize, 1, 2] {
            w.put(step, "temperature", &sample_index(step)).unwrap();
        }
        w.finish().unwrap();
        let (f, frame) = located(&dir, 1, "temperature");
        let mut bytes = std::fs::read(&f).unwrap();
        let mid = frame.start + frame.len() / 2;
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
        let quarantined = std::fs::read(dir.join("s000001_temperature.ibis.quarantined")).unwrap();
        assert_eq!(
            quarantined,
            bytes[frame.clone()],
            "the frame as it was found"
        );
        // ...and its range is spoiled where it lies: every later read,
        // scan and resume sees the entry as gone
        let spoiled = std::fs::read(&f).unwrap();
        assert_eq!(&spoiled[frame.start..frame.start + 3], b"IBQ");
        assert!(!StoreWriter::resume(&dir)
            .unwrap()
            .contains(1, "temperature"));

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

        // A finished store (MANIFEST, whole segments) must resume with its
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

    /// Run 1 writes steps 0 and 1 and finishes; run 2 creates the same
    /// directory, puts step 0 and dies. Run 1 is retired before run 2's
    /// first put: no manifest serves run 1's step 1 beside run 2's step 0,
    /// and resuming run 2 seeds nothing of run 1.
    #[test]
    fn create_over_a_finished_store_retires_it_before_the_first_put() {
        let dir = TempDir::new("create-over");
        let mut w = StoreWriter::create(&dir).unwrap();
        w.put(0, "temperature", &sample_index(0)).unwrap();
        w.put(1, "temperature", &sample_index(1)).unwrap();
        w.finish().unwrap();
        let mut w = StoreWriter::create(&dir).unwrap();
        w.put(0, "temperature", &sample_index(7)).unwrap();
        drop(w); // run 2 dies here
        let err = Store::open(&dir).unwrap_err();
        assert!(matches!(err, IbisError::Io { .. }), "no manifest: {err}");
        let w = StoreWriter::resume(&dir).unwrap();
        assert_eq!(w.durable_steps(), vec![0], "run 1's step 1 is not seeded");
        let step0 = w.durable_view().get(0, "temperature").unwrap();
        assert_eq!(step0.counts(), sample_index(7).counts());
        w.finish().unwrap();
        let store = Store::open(&dir).unwrap();
        assert_eq!(store.steps(), vec![0]);
        assert_eq!(
            store.get(0, "temperature").unwrap().counts(),
            sample_index(7).counts()
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
        let (f, frame) = located(&dir, 1, "temperature");
        let mut bytes = std::fs::read(&f).unwrap();
        let mid = frame.start + frame.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&f, &bytes).unwrap();
        let mut store = Store::open(&dir).unwrap();
        assert_eq!(store.fsck().quarantined.len(), 1);

        // resume verifies each entry against its frame: the quarantined
        // (spoiled) one is dropped, the intact one kept
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
    fn resume_recovers_appended_records_and_cuts_a_torn_tail() {
        let dir = TempDir::new("resume");
        let mut w = StoreWriter::create(&dir).unwrap();
        w.put(0, "temperature", &sample_index(0)).unwrap();
        w.put(1, "temperature", &sample_index(1)).unwrap();
        w.put(2, "temperature", &sample_index(2)).unwrap();
        // crash: drop the writer without finish(), step 2's append torn
        drop(w);
        let torn = dir.join("s000002.ibis");
        let bytes = std::fs::read(&torn).unwrap();
        std::fs::write(&torn, &bytes[..bytes.len() - 5]).unwrap();
        let step1 = std::fs::read(dir.join("s000001.ibis")).unwrap();

        let mut w = StoreWriter::resume(&dir).unwrap();
        assert_eq!(w.durable_steps(), vec![0, 1]);
        assert!(w.contains(1, "temperature"));
        assert!(!w.contains(2, "temperature"));
        assert_eq!(
            std::fs::read(&torn).unwrap(),
            b"",
            "the torn tail is cut off"
        );
        // idempotent re-put of step 1, then the step the crash lost
        w.put(1, "temperature", &sample_index(1)).unwrap();
        w.put(2, "temperature", &sample_index(2)).unwrap();
        w.finish().unwrap();
        assert_eq!(
            std::fs::read(dir.join("s000001.ibis")).unwrap(),
            step1,
            "a durable frame is not appended again"
        );
        assert_eq!(std::fs::read(&torn).unwrap(), bytes);

        let store = Store::open(&dir).unwrap();
        assert_eq!(store.steps(), vec![0, 1, 2]);
        assert_eq!(
            store.get(1, "temperature").unwrap().counts(),
            sample_index(1).counts()
        );
    }

    #[test]
    fn resume_drops_records_whose_frame_is_bad() {
        let dir = TempDir::new("resumebad");
        let mut w = StoreWriter::create(&dir).unwrap();
        w.put(0, "temperature", &sample_index(0)).unwrap();
        w.put(1, "temperature", &sample_index(1)).unwrap();
        let (f, frame) = w.durable_view().locate(1, "temperature").unwrap();
        drop(w);
        // record 1 is whole but its frame got corrupted before the resume
        let mut bytes = std::fs::read(&f).unwrap();
        let mid = (frame.start + frame.end) as usize / 2;
        bytes[mid] ^= 0x10;
        std::fs::write(&f, &bytes).unwrap();
        let w = StoreWriter::resume(&dir).unwrap();
        assert_eq!(
            w.durable_steps(),
            vec![0],
            "bad blob must not count as durable"
        );
    }

    /// A flipped byte in any record's header costs at most that record's
    /// entry: the scan steps over it to the next whole record, and cuts
    /// nothing a valid manifest names. A finished store resumes with every
    /// entry and its segment's length; an interrupted run loses only that
    /// entry (the last record's, a torn tail, is cut), and a re-put repairs it.
    #[test]
    fn a_damaged_record_header_costs_at_most_its_own_entry() {
        let dir = TempDir::new("header-flip");
        let vars = ["a", "b", "c"];
        let mut w = StoreWriter::create(&dir).unwrap();
        for (k, var) in vars.iter().enumerate() {
            w.put(0, var, &sample_index(k)).unwrap();
        }
        let frames = vars.map(|var| w.durable_view().locate(0, var).unwrap().1);
        w.finish().unwrap();
        let (seg, manifest) = (dir.join("s000000.ibis"), dir.join("MANIFEST"));
        let (clean, clean_manifest) = (std::fs::read(&seg).unwrap(), std::fs::read(&manifest));
        for finished in [true, false] {
            for (k, frame) in frames.iter().enumerate() {
                let header = k.checked_sub(1).map_or(0, |j| frames[j].end)..frame.start;
                for at in header {
                    let case = format!("finished {finished}, record {k}, byte {at}");
                    let mut bad = clean.clone();
                    bad[at as usize] ^= 0x01;
                    std::fs::write(&seg, &bad).unwrap();
                    match finished {
                        true => std::fs::write(&manifest, clean_manifest.as_ref().unwrap()),
                        false => std::fs::remove_file(&manifest),
                    }
                    .unwrap();
                    let mut w = StoreWriter::resume(&dir).unwrap();
                    let kept = match finished || k + 1 < vars.len() {
                        true => clean.len(),
                        false => frames[k - 1].end as usize,
                    };
                    assert_eq!(std::fs::read(&seg).unwrap().len(), kept, "{case}");
                    for (j, var) in vars.iter().enumerate() {
                        assert_eq!(w.contains(0, var), finished || j != k, "{case}: {var}");
                    }
                    w.put(0, vars[k], &sample_index(k)).unwrap();
                    w.finish().unwrap();
                    let store = Store::open(&dir).unwrap();
                    for (j, var) in vars.iter().enumerate() {
                        let got = store.get(0, var).unwrap();
                        assert_eq!(got.counts(), sample_index(j).counts(), "{case}: {var}");
                    }
                }
            }
        }
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
        // the manifest alone stands for the entry: its segment is gone
        std::fs::remove_file(dir.join("s000004.ibis")).unwrap();
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
        }

        // A blob without the frame — the bare payload, each of the four
        // retired framings around it, and an intact frame of another kind —
        // under a (blob-file) manifest line that records exactly its length
        // and CRC is
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
        let mut foreign = Vec::new();
        let foreign_crc = frame(&mut foreign, Kind::Order, &payload);
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
        let bytes = std::fs::read(dir.join("s000000.ibis")).unwrap();
        // the frame grammar, longhand: an all-WAH plan's payload is the
        // untagged layout, and the CRC seals kind, length and payload
        let payload = codec::encode_index(&idx);
        let mut sealed = vec![1u8];
        sealed.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        sealed.extend_from_slice(&payload);
        let mut frame = b"IBF".to_vec();
        frame.extend_from_slice(&sealed);
        frame.extend_from_slice(&crc32c(&sealed).to_le_bytes());
        // the segment record around it: its own CRC seals the name's
        // length, the name and the frame's length
        let mut named = vec![11u8];
        named.extend_from_slice(b"temperature");
        named.extend_from_slice(&(frame.len() as u64).to_le_bytes());
        let mut want = b"IBR".to_vec();
        want.extend_from_slice(&named);
        want.extend_from_slice(&crc32c(&named).to_le_bytes());
        assert_eq!(want.len(), 3 + 1 + 11 + 8 + 4, "a 27-byte record header");
        let header = want.len();
        want.extend_from_slice(&frame);
        assert_eq!(bytes, want);
        assert_eq!(frame.len(), payload.len() + 16, "16 bytes of framing");
        let (_, at) = located(&dir, 0, "temperature");
        assert_eq!(at, header..bytes.len());
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

        let (f, at) = located(&dir, 3, ORDER_VARIABLE);
        let bytes = &std::fs::read(f).unwrap()[at];
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
        let (f, frame) = located(&dir, 0, ORDER_VARIABLE);
        let clean = std::fs::read(&f).unwrap();
        let payload_at = frame.start + 12; // IBF + kind + u64 len
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
        let at = frame.end - 4;
        bytes[at - 1] ^= 1; // the last run's length: the runs miss `rows`
        let crc = crc32c(&bytes[frame.start + 3..at]);
        bytes[at..frame.end].copy_from_slice(&crc.to_le_bytes());
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
            w.commit(0, &[(ORDER_VARIABLE, &payload)]).unwrap();
            w.put(0, "temperature", &index).unwrap();
            w.finish().unwrap();

            let (segment, _) = located(&dir, 0, ORDER_VARIABLE);
            let refused = |err: IbisError| match err {
                IbisError::Corrupt { file, detail } => {
                    assert_eq!(dir.join(file), segment);
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
            w.commit(step, &[(ORDER_VARIABLE, payload)]).unwrap();
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
                w.commit(steps, &[("noise", &payload)]).unwrap();
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
            w.commit(step, &[(ORDER_VARIABLE, payload)]).unwrap();
            w.put(step, "temperature", &index).unwrap();
        }
        w.finish().unwrap();
        let whole = Store::open(&dir).unwrap();
        let part = Store {
            part: true,
            ..Store::open(&dir).unwrap()
        };
        for (step, (what, _)) in table.iter().enumerate() {
            let (segment, _) = located(&dir, step, ORDER_VARIABLE);
            let wrong = |store: &Store| match store.load_order(step) {
                Err(IbisError::Corrupt { file, detail }) => {
                    assert_eq!(dir.join(file), segment, "{what}");
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
                let meta = EntryMeta {
                    file,
                    at: None,
                    len,
                    crc,
                };
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

        // compaction of the finished store reclaims the retired blob, and
        // the answers stay the same
        let debris = [with.join("s000000___lossy_temperature.ibis")];
        let bytes: u64 = debris.iter().map(|f| f.metadata().unwrap().len()).sum();
        let store = crate::shard::ShardedStore::open(&with).unwrap();
        let report = store.compact().unwrap();
        assert_eq!(report.files_removed, 1);
        assert_eq!(report.bytes_reclaimed, bytes);
        assert!(debris.iter().all(|f| !f.exists()));
        assert_eq!(answers(&with), got);
        assert_eq!(store.compact().unwrap(), Default::default());
    }
}
