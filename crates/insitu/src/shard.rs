//! The sharded durable store: `K ≥ 1` spatial shards behind one writer
//! and one reader (DESIGN.md §6k). The engine that queries it is
//! [`crate::engine::QueryEngine`].
//!
//! One step's index is split into `K` spatial shards over contiguous
//! stored-row ranges, and every shard lives in the one store rooted at
//! the run directory: a step's `K` slices of a variable are `K` records of
//! the step's one segment, entries `variable@0` … `variable@K−1`, written
//! by one append and one sync ([`ShardedWriter::put`]). A step's row
//! order is stored once, for every shard. There is one `MANIFEST`, one
//! resume scan, one fsck and one compaction. The shard is the unit of
//! reading, caching and pruning — [`ShardedStore::shards`] gives one
//! [`Store`] view per shard, and the engine loads only the records a
//! query's region touches — but not of durability on one node.
//!
//! Row split: shard `i` of `K` covers stored rows
//! `[(i*n)/K, ((i+1)*n)/K)` — a pure function of `(n, K)`, so no per-step
//! cut manifest is needed; at query time the per-shard index lengths
//! prefix-sum back into the row ranges.
//!
//! A `K > 1` run has a `SHARDS` file recording `K` (with a CRC footer),
//! written before its first put, so a resume never has to guess `K`. The
//! 1-shard run *is* the flat store: no `SHARDS` file, the same bytes
//! [`StoreWriter`] writes — and a directory without a `SHARDS` file
//! opens as exactly that. A `K`-shard directory that lost its `SHARDS`
//! file still fails hard: its manifest names shards a flat store has not.
//! A store whose shards each kept a store of their own under
//! `shard-NNN/` (a `v1` `SHARDS` file) still opens, verifies, resumes and
//! compacts: its shards' manifests are lifted into the one entry map.
//!
//! Background maintenance ([`QueryEngine::maintenance_once`]) compacts
//! durable debris (quarantined blobs, orphaned temp files, an earlier
//! format's journals) and applies tiered cache eviction — drop steps that
//! fell out of the hot set, then squeeze to an idle byte target — per shard.
//!
//! Counters (family `shard`): `shard.compact.{files,bytes}` here; the
//! engine owns `shard.query.*` and `shard.maintenance.*`.

use crate::crc::crc32c;
use crate::engine::QueryEngine;
use crate::error::{IbisError, Result};
use crate::io::{write_atomic, Disk, FileOps};
use crate::store::{is_shard_dir, stored_file, FsckReport, Store, StoreWriter, LOSSY_PREFIX};
use ibis_core::{BitmapIndex, RowOrder, RowPermutation};
use ibis_obs::LazyCounter;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

static OBS_COMPACT_FILES: LazyCounter = LazyCounter::new("shard.compact.files");
static OBS_COMPACT_BYTES: LazyCounter = LazyCounter::new("shard.compact.bytes");

/// The top-level file naming the shard count.
pub const SHARDS_FILE: &str = "SHARDS";
const SHARDS_HEADER: &str = "#IBIS-SHARDS v2";
/// The header of a `SHARDS` file whose shards each kept a store of their
/// own under `shard-NNN/`.
const SHARDS_HEADER_IN_DIRS: &str = "#IBIS-SHARDS v1";
/// Hard ceiling on the shard count (file-name and sanity bound).
pub const MAX_SHARDS: usize = 256;

/// Whether `dir` holds a sharded store (has a `SHARDS` file).
pub fn is_sharded(dir: impl AsRef<Path>) -> bool {
    dir.as_ref().join(SHARDS_FILE).is_file()
}

/// The `nshards + 1` even-split cut points over `global_len` stored rows:
/// shard `i` covers `[cuts[i], cuts[i+1])`. A pure function of its
/// arguments — writer and readers derive identical ranges with no
/// per-step manifest.
pub fn shard_cuts(global_len: u64, nshards: usize) -> Vec<u64> {
    let k = nshards.max(1) as u128;
    (0..=nshards.max(1))
        .map(|i| ((global_len as u128 * i as u128) / k) as u64)
        .collect()
}

fn write_shards_file(fs: &dyn FileOps, dir: &Path, nshards: usize) -> Result<()> {
    let body = format!("{SHARDS_HEADER}\n{nshards}\n");
    let full = format!("{body}#END {:08x}\n", crc32c(body.as_bytes()));
    write_atomic(
        fs,
        &dir.join(".SHARDS.tmp"),
        &dir.join(SHARDS_FILE),
        full.as_bytes(),
    )
    .map_err(|e| IbisError::io("write SHARDS", &e))
}

/// The shard count a `SHARDS` file records, and whether its shards each
/// keep a store of their own under `shard-NNN/` (a `v1` file).
fn read_shards_file(dir: &Path) -> Result<(usize, bool)> {
    let corrupt = |detail: String| IbisError::Corrupt {
        file: SHARDS_FILE.to_string(),
        detail,
    };
    let text = std::fs::read_to_string(dir.join(SHARDS_FILE))
        .map_err(|e| IbisError::io("read SHARDS", &e))?;
    let Some(footer_at) = text.rfind("#END ") else {
        return Err(corrupt("missing #END footer (truncated?)".into()));
    };
    let (body, footer) = text.split_at(footer_at);
    let in_dirs = match body.lines().next() {
        Some(SHARDS_HEADER) => false,
        Some(SHARDS_HEADER_IN_DIRS) => true,
        _ => return Err(corrupt("missing #IBIS-SHARDS header".into())),
    };
    let stored = footer
        .trim_end()
        .strip_prefix("#END ")
        .and_then(|f| u32::from_str_radix(f, 16).ok())
        .ok_or_else(|| corrupt("malformed #END footer".into()))?;
    let actual = crc32c(body.as_bytes());
    if stored != actual {
        return Err(corrupt(format!(
            "CRC mismatch: stored {stored:08x}, computed {actual:08x}"
        )));
    }
    let nshards: usize = body
        .lines()
        .nth(1)
        .and_then(|l| l.trim().parse().ok())
        .ok_or_else(|| corrupt("missing shard count".into()))?;
    if nshards == 0 || nshards > MAX_SHARDS {
        return Err(corrupt(format!(
            "shard count {nshards} outside 1..={MAX_SHARDS}"
        )));
    }
    Ok((nshards, in_dirs))
}

/// The shard count of run directory `dir`, and how many of its shards
/// keep a store of their own whose manifest stands in for a missing
/// `MANIFEST` ([`read_shards_file`]: all of a `v1` store's, else none);
/// without a `SHARDS` file, the one flat shard.
fn shards_of(dir: &Path) -> Result<(usize, usize)> {
    match is_sharded(dir) {
        true => read_shards_file(dir).map(|(k, in_dirs)| (k, if in_dirs { k } else { 0 })),
        false => Ok((1, 0)),
    }
}

/// What every list holds, in the first list's order: the steps or
/// variables every shard holds.
fn common<T: PartialEq>(mut lists: impl Iterator<Item = Vec<T>>) -> Vec<T> {
    let mut common = lists.next().unwrap_or_default();
    for list in lists {
        common.retain(|x| list.contains(x));
    }
    common
}

/// Debris removed by a compaction pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CompactReport {
    /// Files deleted.
    pub files_removed: usize,
    /// Their summed on-disk bytes.
    pub bytes_reclaimed: u64,
}

/// Removes a run directory's durable debris: quarantined blobs
/// (`*.quarantined`), orphaned atomic-write temp files (`.*.tmp`), a
/// `JOURNAL` (what stores kept before segments; nothing reads one) and —
/// once a `MANIFEST` finishes the store — the blobs of retired lossy
/// companions, which no reader opens; and the same in each `shard-NNN/`
/// directory a store of an earlier layout keeps. Only call on a quiesced
/// directory.
pub(crate) fn compact(dir: &Path, report: &mut CompactReport) -> Result<()> {
    let entries = std::fs::read_dir(dir)
        .map_err(|e| IbisError::io(format!("read dir {}", dir.display()), &e))?;
    let manifest_done = dir.join("MANIFEST").is_file();
    for entry in entries {
        let entry = entry.map_err(|e| IbisError::io("read dir entry", &e))?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if is_shard_dir(name) && entry.path().is_dir() {
            compact(&entry.path(), report)?;
            continue;
        }
        let debris = name.ends_with(".quarantined")
            || (name.starts_with('.') && name.ends_with(".tmp"))
            || name == "JOURNAL"
            || (manifest_done
                && stored_file(name).is_some_and(|(_, e)| e.starts_with(LOSSY_PREFIX)));
        if !debris {
            continue;
        }
        let bytes = entry.metadata().map(|m| m.len()).unwrap_or(0);
        Disk.remove(&entry.path())
            .map_err(|e| IbisError::io(format!("remove debris {name}"), &e))?;
        report.files_removed += 1;
        report.bytes_reclaimed += bytes;
        OBS_COMPACT_FILES.inc();
        OBS_COMPACT_BYTES.add(bytes);
    }
    Ok(())
}

/// Writes one logical run as `K ≥ 1` spatial shards of one durable
/// [`StoreWriter`]: [`ShardedWriter::put`] slices the step's index on the
/// deterministic even-split row cuts and appends the `K` slices' records
/// to the step's segment in one write, synced once. The global row
/// permutation (if any) is stored once, for every shard. `K = 1` writes
/// the flat store, byte for byte what a bare [`StoreWriter`] writes
/// (module docs).
#[derive(Debug)]
pub struct ShardedWriter {
    writer: StoreWriter,
    nshards: usize,
}

impl ShardedWriter {
    /// Creates the run directory and starts a fresh run of `nshards`
    /// shards in it — recorded in a `SHARDS` file for `nshards > 1`, the
    /// flat store for 1 (with no `SHARDS` file: [`StoreWriter::create`]).
    pub fn create(dir: impl AsRef<Path>, nshards: usize) -> Result<Self> {
        Self::create_on(&Disk, dir, nshards)
    }

    /// [`ShardedWriter::create`] with every change to the directory, this
    /// run's puts and `finish` included, made through `fs`.
    pub fn create_on(
        fs: &'static dyn FileOps,
        dir: impl AsRef<Path>,
        nshards: usize,
    ) -> Result<Self> {
        if nshards == 0 || nshards > MAX_SHARDS {
            return Err(IbisError::Config(format!(
                "shard count {nshards} outside 1..={MAX_SHARDS}"
            )));
        }
        let writer = StoreWriter::create_on(fs, dir)?;
        if nshards > 1 {
            write_shards_file(fs, writer.dir(), nshards)?;
        }
        Ok(ShardedWriter { writer, nshards })
    }

    /// Reopens an interrupted (or finished) run: reads the shard count
    /// back from `SHARDS` (absent: the one flat shard) and crash-resumes
    /// the store ([`StoreWriter::resume`]).
    ///
    /// Resume only a directory `create` returned for, or resume through
    /// [`crate::resume_durable`], whose `CHECKPOINT` decides: a crash inside
    /// `create`'s retirement leaves one this does not know as half-retired.
    pub fn resume(dir: impl AsRef<Path>) -> Result<Self> {
        Self::resume_on(&Disk, dir)
    }

    /// [`ShardedWriter::resume`] with every change to the directory, the
    /// resumed run's puts and `finish` included, made through `fs`.
    pub fn resume_on(fs: &'static dyn FileOps, dir: impl AsRef<Path>) -> Result<Self> {
        let (nshards, lifted) = shards_of(dir.as_ref())?;
        let writer = StoreWriter::resume_in(fs, dir.as_ref(), lifted)?;
        Ok(ShardedWriter { writer, nshards })
    }

    /// The run directory.
    pub fn dir(&self) -> &Path {
        self.writer.dir()
    }

    /// The shard count.
    pub fn nshards(&self) -> usize {
        self.nshards
    }

    /// Whether `(step, variable)` is durable in **every** shard.
    pub fn contains(&self, step: usize, variable: &str) -> bool {
        let shards = self.writer.durable_view().into_shard_views(self.nshards);
        shards
            .iter()
            .all(|shard| shard.locate(step, variable).is_some())
    }

    /// Steps durable in every shard, ascending — a step some shard lost
    /// (a torn append) is not globally durable until re-put.
    pub fn durable_steps(&self) -> Vec<usize> {
        let shards = self.writer.durable_view().into_shard_views(self.nshards);
        common(shards.iter().map(Store::steps))
    }

    /// Splits `index` on the even-split row cuts and lands the slices as
    /// one append of `K` records, synced once. Idempotent like
    /// [`StoreWriter::put`] — after a resume, re-putting a step appends
    /// only the records a torn append lost.
    pub fn put(&mut self, step: usize, variable: &str, index: &BitmapIndex) -> Result<()> {
        if self.nshards == 1 {
            return self.writer.put(step, variable, index); // its one slice is itself
        }
        let cuts = shard_cuts(index.len(), self.nshards);
        let slices: Vec<_> = (cuts.windows(2))
            .map(|cut| index.slice_rows(cut[0]..cut[1]))
            .collect();
        self.writer.put_slices(step, variable, &slices)
    }

    /// Stores the step's **global** row permutation once, for every shard
    /// (a region resolves against it into ranges of global stored rows,
    /// which each shard clips to its own — see
    /// [`ibis_analysis::stored_ranges`]). Call it before the step's `put`s
    /// ([`StoreWriter::put_order`]).
    pub fn put_order(&mut self, step: usize, order: RowOrder, perm: &RowPermutation) -> Result<()> {
        self.writer.put_order(step, order, perm)
    }

    /// Finishes the run (one checksummed manifest); returns the run dir.
    pub fn finish(self) -> Result<PathBuf> {
        self.writer.finish()
    }
}

/// A read-only view of a finished run of `K ≥ 1` shards: the one store,
/// and a [`Store`] view of each shard, built when first asked for.
#[derive(Debug)]
pub struct ShardedStore {
    store: Store,
    nshards: usize,
    shards: OnceLock<Vec<Store>>,
}

impl ShardedStore {
    /// Opens a run directory: `K` shards under a `SHARDS` file, the one
    /// flat store without.
    pub fn open(dir: impl AsRef<Path>) -> Result<Self> {
        let (nshards, lifted) = shards_of(dir.as_ref())?;
        let store = Store::open_in(dir, nshards, lifted)?;
        let shards = OnceLock::new();
        Ok(ShardedStore {
            store,
            nshards,
            shards,
        })
    }

    /// The run directory.
    pub fn dir(&self) -> &Path {
        self.store.dir()
    }

    /// The shard count.
    pub fn nshards(&self) -> usize {
        self.nshards
    }

    /// The per-shard stores, in shard order.
    pub fn shards(&self) -> &[Store] {
        let views = || self.store.clone().into_shard_views(self.nshards);
        self.shards.get_or_init(views)
    }

    /// Steps present in **every** shard, ascending.
    pub fn steps(&self) -> Vec<usize> {
        common(self.shards().iter().map(Store::steps))
    }

    /// Variables present for `step` in **every** shard.
    pub fn variables(&self, step: usize) -> Vec<&str> {
        common(self.shards().iter().map(|s| s.variables(step)))
    }

    /// Verifies every entry once ([`Store::fsck`]) and reports per shard,
    /// in shard order: each report counts and lists the shard's slices
    /// and the steps' orders it reads. Corruption in one shard's record
    /// quarantines only that record; the other shards' entries (and their
    /// query results) are untouched.
    pub fn fsck(&mut self) -> Vec<FsckReport> {
        self.shards = OnceLock::new();
        self.store.fsck_by_shard(self.nshards)
    }

    /// Compacts durable debris (quarantined blobs, orphaned temp files, an
    /// earlier format's journals) in the run directory and any
    /// `shard-NNN/` directory of an older layout.
    pub fn compact(&self) -> Result<CompactReport> {
        let mut report = CompactReport::default();
        compact(self.dir(), &mut report)?;
        Ok(report)
    }

    /// Consumes the view into its per-shard stores (shard order) — the
    /// engine wraps each in its own cache.
    pub fn into_shards(self) -> Vec<Store> {
        let views = self.shards.into_inner();
        views.unwrap_or_else(|| self.store.into_shard_views(self.nshards))
    }
}

/// What [`QueryEngine::maintenance_once`] should do.
#[derive(Debug, Clone, Default)]
pub struct MaintenanceConfig {
    /// Remove durable debris (quarantined, temp and journal files).
    /// Off by default: the serving loop opts in once it owns the
    /// directory exclusively.
    pub compact: bool,
    /// Evict cached entries of steps *not* in this set (tier 1: the hot
    /// set moved on). `None` keeps every step.
    pub hot_steps: Option<Vec<usize>>,
    /// Squeeze each shard's cache to `total/K` bytes (tier 2: idle
    /// target below the serving budget). `None` leaves residency alone.
    pub cache_target_bytes: Option<u64>,
}

/// What one maintenance pass did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MaintenanceReport {
    /// Debris files removed.
    pub debris_files: usize,
    /// Debris bytes reclaimed on disk.
    pub debris_bytes: u64,
    /// Decoded cache bytes evicted.
    pub evicted_bytes: u64,
}

// ---------------------------------------------------------------------------
// Compatibility facade
// ---------------------------------------------------------------------------
//
// There is one engine ([`QueryEngine`]); these two names survive only
// because the `ibis-e2e` harness (`benchmark/`, editable by `[benchmark]`
// PRs alone) spells them. Slated for removal in the `[benchmark]` PR of
// ROADMAP item 7 — write new code against `QueryEngine`.

/// Compatibility alias: the scatter-gather engine *is* [`QueryEngine`].
pub type ShardedEngine = QueryEngine;

/// Compatibility wrapper around the single [`QueryEngine`]; both variants
/// hold the same type and everything goes through [`std::ops::Deref`].
#[derive(Debug)]
pub enum EngineBackend {
    /// An engine over one shard (a flat store).
    Single(QueryEngine),
    /// An engine over `K > 1` shards.
    Sharded(ShardedEngine),
}

impl std::ops::Deref for EngineBackend {
    type Target = QueryEngine;

    fn deref(&self) -> &QueryEngine {
        match self {
            EngineBackend::Single(e) | EngineBackend::Sharded(e) => e,
        }
    }
}

impl From<QueryEngine> for EngineBackend {
    fn from(engine: QueryEngine) -> Self {
        if engine.nshards() > 1 {
            EngineBackend::Sharded(engine)
        } else {
            EngineBackend::Single(engine)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CachedStore;
    use crate::engine::QueryRequest;
    use ibis_analysis::SubsetQuery;
    use ibis_core::Binner;
    use ibis_testkit::TempDir;

    /// Two correlated variables with spatial structure: values drift with
    /// the row index so region queries have non-trivial answers.
    fn sample_data(rows: usize, seed: u64) -> (Vec<f64>, Vec<f64>) {
        let mut x = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x % 1000) as f64 / 1000.0
        };
        let a: Vec<f64> = (0..rows)
            .map(|i| (i as f64 / rows as f64) * 8.0 + next())
            .collect();
        let b: Vec<f64> = a.iter().map(|v| 9.0 - v * 0.7 + next()).collect();
        (a, b)
    }

    fn binner() -> Binner {
        Binner::fixed_width(0.0, 10.0, 48)
    }

    /// Builds the same data as one flat store and one K-sharded store,
    /// returning `(flat_dir, sharded_dir)`.
    fn twin_stores(name: &str, rows: usize, k: usize) -> (TempDir, TempDir) {
        let flat = TempDir::new(&format!("{name}-flat"));
        let sharded = TempDir::new(&format!("{name}-sharded"));
        let mut wf = StoreWriter::create(&flat).expect("flat writer");
        let mut ws = ShardedWriter::create(&sharded, k).expect("sharded writer");
        for step in [0usize, 1] {
            let (a, b) = sample_data(rows, step as u64 + 1);
            let ia = BitmapIndex::build(&a, binner());
            let ib = BitmapIndex::build(&b, binner());
            wf.put(step, "temperature", &ia).expect("flat put");
            wf.put(step, "salinity", &ib).expect("flat put");
            ws.put(step, "temperature", &ia).expect("sharded put");
            ws.put(step, "salinity", &ib).expect("sharded put");
        }
        wf.finish().expect("flat finish");
        ws.finish().expect("sharded finish");
        (flat, sharded)
    }

    fn queries(rows: u64) -> Vec<QueryRequest> {
        let value = SubsetQuery {
            value_range: Some((2.0, 7.5)),
            position_range: None,
        };
        let region = SubsetQuery {
            value_range: None,
            position_range: Some(rows / 8..rows / 3),
        };
        let both = SubsetQuery {
            value_range: Some((1.0, 6.0)),
            position_range: Some(rows / 2..rows),
        };
        vec![
            QueryRequest::Subset {
                step: 0,
                variable: "temperature".into(),
                query: value.clone(),
            },
            QueryRequest::Subset {
                step: 1,
                variable: "temperature".into(),
                query: region.clone(),
            },
            QueryRequest::Subset {
                step: 0,
                variable: "salinity".into(),
                query: both.clone(),
            },
            QueryRequest::Correlation {
                step: 0,
                var_a: "temperature".into(),
                var_b: "salinity".into(),
                query_a: value,
                query_b: region,
            },
            QueryRequest::Correlation {
                step: 1,
                var_a: "temperature".into(),
                var_b: "salinity".into(),
                query_a: both.clone(),
                query_b: both,
            },
        ]
    }

    #[test]
    fn cuts_partition_and_are_monotone() {
        for (n, k) in [(0u64, 1usize), (1, 4), (100, 3), (3001, 4), (31, 31)] {
            let cuts = shard_cuts(n, k);
            assert_eq!(cuts.len(), k + 1);
            assert_eq!(cuts[0], 0);
            assert_eq!(cuts[k], n);
            assert!(cuts.windows(2).all(|w| w[0] <= w[1]));
        }
    }

    #[test]
    fn shards_file_round_trips_and_detects_corruption() {
        let dir = TempDir::new("shards-file");
        std::fs::create_dir_all(&dir).expect("mkdir");
        write_shards_file(&Disk, &dir, 7).expect("write");
        assert!(is_sharded(&dir));
        assert_eq!(read_shards_file(&dir).expect("read"), (7, false));
        // flip the count without updating the CRC
        let text = std::fs::read_to_string(dir.join(SHARDS_FILE)).expect("read text");
        std::fs::write(dir.join(SHARDS_FILE), text.replace('7', "4")).expect("tamper");
        assert!(matches!(
            read_shards_file(&dir),
            Err(IbisError::Corrupt { .. })
        ));
        // a 1-shard run created over it is flat: the stale file is gone
        ShardedWriter::create(&dir, 1).expect("flat writer");
        assert!(!is_sharded(&dir));
    }

    #[test]
    fn missing_shard_directory_is_a_hard_error() {
        let dir = TempDir::new("missing-shard");
        let mut w = ShardedWriter::create(&dir, 3).expect("writer");
        let (a, _) = sample_data(600, 1);
        w.put(0, "temperature", &BitmapIndex::build(&a, binner()))
            .expect("put");
        w.finish().expect("finish");
        // a K-shard directory that lost its SHARDS file reads as a flat
        // store, whose manifest must not name shards
        let shards = std::fs::read(dir.join(SHARDS_FILE)).expect("SHARDS");
        std::fs::remove_file(dir.join(SHARDS_FILE)).expect("drop SHARDS");
        assert!(matches!(
            ShardedStore::open(&dir),
            Err(IbisError::Manifest { .. })
        ));
        // one that claims fewer shards than its manifest names fails; one
        // that claims more opens with no step every shard holds
        write_shards_file(&Disk, &dir, 2).expect("write");
        assert!(ShardedStore::open(&dir).is_err());
        write_shards_file(&Disk, &dir, 4).expect("write");
        assert!(ShardedStore::open(&dir).expect("open").steps().is_empty());
        std::fs::write(dir.join(SHARDS_FILE), shards).expect("restore");
        assert_eq!(ShardedStore::open(&dir).expect("open").nshards(), 3);
        // a store whose shards keep stores of their own under
        // `shard-NNN/`: a missing shard directory is a hard error
        let old = TempDir::new("missing-shard-dirs");
        let text = format!("{SHARDS_HEADER_IN_DIRS}\n2\n");
        let text = format!("{text}#END {:08x}\n", crc32c(text.as_bytes()));
        std::fs::create_dir_all(&old).expect("mkdir");
        std::fs::write(old.join(SHARDS_FILE), text).expect("SHARDS v1");
        let mut w = StoreWriter::create(old.join("shard-000")).expect("writer");
        w.put(0, "temperature", &BitmapIndex::build(&a, binner()))
            .expect("put");
        w.finish().expect("finish");
        assert!(ShardedStore::open(&old).is_err());
    }

    #[test]
    fn sharded_answers_equal_unsharded_oracle() {
        for k in [1usize, 2, 4] {
            let rows = 3000;
            let (flat, sharded) = twin_stores(&format!("oracle-{k}"), rows, k);
            // the 1-shard run is the flat layout: no SHARDS file
            assert_eq!(is_sharded(&sharded), k > 1);
            let oracle = QueryEngine::new(CachedStore::new(
                Store::open(&flat).expect("open"),
                64 << 20,
            ));
            let engine = QueryEngine::open(&sharded, 64 << 20).expect("open sharded");
            for req in queries(rows as u64) {
                let want = oracle.run(&req).expect("oracle answers");
                // twice: the second run exercises the pruned warm path
                for _ in 0..2 {
                    let got = engine.run(&req).expect("sharded answers");
                    assert_eq!(got, want, "k={k} req={req:?}");
                }
            }
        }
    }

    #[test]
    fn invalid_queries_fail_like_the_oracle() {
        let rows = 1200;
        let (flat, sharded) = twin_stores("invalid", rows, 3);
        let oracle = QueryEngine::new(CachedStore::new(Store::open(&flat).expect("open"), 1 << 20));
        let engine = QueryEngine::open(&sharded, 1 << 20).expect("open sharded");
        let bad = [
            SubsetQuery {
                value_range: Some((f64::NAN, 2.0)),
                position_range: None,
            },
            SubsetQuery {
                value_range: None,
                position_range: Some(0..rows as u64 + 5),
            },
            SubsetQuery {
                value_range: None,
                // inverted on purpose: start > end must be a typed error
                position_range: Some(std::ops::Range {
                    start: 900,
                    end: 100,
                }),
            },
        ];
        for q in bad {
            let req = QueryRequest::Subset {
                step: 0,
                variable: "temperature".into(),
                query: q,
            };
            let want = oracle.run(&req).expect_err("oracle rejects");
            // warm the cuts memo, then check the pruned path too
            for _ in 0..2 {
                let got = engine.run(&req).expect_err("sharded rejects");
                assert_eq!(
                    std::mem::discriminant(&got),
                    std::mem::discriminant(&want),
                    "same error class: got {got}, want {want}"
                );
            }
        }
    }

    #[test]
    fn region_pruning_skips_untouched_shards() {
        let rows = 4000u64;
        let (_flat, sharded) = twin_stores("prune", rows as usize, 4);
        let engine = QueryEngine::open(&sharded, 64 << 20).expect("open");
        let region_q = QueryRequest::Subset {
            step: 0,
            variable: "temperature".into(),
            query: SubsetQuery {
                value_range: None,
                position_range: Some(0..rows / 4),
            },
        };
        // Cold: full fan-out learns the cuts (4 misses).
        engine.run(&region_q).expect("cold");
        let cold = engine.cache_stats();
        assert_eq!(cold.misses, 4);
        // Warm, region in shard 0 only: no other shard is touched, so a
        // fresh (evicted) cache would still see just one miss. Here the
        // entries are resident: one hit, zero new misses.
        engine.run(&region_q).expect("warm");
        let warm = engine.cache_stats();
        assert_eq!(warm.misses, 4, "pruned shards must not be loaded");
        assert_eq!(warm.hits, cold.hits + 1, "only shard 0 evaluates");
    }

    #[test]
    fn resume_survives_a_killed_shard_writer() {
        let dir = TempDir::new("kill-resume");
        let rows = 900;
        let (a0, _) = sample_data(rows, 1);
        let index = BitmapIndex::build(&a0, binner());
        let mut w = ShardedWriter::create(&dir, 3).expect("writer");
        w.put(0, "temperature", &index).expect("put");
        // Simulate a node kill mid-run: drop the writer (the segment
        // remains, no manifest), then tear the last shard's record.
        drop(w);
        let seg = dir.join("s000000.ibis");
        let bytes = std::fs::read(&seg).expect("segment");
        std::fs::write(&seg, &bytes[..bytes.len() - 3]).expect("tear");
        let mut w = ShardedWriter::resume(&dir).expect("resume");
        assert!(
            !w.contains(0, "temperature"),
            "shard 2's torn entry makes the step non-durable globally"
        );
        assert_eq!(w.durable_steps(), Vec::<usize>::new());
        w.put(0, "temperature", &index).expect("re-put repairs");
        assert!(w.contains(0, "temperature"));
        w.finish().expect("finish");
        let store = ShardedStore::open(&dir).expect("open");
        assert_eq!(store.steps(), vec![0]);
    }

    #[test]
    fn compact_removes_quarantine_and_stale_journal_debris() {
        let dir = TempDir::new("compact");
        let rows = 600;
        let (a0, _) = sample_data(rows, 5);
        let mut w = ShardedWriter::create(&dir, 2).expect("writer");
        w.put(0, "temperature", &BitmapIndex::build(&a0, binner()))
            .expect("put");
        w.finish().expect("finish");
        // plant debris: a quarantined blob, a temp file, and a stale
        // journal in a shard directory of an earlier layout
        let s1 = dir.join("shard-001");
        std::fs::create_dir(&s1).expect("mkdir");
        std::fs::write(dir.join("old.ibis.quarantined"), b"junk").expect("debris");
        std::fs::write(dir.join(".x.tmp"), b"torn").expect("debris");
        std::fs::write(s1.join("JOURNAL"), b"stale").expect("debris");
        let store = ShardedStore::open(&dir).expect("open");
        let report = store.compact().expect("compact");
        assert_eq!(report.files_removed, 3);
        assert!(report.bytes_reclaimed >= 13);
        assert!(!dir.join("old.ibis.quarantined").exists());
        assert!(!dir.join(".x.tmp").exists());
        assert!(!s1.join("JOURNAL").exists());
        // second pass: nothing left
        assert_eq!(store.compact().expect("compact"), CompactReport::default());
    }

    #[test]
    fn maintenance_tiers_evict_and_compact() {
        let rows = 2000;
        let (_flat, sharded) = twin_stores("maint", rows, 2);
        let engine = QueryEngine::open(&sharded, 64 << 20).expect("open");
        for step in [0usize, 1] {
            for var in ["temperature", "salinity"] {
                for i in 0..engine.nshards() {
                    engine.shard_caches()[i].get(var, step).expect("warm");
                }
            }
        }
        let before = engine.cache_stats().resident_bytes;
        assert!(before > 0);
        // tier 1: step 1 leaves the hot set
        let rep = engine
            .maintenance_once(&MaintenanceConfig {
                compact: true,
                hot_steps: Some(vec![0]),
                cache_target_bytes: None,
            })
            .expect("maintenance");
        assert!(rep.evicted_bytes > 0);
        let mid = engine.cache_stats().resident_bytes;
        assert!(mid < before);
        // tier 2: squeeze to zero
        let rep = engine
            .maintenance_once(&MaintenanceConfig {
                compact: false,
                hot_steps: None,
                cache_target_bytes: Some(0),
            })
            .expect("maintenance");
        assert_eq!(rep.debris_files, 0);
        assert!(rep.evicted_bytes >= mid);
        assert_eq!(engine.cache_stats().resident_bytes, 0);
    }

    #[test]
    fn backend_dispatches_both_engines() {
        let rows = 800;
        let (flat, sharded) = twin_stores("backend", rows, 2);
        let single: EngineBackend = QueryEngine::open(&flat, 1 << 20).expect("open").into();
        let shard: EngineBackend = QueryEngine::open(&sharded, 1 << 20).expect("open").into();
        assert!(matches!(single, EngineBackend::Single(_)));
        assert!(matches!(shard, EngineBackend::Sharded(_)));
        assert_eq!(single.nshards(), 1);
        assert_eq!(shard.nshards(), 2);
        let req = QueryRequest::Subset {
            step: 0,
            variable: "temperature".into(),
            query: SubsetQuery {
                value_range: Some((0.0, 5.0)),
                position_range: None,
            },
        };
        assert_eq!(
            single.run(&req).expect("single"),
            shard.run(&req).expect("sharded")
        );
        // maintenance applies at any shard count: a planted temp file is
        // swept from the flat store's root exactly once
        std::fs::write(flat.join(".x.tmp"), b"torn").expect("debris");
        let compact = MaintenanceConfig {
            compact: true,
            ..MaintenanceConfig::default()
        };
        let rep = single.maintenance_once(&compact).expect("runs");
        assert_eq!((rep.debris_files, rep.debris_bytes), (1, 4));
        shard.maintenance_once(&compact).expect("runs");
        assert!(single.cache_stats().misses >= 1);
        assert!(shard.cache_stats().misses >= 2);
    }
}
