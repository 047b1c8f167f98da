//! The query engine: subset and correlation queries served from a durable
//! store of `K ≥ 1` spatial shards through per-shard [`CachedStore`]s,
//! with a JSON batch protocol for the `ibis query` CLI (DESIGN.md §6k).
//!
//! There is one engine and one query path — scatter, count per shard,
//! gather. A flat run directory is the 1-shard store ([`QueryEngine::new`],
//! or [`QueryEngine::open`] on a directory without a `SHARDS` file); a
//! sharded one is one store too, and the engine fans the same per-shard
//! step out over one [`CachedStore`] per shard, each over that shard's
//! view of the store ([`ShardedStore::shards`]): the shard stays the unit
//! of reading, caching and pruning, so a query loads only the records its
//! region touches. The engine counts: no reply needs a selection vector,
//! so none is built or concatenated.
//! Answers are **byte-identical** for every `K`:
//!
//! * a subset answer is a count of the rows a shard holds, and the
//!   shards' rows are disjoint, so per-shard counts sum to the global one;
//! * correlation metrics reduce over additive integer partials
//!   ([`ibis_analysis::CorrelationPartial`], merged in ascending shard
//!   order) and finish through the same pure float finishers — the merged
//!   counts equal the global counts exactly, so the floats match bit for
//!   bit;
//! * region predicates prune: a region is resolved once per query into
//!   ranges of stored rows ([`ibis_analysis::stored_ranges`] — one range
//!   under the identity layout, one per ascending segment under a row
//!   permutation), and a shard none of them reaches contributes an empty
//!   partial by construction, so it is neither loaded nor evaluated — on
//!   a spatially-local workload a `K`-shard store does ~`1/K` of the
//!   decode and popcount work per query.
//!
//! Open a finished run directory once, then answer any number of queries
//! against it, decoding each `(variable, step)` blob at most once per cache
//! residency. The engine is `&self` throughout and the caches are
//! lock-sharded, so one engine instance serves concurrent reader threads.
//!
//! Every failure — unknown variable, malformed region, NaN bound, corrupt
//! blob, bad JSON — is a structured [`IbisError`]; no query input can panic
//! the process (the adversarial corpus in `tests/query_engine.rs` holds
//! this line). A batch keeps going after a failed query: each request gets
//! its own `Result`, so one typo doesn't void an expensive batch.
//!
//! Counters: `query.engine.{ok,rejected}`, `shard.query.{fanout,pruned}`
//! (shards visited / skipped: they sum to `K` per query),
//! `shard.maintenance.{runs,evicted_bytes}`;
//! each shard's cache publishes per-instance `query.cache.shard<i>.{…}`
//! gauges next to the summed `query.cache.stat.*` family.
//!
//! # Batch protocol
//!
//! ```json
//! {"queries": [
//!   {"kind": "subset", "step": 0, "variable": "temperature",
//!    "value_range": [2.0, 5.0], "region": [0, 4096]},
//!   {"kind": "correlation", "step": 0,
//!    "var_a": "temperature", "var_b": "salinity",
//!    "value_a": [18.0, 30.0], "region": [0, 4096]}
//! ]}
//! ```
//!
//! Answers come back in request order as `{"answers": [...]}`, each either
//! `{"ok": {...}}` or `{"error": "..."}`.

use crate::cache::{CacheStats, CachedStore};
use crate::error::{panic_message, IbisError, Result, WorkerRole};
use crate::json::{self, Json};
use crate::shard::{compact, CompactReport, MaintenanceConfig, MaintenanceReport, ShardedStore};
use ibis_analysis::{
    correlation_partial_shard, finish_correlation, shard_ranges, stored_ranges, CorrelationAnswer,
    QueryError, SubsetQuery,
};
use ibis_core::{Binner, MultiLevelIndex};
use ibis_obs::LazyCounter;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

static OBS_QUERIES_OK: LazyCounter = LazyCounter::new("query.engine.ok");
static OBS_QUERIES_REJECTED: LazyCounter = LazyCounter::new("query.engine.rejected");
static OBS_SHARD_FANOUT: LazyCounter = LazyCounter::new("shard.query.fanout");
static OBS_SHARD_PRUNED: LazyCounter = LazyCounter::new("shard.query.pruned");
static OBS_MAINT_RUNS: LazyCounter = LazyCounter::new("shard.maintenance.runs");
static OBS_MAINT_EVICTED: LazyCounter = LazyCounter::new("shard.maintenance.evicted_bytes");

/// One query against the store.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryRequest {
    /// Count the elements of one variable matching a subset predicate.
    Subset {
        /// Time-step to query.
        step: usize,
        /// Variable to query.
        variable: String,
        /// The predicate.
        query: SubsetQuery,
    },
    /// Correlate two variables of one step over their subset predicates.
    Correlation {
        /// Time-step to query.
        step: usize,
        /// First variable.
        var_a: String,
        /// Second variable.
        var_b: String,
        /// Predicate on the first variable.
        query_a: SubsetQuery,
        /// Predicate on the second variable.
        query_b: SubsetQuery,
    },
}

/// A successful query's answer.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryAnswer {
    /// Answer to a [`QueryRequest::Subset`].
    Subset {
        /// Elements matching the predicate.
        selected: u64,
        /// Elements the variable covers at that step.
        of: u64,
    },
    /// Answer to a [`QueryRequest::Correlation`].
    Correlation(CorrelationAnswer),
}

/// Memoized prefix row cuts, keyed by `(step, variable)`: `cuts[i]` is
/// shard `i`'s first global row, `cuts[K]` the global length.
type CutsMemo = Mutex<HashMap<(usize, String), Arc<Vec<u64>>>>;

/// Where `(step, variable)`'s rows sit across the shards, plus whatever
/// exact indices had to be decoded to learn it: the evaluation that
/// follows reuses those instead of asking the cache twice.
struct Layout {
    cuts: Arc<Vec<u64>>,
    loaded: Vec<Option<Arc<MultiLevelIndex>>>,
}

impl Layout {
    fn rows(&self, shard: usize) -> Range<u64> {
        self.cuts[shard]..self.cuts[shard + 1]
    }

    fn global_len(&self) -> u64 {
        self.cuts[self.cuts.len() - 1]
    }
}

/// A query-serving session over one finished run directory of `K ≥ 1`
/// shards: each shard serves from its own byte-budgeted [`CachedStore`],
/// partials merge in ascending shard order, and answers do not depend on
/// `K` (see the module docs for the argument).
#[derive(Debug)]
pub struct QueryEngine {
    dir: PathBuf,
    caches: Vec<CachedStore>,
    /// Whether fan-out uses threads (more than one core available) or
    /// runs shards sequentially (identical results either way; the merge
    /// order is always ascending shard index).
    parallel: bool,
    /// Per-`(step, variable)` prefix row cuts, learned on first touch —
    /// later region queries prune shards without touching them.
    cuts: CutsMemo,
}

impl QueryEngine {
    /// Serves queries from `cache`: the one-shard engine over a flat store.
    pub fn new(cache: CachedStore) -> Self {
        Self::over(cache.store().dir().to_path_buf(), vec![cache])
    }

    /// Opens the run directory `dir` — `K` shards under a `SHARDS` file,
    /// or the one flat shard without — and splits
    /// `budget_bytes` of decoded-index cache evenly across the shards.
    pub fn open(dir: impl AsRef<Path>, budget_bytes: u64) -> Result<Self> {
        Ok(Self::from_store(ShardedStore::open(dir)?, budget_bytes))
    }

    /// Wraps an already-open [`ShardedStore`], splitting `budget_bytes`
    /// evenly across per-shard caches labeled `shard000`, `shard001`, …
    /// (their residency gauges publish per shard, not pooled).
    pub fn from_store(store: ShardedStore, budget_bytes: u64) -> Self {
        let dir = store.dir().to_path_buf();
        let shards = store.into_shards();
        let per_shard = budget_bytes / shards.len() as u64;
        let caches = shards
            .into_iter()
            .enumerate()
            .map(|(i, s)| CachedStore::new(s, per_shard).with_label(format!("shard{i:03}")))
            .collect();
        Self::over(dir, caches)
    }

    fn over(dir: PathBuf, caches: Vec<CachedStore>) -> Self {
        QueryEngine {
            dir,
            caches,
            parallel: std::thread::available_parallelism().is_ok_and(|n| n.get() > 1),
            cuts: Mutex::new(HashMap::new()),
        }
    }

    /// A no-op left of the retired lossy companions: the engine is
    /// unchanged. Exists only for `benchmark/src/fixture.rs`; ROADMAP item
    /// 4's `[benchmark]` PR deletes it.
    #[doc(hidden)]
    pub fn with_lossy_fpr(self, _fpr: f64) -> Self {
        self
    }

    /// The shard count.
    pub fn nshards(&self) -> usize {
        self.caches.len()
    }

    /// The per-shard caches, in shard order (stats, catalog).
    pub fn shard_caches(&self) -> &[CachedStore] {
        &self.caches
    }

    /// Cache counters summed over every shard.
    pub fn cache_stats(&self) -> CacheStats {
        let mut total = CacheStats::default();
        for c in &self.caches {
            let s = c.stats();
            total.hits += s.hits;
            total.misses += s.misses;
            total.evictions += s.evictions;
            total.resident_bytes += s.resident_bytes;
        }
        total
    }

    /// Publishes the summed [`QueryEngine::cache_stats`] as the static
    /// `query.cache.stat.*` / `query.cache.hit_ratio_pct` gauges and every
    /// labeled shard cache's per-instance gauges.
    pub fn publish_obs(&self) {
        self.cache_stats().publish_obs();
        for c in &self.caches {
            c.publish_labeled_obs();
        }
    }

    /// Runs `f(shard_index)` for the given shards and returns results in
    /// the same order — threaded when more than one core is available,
    /// sequential otherwise. A panicking task is contained as
    /// [`IbisError::WorkerPanic`].
    fn fanout<T, F>(&self, ids: &[usize], f: F) -> Vec<Result<T>>
    where
        T: Send,
        F: Fn(usize) -> Result<T> + Sync,
    {
        if !self.parallel || ids.len() <= 1 {
            return ids.iter().map(|&i| f(i)).collect();
        }
        std::thread::scope(|s| {
            let f = &f;
            let handles: Vec<_> = ids.iter().map(|&i| s.spawn(move || f(i))).collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join().unwrap_or_else(|payload| {
                        Err(IbisError::WorkerPanic {
                            role: WorkerRole::Node,
                            step: None,
                            message: panic_message(payload.as_ref()),
                        })
                    })
                })
                .collect()
        })
    }

    /// Where the rows passing every region predicate of `queries` sit
    /// among `global_len` stored rows of `step` ([`stored_ranges`]):
    /// regions arrive in *original* row ids and are resolved, once per
    /// query, against the step's stored row permutation — one record
    /// every shard's view reads (asked through shard 0's cache). Value ranges are order-invariant, so a request
    /// without a region never loads the permutation.
    fn ranges_of(
        &self,
        step: usize,
        queries: &[&SubsetQuery],
        global_len: u64,
    ) -> Result<Option<Vec<Range<u64>>>> {
        let order = match queries.iter().any(|q| q.position_range.is_some()) {
            true => self.caches[0].get_order_over(step, Some(global_len))?,
            false => None,
        };
        let perm = order.as_deref().map(|(_, p)| p);
        stored_ranges(queries, global_len, perm).map_err(IbisError::Query)
    }

    /// The prefix row cuts of `(step, variable)`: memoized, else learned
    /// from every shard's row count — each shard decodes its exact index
    /// and hands it on in [`Layout::loaded`].
    fn layout(&self, step: usize, variable: &str, deadline: Option<Instant>) -> Result<Layout> {
        let key = (step, variable.to_string());
        if let Some(cuts) = self.cuts.lock().get(&key).cloned() {
            return Ok(Layout {
                cuts,
                loaded: vec![None; self.caches.len()],
            });
        }
        let ids: Vec<usize> = (0..self.caches.len()).collect();
        let mut cuts = vec![0u64];
        let mut loaded = Vec::with_capacity(ids.len());
        for shard in self.fanout(&ids, |i| {
            deadline_check(deadline, "shard load")?;
            let ml = self.caches[i].get(variable, step)?;
            Ok((ml.low().len(), Some(ml)))
        }) {
            let (len, ml) = shard?;
            cuts.push(cuts[cuts.len() - 1] + len);
            loaded.push(ml);
        }
        let cuts = Arc::new(cuts);
        self.cuts.lock().insert(key, Arc::clone(&cuts));
        Ok(Layout { cuts, loaded })
    }

    /// Shard `shard`'s exact index: the one [`QueryEngine::layout`]
    /// already decoded, else a cache read — refused once the request's
    /// budget has expired.
    fn exact(
        &self,
        layout: &Layout,
        shard: usize,
        variable: &str,
        step: usize,
        deadline: Option<Instant>,
    ) -> Result<Arc<MultiLevelIndex>> {
        if let Some(ml) = &layout.loaded[shard] {
            return Ok(Arc::clone(ml));
        }
        deadline_check(deadline, "shard load")?;
        self.caches[shard].get(variable, step)
    }

    /// The shards a query must visit: those whose rows meet one of the
    /// region's stored `ranges` — any other contributes an empty partial
    /// by construction, whatever the row layout. An empty intersection
    /// keeps shard 0 so the empty answer surfaces like any other query's.
    fn wanted(&self, cuts: &[u64], ranges: Option<&[Range<u64>]>) -> Vec<usize> {
        let mut hit: Vec<usize> = (0..self.caches.len())
            .filter(|&i| {
                // sorted and disjoint: the first range ending past the
                // shard's first row is the only one that can reach it
                ranges.is_none_or(|ranges| {
                    let k = ranges.partition_point(|r| r.end <= cuts[i]);
                    ranges.get(k).is_some_and(|r| r.start < cuts[i + 1])
                })
            })
            .collect();
        if hit.is_empty() {
            hit.push(0);
        }
        // visited + pruned = K for every query, threaded or not
        OBS_SHARD_FANOUT.add(hit.len() as u64);
        OBS_SHARD_PRUNED.add((self.caches.len() - hit.len()) as u64);
        hit
    }

    /// Answers one query. Total: every malformed or unanswerable request
    /// is a structured error.
    pub fn run(&self, request: &QueryRequest) -> Result<QueryAnswer> {
        self.run_with_deadline(request, None)
    }

    /// [`QueryEngine::run`] under a wall-clock budget: the deadline is
    /// re-checked before *every* bitmap load, so a request that can no
    /// longer answer in time stops before paying for the next decode
    /// instead of wasting it. An expired budget surfaces as
    /// [`IbisError::DeadlineExceeded`] (`deadline` carries the overrun in
    /// seconds). `None` means no budget — identical to `run`.
    pub fn run_with_deadline(
        &self,
        request: &QueryRequest,
        deadline: Option<Instant>,
    ) -> Result<QueryAnswer> {
        let result = match request {
            QueryRequest::Subset {
                step,
                variable,
                query,
            } => self.run_subset(*step, variable, query, deadline),
            QueryRequest::Correlation {
                step,
                var_a,
                var_b,
                query_a,
                query_b,
            } => self.run_correlation(*step, var_a, var_b, query_a, query_b, deadline),
        };
        match &result {
            Ok(_) => OBS_QUERIES_OK.inc(),
            Err(_) => OBS_QUERIES_REJECTED.inc(),
        }
        result
    }

    /// Counts a subset query shard by shard. On each visited shard: clip
    /// the region's `ranges` to the shard's rows, fetch the exact index
    /// under the deadline, check it holds the rows the layout says, and
    /// count.
    fn run_subset(
        &self,
        step: usize,
        variable: &str,
        query: &SubsetQuery,
        deadline: Option<Instant>,
    ) -> Result<QueryAnswer> {
        let layout = self.layout(step, variable, deadline)?;
        let ranges = self.ranges_of(step, &[query], layout.global_len())?;
        let ranges = ranges.as_deref();
        let wanted = self.wanted(&layout.cuts, ranges);
        let counts = self.fanout(&wanted, |i| {
            let rows = layout.rows(i);
            let nrows = rows.end - rows.start;
            let local = ranges.map(|r| shard_ranges(r, rows));
            let ml = self.exact(&layout, i, variable, step, deadline)?;
            if ml.low().len() != nrows {
                return Err(IbisError::Query(QueryError::LengthMismatch {
                    len_a: ml.low().len(),
                    len_b: nrows,
                }));
            }
            let count = query.count(ml.low(), local.as_deref());
            // the binner, not the index: the gather pins nothing the cache may evict
            let binner = ml.low().binner().clone();
            Ok((count.map_err(IbisError::Query)?, binner))
        });
        let (mut selected, mut first) = (0, None);
        for counted in counts {
            let (count, binner) = counted?;
            same_binning(first.get_or_insert_with(|| binner.clone()), &binner)?;
            selected += count;
        }
        Ok(QueryAnswer::Subset {
            selected,
            of: layout.global_len(),
        })
    }

    fn run_correlation(
        &self,
        step: usize,
        var_a: &str,
        var_b: &str,
        query_a: &SubsetQuery,
        query_b: &SubsetQuery,
        deadline: Option<Instant>,
    ) -> Result<QueryAnswer> {
        // A variable correlated with itself is one layout and one read per
        // shard: two could be two decodes of one blob under an evicting
        // cache, and one allocation lets the joint kernel label once.
        let layout_a = self.layout(step, var_a, deadline)?;
        let layout_b = (var_a != var_b)
            .then(|| self.layout(step, var_b, deadline))
            .transpose()?;
        let global_len = layout_a.global_len();
        if let Some(len_b) = layout_b.as_ref().map(Layout::global_len) {
            if global_len != len_b {
                return Err(IbisError::Query(QueryError::LengthMismatch {
                    len_a: global_len,
                    len_b,
                }));
            }
        }
        // Both operands of one step share the step's permutation (orders
        // are per step, not per variable), so their selections stay
        // row-aligned under the AND — and the joint selection is empty
        // outside the rows *both* regions (when present) keep.
        let ranges = self.ranges_of(step, &[query_a, query_b], global_len)?;
        let ranges = ranges.as_deref();
        let wanted = self.wanted(&layout_a.cuts, ranges);
        let partials = self.fanout(&wanted, |i| {
            let a = self.exact(&layout_a, i, var_a, step, deadline)?;
            let b = match &layout_b {
                Some(layout_b) => self.exact(layout_b, i, var_b, step, deadline)?,
                None => Arc::clone(&a),
            };
            let rows = layout_a.rows(i);
            correlation_partial_shard(a.low(), b.low(), query_a, query_b, rows, ranges)
                .map(|p| (p, a.low().binner().clone(), b.low().binner().clone()))
                .map_err(IbisError::Query)
        });
        // Gather: merge integer partials in ascending shard order, then
        // run the pure finishers once — the same answer for every K
        // (module docs).
        let mut parts = partials.into_iter();
        let Some(first) = parts.next() else {
            return Err(IbisError::Config("store has no shards".into()));
        };
        let (mut total, a, b) = first?;
        for part in parts {
            let (part, shard_a, shard_b) = part?;
            same_binning(&a, &shard_a)?;
            same_binning(&b, &shard_b)?;
            total.merge(&part).map_err(IbisError::Query)?;
        }
        Ok(QueryAnswer::Correlation(finish_correlation(&a, &b, &total)))
    }

    /// Answers every query of a batch, in order. Failures are per-request;
    /// the batch always completes.
    pub fn run_batch(&self, requests: &[QueryRequest]) -> Vec<Result<QueryAnswer>> {
        requests.iter().map(|r| self.run(r)).collect()
    }

    /// Parses a JSON batch document, runs it, and renders the answers as
    /// JSON. Only a document malformed at the top level errors; per-query
    /// problems are reported inline in the answers array.
    pub fn run_batch_json(&self, text: &str) -> Result<String> {
        let requests = parse_batch(text)?;
        let answers = self.run_batch(&requests);
        Ok(render_answers(&answers))
    }

    /// One background-maintenance pass: compact durable debris in the run
    /// directory (and any `shard-NNN/` directory of an older layout),
    /// evict cached steps that left the hot set, squeeze residency to an
    /// idle target — each tier opt-in via [`MaintenanceConfig`], at any
    /// shard count.
    pub fn maintenance_once(&self, cfg: &MaintenanceConfig) -> Result<MaintenanceReport> {
        OBS_MAINT_RUNS.inc();
        let mut report = MaintenanceReport::default();
        if cfg.compact {
            let mut debris = CompactReport::default();
            compact(&self.dir, &mut debris)?;
            report.debris_files = debris.files_removed;
            report.debris_bytes = debris.bytes_reclaimed;
        }
        if let Some(hot) = &cfg.hot_steps {
            for c in &self.caches {
                report.evicted_bytes += c.evict_retain(|step| hot.contains(&step));
            }
        }
        if let Some(total) = cfg.cache_target_bytes {
            let per_shard = total / self.caches.len() as u64;
            for c in &self.caches {
                report.evicted_bytes += c.evict_to(per_shard);
            }
        }
        OBS_MAINT_EVICTED.add(report.evicted_bytes);
        Ok(report)
    }
}

/// Per-shard counts add only when both shards name the same bins — equal
/// bin counts *and* edges. Each blob is CRC-valid on its own, so nothing
/// before the gather has compared them.
fn same_binning(x: &Binner, y: &Binner) -> Result<()> {
    let differ = QueryError::BinningMismatch(x.nbins(), y.nbins());
    (x == y).then_some(()).ok_or(IbisError::Query(differ))
}

/// Fails fast when a request's wall-clock budget has expired; `site`
/// names the load about to be skipped.
fn deadline_check(deadline: Option<Instant>, site: &str) -> Result<()> {
    let Some(d) = deadline else { return Ok(()) };
    let now = Instant::now();
    if now >= d {
        return Err(IbisError::DeadlineExceeded {
            site: site.to_string(),
            deadline: (now - d).as_secs_f64(),
        });
    }
    Ok(())
}

fn bad(index: Option<usize>, reason: impl Into<String>) -> IbisError {
    IbisError::BadRequest {
        index,
        reason: reason.into(),
    }
}

/// Parses the `{"queries": [...]}` batch document into typed requests.
pub fn parse_batch(text: &str) -> Result<Vec<QueryRequest>> {
    let doc = json::parse(text).map_err(|e| bad(None, e.to_string()))?;
    parse_batch_doc(&doc)
}

/// Parses the `queries` array of an already-parsed batch document — the
/// serving front end parses each socket frame once (to pick up
/// frame-level fields like `deadline_ms`) and hands the document here.
pub(crate) fn parse_batch_doc(doc: &Json) -> Result<Vec<QueryRequest>> {
    let queries = doc
        .get("queries")
        .ok_or_else(|| bad(None, "missing \"queries\" field"))?
        .as_arr()
        .ok_or_else(|| bad(None, "\"queries\" must be an array"))?;
    queries
        .iter()
        .enumerate()
        .map(|(i, q)| parse_request(q).map_err(|reason| bad(Some(i), reason)))
        .collect()
}

fn parse_request(q: &Json) -> std::result::Result<QueryRequest, String> {
    let kind = q
        .get("kind")
        .and_then(Json::as_str)
        .ok_or("missing \"kind\"")?;
    let step = parse_step(q)?;
    match kind {
        "subset" => Ok(QueryRequest::Subset {
            step,
            variable: required_str(q, "variable")?,
            query: parse_subset(q, "value_range")?,
        }),
        "correlation" => Ok(QueryRequest::Correlation {
            step,
            var_a: required_str(q, "var_a")?,
            var_b: required_str(q, "var_b")?,
            query_a: parse_subset(q, "value_a")?,
            query_b: parse_subset(q, "value_b")?,
        }),
        other => Err(format!("unknown kind {other:?}")),
    }
}

fn parse_step(q: &Json) -> std::result::Result<usize, String> {
    let n = match q.get("step") {
        None => return Ok(0),
        Some(v) => v.as_num().ok_or("\"step\" must be a number")?,
    };
    if n < 0.0 || n.fract() != 0.0 || n > usize::MAX as f64 {
        return Err(format!("\"step\" must be a non-negative integer, got {n}"));
    }
    Ok(n as usize)
}

fn required_str(q: &Json, key: &str) -> std::result::Result<String, String> {
    q.get(key)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("missing string field {key:?}"))
}

/// Builds the [`SubsetQuery`] from a request's optional `value_key` pair
/// and shared `region` pair.
fn parse_subset(q: &Json, value_key: &str) -> std::result::Result<SubsetQuery, String> {
    let mut out = SubsetQuery::all();
    if let Some(v) = q.get(value_key) {
        let (lo, hi) = num_pair(v, value_key)?;
        out = out.with_value(lo, hi);
    }
    if let Some(v) = q.get("region") {
        let (lo, hi) = num_pair(v, "region")?;
        if lo < 0.0 || hi < 0.0 || lo.fract() != 0.0 || hi.fract() != 0.0 {
            return Err(format!(
                "\"region\" bounds must be non-negative integers, got [{lo}, {hi}]"
            ));
        }
        out = out.with_region(lo as u64..hi as u64);
    }
    Ok(out)
}

fn num_pair(v: &Json, key: &str) -> std::result::Result<(f64, f64), String> {
    match v.as_arr() {
        Some([a, b]) => match (a.as_num(), b.as_num()) {
            (Some(a), Some(b)) => Ok((a, b)),
            _ => Err(format!("{key:?} entries must be numbers")),
        },
        _ => Err(format!("{key:?} must be a two-element array")),
    }
}

/// Renders one successful answer as its `{"ok": {...}}` JSON object —
/// shared between the batch renderer and the serving front end.
pub(crate) fn render_ok(answer: &QueryAnswer) -> String {
    match answer {
        QueryAnswer::Subset { selected, of } => {
            format!("{{\"ok\": {{\"kind\": \"subset\", \"selected\": {selected}, \"of\": {of}}}}}")
        }
        QueryAnswer::Correlation(ans) => {
            let pearson = ans
                .pearson
                .map(json::num)
                .unwrap_or_else(|| "null".to_string());
            let mean = |m: &Option<ibis_analysis::Estimate>| match m {
                Some(e) => format!(
                    "{{\"value\": {}, \"bound\": {}}}",
                    json::num(e.value),
                    json::num(e.bound)
                ),
                None => "null".to_string(),
            };
            format!(
                "{{\"ok\": {{\"kind\": \"correlation\", \"selected\": {}, \
                 \"mutual_information\": {}, \"conditional_entropy\": {}, \
                 \"pearson\": {}, \"mean_a\": {}, \"mean_b\": {}}}}}",
                ans.selected,
                json::num(ans.mutual_information),
                json::num(ans.conditional_entropy),
                pearson,
                mean(&ans.mean_a),
                mean(&ans.mean_b),
            )
        }
    }
}

/// Renders a batch's answers as the `{"answers": [...]}` document.
pub fn render_answers(answers: &[Result<QueryAnswer>]) -> String {
    let mut out = String::from("{\"answers\": [");
    for (i, a) in answers.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        match a {
            Ok(answer) => out.push_str(&render_ok(answer)),
            Err(e) => {
                out.push_str(&format!(
                    "{{\"error\": \"{}\"}}",
                    json::escape(&e.to_string())
                ));
            }
        }
    }
    out.push_str("]}");
    out
}

/// Convenience for tests and the CLI: a region request as a typed range.
pub fn region_request(step: usize, variable: &str, range: Range<u64>) -> QueryRequest {
    QueryRequest::Subset {
        step,
        variable: variable.to_string(),
        query: SubsetQuery::region(range),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::{Store, StoreWriter};
    use ibis_core::{Binner, BitmapIndex};
    use ibis_testkit::TempDir;

    fn test_store(name: &str) -> (TempDir, Store) {
        let dir = TempDir::new(&format!("engine-{name}"));
        let mut w = StoreWriter::create(&dir).unwrap();
        for step in [0usize, 2] {
            let temp: Vec<f64> = (0..3000)
                .map(|i| ((i * 7 + step * 11) % 300) as f64 / 10.0)
                .collect();
            let salt: Vec<f64> = temp.iter().map(|t| 30.0 + t / 10.0).collect();
            w.put(
                step,
                "temperature",
                &BitmapIndex::build(&temp, Binner::fixed_width(0.0, 30.0, 64)),
            )
            .unwrap();
            w.put(
                step,
                "salinity",
                &BitmapIndex::build(&salt, Binner::fixed_width(29.0, 34.0, 64)),
            )
            .unwrap();
        }
        w.finish().unwrap();
        let store = Store::open(&dir).unwrap();
        (dir, store)
    }

    fn engine(store: Store) -> QueryEngine {
        QueryEngine::new(CachedStore::new(store, 64 << 20))
    }

    #[test]
    fn subset_and_correlation_round_trip() {
        let (_dir, store) = test_store("roundtrip");
        let e = engine(store);
        let ans = e
            .run(&QueryRequest::Subset {
                step: 0,
                variable: "temperature".into(),
                query: SubsetQuery::value(0.0, 15.0),
            })
            .unwrap();
        let QueryAnswer::Subset { selected, of } = ans else {
            panic!("wrong answer kind");
        };
        assert_eq!(of, 3000);
        assert!(selected > 0 && selected < of);

        let ans = e
            .run(&QueryRequest::Correlation {
                step: 0,
                var_a: "temperature".into(),
                var_b: "salinity".into(),
                query_a: SubsetQuery::all(),
                query_b: SubsetQuery::all(),
            })
            .unwrap();
        let QueryAnswer::Correlation(c) = ans else {
            panic!("wrong answer kind");
        };
        assert_eq!(c.selected, 3000);
        assert!(c.pearson.unwrap() > 0.9, "salinity tracks temperature");
    }

    #[test]
    fn repeated_queries_hit_the_cache() {
        let (_dir, store) = test_store("warm");
        let e = engine(store);
        let req = QueryRequest::Correlation {
            step: 0,
            var_a: "temperature".into(),
            var_b: "salinity".into(),
            query_a: SubsetQuery::value(0.0, 20.0),
            query_b: SubsetQuery::all(),
        };
        let first = e.run(&req).unwrap();
        for _ in 0..5 {
            assert_eq!(e.run(&req).unwrap(), first);
        }
        let st = e.cache_stats();
        assert_eq!(st.misses, 2, "one decode per variable");
        assert_eq!(st.hits, 10, "every repeat served warm");
    }

    #[test]
    fn json_batch_end_to_end() {
        let (_dir, store) = test_store("batch");
        let e = engine(store);
        let out = e
            .run_batch_json(
                r#"{"queries": [
                    {"kind": "subset", "step": 0, "variable": "temperature",
                     "value_range": [0.0, 15.0], "region": [0, 1500]},
                    {"kind": "correlation", "step": 2,
                     "var_a": "temperature", "var_b": "salinity"},
                    {"kind": "subset", "step": 0, "variable": "no_such_var"}
                ]}"#,
            )
            .unwrap();
        // answers parse back, in request order, errors inline
        let doc = json::parse(&out).unwrap();
        let answers = doc.get("answers").unwrap().as_arr().unwrap();
        assert_eq!(answers.len(), 3);
        assert!(answers[0].get("ok").is_some());
        let corr = answers[1].get("ok").unwrap();
        assert_eq!(corr.get("kind").unwrap().as_str(), Some("correlation"));
        assert_eq!(corr.get("selected").unwrap().as_num(), Some(3000.0));
        let err = answers[2].get("error").unwrap().as_str().unwrap();
        assert!(err.contains("no_such_var"), "{err}");
    }

    #[test]
    fn malformed_batches_are_typed_errors() {
        let (_dir, store) = test_store("badbatch");
        let e = engine(store);
        for bad in [
            "not json at all",
            "{}",
            r#"{"queries": 3}"#,
            r#"{"queries": [{"kind": "nope"}]}"#,
            r#"{"queries": [{"kind": "subset"}]}"#,
            r#"{"queries": [{"kind": "subset", "variable": "temperature", "step": -1}]}"#,
            r#"{"queries": [{"kind": "subset", "variable": "temperature", "step": 1.5}]}"#,
            r#"{"queries": [{"kind": "subset", "variable": "temperature", "region": [5]}]}"#,
            r#"{"queries": [{"kind": "subset", "variable": "temperature", "region": [-1, 5]}]}"#,
            r#"{"queries": [{"kind": "subset", "variable": "temperature", "value_range": ["a", 5]}]}"#,
            r#"{"queries": [{"kind": "correlation", "var_a": "temperature"}]}"#,
        ] {
            let err = e.run_batch_json(bad).unwrap_err();
            assert!(
                matches!(err, IbisError::BadRequest { .. }),
                "{bad:?} → {err}"
            );
        }
    }

    #[test]
    fn expired_deadline_stops_before_the_next_load() {
        let (_dir, store) = test_store("deadline");
        let e = engine(store);
        let past = Instant::now() - std::time::Duration::from_millis(5);
        let err = e
            .run_with_deadline(&region_request(0, "temperature", 0..10), Some(past))
            .unwrap_err();
        assert!(matches!(err, IbisError::DeadlineExceeded { .. }), "{err}");
        // nothing was decoded: the check fires before the load
        assert_eq!(e.cache_stats().misses, 0);
        // a generous deadline answers normally
        let far = Instant::now() + std::time::Duration::from_secs(60);
        e.run_with_deadline(&region_request(0, "temperature", 0..10), Some(far))
            .unwrap();
    }

    #[test]
    fn query_errors_flow_through_ibis_error() {
        let (_dir, store) = test_store("flow");
        let e = engine(store);
        // out-of-range region against a live store: Err, not panic (the
        // regression the panic-free rewrite exists for)
        let err = e
            .run(&region_request(0, "temperature", 0..1_000_000))
            .unwrap_err();
        assert!(
            matches!(
                err,
                IbisError::Query(ibis_analysis::QueryError::RegionOutOfRange { len: 3000, .. })
            ),
            "{err}"
        );
        // NaN bound through the typed API
        let err = e
            .run(&QueryRequest::Subset {
                step: 0,
                variable: "temperature".into(),
                query: SubsetQuery::value(f64::NAN, 1.0),
            })
            .unwrap_err();
        assert!(matches!(
            err,
            IbisError::Query(ibis_analysis::QueryError::NanBound { .. })
        ));
        // unknown step/variable
        let err = e.run(&region_request(99, "temperature", 0..1)).unwrap_err();
        assert!(matches!(err, IbisError::NotFound { step: 99, .. }));
    }
}
