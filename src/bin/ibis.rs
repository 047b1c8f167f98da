//! `ibis` — command-line front end for the in-situ bitmap pipeline.
//!
//! ```text
//! ibis insitu --sim heat3d --steps 40 --select 10 --cores 16 [--machine xeon|mic]
//!             [--method bitmaps|full|sample:<pct>] [--allocation shared|auto|<sim>:<bm>]
//!             [--out DIR]
//! ibis mine   [--grid LONxLATxDEPTH] [--bins N] [--t1 X] [--t2 Y] [--unit N] [--top N]
//! ibis query  --var-a NAME --var-b NAME [--value-a LO:HI] [--value-b LO:HI]
//!             [--region LO:HI] [--grid LONxLATxDEPTH]
//! ibis query  --store DIR --batch FILE [--cache-mb N] [--json-out PATH]
//! ```
//!
//! `insitu --out DIR` persists the selected steps' bitmap indices as
//! `.ibis` files that `ibis::insitu::codec::decode_index` (and the
//! `offline_postanalysis` example) can reload.

use ibis::analysis::{
    correlation_query, correlation_query_mapped, mine_index, Metric, MiningConfig, SubsetQuery,
};
use ibis::core::{Binner, BitmapIndex, RowOrder, ZOrderLayout};
use ibis::datagen::{
    Heat3D, Heat3DConfig, LuleshConfig, MiniLulesh, OceanConfig, OceanModel, Simulation,
};
use ibis::insitu::pipeline::step_permutation;
use ibis::insitu::shard::MAX_SHARDS;
use ibis::insitu::{
    auto_allocate, run_pipeline, suggest_row_order, CoreAllocation, LocalDisk, MachineModel,
    MaintenanceConfig, PipelineConfig, QueryEngine, QueryServer, Reduction, RobustnessConfig,
    ScalingModel, ServeConfig, ShardedStore, ShardedWriter, SocketServer,
};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let flags = match parse_flags(cmd, rest) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let result = match cmd.as_str() {
        "insitu" => cmd_insitu(&flags),
        "mine" => cmd_mine(&flags),
        "query" => cmd_query(&flags),
        "serve" => cmd_serve(&flags),
        "loadgen" => cmd_loadgen(&flags),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command {other:?}")),
    };
    let result = result.and_then(|()| write_obs_snapshot(&flags));
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            ExitCode::FAILURE
        }
    }
}

/// `--obs-json PATH`: dump the run's metrics snapshot as JSON. With the
/// `obs` feature off the snapshot is empty — the flag still works, the
/// report just contains no metric families.
fn write_obs_snapshot(flags: &Flags) -> Result<(), String> {
    let Some(path) = flags.get("obs-json") else {
        return Ok(());
    };
    let json = ibis::obs::global().snapshot().to_json(2);
    std::fs::write(path, json.as_bytes()).map_err(|e| format!("--obs-json: {e}"))?;
    eprintln!("wrote metrics snapshot to {path}");
    Ok(())
}

const USAGE: &str = "\
ibis — in-situ bitmap generation and bitmap-only analysis

USAGE:
  ibis insitu [--sim heat3d|lulesh] [--steps N] [--select K] [--cores C]
              [--machine xeon|mic] [--method bitmaps|full|sample:<pct>]
              [--allocation shared|auto|<simcores>:<bmcores>] [--out DIR]
              [--shards K] [--row-order identity|graybin|auto]
  ibis mine   [--grid LONxLATxDEPTH] [--bins N] [--t1 X] [--t2 Y]
              [--unit N] [--top N]
  ibis query  --var-a NAME --var-b NAME [--value-a LO:HI] [--value-b LO:HI]
              [--region LO:HI] [--grid LONxLATxDEPTH]
              [--row-order identity|graybin]
  ibis query  --store DIR --batch FILE [--cache-mb N] [--json-out PATH]
  ibis serve  --store DIR [--addr HOST:PORT] [--workers N] [--queue N]
              [--cache-mb N] [--deadline-ms N] [--max-conns N] [--conns N]
              [--shards K] [--maintain-ms N]
  ibis loadgen --addr HOST:PORT --store DIR [--requests N] [--clients N]
              [--deadline-ms N] [--seed N]
  ibis help

`--out DIR --shards K` persists each selected step as K spatial shards
(each its own durable store; K = 1, the default, is the flat store);
`query --store` and `serve --store` read the shard count from the
directory and run the same scatter-gather execution for any K.
`serve --shards K` asserts the expected shard count; `--maintain-ms N`
runs background compaction/eviction maintenance every N ms.

Any command also accepts --obs-json PATH to dump the run's metrics
snapshot (empty when built with --no-default-features); any other flag
a command does not read is an error.";

type Flags = HashMap<String, String>;

/// The flags verb `cmd` reads besides `--obs-json`, space-separated, or
/// `None` for a name that is no verb (the dispatch reports it).
fn verb_flags(cmd: &str) -> Option<&'static str> {
    Some(match cmd {
        "insitu" => "sim steps select cores machine method allocation out shards row-order",
        "mine" => "grid bins t1 t2 unit top",
        "query" => {
            "var-a var-b value-a value-b region grid row-order store batch cache-mb json-out"
        }
        "serve" => {
            "store addr workers queue cache-mb deadline-ms max-conns conns shards maintain-ms"
        }
        "loadgen" => "addr store requests clients deadline-ms seed",
        "help" | "--help" | "-h" => "",
        _ => return None,
    })
}

fn parse_flags(cmd: &str, args: &[String]) -> Result<Flags, String> {
    let mut flags = Flags::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let Some(name) = a.strip_prefix("--") else {
            return Err(format!("expected a --flag, got {a:?}"));
        };
        let known = verb_flags(cmd).is_none_or(|verb| verb.split(' ').any(|f| f == name));
        if !known && name != "obs-json" {
            return Err(format!("unknown flag --{name}"));
        }
        let value = it
            .next()
            .ok_or_else(|| format!("--{name} needs a value"))?
            .clone();
        flags.insert(name.to_string(), value);
    }
    Ok(flags)
}

fn get_usize(flags: &Flags, name: &str, default: usize) -> Result<usize, String> {
    match flags.get(name) {
        None => Ok(default),
        Some(v) => v.parse().map_err(|_| format!("--{name}: bad number {v:?}")),
    }
}

fn get_f64(flags: &Flags, name: &str, default: f64) -> Result<f64, String> {
    match flags.get(name) {
        None => Ok(default),
        Some(v) => v.parse().map_err(|_| format!("--{name}: bad number {v:?}")),
    }
}

fn get_range(flags: &Flags, name: &str) -> Result<Option<(f64, f64)>, String> {
    let Some(v) = flags.get(name) else {
        return Ok(None);
    };
    let (lo, hi) = v
        .split_once(':')
        .ok_or_else(|| format!("--{name}: expected LO:HI, got {v:?}"))?;
    let lo: f64 = lo
        .parse()
        .map_err(|_| format!("--{name}: bad number {lo:?}"))?;
    let hi: f64 = hi
        .parse()
        .map_err(|_| format!("--{name}: bad number {hi:?}"))?;
    if hi <= lo {
        return Err(format!("--{name}: empty range {v:?}"));
    }
    Ok(Some((lo, hi)))
}

/// `--name LO:HI` as a half-open range of row ids: whole non-negative
/// numbers, so a NaN, negative or fractional bound is a usage error.
fn get_rows(flags: &Flags, name: &str) -> Result<Option<(u64, u64)>, String> {
    let Some(v) = flags.get(name) else {
        return Ok(None);
    };
    let row = |s: &str| {
        s.parse::<u64>()
            .map_err(|_| format!("--{name}: expected row ids LO:HI, got {v:?}"))
    };
    let (lo, hi) = v
        .split_once(':')
        .ok_or_else(|| format!("--{name}: expected LO:HI, got {v:?}"))?;
    let (lo, hi) = (row(lo)?, row(hi)?);
    if hi <= lo {
        return Err(format!("--{name}: empty range {v:?}"));
    }
    Ok(Some((lo, hi)))
}

/// `--row-order NAME`: the compression-aware row ordering applied before
/// bitmap generation. `auto` is only meaningful where a probe simulation
/// exists (`ibis insitu`); callers that can't probe pass `allow_auto =
/// false` and `auto` becomes a usage error.
fn get_row_order(flags: &Flags, allow_auto: bool) -> Result<Option<RowOrder>, String> {
    match flags.get("row-order").map(String::as_str) {
        None => Ok(Some(RowOrder::Identity)),
        Some("auto") if allow_auto => Ok(None),
        Some(name) => RowOrder::parse(name).map(Some).ok_or_else(|| {
            let auto = if allow_auto { "|auto" } else { "" };
            format!("--row-order: unknown order {name:?} (identity|graybin{auto})")
        }),
    }
}

fn get_grid(
    flags: &Flags,
    default: (usize, usize, usize),
) -> Result<(usize, usize, usize), String> {
    let Some(v) = flags.get("grid") else {
        return Ok(default);
    };
    let parts: Vec<&str> = v.split('x').collect();
    if parts.len() != 3 {
        return Err(format!("--grid: expected LONxLATxDEPTH, got {v:?}"));
    }
    let dims: Result<Vec<usize>, _> = parts.iter().map(|p| p.parse()).collect();
    let dims = dims.map_err(|_| format!("--grid: bad dimensions {v:?}"))?;
    if dims.contains(&0) {
        return Err(format!(
            "--grid: every dimension must be positive, got {v:?}"
        ));
    }
    Ok((dims[0], dims[1], dims[2]))
}

/// `--allocation shared|auto|S:B` checked against the core budget; `None`
/// is `auto`, which needs the simulation to calibrate on.
fn get_allocation(flags: &Flags, cores: usize) -> Result<Option<CoreAllocation>, String> {
    let split = match flags.get("allocation").map(String::as_str) {
        None | Some("shared") => return Ok(Some(CoreAllocation::Shared)),
        Some("auto") if cores < 2 => return Err("--allocation auto needs at least 2 cores".into()),
        Some("auto") => return Ok(None),
        Some(split) => split,
    };
    let (s, b) = split
        .split_once(':')
        .ok_or_else(|| format!("--allocation: expected shared|auto|S:B, got {split:?}"))?;
    let count = |n: &str| match n.parse::<usize>() {
        Ok(n) if n > 0 => Ok(n),
        _ => Err(format!(
            "--allocation: bad core count {n:?} (need 1 or more)"
        )),
    };
    let (sim_cores, bitmap_cores) = (count(s)?, count(b)?);
    if sim_cores + bitmap_cores > cores {
        return Err(format!(
            "--allocation: {sim_cores}+{bitmap_cores} cores exceed --cores {cores}"
        ));
    }
    Ok(Some(CoreAllocation::Separate {
        sim_cores,
        bitmap_cores,
    }))
}

fn cmd_insitu(flags: &Flags) -> Result<(), String> {
    let sim_name = flags.get("sim").map(String::as_str).unwrap_or("heat3d");
    let steps = get_usize(flags, "steps", 40)?;
    if steps == 0 {
        return Err("--steps: need at least one step".into());
    }
    let select_k = get_usize(flags, "select", (steps / 4).max(1))?;
    if !(1..=steps).contains(&select_k) {
        return Err(format!(
            "--select: cannot select {select_k} of {steps} steps"
        ));
    }
    let shards = get_usize(flags, "shards", 1)?;
    if !(1..=MAX_SHARDS).contains(&shards) {
        return Err(format!("--shards: {shards} outside 1..={MAX_SHARDS}"));
    }
    let machine = match flags.get("machine").map(String::as_str).unwrap_or("xeon") {
        "xeon" => MachineModel::xeon32(),
        "mic" => MachineModel::mic60(),
        other => return Err(format!("--machine: unknown platform {other:?}")),
    };
    let cores = get_usize(flags, "cores", machine.total_cores.min(16))?;
    if cores == 0 || cores > machine.total_cores {
        return Err(format!("--cores must be 1..={}", machine.total_cores));
    }
    let allocation = get_allocation(flags, cores)?;

    let reduction = match flags.get("method").map(String::as_str).unwrap_or("bitmaps") {
        "bitmaps" => Reduction::Bitmaps,
        "full" => Reduction::FullData,
        m if m.starts_with("sample:") => {
            let pct: f64 = m["sample:".len()..]
                .parse()
                .map_err(|_| format!("--method: bad sample level {m:?}"))?;
            if !(0.0..=100.0).contains(&pct) || pct == 0.0 {
                return Err("--method sample:<pct> needs 0 < pct <= 100".into());
            }
            Reduction::Sampling {
                percent: pct,
                method: ibis::analysis::SamplingMethod::Stride,
            }
        }
        other => return Err(format!("--method: unknown method {other:?}")),
    };
    if flags.contains_key("out") && !matches!(reduction, Reduction::Bitmaps) {
        return Err("--out requires --method bitmaps".into());
    }

    // Build the simulation + per-field binners + scaling profile.
    let (mut sim, binners, metric, scaling): (
        Box<dyn Simulation>,
        Vec<Binner>,
        Metric,
        ScalingModel,
    ) = match sim_name {
        "heat3d" => (
            Box::new(Heat3D::new(Heat3DConfig::default())),
            vec![Binner::precision(-1.0, 101.0, 0)],
            Metric::ConditionalEntropy,
            ScalingModel::heat3d(),
        ),
        "lulesh" => {
            let cfg = LuleshConfig::default();
            let mut probe = MiniLulesh::new(cfg.clone());
            let probe_steps = probe.run(3);
            let binners = (0..probe_steps[0].fields.len())
                .map(|f| {
                    let all: Vec<f64> = probe_steps
                        .iter()
                        .flat_map(|s| s.fields[f].data.iter().copied())
                        .collect();
                    Binner::fit(&all, 48)
                })
                .collect();
            (
                Box::new(MiniLulesh::new(cfg)),
                binners,
                Metric::EmdSpatial,
                ScalingModel::lulesh(),
            )
        }
        other => return Err(format!("--sim: unknown simulation {other:?}")),
    };

    let allocation =
        allocation.unwrap_or_else(|| auto_allocate(&mut sim, &binners, &machine, cores, 2));

    let row_order = match get_row_order(flags, true)? {
        Some(order) => order,
        None => {
            // `auto`: probe one step of a fresh simulation and keep the
            // order under which the store comes out smaller.
            let mut probe: Box<dyn Simulation> = match sim_name {
                "heat3d" => Box::new(Heat3D::new(Heat3DConfig::default())),
                _ => Box::new(MiniLulesh::new(LuleshConfig::default())),
            };
            let out = probe.step();
            let order = suggest_row_order(&out, &binners);
            println!("row order (auto): {}", order.name());
            order
        }
    };

    let cfg = PipelineConfig {
        machine: machine.clone(),
        cores,
        allocation,
        reduction,
        steps,
        select_k,
        metric,
        binners: binners.clone(),
        per_step_precision: None,
        row_order,
        queue_capacity: 4,
        sim_scaling: scaling,
        robustness: RobustnessConfig::default(),
    };
    let disk = LocalDisk::new(machine.disk_bw);
    println!(
        "running {sim_name}: {steps} steps, selecting {select_k}, {cores} cores on {} ({:?})",
        machine.name, cfg.allocation
    );
    let report = run_pipeline(sim, &cfg, &disk).map_err(|e| e.to_string())?;

    println!("\nselected steps: {:?}", report.selected);
    println!(
        "phases (modeled s): simulate {:.3}  reduce {:.3}  select {:.3}  output {:.3}",
        report.phases.simulate, report.phases.reduce, report.phases.select, report.phases.output
    );
    println!(
        "total (modeled) {:.3}s   wall {:.3}s   peak memory {:.2} MB   written {:.2} MB",
        report.total_modeled,
        report.wall_seconds,
        report.peak_memory_bytes as f64 / 1e6,
        report.bytes_written as f64 / 1e6
    );

    // Optionally persist the selected steps' bitmaps for post-analysis,
    // split into K spatial shards (each its own durable store; K = 1 is
    // the flat store).
    if let Some(dir) = flags.get("out") {
        let mut store = ShardedWriter::create(dir, shards).map_err(|e| format!("--out: {e}"))?;
        // re-simulate the selected steps to materialize their indices
        // (the pipeline freed them after writing the modeled bytes)
        let mut sim2: Box<dyn Simulation> = match sim_name {
            "heat3d" => Box::new(Heat3D::new(Heat3DConfig::default())),
            _ => Box::new(MiniLulesh::new(LuleshConfig::default())),
        };
        for step in 0..steps {
            let out = sim2.step();
            if !report.selected.contains(&step) {
                continue;
            }
            // the per-step permutation the pipeline applied
            let perm = step_permutation(&out, row_order, &binners[0]);
            if let Some(p) = &perm {
                // before the indices it permutes (`StoreWriter::put_order`)
                store
                    .put_order(step, row_order, p)
                    .map_err(|e| format!("--out: {e}"))?;
            }
            for (f, binner) in out.fields.iter().zip(&binners) {
                let idx = match &perm {
                    Some(p) => BitmapIndex::build_permuted(&f.data, binner.clone(), p),
                    None => BitmapIndex::build(&f.data, binner.clone()),
                };
                store
                    .put(step, f.name, &idx)
                    .map_err(|e| format!("--out: {e}"))?;
            }
        }
        let dir = store.finish().map_err(|e| format!("--out: {e}"))?;
        println!("persisted selected indices to {}", dir.display());
    }
    Ok(())
}

/// The most bins `ibis mine` takes: its one joint table (reused by the
/// spatial stage) holds `bins²` `u64` cells, 128 MiB at this cap.
const MAX_MINE_BINS: usize = 4096;

fn cmd_mine(flags: &Flags) -> Result<(), String> {
    let (nlon, nlat, ndepth) = get_grid(flags, (128, 96, 2))?;
    let bins = get_usize(flags, "bins", 32)?;
    if !(1..=MAX_MINE_BINS).contains(&bins) {
        return Err(format!("--bins: {bins} outside [1, {MAX_MINE_BINS}]"));
    }
    let threshold = |name: &str, default| match get_f64(flags, name, default)? {
        t if t.is_finite() => Ok(t),
        t => Err(format!("--{name}: {t} is not a finite number")),
    };
    let (t1, t2) = (threshold("t1", 0.002)?, threshold("t2", 0.08)?);
    let unit = get_usize(flags, "unit", 512)? as u64;
    if unit == 0 {
        return Err("--unit: a spatial unit holds at least one element".into());
    }
    let top = get_usize(flags, "top", 10)?;

    let cfg = OceanConfig {
        nlon,
        nlat,
        ndepth,
        ..Default::default()
    };
    let ocean = OceanModel::new(cfg);
    let z = ZOrderLayout::new(&[nlon, nlat, ndepth]);
    let t = z.reorder(&ocean.variable("temperature"));
    let s = z.reorder(&ocean.variable("salinity"));
    let bt = Binner::fit(&t, bins);
    let bs = Binner::fit(&s, bins);
    let it = BitmapIndex::build(&t, bt.clone());
    let is = BitmapIndex::build(&s, bs.clone());
    let result = mine_index(
        &it,
        &is,
        &MiningConfig {
            value_threshold: t1,
            spatial_threshold: t2,
            unit_size: unit,
        },
    );
    println!(
        "mined temperature x salinity on {nlon}x{nlat}x{ndepth}: {} pairs evaluated, {} pruned, {} subsets",
        result.pairs_evaluated, result.pairs_pruned, result.subsets.len()
    );
    println!(
        "\n{:<26} {:<26} {:>6} {:>9}",
        "temperature range", "salinity range", "unit", "MI(bits)"
    );
    for sub in result.subsets.iter().take(top) {
        let (tl, th) = bt.bin_range(sub.bin_a);
        let (sl, sh) = bs.bin_range(sub.bin_b);
        println!(
            "[{tl:8.3}, {th:8.3})       [{sl:8.3}, {sh:8.3})       {:>6} {:>9.4}",
            sub.unit, sub.spatial_mi
        );
    }
    Ok(())
}

fn cmd_query(flags: &Flags) -> Result<(), String> {
    if flags.contains_key("store") || flags.contains_key("batch") {
        return cmd_query_store(flags);
    }
    let (nlon, nlat, ndepth) = get_grid(flags, (128, 96, 2))?;
    let var_a = flags.get("var-a").ok_or("--var-a is required")?;
    let var_b = flags.get("var-b").ok_or("--var-b is required")?;
    let cfg = OceanConfig {
        nlon,
        nlat,
        ndepth,
        ..Default::default()
    };
    let ocean = OceanModel::new(cfg);
    let known = ibis::datagen::OCEAN_FIELDS;
    for v in [var_a, var_b] {
        if !known.contains(&v.as_str()) {
            return Err(format!("unknown variable {v:?}; available: {known:?}"));
        }
    }
    let a = ocean.variable(var_a);
    let b = ocean.variable(var_b);
    let ba = Binner::fit(&a, 48);
    let bb = Binner::fit(&b, 48);
    // One shared permutation keeps both variables row-aligned; answers are
    // identical to identity order (region predicates map through the
    // inverse), only the index sizes change.
    let order = get_row_order(flags, false)?.unwrap_or(RowOrder::Identity);
    let perm = order.permutation(&[], &ba, &a);
    let (ia, ib) = match &perm {
        Some(p) => (
            BitmapIndex::build_permuted(&a, ba, p),
            BitmapIndex::build_permuted(&b, bb, p),
        ),
        None => (BitmapIndex::build(&a, ba), BitmapIndex::build(&b, bb)),
    };

    let mut qa = SubsetQuery::all();
    let mut qb = SubsetQuery::all();
    if let Some((lo, hi)) = get_range(flags, "value-a")? {
        qa = qa.with_value(lo, hi);
    }
    if let Some((lo, hi)) = get_range(flags, "value-b")? {
        qb = qb.with_value(lo, hi);
    }
    if let Some((lo, hi)) = get_rows(flags, "region")? {
        let hi = hi.min(ia.len());
        if lo >= hi {
            return Err("--region: empty after clamping".into());
        }
        qa = qa.with_region(lo..hi);
        qb = qb.with_region(lo..hi);
    }
    let ans = match &perm {
        Some(p) => correlation_query_mapped(&ia, &ib, &qa, &qb, p),
        None => correlation_query(&ia, &ib, &qa, &qb),
    }
    .map_err(|e| e.to_string())?;
    println!("{var_a} x {var_b}: {} elements selected", ans.selected);
    println!("mutual information:   {:.4} bits", ans.mutual_information);
    println!("conditional entropy:  {:.4} bits", ans.conditional_entropy);
    match ans.pearson {
        Some(r) => println!("approx. Pearson r:    {r:+.4}"),
        None => println!("approx. Pearson r:    undefined (constant variable)"),
    }
    if let (Some(ma), Some(mb)) = (ans.mean_a, ans.mean_b) {
        println!(
            "means: {var_a} = {:.3} ± {:.3}   {var_b} = {:.3} ± {:.3}",
            ma.value, ma.bound, mb.value, mb.bound
        );
    }
    Ok(())
}

/// Opens run directory `dir` (any shard count) behind `--cache-mb` of
/// decoded-index cache.
fn open_engine(flags: &Flags, dir: &str) -> Result<QueryEngine, String> {
    let cache_mb = get_usize(flags, "cache-mb", 256)? as u64;
    let budget = cache_mb
        .checked_mul(1 << 20)
        .ok_or_else(|| format!("--cache-mb: {cache_mb} MiB is more bytes than a u64 holds"))?;
    QueryEngine::open(dir, budget).map_err(|e| format!("--store {dir}: {e}"))
}

/// `ibis query --store DIR --batch FILE`: run a JSON batch of
/// subset/correlation queries against a finished run directory through the
/// cached engine, emitting the JSON answers (stdout, or `--json-out PATH`).
/// A malformed batch or an unopenable store fails the command; individual
/// bad queries come back inline as `{"error": ...}` without voiding the
/// rest of the batch.
fn cmd_query_store(flags: &Flags) -> Result<(), String> {
    let dir = flags.get("store").ok_or("--store DIR is required")?;
    let batch = flags.get("batch").ok_or("--batch FILE is required")?;
    let text = std::fs::read_to_string(batch).map_err(|e| format!("--batch {batch}: {e}"))?;
    let engine = open_engine(flags, dir)?;
    let answers = engine.run_batch_json(&text).map_err(|e| e.to_string())?;
    match flags.get("json-out") {
        Some(path) => {
            std::fs::write(path, answers.as_bytes())
                .map_err(|e| format!("--json-out {path}: {e}"))?;
            eprintln!("wrote answers to {path}");
        }
        None => println!("{answers}"),
    }
    let st = engine.cache_stats();
    eprintln!(
        "cache: {} hits, {} misses, {} evictions, {:.2} MB resident",
        st.hits,
        st.misses,
        st.evictions,
        st.resident_bytes as f64 / 1e6
    );
    Ok(())
}

/// `ibis serve --store DIR`: serve the store's queries over TCP with the
/// full overload-control layer (bounded admission, deadlines, coalescing).
/// With `--conns N` the server exits once N connections have completed —
/// a deterministic stop for smoke tests; otherwise it runs until killed.
fn cmd_serve(flags: &Flags) -> Result<(), String> {
    let dir = flags.get("store").ok_or("--store DIR is required")?;
    let addr = flags
        .get("addr")
        .map(String::as_str)
        .unwrap_or("127.0.0.1:7171");
    let mut cfg = ServeConfig {
        workers: get_usize(flags, "workers", 4)?,
        queue_capacity: get_usize(flags, "queue", 64)?,
        max_connections: get_usize(flags, "max-conns", 256)?,
        ..ServeConfig::default()
    };
    let deadline_ms = get_usize(flags, "deadline-ms", 0)?;
    if deadline_ms > 0 {
        cfg.default_deadline = Some(Duration::from_millis(deadline_ms as u64));
    }
    let stop_after = get_usize(flags, "conns", 0)? as u64;
    let maintain_ms = get_usize(flags, "maintain-ms", 0)? as u64;

    let engine = open_engine(flags, dir)?;
    let want_shards = get_usize(flags, "shards", 0)?;
    if want_shards > 0 && engine.nshards() != want_shards {
        return Err(format!(
            "--shards {want_shards}: store {dir} has {} shard(s)",
            engine.nshards()
        ));
    }
    let nshards = engine.nshards();
    let server = Arc::new(QueryServer::start(engine, cfg).map_err(|e| e.to_string())?);
    let socket = SocketServer::bind(Arc::clone(&server), addr).map_err(|e| e.to_string())?;
    println!(
        "serving {dir} ({nshards} shard(s)) on {}",
        socket.local_addr()
    );

    // Background maintenance: compact durable debris and keep each
    // shard's cache under its serving budget.
    let maintenance = MaintenanceConfig {
        compact: true,
        hot_steps: None,
        cache_target_bytes: None,
    };
    let mut last_maintain = Instant::now();
    loop {
        std::thread::sleep(Duration::from_millis(50));
        if maintain_ms > 0 && last_maintain.elapsed() >= Duration::from_millis(maintain_ms) {
            last_maintain = Instant::now();
            if let Ok(rep) = server.engine().maintenance_once(&maintenance) {
                if rep.debris_files > 0 || rep.evicted_bytes > 0 {
                    eprintln!(
                        "maintenance: {} debris files ({} B), {} B evicted",
                        rep.debris_files, rep.debris_bytes, rep.evicted_bytes
                    );
                }
            }
        }
        if stop_after > 0 && socket.connections_completed() >= stop_after {
            break;
        }
    }
    let st = server.stats();
    eprintln!(
        "served: {} ok, {} failed, {} shed, {} deadline (adm {} / deq {} / exec {}), \
         {} coalesce hits, queue peak {}/{}",
        st.ok,
        st.failed,
        st.shed,
        st.deadline_admission + st.deadline_dequeue + st.deadline_execution,
        st.deadline_admission,
        st.deadline_dequeue,
        st.deadline_execution,
        st.coalesce_hits,
        st.queue_peak,
        server.config().queue_capacity
    );
    // Surface the (per-shard) cache stats in --obs-json before main
    // snapshots.
    server.engine().publish_obs();
    socket.stop();
    Ok(())
}

/// Deterministic 64-bit generator for the load mix (splitmix64).
struct Mix64(u64);

impl Mix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Builds the zipf-skewed frame catalog for a store: subset queries with
/// varying value windows per (step, variable), plus correlations where a
/// step has two variables. Rank-0 frames are the hot head of the skew.
fn loadgen_catalog(store: &ShardedStore) -> Result<Vec<String>, String> {
    let mut frames = Vec::new();
    let steps = store.steps();
    if steps.is_empty() {
        return Err("store has no steps to query".into());
    }
    for &step in &steps {
        let vars: Vec<String> = store
            .variables(step)
            .into_iter()
            .map(str::to_string)
            .collect();
        for v in &vars {
            for w in 0..4u32 {
                let lo = f64::from(w) * 8.0;
                frames.push(format!(
                    "{{\"queries\": [{{\"kind\": \"subset\", \"step\": {step}, \
                     \"variable\": \"{v}\", \"value_range\": [{lo}, {}]}}]}}",
                    lo + 12.0
                ));
            }
        }
        if vars.len() >= 2 {
            frames.push(format!(
                "{{\"queries\": [{{\"kind\": \"correlation\", \"step\": {step}, \
                 \"var_a\": \"{}\", \"var_b\": \"{}\"}}]}}",
                vars[0], vars[1]
            ));
        }
    }
    Ok(frames)
}

/// An I/O error that means the server closed the connection (after its
/// `max-conns` shed line, a read timeout or an oversized frame), as an end
/// of file does.
fn peer_closed(e: &std::io::Error) -> bool {
    use std::io::ErrorKind::{BrokenPipe, ConnectionAborted, ConnectionReset};
    matches!(e.kind(), BrokenPipe | ConnectionAborted | ConnectionReset)
}

/// `ibis loadgen --addr HOST:PORT --store DIR`: closed-loop TCP load
/// generator with a zipf-skewed query mix over the store's catalog (the
/// store is only read to enumerate steps/variables — all queries go over
/// the wire). Prints latency percentiles over the answered requests and
/// typed outcome counts; a client whose connection the server closes
/// stops, and counts its unanswered requests as `closed`.
fn cmd_loadgen(flags: &Flags) -> Result<(), String> {
    let addr = flags.get("addr").ok_or("--addr HOST:PORT is required")?;
    let dir = flags.get("store").ok_or("--store DIR is required")?;
    let requests = get_usize(flags, "requests", 400)?;
    let clients = get_usize(flags, "clients", 4)?.max(1);
    let deadline_ms = get_usize(flags, "deadline-ms", 0)?;
    let seed = get_usize(flags, "seed", 42)? as u64;

    let store = ShardedStore::open(dir).map_err(|e| format!("--store {dir}: {e}"))?;
    let mut frames = loadgen_catalog(&store)?;
    if deadline_ms > 0 {
        for f in &mut frames {
            let body = f
                .strip_suffix('}')
                .ok_or("internal: bad frame template")?
                .to_string();
            *f = format!("{body}, \"deadline_ms\": {deadline_ms}}}");
        }
    }
    // Zipf-ish skew: weight 1/(rank+1); the head frame dominates, which
    // is what exercises coalescing and the warm cache path.
    let cum: Vec<f64> = frames
        .iter()
        .enumerate()
        .scan(0.0f64, |acc, (i, _)| {
            *acc += 1.0 / (i + 1) as f64;
            Some(*acc)
        })
        .collect();
    let total = *cum.last().ok_or("empty query catalog")?;

    let counts = std::sync::Mutex::new(HashMap::<String, u64>::new());
    let latencies = std::sync::Mutex::new(Vec::<u64>::new());
    let t0 = Instant::now();
    std::thread::scope(|scope| -> Result<(), String> {
        let mut handles = Vec::new();
        for c in 0..clients {
            let share = requests / clients + usize::from(c < requests % clients);
            let frames = &frames;
            let cum = &cum;
            let counts = &counts;
            let latencies = &latencies;
            handles.push(scope.spawn(move || -> Result<(), String> {
                let stream = std::net::TcpStream::connect(addr)
                    .map_err(|e| format!("connect {addr}: {e}"))?;
                stream.set_nodelay(true).ok();
                let mut reader =
                    BufReader::new(stream.try_clone().map_err(|e| format!("clone: {e}"))?);
                let mut writer = stream;
                let mut rng = Mix64(seed ^ (c as u64).wrapping_mul(0x9E37));
                let mut line = String::new();
                for asked in 0..share {
                    let pick = rng.unit() * total;
                    let idx = cum.partition_point(|&x| x < pick).min(frames.len() - 1);
                    let sent = Instant::now();
                    line.clear();
                    let reply = writeln!(writer, "{}", frames[idx])
                        .map_err(|e| ("send", e))
                        .and_then(|()| reader.read_line(&mut line).map_err(|e| ("recv", e)));
                    let ns = sent.elapsed().as_nanos() as u64;
                    let kind = match reply {
                        Ok(0) => "closed",
                        Err((_, e)) if peer_closed(&e) => "closed",
                        Err((what, e)) => return Err(format!("{what}: {e}")),
                        Ok(_) if line.contains("\"ok\"") => "ok",
                        Ok(_) if line.contains("\"kind\": \"shed\"") => "shed",
                        Ok(_) if line.contains("\"kind\": \"deadline\"") => "deadline",
                        Ok(_) => "error",
                    };
                    let mut tally = counts
                        .lock()
                        .map_err(|_| "count lock poisoned".to_string())?;
                    if kind == "closed" {
                        // the server hung up: this request and the rest of
                        // the share go unanswered, and nothing more is sent
                        *tally.entry(kind.to_string()).or_insert(0) += (share - asked) as u64;
                        break;
                    }
                    *tally.entry(kind.to_string()).or_insert(0) += 1;
                    latencies
                        .lock()
                        .map_err(|_| "latency lock poisoned".to_string())?
                        .push(ns);
                }
                Ok(())
            }));
        }
        for h in handles {
            h.join()
                .map_err(|_| "client thread panicked".to_string())??;
        }
        Ok(())
    })?;
    let wall = t0.elapsed().as_secs_f64();

    let mut lat = latencies
        .into_inner()
        .map_err(|_| "latency lock poisoned".to_string())?;
    lat.sort_unstable();
    let pct = |p: f64| -> f64 {
        if lat.is_empty() {
            return 0.0;
        }
        let i = ((lat.len() as f64 - 1.0) * p).round() as usize;
        lat[i] as f64 / 1e6
    };
    let counts = counts
        .into_inner()
        .map_err(|_| "count lock poisoned".to_string())?;
    println!(
        "{} requests answered over {clients} clients in {wall:.2}s ({:.0} req/s)",
        lat.len(),
        lat.len() as f64 / wall.max(1e-9)
    );
    println!(
        "latency ms: p50 {:.3}  p99 {:.3}  p999 {:.3}",
        pct(0.50),
        pct(0.99),
        pct(0.999)
    );
    let mut kinds: Vec<_> = counts.iter().collect();
    kinds.sort();
    for (kind, n) in kinds {
        println!("  {kind}: {n}");
    }
    Ok(())
}
