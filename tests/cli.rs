//! End-to-end tests of the `ibis` command-line interface.

use ibis_testkit::TempDir;
use std::process::Command;

fn ibis() -> Command {
    Command::new(env!("CARGO_BIN_EXE_ibis"))
}

#[test]
fn help_prints_usage() {
    let out = ibis().arg("help").output().expect("spawn");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("ibis insitu"));
    assert!(text.contains("ibis mine"));
    assert!(text.contains("ibis query"));
}

#[test]
fn unknown_command_fails_with_usage() {
    let out = ibis().arg("frobnicate").output().expect("spawn");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown command"));
    assert!(err.contains("USAGE"));
}

#[test]
fn bad_flag_value_fails_cleanly() {
    let out = ibis()
        .args(["insitu", "--steps", "banana"])
        .output()
        .expect("spawn");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--steps"));
    // the retired row orders are unknown names, and say what is left
    for retired in ["zorder", "hilbert", "histsorted"] {
        let out = ibis()
            .args(["insitu", "--row-order", retired])
            .output()
            .expect("spawn");
        assert!(!out.status.success(), "{retired}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("(identity|graybin|auto)"), "{retired}: {err}");
    }
}

#[test]
fn query_subcommand_reports_relationship() {
    let out = ibis()
        .args([
            "query",
            "--var-a",
            "temperature",
            "--var-b",
            "oxygen",
            "--grid",
            "32x24x2",
        ])
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("mutual information"));
    assert!(text.contains("Pearson"));
    // temperature and oxygen are anticorrelated by construction
    assert!(text.contains("-0.9") || text.contains("-1.0"), "{text}");
}

#[test]
fn query_rejects_unknown_variable() {
    let out = ibis()
        .args(["query", "--var-a", "temperature", "--var-b", "phlogiston"])
        .output()
        .expect("spawn");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown variable"));
}

#[test]
fn mine_subcommand_finds_subsets() {
    let out = ibis()
        .args(["mine", "--grid", "64x48x1", "--top", "3"])
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("pairs evaluated"));
    assert!(text.contains("subsets"));
}

/// `ibis mine` with `args` fails as a usage error naming `flag`: exit 1,
/// `error:` and the usage, never a panic or an abort.
fn mine_rejects(args: &[&str], flag: &str) {
    let out = ibis().arg("mine").args(args).output().expect("spawn");
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{args:?}: {err}");
    assert!(
        err.starts_with(&format!("error: {flag}")),
        "{args:?}: {err}"
    );
    assert!(err.contains("USAGE"), "{args:?}: {err}");
}

#[test]
fn mine_rejects_a_zero_unit() {
    mine_rejects(&["--unit", "0"], "--unit");
}

#[test]
fn mine_rejects_zero_bins() {
    mine_rejects(&["--bins", "0"], "--bins");
}

#[test]
fn mine_rejects_a_zero_grid_dimension() {
    mine_rejects(&["--grid", "0x48x1"], "--grid");
}

#[test]
fn mine_rejects_a_joint_table_past_its_bound() {
    mine_rejects(&["--bins", "70000"], "--bins");
    mine_rejects(&["--bins", "4097"], "--bins");
}

#[test]
fn mine_rejects_a_nan_threshold() {
    mine_rejects(&["--t1", "nan"], "--t1");
    mine_rejects(&["--t2", "inf"], "--t2");
}

/// A `--region` is a range of row ids: a NaN, negative or fractional
/// bound is a usage error, not a float cast to some other rows.
#[test]
fn query_rejects_a_region_that_is_not_row_ids() {
    for region in ["NaN:900", "-50:900", "100.7:900.2", "100:", "900:100"] {
        let out = ibis()
            .args(["query", "--var-a", "temperature", "--var-b", "salinity"])
            .args(["--grid", "32x24x4", "--region", region])
            .output()
            .expect("spawn");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{region}: {err}");
        assert!(err.starts_with("error: --region"), "{region}: {err}");
        assert!(err.contains("USAGE"), "{region}: {err}");
        assert!(out.stdout.is_empty(), "{region}: answered anyway");
    }
}

/// `--cache-mb` past what a byte count can hold is a usage error before
/// any store is opened, not a budget wrapped to a few bytes.
fn cache_mb_overflows(args: &[&str]) {
    let (first_over, next) = ("17592186044416", "17592186044417"); // 2^44, 2^44 + 1
    for mb in [first_over, next] {
        let out = ibis()
            .args(args)
            .args(["--cache-mb", mb])
            .output()
            .expect("spawn");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?} {mb}: {err}");
        assert!(err.starts_with("error: --cache-mb"), "{args:?} {mb}: {err}");
        assert!(err.contains("USAGE"), "{args:?} {mb}: {err}");
    }
}

#[test]
fn query_rejects_a_cache_mb_that_overflows() {
    let dir = TempDir::new("cli-cache-mb");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let batch = dir.join("batch.json");
    std::fs::write(&batch, r#"{"queries": []}"#).expect("write batch");
    let batch = batch.to_str().expect("utf-8 temp path").to_string();
    cache_mb_overflows(&["query", "--store", "no-such-store", "--batch", &batch]);
}

#[test]
fn serve_rejects_a_cache_mb_that_overflows() {
    cache_mb_overflows(&["serve", "--store", "no-such-store", "--addr", "127.0.0.1:0"]);
}

#[test]
fn insitu_subcommand_persists_reloadable_indices() {
    let dir = TempDir::new("cli-test-out");
    let out = ibis()
        .args([
            "insitu", "--sim", "heat3d", "--steps", "8", "--select", "2", "--cores", "4", "--out",
        ])
        .arg(dir.path())
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("selected steps"));
    // the run directory is a valid store with one index per selected step
    let store = ibis::insitu::Store::open(&dir).expect("valid run directory");
    let steps = store.steps();
    assert_eq!(steps.len(), 2, "two selected steps");
    for step in steps {
        let idx = store.get(step, "temperature").expect("valid index");
        assert!(!idx.is_empty());
    }
}

#[test]
fn insitu_rejects_out_without_bitmaps() {
    let out = ibis()
        .args([
            "insitu", "--steps", "4", "--select", "2", "--method", "full", "--out", "/tmp/x",
        ])
        .output()
        .expect("spawn");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--out requires"));
}

#[test]
fn shards_and_row_order_answer_alike() {
    let root = TempDir::new("cli-graybin-k");
    std::fs::create_dir_all(&root).expect("mkdir");
    let batch = root.join("batch.json");
    std::fs::write(
        &batch,
        r#"{"queries": [
            {"kind": "subset", "step": 0, "variable": "temperature", "value_range": [40.0, 80.0]},
            {"kind": "subset", "step": 0, "variable": "temperature", "value_range": [-50.0, -40.0]},
            {"kind": "subset", "step": 0, "variable": "temperature",
             "value_range": [10.0, 60.0], "region": [1000, 30000]},
            {"kind": "subset", "step": 0, "variable": "temperature", "region": [0, 99999999]}
        ]}"#,
    )
    .expect("write batch");
    let mut replies = Vec::new();
    for shards in ["4", "1"] {
        let dir = root.join(format!("k{shards}"));
        let out = ibis()
            .args(["insitu", "--sim", "heat3d", "--steps", "4", "--select", "2"])
            .args(["--cores", "2", "--row-order", "graybin"])
            .args(["--shards", shards, "--out"])
            .arg(&dir)
            .output()
            .expect("spawn");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "insitu --shards {shards}: {err}");
        let mut query = ibis();
        query.args(["query", "--store"]).arg(&dir);
        let out = query.arg("--batch").arg(&batch).output().expect("spawn");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "query --shards {shards}: {err}");
        replies.push(out.stdout);
    }
    let text = String::from_utf8_lossy(&replies[0]);
    assert_eq!(text.matches("\"ok\"").count(), 3, "{text}");
    assert_eq!(text.matches("\"error\"").count(), 1, "{text}");
    for (i, reply) in replies.iter().enumerate() {
        assert_eq!(reply, &replies[0], "reply {i} differs from the 4-shard one");
    }
}

/// `ibis insitu` with `args` fails as a usage error naming `flag` before
/// it runs anything: exit 1, `error:` and the usage, no `selected steps:`.
fn insitu_rejects(args: &[&str], flag: &str) {
    let out = ibis().arg("insitu").args(args).output().expect("spawn");
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{args:?}: {err}");
    assert!(
        err.starts_with(&format!("error: {flag}")),
        "{args:?}: {err}"
    );
    assert!(err.contains("USAGE"), "{args:?}: {err}");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(!text.contains("selected steps:"), "{args:?}: {text}");
}

#[test]
fn insitu_rejects_a_shard_count_before_running() {
    let tmp = TempDir::new("cli-shards");
    let dir = tmp.to_str().expect("utf-8 temp dir");
    for k in ["0", "257", "100000"] {
        insitu_rejects(
            &["--steps", "4", "--select", "2", "--out", dir, "--shards", k],
            "--shards",
        );
    }
    assert!(
        !std::path::Path::new(dir).exists(),
        "a rejected run wrote {dir}"
    );
}

/// Every verb refuses a flag it does not read — a typo, or the retired
/// `--lossy-fpr` — as a usage error before it runs anything.
#[test]
fn every_verb_refuses_a_flag_it_does_not_read() {
    let tmp = TempDir::new("cli-unknown-flag");
    let dir = tmp.to_str().expect("utf-8 temp dir");
    let insitu = "insitu --sim heat3d --steps 1 --select 1";
    let cases = [
        (format!("{insitu} --shard 4 --out {dir}"), "shard"),
        (format!("{insitu} --shards 4 --bogus 7"), "bogus"),
        (
            format!("{insitu} --out {dir} --lossy-fpr 1e-2"),
            "lossy-fpr",
        ),
        (
            format!("query --store {dir} --batch b.json --lossy-fpr 1e-2"),
            "lossy-fpr",
        ),
        // each mode of `query` refuses the other mode's flags
        (
            format!("query --store {dir} --batch b.json --region 5:1"),
            "region",
        ),
        (
            "query --var-a temperature --var-b salinity --cache-mb 8".to_string(),
            "cache-mb",
        ),
        (format!("serve --store {dir} --lossy-fpr 1e-2"), "lossy-fpr"),
        ("mine --grid 8x8x1 --bin 4".to_string(), "bin"),
        (
            format!("loadgen --addr 127.0.0.1:1 --store {dir} --client 2"),
            "client",
        ),
    ];
    for (args, flag) in cases {
        let args: Vec<&str> = args.split(' ').collect();
        let out = ibis().args(&args).output().expect("spawn");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {err}");
        assert!(
            err.starts_with(&format!("error: unknown flag --{flag}\n")),
            "{args:?}: {err}"
        );
        assert!(err.contains("USAGE"), "{args:?}: {err}");
        assert!(out.stdout.is_empty(), "{args:?} ran");
    }
    assert!(
        !std::path::Path::new(dir).exists(),
        "a rejected run wrote {dir}"
    );
}

#[test]
fn insitu_rejects_a_selection_before_running() {
    insitu_rejects(&["--steps", "4", "--select", "0"], "--select");
    insitu_rejects(&["--steps", "4", "--select", "5"], "--select");
    insitu_rejects(&["--steps", "0"], "--steps");
}

#[test]
fn insitu_rejects_an_allocation_before_running() {
    for split in ["0:2", "2:0", "3:x", "9:9", "2-2"] {
        insitu_rejects(
            &[
                "--steps",
                "4",
                "--select",
                "2",
                "--cores",
                "4",
                "--allocation",
                split,
            ],
            "--allocation",
        );
    }
    insitu_rejects(
        &[
            "--steps",
            "4",
            "--select",
            "2",
            "--cores",
            "1",
            "--allocation",
            "auto",
        ],
        "--allocation",
    );
}

#[test]
fn loadgen_counts_requests_after_the_server_closes_as_closed() {
    use std::io::{BufRead, BufReader, Write};
    let dir = TempDir::new("cli-loadgen");
    let data: Vec<f64> = (0..500).map(|i| (i % 50) as f64).collect();
    let index = ibis::core::BitmapIndex::build(&data, ibis::core::Binner::fit(&data, 8));
    let mut writer = ibis::insitu::StoreWriter::create(&dir).expect("create store");
    writer.put(0, "temperature", &index).expect("put");
    writer.finish().expect("finish");
    // a server that answers one request and hangs up on the next; it
    // reads that one first, so the client sees an end of file, not a reset
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();
    let server = std::thread::spawn(move || {
        let (stream, _) = listener.accept().expect("accept");
        let mut requests = BufReader::new(&stream).lines();
        requests.next().expect("first request").expect("read");
        writeln!(&stream, r#"{{"answers": [{{"ok": 1}}]}}"#).expect("reply");
        requests.next().expect("second request").expect("read");
    });
    let out = ibis()
        .args([
            "loadgen",
            "--addr",
            &addr,
            "--requests",
            "5",
            "--clients",
            "1",
        ])
        .arg("--store")
        .arg(dir.path())
        .output()
        .expect("spawn");
    server.join().expect("server thread");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{text}{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(text.contains("1 requests answered"), "{text}");
    let outcomes: Vec<&str> = text.lines().filter(|l| l.starts_with("  ")).collect();
    assert_eq!(outcomes, ["  closed: 4", "  ok: 1"], "{text}");
}
