//! E13 — analytics queries over a persisted audit history (`exp_query_load`).
//!
//! Persists a full E8 service-load sweep into a columnar history store,
//! then times every `fakeaudit query` kind over it: the four full-range
//! scans plus a time-windowed timeseries that must prune segments via
//! the zone maps. Writes `results/BENCH_store.json` in the bench-ledger
//! schema so `fakeaudit bench record|compare` tracks query-path
//! regressions exactly like the gateway's (E11).
//!
//! Ledger mapping: `requests_per_sec` is queries per wall second and
//! `shed_rate` is the *scanned fraction* —
//! `rows_scanned / (rows_scanned + rows_pruned)` — so a pruning
//! regression (scanning rows the zone maps used to skip) trips the
//! higher-is-worse comparator.
//!
//! Exits nonzero if the windowed scenario prunes no rows: that would
//! mean the zone maps stopped working, not that the machine is slow.
//!
//! Usage: `exp_query_load [--quick] [--seed N] [--persist DIR] [--out PATH]`
//! (`--persist` reuses/creates a store at DIR instead of a throwaway
//! temp directory).

use fakeaudit_bench::{parse_args, RunOptions};
use fakeaudit_core::experiments::service_load::run_service_load_persisted;
use fakeaudit_server::flush_writer;
use fakeaudit_store::queries::{self, QueryKind, QueryOptions};
use fakeaudit_store::{open_shared, Store};
use fakeaudit_telemetry::metrics::rounded_index;
use fakeaudit_telemetry::Telemetry;
use std::fmt::Write as _;
use std::time::Instant;

struct QueryLoadOptions {
    run: RunOptions,
    out: String,
}

fn fail(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(2);
}

/// Splits `--out` off and hands the rest to the shared bench parser.
fn options() -> QueryLoadOptions {
    let mut rest = Vec::new();
    let mut out = "results/BENCH_store.json".to_owned();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => match args.next() {
                Some(v) => out = v,
                None => fail("--out needs a path"),
            },
            _ => rest.push(arg),
        }
    }
    match parse_args(rest.into_iter()) {
        Ok(run) => QueryLoadOptions { run, out },
        Err(msg) => fail(&format!("{msg} (also: --out PATH)")),
    }
}

/// One timed scenario: a query kind at fixed options, run `iters` times.
struct Scenario {
    name: &'static str,
    kind: QueryKind,
    opts: QueryOptions,
}

struct Measured {
    name: &'static str,
    iters: usize,
    wall_secs: f64,
    latencies_ms: Vec<f64>,
    rows_scanned: u64,
    rows_pruned: u64,
    segments_pruned: u64,
    result_rows: usize,
}

impl Measured {
    fn percentile(&self, p: f64) -> f64 {
        rounded_index(&self.latencies_ms, p).unwrap_or(0.0)
    }

    fn queries_per_sec(&self) -> f64 {
        if self.wall_secs > 0.0 {
            self.iters as f64 / self.wall_secs
        } else {
            0.0
        }
    }

    /// The ledger's `shed_rate` slot: fraction of stored rows the scan
    /// actually touched. Lower is better; 1.0 means no pruning.
    fn scanned_fraction(&self) -> f64 {
        let total = self.rows_scanned + self.rows_pruned;
        if total > 0 {
            self.rows_scanned as f64 / total as f64
        } else {
            0.0
        }
    }
}

fn measure(store: &Store, scenario: &Scenario, iters: usize) -> Measured {
    // One warmup run absorbs the lazy column-block reads.
    let report = queries::run(store, scenario.kind, &scenario.opts).unwrap_or_else(|e| {
        fail(&format!("query {} failed: {e}", scenario.name));
    });
    let mut latencies_ms = Vec::with_capacity(iters);
    let started = Instant::now();
    for _ in 0..iters {
        let t0 = Instant::now();
        let r = queries::run(store, scenario.kind, &scenario.opts).unwrap_or_else(|e| {
            fail(&format!("query {} failed: {e}", scenario.name));
        });
        latencies_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        assert_eq!(
            r.stats, report.stats,
            "{}: unstable scan stats",
            scenario.name
        );
    }
    let wall_secs = started.elapsed().as_secs_f64();
    latencies_ms.sort_by(|a, b| a.total_cmp(b));
    Measured {
        name: scenario.name,
        iters,
        wall_secs,
        latencies_ms,
        rows_scanned: report.stats.rows_scanned,
        rows_pruned: report.stats.rows_pruned,
        segments_pruned: report.stats.segments_pruned,
        result_rows: report.rows.len(),
    }
}

fn render_json(seed: u64, rows: u64, segments: u64, iters: usize, measured: &[Measured]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "  \"schema_version\": 1,");
    let _ = writeln!(out, "  \"bench\": \"store\",");
    let _ = writeln!(
        out,
        "  \"config\": {{\n    \"seed\": {seed},\n    \"rows\": {rows},\n    \
         \"segments\": {segments},\n    \"iters\": {iters}\n  }},"
    );
    let _ = writeln!(out, "  \"scenarios\": [");
    for (i, m) in measured.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"name\": \"{}\", \"mode\": \"query\", \"offered\": {}, \"answered\": {}, \
             \"shed\": 0, \"expired\": 0, \"errors\": 0, \"wall_secs\": {:.3}, \
             \"requests_per_sec\": {:.2}, \"p50_ms\": {:.3}, \"p95_ms\": {:.3}, \
             \"p99_ms\": {:.3}, \"shed_rate\": {:.4}, \"rows_scanned\": {}, \
             \"rows_pruned\": {}, \"segments_pruned\": {}, \"result_rows\": {}}}",
            m.name,
            m.iters,
            m.iters,
            m.wall_secs,
            m.queries_per_sec(),
            m.percentile(0.50),
            m.percentile(0.95),
            m.percentile(0.99),
            m.scanned_fraction(),
            m.rows_scanned,
            m.rows_pruned,
            m.segments_pruned,
            m.result_rows,
        );
        let _ = writeln!(out, "{}", if i + 1 < measured.len() { "," } else { "" });
    }
    let _ = writeln!(out, "  ]");
    let _ = writeln!(out, "}}");
    out
}

fn main() {
    let opts = options();
    let seed = opts.run.seed;
    let quick = opts.run.scale != fakeaudit_core::experiments::Scale::full();

    // The store under test: `--persist DIR`, or a throwaway temp dir.
    let (dir, temp) = match opts.run.persist.clone() {
        Some(dir) => (std::path::PathBuf::from(dir), false),
        None => (
            std::env::temp_dir().join(format!("fakeaudit-e13-{}", std::process::id())),
            true,
        ),
    };

    eprintln!("persisting an E8 sweep into {} ...", dir.display());
    let writer = open_shared(&dir).unwrap_or_else(|e| {
        fail(&format!("cannot open history store {}: {e}", dir.display()));
    });
    run_service_load_persisted(opts.run.scale, seed, Some(writer.clone()));
    let health = flush_writer(&writer, &Telemetry::disabled())
        .unwrap_or_else(|e| fail(&format!("history flush failed: {e}")));
    drop(writer);
    eprintln!(
        "history: {} rows across {} segments",
        health.flushed_rows, health.segments
    );

    let store = Store::open(&dir).unwrap_or_else(|e| {
        fail(&format!("cannot read store {}: {e}", dir.display()));
    });
    let stats = store.stats();
    if stats.rows == 0 {
        fail("persisted store is empty — nothing to query");
    }
    let (ts_min, ts_max) = store.ts_bounds().expect("non-empty store has bounds");
    // The windowed scenario covers the earliest tenth of the recorded
    // span: high-rate cells fill several segments over the window, so
    // their later segments must fall to the zone maps.
    let min_secs = ts_min.div_euclid(1_000_000);
    let span_secs = (ts_max - ts_min).div_euclid(1_000_000).max(10);
    let windowed = QueryOptions {
        since_secs: Some(min_secs),
        until_secs: Some(min_secs + span_secs / 10),
        ..QueryOptions::default()
    };

    let scenarios = [
        Scenario {
            name: "timeseries",
            kind: QueryKind::Timeseries,
            opts: QueryOptions::default(),
        },
        Scenario {
            name: "drift",
            kind: QueryKind::Drift,
            opts: QueryOptions::default(),
        },
        Scenario {
            name: "retention",
            kind: QueryKind::Retention,
            opts: QueryOptions::default(),
        },
        Scenario {
            name: "topk",
            kind: QueryKind::Topk,
            opts: QueryOptions::default(),
        },
        Scenario {
            name: "timeseries_windowed",
            kind: QueryKind::Timeseries,
            opts: windowed,
        },
    ];

    let iters = if quick { 20 } else { 100 };
    let measured: Vec<Measured> = scenarios
        .iter()
        .map(|s| measure(&store, s, iters))
        .collect();

    println!(
        "E13: analytics queries over a persisted E8 history ({} rows, {} segments, {} iters)",
        stats.rows, stats.segments, iters
    );
    println!(
        "{:<22}{:>11}{:>10}{:>10}{:>10}{:>10}{:>10}{:>9}",
        "scenario", "qry/s", "p50 (ms)", "p95 (ms)", "p99 (ms)", "scanned", "pruned", "scan frac"
    );
    for m in &measured {
        println!(
            "{:<22}{:>11.1}{:>10.3}{:>10.3}{:>10.3}{:>10}{:>10}{:>8.0}%",
            m.name,
            m.queries_per_sec(),
            m.percentile(0.50),
            m.percentile(0.95),
            m.percentile(0.99),
            m.rows_scanned,
            m.rows_pruned,
            m.scanned_fraction() * 100.0,
        );
    }

    let json = render_json(seed, stats.rows, stats.segments, iters, &measured);
    if let Some(parent) = std::path::Path::new(&opts.out).parent() {
        if !parent.as_os_str().is_empty() {
            let _ = std::fs::create_dir_all(parent);
        }
    }
    match std::fs::write(&opts.out, &json) {
        Ok(()) => println!("wrote {}", opts.out),
        Err(e) => fail(&format!("cannot write {}: {e}", opts.out)),
    }

    if temp {
        let _ = std::fs::remove_dir_all(&dir);
    }

    let w = measured.last().expect("scenarios nonempty");
    if w.rows_pruned == 0 {
        fail("timeseries_windowed pruned zero rows — zone-map pruning is broken");
    }
    println!(
        "windowed scan pruned {} rows across {} segments via zone maps",
        w.rows_pruned, w.segments_pruned
    );
}
