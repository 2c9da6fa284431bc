//! `fakeaudit` — audit a synthetic Twitter account with the four
//! fake-follower analytics of Cresci et al. (2014).
//!
//! ```text
//! fakeaudit audit --followers 20000 --inactive 0.30 --fake 0.15 \
//!                 --recency-bias 20 --seed 42
//! fakeaudit crawl --followers 41000000
//! fakeaudit sample-size --margin 0.01 --confidence 95
//! fakeaudit serve-sim --rate 4 --policy degrade --burst
//! fakeaudit serve --port 8080 --workers 2 --policy degrade
//! fakeaudit trace analyze --input trace.jsonl
//! fakeaudit bench compare --input results/BENCH_gateway.json --tolerance 15%
//! ```

mod args;

use args::ParsedArgs;
use fakeaudit_analytics::{report, BreakerConfig, OnlineService, ServiceProfile};
use fakeaudit_bench::ledger::{self, LedgerEntry};
use fakeaudit_core::experiments::service_load::ServingWorld;
use fakeaudit_core::panel::AuditPanel;
use fakeaudit_core::scoring::score_against_truth;
use fakeaudit_detectors::{FakeProjectEngine, Socialbakers, StatusPeople, ToolId, Twitteraudit};
use fakeaudit_gateway::{Gateway, GatewayConfig, ToolPool};
use fakeaudit_population::{ClassMix, TargetScenario};
use fakeaudit_server::{
    flush_writer, generate, ArrivalProcess, LoadSpec, OverloadPolicy, ServerConfig, ServerSim,
};
use fakeaudit_stats::rng::derive_seed;
use fakeaudit_stats::sample_size::{required_sample_size, worst_case_margin};
use fakeaudit_stats::ConfidenceLevel;
use fakeaudit_store::queries::{self, QueryKind, QueryOptions};
use fakeaudit_store::{compact, open_shared_with, repair, verify, FsyncPolicy, Store};
use fakeaudit_telemetry::analyze::chrome_trace_json;
use fakeaudit_telemetry::sink::parse_jsonl;
use fakeaudit_telemetry::{
    replay_trace, ChromeTraceOptions, LatencyAttribution, MonitorConfig, RunReport,
    SelfTimeProfile, SloMonitor, Telemetry, TraceEvent, TraceTree, WallClock,
};
use fakeaudit_twitter_api::crawl::CrawlBudget;
use fakeaudit_twitter_api::{ApiConfig, ApiSession, FaultPlan, RetryPolicy};
use fakeaudit_twittersim::Platform;

const USAGE: &str = "\
fakeaudit — the fake-follower analytics of Cresci et al. (2014), offline

USAGE:
  fakeaudit audit [--followers N] [--inactive F] [--fake F] [--name S]
                  [--recency-bias K] [--fc-sample N] [--seed S] [--reports]
                  [--telemetry PATH] [--quiet]
      Build a synthetic target with the given ground-truth mix and audit it
      with FC, Twitteraudit, StatusPeople and Socialbakers, scoring every
      tool against the hidden truth.

  fakeaudit crawl --followers N [--telemetry PATH] [--quiet]
      Print the full-crawl budget under the paper's Table I rate limits.

  fakeaudit sample-size [--margin F] [--confidence 90|95|99]
      Cochran sample-size arithmetic (the paper's n = 9604) and the
      best-case margins of the commercial tools' windows.

  fakeaudit serve-sim [--rate F] [--duration S] [--policy block|shed|degrade]
                      [--workers N] [--queue N] [--targets N] [--followers N]
                      [--fc-sample N] [--burst] [--seed S] [--persist DIR]
                      [--fsync never|on-flush|on-append] [--slo]
                      [--fault-rate F] [--alert-log PATH]
                      [--telemetry PATH] [--quiet]
      Run the four tools as a concurrent service on the simulated clock:
      open-loop Poisson arrivals (--burst adds a flash crowd) against a
      bounded admission queue, reporting throughput, latency percentiles
      and the shed/degrade behaviour of the chosen overload policy. With
      --telemetry the run is traced live: every request becomes a causal
      span tree (queue wait, service, cache/crawl) in the JSONL output.
      With --persist every completed or degraded audit is appended to a
      columnar history store in DIR (same seed, byte-identical segments)
      for `fakeaudit query`. --slo attaches the streaming SLO monitor
      (multi-window burn-rate alerts on the simulated clock) and prints
      its alert log; --fault-rate injects bursty retry-free API faults
      so the alerts have something to fire on; --alert-log writes the
      rendered log to PATH — same seed, byte-identical file.

  fakeaudit serve [--host H] [--port N] [--workers N] [--queue-depth N]
                  [--policy block|shed|degrade] [--accept-threads N]
                  [--targets N] [--seed S] [--duration SECS] [--full]
                  [--persist DIR] [--fsync never|on-flush|on-append]
                  [--slo] [--telemetry PATH] [--quiet]
      Serve audits over real HTTP on the wall clock: the same prewarmed
      world, admission queues, overload policies and circuit breakers as
      serve-sim, behind POST /audit/:target, GET /audit/:target/stream,
      GET /healthz and GET /metrics (Prometheus text). Runs until Ctrl-C
      (or for --duration seconds), then drains in-flight requests and
      prints the same per-tool report as the simulator. --port 0 picks a
      free port; the bound address is printed on stdout at startup.
      Each accept thread owns one connection at a time, so
      --accept-threads (default: core count) bounds concurrent
      keep-alive connections — raise it for many slow clients. With
      --persist every answered audit lands in the history store in DIR
      and GET /query/:kind serves the analytics below over HTTP. --slo
      attaches the wall-clock SLO monitor: GET /alerts streams the
      burn-rate alert state, GET /metrics/history the metrics ring, and
      /healthz gains per-route SLO status.

  fakeaudit query <timeseries|drift|retention|topk>
                  [--dir DIR] [--format table|json] [--since S] [--until S]
                  [--bucket S] [--k N] [--by ratio|cost]
      Run one analytics query over a persisted audit history (written by
      serve-sim/serve --persist, default --dir history). timeseries:
      mean fake-ratio per target per time bucket; drift: per-tool
      disagreement with the per-target majority verdict; retention:
      cohorts of flagged targets still flagged N buckets later; topk:
      targets ranked by mean fake ratio (--by ratio) or total crawl cost
      (--by cost), capped at --k. --since/--until bound the scan to an
      inclusive window of whole seconds and prune non-overlapping
      segments via their zone maps. Exits nonzero for an unknown kind or
      a missing store directory.

  fakeaudit store <compact|stats|verify|repair> [--dir DIR]
      Maintain a history store: stats prints per-segment row and byte
      counts; compact merges every segment into one (deterministic
      order), cutting per-segment overhead on long histories; verify
      deep-checks every segment checksum and WAL without writing
      anything, exiting nonzero on corruption; repair runs the same
      startup recovery a reopen would (settle interrupted compactions,
      quarantine corrupt segments as .bad, drop stale WALs).

  fakeaudit chaos [--seed S] [--full] [--persist DIR] [--fsync P]
      Run the E10 chaos sweep: an injected per-call API fault rate
      (bursty 503/429/timeout/truncation) against three resilience arms
      — no retries, capped-backoff retries, retries behind a per-tool
      circuit breaker that degrades to stale — reporting goodput, tail
      latency, stale-served counts and circuit open time per cell. The
      sweep is seed-deterministic: same seed, byte-identical table.
      --persist appends every answered audit to a history store at DIR
      (cells run serially so the segment files are byte-deterministic).

  fakeaudit trace analyze --input PATH
      Read a JSONL trace and print per-tool latency attribution (queue /
      crawl / cache / compute shares at p50 and p99) plus the waterfall
      and critical path of the slowest request.

  fakeaudit trace export --input PATH [--format chrome] [--output PATH]
      Convert a JSONL trace to Chrome trace-event JSON, loadable in
      Perfetto (https://ui.perfetto.dev) or chrome://tracing.

  fakeaudit trace slo --input PATH [--window S] [--step S] [--quantile Q]
                      [--latency-slo S] [--availability F]
      Replay the trace through the SLO monitor and report, per route and
      step boundary, the window's request counts and latency and
      availability error-budget burn rates (a window is violated when
      either burn exceeds 1). --step is the monitor's bucket width
      (0: one window wide); windows quantise to whole buckets.

  fakeaudit trace profile --input PATH [--output PATH] [--top N]
      Fold a JSONL trace into per-span self-time stacks (inferno /
      flamegraph.pl collapsed format, deterministic for a given trace).
      --top N prints the N hottest frames by self time instead of the
      raw folded stacks; --output writes the folded stacks to a file.

  fakeaudit bench record --input PATH [--ledger PATH] [--label S]
      Append the headline numbers of a BENCH_*.json (throughput,
      p50/p95/p99, shed rate, allocs/req when present) as one line of
      the bench ledger (default: results/ledger.jsonl).

  fakeaudit bench compare --input PATH [--ledger PATH] [--tolerance T]
      Compare a fresh BENCH_*.json against the most recent ledger line.
      Latency, shed rate and allocs/req may rise — and throughput fall —
      by at most the tolerance (default 15%; accepts 15% or 0.15).
      Exits nonzero when any metric regresses past it.

  fakeaudit help
      Show this message.

OPTIONS:
  --fsync P          Ack-time durability floor for --persist stores:
                     on-append fsyncs the write-ahead log before acking
                     every row, on-flush (default) fsyncs at segment
                     flush, never skips fsync entirely.
  --telemetry PATH   Trace the run on the simulated clock: write the span /
                     event stream as JSON lines to PATH and print a metrics
                     summary (API calls, rate-limit waits, cache hit ratio,
                     response-time breakdown, verdict counters).
  --quiet            Suppress progress messages on stderr.
";

/// Dumps the JSONL trace to `path` and prints the end-of-run summary.
fn finish_telemetry(telemetry: &Telemetry, path: &str) -> Result<(), String> {
    let mut file = std::fs::File::create(path)
        .map_err(|e| format!("cannot create telemetry file {path:?}: {e}"))?;
    telemetry
        .write_jsonl(&mut file)
        .map_err(|e| format!("cannot write telemetry file {path:?}: {e}"))?;
    println!("\n{}", RunReport::from_telemetry(telemetry).render());
    println!(
        "trace written to {path} ({} events)",
        telemetry.events().len()
    );
    Ok(())
}

fn main() {
    let parsed = match ParsedArgs::parse(std::env::args().skip(1)) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            std::process::exit(2);
        }
    };
    let result = match (parsed.command.as_deref(), parsed.action.as_deref()) {
        (Some("trace"), _) => cmd_trace(&parsed),
        (Some("bench"), _) => cmd_bench(&parsed),
        (Some("query"), _) => cmd_query(&parsed),
        (Some("store"), _) => cmd_store(&parsed),
        (Some(cmd), Some(action)) => Err(format!(
            "unexpected argument {action:?} after {cmd:?}\n\n{USAGE}"
        )),
        (Some("audit"), None) => cmd_audit(&parsed),
        (Some("crawl"), None) => cmd_crawl(&parsed),
        (Some("sample-size"), None) => cmd_sample_size(&parsed),
        (Some("serve-sim"), None) => cmd_serve_sim(&parsed),
        (Some("serve"), None) => cmd_serve(&parsed),
        (Some("chaos"), None) => cmd_chaos(&parsed),
        (Some("help"), None) | (None, _) => {
            println!("{USAGE}");
            Ok(())
        }
        (Some(other), None) => Err(format!("unknown command {other:?}\n\n{USAGE}")),
    };
    if let Err(e) = result {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}

fn cmd_audit(args: &ParsedArgs) -> Result<(), String> {
    let followers: usize = args
        .get_or("followers", 10_000)
        .map_err(|e| e.to_string())?;
    let inactive: f64 = args.get_or("inactive", 0.30).map_err(|e| e.to_string())?;
    let fake: f64 = args.get_or("fake", 0.15).map_err(|e| e.to_string())?;
    let recency: f64 = args
        .get_or("recency-bias", 15.0)
        .map_err(|e| e.to_string())?;
    let fc_sample: u64 = args.get_or("fc-sample", 9_604).map_err(|e| e.to_string())?;
    let seed: u64 = args.get_or("seed", 2_014).map_err(|e| e.to_string())?;
    if followers == 0 {
        return Err("--followers must be positive".into());
    }
    let name = args.raw("name").unwrap_or("cli_target").to_string();
    let quiet = args.flag("quiet");
    let telemetry_path = args.raw("telemetry").map(str::to_string);
    let genuine = 1.0 - inactive - fake;
    let mix = ClassMix::new(inactive, fake, genuine)
        .map_err(|e| format!("bad mix (--inactive + --fake must be <= 1): {e}"))?;

    if !quiet {
        eprintln!("building target ({followers} followers, truth: {mix}) ...");
    }
    let mut platform = Platform::new();
    let target = TargetScenario::new(name, followers, mix)
        .fake_recency_bias(recency.max(1.0))
        .build(&mut platform, seed)
        .map_err(|e| e.to_string())?;

    if !quiet {
        eprintln!("training the FC classifier ...");
    }
    let telemetry = if telemetry_path.is_some() {
        Telemetry::enabled()
    } else {
        Telemetry::disabled()
    };
    let fc = FakeProjectEngine::with_default_model(seed).with_sample_size(fc_sample);
    let mut panel = AuditPanel::with_fc_engine(fc, seed).with_telemetry(telemetry.clone());
    let result = panel
        .request_all(&platform, target.target)
        .map_err(|e| e.to_string())?;

    println!("tool responses (first request):");
    for (tool, r) in result.responses() {
        println!("  {:<34} {r}", tool.to_string());
    }
    println!(
        "\nscored against the hidden ground truth ({}):",
        target.true_mix()
    );
    for (tool, r) in result.responses() {
        let score = score_against_truth(&r.outcome, &target, &platform);
        println!("  {:<4} {score}", tool.abbrev());
    }

    if args.flag("reports") {
        println!(
            "\n{}",
            report::render_statuspeople(&result.of(ToolId::StatusPeople).outcome)
        );
        println!(
            "{}",
            report::render_socialbakers(&result.of(ToolId::Socialbakers).outcome)
        );
        let ta = Twitteraudit::new();
        let mut session = ApiSession::new(&platform, ApiConfig::default());
        let (outcome, chart) = ta
            .audit_with_chart(&mut session, target.target, seed)
            .map_err(|e| e.to_string())?;
        println!("{}", report::render_twitteraudit(&outcome, &chart));
    }
    if let Some(path) = telemetry_path {
        finish_telemetry(&telemetry, &path)?;
    }
    Ok(())
}

fn cmd_crawl(args: &ParsedArgs) -> Result<(), String> {
    let followers: u64 = args
        .get_or("followers", 41_000_000)
        .map_err(|e| e.to_string())?;
    let quiet = args.flag("quiet");
    if !quiet {
        eprintln!("computing crawl budget for {followers} followers ...");
    }
    let profiles = CrawlBudget::for_followers(followers, false);
    let with_tl = CrawlBudget::for_followers(followers, true);
    println!("{profiles}");
    println!("{with_tl}");
    println!("(the paper crawled @BarackObama's 41M followers in \"around 27 days\")");
    if let Some(path) = args.raw("telemetry") {
        let telemetry = Telemetry::enabled();
        profiles.record_metrics(&telemetry);
        with_tl.record_metrics(&telemetry);
        finish_telemetry(&telemetry, path)?;
    }
    Ok(())
}

fn cmd_chaos(args: &ParsedArgs) -> Result<(), String> {
    let seed: u64 = args.get_or("seed", 2_014).map_err(|e| e.to_string())?;
    let scale = if args.flag("full") {
        fakeaudit_core::experiments::Scale::full()
    } else {
        fakeaudit_core::experiments::Scale::quick()
    };
    let persist_dir = args.raw("persist").map(str::to_string);
    let fsync = fsync_from_args(args)?;
    let writer = match &persist_dir {
        Some(dir) => Some(
            open_shared_with(dir, fsync)
                .map_err(|e| format!("cannot open history store {dir}: {e}"))?,
        ),
        None => None,
    };
    let result =
        fakeaudit_core::experiments::chaos::run_chaos_persisted(scale, seed, writer.clone());
    print!("{}", fakeaudit_core::experiments::chaos::render(&result));
    if let (Some(writer), Some(dir)) = (&writer, &persist_dir) {
        let health = flush_writer(writer, &Telemetry::disabled())
            .map_err(|e| format!("history flush failed for {dir}: {e}"))?;
        println!(
            "  history: {} rows across {} segments in {dir} (try: fakeaudit query topk --dir {dir})",
            health.flushed_rows, health.segments
        );
    }
    Ok(())
}

/// Parses `--fsync never|on-flush|on-append` (default: on-flush).
fn fsync_from_args(args: &ParsedArgs) -> Result<FsyncPolicy, String> {
    match args.raw("fsync") {
        None => Ok(FsyncPolicy::default()),
        Some(s) => FsyncPolicy::parse(s)
            .ok_or_else(|| format!("--fsync must be never, on-flush or on-append, got {s:?}")),
    }
}

/// Builds [`QueryOptions`] from `--since/--until/--bucket/--k/--by`.
fn query_options_from_args(args: &ParsedArgs) -> Result<QueryOptions, String> {
    let mut opts = QueryOptions::default();
    if args.raw("since").is_some() {
        opts.since_secs = Some(args.get_or("since", 0i64).map_err(|e| e.to_string())?);
    }
    if args.raw("until").is_some() {
        opts.until_secs = Some(args.get_or("until", 0i64).map_err(|e| e.to_string())?);
    }
    opts.bucket_secs = args
        .get_or("bucket", opts.bucket_secs)
        .map_err(|e| e.to_string())?;
    if opts.bucket_secs <= 0 {
        return Err("--bucket must be positive".into());
    }
    opts.k = args.get_or("k", opts.k).map_err(|e| e.to_string())?;
    if opts.k == 0 {
        return Err("--k must be positive".into());
    }
    if let Some(by) = args.raw("by") {
        opts.by = by.parse()?;
    }
    Ok(opts)
}

fn cmd_query(args: &ParsedArgs) -> Result<(), String> {
    let kind: QueryKind = args
        .action
        .as_deref()
        .ok_or("query needs a kind: timeseries, drift, retention or topk")?
        .parse()?;
    let dir = args.raw("dir").unwrap_or("history");
    let opts = query_options_from_args(args)?;
    let format = args.raw("format").unwrap_or("table");
    if format != "table" && format != "json" {
        return Err(format!("--format must be table or json, got {format:?}"));
    }
    let store = Store::open(dir).map_err(|e| {
        format!("cannot open store {dir:?}: {e} (write one with serve-sim/serve --persist {dir})")
    })?;
    let report = queries::run(&store, kind, &opts).map_err(|e| format!("query failed: {e}"))?;
    if format == "json" {
        println!("{}", report.to_json());
    } else {
        print!("{}", report.to_table());
    }
    Ok(())
}

fn cmd_store(args: &ParsedArgs) -> Result<(), String> {
    let dir = args.raw("dir").unwrap_or("history");
    match args.action.as_deref() {
        Some("stats") => {
            let store = Store::open(dir).map_err(|e| format!("cannot open store {dir:?}: {e}"))?;
            let stats = store.stats();
            println!(
                "store {dir}: {} segments, {} rows, {} bytes",
                stats.segments, stats.rows, stats.bytes
            );
            for &(seq, rows, bytes) in &stats.per_segment {
                println!("  seg-{seq:08}.fas  {rows:>8} rows  {bytes:>10} bytes");
            }
            Ok(())
        }
        Some("compact") => {
            let (before, rows) =
                compact(dir).map_err(|e| format!("cannot compact store {dir:?}: {e}"))?;
            if rows == 0 {
                println!("store {dir} holds no rows — nothing to compact");
            } else {
                println!("compacted {before} segment(s) into 1 ({rows} rows) in {dir}");
            }
            Ok(())
        }
        Some("verify") => {
            let report = verify(dir).map_err(|e| format!("cannot verify store {dir:?}: {e}"))?;
            println!(
                "store {dir}: {} segment(s) ok ({} rows), {} acked row(s) in the WAL",
                report.segments_ok, report.segment_rows, report.wal_rows
            );
            for note in &report.notes {
                println!("  note: {note}");
            }
            for issue in &report.issues {
                println!("  CORRUPT: {issue}");
            }
            if report.issues.is_empty() {
                println!("  all checksums verified");
                Ok(())
            } else {
                Err(format!(
                    "{} corrupt segment(s) in {dir} (run `fakeaudit store repair` to quarantine)",
                    report.issues.len()
                ))
            }
        }
        Some("repair") => {
            let report = repair(dir).map_err(|e| format!("cannot repair store {dir:?}: {e}"))?;
            println!(
                "store {dir}: {} healthy segment(s), {} row(s) replayable from the WAL",
                report.segments_ok, report.wal_rows_recovered
            );
            if report.compact_resumed {
                println!("  settled an interrupted compaction");
            }
            for q in &report.quarantined {
                println!("  quarantined {} ({})", q.name, q.error);
            }
            if report.stale_wals_removed > 0 {
                println!("  removed {} stale WAL file(s)", report.stale_wals_removed);
            }
            if report.tmp_files_removed > 0 {
                println!("  swept {} staging file(s)", report.tmp_files_removed);
            }
            if report.is_clean() {
                println!("  nothing to repair");
            }
            Ok(())
        }
        Some(other) => Err(format!(
            "unknown store action {other:?} (try compact, stats, verify, repair)\n\n{USAGE}"
        )),
        None => Err(format!(
            "store needs an action (compact, stats, verify or repair)\n\n{USAGE}"
        )),
    }
}

fn cmd_serve_sim(args: &ParsedArgs) -> Result<(), String> {
    let rate: f64 = args.get_or("rate", 4.0).map_err(|e| e.to_string())?;
    let duration: f64 = args.get_or("duration", 300.0).map_err(|e| e.to_string())?;
    let workers: usize = args.get_or("workers", 2).map_err(|e| e.to_string())?;
    let queue: usize = args.get_or("queue", 8).map_err(|e| e.to_string())?;
    let targets_n: usize = args.get_or("targets", 4).map_err(|e| e.to_string())?;
    let followers: usize = args.get_or("followers", 2_000).map_err(|e| e.to_string())?;
    let fc_sample: u64 = args.get_or("fc-sample", 1_200).map_err(|e| e.to_string())?;
    let seed: u64 = args.get_or("seed", 2_014).map_err(|e| e.to_string())?;
    let fault_rate: f64 = args.get_or("fault-rate", 0.0).map_err(|e| e.to_string())?;
    let alert_log = args.raw("alert-log").map(str::to_string);
    // --alert-log implies the monitor; --fault-rate alone does not.
    let slo = args.flag("slo") || alert_log.is_some();
    let quiet = args.flag("quiet");
    // Written so NaN is refused too.
    if rate.is_nan() || rate <= 0.0 || duration.is_nan() || duration <= 0.0 {
        return Err("--rate and --duration must be positive".into());
    }
    if !(0.0..1.0).contains(&fault_rate) {
        return Err("--fault-rate must be in [0, 1)".into());
    }
    if targets_n == 0 || followers == 0 {
        return Err("--targets and --followers must be positive".into());
    }
    let policy = match args.raw("policy").unwrap_or("shed") {
        "block" => OverloadPolicy::Block,
        "shed" => OverloadPolicy::Shed,
        "degrade" => OverloadPolicy::DegradeStale,
        other => {
            return Err(format!(
                "--policy must be block, shed or degrade, got {other:?}"
            ))
        }
    };

    if !quiet {
        eprintln!("building {targets_n} targets ({followers} followers each) ...");
    }
    let mut platform = Platform::new();
    let mix = ClassMix::new(0.25, 0.15, 0.60).expect("valid mix");
    let targets: Vec<_> = (0..targets_n)
        .map(|i| {
            TargetScenario::new(format!("serve_target_{i}"), followers, mix)
                .build(
                    &mut platform,
                    derive_seed(seed, &format!("serve-build-{i}")),
                )
                .map(|t| t.target)
                .map_err(|e| e.to_string())
        })
        .collect::<Result<_, _>>()?;

    if !quiet {
        eprintln!("prewarming the four tools ...");
    }
    // With fault injection the caches run at zero TTL (as in E10):
    // against a prewarmed warm cache almost no request would reach the
    // API, and the injected faults would never surface.
    let unquoted = |p: ServiceProfile| ServiceProfile {
        daily_quota: None,
        cache_ttl_days: if fault_rate > 0.0 {
            Some(0)
        } else {
            p.cache_ttl_days
        },
        ..p
    };
    // Live tracing: an enabled handle makes every request a causal span
    // tree, and the run records the metrics as each request closes.
    let telemetry = if args.raw("telemetry").is_some() {
        Telemetry::enabled()
    } else {
        Telemetry::disabled()
    };
    let mut sim = ServerSim::with_telemetry(
        &platform,
        ServerConfig {
            workers_per_tool: workers,
            queue_capacity: queue,
            policy,
            degraded_secs: 0.5,
            deadline_secs: None,
        },
        telemetry.clone(),
    );
    let persist_dir = args.raw("persist").map(str::to_string);
    let fsync = fsync_from_args(args)?;
    let writer = match &persist_dir {
        Some(dir) => {
            let writer = open_shared_with(dir, fsync)
                .map_err(|e| format!("cannot open store {dir:?}: {e}"))?;
            sim.persist_into(writer.clone());
            Some(writer)
        }
        None => None,
    };
    let monitor = slo.then(|| {
        let monitor = SloMonitor::new(MonitorConfig::sim_default(seed), telemetry.clone());
        sim.with_monitor(monitor.clone());
        monitor
    });
    let mut fc = OnlineService::new(
        FakeProjectEngine::with_default_model(derive_seed(seed, "serve-fc-model"))
            .with_sample_size(fc_sample),
        unquoted(ServiceProfile::fake_classifier()),
        derive_seed(seed, "serve-svc-fc"),
    );
    let mut ta = OnlineService::new(
        Twitteraudit::new(),
        unquoted(ServiceProfile::twitteraudit()),
        derive_seed(seed, "serve-svc-ta"),
    );
    let mut sp = OnlineService::new(
        StatusPeople::new(),
        unquoted(ServiceProfile::statuspeople()),
        derive_seed(seed, "serve-svc-sp"),
    );
    let mut sb = OnlineService::new(
        Socialbakers::new(),
        unquoted(ServiceProfile::socialbakers()),
        derive_seed(seed, "serve-svc-sb"),
    );
    for &t in &targets {
        fc.prewarm(&platform, t).map_err(|e| e.to_string())?;
        ta.prewarm(&platform, t).map_err(|e| e.to_string())?;
        sp.prewarm(&platform, t).map_err(|e| e.to_string())?;
        sb.prewarm(&platform, t).map_err(|e| e.to_string())?;
    }
    if fault_rate > 0.0 {
        // Bursty, retry-free faults: failures reach the request path
        // (and thus the SLO monitor) instead of being absorbed by
        // backoff, so a demo run has incidents worth alerting on.
        let plan = FaultPlan::bursty(derive_seed(seed, "serve-faults"), fault_rate, 6.0);
        sim.register(Box::new(fc.with_fault_plan(plan, RetryPolicy::none())));
        sim.register(Box::new(ta.with_fault_plan(plan, RetryPolicy::none())));
        sim.register(Box::new(sp.with_fault_plan(plan, RetryPolicy::none())));
        sim.register(Box::new(sb.with_fault_plan(plan, RetryPolicy::none())));
    } else {
        sim.register(Box::new(fc));
        sim.register(Box::new(ta));
        sim.register(Box::new(sp));
        sim.register(Box::new(sb));
    }

    let process = if args.flag("burst") {
        ArrivalProcess::FlashCrowd {
            base_rate: rate,
            burst_start: duration * 0.25,
            burst_secs: duration * 0.10,
            burst_rate: rate * 8.0,
        }
    } else {
        ArrivalProcess::Poisson { rate }
    };
    let spec = LoadSpec {
        process,
        duration_secs: duration,
        zipf_exponent: 1.1,
        tools: ToolId::ALL.to_vec(),
    };
    let trace = generate(&spec, &targets, derive_seed(seed, "serve-trace"));
    if !quiet {
        eprintln!(
            "replaying {} arrivals over {duration:.0}s (policy: {}) ...",
            trace.len(),
            policy.label()
        );
    }
    let report = sim.run(&trace);

    println!(
        "service under load ({} arrivals, {} workers/tool, queue {}, policy {})",
        report.offered(),
        workers,
        queue,
        policy.label()
    );
    println!(
        "  answered {:>6} fresh+cached, {} degraded-to-stale, {} shed, {} failed",
        report.completed(),
        report.degraded(),
        report.shed(),
        report.failed()
    );
    println!(
        "  throughput {:.2} req/s over {:.0}s makespan, utilisation {:.0}%",
        report.throughput(),
        report.makespan,
        report.utilisation() * 100.0
    );
    println!(
        "  latency p50/p95/p99 {:.1}/{:.1}/{:.1}s, queue wait p95 {:.1}s",
        report.latency_percentile(0.50),
        report.latency_percentile(0.95),
        report.latency_percentile(0.99),
        report.queue_wait_percentile(0.95)
    );
    println!(
        "\n  {:<6}{:>8} {:>8} {:>9} {:>6} {:>10} {:>10}",
        "tool", "offered", "done", "degraded", "shed", "max queue", "busy secs"
    );
    for t in &report.per_tool {
        let name = t.tool.map(|t| t.abbrev().to_string()).unwrap_or_default();
        println!(
            "  {:<6}{:>8} {:>8} {:>9} {:>6} {:>10} {:>10.0}",
            name, t.offered, t.completed, t.degraded, t.shed, t.max_queue_depth, t.busy_secs
        );
    }

    if let (Some(writer), Some(dir)) = (&writer, &persist_dir) {
        let health = flush_writer(writer, &telemetry)
            .map_err(|e| format!("cannot flush store {dir:?}: {e}"))?;
        println!(
            "  history: {} rows across {} segments in {dir} (try: fakeaudit query topk --dir {dir})",
            health.flushed_rows, health.segments
        );
    }

    if let Some(monitor) = &monitor {
        let counts = monitor.counts();
        println!(
            "\nSLO monitor: {} pending, {} fired, {} resolved \
             ({} active at end)",
            counts.pending,
            counts.firing,
            counts.resolved,
            counts.active_pending + counts.active_firing
        );
        let log = monitor.render_alert_log();
        if log.is_empty() {
            println!("  alert log: empty (no burn-rate breaches)");
        } else {
            print!("{log}");
        }
        if let Some(path) = &alert_log {
            std::fs::write(path, &log)
                .map_err(|e| format!("cannot write alert log {path:?}: {e}"))?;
            println!("  alert log written to {path}");
        }
    }

    if let Some(path) = args.raw("telemetry") {
        finish_telemetry(&telemetry, path)?;
    }
    Ok(())
}

/// Ctrl-C handling without a signal-handling dependency: a C `signal()`
/// registration (the symbol is already in the linked C runtime) that
/// flips an atomic the serve loop polls. Anything fancier (signalfd,
/// masks, handler chaining) is out of scope for a single foreground
/// process.
#[cfg(unix)]
mod sigint {
    use std::sync::atomic::{AtomicBool, Ordering};

    static STOP: AtomicBool = AtomicBool::new(false);

    extern "C" fn on_sigint(_signum: i32) {
        STOP.store(true, Ordering::SeqCst);
    }

    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }

    /// Installs the SIGINT handler. Safe to call more than once.
    pub fn install() {
        const SIGINT: i32 = 2;
        unsafe {
            signal(SIGINT, on_sigint);
        }
    }

    /// Whether Ctrl-C has been pressed since [`install`].
    pub fn requested() -> bool {
        STOP.load(Ordering::SeqCst)
    }
}

#[cfg(not(unix))]
mod sigint {
    /// No signal handling off unix; `--duration` still bounds the run.
    pub fn install() {}

    /// Never requested without a handler.
    pub fn requested() -> bool {
        false
    }
}

fn cmd_serve(args: &ParsedArgs) -> Result<(), String> {
    let host = args.raw("host").unwrap_or("127.0.0.1");
    let port: u16 = args.get_or("port", 8080).map_err(|e| e.to_string())?;
    let workers: usize = args.get_or("workers", 2).map_err(|e| e.to_string())?;
    let queue: usize = args.get_or("queue-depth", 8).map_err(|e| e.to_string())?;
    let targets_n: usize = args.get_or("targets", 4).map_err(|e| e.to_string())?;
    let seed: u64 = args.get_or("seed", 2_014).map_err(|e| e.to_string())?;
    let duration: f64 = args.get_or("duration", 0.0).map_err(|e| e.to_string())?;
    let quiet = args.flag("quiet");
    if workers == 0 || targets_n == 0 {
        return Err("--workers and --targets must be positive".into());
    }
    let policy = match args.raw("policy").unwrap_or("shed") {
        "block" => OverloadPolicy::Block,
        "shed" => OverloadPolicy::Shed,
        "degrade" => OverloadPolicy::DegradeStale,
        other => {
            return Err(format!(
                "--policy must be block, shed or degrade, got {other:?}"
            ))
        }
    };
    let scale = if args.flag("full") {
        fakeaudit_core::experiments::Scale::full()
    } else {
        fakeaudit_core::experiments::Scale::quick()
    };

    if !quiet {
        eprintln!("building {targets_n} prewarmed targets and the four tools ...");
    }
    let world = ServingWorld::build(scale, seed, targets_n);
    // Always collect: `/metrics` serves from this handle. The trace
    // buffer is bounded so an indefinitely-running server cannot grow
    // it without bound; `--telemetry` only controls the JSONL dump.
    let telemetry = Telemetry::with_event_capacity(65_536);
    let pools: Vec<ToolPool> = ToolId::ALL
        .iter()
        .map(|&tool| {
            // One clone per worker thread plus one for the stale-read
            // path the degrade policy answers from. Fresh audits run
            // behind the standard per-tool circuit breaker.
            let mut backends = world.armed_backends(
                tool,
                workers + 1,
                &telemetry,
                Some(BreakerConfig::standard()),
            );
            let stale = backends.pop().expect("workers + 1 clones");
            ToolPool {
                tool,
                workers: backends,
                stale,
            }
        })
        .collect();
    let defaults = GatewayConfig::default();
    let accept_threads: usize = args
        .get_or("accept-threads", defaults.accept_threads)
        .map_err(|e| e.to_string())?;
    if accept_threads == 0 {
        return Err("--accept-threads must be positive".into());
    }
    let persist_dir = args.raw("persist").map(str::to_string);
    let slo = args.flag("slo");
    let config = GatewayConfig {
        addr: format!("{host}:{port}"),
        accept_threads,
        server: ServerConfig {
            workers_per_tool: workers,
            queue_capacity: queue,
            policy,
            degraded_secs: 0.5,
            deadline_secs: None,
        },
        persist: persist_dir.as_deref().map(Into::into),
        fsync: fsync_from_args(args)?,
        slo: slo.then(|| MonitorConfig::wall_default(seed)),
        ..defaults
    };
    let platform = std::sync::Arc::new(world.platform.clone());
    let gateway = Gateway::bind(
        config,
        platform,
        pools,
        std::sync::Arc::new(WallClock::new()),
        telemetry.clone(),
    )
    .map_err(|e| format!("cannot bind {host}:{port}: {e}"))?;

    sigint::install();
    let target_list = world
        .targets
        .iter()
        .map(|t| t.to_string())
        .collect::<Vec<_>>()
        .join(" ");
    println!(
        "listening on http://{} (policy {}, {} workers/tool, queue {}, {} accept threads)",
        gateway.local_addr(),
        policy.label(),
        workers,
        queue,
        accept_threads
    );
    println!("auditable targets: {target_list}");
    println!(
        "try: curl -X POST http://{}/audit/{}",
        gateway.local_addr(),
        world.targets[0].as_u64()
    );
    if let Some(dir) = &persist_dir {
        println!(
            "persisting audit history to {dir}; try: curl http://{}/query/topk",
            gateway.local_addr()
        );
    }
    if slo {
        println!(
            "SLO monitor armed; try: curl http://{0}/alerts and http://{0}/metrics/history",
            gateway.local_addr()
        );
    }
    // CI and scripts probe for the "listening" line through a pipe, so
    // push it past stdout's block buffering now.
    {
        use std::io::Write as _;
        let _ = std::io::stdout().flush();
    }

    let started = std::time::Instant::now();
    loop {
        std::thread::sleep(std::time::Duration::from_millis(100));
        if sigint::requested() {
            if !quiet {
                eprintln!("\ninterrupted: draining in-flight requests ...");
            }
            break;
        }
        if duration > 0.0 && started.elapsed().as_secs_f64() >= duration {
            if !quiet {
                eprintln!("--duration {duration}s elapsed: draining ...");
            }
            break;
        }
    }
    let monitor_counts = gateway.monitor().map(|m| m.counts());
    let report = gateway.shutdown();

    println!(
        "served {} requests over {:.1}s wall time (policy {})",
        report.offered(),
        started.elapsed().as_secs_f64(),
        policy.label()
    );
    println!(
        "  answered {:>6} fresh+cached, {} degraded-to-stale, {} shed, {} failed",
        report.completed(),
        report.degraded(),
        report.shed(),
        report.failed()
    );
    if report.completed() + report.degraded() > 0 {
        println!(
            "  latency p50/p95/p99 {:.1}/{:.1}/{:.1} ms",
            report.latency_percentile(0.50) * 1e3,
            report.latency_percentile(0.95) * 1e3,
            report.latency_percentile(0.99) * 1e3,
        );
    }
    for t in &report.per_tool {
        let name = t.tool.map(|t| t.abbrev().to_string()).unwrap_or_default();
        println!(
            "  {:<4} offered {:>6}, done {:>6}, degraded {:>4}, shed {:>4}, max queue {:>3}",
            name, t.offered, t.completed, t.degraded, t.shed, t.max_queue_depth
        );
    }
    if let Some(counts) = monitor_counts {
        println!(
            "  SLO monitor: {} pending, {} fired, {} resolved, {} traces kept",
            counts.pending, counts.firing, counts.resolved, counts.traces_kept
        );
    }

    if let Some(path) = args.raw("telemetry") {
        finish_telemetry(&telemetry, path)?;
    }
    Ok(())
}

fn cmd_trace(args: &ParsedArgs) -> Result<(), String> {
    let input = args
        .raw("input")
        .ok_or("trace needs --input PATH (a JSONL trace written by --telemetry)")?;
    let text =
        std::fs::read_to_string(input).map_err(|e| format!("cannot read trace {input:?}: {e}"))?;
    let events = parse_jsonl(&text).map_err(|e| e.to_string())?;
    match args.action.as_deref().unwrap_or("analyze") {
        "analyze" => trace_analyze(&events),
        "export" => trace_export(args, &events),
        "slo" => trace_slo(args, &events),
        "profile" => trace_profile(args, &events),
        other => Err(format!(
            "unknown trace action {other:?} (try analyze, export, slo, profile)\n\n{USAGE}"
        )),
    }
}

fn trace_profile(args: &ParsedArgs, events: &[TraceEvent]) -> Result<(), String> {
    let profile = SelfTimeProfile::from_events(events);
    if profile.is_empty() {
        return Err("trace contains no spans to profile".into());
    }
    if let Some(path) = args.raw("output") {
        std::fs::write(path, profile.folded())
            .map_err(|e| format!("cannot write folded stacks {path:?}: {e}"))?;
        println!(
            "folded stacks written to {path} ({} stacks, {} us total self time)",
            profile.len(),
            profile.total_micros()
        );
        return Ok(());
    }
    match args.raw("top") {
        Some(_) => {
            let n: usize = args.get_or("top", 10).map_err(|e| e.to_string())?;
            println!("top {n} stacks by self time:");
            for (stack, micros) in profile.top(n) {
                println!("  {micros:>12} us  {stack}");
            }
        }
        None => print!("{}", profile.folded()),
    }
    Ok(())
}

fn cmd_bench(args: &ParsedArgs) -> Result<(), String> {
    let action = args
        .action
        .as_deref()
        .ok_or_else(|| format!("bench needs an action (record or compare)\n\n{USAGE}"))?;
    let input = args.raw("input").unwrap_or("results/BENCH_gateway.json");
    let ledger_path = args.raw("ledger").unwrap_or("results/ledger.jsonl");
    let bench_text = std::fs::read_to_string(input)
        .map_err(|e| format!("cannot read bench json {input:?}: {e}"))?;
    match action {
        "record" => {
            let label = args.raw("label").unwrap_or("local");
            let entry = LedgerEntry::from_bench_json(label, &bench_text)?;
            let line = entry.to_jsonl_line();
            use std::io::Write as _;
            let mut file = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(ledger_path)
                .map_err(|e| format!("cannot open ledger {ledger_path:?}: {e}"))?;
            file.write_all(line.as_bytes())
                .map_err(|e| format!("cannot append to ledger {ledger_path:?}: {e}"))?;
            println!(
                "recorded {} scenario(s) from {input} as {:?} in {ledger_path}",
                entry.scenarios.len(),
                entry.label
            );
            Ok(())
        }
        "compare" => {
            let tolerance = ledger::parse_tolerance(args.raw("tolerance").unwrap_or("15%"))?;
            let ledger_text = std::fs::read_to_string(ledger_path)
                .map_err(|e| format!("cannot read ledger {ledger_path:?}: {e}"))?;
            let entries = ledger::parse_ledger(&ledger_text)?;
            let baseline = entries.last().ok_or_else(|| {
                format!("ledger {ledger_path:?} is empty — run bench record first")
            })?;
            let current = LedgerEntry::from_bench_json("current", &bench_text)?;
            let report = ledger::compare(baseline, &current, tolerance);
            print!("{}", report.render());
            if report.regressed() {
                return Err("bench compare found regressions beyond tolerance".into());
            }
            Ok(())
        }
        other => Err(format!(
            "unknown bench action {other:?} (try record, compare)\n\n{USAGE}"
        )),
    }
}

fn trace_analyze(events: &[TraceEvent]) -> Result<(), String> {
    let tree = TraceTree::build(events);
    let roots = tree.request_roots();
    println!("{} records, {} request trees", events.len(), roots.len());
    println!("\n{}", LatencyAttribution::from_events(events).render());
    let slowest = roots.iter().copied().max_by(|&a, &b| {
        let da = tree.event(a).t1 - tree.event(a).t0;
        let db = tree.event(b).t1 - tree.event(b).t0;
        da.partial_cmp(&db).unwrap_or(std::cmp::Ordering::Equal)
    });
    if let Some(root) = slowest {
        println!("slowest request:");
        print!("{}", tree.waterfall(root));
        let path: Vec<&str> = tree
            .critical_path(root)
            .into_iter()
            .map(|i| tree.event(i).name.as_str())
            .collect();
        println!("critical path: {}", path.join(" -> "));
    }
    Ok(())
}

fn trace_export(args: &ParsedArgs, events: &[TraceEvent]) -> Result<(), String> {
    let format = args.raw("format").unwrap_or("chrome");
    if format != "chrome" {
        return Err(format!("--format must be chrome, got {format:?}"));
    }
    let json = chrome_trace_json(events, &ChromeTraceOptions::default());
    match args.raw("output") {
        Some(path) => {
            std::fs::write(path, &json)
                .map_err(|e| format!("cannot write chrome trace {path:?}: {e}"))?;
            println!(
                "chrome trace written to {path} ({} events; load it at https://ui.perfetto.dev)",
                events.len()
            );
        }
        None => println!("{json}"),
    }
    Ok(())
}

fn trace_slo(args: &ParsedArgs, events: &[TraceEvent]) -> Result<(), String> {
    let window: f64 = args.get_or("window", 120.0).map_err(|e| e.to_string())?;
    let step: f64 = args.get_or("step", 60.0).map_err(|e| e.to_string())?;
    let mut config = MonitorConfig::sim_default(0);
    config.latency_quantile = args
        .get_or("quantile", config.latency_quantile)
        .map_err(|e| e.to_string())?;
    config.latency_objective_secs = args
        .get_or("latency-slo", config.latency_objective_secs)
        .map_err(|e| e.to_string())?;
    config.availability_objective = args
        .get_or("availability", config.availability_objective)
        .map_err(|e| e.to_string())?;
    if !(window > 0.0 && window.is_finite()) {
        return Err("--window must be positive and finite".into());
    }
    if !(config.latency_quantile > 0.0 && config.latency_quantile < 1.0) {
        return Err("--quantile must be in (0, 1)".into());
    }
    if !(config.availability_objective > 0.0 && config.availability_objective <= 1.0) {
        return Err("--availability must be in (0, 1]".into());
    }
    config.bucket_secs = if step > 0.0 { step } else { window };
    if !config.bucket_secs.is_finite() {
        return Err("--step must be finite".into());
    }
    println!(
        "SLO: p{:.0} latency < {}s, availability >= {:.2}% (window {window}s, step {}s)",
        config.latency_quantile * 100.0,
        config.latency_objective_secs,
        config.availability_objective * 100.0,
        config.bucket_secs,
    );
    println!(
        "{:>9} {:<6} {:>7} {:>6} {:>6} {:>8} {:>8} {:>9} {:>9}",
        "at_s", "route", "total", "bad", "slow", "avail%", "slow%", "av_burn", "lat_burn"
    );
    let rows = replay_trace(config, events, window);
    for r in &rows {
        let w = &r.burn;
        let pct = |n: u64| {
            if w.total == 0 {
                0.0
            } else {
                100.0 * n as f64 / w.total as f64
            }
        };
        println!(
            "{:>9.1} {:<6} {:>7} {:>6} {:>6} {:>8.2} {:>8.2} {:>9.2} {:>9.2}{}",
            r.at_secs,
            r.route,
            w.total,
            w.bad,
            w.slow,
            100.0 - pct(w.bad),
            pct(w.slow),
            w.availability_burn,
            w.latency_burn,
            if w.violated() { "  VIOLATED" } else { "" },
        );
    }
    let violated = rows.iter().filter(|r| r.burn.violated()).count();
    println!("{violated} of {} windows violated the SLO", rows.len());
    Ok(())
}

fn cmd_sample_size(args: &ParsedArgs) -> Result<(), String> {
    let margin: f64 = args.get_or("margin", 0.01).map_err(|e| e.to_string())?;
    let confidence: u32 = args.get_or("confidence", 95).map_err(|e| e.to_string())?;
    let level = match confidence {
        90 => ConfidenceLevel::P90,
        95 => ConfidenceLevel::P95,
        99 => ConfidenceLevel::P99,
        other => return Err(format!("--confidence must be 90, 95 or 99, got {other}")),
    };
    if !(margin > 0.0 && margin < 1.0) {
        return Err("--margin must be in (0, 1)".into());
    }
    println!(
        "required sample size at {level} confidence, +/-{:.1}% margin: {}",
        margin * 100.0,
        required_sample_size(level, margin, 0.5)
    );
    println!("\nbest-case margins of the tools' fixed windows at {level} confidence:");
    for (name, n) in [
        ("StatusPeople (700)", 700u64),
        ("Socialbakers (2000)", 2_000),
        ("Twitteraudit (5000)", 5_000),
        ("Fake Classifier (9604)", 9_604),
    ] {
        println!(
            "  {name:<24} +/-{:.2}%",
            worst_case_margin(level, n) * 100.0
        );
    }
    Ok(())
}
