//! E9 — latency attribution under load (extension).
//!
//! E8 answers *how slow* the audit service gets as offered load
//! approaches capacity; this driver answers *where the time goes*. It
//! reruns the prewarmed E8 sweep with live causal tracing on, so every
//! answered request leaves a `server.request` → `server.queue_wait` /
//! `server.service` span tree, then decomposes the p50 and p99 request
//! per tool into queue / crawl / cache / compute shares and judges an
//! SLO (p95 latency + availability) by replaying the trace through the
//! SLO monitor's sliding windows.
//!
//! The sweep is cache-served end to end (every target prewarmed at every
//! tool), so the crawl share is structurally zero here — fresh-crawl
//! attribution shows up in `fakeaudit audit --telemetry` traces instead.
//! The story this table tells is the handover from cache to queue: at
//! low rate the tail request is cache time, past the knee it is queue
//! wait almost entirely.
//!
//! Determinism: each rate cell owns a private [`Telemetry`] handle and a
//! single-threaded event loop, so span ids are allocated in event order
//! and the table (and any exported trace) is byte-identical across runs.
//! `std::thread::scope` fans the cells across OS threads; results are collected
//! in rate order.

use fakeaudit_server::{generate, LoadSpec, OverloadPolicy, ServerConfig, ServerSim};
use fakeaudit_stats::rng::derive_seed;
use fakeaudit_telemetry::{replay_trace, Breakdown, LatencyAttribution, MonitorConfig, Telemetry};
use fakeaudit_twittersim::AccountId;
use std::fmt::Write as _;

use super::service_load::{build_services, build_targets};
use super::Scale;

/// One `(rate, tool)` cell: where the median and tail request's latency
/// went, as percentage shares of that request's total.
#[derive(Debug, Clone, PartialEq)]
pub struct AttributionRow {
    /// Offered arrival rate in requests/second.
    pub offered_rate: f64,
    /// Tool abbreviation, or `ALL` for the aggregate row.
    pub tool: String,
    /// Answered requests attributed for this tool.
    pub requests: u64,
    /// p50 request's end-to-end latency (simulated seconds).
    pub p50_total: f64,
    /// p50 queue-wait share in percent.
    pub p50_queue: f64,
    /// p50 API-crawl share in percent.
    pub p50_crawl: f64,
    /// p50 cache-read share in percent.
    pub p50_cache: f64,
    /// p50 remainder (classification, overheads) in percent.
    pub p50_compute: f64,
    /// p99 request's end-to-end latency (simulated seconds).
    pub p99_total: f64,
    /// p99 queue-wait share in percent.
    pub p99_queue: f64,
    /// p99 API-crawl share in percent.
    pub p99_crawl: f64,
    /// p99 cache-read share in percent.
    pub p99_cache: f64,
    /// p99 remainder share in percent.
    pub p99_compute: f64,
}

/// SLO verdict for one rate: the trace replayed through the SLO monitor.
#[derive(Debug, Clone, PartialEq)]
pub struct SloRow {
    /// Offered arrival rate in requests/second.
    pub offered_rate: f64,
    /// (route, step boundary) windows evaluated.
    pub windows: u64,
    /// Windows where either error budget burned past 1×.
    pub violated: u64,
    /// Worst availability burn rate across windows.
    pub worst_availability_burn: f64,
    /// Worst latency burn rate across windows.
    pub worst_latency_burn: f64,
}

/// Outcome of the latency-attribution sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct LatencyAttributionResult {
    /// Attribution rows grouped by ascending rate, then tool name.
    pub rows: Vec<AttributionRow>,
    /// One SLO verdict per rate, ascending.
    pub slo: Vec<SloRow>,
    /// The swept arrival rates (req/s).
    pub rates: Vec<f64>,
    /// Trace window in simulated seconds.
    pub duration_secs: f64,
    /// Workers per tool.
    pub workers_per_tool: usize,
    /// Admission-queue capacity per tool.
    pub queue_capacity: usize,
    /// Prewarmed targets in the popularity set.
    pub targets: usize,
    /// Latency objective (seconds at the SLO quantile).
    pub latency_objective_secs: f64,
    /// Availability objective in `[0, 1]`.
    pub availability_objective: f64,
}

/// `part / total` as a percentage share; zero for an empty total.
fn share(b: &Breakdown, part: f64) -> f64 {
    if b.total > 0.0 {
        100.0 * part / b.total
    } else {
        0.0
    }
}

/// Runs one rate cell with live tracing and reduces its trace.
fn run_cell(
    platform: &fakeaudit_twittersim::Platform,
    base: &super::service_load::Services,
    trace: &[fakeaudit_server::Request],
    rate: f64,
    config: ServerConfig,
    objectives: &MonitorConfig,
) -> (Vec<AttributionRow>, SloRow) {
    let clones = base.clone();
    let telemetry = Telemetry::enabled();
    let mut sim = ServerSim::with_telemetry(platform, config, telemetry.clone());
    sim.register(Box::new(clones.fc));
    sim.register(Box::new(clones.ta));
    sim.register(Box::new(clones.sp));
    sim.register(Box::new(clones.sb));
    let _report = sim.run(trace);

    let events = telemetry.events();
    let attribution = LatencyAttribution::from_events(&events);
    let rows = attribution
        .tools
        .iter()
        .map(|t| AttributionRow {
            offered_rate: rate,
            tool: t.tool.clone(),
            requests: t.requests as u64,
            p50_total: t.p50.total,
            p50_queue: share(&t.p50, t.p50.queue),
            p50_crawl: share(&t.p50, t.p50.crawl),
            p50_cache: share(&t.p50, t.p50.cache),
            p50_compute: share(&t.p50, t.p50.compute),
            p99_total: t.p99.total,
            p99_queue: share(&t.p99, t.p99.queue),
            p99_crawl: share(&t.p99, t.p99.crawl),
            p99_cache: share(&t.p99, t.p99.cache),
            p99_compute: share(&t.p99, t.p99.compute),
        })
        .collect();

    let windows = replay_trace(objectives.clone(), &events, SLO_WINDOW_SECS);
    let worst = |f: fn(&fakeaudit_telemetry::WindowBurn) -> f64| {
        windows.iter().map(|w| f(&w.burn)).fold(0.0, f64::max)
    };
    let slo_row = SloRow {
        offered_rate: rate,
        windows: windows.len() as u64,
        violated: windows.iter().filter(|w| w.burn.violated()).count() as u64,
        worst_availability_burn: worst(|w| w.availability_burn),
        worst_latency_burn: worst(|w| w.latency_burn),
    };
    (rows, slo_row)
}

/// SLO window width (simulated seconds), judged at every
/// [`MonitorConfig::bucket_secs`] boundary.
const SLO_WINDOW_SECS: f64 = 120.0;

/// Runs the E9 latency-attribution sweep.
///
/// # Panics
///
/// Panics on internal inconsistencies only (scenario build, prewarm).
pub fn run_latency_attribution(scale: Scale, seed: u64) -> LatencyAttributionResult {
    const TARGETS: usize = 4;
    let quick = scale.materialize_cap < 10_000;
    let rates: Vec<f64> = if quick {
        vec![0.6, 9.6]
    } else {
        vec![0.5, 2.0, 8.0]
    };
    let duration_secs = if quick { 400.0 } else { 1_200.0 };
    let config = ServerConfig {
        workers_per_tool: 2,
        queue_capacity: 8,
        policy: OverloadPolicy::Shed,
        degraded_secs: 0.5,
        deadline_secs: None,
    };
    let objectives = MonitorConfig {
        bucket_secs: 60.0,
        ..MonitorConfig::sim_default(seed)
    };

    let (platform, targets) = build_targets(scale, seed, TARGETS);
    let base = build_services(scale, seed, &platform, &targets);
    let ranked: Vec<AccountId> = targets.iter().map(|t| t.target).collect();

    let traces: Vec<Vec<fakeaudit_server::Request>> = rates
        .iter()
        .enumerate()
        .map(|(i, &rate)| {
            let load = LoadSpec::poisson(rate, duration_secs);
            generate(&load, &ranked, derive_seed(seed, &format!("e9-trace-{i}")))
        })
        .collect();

    let cells: Vec<(Vec<AttributionRow>, SloRow)> = std::thread::scope(|s| {
        let handles: Vec<_> = traces
            .iter()
            .zip(&rates)
            .map(|(trace, &rate)| {
                let (platform, base, objectives) = (&platform, &base, &objectives);
                s.spawn(move || run_cell(platform, base, trace, rate, config, objectives))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("sweep cell panicked"))
            .collect()
    });

    let mut rows = Vec::new();
    let mut slo = Vec::new();
    for (cell_rows, cell_slo) in cells {
        rows.extend(cell_rows);
        slo.push(cell_slo);
    }
    LatencyAttributionResult {
        rows,
        slo,
        rates,
        duration_secs,
        workers_per_tool: config.workers_per_tool,
        queue_capacity: config.queue_capacity,
        targets: TARGETS,
        latency_objective_secs: objectives.latency_objective_secs,
        availability_objective: objectives.availability_objective,
    }
}

/// Renders the attribution and SLO tables.
pub fn render(r: &LatencyAttributionResult) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "E9: latency attribution under load ({} targets, {} workers/tool, queue {}, {:.0}s window)",
        r.targets, r.workers_per_tool, r.queue_capacity, r.duration_secs
    );
    let _ = writeln!(
        out,
        "{:<7}{:<5}{:>9}  {:<4}{:>9}{:>8}{:>8}{:>8}{:>9}",
        "rate", "tool", "requests", "pct", "total_s", "queue%", "crawl%", "cache%", "compute%"
    );
    for row in &r.rows {
        for (label, total, queue, crawl, cache, compute) in [
            (
                "p50",
                row.p50_total,
                row.p50_queue,
                row.p50_crawl,
                row.p50_cache,
                row.p50_compute,
            ),
            (
                "p99",
                row.p99_total,
                row.p99_queue,
                row.p99_crawl,
                row.p99_cache,
                row.p99_compute,
            ),
        ] {
            let _ = writeln!(
                out,
                "{:<7.1}{:<5}{:>9}  {:<4}{:>9.3}{:>8.1}{:>8.1}{:>8.1}{:>9.1}",
                row.offered_rate,
                row.tool,
                row.requests,
                label,
                total,
                queue,
                crawl,
                cache,
                compute
            );
        }
    }
    let _ = writeln!(
        out,
        "SLO: p95 latency < {:.0}s and availability >= {:.0}% over sliding windows",
        r.latency_objective_secs,
        r.availability_objective * 100.0
    );
    let _ = writeln!(
        out,
        "{:<7}{:>9}{:>10}{:>13}{:>13}",
        "rate", "windows", "violated", "avail burn", "lat burn"
    );
    for s in &r.slo {
        let _ = writeln!(
            out,
            "{:<7.1}{:>9}{:>10}{:>13.2}{:>13.2}",
            s.offered_rate, s.windows, s.violated, s.worst_availability_burn, s.worst_latency_burn
        );
    }
    let _ = writeln!(
        out,
        "the tail request's budget migrates as the service saturates: at\n\
         low rate it is cache-read time, past the knee the queue owns it,\n\
         and the availability budget burns as shed answers mount."
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result() -> &'static LatencyAttributionResult {
        static R: std::sync::OnceLock<LatencyAttributionResult> = std::sync::OnceLock::new();
        R.get_or_init(|| run_latency_attribution(Scale::quick(), 7))
    }

    fn all_row(r: &LatencyAttributionResult, rate: f64) -> &AttributionRow {
        r.rows
            .iter()
            .find(|row| row.offered_rate == rate && row.tool == "ALL")
            .expect("ALL row present")
    }

    #[test]
    fn every_rate_attributes_every_tool() {
        let r = result();
        for &rate in &r.rates {
            let tools: Vec<&str> = r
                .rows
                .iter()
                .filter(|row| row.offered_rate == rate)
                .map(|row| row.tool.as_str())
                .collect();
            assert!(tools.len() >= 5, "4 tools + ALL at rate {rate}: {tools:?}");
            assert!(tools.contains(&"ALL"));
        }
    }

    #[test]
    fn same_seed_same_result() {
        let again = run_latency_attribution(Scale::quick(), 7);
        assert_eq!(result(), &again);
        assert_eq!(render(result()), render(&again));
    }

    #[test]
    fn shares_sum_to_the_request() {
        for row in &result().rows {
            for (total, parts) in [
                (
                    row.p50_total,
                    row.p50_queue + row.p50_crawl + row.p50_cache + row.p50_compute,
                ),
                (
                    row.p99_total,
                    row.p99_queue + row.p99_crawl + row.p99_cache + row.p99_compute,
                ),
            ] {
                if total > 0.0 {
                    assert!(
                        (parts - 100.0).abs() < 0.5,
                        "{} @ {}: shares sum to {parts}",
                        row.tool,
                        row.offered_rate
                    );
                }
            }
        }
    }

    #[test]
    fn prewarmed_sweep_never_crawls() {
        for row in &result().rows {
            assert_eq!(row.p50_crawl, 0.0, "{} @ {}", row.tool, row.offered_rate);
            assert_eq!(row.p99_crawl, 0.0, "{} @ {}", row.tool, row.offered_rate);
        }
    }

    #[test]
    fn queue_owns_the_tail_past_the_knee() {
        let r = result();
        let (low, high) = (
            all_row(r, *r.rates.first().unwrap()),
            all_row(r, *r.rates.last().unwrap()),
        );
        assert!(
            high.p99_queue > low.p99_queue,
            "p99 queue share should rise with load: {} vs {}",
            high.p99_queue,
            low.p99_queue
        );
        assert!(
            high.p99_queue > 50.0,
            "past the knee the tail is queue-dominated: {}",
            high.p99_queue
        );
    }

    #[test]
    fn slo_holds_below_the_knee_and_breaks_past_it() {
        let r = result();
        let (low, high) = (r.slo.first().unwrap(), r.slo.last().unwrap());
        assert!(low.windows > 0);
        assert_eq!(low.violated, 0, "below the knee the SLO holds");
        assert!(high.violated > 0, "past the knee shed answers burn budget");
        assert!(high.worst_availability_burn > 1.0);
    }

    #[test]
    fn render_lists_attribution_and_slo() {
        let text = render(result());
        assert!(text.contains("E9: latency attribution"));
        assert!(text.contains("queue%"));
        assert!(text.contains("violated"));
        assert!(text.contains("ALL"));
    }
}
