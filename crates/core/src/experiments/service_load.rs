//! E8 — the service under offered load (extension).
//!
//! Table II times one client's request; this driver extends it to the
//! question a production deployment actually faces: *how does latency
//! degrade as offered load approaches capacity, and what does each
//! overload policy trade away past the knee?* It sweeps an open-loop
//! Poisson arrival rate across all three admission policies and reports
//! throughput, latency percentiles and shed/degrade rates per cell.
//!
//! The sweep deliberately drives **prewarmed** (cache-served) traffic:
//! every target has a cached report at every tool, so per-request service
//! time sits in the 2–4 s §IV-C band and the saturation knee is set by
//! queueing alone (capacity ≈ workers ÷ mean service time). Cold-start
//! heavy tails — a fresh FC audit takes tens of simulated minutes — are
//! exercised separately in `examples/service_under_load.rs`, where they
//! belong: one flash crowd, not a steady-state sweep.
//!
//! Determinism: each sweep cell runs a single-threaded event loop over
//! services cloned from one prewarmed base set, and the arrival trace per
//! rate is derived from the master seed alone — so the table is
//! byte-identical across runs. `std::thread::scope` fans the independent
//! cells across OS threads; results are collected in grid order, so the
//! parallelism never touches the output.

use fakeaudit_analytics::{OnlineService, ServiceProfile};
use fakeaudit_detectors::{FakeProjectEngine, Socialbakers, StatusPeople, Twitteraudit};
use fakeaudit_population::{BuiltTarget, ClassMix, TargetScenario};
use fakeaudit_server::{generate, LoadSpec, OverloadPolicy, ServerConfig, ServerSim};
use fakeaudit_stats::rng::derive_seed;
use fakeaudit_store::SharedWriter;
use fakeaudit_twittersim::{AccountId, Platform};
use std::fmt::Write as _;

use super::Scale;

/// One `(policy, offered rate)` cell of the sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceLoadRow {
    /// Overload policy label (`block` / `shed` / `degrade`).
    pub policy: String,
    /// Offered arrival rate in requests/second.
    pub offered_rate: f64,
    /// Requests that arrived within the window.
    pub offered: u64,
    /// Requests served by a worker.
    pub completed: u64,
    /// Requests answered from stale cache (degrade policy).
    pub degraded: u64,
    /// Requests refused at admission.
    pub shed: u64,
    /// Requests that reached a worker but errored.
    pub failed: u64,
    /// Answered requests (completed + degraded) per second of makespan.
    pub throughput: f64,
    /// Worker-served requests per second of makespan — the curve that
    /// saturates at the knee under every policy (block stretches the
    /// makespan, shed and degrade divert the overflow, but workers never
    /// serve faster than capacity).
    pub served_throughput: f64,
    /// Median end-to-end latency (simulated seconds).
    pub p50: f64,
    /// 95th-percentile latency.
    pub p95: f64,
    /// 99th-percentile latency.
    pub p99: f64,
    /// Fraction of offered requests shed.
    pub shed_rate: f64,
    /// Mean worker utilisation in `[0, 1]`.
    pub utilisation: f64,
}

/// Outcome of the offered-load sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceLoadResult {
    /// Rows grouped by policy, then ascending rate.
    pub rows: Vec<ServiceLoadRow>,
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
}

/// Builds the popularity-ranked target set on one platform. Shared with
/// E9, which attributes latency over the same prewarmed world.
pub(super) fn build_targets(scale: Scale, seed: u64, count: usize) -> (Platform, Vec<BuiltTarget>) {
    let followers = (scale.materialize_cap / 10).max(400);
    let mut platform = Platform::new();
    let targets = (0..count)
        .map(|i| {
            TargetScenario::new(
                format!("e8_target_{i}"),
                followers,
                ClassMix::new(0.25, 0.15, 0.60).expect("valid mix"),
            )
            .build(&mut platform, derive_seed(seed, &format!("e8-build-{i}")))
            .expect("scenario builds")
        })
        .collect();
    (platform, targets)
}

/// The four services, quota-free (the sweep measures queueing, not
/// Socialbakers' ten-a-day limit) and prewarmed for every target.
pub(super) fn build_services(
    scale: Scale,
    seed: u64,
    platform: &Platform,
    targets: &[BuiltTarget],
) -> Services {
    let unquoted = |p: ServiceProfile| ServiceProfile {
        daily_quota: None,
        ..p
    };
    let mut services = Services {
        fc: OnlineService::new(
            FakeProjectEngine::with_default_model(derive_seed(seed, "e8-fc-model"))
                .with_sample_size(scale.fc_sample),
            unquoted(ServiceProfile::fake_classifier()),
            derive_seed(seed, "e8-svc-fc"),
        ),
        ta: OnlineService::new(
            Twitteraudit::new(),
            unquoted(ServiceProfile::twitteraudit()),
            derive_seed(seed, "e8-svc-ta"),
        ),
        sp: OnlineService::new(
            StatusPeople::new(),
            unquoted(ServiceProfile::statuspeople()),
            derive_seed(seed, "e8-svc-sp"),
        ),
        sb: OnlineService::new(
            Socialbakers::new(),
            unquoted(ServiceProfile::socialbakers()),
            derive_seed(seed, "e8-svc-sb"),
        ),
    };
    for t in targets {
        services.fc.prewarm(platform, t.target).expect("fc prewarm");
        services.ta.prewarm(platform, t.target).expect("ta prewarm");
        services.sp.prewarm(platform, t.target).expect("sp prewarm");
        services.sb.prewarm(platform, t.target).expect("sb prewarm");
    }
    services
}

/// The prewarmed base service set, cloned once per sweep cell.
#[derive(Clone)]
pub(super) struct Services {
    pub(super) fc: OnlineService<FakeProjectEngine>,
    pub(super) ta: OnlineService<Twitteraudit>,
    pub(super) sp: OnlineService<StatusPeople>,
    pub(super) sb: OnlineService<Socialbakers>,
}

/// A prewarmed serving world for the *wall-clock* entry points — the
/// `fakeaudit serve` gateway and the `exp_http_load` bench driver.
///
/// Same construction as the E8 sweep (popularity-ranked targets, quota-
/// free Table II services, every target prewarmed at every tool), so
/// wall-clock measurements and sim sweeps describe the same workload.
/// The world is built once and backends are *cloned* out of it: each
/// gateway worker thread owns an independent clone, exactly as each E8
/// sweep cell does.
#[derive(Clone)]
pub struct ServingWorld {
    /// The platform every service audits against.
    pub platform: Platform,
    /// Popularity-ranked prewarmed targets (the Zipf universe).
    pub targets: Vec<AccountId>,
    base: Services,
}

impl ServingWorld {
    /// Builds the platform, `target_count` prewarmed targets, and the
    /// four quota-free services.
    ///
    /// # Panics
    ///
    /// Panics on internal inconsistencies only (scenario build, prewarm).
    pub fn build(scale: Scale, seed: u64, target_count: usize) -> Self {
        let (platform, built) = build_targets(scale, seed, target_count);
        let base = build_services(scale, seed, &platform, &built);
        Self {
            platform,
            targets: built.iter().map(|t| t.target).collect(),
            base,
        }
    }

    /// `copies` independent backend clones for `tool`, boxed for a
    /// gateway worker pool (callers ask one more for the stale-read
    /// path), each recording service-level metrics (cache hits, breaker
    /// transitions) into `telemetry` and, when `breaker` is given,
    /// guarding its fresh-audit path with a per-clone circuit breaker.
    pub fn armed_backends(
        &self,
        tool: fakeaudit_detectors::ToolId,
        copies: usize,
        telemetry: &fakeaudit_telemetry::Telemetry,
        breaker: Option<fakeaudit_analytics::BreakerConfig>,
    ) -> Vec<Box<dyn fakeaudit_server::AuditBackend + Send>> {
        use fakeaudit_detectors::ToolId;
        fn arm<A: fakeaudit_detectors::FollowerAuditor + Clone>(
            svc: &OnlineService<A>,
            telemetry: &fakeaudit_telemetry::Telemetry,
            breaker: Option<fakeaudit_analytics::BreakerConfig>,
        ) -> OnlineService<A> {
            let svc = svc.clone().with_telemetry(telemetry.clone());
            match breaker {
                Some(cfg) => svc.with_breaker(cfg),
                None => svc,
            }
        }
        (0..copies)
            .map(|_| -> Box<dyn fakeaudit_server::AuditBackend + Send> {
                match tool {
                    ToolId::FakeClassifier => Box::new(arm(&self.base.fc, telemetry, breaker)),
                    ToolId::Twitteraudit => Box::new(arm(&self.base.ta, telemetry, breaker)),
                    ToolId::StatusPeople => Box::new(arm(&self.base.sp, telemetry, breaker)),
                    ToolId::Socialbakers => Box::new(arm(&self.base.sb, telemetry, breaker)),
                }
            })
            .collect()
    }
}

/// Runs one sweep cell: fresh clones, one deterministic event loop.
fn run_cell(
    platform: &Platform,
    base: &Services,
    trace: &[fakeaudit_server::Request],
    policy: OverloadPolicy,
    rate: f64,
    config: ServerConfig,
    persist: Option<SharedWriter>,
) -> ServiceLoadRow {
    let clones = base.clone();
    let mut sim = ServerSim::new(platform, ServerConfig { policy, ..config });
    if let Some(writer) = persist {
        sim.persist_into(writer);
    }
    sim.register(Box::new(clones.fc));
    sim.register(Box::new(clones.ta));
    sim.register(Box::new(clones.sp));
    sim.register(Box::new(clones.sb));
    let report = sim.run(trace);
    ServiceLoadRow {
        policy: policy.label().to_string(),
        offered_rate: rate,
        offered: report.offered(),
        completed: report.completed(),
        degraded: report.degraded(),
        shed: report.shed(),
        failed: report.failed(),
        throughput: report.throughput(),
        served_throughput: if report.makespan > 0.0 {
            report.completed() as f64 / report.makespan
        } else {
            0.0
        },
        p50: report.latency_percentile(0.5),
        p95: report.latency_percentile(0.95),
        p99: report.latency_percentile(0.99),
        shed_rate: report.shed_rate(),
        utilisation: report.utilisation(),
    }
}

/// Runs the E8 offered-load sweep.
///
/// # Panics
///
/// Panics on internal inconsistencies only (scenario build, prewarm).
pub fn run_service_load(scale: Scale, seed: u64) -> ServiceLoadResult {
    run_service_load_persisted(scale, seed, None)
}

/// [`run_service_load`] with an optional audit-history writer. With a
/// writer the cells run *serially* in grid order — every completed audit
/// appends through the one shared writer, and serial order is what makes
/// the resulting segment bytes a pure function of the seed. Without one
/// the independent cells fan out across OS threads as before.
///
/// # Panics
///
/// Panics on internal inconsistencies only (scenario build, prewarm).
pub fn run_service_load_persisted(
    scale: Scale,
    seed: u64,
    persist: Option<SharedWriter>,
) -> ServiceLoadResult {
    const TARGETS: usize = 4;
    let quick = scale.materialize_cap < 10_000;
    let rates: Vec<f64> = if quick {
        vec![0.6, 2.4, 9.6]
    } else {
        vec![0.5, 1.0, 2.0, 4.0, 8.0]
    };
    let duration_secs = if quick { 400.0 } else { 1_200.0 };
    let config = ServerConfig {
        workers_per_tool: 2,
        queue_capacity: 8,
        policy: OverloadPolicy::Shed,
        degraded_secs: 0.5,
        deadline_secs: None,
    };

    let (platform, targets) = build_targets(scale, seed, TARGETS);
    let base = build_services(scale, seed, &platform, &targets);
    let ranked: Vec<AccountId> = targets.iter().map(|t| t.target).collect();

    // One trace per rate, shared across policies so the three policy rows
    // at a given rate answer the *same* arrivals.
    let traces: Vec<Vec<fakeaudit_server::Request>> = rates
        .iter()
        .enumerate()
        .map(|(i, &rate)| {
            let spec = LoadSpec::poisson(rate, duration_secs);
            generate(&spec, &ranked, derive_seed(seed, &format!("e8-trace-{i}")))
        })
        .collect();

    // Fan the independent cells across OS threads; collect in grid order
    // so thread scheduling never reorders the table. A history writer
    // forces the serial path: interleaved appends from concurrent cells
    // would make the segment bytes depend on thread scheduling.
    let cells: Vec<(OverloadPolicy, usize)> = OverloadPolicy::ALL
        .iter()
        .flat_map(|&p| (0..rates.len()).map(move |i| (p, i)))
        .collect();
    let rows: Vec<ServiceLoadRow> = match persist {
        Some(writer) => cells
            .iter()
            .map(|&(policy, i)| {
                run_cell(
                    &platform,
                    &base,
                    &traces[i],
                    policy,
                    rates[i],
                    config,
                    Some(writer.clone()),
                )
            })
            .collect(),
        None => std::thread::scope(|s| {
            let handles: Vec<_> = cells
                .iter()
                .map(|&(policy, i)| {
                    let (platform, base, trace) = (&platform, &base, &traces[i]);
                    let rate = rates[i];
                    s.spawn(move || run_cell(platform, base, trace, policy, rate, config, None))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("sweep cell panicked"))
                .collect()
        }),
    };

    ServiceLoadResult {
        rows,
        rates,
        duration_secs,
        workers_per_tool: config.workers_per_tool,
        queue_capacity: config.queue_capacity,
        targets: TARGETS,
    }
}

/// Renders the sweep table.
pub fn render(r: &ServiceLoadResult) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "E8: service under offered load ({} targets, {} workers/tool, queue {}, {:.0}s window)",
        r.targets, r.workers_per_tool, r.queue_capacity, r.duration_secs
    );
    let _ = writeln!(
        out,
        "{:<9}{:>7}{:>9}{:>9}{:>9}{:>7}{:>11}{:>9}{:>9}{:>9}{:>7}",
        "policy",
        "rate",
        "offered",
        "done",
        "degraded",
        "shed",
        "thru (r/s)",
        "p50 (s)",
        "p95 (s)",
        "p99 (s)",
        "util"
    );
    for row in &r.rows {
        let _ = writeln!(
            out,
            "{:<9}{:>7.1}{:>9}{:>9}{:>9}{:>7}{:>11.2}{:>9.1}{:>9.1}{:>9.1}{:>6.0}%",
            row.policy,
            row.offered_rate,
            row.offered,
            row.completed,
            row.degraded,
            row.shed,
            row.served_throughput,
            row.p50,
            row.p95,
            row.p99,
            row.utilisation * 100.0,
        );
    }
    let _ = writeln!(
        out,
        "past the knee (≈ workers ÷ mean cached service time) the policies\n\
         diverge: block preserves every request but lets p99 run away,\n\
         shed holds latency flat by refusing the overflow, and degrade\n\
         answers it with stale reports in sub-second time."
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result() -> &'static ServiceLoadResult {
        static R: std::sync::OnceLock<ServiceLoadResult> = std::sync::OnceLock::new();
        R.get_or_init(|| run_service_load(Scale::quick(), 7))
    }

    fn rows_of<'a>(r: &'a ServiceLoadResult, policy: &str) -> Vec<&'a ServiceLoadRow> {
        r.rows.iter().filter(|row| row.policy == policy).collect()
    }

    #[test]
    fn grid_covers_policies_by_rates() {
        let r = result();
        assert_eq!(r.rows.len(), 3 * r.rates.len());
        for policy in ["block", "shed", "degrade"] {
            assert_eq!(rows_of(r, policy).len(), r.rates.len(), "{policy}");
        }
    }

    #[test]
    fn same_seed_same_table() {
        let again = run_service_load(Scale::quick(), 7);
        assert_eq!(result(), &again);
        assert_eq!(render(result()), render(&again));
    }

    #[test]
    fn conservation_holds_in_every_cell() {
        for row in &result().rows {
            assert_eq!(
                row.completed + row.degraded + row.shed + row.failed,
                row.offered,
                "{} @ {}",
                row.policy,
                row.offered_rate
            );
            assert_eq!(row.failed, 0, "quota-free sweep must not fail requests");
        }
    }

    #[test]
    fn throughput_saturates_past_the_knee() {
        for policy in ["block", "shed", "degrade"] {
            let rows = rows_of(result(), policy);
            let (low, high) = (rows.first().unwrap(), rows.last().unwrap());
            // Below the knee the service keeps up with the offered rate...
            assert!(
                low.throughput > low.offered_rate * 0.8,
                "{policy}: low-rate throughput {} vs offered {}",
                low.throughput,
                low.offered_rate
            );
            // ...past it, worker-served throughput caps out well below it.
            assert!(
                high.served_throughput < high.offered_rate * 0.6,
                "{policy}: served throughput {} vs offered {}",
                high.served_throughput,
                high.offered_rate
            );
            // The knee itself is policy-independent: workers never serve
            // faster than capacity, whichever way the overflow is handled.
            assert!(
                high.served_throughput > low.throughput * 0.8,
                "{policy}: saturated plateau {} fell below low-load rate {}",
                high.served_throughput,
                low.throughput
            );
        }
    }

    #[test]
    fn policies_diverge_past_the_knee() {
        let r = result();
        let last = |policy| *rows_of(r, policy).last().unwrap();
        let (block, shed, degrade) = (last("block"), last("shed"), last("degrade"));
        // Block answers everything at the price of runaway latency.
        assert_eq!(block.shed, 0);
        assert_eq!(block.completed, block.offered);
        assert!(
            block.p99 > shed.p99 * 2.0,
            "block p99 {} vs shed p99 {}",
            block.p99,
            shed.p99
        );
        // Shed keeps latency bounded by refusing the overflow.
        assert!(shed.shed_rate > 0.3, "shed rate {}", shed.shed_rate);
        // Degrade answers the overflow from stale cache instead of shedding
        // (every sweep target is prewarmed, so nothing is ever cold).
        assert!(degrade.degraded > 0);
        assert_eq!(degrade.shed, 0);
        assert!(degrade.p99 <= block.p99);
    }

    #[test]
    fn latency_percentiles_rise_with_load() {
        for policy in ["block", "shed", "degrade"] {
            let rows = rows_of(result(), policy);
            let (low, high) = (rows.first().unwrap(), rows.last().unwrap());
            assert!(
                high.p99 >= low.p99,
                "{policy}: p99 {} at high load vs {} at low",
                high.p99,
                low.p99
            );
            for row in rows {
                assert!(row.p50 <= row.p95 && row.p95 <= row.p99);
            }
        }
    }

    #[test]
    fn render_lists_every_policy_and_rate() {
        let text = render(result());
        for policy in ["block", "shed", "degrade"] {
            assert!(text.contains(policy), "{policy} missing:\n{text}");
        }
        assert!(text.contains("thru (r/s)"));
        assert!(text.contains("p99"));
    }

    #[test]
    fn persisted_sweep_matches_parallel_and_is_byte_deterministic() {
        use fakeaudit_store::{open_shared, Store};
        let base =
            std::env::temp_dir().join(format!("fakeaudit-e8-persist-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&base);
        let dirs = [base.join("a"), base.join("b")];
        for dir in &dirs {
            let writer = open_shared(dir).expect("open store");
            let table = run_service_load_persisted(Scale::quick(), 7, Some(writer.clone()));
            // Serial persisted cells must reproduce the threaded table.
            assert_eq!(&table, result());
            let telemetry = fakeaudit_telemetry::Telemetry::disabled();
            let health = fakeaudit_server::flush_writer(&writer, &telemetry).expect("flush");
            assert!(health.flushed_rows > 0, "sweep persisted no audits");
        }
        let list = |dir: &std::path::Path| {
            let mut names: Vec<String> = std::fs::read_dir(dir)
                .expect("read store dir")
                .map(|e| e.expect("entry").file_name().into_string().expect("utf8"))
                .collect();
            names.sort();
            names
        };
        let (a, b) = (list(&dirs[0]), list(&dirs[1]));
        assert_eq!(a, b, "same seed must write the same segment files");
        assert!(!a.is_empty());
        for name in &a {
            let left = std::fs::read(dirs[0].join(name)).expect("read a");
            let right = std::fs::read(dirs[1].join(name)).expect("read b");
            assert_eq!(left, right, "{name} differs between identical runs");
        }
        let store = Store::open(&dirs[0]).expect("open for read");
        let answered: u64 = result().rows.iter().map(|r| r.completed + r.degraded).sum();
        assert_eq!(store.total_rows(), answered, "one row per answered audit");
        let _ = std::fs::remove_dir_all(&base);
    }
}
