//! The golden alert log: a fixed fault-burst scenario driven through
//! [`ServerSim`] with an attached [`SloMonitor`], whose rendered alert
//! log is compared byte-for-byte against a committed fixture. Any change
//! to bucket assignment, window arithmetic, state-machine dwell logic,
//! transition ordering or the log rendering shows up here as a diff —
//! the repo-level guarantee that same-seed, same-fault-plan monitor runs
//! stay byte-identical.
//!
//! The scenario has two engineered incidents on one tool:
//! an availability burst (every request fails for 150 simulated
//! seconds) that must walk `Pending → Firing → Resolved` on both burn
//! rules, and a latency burst (service time jumps past the latency
//! objective) that must fire the latency signal independently.

use fakeaudit_analytics::quota::QuotaExceeded;
use fakeaudit_analytics::{ServiceError, ServiceResponse};
use fakeaudit_detectors::{AuditOutcome, ToolId, VerdictCounts};
use fakeaudit_server::{AuditBackend, OverloadPolicy, Request, ServerConfig, ServerSim};
use fakeaudit_telemetry::{
    MonitorConfig, Signal, SloMonitor, Telemetry, TraceContext, TransitionKind,
};
use fakeaudit_twittersim::{AccountId, Platform, SimTime};

const FIXTURE: &str = include_str!("golden/alerts.log");

/// A scripted backend whose behaviour depends on the server clock:
/// inside `fail` every request errors, inside `slow` service time jumps
/// to `slow_secs`, otherwise it completes in `base_secs`.
struct BurstBackend {
    tool: ToolId,
    base_secs: f64,
    slow_secs: f64,
    fail: (f64, f64),
    slow: (f64, f64),
}

impl BurstBackend {
    fn response(&self, target: AccountId, secs: f64) -> ServiceResponse {
        ServiceResponse {
            outcome: AuditOutcome {
                tool_name: self.tool.abbrev().into(),
                target,
                assessed: vec![],
                counts: VerdictCounts::default(),
                audited_at: SimTime::EPOCH,
                api_elapsed_secs: secs,
                api_calls: 1,
            },
            response_secs: secs,
            served_from_cache: false,
            assessed_at: SimTime::EPOCH,
        }
    }
}

impl AuditBackend for BurstBackend {
    fn tool(&self) -> ToolId {
        self.tool
    }

    fn serve(
        &mut self,
        _platform: &Platform,
        target: AccountId,
        _ctx: &TraceContext,
        now_secs: f64,
    ) -> Result<ServiceResponse, ServiceError> {
        if (self.fail.0..self.fail.1).contains(&now_secs) {
            return Err(ServiceError::Quota(QuotaExceeded { limit: 0, day: 0 }));
        }
        let secs = if (self.slow.0..self.slow.1).contains(&now_secs) {
            self.slow_secs
        } else {
            self.base_secs
        };
        Ok(self.response(target, secs))
    }

    fn serve_stale(&self, _target: AccountId) -> Option<ServiceResponse> {
        None
    }
}

/// Runs the fixed two-incident scenario; returns the monitor.
fn golden_run() -> SloMonitor {
    let platform = Platform::new();
    let telemetry = Telemetry::enabled();
    let monitor = SloMonitor::new(MonitorConfig::sim_default(2014), telemetry.clone());
    let mut sim = ServerSim::with_telemetry(
        &platform,
        ServerConfig {
            // Enough workers that the slow burst completes (slowly)
            // instead of shedding: 45 s service at one arrival per 2 s
            // needs ~23 busy workers at steady state.
            workers_per_tool: 32,
            queue_capacity: 32,
            policy: OverloadPolicy::Shed,
            degraded_secs: 0.25,
            deadline_secs: None,
        },
        telemetry,
    );
    sim.with_monitor(monitor.clone());
    sim.register(Box::new(BurstBackend {
        tool: ToolId::FakeClassifier,
        base_secs: 2.0,
        slow_secs: 45.0,
        fail: (300.0, 450.0),
        slow: (900.0, 1150.0),
    }));
    // One request every 2 simulated seconds for 1 200 seconds; targets
    // cycle so nothing depends on per-target state.
    let trace: Vec<Request> = (0..600)
        .map(|i| Request {
            id: i,
            at: 2.0 * i as f64,
            tool: ToolId::FakeClassifier,
            target: AccountId(i % 16),
        })
        .collect();
    sim.run(&trace);
    monitor
}

#[test]
fn both_incidents_fire_and_resolve() {
    let monitor = golden_run();
    let log = monitor.transitions();
    let fired: Vec<_> = log
        .iter()
        .filter(|t| t.to == TransitionKind::Firing)
        .collect();
    assert!(
        fired.iter().any(|t| t.signal == Signal::Availability),
        "failure burst must fire the availability signal: {log:?}"
    );
    assert!(
        fired.iter().any(|t| t.signal == Signal::Latency),
        "slow burst must fire the latency signal: {log:?}"
    );
    // Everything the run raised is quiet again after the drain ticks.
    let counts = monitor.counts();
    assert_eq!(counts.active_firing, 0);
    assert_eq!(counts.active_pending, 0);
    assert_eq!(counts.pending, counts.resolved);
    // Every firing alert carries an exemplar. Latency exemplars point
    // at completed slow requests, whose `server.request` span must be
    // retained in the trace buffer. Availability exemplars point at the
    // failed request's pre-allocated tree — this scripted backend traces
    // nothing under it (an `OnlineService` would leave `api.fault`
    // evidence there), so only the id's existence is checked.
    let events = monitor.telemetry().events();
    for t in &fired {
        let root = t.exemplar.expect("firing alert carries an exemplar");
        if t.signal == Signal::Latency {
            assert!(
                events.iter().any(|e| e.id == Some(root)),
                "exemplar {root} not retained for {t:?}"
            );
        }
    }
}

#[test]
fn alert_log_matches_committed_fixture() {
    let log = golden_run().render_alert_log();
    assert_eq!(
        log, FIXTURE,
        "golden alert log drifted from crates/server/tests/golden/alerts.log; \
         if the change is intentional, regenerate with \
         `cargo test -p fakeaudit-server --test golden_alerts -- --ignored regenerate` \
         and commit the diff"
    );
}

#[test]
fn alert_log_is_identical_across_runs() {
    assert_eq!(
        golden_run().render_alert_log(),
        golden_run().render_alert_log()
    );
}

/// Regenerates the committed fixture in place. Run explicitly with
/// `-- --ignored regenerate` after an intentional monitor change.
#[test]
#[ignore = "fixture regeneration, run on demand"]
fn regenerate() {
    let log = golden_run().render_alert_log();
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/alerts.log");
    std::fs::write(path, log).expect("write fixture");
}
