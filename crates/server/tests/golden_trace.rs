//! The golden trace: a fixed, RNG-free workload whose JSONL trace is
//! compared byte-for-byte against a committed fixture. Any change to span
//! identity allocation, event ordering, attribute sets or the JSONL
//! encoding shows up here as a diff — the repo-level guarantee that
//! same-seed runs keep producing byte-identical traces.
//!
//! The scenario exercises every request outcome: fresh completions (with
//! and without queue wait), a stale degrade, a no-stale shed, an
//! unregistered-tool shed, and a backend failure.

use fakeaudit_analytics::quota::QuotaExceeded;
use fakeaudit_analytics::{ServiceError, ServiceResponse};
use fakeaudit_detectors::{AuditOutcome, ToolId, VerdictCounts};
use fakeaudit_server::{AuditBackend, OverloadPolicy, Request, ServerConfig, ServerSim};
use fakeaudit_telemetry::sink::parse_jsonl;
use fakeaudit_telemetry::{Telemetry, TraceContext};
use fakeaudit_twittersim::{AccountId, Platform, SimTime};

const FIXTURE: &str = include_str!("golden/trace.jsonl");

/// A constant-time backend; `serve_stale` only knows targets it has
/// already served fresh, so the degrade path can go cold, and serving
/// `failing` errors out (an exhausted quota).
struct FixedBackend {
    tool: ToolId,
    service_secs: f64,
    failing: AccountId,
    known: Vec<AccountId>,
}

impl FixedBackend {
    fn response(&self, target: AccountId, cached: bool) -> ServiceResponse {
        ServiceResponse {
            outcome: AuditOutcome {
                tool_name: self.tool.abbrev().into(),
                target,
                assessed: vec![],
                counts: VerdictCounts::default(),
                audited_at: SimTime::EPOCH,
                api_elapsed_secs: self.service_secs,
                api_calls: 1,
            },
            response_secs: self.service_secs,
            served_from_cache: cached,
            assessed_at: SimTime::EPOCH,
        }
    }
}

impl AuditBackend for FixedBackend {
    fn tool(&self) -> ToolId {
        self.tool
    }

    fn serve(
        &mut self,
        _platform: &Platform,
        target: AccountId,
        _ctx: &TraceContext,
        _now_secs: f64,
    ) -> Result<ServiceResponse, ServiceError> {
        if target == self.failing {
            return Err(ServiceError::Quota(QuotaExceeded { limit: 0, day: 0 }));
        }
        self.known.push(target);
        Ok(self.response(target, false))
    }

    fn serve_stale(&self, target: AccountId) -> Option<ServiceResponse> {
        self.known
            .contains(&target)
            .then(|| self.response(target, true))
    }
}

fn request(id: u64, at: f64, tool: ToolId, target: u64) -> Request {
    Request {
        id,
        at,
        tool,
        target: AccountId(target),
    }
}

/// Runs the fixed scenario and returns (report, trace JSONL).
fn golden_run() -> (fakeaudit_server::ServerReport, String) {
    let platform = Platform::new();
    let telemetry = Telemetry::enabled();
    let mut sim = ServerSim::with_telemetry(
        &platform,
        ServerConfig {
            workers_per_tool: 1,
            queue_capacity: 1,
            policy: OverloadPolicy::DegradeStale,
            degraded_secs: 0.25,
            deadline_secs: None,
        },
        telemetry.clone(),
    );
    sim.register(Box::new(FixedBackend {
        tool: ToolId::FakeClassifier,
        service_secs: 2.0,
        failing: AccountId(9),
        known: Vec::new(),
    }));
    let trace = [
        request(0, 0.0, ToolId::FakeClassifier, 1), // fresh, no wait
        request(1, 0.5, ToolId::FakeClassifier, 2), // queued behind r0
        request(2, 0.6, ToolId::FakeClassifier, 1), // queue full -> stale degrade
        request(3, 0.7, ToolId::FakeClassifier, 3), // queue full, no stale -> shed
        request(4, 1.0, ToolId::StatusPeople, 1),   // unregistered tool -> shed
        request(5, 5.0, ToolId::FakeClassifier, 9), // quota error -> failed
        request(6, 6.0, ToolId::FakeClassifier, 1), // idle again -> fresh
    ];
    let report = sim.run(&trace);
    let mut jsonl = Vec::new();
    telemetry.write_jsonl(&mut jsonl).expect("in-memory write");
    (report, String::from_utf8(jsonl).expect("utf-8 trace"))
}

#[test]
fn scenario_exercises_every_outcome() {
    let (report, jsonl) = golden_run();
    // The unregistered-tool request is recorded and traced as a shed
    // point but never reaches a per-tool queue, so `offered()` (a
    // per-tool total) sees 6 of the 7 requests.
    assert_eq!(report.records.len(), 7);
    assert_eq!(report.offered(), 6);
    assert_eq!(report.completed(), 3);
    assert_eq!(report.degraded(), 1);
    assert_eq!(report.failed(), 1);
    assert_eq!(report.shed(), 1);
    assert_eq!(jsonl.matches("server.shed").count(), 2);
    assert_eq!(jsonl.matches("server.failed").count(), 1);
}

#[test]
fn trace_matches_committed_fixture() {
    let (_, jsonl) = golden_run();
    assert_eq!(
        jsonl, FIXTURE,
        "golden trace drifted from crates/server/tests/golden/trace.jsonl; \
         if the change is intentional, regenerate the fixture from this \
         test's `golden_run` output"
    );
}

#[test]
fn fixture_round_trips_through_the_parser() {
    let (_, jsonl) = golden_run();
    let reparsed = parse_jsonl(FIXTURE).expect("fixture parses");
    let mut rewritten = Vec::new();
    fakeaudit_telemetry::sink::write_jsonl(&reparsed, &mut rewritten).expect("in-memory write");
    assert_eq!(String::from_utf8(rewritten).unwrap(), jsonl);
}
