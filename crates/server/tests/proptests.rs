//! Property tests for admission control and the event loop: the
//! invariants ISSUE 3 pins down — bounded queues stay bounded, per-tool
//! service order is FIFO, and no request is ever lost or double-counted,
//! whatever the policy — plus the live-tracing invariants of ISSUE 4
//! (every offered request is trace-accounted exactly once, and request
//! trees are well-formed) and the SLO-monitor invariants of ISSUE 9:
//! the alert state machine never skips a state, the alert log is a
//! deterministic function of the observation stream, and histogram
//! snapshots merge losslessly.

use fakeaudit_analytics::{ServiceError, ServiceResponse};
use fakeaudit_detectors::{AuditOutcome, ToolId, VerdictCounts};
use fakeaudit_prop::prelude::*;
use fakeaudit_server::{
    Admission, AdmissionQueue, AuditBackend, OverloadPolicy, Request, RequestOutcome, ServerConfig,
    ServerSim,
};
use fakeaudit_telemetry::analyze::names;
use fakeaudit_telemetry::{
    BurnRule, MonitorConfig, SloMonitor, Telemetry, TraceContext, TraceEvent, TraceTree,
    TransitionKind,
};
use fakeaudit_twittersim::{AccountId, Platform, SimTime};

/// A backend with a scripted constant service time; `serve_stale` only
/// knows targets it has already served fresh, so `degrade` can go cold.
struct ScriptedBackend {
    tool: ToolId,
    service_secs: f64,
    known: Vec<AccountId>,
}

impl ScriptedBackend {
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

impl AuditBackend for ScriptedBackend {
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
        self.known.push(target);
        Ok(self.response(target, false))
    }

    fn serve_stale(&self, target: AccountId) -> Option<ServiceResponse> {
        self.known
            .contains(&target)
            .then(|| self.response(target, true))
    }
}

fn policy_strategy() -> impl Strategy<Value = OverloadPolicy> {
    prop_oneof![
        Just(OverloadPolicy::Block),
        Just(OverloadPolicy::Shed),
        Just(OverloadPolicy::DegradeStale),
    ]
}

/// `(inter-arrival, tool index, target id)` triples become a trace with
/// strictly increasing arrival times.
fn trace_strategy() -> impl Strategy<Value = Vec<Request>> {
    prop::collection::vec((0.001f64..3.0, 0usize..4, 0u64..5), 0..80).prop_map(|steps| {
        let mut now = 0.0;
        steps
            .into_iter()
            .enumerate()
            .map(|(i, (dt, tool, target))| {
                now += dt;
                Request {
                    id: i as u64,
                    at: now,
                    tool: ToolId::ALL[tool],
                    target: AccountId(target),
                }
            })
            .collect()
    })
}

fn run_trace(
    trace: &[Request],
    policy: OverloadPolicy,
    workers: usize,
    capacity: usize,
    service_secs: f64,
) -> fakeaudit_server::ServerReport {
    run_traced(trace, policy, workers, capacity, service_secs).0
}

/// Like [`run_trace`] but with live tracing enabled, returning the trace
/// alongside the report.
fn run_traced(
    trace: &[Request],
    policy: OverloadPolicy,
    workers: usize,
    capacity: usize,
    service_secs: f64,
) -> (fakeaudit_server::ServerReport, Vec<TraceEvent>) {
    let platform = Platform::new();
    let telemetry = Telemetry::enabled();
    let mut sim = ServerSim::with_telemetry(
        &platform,
        ServerConfig {
            workers_per_tool: workers,
            queue_capacity: capacity,
            policy,
            degraded_secs: 0.25,
            deadline_secs: None,
        },
        telemetry.clone(),
    );
    for tool in ToolId::ALL {
        sim.register(Box::new(ScriptedBackend {
            tool,
            service_secs,
            known: Vec::new(),
        }));
    }
    let report = sim.run(trace);
    (report, telemetry.events())
}

/// A tight monitor config for property runs: 1 s buckets, two burn
/// rules with different dwell geometry so rule interleavings are
/// exercised, both signals live.
fn monitor_config(seed: u64) -> MonitorConfig {
    MonitorConfig {
        bucket_secs: 1.0,
        availability_objective: 0.99,
        latency_quantile: 0.95,
        latency_objective_secs: 1.0,
        rules: vec![
            BurnRule::new("fast", 3.0, 9.0, 2.0, 2.0, 3.0),
            BurnRule::new("slow", 6.0, 18.0, 1.5, 4.0, 6.0),
        ],
        history_capacity: 8,
        history_interval_secs: 16.0,
        sample_keep: 0.5,
        parked_capacity: 64,
        seed,
    }
}

/// Replays `stream` (one request per second; `(ok, slow)` per request)
/// through a fresh monitor, ticking every bucket and draining past the
/// end so every raised alert can resolve.
fn run_monitor(seed: u64, stream: &[(bool, bool)]) -> SloMonitor {
    let config = monitor_config(seed);
    let monitor = SloMonitor::new(config, Telemetry::enabled());
    let mut next_tick = 1.0f64;
    for (i, &(ok, slow)) in stream.iter().enumerate() {
        let t = i as f64 + 0.5;
        while next_tick <= t {
            monitor.tick(next_tick);
            next_tick += 1.0;
        }
        let latency = if slow { 2.0 } else { 0.1 };
        monitor.observe_request("R", t, Some(latency), ok, None);
    }
    let drain = stream.len() as f64 + 18.0 + 4.0 + 6.0 + 1.0;
    while next_tick <= drain {
        monitor.tick(next_tick);
        next_tick += 1.0;
    }
    monitor
}

proptest! {
    /// The bounded queue never holds more than `capacity` items, no
    /// matter how offers and pops interleave; only `block` may park the
    /// overflow elsewhere.
    #[test]
    fn admission_queue_never_exceeds_capacity(
        capacity in 1usize..8,
        policy in policy_strategy(),
        ops in prop::collection::vec(any::<bool>(), 0..200),
    ) {
        let mut queue = AdmissionQueue::new(capacity, policy);
        let mut next = 0u64;
        for is_offer in ops {
            if is_offer {
                let admission = queue.offer(next);
                next += 1;
                if policy != OverloadPolicy::Block {
                    prop_assert_ne!(admission, Admission::Blocked);
                }
            } else {
                queue.pop();
            }
            prop_assert!(queue.len() <= capacity);
            if policy != OverloadPolicy::Block {
                prop_assert_eq!(queue.blocked(), 0);
            }
        }
        prop_assert!(queue.max_depth() <= capacity);
    }

    /// The queue (including block-policy promotion from the overflow
    /// lane) hands items back in exactly the order they were offered.
    #[test]
    fn admission_queue_preserves_fifo(
        capacity in 1usize..6,
        policy in policy_strategy(),
        ops in prop::collection::vec(any::<bool>(), 0..200),
    ) {
        let mut queue = AdmissionQueue::new(capacity, policy);
        let mut next = 0u64;
        let mut last_popped = None;
        for is_offer in ops {
            if is_offer {
                queue.offer(next);
                next += 1;
            } else if let Some(item) = queue.pop() {
                if let Some(prev) = last_popped {
                    prop_assert!(item > prev, "popped {item} after {prev}");
                }
                last_popped = Some(item);
            }
        }
    }

    /// Worker-served requests start in arrival order within each tool —
    /// FIFO survives the event loop, not just the queue.
    #[test]
    fn per_tool_service_order_is_fifo(
        trace in trace_strategy(),
        policy in policy_strategy(),
        workers in 1usize..3,
        capacity in 1usize..5,
        service_secs in 0.25f64..4.0,
    ) {
        let report = run_trace(&trace, policy, workers, capacity, service_secs);
        for tool in ToolId::ALL {
            let mut last_start = f64::NEG_INFINITY;
            let mut last_arrival = f64::NEG_INFINITY;
            for rec in report.records.iter().filter(|r| {
                r.tool == tool && matches!(r.outcome, RequestOutcome::Completed { .. })
            }) {
                let started = rec.started.expect("completed requests started");
                prop_assert!(
                    rec.arrived > last_arrival,
                    "records must keep trace order"
                );
                prop_assert!(
                    started >= last_start,
                    "{:?} started {started} before predecessor {last_start}",
                    tool
                );
                prop_assert!(started >= rec.arrived);
                last_start = started;
                last_arrival = rec.arrived;
            }
        }
    }

    /// Nothing is lost: every offered request is accounted for exactly
    /// once, under every policy — and each policy's signature holds
    /// (block never sheds, scripted backends never fail).
    #[test]
    fn offered_requests_are_conserved(
        trace in trace_strategy(),
        policy in policy_strategy(),
        workers in 1usize..3,
        capacity in 1usize..5,
        service_secs in 0.25f64..4.0,
    ) {
        let report = run_trace(&trace, policy, workers, capacity, service_secs);
        prop_assert_eq!(report.offered(), trace.len() as u64);
        prop_assert_eq!(report.records.len(), trace.len());
        prop_assert_eq!(
            report.completed() + report.degraded() + report.shed() + report.failed(),
            report.offered()
        );
        prop_assert_eq!(report.failed(), 0);
        for t in &report.per_tool {
            prop_assert_eq!(t.completed + t.degraded + t.shed + t.failed, t.offered);
            prop_assert!(t.max_queue_depth <= capacity);
        }
        match policy {
            OverloadPolicy::Block => {
                prop_assert_eq!(report.shed(), 0);
                prop_assert_eq!(report.completed(), report.offered());
            }
            OverloadPolicy::Shed => prop_assert_eq!(report.degraded(), 0),
            OverloadPolicy::DegradeStale => {}
        }
    }

    /// Live tracing accounts for every offered request exactly once:
    /// answered requests become `server.request` spans, refusals become
    /// `server.shed` / `server.failed` points.
    #[test]
    fn offered_requests_match_trace_accounting(
        trace in trace_strategy(),
        policy in policy_strategy(),
        workers in 1usize..3,
        capacity in 1usize..5,
        service_secs in 0.25f64..4.0,
    ) {
        let (report, events) = run_traced(&trace, policy, workers, capacity, service_secs);
        let spans = events
            .iter()
            .filter(|e| e.name == names::SERVER_REQUEST)
            .count() as u64;
        let shed = events
            .iter()
            .filter(|e| e.name == names::SERVER_SHED)
            .count() as u64;
        let failed = events
            .iter()
            .filter(|e| e.name == names::SERVER_FAILED)
            .count() as u64;
        prop_assert_eq!(spans, report.completed() + report.degraded());
        prop_assert_eq!(shed, report.shed());
        prop_assert_eq!(failed, report.failed());
        prop_assert_eq!(spans + shed + failed, report.offered());
    }

    /// Request trees are well formed: every recorded parent id resolves,
    /// every tree root is a whole-request span, no point floats without
    /// its parent, and child intervals nest within their parent's.
    #[test]
    fn trace_trees_are_well_formed(
        trace in trace_strategy(),
        policy in policy_strategy(),
        workers in 1usize..3,
        capacity in 1usize..5,
        service_secs in 0.25f64..4.0,
    ) {
        let (_, events) = run_traced(&trace, policy, workers, capacity, service_secs);
        let tree = TraceTree::build(&events);
        for e in &events {
            if let Some(p) = e.parent {
                prop_assert!(tree.span(p).is_some(), "parent {:?} of {} missing", p, e.name);
            }
        }
        prop_assert!(tree.floating().is_empty());
        for &root in tree.roots() {
            prop_assert_eq!(tree.event(root).name.as_str(), names::SERVER_REQUEST);
            for i in tree.descendants(root) {
                let e = tree.event(i);
                let Some(pid) = e.parent else { continue };
                let parent = tree.span(pid).expect("parent resolves");
                prop_assert!(
                    e.t0 >= parent.t0 - 1e-9 && e.t1 <= parent.t1 + 1e-9,
                    "{} [{}, {}] escapes parent {} [{}, {}]",
                    e.name, e.t0, e.t1, parent.name, parent.t0, parent.t1
                );
            }
        }
    }

    /// Whatever the observation stream, every alert machine walks
    /// `pending → firing → resolved` without skipping a state: the
    /// per-(rule, signal) transition sequence starts at `pending`,
    /// `firing` only follows `pending`, and a new `pending` only follows
    /// `resolved` — and after the drain no alert is left open.
    #[test]
    fn alert_machine_never_skips_states(
        seed in any::<u64>(),
        stream in prop::collection::vec(any::<(bool, bool)>(), 1..120),
    ) {
        let monitor = run_monitor(seed, &stream);
        let log = monitor.transitions();
        let mut machines: std::collections::BTreeMap<String, Option<TransitionKind>> =
            std::collections::BTreeMap::new();
        let mut last_at = f64::NEG_INFINITY;
        for t in &log {
            prop_assert!(t.at_secs >= last_at, "log must be time-ordered");
            last_at = t.at_secs;
            let key = format!("{}/{}/{}", t.route, t.rule, t.signal);
            let prev = machines.entry(key.clone()).or_default();
            let legal = matches!(
                (*prev, t.to),
                (None | Some(TransitionKind::Resolved), TransitionKind::Pending)
                    | (Some(TransitionKind::Pending), TransitionKind::Firing)
                    | (
                        Some(TransitionKind::Pending) | Some(TransitionKind::Firing),
                        TransitionKind::Resolved,
                    )
            );
            prop_assert!(legal, "{key}: {:?} -> {:?}", prev, t.to);
            *prev = Some(t.to);
        }
        for (key, last) in &machines {
            prop_assert!(
                matches!(last, Some(TransitionKind::Resolved)),
                "{key} left open after drain: {last:?}"
            );
        }
        let counts = monitor.counts();
        prop_assert_eq!(counts.active_firing, 0);
        prop_assert_eq!(counts.active_pending, 0);
        prop_assert_eq!(counts.pending, counts.resolved);
        prop_assert!(counts.firing <= counts.pending);
    }

    /// The alert log is a pure function of (seed, observation stream):
    /// two replays render byte-identical logs and identical counters.
    #[test]
    fn alert_log_is_deterministic(
        seed in any::<u64>(),
        stream in prop::collection::vec(any::<(bool, bool)>(), 1..80),
    ) {
        let a = run_monitor(seed, &stream);
        let b = run_monitor(seed, &stream);
        prop_assert_eq!(a.render_alert_log(), b.render_alert_log());
        prop_assert_eq!(a.counts(), b.counts());
        prop_assert_eq!(a.alerts_json(), b.alerts_json());
    }

    /// Merging histogram snapshots whose observations landed in disjoint
    /// bucket ranges is lossless: counts and sums add, min/max span both
    /// sides, and every merged bucket carries exactly the side that
    /// populated it.
    #[test]
    fn histogram_merge_is_lossless_on_disjoint_buckets(
        lows in prop::collection::vec(0.0015f64..0.009, 1..40),
        highs in prop::collection::vec(15.0f64..55.0, 1..40),
    ) {
        let t_low = Telemetry::enabled();
        let t_high = Telemetry::enabled();
        for &v in &lows {
            t_low.observe("m", &[], v);
        }
        for &v in &highs {
            t_high.observe("m", &[], v);
        }
        let a = t_low.snapshot().histogram("m", &[]).expect("low histogram").clone();
        let b = t_high.snapshot().histogram("m", &[]).expect("high histogram").clone();
        let mut merged = a.clone();
        merged.merge(&b);

        prop_assert_eq!(merged.count, a.count + b.count);
        prop_assert!((merged.sum - (a.sum + b.sum)).abs() < 1e-9);
        prop_assert_eq!(merged.min, a.min);
        prop_assert_eq!(merged.max, b.max);
        prop_assert_eq!(merged.buckets.len(), a.buckets.len());
        for (i, &(bound, count)) in merged.buckets.iter().enumerate() {
            prop_assert_eq!(bound, a.buckets[i].0);
            prop_assert_eq!(count, a.buckets[i].1 + b.buckets[i].1);
            // Disjoint ranges: no bucket is populated by both sides.
            prop_assert!(a.buckets[i].1 == 0 || b.buckets[i].1 == 0);
        }
        // The merged quantiles stay inside the observed range and
        // straddle the gap: the median of a lopsided merge lands on the
        // heavier side's bucket.
        let q50 = merged.quantile(0.5);
        prop_assert!(q50 >= merged.min && q50 <= merged.max);
    }
}
