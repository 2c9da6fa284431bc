//! The simulator and the wall-clock dispatcher close requests through one
//! function, so the same five outcomes — completed, degraded, shed,
//! failed, expired — must leave the same trace shape in either world:
//! span and point names, attributes and parent links (times excluded).

use fakeaudit_analytics::quota::QuotaExceeded;
use fakeaudit_analytics::{ServiceError, ServiceResponse};
use fakeaudit_detectors::{AuditOutcome, ToolId, VerdictCounts};
use fakeaudit_gateway::{Dispatcher, JobEvent, ToolPool};
use fakeaudit_server::{
    AuditBackend, OverloadPolicy, Request, RequestOutcome, ServerConfig, ServerReport, ServerSim,
};
use fakeaudit_telemetry::{ManualClock, Telemetry, TraceContext, TraceEvent};
use fakeaudit_twittersim::{AccountId, Platform, SimTime};
use std::collections::{BTreeMap, HashMap};
use std::sync::{mpsc, Arc};

/// The one target the stale path knows.
const KNOWN: AccountId = AccountId(1);
/// The target every serve fails for.
const FAILING: AccountId = AccountId(4);

/// Serves in a fixed 2 s. In the gateway it first waits for the test's
/// go-ahead and spends the 2 s on the manual clock.
struct FixedBackend {
    clock: Option<Arc<ManualClock>>,
    gate: Option<mpsc::Receiver<()>>,
}

fn response(target: AccountId) -> ServiceResponse {
    ServiceResponse {
        outcome: AuditOutcome {
            tool_name: "TA".into(),
            target,
            assessed: vec![],
            counts: VerdictCounts::default(),
            audited_at: SimTime::EPOCH,
            api_elapsed_secs: 2.0,
            api_calls: 1,
        },
        response_secs: 2.0,
        served_from_cache: false,
        assessed_at: SimTime::EPOCH,
    }
}

impl AuditBackend for FixedBackend {
    fn tool(&self) -> ToolId {
        ToolId::Twitteraudit
    }

    fn serve(
        &mut self,
        _platform: &Platform,
        target: AccountId,
        _ctx: &TraceContext,
        _now_secs: f64,
    ) -> Result<ServiceResponse, ServiceError> {
        if target == FAILING {
            return Err(ServiceError::Quota(QuotaExceeded { limit: 0, day: 0 }));
        }
        if let Some(gate) = &self.gate {
            gate.recv().expect("test releases the worker");
        }
        if let Some(clock) = &self.clock {
            clock.advance(2.0);
        }
        Ok(response(target))
    }

    fn serve_stale(&self, target: AccountId) -> Option<ServiceResponse> {
        (target == KNOWN).then(|| response(target))
    }
}

/// One worker, one queue slot, stale answers under overload, and a 1 s
/// deadline that the 2 s service outlasts.
fn config() -> ServerConfig {
    ServerConfig {
        workers_per_tool: 1,
        queue_capacity: 1,
        policy: OverloadPolicy::DegradeStale,
        degraded_secs: 0.5,
        deadline_secs: Some(1.0),
    }
}

/// Target 1 is served, target 2 queues behind it and expires, target 1
/// again finds the queue full and is answered stale, cold target 3 is
/// shed, and target 4 fails once the worker is free.
fn simulate(telemetry: &Telemetry) -> ServerReport {
    let platform = Platform::new();
    let mut sim = ServerSim::with_telemetry(&platform, config(), telemetry.clone());
    sim.register(Box::new(FixedBackend {
        clock: None,
        gate: None,
    }));
    let trace: Vec<Request> = [(0.0, 1), (0.0, 2), (0.0, 1), (0.0, 3), (5.0, 4)]
        .iter()
        .enumerate()
        .map(|(id, &(at, target))| Request {
            id: id as u64,
            at,
            tool: ToolId::Twitteraudit,
            target: AccountId(target),
        })
        .collect();
    sim.run(&trace)
}

/// The same five requests through a dispatcher on a manual clock.
fn dispatch(telemetry: &Telemetry) -> ServerReport {
    let clock = Arc::new(ManualClock::new(0.0));
    let (go, gate) = mpsc::channel();
    let dispatcher = Dispatcher::start(
        Arc::new(Platform::new()),
        vec![ToolPool {
            tool: ToolId::Twitteraudit,
            workers: vec![Box::new(FixedBackend {
                clock: Some(clock.clone()),
                gate: Some(gate),
            })],
            stale: Box::new(FixedBackend {
                clock: None,
                gate: None,
            }),
        }],
        config(),
        clock,
        telemetry.clone(),
    );
    let submit = |target| dispatcher.submit(ToolId::Twitteraudit, AccountId(target));
    let served = submit(1);
    assert!(matches!(served.recv(), Ok(JobEvent::Queued { .. })));
    assert!(matches!(served.recv(), Ok(JobEvent::Started)));
    let expired = submit(2);
    let terminal = |events: mpsc::Receiver<JobEvent>| events.iter().last();
    assert!(matches!(terminal(submit(1)), Some(JobEvent::Done(_))));
    assert!(matches!(terminal(submit(3)), Some(JobEvent::Rejected(_))));
    go.send(()).unwrap();
    assert!(matches!(terminal(served), Some(JobEvent::Done(_))));
    assert!(matches!(terminal(expired), Some(JobEvent::Rejected(_))));
    assert!(matches!(terminal(submit(4)), Some(JobEvent::Rejected(_))));
    dispatcher.shutdown();
    dispatcher.report()
}

/// One event without its times: kind, name, attributes, and the name of
/// the span it hangs under.
type Shape = (String, String, Vec<(String, String)>, Option<String>);

/// Every request's event shapes, keyed by the outcome of the request it
/// belongs to (the `outcome` attribute of its `server.request` root, or
/// the name of its root point).
fn shapes(events: &[TraceEvent]) -> BTreeMap<String, Vec<Shape>> {
    let by_id: HashMap<_, _> = events.iter().filter_map(|e| Some((e.id?, e))).collect();
    let mut out: BTreeMap<String, Vec<Shape>> = BTreeMap::new();
    for event in events {
        let mut root = event;
        while let Some(parent) = root.parent {
            root = by_id[&parent];
        }
        let key = root
            .attr("outcome")
            .map_or_else(|| root.name.clone(), str::to_string);
        let parent = event.parent.map(|p| by_id[&p].name.clone());
        let shape = (
            event.kind.to_string(),
            event.name.clone(),
            event.attrs.clone(),
            parent,
        );
        out.entry(key).or_default().push(shape);
    }
    for shapes in out.values_mut() {
        shapes.sort();
    }
    out
}

#[test]
fn both_worlds_trace_every_outcome_alike() {
    let (sim_tel, gw_tel) = (Telemetry::enabled(), Telemetry::enabled());
    let sim = simulate(&sim_tel);
    let gateway = dispatch(&gw_tel);
    let outcomes = |report: &ServerReport| -> Vec<(AccountId, RequestOutcome)> {
        let mut v: Vec<_> = report
            .records
            .iter()
            .map(|r| (r.target, r.outcome))
            .collect();
        v.sort_by_key(|&(target, outcome)| (target, outcome.label()));
        v
    };
    assert_eq!(outcomes(&sim), outcomes(&gateway));
    assert_eq!(sim.offered(), 5);

    let (sim_shapes, gw_shapes) = (shapes(&sim_tel.events()), shapes(&gw_tel.events()));
    let keys: Vec<&str> = sim_shapes.keys().map(String::as_str).collect();
    assert_eq!(
        keys,
        [
            "completed",
            "degraded",
            "server.expired",
            "server.failed",
            "server.shed"
        ]
    );
    for (outcome, shapes) in &sim_shapes {
        assert_eq!(Some(shapes), gw_shapes.get(outcome), "{outcome}");
    }
    assert_eq!(sim_shapes.len(), gw_shapes.len());
}
