//! The wall-clock dispatcher: bounded admission + per-tool worker pools
//! over the same [`AuditBackend`] seam the simulator drives.
//!
//! This is the "reuse, not fork" core of the gateway. Every policy
//! decision is made by `crates/server` types:
//!
//! * admission is an [`AdmissionQueue`] per tool — the same bounded FIFO
//!   with the same [`OverloadPolicy`] semantics (block, shed-503,
//!   degrade-to-stale) the discrete-event simulator exercises;
//! * service goes through [`AuditBackend::serve`], so the
//!   analytics `OnlineService` — cache, quota, Table II response times,
//!   circuit breaker — is byte-for-byte the simulator's backend;
//! * every request, whatever its outcome, ends through the simulator's
//!   own [`RequestSink::close`]: the same `server.*` trace, the same
//!   `server.requests` count and latency histograms, the same per-tool
//!   [`ToolSummary`] tallies and the same history row, so `/metrics`,
//!   end-of-run reports and the E8/E9 analysis tooling read identically
//!   off either world.
//!
//! What differs from the simulator is only the execution substrate:
//! real OS threads pull jobs from the queues (one pool per tool, each
//! worker owning its own cloned backend — share-nothing, so no lock is
//! held during service), and time comes from a shared
//! [`Clock`](fakeaudit_telemetry::Clock) instead of an event heap.
//! Service time is the *actual CPU cost* of the audit: the dispatcher
//! never sleeps out simulated seconds. The simulated Table II cost still
//! travels in the response (`response_secs`) for cross-checking the two
//! worlds.

use fakeaudit_analytics::{BreakerState, ServiceError, ServiceResponse};
use fakeaudit_detectors::ToolId;
use fakeaudit_server::{
    flush_writer, writer_health, Admission, AdmissionQueue, Answer, AuditBackend, OverloadPolicy,
    Request, RequestOutcome, RequestRecord, RequestSink, ServerConfig, ServerReport, ToolSummary,
};
use fakeaudit_store::{SharedWriter, StoreHealth};
use fakeaudit_telemetry::sync::{lock, wait};
use fakeaudit_telemetry::{Clock, Telemetry, TraceContext};
use fakeaudit_twittersim::{AccountId, Platform};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// A backend the dispatcher can hand to a worker thread.
pub type BoxedBackend = Box<dyn AuditBackend + Send>;

/// The per-tool serving capacity handed to [`Dispatcher::start`]: one
/// backend instance per worker (share-nothing) plus one admission-time
/// reader for the degrade-to-stale path.
pub struct ToolPool {
    /// The tool every backend in this pool serves.
    pub tool: ToolId,
    /// One owned backend per worker thread.
    pub workers: Vec<BoxedBackend>,
    /// Backend consulted (read-only) at admission time for stale answers.
    pub stale: BoxedBackend,
}

impl std::fmt::Debug for ToolPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ToolPool")
            .field("tool", &self.tool)
            .field("workers", &self.workers.len())
            .finish()
    }
}

/// Where an answered verdict came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AnswerSource {
    /// A worker ran the audit.
    Fresh,
    /// A worker answered from the service's fresh cache.
    Cache,
    /// The admission path served a stale cached report (degrade policy).
    Stale,
}

impl AnswerSource {
    /// Label used in traces, metrics and response JSON.
    pub fn label(self) -> &'static str {
        match self {
            AnswerSource::Fresh => "fresh",
            AnswerSource::Cache => "cache",
            AnswerSource::Stale => "stale",
        }
    }
}

/// A successfully answered request.
#[derive(Debug, Clone)]
pub struct Answered {
    /// The service's verdict.
    pub response: ServiceResponse,
    /// Where the answer came from.
    pub source: AnswerSource,
    /// Real seconds spent in the admission queue.
    pub queue_wait_secs: f64,
    /// Real seconds of service (0 for stale answers).
    pub service_secs: f64,
}

/// Why a request got no verdict.
#[derive(Debug, Clone, PartialEq)]
pub enum Rejection {
    /// Refused at admission: queue full (or the gateway is draining).
    Shed,
    /// The tool's circuit breaker is open; retry after the cooldown.
    BreakerOpen {
        /// Suggested client back-off in seconds.
        retry_in_secs: f64,
    },
    /// Dropped in queue past the end-to-end deadline.
    Expired,
    /// The backend errored (quota exhausted, audit failure).
    Failed(String),
}

/// Progress of one submitted request, delivered over the channel
/// returned by [`Dispatcher::submit`]. `Done` / `Rejected` are terminal.
#[derive(Debug)]
pub enum JobEvent {
    /// Admitted; `depth` is the queue depth at admission.
    Queued {
        /// Queue depth right after this job was admitted.
        depth: usize,
    },
    /// A worker started the audit.
    Started,
    /// Terminal: the verdict.
    Done(Box<Answered>),
    /// Terminal: no verdict.
    Rejected(Rejection),
}

/// One queued unit of work.
struct Job {
    req: Request,
    events: mpsc::Sender<JobEvent>,
    req_ctx: TraceContext,
}

struct LaneState {
    queue: AdmissionQueue<Job>,
    stale: BoxedBackend,
    shutting_down: bool,
    /// Last-published circuit-breaker state. Worker backends own their
    /// breakers and live inside worker threads, so each worker publishes
    /// its backend's state here after every serve; `None` means the
    /// backends run no breaker.
    breaker: Option<BreakerState>,
}

/// One lane's operational snapshot, surfaced by
/// [`Dispatcher::lane_status`] for `/healthz` and `/debug/vars`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaneStatus {
    /// The tool this lane serves.
    pub tool: ToolId,
    /// Jobs currently waiting in the admission queue.
    pub queue_depth: usize,
    /// Circuit-breaker state last published by a worker (`None` when the
    /// backends run no breaker).
    pub breaker: Option<BreakerState>,
}

/// One tool's admission queue + worker-wakeup pair.
struct Lane {
    tool: ToolId,
    state: Mutex<LaneState>,
    ready: Condvar,
}

struct Shared {
    lanes: Vec<Arc<Lane>>,
    platform: Arc<Platform>,
    /// Telemetry, trace root, history writer and platform-epoch offset —
    /// the simulator's own sink. Wall seconds since gateway boot play the
    /// simulator's server time.
    sink: RequestSink,
    clock: Arc<dyn Clock>,
    config: ServerConfig,
    next_id: AtomicU64,
    /// Every closed request, and one running tally per lane (lane order).
    records: Mutex<(Vec<RequestRecord>, Vec<ToolSummary>)>,
}

/// Admission control + per-tool worker pools over real threads.
///
/// Create with [`Dispatcher::start`], submit with [`Dispatcher::submit`],
/// and stop with [`Dispatcher::shutdown`] — which refuses new work,
/// drains every queued job through the workers, and joins the threads.
pub struct Dispatcher {
    shared: Arc<Shared>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl std::fmt::Debug for Dispatcher {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Dispatcher")
            .field("lanes", &self.shared.lanes.len())
            .field("config", &self.shared.config)
            .finish()
    }
}

impl Dispatcher {
    /// Boots one worker pool per [`ToolPool`] and returns the running
    /// dispatcher. `config.workers_per_tool` is taken from each pool's
    /// actual backend count, so the two cannot disagree.
    pub fn start(
        platform: Arc<Platform>,
        pools: Vec<ToolPool>,
        config: ServerConfig,
        clock: Arc<dyn Clock>,
        telemetry: Telemetry,
    ) -> Self {
        Self::start_with_persist(platform, pools, config, clock, telemetry, None)
    }

    /// [`Dispatcher::start`] plus an optional columnar-history writer:
    /// every answered request (completed or degraded) appends one
    /// [`fakeaudit_store::AuditRecord`]; [`Dispatcher::shutdown`] flushes
    /// the writer's tail buffer after the drain, so no completed audit is
    /// lost on Ctrl-C.
    pub fn start_with_persist(
        platform: Arc<Platform>,
        pools: Vec<ToolPool>,
        mut config: ServerConfig,
        clock: Arc<dyn Clock>,
        telemetry: Telemetry,
        persist: Option<SharedWriter>,
    ) -> Self {
        if let Some(pool) = pools.first() {
            config.workers_per_tool = pool.workers.len().max(1);
        }
        let sink = RequestSink {
            persist,
            ..RequestSink::new(telemetry, platform.now().as_secs() as f64)
        };
        let lanes: Vec<Arc<Lane>> = pools
            .iter()
            .map(|pool| {
                Arc::new(Lane {
                    tool: pool.tool,
                    state: Mutex::new(LaneState {
                        queue: AdmissionQueue::new(config.queue_capacity, config.policy),
                        // Placeholder replaced below when the pool is consumed.
                        stale: Box::new(NullBackend(pool.tool)),
                        shutting_down: false,
                        breaker: pool.workers.first().and_then(|b| b.breaker_state()),
                    }),
                    ready: Condvar::new(),
                })
            })
            .collect();
        let per_tool = pools
            .iter()
            .map(|pool| ToolSummary {
                tool: Some(pool.tool),
                ..ToolSummary::default()
            })
            .collect();
        let shared = Arc::new(Shared {
            lanes: lanes.clone(),
            platform,
            sink,
            clock,
            config,
            next_id: AtomicU64::new(0),
            records: Mutex::new((Vec::new(), per_tool)),
        });
        let mut workers = Vec::new();
        for (lane, pool) in lanes.iter().zip(pools) {
            lock(&lane.state).stale = pool.stale;
            for (i, backend) in pool.workers.into_iter().enumerate() {
                let lane = Arc::clone(lane);
                let shared = Arc::clone(&shared);
                let handle = std::thread::Builder::new()
                    .name(format!("audit-{}-{i}", lane.tool.abbrev()))
                    .spawn(move || worker_loop(&shared, &lane, backend))
                    .expect("spawn worker thread");
                workers.push(handle);
            }
        }
        Self {
            shared,
            workers: Mutex::new(workers),
        }
    }

    /// The tools this dispatcher serves, in registration order.
    pub fn tools(&self) -> Vec<ToolId> {
        self.shared.lanes.iter().map(|l| l.tool).collect()
    }

    /// The admission/worker configuration in force.
    pub fn config(&self) -> ServerConfig {
        self.shared.config
    }

    /// Current time on the dispatcher's clock.
    pub fn now_secs(&self) -> f64 {
        self.shared.clock.now_secs()
    }

    /// A point-in-time operational snapshot of every lane: queue depth
    /// and last-published breaker state, in registration order.
    pub fn lane_status(&self) -> Vec<LaneStatus> {
        self.shared
            .lanes
            .iter()
            .map(|lane| {
                let st = lock(&lane.state);
                LaneStatus {
                    tool: lane.tool,
                    queue_depth: st.queue.len(),
                    breaker: st.breaker,
                }
            })
            .collect()
    }

    /// Submits one audit request.
    ///
    /// The returned channel delivers [`JobEvent`]s and always ends with a
    /// terminal `Done` or `Rejected` — including for synchronous
    /// refusals, which are already in the channel when this returns.
    pub fn submit(&self, tool: ToolId, target: AccountId) -> mpsc::Receiver<JobEvent> {
        let shared = &self.shared;
        let (tx, rx) = mpsc::channel();
        let req = Request {
            id: shared.next_id.fetch_add(1, Ordering::Relaxed),
            at: shared.clock.now_secs(),
            tool,
            target,
        };
        let shed = |tx: mpsc::Sender<JobEvent>| {
            let record = RequestRecord::of(&req, None, None, RequestOutcome::Shed);
            shared.close(record, None, 0.0);
            let _ = tx.send(JobEvent::Rejected(Rejection::Shed));
        };
        let Some(lane) = shared.lanes.iter().find(|l| l.tool == tool) else {
            shed(tx);
            return rx;
        };
        let job = Job {
            req,
            events: tx.clone(),
            req_ctx: shared.sink.root.child(),
        };
        let mut st = lock(&lane.state);
        if st.shutting_down {
            drop(st);
            shed(tx);
            return rx;
        }
        match st.queue.offer(job) {
            Admission::Enqueued | Admission::Blocked => {
                let depth = st.queue.len();
                drop(st);
                lane.ready.notify_one();
                shared.sink.telemetry.gauge_set(
                    "server.queue_depth",
                    &[("tool", tool.abbrev())],
                    depth as f64,
                );
                let _ = tx.send(JobEvent::Queued { depth });
            }
            Admission::Overloaded => {
                let stale = if shared.config.policy == OverloadPolicy::DegradeStale {
                    st.stale.serve_stale(target)
                } else {
                    None
                };
                drop(st);
                let Some(response) = stale else {
                    shed(tx);
                    return rx;
                };
                let finished = shared.clock.now_secs();
                let req_ctx = shared.sink.root.child();
                let svc_ctx = req_ctx.child();
                let answer = Answer {
                    req_ctx: &req_ctx,
                    svc_ctx: &svc_ctx,
                    response: &response,
                };
                let degraded = RequestOutcome::Degraded;
                let record = RequestRecord::of(&req, Some(req.at), Some(finished), degraded);
                shared.close(record, Some(answer), 0.0);
                let _ = tx.send(JobEvent::Done(Box::new(Answered {
                    response,
                    source: AnswerSource::Stale,
                    queue_wait_secs: 0.0,
                    service_secs: finished - req.at,
                })));
            }
        }
        rx
    }

    /// Stops accepting work, drains every queued job through the worker
    /// pools, joins the worker threads, and flushes any buffered store
    /// rows so the persisted history is complete. Idempotent.
    pub fn shutdown(&self) {
        for lane in &self.shared.lanes {
            lock(&lane.state).shutting_down = true;
            lane.ready.notify_all();
        }
        let handles: Vec<_> = lock(&self.workers).drain(..).collect();
        for handle in handles {
            let _ = handle.join();
        }
        // Workers are joined: nothing appends concurrently, so this
        // flush captures every completed audit.
        if let Some(writer) = &self.shared.sink.persist {
            let _ = flush_writer(writer, &self.shared.sink.telemetry);
        }
    }

    /// The history writer's health (segment count, buffered rows, last
    /// flush), or `None` when the gateway runs without `--persist`.
    pub fn store_health(&self) -> Option<StoreHealth> {
        self.shared.sink.persist.as_ref().map(writer_health)
    }

    /// A point-in-time report over every request seen so far: the
    /// records and per-lane tallies the close path kept, with queue
    /// high-water marks filled in from the live queues.
    pub fn report(&self) -> ServerReport {
        let (records, mut per_tool) = lock(&self.shared.records).clone();
        for (summary, lane) in per_tool.iter_mut().zip(&self.shared.lanes) {
            let st = lock(&lane.state);
            summary.max_queue_depth = st.queue.max_depth();
            summary.max_blocked = st.queue.max_overflow();
        }
        let makespan = self.shared.clock.now_secs();
        ServerReport::new(records, per_tool, self.shared.config, makespan)
    }
}

impl Shared {
    /// Ends one request through [`RequestSink::close`], tallied on its
    /// lane unless its tool has none.
    fn close(&self, record: RequestRecord, answer: Option<Answer<'_>>, busy_secs: f64) {
        let (records, per_tool) = &mut *lock(&self.records);
        let summary = per_tool.iter_mut().find(|t| t.tool == Some(record.tool));
        self.sink.close(&record, answer, busy_secs, summary);
        records.push(record);
    }
}

/// One worker thread: pull, serve, record — until told to stop *and* the
/// queue is dry, so shutdown drains in-flight work by construction.
fn worker_loop(shared: &Shared, lane: &Lane, mut backend: BoxedBackend) {
    loop {
        let job = {
            let mut st = lock(&lane.state);
            loop {
                if let Some(job) = st.queue.pop() {
                    break job;
                }
                if st.shutting_down {
                    return;
                }
                st = wait(&lane.ready, st);
            }
        };
        serve_one(shared, &mut backend, job);
        // Publish this backend's breaker state so admission-side readers
        // (`/healthz`, `/debug/vars`) see breaker health without touching
        // worker-owned backends.
        let state = backend.breaker_state();
        lock(&lane.state).breaker = state;
    }
}

fn serve_one(shared: &Shared, backend: &mut BoxedBackend, job: Job) {
    let req = job.req;
    let now = shared.clock.now_secs();
    if shared
        .config
        .deadline_secs
        .is_some_and(|d| now - req.at > d)
    {
        let record = RequestRecord::of(&req, None, Some(now), RequestOutcome::Expired);
        shared.close(record, None, 0.0);
        let _ = job.events.send(JobEvent::Rejected(Rejection::Expired));
        return;
    }
    let _ = job.events.send(JobEvent::Started);
    // Mirrors the simulator's `start_service`: `req_ctx` is the
    // `server.request` span, `svc_ctx` the `server.service` span the
    // backend nests its own subtree under, rebased from the wall clock
    // onto the platform's epoch clock.
    let svc_ctx = job.req_ctx.child();
    let backend_ctx = svc_ctx.clone().rebased(now - shared.sink.epoch_secs);
    let served = backend.serve(&shared.platform, req.target, &backend_ctx, now);
    let finished = shared.clock.now_secs();
    match served {
        Ok(response) => {
            let cached = response.served_from_cache;
            let answer = Answer {
                req_ctx: &job.req_ctx,
                svc_ctx: &svc_ctx,
                response: &response,
            };
            let completed = RequestOutcome::Completed { cached };
            let record = RequestRecord::of(&req, Some(now), Some(finished), completed);
            shared.close(record, Some(answer), finished - now);
            let _ = job.events.send(JobEvent::Done(Box::new(Answered {
                response,
                source: if cached {
                    AnswerSource::Cache
                } else {
                    AnswerSource::Fresh
                },
                queue_wait_secs: now - req.at,
                service_secs: finished - now,
            })));
        }
        Err(err) => {
            let record = RequestRecord::of(&req, Some(now), Some(finished), RequestOutcome::Failed);
            shared.close(record, None, finished - now);
            let rejection = match err {
                ServiceError::Unavailable { retry_in_secs, .. } => {
                    Rejection::BreakerOpen { retry_in_secs }
                }
                other => Rejection::Failed(other.to_string()),
            };
            let _ = job.events.send(JobEvent::Rejected(rejection));
        }
    }
}

/// Placeholder stale backend used only during pool wiring; never serves.
struct NullBackend(ToolId);

impl AuditBackend for NullBackend {
    fn tool(&self) -> ToolId {
        self.0
    }

    fn serve(
        &mut self,
        _platform: &Platform,
        _target: AccountId,
        _ctx: &TraceContext,
        _now_secs: f64,
    ) -> Result<ServiceResponse, ServiceError> {
        Err(ServiceError::Unavailable {
            tool: self.0,
            retry_in_secs: 0.0,
        })
    }

    fn serve_stale(&self, _target: AccountId) -> Option<ServiceResponse> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fakeaudit_detectors::{AuditOutcome, VerdictCounts};
    use fakeaudit_telemetry::analyze::names;
    use fakeaudit_telemetry::{ManualClock, WallClock};
    use fakeaudit_twittersim::SimTime;

    fn response(target: AccountId) -> ServiceResponse {
        ServiceResponse {
            outcome: AuditOutcome {
                tool_name: "TA".into(),
                target,
                assessed: vec![],
                counts: VerdictCounts::default(),
                audited_at: SimTime::EPOCH,
                api_elapsed_secs: 0.0,
                api_calls: 0,
            },
            response_secs: 0.0,
            served_from_cache: false,
            assessed_at: SimTime::EPOCH,
        }
    }

    /// Answers every target at once.
    struct InstantBackend;

    impl AuditBackend for InstantBackend {
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
            Ok(response(target))
        }

        fn serve_stale(&self, _target: AccountId) -> Option<ServiceResponse> {
            None
        }
    }

    /// Waits for the test's go-ahead, then serves in 2 s of manual clock;
    /// stale reads take 0.5 s of the same clock and know every target.
    struct ClockedBackend {
        clock: Arc<ManualClock>,
        gate: Option<mpsc::Receiver<()>>,
    }

    impl AuditBackend for ClockedBackend {
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
            if let Some(gate) = &self.gate {
                gate.recv().expect("test releases the worker");
            }
            self.clock.advance(2.0);
            Ok(response(target))
        }

        fn serve_stale(&self, target: AccountId) -> Option<ServiceResponse> {
            self.clock.advance(0.5);
            Some(response(target))
        }
    }

    #[test]
    fn degraded_answers_are_not_worker_time() {
        let clock = Arc::new(ManualClock::new(0.0));
        let (go, gate) = mpsc::channel();
        let backend = |gate| {
            Box::new(ClockedBackend {
                clock: Arc::clone(&clock),
                gate,
            })
        };
        let dispatcher = Dispatcher::start(
            Arc::new(Platform::new()),
            vec![ToolPool {
                tool: ToolId::Twitteraudit,
                workers: vec![backend(Some(gate))],
                stale: backend(None),
            }],
            ServerConfig {
                queue_capacity: 0,
                policy: OverloadPolicy::DegradeStale,
                ..ServerConfig::default()
            },
            clock.clone(),
            Telemetry::disabled(),
        );
        // The worker holds the first job until released, the second fills
        // the one queue slot, and the rest overflow onto the stale path.
        let first = dispatcher.submit(ToolId::Twitteraudit, AccountId(0));
        assert!(matches!(first.recv(), Ok(JobEvent::Queued { .. })));
        assert!(matches!(first.recv(), Ok(JobEvent::Started)));
        let second = dispatcher.submit(ToolId::Twitteraudit, AccountId(1));
        for target in 2..8 {
            let events = dispatcher.submit(ToolId::Twitteraudit, AccountId(target));
            assert!(
                matches!(events.recv(), Ok(JobEvent::Done(a)) if a.source == AnswerSource::Stale)
            );
        }
        go.send(()).unwrap();
        go.send(()).unwrap();
        for events in [first, second] {
            assert!(events.iter().any(|e| matches!(e, JobEvent::Done(_))));
        }
        dispatcher.shutdown();
        let report = dispatcher.report();
        assert_eq!((report.completed(), report.degraded()), (2, 6));
        let served: f64 = report
            .records
            .iter()
            .filter(|r| matches!(r.outcome, RequestOutcome::Completed { .. }))
            .map(RequestRecord::service_secs)
            .sum();
        assert!((report.per_tool[0].busy_secs - served).abs() < 1e-9);
        assert!(report.utilisation() <= 1.0);
    }

    #[test]
    fn a_tool_without_a_lane_is_shed_through_the_close_path() {
        let telemetry = Telemetry::enabled();
        let dispatcher = Dispatcher::start(
            Arc::new(Platform::new()),
            vec![ToolPool {
                tool: ToolId::Twitteraudit,
                workers: vec![Box::new(InstantBackend)],
                stale: Box::new(InstantBackend),
            }],
            ServerConfig::default(),
            Arc::new(ManualClock::new(3.0)),
            telemetry.clone(),
        );
        let events = dispatcher.submit(ToolId::Socialbakers, AccountId(5));
        assert!(matches!(
            events.recv(),
            Ok(JobEvent::Rejected(Rejection::Shed))
        ));
        dispatcher.shutdown();
        let report = dispatcher.report();
        assert_eq!(report.records.len(), 1);
        let record = report.records[0];
        assert_eq!(
            (record.tool, record.outcome),
            (ToolId::Socialbakers, RequestOutcome::Shed)
        );
        assert_eq!(report.offered(), 0, "a tool nobody serves is not offered");
        let sheds: Vec<_> = telemetry
            .events()
            .into_iter()
            .filter(|e| e.name == names::SERVER_SHED)
            .collect();
        assert_eq!(sheds.len(), 1);
        assert_eq!(sheds[0].t0, 3.0);
        assert_eq!(sheds[0].attr("tool"), Some("SB"));
        assert_eq!(sheds[0].attr("target"), Some("u5"));
    }

    fn audit(dispatcher: &Dispatcher, target: u64) -> bool {
        let events = dispatcher.submit(ToolId::Twitteraudit, AccountId(target));
        events.iter().any(|e| matches!(e, JobEvent::Done(_)))
    }

    #[test]
    fn a_panicking_holder_does_not_wedge_the_queue() {
        let dispatcher = Dispatcher::start(
            Arc::new(Platform::new()),
            vec![ToolPool {
                tool: ToolId::Twitteraudit,
                workers: vec![Box::new(InstantBackend)],
                stale: Box::new(InstantBackend),
            }],
            ServerConfig::default(),
            Arc::new(WallClock::new()),
            Telemetry::enabled(),
        );
        assert!(audit(&dispatcher, 1));
        let lane = Arc::clone(&dispatcher.shared.lanes[0]);
        // The worker sleeps on the condvar while another thread takes
        // the queue lock and dies holding it.
        let holder = std::thread::spawn(move || {
            let _guard = lock(&lane.state);
            panic!("holder panics with the queue locked");
        });
        assert!(holder.join().is_err());
        assert!(dispatcher.shared.lanes[0].state.is_poisoned());
        assert!(audit(&dispatcher, 2));
        assert_eq!(dispatcher.lane_status()[0].queue_depth, 0);
        dispatcher.shutdown();
        assert_eq!(dispatcher.report().completed(), 2);
    }
}
