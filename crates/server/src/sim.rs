//! The discrete-event service simulator.
//!
//! [`ServerSim`] runs a generated request trace against one worker pool
//! per tool. Each pool fronts an [`AdmissionQueue`] and a boxed
//! [`AuditBackend`] — in production use an
//! [`OnlineService`](fakeaudit_analytics::OnlineService), which already
//! models cache, quota and Table II response times; the simulator adds
//! the *concurrency* dimension: queue waits, worker contention, and the
//! overload policy when the queue fills.
//!
//! # Determinism
//!
//! The loop is single-threaded over one [`EventHeap`], so the only
//! ordering in play is the heap's total `(time, sequence)` key; every
//! backend draw comes from the backend's own seeded stream, consumed in
//! event order. Same seed, same trace, same report — byte for byte.
//! Parallelism lives one level up: independent sweep points fan out
//! across OS threads in `core::experiments::service_load`, each with its
//! own cloned backends.

use crate::close::{Answer, RequestSink};
use crate::event::EventHeap;
use crate::queue::{Admission, AdmissionQueue, OverloadPolicy};
use crate::workload::Request;
use fakeaudit_analytics::{OnlineService, ServiceError, ServiceResponse};
use fakeaudit_detectors::{FollowerAuditor, ToolId};
use fakeaudit_store::SharedWriter;
use fakeaudit_telemetry::metrics::rounded_index;
use fakeaudit_telemetry::{SloMonitor, SpanId, Telemetry, TraceContext};
use fakeaudit_twittersim::{AccountId, Platform};
use std::sync::OnceLock;

/// Anything that can serve one audit request for a fixed tool.
///
/// The simulator boxes backends so the four tools — four distinct engine
/// types — can share one worker-pool implementation. The blanket impl
/// below covers every `OnlineService`.
pub trait AuditBackend {
    /// The tool this backend fronts.
    fn tool(&self) -> ToolId;
    /// Serves one request for `target`.
    ///
    /// `ctx` is the causal position: backends that trace (an
    /// `OnlineService`) attach their `service.request` subtree under it —
    /// the simulator passes its open `server.service` span, the gateway
    /// its rebased one. `now_secs` is the caller's clock (the simulator's
    /// event-loop seconds since run start, or the gateway's wall clock):
    /// backends with time-dependent state — an `OnlineService`'s circuit
    /// breaker cools down in that time — need the advancing clock,
    /// because the platform clock is frozen for the whole run. Scripted
    /// backends may ignore either.
    ///
    /// # Errors
    ///
    /// Propagates the service's [`ServiceError`] (quota, audit failure,
    /// open breaker).
    fn serve(
        &mut self,
        platform: &Platform,
        target: AccountId,
        ctx: &TraceContext,
        now_secs: f64,
    ) -> Result<ServiceResponse, ServiceError>;
    /// The degrade-to-stale answer, if any report for `target` exists.
    fn serve_stale(&self, target: AccountId) -> Option<ServiceResponse>;
    /// The current circuit-breaker state, for backends that run one (an
    /// armed `OnlineService`). `None` means no breaker — scripted test
    /// backends and unarmed services. Surfaced so operational endpoints
    /// (`/healthz`, `/debug/vars`) can report breaker health without
    /// reaching into worker threads.
    fn breaker_state(&self) -> Option<fakeaudit_analytics::BreakerState> {
        None
    }
}

impl<A: FollowerAuditor> AuditBackend for OnlineService<A> {
    fn tool(&self) -> ToolId {
        OnlineService::tool(self)
    }

    fn serve(
        &mut self,
        platform: &Platform,
        target: AccountId,
        ctx: &TraceContext,
        now_secs: f64,
    ) -> Result<ServiceResponse, ServiceError> {
        let breaker_now = platform.now().as_secs() as f64 + now_secs;
        self.request_in_at(platform, target, ctx, breaker_now)
    }

    fn serve_stale(&self, target: AccountId) -> Option<ServiceResponse> {
        OnlineService::serve_stale(self, target)
    }

    fn breaker_state(&self) -> Option<fakeaudit_analytics::BreakerState> {
        self.breaker().map(|b| b.state())
    }
}

/// Worker-pool and admission-control knobs, shared by every tool server.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServerConfig {
    /// Concurrent workers per tool.
    pub workers_per_tool: usize,
    /// Bounded admission-queue capacity per tool.
    pub queue_capacity: usize,
    /// What to do when the queue is full.
    pub policy: OverloadPolicy,
    /// Simulated seconds a degraded (stale-cache) answer takes — no worker
    /// is occupied, it is a straight cache read.
    pub degraded_secs: f64,
    /// End-to-end deadline: a queued request whose wait already exceeds
    /// this when a worker frees up is dropped (the client hung up)
    /// instead of served. `None` disables expiry. Under retry storms this
    /// is what turns unbounded queue collapse into bounded shedding.
    pub deadline_secs: Option<f64>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            workers_per_tool: 2,
            queue_capacity: 8,
            policy: OverloadPolicy::Shed,
            degraded_secs: 0.5,
            deadline_secs: None,
        }
    }
}

/// How one request ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestOutcome {
    /// Served by a worker.
    Completed {
        /// Whether the service answered from its (fresh) cache.
        cached: bool,
    },
    /// Served a stale cached report under the degrade policy.
    Degraded,
    /// Refused at admission (503).
    Shed,
    /// Dropped from the queue after its end-to-end deadline elapsed.
    Expired,
    /// A worker picked it up but the service errored (quota, audit).
    Failed,
}

impl RequestOutcome {
    /// Label used in metric labels and tables.
    pub fn label(&self) -> &'static str {
        match self {
            RequestOutcome::Completed { .. } => "completed",
            RequestOutcome::Degraded => "degraded",
            RequestOutcome::Shed => "shed",
            RequestOutcome::Expired => "expired",
            RequestOutcome::Failed => "failed",
        }
    }
}

/// The full story of one request through the server.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RequestRecord {
    /// Trace id of the request.
    pub id: u64,
    /// Which tool it asked.
    pub tool: ToolId,
    /// The audited account.
    pub target: AccountId,
    /// Arrival time (seconds).
    pub arrived: f64,
    /// When a worker (or the degrade path) picked it up; `None` if shed
    /// or expired.
    pub started: Option<f64>,
    /// When the response left, or the request failed or expired; `None`
    /// if shed.
    pub finished: Option<f64>,
    /// How it ended.
    pub outcome: RequestOutcome,
}

impl RequestRecord {
    /// The record of `req` ending as `outcome`.
    pub fn of(
        req: &Request,
        started: Option<f64>,
        finished: Option<f64>,
        outcome: RequestOutcome,
    ) -> Self {
        Self {
            id: req.id,
            tool: req.tool,
            target: req.target,
            arrived: req.at,
            started,
            finished,
            outcome,
        }
    }

    /// Seconds spent waiting in the admission queue (0 for shed requests).
    pub fn queue_wait(&self) -> f64 {
        self.started.map_or(0.0, |s| s - self.arrived)
    }

    /// Seconds of actual service (0 for shed requests).
    pub fn service_secs(&self) -> f64 {
        match (self.started, self.finished) {
            (Some(s), Some(f)) => f - s,
            _ => 0.0,
        }
    }

    /// End-to-end latency as the client saw it; `None` if shed.
    pub fn latency(&self) -> Option<f64> {
        self.finished.map(|f| f - self.arrived)
    }

    /// Whether the client got an answer (completed or degraded).
    pub fn answered(&self) -> bool {
        matches!(
            self.outcome,
            RequestOutcome::Completed { .. } | RequestOutcome::Degraded
        )
    }
}

/// Per-tool aggregate counters.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ToolSummary {
    /// The tool.
    pub tool: Option<ToolId>,
    /// Requests that arrived for this tool.
    pub offered: u64,
    /// Requests served by a worker.
    pub completed: u64,
    /// Requests answered from stale cache under the degrade policy.
    pub degraded: u64,
    /// Requests refused at admission.
    pub shed: u64,
    /// Requests dropped in queue past the end-to-end deadline.
    pub expired: u64,
    /// Requests that reached a worker but errored.
    pub failed: u64,
    /// Completed requests the service answered from its fresh cache.
    pub cache_hits: u64,
    /// High-water mark of the bounded admission queue.
    pub max_queue_depth: usize,
    /// High-water mark of the blocked overflow lane (Block policy).
    pub max_blocked: usize,
    /// Total worker-busy seconds.
    pub busy_secs: f64,
}

impl ToolSummary {
    /// Counts one closed request: offered, its outcome, a cache hit, and
    /// `busy_secs` of worker time if a worker served it (completed or
    /// failed) — the degrade path occupies no worker.
    pub fn tally(&mut self, outcome: RequestOutcome, busy_secs: f64) {
        self.offered += 1;
        match outcome {
            RequestOutcome::Completed { cached } => {
                self.completed += 1;
                self.cache_hits += u64::from(cached);
                self.busy_secs += busy_secs;
            }
            RequestOutcome::Failed => {
                self.failed += 1;
                self.busy_secs += busy_secs;
            }
            RequestOutcome::Degraded => self.degraded += 1,
            RequestOutcome::Shed => self.shed += 1,
            RequestOutcome::Expired => self.expired += 1,
        }
    }
}

/// Everything the simulation produced: per-request records plus per-tool
/// aggregates.
#[derive(Debug, Clone)]
pub struct ServerReport {
    /// One record per offered request, in completion-event order.
    pub records: Vec<RequestRecord>,
    /// One summary per registered tool, in registration order.
    pub per_tool: Vec<ToolSummary>,
    /// The configuration the run used.
    pub config: ServerConfig,
    /// Time of the last completion (or last arrival if nothing completed).
    pub makespan: f64,
    /// Ascending end-to-end latencies, sorted once on first use.
    sorted_latencies: OnceLock<Vec<f64>>,
    /// Ascending queue waits, sorted once on first use.
    sorted_queue_waits: OnceLock<Vec<f64>>,
}

impl ServerReport {
    /// A report over closed `records` and their per-tool tallies.
    pub fn new(
        records: Vec<RequestRecord>,
        per_tool: Vec<ToolSummary>,
        config: ServerConfig,
        makespan: f64,
    ) -> Self {
        Self {
            records,
            per_tool,
            config,
            makespan,
            sorted_latencies: OnceLock::new(),
            sorted_queue_waits: OnceLock::new(),
        }
    }

    fn totals(&self, f: impl Fn(&ToolSummary) -> u64) -> u64 {
        self.per_tool.iter().map(f).sum()
    }

    /// Requests offered across all tools.
    pub fn offered(&self) -> u64 {
        self.totals(|t| t.offered)
    }

    /// Requests completed by workers across all tools.
    pub fn completed(&self) -> u64 {
        self.totals(|t| t.completed)
    }

    /// Requests served stale across all tools.
    pub fn degraded(&self) -> u64 {
        self.totals(|t| t.degraded)
    }

    /// Requests shed across all tools.
    pub fn shed(&self) -> u64 {
        self.totals(|t| t.shed)
    }

    /// Requests expired in queue across all tools.
    pub fn expired(&self) -> u64 {
        self.totals(|t| t.expired)
    }

    /// Requests that reached a worker and errored.
    pub fn failed(&self) -> u64 {
        self.totals(|t| t.failed)
    }

    /// Answered requests per second of makespan (completed + degraded).
    pub fn throughput(&self) -> f64 {
        if self.makespan <= 0.0 {
            return 0.0;
        }
        (self.completed() + self.degraded()) as f64 / self.makespan
    }

    /// Fraction of offered requests shed.
    pub fn shed_rate(&self) -> f64 {
        let offered = self.offered();
        if offered == 0 {
            return 0.0;
        }
        self.shed() as f64 / offered as f64
    }

    /// Ascending end-to-end latencies, computed once and cached.
    fn sorted_latencies(&self) -> &[f64] {
        self.sorted_latencies.get_or_init(|| {
            let mut v: Vec<f64> = self.records.iter().filter_map(|r| r.latency()).collect();
            v.sort_by(f64::total_cmp);
            v
        })
    }

    /// Ascending queue waits of every started request, cached like
    /// [`ServerReport::sorted_latencies`].
    fn sorted_queue_waits(&self) -> &[f64] {
        self.sorted_queue_waits.get_or_init(|| {
            let mut v: Vec<f64> = self
                .records
                .iter()
                .filter(|r| r.started.is_some())
                .map(|r| r.queue_wait())
                .collect();
            v.sort_by(f64::total_cmp);
            v
        })
    }

    /// Sorted end-to-end latencies of every request with a finish time:
    /// answered, failed and expired ones (shed requests never finish).
    pub fn latencies(&self) -> Vec<f64> {
        self.sorted_latencies().to_vec()
    }

    /// Exact percentile of [`ServerReport::latencies`] (`q` in `[0, 1]`,
    /// the [`rounded_index`] rule); 0.0 when nothing finished.
    pub fn latency_percentile(&self, q: f64) -> f64 {
        rounded_index(self.sorted_latencies(), q).unwrap_or(0.0)
    }

    /// Exact percentile of queue wait over every started request:
    /// completed, degraded and failed ones (the [`rounded_index`] rule).
    pub fn queue_wait_percentile(&self, q: f64) -> f64 {
        rounded_index(self.sorted_queue_waits(), q).unwrap_or(0.0)
    }

    /// Mean worker utilisation across tools in `[0, 1]`.
    pub fn utilisation(&self) -> f64 {
        if self.makespan <= 0.0 || self.per_tool.is_empty() {
            return 0.0;
        }
        let busy: f64 = self.per_tool.iter().map(|t| t.busy_secs).sum();
        let span = self.makespan * (self.config.workers_per_tool * self.per_tool.len()) as f64;
        (busy / span).min(1.0)
    }
}

/// Per-tool end-of-run counters and gauges.
fn record_tool_totals(telemetry: &Telemetry, per_tool: &[ToolSummary]) {
    for t in per_tool {
        let Some(tool) = t.tool else { continue };
        let labels = [("tool", tool.abbrev())];
        telemetry.counter_add("server.offered", &labels, t.offered);
        telemetry.counter_add("server.completed", &labels, t.completed);
        telemetry.counter_add("server.degraded", &labels, t.degraded);
        telemetry.counter_add("server.shed", &labels, t.shed);
        if t.expired > 0 {
            telemetry.counter_add("server.expired", &labels, t.expired);
        }
        telemetry.counter_add("server.failed", &labels, t.failed);
        telemetry.gauge_set("server.max_queue_depth", &labels, t.max_queue_depth as f64);
        telemetry.gauge_set("server.max_blocked", &labels, t.max_blocked as f64);
        telemetry.gauge_set("server.busy_secs", &labels, t.busy_secs);
    }
}

/// One tool's worker pool + admission queue + backend.
struct ToolServer {
    backend: Box<dyn AuditBackend>,
    queue: AdmissionQueue<Request>,
    idle_workers: usize,
    summary: ToolSummary,
}

/// Events driving the simulation.
enum Event {
    /// A client request arrives.
    Arrival(Request),
    /// A worker at `server` finishes its current request.
    WorkerDone { server: usize },
}

/// The discrete-event concurrent service simulator.
///
/// Register one backend per tool, then [`ServerSim::run`] a trace from
/// [`workload::generate`](crate::workload::generate).
pub struct ServerSim<'p> {
    platform: &'p Platform,
    config: ServerConfig,
    servers: Vec<ToolServer>,
    records: Vec<RequestRecord>,
    makespan: f64,
    sink: RequestSink,
    monitor: Option<SloMonitor>,
}

impl<'p> ServerSim<'p> {
    /// A simulator over `platform` with the given pool configuration.
    pub fn new(platform: &'p Platform, config: ServerConfig) -> Self {
        Self::with_telemetry(platform, config, Telemetry::disabled())
    }

    /// A simulator that traces causally as it runs: every answered
    /// request becomes a `server.request` span with `server.queue_wait`
    /// and `server.service` children, the backend's own subtree (API
    /// crawl, cache lookup, detector pass) hangs under `server.service`,
    /// and refused or errored requests become `server.shed` /
    /// `server.failed` points — all written by [`RequestSink::close`].
    pub fn with_telemetry(
        platform: &'p Platform,
        config: ServerConfig,
        telemetry: Telemetry,
    ) -> Self {
        Self {
            platform,
            config,
            servers: Vec::new(),
            records: Vec::new(),
            makespan: 0.0,
            sink: RequestSink::new(telemetry, platform.now().as_secs() as f64),
            monitor: None,
        }
    }

    /// Attaches a streaming SLO monitor driven on the sim clock: the
    /// event loop feeds it one observation per finished request (keyed
    /// by tool abbreviation) and ticks it every
    /// [`MonitorConfig::bucket_secs`](fakeaudit_telemetry::MonitorConfig::bucket_secs)
    /// of simulated time, then runs the ticks past the makespan until
    /// every window has drained, so alerts raised by the tail of the
    /// trace still resolve deterministically.
    pub fn with_monitor(&mut self, monitor: SloMonitor) -> &mut Self {
        self.monitor = Some(monitor);
        self
    }

    /// Persists every answered request (completed or degraded) into the
    /// columnar history store behind `writer`, stamped on the epoch
    /// clock (platform epoch + server time). The simulator appends only;
    /// flushing the tail buffer is the caller's job — it owns the writer
    /// lifecycle and may share it across several runs.
    pub fn persist_into(&mut self, writer: SharedWriter) -> &mut Self {
        self.sink.persist = Some(writer);
        self
    }

    /// Registers a backend; requests for its tool route to its pool.
    pub fn register(&mut self, backend: Box<dyn AuditBackend>) -> &mut Self {
        let tool = backend.tool();
        self.servers.push(ToolServer {
            backend,
            queue: AdmissionQueue::new(self.config.queue_capacity, self.config.policy),
            idle_workers: self.config.workers_per_tool.max(1),
            summary: ToolSummary {
                tool: Some(tool),
                ..ToolSummary::default()
            },
        });
        self
    }

    fn server_for(&self, tool: ToolId) -> Option<usize> {
        self.servers.iter().position(|s| s.backend.tool() == tool)
    }

    /// Runs the trace to completion and returns the report.
    ///
    /// Requests for tools with no registered backend are shed (a 404 is a
    /// shed as far as the client is concerned).
    pub fn run(mut self, trace: &[Request]) -> ServerReport {
        let mut heap = EventHeap::new();
        for req in trace {
            heap.push(req.at, Event::Arrival(*req));
        }
        let tick_secs = self
            .monitor
            .as_ref()
            .map(|m| m.config().bucket_secs.max(f64::EPSILON));
        let mut next_tick = tick_secs.unwrap_or(0.0);
        while let Some((now, event)) = heap.pop() {
            if let (Some(monitor), Some(step)) = (&self.monitor, tick_secs) {
                // The monitor sees time advance in bucket-sized steps,
                // interleaved with the events in heap order.
                while next_tick <= now {
                    monitor.tick(next_tick);
                    next_tick += step;
                }
            }
            self.makespan = self.makespan.max(now);
            match event {
                Event::Arrival(req) => self.on_arrival(req, &mut heap),
                Event::WorkerDone { server } => {
                    self.servers[server].idle_workers += 1;
                    self.drain_queue(now, server, &mut heap);
                }
            }
        }
        if let (Some(monitor), Some(step)) = (&self.monitor, tick_secs) {
            // Drain: tick until every window has emptied and every
            // clear dwell could have been served, so in-flight alerts
            // resolve before the report is cut.
            let drain = monitor
                .config()
                .rules
                .iter()
                .map(|r| r.long_secs.max(r.short_secs) + r.pending_secs + r.clear_secs)
                .fold(0.0, f64::max);
            let end = self.makespan + drain + step;
            while next_tick <= end {
                monitor.tick(next_tick);
                next_tick += step;
            }
        }
        let per_tool = self
            .servers
            .into_iter()
            .map(|s| ToolSummary {
                max_queue_depth: s.queue.max_depth(),
                max_blocked: s.queue.max_overflow(),
                ..s.summary
            })
            .collect();
        let report = ServerReport::new(self.records, per_tool, self.config, self.makespan);
        record_tool_totals(&self.sink.telemetry, &report.per_tool);
        report
    }

    /// Ends `record` through [`RequestSink::close`] (tallied on `server`
    /// unless its tool has none), feeds it to the attached monitor and
    /// keeps it for the report. The monitor sees the route (the tool
    /// abbreviation, as in the metric labels), the finish time, the
    /// latency of a started request, whether the client got an answer,
    /// and `root` — the request's trace-tree root, for the tail sampler.
    fn close(
        &mut self,
        server: Option<usize>,
        record: RequestRecord,
        answer: Option<Answer<'_>>,
        busy_secs: f64,
        root: Option<SpanId>,
    ) {
        let summary = server.map(|i| &mut self.servers[i].summary);
        self.sink.close(&record, answer, busy_secs, summary);
        if let Some(monitor) = &self.monitor {
            monitor.observe_request(
                record.tool.abbrev(),
                record.finished.unwrap_or(record.arrived),
                record.started.and(record.latency()),
                record.answered(),
                root,
            );
        }
        self.records.push(record);
    }

    fn on_arrival(&mut self, req: Request, heap: &mut EventHeap<Event>) {
        let Some(idx) = self.server_for(req.tool) else {
            let record = RequestRecord::of(&req, None, None, RequestOutcome::Shed);
            self.close(None, record, None, 0.0, None);
            return;
        };
        if self.servers[idx].idle_workers > 0 {
            // An idle worker implies an empty queue — serve immediately.
            self.start_service(req.at, idx, req, heap);
            return;
        }
        match self.servers[idx].queue.offer(req) {
            Admission::Enqueued | Admission::Blocked => {}
            Admission::Overloaded => self.overloaded(idx, req),
        }
    }

    /// Full queue, non-parking policy: degrade if possible, shed otherwise.
    fn overloaded(&mut self, idx: usize, req: Request) {
        let server = &self.servers[idx];
        let stale = match server.queue.policy() {
            OverloadPolicy::DegradeStale => server.backend.serve_stale(req.target),
            _ => None,
        };
        let Some(resp) = stale else {
            let record = RequestRecord::of(&req, None, None, RequestOutcome::Shed);
            self.close(Some(idx), record, None, 0.0, None);
            return;
        };
        let finished = req.at + self.config.degraded_secs;
        self.makespan = self.makespan.max(finished);
        let req_ctx = self.sink.root.child();
        let svc_ctx = req_ctx.child();
        let answer = Answer {
            req_ctx: &req_ctx,
            svc_ctx: &svc_ctx,
            response: &resp,
        };
        let record =
            RequestRecord::of(&req, Some(req.at), Some(finished), RequestOutcome::Degraded);
        self.close(Some(idx), record, Some(answer), 0.0, req_ctx.span_id());
    }

    /// Occupies one worker with `req`. Failures are instantaneous, so the
    /// worker stays idle and the caller's drain loop keeps pulling.
    ///
    /// `req_ctx` becomes the `server.request` span and `svc_ctx` the
    /// `server.service` span the backend nests its own subtree under;
    /// both are recorded only once the outcome is known, so a failed
    /// request leaves a `server.failed` point and no half-open spans.
    fn start_service(&mut self, now: f64, idx: usize, req: Request, heap: &mut EventHeap<Event>) {
        let req_ctx = self.sink.root.child();
        let svc_ctx = req_ctx.child();
        // Backends stamp their spans on the platform's epoch clock while
        // the server runs from 0, so the context handed down is rebased
        // onto the server clock: the backend subtree then nests exactly
        // inside the `server.service` interval.
        let backend_ctx = svc_ctx.clone().rebased(now - self.sink.epoch_secs);
        let server = &mut self.servers[idx];
        match server
            .backend
            .serve(self.platform, req.target, &backend_ctx, now)
        {
            Ok(resp) => {
                server.idle_workers -= 1;
                let finished = now + resp.response_secs;
                let outcome = RequestOutcome::Completed {
                    cached: resp.served_from_cache,
                };
                let answer = Answer {
                    req_ctx: &req_ctx,
                    svc_ctx: &svc_ctx,
                    response: &resp,
                };
                let record = RequestRecord::of(&req, Some(now), Some(finished), outcome);
                self.close(
                    Some(idx),
                    record,
                    Some(answer),
                    resp.response_secs,
                    req_ctx.span_id(),
                );
                heap.push(finished, Event::WorkerDone { server: idx });
            }
            Err(_) => {
                // The request and service span ids were allocated before
                // the backend ran, so any API-fault evidence the backend
                // traced hangs under them: hand the monitor that tree as
                // the failure exemplar.
                let record = RequestRecord::of(&req, Some(now), Some(now), RequestOutcome::Failed);
                self.close(Some(idx), record, None, 0.0, req_ctx.span_id());
            }
        }
    }

    /// Hands queued requests to idle workers until one side runs out.
    /// With a deadline configured, requests that already waited past it
    /// are dropped here — the client stopped listening, so serving them
    /// would burn a worker on a dead connection.
    fn drain_queue(&mut self, now: f64, idx: usize, heap: &mut EventHeap<Event>) {
        while self.servers[idx].idle_workers > 0 {
            let Some(req) = self.servers[idx].queue.pop() else {
                break;
            };
            if self.config.deadline_secs.is_some_and(|d| now - req.at > d) {
                let record = RequestRecord::of(&req, None, Some(now), RequestOutcome::Expired);
                self.close(Some(idx), record, None, 0.0, None);
                continue;
            }
            self.start_service(now, idx, req, heap);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fakeaudit_detectors::{AuditOutcome, VerdictCounts};
    use fakeaudit_telemetry::analyze::names;
    use fakeaudit_telemetry::TraceEvent;
    use fakeaudit_twittersim::SimTime;

    /// A backend with a scripted constant service time — no audits, no
    /// population, pure queueing behaviour.
    struct FakeBackend {
        tool: ToolId,
        service_secs: f64,
        known: Vec<AccountId>,
    }

    impl FakeBackend {
        fn new(tool: ToolId, service_secs: f64) -> Self {
            Self {
                tool,
                service_secs,
                known: Vec::new(),
            }
        }

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

    impl AuditBackend for FakeBackend {
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

    fn request(id: u64, at: f64, tool: ToolId) -> Request {
        Request {
            id,
            at,
            tool,
            target: AccountId(id),
        }
    }

    fn sim(platform: &Platform, config: ServerConfig) -> ServerSim<'_> {
        let mut s = ServerSim::new(platform, config);
        s.register(Box::new(FakeBackend::new(ToolId::FakeClassifier, 10.0)));
        s
    }

    #[test]
    fn idle_worker_serves_immediately() {
        let platform = Platform::new();
        let report =
            sim(&platform, ServerConfig::default()).run(&[request(0, 5.0, ToolId::FakeClassifier)]);
        assert_eq!(report.completed(), 1);
        let r = &report.records[0];
        assert_eq!(r.queue_wait(), 0.0);
        assert_eq!(r.latency(), Some(10.0));
        assert_eq!(report.makespan, 15.0);
    }

    #[test]
    fn queue_wait_accrues_when_workers_busy() {
        let platform = Platform::new();
        let config = ServerConfig {
            workers_per_tool: 1,
            ..ServerConfig::default()
        };
        // Two simultaneous arrivals, one worker, 10 s service: the second
        // request waits 10 s in the queue.
        let report = sim(&platform, config).run(&[
            request(0, 0.0, ToolId::FakeClassifier),
            request(1, 0.0, ToolId::FakeClassifier),
        ]);
        assert_eq!(report.completed(), 2);
        let waits: Vec<f64> = report.records.iter().map(|r| r.queue_wait()).collect();
        assert_eq!(waits, vec![0.0, 10.0]);
        assert_eq!(report.makespan, 20.0);
    }

    #[test]
    fn shed_policy_refuses_past_capacity() {
        let platform = Platform::new();
        let config = ServerConfig {
            workers_per_tool: 1,
            queue_capacity: 1,
            policy: OverloadPolicy::Shed,
            ..ServerConfig::default()
        };
        // Three simultaneous arrivals: one in service, one queued, one shed.
        let trace: Vec<Request> = (0..3)
            .map(|i| request(i, 0.0, ToolId::FakeClassifier))
            .collect();
        let report = sim(&platform, config).run(&trace);
        assert_eq!(report.completed(), 2);
        assert_eq!(report.shed(), 1);
        assert_eq!(report.offered(), 3);
        assert!((report.shed_rate() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn block_policy_answers_everything() {
        let platform = Platform::new();
        let config = ServerConfig {
            workers_per_tool: 1,
            queue_capacity: 1,
            policy: OverloadPolicy::Block,
            ..ServerConfig::default()
        };
        let trace: Vec<Request> = (0..6)
            .map(|i| request(i, 0.0, ToolId::FakeClassifier))
            .collect();
        let report = sim(&platform, config).run(&trace);
        assert_eq!(report.completed(), 6);
        assert_eq!(report.shed(), 0);
        assert_eq!(report.per_tool[0].max_queue_depth, 1);
        assert!(report.per_tool[0].max_blocked >= 1);
        // 6 sequential 10 s services.
        assert_eq!(report.makespan, 60.0);
    }

    #[test]
    fn degrade_serves_stale_when_known_sheds_when_cold() {
        let platform = Platform::new();
        let config = ServerConfig {
            workers_per_tool: 1,
            queue_capacity: 1,
            policy: OverloadPolicy::DegradeStale,
            degraded_secs: 0.5,
            ..ServerConfig::default()
        };
        // First wave fills worker + queue with targets 0 and 1; target 0
        // repeats (known → degraded) and target 9 is cold (→ shed).
        let trace = vec![
            request(0, 0.0, ToolId::FakeClassifier),
            request(1, 0.0, ToolId::FakeClassifier),
            Request {
                id: 2,
                at: 1.0,
                tool: ToolId::FakeClassifier,
                target: AccountId(0),
            },
            request(9, 2.0, ToolId::FakeClassifier),
        ];
        let report = sim(&platform, config).run(&trace);
        assert_eq!(report.completed(), 2);
        assert_eq!(report.degraded(), 1);
        assert_eq!(report.shed(), 1);
        let degraded = report
            .records
            .iter()
            .find(|r| r.outcome == RequestOutcome::Degraded)
            .unwrap();
        assert_eq!(degraded.latency(), Some(0.5));
        // Stale answers occupy no worker: busy time is the completed
        // requests' service time alone.
        let served: f64 = report
            .records
            .iter()
            .filter(|r| matches!(r.outcome, RequestOutcome::Completed { .. }))
            .map(RequestRecord::service_secs)
            .sum();
        assert_eq!(report.per_tool[0].busy_secs, served);
        assert_eq!(served, 20.0);
    }

    #[test]
    fn per_tool_fifo_start_order() {
        let platform = Platform::new();
        let config = ServerConfig {
            workers_per_tool: 2,
            queue_capacity: 8,
            policy: OverloadPolicy::Block,
            ..ServerConfig::default()
        };
        let trace: Vec<Request> = (0..12)
            .map(|i| request(i, i as f64 * 0.1, ToolId::FakeClassifier))
            .collect();
        let report = sim(&platform, config).run(&trace);
        let mut started: Vec<(f64, u64)> = report
            .records
            .iter()
            .filter_map(|r| r.started.map(|s| (s, r.id)))
            .collect();
        started.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let ids: Vec<u64> = started.iter().map(|&(_, id)| id).collect();
        assert_eq!(
            ids,
            (0..12).collect::<Vec<_>>(),
            "service starts follow arrival order"
        );
    }

    #[test]
    fn unregistered_tool_is_shed() {
        let platform = Platform::new();
        let report =
            sim(&platform, ServerConfig::default()).run(&[request(0, 0.0, ToolId::Socialbakers)]);
        assert_eq!(report.shed(), 0, "unregistered tools are not offered");
        assert_eq!(report.records[0].outcome, RequestOutcome::Shed);
    }

    #[test]
    fn conservation_under_every_policy() {
        let platform = Platform::new();
        for policy in OverloadPolicy::ALL {
            let config = ServerConfig {
                workers_per_tool: 1,
                queue_capacity: 2,
                policy,
                ..ServerConfig::default()
            };
            let trace: Vec<Request> = (0..20)
                .map(|i| request(i, (i / 4) as f64, ToolId::FakeClassifier))
                .collect();
            let report = sim(&platform, config).run(&trace);
            assert_eq!(
                report.completed()
                    + report.degraded()
                    + report.shed()
                    + report.expired()
                    + report.failed(),
                report.offered(),
                "{policy:?}"
            );
            assert_eq!(report.records.len(), 20);
        }
    }

    #[test]
    fn deadline_expires_overwaiting_queued_requests() {
        let platform = Platform::new();
        let config = ServerConfig {
            workers_per_tool: 1,
            queue_capacity: 8,
            policy: OverloadPolicy::Block,
            deadline_secs: Some(15.0),
            ..ServerConfig::default()
        };
        // One worker, 10 s service, six simultaneous arrivals: request 0
        // serves at 0, request 1 at 10 (waited 10 ≤ 15), and the rest
        // would start at 20+ having waited past the 15 s deadline.
        let tel = Telemetry::enabled();
        let mut s = ServerSim::with_telemetry(&platform, config, tel.clone());
        s.register(Box::new(FakeBackend::new(ToolId::FakeClassifier, 10.0)));
        let trace: Vec<Request> = (0..6)
            .map(|i| request(i, 0.0, ToolId::FakeClassifier))
            .collect();
        let report = s.run(&trace);
        assert_eq!(report.completed(), 2);
        assert_eq!(report.expired(), 4);
        assert_eq!(
            report.completed() + report.expired(),
            report.offered(),
            "every request accounted"
        );
        // Expired requests leave a point each and stay out of service time.
        let events = tel.events();
        assert_eq!(
            events
                .iter()
                .filter(|e| e.name == names::SERVER_EXPIRED)
                .count(),
            4
        );
        let labels = [("tool", ToolId::FakeClassifier.abbrev())];
        assert_eq!(tel.snapshot().counter("server.expired", &labels), Some(4));
        // No deadline → everything completes (the seed behaviour).
        let mut s2 = ServerSim::new(
            &platform,
            ServerConfig {
                deadline_secs: None,
                ..config
            },
        );
        s2.register(Box::new(FakeBackend::new(ToolId::FakeClassifier, 10.0)));
        assert_eq!(s2.run(&trace).completed(), 6);
    }

    #[test]
    fn throughput_and_utilisation_are_sane() {
        let platform = Platform::new();
        let config = ServerConfig {
            workers_per_tool: 1,
            ..ServerConfig::default()
        };
        let trace: Vec<Request> = (0..4)
            .map(|i| request(i, 0.0, ToolId::FakeClassifier))
            .collect();
        let report = sim(&platform, config).run(&trace);
        assert!((report.throughput() - 4.0 / 40.0).abs() < 1e-12);
        assert!((report.utilisation() - 1.0).abs() < 1e-12);
    }

    /// A backend whose every serve errors — exercises the failed path.
    struct FailingBackend;

    impl AuditBackend for FailingBackend {
        fn tool(&self) -> ToolId {
            ToolId::FakeClassifier
        }

        fn serve(
            &mut self,
            _platform: &Platform,
            _target: AccountId,
            _ctx: &TraceContext,
            _now_secs: f64,
        ) -> Result<ServiceResponse, ServiceError> {
            Err(ServiceError::Quota(
                fakeaudit_analytics::quota::QuotaExceeded { limit: 0, day: 0 },
            ))
        }

        fn serve_stale(&self, _target: AccountId) -> Option<ServiceResponse> {
            None
        }
    }

    #[test]
    fn live_tracing_builds_causal_request_trees() {
        let platform = Platform::new();
        let tel = Telemetry::enabled();
        let config = ServerConfig {
            workers_per_tool: 1,
            queue_capacity: 8,
            policy: OverloadPolicy::Block,
            ..ServerConfig::default()
        };
        let mut s = ServerSim::with_telemetry(&platform, config, tel.clone());
        s.register(Box::new(FakeBackend::new(ToolId::FakeClassifier, 10.0)));
        let report = s.run(&[
            request(0, 0.0, ToolId::FakeClassifier),
            request(1, 0.0, ToolId::FakeClassifier),
        ]);
        assert_eq!(report.completed(), 2);

        let events = tel.events();
        let tree = fakeaudit_telemetry::TraceTree::build(&events);
        let roots = tree.request_roots();
        assert_eq!(roots.len(), 2, "one tree per answered request");
        let mut waits = Vec::new();
        for &root in &roots {
            let ev = tree.event(root);
            assert_eq!(ev.name, names::SERVER_REQUEST);
            assert!(ev.id.is_some() && ev.parent.is_none());
            assert_eq!(ev.attr("outcome"), Some("completed"));
            let kids: Vec<&str> = tree
                .children_of(ev.id.unwrap())
                .iter()
                .map(|&i| tree.event(i).name.as_str())
                .collect();
            assert_eq!(kids, vec![names::SERVER_QUEUE_WAIT, names::SERVER_SERVICE]);
            let wait = tree
                .children_of(ev.id.unwrap())
                .iter()
                .map(|&i| tree.event(i))
                .find(|e| e.name == names::SERVER_QUEUE_WAIT)
                .unwrap();
            waits.push(wait.duration_secs());
        }
        waits.sort_by(f64::total_cmp);
        assert_eq!(waits, vec![0.0, 10.0], "second request queued 10 s");
        // The close path counts and observes every answered request.
        let snap = tel.snapshot();
        let labels = [("tool", ToolId::FakeClassifier.abbrev())];
        assert_eq!(snap.counter("server.completed", &labels), Some(2));
        let hist = snap.histogram("server.latency_secs", &labels).unwrap();
        assert_eq!(hist.count, 2);
    }

    #[test]
    fn live_tracing_points_refusals() {
        let platform = Platform::new();
        let tel = Telemetry::enabled();
        let config = ServerConfig {
            workers_per_tool: 1,
            queue_capacity: 1,
            policy: OverloadPolicy::Shed,
            ..ServerConfig::default()
        };
        let mut s = ServerSim::with_telemetry(&platform, config, tel.clone());
        s.register(Box::new(FakeBackend::new(ToolId::FakeClassifier, 10.0)));
        let trace: Vec<Request> = (0..3)
            .map(|i| request(i, 0.0, ToolId::FakeClassifier))
            .collect();
        let report = s.run(&trace);
        assert_eq!(report.shed(), 1);

        let events = tel.events();
        let sheds: Vec<_> = events
            .iter()
            .filter(|e| e.name == names::SERVER_SHED)
            .collect();
        assert_eq!(sheds.len(), 1);
        assert_eq!(sheds[0].attr("tool"), Some(ToolId::FakeClassifier.abbrev()));
        assert!(sheds[0].attr("target").is_some());
        // Every offered request is trace-accounted: a span if answered,
        // a point otherwise.
        let spans = events
            .iter()
            .filter(|e| e.name == names::SERVER_REQUEST)
            .count();
        assert_eq!(spans as u64 + sheds.len() as u64, report.offered());
    }

    #[test]
    fn live_tracing_marks_failures_as_points() {
        let platform = Platform::new();
        let tel = Telemetry::enabled();
        let mut s = ServerSim::with_telemetry(&platform, ServerConfig::default(), tel.clone());
        s.register(Box::new(FailingBackend));
        let report = s.run(&[request(0, 1.0, ToolId::FakeClassifier)]);
        assert_eq!(report.failed(), 1);

        let events = tel.events();
        assert!(!events.iter().any(|e| e.name == names::SERVER_REQUEST));
        let failed: Vec<_> = events
            .iter()
            .filter(|e| e.name == names::SERVER_FAILED)
            .collect();
        assert_eq!(failed.len(), 1);
        assert_eq!(failed[0].t0, 1.0);
        assert!(failed[0].attr("target").is_some());
        // Failed requests stay out of the latency histograms.
        let labels = [("tool", ToolId::FakeClassifier.abbrev())];
        assert!(tel
            .snapshot()
            .histogram("server.latency_secs", &labels)
            .is_none());
    }

    #[test]
    fn degraded_requests_trace_stale_service() {
        let platform = Platform::new();
        let tel = Telemetry::enabled();
        let config = ServerConfig {
            workers_per_tool: 1,
            queue_capacity: 1,
            policy: OverloadPolicy::DegradeStale,
            degraded_secs: 0.5,
            ..ServerConfig::default()
        };
        let mut s = ServerSim::with_telemetry(&platform, config, tel.clone());
        s.register(Box::new(FakeBackend::new(ToolId::FakeClassifier, 10.0)));
        let trace = vec![
            request(0, 0.0, ToolId::FakeClassifier),
            request(1, 0.0, ToolId::FakeClassifier),
            Request {
                id: 2,
                at: 1.0,
                tool: ToolId::FakeClassifier,
                target: AccountId(0),
            },
        ];
        let report = s.run(&trace);
        assert_eq!(report.degraded(), 1);

        let events = tel.events();
        let tree = fakeaudit_telemetry::TraceTree::build(&events);
        let degraded = tree
            .request_roots()
            .into_iter()
            .map(|i| tree.event(i))
            .find(|e| e.attr("outcome") == Some("degraded"))
            .unwrap();
        let kids: Vec<&TraceEvent> = tree
            .children_of(degraded.id.unwrap())
            .iter()
            .map(|&i| tree.event(i))
            .collect();
        assert_eq!(kids.len(), 1, "stale answers skip the queue-wait span");
        assert_eq!(kids[0].name, names::SERVER_SERVICE);
        assert_eq!(kids[0].attr("source"), Some("stale"));
        assert_eq!(kids[0].duration_secs(), 0.5);
    }

    #[test]
    fn persisted_run_is_byte_deterministic_and_scannable() {
        use crate::persist::flush_writer;
        use fakeaudit_store::{Projection, ScanOptions, Store, StoreWriter};
        use std::sync::{Arc, Mutex};

        let run_into = |tag: &str| -> std::path::PathBuf {
            let dir = std::env::temp_dir().join(format!(
                "fakeaudit-sim-persist-{tag}-{}",
                std::process::id()
            ));
            let _ = std::fs::remove_dir_all(&dir);
            let writer = Arc::new(Mutex::new(StoreWriter::open(&dir, 3).unwrap()));
            let platform = Platform::new();
            let config = ServerConfig {
                workers_per_tool: 1,
                queue_capacity: 8,
                policy: OverloadPolicy::Block,
                ..ServerConfig::default()
            };
            let mut s = ServerSim::new(&platform, config);
            s.register(Box::new(FakeBackend::new(ToolId::FakeClassifier, 2.0)));
            s.persist_into(writer.clone());
            let trace: Vec<Request> = (0..7)
                .map(|i| request(i, i as f64 * 0.5, ToolId::FakeClassifier))
                .collect();
            let report = s.run(&trace);
            assert_eq!(report.completed(), 7);
            flush_writer(&writer, &Telemetry::disabled()).unwrap();
            dir
        };

        let a = run_into("a");
        let b = run_into("b");
        // Same trace, same config => byte-identical segment files.
        let read_all = |dir: &std::path::Path| -> Vec<(String, Vec<u8>)> {
            let mut files: Vec<_> = std::fs::read_dir(dir)
                .unwrap()
                .map(|e| e.unwrap())
                .map(|e| {
                    (
                        e.file_name().to_string_lossy().into_owned(),
                        std::fs::read(e.path()).unwrap(),
                    )
                })
                .collect();
            files.sort();
            files
        };
        assert_eq!(read_all(&a), read_all(&b));

        let store = Store::open(&a).unwrap();
        assert_eq!(store.total_rows(), 7);
        assert_eq!(store.segment_count(), 3); // 3 + 3 + tail of 1
        let scan = store
            .scan(&ScanOptions {
                projection: Projection::all(),
                ..Default::default()
            })
            .unwrap();
        // Every persisted row carries the request's trace id and tool.
        let ids: Vec<u64> = scan.rows.iter().map(|r| r.trace_id).collect();
        assert_eq!(ids, (0..7).collect::<Vec<_>>());
        assert!(scan.rows.iter().all(|r| r.tool == "FC"));
        std::fs::remove_dir_all(&a).unwrap();
        std::fs::remove_dir_all(&b).unwrap();
    }

    #[test]
    fn queue_wait_percentile_is_cached_and_matches_histogram() {
        let platform = Platform::new();
        let config = ServerConfig {
            workers_per_tool: 1,
            queue_capacity: 8,
            policy: OverloadPolicy::Block,
            ..ServerConfig::default()
        };
        let trace: Vec<Request> = (0..5)
            .map(|i| request(i, 0.0, ToolId::FakeClassifier))
            .collect();
        let tel = Telemetry::enabled();
        let mut s = ServerSim::with_telemetry(&platform, config, tel.clone());
        s.register(Box::new(FakeBackend::new(ToolId::FakeClassifier, 10.0)));
        let report = s.run(&trace);
        // Queue waits 0, 10, 20, 30, 40. Repeated calls hit the cached
        // sorted vector and stay self-consistent.
        assert_eq!(report.queue_wait_percentile(0.5), 20.0);
        assert_eq!(report.queue_wait_percentile(0.5), 20.0);
        // The exact path and the histogram path agree at the clamped
        // extremes, where bucketing cannot move the estimate.
        let snap = tel.snapshot();
        let labels = [("tool", ToolId::FakeClassifier.abbrev())];
        let hist = snap.histogram("server.queue_wait_secs", &labels).unwrap();
        assert_eq!(report.queue_wait_percentile(1.0), hist.quantile(1.0));
        assert_eq!(report.queue_wait_percentile(0.0), hist.quantile(0.0));
    }
}
