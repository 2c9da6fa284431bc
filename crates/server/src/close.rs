//! The one request close path of both serving worlds.
//!
//! However a request ends — answered by a worker, answered stale on the
//! degrade path, shed at admission, failed in service or expired in the
//! queue — the discrete-event [`ServerSim`](crate::ServerSim) and the
//! gateway's wall-clock dispatcher hand its finished [`RequestRecord`]
//! to [`RequestSink::close`], which leaves the same four things behind in
//! either world: the `server.*` trace, the `server.requests` count and
//! latency histograms, the tool's [`ToolSummary`] tallies, and the
//! history row of an answered request.

use crate::persist::{audit_record, persist_record};
use crate::sim::{RequestOutcome, RequestRecord, ToolSummary};
use fakeaudit_analytics::ServiceResponse;
use fakeaudit_store::SharedWriter;
use fakeaudit_telemetry::analyze::names;
use fakeaudit_telemetry::{Telemetry, TraceContext};

/// Where finished requests go: the sink state both serving worlds embed.
pub struct RequestSink {
    /// Metrics and trace handle.
    pub telemetry: Telemetry,
    /// The trace root every request tree hangs under.
    pub root: TraceContext,
    /// Columnar history writer; every answered request appends one row.
    pub persist: Option<SharedWriter>,
    /// Platform-epoch seconds. Server time starts at 0 while backends
    /// stamp their spans on the platform's epoch clock: contexts handed
    /// to a backend are rebased across this offset, and history rows are
    /// stamped at `epoch_secs + finished`.
    pub epoch_secs: f64,
}

/// An answered request's trace contexts and verdict.
#[derive(Clone, Copy)]
pub struct Answer<'a> {
    /// The request's `server.request` context, a child of the root.
    pub req_ctx: &'a TraceContext,
    /// The `server.service` context opened under `req_ctx`; a worker's
    /// backend nests its own subtree under it.
    pub svc_ctx: &'a TraceContext,
    /// The verdict the client got.
    pub response: &'a ServiceResponse,
}

impl RequestSink {
    /// A sink recording into `telemetry`, without a history writer.
    pub fn new(telemetry: Telemetry, epoch_secs: f64) -> Self {
        Self {
            root: telemetry.root_context(),
            telemetry,
            persist: None,
            epoch_secs,
        }
    }

    /// Ends one request. `answer` is given exactly when the request was
    /// answered (completed or degraded); `busy_secs` is the worker time it
    /// cost, counted only when a worker served it (completed or failed);
    /// `summary` is its tool's tallies, `None` for a tool nobody serves.
    ///
    /// The trace: a completed request records `server.queue_wait`, then
    /// `server.service{source=cache|fresh}`, then `server.request`; a
    /// degraded one `server.service{source=stale}`, then `server.request`;
    /// a shed, failed or expired one a single root point at its finish
    /// (or, if it never finished, its arrival).
    pub fn close(
        &self,
        record: &RequestRecord,
        answer: Option<Answer<'_>>,
        busy_secs: f64,
        summary: Option<&mut ToolSummary>,
    ) {
        let tool = record.tool.abbrev();
        if self.root.is_enabled() {
            let target = record.target.to_string();
            match (answer, record.started, record.finished) {
                (Some(a), Some(started), Some(finished)) => {
                    let source = match record.outcome {
                        RequestOutcome::Completed { cached } => {
                            let wait = [("tool", tool)];
                            a.req_ctx.span(
                                names::SERVER_QUEUE_WAIT,
                                record.arrived,
                                started,
                                &wait,
                            );
                            if cached {
                                "cache"
                            } else {
                                "fresh"
                            }
                        }
                        _ => "stale",
                    };
                    let service = [("tool", tool), ("source", source)];
                    a.svc_ctx
                        .record(names::SERVER_SERVICE, started, finished, &service);
                    let outcome = record.outcome.label();
                    let request = [("tool", tool), ("target", &target), ("outcome", outcome)];
                    a.req_ctx
                        .record(names::SERVER_REQUEST, record.arrived, finished, &request);
                }
                _ => {
                    let name = match record.outcome {
                        RequestOutcome::Failed => names::SERVER_FAILED,
                        RequestOutcome::Expired => names::SERVER_EXPIRED,
                        _ => names::SERVER_SHED,
                    };
                    let at = record.finished.unwrap_or(record.arrived);
                    self.root
                        .point(name, at, &[("tool", tool), ("target", &target)]);
                }
            }
        }
        let labels = [("tool", tool), ("outcome", record.outcome.label())];
        self.telemetry.counter_add("server.requests", &labels, 1);
        if record.answered() {
            observe_request(&self.telemetry, tool, record);
        }
        if let Some(summary) = summary {
            summary.tally(record.outcome, busy_secs);
        }
        if let (Some(writer), Some(a), Some(finished)) = (&self.persist, answer, record.finished) {
            let row = audit_record(
                record.target,
                self.epoch_secs + finished,
                record.outcome.label(),
                record.id,
                a.response,
            );
            persist_record(writer, &self.telemetry, row);
        }
    }
}

/// Per-request latency histograms (`server.queue_wait_secs`,
/// `server.service_secs`, `server.latency_secs`).
fn observe_request(telemetry: &Telemetry, tool: &str, r: &RequestRecord) {
    let tool_only = [("tool", tool)];
    telemetry.observe("server.queue_wait_secs", &tool_only, r.queue_wait());
    telemetry.observe("server.service_secs", &tool_only, r.service_secs());
    if let Some(latency) = r.latency() {
        telemetry.observe("server.latency_secs", &tool_only, latency);
    }
}
