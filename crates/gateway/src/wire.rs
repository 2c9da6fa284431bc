//! Wire formats: response JSON and the Prometheus text exposition.
//!
//! The gateway emits a small closed set of JSON shapes, each written by
//! hand in a fixed key order with strings and numbers through the shared
//! `telemetry::json` codec. All encoders are pure functions over
//! already-computed values; nothing here touches sockets or clocks.

use crate::dispatch::{Answered, LaneStatus, Rejection};
use fakeaudit_detectors::ToolId;
use fakeaudit_store::StoreHealth;
use fakeaudit_telemetry::json::{escape_into, quoted, Num};
use fakeaudit_telemetry::{AlertPhase, MetricsSnapshot, MonitorCounts, RetentionStats};
use fakeaudit_twittersim::AccountId;
use std::fmt::Write as _;

/// The verdict body for an answered audit.
pub fn verdict_json(tool: ToolId, target: AccountId, answer: &Answered) -> String {
    let outcome = &answer.response.outcome;
    let counts = &outcome.counts;
    let mut out = String::with_capacity(256);
    let _ = write!(
        out,
        "{{\"target\":{},\"tool\":{},\"tool_name\":{},\"source\":{},\
         \"fake_pct\":{},\"counts\":{{\"inactive\":{},\"fake\":{},\"genuine\":{},\"total\":{}}},\
         \"sampled\":{},\"api_calls\":{},\"response_secs\":{},\
         \"queue_wait_secs\":{},\"service_secs\":{},\"audited_at_secs\":{}}}",
        target.as_u64(),
        quoted(tool.abbrev()),
        quoted(&outcome.tool_name),
        quoted(answer.source.label()),
        Num(outcome.fake_pct()),
        counts.inactive,
        counts.fake,
        counts.genuine,
        counts.total(),
        outcome.assessed.len(),
        outcome.api_calls,
        Num(answer.response.response_secs),
        Num(answer.queue_wait_secs),
        Num(answer.service_secs),
        answer.response.assessed_at.as_secs(),
    );
    out
}

/// The status code and error body for a refused audit.
pub fn rejection_status_and_json(rejection: &Rejection) -> (u16, String) {
    match rejection {
        Rejection::Shed => (503, "{\"error\":\"overloaded\"}".to_owned()),
        Rejection::BreakerOpen { retry_in_secs } => (
            503,
            format!(
                "{{\"error\":\"breaker_open\",\"retry_in_secs\":{}}}",
                Num(*retry_in_secs)
            ),
        ),
        Rejection::Expired => (504, "{\"error\":\"deadline_expired\"}".to_owned()),
        Rejection::Failed(msg) => (502, format!("{{\"error\":{}}}", quoted(msg))),
    }
}

/// One lane's `{"tool":…,"queue_depth":…,"breaker":…}` object, shared by
/// `/healthz` and `/debug/vars`. `breaker` is the state key
/// (`closed`/`open`/`half_open`) or `null` when the backends run none.
fn lane_json(lane: &LaneStatus) -> String {
    let breaker = match lane.breaker {
        Some(state) => quoted(state.key()),
        None => "null".to_owned(),
    };
    format!(
        "{{\"tool\":{},\"queue_depth\":{},\"breaker\":{breaker}}}",
        quoted(lane.tool.abbrev()),
        lane.queue_depth
    )
}

/// The audit-history store state as a JSON value: an object when the
/// gateway runs with `--persist`, `null` otherwise.
fn store_json(store: Option<&StoreHealth>) -> String {
    match store {
        Some(health) => format!(
            "{{\"segments\":{},\"buffered_rows\":{},\"flushed_rows\":{},\"last_flush_seq\":{},\
             \"degraded\":{},\"dropped_rows\":{},\"quarantined_segments\":{},\
             \"wal_recovered_rows\":{}}}",
            health.segments,
            health.buffered_rows,
            health.flushed_rows,
            health.last_flush_seq,
            health.degraded,
            health.dropped_rows,
            health.quarantined_segments,
            health.wal_recovered_rows
        ),
        None => "null".to_owned(),
    }
}

/// The per-route SLO block as a JSON value: an array of
/// `{"route":…,"status":…}` when the gateway runs a monitor (`--slo`),
/// `null` otherwise.
fn slo_json(slo: Option<&[(String, AlertPhase)]>) -> String {
    match slo {
        Some(routes) => {
            let mut out = String::from("[");
            for (i, (route, phase)) in routes.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(
                    out,
                    "{{\"route\":{},\"status\":{}}}",
                    quoted(route),
                    quoted(phase.as_str())
                );
            }
            out.push(']');
            out
        }
        None => "null".to_owned(),
    }
}

/// The `/healthz` body: overall status plus per-tool breaker state and
/// queue depth, the per-route SLO status when a monitor runs, and —
/// when persisting — the history store's state.
pub fn health_json(
    lanes: &[LaneStatus],
    uptime_secs: f64,
    draining: bool,
    store: Option<&StoreHealth>,
    slo: Option<&[(String, AlertPhase)]>,
) -> String {
    let mut out = String::with_capacity(256);
    out.push_str("{\"status\":");
    out.push_str(if draining { "\"draining\"" } else { "\"ok\"" });
    let _ = write!(out, ",\"uptime_secs\":{},\"tools\":[", Num(uptime_secs));
    for (i, lane) in lanes.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&lane_json(lane));
    }
    let _ = write!(
        out,
        "],\"slo\":{},\"store\":{}}}",
        slo_json(slo),
        store_json(store)
    );
    out
}

/// The monitor block for `/debug/vars` as a JSON value: cumulative
/// alert-transition and trace-sampling counters plus the parked-lane
/// state, or `null` when no monitor runs.
fn monitor_json(monitor: Option<(&MonitorCounts, Option<RetentionStats>)>) -> String {
    match monitor {
        Some((counts, retention)) => {
            let retention = retention.unwrap_or_default();
            format!(
                "{{\"alerts_pending\":{},\"alerts_firing\":{},\"alerts_resolved\":{},\
                 \"active_pending\":{},\"active_firing\":{},\
                 \"traces_kept\":{},\"traces_sampled\":{},\"traces_dropped\":{},\
                 \"protected_trees\":{},\"parked_events\":{},\"parked_dropped\":{}}}",
                counts.pending,
                counts.firing,
                counts.resolved,
                counts.active_pending,
                counts.active_firing,
                counts.traces_kept,
                counts.traces_sampled,
                counts.traces_dropped,
                retention.protected,
                retention.parked,
                retention.parked_dropped
            )
        }
        None => "null".to_owned(),
    }
}

/// The inputs of the `/debug/vars` body.
#[derive(Debug, Clone, Copy)]
pub struct DebugVars<'a> {
    /// Build version.
    pub version: &'a str,
    /// Seconds since the gateway booted.
    pub uptime_secs: f64,
    /// Whether shutdown has begun.
    pub draining: bool,
    /// Connections currently being served.
    pub active_connections: i64,
    /// Trace events evicted from the bounded buffer.
    pub dropped_trace_events: u64,
    /// Per-tool queue and breaker state.
    pub lanes: &'a [LaneStatus],
    /// History-store health, when persisting.
    pub store: Option<&'a StoreHealth>,
    /// SLO-monitor counters and trace retention, when monitoring.
    pub monitor: Option<(&'a MonitorCounts, Option<RetentionStats>)>,
}

/// The `/debug/vars` body: build info plus the live operational gauges an
/// operator checks first — expvar-style, one flat JSON object.
pub fn debug_vars_json(vars: &DebugVars<'_>) -> String {
    let DebugVars {
        version,
        uptime_secs,
        draining,
        active_connections,
        dropped_trace_events,
        lanes,
        store,
        monitor,
    } = *vars;
    let mut out = String::with_capacity(256);
    let _ = write!(
        out,
        "{{\"version\":{},\"uptime_secs\":{},\"draining\":{draining},\
         \"active_connections\":{active_connections},\
         \"dropped_trace_events\":{dropped_trace_events},\"tools\":[",
        quoted(version),
        Num(uptime_secs),
    );
    for (i, lane) in lanes.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&lane_json(lane));
    }
    let _ = write!(
        out,
        "],\"monitor\":{},\"store\":{}}}",
        monitor_json(monitor),
        store_json(store)
    );
    out
}

/// One `/audit/:id/stream` progress line (newline-terminated so clients
/// can split on `\n` across chunk boundaries).
pub fn stream_event_json(event: &str, extra: &[(&str, String)]) -> String {
    let mut out = String::with_capacity(64);
    let _ = write!(out, "{{\"event\":{}", quoted(event));
    for (k, v) in extra {
        let _ = write!(out, ",{}:{}", quoted(k), v);
    }
    out.push_str("}\n");
    out
}

/// Sanitises a dotted metric name for the Prometheus exposition format.
fn prom_name(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

/// Formats one label set as `{k="v",…}` (empty string when no labels).
fn prom_labels(labels: &[(String, String)], extra: Option<(&str, &str)>) -> String {
    if labels.is_empty() && extra.is_none() {
        return String::new();
    }
    let mut out = String::from("{");
    let mut first = true;
    for (k, v) in labels {
        if !first {
            out.push(',');
        }
        first = false;
        let mut escaped = String::new();
        escape_into(v, &mut escaped);
        let _ = write!(out, "{}=\"{escaped}\"", prom_name(k));
    }
    if let Some((k, v)) = extra {
        if !first {
            out.push(',');
        }
        let _ = write!(out, "{k}=\"{v}\"");
    }
    out.push('}');
    out
}

/// Help text for the metric families the stack emits; unknown names get
/// a generic line so every family still carries `# HELP`.
fn prom_help(name: &str) -> &'static str {
    match name {
        "server_requests" => "Requests by tool and outcome.",
        "server_queue_depth" => "Admission-queue depth by tool.",
        "server_latency_secs" => "End-to-end request latency in seconds.",
        "gateway_http_requests" => "HTTP requests by route and status.",
        "gateway_http_errors" => "HTTP responses with status >= 400, by route.",
        "gateway_request_secs" => "HTTP request duration in seconds, by route.",
        "breaker_transitions" => "Circuit-breaker state transitions by tool.",
        "api_calls" => "Simulated platform API calls by endpoint.",
        "monitor_alerts" => "SLO alert state-machine transitions by resulting state.",
        "monitor_alerts_firing" => "SLO alert machines currently firing.",
        "monitor_alerts_pending" => "SLO alert machines currently pending.",
        "monitor_traces" => "Tail-sampling decisions on finished request trees.",
        _ => "Audit-pipeline metric (see crates/telemetry).",
    }
}

/// Renders a [`MetricsSnapshot`] in the Prometheus text exposition
/// format (0.0.4): counters and gauges verbatim, histograms as
/// cumulative `_bucket{le=…}` series plus `_sum` / `_count`, every
/// family headed by `# HELP` + `# TYPE`. A histogram carrying an
/// exemplar renders it OpenMetrics-style on the first bucket wide enough
/// to hold it: `… # {trace_id="span#7"} 4.2`.
///
/// Snapshot ordering is deterministic (sorted keys), so two scrapes of
/// identical state render identical bytes — the same property the
/// sim-side golden fixtures rely on elsewhere.
pub fn prometheus_text(snapshot: &MetricsSnapshot) -> String {
    let mut out = String::with_capacity(4096);
    let mut last_header = String::new();
    let mut header = |out: &mut String, name: &str, kind: &str| {
        let lines = format!("# HELP {name} {}\n# TYPE {name} {kind}\n", prom_help(name));
        if lines != last_header {
            out.push_str(&lines);
            last_header = lines;
        }
    };
    for (key, value) in &snapshot.counters {
        let name = prom_name(&key.name);
        header(&mut out, &name, "counter");
        let _ = writeln!(out, "{name}{} {value}", prom_labels(&key.labels, None));
    }
    for (key, value) in &snapshot.gauges {
        let name = prom_name(&key.name);
        header(&mut out, &name, "gauge");
        let _ = writeln!(
            out,
            "{name}{} {}",
            prom_labels(&key.labels, None),
            Num(*value)
        );
    }
    for (key, hist) in &snapshot.histograms {
        let name = prom_name(&key.name);
        header(&mut out, &name, "histogram");
        let mut cumulative = 0u64;
        let mut exemplar_pending = hist.exemplar.as_ref();
        for (bound, count) in &hist.buckets {
            cumulative += count;
            let le = if bound.is_finite() {
                format!("{bound}")
            } else {
                "+Inf".to_owned()
            };
            let _ = write!(
                out,
                "{name}_bucket{} {cumulative}",
                prom_labels(&key.labels, Some(("le", &le)))
            );
            // Attach the exemplar to the bucket its value falls in (the
            // first bound at or above it; +Inf catches the rest).
            if let Some(ex) = exemplar_pending {
                if ex.value <= *bound || bound.is_infinite() {
                    let _ = write!(out, " # {{trace_id=\"{}\"}} {}", ex.trace_id, Num(ex.value));
                    exemplar_pending = None;
                }
            }
            out.push('\n');
        }
        let _ = writeln!(
            out,
            "{name}_sum{} {}",
            prom_labels(&key.labels, None),
            Num(hist.sum)
        );
        let _ = writeln!(
            out,
            "{name}_count{} {}",
            prom_labels(&key.labels, None),
            hist.count
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use fakeaudit_telemetry::Telemetry;

    #[test]
    fn health_json_shapes() {
        use fakeaudit_analytics::BreakerState;
        let lanes = [
            LaneStatus {
                tool: ToolId::FakeClassifier,
                queue_depth: 2,
                breaker: Some(BreakerState::Closed),
            },
            LaneStatus {
                tool: ToolId::Twitteraudit,
                queue_depth: 0,
                breaker: None,
            },
        ];
        let body = health_json(&lanes, 1.5, false, None, None);
        assert_eq!(
            body,
            "{\"status\":\"ok\",\"uptime_secs\":1.5,\"tools\":[\
             {\"tool\":\"FC\",\"queue_depth\":2,\"breaker\":\"closed\"},\
             {\"tool\":\"TA\",\"queue_depth\":0,\"breaker\":null}],\
             \"slo\":null,\"store\":null}"
        );
        assert!(health_json(&[], 0.0, true, None, None).contains("\"draining\""));
        let store = StoreHealth {
            segments: 3,
            buffered_rows: 5,
            flushed_rows: 12,
            last_flush_seq: 3,
            degraded: true,
            dropped_rows: 2,
            quarantined_segments: 1,
            wal_recovered_rows: 7,
        };
        let body = health_json(&[], 0.0, false, Some(&store), None);
        assert!(body.contains(
            "\"store\":{\"segments\":3,\"buffered_rows\":5,\
             \"flushed_rows\":12,\"last_flush_seq\":3,\
             \"degraded\":true,\"dropped_rows\":2,\
             \"quarantined_segments\":1,\"wal_recovered_rows\":7}"
        ));
        let slo = vec![
            ("audit".to_owned(), AlertPhase::Firing),
            ("query".to_owned(), AlertPhase::Idle),
        ];
        let body = health_json(&[], 0.0, false, None, Some(&slo));
        assert!(body.contains(
            "\"slo\":[{\"route\":\"audit\",\"status\":\"firing\"},\
             {\"route\":\"query\",\"status\":\"ok\"}]"
        ));
    }

    #[test]
    fn debug_vars_shape() {
        use fakeaudit_analytics::BreakerState;
        let lanes = [LaneStatus {
            tool: ToolId::Twitteraudit,
            queue_depth: 1,
            breaker: Some(BreakerState::HalfOpen),
        }];
        let body = debug_vars_json(&DebugVars {
            version: "0.1.0",
            uptime_secs: 2.0,
            draining: false,
            active_connections: 3,
            dropped_trace_events: 17,
            lanes: &lanes,
            store: None,
            monitor: None,
        });
        assert_eq!(
            body,
            "{\"version\":\"0.1.0\",\"uptime_secs\":2,\"draining\":false,\
             \"active_connections\":3,\"dropped_trace_events\":17,\"tools\":[\
             {\"tool\":\"TA\",\"queue_depth\":1,\"breaker\":\"half_open\"}],\
             \"monitor\":null,\"store\":null}"
        );
        let counts = MonitorCounts {
            pending: 4,
            firing: 2,
            resolved: 4,
            active_pending: 0,
            active_firing: 1,
            traces_kept: 9,
            traces_sampled: 3,
            traces_dropped: 88,
        };
        let retention = RetentionStats {
            protected: 12,
            parked: 7,
            parked_dropped: 0,
        };
        let body = debug_vars_json(&DebugVars {
            version: "dev",
            uptime_secs: 0.0,
            draining: false,
            active_connections: 0,
            dropped_trace_events: 0,
            lanes: &[],
            store: None,
            monitor: Some((&counts, Some(retention))),
        });
        assert!(body.contains(
            "\"monitor\":{\"alerts_pending\":4,\"alerts_firing\":2,\"alerts_resolved\":4,\
             \"active_pending\":0,\"active_firing\":1,\
             \"traces_kept\":9,\"traces_sampled\":3,\"traces_dropped\":88,\
             \"protected_trees\":12,\"parked_events\":7,\"parked_dropped\":0}"
        ));
    }

    #[test]
    fn rejection_bodies_map_statuses() {
        assert_eq!(rejection_status_and_json(&Rejection::Shed).0, 503);
        assert_eq!(rejection_status_and_json(&Rejection::Expired).0, 504);
        let (status, body) =
            rejection_status_and_json(&Rejection::Failed("quota: \"x\"".to_owned()));
        assert_eq!(status, 502);
        assert!(body.contains("\\\"x\\\""));
        let (status, body) =
            rejection_status_and_json(&Rejection::BreakerOpen { retry_in_secs: 2.5 });
        assert_eq!(status, 503);
        assert!(body.contains("\"retry_in_secs\":2.5"));
    }

    #[test]
    fn stream_events_are_newline_terminated_json() {
        let line = stream_event_json("queued", &[("depth", "3".to_owned())]);
        assert_eq!(line, "{\"event\":\"queued\",\"depth\":3}\n");
    }

    #[test]
    fn prometheus_renders_counters_gauges_histograms() {
        let tel = Telemetry::enabled();
        tel.counter_add(
            "server.requests",
            &[("tool", "TA"), ("outcome", "completed")],
            3,
        );
        tel.gauge_set("server.queue_depth", &[("tool", "TA")], 2.0);
        tel.observe("server.latency_secs", &[("tool", "TA")], 0.5);
        tel.observe("server.latency_secs", &[("tool", "TA")], 5.0);
        let text = prometheus_text(&tel.snapshot());
        assert!(text.contains("# TYPE server_requests counter"));
        assert!(text.contains("# HELP server_requests "));
        assert!(text.contains("server_requests{outcome=\"completed\",tool=\"TA\"} 3"));
        assert!(text.contains("server_queue_depth{tool=\"TA\"} 2"));
        assert!(text.contains("# TYPE server_latency_secs histogram"));
        assert!(text.contains("# HELP server_latency_secs "));
        assert!(text.contains("server_latency_secs_count{tool=\"TA\"} 2"));
        assert!(text.contains("server_latency_secs_sum{tool=\"TA\"} 5.5"));
        // Buckets are cumulative and end at +Inf.
        assert!(text.contains("_bucket{tool=\"TA\",le=\"1\"} 1"));
        assert!(text.contains("_bucket{tool=\"TA\",le=\"+Inf\"} 2"));
    }

    #[test]
    fn type_comment_emitted_once_per_metric_name() {
        let tel = Telemetry::enabled();
        tel.counter_add("c", &[("tool", "TA")], 1);
        tel.counter_add("c", &[("tool", "SB")], 1);
        let text = prometheus_text(&tel.snapshot());
        assert_eq!(text.matches("# TYPE c counter").count(), 1);
        assert_eq!(text.matches("# HELP c ").count(), 1);
    }

    #[test]
    fn histogram_exemplar_renders_on_its_bucket() {
        let tel = Telemetry::enabled();
        tel.observe_with_exemplar("gateway.request_secs", &[("route", "audit")], 0.4, "span#7");
        tel.observe("gateway.request_secs", &[("route", "audit")], 0.002);
        let text = prometheus_text(&tel.snapshot());
        // 0.4 falls in the (0.1, 1] bucket; the exemplar rides that line
        // and no other.
        assert!(
            text.contains("gateway_request_secs_bucket{route=\"audit\",le=\"1\"} 2 # {trace_id=\"span#7\"} 0.4"),
            "{text}"
        );
        assert_eq!(text.matches("trace_id").count(), 1);
        // Without exemplars nothing extra renders.
        let plain = Telemetry::enabled();
        plain.observe("lat", &[], 1.0);
        assert!(!prometheus_text(&plain.snapshot()).contains("trace_id"));
    }

    #[test]
    fn overflow_exemplar_lands_on_inf_bucket() {
        let tel = Telemetry::enabled();
        tel.observe_with_exemplar("crawl.secs", &[], 100_000.0, "span#3");
        let text = prometheus_text(&tel.snapshot());
        assert!(
            text.contains("crawl_secs_bucket{le=\"+Inf\"} 1 # {trace_id=\"span#3\"} 100000"),
            "{text}"
        );
    }
}
