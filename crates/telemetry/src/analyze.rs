//! Trace-tree analysis: waterfalls, critical paths, latency attribution
//! and Chrome trace export.
//!
//! Everything here consumes the causal records produced by
//! [`TraceContext`](crate::TraceContext) — spans with [`SpanId`]s and
//! parent links — and works purely on simulated time. The module is the
//! read side of the tracing tentpole: the simulators *emit* trees, this
//! module answers *why was that request slow* ([`LatencyAttribution`]),
//! *what did it spend its time on* ([`TraceTree::waterfall`],
//! [`TraceTree::critical_path`]) and *can I look at it in Perfetto*
//! ([`chrome_trace_json`]). Whether the service met its objectives is
//! the SLO monitor's question: [`crate::monitor::replay_trace`].
//!
//! Tracers record spans at close time, so children legitimately appear in
//! the event stream *before* their parents; [`TraceTree::build`] tolerates
//! any order and keeps spans whose parent never closed as extra roots.

use crate::json::{escape_into, Num};
use crate::metrics::nearest_rank;
use crate::trace::{EventKind, SpanId, TraceEvent};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Canonical span/point names shared between the emitting crates and this
/// analysis layer. Emitters should use these constants so attribution
/// stays in sync with the instrumentation.
pub mod names {
    /// Whole request lifetime at the server: arrival to response/drop.
    pub const SERVER_REQUEST: &str = "server.request";
    /// Time a request spent queued before a worker picked it up.
    pub const SERVER_QUEUE_WAIT: &str = "server.queue_wait";
    /// Time a worker spent producing the response (fresh or stale).
    pub const SERVER_SERVICE: &str = "server.service";
    /// Request rejected at admission (queue full): point event.
    pub const SERVER_SHED: &str = "server.shed";
    /// Request failed (no stale fallback available): point event.
    pub const SERVER_FAILED: &str = "server.failed";
    /// One `OnlineService::request` invocation.
    pub const SERVICE_REQUEST: &str = "service.request";
    /// Cache consultation outcome: point event with `result=hit|miss`.
    pub const CACHE_LOOKUP: &str = "cache.lookup";
    /// Admission rejected by the quota: point event.
    pub const QUOTA_REJECTED: &str = "quota.rejected";
    /// One full auditor classification (crawl + feature computation).
    pub const DETECTOR_AUDIT: &str = "detector.audit";
    /// One rate-limited API call.
    pub const API_CALL: &str = "api.call";
    /// Request dropped after its end-to-end deadline elapsed in queue:
    /// point event.
    pub const SERVER_EXPIRED: &str = "server.expired";
    /// An injected upstream fault on one API call attempt: point event
    /// with `endpoint` and `kind` attributes.
    pub const API_FAULT: &str = "api.fault";
    /// One retry backoff wait between failed API call attempts.
    pub const API_RETRY: &str = "api.retry";
    /// A circuit-breaker state change: point event with `from`/`to`.
    pub const BREAKER_TRANSITION: &str = "breaker.transition";
}

/// An indexed view of a trace as a forest of span trees.
///
/// Spans with an unresolvable parent (the parent never closed, or the
/// trace was truncated) are kept as roots rather than dropped; point
/// events attach under their parent span and parent-less points are
/// listed in [`TraceTree::floating`].
#[derive(Debug, Clone)]
pub struct TraceTree {
    events: Vec<TraceEvent>,
    index: BTreeMap<SpanId, usize>,
    children: BTreeMap<SpanId, Vec<usize>>,
    roots: Vec<usize>,
    floating: Vec<usize>,
}

impl TraceTree {
    /// Indexes a trace. Accepts records in any order (children typically
    /// precede their parents, since spans are recorded at close time).
    pub fn build(events: &[TraceEvent]) -> Self {
        let events = events.to_vec();
        let mut index = BTreeMap::new();
        for (i, e) in events.iter().enumerate() {
            if let Some(id) = e.id {
                index.insert(id, i);
            }
        }
        let mut children: BTreeMap<SpanId, Vec<usize>> = BTreeMap::new();
        let mut roots = Vec::new();
        let mut floating = Vec::new();
        for (i, e) in events.iter().enumerate() {
            match e.parent {
                Some(p) if index.contains_key(&p) => children.entry(p).or_default().push(i),
                _ if e.id.is_some() => roots.push(i),
                _ if e.kind == EventKind::Point && e.parent.is_some() => floating.push(i),
                _ => {} // flat legacy records: not part of any tree
            }
        }
        let by_time = |a: &usize, b: &usize| {
            let (ea, eb) = (&events[*a], &events[*b]);
            ea.t0
                .partial_cmp(&eb.t0)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.cmp(b))
        };
        roots.sort_by(by_time);
        for list in children.values_mut() {
            list.sort_by(by_time);
        }
        Self {
            events,
            index,
            children,
            roots,
            floating,
        }
    }

    /// All records, in recording order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Indices of root spans, ordered by start time.
    pub fn roots(&self) -> &[usize] {
        &self.roots
    }

    /// Indices of point events whose parent span never appeared.
    pub fn floating(&self) -> &[usize] {
        &self.floating
    }

    /// The record at `idx`.
    pub fn event(&self, idx: usize) -> &TraceEvent {
        &self.events[idx]
    }

    /// The record carrying span `id`, if present.
    pub fn span(&self, id: SpanId) -> Option<&TraceEvent> {
        self.index.get(&id).map(|&i| &self.events[i])
    }

    /// Child record indices of span `id`, ordered by start time.
    pub fn children_of(&self, id: SpanId) -> &[usize] {
        self.children.get(&id).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Pre-order indices of the subtree rooted at `idx` (inclusive).
    pub fn descendants(&self, idx: usize) -> Vec<usize> {
        let mut out = Vec::new();
        let mut stack = vec![idx];
        while let Some(i) = stack.pop() {
            out.push(i);
            if let Some(id) = self.events[i].id {
                // Push in reverse so pop order matches child order.
                for &c in self.children_of(id).iter().rev() {
                    stack.push(c);
                }
            }
        }
        out
    }

    /// Root spans that represent whole requests: `server.request` spans
    /// when the trace has any, otherwise every root span (an
    /// `audit --telemetry` trace roots at `service.request`).
    pub fn request_roots(&self) -> Vec<usize> {
        let server: Vec<usize> = self
            .roots
            .iter()
            .copied()
            .filter(|&i| self.events[i].name == names::SERVER_REQUEST)
            .collect();
        if server.is_empty() {
            self.roots.clone()
        } else {
            server
        }
    }

    /// The critical path from `root_idx` down: at each span, descend into
    /// the child span that finishes last (ties: latest start, then record
    /// order). Returns record indices from the root to the leaf.
    pub fn critical_path(&self, root_idx: usize) -> Vec<usize> {
        let mut path = vec![root_idx];
        let mut cur = root_idx;
        while let Some(id) = self.events[cur].id {
            let next = self
                .children_of(id)
                .iter()
                .copied()
                .filter(|&c| self.events[c].kind == EventKind::Span)
                .max_by(|&a, &b| {
                    let (ea, eb) = (&self.events[a], &self.events[b]);
                    ea.t1
                        .partial_cmp(&eb.t1)
                        .unwrap_or(std::cmp::Ordering::Equal)
                        .then(
                            ea.t0
                                .partial_cmp(&eb.t0)
                                .unwrap_or(std::cmp::Ordering::Equal),
                        )
                        .then(a.cmp(&b))
                });
            match next {
                Some(c) => {
                    path.push(c);
                    cur = c;
                }
                None => break,
            }
        }
        path
    }

    /// Renders the subtree at `root_idx` as an ASCII waterfall: one line
    /// per record with a bar showing its interval relative to the root.
    pub fn waterfall(&self, root_idx: usize) -> String {
        const BAR: usize = 32;
        let root = &self.events[root_idx];
        let (r0, rdur) = (root.t0, (root.t1 - root.t0).max(0.0));
        let mut out = String::new();
        let mut stack = vec![(root_idx, 0usize)];
        while let Some((i, depth)) = stack.pop() {
            let e = &self.events[i];
            let mut bar = vec![b'.'; BAR];
            if rdur > 0.0 {
                let lo = (((e.t0 - r0) / rdur) * BAR as f64)
                    .floor()
                    .clamp(0.0, (BAR - 1) as f64) as usize;
                let hi = (((e.t1 - r0) / rdur) * BAR as f64)
                    .ceil()
                    .clamp(0.0, BAR as f64) as usize;
                let fill = if e.kind == EventKind::Point {
                    b'!'
                } else {
                    b'#'
                };
                for cell in &mut bar[lo..hi.max(lo + 1)] {
                    *cell = fill;
                }
                if e.kind == EventKind::Point {
                    bar[lo] = b'!';
                }
            }
            let attrs: Vec<String> = e.attrs.iter().map(|(k, v)| format!("{k}={v}")).collect();
            let _ = writeln!(
                out,
                "{:9.3} {:9.3} |{}| {}{}{}{}",
                e.t0,
                e.t1,
                String::from_utf8(bar).unwrap(),
                "  ".repeat(depth),
                e.name,
                if attrs.is_empty() { "" } else { " " },
                attrs.join(" "),
            );
            if let Some(id) = e.id {
                for &c in self.children_of(id).iter().rev() {
                    stack.push((c, depth + 1));
                }
            }
        }
        out
    }
}

/// Where one request's latency went, in simulated seconds.
///
/// Categories are assigned by span name:
///
/// * **queue** — `server.queue_wait` spans;
/// * **crawl** — `api.call` spans (rate-limit waits + page fetches);
/// * **cache** — `service.request` spans served from cache
///   (`source=cache`) and stale fallbacks (`server.service` with
///   `source=stale`);
/// * **compute** — the remainder of the root span (classification,
///   service overheads, response assembly), clamped at zero.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Breakdown {
    /// Root span duration.
    pub total: f64,
    /// Time queued at the server.
    pub queue: f64,
    /// Time inside rate-limited API calls.
    pub crawl: f64,
    /// Time in cache reads / stale fallbacks.
    pub cache: f64,
    /// Everything else (classification and overheads).
    pub compute: f64,
}

impl Breakdown {
    /// Decomposes the request rooted at `root_idx`.
    pub fn of_request(tree: &TraceTree, root_idx: usize) -> Self {
        let root = tree.event(root_idx);
        let total = (root.t1 - root.t0).max(0.0);
        let (mut queue, mut crawl, mut cache) = (0.0, 0.0, 0.0);
        for i in tree.descendants(root_idx) {
            let e = tree.event(i);
            if e.kind != EventKind::Span {
                continue;
            }
            let d = (e.t1 - e.t0).max(0.0);
            match e.name.as_str() {
                names::SERVER_QUEUE_WAIT => queue += d,
                names::API_CALL => crawl += d,
                names::SERVICE_REQUEST if e.attr("source") == Some("cache") => cache += d,
                names::SERVER_SERVICE if e.attr("source") == Some("stale") => cache += d,
                _ => {}
            }
        }
        let compute = (total - queue - crawl - cache).max(0.0);
        Self {
            total,
            queue,
            crawl,
            cache,
            compute,
        }
    }

    /// `part / total` as a percentage; zero for an empty total.
    fn pct(&self, part: f64) -> f64 {
        if self.total > 0.0 {
            100.0 * part / self.total
        } else {
            0.0
        }
    }
}

/// Per-tool latency attribution at fixed percentiles.
#[derive(Debug, Clone, PartialEq)]
pub struct ToolAttribution {
    /// Tool abbreviation from the root span's `tool` attribute (`-` when
    /// absent), or `ALL` for the aggregate row.
    pub tool: String,
    /// Number of requests attributed.
    pub requests: usize,
    /// Breakdown of the nearest-rank p50 request (by total latency).
    pub p50: Breakdown,
    /// Breakdown of the nearest-rank p99 request (by total latency).
    pub p99: Breakdown,
}

/// Latency attribution across a trace: for each tool (and overall), which
/// category the median and tail request spent its time in.
///
/// Percentile rows describe the **nearest-rank request** at that
/// percentile — a real request from the trace, so the shares always sum
/// to its actual latency — rather than an average over requests, which
/// can describe no request at all.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct LatencyAttribution {
    /// One row per tool, sorted by tool name, then the `ALL` aggregate.
    pub tools: Vec<ToolAttribution>,
}

impl LatencyAttribution {
    /// Attributes every request root in `events`.
    pub fn from_events(events: &[TraceEvent]) -> Self {
        let tree = TraceTree::build(events);
        let mut by_tool: BTreeMap<String, Vec<Breakdown>> = BTreeMap::new();
        let mut all = Vec::new();
        for root in tree.request_roots() {
            let b = Breakdown::of_request(&tree, root);
            let tool = tree.event(root).attr("tool").unwrap_or("-").to_string();
            by_tool.entry(tool).or_default().push(b);
            all.push(b);
        }
        let mut tools = Vec::new();
        for (tool, list) in by_tool {
            tools.push(Self::row(tool, list));
        }
        if !all.is_empty() && tools.len() > 1 {
            tools.push(Self::row("ALL".to_string(), all));
        }
        Self { tools }
    }

    fn row(tool: String, mut list: Vec<Breakdown>) -> ToolAttribution {
        list.sort_by(|a, b| {
            a.total
                .partial_cmp(&b.total)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        let totals: Vec<f64> = list.iter().map(|b| b.total).collect();
        let pick = |q: f64| {
            let t = nearest_rank(&totals, q).unwrap_or(0.0);
            list.iter()
                .find(|b| b.total == t)
                .copied()
                .unwrap_or_default()
        };
        ToolAttribution {
            tool,
            requests: list.len(),
            p50: pick(0.50),
            p99: pick(0.99),
        }
    }

    /// Renders the attribution table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "latency attribution (share of request latency by category)"
        );
        let _ = writeln!(
            out,
            "{:<5} {:>8}  {:<4} {:>9} {:>7} {:>7} {:>7} {:>8}",
            "tool", "requests", "pct", "total_s", "queue%", "crawl%", "cache%", "compute%"
        );
        for t in &self.tools {
            for (label, b) in [("p50", &t.p50), ("p99", &t.p99)] {
                let _ = writeln!(
                    out,
                    "{:<5} {:>8}  {:<4} {:>9.3} {:>7.1} {:>7.1} {:>7.1} {:>8.1}",
                    t.tool,
                    t.requests,
                    label,
                    b.total,
                    b.pct(b.queue),
                    b.pct(b.crawl),
                    b.pct(b.cache),
                    b.pct(b.compute),
                );
            }
        }
        if self.tools.is_empty() {
            let _ = writeln!(out, "(no request spans in trace)");
        }
        out
    }
}

/// Options for the Chrome trace-event exporter.
#[derive(Debug, Clone)]
pub struct ChromeTraceOptions {
    /// The `pid` stamped on every exported event.
    pub pid: u64,
}

impl Default for ChromeTraceOptions {
    fn default() -> Self {
        Self { pid: 1 }
    }
}

/// Exports a trace as Chrome trace-event JSON (the `chrome://tracing` /
/// Perfetto "JSON object format").
///
/// Spans become `ph:"X"` complete events and points become `ph:"i"`
/// instants, with `ts`/`dur` in microseconds of simulated time. Each
/// request tree is placed on a thread (`tid`) derived from its root
/// span's `tool` attribute, first-seen order, so Perfetto renders one
/// swim-lane per tool with nested slices. Output is deterministic for a
/// deterministic trace.
pub fn chrome_trace_json(events: &[TraceEvent], opts: &ChromeTraceOptions) -> String {
    let tree = TraceTree::build(events);
    // tid per root-tool, in first-seen root order; everything else on 0.
    let mut tid_of_tool: Vec<(String, u64)> = Vec::new();
    let mut tid_of_event = vec![0u64; events.len()];
    for &root in tree.roots() {
        let tool = tree
            .event(root)
            .attr("tool")
            .unwrap_or("untracked")
            .to_string();
        let tid = match tid_of_tool.iter().find(|(t, _)| *t == tool) {
            Some(&(_, tid)) => tid,
            None => {
                let tid = tid_of_tool.len() as u64 + 1;
                tid_of_tool.push((tool, tid));
                tid
            }
        };
        for i in tree.descendants(root) {
            tid_of_event[i] = tid;
        }
    }
    let mut out = String::from("{\"traceEvents\":[");
    let mut first = true;
    let emit = |line: String, out: &mut String, first: &mut bool| {
        if !*first {
            out.push(',');
        }
        *first = false;
        out.push_str(&line);
    };
    for (tool, tid) in &tid_of_tool {
        let mut line = String::from("{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":");
        let _ = write!(line, "{}", opts.pid);
        let _ = write!(line, ",\"tid\":{tid},\"args\":{{\"name\":\"");
        escape_into(tool, &mut line);
        line.push_str("\"}}");
        emit(line, &mut out, &mut first);
    }
    for (i, e) in events.iter().enumerate() {
        let mut line = String::from("{\"name\":\"");
        escape_into(&e.name, &mut line);
        line.push_str("\",\"ph\":\"");
        line.push_str(if e.kind == EventKind::Span { "X" } else { "i" });
        let _ = write!(line, "\",\"ts\":{}", Num(e.t0 * 1e6));
        if e.kind == EventKind::Span {
            let _ = write!(line, ",\"dur\":{}", Num(((e.t1 - e.t0) * 1e6).max(0.0)));
        } else {
            line.push_str(",\"s\":\"t\"");
        }
        let _ = write!(line, ",\"pid\":{},\"tid\":{}", opts.pid, tid_of_event[i]);
        line.push_str(",\"args\":{");
        let mut first_arg = true;
        if let Some(id) = e.id {
            let _ = write!(line, "\"span\":\"{id}\"");
            first_arg = false;
        }
        for (k, v) in &e.attrs {
            if !first_arg {
                line.push(',');
            }
            first_arg = false;
            line.push('"');
            escape_into(k, &mut line);
            line.push_str("\":\"");
            escape_into(v, &mut line);
            line.push('"');
        }
        line.push_str("}}");
        emit(line, &mut out, &mut first);
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Telemetry;

    /// Builds one traced server request:
    /// request[0,10] { queue_wait[0,2], service[2,10] {
    ///   service.request[2,10] { api.call[3,6], api.call[6,8] } } }
    fn one_request(tel: &Telemetry, offset: f64, tool: &str) {
        let req = tel.root_context().child();
        req.span(
            names::SERVER_QUEUE_WAIT,
            offset,
            offset + 2.0,
            &[("tool", tool)],
        );
        let service = req.child();
        let sreq = service.span(
            names::SERVICE_REQUEST,
            offset + 2.0,
            offset + 10.0,
            &[("source", "fresh")],
        );
        sreq.span(names::API_CALL, offset + 3.0, offset + 6.0, &[]);
        sreq.span(names::API_CALL, offset + 6.0, offset + 8.0, &[]);
        service.record(
            names::SERVER_SERVICE,
            offset + 2.0,
            offset + 10.0,
            &[("tool", tool)],
        );
        req.record(
            names::SERVER_REQUEST,
            offset,
            offset + 10.0,
            &[("tool", tool), ("outcome", "completed")],
        );
    }

    #[test]
    fn tree_indexes_out_of_order_records() {
        let tel = Telemetry::enabled();
        one_request(&tel, 0.0, "TA");
        let tree = TraceTree::build(&tel.events());
        assert_eq!(tree.roots().len(), 1);
        let root = tree.event(tree.roots()[0]);
        assert_eq!(root.name, names::SERVER_REQUEST);
        let kids = tree.children_of(root.id.unwrap());
        assert_eq!(kids.len(), 2);
        assert_eq!(tree.event(kids[0]).name, names::SERVER_QUEUE_WAIT);
        assert_eq!(tree.event(kids[1]).name, names::SERVER_SERVICE);
        assert_eq!(tree.descendants(tree.roots()[0]).len(), 6);
        assert!(tree.floating().is_empty());
    }

    #[test]
    fn orphaned_spans_become_roots() {
        let events = vec![
            TraceEvent::span_in("lost.child", 0.0, 1.0, &[], SpanId(7), Some(SpanId(99))),
            TraceEvent::point_in("lost.point", 0.5, &[], Some(SpanId(99))),
        ];
        let tree = TraceTree::build(&events);
        assert_eq!(tree.roots().len(), 1);
        assert_eq!(tree.floating().len(), 1);
    }

    #[test]
    fn critical_path_follows_latest_finisher() {
        let tel = Telemetry::enabled();
        one_request(&tel, 0.0, "TA");
        let tree = TraceTree::build(&tel.events());
        let path: Vec<&str> = tree
            .critical_path(tree.roots()[0])
            .into_iter()
            .map(|i| tree.event(i).name.as_str())
            .collect();
        assert_eq!(
            path,
            vec![
                names::SERVER_REQUEST,
                names::SERVER_SERVICE,
                names::SERVICE_REQUEST,
                names::API_CALL,
            ]
        );
    }

    #[test]
    fn breakdown_attributes_categories() {
        let tel = Telemetry::enabled();
        one_request(&tel, 0.0, "TA");
        let tree = TraceTree::build(&tel.events());
        let b = Breakdown::of_request(&tree, tree.roots()[0]);
        assert_eq!(b.total, 10.0);
        assert_eq!(b.queue, 2.0);
        assert_eq!(b.crawl, 5.0);
        assert_eq!(b.cache, 0.0);
        assert_eq!(b.compute, 3.0);
    }

    #[test]
    fn cached_request_counts_as_cache_time() {
        let tel = Telemetry::enabled();
        let req = tel.root_context().child();
        req.span(names::SERVICE_REQUEST, 0.0, 0.5, &[("source", "cache")]);
        req.record(
            names::SERVER_REQUEST,
            0.0,
            1.0,
            &[("tool", "FC"), ("outcome", "completed")],
        );
        let tree = TraceTree::build(&tel.events());
        let b = Breakdown::of_request(&tree, tree.roots()[0]);
        assert_eq!(b.cache, 0.5);
        assert_eq!(b.compute, 0.5);
    }

    #[test]
    fn attribution_groups_by_tool_and_renders() {
        let tel = Telemetry::enabled();
        one_request(&tel, 0.0, "TA");
        one_request(&tel, 20.0, "TA");
        one_request(&tel, 40.0, "SP");
        let attr = LatencyAttribution::from_events(&tel.events());
        assert_eq!(attr.tools.len(), 3); // SP, TA, ALL
        assert_eq!(attr.tools[0].tool, "SP");
        assert_eq!(attr.tools[1].tool, "TA");
        assert_eq!(attr.tools[1].requests, 2);
        assert_eq!(attr.tools[2].tool, "ALL");
        let table = attr.render();
        assert!(table.contains("queue%"));
        assert!(table.contains("TA"));
        // every request is identical: p50 == p99 breakdown
        assert_eq!(attr.tools[1].p50, attr.tools[1].p99);
        assert_eq!(attr.tools[1].p50.queue, 2.0);
    }

    #[test]
    fn attribution_of_empty_trace_renders() {
        let attr = LatencyAttribution::from_events(&[]);
        assert!(attr.tools.is_empty());
        assert!(attr.render().contains("no request spans"));
    }

    #[test]
    fn waterfall_shows_every_record_with_bars() {
        let tel = Telemetry::enabled();
        one_request(&tel, 0.0, "TA");
        let tree = TraceTree::build(&tel.events());
        let w = tree.waterfall(tree.roots()[0]);
        assert_eq!(w.lines().count(), 6);
        assert!(w.contains(names::SERVER_REQUEST));
        assert!(w.lines().next().unwrap().contains("################"));
        // queue wait occupies the first fifth of the bar
        let queue_line = w.lines().find(|l| l.contains("queue_wait")).unwrap();
        assert!(queue_line.contains("#######.")); // ~20% of 32 cells
    }

    #[test]
    fn chrome_export_is_loadable_shape() {
        let tel = Telemetry::enabled();
        one_request(&tel, 0.0, "TA");
        tel.root_context()
            .point(names::SERVER_SHED, 12.0, &[("tool", "SP")]);
        let json = chrome_trace_json(&tel.events(), &ChromeTraceOptions::default());
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.ends_with("]}"));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ph\":\"i\""));
        assert!(json.contains("\"ph\":\"M\"")); // thread_name metadata
        assert!(json.contains("\"name\":\"TA\""));
        assert!(json.contains("\"ts\":2000000")); // 2.0 s -> µs
        assert!(json.contains("\"dur\":8000000"));
    }

    #[test]
    fn chrome_export_places_tools_on_distinct_tracks() {
        let tel = Telemetry::enabled();
        one_request(&tel, 0.0, "TA");
        one_request(&tel, 20.0, "SP");
        let json = chrome_trace_json(&tel.events(), &ChromeTraceOptions::default());
        assert!(json.contains("\"tid\":1"));
        assert!(json.contains("\"tid\":2"));
    }
}
