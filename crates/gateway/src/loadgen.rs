//! Closed- and open-loop HTTP load generation against a live gateway.
//!
//! The workload *shapes* come from `crates/server::workload` — the same
//! Poisson/diurnal/flash-crowd arrival processes and Zipf target skew
//! E8 sweeps through the simulator — so the wall-clock numbers in
//! `BENCH_gateway.json` are directly comparable with the simulated
//! sweep at the same offered rates.
//!
//! * **Open loop** ([`run_open_loop`]): requests fire at their scheduled
//!   arrival times regardless of completions (a pool of sender threads
//!   shares the schedule round-robin). Latency is measured from the
//!   *scheduled* arrival, so client-side send backlog counts against the
//!   server — the honest open-loop convention. This is the mode that
//!   exposes queueing collapse.
//! * **Closed loop** ([`run_closed_loop`]): a fixed number of workers
//!   issue requests back-to-back over keep-alive connections; offered
//!   load adapts to service rate. This is the mode that measures peak
//!   sustainable throughput.
//!
//! The client is deliberately the dumbest correct thing: blocking
//! `TcpStream`s, one keep-alive connection per sender thread,
//! `Content-Length`-framed responses only (the load paths never use the
//! chunked stream endpoint).
//!
//! **Sender count vs. accept threads.** A gateway accept thread owns
//! its connection for the connection's whole lifetime, so a sender pool
//! larger than the gateway's accept pool is *serialized* — later
//! connections starve until earlier ones close, which inflates
//! open-loop latencies with listener-side convoy effects instead of
//! the admission-queue behaviour under test. Drivers must size
//! `GatewayConfig::accept_threads` to at least the sender count
//! (`exp_http_load` pins both to the same constant).

use fakeaudit_server::workload::Request;
use fakeaudit_telemetry::metrics::nearest_rank;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One sender thread's tally.
#[derive(Debug, Default, Clone)]
struct ThreadTally {
    latencies: Vec<(f64, u16)>,
    errors: u64,
}

/// Aggregated result of one load scenario.
#[derive(Debug, Clone)]
pub struct LoadSummary {
    /// Scenario label (appears in `BENCH_gateway.json`).
    pub name: String,
    /// `"open"` or `"closed"`.
    pub mode: &'static str,
    /// Requests attempted.
    pub offered: u64,
    /// 200 responses.
    pub answered: u64,
    /// 503 responses (admission shed or breaker open).
    pub shed: u64,
    /// 504 responses (deadline expired in queue).
    pub expired: u64,
    /// Other statuses and transport errors.
    pub errors: u64,
    /// Wall seconds from first send to last response.
    pub wall_secs: f64,
    /// Ascending end-to-end latencies (seconds) of answered requests.
    pub latencies_sorted: Vec<f64>,
}

impl LoadSummary {
    fn from_tallies(
        name: &str,
        mode: &'static str,
        wall_secs: f64,
        tallies: Vec<ThreadTally>,
    ) -> Self {
        let mut summary = Self {
            name: name.to_owned(),
            mode,
            offered: 0,
            answered: 0,
            shed: 0,
            expired: 0,
            errors: 0,
            wall_secs,
            latencies_sorted: Vec::new(),
        };
        for tally in tallies {
            summary.offered += tally.latencies.len() as u64 + tally.errors;
            summary.errors += tally.errors;
            for (latency, status) in tally.latencies {
                match status {
                    200 => {
                        summary.answered += 1;
                        summary.latencies_sorted.push(latency);
                    }
                    503 => summary.shed += 1,
                    504 => summary.expired += 1,
                    _ => summary.errors += 1,
                }
            }
        }
        summary.latencies_sorted.sort_by(f64::total_cmp);
        summary
    }

    /// Answered requests per wall-clock second.
    pub fn requests_per_sec(&self) -> f64 {
        if self.wall_secs <= 0.0 {
            return 0.0;
        }
        self.answered as f64 / self.wall_secs
    }

    /// Fraction of offered requests shed (503).
    pub fn shed_rate(&self) -> f64 {
        if self.offered == 0 {
            return 0.0;
        }
        self.shed as f64 / self.offered as f64
    }

    /// Nearest-rank latency percentile in seconds (`q` in `[0, 1]`); 0.0
    /// when nothing was answered.
    pub fn latency_percentile(&self, q: f64) -> f64 {
        nearest_rank(&self.latencies_sorted, q).unwrap_or(0.0)
    }
}

/// A keep-alive HTTP/1.1 client connection.
struct Client {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Client {
    fn connect(addr: SocketAddr) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        Ok(Self {
            stream,
            buf: Vec::with_capacity(1024),
        })
    }

    /// Sends one audit POST and reads the full response; returns the
    /// status code.
    fn post_audit(&mut self, req: &Request) -> io::Result<u16> {
        let head = format!(
            "POST /audit/{}?tool={} HTTP/1.1\r\nHost: gateway\r\nContent-Length: 0\r\n\r\n",
            req.target.as_u64(),
            req.tool.abbrev(),
        );
        self.stream.write_all(head.as_bytes())?;
        self.read_response()
    }

    /// Reads one `Content-Length`-framed response off the connection.
    fn read_response(&mut self) -> io::Result<u16> {
        let mut tmp = [0u8; 8192];
        let head_end = loop {
            if let Some(i) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break i;
            }
            let n = self.stream.read(&mut tmp)?;
            if n == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed mid-response",
                ));
            }
            self.buf.extend_from_slice(&tmp[..n]);
        };
        let head = std::str::from_utf8(&self.buf[..head_end])
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "non-UTF-8 response head"))?;
        let status: u16 = head
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad status line"))?;
        let content_length: usize = head
            .lines()
            .filter_map(|l| l.split_once(':'))
            .find(|(k, _)| k.eq_ignore_ascii_case("content-length"))
            .and_then(|(_, v)| v.trim().parse().ok())
            .unwrap_or(0);
        let total = head_end + 4 + content_length;
        while self.buf.len() < total {
            let n = self.stream.read(&mut tmp)?;
            if n == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed mid-body",
                ));
            }
            self.buf.extend_from_slice(&tmp[..n]);
        }
        self.buf.drain(..total);
        Ok(status)
    }
}

/// Issues one request through a (re)connecting client slot.
fn send_with_retry(slot: &mut Option<Client>, addr: SocketAddr, req: &Request) -> io::Result<u16> {
    for attempt in 0..2 {
        if slot.is_none() {
            *slot = Some(Client::connect(addr)?);
        }
        match slot.as_mut().expect("just connected").post_audit(req) {
            Ok(status) => return Ok(status),
            Err(e) => {
                // A closed keep-alive connection surfaces here; one
                // reconnect covers it, a second failure is real.
                *slot = None;
                if attempt == 1 {
                    return Err(e);
                }
            }
        }
    }
    unreachable!("loop returns on success or second failure")
}

/// Replays `schedule` (arrival seconds in `Request::at`, scaled by
/// `time_scale`) against `addr` open-loop, using `sender_threads`
/// round-robin senders.
pub fn run_open_loop(
    addr: SocketAddr,
    name: &str,
    schedule: &[Request],
    time_scale: f64,
    sender_threads: usize,
) -> LoadSummary {
    let start = Instant::now();
    let threads = sender_threads.clamp(1, 64);
    let tallies: Vec<ThreadTally> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|k| {
                scope.spawn(move || {
                    let mut tally = ThreadTally::default();
                    let mut slot: Option<Client> = None;
                    for req in schedule.iter().skip(k).step_by(threads) {
                        let due = Duration::from_secs_f64((req.at * time_scale).max(0.0));
                        if let Some(wait) = due.checked_sub(start.elapsed()) {
                            std::thread::sleep(wait);
                        }
                        match send_with_retry(&mut slot, addr, req) {
                            Ok(status) => {
                                // Latency from the *scheduled* arrival.
                                let latency = start.elapsed().as_secs_f64() - due.as_secs_f64();
                                tally.latencies.push((latency.max(0.0), status));
                            }
                            Err(_) => tally.errors += 1,
                        }
                    }
                    tally
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    LoadSummary::from_tallies(name, "open", start.elapsed().as_secs_f64(), tallies)
}

/// Issues every request in `work` as fast as `concurrency` keep-alive
/// connections allow (requests are claimed from a shared cursor, so the
/// arrival order is preserved even though pacing is not).
pub fn run_closed_loop(
    addr: SocketAddr,
    name: &str,
    work: &[Request],
    concurrency: usize,
) -> LoadSummary {
    let start = Instant::now();
    let cursor = Arc::new(AtomicUsize::new(0));
    let threads = concurrency.clamp(1, 64);
    let tallies: Vec<ThreadTally> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let cursor = Arc::clone(&cursor);
                scope.spawn(move || {
                    let mut tally = ThreadTally::default();
                    let mut slot: Option<Client> = None;
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(req) = work.get(i) else { break };
                        let sent = Instant::now();
                        match send_with_retry(&mut slot, addr, req) {
                            Ok(status) => {
                                tally.latencies.push((sent.elapsed().as_secs_f64(), status))
                            }
                            Err(_) => tally.errors += 1,
                        }
                    }
                    tally
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    LoadSummary::from_tallies(name, "closed", start.elapsed().as_secs_f64(), tallies)
}

/// Renders `BENCH_gateway.json` (schema documented in EXPERIMENTS.md,
/// E11): run configuration, per-scenario throughput/latency/shedding,
/// and the total breaker trip count read from gateway telemetry.
///
/// `config` values must already be valid JSON fragments (numbers, or
/// pre-quoted strings).
pub fn render_bench_json(
    config: &[(&str, String)],
    breaker_trips: u64,
    scenarios: &[LoadSummary],
) -> String {
    use std::fmt::Write as _;
    fn ms(v: f64) -> f64 {
        (v * 1e6).round() / 1e3
    }
    let mut out = String::with_capacity(1024);
    out.push_str("{\n  \"schema_version\": 1,\n  \"bench\": \"gateway\",\n  \"config\": {");
    for (i, (k, v)) in config.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\n    \"{k}\": {v}");
    }
    let _ = write!(
        out,
        "\n  }},\n  \"breaker_trips\": {breaker_trips},\n  \"scenarios\": ["
    );
    for (i, s) in scenarios.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n    {{\"name\": \"{}\", \"mode\": \"{}\", \"offered\": {}, \"answered\": {}, \
             \"shed\": {}, \"expired\": {}, \"errors\": {}, \"wall_secs\": {:.3}, \
             \"requests_per_sec\": {:.2}, \"p50_ms\": {:.3}, \"p95_ms\": {:.3}, \
             \"p99_ms\": {:.3}, \"shed_rate\": {:.4}}}",
            s.name,
            s.mode,
            s.offered,
            s.answered,
            s.shed,
            s.expired,
            s.errors,
            s.wall_secs,
            s.requests_per_sec(),
            ms(s.latency_percentile(0.50)),
            ms(s.latency_percentile(0.95)),
            ms(s.latency_percentile(0.99)),
            s.shed_rate(),
        );
    }
    out.push_str("\n  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn summary_with(latencies: &[(f64, u16)], errors: u64) -> LoadSummary {
        LoadSummary::from_tallies(
            "t",
            "closed",
            2.0,
            vec![ThreadTally {
                latencies: latencies.to_vec(),
                errors,
            }],
        )
    }

    #[test]
    fn tallies_classify_statuses() {
        let s = summary_with(
            &[(0.1, 200), (0.2, 200), (0.0, 503), (0.0, 504), (0.0, 500)],
            1,
        );
        assert_eq!(s.offered, 6);
        assert_eq!(s.answered, 2);
        assert_eq!(s.shed, 1);
        assert_eq!(s.expired, 1);
        assert_eq!(s.errors, 2);
        assert_eq!(s.requests_per_sec(), 1.0);
        assert!((s.shed_rate() - 1.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn bench_json_is_parseable_shape() {
        let s = summary_with(&[(0.05, 200), (0.0, 503)], 0);
        let json = render_bench_json(
            &[
                ("workers_per_tool", "2".to_owned()),
                ("policy", "\"shed\"".to_owned()),
            ],
            3,
            &[s],
        );
        assert!(json.contains("\"schema_version\": 1"));
        assert!(json.contains("\"breaker_trips\": 3"));
        assert!(json.contains("\"policy\": \"shed\""));
        assert!(json.contains("\"p95_ms\": 50"));
        assert!(json.contains("\"shed\": 1"));
        // Balanced braces/brackets as a cheap well-formedness check.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }
}
