//! The SLO monitor: burn-rate alerting, metrics history, and tail-based
//! trace sampling.
//!
//! This is the crate's one SLO evaluator. Live, a [`SloMonitor`] is fed
//! one observation per finished request and ticked on the
//! [`crate::Clock`] seam — explicit sim seconds from the discrete-event
//! server, wall seconds from the gateway's background thread — so the
//! same engine is byte-deterministic under a simulator and real-time
//! under load. Offline, [`replay_trace`] feeds a finished trace through
//! the same monitor and reads its windows with [`SloMonitor::window`],
//! so `trace slo` and E9 judge a run exactly as the live monitor does.
//!
//! Three cooperating pieces:
//!
//! * **Sliding time-bucket windows + multi-window multi-burn-rate
//!   alerts.** Each route keeps sparse fixed-width time buckets counting
//!   total / erroring / slow requests. Every [`BurnRule`] is a
//!   Google-SRE-style *fast + slow window pair*: an alert condition holds
//!   only while **both** the short and the long window burn their error
//!   budget faster than the rule's threshold — the short window gives
//!   fast detection and fast resolution, the long window keeps one noisy
//!   minute from paging. Availability and latency burn are tracked as
//!   separate signals per rule, each burn `bad_fraction / (1 − objective)`
//!   over the window's requests (see [`WindowBurn`]).
//! * **A `Pending → Firing → Resolved` state machine** per
//!   (route, rule, signal), [`AlertMachine`], in which no transition
//!   skips a state: a breach must dwell `pending_secs` before it fires
//!   and clear `clear_secs` before it resolves. Every transition is
//!   appended to a deterministic alert log and emitted as a
//!   `monitor.alert` telemetry point, so two same-seed sim runs produce
//!   byte-identical logs.
//! * **Tail-based trace sampling.** The gateway's trace buffer is a
//!   bounded ring; without a policy it keeps whatever happened last.
//!   The monitor decides at request *completion* (the tail, when the
//!   outcome is known) which trees matter: error and slow trees are
//!   always pinned, a seeded coin keeps a fraction of the boring ones,
//!   and every alert that fires pins its exemplar tree — so an alert's
//!   `exemplar=span#N` always resolves to a retained tree. Pinning uses
//!   [`crate::Telemetry::protect_tree`]; protected events evicted from
//!   the ring are parked instead of dropped.
//!
//! The monitor also snapshots a fixed-capacity **metrics history ring**
//! every `history_interval_secs`: per-family counter deltas and latency
//! quantiles, giving `GET /metrics/history` a short flight recorder
//! without external storage.

use crate::analyze::names;
use crate::json::quoted;
use crate::metrics::HistogramSnapshot;
use crate::sync::lock;
use crate::trace::{EventKind, SpanId, TraceEvent};
use crate::Telemetry;
use fakeaudit_stats::rng::DetStream;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};

/// One multi-window burn-rate rule: a fast + slow window pair with one
/// threshold. The alert condition holds while **both** windows burn
/// faster than `burn_threshold`.
#[derive(Debug, Clone, PartialEq)]
pub struct BurnRule {
    /// Rule label (`page`, `ticket`, …) used in logs and endpoints.
    pub name: String,
    /// The fast window (seconds): quick to rise, quick to clear.
    pub short_secs: f64,
    /// The slow window (seconds): keeps brief blips from alerting.
    pub long_secs: f64,
    /// Minimum burn rate (error budget consumed ÷ budget) on both
    /// windows for the condition to hold.
    pub burn_threshold: f64,
    /// Seconds the condition must hold before `Pending` becomes
    /// `Firing`.
    pub pending_secs: f64,
    /// Seconds the condition must stay clear before the alert resolves.
    pub clear_secs: f64,
}

impl BurnRule {
    /// A named fast/slow pair with explicit dwell times.
    #[must_use]
    pub fn new(
        name: &str,
        short_secs: f64,
        long_secs: f64,
        burn_threshold: f64,
        pending_secs: f64,
        clear_secs: f64,
    ) -> Self {
        Self {
            name: name.to_string(),
            short_secs,
            long_secs,
            burn_threshold,
            pending_secs,
            clear_secs,
        }
    }
}

/// Which error budget a machine watches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Signal {
    /// Failed/shed/expired requests against the availability objective.
    Availability,
    /// Requests slower than the latency objective against the quantile
    /// budget.
    Latency,
}

impl Signal {
    /// Label used in logs, metrics and endpoints.
    pub fn as_str(self) -> &'static str {
        match self {
            Signal::Availability => "availability",
            Signal::Latency => "latency",
        }
    }
}

impl fmt::Display for Signal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Everything the monitor needs to know up front.
#[derive(Debug, Clone, PartialEq)]
pub struct MonitorConfig {
    /// Width of one counting bucket (seconds). Window sums and tick
    /// cadence quantise to this.
    pub bucket_secs: f64,
    /// Availability objective, e.g. `0.99`.
    pub availability_objective: f64,
    /// The latency quantile whose complement is the slow-request budget
    /// (0.95 ⇒ 5 % of requests may be slow).
    pub latency_quantile: f64,
    /// A request whose latency is at or over this (seconds) is "slow".
    pub latency_objective_secs: f64,
    /// The fast/slow window pairs to evaluate.
    pub rules: Vec<BurnRule>,
    /// Frames kept in the metrics history ring.
    pub history_capacity: usize,
    /// Seconds between history frames.
    pub history_interval_secs: f64,
    /// Probability of keeping a healthy, fast request tree (error and
    /// slow trees are always kept).
    pub sample_keep: f64,
    /// Bound on the parked lane holding protected events rescued from
    /// ring eviction (see [`Telemetry::enable_tail_retention`]).
    pub parked_capacity: usize,
    /// Seed for the sampling coin; same seed + same observation stream ⇒
    /// identical decisions.
    pub seed: u64,
}

impl MonitorConfig {
    /// Defaults scaled to *simulated* seconds (Table-II-style audit
    /// latencies run tens of seconds): detection windows of minutes and
    /// a 30 s latency objective.
    #[must_use]
    pub fn sim_default(seed: u64) -> Self {
        Self {
            bucket_secs: 10.0,
            availability_objective: 0.99,
            latency_quantile: 0.95,
            latency_objective_secs: 30.0,
            rules: vec![
                BurnRule::new("page", 60.0, 300.0, 8.0, 30.0, 60.0),
                BurnRule::new("ticket", 300.0, 1200.0, 2.0, 60.0, 120.0),
            ],
            history_capacity: 64,
            history_interval_secs: 60.0,
            sample_keep: 0.10,
            parked_capacity: 4096,
            seed,
        }
    }

    /// Defaults scaled to *wall* seconds for the live gateway: windows
    /// of seconds, a 250 ms latency objective, so a CI fault burst fires
    /// and resolves within one short run.
    #[must_use]
    pub fn wall_default(seed: u64) -> Self {
        Self {
            bucket_secs: 1.0,
            availability_objective: 0.99,
            latency_quantile: 0.95,
            latency_objective_secs: 0.25,
            rules: vec![
                BurnRule::new("fast", 5.0, 20.0, 4.0, 1.0, 5.0),
                BurnRule::new("slow", 30.0, 120.0, 2.0, 5.0, 15.0),
            ],
            history_capacity: 120,
            history_interval_secs: 5.0,
            sample_keep: 0.05,
            parked_capacity: 4096,
            seed,
        }
    }

    /// The longest window any rule evaluates.
    fn max_window_secs(&self) -> f64 {
        self.rules
            .iter()
            .map(|r| r.long_secs.max(r.short_secs))
            .fold(0.0, f64::max)
    }
}

/// The observable phase of one alert machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum AlertPhase {
    /// No incident.
    Idle,
    /// The condition breached; dwelling before firing.
    Pending,
    /// The alert is live.
    Firing,
}

impl AlertPhase {
    /// Label used in endpoints (`ok` for idle — a healthy route).
    pub fn as_str(self) -> &'static str {
        match self {
            AlertPhase::Idle => "ok",
            AlertPhase::Pending => "pending",
            AlertPhase::Firing => "firing",
        }
    }
}

/// The transition an [`AlertMachine::step`] produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransitionKind {
    /// `Idle → Pending`: the condition breached.
    Pending,
    /// `Pending → Firing`: the breach outlived the pending dwell.
    Firing,
    /// `Pending → Idle` or `Firing → Idle`: the incident ended.
    Resolved,
}

impl TransitionKind {
    /// Label used in logs, metrics and endpoints.
    pub fn as_str(self) -> &'static str {
        match self {
            TransitionKind::Pending => "pending",
            TransitionKind::Firing => "firing",
            TransitionKind::Resolved => "resolved",
        }
    }
}

impl fmt::Display for TransitionKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The `Pending → Firing → Resolved` state machine for one
/// (route, rule, signal).
///
/// Driven by [`AlertMachine::step`] once per tick with the current
/// breach verdict. By construction no transition skips a state: an
/// incident always enters through `Pending`, `Firing` is only reachable
/// from `Pending`, and both exit through a single `Resolved` transition
/// back to idle. At most one transition per step.
#[derive(Debug, Clone, PartialEq)]
pub struct AlertMachine {
    pending_secs: f64,
    clear_secs: f64,
    state: MachineState,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum MachineState {
    Idle,
    Pending { since: f64 },
    Firing { clear_since: Option<f64> },
}

impl AlertMachine {
    /// A machine with the given dwell times, starting idle.
    #[must_use]
    pub fn new(pending_secs: f64, clear_secs: f64) -> Self {
        Self {
            pending_secs,
            clear_secs,
            state: MachineState::Idle,
        }
    }

    /// The machine's observable phase.
    pub fn phase(&self) -> AlertPhase {
        match self.state {
            MachineState::Idle => AlertPhase::Idle,
            MachineState::Pending { .. } => AlertPhase::Pending,
            MachineState::Firing { .. } => AlertPhase::Firing,
        }
    }

    /// Advances the machine to `now` given whether the alert condition
    /// currently holds. Returns the transition taken, if any.
    pub fn step(&mut self, now: f64, breach: bool) -> Option<TransitionKind> {
        match self.state {
            MachineState::Idle => {
                if breach {
                    self.state = MachineState::Pending { since: now };
                    return Some(TransitionKind::Pending);
                }
                None
            }
            MachineState::Pending { since } => {
                if !breach {
                    self.state = MachineState::Idle;
                    return Some(TransitionKind::Resolved);
                }
                if now - since >= self.pending_secs {
                    self.state = MachineState::Firing { clear_since: None };
                    return Some(TransitionKind::Firing);
                }
                None
            }
            MachineState::Firing { clear_since } => {
                if breach {
                    if clear_since.is_some() {
                        self.state = MachineState::Firing { clear_since: None };
                    }
                    return None;
                }
                let since = clear_since.unwrap_or(now);
                if now - since >= self.clear_secs {
                    self.state = MachineState::Idle;
                    return Some(TransitionKind::Resolved);
                }
                self.state = MachineState::Firing {
                    clear_since: Some(since),
                };
                None
            }
        }
    }
}

/// One line of the alert log: a state-machine transition with the burn
/// rates that drove it.
#[derive(Debug, Clone, PartialEq)]
pub struct AlertTransition {
    /// When the transition happened (monitor-clock seconds).
    pub at_secs: f64,
    /// The route (gateway route label or sim tool abbreviation).
    pub route: String,
    /// The [`BurnRule`] name.
    pub rule: String,
    /// Which budget breached.
    pub signal: Signal,
    /// The transition taken.
    pub to: TransitionKind,
    /// Burn rate on the fast window at transition time.
    pub short_burn: f64,
    /// Burn rate on the slow window at transition time.
    pub long_burn: f64,
    /// The pinned exemplar trace for firing transitions.
    pub exemplar: Option<SpanId>,
}

impl AlertTransition {
    /// The deterministic one-line log rendering.
    pub fn render(&self) -> String {
        let exemplar = self
            .exemplar
            .map_or_else(|| "-".to_string(), |id| id.to_string());
        format!(
            "t={:.1} route={} rule={} signal={} to={} short={:.2}x long={:.2}x exemplar={}",
            self.at_secs,
            self.route,
            self.rule,
            self.signal,
            self.to,
            self.short_burn,
            self.long_burn,
            exemplar
        )
    }
}

/// One frame of the metrics history ring.
#[derive(Debug, Clone, PartialEq)]
pub struct HistoryFrame {
    /// Frame time (monitor-clock seconds).
    pub at_secs: f64,
    /// Per-family counter increments since the previous frame, name
    /// order, zero deltas omitted.
    pub counter_deltas: Vec<(String, u64)>,
    /// Per-family `[p50, p95, p99]` over all label sets, name order.
    pub quantiles: Vec<(String, [f64; 3])>,
}

/// Cumulative monitor counters, for `/debug/vars` and reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MonitorCounts {
    /// `→ Pending` transitions so far.
    pub pending: u64,
    /// `→ Firing` transitions so far.
    pub firing: u64,
    /// `→ Resolved` transitions so far.
    pub resolved: u64,
    /// Machines currently pending.
    pub active_pending: u64,
    /// Machines currently firing.
    pub active_firing: u64,
    /// Trees pinned because they erred or ran slow.
    pub traces_kept: u64,
    /// Healthy trees pinned by the sampling coin.
    pub traces_sampled: u64,
    /// Healthy trees left to ring eviction.
    pub traces_dropped: u64,
}

/// One route's sparse time-bucket counts plus its alert machines.
#[derive(Debug)]
struct Series {
    /// Ascending by bucket index; sparse (empty buckets not stored).
    buckets: VecDeque<Bucket>,
    /// Most recent erroring tree, the availability exemplar.
    last_bad: Option<SpanId>,
    /// Most recent slow tree, the latency exemplar.
    last_slow: Option<SpanId>,
    /// Rule-major, then availability before latency.
    machines: Vec<AlertMachine>,
}

#[derive(Debug, Clone, Copy, Default)]
struct Bucket {
    index: u64,
    total: u64,
    bad: u64,
    slow: u64,
}

impl Series {
    fn new(rules: &[BurnRule]) -> Self {
        let machines = rules
            .iter()
            .flat_map(|r| {
                [
                    AlertMachine::new(r.pending_secs, r.clear_secs),
                    AlertMachine::new(r.pending_secs, r.clear_secs),
                ]
            })
            .collect();
        Self {
            buckets: VecDeque::new(),
            last_bad: None,
            last_slow: None,
            machines,
        }
    }

    /// Adds one observation to the bucket covering `at_secs`.
    fn observe(&mut self, bucket_secs: f64, at_secs: f64, bad: bool, slow: bool) {
        let index = (at_secs.max(0.0) / bucket_secs).floor() as u64;
        // Find the bucket from the back: observations arrive in
        // near-time order, so this is O(1) in the sim and short under
        // wall-clock jitter.
        let pos = self.buckets.iter().rposition(|b| b.index <= index);
        let slot = match pos {
            Some(i) if self.buckets[i].index == index => i,
            Some(i) => {
                self.buckets.insert(
                    i + 1,
                    Bucket {
                        index,
                        ..Bucket::default()
                    },
                );
                i + 1
            }
            None => {
                self.buckets.push_front(Bucket {
                    index,
                    ..Bucket::default()
                });
                0
            }
        };
        let b = &mut self.buckets[slot];
        b.total += 1;
        b.bad += u64::from(bad);
        b.slow += u64::from(slow);
    }

    /// Drops buckets entirely behind every window ending at `now`.
    fn evict(&mut self, bucket_secs: f64, now: f64, max_window: f64) {
        let horizon = now - max_window - bucket_secs;
        while let Some(front) = self.buckets.front() {
            if (front.index + 1) as f64 * bucket_secs > horizon {
                break;
            }
            self.buckets.pop_front();
        }
    }

    /// Counts and burns over the window `(now − window, now]`: every
    /// bucket overlapping it counts whole. The one place a burn rate is
    /// computed.
    fn window(&self, config: &MonitorConfig, now: f64, window: f64) -> WindowBurn {
        let mut w = WindowBurn::default();
        for b in &self.buckets {
            let start = b.index as f64 * config.bucket_secs;
            if start > now {
                continue; // A completion observed ahead of the tick clock.
            }
            if start + config.bucket_secs > now - window {
                w.total += b.total;
                w.bad += b.bad;
                w.slow += b.slow;
            }
        }
        if w.total > 0 {
            let total = w.total as f64;
            let burn =
                |n: u64, objective: f64| (n as f64 / total) / (1.0 - objective).max(f64::EPSILON);
            w.availability_burn = burn(w.bad, config.availability_objective);
            w.latency_burn = burn(w.slow, config.latency_quantile);
        }
        w
    }
}

/// One window's request counts and error-budget burn rates, as every
/// [`BurnRule`] window is judged and [`SloMonitor::window`] reports.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct WindowBurn {
    /// Requests observed in the window.
    pub total: u64,
    /// Of those, not ok (failed, shed, expired, 5xx).
    pub bad: u64,
    /// Of those, with latency at or over the latency objective.
    pub slow: u64,
    /// `bad / total` over the availability budget
    /// `1 − availability_objective`: `1.0` burns exactly at budget, `> 1`
    /// exhausts it early. `0` for an empty window.
    pub availability_burn: f64,
    /// `slow / total` over the latency budget `1 − latency_quantile`.
    pub latency_burn: f64,
}

impl WindowBurn {
    /// Whether either budget burned faster than it accrues (burn `> 1`).
    pub fn violated(&self) -> bool {
        self.availability_burn > 1.0 || self.latency_burn > 1.0
    }
}

/// Mutable monitor state behind one lock.
#[derive(Debug)]
struct MonitorState {
    series: BTreeMap<String, Series>,
    log: Vec<AlertTransition>,
    /// Transitions evicted once the log hit [`LOG_CAPACITY`].
    log_dropped: u64,
    counts: MonitorCounts,
    rng: DetStream,
    history: VecDeque<HistoryFrame>,
    prev_counters: BTreeMap<String, u64>,
    next_history_at: f64,
    last_tick: f64,
}

/// Bound on the in-memory alert log; far above any honest run, it only
/// guards a flapping misconfiguration.
const LOG_CAPACITY: usize = 4096;

/// The streaming SLO engine. Cheap to clone; all clones share state.
///
/// Feed it [`SloMonitor::observe_request`] per finished request and
/// [`SloMonitor::tick`] on whatever clock drives the deployment.
#[derive(Debug, Clone)]
pub struct SloMonitor {
    config: Arc<MonitorConfig>,
    state: Arc<Mutex<MonitorState>>,
    telemetry: Telemetry,
}

impl SloMonitor {
    /// A monitor over `telemetry`, which also installs tail-sampling
    /// retention on its trace buffer.
    #[must_use]
    pub fn new(config: MonitorConfig, telemetry: Telemetry) -> Self {
        telemetry.enable_tail_retention(config.parked_capacity);
        let next_history_at = config.history_interval_secs;
        let seed = config.seed;
        Self {
            config: Arc::new(config),
            state: Arc::new(Mutex::new(MonitorState {
                series: BTreeMap::new(),
                log: Vec::new(),
                log_dropped: 0,
                counts: MonitorCounts::default(),
                rng: DetStream::from_state(seed ^ 0x006D_6F6E_6974_6F72), // "monitor"
                history: VecDeque::new(),
                prev_counters: BTreeMap::new(),
                next_history_at,
                last_tick: 0.0,
            })),
            telemetry,
        }
    }

    /// The configuration the monitor runs.
    pub fn config(&self) -> &MonitorConfig {
        &self.config
    }

    /// Records one finished request: `ok` is the client-visible verdict
    /// (5xx, shed, expired and failed are *not* ok), `latency_secs` the
    /// end-to-end latency when one exists (shed requests have none), and
    /// `root` the request's trace-tree root for the tail sampler.
    pub fn observe_request(
        &self,
        route: &str,
        end_secs: f64,
        latency_secs: Option<f64>,
        ok: bool,
        root: Option<SpanId>,
    ) {
        let slow = latency_secs.is_some_and(|l| l >= self.config.latency_objective_secs);
        let bad = !ok;
        let mut state = lock(&self.state);
        let series = state
            .series
            .entry(route.to_string())
            .or_insert_with(|| Series::new(&self.config.rules));
        series.observe(self.config.bucket_secs, end_secs, bad, slow);
        if bad {
            if root.is_some() {
                series.last_bad = root;
            }
        } else if slow && root.is_some() {
            series.last_slow = root;
        }
        // Tail decision: the outcome is known, so pin what matters.
        if let Some(root) = root {
            if bad || slow {
                self.telemetry.protect_tree(root);
                state.counts.traces_kept += 1;
                self.telemetry
                    .counter_add("monitor.traces", &[("decision", "kept")], 1);
            } else if state.rng.next_f64() < self.config.sample_keep {
                self.telemetry.protect_tree(root);
                state.counts.traces_sampled += 1;
                self.telemetry
                    .counter_add("monitor.traces", &[("decision", "sampled")], 1);
            } else {
                state.counts.traces_dropped += 1;
                self.telemetry
                    .counter_add("monitor.traces", &[("decision", "dropped")], 1);
            }
        }
    }

    /// Evaluates every (route, rule, signal) at `now`, drives the state
    /// machines, logs and emits transitions, and snapshots the history
    /// ring when a frame is due. Returns the transitions taken this
    /// tick.
    pub fn tick(&self, now: f64) -> Vec<AlertTransition> {
        let config = &*self.config;
        let max_window = config.max_window_secs();
        let mut state = lock(&self.state);
        state.last_tick = now;
        let mut transitions = Vec::new();
        let mut protect = Vec::new();

        for (route, series) in &mut state.series {
            series.evict(config.bucket_secs, now, max_window);
            for (r, rule) in config.rules.iter().enumerate() {
                let [short, long] =
                    [rule.short_secs, rule.long_secs].map(|w| series.window(config, now, w));
                let signals = [
                    (
                        Signal::Availability,
                        short.availability_burn,
                        long.availability_burn,
                    ),
                    (Signal::Latency, short.latency_burn, long.latency_burn),
                ];
                for (s, (signal, short_burn, long_burn)) in signals.into_iter().enumerate() {
                    let breach =
                        short_burn >= rule.burn_threshold && long_burn >= rule.burn_threshold;
                    let machine = &mut series.machines[r * 2 + s];
                    let Some(to) = machine.step(now, breach) else {
                        continue;
                    };
                    let exemplar = if to == TransitionKind::Firing {
                        let root = match signal {
                            Signal::Availability => series.last_bad.or(series.last_slow),
                            Signal::Latency => series.last_slow.or(series.last_bad),
                        };
                        if let Some(root) = root {
                            protect.push(root);
                        }
                        root
                    } else {
                        None
                    };
                    transitions.push(AlertTransition {
                        at_secs: now,
                        route: route.clone(),
                        rule: rule.name.clone(),
                        signal,
                        to,
                        short_burn,
                        long_burn,
                        exemplar,
                    });
                }
            }
        }

        // An alert's exemplar must survive the ring: pin it the moment
        // the alert fires.
        for root in protect {
            self.telemetry.protect_tree(root);
        }
        for t in &transitions {
            match t.to {
                TransitionKind::Pending => state.counts.pending += 1,
                TransitionKind::Firing => state.counts.firing += 1,
                TransitionKind::Resolved => state.counts.resolved += 1,
            }
            self.telemetry
                .counter_add("monitor.alerts", &[("state", t.to.as_str())], 1);
            let exemplar = t
                .exemplar
                .map_or_else(|| "-".to_string(), |id| id.to_string());
            self.telemetry.event(
                "monitor.alert",
                t.at_secs,
                &[
                    ("route", &t.route),
                    ("rule", &t.rule),
                    ("signal", t.signal.as_str()),
                    ("to", t.to.as_str()),
                    ("exemplar", &exemplar),
                ],
            );
        }
        if !transitions.is_empty() {
            state.log.extend(transitions.iter().cloned());
            let overflow = state.log.len().saturating_sub(LOG_CAPACITY);
            if overflow > 0 {
                state.log.drain(..overflow);
                state.log_dropped += overflow as u64;
            }
        }
        let (pending, firing) =
            state
                .series
                .values()
                .flat_map(|s| s.machines.iter())
                .fold((0, 0), |(p, f), m| match m.phase() {
                    AlertPhase::Idle => (p, f),
                    AlertPhase::Pending => (p + 1, f),
                    AlertPhase::Firing => (p, f + 1),
                });
        state.counts.active_pending = pending;
        state.counts.active_firing = firing;
        self.telemetry
            .gauge_set("monitor.alerts_firing", &[], firing as f64);
        self.telemetry
            .gauge_set("monitor.alerts_pending", &[], pending as f64);

        if now >= state.next_history_at {
            self.capture_history(&mut state, now);
            let interval = config.history_interval_secs.max(f64::EPSILON);
            // Skip straight past any missed frames (idle gateway).
            let behind = ((now - state.next_history_at) / interval).floor() + 1.0;
            state.next_history_at += behind * interval;
        }
        transitions
    }

    /// Appends one history frame from the live metrics registry.
    fn capture_history(&self, state: &mut MonitorState, now: f64) {
        let snap = self.telemetry.snapshot();
        let mut totals: BTreeMap<String, u64> = BTreeMap::new();
        for (key, v) in &snap.counters {
            *totals.entry(key.name.clone()).or_insert(0) += v;
        }
        let counter_deltas: Vec<(String, u64)> = totals
            .iter()
            .filter_map(|(name, &total)| {
                let prev = state.prev_counters.get(name).copied().unwrap_or(0);
                let delta = total.saturating_sub(prev);
                (delta > 0).then(|| (name.clone(), delta))
            })
            .collect();
        let mut families: BTreeMap<String, HistogramSnapshot> = BTreeMap::new();
        for (key, h) in &snap.histograms {
            families
                .entry(key.name.clone())
                .and_modify(|merged| merged.merge(h))
                .or_insert_with(|| h.clone());
        }
        let quantiles = families
            .into_iter()
            .map(|(name, h)| (name, [h.quantile(0.50), h.quantile(0.95), h.quantile(0.99)]))
            .collect();
        state.prev_counters = totals;
        state.history.push_back(HistoryFrame {
            at_secs: now,
            counter_deltas,
            quantiles,
        });
        while state.history.len() > self.config.history_capacity.max(1) {
            state.history.pop_front();
        }
    }

    /// Counts and burns for `route` over the window `(now − secs, now]`,
    /// bucket-quantised: the figures [`SloMonitor::tick`] judges each rule
    /// window by. An unseen route reads as an empty window. Each tick
    /// evicts buckets behind the longest rule window, so on a ticked
    /// monitor a longer `secs` reads short.
    pub fn window(&self, route: &str, now: f64, secs: f64) -> WindowBurn {
        lock(&self.state)
            .series
            .get(route)
            .map_or_else(WindowBurn::default, |s| s.window(&self.config, now, secs))
    }

    /// Cumulative and active counters.
    pub fn counts(&self) -> MonitorCounts {
        lock(&self.state).counts
    }

    /// Every logged transition, oldest first.
    pub fn transitions(&self) -> Vec<AlertTransition> {
        lock(&self.state).log.clone()
    }

    /// Per-route worst phase (`ok` / `pending` / `firing`), route order.
    pub fn route_status(&self) -> Vec<(String, AlertPhase)> {
        let state = lock(&self.state);
        state
            .series
            .iter()
            .map(|(route, series)| {
                let worst = series
                    .machines
                    .iter()
                    .map(|m| m.phase())
                    .max()
                    .unwrap_or(AlertPhase::Idle);
                (route.clone(), worst)
            })
            .collect()
    }

    /// The deterministic alert log: one [`AlertTransition::render`] line
    /// per transition, newline-terminated. Same seed + same observation
    /// stream ⇒ byte-identical output.
    pub fn render_alert_log(&self) -> String {
        let state = lock(&self.state);
        let mut out = String::new();
        for t in &state.log {
            let _ = writeln!(out, "{}", t.render());
        }
        out
    }

    /// The `GET /alerts` JSON body: active counts, per-route status and
    /// the transition log.
    pub fn alerts_json(&self) -> String {
        let state = lock(&self.state);
        let mut out = String::from("{");
        let _ = write!(
            out,
            "\"firing\":{},\"pending\":{},\"resolved_total\":{},\"log_dropped\":{}",
            state.counts.active_firing,
            state.counts.active_pending,
            state.counts.resolved,
            state.log_dropped
        );
        out.push_str(",\"routes\":[");
        for (i, (route, series)) in state.series.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let worst = series
                .machines
                .iter()
                .map(|m| m.phase())
                .max()
                .unwrap_or(AlertPhase::Idle);
            let _ = write!(
                out,
                "{{\"route\":{},\"status\":\"{}\"}}",
                quoted(route),
                worst.as_str()
            );
        }
        out.push_str("],\"transitions\":[");
        for (i, t) in state.log.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"t\":{:.3},\"route\":{},\"rule\":{},\"signal\":\"{}\",\
                 \"to\":\"{}\",\"short_burn\":{:.4},\"long_burn\":{:.4},\"exemplar\":{}}}",
                t.at_secs,
                quoted(&t.route),
                quoted(&t.rule),
                t.signal,
                t.to,
                t.short_burn,
                t.long_burn,
                t.exemplar
                    .map_or_else(|| "null".to_string(), |id| format!("\"{id}\""))
            );
        }
        out.push_str("]}");
        out
    }

    /// The `GET /metrics/history` JSON body: the frame ring, oldest
    /// first.
    pub fn history_json(&self) -> String {
        let state = lock(&self.state);
        let mut out = String::from("{");
        let _ = write!(
            out,
            "\"interval_secs\":{},\"capacity\":{},\"frames\":[",
            fmt_f64(self.config.history_interval_secs),
            self.config.history_capacity
        );
        for (i, frame) in state.history.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{{\"t\":{:.3},\"counter_deltas\":{{", frame.at_secs);
            for (j, (name, delta)) in frame.counter_deltas.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{}:{}", quoted(name), delta);
            }
            out.push_str("},\"quantiles\":{");
            for (j, (name, q)) in frame.quantiles.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(
                    out,
                    "{}:{{\"p50\":{:.6},\"p95\":{:.6},\"p99\":{:.6}}}",
                    quoted(name),
                    q[0],
                    q[1],
                    q[2]
                );
            }
            out.push_str("}}");
        }
        out.push_str("]}");
        out
    }

    /// The history frames, oldest first.
    pub fn history(&self) -> Vec<HistoryFrame> {
        lock(&self.state).history.iter().cloned().collect()
    }

    /// The telemetry handle the monitor records into.
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }
}

/// One row of [`replay_trace`]: `route`'s window as judged at `at_secs`.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayWindow {
    /// The route (the events' `tool` attribute).
    pub route: String,
    /// The bucket boundary the window ends at.
    pub at_secs: f64,
    /// The window's counts and burns.
    pub burn: WindowBurn,
}

/// Replays a finished trace through a fresh [`SloMonitor`], reading every
/// route's `window_secs` window at each bucket boundary.
///
/// Each request maps to the observation the discrete-event server feeds
/// its live monitor, routed by the event's `tool` attribute:
/// * a root `server.request` span with outcome `completed` or `degraded`
///   is ok, with latency `t1 − t0`, at `t1`;
/// * a `server.shed`, `server.failed` or `server.expired` point is not
///   ok, with no latency, at its time. (The trace does not carry a
///   failed request's queue wait, so a failure is never also slow.)
///
/// Observations are fed in time order and read the way the server ticks
/// its monitor: at boundary `t = k · bucket_secs` the monitor has seen
/// every observation before `t`, so a window that is a whole number of
/// buckets covers exactly `[t − window_secs, t)`. Boundaries run from
/// `bucket_secs` to the first one past the last observation. Rows are
/// boundary-major, routes in name order.
pub fn replay_trace(
    config: MonitorConfig,
    events: &[TraceEvent],
    window_secs: f64,
) -> Vec<ReplayWindow> {
    let mut observations: Vec<(f64, &str, Option<f64>, bool)> = events
        .iter()
        .filter_map(|e| {
            let (at, latency, ok) = match e.name.as_str() {
                names::SERVER_REQUEST
                    if e.kind == EventKind::Span
                        && e.parent.is_none()
                        && matches!(e.attr("outcome"), Some("completed" | "degraded")) =>
                {
                    (e.t1, Some(e.t1 - e.t0), true)
                }
                names::SERVER_SHED | names::SERVER_FAILED | names::SERVER_EXPIRED => {
                    (e.t0, None, false)
                }
                _ => return None,
            };
            Some((at, e.attr("tool").unwrap_or("-"), latency, ok))
        })
        .collect();
    observations.sort_by(|a, b| a.0.total_cmp(&b.0));
    let routes: BTreeSet<&str> = observations.iter().map(|o| o.1).collect();
    let monitor = SloMonitor::new(config, Telemetry::disabled());
    let bucket = monitor.config().bucket_secs;
    let boundaries = observations
        .last()
        .map_or(0, |o| (o.0 / bucket).floor() as u64 + 1);
    let mut pending = observations.iter().peekable();
    let mut rows = Vec::new();
    for k in 1..=boundaries {
        let at_secs = k as f64 * bucket;
        while let Some(&(at, route, latency, ok)) = pending.next_if(|o| o.0 < at_secs) {
            monitor.observe_request(route, at, latency, ok, None);
        }
        for &route in &routes {
            rows.push(ReplayWindow {
                route: route.to_string(),
                at_secs,
                burn: monitor.window(route, at_secs, window_secs),
            });
        }
    }
    rows
}

/// Formats an f64 with no trailing `.0` surprises for config fields.
fn fmt_f64(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{v:.1}")
    } else {
        format!("{v}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tight_config(seed: u64) -> MonitorConfig {
        MonitorConfig {
            bucket_secs: 1.0,
            availability_objective: 0.99,
            latency_quantile: 0.95,
            latency_objective_secs: 10.0,
            rules: vec![BurnRule::new("page", 5.0, 15.0, 2.0, 2.0, 5.0)],
            history_capacity: 8,
            history_interval_secs: 10.0,
            sample_keep: 0.0,
            parked_capacity: 64,
            seed,
        }
    }

    /// Drives a failure burst then recovery; returns the monitor.
    fn burst_run(seed: u64) -> SloMonitor {
        let monitor = SloMonitor::new(tight_config(seed), Telemetry::enabled());
        drive_burst(&monitor);
        monitor
    }

    fn drive_burst(monitor: &SloMonitor) {
        let mut t = 0.0;
        while t < 60.0 {
            let bad = (20.0..35.0).contains(&t);
            monitor.observe_request("audit", t, Some(1.0), !bad, None);
            if t % 1.0 == 0.0 {
                monitor.tick(t);
            }
            t += 0.5;
        }
        for i in 61..90 {
            monitor.tick(f64::from(i));
        }
    }

    #[test]
    fn a_panicking_holder_does_not_wedge_the_monitor() {
        let clean = burst_run(4);
        let monitor = SloMonitor::new(tight_config(4), Telemetry::enabled());
        crate::sync::poison(&monitor.state);
        drive_burst(&monitor);
        assert!(clean.counts().firing > 0);
        assert_eq!(monitor.render_alert_log(), clean.render_alert_log());
        assert_eq!(monitor.counts(), clean.counts());
    }

    #[test]
    fn machine_never_skips_a_state() {
        let mut m = AlertMachine::new(2.0, 3.0);
        assert_eq!(m.phase(), AlertPhase::Idle);
        assert_eq!(m.step(0.0, true), Some(TransitionKind::Pending));
        assert_eq!(m.phase(), AlertPhase::Pending);
        assert_eq!(m.step(1.0, true), None, "dwell not yet served");
        assert_eq!(m.step(2.0, true), Some(TransitionKind::Firing));
        assert_eq!(m.phase(), AlertPhase::Firing);
        assert_eq!(m.step(3.0, false), None, "clear dwell starts");
        assert_eq!(m.step(4.0, true), None, "re-breach resets the clear");
        assert_eq!(m.step(5.0, false), None);
        assert_eq!(m.step(8.0, false), Some(TransitionKind::Resolved));
        assert_eq!(m.phase(), AlertPhase::Idle);
    }

    #[test]
    fn pending_that_clears_resolves_without_firing() {
        let mut m = AlertMachine::new(10.0, 3.0);
        assert_eq!(m.step(0.0, true), Some(TransitionKind::Pending));
        assert_eq!(m.step(1.0, false), Some(TransitionKind::Resolved));
        assert_eq!(m.phase(), AlertPhase::Idle);
    }

    #[test]
    fn burst_fires_then_resolves() {
        let monitor = burst_run(7);
        let log = monitor.transitions();
        let kinds: Vec<TransitionKind> = log
            .iter()
            .filter(|t| t.signal == Signal::Availability)
            .map(|t| t.to)
            .collect();
        assert!(
            kinds.contains(&TransitionKind::Firing),
            "burst must fire: {log:?}"
        );
        let fired_at = log
            .iter()
            .position(|t| t.to == TransitionKind::Firing)
            .unwrap();
        assert!(
            log[..fired_at]
                .iter()
                .any(|t| t.to == TransitionKind::Pending
                    && t.route == log[fired_at].route
                    && t.signal == log[fired_at].signal),
            "firing must be preceded by pending"
        );
        assert!(
            log[fired_at..]
                .iter()
                .any(|t| t.to == TransitionKind::Resolved),
            "recovery must resolve: {log:?}"
        );
        let counts = monitor.counts();
        assert!(counts.firing >= 1);
        assert!(counts.resolved >= 1);
        assert_eq!(counts.active_firing, 0, "all quiet at the end");
    }

    #[test]
    fn alert_log_is_deterministic() {
        let a = burst_run(42).render_alert_log();
        let b = burst_run(42).render_alert_log();
        assert!(!a.is_empty());
        assert_eq!(a, b, "same seed + same stream ⇒ byte-identical log");
    }

    #[test]
    fn transitions_emit_telemetry_events_and_counters() {
        let monitor = burst_run(7);
        let tel = monitor.telemetry();
        let events: Vec<_> = tel
            .events()
            .into_iter()
            .filter(|e| e.name == "monitor.alert")
            .collect();
        assert_eq!(events.len(), monitor.transitions().len());
        let snap = tel.snapshot();
        let c = monitor.counts();
        assert_eq!(
            snap.counter("monitor.alerts", &[("state", "firing")]),
            Some(c.firing)
        );
        assert_eq!(
            snap.counter("monitor.alerts", &[("state", "resolved")]),
            Some(c.resolved)
        );
    }

    #[test]
    fn firing_exemplar_is_protected_and_retained() {
        let tel = Telemetry::with_event_capacity(16);
        let monitor = SloMonitor::new(tight_config(3), tel.clone());
        // A bad request tree whose root we can check on later.
        let root_ctx = tel.root_context().child();
        let root_id = root_ctx.span_id().unwrap();
        root_ctx.record("server.request", 9.0, 10.0, &[("outcome", "failed")]);
        monitor.observe_request("audit", 10.0, Some(1.0), false, Some(root_id));
        for t in 10..20 {
            monitor.observe_request("audit", f64::from(t), Some(1.0), false, None);
            monitor.tick(f64::from(t));
        }
        let fired = monitor
            .transitions()
            .into_iter()
            .find(|t| t.to == TransitionKind::Firing)
            .expect("a sustained failure run must fire");
        assert_eq!(fired.exemplar, Some(root_id));
        // Flood the bounded buffer; the exemplar tree must survive.
        for i in 0..100 {
            tel.event("noise", f64::from(i), &[]);
        }
        assert!(
            tel.events().iter().any(|e| e.id == Some(root_id)),
            "exemplar tree evicted despite protection"
        );
        assert!(tel.retention_stats().unwrap().parked >= 1);
    }

    #[test]
    fn sampler_keeps_errors_and_coins_the_rest() {
        let tel = Telemetry::with_event_capacity(512);
        let config = MonitorConfig {
            sample_keep: 0.5,
            ..tight_config(11)
        };
        let monitor = SloMonitor::new(config, tel.clone());
        for i in 0..200u64 {
            let ctx = tel.root_context().child();
            let id = ctx.span_id().unwrap();
            let t = i as f64;
            ctx.record("server.request", t, t + 0.5, &[]);
            let ok = i % 10 != 0;
            monitor.observe_request("audit", t + 0.5, Some(0.5), ok, Some(id));
        }
        let c = monitor.counts();
        assert_eq!(c.traces_kept, 20, "every error tree is kept");
        assert_eq!(c.traces_sampled + c.traces_dropped, 180);
        assert!(c.traces_sampled > 50, "coin keeps roughly half: {c:?}");
        assert!(c.traces_dropped > 50, "coin drops roughly half: {c:?}");
        // Decisions are seed-deterministic.
        let tel2 = Telemetry::with_event_capacity(512);
        let config2 = MonitorConfig {
            sample_keep: 0.5,
            ..tight_config(11)
        };
        let monitor2 = SloMonitor::new(config2, tel2.clone());
        for i in 0..200u64 {
            let ctx = tel2.root_context().child();
            let id = ctx.span_id().unwrap();
            let t = i as f64;
            ctx.record("server.request", t, t + 0.5, &[]);
            monitor2.observe_request("audit", t + 0.5, Some(0.5), i % 10 != 0, Some(id));
        }
        assert_eq!(monitor.counts(), monitor2.counts());
    }

    #[test]
    fn history_ring_captures_deltas_and_rolls() {
        let tel = Telemetry::enabled();
        let monitor = SloMonitor::new(tight_config(5), tel.clone());
        for frame in 0..12u64 {
            tel.counter_add("api.calls", &[], 3);
            tel.observe("server.latency_secs", &[], 0.5 + frame as f64);
            monitor.tick(10.0 * (frame + 1) as f64);
        }
        let frames = monitor.history();
        assert_eq!(frames.len(), 8, "ring holds history_capacity frames");
        for f in &frames {
            let calls = f
                .counter_deltas
                .iter()
                .find(|(n, _)| n == "api.calls")
                .map(|&(_, d)| d);
            assert_eq!(calls, Some(3), "per-frame delta, not cumulative total");
            assert!(f.quantiles.iter().any(|(n, _)| n == "server.latency_secs"));
        }
        let json = monitor.history_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"api.calls\":3"));
        assert!(json.contains("\"p95\""));
    }

    #[test]
    fn alerts_json_and_route_status_shape() {
        let monitor = burst_run(7);
        let json = monitor.alerts_json();
        assert!(json.contains("\"routes\":[{\"route\":\"audit\""));
        assert!(json.contains("\"to\":\"firing\""));
        let status = monitor.route_status();
        assert_eq!(status.len(), 1);
        assert_eq!(status[0].0, "audit");
        assert_eq!(status[0].1, AlertPhase::Idle, "resolved by the end");
    }

    /// Records one root `server.request` span the way the server does.
    fn request(tel: &Telemetry, tool: &str, outcome: &str, t0: f64, t1: f64) {
        tel.root_context().child().record(
            names::SERVER_REQUEST,
            t0,
            t1,
            &[("tool", tool), ("outcome", outcome)],
        );
    }

    fn refusal(tel: &Telemetry, name: &str, tool: &str, t: f64) {
        tel.root_context().point(name, t, &[("tool", tool)]);
    }

    #[test]
    fn replay_counts_expiries_and_matches_live_observations() {
        // Deadline expiries cost availability, as they do live.
        let tel = Telemetry::enabled();
        for t in 0..4 {
            request(&tel, "audit", "completed", f64::from(t), f64::from(t) + 1.0);
        }
        refusal(&tel, names::SERVER_EXPIRED, "audit", 2.5);
        let rows = replay_trace(tight_config(1), &tel.events(), 5.0);
        let last = &rows.last().unwrap().burn;
        assert_eq!((last.total, last.bad), (5, 1), "the expiry is not ok");
        assert!(last.availability_burn > 0.0);
        assert!(rows.iter().any(|r| r.burn.violated()));

        // One request of each outcome per route replays to the counts a
        // monitor fed the same observations live would hold. The degraded
        // request's latency equals the objective exactly: slow.
        let tel = Telemetry::enabled();
        let live = SloMonitor::new(tight_config(1), Telemetry::disabled());
        for route in ["FC", "TA"] {
            request(&tel, route, "completed", 0.0, 3.0);
            live.observe_request(route, 3.0, Some(3.0), true, None);
            request(&tel, route, "degraded", 1.0, 11.0);
            live.observe_request(route, 11.0, Some(10.0), true, None);
            for (name, t) in [
                (names::SERVER_SHED, 4.0),
                (names::SERVER_FAILED, 5.0),
                (names::SERVER_EXPIRED, 6.0),
            ] {
                refusal(&tel, name, route, t);
                live.observe_request(route, t, None, false, None);
            }
        }
        let rows = replay_trace(tight_config(1), &tel.events(), 15.0);
        let end = rows.last().unwrap().at_secs;
        let finals: Vec<&ReplayWindow> = rows.iter().filter(|r| r.at_secs == end).collect();
        assert_eq!(finals.len(), 2);
        for row in finals {
            assert_eq!(row.burn, live.window(&row.route, end, 15.0));
            assert_eq!((row.burn.total, row.burn.bad, row.burn.slow), (5, 3, 1));
        }
    }

    #[test]
    fn replay_windows_count_offered_and_burn() {
        let tel = Telemetry::enabled();
        request(&tel, "TA", "completed", 0.0, 10.0);
        request(&tel, "TA", "completed", 5.0, 15.0);
        refusal(&tel, names::SERVER_SHED, "TA", 12.0);
        let config = MonitorConfig {
            bucket_secs: 20.0,
            latency_objective_secs: 5.0,
            ..tight_config(1)
        };
        let rows = replay_trace(config, &tel.events(), 20.0);
        assert_eq!(rows.len(), 1);
        let w = &rows[0].burn;
        assert_eq!((w.total, w.bad, w.slow), (3, 1, 2));
        assert!((w.availability_burn - (1.0 / 3.0) / 0.01).abs() < 1e-9);
        assert!((w.latency_burn - (2.0 / 3.0) / 0.05).abs() < 1e-9);
        assert!(w.violated());
    }

    #[test]
    fn replay_on_healthy_trace_passes() {
        let tel = Telemetry::enabled();
        request(&tel, "TA", "completed", 0.0, 10.0);
        let config = MonitorConfig {
            bucket_secs: 60.0,
            latency_objective_secs: 30.0,
            ..tight_config(1)
        };
        let rows = replay_trace(config, &tel.events(), 120.0);
        assert_eq!(rows.len(), 1);
        assert!(rows.iter().all(|r| !r.burn.violated()));
    }

    #[test]
    fn replay_windows_slide_by_step() {
        let tel = Telemetry::enabled();
        request(&tel, "TA", "completed", 0.0, 10.0);
        request(&tel, "TA", "completed", 140.0, 150.0);
        request(&tel, "TA", "completed", 140.0, 170.0);
        let config = MonitorConfig {
            bucket_secs: 60.0,
            ..tight_config(1)
        };
        let rows = replay_trace(config, &tel.events(), 120.0);
        // Boundaries 60, 120, 180 cover [-60, 60), [0, 120), [60, 180).
        let seen: Vec<(f64, u64)> = rows.iter().map(|r| (r.at_secs, r.burn.total)).collect();
        assert_eq!(seen, [(60.0, 1), (120.0, 1), (180.0, 2)]);
    }

    #[test]
    fn empty_windows_are_healthy() {
        let tel = Telemetry::enabled();
        let monitor = SloMonitor::new(tight_config(1), tel);
        monitor.observe_request("audit", 1.0, Some(1.0), true, None);
        for t in 0..50 {
            assert!(monitor.tick(f64::from(t)).is_empty());
        }
        assert_eq!(monitor.counts().pending, 0);
    }
}
