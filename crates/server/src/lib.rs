//! Deterministic concurrent audit-service simulation.
//!
//! The paper's Table II times each tool answering *one* client; the
//! ROADMAP north star is a service answering heavy traffic from millions
//! of users. This crate adds the serving layer between those two points:
//! a discrete-event simulator that runs the existing
//! [`OnlineService`](fakeaudit_analytics::OnlineService) path under
//! offered load and measures what a single-request benchmark cannot —
//! queue waits, worker contention, and what breaks first when a flash
//! crowd hits ("Followers or Phantoms?" documents exactly such bursts of
//! purchased-follower curiosity).
//!
//! * [`event`] — the min-heap of events with **total** `(time, sequence)`
//!   ordering; the reason same-seed runs are byte-identical;
//! * [`queue`] — bounded FIFO admission control with three overload
//!   policies: block (park in an overflow lane), shed (503), or
//!   degrade-to-stale-cache;
//! * [`workload`] — open-loop load generation: Poisson / diurnal /
//!   flash-crowd arrivals by Lewis–Shedler thinning, Zipf-distributed
//!   target popularity, uniform tool choice — all from one seeded stream;
//! * [`sim`] — the [`ServerSim`] event loop over per-tool worker pools,
//!   producing a [`ServerReport`] of per-request records and percentiles;
//! * [`close`] — [`RequestSink::close`], the one path every finished
//!   request takes in the simulator and in the gateway: `server.*` trace
//!   and metrics, per-tool tallies, history row.
//!
//! The simulation itself is single-threaded — determinism comes free.
//! Parallelism belongs one level up, in
//! `fakeaudit_core::experiments::service_load`, where independent sweep
//! points (one offered-load × overload-policy cell each) fan out across
//! OS threads with their own cloned backends.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod close;
pub mod event;
pub mod persist;
pub mod queue;
pub mod sim;
pub mod workload;

pub use close::{Answer, RequestSink};
pub use event::EventHeap;
pub use persist::{flush_writer, writer_health};
pub use queue::{Admission, AdmissionQueue, OverloadPolicy};
pub use sim::{
    AuditBackend, RequestOutcome, RequestRecord, ServerConfig, ServerReport, ServerSim, ToolSummary,
};
pub use workload::{generate, ArrivalProcess, LoadSpec, Request};
