//! Fault-tolerant serving tier for the metric-dbscan engine (PR 6).
//!
//! The paper's index economics — pay `t_dis` once to build the
//! Algorithm-1 net, then answer every `(ε, MinPts)` cheaply — only
//! matter operationally if the process *holding* the net survives the
//! things processes actually die of: panicking user metrics, stalled
//! peers, overload, and crashes mid-save. This crate is that survival
//! layer, std-only (`std::net`, no crates.io):
//!
//! * [`Server`] — a TCP listener + bounded admission queue + worker
//!   pool over one shared [`mdbscan_core::MetricDbscan`], with
//!   per-connection read/write deadlines, per-request panic isolation
//!   (`catch_unwind` → typed [`Response::Internal`]), load shedding
//!   (typed [`Response::Overloaded`]`{retry_after_ms}`), and a
//!   supervisor that resurrects dead workers.
//! * [`Client`] — a typed client with deterministic seeded
//!   retry/backoff (full jitter, retrying only transport errors and
//!   sheds).
//! * [`protocol`] — the length-prefixed binary wire format, specified
//!   field-by-field in the module docs. Floats travel as IEEE-754
//!   bits, so served labels are **byte-identical** to in-process
//!   calls.
//! * [`FaultPlan`] / [`PanicMetric`] — a seeded, deterministic
//!   fault-injection harness: which save gets torn at which byte,
//!   which connection drops or stalls, which query's metric detonates.
//!   Drives `tests/fault_injection.rs`.
//! * **Observability** — every server counter lives in an
//!   [`mdbscan_obs::Registry`] (shareable with the engine's
//!   [`mdbscan_core::MetricsRecorder`] via
//!   [`Server::spawn_with_registry`]), plus request-latency and
//!   queue-wait histograms. Scrape it via the `Metrics` wire op
//!   ([`Client::metrics`]), [`Server::metrics_exposition`]
//!   (Prometheus-style plaintext), or a hand-rolled HTTP responder
//!   ([`Server::serve_metrics_http`], `GET /metrics`). The `Stats` op
//!   additionally reports p50/p99 summaries of both histograms.
//!   Instrumentation is read-only with respect to clustering output:
//!   served labels stay byte-identical whether or not anything is
//!   recording.
//!
//! # Failure-mode contract (what "fault-tolerant" means here)
//!
//! | fault | response |
//! |-------|----------|
//! | request panics (user metric, solver bug) | worker catches it, answers typed `Internal`, keeps serving |
//! | panic escapes the guard (test-ops `CrashWorker`) | worker dies, supervisor respawns it; the pool never shrinks permanently |
//! | peer stalls or vanishes | read/write deadlines bound the cost to one timeout per worker |
//! | more connections than the queue holds | shed at admission with `Overloaded{retry_after_ms}` — never unbounded latency |
//! | crash mid-save | never observable: saves are atomic (temp + `sync_all` + rename), the previous checkpoint survives intact |
//! | newest checkpoint corrupted externally | `MetricDbscan::load_latest` falls back to the last good numbered checkpoint |
//! | ingest panics mid-mutation | writer is quarantined ([`mdbscan_core::DbscanError::Poisoned`]); queries keep serving the last published epoch |
//!
//! Under all of the above, a client with retries enabled eventually
//! receives either a correct reply or a typed error — never a hang,
//! never wrong labels.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod client;
mod fault;
pub mod protocol;
mod server;

pub use client::{Client, ClientError, RetryPolicy};
pub use fault::{ConnFault, FaultPlan, PanicMetric, PanicSwitch, SaveFault};
pub use mdbscan_obs::{MetricsHttpServer, Registry, RegistrySnapshot};
pub use protocol::{QueryReply, Request, Response, Solver, WireIngestReport, WireStats, MAX_FRAME};
pub use server::{ServeConfig, Server};
