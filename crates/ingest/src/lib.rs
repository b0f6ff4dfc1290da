//! Network-native log ingestion for the web workload pipeline.
//!
//! This crate turns the file-oriented streaming stack into a live log
//! service: concurrent network sources (a syslog-style TCP line
//! protocol and HTTP POST batches) are merged into one time-ordered
//! record stream and pulled by the existing `StreamAnalyzer` under the
//! crash-safe supervisor — retry, checkpoint/resume, drift detection
//! and diagnostics all work unchanged on wire input.
//!
//! The layers, bottom to top:
//!
//! * [`merge`] — [`merge::WatermarkMerger`], the deterministic k-way
//!   merge core. Generalizes `weblog::merge::merge_sorted` from static
//!   sorted slices to live per-source buffers: each source carries its
//!   own watermark, a bounded reorder window tolerates mild
//!   cross-batch jitter, and anything later than that is counted (late
//!   / duplicate / stall-late), never dropped silently.
//! * [`hub`] — [`hub::IngestHub`], the concurrency shell around the
//!   merger: per-source bounded queues with blocking backpressure
//!   (slow the socket, never shed), stall grace for idle sources,
//!   end-of-stream detection, and the `ingest/*` gauge/counter surface
//!   on `/metrics`.
//! * [`conn`] — per-connection protocol handling. Sniffs HTTP vs raw
//!   lines on the first bytes, parses CLF on the connection thread,
//!   and pushes batches into the hub. Torn writes, oversized lines and
//!   malformed records are counted per kind.
//! * [`listener`] — the accept loop: connection cap, per-connection
//!   threads, clean shutdown.
//! * [`source`] — [`source::NetSource`], the `Source` +
//!   `RecoverableSource` adapter the supervisor pulls from.
//!
//! Wire clients live in the bench crate: the stream runtime runs the
//! whole stack as a daemon under `stream-analyze --listen HOST:PORT`
//! (or its alias `stream-serve`, which listens by default), and
//! `replay` pushes a log file over the wire with configurable speed,
//! connection fan-out and chunking.

pub mod conn;
pub mod hub;
pub mod listener;
pub mod merge;
pub mod source;

pub use conn::ConnConfig;
pub use hub::{BreakerConfig, HubConfig, HubStats, IngestHub, Priority, SourceHandle};
pub use listener::{bind, IngestListener};
pub use merge::{PushOutcome, WatermarkMerger};
pub use source::NetSource;
