//! Structured telemetry for the InjectaBLE simulation stack.
//!
//! The paper's contribution is µs-scale timing behaviour — window widening
//! (eq. 5), the injection-point race, and the §VIII detector that keys on
//! inter-frame timing. This crate is the stack's one observability channel:
//! a typed event vocabulary ([`TelemetryEvent`]), a sink abstraction
//! ([`TelemetrySink`]), and three shipping sinks:
//!
//! - [`RingBufferSink`] — a bounded in-memory ring for test assertions;
//! - [`JsonlSink`] — one JSON object per line, for offline analysis and the
//!   `timeline` renderer in the bench crate, written and read through
//!   [`json`], the workspace's one JSON reader and string escaper;
//! - [`MetricsSink`] — counters, gauges and fixed-bucket microsecond
//!   histograms in a [`MetricsRegistry`] (injection lead time, anchor
//!   prediction error, IFS deltas).
//!
//! Telemetry is **zero-cost when disabled**: emit sites take a closure, and
//! the dispatcher ([`Telemetry`]) returns before building the event when no
//! sink is attached. The bench crate's `telemetry` microbenchmark verifies
//! the disabled path is a branch-and-return.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(
    test,
    allow(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::cast_possible_truncation
    )
)]

pub mod delivery;
pub mod event;
pub mod json;
pub mod jsonl;
pub mod metrics;
pub mod ring;
pub mod sink;
pub mod span;

pub use delivery::{DeliveryTotals, DeliveryTracker, PacketDelivery};
pub use event::{AlertKind, FaultKind, LinkRole, LossReason, TelemetryEvent, Verdict};
pub use jsonl::{parse_line, JsonlSink};
pub use metrics::{HistSummary, HistogramUs, MetricsRegistry, MetricsSink, SharedRegistry};
pub use ring::{RingBuffer, RingBufferSink, SharedRing};
pub use sink::{Telemetry, TelemetryRecord, TelemetrySink};
pub use span::{ClosedSpan, SpanId, SpanKind, SpanMetricNames};
