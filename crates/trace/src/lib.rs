//! Deterministic flight recorder and tick-clock alerting for the DUAL
//! pipeline.
//!
//! Wall-clock tracers answer *"how long did this take on my machine"*;
//! DUAL's cost model (Table III of the paper) lets this crate answer
//! the stronger question *"what happened, in what order, and what did
//! it cost on the chip"* — exactly, repeatably, on every thread count.
//! Three pieces:
//!
//! - [`Recorder`] — a bounded ring of tick-stamped [`Event`]s with
//!   causal parent/child span ids. Oldest-first eviction, dense
//!   sequence numbers, and an open-span stack that survives dual-snap
//!   checkpoints, so a restored engine replays the exact event
//!   history.
//! - [`AlertEngine`] — declarative [`AlertRule`]s with hysteresis over
//!   `dual_obs` keys, evaluated on the logical tick clock, recording
//!   deterministic [`Event::Alert`] transitions.
//! - [`chrome_trace`] / [`report_json`] — byte-stable exporters:
//!   a Chrome `trace_event` document for the Perfetto viewer and a
//!   compact report CI byte-diffs across `DUAL_THREADS`.
//!
//! ```
//! use dual_trace::{Cut, Event, Recorder, report_json};
//!
//! let mut rec = Recorder::new(64);
//! let batch = rec.begin(3, Event::BatchBegin { reason: Cut::Size, points: 8 });
//! rec.emit(3, Event::FaultSense { injected: 1, healed: 0 });
//! rec.end(4, batch, Event::BatchEnd { batch: 1, time_ns: 96.4, energy_pj: 1210.0 });
//!
//! assert_eq!(rec.emitted(), 3);
//! let report = report_json(&[("engine", &rec)]);
//! assert_eq!(report, report_json(&[("engine", &rec)])); // byte-stable
//! ```

#![forbid(unsafe_code)]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable
)]
#![warn(missing_docs)]

mod alert;
mod error;
mod event;
mod export;
mod recorder;

pub use alert::{AlertEngine, AlertRule, AlertRuleState, Signal};
pub use error::TraceError;
pub use event::{Cut, Event, EventRecord};
pub use export::{chrome_trace, events_json, report_json};
pub use recorder::{Recorder, RecorderState, SpanId};
