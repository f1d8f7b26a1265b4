//! # safecross-telemetry
//!
//! The unified runtime-telemetry substrate for the SafeCross stack.
//!
//! The paper's headline systems claims are *measurements* — sub-10 ms
//! model swaps (Sec. V-C), +50% left-turn throughput (Sec. V-D) — so the
//! reproduction needs an instrumentation layer that every crate can
//! share without pulling in external dependencies. This crate provides
//! one, built only on `std`:
//!
//! - [`Registry`] — a thread-safe, cheaply-cloneable metrics registry.
//!   Handles ([`Counter`], [`Gauge`], [`Histogram`]) are `Arc`-backed:
//!   fetch them once at setup time, update them lock-free on hot paths.
//! - [`Histogram`] — fixed-bucket (powers of two from 1 µs) latency
//!   histograms with exact count/sum/min/max and interpolated
//!   p50/p95/p99.
//! - [`Timer`] — a scoped guard that records elapsed wall time into a
//!   histogram on drop; [`Histogram::start_timer`] makes instrumenting a
//!   stage one line.
//! - a bounded structured [`Event`] journal — ring-buffered, oldest
//!   entries dropped first, with a drop counter so truncation is never
//!   silent.
//! - [`Snapshot`] — a point-in-time export of everything, rendered via
//!   `Display` as a human-readable table or via
//!   [`Snapshot::to_json_lines`] as JSON-lines for machine trajectories.
//!
//! A registry created with [`Registry::disabled`] hands out inert
//! handles: every update is a branch on a creation-time flag, and timers
//! skip the `Instant::now` calls entirely, so uninstrumented runs pay
//! almost nothing. This is how `e2e-bench` measures the instrumentation
//! overhead itself (`telemetry.overhead_share`).
//!
//! ## Example
//!
//! ```
//! use safecross_telemetry::{Registry, Value};
//!
//! let registry = Registry::new();
//! let frames = registry.counter("vp.frames");
//! let latency = registry.histogram("vp.process_ms");
//! for _ in 0..3 {
//!     let _t = latency.start_timer();
//!     frames.inc();
//! }
//! registry.event("run_done", vec![("frames".into(), Value::U64(3))]);
//! let snap = registry.snapshot();
//! assert_eq!(snap.counter("vp.frames"), Some(3));
//! println!("{snap}"); // human table; snap.to_json_lines() for machines
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod journal;
mod metrics;
mod registry;
mod snapshot;

pub use journal::{Event, Value};
pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot, Timer, BUCKETS};
pub use registry::Registry;
pub use snapshot::Snapshot;
