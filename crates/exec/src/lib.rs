//! # rld-exec
//!
//! The tuple-level execution backend: a columnar dataplane that runs the
//! same deployments the discrete-tick simulator models, on real tuples.
//!
//! Where `rld-engine`'s simulator treats "work" as an abstract scalar
//! drained from per-node backlogs, [`ColumnarExecutor`] generates real
//! driving and partner tuples, evaluates every routed logical plan as a
//! fused operator chain over struct-of-arrays
//! [`rld_common::ColumnBatch`]es, and keeps real sliding-window state —
//! sharded across cores via lock-free SPSC rings.
//!
//! Both backends are driven by the same backend-neutral
//! [`rld_engine::RuntimeCore`]: strategy dispatch order, statistics
//! monitoring, Poisson arrivals, plan routing and fault-plan application are
//! literally the same code, so per seed the columnar executor makes
//! **bit-identical policy decisions** (per-batch plan routing, DYN/HYB
//! migrations) to the simulator — the differential oracle in
//! `tests/tests/columnar_oracle.rs` asserts it, fault-free and faulted. What
//! differs is what is *measured*: the executor reports wall-clock per-batch
//! latencies, real observed selectivities from operator input/output
//! counts, and a per-stage timing breakdown.
//!
//! Time is two-scaled: the *experiment timeline* (workload regimes, fault
//! schedules, monitor sampling) advances in virtual ticks exactly as in the
//! simulator, while *performance* (latency, throughput) is measured in wall
//! time. The fault plane's semantics on this dataplane are stated once, in
//! the [`columnar`] module doc.

#![deny(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod columnar;

pub use columnar::{ColumnarConfig, ColumnarExecutor, ExecReport, MonitorSource, StageTimings};
