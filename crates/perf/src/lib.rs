//! Performance instrumentation for the FusedMM benchmark harness.
//!
//! * [`memtrack`] — a counting global allocator measuring live and peak
//!   heap bytes, used to regenerate the memory-consumption experiment
//!   (paper Fig. 10b) and to enforce the harness's out-of-memory policy
//!   (the `×` entries of Table VI);
//! * [`timer`] — repetition timing helpers ("we measure the time for 10
//!   iterations and report the average time", §V-A);
//! * [`stream`] — a STREAM-triad memory bandwidth measurement, the roof
//!   of the paper's roofline plot (Fig. 7, "The STREAM bandwidth on
//!   this server is 100 GB/s");
//! * [`roofline`] — Eq. 4's arithmetic-intensity model and the
//!   attainable-GFLOP/s bound;
//! * [`flops`] — floating-point-operation counts per kernel pattern;
//! * [`hist`] — a lock-free log-bucketed latency histogram (p50/p99 and
//!   throughput for the serving engine);
//! * [`gauge`] — a concurrent up/down counter with a high-water mark
//!   (in-flight request accounting for the non-blocking serving path);
//! * [`registry`] — a pull-model [`MetricsRegistry`] that enumerates
//!   every engine/shard/cache/kernel metric as labeled samples and
//!   exports Prometheus text format and JSON;
//! * [`trace`] — sampled request-lifecycle tracing into per-thread
//!   lock-free span rings, dumpable as chrome://tracing JSON.

#![deny(unsafe_op_in_unsafe_fn)]
#![warn(clippy::undocumented_unsafe_blocks)]

pub mod flops;
pub mod gauge;
pub mod hist;
pub mod memtrack;
pub mod registry;
pub mod roofline;
pub mod stream;
pub mod timer;
pub mod trace;

pub use gauge::{Gauge, GaugeGuard, GaugeSnapshot};
pub use hist::{HistogramSnapshot, HistogramVec, LatencyHistogram, RatioHistogram, RatioSnapshot};
pub use memtrack::CountingAllocator;
pub use registry::{parse_prometheus, MetricValue, MetricsRegistry, MetricsSnapshot, Sample};
pub use roofline::{arithmetic_intensity, attainable_gflops};
pub use timer::{time_iterations, TimingStats};
pub use trace::{SpanCtx, SpanKind, SpanRecord, Tracer};
