//! # fftx-trace
//!
//! Performance-trace substrate for the FFTXlib-on-KNL reproduction — the
//! role Extrae (recording), Paraver (timelines/histograms) and the POP
//! efficiency model play in the paper:
//!
//! * [`event`] — record types: compute bursts with instruction/cycle
//!   counters, MPI calls with communicator/byte info, task lifecycles;
//! * [`columnar`] — the single columnar [`EventLog`] store behind every
//!   producer (self-describing binary encoding);
//! * [`query`] — offline aggregation over the log (per-stage and
//!   per-class rollups, group-bys, weighted time windows, the CSV
//!   summary);
//! * [`trace`] — the trace container and the thread-safe [`TraceSink`],
//!   the one collector every producer records through;
//! * [`pop`] — the multiplicative efficiency model of Tables I and II;
//! * [`timeline`] — ASCII/CSV timelines (Fig. 3, Fig. 7 left);
//! * [`histogram`] — IPC × duration histograms (Fig. 7 right);
//! * [`metrics`] — service-level metrics for the job-serving subsystem
//!   (exact latency quantiles, queue-depth series, labelled counters);
//! * [`table`] — paper-style table and bar-chart rendering;
//! * [`paraver`] — export to the actual Paraver `.prv`/`.pcf`/`.row` format
//!   so traces open in the BSC tool the paper used.

#![warn(missing_docs)]
#![allow(clippy::module_inception)]

pub mod columnar;
pub mod error;
pub mod event;
pub mod lane_ctx;
pub mod histogram;
pub mod query;
pub mod metrics;
pub mod paraver;
pub mod pop;
pub mod stage;
pub mod table;
pub mod timeline;
pub mod trace;

pub use columnar::EventLog;
pub use error::TraceError;
pub use lane_ctx::{current_thread, set_current_thread};
pub use event::{CommOp, CommRecord, ComputeRecord, Lane, StateClass, TaskRecord};
pub use histogram::IpcHistogram;
pub use metrics::{CounterSet, DepthSeries, Quantiles, StateTimeline};
pub use stage::{stage_profile, StageHistogram, StageRecord};
pub use paraver::{export_paraver, phase_profile, ParaverBundle};
pub use pop::{efficiency_factors, intra_factors, scalability_factors, EfficiencyFactors};
pub use table::{pct, render_bar_chart, render_efficiency_table, render_runtime_table};
pub use timeline::{communicator_summary, render_timeline, timeline_csv, TimelineOptions};
pub use trace::{Trace, TraceSink, WallClock};
