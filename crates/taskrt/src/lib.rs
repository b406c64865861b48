//! # fftx-taskrt
//!
//! A task-based runtime in the style of OmpSs/Nanos++: tasks declare
//! `in`/`out`/`inout` dependencies on data regions, the runtime builds the
//! dependency graph dynamically and dispatches ready tasks by priority
//! (ties in creation order) onto a worker-thread pool. This is the
//! programming-model substrate for the two optimisation strategies of the
//! paper (task-per-step with flow dependencies, and task-per-FFT with
//! independent tasks).
//!
//! * [`handle::Shared`] — a data region on a `std::sync::RwLock` whose
//!   guards verify the reader/writer discipline (wrong dependency
//!   annotations panic instead of racing); the crate has no `unsafe`;
//! * [`runtime::Runtime`] — the scheduler: `spawn`, `taskloop`, `taskwait`.
//!   It takes its lock once per submitted [`TaskGraph`] and once per
//!   finished task (finish, release and pick together), and wakes a
//!   worker only if one is parked;
//! * [`graph::TaskGraph`] — a batch of tasks over abstract dependency
//!   slots, submitted in one call.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod error;
pub mod graph;
pub mod handle;
pub mod runtime;

pub use error::TaskError;
pub use graph::{SlotArena, TaskGraph};
pub use handle::{Access, Dep, Handle, Shared};
pub use runtime::{parallel_map, RetryPolicy, Runtime, RuntimeBuilder};
