//! Helper for stamping compute bursts into the trace from the real
//! execution engines.

use fftx_trace::{ComputeRecord, Lane, StageRecord, StateClass, TraceSink, WallClock};

/// Nominal clock used to convert real durations into "cycles" for the trace
/// counters (KNL's 1.4 GHz). Only the *consistency* matters: IPC values on
/// real traces are indicative, the calibrated IPC story lives in the KNL
/// simulator.
pub(crate) const NOMINAL_HZ: f64 = 1.4e9;

/// Records compute bursts for one lane.
#[derive(Clone)]
pub struct Recorder {
    sink: Option<TraceSink>,
    clock: WallClock,
    rank: usize,
}

impl Recorder {
    /// A recorder for `rank`, stamping with `clock` into `sink`.
    pub fn new(sink: Option<TraceSink>, clock: WallClock, rank: usize) -> Self {
        Recorder { sink, clock, rank }
    }

    /// Current time.
    pub fn now(&self) -> f64 {
        self.clock.now()
    }

    /// Runs `f`, recording it as a compute burst of `class` with the given
    /// flop estimate. The thread index is taken from the lane context set by
    /// the task runtime (0 on plain MPI ranks).
    pub fn compute<R>(&self, class: StateClass, flops: f64, f: impl FnOnce() -> R) -> R {
        let t0 = self.clock.now();
        let out = f();
        let t1 = self.clock.now();
        if let Some(sink) = &self.sink {
            sink.compute(ComputeRecord {
                lane: Lane::new(self.rank, fftx_trace::current_thread()),
                class,
                t_start: t0,
                t_end: t1,
                instructions: flops,
                cycles: (t1 - t0) * NOMINAL_HZ,
            });
        }
        out
    }

    /// Runs `f`, recording it as a span of stage-graph node `stage` on band
    /// `band`. The span covers everything inside `f` — the stage's compute
    /// bursts and any communication — so per-stage histograms see the
    /// stage's full cost regardless of which scheduler policy executed it.
    pub fn stage<R>(&self, stage: u32, band: usize, f: impl FnOnce() -> R) -> R {
        let t0 = self.clock.now();
        let out = f();
        let t1 = self.clock.now();
        if let Some(sink) = &self.sink {
            sink.stage(StageRecord {
                lane: Lane::new(self.rank, fftx_trace::current_thread()),
                stage,
                band: band as u32,
                t_start: t0,
                t_end: t1,
            });
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_burst_with_counters() {
        let sink = TraceSink::new();
        let rec = Recorder::new(Some(sink.clone()), WallClock::new(), 5);
        let out = rec.compute(StateClass::Vofr, 1234.0, || 7);
        assert_eq!(out, 7);
        let t = sink.finish();
        assert_eq!(t.compute.len(), 1);
        assert_eq!(t.compute[0].lane.rank, 5);
        assert_eq!(t.compute[0].class, StateClass::Vofr);
        assert_eq!(t.compute[0].instructions, 1234.0);
        assert!(t.compute[0].t_end >= t.compute[0].t_start);
    }

    #[test]
    fn no_sink_is_a_passthrough() {
        let rec = Recorder::new(None, WallClock::new(), 0);
        assert_eq!(rec.compute(StateClass::Pack, 0.0, || 42), 42);
        assert_eq!(rec.stage(3, 1, || 42), 42);
    }

    #[test]
    fn records_stage_span_enclosing_compute() {
        let sink = TraceSink::new();
        let rec = Recorder::new(Some(sink.clone()), WallClock::new(), 2);
        let out = rec.stage(7, 4, || rec.compute(StateClass::FftZ, 10.0, || 1));
        assert_eq!(out, 1);
        let t = sink.finish();
        assert_eq!(t.stages.len(), 1);
        let s = t.stages[0];
        assert_eq!((s.stage, s.band, s.lane.rank), (7, 4, 2));
        assert!(s.t_start <= t.compute[0].t_start && s.t_end >= t.compute[0].t_end);
    }
}
