//! Golden telemetry-path test: every exporter must produce byte-identical
//! output whether it reads the live `Trace` or a trace that took the full
//! columnar round trip (`EventLog::from_trace` → `encode` → `decode` →
//! `trace`). This is the contract that lets the bench bins, the paraver
//! exporter and the POP metrics all become thin queries over one log
//! without perturbing a single committed artifact.

use fftx_core::{run_modeled, FftxConfig, SchedulerPolicy};
use fftx_trace::columnar::EventLog;
use fftx_trace::{
    export_paraver, intra_factors, phase_profile, timeline_csv, IpcHistogram, StateClass, Trace,
};

fn round_trip(trace: &Trace) -> Trace {
    let log = EventLog::from_trace(trace);
    let bytes = log.encode();
    let decoded = EventLog::decode(&bytes).expect("decode");
    assert_eq!(decoded, log, "wire round trip must be lossless");
    decoded.trace().clone()
}

#[test]
fn exporters_are_identical_through_the_columnar_path() {
    // The paper's 8×8 configuration, both code versions.
    for mode in [SchedulerPolicy::Serial, SchedulerPolicy::TaskPerFft] {
        let run = run_modeled(FftxConfig::paper(8, mode));
        let direct = &run.trace;
        let via_log = round_trip(direct);

        // Paraver bundle (fig. 3 / fig. 7 raw material): all three files.
        let a = export_paraver(direct);
        let b = export_paraver(&via_log);
        assert_eq!(a.prv, b.prv, "{mode:?}: .prv differs through the log");
        assert_eq!(a.pcf, b.pcf, "{mode:?}: .pcf differs through the log");
        assert_eq!(a.row, b.row, "{mode:?}: .row differs through the log");

        // POP efficiency factors (table 1/2 raw material).
        let fa = intra_factors(direct, Some(run.runtime), Some(run.ideal_runtime));
        let fb = intra_factors(&via_log, Some(run.runtime), Some(run.ideal_runtime));
        assert_eq!(fa, fb, "{mode:?}: POP factors differ through the log");

        // Phase profile and timeline CSV (fig. 3).
        assert_eq!(
            phase_profile(direct),
            phase_profile(&via_log),
            "{mode:?}: phase profile differs"
        );
        assert_eq!(
            timeline_csv(direct),
            timeline_csv(&via_log),
            "{mode:?}: timeline CSV differs"
        );

        // IPC histogram (fig. 7).
        let ha = IpcHistogram::from_trace(direct, Some(StateClass::FftXy), 40, 0.0, 1.2);
        let hb = IpcHistogram::from_trace(&via_log, Some(StateClass::FftXy), 40, 0.0, 1.2);
        assert_eq!(ha.to_csv(), hb.to_csv(), "{mode:?}: IPC histogram differs");
    }
}

#[test]
fn query_summary_matches_trace_totals() {
    let run = run_modeled(FftxConfig::paper(8, SchedulerPolicy::TaskPerStep));
    let log = EventLog::from_trace(&run.trace);
    let decoded = EventLog::decode(&log.encode()).expect("decode");
    let summary = fftx_trace::query::summary_csv(decoded.trace());
    // The summary must report exactly the stream sizes of the live trace.
    assert!(summary.contains(&format!("stream,compute,{},", run.trace.compute.len())));
    assert!(summary.contains(&format!("stream,comm,{},", run.trace.comm.len())));
    assert!(summary.contains(&format!("stream,task,{},", run.trace.tasks.len())));
}
