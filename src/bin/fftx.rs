//! `fftx` — the miniapp driver, mirroring FFTXlib's own benchmark CLI.
//!
//! ```text
//! fftx [--ecutwfc RY] [--alat BOHR] [--nbnd N] [--nr R] [--ntg T]
//!      [--mode original|steps|ffts|async|hybrid] [--engine real|model]
//!      [--seed S] [--verify] [--timeline] [--metrics]
//! ```
//!
//! `--engine real` executes the kernel on virtual MPI ranks with actual FFT
//! math (laptop-scale; use small cutoffs). `--engine model` runs the same
//! kernel on the calibrated KNL-node simulator (any of the paper's
//! configurations in milliseconds). The default scheduler policy can also
//! be selected with the `FFTX_SCHEDULER` environment variable
//! (`serial|step|fft|async|hybrid`); an explicit `--mode` wins.

use fftxlib_repro::core::{
    load_env, resolve_decomp, run_modeled, run_policy, valid_decomps, valid_policies,
    DecompChoice, FftxConfig, Problem, SchedulerPolicy,
};
use fftxlib_repro::fft::max_dist;
use fftxlib_repro::pw::apply_vloc;
use fftxlib_repro::trace::{
    export_paraver, intra_factors, phase_profile, render_timeline, EventLog, StateClass,
    TimelineOptions, Trace,
};
use std::process::ExitCode;

struct Args {
    config: FftxConfig,
    engine: Engine,
    verify: bool,
    timeline: bool,
    metrics: bool,
    paraver: Option<String>,
    trace_out: Option<String>,
    trace_dump: Option<String>,
}

#[derive(PartialEq, Clone, Copy)]
enum Engine {
    Real,
    Model,
}

const USAGE: &str = "usage: fftx [options]
  --ecutwfc RY     plane-wave cutoff in Ry        (default 6.0 real / 80.0 model)
  --alat BOHR      cubic lattice parameter        (default 8.0 real / 20.0 model)
  --nbnd N         number of bands                (default 2*ntg real / 128 model)
  --nr R           first parallel dimension       (default 2)
  --ntg T          task groups / worker threads   (default 2 real / 8 model)
  --mode M         original | steps | ffts | async | hybrid
                   (default original, or the FFTX_SCHEDULER env policy)
  --decomp D       slab | pencil | auto           (default slab, or the
                   FFTX_DECOMP env choice; auto asks the network model)
  --engine E       real | model                   (default real)
  --seed S         workload seed                  (default 42)
  --verify         check against the serial reference (real engine only)
  --timeline       print an ASCII timeline of the run
  --metrics        print the POP efficiency factors
  --paraver PREFIX write PREFIX.prv/.pcf/.row (opens in BSC Paraver)
  --trace-out FILE write the run's event log as a binary columnar trace
  --trace-dump FILE decode a binary trace and print its summary CSV (no run)
  --help           this text";

fn parse_args() -> Result<Args, String> {
    let mut ecutwfc: Option<f64> = None;
    let mut alat: Option<f64> = None;
    let mut nbnd: Option<usize> = None;
    let mut nr = 2usize;
    let mut ntg: Option<usize> = None;
    // FFTX_SCHEDULER picks the default policy; an explicit --mode wins.
    // The typed loader rejects malformed knobs instead of ignoring them.
    let knobs = load_env().map_err(|e| e.to_string())?;
    let mut mode = knobs.scheduler.unwrap_or(SchedulerPolicy::Serial);
    // FFTX_DECOMP picks the default decomposition; an explicit --decomp wins.
    let mut decomp = knobs.decomp.unwrap_or(DecompChoice::Slab);
    let mut engine = Engine::Real;
    let mut seed = 42u64;
    let mut verify = false;
    let mut timeline = false;
    let mut metrics = false;
    let mut paraver = None;
    let mut trace_out = None;
    let mut trace_dump = None;

    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut val = |name: &str| -> Result<String, String> {
            it.next().ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--ecutwfc" => ecutwfc = Some(val("--ecutwfc")?.parse().map_err(|e| format!("{e}"))?),
            "--alat" => alat = Some(val("--alat")?.parse().map_err(|e| format!("{e}"))?),
            "--nbnd" => nbnd = Some(val("--nbnd")?.parse().map_err(|e| format!("{e}"))?),
            "--nr" => nr = val("--nr")?.parse().map_err(|e| format!("{e}"))?,
            "--ntg" => ntg = Some(val("--ntg")?.parse().map_err(|e| format!("{e}"))?),
            "--seed" => seed = val("--seed")?.parse().map_err(|e| format!("{e}"))?,
            "--mode" => {
                let m = val("--mode")?;
                mode = SchedulerPolicy::parse(&m).ok_or_else(|| {
                    format!("unknown mode '{m}' (valid policies: {})", valid_policies())
                })?;
            }
            "--decomp" => {
                let d = val("--decomp")?;
                decomp = DecompChoice::parse(&d).ok_or_else(|| {
                    format!("unknown decomposition '{d}' (valid: {})", valid_decomps())
                })?;
            }
            "--engine" => {
                engine = match val("--engine")?.as_str() {
                    "real" => Engine::Real,
                    "model" => Engine::Model,
                    e => return Err(format!("unknown engine '{e}'")),
                }
            }
            "--paraver" => paraver = Some(val("--paraver")?),
            "--trace-out" => trace_out = Some(val("--trace-out")?),
            "--trace-dump" => trace_dump = Some(val("--trace-dump")?),
            "--verify" => verify = true,
            "--timeline" => timeline = true,
            "--metrics" => metrics = true,
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument '{other}'")),
        }
    }

    let model = engine == Engine::Model;
    let ntg = ntg.unwrap_or(if model { 8 } else { 2 });
    let mut config = FftxConfig {
        ecutwfc: ecutwfc.unwrap_or(if model { 80.0 } else { 6.0 }),
        alat: alat.unwrap_or(if model { 20.0 } else { 8.0 }),
        nbnd: nbnd.unwrap_or(if model { 128 } else { 2 * ntg }),
        nr,
        ntg,
        mode,
        decomp: fftxlib_repro::core::Decomposition::Slab,
        seed,
    };
    // `auto` compares the two decompositions on the calibrated network
    // model for this exact geometry; fixed choices pass through.
    config.decomp = resolve_decomp(decomp, &config);
    Ok(Args {
        config,
        engine,
        verify,
        timeline,
        metrics,
        paraver,
        trace_out,
        trace_dump,
    })
}

fn print_header(config: &FftxConfig, problem: &Problem, engine: Engine) {
    let grid = problem.grid();
    println!("fftx — FFTXlib reproduction miniapp");
    println!("  engine : {}", if engine == Engine::Real { "real (virtual MPI + actual FFTs)" } else { "modeled KNL node (68 cores @ 1.4 GHz)" });
    println!("  mode   : {}", config.mode.label());
    println!("  decomp : {}", config.decomp.name());
    println!("  cell   : cubic, alat {} bohr; ecutwfc {} Ry", config.alat, config.ecutwfc);
    println!("  grid   : {} x {} x {} ({} points)", grid.nr1, grid.nr2, grid.nr3, grid.volume());
    println!(
        "  sphere : {} plane waves on {} sticks",
        problem.layout.set.ngw,
        problem.layout.set.nst()
    );
    println!(
        "  layout : {} = {} x {} (R x T), {} bands, {} iterations",
        config.label(),
        config.nr,
        config.ntg,
        config.nbnd,
        config.iterations()
    );
}

fn print_trace_extras(trace: &Trace, runtime: f64, ideal: Option<f64>, args: &Args) {
    if let Some(path) = &args.trace_out {
        let bytes = EventLog::from_trace(trace).encode();
        if let Err(e) = std::fs::write(path, &bytes) {
            eprintln!("error writing {path}: {e}");
        } else {
            println!("[written] {path} ({} bytes, columnar event log)", bytes.len());
        }
    }
    if let Some(prefix) = &args.paraver {
        let bundle = export_paraver(trace);
        for (ext, content) in [("prv", &bundle.prv), ("pcf", &bundle.pcf), ("row", &bundle.row)] {
            let path = format!("{prefix}.{ext}");
            if let Err(e) = std::fs::write(&path, content) {
                eprintln!("error writing {path}: {e}");
            } else {
                println!("[written] {path}");
            }
        }
    }
    if args.metrics {
        println!("
Per-phase profile:");
        for (class, total, count, ipc) in phase_profile(trace) {
            println!(
                "  {:<9} {:>9.4}s over {:>5} bursts, IPC {:.2}",
                class.name(),
                total,
                count,
                ipc
            );
        }
        let f = intra_factors(trace, Some(runtime), ideal);
        println!("\nPOP efficiency factors:");
        println!("  parallel efficiency      {:6.2} %", f.parallel_efficiency * 100.0);
        println!("  -> load balance          {:6.2} %", f.load_balance * 100.0);
        println!("  -> communication eff.    {:6.2} %", f.comm_efficiency * 100.0);
        if let (Some(s), Some(t)) = (f.sync, f.transfer) {
            println!("     -> synchronization    {:6.2} %", s * 100.0);
            println!("     -> transfer           {:6.2} %", t * 100.0);
        }
        println!("  main-phase IPC           {:6.3}", trace.mean_ipc(StateClass::FftXy));
    }
    if args.timeline {
        println!("\nTimeline:");
        let tl = render_timeline(trace, &TimelineOptions { width: 100, ..Default::default() });
        for (i, line) in tl.lines().enumerate() {
            if i <= 18 || line.starts_with("legend") {
                println!("{line}");
            } else if i == 19 {
                println!("  ... (more lanes)");
            }
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            if !e.is_empty() {
                eprintln!("error: {e}\n");
            }
            eprintln!("{USAGE}");
            return if e.is_empty() { ExitCode::SUCCESS } else { ExitCode::from(2) };
        }
    };
    // --trace-dump is a standalone decoder: read, validate, summarize, exit.
    if let Some(path) = &args.trace_dump {
        let bytes = match std::fs::read(path) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("error reading {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        match EventLog::decode(&bytes)
            .map(|log| fftxlib_repro::trace::query::summary_csv(log.trace()))
        {
            Ok(summary) => {
                print!("{summary}");
                return ExitCode::SUCCESS;
            }
            Err(e) => {
                eprintln!("error decoding {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    args.config.validate();
    let problem = Problem::new(args.config);
    print_header(&args.config, &problem, args.engine);

    match args.engine {
        Engine::Real => {
            let out = run_policy(&problem, args.config.mode);
            println!("\nFFT phase wall time: {:.4} s", out.fft_phase_s);
            if args.verify {
                let bands: Vec<Vec<_>> =
                    (0..args.config.nbnd).map(|b| problem.band(b)).collect();
                let expect = apply_vloc(&problem.layout.set, &problem.grid(), &problem.v, &bands);
                let worst = out
                    .bands
                    .iter()
                    .zip(&expect)
                    .map(|(a, b)| max_dist(a, b))
                    .fold(0.0_f64, f64::max);
                println!("verification vs serial reference: max deviation {worst:.3e}");
                if worst > 1e-9 {
                    eprintln!("VERIFICATION FAILED");
                    return ExitCode::FAILURE;
                }
                println!("verification OK");
            }
            print_trace_extras(&out.trace, out.fft_phase_s, None, &args);
        }
        Engine::Model => {
            if args.verify {
                eprintln!("note: --verify applies to the real engine only; ignoring");
            }
            let run = run_modeled(args.config);
            println!("\nsimulated FFT phase: {:.4} s (ideal network: {:.4} s)", run.runtime, run.ideal_runtime);
            print_trace_extras(&run.trace, run.runtime, Some(run.ideal_runtime), &args);
        }
    }
    ExitCode::SUCCESS
}
