//! `fftx-wallbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints human-readable notes, then one JSON result line. A traced run
//! also writes its spans to `wallbench/out/`.

use fftx_wallbench::{run, Budget, Workload};
use std::process::ExitCode;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 0, 10.0, false);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(0.0..=3600.0).contains(&seconds) {
                    return Err(format!("seconds out of range: {value}"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload =
        workload.ok_or("--workload is required (dense-slab, sparse-async, fleet-replay)")?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("fftx-wallbench: {e}");
            return ExitCode::from(2);
        }
    };
    let report = match run(
        args.workload,
        args.seed,
        &Budget::for_seconds(args.seconds),
        args.trace,
    ) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("fftx-wallbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    for note in &report.notes {
        println!("{note}");
    }
    if let Some(spans) = &report.spans {
        let dir = std::path::Path::new("wallbench/out");
        let path = dir.join(format!("spans-{}-{}.tsv", args.workload.name(), args.seed));
        match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, spans.to_tsv())) {
            Ok(()) => println!(
                "spans: {} written to {}",
                spans.spans().len(),
                path.display()
            ),
            Err(e) => eprintln!("fftx-wallbench: cannot write {}: {e}", path.display()),
        }
    }
    println!("{}", report.to_json());
    ExitCode::SUCCESS
}
