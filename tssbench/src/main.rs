//! Command line of the benchmark:
//!
//! ```text
//! tssbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]
//! ```
//!
//! Prints run context on `info:` lines and, as the last line of standard
//! output, one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`. Exits nonzero without a result line on any error. The binary
//! doubles as the worker process of `sharded-indep` when started with
//! `--tss-worker`.

#![forbid(unsafe_code)]

use std::process::ExitCode;
use tss_core::WorkerSpec;
use tssbench::{RunConfig, Size, Workload};

/// The sentinel first argument that turns this binary into a worker.
const WORKER_FLAG: &str = "--tss-worker";

fn usage() -> String {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    format!(
        "usage: tssbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--smoke]",
        names.join("|")
    )
}

fn parse(args: &[String]) -> Result<RunConfig, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut size = Size::Full;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            size = Size::Smoke;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(0.0..=3600.0).contains(&s) {
                    return Err(format!("--seconds {s} is out of range"));
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    let worker = WorkerSpec::current_exe([WORKER_FLAG])
        .map_err(|e| format!("locating this executable: {e}"))?;
    Ok(RunConfig {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        size,
        worker,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some(WORKER_FLAG) {
        return match tss_core::ipc::serve_builtin() {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("tssbench worker: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let cfg = match parse(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("tssbench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    match tssbench::run(&cfg) {
        Ok(report) => {
            for (k, v) in &report.info {
                println!("info: {k}={v}");
            }
            println!("{}", report.json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("tssbench: {e}");
            ExitCode::FAILURE
        }
    }
}
