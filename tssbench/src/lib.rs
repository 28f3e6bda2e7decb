//! End-to-end and per-layer benchmark of the TSS workspace.
//!
//! One closed-loop client drives one named workload against the public
//! API of `tss_core` and its crates for a fixed time, checks every answer
//! against [`reference`], and reports end-to-end metrics (untraced runs)
//! or per-layer metrics (traced runs). See `README.md` in this directory
//! for the workloads, the metrics and reference figures.

#![forbid(unsafe_code)]

pub mod reference;
pub mod stats;
pub mod trace;
mod workloads;

use std::time::Instant;
use tss_core::WorkerSpec;

/// The seed the README's reference figures were measured on.
pub const DEFAULT_SEED: u64 = 1;
/// The second seed the benchmark's own tests run, unseen while tuning.
pub const SECOND_SEED: u64 = 2;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// sTSS over anti-correlated data at the paper's static shape.
    StaticAnti,
    /// dTSS through one query session over independent data.
    DynamicIndep,
    /// Count-window streaming maintenance over anti-correlated arrivals.
    StreamAnti,
    /// dynamic-indep's queries split by the planner and run on worker
    /// processes.
    ShardedIndep,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 4] = [
        Workload::StaticAnti,
        Workload::DynamicIndep,
        Workload::StreamAnti,
        Workload::ShardedIndep,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::StaticAnti => "static-anti",
            Workload::DynamicIndep => "dynamic-indep",
            Workload::StreamAnti => "stream-anti",
            Workload::ShardedIndep => "sharded-indep",
        }
    }

    /// Parses a command-line name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Input sizes: the measured size, or a smoke size that runs every
/// workload with every check in seconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The sizes `README.md` documents and `BENCHMARK.json` runs.
    Full,
    /// Small inputs for the benchmark's own tests.
    Smoke,
}

/// One run's settings.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Which workload to drive.
    pub workload: Workload,
    /// Seed every input is generated from.
    pub seed: u64,
    /// How long the closed loop runs; at least one round always runs.
    pub seconds: f64,
    /// Record spans and report per-layer metrics instead of end-to-end
    /// ones.
    pub trace: bool,
    /// Input sizes.
    pub size: Size,
    /// How to launch a worker process for `sharded-indep`.
    pub worker: WorkerSpec,
}

/// One reported figure.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as `BENCHMARK.json` spells it.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit as `BENCHMARK.json` spells it.
    pub unit: &'static str,
}

/// What one run measured.
#[derive(Debug, Clone)]
pub struct Report {
    /// Operations the loop attempted (set-up builds excluded).
    pub attempted: u64,
    /// Attempted operations whose answer failed its check.
    pub failed: u64,
    /// End-to-end metrics of an untraced run, per-layer metrics of a
    /// traced one: what the result line prints.
    pub metrics: Vec<Metric>,
    /// End-to-end metrics, also of a traced run (whose latencies include
    /// the tracing overhead and are printed on `info:` lines only).
    pub end_to_end: Vec<Metric>,
    /// Median time of the benchmark's fixed probe computation over the
    /// run's rounds, in ms: the machine's own speed while the run ran.
    pub ref_ms: f64,
    /// Run context printed beside the result: parallelism, sizes.
    pub info: Vec<(String, String)>,
}

impl Report {
    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and `metrics`. `correct` is true only for a run that
    /// attempted an operation and in which no answer failed its check.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted > 0 && self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// The value of metric `name`, if reported.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Names of `TSS_*` variables set in the environment. The library crates
/// read several of them (kernel, faults, budget, executor, deadline), so a
/// stray one would silently change what is measured.
pub fn tss_env_vars() -> Vec<String> {
    let mut vars: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("TSS_"))
        .collect();
    vars.sort();
    vars
}

/// Runs one workload and reports what it measured.
pub fn run(cfg: &RunConfig) -> Result<Report, String> {
    let vars = tss_env_vars();
    if !vars.is_empty() {
        return Err(format!(
            "refusing to run with {} set: the library would read it",
            vars.join(", ")
        ));
    }
    let tracer = trace::Tracer::new(cfg.trace);
    let started = Instant::now();
    let mut out = match cfg.workload {
        Workload::StaticAnti => workloads::static_anti::run(cfg, &tracer),
        Workload::DynamicIndep => workloads::dynamic_indep::run(cfg, &tracer),
        Workload::StreamAnti => workloads::stream_anti::run(cfg, &tracer),
        Workload::ShardedIndep => workloads::sharded_indep::run(cfg, &tracer),
    }?;
    let parallelism = std::thread::available_parallelism().map_or(1, |n| n.get());
    if cfg.trace {
        out.metrics.push(Metric {
            name: "bench.ref_ms",
            value: out.ref_ms,
            unit: "ms",
        });
        let path = trace_path(cfg);
        tracer
            .write(&path)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        out.info.push(("trace".into(), path.display().to_string()));
        for m in &out.end_to_end {
            out.info
                .push((format!("traced.{}", m.name), m.value.to_string()));
        }
    } else {
        out.metrics.push(Metric {
            name: "peak_rss_mb",
            value: stats::peak_rss_mb()?,
            unit: "MB",
        });
    }
    out.info
        .push(("available_parallelism".into(), parallelism.to_string()));
    out.info
        .push(("bench.ref_ms".into(), format!("{:.4}", out.ref_ms)));
    out.info.push((
        "wall_s".into(),
        format!("{:.3}", started.elapsed().as_secs_f64()),
    ));
    Ok(out)
}

/// Where a traced run writes its spans.
pub fn trace_path(cfg: &RunConfig) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("trace-{}-{}.jsonl", cfg.workload.name(), cfg.seed))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(attempted: u64, failed: u64) -> Report {
        Report {
            attempted,
            failed,
            metrics: vec![Metric {
                name: "setup_s",
                value: 0.5,
                unit: "s",
            }],
            end_to_end: Vec::new(),
            ref_ms: 0.1,
            info: Vec::new(),
        }
    }

    #[test]
    fn a_failed_answer_makes_the_run_incorrect() {
        assert!(report(10, 0).json().starts_with("{\"correct\": true, "));
        assert_eq!(
            report(10, 1).json(),
            "{\"correct\": false, \"attempted\": 10, \"failed\": 1, \"metrics\": \
             {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
        assert!(report(0, 0).json().starts_with("{\"correct\": false, "));
    }
}
