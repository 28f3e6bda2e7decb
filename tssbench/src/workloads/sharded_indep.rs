//! `sharded-indep`: the data and query mix of `dynamic-indep`, with each
//! query split by the adaptive planner (at most [`MAX_SHARDS`] shards,
//! costed for [`WORKERS`] worker), run on a pool of [`WORKERS`] worker
//! process, and merged in-process. Sharded execution is not
//! progressive: a top-k pull waits for the merge like a full query does.
//! Set-up is one worker start plus one shard round trip.

use super::dynamic_indep::inputs;
use super::{closed_loop, layer_metrics, timed, Samples, K};
use crate::reference::{same_set, valid_prefix};
use crate::stats::ratio;
use crate::trace::Tracer;
use crate::{Report, RunConfig};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;
use tss_core::ipc::{encode_local_skyline, local_skyline_job};
use tss_core::parallel::merge_jobs_exec;
use tss_core::{
    Budget, ExecPolicy, Metrics, ParallelRun, PoDomain, PointStore, ShardError, ShardExecutor,
    ShardJob, ShardOutcome, ShardPlan, ShardSpec, SubprocessExecutor,
};

/// Worker processes in the pool, and the worker count the planner costs:
/// one, so that one CPU-bound process runs at a time. With two worker
/// processes on the 2-CPU shared host, three of ten 30 s runs read every
/// timing 1.45–1.75× above the others while the single-threaded probe
/// (`bench.ref_ms`) rose 1.07–1.12×: the pair measured the host's CPU
/// steal, not the program.
pub const WORKERS: usize = 1;
/// Upper bound on the planned shard count.
pub const MAX_SHARDS: usize = 8;

/// The pool behind a span, so its time and the encodes inside it nest.
struct TracedExecutor<'a> {
    inner: SubprocessExecutor,
    tracer: &'a Tracer,
    op: &'a AtomicUsize,
    /// Span id of the running `execute` call, for the wire encoders that
    /// run on the pool's threads (`usize::MAX` when none).
    span: &'a AtomicUsize,
}

impl ShardExecutor for TracedExecutor<'_> {
    fn execute(
        &self,
        store: &PointStore,
        domains: &[PoDomain],
        jobs: &[ShardJob<'_>],
    ) -> Vec<Result<ShardOutcome, ShardError>> {
        let op = self.op.load(Ordering::Relaxed) as u64;
        self.tracer.span(op, "executor.execute", || {
            if let Some(id) = self.tracer.current() {
                self.span.store(id, Ordering::Relaxed);
            }
            self.inner.execute(store, domains, jobs)
        })
    }
}

/// One sharded query: label, plan, ship, merge.
fn sharded_query(
    store: &PointStore,
    dag: &poset::Dag,
    executor: &TracedExecutor<'_>,
) -> (Result<ParallelRun, ShardError>, ShardPlan) {
    let tracer = executor.tracer;
    let op = executor.op.load(Ordering::Relaxed) as u64;
    let domains = tracer.span(op, "poset.label", || vec![PoDomain::new(dag.clone())]);
    let spec = ShardSpec::Adaptive {
        max: MAX_SHARDS,
        workers: WORKERS,
    };
    let plan = tracer.span(op, "parallel.plan", || spec.resolve(store, &domains));
    let views = store.shards(plan.shards);
    let domains = &domains;
    let span = executor.span;
    let jobs: Vec<ShardJob<'_>> = views
        .iter()
        .map(|&view| {
            local_skyline_job(view, domains).with_wire(move || {
                let parent = Some(span.load(Ordering::Relaxed)).filter(|&p| p != usize::MAX);
                tracer.span_in(op, "ipc.encode", parent, || {
                    encode_local_skyline(&view, domains)
                })
            })
        })
        .collect();
    let run = tracer.span(op, "parallel.merge_jobs_exec", || {
        merge_jobs_exec(store, domains, executor, 1, Budget::UNLIMITED, jobs)
    });
    (run, plan)
}

/// A sharded answer counts only if every shard ran out of process.
fn ran_remotely(m: &Metrics) -> bool {
    m.ipc_bytes > 0 && m.shard_fallbacks == 0
}

pub fn run(cfg: &RunConfig, tracer: &Tracer) -> Result<Report, String> {
    let (store, dags, pool) = inputs(cfg);
    let op = AtomicUsize::new(0);
    let span = AtomicUsize::new(usize::MAX);
    let executor = TracedExecutor {
        inner: SubprocessExecutor::with_policy(
            cfg.worker.clone(),
            WORKERS,
            ExecPolicy::fault_free(),
        ),
        tracer,
        op: &op,
        span: &span,
    };
    // Set-up: start one worker and complete one shard round trip.
    let probe = store
        .shards(store.len())
        .into_iter()
        .next()
        .expect("non-empty store");
    let probe_domains = vec![PoDomain::new(dags[0].clone())];
    let round_trip = || {
        let jobs = vec![local_skyline_job(probe, &probe_domains)];
        let op = op.load(Ordering::Relaxed) as u64;
        let (out, t) = timed(tracer, op, "ipc.setup", || {
            executor.execute(&store, &probe_domains, &jobs)
        });
        let ok = out
            .into_iter()
            .all(|r| r.is_ok_and(|o| ran_remotely(&o.metrics)));
        (ok, t)
    };
    if !round_trip().0 {
        return Err("the worker pool could not complete a round trip".into());
    }
    let mut s = Samples::new(1, 1024);

    let mut total = Metrics::default();
    let (mut merge_checks, mut plan_excess) = (0u64, 0f64);
    let mut queries = 0u64;
    closed_loop(cfg.seconds, &mut s, |round, s| {
        // Set-up, timed once per round; a round trip that fails counts as
        // a failed operation.
        let (ok, t) = round_trip();
        s.check(ok);
        if ok {
            s.setup(t);
        }
        op.fetch_add(1, Ordering::Relaxed);
        for (i, &qi) in pool.session(round).iter().enumerate() {
            let reference = &pool.references[qi];
            let t0 = Instant::now();
            let (run, plan) = sharded_query(&store, &pool.dags[qi], &executor);
            let t = t0.elapsed();
            // Every operation is a full sharded query, a pull included.
            s.dag_latency(qi, t);
            if i % 2 == 0 {
                s.query(0, t);
            } else {
                s.pull(0, t, t);
            }
            let op_id = op.load(Ordering::Relaxed) as u64;
            match run {
                Ok(run) => {
                    let m = run.metrics();
                    s.check(tracer.span(op_id, "bench.check", || {
                        let answer_ok = if i % 2 == 0 {
                            same_set(run.records.clone(), reference)
                        } else {
                            let got = &run.records[..K.min(run.records.len())];
                            valid_prefix(got, K, reference)
                        };
                        answer_ok && ran_remotely(&m)
                    }));
                    let estimate = (plan.est_run_checks + plan.est_merge_checks) as f64;
                    let actual = m.dominance_checks as f64;
                    plan_excess += ratio((estimate - actual).abs(), actual);
                    merge_checks += run.merge_metrics.merge_pair_checks;
                    total = total.merge(&m);
                    queries += 1;
                }
                Err(_) => s.check(false),
            }
            op.fetch_add(1, Ordering::Relaxed);
        }
    });

    let per_op = |x: f64| ratio(x, queries as f64);
    let end_to_end = s.end_to_end();
    let metrics = if cfg.trace {
        let spans = tracer.spans();
        let totals = crate::trace::totals(&spans);
        let total_ms = |name: &str| totals.get(name).map_or(0.0, |t| t.total_ns as f64 / 1e6);
        let self_ms = |name: &str| totals.get(name).map_or(0.0, |t| t.self_ns as f64 / 1e6);
        // The pool calls of the queries, not those of the set-up round trips.
        let exec_ns: u64 = spans
            .iter()
            .filter(|s| s.name == "executor.execute")
            .filter(|s| {
                s.parent
                    .is_some_and(|p| spans[p].name == "parallel.merge_jobs_exec")
            })
            .map(|s| s.end.saturating_sub(s.start))
            .sum();
        layer_metrics(&[
            ("poset.label_ms", per_op(total_ms("poset.label"))),
            (
                "skyline.pair_checks_per_op",
                per_op(total.dominance_checks as f64),
            ),
            ("skyline.lane_fill", super::lane_fill(&total)),
            ("parallel.plan_ms", per_op(total_ms("parallel.plan"))),
            ("parallel.plan_excess", per_op(plan_excess)),
            ("parallel.merge_checks_per_op", per_op(merge_checks as f64)),
            (
                "parallel.merge_ms_per_op",
                per_op(self_ms("parallel.merge_jobs_exec")),
            ),
            ("ipc.encode_ms_per_op", per_op(total_ms("ipc.encode"))),
            ("ipc.bytes_per_op", per_op(total.ipc_bytes as f64)),
            ("ipc.exec_ms_per_op", per_op(exec_ns as f64 / 1e6)),
            ("executor.retries", total.shard_retries as f64),
            ("executor.fallbacks", total.shard_fallbacks as f64),
            ("ipc.worker_crashes", total.worker_crashes as f64),
            ("ipc.worker_timeouts", total.worker_timeouts as f64),
            ("ipc.frames_corrupted", total.frames_corrupted as f64),
        ])
    } else {
        end_to_end.clone()
    };
    Ok(Report {
        attempted: s.attempted,
        failed: s.failed,
        metrics,
        end_to_end,
        ref_ms: s.ref_ms(),
        info: vec![
            ("n".into(), store.len().to_string()),
            ("queries".into(), queries.to_string()),
            ("workers".into(), WORKERS.to_string()),
            ("ipc_bytes".into(), total.ipc_bytes.to_string()),
            ("rounds".into(), s.rounds().to_string()),
        ],
    })
}
