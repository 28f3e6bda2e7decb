//! `stream-anti`: a `StreamingSkyline` over anti-correlated arrivals at
//! the paper's dynamic shape, with a count window. One writer inserts
//! (expiry is automatic); every [`ARRIVALS_PER_READ`] arrivals
//! [`READS_PER_ROUND`] snapshot cursors are opened and drained back to
//! back; repairs run on the default single
//! worker. Set-up opens the stream and replays a backlog of
//! [`BACKLOG_WINDOWS`] windows so the loop starts in steady state.

use super::{closed_loop, generate, layer_metrics, timed, Samples, DYNAMIC_SHAPE, K};
use crate::reference::{Closure, Rows};
use crate::stats::{median, ms, quantile, ratio};
use crate::trace::Tracer;
use crate::{Report, RunConfig, Size};
use datagen::Distribution;
use std::collections::VecDeque;
use std::time::{Duration, Instant};
use tss_core::{
    Budget, ExecPolicy, Kernel, PoDomain, PointStore, SkylineCursor, StreamingConfig,
    StreamingSkyline, WindowPolicy,
};

/// Arrivals between two rounds of snapshot reads.
pub const ARRIVALS_PER_READ: usize = 128;
/// Snapshot cursors opened and drained back to back in each round; the
/// round's read latency is their median.
pub const READS_PER_ROUND: usize = 8;
/// Windows' worth of arrivals replayed during set-up.
pub const BACKLOG_WINDOWS: usize = 4;
/// Rounds reserved for up front; about 14 000 fill a run on the machine
/// the README's figures come from.
const MAX_ROUNDS: usize = 1 << 17;
/// Rounds between two timed set-ups (a set-up costs about two rounds).
const SETUP_EVERY: usize = 32;

/// Count-window size and the number of generated arrivals the stream
/// cycles through.
fn sizes(size: Size) -> (usize, usize) {
    match size {
        Size::Full => (256, 200_000),
        Size::Smoke => (64, 4_000),
    }
}

/// A point's values, for comparing answers whose record ids the store may
/// have renumbered by compaction.
type Values = (Vec<u32>, Vec<u32>);

/// The brute-force skyline of the benchmark's own copy of the window, as
/// a sorted multiset of values.
fn window_skyline(
    arrivals: &PointStore,
    window: &VecDeque<usize>,
    closure: &Closure,
) -> Vec<Values> {
    let (mut to, mut po) = (Vec::new(), Vec::new());
    for &a in window {
        to.extend_from_slice(arrivals.to(a as u32));
        po.extend_from_slice(arrivals.po(a as u32));
    }
    let rows = Rows {
        to_dims: arrivals.to_dims(),
        to: &to,
        po: &po,
        closures: std::slice::from_ref(closure),
    };
    let mut sky: Vec<Values> = rows
        .skyline()
        .into_iter()
        .map(|i| {
            let a = window[i as usize] as u32;
            (arrivals.to(a).to_vec(), arrivals.po(a).to_vec())
        })
        .collect();
    sky.sort_unstable();
    sky
}

pub fn run(cfg: &RunConfig, tracer: &Tracer) -> Result<Report, String> {
    let (window_n, m) = sizes(cfg.size);
    let backlog = BACKLOG_WINDOWS * window_n;
    let (arrivals, dags) = generate(m, DYNAMIC_SHAPE, Distribution::AntiCorrelated, cfg.seed);
    let config = StreamingConfig {
        window: WindowPolicy::Count(window_n),
        threads: 1,
        repair_shards: 4,
        budget: Budget::UNLIMITED,
        exec: ExecPolicy::fault_free(),
    };
    let to_dims = arrivals.to_dims();
    // Set-up: label the DAG, open the stream, replay the backlog. Returns
    // the stream and the labeling time in ms.
    let open = |op: u64| {
        let t = Instant::now();
        let domain = tracer.span(op, "poset.label", || PoDomain::new(dags[0].clone()));
        let label = ms(t.elapsed());
        let mut st =
            StreamingSkyline::new(to_dims, vec![domain], config).with_kernel(Kernel::Lanes);
        for a in 0..backlog as u32 {
            st.insert(arrivals.to(a), arrivals.po(a));
        }
        (st, label)
    };
    let mut stream = open(0).0;
    let mut s = Samples::new(1, MAX_ROUNDS);
    let mut op = 1u64;
    let mut label_ms = Vec::new();
    let closure = Closure::of(&dags[0]);
    let mut window: VecDeque<usize> = (backlog - window_n..backlog).collect();

    let start_metrics = stream.metrics();
    let (mut insert_us, mut repair_us) = (Vec::new(), Vec::new());
    let mut next = backlog;
    let mut reads = 0u64;
    closed_loop(cfg.seconds, &mut s, |round, s| {
        if round % SETUP_EVERY == 0 {
            let ((fresh, label), t) = timed(tracer, op, "streaming.setup", || open(op));
            std::hint::black_box(fresh);
            s.setup(t);
            label_ms.push(label);
            op += 1;
        }
        // One span covers a round's arrivals (a span per microsecond-scale
        // insert would bloat the trace); each insert is still timed alone.
        let inserts = tracer.span(op, "streaming.insert", || {
            let mut times = Vec::with_capacity(ARRIVALS_PER_READ);
            for _ in 0..ARRIVALS_PER_READ {
                let a = (next % m) as u32;
                next += 1;
                let repairs_before = stream.metrics().stream_repairs;
                let t0 = Instant::now();
                stream.insert(arrivals.to(a), arrivals.po(a));
                let t = t0.elapsed();
                times.push((t, stream.metrics().stream_repairs > repairs_before));
                window.push_back(a as usize);
                if window.len() > window_n {
                    window.pop_front();
                }
            }
            times
        });
        let mut times: Vec<Duration> = inserts.iter().map(|&(t, _)| t).collect();
        s.query_round(0, &mut times);
        // An insert returns no answer of its own; the next read checks the
        // state it left.
        s.attempted += inserts.len() as u64;
        for (t, repaired) in inserts {
            if cfg.trace {
                let us = t.as_secs_f64() * 1e6;
                if repaired {
                    repair_us.push(us);
                } else {
                    insert_us.push(us);
                }
            }
        }
        op += 1;
        let expected = tracer.span(op, "bench.check", || {
            window_skyline(&arrivals, &window, &closure)
        });
        let mut pulls = [(Duration::ZERO, Duration::ZERO); READS_PER_ROUND];
        for pull in &mut pulls {
            let t0 = Instant::now();
            let (got, t_first, t_k) = tracer.span(op, "streaming.cursor", || {
                let mut c = stream.cursor();
                let mut got = Vec::with_capacity(c.len());
                got.extend(c.next());
                let t_first = t0.elapsed();
                while got.len() < K {
                    match c.next() {
                        Some(p) => got.push(p),
                        None => break,
                    }
                }
                let t_k = t0.elapsed();
                got.extend(std::iter::from_fn(|| c.next()));
                (got, t_first, t_k)
            });
            *pull = (t_first, t_k);
            s.check(tracer.span(op, "bench.check", || {
                let mut values: Vec<Values> = got.into_iter().map(|p| (p.to, p.po)).collect();
                values.sort_unstable();
                values == expected
            }));
            reads += 1;
            op += 1;
        }
        s.pull_round(0, &pulls);
    });

    let end = stream.metrics();
    let updates = (end.stream_inserts - start_metrics.stream_inserts) as f64;
    let repairs = (end.stream_repairs - start_metrics.stream_repairs) as f64;
    let end_to_end = s.end_to_end();
    let metrics = if cfg.trace {
        let mut delta = end;
        delta.dominance_checks -= start_metrics.dominance_checks;
        delta.kernel_chunks -= start_metrics.kernel_chunks;
        layer_metrics(&[
            ("poset.label_ms", median(&label_ms)),
            (
                "skyline.pair_checks_per_op",
                ratio(delta.dominance_checks as f64, updates),
            ),
            ("skyline.lane_fill", super::lane_fill(&delta)),
            ("streaming.insert_us_p50", median(&insert_us)),
            ("streaming.repair_us_p50", median(&repair_us)),
            ("streaming.repair_us_p99", quantile(&repair_us, 0.99)),
            ("streaming.repairs_per_update", ratio(repairs, updates)),
            (
                "streaming.candidates_per_repair",
                ratio(
                    (end.repair_candidates - start_metrics.repair_candidates) as f64,
                    repairs,
                ),
            ),
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
            ("window".into(), window_n.to_string()),
            ("updates".into(), updates.to_string()),
            ("reads".into(), reads.to_string()),
            ("repairs".into(), repairs.to_string()),
            (
                "skyline_now".into(),
                stream.skyline_records().len().to_string(),
            ),
            ("rounds".into(), s.rounds().to_string()),
        ],
    })
}
