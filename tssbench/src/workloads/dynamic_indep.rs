//! `dynamic-indep`: dTSS over independent data at the paper's dynamic
//! shape, queried through `QuerySession`s. Every query brings its own
//! preference DAG (a node-permuted copy of the data DAG); a quarter of a
//! session's lookups repeat an earlier DAG. Each round is one session of
//! alternating full queries and top-k pulls.

use super::{
    closed_loop, generate, layer_metrics, self_ms, span_count, timed, QueryPool, Samples,
    DYNAMIC_SHAPE, K,
};
use crate::reference::{same_set, valid_prefix};
use crate::stats::{median, ms, ratio};
use crate::trace::Tracer;
use crate::{Report, RunConfig, Size};
use datagen::Distribution;
use rtree::RTree;
use std::collections::BTreeMap;
use std::time::Instant;
use tss_core::{
    Dtss, DtssConfig, Metrics, PoDomain, PoQuery, PointStore, QuerySession, SkylineCursor,
};

/// Tuples in the indexed table (shared with `sharded-indep`).
pub fn cardinality(size: Size) -> usize {
    match size {
        Size::Full => 20_000,
        Size::Smoke => 3_000,
    }
}

/// Distinct query DAGs a run draws from (shared with `sharded-indep`):
/// enough that the 90th percentile over DAGs has more than ten beyond it,
/// and not a multiple of a session's 12 fresh DAGs, so that each DAG
/// serves full queries, not only top-k pulls, in two laps out of three.
pub fn pool_size(size: Size) -> usize {
    match size {
        Size::Full => 128,
        Size::Smoke => 16,
    }
}

/// The generated table and its query pool, shared with `sharded-indep`.
pub fn inputs(cfg: &RunConfig) -> (PointStore, Vec<poset::Dag>, QueryPool) {
    let n = cardinality(cfg.size);
    let (store, dags) = generate(n, DYNAMIC_SHAPE, Distribution::Independent, cfg.seed);
    let pool = QueryPool::new(&store, &dags[0], pool_size(cfg.size));
    (store, dags, pool)
}

/// The per-group trees `Dtss::build` loads, rebuilt through
/// `RTree::bulk_load_flat` so the index layer's share can be timed.
fn bulk_load_groups(store: &PointStore, cap: usize) {
    let mut groups: BTreeMap<&[u32], Vec<u32>> = BTreeMap::new();
    for i in 0..store.len() {
        groups.entry(store.po_row(i)).or_default().push(i as u32);
    }
    let dims = store.to_dims();
    for records in groups.values() {
        let mut coords = Vec::with_capacity(records.len() * dims);
        for &r in records {
            coords.extend_from_slice(store.to_row(r as usize));
        }
        std::hint::black_box(RTree::bulk_load_flat(dims, cap, &coords, records));
    }
}

pub fn run(cfg: &RunConfig, tracer: &Tracer) -> Result<Report, String> {
    let t = Instant::now();
    let (store, dags, pool) = inputs(cfg);
    let inputs_s = t.elapsed().as_secs_f64();
    let sizes: Vec<u32> = dags.iter().map(|d| d.len() as u32).collect();
    let dcfg = DtssConfig::default();
    let build = || Dtss::build(store.clone(), sizes.clone(), dcfg);
    let dtss = build().map_err(|e| format!("Dtss::build: {e}"))?;
    let mut s = Samples::new(1, 1024);
    let mut op = 0u64;
    let mut bulk_ms = Vec::new();

    let mut full = Metrics::default();
    let (mut full_ops, mut topk_ops) = (0u64, 0u64);
    let (mut skipped, mut groups) = (0u64, 0u64);
    let (mut hits, mut misses) = (0u64, 0u64);
    let mut label_ms = 0f64;
    closed_loop(cfg.seconds, &mut s, |round, s| {
        // Set-up, timed: one rebuild of the operator per round.
        let (built, t) = timed(tracer, op, "dtss.build", build);
        std::hint::black_box(built.expect("the same input built before the loop"));
        s.setup(t);
        if tracer.enabled() {
            let cap = dcfg
                .node_capacity
                .unwrap_or_else(|| dcfg.page.capacity(store.to_dims()));
            let (_, t) = timed(tracer, op, "rtree.bulk_load", || {
                bulk_load_groups(&store, cap)
            });
            bulk_ms.push(ms(t));
        }
        op += 1;
        let mut session = QuerySession::new(&dtss);
        for (i, &qi) in pool.session(round).iter().enumerate() {
            let q = PoQuery::new(vec![pool.dags[qi].clone()]);
            let reference = &pool.references[qi];
            let missed_before = session.stats().misses;
            if i % 2 == 0 {
                let (run, t) = timed(tracer, op, "session.query", || session.query(&q));
                s.query(0, t);
                s.dag_latency(qi, t);
                match run {
                    Ok(run) => {
                        s.check(tracer.span(op, "bench.check", || {
                            same_set(run.skyline_records(), reference)
                        }));
                        full = full.merge(&run.metrics);
                        skipped += run.groups_skipped;
                        groups += run.groups_total;
                        full_ops += 1;
                    }
                    Err(_) => s.check(false),
                }
            } else {
                let t0 = Instant::now();
                let pulled = tracer.span(op, "session.cursor", || {
                    let mut c = session.cursor(&q)?;
                    let mut got = Vec::with_capacity(K);
                    got.extend(c.next().map(|p| p.record));
                    let t_first = t0.elapsed();
                    while got.len() < K {
                        match c.next() {
                            Some(p) => got.push(p.record),
                            None => break,
                        }
                    }
                    Ok::<_, tss_core::CoreError>((got, t_first, t0.elapsed()))
                });
                match pulled {
                    Ok((got, t_first, t_k)) => {
                        s.pull(0, t_first, t_k);
                        s.check(
                            tracer.span(op, "bench.check", || valid_prefix(&got, K, reference)),
                        );
                        topk_ops += 1;
                    }
                    Err(_) => s.check(false),
                }
            }
            if tracer.enabled() && session.stats().misses > missed_before {
                // The labeling the miss paid for, through the layer's own
                // entry point.
                let t = Instant::now();
                tracer.span(op, "poset.label", || {
                    std::hint::black_box(PoDomain::new(pool.dags[qi].clone()))
                });
                label_ms += ms(t.elapsed());
            }
            op += 1;
        }
        let st = session.stats();
        hits += st.hits;
        misses += st.misses;
    });

    let ops = (full_ops + topk_ops) as f64;
    let end_to_end = s.end_to_end();
    let metrics = if cfg.trace {
        let per_full = |x: u64| ratio(x as f64, full_ops as f64);
        layer_metrics(&[
            ("poset.label_ms", ratio(label_ms, ops)),
            (
                "session.hit_ratio",
                ratio(hits as f64, (hits + misses) as f64),
            ),
            ("rtree.bulk_load_ms", median(&bulk_ms)),
            ("rtree.pages_per_op", per_full(full.io_reads)),
            (
                "skyline.pair_checks_per_op",
                per_full(full.dominance_checks),
            ),
            ("skyline.lane_fill", super::lane_fill(&full)),
            (
                "dtss.build_ms",
                ratio(
                    self_ms(tracer, "dtss.build"),
                    span_count(tracer, "dtss.build"),
                ),
            ),
            (
                "dtss.groups_skipped_ratio",
                ratio(skipped as f64, groups as f64),
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
            ("n".into(), store.len().to_string()),
            ("inputs_s".into(), format!("{inputs_s:.3}")),
            ("groups".into(), dtss.group_count().to_string()),
            ("full_queries".into(), full_ops.to_string()),
            ("topk_pulls".into(), topk_ops.to_string()),
            ("label_hits".into(), hits.to_string()),
            ("label_misses".into(), misses.to_string()),
            ("rounds".into(), s.rounds().to_string()),
        ],
    })
}
