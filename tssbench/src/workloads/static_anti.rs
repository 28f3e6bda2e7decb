//! `static-anti`: sTSS over anti-correlated data at the paper's static
//! shape. A run holds [`tables`] tables generated from its seed, so one
//! table's skyline size does not set the run's figures. Each index is
//! built once (timed repeatedly for `setup_s`); the loop visits the tables
//! in turn and runs a full-skyline query, then top-k pulls off fresh
//! cursors.

use super::{
    closed_loop, generate, layer_metrics, reference_skyline, self_ms, span_count, timed, Samples,
    SplitMix, K, STATIC_SHAPE,
};
use crate::reference::{same_set, valid_prefix};
use crate::stats::{median, ms, ratio};
use crate::trace::Tracer;
use crate::{Report, RunConfig, Size};
use datagen::Distribution;
use rtree::RTree;
use std::time::Instant;
use tss_core::{Metrics, PoDomain, PointStore, SkylineCursor, Stss, StssConfig};

/// Tuples per table.
fn cardinality(size: Size) -> usize {
    match size {
        Size::Full => 1_000,
        Size::Smoke => 500,
    }
}

/// Tables per run, each generated from its own sub-seed. A table's time
/// to the k-th point lies anywhere in 0.03–0.15 ms, so the mean over a
/// run's tables moves with the seed: over ten tables of 3 000 tuples, one
/// seed read 1.5× the others in every repeat, and `topk_ms_p50` spread
/// 0.31 and 0.36 of its median in two sets of ten runs.
fn tables(size: Size) -> usize {
    match size {
        Size::Full => 30,
        Size::Smoke => 2,
    }
}

/// Top-k pulls per full query in one round, run back to back and
/// recorded by their median, as the stream's reads are: a pull takes
/// about 0.1 ms, too short a sample to time alone.
const TOPK_PER_ROUND: usize = 8;

/// Records the traced kernel probe screens after each full query.
const KERNEL_PROBE: usize = 64;

/// The labeling and bulk load `Stss::build` performs, repeated through the
/// layers' own entry points so each can be timed apart. Returns their
/// times in ms.
fn probe_build(
    tracer: &Tracer,
    op: u64,
    store: &PointStore,
    dags: &[poset::Dag],
    cap: usize,
) -> (f64, f64) {
    let t = Instant::now();
    let domains: Vec<PoDomain> = tracer.span(op, "poset.label", || {
        dags.iter().cloned().map(PoDomain::new).collect()
    });
    let label = ms(t.elapsed());
    let dims = store.to_dims() + store.po_dims();
    let mut coords = Vec::with_capacity(store.len() * dims);
    for i in 0..store.len() {
        coords.extend_from_slice(store.to_row(i));
        for (dom, &v) in domains.iter().zip(store.po_row(i)) {
            coords.push(dom.ordinal(v));
        }
    }
    let ids: Vec<u32> = (0..store.len() as u32).collect();
    let (tree, t) = timed(tracer, op, "rtree.bulk_load", || {
        RTree::bulk_load_flat(dims, cap, &coords, &ids)
    });
    std::hint::black_box(tree);
    (label, ms(t))
}

pub fn run(cfg: &RunConfig, tracer: &Tracer) -> Result<Report, String> {
    let n = cardinality(cfg.size);
    let mut seeds = SplitMix::new(cfg.seed);
    let inputs: Vec<_> = (0..tables(cfg.size))
        .map(|_| {
            generate(
                n,
                STATIC_SHAPE,
                Distribution::AntiCorrelated,
                seeds.next_u64(),
            )
        })
        .collect();
    let scfg = StssConfig::default();
    let build = |(store, dags): &(PointStore, Vec<poset::Dag>)| {
        Stss::build(store.clone(), dags.clone(), scfg).map_err(|e| format!("Stss::build: {e}"))
    };
    let mut engines = Vec::with_capacity(inputs.len());
    for input in &inputs {
        engines.push((build(input)?, reference_skyline(&input.0, &input.1)));
    }
    let mut s = Samples::new(inputs.len(), 1024);
    let mut op = 0u64;
    let (mut label_ms, mut bulk_ms) = (Vec::new(), Vec::new());

    let mut full = Metrics::default();
    let (mut full_ops, mut topk_ops, mut pages_to_first) = (0u64, 0u64, 0u64);
    let (mut probe_pairs, mut probe_ns) = (0u64, 0f64);
    let probe_ids: Vec<u32> = (0..KERNEL_PROBE)
        .map(|i| (i * n / KERNEL_PROBE) as u32)
        .collect();
    closed_loop(cfg.seconds, &mut s, |round, s| {
        // Set-up, timed: rebuild one table's index per round, in turn.
        let input = &inputs[round % inputs.len()];
        let (built, t) = timed(tracer, op, "stss.build", || build(input));
        let built = built.expect("the same input built before the loop");
        s.setup(t);
        if tracer.enabled() {
            let cap = built.tree().capacity();
            let (label, bulk) = probe_build(tracer, op, &input.0, &input.1, cap);
            label_ms.push(label);
            bulk_ms.push(bulk);
        }
        op += 1;
        for (g, (stss, reference)) in engines.iter().enumerate() {
            let (run, t) = timed(tracer, op, "stss.run", || stss.run());
            s.query(g, t);
            let sky = run.skyline_records();
            s.check(tracer.span(op, "bench.check", || same_set(sky.clone(), reference)));
            full = full.merge(&run.metrics);
            full_ops += 1;
            if tracer.enabled() {
                // The kernel on its own: screen fixed records against the
                // skyline this query returned.
                let table = stss.table();
                let t = Instant::now();
                tracer.span(op, "skyline.kernel", || {
                    for &id in &probe_ids {
                        let (_, examined) = table.t_dominated_by_any(
                            stss.domains(),
                            table.to(id),
                            table.po(id),
                            &sky,
                        );
                        probe_pairs += examined;
                    }
                });
                probe_ns += t.elapsed().as_nanos() as f64;
            }
            op += 1;
            let mut pulls = Vec::with_capacity(TOPK_PER_ROUND);
            for _ in 0..TOPK_PER_ROUND {
                let t0 = Instant::now();
                let (got, t_first, t_k, first_pages) = tracer.span(op, "stss.cursor", || {
                    let mut c = stss.cursor();
                    let mut got = Vec::with_capacity(K);
                    got.extend(c.next().map(|p| p.record));
                    let t_first = t0.elapsed();
                    let first_pages = c.progress().io_reads;
                    while got.len() < K {
                        match c.next() {
                            Some(p) => got.push(p.record),
                            None => break,
                        }
                    }
                    (got, t_first, t0.elapsed(), first_pages)
                });
                pulls.push((t_first, t_k));
                s.check(tracer.span(op, "bench.check", || valid_prefix(&got, K, reference)));
                pages_to_first += first_pages;
                topk_ops += 1;
                op += 1;
            }
            s.pull_round(g, &pulls);
        }
    });

    let end_to_end = s.end_to_end();
    let metrics = if cfg.trace {
        let per_full = |x: u64| ratio(x as f64, full_ops as f64);
        layer_metrics(&[
            ("poset.label_ms", median(&label_ms)),
            ("rtree.bulk_load_ms", median(&bulk_ms)),
            ("rtree.pages_per_op", per_full(full.io_reads)),
            (
                "rtree.pages_to_first",
                ratio(pages_to_first as f64, topk_ops as f64),
            ),
            (
                "stss.build_ms",
                ratio(
                    self_ms(tracer, "stss.build"),
                    span_count(tracer, "stss.build"),
                ),
            ),
            ("stss.heap_pops_per_op", per_full(full.heap_pops)),
            (
                "skyline.pair_checks_per_op",
                per_full(full.dominance_checks),
            ),
            ("skyline.lane_fill", super::lane_fill(&full)),
            ("skyline.pair_check_ns", ratio(probe_ns, probe_pairs as f64)),
        ])
    } else {
        end_to_end.clone()
    };
    let skylines: Vec<String> = engines.iter().map(|(_, r)| r.len().to_string()).collect();
    Ok(Report {
        attempted: s.attempted,
        failed: s.failed,
        metrics,
        end_to_end,
        ref_ms: s.ref_ms(),
        info: vec![
            ("n".into(), n.to_string()),
            ("skylines".into(), skylines.join(",")),
            ("full_queries".into(), full_ops.to_string()),
            ("topk_pulls".into(), topk_ops.to_string()),
            ("k".into(), K.to_string()),
            ("rounds".into(), s.rounds().to_string()),
        ],
    })
}
