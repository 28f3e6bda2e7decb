//! The four workloads and what they share: seeded inputs, the query-DAG
//! pool of the dynamic workloads, the closed loop, and the end-to-end
//! metric set every workload reports.

pub mod dynamic_indep;
pub mod sharded_indep;
pub mod static_anti;
pub mod stream_anti;

use crate::reference::{Closure, Rows};
use crate::stats::{quantile, ratio};
use crate::trace::Tracer;
use crate::Metric;
use datagen::{Distribution, ExperimentParams, PAPER_TO_DOMAIN};
use poset::Dag;
use std::time::{Duration, Instant};
use tss_core::PointStore;

/// Points pulled by every top-k operation.
pub const K: usize = 10;

/// A seeded splitmix64 stream, owned by the benchmark so its inputs do
/// not depend on the library's generators beyond the data itself.
pub struct SplitMix(u64);

impl SplitMix {
    /// A stream seeded with `seed`.
    pub fn new(seed: u64) -> SplitMix {
        SplitMix(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform index in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// The paper's parameter vector at `n` tuples of the given shape.
fn params(
    n: usize,
    (to_dims, po_dims, dag_height): (usize, usize, u32),
    dist: Distribution,
    seed: u64,
) -> ExperimentParams {
    ExperimentParams {
        n,
        to_dims,
        po_dims,
        dag_height,
        dag_density: 0.8,
        dist,
        to_domain: PAPER_TO_DOMAIN,
        seed,
    }
}

/// Seed of the lattice samples every workload takes its data DAGs from,
/// and of the query DAGs of the dynamic workloads. The DAG's shape (how
/// many values are mutually incomparable) moves query cost by more than
/// 2× from one sample to the next, and one permutation of it against
/// another by up to 2× as well, so a run's seed draws the tuples and
/// their PO values but no DAG.
pub const DAG_SEED: u64 = 0;

/// The paper's generator at `n` tuples of the given shape: DAGs from
/// [`DAG_SEED`], tuples and PO value assignments from `seed`.
pub fn generate(
    n: usize,
    shape: (usize, usize, u32),
    dist: Distribution,
    seed: u64,
) -> (PointStore, Vec<Dag>) {
    let dags = params(n, shape, dist, DAG_SEED).build_dags();
    let p = params(n, shape, dist, seed);
    let store = PointStore::from_parts(shape.0, shape.1, p.gen_to(), p.gen_po(&dags))
        .expect("the generator emits well-shaped rows")
        .with_kernel(tss_core::Kernel::Lanes);
    (store, dags)
}

/// §VI-B static shape: |TO| = 2, |PO| = 2, h = 8.
pub const STATIC_SHAPE: (usize, usize, u32) = (2, 2, 8);
/// §VI-C dynamic shape: |TO| = 3, |PO| = 1, h = 6.
pub const DYNAMIC_SHAPE: (usize, usize, u32) = (3, 1, 6);

/// A node-permuted copy of `dag`: same shape, different preferences —
/// what a user-supplied order is in the paper's dynamic study.
pub fn permuted(dag: &Dag, rng: &mut SplitMix) -> Dag {
    let n = dag.len();
    let mut perm: Vec<u32> = (0..n as u32).collect();
    for i in (1..n).rev() {
        perm.swap(i, rng.below(i + 1));
    }
    let edges: Vec<(u32, u32)> = dag
        .edges()
        .map(|(u, v)| (perm[u.idx()], perm[v.idx()]))
        .collect();
    Dag::from_edges(n as u32, &edges).expect("a permutation keeps the DAG acyclic")
}

/// The reference skyline of `store` under one DAG per PO attribute.
pub fn reference_skyline(store: &PointStore, dags: &[Dag]) -> Vec<u32> {
    let closures: Vec<Closure> = dags.iter().map(Closure::of).collect();
    Rows {
        to_dims: store.to_dims(),
        to: store.to_block(),
        po: store.po_block(),
        closures: &closures,
    }
    .skyline()
}

/// The query-DAG pool of the dynamic workloads and the order a session
/// draws from it.
pub struct QueryPool {
    /// Distinct query DAGs (node-permuted copies of the data DAG).
    pub dags: Vec<Dag>,
    /// Reference skyline of the data under each DAG, ascending ids.
    pub references: Vec<Vec<u32>>,
}

/// Operations per session round of the dynamic workloads.
pub const SESSION_OPS: usize = 16;

impl QueryPool {
    /// `size` permuted copies of `data_dag`, drawn from [`DAG_SEED`],
    /// each with its reference skyline over `store`.
    pub fn new(store: &PointStore, data_dag: &Dag, size: usize) -> QueryPool {
        let mut rng = SplitMix::new(DAG_SEED ^ 0x0DA6_5EED);
        let dags: Vec<Dag> = (0..size).map(|_| permuted(data_dag, &mut rng)).collect();
        let references = dags
            .iter()
            .map(|d| reference_skyline(store, std::slice::from_ref(d)))
            .collect();
        QueryPool { dags, references }
    }

    /// The pool index of each operation of session round `round`: every
    /// fourth operation repeats the DAG used three operations earlier
    /// (so a quarter of the lookups can hit a label cache), the rest take
    /// the next pool entries in turn.
    pub fn session(&self, round: usize) -> [usize; SESSION_OPS] {
        let fresh_per_round = SESSION_OPS - SESSION_OPS / 4;
        let mut next = round * fresh_per_round;
        let mut out = [0usize; SESSION_OPS];
        for i in 0..SESSION_OPS {
            out[i] = if i % 4 == 3 {
                out[i - 3]
            } else {
                next += 1;
                (next - 1) % self.dags.len()
            };
        }
        out
    }
}

/// Latency samples of one kind and group, in ms.
type Series = Vec<f32>;

/// `q`-quantile by nearest rank of `values`, sorted in place; `None` for
/// no samples.
fn series_quantile(values: &mut [f32], q: f64) -> Option<f64> {
    values.sort_unstable_by(f32::total_cmp);
    let n = values.len();
    let rank = (q * n as f64).ceil() as usize;
    (n > 0).then(|| f64::from(values[rank.clamp(1, n) - 1]))
}

/// Mean over groups of each group's `q`-quantile.
fn over_groups(groups: &mut [Series], q: f64) -> f64 {
    let qs: Vec<f64> = groups
        .iter_mut()
        .filter_map(|s| series_quantile(s, q))
        .collect();
    ratio(qs.iter().sum(), qs.len() as f64)
}

/// The closed loop's samples.
///
/// Samples are kept per group: a group is one input whose operations
/// repeat the same work (a table of `static-anti`; the single table or
/// stream elsewhere). A latency figure is the mean over groups of each
/// group's quantile, so a run's figure cannot jump between groups the way
/// the quantile of their mixture can.
///
/// Every round starts with a fixed probe computation owned by the
/// benchmark; its median time over the run is `bench.ref_ms`, the
/// machine's own speed while the run ran.
pub struct Samples {
    /// Set-up builds.
    setup: Series,
    /// Full answers (stream: one round's arrival latencies, summarised).
    query: Vec<Series>,
    /// 90th percentile companion of `query` when rounds are summarised.
    query_p90: Vec<Series>,
    /// Full answers by the pool index of their query DAG (dynamic
    /// workloads only), for the tail over the query mix.
    by_dag: Vec<Series>,
    /// Open to first point.
    first: Vec<Series>,
    /// Open to k-th point.
    topk: Vec<Series>,
    /// Loop operations completed and time the client spent waiting on
    /// the library.
    ops: u64,
    busy: Duration,
    /// Probe time per round.
    probes: Vec<Duration>,
    probe_rows: Vec<u32>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations whose answer failed its check.
    pub failed: u64,
}

fn ms32(d: Duration) -> f32 {
    (d.as_secs_f64() * 1e3) as f32
}

impl Samples {
    /// Empty samples for `groups` groups, with room for `rounds` rounds
    /// reserved up front: growing by reallocation would make the run's
    /// peak memory jump with the number of rounds, that is with the
    /// program's speed.
    pub fn new(groups: usize, rounds: usize) -> Samples {
        let series = || vec![Series::with_capacity(rounds); groups];
        let mut x: u64 = 0x0BAD_5EED;
        let probe_rows = (0..3 * 2000)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x % 10_000) as u32
            })
            .collect();
        Samples {
            setup: Series::with_capacity(rounds),
            query: series(),
            query_p90: series(),
            by_dag: Vec::new(),
            first: series(),
            topk: series(),
            ops: 0,
            busy: Duration::ZERO,
            probes: Vec::with_capacity(rounds),
            probe_rows,
            attempted: 0,
            failed: 0,
        }
    }

    /// Records a set-up build.
    pub fn setup(&mut self, d: Duration) {
        self.setup.push(ms32(d));
    }

    /// Records a full answer of group `g`.
    pub fn query(&mut self, g: usize, d: Duration) {
        self.query[g].push(ms32(d));
        self.ops += 1;
        self.busy += d;
    }

    /// Files a full answer's latency, already recorded as a query or a
    /// pull, under the pool index of its query DAG.
    pub fn dag_latency(&mut self, dag: usize, d: Duration) {
        if self.by_dag.len() <= dag {
            self.by_dag.resize_with(dag + 1, Series::new);
        }
        self.by_dag[dag].push(ms32(d));
    }

    /// Records a round's worth of operations of group `g` by their median
    /// and 90th percentile only — for microsecond-scale operations whose
    /// every sample would make the benchmark's memory grow with the
    /// program's speed.
    pub fn query_round(&mut self, g: usize, times: &mut [Duration]) {
        times.sort_unstable();
        let at =
            |q: f64| times[((q * times.len() as f64).ceil() as usize).clamp(1, times.len()) - 1];
        self.query[g].push(ms32(at(0.5)));
        self.query_p90[g].push(ms32(at(0.9)));
        self.ops += times.len() as u64;
        self.busy += times.iter().sum::<Duration>();
    }

    /// Records a top-k pull of group `g`: time to the first and to the
    /// k-th point.
    pub fn pull(&mut self, g: usize, first: Duration, k: Duration) {
        self.first[g].push(ms32(first));
        self.topk[g].push(ms32(k));
        self.ops += 1;
        self.busy += k;
    }

    /// Records a round's back-to-back top-k pulls of group `g` by their
    /// median times to the first and to the k-th point: one pull of a
    /// microsecond-scale cursor is too short a sample to time alone.
    pub fn pull_round(&mut self, g: usize, pulls: &[(Duration, Duration)]) {
        let median_ms = |mut t: Vec<Duration>| {
            t.sort_unstable();
            ms32(t[(t.len() - 1) / 2])
        };
        self.first[g].push(median_ms(pulls.iter().map(|p| p.0).collect()));
        self.topk[g].push(median_ms(pulls.iter().map(|p| p.1).collect()));
        self.ops += pulls.len() as u64;
        self.busy += pulls.iter().map(|p| p.1).sum::<Duration>();
    }

    /// Counts one checked operation.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// Times the probe: the faster of two back-to-back passes of the
    /// reference scan over 2 000 fixed rows (the first may pay for caches
    /// the round before it evicted).
    fn probe(&mut self) {
        let rows = Rows {
            to_dims: 3,
            to: &self.probe_rows,
            po: &[],
            closures: &[],
        };
        let probe = (0..2)
            .map(|_| {
                let t = Instant::now();
                std::hint::black_box(rows.skyline());
                t.elapsed()
            })
            .min()
            .expect("two passes");
        self.probes.push(probe);
    }

    /// Rounds run so far.
    pub fn rounds(&self) -> usize {
        self.probes.len()
    }

    /// Median probe time over the run's rounds, in ms (`bench.ref_ms`).
    pub fn ref_ms(&self) -> f64 {
        let ms: Vec<f64> = self.probes.iter().map(|p| p.as_secs_f64() * 1e3).collect();
        quantile(&ms, 0.5)
    }

    /// The end-to-end metric set, identical in name and unit for every
    /// workload (`peak_rss_mb` is appended by the caller).
    ///
    /// Where latencies were filed by query DAG, `query_ms_p90` is the 90th
    /// percentile over the DAGs of each DAG's median latency: the tail of
    /// the query mix, not of the scheduler. A stalled sample (a preempted
    /// process) lands in the plain 90th percentile of all samples whatever
    /// DAG it served; the DAG's median drops it. With two worker processes
    /// per sharded query, over five 30 s sharded-indep runs, two of them in
    /// the shared host's slow state, the plain percentile rose 1.51× from
    /// the fast runs to the slow ones, the median 1.34× and this tail
    /// 1.33×.
    pub fn end_to_end(&mut self) -> Vec<Metric> {
        let summarised = self.query_p90.iter().any(|s| !s.is_empty());
        let p90 = if !self.by_dag.is_empty() {
            let mut medians: Vec<f32> = self
                .by_dag
                .iter_mut()
                .filter_map(|s| series_quantile(s, 0.5))
                .map(|m| m as f32)
                .collect();
            series_quantile(&mut medians, 0.9).unwrap_or(0.0)
        } else if summarised {
            over_groups(&mut self.query_p90, 0.5)
        } else {
            over_groups(&mut self.query, 0.9)
        };
        vec![
            metric(
                "setup_s",
                series_quantile(&mut self.setup, 0.5).unwrap_or(0.0) / 1e3,
                "s",
            ),
            metric("query_ms_p50", over_groups(&mut self.query, 0.5), "ms"),
            metric("query_ms_p90", p90, "ms"),
            metric("first_ms_p50", over_groups(&mut self.first, 0.5), "ms"),
            metric("topk_ms_p50", over_groups(&mut self.topk, 0.5), "ms"),
            metric(
                "queries_per_s",
                ratio(self.ops as f64, self.busy.as_secs_f64()),
                "1/s",
            ),
        ]
    }
}

/// Shorthand constructor.
pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Runs whole rounds until `seconds` have passed, at least one, each
/// preceded by the probe of `samples`.
pub fn closed_loop(
    seconds: f64,
    samples: &mut Samples,
    mut round: impl FnMut(usize, &mut Samples),
) {
    let started = Instant::now();
    let mut r = 0;
    loop {
        samples.probe();
        round(r, samples);
        r += 1;
        if started.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
}

/// Times `f` once, in a span when tracing.
pub fn timed<T>(
    tracer: &Tracer,
    op: u64,
    name: &'static str,
    f: impl FnOnce() -> T,
) -> (T, Duration) {
    let t = Instant::now();
    let out = tracer.span(op, name, f);
    (out, t.elapsed())
}

/// The per-layer metric names every traced run reports, with units; a
/// layer a workload does not exercise reads 0.
pub const LAYER_METRICS: [(&str, &str); 29] = [
    ("poset.label_ms", "ms"),
    ("session.hit_ratio", "ratio"),
    ("rtree.bulk_load_ms", "ms"),
    ("rtree.pages_per_op", "count"),
    ("rtree.pages_to_first", "count"),
    ("stss.build_ms", "ms"),
    ("stss.heap_pops_per_op", "count"),
    ("skyline.pair_checks_per_op", "count"),
    ("skyline.lane_fill", "ratio"),
    ("skyline.pair_check_ns", "ns"),
    ("dtss.build_ms", "ms"),
    ("dtss.groups_skipped_ratio", "ratio"),
    ("streaming.insert_us_p50", "us"),
    ("streaming.repair_us_p50", "us"),
    ("streaming.repair_us_p99", "us"),
    ("streaming.repairs_per_update", "ratio"),
    ("streaming.candidates_per_repair", "count"),
    ("parallel.plan_ms", "ms"),
    ("parallel.plan_excess", "ratio"),
    ("parallel.merge_checks_per_op", "count"),
    ("parallel.merge_ms_per_op", "ms"),
    ("ipc.encode_ms_per_op", "ms"),
    ("ipc.bytes_per_op", "bytes"),
    ("ipc.exec_ms_per_op", "ms"),
    ("executor.retries", "count"),
    ("executor.fallbacks", "count"),
    ("ipc.worker_crashes", "count"),
    ("ipc.worker_timeouts", "count"),
    ("ipc.frames_corrupted", "count"),
];

/// Fills in every per-layer metric: the workload's own values where it
/// measured them, 0 for layers it does not exercise.
pub fn layer_metrics(measured: &[(&str, f64)]) -> Vec<Metric> {
    LAYER_METRICS
        .iter()
        .map(|&(name, unit)| {
            let value = measured
                .iter()
                .find(|(n, _)| *n == name)
                .map_or(0.0, |&(_, v)| v);
            metric(name, value, unit)
        })
        .collect()
}

/// Self time per span name of a finished trace, in ms.
pub fn self_ms(tracer: &Tracer, name: &str) -> f64 {
    crate::trace::totals(&tracer.spans())
        .get(name)
        .map_or(0.0, |t| t.self_ns as f64 / 1e6)
}

/// Number of spans of one name in a finished trace.
pub fn span_count(tracer: &Tracer, name: &str) -> f64 {
    crate::trace::totals(&tracer.spans())
        .get(name)
        .map_or(0.0, |t| t.count as f64)
}

/// Lane fill of a batched kernel: pairs examined over lane slots issued.
pub fn lane_fill(m: &tss_core::Metrics) -> f64 {
    ratio(
        m.dominance_checks as f64,
        (m.kernel_chunks * tss_core::LANES as u64) as f64,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sessions_repeat_a_quarter_of_their_dags() {
        let store = PointStore::new(1, 1);
        let dag = Dag::from_edges(4, &[(0, 1), (1, 2), (0, 3)]).expect("acyclic");
        let pool = QueryPool::new(&store, &dag, 48);
        for round in 0..5 {
            let s = pool.session(round);
            let mut distinct = s.to_vec();
            distinct.sort_unstable();
            distinct.dedup();
            assert_eq!(distinct.len(), 12, "round {round}: {s:?}");
        }
        assert_ne!(pool.session(0), pool.session(1));
    }

    #[test]
    fn dag_tail_is_taken_over_dag_medians() {
        let mut s = Samples::new(1, 8);
        let ms = |x: u64| Duration::from_millis(x);
        // Ten DAGs of cost 1..=10 ms, each with one stalled sample.
        for dag in 0..10 {
            for x in [1, 1, 30] {
                let d = ms(x * (dag as u64 + 1));
                s.query(0, d);
                s.dag_latency(dag, d);
            }
        }
        let p90 = s.end_to_end()[2].value;
        assert_eq!(p90, 9.0);
    }

    #[test]
    fn permutation_keeps_shape() {
        let dag = Dag::from_edges(5, &[(0, 1), (1, 2), (0, 3), (3, 4)]).expect("acyclic");
        let q = permuted(&dag, &mut SplitMix::new(9));
        assert_eq!(q.len(), dag.len());
        assert_eq!(q.num_edges(), dag.num_edges());
        assert_eq!(q.height(), dag.height());
    }
}
