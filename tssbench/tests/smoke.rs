//! The benchmark's own checks: the reference skyline agrees with the
//! library's brute-force oracle, every workload runs clean at smoke size
//! on the default and the second seed, traced runs report every layer,
//! and the command refuses a `TSS_*` environment.

use poset::generator::random_dag;
use std::process::Command;
use tss_core::{brute_force_po_skyline, PoDomain, PointStore, WorkerSpec};
use tssbench::reference::{Closure, Rows};
use tssbench::{RunConfig, Size, Workload, DEFAULT_SEED, SECOND_SEED};

const BIN: &str = env!("CARGO_BIN_EXE_tssbench");

const END_TO_END: [&str; 7] = [
    "setup_s",
    "query_ms_p50",
    "query_ms_p90",
    "first_ms_p50",
    "topk_ms_p50",
    "queries_per_s",
    "peak_rss_mb",
];

fn smoke(workload: Workload, seed: u64, trace: bool) -> RunConfig {
    RunConfig {
        workload,
        seed,
        seconds: 0.0,
        trace,
        size: Size::Smoke,
        worker: WorkerSpec::new(BIN, ["--tss-worker"]),
    }
}

/// A small xorshift stream for the random inputs below.
fn stream(seed: u64) -> impl FnMut(u32) -> u32 {
    let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    move |bound| {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        (x % u64::from(bound)) as u32
    }
}

#[test]
fn reference_agrees_with_the_brute_force_oracle() {
    for seed in 1..=40u64 {
        let mut rnd = stream(seed);
        let to_dims = 1 + rnd(3) as usize;
        let po_dims = rnd(3) as usize;
        let n = 1 + rnd(80) as usize;
        // Small TO domains so ties and identical rows occur.
        let to_domain = 2 + rnd(12);
        let dags: Vec<_> = (0..po_dims)
            .map(|d| random_dag(2 + rnd(12), 1 + rnd(4), 0.4, seed * 7 + d as u64))
            .collect();
        let to: Vec<u32> = (0..n * to_dims).map(|_| rnd(to_domain)).collect();
        let po: Vec<u32> = (0..n)
            .flat_map(|_| dags.iter().map(|d| d.len() as u32).collect::<Vec<_>>())
            .map(&mut rnd)
            .collect();
        let table = PointStore::from_parts(to_dims, po_dims, to.clone(), po.clone())
            .expect("well-shaped rows");
        let domains: Vec<PoDomain> = dags.iter().cloned().map(PoDomain::new).collect();
        let mut oracle = brute_force_po_skyline(&domains, &table);
        oracle.sort_unstable();
        let closures: Vec<Closure> = dags.iter().map(Closure::of).collect();
        let rows = Rows {
            to_dims,
            to: &to,
            po: &po,
            closures: &closures,
        };
        assert_eq!(
            rows.skyline(),
            oracle,
            "seed {seed}: n={n} to={to_dims} po={po_dims}"
        );
    }
}

#[test]
fn every_workload_runs_clean_on_both_seeds() {
    for workload in Workload::ALL {
        for seed in [DEFAULT_SEED, SECOND_SEED] {
            let report = tssbench::run(&smoke(workload, seed, false))
                .unwrap_or_else(|e| panic!("{} seed {seed}: {e}", workload.name()));
            assert!(report.attempted > 0, "{}", workload.name());
            assert_eq!(report.failed, 0, "{} seed {seed}", workload.name());
            let names: Vec<&str> = report.metrics.iter().map(|m| m.name).collect();
            assert_eq!(names, END_TO_END, "{}", workload.name());
            for m in &report.metrics {
                assert!(
                    m.value > 0.0 && m.value.is_finite(),
                    "{} seed {seed}: {} = {}",
                    workload.name(),
                    m.name,
                    m.value
                );
            }
        }
    }
}

#[test]
fn traced_runs_report_every_layer() {
    let mut names: Option<Vec<&str>> = None;
    for workload in Workload::ALL {
        let cfg = smoke(workload, DEFAULT_SEED, true);
        let report = tssbench::run(&cfg).unwrap_or_else(|e| panic!("{}: {e}", workload.name()));
        assert_eq!(report.failed, 0, "{}", workload.name());
        let these: Vec<&str> = report.metrics.iter().map(|m| m.name).collect();
        assert!(these.contains(&"bench.ref_ms") && these.contains(&"poset.label_ms"));
        // Every workload reports the same names, zero where a layer is idle.
        assert_eq!(names.get_or_insert(these.clone()), &these);
        assert!(report.get("bench.ref_ms").is_some_and(|v| v > 0.0));
        assert!(tssbench::trace_path(&cfg).exists());
    }
    let layer = |w: Workload, name: &str| {
        tssbench::run(&smoke(w, SECOND_SEED, true))
            .expect("traced run")
            .get(name)
            .expect("reported")
    };
    assert!(layer(Workload::StaticAnti, "stss.heap_pops_per_op") > 0.0);
    assert!(layer(Workload::DynamicIndep, "session.hit_ratio") > 0.0);
    assert!(layer(Workload::StreamAnti, "streaming.repairs_per_update") > 0.0);
    assert!(layer(Workload::ShardedIndep, "ipc.bytes_per_op") > 0.0);
}

#[test]
fn the_command_prints_one_result_line() {
    let out = Command::new(BIN)
        .args(["--workload", "stream-anti", "--seed", "3", "--seconds", "0"])
        .args(["--trace", "0", "--smoke"])
        .output()
        .expect("runs");
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).expect("utf-8");
    let last = stdout.lines().last().expect("a result line");
    assert!(
        last.starts_with("{\"correct\": true, \"attempted\": "),
        "{last}"
    );
    assert!(last.contains("\"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": "));
}

#[test]
fn the_command_refuses_a_tss_environment() {
    for var in ["TSS_KERNEL", "TSS_FAULTS", "TSS_ANYTHING"] {
        let out = Command::new(BIN)
            .args(["--workload", "static-anti", "--seed", "1", "--seconds", "0"])
            .args(["--trace", "0", "--smoke"])
            .env(var, "1")
            .output()
            .expect("runs");
        assert!(!out.status.success(), "{var} was accepted");
        assert!(out.stdout.is_empty(), "{var}: printed a result");
    }
}

#[test]
fn the_command_rejects_bad_arguments() {
    for args in [
        &[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
        &["--workload", "static-anti", "--seed", "1", "--seconds", "1"][..],
        &[
            "--workload",
            "static-anti",
            "--seed",
            "x",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
        &[
            "--workload",
            "static-anti",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "2",
        ][..],
    ] {
        let out = Command::new(BIN).args(args).output().expect("runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty());
    }
}
