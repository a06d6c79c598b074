//! Thread-scaling report for the exact and ρ-approximate pipelines:
//! solves one ≥100k-point blob set at 1/2/4/8 worker threads, checks
//! the labels are byte-identical to the 1-thread run, and records
//! wall-clock and distance-evaluation counts per thread setting.
//!
//! It also measures the pruning baseline: per solver (exact / approx /
//! covertree / streaming) and per pruning setting, the wall-clock (the
//! median of five calls on one cache-free engine), the
//! distance-evaluation count, and the bound-accept/reject/anchor
//! counters — asserting along the way that the five calls agree, that
//! labels are byte-identical with pruning on vs off and that the
//! counters are self-consistent.
//!
//! Stdout carries exactly one JSON document holding both panels
//! (`runs` and `solvers`); the bin writes no file.
//! `BENCH_distance_evals.json` is the checked-in record of the pruning
//! panel at n = 5k; re-record it with a redirect:
//! `cargo run --release -p mdbscan_bench --bin thread_scaling -- --scale 0.05 > BENCH_distance_evals.json`.
//! CI runs the bin at that scale and requires every `solvers` row to
//! equal the record's in every field but `wall_ms`, so a change that
//! moves a work counter re-records the file.
//!
//! `--scale 0.1` shrinks the dataset for smoke runs; `--full` runs the
//! million-point panel regardless of `--scale`.

use mdbscan_bench::{timed, HarnessArgs};
use mdbscan_core::{
    ApproxParams, Clustering, DbscanParams, ExactConfig, MetricDbscan, ParallelConfig,
    Run as EngineRun,
};
use mdbscan_datagen::{blobs, BlobSpec};
use mdbscan_metric::{CountingMetric, Euclidean, PruneStats, PruningConfig};

const EPS: f64 = 1.0;
const MIN_PTS: usize = 10;
const RHO: f64 = 0.5;

struct Run {
    threads: usize,
    build_ms: f64,
    exact_ms: f64,
    approx_ms: f64,
    distance_evals: u64,
    labels_match: bool,
}

fn solve(
    pts: &[Vec<f64>],
    threads: usize,
    count: bool,
) -> (Clustering, Clustering, f64, f64, f64, u64) {
    let parallel = ParallelConfig::new(threads);
    let owned = pts.to_vec();
    let (engine, build_ms) = timed(move || {
        MetricDbscan::builder(owned, Euclidean)
            .rbar(RHO * EPS / 2.0)
            .parallel(parallel)
            .build()
            .expect("build engine")
    });
    let cfg = ExactConfig {
        parallel,
        count_distance_evals: count,
        ..ExactConfig::default()
    };
    let params = DbscanParams::new(EPS, MIN_PTS).expect("params");
    let (exact_run, exact_ms) = timed(|| engine.exact_with(&params, &cfg).expect("exact query"));
    let distance_evals = exact_run
        .report
        .exact_stats()
        .expect("exact run carries stats")
        .distance_evals;
    let aparams = ApproxParams::new(EPS, MIN_PTS, RHO).expect("approx params");
    let (approx_run, approx_ms) = timed(|| engine.approx(&aparams).expect("approx query"));
    (
        exact_run.clustering,
        approx_run.clustering,
        build_ms,
        exact_ms,
        approx_ms,
        distance_evals,
    )
}

fn main() {
    let args = HarnessArgs::parse();
    let n = if args.full {
        1_000_000
    } else {
        (100_000.0 * args.scale) as usize
    };
    let pts = blobs(
        &BlobSpec {
            n,
            dim: 2,
            clusters: 8,
            std: 1.0,
            center_box: 40.0,
            outlier_frac: 0.01,
        },
        args.seed,
    )
    .into_parts()
    .0;

    let (base_exact, base_approx, ..) = solve(&pts, 1, false);
    let mut runs: Vec<Run> = Vec::new();
    for threads in [1usize, 2, 4, 8] {
        // Timed pass without counting (the counter atomic is contended);
        // separate counted pass for the work numbers.
        let (exact, approx, build_ms, exact_ms, approx_ms, _) = solve(&pts, threads, false);
        let (_, _, _, _, _, distance_evals) = solve(&pts, threads, true);
        runs.push(Run {
            threads,
            build_ms,
            exact_ms,
            approx_ms,
            distance_evals,
            labels_match: exact.labels() == base_exact.labels()
                && approx.labels() == base_approx.labels(),
        });
    }

    assert!(
        runs.iter().all(|r| r.labels_match),
        "cluster labels diverged across thread counts"
    );
    let solvers = distance_evals_baseline(&pts);

    let t1_total = runs[0].build_ms + runs[0].exact_ms;
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"bench\": \"thread_scaling\",\n");
    json.push_str(&format!("  \"n\": {n},\n"));
    json.push_str(&format!(
        "  \"eps\": {EPS}, \"min_pts\": {MIN_PTS}, \"rho\": {RHO},\n"
    ));
    json.push_str(&format!(
        "  \"available_parallelism\": {},\n",
        ParallelConfig::available()
    ));
    json.push_str("  \"runs\": [\n");
    for (i, r) in runs.iter().enumerate() {
        let total = r.build_ms + r.exact_ms;
        let sep = if i + 1 == runs.len() { "" } else { "," };
        json.push_str(&format!(
            "    {{\"threads\": {}, \"build_ms\": {:.2}, \"exact_ms\": {:.2}, \"approx_ms\": {:.2}, \"total_ms\": {:.2}, \"speedup_vs_1t\": {:.3}, \"distance_evals\": {}, \"labels_match_1t\": {}}}{sep}\n",
            r.threads, r.build_ms, r.exact_ms, r.approx_ms, total, t1_total / total,
            r.distance_evals, r.labels_match,
        ));
    }
    json.push_str("  ],\n");
    json.push_str("  \"solvers\": [\n");
    for (i, r) in solvers.iter().enumerate() {
        let sep = if i + 1 == solvers.len() { "" } else { "," };
        json.push_str(&format!(
            "    {{\"solver\": \"{}\", \"pruning\": {}, \"wall_ms\": {:.2}, \"distance_evals\": {}, \"bound_accepts\": {}, \"bound_rejects\": {}, \"anchor_evals\": {}, \"distance_evals_saved\": {}}}{sep}\n",
            r.solver,
            r.pruning,
            r.wall_ms,
            r.distance_evals,
            r.bounds.bound_accepts,
            r.bounds.bound_rejects,
            r.bounds.anchor_evals,
            r.bounds.distance_evals_saved(),
        ));
    }
    json.push_str("  ]\n");
    json.push_str("}\n");
    print!("{json}");
}

/// Calls timed per pruning-baseline row; the row's `wall_ms` is their
/// median.
const ROW_CALLS: usize = 5;

/// One row of the pruning baseline.
struct EvalRow {
    solver: &'static str,
    pruning: bool,
    wall_ms: f64,
    distance_evals: u64,
    bounds: PruneStats,
}

/// Runs every solver with pruning on and off over a `CountingMetric`,
/// asserts the labels are byte-identical and the counters sane, and
/// returns one row per (solver, pruning setting).
fn distance_evals_baseline(pts: &[Vec<f64>]) -> Vec<EvalRow> {
    let aparams = ApproxParams::new(EPS, MIN_PTS, RHO).expect("approx params");
    let params = DbscanParams::new(EPS, MIN_PTS).expect("params");
    let mut rows: Vec<EvalRow> = Vec::new();
    let mut labels: std::collections::HashMap<(&'static str, bool), Clustering> =
        std::collections::HashMap::new();
    for pruning_on in [false, true] {
        let pruning = if pruning_on {
            PruningConfig::default()
        } else {
            PruningConfig::off()
        };
        // cache_capacity(0): every query recomputes, so the counters
        // compare like for like between the two settings.
        let engine = MetricDbscan::builder(pts.to_vec(), CountingMetric::new(Euclidean))
            .rbar(RHO * EPS / 2.0)
            .pruning(pruning)
            .cache_capacity(0)
            .build()
            .expect("build engine");
        // One call's wall-clock is noise on a shared host: time
        // ROW_CALLS calls and keep the median. With no cache they must
        // all do the same work and return the same labels.
        let mut measure = |solver: &'static str, call: &dyn Fn() -> EngineRun| {
            let mut times = [0.0f64; ROW_CALLS];
            let mut first: Option<(EngineRun, u64)> = None;
            for t in &mut times {
                let (run, ms) = timed(call);
                let evals = engine.metric().reset();
                *t = ms;
                match &first {
                    Some((r0, e0)) => assert!(
                        run.clustering == r0.clustering
                            && run.report.pruning == r0.report.pruning
                            && evals == *e0,
                        "{solver}: repeated calls on a cache-free engine disagree"
                    ),
                    None => first = Some((run, evals)),
                }
            }
            times.sort_by(f64::total_cmp);
            let (run, evals) = first.expect("ROW_CALLS > 0");
            rows.push(EvalRow {
                solver,
                pruning: pruning_on,
                wall_ms: times[ROW_CALLS / 2],
                distance_evals: evals,
                bounds: run.report.pruning,
            });
            labels.insert((solver, pruning_on), run.clustering);
        };
        engine.metric().reset();
        measure("exact", &|| engine.exact(&params).expect("exact"));
        measure("approx", &|| engine.approx(&aparams).expect("approx"));
        measure("covertree", &|| {
            engine.covertree(&params).expect("covertree")
        });
        measure("streaming", &|| {
            engine.streaming(&aparams).expect("streaming")
        });
    }

    // Self-consistency: identical labels per solver, zeroed counters
    // with pruning off, live counters (and no extra work) with it on.
    for solver in ["exact", "approx", "covertree", "streaming"] {
        assert_eq!(
            labels[&(solver, false)],
            labels[&(solver, true)],
            "{solver}: pruning changed the labels"
        );
        let off = rows
            .iter()
            .find(|r| r.solver == solver && !r.pruning)
            .expect("off row");
        let on = rows
            .iter()
            .find(|r| r.solver == solver && r.pruning)
            .expect("on row");
        assert_eq!(
            off.bounds,
            PruneStats::default(),
            "{solver}: pruning-off must report zero bound counters"
        );
        assert!(
            on.bounds.bound_accepts + on.bounds.bound_rejects > 0,
            "{solver}: bounds never fired on clustered data"
        );
        if solver == "exact" || solver == "approx" {
            assert!(
                on.distance_evals <= off.distance_evals,
                "{solver}: pruning increased evals ({} vs {})",
                on.distance_evals,
                off.distance_evals
            );
        }
    }

    rows
}
