//! The three union-find merges — exact Step 2, the Algorithm-2 merge
//! inside `S*` and the streaming offline merge — are one sequential
//! pass each, so the work they do cannot depend on the thread count.
//! This pins their counters, the exact solver's distance evaluations
//! and every solver's pruning ledger to one value across 1, 2 and 8
//! threads, with pruning on and off, over Euclidean blobs and
//! Levenshtein strings.

use mdbscan_core::{
    ApproxParams, DbscanParams, ExactConfig, MetricDbscan, ParallelConfig, RunDetail,
};
use mdbscan_datagen::{blobs, string_clusters, BlobSpec, StringSpec};
use mdbscan_metric::{BatchMetric, Euclidean, Levenshtein, PruneStats, PruningConfig};

const THREADS: [usize; 3] = [1, 2, 8];

/// At ρ = 1 one engine at `r̄ = ε/2` serves all three solvers.
const RHO: f64 = 1.0;

/// The work counters of one exact, one approx and one streaming run.
#[derive(Debug, PartialEq)]
struct MergeWork {
    bcp_tests: u64,
    bcp_connected: u64,
    merge_evals: u64,
    distance_evals: u64,
    exact_pruning: PruneStats,
    approx_merge_pairs_tested: u64,
    approx_merge_evals: u64,
    approx_pruning: PruneStats,
    streaming_merge_pairs_tested: u64,
    streaming_pruning: PruneStats,
}

fn merge_work<P, M>(
    points: &[P],
    metric: &M,
    eps: f64,
    min_pts: usize,
    threads: usize,
    pruning: PruningConfig,
) -> MergeWork
where
    P: Clone + Send + Sync + 'static,
    M: BatchMetric<P> + Clone + Send + Sync + 'static,
{
    let parallel = ParallelConfig::new(threads);
    let params = DbscanParams::new(eps, min_pts).unwrap();
    let aparams = ApproxParams::new(eps, min_pts, RHO).unwrap();
    let engine = MetricDbscan::builder(points.to_vec(), metric.clone())
        .rbar(aparams.rbar())
        .parallel(parallel)
        .pruning(pruning)
        .build()
        .unwrap();
    let cfg = ExactConfig {
        parallel,
        pruning,
        count_distance_evals: true,
        ..ExactConfig::default()
    };
    let exact = engine.exact_with(&params, &cfg).unwrap();
    let e = exact.report.exact_stats().unwrap();
    assert!(
        e.bcp_tests > 0,
        "the workload must reach Step 2's BCP tests"
    );
    let approx = engine.approx(&aparams).unwrap();
    let a = approx.report.approx_stats().unwrap();
    let streaming = engine.streaming(&aparams).unwrap();
    let RunDetail::Streaming { stats, .. } = streaming.report.detail else {
        unreachable!("a streaming run reports streaming stats")
    };
    MergeWork {
        bcp_tests: e.bcp_tests,
        bcp_connected: e.bcp_connected,
        merge_evals: e.merge_evals,
        distance_evals: e.distance_evals,
        exact_pruning: e.pruning,
        approx_merge_pairs_tested: a.merge_pairs_tested,
        approx_merge_evals: a.merge_evals,
        approx_pruning: a.pruning,
        streaming_merge_pairs_tested: stats.merge_pairs_tested,
        streaming_pruning: stats.pruning,
    }
}

fn assert_thread_invariant<P, M>(name: &str, points: &[P], metric: &M, eps: f64, min_pts: usize)
where
    P: Clone + Send + Sync + 'static,
    M: BatchMetric<P> + Clone + Send + Sync + 'static,
{
    for pruning in [PruningConfig::default(), PruningConfig::off()] {
        let at = |threads| merge_work(points, metric, eps, min_pts, threads, pruning);
        let reference = at(THREADS[0]);
        for &threads in &THREADS[1..] {
            assert_eq!(
                at(threads),
                reference,
                "{name}, pruning {}: {threads} threads vs 1",
                pruning.enabled
            );
        }
    }
}

#[test]
fn euclidean_blob_merges_do_the_same_work_at_every_thread_count() {
    let points = blobs(
        &BlobSpec {
            n: 3000,
            dim: 2,
            clusters: 4,
            std: 1.0,
            center_box: 12.0,
            outlier_frac: 0.03,
        },
        7,
    )
    .into_parts()
    .0;
    assert_thread_invariant("blobs", &points, &Euclidean, 0.5, 8);
}

#[test]
fn levenshtein_string_merges_do_the_same_work_at_every_thread_count() {
    let words = string_clusters(
        &StringSpec {
            n: 400,
            clusters: 4,
            seed_len: 12,
            max_edits: 2,
            alphabet: b"abcd",
            outlier_frac: 0.05,
        },
        3,
    )
    .into_parts()
    .0;
    assert_thread_invariant("strings", &words, &Levenshtein, 2.0, 4);
}
