//! # Metric DBSCAN — exact, ρ-approximate, and streaming
//!
//! This crate implements the algorithms of
//!
//! > Mo, Song, Ding. *Towards Metric DBSCAN: Exact, Approximate, and
//! > Streaming Algorithms.* SIGMOD 2024.
//!
//! for density-based clustering in **general metric spaces** — the only
//! structure the algorithms use is a [`mdbscan_metric::Metric`]
//! oracle, so points may be vectors, strings under edit distance, or any
//! user type. Under the paper's standing assumption (inliers of low
//! doubling dimension `D`, up to `z` unconstrained outliers) every
//! algorithm here runs in time **linear in `n`**.
//!
//! ## The engine
//!
//! The primary API is [`MetricDbscan`]: an **owned, `Send + Sync`,
//! `Arc`-shareable, epoch-based engine** serving all four solvers
//! behind one surface — and able to **ingest new points while
//! serving** ([`MetricDbscan::ingest`]; each batch publishes an
//! immutable [`EngineSnapshot`] readers query lock-free, and every
//! cached artifact is keyed by epoch so stale entries are unreachable
//! by construction). Every entry point returns a [`Run`] — the
//! [`Clustering`] plus a unified [`RunReport`] with timings, solver
//! stats, and cache telemetry:
//!
//! | entry point | paper | guarantee |
//! |---|---|---|
//! | [`MetricDbscan::exact`] | §3.1 | exact DBSCAN clusters, `O(n((Δ/ε)^D + z log(ε/δ)) t_dis)` |
//! | [`MetricDbscan::covertree`] | §3.2 | exact, `O(n log Φ · t_dis)` when the *whole* input doubles |
//! | [`MetricDbscan::approx`] | Alg. 2 | ρ-approximate DBSCAN (Gan–Tao semantics), `O(n((Δ/ρε)^D + z) t_dis)` |
//! | [`MetricDbscan::streaming`] / [`MetricDbscan::streaming_session`] | Alg. 3 | 3-pass streaming ρ-approximate, memory `O((Δ/ρε)^D + z)` |
//!
//! One-shot conveniences remain for scripts: [`exact_dbscan`],
//! [`approx_dbscan`], [`exact_dbscan_covertree`], and the raw
//! [`StreamingApproxDbscan`] engine.
//!
//! ## Parameter tuning for free (Remark 5/6) — now with caching
//!
//! The expensive pre-processing — the radius-guided Gonzalez net —
//! depends only on the radius bound `r̄`, not on `(ε, MinPts, ρ)`. Build
//! the engine once with `r̄ ≤ ε₀/2` and solve for as many parameter
//! settings as you like; only the cheap per-query steps re-run. On top,
//! the engine keeps an LRU of the `(ε, MinPts)`-derived Step-1/2
//! results (core flags, fragments and Step 2's component map), so
//! *repeating* a setting (dashboards, A/B probes, concurrent users
//! asking the same question) skips Steps 1 and 2 and runs Step 3 only —
//! check [`RunReport::cache_hit`]:
//!
//! ```
//! use mdbscan_core::{DbscanParams, MetricDbscan};
//! use mdbscan_metric::Euclidean;
//!
//! let pts: Vec<Vec<f64>> = (0..200).map(|i| vec![(i % 20) as f64, (i / 20) as f64]).collect();
//! let engine = MetricDbscan::builder(pts, Euclidean).rbar(0.5).build().unwrap();
//! for eps in [1.0, 1.5, 2.0, 1.0] {
//!     let run = engine.exact(&DbscanParams::new(eps, 4).unwrap()).unwrap();
//!     println!(
//!         "eps={eps}: {} clusters (cache {})",
//!         run.clustering.num_clusters(),
//!         if run.report.cache_hit { "hit" } else { "miss" },
//!     );
//! }
//! assert_eq!(engine.cache_stats().hits, 1); // the repeated eps=1.0 probe
//! ```
//!
//! ## Threading model
//!
//! Every hot phase is data-parallel over scoped threads, controlled by
//! one knob — [`ParallelConfig`] — which defaults to the machine's
//! available parallelism and threads through
//! [`mdbscan_kcenter::BuildOptions::parallel`] (Algorithm 1 build),
//! [`MetricDbscanBuilder::parallel`] (stored on the engine, reused by
//! queries), and [`ExactConfig::parallel`] (per-query override for the
//! exact steps).
//!
//! What scales with cores:
//!
//! | phase | parallel over |
//! |---|---|
//! | Algorithm 1 sweep + farthest-point reduction | points |
//! | center adjacency (`A` sets) | upper-triangle center rows |
//! | Step 1 core labeling / Algorithm 2 core tests | points / centers |
//! | Step 3 border assignment / Algorithm 2 labeling | points |
//! | streaming pass 3 | stream blocks |
//!
//! Cover-tree construction for the §3.2 variant and streaming passes
//! 1–2 are inherently sequential (each insert/arrival depends on the
//! state so far). So are the three union-find merges — exact Step 2,
//! the Algorithm-2 merge inside `S*` and the streaming offline merge:
//! each tests a candidate pair, unites on success, and skips later pairs
//! already connected, in one pass.
//!
//! **Determinism is unconditional**: chunks are contiguous in index
//! order, reductions combine per-chunk results in chunk order with ties
//! broken toward the smaller index, the merges do not depend on the
//! thread count, and cached artifacts are deterministic functions of
//! `(net, ε, MinPts)` — so cluster labels are bit-identical across
//! thread counts, across concurrent engine queries, and across cache
//! hits vs. cold runs. The work counters of the merges
//! ([`ExactStats::bcp_tests`], `merge_evals`, `merge_pairs_tested`), the
//! pruning ledgers and the exact solver's distance evaluations are the
//! same for every thread count too; only a cache hit, which skips the
//! phases it replays, counts less.
#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod approx;
mod engine;
mod error;
mod exact;
mod exact_covertree;
mod labels;
mod netview;
mod params;
mod persist;
mod steps;
mod store;
mod streaming;
mod unionfind;

pub use approx::ApproxStats;
pub use engine::{
    AlgorithmKind, CacheStats, CandidateIndex, EngineSnapshot, IngestReport, MetricDbscan,
    MetricDbscanBuilder, NetStrategy, Run, RunDetail, RunReport,
};
pub use error::DbscanError;
pub use exact::{ExactConfig, ExactStats};
pub use exact_covertree::{
    exact_dbscan_covertree, exact_dbscan_covertree_with, CoverTreeExactStats,
};
pub use labels::{Clustering, PointLabel};
pub use mdbscan_grid::CandidateStats;
pub use mdbscan_obs::{Event, MetricsRecorder, NoopRecorder, Phase, Recorder};
pub use mdbscan_parallel::ParallelConfig;
pub use mdbscan_rp::{RpConfig, RpStats};
pub use params::{ApproxParams, DbscanParams};
pub use persist::LoadStats;
pub use streaming::{StreamingApproxDbscan, StreamingFootprint, StreamingStats};
pub use unionfind::UnionFind;

use mdbscan_kcenter::{BuildOptions, RadiusGuidedNet};
use mdbscan_metric::BatchMetric;

/// One-shot exact metric DBSCAN (§3.1) over borrowed points: builds the
/// `ε/2`-net with Algorithm 1, then labels cores, merges the core
/// fragments of neighboring balls whose closest pair is within `ε`, and
/// classifies borders/outliers. See [`MetricDbscan`] to amortize the net
/// (and the Step-1/2 results) across parameter settings.
pub fn exact_dbscan<P: Sync, M: BatchMetric<P> + Sync>(
    points: &[P],
    metric: &M,
    eps: f64,
    min_pts: usize,
) -> Result<Clustering, DbscanError> {
    let params = DbscanParams::new(eps, min_pts)?;
    let net = build_net(points, metric, eps / 2.0)?;
    let cfg = ExactConfig::default();
    let out = steps::run_exact_steps(
        points,
        metric,
        &netview::NetView::of(&net),
        &params,
        &cfg,
        steps::StepsReuse::default(),
    );
    Ok(Clustering::from_labels(out.labels))
}

/// One-shot ρ-approximate metric DBSCAN (Algorithm 2) over borrowed
/// points: builds the `ρε/2`-net, constructs the core-point summary `S*`,
/// merges inside the summary at threshold `(1+ρ)ε`, and labels the rest
/// against it. See [`MetricDbscan::approx`] for the engine form.
pub fn approx_dbscan<P: Sync, M: BatchMetric<P> + Sync>(
    points: &[P],
    metric: &M,
    eps: f64,
    min_pts: usize,
    rho: f64,
) -> Result<Clustering, DbscanError> {
    let params = ApproxParams::new(eps, min_pts, rho)?;
    let net = build_net(points, metric, params.rbar())?;
    let out = approx::run_approx(
        points,
        metric,
        &netview::NetView::of(&net),
        &params,
        &ParallelConfig::default(),
        &mdbscan_metric::PruningConfig::default(),
        approx::ApproxReuse::default(),
    );
    Ok(Clustering::from_labels(out.labels))
}

fn build_net<P: Sync, M: BatchMetric<P> + Sync>(
    points: &[P],
    metric: &M,
    rbar: f64,
) -> Result<RadiusGuidedNet, DbscanError> {
    error::validate_points_and_rbar(points.len(), rbar)?;
    Ok(RadiusGuidedNet::build_with(
        points,
        metric,
        rbar,
        &BuildOptions::default(),
    ))
}
