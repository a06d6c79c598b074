//! Differential oracle for the exact solvers: every exact path of the
//! engine — a cold run, a cache hit, a hit after save/load, a query
//! after an ingest split on a radius-guided engine, the generic and the
//! grid candidate paths, and the §3.2 cover-tree solver — must agree
//! with the original DBSCAN of Ester et al. (`original_dbscan`) on
//! small adversarial inputs:
//!
//! * pair distances exactly at ε and one ulp either side of it. Integer
//!   coordinates keep every axis-aligned distance exact, so ε moves
//!   instead of the points: at ε = `next_down(d)` a pair at distance `d`
//!   sits at `next_up(ε)`, at ε = `next_up(d)` at `next_down(ε)`;
//! * duplicate points, MinPts = 1 and MinPts > n, n ∈ {1, 2}, all noise
//!   and a single cluster.
//!
//! Match rule (the one of `tests/cross_validation.rs`): identical core
//! flags, noise flags and core partition. In addition, every border
//! point must have a core of its own cluster within ε.

use std::collections::HashMap;
use std::path::PathBuf;

use metric_dbscan::baselines::original_dbscan;
use metric_dbscan::core::{
    CandidateIndex, Clustering, DbscanParams, MetricDbscan, NetStrategy, PointLabel, Run,
};
use metric_dbscan::metric::{Euclidean, Metric, VectorBlock};
use proptest::prelude::*;

/// ε for a planted integer distance `d`: exactly `d`, or one ulp below
/// or above it.
fn eps_at(d: u32, variant: u8) -> f64 {
    let d = f64::from(d);
    match variant {
        0 => d,
        1 => d.next_down(),
        _ => d.next_up(),
    }
}

/// MinPts from a selector: 1, small values, or more than the `n` points.
fn min_pts_at(sel: u8, n: usize) -> usize {
    match sel {
        0 => 1,
        1 => n + 1,
        s => s as usize,
    }
}

fn temp_path(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("mdbscan_oracle_{}_{name}.mdb", std::process::id()));
    p
}

/// The match rule: same core flags, noise flags and core partition as
/// the reference, and a same-cluster core within ε for every border.
fn check<P, M: Metric<P>>(
    tag: &str,
    points: &[P],
    metric: &M,
    eps: f64,
    ours: &Clustering,
    reference: &Clustering,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(ours.len(), reference.len(), "{}: length", tag);
    prop_assert_eq!(
        ours.num_clusters(),
        reference.num_clusters(),
        "{}: cluster count",
        tag
    );
    let (mut fwd, mut bwd) = (HashMap::new(), HashMap::new());
    for i in 0..points.len() {
        let (a, b) = (ours.labels()[i], reference.labels()[i]);
        prop_assert_eq!(a.is_core(), b.is_core(), "{}: core flag at {}", tag, i);
        prop_assert_eq!(a.is_noise(), b.is_noise(), "{}: noise flag at {}", tag, i);
        if a.is_core() {
            let (x, y) = (
                ours.cluster_of(i).unwrap(),
                reference.cluster_of(i).unwrap(),
            );
            prop_assert_eq!(*fwd.entry(x).or_insert(y), y, "{}: partition at {}", tag, i);
            prop_assert_eq!(*bwd.entry(y).or_insert(x), x, "{}: partition at {}", tag, i);
        }
        if let PointLabel::Border(c) = a {
            prop_assert!(
                (0..points.len()).any(|j| ours.labels()[j] == PointLabel::Core(c)
                    && metric.within(&points[i], &points[j], eps)),
                "{}: border {} has no core of cluster {} within eps",
                tag,
                i,
                c
            );
        }
    }
    Ok(())
}

/// Cold run, then a repeat that must hit the cache and replay the same
/// labels.
fn cold_then_hit(
    tag: &str,
    mut query: impl FnMut() -> Run,
    mut verify: impl FnMut(&str, &Clustering) -> Result<(), TestCaseError>,
) -> Result<(), TestCaseError> {
    let cold = query();
    verify(&format!("{tag} cold"), &cold.clustering)?;
    let hit = query();
    prop_assert!(hit.report.cache_hit, "{}: repeat must hit", tag);
    prop_assert_eq!(&hit.clustering, &cold.clustering, "{}: hit labels", tag);
    Ok(())
}

/// Every generic exact path over 1-D points at integer coordinates:
/// exact and cover-tree (cold and hit), a hit after save/load, and a
/// radius-guided engine grown by ingest from a prefix of `split` points
/// (queried before the ingest, so the post-ingest query upgrades).
fn generic_paths(
    coords: &[u32],
    eps: f64,
    min_pts: usize,
    split: usize,
    file_tag: &str,
) -> Result<(), TestCaseError> {
    let points: Vec<Vec<f64>> = coords.iter().map(|&x| vec![f64::from(x)]).collect();
    let params = DbscanParams::new(eps, min_pts).unwrap();
    let reference = original_dbscan(&points, &Euclidean, eps, min_pts);
    let verify = |tag: &str, c: &Clustering| check(tag, &points, &Euclidean, eps, c, &reference);

    let engine = MetricDbscan::builder(points.clone(), Euclidean)
        .rbar(eps / 2.0)
        .build()
        .unwrap();
    cold_then_hit("exact", || engine.exact(&params).unwrap(), verify)?;
    cold_then_hit("covertree", || engine.covertree(&params).unwrap(), verify)?;

    let path = temp_path(file_tag);
    engine.save(&path).unwrap();
    let loaded = MetricDbscan::load(&path, Euclidean);
    std::fs::remove_file(&path).unwrap();
    let loaded = loaded.unwrap();
    let run = loaded.exact(&params).unwrap();
    prop_assert!(run.report.cache_hit, "loaded: first query must hit");
    verify("loaded exact", &run.clustering)?;
    verify(
        "loaded covertree",
        &loaded.covertree(&params).unwrap().clustering,
    )?;

    let split = split.clamp(1, points.len());
    let grown = MetricDbscan::builder(points[..split].to_vec(), Euclidean)
        .rbar(eps / 2.0)
        .net_strategy(NetStrategy::RadiusGuided)
        .build()
        .unwrap();
    let prefix_ref = original_dbscan(&points[..split], &Euclidean, eps, min_pts);
    check(
        "prefix",
        &points[..split],
        &Euclidean,
        eps,
        &grown.exact(&params).unwrap().clustering,
        &prefix_ref,
    )?;
    let mid = split + (points.len() - split) / 2;
    grown.ingest(points[split..mid].to_vec()).unwrap();
    grown.ingest(points[mid..].to_vec()).unwrap();
    cold_then_hit("ingested exact", || grown.exact(&params).unwrap(), verify)?;
    verify(
        "ingested covertree",
        &grown.covertree(&params).unwrap().clustering,
    )
}

/// The grid path: a `VectorBlock<f64>` at d = 2 on the grid index, over
/// integer coordinates, exact and cover-tree (cold and hit).
fn grid_paths(coords: &[(u32, u32)], eps: f64, min_pts: usize) -> Result<(), TestCaseError> {
    let rows: Vec<Vec<f64>> = coords
        .iter()
        .map(|&(x, y)| vec![f64::from(x), f64::from(y)])
        .collect();
    let block = VectorBlock::<f64>::from_rows(&rows);
    let ids = block.ids();
    let params = DbscanParams::new(eps, min_pts).unwrap();
    let reference = original_dbscan(&ids, &block, eps, min_pts);
    let verify = |tag: &str, c: &Clustering| check(tag, &ids, &block, eps, c, &reference);
    let engine = MetricDbscan::builder(ids.clone(), block.clone())
        .rbar(eps / 2.0)
        .candidate_index(CandidateIndex::Grid)
        .build()
        .unwrap();
    cold_then_hit("grid exact", || engine.exact(&params).unwrap(), verify)?;
    cold_then_hit(
        "grid covertree",
        || engine.covertree(&params).unwrap(),
        verify,
    )?;
    // The grid really ran: the engine built one for this ε.
    prop_assert!(
        engine.cache_stats().grid_misses > 0,
        "grid path was not taken"
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// 1-D integer points (duplicates likely at small ranges), ε at or
    /// one ulp off a planted integer distance, MinPts from 1 to n + 1.
    #[test]
    fn generic_exact_paths_match_the_oracle(
        (coords, d, variant, sel, split) in (
            prop::collection::vec(0u32..12, 1..=20),
            1u32..=3,
            0u8..3,
            0u8..5,
            0usize..20,
        )
    ) {
        let eps = eps_at(d, variant);
        let min_pts = min_pts_at(sel, coords.len());
        generic_paths(&coords, eps, min_pts, split, "prop")?;
    }

    /// The same on a 2-D lattice through the grid index: axis-aligned
    /// pairs keep exact distances.
    #[test]
    fn grid_exact_paths_match_the_oracle(
        (coords, d, variant, sel) in (
            prop::collection::vec((0u32..10, 0u32..3), 1..=24),
            1u32..=3,
            0u8..3,
            0u8..5,
        )
    ) {
        let eps = eps_at(d, variant);
        let min_pts = min_pts_at(sel, coords.len());
        grid_paths(&coords, eps, min_pts)?;
    }
}

/// The named edge cases, each through every path, at ε exactly on and
/// one ulp either side of the planted distance 1.
#[test]
fn edge_cases_match_the_oracle() {
    let chain: Vec<u32> = (0..10).collect();
    let far: Vec<u32> = (0..6).map(|i| 10 * i).collect();
    let cases: [(&str, Vec<u32>, usize); 8] = [
        ("n = 1, MinPts = 1", vec![4], 1),
        ("n = 1, MinPts > n", vec![4], 2),
        ("n = 2 at distance 1", vec![0, 1], 2),
        ("n = 2 duplicates", vec![3, 3], 2),
        ("duplicates, MinPts = n", vec![5; 6], 6),
        ("duplicates, MinPts > n", vec![5; 6], 7),
        ("single cluster", chain, 2),
        ("all noise", far, 2),
    ];
    for (name, coords, min_pts) in cases {
        for variant in 0..3 {
            let eps = eps_at(1, variant);
            let split = coords.len() / 2;
            generic_paths(&coords, eps, min_pts, split, "edge")
                .unwrap_or_else(|e| panic!("{name}, eps {eps:e}: {e:?}"));
            let lattice: Vec<(u32, u32)> = coords.iter().map(|&x| (x, 0)).collect();
            grid_paths(&lattice, eps, min_pts)
                .unwrap_or_else(|e| panic!("{name} (grid), eps {eps:e}: {e:?}"));
        }
    }
}
