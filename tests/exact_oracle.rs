//! Differential oracle for the engine's solvers against the original
//! DBSCAN of Ester et al. (`original_dbscan`) on small adversarial
//! inputs:
//!
//! * pair distances exactly at ε and one ulp either side of it. Integer
//!   coordinates keep every axis-aligned distance exact, so ε moves
//!   instead of the points: at ε = `next_down(d)` a pair at distance `d`
//!   sits at `next_up(ε)`, at ε = `next_up(d)` at `next_down(ε)`;
//! * duplicate points, MinPts = 1 and MinPts > n, n ∈ {1, 2}, all noise
//!   and a single cluster.
//!
//! Every exact path must agree with the oracle: a cold run, a cache
//! hit, a hit after save/load, a query after an ingest split on a
//! radius-guided engine, the generic and the grid candidate paths, and
//! the §3.2 cover-tree solver. The match rule is the one of
//! `tests/cross_validation.rs`: identical core flags, noise flags and
//! core partition. In addition, every border point must have a core of
//! its own cluster within ε.
//!
//! Every ρ-approximate path, for ρ ∈ {0.5, 1, 2} on engines built at
//! `r̄ = ApproxParams::rbar()`, must lie in the sandwich between the
//! oracle at ε and at `ApproxParams::merge_radius()` (the exact f64 the
//! solvers merge at), with pruning on and off: generic approx cold, hit,
//! hit after save/load and after an ingest split, grid approx at d = 2,
//! and `engine.streaming`.
//! Every ε-core is clustered, ε-core pairs that share a cluster still
//! share one, every point marked core is an ε-core, and core pairs that
//! share a cluster share one in the oracle at the merge radius. The
//! random-projection index is left out: it gives up the guarantee.

use std::collections::HashMap;
use std::path::PathBuf;

use metric_dbscan::baselines::original_dbscan;
use metric_dbscan::core::{
    ApproxParams, CandidateIndex, Clustering, DbscanParams, MetricDbscan, NetStrategy, PointLabel,
    Run,
};
use metric_dbscan::metric::{Euclidean, Metric, PruningConfig, VectorBlock};
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

/// ρ from a selector: 0.5, 1 or 2.
fn rho_at(sel: u8) -> f64 {
    [0.5, 1.0, 2.0][sel as usize % 3]
}

/// The engine's pruning from a selector: off, or the default.
fn pruning_at(sel: u8) -> PruningConfig {
    if sel == 0 {
        PruningConfig::off()
    } else {
        PruningConfig::default()
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

/// The ρ-approximate sandwich against the oracle at ε (`lower`) and at
/// the merge radius (`upper`): every ε-core is clustered, ε-core pairs
/// that share a cluster still share one, every point marked core is an
/// ε-core, and core pairs that share a cluster share one in `upper`.
fn check_sandwich(
    tag: &str,
    ours: &Clustering,
    lower: &Clustering,
    upper: &Clustering,
) -> Result<(), TestCaseError> {
    let n = lower.len();
    prop_assert_eq!(ours.len(), n, "{}: length", tag);
    for i in 0..n {
        if lower.labels()[i].is_core() {
            prop_assert!(
                ours.cluster_of(i).is_some(),
                "{}: ε-core {} unclustered",
                tag,
                i
            );
        }
        if ours.labels()[i].is_core() {
            prop_assert!(lower.labels()[i].is_core(), "{}: {} is no ε-core", tag, i);
        }
    }
    for i in 0..n {
        for j in (i + 1)..n {
            let same = |c: &Clustering| {
                c.labels()[i].is_core()
                    && c.labels()[j].is_core()
                    && c.cluster_of(i) == c.cluster_of(j)
            };
            if same(lower) {
                prop_assert_eq!(
                    ours.cluster_of(i),
                    ours.cluster_of(j),
                    "{}: ε-cores {} and {} split",
                    tag,
                    i,
                    j
                );
            }
            if same(ours) {
                prop_assert!(
                    same(upper),
                    "{}: cores {} and {} joined beyond (1+ρ)ε",
                    tag,
                    i,
                    j
                );
            }
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

/// Every generic approximate path over 1-D points at integer
/// coordinates, on engines at `r̄ = ApproxParams::rbar()`: approx cold
/// and hit, a hit after save/load, a radius-guided engine grown by
/// ingest from a prefix of `split` points (queried before the ingest),
/// and `engine.streaming` on the built and the grown engine. Without
/// pruning every open pair of a merge reaches its distance test; in one
/// dimension the anchors decide most of them.
fn generic_approx_paths(
    coords: &[u32],
    eps: f64,
    min_pts: usize,
    rho: f64,
    pruning: PruningConfig,
    split: usize,
    file_tag: &str,
) -> Result<(), TestCaseError> {
    let points: Vec<Vec<f64>> = coords.iter().map(|&x| vec![f64::from(x)]).collect();
    let params = ApproxParams::new(eps, min_pts, rho).unwrap();
    let oracle = |pts: &[Vec<f64>], radius: f64| original_dbscan(pts, &Euclidean, radius, min_pts);
    let (lower, upper) = (oracle(&points, eps), oracle(&points, params.merge_radius()));
    let verify = |tag: &str, c: &Clustering| check_sandwich(tag, c, &lower, &upper);

    let engine = MetricDbscan::builder(points.clone(), Euclidean)
        .rbar(params.rbar())
        .pruning(pruning)
        .build()
        .unwrap();
    cold_then_hit("approx", || engine.approx(&params).unwrap(), verify)?;
    verify("streaming", &engine.streaming(&params).unwrap().clustering)?;

    let path = temp_path(file_tag);
    engine.save(&path).unwrap();
    let loaded = MetricDbscan::load(&path, Euclidean);
    std::fs::remove_file(&path).unwrap();
    let run = loaded.unwrap().approx(&params).unwrap();
    prop_assert!(run.report.cache_hit, "loaded: first approx query must hit");
    verify("loaded approx", &run.clustering)?;

    let split = split.clamp(1, points.len());
    let grown = MetricDbscan::builder(points[..split].to_vec(), Euclidean)
        .rbar(params.rbar())
        .pruning(pruning)
        .net_strategy(NetStrategy::RadiusGuided)
        .build()
        .unwrap();
    check_sandwich(
        "prefix approx",
        &grown.approx(&params).unwrap().clustering,
        &oracle(&points[..split], eps),
        &oracle(&points[..split], params.merge_radius()),
    )?;
    let mid = split + (points.len() - split) / 2;
    grown.ingest(points[split..mid].to_vec()).unwrap();
    grown.ingest(points[mid..].to_vec()).unwrap();
    cold_then_hit("ingested approx", || grown.approx(&params).unwrap(), verify)?;
    verify(
        "ingested streaming",
        &grown.streaming(&params).unwrap().clustering,
    )
}

/// The grid path of the approximate solver: a `VectorBlock<f64>` at
/// d = 2 on the grid index, over integer coordinates, cold and hit, and
/// `engine.streaming` on the same engine.
fn grid_approx_paths(
    coords: &[(u32, u32)],
    eps: f64,
    min_pts: usize,
    rho: f64,
    pruning: PruningConfig,
) -> Result<(), TestCaseError> {
    let rows: Vec<Vec<f64>> = coords
        .iter()
        .map(|&(x, y)| vec![f64::from(x), f64::from(y)])
        .collect();
    let block = VectorBlock::<f64>::from_rows(&rows);
    let ids = block.ids();
    let params = ApproxParams::new(eps, min_pts, rho).unwrap();
    let lower = original_dbscan(&ids, &block, eps, min_pts);
    let upper = original_dbscan(&ids, &block, params.merge_radius(), min_pts);
    let verify = |tag: &str, c: &Clustering| check_sandwich(tag, c, &lower, &upper);
    let engine = MetricDbscan::builder(ids.clone(), block.clone())
        .rbar(params.rbar())
        .pruning(pruning)
        .candidate_index(CandidateIndex::Grid)
        .build()
        .unwrap();
    cold_then_hit("grid approx", || engine.approx(&params).unwrap(), verify)?;
    prop_assert!(
        engine.cache_stats().grid_misses > 0,
        "grid path was not taken"
    );
    verify(
        "grid streaming",
        &engine.streaming(&params).unwrap().clustering,
    )
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

    /// The approximate paths on the inputs of the generic exact test,
    /// at ρ ∈ {0.5, 1, 2}, with pruning on or off.
    #[test]
    fn generic_approx_paths_are_sandwiched(
        ((coords, d, variant, sel, split), rho, pruned) in (
            (
                prop::collection::vec(0u32..12, 1..=20),
                1u32..=3,
                0u8..3,
                0u8..5,
                0usize..20,
            ),
            0u8..3,
            0u8..2,
        )
    ) {
        let eps = eps_at(d, variant);
        let min_pts = min_pts_at(sel, coords.len());
        let (rho, pruning) = (rho_at(rho), pruning_at(pruned));
        generic_approx_paths(&coords, eps, min_pts, rho, pruning, split, "approx-prop")?;
    }

    /// The grid approximate path on the 2-D lattice of the grid exact
    /// test, at ρ ∈ {0.5, 1, 2}, with pruning on or off.
    #[test]
    fn grid_approx_paths_are_sandwiched(
        ((coords, d, variant, sel), rho, pruned) in (
            (
                prop::collection::vec((0u32..10, 0u32..3), 1..=24),
                1u32..=3,
                0u8..3,
                0u8..5,
            ),
            0u8..3,
            0u8..2,
        )
    ) {
        let eps = eps_at(d, variant);
        let min_pts = min_pts_at(sel, coords.len());
        grid_approx_paths(&coords, eps, min_pts, rho_at(rho), pruning_at(pruned))?;
    }
}

/// The named edge cases, each through every exact path and, at every ρ,
/// every approximate path, at ε exactly on and one ulp either side of
/// the planted distance 1.
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
            for (sel, pruned) in (0..3).flat_map(|sel| [(sel, 0), (sel, 1)]) {
                let (rho, pruning) = (rho_at(sel), pruning_at(pruned));
                let tag = format!(
                    "{name}, eps {eps:e}, rho {rho}, pruning {}",
                    pruning.enabled
                );
                generic_approx_paths(&coords, eps, min_pts, rho, pruning, split, "approx-edge")
                    .unwrap_or_else(|e| panic!("{tag}: {e:?}"));
                grid_approx_paths(&lattice, eps, min_pts, rho, pruning)
                    .unwrap_or_else(|e| panic!("{tag} (grid): {e:?}"));
            }
        }
    }
}
