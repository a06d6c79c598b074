//! Section 3.2: exact DBSCAN when the *whole* input (outliers included)
//! has low doubling dimension.
//!
//! Instead of running Algorithm 1, build one cover tree over `X` and read
//! the `ε/2`-net off a level: the implicit level set `T_{i₀}` is a net with
//! covering radius `2^{i₀+1}` and separation `2^{i₀}`. The paper picks
//! `i₀ = ⌊log₂(ε/2)⌋`; because the standard cover-tree covering bound is
//! `2^{i+1}` (one power looser than the prose's `r`-net), we descend one
//! extra level so that the covering radius provably satisfies the
//! pipeline's `r̄ ≤ ε/2` requirement. Steps 1–3 then run unchanged, with
//! `|A_p| = O(1)` (Lemma 7) and total time `O(n log Φ · t_dis)`
//! (Theorem 1).

use std::time::Instant;

use mdbscan_covertree::{CoverTree, CoverTreeSkeleton};
use mdbscan_metric::BatchMetric;
use mdbscan_parallel::Csr;

use crate::error::DbscanError;
use crate::exact::{ExactConfig, ExactStats};
use crate::labels::Clustering;
use crate::netview::NetView;
use crate::params::DbscanParams;
use crate::steps::{run_exact_steps, StepsReuse};

/// The cover-tree level the §3.2 pipeline reads its net from: covering
/// radius of level `i` is `2^{i+1}`, and the pipeline needs it `≤ ε/2`,
/// so `i₀ = ⌊log₂(ε/2)⌋ − 1` (one below the paper's prose level).
pub(crate) fn covertree_level(eps: f64) -> i32 {
    (eps / 2.0).log2().floor() as i32 - 1
}

/// The net read off a cover-tree level, in the shape Steps 1–3 consume:
/// its cover sets as CSR rows and the exact `dis(p, c_p)` anchors, which
/// the tree does not record.
pub(crate) struct CoverTreeNet {
    rbar: f64,
    pub(crate) centers: Vec<usize>,
    assignment: Vec<u32>,
    cover_sets: Csr,
    dist_to_center: Vec<f64>,
}

impl CoverTreeNet {
    /// Extracts level `level` of the tree `skeleton` (built over
    /// `points`) and evaluates the anchors: one batched
    /// [`BatchMetric::dist_many`] call per center over its cover set,
    /// `n` distance evaluations in all.
    pub(crate) fn extract<P, M: BatchMetric<P>>(
        skeleton: &CoverTreeSkeleton,
        points: &[P],
        metric: &M,
        level: i32,
    ) -> Self {
        let net = skeleton.extract_net(level, points.len());
        let cover_sets = Csr::from_assignment(&net.assignment, net.centers.len());
        let mut dist_to_center = vec![0.0; net.assignment.len()];
        let mut buf = Vec::new();
        for (e, &c) in net.centers.iter().enumerate() {
            let row = cover_sets.row(e);
            metric.dist_many(points, &points[c], row, &mut buf);
            for (&p, &d) in row.iter().zip(&buf) {
                dist_to_center[p as usize] = d;
            }
        }
        CoverTreeNet {
            rbar: net.cover_radius,
            centers: net.centers,
            assignment: net.assignment,
            cover_sets,
            dist_to_center,
        }
    }

    pub(crate) fn view(&self) -> NetView<'_> {
        NetView {
            rbar: self.rbar,
            centers: &self.centers,
            assignment: &self.assignment,
            cover_sets: &self.cover_sets,
            dist_to_center: &self.dist_to_center,
        }
    }
}

/// Statistics of a §3.2 run.
#[derive(Debug, Clone, Copy)]
pub struct CoverTreeExactStats {
    /// Seconds building the cover tree over `X`.
    pub tree_secs: f64,
    /// Seconds extracting the net from level `i₀`, including the
    /// `dis(p, c_p)` anchors the pruning bounds measure from.
    pub net_secs: f64,
    /// The level used.
    pub level: i32,
    /// Number of net centers.
    pub n_centers: usize,
    /// Step statistics (adjacency + Steps 1–3).
    pub steps: ExactStats,
}

/// Exact metric DBSCAN via a cover-tree-derived net (§3.2, Theorem 1).
///
/// Produces the same clusters as [`crate::exact_dbscan`] (both are exact);
/// only the pre-processing differs. Prefer this variant when the whole
/// input is known to double — e.g. no adversarial outliers — because the
/// cover tree is reusable across *all* `ε` (any level can be extracted),
/// not just `ε ≥ 2r̄`.
pub fn exact_dbscan_covertree<P: Sync, M: BatchMetric<P> + Sync>(
    points: &[P],
    metric: &M,
    eps: f64,
    min_pts: usize,
) -> Result<(Clustering, CoverTreeExactStats), DbscanError> {
    exact_dbscan_covertree_with(points, metric, eps, min_pts, &ExactConfig::default())
}

/// As [`exact_dbscan_covertree`], with explicit step configuration —
/// the ablation toggles plus the [`ExactConfig::parallel`] thread knob
/// for the shared Steps 1–3. (The cover-tree construction itself is
/// sequential: inserts depend on the evolving tree.)
pub fn exact_dbscan_covertree_with<P: Sync, M: BatchMetric<P> + Sync>(
    points: &[P],
    metric: &M,
    eps: f64,
    min_pts: usize,
    cfg: &ExactConfig,
) -> Result<(Clustering, CoverTreeExactStats), DbscanError> {
    let params = DbscanParams::new(eps, min_pts)?;
    if points.is_empty() {
        return Err(DbscanError::EmptyInput);
    }
    let t = Instant::now();
    let tree = CoverTree::build(points, metric).into_skeleton();
    let tree_secs = t.elapsed().as_secs_f64();

    let i0 = covertree_level(eps);
    let t = Instant::now();
    let net = CoverTreeNet::extract(&tree, points, metric, i0);
    let net_secs = t.elapsed().as_secs_f64();
    let out = run_exact_steps(
        points,
        metric,
        &net.view(),
        &params,
        cfg,
        StepsReuse::default(),
    );
    Ok((
        Clustering::from_labels(out.labels),
        CoverTreeExactStats {
            tree_secs,
            net_secs,
            level: i0,
            n_centers: net.centers.len(),
            steps: out.stats,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact_dbscan;
    use mdbscan_metric::Euclidean;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn agrees_with_algorithm1_pipeline() {
        let mut rng = StdRng::seed_from_u64(21);
        let mut pts: Vec<Vec<f64>> = Vec::new();
        for c in [[0.0, 0.0], [8.0, 8.0]] {
            for _ in 0..80 {
                pts.push(vec![
                    c[0] + rng.random_range(-1.0..1.0),
                    c[1] + rng.random_range(-1.0..1.0),
                ]);
            }
        }
        for eps in [0.6, 1.0, 1.7] {
            let via_alg1 = exact_dbscan(&pts, &Euclidean, eps, 5).unwrap();
            let (via_tree, stats) = exact_dbscan_covertree(&pts, &Euclidean, eps, 5).unwrap();
            // Both are exact: identical core partition & noise set; borders
            // may tie-break differently, so compare through the partition
            // only when cluster structure is unambiguous.
            assert_eq!(
                via_alg1.num_clusters(),
                via_tree.num_clusters(),
                "eps={eps}"
            );
            for i in 0..pts.len() {
                assert_eq!(
                    via_alg1.labels()[i].is_core(),
                    via_tree.labels()[i].is_core(),
                    "core mismatch at {i}, eps={eps}"
                );
                assert_eq!(
                    via_alg1.labels()[i].is_noise(),
                    via_tree.labels()[i].is_noise(),
                    "noise mismatch at {i}, eps={eps}"
                );
            }
            assert!(stats.n_centers > 0);
            assert!(stats.steps.n_centers == stats.n_centers);
        }
    }

    #[test]
    fn level_choice_respects_rbar_bound() {
        let pts: Vec<Vec<f64>> = (0..64).map(|i| vec![i as f64 * 0.25]).collect();
        for eps in [0.3, 1.0, 3.0, 10.0] {
            let (c, stats) = exact_dbscan_covertree(&pts, &Euclidean, eps, 3).unwrap();
            assert_eq!(c.len(), 64);
            // 2^{i0+1} <= eps/2
            assert!(
                (stats.level + 1) as f64 <= (eps / 2.0).log2() + 1e-9,
                "eps={eps}: level {} too coarse",
                stats.level
            );
        }
    }

    #[test]
    fn empty_input_rejected() {
        let pts: Vec<Vec<f64>> = vec![];
        assert!(matches!(
            exact_dbscan_covertree(&pts, &Euclidean, 1.0, 3),
            Err(DbscanError::EmptyInput)
        ));
    }
}
