//! Net extraction: reading an `r`-net off a cover-tree level.
//!
//! Section 3.2 of the paper: when the *whole* input (outliers included) has
//! low doubling dimension, the `ε/2`-net that Algorithm 1 would construct
//! can instead be read off level `i₀` of a cover tree built once over `X`,
//! giving the `O(n log Φ · t_dis)` bound of Theorem 1.
//!
//! One care point: with the standard cover-tree invariants, a point is
//! within `2^{i+1}` (not `2^i`) of its level-`i` ancestor — the chain
//! `2^i + 2^{i−1} + …` telescopes to `2^{i+1}`. The paper's prose treats
//! `T_{i₀}` as an `r̄`-net with `r̄ = 2^{i₀}`; we therefore expose the
//! *actual* covering radius and the §3.2 pipeline in `mdbscan-core` picks
//! `i₀ = ⌊log₂(ε/2)⌋ − 1` so that the covering radius `2^{i₀+1} ≤ ε/2`
//! matches the requirement of the exact pipeline (Remark 5: any
//! `r̄ ≤ ε/2` works).

use crate::tree::{exp2, CoverTree, CoverTreeSkeleton};

/// An `r`-net extracted from a cover-tree level: centers, per-point
/// assignment, and the guaranteed covering radius.
#[derive(Debug, Clone)]
pub struct NetExtraction {
    /// Point indices (into the backing slice) of the net centers — the
    /// implicit level-`i₀` nodes, i.e. every explicit node with
    /// `level ≥ i₀`.
    pub centers: Vec<usize>,
    /// For every stored point index, the position in `centers` of its
    /// net center (its lowest ancestor at `level ≥ i₀`).
    /// Indexed by point index; points not in the tree hold `u32::MAX`.
    pub assignment: Vec<u32>,
    /// Upper bound on `dis(point, its center)`: `2^{i₀+1}`.
    pub cover_radius: f64,
    /// Lower bound on pairwise center separation: `2^{i₀}`.
    pub separation: f64,
}

impl CoverTreeSkeleton {
    /// Extracts the implicit level-`level` net `T_level`. Needs neither
    /// the points nor the metric: the tree records everything.
    ///
    /// Centers are all chains alive at `level` (explicit nodes with
    /// `node.level ≥ level`); every stored point is assigned to the center
    /// whose subtree contains it, at distance ≤ `2^{level+1}`.
    ///
    /// The `assignment` vector has `num_points` entries (the length of
    /// the backing slice, which must exceed every stored index); entries
    /// for points that were never inserted are `u32::MAX`.
    pub fn extract_net(&self, level: i32, num_points: usize) -> NetExtraction {
        self.assert_fits(num_points);
        let mut centers = Vec::new();
        let mut assignment = vec![u32::MAX; num_points];
        if let Some(root) = self.root {
            // Every node's center position. The centers (the root and
            // the nodes at or above `level`) form a subtree, and a
            // node's center children lead its level-grouped list.
            // Number them depth first, each node's children in id
            // order and numbered as they are pushed.
            let mut center_of = vec![u32::MAX; self.nodes.len()];
            let mut stack = vec![root];
            let mut fresh: Vec<u32> = Vec::new();
            center_of[root as usize] = 0;
            centers.push(self.nodes[root as usize].point as usize);
            while let Some(id) = stack.pop() {
                let children = &self.nodes[id as usize].children;
                let split = children.partition_point(|c| c.level >= level);
                fresh.clear();
                fresh.extend(children[..split].iter().map(|c| c.id));
                fresh.sort_unstable();
                for &c in &fresh {
                    center_of[c as usize] = centers.len() as u32;
                    centers.push(self.nodes[c as usize].point as usize);
                    stack.push(c);
                }
            }
            // Every other node belongs to its parent's center. A parent
            // has a lower id than its children, so one pass in id order
            // reaches each parent first.
            for (id, node) in self.nodes.iter().enumerate() {
                let center = center_of[id];
                assignment[node.point as usize] = center;
                for &s in &node.same {
                    assignment[s as usize] = center;
                }
                for c in &node.children[node.children.partition_point(|c| c.level >= level)..] {
                    center_of[c.id as usize] = center;
                }
            }
        }
        NetExtraction {
            centers,
            assignment,
            cover_radius: exp2(level + 1),
            separation: exp2(level),
        }
    }
}

impl<'a, P, M> CoverTree<'a, P, M> {
    /// Extracts the implicit level-`level` net `T_level`; see
    /// [`CoverTreeSkeleton::extract_net`]. The `assignment` vector is
    /// sized to the backing slice.
    pub fn extract_net(&self, level: i32) -> NetExtraction {
        self.tree.extract_net(level, self.points.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdbscan_metric::{Euclidean, Metric};

    fn line(n: usize, step: f64) -> Vec<Vec<f64>> {
        (0..n).map(|i| vec![i as f64 * step]).collect()
    }

    #[test]
    fn net_covers_and_separates() {
        let pts = line(100, 1.0);
        let tree = CoverTree::build(&pts, &Euclidean);
        for level in [-1, 0, 1, 2, 3, 4] {
            let net = tree.extract_net(level);
            assert!(!net.centers.is_empty(), "level {level}");
            // covering
            for (i, p) in pts.iter().enumerate() {
                let c = net.assignment[i];
                assert_ne!(c, u32::MAX, "point {i} unassigned at level {level}");
                let center = &pts[net.centers[c as usize]];
                let d = Euclidean.distance(center, p);
                assert!(
                    d <= net.cover_radius + 1e-12,
                    "level {level}: point {i} at {d} > cover {}",
                    net.cover_radius
                );
            }
            // separation (the chains alive at `level` form a 2^level packing)
            for (a, &ci) in net.centers.iter().enumerate() {
                for &cj in net.centers.iter().skip(a + 1) {
                    let d = Euclidean.distance(&pts[ci], &pts[cj]);
                    assert!(
                        d > net.separation - 1e-12,
                        "level {level}: centers {ci},{cj} at {d} <= {}",
                        net.separation
                    );
                }
            }
        }
    }

    #[test]
    fn coarse_level_is_single_center() {
        let pts = line(32, 1.0);
        let tree = CoverTree::build(&pts, &Euclidean);
        let top = tree.root_level().unwrap();
        let net = tree.extract_net(top + 1);
        assert_eq!(net.centers.len(), 1);
        assert!(net.assignment.iter().all(|&a| a == 0));
    }

    #[test]
    fn fine_level_every_point_is_center() {
        let pts = line(16, 1.0);
        let tree = CoverTree::build(&pts, &Euclidean);
        let net = tree.extract_net(-40);
        assert_eq!(net.centers.len(), 16);
    }

    #[test]
    fn duplicates_share_assignment() {
        let pts = vec![vec![0.0], vec![0.0], vec![8.0], vec![8.0]];
        let tree = CoverTree::build(&pts, &Euclidean);
        let net = tree.extract_net(0);
        assert_eq!(net.assignment[0], net.assignment[1]);
        assert_eq!(net.assignment[2], net.assignment[3]);
        assert_ne!(net.assignment[0], net.assignment[2]);
    }

    #[test]
    fn subset_tree_leaves_rest_unassigned() {
        let pts = line(10, 1.0);
        let tree = CoverTree::from_indices(&pts, &Euclidean, [0usize, 2, 4]);
        let net = tree.extract_net(-10);
        assert_eq!(net.assignment[1], u32::MAX);
        assert_ne!(net.assignment[0], u32::MAX);
    }
}
