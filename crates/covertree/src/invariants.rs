//! Structural invariant checking, used by the test suite (and available to
//! downstream property tests) to certify that insertion maintained the
//! cover-tree contract on arbitrary data.

use crate::tree::{exp2, CoverTree};
use mdbscan_metric::Metric;

impl<'a, P, M: Metric<P>> CoverTree<'a, P, M> {
    /// Verifies the three cover-tree invariants plus bookkeeping sanity.
    ///
    /// * **covering**: every explicit node is within `2^{child.level+1}` of
    ///   its parent;
    /// * **separation**: for every level `i`, the implicit net `T_i` (all
    ///   chains with `node.level ≥ i`, restricted to nodes whose parent
    ///   chain is above `i`) is pairwise `> 2^i` separated;
    /// * **nesting** holds by construction (chains), so it is checked
    ///   indirectly via the level structure: `child.level < parent.level`;
    /// * every stored index appears exactly once;
    /// * each child record copies its child's point, level and parent
    ///   distance, and a node's records run from the highest level down,
    ///   in id order within a level.
    ///
    /// Cost is `O(levels · |T_i|²)` distance evaluations — test-only.
    pub fn check_invariants(&self) -> Result<(), String> {
        let Some(root) = self.tree.root else {
            if self.tree.nodes.is_empty() && self.tree.len == 0 {
                return Ok(());
            }
            return Err("rootless tree with nodes".into());
        };

        // Bookkeeping: each stored index exactly once.
        let mut idx = self.indices();
        let n_stored = idx.len();
        idx.sort_unstable();
        idx.dedup();
        if idx.len() != n_stored {
            return Err("duplicate point index stored twice".into());
        }
        if n_stored != self.tree.len {
            return Err(format!("len {} != stored {}", self.tree.len, n_stored));
        }

        // Covering + level ordering + child records via DFS.
        let nodes = &self.tree.nodes;
        let mut stack = vec![root];
        let mut min_level = i32::MAX;
        while let Some(id) = stack.pop() {
            let node = &nodes[id as usize];
            min_level = min_level.min(node.level);
            for (k, link) in node.children.iter().enumerate() {
                stack.push(link.id);
                let child = &nodes[link.id as usize];
                if (link.point, link.level, link.parent_dist.to_bits())
                    != (child.point, child.level, child.parent_dist.to_bits())
                {
                    return Err(format!("child record of node {} is stale", link.id));
                }
                if let Some(prev) = k.checked_sub(1).map(|j| &node.children[j]) {
                    let ordered =
                        prev.level > link.level || (prev.level == link.level && prev.id < link.id);
                    if !ordered {
                        return Err(format!(
                            "children of node {id} not grouped by level in id order"
                        ));
                    }
                }
                if child.level >= node.level {
                    return Err(format!(
                        "child level {} not below parent level {}",
                        child.level, node.level
                    ));
                }
                let d = self.metric.distance(
                    &self.points[node.point as usize],
                    &self.points[child.point as usize],
                );
                let bound = exp2(child.level + 1);
                if d > bound {
                    return Err(format!(
                        "covering violated: d={d} > 2^{}={bound}",
                        child.level + 1
                    ));
                }
                // The stored parent anchor must be the exact edge
                // distance — the pruning bounds of insertion and of
                // the queries rely on it.
                if d != child.parent_dist {
                    return Err(format!(
                        "stale parent_dist: stored {} but d={d}",
                        child.parent_dist
                    ));
                }
            }
        }

        // Separation per level, from the root down to the deepest node.
        let top = nodes[root as usize].level;
        let mut level = top;
        while level >= min_level {
            let net = self.extract_net(level);
            for (a, &ci) in net.centers.iter().enumerate() {
                for &cj in net.centers.iter().skip(a + 1) {
                    let d = self.metric.distance(&self.points[ci], &self.points[cj]);
                    if d <= exp2(level) {
                        return Err(format!(
                            "separation violated at level {level}: d({ci},{cj})={d} <= {}",
                            exp2(level)
                        ));
                    }
                }
            }
            level -= 1;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdbscan_metric::Euclidean;

    #[test]
    fn invariants_hold_on_structured_data() {
        let mut pts = Vec::new();
        for i in 0..15 {
            for j in 0..15 {
                pts.push(vec![i as f64 * 0.9, j as f64 * 1.3]);
            }
        }
        let tree = CoverTree::build(&pts, &Euclidean);
        tree.check_invariants().unwrap();
    }

    #[test]
    fn invariants_hold_with_duplicates_and_outliers() {
        let mut pts = vec![vec![0.0, 0.0]; 5];
        pts.push(vec![1e6, 1e6]);
        pts.push(vec![-1e6, 3.0]);
        for i in 0..40 {
            pts.push(vec![(i % 7) as f64 * 0.01, (i % 5) as f64 * 0.01]);
        }
        let tree = CoverTree::build(&pts, &Euclidean);
        tree.check_invariants().unwrap();
    }

    #[test]
    fn invariants_hold_on_empty_tree() {
        let pts: Vec<Vec<f64>> = vec![];
        let tree = CoverTree::build(&pts, &Euclidean);
        tree.check_invariants().unwrap();
    }
}
