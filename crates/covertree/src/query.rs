//! Cover-tree queries: nearest neighbor, k-nearest, range, and the
//! early-terminating `any_within` predicate used by DBSCAN's merge step.

use crate::tree::{exp2, CoverTree, Neighbor};
use mdbscan_metric::Metric;

/// Max-heap entry for kNN (largest distance on top).
#[derive(PartialEq)]
struct HeapItem {
    distance: f64,
    index: usize,
}

impl Eq for HeapItem {}

impl PartialOrd for HeapItem {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for HeapItem {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.distance.total_cmp(&other.distance)
    }
}

impl<'a, P, M: Metric<P>> CoverTree<'a, P, M> {
    #[inline]
    fn node_dist(&self, node: u32, q: &P) -> f64 {
        self.metric.distance(
            &self.points[self.tree.nodes[node as usize].point as usize],
            q,
        )
    }

    /// Descends the tree keeping every node whose subtree could contain a
    /// point within `keep_radius(best)` of the query, updating `best` via
    /// `visit` for every node representative encountered.
    ///
    /// `visit(node_id, dist)` is called at most once per explicit node,
    /// and is guaranteed to be called for every node whose distance can
    /// influence the answer (children whose parent-anchored triangle
    /// lower bound already exceeds the pruning base are skipped without
    /// a distance evaluation); it returns the new pruning base (e.g. the
    /// current best distance for NN, a fixed `r` for range queries) or
    /// `None` to abort the whole traversal early (used by
    /// [`Self::any_within`]).
    fn descend(&self, query: &P, mut base: f64, mut visit: impl FnMut(&mut f64, u32, f64) -> bool) {
        let Some(root) = self.tree.root else {
            return;
        };
        let d_root = self.node_dist(root, query);
        if !visit(&mut base, root, d_root) {
            return;
        }
        let mut beam: Vec<(u32, f64)> = vec![(root, d_root)];
        let mut level = self.tree.nodes[root as usize].level;
        loop {
            // Next level with explicit children to expand.
            let Some(next) = beam
                .iter()
                .flat_map(|&(q, _)| self.tree.nodes[q as usize].children.iter())
                .map(|c| c.level)
                .filter(|&l| l < level)
                .max()
            else {
                return;
            };
            level = next;
            // A chain member standing at level `level + 1` has descendants
            // within 2^{level+2}: children at level j are within 2^{j+1} and
            // the geometric tail sums to 2^{level+2}.
            let reach = exp2(level + 2);
            beam.retain(|&(_, d)| d <= base + reach);
            if beam.is_empty() {
                return;
            }
            // A child at `level` reaches descendants within 2^{level+1}
            // of itself (geometric chain tail), so the subtree of child
            // `c` of beam node `q` is entirely farther than
            // `dis(query, q) − dis(q, c) − 2^{level+1}`. When that
            // parent-anchored lower bound already exceeds the pruning
            // base, the child's distance is never evaluated — the
            // answer cannot live there. Results are identical to the
            // unpruned traversal; only the evaluation count drops.
            let reach_child = exp2(level + 1);
            let mut new_nodes: Vec<(u32, f64)> = Vec::new();
            #[allow(clippy::needless_range_loop)]
            // indexing avoids holding a borrow across the mutation below
            for k in 0..beam.len() {
                let (q, dq) = beam[k];
                for c in &self.tree.nodes[q as usize].children {
                    if c.level == level {
                        if dq - c.parent_dist - reach_child > base {
                            continue;
                        }
                        let d = self.node_dist(c.id, query);
                        if !visit(&mut base, c.id, d) {
                            return;
                        }
                        new_nodes.push((c.id, d));
                    }
                }
            }
            beam.extend(new_nodes);
        }
    }

    /// Exact nearest neighbor of `query` among the stored points, or `None`
    /// when the tree is empty. Ties broken arbitrarily; if the query point
    /// itself is stored, distance 0 is returned.
    pub fn nearest(&self, query: &P) -> Option<Neighbor> {
        let mut best: Option<Neighbor> = None;
        self.descend(query, f64::INFINITY, |base, node, d| {
            if best.is_none_or(|b| d < b.distance) {
                best = Some(Neighbor {
                    index: self.tree.nodes[node as usize].point as usize,
                    distance: d,
                });
                *base = d;
            }
            true
        });
        best
    }

    /// Exact nearest neighbor at distance `≤ bound`, or `None` if every
    /// stored point is farther. Prunes harder than [`Self::nearest`] when a
    /// tight bound is known (DBSCAN Step 3 queries with `bound = ε`).
    pub fn nearest_within(&self, query: &P, bound: f64) -> Option<Neighbor> {
        let mut best: Option<Neighbor> = None;
        self.descend(query, bound, |base, node, d| {
            if d <= *base && best.is_none_or(|b| d < b.distance) {
                best = Some(Neighbor {
                    index: self.tree.nodes[node as usize].point as usize,
                    distance: d,
                });
                *base = d;
            }
            true
        });
        best
    }

    /// Returns some stored point within `radius` of `query` as soon as one
    /// is found, or `None` if none exists.
    ///
    /// This is the predicate of the paper's Step 2 (Lemma 5): deciding
    /// whether `BCP(C̃_e, C̃_e') ≤ ε` does not require the exact closest
    /// pair, so the traversal aborts on the first witness.
    pub fn any_within(&self, query: &P, radius: f64) -> Option<Neighbor> {
        let mut found: Option<Neighbor> = None;
        self.descend(query, radius, |_base, node, d| {
            if d <= radius {
                found = Some(Neighbor {
                    index: self.tree.nodes[node as usize].point as usize,
                    distance: d,
                });
                return false;
            }
            true
        });
        found
    }

    /// All stored point indices within `radius` of `query` (inclusive),
    /// duplicates included, appended to `out`. Returns the number found.
    pub fn range(&self, query: &P, radius: f64, out: &mut Vec<usize>) -> usize {
        let before = out.len();
        self.descend(query, radius, |_base, node, d| {
            if d <= radius {
                let n = &self.tree.nodes[node as usize];
                out.push(n.point as usize);
                out.extend(n.same.iter().map(|&s| s as usize));
            }
            true
        });
        out.len() - before
    }

    /// Counts stored points within `radius` of `query`, stopping early once
    /// the count reaches `cap` (DBSCAN core tests only need
    /// `count ≥ MinPts`). Returns `min(count, cap)`.
    pub fn count_within(&self, query: &P, radius: f64, cap: usize) -> usize {
        if cap == 0 {
            return 0;
        }
        let mut count = 0usize;
        self.descend(query, radius, |_base, node, d| {
            if d <= radius {
                count += 1 + self.tree.nodes[node as usize].same.len();
                if count >= cap {
                    return false;
                }
            }
            true
        });
        count.min(cap)
    }

    /// The `k` nearest neighbors of `query`, sorted by increasing distance.
    /// Returns fewer than `k` when the tree is smaller. Duplicate points
    /// count individually.
    pub fn knn(&self, query: &P, k: usize) -> Vec<Neighbor> {
        if k == 0 {
            return Vec::new();
        }
        let mut heap: std::collections::BinaryHeap<HeapItem> = std::collections::BinaryHeap::new();
        self.descend(query, f64::INFINITY, |base, node, d| {
            let n = &self.tree.nodes[node as usize];
            for &idx in std::iter::once(&n.point).chain(n.same.iter()) {
                if heap.len() < k {
                    heap.push(HeapItem {
                        distance: d,
                        index: idx as usize,
                    });
                } else if d < heap.peek().map_or(f64::INFINITY, |t| t.distance) {
                    heap.pop();
                    heap.push(HeapItem {
                        distance: d,
                        index: idx as usize,
                    });
                }
            }
            if heap.len() == k {
                *base = heap.peek().map_or(f64::INFINITY, |t| t.distance);
            }
            true
        });
        let mut out: Vec<Neighbor> = heap
            .into_iter()
            .map(|h| Neighbor {
                index: h.index,
                distance: h.distance,
            })
            .collect();
        out.sort_by(|a, b| a.distance.total_cmp(&b.distance));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdbscan_metric::{Euclidean, Levenshtein};

    fn grid(side: usize) -> Vec<Vec<f64>> {
        let mut v = Vec::new();
        for i in 0..side {
            for j in 0..side {
                v.push(vec![i as f64, j as f64]);
            }
        }
        v
    }

    #[test]
    fn nearest_matches_brute_force() {
        let pts = grid(12);
        let tree = CoverTree::build(&pts, &Euclidean);
        for q in [
            vec![0.2, 0.1],
            vec![5.6, 7.3],
            vec![11.9, 11.9],
            vec![-3.0, 4.0],
            vec![100.0, 100.0],
        ] {
            let got = tree.nearest(&q).unwrap();
            let want = pts
                .iter()
                .map(|p| Euclidean.distance(p, &q))
                .fold(f64::INFINITY, f64::min);
            assert!(
                (got.distance - want).abs() < 1e-12,
                "query {q:?}: got {} want {want}",
                got.distance
            );
        }
    }

    #[test]
    fn nearest_within_bound() {
        let pts = grid(6);
        let tree = CoverTree::build(&pts, &Euclidean);
        let q = vec![2.4, 2.4];
        let nn = tree.nearest_within(&q, 1.0).unwrap();
        assert!((nn.distance - (0.4f64 * 0.4 + 0.4 * 0.4).sqrt()).abs() < 1e-12);
        assert!(tree.nearest_within(&vec![50.0, 50.0], 1.0).is_none());
    }

    #[test]
    fn any_within_and_range() {
        let pts = grid(8);
        let tree = CoverTree::build(&pts, &Euclidean);
        let q = vec![3.5, 3.5];
        assert!(tree.any_within(&q, 0.8).is_some());
        assert!(tree.any_within(&q, 0.5).is_none());
        let mut out = Vec::new();
        let n = tree.range(&q, 0.75, &mut out);
        assert_eq!(n, 4, "four grid corners at distance ~0.707");
        assert_eq!(out.len(), 4);
        // brute check
        let brute: Vec<usize> = pts
            .iter()
            .enumerate()
            .filter(|(_, p)| Euclidean.distance(*p, &q) <= 0.75)
            .map(|(i, _)| i)
            .collect();
        let mut got = out.clone();
        got.sort_unstable();
        assert_eq!(got, brute);
    }

    #[test]
    fn count_within_caps() {
        let pts = grid(10);
        let tree = CoverTree::build(&pts, &Euclidean);
        let q = vec![5.0, 5.0];
        assert_eq!(tree.count_within(&q, 1.0, 100), 5); // self + 4 axis neighbors
        assert_eq!(tree.count_within(&q, 1.0, 3), 3);
        assert_eq!(tree.count_within(&q, 1.0, 0), 0);
        assert_eq!(tree.count_within(&q, 1e9, usize::MAX - 1), 100);
    }

    #[test]
    fn knn_matches_brute_force() {
        let pts = grid(9);
        let tree = CoverTree::build(&pts, &Euclidean);
        let q = vec![4.3, 3.8];
        for k in [1usize, 3, 7, 20, 81, 100] {
            let got = tree.knn(&q, k);
            let mut dists: Vec<f64> = pts.iter().map(|p| Euclidean.distance(p, &q)).collect();
            dists.sort_by(f64::total_cmp);
            let want: Vec<f64> = dists.into_iter().take(k).collect();
            assert_eq!(got.len(), want.len().min(pts.len()), "k={k}");
            for (g, w) in got.iter().zip(want.iter()) {
                assert!((g.distance - w).abs() < 1e-9, "k={k}");
            }
        }
        assert!(tree.knn(&q, 0).is_empty());
    }

    #[test]
    fn knn_counts_duplicates() {
        let pts = vec![vec![0.0], vec![0.0], vec![0.0], vec![5.0]];
        let tree = CoverTree::build(&pts, &Euclidean);
        let got = tree.knn(&vec![0.1], 3);
        assert_eq!(got.len(), 3);
        assert!(got.iter().all(|n| n.distance < 1.0));
    }

    #[test]
    fn works_with_strings() {
        let words: Vec<String> = [
            "cluster", "clusters", "cloister", "banana", "bandana", "dbscan",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let tree = CoverTree::build(&words, &Levenshtein);
        let nn = tree.nearest(&"clustering".to_string()).unwrap();
        assert_eq!(nn.distance, 3.0); // "cluster" and "clusters" tie at 3
        let mut out = Vec::new();
        tree.range(&"banan".to_string(), 2.0, &mut out);
        let found: Vec<&str> = out.iter().map(|&i| words[i].as_str()).collect();
        assert!(found.contains(&"banana"));
        assert!(found.contains(&"bandana"));
        assert!(!found.contains(&"dbscan"));
    }

    #[test]
    fn empty_tree_queries() {
        let pts: Vec<Vec<f64>> = vec![];
        let tree = CoverTree::build(&pts, &Euclidean);
        assert!(tree.nearest(&vec![0.0]).is_none());
        assert!(tree.any_within(&vec![0.0], 10.0).is_none());
        assert!(tree.knn(&vec![0.0], 3).is_empty());
        let mut out = Vec::new();
        assert_eq!(tree.range(&vec![0.0], 10.0, &mut out), 0);
    }
}
