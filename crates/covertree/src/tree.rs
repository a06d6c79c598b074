//! Tree structure and insertion.

use mdbscan_metric::Metric;

/// A nearest-neighbor query answer: point index (into the slice the tree
/// was built over) and its distance to the query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Neighbor {
    /// Index of the point in the backing slice.
    pub index: usize,
    /// Distance from the query to that point.
    pub distance: f64,
}

#[derive(Debug, Clone)]
pub(crate) struct Node {
    /// Index of the representative point in the backing slice.
    pub(crate) point: u32,
    /// Level at which this node was inserted; its implicit self-chain spans
    /// all levels below. Children attached at level `j` satisfy
    /// `dis(child, self) ≤ 2^{j+1}`.
    pub(crate) level: i32,
    /// The exact distance to this node's parent, recorded at insertion
    /// time (0 for the root). Usually far below the `2^{level+1}`
    /// covering cap, which is what makes it a *tighter* anchor: both
    /// insertion and every query skip a child whose parent-anchored
    /// triangle lower bound already clears the pruning radius — without
    /// evaluating the child's distance.
    pub(crate) parent_dist: f64,
    /// Explicit children (node ids), each with `child.level < self.level`.
    pub(crate) children: Vec<u32>,
    /// Exact duplicates of `point` (distance 0), collapsed into this node so
    /// the separation invariant survives duplicated inputs (the paper's
    /// noisy-duplication datasets contain many).
    pub(crate) same: Vec<u32>,
}

/// The borrow-free structure of a [`CoverTree`]: node records (point
/// indices, levels, child links) without the point slice or metric.
///
/// A skeleton is what a long-lived owner (e.g. a clustering engine that
/// caches its whole-input tree per epoch) stores: detach it with
/// [`CoverTree::into_skeleton`], keep it as long as the backing point
/// slice stays unchanged, and re-attach with [`CoverTree::from_skeleton`]
/// — re-attachment performs **zero distance evaluations**, which is the
/// entire construction cost the cache amortizes.
#[derive(Debug, Clone)]
pub struct CoverTreeSkeleton {
    pub(crate) nodes: Vec<Node>,
    pub(crate) root: Option<u32>,
    pub(crate) len: usize,
    /// Largest point index stored anywhere in `nodes` (0 when empty),
    /// computed once at detach time so re-attachment validates in O(1)
    /// instead of rescanning every node.
    pub(crate) max_index: u32,
}

impl CoverTreeSkeleton {
    /// Number of points the originating tree stored (duplicates included).
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the originating tree was empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Approximate heap footprint in bytes (node records + link lists) —
    /// what an LRU over skeletons accounts against its budget.
    pub fn heap_bytes(&self) -> usize {
        self.nodes.len() * std::mem::size_of::<Node>()
            + self
                .nodes
                .iter()
                .map(|n| (n.children.len() + n.same.len()) * std::mem::size_of::<u32>())
                .sum::<usize>()
    }
}

/// A cover tree over a borrowed point slice.
///
/// The tree stores indices into `points`; it never copies points. Build a
/// tree over a subset with [`CoverTree::from_indices`] (the paper's Step 2
/// indexes each core group `C̃_e` separately).
///
/// ```
/// use mdbscan_covertree::CoverTree;
/// use mdbscan_metric::Euclidean;
///
/// let pts: Vec<Vec<f64>> = (0..100).map(|i| vec![i as f64]).collect();
/// let tree = CoverTree::build(&pts, &Euclidean);
/// let nn = tree.nearest(&vec![41.3]).unwrap();
/// assert_eq!(nn.index, 41);
/// ```
pub struct CoverTree<'a, P, M> {
    pub(crate) points: &'a [P],
    pub(crate) metric: &'a M,
    pub(crate) nodes: Vec<Node>,
    pub(crate) root: Option<u32>,
    pub(crate) len: usize,
}

/// `⌈log₂ d⌉` as an i32, for strictly positive finite `d`.
pub(crate) fn level_for(d: f64) -> i32 {
    debug_assert!(d > 0.0 && d.is_finite());
    let l = d.log2().ceil() as i32;
    // Guard against rounding: 2^l must be >= d.
    if exp2(l) < d {
        l + 1
    } else {
        l
    }
}

/// `2^i` for i32 levels, saturating to f64 extremes.
#[inline]
pub(crate) fn exp2(i: i32) -> f64 {
    (i as f64).exp2()
}

impl<'a, P, M: Metric<P>> CoverTree<'a, P, M> {
    /// Builds a cover tree over all of `points` by incremental insertion.
    pub fn build(points: &'a [P], metric: &'a M) -> Self {
        Self::from_indices(points, metric, 0..points.len())
    }

    /// Builds a cover tree over the subset of `points` selected by
    /// `indices`. Indices must be in range; duplicates in `indices` are
    /// collapsed like duplicate points.
    pub fn from_indices(
        points: &'a [P],
        metric: &'a M,
        indices: impl IntoIterator<Item = usize>,
    ) -> Self {
        let mut tree = Self {
            points,
            metric,
            nodes: Vec::new(),
            root: None,
            len: 0,
        };
        for i in indices {
            tree.insert(i);
        }
        tree
    }

    /// Detaches the tree's structure from the borrowed points and metric,
    /// producing an owned [`CoverTreeSkeleton`] that can outlive both.
    pub fn into_skeleton(self) -> CoverTreeSkeleton {
        let max_index = self
            .nodes
            .iter()
            .flat_map(|n| std::iter::once(n.point).chain(n.same.iter().copied()))
            .max()
            .unwrap_or(0);
        CoverTreeSkeleton {
            nodes: self.nodes,
            root: self.root,
            len: self.len,
            max_index,
        }
    }

    /// Re-attaches a skeleton to a point slice and metric, restoring a
    /// queryable tree **without any distance evaluations** (the cost is a
    /// structure move plus an O(1) bounds check).
    ///
    /// The caller must supply the same (or an equal) point slice the
    /// skeleton was built over; every point index stored in the skeleton
    /// must be in range for `points` (checked via the skeleton's
    /// precomputed maximum index).
    pub fn from_skeleton(points: &'a [P], metric: &'a M, skeleton: CoverTreeSkeleton) -> Self {
        assert!(
            skeleton.nodes.is_empty() || (skeleton.max_index as usize) < points.len(),
            "skeleton indexes past the supplied point slice"
        );
        Self {
            points,
            metric,
            nodes: skeleton.nodes,
            root: skeleton.root,
            len: skeleton.len,
        }
    }

    /// Number of points stored (including collapsed duplicates).
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no point has been inserted.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The backing point slice.
    pub fn points(&self) -> &'a [P] {
        self.points
    }

    /// Current root level (`l_top`), if non-empty.
    pub fn root_level(&self) -> Option<i32> {
        self.root.map(|r| self.nodes[r as usize].level)
    }

    #[inline]
    fn dist(&self, node: u32, q: &P) -> f64 {
        self.metric
            .distance(&self.points[self.nodes[node as usize].point as usize], q)
    }

    /// Inserts the point at `index` into the tree.
    ///
    /// Implements the textbook `Insert` recursion iteratively: descend with
    /// a cover set `Q_i`, remembering at each level a candidate parent
    /// within `2^i`; when the descent fails (`dis(p, Q) > 2^i`), attach to
    /// the deepest remembered parent. Exact duplicates are appended to the
    /// matching node's `same` list.
    pub fn insert(&mut self, index: usize) {
        assert!(index < self.points.len(), "point index out of range");
        let p = &self.points[index];
        let Some(root) = self.root else {
            self.nodes.push(Node {
                point: index as u32,
                level: 0,
                parent_dist: 0.0,
                children: Vec::new(),
                same: Vec::new(),
            });
            self.root = Some(0);
            self.len = 1;
            return;
        };

        let d_root = self.dist(root, p);
        if d_root == 0.0 {
            self.nodes[root as usize].same.push(index as u32);
            self.len += 1;
            return;
        }
        // Promote the root so its ball covers p. Promotion is free: the
        // implicit self-chain simply starts higher.
        let needed = level_for(d_root);
        if needed > self.nodes[root as usize].level {
            self.nodes[root as usize].level = needed;
        }

        let mut level = self.nodes[root as usize].level;
        // Cover set Q_i: (node id, distance to p) for the nodes whose
        // implicit chains at `level` may still adopt p.
        let mut cover: Vec<(u32, f64)> = vec![(root, d_root)];
        // Deepest (node, level j, distance) seen with `node ∈ Q_j` and
        // `dis(p, node) ≤ 2^j`; on descent failure p attaches under `node`
        // at level `j − 1` (textbook step 3b, with the cascade flattened).
        let mut parent: (u32, i32, f64) = (root, self.nodes[root as usize].level, d_root);
        debug_assert!(d_root <= exp2(parent.1));

        loop {
            let radius = exp2(level);
            // Remember the closest valid parent among the incoming Q_i.
            if let Some(&(q, d)) = cover
                .iter()
                .filter(|&&(_, d)| d <= radius)
                .min_by(|a, b| a.1.total_cmp(&b.1))
            {
                parent = (q, level, d);
            }
            // Expand: Q = Q_i ∪ {children of Q_i at level − 1} (the nodes
            // themselves stand in for their implicit self-children).
            let mut expanded = cover.clone();
            #[allow(clippy::needless_range_loop)]
            // indexing avoids holding a borrow across the mutation below
            for k in 0..cover.len() {
                let (q, dq) = cover[k];
                // Collect ids first: computing distances needs `&self`.
                // Children whose parent-anchored lower bound
                // `dis(p, q) − dis(c, q)` already exceeds the covering
                // radius cannot join the next cover set (and cannot be a
                // duplicate of p) — skip their distance evaluation; the
                // resulting tree is identical.
                let child_ids: Vec<u32> = self.nodes[q as usize]
                    .children
                    .iter()
                    .copied()
                    .filter(|&c| {
                        let node = &self.nodes[c as usize];
                        node.level == level - 1 && dq - node.parent_dist <= radius
                    })
                    .collect();
                for c in child_ids {
                    let d = self.dist(c, p);
                    if d == 0.0 {
                        self.nodes[c as usize].same.push(index as u32);
                        self.len += 1;
                        return;
                    }
                    expanded.push((c, d));
                }
            }
            let dmin = expanded
                .iter()
                .map(|&(_, d)| d)
                .fold(f64::INFINITY, f64::min);
            if dmin > radius {
                // d(p, Q) > 2^i: no chain below can adopt p.
                break;
            }
            cover = expanded.into_iter().filter(|&(_, d)| d <= radius).collect();
            // Jump past levels where nothing changes: no new children get
            // expanded and the parent candidate stays the current argmin
            // until the covering test first fails at `level_for(dmin) − 1`.
            let next_child_level = cover
                .iter()
                .flat_map(|&(q, _)| self.nodes[q as usize].children.iter())
                .map(|&c| self.nodes[c as usize].level)
                .filter(|&l| l <= level - 2)
                .max();
            let attach_floor = level_for(dmin); // smallest i with dmin <= 2^i
            let next = match next_child_level {
                // A child at level c is expanded when the loop sits at c+1.
                Some(cl) => (cl + 1).max(attach_floor),
                None => attach_floor,
            };
            // `min` guarantees progress even when `next == level` (the
            // covering test will then fail one level down and we attach).
            level = next.min(level - 1);
        }

        let (pnode, plevel, pdist) = parent;
        debug_assert!(
            self.dist(pnode, p) <= exp2(plevel),
            "covering invariant would break"
        );
        let node = Node {
            point: index as u32,
            level: plevel - 1,
            parent_dist: pdist,
            children: Vec::new(),
            same: Vec::new(),
        };
        let id = self.nodes.len() as u32;
        self.nodes.push(node);
        self.nodes[pnode as usize].children.push(id);
        self.len += 1;
    }

    /// All point indices stored in the subtree rooted at `node` (that is,
    /// the node's own chain and everything attached below), including
    /// duplicates.
    pub(crate) fn collect_subtree(&self, node: u32, out: &mut Vec<usize>) {
        let n = &self.nodes[node as usize];
        out.push(n.point as usize);
        out.extend(n.same.iter().map(|&s| s as usize));
        for &c in &n.children {
            self.collect_subtree(c, out);
        }
    }

    /// Every stored point index (order unspecified).
    pub fn indices(&self) -> Vec<usize> {
        let mut out = Vec::with_capacity(self.len);
        if let Some(r) = self.root {
            self.collect_subtree(r, &mut out);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdbscan_metric::Euclidean;

    #[test]
    fn empty_tree() {
        let pts: Vec<Vec<f64>> = vec![];
        let t = CoverTree::build(&pts, &Euclidean);
        assert!(t.is_empty());
        assert_eq!(t.len(), 0);
        assert_eq!(t.root_level(), None);
        assert!(t.indices().is_empty());
    }

    #[test]
    fn single_and_duplicate_points() {
        let pts = vec![vec![1.0, 1.0], vec![1.0, 1.0], vec![1.0, 1.0]];
        let t = CoverTree::build(&pts, &Euclidean);
        assert_eq!(t.len(), 3);
        let mut idx = t.indices();
        idx.sort_unstable();
        assert_eq!(idx, vec![0, 1, 2]);
        // All duplicates collapse into one node.
        assert_eq!(t.nodes.len(), 1);
    }

    #[test]
    fn stores_all_points() {
        let pts: Vec<Vec<f64>> = (0..200)
            .map(|i| vec![(i % 17) as f64 * 0.37, (i % 23) as f64 * 1.11])
            .collect();
        let t = CoverTree::build(&pts, &Euclidean);
        assert_eq!(t.len(), 200);
        let mut idx = t.indices();
        idx.sort_unstable();
        assert_eq!(idx, (0..200).collect::<Vec<_>>());
    }

    #[test]
    fn subset_build() {
        let pts: Vec<Vec<f64>> = (0..50).map(|i| vec![i as f64]).collect();
        let t = CoverTree::from_indices(&pts, &Euclidean, (0..50).step_by(2));
        assert_eq!(t.len(), 25);
        assert!(t.indices().iter().all(|i| i % 2 == 0));
    }

    #[test]
    fn level_for_powers() {
        assert_eq!(level_for(1.0), 0);
        assert_eq!(level_for(2.0), 1);
        assert_eq!(level_for(2.1), 2);
        assert_eq!(level_for(0.5), -1);
        assert_eq!(level_for(0.4), -1);
        assert!(exp2(level_for(3.7)) >= 3.7);
        assert!(exp2(level_for(1e-9)) >= 1e-9);
    }

    #[test]
    #[should_panic]
    fn out_of_range_insert_panics() {
        let pts = vec![vec![0.0]];
        let mut t = CoverTree::build(&pts, &Euclidean);
        t.insert(5);
    }

    #[test]
    fn skeleton_round_trip_preserves_queries() {
        let pts: Vec<Vec<f64>> = (0..150)
            .map(|i| vec![(i % 13) as f64 * 0.7, (i % 29) as f64 * 0.3])
            .collect();
        let tree = CoverTree::build(&pts, &Euclidean);
        let queries: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64 * 0.43, 2.1]).collect();
        let want: Vec<_> = queries.iter().map(|q| tree.nearest(q)).collect();
        let skeleton = tree.into_skeleton();
        assert_eq!(skeleton.len(), 150);
        assert!(!skeleton.is_empty());
        assert!(skeleton.heap_bytes() > 0);
        // A clone re-attaches independently; both answer identically.
        let restored = CoverTree::from_skeleton(&pts, &Euclidean, skeleton.clone());
        let again = CoverTree::from_skeleton(&pts, &Euclidean, skeleton);
        for (q, w) in queries.iter().zip(&want) {
            assert_eq!(&restored.nearest(q), w);
            assert_eq!(&again.nearest(q), w);
        }
    }

    #[test]
    #[should_panic]
    fn skeleton_rejects_short_slice() {
        let pts: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64]).collect();
        let skeleton = CoverTree::build(&pts, &Euclidean).into_skeleton();
        let short = &pts[..3];
        let _ = CoverTree::from_skeleton(short, &Euclidean, skeleton);
    }
}
