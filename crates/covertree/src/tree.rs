//! Tree structure and insertion.

use mdbscan_metric::BatchMetric;

/// A nearest-neighbor query answer: point index (into the slice the tree
/// was built over) and its distance to the query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Neighbor {
    /// Index of the point in the backing slice.
    pub index: usize,
    /// Distance from the query to that point.
    pub distance: f64,
}

/// One explicit child link, carrying copies of the child's fields that
/// the insertion descent reads, so a level's children are one run of
/// records and the descent never touches the child's own node.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Child {
    /// Node id of the child.
    pub(crate) id: u32,
    /// The child's representative point.
    pub(crate) point: u32,
    /// The child's level (below its parent's).
    pub(crate) level: i32,
    /// The child's exact distance to this parent.
    pub(crate) parent_dist: f64,
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
    /// Explicit children, each with `child.level < self.level`, grouped
    /// by level from the highest down and in insertion (= id) order
    /// within a level: the children one level down are one run.
    pub(crate) children: Vec<Child>,
    /// Exact duplicates of `point` (distance 0), collapsed into this node so
    /// the separation invariant survives duplicated inputs (the paper's
    /// noisy-duplication datasets contain many).
    pub(crate) same: Vec<u32>,
}

impl Node {
    fn leaf(point: u32, level: i32, parent_dist: f64) -> Self {
        Node {
            point,
            level,
            parent_dist,
            children: Vec::new(),
            same: Vec::new(),
        }
    }
}

/// The borrow-free structure of a [`CoverTree`]: node records (point
/// indices, levels, exact parent distances, level-grouped child links
/// and duplicates) without the point slice or metric.
///
/// A skeleton is what a long-lived owner (e.g. a clustering engine that
/// caches its whole-input tree per epoch) stores: detach it with
/// [`CoverTree::into_skeleton`] and keep it as long as the backing
/// point slice stays unchanged. Reading a net needs no points and no
/// metric ([`CoverTreeSkeleton::extract_net`]); growing the tree
/// re-attaches it with [`CoverTree::from_skeleton`], which performs
/// **zero distance evaluations**.
#[derive(Debug, Clone)]
pub struct CoverTreeSkeleton {
    pub(crate) nodes: Vec<Node>,
    pub(crate) root: Option<u32>,
    pub(crate) len: usize,
    /// Largest point index stored anywhere in `nodes` (0 when empty),
    /// kept up to date by insertion so re-attachment validates in O(1)
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

    /// Largest point index the tree stores, or `None` when it is empty:
    /// a point slice must be longer than this to back the tree.
    pub fn max_point(&self) -> Option<usize> {
        (!self.nodes.is_empty()).then_some(self.max_index as usize)
    }

    /// Approximate heap footprint in bytes (node records, child records
    /// and duplicate lists) — what an LRU over skeletons accounts
    /// against its budget.
    pub fn heap_bytes(&self) -> usize {
        self.nodes.len() * std::mem::size_of::<Node>()
            + self
                .nodes
                .iter()
                .map(|n| {
                    n.children.len() * std::mem::size_of::<Child>()
                        + n.same.len() * std::mem::size_of::<u32>()
                })
                .sum::<usize>()
    }

    /// Panics unless a slice of `num_points` points can back this tree.
    pub(crate) fn assert_fits(&self, num_points: usize) {
        assert!(
            self.max_point().is_none_or(|m| m < num_points),
            "skeleton indexes past the supplied point slice"
        );
    }
}

/// One cover-set entry: a node, a cursor to its first child not yet
/// expanded and that child's level, and the node's distance to the
/// point being inserted.
#[derive(Debug, Clone, Copy)]
struct CoverEntry {
    node: u32,
    cursor: u32,
    /// Level of the child at `cursor`, or [`NO_CHILD`].
    next_level: i32,
    dist: f64,
}

/// The `next_level` of an entry with no child left to expand; below
/// every real level.
const NO_CHILD: i32 = i32::MIN;

/// Level of the first of `children`, or [`NO_CHILD`].
fn first_level(children: &[Child]) -> i32 {
    children.first().map_or(NO_CHILD, |c| c.level)
}

/// Buffers [`CoverTree::insert`] reuses from one insertion to the next.
#[derive(Debug, Default)]
struct Scratch {
    /// The cover set `Q_i`.
    cover: Vec<CoverEntry>,
    /// Point ids of the level's children that survive the parent bound.
    ids: Vec<u32>,
    /// Their node ids, in the same order.
    found: Vec<u32>,
    /// Their distances to the point being inserted.
    dists: Vec<f64>,
}

/// A cover tree over a borrowed point slice.
///
/// The tree stores indices into `points`; it never copies points. Build a
/// tree over a subset with [`CoverTree::from_indices`].
///
/// ```
/// use mdbscan_covertree::CoverTree;
/// use mdbscan_metric::Euclidean;
///
/// let pts: Vec<Vec<f64>> = (0..100).map(|i| vec![i as f64]).collect();
/// let tree = CoverTree::build(&pts, &Euclidean);
/// // Level 2 is a net with separation 4 and covering radius 8.
/// let net = tree.extract_net(2);
/// assert!(net.centers.len() > 1 && net.centers.len() < 100);
/// let c = net.centers[net.assignment[41] as usize];
/// assert!((c as f64 - 41.0).abs() <= net.cover_radius);
/// ```
pub struct CoverTree<'a, P, M> {
    pub(crate) points: &'a [P],
    pub(crate) metric: &'a M,
    pub(crate) tree: CoverTreeSkeleton,
    scratch: Scratch,
}

/// Bits of an `f64` below its exponent.
const MANTISSA: u64 = (1 << 52) - 1;

/// `⌈log₂ d⌉` as an i32 — the smallest `i` with `2^i ≥ d` — for
/// strictly positive finite `d`. Read off the bits for normal `d`.
#[inline]
pub(crate) fn level_for(d: f64) -> i32 {
    debug_assert!(d > 0.0 && d.is_finite());
    let bits = d.to_bits();
    match (bits >> 52) as i32 {
        0 => level_for_subnormal(d),
        biased => biased - 1023 + i32::from(bits & MANTISSA != 0),
    }
}

fn level_for_subnormal(d: f64) -> i32 {
    let l = d.log2().ceil() as i32;
    // Guard against rounding: 2^l must be >= d.
    if exp2(l) < d {
        l + 1
    } else {
        l
    }
}

/// `2^i` for i32 levels, saturating to f64 extremes. Built from the
/// bits where `2^i` is a normal `f64`.
#[inline]
pub(crate) fn exp2(i: i32) -> f64 {
    if (-1022..=1023).contains(&i) {
        f64::from_bits(((i + 1023) as u64) << 52)
    } else {
        (i as f64).exp2()
    }
}

impl<'a, P, M> CoverTree<'a, P, M> {
    /// Detaches the tree's structure from the borrowed points and metric,
    /// producing an owned [`CoverTreeSkeleton`] that can outlive both.
    ///
    /// Every buffer is shrunk to its length on the way out: a cached
    /// skeleton keeps no growth slack, and the build's spare capacity
    /// goes back to the allocator before the owner holds the tree.
    pub fn into_skeleton(self) -> CoverTreeSkeleton {
        let mut tree = self.tree;
        tree.nodes.shrink_to_fit();
        for node in &mut tree.nodes {
            node.children.shrink_to_fit();
            node.same.shrink_to_fit();
        }
        tree
    }

    /// Re-attaches a skeleton to a point slice and metric, restoring a
    /// tree that can grow **without any distance evaluations** (the
    /// cost is a structure move plus an O(1) bounds check).
    ///
    /// The caller must supply the same (or an equal) point slice the
    /// skeleton was built over; every point index stored in the skeleton
    /// must be in range for `points` (checked via the skeleton's
    /// precomputed maximum index).
    pub fn from_skeleton(points: &'a [P], metric: &'a M, skeleton: CoverTreeSkeleton) -> Self {
        skeleton.assert_fits(points.len());
        Self {
            points,
            metric,
            tree: skeleton,
            scratch: Scratch::default(),
        }
    }

    /// Number of points stored (including collapsed duplicates).
    pub fn len(&self) -> usize {
        self.tree.len
    }

    /// True when no point has been inserted.
    pub fn is_empty(&self) -> bool {
        self.tree.len == 0
    }

    /// The backing point slice.
    pub fn points(&self) -> &'a [P] {
        self.points
    }

    /// Current root level (`l_top`), if non-empty.
    pub fn root_level(&self) -> Option<i32> {
        self.tree.root.map(|r| self.tree.nodes[r as usize].level)
    }

    /// All point indices stored in the subtree rooted at `node` (that is,
    /// the node's own chain and everything attached below), including
    /// duplicates.
    pub(crate) fn collect_subtree(&self, node: u32, out: &mut Vec<usize>) {
        let n = &self.tree.nodes[node as usize];
        out.push(n.point as usize);
        out.extend(n.same.iter().map(|&s| s as usize));
        for c in &n.children {
            self.collect_subtree(c.id, out);
        }
    }

    /// Every stored point index (order unspecified).
    pub fn indices(&self) -> Vec<usize> {
        let mut out = Vec::with_capacity(self.tree.len);
        if let Some(r) = self.tree.root {
            self.collect_subtree(r, &mut out);
        }
        out
    }
}

impl<'a, P, M: BatchMetric<P>> CoverTree<'a, P, M> {
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
            tree: CoverTreeSkeleton {
                nodes: Vec::new(),
                root: None,
                len: 0,
                max_index: 0,
            },
            scratch: Scratch::default(),
        };
        for i in indices {
            tree.insert(i);
        }
        tree
    }

    /// Inserts the point at `index` into the tree.
    ///
    /// Implements the textbook `Insert` recursion iteratively: descend with
    /// a cover set `Q_i`, remembering at each level a candidate parent
    /// within `2^i`; when the descent fails (`dis(p, Q) > 2^i`), attach to
    /// the deepest remembered parent. Exact duplicates are appended to the
    /// matching node's `same` list.
    ///
    /// Each level evaluates its surviving children with one
    /// [`BatchMetric::dist_many`] call, bit-identical to one
    /// [`mdbscan_metric::Metric::distance`] call per child. The tree is
    /// the same as a one-at-a-time descent's; only on exact duplicates
    /// does the batch also evaluate the level's children after the
    /// duplicate.
    pub fn insert(&mut self, index: usize) {
        assert!(index < self.points.len(), "point index out of range");
        let (points, metric) = (self.points, self.metric);
        let (tree, s) = (&mut self.tree, &mut self.scratch);
        let p = &points[index];
        tree.len += 1;
        tree.max_index = tree.max_index.max(index as u32);
        let nodes = &mut tree.nodes;
        let Some(root) = tree.root else {
            nodes.push(Node::leaf(index as u32, 0, 0.0));
            tree.root = Some(0);
            return;
        };

        let d_root = metric.distance(&points[nodes[root as usize].point as usize], p);
        if d_root == 0.0 {
            nodes[root as usize].same.push(index as u32);
            return;
        }
        // Promote the root so its ball covers p. Promotion is free: the
        // implicit self-chain simply starts higher.
        let root_node = &mut nodes[root as usize];
        root_node.level = root_node.level.max(level_for(d_root));

        let mut level = root_node.level;
        // Cover set Q_i: the nodes whose implicit chains at `level` may
        // still adopt p. Every entry's cursor sits at its first child
        // with level ≤ `level − 1`: the levels only fall, and the jump
        // below never skips a level that holds a cover node's child. So
        // an entry expands only when that child sits at `level − 1`.
        s.cover.clear();
        s.cover.push(CoverEntry {
            node: root,
            cursor: 0,
            next_level: first_level(&nodes[root as usize].children),
            dist: d_root,
        });
        // Deepest (node, level j, distance) seen with `node ∈ Q_j` and
        // `dis(p, node) ≤ 2^j`; on descent failure p attaches under `node`
        // at level `j − 1` (textbook step 3b, with the cascade flattened).
        let mut parent: (u32, i32, f64) = (root, level, d_root);
        debug_assert!(d_root <= exp2(parent.1));

        loop {
            let radius = exp2(level);
            // One pass over the incoming Q_i: the closest valid parent
            // (the first on ties), d(p, Q_i), and the expansion
            // Q = Q_i ∪ {children of Q_i at level − 1} (the nodes
            // themselves stand in for their implicit self-children). A
            // child whose parent-anchored lower bound
            // `dis(p, q) − dis(c, q)` already exceeds the covering radius
            // cannot join the next cover set (and cannot be a duplicate
            // of p), so its distance is never evaluated.
            let mut best: Option<(u32, f64)> = None;
            let mut dmin = f64::INFINITY;
            s.ids.clear();
            s.found.clear();
            for e in &mut s.cover {
                debug_assert!(e.next_level < level);
                if e.dist <= radius && best.is_none_or(|(_, d)| e.dist.total_cmp(&d).is_lt()) {
                    best = Some((e.node, e.dist));
                }
                dmin = dmin.min(e.dist);
                if e.next_level != level - 1 {
                    continue;
                }
                let children = &nodes[e.node as usize].children;
                let mut k = e.cursor as usize;
                while let Some(c) = children.get(k).filter(|c| c.level == level - 1) {
                    if e.dist - c.parent_dist <= radius {
                        s.ids.push(c.point);
                        s.found.push(c.id);
                    }
                    k += 1;
                }
                e.cursor = k as u32;
                e.next_level = first_level(&children[k..]);
            }
            if let Some((node, dist)) = best {
                parent = (node, level, dist);
            }
            if !s.ids.is_empty() {
                metric.dist_many(points, p, &s.ids, &mut s.dists);
                // The first duplicate in expansion order, as one distance
                // at a time would meet it.
                if let Some(k) = s.dists.iter().position(|&d| d == 0.0) {
                    nodes[s.found[k] as usize].same.push(index as u32);
                    return;
                }
                dmin = s.dists.iter().copied().fold(dmin, f64::min);
            }
            if dmin > radius {
                // d(p, Q) > 2^i: no chain below can adopt p.
                break;
            }
            // The next cover set, and the highest level any of its nodes
            // still has children at (all at or below `level − 2`).
            let mut next_child_level = NO_CHILD;
            s.cover.retain(|e| {
                let keep = e.dist <= radius;
                if keep {
                    next_child_level = next_child_level.max(e.next_level);
                }
                keep
            });
            for (&node, &dist) in s.found.iter().zip(&s.dists) {
                if dist <= radius {
                    let next_level = first_level(&nodes[node as usize].children);
                    next_child_level = next_child_level.max(next_level);
                    s.cover.push(CoverEntry {
                        node,
                        cursor: 0,
                        next_level,
                        dist,
                    });
                }
            }
            debug_assert!(next_child_level <= level - 2);
            // Jump past levels where nothing changes: no new children get
            // expanded and the parent candidate stays the current argmin
            // until the covering test first fails at `level_for(dmin) − 1`.
            // A child at level c is expanded when the loop sits at c + 1.
            let attach_floor = level_for(dmin); // smallest i with dmin <= 2^i
            let next = (next_child_level + 1).max(attach_floor);
            // `min` guarantees progress even when `next == level` (the
            // covering test will then fail one level down and we attach).
            level = next.min(level - 1);
        }

        let (pnode, plevel, pdist) = parent;
        // Checked on the recorded distance: evaluating it again would
        // make debug builds count one more evaluation per insert.
        debug_assert!(pdist <= exp2(plevel), "covering invariant would break");
        let child = Child {
            id: nodes.len() as u32,
            point: index as u32,
            level: plevel - 1,
            parent_dist: pdist,
        };
        nodes.push(Node::leaf(child.point, child.level, child.parent_dist));
        // Last in its level's run: ids grow with insertion.
        let siblings = &mut nodes[pnode as usize].children;
        let at = siblings.partition_point(|c| c.level >= child.level);
        siblings.insert(at, child);
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
        assert_eq!(t.tree.nodes.len(), 1);
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
    fn level_helpers_match_the_float_library() {
        for i in -1100..1100 {
            assert_eq!(exp2(i).to_bits(), (i as f64).exp2().to_bits(), "2^{i}");
        }
        let mut d = f64::from_bits(1); // smallest subnormal
        let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
        while d < 1e300 {
            for v in [d, d.next_down(), d.next_up()] {
                if v > 0.0 {
                    assert_eq!(level_for(v), level_for_subnormal(v), "{v:e}");
                }
            }
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            d *= 1.0 + (x >> 11) as f64 / (1u64 << 53) as f64;
        }
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
        let levels = [-3, -1, 0, 2];
        let nets: Vec<_> = levels.iter().map(|&l| tree.extract_net(l)).collect();
        let skeleton = tree.into_skeleton();
        assert_eq!(skeleton.len(), 150);
        assert!(!skeleton.is_empty());
        assert!(skeleton.heap_bytes() > 0);
        // A clone re-attaches independently; both answer identically,
        // and the skeleton reads the same nets by itself.
        let restored = CoverTree::from_skeleton(&pts, &Euclidean, skeleton.clone());
        for (&l, w) in levels.iter().zip(&nets) {
            for net in [skeleton.extract_net(l, pts.len()), restored.extract_net(l)] {
                assert_eq!(net.centers, w.centers, "level {l}");
                assert_eq!(net.assignment, w.assignment, "level {l}");
            }
        }
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
