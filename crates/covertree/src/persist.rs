//! Byte codec for [`CoverTreeSkeleton`] — what lets a cached §3.2 tree
//! survive a process restart and
//! re-attach to its point slice with **zero distance evaluations**,
//! exactly like the in-memory skeleton cache it serializes.

use crate::tree::{Child, CoverTreeSkeleton, Node};
use mdbscan_persist::{ByteReader, ByteWriter, PersistError};

impl CoverTreeSkeleton {
    /// Appends the node records (point ids, levels, exact parent
    /// distances, child links in id order, duplicates) plus the root and
    /// the cached length/max-index bookkeeping.
    pub fn encode(&self, out: &mut ByteWriter) {
        out.put_usize(self.nodes.len());
        let mut ids = Vec::new();
        for node in &self.nodes {
            out.put_u32(node.point);
            out.put_i32(node.level);
            out.put_f64(node.parent_dist);
            ids.clear();
            ids.extend(node.children.iter().map(|c| c.id));
            ids.sort_unstable();
            out.put_u32s(&ids);
            out.put_u32s(&node.same);
        }
        match self.root {
            Some(root) => {
                out.put_bool(true);
                out.put_u32(root);
            }
            None => out.put_bool(false),
        }
        out.put_usize(self.len);
        out.put_u32(self.max_index);
    }

    /// Reads a skeleton written by [`CoverTreeSkeleton::encode`] and
    /// rebuilds each node's level-grouped child records.
    ///
    /// The links must form the tree insertion builds: every node but
    /// the root is linked exactly once, from a lower id at a higher
    /// level, and each node lists its children in id order. A skeleton
    /// that breaks this (a self-link, a cycle, a second parent, a link
    /// out of range) or whose bookkeeping disagrees with its nodes fails
    /// typed here, instead of looping or panicking at query time.
    pub fn decode(r: &mut ByteReader<'_>) -> Result<Self, PersistError> {
        let num_nodes = r.get_usize()?;
        let cap = num_nodes.min(r.remaining() / 16 + 1);
        let mut nodes = Vec::with_capacity(cap);
        let mut links = Vec::with_capacity(cap);
        for _ in 0..num_nodes {
            nodes.push(Node {
                point: r.get_u32()?,
                level: r.get_i32()?,
                parent_dist: r.get_f64()?,
                children: Vec::new(),
                same: Vec::new(),
            });
            links.push(r.get_u32s()?);
            nodes.last_mut().expect("just pushed").same = r.get_u32s()?;
        }
        let root = if r.get_bool()? {
            Some(r.get_u32()?)
        } else {
            None
        };
        let len = r.get_usize()?;
        let max_index = r.get_u32()?;
        if let Some(root) = root {
            if root as usize >= nodes.len() {
                return Err(r.err(format!("root {root} out of range ({} nodes)", nodes.len())));
            }
        }
        let mut linked = vec![false; nodes.len()];
        for (i, ids) in links.iter().enumerate() {
            let mut prev = 0;
            for &c in ids {
                if c as usize >= nodes.len() {
                    return Err(r.err(format!("node {i} links to missing child {c}")));
                }
                if c as usize == i {
                    return Err(r.err(format!("node {i} links to itself")));
                }
                if (c as usize) < i {
                    return Err(r.err(format!("node {i} links back to lower id {c}")));
                }
                if c <= prev {
                    return Err(r.err(format!("children of node {i} out of id order")));
                }
                if nodes[c as usize].level >= nodes[i].level {
                    return Err(r.err(format!("node {i} links to child {c} at a level not below")));
                }
                if std::mem::replace(&mut linked[c as usize], true) {
                    return Err(r.err(format!("node {c} has a second parent, {i}")));
                }
                prev = c;
            }
        }
        if let Some(i) = (0..nodes.len()).find(|&i| linked[i] == (root == Some(i as u32))) {
            return Err(r.err(if linked[i] {
                format!("root {i} is linked as a child")
            } else {
                format!("node {i} is neither the root nor linked")
            }));
        }
        for (i, ids) in links.iter().enumerate() {
            let mut children: Vec<Child> = ids
                .iter()
                .map(|&c| {
                    let child = &nodes[c as usize];
                    Child {
                        id: c,
                        point: child.point,
                        level: child.level,
                        parent_dist: child.parent_dist,
                    }
                })
                .collect();
            // Stable: id order survives within each level.
            children.sort_by_key(|c| std::cmp::Reverse(c.level));
            nodes[i].children = children;
        }
        // Recompute the derived invariants instead of trusting the
        // stored copies: `max_index` is what `from_skeleton` bounds the
        // point slice against, and `len` is what caches size decisions
        // on — a mismatch means the node records and the bookkeeping
        // disagree, and accepting the stored values would defer the
        // failure to an index panic at query time.
        let mut count = 0usize;
        let mut max_seen = 0u32;
        for node in &nodes {
            count += 1 + node.same.len();
            max_seen = max_seen.max(node.point);
            for &s in &node.same {
                max_seen = max_seen.max(s);
            }
        }
        if len != count {
            return Err(r.err(format!(
                "stored length {len} disagrees with the {count} points the nodes record"
            )));
        }
        if max_index != max_seen {
            return Err(r.err(format!(
                "stored max point index {max_index} disagrees with recorded maximum {max_seen}"
            )));
        }
        Ok(CoverTreeSkeleton {
            nodes,
            root,
            len,
            max_index,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CoverTree;
    use mdbscan_metric::{CountingMetric, Euclidean};

    fn encoded(skeleton: &CoverTreeSkeleton) -> Vec<u8> {
        let mut w = ByteWriter::new();
        skeleton.encode(&mut w);
        w.into_bytes()
    }

    fn decode_reason(skeleton: &CoverTreeSkeleton) -> String {
        let bytes = encoded(skeleton);
        let mut r = ByteReader::new("covertree", &bytes);
        match CoverTreeSkeleton::decode(&mut r) {
            Err(PersistError::Format { reason, .. }) => reason,
            other => panic!("expected a Format error, got {other:?}"),
        }
    }

    fn line_skeleton(n: usize) -> CoverTreeSkeleton {
        let pts: Vec<Vec<f64>> = (0..n).map(|i| vec![i as f64]).collect();
        CoverTree::build(&pts, &Euclidean).into_skeleton()
    }

    /// A link from `parent` to `child`, as decode would rebuild it.
    fn link(skeleton: &mut CoverTreeSkeleton, parent: u32, child: u32) {
        let c = &skeleton.nodes[child as usize];
        let record = Child {
            id: child,
            point: c.point,
            level: c.level,
            parent_dist: c.parent_dist,
        };
        skeleton.nodes[parent as usize].children.push(record);
    }

    /// The node that links to `child`.
    fn parent_of(skeleton: &CoverTreeSkeleton, child: u32) -> u32 {
        let at = skeleton
            .nodes
            .iter()
            .position(|n| n.children.iter().any(|c| c.id == child))
            .expect("linked");
        at as u32
    }

    #[test]
    fn skeleton_round_trips_and_reattaches_without_evaluations() {
        let pts: Vec<Vec<f64>> = (0..60)
            .map(|i| vec![(i % 10) as f64, (i / 10) as f64 * 1.7])
            .collect();
        let skeleton = CoverTree::build(&pts, &Euclidean).into_skeleton();

        let bytes = encoded(&skeleton);
        let mut r = ByteReader::new("covertree", &bytes);
        let back = CoverTreeSkeleton::decode(&mut r).unwrap();
        assert!(r.finished());
        assert_eq!(back.len(), skeleton.len());
        assert_eq!(encoded(&back), bytes, "decode then encode changes bytes");

        // The decoded skeleton reads the same nets, and re-attaching it
        // with a counting metric evaluates nothing.
        for level in [-2, 0, 1, 3] {
            let (got, want) = (
                back.extract_net(level, pts.len()),
                skeleton.extract_net(level, pts.len()),
            );
            assert_eq!(got.centers, want.centers, "level {level}");
            assert_eq!(got.assignment, want.assignment, "level {level}");
        }
        let counting = CountingMetric::new(Euclidean);
        let tree = CoverTree::from_skeleton(&pts, &counting, back);
        assert_eq!(counting.count(), 0, "re-attach must evaluate nothing");
        assert_eq!(tree.len(), pts.len());
    }

    #[test]
    fn out_of_range_links_fail_typed() {
        let mut skeleton = line_skeleton(5);
        skeleton.nodes[0].children.push(Child {
            id: 999,
            point: 0,
            level: -99,
            parent_dist: 1.0,
        });
        assert!(decode_reason(&skeleton).contains("missing child"));
    }

    #[test]
    fn self_link_fails_typed() {
        let mut skeleton = line_skeleton(20);
        let leaf = skeleton.nodes.len() as u32 - 1;
        link(&mut skeleton, leaf, leaf);
        assert!(decode_reason(&skeleton).contains("links to itself"));
    }

    #[test]
    fn back_link_cycle_fails_typed() {
        let mut skeleton = line_skeleton(20);
        let child = skeleton.nodes.len() as u32 - 1;
        let parent = parent_of(&skeleton, child);
        link(&mut skeleton, child, parent);
        assert!(decode_reason(&skeleton).contains("links back"));
    }

    #[test]
    fn second_parent_fails_typed() {
        let mut skeleton = line_skeleton(20);
        // A grandchild of the root gains the root as a second parent:
        // lower id, higher level, so only the parent count is wrong.
        let grandchild = (1..skeleton.nodes.len() as u32)
            .find(|&c| parent_of(&skeleton, c) != 0)
            .expect("a line of 20 points has depth");
        link(&mut skeleton, 0, grandchild);
        assert!(decode_reason(&skeleton).contains("second parent"));
    }

    #[test]
    fn bookkeeping_that_disagrees_with_the_nodes_fails_typed() {
        let good = line_skeleton(5);

        // An understated max_index would defeat from_skeleton's bounds
        // check and panic at query time; decode must reject it.
        let mut skeleton = good.clone();
        skeleton.max_index = 0;
        skeleton.nodes[0].point = 1_000_000;
        assert!(decode_reason(&skeleton).contains("max point index"));

        // A length that disagrees with the node records is rejected too.
        let mut skeleton = good.clone();
        skeleton.len += 3;
        assert!(decode_reason(&skeleton).contains("stored length"));
    }
}
