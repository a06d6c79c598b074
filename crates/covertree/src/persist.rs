//! Byte codec for [`CoverTreeSkeleton`] — what lets a cached §3.2 tree
//! survive a process restart and
//! re-attach to its point slice with **zero distance evaluations**,
//! exactly like the in-memory skeleton cache it serializes.

use crate::tree::{CoverTreeSkeleton, Node};
use mdbscan_persist::{ByteReader, ByteWriter, PersistError};

impl CoverTreeSkeleton {
    /// Appends the node records (point ids, levels, exact parent
    /// distances, child/duplicate links) plus the root and the cached
    /// length/max-index bookkeeping.
    pub fn encode(&self, out: &mut ByteWriter) {
        out.put_usize(self.nodes.len());
        for node in &self.nodes {
            out.put_u32(node.point);
            out.put_i32(node.level);
            out.put_f64(node.parent_dist);
            out.put_u32s(&node.children);
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

    /// Reads a skeleton written by [`CoverTreeSkeleton::encode`],
    /// validating that node links stay in range (a structurally broken
    /// skeleton fails typed instead of panicking at re-attach time).
    pub fn decode(r: &mut ByteReader<'_>) -> Result<Self, PersistError> {
        let num_nodes = r.get_usize()?;
        let mut nodes = Vec::with_capacity(num_nodes.min(r.remaining() / 16 + 1));
        for _ in 0..num_nodes {
            nodes.push(Node {
                point: r.get_u32()?,
                level: r.get_i32()?,
                parent_dist: r.get_f64()?,
                children: r.get_u32s()?,
                same: r.get_u32s()?,
            });
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
        // Recompute the derived invariants instead of trusting the
        // stored copies: `max_index` is what `from_skeleton` bounds the
        // point slice against, and `len` is what caches size decisions
        // on — a mismatch means the node records and the bookkeeping
        // disagree, and accepting the stored values would defer the
        // failure to an index panic at query time.
        let mut count = 0usize;
        let mut max_seen = 0u32;
        for (i, node) in nodes.iter().enumerate() {
            if let Some(&child) = node.children.iter().find(|&&c| c as usize >= nodes.len()) {
                return Err(r.err(format!("node {i} links to missing child {child}")));
            }
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

    #[test]
    fn skeleton_round_trips_and_reattaches_without_evaluations() {
        let pts: Vec<Vec<f64>> = (0..60)
            .map(|i| vec![(i % 10) as f64, (i / 10) as f64 * 1.7])
            .collect();
        let skeleton = CoverTree::build(&pts, &Euclidean).into_skeleton();

        let mut w = ByteWriter::new();
        skeleton.encode(&mut w);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new("covertree", &bytes);
        let back = CoverTreeSkeleton::decode(&mut r).unwrap();
        assert!(r.finished());
        assert_eq!(back.len(), skeleton.len());

        // Re-attach the decoded skeleton with a counting metric: zero
        // evaluations, identical query answers.
        let counting = CountingMetric::new(Euclidean);
        let tree = CoverTree::from_skeleton(&pts, &counting, back);
        assert_eq!(counting.count(), 0, "re-attach must evaluate nothing");
        let nn = tree.nearest(&vec![4.2, 3.3]).unwrap();
        let reference = CoverTree::build(&pts, &Euclidean);
        assert_eq!(nn.index, reference.nearest(&vec![4.2, 3.3]).unwrap().index);
    }

    #[test]
    fn out_of_range_links_fail_typed() {
        let pts: Vec<Vec<f64>> = (0..5).map(|i| vec![i as f64]).collect();
        let mut skeleton = CoverTree::build(&pts, &Euclidean).into_skeleton();
        skeleton.nodes[0].children.push(999);
        let mut w = ByteWriter::new();
        skeleton.encode(&mut w);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new("covertree", &bytes);
        assert!(matches!(
            CoverTreeSkeleton::decode(&mut r),
            Err(PersistError::Format { .. })
        ));
    }

    #[test]
    fn bookkeeping_that_disagrees_with_the_nodes_fails_typed() {
        let pts: Vec<Vec<f64>> = (0..5).map(|i| vec![i as f64]).collect();
        let good = CoverTree::build(&pts, &Euclidean).into_skeleton();

        // An understated max_index would defeat from_skeleton's bounds
        // check and panic at query time; decode must reject it.
        let mut skeleton = good.clone();
        skeleton.max_index = 0;
        skeleton.nodes[0].point = 1_000_000;
        let mut w = ByteWriter::new();
        skeleton.encode(&mut w);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new("covertree", &bytes);
        let err = CoverTreeSkeleton::decode(&mut r).unwrap_err();
        let PersistError::Format { reason, .. } = err else {
            panic!("expected Format");
        };
        assert!(reason.contains("max point index"), "got: {reason}");

        // A length that disagrees with the node records is rejected too.
        let mut skeleton = good.clone();
        skeleton.len += 3;
        let mut w = ByteWriter::new();
        skeleton.encode(&mut w);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new("covertree", &bytes);
        assert!(CoverTreeSkeleton::decode(&mut r).is_err());
    }
}
