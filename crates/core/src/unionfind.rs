//! Union-find (disjoint set union) with path halving and union by rank —
//! the merge engine behind DBSCAN Step 2 and the summary merge of
//! Algorithm 2.

/// A disjoint-set forest over `0..len`.
#[derive(Debug, Clone)]
pub struct UnionFind {
    parent: Vec<u32>,
    rank: Vec<u8>,
    components: usize,
}

impl UnionFind {
    /// Creates `len` singleton sets.
    pub fn new(len: usize) -> Self {
        Self {
            parent: (0..len as u32).collect(),
            rank: vec![0; len],
            components: len,
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// True when the structure is empty.
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// Number of disjoint components.
    pub fn components(&self) -> usize {
        self.components
    }

    /// Representative of `x`'s set (path halving).
    pub fn find(&mut self, x: usize) -> usize {
        let mut x = x as u32;
        while self.parent[x as usize] != x {
            let grand = self.parent[self.parent[x as usize] as usize];
            self.parent[x as usize] = grand;
            x = grand;
        }
        x as usize
    }

    /// Merges the sets of `a` and `b`; returns true when they were
    /// previously disjoint.
    pub fn union(&mut self, a: usize, b: usize) -> bool {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        let (hi, lo) = if self.rank[ra] >= self.rank[rb] {
            (ra, rb)
        } else {
            (rb, ra)
        };
        self.parent[lo] = hi as u32;
        if self.rank[hi] == self.rank[lo] {
            self.rank[hi] += 1;
        }
        self.components -= 1;
        true
    }

    /// True when `a` and `b` are in the same set.
    pub fn connected(&mut self, a: usize, b: usize) -> bool {
        self.find(a) == self.find(b)
    }

    /// Maps each element to a dense component id in `0..components`, in
    /// order of first appearance by element index.
    pub fn component_ids(&mut self) -> Vec<u32> {
        let n = self.len();
        let mut ids = vec![u32::MAX; n];
        let mut next = 0u32;
        for x in 0..n {
            let r = self.find(x);
            if ids[r] == u32::MAX {
                ids[r] = next;
                next += 1;
            }
            ids[x] = ids[r];
        }
        ids
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_find_basics() {
        let mut uf = UnionFind::new(6);
        assert_eq!(uf.components(), 6);
        assert!(uf.union(0, 1));
        assert!(uf.union(2, 3));
        assert!(!uf.union(1, 0), "already merged");
        assert!(uf.union(0, 2));
        assert_eq!(uf.components(), 3);
        assert!(uf.connected(1, 3));
        assert!(!uf.connected(1, 4));
        assert_eq!(uf.len(), 6);
    }

    #[test]
    fn component_ids_are_dense_and_consistent() {
        let mut uf = UnionFind::new(5);
        uf.union(3, 4);
        uf.union(0, 4);
        let ids = uf.component_ids();
        assert_eq!(ids[0], ids[3]);
        assert_eq!(ids[3], ids[4]);
        assert_ne!(ids[0], ids[1]);
        assert_ne!(ids[1], ids[2]);
        let max = *ids.iter().max().unwrap();
        assert_eq!(max as usize + 1, uf.components());
        // first-appearance order: element 0's component gets id 0
        assert_eq!(ids[0], 0);
        assert_eq!(ids[1], 1);
    }

    #[test]
    fn long_chain_flattens() {
        let n = 1000;
        let mut uf = UnionFind::new(n);
        for i in 1..n {
            uf.union(i - 1, i);
        }
        assert_eq!(uf.components(), 1);
        for i in 0..n {
            assert_eq!(uf.find(i), uf.find(0));
        }
    }

    #[test]
    fn empty() {
        let mut uf = UnionFind::new(0);
        assert!(uf.is_empty());
        assert_eq!(uf.components(), 0);
        assert!(uf.component_ids().is_empty());
    }
}
