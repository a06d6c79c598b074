//! Internal: a borrowed view of an `r̄`-net, decoupling the DBSCAN steps
//! from where the net came from (Algorithm 1 or a cover-tree level, §3.2).

use mdbscan_parallel::Csr;

/// A covering net with its Voronoi decomposition, by reference.
///
/// The cover sets are shared as flat CSR rows (offsets + values), so the
/// Step 1–3 inner loops stream one contiguous array instead of chasing a
/// `Vec` per center.
#[derive(Debug, Clone, Copy)]
pub(crate) struct NetView<'n> {
    /// Covering radius bound: every point is within `rbar` of its center.
    pub rbar: f64,
    /// Point indices of the centers.
    pub centers: &'n [usize],
    /// Per point, the position in `centers` of its center.
    pub assignment: &'n [u32],
    /// Per center, the points assigned to it (rows partition the input).
    pub cover_sets: &'n Csr,
    /// Exact `dis(p, c_p)` per point — the anchor every
    /// triangle-inequality bound measures from. Algorithm 1 records it
    /// for free (the greedy maintains these distances anyway); cover-tree
    /// nets evaluate it once per query when they are extracted.
    pub dist_to_center: &'n [f64],
}

impl<'n> NetView<'n> {
    /// Views an Algorithm-1 net (the one place the field mapping lives).
    pub fn of(net: &'n mdbscan_kcenter::RadiusGuidedNet) -> Self {
        NetView {
            rbar: net.rbar,
            centers: &net.centers,
            assignment: &net.assignment,
            cover_sets: &net.cover_sets,
            dist_to_center: &net.dist_to_center,
        }
    }

    /// Number of points.
    pub fn num_points(&self) -> usize {
        self.assignment.len()
    }

    /// Number of centers.
    pub fn num_centers(&self) -> usize {
        self.centers.len()
    }
}
