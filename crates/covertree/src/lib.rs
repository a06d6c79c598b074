//! Cover tree: the spatial-index substrate of the metric DBSCAN pipeline.
//!
//! A cover tree (Beygelzimer, Kakade, Langford, ICML 2006) stores a point
//! set `P` from an arbitrary metric space as a hierarchy of nested nets.
//! Level `i` of the (implicit) tree is a set `T_i ⊆ P` with:
//!
//! * **nesting**: `T_i ⊆ T_{i−1}`;
//! * **covering**: every `q ∈ T_{i−1}` has a parent `p ∈ T_i` with
//!   `dis(p, q) ≤ 2^i`;
//! * **separation**: distinct `p, q ∈ T_i` satisfy `dis(p, q) > 2^i`.
//!
//! On data of doubling dimension `D`, construction costs
//! `O(2^{O(D)} · n · log Φ)` distance evaluations and a nearest-neighbor
//! query `O(2^{O(D)} · log Φ)`, where `Φ` is the aspect ratio (paper
//! Claim 1). The paper uses cover trees in two places:
//!
//! 1. **Step 2 of exact DBSCAN (§3.1)**: a tree per core-point group `C̃_e`
//!    answers bichromatic-closest-pair queries between neighboring groups
//!    ([`CoverTree::any_within`] stops at the first witness pair `≤ ε`).
//!    This is the worst-case device of Lemma 5; the engine's Step 2 scans
//!    the fragments with batched distance kernels instead, because
//!    building the trees cost more than they saved once net-anchored
//!    pruning settles most pairs. No solver calls the query methods
//!    (`nearest`, `nearest_within`, `any_within`, `range`,
//!    `count_within`, `knn`) any more.
//! 2. **The §3.2 variant**: when the *whole* input has low doubling
//!    dimension, the `ε/2`-net that Algorithm 1 would build is read off a
//!    tree level instead ([`CoverTreeSkeleton::extract_net`]).
//!
//! This is an explicit-representation cover tree: one node per distinct
//! point, implicit self-chains, exact duplicates collapsed into their
//! representative node (see [`CoverTree::build`]). Each node keeps its
//! children grouped by level, so an insertion's descent reads one run
//! of child records per cover-set node and level, and evaluates each
//! level's surviving children with one batched
//! [`mdbscan_metric::BatchMetric::dist_many`] call. The simplified
//! cover tree (Izbicki–Shelton 2015) and compressed variants
//! (Elkin–Kurlin 2023) would build a different tree and so a different
//! net, as Remark 2 of the paper notes.
#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod invariants;
mod net;
mod persist;
mod query;
mod tree;

pub use net::NetExtraction;
pub use tree::{CoverTree, CoverTreeSkeleton, Neighbor};
