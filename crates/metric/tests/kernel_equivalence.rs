//! Property tests for the SoA batch kernels: `VectorBlock`'s
//! `dist_many` / `dist_many_within` (strip-blocked, fixed-d
//! specializations at d ∈ {2, 3}, fused generic path) must return
//! **bit-for-bit** the values of the scalar `Metric` reference loop —
//! the `BatchMetric` contract the solvers' determinism rides on —
//! for f32 and f64 storage across d ∈ {1, 2, 3, 5, 128, 768}, including
//! empty and single-candidate batches, candidate lists that span
//! several 64-wide strips, permuted id indirection, and bound tightness
//! at realized distances.

use mdbscan_metric::{BatchMetric, BlockScalar, Euclidean, Metric, VectorBlock};
use proptest::prelude::*;

fn rows_strategy(dim: usize, max_rows: usize) -> impl Strategy<Value = Vec<Vec<f64>>> {
    prop::collection::vec(
        prop::collection::vec(-100.0f64..100.0, dim),
        1..max_rows.max(2),
    )
}

/// Candidate-list shapes worth exercising: everything, nothing, one,
/// duplicates, and reversed order.
fn candidate_lists(n: u32) -> Vec<Vec<u32>> {
    let all: Vec<u32> = (0..n).collect();
    let rev: Vec<u32> = (0..n).rev().collect();
    let mut dups = all.clone();
    dups.extend_from_slice(&all[..(n as usize).min(3)]);
    vec![all, rev, dups, vec![0], vec![n - 1], vec![]]
}

/// Asserts the batch kernels equal the scalar reference loop exactly,
/// for identity and permuted `points` indirection.
fn assert_batch_matches_scalar<T: BlockScalar>(rows: &[Vec<f64>], bound: f64) {
    let block = VectorBlock::<T>::from_rows(rows);
    let n = block.len() as u32;
    let identity = block.ids();
    let permuted: Vec<u32> = (0..n).rev().collect();
    let mut out = Vec::new();
    for points in [&identity, &permuted] {
        for ids in candidate_lists(points.len() as u32) {
            for &q in &[0, n / 2, n - 1] {
                block.dist_many(points, &q, &ids, &mut out);
                assert_eq!(out.len(), ids.len());
                for (j, &i) in ids.iter().enumerate() {
                    let want = block.distance(&q, &points[i as usize]);
                    assert_eq!(
                        out[j].to_bits(),
                        want.to_bits(),
                        "dist_many diverged from scalar at q={q} candidate {i}"
                    );
                }
                block.dist_many_within(points, &q, &ids, bound, &mut out);
                assert_eq!(out.len(), ids.len());
                for (j, &i) in ids.iter().enumerate() {
                    let want = block
                        .distance_leq(&q, &points[i as usize], bound)
                        .unwrap_or(f64::INFINITY);
                    assert_eq!(
                        out[j].to_bits(),
                        want.to_bits(),
                        "dist_many_within diverged from scalar at q={q} candidate {i} bound {bound}"
                    );
                }
            }
        }
    }
}

macro_rules! kernel_equivalence_tests {
    ($name:ident, $dim:expr, $max_rows:expr, $cases:expr) => {
        mod $name {
            use super::*;

            proptest! {
                #![proptest_config(ProptestConfig::with_cases($cases))]
                #[test]
                fn f64_kernels_match_scalar(
                    rows in rows_strategy($dim, $max_rows),
                    bound in -1.0f64..200.0,
                ) {
                    assert_batch_matches_scalar::<f64>(&rows, bound);
                }

                #[test]
                fn f32_kernels_match_scalar(
                    rows in rows_strategy($dim, $max_rows),
                    bound in -1.0f64..200.0,
                ) {
                    assert_batch_matches_scalar::<f32>(&rows, bound);
                }
            }
        }
    };
}

kernel_equivalence_tests!(d1, 1, 40, 24);
kernel_equivalence_tests!(d2, 2, 40, 24);
kernel_equivalence_tests!(d3, 3, 40, 24);
kernel_equivalence_tests!(d5, 5, 40, 24);
kernel_equivalence_tests!(d128, 128, 12, 8);
kernel_equivalence_tests!(d768, 768, 12, 8);
// Up to 200 rows: candidate lists span up to four strips, so every
// strip after the first must start from fresh accumulators.
kernel_equivalence_tests!(d5_strips, 5, 200, 8);

proptest! {
    /// The f64 SoA layout agrees bit-for-bit with `Euclidean` over the
    /// scattered `Vec<f64>` rows — the cross-representation guarantee
    /// the grid and persistence suites rely on.
    #[test]
    fn f64_block_matches_scattered_euclidean(rows in rows_strategy(3, 40)) {
        let block = VectorBlock::<f64>::from_rows(&rows);
        let pts = block.ids();
        let ids: Vec<u32> = (0..pts.len() as u32).collect();
        let mut out = Vec::new();
        for q in 0..pts.len() as u32 {
            block.dist_many(&pts, &q, &ids, &mut out);
            for (j, d) in out.iter().enumerate() {
                let want = Euclidean.distance(&rows[q as usize], &rows[j]);
                prop_assert_eq!(d.to_bits(), want.to_bits());
            }
        }
    }

    /// `dist_many_within` is tight at realized distances: a bound equal
    /// to an actual pairwise distance behaves exactly like the scalar
    /// `distance_leq` (inclusive `<=`), and a bound one ulp below it
    /// excludes the pair.
    #[test]
    fn within_bound_is_tight_at_realized_distances(
        rows in rows_strategy(3, 30),
        pick in 0usize..1000,
    ) {
        let block = VectorBlock::<f64>::from_rows(&rows);
        let pts = block.ids();
        let n = pts.len();
        let (a, b) = ((pick % n) as u32, ((pick / n.max(1)) % n) as u32);
        let d = block.distance(&a, &b);
        let ids: Vec<u32> = (0..n as u32).collect();
        let mut out = Vec::new();

        block.dist_many_within(&pts, &a, &ids, d, &mut out);
        match block.distance_leq(&a, &b, d) {
            Some(w) => {
                prop_assert_eq!(w.to_bits(), d.to_bits(), "<= must include the bound itself");
                prop_assert_eq!(out[b as usize].to_bits(), d.to_bits());
            }
            // Only reachable when the norm screen's rounding rejects
            // the exact bound; the batch path must agree with it.
            None => prop_assert!(out[b as usize].is_infinite()),
        }

        if d > 0.0 && d.is_finite() {
            let below = f64::from_bits(d.to_bits() - 1);
            block.dist_many_within(&pts, &a, &ids, below, &mut out);
            prop_assert!(
                out[b as usize].is_infinite(),
                "bound one ulp below a realized distance must exclude it"
            );
            prop_assert!(block.distance_leq(&a, &b, below).is_none());
        }
    }

    /// Empty blocks and empty candidate lists stay well-defined.
    #[test]
    fn empty_edges(_x in 0u32..1) {
        let empty = VectorBlock::<f64>::from_rows(&[]);
        let mut out = vec![1.0];
        empty.dist_many(&[], &0, &[], &mut out);
        prop_assert!(out.is_empty());
        let one = VectorBlock::<f64>::from_rows(&[vec![1.0, 2.0]]);
        let pts = one.ids();
        one.dist_many_within(&pts, &0, &[], 1.0, &mut out);
        prop_assert!(out.is_empty());
        one.dist_many(&pts, &0, &[], &mut out);
        prop_assert!(out.is_empty());
    }
}
