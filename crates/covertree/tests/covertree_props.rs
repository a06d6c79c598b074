//! Property-based certification of the cover tree against brute force.

use mdbscan_covertree::CoverTree;
use mdbscan_metric::{Euclidean, Levenshtein, Metric};
use proptest::prelude::*;

fn points_2d() -> impl Strategy<Value = Vec<Vec<f64>>> {
    prop::collection::vec(prop::collection::vec(-50.0f64..50.0, 2), 1..120)
}

/// Clustered + outlier mixture: many near-duplicates plus far-away points —
/// the regime the DBSCAN pipeline feeds the tree.
fn clustered_points() -> impl Strategy<Value = Vec<Vec<f64>>> {
    (
        prop::collection::vec(prop::collection::vec(-1.0f64..1.0, 2), 1..60),
        prop::collection::vec(prop::collection::vec(-1e4f64..1e4, 2), 0..6),
    )
        .prop_map(|(mut dense, far)| {
            dense.extend(far);
            dense
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn invariants_hold(pts in points_2d()) {
        let tree = CoverTree::build(&pts, &Euclidean);
        prop_assert_eq!(tree.len(), pts.len());
        tree.check_invariants().map_err(TestCaseError::fail)?;
    }

    #[test]
    fn invariants_hold_clustered(pts in clustered_points()) {
        let tree = CoverTree::build(&pts, &Euclidean);
        tree.check_invariants().map_err(TestCaseError::fail)?;
    }

    #[test]
    fn nearest_is_exact(pts in points_2d(), q in prop::collection::vec(-60.0f64..60.0, 2)) {
        let tree = CoverTree::build(&pts, &Euclidean);
        let got = tree.nearest(&q).unwrap();
        let want = pts
            .iter()
            .map(|p| Euclidean.distance(p, &q))
            .fold(f64::INFINITY, f64::min);
        prop_assert!((got.distance - want).abs() < 1e-9,
            "tree NN {} vs brute {}", got.distance, want);
    }

    #[test]
    fn range_is_exact(pts in points_2d(), q in prop::collection::vec(-60.0f64..60.0, 2), r in 0.0f64..40.0) {
        let tree = CoverTree::build(&pts, &Euclidean);
        let mut out = Vec::new();
        tree.range(&q, r, &mut out);
        out.sort_unstable();
        let mut want: Vec<usize> = pts
            .iter()
            .enumerate()
            .filter(|(_, p)| Euclidean.distance(*p, &q) <= r)
            .map(|(i, _)| i)
            .collect();
        want.sort_unstable();
        prop_assert_eq!(out, want);
    }

    #[test]
    fn any_within_agrees_with_range(pts in clustered_points(), q in prop::collection::vec(-60.0f64..60.0, 2), r in 0.0f64..30.0) {
        let tree = CoverTree::build(&pts, &Euclidean);
        let exists = pts.iter().any(|p| Euclidean.distance(p, &q) <= r);
        let witness = tree.any_within(&q, r);
        prop_assert_eq!(witness.is_some(), exists);
        if let Some(w) = witness {
            prop_assert!(Euclidean.distance(&pts[w.index], &q) <= r + 1e-12);
        }
    }

    #[test]
    fn count_within_matches(pts in points_2d(), q in prop::collection::vec(-60.0f64..60.0, 2), r in 0.0f64..30.0, cap in 1usize..20) {
        let tree = CoverTree::build(&pts, &Euclidean);
        let true_count = pts.iter().filter(|p| Euclidean.distance(*p, &q) <= r).count();
        prop_assert_eq!(tree.count_within(&q, r, cap), true_count.min(cap));
    }

    #[test]
    fn knn_matches_brute(pts in points_2d(), q in prop::collection::vec(-60.0f64..60.0, 2), k in 1usize..12) {
        let tree = CoverTree::build(&pts, &Euclidean);
        let got = tree.knn(&q, k);
        let mut dists: Vec<f64> = pts.iter().map(|p| Euclidean.distance(p, &q)).collect();
        dists.sort_by(f64::total_cmp);
        prop_assert_eq!(got.len(), k.min(pts.len()));
        for (g, w) in got.iter().zip(dists.iter()) {
            prop_assert!((g.distance - w).abs() < 1e-9);
        }
    }

    #[test]
    fn string_tree_invariants(words in prop::collection::vec("[ab]{0,6}", 1..40)) {
        let tree = CoverTree::build(&words, &Levenshtein);
        tree.check_invariants().map_err(TestCaseError::fail)?;
        let q = "abab".to_string();
        let got = tree.nearest(&q).unwrap();
        let want = words
            .iter()
            .map(|w| Levenshtein.distance(w, &q))
            .fold(f64::INFINITY, f64::min);
        prop_assert_eq!(got.distance, want);
        // Every level's net covers and separates under brute-force
        // distances, and the detached skeleton reads the same net.
        let skeleton = CoverTree::build(&words, &Levenshtein).into_skeleton();
        for level in -1..=2 {
            let net = tree.extract_net(level);
            let again = skeleton.extract_net(level, words.len());
            prop_assert_eq!(&net.centers, &again.centers);
            prop_assert_eq!(&net.assignment, &again.assignment);
            for (i, w) in words.iter().enumerate() {
                let c = &words[net.centers[net.assignment[i] as usize]];
                prop_assert!(Levenshtein.distance(c, w) <= net.cover_radius);
            }
            for (a, &ci) in net.centers.iter().enumerate() {
                for &cj in &net.centers[a + 1..] {
                    prop_assert!(Levenshtein.distance(&words[ci], &words[cj]) > net.separation);
                }
            }
        }
    }
}
