//! Public surface of the exact solver (§3.1) and its golden tests.
//!
//! The algorithm itself lives in [`crate::steps`]; this module re-exports
//! its configuration/stats types and carries the exactness test battery:
//! the paper's central claim is that the k-center-accelerated pipeline
//! returns *the same clusters* as the original DBSCAN of Ester et al., so
//! every test here compares against a straightforward `O(n²)` reference.

pub use crate::steps::{ExactConfig, StepsStats as ExactStats};

#[cfg(test)]
mod tests {
    use crate::{exact_dbscan, Clustering, DbscanParams, ExactConfig, MetricDbscan, PointLabel};
    use mdbscan_metric::{CountingMetric, Euclidean, Levenshtein, Metric};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Textbook O(n²) DBSCAN: brute-force neighborhoods + BFS expansion.
    /// Used as the golden reference for exactness.
    fn reference_dbscan<P, M: Metric<P>>(
        points: &[P],
        metric: &M,
        eps: f64,
        min_pts: usize,
    ) -> Clustering {
        let n = points.len();
        let neighborhoods: Vec<Vec<usize>> = (0..n)
            .map(|i| {
                (0..n)
                    .filter(|&j| metric.within(&points[i], &points[j], eps))
                    .collect()
            })
            .collect();
        let is_core: Vec<bool> = neighborhoods.iter().map(|nb| nb.len() >= min_pts).collect();
        let mut labels = vec![PointLabel::Noise; n];
        let mut cluster = 0u32;
        for start in 0..n {
            if !is_core[start] || !labels[start].is_noise() {
                continue;
            }
            let mut queue = vec![start];
            labels[start] = PointLabel::Core(cluster);
            while let Some(p) = queue.pop() {
                for &q in &neighborhoods[p] {
                    if is_core[q] {
                        if labels[q].is_noise() {
                            labels[q] = PointLabel::Core(cluster);
                            queue.push(q);
                        }
                    } else if labels[q].is_noise() {
                        labels[q] = PointLabel::Border(cluster);
                    }
                }
            }
            cluster += 1;
        }
        Clustering::from_labels(labels)
    }

    /// The partition over *core* points must agree exactly; border points
    /// may legitimately attach to different clusters when within ε of
    /// several (paper footnote 1), so for borders we only check validity:
    /// the border's cluster must contain a core point within ε.
    fn assert_equivalent<P, M: Metric<P>>(
        points: &[P],
        metric: &M,
        eps: f64,
        ours: &Clustering,
        reference: &Clustering,
    ) {
        assert_eq!(ours.len(), reference.len());
        assert_eq!(
            ours.num_clusters(),
            reference.num_clusters(),
            "cluster count mismatch"
        );
        // Same core sets.
        for i in 0..ours.len() {
            assert_eq!(
                ours.labels()[i].is_core(),
                reference.labels()[i].is_core(),
                "core disagreement at {i}"
            );
            assert_eq!(
                ours.labels()[i].is_noise(),
                reference.labels()[i].is_noise(),
                "noise disagreement at {i}"
            );
        }
        // Core partition identical (up to renumbering): two cores share a
        // cluster in ours iff they do in the reference.
        let mut pair_map: std::collections::HashMap<u32, u32> = std::collections::HashMap::new();
        let mut rev_map: std::collections::HashMap<u32, u32> = std::collections::HashMap::new();
        for i in 0..ours.len() {
            if !ours.labels()[i].is_core() {
                continue;
            }
            let a = ours.cluster_of(i).unwrap();
            let b = reference.cluster_of(i).unwrap();
            assert_eq!(*pair_map.entry(a).or_insert(b), b, "core partition differs");
            assert_eq!(*rev_map.entry(b).or_insert(a), a, "core partition differs");
        }
        // Borders: assigned cluster must have a witness core within eps.
        for i in 0..ours.len() {
            if let PointLabel::Border(c) = ours.labels()[i] {
                let ok = (0..ours.len()).any(|j| {
                    ours.labels()[j].is_core()
                        && ours.cluster_of(j) == Some(c)
                        && metric.within(&points[i], &points[j], eps)
                });
                assert!(ok, "border {i} has no witness core in its cluster");
            }
        }
    }

    fn two_moons_ish(seed: u64, n: usize) -> Vec<Vec<f64>> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut pts = Vec::with_capacity(n);
        for i in 0..n {
            let t = std::f64::consts::PI * (i % (n / 2)) as f64 / (n / 2) as f64;
            let (mut x, mut y) = (t.cos(), t.sin());
            if i >= n / 2 {
                x = 1.0 - x;
                y = 0.5 - y;
            }
            pts.push(vec![
                x + rng.random_range(-0.05..0.05),
                y + rng.random_range(-0.05..0.05),
            ]);
        }
        // a few outliers
        for _ in 0..n / 50 {
            pts.push(vec![
                rng.random_range(-10.0..10.0),
                rng.random_range(-10.0..10.0),
            ]);
        }
        pts
    }

    #[test]
    fn matches_reference_on_moons() {
        let pts = two_moons_ish(1, 300);
        for eps in [0.15, 0.25, 0.4] {
            let ours = exact_dbscan(&pts, &Euclidean, eps, 5).unwrap();
            let reference = reference_dbscan(&pts, &Euclidean, eps, 5);
            assert_equivalent(&pts, &Euclidean, eps, &ours, &reference);
        }
    }

    #[test]
    fn matches_reference_on_random_instances() {
        for seed in 0..8u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let n = rng.random_range(20..140);
            let pts: Vec<Vec<f64>> = (0..n)
                .map(|_| vec![rng.random_range(-3.0..3.0), rng.random_range(-3.0..3.0)])
                .collect();
            let eps = rng.random_range(0.2..1.5);
            let min_pts = rng.random_range(2..7);
            let ours = exact_dbscan(&pts, &Euclidean, eps, min_pts).unwrap();
            let reference = reference_dbscan(&pts, &Euclidean, eps, min_pts);
            assert_equivalent(&pts, &Euclidean, eps, &ours, &reference);
        }
    }

    #[test]
    fn matches_reference_on_strings() {
        let mut words: Vec<String> = Vec::new();
        for base in ["cluster", "density", "stream"] {
            for i in 0..8 {
                let mut w = base.to_string();
                if i % 2 == 0 {
                    w.push(char::from(b'a' + (i as u8)));
                } else {
                    w.insert(0, char::from(b'a' + (i as u8)));
                }
                words.push(w);
            }
        }
        words.push("zzzzzzzzzzzzz".to_string()); // outlier
        let ours = exact_dbscan(&words, &Levenshtein, 2.0, 3).unwrap();
        let reference = reference_dbscan(&words, &Levenshtein, 2.0, 3);
        assert_equivalent(&words, &Levenshtein, 2.0, &ours, &reference);
        assert_eq!(ours.num_clusters(), 3);
        assert!(ours.labels().last().unwrap().is_noise());
    }

    #[test]
    fn all_config_ablations_agree() {
        let pts = two_moons_ish(3, 200);
        let params = DbscanParams::new(0.3, 5).unwrap();
        let engine = MetricDbscan::builder(pts.clone(), Euclidean)
            .rbar(0.15)
            .build()
            .unwrap();
        let baseline = engine.exact(&params).unwrap().clustering;
        for dense in [false, true] {
            for early in [false, true] {
                let cfg = ExactConfig {
                    dense_shortcut: dense,
                    early_termination: early,
                    ..ExactConfig::default()
                };
                let run = engine.exact_with(&params, &cfg).unwrap();
                let c = &run.clustering;
                assert!(
                    c.same_partition(&baseline) || {
                        // borders may tie-break differently across configs;
                        // require identical core partition + noise set
                        let ref_c = reference_dbscan(&pts, &Euclidean, 0.3, 5);
                        assert_equivalent(&pts, &Euclidean, 0.3, c, &ref_c);
                        true
                    },
                    "config {cfg:?} changed the result"
                );
                let stats = run.report.exact_stats().expect("exact run");
                assert_eq!(stats.n_centers, engine.num_centers());
            }
        }
    }

    #[test]
    fn degenerate_inputs() {
        // single point, min_pts = 1: the point is its own core cluster
        let one = vec![vec![0.0]];
        let c = exact_dbscan(&one, &Euclidean, 1.0, 1).unwrap();
        assert_eq!(c.num_clusters(), 1);
        assert!(c.labels()[0].is_core());
        // single point, min_pts = 2: noise
        let c = exact_dbscan(&one, &Euclidean, 1.0, 2).unwrap();
        assert_eq!(c.num_clusters(), 0);
        assert!(c.labels()[0].is_noise());
        // all duplicates: one cluster
        let dup = vec![vec![1.0, 2.0]; 10];
        let c = exact_dbscan(&dup, &Euclidean, 0.5, 4).unwrap();
        assert_eq!(c.num_clusters(), 1);
        assert_eq!(c.num_core(), 10);
        // all far apart with high min_pts: all noise
        let far: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64 * 100.0]).collect();
        let c = exact_dbscan(&far, &Euclidean, 1.0, 2).unwrap();
        assert_eq!(c.num_clusters(), 0);
        assert_eq!(c.num_noise(), 10);
    }

    #[test]
    fn min_pts_one_puts_every_point_in_a_cluster() {
        let pts: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64 * 10.0]).collect();
        let c = exact_dbscan(&pts, &Euclidean, 1.0, 1).unwrap();
        // every point is core (its ball contains itself)
        assert_eq!(c.num_core(), 20);
        assert_eq!(c.num_clusters(), 20);
    }

    #[test]
    fn subquadratic_distance_evaluations_on_clustered_data() {
        // 2 dense blobs: the pipeline should use far fewer than n² distance
        // evaluations (the reference uses exactly n²).
        let mut pts = Vec::new();
        let mut rng = StdRng::seed_from_u64(9);
        for c in 0..2 {
            for _ in 0..400 {
                pts.push(vec![
                    c as f64 * 50.0 + rng.random_range(-1.0..1.0),
                    rng.random_range(-1.0..1.0),
                ]);
            }
        }
        let n = pts.len() as u64;
        let counting = CountingMetric::new(Euclidean);
        let c = exact_dbscan(&pts, &counting, 0.5, 10).unwrap();
        assert_eq!(c.num_clusters(), 2);
        assert!(
            counting.count() < n * n / 4,
            "used {} evaluations, n² = {}",
            counting.count(),
            n * n
        );
    }
}
