//! Ablations of the design choices DESIGN.md calls out (not a paper
//! table; motivated by §3.3 and Remarks 3/5):
//!
//! 1. dense-ball shortcut on/off (Step 1's amortization, Lemma 4);
//! 2. cover-tree BCP vs batched brute-force BCP (Step 2, Lemma 5) — now
//!    a printed note: the per-fragment trees were removed;
//! 3. early termination on/off in the merge;
//! 4. engine reuse vs rebuild across an ε sweep (Remark 5), plus the
//!    Step-1/2 LRU: replaying the same sweep warm;
//! 5. the §3.2 cover-tree pipeline vs the Algorithm 1 pipeline on
//!    all-inlier data (Theorem 1's regime) — both as engine methods, so
//!    the whole-input cover tree is also built once and reused.

use mdbscan_bench::registry;
use mdbscan_bench::{row, timed, HarnessArgs};
use mdbscan_core::{DbscanParams, ExactConfig, MetricDbscan};
use mdbscan_metric::{CountingMetric, Euclidean};

const MIN_PTS: usize = 10;

fn main() {
    let args = HarnessArgs::parse();

    println!("# ablation 1, 3: ExactConfig toggles");
    println!(
        "# ablation 2 (cover-tree BCP) retired: building one cover tree per fragment cost \
         more than it saved once net-anchored pruning settled most fragment pairs and \
         probes, so Step 2 scans the host fragment with one batched kernel call per probe"
    );
    row!(
        "dataset",
        "dense_shortcut",
        "early_term",
        "solve_ms",
        "dist_evals",
        "clusters"
    );
    let entries = registry::shape_suite(&args)
        .into_iter()
        .chain(registry::high_dim_suite(&args).into_iter().take(2));
    for entry in entries {
        let pts = entry.data.points();
        let eps = entry.eps0;
        let params = DbscanParams::new(eps, MIN_PTS).expect("params");
        let m = CountingMetric::new(Euclidean);
        // Runs without the dense shortcut bypass the Step-1/2 cache, so
        // one engine is fair game for the whole grid; caching is off
        // for the default row too, to measure the raw pipeline.
        let engine = MetricDbscan::builder(pts.to_vec(), &m)
            .rbar(eps / 2.0)
            .cache_capacity(0)
            .build()
            .expect("build");
        for dense in [true, false] {
            for early in [true, false] {
                let cfg = ExactConfig {
                    dense_shortcut: dense,
                    early_termination: early,
                    ..ExactConfig::default()
                };
                m.reset();
                let (run, ms) = timed(|| engine.exact_with(&params, &cfg).expect("exact"));
                row!(
                    entry.name,
                    dense,
                    early,
                    format!("{ms:.2}"),
                    m.count(),
                    run.clustering.num_clusters()
                );
            }
        }
    }

    println!("\n# ablation 4: engine reuse vs rebuild across an eps sweep (Remark 5) + warm LRU");
    row!("dataset", "mode", "total_ms");
    for entry in registry::high_dim_suite(&args).into_iter().take(2) {
        let pts = entry.data.points();
        let sweep: Vec<f64> = [1.0, 1.25, 1.5, 1.75, 2.0]
            .iter()
            .map(|f| entry.eps0 * f)
            .collect();
        let owned = pts.to_vec();
        let (engine, build_ms) = timed(move || {
            MetricDbscan::builder(owned, Euclidean)
                .rbar(entry.eps0 / 2.0)
                .build()
                .expect("build")
        });
        let (_, sweep_ms) = timed(|| {
            for &eps in &sweep {
                let params = DbscanParams::new(eps, MIN_PTS).expect("params");
                engine.exact(&params).expect("exact");
            }
        });
        let (_, rebuild_ms) = timed(|| {
            for &eps in &sweep {
                let fresh = MetricDbscan::builder(pts.to_vec(), Euclidean)
                    .rbar(eps / 2.0)
                    .build()
                    .expect("build");
                let params = DbscanParams::new(eps, MIN_PTS).expect("params");
                fresh.exact(&params).expect("exact");
            }
        });
        // Same sweep again on the same engine: every (ε, MinPts) is now
        // resident in the Step-1/2 LRU.
        let (_, warm_ms) = timed(|| {
            for &eps in &sweep {
                let params = DbscanParams::new(eps, MIN_PTS).expect("params");
                let run = engine.exact(&params).expect("exact");
                assert!(run.report.cache_hit, "warm sweep must hit the LRU");
            }
        });
        row!(entry.name, "reuse", format!("{:.2}", build_ms + sweep_ms));
        row!(entry.name, "rebuild", format!("{rebuild_ms:.2}"));
        row!(entry.name, "reuse_warm_lru", format!("{warm_ms:.2}"));
    }

    println!("\n# ablation 5: §3.2 cover-tree pipeline vs Algorithm 1 pipeline (all-inlier data)");
    row!("dataset", "pipeline", "total_ms", "clusters");
    for entry in registry::low_dim_suite(&args).into_iter().take(2) {
        // strip the outliers: §3.2 assumes the whole input doubles
        let labels = entry.data.labels().expect("labeled");
        let pts: Vec<Vec<f64>> = entry
            .data
            .points()
            .iter()
            .zip(labels)
            .filter(|(_, &l)| l >= 0)
            .map(|(p, _)| p.clone())
            .collect();
        let eps = entry.eps0;
        let owned = pts.clone();
        let (engine, build_ms) = timed(move || {
            MetricDbscan::builder(owned, Euclidean)
                .rbar(eps / 2.0)
                .build()
                .expect("build")
        });
        let params = DbscanParams::new(eps, MIN_PTS).expect("params");
        let (res, alg1_ms) = timed(|| engine.exact(&params).expect("exact"));
        row!(
            entry.name,
            "algorithm1",
            format!("{:.2}", build_ms + alg1_ms),
            res.clustering.num_clusters()
        );
        let (res, tree_ms) = timed(|| engine.covertree(&params).expect("covertree"));
        row!(
            entry.name,
            "covertree_3.2",
            format!("{tree_ms:.2}"),
            res.clustering.num_clusters()
        );
        // The whole-input tree is engine-resident now: a second ε costs
        // only the net extraction + steps.
        let params2 = DbscanParams::new(eps * 1.5, MIN_PTS).expect("params");
        let (res, tree2_ms) = timed(|| engine.covertree(&params2).expect("covertree"));
        assert!(res.report.cache_hit, "second covertree run reuses the tree");
        row!(
            entry.name,
            "covertree_3.2_reused",
            format!("{tree2_ms:.2}"),
            res.clustering.num_clusters()
        );
    }
}
