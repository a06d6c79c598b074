//! Table 2: how much of the exact pipeline's runtime the radius-guided
//! Gonzalez pre-processing (Algorithm 1) takes — the quantity that makes
//! engine reuse (Remark 5) worthwhile. The paper reports 60–99 %.
//!
//! Also prints the measured speedup of re-solving at a second ε on the
//! shared `MetricDbscan` engine versus rebuilding from scratch, plus the
//! payoff of the engine's Step-1/2 LRU: repeating that second ε runs
//! only Step 3 (`retune_warm_ms`).

use mdbscan_bench::registry;
use mdbscan_bench::{row, timed, HarnessArgs};
use mdbscan_core::{DbscanParams, ExactConfig, MetricDbscan};
use mdbscan_metric::{Euclidean, Levenshtein};

const MIN_PTS: usize = 10;

fn run_entry<P: Sync + Send + Clone, M: mdbscan_metric::BatchMetric<P>>(
    name: &str,
    pts: &[P],
    metric: M,
    eps: f64,
) {
    let owned = pts.to_vec();
    let (engine, gonzalez_ms) = timed(move || {
        MetricDbscan::builder(owned, metric)
            .rbar(eps / 2.0)
            .build()
            .expect("build")
    });
    let params = DbscanParams::new(eps, MIN_PTS).expect("params");
    let (_r, solve_ms) = timed(|| {
        engine
            .exact_with(&params, &ExactConfig::default())
            .expect("exact")
    });
    let total = gonzalez_ms + solve_ms;
    // Re-tuning at a larger ε reuses the same net (Remark 5)...
    let params2 = DbscanParams::new(eps * 1.5, MIN_PTS).expect("params");
    let (_r2, retune_ms) = timed(|| engine.exact(&params2).expect("exact"));
    // ... and repeating it replays the cached Step-1/2 artifacts (PR 2).
    let (r3, retune_warm_ms) = timed(|| engine.exact(&params2).expect("exact"));
    assert!(
        r3.report.cache_hit,
        "repeat probe must hit the fragment LRU"
    );
    row!(
        name,
        format!("{gonzalez_ms:.2}"),
        format!("{total:.2}"),
        format!("{:.0}%", 100.0 * gonzalez_ms / total),
        format!("{retune_ms:.2}"),
        format!("{:.1}x", total / retune_ms.max(1e-6)),
        format!("{retune_warm_ms:.2}")
    );
}

fn main() {
    let args = HarnessArgs::parse();
    row!(
        "dataset",
        "gonzalez_ms",
        "total_ms",
        "proportion",
        "retune_ms",
        "retune_speedup",
        "retune_warm_ms"
    );
    for entry in registry::low_dim_suite(&args)
        .into_iter()
        .chain(registry::shape_suite(&args).into_iter().skip(1))
        .chain(registry::high_dim_suite(&args))
    {
        run_entry(entry.name, entry.data.points(), Euclidean, entry.eps0);
    }
    // Text rows (COLA / AGNews / MRPC analogues), as in the paper's table.
    for entry in registry::text_suite(&args).into_iter().take(3) {
        run_entry(entry.name, entry.data.points(), Levenshtein, entry.eps0);
    }
}
