//! Observability overhead: the cost of tracing must be noise.
//!
//! Builds one n≈10k engine with a no-op recorder and one with a real
//! `MetricsRecorder`, runs the exact and streaming paths, and prints one
//! JSON document to stdout with min-of-repeats wall clock for both
//! modes. Each repeat runs both modes, alternating which goes first, so
//! drift of the host over the run lands on both. Progress rows (TSV) go
//! to stderr. Re-record the checked-in
//! `BENCH_obs.json` with
//! `cargo run --release -p mdbscan_bench --bin obs_overhead > BENCH_obs.json`.
//! At `--scale` ≥ 1 the headline is asserted: recorder-on overhead
//! ≤ 3 % on both paths. Always asserted, at any scale:
//!
//! * labels are bit-identical recorder-on vs no-op (the read-only
//!   contract, at bench scale);
//! * all five pipeline phases (net build, Step 1, adjacency, Step 2,
//!   Step 3) populated their latency histograms;
//! * every histogram snapshot is self-consistent (Σ buckets = count).
//!
//! CI runs this at a reduced `--scale` and smoke-parses the JSON.

use std::sync::Arc;

use mdbscan_bench::{timed, HarnessArgs};
use mdbscan_core::{
    ApproxParams, DbscanParams, MetricDbscan, MetricsRecorder, NoopRecorder, Recorder,
};
use mdbscan_datagen::{blobs, BlobSpec};
use mdbscan_metric::Euclidean;
use mdbscan_obs::{Phase, Registry};

const EPS: f64 = 1.0;
const MIN_PTS: usize = 10;
const RHO: f64 = 0.5;
const REPEATS: usize = 60;

struct ModeTimings {
    exact_ms: f64,
    streaming_ms: f64,
    exact_assignments: Vec<i32>,
    streaming_assignments: Vec<i32>,
}

/// Min-of-repeats timings for each recorder mode, in `recorders`
/// order. Each mode gets one engine that caches nothing, so every call
/// is cold; every repeat calls both engines, and the modes take turns
/// going first.
fn run_modes(
    pts: &[Vec<f64>],
    rbar: f64,
    params: &DbscanParams,
    aparams: &ApproxParams,
    recorders: [&Arc<dyn Recorder>; 2],
) -> [ModeTimings; 2] {
    let engines = recorders.map(|recorder| {
        MetricDbscan::builder(pts.to_vec(), Euclidean)
            .rbar(rbar)
            .recorder(Arc::clone(recorder))
            .cache_capacity(0)
            .build()
            .expect("engine build")
    });
    let mut out = [(); 2].map(|_| ModeTimings {
        exact_ms: f64::INFINITY,
        streaming_ms: f64::INFINITY,
        exact_assignments: Vec::new(),
        streaming_assignments: Vec::new(),
    });
    for repeat in 0..REPEATS {
        for mode in [repeat % 2, 1 - repeat % 2] {
            let engine = &engines[mode];
            let (exact, exact_ms) = timed(|| engine.exact(params).expect("exact run"));
            let (streaming, streaming_ms) =
                timed(|| engine.streaming(aparams).expect("streaming run"));
            let t = &mut out[mode];
            t.exact_ms = t.exact_ms.min(exact_ms);
            t.streaming_ms = t.streaming_ms.min(streaming_ms);
            t.exact_assignments = exact.clustering.assignments();
            t.streaming_assignments = streaming.clustering.assignments();
        }
    }
    out
}

fn main() {
    let args = HarnessArgs::parse();
    let n = args.sized(10_000);
    let pts = blobs(
        &BlobSpec {
            n,
            dim: 2,
            clusters: 8,
            std: 1.0,
            center_box: 40.0,
            outlier_frac: 0.01,
        },
        args.seed,
    )
    .into_parts()
    .0;
    let params = DbscanParams::new(EPS, MIN_PTS).expect("params");
    let aparams = ApproxParams::new(EPS, MIN_PTS, RHO).expect("approx params");
    let rbar = aparams.rbar();

    let noop: Arc<dyn Recorder> = Arc::new(NoopRecorder);
    let registry = Registry::new();
    let metrics = MetricsRecorder::shared(&registry);
    let [baseline, recorded] = run_modes(&pts, rbar, &params, &aparams, [&noop, &metrics]);

    // The read-only contract at bench scale.
    let labels_match = baseline.exact_assignments == recorded.exact_assignments
        && baseline.streaming_assignments == recorded.streaming_assignments;
    assert!(labels_match, "recorder changed labels");

    let overhead = |on: f64, off: f64| (on / off.max(1e-9) - 1.0) * 100.0;
    let exact_overhead_pct = overhead(recorded.exact_ms, baseline.exact_ms);
    let streaming_overhead_pct = overhead(recorded.streaming_ms, baseline.streaming_ms);
    if args.scale >= 1.0 {
        assert!(
            exact_overhead_pct <= 3.0,
            "exact-path recorder overhead {exact_overhead_pct:.2}% exceeds 3%"
        );
        assert!(
            streaming_overhead_pct <= 3.0,
            "streaming-path recorder overhead {streaming_overhead_pct:.2}% exceeds 3%"
        );
    }

    // Every pipeline phase was observed, and every histogram in the
    // registry is self-consistent.
    let snapshot = registry.snapshot();
    let pipeline = [
        Phase::NetBuild,
        Phase::Step1,
        Phase::Adjacency,
        Phase::Step2,
        Phase::Step3,
    ];
    let mut phase_rows = Vec::new();
    for phase in pipeline {
        let name = format!("mdbscan_phase_{}_micros", phase.name());
        let h = snapshot
            .histograms
            .get(&name)
            .unwrap_or_else(|| panic!("{name} missing"));
        assert!(h.count > 0, "{name} never observed");
        phase_rows.push((phase.name(), h.count, h.quantile(0.5)));
    }
    let histograms_consistent = snapshot.histograms.values().all(|h| h.is_consistent());
    assert!(histograms_consistent, "inconsistent histogram snapshot");

    eprintln!("path\tnoop_ms\trecorded_ms\toverhead_pct");
    eprintln!(
        "exact\t{:.2}\t{:.2}\t{exact_overhead_pct:.2}",
        baseline.exact_ms, recorded.exact_ms
    );
    eprintln!(
        "streaming\t{:.2}\t{:.2}\t{streaming_overhead_pct:.2}",
        baseline.streaming_ms, recorded.streaming_ms
    );

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"bench\": \"obs\",\n");
    json.push_str(&format!(
        "  \"n\": {}, \"eps\": {EPS}, \"min_pts\": {MIN_PTS}, \"rho\": {RHO}, \"rbar\": {rbar}, \"repeats\": {REPEATS},\n",
        pts.len(),
    ));
    json.push_str(&format!(
        "  \"exact\": {{\"noop_ms\": {:.3}, \"recorded_ms\": {:.3}, \"overhead_pct\": {:.3}}},\n",
        baseline.exact_ms, recorded.exact_ms, exact_overhead_pct
    ));
    json.push_str(&format!(
        "  \"streaming\": {{\"noop_ms\": {:.3}, \"recorded_ms\": {:.3}, \"overhead_pct\": {:.3}}},\n",
        baseline.streaming_ms, recorded.streaming_ms, streaming_overhead_pct
    ));
    json.push_str(&format!("  \"labels_match\": {labels_match},\n"));
    json.push_str(&format!(
        "  \"histograms_consistent\": {histograms_consistent},\n"
    ));
    json.push_str("  \"phases\": [\n");
    for (i, (name, count, p50)) in phase_rows.iter().enumerate() {
        let sep = if i + 1 == phase_rows.len() { "" } else { "," };
        json.push_str(&format!(
            "    {{\"phase\": \"{name}\", \"count\": {count}, \"p50_micros\": {p50}}}{sep}\n"
        ));
    }
    json.push_str("  ]\n");
    json.push_str("}\n");
    print!("{json}");
}
