//! Grid candidate index vs. the generic pruned path on low-dimensional
//! Euclidean workloads: for d ∈ {2, 3} and n ∈ {20k, 200k} (scaled by
//! `--scale`), runs the exact solver cold over a `VectorBlock<f64>`
//! twice — once generic (net-anchored pruning) and once with
//! [`CandidateIndex::Grid`] — asserting bit-identical labels, and
//! prints one JSON document to stdout with wall-clock, per-phase
//! distance evaluations, and the grid's candidate ledger. Progress rows
//! (TSV) go to stderr. Re-record the checked-in `BENCH_grid.json` with
//! `cargo run --release -p mdbscan_bench --bin grid_lowdim > BENCH_grid.json`.
//!
//! Headline (asserted at `--scale ≥ 1`): on the 2-D n = 200k config
//! the grid cuts Step-1 + adjacency distance evaluations at least 5×.
//! CI runs this at a small `--scale` (where only the equivalence
//! assertions apply) and smoke-parses the JSON.

use mdbscan_bench::{timed, HarnessArgs};
use mdbscan_core::{CandidateIndex, DbscanParams, ExactConfig, ExactStats, MetricDbscan};
use mdbscan_datagen::{lowdim_blobs, LowDimSpec};
use mdbscan_metric::VectorBlock;

const EPS: f64 = 1.0;
const MIN_PTS: usize = 15;
const RBAR: f64 = 0.5;

/// Cluster spread holding the r̄-ball occupancy near 5 points as `n`
/// scales (≈ constant density): below `MIN_PTS`, so the dense-ball
/// shortcut stays out of the way and Step 1 actually counts neighbors —
/// the regime the grid (and the paper's adjacency scans) are about —
/// while ε-balls still hold ≈ 4·(2^dim/4) × that, keeping cluster
/// interiors core.
fn cluster_std(dim: usize, n: usize) -> f64 {
    let base = if dim == 2 { 8.0 } else { 4.0 };
    base * (n as f64 / 200_000.0).powf(1.0 / dim as f64)
}

struct Side {
    wall_ms: f64,
    stats: ExactStats,
}

struct Config {
    dim: usize,
    n: usize,
    generic: Side,
    grid: Side,
    front_reduction: f64,
}

/// Fronts the headline measures: the candidate-generation phases the
/// grid replaces (Step 1 + adjacency).
fn front(stats: &ExactStats) -> u64 {
    stats.adjacency_evals + stats.label_evals
}

fn run_side(block: &VectorBlock<f64>, index: CandidateIndex) -> (Side, Vec<i32>) {
    // cache_capacity(0): every run recomputes everything (grid build
    // included), so wall-clock and counters compare cold against cold.
    let engine = MetricDbscan::builder(block.ids(), block.clone())
        .rbar(RBAR)
        .cache_capacity(0)
        .candidate_index(index)
        .build()
        .expect("engine");
    let cfg = ExactConfig {
        parallel: engine.parallel(),
        count_distance_evals: true,
        ..ExactConfig::default()
    };
    let params = DbscanParams::new(EPS, MIN_PTS).expect("params");
    let (run, wall_ms) = timed(|| engine.exact_with(&params, &cfg).expect("exact"));
    let stats = *run.report.exact_stats().expect("exact stats");
    (Side { wall_ms, stats }, run.clustering.assignments())
}

fn main() {
    let args = HarnessArgs::parse();
    let mut configs: Vec<Config> = Vec::new();
    eprintln!(
        "dim\tn\tpath\twall_ms\tadjacency_evals\tlabel_evals\ttotal_evals\tcells_probed\temitted\trejected"
    );
    for dim in [2usize, 3] {
        for base in [20_000usize, 200_000] {
            let n = args.sized(base);
            let rows = lowdim_blobs(
                &LowDimSpec {
                    n,
                    dim,
                    clusters: 10,
                    std: cluster_std(dim, n),
                    noise_frac: 0.01,
                    extent: 100.0,
                },
                args.seed,
            )
            .into_parts()
            .0;
            let block = VectorBlock::<f64>::from_rows(&rows);
            let (generic, labels_generic) = run_side(&block, CandidateIndex::Generic);
            let (grid, labels_grid) = run_side(&block, CandidateIndex::Grid);
            assert_eq!(
                labels_generic, labels_grid,
                "grid labels diverged from generic at d={dim}, n={n}"
            );
            assert!(
                grid.stats.candidates.cells_probed > 0,
                "grid path must actually probe cells at d={dim}, n={n}"
            );
            let front_reduction = front(&generic.stats) as f64 / front(&grid.stats).max(1) as f64;
            for (path, side) in [("generic", &generic), ("grid", &grid)] {
                let c = side.stats.candidates;
                eprintln!(
                    "{dim}\t{}\t{path}\t{:.1}\t{}\t{}\t{}\t{}\t{}\t{}",
                    rows.len(),
                    side.wall_ms,
                    side.stats.adjacency_evals,
                    side.stats.label_evals,
                    side.stats.distance_evals,
                    c.cells_probed,
                    c.candidates_emitted,
                    c.candidates_rejected
                );
            }
            configs.push(Config {
                dim,
                n: rows.len(),
                generic,
                grid,
                front_reduction,
            });
        }
    }

    // Headline: at full scale the 2-D 200k config must show ≥ 5× fewer
    // Step-1 + adjacency evaluations through the grid.
    let headline = configs
        .iter()
        .filter(|c| c.dim == 2)
        .max_by_key(|c| c.n)
        .expect("configs is non-empty");
    let full_scale = args.scale >= 1.0;
    if full_scale {
        assert!(
            headline.front_reduction >= 5.0,
            "grid front-eval reduction {:.2}× < 5× at d=2, n={} \
             (generic {} vs grid {})",
            headline.front_reduction,
            headline.n,
            front(&headline.generic.stats),
            front(&headline.grid.stats),
        );
    }

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"bench\": \"grid\",\n");
    json.push_str(&format!(
        "  \"eps\": {EPS}, \"min_pts\": {MIN_PTS}, \"rbar\": {RBAR}, \"scale\": {},\n",
        args.scale
    ));
    json.push_str(&format!(
        "  \"headline\": {{\"dim\": 2, \"n\": {}, \"front_reduction\": {:.2}, \"asserted_5x\": {full_scale}}},\n",
        headline.n, headline.front_reduction
    ));
    json.push_str("  \"configs\": [\n");
    for (i, c) in configs.iter().enumerate() {
        let sep = if i + 1 == configs.len() { "" } else { "," };
        let g = &c.generic.stats;
        let r = &c.grid.stats;
        json.push_str(&format!(
            "    {{\"dim\": {}, \"n\": {}, \
             \"generic\": {{\"wall_ms\": {:.1}, \"front_evals\": {}, \"total_evals\": {}}}, \
             \"grid\": {{\"wall_ms\": {:.1}, \"front_evals\": {}, \"total_evals\": {}, \
             \"cells_probed\": {}, \"candidates_emitted\": {}, \"candidates_rejected\": {}}}, \
             \"front_reduction\": {:.2}, \"labels_match\": true}}{sep}\n",
            c.dim,
            c.n,
            c.generic.wall_ms,
            front(g),
            g.distance_evals,
            c.grid.wall_ms,
            front(r),
            r.distance_evals,
            r.candidates.cells_probed,
            r.candidates.candidates_emitted,
            r.candidates.candidates_rejected,
            c.front_reduction,
        ));
    }
    json.push_str("  ]\n");
    json.push_str("}\n");
    print!("{json}");
}
