//! Random-projection candidate index vs. the pruned generic path on
//! high-dimensional unit-norm embeddings: for d ∈ {128, 768} (sizes
//! scaled by `--scale`), runs the exact solver once as the quality
//! reference, then the ρ-approximate solver cold twice — generic
//! (net-anchored pruning) and [`CandidateIndex::RandomProjection`] —
//! and prints one JSON document to stdout with wall-clock, the Step-1 +
//! labeling distance-evaluation front, the RP candidate ledger, and
//! ARI/AMI quality scores against the exact labels. Progress rows (TSV)
//! go to stderr. Re-record the checked-in `BENCH_highdim.json` with
//! `cargo run --release -p mdbscan_bench --bin highdim_embeddings > BENCH_highdim.json`.
//!
//! Headline (asserted at `--scale ≥ 1`): on the d = 128, n = 50k config
//! the RP index cuts Step-1 + labeling distance evaluations at least
//! 3× while keeping ARI ≥ 0.95 against the exact solver. RP runs are
//! also asserted bit-identical when repeated (fixed seed). CI runs this
//! at a small `--scale` (where only the determinism assertions apply)
//! and smoke-parses the JSON.

use mdbscan_bench::{timed, HarnessArgs};
use mdbscan_core::{
    ApproxParams, ApproxStats, CandidateIndex, DbscanParams, MetricDbscan, RpConfig, RpStats,
};
use mdbscan_datagen::{highdim_embeddings, HighDimSpec};
use mdbscan_eval::{adjusted_mutual_info, adjusted_rand_index};
use mdbscan_metric::VectorBlock;

const EPS: f64 = 0.15;
const RHO: f64 = 2.0;
/// `r̄ = ρε/2 = ε`: the net the ρ-approximate contract dictates. The
/// workload is *two-level* (tiny near-duplicate blobs whose centers
/// spread over an intrinsic-5 continuum at ε-scale separations), so
/// this net cannot resolve the structure that matters: its cells lump
/// several blobs, members carry `dist_to_center` up to r̄ = ε, and the
/// per-member triangle sandwich `|a − d(q,c)| … a + d(q,c)` blurs by
/// ±ε. Every member within the ≈ 2ε straddle horizon must be evaluated,
/// and with intrinsic dimension 5 that horizon holds ≈ 2⁵× the ε-ball
/// mass — the "high doubling dimension erodes net-anchored pruning"
/// regime. The RP index sidesteps the net entirely: projection lists
/// rank by actual coordinates with no additive slack, so they resolve
/// blobs at any separation scale and pay only a capped candidate list.
const RBAR: f64 = 0.15;
/// The exact solver requires `r̄ ≤ ε/2` — and at ε/2 the net snaps to
/// the blob scale (blob diameter ≪ ε/2 ≪ blob separation), so *its*
/// sandwich is sharp and the exact reference stays cheap and healthy.
const RBAR_EXACT: f64 = 0.075;
/// Intrinsic dimension of the blob-center continuum. The paper's
/// low-doubling assumption holds at the blob level (the exact ε/2-net
/// is small and sharp); 5 is high enough that the coarse ρ-approximate
/// net's 2ε straddle horizon covers ~an order of magnitude more mass
/// than the ε-ball it is counting.
const INTRINSIC: usize = 5;
/// Shell occupancy: radii ~ R·U^{1/200}, i.e. essentially the sphere
/// itself (99 % of mass above 0.98R). Two reasons. Projection lists are
/// value-extreme heads — caps of the offset geometry — so interior
/// points (r ≪ R) can never reach a list head; a pure shell makes list
/// rank purely angular. And constant radius makes ε-ball occupancy
/// uniform over the shell: no subcritical fringe of interior stragglers
/// for the ρ-ambiguity band to mislabel. A shell is also the shape of
/// real centered/normalized embedding tables (offsets from the global
/// mean concentrate in norm).
const RADIAL_EXPONENT: f64 = 200.0;
/// One connected region. Projection lists have a *global* membership
/// cutoff: with several well-separated regions, each direction's lists
/// fill with whichever region happens to shift extreme along it, and
/// the per-region effective list depth collapses. (Depth-ranked probe
/// *selection* is immune to such common shifts — see the `mdbscan_rp`
/// crate docs — but list membership is not.) A single region spends the
/// whole list budget on the structure under test; quality is then the
/// cluster/noise separation, which is exactly where an undercounting
/// candidate index fails first.
const CLUSTERS: usize = 1;
const NOISE_FRAC: f64 = 0.02;
/// Sparse off-manifold chaff: offsets drawn in a random *ambient*
/// direction at norm ∈ [0.22, 0.30]. Chord geometry after
/// re-normalization: ≈ 0.50 to every shell point (inside the approx
/// adjacency horizon `(1+ρ)ε + 2r̄ = 0.75`, outside the labeling radius
/// `(ρ/2+1)ε = 0.30` and the exact horizon `ε + 2r̄ₑ = 0.30`), and
/// ≥ 0.30 to every other chaff point (each is a singleton net cell).
/// This is the cloud of "not quite anything" vectors every real
/// embedding table carries, and it is where net-anchored pruning has
/// nothing to hold on to: singleton cells are below `min_anchor_group`,
/// so the generic path pays a full distance evaluation for every chaff
/// entry in every row — per shell center, per chaff core-test, and per
/// chaff labeling scan. The RP index never sees them: chaff projection
/// values are ~±0.02 against list heads at ~0.4, so they poison no
/// list, and a chaff *query* burns only its candidate cap.
const HALO_FRAC: f64 = 0.10;
const HALO_LO: f64 = 0.22;
const HALO_HI: f64 = 0.30;
/// Region radius (offset norm before re-normalization). Wide on
/// purpose: projection values order points by their component along
/// `u`, so the within-region value *signal* scales with the region's
/// angular extent while the orthogonal-coordinate noise is fixed at
/// ~d^{-1/2}. A wide region is what makes the top-of-list head of a
/// query's best projections actually be its near neighbors — the CEOs
/// property random-projection indexes rely on.
const SPREAD: f64 = 0.5;

/// d = 768 runs at a fifth the points, so its shell is thinned to keep
/// blob spacing below ε (connectivity is area-bound: spacing ∝ R·B^{-1/4}).
fn spread(dim: usize) -> f64 {
    if dim >= 768 {
        0.4
    } else {
        SPREAD
    }
}
/// Near-duplicate blob structure (crops/paraphrases — the shape the
/// paper's §5.1 noisy-duplication protocol models): 10 members per
/// blob at offset norm ≈ 0.012 ≪ ε/2. Small blobs keep the ε-ball
/// blob-count high enough that Poisson lumpiness cannot push a blob's
/// neighborhood below MinPts.
const BLOB_SIZE: usize = 10;
const BLOB_SPREAD: f64 = 0.012;
const MAX_CENTER_DOT: f64 = 0.15;

/// With the region radius pinned (by the sphere) instead of the blob
/// spacing, ε-ball occupancy scales linearly with `n`: MinPts must
/// track it to keep the core/border split scale-invariant.
fn min_pts(n: usize) -> usize {
    (n / 1250).max(10)
}

struct Side {
    wall_ms: f64,
    stats: ApproxStats,
    rp: RpStats,
    ari: f64,
    ami: f64,
}

struct Config {
    dim: usize,
    n: usize,
    min_pts: usize,
    spread: f64,
    exact_wall_ms: f64,
    generic: Side,
    rp: Side,
    front_reduction: f64,
}

/// The phases RP replaces: Step-1 core counting + Algorithm-2 labeling.
fn front(stats: &ApproxStats) -> u64 {
    stats.summary_evals + stats.label_evals
}

fn rp_config(seed: u64, n: usize) -> RpConfig {
    // Candidates per query ≈ probes · top_m, which must sit well below
    // the generic path's per-query straddle horizon while carrying
    // ≥ MinPts true neighbors for core points. Coverage is governed by
    // the query's best (shallowest) *two-sided* list depth over the K
    // directions: probing is depth-ranked, so a query is covered iff
    // some direction ranks it — and hence its ε-neighbors, which
    // project within ~±ε of it — inside top_m. On this workload that
    // best-of-512 depth concentrates just under n/256, so top_m = n/128
    // covers with ~2× margin; probes = 4 then caps the per-query
    // candidate bill at n/32.
    let top_m = ((n / 128).clamp(64, 512)) as u32;
    RpConfig::new(seed ^ 0x5eed_ca4d)
        .projections(512)
        .top_m(top_m)
        .probes(4)
}

fn build_engine(
    block: &VectorBlock<f64>,
    index: CandidateIndex,
    rbar: f64,
) -> MetricDbscan<u32, VectorBlock<f64>> {
    // cache_capacity(0): every run recomputes everything (RP build
    // included), so wall-clock and counters compare cold against cold.
    MetricDbscan::builder(block.ids(), block.clone())
        .rbar(rbar)
        .cache_capacity(0)
        .candidate_index(index)
        .build()
        .expect("engine")
}

fn run_side(
    block: &VectorBlock<f64>,
    index: CandidateIndex,
    reference: &[i32],
) -> (Side, Vec<i32>) {
    let engine = build_engine(block, index, RBAR);
    let params = ApproxParams::new(EPS, min_pts(block.ids().len()), RHO).expect("params");
    let (run, wall_ms) = timed(|| engine.approx(&params).expect("approx"));
    let stats = *run.report.approx_stats().expect("approx stats");
    let rp = run.report.rp;
    let labels = run.clustering.assignments();
    let side = Side {
        wall_ms,
        ari: adjusted_rand_index(reference, &labels),
        ami: adjusted_mutual_info(reference, &labels),
        stats,
        rp,
    };
    (side, labels)
}

fn label_shape(labels: &[i32]) -> (usize, usize) {
    let mut ids: Vec<i32> = labels.iter().copied().filter(|&l| l >= 0).collect();
    ids.sort_unstable();
    ids.dedup();
    (ids.len(), labels.iter().filter(|&&l| l < 0).count())
}

fn main() {
    let args = HarnessArgs::parse();
    let mut configs: Vec<Config> = Vec::new();
    eprintln!(
        "dim\tn\tpath\twall_ms\tsummary_evals\tlabel_evals\ttotal_evals\tanchors\tb_acc\tb_rej\trp_emitted\trp_rejected\tari\tami"
    );
    for (dim, base) in [(128usize, 50_000usize), (768, 10_000)] {
        let n = args.sized(base);
        let rows = highdim_embeddings(
            HighDimSpec {
                n,
                dim,
                clusters: CLUSTERS,
                spread: spread(dim),
                intrinsic: INTRINSIC,
                radial_exponent: RADIAL_EXPONENT,
                noise_frac: NOISE_FRAC,
                halo_frac: HALO_FRAC,
                halo_lo: HALO_LO,
                halo_hi: HALO_HI,
                halo_ambient: true,
                blob_size: BLOB_SIZE,
                blob_spread: BLOB_SPREAD,
                max_center_dot: MAX_CENTER_DOT,
            },
            args.seed,
        )
        .into_parts()
        .0;
        let block = VectorBlock::<f64>::from_rows(&rows);

        // Exact reference labels (generic path; RP never touches exact).
        let exact_engine = build_engine(&block, CandidateIndex::Generic, RBAR_EXACT);
        let exact_params = DbscanParams::new(EPS, min_pts(n)).expect("params");
        let (exact_run, exact_wall_ms) =
            timed(|| exact_engine.exact(&exact_params).expect("exact"));
        let reference = exact_run.clustering.assignments();

        {
            let (nc, nn) = label_shape(&reference);
            eprintln!("# d={dim} exact: {nc} clusters, {nn} noise of {n}");
        }
        let (generic, labels_g) = run_side(&block, CandidateIndex::Generic, &reference);
        {
            let (nc, nn) = label_shape(&labels_g);
            eprintln!("# d={dim} generic-approx: {nc} clusters, {nn} noise of {n}");
        }
        let cfg = rp_config(args.seed, n);
        let (rp, labels_rp) = run_side(&block, CandidateIndex::RandomProjection(cfg), &reference);
        assert!(
            rp.rp.candidates_emitted > 0,
            "RP path must actually emit candidates at d={dim}, n={n}"
        );
        // Fixed seed ⇒ the RP run is a pure function of the input: a
        // repeat must be bit-identical.
        let (_, labels_rp2) = run_side(&block, CandidateIndex::RandomProjection(cfg), &reference);
        assert_eq!(
            labels_rp, labels_rp2,
            "RP labels must be deterministic for a fixed seed at d={dim}, n={n}"
        );

        let front_reduction = front(&generic.stats) as f64 / front(&rp.stats).max(1) as f64;
        for (path, side) in [("generic", &generic), ("rp", &rp)] {
            eprintln!(
                "{dim}\t{}\t{path}\t{:.1}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{:.4}\t{:.4}",
                rows.len(),
                side.wall_ms,
                side.stats.summary_evals,
                side.stats.label_evals,
                side.stats.distance_evals(),
                side.stats.pruning.anchor_evals,
                side.stats.pruning.bound_accepts,
                side.stats.pruning.bound_rejects,
                side.rp.candidates_emitted,
                side.rp.candidates_rejected,
                side.ari,
                side.ami
            );
        }
        configs.push(Config {
            dim,
            n: rows.len(),
            min_pts: min_pts(n),
            spread: spread(dim),
            exact_wall_ms,
            generic,
            rp,
            front_reduction,
        });
    }

    // Headline: at full scale the d=128 config must show ≥ 3× fewer
    // Step-1 + labeling evaluations through RP at ARI ≥ 0.95.
    let headline = configs
        .iter()
        .filter(|c| c.dim == 128)
        .max_by_key(|c| c.n)
        .expect("configs is non-empty");
    let full_scale = args.scale >= 1.0;
    if full_scale {
        assert!(
            headline.front_reduction >= 3.0,
            "RP front-eval reduction {:.2}× < 3× at d=128, n={} \
             (generic {} vs rp {})",
            headline.front_reduction,
            headline.n,
            front(&headline.generic.stats),
            front(&headline.rp.stats),
        );
        assert!(
            headline.rp.ari >= 0.95,
            "RP quality ARI {:.4} < 0.95 at d=128, n={}",
            headline.rp.ari,
            headline.n,
        );
    }

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"bench\": \"highdim\",\n");
    json.push_str(&format!(
        "  \"eps\": {EPS}, \"min_pts\": {}, \"rho\": {RHO}, \"rbar\": {RBAR}, \
         \"intrinsic\": {INTRINSIC}, \"spread\": {SPREAD}, \"noise_frac\": {NOISE_FRAC}, \
         \"halo_frac\": {HALO_FRAC}, \"blob_size\": {BLOB_SIZE}, \
         \"blob_spread\": {BLOB_SPREAD}, \"scale\": {},\n",
        min_pts(args.sized(50_000)),
        args.scale
    ));
    json.push_str(&format!(
        "  \"headline\": {{\"dim\": 128, \"n\": {}, \"front_reduction\": {:.2}, \
         \"rp_ari\": {:.4}, \"asserted_3x_and_q95\": {full_scale}}},\n",
        headline.n, headline.front_reduction, headline.rp.ari
    ));
    json.push_str("  \"configs\": [\n");
    for (i, c) in configs.iter().enumerate() {
        let sep = if i + 1 == configs.len() { "" } else { "," };
        let g = &c.generic;
        let r = &c.rp;
        json.push_str(&format!(
            "    {{\"dim\": {}, \"n\": {}, \"min_pts\": {}, \"spread\": {}, \
             \"exact_wall_ms\": {:.1}, \
             \"generic\": {{\"wall_ms\": {:.1}, \"front_evals\": {}, \"total_evals\": {}, \
             \"ari\": {:.4}, \"ami\": {:.4}}}, \
             \"rp\": {{\"wall_ms\": {:.1}, \"front_evals\": {}, \"total_evals\": {}, \
             \"projections\": {}, \"candidates_emitted\": {}, \"candidates_rejected\": {}, \
             \"ari\": {:.4}, \"ami\": {:.4}}}, \
             \"front_reduction\": {:.2}, \"rp_deterministic\": true}}{sep}\n",
            c.dim,
            c.n,
            c.min_pts,
            c.spread,
            c.exact_wall_ms,
            g.wall_ms,
            front(&g.stats),
            g.stats.distance_evals(),
            g.ari,
            g.ami,
            r.wall_ms,
            front(&r.stats),
            r.stats.distance_evals(),
            r.rp.projections,
            r.rp.candidates_emitted,
            r.rp.candidates_rejected,
            r.ari,
            r.ami,
            c.front_reduction,
        ));
    }
    json.push_str("  ]\n");
    json.push_str("}\n");
    print!("{json}");
}
