//! Algorithm 2: ρ-approximate metric DBSCAN via a core-point summary.
//!
//! With `r̄ = ρε/2`, the summary `S*` keeps, per ball `C_e`:
//! * just the center `e` when `e` is itself a core point (it represents
//!   every core point of its ball within `r̄`), or
//! * all core points of `C_e` otherwise — and Lemma 8 shows a non-core
//!   center's ball has fewer than `MinPts` points, so this adds `< MinPts`
//!   entries.
//!
//! `|S*| = O((Δ/ρε)^D) + z` (Lemma 9). Merging runs *inside the summary
//! only*, at threshold `(1+ρ)ε`; every other point is labeled against the
//! summary at threshold `(ρ/2+1)ε`. Theorem 2 proves the result is a valid
//! ρ-approximate DBSCAN clustering (Gan–Tao semantics), and the sandwich
//! theorem places it between exact(ε) and exact((1+ρ)ε).
//!
//! Like the exact steps, every phase exploits the net's recorded
//! distances for triangle-inequality pruning
//! ([`mdbscan_metric::PruningConfig`]): summary pairs whose center-pair
//! bounds already decide the `(1+ρ)ε` test merge (or are discarded)
//! without an evaluation, and the labeling scan anchors each neighbor
//! ball once. Labels are bit-identical with pruning on or off.

use std::sync::Arc;
use std::time::Instant;

use mdbscan_grid::{CandidateStats, GridIndex};
use mdbscan_kcenter::CenterAdjacency;
use mdbscan_metric::{BatchMetric, CountingMetric, Metric, PruneStats};
use mdbscan_parallel::{par_map_ranges, split_even, worker_count, Csr, ParallelConfig};
use mdbscan_rp::{RpIndex, RpStats};

use crate::labels::PointLabel;
use crate::netview::NetView;
use crate::params::ApproxParams;
use crate::steps::{count_neighbors_capped, AnchorScratch};
use crate::unionfind::UnionFind;

/// Work items per worker below which the summary / labeling loops stay
/// sequential.
const APPROX_MIN_PER_THREAD: usize = 512;

/// Statistics of one Algorithm-2 run (Fig. 6 uses the summary/memory
/// numbers; the ablations use the timings).
#[derive(Debug, Clone, Copy, Default)]
pub struct ApproxStats {
    /// Centers in the net (`|E|`).
    pub n_centers: usize,
    /// Summary size `|S*|`.
    pub summary_size: usize,
    /// Mean neighbor-ball degree.
    pub mean_adjacency_degree: f64,
    /// Seconds computing the adjacency.
    pub adjacency_secs: f64,
    /// Seconds constructing `S*` (core tests included).
    pub summary_secs: f64,
    /// Seconds merging inside `S*`.
    pub merge_secs: f64,
    /// Seconds labeling the remaining points.
    pub label_secs: f64,
    /// Summary pairs whose distance was tested during the merge
    /// (distance-free accepts are not tests; see `pruning`).
    pub merge_pairs_tested: u64,
    /// Triangle-inequality pruning ledger (adjacency + summary + merge +
    /// labeling). Work counters, the same for every thread count: a
    /// cache hit skips the phases it replays and counts less, while
    /// labels stay identical.
    pub pruning: PruneStats,
    /// Grid candidate-generation ledger across the adjacency build, the
    /// core tests, and the labeling scan — all zeros on the generic
    /// path. Labels are bit-identical with the grid on or off.
    pub candidates: CandidateStats,
    /// Random-projection candidate ledger across the core tests and the
    /// labeling scan — all zeros unless the engine was configured with
    /// `CandidateIndex::RandomProjection`. Unlike the grid, RP changes
    /// which candidates are *seen* (a quality/evaluation trade-off), so
    /// RP labels are deterministic for a fixed seed but not identical to
    /// the generic path's.
    pub rp: RpStats,
    /// Distance evaluations spent building the adjacency (0 on a cache
    /// replay).
    pub adjacency_evals: u64,
    /// Distance evaluations spent on the Step-1 core tests (0 when the
    /// summary was replayed from cache).
    pub summary_evals: u64,
    /// Distance evaluations spent merging inside `S*`.
    pub merge_evals: u64,
    /// Distance evaluations spent labeling.
    pub label_evals: u64,
}

impl ApproxStats {
    /// Total distance evaluations across all four phases.
    pub fn distance_evals(&self) -> u64 {
        self.adjacency_evals + self.summary_evals + self.merge_evals + self.label_evals
    }
}

/// The `(ε, MinPts, ρ)`-dependent intermediates of Algorithm 2 that an
/// engine may cache: the per-center core flags, the summary `S*`, its
/// per-center membership rows, and the merged summary clusters.
///
/// All are deterministic functions of `(net, ε, MinPts, ρ)` —
/// independent of thread count and pruning — so replaying them yields
/// bit-identical labels while skipping the summary construction *and*
/// the merge.
pub(crate) struct ApproxArtifacts {
    pub(crate) center_core: Vec<bool>,
    /// Summary point ids, in construction order.
    pub(crate) summary: Vec<u32>,
    /// Per center, the summary positions of its members.
    pub(crate) summary_by_center: Csr,
    /// Cluster id per summary position (post-merge components).
    pub(crate) summary_cluster: Vec<u32>,
}

impl ApproxArtifacts {
    /// Approximate heap footprint, for cache accounting.
    pub(crate) fn heap_bytes(&self) -> usize {
        self.center_core.len()
            + (self.summary.len() + self.summary_cluster.len()) * std::mem::size_of::<u32>()
            + self.summary_by_center.total_len() * std::mem::size_of::<u32>()
    }
}

/// Cached inputs a caller may replay into [`run_approx`], mirroring
/// [`crate::steps::StepsReuse`].
#[derive(Default)]
pub(crate) struct ApproxReuse<'a> {
    pub(crate) artifacts: Option<&'a ApproxArtifacts>,
    pub(crate) adjacency: Option<Arc<CenterAdjacency>>,
    /// ε-aligned grid over the current epoch's points (cell side
    /// `ε/√d`); when present, candidate generation for the adjacency,
    /// the core tests, and the labeling scan comes from ring cells —
    /// bit-identical labels, fewer distance evaluations.
    pub(crate) grid: Option<Arc<GridIndex>>,
    /// Seeded random-projection index over the current epoch's points;
    /// when present, the core tests and the labeling scan draw their
    /// candidates from its per-projection lists instead of scanning
    /// neighbor balls. Deterministic for a fixed seed; candidate misses
    /// are a quality trade-off, not nondeterminism. Mutually exclusive
    /// with `grid` (the engine resolves at most one).
    pub(crate) rp: Option<Arc<RpIndex>>,
}

/// Everything one Algorithm-2 run produces.
pub(crate) struct ApproxOutcome {
    pub(crate) labels: Vec<PointLabel>,
    pub(crate) stats: ApproxStats,
    /// Fresh artifacts for the caller to cache (`Some` only when nothing
    /// was reused).
    pub(crate) fresh_artifacts: Option<ApproxArtifacts>,
    /// The adjacency this run used (freshly built or replayed).
    pub(crate) adjacency: Arc<CenterAdjacency>,
}

/// Runs Algorithm 2 over a prepared net (`net.rbar ≤ ρε/2` — checked by
/// the caller). The core tests run parallel over centers and the
/// labeling over points; the merge inside `S*` is one sequential
/// union-find pass. Labels and the merge's work are identical for every
/// thread count.
pub(crate) fn run_approx<P: Sync, M: BatchMetric<P> + Sync>(
    points: &[P],
    metric: &M,
    net: &NetView<'_>,
    params: &ApproxParams,
    parallel: &ParallelConfig,
    pruning: &mdbscan_metric::PruningConfig,
    reuse: ApproxReuse<'_>,
) -> ApproxOutcome {
    debug_assert!(net.rbar <= params.rbar() * (1.0 + 1e-9));
    let eps = params.eps();
    let min_pts = params.min_pts();
    let k = net.num_centers();
    let n = net.num_points();
    let threads = parallel.threads();
    let mut stats = ApproxStats {
        n_centers: k,
        ..Default::default()
    };
    // Per-phase evaluation counters ride on a counting wrapper; the
    // relaxed atomic is cheap next to the evaluations it counts.
    let counting = CountingMetric::new(metric);
    let metric = &counting;

    // Adjacency threshold (definition (13) generalized to r̄ ≤ ρε/2): it
    // must cover both the merge radius (centers of summary points within
    // (1+ρ)ε are ≤ (1+ρ)ε + 2r̄ apart) and the ε-ball containment of
    // Lemma 2 (needs ≥ 2r̄ + ε). With r̄ = ρε/2 this equals the paper's
    // 4r̄ + ε.
    let grid: Option<&GridIndex> = reuse.grid.as_deref();
    let rp: Option<&RpIndex> = reuse.rp.as_deref();
    debug_assert!(
        grid.is_none() || rp.is_none(),
        "at most one candidate index per run"
    );
    let t = Instant::now();
    let threshold = approx_threshold(net.rbar, params);
    let adj: Arc<CenterAdjacency> = match reuse.adjacency {
        Some(adj) => {
            debug_assert_eq!(adj.threshold, threshold, "adjacency cache mixup");
            adj
        }
        None => match grid {
            Some(g) => {
                let dim = g.dim();
                let mut coords = Vec::with_capacity(net.centers.len() * dim);
                for &c in net.centers {
                    coords.extend_from_slice(g.point_coords(c));
                }
                let (built, cand) = CenterAdjacency::build_grid(
                    points,
                    metric,
                    net.centers,
                    threshold,
                    parallel,
                    dim,
                    coords,
                );
                stats.candidates.merge(&cand);
                Arc::new(built)
            }
            None => {
                let built = CenterAdjacency::build_pruned(
                    points,
                    metric,
                    net.centers,
                    threshold,
                    parallel,
                    pruning,
                );
                stats.pruning.merge(&built.pruning);
                Arc::new(built)
            }
        },
    };
    stats.adjacency_secs = t.elapsed().as_secs_f64();
    stats.adjacency_evals = metric.count();
    stats.mean_adjacency_degree = adj.mean_degree();

    // ---- Summary construction + merge (replayed wholesale on a hit) ----
    let fresh: Option<ApproxArtifacts> = if reuse.artifacts.is_some() {
        None
    } else {
        // Which centers are core points (|B(e, ε)| ≥ MinPts)? Parallel
        // over centers; each test is independent.
        let t = Instant::now();
        // The `≥ MinPts` test: either the generic neighbor-cover-set
        // scan or (grid mode) a capped ring-cell count — both see the
        // same ε-ball, so the flag is identical.
        let is_core_test = |p: usize,
                            e: usize,
                            ps: &mut PruneStats,
                            cs: &mut CandidateStats,
                            rps: &mut RpStats,
                            cells: &mut Vec<u32>| {
            if let Some(r) = rp {
                // RP mode: count only inside the candidate set, capped
                // at MinPts. A candidate miss can undercount (quality),
                // never overcount.
                r.candidates_for(p as u32, cells, rps);
                let mut count = 0usize;
                for &q in cells.iter() {
                    if metric.within(&points[p], &points[q as usize], eps) {
                        count += 1;
                        if count >= min_pts {
                            break;
                        }
                    }
                }
                return count >= min_pts;
            }
            match grid {
                Some(g) => {
                    g.count_within_capped(g.point_coords(p), eps, min_pts, cells, cs, |q| {
                        metric.within(&points[p], &points[q as usize], eps)
                    }) >= min_pts
                }
                None => {
                    count_neighbors_capped(
                        points, metric, net, &adj, e, p, eps, min_pts, pruning, ps,
                    ) >= min_pts
                }
            }
        };
        let w = worker_count(threads, k, 64);
        let chunks = par_map_ranges(split_even(k, w), |r| {
            let mut ps = PruneStats::default();
            let mut cs = CandidateStats::default();
            let mut rps = RpStats::default();
            let mut cells: Vec<u32> = Vec::new();
            let flags: Vec<bool> = r
                .map(|e| is_core_test(net.centers[e], e, &mut ps, &mut cs, &mut rps, &mut cells))
                .collect();
            (flags, ps, cs, rps)
        });
        let mut center_core = Vec::with_capacity(k);
        for (chunk, ps, cs, rps) in chunks {
            center_core.extend(chunk);
            stats.pruning.merge(&ps);
            stats.candidates.merge(&cs);
            stats.rp.merge(&rps);
        }
        // Points of non-core-center balls need individual core tests
        // (Lemma 8 bounds each such ball below MinPts points, so this
        // stays amortized-linear — Lemma 10). Collect them, test in
        // parallel.
        let sparse_points: Vec<u32> = (0..k)
            .filter(|&e| !center_core[e])
            .flat_map(|e| net.cover_sets.row(e).iter().copied())
            .collect();
        let w = worker_count(threads, sparse_points.len(), APPROX_MIN_PER_THREAD);
        let chunks = par_map_ranges(split_even(sparse_points.len(), w), |r| {
            let mut ps = PruneStats::default();
            let mut cs = CandidateStats::default();
            let mut rps = RpStats::default();
            let mut cells: Vec<u32> = Vec::new();
            let flags: Vec<bool> = r
                .map(|i| {
                    let pi = sparse_points[i] as usize;
                    let e = net.assignment[pi] as usize;
                    is_core_test(pi, e, &mut ps, &mut cs, &mut rps, &mut cells)
                })
                .collect();
            (flags, ps, cs, rps)
        });
        let mut sparse_core = Vec::with_capacity(sparse_points.len());
        for (chunk, ps, cs, rps) in chunks {
            sparse_core.extend(chunk);
            stats.pruning.merge(&ps);
            stats.candidates.merge(&cs);
            stats.rp.merge(&rps);
        }
        // S* as point indices, plus per-center membership rows (positions
        // into `summary`) — assembled sequentially in center order,
        // exactly as the sequential algorithm would.
        let mut summary: Vec<u32> = Vec::new();
        let mut by_center_offsets = vec![0usize; k + 1];
        let mut by_center_values: Vec<u32> = Vec::new();
        let mut sparse_cursor = 0usize;
        for e in 0..k {
            if center_core[e] {
                by_center_values.push(summary.len() as u32);
                summary.push(net.centers[e] as u32);
            } else {
                for &p in net.cover_sets.row(e) {
                    debug_assert_eq!(sparse_points[sparse_cursor], p);
                    let core = sparse_core[sparse_cursor];
                    sparse_cursor += 1;
                    if core {
                        by_center_values.push(summary.len() as u32);
                        summary.push(p);
                    }
                }
            }
            by_center_offsets[e + 1] = by_center_values.len();
        }
        let summary_by_center = Csr::from_parts(by_center_offsets, by_center_values);
        stats.summary_secs = t.elapsed().as_secs_f64();
        stats.summary_evals = metric.count() - stats.adjacency_evals;

        // ---- Merge inside S* at (1+ρ)ε ----
        let t = Instant::now();
        let merge_r = params.merge_radius();
        let mut uf = UnionFind::new(summary.len());
        // Per summary pair (i, j): centers cs_i, cs_j with adjacency
        // bounds [lb, ub] on dis(cs_i, cs_j), and recorded anchor
        // distances dq_i = dis(sp_i, cs_i), dq_j. Then
        //   dis(sp_i, sp_j) ∈ [lb − dq_i − dq_j, ub + dq_i + dq_j]
        // decides most pairs against (1+ρ)ε without an evaluation.
        let dq = |sp: u32| net.dist_to_center[sp as usize];
        // Per summary point i, in order: the pairs (i, j > i) the bounds
        // decide are merged or discarded first, then the rest are tested,
        // skipping pairs already connected.
        let mut pending: Vec<usize> = Vec::new();
        for i in 0..summary.len() {
            let cs = net.assignment[summary[i] as usize] as usize;
            let row = adj.neighbors.row(cs);
            let lbs = adj.lbound_row(cs);
            let ubs = adj.ubound_row(cs);
            for ((&e2, &lb), &ub) in row.iter().zip(lbs).zip(ubs) {
                for &jpos in summary_by_center.row(e2 as usize) {
                    let j = jpos as usize;
                    if j <= i {
                        continue;
                    }
                    if pruning.enabled {
                        let slack = dq(summary[i]) + dq(summary[j]);
                        if lb - slack > merge_r {
                            stats.pruning.bound_rejects += 1;
                            continue;
                        }
                        if ub + slack <= merge_r {
                            if uf.union(i, j) {
                                stats.pruning.bound_accepts += 1;
                            }
                            continue;
                        }
                    }
                    pending.push(j);
                }
            }
            for j in pending.drain(..) {
                if uf.connected(i, j) {
                    continue;
                }
                stats.merge_pairs_tested += 1;
                if metric.within(
                    &points[summary[i] as usize],
                    &points[summary[j] as usize],
                    merge_r,
                ) {
                    uf.union(i, j);
                }
            }
        }
        let summary_cluster = uf.component_ids();
        stats.merge_secs = t.elapsed().as_secs_f64();
        stats.merge_evals = metric.count() - stats.adjacency_evals - stats.summary_evals;

        Some(ApproxArtifacts {
            center_core,
            summary,
            summary_by_center,
            summary_cluster,
        })
    };
    let art: &ApproxArtifacts = match reuse.artifacts {
        Some(a) => a,
        None => fresh.as_ref().expect("computed above"),
    };
    stats.summary_size = art.summary.len();

    // ---- Label everything, parallel over points ----
    let t = Instant::now();
    let label_r = params.label_radius();
    // Summary position of each point (u32::MAX = not in S*) and of each
    // core center.
    let mut summary_pos_of_point = vec![u32::MAX; n];
    for (i, &sp) in art.summary.iter().enumerate() {
        summary_pos_of_point[sp as usize] = i as u32;
    }
    let center_summary_pos: Vec<Option<u32>> = (0..k)
        .map(|e| art.center_core[e].then(|| art.summary_by_center.row(e)[0]))
        .collect();
    let w = worker_count(threads, n, APPROX_MIN_PER_THREAD);
    let chunks = par_map_ranges(split_even(n, w), |r| {
        let mut ps = PruneStats::default();
        let mut cs = CandidateStats::default();
        let mut rps = RpStats::default();
        let mut scratch = AnchorScratch::default();
        let mut cand: Vec<u32> = Vec::new();
        let labels: Vec<PointLabel> = r
            .map(|p| {
                if let Some(rpi) = rp {
                    return label_point_rp(
                        points,
                        metric,
                        net,
                        rpi,
                        art,
                        &summary_pos_of_point,
                        &center_summary_pos,
                        p,
                        label_r,
                        &mut cand,
                        &mut rps,
                    );
                }
                match grid {
                    Some(g) => label_point_grid(
                        points,
                        metric,
                        net,
                        g,
                        art,
                        &summary_pos_of_point,
                        &center_summary_pos,
                        p,
                        label_r,
                        &mut cs,
                    ),
                    None => label_point(
                        points,
                        metric,
                        net,
                        &adj,
                        art,
                        &summary_pos_of_point,
                        &center_summary_pos,
                        p,
                        label_r,
                        pruning,
                        &mut scratch,
                        &mut ps,
                    ),
                }
            })
            .collect();
        (labels, ps, cs, rps)
    });
    let mut labels = Vec::with_capacity(n);
    for (chunk, ps, cs, rps) in chunks {
        labels.extend(chunk);
        stats.pruning.merge(&ps);
        stats.candidates.merge(&cs);
        stats.rp.merge(&rps);
    }
    stats.label_secs = t.elapsed().as_secs_f64();
    stats.label_evals =
        metric.count() - stats.adjacency_evals - stats.summary_evals - stats.merge_evals;

    ApproxOutcome {
        labels,
        stats,
        fresh_artifacts: fresh,
        adjacency: adj,
    }
}

/// The adjacency threshold Algorithm 2 needs at a given net radius.
pub(crate) fn approx_threshold(rbar: f64, params: &ApproxParams) -> f64 {
    (params.merge_radius() + 2.0 * rbar).max(2.0 * rbar + params.eps())
}

/// Labels one point against the merged summary (Algorithm 2's final
/// phase), with the neighbor-ball scan anchored per center like Step 3.
#[allow(clippy::too_many_arguments)] // mirrors the labeling signature
fn label_point<P, M: BatchMetric<P>>(
    points: &[P],
    metric: &M,
    net: &NetView<'_>,
    adj: &CenterAdjacency,
    art: &ApproxArtifacts,
    summary_pos_of_point: &[u32],
    center_summary_pos: &[Option<u32>],
    p: usize,
    label_r: f64,
    pruning: &mdbscan_metric::PruningConfig,
    scratch: &mut AnchorScratch,
    ps: &mut PruneStats,
) -> PointLabel {
    // Summary members are certified core points.
    let pos = summary_pos_of_point[p];
    if pos != u32::MAX {
        return PointLabel::Core(art.summary_cluster[pos as usize]);
    }
    let cp = net.assignment[p] as usize;
    if let Some(pos) = center_summary_pos[cp] {
        // p is within r̄ ≤ ε of the core center c_p: at least a border
        // point of that cluster (individual core-ness not certified —
        // see PointLabel::Border docs).
        return PointLabel::Border(art.summary_cluster[pos as usize]);
    }
    // Nearest summary point within (ρ/2+1)ε among neighbor balls,
    // anchored per neighbor center when its summary row is big enough.
    let row = adj.neighbors.row(cp);
    scratch.anchor_rows(
        points,
        metric,
        net,
        row,
        |e2| art.summary_by_center.row_len(e2),
        p,
        pruning,
        ps,
    );
    let mut cursor = 0usize;
    let mut best: Option<(f64, u32)> = None;
    for &e2 in row {
        let e2 = e2 as usize;
        let members = art.summary_by_center.row(e2);
        let anchor = if pruning.enabled && members.len() >= pruning.min_anchor_group {
            let a = scratch.anchors[cursor];
            cursor += 1;
            Some(a)
        } else {
            None
        };
        for &jpos in members {
            let bound = best.map_or(label_r, |(d, _)| d);
            let sp = art.summary[jpos as usize] as usize;
            if let Some(a) = anchor {
                if (a - net.dist_to_center[sp]).abs() > bound {
                    ps.bound_rejects += 1;
                    continue;
                }
            }
            if let Some(d) = metric.distance_leq(&points[p], &points[sp], bound) {
                if best.is_none_or(|(bd, _)| d < bd) {
                    best = Some((d, jpos));
                }
            }
        }
    }
    match best {
        Some((_, jpos)) => PointLabel::Border(art.summary_cluster[jpos as usize]),
        None => PointLabel::Noise,
    }
}

/// Grid variant of [`label_point`]: same early-outs, then the nearest
/// summary point among the ring-cell candidates, minimizing
/// `(distance, summary position)` lexicographically. That is exactly
/// the optimum the generic scan converges to — its adjacency rows are
/// visited in ascending center order and summary positions are
/// assigned in center order, so positions arrive globally ascending
/// and the strict `<` keeps the first (smallest-position) minimum.
/// Every distance comes from the same metric arithmetic, so the label
/// matches bit-for-bit.
#[allow(clippy::too_many_arguments)] // mirrors label_point
fn label_point_grid<P, M: BatchMetric<P>>(
    points: &[P],
    metric: &M,
    net: &NetView<'_>,
    grid: &GridIndex,
    art: &ApproxArtifacts,
    summary_pos_of_point: &[u32],
    center_summary_pos: &[Option<u32>],
    p: usize,
    label_r: f64,
    cs: &mut CandidateStats,
) -> PointLabel {
    let pos = summary_pos_of_point[p];
    if pos != u32::MAX {
        return PointLabel::Core(art.summary_cluster[pos as usize]);
    }
    let cp = net.assignment[p] as usize;
    if let Some(pos) = center_summary_pos[cp] {
        return PointLabel::Border(art.summary_cluster[pos as usize]);
    }
    let mut best: Option<(f64, u32)> = None;
    let mut walk = CandidateStats::default();
    let (mut emitted, mut rejected) = (0u64, 0u64);
    grid.for_each_candidate_cell(
        grid.point_coords(p),
        label_r,
        &mut walk,
        |members, cell_lb, _| {
            if best.is_some_and(|(d, _)| cell_lb > d) {
                rejected += members.len() as u64;
                return;
            }
            for &q in members {
                let jpos = summary_pos_of_point[q as usize];
                if jpos == u32::MAX {
                    continue;
                }
                emitted += 1;
                let bound = best.map_or(label_r, |(d, _)| d);
                if let Some(d) = metric.distance_leq(&points[p], &points[q as usize], bound) {
                    if best.is_none_or(|(bd, bj)| d < bd || (d == bd && jpos < bj)) {
                        best = Some((d, jpos));
                    }
                }
            }
        },
    );
    cs.merge(&walk);
    cs.candidates_emitted += emitted;
    cs.candidates_rejected += rejected;
    match best {
        Some((_, jpos)) => PointLabel::Border(art.summary_cluster[jpos as usize]),
        None => PointLabel::Noise,
    }
}

/// Random-projection variant of [`label_point`]: same early-outs, then
/// the nearest summary point among the RP candidates, minimizing
/// `(distance, summary position)` lexicographically. Candidates that
/// are not summary members are filtered without an evaluation and
/// charged to [`RpStats::candidates_rejected`]. Deterministic for a
/// fixed seed (the candidate set is a pure function of the index);
/// summary members the candidate set misses are a quality trade-off.
#[allow(clippy::too_many_arguments)] // mirrors label_point
fn label_point_rp<P, M: BatchMetric<P>>(
    points: &[P],
    metric: &M,
    net: &NetView<'_>,
    rp: &RpIndex,
    art: &ApproxArtifacts,
    summary_pos_of_point: &[u32],
    center_summary_pos: &[Option<u32>],
    p: usize,
    label_r: f64,
    cand: &mut Vec<u32>,
    rps: &mut RpStats,
) -> PointLabel {
    let pos = summary_pos_of_point[p];
    if pos != u32::MAX {
        return PointLabel::Core(art.summary_cluster[pos as usize]);
    }
    let cp = net.assignment[p] as usize;
    if let Some(pos) = center_summary_pos[cp] {
        return PointLabel::Border(art.summary_cluster[pos as usize]);
    }
    rp.candidates_for(p as u32, cand, rps);
    let mut best: Option<(f64, u32)> = None;
    for &q in cand.iter() {
        let jpos = summary_pos_of_point[q as usize];
        if jpos == u32::MAX {
            rps.candidates_rejected += 1;
            continue;
        }
        let bound = best.map_or(label_r, |(d, _)| d);
        if let Some(d) = metric.distance_leq(&points[p], &points[q as usize], bound) {
            if best.is_none_or(|(bd, bj)| d < bd || (d == bd && jpos < bj)) {
                best = Some((d, jpos));
            }
        }
    }
    match best {
        Some((_, jpos)) => PointLabel::Border(art.summary_cluster[jpos as usize]),
        None => PointLabel::Noise,
    }
}

#[cfg(test)]
mod tests {
    use crate::{approx_dbscan, exact_dbscan, ApproxParams, MetricDbscan};
    use mdbscan_metric::Euclidean;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn blobs(seed: u64, per_blob: usize) -> Vec<Vec<f64>> {
        let mut rng = StdRng::seed_from_u64(seed);
        let centers = [[0.0, 0.0], [20.0, 0.0], [0.0, 20.0]];
        let mut pts = Vec::new();
        for c in centers {
            for _ in 0..per_blob {
                pts.push(vec![
                    c[0] + rng.random_range(-1.0..1.0),
                    c[1] + rng.random_range(-1.0..1.0),
                ]);
            }
        }
        for _ in 0..per_blob / 10 {
            pts.push(vec![
                rng.random_range(-100.0..100.0),
                rng.random_range(100.0..200.0),
            ]);
        }
        pts
    }

    #[test]
    fn recovers_well_separated_blobs() {
        let pts = blobs(5, 120);
        let c = approx_dbscan(&pts, &Euclidean, 0.8, 8, 0.5).unwrap();
        assert_eq!(c.num_clusters(), 3, "three blobs");
        // the far-away noise stays noise
        assert!(c.num_noise() >= 6);
    }

    /// Sandwich theorem (Gan–Tao): points together in exact(ε) stay
    /// together in approx; points together in approx stay together in
    /// exact((1+ρ)ε). Checked on core points (border assignment is
    /// tie-broken freely in all three).
    #[test]
    fn sandwich_property() {
        for seed in [1u64, 2, 3] {
            let pts = blobs(seed, 60);
            let eps = 0.9;
            let rho = 0.5;
            let lower = exact_dbscan(&pts, &Euclidean, eps, 6).unwrap();
            let upper = exact_dbscan(&pts, &Euclidean, (1.0 + rho) * eps, 6).unwrap();
            let mid = approx_dbscan(&pts, &Euclidean, eps, 6, rho).unwrap();
            for i in 0..pts.len() {
                for j in (i + 1)..pts.len() {
                    let together_lower = lower.labels()[i].is_core()
                        && lower.labels()[j].is_core()
                        && lower.cluster_of(i) == lower.cluster_of(j);
                    let together_mid = mid.labels()[i].is_core()
                        && mid.labels()[j].is_core()
                        && mid.cluster_of(i) == mid.cluster_of(j);
                    if together_lower {
                        // exact(ε)-cores are approx-assigned (maybe as
                        // border reps); require same approx cluster.
                        assert!(
                            mid.cluster_of(i).is_some(),
                            "seed {seed}: exact core {i} unassigned in approx"
                        );
                        assert_eq!(
                            mid.cluster_of(i),
                            mid.cluster_of(j),
                            "seed {seed}: exact(ε) pair ({i},{j}) split by approx"
                        );
                    }
                    if together_mid {
                        assert_eq!(
                            upper.cluster_of(i),
                            upper.cluster_of(j),
                            "seed {seed}: approx pair ({i},{j}) split by exact((1+ρ)ε)"
                        );
                    }
                }
            }
        }
    }

    /// Every exact core point must be assigned to some approx cluster
    /// (Definition 2: each core point belongs to exactly one cluster).
    #[test]
    fn exact_cores_are_always_assigned() {
        for seed in [7u64, 8, 9] {
            let pts = blobs(seed, 50);
            let exact = exact_dbscan(&pts, &Euclidean, 1.0, 5).unwrap();
            let approx = approx_dbscan(&pts, &Euclidean, 1.0, 5, 1.0).unwrap();
            for i in 0..pts.len() {
                if exact.labels()[i].is_core() {
                    assert!(
                        approx.cluster_of(i).is_some(),
                        "seed {seed}: core {i} dropped"
                    );
                }
            }
        }
    }

    #[test]
    fn summary_is_small_on_dense_data() {
        let pts = blobs(11, 400);
        let n = pts.len();
        let params = ApproxParams::new(1.0, 10, 0.5).unwrap();
        let engine = MetricDbscan::builder(pts, Euclidean)
            .rbar(params.rbar())
            .build()
            .unwrap();
        let run = engine.approx(&params).unwrap();
        let stats = run.report.approx_stats().expect("approx run");
        assert!(
            stats.summary_size < n / 5,
            "summary {} should compress {} points",
            stats.summary_size,
            n
        );
        assert!(stats.summary_size >= 3, "at least one rep per blob");
    }

    #[test]
    fn rho_zero_rejected_rho_two_accepted() {
        let pts = blobs(1, 30);
        assert!(approx_dbscan(&pts, &Euclidean, 1.0, 5, 0.0).is_err());
        assert!(approx_dbscan(&pts, &Euclidean, 1.0, 5, 2.0).is_ok());
    }

    #[test]
    fn duplicates_and_tiny_inputs() {
        let dup = vec![vec![0.0, 0.0]; 12];
        let c = approx_dbscan(&dup, &Euclidean, 1.0, 4, 0.5).unwrap();
        assert_eq!(c.num_clusters(), 1);
        assert_eq!(c.num_noise(), 0);
        let two = vec![vec![0.0], vec![100.0]];
        let c = approx_dbscan(&two, &Euclidean, 1.0, 2, 0.5).unwrap();
        assert_eq!(c.num_clusters(), 0);
        assert_eq!(c.num_noise(), 2);
    }
}
