//! The three steps of exact metric DBSCAN (§3.1), shared by the
//! Algorithm 1 pipeline ([`crate::MetricDbscan::exact`]) and the
//! cover-tree pipeline of §3.2 ([`crate::exact_dbscan_covertree`]).
//!
//! * **Step 1** — label core points. Points in *dense* balls
//!   (`|C_e| ≥ MinPts`) are core for free because the ball has diameter
//!   `≤ 2r̄ ≤ ε` (this is where `r̄ ≤ ε/2` is needed); points in sparse
//!   balls count their `ε`-neighborhood inside `∪_{e' ∈ A_e} C_{e'}`
//!   (sound by Lemma 2), stopping at `MinPts`. Amortized `O(n·z·t_dis)`
//!   (Lemma 4).
//! * **Step 2** — merge core groups. All core points inside one ball are
//!   pairwise within `2r̄ ≤ ε`, hence one cluster fragment; fragments
//!   `C̃_e, C̃_{e'}` of neighboring balls merge iff their bichromatic
//!   closest pair is `≤ ε`. The paper decides each pair with a cover
//!   tree per fragment for its worst-case bound (Lemma 5); here each
//!   probe point of the smaller fragment scans the host fragment with
//!   one batched [`BatchMetric::dist_many_within`] call, and the test
//!   stops at the first probe with a witness. Building the trees cost
//!   more than it saved: the net-anchored bounds below already settle
//!   most pairs and skip most probes without a distance evaluation.
//! * **Step 3** — borders vs outliers. Each non-core point looks for its
//!   nearest core point inside `∪_{e' ∈ A_e} C̃_{e'}`; within `ε` → border
//!   of that core's cluster, else noise. `O(n·z·t_dis)` (Lemma 6).
//!
//! # Net-anchored pruning
//!
//! Every phase additionally exploits the distances the net already
//! knows ([`mdbscan_metric::PruningConfig`], on by default): each point
//! carries `dis(p, c_p)`, so one *anchor* evaluation `dis(q, c)` per
//! (query, neighbor-center) pair sandwiches every pair distance in that
//! center's group by the triangle inequality — most Step-1 candidates
//! are counted or discarded, Step-2 fragment pairs merged, and Step-3
//! fragments skipped **without evaluating their distances**. Decisions
//! agree exactly with the evaluated predicates, so labels are
//! bit-identical with pruning on or off; [`StepsStats::pruning`]
//! reports the ledger.
//!
//! # Threading
//!
//! The adjacency, Step 1 and Step 3 are parallel over their natural
//! unit and deterministic for any thread count
//! ([`ExactConfig::parallel`]):
//!
//! * the adjacency parallelizes over upper-triangle center rows;
//! * Step 1 over points (each point's core test is independent), with
//!   pruning counters reduced per worker chunk;
//! * Step 3 over points again.
//!
//! Step 2 is one sequential union-find pass: it tests a pair, unites on
//! success, and skips every later pair that is already connected. Its
//! work, like the run's distance evaluations and pruning ledger, is the
//! same at every thread count.

use std::sync::Arc;
use std::time::Instant;

use mdbscan_grid::{CandidateStats, GridIndex};
use mdbscan_kcenter::CenterAdjacency;
use mdbscan_metric::{BatchMetric, CountingMetric, PruneStats, PruningConfig};
use mdbscan_parallel::{par_map_ranges, split_even, worker_count, Csr, ParallelConfig};

use crate::labels::PointLabel;
use crate::netview::NetView;
use crate::params::DbscanParams;
use crate::unionfind::UnionFind;

/// Points per worker below which Step 1/3 stay sequential.
const STEP_MIN_PER_THREAD: usize = 512;

/// Toggles for the implementation refinements of the exact pipeline —
/// the ablation benches flip these to measure what each buys.
#[derive(Debug, Clone, Copy)]
pub struct ExactConfig {
    /// Step 1: label every point of a ball with `|C_e| ≥ MinPts` core
    /// without any distance computation (the paper's dense/sparse split,
    /// Lemma 4 / §3.3). Off = every point counts its neighborhood.
    pub dense_shortcut: bool,
    /// Step 2: stop a BCP test at the first witness pair `≤ ε` and skip
    /// tests between fragments already merged transitively. Off = every
    /// neighboring pair computes its full BCP — note that `pruning` must
    /// *also* be off for textbook BCP counts, since distance-free merge
    /// accepts bypass [`StepsStats::bcp_tests`] entirely.
    pub early_termination: bool,
    /// Net-anchored triangle-inequality pruning across the adjacency and
    /// Steps 1–3 (see the module docs). Labels are identical with it on
    /// or off; only the number of distance evaluations changes. On by
    /// default.
    pub pruning: PruningConfig,
    /// Worker threads for the adjacency and Steps 1 and 3 (Step 2 is one
    /// sequential union-find pass). The labels, the Step-2 counters, the
    /// distance evaluations and the pruning ledger are identical for
    /// every setting; only wall-clock changes. Defaults to the machine's
    /// available parallelism.
    pub parallel: ParallelConfig,
    /// Count distance evaluations into [`StepsStats::distance_evals`]
    /// (and the per-phase `*_evals` fields). Off by default: the counter
    /// is one shared atomic, whose contention is measurable next to
    /// cheap metrics (e.g. 2-d Euclidean) — enable it for work
    /// accounting, not for wall-clock runs.
    pub count_distance_evals: bool,
}

impl Default for ExactConfig {
    fn default() -> Self {
        Self {
            dense_shortcut: true,
            early_termination: true,
            pruning: PruningConfig::default(),
            parallel: ParallelConfig::default(),
            count_distance_evals: false,
        }
    }
}

/// Phase timings and counters of one exact run (harness fodder: Table 2
/// reports the Algorithm-1 share, the ablations report the step shares).
#[derive(Debug, Clone, Copy, Default)]
pub struct StepsStats {
    /// Centers in the net.
    pub n_centers: usize,
    /// Mean `|A_e|` over centers (paper Lemma 3 bounds this by
    /// `O((ε/r̄)^D) + z`).
    pub mean_adjacency_degree: f64,
    /// Seconds computing the center adjacency.
    pub adjacency_secs: f64,
    /// Seconds in Step 1.
    pub label_secs: f64,
    /// Seconds in Step 2: building the fragments and merging them (zero
    /// work on a cache hit that carries Step 2's answer).
    pub merge_secs: f64,
    /// Seconds in Step 3.
    pub assign_secs: f64,
    /// Number of points labeled core by the dense-ball shortcut.
    pub dense_cores: usize,
    /// Fragment pairs whose BCP was tested: the candidates the
    /// distance-free bounds left open, less those already connected when
    /// their turn came. The same for every thread count.
    pub bcp_tests: u64,
    /// Fragment pairs found connected (distance-free accepts included).
    pub bcp_connected: u64,
    /// Triangle-inequality pruning ledger across the adjacency and
    /// Steps 1–3. `bound_*` counters are in candidate *pairs*. Like
    /// `bcp_tests`, these are work counters: a cache hit skips the phases
    /// it replays and counts less, while labels stay identical.
    pub pruning: PruneStats,
    /// Distance evaluations across all phases (adjacency + Steps 1–3),
    /// in units of the paper's `t_dis`. Zero unless
    /// [`ExactConfig::count_distance_evals`] is set.
    pub distance_evals: u64,
    /// Distance evaluations spent in the adjacency build (zero when the
    /// adjacency came from the engine cache, or when not counting).
    pub adjacency_evals: u64,
    /// Distance evaluations spent in Step 1 (zero on a fragment-cache
    /// hit, or when not counting).
    pub label_evals: u64,
    /// Distance evaluations spent in Step 2 (zero on a fragment-cache
    /// hit that carries Step 2's answer, or when not counting).
    pub merge_evals: u64,
    /// Distance evaluations spent in Step 3 (when counting).
    pub assign_evals: u64,
    /// Grid candidate-generation ledger across the adjacency build and
    /// Steps 1/3 — all zeros on the generic path. Like [`Self::pruning`]
    /// these are *work* counters: labels are bit-identical with the grid
    /// on or off; only where the candidates come from changes.
    pub candidates: CandidateStats,
}

/// The `(ε, MinPts)`-dependent results of Steps 1–2 that an engine may
/// cache across queries: the core flags, the fragment partition `C̃_e`
/// (with per-fragment anchor radii), and Step 2's answer — the
/// component id of each fragment.
///
/// For a fixed net all of these are **deterministic functions of
/// `(ε, MinPts)`** — independent of thread count, of the pruning knob,
/// and of the early-termination toggle — so replaying them yields
/// bit-identical labels. A hit that carries the component map runs
/// Step 3 only.
pub(crate) struct StepArtifacts {
    pub(crate) is_core: Vec<bool>,
    pub(crate) dense_cores: usize,
    pub(crate) fragments: Csr,
    /// Per center: `max_{p ∈ C̃_e} dis(p, c_e)` (0 for empty fragments)
    /// — the anchor radius Step 2/3 pruning measures against.
    pub(crate) frag_radius: Vec<f64>,
    /// Per center: the component id its fragment ended Step 2 in (the
    /// union-find's `component_ids`). `None` only for entries loaded
    /// from artifacts written before the map was persisted; a hit on
    /// such an entry re-runs Step 2.
    pub(crate) components: Option<Vec<u32>>,
}

impl StepArtifacts {
    /// Approximate heap footprint, for cache accounting.
    pub(crate) fn heap_bytes(&self) -> usize {
        self.is_core.len()
            + self.fragments.total_len() * std::mem::size_of::<u32>()
            + self.frag_radius.len() * std::mem::size_of::<f64>()
            + self
                .components
                .as_ref()
                .map_or(0, |c| c.len() * std::mem::size_of::<u32>())
    }
}

/// An older epoch's artifacts plus the ingest delta separating it from
/// the current net — the input of the *incremental* Step-1/2
/// maintenance. Core flags are monotone under ingest (adding points
/// only grows `ε`-neighborhoods), so only points whose neighbor balls
/// gained members are re-verified, and the fragments of untouched
/// balls carry over verbatim. Step 2 itself re-runs: one new witness
/// pair can join any two components.
#[derive(Clone, Copy)]
pub(crate) struct StepsUpgrade<'a> {
    /// Artifacts computed at the same `(ε, MinPts)` over a prefix of
    /// the current (append-only) point sequence, on the same net prefix.
    pub(crate) artifacts: &'a StepArtifacts,
    /// Ball positions (in the current net) whose cover sets gained
    /// members since those artifacts were computed, ascending; new
    /// centers included.
    pub(crate) dirty_balls: &'a [u32],
}

/// Cached inputs a caller may replay into [`run_exact_steps`]: Step-1/2
/// artifacts (same net, same `(ε, MinPts)`), an older epoch's artifacts
/// to upgrade incrementally (consulted only when `artifacts` is absent),
/// and/or a center adjacency (same net, same threshold — it depends on
/// `ε` only).
#[derive(Default)]
pub(crate) struct StepsReuse<'a> {
    pub(crate) artifacts: Option<&'a StepArtifacts>,
    pub(crate) upgrade: Option<StepsUpgrade<'a>>,
    pub(crate) adjacency: Option<Arc<CenterAdjacency>>,
    /// ε-aligned grid over the current epoch's points (cell side
    /// `ε/√d`). When present, the adjacency build and Steps 1/3 draw
    /// their candidates from ring cells instead of the neighbor cover
    /// sets — bit-identical labels, far fewer distance evaluations on
    /// low-dimensional Euclidean data. `None` keeps the generic path.
    pub(crate) grid: Option<Arc<GridIndex>>,
}

/// Everything one Steps-1–3 run produces: labels, stats, and the
/// freshly computed cacheables (`None`/`Err` sides mean "was reused or
/// not cacheable").
pub(crate) struct StepsOutcome {
    pub(crate) labels: Vec<PointLabel>,
    pub(crate) stats: StepsStats,
    /// Fresh artifacts for the caller to cache — `Some` only when
    /// nothing was reused and the configuration matches the cacheable
    /// defaults.
    pub(crate) fresh_artifacts: Option<StepArtifacts>,
    /// The adjacency this run used (freshly built or the replayed one).
    pub(crate) adjacency: Arc<CenterAdjacency>,
}

/// Runs Steps 1–3 over an arbitrary covering net. Caller must guarantee
/// `net.rbar ≤ params.eps() / 2` — that inequality is what makes the dense
/// shortcut and the fragment-merge radius sound.
pub(crate) fn run_exact_steps<P: Sync, M: BatchMetric<P> + Sync>(
    points: &[P],
    metric: &M,
    net: &NetView<'_>,
    params: &DbscanParams,
    cfg: &ExactConfig,
    reuse: StepsReuse<'_>,
) -> StepsOutcome {
    if cfg.count_distance_evals {
        let counting = CountingMetric::new(metric);
        let tick = || counting.count();
        let mut out = run_steps_inner(points, &counting, net, params, cfg, reuse, &tick);
        out.stats.distance_evals = counting.count();
        out
    } else {
        run_steps_inner(points, metric, net, params, cfg, reuse, &|| 0)
    }
}

#[allow(clippy::too_many_arguments)] // internal driver, mirrors run_exact_steps
fn run_steps_inner<P: Sync, M: BatchMetric<P> + Sync>(
    points: &[P],
    metric: &M,
    net: &NetView<'_>,
    params: &DbscanParams,
    cfg: &ExactConfig,
    reuse: StepsReuse<'_>,
    tick: &(dyn Fn() -> u64 + Sync),
) -> StepsOutcome {
    debug_assert!(net.rbar <= params.eps() / 2.0 * (1.0 + 1e-9));
    let eps = params.eps();
    let min_pts = params.min_pts();
    let n = net.num_points();
    let k = net.num_centers();
    let threads = cfg.parallel.threads();
    let mut stats = StepsStats {
        n_centers: k,
        ..Default::default()
    };

    // Neighbor-ball adjacency at 2r̄ + ε (definition (1)); Lemma 2 then
    // confines every ε-ball to its neighbor cover sets. An `ε`-matching
    // cached adjacency replays for free.
    let grid: Option<&GridIndex> = reuse.grid.as_deref();
    let t = Instant::now();
    let evals_before = tick();
    let adj: Arc<CenterAdjacency> = match reuse.adjacency {
        Some(adj) => {
            debug_assert_eq!(adj.threshold, 2.0 * net.rbar + eps, "adjacency cache mixup");
            adj
        }
        None => match grid {
            Some(g) => {
                // Grid path: ring cells over the center coordinates
                // replace the all-pairs sweep; surviving pairs are
                // evaluated exactly, so the edge set (and every label
                // downstream) matches the generic build bit-for-bit.
                let dim = g.dim();
                let mut coords = Vec::with_capacity(net.centers.len() * dim);
                for &c in net.centers {
                    coords.extend_from_slice(g.point_coords(c));
                }
                let (built, cand) = CenterAdjacency::build_grid(
                    points,
                    metric,
                    net.centers,
                    2.0 * net.rbar + eps,
                    &cfg.parallel,
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
                    2.0 * net.rbar + eps,
                    &cfg.parallel,
                    &cfg.pruning,
                );
                stats.pruning.merge(&built.pruning);
                Arc::new(built)
            }
        },
    };
    stats.adjacency_evals = tick() - evals_before;
    stats.adjacency_secs = t.elapsed().as_secs_f64();
    stats.mean_adjacency_degree = adj.mean_degree();

    // ---- Step 1: core labeling, parallel over points ----
    // With cached artifacts the whole step replays from the cache (the
    // core flags are a pure function of (net, ε, MinPts)). With an
    // older epoch's artifacts (`reuse.upgrade`) the step runs
    // *incrementally*: core flags are monotone under ingest, so only
    // new points — plus old non-core points in balls whose neighborhood
    // gained members — are (re-)verified.
    let t = Instant::now();
    let evals_before = tick();
    let upgrade = if reuse.artifacts.is_none() {
        reuse.upgrade
    } else {
        None
    };
    // Under an upgrade: a ball needs re-verification iff any ball of its
    // adjacency row is dirty — by Lemma 2 an untouched neighborhood
    // means an unchanged ε-ball for every member. (A ball's own row
    // contains itself, so dirty ⊆ affected.)
    let affected: Option<Vec<bool>> = upgrade.map(|u| {
        let mut dirty = vec![false; k];
        for &e in u.dirty_balls {
            if (e as usize) < k {
                dirty[e as usize] = true;
            }
        }
        (0..k)
            .map(|e| adj.neighbors.row(e).iter().any(|&e2| dirty[e2 as usize]))
            .collect()
    });
    let is_core_local: Option<Vec<bool>> = if reuse.artifacts.is_some() {
        None
    } else {
        let dense: Vec<bool> = (0..k)
            .map(|e| cfg.dense_shortcut && net.cover_sets.row_len(e) >= min_pts)
            .collect();
        stats.dense_cores = (0..k)
            .filter(|&e| dense[e])
            .map(|e| net.cover_sets.row_len(e))
            .sum();
        let w = worker_count(threads, n, STEP_MIN_PER_THREAD);
        let chunks = par_map_ranges(split_even(n, w), |r| {
            let mut ps = PruneStats::default();
            let mut cs = CandidateStats::default();
            let mut cells: Vec<u32> = Vec::new();
            let flags: Vec<bool> = r
                .map(|p| {
                    let e = net.assignment[p] as usize;
                    if let (Some(u), Some(aff)) = (upgrade, affected.as_ref()) {
                        if p < u.artifacts.is_core.len() {
                            if u.artifacts.is_core[p] {
                                return true; // cores stay core under ingest
                            }
                            if !aff[e] {
                                return false; // neighborhood untouched
                            }
                        }
                    }
                    if dense[e] {
                        return true;
                    }
                    match grid {
                        // Grid path: whole in-range cells count for
                        // free; only boundary-cell members consult the
                        // metric. Both sides of the `≥ MinPts` predicate
                        // see the same ε-ball, so the flag is identical.
                        Some(g) => {
                            g.count_within_capped(
                                g.point_coords(p),
                                eps,
                                min_pts,
                                &mut cells,
                                &mut cs,
                                |q| metric.within(&points[p], &points[q as usize], eps),
                            ) >= min_pts
                        }
                        None => {
                            count_neighbors_capped(
                                points,
                                metric,
                                net,
                                &adj,
                                e,
                                p,
                                eps,
                                min_pts,
                                &cfg.pruning,
                                &mut ps,
                            ) >= min_pts
                        }
                    }
                })
                .collect();
            (flags, ps, cs)
        });
        let mut flags = Vec::with_capacity(n);
        for (chunk, ps, cs) in chunks {
            flags.extend(chunk);
            stats.pruning.merge(&ps);
            stats.candidates.merge(&cs);
        }
        Some(flags)
    };
    let is_core: &[bool] = match reuse.artifacts {
        Some(a) => {
            stats.dense_cores = a.dense_cores;
            &a.is_core
        }
        None => is_core_local.as_deref().expect("computed above"),
    };
    stats.label_evals = tick() - evals_before;
    stats.label_secs = t.elapsed().as_secs_f64();

    // ---- Step 2: merge core fragments ----
    // A hit that carries Step 2's answer replays it and skips the step.
    let t = Instant::now();
    let evals_before = tick();
    let cached_components: Option<&[u32]> = reuse.artifacts.and_then(|a| a.components.as_deref());
    // C̃_e: the core points of each cover set, flattened like the cover
    // sets themselves, plus each fragment's anchor radius
    // max dis(p, c_e) — free to record, and what the distance-free
    // merge accepts measure against. Under an upgrade, the rows of
    // untouched balls carry over verbatim.
    let frag_local: Option<(Csr, Vec<f64>)> = if reuse.artifacts.is_some() {
        None
    } else {
        let mut offsets = vec![0usize; k + 1];
        let mut values = Vec::new();
        let mut radius = Vec::with_capacity(k);
        let old_k = upgrade.map_or(0, |u| u.artifacts.fragments.num_rows());
        for e in 0..k {
            if let (Some(u), Some(aff)) = (upgrade, affected.as_ref()) {
                if e < old_k && !aff[e] {
                    values.extend_from_slice(u.artifacts.fragments.row(e));
                    offsets[e + 1] = values.len();
                    radius.push(u.artifacts.frag_radius[e]);
                    continue;
                }
            }
            let mut r = 0.0f64;
            for &p in net.cover_sets.row(e) {
                if is_core[p as usize] {
                    values.push(p);
                    r = r.max(net.dist_to_center[p as usize]);
                }
            }
            offsets[e + 1] = values.len();
            radius.push(r);
        }
        Some((Csr::from_parts(offsets, values), radius))
    };
    let (fragments, frag_radius): (&Csr, &[f64]) = match reuse.artifacts {
        Some(a) => (&a.fragments, &a.frag_radius),
        None => {
            let (f, r) = frag_local.as_ref().expect("computed above");
            (f, r)
        }
    };
    let components_local = cached_components.is_none().then(|| {
        merge_fragments(
            points,
            metric,
            net,
            &adj,
            fragments,
            frag_radius,
            eps,
            cfg,
            &mut stats,
        )
    });
    let cluster_of_center: &[u32] = cached_components
        .or(components_local.as_deref())
        .expect("cached or computed above");
    stats.merge_evals = tick() - evals_before;
    stats.merge_secs = t.elapsed().as_secs_f64();

    // ---- Step 3: borders and outliers, parallel over points ----
    let t = Instant::now();
    let evals_before = tick();
    let w = worker_count(threads, n, STEP_MIN_PER_THREAD);
    let chunks = par_map_ranges(split_even(n, w), |r| {
        let mut ps = PruneStats::default();
        let mut cs = CandidateStats::default();
        let mut scratch = AnchorScratch::default();
        let labels: Vec<PointLabel> = r
            .map(|pi| {
                if is_core[pi] {
                    let e = net.assignment[pi] as usize;
                    return PointLabel::Core(cluster_of_center[e]);
                }
                match grid {
                    Some(g) => assign_border_grid(
                        points,
                        metric,
                        net,
                        g,
                        is_core,
                        cluster_of_center,
                        pi,
                        eps,
                        &mut cs,
                    ),
                    None => assign_border(
                        points,
                        metric,
                        net,
                        &adj,
                        fragments,
                        frag_radius,
                        cluster_of_center,
                        pi,
                        eps,
                        &cfg.pruning,
                        &mut scratch,
                        &mut ps,
                    ),
                }
            })
            .collect();
        (labels, ps, cs)
    });
    let mut labels = Vec::with_capacity(n);
    for (chunk, ps, cs) in chunks {
        labels.extend(chunk);
        stats.pruning.merge(&ps);
        stats.candidates.merge(&cs);
    }
    stats.assign_evals = tick() - evals_before;
    stats.assign_secs = t.elapsed().as_secs_f64();

    // Hand freshly computed artifacts back for caching — only when the
    // run used the dense shortcut, which keeps `dense_cores` meaningful.
    let fresh_artifacts = (reuse.artifacts.is_none() && cfg.dense_shortcut).then(|| {
        let (fragments, frag_radius) = frag_local.expect("computed when reuse is None");
        StepArtifacts {
            is_core: is_core_local.expect("computed when reuse is None"),
            dense_cores: stats.dense_cores,
            fragments,
            frag_radius,
            components: components_local,
        }
    });

    StepsOutcome {
        labels,
        stats,
        fresh_artifacts,
        adjacency: adj,
    }
}

/// Step 2 proper: unions the fragments of neighboring balls whose BCP
/// is within `eps` and returns each center's component id.
///
/// Candidate fragment pairs come in (e, e') lexicographic order, each
/// first judged by the adjacency's center-pair bounds alone:
/// `ub + r_e + r_e' ≤ ε` merges without a BCP test (every cross pair is
/// within ε), `lb − r_e − r_e' > ε` discards the candidate entirely (no
/// cross pair can reach ε). Every free merge is united before the first
/// BCP test, so the connectivity it brings skips tests. A free merge is
/// a passing pair, so the components do not depend on when it lands.
/// The survivors are then tested in order, skipping pairs already
/// connected. Each keeps its edge's lower bound: inside the BCP test it
/// anchors each *probe point* individually (its recorded `dis(p, c_p)`
/// sharpens the whole-fragment slack), skipping probes that provably
/// cannot reach any host member.
#[allow(clippy::too_many_arguments)] // internal driver, mirrors run_steps_inner
fn merge_fragments<P, M: BatchMetric<P>>(
    points: &[P],
    metric: &M,
    net: &NetView<'_>,
    adj: &CenterAdjacency,
    fragments: &Csr,
    frag_radius: &[f64],
    eps: f64,
    cfg: &ExactConfig,
    stats: &mut StepsStats,
) -> Vec<u32> {
    let k = net.num_centers();
    let mut uf = UnionFind::new(k);
    let mut tests: Vec<(u32, u32, f64)> = Vec::new();
    for e in 0..k {
        if fragments.row_len(e) == 0 {
            continue;
        }
        let row = adj.neighbors.row(e);
        let lbs = adj.lbound_row(e);
        let ubs = adj.ubound_row(e);
        for ((&e2, &lb), &ub) in row.iter().zip(lbs).zip(ubs) {
            let e2u = e2 as usize;
            if e2u <= e || fragments.row_len(e2u) == 0 {
                continue;
            }
            if cfg.pruning.enabled {
                let slack = frag_radius[e] + frag_radius[e2u];
                if lb - slack > eps {
                    stats.pruning.bound_rejects += 1;
                    continue;
                }
                if ub + slack <= eps {
                    stats.pruning.bound_accepts += 1;
                    if uf.union(e, e2u) || !cfg.early_termination {
                        stats.bcp_connected += 1;
                    }
                    continue;
                }
            }
            tests.push((e as u32, e2, lb));
        }
    }
    let mut buf = Vec::new();
    for &(e, e2, lb) in &tests {
        let (e, e2) = (e as usize, e2 as usize);
        if cfg.early_termination && uf.connected(e, e2) {
            continue;
        }
        stats.bcp_tests += 1;
        if bcp_within(
            points,
            metric,
            net,
            fragments,
            frag_radius,
            e,
            e2,
            eps,
            lb,
            cfg,
            &mut stats.pruning.probe_rejects,
            &mut buf,
        ) {
            stats.bcp_connected += 1;
            uf.union(e, e2);
        }
    }
    uf.component_ids()
}

/// Reusable per-worker buffers for the anchored scans: the neighbor
/// centers selected for anchoring, their batched distances, and the
/// own-center substitution slots.
#[derive(Default)]
pub(crate) struct AnchorScratch {
    ids: Vec<u32>,
    evals: Vec<f64>,
    own_slots: Vec<bool>,
    pub(crate) anchors: Vec<f64>,
}

impl AnchorScratch {
    /// One batched [`BatchMetric::dist_many`] call evaluating
    /// `dis(p, c_{e'})` for every neighbor center in `row` whose group
    /// (as reported by `group_len`) passes the anchoring gate. The
    /// caller walks `row` again with the same gate, consuming
    /// `self.anchors` in order.
    ///
    /// The point's **own** center is short-circuited: the net already
    /// stores `dis(p, c_p)` exactly, so when `p`'s center shows up in
    /// the row its slot is filled from the record instead of spending
    /// an evaluation on a distance we hold.
    #[allow(clippy::too_many_arguments)] // per-worker hot-loop helper
    pub(crate) fn anchor_rows<P, M: BatchMetric<P>>(
        &mut self,
        points: &[P],
        metric: &M,
        net: &NetView<'_>,
        row: &[u32],
        group_len: impl Fn(usize) -> usize,
        p: usize,
        pruning: &PruningConfig,
        ps: &mut PruneStats,
    ) {
        self.ids.clear();
        self.own_slots.clear();
        self.anchors.clear();
        if !pruning.enabled {
            return;
        }
        let own = net.assignment[p];
        for &e2 in row {
            if group_len(e2 as usize) >= pruning.min_anchor_group {
                self.own_slots.push(e2 == own);
                if e2 != own {
                    self.ids.push(net.centers[e2 as usize] as u32);
                }
            }
        }
        if !self.ids.is_empty() {
            metric.dist_many(points, &points[p], &self.ids, &mut self.evals);
            ps.anchor_evals += self.ids.len() as u64;
        } else {
            self.evals.clear();
        }
        let mut cursor = 0usize;
        for &is_own in &self.own_slots {
            if is_own {
                self.anchors.push(net.dist_to_center[p]);
            } else {
                self.anchors.push(self.evals[cursor]);
                cursor += 1;
            }
        }
    }
}

/// `|B(p, ε) ∩ X|`, counted over the neighbor cover sets of `p`'s center
/// `e` and capped at `cap` (early termination — only the `≥ MinPts`
/// predicate is needed).
///
/// With pruning, one anchor evaluation `dis(p, c_{e'})` per
/// sufficiently large neighbor ball sandwiches each member's distance:
/// `dis(p, q) ∈ [|a − dis(q, c)|, a + dis(q, c)]`, so most members are
/// counted (upper bound within `ε`) or discarded (lower bound beyond
/// `ε`) without an evaluation. Anchors are paid **lazily, per ball** —
/// a scan that reaches `cap` in its first ball never anchors the rest —
/// and the point's own ball reuses the net's stored `dis(p, c_p)` for
/// free. The returned count may exceed `cap` by a group-accept, but the
/// `≥ cap` predicate — the only thing callers read — is exact.
#[allow(clippy::too_many_arguments)] // mirrors the paper's Step 1 signature
pub(crate) fn count_neighbors_capped<P, M: BatchMetric<P>>(
    points: &[P],
    metric: &M,
    net: &NetView<'_>,
    adj: &CenterAdjacency,
    e: usize,
    p: usize,
    eps: f64,
    cap: usize,
    pruning: &PruningConfig,
    ps: &mut PruneStats,
) -> usize {
    let row = adj.neighbors.row(e);
    let mut count = 0usize;
    for &e2 in row {
        let e2 = e2 as usize;
        let cover = net.cover_sets.row(e2);
        if pruning.enabled && cover.len() >= pruning.min_anchor_group {
            // The own ball's anchor is already on record.
            let a = if e2 == e {
                net.dist_to_center[p]
            } else {
                ps.anchor_evals += 1;
                metric.distance(&points[p], &points[net.centers[e2]])
            };
            for &q in cover {
                let dq = net.dist_to_center[q as usize];
                if a + dq <= eps {
                    ps.bound_accepts += 1;
                    count += 1;
                } else if (a - dq).abs() > eps {
                    ps.bound_rejects += 1;
                } else if metric.within(&points[p], &points[q as usize], eps) {
                    count += 1;
                }
                if count >= cap {
                    return count;
                }
            }
        } else {
            for &q in cover {
                if metric.within(&points[p], &points[q as usize], eps) {
                    count += 1;
                    if count >= cap {
                        return count;
                    }
                }
            }
        }
    }
    count
}

/// Step 3 for one non-core point: nearest core point among neighbor
/// fragments; ties break toward the earlier center (ascending adjacency
/// rows + strict `<`). Anchored fragments whose triangle lower bound
/// exceeds the current best are skipped without touching them.
#[allow(clippy::too_many_arguments)] // mirrors the paper's Step 3 signature
fn assign_border<P, M: BatchMetric<P>>(
    points: &[P],
    metric: &M,
    net: &NetView<'_>,
    adj: &CenterAdjacency,
    fragments: &Csr,
    frag_radius: &[f64],
    cluster_of_center: &[u32],
    pi: usize,
    eps: f64,
    pruning: &PruningConfig,
    scratch: &mut AnchorScratch,
    ps: &mut PruneStats,
) -> PointLabel {
    let row = adj.neighbors.row(net.assignment[pi] as usize);
    scratch.anchor_rows(
        points,
        metric,
        net,
        row,
        |e2| fragments.row_len(e2),
        pi,
        pruning,
        ps,
    );
    let mut cursor = 0usize;
    let mut best: Option<(f64, usize)> = None;
    for &e2 in row {
        let e2 = e2 as usize;
        let frag = fragments.row(e2);
        let anchor = if pruning.enabled && frag.len() >= pruning.min_anchor_group {
            let a = scratch.anchors[cursor];
            cursor += 1;
            Some(a)
        } else {
            None
        };
        if frag.is_empty() {
            continue;
        }
        let bound = best.map_or(eps, |(d, _)| d);
        if let Some(a) = anchor {
            // No fragment member can beat the current best: the anchor
            // minus the fragment's radius already exceeds it.
            if a - frag_radius[e2] > bound {
                ps.bound_rejects += frag.len() as u64;
                continue;
            }
        }
        for &q in frag {
            if let Some(a) = anchor {
                if (a - net.dist_to_center[q as usize]).abs() > bound {
                    ps.bound_rejects += 1;
                    continue;
                }
            }
            if let Some(d) = metric.distance_leq(&points[pi], &points[q as usize], bound) {
                if best.is_none_or(|(bd, _)| d < bd) {
                    best = Some((d, e2));
                }
            }
        }
    }
    match best {
        Some((_, e2)) => PointLabel::Border(cluster_of_center[e2]),
        None => PointLabel::Noise,
    }
}

/// Step 3 from the grid: nearest core point among the ring-cell
/// candidates, minimizing `(distance, center position)`
/// lexicographically — exactly the optimum the generic scan's
/// ascending adjacency rows plus strict `<` converge to, so the label
/// matches [`assign_border`] bit-for-bit (the label depends only on
/// the winning center's cluster, and every distance comes from the
/// same metric arithmetic). Cells whose lower bound exceeds the
/// current best cannot beat *or tie* it (`lb ≤ d` holds in f64 for
/// every member), so skipping them never changes the winner.
#[allow(clippy::too_many_arguments)] // mirrors assign_border
fn assign_border_grid<P, M: BatchMetric<P>>(
    points: &[P],
    metric: &M,
    net: &NetView<'_>,
    grid: &GridIndex,
    is_core: &[bool],
    cluster_of_center: &[u32],
    pi: usize,
    eps: f64,
    cs: &mut CandidateStats,
) -> PointLabel {
    let mut best: Option<(f64, usize)> = None;
    let mut walk = CandidateStats::default();
    let (mut emitted, mut rejected) = (0u64, 0u64);
    grid.for_each_candidate_cell(
        grid.point_coords(pi),
        eps,
        &mut walk,
        |members, cell_lb, _| {
            if best.is_some_and(|(d, _)| cell_lb > d) {
                rejected += members.len() as u64;
                return;
            }
            for &q in members {
                let q = q as usize;
                if !is_core[q] {
                    continue;
                }
                emitted += 1;
                let bound = best.map_or(eps, |(d, _)| d);
                if let Some(d) = metric.distance_leq(&points[pi], &points[q], bound) {
                    let e2 = net.assignment[q] as usize;
                    if best.is_none_or(|(bd, be)| d < bd || (d == bd && e2 < be)) {
                        best = Some((d, e2));
                    }
                }
            }
        },
    );
    cs.merge(&walk);
    cs.candidates_emitted += emitted;
    cs.candidates_rejected += rejected;
    match best {
        Some((_, e2)) => PointLabel::Border(cluster_of_center[e2]),
        None => PointLabel::Noise,
    }
}

/// Is `BCP(C̃_e, C̃_{e'}) ≤ eps`? Each probe point of the smaller
/// fragment scans the larger (host) fragment with one batched
/// [`BatchMetric::dist_many_within`] call; early termination returns at
/// the first probe with a witness. Probes skipped by the anchor below
/// are counted into `probe_rejects`; `buf` is the caller's scratch.
///
/// Each probe point `q` is anchored against the **host center** before
/// its scan: with `lb` a sound lower bound on `dis(c_probe, c_host)`
/// (recorded by the adjacency), the triangle inequality gives
/// `dis(q, m) ≥ lb − dis(q, c_q) − r_host` for every host member `m` —
/// and both `dis(q, c_q)` (the net's stored anchor) and `r_host` (the
/// fragment radius) are already on record, so the whole probe is
/// skipped without a single evaluation when that bound exceeds `eps`.
/// Skipped probes provably contribute no witness pair, so the BCP
/// verdict — and the labels — are unchanged.
#[allow(clippy::too_many_arguments)] // mirrors the paper's Step 2 signature
fn bcp_within<P, M: BatchMetric<P>>(
    points: &[P],
    metric: &M,
    net: &NetView<'_>,
    fragments: &Csr,
    frag_radius: &[f64],
    e: usize,
    e2: usize,
    eps: f64,
    lb: f64,
    cfg: &ExactConfig,
    probe_rejects: &mut u64,
    buf: &mut Vec<f64>,
) -> bool {
    // Probe from the smaller side.
    let (host, probe) = if fragments.row_len(e) >= fragments.row_len(e2) {
        (e, e2)
    } else {
        (e2, e)
    };
    let host_row = fragments.row(host);
    let host_radius = frag_radius[host];
    let mut connected = false;
    for &q in fragments.row(probe) {
        if cfg.pruning.enabled && lb - net.dist_to_center[q as usize] - host_radius > eps {
            *probe_rejects += 1;
            continue;
        }
        metric.dist_many_within(points, &points[q as usize], host_row, eps, buf);
        if buf.iter().any(|&d| d <= eps) {
            connected = true;
            if cfg.early_termination {
                break;
            }
        }
    }
    connected
}
