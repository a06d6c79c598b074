//! Algorithm 3: streaming ρ-approximate DBSCAN in three passes.
//!
//! Memory: `O(|E| + |M|) = O((Δ/ρε)^D) + z` stored points — independent of
//! the stream length `n` (Theorem 4).
//!
//! * **Pass 1** — first-fit netting: a point farther than `r̄ = ρε/2` from
//!   every existing center becomes a center (so `E` is an `r̄`-packing and
//!   covers the stream); every center counts how many stream points land
//!   in its `ε`-ball — once the count reaches `MinPts` the center is a
//!   certified core point. Points within `r̄` of a not-yet-core center are
//!   parked in `M` (potential cores whose certification needs a second
//!   look). Each non-core center parks fewer than `MinPts` points, so
//!   `|M| < MinPts · |E|`.
//! * **Pass 2** — recount `|B(m, ε)|` for every `m ∈ M` over the full
//!   stream (pass 1 undercounts points that arrived *before* `m`); the
//!   certified cores join the summary `S*`. Then merge inside `S*` offline
//!   at threshold `(1+ρ)ε` (it fits in memory).
//! * **Pass 3** — label each stream point: its first-fit center, if core,
//!   hands it that cluster; otherwise the nearest summary point within
//!   `(ρ/2+1)ε` does; otherwise it is noise.
//!
//! The output satisfies the same ρ-approximate guarantees as Algorithm 2
//! (same summary argument; the net is built by first-fit instead of
//! farthest-point, which changes `E` but none of the packing/covering
//! properties the proof of Theorem 2 uses).
//!
//! # First-center anchoring
//!
//! Streaming has no Algorithm-1 net, but the same triangle-inequality
//! pruning applies with the **first center as the anchor**: every
//! stored point (center or parked candidate) records its distance to
//! `E[0]` at creation time, and each arriving stream point pays one
//! anchor evaluation `d₀ = dis(p, E[0])` (which simultaneously *is* its
//! distance test against `E[0]`). Then `|d₀ − dis(x, E[0])|` /
//! `d₀ + dis(x, E[0])` decide most `r̄`- and `ε`-threshold tests against
//! stored points without evaluating them — in all three passes and in
//! the offline merge. Labels are bit-identical with pruning on or off
//! ([`mdbscan_metric::PruningConfig`]); [`StreamingStats::pruning`]
//! carries the ledger.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use mdbscan_metric::{Metric, PruneStats, PruningConfig};
use mdbscan_parallel::{par_map_range, ParallelConfig};
use mdbscan_rp::{RpIndex, RpStats};

use crate::error::DbscanError;
use crate::labels::{Clustering, PointLabel};
use crate::params::ApproxParams;
use crate::unionfind::UnionFind;

/// Pass-3 labeling buffers this many stream points per parallel block.
const PASS3_BLOCK: usize = 4096;

/// Memory accounting of the streaming state, in *stored points* — the
/// quantity Figure 6 of the paper plots as `(|E| + |M|)/n`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamingFootprint {
    /// Number of net centers `|E|`.
    pub centers: usize,
    /// Number of parked candidates `|M|` (after pass-1 pruning).
    pub parked: usize,
    /// Summary size `|S*|` (subset of the above — no extra storage).
    pub summary: usize,
}

impl StreamingFootprint {
    /// Total stored points (`|E| + |M|`; `S* ⊆ E ∪ M` costs nothing).
    pub fn stored_points(&self) -> usize {
        self.centers + self.parked
    }
}

/// Counters for one full streaming run.
#[derive(Debug, Clone, Copy, Default)]
pub struct StreamingStats {
    /// Stream length observed in pass 1.
    pub n: usize,
    /// Pass-1 `M` insertions before pruning.
    pub parked_raw: usize,
    /// Summary pairs tested during the offline merge.
    pub merge_pairs_tested: u64,
    /// Seconds in pass 1 (net maintenance, `finish_pass1` included).
    /// Only populated by the [`StreamingApproxDbscan::run_indexed`]
    /// driver family; a manually driven session leaves it 0.
    pub pass1_secs: f64,
    /// Seconds in pass 2 (core validation). Driver-populated, like
    /// [`StreamingStats::pass1_secs`].
    pub pass2_secs: f64,
    /// Seconds in the offline merge (`finish_pass2`). Driver-populated.
    pub merge_secs: f64,
    /// Seconds in pass 3 (labeling). Driver-populated.
    pub pass3_secs: f64,
    /// First-center-anchored pruning ledger across all passes and the
    /// offline merge (work counters; labels are identical regardless).
    pub pruning: PruneStats,
    /// Random-projection candidate ledger, when the run carried an RP
    /// index ([`StreamingApproxDbscan::with_index`]): all zeros
    /// otherwise. Unlike pruning, RP filtering *can* change labels —
    /// deterministically for a fixed seed — by undercounting ε-balls.
    pub rp: RpStats,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Pass1,
    Pass2,
    Pass3,
}

struct Center<P> {
    point: P,
    /// Arrival index of the stream point this center was created from
    /// (ascending across the center list — centers are created in
    /// arrival order), for RP candidate matching.
    stream_id: u32,
    /// Distance to the first center, recorded at creation (anchor).
    d_to_first: f64,
    /// Stream points seen within ε (self included).
    eps_count: usize,
    core: bool,
    /// Position of this center's summary entry, if core.
    summary_pos: u32,
}

struct Parked<P> {
    point: P,
    /// Center (by position) the point was parked under.
    center: u32,
    /// Arrival index of the parked stream point (ascending across the
    /// parked list), for RP candidate matching.
    stream_id: u32,
    /// Distance to the first center, recorded at parking time (anchor).
    d_to_first: f64,
    /// Pass-2 recount of `|B(m, ε)|`.
    eps_count: usize,
    core: bool,
    summary_pos: u32,
}

/// The streaming ρ-approximate DBSCAN engine (paper Algorithm 3).
///
/// Drive it manually — `pass1_observe* → finish_pass1 → pass2_observe* →
/// finish_pass2 → pass3_label*` — or hand a replayable stream to
/// [`StreamingApproxDbscan::run`]. The manual API is what a real
/// deployment over an external data source uses; phases are checked and
/// misuse panics.
///
/// ```
/// use mdbscan_core::{ApproxParams, StreamingApproxDbscan};
/// use mdbscan_metric::Euclidean;
///
/// let stream: Vec<Vec<f64>> = (0..100).map(|i| vec![(i % 10) as f64 * 0.1]).collect();
/// let params = ApproxParams::new(0.5, 5, 0.5).unwrap();
/// let (clustering, engine) =
///     StreamingApproxDbscan::run(&Euclidean, &params, || stream.iter().cloned()).unwrap();
/// assert_eq!(clustering.num_clusters(), 1);
/// assert!(engine.footprint().stored_points() < 100);
/// ```
pub struct StreamingApproxDbscan<'m, P, M> {
    metric: &'m M,
    params: ApproxParams,
    parallel: ParallelConfig,
    pruning: PruningConfig,
    rbar: f64,
    phase: Phase,
    centers: Vec<Center<P>>,
    parked: Vec<Parked<P>>,
    /// Cluster id per summary position, filled by `finish_pass2`.
    summary_clusters: Vec<u32>,
    /// Parked candidates not yet certified in pass 2 — when this hits
    /// zero, pass-2 observations stop paying for anchors (or any work).
    pass2_pending: usize,
    /// Pass-2 arrival counter: the replayed stream's positions, so RP
    /// candidate lookups address the same ids as pass 1.
    pass2_seen: usize,
    /// Optional random-projection candidate index over the *stream in
    /// arrival order* (see [`StreamingApproxDbscan::with_index`]).
    index: Option<Arc<RpIndex>>,
    /// Scratch candidate buffer for the sequential passes.
    rp_buf: Vec<u32>,
    stats: StreamingStats,
    // Pruning counters as relaxed atomics: pass 3 labels through `&self`
    // from many threads at once.
    p_accepts: AtomicU64,
    p_rejects: AtomicU64,
    p_anchors: AtomicU64,
    // RP candidate-generation ledger, same atomic shape (pass 3 is
    // concurrent).
    rp_projections: AtomicU64,
    rp_emitted: AtomicU64,
    rp_rejected: AtomicU64,
}

/// One stored point's threshold test `dis(x, p) ≤ bound`, decided by the
/// first-center anchor when possible. Returns the decision and whether
/// it was free.
#[inline]
#[allow(clippy::too_many_arguments)] // per-pair hot-path helper
fn anchored_within<P, M: Metric<P>>(
    metric: &M,
    stored: &P,
    stored_anchor: f64,
    p: &P,
    d0: f64,
    bound: f64,
    accepts: &AtomicU64,
    rejects: &AtomicU64,
) -> bool {
    if (d0 - stored_anchor).abs() > bound {
        rejects.fetch_add(1, Ordering::Relaxed);
        return false;
    }
    if d0 + stored_anchor <= bound {
        accepts.fetch_add(1, Ordering::Relaxed);
        return true;
    }
    metric.within(stored, p, bound)
}

impl<'m, P: Clone + Sync, M: Metric<P> + Sync> StreamingApproxDbscan<'m, P, M> {
    /// Creates an empty engine in pass-1 state.
    pub fn new(metric: &'m M, params: &ApproxParams) -> Self {
        Self {
            metric,
            params: *params,
            parallel: ParallelConfig::default(),
            pruning: PruningConfig::default(),
            rbar: params.rbar(),
            phase: Phase::Pass1,
            centers: Vec::new(),
            parked: Vec::new(),
            summary_clusters: Vec::new(),
            pass2_pending: 0,
            pass2_seen: 0,
            index: None,
            rp_buf: Vec::new(),
            stats: StreamingStats::default(),
            p_accepts: AtomicU64::new(0),
            p_rejects: AtomicU64::new(0),
            p_anchors: AtomicU64::new(0),
            rp_projections: AtomicU64::new(0),
            rp_emitted: AtomicU64::new(0),
            rp_rejected: AtomicU64::new(0),
        }
    }

    /// Sets the thread knob for the offline summary merge and the
    /// batched pass-3 labeling. Passes 1 and 2 are inherently
    /// sequential (first-fit netting depends on arrival order); the
    /// result is identical for every thread count.
    pub fn with_parallel(mut self, parallel: ParallelConfig) -> Self {
        self.parallel = parallel;
        self
    }

    /// Sets the first-center-anchored pruning policy (default: on).
    /// Labels are identical either way; only the evaluation counts in
    /// [`StreamingStats::pruning`] change.
    ///
    /// Must be called **before the first observation**: points stored
    /// while pruning is off record no anchor distance, so flipping it on
    /// mid-stream would prune against garbage anchors. Panics otherwise.
    pub fn with_pruning(mut self, pruning: PruningConfig) -> Self {
        assert!(
            self.stats.n == 0,
            "with_pruning must be called before the first observation"
        );
        self.pruning = pruning;
        self
    }

    /// Attaches a random-projection candidate index whose point ids are
    /// **stream arrival positions** (id `i` = the `i`-th observed
    /// point). The ε-counting of passes 1 and 2 and the pass-3
    /// nearest-summary scan then only examine stored points in the
    /// arriving point's candidate set; the first-fit owner scan stays
    /// exact, so net construction (and the memory bound) is unchanged.
    ///
    /// A candidate miss *undercounts* an ε-ball — fewer certified cores
    /// and labeled borders, never extra ones — so filtered runs stay
    /// deterministic for a fixed seed (a quality trade-off, not a
    /// nondeterminism source). Pass-3 positional lookups require
    /// [`StreamingApproxDbscan::pass3_label_at`]; the positionless
    /// [`StreamingApproxDbscan::pass3_label`] always scans the full
    /// summary.
    ///
    /// Must be called **before the first observation** (the sequential
    /// passes number arrivals from the start); panics otherwise.
    pub fn with_index(mut self, index: Option<Arc<RpIndex>>) -> Self {
        assert!(
            self.stats.n == 0,
            "with_index must be called before the first observation"
        );
        self.index = index;
        self
    }

    /// RP-filtered candidate lookup for stream position `sid`: fills
    /// `out` (sorted, deduped, `sid` included) and returns `true`, or
    /// returns `false` to scan everything (no index attached, or the
    /// stream ran past the index's coverage).
    fn rp_candidates(&self, sid: usize, out: &mut Vec<u32>) -> bool {
        let Some(rp) = self.index.as_deref() else {
            return false;
        };
        if sid >= rp.len() {
            return false;
        }
        let mut stats = RpStats::default();
        rp.candidates_for(sid as u32, out, &mut stats);
        self.rp_projections
            .fetch_add(stats.projections, Ordering::Relaxed);
        self.rp_emitted
            .fetch_add(stats.candidates_emitted, Ordering::Relaxed);
        self.rp_rejected
            .fetch_add(stats.candidates_rejected, Ordering::Relaxed);
        true
    }

    /// The anchor distance `dis(p, E[0])` for an incoming point, or
    /// `None` when pruning is off / no center exists yet. One metric
    /// call, counted as an anchor evaluation.
    #[inline]
    fn anchor_of(&self, p: &P) -> Option<f64> {
        if !self.pruning.enabled || self.centers.is_empty() {
            return None;
        }
        self.p_anchors.fetch_add(1, Ordering::Relaxed);
        Some(self.metric.distance(&self.centers[0].point, p))
    }

    /// Pass 1: observe one stream point (clones it only if it becomes a
    /// center or parks in `M`).
    pub fn pass1_observe(&mut self, p: &P) {
        assert_eq!(self.phase, Phase::Pass1, "pass1_observe outside pass 1");
        let sid = self.stats.n;
        self.stats.n += 1;
        let eps = self.params.eps();
        let min_pts = self.params.min_pts();
        let d0 = self.anchor_of(p);
        // First-fit netting (paper lines 3–5).
        let mut owner: Option<u32> = None;
        for (i, c) in self.centers.iter().enumerate() {
            let within = match d0 {
                // The anchor distance *is* the test against center 0.
                Some(d0) if i == 0 => d0 <= self.rbar,
                Some(d0) => anchored_within(
                    self.metric,
                    &c.point,
                    c.d_to_first,
                    p,
                    d0,
                    self.rbar,
                    &self.p_accepts,
                    &self.p_rejects,
                ),
                None => self.metric.within(&c.point, p, self.rbar),
            };
            if within {
                owner = Some(i as u32);
                break;
            }
        }
        if owner.is_none() {
            self.centers.push(Center {
                point: p.clone(),
                stream_id: sid as u32,
                d_to_first: d0.unwrap_or(0.0),
                eps_count: 0,
                core: false,
                summary_pos: u32::MAX,
            });
            owner = Some((self.centers.len() - 1) as u32);
        }
        let owner = owner.expect("owner set above");
        // ε-ball counting for every center (lines 6–12), restricted to
        // the arriving point's RP candidates when an index is attached
        // (both lists ascend in stream id — a merge join).
        let mut buf = std::mem::take(&mut self.rp_buf);
        let filtered = self.rp_candidates(sid, &mut buf);
        let mut k = 0usize;
        for (i, c) in self.centers.iter_mut().enumerate() {
            if filtered {
                while k < buf.len() && buf[k] < c.stream_id {
                    k += 1;
                }
                if k >= buf.len() {
                    break;
                }
                if buf[k] != c.stream_id {
                    continue;
                }
            }
            let within = match d0 {
                Some(d0) if i == 0 => d0 <= eps,
                Some(d0) => anchored_within(
                    self.metric,
                    &c.point,
                    c.d_to_first,
                    p,
                    d0,
                    eps,
                    &self.p_accepts,
                    &self.p_rejects,
                ),
                None => self.metric.within(&c.point, p, eps),
            };
            if within {
                c.eps_count += 1;
                if c.eps_count >= min_pts {
                    c.core = true;
                }
            }
        }
        self.rp_buf = buf;
        // Park p under its owner if that owner is not (yet) core. Centers
        // park themselves too — their own pass-1 count misses earlier
        // arrivals, so certification is finished in pass 2.
        if !self.centers[owner as usize].core {
            self.parked.push(Parked {
                point: p.clone(),
                center: owner,
                stream_id: sid as u32,
                d_to_first: d0.unwrap_or(0.0),
                eps_count: 0,
                core: false,
                summary_pos: u32::MAX,
            });
            self.stats.parked_raw += 1;
        }
    }

    /// Ends pass 1: prunes `M` entries whose center got certified core
    /// (their ball is represented by the center itself, exactly as in
    /// Algorithm 2's summary rule).
    pub fn finish_pass1(&mut self) {
        assert_eq!(self.phase, Phase::Pass1, "finish_pass1 outside pass 1");
        let centers = &self.centers;
        self.parked.retain(|m| !centers[m.center as usize].core);
        // A center parked under itself before *another* center... cannot
        // happen (first-fit: a center's owner is itself); but a parked
        // duplicate of a center point is fine — it just recounts.
        self.pass2_pending = self.parked.len();
        self.phase = Phase::Pass2;
    }

    /// Pass 2: observe one stream point, updating the `ε`-counts of parked
    /// candidates.
    pub fn pass2_observe(&mut self, p: &P) {
        assert_eq!(self.phase, Phase::Pass2, "pass2_observe outside pass 2");
        let sid = self.pass2_seen;
        self.pass2_seen += 1;
        let eps = self.params.eps();
        let min_pts = self.params.min_pts();
        // Once every parked candidate is certified, the pass is a no-op
        // per point — in particular no anchor evaluation is paid.
        if self.pass2_pending == 0 {
            return;
        }
        let d0 = self.anchor_of(p);
        // Same RP restriction as pass 1: only parked candidates in the
        // replayed point's candidate set recount it (merge join — the
        // parked list ascends in stream id, `retain` kept the order).
        let mut buf = std::mem::take(&mut self.rp_buf);
        let filtered = self.rp_candidates(sid, &mut buf);
        let mut k = 0usize;
        let mut pending = self.pass2_pending;
        for m in self.parked.iter_mut() {
            if m.eps_count >= min_pts {
                continue;
            }
            if filtered {
                while k < buf.len() && buf[k] < m.stream_id {
                    k += 1;
                }
                if k >= buf.len() {
                    break;
                }
                if buf[k] != m.stream_id {
                    continue;
                }
            }
            let within = match d0 {
                Some(d0) => anchored_within(
                    self.metric,
                    &m.point,
                    m.d_to_first,
                    p,
                    d0,
                    eps,
                    &self.p_accepts,
                    &self.p_rejects,
                ),
                None => self.metric.within(&m.point, p, eps),
            };
            if within {
                m.eps_count += 1;
                if m.eps_count >= min_pts {
                    m.core = true;
                    pending -= 1;
                }
            }
        }
        self.pass2_pending = pending;
        self.rp_buf = buf;
    }

    /// Ends pass 2: assembles the summary `S*` (core centers + certified
    /// parked cores) and merges inside it at `(1+ρ)ε`, offline in memory.
    /// Summary pairs whose first-center anchors already decide the merge
    /// threshold are unioned (or skipped) without a distance test.
    pub fn finish_pass2(&mut self) {
        assert_eq!(self.phase, Phase::Pass2, "finish_pass2 outside pass 2");
        // Collect summary points: (clone of point, slot)
        enum Slot {
            Center(usize),
            Parked(usize),
        }
        let mut slots: Vec<Slot> = Vec::new();
        for (i, c) in self.centers.iter().enumerate() {
            if c.core {
                slots.push(Slot::Center(i));
            }
        }
        for (i, m) in self.parked.iter().enumerate() {
            if m.core {
                slots.push(Slot::Parked(i));
            }
        }
        for (pos, slot) in slots.iter().enumerate() {
            match slot {
                Slot::Center(i) => self.centers[*i].summary_pos = pos as u32,
                Slot::Parked(i) => self.parked[*i].summary_pos = pos as u32,
            }
        }
        let summary_points: Vec<P> = slots
            .iter()
            .map(|s| match s {
                Slot::Center(i) => self.centers[*i].point.clone(),
                Slot::Parked(i) => self.parked[*i].point.clone(),
            })
            .collect();
        let anchors: Vec<f64> = slots
            .iter()
            .map(|s| match s {
                Slot::Center(i) => self.centers[*i].d_to_first,
                Slot::Parked(i) => self.parked[*i].d_to_first,
            })
            .collect();
        let merge_r = self.params.merge_radius();
        let s = summary_points.len();
        let pruning_on = self.pruning.enabled;
        let mut uf = UnionFind::new(s);
        // The anchors alone decide most pairs. The first summary slot is
        // E[0] itself only if E[0] is core; the bounds are sound either
        // way (plain triangle inequality through E[0]).
        for i in 0..s {
            for j in (i + 1)..s {
                if uf.connected(i, j) {
                    continue;
                }
                let merge = if pruning_on && (anchors[i] - anchors[j]).abs() > merge_r {
                    *self.p_rejects.get_mut() += 1;
                    false
                } else if pruning_on && anchors[i] + anchors[j] <= merge_r {
                    *self.p_accepts.get_mut() += 1;
                    true
                } else {
                    self.stats.merge_pairs_tested += 1;
                    self.metric
                        .within(&summary_points[i], &summary_points[j], merge_r)
                };
                if merge {
                    uf.union(i, j);
                }
            }
        }
        self.summary_clusters = uf.component_ids();
        self.phase = Phase::Pass3;
    }

    /// Pass 3: label one stream point. Replays the pass-1 first-fit rule
    /// (centers are scanned in creation order, so the owner found here is
    /// the owner from pass 1). Always scans the full summary — with an
    /// RP index attached, use [`StreamingApproxDbscan::pass3_label_at`]
    /// so the candidate lookup can address the point by its stream
    /// position.
    pub fn pass3_label(&self, p: &P) -> PointLabel {
        self.pass3_label_impl(None, p)
    }

    /// Pass 3 with the point's stream position: like
    /// [`StreamingApproxDbscan::pass3_label`], but when an RP index is
    /// attached the nearest-summary scan is restricted to position
    /// `sid`'s candidate set (the first-fit owner replay stays exact).
    /// Without an index the two entry points are identical.
    pub fn pass3_label_at(&self, sid: usize, p: &P) -> PointLabel {
        let mut cands = Vec::new();
        if self.rp_candidates(sid, &mut cands) {
            self.pass3_label_impl(Some(&cands), p)
        } else {
            self.pass3_label_impl(None, p)
        }
    }

    fn pass3_label_impl(&self, cands: Option<&[u32]>, p: &P) -> PointLabel {
        assert_eq!(self.phase, Phase::Pass3, "pass3_label before finish_pass2");
        let label_r = self.params.label_radius();
        let d0 = self.anchor_of(p);
        // First-fit owner.
        for (i, c) in self.centers.iter().enumerate() {
            let within = match d0 {
                Some(d0) if i == 0 => d0 <= self.rbar,
                Some(d0) => anchored_within(
                    self.metric,
                    &c.point,
                    c.d_to_first,
                    p,
                    d0,
                    self.rbar,
                    &self.p_accepts,
                    &self.p_rejects,
                ),
                None => self.metric.within(&c.point, p, self.rbar),
            };
            if within {
                if c.core {
                    return PointLabel::Border(self.summary_clusters[c.summary_pos as usize]);
                }
                break;
            }
        }
        // Nearest summary member within (ρ/2+1)ε. The anchored lower
        // bound skips members that provably cannot beat the current
        // best (`dis ≥ |d₀ − anchor| > bound` ⇒ the bounded evaluation
        // would reject them anyway).
        let mut best: Option<(f64, u32)> = None;
        let consider = |point: &P, anchor: f64, pos: u32, best: &mut Option<(f64, u32)>| {
            let bound = best.map_or(label_r, |(d, _)| d);
            if let Some(d0) = d0 {
                if (d0 - anchor).abs() > bound {
                    self.p_rejects.fetch_add(1, Ordering::Relaxed);
                    return;
                }
            }
            if let Some(d) = self.metric.distance_leq(point, p, bound) {
                if d == 0.0 {
                    // The point *is* a summary member: certified core.
                    *best = Some((-1.0, pos));
                } else if best.is_none_or(|(bd, _)| d < bd) {
                    *best = Some((d, pos));
                }
            }
        };
        match cands {
            // RP-filtered scan: the same slot order over the candidate
            // subset (merge joins — both lists ascend in stream id), so
            // the min/tie-break semantics are unchanged on the pairs
            // examined.
            Some(cands) => {
                let mut k = 0usize;
                for c in &self.centers {
                    if !c.core {
                        continue;
                    }
                    while k < cands.len() && cands[k] < c.stream_id {
                        k += 1;
                    }
                    if k >= cands.len() {
                        break;
                    }
                    if cands[k] == c.stream_id {
                        consider(&c.point, c.d_to_first, c.summary_pos, &mut best);
                    }
                }
                let mut k = 0usize;
                for m in &self.parked {
                    if !m.core {
                        continue;
                    }
                    while k < cands.len() && cands[k] < m.stream_id {
                        k += 1;
                    }
                    if k >= cands.len() {
                        break;
                    }
                    if cands[k] == m.stream_id {
                        consider(&m.point, m.d_to_first, m.summary_pos, &mut best);
                    }
                }
            }
            None => {
                for c in &self.centers {
                    if c.core {
                        consider(&c.point, c.d_to_first, c.summary_pos, &mut best);
                    }
                }
                for m in &self.parked {
                    if m.core {
                        consider(&m.point, m.d_to_first, m.summary_pos, &mut best);
                    }
                }
            }
        }
        match best {
            Some((d, pos)) if d < 0.0 => PointLabel::Core(self.summary_clusters[pos as usize]),
            Some((_, pos)) => PointLabel::Border(self.summary_clusters[pos as usize]),
            None => PointLabel::Noise,
        }
    }

    /// Current memory footprint in stored points.
    pub fn footprint(&self) -> StreamingFootprint {
        StreamingFootprint {
            centers: self.centers.len(),
            parked: self.parked.len(),
            summary: self.centers.iter().filter(|c| c.core).count()
                + self.parked.iter().filter(|m| m.core).count(),
        }
    }

    /// Run counters, the pruning and RP ledgers included.
    pub fn stats(&self) -> StreamingStats {
        let mut stats = self.stats;
        stats.pruning = PruneStats {
            bound_accepts: self.p_accepts.load(Ordering::Relaxed),
            bound_rejects: self.p_rejects.load(Ordering::Relaxed),
            anchor_evals: self.p_anchors.load(Ordering::Relaxed),
            ..PruneStats::default()
        };
        stats.rp = RpStats {
            projections: self.rp_projections.load(Ordering::Relaxed),
            candidates_emitted: self.rp_emitted.load(Ordering::Relaxed),
            candidates_rejected: self.rp_rejected.load(Ordering::Relaxed),
        };
        stats
    }

    /// Convenience driver: runs all three passes over a replayable stream
    /// (the factory is invoked three times) and returns the labels in
    /// stream order plus the engine for inspection.
    pub fn run<I: Iterator<Item = P>>(
        metric: &'m M,
        params: &ApproxParams,
        make_stream: impl Fn() -> I,
    ) -> Result<(Clustering, Self), DbscanError> {
        Self::run_with(metric, params, &ParallelConfig::default(), make_stream)
    }

    /// As [`StreamingApproxDbscan::run`], with an explicit thread knob
    /// for the offline merge and pass-3 labeling. Pass 3 buffers the
    /// stream in fixed-size blocks and labels each block in parallel —
    /// memory stays `O(summary + block)`, independent of `n`.
    pub fn run_with<I: Iterator<Item = P>>(
        metric: &'m M,
        params: &ApproxParams,
        parallel: &ParallelConfig,
        make_stream: impl Fn() -> I,
    ) -> Result<(Clustering, Self), DbscanError> {
        Self::run_pruned(
            metric,
            params,
            parallel,
            &PruningConfig::default(),
            make_stream,
        )
    }

    /// As [`StreamingApproxDbscan::run_with`], with an explicit pruning
    /// policy (labels are identical for every setting).
    pub fn run_pruned<I: Iterator<Item = P>>(
        metric: &'m M,
        params: &ApproxParams,
        parallel: &ParallelConfig,
        pruning: &PruningConfig,
        make_stream: impl Fn() -> I,
    ) -> Result<(Clustering, Self), DbscanError> {
        Self::run_indexed(metric, params, parallel, pruning, None, make_stream)
    }

    /// As [`StreamingApproxDbscan::run_pruned`], with an optional
    /// random-projection candidate index whose point ids are stream
    /// arrival positions ([`StreamingApproxDbscan::with_index`]).
    /// `None` is exactly `run_pruned`; `Some` restricts the ε-counting
    /// and nearest-summary scans to RP candidates — deterministic for a
    /// fixed seed, but an approximation (the index changes which cores
    /// get certified, not how any examined pair evaluates).
    pub fn run_indexed<I: Iterator<Item = P>>(
        metric: &'m M,
        params: &ApproxParams,
        parallel: &ParallelConfig,
        pruning: &PruningConfig,
        index: Option<Arc<RpIndex>>,
        make_stream: impl Fn() -> I,
    ) -> Result<(Clustering, Self), DbscanError> {
        let mut engine = Self::new(metric, params)
            .with_parallel(*parallel)
            .with_pruning(*pruning)
            .with_index(index);
        // Pass timings are observational only (stats fields, reported
        // via the engine recorder): the passes themselves are untouched.
        let t = Instant::now();
        for p in make_stream() {
            engine.pass1_observe(&p);
        }
        if engine.stats.n == 0 {
            return Err(DbscanError::EmptyInput);
        }
        engine.finish_pass1();
        engine.stats.pass1_secs = t.elapsed().as_secs_f64();
        let t = Instant::now();
        for p in make_stream() {
            engine.pass2_observe(&p);
        }
        engine.stats.pass2_secs = t.elapsed().as_secs_f64();
        let t = Instant::now();
        engine.finish_pass2();
        engine.stats.merge_secs = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let threads = parallel.threads();
        let mut labels: Vec<PointLabel> = Vec::with_capacity(engine.stats.n);
        let mut stream = make_stream();
        let mut base = 0usize;
        loop {
            let block: Vec<P> = stream.by_ref().take(PASS3_BLOCK).collect();
            if block.is_empty() {
                break;
            }
            labels.extend(par_map_range(block.len(), threads, 512, |i| {
                engine.pass3_label_at(base + i, &block[i])
            }));
            base += block.len();
        }
        engine.stats.pass3_secs = t.elapsed().as_secs_f64();
        Ok((Clustering::from_labels(labels), engine))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact_dbscan;
    use mdbscan_metric::Euclidean;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn blob_stream(seed: u64, per_blob: usize) -> Vec<Vec<f64>> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut pts = Vec::new();
        for i in 0..per_blob * 2 {
            let c = if i % 2 == 0 { 0.0 } else { 30.0 };
            pts.push(vec![
                c + rng.random_range(-1.0..1.0),
                rng.random_range(-1.0..1.0),
            ]);
        }
        for _ in 0..per_blob / 10 {
            pts.push(vec![rng.random_range(100.0..200.0), 500.0]);
        }
        pts
    }

    #[test]
    fn finds_blobs_with_small_memory() {
        let stream = blob_stream(3, 300);
        let params = ApproxParams::new(1.0, 10, 0.5).unwrap();
        let (c, engine) =
            StreamingApproxDbscan::run(&Euclidean, &params, || stream.iter().cloned()).unwrap();
        assert_eq!(c.num_clusters(), 2);
        assert!(c.num_noise() >= 20);
        let fp = engine.footprint();
        assert!(
            fp.stored_points() < stream.len() / 3,
            "memory {} points vs stream {}",
            fp.stored_points(),
            stream.len()
        );
        assert!(fp.summary <= fp.stored_points());
        assert_eq!(engine.stats().n, stream.len());
        // Two far-apart blobs: the anchor bounds must decide many tests.
        assert!(
            engine.stats().pruning.bound_rejects > 0,
            "anchoring never fired: {:?}",
            engine.stats().pruning
        );
    }

    /// Pruning on vs off: byte-identical labels and footprint.
    #[test]
    fn pruning_is_invisible_in_labels() {
        let stream = blob_stream(13, 150);
        let params = ApproxParams::new(1.0, 8, 0.5).unwrap();
        let (on, e_on) = StreamingApproxDbscan::run_pruned(
            &Euclidean,
            &params,
            &ParallelConfig::sequential(),
            &PruningConfig::default(),
            || stream.iter().cloned(),
        )
        .unwrap();
        let (off, e_off) = StreamingApproxDbscan::run_pruned(
            &Euclidean,
            &params,
            &ParallelConfig::sequential(),
            &PruningConfig::off(),
            || stream.iter().cloned(),
        )
        .unwrap();
        assert_eq!(on.labels(), off.labels());
        assert_eq!(e_on.footprint(), e_off.footprint());
        assert_eq!(e_off.stats().pruning, PruneStats::default());
    }

    /// Sandwich check against the exact solver (the ρ-approximate
    /// guarantee): exact(ε)-core pairs stay together; streaming pairs
    /// stay together under exact((1+ρ)ε).
    #[test]
    fn sandwich_against_exact() {
        let stream = blob_stream(5, 120);
        let eps = 1.0;
        let rho = 0.5;
        let params = ApproxParams::new(eps, 8, rho).unwrap();
        let (mid, _) =
            StreamingApproxDbscan::run(&Euclidean, &params, || stream.iter().cloned()).unwrap();
        let lower = exact_dbscan(&stream, &Euclidean, eps, 8).unwrap();
        let upper = exact_dbscan(&stream, &Euclidean, (1.0 + rho) * eps, 8).unwrap();
        for i in 0..stream.len() {
            if lower.labels()[i].is_core() {
                assert!(
                    mid.cluster_of(i).is_some(),
                    "exact core {i} unassigned by streaming"
                );
            }
        }
        for i in 0..stream.len() {
            for j in (i + 1)..stream.len() {
                let both_lower = lower.labels()[i].is_core()
                    && lower.labels()[j].is_core()
                    && lower.cluster_of(i) == lower.cluster_of(j);
                if both_lower {
                    assert_eq!(
                        mid.cluster_of(i),
                        mid.cluster_of(j),
                        "exact(ε) pair ({i},{j}) split by streaming"
                    );
                }
                let both_mid = mid.labels()[i].is_core()
                    && mid.labels()[j].is_core()
                    && mid.cluster_of(i) == mid.cluster_of(j);
                if both_mid {
                    assert_eq!(
                        upper.cluster_of(i),
                        upper.cluster_of(j),
                        "streaming pair ({i},{j}) split by exact((1+ρ)ε)"
                    );
                }
            }
        }
    }

    #[test]
    fn memory_bound_holds() {
        // |M| < MinPts * |E| and S* ⊆ E ∪ M.
        let stream = blob_stream(7, 200);
        let params = ApproxParams::new(0.8, 6, 1.0).unwrap();
        let (_, engine) =
            StreamingApproxDbscan::run(&Euclidean, &params, || stream.iter().cloned()).unwrap();
        let fp = engine.footprint();
        assert!(fp.parked < 6 * fp.centers.max(1));
    }

    #[test]
    fn empty_stream_rejected() {
        let params = ApproxParams::new(1.0, 4, 0.5).unwrap();
        let empty: Vec<Vec<f64>> = vec![];
        assert!(matches!(
            StreamingApproxDbscan::run(&Euclidean, &params, || empty.iter().cloned()),
            Err(DbscanError::EmptyInput)
        ));
    }

    #[test]
    fn single_repeated_point_is_one_cluster() {
        let stream = vec![vec![2.0, 2.0]; 50];
        let params = ApproxParams::new(1.0, 5, 0.5).unwrap();
        let (c, engine) =
            StreamingApproxDbscan::run(&Euclidean, &params, || stream.iter().cloned()).unwrap();
        assert_eq!(c.num_clusters(), 1);
        assert_eq!(c.num_noise(), 0);
        assert_eq!(engine.footprint().centers, 1);
    }

    #[test]
    #[should_panic]
    fn phase_misuse_panics() {
        let params = ApproxParams::new(1.0, 4, 0.5).unwrap();
        let engine: StreamingApproxDbscan<Vec<f64>, _> =
            StreamingApproxDbscan::new(&Euclidean, &params);
        let _ = engine.pass3_label(&vec![0.0]);
    }

    #[test]
    fn labels_in_stream_order() {
        let stream = blob_stream(11, 50);
        let params = ApproxParams::new(1.0, 5, 0.5).unwrap();
        let (c, engine) =
            StreamingApproxDbscan::run(&Euclidean, &params, || stream.iter().cloned()).unwrap();
        // manual pass-3 replay gives the same labels
        for (i, p) in stream.iter().enumerate() {
            assert_eq!(c.labels()[i].cluster(), engine.pass3_label(p).cluster());
        }
    }
}
