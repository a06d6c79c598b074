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
//!
//! The anchors are kept sorted: the centers' in an ordered set that
//! grows during pass 1, the parked candidates' once `finish_pass1` has
//! pruned `M`, the summary's once `finish_pass2` has built `S*`. A
//! threshold test at `bound` then visits only the contiguous band
//! `|d₀ − anchor| ≤ bound`, found by binary search, and counts every
//! stored point outside it as a bound reject without touching it. The
//! first-fit scans (pass 1 and the pass-3 replay) mark the band in a
//! bitset and read it back in index order, so the owner is still the
//! lowest-index center within `r̄`; the pass-3 nearest-member scan reads
//! its band back in summary order, so its shrinking bound and tie rule
//! see the members in the linear scan's order. A stream point costs
//! `O(log k + band + k/64)` against `k` centers instead of `O(k)`, with
//! the linear scan's labels, evaluations and ledger.

use std::collections::BTreeSet;
use std::ops::Bound;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

use mdbscan_metric::{Metric, PruneStats, PruningConfig};
use mdbscan_parallel::{par_map_ranges, split_even, worker_count, ParallelConfig};
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

/// A first-center anchor ordered by [`f64::total_cmp`]: the key of the
/// sorted center set.
#[derive(Debug, Clone, Copy)]
struct Anchor(f64);

impl PartialEq for Anchor {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other).is_eq()
    }
}

impl Eq for Anchor {}

impl PartialOrd for Anchor {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Anchor {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// Pruning and RP counters gathered by one caller — a pass-1 or pass-2
/// observation, or a pass-3 worker — and added to the engine's ledger
/// once.
#[derive(Debug, Clone, Copy, Default)]
struct Ledger {
    prune: PruneStats,
    rp: RpStats,
}

impl Ledger {
    fn merge(&mut self, other: &Ledger) {
        self.prune.merge(&other.prune);
        self.rp.merge(&other.rp);
    }
}

/// A bitset over stored-point indices: a band is marked in anchor order
/// and read back in index order.
#[derive(Default)]
struct Marks(Vec<u64>);

impl Marks {
    /// Clears the set and sizes it for indices `0..len`.
    fn reset(&mut self, len: usize) {
        self.0.clear();
        self.0.resize(len.div_ceil(64), 0);
    }

    fn insert(&mut self, i: usize) {
        self.0[i / 64] |= 1 << (i % 64);
    }

    /// The marked indices, ascending.
    fn ascending(&self) -> impl Iterator<Item = usize> + '_ {
        self.0.iter().enumerate().flat_map(|(w, &word)| {
            std::iter::successors((word != 0).then_some(word), |&x| {
                let rest = x & (x - 1);
                (rest != 0).then_some(rest)
            })
            .map(move |x| w * 64 + x.trailing_zeros() as usize)
        })
    }
}

/// Buffers and counters of one caller of the scans: the sequential
/// passes keep one in the engine, each pass-3 worker makes its own.
#[derive(Default)]
struct ScanBuffers {
    /// The first-fit band, one bit per center.
    centers: Marks,
    /// The nearest-member band, one bit per summary position.
    summary: Marks,
    /// Stored points (or summary positions) a scan selected.
    hits: Vec<u32>,
    /// RP candidates of the current stream point.
    rp: Vec<u32>,
    ledger: Ledger,
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
    /// `(anchor, index)` of every center but `E[0]` (whose test is `d₀`
    /// itself), sorted by anchor; empty with pruning off.
    center_order: BTreeSet<(Anchor, u32)>,
    parked: Vec<Parked<P>>,
    /// `(anchor, index)` of every parked candidate, sorted by anchor;
    /// built by `finish_pass1`.
    parked_order: Vec<(f64, u32)>,
    /// Summary `S*` by position — core centers in index order, then
    /// certified parked candidates in index order — built by
    /// `finish_pass2`, with each member's anchor.
    summary_points: Vec<P>,
    summary_anchors: Vec<f64>,
    /// `(anchor, position)` of every summary member, sorted by anchor.
    summary_order: Vec<(f64, u32)>,
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
    /// Buffers of the sequential passes.
    buffers: ScanBuffers,
    stats: StreamingStats,
    /// Pruning and RP counters. Passes 1 and 2 add to it through
    /// `get_mut`; pass 3 labels through `&self` from many threads, so
    /// each worker adds its share once, under the lock. A poisoned lock
    /// is taken over: each update is one counter merge, so the counters
    /// are valid whenever the lock is free.
    ledger: Mutex<Ledger>,
}

/// `true` for an anchor `a` left of the band `|d₀ − a| ≤ bound`: the
/// `a < d₀` half of the linear scan's reject test `(d₀ − a).abs() >
/// bound`, in the same floating-point form. Under round-to-nearest it
/// holds on a prefix of ascending anchors.
#[inline]
fn left_of_band(a: f64, d0: f64, bound: f64) -> bool {
    a < d0 && d0 - a > bound
}

/// `true` for an anchor `a` not right of the band: the negated `a > d₀`
/// half of the reject test, which holds on a prefix of ascending
/// anchors. An anchor is in the band exactly when this holds and
/// [`left_of_band`] does not, i.e. when `!((d₀ − a).abs() > bound)`.
#[inline]
fn before_band_end(a: f64, d0: f64, bound: f64) -> bool {
    a <= d0 || a - d0 <= bound
}

/// The band `|d₀ − anchor| ≤ bound` of an anchor-sorted list.
fn band(sorted: &[(f64, u32)], d0: f64, bound: f64) -> &[(f64, u32)] {
    let lo = sorted.partition_point(|&(a, _)| left_of_band(a, d0, bound));
    let len = sorted[lo..].partition_point(|&(a, _)| before_band_end(a, d0, bound));
    &sorted[lo..lo + len]
}

/// The band `|d₀ − anchor| ≤ bound` of the sorted center set, as center
/// indices in anchor order.
fn center_band(
    order: &BTreeSet<(Anchor, u32)>,
    d0: f64,
    bound: f64,
) -> impl Iterator<Item = usize> + '_ {
    // A start left of the band has every smaller anchor left of it too;
    // the slack covers the subtraction's rounding, and the walk trims
    // whatever it let in. Without such a start the walk begins at the
    // front.
    let start = d0 - bound - 4.0 * f64::EPSILON * (d0 + bound);
    let from = if left_of_band(start, d0, bound) {
        Bound::Included((Anchor(start), 0))
    } else {
        Bound::Unbounded
    };
    order
        .range((from, Bound::Unbounded))
        .skip_while(move |(a, _)| left_of_band(a.0, d0, bound))
        .take_while(move |(a, _)| before_band_end(a.0, d0, bound))
        .map(|&(_, i)| i as usize)
}

/// `(anchor, id)` pairs sorted by anchor, ties by id.
fn sorted_by_anchor(anchors: impl Iterator<Item = f64>) -> Vec<(f64, u32)> {
    let mut order: Vec<(f64, u32)> = anchors.zip(0..).collect();
    order.sort_unstable_by(|x, y| x.0.total_cmp(&y.0).then(x.1.cmp(&y.1)));
    order
}

/// The threshold test `dis(x, p) ≤ bound` for a stored point inside the
/// anchor band: free when `d₀ + anchor ≤ bound`, one evaluation
/// otherwise.
#[inline]
fn band_within<P, M: Metric<P>>(
    metric: &M,
    stored: &P,
    anchor: f64,
    p: &P,
    d0: f64,
    bound: f64,
    accepts: &mut u64,
) -> bool {
    if d0 + anchor <= bound {
        *accepts += 1;
        return true;
    }
    metric.within(stored, p, bound)
}

/// As [`band_within`], for a stored point that may lie outside the band
/// (the RP-filtered scans): outside it, the anchors reject it.
#[inline]
fn anchored_within<P, M: Metric<P>>(
    metric: &M,
    stored: &P,
    anchor: f64,
    p: &P,
    d0: f64,
    bound: f64,
    prune: &mut PruneStats,
) -> bool {
    if (d0 - anchor).abs() > bound {
        prune.bound_rejects += 1;
        return false;
    }
    band_within(
        metric,
        stored,
        anchor,
        p,
        d0,
        bound,
        &mut prune.bound_accepts,
    )
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
            center_order: BTreeSet::new(),
            parked: Vec::new(),
            parked_order: Vec::new(),
            summary_points: Vec::new(),
            summary_anchors: Vec::new(),
            summary_order: Vec::new(),
            summary_clusters: Vec::new(),
            pass2_pending: 0,
            pass2_seen: 0,
            index: None,
            buffers: ScanBuffers::default(),
            stats: StreamingStats::default(),
            ledger: Mutex::new(Ledger::default()),
        }
    }

    /// Sets the thread knob for the offline summary merge and the
    /// batched pass-3 labeling. Passes 1 and 2 are inherently
    /// sequential (first-fit netting depends on arrival order); the
    /// result is identical for every thread count. Each pass-3 worker
    /// keeps its own buffers and counters and adds them to the run's
    /// ledger once, so workers share no counter while labeling.
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
    fn rp_candidates(&self, sid: usize, out: &mut Vec<u32>, ledger: &mut Ledger) -> bool {
        let Some(rp) = self.index.as_deref() else {
            return false;
        };
        if sid >= rp.len() {
            return false;
        }
        rp.candidates_for(sid as u32, out, &mut ledger.rp);
        true
    }

    /// The anchor distance `dis(p, E[0])` for an incoming point, or
    /// `None` when pruning is off / no center exists yet. One metric
    /// call, counted as an anchor evaluation.
    #[inline]
    fn anchor_of(&self, p: &P, ledger: &mut Ledger) -> Option<f64> {
        if !self.pruning.enabled || self.centers.is_empty() {
            return None;
        }
        ledger.prune.anchor_evals += 1;
        Some(self.metric.distance(&self.centers[0].point, p))
    }

    /// Adds a sequential caller's counters to the engine's ledger.
    fn absorb(&mut self, ledger: Ledger) {
        self.ledger
            .get_mut()
            .unwrap_or_else(PoisonError::into_inner)
            .merge(&ledger);
    }

    /// First-fit owner of `p`: the lowest-index center within `r̄`, or
    /// `None`. With an anchor only the band is visited, in index order,
    /// and every center past `E[0]` and before the owner (all of them,
    /// without one) that lies outside the band is a bound reject.
    fn first_fit(&self, p: &P, d0: Option<f64>, s: &mut ScanBuffers) -> Option<u32> {
        let rbar = self.rbar;
        let Some(d0) = d0 else {
            return self
                .centers
                .iter()
                .position(|c| self.metric.within(&c.point, p, rbar))
                .map(|i| i as u32);
        };
        // The anchor distance *is* the test against center 0.
        if d0 <= rbar {
            return Some(0);
        }
        s.centers.reset(self.centers.len());
        let mut band = 0;
        for i in center_band(&self.center_order, d0, rbar) {
            s.centers.insert(i);
            band += 1;
        }
        let prune = &mut s.ledger.prune;
        for (visited, i) in s.centers.ascending().enumerate() {
            let c = &self.centers[i];
            if band_within(
                self.metric,
                &c.point,
                c.d_to_first,
                p,
                d0,
                rbar,
                &mut prune.bound_accepts,
            ) {
                prune.bound_rejects += (i - 1 - visited) as u64;
                return Some(i as u32);
            }
        }
        prune.bound_rejects += (self.centers.len() - 1 - band) as u64;
        None
    }

    /// Pass-1 ε-ball counting: fills `s.hits` with every center within
    /// ε of `p`, restricted to the point's RP candidates when an index
    /// is attached (both lists ascend in stream id — a merge join).
    fn centers_within_eps(&self, sid: usize, p: &P, d0: Option<f64>, s: &mut ScanBuffers) {
        let eps = self.params.eps();
        s.hits.clear();
        if self.rp_candidates(sid, &mut s.rp, &mut s.ledger) {
            let buf = &s.rp;
            let mut k = 0usize;
            for (i, c) in self.centers.iter().enumerate() {
                while k < buf.len() && buf[k] < c.stream_id {
                    k += 1;
                }
                if k >= buf.len() {
                    break;
                }
                if buf[k] != c.stream_id {
                    continue;
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
                        &mut s.ledger.prune,
                    ),
                    None => self.metric.within(&c.point, p, eps),
                };
                if within {
                    s.hits.push(i as u32);
                }
            }
            return;
        }
        let Some(d0) = d0 else {
            s.hits.extend(
                (0..)
                    .zip(&self.centers)
                    .filter(|(_, c)| self.metric.within(&c.point, p, eps))
                    .map(|(i, _)| i),
            );
            return;
        };
        if d0 <= eps {
            s.hits.push(0);
        }
        let prune = &mut s.ledger.prune;
        let mut band = 0;
        for i in center_band(&self.center_order, d0, eps) {
            band += 1;
            let c = &self.centers[i];
            if band_within(
                self.metric,
                &c.point,
                c.d_to_first,
                p,
                d0,
                eps,
                &mut prune.bound_accepts,
            ) {
                s.hits.push(i as u32);
            }
        }
        prune.bound_rejects += (self.centers.len() - 1 - band) as u64;
    }

    /// Pass-2 recount: fills `s.hits` with every parked candidate not
    /// yet certified that lies within ε of `p`, restricted to the RP
    /// candidates as in pass 1 (the parked list ascends in stream id;
    /// `retain` kept the order). Certified candidates are skipped
    /// before any test, so the uncertified ones outside the band are
    /// the bound rejects.
    fn parked_within_eps(&self, sid: usize, p: &P, d0: Option<f64>, s: &mut ScanBuffers) {
        let eps = self.params.eps();
        let min_pts = self.params.min_pts();
        s.hits.clear();
        if self.rp_candidates(sid, &mut s.rp, &mut s.ledger) {
            let buf = &s.rp;
            let mut k = 0usize;
            for (i, m) in self.parked.iter().enumerate() {
                if m.eps_count >= min_pts {
                    continue;
                }
                while k < buf.len() && buf[k] < m.stream_id {
                    k += 1;
                }
                if k >= buf.len() {
                    break;
                }
                if buf[k] != m.stream_id {
                    continue;
                }
                let within = match d0 {
                    Some(d0) => anchored_within(
                        self.metric,
                        &m.point,
                        m.d_to_first,
                        p,
                        d0,
                        eps,
                        &mut s.ledger.prune,
                    ),
                    None => self.metric.within(&m.point, p, eps),
                };
                if within {
                    s.hits.push(i as u32);
                }
            }
            return;
        }
        let Some(d0) = d0 else {
            s.hits.extend(
                (0..)
                    .zip(&self.parked)
                    .filter(|(_, m)| m.eps_count < min_pts && self.metric.within(&m.point, p, eps))
                    .map(|(i, _)| i),
            );
            return;
        };
        let prune = &mut s.ledger.prune;
        let mut uncertified = 0;
        for &(_, i) in band(&self.parked_order, d0, eps) {
            let m = &self.parked[i as usize];
            if m.eps_count >= min_pts {
                continue;
            }
            uncertified += 1;
            if band_within(
                self.metric,
                &m.point,
                m.d_to_first,
                p,
                d0,
                eps,
                &mut prune.bound_accepts,
            ) {
                s.hits.push(i);
            }
        }
        prune.bound_rejects += (self.pass2_pending - uncertified) as u64;
    }

    /// Pass 1: observe one stream point (clones it only if it becomes a
    /// center or parks in `M`).
    pub fn pass1_observe(&mut self, p: &P) {
        assert_eq!(self.phase, Phase::Pass1, "pass1_observe outside pass 1");
        let sid = self.stats.n;
        self.stats.n += 1;
        let min_pts = self.params.min_pts();
        let mut s = std::mem::take(&mut self.buffers);
        let d0 = self.anchor_of(p, &mut s.ledger);
        // First-fit netting (paper lines 3–5).
        let owner = match self.first_fit(p, d0, &mut s) {
            Some(owner) => owner,
            None => {
                let i = self.centers.len() as u32;
                self.centers.push(Center {
                    point: p.clone(),
                    stream_id: sid as u32,
                    d_to_first: d0.unwrap_or(0.0),
                    eps_count: 0,
                    core: false,
                    summary_pos: u32::MAX,
                });
                if let Some(d0) = d0 {
                    self.center_order.insert((Anchor(d0), i));
                }
                i
            }
        };
        // ε-ball counting for every center (lines 6–12).
        self.centers_within_eps(sid, p, d0, &mut s);
        for &i in &s.hits {
            let c = &mut self.centers[i as usize];
            c.eps_count += 1;
            if c.eps_count >= min_pts {
                c.core = true;
            }
        }
        self.absorb(std::mem::take(&mut s.ledger));
        self.buffers = s;
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
    /// Algorithm 2's summary rule), and sorts the survivors' anchors.
    pub fn finish_pass1(&mut self) {
        assert_eq!(self.phase, Phase::Pass1, "finish_pass1 outside pass 1");
        let centers = &self.centers;
        self.parked.retain(|m| !centers[m.center as usize].core);
        // A center parked under itself before *another* center... cannot
        // happen (first-fit: a center's owner is itself); but a parked
        // duplicate of a center point is fine — it just recounts.
        self.parked_order = sorted_by_anchor(self.parked.iter().map(|m| m.d_to_first));
        self.pass2_pending = self.parked.len();
        self.phase = Phase::Pass2;
    }

    /// Pass 2: observe one stream point, updating the `ε`-counts of parked
    /// candidates.
    pub fn pass2_observe(&mut self, p: &P) {
        assert_eq!(self.phase, Phase::Pass2, "pass2_observe outside pass 2");
        let sid = self.pass2_seen;
        self.pass2_seen += 1;
        let min_pts = self.params.min_pts();
        // Once every parked candidate is certified, the pass is a no-op
        // per point — in particular no anchor evaluation is paid.
        if self.pass2_pending == 0 {
            return;
        }
        let mut s = std::mem::take(&mut self.buffers);
        let d0 = self.anchor_of(p, &mut s.ledger);
        self.parked_within_eps(sid, p, d0, &mut s);
        for &i in &s.hits {
            let m = &mut self.parked[i as usize];
            m.eps_count += 1;
            if m.eps_count >= min_pts {
                m.core = true;
                self.pass2_pending -= 1;
            }
        }
        self.absorb(std::mem::take(&mut s.ledger));
        self.buffers = s;
    }

    /// Ends pass 2: assembles the summary `S*` (core centers + certified
    /// parked cores) and merges inside it at `(1+ρ)ε`, offline in memory.
    /// Summary pairs whose first-center anchors already decide the merge
    /// threshold are unioned (or skipped) without a distance test.
    pub fn finish_pass2(&mut self) {
        assert_eq!(self.phase, Phase::Pass2, "finish_pass2 outside pass 2");
        let mut points: Vec<P> = Vec::new();
        let mut anchors: Vec<f64> = Vec::new();
        for c in self.centers.iter_mut().filter(|c| c.core) {
            c.summary_pos = points.len() as u32;
            points.push(c.point.clone());
            anchors.push(c.d_to_first);
        }
        for m in self.parked.iter_mut().filter(|m| m.core) {
            m.summary_pos = points.len() as u32;
            points.push(m.point.clone());
            anchors.push(m.d_to_first);
        }
        let merge_r = self.params.merge_radius();
        let s = points.len();
        let pruning_on = self.pruning.enabled;
        let prune = &mut self
            .ledger
            .get_mut()
            .unwrap_or_else(PoisonError::into_inner)
            .prune;
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
                    prune.bound_rejects += 1;
                    false
                } else if pruning_on && anchors[i] + anchors[j] <= merge_r {
                    prune.bound_accepts += 1;
                    true
                } else {
                    self.stats.merge_pairs_tested += 1;
                    self.metric.within(&points[i], &points[j], merge_r)
                };
                if merge {
                    uf.union(i, j);
                }
            }
        }
        self.summary_clusters = uf.component_ids();
        self.summary_order = sorted_by_anchor(anchors.iter().copied());
        self.summary_points = points;
        self.summary_anchors = anchors;
        self.phase = Phase::Pass3;
    }

    /// Pass 3: label one stream point. Replays the pass-1 first-fit rule
    /// (centers are scanned in creation order, so the owner found here is
    /// the owner from pass 1). Always scans the full summary — with an
    /// RP index attached, use [`StreamingApproxDbscan::pass3_label_at`]
    /// so the candidate lookup can address the point by its stream
    /// position.
    pub fn pass3_label(&self, p: &P) -> PointLabel {
        self.label_one(None, p)
    }

    /// Pass 3 with the point's stream position: like
    /// [`StreamingApproxDbscan::pass3_label`], but when an RP index is
    /// attached the nearest-summary scan is restricted to position
    /// `sid`'s candidate set (the first-fit owner replay stays exact).
    /// Without an index the two entry points are identical.
    pub fn pass3_label_at(&self, sid: usize, p: &P) -> PointLabel {
        self.label_one(Some(sid), p)
    }

    /// One pass-3 call on its own buffers, its counters added at once.
    fn label_one(&self, sid: Option<usize>, p: &P) -> PointLabel {
        let mut s = ScanBuffers::default();
        let label = self.label(sid, p, &mut s);
        self.ledger
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .merge(&s.ledger);
        label
    }

    /// Pass 3 on a caller's buffers; the counters stay in `s.ledger`.
    fn label(&self, sid: Option<usize>, p: &P, s: &mut ScanBuffers) -> PointLabel {
        assert_eq!(self.phase, Phase::Pass3, "pass3_label before finish_pass2");
        let filtered = sid.is_some_and(|sid| self.rp_candidates(sid, &mut s.rp, &mut s.ledger));
        let d0 = self.anchor_of(p, &mut s.ledger);
        if let Some(owner) = self.first_fit(p, d0, s) {
            let c = &self.centers[owner as usize];
            if c.core {
                return PointLabel::Border(self.summary_clusters[c.summary_pos as usize]);
            }
        }
        let best = if filtered {
            self.candidate_positions(s);
            let positions = s.hits.iter().map(|&pos| pos as usize);
            self.nearest(p, d0, positions, &mut s.ledger.prune)
        } else {
            self.nearest_summary(p, d0, s)
        };
        match best {
            Some((d, pos)) if d < 0.0 => PointLabel::Core(self.summary_clusters[pos as usize]),
            Some((_, pos)) => PointLabel::Border(self.summary_clusters[pos as usize]),
            None => PointLabel::Noise,
        }
    }

    /// Fills `s.hits` with the summary positions of the RP candidates in
    /// `s.rp`, ascending: merge joins over the core centers and the
    /// certified parked candidates, each of which ascends in stream id.
    fn candidate_positions(&self, s: &mut ScanBuffers) {
        let cands = &s.rp;
        s.hits.clear();
        let mut k = 0usize;
        for c in self.centers.iter().filter(|c| c.core) {
            while k < cands.len() && cands[k] < c.stream_id {
                k += 1;
            }
            if k >= cands.len() {
                break;
            }
            if cands[k] == c.stream_id {
                s.hits.push(c.summary_pos);
            }
        }
        let mut k = 0usize;
        for m in self.parked.iter().filter(|m| m.core) {
            while k < cands.len() && cands[k] < m.stream_id {
                k += 1;
            }
            if k >= cands.len() {
                break;
            }
            if cands[k] == m.stream_id {
                s.hits.push(m.summary_pos);
            }
        }
    }

    /// Nearest summary member within `(ρ/2+1)ε` over the whole summary.
    /// With an anchor only the band at `(ρ/2+1)ε` is visited, in
    /// summary order; the bound only shrinks from there, so every
    /// member outside the band is a bound reject.
    fn nearest_summary(&self, p: &P, d0: Option<f64>, s: &mut ScanBuffers) -> Option<(f64, u32)> {
        let members = self.summary_points.len();
        let Some(d0) = d0 else {
            return self.nearest(p, None, 0..members, &mut s.ledger.prune);
        };
        let band = band(&self.summary_order, d0, self.params.label_radius());
        s.ledger.prune.bound_rejects += (members - band.len()) as u64;
        s.summary.reset(members);
        for &(_, pos) in band {
            s.summary.insert(pos as usize);
        }
        self.nearest(p, Some(d0), s.summary.ascending(), &mut s.ledger.prune)
    }

    /// Nearest of the summary members at `positions` (ascending) within
    /// `(ρ/2+1)ε`: `(d, pos)`, or `(-1.0, pos)` when `p` *is* member
    /// `pos` (a certified core). The bound shrinks to the best distance
    /// so far and ties keep the earlier member; the anchored lower
    /// bound skips members that provably cannot beat the current best
    /// (`dis ≥ |d₀ − anchor| > bound` ⇒ the bounded evaluation would
    /// reject them anyway).
    fn nearest(
        &self,
        p: &P,
        d0: Option<f64>,
        positions: impl Iterator<Item = usize>,
        prune: &mut PruneStats,
    ) -> Option<(f64, u32)> {
        let label_r = self.params.label_radius();
        let mut best: Option<(f64, u32)> = None;
        for pos in positions {
            let bound = best.map_or(label_r, |(d, _)| d);
            if let Some(d0) = d0 {
                if (d0 - self.summary_anchors[pos]).abs() > bound {
                    prune.bound_rejects += 1;
                    continue;
                }
            }
            if let Some(d) = self
                .metric
                .distance_leq(&self.summary_points[pos], p, bound)
            {
                if d == 0.0 {
                    best = Some((-1.0, pos as u32));
                } else if best.is_none_or(|(bd, _)| d < bd) {
                    best = Some((d, pos as u32));
                }
            }
        }
        best
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
        let ledger = *self.ledger.lock().unwrap_or_else(PoisonError::into_inner);
        StreamingStats {
            pruning: ledger.prune,
            rp: ledger.rp,
            ..self.stats
        }
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
            // One set of buffers per worker; its counters join the ledger once.
            let workers = worker_count(threads, block.len(), 512);
            let parts = par_map_ranges(split_even(block.len(), workers), |range| {
                let mut s = ScanBuffers::default();
                let part: Vec<PointLabel> = range
                    .map(|i| engine.label(Some(base + i), &block[i], &mut s))
                    .collect();
                (part, s.ledger)
            });
            for (part, ledger) in parts {
                labels.extend(part);
                engine.absorb(ledger);
            }
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
    use mdbscan_metric::{CountingMetric, Euclidean};
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

    // The banded scans against the linear anchored scans they replace:
    // same owner, hits and nearest member, same ledger, same number of
    // evaluations.

    type Counted = CountingMetric<Euclidean>;
    type Engine<'m> = StreamingApproxDbscan<'m, Vec<f64>, Counted>;

    /// r̄ = 0.5, ε = 1, (ρ/2+1)ε = 1.5: every band edge is exact in
    /// binary.
    fn params() -> ApproxParams {
        ApproxParams::new(1.0, 3, 1.0).unwrap()
    }

    /// An engine whose stored points are `pts`, each anchored at its
    /// distance to `pts[0]`: every point is a center (`pts[0]` is
    /// `E[0]`) and a parked candidate (every third one certified), and
    /// the summary holds the points `in_summary` selects, in order.
    fn staged<'m>(
        metric: &'m Counted,
        pts: &[Vec<f64>],
        in_summary: impl Fn(usize) -> bool,
    ) -> Engine<'m> {
        let params = params();
        let mut e = StreamingApproxDbscan::new(metric, &params);
        for (i, p) in pts.iter().enumerate() {
            let anchor = Euclidean.distance(&pts[0], p);
            e.centers.push(Center {
                point: p.clone(),
                stream_id: i as u32,
                d_to_first: anchor,
                eps_count: 0,
                core: false,
                summary_pos: u32::MAX,
            });
            if i > 0 {
                e.center_order.insert((Anchor(anchor), i as u32));
            }
            e.parked.push(Parked {
                point: p.clone(),
                center: i as u32,
                stream_id: i as u32,
                d_to_first: anchor,
                eps_count: if i % 3 == 2 { params.min_pts() } else { 0 },
                core: false,
                summary_pos: u32::MAX,
            });
            if in_summary(i) {
                e.summary_points.push(p.clone());
                e.summary_anchors.push(anchor);
            }
        }
        e.parked_order = sorted_by_anchor(e.parked.iter().map(|m| m.d_to_first));
        e.pass2_pending = e
            .parked
            .iter()
            .filter(|m| m.eps_count < params.min_pts())
            .count();
        e.summary_order = sorted_by_anchor(e.summary_anchors.iter().copied());
        e
    }

    /// The linear first-fit scan: every center in index order.
    fn linear_first_fit(e: &Engine, p: &Vec<f64>, d0: f64, prune: &mut PruneStats) -> Option<u32> {
        for (i, c) in e.centers.iter().enumerate() {
            let within = if i == 0 {
                d0 <= e.rbar
            } else {
                anchored_within(e.metric, &c.point, c.d_to_first, p, d0, e.rbar, prune)
            };
            if within {
                return Some(i as u32);
            }
        }
        None
    }

    /// The linear ε-count scan: every stored `(point, anchor, certified)`
    /// in index order, certified ones skipped; with `first_is_e0` the
    /// first is `E[0]`, tested by `d₀` itself.
    fn linear_eps_count<'a>(
        e: &Engine,
        stored: impl Iterator<Item = (&'a Vec<f64>, f64, bool)>,
        first_is_e0: bool,
        p: &Vec<f64>,
        d0: f64,
        prune: &mut PruneStats,
    ) -> Vec<u32> {
        let eps = e.params.eps();
        let mut hits = Vec::new();
        for (i, (point, anchor, certified)) in stored.enumerate() {
            if certified {
                continue;
            }
            let within = if first_is_e0 && i == 0 {
                d0 <= eps
            } else {
                anchored_within(e.metric, point, anchor, p, d0, eps, prune)
            };
            if within {
                hits.push(i as u32);
            }
        }
        hits
    }

    /// The linear nearest-member scan: every summary member in position
    /// order, with the shrinking bound and the earlier member winning
    /// ties.
    fn linear_nearest(
        e: &Engine,
        p: &Vec<f64>,
        d0: f64,
        prune: &mut PruneStats,
    ) -> Option<(f64, u32)> {
        let mut best: Option<(f64, u32)> = None;
        for (pos, (point, &anchor)) in e.summary_points.iter().zip(&e.summary_anchors).enumerate() {
            let bound = best.map_or(e.params.label_radius(), |(d, _)| d);
            if (d0 - anchor).abs() > bound {
                prune.bound_rejects += 1;
                continue;
            }
            if let Some(d) = e.metric.distance_leq(point, p, bound) {
                if d == 0.0 {
                    best = Some((-1.0, pos as u32));
                } else if best.is_none_or(|(bd, _)| d < bd) {
                    best = Some((d, pos as u32));
                }
            }
        }
        best
    }

    /// Runs every banded scan and its linear reference on each query;
    /// returns the first-fit owners.
    fn assert_scans_match(e: &Engine, queries: &[Vec<f64>]) -> Vec<Option<u32>> {
        let metric = e.metric;
        let min_pts = e.params.min_pts();
        let mut owners = Vec::new();
        for q in queries {
            let d0 = Euclidean.distance(&e.centers[0].point, q);
            let mut s = ScanBuffers::default();
            let mut prune = PruneStats::default();
            metric.reset();

            let owner = e.first_fit(q, Some(d0), &mut s);
            let evals = metric.reset();
            let linear = linear_first_fit(e, q, d0, &mut prune);
            assert_eq!(
                (owner, s.ledger.prune, evals),
                (linear, prune, metric.reset()),
                "first-fit of {q:?} (d0 = {d0})"
            );
            owners.push(owner);

            e.centers_within_eps(0, q, Some(d0), &mut s);
            let evals = metric.reset();
            let mut hits = s.hits.clone();
            hits.sort_unstable();
            let stored = e.centers.iter().map(|c| (&c.point, c.d_to_first, false));
            let linear = linear_eps_count(e, stored, true, q, d0, &mut prune);
            assert_eq!(
                (hits, s.ledger.prune, evals),
                (linear, prune, metric.reset()),
                "pass-1 ε-count of {q:?} (d0 = {d0})"
            );

            e.parked_within_eps(0, q, Some(d0), &mut s);
            let evals = metric.reset();
            let mut hits = s.hits.clone();
            hits.sort_unstable();
            let stored = e
                .parked
                .iter()
                .map(|m| (&m.point, m.d_to_first, m.eps_count >= min_pts));
            let linear = linear_eps_count(e, stored, false, q, d0, &mut prune);
            assert_eq!(
                (hits, s.ledger.prune, evals),
                (linear, prune, metric.reset()),
                "pass-2 recount of {q:?} (d0 = {d0})"
            );

            let best = e.nearest_summary(q, Some(d0), &mut s);
            let evals = metric.reset();
            let linear = linear_nearest(e, q, d0, &mut prune);
            assert_eq!(
                (best, s.ledger.prune, evals),
                (linear, prune, metric.reset()),
                "nearest summary member of {q:?} (d0 = {d0})"
            );
        }
        owners
    }

    /// 1-D points, so a point at `x` has anchor `|x|` (with `E[0]` at
    /// the origin) and every band edge can be placed exactly.
    #[test]
    fn banded_scans_match_linear_scans_at_the_band_edges() {
        let mut rng = StdRng::seed_from_u64(21);
        let mut xs: Vec<f64> = vec![0.0, 50.0];
        // Passes r̄ from 3.0 at a higher anchor and a lower index than
        // the other passing centers: first fit must go by index.
        xs.push(3.4);
        // Anchors at d₀ ± bound and one ulp either side, for d₀ = 3, 10
        // and 20 and the bounds r̄, ε and (ρ/2+1)ε, mirrored so each
        // anchor also belongs to a far point.
        for (d0, bound) in [(3.0, 0.5), (10.0, 1.0), (20.0, 1.5)] {
            for edge in [d0 - bound, d0 + bound] {
                for a in [f64::next_down(edge), edge, f64::next_up(edge)] {
                    xs.push(a);
                    xs.push(-a);
                }
            }
        }
        // Repeated anchors and anchors equal to d₀.
        xs.extend([3.0, 3.0, -3.0, 10.0, 10.0, 20.0, -20.0, 2.6, 2.6]);
        xs.extend((0..90).map(|_| rng.random_range(-6.0..6.0)));
        xs.push(-80.0);
        let pts: Vec<Vec<f64>> = xs.iter().map(|&x| vec![x]).collect();
        let k = pts.len();
        assert_ne!(k % 64, 0);
        for &x in &xs {
            assert_eq!(Euclidean.distance(&pts[0], &vec![x]), x.abs());
        }
        let metric = CountingMetric::new(Euclidean);
        let e = staged(&metric, &pts, |i| i % 4 != 3);

        let mut queries: Vec<Vec<f64>> =
            [3.0, -3.0, 10.0, 20.0, -20.0, 0.0, 50.2, -80.3, 2.75, 1000.0]
                .iter()
                .map(|&x| vec![x])
                .collect();
        queries.extend((0..200).map(|_| vec![rng.random_range(-25.0..25.0)]));
        let owners = assert_scans_match(&e, &queries);
        assert_eq!(owners[0], Some(2), "3.4 owns 3.0");
        assert_eq!(owners[5], Some(0), "d₀ = 0 is E[0]'s");
        assert_eq!(owners[6], Some(1));
        assert_eq!(owners[7], Some(k as u32 - 1));
        assert_eq!(owners[9], None);
    }

    #[test]
    fn banded_scans_match_linear_scans_on_a_single_center() {
        let pts = vec![vec![1.0, -2.0]];
        let metric = CountingMetric::new(Euclidean);
        let e = staged(&metric, &pts, |_| true);
        let queries: Vec<Vec<f64>> = [[1.0, -2.0], [1.3, -2.0], [1.0, -1.0], [4.0, 2.0]]
            .iter()
            .map(|q| q.to_vec())
            .collect();
        let owners = assert_scans_match(&e, &queries);
        assert_eq!(owners, vec![Some(0), Some(0), None, None]);
    }

    #[test]
    fn banded_scans_match_linear_scans_on_random_planes() {
        for seed in 1..=3u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let k = 150 + seed as usize * 7;
            let pts: Vec<Vec<f64>> = (0..k)
                .map(|_| vec![rng.random_range(-4.0..4.0), rng.random_range(-4.0..4.0)])
                .collect();
            let metric = CountingMetric::new(Euclidean);
            let e = staged(&metric, &pts, |i| i % 2 == 0);
            let mut queries: Vec<Vec<f64>> = (0..200)
                .map(|_| vec![rng.random_range(-5.0..5.0), rng.random_range(-5.0..5.0)])
                .collect();
            // Stored points themselves: exact summary hits.
            queries.extend(pts.iter().step_by(5).cloned());
            let owners = assert_scans_match(&e, &queries);
            assert!(owners.iter().any(|o| o.is_some_and(|i| i > 1)));
        }
    }
}
