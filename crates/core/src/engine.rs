//! The owned, shareable metric-DBSCAN engine: one builder facade over
//! the exact (§3.1), cover-tree exact (§3.2), ρ-approximate
//! (Algorithm 2), and streaming (Algorithm 3) solvers — now **epoch
//! based and mutable**: the engine can ingest new points while serving
//! readers.
//!
//! # The epoch / snapshot model
//!
//! [`MetricDbscan`] owns an append-only point sequence and its `r̄`-net.
//! Every mutation ([`MetricDbscan::ingest`] / `ingest_one`) runs behind
//! one writer mutex, extends the chunked point store and the net in
//! place, and assigns a bumped **epoch counter**; the immutable
//! [`EngineSnapshot`] for that epoch is *published lazily*, on the
//! first read after the batch — so the O(n) flatten into contiguous
//! storage is paid once per read boundary, not once per batch, and
//! point-at-a-time feeding costs O(n) total in copies instead of
//! O(n²). A query grabs the current snapshot (one `Arc` clone under a
//! read lock held for nanoseconds — never across any distance
//! evaluation; the first read after a batch additionally pays the
//! pending flatten) and computes entirely against that frozen state. A
//! snapshot taken *before* an ingest keeps answering from its own
//! epoch forever — byte-identical results no matter how much the
//! engine has grown since.
//!
//! The whole engine state — points, net, writer anchors, delta
//! history, and every cache — round-trips through a versioned on-disk
//! artifact: [`MetricDbscan::save`] / [`MetricDbscan::load`] (and
//! [`EngineSnapshot::save`] for read-only replicas), with zero
//! distance evaluations on load and bit-identical post-load behavior;
//! see the `persist` module docs in this crate and the
//! `mdbscan_persist` crate for the format.
//!
//! The engine caches five kinds of artifact — Step-1/2 fragments and
//! Algorithm-2 summaries, the `ε`-keyed center adjacency, the
//! whole-input §3.2 cover tree, the ε-aligned grid index and the
//! random-projection index — in one per-kind most-recent-first LRU
//! each, and every entry carries its **epoch beside its key**, so stale
//! entries are unreachable *by construction* rather than by flushing:
//! an epoch-`e` query can only ever hit epoch-`e` artifacts. Across
//! epochs the engine still reuses work *incrementally*, growing the
//! newest older epoch's entry under the same key (reported as
//! [`CacheStats::upgrades`], never as hits):
//!
//! * the center adjacency extends by the new-center rows only, instead
//!   of an `O(|E|²)` rebuild;
//! * Step-1 core flags are monotone under ingest, so only new points —
//!   and old points whose neighbor balls gained members — are
//!   re-verified;
//! * fragments only ever gain members, so the fragments of untouched
//!   balls carry over verbatim (Step 2 then re-runs over them);
//! * the cached whole-input §3.2 tree grows by
//!   [`mdbscan_covertree::CoverTree::insert`] instead of being
//!   discarded;
//! * the grid and random-projection indexes absorb the appended points'
//!   coordinates.
//!
//! # Ingest determinism contract
//!
//! The net is maintained by the **radius-guided first-fit rule** — the
//! streaming pass-1 rule of Algorithm 3: a new point joins the ball of
//! the first center within `r̄`, else becomes a new center. Ingesting
//! `p₀ … pₙ` in order therefore replays exactly the loop a one-shot
//! [`NetStrategy::RadiusGuided`] build over the same sequence runs, so
//! an engine that was built over a prefix and ingested the rest
//! produces labels **bit-identical** to a fresh radius-guided engine
//! over the full sequence — at every thread count, pruning on or off,
//! for all four solvers. (`tests/dynamic_engine.rs` enforces this.)
//!
//! # Radius-guided vs. Gonzalez nets
//!
//! The default [`NetStrategy::Gonzalez`] runs Algorithm 1's
//! farthest-point greedy — a batch algorithm that inspects the whole
//! input per round and tends to produce the fewest centers. The
//! [`NetStrategy::RadiusGuided`] first-fit rule sees each point once,
//! which is what makes online ingest replayable. Both produce valid
//! `r̄`-nets (covering + packing) with exact `dis(p, c_p)` anchors, so
//! every solver, cache, and pruning bound works identically on either;
//! they just select different centers. A Gonzalez-built engine may also
//! ingest — insertions extend its net by the first-fit rule — but then
//! only the *ingested engine itself* is the determinism reference (no
//! fresh batch build reproduces a mixed net).
//!
//! On top of the shared net the engine adds the caches described above,
//! all invisible in the results: cached artifacts are deterministic
//! functions of `(epoch, net, ε, MinPts)`, so a hit returns
//! **bit-identical labels** to a cold run.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::{Duration, Instant};

use mdbscan_covertree::{CoverTree, CoverTreeSkeleton};
use mdbscan_grid::{CandidateStats, GridIndex, GRID_MAX_DIM};
use mdbscan_kcenter::{BuildOptions, CenterAdjacency, IncrementalNet, RadiusGuidedNet};
use mdbscan_metric::{BatchMetric, PruneStats, PruningConfig};
use mdbscan_obs::{Event, Phase, Recorder};
use mdbscan_parallel::ParallelConfig;
use mdbscan_rp::{RpConfig, RpIndex, RpStats};

use crate::approx::{approx_threshold, run_approx, ApproxArtifacts, ApproxReuse, ApproxStats};
use crate::error::DbscanError;
use crate::exact::{ExactConfig, ExactStats};
use crate::exact_covertree::{covertree_level, CoverTreeExactStats, CoverTreeNet};
use crate::labels::Clustering;
use crate::netview::NetView;
use crate::params::{ApproxParams, DbscanParams};
use crate::steps::{run_exact_steps, StepArtifacts, StepsReuse, StepsUpgrade};
use crate::store::{ChunkedStore, PointBuf};
use crate::streaming::{StreamingApproxDbscan, StreamingFootprint, StreamingStats};

/// Default number of fragment-artifact entries the engine retains.
const DEFAULT_CACHE_CAPACITY: usize = 16;

/// Entries the `ε`-keyed center-adjacency cache retains. The adjacency
/// depends on `ε` only (not `MinPts`), so `(ε, MinPts)` sweeps share one
/// entry per `ε` value; a handful covers any realistic sweep.
const ADJACENCY_CACHE_CAPACITY: usize = 8;

/// Whole-input cover-tree skeletons retained (one per recently queried
/// epoch; older epochs grow into newer ones by insertion).
const COVERTREE_CACHE_CAPACITY: usize = 4;

/// Ingest deltas retained for incremental artifact upgrades. A cached
/// artifact older than this many epochs falls back to a full recompute.
const DELTA_HISTORY: usize = 128;

/// Per-epoch grid indexes retained (one per recently queried
/// `(epoch, cell)` pair; older epochs extend into newer ones).
const GRID_CACHE_CAPACITY: usize = 4;

/// Per-epoch random-projection indexes retained. The RP index is
/// ε-independent (one per epoch covers every parameter probe), so a
/// couple of epochs suffice; older epochs extend into newer ones.
const RP_CACHE_CAPACITY: usize = 2;

/// Which candidate-generation machinery the engine's solvers use for
/// ε-ball scans and the center-adjacency build.
///
/// [`CandidateIndex::Grid`] changes only which pairs are *examined*,
/// never what any examined pair evaluates to — labels stay
/// **bit-identical** to the generic path.
/// [`CandidateIndex::RandomProjection`] additionally restricts the
/// approximate/streaming solvers' ε-ball scans to projection-list
/// candidates: runs are still deterministic for a fixed seed (across
/// thread counts, cache states, ingest-vs-fresh, and artifact round
/// trips), but a candidate miss is a *quality* trade-off against the
/// generic path, measurable via `crates/eval`.
///
/// Both indexes are *auto-gated* on the metric exposing a Euclidean
/// coordinate view ([`mdbscan_metric::GridCompatible`]): the grid needs
/// ambient dimension `≤ 3`, random projections accept any dimension
/// (they exist for the d = 128–768 embedding regime where grid cells
/// and net-anchored pruning both degenerate). Ineligible metrics
/// silently stay on the generic net-anchored path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CandidateIndex {
    /// The paper's net-anchored candidate generation (cover sets plus
    /// triangle-inequality pruning). Works for every metric. The
    /// default.
    #[default]
    Generic,
    /// ε-aligned grid buckets (`mdbscan_grid`): candidates come from
    /// ring cells around each query point, with whole-cell accepts for
    /// dense interiors. Low-dimensional coordinate data only (see the
    /// auto-gate above); ineligible metrics fall back to
    /// [`CandidateIndex::Generic`] per query, silently.
    Grid,
    /// Seeded random-projection lists (`mdbscan_rp`, sDBSCAN-style):
    /// the approximate and streaming solvers draw their Step-1 counting
    /// and labeling candidates from per-projection top-m lists. Any
    /// coordinate dimension; the exact solvers ignore it (they must
    /// stay exact) and ineligible metrics fall back to
    /// [`CandidateIndex::Generic`] per query, silently. The seed is
    /// part of this configuration, so artifacts are reproducible.
    RandomProjection(RpConfig),
}

/// How the engine's `r̄`-net is selected (see the module docs for the
/// full contrast).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum NetStrategy {
    /// Algorithm 1's farthest-point greedy (batch; fewest centers).
    /// The default.
    #[default]
    Gonzalez,
    /// First-fit netting — the streaming pass-1 insertion rule. One
    /// pass, sequential, and **replayable**: build-then-ingest is
    /// bit-identical to a one-shot build over the same point sequence,
    /// which makes this the strategy of choice for engines that ingest.
    RadiusGuided,
}

/// Which solver produced a [`Run`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlgorithmKind {
    /// Exact DBSCAN over the engine's net (§3.1).
    Exact,
    /// ρ-approximate DBSCAN, Algorithm 2.
    Approx,
    /// Exact DBSCAN over a cover-tree-derived net (§3.2).
    CoverTree,
    /// Three-pass streaming ρ-approximate DBSCAN, Algorithm 3.
    Streaming,
}

/// Solver-specific statistics inside a [`RunReport`].
#[derive(Debug, Clone, Copy)]
#[non_exhaustive]
pub enum RunDetail {
    /// Phase stats of the §3.1 exact pipeline.
    Exact(ExactStats),
    /// Summary/merge stats of Algorithm 2.
    Approx(ApproxStats),
    /// Tree + phase stats of the §3.2 pipeline.
    CoverTree(CoverTreeExactStats),
    /// Pass counters and the memory footprint of Algorithm 3.
    Streaming {
        /// Stream-pass counters.
        stats: StreamingStats,
        /// Stored points at the end of the run (`|E| + |M|`).
        footprint: StreamingFootprint,
    },
}

/// The unified per-run report every engine entry point returns,
/// subsuming the per-solver stats structs.
#[derive(Debug, Clone, Copy)]
#[non_exhaustive]
pub struct RunReport {
    /// Which solver ran.
    pub algorithm: AlgorithmKind,
    /// The epoch the run was answered at.
    pub epoch: u64,
    /// Wall-clock seconds for the whole query (cache lookups included,
    /// engine construction excluded).
    pub total_secs: f64,
    /// True when this run reused at least one cached artifact *of its
    /// own epoch* (the Step-1/2 results, the approx summary, and/or the
    /// whole-input cover tree; the `ε`-keyed adjacency cache is
    /// reported separately in [`CacheStats`]). Cross-epoch incremental
    /// reuse is never reported as a hit — see [`CacheStats::upgrades`].
    pub cache_hit: bool,
    /// Engine-lifetime cache hits, sampled after this run.
    pub cache_hits: u64,
    /// Engine-lifetime cache misses, sampled after this run.
    pub cache_misses: u64,
    /// Triangle-inequality pruning ledger of this run: pairs accepted /
    /// rejected by the net-anchored bounds without a distance
    /// evaluation, and the anchor evaluations paid for them
    /// ([`PruneStats::distance_evals_saved`] nets the two). Always
    /// collected; all zeros when the engine was built with
    /// [`MetricDbscanBuilder::pruning`] off.
    pub pruning: PruneStats,
    /// Grid candidate-generation ledger of this run: ring cells probed,
    /// candidates handed to the metric, and candidates rejected by cell
    /// bounds without an evaluation. All zeros on the generic path
    /// (engines built without [`MetricDbscanBuilder::candidate_index`]
    /// = [`CandidateIndex::Grid`], or whose metric has no coordinate
    /// view). Counts only the work actually performed this run: phases
    /// replayed from cached artifacts contribute nothing.
    pub candidates: CandidateStats,
    /// Random-projection candidate ledger of this run: projection lists
    /// probed, candidates handed to the metric, and duplicates/rejects
    /// filtered before evaluation. All zeros unless the engine was built
    /// with [`CandidateIndex::RandomProjection`] *and* this was an
    /// approximate or streaming run (the exact solvers never consult
    /// the RP index).
    pub rp: RpStats,
    /// Solver-specific statistics.
    pub detail: RunDetail,
}

impl RunReport {
    /// The exact-pipeline stats, when this was an exact or cover-tree run.
    pub fn exact_stats(&self) -> Option<&ExactStats> {
        match &self.detail {
            RunDetail::Exact(s) => Some(s),
            RunDetail::CoverTree(s) => Some(&s.steps),
            _ => None,
        }
    }

    /// The Algorithm-2 stats, when this was an approximate run.
    pub fn approx_stats(&self) -> Option<&ApproxStats> {
        match &self.detail {
            RunDetail::Approx(s) => Some(s),
            _ => None,
        }
    }

    /// The streaming footprint, when this was a streaming run.
    pub fn streaming_footprint(&self) -> Option<StreamingFootprint> {
        match &self.detail {
            RunDetail::Streaming { footprint, .. } => Some(*footprint),
            _ => None,
        }
    }
}

/// Folds one finished run's per-phase timings and candidate counters
/// into a recorder. The report already exists — labels included — so
/// this is purely observational: nothing a recorder does can reach
/// back into the run. Streaming maps its passes onto the pipeline
/// phases (pass 1 → net build, pass 2 → Step 1, offline merge →
/// Step 2, pass 3 → Step 3); cover-tree runs report the tree build +
/// net extraction as the net-build phase.
fn record_run_phases(rec: &dyn Recorder, report: &RunReport) {
    let secs = |s: f64| Duration::from_secs_f64(s.max(0.0));
    match &report.detail {
        RunDetail::Exact(s) => {
            rec.phase(Phase::Adjacency, secs(s.adjacency_secs));
            rec.phase(Phase::Step1, secs(s.label_secs));
            rec.phase(Phase::Step2, secs(s.merge_secs));
            rec.phase(Phase::Step3, secs(s.assign_secs));
        }
        RunDetail::CoverTree(s) => {
            rec.phase(Phase::NetBuild, secs(s.tree_secs + s.net_secs));
            rec.phase(Phase::Adjacency, secs(s.steps.adjacency_secs));
            rec.phase(Phase::Step1, secs(s.steps.label_secs));
            rec.phase(Phase::Step2, secs(s.steps.merge_secs));
            rec.phase(Phase::Step3, secs(s.steps.assign_secs));
        }
        RunDetail::Approx(s) => {
            rec.phase(Phase::Adjacency, secs(s.adjacency_secs));
            rec.phase(Phase::Step1, secs(s.summary_secs));
            rec.phase(Phase::Step2, secs(s.merge_secs));
            rec.phase(Phase::Step3, secs(s.label_secs));
        }
        RunDetail::Streaming { stats, .. } => {
            rec.phase(Phase::NetBuild, secs(stats.pass1_secs));
            rec.phase(Phase::Step1, secs(stats.pass2_secs));
            rec.phase(Phase::Step2, secs(stats.merge_secs));
            rec.phase(Phase::Step3, secs(stats.pass3_secs));
        }
    }
    let emitted = report.candidates.candidates_emitted + report.rp.candidates_emitted;
    let rejected = report.candidates.candidates_rejected + report.rp.candidates_rejected;
    if emitted > 0 {
        rec.event(Event::CandidatesEmitted, emitted);
    }
    if rejected > 0 {
        rec.event(Event::CandidatesRejected, rejected);
    }
}

/// One engine query: the clustering plus its [`RunReport`].
#[derive(Debug, Clone)]
pub struct Run {
    /// The cluster labels.
    pub clustering: Clustering,
    /// Timings, counters, and cache telemetry of this query.
    pub report: RunReport,
}

impl Run {
    /// Drops the report, keeping only the clustering.
    pub fn into_clustering(self) -> Clustering {
        self.clustering
    }
}

/// What one [`MetricDbscan::ingest`] call did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub struct IngestReport {
    /// The epoch the batch published (unchanged for an empty batch).
    pub epoch: u64,
    /// Points inserted by this call.
    pub added_points: usize,
    /// Centers created by this call.
    pub new_centers: usize,
    /// Cover sets that gained members (new centers included).
    pub dirty_balls: usize,
    /// Total points after the call.
    pub num_points: usize,
    /// Total centers `|E|` after the call.
    pub num_centers: usize,
    /// Whether the net still covers every point (false only after a
    /// `max_centers` truncation; queries then fail with
    /// [`DbscanError::IndexNotCovering`]).
    pub covered: bool,
}

/// A snapshot of the engine's cache counters
/// ([`MetricDbscan::cache_stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found a reusable same-epoch artifact: the
    /// fragment/summary LRU plus the whole-input cover-tree cache (a
    /// cover-tree run counts one lookup in each).
    pub hits: u64,
    /// Lookups that had to compute — fully or incrementally — at the
    /// query's epoch (fragment/summary LRU plus cover-tree cache).
    pub misses: u64,
    /// Cross-epoch incremental reuses: an older epoch's artifact
    /// (fragments, adjacency, the whole-input cover tree, a grid or a
    /// random-projection index) was *upgraded* by the points appended
    /// since instead of recomputed from scratch. Counted in addition to
    /// the miss.
    pub upgrades: u64,
    /// Fragment/summary-artifact entries currently retained.
    pub entries: usize,
    /// Whether at least one whole-input cover tree is retained.
    pub covertree_cached: bool,
    /// Lookups that found a cached same-epoch `ε`-keyed center
    /// adjacency.
    pub adjacency_hits: u64,
    /// Adjacency lookups that had to rebuild or extend.
    pub adjacency_misses: u64,
    /// Center-adjacency entries currently retained.
    pub adjacency_entries: usize,
    /// Grid-index lookups that found a cached same-epoch grid. Always 0
    /// for engines on [`CandidateIndex::Generic`].
    pub grid_hits: u64,
    /// Grid-index lookups that had to build or extend a grid.
    pub grid_misses: u64,
    /// Grid-index entries currently retained.
    pub grid_entries: usize,
    /// Random-projection-index lookups that found a cached same-epoch
    /// index. Always 0 for engines not on
    /// [`CandidateIndex::RandomProjection`].
    pub rp_hits: u64,
    /// Random-projection-index lookups that had to build or extend.
    pub rp_misses: u64,
    /// Random-projection-index entries currently retained.
    pub rp_entries: usize,
}

/// Which pipeline a cached fragment partition belongs to. The §3.1 and
/// §3.2 pipelines derive different nets, so their artifacts must never
/// collide even at equal `(ε, MinPts)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum NetKind {
    Gonzalez,
    CoverTree,
}

/// Key of a fragment/summary entry (its epoch sits beside it in the
/// [`EpochLru`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct CacheKey {
    pub(crate) kind: NetKind,
    pub(crate) eps_bits: u64,
    pub(crate) min_pts: usize,
    /// `Some(ρ bits)` for Algorithm-2 summaries, `None` for the exact
    /// pipelines — the two artifact families never collide even at equal
    /// `(ε, MinPts)`.
    pub(crate) rho_bits: Option<u64>,
}

/// A cached per-parameter artifact: the exact pipelines store Step-1/2
/// outputs, the approximate pipeline its merged summary.
#[derive(Clone)]
pub(crate) enum CachedArtifacts {
    Steps(Arc<StepArtifacts>),
    Approx(Arc<ApproxArtifacts>),
}

impl CachedArtifacts {
    fn heap_bytes(&self) -> usize {
        match self {
            CachedArtifacts::Steps(a) => a.heap_bytes(),
            CachedArtifacts::Approx(a) => a.heap_bytes(),
        }
    }
}

/// Key of the `ε`-only center-adjacency cache: the adjacency is a pure
/// function of (epoch, net, threshold, screening mode) — `MinPts` and
/// `ρ` never enter. Cover-tree nets differ per level, so the level
/// joins the key there.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct AdjKey {
    pub(crate) kind: NetKind,
    pub(crate) level: i32,
    pub(crate) threshold_bits: u64,
    /// The per-edge bounds differ between screened and unscreened
    /// builds (membership does not), so the two never share an entry.
    pub(crate) pruned: bool,
}

/// What [`EpochLru::lookup`] found.
enum Lookup<V> {
    /// A same-epoch entry that fits the query.
    Hit(V),
    /// A miss, plus the newest strictly-older epoch's entry under the
    /// same key — the base an incremental upgrade grows.
    Base(u64, V),
    /// A miss with nothing to grow.
    Miss,
}

/// A tiny exact-scan most-recent-first LRU of `(epoch, key, value)`
/// entries with its own hit and miss counts: the working set is a
/// handful of parameter probes, so a `Vec` scanned linearly beats any
/// hash scheme. Capacity 0 stores nothing.
pub(crate) struct EpochLru<K, V> {
    pub(crate) capacity: usize,
    pub(crate) entries: Vec<(u64, K, V)>,
    pub(crate) hits: u64,
    pub(crate) misses: u64,
}

impl<K: PartialEq, V: Clone> EpochLru<K, V> {
    fn new(capacity: usize) -> Self {
        Self {
            capacity,
            entries: Vec::new(),
            hits: 0,
            misses: 0,
        }
    }

    /// An empty LRU of the same capacity, counters at zero.
    fn cold(&self) -> Self {
        Self::new(self.capacity)
    }

    /// Looks up `key` at `epoch`. A same-epoch entry is promoted to
    /// most recent, then counts as a hit only if `fits` accepts it.
    /// Every other lookup is a miss; with `grows` set, the miss carries
    /// the newest strictly-older epoch's entry under `key`, if any.
    fn lookup(
        &mut self,
        epoch: u64,
        key: &K,
        fits: impl FnOnce(&V) -> bool,
        grows: bool,
    ) -> Lookup<V> {
        if let Some(pos) = self
            .entries
            .iter()
            .position(|(e, k, _)| *e == epoch && k == key)
        {
            let entry = self.entries.remove(pos);
            self.entries.insert(0, entry);
            if fits(&self.entries[0].2) {
                self.hits += 1;
                return Lookup::Hit(self.entries[0].2.clone());
            }
        }
        self.misses += 1;
        let base = self
            .entries
            .iter()
            .filter(|(e, k, _)| *e < epoch && k == key)
            .max_by_key(|(e, _, _)| *e);
        match base {
            Some((e, _, v)) if grows => Lookup::Base(*e, v.clone()),
            _ => Lookup::Miss,
        }
    }

    /// Stores `value` as the most recent entry, replacing any entry at
    /// the same `(epoch, key)` and evicting beyond capacity.
    fn insert(&mut self, epoch: u64, key: K, value: V) {
        if self.capacity == 0 {
            return;
        }
        self.entries.retain(|(e, k, _)| !(*e == epoch && *k == key));
        self.entries.insert(0, (epoch, key, value));
        self.entries.truncate(self.capacity);
    }

    fn heap_bytes(&self, bytes: impl Fn(&V) -> usize) -> usize {
        self.entries.iter().map(|(_, _, v)| bytes(v)).sum()
    }
}

/// A coordinate candidate index cached per epoch: an older epoch's
/// index grows into a newer one by absorbing the appended points'
/// coordinates.
trait CoordIndex {
    fn len(&self) -> usize;
    fn extend(&self, new_coords: &[f64]) -> Self;
}

impl CoordIndex for GridIndex {
    fn len(&self) -> usize {
        GridIndex::len(self)
    }

    fn extend(&self, new_coords: &[f64]) -> Self {
        GridIndex::extend(self, new_coords)
    }
}

impl CoordIndex for RpIndex {
    fn len(&self) -> usize {
        RpIndex::len(self)
    }

    fn extend(&self, new_coords: &[f64]) -> Self {
        RpIndex::extend(self, new_coords)
    }
}

/// One published epoch's delta: which cover sets gained members, and
/// how many points existed before — everything an incremental artifact
/// upgrade needs.
pub(crate) struct EpochDelta {
    pub(crate) epoch: u64,
    pub(crate) old_num_points: usize,
    pub(crate) dirty_balls: Vec<u32>,
}

/// The engine's artifact caches, one [`EpochLru`] per kind, with the
/// cross-epoch upgrade count and the ingest deltas upgrades read.
pub(crate) struct EngineCache {
    pub(crate) fragments: EpochLru<CacheKey, CachedArtifacts>,
    pub(crate) adjacency: EpochLru<AdjKey, Arc<CenterAdjacency>>,
    pub(crate) covertree: EpochLru<(), Arc<CoverTreeSkeleton>>,
    /// Keyed by the bits of the cell side `ε/√d`: each probed `ε` gets
    /// its own aligned grid. The net never enters, so the exact and
    /// cover-tree pipelines share entries at equal `ε`.
    pub(crate) grids: EpochLru<u64, Arc<GridIndex>>,
    /// The RP index is ε-independent and its configuration is fixed at
    /// engine construction, so the epoch alone keys it.
    pub(crate) rps: EpochLru<(), Arc<RpIndex>>,
    /// Cross-epoch incremental reuses ([`CacheStats::upgrades`]).
    pub(crate) upgrades: u64,
    /// Published ingest deltas, ascending by epoch, bounded by
    /// [`DELTA_HISTORY`].
    pub(crate) deltas: VecDeque<EpochDelta>,
}

impl EngineCache {
    /// Empty caches for a fragment capacity of `cache_capacity`; every
    /// other kind keeps its own fixed capacity, or none when caching is
    /// off.
    pub(crate) fn new(cache_capacity: usize) -> Self {
        let cap = |c: usize| if cache_capacity == 0 { 0 } else { c };
        Self {
            fragments: EpochLru::new(cache_capacity),
            adjacency: EpochLru::new(cap(ADJACENCY_CACHE_CAPACITY)),
            covertree: EpochLru::new(cap(COVERTREE_CACHE_CAPACITY)),
            grids: EpochLru::new(cap(GRID_CACHE_CAPACITY)),
            rps: EpochLru::new(cap(RP_CACHE_CAPACITY)),
            upgrades: 0,
            deltas: VecDeque::new(),
        }
    }

    /// Empty caches with these capacities and zeroed counters.
    pub(crate) fn cold(&self) -> Self {
        Self {
            fragments: self.fragments.cold(),
            adjacency: self.adjacency.cold(),
            covertree: self.covertree.cold(),
            grids: self.grids.cold(),
            rps: self.rps.cold(),
            upgrades: 0,
            deltas: VecDeque::new(),
        }
    }

    /// The union of dirty balls across epochs `(from, to]`, or `None`
    /// when the delta history no longer covers that span (→ full
    /// recompute). `old_n` sanity-checks that the upgrade base really
    /// describes the point prefix present at `from`.
    fn dirty_since(&self, from: u64, to: u64, old_n: usize) -> Option<Vec<u32>> {
        let mut needed = from + 1;
        let mut dirty: Vec<u32> = Vec::new();
        for d in &self.deltas {
            if d.epoch < needed {
                continue;
            }
            if d.epoch != needed {
                return None; // pruned history or a gap
            }
            if needed == from + 1 && d.old_num_points != old_n {
                return None;
            }
            dirty.extend_from_slice(&d.dirty_balls);
            if d.epoch == to {
                dirty.sort_unstable();
                dirty.dedup();
                return Some(dirty);
            }
            needed += 1;
        }
        None
    }
}

/// One published epoch: the contiguous point snapshot and the net over
/// it. Immutable once published; readers hold it via `Arc`.
pub(crate) struct EpochState<P> {
    pub(crate) epoch: u64,
    pub(crate) points: PointBuf<P>,
    pub(crate) net: Arc<RadiusGuidedNet>,
}

/// The writer-side mutable state, initialized lazily on the first
/// ingest (a never-ingesting engine pays nothing for it).
pub(crate) struct IngestState<P> {
    pub(crate) store: ChunkedStore<P>,
    pub(crate) net: IncrementalNet,
    /// The pending epoch: the epoch of the last appended batch. Runs
    /// ahead of the published [`EpochState::epoch`] until the first
    /// post-batch read flattens and publishes.
    pub(crate) epoch: u64,
}

/// Builder for [`MetricDbscan`]; see [`MetricDbscan::builder`].
pub struct MetricDbscanBuilder<P, M> {
    points: Arc<[P]>,
    metric: M,
    rbar: Option<f64>,
    first: usize,
    max_centers: usize,
    strategy: NetStrategy,
    parallel: Option<ParallelConfig>,
    pruning: PruningConfig,
    cache_capacity: usize,
    candidate_index: CandidateIndex,
    recorder: Option<Arc<dyn Recorder>>,
}

impl<P: Sync, M: BatchMetric<P>> MetricDbscanBuilder<P, M> {
    /// The net radius `r̄` for the Algorithm-1 preprocessing.
    /// **Required.** Exact queries need `r̄ ≤ ε/2`; ρ-approximate queries
    /// need `r̄ ≤ ρε/2` — pick the bound for the finest parameters you
    /// intend to probe.
    pub fn rbar(mut self, rbar: f64) -> Self {
        self.rbar = Some(rbar);
        self
    }

    /// Worker threads for the build and for every query that does not
    /// override them ([`ExactConfig::parallel`]). Defaults to the
    /// machine's available parallelism.
    pub fn parallel(mut self, parallel: ParallelConfig) -> Self {
        self.parallel = Some(parallel);
        self
    }

    /// How the initial net is built (default
    /// [`NetStrategy::Gonzalez`]). Choose
    /// [`NetStrategy::RadiusGuided`] for engines that will
    /// [`MetricDbscan::ingest`]: build-then-ingest is then bit-identical
    /// to a fresh build over the concatenated sequence.
    pub fn net_strategy(mut self, strategy: NetStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Index of the arbitrary first Gonzalez center (paper line 1).
    /// Defaults to 0. Ignored under [`NetStrategy::RadiusGuided`],
    /// where the first point is always the first center (first-fit).
    pub fn first_center(mut self, first: usize) -> Self {
        self.first = first;
        self
    }

    /// Hard cap on `|E|` — a safety valve for adversarial inputs; a
    /// truncated net rejects queries with
    /// [`DbscanError::IndexNotCovering`]. Defaults to unlimited.
    pub fn max_centers(mut self, max_centers: usize) -> Self {
        self.max_centers = max_centers;
        self
    }

    /// Number of `(ε, MinPts)` fragment-artifact entries the engine
    /// retains (default 16); `0` disables caching entirely (the
    /// `ε`-keyed adjacency cache included).
    pub fn cache_capacity(mut self, capacity: usize) -> Self {
        self.cache_capacity = capacity;
        self
    }

    /// Net-anchored triangle-inequality pruning policy for every query
    /// this engine serves (default: on). Pruning skips distance
    /// evaluations whose outcome the net's recorded distances already
    /// decide — cluster labels are **bit-identical** with it on or off;
    /// only [`RunReport::pruning`] and the evaluation counts change.
    pub fn pruning(mut self, pruning: PruningConfig) -> Self {
        self.pruning = pruning;
        self
    }

    /// Candidate-generation machinery for every query this engine
    /// serves (default [`CandidateIndex::Generic`]). Choosing
    /// [`CandidateIndex::Grid`] engages the ε-aligned grid index for
    /// metrics with a low-dimensional coordinate view
    /// ([`mdbscan_metric::VectorBlock`] at `d ≤ 3`) — **bit-identical
    /// labels**, typically far fewer distance evaluations. Choosing
    /// [`CandidateIndex::RandomProjection`] engages the seeded
    /// projection-list index for coordinate metrics at *any* dimension —
    /// deterministic for a fixed seed but an approximation of the
    /// generic candidate set (see [`CandidateIndex`]); it applies to the
    /// approximate and streaming solvers only. Ineligible metrics
    /// silently keep the generic path.
    pub fn candidate_index(mut self, index: CandidateIndex) -> Self {
        self.candidate_index = index;
        self
    }

    /// Attaches an observability recorder ([`mdbscan_obs::Recorder`]):
    /// the engine reports phase durations (net build, Step-1,
    /// adjacency, Step-2, Step-3, candidate probe, ingest, artifact
    /// save/load) and cache hit/miss events through it. Observability
    /// is **read-only**: a recorder never affects labels or evaluation
    /// counters (see the `mdbscan_obs` crate docs), and the default
    /// `None` path does no work at all.
    pub fn recorder(mut self, recorder: Arc<dyn Recorder>) -> Self {
        self.recorder = Some(recorder);
        self
    }

    /// Validates the configuration and builds the net (Algorithm 1, or
    /// the first-fit pass under [`NetStrategy::RadiusGuided`]).
    ///
    /// Errors: [`DbscanError::EmptyInput`], [`DbscanError::RadiusNotSet`],
    /// [`DbscanError::InvalidRadius`], [`DbscanError::InvalidFirstCenter`].
    pub fn build(self) -> Result<MetricDbscan<P, M>, DbscanError> {
        let rbar = self.rbar.ok_or(DbscanError::RadiusNotSet)?;
        crate::error::validate_points_and_rbar(self.points.len(), rbar)?;
        if self.first >= self.points.len() {
            return Err(DbscanError::InvalidFirstCenter {
                first: self.first,
                len: self.points.len(),
            });
        }
        let parallel = self.parallel.unwrap_or_default();
        let net_started = self.recorder.as_ref().map(|_| Instant::now());
        let net = match self.strategy {
            NetStrategy::Gonzalez => {
                let opts = BuildOptions {
                    first: self.first,
                    parallel,
                    max_centers: self.max_centers,
                };
                RadiusGuidedNet::build_with(&self.points, &self.metric, rbar, &opts)
            }
            NetStrategy::RadiusGuided => {
                IncrementalNet::build(&self.points, &self.metric, rbar, self.max_centers).to_net()
            }
        };
        if let (Some(rec), Some(started)) = (&self.recorder, net_started) {
            rec.phase(Phase::NetBuild, started.elapsed());
        }
        Ok(MetricDbscan {
            metric: self.metric,
            rbar,
            parallel,
            pruning: self.pruning,
            max_centers: self.max_centers,
            strategy: self.strategy,
            candidate_index: self.candidate_index,
            current: RwLock::new(Arc::new(EpochState {
                epoch: 0,
                points: self.points.into(),
                net: Arc::new(net),
            })),
            writer: Mutex::new(None),
            cache: Mutex::new(EngineCache::new(self.cache_capacity)),
            pending_epoch: AtomicU64::new(0),
            publishes: AtomicU64::new(0),
            load_stats: None,
            load_micros: 0,
            recorder: self.recorder,
        })
    }
}

/// An owned, `Send + Sync`, epoch-based metric-DBSCAN engine: an
/// append-only point sequence with its `r̄`-net, queryable concurrently
/// from many threads *while ingesting*, with epoch-keyed caches.
///
/// Built via [`MetricDbscan::builder`]. Four entry points share the one
/// net and return a uniform [`Run`]:
///
/// * [`MetricDbscan::exact`] — exact DBSCAN, §3.1 (needs `r̄ ≤ ε/2`);
/// * [`MetricDbscan::approx`] — ρ-approximate, Algorithm 2
///   (needs `r̄ ≤ ρε/2`);
/// * [`MetricDbscan::covertree`] — exact via a cover-tree net, §3.2
///   (independent of `r̄`; the tree is grown across epochs and reused);
/// * [`MetricDbscan::streaming`] — Algorithm 3 replayed over the owned
///   points; [`MetricDbscan::streaming_session`] opens a manual session
///   for external streams.
///
/// Each delegates to the current [`EngineSnapshot`]; take one explicitly
/// ([`MetricDbscan::snapshot`]) to pin a query sequence to one epoch
/// while the engine keeps ingesting.
///
/// # Concurrency and determinism
///
/// All methods take `&self`; an `Arc<MetricDbscan<_, _>>` can be cloned
/// into any number of worker threads, readers and one-at-a-time writers
/// alike. Labels are **bit-identical** across thread counts, across
/// concurrent interleavings, across cache hits vs. cold runs vs.
/// incremental upgrades — and, for radius-guided engines, across any
/// batch split of the same ingest sequence (see the module docs).
///
/// ```
/// use mdbscan_core::{DbscanParams, MetricDbscan, NetStrategy};
/// use mdbscan_metric::Euclidean;
///
/// let pts: Vec<Vec<f64>> = (0..100).map(|i| vec![(i % 20) as f64, (i / 20) as f64]).collect();
/// let engine = MetricDbscan::builder(pts.clone(), Euclidean)
///     .rbar(0.5)
///     .net_strategy(NetStrategy::RadiusGuided)
///     .build()
///     .unwrap();
/// let params = DbscanParams::new(1.0, 4).unwrap();
/// let before = engine.exact(&params).unwrap();
///
/// // Ingest 100 more grid points while the engine stays queryable.
/// let more: Vec<Vec<f64>> = (100..200).map(|i| vec![(i % 20) as f64, (i / 20) as f64]).collect();
/// let report = engine.ingest(more.clone()).unwrap();
/// assert_eq!(report.epoch, 1);
/// let after = engine.exact(&params).unwrap();
///
/// // Bit-identical to a fresh radius-guided engine over the full sequence.
/// let all: Vec<Vec<f64>> = pts.into_iter().chain(more).collect();
/// let fresh = MetricDbscan::builder(all, Euclidean)
///     .rbar(0.5)
///     .net_strategy(NetStrategy::RadiusGuided)
///     .build()
///     .unwrap();
/// assert_eq!(after.clustering, fresh.exact(&params).unwrap().clustering);
/// assert_ne!(before.clustering.len(), after.clustering.len());
/// ```
pub struct MetricDbscan<P, M> {
    pub(crate) metric: M,
    pub(crate) rbar: f64,
    pub(crate) parallel: ParallelConfig,
    pub(crate) pruning: PruningConfig,
    pub(crate) max_centers: usize,
    pub(crate) strategy: NetStrategy,
    pub(crate) candidate_index: CandidateIndex,
    pub(crate) current: RwLock<Arc<EpochState<P>>>,
    pub(crate) writer: Mutex<Option<IngestState<P>>>,
    pub(crate) cache: Mutex<EngineCache>,
    /// The latest *assigned* epoch: equals the published epoch except
    /// between an ingest and the first read after it (the lazy-publish
    /// window).
    pub(crate) pending_epoch: AtomicU64,
    pub(crate) publishes: AtomicU64,
    /// Copied-bytes accounting from the load that produced this engine;
    /// `None` for engines built in-process.
    pub(crate) load_stats: Option<crate::persist::LoadStats>,
    /// Wall-clock microseconds of the artifact load that produced this
    /// engine (0 for engines built in-process) — reported as the
    /// `ArtifactLoad` phase when a recorder is attached post-load.
    pub(crate) load_micros: u64,
    /// Observability seam; `None` (the default) does no work anywhere.
    pub(crate) recorder: Option<Arc<dyn Recorder>>,
}

impl<P: Clone + Sync, M: BatchMetric<P>> MetricDbscan<P, M> {
    /// Starts a builder over an owned point set (a `Vec<P>`, an
    /// `Arc<[P]>`, or anything converting into one) and an owned metric.
    /// A borrowed metric works too: `&M` implements
    /// [`mdbscan_metric::Metric`]/[`BatchMetric`] whenever `M` does.
    pub fn builder(points: impl Into<Arc<[P]>>, metric: M) -> MetricDbscanBuilder<P, M> {
        MetricDbscanBuilder {
            points: points.into(),
            metric,
            rbar: None,
            first: 0,
            max_centers: usize::MAX,
            strategy: NetStrategy::default(),
            parallel: None,
            pruning: PruningConfig::default(),
            cache_capacity: DEFAULT_CACHE_CAPACITY,
            candidate_index: CandidateIndex::default(),
            recorder: None,
        }
    }

    /// Attaches an observability recorder to an already-built engine —
    /// the post-[`load`](MetricDbscan::load) counterpart of
    /// [`MetricDbscanBuilder::recorder`]. If this engine came from an
    /// artifact, the load's wall-clock time is reported immediately as
    /// an [`Phase::ArtifactLoad`] phase.
    pub fn with_recorder(mut self, recorder: Arc<dyn Recorder>) -> Self {
        if self.load_micros > 0 {
            recorder.phase(
                Phase::ArtifactLoad,
                std::time::Duration::from_micros(self.load_micros),
            );
        }
        self.recorder = Some(recorder);
        self
    }

    /// Cache-mutex access with poison **recovery**. Every cache
    /// operation leaves its collections structurally valid even when
    /// interrupted by a panic (they are plain `Vec`/`VecDeque` edits of
    /// `Arc` payloads), and every cached artifact is a pure function of
    /// its key — so the worst a poisoned cache can carry is a missed
    /// hit or an extra entry, never a wrong answer. Recovering via
    /// `into_inner` is therefore sound, and one panicked query cannot
    /// cascade into panics on every later query.
    pub(crate) fn cache_lock(&self) -> std::sync::MutexGuard<'_, EngineCache> {
        self.cache
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Published-state read with poison recovery: the `RwLock` only
    /// ever holds a complete `Arc<EpochState>` (writers assign a
    /// fully-built value), so the stored state is valid even if some
    /// holder panicked — `into_inner` recovery is sound.
    pub(crate) fn state_read(&self) -> Arc<EpochState<P>> {
        Arc::clone(
            &self
                .current
                .read()
                .unwrap_or_else(std::sync::PoisonError::into_inner),
        )
    }

    fn state_write(&self) -> std::sync::RwLockWriteGuard<'_, Arc<EpochState<P>>> {
        self.current
            .write()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Writer-mutex access. Poisoning here is **not** recoverable: a
    /// panic mid-[`MetricDbscan::ingest`] (typically a panicking user
    /// metric) can leave the chunked store and the incremental net out
    /// of sync, so the pending batches are quarantined. Fallible
    /// callers surface [`DbscanError::Poisoned`]; pure read paths fall
    /// back to the last published epoch, which is always consistent.
    pub(crate) fn writer_lock(
        &self,
    ) -> Result<std::sync::MutexGuard<'_, Option<IngestState<P>>>, DbscanError> {
        self.writer
            .lock()
            .map_err(|_| DbscanError::Poisoned("ingest writer"))
    }

    pub(crate) fn state(&self) -> Arc<EpochState<P>> {
        let state = self.state_read();
        if self.pending_epoch.load(Ordering::Acquire) == state.epoch {
            return state;
        }
        self.publish_pending()
    }

    /// The lazy half of [`MetricDbscan::ingest`]: flattens the writer's
    /// pending batches into a published [`EpochState`]. Runs on the
    /// first read after a batch — one O(n) clone pass (zero distance
    /// evaluations) no matter how many batches piled up since the last
    /// read, which is what makes point-at-a-time feeding O(n) total in
    /// copies instead of O(n²).
    #[cold]
    fn publish_pending(&self) -> Arc<EpochState<P>> {
        match self.writer_lock() {
            Ok(writer) => self.publish_locked(&writer),
            // A poisoned writer quarantines its pending batches (see
            // [`DbscanError::Poisoned`]); readers keep serving the last
            // published epoch, which is always consistent.
            Err(_) => self.state_read(),
        }
    }

    /// As [`MetricDbscan::state`], for callers that already hold the
    /// writer lock (the persistence path, which must serialize a frozen
    /// writer alongside the published state).
    pub(crate) fn publish_locked(&self, writer: &Option<IngestState<P>>) -> Arc<EpochState<P>> {
        let current = self.state_read();
        let Some(live) = writer.as_ref() else {
            return current;
        };
        if live.epoch == current.epoch {
            return current;
        }
        let state = Arc::new(EpochState {
            epoch: live.epoch,
            points: live.store.flatten(),
            net: Arc::new(live.net.to_net()),
        });
        *self.state_write() = Arc::clone(&state);
        self.publishes.fetch_add(1, Ordering::Relaxed);
        state
    }

    /// Pins the current epoch: the returned [`EngineSnapshot`] keeps
    /// answering from this exact point set and net no matter how many
    /// ingests happen after. Cheap (one `Arc` clone) and lock-free on
    /// the query path.
    pub fn snapshot(&self) -> EngineSnapshot<'_, P, M> {
        EngineSnapshot {
            engine: self,
            state: self.state(),
        }
    }

    /// The current epoch (0 at build; +1 per non-empty ingest batch).
    /// Reading the epoch never forces a pending publication.
    pub fn epoch(&self) -> u64 {
        self.pending_epoch.load(Ordering::Acquire)
    }

    /// Total points at the current epoch (pending batches included;
    /// never forces a publication). When the writer was poisoned by a
    /// panicked ingest, the count of the last published epoch is
    /// reported — the pending batches are quarantined.
    pub fn num_points(&self) -> usize {
        match self.writer.lock() {
            Ok(writer) => match writer.as_ref() {
                Some(live) => live.store.len(),
                None => self.state_read().points.len(),
            },
            Err(_) => self.state_read().points.len(),
        }
    }

    /// Epoch publications performed so far — the O(n) store/cover
    /// flattens a first post-batch read pays. `ingest` itself never
    /// flattens, so a point-at-a-time feeder followed by one query
    /// publishes once, not once per point.
    pub fn publish_count(&self) -> u64 {
        self.publishes.load(Ordering::Relaxed)
    }

    /// A handle to the current epoch's point snapshot. Shared (a
    /// refcount bump) for every engine built or ingested in-process;
    /// an engine whose points alias a zero-copy loaded artifact pays
    /// one clone pass here to materialize the `Arc` — engine-internal
    /// paths never do.
    pub fn points_arc(&self) -> Arc<[P]> {
        self.state().points.to_arc()
    }

    /// Copied-bytes accounting from the artifact load that produced
    /// this engine, or `None` for engines built in-process. A
    /// zero-copy load (aligned artifact, [`mdbscan_metric::VectorBlock`]
    /// workload via the self-contained API) reports point and metric
    /// copied bytes independent of the dataset size.
    pub fn load_stats(&self) -> Option<crate::persist::LoadStats> {
        self.load_stats
    }

    /// The metric the engine owns.
    pub fn metric(&self) -> &M {
        &self.metric
    }

    /// A cheap handle to the current epoch's net.
    pub fn net_arc(&self) -> Arc<RadiusGuidedNet> {
        Arc::clone(&self.state().net)
    }

    /// The net radius `r̄` (fixed at build time).
    pub fn rbar(&self) -> f64 {
        self.rbar
    }

    /// Number of net centers `|E|` at the current epoch (pending
    /// batches included; never forces a publication). As with
    /// [`MetricDbscan::num_points`], a poisoned writer falls back to
    /// the last published epoch.
    pub fn num_centers(&self) -> usize {
        match self.writer.lock() {
            Ok(writer) => match writer.as_ref() {
                Some(live) => live.net.num_centers(),
                None => self.state_read().net.centers.len(),
            },
            Err(_) => self.state_read().net.centers.len(),
        }
    }

    /// The default thread knob (set at build time).
    pub fn parallel(&self) -> ParallelConfig {
        self.parallel
    }

    /// The default pruning policy (set at build time).
    pub fn pruning(&self) -> PruningConfig {
        self.pruning
    }

    /// The candidate-generation machinery (set at build time).
    pub fn candidate_index(&self) -> CandidateIndex {
        self.candidate_index
    }

    /// Snapshot of the cache counters and occupancy.
    pub fn cache_stats(&self) -> CacheStats {
        let cache = self.cache_lock();
        CacheStats {
            hits: cache.fragments.hits + cache.covertree.hits,
            misses: cache.fragments.misses + cache.covertree.misses,
            upgrades: cache.upgrades,
            entries: cache.fragments.entries.len(),
            covertree_cached: !cache.covertree.entries.is_empty(),
            adjacency_hits: cache.adjacency.hits,
            adjacency_misses: cache.adjacency.misses,
            adjacency_entries: cache.adjacency.entries.len(),
            grid_hits: cache.grids.hits,
            grid_misses: cache.grids.misses,
            grid_entries: cache.grids.entries.len(),
            rp_hits: cache.rps.hits,
            rp_misses: cache.rps.misses,
            rp_entries: cache.rps.entries.len(),
        }
    }

    /// Approximate heap bytes held by every cached artifact: fragment
    /// and summary entries, center adjacencies, cover trees, grid
    /// indexes and random-projection indexes (diagnostic, for capacity
    /// tuning). An artifact shared by two entries counts twice.
    pub fn cache_heap_bytes(&self) -> usize {
        let cache = self.cache_lock();
        cache.fragments.heap_bytes(CachedArtifacts::heap_bytes)
            + cache.adjacency.heap_bytes(|a| a.heap_bytes())
            + cache.covertree.heap_bytes(|t| t.heap_bytes())
            + cache.grids.heap_bytes(|g| g.heap_bytes())
            + cache.rps.heap_bytes(|r| r.heap_bytes())
    }

    /// Drops every cached artifact (fragment/summary entries, cached
    /// adjacencies, grid indexes, random-projection indexes, and the
    /// whole-input cover trees). Counters and the ingest delta history
    /// are preserved.
    pub fn clear_cache(&self) {
        let mut cache = self.cache_lock();
        cache.fragments.entries.clear();
        cache.adjacency.entries.clear();
        cache.covertree.entries.clear();
        cache.grids.entries.clear();
        cache.rps.entries.clear();
    }

    /// Reports one cache lookup to the recorder, if any. Observational
    /// only — the lookup has already updated its own counters.
    fn record_cache_event(&self, hit: bool) {
        if let Some(rec) = &self.recorder {
            rec.event(
                if hit {
                    Event::CacheHit
                } else {
                    Event::CacheMiss
                },
                1,
            );
        }
    }

    /// Start of an artifact save, for the `ArtifactSave` phase; `None`
    /// without a recorder (the save paths live in `persist.rs`).
    pub(crate) fn record_save_start(&self) -> Option<Instant> {
        self.recorder.as_ref().map(|_| Instant::now())
    }

    /// End of a successful artifact save.
    pub(crate) fn record_save_done(&self, started: Option<Instant>) {
        if let (Some(rec), Some(t)) = (&self.recorder, started) {
            rec.phase(Phase::ArtifactSave, t.elapsed());
        }
    }

    /// Exact metric DBSCAN (§3.1) at the current epoch; see
    /// [`EngineSnapshot::exact`].
    pub fn exact(&self, params: &DbscanParams) -> Result<Run, DbscanError> {
        self.snapshot().exact(params)
    }

    /// Exact metric DBSCAN with explicit configuration at the current
    /// epoch; see [`EngineSnapshot::exact_with`].
    pub fn exact_with(&self, params: &DbscanParams, cfg: &ExactConfig) -> Result<Run, DbscanError> {
        self.snapshot().exact_with(params, cfg)
    }

    /// ρ-approximate DBSCAN (Algorithm 2) at the current epoch; see
    /// [`EngineSnapshot::approx`].
    pub fn approx(&self, params: &ApproxParams) -> Result<Run, DbscanError> {
        self.snapshot().approx(params)
    }

    /// Exact DBSCAN via a cover-tree-derived net (§3.2) at the current
    /// epoch; see [`EngineSnapshot::covertree`].
    pub fn covertree(&self, params: &DbscanParams) -> Result<Run, DbscanError> {
        self.snapshot().covertree(params)
    }

    /// As [`MetricDbscan::covertree`], with explicit configuration.
    pub fn covertree_with(
        &self,
        params: &DbscanParams,
        cfg: &ExactConfig,
    ) -> Result<Run, DbscanError> {
        self.snapshot().covertree_with(params, cfg)
    }
}

impl<P: Clone + Sync, M: BatchMetric<P>> MetricDbscan<P, M> {
    /// Ingests one point; see [`MetricDbscan::ingest`].
    pub fn ingest_one(&self, point: P) -> Result<IngestReport, DbscanError> {
        self.ingest(std::iter::once(point))
    }

    /// Appends a batch of points and assigns a new epoch.
    ///
    /// The net is maintained by the radius-guided first-fit rule
    /// (streaming pass 1): each point joins the ball of the first
    /// center within `r̄`, else becomes a new center — so its
    /// `dis(p, c_p)` pruning anchor is recorded exactly like at build
    /// time. Writers are serialized behind one mutex; concurrent
    /// readers keep answering from their epoch's snapshot throughout
    /// and observe the new epoch only on their next query. An empty
    /// batch assigns nothing.
    ///
    /// The per-ingest cost is proportional to the **batch**, not to
    /// `n`: the first-fit scan walks the chunked store in place, and
    /// the O(n) flatten into a contiguous published snapshot (a clone
    /// pass — zero distance evaluations) is deferred to the first read
    /// after the batch. Feeding one point at a time is therefore O(n)
    /// total in copies, not O(n²). Reads that only inspect counters
    /// ([`MetricDbscan::epoch`], [`MetricDbscan::num_points`],
    /// [`MetricDbscan::num_centers`]) never force the publication.
    ///
    /// For engines built with [`NetStrategy::RadiusGuided`] the result
    /// is bit-identical to a fresh build over the concatenated
    /// sequence, for any batch split (the module-level determinism
    /// contract) — lazy publication changes *when* the snapshot is
    /// materialized, never what it contains.
    ///
    /// # Errors
    ///
    /// [`DbscanError::Poisoned`] when an earlier ingest panicked
    /// mid-mutation (a panicking user metric, typically): the writer
    /// state can no longer be trusted, so further mutation is refused.
    /// Queries keep serving the last published epoch.
    pub fn ingest(&self, points: impl IntoIterator<Item = P>) -> Result<IngestReport, DbscanError> {
        let batch: Vec<P> = points.into_iter().collect();
        let ingest_started = self.recorder.as_ref().map(|_| Instant::now());
        let mut writer = self.writer_lock()?;
        if batch.is_empty() {
            return Ok(match writer.as_ref() {
                Some(live) => IngestReport {
                    epoch: live.epoch,
                    added_points: 0,
                    new_centers: 0,
                    dirty_balls: 0,
                    num_points: live.store.len(),
                    num_centers: live.net.num_centers(),
                    covered: live.net.covered(),
                },
                None => {
                    let state = self.state_read();
                    IngestReport {
                        epoch: state.epoch,
                        added_points: 0,
                        new_centers: 0,
                        dirty_balls: 0,
                        num_points: state.points.len(),
                        num_centers: state.net.centers.len(),
                        covered: state.net.covered,
                    }
                }
            });
        }
        let live = writer.get_or_insert_with(|| {
            // Writer was never initialized, so nothing is pending and
            // `current` is exactly the engine's latest state.
            let state = self.state_read();
            IngestState {
                store: ChunkedStore::from_initial(state.points.clone()),
                net: IncrementalNet::from_net(&state.net, self.max_centers),
                epoch: state.epoch,
            }
        });
        let first = live.store.len();
        live.store.append(batch);
        let delta = live.net.ingest_from(&live.store, first, &self.metric);
        live.epoch += 1;
        let epoch = live.epoch;
        {
            let mut cache = self.cache_lock();
            cache.deltas.push_back(EpochDelta {
                epoch,
                old_num_points: first,
                dirty_balls: delta.dirty_balls.clone(),
            });
            while cache.deltas.len() > DELTA_HISTORY {
                cache.deltas.pop_front();
            }
        }
        self.pending_epoch.store(epoch, Ordering::Release);
        let report = IngestReport {
            epoch,
            added_points: delta.added_points,
            new_centers: delta.new_centers,
            dirty_balls: delta.dirty_balls.len(),
            num_points: live.store.len(),
            num_centers: live.net.num_centers(),
            covered: live.net.covered(),
        };
        if let (Some(rec), Some(started)) = (&self.recorder, ingest_started) {
            rec.phase(Phase::IngestBatch, started.elapsed());
            rec.event(Event::PointsIngested, report.added_points as u64);
        }
        Ok(report)
    }

    /// Streaming ρ-approximate DBSCAN (Algorithm 3) replayed over the
    /// current epoch's points; see [`EngineSnapshot::streaming`].
    pub fn streaming(&self, params: &ApproxParams) -> Result<Run, DbscanError> {
        self.snapshot().streaming(params)
    }

    /// Opens a fresh Algorithm-3 session borrowing the engine's metric,
    /// thread knob, and pruning policy, to be driven pass-by-pass over
    /// an **external** stream (`pass1_observe* → finish_pass1 →
    /// pass2_observe* → finish_pass2 → pass3_label*`). The session
    /// stores only `O((Δ/ρε)^D + z)` points — it never touches the
    /// engine's own data.
    pub fn streaming_session(&self, params: &ApproxParams) -> StreamingApproxDbscan<'_, P, M> {
        StreamingApproxDbscan::new(&self.metric, params)
            .with_parallel(self.parallel)
            .with_pruning(self.pruning)
    }
}

/// One pinned epoch of a [`MetricDbscan`]: an immutable point snapshot
/// plus its net, answering the same four entry points as the engine —
/// always from this epoch, regardless of later ingests. Obtained via
/// [`MetricDbscan::snapshot`]; cheap to take and to drop.
pub struct EngineSnapshot<'e, P, M> {
    pub(crate) engine: &'e MetricDbscan<P, M>,
    pub(crate) state: Arc<EpochState<P>>,
}

impl<'e, P: Clone + Sync, M: BatchMetric<P>> EngineSnapshot<'e, P, M> {
    /// The epoch this snapshot pins.
    pub fn epoch(&self) -> u64 {
        self.state.epoch
    }

    /// The snapshot's points.
    pub fn points(&self) -> &[P] {
        &self.state.points
    }

    /// Number of points at this epoch.
    pub fn num_points(&self) -> usize {
        self.state.points.len()
    }

    /// The snapshot's net.
    pub fn net(&self) -> &RadiusGuidedNet {
        &self.state.net
    }

    /// Number of net centers `|E|` at this epoch.
    pub fn num_centers(&self) -> usize {
        self.state.net.centers.len()
    }

    fn view(&self) -> NetView<'_> {
        NetView::of(&self.state.net)
    }

    fn check_usable(&self, limit: f64) -> Result<(), DbscanError> {
        if !self.state.net.covered {
            return Err(DbscanError::IndexNotCovering);
        }
        if self.state.net.rbar > limit * (1.0 + 1e-9) {
            return Err(DbscanError::IndexTooCoarse {
                rbar: self.state.net.rbar,
                limit,
            });
        }
        Ok(())
    }

    #[allow(clippy::too_many_arguments)]
    fn report(
        &self,
        algorithm: AlgorithmKind,
        t0: Instant,
        hit: bool,
        pruning: PruneStats,
        candidates: CandidateStats,
        rp: RpStats,
        detail: RunDetail,
    ) -> RunReport {
        let stats = self.engine.cache_stats();
        let report = RunReport {
            algorithm,
            epoch: self.state.epoch,
            total_secs: t0.elapsed().as_secs_f64(),
            cache_hit: hit,
            cache_hits: stats.hits,
            cache_misses: stats.misses,
            pruning,
            candidates,
            rp,
            detail,
        };
        if let Some(rec) = &self.engine.recorder {
            record_run_phases(rec.as_ref(), &report);
        }
        report
    }

    /// Resolves this snapshot's ε-aligned grid index, or `None` to stay
    /// on the generic path: the engine must have opted into
    /// [`CandidateIndex::Grid`] *and* the metric must expose a
    /// coordinate view of dimension `1..=GRID_MAX_DIM`. Grids are cached
    /// per cell side; see [`EngineSnapshot::resolve_coords`].
    fn resolve_grid(&self, eps: f64) -> Option<Arc<GridIndex>> {
        if self.engine.candidate_index != CandidateIndex::Grid {
            return None;
        }
        let dim = self.engine.metric.grid_coords(&[], &mut Vec::new())?;
        if dim == 0 || dim > GRID_MAX_DIM {
            return None;
        }
        let cell = eps / (dim as f64).sqrt();
        Some(self.resolve_coords(
            dim,
            cell.to_bits(),
            |cache| &mut cache.grids,
            |coords| GridIndex::build(dim, cell, coords),
        ))
    }

    /// Resolves this snapshot's random-projection index, or `None` to
    /// stay on the generic path: the engine must have opted into
    /// [`CandidateIndex::RandomProjection`] *and* the metric must expose
    /// a coordinate view (any dimension). The index is ε-independent,
    /// so one entry per epoch serves every probe; the projection lists
    /// store their values, so an extended index is bit-identical to a
    /// fresh build over the concatenated sequence.
    fn resolve_rp(&self) -> Option<Arc<RpIndex>> {
        let CandidateIndex::RandomProjection(cfg) = self.engine.candidate_index else {
            return None;
        };
        let dim = self.engine.metric.grid_coords(&[], &mut Vec::new())?;
        if dim == 0 {
            return None;
        }
        Some(self.resolve_coords(
            dim,
            (),
            |cache| &mut cache.rps,
            |coords| RpIndex::build(dim, &coords, cfg),
        ))
    }

    /// Resolves a coordinate index from the cache that `lru` selects
    /// (see [`EngineSnapshot::resolve`]): a grown index absorbs the
    /// appended points' coordinates, a fresh one `build`s from them all.
    /// Either way the resolution performs **zero distance evaluations**
    /// — coordinate extraction never consults the metric.
    fn resolve_coords<K: PartialEq, I: CoordIndex>(
        &self,
        dim: usize,
        key: K,
        lru: fn(&mut EngineCache) -> &mut EpochLru<K, Arc<I>>,
        build: impl FnOnce(Vec<f64>) -> I,
    ) -> Arc<I> {
        let engine = self.engine;
        let probe_started = engine.recorder.as_ref().map(|_| Instant::now());
        let points: &[P] = &self.state.points;
        let coords = |points: &[P]| {
            let mut coords = Vec::with_capacity(points.len() * dim);
            engine.metric.grid_coords(points, &mut coords);
            coords
        };
        let (index, _) = self.resolve(lru, key, |base| match base {
            Some(base) if base.len() == points.len() => base,
            Some(base) => Arc::new(base.extend(&coords(&points[base.len()..]))),
            None => Arc::new(build(coords(points))),
        });
        if let (Some(rec), Some(t)) = (&engine.recorder, probe_started) {
            rec.phase(Phase::CandidateProbe, t.elapsed());
        }
        index
    }

    /// Looks `key` up at this epoch in the cache `lru` selects. A hit
    /// returns the cached value. A miss hands `make` the newest older
    /// epoch's value under `key` (points are append-only, so it covers
    /// a prefix; counted as an upgrade), or `None`, and caches what
    /// `make` returns. `make` runs outside the lock, so concurrent
    /// queries are not stalled behind it; racing threads make the same
    /// deterministic value. The flag is whether it was a hit.
    fn resolve<K: PartialEq, V: Clone>(
        &self,
        lru: fn(&mut EngineCache) -> &mut EpochLru<K, V>,
        key: K,
        make: impl FnOnce(Option<V>) -> V,
    ) -> (V, bool) {
        let engine = self.engine;
        let epoch = self.state.epoch;
        let found = {
            let mut cache = engine.cache_lock();
            let found = lru(&mut cache).lookup(epoch, &key, |_| true, true);
            if let Lookup::Base(..) = found {
                cache.upgrades += 1;
            }
            found
        };
        let base = match found {
            Lookup::Hit(value) => {
                engine.record_cache_event(true);
                return (value, true);
            }
            Lookup::Base(_, base) => Some(base),
            Lookup::Miss => None,
        };
        engine.record_cache_event(false);
        let value = make(base);
        lru(&mut engine.cache_lock()).insert(epoch, key, value.clone());
        (value, false)
    }

    /// Consults the epoch+`ε`-keyed adjacency cache. A same-epoch entry
    /// over `num_centers` rows is a hit; otherwise a Gonzalez-kind
    /// adjacency from an older epoch is *extended* by the new-center
    /// rows (counted as an upgrade, stored under this epoch). `None`
    /// means "build it" (and hand it back via `store_adjacency`).
    fn lookup_adjacency(
        &self,
        key: AdjKey,
        num_centers: usize,
        parallel: &ParallelConfig,
    ) -> Option<Arc<CenterAdjacency>> {
        let engine = self.engine;
        let found = {
            let mut cache = engine.cache_lock();
            // A loaded cover-tree entry cannot be checked against its net
            // at load time (the net is extracted per query), so one whose
            // rows do not match this net is a miss. Centers are
            // append-only, so an older Gonzalez entry covers a prefix.
            let found = cache.adjacency.lookup(
                self.state.epoch,
                &key,
                |adj| adj.len() == num_centers,
                key.kind == NetKind::Gonzalez,
            );
            if let Lookup::Base(..) = found {
                cache.upgrades += 1;
            }
            found
        };
        engine.record_cache_event(matches!(found, Lookup::Hit(_)));
        let base = match found {
            Lookup::Hit(adj) => return Some(adj),
            Lookup::Base(_, base) => base,
            Lookup::Miss => return None,
        };
        let centers = &self.state.net.centers;
        let extended = if base.len() == centers.len() {
            // No new centers since the base epoch: the adjacency is
            // identical (membership depends only on the center set).
            base
        } else {
            Arc::new(CenterAdjacency::extend(
                &base,
                &self.state.points,
                &engine.metric,
                centers,
                parallel,
            ))
        };
        self.store_adjacency(key, &extended);
        Some(extended)
    }

    fn store_adjacency(&self, key: AdjKey, adjacency: &Arc<CenterAdjacency>) {
        self.engine
            .cache_lock()
            .adjacency
            .insert(self.state.epoch, key, Arc::clone(adjacency));
    }

    /// Shared Steps-1–3 driver with fragment- and adjacency-cache
    /// consultation, plus cross-epoch incremental upgrades.
    fn run_steps_cached(
        &self,
        view: &NetView<'_>,
        params: &DbscanParams,
        cfg: &ExactConfig,
        kind: NetKind,
        level: i32,
        grid: Option<Arc<GridIndex>>,
    ) -> (Clustering, ExactStats, bool) {
        let engine = self.engine;
        // Without the dense shortcut `dense_cores` means something else,
        // so only runs with it read or write the cache.
        let cacheable = cfg.dense_shortcut;
        let epoch = self.state.epoch;
        let key = CacheKey {
            kind,
            eps_bits: params.eps().to_bits(),
            min_pts: params.min_pts(),
            rho_bits: None,
        };
        // Same-epoch hit, else (Gonzalez only — cover-tree nets change
        // wholesale per epoch) an older epoch's artifacts plus the
        // ingest deltas separating them from this epoch.
        let mut upgrade_base: Option<(Arc<StepArtifacts>, Vec<u32>)> = None;
        let cached: Option<Arc<StepArtifacts>> = if cacheable {
            let mut cache = engine.cache_lock();
            // A loaded cover-tree entry cannot be checked against its net
            // at load time (the net is extracted per query), so one whose
            // rows do not match this net is a miss.
            let rows = view.num_centers();
            let found = cache.fragments.lookup(
                epoch,
                &key,
                |a| matches!(a, CachedArtifacts::Steps(s) if s.fragments.num_rows() == rows),
                kind == NetKind::Gonzalez,
            );
            let cached = match found {
                Lookup::Hit(CachedArtifacts::Steps(a)) => Some(a),
                Lookup::Base(from, CachedArtifacts::Steps(art)) => {
                    if let Some(dirty) = cache.dirty_since(from, epoch, art.is_core.len()) {
                        cache.upgrades += 1;
                        upgrade_base = Some((art, dirty));
                    }
                    None
                }
                _ => None,
            };
            drop(cache);
            engine.record_cache_event(cached.is_some());
            cached
        } else {
            None
        };
        let hit = cached.is_some();
        let adj_key = AdjKey {
            kind,
            level,
            threshold_bits: (2.0 * view.rbar + params.eps()).to_bits(),
            pruned: cfg.pruning.enabled,
        };
        let adj_cached = self.lookup_adjacency(adj_key, view.num_centers(), &cfg.parallel);
        let adj_was_cached = adj_cached.is_some();
        let outcome = run_exact_steps(
            &self.state.points,
            &engine.metric,
            view,
            params,
            cfg,
            StepsReuse {
                artifacts: cached.as_deref(),
                upgrade: upgrade_base.as_ref().map(|(art, dirty)| StepsUpgrade {
                    artifacts: art,
                    dirty_balls: dirty,
                }),
                adjacency: adj_cached,
                grid,
            },
        );
        if !adj_was_cached {
            self.store_adjacency(adj_key, &outcome.adjacency);
        }
        if cacheable {
            if let Some(artifacts) = outcome.fresh_artifacts {
                engine.cache_lock().fragments.insert(
                    epoch,
                    key,
                    CachedArtifacts::Steps(Arc::new(artifacts)),
                );
            }
        }
        (Clustering::from_labels(outcome.labels), outcome.stats, hit)
    }

    /// Exact metric DBSCAN (§3.1) at this snapshot's epoch, with the
    /// engine's default configuration. Requires `r̄ ≤ ε/2`.
    pub fn exact(&self, params: &DbscanParams) -> Result<Run, DbscanError> {
        let cfg = ExactConfig {
            parallel: self.engine.parallel,
            pruning: self.engine.pruning,
            ..ExactConfig::default()
        };
        self.exact_with(params, &cfg)
    }

    /// Exact metric DBSCAN with explicit configuration (ablation toggles,
    /// pruning override, per-query thread override, distance counting).
    pub fn exact_with(&self, params: &DbscanParams, cfg: &ExactConfig) -> Result<Run, DbscanError> {
        let t0 = Instant::now();
        self.check_usable(params.eps() / 2.0)?;
        let grid = self.resolve_grid(params.eps());
        let (clustering, stats, hit) =
            self.run_steps_cached(&self.view(), params, cfg, NetKind::Gonzalez, 0, grid);
        let report = self.report(
            AlgorithmKind::Exact,
            t0,
            hit,
            stats.pruning,
            stats.candidates,
            RpStats::default(),
            RunDetail::Exact(stats),
        );
        Ok(Run { clustering, report })
    }

    /// ρ-approximate DBSCAN (Algorithm 2). Requires `r̄ ≤ ρε/2`.
    ///
    /// Repeated probes at the same `(epoch, ε, MinPts, ρ)` replay the
    /// merged summary from the artifact LRU (bit-identical labels, the
    /// summary construction and merge skipped); the `ε`-keyed adjacency
    /// cache is shared with the exact pipeline's entries at matching
    /// thresholds and extends across epochs.
    pub fn approx(&self, params: &ApproxParams) -> Result<Run, DbscanError> {
        let t0 = Instant::now();
        self.check_usable(params.rbar())?;
        let engine = self.engine;
        let view = self.view();
        let epoch = self.state.epoch;
        let key = CacheKey {
            kind: NetKind::Gonzalez,
            eps_bits: params.eps().to_bits(),
            min_pts: params.min_pts(),
            rho_bits: Some(params.rho().to_bits()),
        };
        let found = engine.cache_lock().fragments.lookup(
            epoch,
            &key,
            |a| matches!(a, CachedArtifacts::Approx(_)),
            false,
        );
        let cached = match found {
            Lookup::Hit(CachedArtifacts::Approx(a)) => Some(a),
            _ => None,
        };
        engine.record_cache_event(cached.is_some());
        let hit = cached.is_some();
        let adj_key = AdjKey {
            kind: NetKind::Gonzalez,
            level: 0,
            threshold_bits: approx_threshold(view.rbar, params).to_bits(),
            pruned: engine.pruning.enabled,
        };
        let adj_cached = self.lookup_adjacency(adj_key, view.num_centers(), &engine.parallel);
        let adj_was_cached = adj_cached.is_some();
        let grid = self.resolve_grid(params.eps());
        let rp = self.resolve_rp();
        let outcome = run_approx(
            &self.state.points,
            &engine.metric,
            &view,
            params,
            &engine.parallel,
            &engine.pruning,
            ApproxReuse {
                artifacts: cached.as_deref(),
                adjacency: adj_cached,
                grid,
                rp,
            },
        );
        if !adj_was_cached {
            self.store_adjacency(adj_key, &outcome.adjacency);
        }
        if let Some(artifacts) = outcome.fresh_artifacts {
            engine.cache_lock().fragments.insert(
                epoch,
                key,
                CachedArtifacts::Approx(Arc::new(artifacts)),
            );
        }
        let report = self.report(
            AlgorithmKind::Approx,
            t0,
            hit,
            outcome.stats.pruning,
            outcome.stats.candidates,
            outcome.stats.rp,
            RunDetail::Approx(outcome.stats),
        );
        Ok(Run {
            clustering: Clustering::from_labels(outcome.labels),
            report,
        })
    }

    /// Exact DBSCAN via a cover-tree-derived net (§3.2, Theorem 1), with
    /// the engine's default configuration.
    pub fn covertree(&self, params: &DbscanParams) -> Result<Run, DbscanError> {
        let cfg = ExactConfig {
            parallel: self.engine.parallel,
            pruning: self.engine.pruning,
            ..ExactConfig::default()
        };
        self.covertree_with(params, &cfg)
    }

    /// As [`EngineSnapshot::covertree`], with explicit configuration.
    ///
    /// Unlike [`EngineSnapshot::exact`] this path does not depend on
    /// `r̄`: the whole-input cover tree is built lazily on the first
    /// call (sequentially — inserts depend on the evolving tree) and
    /// cached per epoch. Across epochs the cached tree **grows by
    /// insertion** of the new points — the grown tree is bit-identical
    /// to a from-scratch build, because building *is* sequential
    /// insertion in index order — after which any `ε` reads its net off
    /// the cached skeleton by reference and evaluates `n` distances, one
    /// per point for its anchor `dis(p, c_p)`.
    pub fn covertree_with(
        &self,
        params: &DbscanParams,
        cfg: &ExactConfig,
    ) -> Result<Run, DbscanError> {
        let t0 = Instant::now();
        let engine = self.engine;
        let n = self.state.points.len();
        let t = Instant::now();
        let (skeleton, tree_hit) = self.resolve(
            |cache| &mut cache.covertree,
            (),
            |base| {
                let tree = match base {
                    Some(base) => {
                        let from = base.len();
                        let mut tree = CoverTree::from_skeleton(
                            &self.state.points,
                            &engine.metric,
                            (*base).clone(),
                        );
                        for i in from..n {
                            tree.insert(i);
                        }
                        tree
                    }
                    None => CoverTree::build(&self.state.points, &engine.metric),
                };
                Arc::new(tree.into_skeleton())
            },
        );
        let tree_secs = t.elapsed().as_secs_f64();

        let level = covertree_level(params.eps());
        let t = Instant::now();
        let net = CoverTreeNet::extract(&skeleton, &self.state.points, &engine.metric, level);
        let net_secs = t.elapsed().as_secs_f64();
        let grid = self.resolve_grid(params.eps());
        let (clustering, steps, frag_hit) =
            self.run_steps_cached(&net.view(), params, cfg, NetKind::CoverTree, level, grid);
        let detail = RunDetail::CoverTree(CoverTreeExactStats {
            tree_secs,
            net_secs,
            level,
            n_centers: net.centers.len(),
            steps,
        });
        let report = self.report(
            AlgorithmKind::CoverTree,
            t0,
            tree_hit || frag_hit,
            steps.pruning,
            steps.candidates,
            RpStats::default(),
            detail,
        );
        Ok(Run { clustering, report })
    }
}

impl<'e, P: Clone + Sync, M: BatchMetric<P>> EngineSnapshot<'e, P, M> {
    /// Streaming ρ-approximate DBSCAN (Algorithm 3) replayed over this
    /// snapshot's points — three in-memory passes with the same
    /// validation and labeling semantics a true stream would see. Useful
    /// for cross-checking a deployment's streaming parameters against a
    /// held dataset; for unbounded external streams use
    /// [`MetricDbscan::streaming_session`].
    pub fn streaming(&self, params: &ApproxParams) -> Result<Run, DbscanError> {
        let t0 = Instant::now();
        let engine = self.engine;
        let rp = self.resolve_rp();
        let (clustering, session) = StreamingApproxDbscan::run_indexed(
            &engine.metric,
            params,
            &engine.parallel,
            &engine.pruning,
            rp,
            || self.state.points.iter().cloned(),
        )?;
        let stats = session.stats();
        let detail = RunDetail::Streaming {
            stats,
            footprint: session.footprint(),
        };
        let report = self.report(
            AlgorithmKind::Streaming,
            t0,
            false,
            stats.pruning,
            CandidateStats::default(),
            stats.rp,
            detail,
        );
        Ok(Run { clustering, report })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdbscan_metric::Euclidean;

    fn grid() -> Vec<Vec<f64>> {
        let mut v = Vec::new();
        for i in 0..12 {
            for j in 0..12 {
                v.push(vec![i as f64, j as f64]);
            }
        }
        v
    }

    fn engine(rbar: f64) -> MetricDbscan<Vec<f64>, Euclidean> {
        MetricDbscan::builder(grid(), Euclidean)
            .rbar(rbar)
            .build()
            .unwrap()
    }

    #[test]
    fn engine_is_send_sync_and_arc_shareable() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<MetricDbscan<Vec<f64>, Euclidean>>();
        assert_send_sync::<Arc<MetricDbscan<String, mdbscan_metric::Levenshtein>>>();
    }

    #[test]
    fn builder_validation() {
        let empty: Vec<Vec<f64>> = Vec::new();
        assert!(matches!(
            MetricDbscan::builder(empty, Euclidean).rbar(0.5).build(),
            Err(DbscanError::EmptyInput)
        ));
        assert!(matches!(
            MetricDbscan::builder(grid(), Euclidean).build(),
            Err(DbscanError::RadiusNotSet)
        ));
        assert!(matches!(
            MetricDbscan::builder(grid(), Euclidean).rbar(-2.0).build(),
            Err(DbscanError::InvalidRadius(_))
        ));
        assert!(matches!(
            MetricDbscan::builder(grid(), Euclidean)
                .rbar(f64::NAN)
                .build(),
            Err(DbscanError::InvalidRadius(_))
        ));
        assert!(matches!(
            MetricDbscan::builder(grid(), Euclidean)
                .rbar(0.5)
                .first_center(10_000)
                .build(),
            Err(DbscanError::InvalidFirstCenter { .. })
        ));
    }

    #[test]
    fn coarse_and_truncated_nets_rejected() {
        let e = engine(2.0);
        assert!(matches!(
            e.exact(&DbscanParams::new(1.5, 4).unwrap()),
            Err(DbscanError::IndexTooCoarse { .. })
        ));
        assert!(e.exact(&DbscanParams::new(4.0, 4).unwrap()).is_ok());
        let truncated = MetricDbscan::builder(grid(), Euclidean)
            .rbar(0.4)
            .max_centers(2)
            .build()
            .unwrap();
        assert!(matches!(
            truncated.exact(&DbscanParams::new(1.0, 4).unwrap()),
            Err(DbscanError::IndexNotCovering)
        ));
    }

    #[test]
    fn repeated_query_hits_fragment_cache_with_identical_labels() {
        let e = engine(0.5);
        let params = DbscanParams::new(1.0, 4).unwrap();
        let cold = e.exact(&params).unwrap();
        assert!(!cold.report.cache_hit);
        assert_eq!(cold.report.cache_misses, 1);
        assert_eq!(cold.report.epoch, 0);
        let warm = e.exact(&params).unwrap();
        assert!(warm.report.cache_hit);
        assert_eq!(warm.report.cache_hits, 1);
        assert_eq!(cold.clustering, warm.clustering);
        // A different (ε, MinPts) misses, then hits on repeat.
        let params2 = DbscanParams::new(2.0, 6).unwrap();
        assert!(!e.exact(&params2).unwrap().report.cache_hit);
        assert!(e.exact(&params2).unwrap().report.cache_hit);
        let stats = e.cache_stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (2, 2, 2));
        assert!(e.cache_heap_bytes() > 0);
        e.clear_cache();
        assert_eq!(e.cache_stats().entries, 0);
    }

    /// A hit on an entry that carries Step 2's component map runs Step 3
    /// only: no BCP test and no Step-2 distance evaluation, on both the
    /// §3.1 and the §3.2 pipelines.
    #[test]
    fn hit_with_component_map_skips_step2() {
        let e = engine(0.5);
        let params = DbscanParams::new(1.0, 4).unwrap();
        // Pruning off, so the cold run has real BCP tests to skip.
        let cfg = ExactConfig {
            pruning: PruningConfig::off(),
            count_distance_evals: true,
            ..ExactConfig::default()
        };
        for covertree in [false, true] {
            let run = || {
                if covertree {
                    e.covertree_with(&params, &cfg).unwrap()
                } else {
                    e.exact_with(&params, &cfg).unwrap()
                }
            };
            let cold = run();
            let s = *cold.report.exact_stats().unwrap();
            assert!(
                s.bcp_tests > 0 && s.merge_evals > 0,
                "covertree={covertree}"
            );
            let warm = run();
            assert!(warm.report.cache_hit);
            let s = warm.report.exact_stats().unwrap();
            assert_eq!(
                (s.bcp_tests, s.merge_evals),
                (0, 0),
                "covertree={covertree}"
            );
            assert_eq!(cold.clustering, warm.clustering);
        }
    }

    /// A streaming-only RP engine holds one RP index and nothing else:
    /// the heap total must count it.
    #[test]
    fn cache_heap_bytes_counts_every_kind() {
        let block = mdbscan_metric::VectorBlock::<f64>::from_rows(&grid());
        let e = MetricDbscan::builder(block.ids(), block)
            .rbar(0.25)
            .candidate_index(CandidateIndex::RandomProjection(RpConfig::new(7)))
            .build()
            .unwrap();
        assert_eq!(e.cache_heap_bytes(), 0);
        e.streaming(&ApproxParams::new(1.0, 3, 0.5).unwrap())
            .unwrap();
        let stats = e.cache_stats();
        assert_eq!((stats.entries, stats.rp_entries), (0, 1));
        assert!(e.cache_heap_bytes() > 0);
    }

    #[test]
    fn cache_capacity_zero_disables_caching() {
        let e = MetricDbscan::builder(grid(), Euclidean)
            .rbar(0.5)
            .cache_capacity(0)
            .build()
            .unwrap();
        let params = DbscanParams::new(1.0, 4).unwrap();
        let a = e.exact(&params).unwrap();
        let b = e.exact(&params).unwrap();
        assert!(!b.report.cache_hit);
        assert_eq!(a.clustering, b.clustering);
    }

    #[test]
    fn lru_evicts_oldest_entry() {
        let e = MetricDbscan::builder(grid(), Euclidean)
            .rbar(0.5)
            .cache_capacity(2)
            .build()
            .unwrap();
        let p1 = DbscanParams::new(1.0, 4).unwrap();
        let p2 = DbscanParams::new(1.5, 4).unwrap();
        let p3 = DbscanParams::new(2.0, 4).unwrap();
        e.exact(&p1).unwrap();
        e.exact(&p2).unwrap();
        e.exact(&p3).unwrap(); // evicts p1
        assert_eq!(e.cache_stats().entries, 2);
        assert!(!e.exact(&p1).unwrap().report.cache_hit, "p1 was evicted");
        assert!(e.exact(&p3).unwrap().report.cache_hit, "p3 is resident");
    }

    #[test]
    fn all_four_entry_points_agree_where_they_should() {
        let pts = grid();
        let e = MetricDbscan::builder(pts.clone(), Euclidean)
            .rbar(0.5)
            .build()
            .unwrap();
        let params = DbscanParams::new(1.0, 4).unwrap();
        let exact = e.exact(&params).unwrap();
        let tree = e.covertree(&params).unwrap();
        // Both are exact solvers: identical partition.
        assert!(exact.clustering.same_partition(&tree.clustering));
        assert_eq!(tree.report.algorithm, AlgorithmKind::CoverTree);
        // Second covertree call reuses the whole-input tree.
        let tree2 = e.covertree(&params).unwrap();
        assert!(tree2.report.cache_hit);
        assert_eq!(tree2.clustering, tree.clustering);
        // Approx + streaming run and report their stats.
        let aparams = ApproxParams::new(1.0, 4, 1.0).unwrap();
        let approx = e.approx(&aparams).unwrap();
        assert!(approx.report.approx_stats().is_some());
        let streaming = e.streaming(&aparams).unwrap();
        assert!(streaming.report.streaming_footprint().is_some());
        assert_eq!(
            streaming.clustering.len(),
            pts.len(),
            "streaming labels every point"
        );
    }

    #[test]
    fn engine_matches_free_function() {
        let pts = grid();
        let e = MetricDbscan::builder(pts.clone(), Euclidean)
            .rbar(0.5)
            .build()
            .unwrap();
        for eps in [1.0, 1.5, 2.5] {
            let params = DbscanParams::new(eps, 4).unwrap();
            let run = e.exact(&params).unwrap();
            let fresh = crate::exact_dbscan(&pts, &Euclidean, eps, 4).unwrap();
            assert!(run.clustering.same_partition(&fresh), "eps={eps}");
        }
    }

    #[test]
    fn streaming_session_is_driveable() {
        let e = engine(0.25);
        let aparams = ApproxParams::new(1.0, 3, 0.5).unwrap();
        let mut session = e.streaming_session(&aparams);
        let stream: Vec<Vec<f64>> = (0..40).map(|i| vec![(i % 4) as f64 * 0.2, 0.0]).collect();
        for p in &stream {
            session.pass1_observe(p);
        }
        session.finish_pass1();
        for p in &stream {
            session.pass2_observe(p);
        }
        session.finish_pass2();
        assert!(session.pass3_label(&stream[0]).cluster().is_some());
    }

    #[test]
    fn ingest_bumps_epochs_and_matches_fresh_radius_guided_build() {
        let pts = grid();
        let (seed, rest) = pts.split_at(60);
        let dynamic = MetricDbscan::builder(seed.to_vec(), Euclidean)
            .rbar(0.5)
            .net_strategy(NetStrategy::RadiusGuided)
            .build()
            .unwrap();
        assert_eq!(dynamic.epoch(), 0);
        assert_eq!(
            dynamic.ingest(Vec::<Vec<f64>>::new()).unwrap().added_points,
            0
        );
        assert_eq!(dynamic.epoch(), 0, "empty batch publishes nothing");
        let report = dynamic.ingest(rest[..40].to_vec()).unwrap();
        assert_eq!((report.epoch, report.added_points), (1, 40));
        let report = dynamic.ingest_one(rest[40].clone()).unwrap();
        assert_eq!((report.epoch, report.added_points), (2, 1));
        dynamic.ingest(rest[41..].to_vec()).unwrap();
        assert_eq!(dynamic.epoch(), 3);
        assert_eq!(dynamic.num_points(), pts.len());

        let fresh = MetricDbscan::builder(pts, Euclidean)
            .rbar(0.5)
            .net_strategy(NetStrategy::RadiusGuided)
            .build()
            .unwrap();
        assert_eq!(dynamic.net_arc().centers, fresh.net_arc().centers);
        let params = DbscanParams::new(1.0, 4).unwrap();
        assert_eq!(
            dynamic.exact(&params).unwrap().clustering,
            fresh.exact(&params).unwrap().clustering
        );
    }

    #[test]
    fn old_snapshot_unaffected_by_ingest_and_caches_do_not_cross_epochs() {
        let pts = grid();
        let (seed, rest) = pts.split_at(100);
        let e = MetricDbscan::builder(seed.to_vec(), Euclidean)
            .rbar(0.5)
            .net_strategy(NetStrategy::RadiusGuided)
            .build()
            .unwrap();
        let params = DbscanParams::new(1.0, 4).unwrap();
        let snap0 = e.snapshot();
        let before = snap0.exact(&params).unwrap();
        assert!(!before.report.cache_hit);

        e.ingest(rest.to_vec()).unwrap();
        // The pinned snapshot still answers from epoch 0, as a cache hit.
        let again = snap0.exact(&params).unwrap();
        assert_eq!(again.report.epoch, 0);
        assert!(again.report.cache_hit, "same-epoch artifacts are resident");
        assert_eq!(before.clustering, again.clustering);
        assert_eq!(snap0.num_points(), 100);

        // The engine's current epoch must not hit epoch-0 artifacts...
        let after = e.exact(&params).unwrap();
        assert_eq!(after.report.epoch, 1);
        assert!(!after.report.cache_hit, "hits never cross epochs");
        // ...but may upgrade them incrementally.
        assert!(e.cache_stats().upgrades > 0, "expected incremental reuse");
        assert_eq!(after.clustering.len(), pts.len());
    }
}
