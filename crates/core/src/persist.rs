//! Engine persistence: [`MetricDbscan::save`] / [`MetricDbscan::load`]
//! and [`EngineSnapshot::save`] over the `mdbscan_persist` artifact
//! format.
//!
//! A saved engine round-trips **everything** a restarted process needs
//! to answer — and keep ingesting — exactly as if it never died:
//!
//! * the contiguous point snapshot (via `PersistPoint`);
//! * the `r̄`-net: centers, assignment, the exact `dis(p, c_p)`
//!   anchors, the flat cover sets, and the covering flag;
//! * the writer's first-center anchor distances, so post-load ingests
//!   pay exactly the evaluations an unrestarted engine would;
//! * the ingest delta history (dirty-ball lists), so cross-epoch
//!   incremental upgrades keep working across the restart;
//! * the entries of three caches, in LRU order with their epochs and
//!   keys: the `ε`-keyed center adjacencies with their lo/hi edge
//!   bounds, the Step-1/2 and summary artifacts (Step 2's
//!   fragment→component map in its own section), and the whole-input
//!   §3.2 trees;
//! * the engine configuration (radius, strategy, pruning policy,
//!   candidate index, cache capacities) and the lifetime counters of
//!   all five caches.
//!
//! The grid and random-projection indexes themselves are never
//! written — only their capacities and counters are: rebuilding them
//! is pure coordinate arithmetic with zero distance evaluations.
//!
//! Loading performs **zero distance evaluations** — every number above
//! is plain recorded data — and the loaded engine's contract is *bit
//! identity*: every solver returns the same labels, the same evaluation
//! counts, and the same cache-hit behavior the saving engine would
//! have produced, and a post-load `ingest` continues the radius-guided
//! determinism contract seamlessly. The only knob that intentionally
//! does not travel is [`ParallelConfig`]: thread counts are a property
//! of the host, not of the artifact, and labels are identical at every
//! thread count anyway.

use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::Instant;

use mdbscan_covertree::CoverTreeSkeleton;
use mdbscan_kcenter::{CenterAdjacency, IncrementalNet, RadiusGuidedNet};
use mdbscan_metric::{BatchMetric, MetricTag, PersistMetric, PersistPoint, PruningConfig};
use mdbscan_parallel::{Csr, ParallelConfig};
use mdbscan_persist::{
    checkpoint_path, list_checkpoints, next_checkpoint_seq, ArtifactKind, ArtifactReader,
    ArtifactWriter, ByteReader, ByteWriter, PersistError, SharedBytes,
};

use crate::approx::ApproxArtifacts;
use crate::engine::{
    AdjKey, CacheKey, CachedArtifacts, CandidateIndex, EngineCache, EngineSnapshot, EpochDelta,
    EpochLru, EpochState, IngestState, MetricDbscan, NetKind, NetStrategy,
};
use crate::error::DbscanError;
use crate::steps::StepArtifacts;
use crate::store::{ChunkedStore, PointBuf};

const SEC_ENGINE: &str = "engine";
const SEC_POINTS: &str = "points";
const SEC_NET: &str = "net";
const SEC_WRITER: &str = "writer";
const SEC_DELTAS: &str = "deltas";
const SEC_ADJACENCY: &str = "adjacency-cache";
const SEC_FRAGMENTS: &str = "fragment-cache";
const SEC_COVERTREES: &str = "covertree-cache";
/// Step 2's answer for each cached Step-1/2 entry: its
/// fragment→component map, keyed like the entry. **Optional**:
/// artifacts written before the map was cached lack it, and their
/// entries decode without a map (a hit on one re-runs Step 2).
const SEC_STEP2: &str = "step2-components";
/// Grid candidate-index configuration and the grid cache's capacity and
/// counters. **Optional**: artifacts written before the grid subsystem
/// existed simply lack it, and decode to [`CandidateIndex::Generic`]
/// with default capacity and zeroed counters — so the `golden_v1`
/// fixture (and any other v1 artifact) keeps loading bit-identically.
/// The grid indexes themselves are never persisted: rebuilding them is
/// pure coordinate arithmetic (zero distance evaluations), so only the
/// toggle and its cache tally travel.
const SEC_GRID: &str = "grid-index";
/// Random-projection candidate-index cache state. **Optional** like
/// [`SEC_GRID`]: artifacts written before the RP subsystem existed
/// simply lack it and decode to the default capacity with zeroed
/// counters. The RP configuration itself (seed, K, m, probes) travels
/// inside the candidate-index byte in [`SEC_GRID`]; the projection
/// lists are never persisted — rebuilding them is pure seeded
/// coordinate arithmetic (zero distance evaluations), bit-identical
/// for a fixed seed.
const SEC_RP: &str = "rp-index";
/// The metric's own state, for **self-contained** artifacts
/// ([`MetricDbscan::save_self_contained`]). **Optional** like
/// [`SEC_GRID`]: plain `save` artifacts simply lack it, and a
/// self-contained artifact still loads through the plain API (the
/// caller-supplied metric wins; the section is ignored). Written via
/// `aligned_section` so array-backed metrics (`VectorBlock`) decode
/// zero-copy.
const SEC_METRIC: &str = "metric";

/// Copied-bytes accounting for one artifact load: how much of the
/// point and metric payload had to be materialized on the heap versus
/// served by reference out of the loaded file buffer.
///
/// A zero-copy load — aligned artifact, plain-scalar point codec
/// (`u32` row ids), array-backed metric via the self-contained API —
/// copies O(1) bytes regardless of the dataset size: the copied
/// counters then hold only fixed-size headers, while the payload
/// counters keep growing with n. Engines built in-process report no
/// stats at all ([`MetricDbscan::load_stats`] is `None`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LoadStats {
    /// Bytes of the points section payload.
    pub point_payload_bytes: u64,
    /// Bytes of that payload copied to the heap (0 when the point
    /// array aliases the artifact buffer).
    pub point_bytes_copied: u64,
    /// Bytes of the metric section payload (0 when the artifact is not
    /// self-contained).
    pub metric_payload_bytes: u64,
    /// Bytes of the metric payload copied to the heap; a zero-copy
    /// block decode leaves only the fixed-size length prefix here.
    pub metric_bytes_copied: u64,
}

impl LoadStats {
    /// Total bytes copied to the heap across both payloads.
    pub fn bytes_copied(&self) -> u64 {
        self.point_bytes_copied + self.metric_bytes_copied
    }
}

fn encode_strategy(out: &mut ByteWriter, strategy: NetStrategy) {
    out.put_u8(match strategy {
        NetStrategy::Gonzalez => 0,
        NetStrategy::RadiusGuided => 1,
    });
}

fn decode_strategy(r: &mut ByteReader<'_>) -> Result<NetStrategy, PersistError> {
    match r.get_u8()? {
        0 => Ok(NetStrategy::Gonzalez),
        1 => Ok(NetStrategy::RadiusGuided),
        b => Err(r.err(format!("unknown net strategy {b}"))),
    }
}

fn encode_candidate_index(out: &mut ByteWriter, index: CandidateIndex) {
    match index {
        CandidateIndex::Generic => out.put_u8(0),
        CandidateIndex::Grid => out.put_u8(1),
        CandidateIndex::RandomProjection(cfg) => {
            out.put_u8(2);
            out.put_u64(cfg.seed);
            out.put_u32(cfg.projections);
            out.put_u32(cfg.top_m);
            out.put_u32(cfg.probes);
        }
    }
}

fn decode_candidate_index(r: &mut ByteReader<'_>) -> Result<CandidateIndex, PersistError> {
    match r.get_u8()? {
        0 => Ok(CandidateIndex::Generic),
        1 => Ok(CandidateIndex::Grid),
        2 => {
            let cfg = mdbscan_rp::RpConfig::new(r.get_u64()?)
                .projections(r.get_u32()?)
                .top_m(r.get_u32()?)
                .probes(r.get_u32()?);
            Ok(CandidateIndex::RandomProjection(cfg))
        }
        b => Err(r.err(format!("unknown candidate index {b}"))),
    }
}

/// A grid or RP cache's capacity and counters, as the optional
/// [`SEC_GRID`] and [`SEC_RP`] sections store them. An artifact without
/// the section keeps the capacity [`EngineCache::new`] derives and cold
/// counters.
fn encode_tally<K, V>(out: &mut ByteWriter, lru: &EpochLru<K, V>) {
    out.put_usize(lru.capacity);
    out.put_u64(lru.hits);
    out.put_u64(lru.misses);
}

fn decode_tally<K, V>(
    r: &mut ByteReader<'_>,
    lru: &mut EpochLru<K, V>,
) -> Result<(), PersistError> {
    lru.capacity = r.get_usize()?;
    lru.hits = r.get_u64()?;
    lru.misses = r.get_u64()?;
    Ok(())
}

fn encode_net_kind(out: &mut ByteWriter, kind: NetKind) {
    out.put_u8(match kind {
        NetKind::Gonzalez => 0,
        NetKind::CoverTree => 1,
    });
}

fn decode_net_kind(r: &mut ByteReader<'_>) -> Result<NetKind, PersistError> {
    match r.get_u8()? {
        0 => Ok(NetKind::Gonzalez),
        1 => Ok(NetKind::CoverTree),
        b => Err(r.err(format!("unknown net kind {b}"))),
    }
}

/// The engine configuration an artifact carries; the cache capacities
/// and counters stored beside it decode into an [`EngineCache`].
struct EngineConfig {
    rbar: f64,
    max_centers: usize,
    strategy: NetStrategy,
    pruning: PruningConfig,
    candidate_index: CandidateIndex,
    epoch: u64,
    publishes: u64,
}

/// Writes the engine, grid and RP sections: `engine`'s configuration at
/// `epoch`, plus `cache`'s capacities and counters.
fn encode_config<P, M>(
    w: &mut ArtifactWriter,
    engine: &MetricDbscan<P, M>,
    cache: &EngineCache,
    epoch: u64,
    publishes: u64,
) {
    let s = w.section(SEC_ENGINE);
    s.put_f64(engine.rbar);
    s.put_usize(engine.max_centers);
    encode_strategy(s, engine.strategy);
    engine.pruning.encode(s);
    s.put_usize(cache.fragments.capacity);
    s.put_usize(cache.adjacency.capacity);
    s.put_usize(cache.covertree.capacity);
    s.put_u64(epoch);
    s.put_u64(publishes);
    // One hit and one miss count cover the fragment and cover-tree
    // lookups ([`crate::CacheStats::hits`]).
    s.put_u64(cache.fragments.hits + cache.covertree.hits);
    s.put_u64(cache.fragments.misses + cache.covertree.misses);
    s.put_u64(cache.upgrades);
    s.put_u64(cache.adjacency.hits);
    s.put_u64(cache.adjacency.misses);
    let s = w.section(SEC_GRID);
    encode_candidate_index(s, engine.candidate_index);
    encode_tally(s, &cache.grids);
    encode_tally(w.section(SEC_RP), &cache.rps);
}

/// Reads what [`encode_config`] wrote into the configuration and an
/// empty cache with the stored capacities and counters. The combined
/// fragment and cover-tree counts land on the fragment tally; only
/// their sum is ever read.
fn decode_config(art: &ArtifactReader<'_>) -> Result<(EngineConfig, EngineCache), PersistError> {
    let mut r = art.require_section(SEC_ENGINE)?;
    let rbar = r.get_f64()?;
    let max_centers = r.get_usize()?;
    let strategy = decode_strategy(&mut r)?;
    let pruning = PruningConfig::decode(&mut r)?;
    let mut cache = EngineCache::new(r.get_usize()?);
    cache.adjacency.capacity = r.get_usize()?;
    cache.covertree.capacity = r.get_usize()?;
    let epoch = r.get_u64()?;
    let publishes = r.get_u64()?;
    cache.fragments.hits = r.get_u64()?;
    cache.fragments.misses = r.get_u64()?;
    cache.upgrades = r.get_u64()?;
    cache.adjacency.hits = r.get_u64()?;
    cache.adjacency.misses = r.get_u64()?;
    let mut candidate_index = CandidateIndex::Generic;
    if let Some(mut r) = art.section(SEC_GRID) {
        candidate_index = decode_candidate_index(&mut r)?;
        decode_tally(&mut r, &mut cache.grids)?;
    }
    if let Some(mut r) = art.section(SEC_RP) {
        decode_tally(&mut r, &mut cache.rps)?;
    }
    let cfg = EngineConfig {
        rbar,
        max_centers,
        strategy,
        pruning,
        candidate_index,
        epoch,
        publishes,
    };
    Ok((cfg, cache))
}

fn encode_cache_key(out: &mut ByteWriter, epoch: u64, key: &CacheKey) {
    encode_net_kind(out, key.kind);
    out.put_u64(epoch);
    out.put_u64(key.eps_bits);
    out.put_usize(key.min_pts);
    match key.rho_bits {
        Some(bits) => {
            out.put_bool(true);
            out.put_u64(bits);
        }
        None => out.put_bool(false),
    }
}

fn decode_cache_key(r: &mut ByteReader<'_>) -> Result<(u64, CacheKey), PersistError> {
    let kind = decode_net_kind(r)?;
    let epoch = r.get_u64()?;
    let key = CacheKey {
        kind,
        eps_bits: r.get_u64()?,
        min_pts: r.get_usize()?,
        rho_bits: if r.get_bool()? {
            Some(r.get_u64()?)
        } else {
            None
        },
    };
    Ok((epoch, key))
}

fn encode_adj_key(out: &mut ByteWriter, epoch: u64, key: &AdjKey) {
    encode_net_kind(out, key.kind);
    out.put_u64(epoch);
    out.put_i32(key.level);
    out.put_u64(key.threshold_bits);
    out.put_bool(key.pruned);
}

fn decode_adj_key(r: &mut ByteReader<'_>) -> Result<(u64, AdjKey), PersistError> {
    let kind = decode_net_kind(r)?;
    let epoch = r.get_u64()?;
    let key = AdjKey {
        kind,
        level: r.get_i32()?,
        threshold_bits: r.get_u64()?,
        pruned: r.get_bool()?,
    };
    Ok((epoch, key))
}

fn encode_steps(out: &mut ByteWriter, a: &StepArtifacts) {
    out.put_bools(&a.is_core);
    out.put_usize(a.dense_cores);
    a.fragments.encode(out);
    out.put_f64s(&a.frag_radius);
    // One slot per fragment where earlier artifacts stored its cover
    // tree; written absent (the map travels in `SEC_STEP2`).
    out.put_usize(a.fragments.num_rows());
    for _ in 0..a.fragments.num_rows() {
        out.put_bool(false);
    }
}

/// Decodes Step-1/2 artifacts, validating their internal alignment and
/// that every stored point id stays inside the artifact's own point
/// count (`is_core.len()`, the epoch the entry was computed at) —
/// which in turn must not exceed `max_points`, the loaded engine's
/// point count. A violated bound here would otherwise surface as an
/// index panic (or silently wrong labels) on the first cache hit.
/// The entry decodes without a component map; the caller attaches it.
fn decode_steps(r: &mut ByteReader<'_>, max_points: usize) -> Result<StepArtifacts, PersistError> {
    let is_core = r.get_bools()?;
    let dense_cores = r.get_usize()?;
    let fragments = Csr::decode(r)?;
    let frag_radius = r.get_f64s()?;
    if is_core.len() > max_points {
        return Err(r.err(format!(
            "artifact covers {} points, engine stores {max_points}",
            is_core.len()
        )));
    }
    if frag_radius.len() != fragments.num_rows() {
        return Err(r.err(format!(
            "{} fragment radii for {} fragment rows",
            frag_radius.len(),
            fragments.num_rows()
        )));
    }
    if let Some(&bad) = fragments
        .values()
        .iter()
        .find(|&&p| p as usize >= is_core.len())
    {
        return Err(r.err(format!(
            "fragment member {bad} out of range ({} points)",
            is_core.len()
        )));
    }
    // Artifacts written while Step 2 used per-fragment cover trees store
    // them here: parsed, so a corrupt one still fails typed, and dropped.
    let slots = r.get_usize()?;
    if slots != fragments.num_rows() {
        return Err(r.err(format!(
            "{slots} fragment trees for {} fragment rows",
            fragments.num_rows()
        )));
    }
    for _ in 0..slots {
        if r.get_bool()? {
            CoverTreeSkeleton::decode(r)?;
        }
    }
    Ok(StepArtifacts {
        is_core,
        dense_cores,
        fragments,
        frag_radius,
        components: None,
    })
}

/// Checks the per-center row count of a decoded cache entry against
/// the loaded net: an entry keyed at the loaded epoch is hit (not
/// upgraded), so it must have exactly one row per center; an older
/// entry may only serve as an upgrade base over a prefix of the
/// append-only center list.
fn check_center_rows(rows: usize, current_epoch: bool, centers: usize) -> Result<(), PersistError> {
    if (current_epoch && rows != centers) || rows > centers {
        return Err(PersistError::format(
            SEC_FRAGMENTS,
            format!("cached entry spans {rows} centers, net has {centers}"),
        ));
    }
    Ok(())
}

fn encode_approx(out: &mut ByteWriter, a: &ApproxArtifacts) {
    out.put_bools(&a.center_core);
    out.put_u32s(&a.summary);
    a.summary_by_center.encode(out);
    out.put_u32s(&a.summary_cluster);
}

/// Decodes Algorithm-2 summary artifacts with the same defensive
/// bounds as [`decode_steps`]: summary ids must be stored points,
/// per-center rows must reference existing summary positions, and the
/// per-position arrays must align.
fn decode_approx(
    r: &mut ByteReader<'_>,
    max_points: usize,
) -> Result<ApproxArtifacts, PersistError> {
    let center_core = r.get_bools()?;
    let summary = r.get_u32s()?;
    let summary_by_center = Csr::decode(r)?;
    let summary_cluster = r.get_u32s()?;
    if let Some(&bad) = summary.iter().find(|&&p| p as usize >= max_points) {
        return Err(r.err(format!(
            "summary point {bad} out of range ({max_points} points)"
        )));
    }
    if summary_cluster.len() != summary.len() {
        return Err(r.err(format!(
            "{} cluster ids for {} summary points",
            summary_cluster.len(),
            summary.len()
        )));
    }
    if center_core.len() != summary_by_center.num_rows() {
        return Err(r.err(format!(
            "{} center-core flags for {} summary rows",
            center_core.len(),
            summary_by_center.num_rows()
        )));
    }
    if let Some(&bad) = summary_by_center
        .values()
        .iter()
        .find(|&&s| s as usize >= summary.len())
    {
        return Err(r.err(format!(
            "summary row references position {bad} of {}",
            summary.len()
        )));
    }
    Ok(ApproxArtifacts {
        center_core,
        summary,
        summary_by_center,
        summary_cluster,
    })
}

/// Serializes the points + net of one epoch into `w` (shared by the
/// engine and snapshot save paths). The points section is 8-aligned so
/// plain-scalar point codecs (`u32` row ids: an 8-byte count, then the
/// raw array) decode zero-copy from the loaded buffer.
fn encode_epoch_state<P: PersistPoint>(w: &mut ArtifactWriter, state: &EpochState<P>) {
    let s = w.aligned_section(SEC_POINTS);
    s.put_usize(state.points.len());
    for p in state.points.iter() {
        p.encode_point(s);
    }
    state.net.encode(w.section(SEC_NET));
}

impl<P, M> MetricDbscan<P, M>
where
    P: PersistPoint + Clone + Sync,
    M: BatchMetric<P> + MetricTag,
{
    /// Saves the full engine state to `path` as a versioned,
    /// checksummed artifact (see the `mdbscan_persist` crate docs for
    /// the layout).
    ///
    /// Any pending lazily-published batches are flattened first (a
    /// clone pass — zero distance evaluations), and the writer lock is
    /// held for the duration, so the artifact is a consistent cut: no
    /// ingest can land halfway through it. Concurrent *queries* keep
    /// running.
    ///
    /// The contract [`MetricDbscan::load`] restores: bit-identical
    /// labels, evaluation counts, and cache-hit behavior for every
    /// solver, and post-load ingests that continue the radius-guided
    /// determinism contract as if the process never died.
    ///
    /// The write itself is crash-consistent (temp file + `sync_all` +
    /// atomic rename): a crash mid-save leaves `path` holding either
    /// the previous complete artifact or the new one, never a torn
    /// prefix. A poisoned writer (an earlier ingest panicked
    /// mid-mutation) fails with [`DbscanError::Poisoned`] — a save must
    /// never persist quarantined state.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), DbscanError> {
        let started = self.record_save_start();
        self.to_artifact()?
            .write_file(path)
            .map_err(DbscanError::from)?;
        self.record_save_done(started);
        Ok(())
    }

    /// Saves the engine as the next numbered checkpoint in `dir`
    /// (`ckpt-<seq:016x>.mdb`, creating `dir` if needed) and returns
    /// the sequence number written.
    ///
    /// Checkpoints never overwrite each other, so
    /// [`MetricDbscan::load_latest`] can always fall back past a
    /// corrupt newest file to the last good one. Callers that bound
    /// disk use delete old sequence numbers after a successful save.
    pub fn save_checkpoint(&self, dir: impl AsRef<Path>) -> Result<u64, DbscanError> {
        let started = self.record_save_start();
        let dir = dir.as_ref();
        let art = self.to_artifact()?;
        std::fs::create_dir_all(dir).map_err(|e| DbscanError::Io(e.to_string()))?;
        let seq = next_checkpoint_seq(dir)?;
        art.write_file(checkpoint_path(dir, seq))?;
        self.record_save_done(started);
        Ok(seq)
    }

    /// Serializes the engine into an in-memory artifact; `save` is this
    /// plus one `write`.
    fn to_artifact(&self) -> Result<ArtifactWriter, DbscanError> {
        let writer = self.writer_lock()?;
        let state = self.publish_locked(&writer);
        let mut w = ArtifactWriter::new(ArtifactKind::Engine, P::TYPE_TAG, M::METRIC_TAG);
        let cache = self.cache_lock();
        let publishes = self.publishes.load(Ordering::Relaxed);
        encode_config(&mut w, self, &cache, state.epoch, publishes);
        encode_epoch_state(&mut w, &state);

        let s = w.section(SEC_WRITER);
        match writer.as_ref() {
            Some(live) => {
                s.put_bool(true);
                s.put_f64s(live.net.first_center_anchors());
            }
            None => s.put_bool(false),
        }

        let s = w.section(SEC_DELTAS);
        s.put_usize(cache.deltas.len());
        for d in &cache.deltas {
            s.put_u64(d.epoch);
            s.put_usize(d.old_num_points);
            s.put_u32s(&d.dirty_balls);
        }

        let s = w.section(SEC_ADJACENCY);
        s.put_usize(cache.adjacency.entries.len());
        for (epoch, key, adj) in &cache.adjacency.entries {
            encode_adj_key(s, *epoch, key);
            adj.encode(s);
        }

        let s = w.section(SEC_FRAGMENTS);
        s.put_usize(cache.fragments.entries.len());
        for (epoch, key, artifact) in &cache.fragments.entries {
            encode_cache_key(s, *epoch, key);
            match artifact {
                CachedArtifacts::Steps(a) => {
                    s.put_u8(0);
                    encode_steps(s, a);
                }
                CachedArtifacts::Approx(a) => {
                    s.put_u8(1);
                    encode_approx(s, a);
                }
            }
        }

        let maps: Vec<(u64, &CacheKey, &Vec<u32>)> = cache
            .fragments
            .entries
            .iter()
            .filter_map(|(epoch, key, artifact)| match artifact {
                CachedArtifacts::Steps(a) => a.components.as_ref().map(|c| (*epoch, key, c)),
                CachedArtifacts::Approx(_) => None,
            })
            .collect();
        let s = w.section(SEC_STEP2);
        s.put_usize(maps.len());
        for (epoch, key, map) in maps {
            encode_cache_key(s, epoch, key);
            s.put_u32s(map);
        }

        let s = w.section(SEC_COVERTREES);
        s.put_usize(cache.covertree.entries.len());
        for (epoch, (), skeleton) in &cache.covertree.entries {
            s.put_u64(*epoch);
            skeleton.encode(s);
        }
        Ok(w)
    }

    /// Loads an engine (or a read-only snapshot — see
    /// [`EngineSnapshot::save`]) from `path`, handing back the metric
    /// the artifact was saved under.
    ///
    /// **Zero distance evaluations**: every structure is re-attached
    /// from recorded data. The artifact's point-type and metric tags
    /// must match `P` and `M` or the load fails with
    /// [`DbscanError::Format`]; a missing or unreadable file is
    /// [`DbscanError::Io`]; truncation and checksum mismatches are
    /// [`DbscanError::Format`] naming the failing section.
    ///
    /// Thread configuration does not travel with the artifact: the
    /// loaded engine uses the host's default [`ParallelConfig`]
    /// (labels and evaluation counts are identical at every thread
    /// count).
    pub fn load(path: impl AsRef<Path>, metric: M) -> Result<Self, DbscanError> {
        let started = Instant::now();
        let buf = SharedBytes::read_file(path)?;
        let parts = Self::decode_artifact_bytes(buf.as_slice(), Some(&buf))?;
        let mut engine = Self::assemble(parts, metric);
        engine.load_micros = started.elapsed().as_micros() as u64;
        Ok(engine)
    }

    /// Loads the newest **readable** checkpoint from a
    /// [`MetricDbscan::save_checkpoint`] directory, walking the
    /// `ckpt-<seq:016x>.mdb` sequence newest-first and falling back
    /// past any unreadable, torn, or corrupt file to the last good one.
    ///
    /// This is the crash-recovery entry point: because checkpoint saves
    /// are atomic *and* numbered, external corruption (or a torn copy)
    /// of the newest artifact degrades the warm start by one checkpoint
    /// instead of preventing it. Returns the loaded engine and the
    /// sequence number it came from. Fails only when `dir` holds no
    /// checkpoint at all ([`DbscanError::Io`]) or every checkpoint is
    /// bad (the newest file's error, so the most recent corruption is
    /// what gets reported).
    pub fn load_latest(dir: impl AsRef<Path>, metric: M) -> Result<(Self, u64), DbscanError> {
        let started = Instant::now();
        let checkpoints = list_checkpoints(dir.as_ref())?;
        if checkpoints.is_empty() {
            return Err(DbscanError::Io(format!(
                "no checkpoints (ckpt-*.mdb) in {}",
                dir.as_ref().display()
            )));
        }
        let mut newest_err = None;
        for (seq, path) in checkpoints.iter().rev() {
            let decoded = SharedBytes::read_file(path)
                .map_err(DbscanError::from)
                .and_then(|buf| Self::decode_artifact_bytes(buf.as_slice(), Some(&buf)));
            match decoded {
                Ok(parts) => {
                    let mut engine = Self::assemble(parts, metric);
                    engine.load_micros = started.elapsed().as_micros() as u64;
                    return Ok((engine, *seq));
                }
                Err(e) => {
                    let _ = newest_err.get_or_insert(e);
                }
            }
        }
        Err(newest_err.expect("non-empty checkpoint list with no Ok"))
    }

    /// Decodes and validates an artifact without needing the metric
    /// *value* (only its tag) — so [`MetricDbscan::load_latest`] can
    /// probe candidate checkpoints without consuming the caller's
    /// metric on every failed attempt.
    fn decode_artifact_bytes(
        bytes: &[u8],
        src: Option<&Arc<SharedBytes>>,
    ) -> Result<DecodedEngine<P>, DbscanError> {
        let art = ArtifactReader::from_bytes(bytes)?;
        Self::decode_from_reader(&art, src)
    }

    /// The section-by-section decode behind every load path. `src` is
    /// the 8-aligned file buffer when the caller holds one: bulk point
    /// codecs then alias it instead of copying (see [`LoadStats`]).
    fn decode_from_reader(
        art: &ArtifactReader<'_>,
        src: Option<&Arc<SharedBytes>>,
    ) -> Result<DecodedEngine<P>, DbscanError> {
        if art.point_tag() != P::TYPE_TAG {
            return Err(PersistError::format(
                "header",
                format!(
                    "artifact stores `{}` points, load requested `{}`",
                    art.point_tag(),
                    P::TYPE_TAG
                ),
            )
            .into());
        }
        if art.metric_tag() != M::METRIC_TAG {
            return Err(PersistError::format(
                "header",
                format!(
                    "artifact was saved under metric `{}`, load supplied `{}`",
                    art.metric_tag(),
                    M::METRIC_TAG
                ),
            )
            .into());
        }

        let (cfg, mut cache) = decode_config(art)?;

        let mut s = art.require_section(SEC_POINTS)?;
        let point_payload_bytes = s.remaining() as u64;
        let n = s.get_usize()?;
        let points: PointBuf<P> = P::decode_points(&mut s, n, src)?.into();
        let stats = LoadStats {
            point_payload_bytes,
            point_bytes_copied: if points.is_shared() {
                0
            } else {
                point_payload_bytes
            },
            ..LoadStats::default()
        };

        let mut s = art.require_section(SEC_NET)?;
        let net = RadiusGuidedNet::decode(&mut s)?;
        if net.len() != points.len() {
            return Err(PersistError::format(
                SEC_NET,
                format!("net covers {} points, {} stored", net.len(), points.len()),
            )
            .into());
        }
        if let Some(&bad) = net.centers.iter().find(|&&c| c >= points.len()) {
            return Err(PersistError::format(
                SEC_NET,
                format!(
                    "center point id {bad} out of range ({} points)",
                    points.len()
                ),
            )
            .into());
        }
        if net.rbar.to_bits() != cfg.rbar.to_bits() {
            return Err(PersistError::format(
                SEC_NET,
                format!(
                    "net radius {} disagrees with engine radius {}",
                    net.rbar, cfg.rbar
                ),
            )
            .into());
        }
        let net = Arc::new(net);

        let mut writer = None;
        if let Some(mut s) = art.section(SEC_WRITER) {
            if s.get_bool()? {
                let anchors = s.get_f64s()?;
                if anchors.len() > net.centers.len() {
                    return Err(PersistError::format(
                        SEC_WRITER,
                        format!(
                            "{} first-center anchors for {} centers",
                            anchors.len(),
                            net.centers.len()
                        ),
                    )
                    .into());
                }
                writer = Some(IngestState {
                    store: ChunkedStore::from_initial(points.clone()),
                    net: IncrementalNet::from_net_with_anchors(&net, cfg.max_centers, anchors),
                    epoch: cfg.epoch,
                });
            }
        }

        if let Some(mut s) = art.section(SEC_DELTAS) {
            let count = s.get_usize()?;
            for _ in 0..count {
                let delta = EpochDelta {
                    epoch: s.get_u64()?,
                    old_num_points: s.get_usize()?,
                    dirty_balls: s.get_u32s()?,
                };
                // Dirty-ball positions index the (append-only) center
                // list during incremental upgrades; out-of-range ids
                // would panic on the first upgrade after the restart.
                if delta.old_num_points > points.len() {
                    return Err(PersistError::format(
                        SEC_DELTAS,
                        format!(
                            "delta predates {} points, engine stores {}",
                            delta.old_num_points,
                            points.len()
                        ),
                    )
                    .into());
                }
                if let Some(&bad) = delta
                    .dirty_balls
                    .iter()
                    .find(|&&b| b as usize >= net.centers.len())
                {
                    return Err(PersistError::format(
                        SEC_DELTAS,
                        format!(
                            "dirty ball {bad} out of range ({} centers)",
                            net.centers.len()
                        ),
                    )
                    .into());
                }
                cache.deltas.push_back(delta);
            }
        }

        if let Some(mut s) = art.section(SEC_ADJACENCY) {
            let count = s.get_usize()?;
            for _ in 0..count {
                let (epoch, key) = decode_adj_key(&mut s)?;
                let adj = CenterAdjacency::decode(&mut s)?;
                // Gonzalez-kind entries index (a prefix of) the loaded
                // net's center list — current-epoch entries exactly so
                // — and may serve as cross-epoch extension bases.
                if key.kind == NetKind::Gonzalez {
                    let expected_exact = epoch == cfg.epoch;
                    let rows = adj.neighbors.num_rows();
                    if (expected_exact && rows != net.centers.len()) || rows > net.centers.len() {
                        return Err(PersistError::format(
                            SEC_ADJACENCY,
                            format!(
                                "adjacency spans {rows} centers, net has {}",
                                net.centers.len()
                            ),
                        )
                        .into());
                    }
                }
                cache.adjacency.entries.push((epoch, key, Arc::new(adj)));
            }
            cache.adjacency.entries.truncate(cache.adjacency.capacity);
        }

        let mut maps: Vec<((u64, CacheKey), Vec<u32>)> = Vec::new();
        if let Some(mut s) = art.section(SEC_STEP2) {
            let count = s.get_usize()?;
            for _ in 0..count {
                maps.push((decode_cache_key(&mut s)?, s.get_u32s()?));
            }
        }

        if let Some(mut s) = art.section(SEC_FRAGMENTS) {
            let count = s.get_usize()?;
            for _ in 0..count {
                let (epoch, key) = decode_cache_key(&mut s)?;
                let current = epoch == cfg.epoch;
                let centers = net.centers.len();
                let artifact = match s.get_u8()? {
                    0 => {
                        let mut steps = decode_steps(&mut s, points.len())?;
                        // An entry keyed at the loaded epoch is hit (not
                        // upgraded), so it must cover exactly the loaded
                        // points; older epochs are re-verified against
                        // the delta history before any reuse.
                        if current && steps.is_core.len() != points.len() {
                            return Err(PersistError::format(
                                SEC_FRAGMENTS,
                                format!(
                                    "current-epoch artifact covers {} points, engine stores {}",
                                    steps.is_core.len(),
                                    points.len()
                                ),
                            )
                            .into());
                        }
                        let rows = steps.fragments.num_rows();
                        // Cover-tree entries are checked against their
                        // per-query net on lookup instead.
                        if key.kind == NetKind::Gonzalez {
                            check_center_rows(rows, current, centers)?;
                        }
                        if let Some(i) = maps.iter().position(|(k, _)| *k == (epoch, key)) {
                            let map = maps.swap_remove(i).1;
                            if map.len() != rows || map.iter().any(|&c| c as usize >= rows) {
                                return Err(PersistError::format(
                                    SEC_STEP2,
                                    format!("component map does not fit {rows} fragments"),
                                )
                                .into());
                            }
                            steps.components = Some(map);
                        }
                        CachedArtifacts::Steps(Arc::new(steps))
                    }
                    1 => {
                        let approx = decode_approx(&mut s, points.len())?;
                        check_center_rows(approx.center_core.len(), current, centers)?;
                        CachedArtifacts::Approx(Arc::new(approx))
                    }
                    b => return Err(s.err(format!("unknown artifact variant {b}")).into()),
                };
                cache.fragments.entries.push((epoch, key, artifact));
            }
            cache.fragments.entries.truncate(cache.fragments.capacity);
        }

        if let Some(mut s) = art.section(SEC_COVERTREES) {
            let count = s.get_usize()?;
            for _ in 0..count {
                let epoch = s.get_u64()?;
                let skeleton = CoverTreeSkeleton::decode(&mut s)?;
                // A tree keyed at the loaded epoch is hit, not grown, so
                // it must span exactly the loaded points; an older
                // epoch's tree is a prefix that the next query grows.
                let current = epoch == cfg.epoch;
                if skeleton.len() > points.len() || (current && skeleton.len() != points.len()) {
                    return Err(PersistError::format(
                        SEC_COVERTREES,
                        format!(
                            "cached tree spans {} points, engine stores {}",
                            skeleton.len(),
                            points.len()
                        ),
                    )
                    .into());
                }
                // The length can agree while an id points past the
                // slice; reading a net would then index out of bounds.
                if let Some(max) = skeleton.max_point().filter(|&m| m >= points.len()) {
                    return Err(PersistError::format(
                        SEC_COVERTREES,
                        format!(
                            "cached tree stores point {max}, engine stores {}",
                            points.len()
                        ),
                    )
                    .into());
                }
                cache
                    .covertree
                    .entries
                    .push((epoch, (), Arc::new(skeleton)));
            }
            cache.covertree.entries.truncate(cache.covertree.capacity);
        }

        Ok(DecodedEngine {
            cfg,
            points,
            net,
            writer,
            cache,
            stats,
        })
    }

    /// Attaches `metric` to decoded parts; pure construction, no I/O
    /// and no distance evaluations.
    fn assemble(parts: DecodedEngine<P>, metric: M) -> Self {
        let DecodedEngine {
            cfg,
            points,
            net,
            writer,
            cache,
            stats,
        } = parts;
        MetricDbscan {
            metric,
            rbar: cfg.rbar,
            parallel: ParallelConfig::default(),
            pruning: cfg.pruning,
            max_centers: cfg.max_centers,
            strategy: cfg.strategy,
            candidate_index: cfg.candidate_index,
            current: RwLock::new(Arc::new(EpochState {
                epoch: cfg.epoch,
                points,
                net,
            })),
            writer: Mutex::new(writer),
            cache: Mutex::new(cache),
            pending_epoch: AtomicU64::new(cfg.epoch),
            publishes: AtomicU64::new(cfg.publishes),
            load_stats: Some(stats),
            // Callers overwrite with the measured wall clock; a
            // recorder is attached post-load via `with_recorder`.
            load_micros: 0,
            recorder: None,
        }
    }
}

impl<P, M> MetricDbscan<P, M>
where
    P: PersistPoint + Clone + Sync,
    M: BatchMetric<P> + PersistMetric,
{
    /// Saves the engine with the metric's own state embedded in a
    /// `"metric"` section: the artifact is then **self-contained** — the
    /// matching [`MetricDbscan::load_self_contained`] rebuilds both the
    /// engine and the metric from the file, so a replica boots without
    /// re-deriving (or shipping) the metric out of band.
    ///
    /// For array-backed metrics ([`mdbscan_metric::VectorBlock`]) the
    /// metric section is written at an 8-aligned payload offset, so the
    /// coordinate and norm arrays decode **zero-copy**: together with
    /// the `u32` row-id points, a cold start copies O(1) point bytes
    /// regardless of n (see [`LoadStats`]).
    ///
    /// Everything [`MetricDbscan::save`] guarantees holds here too —
    /// same sections, same crash consistency, same bit-identity
    /// contract — and a self-contained artifact still loads through the
    /// plain [`MetricDbscan::load`] (the embedded metric is ignored in
    /// favor of the caller's).
    pub fn save_self_contained(&self, path: impl AsRef<Path>) -> Result<(), DbscanError> {
        let started = self.record_save_start();
        self.to_self_contained_artifact()?
            .write_file(path)
            .map_err(DbscanError::from)?;
        self.record_save_done(started);
        Ok(())
    }

    /// As [`MetricDbscan::save_checkpoint`], with the metric embedded
    /// ([`MetricDbscan::save_self_contained`]).
    pub fn save_checkpoint_self_contained(
        &self,
        dir: impl AsRef<Path>,
    ) -> Result<u64, DbscanError> {
        let started = self.record_save_start();
        let dir = dir.as_ref();
        let art = self.to_self_contained_artifact()?;
        std::fs::create_dir_all(dir).map_err(|e| DbscanError::Io(e.to_string()))?;
        let seq = next_checkpoint_seq(dir)?;
        art.write_file(checkpoint_path(dir, seq))?;
        self.record_save_done(started);
        Ok(seq)
    }

    fn to_self_contained_artifact(&self) -> Result<ArtifactWriter, DbscanError> {
        let mut w = self.to_artifact()?;
        self.metric.encode_metric(w.aligned_section(SEC_METRIC));
        Ok(w)
    }

    /// Loads a [`MetricDbscan::save_self_contained`] artifact,
    /// rebuilding the metric from its embedded section — no metric
    /// value to supply, and for block metrics no point or coordinate
    /// bytes to copy. Fails with [`DbscanError::Format`] when the
    /// artifact lacks a metric section (i.e. was written by the plain
    /// `save`); every other failure mode matches
    /// [`MetricDbscan::load`].
    pub fn load_self_contained(path: impl AsRef<Path>) -> Result<Self, DbscanError> {
        let started = Instant::now();
        let buf = SharedBytes::read_file(path)?;
        let (parts, metric) = Self::decode_self_contained(&buf)?;
        let mut engine = Self::assemble(parts, metric);
        engine.load_micros = started.elapsed().as_micros() as u64;
        Ok(engine)
    }

    /// As [`MetricDbscan::load_latest`], for self-contained
    /// checkpoints ([`MetricDbscan::save_checkpoint_self_contained`]):
    /// walks the checkpoint sequence newest-first, skipping unreadable
    /// files *and* plain (metric-less) checkpoints, and returns the
    /// newest loadable engine with its sequence number.
    pub fn load_latest_self_contained(dir: impl AsRef<Path>) -> Result<(Self, u64), DbscanError> {
        let started = Instant::now();
        let checkpoints = list_checkpoints(dir.as_ref())?;
        if checkpoints.is_empty() {
            return Err(DbscanError::Io(format!(
                "no checkpoints (ckpt-*.mdb) in {}",
                dir.as_ref().display()
            )));
        }
        let mut newest_err = None;
        for (seq, path) in checkpoints.iter().rev() {
            let decoded = SharedBytes::read_file(path)
                .map_err(DbscanError::from)
                .and_then(|buf| Self::decode_self_contained(&buf));
            match decoded {
                Ok((parts, metric)) => {
                    let mut engine = Self::assemble(parts, metric);
                    engine.load_micros = started.elapsed().as_micros() as u64;
                    return Ok((engine, *seq));
                }
                Err(e) => {
                    let _ = newest_err.get_or_insert(e);
                }
            }
        }
        Err(newest_err.expect("non-empty checkpoint list with no Ok"))
    }

    fn decode_self_contained(buf: &Arc<SharedBytes>) -> Result<(DecodedEngine<P>, M), DbscanError> {
        let art = ArtifactReader::from_bytes(buf.as_slice())?;
        let mut parts = Self::decode_from_reader(&art, Some(buf))?;
        let mut s = art.require_section(SEC_METRIC)?;
        parts.stats.metric_payload_bytes = s.remaining() as u64;
        let metric = M::decode_metric(&mut s, Some(buf))?;
        parts.stats.metric_bytes_copied = parts
            .stats
            .metric_payload_bytes
            .saturating_sub(metric.shared_state_bytes() as u64);
        Ok((parts, metric))
    }
}

/// Everything an artifact decodes to except the metric itself: the
/// halfway house between bytes and a running engine that lets
/// [`MetricDbscan::load_latest`] try several checkpoint files with one
/// (non-`Clone`) metric value.
struct DecodedEngine<P> {
    cfg: EngineConfig,
    points: PointBuf<P>,
    net: Arc<RadiusGuidedNet>,
    writer: Option<IngestState<P>>,
    /// Capacities, counters, ingest deltas and every persisted entry.
    cache: EngineCache,
    stats: LoadStats,
}

impl<'e, P, M> EngineSnapshot<'e, P, M>
where
    P: PersistPoint + Clone + Sync,
    M: BatchMetric<P> + MetricTag,
{
    /// Saves this pinned epoch — points and net only, no caches, no
    /// writer state — as a read-only snapshot artifact: the shape a
    /// read-replica fleet fans out. [`MetricDbscan::load`] restores it
    /// as an engine serving exactly this epoch with cold caches and
    /// zeroed counters (it may even ingest onward — the net's recorded
    /// state is all the first-fit rule needs).
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), DbscanError> {
        let engine = self.engine;
        let started = engine.record_save_start();
        let mut w = ArtifactWriter::new(ArtifactKind::Snapshot, P::TYPE_TAG, M::METRIC_TAG);
        let cold = engine.cache_lock().cold();
        encode_config(&mut w, engine, &cold, self.state.epoch, 0);
        encode_epoch_state(&mut w, &self.state);
        w.write_file(path)?;
        engine.record_save_done(started);
        Ok(())
    }
}
