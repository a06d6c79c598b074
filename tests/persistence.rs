//! The persistence contract (PR 5).
//!
//! 1. **Round trip**: a saved-then-loaded engine answers every solver
//!    **bit-identically** — labels, `RunReport` distance-evaluation
//!    counters, and cache-hit behavior — with **zero distance
//!    evaluations during the load itself** (asserted via the counting
//!    metric), for vector and string metrics, pruning on and off.
//! 2. **Ingest resume**: `ingest` after a load continues the
//!    radius-guided determinism contract as if the process never died —
//!    same labels, same per-ingest evaluation counts as an unrestarted
//!    engine, at every epoch.
//! 3. **Typed failure**: a truncated file, a flipped payload byte, a
//!    wrong point-type tag, a wrong metric tag, and a missing file each
//!    yield the matching `DbscanError` variant — never garbage
//!    clusters.
//! 4. **Format stability**: `tests/fixtures/golden_v1.mdb` (checked
//!    in) keeps loading and answering; regenerate it only on a
//!    deliberate, version-bumped format change (see
//!    `regenerate_golden_fixture`).

use std::path::PathBuf;
use std::sync::Arc;

use metric_dbscan::core::{
    ApproxParams, DbscanError, DbscanParams, MetricDbscan, NetStrategy, PointLabel, RunDetail,
};
use metric_dbscan::covertree::CoverTree;
use metric_dbscan::datagen::{blobs, string_clusters, BlobSpec, StringSpec};
use metric_dbscan::metric::{
    BatchMetric, CountingMetric, Euclidean, Levenshtein, Manhattan, MetricTag, PersistPoint,
    PruningConfig, VectorBlock,
};
use metric_dbscan::persist::{ArtifactReader, ArtifactWriter, ByteWriter};

fn vector_points() -> Vec<Vec<f64>> {
    blobs(
        &BlobSpec {
            n: 220,
            dim: 2,
            clusters: 3,
            std: 0.8,
            center_box: 20.0,
            outlier_frac: 0.1,
        },
        13,
    )
    .into_parts()
    .0
}

fn string_points() -> Vec<String> {
    string_clusters(
        &StringSpec {
            n: 70,
            clusters: 3,
            seed_len: 12,
            max_edits: 2,
            alphabet: b"acgt",
            outlier_frac: 0.1,
        },
        5,
    )
    .into_parts()
    .0
}

/// A per-process-unique scratch path; removed by the caller.
fn temp_path(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("mdbscan_persist_{}_{name}.mdb", std::process::id()));
    p
}

/// Labels + distance evaluations + cache-hit flag of one solver query.
struct Probe {
    labels: Vec<PointLabel>,
    evals: u64,
    cache_hit: bool,
}

/// Runs all four solvers, resetting the counting metric around each so
/// every probe records its own evaluation count.
fn probe_all<P, M>(
    engine: &MetricDbscan<P, CountingMetric<M>>,
    params: &DbscanParams,
    aparams: &ApproxParams,
) -> Vec<Probe>
where
    P: Clone + Sync,
    CountingMetric<M>: BatchMetric<P>,
{
    let mut out = Vec::new();
    engine.metric().reset();
    let run = engine.exact(params).unwrap();
    out.push(Probe {
        labels: run.clustering.labels().to_vec(),
        evals: engine.metric().reset(),
        cache_hit: run.report.cache_hit,
    });
    let run = engine.approx(aparams).unwrap();
    out.push(Probe {
        labels: run.clustering.labels().to_vec(),
        evals: engine.metric().reset(),
        cache_hit: run.report.cache_hit,
    });
    let run = engine.covertree(params).unwrap();
    out.push(Probe {
        labels: run.clustering.labels().to_vec(),
        evals: engine.metric().reset(),
        cache_hit: run.report.cache_hit,
    });
    let run = engine.streaming(aparams).unwrap();
    out.push(Probe {
        labels: run.clustering.labels().to_vec(),
        evals: engine.metric().reset(),
        cache_hit: run.report.cache_hit,
    });
    out
}

/// The full round-trip contract over one configuration: cold suite,
/// warm suite, save, zero-eval load, and a replayed suite that must
/// match the warm one probe for probe.
#[allow(clippy::too_many_arguments)]
fn assert_round_trip<P, M>(
    points: Vec<P>,
    make_metric: impl Fn() -> M,
    strategy: NetStrategy,
    rbar: f64,
    params: DbscanParams,
    aparams: ApproxParams,
    pruning: PruningConfig,
    file_tag: &str,
) where
    P: PersistPoint + Clone + Sync,
    M: MetricTag,
    CountingMetric<M>: BatchMetric<P>,
{
    let engine = MetricDbscan::builder(points, CountingMetric::new(make_metric()))
        .rbar(rbar)
        .net_strategy(strategy)
        .pruning(pruning)
        .build()
        .unwrap();
    let cold = probe_all(&engine, &params, &aparams);
    let warm = probe_all(&engine, &params, &aparams);
    for (c, w) in cold.iter().zip(&warm) {
        assert_eq!(c.labels, w.labels, "warm run must replay cold labels");
    }

    let path = temp_path(file_tag);
    engine.save(&path).unwrap();
    let loaded: MetricDbscan<P, CountingMetric<M>> =
        MetricDbscan::load(&path, CountingMetric::new(make_metric())).unwrap();
    std::fs::remove_file(&path).unwrap();
    assert_eq!(
        loaded.metric().count(),
        0,
        "load must perform zero distance evaluations"
    );
    assert_eq!(loaded.epoch(), engine.epoch());
    assert_eq!(loaded.num_points(), engine.num_points());
    assert_eq!(loaded.num_centers(), engine.num_centers());
    assert_eq!(loaded.net_arc().centers, engine.net_arc().centers);
    assert_eq!(
        loaded.cache_stats(),
        engine.cache_stats(),
        "lifetime cache counters and occupancy must survive the restart"
    );

    let replay = probe_all(&loaded, &params, &aparams);
    for (i, (w, r)) in warm.iter().zip(&replay).enumerate() {
        assert_eq!(
            w.labels, r.labels,
            "solver {i}: labels must be bit-identical"
        );
        assert_eq!(
            w.evals, r.evals,
            "solver {i}: evaluation counts must be bit-identical"
        );
        assert_eq!(
            w.cache_hit, r.cache_hit,
            "solver {i}: cache-hit behavior must survive the restart"
        );
    }
}

#[test]
fn round_trip_vector_pruned_and_unpruned() {
    for (pruning, tag) in [
        (PruningConfig::default(), "vec_pruned"),
        (PruningConfig::off(), "vec_unpruned"),
    ] {
        assert_round_trip(
            vector_points(),
            || Euclidean,
            NetStrategy::Gonzalez,
            0.5,
            DbscanParams::new(1.6, 5).unwrap(),
            ApproxParams::new(1.6, 5, 0.75).unwrap(),
            pruning,
            tag,
        );
    }
}

#[test]
fn round_trip_string_pruned_and_unpruned() {
    for (pruning, tag) in [
        (PruningConfig::default(), "str_pruned"),
        (PruningConfig::off(), "str_unpruned"),
    ] {
        assert_round_trip(
            string_points(),
            || Levenshtein,
            NetStrategy::RadiusGuided,
            1.5,
            DbscanParams::new(4.0, 4).unwrap(),
            ApproxParams::new(4.0, 4, 0.75).unwrap(),
            pruning,
            tag,
        );
    }
}

#[test]
fn ingest_after_load_matches_an_unrestarted_engine() {
    let pts = vector_points();
    let (seed, rest) = pts.split_at(80);
    let (mid, tail) = rest.split_at(60);
    let params = DbscanParams::new(1.6, 5).unwrap();

    let unrestarted = MetricDbscan::builder(seed.to_vec(), CountingMetric::new(Euclidean))
        .rbar(0.5)
        .net_strategy(NetStrategy::RadiusGuided)
        .build()
        .unwrap();
    unrestarted.ingest(mid.to_vec()).unwrap();
    unrestarted.exact(&params).unwrap();

    let path = temp_path("ingest_resume");
    unrestarted.save(&path).unwrap();
    let restarted: MetricDbscan<Vec<f64>, CountingMetric<Euclidean>> =
        MetricDbscan::load(&path, CountingMetric::new(Euclidean)).unwrap();
    std::fs::remove_file(&path).unwrap();
    assert_eq!(restarted.metric().count(), 0, "zero evals on load");

    // Resume the stream on both engines, batch-split identically — the
    // per-epoch evaluation counts must match too (the restored
    // first-center anchors make the restart invisible even in t_dis).
    for batch in tail.chunks(17) {
        unrestarted.metric().reset();
        restarted.metric().reset();
        let a = unrestarted.ingest(batch.to_vec()).unwrap();
        let b = restarted.ingest(batch.to_vec()).unwrap();
        assert_eq!(a, b, "ingest reports must match");
        assert_eq!(
            unrestarted.metric().count(),
            restarted.metric().count(),
            "per-ingest evaluation counts must match"
        );
        assert_eq!(
            unrestarted.exact(&params).unwrap().clustering,
            restarted.exact(&params).unwrap().clustering,
            "labels must match at every epoch"
        );
    }

    // And both match a never-restarted fresh build over the full
    // sequence (the PR-4 determinism contract, now restart-proof).
    let fresh = MetricDbscan::builder(pts.clone(), CountingMetric::new(Euclidean))
        .rbar(0.5)
        .net_strategy(NetStrategy::RadiusGuided)
        .build()
        .unwrap();
    assert_eq!(restarted.net_arc().centers, fresh.net_arc().centers);
    assert_eq!(
        restarted.exact(&params).unwrap().clustering,
        fresh.exact(&params).unwrap().clustering
    );
}

#[test]
fn snapshot_artifact_is_a_read_replica() {
    let pts = vector_points();
    let (seed, rest) = pts.split_at(150);
    let engine = MetricDbscan::builder(seed.to_vec(), Euclidean)
        .rbar(0.5)
        .net_strategy(NetStrategy::RadiusGuided)
        .build()
        .unwrap();
    let params = DbscanParams::new(1.6, 5).unwrap();
    let pinned = engine.snapshot();
    let expected = pinned.exact(&params).unwrap();

    // The replica artifact pins the epoch even as the engine moves on.
    let path = temp_path("replica");
    pinned.save(&path).unwrap();
    engine.ingest(rest.to_vec()).unwrap();

    let replica: MetricDbscan<Vec<f64>, CountingMetric<Euclidean>> =
        MetricDbscan::load(&path, CountingMetric::new(Euclidean)).unwrap();
    std::fs::remove_file(&path).unwrap();
    assert_eq!(replica.metric().count(), 0, "zero evals on load");
    assert_eq!(replica.epoch(), 0);
    assert_eq!(replica.num_points(), 150);
    let stats = replica.cache_stats();
    assert_eq!((stats.hits, stats.misses, stats.entries), (0, 0, 0));
    assert_eq!(
        replica.exact(&params).unwrap().clustering,
        expected.clustering,
        "replica answers the pinned epoch bit-identically"
    );

    // A replica may even resume the stream: radius-guided state is all
    // the first-fit rule needs.
    replica.ingest(rest.to_vec()).unwrap();
    assert_eq!(
        replica.exact(&params).unwrap().clustering,
        engine.exact(&params).unwrap().clustering
    );
}

#[test]
fn concurrent_readers_see_one_consistent_loaded_engine() {
    let engine = MetricDbscan::builder(vector_points(), Euclidean)
        .rbar(0.5)
        .build()
        .unwrap();
    let params = DbscanParams::new(1.6, 5).unwrap();
    let expected = engine.exact(&params).unwrap().clustering;
    let path = temp_path("concurrent");
    engine.save(&path).unwrap();
    let loaded: Arc<MetricDbscan<Vec<f64>, Euclidean>> =
        Arc::new(MetricDbscan::load(&path, Euclidean).unwrap());
    std::fs::remove_file(&path).unwrap();
    let handles: Vec<_> = (0..4)
        .map(|_| {
            let loaded = Arc::clone(&loaded);
            std::thread::spawn(move || loaded.exact(&params).unwrap().clustering)
        })
        .collect();
    for h in handles {
        assert_eq!(h.join().unwrap(), expected);
    }
}

#[test]
fn corruption_and_mismatch_fail_typed() {
    let engine = MetricDbscan::builder(vector_points(), Euclidean)
        .rbar(0.5)
        .build()
        .unwrap();
    engine.exact(&DbscanParams::new(1.6, 5).unwrap()).unwrap();
    let path = temp_path("corruption");
    engine.save(&path).unwrap();
    let valid = std::fs::read(&path).unwrap();

    // Missing file → Io.
    let missing = temp_path("never_written");
    assert!(matches!(
        MetricDbscan::<Vec<f64>, Euclidean>::load(&missing, Euclidean),
        Err(DbscanError::Io(_))
    ));

    // Truncation → Format.
    std::fs::write(&path, &valid[..valid.len() / 2]).unwrap();
    assert!(matches!(
        MetricDbscan::<Vec<f64>, Euclidean>::load(&path, Euclidean),
        Err(DbscanError::Format { .. })
    ));

    // One flipped payload byte → Format naming a checksum mismatch.
    let mut flipped = valid.clone();
    let last = flipped.len() - 1;
    flipped[last] ^= 0x40;
    std::fs::write(&path, &flipped).unwrap();
    match MetricDbscan::<Vec<f64>, Euclidean>::load(&path, Euclidean).map(|_| ()) {
        Err(DbscanError::Format { reason, .. }) => {
            assert!(reason.contains("checksum"), "got: {reason}")
        }
        other => panic!("expected Format, got {other:?}"),
    }

    // Wrong point-type tag → Format in the header.
    std::fs::write(&path, &valid).unwrap();
    match MetricDbscan::<String, Levenshtein>::load(&path, Levenshtein).map(|_| ()) {
        Err(DbscanError::Format { section, reason }) => {
            assert_eq!(section, "header");
            assert!(reason.contains("vec-f64"), "got: {reason}");
        }
        other => panic!("expected Format, got {other:?}"),
    }

    // Wrong metric tag (same point type) → Format in the header.
    match MetricDbscan::<Vec<f64>, Manhattan>::load(&path, Manhattan).map(|_| ()) {
        Err(DbscanError::Format { section, reason }) => {
            assert_eq!(section, "header");
            assert!(reason.contains("euclidean"), "got: {reason}");
        }
        other => panic!("expected Format, got {other:?}"),
    }

    // The pristine bytes still load fine (the file, not the loader,
    // was the problem).
    std::fs::write(&path, &valid).unwrap();
    assert!(MetricDbscan::<Vec<f64>, Euclidean>::load(&path, Euclidean).is_ok());
    std::fs::remove_file(&path).unwrap();
}

/// Rewrites artifact `into` with the sections named in `taken` copied
/// from artifact `from`. `ArtifactWriter` recomputes every checksum, so
/// only the decoder's structural checks stand between the splice and a
/// cache hit.
fn splice(into: &[u8], from: &[u8], taken: &[&str]) -> Vec<u8> {
    let src = ArtifactReader::from_bytes(from).unwrap();
    rewrite(into, |name| {
        taken.contains(&name).then(|| {
            let mut r = src.require_section(name).unwrap();
            r.take_bytes(r.remaining()).unwrap().to_vec()
        })
    })
}

/// Rewrites artifact `into` with each section's payload replaced by
/// `payload(name)` where that returns one.
fn rewrite(into: &[u8], payload: impl Fn(&str) -> Option<Vec<u8>>) -> Vec<u8> {
    let dst = ArtifactReader::from_bytes(into).unwrap();
    let mut w = ArtifactWriter::new(dst.kind(), dst.point_tag(), dst.metric_tag());
    for name in [
        "engine",
        "grid-index",
        "rp-index",
        "points",
        "net",
        "writer",
        "deltas",
        "adjacency-cache",
        "fragment-cache",
        "step2-components",
        "covertree-cache",
    ] {
        let mut r = dst.require_section(name).unwrap();
        let own = r.take_bytes(r.remaining()).unwrap();
        w.section(name)
            .put_bytes(&payload(name).unwrap_or_else(|| own.to_vec()));
    }
    w.to_bytes()
}

/// Saves `engine` and returns the artifact bytes.
fn artifact_bytes<M: BatchMetric<Vec<f64>> + MetricTag>(
    engine: &MetricDbscan<Vec<f64>, M>,
    tag: &str,
) -> Vec<u8> {
    let path = temp_path(tag);
    engine.save(&path).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).unwrap();
    bytes
}

fn load_bytes(bytes: &[u8], tag: &str) -> Result<MetricDbscan<Vec<f64>, Euclidean>, DbscanError> {
    let path = temp_path(tag);
    std::fs::write(&path, bytes).unwrap();
    let loaded = MetricDbscan::load(&path, Euclidean);
    std::fs::remove_file(&path).unwrap();
    loaded
}

/// A cached entry computed over another net must not load as a hit on
/// this one: checksum-valid per-center rows that disagree with the
/// loaded net's center count fail typed at load (exact and approx
/// entries), and a cover-tree entry whose rows disagree with the net
/// extracted at query time is a miss, not an index panic. The same
/// holds for the cover tree itself: a current-epoch tree over fewer
/// points than the engine fails typed at load.
#[test]
fn cache_entries_from_another_net_are_rejected() {
    let params = DbscanParams::new(1.6, 5).unwrap();
    let aparams = ApproxParams::new(1.6, 5, 1.0).unwrap();
    let build = |points: Vec<Vec<f64>>, rbar: f64| {
        MetricDbscan::builder(points, Euclidean)
            .rbar(rbar)
            .build()
            .unwrap()
    };
    let (coarse, fine) = (build(vector_points(), 0.7), build(vector_points(), 0.3));
    assert_ne!(coarse.num_centers(), fine.num_centers());

    // The splice itself is sound: a self-splice loads and hits.
    fine.exact(&params).unwrap();
    let fine_bytes = artifact_bytes(&fine, "splice_fine");
    let same = load_bytes(&splice(&fine_bytes, &fine_bytes, &[]), "splice_same").unwrap();
    assert!(same.exact(&params).unwrap().report.cache_hit);

    coarse.exact(&params).unwrap();
    let coarse_bytes = artifact_bytes(&coarse, "splice_coarse");
    let spliced = splice(&fine_bytes, &coarse_bytes, &["fragment-cache"]);
    match load_bytes(&spliced, "splice_exact").map(|_| ()) {
        Err(DbscanError::Format { section, .. }) => assert_eq!(section, "fragment-cache"),
        other => panic!("expected Format, got {other:?}"),
    }

    for e in [&coarse, &fine] {
        e.clear_cache();
        e.approx(&aparams).unwrap();
    }
    let spliced = splice(
        &artifact_bytes(&fine, "splice_fine_approx"),
        &artifact_bytes(&coarse, "splice_coarse_approx"),
        &["fragment-cache"],
    );
    assert!(matches!(
        load_bytes(&spliced, "splice_approx"),
        Err(DbscanError::Format { .. })
    ));

    // Cover-tree nets depend on the points, not on r̄: scale the input
    // so the extracted nets differ in size.
    let scaled: Vec<Vec<f64>> = vector_points()
        .into_iter()
        .map(|p| p.iter().map(|x| 3.0 * x).collect())
        .collect();
    let (tree_a, tree_b) = (build(vector_points(), 0.5), build(scaled, 0.5));
    let centers = |run: &metric_dbscan::core::Run| match run.report.detail {
        RunDetail::CoverTree(s) => s.n_centers,
        _ => unreachable!("cover-tree run"),
    };
    let want = tree_b.covertree(&params).unwrap();
    assert_ne!(centers(&tree_a.covertree(&params).unwrap()), centers(&want));
    let spliced = splice(
        &artifact_bytes(&tree_b, "splice_tree_b"),
        &artifact_bytes(&tree_a, "splice_tree_a"),
        &["fragment-cache", "step2-components"],
    );
    let loaded = load_bytes(&spliced, "splice_tree").unwrap();
    assert_eq!(
        loaded.covertree(&params).unwrap().clustering,
        want.clustering
    );
    let spliced = splice(
        &artifact_bytes(&tree_b, "splice_adj_b"),
        &artifact_bytes(&tree_a, "splice_adj_a"),
        &["adjacency-cache"],
    );
    let loaded = load_bytes(&spliced, "splice_adj").unwrap();
    assert_eq!(
        loaded.covertree(&params).unwrap().clustering,
        want.clustering
    );

    let prefix = build(vector_points()[..120].to_vec(), 0.5);
    prefix.covertree(&params).unwrap();
    let spliced = splice(
        &artifact_bytes(&tree_a, "splice_full_tree"),
        &artifact_bytes(&prefix, "splice_prefix_tree"),
        &["covertree-cache"],
    );
    match load_bytes(&spliced, "splice_short_tree").map(|_| ()) {
        Err(DbscanError::Format { section, .. }) => assert_eq!(section, "covertree-cache"),
        other => panic!("expected Format, got {other:?}"),
    }
}

/// A cached cover tree of the right length whose point ids run past
/// the engine's points fails typed at load; reading a net off it would
/// index out of bounds.
#[test]
fn cached_tree_with_a_point_past_the_slice_fails_at_load() {
    let points = vector_points();
    let n = points.len();
    let engine = MetricDbscan::builder(points.clone(), Euclidean)
        .rbar(0.5)
        .build()
        .unwrap();
    let bytes = artifact_bytes(&engine, "tree_past_slice");
    // As many points as the engine, one id up in a longer slice.
    let mut longer = points;
    longer.push(vec![1e3, 1e3]);
    let skeleton = CoverTree::from_indices(&longer, &Euclidean, 1..=n).into_skeleton();
    assert_eq!((skeleton.len(), skeleton.max_point()), (n, Some(n)));
    let mut section = ByteWriter::new();
    section.put_usize(1);
    section.put_u64(engine.epoch());
    skeleton.encode(&mut section);
    let section = section.into_bytes();
    let hostile = rewrite(&bytes, |name| {
        (name == "covertree-cache").then(|| section.clone())
    });
    match load_bytes(&hostile, "tree_past_slice_load").map(|_| ()) {
        Err(DbscanError::Format { section, reason }) => {
            assert_eq!(section, "covertree-cache");
            assert!(reason.contains("stores point"), "got: {reason}");
        }
        other => panic!("expected Format, got {other:?}"),
    }
}

/// The deterministic engine behind the golden fixture: fixed data,
/// fixed parameters, one exact query cached before saving.
fn golden_engine() -> MetricDbscan<Vec<f64>, Euclidean> {
    let pts = blobs(
        &BlobSpec {
            n: 90,
            dim: 2,
            clusters: 3,
            std: 0.7,
            center_box: 15.0,
            outlier_frac: 0.1,
        },
        42,
    )
    .into_parts()
    .0;
    let engine = MetricDbscan::builder(pts, Euclidean)
        .rbar(0.5)
        .net_strategy(NetStrategy::RadiusGuided)
        .build()
        .unwrap();
    engine.exact(&golden_params()).unwrap();
    engine
}

fn golden_params() -> DbscanParams {
    DbscanParams::new(1.5, 4).unwrap()
}

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/golden_v1.mdb")
}

/// CI's format-stability guard: the checked-in version-1 artifact must
/// keep loading — with zero evaluations and warm caches — and answer
/// exactly like a freshly built engine over the same (deterministic)
/// data. If this fails, a change broke old files; either restore
/// compatibility or bump `FORMAT_VERSION` *and* the fixture (see
/// `regenerate_golden_fixture`) in a deliberate, documented step.
#[test]
fn golden_v1_fixture_still_loads_and_answers() {
    let loaded: MetricDbscan<Vec<f64>, CountingMetric<Euclidean>> =
        MetricDbscan::load(golden_path(), CountingMetric::new(Euclidean))
            .expect("golden_v1.mdb must stay loadable; see regenerate_golden_fixture");
    assert_eq!(loaded.metric().count(), 0, "zero evals on load");

    let reference = golden_engine();
    let run = loaded.exact(&golden_params()).unwrap();
    assert!(
        run.report.cache_hit,
        "the fixture carries the cached query artifacts"
    );
    assert_eq!(
        run.clustering,
        reference.exact(&golden_params()).unwrap().clustering,
        "golden labels diverged — the format no longer round-trips v1 state"
    );
    assert_eq!(loaded.num_points(), reference.num_points());
    assert_eq!(loaded.net_arc().centers, reference.net_arc().centers);
}

/// Regenerates the golden fixture. Run manually — only together with a
/// deliberate format-version bump:
/// `cargo test --test persistence regenerate_golden_fixture -- --ignored`
#[test]
#[ignore = "writes tests/fixtures/golden_v1.mdb; run only on a deliberate format change"]
fn regenerate_golden_fixture() {
    let path = golden_path();
    std::fs::create_dir_all(path.parent().unwrap()).unwrap();
    golden_engine().save(&path).unwrap();
}

/// A self-contained VectorBlock engine over `n` row ids.
fn block_engine(n: usize) -> MetricDbscan<u32, CountingMetric<VectorBlock<f64>>> {
    let rows: Vec<Vec<f64>> = blobs(
        &BlobSpec {
            n,
            dim: 3,
            clusters: 4,
            std: 0.6,
            center_box: 15.0,
            outlier_frac: 0.05,
        },
        29,
    )
    .into_parts()
    .0;
    let block = VectorBlock::<f64>::from_rows(&rows);
    MetricDbscan::builder(block.ids(), CountingMetric::new(block))
        .rbar(0.45)
        .net_strategy(NetStrategy::RadiusGuided)
        .build()
        .unwrap()
}

/// The zero-copy cold-start contract: a self-contained VectorBlock
/// artifact loads with the point ids *and* the block's coordinate/norm
/// arrays aliasing the file buffer — the copied-bytes counters stay
/// fixed-size while the payloads grow with n — and the loaded replica
/// answers bit-identically with zero distance evaluations at load and
/// a warm cache hit on the first query.
#[test]
fn self_contained_load_is_zero_copy_and_bit_identical() {
    let params = DbscanParams::new(1.0, 4).unwrap();
    let mut copied_at_n = Vec::new();
    let mut payload_at_n = Vec::new();
    for n in [150usize, 300] {
        let engine = block_engine(n);
        let want = engine.exact(&params).unwrap();
        // The warm-rerun cost of the unrestarted engine is the loaded
        // replica's contract.
        engine.metric().reset();
        engine.exact(&params).unwrap();
        let warm_evals = engine.metric().reset();
        let path = temp_path(&format!("self_contained_{n}"));
        engine.save_self_contained(&path).unwrap();

        let loaded =
            MetricDbscan::<u32, CountingMetric<VectorBlock<f64>>>::load_self_contained(&path)
                .unwrap();
        std::fs::remove_file(&path).unwrap();
        assert_eq!(loaded.metric().count(), 0, "zero evals on load");
        assert!(
            loaded.metric().inner().is_zero_copy(),
            "block arrays must alias the artifact buffer"
        );
        let stats = loaded.load_stats().expect("loaded engines report stats");
        assert_eq!(
            stats.point_bytes_copied, 0,
            "row ids must alias the artifact buffer"
        );
        assert!(
            stats.bytes_copied() <= 64,
            "a zero-copy load copies O(1) bytes, not {}",
            stats.bytes_copied()
        );
        assert!(stats.point_payload_bytes >= (n * 4) as u64);
        assert!(stats.metric_payload_bytes >= (n * 3 * 8) as u64);
        copied_at_n.push(stats.bytes_copied());
        payload_at_n.push(stats.point_payload_bytes + stats.metric_payload_bytes);

        let got = loaded.exact(&params).unwrap();
        assert!(got.report.cache_hit, "first post-load query is a warm hit");
        assert_eq!(
            loaded.metric().count(),
            warm_evals,
            "the warm hit must cost exactly what the unrestarted engine pays"
        );
        assert_eq!(got.clustering, want.clustering, "labels must round-trip");
    }
    assert_eq!(
        copied_at_n[0], copied_at_n[1],
        "copied bytes must be independent of n (payload grew {} -> {})",
        payload_at_n[0], payload_at_n[1]
    );
}

/// Interop between the plain and self-contained flows: a self-contained
/// artifact still loads through the plain API (caller's metric wins),
/// and a plain artifact fails the self-contained load with a typed
/// format error instead of garbage.
#[test]
fn self_contained_and_plain_artifacts_interoperate() {
    let params = DbscanParams::new(1.0, 4).unwrap();
    let engine = block_engine(120);
    let want = engine.exact(&params).unwrap();

    let path = temp_path("self_contained_interop");
    engine.save_self_contained(&path).unwrap();
    let plain: MetricDbscan<u32, CountingMetric<VectorBlock<f64>>> =
        MetricDbscan::load(&path, CountingMetric::new(engine.metric().inner().clone())).unwrap();
    assert_eq!(
        plain.exact(&params).unwrap().clustering,
        want.clustering,
        "plain load of a self-contained artifact must answer identically"
    );
    std::fs::remove_file(&path).unwrap();

    let path = temp_path("plain_no_metric");
    engine.save(&path).unwrap();
    let err =
        match MetricDbscan::<u32, CountingMetric<VectorBlock<f64>>>::load_self_contained(&path) {
            Ok(_) => panic!("a plain artifact must not satisfy the self-contained load"),
            Err(e) => e,
        };
    std::fs::remove_file(&path).unwrap();
    assert!(
        matches!(err, DbscanError::Format { .. }),
        "missing metric section must fail typed, got {err:?}"
    );
}

/// `load_latest_self_contained` walks past corrupt checkpoints exactly
/// like the plain walker, and the recovered replica is zero-copy.
#[test]
fn latest_self_contained_checkpoint_survives_corruption() {
    let params = DbscanParams::new(1.0, 4).unwrap();
    let engine = block_engine(130);
    let want = engine.exact(&params).unwrap();

    let mut dir = std::env::temp_dir();
    dir.push(format!("mdbscan_sc_ckpt_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let s0 = engine.save_checkpoint_self_contained(&dir).unwrap();
    let s1 = engine.save_checkpoint_self_contained(&dir).unwrap();
    assert!(s1 > s0);
    // Corrupt the newest checkpoint; recovery must fall back to s0.
    let newest = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| Some(e.ok()?.path()))
        .max()
        .unwrap();
    let mut bytes = std::fs::read(&newest).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;
    std::fs::write(&newest, &bytes).unwrap();

    let (loaded, seq) =
        MetricDbscan::<u32, CountingMetric<VectorBlock<f64>>>::load_latest_self_contained(&dir)
            .unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
    assert_eq!(seq, s0, "must fall back past the corrupt newest file");
    assert!(loaded.metric().inner().is_zero_copy());
    assert_eq!(loaded.exact(&params).unwrap().clustering, want.clustering);
}
