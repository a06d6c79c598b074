//! Pins the engine's cache behavior step by step, and the artifact
//! writer byte by byte.
//!
//! `cache_counters_follow_the_recorded_trace` drives one scripted
//! session per engine — generic, grid and random-projection (RP)
//! indexes, each built with a Gonzalez and a radius-guided net, at the
//! default cache capacity and (Gonzalez only) at capacities 0 and 2 —
//! through cold and warm calls of all four solvers, a second `ε`, two
//! ingests, a pinned epoch-0 snapshot, save/load of the engine and of
//! the snapshot, and `clear_cache`. After every step it prints the
//! run's `cache_hit`, its engine-lifetime hit/miss sample, a hash of its
//! labels, and every [`CacheStats`] field, and compares the line with
//! the trace recorded below. Any change to which lookups hit, miss,
//! grow an older epoch's artifact or evict shows up as a changed line.
//!
//! `save_load_save_is_byte_identical` fills every cache (fragment and
//! summary entries, Step-2 maps, adjacencies from two epochs, cover
//! trees, grid and RP counters) and requires that saving the loaded
//! engine reproduces the saved artifact exactly.

use mdbscan_core::{
    ApproxParams, CacheStats, CandidateIndex, DbscanParams, MetricDbscan, NetStrategy, RpConfig,
    Run,
};
use mdbscan_metric::VectorBlock;

type Engine = MetricDbscan<u32, VectorBlock<f64>>;

/// Points the engines are built over; the rest arrive in two ingests.
const BUILT: usize = 240;
const BATCH: usize = 60;

/// Deterministic xorshift — the test owns its data.
struct Xs(u64);

impl Xs {
    fn next_f64(&mut self) -> f64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0 >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Three planar blobs visited in shuffled order plus scattered
/// outliers, so every ingest batch dirties balls in every blob.
fn rows() -> Vec<Vec<f64>> {
    let mut rng = Xs(0x2545_f491_4f6c_dd1d);
    let blobs = [(0.0, 0.0), (6.0, 0.0), (0.0, 6.0)];
    (0..BUILT + 2 * BATCH)
        .map(|i| {
            if i % 18 == 17 {
                vec![rng.next_f64() * 26.0 - 10.0, rng.next_f64() * 26.0 - 10.0]
            } else {
                let (cx, cy) = blobs[(rng.next_f64() * 3.0) as usize];
                vec![
                    cx + rng.next_f64() * 2.4 - 1.2,
                    cy + rng.next_f64() * 2.4 - 1.2,
                ]
            }
        })
        .collect()
}

fn indexes() -> [(&'static str, CandidateIndex); 3] {
    let rp = RpConfig::new(0x5eed).projections(16).top_m(24).probes(3);
    [
        ("generic", CandidateIndex::Generic),
        ("grid", CandidateIndex::Grid),
        ("rp", CandidateIndex::RandomProjection(rp)),
    ]
}

fn build(
    block: &VectorBlock<f64>,
    index: CandidateIndex,
    strategy: NetStrategy,
    capacity: Option<usize>,
) -> Engine {
    let mut b = MetricDbscan::builder((0..BUILT as u32).collect::<Vec<u32>>(), block.clone())
        .rbar(0.25)
        .net_strategy(strategy)
        .candidate_index(index);
    if let Some(c) = capacity {
        b = b.cache_capacity(c);
    }
    b.build().expect("engine")
}

fn batch(k: usize) -> impl Iterator<Item = u32> {
    let start = (BUILT + k * BATCH) as u32;
    start..start + BATCH as u32
}

fn exact_p(eps: f64) -> DbscanParams {
    DbscanParams::new(eps, 5).expect("params")
}

fn approx_p(eps: f64) -> ApproxParams {
    ApproxParams::new(eps, 5, 0.5).expect("params")
}

/// FNV-1a over every label's role and cluster id.
fn label_hash(run: &Run) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for l in run.clustering.labels() {
        let word = match l.cluster() {
            Some(c) => (u64::from(c) << 2) | if l.is_core() { 1 } else { 2 },
            None => 3,
        };
        for b in word.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }
    h
}

fn stats_cols(s: &CacheStats) -> String {
    format!(
        "h{} m{} u{} e{} t{} | a{} {} {} | g{} {} {} | r{} {} {}",
        s.hits,
        s.misses,
        s.upgrades,
        s.entries,
        u8::from(s.covertree_cached),
        s.adjacency_hits,
        s.adjacency_misses,
        s.adjacency_entries,
        s.grid_hits,
        s.grid_misses,
        s.grid_entries,
        s.rp_hits,
        s.rp_misses,
        s.rp_entries,
    )
}

/// Collects one line per step.
struct Trace {
    session: String,
    lines: Vec<String>,
}

impl Trace {
    fn run(&mut self, step: &str, engine: &Engine, run: Run) {
        let r = &run.report;
        self.lines.push(format!(
            "{} {step}: hit{} {}/{} {:016x} | {}",
            self.session,
            u8::from(r.cache_hit),
            r.cache_hits,
            r.cache_misses,
            label_hash(&run),
            stats_cols(&engine.cache_stats()),
        ));
    }

    fn state(&mut self, step: &str, engine: &Engine) {
        self.lines.push(format!(
            "{} {step}: {}",
            self.session,
            stats_cols(&engine.cache_stats())
        ));
    }
}

fn temp_path(tag: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!(
        "mdbscan_cache_trace_{}_{tag}.mdb",
        std::process::id()
    ));
    p
}

fn session(trace: &mut Trace, block: &VectorBlock<f64>, e: &Engine) {
    let (p1, p2, a1, a2) = (exact_p(1.0), exact_p(1.5), approx_p(1.0), approx_p(1.5));
    for _ in 0..2 {
        trace.run("exact e1", e, e.exact(&p1).unwrap());
    }
    for _ in 0..2 {
        trace.run("approx e1", e, e.approx(&a1).unwrap());
    }
    for _ in 0..2 {
        trace.run("covertree e1", e, e.covertree(&p1).unwrap());
    }
    for _ in 0..2 {
        trace.run("streaming e1", e, e.streaming(&a1).unwrap());
    }
    trace.run("exact e1.5", e, e.exact(&p2).unwrap());
    trace.run("approx e1.5", e, e.approx(&a2).unwrap());
    trace.run("covertree e1.5", e, e.covertree(&p2).unwrap());

    let snap0 = e.snapshot();
    e.ingest(batch(0)).unwrap();
    trace.state("ingest 1", e);
    trace.run("exact e1", e, e.exact(&p1).unwrap());
    trace.run("approx e1", e, e.approx(&a1).unwrap());
    trace.run("covertree e1", e, e.covertree(&p1).unwrap());
    trace.run("streaming e1", e, e.streaming(&a1).unwrap());
    trace.run("snap0 exact e1", e, snap0.exact(&p1).unwrap());
    trace.run("snap0 approx e1", e, snap0.approx(&a1).unwrap());
    trace.run("snap0 covertree e1", e, snap0.covertree(&p1).unwrap());

    e.ingest(batch(1)).unwrap();
    trace.state("ingest 2", e);
    trace.run("exact e1", e, e.exact(&p1).unwrap());
    trace.run("exact e1.5", e, e.exact(&p2).unwrap());
    trace.run("covertree e1", e, e.covertree(&p1).unwrap());
    trace.run("approx e1", e, e.approx(&a1).unwrap());
    trace.run("streaming e1", e, e.streaming(&a1).unwrap());

    let path = temp_path("engine");
    e.save(&path).unwrap();
    let loaded = Engine::load(&path, block.clone()).unwrap();
    std::fs::remove_file(&path).ok();
    trace.state("load", &loaded);
    trace.run("loaded exact e1", &loaded, loaded.exact(&p1).unwrap());
    trace.run(
        "loaded covertree e1",
        &loaded,
        loaded.covertree(&p1).unwrap(),
    );
    trace.run("loaded approx e1", &loaded, loaded.approx(&a1).unwrap());
    trace.run(
        "loaded streaming e1",
        &loaded,
        loaded.streaming(&a1).unwrap(),
    );

    let path = temp_path("snapshot");
    snap0.save(&path).unwrap();
    let replica = Engine::load(&path, block.clone()).unwrap();
    std::fs::remove_file(&path).ok();
    trace.state("snapshot load", &replica);
    trace.run("replica exact e1", &replica, replica.exact(&p1).unwrap());
    trace.run(
        "replica streaming e1",
        &replica,
        replica.streaming(&a1).unwrap(),
    );

    e.clear_cache();
    trace.state("clear", e);
    trace.run("exact e1", e, e.exact(&p1).unwrap());
    trace.run("streaming e1", e, e.streaming(&a1).unwrap());
}

fn strategy_name(s: NetStrategy) -> &'static str {
    match s {
        NetStrategy::Gonzalez => "gonz",
        NetStrategy::RadiusGuided => "rg",
    }
}

#[test]
fn cache_counters_follow_the_recorded_trace() {
    let block = VectorBlock::<f64>::from_rows(&rows());
    let mut configs = Vec::new();
    for (name, index) in indexes() {
        for strategy in [NetStrategy::Gonzalez, NetStrategy::RadiusGuided] {
            configs.push((name, index, strategy, None));
        }
        for capacity in [0, 2] {
            configs.push((name, index, NetStrategy::Gonzalez, Some(capacity)));
        }
    }
    let mut trace = Trace {
        session: String::new(),
        lines: Vec::new(),
    };
    for (name, index, strategy, capacity) in configs {
        trace.session = match capacity {
            Some(c) => format!("{name}/{}/c{c}", strategy_name(strategy)),
            None => format!("{name}/{}", strategy_name(strategy)),
        };
        let e = build(&block, index, strategy, capacity);
        session(&mut trace, &block, &e);
    }
    let expected: Vec<&str> = EXPECTED.lines().collect();
    for (i, (got, want)) in trace.lines.iter().zip(&expected).enumerate() {
        assert_eq!(
            got,
            want,
            "step {i} differs; full trace:\n{}",
            trace.lines.join("\n")
        );
    }
    assert_eq!(
        trace.lines.len(),
        expected.len(),
        "trace length differs; full trace:\n{}",
        trace.lines.join("\n")
    );
}

#[test]
fn save_load_save_is_byte_identical() {
    let block = VectorBlock::<f64>::from_rows(&rows());
    let (p1, p2, a1) = (exact_p(1.0), exact_p(1.5), approx_p(1.0));
    for (name, index) in indexes() {
        for strategy in [NetStrategy::Gonzalez, NetStrategy::RadiusGuided] {
            let tag = format!("{name}_{}", strategy_name(strategy));
            let e = build(&block, index, strategy, None);
            let fill = |e: &Engine| {
                e.exact(&p1).unwrap();
                e.exact(&p2).unwrap();
                e.approx(&a1).unwrap();
                e.covertree(&p1).unwrap();
                e.streaming(&a1).unwrap();
            };
            fill(&e);
            e.ingest(batch(0)).unwrap();
            fill(&e);
            // A same-epoch hit too, so every counter is non-zero.
            e.exact(&p1).unwrap();
            let s = e.cache_stats();
            assert!(
                s.entries >= 6 && s.adjacency_entries >= 4 && s.covertree_cached,
                "{tag}: {s:?}"
            );
            assert!(s.hits > 0 && s.misses > 0 && s.upgrades > 0, "{tag}: {s:?}");

            let first = temp_path(&format!("{tag}_a"));
            e.save(&first).unwrap();
            let loaded = Engine::load(&first, block.clone()).unwrap();
            let second = temp_path(&format!("{tag}_b"));
            loaded.save(&second).unwrap();
            let (a, b) = (
                std::fs::read(&first).unwrap(),
                std::fs::read(&second).unwrap(),
            );
            std::fs::remove_file(&first).ok();
            std::fs::remove_file(&second).ok();
            assert!(
                a == b,
                "{tag}: re-saved artifact differs ({} vs {} bytes)",
                a.len(),
                b.len()
            );
        }
    }
}

/// Recorded at the commit that introduced this test, before the engine's
/// caches shared one implementation.
const EXPECTED: &str = "\
generic/gonz exact e1: hit0 0/1 fe8036e5097ccc29 | h0 m1 u0 e1 t0 | a0 1 1 | g0 0 0 | r0 0 0
generic/gonz exact e1: hit1 1/1 fe8036e5097ccc29 | h1 m1 u0 e1 t0 | a1 1 1 | g0 0 0 | r0 0 0
generic/gonz approx e1: hit0 1/2 95263413948e12ea | h1 m2 u0 e2 t0 | a1 2 2 | g0 0 0 | r0 0 0
generic/gonz approx e1: hit1 2/2 95263413948e12ea | h2 m2 u0 e2 t0 | a2 2 2 | g0 0 0 | r0 0 0
generic/gonz covertree e1: hit0 2/4 fe8036e5097ccc29 | h2 m4 u0 e3 t1 | a2 3 3 | g0 0 0 | r0 0 0
generic/gonz covertree e1: hit1 4/4 fe8036e5097ccc29 | h4 m4 u0 e3 t1 | a3 3 3 | g0 0 0 | r0 0 0
generic/gonz streaming e1: hit0 4/4 5cadb2d634b8fa6a | h4 m4 u0 e3 t1 | a3 3 3 | g0 0 0 | r0 0 0
generic/gonz streaming e1: hit0 4/4 5cadb2d634b8fa6a | h4 m4 u0 e3 t1 | a3 3 3 | g0 0 0 | r0 0 0
generic/gonz exact e1.5: hit0 4/5 fe8036e5097ccc29 | h4 m5 u0 e4 t1 | a4 3 3 | g0 0 0 | r0 0 0
generic/gonz approx e1.5: hit0 4/6 95263413948e12ea | h4 m6 u0 e5 t1 | a4 4 4 | g0 0 0 | r0 0 0
generic/gonz covertree e1.5: hit1 5/7 fe8036e5097ccc29 | h5 m7 u0 e6 t1 | a4 5 5 | g0 0 0 | r0 0 0
generic/gonz ingest 1: h5 m7 u0 e6 t1 | a4 5 5 | g0 0 0 | r0 0 0
generic/gonz exact e1: hit0 5/8 31af04318441d7ab | h5 m8 u2 e7 t1 | a4 6 6 | g0 0 0 | r0 0 0
generic/gonz approx e1: hit0 5/9 123c30e468fb088b | h5 m9 u3 e8 t1 | a4 7 7 | g0 0 0 | r0 0 0
generic/gonz covertree e1: hit0 5/11 31af04318441d7ab | h5 m11 u4 e9 t1 | a4 8 8 | g0 0 0 | r0 0 0
generic/gonz streaming e1: hit0 5/11 8a29cc33068263a8 | h5 m11 u4 e9 t1 | a4 8 8 | g0 0 0 | r0 0 0
generic/gonz snap0 exact e1: hit1 6/11 fe8036e5097ccc29 | h6 m11 u4 e9 t1 | a5 8 8 | g0 0 0 | r0 0 0
generic/gonz snap0 approx e1: hit1 7/11 95263413948e12ea | h7 m11 u4 e9 t1 | a6 8 8 | g0 0 0 | r0 0 0
generic/gonz snap0 covertree e1: hit1 9/11 fe8036e5097ccc29 | h9 m11 u4 e9 t1 | a7 8 8 | g0 0 0 | r0 0 0
generic/gonz ingest 2: h9 m11 u4 e9 t1 | a7 8 8 | g0 0 0 | r0 0 0
generic/gonz exact e1: hit0 9/12 d0ef656654f7a3e3 | h9 m12 u6 e10 t1 | a7 9 8 | g0 0 0 | r0 0 0
generic/gonz exact e1.5: hit0 9/13 d0ef656654f7a3e3 | h9 m13 u8 e11 t1 | a7 10 8 | g0 0 0 | r0 0 0
generic/gonz covertree e1: hit0 9/15 d0ef656654f7a3e3 | h9 m15 u9 e12 t1 | a7 11 8 | g0 0 0 | r0 0 0
generic/gonz approx e1: hit0 9/16 3946f4025aba7e83 | h9 m16 u9 e13 t1 | a8 11 8 | g0 0 0 | r0 0 0
generic/gonz streaming e1: hit0 9/16 adf6ad07063add40 | h9 m16 u9 e13 t1 | a8 11 8 | g0 0 0 | r0 0 0
generic/gonz load: h9 m16 u9 e13 t1 | a8 11 8 | g0 0 0 | r0 0 0
generic/gonz loaded exact e1: hit1 10/16 d0ef656654f7a3e3 | h10 m16 u9 e13 t1 | a9 11 8 | g0 0 0 | r0 0 0
generic/gonz loaded covertree e1: hit1 12/16 d0ef656654f7a3e3 | h12 m16 u9 e13 t1 | a10 11 8 | g0 0 0 | r0 0 0
generic/gonz loaded approx e1: hit1 13/16 3946f4025aba7e83 | h13 m16 u9 e13 t1 | a11 11 8 | g0 0 0 | r0 0 0
generic/gonz loaded streaming e1: hit0 13/16 adf6ad07063add40 | h13 m16 u9 e13 t1 | a11 11 8 | g0 0 0 | r0 0 0
generic/gonz snapshot load: h0 m0 u0 e0 t0 | a0 0 0 | g0 0 0 | r0 0 0
generic/gonz replica exact e1: hit0 0/1 fe8036e5097ccc29 | h0 m1 u0 e1 t0 | a0 1 1 | g0 0 0 | r0 0 0
generic/gonz replica streaming e1: hit0 0/1 5cadb2d634b8fa6a | h0 m1 u0 e1 t0 | a0 1 1 | g0 0 0 | r0 0 0
generic/gonz clear: h9 m16 u9 e0 t0 | a8 11 0 | g0 0 0 | r0 0 0
generic/gonz exact e1: hit0 9/17 d0ef656654f7a3e3 | h9 m17 u9 e1 t0 | a8 12 1 | g0 0 0 | r0 0 0
generic/gonz streaming e1: hit0 9/17 adf6ad07063add40 | h9 m17 u9 e1 t0 | a8 12 1 | g0 0 0 | r0 0 0
generic/rg exact e1: hit0 0/1 fe8036e5097ccc29 | h0 m1 u0 e1 t0 | a0 1 1 | g0 0 0 | r0 0 0
generic/rg exact e1: hit1 1/1 fe8036e5097ccc29 | h1 m1 u0 e1 t0 | a1 1 1 | g0 0 0 | r0 0 0
generic/rg approx e1: hit0 1/2 8047ab1b8efdbda9 | h1 m2 u0 e2 t0 | a1 2 2 | g0 0 0 | r0 0 0
generic/rg approx e1: hit1 2/2 8047ab1b8efdbda9 | h2 m2 u0 e2 t0 | a2 2 2 | g0 0 0 | r0 0 0
generic/rg covertree e1: hit0 2/4 fe8036e5097ccc29 | h2 m4 u0 e3 t1 | a2 3 3 | g0 0 0 | r0 0 0
generic/rg covertree e1: hit1 4/4 fe8036e5097ccc29 | h4 m4 u0 e3 t1 | a3 3 3 | g0 0 0 | r0 0 0
generic/rg streaming e1: hit0 4/4 5cadb2d634b8fa6a | h4 m4 u0 e3 t1 | a3 3 3 | g0 0 0 | r0 0 0
generic/rg streaming e1: hit0 4/4 5cadb2d634b8fa6a | h4 m4 u0 e3 t1 | a3 3 3 | g0 0 0 | r0 0 0
generic/rg exact e1.5: hit0 4/5 fe8036e5097ccc29 | h4 m5 u0 e4 t1 | a4 3 3 | g0 0 0 | r0 0 0
generic/rg approx e1.5: hit0 4/6 8047ab1b8efdbda9 | h4 m6 u0 e5 t1 | a4 4 4 | g0 0 0 | r0 0 0
generic/rg covertree e1.5: hit1 5/7 fe8036e5097ccc29 | h5 m7 u0 e6 t1 | a4 5 5 | g0 0 0 | r0 0 0
generic/rg ingest 1: h5 m7 u0 e6 t1 | a4 5 5 | g0 0 0 | r0 0 0
generic/rg exact e1: hit0 5/8 31af04318441d7ab | h5 m8 u2 e7 t1 | a4 6 6 | g0 0 0 | r0 0 0
generic/rg approx e1: hit0 5/9 2573720a63560f88 | h5 m9 u3 e8 t1 | a4 7 7 | g0 0 0 | r0 0 0
generic/rg covertree e1: hit0 5/11 31af04318441d7ab | h5 m11 u4 e9 t1 | a4 8 8 | g0 0 0 | r0 0 0
generic/rg streaming e1: hit0 5/11 8a29cc33068263a8 | h5 m11 u4 e9 t1 | a4 8 8 | g0 0 0 | r0 0 0
generic/rg snap0 exact e1: hit1 6/11 fe8036e5097ccc29 | h6 m11 u4 e9 t1 | a5 8 8 | g0 0 0 | r0 0 0
generic/rg snap0 approx e1: hit1 7/11 8047ab1b8efdbda9 | h7 m11 u4 e9 t1 | a6 8 8 | g0 0 0 | r0 0 0
generic/rg snap0 covertree e1: hit1 9/11 fe8036e5097ccc29 | h9 m11 u4 e9 t1 | a7 8 8 | g0 0 0 | r0 0 0
generic/rg ingest 2: h9 m11 u4 e9 t1 | a7 8 8 | g0 0 0 | r0 0 0
generic/rg exact e1: hit0 9/12 d0ef656654f7a3e3 | h9 m12 u6 e10 t1 | a7 9 8 | g0 0 0 | r0 0 0
generic/rg exact e1.5: hit0 9/13 d0ef656654f7a3e3 | h9 m13 u8 e11 t1 | a7 10 8 | g0 0 0 | r0 0 0
generic/rg covertree e1: hit0 9/15 d0ef656654f7a3e3 | h9 m15 u9 e12 t1 | a7 11 8 | g0 0 0 | r0 0 0
generic/rg approx e1: hit0 9/16 15b038ad26e2bda0 | h9 m16 u9 e13 t1 | a8 11 8 | g0 0 0 | r0 0 0
generic/rg streaming e1: hit0 9/16 adf6ad07063add40 | h9 m16 u9 e13 t1 | a8 11 8 | g0 0 0 | r0 0 0
generic/rg load: h9 m16 u9 e13 t1 | a8 11 8 | g0 0 0 | r0 0 0
generic/rg loaded exact e1: hit1 10/16 d0ef656654f7a3e3 | h10 m16 u9 e13 t1 | a9 11 8 | g0 0 0 | r0 0 0
generic/rg loaded covertree e1: hit1 12/16 d0ef656654f7a3e3 | h12 m16 u9 e13 t1 | a10 11 8 | g0 0 0 | r0 0 0
generic/rg loaded approx e1: hit1 13/16 15b038ad26e2bda0 | h13 m16 u9 e13 t1 | a11 11 8 | g0 0 0 | r0 0 0
generic/rg loaded streaming e1: hit0 13/16 adf6ad07063add40 | h13 m16 u9 e13 t1 | a11 11 8 | g0 0 0 | r0 0 0
generic/rg snapshot load: h0 m0 u0 e0 t0 | a0 0 0 | g0 0 0 | r0 0 0
generic/rg replica exact e1: hit0 0/1 fe8036e5097ccc29 | h0 m1 u0 e1 t0 | a0 1 1 | g0 0 0 | r0 0 0
generic/rg replica streaming e1: hit0 0/1 5cadb2d634b8fa6a | h0 m1 u0 e1 t0 | a0 1 1 | g0 0 0 | r0 0 0
generic/rg clear: h9 m16 u9 e0 t0 | a8 11 0 | g0 0 0 | r0 0 0
generic/rg exact e1: hit0 9/17 d0ef656654f7a3e3 | h9 m17 u9 e1 t0 | a8 12 1 | g0 0 0 | r0 0 0
generic/rg streaming e1: hit0 9/17 adf6ad07063add40 | h9 m17 u9 e1 t0 | a8 12 1 | g0 0 0 | r0 0 0
generic/gonz/c0 exact e1: hit0 0/1 fe8036e5097ccc29 | h0 m1 u0 e0 t0 | a0 1 0 | g0 0 0 | r0 0 0
generic/gonz/c0 exact e1: hit0 0/2 fe8036e5097ccc29 | h0 m2 u0 e0 t0 | a0 2 0 | g0 0 0 | r0 0 0
generic/gonz/c0 approx e1: hit0 0/3 95263413948e12ea | h0 m3 u0 e0 t0 | a0 3 0 | g0 0 0 | r0 0 0
generic/gonz/c0 approx e1: hit0 0/4 95263413948e12ea | h0 m4 u0 e0 t0 | a0 4 0 | g0 0 0 | r0 0 0
generic/gonz/c0 covertree e1: hit0 0/6 fe8036e5097ccc29 | h0 m6 u0 e0 t0 | a0 5 0 | g0 0 0 | r0 0 0
generic/gonz/c0 covertree e1: hit0 0/8 fe8036e5097ccc29 | h0 m8 u0 e0 t0 | a0 6 0 | g0 0 0 | r0 0 0
generic/gonz/c0 streaming e1: hit0 0/8 5cadb2d634b8fa6a | h0 m8 u0 e0 t0 | a0 6 0 | g0 0 0 | r0 0 0
generic/gonz/c0 streaming e1: hit0 0/8 5cadb2d634b8fa6a | h0 m8 u0 e0 t0 | a0 6 0 | g0 0 0 | r0 0 0
generic/gonz/c0 exact e1.5: hit0 0/9 fe8036e5097ccc29 | h0 m9 u0 e0 t0 | a0 7 0 | g0 0 0 | r0 0 0
generic/gonz/c0 approx e1.5: hit0 0/10 95263413948e12ea | h0 m10 u0 e0 t0 | a0 8 0 | g0 0 0 | r0 0 0
generic/gonz/c0 covertree e1.5: hit0 0/12 fe8036e5097ccc29 | h0 m12 u0 e0 t0 | a0 9 0 | g0 0 0 | r0 0 0
generic/gonz/c0 ingest 1: h0 m12 u0 e0 t0 | a0 9 0 | g0 0 0 | r0 0 0
generic/gonz/c0 exact e1: hit0 0/13 31af04318441d7ab | h0 m13 u0 e0 t0 | a0 10 0 | g0 0 0 | r0 0 0
generic/gonz/c0 approx e1: hit0 0/14 123c30e468fb088b | h0 m14 u0 e0 t0 | a0 11 0 | g0 0 0 | r0 0 0
generic/gonz/c0 covertree e1: hit0 0/16 31af04318441d7ab | h0 m16 u0 e0 t0 | a0 12 0 | g0 0 0 | r0 0 0
generic/gonz/c0 streaming e1: hit0 0/16 8a29cc33068263a8 | h0 m16 u0 e0 t0 | a0 12 0 | g0 0 0 | r0 0 0
generic/gonz/c0 snap0 exact e1: hit0 0/17 fe8036e5097ccc29 | h0 m17 u0 e0 t0 | a0 13 0 | g0 0 0 | r0 0 0
generic/gonz/c0 snap0 approx e1: hit0 0/18 95263413948e12ea | h0 m18 u0 e0 t0 | a0 14 0 | g0 0 0 | r0 0 0
generic/gonz/c0 snap0 covertree e1: hit0 0/20 fe8036e5097ccc29 | h0 m20 u0 e0 t0 | a0 15 0 | g0 0 0 | r0 0 0
generic/gonz/c0 ingest 2: h0 m20 u0 e0 t0 | a0 15 0 | g0 0 0 | r0 0 0
generic/gonz/c0 exact e1: hit0 0/21 d0ef656654f7a3e3 | h0 m21 u0 e0 t0 | a0 16 0 | g0 0 0 | r0 0 0
generic/gonz/c0 exact e1.5: hit0 0/22 d0ef656654f7a3e3 | h0 m22 u0 e0 t0 | a0 17 0 | g0 0 0 | r0 0 0
generic/gonz/c0 covertree e1: hit0 0/24 d0ef656654f7a3e3 | h0 m24 u0 e0 t0 | a0 18 0 | g0 0 0 | r0 0 0
generic/gonz/c0 approx e1: hit0 0/25 3946f4025aba7e83 | h0 m25 u0 e0 t0 | a0 19 0 | g0 0 0 | r0 0 0
generic/gonz/c0 streaming e1: hit0 0/25 adf6ad07063add40 | h0 m25 u0 e0 t0 | a0 19 0 | g0 0 0 | r0 0 0
generic/gonz/c0 load: h0 m25 u0 e0 t0 | a0 19 0 | g0 0 0 | r0 0 0
generic/gonz/c0 loaded exact e1: hit0 0/26 d0ef656654f7a3e3 | h0 m26 u0 e0 t0 | a0 20 0 | g0 0 0 | r0 0 0
generic/gonz/c0 loaded covertree e1: hit0 0/28 d0ef656654f7a3e3 | h0 m28 u0 e0 t0 | a0 21 0 | g0 0 0 | r0 0 0
generic/gonz/c0 loaded approx e1: hit0 0/29 3946f4025aba7e83 | h0 m29 u0 e0 t0 | a0 22 0 | g0 0 0 | r0 0 0
generic/gonz/c0 loaded streaming e1: hit0 0/29 adf6ad07063add40 | h0 m29 u0 e0 t0 | a0 22 0 | g0 0 0 | r0 0 0
generic/gonz/c0 snapshot load: h0 m0 u0 e0 t0 | a0 0 0 | g0 0 0 | r0 0 0
generic/gonz/c0 replica exact e1: hit0 0/1 fe8036e5097ccc29 | h0 m1 u0 e0 t0 | a0 1 0 | g0 0 0 | r0 0 0
generic/gonz/c0 replica streaming e1: hit0 0/1 5cadb2d634b8fa6a | h0 m1 u0 e0 t0 | a0 1 0 | g0 0 0 | r0 0 0
generic/gonz/c0 clear: h0 m25 u0 e0 t0 | a0 19 0 | g0 0 0 | r0 0 0
generic/gonz/c0 exact e1: hit0 0/26 d0ef656654f7a3e3 | h0 m26 u0 e0 t0 | a0 20 0 | g0 0 0 | r0 0 0
generic/gonz/c0 streaming e1: hit0 0/26 adf6ad07063add40 | h0 m26 u0 e0 t0 | a0 20 0 | g0 0 0 | r0 0 0
generic/gonz/c2 exact e1: hit0 0/1 fe8036e5097ccc29 | h0 m1 u0 e1 t0 | a0 1 1 | g0 0 0 | r0 0 0
generic/gonz/c2 exact e1: hit1 1/1 fe8036e5097ccc29 | h1 m1 u0 e1 t0 | a1 1 1 | g0 0 0 | r0 0 0
generic/gonz/c2 approx e1: hit0 1/2 95263413948e12ea | h1 m2 u0 e2 t0 | a1 2 2 | g0 0 0 | r0 0 0
generic/gonz/c2 approx e1: hit1 2/2 95263413948e12ea | h2 m2 u0 e2 t0 | a2 2 2 | g0 0 0 | r0 0 0
generic/gonz/c2 covertree e1: hit0 2/4 fe8036e5097ccc29 | h2 m4 u0 e2 t1 | a2 3 3 | g0 0 0 | r0 0 0
generic/gonz/c2 covertree e1: hit1 4/4 fe8036e5097ccc29 | h4 m4 u0 e2 t1 | a3 3 3 | g0 0 0 | r0 0 0
generic/gonz/c2 streaming e1: hit0 4/4 5cadb2d634b8fa6a | h4 m4 u0 e2 t1 | a3 3 3 | g0 0 0 | r0 0 0
generic/gonz/c2 streaming e1: hit0 4/4 5cadb2d634b8fa6a | h4 m4 u0 e2 t1 | a3 3 3 | g0 0 0 | r0 0 0
generic/gonz/c2 exact e1.5: hit0 4/5 fe8036e5097ccc29 | h4 m5 u0 e2 t1 | a4 3 3 | g0 0 0 | r0 0 0
generic/gonz/c2 approx e1.5: hit0 4/6 95263413948e12ea | h4 m6 u0 e2 t1 | a4 4 4 | g0 0 0 | r0 0 0
generic/gonz/c2 covertree e1.5: hit1 5/7 fe8036e5097ccc29 | h5 m7 u0 e2 t1 | a4 5 5 | g0 0 0 | r0 0 0
generic/gonz/c2 ingest 1: h5 m7 u0 e2 t1 | a4 5 5 | g0 0 0 | r0 0 0
generic/gonz/c2 exact e1: hit0 5/8 31af04318441d7ab | h5 m8 u1 e2 t1 | a4 6 6 | g0 0 0 | r0 0 0
generic/gonz/c2 approx e1: hit0 5/9 123c30e468fb088b | h5 m9 u2 e2 t1 | a4 7 7 | g0 0 0 | r0 0 0
generic/gonz/c2 covertree e1: hit0 5/11 31af04318441d7ab | h5 m11 u3 e2 t1 | a4 8 8 | g0 0 0 | r0 0 0
generic/gonz/c2 streaming e1: hit0 5/11 8a29cc33068263a8 | h5 m11 u3 e2 t1 | a4 8 8 | g0 0 0 | r0 0 0
generic/gonz/c2 snap0 exact e1: hit0 5/12 fe8036e5097ccc29 | h5 m12 u3 e2 t1 | a5 8 8 | g0 0 0 | r0 0 0
generic/gonz/c2 snap0 approx e1: hit0 5/13 95263413948e12ea | h5 m13 u3 e2 t1 | a6 8 8 | g0 0 0 | r0 0 0
generic/gonz/c2 snap0 covertree e1: hit1 6/14 fe8036e5097ccc29 | h6 m14 u3 e2 t1 | a7 8 8 | g0 0 0 | r0 0 0
generic/gonz/c2 ingest 2: h6 m14 u3 e2 t1 | a7 8 8 | g0 0 0 | r0 0 0
generic/gonz/c2 exact e1: hit0 6/15 d0ef656654f7a3e3 | h6 m15 u4 e2 t1 | a7 9 8 | g0 0 0 | r0 0 0
generic/gonz/c2 exact e1.5: hit0 6/16 d0ef656654f7a3e3 | h6 m16 u5 e2 t1 | a7 10 8 | g0 0 0 | r0 0 0
generic/gonz/c2 covertree e1: hit0 6/18 d0ef656654f7a3e3 | h6 m18 u6 e2 t1 | a7 11 8 | g0 0 0 | r0 0 0
generic/gonz/c2 approx e1: hit0 6/19 3946f4025aba7e83 | h6 m19 u6 e2 t1 | a8 11 8 | g0 0 0 | r0 0 0
generic/gonz/c2 streaming e1: hit0 6/19 adf6ad07063add40 | h6 m19 u6 e2 t1 | a8 11 8 | g0 0 0 | r0 0 0
generic/gonz/c2 load: h6 m19 u6 e2 t1 | a8 11 8 | g0 0 0 | r0 0 0
generic/gonz/c2 loaded exact e1: hit0 6/20 d0ef656654f7a3e3 | h6 m20 u6 e2 t1 | a9 11 8 | g0 0 0 | r0 0 0
generic/gonz/c2 loaded covertree e1: hit1 7/21 d0ef656654f7a3e3 | h7 m21 u6 e2 t1 | a10 11 8 | g0 0 0 | r0 0 0
generic/gonz/c2 loaded approx e1: hit0 7/22 3946f4025aba7e83 | h7 m22 u6 e2 t1 | a11 11 8 | g0 0 0 | r0 0 0
generic/gonz/c2 loaded streaming e1: hit0 7/22 adf6ad07063add40 | h7 m22 u6 e2 t1 | a11 11 8 | g0 0 0 | r0 0 0
generic/gonz/c2 snapshot load: h0 m0 u0 e0 t0 | a0 0 0 | g0 0 0 | r0 0 0
generic/gonz/c2 replica exact e1: hit0 0/1 fe8036e5097ccc29 | h0 m1 u0 e1 t0 | a0 1 1 | g0 0 0 | r0 0 0
generic/gonz/c2 replica streaming e1: hit0 0/1 5cadb2d634b8fa6a | h0 m1 u0 e1 t0 | a0 1 1 | g0 0 0 | r0 0 0
generic/gonz/c2 clear: h6 m19 u6 e0 t0 | a8 11 0 | g0 0 0 | r0 0 0
generic/gonz/c2 exact e1: hit0 6/20 d0ef656654f7a3e3 | h6 m20 u6 e1 t0 | a8 12 1 | g0 0 0 | r0 0 0
generic/gonz/c2 streaming e1: hit0 6/20 adf6ad07063add40 | h6 m20 u6 e1 t0 | a8 12 1 | g0 0 0 | r0 0 0
grid/gonz exact e1: hit0 0/1 fe8036e5097ccc29 | h0 m1 u0 e1 t0 | a0 1 1 | g0 1 1 | r0 0 0
grid/gonz exact e1: hit1 1/1 fe8036e5097ccc29 | h1 m1 u0 e1 t0 | a1 1 1 | g1 1 1 | r0 0 0
grid/gonz approx e1: hit0 1/2 95263413948e12ea | h1 m2 u0 e2 t0 | a1 2 2 | g2 1 1 | r0 0 0
grid/gonz approx e1: hit1 2/2 95263413948e12ea | h2 m2 u0 e2 t0 | a2 2 2 | g3 1 1 | r0 0 0
grid/gonz covertree e1: hit0 2/4 fe8036e5097ccc29 | h2 m4 u0 e3 t1 | a2 3 3 | g4 1 1 | r0 0 0
grid/gonz covertree e1: hit1 4/4 fe8036e5097ccc29 | h4 m4 u0 e3 t1 | a3 3 3 | g5 1 1 | r0 0 0
grid/gonz streaming e1: hit0 4/4 5cadb2d634b8fa6a | h4 m4 u0 e3 t1 | a3 3 3 | g5 1 1 | r0 0 0
grid/gonz streaming e1: hit0 4/4 5cadb2d634b8fa6a | h4 m4 u0 e3 t1 | a3 3 3 | g5 1 1 | r0 0 0
grid/gonz exact e1.5: hit0 4/5 fe8036e5097ccc29 | h4 m5 u0 e4 t1 | a4 3 3 | g5 2 2 | r0 0 0
grid/gonz approx e1.5: hit0 4/6 95263413948e12ea | h4 m6 u0 e5 t1 | a4 4 4 | g6 2 2 | r0 0 0
grid/gonz covertree e1.5: hit1 5/7 fe8036e5097ccc29 | h5 m7 u0 e6 t1 | a4 5 5 | g7 2 2 | r0 0 0
grid/gonz ingest 1: h5 m7 u0 e6 t1 | a4 5 5 | g7 2 2 | r0 0 0
grid/gonz exact e1: hit0 5/8 31af04318441d7ab | h5 m8 u3 e7 t1 | a4 6 6 | g7 3 3 | r0 0 0
grid/gonz approx e1: hit0 5/9 123c30e468fb088b | h5 m9 u4 e8 t1 | a4 7 7 | g8 3 3 | r0 0 0
grid/gonz covertree e1: hit0 5/11 31af04318441d7ab | h5 m11 u5 e9 t1 | a4 8 8 | g9 3 3 | r0 0 0
grid/gonz streaming e1: hit0 5/11 8a29cc33068263a8 | h5 m11 u5 e9 t1 | a4 8 8 | g9 3 3 | r0 0 0
grid/gonz snap0 exact e1: hit1 6/11 fe8036e5097ccc29 | h6 m11 u5 e9 t1 | a5 8 8 | g10 3 3 | r0 0 0
grid/gonz snap0 approx e1: hit1 7/11 95263413948e12ea | h7 m11 u5 e9 t1 | a6 8 8 | g11 3 3 | r0 0 0
grid/gonz snap0 covertree e1: hit1 9/11 fe8036e5097ccc29 | h9 m11 u5 e9 t1 | a7 8 8 | g12 3 3 | r0 0 0
grid/gonz ingest 2: h9 m11 u5 e9 t1 | a7 8 8 | g12 3 3 | r0 0 0
grid/gonz exact e1: hit0 9/12 d0ef656654f7a3e3 | h9 m12 u8 e10 t1 | a7 9 8 | g12 4 4 | r0 0 0
grid/gonz exact e1.5: hit0 9/13 d0ef656654f7a3e3 | h9 m13 u11 e11 t1 | a7 10 8 | g12 5 4 | r0 0 0
grid/gonz covertree e1: hit0 9/15 d0ef656654f7a3e3 | h9 m15 u12 e12 t1 | a7 11 8 | g13 5 4 | r0 0 0
grid/gonz approx e1: hit0 9/16 3946f4025aba7e83 | h9 m16 u12 e13 t1 | a8 11 8 | g14 5 4 | r0 0 0
grid/gonz streaming e1: hit0 9/16 adf6ad07063add40 | h9 m16 u12 e13 t1 | a8 11 8 | g14 5 4 | r0 0 0
grid/gonz load: h9 m16 u12 e13 t1 | a8 11 8 | g14 5 0 | r0 0 0
grid/gonz loaded exact e1: hit1 10/16 d0ef656654f7a3e3 | h10 m16 u12 e13 t1 | a9 11 8 | g14 6 1 | r0 0 0
grid/gonz loaded covertree e1: hit1 12/16 d0ef656654f7a3e3 | h12 m16 u12 e13 t1 | a10 11 8 | g15 6 1 | r0 0 0
grid/gonz loaded approx e1: hit1 13/16 3946f4025aba7e83 | h13 m16 u12 e13 t1 | a11 11 8 | g16 6 1 | r0 0 0
grid/gonz loaded streaming e1: hit0 13/16 adf6ad07063add40 | h13 m16 u12 e13 t1 | a11 11 8 | g16 6 1 | r0 0 0
grid/gonz snapshot load: h0 m0 u0 e0 t0 | a0 0 0 | g0 0 0 | r0 0 0
grid/gonz replica exact e1: hit0 0/1 fe8036e5097ccc29 | h0 m1 u0 e1 t0 | a0 1 1 | g0 1 1 | r0 0 0
grid/gonz replica streaming e1: hit0 0/1 5cadb2d634b8fa6a | h0 m1 u0 e1 t0 | a0 1 1 | g0 1 1 | r0 0 0
grid/gonz clear: h9 m16 u12 e0 t0 | a8 11 0 | g14 5 0 | r0 0 0
grid/gonz exact e1: hit0 9/17 d0ef656654f7a3e3 | h9 m17 u12 e1 t0 | a8 12 1 | g14 6 1 | r0 0 0
grid/gonz streaming e1: hit0 9/17 adf6ad07063add40 | h9 m17 u12 e1 t0 | a8 12 1 | g14 6 1 | r0 0 0
grid/rg exact e1: hit0 0/1 fe8036e5097ccc29 | h0 m1 u0 e1 t0 | a0 1 1 | g0 1 1 | r0 0 0
grid/rg exact e1: hit1 1/1 fe8036e5097ccc29 | h1 m1 u0 e1 t0 | a1 1 1 | g1 1 1 | r0 0 0
grid/rg approx e1: hit0 1/2 8047ab1b8efdbda9 | h1 m2 u0 e2 t0 | a1 2 2 | g2 1 1 | r0 0 0
grid/rg approx e1: hit1 2/2 8047ab1b8efdbda9 | h2 m2 u0 e2 t0 | a2 2 2 | g3 1 1 | r0 0 0
grid/rg covertree e1: hit0 2/4 fe8036e5097ccc29 | h2 m4 u0 e3 t1 | a2 3 3 | g4 1 1 | r0 0 0
grid/rg covertree e1: hit1 4/4 fe8036e5097ccc29 | h4 m4 u0 e3 t1 | a3 3 3 | g5 1 1 | r0 0 0
grid/rg streaming e1: hit0 4/4 5cadb2d634b8fa6a | h4 m4 u0 e3 t1 | a3 3 3 | g5 1 1 | r0 0 0
grid/rg streaming e1: hit0 4/4 5cadb2d634b8fa6a | h4 m4 u0 e3 t1 | a3 3 3 | g5 1 1 | r0 0 0
grid/rg exact e1.5: hit0 4/5 fe8036e5097ccc29 | h4 m5 u0 e4 t1 | a4 3 3 | g5 2 2 | r0 0 0
grid/rg approx e1.5: hit0 4/6 8047ab1b8efdbda9 | h4 m6 u0 e5 t1 | a4 4 4 | g6 2 2 | r0 0 0
grid/rg covertree e1.5: hit1 5/7 fe8036e5097ccc29 | h5 m7 u0 e6 t1 | a4 5 5 | g7 2 2 | r0 0 0
grid/rg ingest 1: h5 m7 u0 e6 t1 | a4 5 5 | g7 2 2 | r0 0 0
grid/rg exact e1: hit0 5/8 31af04318441d7ab | h5 m8 u3 e7 t1 | a4 6 6 | g7 3 3 | r0 0 0
grid/rg approx e1: hit0 5/9 2573720a63560f88 | h5 m9 u4 e8 t1 | a4 7 7 | g8 3 3 | r0 0 0
grid/rg covertree e1: hit0 5/11 31af04318441d7ab | h5 m11 u5 e9 t1 | a4 8 8 | g9 3 3 | r0 0 0
grid/rg streaming e1: hit0 5/11 8a29cc33068263a8 | h5 m11 u5 e9 t1 | a4 8 8 | g9 3 3 | r0 0 0
grid/rg snap0 exact e1: hit1 6/11 fe8036e5097ccc29 | h6 m11 u5 e9 t1 | a5 8 8 | g10 3 3 | r0 0 0
grid/rg snap0 approx e1: hit1 7/11 8047ab1b8efdbda9 | h7 m11 u5 e9 t1 | a6 8 8 | g11 3 3 | r0 0 0
grid/rg snap0 covertree e1: hit1 9/11 fe8036e5097ccc29 | h9 m11 u5 e9 t1 | a7 8 8 | g12 3 3 | r0 0 0
grid/rg ingest 2: h9 m11 u5 e9 t1 | a7 8 8 | g12 3 3 | r0 0 0
grid/rg exact e1: hit0 9/12 d0ef656654f7a3e3 | h9 m12 u8 e10 t1 | a7 9 8 | g12 4 4 | r0 0 0
grid/rg exact e1.5: hit0 9/13 d0ef656654f7a3e3 | h9 m13 u11 e11 t1 | a7 10 8 | g12 5 4 | r0 0 0
grid/rg covertree e1: hit0 9/15 d0ef656654f7a3e3 | h9 m15 u12 e12 t1 | a7 11 8 | g13 5 4 | r0 0 0
grid/rg approx e1: hit0 9/16 15b038ad26e2bda0 | h9 m16 u12 e13 t1 | a8 11 8 | g14 5 4 | r0 0 0
grid/rg streaming e1: hit0 9/16 adf6ad07063add40 | h9 m16 u12 e13 t1 | a8 11 8 | g14 5 4 | r0 0 0
grid/rg load: h9 m16 u12 e13 t1 | a8 11 8 | g14 5 0 | r0 0 0
grid/rg loaded exact e1: hit1 10/16 d0ef656654f7a3e3 | h10 m16 u12 e13 t1 | a9 11 8 | g14 6 1 | r0 0 0
grid/rg loaded covertree e1: hit1 12/16 d0ef656654f7a3e3 | h12 m16 u12 e13 t1 | a10 11 8 | g15 6 1 | r0 0 0
grid/rg loaded approx e1: hit1 13/16 15b038ad26e2bda0 | h13 m16 u12 e13 t1 | a11 11 8 | g16 6 1 | r0 0 0
grid/rg loaded streaming e1: hit0 13/16 adf6ad07063add40 | h13 m16 u12 e13 t1 | a11 11 8 | g16 6 1 | r0 0 0
grid/rg snapshot load: h0 m0 u0 e0 t0 | a0 0 0 | g0 0 0 | r0 0 0
grid/rg replica exact e1: hit0 0/1 fe8036e5097ccc29 | h0 m1 u0 e1 t0 | a0 1 1 | g0 1 1 | r0 0 0
grid/rg replica streaming e1: hit0 0/1 5cadb2d634b8fa6a | h0 m1 u0 e1 t0 | a0 1 1 | g0 1 1 | r0 0 0
grid/rg clear: h9 m16 u12 e0 t0 | a8 11 0 | g14 5 0 | r0 0 0
grid/rg exact e1: hit0 9/17 d0ef656654f7a3e3 | h9 m17 u12 e1 t0 | a8 12 1 | g14 6 1 | r0 0 0
grid/rg streaming e1: hit0 9/17 adf6ad07063add40 | h9 m17 u12 e1 t0 | a8 12 1 | g14 6 1 | r0 0 0
grid/gonz/c0 exact e1: hit0 0/1 fe8036e5097ccc29 | h0 m1 u0 e0 t0 | a0 1 0 | g0 1 0 | r0 0 0
grid/gonz/c0 exact e1: hit0 0/2 fe8036e5097ccc29 | h0 m2 u0 e0 t0 | a0 2 0 | g0 2 0 | r0 0 0
grid/gonz/c0 approx e1: hit0 0/3 95263413948e12ea | h0 m3 u0 e0 t0 | a0 3 0 | g0 3 0 | r0 0 0
grid/gonz/c0 approx e1: hit0 0/4 95263413948e12ea | h0 m4 u0 e0 t0 | a0 4 0 | g0 4 0 | r0 0 0
grid/gonz/c0 covertree e1: hit0 0/6 fe8036e5097ccc29 | h0 m6 u0 e0 t0 | a0 5 0 | g0 5 0 | r0 0 0
grid/gonz/c0 covertree e1: hit0 0/8 fe8036e5097ccc29 | h0 m8 u0 e0 t0 | a0 6 0 | g0 6 0 | r0 0 0
grid/gonz/c0 streaming e1: hit0 0/8 5cadb2d634b8fa6a | h0 m8 u0 e0 t0 | a0 6 0 | g0 6 0 | r0 0 0
grid/gonz/c0 streaming e1: hit0 0/8 5cadb2d634b8fa6a | h0 m8 u0 e0 t0 | a0 6 0 | g0 6 0 | r0 0 0
grid/gonz/c0 exact e1.5: hit0 0/9 fe8036e5097ccc29 | h0 m9 u0 e0 t0 | a0 7 0 | g0 7 0 | r0 0 0
grid/gonz/c0 approx e1.5: hit0 0/10 95263413948e12ea | h0 m10 u0 e0 t0 | a0 8 0 | g0 8 0 | r0 0 0
grid/gonz/c0 covertree e1.5: hit0 0/12 fe8036e5097ccc29 | h0 m12 u0 e0 t0 | a0 9 0 | g0 9 0 | r0 0 0
grid/gonz/c0 ingest 1: h0 m12 u0 e0 t0 | a0 9 0 | g0 9 0 | r0 0 0
grid/gonz/c0 exact e1: hit0 0/13 31af04318441d7ab | h0 m13 u0 e0 t0 | a0 10 0 | g0 10 0 | r0 0 0
grid/gonz/c0 approx e1: hit0 0/14 123c30e468fb088b | h0 m14 u0 e0 t0 | a0 11 0 | g0 11 0 | r0 0 0
grid/gonz/c0 covertree e1: hit0 0/16 31af04318441d7ab | h0 m16 u0 e0 t0 | a0 12 0 | g0 12 0 | r0 0 0
grid/gonz/c0 streaming e1: hit0 0/16 8a29cc33068263a8 | h0 m16 u0 e0 t0 | a0 12 0 | g0 12 0 | r0 0 0
grid/gonz/c0 snap0 exact e1: hit0 0/17 fe8036e5097ccc29 | h0 m17 u0 e0 t0 | a0 13 0 | g0 13 0 | r0 0 0
grid/gonz/c0 snap0 approx e1: hit0 0/18 95263413948e12ea | h0 m18 u0 e0 t0 | a0 14 0 | g0 14 0 | r0 0 0
grid/gonz/c0 snap0 covertree e1: hit0 0/20 fe8036e5097ccc29 | h0 m20 u0 e0 t0 | a0 15 0 | g0 15 0 | r0 0 0
grid/gonz/c0 ingest 2: h0 m20 u0 e0 t0 | a0 15 0 | g0 15 0 | r0 0 0
grid/gonz/c0 exact e1: hit0 0/21 d0ef656654f7a3e3 | h0 m21 u0 e0 t0 | a0 16 0 | g0 16 0 | r0 0 0
grid/gonz/c0 exact e1.5: hit0 0/22 d0ef656654f7a3e3 | h0 m22 u0 e0 t0 | a0 17 0 | g0 17 0 | r0 0 0
grid/gonz/c0 covertree e1: hit0 0/24 d0ef656654f7a3e3 | h0 m24 u0 e0 t0 | a0 18 0 | g0 18 0 | r0 0 0
grid/gonz/c0 approx e1: hit0 0/25 3946f4025aba7e83 | h0 m25 u0 e0 t0 | a0 19 0 | g0 19 0 | r0 0 0
grid/gonz/c0 streaming e1: hit0 0/25 adf6ad07063add40 | h0 m25 u0 e0 t0 | a0 19 0 | g0 19 0 | r0 0 0
grid/gonz/c0 load: h0 m25 u0 e0 t0 | a0 19 0 | g0 19 0 | r0 0 0
grid/gonz/c0 loaded exact e1: hit0 0/26 d0ef656654f7a3e3 | h0 m26 u0 e0 t0 | a0 20 0 | g0 20 0 | r0 0 0
grid/gonz/c0 loaded covertree e1: hit0 0/28 d0ef656654f7a3e3 | h0 m28 u0 e0 t0 | a0 21 0 | g0 21 0 | r0 0 0
grid/gonz/c0 loaded approx e1: hit0 0/29 3946f4025aba7e83 | h0 m29 u0 e0 t0 | a0 22 0 | g0 22 0 | r0 0 0
grid/gonz/c0 loaded streaming e1: hit0 0/29 adf6ad07063add40 | h0 m29 u0 e0 t0 | a0 22 0 | g0 22 0 | r0 0 0
grid/gonz/c0 snapshot load: h0 m0 u0 e0 t0 | a0 0 0 | g0 0 0 | r0 0 0
grid/gonz/c0 replica exact e1: hit0 0/1 fe8036e5097ccc29 | h0 m1 u0 e0 t0 | a0 1 0 | g0 1 0 | r0 0 0
grid/gonz/c0 replica streaming e1: hit0 0/1 5cadb2d634b8fa6a | h0 m1 u0 e0 t0 | a0 1 0 | g0 1 0 | r0 0 0
grid/gonz/c0 clear: h0 m25 u0 e0 t0 | a0 19 0 | g0 19 0 | r0 0 0
grid/gonz/c0 exact e1: hit0 0/26 d0ef656654f7a3e3 | h0 m26 u0 e0 t0 | a0 20 0 | g0 20 0 | r0 0 0
grid/gonz/c0 streaming e1: hit0 0/26 adf6ad07063add40 | h0 m26 u0 e0 t0 | a0 20 0 | g0 20 0 | r0 0 0
grid/gonz/c2 exact e1: hit0 0/1 fe8036e5097ccc29 | h0 m1 u0 e1 t0 | a0 1 1 | g0 1 1 | r0 0 0
grid/gonz/c2 exact e1: hit1 1/1 fe8036e5097ccc29 | h1 m1 u0 e1 t0 | a1 1 1 | g1 1 1 | r0 0 0
grid/gonz/c2 approx e1: hit0 1/2 95263413948e12ea | h1 m2 u0 e2 t0 | a1 2 2 | g2 1 1 | r0 0 0
grid/gonz/c2 approx e1: hit1 2/2 95263413948e12ea | h2 m2 u0 e2 t0 | a2 2 2 | g3 1 1 | r0 0 0
grid/gonz/c2 covertree e1: hit0 2/4 fe8036e5097ccc29 | h2 m4 u0 e2 t1 | a2 3 3 | g4 1 1 | r0 0 0
grid/gonz/c2 covertree e1: hit1 4/4 fe8036e5097ccc29 | h4 m4 u0 e2 t1 | a3 3 3 | g5 1 1 | r0 0 0
grid/gonz/c2 streaming e1: hit0 4/4 5cadb2d634b8fa6a | h4 m4 u0 e2 t1 | a3 3 3 | g5 1 1 | r0 0 0
grid/gonz/c2 streaming e1: hit0 4/4 5cadb2d634b8fa6a | h4 m4 u0 e2 t1 | a3 3 3 | g5 1 1 | r0 0 0
grid/gonz/c2 exact e1.5: hit0 4/5 fe8036e5097ccc29 | h4 m5 u0 e2 t1 | a4 3 3 | g5 2 2 | r0 0 0
grid/gonz/c2 approx e1.5: hit0 4/6 95263413948e12ea | h4 m6 u0 e2 t1 | a4 4 4 | g6 2 2 | r0 0 0
grid/gonz/c2 covertree e1.5: hit1 5/7 fe8036e5097ccc29 | h5 m7 u0 e2 t1 | a4 5 5 | g7 2 2 | r0 0 0
grid/gonz/c2 ingest 1: h5 m7 u0 e2 t1 | a4 5 5 | g7 2 2 | r0 0 0
grid/gonz/c2 exact e1: hit0 5/8 31af04318441d7ab | h5 m8 u2 e2 t1 | a4 6 6 | g7 3 3 | r0 0 0
grid/gonz/c2 approx e1: hit0 5/9 123c30e468fb088b | h5 m9 u3 e2 t1 | a4 7 7 | g8 3 3 | r0 0 0
grid/gonz/c2 covertree e1: hit0 5/11 31af04318441d7ab | h5 m11 u4 e2 t1 | a4 8 8 | g9 3 3 | r0 0 0
grid/gonz/c2 streaming e1: hit0 5/11 8a29cc33068263a8 | h5 m11 u4 e2 t1 | a4 8 8 | g9 3 3 | r0 0 0
grid/gonz/c2 snap0 exact e1: hit0 5/12 fe8036e5097ccc29 | h5 m12 u4 e2 t1 | a5 8 8 | g10 3 3 | r0 0 0
grid/gonz/c2 snap0 approx e1: hit0 5/13 95263413948e12ea | h5 m13 u4 e2 t1 | a6 8 8 | g11 3 3 | r0 0 0
grid/gonz/c2 snap0 covertree e1: hit1 6/14 fe8036e5097ccc29 | h6 m14 u4 e2 t1 | a7 8 8 | g12 3 3 | r0 0 0
grid/gonz/c2 ingest 2: h6 m14 u4 e2 t1 | a7 8 8 | g12 3 3 | r0 0 0
grid/gonz/c2 exact e1: hit0 6/15 d0ef656654f7a3e3 | h6 m15 u6 e2 t1 | a7 9 8 | g12 4 4 | r0 0 0
grid/gonz/c2 exact e1.5: hit0 6/16 d0ef656654f7a3e3 | h6 m16 u8 e2 t1 | a7 10 8 | g12 5 4 | r0 0 0
grid/gonz/c2 covertree e1: hit0 6/18 d0ef656654f7a3e3 | h6 m18 u9 e2 t1 | a7 11 8 | g13 5 4 | r0 0 0
grid/gonz/c2 approx e1: hit0 6/19 3946f4025aba7e83 | h6 m19 u9 e2 t1 | a8 11 8 | g14 5 4 | r0 0 0
grid/gonz/c2 streaming e1: hit0 6/19 adf6ad07063add40 | h6 m19 u9 e2 t1 | a8 11 8 | g14 5 4 | r0 0 0
grid/gonz/c2 load: h6 m19 u9 e2 t1 | a8 11 8 | g14 5 0 | r0 0 0
grid/gonz/c2 loaded exact e1: hit0 6/20 d0ef656654f7a3e3 | h6 m20 u9 e2 t1 | a9 11 8 | g14 6 1 | r0 0 0
grid/gonz/c2 loaded covertree e1: hit1 7/21 d0ef656654f7a3e3 | h7 m21 u9 e2 t1 | a10 11 8 | g15 6 1 | r0 0 0
grid/gonz/c2 loaded approx e1: hit0 7/22 3946f4025aba7e83 | h7 m22 u9 e2 t1 | a11 11 8 | g16 6 1 | r0 0 0
grid/gonz/c2 loaded streaming e1: hit0 7/22 adf6ad07063add40 | h7 m22 u9 e2 t1 | a11 11 8 | g16 6 1 | r0 0 0
grid/gonz/c2 snapshot load: h0 m0 u0 e0 t0 | a0 0 0 | g0 0 0 | r0 0 0
grid/gonz/c2 replica exact e1: hit0 0/1 fe8036e5097ccc29 | h0 m1 u0 e1 t0 | a0 1 1 | g0 1 1 | r0 0 0
grid/gonz/c2 replica streaming e1: hit0 0/1 5cadb2d634b8fa6a | h0 m1 u0 e1 t0 | a0 1 1 | g0 1 1 | r0 0 0
grid/gonz/c2 clear: h6 m19 u9 e0 t0 | a8 11 0 | g14 5 0 | r0 0 0
grid/gonz/c2 exact e1: hit0 6/20 d0ef656654f7a3e3 | h6 m20 u9 e1 t0 | a8 12 1 | g14 6 1 | r0 0 0
grid/gonz/c2 streaming e1: hit0 6/20 adf6ad07063add40 | h6 m20 u9 e1 t0 | a8 12 1 | g14 6 1 | r0 0 0
rp/gonz exact e1: hit0 0/1 fe8036e5097ccc29 | h0 m1 u0 e1 t0 | a0 1 1 | g0 0 0 | r0 0 0
rp/gonz exact e1: hit1 1/1 fe8036e5097ccc29 | h1 m1 u0 e1 t0 | a1 1 1 | g0 0 0 | r0 0 0
rp/gonz approx e1: hit0 1/2 d18b809219d6b385 | h1 m2 u0 e2 t0 | a1 2 2 | g0 0 0 | r0 1 1
rp/gonz approx e1: hit1 2/2 d18b809219d6b385 | h2 m2 u0 e2 t0 | a2 2 2 | g0 0 0 | r1 1 1
rp/gonz covertree e1: hit0 2/4 fe8036e5097ccc29 | h2 m4 u0 e3 t1 | a2 3 3 | g0 0 0 | r1 1 1
rp/gonz covertree e1: hit1 4/4 fe8036e5097ccc29 | h4 m4 u0 e3 t1 | a3 3 3 | g0 0 0 | r1 1 1
rp/gonz streaming e1: hit0 4/4 96cc47d7346c1049 | h4 m4 u0 e3 t1 | a3 3 3 | g0 0 0 | r2 1 1
rp/gonz streaming e1: hit0 4/4 96cc47d7346c1049 | h4 m4 u0 e3 t1 | a3 3 3 | g0 0 0 | r3 1 1
rp/gonz exact e1.5: hit0 4/5 fe8036e5097ccc29 | h4 m5 u0 e4 t1 | a4 3 3 | g0 0 0 | r3 1 1
rp/gonz approx e1.5: hit0 4/6 f0193effa1690cc2 | h4 m6 u0 e5 t1 | a4 4 4 | g0 0 0 | r4 1 1
rp/gonz covertree e1.5: hit1 5/7 fe8036e5097ccc29 | h5 m7 u0 e6 t1 | a4 5 5 | g0 0 0 | r4 1 1
rp/gonz ingest 1: h5 m7 u0 e6 t1 | a4 5 5 | g0 0 0 | r4 1 1
rp/gonz exact e1: hit0 5/8 31af04318441d7ab | h5 m8 u2 e7 t1 | a4 6 6 | g0 0 0 | r4 1 1
rp/gonz approx e1: hit0 5/9 d6735df83e7efc6d | h5 m9 u4 e8 t1 | a4 7 7 | g0 0 0 | r4 2 2
rp/gonz covertree e1: hit0 5/11 31af04318441d7ab | h5 m11 u5 e9 t1 | a4 8 8 | g0 0 0 | r4 2 2
rp/gonz streaming e1: hit0 5/11 0de68ce2e42f9a80 | h5 m11 u5 e9 t1 | a4 8 8 | g0 0 0 | r5 2 2
rp/gonz snap0 exact e1: hit1 6/11 fe8036e5097ccc29 | h6 m11 u5 e9 t1 | a5 8 8 | g0 0 0 | r5 2 2
rp/gonz snap0 approx e1: hit1 7/11 d18b809219d6b385 | h7 m11 u5 e9 t1 | a6 8 8 | g0 0 0 | r6 2 2
rp/gonz snap0 covertree e1: hit1 9/11 fe8036e5097ccc29 | h9 m11 u5 e9 t1 | a7 8 8 | g0 0 0 | r6 2 2
rp/gonz ingest 2: h9 m11 u5 e9 t1 | a7 8 8 | g0 0 0 | r6 2 2
rp/gonz exact e1: hit0 9/12 d0ef656654f7a3e3 | h9 m12 u7 e10 t1 | a7 9 8 | g0 0 0 | r6 2 2
rp/gonz exact e1.5: hit0 9/13 d0ef656654f7a3e3 | h9 m13 u9 e11 t1 | a7 10 8 | g0 0 0 | r6 2 2
rp/gonz covertree e1: hit0 9/15 d0ef656654f7a3e3 | h9 m15 u10 e12 t1 | a7 11 8 | g0 0 0 | r6 2 2
rp/gonz approx e1: hit0 9/16 8bcee7949008a143 | h9 m16 u11 e13 t1 | a8 11 8 | g0 0 0 | r6 3 2
rp/gonz streaming e1: hit0 9/16 603b3a1179cda08a | h9 m16 u11 e13 t1 | a8 11 8 | g0 0 0 | r7 3 2
rp/gonz load: h9 m16 u11 e13 t1 | a8 11 8 | g0 0 0 | r7 3 0
rp/gonz loaded exact e1: hit1 10/16 d0ef656654f7a3e3 | h10 m16 u11 e13 t1 | a9 11 8 | g0 0 0 | r7 3 0
rp/gonz loaded covertree e1: hit1 12/16 d0ef656654f7a3e3 | h12 m16 u11 e13 t1 | a10 11 8 | g0 0 0 | r7 3 0
rp/gonz loaded approx e1: hit1 13/16 8bcee7949008a143 | h13 m16 u11 e13 t1 | a11 11 8 | g0 0 0 | r7 4 1
rp/gonz loaded streaming e1: hit0 13/16 603b3a1179cda08a | h13 m16 u11 e13 t1 | a11 11 8 | g0 0 0 | r8 4 1
rp/gonz snapshot load: h0 m0 u0 e0 t0 | a0 0 0 | g0 0 0 | r0 0 0
rp/gonz replica exact e1: hit0 0/1 fe8036e5097ccc29 | h0 m1 u0 e1 t0 | a0 1 1 | g0 0 0 | r0 0 0
rp/gonz replica streaming e1: hit0 0/1 96cc47d7346c1049 | h0 m1 u0 e1 t0 | a0 1 1 | g0 0 0 | r0 1 1
rp/gonz clear: h9 m16 u11 e0 t0 | a8 11 0 | g0 0 0 | r7 3 0
rp/gonz exact e1: hit0 9/17 d0ef656654f7a3e3 | h9 m17 u11 e1 t0 | a8 12 1 | g0 0 0 | r7 3 0
rp/gonz streaming e1: hit0 9/17 603b3a1179cda08a | h9 m17 u11 e1 t0 | a8 12 1 | g0 0 0 | r7 4 1
rp/rg exact e1: hit0 0/1 fe8036e5097ccc29 | h0 m1 u0 e1 t0 | a0 1 1 | g0 0 0 | r0 0 0
rp/rg exact e1: hit1 1/1 fe8036e5097ccc29 | h1 m1 u0 e1 t0 | a1 1 1 | g0 0 0 | r0 0 0
rp/rg approx e1: hit0 1/2 8432bd5ff9bfa4c0 | h1 m2 u0 e2 t0 | a1 2 2 | g0 0 0 | r0 1 1
rp/rg approx e1: hit1 2/2 8432bd5ff9bfa4c0 | h2 m2 u0 e2 t0 | a2 2 2 | g0 0 0 | r1 1 1
rp/rg covertree e1: hit0 2/4 fe8036e5097ccc29 | h2 m4 u0 e3 t1 | a2 3 3 | g0 0 0 | r1 1 1
rp/rg covertree e1: hit1 4/4 fe8036e5097ccc29 | h4 m4 u0 e3 t1 | a3 3 3 | g0 0 0 | r1 1 1
rp/rg streaming e1: hit0 4/4 96cc47d7346c1049 | h4 m4 u0 e3 t1 | a3 3 3 | g0 0 0 | r2 1 1
rp/rg streaming e1: hit0 4/4 96cc47d7346c1049 | h4 m4 u0 e3 t1 | a3 3 3 | g0 0 0 | r3 1 1
rp/rg exact e1.5: hit0 4/5 fe8036e5097ccc29 | h4 m5 u0 e4 t1 | a4 3 3 | g0 0 0 | r3 1 1
rp/rg approx e1.5: hit0 4/6 fb8bdb5f41ebf141 | h4 m6 u0 e5 t1 | a4 4 4 | g0 0 0 | r4 1 1
rp/rg covertree e1.5: hit1 5/7 fe8036e5097ccc29 | h5 m7 u0 e6 t1 | a4 5 5 | g0 0 0 | r4 1 1
rp/rg ingest 1: h5 m7 u0 e6 t1 | a4 5 5 | g0 0 0 | r4 1 1
rp/rg exact e1: hit0 5/8 31af04318441d7ab | h5 m8 u2 e7 t1 | a4 6 6 | g0 0 0 | r4 1 1
rp/rg approx e1: hit0 5/9 bfaf7f4086ca6bc9 | h5 m9 u4 e8 t1 | a4 7 7 | g0 0 0 | r4 2 2
rp/rg covertree e1: hit0 5/11 31af04318441d7ab | h5 m11 u5 e9 t1 | a4 8 8 | g0 0 0 | r4 2 2
rp/rg streaming e1: hit0 5/11 0de68ce2e42f9a80 | h5 m11 u5 e9 t1 | a4 8 8 | g0 0 0 | r5 2 2
rp/rg snap0 exact e1: hit1 6/11 fe8036e5097ccc29 | h6 m11 u5 e9 t1 | a5 8 8 | g0 0 0 | r5 2 2
rp/rg snap0 approx e1: hit1 7/11 8432bd5ff9bfa4c0 | h7 m11 u5 e9 t1 | a6 8 8 | g0 0 0 | r6 2 2
rp/rg snap0 covertree e1: hit1 9/11 fe8036e5097ccc29 | h9 m11 u5 e9 t1 | a7 8 8 | g0 0 0 | r6 2 2
rp/rg ingest 2: h9 m11 u5 e9 t1 | a7 8 8 | g0 0 0 | r6 2 2
rp/rg exact e1: hit0 9/12 d0ef656654f7a3e3 | h9 m12 u7 e10 t1 | a7 9 8 | g0 0 0 | r6 2 2
rp/rg exact e1.5: hit0 9/13 d0ef656654f7a3e3 | h9 m13 u9 e11 t1 | a7 10 8 | g0 0 0 | r6 2 2
rp/rg covertree e1: hit0 9/15 d0ef656654f7a3e3 | h9 m15 u10 e12 t1 | a7 11 8 | g0 0 0 | r6 2 2
rp/rg approx e1: hit0 9/16 77be43c105d8f80a | h9 m16 u11 e13 t1 | a8 11 8 | g0 0 0 | r6 3 2
rp/rg streaming e1: hit0 9/16 603b3a1179cda08a | h9 m16 u11 e13 t1 | a8 11 8 | g0 0 0 | r7 3 2
rp/rg load: h9 m16 u11 e13 t1 | a8 11 8 | g0 0 0 | r7 3 0
rp/rg loaded exact e1: hit1 10/16 d0ef656654f7a3e3 | h10 m16 u11 e13 t1 | a9 11 8 | g0 0 0 | r7 3 0
rp/rg loaded covertree e1: hit1 12/16 d0ef656654f7a3e3 | h12 m16 u11 e13 t1 | a10 11 8 | g0 0 0 | r7 3 0
rp/rg loaded approx e1: hit1 13/16 77be43c105d8f80a | h13 m16 u11 e13 t1 | a11 11 8 | g0 0 0 | r7 4 1
rp/rg loaded streaming e1: hit0 13/16 603b3a1179cda08a | h13 m16 u11 e13 t1 | a11 11 8 | g0 0 0 | r8 4 1
rp/rg snapshot load: h0 m0 u0 e0 t0 | a0 0 0 | g0 0 0 | r0 0 0
rp/rg replica exact e1: hit0 0/1 fe8036e5097ccc29 | h0 m1 u0 e1 t0 | a0 1 1 | g0 0 0 | r0 0 0
rp/rg replica streaming e1: hit0 0/1 96cc47d7346c1049 | h0 m1 u0 e1 t0 | a0 1 1 | g0 0 0 | r0 1 1
rp/rg clear: h9 m16 u11 e0 t0 | a8 11 0 | g0 0 0 | r7 3 0
rp/rg exact e1: hit0 9/17 d0ef656654f7a3e3 | h9 m17 u11 e1 t0 | a8 12 1 | g0 0 0 | r7 3 0
rp/rg streaming e1: hit0 9/17 603b3a1179cda08a | h9 m17 u11 e1 t0 | a8 12 1 | g0 0 0 | r7 4 1
rp/gonz/c0 exact e1: hit0 0/1 fe8036e5097ccc29 | h0 m1 u0 e0 t0 | a0 1 0 | g0 0 0 | r0 0 0
rp/gonz/c0 exact e1: hit0 0/2 fe8036e5097ccc29 | h0 m2 u0 e0 t0 | a0 2 0 | g0 0 0 | r0 0 0
rp/gonz/c0 approx e1: hit0 0/3 d18b809219d6b385 | h0 m3 u0 e0 t0 | a0 3 0 | g0 0 0 | r0 1 0
rp/gonz/c0 approx e1: hit0 0/4 d18b809219d6b385 | h0 m4 u0 e0 t0 | a0 4 0 | g0 0 0 | r0 2 0
rp/gonz/c0 covertree e1: hit0 0/6 fe8036e5097ccc29 | h0 m6 u0 e0 t0 | a0 5 0 | g0 0 0 | r0 2 0
rp/gonz/c0 covertree e1: hit0 0/8 fe8036e5097ccc29 | h0 m8 u0 e0 t0 | a0 6 0 | g0 0 0 | r0 2 0
rp/gonz/c0 streaming e1: hit0 0/8 96cc47d7346c1049 | h0 m8 u0 e0 t0 | a0 6 0 | g0 0 0 | r0 3 0
rp/gonz/c0 streaming e1: hit0 0/8 96cc47d7346c1049 | h0 m8 u0 e0 t0 | a0 6 0 | g0 0 0 | r0 4 0
rp/gonz/c0 exact e1.5: hit0 0/9 fe8036e5097ccc29 | h0 m9 u0 e0 t0 | a0 7 0 | g0 0 0 | r0 4 0
rp/gonz/c0 approx e1.5: hit0 0/10 f0193effa1690cc2 | h0 m10 u0 e0 t0 | a0 8 0 | g0 0 0 | r0 5 0
rp/gonz/c0 covertree e1.5: hit0 0/12 fe8036e5097ccc29 | h0 m12 u0 e0 t0 | a0 9 0 | g0 0 0 | r0 5 0
rp/gonz/c0 ingest 1: h0 m12 u0 e0 t0 | a0 9 0 | g0 0 0 | r0 5 0
rp/gonz/c0 exact e1: hit0 0/13 31af04318441d7ab | h0 m13 u0 e0 t0 | a0 10 0 | g0 0 0 | r0 5 0
rp/gonz/c0 approx e1: hit0 0/14 d6735df83e7efc6d | h0 m14 u0 e0 t0 | a0 11 0 | g0 0 0 | r0 6 0
rp/gonz/c0 covertree e1: hit0 0/16 31af04318441d7ab | h0 m16 u0 e0 t0 | a0 12 0 | g0 0 0 | r0 6 0
rp/gonz/c0 streaming e1: hit0 0/16 0de68ce2e42f9a80 | h0 m16 u0 e0 t0 | a0 12 0 | g0 0 0 | r0 7 0
rp/gonz/c0 snap0 exact e1: hit0 0/17 fe8036e5097ccc29 | h0 m17 u0 e0 t0 | a0 13 0 | g0 0 0 | r0 7 0
rp/gonz/c0 snap0 approx e1: hit0 0/18 d18b809219d6b385 | h0 m18 u0 e0 t0 | a0 14 0 | g0 0 0 | r0 8 0
rp/gonz/c0 snap0 covertree e1: hit0 0/20 fe8036e5097ccc29 | h0 m20 u0 e0 t0 | a0 15 0 | g0 0 0 | r0 8 0
rp/gonz/c0 ingest 2: h0 m20 u0 e0 t0 | a0 15 0 | g0 0 0 | r0 8 0
rp/gonz/c0 exact e1: hit0 0/21 d0ef656654f7a3e3 | h0 m21 u0 e0 t0 | a0 16 0 | g0 0 0 | r0 8 0
rp/gonz/c0 exact e1.5: hit0 0/22 d0ef656654f7a3e3 | h0 m22 u0 e0 t0 | a0 17 0 | g0 0 0 | r0 8 0
rp/gonz/c0 covertree e1: hit0 0/24 d0ef656654f7a3e3 | h0 m24 u0 e0 t0 | a0 18 0 | g0 0 0 | r0 8 0
rp/gonz/c0 approx e1: hit0 0/25 8bcee7949008a143 | h0 m25 u0 e0 t0 | a0 19 0 | g0 0 0 | r0 9 0
rp/gonz/c0 streaming e1: hit0 0/25 603b3a1179cda08a | h0 m25 u0 e0 t0 | a0 19 0 | g0 0 0 | r0 10 0
rp/gonz/c0 load: h0 m25 u0 e0 t0 | a0 19 0 | g0 0 0 | r0 10 0
rp/gonz/c0 loaded exact e1: hit0 0/26 d0ef656654f7a3e3 | h0 m26 u0 e0 t0 | a0 20 0 | g0 0 0 | r0 10 0
rp/gonz/c0 loaded covertree e1: hit0 0/28 d0ef656654f7a3e3 | h0 m28 u0 e0 t0 | a0 21 0 | g0 0 0 | r0 10 0
rp/gonz/c0 loaded approx e1: hit0 0/29 8bcee7949008a143 | h0 m29 u0 e0 t0 | a0 22 0 | g0 0 0 | r0 11 0
rp/gonz/c0 loaded streaming e1: hit0 0/29 603b3a1179cda08a | h0 m29 u0 e0 t0 | a0 22 0 | g0 0 0 | r0 12 0
rp/gonz/c0 snapshot load: h0 m0 u0 e0 t0 | a0 0 0 | g0 0 0 | r0 0 0
rp/gonz/c0 replica exact e1: hit0 0/1 fe8036e5097ccc29 | h0 m1 u0 e0 t0 | a0 1 0 | g0 0 0 | r0 0 0
rp/gonz/c0 replica streaming e1: hit0 0/1 96cc47d7346c1049 | h0 m1 u0 e0 t0 | a0 1 0 | g0 0 0 | r0 1 0
rp/gonz/c0 clear: h0 m25 u0 e0 t0 | a0 19 0 | g0 0 0 | r0 10 0
rp/gonz/c0 exact e1: hit0 0/26 d0ef656654f7a3e3 | h0 m26 u0 e0 t0 | a0 20 0 | g0 0 0 | r0 10 0
rp/gonz/c0 streaming e1: hit0 0/26 603b3a1179cda08a | h0 m26 u0 e0 t0 | a0 20 0 | g0 0 0 | r0 11 0
rp/gonz/c2 exact e1: hit0 0/1 fe8036e5097ccc29 | h0 m1 u0 e1 t0 | a0 1 1 | g0 0 0 | r0 0 0
rp/gonz/c2 exact e1: hit1 1/1 fe8036e5097ccc29 | h1 m1 u0 e1 t0 | a1 1 1 | g0 0 0 | r0 0 0
rp/gonz/c2 approx e1: hit0 1/2 d18b809219d6b385 | h1 m2 u0 e2 t0 | a1 2 2 | g0 0 0 | r0 1 1
rp/gonz/c2 approx e1: hit1 2/2 d18b809219d6b385 | h2 m2 u0 e2 t0 | a2 2 2 | g0 0 0 | r1 1 1
rp/gonz/c2 covertree e1: hit0 2/4 fe8036e5097ccc29 | h2 m4 u0 e2 t1 | a2 3 3 | g0 0 0 | r1 1 1
rp/gonz/c2 covertree e1: hit1 4/4 fe8036e5097ccc29 | h4 m4 u0 e2 t1 | a3 3 3 | g0 0 0 | r1 1 1
rp/gonz/c2 streaming e1: hit0 4/4 96cc47d7346c1049 | h4 m4 u0 e2 t1 | a3 3 3 | g0 0 0 | r2 1 1
rp/gonz/c2 streaming e1: hit0 4/4 96cc47d7346c1049 | h4 m4 u0 e2 t1 | a3 3 3 | g0 0 0 | r3 1 1
rp/gonz/c2 exact e1.5: hit0 4/5 fe8036e5097ccc29 | h4 m5 u0 e2 t1 | a4 3 3 | g0 0 0 | r3 1 1
rp/gonz/c2 approx e1.5: hit0 4/6 f0193effa1690cc2 | h4 m6 u0 e2 t1 | a4 4 4 | g0 0 0 | r4 1 1
rp/gonz/c2 covertree e1.5: hit1 5/7 fe8036e5097ccc29 | h5 m7 u0 e2 t1 | a4 5 5 | g0 0 0 | r4 1 1
rp/gonz/c2 ingest 1: h5 m7 u0 e2 t1 | a4 5 5 | g0 0 0 | r4 1 1
rp/gonz/c2 exact e1: hit0 5/8 31af04318441d7ab | h5 m8 u1 e2 t1 | a4 6 6 | g0 0 0 | r4 1 1
rp/gonz/c2 approx e1: hit0 5/9 d6735df83e7efc6d | h5 m9 u3 e2 t1 | a4 7 7 | g0 0 0 | r4 2 2
rp/gonz/c2 covertree e1: hit0 5/11 31af04318441d7ab | h5 m11 u4 e2 t1 | a4 8 8 | g0 0 0 | r4 2 2
rp/gonz/c2 streaming e1: hit0 5/11 0de68ce2e42f9a80 | h5 m11 u4 e2 t1 | a4 8 8 | g0 0 0 | r5 2 2
rp/gonz/c2 snap0 exact e1: hit0 5/12 fe8036e5097ccc29 | h5 m12 u4 e2 t1 | a5 8 8 | g0 0 0 | r5 2 2
rp/gonz/c2 snap0 approx e1: hit0 5/13 d18b809219d6b385 | h5 m13 u4 e2 t1 | a6 8 8 | g0 0 0 | r6 2 2
rp/gonz/c2 snap0 covertree e1: hit1 6/14 fe8036e5097ccc29 | h6 m14 u4 e2 t1 | a7 8 8 | g0 0 0 | r6 2 2
rp/gonz/c2 ingest 2: h6 m14 u4 e2 t1 | a7 8 8 | g0 0 0 | r6 2 2
rp/gonz/c2 exact e1: hit0 6/15 d0ef656654f7a3e3 | h6 m15 u5 e2 t1 | a7 9 8 | g0 0 0 | r6 2 2
rp/gonz/c2 exact e1.5: hit0 6/16 d0ef656654f7a3e3 | h6 m16 u6 e2 t1 | a7 10 8 | g0 0 0 | r6 2 2
rp/gonz/c2 covertree e1: hit0 6/18 d0ef656654f7a3e3 | h6 m18 u7 e2 t1 | a7 11 8 | g0 0 0 | r6 2 2
rp/gonz/c2 approx e1: hit0 6/19 8bcee7949008a143 | h6 m19 u8 e2 t1 | a8 11 8 | g0 0 0 | r6 3 2
rp/gonz/c2 streaming e1: hit0 6/19 603b3a1179cda08a | h6 m19 u8 e2 t1 | a8 11 8 | g0 0 0 | r7 3 2
rp/gonz/c2 load: h6 m19 u8 e2 t1 | a8 11 8 | g0 0 0 | r7 3 0
rp/gonz/c2 loaded exact e1: hit0 6/20 d0ef656654f7a3e3 | h6 m20 u8 e2 t1 | a9 11 8 | g0 0 0 | r7 3 0
rp/gonz/c2 loaded covertree e1: hit1 7/21 d0ef656654f7a3e3 | h7 m21 u8 e2 t1 | a10 11 8 | g0 0 0 | r7 3 0
rp/gonz/c2 loaded approx e1: hit0 7/22 8bcee7949008a143 | h7 m22 u8 e2 t1 | a11 11 8 | g0 0 0 | r7 4 1
rp/gonz/c2 loaded streaming e1: hit0 7/22 603b3a1179cda08a | h7 m22 u8 e2 t1 | a11 11 8 | g0 0 0 | r8 4 1
rp/gonz/c2 snapshot load: h0 m0 u0 e0 t0 | a0 0 0 | g0 0 0 | r0 0 0
rp/gonz/c2 replica exact e1: hit0 0/1 fe8036e5097ccc29 | h0 m1 u0 e1 t0 | a0 1 1 | g0 0 0 | r0 0 0
rp/gonz/c2 replica streaming e1: hit0 0/1 96cc47d7346c1049 | h0 m1 u0 e1 t0 | a0 1 1 | g0 0 0 | r0 1 1
rp/gonz/c2 clear: h6 m19 u8 e0 t0 | a8 11 0 | g0 0 0 | r7 3 0
rp/gonz/c2 exact e1: hit0 6/20 d0ef656654f7a3e3 | h6 m20 u8 e1 t0 | a8 12 1 | g0 0 0 | r7 3 0
rp/gonz/c2 streaming e1: hit0 6/20 603b3a1179cda08a | h6 m20 u8 e1 t0 | a8 12 1 | g0 0 0 | r7 4 1
";
