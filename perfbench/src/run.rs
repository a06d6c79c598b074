//! One workload's run: rounds of every timed operation, interleaved so
//! that a slow spell on the host lands on every metric instead of
//! skewing one, with fixed operation counts so every run does the same
//! work and ends in the same engine state.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use metric_dbscan::core::{
    ApproxParams, CandidateIndex, Clustering, DbscanError, DbscanParams, ExactConfig, MetricDbscan,
    NetStrategy, ParallelConfig, Phase, Recorder, Run, RunDetail,
};
use metric_dbscan::eval::adjusted_rand_index;
use metric_dbscan::metric::{BatchMetric, CountingMetric, PersistMetric};
use metric_dbscan::serve::{Client, RetryPolicy, ServeConfig, Server, Solver};

use crate::trace::{self, SpanRecorder, Stage, Traced};
use crate::util::{cpu_secs, mean, median, quantile, secs, HostProbe, PROBE_REFERENCE_S};

/// Base parameters of a workload; the sweep adds a larger ε and twice
/// the MinPts.
#[derive(Clone, Copy, Debug)]
pub struct Base {
    pub eps: f64,
    pub min_pts: usize,
    pub rho: f64,
}

/// The operation counts of one run that differ between workloads.
#[derive(Clone, Copy, Debug)]
pub struct Plan {
    pub rounds: usize,
    /// Cold exact, approx and cover-tree calls per solver pass.
    pub exact_reps: usize,
    pub approx_reps: usize,
    pub covertree_reps: usize,
    pub served_per_round: usize,
    /// The ingest engine is built on the first half of the points and
    /// takes `ingest_cycles` batches of `ingest_batch` of the rest.
    pub ingest_batch: usize,
    pub ingest_cycles: usize,
    /// Query × row pairs of the direct kernel probe.
    pub kernel_pairs: usize,
}

/// Solver passes per round. Each pass builds the engine and makes the
/// workload's exact, approx and cover-tree calls and one streaming call,
/// so calls of one kind lie seconds apart: calls made back to back share
/// the host's speed of the moment and count as about one sample.
const SOLVER_PASSES: usize = 2;
/// Saves and loads per round.
const SAVE_REPS: usize = 3;
const LOAD_REPS: usize = 3;

/// A generated workload: the program sees only these inputs.
pub struct Workload<M> {
    pub name: &'static str,
    pub points: Arc<[u32]>,
    pub metric: M,
    pub rbar: f64,
    pub index: CandidateIndex,
    pub base: Base,
    pub larger_eps: f64,
    pub plan: Plan,
    pub threads: usize,
    pub dir: PathBuf,
}

impl<M: Dist> Workload<M> {
    /// An engine over `points` under `metric`, configured as the
    /// workload's engine.
    fn build<N: Dist>(
        &self,
        points: impl Into<Arc<[u32]>>,
        metric: &N,
        strategy: NetStrategy,
        recorder: Option<Arc<dyn Recorder>>,
    ) -> Result<MetricDbscan<u32, N>, DbscanError> {
        let mut b = MetricDbscan::builder(points, metric.clone())
            .rbar(self.rbar)
            .parallel(ParallelConfig::new(self.threads))
            .net_strategy(strategy)
            .candidate_index(self.index);
        if let Some(r) = recorder {
            b = b.recorder(r);
        }
        b.build()
    }

    fn exact_params(&self) -> DbscanParams {
        DbscanParams::new(self.base.eps, self.base.min_pts).expect("valid base parameters")
    }

    fn approx_params(&self) -> ApproxParams {
        ApproxParams::new(self.base.eps, self.base.min_pts, self.base.rho)
            .expect("valid base parameters")
    }

    /// The sweep grid: {ε₀, larger ε} × {MinPts₀, 2·MinPts₀}.
    pub fn sweep(&self) -> [(f64, usize); 4] {
        let (e, m) = (self.base.eps, self.base.min_pts);
        [
            (e, m),
            (e, 2 * m),
            (self.larger_eps, m),
            (self.larger_eps, 2 * m),
        ]
    }
}

/// What an engine metric must offer: batch kernels, a self-contained
/// artifact codec, and sharing with server threads.
pub trait Dist: BatchMetric<u32> + PersistMetric + Clone + Send + Sync + 'static {}
impl<M: BatchMetric<u32> + PersistMetric + Clone + Send + Sync + 'static> Dist for M {}

/// Distance evaluations a load performs, counted by loading under a
/// counting wrapper.
fn evals_during_load<M: Dist>(path: &Path) -> Result<u64, DbscanError> {
    let engine = MetricDbscan::<u32, CountingMetric<M>>::load_self_contained(path)?;
    Ok(engine.metric().count())
}

/// Timed samples of one pass (plain or traced), as measured: one per
/// call or ingest cycle, except one per round for the sweep and the
/// served loop.
#[derive(Default, Debug)]
pub struct Samples {
    pub setup: Vec<f64>,
    pub exact: Vec<f64>,
    pub approx: Vec<f64>,
    pub covertree: Vec<f64>,
    pub streaming: Vec<f64>,
    pub sweep: Vec<f64>,
    pub save: Vec<f64>,
    pub load: Vec<f64>,
    /// Client-observed latency of every served request, in ms.
    pub served_ms: Vec<f64>,
    /// Wall seconds of each round's served loop.
    pub served_s: Vec<f64>,
    pub ingest_pps: Vec<f64>,
    pub artifact_bytes: u64,
    /// Every host probe of the pass, in seconds.
    pub probes: Vec<f64>,
}

impl Samples {
    /// Every series by end-to-end metric name, for the sample dump.
    pub fn named(&self) -> [(&'static str, &Vec<f64>); 12] {
        [
            ("setup_s", &self.setup),
            ("exact_cold_s", &self.exact),
            ("approx_cold_s", &self.approx),
            ("covertree_cold_s", &self.covertree),
            ("streaming_s", &self.streaming),
            ("sweep_s", &self.sweep),
            ("save_s", &self.save),
            ("load_s", &self.load),
            ("served_ms", &self.served_ms),
            ("served_s", &self.served_s),
            ("ingest_pts_per_s", &self.ingest_pps),
            ("probe_s", &self.probes),
        ]
    }

    /// The pass's host-speed scale: the reference probe time over the
    /// median probe of the pass. A time times the scale (a rate divided
    /// by it) reads as at the reference speed.
    pub fn scale(&self) -> f64 {
        PROBE_REFERENCE_S / median(&self.probes)
    }
}

/// Per-layer readings of the traced pass; each metric is the mean of
/// its observations.
#[derive(Default)]
pub struct Layers(BTreeMap<String, (f64, u64)>);

impl Layers {
    pub fn add(&mut self, name: impl Into<String>, v: f64) {
        let e = self.0.entry(name.into()).or_insert((0.0, 0));
        e.0 += v;
        e.1 += 1;
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).map_or(0.0, |(s, n)| s / *n as f64)
    }
}

/// Attempted and failed operations, and what failed.
#[derive(Default)]
pub struct Ledger {
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

impl Ledger {
    /// Counts one correctness check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            let note = what();
            if self.notes.len() < 20 {
                self.notes.push(note);
            }
        }
    }

    /// Counts one operation; an error is a failure and aborts the round.
    pub fn op<T, E: std::fmt::Display>(
        &mut self,
        r: Result<T, E>,
        what: &str,
    ) -> Result<T, String> {
        self.attempted += 1;
        r.map_err(|e| {
            self.failed += 1;
            let note = format!("{what}: {e}");
            if self.notes.len() < 20 {
                self.notes.push(note.clone());
            }
            note
        })
    }
}

/// Answers of the first plain round; every later round, the traced
/// pass, the loaded replica and the server must reproduce them.
#[derive(Default)]
pub struct Refs {
    pub exact: Option<Clustering>,
    pub approx: Option<Clustering>,
    pub covertree: Option<Clustering>,
    pub streaming: Option<Clustering>,
    /// Exact then approx labels at each sweep point.
    pub sweep: Vec<(Clustering, Clustering)>,
    pub approx_ari: f64,
    pub streaming_ari: f64,
}

/// Everything one pass needs besides the workload. A traced pass runs
/// over the workload's own metric with spans on and a [`SpanRecorder`]
/// attached; only [`count_pass`] wraps the metric.
pub struct Pass<'a> {
    pub traced: bool,
    pub samples: &'a mut Samples,
    pub layers: &'a mut Layers,
    pub ledger: &'a mut Ledger,
    pub refs: &'a mut Refs,
    pub probe: &'a mut HostProbe,
    pub first: bool,
}

impl Pass<'_> {
    /// Runs `f` between two host probes.
    fn probed<T>(&mut self, f: impl FnOnce(&mut Self) -> Result<T, String>) -> Result<T, String> {
        let before = self.probe.time();
        self.samples.probes.push(before);
        let out = f(self)?;
        let after = self.probe.time();
        self.samples.probes.push(after);
        Ok(out)
    }
}

/// Runs one round of every operation over the workload's own metric.
pub fn round<M: Dist>(w: &Workload<M>, pass: &mut Pass<'_>) -> Result<(), String> {
    let recorder = pass.traced.then(SpanRecorder::shared);
    let rec_dyn = || recorder.clone().map(|r| r as Arc<dyn Recorder>);
    let mut engine = None;
    for _ in 0..SOLVER_PASSES {
        drop(engine.take());
        engine = Some(solver_calls(w, pass, recorder.as_ref())?);
    }
    let engine = engine.expect("at least one solver pass");

    // Parameter sweep from a cleared cache, then once more warm.
    let sweep = w.sweep();
    engine.clear_cache();
    let before = engine.cache_stats();
    let (answers, secs_taken) = pass.probed(|p| {
        let t0 = Instant::now();
        let mut answers = Vec::with_capacity(sweep.len());
        for warm in [false, true] {
            for &(eps, min_pts) in &sweep {
                let _s = trace::span("sweep");
                let (dp, apx) = sweep_params(p.ledger, eps, min_pts, w.base.rho)?;
                let e = p.ledger.op(engine.exact(&dp), "sweep exact")?;
                let a = p.ledger.op(engine.approx(&apx), "sweep approx")?;
                if warm {
                    answers.push((e.clustering, a.clustering));
                }
            }
        }
        Ok((answers, secs(t0)))
    })?;
    pass.samples.sweep.push(secs_taken);
    let after = engine.cache_stats();
    if pass.traced {
        let l = &mut *pass.layers;
        l.add("core.cache.hits", (after.hits - before.hits) as f64);
        l.add("core.cache.misses", (after.misses - before.misses) as f64);
        l.add("core.cache.heap_mb", engine.cache_heap_bytes() as f64 / 1e6);
    }
    if pass.refs.sweep.is_empty() {
        pass.refs.sweep = answers;
    } else {
        let same = pass.refs.sweep == answers;
        pass.ledger
            .check(same, || "sweep labels differ between rounds".into());
    }

    // Save the swept engine; load it back the way a replica boots.
    let path = w.dir.join(format!(
        "{}-engine.mdb",
        if pass.traced { "traced" } else { "plain" }
    ));
    let run = timed_reps(pass, None, SAVE_REPS, w.threads, |p| {
        let _s = trace::span("save");
        p.ledger.op(engine.save_self_contained(&path), "save")
    })?;
    pass.samples.save.extend(&run.times);
    pass.samples.artifact_bytes = std::fs::metadata(&path).map_or(0, |m| m.len());
    let run = timed_reps(pass, None, LOAD_REPS, w.threads, |p| {
        let _s = trace::span("load");
        p.ledger
            .op(MetricDbscan::<u32, M>::load_self_contained(&path), "load")
    })?;
    pass.samples.load.extend(&run.times);
    let mut replica = run.last;
    if pass.traced {
        if let Some(stats) = replica.load_stats() {
            pass.layers
                .add("persist.bytes_copied", stats.bytes_copied() as f64);
        }
        if let Some(r) = rec_dyn() {
            replica = replica.with_recorder(r);
        }
    }
    if pass.first && !pass.traced {
        let evals = pass
            .ledger
            .op(evals_during_load::<M>(&path), "counted load")?;
        pass.ledger.check(evals == 0, || {
            format!("load performed {evals} distance evaluations")
        });
    }
    drop(engine);

    // The replica answers exactly as the saved engine did. This pass
    // also builds the replica's grid or RP index, so every served
    // request below is a cache hit.
    for (k, &(eps, min_pts)) in sweep.iter().enumerate() {
        let (dp, apx) = sweep_params(pass.ledger, eps, min_pts, w.base.rho)?;
        let e = pass.ledger.op(replica.exact(&dp), "replica exact")?;
        let a = pass.ledger.op(replica.approx(&apx), "replica approx")?;
        let (re, ra) = &pass.refs.sweep[k];
        pass.ledger
            .check(&e.clustering == re && &a.clustering == ra, || {
                format!("loaded replica answers differently at eps={eps} min_pts={min_pts}")
            });
    }

    serve_segment(w, Arc::new(replica), pass)?;
    ingest_sample(w, pass, rec_dyn())?;
    Ok(())
}

/// One solver pass of a round: build the engine, then cold exact,
/// approx, cover-tree and streaming calls, each checked; returns the
/// engine.
fn solver_calls<M: Dist>(
    w: &Workload<M>,
    pass: &mut Pass<'_>,
    recorder: Option<&Arc<SpanRecorder>>,
) -> Result<MetricDbscan<u32, M>, String> {
    let plan = w.plan;
    let exact_cfg = |engine: &MetricDbscan<u32, M>| ExactConfig {
        parallel: engine.parallel(),
        pruning: engine.pruning(),
        ..ExactConfig::default()
    };
    let grid_on = matches!(w.index, CandidateIndex::Grid);
    let rp_on = matches!(w.index, CandidateIndex::RandomProjection(_));

    // Phase totals of the round's recorder before a group, so the group's
    // own share can be taken out afterwards.
    let phase_before = |phase| recorder.map_or((0.0, 0), |r| r.phase_total(phase));

    // Set-up: build the engine.
    let net_before = phase_before(Phase::NetBuild);
    let run = timed_reps(pass, Some(Stage::Setup), 1, w.threads, |p| {
        let _s = trace::span("build");
        let rec = recorder.map(|r| r.clone() as Arc<dyn Recorder>);
        let built = w.build(w.points.clone(), &w.metric, NetStrategy::Gonzalez, rec);
        p.ledger.op(built, "build")
    })?;
    pass.samples.setup.extend(&run.times);
    let engine = run.last;
    if let Some(rec) = recorder {
        pass.layers
            .add("kcenter.centers", engine.num_centers() as f64);
        let (net, builds) = rec.phase_total(Phase::NetBuild);
        pass.layers.add(
            "kcenter.net_build_s",
            (net - net_before.0) / (builds - net_before.1).max(1) as f64,
        );
    }

    // Cold exact.
    let ep = w.exact_params();
    let run = timed_reps(pass, Some(Stage::Exact), plan.exact_reps, w.threads, |p| {
        engine.clear_cache();
        let _s = trace::span("exact");
        p.ledger
            .op(engine.exact_with(&ep, &exact_cfg(&engine)), "exact")
    })?;
    pass.samples.exact.extend(&run.times);
    let exact_secs = run.last_secs();
    let exact = run.last;
    bypass(pass.ledger, &exact, grid_on, rp_on, w.name);
    if pass.traced {
        step_layers(pass.layers, "exact", &exact);
        pass.layers
            .add("core.exact.other_s", exact_secs - step_secs(&exact));
        if let Some(s) = exact.report.exact_stats() {
            pass.layers
                .add("kcenter.adjacency_degree", s.mean_adjacency_degree);
            pass.layers.add("core.exact.bcp_tests", s.bcp_tests as f64);
            pass.layers
                .add("grid.cells_probed.exact", s.candidates.cells_probed as f64);
            pass.layers.add(
                "grid.candidates_emitted.exact",
                s.candidates.candidates_emitted as f64,
            );
            pass.layers.add(
                "grid.candidates_rejected.exact",
                s.candidates.candidates_rejected as f64,
            );
        }
        prune_layers(pass.layers, "exact", &exact);
    }
    same_as(
        pass.ledger,
        &mut pass.refs.exact,
        &exact.clustering,
        "exact labels",
    );

    // Cold approx (includes building the grid or RP index).
    let ap = w.approx_params();
    let probe_before = phase_before(Phase::CandidateProbe);
    let run = timed_reps(
        pass,
        Some(Stage::Approx),
        plan.approx_reps,
        w.threads,
        |p| {
            engine.clear_cache();
            let _s = trace::span("approx");
            p.ledger.op(engine.approx(&ap), "approx")
        },
    )?;
    pass.samples.approx.extend(&run.times);
    let approx_secs = run.last_secs();
    let approx = run.last;
    bypass(pass.ledger, &approx, grid_on, rp_on, w.name);
    if pass.traced {
        if let Some(s) = approx.report.approx_stats() {
            let l = &mut *pass.layers;
            l.add("core.approx.adjacency_s", s.adjacency_secs);
            l.add("core.approx.summary_s", s.summary_secs);
            l.add("core.approx.merge_s", s.merge_secs);
            l.add("core.approx.label_s", s.label_secs);
            l.add("core.approx.adjacency_evals", s.adjacency_evals as f64);
            l.add("core.approx.summary_evals", s.summary_evals as f64);
            l.add("core.approx.merge_evals", s.merge_evals as f64);
            l.add("core.approx.label_evals", s.label_evals as f64);
            let phases = s.adjacency_secs + s.summary_secs + s.merge_secs + s.label_secs;
            l.add("core.approx.other_s", approx_secs - phases);
        }
        let c = approx.report.candidates;
        pass.layers
            .add("grid.cells_probed.approx", c.cells_probed as f64);
        pass.layers.add(
            "grid.candidates_emitted.approx",
            c.candidates_emitted as f64,
        );
        pass.layers.add(
            "grid.candidates_rejected.approx",
            c.candidates_rejected as f64,
        );
        rp_layers(pass.layers, "approx", &approx);
        prune_layers(pass.layers, "approx", &approx);
        if let Some(rec) = recorder {
            let probe = rec.phase_total(Phase::CandidateProbe).0 - probe_before.0;
            pass.layers
                .add("core.candidate_probe_s", probe / plan.approx_reps as f64);
        }
    }
    same_as(
        pass.ledger,
        &mut pass.refs.approx,
        &approx.clustering,
        "approx labels",
    );

    // Cold cover-tree exact (§3.2).
    let run = timed_reps(
        pass,
        Some(Stage::CoverTree),
        plan.covertree_reps,
        w.threads,
        |p| {
            engine.clear_cache();
            let _s = trace::span("covertree");
            p.ledger
                .op(engine.covertree_with(&ep, &exact_cfg(&engine)), "covertree")
        },
    )?;
    pass.samples.covertree.extend(&run.times);
    let covertree_secs = run.last_secs();
    let covertree = run.last;
    bypass(pass.ledger, &covertree, grid_on, rp_on, w.name);
    pass.ledger.check(
        core_noise(&covertree.clustering) == core_noise(&exact.clustering),
        || "exact and cover-tree disagree on core/noise flags".into(),
    );
    if pass.traced {
        if let RunDetail::CoverTree(s) = &covertree.report.detail {
            pass.layers
                .add("covertree.build_s", s.tree_secs + s.net_secs);
            step_layers(pass.layers, "covertree", &covertree);
            let phases = s.tree_secs + s.net_secs + step_secs(&covertree);
            pass.layers
                .add("core.covertree.other_s", covertree_secs - phases);
        }
    }
    same_as(
        pass.ledger,
        &mut pass.refs.covertree,
        &covertree.clustering,
        "cover-tree labels",
    );

    // Streaming (Algorithm 3).
    let run = timed_reps(pass, Some(Stage::Streaming), 1, w.threads, |p| {
        engine.clear_cache();
        let _s = trace::span("streaming");
        p.ledger.op(engine.streaming(&ap), "streaming")
    })?;
    pass.samples.streaming.extend(&run.times);
    let streaming_secs = run.last_secs();
    let streaming = run.last;
    bypass(pass.ledger, &streaming, grid_on, rp_on, w.name);
    if pass.traced {
        if let RunDetail::Streaming { stats, footprint } = &streaming.report.detail {
            let l = &mut *pass.layers;
            l.add("core.streaming.pass1_s", stats.pass1_secs);
            l.add("core.streaming.pass2_s", stats.pass2_secs);
            l.add("core.streaming.merge_s", stats.merge_secs);
            l.add("core.streaming.pass3_s", stats.pass3_secs);
            let phases = stats.pass1_secs + stats.pass2_secs + stats.merge_secs + stats.pass3_secs;
            l.add("core.streaming.other_s", streaming_secs - phases);
            l.add(
                "core.streaming.stored_points",
                footprint.stored_points() as f64,
            );
            l.add(
                "core.streaming.merge_pairs",
                stats.merge_pairs_tested as f64,
            );
        }
        rp_layers(pass.layers, "streaming", &streaming);
    }
    same_as(
        pass.ledger,
        &mut pass.refs.streaming,
        &streaming.clustering,
        "streaming labels",
    );
    if pass.first {
        let truth = exact.clustering.assignments();
        pass.refs.approx_ari = adjusted_rand_index(&truth, &approx.clustering.assignments());
        pass.refs.streaming_ari = adjusted_rand_index(&truth, &streaming.clustering.assignments());
    }

    Ok(engine)
}

fn sweep_params(
    ledger: &mut Ledger,
    eps: f64,
    min_pts: usize,
    rho: f64,
) -> Result<(DbscanParams, ApproxParams), String> {
    Ok((
        ledger.op(DbscanParams::new(eps, min_pts), "sweep params")?,
        ledger.op(ApproxParams::new(eps, min_pts, rho), "sweep params")?,
    ))
}

fn core_noise(c: &Clustering) -> Vec<(bool, bool)> {
    c.labels()
        .iter()
        .map(|l| (l.is_core(), l.is_noise()))
        .collect()
}

/// `reps` calls of one operation.
struct Reps<T> {
    /// The last call's result.
    last: T,
    /// Seconds of each call.
    times: Vec<f64>,
}

impl<T> Reps<T> {
    fn last_secs(&self) -> f64 {
        self.times.last().copied().unwrap_or(0.0)
    }
}

/// Runs `reps` calls of one operation, each timed alone; the previous
/// call's result is dropped before the next call starts. In a traced
/// pass it also records the group's CPU utilisation under `stage`.
fn timed_reps<T>(
    pass: &mut Pass<'_>,
    stage: Option<Stage>,
    reps: usize,
    threads: usize,
    mut call: impl FnMut(&mut Pass<'_>) -> Result<T, String>,
) -> Result<Reps<T>, String> {
    let traced = pass.traced;
    let (last, times) = pass.probed(|p| {
        let (cpu0, t0) = (cpu_secs(), Instant::now());
        let mut last = None;
        let mut times = Vec::with_capacity(reps);
        for _ in 0..reps {
            drop(last.take());
            let t = Instant::now();
            let out = call(p)?;
            times.push(secs(t));
            last = Some(out);
        }
        if let Some(stage) = stage.filter(|_| traced) {
            cpu_util(p.layers, stage, cpu0, secs(t0), threads);
        }
        Ok((last.expect("at least one repetition"), times))
    })?;
    Ok(Reps { last, times })
}

fn cpu_util(layers: &mut Layers, stage: Stage, cpu0: f64, wall: f64, threads: usize) {
    let util = (cpu_secs() - cpu0) / (wall * threads as f64).max(1e-9);
    layers.add(format!("parallel.cpu_util.{}", stage.name()), util);
}

fn step_secs(run: &Run) -> f64 {
    run.report.exact_stats().map_or(0.0, |s| {
        s.adjacency_secs + s.label_secs + s.merge_secs + s.assign_secs
    })
}

/// Per-step seconds of an exact or cover-tree run.
fn step_layers(layers: &mut Layers, solver: &str, run: &Run) {
    let Some(s) = run.report.exact_stats() else {
        return;
    };
    let p = format!("core.{solver}");
    layers.add(format!("{p}.adjacency_s"), s.adjacency_secs);
    layers.add(format!("{p}.step1_s"), s.label_secs);
    layers.add(format!("{p}.step2_s"), s.merge_secs);
    layers.add(format!("{p}.step3_s"), s.assign_secs);
}

/// Per-step distance evaluations of an exact or cover-tree run made
/// with `count_distance_evals` set.
fn step_eval_layers(layers: &mut Layers, solver: &str, run: &Run) {
    let Some(s) = run.report.exact_stats() else {
        return;
    };
    let p = format!("core.{solver}");
    layers.add(format!("{p}.adjacency_evals"), s.adjacency_evals as f64);
    layers.add(format!("{p}.step1_evals"), s.label_evals as f64);
    layers.add(format!("{p}.step2_evals"), s.merge_evals as f64);
    layers.add(format!("{p}.step3_evals"), s.assign_evals as f64);
}

fn prune_layers(layers: &mut Layers, solver: &str, run: &Run) {
    let p = run.report.pruning;
    layers.add(
        format!("core.prune.saved_evals.{solver}"),
        p.distance_evals_saved() as f64,
    );
    layers.add(
        format!("core.prune.anchor_evals.{solver}"),
        p.anchor_evals as f64,
    );
}

fn rp_layers(layers: &mut Layers, solver: &str, run: &Run) {
    let rp = run.report.rp;
    layers.add(format!("rp.projections.{solver}"), rp.projections as f64);
    layers.add(
        format!("rp.candidates_emitted.{solver}"),
        rp.candidates_emitted as f64,
    );
    layers.add(
        format!("rp.candidates_rejected.{solver}"),
        rp.candidates_rejected as f64,
    );
}

/// The grid counters must read zero unless the grid is configured, and
/// the RP counters unless RP is.
fn bypass(ledger: &mut Ledger, run: &Run, grid_on: bool, rp_on: bool, workload: &str) {
    let c = run.report.candidates;
    let grid = c.cells_probed + c.candidates_emitted + c.candidates_rejected;
    ledger.check(grid_on || grid == 0, || {
        format!(
            "grid counters read {grid} on {workload} ({:?})",
            run.report.algorithm
        )
    });
    let r = run.report.rp;
    let rp = r.projections + r.candidates_emitted + r.candidates_rejected;
    ledger.check(rp_on || rp == 0, || {
        format!(
            "RP counters read {rp} on {workload} ({:?})",
            run.report.algorithm
        )
    });
}

/// Records the first answer; checks every later round and pass
/// against it.
fn same_as(ledger: &mut Ledger, slot: &mut Option<Clustering>, got: &Clustering, what: &str) {
    match slot {
        None => *slot = Some(got.clone()),
        Some(want) => ledger.check(want == got, || {
            format!("{what} differ between rounds or passes")
        }),
    }
}

/// A closed loop of `threads` clients against a server booted on the
/// loaded replica: 3 exact : 1 approx over the sweep grid, no retries.
fn serve_segment<M: Dist>(
    w: &Workload<M>,
    replica: Arc<MetricDbscan<u32, M>>,
    pass: &mut Pass<'_>,
) -> Result<(), String> {
    let cfg = ServeConfig {
        workers: w.threads,
        ..ServeConfig::default()
    };
    let server = pass
        .ledger
        .op(Server::spawn(replica, "127.0.0.1:0", cfg), "server spawn")?;
    let addr = server.local_addr();
    let sweep = w.sweep();
    let clients = w.threads;
    let total = w.plan.served_per_round;
    let refs = &pass.refs.sweep;
    let rho = w.base.rho;
    let before = pass.probe.time();
    pass.samples.probes.push(before);
    let t0 = Instant::now();
    let per_client: Vec<(Vec<f64>, u64, u64, Vec<String>)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                s.spawn(move || {
                    let policy = RetryPolicy {
                        max_attempts: 1,
                        ..RetryPolicy::default()
                    };
                    let mut client = Client::<u32>::with_policy(addr, policy);
                    let (mut lat, mut bad, mut sent, mut notes) =
                        (Vec::new(), 0u64, 0u64, Vec::new());
                    for i in (c..total).step_by(clients) {
                        let slot = i / clients;
                        let k = (slot / 4) % sweep.len();
                        let approx = slot % 4 == 3;
                        let (eps, min_pts) = sweep[k];
                        let solver = if approx {
                            Solver::Approx(rho)
                        } else {
                            Solver::Exact
                        };
                        sent += 1;
                        let _s = trace::span("request");
                        let t = Instant::now();
                        let reply = client.query(solver, eps, min_pts);
                        lat.push(secs(t) * 1e3);
                        let want = if approx { &refs[k].1 } else { &refs[k].0 };
                        match reply {
                            Ok(r) if r.epoch == 0 && r.labels.as_slice() == want.labels() => {}
                            Ok(_) => {
                                bad += 1;
                                notes.push(format!(
                                    "served labels differ at eps={eps} min_pts={min_pts}"
                                ));
                            }
                            Err(e) => {
                                bad += 1;
                                notes.push(format!("request failed: {e}"));
                            }
                        }
                    }
                    (lat, sent, bad, notes)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let wall = secs(t0);
    let after = pass.probe.time();
    pass.samples.probes.push(after);
    let snapshot = server.metrics_snapshot();
    server.shutdown();
    let mut lat = Vec::new();
    let mut failed = 0;
    for (l, sent, bad, notes) in per_client {
        lat.extend(l);
        pass.ledger.attempted += sent;
        pass.ledger.failed += bad;
        failed += bad;
        for n in notes {
            if pass.ledger.notes.len() < 20 {
                pass.ledger.notes.push(n);
            }
        }
    }
    pass.samples.served_s.push(wall);
    if pass.traced {
        let hist_mean_ms = |name: &str| {
            snapshot.histograms.get(name).map_or(0.0, |h| {
                if h.count == 0 {
                    0.0
                } else {
                    h.sum as f64 / h.count as f64 / 1e3
                }
            })
        };
        let handle = hist_mean_ms("serve_request_micros");
        pass.layers.add("serve.handle_mean_ms", handle);
        pass.layers.add(
            "serve.queue_wait_mean_ms",
            hist_mean_ms("serve_queue_wait_micros"),
        );
        pass.layers
            .add("serve.outside_mean_ms", mean(&lat) - handle);
        pass.layers.add("serve.failed", failed as f64);
    }
    pass.samples.served_ms.extend(lat);
    Ok(())
}

/// Write-then-read cycles: an engine built radius-guided on the first
/// half of the points takes fixed batches of the rest, each followed by
/// `snapshot()` and one exact query.
fn ingest_sample<M: Dist>(
    w: &Workload<M>,
    pass: &mut Pass<'_>,
    recorder: Option<Arc<dyn Recorder>>,
) -> Result<(), String> {
    let plan = w.plan;
    let base = w.points.len() / 2;
    let end = base + plan.ingest_cycles * plan.ingest_batch;
    let build = |points: &[u32]| {
        w.build(
            points.to_vec(),
            &w.metric,
            NetStrategy::RadiusGuided,
            recorder.clone(),
        )
    };
    let engine = pass
        .ledger
        .op(build(&w.points[..base]), "ingest engine build")?;
    let ep = w.exact_params();
    let (mut ingest_s, mut publish_s, mut query_s) = (0.0, 0.0, 0.0);
    let (last, rates) = pass.probed(|p| {
        let mut last = None;
        let mut rates = Vec::with_capacity(plan.ingest_cycles);
        for batch in w.points[base..end].chunks(plan.ingest_batch) {
            let t = Instant::now();
            {
                let _s = trace::span("ingest");
                p.ledger.op(engine.ingest(batch.to_vec()), "ingest")?;
            }
            let t1 = Instant::now();
            let snap = {
                let _s = trace::span("publish");
                engine.snapshot()
            };
            let t2 = Instant::now();
            {
                let _s = trace::span("upgrade_query");
                last = Some(p.ledger.op(snap.exact(&ep), "ingest exact")?);
            }
            ingest_s += (t1 - t).as_secs_f64();
            publish_s += (t2 - t1).as_secs_f64();
            query_s += secs(t2);
            rates.push(batch.len() as f64 / secs(t));
        }
        Ok((last, rates))
    })?;
    pass.samples.ingest_pps.extend(rates);
    if pass.traced {
        let c = plan.ingest_cycles as f64;
        pass.layers.add("core.ingest_s", ingest_s / c);
        pass.layers.add("core.publish_s", publish_s / c);
        pass.layers.add("core.upgrade_query_s", query_s / c);
        pass.layers
            .add("core.cache.upgrades", engine.cache_stats().upgrades as f64);
    }
    if pass.first && !pass.traced {
        let grown = last.expect("at least one ingest cycle").clustering;
        let fresh = pass
            .ledger
            .op(build(&w.points[..end]), "fresh radius-guided build")?;
        let want = pass.ledger.op(fresh.exact(&ep), "fresh exact")?;
        pass.ledger.check(want.clustering == grown, || {
            "ingest-grown engine differs from a fresh radius-guided build".into()
        });
    }
    Ok(())
}

/// The traced run's metric pass, once per run: an engine over the
/// workload's metric wrapped in [`Traced`], then one cold call of each
/// solver with `count_distance_evals` set. It supplies `metric.*` and
/// the per-step evals; the wrapper slows every distance call, so no
/// time other than `metric.self_s.*` is taken from it.
pub fn count_pass<M: Dist>(
    w: &Workload<M>,
    layers: &mut Layers,
    ledger: &mut Ledger,
    refs: &Refs,
) -> Result<(), String> {
    let metric = Traced(w.metric.clone());
    let _s = trace::span("count_pass");
    trace::set_stage(Stage::Setup);
    let engine = ledger.op(
        w.build(w.points.clone(), &metric, NetStrategy::Gonzalez, None),
        "counted build",
    )?;
    let cfg = ExactConfig {
        parallel: engine.parallel(),
        pruning: engine.pruning(),
        count_distance_evals: true,
        ..ExactConfig::default()
    };
    let (ep, ap) = (w.exact_params(), w.approx_params());
    trace::set_stage(Stage::Exact);
    let exact = engine.exact_with(&ep, &cfg);
    trace::set_stage(Stage::Approx);
    engine.clear_cache();
    let approx = engine.approx(&ap);
    trace::set_stage(Stage::CoverTree);
    engine.clear_cache();
    let covertree = engine.covertree_with(&ep, &cfg);
    trace::set_stage(Stage::Streaming);
    engine.clear_cache();
    let streaming = engine.streaming(&ap);
    trace::set_stage(Stage::Setup);
    let (exact, approx, covertree, streaming) = match (exact, approx, covertree, streaming) {
        (Ok(e), Ok(a), Ok(c), Ok(s)) => (e, a, c, s),
        (e, a, c, s) => {
            let err = [e.err(), a.err(), c.err(), s.err()]
                .into_iter()
                .flatten()
                .next()
                .map(|e| e.to_string());
            return ledger.op(Err::<(), _>(err.unwrap_or_default()), "counted solver");
        }
    };
    let mut same = |got: &Clustering, want: &Option<Clustering>, what: &str| {
        ledger.check(want.as_ref() == Some(got), || {
            format!("{what} labels differ under the metric wrapper")
        })
    };
    same(&exact.clustering, &refs.exact, "exact");
    same(&approx.clustering, &refs.approx, "approx");
    same(&covertree.clustering, &refs.covertree, "cover-tree");
    same(&streaming.clustering, &refs.streaming, "streaming");
    step_eval_layers(layers, "exact", &exact);
    step_eval_layers(layers, "covertree", &covertree);
    metric_layers(layers);
    Ok(())
}

/// End-to-end metrics of the plain pass, by name and unit: medians of
/// its samples at the reference host speed.
pub fn end_to_end(
    s: &Samples,
    refs: &Refs,
    peak_rss_mb: f64,
) -> Vec<(&'static str, f64, &'static str)> {
    let k = s.scale();
    vec![
        ("setup_s", median(&s.setup) * k, "s"),
        ("exact_cold_s", median(&s.exact) * k, "s"),
        ("approx_cold_s", median(&s.approx) * k, "s"),
        ("covertree_cold_s", median(&s.covertree) * k, "s"),
        ("streaming_s", median(&s.streaming) * k, "s"),
        ("sweep_s", median(&s.sweep) * k, "s"),
        (
            "served_qps",
            s.served_ms.len() as f64 / s.served_s.iter().sum::<f64>() / k,
            "req/s",
        ),
        ("served_p50_ms", median(&s.served_ms) * k, "ms"),
        ("served_p95_ms", quantile(&s.served_ms, 0.95) * k, "ms"),
        ("ingest_pts_per_s", median(&s.ingest_pps) / k, "pts/s"),
        ("save_s", median(&s.save) * k, "s"),
        ("load_s", median(&s.load) * k, "s"),
        ("artifact_mb", s.artifact_bytes as f64 / 1e6, "MB"),
        ("peak_rss_mb", peak_rss_mb, "MB"),
        ("approx_ari", refs.approx_ari, "ratio"),
        ("streaming_ari", refs.streaming_ari, "ratio"),
    ]
}

/// Tracing overhead per operation: traced ÷ plain − 1, on medians as
/// measured. The two passes alternate round by round, so a change in
/// host speed reaches both.
pub fn overheads(plain: &Samples, traced: &Samples, layers: &mut Layers) {
    let pairs = [
        ("setup", &plain.setup, &traced.setup),
        ("exact", &plain.exact, &traced.exact),
        ("approx", &plain.approx, &traced.approx),
        ("covertree", &plain.covertree, &traced.covertree),
        ("streaming", &plain.streaming, &traced.streaming),
        ("served", &plain.served_ms, &traced.served_ms),
    ];
    for (name, p, t) in pairs {
        layers.add(format!("obs.overhead.{name}"), median(t) / median(p) - 1.0);
    }
}

/// Per-stage metric-call readings of the metric pass, which makes one
/// call per stage.
fn metric_layers(layers: &mut Layers) {
    let (mut evals, mut calls) = (0u64, 0u64);
    for stage in trace::STAGES {
        let t = trace::metric_tally(stage);
        layers.add(format!("metric.evals.{}", stage.name()), t.evals as f64);
        layers.add(format!("metric.self_s.{}", stage.name()), t.secs);
        evals += t.evals;
        calls += t.calls;
    }
    layers.add("metric.batch_len", evals as f64 / calls.max(1) as f64);
}
