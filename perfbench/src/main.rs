//! The repository's benchmark: one seeded workload per process, driven
//! through the public API as a user or a replica would, with every
//! answer checked.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload planar-grid --seed 1 --seconds 40 --trace 0
//! ```
//!
//! With `--trace 0` the last line of standard output is a JSON object
//! with the end-to-end metrics; with `--trace 1` the same script runs
//! every round twice, plain and traced, then once more over a counting
//! metric wrapper, and reports the per-layer metrics instead. Earlier lines carry provenance, the served sample
//! count and any failed check. `--seconds` sets the number of rounds
//! (see `workloads.rs`), never a deadline. Artifacts go to
//! `.perfbench/tmp/` under the working directory and are removed at exit;
//! the traced run leaves its spans in `.perfbench/spans-<workload>.jsonl`.

mod run;
mod trace;
mod util;
mod workloads;

use std::path::PathBuf;
use std::time::Instant;

use metric_dbscan::core::CandidateIndex;
use metric_dbscan::grid::{GridIndex, GRID_MAX_DIM};
use metric_dbscan::persist::{write_atomic, ArtifactReader, SharedBytes};
use metric_dbscan::rp::RpIndex;
use metric_dbscan::serve::{QueryReply, Response};

use run::{Dist, Layers, Ledger, Pass, Refs, Samples, Workload};
use util::{mean, median, peak_rss_mb, secs, HostProbe, Obj};

/// Per-layer metrics of the traced run, by name and unit, in output
/// order. `BENCHMARK.json` lists the same names.
const PER_LAYER: &[(&str, &str)] = &[
    ("metric.evals.setup", "count"),
    ("metric.evals.exact", "count"),
    ("metric.evals.approx", "count"),
    ("metric.evals.covertree", "count"),
    ("metric.evals.streaming", "count"),
    ("metric.self_s.setup", "s"),
    ("metric.self_s.exact", "s"),
    ("metric.self_s.approx", "s"),
    ("metric.self_s.covertree", "s"),
    ("metric.self_s.streaming", "s"),
    ("metric.batch_len", "count"),
    ("metric.kernel_mpairs_per_s", "Mpairs/s"),
    ("kcenter.centers", "count"),
    ("kcenter.net_build_s", "s"),
    ("kcenter.adjacency_degree", "count"),
    ("grid.cells_probed.exact", "count"),
    ("grid.cells_probed.approx", "count"),
    ("grid.candidates_emitted.exact", "count"),
    ("grid.candidates_emitted.approx", "count"),
    ("grid.candidates_rejected.exact", "count"),
    ("grid.candidates_rejected.approx", "count"),
    ("grid.build_s", "s"),
    ("rp.projections.approx", "count"),
    ("rp.projections.streaming", "count"),
    ("rp.candidates_emitted.approx", "count"),
    ("rp.candidates_emitted.streaming", "count"),
    ("rp.candidates_rejected.approx", "count"),
    ("rp.candidates_rejected.streaming", "count"),
    ("rp.build_s", "s"),
    ("covertree.build_s", "s"),
    ("core.exact.adjacency_s", "s"),
    ("core.exact.step1_s", "s"),
    ("core.exact.step2_s", "s"),
    ("core.exact.step3_s", "s"),
    ("core.exact.adjacency_evals", "count"),
    ("core.exact.step1_evals", "count"),
    ("core.exact.step2_evals", "count"),
    ("core.exact.step3_evals", "count"),
    ("core.exact.other_s", "s"),
    ("core.covertree.adjacency_s", "s"),
    ("core.covertree.step1_s", "s"),
    ("core.covertree.step2_s", "s"),
    ("core.covertree.step3_s", "s"),
    ("core.covertree.adjacency_evals", "count"),
    ("core.covertree.step1_evals", "count"),
    ("core.covertree.step2_evals", "count"),
    ("core.covertree.step3_evals", "count"),
    ("core.covertree.other_s", "s"),
    ("core.approx.adjacency_s", "s"),
    ("core.approx.summary_s", "s"),
    ("core.approx.merge_s", "s"),
    ("core.approx.label_s", "s"),
    ("core.approx.adjacency_evals", "count"),
    ("core.approx.summary_evals", "count"),
    ("core.approx.merge_evals", "count"),
    ("core.approx.label_evals", "count"),
    ("core.approx.other_s", "s"),
    ("core.streaming.pass1_s", "s"),
    ("core.streaming.pass2_s", "s"),
    ("core.streaming.merge_s", "s"),
    ("core.streaming.pass3_s", "s"),
    ("core.streaming.other_s", "s"),
    ("core.streaming.stored_points", "count"),
    ("core.streaming.merge_pairs", "count"),
    ("core.candidate_probe_s", "s"),
    ("core.exact.bcp_tests", "count"),
    ("core.prune.saved_evals.exact", "count"),
    ("core.prune.saved_evals.approx", "count"),
    ("core.prune.anchor_evals.exact", "count"),
    ("core.prune.anchor_evals.approx", "count"),
    ("core.cache.hits", "count"),
    ("core.cache.misses", "count"),
    ("core.cache.upgrades", "count"),
    ("core.cache.heap_mb", "MB"),
    ("core.ingest_s", "s"),
    ("core.publish_s", "s"),
    ("core.upgrade_query_s", "s"),
    ("parallel.cpu_util.setup", "ratio"),
    ("parallel.cpu_util.exact", "ratio"),
    ("parallel.cpu_util.approx", "ratio"),
    ("parallel.cpu_util.covertree", "ratio"),
    ("parallel.cpu_util.streaming", "ratio"),
    ("persist.section_mb.engine", "MB"),
    ("persist.section_mb.grid-index", "MB"),
    ("persist.section_mb.rp-index", "MB"),
    ("persist.section_mb.points", "MB"),
    ("persist.section_mb.net", "MB"),
    ("persist.section_mb.writer", "MB"),
    ("persist.section_mb.deltas", "MB"),
    ("persist.section_mb.adjacency-cache", "MB"),
    ("persist.section_mb.fragment-cache", "MB"),
    ("persist.section_mb.covertree-cache", "MB"),
    ("persist.section_mb.metric", "MB"),
    ("persist.write_s", "s"),
    ("persist.read_s", "s"),
    ("persist.verify_s", "s"),
    ("persist.bytes_copied", "bytes"),
    ("serve.handle_mean_ms", "ms"),
    ("serve.queue_wait_mean_ms", "ms"),
    ("serve.outside_mean_ms", "ms"),
    ("serve.reply_mb", "MB"),
    ("serve.encode_ms", "ms"),
    ("serve.decode_ms", "ms"),
    ("serve.failed", "count"),
    ("obs.overhead.setup", "ratio"),
    ("obs.overhead.exact", "ratio"),
    ("obs.overhead.approx", "ratio"),
    ("obs.overhead.covertree", "ratio"),
    ("obs.overhead.streaming", "ratio"),
    ("obs.overhead.served", "ratio"),
];

/// Where a run writes: artifacts under `tmp/` (removed at exit) and the
/// traced run's span dump.
const OUT_DIR: &str = ".perfbench";

/// Repetitions of each direct persist and wire probe.
const PROBE_REPS: usize = 5;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 40,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => args.trace = value()? == "1",
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let dir = PathBuf::from(OUT_DIR).join("tmp");
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("perfbench: cannot create {}: {e}", dir.display());
        std::process::exit(2);
    }
    let t0 = Instant::now();
    let (s, seed, trace) = (args.seconds, args.seed, args.trace);
    let result = match args.workload.as_str() {
        "planar-grid" => Some(bench(
            workloads::planar_grid(seed, s, threads, &dir),
            trace,
            t0,
        )),
        "embed-128" => Some(bench(
            workloads::embed_128(seed, s, threads, &dir),
            trace,
            t0,
        )),
        _ => None,
    };
    let _ = std::fs::remove_dir_all(&dir);
    // Left in place only when it holds the traced run's span dump.
    let _ = std::fs::remove_dir(OUT_DIR);
    match result {
        Some(line) => println!("{line}"),
        None => {
            eprintln!(
                "perfbench: unknown workload {:?} (planar-grid, embed-128)",
                args.workload
            );
            std::process::exit(2);
        }
    }
}

/// The commit under test: `PERFBENCH_COMMIT`, else `HEAD` of a `.git`
/// in the working directory (never one above it), else `unknown`.
fn commit() -> String {
    std::env::var("PERFBENCH_COMMIT").ok().unwrap_or_else(|| {
        std::process::Command::new("git")
            .args(["rev-parse", "HEAD"])
            .env("GIT_DIR", ".git")
            .stderr(std::process::Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map_or("unknown".into(), |o| {
                String::from_utf8_lossy(&o.stdout).trim().to_string()
            })
    })
}

/// Runs one workload and returns the result line.
fn bench<M: Dist>(w: Workload<M>, trace: bool, t0: Instant) -> String {
    let generated_s = secs(t0);
    let commit = commit();
    let (mut plain, mut traced) = (Samples::default(), Samples::default());
    let (mut layers, mut unused) = (Layers::default(), Layers::default());
    let mut ledger = Ledger::default();
    let mut refs = Refs::default();
    let mut probe = HostProbe::new(w.threads);
    let mut aborted = None;
    // A traced run makes every round twice, so it makes half the rounds
    // (at least 3) and takes about as long as a plain run.
    let rounds = if trace {
        w.plan.rounds.div_ceil(2).max(3)
    } else {
        w.plan.rounds
    };
    for r in 0..rounds {
        let mut pass = Pass {
            traced: false,
            samples: &mut plain,
            layers: &mut unused,
            ledger: &mut ledger,
            refs: &mut refs,
            probe: &mut probe,
            first: r == 0,
        };
        if let Err(e) = run::round(&w, &mut pass) {
            aborted = Some(e);
            break;
        }
        if trace {
            trace::enable(true);
            let mut pass = Pass {
                traced: true,
                samples: &mut traced,
                layers: &mut layers,
                ledger: &mut ledger,
                refs: &mut refs,
                probe: &mut probe,
                first: false,
            };
            let outcome = run::round(&w, &mut pass);
            trace::enable(false);
            if let Err(e) = outcome {
                aborted = Some(e);
                break;
            }
        }
    }
    let rss = peak_rss_mb();
    if aborted.is_none() && trace {
        trace::enable(true);
        if let Err(e) = run::count_pass(&w, &mut layers, &mut ledger, &refs) {
            aborted = Some(e);
        }
        probes(&w, &refs, &mut layers, &mut ledger);
        trace::enable(false);
        run::overheads(&plain, &traced, &mut layers);
        let spans = PathBuf::from(OUT_DIR).join(format!("spans-{}.jsonl", w.name));
        if std::fs::write(&spans, trace::dump_spans()).is_ok() {
            println!("spans: {}", spans.display());
        }
    }

    println!(
        "perfbench {} n={} rounds={} threads={} server_workers={} clients={} commit={} generated_s={:.3} total_s={:.3}",
        w.name,
        w.points.len(),
        rounds,
        w.threads,
        w.threads,
        w.threads,
        commit,
        generated_s,
        secs(t0)
    );
    println!(
        "{}",
        Obj::default()
            .str("provenance", "perfbench")
            .str("workload", w.name)
            .str("commit", &commit)
            .int("nproc", w.threads as u64)
            .int("engine_threads", w.threads as u64)
            .int("server_workers", w.threads as u64)
            .int("clients", w.threads as u64)
            .int("n", w.points.len() as u64)
            .int("rounds", rounds as u64)
            .int("served_samples", plain.served_ms.len() as u64)
            .int("attempted", ledger.attempted)
            .int("failed", ledger.failed)
            .finish()
    );
    // Every plain sample as measured, with its median, and the pass's
    // host-speed scale.
    let mut raw = Obj::default().num("scale", plain.scale());
    for (name, series) in plain.named() {
        raw = raw.obj(
            name,
            Obj::default()
                .num("median", median(series))
                .list("raw", series),
        );
    }
    println!("samples: {}", raw.finish());
    for note in &ledger.notes {
        println!("failed: {note}");
    }
    if let Some(e) = &aborted {
        println!("aborted: {e}");
    }

    let correct = aborted.is_none() && ledger.failed == 0;
    let mut metrics = Obj::default();
    if trace {
        for &(name, unit) in PER_LAYER {
            metrics = metrics.obj(
                name,
                Obj::default()
                    .num("value", layers.get(name))
                    .str("unit", unit),
            );
        }
    } else {
        for (name, value, unit) in run::end_to_end(&plain, &refs, rss) {
            metrics = metrics.obj(name, Obj::default().num("value", value).str("unit", unit));
        }
    }
    Obj::default()
        .bool("correct", correct)
        .int("attempted", ledger.attempted.max(1))
        .int("failed", ledger.failed)
        .obj("metrics", metrics)
        .finish()
}

/// Direct calls into single layers, on the workload's own inputs.
fn probes<M: Dist>(w: &Workload<M>, refs: &Refs, layers: &mut Layers, ledger: &mut Ledger) {
    // Kernel rate: `dist_many` from a few rows to every row.
    let n = w.points.len();
    let ids: Vec<u32> = (0..n as u32).collect();
    let queries = (w.plan.kernel_pairs / n).max(1);
    let mut out = Vec::with_capacity(n);
    let t = Instant::now();
    {
        let _s = trace::span("probe.dist_many");
        for q in 0..queries {
            w.metric
                .dist_many(&w.points, &w.points[q % n], &ids, &mut out);
            std::hint::black_box(&out);
        }
    }
    layers.add(
        "metric.kernel_mpairs_per_s",
        (queries * n) as f64 / secs(t) / 1e6,
    );

    // Index builds, where the workload configures the index.
    let mut coords = Vec::new();
    let dim = w.metric.grid_coords(&w.points, &mut coords);
    match (w.index, dim) {
        (CandidateIndex::Grid, Some(d)) if d <= GRID_MAX_DIM => {
            let cell = w.base.eps / (d as f64).sqrt();
            let samples: Vec<f64> = (0..PROBE_REPS)
                .map(|_| {
                    let c = coords.clone();
                    let _s = trace::span("probe.grid_build");
                    let t = Instant::now();
                    std::hint::black_box(GridIndex::build(d, cell, c));
                    secs(t)
                })
                .collect();
            layers.add("grid.build_s", mean(&samples));
        }
        (CandidateIndex::RandomProjection(cfg), Some(d)) => {
            let samples: Vec<f64> = (0..PROBE_REPS)
                .map(|_| {
                    let _s = trace::span("probe.rp_build");
                    let t = Instant::now();
                    std::hint::black_box(RpIndex::build(d, &coords, cfg));
                    secs(t)
                })
                .collect();
            layers.add("rp.build_s", mean(&samples));
        }
        _ => {}
    }

    // Persistence on the saved artifact.
    let path = w.dir.join("plain-engine.mdb");
    if let Ok(bytes) = ledger.op(std::fs::read(&path), "read artifact") {
        let copy = w.dir.join("probe-copy.mdb");
        for _ in 0..PROBE_REPS {
            let _s = trace::span("probe.write_atomic");
            let t = Instant::now();
            let _ = ledger.op(write_atomic(&copy, &bytes), "write_atomic");
            layers.add("persist.write_s", secs(t));
        }
        for _ in 0..PROBE_REPS {
            let _s = trace::span("probe.read_file");
            let t = Instant::now();
            let _ = ledger.op(SharedBytes::read_file(&path), "read_file");
            layers.add("persist.read_s", secs(t));
        }
        for _ in 0..PROBE_REPS {
            let _s = trace::span("probe.artifact_reader");
            let t = Instant::now();
            let _ = ledger.op(ArtifactReader::from_bytes(&bytes).map(|_| ()), "verify");
            layers.add("persist.verify_s", secs(t));
        }
        if let Ok(reader) = ArtifactReader::from_bytes(&bytes) {
            for &(name, _) in PER_LAYER {
                if let Some(section) = name.strip_prefix("persist.section_mb.") {
                    let len = reader.section(section).map_or(0, |s| s.remaining());
                    layers.add(name, len as f64 / 1e6);
                }
            }
        }
    }

    // Wire codec on a reply of this workload's size.
    if let Some(exact) = &refs.exact {
        let reply = Response::Labels(QueryReply {
            epoch: 0,
            num_clusters: exact.num_clusters() as u64,
            labels: exact.labels().to_vec(),
        });
        let bytes = reply.encode();
        layers.add("serve.reply_mb", bytes.len() as f64 / 1e6);
        for _ in 0..PROBE_REPS {
            let _s = trace::span("probe.encode");
            let t = Instant::now();
            std::hint::black_box(reply.encode());
            layers.add("serve.encode_ms", secs(t) * 1e3);
        }
        for _ in 0..PROBE_REPS {
            let _s = trace::span("probe.decode");
            let t = Instant::now();
            let _ = ledger.op(Response::decode(&bytes), "decode");
            layers.add("serve.decode_ms", secs(t) * 1e3);
        }
    }
}
