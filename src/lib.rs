//! # metric-dbscan
//!
//! A production-quality Rust implementation of
//!
//! > Mo, Song, Ding. *Towards Metric DBSCAN: Exact, Approximate, and
//! > Streaming Algorithms.* SIGMOD 2024 (PACMMOD 2(3), article 178).
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`core`] — the paper's algorithms behind one owned, `Send + Sync`,
//!   `Arc`-shareable engine, [`core::MetricDbscan`]: exact metric DBSCAN
//!   (§3.1 and the §3.2 cover-tree variant), ρ-approximate DBSCAN
//!   (Algorithm 2), and the 3-pass streaming engine (Algorithm 3). Build
//!   once, probe `(ε, MinPts, ρ)` forever (Remark 5/6) — with an LRU of
//!   per-parameter Step-1/2 results, so a *repeated* probe runs only
//!   Step 3;
//! * [`metric`] — the metric-space substrate (Euclidean/L1/L∞/angular,
//!   Levenshtein/Hamming, distance-call counting);
//! * [`covertree`] — the cover-tree index (Beygelzimer et al. 2006)
//!   behind the §3.2 solver, with the detachable
//!   [`covertree::CoverTreeSkeleton`] the engine caches per epoch;
//! * [`kcenter`] — Gonzalez, radius-guided Gonzalez (Algorithm 1),
//!   k-center with outliers;
//! * [`grid`] — the ε-aligned grid index for low-dimensional Euclidean
//!   workloads: cell-bucketed candidate generation behind
//!   [`core::CandidateIndex::Grid`], bit-identical labels with far
//!   fewer distance evaluations on millions-of-points coordinate data;
//! * [`rp`] — the seeded random-projection candidate index for
//!   high-dimensional embeddings (sDBSCAN-style top-m projection
//!   lists) behind [`core::CandidateIndex::RandomProjection`]: where
//!   high doubling dimension erodes the net-anchored pruning above,
//!   the approximate and streaming solvers draw Step-1 counting and
//!   labeling candidates from capped lists instead — deterministic for
//!   a fixed seed, with quality measured (not assumed) against the
//!   exact solver;
//! * [`parallel`] — the deterministic scoped-thread executors and flat
//!   CSR storage the pipeline runs on, plus the
//!   [`parallel::ParallelConfig`] thread knob (see `core`'s "Threading
//!   model" docs);
//! * [`persist`] — the versioned, checksummed on-disk artifact format
//!   behind [`core::MetricDbscan::save`] / `load`: restart without
//!   rebuilding, ship prebuilt indexes, fan out read replicas — loads
//!   perform **zero** distance evaluations;
//! * [`serve`] — the fault-tolerant serving tier: a deadline-enforced
//!   `std::net` query server with panic isolation and load shedding, a
//!   retrying client, and the deterministic fault-injection harness
//!   behind `tests/fault_injection.rs`;
//! * [`obs`] — std-only observability: an atomic metrics registry
//!   (counters, gauges, log2-bucket histograms), the
//!   [`core::Recorder`] phase-tracing trait the engine threads through
//!   every solver, a Prometheus-style plaintext exposition with a tiny
//!   `GET /metrics` responder, and a structured `key=value` logger.
//!   Instrumentation is **read-only with respect to clustering
//!   output** — labels are bit-identical with or without a recorder
//!   attached (asserted by `tests/observability.rs`);
//! * [`baselines`] — every comparator of the paper's evaluation;
//! * [`eval`] — ARI / AMI / NMI;
//! * [`datagen`] — deterministic synthetic workloads for all dataset
//!   classes of Table 1.
//!
//! ## Quickstart
//!
//! ```
//! use metric_dbscan::core::{DbscanParams, MetricDbscan};
//! use metric_dbscan::metric::Euclidean;
//!
//! // two tight groups and one stray point
//! let mut points: Vec<Vec<f64>> = Vec::new();
//! for i in 0..20 {
//!     points.push(vec![i as f64 * 0.01, 0.0]);
//!     points.push(vec![5.0 + i as f64 * 0.01, 0.0]);
//! }
//! points.push(vec![100.0, 100.0]);
//!
//! let engine = MetricDbscan::builder(points, Euclidean)
//!     .rbar(0.25) // r̄ ≤ ε/2 for every ε we will query
//!     .build()
//!     .unwrap();
//! let run = engine.exact(&DbscanParams::new(0.5, 5).unwrap()).unwrap();
//! assert_eq!(run.clustering.num_clusters(), 2);
//! assert!(run.clustering.labels().last().unwrap().is_noise());
//! // same parameters again → served from the Step-1/2 cache
//! assert!(engine.exact(&DbscanParams::new(0.5, 5).unwrap()).unwrap().report.cache_hit);
//! ```
//!
//! ## High-dimensional embeddings
//!
//! Past d ≈ 10 the triangle-inequality sandwich the generic path prunes
//! with goes blunt: a coarse ρ-approximate net blurs every member bound
//! by ±r̄, and in high doubling dimension the straddle horizon holds an
//! order of magnitude more mass than the ε-ball being counted. For
//! unit-norm embedding vectors, store them in a
//! [`metric::VectorBlock`] (SoA kernels) and opt into the seeded
//! random-projection index:
//!
//! ```
//! use metric_dbscan::core::{
//!     ApproxParams, CandidateIndex, MetricDbscan, RpConfig,
//! };
//! use metric_dbscan::datagen::{highdim_embeddings, HighDimSpec};
//! use metric_dbscan::metric::VectorBlock;
//!
//! let rows = highdim_embeddings(
//!     HighDimSpec { n: 600, dim: 64, clusters: 3, ..Default::default() },
//!     7,
//! )
//! .into_parts()
//! .0;
//! let block = VectorBlock::<f64>::from_rows(&rows);
//! let engine = MetricDbscan::builder(block.ids(), block)
//!     .rbar(0.2) // = ρε/2 for the (ε, ρ) below
//!     .candidate_index(CandidateIndex::RandomProjection(
//!         RpConfig::new(42).projections(64).top_m(64).probes(4),
//!     ))
//!     .build()
//!     .unwrap();
//! let run = engine.approx(&ApproxParams::new(0.2, 5, 2.0).unwrap()).unwrap();
//! assert!(run.report.rp.candidates_emitted > 0); // RP actually engaged
//! assert!(run.clustering.num_clusters() >= 1);
//! ```
//!
//! The seed is part of the engine configuration, so RP-backed runs stay
//! bit-identical across thread counts, ingest-vs-fresh builds, and
//! artifact round trips; what a candidate miss costs is *quality*
//! against the exact solver (measure it with [`eval`]), never
//! nondeterminism. `BENCH_highdim.json` tracks the headline: at
//! d = 128, n = 50k the RP index cuts Step-1 + labeling distance
//! evaluations ≥ 3× versus the pruned generic path at ARI ≥ 0.95.
//!
//! One-shot free functions ([`core::exact_dbscan`], [`core::approx_dbscan`])
//! remain for scripts that cluster borrowed data exactly once.
//!
//! See `examples/` for text clustering under edit distance, streaming
//! session clustering, parameter tuning on a shared engine, and
//! high-dimensional outlier-robust clustering.
#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub use mdbscan_baselines as baselines;
pub use mdbscan_core as core;
pub use mdbscan_covertree as covertree;
pub use mdbscan_datagen as datagen;
pub use mdbscan_eval as eval;
pub use mdbscan_grid as grid;
pub use mdbscan_kcenter as kcenter;
pub use mdbscan_metric as metric;
pub use mdbscan_obs as obs;
pub use mdbscan_parallel as parallel;
pub use mdbscan_persist as persist;
pub use mdbscan_rp as rp;
pub use mdbscan_serve as serve;
