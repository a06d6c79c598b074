//! Deterministic data parallelism + flat storage for the metric-DBSCAN
//! pipeline.
//!
//! The hot phases of the paper's algorithms — the Algorithm-1 distance
//! sweep, the center adjacency, Step 1 core counting, Step 3 border
//! assignment, and the Algorithm-2 summary / labeling loops — are
//! embarrassingly parallel over points or centers. (The union-find
//! merges, exact Step 2 among them, run as one sequential pass.) This
//! crate provides the two ingredients those phases share:
//!
//! * [`ParallelConfig`] plus a small family of scoped-thread executors
//!   ([`par_map_range`], [`par_map_ranges`]) and the persistent-worker
//!   sweep engine ([`sweep_rounds`]), all **deterministic by
//!   construction**: work is
//!   split into contiguous index chunks, per-chunk results are combined
//!   in chunk order, and ties always break toward the smaller index —
//!   so the output never depends on the thread count or on scheduling.
//!   With one thread (or small inputs) they degrade to the plain
//!   sequential loop with zero overhead.
//! * [`Csr`] — compressed sparse rows (offsets + one flat value array)
//!   replacing `Vec<Vec<u32>>` for cover sets, center adjacency, and
//!   core fragments. The innermost distance loops walk contiguous
//!   memory instead of chasing one heap allocation per center.
//! * [`ChunkedCsr`] — the append-only writer-side companion of [`Csr`]:
//!   rows grow by sealed per-batch chunks (historical chunks are never
//!   reallocated), and an epoch publish flattens into the flat [`Csr`]
//!   readers iterate.
//!
//! The executors use `std::thread::scope`, not a pool: the workspace
//! spawns threads only around substantial work (guarded by
//! `min_per_thread`), where the ~10µs spawn cost is noise next to the
//! distance evaluations inside.
#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod chunked;
mod config;
mod csr;
mod executors;
mod persist;
mod sweeps;

pub use chunked::ChunkedCsr;
pub use config::ParallelConfig;
pub use csr::Csr;
pub use executors::{par_map_range, par_map_ranges, split_even, split_weighted, worker_count};
pub use sweeps::{sweep_rounds, SweepTask};
