//! The workloads, generated from the seed alone. Why each one is
//! in the benchmark is recorded in `BENCHMARK.json`.

use std::path::Path;
use std::sync::Arc;

use metric_dbscan::core::{CandidateIndex, RpConfig};
use metric_dbscan::datagen::{highdim_embeddings, HighDimSpec};
use metric_dbscan::metric::VectorBlock;

use crate::run::{Base, Plan, Workload};

/// The benchmark's own seeded generator (splitmix64).
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in [0, 1).
    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Standard normal (Box–Muller).
    fn normal(&mut self) -> f64 {
        let r = (-2.0 * (1.0 - self.unit()).ln()).sqrt();
        r * (std::f64::consts::TAU * self.unit()).cos()
    }
}

/// Seeded Fisher–Yates shuffle, so no workload arrives in generator
/// order (clusters round-robin, noise last).
fn shuffle<T>(v: &mut [T], seed: u64) {
    let mut rng = SplitMix(seed ^ 0x9e37_79b9_7f4a_7c15);
    for i in (1..v.len()).rev() {
        let j = (rng.next() % (i as u64 + 1)) as usize;
        v.swap(i, j);
    }
}

/// Rounds of a run: the run's `--seconds` over the workload's nominal
/// round cost on a 2-vCPU host, at least 3. Derived from the arguments,
/// never from the clock, so a run does the same work every time.
fn rounds(seconds: u64, nominal_round_s: f64) -> usize {
    ((seconds as f64 / nominal_round_s).round() as usize).max(3)
}

/// Marks of a 10-mark Golomb ruler: every difference between two marks
/// occurs once.
const GOLOMB_10: [f64; 10] = [0.0, 1.0, 6.0, 10.0, 23.0, 26.0, 34.0, 41.0, 53.0, 55.0];

/// Distance between neighbouring ruler units of the `planar-grid`
/// cluster centres.
const RULER_UNIT: f64 = 24.0;

/// The `lowdim_blobs` shape (10 isotropic 2-D Gaussians of σ = 1 and 2 %
/// uniform noise) with the cluster centres fixed at the marks of a
/// Golomb ruler on the x-axis, `RULER_UNIT` apart; the noise covers
/// 1.25× the clusters' x-extent and ±40 in y. The seed draws the
/// samples and the noise; `shuffle` then draws the order.
///
/// `lowdim_blobs` draws its centres from the seed, and the streaming
/// solver's offline merge then costs up to 4.5× more on some seeds: it
/// skips a pair of summary points when their distances to the first
/// stream point differ by more than (1+ρ)ε, so its cost grows with the
/// number of cluster pairs at about the same distance from that point.
/// On the ruler no two centre distances are within `RULER_UNIT` of each
/// other, more than the spread of two clusters plus the merge radius,
/// so from a point of any cluster every other cluster sits at its own
/// distance and the merge does about the same work on every seed.
fn ruler_blobs(n: usize, seed: u64) -> Vec<Vec<f64>> {
    let mut rng = SplitMix(seed);
    let centre = |k: usize| RULER_UNIT * (GOLOMB_10[k] - GOLOMB_10[9] / 2.0);
    let half = 1.25 * (centre(9) + 4.0);
    let mut rows: Vec<Vec<f64>> = (0..n)
        .map(|i| vec![centre(i % 10) + rng.normal(), rng.normal()])
        .collect();
    for _ in 0..n / 50 {
        rows.push(vec![
            half * (2.0 * rng.unit() - 1.0),
            40.0 * (2.0 * rng.unit() - 1.0),
        ]);
    }
    rows
}

/// 2-D Gaussian blobs on the grid index: grid cells, the d = 2 kernels
/// and large label replies do the work.
pub fn planar_grid(
    seed: u64,
    seconds: u64,
    threads: usize,
    dir: &Path,
) -> Workload<VectorBlock<f64>> {
    let mut rows = ruler_blobs(40_000, seed);
    shuffle(&mut rows, seed);
    let n = rows.len();
    let block = VectorBlock::<f64>::from_rows(&rows);
    Workload {
        name: "planar-grid",
        points: Arc::from(block.ids()),
        metric: block,
        rbar: 0.5,
        index: CandidateIndex::Grid,
        base: Base {
            eps: 1.0,
            min_pts: 15,
            rho: 1.0,
        },
        larger_eps: 1.25,
        plan: Plan {
            rounds: rounds(seconds, 5.5),
            exact_reps: 2,
            approx_reps: 8,
            covertree_reps: 1,
            served_per_round: 60,
            ingest_batch: n / 32,
            ingest_cycles: 8,
            kernel_pairs: 20_000_000,
        },
        threads,
        dir: dir.to_path_buf(),
    }
}

/// Shell radius of `embed-128` at `n` points. `BENCH_highdim.json`
/// uses 0.5 at n = 50k; blob spacing on the intrinsic-5 shell grows as
/// R·B^(-1/4) for B blobs, so the radius shrinks with (n/50k)^(1/4) to
/// keep neighbouring blobs within ε of each other. At 0.5 and n = 5k the
/// blobs are isolated, exact DBSCAN returns hundreds of blob-sized
/// clusters, and the ρ = 2 solvers merge them into one (ARI ≈ 0.01
/// against exact).
fn embed_spread(n: usize) -> f64 {
    0.5 * (n as f64 / 50_000.0).powf(0.25)
}

/// Unit-norm d = 128 embeddings on the random-projection index (the
/// shape of `BENCH_highdim.json`): the d = 128 kernels, the Gonzalez
/// set-up and RP candidate generation do the work.
pub fn embed_128(
    seed: u64,
    seconds: u64,
    threads: usize,
    dir: &Path,
) -> Workload<VectorBlock<f64>> {
    let n = 3_000;
    let spec = HighDimSpec {
        n,
        dim: 128,
        clusters: 1,
        spread: embed_spread(n),
        intrinsic: 5,
        radial_exponent: 200.0,
        noise_frac: 0.02,
        halo_frac: 0.10,
        halo_lo: 0.22,
        halo_hi: 0.30,
        halo_ambient: true,
        blob_size: 10,
        blob_spread: 0.012,
        max_center_dot: 0.15,
    };
    let mut rows = highdim_embeddings(spec, seed).into_parts().0;
    shuffle(&mut rows, seed);
    let n = rows.len();
    let block = VectorBlock::<f64>::from_rows(&rows);
    let top_m = (n / 128).clamp(64, 512) as u32;
    let rp = RpConfig::new(seed ^ 0x5eed_ca4d)
        .projections(512)
        .top_m(top_m)
        .probes(4);
    Workload {
        name: "embed-128",
        points: Arc::from(block.ids()),
        metric: block,
        rbar: 0.075,
        index: CandidateIndex::RandomProjection(rp),
        base: Base {
            eps: 0.15,
            min_pts: 10,
            rho: 2.0,
        },
        larger_eps: 0.1875,
        plan: Plan {
            rounds: rounds(seconds, 7.5),
            exact_reps: 3,
            approx_reps: 1,
            // One cover-tree call takes about 0.27 s or 0.40 s, seldom
            // between, so its median needs more calls than one a pass.
            covertree_reps: 2,
            served_per_round: 70,
            ingest_batch: n / 64,
            ingest_cycles: 16,
            kernel_pairs: 2_000_000,
        },
        threads,
        dir: dir.to_path_buf(),
    }
}
